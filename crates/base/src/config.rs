//! Simulated-architecture configuration.
//!
//! The defaults reproduce Table 1 of the paper: 8-issue out-of-order x86-like
//! cores at 2 GHz with a 192-entry ROB, 62-entry load queue and 32-entry
//! store queue, 32 KB 8-way L1D caches, a sliced 2 MB 16-way shared L2/LLC
//! with a directory-based MESI protocol over an ordered mesh, and 50 ns
//! DRAM. The Pinned Loads structures (CST, CPT, extended LQ ID tag) use the
//! paper's default sizes from Table 1 and Section 9.2.
//!
//! Configurations are plain structs with public fields (they are passive
//! data in the C spirit) plus a [`MachineConfig::validate`] pass that
//! returns a typed [`ConfigError`] for inconsistent combinations.

use std::error::Error;
use std::fmt;

/// The hardware defense scheme protecting pre-VP loads (Table 2).
///
/// # Examples
///
/// ```
/// use pl_base::DefenseScheme;
/// assert_eq!(DefenseScheme::Fence.to_string(), "Fence");
/// assert!(DefenseScheme::Unsafe < DefenseScheme::Stt);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum DefenseScheme {
    /// No defense: unmodified out-of-order core.
    #[default]
    Unsafe,
    /// Stall all speculative loads with fences until they reach the VP.
    Fence,
    /// Delay-On-Miss: pre-VP loads may execute only if they hit in the L1.
    Dom,
    /// Speculative Taint Tracking: stall loads whose arguments are tainted
    /// by transiently-read data.
    Stt,
    /// Invisible speculation (InvisiSpec-class): pre-VP loads execute
    /// without changing cache state and are validated with a second,
    /// exposed access once they reach their VP.
    Invisible,
}

impl DefenseScheme {
    /// All schemes in evaluation order.
    pub const ALL: [DefenseScheme; 5] = [
        DefenseScheme::Unsafe,
        DefenseScheme::Fence,
        DefenseScheme::Dom,
        DefenseScheme::Stt,
        DefenseScheme::Invisible,
    ];

    /// The schemes the paper evaluates (Table 2).
    pub const PROTECTED: [DefenseScheme; 3] =
        [DefenseScheme::Fence, DefenseScheme::Dom, DefenseScheme::Stt];

    /// The paper's schemes plus the InvisiSpec-class extension.
    pub const EXTENDED: [DefenseScheme; 4] = [
        DefenseScheme::Fence,
        DefenseScheme::Dom,
        DefenseScheme::Stt,
        DefenseScheme::Invisible,
    ];
}

impl fmt::Display for DefenseScheme {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DefenseScheme::Unsafe => "Unsafe",
            DefenseScheme::Fence => "Fence",
            DefenseScheme::Dom => "DOM",
            DefenseScheme::Stt => "STT",
            DefenseScheme::Invisible => "InvSpec",
        };
        f.write_str(s)
    }
}

/// The speculative threat model, which determines when a load reaches its
/// Visibility Point (Section 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum ThreatModel {
    /// Comprehensive model: a load reaches its VP only when no squash is
    /// possible for any reason (branches, aliasing, exceptions, MCVs).
    #[default]
    Comprehensive,
    /// Spectre model: only control-flow mispredictions are relevant.
    Spectre,
}

impl fmt::Display for ThreatModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ThreatModel::Comprehensive => "Comprehensive",
            ThreatModel::Spectre => "Spectre",
        };
        f.write_str(s)
    }
}

/// The Pinned Loads extension mode applied on top of a defense scheme
/// (Table 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum PinMode {
    /// No extension: the unmodified scheme ("Comp" in the paper when under
    /// the Comprehensive model).
    #[default]
    Off,
    /// Late Pinning: a load is pinned when its data arrives at the L1
    /// (Section 5.2.1). No CST is required.
    Late,
    /// Early Pinning: a load may be pinned before issuing to memory, using
    /// the Cache Shadow Table to guarantee space (Section 5.2.2).
    Early,
}

impl fmt::Display for PinMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            PinMode::Off => "Comp",
            PinMode::Late => "LP",
            PinMode::Early => "EP",
        };
        f.write_str(s)
    }
}

/// Out-of-order core parameters (Table 1, "Core" row).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CoreConfig {
    /// Maximum instructions issued to functional units per cycle.
    pub issue_width: usize,
    /// Maximum instructions fetched/renamed per cycle.
    pub fetch_width: usize,
    /// Maximum instructions retired per cycle.
    pub commit_width: usize,
    /// Reorder buffer capacity.
    pub rob_entries: usize,
    /// Load queue capacity.
    pub lq_entries: usize,
    /// Store queue capacity (pre-retirement stores).
    pub sq_entries: usize,
    /// Post-retirement write buffer capacity (entries awaiting merge into
    /// the cache under TSO).
    pub write_buffer_entries: usize,
    /// Number of BTB entries.
    pub btb_entries: usize,
    /// Number of return address stack entries.
    pub ras_entries: usize,
    /// Branch misprediction squash-to-refetch penalty in cycles (front-end
    /// redirect latency).
    pub mispredict_penalty: u64,
    /// Integer ALU operation latency in cycles.
    pub alu_latency: u64,
    /// Multiply/divide latency in cycles.
    pub mul_latency: u64,
    /// `false` (default) models the aggressive TSO implementation of
    /// Section 2, where invalidations and evictions never squash the
    /// *oldest* load in the ROB (no reordering has happened) — the design
    /// the paper evaluates. `true` models the conservative Intel-style
    /// implementation where any matching performed load is squashed; it
    /// also removes the oldest-load exemption from the Late Pinning
    /// issue rules (Section 3.3), so at most one unpinned load is
    /// outstanding.
    pub conservative_tso: bool,
}

impl Default for CoreConfig {
    fn default() -> CoreConfig {
        CoreConfig {
            issue_width: 8,
            fetch_width: 8,
            commit_width: 8,
            rob_entries: 192,
            lq_entries: 62,
            sq_entries: 32,
            write_buffer_entries: 16,
            btb_entries: 4096,
            ras_entries: 16,
            mispredict_penalty: 12,
            alu_latency: 1,
            mul_latency: 4,
            conservative_tso: false,
        }
    }
}

/// Parameters of one cache level.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: u64,
    /// Set associativity (ways).
    pub ways: usize,
    /// Round-trip hit latency in cycles.
    pub hit_latency: u64,
    /// Number of MSHR entries (outstanding misses).
    pub mshr_entries: usize,
}

impl CacheConfig {
    /// Number of sets implied by size, associativity and the 64-byte line.
    ///
    /// # Examples
    ///
    /// ```
    /// use pl_base::CacheConfig;
    /// let l1d = CacheConfig { size_bytes: 32 * 1024, ways: 8, hit_latency: 2, mshr_entries: 16 };
    /// assert_eq!(l1d.num_sets(), 64);
    /// ```
    pub fn num_sets(&self) -> usize {
        (self.size_bytes / crate::addr::LINE_BYTES) as usize / self.ways
    }

    /// log2 of the set count.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if the set count is not a power of two; call
    /// [`MachineConfig::validate`] first.
    pub fn index_bits(&self) -> u32 {
        let sets = self.num_sets();
        debug_assert!(sets.is_power_of_two());
        sets.trailing_zeros()
    }
}

/// Memory-hierarchy parameters (Table 1, cache/network/DRAM rows).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemConfig {
    /// Private L1 data cache (32 KB, 8-way, 2-cycle RT).
    pub l1d: CacheConfig,
    /// One slice of the shared L2/LLC (2 MB, 16-way, 8-cycle RT).
    pub llc_slice: CacheConfig,
    /// Number of LLC slices; the paper uses one slice per core tile on a
    /// 4x2 mesh for the 8-core runs and a single slice for 1-core runs.
    pub llc_slices: usize,
    /// Network latency per hop in cycles.
    pub hop_latency: u64,
    /// Average hop count used for the mesh (derived from a 4x2 mesh for
    /// 8 cores).
    pub mesh_cols: usize,
    /// Mesh rows.
    pub mesh_rows: usize,
    /// DRAM round-trip latency after the LLC, in cycles (50 ns at 2 GHz =
    /// 100 cycles).
    pub dram_latency: u64,
    /// Degree of the L1 next-line prefetcher (Table 1 lists one hardware
    /// prefetcher per L1): on a demand miss, the next `prefetch_degree`
    /// sequential lines are fetched too. Zero disables prefetching.
    pub prefetch_degree: usize,
}

impl Default for MemConfig {
    fn default() -> MemConfig {
        MemConfig {
            l1d: CacheConfig {
                size_bytes: 32 * 1024,
                ways: 8,
                hit_latency: 2,
                mshr_entries: 16,
            },
            llc_slice: CacheConfig {
                size_bytes: 2 * 1024 * 1024,
                ways: 16,
                hit_latency: 8,
                mshr_entries: 32,
            },
            llc_slices: 1,
            hop_latency: 1,
            mesh_cols: 4,
            mesh_rows: 2,
            dram_latency: 100,
            prefetch_degree: 1,
        }
    }
}

/// Cache Shadow Table sizing (Table 1, "L1 CST" / "Dir/LLC CST" rows).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CstConfig {
    /// Number of hash-table entries in the L1 CST (default 12).
    pub l1_entries: usize,
    /// Records per entry in the L1 CST (default 8).
    pub l1_records: usize,
    /// Number of hash-table entries in the directory/LLC CST (default 40).
    pub dir_entries: usize,
    /// Records per entry in the directory/LLC CST (default 2).
    pub dir_records: usize,
    /// W_d: directory/LLC lines reservable per slice and set for each core
    /// (default 2, Section 9.2.3).
    pub wd: usize,
}

impl Default for CstConfig {
    fn default() -> CstConfig {
        CstConfig {
            l1_entries: 12,
            l1_records: 8,
            dir_entries: 40,
            dir_records: 2,
            wd: 2,
        }
    }
}

/// Cannot-Pin Table sizing (Section 6.3).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CptConfig {
    /// Number of line addresses the CPT can hold (default 4).
    pub entries: usize,
}

impl Default for CptConfig {
    fn default() -> CptConfig {
        CptConfig { entries: 4 }
    }
}

/// Pinned Loads configuration: pin mode plus structure sizes.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct PinnedLoadsConfig {
    /// Which pinning design is active.
    pub mode: PinMode,
    /// Cache Shadow Table sizes (used by Early Pinning only).
    pub cst: CstConfig,
    /// Cannot-Pin Table size.
    pub cpt: CptConfig,
    /// Width in bits of the extended LQ ID tag used to make wraparound rare
    /// (Section 6.2; default 24).
    pub lq_id_tag_bits: u32,
    /// If `true`, model an unbounded ("ideal") CST, used by the Section
    /// 9.2.1 sensitivity study as the no-false-positive reference.
    pub ideal_cst: bool,
    /// If `true`, model an unbounded CPT, used by the Section 9.2.2 study
    /// to measure true occupancy.
    pub ideal_cpt: bool,
}

impl PinnedLoadsConfig {
    /// Convenience constructor for a given mode with default structure
    /// sizes.
    ///
    /// # Examples
    ///
    /// ```
    /// use pl_base::{PinMode, PinnedLoadsConfig};
    /// let pl = PinnedLoadsConfig::with_mode(PinMode::Early);
    /// assert_eq!(pl.mode, PinMode::Early);
    /// assert_eq!(pl.cst.wd, 2);
    /// ```
    pub fn with_mode(mode: PinMode) -> PinnedLoadsConfig {
        PinnedLoadsConfig {
            mode,
            lq_id_tag_bits: 24,
            ..PinnedLoadsConfig::default()
        }
    }
}

/// Cycle-level event-tracing configuration.
///
/// Tracing is off by default; when enabled, every traced component keeps
/// a bounded drop-oldest ring buffer of `buffer_capacity` events, so
/// memory stays bounded on arbitrarily long runs.
///
/// # Examples
///
/// ```
/// use pl_base::TraceConfig;
/// let t = TraceConfig::default();
/// assert!(!t.enabled);
/// let on = TraceConfig::enabled();
/// assert!(on.enabled && on.buffer_capacity > 0);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceConfig {
    /// Record events into per-component ring buffers.
    pub enabled: bool,
    /// Events retained per component before drop-oldest kicks in.
    pub buffer_capacity: usize,
}

impl TraceConfig {
    /// The default ring-buffer capacity per traced component.
    pub const DEFAULT_CAPACITY: usize = 65_536;

    /// Tracing switched on with the default buffer capacity.
    pub fn enabled() -> TraceConfig {
        TraceConfig {
            enabled: true,
            buffer_capacity: TraceConfig::DEFAULT_CAPACITY,
        }
    }

    /// The per-component ring capacity implied by this config: zero when
    /// disabled, so components can build disabled tracers from it
    /// directly.
    pub fn capacity(&self) -> usize {
        if self.enabled {
            self.buffer_capacity
        } else {
            0
        }
    }
}

impl Default for TraceConfig {
    fn default() -> TraceConfig {
        TraceConfig {
            enabled: false,
            buffer_capacity: TraceConfig::DEFAULT_CAPACITY,
        }
    }
}

/// Complete configuration of a simulated machine.
///
/// Use [`MachineConfig::default_single_core`] or
/// [`MachineConfig::default_multi_core`] for the paper's two evaluation
/// setups, then adjust fields and call [`MachineConfig::validate`].
///
/// # Examples
///
/// ```
/// use pl_base::{DefenseScheme, MachineConfig, PinMode, ThreatModel};
///
/// let mut cfg = MachineConfig::default_multi_core(8);
/// cfg.defense = DefenseScheme::Dom;
/// cfg.pinned_loads.mode = PinMode::Early;
/// cfg.validate().expect("valid configuration");
/// assert_eq!(cfg.threat_model, ThreatModel::Comprehensive);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct MachineConfig {
    /// Number of cores, at most [`MAX_CORES`].
    pub num_cores: usize,
    /// Core pipeline parameters.
    pub core: CoreConfig,
    /// Memory hierarchy parameters.
    pub mem: MemConfig,
    /// Active defense scheme.
    pub defense: DefenseScheme,
    /// Threat model determining VP conditions.
    pub threat_model: ThreatModel,
    /// Pinned Loads extension configuration.
    pub pinned_loads: PinnedLoadsConfig,
    /// Cycle-level event tracing (off by default).
    pub trace: TraceConfig,
    /// Selects the event-driven run loop over the naive one that ticks
    /// every component every cycle. The event-driven loop skips
    /// components with nothing due, parks quiet cores and replays their
    /// statistics in bulk at wake, and jumps `now` to the next event
    /// when every core is parked or spinning. Architecturally invisible
    /// (bit-identical stats, traces, and retirement order); on by default.
    pub fast_forward: bool,
    /// Spin-loop parking: when an awake core's boundary state repeats
    /// with a fixed period and no messages in or out, park it in a
    /// `Spinning` calendar state and replay the captured per-period
    /// deltas on wake. Architecturally invisible like [`fast_forward`]
    /// (which it requires — the detector rides the scheduled run loop);
    /// on by default.
    ///
    /// [`fast_forward`]: MachineConfig::fast_forward
    pub spin_parking: bool,
    /// Random seed driving every stochastic element of a run (address
    /// layout randomization in workloads, etc.). Same seed, same result.
    pub seed: u64,
    /// Runtime invariant checking and fault injection (off by default).
    pub verify: crate::verify::VerifyConfig,
}

/// The most cores a machine may have: the directory tracks a line's
/// sharers in a bitmap of one bit per core.
pub const MAX_CORES: usize = 64;

impl MachineConfig {
    /// The paper's single-core setup used for SPEC17 (Table 1).
    pub fn default_single_core() -> MachineConfig {
        MachineConfig {
            num_cores: 1,
            core: CoreConfig::default(),
            mem: MemConfig::default(),
            defense: DefenseScheme::Unsafe,
            threat_model: ThreatModel::Comprehensive,
            pinned_loads: PinnedLoadsConfig::with_mode(PinMode::Off),
            trace: TraceConfig::default(),
            fast_forward: true,
            spin_parking: true,
            seed: 0xA5105,
            verify: crate::verify::VerifyConfig::default(),
        }
    }

    /// The paper's 8-core setup used for SPLASH2/PARSEC (Table 1), with one
    /// LLC slice per core on a 4x2 mesh.
    pub fn default_multi_core(num_cores: usize) -> MachineConfig {
        let mut cfg = MachineConfig::default_single_core();
        cfg.num_cores = num_cores;
        cfg.mem.llc_slices = num_cores.max(1);
        cfg
    }

    /// Checks internal consistency.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] describing the first inconsistency found:
    /// zero-sized structures, more cores than [`MAX_CORES`],
    /// non-power-of-two cache geometry, a store queue larger than the ROB,
    /// or Early Pinning with a zero W_d.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.num_cores == 0 {
            return Err(ConfigError::ZeroCores);
        }
        if self.num_cores > MAX_CORES {
            return Err(ConfigError::TooManyCores(self.num_cores));
        }
        if self.core.rob_entries == 0
            || self.core.lq_entries == 0
            || self.core.sq_entries == 0
            || self.core.write_buffer_entries == 0
        {
            return Err(ConfigError::ZeroQueue);
        }
        if self.core.issue_width == 0 || self.core.fetch_width == 0 || self.core.commit_width == 0 {
            return Err(ConfigError::ZeroWidth);
        }
        if self.core.sq_entries > self.core.rob_entries
            || self.core.lq_entries > self.core.rob_entries
        {
            return Err(ConfigError::QueueLargerThanRob);
        }
        for (name, c) in [("l1d", &self.mem.l1d), ("llc_slice", &self.mem.llc_slice)] {
            if c.ways == 0 || c.size_bytes == 0 {
                return Err(ConfigError::ZeroCache(name));
            }
            let lines = c.size_bytes / crate::addr::LINE_BYTES;
            if !lines.is_multiple_of(c.ways as u64) || !(lines / c.ways as u64).is_power_of_two() {
                return Err(ConfigError::BadGeometry(name));
            }
        }
        if self.mem.llc_slices == 0 {
            return Err(ConfigError::ZeroCache("llc_slices"));
        }
        if self.pinned_loads.mode == PinMode::Early && self.pinned_loads.cst.wd == 0 {
            return Err(ConfigError::ZeroWd);
        }
        if self.pinned_loads.mode != PinMode::Off && self.pinned_loads.lq_id_tag_bits < 8 {
            return Err(ConfigError::LqTagTooNarrow(
                self.pinned_loads.lq_id_tag_bits,
            ));
        }
        if self.pinned_loads.mode != PinMode::Off && self.threat_model == ThreatModel::Spectre {
            // Pinning accelerates the MCV condition, which the Spectre
            // model does not track; combining them is a configuration bug.
            return Err(ConfigError::PinningUnderSpectre);
        }
        if self.pinned_loads.mode != PinMode::Off && self.defense == DefenseScheme::Invisible {
            // Pinning requires that a load past its VP conditions can no
            // longer be squashed by an older instruction. Invisible
            // speculation adds a squash source *at* the VP (exposure
            // validation mismatch), so an already-pinned younger load
            // could be squashed — the combination is unsound.
            return Err(ConfigError::PinningUnderInvisible);
        }
        if self.trace.enabled && self.trace.buffer_capacity == 0 {
            return Err(ConfigError::ZeroTraceBuffer);
        }
        if self.verify.enabled && self.verify.snapshot_period == 0 {
            return Err(ConfigError::ZeroSnapshotPeriod);
        }
        if !self.verify.enabled
            && (self.verify.mutation != crate::verify::Mutation::None
                || self.verify.fault_delay > 0)
        {
            // Mutations and fault injection exist to exercise the checker;
            // perturbing a run nobody is watching is a configuration bug.
            return Err(ConfigError::VerifyKnobsWithoutChecker);
        }
        Ok(())
    }

    /// A short label like `Fence+EP` used in result tables.
    ///
    /// # Examples
    ///
    /// ```
    /// use pl_base::{DefenseScheme, MachineConfig, PinMode, ThreatModel};
    /// let mut cfg = MachineConfig::default_single_core();
    /// cfg.defense = DefenseScheme::Stt;
    /// cfg.pinned_loads.mode = PinMode::Late;
    /// assert_eq!(cfg.label(), "STT+LP");
    /// cfg.pinned_loads.mode = PinMode::Off;
    /// cfg.threat_model = ThreatModel::Spectre;
    /// assert_eq!(cfg.label(), "STT+Spectre");
    /// ```
    pub fn label(&self) -> String {
        if self.defense == DefenseScheme::Unsafe {
            return "Unsafe".to_string();
        }
        let ext = match (self.pinned_loads.mode, self.threat_model) {
            (PinMode::Off, ThreatModel::Comprehensive) => "Comp",
            (PinMode::Off, ThreatModel::Spectre) => "Spectre",
            (PinMode::Late, _) => "LP",
            (PinMode::Early, _) => "EP",
        };
        format!("{}+{}", self.defense, ext)
    }
}

impl Default for MachineConfig {
    fn default() -> MachineConfig {
        MachineConfig::default_single_core()
    }
}

/// Error returned by [`MachineConfig::validate`].
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ConfigError {
    /// The machine has no cores.
    ZeroCores,
    /// The machine has more cores than [`MAX_CORES`], the most the
    /// directory's sharer bitmap can track.
    TooManyCores(usize),
    /// A core queue (ROB/LQ/SQ/write buffer) has zero entries.
    ZeroQueue,
    /// A pipeline width is zero.
    ZeroWidth,
    /// The LQ or SQ is larger than the ROB.
    QueueLargerThanRob,
    /// A cache has zero ways or zero size.
    ZeroCache(&'static str),
    /// Cache geometry does not produce a power-of-two set count.
    BadGeometry(&'static str),
    /// Early Pinning configured with W_d = 0.
    ZeroWd,
    /// The extended LQ ID tag is too narrow to make wraparound rare.
    LqTagTooNarrow(u32),
    /// Pinned Loads enabled under the Spectre threat model.
    PinningUnderSpectre,
    /// Pinned Loads combined with invisible speculation, whose exposure
    /// validation can squash already-pinned loads.
    PinningUnderInvisible,
    /// Tracing enabled with a zero-event ring buffer.
    ZeroTraceBuffer,
    /// Invariant checking enabled with a zero snapshot period.
    ZeroSnapshotPeriod,
    /// A mutation or fault-injection knob set while checking is disabled.
    VerifyKnobsWithoutChecker,
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::ZeroCores => write!(f, "machine must have at least one core"),
            ConfigError::TooManyCores(n) => write!(
                f,
                "machine has {n} cores, but the directory's sharer bitmap tracks at most {MAX_CORES}"
            ),
            ConfigError::ZeroQueue => write!(f, "core queues must have at least one entry"),
            ConfigError::ZeroWidth => write!(f, "pipeline widths must be at least one"),
            ConfigError::QueueLargerThanRob => {
                write!(f, "load/store queue cannot be larger than the ROB")
            }
            ConfigError::ZeroCache(name) => write!(f, "cache `{name}` has zero size or ways"),
            ConfigError::BadGeometry(name) => {
                write!(f, "cache `{name}` set count is not a power of two")
            }
            ConfigError::ZeroWd => write!(f, "early pinning requires W_d of at least one"),
            ConfigError::LqTagTooNarrow(bits) => {
                write!(
                    f,
                    "extended LQ ID tag of {bits} bits is too narrow (minimum 8)"
                )
            }
            ConfigError::PinningUnderSpectre => {
                write!(
                    f,
                    "pinned loads is meaningless under the Spectre threat model"
                )
            }
            ConfigError::PinningUnderInvisible => {
                write!(
                    f,
                    "pinned loads cannot be combined with invisible speculation: \
                     exposure validation may squash a pinned load"
                )
            }
            ConfigError::ZeroTraceBuffer => {
                write!(
                    f,
                    "tracing is enabled but the event buffer capacity is zero"
                )
            }
            ConfigError::ZeroSnapshotPeriod => {
                write!(
                    f,
                    "invariant checking is enabled but the snapshot period is zero"
                )
            }
            ConfigError::VerifyKnobsWithoutChecker => {
                write!(
                    f,
                    "fault injection or a mutation is configured but invariant checking is disabled"
                )
            }
        }
    }
}

impl Error for ConfigError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_table_1() {
        let cfg = MachineConfig::default_single_core();
        assert_eq!(cfg.core.issue_width, 8);
        assert_eq!(cfg.core.lq_entries, 62);
        assert_eq!(cfg.core.sq_entries, 32);
        assert_eq!(cfg.core.rob_entries, 192);
        assert_eq!(cfg.core.btb_entries, 4096);
        assert_eq!(cfg.core.ras_entries, 16);
        assert_eq!(cfg.mem.l1d.size_bytes, 32 * 1024);
        assert_eq!(cfg.mem.l1d.ways, 8);
        assert_eq!(cfg.mem.l1d.hit_latency, 2);
        assert_eq!(cfg.mem.llc_slice.size_bytes, 2 * 1024 * 1024);
        assert_eq!(cfg.mem.llc_slice.ways, 16);
        assert_eq!(cfg.mem.llc_slice.hit_latency, 8);
        assert_eq!(cfg.mem.dram_latency, 100);
        assert_eq!(cfg.pinned_loads.cst.l1_entries, 12);
        assert_eq!(cfg.pinned_loads.cst.l1_records, 8);
        assert_eq!(cfg.pinned_loads.cst.dir_entries, 40);
        assert_eq!(cfg.pinned_loads.cst.dir_records, 2);
        assert_eq!(cfg.pinned_loads.cst.wd, 2);
        assert_eq!(cfg.pinned_loads.cpt.entries, 4);
        cfg.validate().unwrap();
    }

    #[test]
    fn multi_core_gets_one_slice_per_core() {
        let cfg = MachineConfig::default_multi_core(8);
        assert_eq!(cfg.num_cores, 8);
        assert_eq!(cfg.mem.llc_slices, 8);
        cfg.validate().unwrap();
    }

    #[test]
    fn l1d_geometry() {
        let cfg = MachineConfig::default_single_core();
        assert_eq!(cfg.mem.l1d.num_sets(), 64);
        assert_eq!(cfg.mem.l1d.index_bits(), 6);
        assert_eq!(cfg.mem.llc_slice.num_sets(), 2048);
        assert_eq!(cfg.mem.llc_slice.index_bits(), 11);
    }

    #[test]
    fn validate_rejects_zero_cores() {
        let mut cfg = MachineConfig::default_single_core();
        cfg.num_cores = 0;
        assert_eq!(cfg.validate(), Err(ConfigError::ZeroCores));
    }

    #[test]
    fn validate_rejects_more_cores_than_the_sharer_bitmap() {
        assert!(MachineConfig::default_multi_core(MAX_CORES)
            .validate()
            .is_ok());
        for n in [MAX_CORES + 1, 4_000_000_000] {
            let cfg = MachineConfig::default_multi_core(n);
            assert_eq!(cfg.validate(), Err(ConfigError::TooManyCores(n)));
            assert!(cfg.validate().unwrap_err().to_string().contains("64"));
        }
    }

    #[test]
    fn validate_rejects_bad_geometry() {
        let mut cfg = MachineConfig::default_single_core();
        cfg.mem.l1d.size_bytes = 3000;
        assert!(matches!(
            cfg.validate(),
            Err(ConfigError::BadGeometry("l1d"))
        ));
    }

    #[test]
    fn validate_rejects_sq_bigger_than_rob() {
        let mut cfg = MachineConfig::default_single_core();
        cfg.core.sq_entries = 500;
        assert_eq!(cfg.validate(), Err(ConfigError::QueueLargerThanRob));
    }

    #[test]
    fn validate_rejects_zero_wd_for_ep() {
        let mut cfg = MachineConfig::default_single_core();
        cfg.defense = DefenseScheme::Fence;
        cfg.pinned_loads = PinnedLoadsConfig::with_mode(PinMode::Early);
        cfg.pinned_loads.cst.wd = 0;
        assert_eq!(cfg.validate(), Err(ConfigError::ZeroWd));
    }

    #[test]
    fn validate_rejects_pinning_under_spectre() {
        let mut cfg = MachineConfig::default_single_core();
        cfg.defense = DefenseScheme::Fence;
        cfg.threat_model = ThreatModel::Spectre;
        cfg.pinned_loads = PinnedLoadsConfig::with_mode(PinMode::Late);
        assert_eq!(cfg.validate(), Err(ConfigError::PinningUnderSpectre));
    }

    #[test]
    fn validate_rejects_zero_trace_buffer() {
        let mut cfg = MachineConfig::default_single_core();
        cfg.trace = TraceConfig {
            enabled: true,
            buffer_capacity: 0,
        };
        assert_eq!(cfg.validate(), Err(ConfigError::ZeroTraceBuffer));
        cfg.trace = TraceConfig::enabled();
        cfg.validate().unwrap();
        assert_eq!(TraceConfig::default().capacity(), 0);
        assert_eq!(
            TraceConfig::enabled().capacity(),
            TraceConfig::DEFAULT_CAPACITY
        );
    }

    #[test]
    fn validate_rejects_inconsistent_verify_knobs() {
        use crate::verify::{Mutation, VerifyConfig};
        let mut cfg = MachineConfig::default_single_core();
        cfg.verify = VerifyConfig::enabled();
        cfg.verify.snapshot_period = 0;
        assert_eq!(cfg.validate(), Err(ConfigError::ZeroSnapshotPeriod));
        cfg.verify = VerifyConfig::default();
        cfg.verify.mutation = Mutation::DropClear;
        assert_eq!(cfg.validate(), Err(ConfigError::VerifyKnobsWithoutChecker));
        cfg.verify = VerifyConfig::default();
        cfg.verify.fault_delay = 4;
        assert_eq!(cfg.validate(), Err(ConfigError::VerifyKnobsWithoutChecker));
        cfg.verify = VerifyConfig::enabled();
        cfg.verify.fault_delay = 4;
        cfg.validate().unwrap();
    }

    #[test]
    fn labels() {
        let mut cfg = MachineConfig::default_single_core();
        assert_eq!(cfg.label(), "Unsafe");
        cfg.defense = DefenseScheme::Fence;
        assert_eq!(cfg.label(), "Fence+Comp");
        cfg.pinned_loads.mode = PinMode::Early;
        assert_eq!(cfg.label(), "Fence+EP");
    }

    #[test]
    fn config_error_display_is_nonempty_lowercase() {
        let errors = [
            ConfigError::ZeroCores,
            ConfigError::ZeroQueue,
            ConfigError::BadGeometry("l1d"),
            ConfigError::LqTagTooNarrow(4),
        ];
        for e in errors {
            let msg = e.to_string();
            assert!(!msg.is_empty());
            assert!(msg.chars().next().unwrap().is_lowercase());
        }
    }
}
