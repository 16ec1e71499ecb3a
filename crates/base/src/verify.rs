//! Runtime invariant-checking support: configuration, event types, and
//! the observer interface consumed by the `pl-verify` crate.
//!
//! The protocol components (core/L1 controller, directory slices) emit
//! [`CheckEvent`]s into per-component [`CheckSink`]s, exactly like the
//! `pl-trace` ring buffers: emission is a branch on a `bool` when
//! checking is disabled, so the hot path stays untouched. The machine
//! drains every sink once per tick and hands the batch to a
//! [`CheckObserver`] (the `pl-verify` checker), together with periodic
//! whole-machine [`MachineSnapshot`]s for the invariants that cannot be
//! event-sourced (SWMR holds over *state*, not over transitions).
//!
//! These types live in `pl-base` so that `pl-mem`/`pl-cpu`/`pl-machine`
//! can emit events without depending on the checker crate.

use crate::{Addr, CoreId, Cycle, LineAddr};

/// Default machine-snapshot cadence in cycles.
pub const DEFAULT_SNAPSHOT_PERIOD: u64 = 512;

/// Invariant-checking configuration, carried in
/// [`MachineConfig`](crate::MachineConfig).
///
/// Off by default; when `enabled`, every protocol component records
/// check events and the machine forwards them to an attached observer.
/// The fault-injection and mutation knobs exist to *stress* and *test*
/// the checker: faults perturb legal timing, mutations deliberately
/// break one protocol invariant so tests can demonstrate the checker
/// catches it.
///
/// # Examples
///
/// ```
/// use pl_base::VerifyConfig;
/// let v = VerifyConfig::default();
/// assert!(!v.enabled);
/// let on = VerifyConfig::enabled();
/// assert!(on.enabled && on.snapshot_period > 0);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerifyConfig {
    /// Record check events and run the attached observer.
    pub enabled: bool,
    /// Seeded fault injection: maximum extra delivery delay, in cycles,
    /// applied to directory-bound NoC messages. Zero disables injection.
    /// Delaying directory ingress is always protocol-legal (it is
    /// indistinguishable from a busy home node), and per-pair FIFO order
    /// is preserved, so every perturbed schedule is a schedule the
    /// protocol must handle.
    pub fault_delay: u64,
    /// Seed for the fault-injection RNG. Same seed, same perturbation.
    pub fault_seed: u64,
    /// Deliberate single-shot protocol mutation, for checker regression
    /// tests only.
    pub mutation: Mutation,
    /// Cycles between whole-machine snapshots handed to the observer.
    pub snapshot_period: u64,
}

impl VerifyConfig {
    /// Checking switched on with the default snapshot cadence and no
    /// fault injection.
    pub fn enabled() -> VerifyConfig {
        VerifyConfig {
            enabled: true,
            ..VerifyConfig::default()
        }
    }
}

impl Default for VerifyConfig {
    fn default() -> VerifyConfig {
        VerifyConfig {
            enabled: false,
            fault_delay: 0,
            fault_seed: 0xFA017,
            mutation: Mutation::None,
            snapshot_period: DEFAULT_SNAPSHOT_PERIOD,
        }
    }
}

/// A deliberately-injected protocol bug, used by regression tests to
/// prove the checker detects broken invariants (a mutation test). Each
/// mutation fires exactly once per run, at the first opportunity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Mutation {
    /// No mutation: the protocol runs unmodified.
    #[default]
    None,
    /// The directory skips the `Clear` broadcast after one successful
    /// starred write, violating the starred-transaction/Clear pairing
    /// (Figure 5): sharers' CPT entries for the line leak forever.
    DropClear,
    /// The core processes one `Inv` for a pinned line as if the line
    /// were unpinned — invalidating it and acking instead of deferring —
    /// which violates the core guarantee that pinned lines are never
    /// invalidated (Section 3.2) and silently breaks SC for the pinned
    /// load.
    IgnorePinOnInv,
}

/// Why an L1 line was invalidated, attached to
/// [`CheckEvent::L1Invalidated`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InvalidateCause {
    /// A directory `Inv` on behalf of a writer.
    Inv,
    /// A forwarded exclusive request (`FwdGetX`) from another core.
    FwdGetX,
    /// A directory back-invalidation for an LLC eviction (inclusion).
    BackInv,
    /// A local capacity eviction (the line lost its way to a fill).
    Evict,
}

impl InvalidateCause {
    /// A short stable name for report output.
    pub fn as_str(self) -> &'static str {
        match self {
            InvalidateCause::Inv => "inv",
            InvalidateCause::FwdGetX => "fwd_getx",
            InvalidateCause::BackInv => "back_inv",
            InvalidateCause::Evict => "evict",
        }
    }
}

/// One protocol event observed by the invariant checker.
///
/// Events are cheap `Copy` records; the emitting component pushes them
/// into its [`CheckSink`] in true intra-component order, and the machine
/// drains all sinks once per tick.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CheckEvent {
    /// A line's pin count rose from zero: it is now protected.
    PinAcquired {
        /// The pinning core.
        core: CoreId,
        /// The newly pinned line.
        line: LineAddr,
    },
    /// A line's pin count fell to zero: protection released.
    PinReleased {
        /// The releasing core.
        core: CoreId,
        /// The now-unpinned line.
        line: LineAddr,
    },
    /// An `Inv*` inserted a line into the Cannot-Pin Table.
    CptInserted {
        /// The core whose CPT grew.
        core: CoreId,
        /// The un-pinnable line.
        line: LineAddr,
        /// CPT occupancy after the insert.
        occupancy: usize,
    },
    /// A `Clear` removed a line from the Cannot-Pin Table.
    CptRemoved {
        /// The core whose CPT shrank.
        core: CoreId,
        /// The cleared line.
        line: LineAddr,
        /// CPT occupancy after the removal.
        occupancy: usize,
    },
    /// An L1 line was invalidated or evicted. Must never hit a line the
    /// same core currently has pinned (Section 3.2).
    L1Invalidated {
        /// The core losing the line.
        core: CoreId,
        /// The invalidated line.
        line: LineAddr,
        /// Which protocol path removed it.
        cause: InvalidateCause,
    },
    /// A writer aborted a deferred write transaction and scheduled a
    /// starred retry (Figure 3b). Every abort must eventually be matched
    /// by a [`CheckEvent::WriteFinished`] for the same line.
    WriteAborted {
        /// The writing core.
        core: CoreId,
        /// The contested line.
        line: LineAddr,
    },
    /// A write or atomic transaction completed and merged into the L1.
    WriteFinished {
        /// The writing core.
        core: CoreId,
        /// The written line.
        line: LineAddr,
    },
    /// An invalidation ack arrived with no acks outstanding: a lost or
    /// duplicated ack, i.e. a protocol bug.
    AckUnderflow {
        /// The core whose transaction miscounted.
        core: CoreId,
        /// The line of the write transaction.
        line: LineAddr,
    },
    /// A load retired, capturing its architecturally-committed value.
    LoadRetired {
        /// The retiring core.
        core: CoreId,
        /// The load's ROB sequence number.
        seq: u64,
        /// The load's (word-aligned) address.
        addr: Addr,
        /// The committed value.
        value: u64,
        /// Cycles from dispatch until the value bound (the load's
        /// observable memory latency: forwarding/L1 hits are small,
        /// misses large). Timing side-channel observers key off this;
        /// the invariant checker must *not* fold it into any digest.
        latency: u64,
    },
    /// The pipeline squashed every instruction at or after `first_bad`.
    Squashed {
        /// The squashing core.
        core: CoreId,
        /// First squashed sequence number.
        first_bad: u64,
    },
    /// A load's squash-safety conditions changed. `bits` is a bitmask of
    /// the VP base conditions currently cleared
    /// ([`VP_CTRL`] | [`VP_ALIAS`] | [`VP_EXCEPTION`]); for a surviving
    /// load, bits may only be added, never removed (VP progress is
    /// monotone, Section 2).
    VpProgress {
        /// The core owning the load.
        core: CoreId,
        /// The load's ROB sequence number.
        seq: u64,
        /// Cleared-condition bitmask.
        bits: u8,
    },
    /// The directory accepted the `Unblock` of a successful starred
    /// write and will broadcast `Clear` to each former sharer.
    StarredCommit {
        /// The contested line.
        line: LineAddr,
        /// Number of `Clear` messages owed (one per former sharer).
        sharers: usize,
    },
    /// The directory sent one `Clear` for a starred commit.
    ClearSent {
        /// The cleared line.
        line: LineAddr,
        /// The former sharer receiving the `Clear`.
        to: CoreId,
    },
    /// The directory processed a writer's `Abort` for a deferred write.
    DirAbort {
        /// The contested line.
        line: LineAddr,
        /// The aborting writer.
        from: CoreId,
    },
}

/// VP base-condition bit: no unresolved older control flow.
pub const VP_CTRL: u8 = 1;
/// VP base-condition bit: no possible older-store alias.
pub const VP_ALIAS: u8 = 2;
/// VP base-condition bit: no possible older exception.
pub const VP_EXCEPTION: u8 = 4;

/// A per-component check-event buffer, drained by the machine each tick.
///
/// Mirrors the `pl-trace` `Tracer` contract: [`CheckSink::emit`] is a
/// single predictable branch when disabled, so components can emit
/// unconditionally on their protocol paths.
///
/// # Examples
///
/// ```
/// use pl_base::{Addr, CheckEvent, CheckSink, CoreId};
/// let mut sink = CheckSink::new(true);
/// sink.emit(CheckEvent::PinAcquired {
///     core: CoreId(0),
///     line: Addr::new(0x40).line(),
/// });
/// let mut out = Vec::new();
/// sink.drain_into(&mut out);
/// assert_eq!(out.len(), 1);
/// ```
#[derive(Debug, Clone, Default)]
pub struct CheckSink {
    enabled: bool,
    events: Vec<CheckEvent>,
}

impl CheckSink {
    /// Creates a sink; a disabled sink never buffers anything.
    pub fn new(enabled: bool) -> CheckSink {
        CheckSink {
            enabled,
            events: Vec::new(),
        }
    }

    /// A permanently-disabled sink.
    pub fn disabled() -> CheckSink {
        CheckSink::new(false)
    }

    /// Whether events are being recorded.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Records `event` if the sink is enabled.
    #[inline]
    pub fn emit(&mut self, event: CheckEvent) {
        if self.enabled {
            self.events.push(event);
        }
    }

    /// Moves every buffered event into `out`, preserving order.
    pub fn drain_into(&mut self, out: &mut Vec<CheckEvent>) {
        out.append(&mut self.events);
    }
}

/// Coherence mode of one L1 line in a [`CoreSnapshot`], collapsed from
/// the MESI state (Invalid lines are simply absent).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LineMode {
    /// Readable, possibly replicated in other L1s.
    Shared,
    /// Sole clean copy.
    Exclusive,
    /// Sole dirty copy.
    Modified,
}

impl LineMode {
    /// `true` for the writable (and therefore necessarily sole) states.
    pub fn is_owner(self) -> bool {
        matches!(self, LineMode::Exclusive | LineMode::Modified)
    }
}

/// Point-in-time state of one core, for state invariants (SWMR,
/// structure occupancy bounds, event-model cross-checks).
#[derive(Debug, Clone)]
pub struct CoreSnapshot {
    /// Which core this describes.
    pub core: CoreId,
    /// Every valid L1 line with its coherence mode.
    pub l1_lines: Vec<(LineAddr, LineMode)>,
    /// Every line this core currently has pinned (governor ground
    /// truth).
    pub pinned_lines: Vec<LineAddr>,
    /// Current Cannot-Pin Table occupancy.
    pub cpt_occupancy: usize,
    /// CPT capacity, `None` for the ideal (unbounded) CPT.
    pub cpt_capacity: Option<usize>,
    /// L1 Cache Shadow Table `(records, capacity)`, when a finite L1 CST
    /// exists (Early Pinning only).
    pub cst_l1: Option<(usize, usize)>,
    /// Directory/LLC CST `(records, capacity)`, when finite.
    pub cst_dir: Option<(usize, usize)>,
}

/// Point-in-time state of the whole machine.
#[derive(Debug, Clone)]
pub struct MachineSnapshot {
    /// One snapshot per core, in core order.
    pub cores: Vec<CoreSnapshot>,
}

/// The invariant checker's view of a run, driven by the machine.
///
/// `on_events` receives each tick's drained event batch (cores in core
/// order, then slices in slice order; events from one component are in
/// true emission order). `on_snapshot` fires every
/// [`VerifyConfig::snapshot_period`] cycles and once at run end, just
/// before `on_run_end`.
pub trait CheckObserver {
    /// One tick's worth of events. Never called with an empty batch.
    fn on_events(&mut self, now: Cycle, events: &[CheckEvent]);

    /// A periodic (or final) whole-machine state snapshot.
    fn on_snapshot(&mut self, now: Cycle, snapshot: &MachineSnapshot);

    /// The run completed successfully (every core quiesced).
    fn on_run_end(&mut self, now: Cycle);

    /// Downcast support, so callers can recover the concrete checker
    /// from `Machine::take_check_observer`.
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any;
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(n: u64) -> LineAddr {
        Addr::new(n * 64).line()
    }

    #[test]
    fn disabled_sink_records_nothing() {
        let mut sink = CheckSink::disabled();
        assert!(!sink.enabled());
        sink.emit(CheckEvent::PinAcquired {
            core: CoreId(0),
            line: line(1),
        });
        let mut out = Vec::new();
        sink.drain_into(&mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn enabled_sink_preserves_order_and_drains() {
        let mut sink = CheckSink::new(true);
        sink.emit(CheckEvent::PinAcquired {
            core: CoreId(1),
            line: line(1),
        });
        sink.emit(CheckEvent::PinReleased {
            core: CoreId(1),
            line: line(1),
        });
        let mut out = Vec::new();
        sink.drain_into(&mut out);
        assert_eq!(out.len(), 2);
        assert!(matches!(out[0], CheckEvent::PinAcquired { .. }));
        assert!(matches!(out[1], CheckEvent::PinReleased { .. }));
        let mut again = Vec::new();
        sink.drain_into(&mut again);
        assert!(again.is_empty(), "drain empties the sink");
    }

    #[test]
    fn default_config_is_off_and_quiet() {
        let v = VerifyConfig::default();
        assert!(!v.enabled);
        assert_eq!(v.fault_delay, 0);
        assert_eq!(v.mutation, Mutation::None);
        assert_eq!(v.snapshot_period, DEFAULT_SNAPSHOT_PERIOD);
    }

    #[test]
    fn line_mode_ownership() {
        assert!(!LineMode::Shared.is_owner());
        assert!(LineMode::Exclusive.is_owner());
        assert!(LineMode::Modified.is_owner());
    }

    #[test]
    fn invalidate_cause_names_are_stable() {
        for (c, s) in [
            (InvalidateCause::Inv, "inv"),
            (InvalidateCause::FwdGetX, "fwd_getx"),
            (InvalidateCause::BackInv, "back_inv"),
            (InvalidateCause::Evict, "evict"),
        ] {
            assert_eq!(c.as_str(), s);
        }
    }
}
