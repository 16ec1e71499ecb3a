//! Runtime invariant checking and cross-scheme differential verification
//! for the Pinned Loads simulator.
//!
//! Three complementary oracles live here:
//!
//! 1. [`Checker`] — a [`CheckObserver`] attached to a running
//!    [`Machine`] that asserts the protocol invariants of the Pinned
//!    Loads design *while the simulation runs*: pinned lines are never
//!    invalidated (Section 3.2), every deferred-write `Abort` is
//!    eventually matched by a finished retry (Figure 3b), starred
//!    commits broadcast exactly one `Clear` per former sharer
//!    (Figure 5), CPT/CST occupancy never exceeds capacity
//!    (Section 5.2), per-load VP progress is monotone (Section 2),
//!    invalidation-ack accounting never underflows, and periodic
//!    whole-machine snapshots uphold single-writer/multiple-reader
//!    coherence.
//! 2. [`differential_check`] — a cross-scheme oracle that runs the same
//!    workload under every defense scheme ([`scheme_configs`]) and
//!    asserts the *architecturally committed* results are bit-identical:
//!    defenses may change timing, never results.
//! 3. [`spin_twin_check`] — a spin-parking oracle that runs the same
//!    workload with the spin-loop detector on and off and demands
//!    bit-identical *timing* (cycles, stats, retired counts), not just
//!    committed state: parking a spinning core must be invisible.
//!
//! A seeded fault-injection layer ([`faulted`], backed by
//! `VerifyConfig::fault_delay`) perturbs directory-bound NoC delivery
//! timing so the checker is exercised on schedules beyond the default
//! deterministic one; `pl-test` drives seeds and replays failures via
//! `PL_TEST_SEED`.
//!
//! # Examples
//!
//! ```
//! use pl_base::{DefenseScheme, MachineConfig, PinMode, PinnedLoadsConfig};
//! use pl_verify::run_checked;
//! use pl_workloads::{parallel_suite, Scale};
//!
//! let mut cfg = MachineConfig::default_multi_core(4);
//! cfg.defense = DefenseScheme::Fence;
//! cfg.pinned_loads = PinnedLoadsConfig::with_mode(PinMode::Early);
//! let w = &parallel_suite(4, Scale::Test)[0];
//! let (_result, report) = run_checked(&cfg, w, 500_000_000).unwrap();
//! assert!(report.ok(), "{report}");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::{HashMap, HashSet};
use std::fmt;

use pl_base::digest::Fnv1a;
use pl_base::{
    CheckEvent, CheckObserver, CoreId, Cycle, DefenseScheme, LineAddr, MachineConfig,
    MachineSnapshot, PinMode, PinnedLoadsConfig,
};
use pl_isa::Reg;
use pl_machine::{Machine, RunError, RunResult};
use pl_workloads::Workload;

/// How many violations a [`CheckReport`] keeps verbatim; further ones
/// are only counted. Bounds memory on a badly broken run.
pub const MAX_RECORDED_VIOLATIONS: usize = 64;

/// One detected invariant violation.
#[derive(Debug, Clone)]
pub struct Violation {
    /// Simulated cycle at which the violation was observed.
    pub cycle: u64,
    /// Stable short name of the violated invariant.
    pub invariant: &'static str,
    /// Human-readable specifics (core, line, values).
    pub detail: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "cycle {}: [{}] {}",
            self.cycle, self.invariant, self.detail
        )
    }
}

/// The outcome of a checked run: every recorded violation plus summary
/// counters. [`CheckReport::ok`] is the pass/fail verdict.
#[derive(Debug, Clone, Default)]
pub struct CheckReport {
    /// Up to [`MAX_RECORDED_VIOLATIONS`] violations, in detection order.
    pub violations: Vec<Violation>,
    /// Total violations detected, including unrecorded ones.
    pub total_violations: u64,
    /// Protocol events the checker consumed.
    pub events: u64,
    /// Whole-machine snapshots the checker examined.
    pub snapshots: u64,
    /// `true` once the machine reported a clean run end.
    pub run_completed: bool,
}

impl CheckReport {
    /// `true` when no invariant was violated.
    pub fn ok(&self) -> bool {
        self.total_violations == 0
    }
}

impl fmt::Display for CheckReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "check report: {} violation(s) over {} events, {} snapshots{}",
            self.total_violations,
            self.events,
            self.snapshots,
            if self.run_completed {
                ""
            } else {
                " (run did not complete)"
            }
        )?;
        for v in &self.violations {
            writeln!(f, "  {v}")?;
        }
        if self.total_violations > self.violations.len() as u64 {
            writeln!(
                f,
                "  ... and {} more",
                self.total_violations - self.violations.len() as u64
            )?;
        }
        Ok(())
    }
}

/// Live protocol-invariant checker; implements [`CheckObserver`].
///
/// Attach with `Machine::set_check_observer` on a machine whose
/// `cfg.verify.enabled` is set, then recover it with
/// `Machine::take_check_observer` and read the [`CheckReport`]. The
/// [`run_checked`] helper wraps that whole dance.
#[derive(Debug, Default)]
pub struct Checker {
    /// Event-sourced pin model: every (core, line) currently pinned.
    pinned: HashSet<(CoreId, LineAddr)>,
    /// Open deferred-write obligations: (core, line) pairs whose most
    /// recent abort has not yet been followed by a finished retry,
    /// mapped to the cycle of that abort. One transaction may abort
    /// several times before its retry wins, so the obligation is
    /// binary, not counted.
    open_aborts: HashMap<(CoreId, LineAddr), u64>,
    /// Last reported VP base-condition bits per in-flight (core, seq).
    vp_bits: HashMap<(CoreId, u64), u8>,
    /// CPT capacity per core, learned from snapshots (`None` = ideal).
    cpt_capacity: HashMap<CoreId, Option<usize>>,
    /// FNV-1a digest and count of retired-load records per core.
    load_digests: HashMap<CoreId, (Fnv1a, u64)>,
    violations: Vec<Violation>,
    total_violations: u64,
    events: u64,
    snapshots: u64,
    run_completed: bool,
}

impl Checker {
    /// Creates a fresh checker with no observed state.
    pub fn new() -> Checker {
        Checker::default()
    }

    /// The report so far (complete once the run has ended).
    pub fn report(&self) -> CheckReport {
        CheckReport {
            violations: self.violations.clone(),
            total_violations: self.total_violations,
            events: self.events,
            snapshots: self.snapshots,
            run_completed: self.run_completed,
        }
    }

    /// Digest of `core`'s architecturally-retired load stream as
    /// `(fnv1a(seq, addr, value)..., count)`. On a single-core machine
    /// this is a scheme-independent architectural fingerprint; on
    /// multicore machines spin-loop iteration counts legitimately vary
    /// with timing, so only compare it across identical configurations.
    pub fn load_digest(&self, core: CoreId) -> (u64, u64) {
        let (h, n) = self.load_digests.get(&core).copied().unwrap_or_default();
        (h.finish(), n)
    }

    fn violation(&mut self, now: Cycle, invariant: &'static str, detail: String) {
        self.total_violations += 1;
        if self.violations.len() < MAX_RECORDED_VIOLATIONS {
            self.violations.push(Violation {
                cycle: now.raw(),
                invariant,
                detail,
            });
        }
    }
}

impl CheckObserver for Checker {
    fn on_events(&mut self, now: Cycle, events: &[CheckEvent]) {
        self.events += events.len() as u64;
        let mut i = 0;
        while i < events.len() {
            match events[i] {
                CheckEvent::PinAcquired { core, line } => {
                    if !self.pinned.insert((core, line)) {
                        self.violation(
                            now,
                            "pin-model",
                            format!("{core} acquired already-pinned line {line}"),
                        );
                    }
                }
                CheckEvent::PinReleased { core, line } => {
                    if !self.pinned.remove(&(core, line)) {
                        self.violation(
                            now,
                            "pin-model",
                            format!("{core} released unpinned line {line}"),
                        );
                    }
                }
                CheckEvent::L1Invalidated { core, line, cause } => {
                    if self.pinned.contains(&(core, line)) {
                        self.violation(
                            now,
                            "pinned-line-invalidated",
                            format!(
                                "{core} lost pinned line {line} to {} (Section 3.2 \
                                 guarantees pinned lines survive until unpin)",
                                cause.as_str()
                            ),
                        );
                    }
                }
                CheckEvent::WriteAborted { core, line } => {
                    self.open_aborts.insert((core, line), now.raw());
                }
                CheckEvent::WriteFinished { core, line } => {
                    // Most writes finish without ever aborting; removing
                    // a non-existent obligation is the common case.
                    self.open_aborts.remove(&(core, line));
                }
                CheckEvent::AckUnderflow { core, line } => {
                    self.violation(
                        now,
                        "ack-underflow",
                        format!("{core} received an unexpected InvAck for line {line}"),
                    );
                }
                CheckEvent::CptInserted {
                    core,
                    line,
                    occupancy,
                } => {
                    if let Some(Some(cap)) = self.cpt_capacity.get(&core) {
                        if occupancy > *cap {
                            self.violation(
                                now,
                                "cpt-overflow",
                                format!("{core} CPT at {occupancy}/{cap} after inserting {line}"),
                            );
                        }
                    }
                }
                CheckEvent::CptRemoved { .. } => {}
                CheckEvent::LoadRetired {
                    core,
                    seq,
                    addr,
                    value,
                    // Timing is scheme-dependent by design; the committed-
                    // state digest must stay latency-free.
                    latency: _,
                } => {
                    let (h, n) = self.load_digests.entry(core).or_default();
                    h.write_u64(seq);
                    h.write_u64(addr.raw());
                    h.write_u64(value);
                    *n += 1;
                    self.vp_bits.remove(&(core, seq));
                }
                CheckEvent::Squashed { core, first_bad } => {
                    // Sequence numbers at or after `first_bad` are reused
                    // by re-fetched instructions: their VP history resets.
                    self.vp_bits.retain(|&(c, s), _| c != core || s < first_bad);
                }
                CheckEvent::VpProgress { core, seq, bits } => {
                    let prev = self.vp_bits.insert((core, seq), bits).unwrap_or(0);
                    if bits & prev != prev {
                        self.violation(
                            now,
                            "vp-regression",
                            format!(
                                "{core} load seq {seq} VP bits went {prev:#05b} -> {bits:#05b} \
                                 (cleared conditions must stay cleared)"
                            ),
                        );
                    }
                }
                CheckEvent::StarredCommit { line, sharers } => {
                    // The slice emits its Clear sends immediately after the
                    // commit, in the same batch: the next `sharers` events
                    // must all be ClearSent for this line.
                    let paired = (0..sharers).all(|k| {
                        matches!(
                            events.get(i + 1 + k),
                            Some(CheckEvent::ClearSent { line: l, .. }) if *l == line
                        )
                    });
                    if paired {
                        i += sharers;
                    } else {
                        self.violation(
                            now,
                            "starred-clear-pairing",
                            format!(
                                "starred commit of {line} owed {sharers} Clear(s) \
                                 that were not all sent (Figure 5 pairing)"
                            ),
                        );
                    }
                }
                CheckEvent::ClearSent { line, to } => {
                    // Paired ClearSents are consumed by the StarredCommit
                    // arm above; reaching one here means it had no commit.
                    self.violation(
                        now,
                        "starred-clear-pairing",
                        format!("Clear for {line} sent to {to} without a starred commit"),
                    );
                }
                CheckEvent::DirAbort { .. } => {
                    // Informational: abort liveness is tracked writer-side
                    // via WriteAborted/WriteFinished.
                }
            }
            i += 1;
        }
    }

    fn on_snapshot(&mut self, now: Cycle, snapshot: &MachineSnapshot) {
        self.snapshots += 1;
        let mut holders: HashMap<LineAddr, Vec<CoreId>> = HashMap::new();
        let mut owners: HashMap<LineAddr, Vec<CoreId>> = HashMap::new();
        for cs in &snapshot.cores {
            self.cpt_capacity.insert(cs.core, cs.cpt_capacity);
            if let Some(cap) = cs.cpt_capacity {
                if cs.cpt_occupancy > cap {
                    self.violation(
                        now,
                        "cpt-overflow",
                        format!("{} CPT at {}/{cap}", cs.core, cs.cpt_occupancy),
                    );
                }
            }
            for (name, usage) in [("L1 CST", cs.cst_l1), ("directory CST", cs.cst_dir)] {
                if let Some((records, cap)) = usage {
                    if records > cap {
                        self.violation(
                            now,
                            "cst-overflow",
                            format!("{} {name} at {records}/{cap}", cs.core),
                        );
                    }
                }
            }
            for &(line, mode) in &cs.l1_lines {
                holders.entry(line).or_default().push(cs.core);
                if mode.is_owner() {
                    owners.entry(line).or_default().push(cs.core);
                }
            }
            // The event-sourced pin model must agree with the governor's
            // ground truth at every snapshot.
            let truth: HashSet<LineAddr> = cs.pinned_lines.iter().copied().collect();
            let model: HashSet<LineAddr> = self
                .pinned
                .iter()
                .filter(|(c, _)| *c == cs.core)
                .map(|&(_, l)| l)
                .collect();
            if model != truth {
                self.violation(
                    now,
                    "pin-model-divergence",
                    format!(
                        "{}: event model pins {:?} but governor pins {:?}",
                        cs.core,
                        sorted(&model),
                        sorted(&truth)
                    ),
                );
            }
        }
        for (line, owning) in &owners {
            if owning.len() > 1 {
                self.violation(
                    now,
                    "swmr",
                    format!("line {line} owned by multiple cores: {owning:?}"),
                );
            } else if holders[line].len() > 1 {
                self.violation(
                    now,
                    "swmr",
                    format!(
                        "line {line} owned by {} while also cached by {:?}",
                        owning[0], holders[line]
                    ),
                );
            }
        }
    }

    fn on_run_end(&mut self, now: Cycle) {
        self.run_completed = true;
        let open: Vec<(CoreId, LineAddr, u64)> = self
            .open_aborts
            .iter()
            .map(|(&(c, l), &at)| (c, l, at))
            .collect();
        for (core, line, at) in open {
            self.violation(
                now,
                "lost-deferred-write",
                format!(
                    "{core} aborted a write to {line} at cycle {at} and never \
                     finished the retry (Defer/Abort retry was dropped)"
                ),
            );
        }
        let leaked: Vec<(CoreId, LineAddr)> = self.pinned.iter().copied().collect();
        for (core, line) in leaked {
            self.violation(
                now,
                "pin-leak",
                format!("{core} still pins {line} after every load retired"),
            );
        }
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

fn sorted(set: &HashSet<LineAddr>) -> Vec<LineAddr> {
    let mut v: Vec<LineAddr> = set.iter().copied().collect();
    v.sort_unstable();
    v
}

/// Runs `w` under `cfg` with a [`Checker`] attached, returning both the
/// simulation result and the checker verdict. Forces `cfg.verify.enabled`
/// on; every other verify knob (faults, mutations, snapshot cadence) is
/// honored as configured.
///
/// # Panics
///
/// Panics if `cfg` (with checking enabled) fails validation.
pub fn run_checked(
    cfg: &MachineConfig,
    w: &Workload,
    max_cycles: u64,
) -> Result<(RunResult, CheckReport), RunError> {
    let (res, checker) = run_with_checker(cfg, w, max_cycles)?;
    Ok((res, checker.report()))
}

/// Like [`run_checked`] but hands back the whole [`Checker`], for
/// callers that also want the retired-load digests.
///
/// # Panics
///
/// Panics if `cfg` (with checking enabled) fails validation.
pub fn run_with_checker(
    cfg: &MachineConfig,
    w: &Workload,
    max_cycles: u64,
) -> Result<(RunResult, Checker), RunError> {
    let mut cfg = cfg.clone();
    cfg.verify.enabled = true;
    let mut m = Machine::new(&cfg).expect("verify config must be valid");
    w.install(&mut m);
    m.set_check_observer(Box::new(Checker::new()));
    let res = m.run(max_cycles)?;
    let mut observer = m.take_check_observer().expect("checker still attached");
    let checker = std::mem::take(
        observer
            .as_any_mut()
            .downcast_mut::<Checker>()
            .expect("observer is a Checker"),
    );
    Ok((res, checker))
}

/// Returns `cfg` with checking enabled and seeded fault injection set to
/// delay directory-bound NoC messages by up to `delay` extra cycles.
pub fn faulted(mut cfg: MachineConfig, seed: u64, delay: u64) -> MachineConfig {
    cfg.verify.enabled = true;
    cfg.verify.fault_seed = seed;
    cfg.verify.fault_delay = delay;
    cfg
}

/// The six evaluated configurations (Section 7): the unsafe baseline,
/// the three prior defenses, and Pinned Loads in both designs (Late and
/// Early Pinning, on the Fence scheme as in the paper's headline
/// figures), plus reference-loop twins of the two extremes with
/// per-component event skipping disabled. Every config validates for
/// `cores >= 1`.
pub fn scheme_configs(cores: usize) -> Vec<MachineConfig> {
    let mk = |scheme: DefenseScheme, mode: PinMode| {
        let mut c = if cores == 1 {
            MachineConfig::default_single_core()
        } else {
            MachineConfig::default_multi_core(cores)
        };
        c.defense = scheme;
        c.pinned_loads = PinnedLoadsConfig::with_mode(mode);
        c.validate().expect("scheme config must validate");
        c
    };
    let mut out = vec![
        mk(DefenseScheme::Unsafe, PinMode::Off),
        mk(DefenseScheme::Fence, PinMode::Off),
        mk(DefenseScheme::Dom, PinMode::Off),
        mk(DefenseScheme::Stt, PinMode::Off),
        mk(DefenseScheme::Fence, PinMode::Late),
        mk(DefenseScheme::Fence, PinMode::Early),
    ];
    // Reference-loop twins: the same machine with the event calendar off,
    // so every component ticks every cycle. Their presence makes each
    // differential run also an oracle for per-component event skipping:
    // if the calendar ever skips a component that had pending work, the
    // committed state here diverges from the scheduled runs above.
    for (scheme, mode) in [
        (DefenseScheme::Unsafe, PinMode::Off),
        (DefenseScheme::Fence, PinMode::Early),
    ] {
        let mut c = mk(scheme, mode);
        c.fast_forward = false;
        out.push(c);
    }
    out
}

/// One scheme's captured architectural outcome, for differential
/// comparison.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Outcome {
    /// Final memory image, sorted by address.
    memory: Vec<(u64, u64)>,
    /// Per-core result accumulator (`r20`, the suite convention).
    accumulators: Vec<u64>,
    /// All 32 architectural registers of core 0 (single-core runs only:
    /// on multicore machines scratch registers are timing-dependent).
    core0_regs: Option<Vec<u64>>,
    /// Per-core retired-load digests (single-core runs only).
    load_digests: Option<Vec<(u64, u64)>>,
}

/// Outcome of a differential run: which schemes disagreed, and how.
#[derive(Debug, Clone)]
pub struct DiffReport {
    /// The workload compared.
    pub workload: String,
    /// Label of the baseline configuration (always the first in the
    /// list handed to [`differential_check`]).
    pub baseline: String,
    /// One line per detected divergence; empty means all schemes agree.
    pub mismatches: Vec<String>,
}

impl DiffReport {
    /// `true` when every scheme produced bit-identical committed state.
    pub fn ok(&self) -> bool {
        self.mismatches.is_empty()
    }
}

impl fmt::Display for DiffReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.ok() {
            write!(
                f,
                "`{}`: all schemes match {}",
                self.workload, self.baseline
            )
        } else {
            writeln!(f, "`{}`: divergence from {}:", self.workload, self.baseline)?;
            for m in &self.mismatches {
                writeln!(f, "  {m}")?;
            }
            Ok(())
        }
    }
}

fn capture(cfg: &MachineConfig, w: &Workload, max_cycles: u64) -> Result<Outcome, RunError> {
    let mut cfg = cfg.clone();
    cfg.verify.enabled = true;
    let mut m = Machine::new(&cfg).expect("verify config must be valid");
    w.install(&mut m);
    m.set_check_observer(Box::new(Checker::new()));
    m.run(max_cycles)?;
    let mut observer = m.take_check_observer().expect("checker still attached");
    let checker = observer
        .as_any_mut()
        .downcast_mut::<Checker>()
        .expect("observer is a Checker");
    let cores = cfg.num_cores;
    let acc = Reg::new(20).expect("r20 exists");
    let single = cores == 1;
    Ok(Outcome {
        memory: m.memory_words(),
        accumulators: (0..cores).map(|c| m.reg(CoreId(c), acc)).collect(),
        core0_regs: single.then(|| {
            (0..32)
                .map(|i| m.reg(CoreId(0), Reg::new(i).expect("valid reg")))
                .collect()
        }),
        load_digests: single.then(|| (0..cores).map(|c| checker.load_digest(CoreId(c))).collect()),
    })
}

/// Runs `w` once per configuration and compares every run's committed
/// architectural state (final memory image, per-core result
/// accumulators, and — single-core — the full register file and the
/// retired-load value stream) against the first configuration's.
///
/// # Panics
///
/// Panics if any configuration fails validation.
pub fn differential_check(
    w: &Workload,
    cfgs: &[MachineConfig],
    max_cycles: u64,
) -> Result<DiffReport, RunError> {
    assert!(!cfgs.is_empty(), "need at least one configuration");
    let baseline = capture(&cfgs[0], w, max_cycles)?;
    let mut mismatches = Vec::new();
    for cfg in &cfgs[1..] {
        let got = capture(cfg, w, max_cycles)?;
        let label = cfg.label();
        if got.memory != baseline.memory {
            mismatches.push(diff_memory(&label, &baseline.memory, &got.memory));
        }
        if got.accumulators != baseline.accumulators {
            mismatches.push(format!(
                "{label}: accumulators {:?} != baseline {:?}",
                got.accumulators, baseline.accumulators
            ));
        }
        if got.core0_regs != baseline.core0_regs {
            mismatches.push(format!(
                "{label}: register file {:?} != baseline {:?}",
                got.core0_regs, baseline.core0_regs
            ));
        }
        if got.load_digests != baseline.load_digests {
            mismatches.push(format!(
                "{label}: retired-load stream {:?} != baseline {:?}",
                got.load_digests, baseline.load_digests
            ));
        }
    }
    Ok(DiffReport {
        workload: w.name.clone(),
        baseline: cfgs[0].label(),
        mismatches,
    })
}

/// Spin-parking twin oracle: runs `w` under `cfg` twice as *plain*
/// (checker-free) runs — spin detector enabled and disabled — and
/// compares total cycles, per-core retired-instruction counts, the full
/// stats dump, and the final memory image. Unlike the other oracles
/// this one demands *bit-identical timing*, not just committed state:
/// parking a spinning core and replaying its loop from a recorded delta
/// must be architecturally invisible down to every counter.
///
/// Plain runs are the point: `verify.enabled` force-disables spin
/// parking (delta replay cannot re-emit per-cycle check events), so
/// [`differential_check`] never exercises the parking path. The twin
/// with the detector off doubles as a gate check — if it ever parks,
/// the `spin_parking` config switch is broken.
///
/// `cfg.fast_forward` is forced on (the detector rides the machine
/// calendar) and `cfg.spin_parking` is overridden per twin.
///
/// # Panics
///
/// Panics if `cfg` fails validation.
pub fn spin_twin_check(
    w: &Workload,
    cfg: &MachineConfig,
    max_cycles: u64,
) -> Result<DiffReport, RunError> {
    type Twin = (RunResult, Vec<(u64, u64)>, u64);
    let run = |spin: bool| -> Result<Twin, RunError> {
        let mut cfg = cfg.clone();
        cfg.fast_forward = true;
        cfg.spin_parking = spin;
        let mut m = Machine::new(&cfg).expect("spin twin config must be valid");
        w.install(&mut m);
        let res = m.run(max_cycles)?;
        let mem = m.memory_words();
        let parks = m.spin_parks();
        Ok((res, mem, parks))
    };
    let (off, off_mem, off_parks) = run(false)?;
    let (on, on_mem, _) = run(true)?;
    let label = format!("{} +spin-parking", cfg.label());
    let mut mismatches = Vec::new();
    if off_parks != 0 {
        mismatches.push(format!(
            "{label}: detector parked {off_parks} time(s) with spin_parking off"
        ));
    }
    if on.cycles != off.cycles {
        mismatches.push(format!(
            "{label}: cycles {} != baseline {}",
            on.cycles, off.cycles
        ));
    }
    if on.retired_per_core != off.retired_per_core {
        mismatches.push(format!(
            "{label}: retired {:?} != baseline {:?}",
            on.retired_per_core, off.retired_per_core
        ));
    }
    let (on_stats, off_stats) = (on.stats.to_string(), off.stats.to_string());
    if on_stats != off_stats {
        // The stats dump is long; report the first differing line.
        let diff = on_stats
            .lines()
            .zip(off_stats.lines())
            .find(|(a, b)| a != b)
            .map_or_else(
                || "stats line counts differ".to_string(),
                |(a, b)| format!("`{a}` != `{b}`"),
            );
        mismatches.push(format!("{label}: stats diverged: {diff}"));
    }
    if on_mem != off_mem {
        mismatches.push(diff_memory(&label, &off_mem, &on_mem));
    }
    Ok(DiffReport {
        workload: w.name.clone(),
        baseline: format!("{} (spin parking off)", cfg.label()),
        mismatches,
    })
}

/// Renders the first few differing words so a failure is actionable.
fn diff_memory(label: &str, base: &[(u64, u64)], got: &[(u64, u64)]) -> String {
    let base_map: HashMap<u64, u64> = base.iter().copied().collect();
    let got_map: HashMap<u64, u64> = got.iter().copied().collect();
    let mut addrs: Vec<u64> = base_map.keys().chain(got_map.keys()).copied().collect();
    addrs.sort_unstable();
    addrs.dedup();
    let mut diffs = Vec::new();
    for a in addrs {
        let b = base_map.get(&a);
        let g = got_map.get(&a);
        if b != g {
            diffs.push(format!("{a:#x}: {b:?} vs {g:?}"));
            if diffs.len() >= 4 {
                diffs.push("...".to_string());
                break;
            }
        }
    }
    format!("{label}: memory image diverged [{}]", diffs.join(", "))
}

#[cfg(test)]
mod tests {
    use super::*;
    use pl_base::{Addr, InvalidateCause};

    fn line(n: u64) -> LineAddr {
        Addr::new(n * 64).line()
    }

    fn events(checker: &mut Checker, now: u64, evs: &[CheckEvent]) {
        checker.on_events(Cycle(now), evs);
    }

    #[test]
    fn pinned_invalidation_is_flagged() {
        let mut c = Checker::new();
        events(
            &mut c,
            10,
            &[CheckEvent::PinAcquired {
                core: CoreId(0),
                line: line(3),
            }],
        );
        events(
            &mut c,
            11,
            &[CheckEvent::L1Invalidated {
                core: CoreId(0),
                line: line(3),
                cause: InvalidateCause::Inv,
            }],
        );
        let r = c.report();
        assert_eq!(r.total_violations, 1);
        assert_eq!(r.violations[0].invariant, "pinned-line-invalidated");
    }

    #[test]
    fn other_cores_lines_may_be_invalidated() {
        let mut c = Checker::new();
        events(
            &mut c,
            10,
            &[
                CheckEvent::PinAcquired {
                    core: CoreId(0),
                    line: line(3),
                },
                CheckEvent::L1Invalidated {
                    core: CoreId(1),
                    line: line(3),
                    cause: InvalidateCause::Inv,
                },
            ],
        );
        assert!(c.report().ok());
    }

    #[test]
    fn unmatched_abort_is_flagged_at_run_end() {
        let mut c = Checker::new();
        events(
            &mut c,
            5,
            &[CheckEvent::WriteAborted {
                core: CoreId(1),
                line: line(7),
            }],
        );
        assert!(c.report().ok(), "liveness only judged at run end");
        c.on_run_end(Cycle(100));
        let r = c.report();
        assert!(!r.ok());
        assert_eq!(r.violations[0].invariant, "lost-deferred-write");
    }

    #[test]
    fn matched_abort_retry_is_clean() {
        let mut c = Checker::new();
        // A transaction may abort several times before its retry wins;
        // one finish discharges the whole obligation.
        events(
            &mut c,
            5,
            &[
                CheckEvent::WriteAborted {
                    core: CoreId(1),
                    line: line(7),
                },
                CheckEvent::WriteAborted {
                    core: CoreId(1),
                    line: line(7),
                },
                CheckEvent::WriteFinished {
                    core: CoreId(1),
                    line: line(7),
                },
            ],
        );
        c.on_run_end(Cycle(100));
        assert!(c.report().ok(), "{}", c.report());
    }

    #[test]
    fn starred_commit_requires_its_clears() {
        let mut c = Checker::new();
        // Fully paired: clean.
        events(
            &mut c,
            5,
            &[
                CheckEvent::StarredCommit {
                    line: line(2),
                    sharers: 2,
                },
                CheckEvent::ClearSent {
                    line: line(2),
                    to: CoreId(1),
                },
                CheckEvent::ClearSent {
                    line: line(2),
                    to: CoreId(2),
                },
            ],
        );
        assert!(c.report().ok());
        // Missing one Clear: violation.
        events(
            &mut c,
            6,
            &[
                CheckEvent::StarredCommit {
                    line: line(2),
                    sharers: 2,
                },
                CheckEvent::ClearSent {
                    line: line(2),
                    to: CoreId(1),
                },
            ],
        );
        let r = c.report();
        assert_eq!(r.total_violations, 2, "pairing + stray clear: {r}");
        assert_eq!(r.violations[0].invariant, "starred-clear-pairing");
    }

    #[test]
    fn vp_progress_must_be_monotone() {
        let mut c = Checker::new();
        events(
            &mut c,
            5,
            &[
                CheckEvent::VpProgress {
                    core: CoreId(0),
                    seq: 9,
                    bits: 0b011,
                },
                CheckEvent::VpProgress {
                    core: CoreId(0),
                    seq: 9,
                    bits: 0b111,
                },
            ],
        );
        assert!(c.report().ok());
        events(
            &mut c,
            6,
            &[CheckEvent::VpProgress {
                core: CoreId(0),
                seq: 9,
                bits: 0b101,
            }],
        );
        assert_eq!(c.report().violations[0].invariant, "vp-regression");
    }

    #[test]
    fn squash_resets_vp_history_for_reused_seqs() {
        let mut c = Checker::new();
        events(
            &mut c,
            5,
            &[
                CheckEvent::VpProgress {
                    core: CoreId(0),
                    seq: 9,
                    bits: 0b111,
                },
                CheckEvent::Squashed {
                    core: CoreId(0),
                    first_bad: 9,
                },
                CheckEvent::VpProgress {
                    core: CoreId(0),
                    seq: 9,
                    bits: 0b001,
                },
            ],
        );
        assert!(c.report().ok(), "{}", c.report());
    }

    #[test]
    fn report_caps_recorded_violations() {
        let mut c = Checker::new();
        for k in 0..(MAX_RECORDED_VIOLATIONS as u64 + 10) {
            events(
                &mut c,
                k,
                &[CheckEvent::AckUnderflow {
                    core: CoreId(0),
                    line: line(k),
                }],
            );
        }
        let r = c.report();
        assert_eq!(r.violations.len(), MAX_RECORDED_VIOLATIONS);
        assert_eq!(r.total_violations, MAX_RECORDED_VIOLATIONS as u64 + 10);
        assert!(r.to_string().contains("more"));
    }

    #[test]
    fn scheme_configs_cover_the_paper_matrix() {
        let cfgs = scheme_configs(4);
        assert_eq!(cfgs.len(), 8);
        let labels: Vec<String> = cfgs.iter().map(|c| c.label()).collect();
        assert!(labels.contains(&"Unsafe".to_string()));
        assert!(labels.iter().any(|l| l.ends_with("+LP")));
        assert!(labels.iter().any(|l| l.ends_with("+EP")));
        for c in &cfgs {
            assert_eq!(c.num_cores, 4);
        }
        // The reference-loop twins (event skipping off) ride along so
        // the differential oracle always compares scheduled vs naive.
        assert_eq!(cfgs.iter().filter(|c| !c.fast_forward).count(), 2);
        assert!(cfgs[..6].iter().all(|c| c.fast_forward));
        assert_eq!(scheme_configs(1)[0].num_cores, 1);
    }
}
