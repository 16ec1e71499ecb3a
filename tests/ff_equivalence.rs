//! Idle-cycle fast-forward must be architecturally and statistically
//! invisible: a run with `cfg.fast_forward` on must be bit-identical to
//! the same run single-stepped — same cycle count, same per-core
//! retirement, same exported counters and histograms, same event trace,
//! and the same errors (deadlock watchdog, cycle limit) at the same
//! cycles.

use pinned_loads::base::{
    CoreId, DefenseScheme, MachineConfig, PinMode, PinnedLoadsConfig, TraceConfig, VerifyConfig,
};
use pinned_loads::isa::{BranchCond, ProgramBuilder, Reg};
use pinned_loads::machine::{Machine, RunError, RunResult};
use pinned_loads::workloads::{parallel_suite, spec_suite, Scale, Workload};
use pl_verify::Checker;

fn r(i: u8) -> Reg {
    Reg::new(i).unwrap()
}

fn configs() -> Vec<MachineConfig> {
    let mut out = Vec::new();
    for (scheme, pin) in [
        (DefenseScheme::Unsafe, PinMode::Off),
        (DefenseScheme::Fence, PinMode::Off),
        (DefenseScheme::Dom, PinMode::Late),
        (DefenseScheme::Stt, PinMode::Early),
    ] {
        let mut cfg = MachineConfig::default_single_core();
        cfg.defense = scheme;
        cfg.pinned_loads = PinnedLoadsConfig::with_mode(pin);
        out.push(cfg);
    }
    out
}

/// One run of `w` under `cfg` with the given fast-forward setting,
/// reduced to a comparable fingerprint: (cycles, retired/core, full
/// stats text including histograms, trace log).
fn fingerprint(
    mut cfg: MachineConfig,
    w: &Workload,
    fast_forward: bool,
) -> (u64, Vec<u64>, String) {
    cfg.fast_forward = fast_forward;
    let mut m = Machine::new(&cfg).unwrap();
    w.install(&mut m);
    let res: RunResult = m
        .run(500_000_000)
        .unwrap_or_else(|e| panic!("{} under {}: {e}", w.name, cfg.label()));
    (res.cycles, res.retired_per_core, res.stats.to_string())
}

#[test]
fn fast_forward_is_bit_identical_on_spec_kernels() {
    // Kernels chosen to exercise the idle windows fast-forward targets:
    // miss-heavy (long DRAM waits), pointer-chasing (serialized misses),
    // and store-heavy (write-buffer stalls).
    for w in spec_suite(Scale::Test)
        .into_iter()
        .filter(|w| ["gather", "chase_cold", "write_burst"].contains(&w.name.as_str()))
    {
        for cfg in configs() {
            let slow = fingerprint(cfg.clone(), &w, false);
            let fast = fingerprint(cfg.clone(), &w, true);
            assert_eq!(
                slow,
                fast,
                "kernel `{}` diverged under {} with fast-forward",
                w.name,
                cfg.label()
            );
        }
    }
}

#[test]
fn fast_forward_is_bit_identical_across_the_parallel_matrix() {
    // Full scheme × core-count matrix. Core counts below, at, and above
    // the mesh row width exercise different NoC shapes and batching
    // patterns; the pinned configs (Dom+Late, Stt+Early) additionally
    // exercise the periodic CPT- and occupancy-sampling paths, whose
    // samples land on fixed cycle numbers and must be replayed exactly
    // over any fast-forwarded window. The fingerprint includes the full
    // stats text with histograms, so a single missed or doubled sample
    // fails the comparison.
    for cores in [2usize, 4, 8] {
        let suite = parallel_suite(cores, Scale::Test);
        // suite[0]: lock-contended counter (spin + CAS traffic);
        // suite[2]: prod_cons (Defer/Abort + starred-write traffic).
        for w in [&suite[0], &suite[2]] {
            for cfg_base in configs() {
                let mut cfg = MachineConfig::default_multi_core(cores);
                cfg.defense = cfg_base.defense;
                cfg.pinned_loads = cfg_base.pinned_loads.clone();
                let slow = fingerprint(cfg.clone(), w, false);
                let fast = fingerprint(cfg.clone(), w, true);
                assert_eq!(
                    slow,
                    fast,
                    "parallel kernel `{}` on {cores} cores diverged under {} \
                     with fast-forward",
                    w.name,
                    cfg.label()
                );
                // The comparison above only proves sampling is *consistent*;
                // prove it actually ran so the matrix covers it.
                assert!(
                    slow.2.contains("occ.rob"),
                    "occupancy sampling missing from `{}` on {cores} cores under {}",
                    w.name,
                    cfg.label()
                );
                if cfg.pinned_loads.mode != PinMode::Off {
                    assert!(
                        slow.2.contains("cpt.peak"),
                        "CPT sampling missing from `{}` on {cores} cores under {}",
                        w.name,
                        cfg.label()
                    );
                }
            }
        }
    }
}

/// Spin parking must be exactly as invisible as fast-forward itself: a
/// run with `cfg.spin_parking` on is bit-identical to its parking-off
/// twin — cycles, per-core retirement, every counter and histogram
/// sample (occupancy and CPT samples land on fixed cycle numbers, so a
/// parked period replayed with a wrong phase would double or drop one),
/// and the committed memory image. The spin-heavy relay kernel makes the
/// detector actually fire under Unsafe, where spinners stay continuously
/// active. Under Fence a spinner's load waits at the ROB head, the
/// resulting quiet cycles send the core through the ordinary
/// Quiet/Parked states, and any park-state excursion closes the spin
/// window — quiet-parking already absorbs those waits, so the detector
/// conservatively never fires there. The pinned schemes may park or not
/// (a window qualifies only when `pin.pins` never moved inside it);
/// whichever way the detector decides, the twins must agree bit for
/// bit, which is the assertion that matters.
#[test]
fn spin_parking_is_bit_identical_across_the_matrix() {
    for cores in [2usize, 4, 8] {
        let suite = parallel_suite(cores, Scale::Test);
        let relay = suite
            .iter()
            .find(|w| w.name == "spin_relay")
            .expect("spin_relay in the parallel suite");
        for cfg_base in configs() {
            let mut cfg = MachineConfig::default_multi_core(cores);
            cfg.defense = cfg_base.defense;
            cfg.pinned_loads = cfg_base.pinned_loads.clone();
            cfg.fast_forward = true;
            let label = format!("spin_relay on {cores} cores under {}", cfg.label());
            let run = |spin_parking: bool| {
                let mut cfg = cfg.clone();
                cfg.spin_parking = spin_parking;
                let mut m = Machine::new(&cfg).unwrap();
                relay.install(&mut m);
                let res = m
                    .run(500_000_000)
                    .unwrap_or_else(|e| panic!("{label}: {e}"));
                (
                    (
                        res.cycles,
                        res.retired_per_core,
                        res.stats.to_string(),
                        m.memory_words(),
                    ),
                    m.spin_parks(),
                )
            };
            let (off, off_parks) = run(false);
            let (on, on_parks) = run(true);
            assert_eq!(off, on, "{label}: spin parking changed the run");
            assert_eq!(off_parks, 0, "{label}: parked with spin_parking off");
            assert!(
                off.2.contains("occ.rob"),
                "{label}: occupancy samples missing from the fingerprint"
            );
            if cfg.defense == DefenseScheme::Unsafe {
                assert!(on_parks > 0, "{label}: the spin detector never parked");
            }
            if cfg.pinned_loads.mode != PinMode::Off {
                assert!(
                    off.2.contains("cpt.peak"),
                    "{label}: CPT samples missing from the fingerprint"
                );
            }
        }
    }
}

/// The attack gadget workloads are the most timing-sensitive programs in
/// the tree — their whole payload is a covert timing channel — so they
/// make a sharp spin-parking oracle: every gadget spins on flags
/// (victim on READY, observer on TDONE/DONE), and parking any of those
/// spins must still replay the exact cycle-level interleaving the
/// channel depends on.
#[test]
fn spin_parking_is_bit_identical_on_attack_gadgets() {
    use pinned_loads::workloads::attack::attack_suite;
    for sc in attack_suite(2) {
        for cfg_base in configs() {
            let mut cfg = MachineConfig::default_multi_core(2);
            cfg.defense = cfg_base.defense;
            cfg.pinned_loads = cfg_base.pinned_loads.clone();
            cfg.fast_forward = true;
            let label = format!("{} under {}", sc.workload.name, cfg.label());
            let run = |spin_parking: bool| {
                let mut cfg = cfg.clone();
                cfg.spin_parking = spin_parking;
                let mut m = Machine::new(&cfg).unwrap();
                sc.workload.install(&mut m);
                let res = m
                    .run(500_000_000)
                    .unwrap_or_else(|e| panic!("{label}: {e}"));
                (
                    res.cycles,
                    res.retired_per_core,
                    res.stats.to_string(),
                    m.memory_words(),
                )
            };
            assert_eq!(
                run(false),
                run(true),
                "{label}: spin parking changed the run"
            );
        }
    }
}

/// The retired-load digest leg of the twin matrix: the invariant checker
/// records an architectural fingerprint of every committed load, and
/// spin replay cannot re-emit check events — which is exactly why
/// `verify.enabled` gates spin parking off. This test locks both halves
/// of that contract in: checker-attached twins with `spin_parking` on
/// and off produce identical retired-load digests (and never park), and
/// their cycles/stats equal the plain parking-on run's, so the digest
/// transitively covers the parked runs too.
#[test]
fn spin_parking_twins_agree_on_retired_load_digests() {
    let cores = 4usize;
    let suite = parallel_suite(cores, Scale::Test);
    let relay = suite
        .iter()
        .find(|w| w.name == "spin_relay")
        .expect("spin_relay in the parallel suite");
    for cfg_base in configs() {
        let mut cfg = MachineConfig::default_multi_core(cores);
        cfg.defense = cfg_base.defense;
        cfg.pinned_loads = cfg_base.pinned_loads.clone();
        cfg.fast_forward = true;
        let label = format!("spin_relay on {cores} cores under {}", cfg.label());

        let checked_run = |spin_parking: bool| {
            let mut cfg = cfg.clone();
            cfg.spin_parking = spin_parking;
            cfg.verify.enabled = true;
            let mut m = Machine::new(&cfg).unwrap();
            relay.install(&mut m);
            m.set_check_observer(Box::new(Checker::new()));
            let res = m
                .run(500_000_000)
                .unwrap_or_else(|e| panic!("{label}: {e}"));
            assert_eq!(
                m.spin_parks(),
                0,
                "{label}: parked under verify.enabled (replay would lose check events)"
            );
            let fp = checked_fingerprint(&mut m, &res);
            (res.cycles, res.stats.to_string(), fp)
        };
        let (off_cycles, off_stats, off_fp) = checked_run(false);
        let (on_cycles, on_stats, on_fp) = checked_run(true);
        assert_eq!(
            off_fp, on_fp,
            "{label}: checker twins diverged (digests included)"
        );

        // Anchor the checker twins to the plain parking-on run: same
        // cycles, same stats — so the digest they agree on describes the
        // parked run's architectural behavior too.
        let mut plain_cfg = cfg.clone();
        plain_cfg.spin_parking = true;
        let mut m = Machine::new(&plain_cfg).unwrap();
        relay.install(&mut m);
        let res = m
            .run(500_000_000)
            .unwrap_or_else(|e| panic!("{label}: {e}"));
        assert_eq!((res.cycles, res.stats.to_string()), (off_cycles, off_stats));
        assert_eq!((res.cycles, res.stats.to_string()), (on_cycles, on_stats));
    }
}

#[test]
fn fast_forward_preserves_event_traces() {
    let mut cfg = MachineConfig::default_single_core();
    cfg.defense = DefenseScheme::Dom;
    cfg.trace = TraceConfig::enabled();
    let mut b = ProgramBuilder::new();
    let top = b.new_label();
    b.addi(r(1), Reg::ZERO, 0x4000);
    b.addi(r(2), Reg::ZERO, 32);
    b.bind(top).unwrap();
    b.load(r(3), r(1), 0); // cold misses: long quiet DRAM waits
    b.addi(r(1), r(1), 0x1000);
    b.addi(r(2), r(2), -1);
    b.branch(BranchCond::Ne, r(2), Reg::ZERO, top);
    let program = b.build().unwrap();

    let run = |ff: bool| {
        let mut cfg = cfg.clone();
        cfg.fast_forward = ff;
        let mut m = Machine::new(&cfg).unwrap();
        m.load_program(CoreId(0), program.clone());
        let res = m.run(10_000_000).unwrap();
        (res.cycles, res.trace.expect("tracing enabled"))
    };
    let (slow_cycles, slow_trace) = run(false);
    let (fast_cycles, fast_trace) = run(true);
    assert_eq!(slow_cycles, fast_cycles);
    assert_eq!(slow_trace, fast_trace, "trace logs diverged");
}

/// The invariant checker must be as invisible as fast-forward: a run
/// with `verify.enabled` and an attached observer is bit-identical to
/// the same run without it — same cycles, same retirement, same
/// counters and histograms (the checker only *observes*; it never
/// perturbs scheduling or stats).
#[test]
fn invariant_checker_is_bit_invisible() {
    let suite = parallel_suite(4, Scale::Test);
    let pw = &suite[2]; // prod_cons: heavy Defer/Abort + starred traffic
    for cfg_base in configs() {
        let mut cfg = MachineConfig::default_multi_core(4);
        cfg.defense = cfg_base.defense;
        cfg.pinned_loads = cfg_base.pinned_loads.clone();
        let off = fingerprint(cfg.clone(), pw, true);
        let on = {
            let mut cfg = cfg.clone();
            cfg.fast_forward = true;
            cfg.verify.enabled = true;
            let mut m = Machine::new(&cfg).unwrap();
            pw.install(&mut m);
            m.set_check_observer(Box::new(pl_verify::Checker::new()));
            let res = m
                .run(500_000_000)
                .unwrap_or_else(|e| panic!("{} under {}: {e}", pw.name, cfg.label()));
            (res.cycles, res.retired_per_core, res.stats.to_string())
        };
        assert_eq!(
            off,
            on,
            "`{}` diverged under {} with the checker attached",
            pw.name,
            cfg.label()
        );
    }
}

/// Checker-on runs also preserve event traces exactly (trace and check
/// sinks are independent observers of the same schedule).
#[test]
fn invariant_checker_preserves_event_traces() {
    let mut cfg = MachineConfig::default_single_core();
    cfg.defense = DefenseScheme::Dom;
    cfg.trace = TraceConfig::enabled();
    let mut b = ProgramBuilder::new();
    let top = b.new_label();
    b.addi(r(1), Reg::ZERO, 0x4000);
    b.addi(r(2), Reg::ZERO, 32);
    b.bind(top).unwrap();
    b.load(r(3), r(1), 0);
    b.addi(r(1), r(1), 0x1000);
    b.addi(r(2), r(2), -1);
    b.branch(BranchCond::Ne, r(2), Reg::ZERO, top);
    let program = b.build().unwrap();

    let run = |verify: bool| {
        let mut cfg = cfg.clone();
        if verify {
            cfg.verify = VerifyConfig::enabled();
        }
        let mut m = Machine::new(&cfg).unwrap();
        m.load_program(CoreId(0), program.clone());
        if verify {
            m.set_check_observer(Box::new(pl_verify::Checker::new()));
        }
        let res = m.run(10_000_000).unwrap();
        (res.cycles, res.trace.expect("tracing enabled"))
    };
    let (off_cycles, off_trace) = run(false);
    let (on_cycles, on_trace) = run(true);
    assert_eq!(off_cycles, on_cycles);
    assert_eq!(off_trace, on_trace, "trace logs diverged");
}

#[test]
fn fast_forward_reports_identical_deadlocks() {
    // A spin loop that never sees its flag, under a watchdog too tight to
    // tolerate the miss latency: the run must fail at the same cycle with
    // the same retirement count and the same diagnosis either way.
    let run = |ff: bool| {
        let mut cfg = MachineConfig::default_multi_core(2);
        cfg.trace = TraceConfig::enabled();
        cfg.fast_forward = ff;
        let mut m = Machine::new(&cfg).unwrap();
        let mut p1 = ProgramBuilder::new();
        let spin = p1.new_label();
        p1.addi(r(3), Reg::ZERO, 0xa000);
        p1.bind(spin).unwrap();
        p1.load(r(4), r(3), 0);
        p1.branch(BranchCond::Eq, r(4), Reg::ZERO, spin);
        m.load_program(CoreId(1), p1.build().unwrap());
        m.set_watchdog_cycles(20);
        match m.run(1_000_000) {
            Err(RunError::Deadlock {
                cycle,
                retired,
                diagnosis,
            }) => (
                cycle,
                retired,
                diagnosis.state.clone(),
                diagnosis.recent_events.clone(),
            ),
            other => panic!("expected Deadlock, got {other:?}"),
        }
    };
    assert_eq!(run(false), run(true));
}

/// A checked run reduced to one comparable value: final cycle count,
/// per-core retirement, the full exported stats text (counters *and*
/// histograms), the committed memory image, and the invariant checker's
/// per-core retired-load digest — an architectural fingerprint of every
/// load the machine ever committed.
type CheckedFingerprint = (u64, Vec<u64>, String, Vec<(u64, u64)>, Vec<(u64, u64)>);

fn checked_fingerprint(m: &mut Machine, res: &RunResult) -> CheckedFingerprint {
    let mut observer = m.take_check_observer().expect("checker attached");
    let checker = observer
        .as_any_mut()
        .downcast_mut::<Checker>()
        .expect("observer is a Checker");
    let report = checker.report();
    assert_eq!(report.total_violations, 0, "{:?}", report.violations);
    let digests = (0..res.retired_per_core.len())
        .map(|c| checker.load_digest(CoreId(c)))
        .collect();
    (
        res.cycles,
        res.retired_per_core.clone(),
        res.stats.to_string(),
        m.memory_words(),
        digests,
    )
}

#[test]
fn fast_forward_reports_identical_cycle_limits() {
    let run = |ff: bool| {
        let mut cfg = MachineConfig::default_single_core();
        cfg.fast_forward = ff;
        let mut b = ProgramBuilder::new();
        let spin = b.new_label();
        b.addi(r(1), Reg::ZERO, 0x8000);
        b.bind(spin).unwrap();
        b.load(r(2), r(1), 0); // periodic misses leave idle gaps
        b.addi(r(1), r(1), 0x1000);
        b.jump(spin);
        let mut m = Machine::new(&cfg).unwrap();
        m.load_program(CoreId(0), b.build().unwrap());
        match m.run(50_000) {
            Err(RunError::CycleLimit { limit, retired }) => (limit, retired),
            other => panic!("expected CycleLimit, got {other:?}"),
        }
    };
    assert_eq!(run(false), run(true));
}
