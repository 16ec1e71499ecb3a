//! Determinism and exactly-once guarantees of the parallel sweep runner
//! and its run memo.
//!
//! The generators must print the same numbers whatever the thread count
//! is, and every distinct job — the Unsafe baselines above all — must
//! simulate exactly once per process however many generators share it.
//! Both are load-bearing, so they get end-to-end coverage here on a
//! small config×workload matrix.

use pl_base::{DefenseScheme, MachineConfig, TraceConfig};
use pl_bench::{extension_matrix, run_masked, run_workload, unsafe_config, RunMemo, SweepJob};
use pl_secure::VpMask;
use pl_workloads::{spec_suite, Scale, Workload};

fn small_suite() -> Vec<Workload> {
    spec_suite(Scale::Test)
        .into_iter()
        .filter(|w| ["alu_dense", "hot_reuse", "stream"].contains(&w.name.as_str()))
        .collect()
}

/// Bit-level equality, not approximate: the parallel path must not even
/// reorder floating-point reductions relative to serial.
fn assert_bits_equal(serial: &[Vec<f64>], parallel: &[Vec<f64>], threads: usize) {
    assert_eq!(
        serial.len(),
        parallel.len(),
        "job count diverged at {threads} threads"
    );
    for (s_row, p_row) in serial.iter().zip(parallel) {
        assert_eq!(
            s_row.len(),
            p_row.len(),
            "row length diverged at {threads} threads"
        );
        for (s, p) in s_row.iter().zip(p_row) {
            assert_eq!(
                s.to_bits(),
                p.to_bits(),
                "CPI diverged at {threads} threads: {s} vs {p}"
            );
        }
    }
}

#[test]
fn parallel_sweep_is_bit_identical_to_serial() {
    let base = MachineConfig::default_single_core();
    let workloads = small_suite();
    let jobs: Vec<SweepJob> = extension_matrix(&base, DefenseScheme::Fence)
        .into_iter()
        .map(|(_, cfg)| (cfg, None))
        .collect();
    let serial = RunMemo::new(1).cpis(&jobs, &workloads);
    for threads in [2, 4, 8, 16] {
        let parallel = RunMemo::new(threads).cpis(&jobs, &workloads);
        assert_bits_equal(&serial, &parallel, threads);
    }
}

#[test]
fn fast_forward_sweeps_stay_bit_identical_across_threads() {
    // Fast-forwarding idle cycles must not perturb sweep numbers — not
    // against a single-stepped run, and not under parallel scheduling.
    // This is the regression fence for the idle-cycle fast-forward: a
    // drift anywhere in the replayed stats shows up as a CPI bit flip.
    let workloads = small_suite();
    let jobs = |ff: bool| -> Vec<SweepJob> {
        let mut base = MachineConfig::default_single_core();
        base.fast_forward = ff;
        extension_matrix(&base, DefenseScheme::Fence)
            .into_iter()
            .map(|(_, cfg)| (cfg, None))
            .collect()
    };
    let single_stepped = RunMemo::new(1).cpis(&jobs(false), &workloads);
    let ff_serial = RunMemo::new(1).cpis(&jobs(true), &workloads);
    assert_bits_equal(&single_stepped, &ff_serial, 1);
    for threads in [4, 8] {
        let ff_parallel = RunMemo::new(threads).cpis(&jobs(true), &workloads);
        assert_bits_equal(&single_stepped, &ff_parallel, threads);
    }
}

#[test]
fn memo_simulates_each_distinct_job_once() {
    let base = MachineConfig::default_single_core();
    let workloads = small_suite();
    let fence = extension_matrix(&base, DefenseScheme::Fence);
    let baseline: SweepJob = (unsafe_config(&base), None);
    let comp: SweepJob = (fence[0].1.clone(), None);
    let ep: SweepJob = (fence[2].1.clone(), None);
    let mut memo = RunMemo::new(4);
    // One sweep that lists the baseline twice simulates it once, and
    // both rows carry that one result.
    let first = memo.results(
        &[baseline.clone(), comp.clone(), baseline.clone()],
        &workloads,
    );
    assert_eq!(memo.simulations(), 2 * workloads.len());
    for (a, b) in first[0].iter().zip(&first[2]) {
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
    }
    // A second sweep sharing both jobs simulates only its new one.
    memo.results(&[ep, comp, baseline], &workloads);
    assert_eq!(memo.simulations(), 3 * workloads.len());
    // So does a sweep that lists a workload twice.
    let twice = [workloads[0].clone(), workloads[0].clone()];
    memo.results(&[(fence[1].1.clone(), None)], &twice);
    assert_eq!(memo.simulations(), 3 * workloads.len() + 1);
}

#[test]
fn memo_keys_on_workload_content_not_name() {
    // Figure 7's bench-scale `stream` and Figure 1's test-scale `stream`
    // share a name and an Unsafe config, but not a program: a memo keyed
    // by name would hand one the other's cycles.
    let cfg = unsafe_config(&MachineConfig::default_single_core());
    let stream = |scale| spec_suite(scale).into_iter().find(|w| w.name == "stream");
    let (test, bench) = (stream(Scale::Test).unwrap(), stream(Scale::Bench).unwrap());
    let jobs = [(cfg.clone(), None)];
    let mut memo = RunMemo::new(2);
    let at_test = memo
        .results(&jobs, std::slice::from_ref(&test))
        .remove(0)
        .remove(0);
    let at_bench = memo
        .results(&jobs, std::slice::from_ref(&bench))
        .remove(0)
        .remove(0);
    assert_eq!(memo.simulations(), 2, "one entry per scale");
    assert_eq!(at_test.cycles, run_workload(&cfg, &test).cycles);
    assert_eq!(at_bench.cycles, run_workload(&cfg, &bench).cycles);
    assert_ne!(at_test.cycles, at_bench.cycles);
}

#[test]
fn memo_results_match_direct_runs_at_any_thread_count() {
    let base = MachineConfig::default_single_core();
    let workloads = small_suite();
    let fence = extension_matrix(&base, DefenseScheme::Fence);
    let jobs: Vec<SweepJob> = vec![
        (unsafe_config(&base), None),
        (fence[0].1.clone(), Some(VpMask::cumulative()[0].1)),
        (fence[2].1.clone(), None),
    ];
    for threads in [1, 4] {
        let got = RunMemo::new(threads).results(&jobs, &workloads);
        for ((cfg, mask), row) in jobs.iter().zip(&got) {
            for (w, res) in workloads.iter().zip(row) {
                let want = run_masked(cfg, *mask, w);
                assert_eq!(
                    format!("{res:?}"),
                    format!("{want:?}"),
                    "{} on {} at {threads} threads",
                    w.name,
                    cfg.label()
                );
            }
        }
    }
}

#[test]
fn traced_sweep_is_bit_identical_across_threads() {
    // The merged event log is part of the RunResult; like the CPIs it
    // must not depend on how the sweep was scheduled. TraceLog equality
    // is structural (every record, in order), so this is bit-level.
    let mut base = MachineConfig::default_single_core();
    base.trace = TraceConfig::enabled();
    let workloads: Vec<Workload> = small_suite().into_iter().take(2).collect();
    let jobs: Vec<SweepJob> = vec![
        (unsafe_config(&base), None),
        (
            extension_matrix(&base, DefenseScheme::Fence).remove(2).1,
            None,
        ), // EP
    ];
    let serial = RunMemo::new(1).results(&jobs, &workloads);
    for threads in [2, 8] {
        let parallel = RunMemo::new(threads).results(&jobs, &workloads);
        for (s_row, p_row) in serial.iter().zip(&parallel) {
            for (s, p) in s_row.iter().zip(p_row) {
                let s_log = s.trace.as_ref().expect("traced run");
                let p_log = p.trace.as_ref().expect("traced run");
                assert!(!s_log.records.is_empty(), "traced run produced events");
                assert_eq!(s_log, p_log, "trace diverged at {threads} threads");
            }
        }
    }
}

#[test]
fn chrome_trace_export_is_parseable_with_monotonic_timestamps() {
    use std::collections::HashMap;

    let mut cfg = unsafe_config(&MachineConfig::default_single_core());
    cfg.trace = TraceConfig::enabled();
    let w = small_suite().remove(0);
    let res = run_workload(&cfg, &w);
    let log = res.trace.expect("traced run");
    let text = log.chrome_trace();

    let root = pl_trace::json::parse(&text).expect("exporter emits valid JSON");
    let events = root
        .get("traceEvents")
        .and_then(|v| v.as_arr())
        .expect("traceEvents array present");
    assert!(!events.is_empty());

    // Per (pid, tid) track, "X" event timestamps must be monotonically
    // non-decreasing — the contract chrome://tracing relies on.
    let mut last_ts: HashMap<(u64, u64), f64> = HashMap::new();
    let mut durable = 0usize;
    for e in events {
        let ph = e.get("ph").and_then(|v| v.as_str()).expect("event has ph");
        if ph != "X" {
            continue;
        }
        durable += 1;
        let pid = e.get("pid").and_then(|v| v.as_f64()).expect("pid") as u64;
        let tid = e.get("tid").and_then(|v| v.as_f64()).expect("tid") as u64;
        let ts = e.get("ts").and_then(|v| v.as_f64()).expect("ts");
        if let Some(&prev) = last_ts.get(&(pid, tid)) {
            assert!(
                ts >= prev,
                "track ({pid},{tid}) went backwards: {prev} -> {ts}"
            );
        }
        last_ts.insert((pid, tid), ts);
    }
    assert!(durable > 0, "export contains duration events");
}
