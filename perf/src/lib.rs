//! `pl-perf`: the repository benchmark.
//!
//! Three workloads regenerate the paper's evaluation end to end:
//!
//! - `fig7-spec`: the Figure 7 matrix (16 SPEC-like kernels × 13
//!   configurations at `Scale::Bench`, one core). Core-pipeline bound:
//!   no sharers, no directory contention; it exercises the calendar's
//!   jump-ahead over DRAM waits and bypasses spin parking.
//! - `fig8-par`: the Figure 8 matrix (13 parallel kernels × 13
//!   configurations at `Scale::Test`, 8 cores). Stresses the directory,
//!   NoC, pin protocol, quiet parking and spin parking; the `spin_relay`
//!   jobs form the latency tail.
//! - `leakage`: the full `pl-attack` sweep (4 gadgets × {2, 4} cores × 6
//!   schemes). Each point is a verify-on decode run plus a verify-off
//!   companion run, so the check-event stream and observer are timed.
//!
//! Each workload is one matrix of jobs fanned out over the sweep threads
//! ([`run_pass`]). Timed passes measure the end-to-end metrics with no
//! instrumentation inside the simulator: every span is taken around a
//! call into a public function. A traced run ([`measure`] with `trace`)
//! adds per-layer numbers from the outside-in [`layers::Driver`].

#![forbid(unsafe_code)]

pub mod layers;
pub mod report;

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use pl_attack::{attack_config, decode, leakage_json, score, LeakagePoint, ProbeLog, SweepOptions};
use pl_base::digest::Fnv1a;
use pl_base::{
    CheckObserver, CoreId, DefenseScheme, MachineConfig, PinMode, ThreatModel, VerifyConfig,
};
use pl_bench::{extension_matrix, unsafe_config, RUN_BUDGET};
use pl_isa::Reg;
use pl_machine::{Machine, RunResult};
use pl_workloads::attack::{attack_scenario, AttackScenario, Gadget};
use pl_workloads::{parallel_suite, spec_suite, Scale, Workload};

use layers::{Clock, Driver, Layer, LayerTimes};

/// Default seed of the leakage secrets: the seed `results/leakage.json`
/// was generated with.
pub const DEFAULT_SEED: u64 = 0xa77ac;

/// Default sweep worker threads.
pub const DEFAULT_THREADS: usize = 2;

/// Largest bits/trial a point whose scheme claims to close the channel
/// may leak. Chance-level decoding of 96 scored rounds stays far below it.
const CLOSED_LEAK_MAX: f64 = 0.15;

/// Smallest bits/trial every gadget must leak under Unsafe, so the
/// closed-channel check is not vacuous.
const OPEN_LEAK_MIN: f64 = 0.3;

/// The paper's Figure 7 geo-mean overheads (%), Fence/DOM/STT ×
/// Comp/LP/EP/Spectre, as quoted in EXPERIMENTS.md.
const PAPER_FIG7: [f64; 12] = [
    112.6, 66.4, 51.3, 34.5, 35.8, 32.3, 15.3, 9.7, 24.8, 19.5, 13.2, 6.4,
];

/// The paper's Figure 8 geo-mean overheads (%), same order.
const PAPER_FIG8: [f64; 12] = [
    113.1, 51.2, 46.4, 31.1, 15.8, 12.7, 7.6, 4.2, 11.3, 8.7, 8.1, 5.1,
];

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// The Figure 7 matrix, single core.
    Fig7Spec,
    /// The Figure 8 matrix, 8 cores.
    Fig8Par,
    /// The `pl-attack` leakage sweep.
    Leakage,
}

impl Kind {
    /// Every workload, in report order.
    pub const ALL: [Kind; 3] = [Kind::Fig7Spec, Kind::Fig8Par, Kind::Leakage];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Fig7Spec => "fig7-spec",
            Kind::Fig8Par => "fig8-par",
            Kind::Leakage => "leakage",
        }
    }

    /// Inverse of [`Kind::name`].
    pub fn from_name(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }
}

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// `"lower"` or `"higher"`, as in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// An end-to-end metric and the worsening it may show before a change
/// counts as a regression.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
    /// Allowed worsening as a share of the parent's median.
    pub bound: f64,
    /// Listed in `BENCHMARK.json`. The two ungated metrics are zero on a
    /// healthy run, so they gate through the result's `correct` and
    /// `failed` fields instead.
    pub gated: bool,
}

const fn metric(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound,
        gated: true,
    }
}

/// The end-to-end metrics, reported per workload. The bounds come from
/// the spread of ten runs per workload on a shared 2-vCPU host, where
/// minutes-long host drift moves every timing, and thread interleaving
/// the peak resident set, by up to a quarter (see the README).
pub const END_TO_END: [Metric; 9] = [
    metric("wall_s", "s", Better::Lower, 0.25),
    metric("sim_kcps", "kc/s", Better::Higher, 0.25),
    metric("sim_kips", "kinst/s", Better::Higher, 0.25),
    metric("job_p50_ms", "ms", Better::Lower, 0.25),
    metric("job_tail_ms", "ms", Better::Lower, 0.25),
    metric("setup_s", "s", Better::Lower, 0.25),
    metric("peak_rss_mb", "MB", Better::Lower, 0.25),
    Metric {
        gated: false,
        ..metric("failed_frac", "ratio", Better::Lower, 0.0)
    },
    Metric {
        gated: false,
        ..metric("closed_leak_bits", "bits/trial", Better::Lower, 0.0)
    },
];

/// The per-layer metrics listed in `BENCHMARK.json`: those nonzero on
/// every workload and most likely to move under an optimisation. A traced
/// run reports many more (see the README's layer table).
pub const GATED_LAYER_METRICS: [(&str, &str); 31] = [
    ("cpu.tick.calls", "count"),
    ("cpu.tick.self_s", "s"),
    ("cpu.tick.ns_per_call", "ns"),
    ("cpu.handle_msg.self_s", "s"),
    ("mem.dir.handle.self_s", "s"),
    ("mem.dir.tick.self_s", "s"),
    ("mem.noc.send.self_s", "s"),
    ("mem.noc.deliver.self_s", "s"),
    ("outbox.drain.self_s", "s"),
    ("machine.loop.self_s", "s"),
    ("machine.run.busy_s", "s"),
    ("machine.naive_over_ff", "ratio"),
    ("machine.nospin_over_ff", "ratio"),
    ("secure.unsafe.busy_s", "s"),
    ("secure.fence.busy_s", "s"),
    ("secure.dom.busy_s", "s"),
    ("secure.stt.busy_s", "s"),
    ("pin.comp.busy_s", "s"),
    ("pin.lp.busy_s", "s"),
    ("pin.ep.busy_s", "s"),
    ("core.useful_frac", "ratio"),
    ("sim.retired", "count"),
    ("pin.pins", "count"),
    ("dir.requests", "count"),
    ("l1.hit_frac", "ratio"),
    ("noc.messages", "count"),
    ("sweep.idle_frac", "ratio"),
    ("setup.gen_s", "s"),
    ("setup.machine_new_s", "s"),
    ("setup.install_s", "s"),
    ("trace.overhead_x", "ratio"),
];

/// One simulation job: a configuration applied to one kernel or attack
/// scenario.
#[derive(Debug, Clone)]
pub(crate) struct Job {
    /// `kernel/config` (or `gadget/Nc/config`) label.
    pub label: String,
    /// Machine configuration.
    pub cfg: MachineConfig,
    /// Configuration index; row 0 is the Unsafe baseline.
    pub row: usize,
    /// Kernel or scenario index. Every job of a column computes the same
    /// architectural answer.
    pub col: usize,
    /// The attack point (gadget, cores) of a leakage job.
    pub attack: Option<(Gadget, usize)>,
}

impl Job {
    /// Simulations the job runs: a decode run plus a companion for an
    /// attack point, one run otherwise.
    pub(crate) fn runs(&self) -> usize {
        if self.attack.is_some() {
            2
        } else {
            1
        }
    }
}

/// A workload's job matrix.
#[derive(Debug, Clone)]
pub struct Plan {
    /// The workload.
    pub kind: Kind,
    /// Reduced size for CI: `Scale::Test`, 2 cores, one configuration
    /// per scheme.
    pub smoke: bool,
    /// Seed of the leakage secrets.
    pub seed: u64,
    /// Leakage sweep shape (rounds, cores); unused by the kernel matrices.
    pub(crate) attack: SweepOptions,
    /// Every job, in report order.
    pub(crate) jobs: Vec<Job>,
    /// Configurations per column.
    pub(crate) rows: usize,
    /// Kernels or scenarios.
    pub(crate) cols: usize,
    scale: Scale,
    cores: usize,
}

/// The configurations of a Figure 7/8 matrix: Unsafe, then each
/// protected scheme under Comp/LP/EP/Spectre (only Comp when `smoke`).
fn matrix_configs(base: &MachineConfig, smoke: bool) -> Vec<MachineConfig> {
    let mut configs = vec![unsafe_config(base)];
    for scheme in DefenseScheme::PROTECTED {
        let matrix = extension_matrix(base, scheme);
        let take = if smoke { 1 } else { matrix.len() };
        configs.extend(matrix.into_iter().take(take).map(|(_, cfg)| cfg));
    }
    configs
}

impl Plan {
    /// The job matrix of `kind`. `seed` only seeds the leakage secrets;
    /// kernel programs carry fixed generator seeds.
    pub fn new(kind: Kind, smoke: bool, seed: u64) -> Plan {
        let scale = if smoke || kind == Kind::Fig8Par {
            Scale::Test
        } else {
            Scale::Bench
        };
        let cores = if smoke { 2 } else { 8 };
        let attack = if smoke {
            SweepOptions::smoke(seed)
        } else {
            SweepOptions::full(seed)
        };
        let mut plan = Plan {
            kind,
            smoke,
            seed,
            attack,
            jobs: Vec::new(),
            rows: 0,
            cols: 0,
            scale,
            cores,
        };
        match kind {
            Kind::Fig7Spec | Kind::Fig8Par => {
                let base = if kind == Kind::Fig7Spec {
                    MachineConfig::default_single_core()
                } else {
                    MachineConfig::default_multi_core(cores)
                };
                let configs = matrix_configs(&base, smoke);
                let names: Vec<String> = plan.generate().into_iter().map(|w| w.name).collect();
                plan.rows = configs.len();
                plan.cols = names.len();
                for (row, cfg) in configs.iter().enumerate() {
                    for (col, name) in names.iter().enumerate() {
                        plan.jobs.push(Job {
                            label: format!("{name}/{}", cfg.label()),
                            cfg: cfg.clone(),
                            row,
                            col,
                            attack: None,
                        });
                    }
                }
            }
            Kind::Leakage => {
                let schemes = if smoke { 4 } else { 6 };
                plan.rows = schemes;
                let mut col = 0;
                for &gadget in &plan.attack.gadgets {
                    for &cores in &plan.attack.cores {
                        let configs = pl_verify::scheme_configs(cores);
                        for (row, cfg) in configs.into_iter().take(schemes).enumerate() {
                            plan.jobs.push(Job {
                                label: format!("{}/{cores}c/{}", gadget.name(), cfg.label()),
                                cfg,
                                row,
                                col,
                                attack: Some((gadget, cores)),
                            });
                        }
                        col += 1;
                    }
                }
                plan.cols = col;
            }
        }
        plan
    }

    /// Generates the kernel programs of a Figure 7/8 matrix (nothing for
    /// the leakage sweep, whose scenarios are generated per job).
    pub(crate) fn generate(&self) -> Vec<Workload> {
        match self.kind {
            Kind::Fig7Spec => spec_suite(self.scale),
            Kind::Fig8Par => parallel_suite(self.cores, self.scale),
            Kind::Leakage => Vec::new(),
        }
    }

    fn scenario(&self, gadget: Gadget, cores: usize) -> AttackScenario {
        attack_scenario(
            gadget,
            cores,
            self.attack.cal_rounds,
            self.attack.rounds,
            self.seed,
        )
    }

    /// The traced subset: a diagonal through the matrix that covers every
    /// configuration and every kernel or scenario at least once.
    pub(crate) fn traced_jobs(&self) -> Vec<usize> {
        (0..self.rows.max(self.cols))
            .filter_map(|i| {
                let (row, col) = (i % self.rows, i % self.cols);
                self.jobs.iter().position(|j| j.row == row && j.col == col)
            })
            .collect()
    }

    /// Simulations one pass runs.
    pub(crate) fn runs_per_pass(&self) -> u64 {
        self.jobs.iter().map(|j| j.runs() as u64).sum()
    }
}

/// Statistics counters the traced run sums over the reference pass.
const COUNTERS: [&str; 12] = [
    "squashed_insts",
    "stall.taint",
    "pin.pins",
    "pin.ep_denied",
    "llc.gets",
    "llc.getx",
    "llc.getx_star",
    "llc.nacks",
    "llc.aborts",
    "l1.hits",
    "l1.misses",
    "noc.messages",
];

/// One timed `Machine::run` and what it produced.
#[derive(Debug, Clone, Default)]
pub(crate) struct RunRecord {
    /// Nanoseconds in `Machine::new`.
    pub new_ns: u64,
    /// Nanoseconds in `Workload::install` (and observer attachment).
    pub install_ns: u64,
    /// Nanoseconds in `Machine::run`.
    pub run_ns: u64,
    /// Simulated cycles.
    pub cycles: u64,
    /// Retired instructions over all cores.
    pub retired: u64,
    /// Simulated cores.
    pub cores: usize,
    /// FNV-1a over cycles, per-core retired counts and merged statistics.
    pub digest: u64,
    /// FNV-1a over the committed architectural state: memory, each
    /// core's `r20` accumulator, and core 0's registers on one core.
    pub arch: u64,
    /// The [`COUNTERS`] statistics of the run.
    pub counters: [u64; COUNTERS.len()],
    /// Spin detector windows opened, parks, and core-cycles replayed.
    pub spin: [u64; 3],
}

/// Decode outcome of a leakage job.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Leak {
    /// Bits extracted per trial.
    pub bits: f64,
    /// Decode accuracy over scored rounds.
    pub accuracy: f64,
}

/// Everything one job produced.
#[derive(Debug, Clone, Default)]
pub(crate) struct JobRecord {
    /// Nanoseconds generating the job's own inputs (attack scenarios).
    pub gen_ns: u64,
    /// Nanoseconds decoding and scoring the probe log.
    pub decode_ns: u64,
    /// Nanoseconds the worker thread spent on the job.
    pub worker_ns: u64,
    /// Completed runs, in job order (decode run first).
    pub runs: Vec<RunRecord>,
    /// Why the job stopped early, if it did.
    pub error: Option<String>,
    /// Decode outcome of an attack point.
    pub leak: Option<Leak>,
}

fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// FNV-1a over a run's cycles, per-core retired counts and merged
/// statistics: the output-digest contribution of one run.
pub fn run_digest(res: &RunResult) -> u64 {
    let mut h = Fnv1a::new();
    h.write_u64(res.cycles);
    h.write_usize(res.retired_per_core.len());
    for &r in &res.retired_per_core {
        h.write_u64(r);
    }
    h.write_str(&res.stats.to_string());
    h.finish()
}

/// FNV-1a over the committed state pl-verify's differential oracle
/// compares across schemes.
fn arch_digest(words: &[(u64, u64)], reg: impl Fn(CoreId, Reg) -> u64, cores: usize) -> u64 {
    let mut h = Fnv1a::new();
    h.write_usize(words.len());
    for &(a, v) in words {
        h.write_u64(a);
        h.write_u64(v);
    }
    let acc = Reg::new(20).expect("r20 exists");
    for c in 0..cores {
        h.write_u64(reg(CoreId(c), acc));
    }
    if cores == 1 {
        for i in 0..32 {
            h.write_u64(reg(CoreId(0), Reg::new(i).expect("32 registers")));
        }
    }
    h.finish()
}

/// `Machine::new`, install, run — each timed — on a fresh machine.
fn timed_run(
    cfg: &MachineConfig,
    w: &Workload,
    observer: Option<Box<dyn CheckObserver>>,
) -> Result<(RunRecord, Machine), String> {
    let t0 = Instant::now();
    let mut m = Machine::new(cfg).map_err(|e| format!("{}: {e}", cfg.label()))?;
    let t1 = Instant::now();
    w.install(&mut m);
    if let Some(o) = observer {
        m.set_check_observer(o);
    }
    let t2 = Instant::now();
    let res = m
        .run(RUN_BUDGET)
        .map_err(|e| format!("{} on {}: {e}", w.name, cfg.label()))?;
    let t3 = Instant::now();
    let rec = RunRecord {
        new_ns: nanos(t1 - t0),
        install_ns: nanos(t2 - t1),
        run_ns: nanos(t3 - t2),
        cycles: res.cycles,
        retired: res.total_retired(),
        cores: cfg.num_cores,
        digest: run_digest(&res),
        arch: arch_digest(&m.memory_words(), |c, r| m.reg(c, r), cfg.num_cores),
        counters: COUNTERS.map(|name| res.stats.get(name)),
        spin: [m.spin_opens(), m.spin_parks(), m.spin_skipped_cycles()],
    };
    Ok((rec, m))
}

/// Decodes and scores the probe log a decode run's observer collected.
fn decode_probes(sc: &AttackScenario, mut observer: Box<dyn CheckObserver>, cycles: u64) -> Leak {
    let log = observer
        .as_any_mut()
        .downcast_mut::<ProbeLog>()
        .expect("the decode run's observer is a ProbeLog");
    let outcome = score(sc, decode(sc, &log.records), cycles);
    Leak {
        bits: outcome.bits_per_trial,
        accuracy: outcome.accuracy,
    }
}

/// The configuration of each run of an attack point: the verify-on
/// decode run, then the verify-off companion.
fn attack_runs(cfg: &MachineConfig) -> [MachineConfig; 2] {
    let companion = attack_config(cfg);
    let mut decode = companion.clone();
    decode.verify = VerifyConfig::enabled();
    [decode, companion]
}

fn panic_message(p: Box<dyn std::any::Any + Send>) -> String {
    p.downcast_ref::<String>()
        .cloned()
        .or_else(|| p.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_else(|| "panic".to_string())
}

/// Runs one job untraced, catching a panic as a failed job.
pub(crate) fn run_job(plan: &Plan, job: &Job, kernels: &[Workload]) -> JobRecord {
    let start = Instant::now();
    let mut rec = JobRecord::default();
    let outcome = catch_unwind(AssertUnwindSafe(|| -> Result<(), String> {
        let Some((gadget, cores)) = job.attack else {
            let (run, _) = timed_run(&job.cfg, &kernels[job.col], None)?;
            rec.runs.push(run);
            return Ok(());
        };
        let t = Instant::now();
        let sc = plan.scenario(gadget, cores);
        rec.gen_ns = nanos(t.elapsed());
        let [dcfg, ccfg] = attack_runs(&job.cfg);
        let probe = Box::new(ProbeLog::new(sc.observer_core));
        let (run, mut m) = timed_run(&dcfg, &sc.workload, Some(probe))?;
        let t = Instant::now();
        let observer = m.take_check_observer().expect("observer still attached");
        rec.leak = Some(decode_probes(&sc, observer, run.cycles));
        rec.decode_ns = nanos(t.elapsed());
        rec.runs.push(run);
        let (companion, _) = timed_run(&ccfg, &sc.workload, None)?;
        rec.runs.push(companion);
        Ok(())
    }));
    rec.error = match outcome {
        Ok(Ok(())) => None,
        Ok(Err(e)) => Some(e),
        Err(p) => Some(format!("panicked: {}", panic_message(p))),
    };
    rec.worker_ns = nanos(start.elapsed());
    rec
}

/// One pass over a workload's whole matrix.
#[derive(Debug, Clone)]
pub(crate) struct Pass {
    /// Wall nanoseconds of the pass, generation included.
    pub wall_ns: u64,
    /// Nanoseconds generating the kernel programs.
    pub gen_ns: u64,
    /// Wall nanoseconds of the parallel fan-out alone.
    pub sweep_ns: u64,
    /// One record per job, in plan order.
    pub jobs: Vec<JobRecord>,
}

/// Generates the workload's inputs and runs every job over `threads`
/// sweep threads.
pub(crate) fn run_pass(plan: &Plan, threads: usize) -> Pass {
    let start = Instant::now();
    let kernels = plan.generate();
    let gen_ns = nanos(start.elapsed());
    let t = Instant::now();
    let jobs = pl_bench::sweep::par_map(threads, &plan.jobs, |_, job| run_job(plan, job, &kernels));
    let sweep_ns = nanos(t.elapsed());
    Pass {
        wall_ns: nanos(start.elapsed()),
        gen_ns,
        sweep_ns,
        jobs,
    }
}

impl Pass {
    fn runs(&self) -> impl Iterator<Item = &RunRecord> {
        self.jobs.iter().flat_map(|j| &j.runs)
    }

    /// FNV-1a over every run's digest, in plan order.
    pub(crate) fn output_digest(&self) -> u64 {
        let mut h = Fnv1a::new();
        for r in self.runs() {
            h.write_u64(r.digest);
        }
        h.finish()
    }
}

/// Whether `scheme` claims to close `gadget`'s channel: every defended
/// scheme does, except STT against the interference gadgets.
fn claims_closed(gadget: &str, scheme: &str) -> bool {
    scheme != "Unsafe" && !(scheme.starts_with("STT") && gadget.starts_with("interference"))
}

/// The leakage sweep's scatter points, as `leakage_sweep` builds them.
pub(crate) fn leakage_points(plan: &Plan, pass: &Pass) -> Vec<LeakagePoint> {
    let mut points: Vec<LeakagePoint> = plan
        .jobs
        .iter()
        .zip(&pass.jobs)
        .filter_map(|(job, rec)| {
            let (gadget, cores) = job.attack?;
            let leak = rec.leak?;
            let [decode_run, companion] = [rec.runs.first()?, rec.runs.get(1)?];
            Some(LeakagePoint {
                gadget: gadget.name().to_string(),
                scheme: job.cfg.label(),
                cores,
                rounds: plan.attack.rounds,
                bits_per_trial: leak.bits,
                accuracy: leak.accuracy,
                cycles: companion.cycles,
                cpi: companion.cycles as f64 / companion.retired.max(1) as f64,
                norm_cpi: None,
                timing_match: decode_run.cycles == companion.cycles,
            })
        })
        .collect();
    let baselines: Vec<(String, usize, u64)> = points
        .iter()
        .filter(|p| p.scheme == "Unsafe")
        .map(|p| (p.gadget.clone(), p.cores, p.cycles))
        .collect();
    for p in &mut points {
        p.norm_cpi = baselines
            .iter()
            .find(|(g, c, _)| *g == p.gadget && *c == p.cores)
            .map(|&(_, _, b)| p.cycles as f64 / b.max(1) as f64);
    }
    points
}

/// The committed leakage result the default-seed sweep must reproduce.
const COMMITTED_LEAKAGE: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../results/leakage.json");

/// Correctness checks over one pass: returns the failed-run count and a
/// description of every problem.
pub(crate) fn check_pass(plan: &Plan, pass: &Pass) -> (u64, Vec<String>) {
    let mut failed = 0u64;
    let mut problems = Vec::new();
    for (job, rec) in plan.jobs.iter().zip(&pass.jobs) {
        if let Some(e) = &rec.error {
            failed += (job.runs() - rec.runs.len()) as u64;
            problems.push(format!("{}: {e}", job.label));
        }
    }
    // Every configuration of a kernel or scenario commits the same state.
    for col in 0..plan.cols {
        let mut reference: Option<u64> = None;
        for (job, rec) in plan.jobs.iter().zip(&pass.jobs) {
            if job.col != col {
                continue;
            }
            for run in &rec.runs {
                match reference {
                    None => reference = Some(run.arch),
                    Some(a) if a != run.arch => {
                        failed += 1;
                        problems.push(format!(
                            "{}: committed state differs from the other configurations",
                            job.label
                        ));
                    }
                    Some(_) => {}
                }
            }
        }
    }
    if plan.kind != Kind::Leakage {
        return (failed, problems);
    }
    let points = leakage_points(plan, pass);
    for p in &points {
        let label = format!("{}/{}c/{}", p.gadget, p.cores, p.scheme);
        if !p.timing_match {
            failed += 1;
            problems.push(format!("{label}: the probe hook changed the cycle count"));
        }
        if plan.smoke {
            continue;
        }
        if claims_closed(&p.gadget, &p.scheme) && p.bits_per_trial > CLOSED_LEAK_MAX {
            problems.push(format!(
                "{label}: leaks {:.4} bits/trial through a closed channel",
                p.bits_per_trial
            ));
        }
        if p.scheme == "Unsafe" && p.bits_per_trial < OPEN_LEAK_MIN {
            problems.push(format!(
                "{label}: leaks only {:.4} bits/trial under Unsafe",
                p.bits_per_trial
            ));
        }
    }
    if !plan.smoke && plan.seed == DEFAULT_SEED && points.len() == plan.jobs.len() {
        let regenerated = leakage_json(&plan.attack, &points);
        match std::fs::read_to_string(COMMITTED_LEAKAGE) {
            Ok(committed) if committed == regenerated => {}
            Ok(_) => problems.push("regenerated leakage differs from results/leakage.json".into()),
            Err(e) => problems.push(format!("read results/leakage.json: {e}")),
        }
    }
    (failed, problems)
}

/// Median and quartiles of a metric's samples.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Samples in measurement order.
    pub samples: Vec<f64>,
    /// Median.
    pub median: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
}

impl Summary {
    /// Median and quartiles, the quartiles by the same exclusive method
    /// as Python's `statistics.quantiles(values, n=4)`.
    ///
    /// # Panics
    ///
    /// Panics on an empty sample.
    pub fn of(samples: Vec<f64>) -> Summary {
        assert!(!samples.is_empty(), "a summary needs samples");
        let mut s = samples.clone();
        s.sort_by(f64::total_cmp);
        let n = s.len();
        let median = if n % 2 == 1 {
            s[n / 2]
        } else {
            (s[n / 2 - 1] + s[n / 2]) / 2.0
        };
        let quartile = |i: usize| {
            if n == 1 {
                return s[0];
            }
            let m = n + 1;
            let j = (i * m / 4).clamp(1, n - 1);
            let delta = (i * m) as f64 - (j * 4) as f64;
            (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
        };
        Summary {
            median,
            q1: quartile(1),
            q3: quartile(3),
            samples,
        }
    }

    /// Interquartile distance as a share of the median.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

/// The highest whole percentile with at least ten samples beyond it
/// (nearest rank), and the sample there; the maximum when there are too
/// few samples for any percentile from the 50th up.
pub(crate) fn tail(sorted: &[f64]) -> (u32, f64) {
    let n = sorted.len();
    for p in (50..=99usize).rev() {
        let rank = (n * p).div_ceil(100);
        if rank >= 1 && n - rank >= 10 {
            return (p as u32, sorted[rank - 1]);
        }
    }
    (100, sorted[n - 1])
}

/// Peak resident set of this process (`VmHWM`), in MB.
pub(crate) fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// End-to-end metric values of one pass, in [`END_TO_END`] order except
/// `peak_rss_mb` (per process, not per pass), plus the tail percentile.
fn pass_metrics(plan: &Plan, pass: &Pass, failed: u64) -> (Vec<(&'static str, f64)>, u32) {
    let run_s = pass.runs().map(|r| r.run_ns).sum::<u64>() as f64 / 1e9;
    let cycles: u64 = pass.runs().map(|r| r.cycles).sum();
    let retired: u64 = pass.runs().map(|r| r.retired).sum();
    let mut latency_ms: Vec<f64> = pass
        .runs()
        .map(|r| (r.new_ns + r.install_ns + r.run_ns) as f64 / 1e6)
        .collect();
    latency_ms.sort_by(f64::total_cmp);
    let p50 = if latency_ms.is_empty() {
        0.0
    } else {
        Summary::of(latency_ms.clone()).median
    };
    let (tail_pct, tail_ms) = if latency_ms.is_empty() {
        (100, 0.0)
    } else {
        tail(&latency_ms)
    };
    let setup_ns = pass.gen_ns
        + pass
            .jobs
            .iter()
            .map(|j| j.gen_ns + j.runs.iter().map(|r| r.new_ns + r.install_ns).sum::<u64>())
            .sum::<u64>();
    let per_s = |n: u64| n as f64 / 1e3 / run_s.max(1e-9);
    let mut values = vec![
        ("wall_s", pass.wall_ns as f64 / 1e9),
        ("sim_kcps", per_s(cycles)),
        ("sim_kips", per_s(retired)),
        ("job_p50_ms", p50),
        ("job_tail_ms", tail_ms),
        ("setup_s", setup_ns as f64 / 1e9),
        ("failed_frac", failed as f64 / plan.runs_per_pass() as f64),
    ];
    if plan.kind == Kind::Leakage {
        let closed = leakage_points(plan, pass)
            .iter()
            .filter(|p| claims_closed(&p.gadget, &p.scheme))
            .map(|p| p.bits_per_trial)
            .fold(0.0, f64::max);
        values.push(("closed_leak_bits", closed));
    }
    (values, tail_pct)
}

/// Geo-mean overhead (%) of each defended configuration and the mean
/// absolute error against the paper's twelve, for a full Figure 7/8
/// matrix; empty for other plans.
fn model_error(plan: &Plan, pass: &Pass) -> Vec<(String, f64)> {
    let paper = match plan.kind {
        Kind::Fig7Spec => PAPER_FIG7,
        Kind::Fig8Par => PAPER_FIG8,
        Kind::Leakage => return Vec::new(),
    };
    if plan.rows != paper.len() + 1 || pass.jobs.iter().any(|j| j.runs.is_empty()) {
        return Vec::new();
    }
    let cpi = |row: usize, col: usize| {
        let r = &pass.jobs[row * plan.cols + col].runs[0];
        r.cycles as f64 / r.retired.max(1) as f64
    };
    let mut out = Vec::new();
    let mut abs_err = 0.0;
    for (i, paper_pct) in paper.iter().enumerate() {
        let row = i + 1;
        let normalized: Vec<f64> = (0..plan.cols).map(|c| cpi(row, c) / cpi(0, c)).collect();
        let pct = pl_bench::overhead_pct(pl_base::geo_mean(&normalized).expect("positive CPIs"));
        abs_err += (pct - paper_pct).abs();
        let label = plan.jobs[row * plan.cols].cfg.label();
        out.push((format!("overhead_pct.{label}"), pct));
    }
    let name = match plan.kind {
        Kind::Fig7Spec => "model.fig7_mae_pp",
        _ => "model.fig8_mae_pp",
    };
    out.insert(0, (name.to_string(), abs_err / paper.len() as f64));
    out
}

/// A job-level span of the traced run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Unique id within the traced run.
    pub id: u64,
    /// The enclosing job span, if any.
    pub parent: Option<u64>,
    /// `job`, `setup`, `run.driver`, `decode`, `run.ff`, `run.naive` or
    /// `run.nospin`.
    pub name: &'static str,
    /// Job label.
    pub job: String,
    /// Start, nanoseconds since the traced run began.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
}

/// One run of a traced job, timed five ways.
#[derive(Debug, Clone, Default)]
pub(crate) struct TracedRun {
    /// Per-layer calls, stamps and time of the driver run.
    pub layers: LayerTimes,
    /// Cost of one stamp, calibrated just before the driver run.
    pub stamp_ns: f64,
    /// Wall nanoseconds of the traced driver run.
    pub driver_ns: u64,
    /// `Machine::run` nanoseconds, default configuration.
    pub ff_ns: u64,
    /// `Machine::run` nanoseconds with `fast_forward = false`.
    pub naive_ns: u64,
    /// `Machine::run` nanoseconds with `spin_parking = false`.
    pub nospin_ns: u64,
}

/// Traces one job: the layer driver replays each run, which must match
/// the untraced reference exactly, then `Machine::run` times the run
/// three ways.
fn trace_job(
    plan: &Plan,
    job: &Job,
    kernels: &[Workload],
    reference: &JobRecord,
    origin: Instant,
) -> (Result<Vec<TracedRun>, String>, Vec<Span>) {
    let job_start = Instant::now();
    let span_at = |id: u64, parent: Option<u64>, name: &'static str, start: Instant| Span {
        id,
        parent,
        name,
        job: job.label.clone(),
        start_ns: nanos(start.duration_since(origin)),
        dur_ns: nanos(start.elapsed()),
    };
    // Span 0 is the job; its duration is filled in at the end.
    let mut spans = vec![span_at(0, None, "job", job_start)];
    let mut span = |name: &'static str, start: Instant| {
        let id = spans.len() as u64;
        spans.push(span_at(id, Some(0), name, start));
    };
    let result = catch_unwind(AssertUnwindSafe(|| -> Result<Vec<TracedRun>, String> {
        let (cfgs, workload, scenario) = match job.attack {
            None => (vec![job.cfg.clone()], kernels[job.col].clone(), None),
            Some((gadget, cores)) => {
                let sc = plan.scenario(gadget, cores);
                (
                    attack_runs(&job.cfg).to_vec(),
                    sc.workload.clone(),
                    Some(sc),
                )
            }
        };
        let mut out = Vec::new();
        for (i, cfg) in cfgs.iter().enumerate() {
            let want = reference
                .runs
                .get(i)
                .ok_or_else(|| format!("{}: no untraced reference run", job.label))?;
            let probe = |decode_run: bool| -> Option<Box<dyn CheckObserver>> {
                let sc = scenario.as_ref().filter(|_| decode_run)?;
                Some(Box::new(ProbeLog::new(sc.observer_core)))
            };
            let t = Instant::now();
            let mut driver = Driver::new(cfg, &workload)?;
            if let Some(o) = probe(i == 0) {
                driver.set_check_observer(o);
            }
            span("setup", t);
            let stamp_ns = layers::calibrate_mark_ns();
            let t = Instant::now();
            let mut clock = Clock::start();
            let res = driver.run(RUN_BUDGET, &mut clock)?;
            let mut traced = TracedRun {
                driver_ns: nanos(t.elapsed()),
                layers: clock.times,
                stamp_ns,
                ..TracedRun::default()
            };
            span("run.driver", t);
            let arch = arch_digest(
                &driver.memory_words(),
                |c, r| driver.reg(c, r),
                cfg.num_cores,
            );
            if run_digest(&res) != want.digest || arch != want.arch {
                return Err(format!(
                    "{}: layer driver diverged from Machine::run (cycles {} vs {})",
                    job.label, res.cycles, want.cycles
                ));
            }
            if let (Some(sc), Some(observer)) = (&scenario, driver.take_check_observer()) {
                let t = Instant::now();
                let leak = decode_probes(sc, observer, res.cycles);
                span("decode", t);
                if Some(leak) != reference.leak {
                    return Err(format!("{}: traced decode diverged", job.label));
                }
            }
            // (span, keep fast_forward, keep spin_parking)
            let variants = [
                ("run.ff", true, true),
                ("run.naive", false, true),
                ("run.nospin", true, false),
            ];
            let mut run_ns = [0; 3];
            for (k, (name, ff, spin)) in variants.into_iter().enumerate() {
                let mut c = cfg.clone();
                c.fast_forward &= ff;
                c.spin_parking &= spin;
                let t = Instant::now();
                let (rec, _) = timed_run(&c, &workload, probe(i == 0))?;
                span(name, t);
                if rec.digest != want.digest {
                    return Err(format!(
                        "{}: {name} diverged from the default run",
                        job.label
                    ));
                }
                run_ns[k] = rec.run_ns;
            }
            [traced.ff_ns, traced.naive_ns, traced.nospin_ns] = run_ns;
            out.push(traced);
        }
        Ok(out)
    }));
    let result = match result {
        Ok(r) => r,
        Err(p) => Err(format!("{}: panicked: {}", job.label, panic_message(p))),
    };
    spans[0].dur_ns = nanos(job_start.elapsed());
    (result, spans)
}

/// A workload's measured report.
#[derive(Debug, Clone)]
pub struct WorkloadReport {
    /// The workload.
    pub kind: Kind,
    /// Smoke size.
    pub smoke: bool,
    /// Seed of the leakage secrets.
    pub seed: u64,
    /// Sweep threads.
    pub threads: usize,
    /// Jobs run and discarded before timing.
    pub warmup_jobs: usize,
    /// Timed passes.
    pub passes: usize,
    /// Simulations attempted, traced runs included.
    pub attempted: u64,
    /// Simulations that failed: panicked, returned an error, failed an
    /// in-run check, or (traced) diverged from `Machine::run`.
    pub failed: u64,
    /// Every correctness problem found.
    pub problems: Vec<String>,
    /// FNV-1a over every run's cycles, retired counts and statistics;
    /// identical for every pass.
    pub output_digest: u64,
    /// Percentile `job_tail_ms` reports.
    pub tail_pct: u32,
    /// End-to-end metrics, in [`END_TO_END`] order.
    pub metrics: Vec<(Metric, Summary)>,
    /// Diagnostics, never gated: model error against the paper.
    pub diag: Vec<(String, f64)>,
    /// Per-layer metrics `(name, unit, value)` of a traced run.
    pub layers: Vec<(String, &'static str, f64)>,
    /// Job-level spans of a traced run.
    pub spans: Vec<Span>,
    /// The regenerated `results/leakage.json` document (leakage only).
    pub leakage_json: Option<String>,
}

impl WorkloadReport {
    /// No failed run and no problem.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }
}

/// How many passes a timed run makes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Budget {
    /// One discarded warm-up pass, then this many timed passes.
    Reps(usize),
    /// A discarded warm-up of the Unsafe row, then timed passes while
    /// another fits in this many seconds (at least one).
    Seconds(f64),
}

/// Measures one workload. A timed run makes the passes `budget` asks
/// for; a traced run makes one untraced reference pass, then traces the
/// [`Plan::traced_jobs`] diagonal.
pub fn measure(plan: &Plan, threads: usize, budget: Budget, trace: bool) -> WorkloadReport {
    // A first pass runs slower while the allocator's arenas fault in and
    // the clock settles. Under a time budget, or before the traced
    // run's single reference pass, the Unsafe row alone (one job per
    // kernel or scenario, about a second) warms up instead of a pass.
    let warmup: Vec<Job> = match (trace, budget) {
        (false, Budget::Reps(_)) => plan.jobs.clone(),
        _ => plan.jobs.iter().filter(|j| j.row == 0).cloned().collect(),
    };
    let kernels = plan.generate();
    pl_bench::sweep::par_map(threads, &warmup, |_, job| run_job(plan, job, &kernels));
    let start = Instant::now();
    let mut passes = vec![run_pass(plan, threads)];
    if !trace {
        match budget {
            Budget::Reps(n) => {
                while passes.len() < n {
                    passes.push(run_pass(plan, threads));
                }
            }
            Budget::Seconds(s) => {
                // Start another pass only if one as long as the last fits.
                let fits = |p: &[Pass]| {
                    let last = p.last().map_or(0, |p| p.wall_ns) as f64 / 1e9;
                    start.elapsed().as_secs_f64() + last <= s
                };
                while fits(&passes) {
                    passes.push(run_pass(plan, threads));
                }
            }
        }
    }

    let mut failed = 0;
    let mut problems: Vec<String> = Vec::new();
    let mut samples: Vec<Vec<(&'static str, f64)>> = Vec::new();
    let mut tail_pct = 100;
    for pass in &passes {
        let (f, p) = check_pass(plan, pass);
        failed += f;
        for problem in p {
            if !problems.contains(&problem) {
                problems.push(problem);
            }
        }
        let (values, pct) = pass_metrics(plan, pass, f);
        samples.push(values);
        tail_pct = pct;
    }
    let output_digest = passes[0].output_digest();
    if passes.iter().any(|p| p.output_digest() != output_digest) {
        problems.push("output digest differs between passes".to_string());
    }
    let mut attempted = plan.runs_per_pass() * passes.len() as u64;

    let reference = passes.last().expect("at least one pass");
    let (mut layers, mut spans) = (Vec::new(), Vec::new());
    if trace {
        // One job at a time, so no sweep thread on the sibling CPU skews
        // the per-job timings.
        let traced = plan.traced_jobs();
        let origin = Instant::now();
        let mut runs = Vec::new();
        for &j in &traced {
            let (result, job_spans) =
                trace_job(plan, &plan.jobs[j], &kernels, &reference.jobs[j], origin);
            attempted += plan.jobs[j].runs() as u64;
            let base = spans.len() as u64;
            spans.extend(job_spans.into_iter().map(|mut s| {
                s.id += base;
                s.parent = s.parent.map(|p| p + base);
                s
            }));
            match result {
                Ok(r) => runs.extend(r),
                Err(e) => {
                    failed += plan.jobs[j].runs() as u64;
                    problems.push(e);
                }
            }
        }
        layers = layer_metrics(plan, reference, &runs, threads);
    }

    let mut metrics = Vec::new();
    for m in END_TO_END {
        let values: Vec<f64> = if m.name == "peak_rss_mb" {
            vec![peak_rss_mb()]
        } else {
            samples
                .iter()
                .filter_map(|s| s.iter().find(|(n, _)| *n == m.name).map(|&(_, v)| v))
                .collect()
        };
        if !values.is_empty() {
            metrics.push((m, Summary::of(values)));
        }
    }
    WorkloadReport {
        kind: plan.kind,
        smoke: plan.smoke,
        seed: plan.seed,
        threads,
        warmup_jobs: warmup.len(),
        passes: passes.len(),
        attempted,
        failed,
        problems,
        output_digest,
        tail_pct,
        metrics,
        diag: model_error(plan, reference),
        layers,
        spans,
        leakage_json: (plan.kind == Kind::Leakage)
            .then(|| leakage_json(&plan.attack, &leakage_points(plan, reference))),
    }
}

/// The scheme key of `secure.<scheme>.*`.
fn scheme_key(cfg: &MachineConfig) -> &'static str {
    match cfg.defense {
        DefenseScheme::Unsafe => "unsafe",
        DefenseScheme::Fence => "fence",
        DefenseScheme::Dom => "dom",
        DefenseScheme::Stt => "stt",
        DefenseScheme::Invisible => "invisible",
    }
}

/// The extension key of `pin.<ext>.busy_s`; `None` for Unsafe.
fn extension_key(cfg: &MachineConfig) -> Option<&'static str> {
    if cfg.defense == DefenseScheme::Unsafe {
        return None;
    }
    Some(match (cfg.pinned_loads.mode, cfg.threat_model) {
        (PinMode::Off, ThreatModel::Comprehensive) => "comp",
        (PinMode::Off, ThreatModel::Spectre) => "spectre",
        (PinMode::Late, _) => "lp",
        (PinMode::Early, _) => "ep",
    })
}

/// Per-layer metrics of a traced run: layer self-times from the traced
/// diagonal (each stamp's calibrated cost subtracted), run-loop ratios
/// from its three extra timings, and busy time, counters and set-up
/// breakdown from the untraced reference pass.
fn layer_metrics(
    plan: &Plan,
    pass: &Pass,
    traced: &[TracedRun],
    threads: usize,
) -> Vec<(String, &'static str, f64)> {
    let mut out: Vec<(String, &'static str, f64)> = Vec::new();
    let mut put = |name: String, unit: &'static str, v: f64| out.push((name, unit, v));
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };

    let mut times = LayerTimes::default();
    let mut stamp_cost = [0.0f64; 10];
    for r in traced {
        times.add(&r.layers);
        for (cost, &stamps) in stamp_cost.iter_mut().zip(&r.layers.stamps) {
            *cost += stamps as f64 * r.stamp_ns;
        }
    }
    let mut stamp_ns: Vec<f64> = traced.iter().map(|r| r.stamp_ns).collect();
    stamp_ns.sort_by(f64::total_cmp);
    let sum = |f: fn(&TracedRun) -> u64| traced.iter().map(f).sum::<u64>() as f64;
    let (driver, ff, naive, nospin) = (
        sum(|r| r.driver_ns),
        sum(|r| r.ff_ns),
        sum(|r| r.naive_ns),
        sum(|r| r.nospin_ns),
    );
    let mut self_total = 0.0;
    for layer in Layer::ALL {
        let i = layer as usize;
        let calls = times.calls[i];
        let self_ns = (times.ns[i] as f64 - stamp_cost[i]).max(0.0);
        self_total += self_ns;
        put(format!("{}.calls", layer.name()), "count", calls as f64);
        put(format!("{}.self_s", layer.name()), "s", self_ns / 1e9);
        put(
            format!("{}.ns_per_call", layer.name()),
            "ns",
            ratio(self_ns, calls as f64),
        );
    }
    put("machine.naive_over_ff".into(), "ratio", ratio(naive, ff));
    put("machine.nospin_over_ff".into(), "ratio", ratio(nospin, ff));
    put("trace.runs".into(), "count", traced.len() as f64);
    put(
        "trace.span_cost_ns".into(),
        "ns",
        stamp_ns.get(stamp_ns.len() / 2).copied().unwrap_or(0.0),
    );
    put("trace.overhead_x".into(), "ratio", ratio(driver, naive));
    put("trace.coverage".into(), "ratio", ratio(self_total, naive));

    let runs: Vec<(&Job, &RunRecord)> = plan
        .jobs
        .iter()
        .zip(&pass.jobs)
        .flat_map(|(job, rec)| rec.runs.iter().map(move |r| (job, r)))
        .collect();
    let busy_s = |keep: &dyn Fn(&Job) -> bool| {
        runs.iter()
            .filter(|(j, _)| keep(j))
            .map(|(_, r)| r.run_ns)
            .sum::<u64>() as f64
            / 1e9
    };
    put("machine.run.busy_s".into(), "s", busy_s(&|_| true));
    for scheme in ["unsafe", "fence", "dom", "stt"] {
        let keep = |j: &Job| scheme_key(&j.cfg) == scheme;
        let busy = busy_s(&keep);
        let cycles: u64 = runs
            .iter()
            .filter(|(j, _)| keep(j))
            .map(|(_, r)| r.cycles)
            .sum();
        put(format!("secure.{scheme}.busy_s"), "s", busy);
        put(
            format!("secure.{scheme}.kcps"),
            "kc/s",
            ratio(cycles as f64 / 1e3, busy),
        );
    }
    for ext in ["comp", "lp", "ep", "spectre"] {
        let busy = busy_s(&|j: &Job| extension_key(&j.cfg) == Some(ext));
        put(format!("pin.{ext}.busy_s"), "s", busy);
    }

    let mut sums = [0u64; COUNTERS.len()];
    let (mut retired, mut core_cycles, mut spin) = (0u64, 0u64, [0u64; 3]);
    for (_, r) in &runs {
        for (total, v) in sums.iter_mut().zip(r.counters) {
            *total += v;
        }
        retired += r.retired;
        core_cycles += r.cycles * r.cores as u64;
        for (total, v) in spin.iter_mut().zip(r.spin) {
            *total += v;
        }
    }
    let count = |name: &str| {
        let i = COUNTERS.iter().position(|&n| n == name);
        sums[i.expect("a summed counter")] as f64
    };
    let retired = retired as f64;
    put("sim.retired".into(), "count", retired);
    put(
        "core.useful_frac".into(),
        "ratio",
        ratio(retired, retired + count("squashed_insts")),
    );
    put("core.stall_taint".into(), "count", count("stall.taint"));
    put("pin.pins".into(), "count", count("pin.pins"));
    put("pin.ep_denied".into(), "count", count("pin.ep_denied"));
    let requests = count("llc.gets") + count("llc.getx") + count("llc.getx_star");
    put("dir.requests".into(), "count", requests);
    put("dir.nacks".into(), "count", count("llc.nacks"));
    put("dir.aborts".into(), "count", count("llc.aborts"));
    put("l1.misses".into(), "count", count("l1.misses"));
    put(
        "l1.hit_frac".into(),
        "ratio",
        ratio(count("l1.hits"), count("l1.hits") + count("l1.misses")),
    );
    put("noc.messages".into(), "count", count("noc.messages"));
    put("spin.opens".into(), "count", spin[0] as f64);
    put("spin.parks".into(), "count", spin[1] as f64);
    put("spin.skipped_cycles".into(), "count", spin[2] as f64);
    put(
        "spin.park_frac".into(),
        "ratio",
        ratio(spin[2] as f64, core_cycles as f64),
    );

    let jobs = &pass.jobs;
    let total = |f: fn(&JobRecord) -> u64| jobs.iter().map(f).sum::<u64>() as f64 / 1e9;
    put("attack.decode_s".into(), "s", total(|j| j.decode_ns));
    put(
        "sweep.idle_frac".into(),
        "ratio",
        1.0 - ratio(
            total(|j| j.worker_ns),
            threads as f64 * pass.sweep_ns as f64 / 1e9,
        ),
    );
    put(
        "setup.gen_s".into(),
        "s",
        pass.gen_ns as f64 / 1e9 + total(|j| j.gen_ns),
    );
    put(
        "setup.machine_new_s".into(),
        "s",
        total(|j| j.runs.iter().map(|r| r.new_ns).sum()),
    );
    put(
        "setup.install_s".into(),
        "s",
        total(|j| j.runs.iter().map(|r| r.install_ns).sum()),
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_pythons_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let s = Summary::of((1..=10).map(f64::from).collect());
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        let one = Summary::of(vec![3.0]);
        assert_eq!((one.q1, one.median, one.q3), (3.0, 3.0, 3.0));
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        let pct = |n: usize| tail(&(0..n).map(|i| i as f64).collect::<Vec<_>>()).0;
        assert_eq!(pct(208), 95);
        assert_eq!(pct(169), 94);
        assert_eq!(pct(96), 89);
        assert_eq!(pct(5), 100);
    }

    #[test]
    fn traced_diagonal_covers_every_row_and_column() {
        for kind in Kind::ALL {
            let plan = Plan::new(kind, false, DEFAULT_SEED);
            let picked: Vec<&Job> = plan.traced_jobs().iter().map(|&j| &plan.jobs[j]).collect();
            assert_eq!(picked.len(), plan.rows.max(plan.cols), "{}", kind.name());
            for row in 0..plan.rows {
                assert!(picked.iter().any(|j| j.row == row), "{}", kind.name());
            }
            for col in 0..plan.cols {
                assert!(picked.iter().any(|j| j.col == col), "{}", kind.name());
            }
        }
    }

    #[test]
    fn a_job_that_mismatches_its_reference_is_refused() {
        let plan = Plan::new(Kind::Fig7Spec, true, DEFAULT_SEED);
        let kernels = plan.generate();
        let job = &plan.jobs[0];
        let mut reference = run_job(&plan, job, &kernels);
        let origin = Instant::now();
        let (ok, spans) = trace_job(&plan, job, &kernels, &reference, origin);
        assert_eq!(ok.expect("the driver matches").len(), 1);
        assert_eq!(spans[0].name, "job");
        assert!(spans[1..].iter().all(|s| s.parent == Some(0)));
        reference.runs[0].digest ^= 1;
        let (refused, _) = trace_job(&plan, job, &kernels, &reference, origin);
        assert!(refused.unwrap_err().contains("diverged"));
    }
}
