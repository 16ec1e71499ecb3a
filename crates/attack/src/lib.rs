//! Empirical side-channel leakage measurement for every defense
//! scheme.
//!
//! Where pl-verify *asserts* security (invariants, differential
//! bit-identity), pl-attack *measures* it: each [`Gadget`] from
//! `pl_workloads::attack` transmits a seeded one-bit secret per round
//! through a microarchitectural channel, an observer core records its
//! own retired-load latencies through the zero-cost
//! [`CheckEvent::LoadRetired`] probe hook, and the harness decodes the
//! secret back out. Leakage is scored as **bits extracted per trial**:
//! the empirical mutual information between the ground-truth secret
//! bits and the decoded bits over the scored rounds. A channel the
//! scheme closes decodes at chance and scores ~0 bits; an open channel
//! scores up to 1 bit per round.
//!
//! The observer never sees simulator internals — only the latency and
//! timestamp of its *own architecturally retired* loads, exactly the
//! signal a wall-clock attacker has. Thresholds are calibrated at
//! runtime from measured hit/miss latencies (oracle gadgets) or from a
//! known-secret calibration prefix (interference gadgets), never from
//! constants baked into the decoder.
//!
//! The [`leakage_sweep`] harness fans gadget x scheme x cores jobs
//! through the parallel sweep runner and pairs every decode run with a
//! verify-off companion run for the slowdown axis of the
//! leakage-vs-slowdown scatter.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::HashMap;

use pl_base::VerifyConfig;
use pl_base::{CheckEvent, CheckObserver, CoreId, Cycle, MachineConfig, MachineSnapshot};
use pl_machine::Machine;
use pl_workloads::attack::{attack_scenario, AttackScenario, Gadget};

/// Cycle budget for one scenario run; generous — full runs finish in
/// well under a million cycles.
const RUN_BUDGET: u64 = 200_000_000;
/// Stride between lines mapping to the same LLC set.
const LLC_STRIDE: u64 = 1 << 17;

/// One retired load on the observer core.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProbeRecord {
    /// ROB sequence number (monotonic per core).
    pub seq: u64,
    /// Word-aligned load address.
    pub addr: u64,
    /// Architecturally committed value.
    pub value: u64,
    /// Cycles from dispatch to value bind — the timing signal.
    pub latency: u64,
    /// Retire cycle.
    pub at: u64,
}

/// A [`CheckObserver`] that keeps only the observer core's retired
/// loads, in retire order. This is the entire attacker measurement
/// apparatus: latencies and timestamps of its own committed loads.
#[derive(Debug, Default)]
pub struct ProbeLog {
    core: CoreId,
    /// Retired observer-core loads in commit order.
    pub records: Vec<ProbeRecord>,
}

impl ProbeLog {
    /// A log capturing loads retired by `core`.
    pub fn new(core: CoreId) -> ProbeLog {
        ProbeLog {
            core,
            records: Vec::new(),
        }
    }
}

impl CheckObserver for ProbeLog {
    fn on_events(&mut self, now: Cycle, events: &[CheckEvent]) {
        for ev in events {
            if let CheckEvent::LoadRetired {
                core,
                seq,
                addr,
                value,
                latency,
            } = ev
            {
                if *core == self.core {
                    self.records.push(ProbeRecord {
                        seq: *seq,
                        addr: addr.raw(),
                        value: *value,
                        latency: *latency,
                        at: now.raw(),
                    });
                }
            }
        }
    }

    fn on_snapshot(&mut self, _now: Cycle, _snapshot: &MachineSnapshot) {}

    fn on_run_end(&mut self, _now: Cycle) {}

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

/// Decode + scoring summary for one scenario run under one scheme.
#[derive(Debug, Clone)]
pub struct DecodeOutcome {
    /// Decoded bit per round (calibration prefix included).
    pub predictions: Vec<u8>,
    /// 2x2 confusion matrix over the scored rounds:
    /// `confusion[secret][prediction]`.
    pub confusion: [[u64; 2]; 2],
    /// Empirical mutual information of the channel, bits per trial.
    pub bits_per_trial: f64,
    /// Fraction of scored rounds decoded correctly.
    pub accuracy: f64,
    /// Cycles the decode run took.
    pub cycles: u64,
}

/// Empirical mutual information (bits) of a 2x2 confusion matrix
/// `c[secret][prediction]`.
///
/// Exactly zero whenever the decoder's output is constant or
/// independent of the secret in-sample; up to 1.0 for a clean channel
/// with balanced secrets.
pub fn mutual_information_bits(c: &[[u64; 2]; 2]) -> f64 {
    let n: u64 = c.iter().flatten().sum();
    if n == 0 {
        return 0.0;
    }
    let nf = n as f64;
    let row = [c[0][0] + c[0][1], c[1][0] + c[1][1]];
    let col = [c[0][0] + c[1][0], c[1][1] + c[0][1]];
    let mut mi = 0.0;
    for s in 0..2 {
        for p in 0..2 {
            if c[s][p] == 0 {
                continue;
            }
            let joint = c[s][p] as f64;
            mi += joint / nf * ((joint * nf) / (row[s] as f64 * col[p] as f64)).log2();
        }
    }
    mi.max(0.0)
}

fn median(mut v: Vec<u64>) -> u64 {
    assert!(!v.is_empty(), "median of empty sample");
    v.sort_unstable();
    v[v.len() / 2]
}

/// Groups records by address, preserving retire order within a group.
fn by_addr(log: &[ProbeRecord]) -> HashMap<u64, Vec<ProbeRecord>> {
    let mut m: HashMap<u64, Vec<ProbeRecord>> = HashMap::new();
    for r in log {
        m.entry(r.addr).or_default().push(*r);
    }
    m
}

fn occurrences(m: &HashMap<u64, Vec<ProbeRecord>>, addr: u64, want: usize) -> &[ProbeRecord] {
    let v = m
        .get(&addr)
        .unwrap_or_else(|| panic!("no retired loads at {addr:#x}"));
    assert!(
        v.len() >= want,
        "expected {want} retired loads at {addr:#x}, saw {}",
        v.len()
    );
    &v[..want]
}

/// Decodes the per-round secret from the observer's probe log.
///
/// Oracle gadgets (v1/v4) threshold each round's two oracle-probe
/// latencies against a hit/miss midpoint measured the same run;
/// interference gadgets threshold a per-round contention metric
/// against the midpoint of the known-secret calibration prefix.
pub fn decode(scenario: &AttackScenario, log: &[ProbeRecord]) -> Vec<u8> {
    let total = scenario.total_rounds();
    let m = by_addr(log);
    match scenario.gadget {
        Gadget::SpectreV1 | Gadget::SpectreV4 => {
            // Calibration: second of each back-to-back pair is a sure
            // L1 hit; each round's fresh line is a sure miss.
            let hits: Vec<u64> = occurrences(&m, scenario.addrs.cal_hit, 2 * total)
                .chunks(2)
                .map(|pair| pair[1].latency)
                .collect();
            let misses: Vec<u64> = (0..total)
                .map(|r| {
                    let a = scenario.addrs.cal_miss_base + (r as u64 + 1) * LLC_STRIDE;
                    occurrences(&m, a, 1)[0].latency
                })
                .collect();
            // Quarter-point threshold, biased toward the hit side: a
            // warm probe is an LLC or cache-to-cache forward hit —
            // slower than the L1-hot calibration hit, far below a
            // memory miss.
            let (h, ms) = (median(hits), median(misses));
            let thr = h + ms.saturating_sub(h) / 4;
            (0..total)
                .map(|r| {
                    let (a0, a1) = scenario.oracle_pair(r);
                    let l0 = occurrences(&m, a0, 1)[0].latency;
                    let l1 = occurrences(&m, a1, 1)[0].latency;
                    u8::from(l1 < thr.max(1) && l1 <= l0)
                })
                .collect()
        }
        Gadget::InterferenceMshr => {
            let metric: Vec<u64> = (0..total)
                .map(|r| {
                    scenario
                        .probe_chain(r)
                        .iter()
                        .map(|&a| occurrences(&m, a, 1)[0].latency)
                        .sum()
                })
                .collect();
            threshold_decode(scenario, &metric)
        }
        Gadget::InterferenceIssue => {
            // Attack-tail duration: training-done to round-done. The
            // tail is one architectural cold-line reload, so the gap is
            // one memory round trip unless the shadow burst's retained
            // fills parked the reload behind a full MSHR file.
            let tdone = m
                .get(&scenario.addrs.flag_tdone)
                .expect("observer spun on FLAG_TDONE");
            let done = m
                .get(&scenario.addrs.flag_done)
                .expect("observer spun on FLAG_DONE");
            let arrival = |probes: &[ProbeRecord], r: usize| {
                probes
                    .iter()
                    .find(|p| p.value == r as u64 + 1)
                    .expect("round completed")
                    .at
            };
            let metric: Vec<u64> = (0..total)
                .map(|r| arrival(done, r).saturating_sub(arrival(tdone, r)))
                .collect();
            threshold_decode(scenario, &metric)
        }
    }
}

/// Thresholds `metric` at the midpoint of the calibration prefix's
/// per-secret means (direction inferred from the prefix too).
fn threshold_decode(scenario: &AttackScenario, metric: &[u64]) -> Vec<u8> {
    assert!(scenario.cal_rounds >= 2, "calibration prefix required");
    let mut sum = [0f64; 2];
    let mut cnt = [0f64; 2];
    for (&m, &secret) in metric
        .iter()
        .zip(&scenario.secrets)
        .take(scenario.cal_rounds)
    {
        let s = secret as usize;
        sum[s] += m as f64;
        cnt[s] += 1.0;
    }
    let mean0 = sum[0] / cnt[0].max(1.0);
    let mean1 = sum[1] / cnt[1].max(1.0);
    let thr = (mean0 + mean1) / 2.0;
    let one_is_slower = mean1 >= mean0;
    metric
        .iter()
        .map(|&v| u8::from(((v as f64) > thr) == one_is_slower))
        .collect()
}

/// Scores predictions against the scenario's ground truth over the
/// scored (post-calibration) rounds.
pub fn score(scenario: &AttackScenario, predictions: Vec<u8>, cycles: u64) -> DecodeOutcome {
    let mut confusion = [[0u64; 2]; 2];
    for r in scenario.cal_rounds..scenario.total_rounds() {
        confusion[scenario.secrets[r] as usize][predictions[r] as usize] += 1;
    }
    let n = (scenario.rounds as f64).max(1.0);
    let accuracy = (confusion[0][0] + confusion[1][1]) as f64 / n;
    DecodeOutcome {
        predictions,
        confusion,
        bits_per_trial: mutual_information_bits(&confusion),
        accuracy,
        cycles,
    }
}

/// Prepares `cfg` for an attack run: one LLC slice so prime+probe set
/// arithmetic is exact.
pub fn attack_config(cfg: &MachineConfig) -> MachineConfig {
    let mut c = cfg.clone();
    c.mem.llc_slices = 1;
    c.validate().expect("attack config validates");
    c
}

/// Runs `scenario` under `cfg` with the probe hook on and decodes the
/// observer's log. `cfg` is adjusted via [`attack_config`].
pub fn run_decode(cfg: &MachineConfig, scenario: &AttackScenario) -> DecodeOutcome {
    let mut dcfg = attack_config(cfg);
    dcfg.verify = VerifyConfig::enabled();
    let mut m = Machine::new(&dcfg).expect("machine builds");
    scenario.workload.install(&mut m);
    m.set_check_observer(Box::new(ProbeLog::new(scenario.observer_core)));
    let res = m
        .run(RUN_BUDGET)
        .unwrap_or_else(|e| panic!("{} under {}: {e}", scenario.workload.name, dcfg.label()));
    let mut obs = m.take_check_observer().expect("observer still attached");
    let log = obs
        .as_any_mut()
        .downcast_mut::<ProbeLog>()
        .expect("observer is a ProbeLog");
    let predictions = decode(scenario, &log.records);
    score(scenario, predictions, res.cycles)
}

/// One (gadget, scheme, cores) point of the leakage-vs-slowdown
/// scatter.
#[derive(Debug, Clone)]
pub struct LeakagePoint {
    /// Gadget short name.
    pub gadget: String,
    /// Scheme label (`MachineConfig::label`).
    pub scheme: String,
    /// Core count of the run.
    pub cores: usize,
    /// Scored rounds.
    pub rounds: usize,
    /// Bits extracted per trial (empirical mutual information).
    pub bits_per_trial: f64,
    /// Decode accuracy over scored rounds.
    pub accuracy: f64,
    /// Cycles of the verify-off companion run.
    pub cycles: u64,
    /// Cycles per retired instruction of the companion run.
    pub cpi: f64,
    /// Companion cycles normalized to the Unsafe scheme for the same
    /// gadget and core count (the fixed round count makes this the
    /// per-trial slowdown). `None` when Unsafe was filtered out.
    pub norm_cpi: Option<f64>,
    /// Whether the decode run and the verify-off companion run took
    /// bit-identical cycle counts (the probe hook is timing-neutral).
    pub timing_match: bool,
}

/// Sweep parameters for [`leakage_sweep`].
#[derive(Debug, Clone)]
pub struct SweepOptions {
    /// Seed for secrets and training-count tables.
    pub seed: u64,
    /// Core counts to sweep (>= 2 each).
    pub cores: Vec<usize>,
    /// Known-secret calibration rounds per run.
    pub cal_rounds: usize,
    /// Scored rounds per run.
    pub rounds: usize,
    /// Gadgets to run.
    pub gadgets: Vec<Gadget>,
    /// Restrict to one scheme label (exact match) when set.
    pub scheme_filter: Option<String>,
    /// Worker threads for the sweep.
    pub threads: usize,
}

impl SweepOptions {
    /// Full sweep: 96 scored rounds, 2 and 4 cores.
    pub fn full(seed: u64) -> SweepOptions {
        SweepOptions {
            seed,
            cores: vec![2, 4],
            cal_rounds: 24,
            rounds: 96,
            gadgets: Gadget::all().to_vec(),
            scheme_filter: None,
            threads: pl_bench::sweep::default_threads(),
        }
    }

    /// Smoke sweep: 24 scored rounds, 2 cores.
    pub fn smoke(seed: u64) -> SweepOptions {
        SweepOptions {
            cores: vec![2],
            cal_rounds: 8,
            rounds: 24,
            ..SweepOptions::full(seed)
        }
    }
}

/// Runs the gadget x scheme x cores sweep and returns points in
/// canonical (gadget, cores, scheme) order. Deterministic for a fixed
/// seed, independent of `threads`.
pub fn leakage_sweep(opts: &SweepOptions) -> Vec<LeakagePoint> {
    struct Job {
        cfg: MachineConfig,
        scheme: String,
        gadget: Gadget,
        cores: usize,
    }
    let mut jobs: Vec<Job> = Vec::new();
    for &gadget in &opts.gadgets {
        for &cores in &opts.cores {
            // The first six configs are the schemes; the trailing two
            // are pl-verify's calendar-off reference twins.
            for cfg in pl_verify::scheme_configs(cores).into_iter().take(6) {
                let scheme = cfg.label();
                if opts.scheme_filter.as_ref().is_some_and(|f| *f != scheme) {
                    continue;
                }
                jobs.push(Job {
                    cfg,
                    scheme,
                    gadget,
                    cores,
                });
            }
        }
    }
    let raw = pl_bench::sweep::par_map(opts.threads.max(1), &jobs, |_, job| {
        let sc = attack_scenario(
            job.gadget,
            job.cores,
            opts.cal_rounds,
            opts.rounds,
            opts.seed,
        );
        let outcome = run_decode(&job.cfg, &sc);
        let companion = pl_bench::run_masked(&attack_config(&job.cfg), None, &sc.workload);
        let retired: u64 = companion.total_retired();
        LeakagePoint {
            gadget: job.gadget.name().to_string(),
            scheme: job.scheme.clone(),
            cores: job.cores,
            rounds: opts.rounds,
            bits_per_trial: outcome.bits_per_trial,
            accuracy: outcome.accuracy,
            cycles: companion.cycles,
            cpi: companion.cycles as f64 / retired.max(1) as f64,
            norm_cpi: None,
            timing_match: outcome.cycles == companion.cycles,
        }
    });
    // Normalize the slowdown axis to Unsafe per (gadget, cores).
    let mut points = raw;
    let baselines: HashMap<(String, usize), u64> = points
        .iter()
        .filter(|p| p.scheme == "Unsafe")
        .map(|p| ((p.gadget.clone(), p.cores), p.cycles))
        .collect();
    for p in &mut points {
        p.norm_cpi = baselines
            .get(&(p.gadget.clone(), p.cores))
            .map(|&b| p.cycles as f64 / b.max(1) as f64);
    }
    points
}

/// Renders the canonical `results/leakage.json` document.
pub fn leakage_json(opts: &SweepOptions, points: &[LeakagePoint]) -> String {
    let mut out = String::from("{\n  \"schema\": 1,\n");
    out.push_str(&format!("  \"seed\": {},\n", opts.seed));
    out.push_str(&format!(
        "  \"cal_rounds\": {},\n  \"rounds\": {},\n  \"points\": [\n",
        opts.cal_rounds, opts.rounds
    ));
    for (i, p) in points.iter().enumerate() {
        let norm = p.norm_cpi.map_or("null".to_string(), |v| format!("{v:.4}"));
        out.push_str(&format!(
            "    {{\"gadget\": \"{}\", \"scheme\": \"{}\", \"cores\": {}, \"rounds\": {}, \
             \"bits_per_trial\": {:.4}, \"accuracy\": {:.4}, \"cycles\": {}, \
             \"cpi\": {:.4}, \"norm_cpi\": {}, \"timing_match\": {}}}{}\n",
            p.gadget,
            p.scheme,
            p.cores,
            p.rounds,
            p.bits_per_trial,
            p.accuracy,
            p.cycles,
            p.cpi,
            norm,
            p.timing_match,
            if i + 1 == points.len() { "" } else { "," }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mutual_information_of_clean_channel_is_one_bit() {
        assert!((mutual_information_bits(&[[10, 0], [0, 10]]) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn mutual_information_of_constant_decoder_is_zero() {
        assert_eq!(mutual_information_bits(&[[10, 0], [10, 0]]), 0.0);
        assert_eq!(mutual_information_bits(&[[0, 10], [0, 10]]), 0.0);
    }

    #[test]
    fn mutual_information_of_independent_noise_is_zero() {
        assert!(mutual_information_bits(&[[5, 5], [5, 5]]) < 1e-12);
    }

    #[test]
    fn mutual_information_of_inverted_channel_is_one_bit() {
        // MI is symmetric under relabeling: a perfectly wrong decoder
        // still extracts the full bit.
        assert!((mutual_information_bits(&[[0, 10], [10, 0]]) - 1.0).abs() < 1e-12);
    }
}
