//! Shared harness code for the figure/table reproduction binaries.
//!
//! Each binary under `src/bin/` regenerates one artifact from the paper's
//! evaluation (see `DESIGN.md` for the index). This library provides the
//! common machinery: building the configuration matrix of Table 3,
//! fanning the config×workload matrix out across OS threads
//! ([`sweep::par_map`]), caching the Unsafe baseline per workload
//! ([`BaselineCache`]), and printing aligned tables.
//!
//! Every simulation is deterministic given its configuration, so sweep
//! output is bit-identical for any thread count; `--threads 1` (or
//! `PL_SWEEP_THREADS=1`) is the reference serial path.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod serve;
pub mod sweep;
pub mod timing;

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use pl_base::{geo_mean, DefenseScheme, MachineConfig, PinMode, PinnedLoadsConfig, ThreatModel};
use pl_machine::{Machine, RunResult};
use pl_secure::VpMask;
use pl_workloads::{Scale, Workload};

/// Cycle budget per run; generous because defended configurations can be
/// several times slower than Unsafe.
pub const RUN_BUDGET: u64 = 2_000_000_000;

/// The Table 3 extension matrix for one defense scheme: `Comp`, `LP`,
/// `EP`, `Spectre`, keeping only the configurations
/// [`MachineConfig::validate`] accepts. Pinning cannot be combined with
/// invisible speculation, so [`DefenseScheme::Invisible`] yields `Comp`
/// and `Spectre` only.
///
/// # Examples
///
/// ```
/// use pl_base::{DefenseScheme, MachineConfig};
/// use pl_bench::extension_matrix;
/// let base = MachineConfig::default_single_core();
/// let labels = |s| -> Vec<&str> { extension_matrix(&base, s).iter().map(|(l, _)| *l).collect() };
/// assert_eq!(labels(DefenseScheme::Dom), ["Comp", "LP", "EP", "Spectre"]);
/// assert_eq!(labels(DefenseScheme::Invisible), ["Comp", "Spectre"]);
/// ```
pub fn extension_matrix(
    base: &MachineConfig,
    scheme: DefenseScheme,
) -> Vec<(&'static str, MachineConfig)> {
    let mut comp = base.clone();
    comp.defense = scheme;
    comp.threat_model = ThreatModel::Comprehensive;
    comp.pinned_loads = PinnedLoadsConfig::with_mode(PinMode::Off);

    let mut lp = comp.clone();
    lp.pinned_loads = PinnedLoadsConfig::with_mode(PinMode::Late);

    let mut ep = comp.clone();
    ep.pinned_loads = PinnedLoadsConfig::with_mode(PinMode::Early);

    let mut spectre = comp.clone();
    spectre.threat_model = ThreatModel::Spectre;

    vec![("Comp", comp), ("LP", lp), ("EP", ep), ("Spectre", spectre)]
        .into_iter()
        .filter(|(_, cfg)| cfg.validate().is_ok())
        .collect()
}

/// The unprotected baseline all CPIs are normalized to.
pub fn unsafe_config(base: &MachineConfig) -> MachineConfig {
    let mut cfg = base.clone();
    cfg.defense = DefenseScheme::Unsafe;
    cfg.pinned_loads = PinnedLoadsConfig::with_mode(PinMode::Off);
    cfg
}

/// Runs `workload` on a fresh machine with `cfg`.
///
/// # Panics
///
/// Panics with a diagnostic if the run deadlocks or exceeds the budget —
/// both indicate a harness bug worth failing loudly on.
pub fn run_workload(cfg: &MachineConfig, workload: &Workload) -> RunResult {
    run_masked(cfg, None, workload)
}

/// Like [`run_workload`], with an optional VP-mask override applied
/// before the run (the Figure 1/9 attribution experiments).
///
/// When the `PL_SWEEP_SERVER` environment variable names a running
/// [`serve::serve`] instance, untraced jobs are routed through it — and
/// therefore through its content-addressed result cache, so repeated
/// sweeps of the same `(workload, config, seed)` triple simulate once.
/// Traced jobs always run locally because traces don't travel over the
/// wire.
pub fn run_masked(cfg: &MachineConfig, mask: Option<VpMask>, workload: &Workload) -> RunResult {
    if !cfg.trace.enabled {
        if let Ok(addr) = std::env::var("PL_SWEEP_SERVER") {
            if !addr.is_empty() {
                return serve::remote_run(&addr, cfg, mask, workload).unwrap_or_else(|e| {
                    panic!("PL_SWEEP_SERVER={addr}: workload `{}`: {e}", workload.name)
                });
            }
        }
    }
    let mut machine = Machine::new(cfg).expect("benchmark configurations are valid");
    workload.install(&mut machine);
    if let Some(mask) = mask {
        machine.set_vp_mask(mask);
    }
    machine
        .run(RUN_BUDGET)
        .unwrap_or_else(|e| panic!("workload `{}` on {}: {e}", workload.name, cfg.label()))
}

/// One sweep job: a machine configuration plus an optional VP-mask
/// override (`None` for a plain run).
pub type SweepJob = (MachineConfig, Option<VpMask>);

/// Runs every `job × workload` pair, fanned out over `threads` worker
/// threads, and returns the full results grouped as
/// `out[job][workload]`.
///
/// Each pair simulates on its own freshly constructed machine, so the
/// results are bit-identical for every thread count.
pub fn sweep_results(
    jobs: &[SweepJob],
    workloads: &[Workload],
    threads: usize,
) -> Vec<Vec<RunResult>> {
    let pairs: Vec<(usize, usize)> = (0..jobs.len())
        .flat_map(|j| (0..workloads.len()).map(move |w| (j, w)))
        .collect();
    let flat = sweep::par_map(threads, &pairs, |_, &(j, w)| {
        let (cfg, mask) = &jobs[j];
        run_masked(cfg, *mask, &workloads[w])
    });
    let mut flat = flat.into_iter();
    (0..jobs.len())
        .map(|_| {
            (0..workloads.len())
                .map(|_| flat.next().expect("full matrix"))
                .collect()
        })
        .collect()
}

/// [`sweep_results`], reduced to raw CPIs: `out[job][workload]`.
pub fn sweep_cpis(jobs: &[SweepJob], workloads: &[Workload], threads: usize) -> Vec<Vec<f64>> {
    sweep_results(jobs, workloads, threads)
        .into_iter()
        .map(|row| row.into_iter().map(|r| r.cpi()).collect())
        .collect()
}

/// Per-workload Unsafe-baseline CPIs, cached so each baseline is
/// simulated exactly once per sweep no matter how many defended
/// configurations are normalized against it.
///
/// The old free-function `normalized_cpi` re-ran the Unsafe baseline on
/// every call — once per defended configuration in the extension matrix.
/// Construct one cache per sweep instead, [`BaselineCache::prime`] it
/// across threads, and normalize everything through it.
pub struct BaselineCache {
    cfg: MachineConfig,
    cpis: Mutex<HashMap<String, f64>>,
    runs: AtomicUsize,
}

impl BaselineCache {
    /// Creates an empty cache keyed off the Unsafe variant of `base`.
    pub fn new(base: &MachineConfig) -> BaselineCache {
        BaselineCache {
            cfg: unsafe_config(base),
            cpis: Mutex::new(HashMap::new()),
            runs: AtomicUsize::new(0),
        }
    }

    /// Simulates the baseline for every not-yet-cached workload, fanned
    /// out over `threads` worker threads.
    pub fn prime(&self, workloads: &[Workload], threads: usize) {
        let missing: Vec<&Workload> = {
            let cache = self.cpis.lock().expect("baseline cache lock");
            workloads
                .iter()
                .filter(|w| !cache.contains_key(&w.name))
                .collect()
        };
        let fresh = sweep::par_map(threads, &missing, |_, w| {
            self.runs.fetch_add(1, Ordering::Relaxed);
            run_workload(&self.cfg, w).cpi()
        });
        let mut cache = self.cpis.lock().expect("baseline cache lock");
        for (w, cpi) in missing.iter().zip(fresh) {
            cache.insert(w.name.clone(), cpi);
        }
    }

    /// The baseline CPI for `workload`, simulating it (once) on a cache
    /// miss.
    pub fn cpi(&self, workload: &Workload) -> f64 {
        if let Some(&cpi) = self
            .cpis
            .lock()
            .expect("baseline cache lock")
            .get(&workload.name)
        {
            return cpi;
        }
        self.runs.fetch_add(1, Ordering::Relaxed);
        let cpi = run_workload(&self.cfg, workload).cpi();
        self.cpis
            .lock()
            .expect("baseline cache lock")
            .insert(workload.name.clone(), cpi);
        cpi
    }

    /// Baseline CPIs for `workloads`, in order (simulating any misses).
    pub fn cpis_for(&self, workloads: &[Workload]) -> Vec<f64> {
        workloads.iter().map(|w| self.cpi(w)).collect()
    }

    /// CPI of `cfg` on `workload`, normalized to the cached Unsafe
    /// baseline.
    pub fn normalized_cpi(&self, cfg: &MachineConfig, workload: &Workload) -> f64 {
        run_workload(cfg, workload).cpi() / self.cpi(workload)
    }

    /// How many baseline simulations this cache has actually run — the
    /// exactly-once guarantee the sweep smoke test asserts on.
    pub fn baseline_runs(&self) -> usize {
        self.runs.load(Ordering::Relaxed)
    }
}

/// Unsafe-baseline CPI per workload, computed once each (in parallel) and
/// shared across the scheme tables.
pub fn unsafe_cpis(base: &MachineConfig, workloads: &[Workload], threads: usize) -> Vec<f64> {
    let cache = BaselineCache::new(base);
    cache.prime(workloads, threads);
    cache.cpis_for(workloads)
}

/// Normalized-CPI rows for one scheme: one row per workload with the four
/// Table 3 columns (`Comp`, `LP`, `EP`, `Spectre`), the whole matrix
/// fanned out over `threads`.
pub fn scheme_cpi_rows(
    base: &MachineConfig,
    workloads: &[Workload],
    scheme: DefenseScheme,
    baselines: &[f64],
    threads: usize,
) -> Vec<Vec<f64>> {
    scheme_matrix_rows(base, &[scheme], workloads, baselines, threads).remove(0)
}

/// Normalized-CPI rows for several schemes at once, as
/// `out[scheme][workload][column]` — a single fan-out across the full
/// scheme×workload×extension matrix so every simulation is available to
/// the thread pool from the start.
pub fn scheme_matrix_rows(
    base: &MachineConfig,
    schemes: &[DefenseScheme],
    workloads: &[Workload],
    baselines: &[f64],
    threads: usize,
) -> Vec<Vec<Vec<f64>>> {
    let matrices: Vec<_> = schemes.iter().map(|&s| extension_matrix(base, s)).collect();
    let jobs: Vec<SweepJob> = matrices
        .iter()
        .flatten()
        .map(|(_, cfg)| (cfg.clone(), None))
        .collect();
    let per_job = sweep_cpis(&jobs, workloads, threads);
    let mut first = 0;
    matrices
        .iter()
        .map(|matrix| {
            let scheme_jobs = &per_job[first..first + matrix.len()];
            first += matrix.len();
            (0..workloads.len())
                .map(|w| {
                    scheme_jobs
                        .iter()
                        .map(|cpis| cpis[w] / baselines[w])
                        .collect()
                })
                .collect()
        })
        .collect()
}

/// Geo-mean execution-overhead percentage per job, from raw
/// [`sweep_cpis`] output and per-workload baselines.
pub fn geo_overheads(cpis_per_job: &[Vec<f64>], baselines: &[f64]) -> Vec<f64> {
    cpis_per_job
        .iter()
        .map(|cpis| {
            let normalized: Vec<f64> = cpis.iter().zip(baselines).map(|(c, b)| c / b).collect();
            overhead_pct(geo_mean(&normalized).expect("positive CPIs"))
        })
        .collect()
}

/// Formats a row of `values` under `name`, one column per configuration.
pub fn format_row(name: &str, values: &[f64]) -> String {
    use std::fmt::Write as _;
    let mut s = format!("{name:<16}");
    for v in values {
        let _ = write!(s, " {v:>8.3}");
    }
    s
}

/// Formats the header row for a table with the given column labels.
pub fn format_header(columns: &[&str]) -> String {
    use std::fmt::Write as _;
    let mut s = format!("{:<16}", "benchmark");
    for c in columns {
        let _ = write!(s, " {c:>8}");
    }
    s
}

/// Geometric mean over the per-benchmark values of each column.
///
/// # Panics
///
/// Panics if the matrix is empty or ragged.
pub fn geo_mean_rows(rows: &[Vec<f64>]) -> Vec<f64> {
    assert!(!rows.is_empty(), "need at least one benchmark row");
    let cols = rows[0].len();
    (0..cols)
        .map(|c| {
            let col: Vec<f64> = rows.iter().map(|r| r[c]).collect();
            geo_mean(&col).expect("normalized CPIs are positive")
        })
        .collect()
}

/// Converts a normalized CPI into the "execution overhead" percentage the
/// paper reports (1.20 -> 20%).
pub fn overhead_pct(normalized_cpi: f64) -> f64 {
    (normalized_cpi - 1.0) * 100.0
}

/// Prints a full normalized-CPI table for one scheme under the given
/// column labels, with a trailing geometric-mean row, and returns the
/// geo-mean values.
pub fn print_scheme_table(
    scheme: DefenseScheme,
    columns: &[&str],
    names: &[String],
    rows: &[Vec<f64>],
) -> Vec<f64> {
    println!("\n--- {scheme} (normalized CPI vs Unsafe) ---");
    println!("{}", format_header(columns));
    for (name, row) in names.iter().zip(rows) {
        println!("{}", format_row(name, row));
    }
    let gm = geo_mean_rows(rows);
    println!("{}", format_row("Geo. Mean", &gm));
    let overheads: Vec<String> = columns
        .iter()
        .zip(&gm)
        .map(|(c, &g)| format!("{c} {:.1}%", overhead_pct(g)))
        .collect();
    println!("overheads: {}", overheads.join("  "));
    gm
}

/// The column labels of [`extension_matrix`] for `scheme`.
pub fn extension_labels(base: &MachineConfig, scheme: DefenseScheme) -> Vec<&'static str> {
    extension_matrix(base, scheme)
        .into_iter()
        .map(|(label, _)| label)
        .collect()
}

/// Parsed CLI flags shared by the figure binaries.
#[derive(Debug, Clone, Copy)]
pub struct BenchArgs {
    /// Workload scale (`--scale test|bench|full`).
    pub scale: Scale,
    /// Simulated core count for the parallel suites (`--cores N`).
    pub cores: usize,
    /// Sweep worker threads (`--threads N`, default from
    /// [`sweep::default_threads`]).
    pub threads: usize,
}

/// Parses the common CLI flags of the figure binaries:
/// `--scale test|bench|full`, `--cores N`, and `--threads N` (sweep
/// worker threads; defaults to `PL_SWEEP_THREADS` or the machine's
/// available parallelism). Unknown flags abort with a usage message.
pub fn parse_args() -> BenchArgs {
    let mut parsed = BenchArgs {
        scale: Scale::Bench,
        cores: 8,
        threads: sweep::default_threads(),
    };
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--scale" => {
                i += 1;
                parsed.scale = match args.get(i).map(String::as_str) {
                    Some("test") => Scale::Test,
                    Some("bench") => Scale::Bench,
                    Some("full") => Scale::Full,
                    other => {
                        eprintln!("unknown scale {other:?}; use test|bench|full");
                        std::process::exit(2);
                    }
                };
            }
            "--cores" => {
                i += 1;
                parsed.cores = args.get(i).and_then(|s| s.parse().ok()).unwrap_or_else(|| {
                    eprintln!("--cores requires a number");
                    std::process::exit(2);
                });
            }
            "--threads" => {
                i += 1;
                parsed.threads = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .filter(|&t: &usize| t >= 1)
                    .unwrap_or_else(|| {
                        eprintln!("--threads requires a number >= 1");
                        std::process::exit(2);
                    });
            }
            other => {
                eprintln!(
                    "unknown flag {other}; supported: --scale test|bench|full, \
                     --cores N, --threads N"
                );
                std::process::exit(2);
            }
        }
        i += 1;
    }
    parsed
}

/// Prints the simulated-architecture banner (Table 1 summary) so every
/// report is self-describing.
pub fn print_banner(title: &str, cfg: &MachineConfig) {
    println!("== {title} ==");
    println!(
        "machine: {} core(s), ROB {}, LQ {}, SQ {}, WB {}, L1D {}KB/{}-way, \
         LLC {}x{}MB/{}-way, DRAM {} cycles",
        cfg.num_cores,
        cfg.core.rob_entries,
        cfg.core.lq_entries,
        cfg.core.sq_entries,
        cfg.core.write_buffer_entries,
        cfg.mem.l1d.size_bytes / 1024,
        cfg.mem.l1d.ways,
        cfg.mem.llc_slices,
        cfg.mem.llc_slice.size_bytes / (1024 * 1024),
        cfg.mem.llc_slice.ways,
        cfg.mem.dram_latency,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matrix_covers_table_3() {
        let base = MachineConfig::default_single_core();
        for scheme in DefenseScheme::PROTECTED {
            let m = extension_matrix(&base, scheme);
            assert_eq!(m.len(), 4);
            for (_, cfg) in &m {
                cfg.validate().unwrap();
                assert_eq!(cfg.defense, scheme);
            }
            assert_eq!(m[0].1.pinned_loads.mode, PinMode::Off);
            assert_eq!(m[1].1.pinned_loads.mode, PinMode::Late);
            assert_eq!(m[2].1.pinned_loads.mode, PinMode::Early);
            assert_eq!(m[3].1.threat_model, ThreatModel::Spectre);
        }
    }

    #[test]
    fn every_extension_matrix_config_validates() {
        for base in [
            MachineConfig::default_single_core(),
            MachineConfig::default_multi_core(8),
        ] {
            for scheme in DefenseScheme::ALL {
                let m = extension_matrix(&base, scheme);
                assert!(!m.is_empty(), "{scheme}: empty matrix");
                for (label, cfg) in &m {
                    cfg.validate()
                        .unwrap_or_else(|e| panic!("{scheme}/{label}: {e}"));
                }
            }
        }
    }

    #[test]
    fn unsafe_config_is_undefended() {
        let cfg = unsafe_config(&MachineConfig::default_multi_core(4));
        assert_eq!(cfg.defense, DefenseScheme::Unsafe);
        assert_eq!(cfg.num_cores, 4);
        cfg.validate().unwrap();
    }

    #[test]
    fn overhead_percentage() {
        assert!((overhead_pct(1.0)).abs() < 1e-12);
        assert!((overhead_pct(2.126) - 112.6).abs() < 1e-9);
    }

    #[test]
    fn geo_mean_rows_by_column() {
        let rows = vec![vec![1.0, 2.0], vec![4.0, 8.0]];
        let g = geo_mean_rows(&rows);
        assert!((g[0] - 2.0).abs() < 1e-12);
        assert!((g[1] - 4.0).abs() < 1e-12);
    }

    #[test]
    fn rows_align_with_header() {
        let h = format_header(&["Comp", "LP"]);
        let r = format_row("stream", &[1.5, 1.25]);
        assert_eq!(h.len(), r.len());
    }

    #[test]
    fn baseline_cache_normalizes_unsafe_to_one_and_runs_once() {
        let base = MachineConfig::default_single_core();
        let w = pl_workloads::spec_suite(Scale::Test).remove(4); // alu_dense
        let cache = BaselineCache::new(&base);
        let n = cache.normalized_cpi(&unsafe_config(&base), &w);
        assert!((n - 1.0).abs() < 1e-9);
        assert_eq!(cache.baseline_runs(), 1);
        // Re-normalizing against the same workload reuses the cached
        // baseline — the fix for the old per-call re-simulation.
        let n2 = cache.normalized_cpi(&unsafe_config(&base), &w);
        assert!((n2 - 1.0).abs() < 1e-9);
        assert_eq!(cache.baseline_runs(), 1);
    }

    #[test]
    fn prime_skips_cached_workloads() {
        let base = MachineConfig::default_single_core();
        let workloads: Vec<Workload> = pl_workloads::spec_suite(Scale::Test)
            .into_iter()
            .filter(|w| ["alu_dense", "pointer_chase"].contains(&w.name.as_str()))
            .collect();
        let cache = BaselineCache::new(&base);
        cache.prime(&workloads, 2);
        assert_eq!(cache.baseline_runs(), workloads.len());
        cache.prime(&workloads, 2);
        assert_eq!(cache.baseline_runs(), workloads.len());
    }

    #[test]
    fn geo_overheads_matches_by_hand() {
        let cpis = vec![vec![2.0, 2.0], vec![1.0, 4.0]];
        let baselines = [1.0, 2.0];
        let o = geo_overheads(&cpis, &baselines);
        // job 0: normalized {2.0, 1.0} -> geo-mean sqrt(2) -> 41.42%.
        assert!((o[0] - ((2.0f64).sqrt() - 1.0) * 100.0).abs() < 1e-9);
        // job 1: normalized {1.0, 2.0} -> same geo-mean.
        assert!((o[1] - o[0]).abs() < 1e-9);
    }
}
