//! Shared harness code and the generators of every committed result.
//!
//! [`figures`] holds one function per artifact of the paper's evaluation
//! under `results/` (see `DESIGN.md` for the index); the `regen` binary
//! runs them in one process and writes or checks `results/`. This
//! library provides the common machinery: building the configuration
//! matrix of Table 3, fanning the config×workload matrix out across OS
//! threads ([`sweep::par_map`]), remembering every run so that a job
//! several generators share simulates once ([`RunMemo`]), and formatting
//! aligned tables.
//!
//! Every simulation is deterministic given its configuration, so sweep
//! output is bit-identical for any thread count; `PL_SWEEP_THREADS=1` is
//! the reference serial path.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod figures;
pub mod sweep;

use std::fmt::Write as _;

use pl_base::{geo_mean, DefenseScheme, MachineConfig, PinMode, PinnedLoadsConfig, ThreatModel};
use pl_machine::{Machine, RunResult};
use pl_secure::VpMask;
use pl_workloads::Workload;

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
pub fn run_masked(cfg: &MachineConfig, mask: Option<VpMask>, workload: &Workload) -> RunResult {
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

/// Every run made so far in this process, keyed by the whole job: the
/// full [`MachineConfig`], the VP-mask override and the workload's
/// content.
///
/// Generators share jobs: fig8's Unsafe baselines are also fig1's and
/// `wd_sweep`'s, and `traffic` runs nine of fig8's thirteen
/// configurations. Each [`RunMemo::results`] call simulates only the
/// jobs no earlier call ran, so every shared job simulates once per
/// process. A hit is an exact equality match, never a name or digest
/// match: fig7's bench-scale `stream` and fig1's test-scale `stream`
/// share a name and an Unsafe config but not a program.
///
/// Results are identical to running each job with [`run_masked`],
/// whatever the thread count: which jobs are missing is decided on the
/// calling thread, and each runs on its own fresh machine.
pub struct RunMemo {
    threads: usize,
    /// Each distinct workload, with the runs made on it so far.
    entries: Vec<(Workload, Vec<(SweepJob, RunResult)>)>,
    simulations: usize,
}

impl RunMemo {
    /// An empty memo whose misses fan out over `threads` worker threads.
    pub fn new(threads: usize) -> RunMemo {
        RunMemo {
            threads,
            entries: Vec::new(),
            simulations: 0,
        }
    }

    /// How many simulations this memo has run: one per distinct job.
    pub fn simulations(&self) -> usize {
        self.simulations
    }

    fn workload_index(&mut self, workload: &Workload) -> usize {
        match self.entries.iter().position(|(w, _)| w == workload) {
            Some(i) => i,
            None => {
                self.entries.push((workload.clone(), Vec::new()));
                self.entries.len() - 1
            }
        }
    }

    fn lookup(&self, workload: usize, job: &SweepJob) -> Option<&RunResult> {
        self.entries[workload]
            .1
            .iter()
            .find(|(j, _)| j == job)
            .map(|(_, res)| res)
    }

    /// The result of every `job × workload` pair, as `out[job][workload]`,
    /// simulating each distinct pair the memo lacks once, fanned out over
    /// the memo's threads.
    pub fn results(&mut self, jobs: &[SweepJob], workloads: &[Workload]) -> Vec<Vec<RunResult>> {
        let index: Vec<usize> = workloads.iter().map(|w| self.workload_index(w)).collect();
        let mut missing: Vec<(&SweepJob, usize, &Workload)> = Vec::new();
        for job in jobs {
            for (&wi, w) in index.iter().zip(workloads) {
                if self.lookup(wi, job).is_none()
                    && !missing.iter().any(|&(j, i, _)| i == wi && j == job)
                {
                    missing.push((job, wi, w));
                }
            }
        }
        let fresh = sweep::par_map(self.threads, &missing, |_, &((cfg, mask), _, w)| {
            run_masked(cfg, *mask, w)
        });
        self.simulations += fresh.len();
        for (&(job, wi, _), res) in missing.iter().zip(fresh) {
            self.entries[wi].1.push((job.clone(), res));
        }
        jobs.iter()
            .map(|job| {
                index
                    .iter()
                    .map(|&wi| self.lookup(wi, job).expect("simulated above").clone())
                    .collect()
            })
            .collect()
    }

    /// [`RunMemo::results`], reduced to raw CPIs: `out[job][workload]`.
    pub fn cpis(&mut self, jobs: &[SweepJob], workloads: &[Workload]) -> Vec<Vec<f64>> {
        self.results(jobs, workloads)
            .into_iter()
            .map(|row| row.into_iter().map(|r| r.cpi()).collect())
            .collect()
    }
}

/// Unsafe-baseline CPI per workload.
pub(crate) fn unsafe_cpis(
    memo: &mut RunMemo,
    base: &MachineConfig,
    workloads: &[Workload],
) -> Vec<f64> {
    memo.cpis(&[(unsafe_config(base), None)], workloads)
        .remove(0)
}

/// Normalized-CPI rows for several schemes at once, as
/// `out[scheme][workload][column]`, one column per [`extension_matrix`]
/// entry — a single fan-out across the full scheme×workload×extension
/// matrix so every simulation is available to the thread pool from the
/// start.
pub(crate) fn scheme_matrix_rows(
    memo: &mut RunMemo,
    base: &MachineConfig,
    schemes: &[DefenseScheme],
    workloads: &[Workload],
    baselines: &[f64],
) -> Vec<Vec<Vec<f64>>> {
    let matrices: Vec<_> = schemes.iter().map(|&s| extension_matrix(base, s)).collect();
    let jobs: Vec<SweepJob> = matrices
        .iter()
        .flatten()
        .map(|(_, cfg)| (cfg.clone(), None))
        .collect();
    let per_job = memo.cpis(&jobs, workloads);
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
/// [`RunMemo::cpis`] output and per-workload baselines.
pub(crate) fn geo_overheads(cpis_per_job: &[Vec<f64>], baselines: &[f64]) -> Vec<f64> {
    cpis_per_job
        .iter()
        .map(|cpis| {
            let normalized: Vec<f64> = cpis.iter().zip(baselines).map(|(c, b)| c / b).collect();
            overhead_pct(geo_mean(&normalized).expect("positive CPIs"))
        })
        .collect()
}

/// Formats a row of `values` under `name`, one column per configuration.
pub(crate) fn format_row(name: &str, values: &[f64]) -> String {
    let mut s = format!("{name:<16}");
    for v in values {
        let _ = write!(s, " {v:>8.3}");
    }
    s
}

/// Formats the header row for a table with the given column labels.
pub(crate) fn format_header(columns: &[&str]) -> String {
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
pub(crate) fn geo_mean_rows(rows: &[Vec<f64>]) -> Vec<f64> {
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

/// Writes a full normalized-CPI table for one scheme under the given
/// column labels, with a trailing geometric-mean row and the geo-mean
/// overheads.
pub(crate) fn scheme_table(
    out: &mut String,
    scheme: DefenseScheme,
    columns: &[&str],
    names: &[String],
    rows: &[Vec<f64>],
) {
    let _ = writeln!(out, "\n--- {scheme} (normalized CPI vs Unsafe) ---");
    let _ = writeln!(out, "{}", format_header(columns));
    for (name, row) in names.iter().zip(rows) {
        let _ = writeln!(out, "{}", format_row(name, row));
    }
    let gm = geo_mean_rows(rows);
    let _ = writeln!(out, "{}", format_row("Geo. Mean", &gm));
    let overheads: Vec<String> = columns
        .iter()
        .zip(&gm)
        .map(|(c, &g)| format!("{c} {:.1}%", overhead_pct(g)))
        .collect();
    let _ = writeln!(out, "overheads: {}", overheads.join("  "));
}

/// The column labels of [`extension_matrix`] for `scheme`.
pub(crate) fn extension_labels(base: &MachineConfig, scheme: DefenseScheme) -> Vec<&'static str> {
    extension_matrix(base, scheme)
        .into_iter()
        .map(|(label, _)| label)
        .collect()
}

/// The simulated-architecture banner (Table 1 summary) that opens every
/// report, so each is self-describing.
pub(crate) fn banner(title: &str, cfg: &MachineConfig) -> String {
    format!(
        "== {title} ==\n\
         machine: {} core(s), ROB {}, LQ {}, SQ {}, WB {}, L1D {}KB/{}-way, \
         LLC {}x{}MB/{}-way, DRAM {} cycles\n",
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
    )
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
