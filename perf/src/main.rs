//! `pl-perf`: the repository benchmark.
//!
//! ```text
//! pl-perf run [--workload fig7-spec|fig8-par|leakage|all] [--seed N]
//!             [--reps N | --seconds S] [--threads N] [--trace [0|1]]
//!             [--smoke] [--out PATH]
//! pl-perf compare PARENT.json[,PARENT2.json..] CHANGE.json[,CHANGE2.json..]
//! ```
//!
//! `run` measures each workload in a process of its own (so `peak_rss_mb`
//! is per workload), prints every metric with its unit as median,
//! quartiles and sample count, writes the JSON report to `--out`
//! (default `target/pl-perf/run.json`, or `trace.json` when traced), and
//! ends with a one-line JSON result. `--seed` seeds only the leakage
//! secrets (default `0xa77ac`).

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use pl_perf::report::{self, document, print_report, result_line, workload_json};
use pl_perf::{measure, Budget, Kind, Plan, DEFAULT_SEED, DEFAULT_THREADS};
use pl_trace::json::{self, Value};

const USAGE: &str = "usage: pl-perf run [--workload fig7-spec|fig8-par|leakage|all] [--seed N]\n\
     \u{20}                  [--reps N | --seconds S] [--threads N] [--trace [0|1]]\n\
     \u{20}                  [--smoke] [--out PATH]\n\
     \u{20}      pl-perf compare PARENT.json[,..] CHANGE.json[,..]";

fn usage_error(msg: &str) -> ExitCode {
    eprintln!("pl-perf: {msg}\n{USAGE}");
    ExitCode::from(2)
}

#[derive(Debug)]
struct RunArgs {
    workloads: Vec<Kind>,
    seed: u64,
    budget: Budget,
    threads: usize,
    trace: bool,
    smoke: bool,
    out: Option<PathBuf>,
}

fn parse_u64(s: &str) -> Option<u64> {
    match s.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => s.parse().ok(),
    }
}

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let mut run = RunArgs {
        workloads: Kind::ALL.to_vec(),
        seed: DEFAULT_SEED,
        budget: Budget::Reps(5),
        threads: DEFAULT_THREADS,
        trace: false,
        smoke: false,
        out: None,
    };
    let (mut reps, mut seconds) = (None, None);
    let mut it = args.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                run.workloads = if name == "all" {
                    Kind::ALL.to_vec()
                } else {
                    vec![Kind::from_name(name).ok_or(format!("unknown workload `{name}`"))?]
                };
            }
            "--seed" => run.seed = parse_u64(value()?).ok_or("--seed needs a number")?,
            "--reps" => {
                reps = Some(
                    value()?
                        .parse::<usize>()
                        .ok()
                        .filter(|&n| n >= 1)
                        .ok_or("--reps needs a number >= 1")?,
                )
            }
            "--seconds" => {
                seconds = Some(
                    value()?
                        .parse::<f64>()
                        .ok()
                        .filter(|s| s.is_finite() && *s > 0.0)
                        .ok_or("--seconds needs a positive number")?,
                )
            }
            "--threads" => {
                run.threads = value()?
                    .parse::<usize>()
                    .ok()
                    .filter(|&n| n >= 1)
                    .ok_or("--threads needs a number >= 1")?
            }
            "--trace" => {
                run.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            "--smoke" => run.smoke = true,
            "--out" => run.out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    // The smoke run covers every metric: one untraced pass, then the
    // traced diagonal.
    run.trace |= run.smoke;
    run.budget = match (reps, seconds) {
        (Some(_), Some(_)) => return Err("--reps and --seconds are exclusive".into()),
        (Some(n), None) => Budget::Reps(n),
        (None, Some(s)) => Budget::Seconds(s),
        (None, None) => Budget::Reps(5),
    };
    Ok(run)
}

/// Re-runs this executable for one workload, with the same settings,
/// writing its report object to `part`.
fn spawn_child(run: &RunArgs, kind: Kind, part: &Path) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| format!("locate pl-perf: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["run", "--workload", kind.name()]);
    cmd.args(["--seed", &run.seed.to_string()]);
    cmd.args(["--threads", &run.threads.to_string()]);
    match run.budget {
        Budget::Reps(n) => cmd.args(["--reps", &n.to_string()]),
        Budget::Seconds(s) => cmd.args(["--seconds", &s.to_string()]),
    };
    cmd.args(["--trace", if run.trace { "1" } else { "0" }]);
    if run.smoke {
        cmd.arg("--smoke");
    }
    cmd.arg("--out").arg(part);
    let status = cmd
        .status()
        .map_err(|e| format!("spawn {}: {e}", kind.name()))?;
    if !status.success() {
        return Err(format!("{} run exited with {status}", kind.name()));
    }
    Ok(())
}

fn write_file(path: &Path, text: &str) -> Result<(), String> {
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("write {}: {e}", path.display()))
}

fn cmd_run(args: &[String]) -> ExitCode {
    let run = match parse_run(args) {
        Ok(r) => r,
        Err(e) => return usage_error(&e),
    };
    let out = run.out.clone().unwrap_or_else(|| {
        PathBuf::from("target/pl-perf").join(if run.trace { "trace.json" } else { "run.json" })
    });
    match run_workloads(&run, &out) {
        Ok(workloads) => {
            eprintln!("pl-perf: wrote {}", out.display());
            println!("{}", result_line(&workloads, run.trace));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("pl-perf: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Measures the requested workloads (one in this process, several in
/// one child process each), writes the report document to `out`, and
/// returns its parsed workload objects.
fn run_workloads(run: &RunArgs, out: &Path) -> Result<Vec<(String, Value)>, String> {
    let parts: Vec<(String, String)> = if let [kind] = run.workloads[..] {
        let plan = Plan::new(kind, run.smoke, run.seed);
        let r = measure(&plan, run.threads, run.budget, run.trace);
        print_report(&r);
        if let Some(doc) = &r.leakage_json {
            write_file(&out.with_file_name("leakage.json"), doc)?;
        }
        vec![(kind.name().to_string(), workload_json(&r))]
    } else {
        let mut parts = Vec::new();
        for &kind in &run.workloads {
            let part = out.with_extension(format!("{}.json", kind.name()));
            spawn_child(run, kind, &part)?;
            let text = std::fs::read_to_string(&part)
                .map_err(|e| format!("read {}: {e}", part.display()))?;
            let doc = json::parse(&text).map_err(|e| format!("{}: {e}", part.display()))?;
            for (name, body) in report::workloads_of(&doc) {
                parts.push((name, report::to_json(&body)));
            }
        }
        parts
    };
    write_file(out, &document(&parts))?;
    parts
        .iter()
        .map(|(name, body)| json::parse(body).map(|v| (name.clone(), v)))
        .collect::<Result<_, _>>()
        .map_err(|e| format!("report does not parse: {e}"))
}

fn load_docs(list: &str) -> Result<Vec<Value>, String> {
    list.split(',')
        .map(|path| {
            let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
            json::parse(&text).map_err(|e| format!("{path}: {e}"))
        })
        .collect()
}

fn cmd_compare(args: &[String]) -> ExitCode {
    let [parent, change] = args else {
        return usage_error("compare needs PARENT.json and CHANGE.json");
    };
    let docs = load_docs(parent).and_then(|p| Ok((p, load_docs(change)?)));
    match docs {
        Ok((p, c)) => {
            let (table, ok) = report::compare(&p, &c);
            print!("{table}");
            if ok {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("pl-perf: {e}");
            ExitCode::FAILURE
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("run") => cmd_run(&args[1..]),
        Some("compare") => cmd_compare(&args[1..]),
        Some("--help" | "-h") => {
            println!("{USAGE}");
            ExitCode::SUCCESS
        }
        _ => usage_error("expected a subcommand"),
    }
}
