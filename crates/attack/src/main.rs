//! `pl-attack`: sweep the adversarial gadget suite across defense
//! schemes and emit the leakage-vs-slowdown scatter.
//!
//! ```text
//! pl-attack [--smoke] [--seed N] [--scheme LABEL] [--gadget NAME]
//!           [--cores N[,N..]] [--rounds N] [--cal-rounds N]
//!           [--threads N] [--out PATH]
//! ```
//!
//! The full run writes `results/leakage.json` with one
//! (bits-extracted, normalized-CPI) point per gadget x scheme x cores
//! combination. `--smoke` shrinks the sweep to 2 cores and 24 scored
//! rounds for CI. The seed defaults to `PL_TEST_SEED` when set.

use std::process::ExitCode;

use pl_attack::{leakage_json, leakage_sweep, SweepOptions};
use pl_base::MAX_CORES;
use pl_workloads::attack::Gadget;

fn usage() -> ! {
    eprintln!(
        "usage: pl-attack [--smoke] [--seed N] [--scheme LABEL] [--gadget NAME]\n\
         \u{20}                [--cores N[,N..]] [--rounds N] [--cal-rounds N]\n\
         \u{20}                [--threads N] [--out PATH]"
    );
    std::process::exit(2)
}

fn parse<T: std::str::FromStr>(flag: &str, v: Option<String>) -> T {
    v.and_then(|s| s.parse().ok()).unwrap_or_else(|| {
        eprintln!("pl-attack: {flag} needs a valid value");
        usage()
    })
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let mut smoke = false;
    let mut seed: Option<u64> = None;
    let mut scheme: Option<String> = None;
    let mut gadgets: Vec<Gadget> = Vec::new();
    let mut cores: Option<Vec<usize>> = None;
    let mut rounds: Option<usize> = None;
    let mut cal_rounds: Option<usize> = None;
    let mut threads: Option<usize> = None;
    let mut out = String::from("results/leakage.json");
    while let Some(a) = args.next() {
        match a.as_str() {
            "--smoke" => smoke = true,
            "--seed" => seed = Some(parse("--seed", args.next())),
            "--scheme" => scheme = Some(parse("--scheme", args.next())),
            "--gadget" => {
                let name: String = parse("--gadget", args.next());
                match Gadget::from_name(&name) {
                    Some(g) => gadgets.push(g),
                    None => {
                        eprintln!(
                            "pl-attack: unknown gadget `{name}` (expected one of: {})",
                            Gadget::all().map(|g| g.name()).join(", ")
                        );
                        return ExitCode::from(2);
                    }
                }
            }
            "--cores" => {
                let raw: String = parse("--cores", args.next());
                let parsed: Option<Vec<usize>> = raw.split(',').map(|s| s.parse().ok()).collect();
                let parsed = parsed.unwrap_or_else(|| usage());
                // A scenario needs an observer and a victim core.
                if let Some(n) = parsed.iter().find(|n| !(2..=MAX_CORES).contains(*n)) {
                    eprintln!("pl-attack: --cores {n} is out of range (2..={MAX_CORES})");
                    return ExitCode::from(2);
                }
                cores = Some(parsed);
            }
            "--rounds" => rounds = Some(parse("--rounds", args.next())),
            "--cal-rounds" => cal_rounds = Some(parse("--cal-rounds", args.next())),
            "--threads" => threads = Some(parse("--threads", args.next())),
            "--out" => out = parse("--out", args.next()),
            "--help" | "-h" => usage(),
            other => {
                eprintln!("pl-attack: unknown flag `{other}`");
                usage()
            }
        }
    }

    let seed = seed.unwrap_or_else(|| {
        std::env::var("PL_TEST_SEED")
            .ok()
            .and_then(|s| {
                let s = s.trim();
                if let Some(hex) = s.strip_prefix("0x") {
                    u64::from_str_radix(hex, 16).ok()
                } else {
                    s.parse().ok()
                }
            })
            .unwrap_or(0xA77AC)
    });
    let mut opts = if smoke {
        SweepOptions::smoke(seed)
    } else {
        SweepOptions::full(seed)
    };
    if let Some(label) = &scheme {
        let known: Vec<String> = pl_verify::scheme_configs(2)
            .iter()
            .take(6)
            .map(|c| c.label())
            .collect();
        if !known.contains(label) {
            eprintln!(
                "pl-attack: unknown scheme `{label}` (expected one of: {})",
                known.join(", ")
            );
            return ExitCode::from(2);
        }
    }
    opts.scheme_filter = scheme;
    if !gadgets.is_empty() {
        opts.gadgets = gadgets;
    }
    if let Some(c) = cores {
        opts.cores = c;
    }
    if let Some(r) = rounds {
        opts.rounds = r;
    }
    if let Some(c) = cal_rounds {
        opts.cal_rounds = c;
    }
    if let Some(t) = threads {
        opts.threads = t;
    }

    eprintln!(
        "pl-attack: {} gadgets x {:?} cores, {}+{} rounds, seed {seed:#x}",
        opts.gadgets.len(),
        opts.cores,
        opts.cal_rounds,
        opts.rounds
    );
    let points = leakage_sweep(&opts);
    for p in &points {
        eprintln!(
            "  {:<20} {:<10} cores={} bits/trial={:.3} acc={:.3} norm_cpi={} {}",
            p.gadget,
            p.scheme,
            p.cores,
            p.bits_per_trial,
            p.accuracy,
            p.norm_cpi.map_or("n/a".to_string(), |v| format!("{v:.3}")),
            if p.timing_match { "" } else { "[timing drift]" },
        );
    }

    let doc = leakage_json(&opts, &points);
    if let Some(dir) = std::path::Path::new(&out).parent() {
        if !dir.as_os_str().is_empty() {
            if let Err(e) = std::fs::create_dir_all(dir) {
                eprintln!("pl-attack: create {}: {e}", dir.display());
                return ExitCode::FAILURE;
            }
        }
    }
    if let Err(e) = std::fs::write(&out, doc) {
        eprintln!("pl-attack: write {out}: {e}");
        return ExitCode::FAILURE;
    }
    eprintln!("pl-attack: wrote {out} ({} points)", points.len());
    ExitCode::SUCCESS
}
