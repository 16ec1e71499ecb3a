//! `regen` — regenerates every committed result under `results/` in one
//! process, or checks that they are fresh.
//!
//! ```sh
//! cargo run --release -p pl-bench --bin regen              # rewrite all of results/
//! cargo run --release -p pl-bench --bin regen -- fig7 fig8 # only these generators
//! cargo run --release -p pl-bench --bin regen -- --check   # compare instead of writing
//! ```
//!
//! The generators share one [`RunMemo`], so a job several of them run
//! simulates once. `--check` exits 1 naming each file whose bytes differ
//! from what the code produces now; an unknown flag or generator name
//! exits 2. Sweeps use `PL_SWEEP_THREADS` threads (default: all), and
//! the output does not depend on it. `results/leakage.json` comes from
//! `pl-attack`, and `results/spectre_gadget_trace.json` from the
//! `spectre_gadget` example.

use std::path::Path;
use std::process::exit;
use std::time::Instant;

use pl_bench::figures;
use pl_bench::{sweep, RunMemo};

/// A generator: the text of `results/NAME.txt`, plus any other files it
/// produces, as `(file name, contents)` pairs.
type Generator = fn(&mut RunMemo) -> (String, Vec<(String, String)>);

const GENERATORS: [(&str, Generator); 12] = [
    ("fig1", |m| (figures::fig1(m), Vec::new())),
    ("fig2", figures::fig2),
    ("fig7", |m| (figures::fig7(m), Vec::new())),
    ("fig8", |m| (figures::fig8(m), Vec::new())),
    ("fig9", |m| (figures::fig9(m), Vec::new())),
    ("traffic", |m| (figures::traffic(m), Vec::new())),
    ("cst_sensitivity", |m| {
        (figures::cst_sensitivity(m), Vec::new())
    }),
    ("cpt_stats", |m| (figures::cpt_stats(m), Vec::new())),
    ("wd_sweep", |m| (figures::wd_sweep(m), Vec::new())),
    ("hw_overhead", |_| (figures::hw_overhead(), Vec::new())),
    ("invisible", |m| (figures::invisible(m), Vec::new())),
    ("ablation", |m| (figures::ablation(m), Vec::new())),
];

fn main() {
    let mut check = false;
    let mut chosen: Vec<&str> = Vec::new();
    for arg in std::env::args().skip(1) {
        if arg == "--check" {
            check = true;
        } else if let Some(&(name, _)) = GENERATORS.iter().find(|(n, _)| *n == arg) {
            chosen.push(name);
        } else {
            let what = if arg.starts_with('-') {
                "flag"
            } else {
                "generator"
            };
            let names: Vec<&str> = GENERATORS.iter().map(|(n, _)| *n).collect();
            eprintln!(
                "regen: unknown {what} `{arg}`\n\
                 usage: regen [--check] [NAME...]; NAME is one of {}",
                names.join(" ")
            );
            exit(2);
        }
    }

    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
    let mut memo = RunMemo::new(sweep::default_threads());
    let start = Instant::now();
    let mut files = 0;
    let mut stale = Vec::new();
    for (name, generate) in GENERATORS {
        if !chosen.is_empty() && !chosen.contains(&name) {
            continue;
        }
        let began = Instant::now();
        let (text, extra) = generate(&mut memo);
        eprintln!("regen: {name} {:.1} s", began.elapsed().as_secs_f64());
        for (file, contents) in std::iter::once((format!("{name}.txt"), text)).chain(extra) {
            files += 1;
            let path = dir.join(&file);
            if check {
                if std::fs::read(&path).ok().as_deref() != Some(contents.as_bytes()) {
                    stale.push(file);
                }
            } else if let Err(e) = std::fs::write(&path, contents) {
                eprintln!("regen: cannot write results/{file}: {e}");
                exit(1);
            }
        }
    }
    eprintln!(
        "regen: {files} files, {} simulations, {:.1} s",
        memo.simulations(),
        start.elapsed().as_secs_f64()
    );
    if !stale.is_empty() {
        for file in &stale {
            eprintln!("regen: stale results/{file}");
        }
        eprintln!("regen: run `cargo run --release -p pl-bench --bin regen` to rewrite them");
        exit(1);
    }
}
