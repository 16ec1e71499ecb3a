//! The `regen` command line: usage errors name what was wrong and exit 2
//! before anything simulates, and `--check` passes on a committed result
//! the code still produces (the full check runs in `scripts/tier1.sh`).

use std::process::{Command, Output};

fn regen(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_regen"))
        .args(args)
        .output()
        .expect("regen runs")
}

#[test]
fn unknown_flag_and_generator_exit_2_naming_them() {
    for (arg, what) in [("--bogus", "flag"), ("fig3", "generator")] {
        let out = regen(&["--check", arg]);
        assert_eq!(out.status.code(), Some(2), "{arg}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains(&format!("unknown {what} `{arg}`")), "{err}");
        assert!(err.contains("wd_sweep"), "lists the generators: {err}");
    }
}

#[test]
fn check_passes_on_a_fresh_result() {
    let out = regen(&["--check", "hw_overhead"]);
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{err}");
    assert!(err.contains("1 files, 0 simulations"), "{err}");
}
