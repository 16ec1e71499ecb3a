//! The `pl-attack` command line: a `--cores` count outside 2..=64 is a
//! usage error that exits 2 naming the flag, before any scenario runs.

use std::process::{Command, Output};

fn pl_attack(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_pl-attack"))
        .args(args)
        .output()
        .expect("pl-attack runs")
}

#[test]
fn out_of_range_cores_exit_2_naming_the_flag() {
    for cores in ["0", "1", "65", "2,1"] {
        let out = pl_attack(&["--smoke", "--cores", cores, "--out", "/dev/null"]);
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "--cores {cores}: {err}");
        assert!(err.contains("--cores"), "{err}");
        assert!(err.contains("2..=64"), "{err}");
    }
}
