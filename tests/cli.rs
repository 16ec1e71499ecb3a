//! The `plsim` command line: an out-of-range `--cores` is a usage error
//! that exits 2 naming the flag, before any workload is generated.

use std::process::{Command, Output};

fn plsim(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_plsim"))
        .args(args)
        .output()
        .expect("plsim runs")
}

#[test]
fn too_many_cores_exit_2_naming_the_flag() {
    // 4e9 cores of `lock_counter` would need a ~96 GB workload;
    // validating first never allocates it.
    for (workload, cores) in [
        ("migratory", "65"),
        ("lock_counter", "65"),
        ("lock_counter", "4000000000"),
    ] {
        let out = plsim(&["--workload", workload, "--cores", cores, "--scale", "test"]);
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(
            out.status.code(),
            Some(2),
            "{workload} --cores {cores}: {err}"
        );
        assert!(err.contains("--cores"), "{err}");
        assert!(err.contains("at most 64"), "{err}");
    }
}

#[test]
fn zero_cores_exit_2_naming_the_flag() {
    let out = plsim(&["--workload", "stream", "--cores", "0", "--scale", "test"]);
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "--cores 0: {err}");
    assert!(err.contains("--cores"), "{err}");
    assert!(err.contains("at least one core"), "{err}");
    assert!(out.stdout.is_empty(), "nothing was simulated");
}
