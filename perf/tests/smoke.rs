//! The smoke benchmark runs every workload end to end, and its report
//! carries every metric `BENCHMARK.json` names, with the same unit.

use std::process::Command;

use pl_perf::{END_TO_END, GATED_LAYER_METRICS};
use pl_trace::json::{self, Value};

fn benchmark_json() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    json::parse(&text).expect("BENCHMARK.json parses")
}

/// `(name, unit)` of every entry of a `BENCHMARK.json` metric list.
fn listed(bench: &Value, key: &str) -> Vec<(String, String)> {
    bench
        .get(key)
        .and_then(Value::as_arr)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no `{key}` list"))
        .iter()
        .map(|m| {
            let s = |k: &str| m.get(k).and_then(Value::as_str).expect("string field");
            (s("name").to_string(), s("unit").to_string())
        })
        .collect()
}

#[test]
fn benchmark_json_matches_the_metric_tables() {
    let bench = benchmark_json();
    let gated: Vec<(String, String)> = END_TO_END
        .iter()
        .filter(|m| m.gated)
        .map(|m| (m.name.to_string(), m.unit.to_string()))
        .collect();
    assert_eq!(listed(&bench, "end_to_end"), gated);
    for (entry, m) in bench
        .get("end_to_end")
        .and_then(Value::as_arr)
        .expect("end_to_end list")
        .iter()
        .zip(END_TO_END.iter().filter(|m| m.gated))
    {
        assert_eq!(
            entry.get("better").and_then(Value::as_str),
            Some(m.better.name())
        );
        assert_eq!(entry.get("bound").and_then(Value::as_f64), Some(m.bound));
    }
    let layers: Vec<(String, String)> = GATED_LAYER_METRICS
        .iter()
        .map(|(n, u)| (n.to_string(), u.to_string()))
        .collect();
    assert_eq!(listed(&bench, "per_layer"), layers);
}

#[test]
fn smoke_run_reports_every_benchmark_metric_with_its_unit() {
    let out = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("smoke/run.json");
    let run = Command::new(env!("CARGO_BIN_EXE_pl-perf"))
        .args(["run", "--smoke", "--out"])
        .arg(&out)
        .output()
        .expect("pl-perf runs");
    let stdout = String::from_utf8(run.stdout).expect("utf-8 output");
    assert!(run.status.success(), "smoke run failed:\n{stdout}");

    let last = stdout.lines().last().expect("a result line");
    let result = json::parse(last).expect("the result line parses");
    assert_eq!(result.get("correct").and_then(Value::as_bool), Some(true));
    assert_eq!(result.get("failed").and_then(Value::as_f64), Some(0.0));
    assert!(
        result
            .get("attempted")
            .and_then(Value::as_f64)
            .unwrap_or(0.0)
            >= 1.0
    );

    let doc = json::parse(&std::fs::read_to_string(&out).expect("report written"))
        .expect("the report parses");
    let bench = benchmark_json();
    let workloads = doc.get("workloads").expect("workloads object");
    for kind in pl_perf::Kind::ALL {
        let w = workloads
            .get(kind.name())
            .unwrap_or_else(|| panic!("no {} report", kind.name()));
        assert_eq!(w.get("correct").and_then(Value::as_bool), Some(true));
        for (key, section) in [("end_to_end", "metrics"), ("per_layer", "layers")] {
            for (name, unit) in listed(&bench, key) {
                let m = w
                    .get(section)
                    .and_then(|s| s.get(&name))
                    .unwrap_or_else(|| panic!("{}: no `{name}`", kind.name()));
                assert_eq!(m.get("unit").and_then(Value::as_str), Some(unit.as_str()));
                assert!(
                    stdout.contains(&format!("{name} ")) || stdout.contains(&format!("{name}\"")),
                    "`{name}` is not printed"
                );
            }
        }
    }
}
