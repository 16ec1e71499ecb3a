//! Report rendering: the human-readable table, the JSON document written
//! under `target/pl-perf/`, the one-line result the benchmark ends with,
//! and `pl-perf compare`.

use std::fmt::Write as _;

use pl_trace::json::{self, Value};

use crate::{Better, Summary, WorkloadReport, END_TO_END, GATED_LAYER_METRICS};

/// A JSON number, or `null` for a non-finite value.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// Prints a workload's metrics: name, unit, median, quartiles and sample
/// count for the end-to-end metrics, then diagnostics and, for a traced
/// run, every per-layer metric.
pub fn print_report(r: &WorkloadReport) {
    println!(
        "== {} (seed {:#x}, {} threads{}): {} timed pass(es) after {} warm-up jobs ==",
        r.kind.name(),
        r.seed,
        r.threads,
        if r.smoke { ", smoke" } else { "" },
        r.passes,
        r.warmup_jobs,
    );
    println!(
        "  {:<24} {:<10} {:>14} {:>14} {:>14} {:>4}",
        "metric", "unit", "median", "q1", "q3", "n"
    );
    for (m, s) in &r.metrics {
        let name = if m.name == "job_tail_ms" {
            format!("{} (p{})", m.name, r.tail_pct)
        } else {
            m.name.to_string()
        };
        println!(
            "  {:<24} {:<10} {:>14.6} {:>14.6} {:>14.6} {:>4}",
            name,
            m.unit,
            s.median,
            s.q1,
            s.q3,
            s.samples.len()
        );
    }
    println!("  {:<24} {:#018x}", "output_digest", r.output_digest);
    for (name, v) in &r.diag {
        println!("  {name:<35} {v:>10.2}   (diagnostic)");
    }
    if !r.layers.is_empty() {
        println!("  -- per-layer (traced run) --");
        for (name, unit, v) in &r.layers {
            println!("  {name:<35} {unit:<10} {v:>16.6}");
        }
    }
    for p in &r.problems {
        println!("  PROBLEM: {p}");
    }
    println!(
        "  correct: {} ({} runs attempted, {} failed)",
        r.correct(),
        r.attempted,
        r.failed
    );
}

/// The JSON object for one workload's report.
pub fn workload_json(r: &WorkloadReport) -> String {
    let mut s = String::from("{");
    let _ = write!(
        s,
        "\"workload\": \"{}\", \"smoke\": {}, \"seed\": {}, \"threads\": {}, \
         \"warmup_jobs\": {}, \"passes\": {}, \"attempted\": {}, \"failed\": {}, \
         \"correct\": {}, \"output_digest\": \"{:#018x}\", \"tail_percentile\": {}",
        r.kind.name(),
        r.smoke,
        r.seed,
        r.threads,
        r.warmup_jobs,
        r.passes,
        r.attempted,
        r.failed,
        r.correct(),
        r.output_digest,
        r.tail_pct,
    );
    let problems: Vec<String> = r
        .problems
        .iter()
        .map(|p| format!("\"{}\"", json::escape(p)))
        .collect();
    let _ = write!(s, ", \"problems\": [{}]", problems.join(", "));
    s.push_str(",\n  \"metrics\": {");
    for (i, (m, sum)) in r.metrics.iter().enumerate() {
        let samples: Vec<String> = sum.samples.iter().map(|&v| num(v)).collect();
        let _ = write!(
            s,
            "{}\n    \"{}\": {{\"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}, \
             \"median\": {}, \"q1\": {}, \"q3\": {}, \"n\": {}, \"samples\": [{}]}}",
            if i == 0 { "" } else { "," },
            m.name,
            m.unit,
            m.better.name(),
            num(m.bound),
            num(sum.median),
            num(sum.q1),
            num(sum.q3),
            sum.samples.len(),
            samples.join(", ")
        );
    }
    s.push_str("},\n  \"diag\": {");
    let diag: Vec<String> = r
        .diag
        .iter()
        .map(|(n, v)| format!("\"{}\": {}", json::escape(n), num(*v)))
        .collect();
    s.push_str(&diag.join(", "));
    s.push_str("},\n  \"layers\": {");
    for (i, (name, unit, v)) in r.layers.iter().enumerate() {
        let _ = write!(
            s,
            "{}\n    \"{name}\": {{\"unit\": \"{unit}\", \"value\": {}}}",
            if i == 0 { "" } else { "," },
            num(*v)
        );
    }
    s.push_str("},\n  \"spans\": [");
    for (i, sp) in r.spans.iter().enumerate() {
        let _ = write!(
            s,
            "{}\n    {{\"id\": {}, \"parent\": {}, \"name\": \"{}\", \"job\": \"{}\", \
             \"start_ns\": {}, \"dur_ns\": {}}}",
            if i == 0 { "" } else { "," },
            sp.id,
            sp.parent.map_or("null".to_string(), |p| p.to_string()),
            sp.name,
            json::escape(&sp.job),
            sp.start_ns,
            sp.dur_ns
        );
    }
    s.push_str("]}");
    s
}

/// The report document: host facts plus one object per workload.
pub fn document(parts: &[(String, String)]) -> String {
    let cpus = std::thread::available_parallelism().map_or(0, |n| n.get());
    let mut s = format!(
        "{{\"schema\": 1, \"tool\": \"pl-perf\", \"host\": {{\"available_parallelism\": {cpus}, \
         \"os\": \"{}\", \"arch\": \"{}\"}},\n\"workloads\": {{",
        std::env::consts::OS,
        std::env::consts::ARCH
    );
    for (i, (name, body)) in parts.iter().enumerate() {
        let _ = write!(s, "{}\n\"{name}\": {body}", if i == 0 { "" } else { "," });
    }
    s.push_str("\n}}\n");
    s
}

/// Renders a parsed value back to JSON (object keys sorted).
pub fn to_json(v: &Value) -> String {
    match v {
        Value::Null => "null".to_string(),
        Value::Bool(b) => b.to_string(),
        Value::Num(n) => num(*n),
        Value::Str(s) => format!("\"{}\"", json::escape(s)),
        Value::Arr(items) => {
            let items: Vec<String> = items.iter().map(to_json).collect();
            format!("[{}]", items.join(", "))
        }
        Value::Obj(m) => {
            let fields: Vec<String> = m
                .iter()
                .map(|(k, v)| format!("\"{}\": {}", json::escape(k), to_json(v)))
                .collect();
            format!("{{{}}}", fields.join(", "))
        }
    }
}

fn field<'a>(v: &'a Value, path: &[&str]) -> Option<&'a Value> {
    path.iter().try_fold(v, |v, k| v.get(k))
}

/// The one-line result the benchmark prints last: `correct`,
/// `attempted`, `failed`, and the `BENCHMARK.json` metrics — end-to-end
/// medians, or the gated per-layer values of a traced run. With several
/// workloads each metric name is prefixed `<workload>/`.
pub fn result_line(workloads: &[(String, Value)], trace: bool) -> String {
    let mut correct = !workloads.is_empty();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut metrics: Vec<String> = Vec::new();
    for (name, w) in workloads {
        let count = |k: &str| w.get(k).and_then(Value::as_f64).unwrap_or(0.0) as u64;
        attempted += count("attempted");
        failed += count("failed");
        correct &= w.get("correct").and_then(Value::as_bool) == Some(true);
        let prefix = if workloads.len() > 1 {
            format!("{name}/")
        } else {
            String::new()
        };
        let mut push = |metric: &str, unit: &str, value: Option<f64>| {
            match value {
                Some(v) => metrics.push(format!(
                    "\"{prefix}{metric}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    num(v)
                )),
                None => correct = false,
            };
        };
        if trace {
            for (metric, unit) in GATED_LAYER_METRICS {
                push(
                    metric,
                    unit,
                    field(w, &["layers", metric, "value"]).and_then(Value::as_f64),
                );
            }
        } else {
            for m in END_TO_END.iter().filter(|m| m.gated) {
                push(
                    m.name,
                    m.unit,
                    field(w, &["metrics", m.name, "median"]).and_then(Value::as_f64),
                );
            }
        }
    }
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        metrics.join(", ")
    )
}

/// Every workload object of a parsed report document, by name.
pub fn workloads_of(doc: &Value) -> Vec<(String, Value)> {
    match doc.get("workloads") {
        Some(Value::Obj(m)) => m.iter().map(|(k, v)| (k.clone(), v.clone())).collect(),
        _ => Vec::new(),
    }
}

/// One side of a comparison: every sample of a (workload, metric), and
/// every output digest of a workload, concatenated over its reports.
#[derive(Default)]
struct Side {
    samples: Vec<(String, String, Vec<f64>)>,
    digests: Vec<(String, String)>,
}

impl Side {
    fn load(docs: &[Value]) -> Side {
        let mut side = Side::default();
        for doc in docs {
            for (w, body) in workloads_of(doc) {
                if let Some(d) = body.get("output_digest").and_then(Value::as_str) {
                    side.digests.push((w.clone(), d.to_string()));
                }
                for m in &END_TO_END {
                    let Some(samples) =
                        field(&body, &["metrics", m.name, "samples"]).and_then(Value::as_arr)
                    else {
                        continue;
                    };
                    let values = samples.iter().filter_map(Value::as_f64);
                    match side
                        .samples
                        .iter_mut()
                        .find(|(sw, sm, _)| *sw == w && sm == m.name)
                    {
                        Some((_, _, v)) => v.extend(values),
                        None => {
                            side.samples
                                .push((w.clone(), m.name.to_string(), values.collect()))
                        }
                    }
                }
            }
        }
        side
    }

    fn get(&self, w: &str, m: &str) -> Option<&[f64]> {
        self.samples
            .iter()
            .find(|(sw, sm, _)| sw == w && sm == m)
            .map(|(_, _, v)| v.as_slice())
    }
}

/// Verdict of one (workload, metric) under the pair rule.
fn verdict(parent: &[f64], change: &[f64], better: Better, bound: f64) -> (String, usize, usize) {
    let p = Summary::of(parent.to_vec());
    let c = Summary::of(change.to_vec());
    let improves = |a: f64, b: f64| match better {
        Better::Lower => a < b,
        Better::Higher => a > b,
    };
    let pairs = parent.len().min(change.len());
    let wins = (0..pairs)
        .filter(|&i| improves(change[i], parent[i]))
        .count();
    let worse_by = if p.median == 0.0 {
        if improves(p.median, c.median) {
            f64::INFINITY
        } else {
            0.0
        }
    } else {
        match better {
            Better::Lower => (c.median - p.median) / p.median.abs(),
            Better::Higher => (p.median - c.median) / p.median.abs(),
        }
    };
    let all_better = change
        .iter()
        .all(|&cv| parent.iter().all(|&pv| improves(cv, pv)));
    let v = if p.spread() > bound && !all_better {
        "unresolved"
    } else if worse_by > bound {
        "REGRESSION"
    } else if pairs >= 10 && wins * 10 >= pairs * 9 && (c.median - p.median).abs() > p.q3 - p.q1 {
        "gain"
    } else {
        "no change"
    };
    (v.to_string(), wins, pairs)
}

/// `pl-perf compare`: per (workload, metric), each side's median and
/// quartiles, the change's wins over index-paired samples, and a verdict
/// by the pair rule — a gain needs at least 9 of 10 pairs won and a
/// median shift beyond the parent's interquartile distance; a worsening
/// beyond the metric's bound is a regression; a parent spread beyond the
/// bound leaves the metric unresolved unless every change sample beats
/// every parent sample. Returns the table and whether the change passes
/// (no regression and identical output digests).
pub fn compare(parents: &[Value], changes: &[Value]) -> (String, bool) {
    let (p, c) = (Side::load(parents), Side::load(changes));
    let mut out = String::new();
    let mut ok = true;
    let _ = writeln!(
        out,
        "{:<10} {:<17} {:>30} {:>30} {:>8} {:>6}  verdict",
        "workload", "metric", "parent median [q1, q3]", "change median [q1, q3]", "delta", "wins"
    );
    let mut workloads: Vec<&String> = p.samples.iter().map(|(w, _, _)| w).collect();
    workloads.dedup();
    for w in workloads {
        for m in &END_TO_END {
            let (Some(ps), Some(cs)) = (p.get(w, m.name), c.get(w, m.name)) else {
                continue;
            };
            if ps.is_empty() || cs.is_empty() {
                continue;
            }
            let (v, wins, pairs) = verdict(ps, cs, m.better, m.bound);
            ok &= v != "REGRESSION";
            let (sp, sc) = (Summary::of(ps.to_vec()), Summary::of(cs.to_vec()));
            let delta = if sp.median != 0.0 {
                format!("{:+.1}%", (sc.median - sp.median) / sp.median.abs() * 100.0)
            } else {
                "n/a".to_string()
            };
            let _ = writeln!(
                out,
                "{:<10} {:<17} {:>30} {:>30} {:>8} {:>6}  {v}",
                w,
                m.name,
                format!("{:.4} [{:.4}, {:.4}]", sp.median, sp.q1, sp.q3),
                format!("{:.4} [{:.4}, {:.4}]", sc.median, sc.q1, sc.q3),
                delta,
                format!("{wins}/{pairs}"),
            );
        }
        let digests = |side: &Side| -> Vec<String> {
            let mut d: Vec<String> = side
                .digests
                .iter()
                .filter(|(dw, _)| dw == w)
                .map(|(_, d)| d.clone())
                .collect();
            d.dedup();
            d
        };
        let (pd, cd) = (digests(&p), digests(&c));
        let same = pd.len() == 1 && pd == cd;
        ok &= same;
        let _ = writeln!(
            out,
            "{:<10} {:<17} {:>30} {:>30}  {}",
            w,
            "output_digest",
            pd.join(","),
            cd.join(","),
            if same { "identical" } else { "DIFFERS" }
        );
    }
    (out, ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn series(base: f64, step: f64) -> Vec<f64> {
        (0..10).map(|i| base + step * f64::from(i % 3)).collect()
    }

    #[test]
    fn pair_rule_verdicts() {
        let parent = series(10.0, 0.05);
        let v = |change: &[f64], better| verdict(&parent, change, better, 0.10).0;
        assert_eq!(v(&series(8.0, 0.05), Better::Lower), "gain");
        assert_eq!(v(&series(12.0, 0.05), Better::Lower), "REGRESSION");
        assert_eq!(v(&series(10.2, 0.05), Better::Lower), "no change");
        assert_eq!(v(&series(8.0, 0.05), Better::Higher), "REGRESSION");
        let noisy = series(10.0, 2.0);
        assert_eq!(
            verdict(&noisy, &series(10.5, 2.0), Better::Lower, 0.10).0,
            "unresolved"
        );
    }

    #[test]
    fn zero_bound_metrics_flag_any_worsening() {
        let zeros = vec![0.0; 3];
        assert_eq!(verdict(&zeros, &zeros, Better::Lower, 0.0).0, "no change");
        assert_eq!(
            verdict(&zeros, &[0.0, 0.01, 0.0], Better::Lower, 0.0).0,
            "no change"
        );
        assert_eq!(
            verdict(&zeros, &[0.02, 0.01, 0.03], Better::Lower, 0.0).0,
            "REGRESSION"
        );
    }
}
