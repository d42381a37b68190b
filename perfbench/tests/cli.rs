//! Runs the benchmark binary at tiny size and checks its output against
//! the metrics `BENCHMARK.json` declares.

use std::collections::BTreeMap;
use std::process::Command;

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// `(name, unit)` of every entry of one `BENCHMARK.json` list.
fn declared(section: &str) -> Vec<(String, String)> {
    let start = BENCHMARK_JSON
        .find(&format!("\"{section}\": ["))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {section} list"));
    let body = &BENCHMARK_JSON[start..];
    let body = &body[..body.find(']').expect("list is closed")];
    let field = |entry: &str, key: &str| -> Option<String> {
        let at = entry.find(&format!("\"{key}\": \""))? + key.len() + 5;
        Some(entry[at..at + entry[at..].find('"')?].to_owned())
    };
    body.split('{')
        .skip(1)
        .map(|entry| {
            let name = field(entry, "name").expect("entry has a name");
            (name, field(entry, "unit").unwrap_or_default())
        })
        .collect()
}

struct Run {
    correct: bool,
    failed: bool,
    /// Metric name → (value, unit), from the printed table.
    metrics: BTreeMap<String, (f64, String)>,
    order: Vec<(String, String)>,
}

fn run(workload: &str, seed: u64, trace: u8) -> Run {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args([
            "--seconds",
            "0.05",
            "--trace",
            &trace.to_string(),
            "--size",
            "tiny",
        ])
        .output()
        .expect("benchmark binary runs");
    assert!(
        out.status.success(),
        "{workload}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let mut lines: Vec<&str> = stdout.lines().collect();
    let last = lines.pop().expect("a result line");
    assert!(
        last.starts_with("{\"correct\": ") && last.ends_with("}}"),
        "{last}"
    );
    let mut metrics = BTreeMap::new();
    let mut order = Vec::new();
    for line in lines {
        let fields: Vec<&str> = line.split_whitespace().collect();
        let [name, value, unit] = fields[..] else {
            panic!("malformed line {line:?}")
        };
        let value: f64 = value.parse().expect("numeric value");
        assert!(
            last.contains(&format!("\"{name}\": {{\"value\": ")),
            "{name} missing from JSON"
        );
        order.push((name.to_owned(), unit.to_owned()));
        metrics.insert(name.to_owned(), (value, unit.to_owned()));
    }
    Run {
        correct: last.starts_with("{\"correct\": true,"),
        failed: !last.contains("\"failed\": 0,"),
        metrics,
        order,
    }
}

fn workloads() -> Vec<String> {
    declared("workloads")
        .into_iter()
        .map(|(name, _)| name)
        .collect()
}

/// Metrics that derive from the simulation and the seeded inputs alone,
/// not from the host clock or thread interleaving.
fn deterministic(name: &str, unit: &str) -> bool {
    name.contains("modeled")
        || ((unit == "count" || unit == "%")
            && !matches!(
                name,
                "core.par2.steals" | "trace_overhead_pct" | "ok_ops_pct"
            ))
}

#[test]
fn every_workload_prints_every_declared_metric_with_its_unit() {
    let end_to_end = declared("end_to_end");
    let per_layer = declared("per_layer");
    assert_eq!(workloads().len(), 3);
    for workload in workloads() {
        let untraced = run(&workload, 11, 0);
        assert!(untraced.correct && !untraced.failed, "{workload}");
        assert_eq!(untraced.order, end_to_end, "{workload}");
        for (name, (value, _)) in &untraced.metrics {
            assert!(*value > 0.0, "{workload}: end-to-end {name} reads {value}");
        }
        let traced = run(&workload, 11, 1);
        assert!(traced.correct && !traced.failed, "{workload}");
        assert_eq!(traced.order, per_layer, "{workload}");
    }
}

#[test]
fn modeled_metrics_repeat_across_invocations_and_a_second_seed_passes() {
    for workload in workloads() {
        let a = run(&workload, 23, 1);
        let b = run(&workload, 23, 1);
        for (name, (value, unit)) in &a.metrics {
            if deterministic(name, unit) {
                assert_eq!(
                    value.to_bits(),
                    b.metrics[name].0.to_bits(),
                    "{workload}: {name} differs across invocations"
                );
            }
        }
        let held_out = run(&workload, 4242, 1);
        assert!(held_out.correct && !held_out.failed, "{workload}");
    }
}

#[test]
fn bad_arguments_fail_without_a_result() {
    for args in [
        &["--workload", "nope", "--seed", "1"][..],
        &["--workload", "serve-zipf"][..],
        &["--workload", "serve-zipf", "--seed", "1", "--trace", "2"][..],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
            .args(args)
            .output()
            .expect("benchmark binary runs");
        assert!(!out.status.success(), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
    }
}
