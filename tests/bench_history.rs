//! The performance ledger `BENCH_history.json` names only what the
//! benchmark measures, and every entry carries its pairs.
//!
//! Each performance change appends one entry per workload, input and
//! claimed metric. This test checks every entry against `BENCHMARK.json`:
//! the workload and the metric exist there, at least one parent/change
//! pair was run, the change won no more pairs than were run, and both
//! sides give a median, with quartiles in order where they are recorded.

use serde_json::Value;
use std::collections::BTreeSet;

fn read(name: &str) -> Value {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(name);
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {name}: {e}"));
    serde_json::from_str(&text).unwrap_or_else(|e| panic!("parse {name}: {e}"))
}

/// The `name` of every object in `benchmark[key]`.
fn names(benchmark: &Value, key: &str) -> BTreeSet<String> {
    let list = benchmark.get(key).and_then(Value::as_array);
    let list = list.unwrap_or_else(|| panic!("BENCHMARK.json has no {key} list"));
    list.iter()
        .map(|item| item.get("name").and_then(Value::as_str).expect("a name"))
        .map(str::to_string)
        .collect()
}

/// The median of one side, after checking its quartiles.
fn side(entry: &Value, key: &str, at: &str) -> f64 {
    let side = entry.get(key).unwrap_or_else(|| panic!("{at}: no {key}"));
    let number = |field: &str| side.get(field).and_then(Value::as_f64);
    let median = number("median").unwrap_or_else(|| panic!("{at}: {key} has no median"));
    if let (Some(q1), Some(q3)) = (number("q1"), number("q3")) {
        assert!(
            q1 <= median && median <= q3,
            "{at}: {key} quartiles out of order"
        );
    }
    assert_eq!(
        number("q1").is_some(),
        number("q3").is_some(),
        "{at}: {key} gives one quartile"
    );
    assert!(
        number("iqr").is_none_or(|iqr| iqr >= 0.0),
        "{at}: {key} iqr"
    );
    median
}

#[test]
fn every_entry_names_a_benchmark_metric_and_carries_its_pairs() {
    let benchmark = read("BENCHMARK.json");
    let workloads = names(&benchmark, "workloads");
    let mut metrics = names(&benchmark, "end_to_end");
    metrics.extend(names(&benchmark, "per_layer"));

    let history = read("BENCH_history.json");
    let entries = history.get("entries").and_then(Value::as_array);
    let entries = entries.expect("BENCH_history.json has an entries list");
    assert!(!entries.is_empty());
    let mut seen = BTreeSet::new();
    for (i, entry) in entries.iter().enumerate() {
        let text = |field: &str| entry.get(field).and_then(Value::as_str);
        let count = |field: &str| entry.get(field).and_then(Value::as_u64);
        let at = format!("entry {i}");
        let pr = count("pr").unwrap_or_else(|| panic!("{at}: no pr"));
        let workload = text("workload").unwrap_or_else(|| panic!("{at}: no workload"));
        let metric = text("metric").unwrap_or_else(|| panic!("{at}: no metric"));
        let input = text("input").unwrap_or_else(|| panic!("{at}: no input"));
        assert!(
            workloads.contains(workload),
            "{at}: unknown workload {workload}"
        );
        assert!(metrics.contains(metric), "{at}: unknown metric {metric}");
        assert!(!input.is_empty(), "{at}: empty input");
        assert!(
            seen.insert((pr, workload, input, metric)),
            "{at}: a second entry for PR {pr} {workload} {input} {metric}"
        );
        let pairs = count("pairs").unwrap_or_else(|| panic!("{at}: no pairs"));
        let wins = count("wins").unwrap_or_else(|| panic!("{at}: no wins"));
        assert!(pairs >= 1, "{at}: no pair was run");
        assert!(wins <= pairs, "{at}: {wins} wins in {pairs} pairs");
        assert!(count("seconds").is_some_and(|s| s > 0), "{at}: run length");
        let held_out = entry.get("held_out").and_then(Value::as_bool);
        assert!(held_out.is_some(), "{at}: no held_out flag");
        side(entry, "parent", &at);
        side(entry, "change", &at);
    }
}
