//! Rendering lint results: human diff-style text and machine-readable
//! JSON.
//!
//! The JSON form is the CI surface (`cargo lint -- --format json`), so
//! its shape is deliberately rigid: object members are emitted from
//! `BTreeMap`s, i.e. in sorted key order, and arrays in the report's
//! deterministic finding order — two runs over the same tree produce
//! byte-identical output.

use crate::findings::{Finding, Severity};
use crate::scan::Report;
use serde::{Serialize, Value};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Render findings in a diff-style human format:
///
/// ```text
/// crates/net/src/url.rs:88:21: deny R1: `unwrap` can panic in library code...
///    |
/// 88 |         let host = parts.next().unwrap();
///    |
/// ```
pub fn human(report: &Report, deny_warnings: bool) -> String {
    let mut out = String::new();
    for f in &report.findings {
        if f.line > 0 {
            let _ = writeln!(
                out,
                "{}:{}:{}: {} {}: {}",
                f.file,
                f.line,
                f.col,
                f.severity.name(),
                f.rule,
                f.message
            );
            if !f.snippet.is_empty() {
                let gutter = f.line.to_string();
                let pad = " ".repeat(gutter.len());
                let _ = writeln!(out, "{pad} |");
                let _ = writeln!(out, "{gutter} | {}", f.snippet);
                let _ = writeln!(out, "{pad} |");
            }
        } else {
            let _ = writeln!(
                out,
                "{}: {} {}: {}",
                f.file,
                f.severity.name(),
                f.rule,
                f.message
            );
            if !f.snippet.is_empty() {
                let _ = writeln!(out, "  | {}", f.snippet);
            }
        }
    }
    let denies = report
        .findings
        .iter()
        .filter(|f| f.severity == Severity::Deny)
        .count();
    let warns = report.findings.len() - denies;
    let _ = writeln!(
        out,
        "aipan-lint: {} file(s) scanned, {denies} deny, {warns} warn ({} allowlisted) — {}",
        report.files_scanned,
        report.suppressed.len(),
        if report.failed(deny_warnings) {
            "FAIL"
        } else {
            "ok"
        }
    );
    out
}

/// JSON shape version: 5 gives each finding exactly the seven members
/// `finding_value` writes; 4 carried an eighth, `fix`, and introduced the
/// type- and effect-aware vocabulary (`N1`/`N2`/`A1`/`F1`).
pub const SCHEMA_VERSION: u64 = 5;

/// Render the report as a single JSON object with sorted member order:
/// `{"files_scanned": N, "findings": [...], "schema_version": 5,
/// "suppressed": [...]}`.
pub fn json(report: &Report) -> String {
    let obj = sorted_object(vec![
        ("files_scanned", (report.files_scanned as u64).to_value()),
        ("findings", findings_value(&report.findings)),
        ("schema_version", SCHEMA_VERSION.to_value()),
        ("suppressed", findings_value(&report.suppressed)),
    ]);
    serde_json::to_string_pretty(&obj).unwrap_or_else(|_| obj.to_string())
}

/// Build an object whose members are sorted by key via a `BTreeMap`, so
/// field order can never depend on struct declaration or insertion order.
fn sorted_object(members: Vec<(&str, Value)>) -> Value {
    let map: BTreeMap<String, Value> = members
        .into_iter()
        .map(|(k, v)| (k.to_string(), v))
        .collect();
    Value::Object(map.into_iter().collect())
}

fn findings_value(findings: &[Finding]) -> Value {
    Value::Array(findings.iter().map(finding_value).collect())
}

fn finding_value(f: &Finding) -> Value {
    sorted_object(vec![
        ("col", (f.col as u64).to_value()),
        ("file", f.file.to_value()),
        ("line", (f.line as u64).to_value()),
        ("message", f.message.to_value()),
        ("rule", f.rule.to_value()),
        ("severity", f.severity.name().to_value()),
        ("snippet", f.snippet.to_value()),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::findings::Finding;

    fn sample_report() -> Report {
        Report {
            findings: vec![
                Finding::at(
                    "R1",
                    Severity::Deny,
                    "crates/x/src/a.rs",
                    12,
                    9,
                    "`unwrap` can panic".to_string(),
                    "let v = o.unwrap();".to_string(),
                ),
                Finding::for_data(
                    "T2",
                    "crates/taxonomy/src/rights.rs",
                    "dup".to_string(),
                    String::new(),
                ),
            ],
            suppressed: Vec::new(),
            files_scanned: 3,
        }
    }

    #[test]
    fn human_format_names_file_line_rule() {
        let text = human(&sample_report(), false);
        assert!(text.contains("crates/x/src/a.rs:12:9: deny R1:"), "{text}");
        assert!(text.contains("12 | let v = o.unwrap();"), "{text}");
        assert!(text.contains("2 deny, 0 warn"), "{text}");
        assert!(text.contains("FAIL"), "{text}");
    }

    #[test]
    fn json_is_parseable_and_complete() {
        let text = json(&sample_report());
        let v: Value = serde_json::from_str(&text).expect("valid JSON");
        assert_eq!(v.field("files_scanned").unwrap().as_u64(), Some(3));
        let findings = v.field("findings").unwrap().as_array().expect("array");
        assert_eq!(findings.len(), 2);
        assert_eq!(findings[0].field("rule").unwrap().as_str(), Some("R1"));
        assert_eq!(findings[0].field("line").unwrap().as_u64(), Some(12));
        assert_eq!(
            findings[0].field("severity").unwrap().as_str(),
            Some("deny")
        );
    }

    #[test]
    fn json_member_order_is_sorted_and_stable() {
        let text = json(&sample_report());
        // Top-level keys in sorted order.
        let fs = text.find("\"files_scanned\"").expect("files_scanned key");
        let fi = text.find("\"findings\"").expect("findings key");
        let sv = text.find("\"schema_version\"").expect("schema_version key");
        let su = text.find("\"suppressed\"").expect("suppressed key");
        assert!(
            fs < fi && fi < sv && sv < su,
            "top-level keys must be sorted"
        );
        // Finding keys in sorted order: col < file < line < message
        // < rule < severity < snippet within the first finding object.
        let first = &text[fi..sv];
        let positions: Vec<usize> = [
            "col", "file", "line", "message", "rule", "severity", "snippet",
        ]
        .iter()
        .map(|k| first.find(&format!("\"{k}\"")).expect("finding key"))
        .collect();
        let mut sorted = positions.clone();
        sorted.sort_unstable();
        assert_eq!(positions, sorted, "finding keys must be sorted");
        // Byte-identical across renders.
        assert_eq!(text, json(&sample_report()));
    }
}
