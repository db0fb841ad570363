//! Snapshot of the `--format json` surface. CI and editor integrations
//! parse this output, so its schema — member names, sorted member
//! order, severity spelling, pretty-printing — is a compatibility
//! contract. A diff here is an intentional schema change: update the
//! snapshot *and* whatever consumes the JSON.

use aipan_lint::findings::{Finding, Severity};
use aipan_lint::report;
use aipan_lint::scan::Report;

fn sample_report() -> Report {
    Report {
        findings: vec![
            Finding::at(
                "X1",
                Severity::Deny,
                "crates/x/src/lib.rs",
                4,
                13,
                "panic reachable from pub fn `get`".to_string(),
                "xs[i]".to_string(),
            ),
            Finding::for_data(
                "T2",
                "crates/taxonomy/src/rights.rs",
                "duplicate canonical name".to_string(),
                String::new(),
            ),
        ],
        suppressed: Vec::new(),
        files_scanned: 2,
    }
}

/// The full rendered document, byte for byte. `schema_version` is 6:
/// each finding has exactly the seven members below, as at 5, and the
/// rule vocabulary no longer holds `B1`, `C2`, `M2`, `S2` or `W2` (4
/// carried an eighth member, `fix`, and introduced the
/// `N1`/`N2`/`A1`/`F1` rule vocabulary from the type/effect layer), so a
/// consumer pinned to 6 knows every member and rule it may meet.
const SNAPSHOT: &str = r#"{
  "files_scanned": 2,
  "findings": [
    {
      "col": 13,
      "file": "crates/x/src/lib.rs",
      "line": 4,
      "message": "panic reachable from pub fn `get`",
      "rule": "X1",
      "severity": "deny",
      "snippet": "xs[i]"
    },
    {
      "col": 0,
      "file": "crates/taxonomy/src/rights.rs",
      "line": 0,
      "message": "duplicate canonical name",
      "rule": "T2",
      "severity": "deny",
      "snippet": ""
    }
  ],
  "schema_version": 6,
  "suppressed": []
}"#;

#[test]
fn json_output_matches_schema_snapshot() {
    assert_eq!(
        report::json(&sample_report()),
        SNAPSHOT,
        "the --format json schema changed; update the snapshot and every consumer"
    );
}

#[test]
fn empty_report_keeps_all_members() {
    let empty = Report {
        findings: Vec::new(),
        suppressed: Vec::new(),
        files_scanned: 0,
    };
    let text = report::json(&empty);
    // Even an all-clean run must emit every top-level member, so
    // consumers never need `key in obj` guards.
    for key in ["files_scanned", "findings", "schema_version", "suppressed"] {
        assert!(text.contains(&format!("\"{key}\"")), "{text}");
    }
}
