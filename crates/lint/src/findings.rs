//! The finding model shared by rule passes, invariant checks, and reporters.

use serde::Serialize;

/// How severe a finding is; `Deny` findings always fail the lint,
/// `Warn` findings fail only under `--deny-warnings`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize)]
pub enum Severity {
    /// Advisory; fails the run only under `--deny-warnings`.
    Warn,
    /// Always fails the run unless allowlisted.
    Deny,
}

impl Severity {
    /// Lower-case display name (`"warn"` / `"deny"`).
    pub fn name(self) -> &'static str {
        match self {
            Severity::Warn => "warn",
            Severity::Deny => "deny",
        }
    }
}

/// One lint finding, pointing at a file/line/column with a rule ID.
///
/// Data-invariant findings (taxonomy checks) point at the vocabulary source
/// file with line 0 — they describe table contents, not a specific line.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Finding {
    /// Stable rule identifier (`D1`, `R1`, `T1`, ...).
    pub rule: &'static str,
    /// Severity class of the rule that fired.
    pub severity: Severity,
    /// Workspace-relative path with forward slashes.
    pub file: String,
    /// 1-based line, or 0 for whole-file/data findings.
    pub line: u32,
    /// 1-based column, or 0 when not applicable.
    pub col: u32,
    /// Human-readable description of the violation.
    pub message: String,
    /// Offending source line (or table entry), trimmed; may be empty.
    pub snippet: String,
}

impl Finding {
    /// Build a finding at an explicit position.
    pub fn at(
        rule: &'static str,
        severity: Severity,
        file: &str,
        line: u32,
        col: u32,
        message: String,
        snippet: String,
    ) -> Finding {
        Finding {
            rule,
            severity,
            file: file.to_string(),
            line,
            col,
            message,
            snippet,
        }
    }

    /// Build a whole-file (data-invariant) finding with no position.
    pub fn for_data(rule: &'static str, file: &str, message: String, snippet: String) -> Finding {
        Finding::at(rule, Severity::Deny, file, 0, 0, message, snippet)
    }
}

/// Deterministic ordering for reports: by file, then line, column, rule.
pub fn sort_findings(findings: &mut [Finding]) {
    findings.sort_by(|a, b| {
        (a.file.as_str(), a.line, a.col, a.rule).cmp(&(b.file.as_str(), b.line, b.col, b.rule))
    });
}
