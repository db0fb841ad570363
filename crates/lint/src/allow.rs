//! The `lint.allow` allowlist: vetted exceptions to lint rules.
//!
//! The file is a TOML subset — an array of `[[allow]]` tables with string
//! and integer values:
//!
//! ```toml
//! [[allow]]
//! rule = "R1"
//! file = "crates/html/src/entity.rs"
//! line = 42            # optional: any line in the file when omitted
//! reason = "static table lookup proven in-bounds by the build script"
//! ```
//!
//! Every entry MUST carry a non-empty `reason`; an allowlist without
//! justifications defeats its purpose, so entries missing one are rejected
//! at parse time. Unused entries are themselves reported (rule `A0`) so the
//! list cannot silently rot.

use crate::findings::{Finding, Severity};

/// One vetted exception.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct AllowEntry {
    /// Rule ID the exception applies to (`R1`, `D2`, ...).
    pub(crate) rule: String,
    /// Workspace-relative file the exception applies to.
    pub(crate) file: String,
    /// Specific line, or `None` to cover the whole file.
    pub(crate) line: Option<u32>,
    /// Mandatory justification.
    pub(crate) reason: String,
}

/// Parsed allowlist plus per-entry hit counters.
#[derive(Debug, Default)]
pub struct Allowlist {
    entries: Vec<AllowEntry>,
    hits: Vec<bool>,
}

/// Error produced for a malformed `lint.allow`.
#[derive(Debug, Clone, PartialEq)]
pub struct ParseError {
    /// 1-based line in `lint.allow`.
    pub line: u32,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "lint.allow:{}: {}", self.line, self.message)
    }
}

impl Allowlist {
    /// Parse the TOML-subset allowlist format.
    pub fn parse(text: &str) -> Result<Allowlist, ParseError> {
        let mut entries: Vec<AllowEntry> = Vec::new();
        let mut current: Option<(AllowEntry, u32)> = None;
        for (idx, raw) in text.lines().enumerate() {
            let lineno = idx as u32 + 1;
            let line = strip_comment(raw).trim();
            if line.is_empty() {
                continue;
            }
            if line == "[[allow]]" {
                if let Some((entry, at)) = current.take() {
                    entries.push(validate(entry, at)?);
                }
                current = Some((
                    AllowEntry {
                        rule: String::new(),
                        file: String::new(),
                        line: None,
                        reason: String::new(),
                    },
                    lineno,
                ));
                continue;
            }
            let Some((key, value)) = line.split_once('=') else {
                return Err(ParseError {
                    line: lineno,
                    message: format!("expected `key = value` or `[[allow]]`, got `{line}`"),
                });
            };
            let Some((entry, _)) = current.as_mut() else {
                return Err(ParseError {
                    line: lineno,
                    message: "key outside any [[allow]] table".to_string(),
                });
            };
            let key = key.trim();
            let value = value.trim();
            match key {
                "rule" => entry.rule = parse_string(value, lineno)?,
                "file" => entry.file = parse_string(value, lineno)?,
                "reason" => entry.reason = parse_string(value, lineno)?,
                "line" => {
                    entry.line = Some(value.parse::<u32>().map_err(|_| ParseError {
                        line: lineno,
                        message: format!("`line` must be an integer, got `{value}`"),
                    })?)
                }
                other => {
                    return Err(ParseError {
                        line: lineno,
                        message: format!("unknown key `{other}` (expected rule/file/line/reason)"),
                    })
                }
            }
        }
        if let Some((entry, at)) = current.take() {
            entries.push(validate(entry, at)?);
        }
        let hits = vec![false; entries.len()];
        Ok(Allowlist { entries, hits })
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the list is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Check a finding against the list, recording the hit. A finding is
    /// suppressed when an entry matches its rule + file (+ line, if pinned).
    pub fn permits(&mut self, finding: &Finding) -> bool {
        let mut hit = false;
        for (i, e) in self.entries.iter().enumerate() {
            if e.rule == finding.rule
                && e.file == finding.file
                && e.line.is_none_or(|l| l == finding.line)
            {
                if let Some(h) = self.hits.get_mut(i) {
                    *h = true;
                }
                hit = true;
            }
        }
        hit
    }

    /// Findings for entries that suppressed nothing this run (rule `A0`).
    pub fn unused(&self) -> Vec<Finding> {
        self.entries
            .iter()
            .zip(&self.hits)
            .filter(|(_, &hit)| !hit)
            .map(|(e, _)| {
                Finding::at(
                    "A0",
                    Severity::Warn,
                    "lint.allow",
                    0,
                    0,
                    format!(
                        "allowlist entry for {} in {} matched no finding; remove it",
                        e.rule, e.file
                    ),
                    format!("reason was: {}", e.reason),
                )
            })
            .collect()
    }
}

fn validate(entry: AllowEntry, at: u32) -> Result<AllowEntry, ParseError> {
    for (field, value) in [
        ("rule", &entry.rule),
        ("file", &entry.file),
        ("reason", &entry.reason),
    ] {
        if value.is_empty() {
            return Err(ParseError {
                line: at,
                message: format!("[[allow]] table is missing required key `{field}`"),
            });
        }
    }
    Ok(entry)
}

fn parse_string(value: &str, lineno: u32) -> Result<String, ParseError> {
    let v = value.trim();
    if v.len() >= 2 && v.starts_with('"') && v.ends_with('"') {
        Ok(v[1..v.len() - 1].to_string())
    } else {
        Err(ParseError {
            line: lineno,
            message: format!("expected a double-quoted string, got `{value}`"),
        })
    }
}

/// Strip a `#`-to-end-of-line comment, respecting quoted strings; shared
/// with the `lint.toml` parser in [`crate::config`], which reads the same
/// TOML subset.
pub(crate) fn strip_comment(line: &str) -> &str {
    let mut in_string = false;
    for (i, ch) in line.char_indices() {
        match ch {
            '"' => in_string = !in_string,
            '#' if !in_string => return &line[..i],
            _ => {}
        }
    }
    line
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"
# vetted exceptions
[[allow]]
rule = "R1"
file = "crates/x/src/a.rs"
line = 7
reason = "slice length checked two lines above"

[[allow]]
rule = "D2"  # whole file
file = "crates/x/src/b.rs"
reason = "iteration order irrelevant: feeds a counter"
"#;

    fn finding(rule: &'static str, file: &str, line: u32) -> Finding {
        Finding::at(
            rule,
            Severity::Deny,
            file,
            line,
            1,
            "m".into(),
            String::new(),
        )
    }

    #[test]
    fn parses_and_matches() {
        let mut list = Allowlist::parse(SAMPLE).unwrap();
        assert_eq!(list.len(), 2);
        assert!(list.permits(&finding("R1", "crates/x/src/a.rs", 7)));
        assert!(
            !list.permits(&finding("R1", "crates/x/src/a.rs", 8)),
            "line-pinned"
        );
        assert!(
            list.permits(&finding("D2", "crates/x/src/b.rs", 99)),
            "file-wide"
        );
        assert!(
            !list.permits(&finding("R1", "crates/x/src/b.rs", 99)),
            "rule mismatch"
        );
        assert!(list.unused().is_empty());
    }

    #[test]
    fn unused_entries_are_reported() {
        let list = Allowlist::parse(SAMPLE).unwrap();
        let unused = list.unused();
        assert_eq!(unused.len(), 2);
        assert_eq!(unused[0].rule, "A0");
        assert!(unused[0].message.contains("crates/x/src/a.rs"));
    }

    #[test]
    fn reason_is_mandatory() {
        let err = Allowlist::parse("[[allow]]\nrule = \"R1\"\nfile = \"f.rs\"\n").unwrap_err();
        assert!(err.message.contains("reason"), "{err}");
    }

    #[test]
    fn rejects_malformed_lines() {
        assert!(
            Allowlist::parse("rule = \"R1\"").is_err(),
            "key outside table"
        );
        assert!(Allowlist::parse("[[allow]]\nwhat is this").is_err());
        assert!(Allowlist::parse("[[allow]]\nline = \"seven\"").is_err());
        assert!(Allowlist::parse("[[allow]]\nrule = unquoted").is_err());
    }

    #[test]
    fn empty_file_is_an_empty_list() {
        let list = Allowlist::parse("# nothing here\n").unwrap();
        assert!(list.is_empty());
    }
}
