//! The `lint.toml` workspace contract: the declared crate layering DAG.
//!
//! The file is the same TOML subset as `lint.allow`: one `[layering]`
//! table whose keys are short crate names (the directory under `crates/`,
//! plus `aipan` for the umbrella package at the workspace root) and whose
//! values are string arrays naming the workspace crates each one may
//! import:
//!
//! ```toml
//! [layering]
//! taxonomy = []
//! net      = []
//! webgen   = ["taxonomy", "net", "html"]
//! ```
//!
//! The `L1` rule (see [`crate::graph`]) checks every `aipan_*` reference
//! in every source file against this table. The table itself is validated
//! at parse time: every referenced crate must be declared, and the
//! declared graph must be acyclic — a layering contract with a cycle
//! defines no layers at all.

use crate::allow::strip_comment;
use std::collections::{BTreeMap, BTreeSet};

/// Parsed `lint.toml` contents.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Config {
    /// Allowed workspace imports per short crate name.
    pub layering: BTreeMap<String, Vec<String>>,
}

/// Error produced for a malformed or inconsistent `lint.toml`.
#[derive(Debug, Clone, PartialEq)]
pub struct ConfigError {
    /// 1-based line in `lint.toml` (0 for whole-file errors).
    pub line: u32,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "lint.toml:{}: {}", self.line, self.message)
    }
}

impl Config {
    /// Parse and validate the `lint.toml` format.
    pub fn parse(text: &str) -> Result<Config, ConfigError> {
        let mut layering: BTreeMap<String, Vec<String>> = BTreeMap::new();
        let mut in_layering = false;
        for (idx, raw) in text.lines().enumerate() {
            let lineno = idx as u32 + 1;
            let line = strip_comment(raw).trim();
            if line.is_empty() {
                continue;
            }
            if line.starts_with('[') {
                in_layering = line == "[layering]";
                if !in_layering {
                    return Err(ConfigError {
                        line: lineno,
                        message: format!("unknown section `{line}` (expected [layering])"),
                    });
                }
                continue;
            }
            if !in_layering {
                return Err(ConfigError {
                    line: lineno,
                    message: "key outside any section (expected [layering] first)".to_string(),
                });
            }
            let Some((key, value)) = line.split_once('=') else {
                return Err(ConfigError {
                    line: lineno,
                    message: format!("expected `crate = [\"dep\", ...]`, got `{line}`"),
                });
            };
            let key = key.trim().to_string();
            if layering.contains_key(&key) {
                return Err(ConfigError {
                    line: lineno,
                    message: format!("crate `{key}` declared twice"),
                });
            }
            layering.insert(key, parse_string_array(value.trim(), lineno)?);
        }
        let config = Config { layering };
        config.validate()?;
        Ok(config)
    }

    /// Whether crate `from` may import crate `to` under the contract.
    /// Self-imports (integration tests naming their own crate) are always
    /// allowed; crates absent from the table allow nothing.
    pub fn allows(&self, from: &str, to: &str) -> bool {
        if from == to {
            return true;
        }
        self.layering
            .get(from)
            .is_some_and(|deps| deps.iter().any(|d| d == to))
    }

    /// Whether a crate is declared in the contract at all.
    pub fn declares(&self, name: &str) -> bool {
        self.layering.contains_key(name)
    }

    /// Validate internal consistency: declared deps must themselves be
    /// declared, and the graph must be acyclic.
    fn validate(&self) -> Result<(), ConfigError> {
        for (name, deps) in &self.layering {
            for dep in deps {
                if !self.layering.contains_key(dep) {
                    return Err(ConfigError {
                        line: 0,
                        message: format!(
                            "crate `{name}` lists undeclared dependency `{dep}`; every \
                             dependency must have its own [layering] entry"
                        ),
                    });
                }
                if dep == name {
                    return Err(ConfigError {
                        line: 0,
                        message: format!("crate `{name}` lists itself as a dependency"),
                    });
                }
            }
        }
        if let Some(cycle) = self.find_cycle() {
            return Err(ConfigError {
                line: 0,
                message: format!(
                    "layering contract contains a cycle: {} — a cyclic contract defines no \
                     layers",
                    cycle.join(" -> ")
                ),
            });
        }
        Ok(())
    }

    /// First dependency cycle in the declared graph, as a closed path.
    fn find_cycle(&self) -> Option<Vec<String>> {
        #[derive(Clone, Copy, PartialEq)]
        enum Mark {
            White,
            Grey,
            Black,
        }
        let mut marks: BTreeMap<&str, Mark> = self
            .layering
            .keys()
            .map(|k| (k.as_str(), Mark::White))
            .collect();
        for start in self.layering.keys() {
            if marks.get(start.as_str()) != Some(&Mark::White) {
                continue;
            }
            // Iterative DFS with an explicit path stack.
            let mut stack: Vec<(&str, usize)> = vec![(start.as_str(), 0)];
            while let Some(&(node, edge)) = stack.last() {
                if edge == 0 {
                    marks.insert(node, Mark::Grey);
                }
                let deps = self.layering.get(node).map(Vec::as_slice).unwrap_or(&[]);
                if edge < deps.len() {
                    if let Some(last) = stack.last_mut() {
                        last.1 += 1;
                    }
                    let next = deps[edge].as_str();
                    match marks.get(next) {
                        Some(Mark::Grey) => {
                            // Found a back edge: the path from `next` to
                            // `node` plus this edge closes the cycle.
                            let mut cycle: Vec<String> = stack
                                .iter()
                                .map(|(n, _)| n.to_string())
                                .skip_while(|n| n != next)
                                .collect();
                            cycle.push(next.to_string());
                            return Some(cycle);
                        }
                        Some(Mark::White) => stack.push((next, 0)),
                        _ => {}
                    }
                } else {
                    marks.insert(node, Mark::Black);
                    stack.pop();
                }
            }
        }
        None
    }
}

fn parse_string_array(value: &str, lineno: u32) -> Result<Vec<String>, ConfigError> {
    let v = value.trim();
    if !v.starts_with('[') || !v.ends_with(']') {
        return Err(ConfigError {
            line: lineno,
            message: format!("expected a string array `[\"a\", \"b\"]`, got `{value}`"),
        });
    }
    let inner = v[1..v.len() - 1].trim();
    if inner.is_empty() {
        return Ok(Vec::new());
    }
    let mut out = Vec::new();
    let mut seen = BTreeSet::new();
    for part in inner.split(',') {
        let p = part.trim();
        if p.is_empty() {
            continue;
        }
        if p.len() >= 2 && p.starts_with('"') && p.ends_with('"') {
            let name = p[1..p.len() - 1].to_string();
            if !seen.insert(name.clone()) {
                return Err(ConfigError {
                    line: lineno,
                    message: format!("duplicate dependency `{name}` in array"),
                });
            }
            out.push(name);
        } else {
            return Err(ConfigError {
                line: lineno,
                message: format!("expected a double-quoted string, got `{p}`"),
            });
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"
# layering contract
[layering]
taxonomy = []
net = []
webgen = ["taxonomy", "net"]
crawler = ["webgen", "net"]
"#;

    #[test]
    fn parses_and_answers_allows() {
        let c = Config::parse(SAMPLE).unwrap();
        assert!(c.allows("webgen", "taxonomy"));
        assert!(c.allows("webgen", "webgen"), "self always allowed");
        assert!(!c.allows("taxonomy", "webgen"), "direction matters");
        assert!(!c.allows("net", "taxonomy"), "not declared");
        assert!(c.declares("crawler"));
        assert!(!c.declares("ghost"));
    }

    #[test]
    fn rejects_undeclared_dependency() {
        let err = Config::parse("[layering]\na = [\"ghost\"]\n").unwrap_err();
        assert!(err.message.contains("undeclared"), "{err}");
    }

    #[test]
    fn rejects_cycles_and_self_loops() {
        let err = Config::parse("[layering]\na = [\"b\"]\nb = [\"c\"]\nc = [\"a\"]\n").unwrap_err();
        assert!(err.message.contains("cycle"), "{err}");
        assert!(err.message.contains("a -> b -> c -> a"), "{err}");
        let err = Config::parse("[layering]\na = [\"a\"]\n").unwrap_err();
        assert!(err.message.contains("itself"), "{err}");
    }

    #[test]
    fn rejects_malformed_lines() {
        assert!(
            Config::parse("taxonomy = []").is_err(),
            "key before section"
        );
        assert!(Config::parse("[other]\n").is_err(), "unknown section");
        assert!(Config::parse("[layering]\nwhat is this\n").is_err());
        assert!(Config::parse("[layering]\na = [unquoted]\n").is_err());
        assert!(
            Config::parse("[layering]\na = []\na = []\n").is_err(),
            "dup"
        );
        assert!(Config::parse("[layering]\na = [\"b\", \"b\"]\n").is_err());
    }

    #[test]
    fn empty_file_is_an_empty_contract() {
        let c = Config::parse("# nothing\n").unwrap();
        assert!(c.layering.is_empty());
        assert!(!c.allows("a", "b"));
        assert!(c.allows("a", "a"));
    }
}
