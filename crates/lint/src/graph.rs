//! The workspace item graph: every file parsed, every cross-crate
//! reference resolved to a short crate name, every public item indexed
//! against the identifiers the rest of the workspace mentions.
//!
//! Two rule passes live directly on the graph:
//!
//! | rule | severity | what it catches |
//! |------|----------|-----------------|
//! | `L1` | deny | a crate referencing a workspace crate the `lint.toml` layering contract does not grant it |
//! | `P1` | warn | a `pub` item whose name no other file in the workspace (tests included) mentions |
//!
//! `E1` (error flow) and `K1` (lock order) also consume the graph; see
//! [`crate::error_flow`] and [`crate::locks`].

use crate::config::Config;
use crate::findings::{Finding, Severity};
use crate::lexer::{lex, Token, TokenKind};
use crate::parser::{parse_tokens, Item, ItemKind, ParsedFile};
use crate::rules::FileClass;
use std::collections::{BTreeMap, BTreeSet};

/// One source file with everything the graph passes need.
#[derive(Debug)]
pub struct AnalyzedFile {
    /// Parsed item tree.
    pub parsed: ParsedFile,
    /// Short crate name: the directory under `crates/`, or `aipan` for
    /// the umbrella package rooted at `src/`/`tests/`/`examples/`.
    pub crate_name: String,
    /// Target classification (library / test / binary), as for the token
    /// rules.
    pub class: FileClass,
    /// Every identifier the file mentions — code idents plus words inside
    /// comments (so doc examples keep their subjects alive for `P1`).
    pub mentions: BTreeSet<String>,
    /// Workspace-crate references: `(short name, line, col)` for every
    /// `aipan_*` identifier in code.
    pub crate_refs: Vec<(String, u32, u32)>,
    /// The source text, kept whole (one allocation, not one per line)
    /// for finding snippets.
    pub text: String,
}

impl AnalyzedFile {
    /// Parse and index one file from its source and its token stream (as
    /// [`lex`] returns it), so a scan lexes each file once.
    pub(crate) fn from_tokens(rel_path: &str, src: &str, tokens: &[Token<'_>]) -> AnalyzedFile {
        let parsed = parse_tokens(rel_path, tokens);
        let mut mentions = BTreeSet::new();
        let mut mention = |name: &str| {
            if !mentions.contains(name) {
                mentions.insert(name.to_string());
            }
        };
        let mut crate_refs = Vec::new();
        for tok in tokens {
            match tok.kind {
                TokenKind::Ident => {
                    let name = tok.text.strip_prefix("r#").unwrap_or(tok.text);
                    mention(name);
                    if let Some(short) = name.strip_prefix("aipan_") {
                        crate_refs.push((short.to_string(), tok.line, tok.col));
                    }
                }
                TokenKind::LineComment | TokenKind::BlockComment => {
                    for word in tok
                        .text
                        .split(|c: char| !c.is_ascii_alphanumeric() && c != '_')
                    {
                        if !word.is_empty() {
                            mention(word);
                        }
                    }
                }
                _ => {}
            }
        }
        AnalyzedFile {
            crate_name: crate_of(rel_path),
            class: FileClass::classify(rel_path),
            mentions,
            crate_refs,
            text: src.to_string(),
            parsed,
        }
    }

    /// Trimmed source line for a 1-based line number.
    pub fn snippet(&self, line: u32) -> String {
        self.text
            .lines()
            .nth(line.saturating_sub(1) as usize)
            .map(|l| l.trim().to_string())
            .unwrap_or_default()
    }
}

/// The whole workspace, parsed and indexed.
#[derive(Debug, Default)]
pub struct Workspace {
    /// All analyzed files, in the (sorted) order they were supplied.
    pub files: Vec<AnalyzedFile>,
}

/// Short crate name for a workspace-relative path.
pub(crate) fn crate_of(rel_path: &str) -> String {
    rel_path
        .strip_prefix("crates/")
        .and_then(|rest| rest.split('/').next())
        .unwrap_or("aipan")
        .to_string()
}

impl Workspace {
    /// Parse and index a set of `(rel_path, source)` files.
    pub fn build(files: &[(String, String)]) -> Workspace {
        let files = files
            .iter()
            .map(|(rel_path, src)| AnalyzedFile::from_tokens(rel_path, src, &lex(src)))
            .collect();
        Workspace { files }
    }

    /// `L1`: every `aipan_*` reference must be granted by the layering
    /// contract, and every scanned crate must be declared in it.
    pub fn check_layering(&self, config: &Config) -> Vec<Finding> {
        let mut findings = Vec::new();
        let mut undeclared: BTreeMap<&str, &str> = BTreeMap::new();
        for file in &self.files {
            if !config.declares(&file.crate_name) {
                undeclared
                    .entry(file.crate_name.as_str())
                    .or_insert(file.parsed.rel_path.as_str());
                continue;
            }
            for (target, line, col) in &file.crate_refs {
                if !config.allows(&file.crate_name, target) {
                    findings.push(Finding::at(
                        "L1",
                        Severity::Deny,
                        &file.parsed.rel_path,
                        *line,
                        *col,
                        format!(
                            "crate `{}` references `aipan_{target}`, which the lint.toml \
                             layering contract does not grant it; either the dependency is an \
                             architecture violation or the contract needs a deliberate update",
                            file.crate_name
                        ),
                        file.snippet(*line),
                    ));
                }
            }
        }
        for (crate_name, first_file) in undeclared {
            findings.push(Finding::at(
                "L1",
                Severity::Deny,
                first_file,
                0,
                0,
                format!(
                    "crate `{crate_name}` is not declared in the lint.toml [layering] table; \
                     every scanned crate must state what it may import"
                ),
                String::new(),
            ));
        }
        findings
    }

    /// `P1`: dead public API surface, by mark-and-sweep.
    ///
    /// An item is *alive* when some other file in the workspace mentions
    /// its name (code, tests, or comments), or when an alive non-test item
    /// in the same file mentions it — so a row/return type nobody spells
    /// but every caller reaches through an alive fn survives, while a
    /// cluster of pub items that only reference each other (or are used
    /// solely by their own unit tests) is reported. Fix by deleting,
    /// shrinking visibility to `pub(crate)`, wiring the item in, or
    /// justifying the surface in `lint.allow`.
    pub fn check_dead_pub(&self) -> Vec<Finding> {
        // How many files mention each identifier, so "mentioned by another
        // file" is one lookup instead of a scan per candidate.
        let mut file_count: BTreeMap<&str, usize> = BTreeMap::new();
        for file in &self.files {
            for name in &file.mentions {
                *file_count.entry(name.as_str()).or_insert(0) += 1;
            }
        }
        let mentioned_elsewhere = |file: &AnalyzedFile, name: &str| {
            let total = file_count.get(name).copied().unwrap_or(0);
            let here = usize::from(file.mentions.contains(name));
            total > here
        };

        let mut findings = Vec::new();
        for file in &self.files {
            if !file.class.is_library_code() {
                continue;
            }
            // Propagation units: see `Item::propagates_liveness`.
            let units: Vec<&Item> = file
                .parsed
                .all_items()
                .into_iter()
                .filter(|i| i.propagates_liveness())
                .collect();
            let mut alive: Vec<bool> = units
                .iter()
                .map(|i| mentioned_elsewhere(file, &i.name))
                .collect();
            // Fixpoint: names referenced by alive units wake further units.
            loop {
                let alive_names: BTreeSet<&str> = units
                    .iter()
                    .zip(&alive)
                    .filter(|(_, &a)| a)
                    .flat_map(|(i, _)| i.idents.iter().map(String::as_str))
                    .collect();
                let mut changed = false;
                for (unit, is_alive) in units.iter().zip(alive.iter_mut()) {
                    if !*is_alive && alive_names.contains(unit.name.as_str()) {
                        *is_alive = true;
                        changed = true;
                    }
                }
                if !changed {
                    break;
                }
            }
            let alive_names: BTreeSet<&str> = units
                .iter()
                .zip(&alive)
                .filter(|(_, &a)| a)
                .map(|(i, _)| i.name.as_str())
                .collect();

            for candidate in pub_item_candidates(&file.parsed.items) {
                let name = candidate.name.as_str();
                if mentioned_elsewhere(file, name) || alive_names.contains(name) {
                    continue;
                }
                findings.push(Finding::at(
                    "P1",
                    Severity::Warn,
                    &file.parsed.rel_path,
                    candidate.line,
                    candidate.col,
                    format!(
                        "pub {} `{name}` is dead API surface: no other file mentions it and \
                         no live item in this file uses it (own unit tests do not count); \
                         delete it, reduce its visibility, or justify it in lint.allow",
                        kind_word(&candidate.kind)
                    ),
                    file.snippet(candidate.line),
                ));
            }
        }
        findings
    }
}

/// Collect `P1` candidates: pub items at module level (outside
/// `#[cfg(test)]`), plus pub fns in inherent impls. Trait-impl members are
/// excluded (their names are dictated by the trait), as are `main` and
/// underscore-prefixed names.
fn pub_item_candidates(items: &[Item]) -> Vec<&Item> {
    let mut out = Vec::new();
    collect_candidates(items, &mut out);
    out
}

fn collect_candidates<'a>(items: &'a [Item], out: &mut Vec<&'a Item>) {
    for item in items {
        if item.cfg_test {
            continue;
        }
        match &item.kind {
            ItemKind::Mod => collect_candidates(&item.children, out),
            ItemKind::Impl { of_trait, .. } => {
                if !of_trait {
                    for child in &item.children {
                        if child.is_pub
                            && matches!(child.kind, ItemKind::Fn(_))
                            && !child.cfg_test
                            && eligible_name(&child.name)
                        {
                            out.push(child);
                        }
                    }
                }
            }
            ItemKind::Fn(_)
            | ItemKind::Struct { .. }
            | ItemKind::Enum
            | ItemKind::Trait
            | ItemKind::Const
            | ItemKind::TypeAlias => {
                if item.is_pub && eligible_name(&item.name) {
                    out.push(item);
                }
            }
            ItemKind::Use { .. } | ItemKind::MacroDef => {}
        }
    }
}

fn eligible_name(name: &str) -> bool {
    !name.is_empty() && name != "main" && !name.starts_with('_')
}

fn kind_word(kind: &ItemKind) -> &'static str {
    match kind {
        ItemKind::Fn(_) => "fn",
        ItemKind::Struct { .. } => "struct",
        ItemKind::Enum => "enum",
        ItemKind::Trait => "trait",
        ItemKind::Const => "const",
        ItemKind::TypeAlias => "type alias",
        _ => "item",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ws(files: &[(&str, &str)]) -> Workspace {
        let owned: Vec<(String, String)> = files
            .iter()
            .map(|(p, s)| (p.to_string(), s.to_string()))
            .collect();
        Workspace::build(&owned)
    }

    fn contract(text: &str) -> Config {
        Config::parse(text).expect("test contract parses")
    }

    #[test]
    fn crate_of_maps_paths() {
        assert_eq!(crate_of("crates/net/src/url.rs"), "net");
        assert_eq!(crate_of("crates/lint/tests/t.rs"), "lint");
        assert_eq!(crate_of("src/lib.rs"), "aipan");
        assert_eq!(crate_of("tests/end_to_end.rs"), "aipan");
    }

    #[test]
    fn l1_fires_on_undeclared_import() {
        let w = ws(&[(
            "crates/taxonomy/src/lib.rs",
            "use aipan_crawler::Client;\npub fn f() {}\n",
        )]);
        let c = contract("[layering]\ntaxonomy = []\ncrawler = [\"taxonomy\"]\n");
        let f = w.check_layering(&c);
        assert_eq!(f.len(), 1);
        assert_eq!((f[0].rule, f[0].line), ("L1", 1));
        assert!(f[0].message.contains("aipan_crawler"));
    }

    #[test]
    fn l1_allows_contracted_and_self_imports() {
        let w = ws(&[
            (
                "crates/crawler/src/lib.rs",
                "use aipan_taxonomy::Aspect;\npub fn f() {}\n",
            ),
            (
                "crates/crawler/tests/t.rs",
                "use aipan_crawler::f;\n#[test]\nfn t() { f(); }\n",
            ),
        ]);
        let c = contract("[layering]\ntaxonomy = []\ncrawler = [\"taxonomy\"]\n");
        assert!(w.check_layering(&c).is_empty());
    }

    #[test]
    fn l1_flags_undeclared_crate() {
        let w = ws(&[("crates/ghost/src/lib.rs", "pub fn f() {}\n")]);
        let c = contract("[layering]\ntaxonomy = []\n");
        let f = w.check_layering(&c);
        assert_eq!(f.len(), 1);
        assert!(f[0].message.contains("not declared"));
    }

    #[test]
    fn p1_fires_only_when_nothing_else_references() {
        let w = ws(&[
            (
                "crates/x/src/lib.rs",
                "pub fn used() {}\npub fn orphan() {}\n",
            ),
            (
                "crates/x/tests/t.rs",
                "#[test]\nfn t() { aipan_x::used(); }\n",
            ),
        ]);
        let f = w.check_dead_pub();
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "P1");
        assert!(f[0].message.contains("orphan"), "{}", f[0].message);
    }

    #[test]
    fn p1_comment_mentions_keep_items_alive() {
        let w = ws(&[
            ("crates/x/src/lib.rs", "pub fn exemplar() {}\n"),
            (
                "crates/x/src/other.rs",
                "// See `exemplar` for the canonical pattern.\npub fn f() { g(); }\nfn g() {}\n",
            ),
            (
                "crates/y/src/lib.rs",
                "pub fn h() { aipan_x::f(); }\nfn i() { h(); }\n",
            ),
        ]);
        // `exemplar` survives via the comment, `f` via `aipan_x::f`; `h` is
        // referenced only inside its own file, which does not count.
        let f = w.check_dead_pub();
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("`h`"));
    }

    #[test]
    fn p1_skips_trait_impls_tests_and_main() {
        let w = ws(&[(
            "crates/x/src/lib.rs",
            "pub struct S;\nimpl Clone for S { fn clone(&self) -> S { S } }\n\
             #[cfg(test)]\nmod tests { pub fn helper() {} }\n",
        )]);
        // S itself is unreferenced; clone (trait impl) and helper (cfg_test)
        // must not appear as separate findings.
        let f = w.check_dead_pub();
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("`S`"));
    }
}
