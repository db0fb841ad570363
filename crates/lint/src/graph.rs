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
use std::cmp::Ordering;
use std::collections::BTreeMap;

/// One source file with everything the graph passes need. Every name it
/// holds borrows the source text (`'src`).
#[derive(Debug)]
pub struct AnalyzedFile<'src> {
    /// Parsed item tree.
    pub parsed: ParsedFile<'src>,
    /// Short crate name: the directory under `crates/`, or `aipan` for
    /// the umbrella package rooted at `src/`/`tests/`/`examples/`.
    pub crate_name: &'src str,
    /// Target classification (library / test / binary), as for the token
    /// rules.
    pub class: FileClass,
    /// Workspace-crate references: `(short name, line, col)` for every
    /// `aipan_*` identifier in code.
    pub crate_refs: Vec<(&'src str, u32, u32)>,
    /// The source text, for finding snippets.
    pub text: &'src str,
}

impl<'src> AnalyzedFile<'src> {
    /// Trimmed source line for a 1-based line number.
    pub fn snippet(&self, line: u32) -> String {
        self.text
            .lines()
            .nth(line.saturating_sub(1) as usize)
            .map(|l| l.trim().to_string())
            .unwrap_or_default()
    }
}

/// Which files mention one identifier: the first file (by index) and
/// whether any other file does too — all `P1` needs to decide "mentioned
/// by another file".
#[derive(Debug, Clone, Copy)]
struct Mentions {
    first: usize,
    more: bool,
}

/// A key of the mention index: a word borrowed from the source, ordered
/// by its first eight bytes and its length before its text, so nearly
/// every comparison in the index is an integer comparison that does not
/// read the source. A word of at most eight bytes is identified by the
/// two integers alone.
#[derive(Debug, Clone, Copy)]
struct Word<'src> {
    head: u64,
    len: usize,
    text: &'src str,
}

impl<'src> Word<'src> {
    fn new(text: &'src str) -> Word<'src> {
        let mut head = [0u8; 8];
        for (slot, &byte) in head.iter_mut().zip(text.as_bytes()) {
            *slot = byte;
        }
        Word {
            head: u64::from_be_bytes(head),
            len: text.len(),
            text,
        }
    }
}

impl Ord for Word<'_> {
    fn cmp(&self, other: &Self) -> Ordering {
        (self.head, self.len)
            .cmp(&(other.head, other.len))
            .then_with(|| {
                if self.len > 8 {
                    self.text.cmp(other.text)
                } else {
                    Ordering::Equal
                }
            })
    }
}

impl PartialOrd for Word<'_> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for Word<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other).is_eq()
    }
}

impl Eq for Word<'_> {}

/// The whole workspace, parsed and indexed.
#[derive(Debug, Default)]
pub struct Workspace<'src> {
    /// All analyzed files, in the (sorted) order they were supplied.
    pub files: Vec<AnalyzedFile<'src>>,
    /// Every identifier any file mentions — code idents plus words inside
    /// comments (so doc examples keep their subjects alive for `P1`).
    mentions: BTreeMap<Word<'src>, Mentions>,
}

/// Short crate name for a workspace-relative path.
pub(crate) fn crate_of(rel_path: &str) -> &str {
    rel_path
        .strip_prefix("crates/")
        .and_then(|rest| rest.split('/').next())
        .unwrap_or("aipan")
}

impl<'src> Workspace<'src> {
    /// Parse and index a set of `(rel_path, source)` files. The workspace
    /// borrows the texts.
    pub fn build<S: AsRef<str>>(files: &'src [(S, S)]) -> Workspace<'src> {
        let mut ws = Workspace::default();
        for (rel_path, src) in files {
            let src = src.as_ref();
            ws.add_file(rel_path.as_ref(), src, &lex(src));
        }
        ws
    }

    /// Parse and index one more file from its source and its token stream
    /// (as [`lex`] returns it), so a scan lexes each file once.
    pub(crate) fn add_file(&mut self, rel_path: &'src str, src: &'src str, tokens: &[Token<'src>]) {
        let index = self.files.len();
        let mut mention = |name: &'src str| {
            self.mentions
                .entry(Word::new(name))
                .and_modify(|m| m.more |= m.first != index)
                .or_insert(Mentions {
                    first: index,
                    more: false,
                });
        };
        let mut crate_refs = Vec::new();
        for tok in tokens {
            match tok.kind {
                TokenKind::Ident => {
                    let name = tok.text.strip_prefix("r#").unwrap_or(tok.text);
                    mention(name);
                    if let Some(short) = name.strip_prefix("aipan_") {
                        crate_refs.push((short, tok.line, tok.col));
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
        self.files.push(AnalyzedFile {
            parsed: parse_tokens(rel_path, tokens),
            crate_name: crate_of(rel_path),
            class: FileClass::classify(rel_path),
            crate_refs,
            text: src,
        });
    }

    /// Whether a file other than `files[file]` mentions `name`.
    fn mentioned_elsewhere(&self, file: usize, name: &str) -> bool {
        self.mentions
            .get(&Word::new(name))
            .is_some_and(|m| m.more || m.first != file)
    }

    /// `L1`: every `aipan_*` reference must be granted by the layering
    /// contract, and every scanned crate must be declared in it.
    pub fn check_layering(&self, config: &Config) -> Vec<Finding> {
        let mut findings = Vec::new();
        let mut undeclared: BTreeMap<&str, &str> = BTreeMap::new();
        for file in &self.files {
            if !config.declares(file.crate_name) {
                undeclared
                    .entry(file.crate_name)
                    .or_insert(file.parsed.rel_path);
                continue;
            }
            for (target, line, col) in &file.crate_refs {
                if !config.allows(file.crate_name, target) {
                    findings.push(Finding::at(
                        "L1",
                        Severity::Deny,
                        file.parsed.rel_path,
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
        let mut findings = Vec::new();
        for (index, file) in self.files.iter().enumerate() {
            if !file.class.is_library_code() {
                continue;
            }
            // Propagation units (see `Item::propagates_liveness`), and the
            // units by name, sorted, so a woken name finds its units.
            let units: Vec<&Item<'_>> = file
                .parsed
                .all_items()
                .into_iter()
                .filter(|i| i.propagates_liveness())
                .collect();
            let mut by_name: Vec<(&str, usize)> =
                units.iter().enumerate().map(|(u, i)| (i.name, u)).collect();
            by_name.sort_unstable();
            let units_named = |name: &str| {
                let lo = by_name.partition_point(|&(n, _)| n < name);
                let hi = by_name.partition_point(|&(n, _)| n <= name);
                by_name.get(lo..hi).unwrap_or_default()
            };
            // Worklist: a unit mentioned by another file is alive; an
            // alive unit's idents wake the units they name. Each unit's
            // idents are read once, when it wakes.
            let mut alive: Vec<bool> = units
                .iter()
                .map(|i| self.mentioned_elsewhere(index, i.name))
                .collect();
            let mut woken: Vec<&Item<'_>> = units
                .iter()
                .zip(&alive)
                .filter_map(|(&unit, &a)| a.then_some(unit))
                .collect();
            while let Some(unit) = woken.pop() {
                for &ident in &unit.idents {
                    for &(_, v) in units_named(ident) {
                        if let Some(slot) = alive.get_mut(v).filter(|a| !**a) {
                            *slot = true;
                            woken.extend(units.get(v));
                        }
                    }
                }
            }
            let name_alive = |name: &str| {
                units_named(name)
                    .iter()
                    .any(|&(_, u)| alive.get(u).copied().unwrap_or(false))
            };

            for candidate in pub_item_candidates(&file.parsed.items) {
                let name = candidate.name;
                if self.mentioned_elsewhere(index, name) || name_alive(name) {
                    continue;
                }
                findings.push(Finding::at(
                    "P1",
                    Severity::Warn,
                    file.parsed.rel_path,
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
fn pub_item_candidates<'a, 'src>(items: &'a [Item<'src>]) -> Vec<&'a Item<'src>> {
    let mut out = Vec::new();
    collect_candidates(items, &mut out);
    out
}

fn collect_candidates<'a, 'src>(items: &'a [Item<'src>], out: &mut Vec<&'a Item<'src>>) {
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
                            && eligible_name(child.name)
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
                if item.is_pub && eligible_name(item.name) {
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

fn kind_word(kind: &ItemKind<'_>) -> &'static str {
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

    fn ws<'a>(files: &'a [(&'a str, &'a str)]) -> Workspace<'a> {
        Workspace::build(files)
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
