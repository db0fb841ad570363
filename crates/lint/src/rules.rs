//! Token-level lint rules over the workspace's own sources.
//!
//! | rule | severity | what it catches |
//! |------|----------|-----------------|
//! | `D1` | deny | wall-clock / entropy (`SystemTime::now`, `Instant::now`, `thread_rng`, `from_entropy`) outside `#[cfg(test)]` code |
//! | `D2` | warn | iteration over `HashMap`/`HashSet` in files that write ordered output |
//! | `R1` | deny | `.unwrap()` / `.expect(..)` / `panic!` in library code |
//! | `O1` | warn | `println!` / `eprintln!` in library code |
//! | `H1` | warn | to-do markers missing an issue tag (`TODO(#NNN)`-style required) |
//! | `B1` | warn | `loop`/`while` retry loops around fetch/complete calls with no visible attempt/retry/budget bound |
//!
//! Rules operate on the [`crate::lexer`] token stream, so occurrences inside
//! string literals and comments never fire (except `H1`, which looks *only*
//! at comments). Code under `#[cfg(test)]`, and files in `tests/`,
//! `benches/`, or `examples/` trees, are exempt from `R1`/`O1`.

use crate::findings::{Finding, Severity};
use crate::lexer::{lex, Token, TokenKind};

/// What kind of compilation target a file belongs to; drives rule scoping.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FileClass {
    /// Integration test, bench, or example target (`tests/`, `benches/`, `examples/`).
    pub test_target: bool,
    /// Binary target (`main.rs` or under `src/bin/`).
    pub binary: bool,
}

impl FileClass {
    /// Classify a workspace-relative path (forward slashes).
    pub fn classify(rel_path: &str) -> FileClass {
        let in_dir = |d: &str| {
            rel_path.starts_with(&format!("{d}/")) || rel_path.contains(&format!("/{d}/"))
        };
        FileClass {
            test_target: in_dir("tests") || in_dir("benches") || in_dir("examples"),
            binary: rel_path.ends_with("/main.rs") || in_dir("bin"),
        }
    }

    /// Whether library-code rules (`R1`, `O1`) apply to this file.
    pub fn is_library_code(self) -> bool {
        !self.test_target && !self.binary
    }
}

/// Lint one file's source text. `rel_path` is workspace-relative and is used
/// both for scoping (see [`FileClass`]) and in the emitted findings.
pub fn lint_source(rel_path: &str, src: &str) -> Vec<Finding> {
    lint_tokens(rel_path, src, &lex(src))
}

/// [`lint_source`] over the file's token stream (as [`lex`] returns it),
/// so a scan that already lexed the file does not lex it again.
pub(crate) fn lint_tokens(rel_path: &str, src: &str, tokens: &[Token<'_>]) -> Vec<Finding> {
    let class = FileClass::classify(rel_path);
    let lines: Vec<&str> = src.lines().collect();
    let snippet = |line: u32| -> String {
        lines
            .get(line.saturating_sub(1) as usize)
            .map(|l| l.trim().to_string())
            .unwrap_or_default()
    };

    // Significant tokens: everything the grammar sees (no whitespace/comments).
    let sig: Vec<&Token<'_>> = tokens
        .iter()
        .filter(|t| {
            !matches!(
                t.kind,
                TokenKind::Whitespace | TokenKind::LineComment | TokenKind::BlockComment
            )
        })
        .collect();
    let excluded = cfg_test_ranges(&sig);
    let in_test_code = |i: usize| excluded.iter().any(|&(start, end)| i >= start && i <= end);

    let mut findings = Vec::new();
    rule_d1(&sig, &in_test_code, rel_path, &snippet, &mut findings);
    rule_d2(&sig, &in_test_code, rel_path, &snippet, &mut findings);
    rule_r1_o1(
        &sig,
        class,
        &in_test_code,
        rel_path,
        &snippet,
        &mut findings,
    );
    rule_h1(tokens, rel_path, &mut findings);
    rule_b1(
        &sig,
        class,
        &in_test_code,
        rel_path,
        &snippet,
        &mut findings,
    );
    findings
}

/// Index ranges (into the significant-token stream) covered by
/// `#[cfg(test)]` items — typically the whole `mod tests { ... }` block.
fn cfg_test_ranges(sig: &[&Token<'_>]) -> Vec<(usize, usize)> {
    const CFG_TEST: [&str; 7] = ["#", "[", "cfg", "(", "test", ")", "]"];
    let mut ranges = Vec::new();
    let mut i = 0;
    while i + 6 < sig.len() {
        let is_attr = sig.get(i..i + 7).is_some_and(|w| {
            w.iter()
                .zip(CFG_TEST.iter())
                .all(|(t, want)| t.text == *want)
        });
        if !is_attr {
            i += 1;
            continue;
        }
        // Skip to the item's body: the first `{` before any `;` ends the
        // search (e.g. `#[cfg(test)] use foo;` has no body).
        let mut j = i + 7;
        while j < sig.len() && sig[j].text != "{" && sig[j].text != ";" {
            j += 1;
        }
        if j < sig.len() && sig[j].text == "{" {
            let mut depth = 0usize;
            let mut k = j;
            while k < sig.len() {
                match sig[k].text {
                    "{" => depth += 1,
                    "}" => {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    _ => {}
                }
                k += 1;
            }
            ranges.push((i, k.min(sig.len() - 1)));
            i = k + 1;
        } else {
            ranges.push((i, j.min(sig.len() - 1)));
            i = j + 1;
        }
    }
    ranges
}

fn rule_d1(
    sig: &[&Token<'_>],
    in_test_code: &dyn Fn(usize) -> bool,
    rel_path: &str,
    snippet: &dyn Fn(u32) -> String,
    out: &mut Vec<Finding>,
) {
    for (i, t) in sig.iter().enumerate() {
        if t.kind != TokenKind::Ident || in_test_code(i) {
            continue;
        }
        let clock_call = (t.text == "SystemTime" || t.text == "Instant")
            && sig.get(i + 1).is_some_and(|t| t.text == ":")
            && sig.get(i + 2).is_some_and(|t| t.text == ":")
            && sig.get(i + 3).is_some_and(|t| t.text == "now");
        let entropy = t.text == "thread_rng" || t.text == "from_entropy";
        if clock_call || entropy {
            let what = if clock_call {
                format!("{}::now()", t.text)
            } else {
                format!("{}()", t.text)
            };
            out.push(Finding::at(
                "D1",
                Severity::Deny,
                rel_path,
                t.line,
                t.col,
                format!(
                    "{what} introduces wall-clock/entropy nondeterminism; all randomness \
                     must flow from a seeded generator"
                ),
                snippet(t.line),
            ));
        }
    }
}

/// Words whose presence marks a file as one that emits ordered output
/// (reports, tables, serialized artifacts). `D2` only fires in such files.
const ORDERED_OUTPUT_MARKERS: &[&str] = &[
    "write",
    "writeln",
    "fmt",
    "Display",
    "to_json",
    "serialize",
    "Serialize",
    "push_str",
];

fn rule_d2(
    sig: &[&Token<'_>],
    in_test_code: &dyn Fn(usize) -> bool,
    rel_path: &str,
    snippet: &dyn Fn(u32) -> String,
    out: &mut Vec<Finding>,
) {
    let writes_output = sig.iter().enumerate().any(|(i, t)| {
        t.kind == TokenKind::Ident && ORDERED_OUTPUT_MARKERS.contains(&t.text) && !in_test_code(i)
    });
    if !writes_output {
        return;
    }

    // Pass 1: names bound or typed as HashMap/HashSet.
    let mut hash_names: Vec<&str> = Vec::new();
    for (i, t) in sig.iter().enumerate() {
        if t.kind != TokenKind::Ident || (t.text != "HashMap" && t.text != "HashSet") {
            continue;
        }
        // `name: [path::]HashMap<...>` (field or let annotation) — walk back
        // over path segments to the `:`, then take the preceding ident.
        let mut j = i;
        while j >= 2 && sig[j - 1].text == ":" && sig[j - 2].text == ":" {
            if j >= 3 && sig[j - 3].kind == TokenKind::Ident {
                j -= 3;
            } else {
                break;
            }
        }
        if j >= 2 && sig[j - 1].text == ":" && sig[j - 2].kind == TokenKind::Ident {
            hash_names.push(sig[j - 2].text);
        }
        // `let [mut] name = HashMap::new()` / `HashSet::with_capacity(..)`.
        if i >= 2 && sig[i - 1].text == "=" && sig[i - 2].kind == TokenKind::Ident {
            hash_names.push(sig[i - 2].text);
        }
    }
    if hash_names.is_empty() {
        return;
    }

    // Pass 2: iteration over any of those names.
    for (i, t) in sig.iter().enumerate() {
        if t.kind != TokenKind::Ident || !hash_names.contains(&t.text) || in_test_code(i) {
            continue;
        }
        // `name.iter()` / `.keys()` / `.values()` / `.into_iter()` / `.drain()`.
        let method_iter = sig.get(i + 1).is_some_and(|t| t.text == ".")
            && sig.get(i + 2).is_some_and(|t| {
                matches!(t.text, "iter" | "keys" | "values" | "into_iter" | "drain")
            });
        // `for pat in [&][mut ][self.]name`: walk back over the tokens a
        // borrow/field path can contain, then require the `in` keyword.
        let for_iter = {
            let mut j = i;
            while j >= 1 && matches!(sig[j - 1].text, "&" | "mut" | "self" | ".") {
                j -= 1;
            }
            j >= 1 && sig[j - 1].text == "in"
        };
        if method_iter || for_iter {
            out.push(Finding::at(
                "D2",
                Severity::Warn,
                rel_path,
                t.line,
                t.col,
                format!(
                    "iterating hash-ordered collection `{}` in a file that writes ordered \
                     output; use BTreeMap/BTreeSet or collect-and-sort before emitting",
                    t.text
                ),
                snippet(t.line),
            ));
        }
    }
}

fn rule_r1_o1(
    sig: &[&Token<'_>],
    class: FileClass,
    in_test_code: &dyn Fn(usize) -> bool,
    rel_path: &str,
    snippet: &dyn Fn(u32) -> String,
    out: &mut Vec<Finding>,
) {
    if !class.is_library_code() {
        return;
    }
    for (i, t) in sig.iter().enumerate() {
        if t.kind != TokenKind::Ident || in_test_code(i) {
            continue;
        }
        let method_call = |name: &str| {
            t.text == name
                && i >= 1
                && sig[i - 1].text == "."
                && sig.get(i + 1).is_some_and(|t| t.text == "(")
        };
        let macro_call =
            |name: &str| t.text == name && sig.get(i + 1).is_some_and(|t| t.text == "!");
        if method_call("unwrap") || method_call("expect") || macro_call("panic") {
            out.push(Finding::at(
                "R1",
                Severity::Deny,
                rel_path,
                t.line,
                t.col,
                format!(
                    "`{}` can panic in library code; return a typed error (`?`) or handle \
                     the None/Err case explicitly",
                    t.text
                ),
                snippet(t.line),
            ));
        } else if macro_call("println") || macro_call("eprintln") {
            out.push(Finding::at(
                "O1",
                Severity::Warn,
                rel_path,
                t.line,
                t.col,
                format!(
                    "`{}!` in library code writes to the process's stdio; return data or \
                     take a `io::Write` sink instead",
                    t.text
                ),
                snippet(t.line),
            ));
        }
    }
}

fn rule_h1(tokens: &[Token<'_>], rel_path: &str, out: &mut Vec<Finding>) {
    for t in tokens {
        if !matches!(t.kind, TokenKind::LineComment | TokenKind::BlockComment) {
            continue;
        }
        for marker in ["TODO", "FIXME"] {
            let mut search = 0;
            while let Some(at) = t.text[search..].find(marker) {
                let abs = search + at;
                let tagged = t.text[abs + marker.len()..].starts_with('(');
                if !tagged {
                    let newlines = t.text[..abs].bytes().filter(|&b| b == b'\n').count();
                    let marker_line = t
                        .line
                        .saturating_add(u32::try_from(newlines).unwrap_or(u32::MAX));
                    out.push(Finding::at(
                        "H1",
                        Severity::Warn,
                        rel_path,
                        marker_line,
                        0,
                        format!(
                            "`{marker}` comment without an issue tag; write \
                             `{marker}(#NNN)` or `{marker}(tracked: ...)` so it can't rot"
                        ),
                        t.text.lines().next().unwrap_or("").trim().to_string(),
                    ));
                }
                search = abs + marker.len();
            }
        }
    }
}

/// Name fragments that count as evidence a retry loop is bounded: an
/// attempt counter, a retry budget, or a tries cap somewhere in the loop's
/// header or body.
const BOUND_MARKERS: &[&str] = &["attempt", "retr", "tries", "budget"];

/// Whether an identifier carries bound evidence (case-insensitive
/// substring match against [`BOUND_MARKERS`]).
fn is_bound_ident(name: &str) -> bool {
    let lower = name.to_ascii_lowercase();
    BOUND_MARKERS.iter().any(|m| lower.contains(m))
}

fn rule_b1(
    sig: &[&Token<'_>],
    class: FileClass,
    in_test_code: &dyn Fn(usize) -> bool,
    rel_path: &str,
    snippet: &dyn Fn(u32) -> String,
    out: &mut Vec<Finding>,
) {
    if !class.is_library_code() {
        return;
    }
    // One finding per call site, even when loops nest.
    let mut flagged: Vec<(u32, u32)> = Vec::new();
    for (i, t) in sig.iter().enumerate() {
        if t.kind != TokenKind::Ident || !matches!(t.text, "loop" | "while") || in_test_code(i) {
            continue;
        }
        // The loop's span runs from the keyword (so `while attempt < n`
        // conditions count as bound evidence) through the body's brace pair.
        let Some(open) = sig
            .iter()
            .enumerate()
            .skip(i + 1)
            .find(|(_, t)| t.text == "{")
            .map(|(j, _)| j)
        else {
            continue;
        };
        let mut depth = 0usize;
        let mut close = open;
        while close < sig.len() {
            match sig[close].text {
                "{" => depth += 1,
                "}" => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                _ => {}
            }
            close += 1;
        }
        let span = &sig[i..=close.min(sig.len() - 1)];
        if span
            .iter()
            .any(|t| t.kind == TokenKind::Ident && is_bound_ident(t.text))
        {
            continue;
        }
        for (off, c) in span.iter().enumerate() {
            // Atomic read-modify-write methods (`fetch_add`, `fetch_or`, ...)
            // share the `fetch` prefix but never touch the network.
            let atomic_rmw = matches!(
                c.text,
                "fetch_add"
                    | "fetch_sub"
                    | "fetch_and"
                    | "fetch_or"
                    | "fetch_xor"
                    | "fetch_nand"
                    | "fetch_max"
                    | "fetch_min"
                    | "fetch_update"
            );
            let is_call = c.kind == TokenKind::Ident
                && !atomic_rmw
                && (c.text.starts_with("fetch") || c.text.starts_with("complete"))
                && span.get(off + 1).is_some_and(|t| t.text == "(");
            if is_call && !flagged.contains(&(c.line, c.col)) {
                flagged.push((c.line, c.col));
                out.push(Finding::at(
                    "B1",
                    Severity::Warn,
                    rel_path,
                    c.line,
                    c.col,
                    format!(
                        "`{}` is called from a `{}` loop with no visible attempt/retry/budget \
                         bound; cap the loop (e.g. `for attempt in 0..max`) or route the call \
                         through a RetryPolicy",
                        c.text, t.text
                    ),
                    snippet(c.line),
                ));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rules_fired(path: &str, src: &str) -> Vec<&'static str> {
        lint_source(path, src).into_iter().map(|f| f.rule).collect()
    }

    #[test]
    fn classify_paths() {
        assert!(FileClass::classify("crates/net/tests/roundtrip.rs").test_target);
        assert!(FileClass::classify("crates/net/benches/speed.rs").test_target);
        assert!(FileClass::classify("src/bin/aipan.rs").binary);
        let lib = FileClass::classify("crates/net/src/url.rs");
        assert!(lib.is_library_code());
    }

    #[test]
    fn cfg_test_mod_is_exempt() {
        let src = "pub fn ok() {}\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { Some(1).unwrap(); }\n}\n";
        assert!(rules_fired("crates/x/src/lib.rs", src).is_empty());
    }

    #[test]
    fn unwrap_in_lib_code_fires_r1() {
        let src = "pub fn bad(v: Option<u32>) -> u32 { v.unwrap() }\n";
        let f = lint_source("crates/x/src/lib.rs", src);
        assert_eq!(f.len(), 1);
        assert_eq!((f[0].rule, f[0].line), ("R1", 1));
        // unwrap_or / unwrap_or_default are fine.
        let src = "pub fn ok(v: Option<u32>) -> u32 { v.unwrap_or(0) }\n";
        assert!(rules_fired("crates/x/src/lib.rs", src).is_empty());
    }

    #[test]
    fn string_and_comment_mentions_do_not_fire() {
        let src = "pub fn ok() -> &'static str { \"call .unwrap() and panic!\" }\n// .unwrap() here too\n";
        assert!(rules_fired("crates/x/src/lib.rs", src).is_empty());
    }

    #[test]
    fn d1_fires_outside_cfg_test_only() {
        let src = "pub fn t() { let _ = std::time::Instant::now(); }\n";
        assert_eq!(rules_fired("crates/core/src/lib.rs", src), vec!["D1"]);
        assert_eq!(rules_fired("src/bin/aipan.rs", src), vec!["D1"]);
        let src =
            "#[cfg(test)]\nmod tests {\n    fn t() { let _ = std::time::Instant::now(); }\n}\n";
        assert!(rules_fired("crates/core/src/lib.rs", src).is_empty());
    }

    #[test]
    fn h1_wants_issue_tags() {
        let src =
            "// TODO: someday\nfn a() {}\n// TODO(#12): tracked fine\n/* FIXME inside block */\n";
        let f = lint_source("crates/x/src/lib.rs", src);
        let lines: Vec<u32> = f
            .iter()
            .filter(|f| f.rule == "H1")
            .map(|f| f.line)
            .collect();
        assert_eq!(lines, vec![1, 4]);
    }

    #[test]
    fn d2_needs_both_hash_iteration_and_output() {
        // Hash iteration but no ordered output: silent.
        let src = "use std::collections::HashMap;\npub fn f(m: HashMap<u32, u32>) -> u64 {\n    m.iter().map(|(_, v)| *v as u64).sum()\n}\n";
        assert!(rules_fired("crates/x/src/lib.rs", src).is_empty());
        // Same iteration, but the file writes output: flagged.
        let src = "use std::collections::HashMap;\npub fn f(m: HashMap<u32, u32>) -> String {\n    let mut out = String::new();\n    for (k, v) in &m {\n        out.push_str(&format!(\"{k}={v}\"));\n    }\n    out\n}\n";
        assert_eq!(rules_fired("crates/x/src/lib.rs", src), vec!["D2"]);
    }

    #[test]
    fn b1_flags_unbounded_retry_loops_only() {
        // Unbounded `loop` around a fetch-family call: flagged once.
        let src = "pub fn poll(c: &Client) -> Page {\n\
                   \x20   loop {\n\
                   \x20       if let Ok(p) = c.fetch_page(\"/\") { return p; }\n\
                   \x20   }\n\
                   }\n";
        assert_eq!(rules_fired("crates/net/src/x.rs", src), vec!["B1"]);
        // Same loop with an attempt counter in the header: bounded.
        let src = "pub fn poll(c: &Client) -> Option<Page> {\n\
                   \x20   let mut attempt = 0;\n\
                   \x20   while attempt < 3 {\n\
                   \x20       attempt += 1;\n\
                   \x20       if let Ok(p) = c.fetch_page(\"/\") { return Some(p); }\n\
                   \x20   }\n\
                   \x20   None\n\
                   }\n";
        assert!(rules_fired("crates/net/src/x.rs", src).is_empty());
        // `for` loops are inherently bounded; tests and binaries are exempt.
        let src = "pub fn poll(c: &Client) { for _ in 0..3 { let _ = c.fetch_page(\"/\"); } }\n";
        assert!(rules_fired("crates/net/src/x.rs", src).is_empty());
        let src = "pub fn poll(c: &Client) { loop { let _ = c.fetch_page(\"/\"); } }\n";
        assert!(rules_fired("crates/net/tests/x.rs", src).is_empty());
        // A drain loop with no fetch/complete call never fires.
        let src = "pub fn drain(q: &mut Vec<u32>) { while let Some(x) = q.pop() { use_it(x); } }\n";
        assert!(rules_fired("crates/net/src/x.rs", src).is_empty());
    }

    #[test]
    fn o1_flags_lib_prints_not_binaries() {
        let src = "pub fn f() { println!(\"hi\"); }\n";
        assert_eq!(rules_fired("crates/x/src/lib.rs", src), vec!["O1"]);
        assert!(rules_fired("src/bin/aipan.rs", src).is_empty());
        assert!(rules_fired("crates/x/src/main.rs", src).is_empty());
    }
}
