//! Per-rule fixtures: each rule has a positive case (fires, names the right
//! file/line/rule) and an allowlisted-negative case (the same finding is
//! suppressed by a matching `lint.allow` entry).

use aipan_lint::allow::Allowlist;
use aipan_lint::{lint_source, Finding};

/// Fire `src` through the linter as `path`, then partition the findings
/// through an allowlist text.
fn lint_with_allow(path: &str, src: &str, allow: &str) -> (Vec<Finding>, Vec<Finding>) {
    let mut allowlist = Allowlist::parse(allow).expect("fixture allowlist parses");
    let mut kept = Vec::new();
    let mut suppressed = Vec::new();
    for f in lint_source(path, src) {
        if allowlist.permits(&f) {
            suppressed.push(f);
        } else {
            kept.push(f);
        }
    }
    (kept, suppressed)
}

fn allow_entry(rule: &str, file: &str) -> String {
    format!("[[allow]]\nrule = \"{rule}\"\nfile = \"{file}\"\nreason = \"fixture: vetted\"\n")
}

#[test]
fn d1_wall_clock_positive_and_allowlisted() {
    let path = "crates/core/src/clock.rs";
    let src = "use std::time::Instant;\npub fn stamp() -> Instant { Instant::now() }\n";
    let findings = lint_source(path, src);
    assert_eq!(findings.len(), 1);
    let f = &findings[0];
    assert_eq!((f.rule, f.file.as_str(), f.line), ("D1", path, 2));
    assert!(f.message.contains("Instant::now()"));

    let (kept, suppressed) = lint_with_allow(path, src, &allow_entry("D1", path));
    assert!(
        kept.is_empty(),
        "allowlisted finding must be suppressed: {kept:?}"
    );
    assert_eq!(suppressed.len(), 1);
}

#[test]
fn d1_entropy_sources() {
    let src = "pub fn seed() -> u64 { rand::thread_rng().gen() }\n";
    let findings = lint_source("crates/webgen/src/x.rs", src);
    assert_eq!(findings.len(), 1);
    assert_eq!(findings[0].rule, "D1");
    assert!(findings[0].message.contains("thread_rng"));

    let src = "pub fn mk() -> ChaCha8Rng { ChaCha8Rng::from_entropy() }\n";
    let findings = lint_source("crates/webgen/src/x.rs", src);
    assert_eq!(findings.len(), 1);
    assert!(findings[0].message.contains("from_entropy"));
}

#[test]
fn d2_hash_iteration_positive_and_allowlisted() {
    let path = "crates/analysis/src/t.rs";
    let src = "use std::collections::HashMap;\n\
               pub fn emit(counts: HashMap<String, u32>) -> String {\n\
               \x20   let mut out = String::new();\n\
               \x20   for (k, v) in &counts {\n\
               \x20       out.push_str(&format!(\"{k} {v}\\n\"));\n\
               \x20   }\n\
               \x20   out\n\
               }\n";
    let findings = lint_source(path, src);
    assert_eq!(findings.len(), 1, "{findings:?}");
    let f = &findings[0];
    assert_eq!((f.rule, f.line), ("D2", 4));
    assert!(f.message.contains("BTreeMap"));

    let (kept, _) = lint_with_allow(path, src, &allow_entry("D2", path));
    assert!(kept.is_empty());
}

#[test]
fn r1_panics_positive_and_allowlisted() {
    let path = "crates/net/src/x.rs";
    let src = "pub fn a(v: Option<u8>) -> u8 { v.unwrap() }\n\
               pub fn b(v: Option<u8>) -> u8 { v.expect(\"present\") }\n\
               pub fn c() { panic!(\"boom\") }\n";
    let findings = lint_source(path, src);
    let got: Vec<(u32, &str)> = findings
        .iter()
        .map(|f| (f.line, f.message.split('`').nth(1).unwrap_or("")))
        .collect();
    assert_eq!(got, vec![(1, "unwrap"), (2, "expect"), (3, "panic")]);

    // Line-pinned allow suppresses only its line.
    let allow = format!(
        "[[allow]]\nrule = \"R1\"\nfile = \"{path}\"\nline = 2\nreason = \"fixture: invariant documented\"\n"
    );
    let (kept, suppressed) = lint_with_allow(path, src, &allow);
    assert_eq!(kept.len(), 2);
    assert_eq!(suppressed.len(), 1);
    assert_eq!(suppressed[0].line, 2);
}

#[test]
fn o1_stdio_positive_and_allowlisted() {
    let path = "crates/ml/src/x.rs";
    let src = "pub fn log(x: u32) { println!(\"{x}\"); eprintln!(\"{x}\"); }\n";
    let findings = lint_source(path, src);
    assert_eq!(findings.len(), 2);
    assert!(findings.iter().all(|f| f.rule == "O1"));

    let (kept, _) = lint_with_allow(path, src, &allow_entry("O1", path));
    assert!(kept.is_empty());
}

#[test]
fn h1_untracked_todo_positive_and_allowlisted() {
    let path = "crates/core/src/x.rs";
    let src = "// TODO: finish this\npub fn f() {}\n";
    let findings = lint_source(path, src);
    assert_eq!(findings.len(), 1);
    assert_eq!((findings[0].rule, findings[0].line), ("H1", 1));

    // Tagged form is clean without any allowlist.
    let tagged = "// TODO(#7): finish this\npub fn f() {}\n";
    assert!(lint_source(path, tagged).is_empty());

    let (kept, _) = lint_with_allow(path, src, &allow_entry("H1", path));
    assert!(kept.is_empty());
}

#[test]
fn b1_unbounded_retry_loop_positive_and_allowlisted() {
    let path = "crates/net/src/poller.rs";
    let src = "pub fn poll(c: &Client, url: &Url) -> Page {\n\
               \x20   loop {\n\
               \x20       if let Ok(p) = c.fetch_page(url) {\n\
               \x20           return p;\n\
               \x20       }\n\
               \x20   }\n\
               }\n";
    let findings = lint_source(path, src);
    assert_eq!(findings.len(), 1, "{findings:?}");
    let f = &findings[0];
    assert_eq!((f.rule, f.file.as_str(), f.line), ("B1", path, 3));
    assert_eq!(f.severity, aipan_lint::Severity::Warn);
    assert!(f.message.contains("fetch_page"), "{}", f.message);
    assert!(f.message.contains("RetryPolicy"), "{}", f.message);

    let (kept, suppressed) = lint_with_allow(path, src, &allow_entry("B1", path));
    assert!(kept.is_empty(), "{kept:?}");
    assert_eq!(suppressed.len(), 1);

    // The same loop bounded by a retry budget is clean without any allow.
    let bounded = "pub fn poll(c: &Client, url: &Url) -> Option<Page> {\n\
                   \x20   let mut retries_left = 3;\n\
                   \x20   while retries_left > 0 {\n\
                   \x20       retries_left -= 1;\n\
                   \x20       if let Ok(p) = c.fetch_page(url) {\n\
                   \x20           return Some(p);\n\
                   \x20       }\n\
                   \x20   }\n\
                   \x20   None\n\
                   }\n";
    assert!(lint_source(path, bounded).is_empty());
}

#[test]
fn injected_thread_rng_into_core_is_named_precisely() {
    // The acceptance scenario: drop a thread_rng() call into crates/core and
    // the lint names the file, line, and rule.
    let path = "crates/core/src/pipeline.rs";
    let src = "pub fn shuffle_order() -> u64 {\n    let mut rng = rand::thread_rng();\n    rng.gen()\n}\n";
    let findings = lint_source(path, src);
    assert_eq!(findings.len(), 1);
    let f = &findings[0];
    assert_eq!(f.rule, "D1");
    assert_eq!(f.file, path);
    assert_eq!(f.line, 2);
    assert!(f.snippet.contains("thread_rng"));
}

// ---------------------------------------------------------------------------
// Graph rules (L1 / E1 / K1 / P1): one violating and one clean fixture each,
// exercised through the public workspace API exactly as `scan::run` does.
// ---------------------------------------------------------------------------

use aipan_lint::config::Config;
use aipan_lint::graph::Workspace;
use aipan_lint::{error_flow, locks};

fn workspace(files: &[(&str, &str)]) -> Workspace {
    let owned: Vec<(String, String)> = files
        .iter()
        .map(|(p, s)| (p.to_string(), s.to_string()))
        .collect();
    Workspace::build(&owned)
}

const LAYERING: &str = "[layering]\n\
                        taxonomy = []\n\
                        html = []\n\
                        analysis = [\"taxonomy\", \"html\"]\n";

#[test]
fn l1_layering_violation_fires_and_clean_import_does_not() {
    let config = Config::parse(LAYERING).expect("fixture layering parses");

    let bad = workspace(&[(
        "crates/taxonomy/src/lib.rs",
        "use aipan_analysis::tables;\npub fn f() { tables::go(); }\n",
    )]);
    let findings = bad.check_layering(&config);
    assert_eq!(findings.len(), 1, "{findings:?}");
    let f = &findings[0];
    assert_eq!((f.rule, f.severity), ("L1", aipan_lint::Severity::Deny));
    assert_eq!(f.file, "crates/taxonomy/src/lib.rs");
    assert!(f.message.contains("taxonomy"), "{}", f.message);
    assert!(f.message.contains("analysis"), "{}", f.message);

    let clean = workspace(&[(
        "crates/analysis/src/lib.rs",
        "use aipan_taxonomy::aspect;\npub fn f() { aspect::go(); }\n",
    )]);
    assert!(clean.check_layering(&config).is_empty());
}

#[test]
fn e1_discarded_result_fires_and_handled_result_does_not() {
    let bad = workspace(&[(
        "crates/net/src/io.rs",
        "pub fn send(x: u8) -> Result<(), String> { Ok(drop_marker(x)) }\n\
         pub fn caller() { let _ = send(1); }\n",
    )]);
    let findings = error_flow::check_error_flow(&bad);
    assert_eq!(findings.len(), 1, "{findings:?}");
    let f = &findings[0];
    assert_eq!((f.rule, f.severity), ("E1", aipan_lint::Severity::Warn));
    assert_eq!(f.line, 2);
    assert!(f.message.contains("send"), "{}", f.message);

    let clean = workspace(&[(
        "crates/net/src/io.rs",
        "pub fn send(x: u8) -> Result<(), String> { Ok(drop_marker(x)) }\n\
         pub fn caller() -> Result<(), String> { send(1) }\n",
    )]);
    assert!(error_flow::check_error_flow(&clean).is_empty());
}

#[test]
fn k1_lock_order_inversion_fires_and_consistent_order_does_not() {
    let decl = "pub struct S { a: Mutex<u32>, b: RwLock<u32> }\n";
    let bad = workspace(&[(
        "crates/crawler/src/pool.rs",
        &format!(
            "{decl}impl S {{\n\
             \x20   pub fn x(&self) {{ let g = self.a.lock(); let h = self.b.read(); use2(g, h); }}\n\
             \x20   pub fn y(&self) {{ let h = self.b.write(); let g = self.a.lock(); use2(g, h); }}\n\
             }}\n"
        ),
    )]);
    let findings = locks::check_lock_order(&bad);
    assert_eq!(findings.len(), 1, "{findings:?}");
    let f = &findings[0];
    assert_eq!((f.rule, f.severity), ("K1", aipan_lint::Severity::Deny));
    assert!(f.message.contains("crawler::S.a"), "{}", f.message);
    assert!(f.message.contains("crawler::S.b"), "{}", f.message);

    let clean = workspace(&[(
        "crates/crawler/src/pool.rs",
        &format!(
            "{decl}impl S {{\n\
             \x20   pub fn x(&self) {{ let g = self.a.lock(); let h = self.b.read(); use2(g, h); }}\n\
             \x20   pub fn y(&self) {{ let g = self.a.lock(); let h = self.b.write(); use2(g, h); }}\n\
             }}\n"
        ),
    )]);
    assert!(locks::check_lock_order(&clean).is_empty());
}

#[test]
fn p1_dead_pub_fires_and_referenced_pub_does_not() {
    let bad = workspace(&[
        (
            "crates/html/src/lib.rs",
            "pub fn orphan() -> u32 { 7 }\npub fn used() -> u32 { 8 }\n",
        ),
        (
            "crates/core/src/lib.rs",
            "pub fn caller() -> u32 { aipan_html::used() }\n",
        ),
        // Mentions from test files count as references (P1 flags items
        // nothing in the workspace touches, tests included).
        ("tests/smoke.rs", "fn s() { aipan_core::caller(); }\n"),
    ]);
    let findings = bad.check_dead_pub();
    assert_eq!(findings.len(), 1, "{findings:?}");
    let f = &findings[0];
    assert_eq!((f.rule, f.severity), ("P1", aipan_lint::Severity::Warn));
    assert_eq!(f.file, "crates/html/src/lib.rs");
    assert!(f.message.contains("orphan"), "{}", f.message);

    // A cross-file mention — even from a test — keeps the item alive.
    let clean = workspace(&[
        (
            "crates/html/src/lib.rs",
            "pub fn orphan() -> u32 { 7 }\npub fn used() -> u32 { 8 }\n",
        ),
        (
            "crates/core/src/lib.rs",
            "pub fn caller() -> u32 { aipan_html::used() + aipan_html::orphan() }\n",
        ),
        ("tests/smoke.rs", "fn s() { aipan_core::caller(); }\n"),
    ]);
    assert!(clean.check_dead_pub().is_empty());
}

// ---------------------------------------------------------------------------
// Dataflow rules: X1 panic-reachability and D3 determinism taint, each
// with a violating and a clean fixture pair.
// ---------------------------------------------------------------------------

use aipan_lint::callgraph::CallGraph;
use aipan_lint::{panic_reach, taint};

#[test]
fn x1_interprocedural_panic_fires_and_guarded_code_does_not() {
    // Violating: pub entry point reaches a private fn's unproven index.
    let bad = workspace(&[(
        "crates/core/src/lib.rs",
        "pub fn entry(xs: &[u32], i: usize) -> u32 { inner(xs, i) }\n\
         fn inner(xs: &[u32], i: usize) -> u32 { xs[i] }\n",
    )]);
    let graph = CallGraph::build(&bad);
    let findings = panic_reach::check_panic_reach(&bad, &graph);
    assert_eq!(findings.len(), 1, "{findings:?}");
    let f = &findings[0];
    assert_eq!((f.rule, f.severity), ("X1", aipan_lint::Severity::Deny));
    assert!(f.message.contains("entry -> inner"), "{}", f.message);
    assert!(f.message.contains("xs[i]"), "{}", f.message);

    // Clean: the same shape with a dominating bounds guard in the callee.
    let clean = workspace(&[(
        "crates/core/src/lib.rs",
        "pub fn entry(xs: &[u32], i: usize) -> u32 { inner(xs, i) }\n\
         fn inner(xs: &[u32], i: usize) -> u32 {\n\
         \x20   if i < xs.len() { xs[i] } else { 0 }\n\
         }\n",
    )]);
    let graph = CallGraph::build(&clean);
    let findings = panic_reach::check_panic_reach(&clean, &graph);
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn x1_float_division_is_exempt_integer_division_is_not() {
    let dirty = workspace(&[(
        "crates/core/src/lib.rs",
        "pub fn avg(total: u64, n: u64) -> u64 { total / n }\n",
    )]);
    let graph = CallGraph::build(&dirty);
    let findings = panic_reach::check_panic_reach(&dirty, &graph);
    assert_eq!(findings.len(), 1, "{findings:?}");
    assert!(
        findings[0].message.contains("divisor"),
        "{}",
        findings[0].message
    );

    // Float mean: division by a float-typed `let` never panics; and an
    // integer divisor proved nonzero by `.max(1)` is exempt too.
    let clean = workspace(&[(
        "crates/core/src/lib.rs",
        "pub fn mean(values: &[f64]) -> f64 {\n\
         \x20   let n = values.len() as f64;\n\
         \x20   values.iter().sum::<f64>() / n\n\
         }\n\
         pub fn share(total: usize, buckets: usize) -> usize {\n\
         \x20   total / buckets.max(1)\n\
         }\n",
    )]);
    let graph = CallGraph::build(&clean);
    let findings = panic_reach::check_panic_reach(&clean, &graph);
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn d3_hash_order_to_sink_fires_and_sorted_does_not() {
    // Violating: HashMap keys flow through a binding into writeln!.
    let bad = workspace(&[(
        "crates/analysis/src/lib.rs",
        "use std::collections::HashMap;\n\
         use std::fmt::Write;\n\
         pub fn render(counts: &HashMap<String, u32>) -> String {\n\
         \x20   let mut out = String::new();\n\
         \x20   let ks: Vec<&String> = counts.keys().collect();\n\
         \x20   for k in ks {\n\
         \x20       let _ = writeln!(out, \"{k}\");\n\
         \x20   }\n\
         \x20   out\n\
         }\n",
    )]);
    let graph = CallGraph::build(&bad);
    let findings = taint::check_taint(&bad, &graph);
    assert_eq!(findings.len(), 1, "{findings:?}");
    let f = &findings[0];
    assert_eq!((f.rule, f.severity), ("D3", aipan_lint::Severity::Deny));
    assert!(f.message.contains("hash-order"), "{}", f.message);

    // Clean: the same flow with a sort between iteration and sink.
    let clean = workspace(&[(
        "crates/analysis/src/lib.rs",
        "use std::collections::HashMap;\n\
         use std::fmt::Write;\n\
         pub fn render(counts: &HashMap<String, u32>) -> String {\n\
         \x20   let mut out = String::new();\n\
         \x20   let mut ks: Vec<&String> = counts.keys().collect();\n\
         \x20   ks.sort();\n\
         \x20   for k in ks {\n\
         \x20       let _ = writeln!(out, \"{k}\");\n\
         \x20   }\n\
         \x20   out\n\
         }\n",
    )]);
    let graph = CallGraph::build(&clean);
    let findings = taint::check_taint(&clean, &graph);
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn d3_btree_collect_sanitizes_and_returned_collection_is_a_sink() {
    // Violating: hash iteration pushed into the returned Vec.
    let bad = workspace(&[(
        "crates/analysis/src/lib.rs",
        "use std::collections::HashSet;\n\
         pub fn names(set: &HashSet<String>) -> Vec<String> {\n\
         \x20   let mut out = Vec::new();\n\
         \x20   for name in set.iter() {\n\
         \x20       out.push(name.clone());\n\
         \x20   }\n\
         \x20   out\n\
         }\n",
    )]);
    let graph = CallGraph::build(&bad);
    let findings = taint::check_taint(&bad, &graph);
    assert_eq!(findings.len(), 1, "{findings:?}");
    assert_eq!(findings[0].rule, "D3");

    // Clean: collecting into a BTree first launders the order.
    let clean = workspace(&[(
        "crates/analysis/src/lib.rs",
        "use std::collections::{BTreeSet, HashSet};\n\
         pub fn names(set: &HashSet<String>) -> Vec<String> {\n\
         \x20   let sorted: BTreeSet<&String> = set.iter().collect();\n\
         \x20   let mut out = Vec::new();\n\
         \x20   for name in sorted {\n\
         \x20       out.push(name.clone());\n\
         \x20   }\n\
         \x20   out\n\
         }\n",
    )]);
    let graph = CallGraph::build(&clean);
    let findings = taint::check_taint(&clean, &graph);
    assert!(findings.is_empty(), "{findings:?}");
}

// ---------------------------------------------------------------------------
// Cost & guard rules (H2 / C2 / M1 / M2): one violating and one clean
// fixture pair each, driven through the cost model like `scan::run`.
// ---------------------------------------------------------------------------

use aipan_lint::{cost, guards};

fn cost_findings(ws: &Workspace) -> Vec<Finding> {
    let graph = CallGraph::build(ws);
    let model = cost::CostModel::build(ws, &graph);
    cost::check_cost(ws, &graph, &model)
}

fn guard_findings(ws: &Workspace) -> Vec<Finding> {
    let graph = CallGraph::build(ws);
    let model = cost::CostModel::build(ws, &graph);
    guards::check_guards(ws, &graph, &model)
}

#[test]
fn h2_growth_in_hot_loop_fires_and_preallocated_does_not() {
    // Violating: pub fn in an annotate.rs file is a pipeline entry, so its
    // loop is hot; the Vec is born empty and grown per iteration.
    let bad = workspace(&[(
        "crates/core/src/annotate.rs",
        "pub fn annotate_all(docs: &[String]) -> Vec<String> {\n\
         \x20   let mut out = Vec::new();\n\
         \x20   for d in docs {\n\
         \x20       out.push(d.clone());\n\
         \x20   }\n\
         \x20   out\n\
         }\n",
    )]);
    let findings = cost_findings(&bad);
    assert_eq!(findings.len(), 1, "{findings:?}");
    let f = &findings[0];
    assert_eq!((f.rule, f.severity), ("H2", aipan_lint::Severity::Warn));
    assert_eq!(f.line, 2);
    assert!(f.message.contains("hot path"), "{}", f.message);
    assert!(f.message.contains("annotate_all"), "{}", f.message);
    // The iterated slice has a provable `.len()`, so the finding carries a
    // machine-applicable pre-allocation fix.
    let fix = f.fix.as_ref().expect("H2 fix attached");
    assert!(
        fix.edits[0]
            .replacement
            .contains("Vec::with_capacity(docs.len())"),
        "{fix:?}"
    );

    // Clean: the same loop with the capacity pre-allocated.
    let clean = workspace(&[(
        "crates/core/src/annotate.rs",
        "pub fn annotate_all(docs: &[String]) -> Vec<String> {\n\
         \x20   let mut out = Vec::with_capacity(docs.len());\n\
         \x20   for d in docs {\n\
         \x20       out.push(d.clone());\n\
         \x20   }\n\
         \x20   out\n\
         }\n",
    )]);
    let findings = cost_findings(&clean);
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn h2_requires_a_hot_path() {
    // The same growth pattern in a fn no pipeline entry reaches is not H2.
    let cold = workspace(&[(
        "crates/html/src/build.rs",
        "pub fn collect_ids(docs: &[String]) -> Vec<String> {\n\
         \x20   let mut out = Vec::new();\n\
         \x20   for d in docs {\n\
         \x20       out.push(d.clone());\n\
         \x20   }\n\
         \x20   out\n\
         }\n",
    )]);
    let findings = cost_findings(&cold);
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn c2_loop_invariant_clone_fires_and_hoisted_clone_does_not() {
    // Violating: `header` is never modified inside the loop, yet cloned
    // once per iteration.
    let bad = workspace(&[(
        "crates/analysis/src/lib.rs",
        "pub fn total_len(rows: &[String], header: &String) -> usize {\n\
         \x20   let mut total = 0usize;\n\
         \x20   for _row in rows {\n\
         \x20       let h = header.clone();\n\
         \x20       total += h.len();\n\
         \x20   }\n\
         \x20   total\n\
         }\n",
    )]);
    let findings = cost_findings(&bad);
    assert_eq!(findings.len(), 1, "{findings:?}");
    let f = &findings[0];
    assert_eq!((f.rule, f.severity), ("C2", aipan_lint::Severity::Warn));
    assert_eq!(f.line, 4);
    assert!(f.message.contains("header"), "{}", f.message);

    // Clean: the clone hoisted above the loop.
    let clean = workspace(&[(
        "crates/analysis/src/lib.rs",
        "pub fn total_len(rows: &[String], header: &String) -> usize {\n\
         \x20   let mut total = 0usize;\n\
         \x20   let h = header.clone();\n\
         \x20   for _row in rows {\n\
         \x20       total += h.len();\n\
         \x20   }\n\
         \x20   total\n\
         }\n",
    )]);
    let findings = cost_findings(&clean);
    assert!(findings.is_empty(), "{findings:?}");

    // Clean: the source is modified inside the loop, so the clone is not
    // invariant and must stay.
    let modified = workspace(&[(
        "crates/analysis/src/lib.rs",
        "pub fn total_len(rows: &[String], header: &mut String) -> usize {\n\
         \x20   let mut total = 0usize;\n\
         \x20   for row in rows {\n\
         \x20       let h = header.clone();\n\
         \x20       header.push_str(row);\n\
         \x20       total += h.len();\n\
         \x20   }\n\
         \x20   total\n\
         }\n",
    )]);
    let findings = cost_findings(&modified);
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn m1_lock_across_fetch_fires_and_dropped_guard_does_not() {
    let decl = "pub struct P { jobs: Mutex<Vec<String>> }\n";
    let bad = workspace(&[(
        "crates/crawler/src/queue.rs",
        &format!(
            "{decl}impl P {{\n\
             \x20   pub fn bad(&self, c: &Client) {{\n\
             \x20       let g = self.jobs.lock();\n\
             \x20       let page = c.fetch_page(g.first());\n\
             \x20       use2(page);\n\
             \x20   }}\n\
             }}\n"
        ),
    )]);
    let findings = guard_findings(&bad);
    assert_eq!(findings.len(), 1, "{findings:?}");
    let f = &findings[0];
    assert_eq!((f.rule, f.severity), ("M1", aipan_lint::Severity::Deny));
    assert!(f.message.contains("fetch_page"), "{}", f.message);
    assert!(f.message.contains("`g`"), "{}", f.message);

    // Clean: the guard is dropped before the expensive call.
    let clean = workspace(&[(
        "crates/crawler/src/queue.rs",
        &format!(
            "{decl}impl P {{\n\
             \x20   pub fn good(&self, c: &Client) {{\n\
             \x20       let g = self.jobs.lock();\n\
             \x20       let url = g.first().cloned();\n\
             \x20       drop(g);\n\
             \x20       let page = c.fetch_page(url);\n\
             \x20       use2(page);\n\
             \x20   }}\n\
             }}\n"
        ),
    )]);
    let findings = guard_findings(&clean);
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn m2_guard_used_only_inside_loop_fires_and_outside_use_does_not() {
    let decl = "pub struct P { jobs: Mutex<Vec<u32>> }\n";
    let bad = workspace(&[(
        "crates/crawler/src/queue.rs",
        &format!(
            "{decl}impl P {{\n\
             \x20   pub fn tally(&self, xs: &[u32]) -> usize {{\n\
             \x20       let g = self.jobs.lock();\n\
             \x20       let mut n = 0usize;\n\
             \x20       for x in xs {{\n\
             \x20           n += g.len() + (*x as usize);\n\
             \x20       }}\n\
             \x20       n\n\
             \x20   }}\n\
             }}\n"
        ),
    )]);
    let findings = guard_findings(&bad);
    assert_eq!(findings.len(), 1, "{findings:?}");
    let f = &findings[0];
    assert_eq!((f.rule, f.severity), ("M2", aipan_lint::Severity::Warn));
    assert!(f.message.contains("`g`"), "{}", f.message);

    // Clean: the guard is also read before the loop, so holding it across
    // iterations is a deliberate batch-hold.
    let clean = workspace(&[(
        "crates/crawler/src/queue.rs",
        &format!(
            "{decl}impl P {{\n\
             \x20   pub fn tally(&self, xs: &[u32]) -> usize {{\n\
             \x20       let g = self.jobs.lock();\n\
             \x20       let mut n = g.len();\n\
             \x20       for x in xs {{\n\
             \x20           n += g.len() + (*x as usize);\n\
             \x20       }}\n\
             \x20       n\n\
             \x20   }}\n\
             }}\n"
        ),
    )]);
    let findings = guard_findings(&clean);
    assert!(findings.is_empty(), "{findings:?}");
}

// ---------------------------------------------------------------------------
// Retention & sharing rules (S1 / S2 / W1 / W2): one violating and one
// clean fixture pair each, driven through the same passes `scan::run` uses.
// ---------------------------------------------------------------------------

use aipan_lint::{retain, share};

fn retention_findings(ws: &Workspace) -> Vec<Finding> {
    let graph = CallGraph::build(ws);
    let model = cost::CostModel::build(ws, &graph);
    retain::check_retention(ws, &graph, &model)
}

fn sharing_findings(ws: &Workspace) -> Vec<Finding> {
    let graph = CallGraph::build(ws);
    let model = cost::CostModel::build(ws, &graph);
    share::check_sharing(ws, &graph, &model)
}

#[test]
fn s1_materialized_hand_off_fires_and_multi_use_consumer_does_not() {
    // Violating: a hot annotate-stage fn materializes the whole corpus
    // into a Vec whose sole consumer just iterates it once.
    let bad = workspace(&[(
        "crates/core/src/annotate.rs",
        "pub fn annotate_corpus(docs: &[String]) -> Vec<String> {\n\
         \x20   let mut out = Vec::new();\n\
         \x20   for d in docs {\n\
         \x20       out.push(d.clone());\n\
         \x20   }\n\
         \x20   out\n\
         }\n\
         pub fn run_pipeline_emit(docs: &[String]) {\n\
         \x20   for a in annotate_corpus(docs) {\n\
         \x20       emit(a);\n\
         \x20   }\n\
         }\n",
    )]);
    let findings = retention_findings(&bad);
    assert_eq!(findings.len(), 1, "{findings:?}");
    let f = &findings[0];
    assert_eq!((f.rule, f.severity), ("S1", aipan_lint::Severity::Warn));
    assert_eq!(f.line, 2);
    assert!(f.message.contains("annotate_corpus"), "{}", f.message);
    assert!(f.message.contains("run_pipeline_emit"), "{}", f.message);

    // Clean: the consumer also reads the batch's length, so the
    // materialized Vec is not a pure stream hand-off.
    let clean = workspace(&[(
        "crates/core/src/annotate.rs",
        "pub fn annotate_corpus(docs: &[String]) -> Vec<String> {\n\
         \x20   let mut out = Vec::new();\n\
         \x20   for d in docs {\n\
         \x20       out.push(d.clone());\n\
         \x20   }\n\
         \x20   out\n\
         }\n\
         pub fn run_pipeline_emit(docs: &[String]) {\n\
         \x20   let batch = annotate_corpus(docs);\n\
         \x20   record_count(batch.len());\n\
         \x20   for a in batch {\n\
         \x20       emit(a);\n\
         \x20   }\n\
         }\n",
    )]);
    let findings = retention_findings(&clean);
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn s2_unbounded_growth_fires_and_len_derived_bound_does_not() {
    // Violating: a hot fn grows a Vec in a `loop` with no exit bound at
    // all — unbounded memory at corpus scale.
    let bad = workspace(&[(
        "crates/core/src/annotate.rs",
        "pub fn annotate_feed(feed: &Feed) -> Vec<String> {\n\
         \x20   let mut out = Vec::new();\n\
         \x20   loop {\n\
         \x20       out.push(feed.next_chunk());\n\
         \x20   }\n\
         }\n",
    )]);
    let findings = retention_findings(&bad);
    assert_eq!(findings.len(), 1, "{findings:?}");
    let f = &findings[0];
    assert_eq!((f.rule, f.severity), ("S2", aipan_lint::Severity::Warn));
    assert_eq!(f.line, 4);
    assert!(f.message.contains("out"), "{}", f.message);
    assert!(f.message.contains("no bound"), "{}", f.message);

    // Clean: the same loop exits on a bound *derived from* a sized
    // input (`let n = items.len()`), recognized through the bound-locals
    // analysis even though the guard itself only names `n`.
    let clean = workspace(&[(
        "crates/core/src/annotate.rs",
        "pub fn annotate_feed(feed: &Feed, items: &[String]) -> Vec<String> {\n\
         \x20   let n = items.len();\n\
         \x20   let mut out = Vec::new();\n\
         \x20   let mut i = 0;\n\
         \x20   loop {\n\
         \x20       if i >= n {\n\
         \x20           break;\n\
         \x20       }\n\
         \x20       out.push(feed.next_chunk());\n\
         \x20       i += 1;\n\
         \x20   }\n\
         \x20   out\n\
         }\n",
    )]);
    let findings = retention_findings(&clean);
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn w1_unsynchronized_worker_mutation_fires_and_locked_access_does_not() {
    // Violating: a worker pool (spawn inside a loop) where every worker
    // pushes into the same captured Vec with no lock in sight.
    let bad = workspace(&[(
        "crates/crawler/src/pool.rs",
        "pub fn crawl_all(urls: &[String], results: &mut Vec<String>) {\n\
         \x20   for _w in 0..4 {\n\
         \x20       scope.spawn(move || {\n\
         \x20           results.push(fetch_next(urls));\n\
         \x20       });\n\
         \x20   }\n\
         }\n",
    )]);
    let findings = sharing_findings(&bad);
    assert_eq!(findings.len(), 1, "{findings:?}");
    let f = &findings[0];
    assert_eq!((f.rule, f.severity), ("W1", aipan_lint::Severity::Deny));
    assert_eq!(f.line, 4);
    assert!(f.message.contains("results"), "{}", f.message);
    assert!(f.message.contains("push"), "{}", f.message);

    // Clean: the same pool routed through a Mutex — access via a
    // recognized sync method is the sanctioned path. (The spawn loop
    // iterates a worker count, so the per-worker acquisition is not
    // corpus-scale either.)
    let clean = workspace(&[(
        "crates/crawler/src/pool.rs",
        "pub fn crawl_all(urls: &[String], workers: usize, results: &Mutex<Vec<String>>) {\n\
         \x20   for _w in 0..workers {\n\
         \x20       scope.spawn(move || {\n\
         \x20           results.lock().push(fetch_next(urls));\n\
         \x20       });\n\
         \x20   }\n\
         }\n",
    )]);
    let findings = sharing_findings(&clean);
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn w2_lock_in_corpus_loop_fires_and_hoisted_or_worker_loop_does_not() {
    let decl = "pub struct Stats { totals: Mutex<Vec<String>> }\n";
    // Violating: the lock is taken once per corpus item and the held
    // region allocates (clone + grow) while other workers wait.
    let bad = workspace(&[(
        "crates/core/src/annotate.rs",
        &format!(
            "{decl}impl Stats {{\n\
             \x20   pub fn annotate_tally(&self, docs: &[String]) {{\n\
             \x20       for d in docs {{\n\
             \x20           let mut g = self.totals.lock();\n\
             \x20           g.push(d.clone());\n\
             \x20       }}\n\
             \x20   }}\n\
             }}\n"
        ),
    )]);
    let findings = sharing_findings(&bad);
    assert_eq!(findings.len(), 1, "{findings:?}");
    let f = &findings[0];
    assert_eq!((f.rule, f.severity), ("W2", aipan_lint::Severity::Warn));
    assert_eq!(f.line, 5);
    assert!(f.message.contains("totals"), "{}", f.message);
    assert!(f.message.contains("batch updates"), "{}", f.message);

    // Clean: the lock hoisted out of the corpus loop (depth 0).
    let hoisted = workspace(&[(
        "crates/core/src/annotate.rs",
        &format!(
            "{decl}impl Stats {{\n\
             \x20   pub fn annotate_tally(&self, docs: &[String]) {{\n\
             \x20       let mut g = self.totals.lock();\n\
             \x20       for d in docs {{\n\
             \x20           g.push(d.clone());\n\
             \x20       }}\n\
             \x20   }}\n\
             }}\n"
        ),
    )]);
    let findings = sharing_findings(&hoisted);
    assert!(findings.is_empty(), "{findings:?}");

    // Clean: the same acquisition inside a *worker-count* loop — spawning
    // N workers locks N times, not 30k times, so it is not corpus-scale.
    let worker_loop = workspace(&[(
        "crates/core/src/annotate.rs",
        &format!(
            "{decl}impl Stats {{\n\
             \x20   pub fn annotate_spawn(&self, workers: usize, name: &String) {{\n\
             \x20       for _w in 0..workers {{\n\
             \x20           let mut g = self.totals.lock();\n\
             \x20           g.push(name.clone());\n\
             \x20       }}\n\
             \x20   }}\n\
             }}\n"
        ),
    )]);
    let findings = sharing_findings(&worker_loop);
    assert!(findings.is_empty(), "{findings:?}");
}

// ---------------------------------------------------------------------------
// Type- and effect-aware rules (N1 / N2 / A1 / F1): violating and clean
// fixture pairs, exercised through the same workspace + call-graph + cost
// + type-index surface `scan::run` wires up.
// ---------------------------------------------------------------------------

use aipan_lint::cost::CostModel;
use aipan_lint::effects::EffectModel;
use aipan_lint::types::TypeIndex;
use aipan_lint::{atomics, effects, numeric};

/// All findings from the layer-3 typed rules, in driver order.
fn typed_findings(ws: &Workspace) -> Vec<aipan_lint::Finding> {
    let graph = CallGraph::build(ws);
    let model = CostModel::build(ws, &graph);
    let index = TypeIndex::build(ws);
    let effect_model = EffectModel::build(ws, &graph);
    let mut out = numeric::check_numeric(ws, &graph, &model, &index);
    out.extend(atomics::check_atomics(ws, &graph, &index));
    out.extend(effects::check_effects(ws, &graph, &model, &effect_model));
    out
}

#[test]
fn n1_corpus_scale_narrowing_denies_and_bounded_narrowing_does_not() {
    // Violating: a `.len()`-seeded corpus-scale count squeezed into u32.
    let bad = workspace(&[(
        "crates/analysis/src/lib.rs",
        "pub fn doc_total(policies: &[String]) -> u32 {\n\
         \x20   let policy_count = policies.len();\n\
         \x20   policy_count as u32\n\
         }\n",
    )]);
    let findings = typed_findings(&bad);
    assert_eq!(findings.len(), 1, "{findings:?}");
    let f = &findings[0];
    assert_eq!((f.rule, f.severity), ("N1", aipan_lint::Severity::Deny));
    assert_eq!(f.line, 3);
    assert!(f.fix.is_none(), "lossy narrowing must not be auto-fixed");

    // Clean: the same cast on a non-scale operand (small closed domain).
    let clean = workspace(&[(
        "crates/analysis/src/lib.rs",
        "pub fn mask(flags: u64) -> u32 { flags as u32 }\n",
    )]);
    assert!(
        typed_findings(&clean).is_empty(),
        "{:?}",
        typed_findings(&clean)
    );
}

#[test]
fn n1_provable_widening_warns_with_an_applicable_from_rewrite() {
    let src = "pub fn grand_total(byte_count: u32) -> u64 {\n\
               \x20   byte_count as u64\n\
               }\n";
    let ws = workspace(&[("crates/analysis/src/lib.rs", src)]);
    let findings = typed_findings(&ws);
    assert_eq!(findings.len(), 1, "{findings:?}");
    let f = &findings[0];
    assert_eq!((f.rule, f.severity), ("N1", aipan_lint::Severity::Warn));
    let fix = f.fix.as_ref().expect("widening carries a From rewrite");
    let fixed = aipan_lint::fix::apply_edits(src, &fix.edits);
    assert!(fixed.contains("u64::from(byte_count)"), "{fixed}");
    assert!(!fixed.contains(" as u64"), "{fixed}");

    // Clean: usize -> u64 has no std `From` impl; stays silent rather
    // than suggesting a rewrite that would not compile.
    let no_impl = workspace(&[(
        "crates/analysis/src/lib.rs",
        "pub fn grand_total(xs: &[u8]) -> u64 {\n\
         \x20   let byte_count = xs.len();\n\
         \x20   byte_count as u64\n\
         }\n",
    )]);
    assert!(
        typed_findings(&no_impl).is_empty(),
        "{:?}",
        typed_findings(&no_impl)
    );
}

#[test]
fn n2_unchecked_counter_in_hot_fn_warns_and_saturating_is_clean() {
    let decl = "pub struct Tally { pub rows_total: u64 }\n";
    let bad = workspace(&[(
        "crates/core/src/lib.rs",
        &format!(
            "{decl}fn bump(t: &mut Tally) {{ t.rows_total += 1; }}\n\
             pub fn run_pipeline(t: &mut Tally, domains: &[String]) {{\n\
             \x20   for _d in domains {{ bump(t); }}\n\
             }}\n"
        ),
    )]);
    let findings = typed_findings(&bad);
    assert_eq!(findings.len(), 1, "{findings:?}");
    let f = &findings[0];
    assert_eq!((f.rule, f.severity), ("N2", aipan_lint::Severity::Warn));
    assert!(f.message.contains("saturating_add"), "{}", f.message);

    // Clean: the saturating rewrite the rule suggests, same call shape.
    let clean = workspace(&[(
        "crates/core/src/lib.rs",
        &format!(
            "{decl}fn bump(t: &mut Tally) {{\n\
             \x20   t.rows_total = t.rows_total.saturating_add(1);\n\
             }}\n\
             pub fn run_pipeline(t: &mut Tally, domains: &[String]) {{\n\
             \x20   for _d in domains {{ bump(t); }}\n\
             }}\n"
        ),
    )]);
    assert!(
        typed_findings(&clean).is_empty(),
        "{:?}",
        typed_findings(&clean)
    );
}

#[test]
fn a1_load_store_and_mixed_orderings_deny_and_rmw_is_clean() {
    // Violating: read-modify-write split across load + store loses updates.
    let bad = workspace(&[(
        "crates/core/src/stats.rs",
        "pub struct Stats { calls: AtomicU64 }\n\
         impl Stats {\n\
         \x20   pub fn bump(&self) {\n\
         \x20       let v = self.calls.load(Ordering::Relaxed);\n\
         \x20       self.calls.store(v + 1, Ordering::Relaxed);\n\
         \x20   }\n\
         }\n",
    )]);
    let findings = typed_findings(&bad);
    assert_eq!(findings.len(), 1, "{findings:?}");
    let f = &findings[0];
    assert_eq!((f.rule, f.severity), ("A1", aipan_lint::Severity::Deny));
    assert_eq!(f.line, 5, "anchored at the racy store");

    // Violating: the same field accessed with mixed orderings across fns.
    let mixed = workspace(&[(
        "crates/core/src/stats.rs",
        "pub struct Stats { calls: AtomicU64 }\n\
         impl Stats {\n\
         \x20   pub fn bump(&self) { self.calls.fetch_add(1, Ordering::Relaxed); }\n\
         \x20   pub fn read(&self) -> u64 { self.calls.load(Ordering::SeqCst) }\n\
         }\n",
    )]);
    let findings = typed_findings(&mixed);
    assert_eq!(findings.len(), 1, "{findings:?}");
    assert_eq!(findings[0].rule, "A1");
    assert!(
        findings[0].message.contains("mixed"),
        "{}",
        findings[0].message
    );

    // Clean: single-call RMW under one ordering everywhere.
    let clean = workspace(&[(
        "crates/core/src/stats.rs",
        "pub struct Stats { calls: AtomicU64 }\n\
         impl Stats {\n\
         \x20   pub fn bump(&self) { self.calls.fetch_add(1, Ordering::Relaxed); }\n\
         \x20   pub fn read(&self) -> u64 { self.calls.load(Ordering::Relaxed) }\n\
         }\n",
    )]);
    assert!(
        typed_findings(&clean).is_empty(),
        "{:?}",
        typed_findings(&clean)
    );
}

#[test]
fn f1_fs_io_in_hot_loop_warns_and_journal_layer_is_sanctioned() {
    // Violating: per-document fs write inside the corpus loop, via a helper.
    let bad = workspace(&[(
        "crates/core/src/pipeline.rs",
        "pub fn run_pipeline(domains: &[String]) {\n\
         \x20   for d in domains {\n\
         \x20       persist(d);\n\
         \x20   }\n\
         }\n\
         fn persist(d: &str) { std::fs::write(d, \"x\").ok(); }\n",
    )]);
    let findings = typed_findings(&bad);
    assert_eq!(findings.len(), 1, "{findings:?}");
    let f = &findings[0];
    assert_eq!((f.rule, f.severity), ("F1", aipan_lint::Severity::Warn));
    assert!(f.message.contains("run_pipeline"), "{}", f.message);

    // Clean: the same write routed through the journal layer, whose
    // batched/buffered I/O is the sanctioned path.
    let clean = workspace(&[
        (
            "crates/core/src/pipeline.rs",
            "use crate::journal::append_record;\n\
             pub fn run_pipeline(domains: &[String]) {\n\
             \x20   for d in domains {\n\
             \x20       append_record(d);\n\
             \x20   }\n\
             }\n",
        ),
        (
            "crates/core/src/journal.rs",
            "pub fn append_record(d: &str) { std::fs::write(d, \"x\").ok(); }\n",
        ),
    ]);
    assert!(
        typed_findings(&clean).is_empty(),
        "{:?}",
        typed_findings(&clean)
    );
}
