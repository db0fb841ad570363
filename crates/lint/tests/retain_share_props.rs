//! Property tests for the v5 retention/sharing layers:
//!
//! 1. **Streamed is never retained** — a collection that is consumed
//!    (`clear`/`drain`/rebind) inside the loop that grows it is never
//!    classified [`Retention::Retained`], whatever else the fn does with
//!    it, including returning it.
//! 2. **Capture invariance under worker count** — the capture set of a
//!    spawned worker closure depends only on the closure's params and
//!    body, never on how many workers the surrounding loop spawns.

use aipan_lint::callgraph::CallGraph;
use aipan_lint::cost::CostModel;
use aipan_lint::expr::{for_each_expr, ExprKind};
use aipan_lint::graph::Workspace;
use aipan_lint::parser::{parse_file, ItemKind};
use aipan_lint::retain::{retention_records, Retention, RetentionRecord};
use aipan_lint::share::captured_roots;
use proptest::prelude::*;
use std::collections::BTreeSet;

/// Build a one-file workspace and classify every collection in it.
fn records_for(src: &str) -> Vec<RetentionRecord> {
    let files = vec![("crates/x/src/gen.rs".to_string(), src.to_string())];
    let ws = Workspace::build(&files);
    let graph = CallGraph::build(&ws);
    let model = CostModel::build(&ws, &graph);
    retention_records(&ws, &graph, &model)
}

/// Innocuous single-line statements to pad generated fn bodies with.
const PAD: &str = concat!(
    r"(let [a-z]{1,3} = [0-9]{1,2};",
    r"|touch\([a-z]{1,3}\);",
    r"|let s = other\.clone\(\);",
    r")",
);

proptest! {
    #[test]
    fn consumed_in_defining_loop_is_never_retained(
        pre in proptest::collection::vec(PAD, 0..4),
        post in proptest::collection::vec(PAD, 0..4),
        consume_kind in 0usize..3,
        grow_kind in 0usize..2,
    ) {
        let consume = match consume_kind {
            0 => "acc.clear();",
            1 => "acc.drain(..).count();",
            _ => "acc = Vec::new();",
        };
        let grow = if grow_kind == 0 {
            "acc.push(x);"
        } else {
            "if x > 1 { acc.push(x); }"
        };
        let src = format!(
            "pub fn run_pipeline_gen(xs: Vec<u32>) -> Vec<u32> {{\n\
             {}    let mut acc = Vec::new();\n    for x in xs {{\n        {grow}\n        {consume}\n    }}\n{}    acc\n}}\n",
            pre.iter().map(|s| format!("    {s}\n")).collect::<String>(),
            post.iter().map(|s| format!("    {s}\n")).collect::<String>(),
        );
        let records = records_for(&src);
        let acc = records
            .iter()
            .find(|r| r.name == "acc")
            .ok_or_else(|| format!("no record for acc in {src}"))?;
        prop_assert!(
            acc.class != Retention::Retained,
            "consumed-in-loop accumulator classified Retained in:\n{src}"
        );
    }

    #[test]
    fn capture_set_is_invariant_under_worker_count(
        w_a in 1u32..9,
        w_b in 1u32..9,
        body_stmts in proptest::collection::vec(
            concat!(
                r"(shared\.push\(1\);",
                r"|let y = seed \+ 1;",
                r"|tx\.send\(seed\)\.ok\(\);",
                r"|touch\(local\);",
                r")",
            ),
            1..5,
        ),
    ) {
        let captures_at = |workers: u32| -> Result<BTreeSet<String>, String> {
            let src = format!(
                "fn spawn_all(pool: &Pool) {{\n    for _ in 0..{workers} {{\n        \
                 pool.spawn(move || {{\n            let local = 3;\n{}        }});\n    }}\n}}\n",
                body_stmts
                    .iter()
                    .map(|s| format!("            {s}\n"))
                    .collect::<String>(),
            );
            let parsed = parse_file("crates/x/src/gen.rs", &src);
            let info = parsed
                .items
                .iter()
                .find_map(|item| match &item.kind {
                    ItemKind::Fn(info) => Some(info),
                    _ => None,
                })
                .ok_or_else(|| format!("no fn parsed from {src}"))?;
            let mut caps: Option<BTreeSet<String>> = None;
            for_each_expr(&info.body, &mut |e| {
                if let ExprKind::Closure { params, body, .. } = &e.kind {
                    if caps.is_none() {
                        caps = Some(captured_roots(params, body));
                    }
                }
            });
            caps.ok_or_else(|| format!("no closure found in {src}"))
        };
        let a = captures_at(w_a)?;
        let b = captures_at(w_b)?;
        prop_assert_eq!(
            &a, &b,
            "capture set changed with worker count {} -> {}", w_a, w_b
        );
        // Names bound inside the closure are never captures.
        prop_assert!(!a.contains("local"), "closure-local leaked into captures: {:?}", a);
        prop_assert!(!a.contains("y"), "closure-local leaked into captures: {:?}", a);
    }
}
