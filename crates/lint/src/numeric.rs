//! Numeric-safety rules `N1`/`N2`, built on the [`crate::types`] layer.
//!
//! **`N1` lossy numeric cast** (Deny): an `as` cast whose operand has
//! corpus-scale provenance (see [`crate::types::TyFact::scale`]) and
//! whose classification is [`CastKind::Lossy`] — narrowing, sign
//! change, or float truncation. A page count that fits `u32` on the
//! paper's 56-domain corpus silently wraps at the 10–100× scale the
//! pipeline targets; scale provenance is what keeps the rule off index
//! arithmetic and protocol constants. A provably lossless widening cast
//! with an exact std `From` impl is reported at Warn, its message naming
//! the `u64::from(x)` form that replaces `x as u64` (the cast keeps
//! compiling if the operand's type ever widens; the `From` form stops
//! it). Widenings *without* a `From` impl (`u32 as usize`)
//! and same-width `Noop` casts are exempt.
//!
//! **`N2` unchecked counter arithmetic** (Warn): a compound assignment
//! (`+=`, `-=`, `*=`, `<<=`) to a place of provable integer type with
//! corpus-scale provenance, inside a fn of the pipeline hot set. Debug
//! builds panic on overflow and release builds wrap silently — a
//! serialized counter that wraps corrupts every downstream report.
//! Saturating/checked combinators make the policy visible at the site;
//! `TY_PRESERVING_METHODS` keeps their results typed, so the rewrite
//! does not degrade inference.
//!
//! Approximation directions (DESIGN.md §6a): both rules require a
//! *provable* type on the deciding side (operand for `N1`, assignee for
//! `N2`) — `Ty::Unknown` stays silent, so the type layer's
//! under-approximation makes the rules under-fire, never over-fire.
//! Scale provenance over-approximates, but only ever gates sites the
//! type facts already convicted.
//!
//! Both rules report only at a cast or (in a hot fn) an unchecked
//! compound assignment, so the pass solves local types only for a fn
//! whose body holds one (see `types::any_site`); every other fn
//! would be solved to report nothing. A `#[cfg(test)]` reference keeps
//! the unconditional per-fn solve, and a test in `scan.rs` holds the two
//! equal on fixtures and on the whole workspace.

use crate::callgraph::{CallGraph, FnNode};
use crate::cost::{self, CostModel};
use crate::dataflow;
use crate::expr::{for_each_child, Expr, ExprKind};
use crate::findings::{Finding, Severity};
use crate::graph::{AnalyzedFile, Workspace};
use crate::types::{self, CastKind, LocalTypes, Ty, TyFacts, TypeIndex};

/// Compound-assign operators `N2` treats as unchecked arithmetic, with
/// the saturating/checked combinator the message suggests.
const UNCHECKED_OPS: &[(&str, &str)] = &[
    ("+=", "saturating_add"),
    ("-=", "saturating_sub"),
    ("*=", "saturating_mul"),
    ("<<=", "checked_shl"),
];

/// Short description of a cast operand for messages: a plain path
/// renders itself (`self.total`, `n`), anything else its type.
fn operand_desc(operand: &Expr<'_>, src: &Ty<'_>) -> String {
    match operand.plain_path() {
        Some(segs) => format!("`{}`", segs.join(".")),
        None => format!("this `{}` value", src.name()),
    }
}

/// Shared per-site context for the expression walk.
struct SiteCtx<'w, 'g> {
    lt: &'w LocalTypes<'w>,
    file: &'g AnalyzedFile<'g>,
    hot_witness: Option<String>,
    findings: &'w mut Vec<Finding>,
}

/// Walk one expression tree under the facts holding before its step,
/// emitting `N1`/`N2` findings. Control-flow subexpressions are hoisted
/// into their own CFG steps, so the walk must not descend into them.
fn walk(ctx: &mut SiteCtx<'_, '_>, fact: &TyFacts<'_>, e: &Expr<'_>) {
    if e.is_control() {
        return;
    }
    match &e.kind {
        ExprKind::Cast { operand, ty } => {
            let dst = Ty::from_tokens_with(ty, ctx.lt.self_ty);
            let src_fact = ctx.lt.infer(fact, operand);
            if src_fact.scale {
                match types::classify_cast(&src_fact.ty, &dst) {
                    CastKind::Lossy(reason) => {
                        ctx.findings.push(Finding::at(
                            "N1",
                            Severity::Deny,
                            ctx.file.parsed.rel_path,
                            e.line,
                            e.col,
                            format!(
                                "{} is a corpus-scale `{}` cast to `{}` with `as` — {reason} \
                                 at 10-100x corpus scale; use `{}::try_from` with explicit \
                                 overflow handling or keep the wider type",
                                operand_desc(operand, &src_fact.ty),
                                src_fact.ty.name(),
                                dst.name(),
                                dst.name(),
                            ),
                            ctx.file.snippet(e.line),
                        ));
                    }
                    CastKind::Widen { from_impl: true } => {
                        ctx.findings.push(Finding::at(
                            "N1",
                            Severity::Warn,
                            ctx.file.parsed.rel_path,
                            e.line,
                            e.col,
                            format!(
                                "{} is a corpus-scale `{}` widened to `{}` with `as`; \
                                 `{}::from` is lossless and keeps the site honest if the \
                                 operand's type ever changes",
                                operand_desc(operand, &src_fact.ty),
                                src_fact.ty.name(),
                                dst.name(),
                                dst.name(),
                            ),
                            ctx.file.snippet(e.line),
                        ));
                    }
                    CastKind::Widen { from_impl: false } | CastKind::Noop | CastKind::Opaque => {}
                }
            }
        }
        ExprKind::Assign { op, lhs, rhs } => {
            if let Some((_, suggest)) = UNCHECKED_OPS.iter().find(|(o, _)| o == op) {
                if let Some(witness) = &ctx.hot_witness {
                    // Plain-path places only: `*count += 1` through a
                    // deref has no provable place type here.
                    if let Some(segs) = lhs.plain_path() {
                        let lf = ctx.lt.infer(fact, lhs);
                        if lf.ty.is_integer() && lf.scale {
                            ctx.findings.push(Finding::at(
                                "N2",
                                Severity::Warn,
                                ctx.file.parsed.rel_path,
                                e.line,
                                e.col,
                                format!(
                                    "unchecked `{op}` on corpus-scale `{}` counter `{}` \
                                     (hot path: {witness}); overflow wraps silently in \
                                     release builds — use `{suggest}`",
                                    lf.ty.name(),
                                    segs.join("."),
                                ),
                                ctx.file.snippet(e.line),
                            ));
                        }
                    }
                }
            }
            // Still scan both sides: the rhs may contain a lossy cast.
            walk(ctx, fact, lhs);
            walk(ctx, fact, rhs);
            return;
        }
        _ => {}
    }
    walk_children(ctx, fact, e);
}

/// Recurse into non-control children.
fn walk_children(ctx: &mut SiteCtx<'_, '_>, fact: &TyFacts<'_>, e: &Expr<'_>) {
    let mut kids = Vec::new();
    for_each_child(e, &mut |c| kids.push(c));
    for c in kids {
        walk(ctx, fact, c);
    }
}

/// Run the `N1`/`N2` passes over every call-graph fn that holds a site
/// they can report (see `may_report`).
pub fn check_numeric(
    ws: &Workspace<'_>,
    graph: &CallGraph<'_>,
    model: &CostModel,
    index: &TypeIndex<'_>,
) -> Vec<Finding> {
    check_where(ws, graph, model, index, |id, node| {
        may_report(node, model.is_hot(id))
    })
}

/// Whether a fn's body holds an expression `N1`/`N2` can report: a
/// cast, or in a hot fn an [`UNCHECKED_OPS`] compound assignment. The
/// walk reports nowhere else, so a fn without one needs no type solve.
fn may_report(node: &FnNode<'_>, hot: bool) -> bool {
    types::any_site(&node.cfg, &|e| match &e.kind {
        ExprKind::Cast { .. } => true,
        ExprKind::Assign { op, .. } => hot && UNCHECKED_OPS.iter().any(|(o, _)| o == op),
        _ => false,
    })
}

/// Solve and walk every fn `id` for which `solve(id, node)` holds.
fn check_where(
    ws: &Workspace<'_>,
    graph: &CallGraph<'_>,
    model: &CostModel,
    index: &TypeIndex<'_>,
    solve: impl Fn(usize, &FnNode<'_>) -> bool,
) -> Vec<Finding> {
    let mut findings = Vec::new();
    for (id, node) in graph.fns.iter().enumerate() {
        if solve(id, node) {
            check_fn(ws, graph, model, index, id, node, &mut findings);
        }
    }
    findings
}

/// Solve local types for fn `id` and walk every step under its facts.
fn check_fn(
    ws: &Workspace<'_>,
    graph: &CallGraph<'_>,
    model: &CostModel,
    index: &TypeIndex<'_>,
    id: usize,
    node: &FnNode<'_>,
    findings: &mut Vec<Finding>,
) {
    let Some(file) = ws.files.get(node.file) else {
        return;
    };
    let lt = LocalTypes::new(index, node);
    let facts = types::solve_fn(&lt, &node.cfg);
    let hot_witness = model.is_hot(id).then(|| {
        model
            .hot_path(graph, id)
            .unwrap_or_else(|| node.name.to_string())
    });
    let mut ctx = SiteCtx {
        lt: &lt,
        file,
        hot_witness,
        findings,
    };
    for (nid, cfg_node) in node.cfg.nodes.iter().enumerate() {
        let Some(fact_in) = facts.get(nid).and_then(|f| f.as_ref()) else {
            continue;
        };
        dataflow::replay(&lt, &cfg_node.steps, fact_in, &mut |step, fact| {
            if let Some(e) = cost::step_expr(step) {
                walk(&mut ctx, fact, e);
            }
        });
    }
}

/// The reference for the gated solve: the unconditional loop, which
/// solves local types for every fn.
#[cfg(test)]
pub(crate) mod reference {
    use super::*;

    /// [`check_numeric`] without the gate.
    pub(crate) fn check_numeric(
        ws: &Workspace<'_>,
        graph: &CallGraph<'_>,
        model: &CostModel,
        index: &TypeIndex<'_>,
    ) -> Vec<Finding> {
        check_where(ws, graph, model, index, |_, _| true)
    }

    /// What the full solve reports in the fns the gate skips.
    pub(crate) fn skipped_findings(
        ws: &Workspace<'_>,
        graph: &CallGraph<'_>,
        model: &CostModel,
        index: &TypeIndex<'_>,
    ) -> Vec<Finding> {
        check_where(ws, graph, model, index, |id, node| {
            !may_report(node, model.is_hot(id))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(files: &[(&str, &str)]) -> Vec<Finding> {
        let ws = Workspace::build(files);
        let graph = CallGraph::build(&ws);
        let model = CostModel::build(&ws, &graph);
        let index = TypeIndex::build(&ws);
        check_numeric(&ws, &graph, &model, &index)
    }

    #[test]
    fn lossy_cast_on_corpus_scale_operand_denies() {
        let findings = run(&[(
            "crates/core/src/lib.rs",
            "pub fn f(xs: &[u8]) -> Result<u32, ()> {\n\
                 let n = xs.len();\n\
                 Ok(n as u32)\n\
             }\n",
        )]);
        assert_eq!(findings.len(), 1, "{findings:?}");
        let f = findings.first().expect("finding");
        assert_eq!((f.rule, f.severity), ("N1", Severity::Deny));
        assert_eq!(f.line, 3);
        assert!(f.message.contains("narrowing truncates"), "{}", f.message);
    }

    #[test]
    fn widening_with_from_impl_warns_and_carries_the_rewrite() {
        let src = "pub fn f(page_count: u32) -> u64 {\n    page_count as u64\n}\n";
        let findings = run(&[("crates/core/src/lib.rs", src)]);
        assert_eq!(findings.len(), 1, "{findings:?}");
        let f = findings.first().expect("finding");
        assert_eq!((f.rule, f.severity), ("N1", Severity::Warn));
        assert_eq!((f.line, f.col), (2, 5));
        assert!(f.message.contains("`u64::from`"), "{}", f.message);
    }

    #[test]
    fn widening_without_from_impl_and_noop_casts_are_exempt() {
        let findings = run(&[(
            "crates/core/src/lib.rs",
            "pub fn f(xs: &[u8]) -> u64 {\n\
                 let n = xs.len();\n\
                 let narrow = 3u32;\n\
                 let _as_usize = narrow as usize;\n\
                 n as u64\n\
             }\n",
        )]);
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn non_scale_operands_are_exempt() {
        let findings = run(&[(
            "crates/core/src/lib.rs",
            "pub fn f(flags: u64) -> u32 {\n\
                 flags as u32\n\
             }\n",
        )]);
        assert!(
            findings.is_empty(),
            "non-scale narrowing tolerated: {findings:?}"
        );
    }

    #[test]
    fn unchecked_counter_add_in_hot_fn_warns() {
        let findings = run(&[(
            "crates/core/src/lib.rs",
            "pub struct Funnel { pub pages_total: u64 }\n\
             fn bump(f: &mut Funnel) { f.pages_total += 1; }\n\
             pub fn run_pipeline(f: &mut Funnel, domains: &[String]) {\n\
                 for _d in domains { bump(f); }\n\
             }\n",
        )]);
        assert_eq!(findings.len(), 1, "{findings:?}");
        let f = findings.first().expect("finding");
        assert_eq!((f.rule, f.severity), ("N2", Severity::Warn));
        assert!(f.message.contains("saturating_add"), "{}", f.message);
        assert!(f.message.contains("hot path:"), "{}", f.message);
    }

    #[test]
    fn saturating_rewrite_and_cold_fns_are_clean() {
        let findings = run(&[(
            "crates/core/src/lib.rs",
            "pub struct Funnel { pub pages_total: u64 }\n\
             fn bump(f: &mut Funnel) {\n\
                 f.pages_total = f.pages_total.saturating_add(1);\n\
             }\n\
             fn cold_bump(f: &mut Funnel) { f.pages_total += 1; }\n\
             pub fn run_pipeline(f: &mut Funnel, domains: &[String]) {\n\
                 for _d in domains { bump(f); }\n\
             }\n",
        )]);
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn unknown_typed_places_stay_silent() {
        let findings = run(&[(
            "crates/core/src/lib.rs",
            "pub fn run_pipeline(domains: &[String]) {\n\
                 let mut total = 0;\n\
                 for _d in domains { total += 1; }\n\
             }\n",
        )]);
        assert!(
            findings.is_empty(),
            "unsuffixed literal stays Unknown: {findings:?}"
        );
    }
}
