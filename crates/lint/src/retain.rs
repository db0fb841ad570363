//! `S1`: interprocedural memory-retention and escape analysis.
//!
//! The ROADMAP's streaming refactor needs the analyzer to *see* which
//! collections materialize corpus-scale data. This pass classifies each
//! growable collection a fn builds as **streamed** (consumed inside the
//! loop that grows it), **retained** (accumulated across the loop and
//! escaping the fn), or **local** (neither escapes nor streams), seeded
//! from the [`crate::cost`] hot set and loop-depth machinery.
//!
//! **`S1` retained-accumulator-with-streaming-consumer** (Warn): a
//! collection grown inside a loop of a *hot* fn escapes via `return`,
//! and the fn's sole workspace caller iterates the result exactly once.
//! The producer materializes the whole corpus only for the consumer to
//! walk it front-to-back — the pair is a streaming candidate (yield
//! per-item via a callback or iterator instead). Findings carry the
//! entry→fn witness chain like `X1`/`H2`.
//!
//! Approximation directions (see DESIGN.md §6a): *streamed* requires a
//! syntactic consume (`clear`/`drain`/rebind) inside the growing loop,
//! so a collection consumed through a helper is conservatively treated
//! as retained (over-approximates retention — more `S1` candidates,
//! never a missed one), while the rule fires only inside the hot set
//! (fns the pipeline provably reaches), which under-approximates the
//! workspace as a whole.

use crate::callgraph::{CallGraph, FnNode};
use crate::cost::CostModel;
use crate::expr::{child_blocks, for_each_child, Expr, ExprKind, Pat, Stmt};
use crate::findings::{Finding, Severity};
use crate::graph::Workspace;

/// Constructors that start a growable collection.
const GROWABLE_HEADS: &[&str] = &[
    "Vec", "String", "VecDeque", "BTreeMap", "BTreeSet", "HashMap", "HashSet",
];

/// Methods that add elements to a collection.
const GROW_METHODS: &[&str] = &[
    "push",
    "push_str",
    "push_back",
    "push_front",
    "extend",
    "append",
    "insert",
];

/// Methods that consume/reset a collection in place (the streamed shape).
const CONSUME_METHODS: &[&str] = &["clear", "drain", "take", "split_off"];

/// How a fn's collection relates to the loop that grows it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Retention {
    /// Consumed (cleared/drained/rebound) inside the growing loop.
    Streamed,
    /// Escapes the fn via `return` after accumulating across the loop.
    Retained,
    /// Grows in a loop but neither streams nor escapes.
    Local,
}

/// One classified collection in one fn.
#[derive(Debug, Clone)]
pub struct RetentionRecord {
    /// Workspace-relative file of the defining fn.
    pub file: String,
    /// Defining fn name.
    pub fn_name: String,
    /// Collection binding name.
    pub name: String,
    /// 1-based line of the binding.
    pub line: u32,
    /// 1-based column of the binding.
    pub col: u32,
    /// Classification.
    pub class: Retention,
    /// Whether the defining fn is in the pipeline hot set.
    pub hot: bool,
}

/// Whether an initializer expression builds a growable collection:
/// `Vec::new()`, `HashMap::with_capacity(..)`, `vec![..]`, `String::from`,
/// or a `collect()` into one (type-directed collects are unknowable, so
/// only ctor forms count — under-approximating the candidate set).
fn growable_init(e: &Expr<'_>) -> bool {
    match &e.kind {
        ExprKind::Call { callee, .. } => {
            if let ExprKind::Path(segs) = &callee.kind {
                segs.iter().any(|s| GROWABLE_HEADS.contains(s))
            } else {
                false
            }
        }
        ExprKind::MacroCall { path, .. } => path.last() == Some(&"vec"),
        _ => false,
    }
}

/// A growable binding in one fn body.
#[derive(Debug)]
struct Accumulator<'a> {
    name: &'a str,
    line: u32,
    col: u32,
}

/// Every `let <name> = <growable ctor>` in a body, in source order.
fn accumulators<'a>(body: &'a [Stmt<'a>]) -> Vec<Accumulator<'a>> {
    let mut out = Vec::new();
    crate::expr::for_each_let(body, &mut |pat, _ty, init| {
        let Pat::Ident { name, .. } = pat else {
            return;
        };
        if init.is_some_and(growable_init) {
            out.push(Accumulator {
                name,
                line: init.map(|e| e.line).unwrap_or(0),
                col: init.map(|e| e.col).unwrap_or(0),
            });
        }
    });
    out
}

/// Whether an expression is a grow call on the named binding
/// (`name.push(..)` and friends).
fn is_grow_on(e: &Expr<'_>, name: &str) -> bool {
    let ExprKind::MethodCall { recv, name: m, .. } = &e.kind else {
        return false;
    };
    GROW_METHODS.contains(m)
        && matches!(&recv.kind, ExprKind::Path(segs) if segs.as_slice() == [name])
}

/// Whether an expression consumes/resets the named binding in place.
fn is_consume_on(e: &Expr<'_>, name: &str) -> bool {
    match &e.kind {
        ExprKind::MethodCall { recv, name: m, .. } => {
            CONSUME_METHODS.contains(m)
                && matches!(&recv.kind, ExprKind::Path(segs) if segs.as_slice() == [name])
        }
        // `mem::take(&mut name)` / `std::mem::take(&mut name)`.
        ExprKind::Call { callee, args } => {
            matches!(&callee.kind, ExprKind::Path(segs) if segs.last() == Some(&"take"))
                && args.iter().any(|a| match &a.kind {
                    ExprKind::Ref { operand, .. } => {
                        matches!(&operand.kind, ExprKind::Path(segs) if segs.as_slice() == [name])
                    }
                    _ => false,
                })
        }
        // Rebinding the accumulator resets it for the next iteration.
        ExprKind::Assign { lhs, op, .. } => {
            *op == "=" && matches!(&lhs.kind, ExprKind::Path(segs) if segs.as_slice() == [name])
        }
        _ => false,
    }
}

/// Whether any expression in a tree satisfies `pred`. Unlike the shared
/// [`for_each_expr`](crate::expr::for_each_expr) walk this also descends
/// into match-arm guards and bodies, which the retention rules need
/// (accumulators are often grown inside `match` arms).
fn tree_any(e: &Expr<'_>, pred: &impl Fn(&Expr<'_>) -> bool) -> bool {
    if pred(e) {
        return true;
    }
    let mut found = false;
    for_each_child(e, &mut |c| {
        if !found {
            found = tree_any(c, pred);
        }
    });
    if found {
        return true;
    }
    if let ExprKind::Match { arms, .. } = &e.kind {
        for arm in arms {
            if arm.guard.as_ref().is_some_and(|g| tree_any(g, pred)) || tree_any(&arm.body, pred) {
                return true;
            }
        }
    }
    for block in child_blocks(e) {
        if stmts_any(block, pred) {
            return true;
        }
    }
    false
}

fn stmts_any(stmts: &[Stmt<'_>], pred: &impl Fn(&Expr<'_>) -> bool) -> bool {
    for stmt in stmts {
        let hit = match stmt {
            Stmt::Let {
                init, else_block, ..
            } => {
                init.as_ref().is_some_and(|e| tree_any(e, pred))
                    || else_block.as_ref().is_some_and(|b| stmts_any(b, pred))
            }
            Stmt::Expr { expr, .. } => tree_any(expr, pred),
        };
        if hit {
            return true;
        }
    }
    false
}

/// Find every loop that grows `name`, walking the body with a loop stack
/// (closures are descended into — the CFG inlines them the same way).
fn growing_loops<'a>(body: &'a [Stmt<'a>], name: &str) -> Vec<&'a Expr<'a>> {
    let mut out: Vec<&'a Expr<'a>> = Vec::new();
    let mut stack: Vec<&'a Expr<'a>> = Vec::new();
    walk(body, name, &mut stack, &mut out);
    fn walk<'a>(
        stmts: &'a [Stmt<'a>],
        name: &str,
        stack: &mut Vec<&'a Expr<'a>>,
        out: &mut Vec<&'a Expr<'a>>,
    ) {
        for stmt in stmts {
            match stmt {
                Stmt::Let {
                    init, else_block, ..
                } => {
                    if let Some(e) = init {
                        walk_expr(e, name, stack, out);
                    }
                    if let Some(b) = else_block {
                        walk(b, name, stack, out);
                    }
                }
                Stmt::Expr { expr, .. } => walk_expr(expr, name, stack, out),
            }
        }
    }
    fn walk_expr<'a>(
        e: &'a Expr<'a>,
        name: &str,
        stack: &mut Vec<&'a Expr<'a>>,
        out: &mut Vec<&'a Expr<'a>>,
    ) {
        let is_loop = matches!(
            e.kind,
            ExprKind::While { .. }
                | ExprKind::WhileLet { .. }
                | ExprKind::For { .. }
                | ExprKind::Loop { .. }
        );
        if is_loop {
            stack.push(e);
        }
        if is_grow_on(e, name) {
            if let Some(&lp) = stack.last() {
                if !out.iter().any(|g| (g.line, g.col) == (lp.line, lp.col)) {
                    out.push(lp);
                }
            }
        }
        for_each_child(e, &mut |c| walk_expr(c, name, stack, out));
        if let ExprKind::Match { arms, .. } = &e.kind {
            for arm in arms {
                walk_expr(&arm.body, name, stack, out);
            }
        }
        for block in child_blocks(e) {
            walk(block, name, stack, out);
        }
        if is_loop {
            stack.pop();
        }
    }
    out
}

/// Whether the fn returns the named binding: a tail expression or
/// `return` of `name`, optionally wrapped in `Ok(..)`/`Some(..)`.
fn escapes_by_return(body: &[Stmt<'_>], name: &str) -> bool {
    fn is_name_or_wrapped(e: &Expr<'_>, name: &str) -> bool {
        match &e.kind {
            ExprKind::Path(segs) => segs.as_slice() == [name],
            ExprKind::Call { callee, args } => {
                matches!(
                    &callee.kind,
                    ExprKind::Path(segs)
                        if matches!(segs.last().copied(), Some("Ok" | "Some"))
                ) && args.len() == 1
                    && args.first().is_some_and(|a| is_name_or_wrapped(a, name))
            }
            _ => false,
        }
    }
    // Tail position: the last statement, expression form, no semicolon.
    let tail = matches!(
        body.last(),
        Some(Stmt::Expr { expr, semi: false }) if is_name_or_wrapped(expr, name)
    );
    if tail {
        return true;
    }
    stmts_any(body, &|e| match &e.kind {
        ExprKind::Return(Some(inner)) => is_name_or_wrapped(inner, name),
        _ => false,
    })
}

/// How the collection `name` of `body` relates to the loops that grow
/// it; `None` when no loop grows it.
fn classify(body: &[Stmt<'_>], name: &str) -> Option<Retention> {
    let loops = growing_loops(body, name);
    if loops.is_empty() {
        return None;
    }
    let streamed = loops.iter().all(|lp| {
        child_blocks(lp)
            .iter()
            .any(|b| stmts_any(b, &|e| is_consume_on(e, name)))
    });
    let class = if streamed {
        Retention::Streamed
    } else if escapes_by_return(body, name) {
        Retention::Retained
    } else {
        Retention::Local
    };
    Some(class)
}

/// Classify every growable collection in every fn of the workspace.
pub fn retention_records(
    ws: &Workspace<'_>,
    graph: &CallGraph<'_>,
    model: &CostModel,
) -> Vec<RetentionRecord> {
    let mut out = Vec::new();
    for (id, node) in graph.fns.iter().enumerate() {
        let Some(file) = ws.files.get(node.file) else {
            continue;
        };
        let body = &node.info.body;
        for acc in accumulators(body) {
            let Some(class) = classify(body, acc.name) else {
                continue;
            };
            out.push(RetentionRecord {
                file: file.parsed.rel_path.to_string(),
                fn_name: node.name.to_string(),
                name: acc.name.to_string(),
                line: acc.line,
                col: acc.col,
                class,
                hot: model.is_hot(id),
            });
        }
    }
    out
}

/// Call-graph callers of `id`, with the call-site line of the first edge.
fn callers_of(graph: &CallGraph<'_>, id: usize) -> Vec<(usize, u32, u32)> {
    let mut out = Vec::new();
    for (u, edges) in graph.edges.iter().enumerate() {
        for e in edges {
            if e.to == id {
                out.push((u, e.line, e.col));
                break;
            }
        }
    }
    out
}

/// Whether `caller` consumes the call at `(line, col)` by iterating its
/// result exactly once: either `for x in f(..)` directly, or
/// `let ys = f(..)` where `ys` is used exactly once, as a `for` iterable.
fn sole_iterating_consumer(caller: &FnNode<'_>, line: u32, col: u32) -> bool {
    let body = &caller.info.body;
    // Direct form: the call appears inside a `for` head.
    let mut direct = false;
    let mut bound_name: Option<&str> = None;
    crate::expr::for_each_expr(body, &mut |e| {
        if let ExprKind::For { iter, .. } = &e.kind {
            if tree_any(iter, &|x| x.line == line && x.col == col) {
                direct = true;
            }
        }
    });
    if direct {
        return true;
    }
    // Bound form: find the `let` whose initializer holds the call.
    crate::expr::for_each_let(body, &mut |pat, _ty, init| {
        if bound_name.is_some() {
            return;
        }
        let Pat::Ident { name, .. } = pat else {
            return;
        };
        if init.is_some_and(|e| tree_any(e, &|x| x.line == line && x.col == col)) {
            bound_name = Some(*name);
        }
    });
    let Some(name) = bound_name else {
        return false;
    };
    // Count uses of the binding outside its own `let`.
    let mut uses = 0usize;
    let mut for_uses = 0usize;
    crate::expr::for_each_expr(body, &mut |e| {
        if let ExprKind::For { iter, .. } = &e.kind {
            let in_head = match &iter.kind {
                ExprKind::Path(segs) => segs.as_slice() == [name],
                ExprKind::Ref { operand, .. } => {
                    matches!(&operand.kind, ExprKind::Path(segs) if segs.as_slice() == [name])
                }
                ExprKind::MethodCall { recv, name: m, .. } => {
                    matches!(*m, "iter" | "into_iter" | "iter_mut" | "drain")
                        && matches!(&recv.kind, ExprKind::Path(segs) if segs.as_slice() == [name])
                }
                _ => false,
            };
            if in_head {
                for_uses += 1;
            }
        }
        if matches!(&e.kind, ExprKind::Path(segs) if segs.as_slice() == [name])
            && !(e.line == line && e.col == col)
        {
            uses += 1;
        }
    });
    for_uses == 1 && uses == 1
}

/// Run the `S1` retention pass over an analyzed workspace.
pub fn check_retention(
    ws: &Workspace<'_>,
    graph: &CallGraph<'_>,
    model: &CostModel,
) -> Vec<Finding> {
    let mut findings = Vec::new();
    for (id, node) in graph.fns.iter().enumerate() {
        if !model.is_hot(id) {
            continue;
        }
        let Some(file) = ws.files.get(node.file) else {
            continue;
        };
        let body = &node.info.body;
        let mut retained = Vec::new();
        for acc in accumulators(body) {
            if classify(body, acc.name) == Some(Retention::Retained) {
                retained.push(acc);
            }
        }

        // S1: retained accumulators of a fn with exactly one workspace
        // caller, which iterates the result exactly once.
        if retained.is_empty() {
            continue;
        }
        let callers = callers_of(graph, id);
        let [(caller_id, line, col)] = callers.as_slice() else {
            continue;
        };
        let Some(caller) = graph.fns.get(*caller_id) else {
            continue;
        };
        if !sole_iterating_consumer(caller, *line, *col) {
            continue;
        }
        for acc in retained {
            findings.push(Finding::at(
                "S1",
                Severity::Warn,
                file.parsed.rel_path,
                acc.line,
                acc.col,
                format!(
                    "corpus-scale accumulator `{}` escapes hot fn `{}` and its sole \
                     consumer `{}` iterates it exactly once (hot path: {}); stream \
                     per-item via a callback or iterator instead of materializing \
                     the whole collection",
                    acc.name,
                    node.name,
                    caller.name,
                    model
                        .hot_path(graph, id)
                        .unwrap_or_else(|| node.name.to_string()),
                ),
                file.snippet(acc.line),
            ));
        }
    }
    findings
}
