//! `S1`/`S2`: interprocedural memory-retention and escape analysis.
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
//! **`S2` unbounded-growth-in-loop** (Warn): a collection grown inside a
//! `loop`/`while` (or a `for` over an unbounded iterator) of a hot fn,
//! with no visible bound: no length/limit test in the loop condition, no
//! guarded `break`/`return`, no visited-set guard around the growth, and
//! — for worklist loops — the drained queue is itself re-fed inside the
//! body. At the 30k/300k-domain universe an unbounded accumulator is an
//! OOM, not a slowdown.
//!
//! Approximation directions (see DESIGN.md §6a): *streamed* requires a
//! syntactic consume (`clear`/`drain`/rebind) inside the growing loop,
//! so a collection consumed through a helper is conservatively treated
//! as retained (over-approximates retention — more `S1` candidates,
//! never a missed one); bound evidence for `S2` is recognized
//! syntactically, so an exotic bound yields a spurious finding rather
//! than a silent OOM (`S2` over-approximates unboundedness), while both
//! rules fire only inside the hot set (fns the pipeline provably
//! reaches), which under-approximates the workspace as a whole.

use crate::callgraph::{CallGraph, FnNode};
use crate::cost::CostModel;
use crate::expr::{child_blocks, for_each_child, Expr, ExprKind, Pat, Stmt};
use crate::findings::{Finding, Severity};
use crate::graph::Workspace;
use std::collections::{BTreeMap, BTreeSet};

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

/// Identifier fragments that signal a loop bound (budgets, caps, limits).
const BOUND_NAME_HINTS: &[&str] = &[
    "len",
    "limit",
    "max",
    "cap",
    "budget",
    "remaining",
    "count",
    "attempt",
    "tries",
    "depth",
    "bound",
    "quota",
];

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
pub(crate) fn tree_any(e: &Expr<'_>, pred: &impl Fn(&Expr<'_>) -> bool) -> bool {
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

pub(crate) fn stmts_any(stmts: &[Stmt<'_>], pred: &impl Fn(&Expr<'_>) -> bool) -> bool {
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

/// One loop that grows an accumulator: the loop expression plus which
/// in-loop facts were observed.
struct GrowingLoop<'a> {
    /// The loop expression itself.
    lp: &'a Expr<'a>,
    /// First grow site (line, col) inside the loop.
    site: (u32, u32),
}

/// Find every loop that grows `name`, walking the body with a loop stack
/// (closures are descended into — the CFG inlines them the same way).
fn growing_loops<'a>(body: &'a [Stmt<'a>], name: &str) -> Vec<GrowingLoop<'a>> {
    let mut out: Vec<GrowingLoop<'a>> = Vec::new();
    let mut stack: Vec<&'a Expr<'a>> = Vec::new();
    walk(body, name, &mut stack, &mut out);
    fn walk<'a>(
        stmts: &'a [Stmt<'a>],
        name: &str,
        stack: &mut Vec<&'a Expr<'a>>,
        out: &mut Vec<GrowingLoop<'a>>,
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
        out: &mut Vec<GrowingLoop<'a>>,
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
            if let Some(lp) = stack.last() {
                if !out
                    .iter()
                    .any(|g| (g.lp.line, g.lp.col) == (lp.line, lp.col))
                {
                    out.push(GrowingLoop {
                        lp,
                        site: (e.line, e.col),
                    });
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

/// Whether an expression tree mentions a bound-shaped identifier, a
/// `.len()`/`.is_empty()` probe, or a fn-local the body derived from a
/// sized input (see [`bound_locals`]) — the syntactic evidence `S2`
/// accepts.
pub(crate) fn mentions_bound(e: &Expr<'_>, bounds: &BTreeSet<&str>) -> bool {
    tree_any(e, &|x| match &x.kind {
        ExprKind::MethodCall { name, .. } => {
            matches!(*name, "len" | "is_empty" | "min" | "capacity")
        }
        ExprKind::Path(segs) => segs.iter().any(|s| {
            has_fragment(s, BOUND_NAME_HINTS)
                || matches!(segs.as_slice(), [one] if bounds.contains(one))
        }),
        _ => false,
    })
}

/// Whether `name` contains one of the lowercase `fragments`, ignoring
/// ASCII case (`maxDepth` holds `depth`).
pub(crate) fn has_fragment(name: &str, fragments: &[&str]) -> bool {
    fragments.iter().any(|f| {
        name.as_bytes()
            .windows(f.len())
            .any(|w| w.eq_ignore_ascii_case(f.as_bytes()))
    })
}

/// Locals whose initializer is itself bound evidence: `let n =
/// items.len()` or `let cap = limit.min(..)`. Comparing against such a
/// local inside a loop guard is a bound even though the `.len()` call is
/// lexically outside the loop. (A bare literal initializer does NOT
/// qualify — `let i = 0` is a counter, not a cap.)
pub(crate) fn bound_locals<'a>(body: &'a [Stmt<'a>]) -> BTreeSet<&'a str> {
    let empty = BTreeSet::new();
    let mut out = BTreeSet::new();
    crate::expr::for_each_let(body, &mut |pat, _ty, init| {
        let Pat::Ident { name, .. } = pat else {
            return;
        };
        if init.is_some_and(|e| mentions_bound(e, &empty)) {
            out.insert(*name);
        }
    });
    out
}

/// Whether an expression tree contains a visited-set guard: an
/// `insert`/`contains`/`contains_key` probe on some collection.
fn visited_guard(e: &Expr<'_>) -> bool {
    tree_any(e, &|x| {
        matches!(
            &x.kind,
            ExprKind::MethodCall { name, .. }
                if matches!(*name, "insert" | "contains" | "contains_key")
        )
    })
}

/// Whether a `break`/`return` inside the loop body sits under an `if` or
/// `match` whose condition shows a bound or visited-set probe.
pub(crate) fn guarded_exit(body: &[Stmt<'_>], bounds: &BTreeSet<&str>) -> bool {
    fn expr_has(e: &Expr<'_>, bounds: &BTreeSet<&str>) -> bool {
        let own = match &e.kind {
            ExprKind::If {
                cond, then_block, ..
            } => {
                (mentions_bound(cond, bounds) || visited_guard(cond))
                    && stmts_any(then_block, &|x| {
                        matches!(x.kind, ExprKind::Break(_) | ExprKind::Return(_))
                    })
            }
            ExprKind::Match { scrutinee, arms } => {
                (mentions_bound(scrutinee, bounds) || visited_guard(scrutinee))
                    && arms.iter().any(|arm| {
                        tree_any(&arm.body, &|x| {
                            matches!(x.kind, ExprKind::Break(_) | ExprKind::Return(_))
                        })
                    })
            }
            _ => false,
        };
        if own {
            return true;
        }
        let mut found = false;
        for_each_child(e, &mut |c| {
            if !found {
                found = expr_has(c, bounds);
            }
        });
        if found {
            return true;
        }
        child_blocks(e).iter().any(|b| stmts_has(b, bounds))
    }
    fn stmts_has(stmts: &[Stmt<'_>], bounds: &BTreeSet<&str>) -> bool {
        stmts.iter().any(|stmt| match stmt {
            Stmt::Let {
                init, else_block, ..
            } => {
                init.as_ref().is_some_and(|e| expr_has(e, bounds))
                    || else_block.as_ref().is_some_and(|b| stmts_has(b, bounds))
            }
            Stmt::Expr { expr, .. } => expr_has(expr, bounds),
        })
    }
    stmts_has(body, bounds)
}

/// Worklist-drain scrutinee: `while let Some(x) = <queue>.pop*()` /
/// `.next()` — returns the drained queue's root name.
fn drained_root<'a>(scrutinee: &Expr<'a>) -> Option<&'a str> {
    let ExprKind::MethodCall { recv, name, .. } = &scrutinee.kind else {
        return None;
    };
    if !matches!(*name, "pop" | "pop_front" | "pop_back" | "next") {
        return None;
    }
    match &recv.kind {
        ExprKind::Path(segs) => match *segs.as_slice() {
            [one] => Some(one),
            _ => None,
        },
        _ => None,
    }
}

/// Whether a loop shows any bound the rule accepts. `body`/`cond` are
/// the loop's own statements and condition (when it has one); `bounds`
/// holds the fn's sized-input locals (see [`bound_locals`]).
fn loop_is_bounded(lp: &Expr<'_>, grow_line: u32, grow_col: u32, bounds: &BTreeSet<&str>) -> bool {
    match &lp.kind {
        // A `for` loop over anything but an unbounded generator is
        // inherently bounded by its input.
        ExprKind::For { iter, body, .. } => {
            let unbounded = tree_any(iter, &|x| match &x.kind {
                ExprKind::MethodCall { name, .. } => *name == "cycle",
                ExprKind::Call { callee, .. } => matches!(
                    &callee.kind,
                    ExprKind::Path(segs)
                        if segs.last().is_some_and(|&s| s == "repeat" || s == "repeat_with")
                ),
                ExprKind::Range { hi, .. } => hi.is_none(),
                _ => false,
            });
            !unbounded || guarded_exit(body, bounds)
        }
        ExprKind::While { cond, body } => {
            mentions_bound(cond, bounds)
                || guarded_exit(body, bounds)
                || grow_is_guarded(body, grow_line, grow_col, bounds)
        }
        ExprKind::WhileLet {
            scrutinee, body, ..
        } => {
            // Draining a worklist is bounded unless the body re-feeds the
            // same queue without a visited-set guard.
            if let Some(queue) = drained_root(scrutinee) {
                let refeeds = stmts_any(body, &|x| is_grow_on(x, queue));
                if !refeeds {
                    return true;
                }
            }
            guarded_exit(body, bounds) || grow_is_guarded(body, grow_line, grow_col, bounds)
        }
        ExprKind::Loop { body } => {
            guarded_exit(body, bounds) || grow_is_guarded(body, grow_line, grow_col, bounds)
        }
        _ => true,
    }
}

/// Whether the grow site at `(line, col)` sits under an `if` whose
/// condition carries a visited-set or bound probe.
fn grow_is_guarded(body: &[Stmt<'_>], line: u32, col: u32, bounds: &BTreeSet<&str>) -> bool {
    fn contains_site(stmts: &[Stmt<'_>], line: u32, col: u32) -> bool {
        stmts_any(stmts, &|e| e.line == line && e.col == col)
    }
    fn expr_guards(e: &Expr<'_>, line: u32, col: u32, bounds: &BTreeSet<&str>) -> bool {
        let own = match &e.kind {
            ExprKind::If {
                cond, then_block, ..
            } => {
                (visited_guard(cond) || mentions_bound(cond, bounds))
                    && contains_site(then_block, line, col)
            }
            ExprKind::IfLet {
                scrutinee,
                then_block,
                ..
            } => {
                (visited_guard(scrutinee) || mentions_bound(scrutinee, bounds))
                    && contains_site(then_block, line, col)
            }
            _ => false,
        };
        if own {
            return true;
        }
        let mut found = false;
        for_each_child(e, &mut |c| {
            if !found {
                found = expr_guards(c, line, col, bounds);
            }
        });
        if found {
            return true;
        }
        child_blocks(e)
            .iter()
            .any(|b| stmts_guard(b, line, col, bounds))
    }
    fn stmts_guard(stmts: &[Stmt<'_>], line: u32, col: u32, bounds: &BTreeSet<&str>) -> bool {
        stmts.iter().any(|stmt| match stmt {
            Stmt::Let {
                init, else_block, ..
            } => {
                init.as_ref()
                    .is_some_and(|e| expr_guards(e, line, col, bounds))
                    || else_block
                        .as_ref()
                        .is_some_and(|b| stmts_guard(b, line, col, bounds))
            }
            Stmt::Expr { expr, .. } => expr_guards(expr, line, col, bounds),
        })
    }
    stmts_guard(body, line, col, bounds)
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
            let loops = growing_loops(body, acc.name);
            if loops.is_empty() {
                continue;
            }
            let streamed = loops.iter().all(|g| {
                let blocks = child_blocks(g.lp);
                blocks
                    .iter()
                    .any(|b| stmts_any(b, &|e| is_consume_on(e, acc.name)))
            });
            let class = if streamed {
                Retention::Streamed
            } else if escapes_by_return(body, acc.name) {
                Retention::Retained
            } else {
                Retention::Local
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

/// Run the `S1`/`S2` retention passes over an analyzed workspace.
pub fn check_retention(
    ws: &Workspace<'_>,
    graph: &CallGraph<'_>,
    model: &CostModel,
) -> Vec<Finding> {
    let mut findings = Vec::new();
    // Pre-index record lookups per fn id for S1.
    let mut by_fn: BTreeMap<usize, Vec<(Accumulator<'_>, bool)>> = BTreeMap::new();
    for (id, node) in graph.fns.iter().enumerate() {
        if !model.is_hot(id) {
            continue;
        }
        let Some(file) = ws.files.get(node.file) else {
            continue;
        };
        let body = &node.info.body;
        let bounds = bound_locals(body);
        for acc in accumulators(body) {
            let loops = growing_loops(body, acc.name);
            if loops.is_empty() {
                continue;
            }
            let streamed = loops.iter().all(|g| {
                child_blocks(g.lp)
                    .iter()
                    .any(|b| stmts_any(b, &|e| is_consume_on(e, acc.name)))
            });

            // S2: any growing loop with no visible bound.
            for g in &loops {
                if !loop_is_bounded(g.lp, g.site.0, g.site.1, &bounds) {
                    findings.push(Finding::at(
                        "S2",
                        Severity::Warn,
                        file.parsed.rel_path,
                        g.site.0,
                        g.site.1,
                        format!(
                            "`{}` grows inside a loop with no bound derived from a sized \
                             input (hot path: {}); at corpus scale this is unbounded \
                             memory — add a length/budget check, a visited-set guard, \
                             or a guarded break",
                            acc.name,
                            model
                                .hot_path(graph, id)
                                .unwrap_or_else(|| node.name.to_string()),
                        ),
                        file.snippet(g.site.0),
                    ));
                    break;
                }
            }

            if !streamed && escapes_by_return(body, acc.name) {
                by_fn.entry(id).or_default().push((acc, true));
            }
        }
    }

    // S1: retained accumulator whose fn has exactly one workspace caller
    // that iterates the result exactly once.
    for (id, accs) in &by_fn {
        let Some(node) = graph.fns.get(*id) else {
            continue;
        };
        let Some(file) = ws.files.get(node.file) else {
            continue;
        };
        let callers = callers_of(graph, *id);
        let [(caller_id, line, col)] = callers.as_slice() else {
            continue;
        };
        let Some(caller) = graph.fns.get(*caller_id) else {
            continue;
        };
        if !sole_iterating_consumer(caller, *line, *col) {
            continue;
        }
        for (acc, _) in accs {
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
                        .hot_path(graph, *id)
                        .unwrap_or_else(|| node.name.to_string()),
                ),
                file.snippet(acc.line),
            ));
        }
    }
    findings
}
