//! `W1`/`W2`: static sharing and lock-contention analysis for worker
//! pools.
//!
//! Early pipeline timings measured multi-worker runs *slower* than
//! serial: the workers parallelized the crawl but serialized on shared
//! state in the annotate-heavy stage. This pass finds the static
//! signatures of that failure. From every spawn point inside a loop (a
//! worker pool), it computes the values reachable by the worker closure —
//! capture analysis over the [`crate::expr`] walkers plus the
//! [`crate::callgraph`] for callee effects — and combines them with the
//! [`crate::guards`] lock vocabulary and [`crate::cost`] weights.
//!
//! **`W1` unsynchronized-worker-mutation** (Deny): a worker closure
//! spawned in a loop mutates state that is shared across workers (bound
//! outside the spawning loop) through no recognized synchronization
//! primitive. Mutation is an assignment, a `&mut` borrow, a known
//! mutating method, or a resolved workspace call whose callee mutates
//! the corresponding parameter or `self`. Per-worker state (re-bound
//! inside the spawning loop, e.g. cloned channel handles) and accesses
//! through `Mutex`/`RwLock`/atomic/channel methods are exempt.
//!
//! **`W2` hot-loop-lock-with-expensive-region** (Warn): a lock acquired
//! inside a *corpus-scale* loop of a hot fn, holding allocation work of
//! weight ≥ [`W2_HELD_MIN`] while other workers wait. Worker-scale loops
//! (`for _ in 0..workers`) are not corpus loops — spawning N workers
//! acquires N times, iterating the corpus acquires 30k times.
//!
//! Approximation directions (see DESIGN.md §6a): the bound-name set
//! inside a closure is over-approximated (any binding anywhere in the
//! closure), so captures — and therefore `W1` findings — are
//! under-approximated; a `Deny` rule must not cry wolf. Sharing is
//! decided purely by binding position, which over-approximates sharing
//! for values rebound via helpers, but every such value must still show
//! an unsynchronized mutation to fire.

use crate::callgraph::{CallGraph, FnNode, Resolution};
use crate::cost::{self, CostModel};
use crate::expr::{child_blocks, for_each_child, Expr, ExprKind, Pat, Stmt};
use crate::findings::{Finding, Severity};
use crate::graph::Workspace;
use crate::guards;
use crate::retain::{self, tree_any};
use std::collections::BTreeSet;

/// Held allocation weight at or above which `W2` fires (a bare
/// counter-bump region weighs 1 and stays quiet; one clone or grow
/// inside the region reaches 2).
pub const W2_HELD_MIN: u64 = 2;

/// Methods whose receiver is a synchronization primitive: accessing
/// shared state through these is the *sanctioned* path, never a `W1`
/// mutation.
const SYNC_METHODS: &[&str] = &[
    "compare_exchange",
    "compare_exchange_weak",
    "fetch_add",
    "fetch_and",
    "fetch_max",
    "fetch_min",
    "fetch_or",
    "fetch_sub",
    "fetch_xor",
    "iter",
    "join",
    "load",
    "lock",
    "notify_all",
    "notify_one",
    "read",
    "recv",
    "recv_timeout",
    "send",
    "store",
    "swap",
    "try_iter",
    "try_recv",
    "wait",
    "write",
];

/// Methods that mutate their receiver in place (the `W1` trigger set;
/// deliberately explicit rather than "anything not read-only" — a `Deny`
/// rule fires on evidence, not on ignorance).
const MUTATING_METHODS: &[&str] = &[
    "append",
    "clear",
    "dedup",
    "drain",
    "entry",
    "extend",
    "get_mut",
    "insert",
    "iter_mut",
    "pop",
    "pop_back",
    "pop_front",
    "push",
    "push_back",
    "push_front",
    "push_str",
    "remove",
    "replace",
    "resize",
    "retain",
    "set",
    "sort",
    "sort_by",
    "sort_by_key",
    "sort_unstable",
    "take",
    "truncate",
    "values_mut",
];

/// Identifier fragments that mark a loop as worker-scale rather than
/// corpus-scale (`for _ in 0..workers`): spawning N workers is O(N) in
/// worker count, not in corpus size.
const WORKER_LOOP_HINTS: &[&str] = &["worker", "thread"];

/// Path roots that name types/modules rather than runtime values.
fn is_value_root(root: &str) -> bool {
    !matches!(root, "crate" | "super" | "std" | "core" | "alloc" | "Self")
        && !root.chars().next().is_some_and(|c| c.is_ascii_uppercase())
}

/// Root identifier of a place expression, peeling fields, indexing,
/// derefs, and borrows; `self.x.y` roots at `self`.
fn place_root_of<'a>(e: &Expr<'a>) -> Option<&'a str> {
    match &e.kind {
        ExprKind::Path(segs) => match *segs.as_slice() {
            [one] => Some(one),
            _ => None,
        },
        ExprKind::Field { base, .. } | ExprKind::Index { base, .. } => place_root_of(base),
        ExprKind::Unary { operand, .. } | ExprKind::Ref { operand, .. } => place_root_of(operand),
        _ => None,
    }
}

/// Deep statement walk: every statement and every expression in the
/// tree, match-arm guards and bodies included (the shared walkers stop
/// at arm boundaries, which the capture analysis cannot afford).
fn deep_walk_stmts<'e>(
    stmts: &'e [Stmt<'e>],
    on_stmt: &mut impl FnMut(&'e Stmt<'e>),
    on_expr: &mut impl FnMut(&'e Expr<'e>),
) {
    for stmt in stmts {
        on_stmt(stmt);
        match stmt {
            Stmt::Let {
                init, else_block, ..
            } => {
                if let Some(e) = init {
                    deep_walk_expr(e, on_stmt, on_expr);
                }
                if let Some(b) = else_block {
                    deep_walk_stmts(b, on_stmt, on_expr);
                }
            }
            Stmt::Expr { expr, .. } => deep_walk_expr(expr, on_stmt, on_expr),
        }
    }
}

fn deep_walk_expr<'e>(
    e: &'e Expr<'e>,
    on_stmt: &mut impl FnMut(&'e Stmt<'e>),
    on_expr: &mut impl FnMut(&'e Expr<'e>),
) {
    on_expr(e);
    for_each_child(e, &mut |c| deep_walk_expr(c, on_stmt, on_expr));
    if let ExprKind::Match { arms, .. } = &e.kind {
        for arm in arms {
            if let Some(g) = &arm.guard {
                deep_walk_expr(g, on_stmt, on_expr);
            }
            deep_walk_expr(&arm.body, on_stmt, on_expr);
        }
    }
    for block in child_blocks(e) {
        deep_walk_stmts(block, on_stmt, on_expr);
    }
}

/// All names bound anywhere inside an expression tree: `let` patterns,
/// `for`/`if let`/`while let` patterns, match-arm patterns, and nested
/// closure params. Over-approximating boundness under-approximates the
/// capture set — the safe direction for a `Deny` rule.
fn bound_names_in<'a>(e: &'a Expr<'a>, out: &mut BTreeSet<&'a str>) {
    let mut pats: Vec<&Pat<'a>> = Vec::new();
    // Two walks: the walker takes two independent `FnMut`s, so one
    // collector per pass keeps the borrows disjoint.
    deep_walk_expr(
        e,
        &mut |s| {
            if let Stmt::Let { pat, .. } = s {
                pats.push(pat);
            }
        },
        &mut |_| {},
    );
    deep_walk_expr(e, &mut |_| {}, &mut |x| match &x.kind {
        ExprKind::IfLet { pat, .. }
        | ExprKind::WhileLet { pat, .. }
        | ExprKind::For { pat, .. } => pats.push(pat),
        ExprKind::Match { arms, .. } => {
            for arm in arms {
                pats.push(&arm.pat);
            }
        }
        ExprKind::Closure { params, .. } => {
            for p in params {
                pats.push(p);
            }
        }
        _ => {}
    });
    for pat in pats {
        let mut names = Vec::new();
        pat.bound_names(&mut names);
        out.extend(names);
    }
}

/// Value roots *used* inside an expression tree (single-segment path
/// roots of places, plus `self`), match-arm and closure bodies included.
fn used_roots_in<'a>(e: &'a Expr<'a>, out: &mut BTreeSet<&'a str>) {
    deep_walk_expr(e, &mut |_| {}, &mut |x| {
        if let ExprKind::Path(segs) = &x.kind {
            if let [one] = *segs.as_slice() {
                if is_value_root(one) {
                    out.insert(one);
                }
            }
        }
    });
}

/// The free value roots a closure captures from its environment: every
/// root used in the body minus the closure params and every name bound
/// inside the body. This is the worker-reachable set for `W1`, and — by
/// construction — depends only on the closure text, never on how many
/// workers the enclosing loop spawns.
pub fn captured_roots<'a>(params: &'a [Pat<'a>], body: &'a Expr<'a>) -> BTreeSet<String> {
    let mut names = Vec::new();
    for p in params {
        p.bound_names(&mut names);
    }
    let mut bound: BTreeSet<&str> = names.into_iter().collect();
    bound_names_in(body, &mut bound);
    let mut used = BTreeSet::new();
    used_roots_in(body, &mut used);
    used.into_iter()
        .filter(|r| !bound.contains(r))
        .map(str::to_string)
        .collect()
}

/// A spawn call's worker closure, when the expression is one: the first
/// closure among the call arguments (searching through nested trees, so
/// `scope.spawn(move |_| { .. })` and builder forms both resolve).
fn spawn_closure<'e, 'a>(e: &'e Expr<'a>) -> Option<&'e Expr<'a>> {
    let args = match &e.kind {
        ExprKind::MethodCall { name, args, .. } if *name == "spawn" => args,
        ExprKind::Call { callee, args } => {
            if matches!(&callee.kind, ExprKind::Path(segs) if segs.last() == Some(&"spawn")) {
                args
            } else {
                return None;
            }
        }
        _ => return None,
    };
    fn first_closure<'e, 'a>(e: &'e Expr<'a>) -> Option<&'e Expr<'a>> {
        if matches!(e.kind, ExprKind::Closure { .. }) {
            return Some(e);
        }
        let mut found = None;
        for_each_child(e, &mut |c| {
            if found.is_none() {
                found = first_closure(c);
            }
        });
        found
    }
    args.iter().find_map(first_closure)
}

/// Whether a `for` head iterates worker-count state rather than the
/// corpus (`for _ in 0..workers.min(n)`).
fn is_worker_loop(lp: &Expr<'_>) -> bool {
    let ExprKind::For { iter, .. } = &lp.kind else {
        return false;
    };
    tree_any(iter, &|x| match &x.kind {
        ExprKind::Path(segs) => segs
            .iter()
            .any(|s| retain::has_fragment(s, WORKER_LOOP_HINTS)),
        _ => false,
    })
}

/// Per-fn effect summary for the interprocedural leg of `W1`: whether
/// the fn mutates `self`, and which params it mutates.
struct EffectSummary<'a> {
    mutates_self: bool,
    mutated_params: BTreeSet<&'a str>,
}

fn effect_summary<'a>(node: &FnNode<'a>) -> EffectSummary<'a> {
    let params: BTreeSet<&str> = node.info.params.iter().map(|p| p.name).collect();
    let mut mutates_self = false;
    let mut mutated_params = BTreeSet::new();
    deep_walk_stmts(&node.info.body, &mut |_| {}, &mut |e| {
        let target = match &e.kind {
            ExprKind::Assign { lhs, .. } => place_root_of(lhs),
            ExprKind::Ref {
                mutable: true,
                operand,
            } => place_root_of(operand),
            ExprKind::MethodCall { recv, name, .. } if MUTATING_METHODS.contains(name) => {
                place_root_of(recv)
            }
            _ => None,
        };
        if let Some(root) = target {
            if root == "self" {
                mutates_self = true;
            } else if params.contains(root) {
                mutated_params.insert(root);
            }
        }
    });
    EffectSummary {
        mutates_self,
        mutated_params,
    }
}

/// One spawn point inside a loop, with the worker closure and the set of
/// names bound inside the spawning loop (per-worker state).
struct SpawnPoint<'a> {
    spawn_line: u32,
    closure: &'a Expr<'a>,
    per_worker: BTreeSet<&'a str>,
}

/// Every spawn-in-a-loop in a fn body.
fn spawn_points<'a>(body: &'a [Stmt<'a>]) -> Vec<SpawnPoint<'a>> {
    let mut out = Vec::new();
    fn walk<'a>(
        stmts: &'a [Stmt<'a>],
        stack: &mut Vec<&'a Expr<'a>>,
        out: &mut Vec<SpawnPoint<'a>>,
    ) {
        for stmt in stmts {
            match stmt {
                Stmt::Let {
                    init, else_block, ..
                } => {
                    if let Some(e) = init {
                        walk_expr(e, stack, out);
                    }
                    if let Some(b) = else_block {
                        walk(b, stack, out);
                    }
                }
                Stmt::Expr { expr, .. } => walk_expr(expr, stack, out),
            }
        }
    }
    fn walk_expr<'a>(
        e: &'a Expr<'a>,
        stack: &mut Vec<&'a Expr<'a>>,
        out: &mut Vec<SpawnPoint<'a>>,
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
        if let (Some(closure), Some(lp)) = (spawn_closure(e), stack.last()) {
            let mut per_worker = BTreeSet::new();
            // Names bound by the innermost loop: its own pattern plus
            // anything bound in its body (the per-iteration clones).
            if let ExprKind::For { pat, .. } | ExprKind::WhileLet { pat, .. } = &lp.kind {
                let mut names = Vec::new();
                pat.bound_names(&mut names);
                per_worker.extend(names);
            }
            for block in child_blocks(lp) {
                deep_walk_stmts(
                    block,
                    &mut |s| {
                        if let Stmt::Let { pat, .. } = s {
                            let mut names = Vec::new();
                            pat.bound_names(&mut names);
                            per_worker.extend(names);
                        }
                    },
                    &mut |_| {},
                );
            }
            out.push(SpawnPoint {
                spawn_line: e.line,
                closure,
                per_worker,
            });
        }
        for_each_child(e, &mut |c| walk_expr(c, stack, out));
        if let ExprKind::Match { arms, .. } = &e.kind {
            for arm in arms {
                walk_expr(&arm.body, stack, out);
            }
        }
        for block in child_blocks(e) {
            walk(block, stack, out);
        }
        if is_loop {
            stack.pop();
        }
    }
    let mut stack = Vec::new();
    walk(body, &mut stack, &mut out);
    out
}

/// A mutation of a shared capture found inside a worker closure.
struct SharedMutation {
    capture: String,
    line: u32,
    col: u32,
    how: String,
}

/// Mutations of any shared capture inside the closure body, including
/// the interprocedural leg through resolved workspace callees.
fn shared_mutations(
    node: &FnNode<'_>,
    graph: &CallGraph<'_>,
    effects: &[EffectSummary<'_>],
    closure_body: &Expr<'_>,
    shared: &BTreeSet<String>,
) -> Vec<SharedMutation> {
    let mut out = Vec::new();
    deep_walk_expr(closure_body, &mut |_| {}, &mut |e| {
        match &e.kind {
            ExprKind::Assign { lhs, .. } => {
                if let Some(root) = place_root_of(lhs) {
                    if shared.contains(root) {
                        out.push(SharedMutation {
                            capture: root.to_string(),
                            line: lhs.line,
                            col: lhs.col,
                            how: "assigned".to_string(),
                        });
                    }
                }
            }
            ExprKind::Ref {
                mutable: true,
                operand,
            } => {
                if let Some(root) = place_root_of(operand) {
                    if shared.contains(root) {
                        out.push(SharedMutation {
                            capture: root.to_string(),
                            line: operand.line,
                            col: operand.col,
                            how: "mutably borrowed".to_string(),
                        });
                    }
                }
            }
            ExprKind::MethodCall { recv, name, .. } => {
                if SYNC_METHODS.contains(name) {
                    return;
                }
                let Some(root) = place_root_of(recv) else {
                    return;
                };
                if !shared.contains(root) {
                    return;
                }
                if MUTATING_METHODS.contains(name) {
                    out.push(SharedMutation {
                        capture: root.to_string(),
                        line: e.line,
                        col: e.col,
                        how: format!("mutated via `.{name}()`"),
                    });
                    return;
                }
                // Interprocedural: a resolved workspace method on the
                // capture whose body mutates `self` (matched to the
                // parser's call sites by line + name).
                for cs in &node.info.calls {
                    if cs.line == e.line && cs.is_method && cs.name == *name {
                        if let Resolution::Fns(ids) = graph.resolve(node.file, node.self_ty, cs) {
                            if ids
                                .iter()
                                .any(|id| effects.get(*id).is_some_and(|s| s.mutates_self))
                            {
                                out.push(SharedMutation {
                                    capture: root.to_string(),
                                    line: e.line,
                                    col: e.col,
                                    how: format!("mutated through workspace method `{name}`"),
                                });
                            }
                        }
                    }
                }
            }
            ExprKind::Call { callee, args } => {
                // Interprocedural: the capture passed to a resolved
                // workspace fn that mutates the matching parameter.
                let callee_name = match &callee.kind {
                    ExprKind::Path(segs) => segs.last().copied(),
                    _ => None,
                };
                let Some(callee_name) = callee_name else {
                    return;
                };
                for cs in &node.info.calls {
                    if cs.line != e.line || cs.is_method || cs.name != callee_name {
                        continue;
                    }
                    let Resolution::Fns(ids) = graph.resolve(node.file, node.self_ty, cs) else {
                        continue;
                    };
                    for (pos, arg) in args.iter().enumerate() {
                        let root = match &arg.kind {
                            ExprKind::Ref { operand, .. } => place_root_of(operand),
                            _ => place_root_of(arg),
                        };
                        let Some(root) = root else { continue };
                        if !shared.contains(root) {
                            continue;
                        }
                        for id in &ids {
                            let Some(callee_fn) = graph.fns.get(*id) else {
                                continue;
                            };
                            let Some(param) = callee_fn.info.params.get(pos) else {
                                continue;
                            };
                            if effects
                                .get(*id)
                                .is_some_and(|s| s.mutated_params.contains(param.name))
                            {
                                out.push(SharedMutation {
                                    capture: root.to_string(),
                                    line: arg.line,
                                    col: arg.col,
                                    how: format!(
                                        "mutated through workspace fn `{}`",
                                        callee_fn.name
                                    ),
                                });
                            }
                        }
                    }
                }
            }
            _ => {}
        }
    });
    out
}

/// Whether a loop is *constant-bounded* rather than corpus-scale: a
/// `while` whose condition shows bound evidence, or a `loop`/`while let`
/// whose body has a bound-guarded exit (`if redirects >= MAX { return }`,
/// `if i >= n { break }` with `n` derived from `.len()`). Such loops run
/// a small constant number of times (retries, redirects, index hand-off)
/// and must not multiply contention depth the way a per-domain corpus
/// loop does. `for` loops never qualify — iterating a sized input IS the
/// corpus-scale case.
fn is_constant_bounded_loop(e: &Expr<'_>, bounds: &BTreeSet<&str>) -> bool {
    match &e.kind {
        ExprKind::While { cond, body } => {
            retain::mentions_bound(cond, bounds) || retain::guarded_exit(body, bounds)
        }
        ExprKind::WhileLet { body, .. } | ExprKind::Loop { body } => {
            retain::guarded_exit(body, bounds)
        }
        _ => false,
    }
}

/// One recognized lock-acquisition site.
struct AcquisitionSite {
    /// Lock identity (`crate::Struct.field` or `crate::fn::local`).
    lock: String,
    line: u32,
    col: u32,
    /// 1 + allocation weight of the held region.
    held: u64,
    /// Corpus loop depth of the site inside its fn.
    depth: u32,
}

/// Collect every acquisition site in one fn, with held weight and corpus
/// loop depth. Guard binds hold until `drop(guard)` or scope end; a
/// chained acquisition holds for its own statement.
fn acquisition_sites(
    node: &FnNode<'_>,
    fields: Option<&BTreeSet<&str>>,
    locals: &BTreeSet<&str>,
) -> Vec<AcquisitionSite> {
    let mut out = Vec::new();
    let body = &node.info.body;
    let bounds = retain::bound_locals(body);
    fn lock_name(node: &FnNode<'_>, e: &Expr<'_>) -> Option<String> {
        fn acq_recv<'e, 'a>(e: &'e Expr<'a>) -> Option<&'e Expr<'a>> {
            if let ExprKind::MethodCall { recv, name, .. } = &e.kind {
                if guards::ACQUIRE_METHODS.contains(name) {
                    return Some(recv);
                }
            }
            let mut found = None;
            for_each_child(e, &mut |c| {
                if found.is_none() {
                    found = acq_recv(c);
                }
            });
            found
        }
        let recv = acq_recv(e)?;
        match &recv.kind {
            ExprKind::Field { base, name } if matches!(&base.kind, ExprKind::Path(segs) if segs.as_slice() == ["self"]) => {
                Some(format!(
                    "{}::{}.{}",
                    node.crate_name,
                    node.self_ty.unwrap_or("?"),
                    name
                ))
            }
            ExprKind::Path(segs) => match segs.as_slice() {
                [one] => Some(format!("{}::{}::{}", node.crate_name, node.name, one)),
                _ => None,
            },
            _ => None,
        }
    }
    fn walk(
        stmts: &[Stmt<'_>],
        depth: u32,
        node: &FnNode<'_>,
        fields: Option<&BTreeSet<&str>>,
        locals: &BTreeSet<&str>,
        bounds: &BTreeSet<&str>,
        out: &mut Vec<AcquisitionSite>,
    ) {
        for (i, stmt) in stmts.iter().enumerate() {
            match stmt {
                Stmt::Let {
                    pat, init, line, ..
                } => {
                    if let Some(init) = init {
                        if guards::acquisition_in(init, fields, locals).is_some() {
                            if let Some(lock) = lock_name(node, init) {
                                let mut guard_names = Vec::new();
                                pat.bound_names(&mut guard_names);
                                // Held region: the remainder of this
                                // statement list, clipped at an explicit
                                // `drop(guard)`.
                                let mut held = cost::alloc_weight(init);
                                for later in stmts.iter().skip(i + 1) {
                                    if let Stmt::Expr { expr, .. } = later {
                                        let dropped = guard_names
                                            .first()
                                            .is_some_and(|g| is_drop_of(expr, g));
                                        if dropped {
                                            break;
                                        }
                                    }
                                    held = held.saturating_add(stmt_alloc_weight(later));
                                }
                                out.push(AcquisitionSite {
                                    lock,
                                    line: *line,
                                    col: init.col,
                                    held: held.saturating_add(1),
                                    depth,
                                });
                            }
                        }
                        walk_expr(init, depth, node, fields, locals, bounds, out);
                        continue;
                    }
                }
                Stmt::Expr { expr, .. } => {
                    if guards::acquisition_in(expr, fields, locals).is_some() {
                        if let Some(lock) = lock_name(node, expr) {
                            out.push(AcquisitionSite {
                                lock,
                                line: expr.line,
                                col: expr.col,
                                held: cost::alloc_weight(expr).saturating_add(1),
                                depth,
                            });
                        }
                        // The acquisition is priced at this statement;
                        // still walk nested blocks for deeper sites.
                    }
                    walk_expr(expr, depth, node, fields, locals, bounds, out);
                }
            }
        }
    }
    fn walk_expr(
        e: &Expr<'_>,
        depth: u32,
        node: &FnNode<'_>,
        fields: Option<&BTreeSet<&str>>,
        locals: &BTreeSet<&str>,
        bounds: &BTreeSet<&str>,
        out: &mut Vec<AcquisitionSite>,
    ) {
        let is_loop = matches!(
            e.kind,
            ExprKind::While { .. }
                | ExprKind::WhileLet { .. }
                | ExprKind::For { .. }
                | ExprKind::Loop { .. }
        );
        let inner = if is_loop && !is_worker_loop(e) && !is_constant_bounded_loop(e, bounds) {
            depth.saturating_add(1)
        } else {
            depth
        };
        for_each_child(e, &mut |c| {
            walk_expr(c, depth, node, fields, locals, bounds, out)
        });
        if let ExprKind::Match { arms, .. } = &e.kind {
            for arm in arms {
                walk_expr(&arm.body, depth, node, fields, locals, bounds, out);
            }
        }
        for block in child_blocks(e) {
            walk(block, inner, node, fields, locals, bounds, out);
        }
    }
    walk(body, 0, node, fields, locals, &bounds, &mut out);
    out
}

/// Whether an expression is `drop(name)`.
fn is_drop_of(e: &Expr<'_>, name: &str) -> bool {
    tree_any(e, &|x| match &x.kind {
        ExprKind::Call { callee, args } => {
            matches!(&callee.kind, ExprKind::Path(segs) if segs.last() == Some(&"drop"))
                && args
                    .iter()
                    .any(|a| matches!(&a.kind, ExprKind::Path(segs) if segs.as_slice() == [name]))
        }
        _ => false,
    })
}

/// Allocation weight of everything one statement evaluates, including
/// nested blocks (the held region is priced pessimistically — the guard
/// outlives everything declared after it in the block).
fn stmt_alloc_weight(stmt: &Stmt<'_>) -> u64 {
    let mut total = 0u64;
    let add = |total: &mut u64, e: &Expr<'_>| {
        *total = total.saturating_add(cost::alloc_weight(e));
    };
    match stmt {
        Stmt::Let {
            init, else_block, ..
        } => {
            if let Some(e) = init {
                add(&mut total, e);
            }
            for s in else_block.iter().flatten() {
                total = total.saturating_add(stmt_alloc_weight(s));
            }
        }
        Stmt::Expr { expr, .. } => add(&mut total, expr),
    }
    total
}

/// Run the `W1`/`W2` sharing passes over an analyzed workspace.
pub fn check_sharing(ws: &Workspace<'_>, graph: &CallGraph<'_>, model: &CostModel) -> Vec<Finding> {
    let mut findings = Vec::new();
    let registry = guards::lock_registry(ws);
    let effects: Vec<EffectSummary<'_>> = graph.fns.iter().map(effect_summary).collect();

    for (id, node) in graph.fns.iter().enumerate() {
        let Some(file) = ws.files.get(node.file) else {
            continue;
        };
        let params: BTreeSet<&str> = node.info.params.iter().map(|p| p.name).collect();

        // W1: spawn-in-loop worker pools.
        for sp in spawn_points(&node.info.body) {
            let ExprKind::Closure {
                params: cl_params,
                body,
                ..
            } = &sp.closure.kind
            else {
                continue;
            };
            let captures = captured_roots(cl_params, body);
            let shared: BTreeSet<String> = captures
                .into_iter()
                .filter(|c| {
                    c == "self"
                        || params.contains(c.as_str())
                        || !sp.per_worker.contains(c.as_str())
                })
                .collect();
            if shared.is_empty() {
                continue;
            }
            for m in shared_mutations(node, graph, &effects, body, &shared) {
                findings.push(Finding::at(
                    "W1",
                    Severity::Deny,
                    file.parsed.rel_path,
                    m.line,
                    m.col,
                    format!(
                        "worker closure spawned in a loop (line {}) reaches `{}` shared \
                         across workers, and it is {} outside any lock region; guard it \
                         with a Mutex/RwLock/atomic or give each worker its own copy",
                        sp.spawn_line, m.capture, m.how
                    ),
                    file.snippet(m.line),
                ));
            }
        }

        // W2: expensive lock regions inside corpus-scale hot loops.
        if !model.is_hot(id) {
            continue;
        }
        let locals = guards::lock_locals(node);
        let fields = node
            .self_ty
            .and_then(|ty| registry.get(&(file.crate_name, ty)));
        for site in acquisition_sites(node, fields, &locals) {
            if site.depth == 0 || site.held < W2_HELD_MIN {
                continue;
            }
            findings.push(Finding::at(
                "W2",
                Severity::Warn,
                file.parsed.rel_path,
                site.line,
                site.col,
                format!(
                    "lock `{}` is acquired inside a corpus-scale loop with held \
                     allocation weight {} (threshold {}) (hot path: {}); move the \
                     allocation out of the region or batch updates per iteration",
                    site.lock,
                    site.held,
                    W2_HELD_MIN,
                    model
                        .hot_path(graph, id)
                        .unwrap_or_else(|| node.name.to_string()),
                ),
                file.snippet(site.line),
            ));
        }
    }
    findings
}
