//! Hot-path cost analysis: per-fn static cost summaries propagated over
//! the cross-crate call graph, and the `H2`/`C2` allocation rules.
//!
//! **Cost model.** Every fn gets a *local* cost: each allocation site
//! (clone-family methods, `collect`, `format!`/`vec!`, collection
//! constructors, growth methods like `push`) contributes its weight
//! scaled by `8^depth`, where depth is the CFG loop-nesting depth of the
//! site — computed from immediate dominators and natural loops, not from
//! node-id order (the builder creates join nodes before arm bodies, so
//! id order says nothing about nesting). Local costs then propagate over
//! the cross-crate call graph: `total(f) = local(f) + Σ mult(site) ×
//! total(callee)` in reverse topological order of the SCC condensation,
//! where `mult` is the same `8^depth` scaling for call sites inside
//! loops and nontrivial SCCs (recursion) are charged one extra factor.
//! All arithmetic saturates; totals are rankings, not microseconds.
//!
//! **Hot set.** Fns forward-reachable from the pipeline entry points —
//! `run_pipeline*`, `crawl_all`/`crawl_all_with`, and the pub surface of
//! `annotate.rs` — carry a parent pointer back to their entry, so every
//! finding cites a witness call path like `X1`'s.
//!
//! **`H2` allocation-in-hot-loop** (Warn): a container bound with
//! `Vec::new()`/`String::new()` in a hot fn that grows inside a loop —
//! every `push` may reallocate on the hottest paths the workspace has.
//! The message names the remedy, `with_capacity`.
//!
//! **`C2` redundant-clone-in-loop** (Warn): a `let y = x.clone()` (or
//! `to_string`/`to_vec`/`to_owned`) inside a loop whose receiver is
//! loop-invariant — proven by a may-modified dataflow over the worklist
//! solver: the clone's in-fact at fixpoint carries every modification
//! site that can reach it (including around the back edge), and none of
//! the receiver root's sites lie inside the innermost enclosing loop.
//! Unknown method calls on the root count as modifications, so the
//! analysis under-approximates invariance (fewer findings), never the
//! reverse. The message names the remedy: hoist the `let` above the
//! loop.

use crate::callgraph::{CallGraph, FnNode};
use crate::cfg::{Cfg, Step};
use crate::dataflow::{replay, solve, Analysis};
use crate::expr::{for_each_child, Expr, ExprKind, Pat};
use crate::findings::{Finding, Severity};
use crate::graph::Workspace;
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// Methods that produce a fresh owned allocation from a place.
const CLONE_METHODS: &[&str] = &["clone", "to_string", "to_owned", "to_vec"];

/// Methods that grow a container (and may reallocate its buffer).
const GROW_METHODS: &[&str] = &["push", "push_str", "extend", "append", "insert"];

/// Collection constructors whose `new()` starts at capacity zero.
const GROWABLE_CTORS: &[&str] = &["Vec", "String"];

/// Methods assumed not to modify their receiver; anything else on a
/// candidate root counts as a modification (conservative for `C2`).
const READ_ONLY_METHODS: &[&str] = &[
    "as_bytes",
    "as_deref",
    "as_ref",
    "as_slice",
    "as_str",
    "chars",
    "clone",
    "cloned",
    "cmp",
    "contains",
    "contains_key",
    "copied",
    "ends_with",
    "eq",
    "find",
    "first",
    "get",
    "is_empty",
    "is_none",
    "is_some",
    "iter",
    "join",
    "keys",
    "last",
    "len",
    "lines",
    "map",
    "max",
    "min",
    "split",
    "split_whitespace",
    "starts_with",
    "to_owned",
    "to_string",
    "to_vec",
    "trim",
    "values",
];

/// Cost multiplier per loop-nesting level is `1 << LOOP_SHIFT` (= 8).
const LOOP_SHIFT: u32 = 3;

/// Depth levels beyond this scale no further (keeps shifts bounded).
const MAX_SCALED_DEPTH: u32 = 4;

/// Extra factor charged to fns inside a call-graph cycle (recursion).
const RECURSION_SHIFT: u32 = 3;

/// Longest witness path rendered before eliding.
const MAX_PATH: usize = 8;

/// Weight scaled by the loop factor for a site at `depth`.
fn scaled(weight: u64, depth: u32) -> u64 {
    weight.saturating_mul(1u64 << (LOOP_SHIFT * depth.min(MAX_SCALED_DEPTH)))
}

/// Reverse postorder over the CFG from the entry node.
fn reverse_postorder(cfg: &Cfg<'_>) -> Vec<usize> {
    let n = cfg.nodes.len();
    let mut seen = vec![false; n];
    let mut order = Vec::with_capacity(n);
    let mut stack: Vec<(usize, usize)> = vec![(0, 0)];
    if let Some(s) = seen.first_mut() {
        *s = true;
    }
    while let Some(&(id, edge)) = stack.last() {
        let next = cfg
            .nodes
            .get(id)
            .and_then(|nd| nd.succs.get(edge))
            .map(|(t, _)| *t);
        if let Some(last) = stack.last_mut() {
            last.1 += 1;
        }
        match next {
            Some(t) => {
                if let Some(s) = seen.get_mut(t) {
                    if !*s {
                        *s = true;
                        stack.push((t, 0));
                    }
                }
            }
            None => {
                order.push(id);
                stack.pop();
            }
        }
    }
    order.reverse();
    order
}

/// Sentinel for "no immediate dominator computed".
const UNDEF: usize = usize::MAX;

/// Nearest common dominator of `a` and `b` (Cooper–Harvey–Kennedy walk).
fn intersect(idom: &[usize], rpo_pos: &[usize], mut a: usize, mut b: usize) -> usize {
    let mut budget = idom.len().saturating_mul(2).saturating_add(2);
    while a != b && budget > 0 {
        budget -= 1;
        let pa = rpo_pos.get(a).copied().unwrap_or(UNDEF);
        let pb = rpo_pos.get(b).copied().unwrap_or(UNDEF);
        if pa == UNDEF || pb == UNDEF {
            return 0;
        }
        if pa > pb {
            a = idom.get(a).copied().unwrap_or(0);
        } else {
            b = idom.get(b).copied().unwrap_or(0);
        }
    }
    if a == b {
        a
    } else {
        0
    }
}

/// Immediate dominators for every node reachable from the entry
/// (iterative data-flow form; unreachable nodes keep [`UNDEF`]).
fn immediate_dominators(cfg: &Cfg<'_>, rpo: &[usize], preds: &[Vec<usize>]) -> Vec<usize> {
    let n = cfg.nodes.len();
    let mut rpo_pos = vec![UNDEF; n];
    for (i, &u) in rpo.iter().enumerate() {
        if let Some(p) = rpo_pos.get_mut(u) {
            *p = i;
        }
    }
    let mut idom = vec![UNDEF; n];
    if let Some(d) = idom.first_mut() {
        *d = 0;
    }
    loop {
        let mut changed = false;
        for &u in rpo.iter().skip(1) {
            let mut new_idom = UNDEF;
            for &p in preds.get(u).map(Vec::as_slice).unwrap_or(&[]) {
                if idom.get(p).copied().unwrap_or(UNDEF) == UNDEF {
                    continue;
                }
                new_idom = if new_idom == UNDEF {
                    p
                } else {
                    intersect(&idom, &rpo_pos, new_idom, p)
                };
            }
            if new_idom != UNDEF && idom.get(u).copied() != Some(new_idom) {
                if let Some(d) = idom.get_mut(u) {
                    *d = new_idom;
                    changed = true;
                }
            }
        }
        if !changed {
            break;
        }
    }
    idom
}

/// Whether `h` dominates `u` (walks the idom chain, budgeted).
fn dominates(h: usize, mut u: usize, idom: &[usize]) -> bool {
    if h == u {
        return true;
    }
    let mut budget = idom.len().saturating_add(1);
    while budget > 0 {
        budget -= 1;
        let d = idom.get(u).copied().unwrap_or(UNDEF);
        if d == UNDEF || d == u {
            return false;
        }
        if d == h {
            return true;
        }
        u = d;
    }
    false
}

/// Natural-loop bodies of the CFG: one set per loop header, each the
/// union of that header's back-edge loops (header included).
fn natural_loops(cfg: &Cfg<'_>) -> Vec<BTreeSet<usize>> {
    let n = cfg.nodes.len();
    let mut preds: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (u, node) in cfg.nodes.iter().enumerate() {
        for (v, _) in &node.succs {
            if let Some(p) = preds.get_mut(*v) {
                p.push(u);
            }
        }
    }
    let rpo = reverse_postorder(cfg);
    let idom = immediate_dominators(cfg, &rpo, &preds);
    let mut by_header: BTreeMap<usize, BTreeSet<usize>> = BTreeMap::new();
    for (u, node) in cfg.nodes.iter().enumerate() {
        for (h, _) in &node.succs {
            if !dominates(*h, u, &idom) {
                continue;
            }
            let body = by_header.entry(*h).or_default();
            body.insert(*h);
            let mut stack = vec![u];
            while let Some(x) = stack.pop() {
                if body.insert(x) || x == u {
                    if x == *h {
                        continue;
                    }
                    for &p in preds.get(x).map(Vec::as_slice).unwrap_or(&[]) {
                        if !body.contains(&p) {
                            stack.push(p);
                        }
                    }
                }
            }
        }
    }
    by_header.into_values().collect()
}

/// Loop-nesting depth per CFG node: the number of natural loops whose
/// body contains it.
pub fn loop_depths(cfg: &Cfg<'_>) -> Vec<u32> {
    let mut depth = vec![0u32; cfg.nodes.len()];
    for body in natural_loops(cfg) {
        for x in body {
            if let Some(d) = depth.get_mut(x) {
                *d += 1;
            }
        }
    }
    depth
}

/// One allocation site inside a fn body.
struct AllocSite {
    weight: u64,
}

/// Collect allocation sites in one expression tree (block statements are
/// separate CFG steps and are not descended into).
fn allocs_in(e: &Expr<'_>, out: &mut Vec<AllocSite>) {
    match &e.kind {
        ExprKind::MethodCall { name, .. } => {
            if CLONE_METHODS.contains(name) || GROW_METHODS.contains(name) {
                out.push(AllocSite { weight: 1 });
            } else if *name == "collect" {
                out.push(AllocSite { weight: 2 });
            }
        }
        ExprKind::MacroCall { path, .. } => match path.last().copied() {
            Some("format") => out.push(AllocSite { weight: 2 }),
            Some("vec") => out.push(AllocSite { weight: 1 }),
            _ => {}
        },
        ExprKind::Call { callee, .. } => {
            if let ExprKind::Path(segs) = &callee.kind {
                let ctor = matches!(segs.last().copied(), Some("new" | "with_capacity"));
                let coll = segs
                    .iter()
                    .rev()
                    .nth(1)
                    .is_some_and(|s| GROWABLE_CTORS.contains(s));
                if ctor && coll {
                    out.push(AllocSite { weight: 1 });
                }
            }
        }
        _ => {}
    }
    for_each_child(e, &mut |c| allocs_in(c, out));
}

/// Total allocation weight of one expression tree, on the same scale the
/// cost model uses for `H2`/`C2` (clone/grow 1, `collect`/`format!` 2,
/// growable ctors 1). Shared with the `W2` held-cost computation so one
/// vocabulary prices both hot loops and lock regions.
pub(crate) fn alloc_weight(e: &Expr<'_>) -> u64 {
    let mut sites = Vec::new();
    allocs_in(e, &mut sites);
    sites.iter().map(|s| s.weight).sum()
}

/// The top-level expression one step evaluates, if any (a `PatBind`'s
/// scrutinee is evaluated by the step before it).
pub(crate) fn step_expr<'a>(step: &Step<'a>) -> Option<&'a Expr<'a>> {
    match *step {
        Step::Eval(e) | Step::Cond(e) => Some(e),
        Step::Bind { init, .. } => init,
        Step::ForHead { iter, .. } => Some(iter),
        Step::PatBind { .. } => None,
    }
}

/// Loop depth of every source line holding a step — what the call-graph
/// lowering stores on each [`FnNode`] so the effect (`F1`), atomics
/// (`A1`) and cost passes ask "is this site inside a loop?" with exactly
/// the cost model's notion of depth.
pub(crate) fn line_depths(cfg: &Cfg<'_>, depths: &[u32]) -> BTreeMap<u32, u32> {
    let mut line_depth = BTreeMap::new();
    for (id, node) in cfg.nodes.iter().enumerate() {
        let d = depths.get(id).copied().unwrap_or(0);
        for step in &node.steps {
            let (line, _) = step.pos();
            let slot = line_depth.entry(line).or_insert(0u32);
            *slot = (*slot).max(d);
        }
    }
    line_depth
}

/// Intra-fn cost: every allocation site's weight, scaled by the loop
/// depth of its CFG node.
fn local_cost(cfg: &Cfg<'_>, depths: &[u32]) -> u64 {
    let mut local = 0u64;
    for (id, node) in cfg.nodes.iter().enumerate() {
        let d = depths.get(id).copied().unwrap_or(0);
        for step in &node.steps {
            let mut sites = Vec::new();
            if let Some(e) = step_expr(step) {
                allocs_in(e, &mut sites);
            }
            for site in sites {
                local = local.saturating_add(scaled(site.weight, d));
            }
        }
    }
    local
}

/// The interprocedural cost model for one analyzed workspace.
pub struct CostModel {
    /// Intra-fn cost per call-graph node.
    pub local: Vec<u64>,
    /// Local + callee cost, propagated over the SCC condensation.
    pub total: Vec<u64>,
    /// Hot-set parent pointers: `Some(p)` when the fn is reachable from
    /// a pipeline entry (`p == self` marks the entry itself).
    pub hot_parent: Vec<Option<usize>>,
    /// Call-graph ids of the pipeline entry points, in id order.
    pub entries: Vec<usize>,
}

/// Whether a fn is one of the pipeline entry points the hot set grows
/// from.
fn is_entry(ws: &Workspace<'_>, node: &FnNode<'_>) -> bool {
    if node.name.starts_with("run_pipeline")
        || node.name == "crawl_all"
        || node.name == "crawl_all_with"
    {
        return true;
    }
    node.is_pub
        && ws
            .files
            .get(node.file)
            .is_some_and(|f| f.parsed.rel_path.ends_with("/annotate.rs"))
}

/// Strongly-connected components of the call graph, returned in reverse
/// topological order of the condensation (callees before callers).
/// Shared with the `F1` effect propagation, which walks the same
/// condensation in the same direction.
pub(crate) fn call_sccs(n: usize, succs: &[Vec<usize>]) -> Vec<Vec<usize>> {
    let mut rev: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (u, outs) in succs.iter().enumerate() {
        for &v in outs {
            if let Some(r) = rev.get_mut(v) {
                r.push(u);
            }
        }
    }
    // Pass 1: finish order on the forward graph.
    let mut visited = vec![false; n];
    let mut order = Vec::with_capacity(n);
    for start in 0..n {
        if visited.get(start).copied().unwrap_or(true) {
            continue;
        }
        let mut stack: Vec<(usize, usize)> = vec![(start, 0)];
        if let Some(v) = visited.get_mut(start) {
            *v = true;
        }
        while let Some(&(u, e)) = stack.last() {
            let next = succs.get(u).and_then(|o| o.get(e)).copied();
            if let Some(last) = stack.last_mut() {
                last.1 += 1;
            }
            match next {
                Some(t) => {
                    if let Some(v) = visited.get_mut(t) {
                        if !*v {
                            *v = true;
                            stack.push((t, 0));
                        }
                    }
                }
                None => {
                    order.push(u);
                    stack.pop();
                }
            }
        }
    }
    // Pass 2: transpose trees in reverse finish order yield components
    // in topological order; reverse for callees-first.
    let mut assigned = vec![false; n];
    let mut components = Vec::new();
    for &start in order.iter().rev() {
        if assigned.get(start).copied().unwrap_or(true) {
            continue;
        }
        let mut component = Vec::new();
        let mut stack = vec![start];
        if let Some(a) = assigned.get_mut(start) {
            *a = true;
        }
        while let Some(u) = stack.pop() {
            component.push(u);
            for &p in rev.get(u).map(Vec::as_slice).unwrap_or(&[]) {
                if let Some(a) = assigned.get_mut(p) {
                    if !*a {
                        *a = true;
                        stack.push(p);
                    }
                }
            }
        }
        component.sort_unstable();
        components.push(component);
    }
    components.reverse();
    components
}

impl CostModel {
    /// Build the cost model for a workspace and its call graph.
    pub fn build(ws: &Workspace<'_>, graph: &CallGraph<'_>) -> CostModel {
        let n = graph.fns.len();
        let local: Vec<u64> = graph
            .fns
            .iter()
            .map(|node| local_cost(&node.cfg, &node.depths))
            .collect();

        // Call successors plus per-edge loop multipliers.
        let mut succs: Vec<Vec<usize>> = vec![Vec::new(); n];
        let mut mults: Vec<Vec<u64>> = vec![Vec::new(); n];
        for (u, edges) in graph.edges.iter().enumerate() {
            let line_depths = graph.fns.get(u).map(|node| &node.line_depths);
            for edge in edges {
                let depth = line_depths
                    .and_then(|m| m.get(&edge.line))
                    .copied()
                    .unwrap_or(0);
                if let (Some(s), Some(m)) = (succs.get_mut(u), mults.get_mut(u)) {
                    s.push(edge.to);
                    m.push(scaled(1, depth));
                }
            }
        }

        // Totals in reverse topological order of the condensation.
        let mut total = local.clone();
        let mut comp_of = vec![usize::MAX; n];
        let components = call_sccs(n, &succs);
        for (c, members) in components.iter().enumerate() {
            for &m in members {
                if let Some(slot) = comp_of.get_mut(m) {
                    *slot = c;
                }
            }
        }
        for (c, members) in components.iter().enumerate() {
            let mut base = 0u64;
            let mut cyclic = members.len() > 1;
            for &m in members {
                base = base.saturating_add(local.get(m).copied().unwrap_or(0));
                let outs = succs.get(m).map(Vec::as_slice).unwrap_or(&[]);
                let ms = mults.get(m).map(Vec::as_slice).unwrap_or(&[]);
                for (k, &t) in outs.iter().enumerate() {
                    if comp_of.get(t).copied() == Some(c) {
                        cyclic = cyclic || t == m;
                        continue;
                    }
                    let mult = ms.get(k).copied().unwrap_or(1);
                    let callee = total.get(t).copied().unwrap_or(0);
                    base = base.saturating_add(callee.saturating_mul(mult));
                }
            }
            if cyclic {
                base = base.saturating_mul(1u64 << RECURSION_SHIFT);
            }
            for &m in members {
                if let Some(slot) = total.get_mut(m) {
                    *slot = base;
                }
            }
        }

        // Hot set: forward BFS from the entries, keeping parent links.
        let mut entries: Vec<usize> = Vec::new();
        let mut hot_parent: Vec<Option<usize>> = vec![None; n];
        for (i, node) in graph.fns.iter().enumerate() {
            if is_entry(ws, node) {
                entries.push(i);
                if let Some(slot) = hot_parent.get_mut(i) {
                    *slot = Some(i);
                }
            }
        }
        let mut queue: VecDeque<usize> = entries.iter().copied().collect();
        while let Some(u) = queue.pop_front() {
            for &v in succs.get(u).map(Vec::as_slice).unwrap_or(&[]) {
                if let Some(slot) = hot_parent.get_mut(v) {
                    if slot.is_none() {
                        *slot = Some(u);
                        queue.push_back(v);
                    }
                }
            }
        }

        CostModel {
            local,
            total,
            hot_parent,
            entries,
        }
    }

    /// Whether a call-graph fn is reachable from a pipeline entry.
    pub fn is_hot(&self, id: usize) -> bool {
        self.hot_parent.get(id).copied().flatten().is_some()
    }

    /// Witness call path from the nearest entry down to `id`, rendered
    /// `entry -> mid -> fn`; `None` when the fn is not hot.
    pub fn hot_path(&self, graph: &CallGraph<'_>, id: usize) -> Option<String> {
        self.hot_parent.get(id).copied().flatten()?;
        let mut chain = vec![id];
        let mut cur = id;
        while chain.len() <= MAX_PATH {
            let parent = self.hot_parent.get(cur).copied().flatten()?;
            if parent == cur {
                break;
            }
            chain.push(parent);
            cur = parent;
        }
        chain.reverse();
        let names: Vec<String> = chain
            .iter()
            .filter_map(|&i| graph.fns.get(i).map(fn_display))
            .collect();
        Some(names.join(" -> "))
    }
}

/// Display name for a call-graph fn (`Type::method` or `free_fn`).
pub(crate) fn fn_display(node: &FnNode<'_>) -> String {
    match node.self_ty {
        Some(ty) => format!("{ty}::{}", node.name),
        None => node.name.to_string(),
    }
}

/// The plain root identifier of a place expression (`x`, `x.field.sub`);
/// `None` for anything else.
fn place_root<'a>(e: &Expr<'a>) -> Option<&'a str> {
    match &e.kind {
        ExprKind::Path(segs) => match *segs.as_slice() {
            [only] if only != "self" => Some(only),
            _ => None,
        },
        ExprKind::Field { base, .. } => place_root(base),
        _ => None,
    }
}

/// The dotted display form of a place expression [`place_root`] accepts
/// (`x.field.sub`), for messages.
fn place_display(e: &Expr<'_>) -> String {
    match &e.kind {
        ExprKind::Field { base, name } => format!("{}.{name}", place_display(base)),
        ExprKind::Path(segs) => segs.join("::"),
        _ => String::new(),
    }
}

/// Root identifier of an assignment target, peeling derefs, fields, and
/// indexing.
fn assign_root<'a>(e: &Expr<'a>) -> Option<&'a str> {
    match &e.kind {
        ExprKind::Path(segs) => segs.first().copied(),
        ExprKind::Field { base, .. } | ExprKind::Index { base, .. } => assign_root(base),
        ExprKind::Unary { operand, .. } | ExprKind::Ref { operand, .. } => assign_root(operand),
        _ => None,
    }
}

/// Modification sites `(name, line, col)` performed by one expression
/// tree: assignments, `&mut` borrows, and method calls not known to be
/// read-only.
fn expr_mods<'a>(e: &Expr<'a>, out: &mut Vec<(&'a str, u32, u32)>) {
    match &e.kind {
        ExprKind::Assign { lhs, .. } => {
            if let Some(root) = assign_root(lhs) {
                out.push((root, lhs.line, lhs.col));
            }
        }
        ExprKind::Ref {
            mutable: true,
            operand,
        } => {
            if let Some(root) = assign_root(operand) {
                out.push((root, operand.line, operand.col));
            }
        }
        ExprKind::MethodCall { recv, name, .. } if !READ_ONLY_METHODS.contains(name) => {
            if let Some(root) = place_root(recv) {
                out.push((root, recv.line, recv.col));
            }
        }
        _ => {}
    }
    for_each_child(e, &mut |c| expr_mods(c, out));
}

/// Modification sites performed by one CFG step (bindings count as
/// modifications of the bound names).
fn step_mods<'a>(step: &Step<'a>) -> Vec<(&'a str, u32, u32)> {
    let mut out = Vec::new();
    match *step {
        Step::Bind {
            pat,
            init,
            line,
            col,
            ..
        } => {
            let mut names = Vec::new();
            pat.bound_names(&mut names);
            for name in names {
                out.push((name, line, col));
            }
            if let Some(e) = init {
                expr_mods(e, &mut out);
            }
        }
        Step::PatBind { pat, from } => {
            let mut names = Vec::new();
            pat.bound_names(&mut names);
            for name in names {
                out.push((name, from.line, from.col));
            }
        }
        Step::ForHead { pat, iter } => {
            let mut names = Vec::new();
            pat.bound_names(&mut names);
            for name in names {
                out.push((name, iter.line, iter.col));
            }
            expr_mods(iter, &mut out);
        }
        Step::Eval(e) | Step::Cond(e) => expr_mods(e, &mut out),
    }
    out
}

/// May-modified dataflow: for every name, the set of modification sites
/// that can reach the program point (union join; no kills, so the
/// analysis only ever claims *more* modification, the safe direction).
struct MayMod;

impl<'a> Analysis<'a> for MayMod {
    type Fact = BTreeMap<&'a str, BTreeSet<(u32, u32)>>;

    fn boundary(&self) -> Self::Fact {
        BTreeMap::new()
    }

    fn join(&self, acc: &mut Self::Fact, other: &Self::Fact) {
        for (&name, sites) in other {
            acc.entry(name).or_default().extend(sites.iter());
        }
    }

    fn step(&self, step: &Step<'a>, fact: &mut Self::Fact) {
        for (name, line, col) in step_mods(step) {
            fact.entry(name).or_default().insert((line, col));
        }
    }
}

/// Run the `H2` and `C2` passes over an analyzed workspace.
pub fn check_cost(ws: &Workspace<'_>, graph: &CallGraph<'_>, model: &CostModel) -> Vec<Finding> {
    let mut findings = Vec::new();
    for (id, node) in graph.fns.iter().enumerate() {
        let Some(file) = ws.files.get(node.file) else {
            continue;
        };
        if model.is_hot(id) {
            check_h2(file, graph, model, id, node, &mut findings);
        }
        check_c2(file, node, &mut findings);
    }
    findings
}

/// A growable-container binding tracked by `H2`.
struct Candidate<'a> {
    name: &'a str,
    ctor: &'a str,
    bind_line: u32,
    bind_col: u32,
    depth: u32,
    ambiguous: bool,
}

fn check_h2(
    file: &crate::graph::AnalyzedFile<'_>,
    graph: &CallGraph<'_>,
    model: &CostModel,
    id: usize,
    node: &FnNode<'_>,
    findings: &mut Vec<Finding>,
) {
    let (cfg, depths) = (&node.cfg, &node.depths);
    let mut candidates: Vec<Candidate<'_>> = Vec::new();
    for (nid, block) in cfg.nodes.iter().enumerate() {
        let d = depths.get(nid).copied().unwrap_or(0);
        for step in &block.steps {
            let Step::Bind {
                pat: Pat::Ident { name, .. },
                init: Some(init),
                line,
                col,
                ..
            } = step
            else {
                continue;
            };
            let ExprKind::Call { callee, args } = &init.kind else {
                continue;
            };
            if !args.is_empty() {
                continue;
            }
            let ExprKind::Path(segs) = &callee.kind else {
                continue;
            };
            let ctor = match *segs.as_slice() {
                [ty, "new"] if GROWABLE_CTORS.contains(&ty) => ty,
                _ => continue,
            };
            if let Some(existing) = candidates.iter_mut().find(|c| c.name == *name) {
                existing.ambiguous = true;
                continue;
            }
            candidates.push(Candidate {
                name,
                ctor,
                bind_line: *line,
                bind_col: *col,
                depth: d,
                ambiguous: false,
            });
        }
    }
    if candidates.is_empty() {
        return;
    }

    // Growth sites per candidate name: (line, col of receiver, depth).
    let mut grows: BTreeMap<&str, Vec<(u32, u32, u32)>> = BTreeMap::new();
    for (nid, block) in cfg.nodes.iter().enumerate() {
        let d = depths.get(nid).copied().unwrap_or(0);
        for step in &block.steps {
            if let Some(top) = step_expr(step) {
                collect_grows(top, d, &mut grows);
            }
        }
    }

    for cand in candidates.iter().filter(|c| !c.ambiguous) {
        let sites = grows.get(cand.name).map(Vec::as_slice).unwrap_or(&[]);
        let max_depth = sites.iter().map(|(_, _, d)| *d).max().unwrap_or(0);
        if sites.is_empty() || max_depth <= cand.depth {
            continue;
        }
        let Some(path) = model.hot_path(graph, id) else {
            continue;
        };
        findings.push(Finding::at(
            "H2",
            Severity::Warn,
            file.parsed.rel_path,
            cand.bind_line,
            cand.bind_col,
            format!(
                "`{}` is allocated with `{}::new()` but grows inside a loop on a hot \
                 path ({} growth site(s)); pre-allocate with `with_capacity` — hot \
                 path: {path}",
                cand.name,
                cand.ctor,
                sites.len()
            ),
            file.snippet(cand.bind_line),
        ));
    }
}

fn collect_grows<'a>(e: &Expr<'a>, depth: u32, out: &mut BTreeMap<&'a str, Vec<(u32, u32, u32)>>) {
    if let ExprKind::MethodCall { recv, name, .. } = &e.kind {
        if GROW_METHODS.contains(name) {
            if let ExprKind::Path(segs) = &recv.kind {
                if let [only] = *segs.as_slice() {
                    out.entry(only)
                        .or_default()
                        .push((recv.line, recv.col, depth));
                }
            }
        }
    }
    for_each_child(e, &mut |c| collect_grows(c, depth, out));
}

fn check_c2(file: &crate::graph::AnalyzedFile<'_>, node: &FnNode<'_>, findings: &mut Vec<Finding>) {
    let (cfg, depths) = (&node.cfg, &node.depths);
    // Candidate clone binds in loops.
    struct CloneBind<'a> {
        nid: usize,
        y: &'a str,
        root: &'a str,
        recv: &'a Expr<'a>,
        method: &'a str,
        line: u32,
        col: u32,
    }
    let mut cands: Vec<CloneBind<'_>> = Vec::new();
    for (nid, block) in cfg.nodes.iter().enumerate() {
        if depths.get(nid).copied().unwrap_or(0) == 0 {
            continue;
        }
        for step in &block.steps {
            let Step::Bind {
                pat: Pat::Ident { name: y, .. },
                init: Some(init),
                line,
                col,
                ..
            } = step
            else {
                continue;
            };
            let ExprKind::MethodCall {
                recv,
                name: method,
                args,
                ..
            } = &init.kind
            else {
                continue;
            };
            if !args.is_empty() || !CLONE_METHODS.contains(method) {
                continue;
            }
            let Some(root) = place_root(recv) else {
                continue;
            };
            cands.push(CloneBind {
                nid,
                y,
                root,
                recv,
                method,
                line: *line,
                col: *col,
            });
        }
    }
    if cands.is_empty() {
        return;
    }
    let loops = natural_loops(cfg);

    // Map every modification site to the CFG nodes that perform it.
    let mut site_nodes: BTreeMap<(&str, u32, u32), BTreeSet<usize>> = BTreeMap::new();
    for (nid, block) in cfg.nodes.iter().enumerate() {
        for step in &block.steps {
            for (name, line, col) in step_mods(step) {
                site_nodes.entry((name, line, col)).or_default().insert(nid);
            }
        }
    }

    let analysis = MayMod;
    let in_facts = solve(cfg, &analysis);
    for cand in cands {
        // Innermost natural loop containing the clone's node.
        let Some(body) = loops
            .iter()
            .filter(|b| b.contains(&cand.nid))
            .min_by_key(|b| b.len())
        else {
            continue;
        };
        let Some(fact_in) = in_facts.get(cand.nid).and_then(|f| f.as_ref()) else {
            continue;
        };
        let Some(steps) = cfg.nodes.get(cand.nid).map(|n| n.steps.as_slice()) else {
            continue;
        };
        // Fact holding immediately before the clone bind.
        let mut at_bind: Option<<MayMod as Analysis<'_>>::Fact> = None;
        replay(&analysis, steps, fact_in, &mut |step, fact| {
            if at_bind.is_none() {
                if let Step::Bind { line, col, .. } = step {
                    if *line == cand.line && *col == cand.col {
                        at_bind = Some(fact.clone());
                    }
                }
            }
        });
        let Some(fact) = at_bind else {
            continue;
        };
        let in_loop = |name: &str, sites: Option<&BTreeSet<(u32, u32)>>| {
            sites.is_some_and(|sites| {
                sites.iter().any(|(l, c)| {
                    site_nodes
                        .get(&(name, *l, *c))
                        .is_some_and(|nodes| nodes.iter().any(|n| body.contains(n)))
                })
            })
        };
        if in_loop(cand.root, fact.get(cand.root)) {
            continue;
        }
        // `y` must not be separately modified inside the loop (its own
        // bind site is the candidate itself).
        let y_modified = fact.get(cand.y).is_some_and(|sites| {
            sites.iter().any(|(l, c)| {
                (*l, *c) != (cand.line, cand.col)
                    && site_nodes
                        .get(&(cand.y, *l, *c))
                        .is_some_and(|nodes| nodes.iter().any(|n| body.contains(n)))
            })
        });
        if y_modified {
            continue;
        }
        findings.push(Finding::at(
            "C2",
            Severity::Warn,
            file.parsed.rel_path,
            cand.line,
            cand.col,
            format!(
                "`{}.{}()` is loop-invariant: `{}` is never modified inside the \
                 enclosing loop, so the copy is re-made every iteration; hoist the \
                 `let {}` above the loop",
                place_display(cand.recv),
                cand.method,
                cand.root,
                cand.y
            ),
            file.snippet(cand.line),
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::{parse_file, ItemKind};

    fn ws<'a>(files: &'a [(&'a str, &'a str)]) -> Workspace<'a> {
        Workspace::build(files)
    }

    fn first_fn_cfg(src: &str) -> (crate::parser::ParsedFile<'_>, Vec<u32>) {
        let parsed = parse_file("crates/x/src/lib.rs", src);
        let depths = parsed
            .items
            .iter()
            .find_map(|i| match &i.kind {
                ItemKind::Fn(info) => {
                    let cfg = Cfg::build(&info.body);
                    Some(loop_depths(&cfg))
                }
                _ => None,
            })
            .unwrap_or_default();
        (parsed, depths)
    }

    #[test]
    fn loop_depths_count_nesting_not_node_ids() {
        let src = "fn f(xs: Vec<u32>) {\n\
                   \x20   touch();\n\
                   \x20   for x in xs {\n\
                   \x20       for y in ys {\n\
                   \x20           use_it(x, y);\n\
                   \x20       }\n\
                   \x20   }\n\
                   }\n";
        let (_, depths) = first_fn_cfg(src);
        assert_eq!(depths.iter().copied().max().unwrap_or(0), 2, "{depths:?}");
        // Entry stays outside every loop.
        assert_eq!(depths.first().copied(), Some(0));
    }

    #[test]
    fn totals_flow_from_callee_to_caller() {
        let w = ws(&[(
            "crates/core/src/lib.rs",
            "pub fn run_pipeline() { helper(); }\n\
             fn helper() { let s = format!(\"x\"); use_it(s); }\n",
        )]);
        let graph = CallGraph::build(&w);
        let model = CostModel::build(&w, &graph);
        let helper = graph.fns.iter().position(|f| f.name == "helper");
        let entry = graph.fns.iter().position(|f| f.name == "run_pipeline");
        let (Some(h), Some(e)) = (helper, entry) else {
            panic!("fns resolved: {:?}", graph.fns.len());
        };
        assert!(model.local.get(h).copied().unwrap_or(0) > 0);
        assert!(
            model.total.get(e) >= model.total.get(h),
            "{:?}",
            model.total
        );
        assert!(model.is_hot(h), "helper is reachable from the entry");
        let path = model.hot_path(&graph, h).unwrap_or_default();
        assert!(path.contains("run_pipeline"), "{path}");
    }

    #[test]
    fn recursion_does_not_hang_and_costs_extra() {
        let w = ws(&[(
            "crates/core/src/lib.rs",
            "pub fn run_pipeline() { spin(0); }\n\
             fn spin(n: u32) { let s = format!(\"{n}\"); spin(n); use_it(s); }\n",
        )]);
        let graph = CallGraph::build(&w);
        let model = CostModel::build(&w, &graph);
        let spin = graph.fns.iter().position(|f| f.name == "spin");
        let Some(s) = spin else {
            panic!("spin resolved");
        };
        assert!(
            model.total.get(s) > model.local.get(s),
            "cycle charged a recursion factor: {:?} {:?}",
            model.local,
            model.total
        );
    }
}
