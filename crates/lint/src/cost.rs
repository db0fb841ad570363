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
//! The fix is `with_capacity`; when the only growth site is a `for` loop
//! over a plain iterable the capacity is provable and the finding
//! carries a machine-applicable fix.
//!
//! **`C2` redundant-clone-in-loop** (Warn): a `let y = x.clone()` (or
//! `to_string`/`to_vec`/`to_owned`) inside a loop whose receiver is
//! loop-invariant — proven by a may-modified dataflow over the worklist
//! solver: the clone's in-fact at fixpoint carries every modification
//! site that can reach it (including around the back edge), and none of
//! the receiver root's sites lie inside the innermost enclosing loop.
//! Unknown method calls on the root count as modifications, so the
//! analysis under-approximates invariance (fewer findings), never the
//! reverse. When every in-loop use of `y` is read-shaped the finding
//! carries a hoist fix.

use crate::callgraph::{CallGraph, FnNode};
use crate::cfg::{Cfg, Step};
use crate::dataflow::{replay, solve, Analysis};
use crate::expr::{child_blocks, for_each_child, Expr, ExprKind, Pat, Stmt};
use crate::findings::{Finding, Severity};
use crate::fix::{offset_in_lines, Fix, FixEdit};
use crate::graph::Workspace;
use crate::parser::FnInfo;
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
fn allocs_in(e: &Expr, out: &mut Vec<AllocSite>) {
    match &e.kind {
        ExprKind::MethodCall { name, .. } => {
            if CLONE_METHODS.contains(&name.as_str()) || GROW_METHODS.contains(&name.as_str()) {
                out.push(AllocSite { weight: 1 });
            } else if name == "collect" {
                out.push(AllocSite { weight: 2 });
            }
        }
        ExprKind::MacroCall { path, .. } => match path.last().map(String::as_str) {
            Some("format") => out.push(AllocSite { weight: 2 }),
            Some("vec") => out.push(AllocSite { weight: 1 }),
            _ => {}
        },
        ExprKind::Call { callee, .. } => {
            if let ExprKind::Path(segs) = &callee.kind {
                let ctor = matches!(
                    segs.last().map(String::as_str),
                    Some("new" | "with_capacity")
                );
                let coll = segs
                    .iter()
                    .rev()
                    .nth(1)
                    .is_some_and(|s| GROWABLE_CTORS.contains(&s.as_str()));
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
pub(crate) fn alloc_weight(e: &Expr) -> u64 {
    let mut sites = Vec::new();
    allocs_in(e, &mut sites);
    sites.iter().map(|s| s.weight).sum()
}

/// Top-level expressions evaluated by one step.
pub(crate) fn step_exprs<'a>(step: &Step<'a>) -> Vec<&'a Expr> {
    match *step {
        Step::Eval(e) | Step::Cond(e) => vec![e],
        Step::Bind { init, .. } => init.into_iter().collect(),
        Step::ForHead { iter, .. } => vec![iter],
        Step::PatBind { .. } => Vec::new(),
    }
}

/// Loop depth of every source line holding a step of `body` — what the
/// effect (`F1`) and numeric (`N2`) passes use to ask "is this site
/// inside a loop?" with exactly the cost model's notion of depth.
pub(crate) fn line_loop_depths(body: &[crate::expr::Stmt]) -> BTreeMap<u32, u32> {
    let cfg = Cfg::build(body);
    let depths = loop_depths(&cfg);
    summarize(&cfg, &depths).line_depth
}

/// Per-fn static summary: local cost plus the loop depth of every
/// source line that holds a step.
struct FnSummary {
    local: u64,
    line_depth: BTreeMap<u32, u32>,
}

fn summarize(cfg: &Cfg<'_>, depths: &[u32]) -> FnSummary {
    let mut local = 0u64;
    let mut line_depth = BTreeMap::new();
    for (id, node) in cfg.nodes.iter().enumerate() {
        let d = depths.get(id).copied().unwrap_or(0);
        for step in &node.steps {
            let (line, _) = step.pos();
            let slot = line_depth.entry(line).or_insert(0u32);
            *slot = (*slot).max(d);
            let mut sites = Vec::new();
            for e in step_exprs(step) {
                allocs_in(e, &mut sites);
            }
            for site in sites {
                local = local.saturating_add(scaled(site.weight, d));
            }
        }
    }
    FnSummary { local, line_depth }
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
fn is_entry(ws: &Workspace, node: &FnNode<'_>) -> bool {
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
    pub fn build(ws: &Workspace, graph: &CallGraph<'_>) -> CostModel {
        let n = graph.fns.len();
        let mut local = vec![0u64; n];
        let mut line_depths: Vec<BTreeMap<u32, u32>> = Vec::with_capacity(n);
        for (i, node) in graph.fns.iter().enumerate() {
            let cfg = Cfg::build(&node.info.body);
            let depths = loop_depths(&cfg);
            let summary = summarize(&cfg, &depths);
            if let Some(slot) = local.get_mut(i) {
                *slot = summary.local;
            }
            line_depths.push(summary.line_depth);
        }

        // Call successors plus per-edge loop multipliers.
        let mut succs: Vec<Vec<usize>> = vec![Vec::new(); n];
        let mut mults: Vec<Vec<u64>> = vec![Vec::new(); n];
        for (u, edges) in graph.edges.iter().enumerate() {
            for edge in edges {
                let depth = line_depths
                    .get(u)
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

/// The plain root identifier and dotted display form of a place
/// expression (`x`, `x.field.sub`); `None` for anything else.
fn place_root(e: &Expr) -> Option<(String, String)> {
    match &e.kind {
        ExprKind::Path(segs) => match segs.as_slice() {
            [only] if only != "self" => Some((only.clone(), only.clone())),
            _ => None,
        },
        ExprKind::Field { base, name } => {
            let (root, display) = place_root(base)?;
            Some((root, format!("{display}.{name}")))
        }
        _ => None,
    }
}

/// Root identifier of an assignment target, peeling derefs, fields, and
/// indexing.
fn assign_root(e: &Expr) -> Option<String> {
    match &e.kind {
        ExprKind::Path(segs) => segs.first().cloned(),
        ExprKind::Field { base, .. } | ExprKind::Index { base, .. } => assign_root(base),
        ExprKind::Unary { operand, .. } | ExprKind::Ref { operand, .. } => assign_root(operand),
        _ => None,
    }
}

/// Modification sites `(name, line, col)` performed by one expression
/// tree: assignments, `&mut` borrows, and method calls not known to be
/// read-only.
fn expr_mods(e: &Expr, out: &mut Vec<(String, u32, u32)>) {
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
        ExprKind::MethodCall { recv, name, .. } => {
            if !READ_ONLY_METHODS.contains(&name.as_str()) {
                if let Some((root, _)) = place_root(recv) {
                    out.push((root, recv.line, recv.col));
                }
            }
        }
        _ => {}
    }
    for_each_child(e, &mut |c| expr_mods(c, out));
}

/// Modification sites performed by one CFG step (bindings count as
/// modifications of the bound names).
fn step_mods(step: &Step<'_>) -> Vec<(String, u32, u32)> {
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
    type Fact = BTreeMap<String, BTreeSet<(u32, u32)>>;

    fn boundary(&self) -> Self::Fact {
        BTreeMap::new()
    }

    fn join(&self, acc: &mut Self::Fact, other: &Self::Fact) {
        for (name, sites) in other {
            acc.entry(name.clone()).or_default().extend(sites.iter());
        }
    }

    fn step(&self, step: &Step<'a>, fact: &mut Self::Fact) {
        for (name, line, col) in step_mods(step) {
            fact.entry(name).or_default().insert((line, col));
        }
    }
}

/// Walk statements tracking the stack of enclosing loop expressions;
/// `visit` sees every statement with its loop stack (innermost last).
fn walk_with_loops<'a>(
    stmts: &'a [Stmt],
    stack: &mut Vec<&'a Expr>,
    visit: &mut impl FnMut(&'a Stmt, &[&'a Expr]),
) {
    for stmt in stmts {
        visit(stmt, stack);
        match stmt {
            Stmt::Let {
                init, else_block, ..
            } => {
                if let Some(e) = init {
                    walk_expr_with_loops(e, stack, visit);
                }
                if let Some(b) = else_block {
                    walk_with_loops(b, stack, visit);
                }
            }
            Stmt::Expr { expr, .. } => walk_expr_with_loops(expr, stack, visit),
        }
    }
}

fn walk_expr_with_loops<'a>(
    e: &'a Expr,
    stack: &mut Vec<&'a Expr>,
    visit: &mut impl FnMut(&'a Stmt, &[&'a Expr]),
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
    for block in child_blocks(e) {
        walk_with_loops(block, stack, visit);
    }
    if is_loop {
        stack.pop();
    }
    for_each_child(e, &mut |c| walk_expr_with_loops(c, stack, visit));
}

/// Whether an expression tree contains a grow call `recv.method(..)` on
/// the named container at the given position.
fn contains_grow_at(e: &Expr, container: &str, line: u32, col: u32) -> bool {
    if let ExprKind::MethodCall { recv, name, .. } = &e.kind {
        if GROW_METHODS.contains(&name.as_str())
            && recv.line == line
            && recv.col == col
            && matches!(&recv.kind, ExprKind::Path(segs) if segs.as_slice() == [container])
        {
            return true;
        }
    }
    let mut found = false;
    for_each_child(e, &mut |c| {
        if !found {
            found = contains_grow_at(c, container, line, col);
        }
    });
    if found {
        return true;
    }
    for block in child_blocks(e) {
        for stmt in block {
            let inner = match stmt {
                Stmt::Let { init, .. } => init.as_ref(),
                Stmt::Expr { expr, .. } => Some(expr),
            };
            if let Some(inner) = inner {
                if contains_grow_at(inner, container, line, col) {
                    return true;
                }
            }
        }
    }
    false
}

/// Provable element count for a `for` iterable: a plain local path,
/// optionally behind `&` or trailing `iter`/`iter_mut`/`into_iter`/
/// `enumerate` calls, yields `root.len()`.
fn provable_len(iter: &Expr) -> Option<String> {
    match &iter.kind {
        ExprKind::Path(segs) => match segs.as_slice() {
            [only] if only != "self" => Some(format!("{only}.len()")),
            _ => None,
        },
        ExprKind::Ref { operand, .. } => provable_len(operand),
        ExprKind::MethodCall {
            recv, name, args, ..
        } if args.is_empty()
            && matches!(
                name.as_str(),
                "iter" | "iter_mut" | "into_iter" | "enumerate"
            ) =>
        {
            provable_len(recv)
        }
        _ => None,
    }
}

/// Names bound anywhere in a fn (params, lets, patterns) — used to vet
/// that a capacity source is in scope before the allocation.
fn bound_before(info_params: &[String], cfg: &Cfg<'_>, name: &str, line: u32) -> bool {
    if info_params.iter().any(|p| p == name) {
        return true;
    }
    for node in &cfg.nodes {
        for step in &node.steps {
            let (step_line, _) = step.pos();
            if step_line >= line {
                continue;
            }
            let mut names = Vec::new();
            match step {
                Step::Bind { pat, .. } | Step::PatBind { pat, .. } | Step::ForHead { pat, .. } => {
                    pat.bound_names(&mut names);
                }
                _ => {}
            }
            if names.iter().any(|n| n == name) {
                return true;
            }
        }
    }
    false
}

/// Container heads whose `.len()` is guaranteed to exist.
const SIZED_TY_HEADS: &[&str] = &[
    "Vec", "VecDeque", "String", "str", "BTreeMap", "BTreeSet", "HashMap", "HashSet",
];

/// Whether type tokens name a container with a `.len()` method: leading
/// `&`/`mut` stripped, then a sized head or a slice. Anything involving
/// `impl`/`dyn` (opaque trait types) is rejected outright.
fn ty_has_len(ty: &[String]) -> bool {
    if ty.iter().any(|t| t == "impl" || t == "dyn") {
        return false;
    }
    let head = ty.iter().find(|t| *t != "&" && *t != "mut");
    head.is_some_and(|t| SIZED_TY_HEADS.contains(&t.as_str()) || t == "[")
}

/// Whether `name`'s declared type provably has `.len()`: a param or a
/// single-name `let` whose annotation names a sized container, or a `let`
/// initialized from an unambiguous container constructor (`vec![..]`,
/// `Vec::...`, `String::...`). Pattern-bound and unannotated names are
/// rejected — an emitted fix must compile, so under-approximating here
/// only costs a machine fix, never correctness.
fn root_has_len(info: &FnInfo, name: &str) -> bool {
    for p in &info.params {
        if p.name == name {
            return ty_has_len(&p.ty);
        }
    }
    let mut proven = false;
    let mut stack = Vec::new();
    walk_with_loops(&info.body, &mut stack, &mut |stmt, _| {
        let Stmt::Let { pat, ty, init, .. } = stmt else {
            return;
        };
        let mut names = Vec::new();
        pat.bound_names(&mut names);
        if names.as_slice() != [name.to_string()] {
            return;
        }
        if !ty.is_empty() && ty_has_len(ty) {
            proven = true;
            return;
        }
        let Some(init) = init else {
            return;
        };
        match &init.kind {
            ExprKind::MacroCall { path, .. } if path.last().is_some_and(|s| s == "vec") => {
                proven = true;
            }
            ExprKind::Call { callee, .. } => {
                if let ExprKind::Path(segs) = &callee.kind {
                    if segs
                        .first()
                        .is_some_and(|s| s == "Vec" || s == "String" || s == "VecDeque")
                    {
                        proven = true;
                    }
                }
            }
            _ => {}
        }
    });
    proven
}

/// Whether every use of `name` in the statements is read-shaped (method
/// receiver, reference, index base, field base, comparison operand) —
/// the vet for hoisting a clone whose value must not be moved twice.
fn uses_are_read_shaped(stmts: &[Stmt], name: &str) -> bool {
    fn bare_use(e: &Expr, name: &str) -> bool {
        matches!(&e.kind, ExprKind::Path(segs) if segs.as_slice() == [name])
    }
    fn check(e: &Expr, name: &str) -> bool {
        match &e.kind {
            ExprKind::Path(_) | ExprKind::Lit(_) => !bare_use(e, name),
            ExprKind::MethodCall { recv, args, .. } => {
                let recv_ok = bare_use(recv, name) || check(recv, name);
                recv_ok && args.iter().all(|a| check(a, name))
            }
            ExprKind::Ref { operand, .. } => bare_use(operand, name) || check(operand, name),
            ExprKind::Index { base, index } => {
                (bare_use(base, name) || check(base, name)) && check(index, name)
            }
            ExprKind::Field { base, .. } => bare_use(base, name) || check(base, name),
            ExprKind::Binary { op, lhs, rhs } => {
                let cmp = matches!(op.as_str(), "==" | "!=" | "<" | ">" | "<=" | ">=");
                let lhs_ok = (cmp && bare_use(lhs, name)) || check(lhs, name);
                let rhs_ok = (cmp && bare_use(rhs, name)) || check(rhs, name);
                lhs_ok && rhs_ok
            }
            _ => {
                let mut ok = true;
                for_each_child(e, &mut |c| {
                    if ok {
                        ok = check(c, name);
                    }
                });
                if ok {
                    for block in child_blocks(e) {
                        if !uses_are_read_shaped_inner(block, name) {
                            ok = false;
                        }
                    }
                }
                ok
            }
        }
    }
    fn uses_are_read_shaped_inner(stmts: &[Stmt], name: &str) -> bool {
        for stmt in stmts {
            let ok = match stmt {
                Stmt::Let {
                    init, else_block, ..
                } => {
                    init.as_ref().is_none_or(|e| check(e, name))
                        && else_block
                            .as_ref()
                            .is_none_or(|b| uses_are_read_shaped_inner(b, name))
                }
                Stmt::Expr { expr, .. } => check(expr, name),
            };
            if !ok {
                return false;
            }
        }
        true
    }
    uses_are_read_shaped_inner(stmts, name)
}

/// Run the `H2` and `C2` passes over an analyzed workspace.
pub fn check_cost(ws: &Workspace, graph: &CallGraph<'_>, model: &CostModel) -> Vec<Finding> {
    let mut findings = Vec::new();
    for (id, node) in graph.fns.iter().enumerate() {
        let Some(file) = ws.files.get(node.file) else {
            continue;
        };
        let cfg = Cfg::build(&node.info.body);
        let loops = natural_loops(&cfg);
        let depths = loop_depths(&cfg);
        if model.is_hot(id) {
            check_h2(ws, graph, model, id, node, &cfg, &depths, &mut findings);
        }
        check_c2(file, node, &cfg, &loops, &depths, &mut findings);
    }
    findings
}

/// A growable-container binding tracked by `H2`.
struct Candidate {
    name: String,
    ctor: String,
    bind_line: u32,
    bind_col: u32,
    init_line: u32,
    init_col: u32,
    depth: u32,
    ambiguous: bool,
}

#[allow(clippy::too_many_arguments)]
fn check_h2(
    ws: &Workspace,
    graph: &CallGraph<'_>,
    model: &CostModel,
    id: usize,
    node: &FnNode<'_>,
    cfg: &Cfg<'_>,
    depths: &[u32],
    findings: &mut Vec<Finding>,
) {
    let Some(file) = ws.files.get(node.file) else {
        return;
    };
    let mut candidates: Vec<Candidate> = Vec::new();
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
            let ctor = match segs.as_slice() {
                [ty, method] if method == "new" && GROWABLE_CTORS.contains(&ty.as_str()) => {
                    ty.clone()
                }
                _ => continue,
            };
            if let Some(existing) = candidates.iter_mut().find(|c| c.name == *name) {
                existing.ambiguous = true;
                continue;
            }
            candidates.push(Candidate {
                name: name.clone(),
                ctor,
                bind_line: *line,
                bind_col: *col,
                init_line: init.line,
                init_col: init.col,
                depth: d,
                ambiguous: false,
            });
        }
    }
    if candidates.is_empty() {
        return;
    }

    // Growth sites per candidate name: (line, col of receiver, depth).
    let mut grows: BTreeMap<String, Vec<(u32, u32, u32)>> = BTreeMap::new();
    for (nid, block) in cfg.nodes.iter().enumerate() {
        let d = depths.get(nid).copied().unwrap_or(0);
        for step in &block.steps {
            for top in step_exprs(step) {
                collect_grows(top, d, &mut grows);
            }
        }
    }

    for cand in candidates.iter().filter(|c| !c.ambiguous) {
        let sites = grows.get(&cand.name).map(Vec::as_slice).unwrap_or(&[]);
        let max_depth = sites.iter().map(|(_, _, d)| *d).max().unwrap_or(0);
        if sites.is_empty() || max_depth <= cand.depth {
            continue;
        }
        let Some(path) = model.hot_path(graph, id) else {
            continue;
        };
        let fix = h2_fix(file, node, cfg, cand, sites);
        let mut finding = Finding::at(
            "H2",
            Severity::Warn,
            &file.parsed.rel_path,
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
        );
        finding.fix = fix;
        findings.push(finding);
    }
}

fn collect_grows(e: &Expr, depth: u32, out: &mut BTreeMap<String, Vec<(u32, u32, u32)>>) {
    if let ExprKind::MethodCall { recv, name, .. } = &e.kind {
        if GROW_METHODS.contains(&name.as_str()) {
            if let ExprKind::Path(segs) = &recv.kind {
                if let [only] = segs.as_slice() {
                    out.entry(only.clone())
                        .or_default()
                        .push((recv.line, recv.col, depth));
                }
            }
        }
    }
    for_each_child(e, &mut |c| collect_grows(c, depth, out));
}

/// Attach the `with_capacity` fix when the candidate's single growth
/// site sits in a `for` loop over an iterable with a provable length.
fn h2_fix(
    file: &crate::graph::AnalyzedFile,
    node: &FnNode<'_>,
    cfg: &Cfg<'_>,
    cand: &Candidate,
    sites: &[(u32, u32, u32)],
) -> Option<Fix> {
    if cand.ctor != "Vec" || sites.len() != 1 {
        return None;
    }
    let (grow_line, grow_col, _) = sites.first().copied()?;
    // Innermost AST loop holding the growth site.
    let mut innermost: Option<&Expr> = None;
    let mut stack = Vec::new();
    walk_with_loops(&node.info.body, &mut stack, &mut |stmt, loops| {
        if innermost.is_some() {
            return;
        }
        let expr = match stmt {
            Stmt::Expr { expr, .. } => expr,
            Stmt::Let {
                init: Some(init), ..
            } => init,
            _ => return,
        };
        if contains_grow_at(expr, &cand.name, grow_line, grow_col) {
            innermost = loops.last().copied();
        }
    });
    let ExprKind::For { iter, .. } = &innermost?.kind else {
        return None;
    };
    let capacity = provable_len(iter)?;
    let root = capacity.split('.').next().unwrap_or("");
    if root == cand.name {
        return None;
    }
    let params: Vec<String> = node.info.params.iter().map(|p| p.name.clone()).collect();
    if !bound_before(&params, cfg, root, cand.bind_line) {
        return None;
    }
    // The rewrite calls `.len()` on the root, so its declared type must
    // provably have one (`impl IntoIterator` params etc. do not).
    if !root_has_len(node.info, root) {
        return None;
    }
    // The replaced text must be exactly the ctor call.
    let line_text = file.lines.get(cand.init_line.saturating_sub(1) as usize)?;
    let col = cand.init_col.saturating_sub(1) as usize;
    if !line_text
        .get(col..)
        .is_some_and(|t| t.starts_with("Vec::new()"))
    {
        return None;
    }
    let start = offset_in_lines(&file.lines, cand.init_line, cand.init_col);
    Some(Fix {
        title: format!(
            "pre-allocate `{}` with `Vec::with_capacity({capacity})`",
            cand.name
        ),
        edits: vec![FixEdit {
            start,
            end: start + "Vec::new()".len(),
            replacement: format!("Vec::with_capacity({capacity})"),
        }],
    })
}

fn check_c2(
    file: &crate::graph::AnalyzedFile,
    node: &FnNode<'_>,
    cfg: &Cfg<'_>,
    loops: &[BTreeSet<usize>],
    depths: &[u32],
    findings: &mut Vec<Finding>,
) {
    // Candidate clone binds in loops.
    struct CloneBind {
        nid: usize,
        y: String,
        root: String,
        display: String,
        method: String,
        line: u32,
        col: u32,
    }
    let mut cands: Vec<CloneBind> = Vec::new();
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
            if !args.is_empty() || !CLONE_METHODS.contains(&method.as_str()) {
                continue;
            }
            let Some((root, display)) = place_root(recv) else {
                continue;
            };
            cands.push(CloneBind {
                nid,
                y: y.clone(),
                root,
                display,
                method: method.clone(),
                line: *line,
                col: *col,
            });
        }
    }
    if cands.is_empty() {
        return;
    }

    // Map every modification site to the CFG nodes that perform it.
    let mut site_nodes: BTreeMap<(String, u32, u32), BTreeSet<usize>> = BTreeMap::new();
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
                        .get(&(name.to_string(), *l, *c))
                        .is_some_and(|nodes| nodes.iter().any(|n| body.contains(n)))
                })
            })
        };
        if in_loop(&cand.root, fact.get(&cand.root)) {
            continue;
        }
        // `y` must not be separately modified inside the loop (its own
        // bind site is the candidate itself).
        let y_modified = fact.get(&cand.y).is_some_and(|sites| {
            sites.iter().any(|(l, c)| {
                (*l, *c) != (cand.line, cand.col)
                    && site_nodes
                        .get(&(cand.y.clone(), *l, *c))
                        .is_some_and(|nodes| nodes.iter().any(|n| body.contains(n)))
            })
        });
        if y_modified {
            continue;
        }
        let fix = c2_fix(file, node, &cand.y, &cand.root, cand.line, cand.col);
        let mut finding = Finding::at(
            "C2",
            Severity::Warn,
            &file.parsed.rel_path,
            cand.line,
            cand.col,
            format!(
                "`{}.{}()` is loop-invariant: `{}` is never modified inside the \
                 enclosing loop, so the copy is re-made every iteration; hoist the \
                 `let {}` above the loop",
                cand.display, cand.method, cand.root, cand.y
            ),
            file.snippet(cand.line),
        );
        finding.fix = fix;
        findings.push(finding);
    }
}

/// Attach the hoist fix for a loop-invariant clone: delete the whole
/// single-line `let` and re-insert it immediately above the innermost
/// enclosing loop statement, at the loop's indentation.
fn c2_fix(
    file: &crate::graph::AnalyzedFile,
    node: &FnNode<'_>,
    y: &str,
    root: &str,
    line: u32,
    col: u32,
) -> Option<Fix> {
    let _ = root;
    let line_text = file.lines.get(line.saturating_sub(1) as usize)?;
    let indent = line_text.len() - line_text.trim_start().len();
    let stmt_text = line_text.trim();
    // Whole-line single statement: the `let` starts the line and the
    // statement ends it.
    if col.saturating_sub(1) as usize != indent || !stmt_text.ends_with(';') {
        return None;
    }
    // Locate the innermost AST loop holding this let, and vet `y`'s
    // in-loop uses as read-shaped so the hoisted value is never moved.
    let mut target: Option<(&Expr, &[Stmt])> = None;
    let mut stack = Vec::new();
    walk_with_loops(&node.info.body, &mut stack, &mut |stmt, loops| {
        if target.is_some() {
            return;
        }
        if let Stmt::Let {
            line: l, col: c, ..
        } = stmt
        {
            if *l == line && *c == col {
                if let Some(lp) = loops.last() {
                    let body = child_blocks(lp).into_iter().next();
                    if let Some(body) = body {
                        target = Some((*lp, body.as_slice()));
                    }
                }
            }
        }
    });
    let (loop_expr, body) = target?;
    if !uses_are_read_shaped(body, y) {
        return None;
    }
    let loop_line_text = file.lines.get(loop_expr.line.saturating_sub(1) as usize)?;
    let loop_indent = &loop_line_text[..loop_line_text.len() - loop_line_text.trim_start().len()];
    if loop_expr.col.saturating_sub(1) as usize != loop_indent.len() {
        return None;
    }
    let insert_at = offset_in_lines(&file.lines, loop_expr.line, 1);
    let del_start = offset_in_lines(&file.lines, line, 1);
    let del_end = offset_in_lines(&file.lines, line + 1, 1);
    Some(Fix {
        title: format!("hoist `let {y}` above the loop"),
        edits: vec![
            FixEdit {
                start: insert_at,
                end: insert_at,
                replacement: format!("{loop_indent}{stmt_text}\n"),
            },
            FixEdit {
                start: del_start,
                end: del_end,
                replacement: String::new(),
            },
        ],
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::{parse_file, ItemKind};

    fn ws(files: &[(&str, &str)]) -> Workspace {
        let owned: Vec<(String, String)> = files
            .iter()
            .map(|(p, s)| (p.to_string(), s.to_string()))
            .collect();
        Workspace::build(&owned)
    }

    fn first_fn_cfg(src: &str) -> (crate::parser::ParsedFile, Vec<u32>) {
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
