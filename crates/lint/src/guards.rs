//! `M1`: lock-guard liveness across expensive calls.
//!
//! The pool's slower-than-serial cells come from exactly one shape: a
//! `Mutex`/`RwLock` guard that stays live across work that does not need
//! the lock. This pass recognizes guard *acquisitions* — `let g =
//! <lock>.lock()` (or `.read()`/`.write()` on a receiver the `K1`
//! registry or the local type environment proves is a lock) — and runs a
//! forward may-held dataflow over the CFG: a guard enters the fact at
//! its bind, leaves it at `drop(g)` or a rebinding, and is additionally
//! clipped to its lexical scope (the last source line of the statement
//! list that declared it), so a guard confined to an inner block never
//! leaks into sibling statements.
//!
//! **`M1` lock-held-across-expensive-call** (Deny): some guard is live
//! at a call into the `fetch`/`complete`/`annotate` family, or into any
//! workspace fn whose interprocedural cost summary (from
//! [`crate::cost`]) exceeds a threshold. Holding a lock across I/O- or
//! annotation-shaped work serializes every sibling worker.
//!
//! Approximations, in the conservative direction: guard
//! recognition needs a provable lock receiver, so guards behind type
//! inference the parser cannot see are missed (fewer findings);
//! scope-end clipping is line-based, so a block that shares its closing
//! line with a later call can under-clip (more findings, caught by the
//! fix-or-allowlist gate); `drop(g)` kills the guard on every path even
//! when conditional, which under-approximates liveness but matches the
//! "was it ever provably released" question `M1` asks.

use crate::callgraph::{CallGraph, FnNode, Resolution};
use crate::cfg::Step;
use crate::cost::CostModel;
use crate::dataflow::{replay, solve, Analysis};
use crate::expr::{child_blocks, for_each_child, Expr, ExprKind, Pat, Stmt};
use crate::findings::{Finding, Severity};
use crate::graph::Workspace;
use crate::parser::{CallSite, ItemKind};
use std::collections::{BTreeMap, BTreeSet};

/// Methods that acquire a lock guard.
pub(crate) const ACQUIRE_METHODS: &[&str] = &["lock", "read", "write"];

/// Interprocedural cost above which a callee counts as expensive for
/// `M1` even outside the fetch/complete/annotate families.
const EXPENSIVE_TOTAL: u64 = 4096;

/// Call-name prefixes that are expensive by contract: network fetches,
/// chatbot completions, and annotation drivers.
const EXPENSIVE_PREFIXES: &[&str] = &["fetch", "complete", "annotate"];

/// Lock registry: `(crate, struct) -> lock-typed field names` (the same
/// parser-level registry `K1` builds).
pub(crate) fn lock_registry<'a>(
    ws: &'a Workspace<'a>,
) -> BTreeMap<(&'a str, &'a str), BTreeSet<&'a str>> {
    let mut registry = BTreeMap::new();
    for file in &ws.files {
        for item in file.parsed.all_items() {
            if item.cfg_test {
                continue;
            }
            if let ItemKind::Struct { fields } = &item.kind {
                let locks: BTreeSet<&str> = fields
                    .iter()
                    .filter(|f| f.is_lock)
                    .map(|f| f.name)
                    .collect();
                if !locks.is_empty() {
                    registry.insert((file.crate_name, item.name), locks);
                }
            }
        }
    }
    registry
}

/// Whether a type-token list names a lock type.
fn ty_is_lock(ty: &[&str]) -> bool {
    ty.iter().any(|&t| t == "Mutex" || t == "RwLock")
}

/// Whether an expression tree mentions a lock type constructor
/// (`Mutex::new(..)`, `RwLock::new(..)`, or a path through one).
fn init_mentions_lock(e: &Expr<'_>) -> bool {
    let own = match &e.kind {
        ExprKind::Path(segs) => segs.iter().any(|&s| s == "Mutex" || s == "RwLock"),
        ExprKind::StructLit { path, .. } => path.iter().any(|&s| s == "Mutex" || s == "RwLock"),
        _ => false,
    };
    if own {
        return true;
    }
    let mut found = false;
    for_each_child(e, &mut |c| {
        if !found {
            found = init_mentions_lock(c);
        }
    });
    found
}

/// Per-fn environment of names provably bound to lock values: params and
/// lets whose declared type or initializer names `Mutex`/`RwLock`.
fn lock_locals<'a>(node: &FnNode<'a>) -> BTreeSet<&'a str> {
    let mut locals: BTreeSet<&str> = node
        .info
        .params
        .iter()
        .filter(|p| ty_is_lock(&p.ty))
        .map(|p| p.name)
        .collect();
    for block in &node.cfg.nodes {
        for step in &block.steps {
            let Step::Bind {
                pat: Pat::Ident { name, .. },
                ty,
                init,
                ..
            } = step
            else {
                continue;
            };
            if ty_is_lock(ty) || init.is_some_and(init_mentions_lock) {
                locals.insert(name);
            }
        }
    }
    locals
}

/// Whether `recv` is a provable lock place for an acquisition method:
/// `self.<field>` with the field registered, or a path rooted at a local
/// the environment proves is a lock.
fn recv_is_lock(
    recv: &Expr<'_>,
    method: &str,
    fields: Option<&BTreeSet<&str>>,
    locals: &BTreeSet<&str>,
) -> bool {
    let _ = method;
    match &recv.kind {
        ExprKind::Path(segs) => matches!(segs.as_slice(), [one] if locals.contains(one)),
        ExprKind::Field { base, name } => {
            if matches!(&base.kind, ExprKind::Path(segs) if segs.as_slice() == ["self"]) {
                fields.is_some_and(|f| f.contains(name))
            } else {
                // A nested place (`shared.inner`): accept when the root
                // local is a proven lock holder — `.lock()` only; for
                // `.read()`/`.write()` the field itself must be registered.
                false
            }
        }
        _ => false,
    }
}

/// Whether a bind initializer holds a guard acquisition.
fn acquisition_in(
    init: &Expr<'_>,
    fields: Option<&BTreeSet<&str>>,
    locals: &BTreeSet<&str>,
) -> bool {
    if let ExprKind::MethodCall { recv, name, .. } = &init.kind {
        if ACQUIRE_METHODS.contains(name) && recv_is_lock(recv, name, fields, locals) {
            return true;
        }
    }
    let mut found = false;
    for_each_child(init, &mut |c| {
        if !found {
            found = acquisition_in(c, fields, locals);
        }
    });
    found
}

/// One recognized guard binding.
struct Guard<'a> {
    name: &'a str,
    line: u32,
    col: u32,
    /// Last source line of the statement list that declared it.
    scope_end: u32,
}

/// Maximum source line spanned by an expression (including nested
/// blocks).
fn expr_max_line(e: &Expr<'_>) -> u32 {
    let mut max = e.line;
    for_each_child(e, &mut |c| max = max.max(expr_max_line(c)));
    for block in child_blocks(e) {
        for stmt in block {
            max = max.max(stmt_max_line(stmt));
        }
    }
    max
}

fn stmt_max_line(stmt: &Stmt<'_>) -> u32 {
    match stmt {
        Stmt::Let {
            init,
            else_block,
            line,
            ..
        } => {
            let mut max = *line;
            if let Some(e) = init {
                max = max.max(expr_max_line(e));
            }
            for s in else_block.iter().flatten() {
                max = max.max(stmt_max_line(s));
            }
            max
        }
        Stmt::Expr { expr, .. } => expr_max_line(expr),
    }
}

/// Last line of the scope that declares the `let` at `(line, col)`: the
/// maximum line spanned by the remainder of its statement list. Falls
/// back to `u32::MAX` (no clipping) when the statement is not found.
fn scope_end_of(body: &[Stmt<'_>], line: u32, col: u32) -> u32 {
    fn search(stmts: &[Stmt<'_>], line: u32, col: u32) -> Option<u32> {
        for (i, stmt) in stmts.iter().enumerate() {
            if let Stmt::Let {
                line: l, col: c, ..
            } = stmt
            {
                if *l == line && *c == col {
                    let mut max = line;
                    for later in stmts.iter().skip(i) {
                        max = max.max(stmt_max_line(later));
                    }
                    return Some(max);
                }
            }
            let found = match stmt {
                Stmt::Let {
                    init, else_block, ..
                } => init
                    .as_ref()
                    .and_then(|e| search_expr(e, line, col))
                    .or_else(|| else_block.as_ref().and_then(|b| search(b, line, col))),
                Stmt::Expr { expr, .. } => search_expr(expr, line, col),
            };
            if found.is_some() {
                return found;
            }
        }
        None
    }
    fn search_expr(e: &Expr<'_>, line: u32, col: u32) -> Option<u32> {
        for block in child_blocks(e) {
            if let Some(end) = search(block, line, col) {
                return Some(end);
            }
        }
        let mut found = None;
        for_each_child(e, &mut |c| {
            if found.is_none() {
                found = search_expr(c, line, col);
            }
        });
        found
    }
    search(body, line, col).unwrap_or(u32::MAX)
}

/// Guard-liveness dataflow: the set of guards that may be held, mapped
/// to their acquisition sites.
struct GuardLive<'a> {
    /// Bind sites `(line, col) -> guard name` recognized as acquisitions.
    acquisitions: BTreeMap<(u32, u32), &'a str>,
}

impl<'a> Analysis<'a> for GuardLive<'a> {
    type Fact = BTreeMap<&'a str, (u32, u32)>;

    fn boundary(&self) -> Self::Fact {
        BTreeMap::new()
    }

    fn join(&self, acc: &mut Self::Fact, other: &Self::Fact) {
        for (&name, site) in other {
            acc.entry(name).or_insert(*site);
        }
    }

    fn step(&self, step: &Step<'a>, fact: &mut Self::Fact) {
        match *step {
            Step::Bind { pat, line, col, .. } => {
                // Any rebinding releases the old guard (shadow or move);
                // a recognized acquisition re-arms it.
                let mut names = Vec::new();
                pat.bound_names(&mut names);
                for name in names {
                    fact.remove(name);
                }
                if let Some(&g) = self.acquisitions.get(&(line, col)) {
                    fact.insert(g, (line, col));
                }
            }
            Step::PatBind { pat, .. } => {
                let mut names = Vec::new();
                pat.bound_names(&mut names);
                for name in names {
                    fact.remove(name);
                }
            }
            Step::Eval(e) => {
                if let Some(dropped) = dropped_guard(e) {
                    fact.remove(dropped);
                }
            }
            _ => {}
        }
    }
}

/// The guard released by a top-level `drop(g)` / `mem::drop(g)` call.
fn dropped_guard<'a>(e: &Expr<'a>) -> Option<&'a str> {
    let ExprKind::Call { callee, args } = &e.kind else {
        return None;
    };
    let ExprKind::Path(segs) = &callee.kind else {
        return None;
    };
    if segs.last().copied() != Some("drop") {
        return None;
    }
    let [arg] = args.as_slice() else {
        return None;
    };
    match &arg.kind {
        ExprKind::Path(segs) => match *segs.as_slice() {
            [one] => Some(one),
            _ => None,
        },
        _ => None,
    }
}

/// Why a call counts as expensive for `M1`.
fn expensive_reason(
    graph: &CallGraph<'_>,
    model: &CostModel,
    file: usize,
    self_ty: Option<&str>,
    call: &CallSite<'_>,
) -> Option<String> {
    if ACQUIRE_METHODS.contains(&call.name) || call.name == "drop" {
        return None;
    }
    if EXPENSIVE_PREFIXES.iter().any(|p| call.name.starts_with(p)) {
        return Some(format!(
            "`{}` is in the fetch/complete/annotate family",
            call.name
        ));
    }
    let Resolution::Fns(ids) = graph.resolve(file, self_ty, call) else {
        return None;
    };
    let worst = ids
        .iter()
        .filter_map(|&id| model.total.get(id).copied())
        .max()
        .unwrap_or(0);
    if worst >= EXPENSIVE_TOTAL {
        Some(format!(
            "its interprocedural cost summary ({worst}) exceeds the hot-path \
             threshold ({EXPENSIVE_TOTAL})"
        ))
    } else {
        None
    }
}

/// Run the `M1` pass over an analyzed workspace.
pub fn check_guards(ws: &Workspace<'_>, graph: &CallGraph<'_>, model: &CostModel) -> Vec<Finding> {
    let registry = lock_registry(ws);
    let mut findings = Vec::new();
    for node in &graph.fns {
        let Some(file) = ws.files.get(node.file) else {
            continue;
        };
        let fields = node
            .self_ty
            .and_then(|ty| registry.get(&(node.crate_name, ty)));
        let cfg = &node.cfg;
        let locals = lock_locals(node);

        // Recognized guard binds.
        let mut guards: Vec<Guard<'_>> = Vec::new();
        for block in &cfg.nodes {
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
                if !acquisition_in(init, fields, &locals) {
                    continue;
                }
                guards.push(Guard {
                    name,
                    line: *line,
                    col: *col,
                    scope_end: scope_end_of(&node.info.body, *line, *col),
                });
            }
        }
        if guards.is_empty() {
            continue;
        }

        let acquisitions: BTreeMap<(u32, u32), &str> =
            guards.iter().map(|g| ((g.line, g.col), g.name)).collect();
        let analysis = GuardLive { acquisitions };
        let in_facts = solve(cfg, &analysis);

        // Guards live per line (fact *before* each step, scope-clipped).
        let mut live_at_line: BTreeMap<u32, BTreeMap<&str, (u32, u32)>> = BTreeMap::new();
        for (nid, block) in cfg.nodes.iter().enumerate() {
            let Some(fact_in) = in_facts.get(nid).and_then(|f| f.as_ref()) else {
                continue;
            };
            replay(&analysis, &block.steps, fact_in, &mut |step, fact| {
                let (line, _) = step.pos();
                let slot = live_at_line.entry(line).or_default();
                for (&g, site) in fact {
                    let in_scope = guards.iter().any(|gd| {
                        gd.name == g && (gd.line, gd.col) == *site && line <= gd.scope_end
                    });
                    if in_scope {
                        slot.entry(g).or_insert(*site);
                    }
                }
            });
        }

        // M1: expensive call while a guard is live.
        for call in &node.info.calls {
            let Some(reason) = expensive_reason(graph, model, node.file, node.self_ty, call) else {
                continue;
            };
            let Some(live) = live_at_line.get(&call.line) else {
                continue;
            };
            if live.is_empty() {
                continue;
            }
            let held: Vec<String> = live
                .iter()
                .map(|(g, (l, _))| format!("`{g}` (acquired at line {l})"))
                .collect();
            findings.push(Finding::at(
                "M1",
                Severity::Deny,
                file.parsed.rel_path,
                call.line,
                call.col,
                format!(
                    "`{}` is called while {} is still held — {reason}; release the \
                     guard (drop it or narrow its scope) before the expensive call",
                    call.name,
                    held.join(" and ")
                ),
                file.snippet(call.line),
            ));
        }
    }
    findings
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scan(files: &[(&str, &str)]) -> Vec<Finding> {
        let owned: Vec<(String, String)> = files
            .iter()
            .map(|(p, s)| (p.to_string(), s.to_string()))
            .collect();
        let ws = Workspace::build(&owned);
        let graph = CallGraph::build(&ws);
        let model = CostModel::build(&ws, &graph);
        check_guards(&ws, &graph, &model)
    }

    const SHARED: &str = "pub struct Shared {\n\
         \x20   jobs: Mutex<Vec<u32>>,\n\
         }\n";

    #[test]
    fn lock_across_fetch_fires_m1() {
        let src = format!(
            "{SHARED}impl Shared {{\n\
             \x20   pub fn go(&self) {{\n\
             \x20       let g = self.jobs.lock();\n\
             \x20       let page = fetch_page(g.first());\n\
             \x20       use_it(page);\n\
             \x20   }}\n\
             }}\n"
        );
        let f = scan(&[("crates/crawler/src/pool.rs", &src)]);
        assert!(
            f.iter()
                .any(|f| f.rule == "M1" && f.message.contains("fetch_page")),
            "{f:?}"
        );
    }

    #[test]
    fn dropped_guard_before_fetch_is_clean() {
        let src = format!(
            "{SHARED}impl Shared {{\n\
             \x20   pub fn go(&self) {{\n\
             \x20       let g = self.jobs.lock();\n\
             \x20       let first = g.first();\n\
             \x20       drop(g);\n\
             \x20       let page = fetch_page(first);\n\
             \x20       use_it(page);\n\
             \x20   }}\n\
             }}\n"
        );
        let f = scan(&[("crates/crawler/src/pool.rs", &src)]);
        assert!(f.iter().all(|f| f.rule != "M1"), "{f:?}");
    }

    #[test]
    fn block_scoped_guard_is_clean() {
        let src = format!(
            "{SHARED}impl Shared {{\n\
             \x20   pub fn go(&self) {{\n\
             \x20       let first = {{\n\
             \x20           let g = self.jobs.lock();\n\
             \x20           g.first()\n\
             \x20       }};\n\
             \x20       let page = fetch_page(first);\n\
             \x20       use_it(page);\n\
             \x20   }}\n\
             }}\n"
        );
        let f = scan(&[("crates/crawler/src/pool.rs", &src)]);
        assert!(f.iter().all(|f| f.rule != "M1"), "{f:?}");
    }

    #[test]
    fn plain_read_receiver_is_not_a_guard() {
        let src = "pub fn go(file: Handle) {\n\
             \x20   let data = file.read();\n\
             \x20   let page = fetch_page(data);\n\
             \x20   use_it(page);\n\
             }\n";
        let f = scan(&[("crates/net/src/io.rs", src)]);
        assert!(f.is_empty(), "{f:?}");
    }
}
