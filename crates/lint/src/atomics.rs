//! Atomic-commutativity rule `A1`, on the [`crate::types`] field index.
//!
//! The streaming pipeline (PR 8) replaced locked counters with lock-free
//! atomics — `MemoryGauge`, the `UsageLedger` totals, `ShardedJournal`
//! error counts — on a specific discipline: every concurrent update must
//! be a single *commutative* read-modify-write (`fetch_add`,
//! `fetch_sub`, `fetch_max`, or a CAS retry loop), because with relaxed
//! ordering and racing workers only commutative RMWs keep the final
//! value independent of interleaving. `A1` makes the discipline
//! checkable, three ways (all Deny):
//!
//! 1. **Load-then-store**: one fn both `load`s and `store`s the same
//!    atomic field. The classic lost-update race — the store overwrites
//!    any update that landed between the two; use the `fetch_*` RMW or
//!    `fetch_update`.
//! 2. **Non-commutative RMW under `Relaxed`**: `swap` anywhere, or a
//!    `compare_exchange`/`compare_exchange_weak` *outside* a retry loop,
//!    with `Relaxed` success ordering. A CAS inside a loop is the
//!    sanctioned retry idiom; a bare one silently drops the update on
//!    contention.
//! 3. **Mixed orderings on one field**: the same field accessed with two
//!    different memory orderings anywhere in the workspace. Mixed
//!    orderings on a single location are almost never intentional here —
//!    the pipeline's counters are uniformly `Relaxed` — and an accidental
//!    `SeqCst` hides a misunderstanding of what the ordering protects.
//!    (`compare_exchange` failure orderings are excluded: a weaker
//!    failure ordering is the documented idiom.)
//!
//! Approximation directions (DESIGN.md §6a): a receiver must resolve to
//! a field of provable `Atomic*` type through the [`crate::types`]
//! layer, so atomics reached through locals or trait objects are missed
//! (under-approximates, never spurious); the load/store pairing is
//! per-fn and flow-insensitive, so a load and store on provably disjoint
//! paths still pair up (over-approximates — the conservative direction
//! for a race rule).
//!
//! A site is a call of a method named in `ATOMIC_METHODS`, so the pass
//! solves local types only for a fn whose body holds one (see
//! `types::any_site`); a `#[cfg(test)]` reference keeps the
//! unconditional per-fn solve, held equal by a test in `scan.rs`.

use crate::callgraph::{CallGraph, FnNode};
use crate::cost;
use crate::dataflow;
use crate::expr::{for_each_child, Expr, ExprKind};
use crate::findings::{Finding, Severity};
use crate::graph::Workspace;
use crate::types::{self, LocalTypes, Ty, TyFacts, TypeIndex};
use std::collections::{BTreeMap, BTreeSet};

/// The atomic method families the rule recognizes.
const ATOMIC_METHODS: &[&str] = &[
    "load",
    "store",
    "swap",
    "fetch_add",
    "fetch_sub",
    "fetch_max",
    "fetch_min",
    "fetch_and",
    "fetch_or",
    "fetch_xor",
    "fetch_update",
    "compare_exchange",
    "compare_exchange_weak",
];

/// `std::sync::atomic::Ordering` variant names.
const ORDERINGS: &[&str] = &["Relaxed", "Acquire", "Release", "AcqRel", "SeqCst"];

/// One recognized atomic access site.
struct AtomicSite<'a> {
    /// `(owning struct or "", field name)` — the location identity.
    key: (&'a str, &'a str),
    /// Method name (`"fetch_add"`).
    method: &'a str,
    /// First memory-ordering argument (success ordering for CAS), when
    /// syntactically recognizable.
    ordering: Option<&'a str>,
    file: usize,
    line: u32,
    col: u32,
    /// Loop depth of the call's line within its fn.
    depth: u32,
}

/// The first memory-ordering argument of one call.
fn first_ordering<'a>(args: &[Expr<'a>]) -> Option<&'a str> {
    args.iter().find_map(|a| {
        let last = *a.plain_path()?.last()?;
        ORDERINGS.contains(&last).then_some(last)
    })
}

/// Resolve a method receiver to an atomic field identity, when it is a
/// field access whose declared type is an `Atomic*` wrapper.
fn atomic_field<'a>(
    lt: &LocalTypes<'a>,
    fact: &TyFacts<'a>,
    recv: &Expr<'a>,
) -> Option<(&'a str, &'a str)> {
    let ExprKind::Field { base, name } = &recv.kind else {
        return None;
    };
    let recv_ty = lt.infer(fact, recv).ty;
    let Ty::Named(head) = recv_ty else {
        return None;
    };
    if !head.starts_with("Atomic") {
        return None;
    }
    let owner = match &base.kind {
        ExprKind::Path(segs) if segs.as_slice() == ["self"] => lt.self_ty,
        _ => match lt.infer(fact, base).ty {
            Ty::Named(s) => Some(s),
            _ => None,
        },
    };
    Some((owner.unwrap_or_default(), name))
}

/// Collect every atomic access in one expression tree (the CFG hoists
/// control-flow subexpressions into their own steps, so don't descend).
fn sites_in<'a>(
    lt: &LocalTypes<'a>,
    fact: &TyFacts<'a>,
    e: &Expr<'a>,
    file: usize,
    depths: &BTreeMap<u32, u32>,
    out: &mut Vec<AtomicSite<'a>>,
) {
    if e.is_control() {
        return;
    }
    if let ExprKind::MethodCall {
        recv, name, args, ..
    } = &e.kind
    {
        if ATOMIC_METHODS.contains(name) {
            if let Some(key) = atomic_field(lt, fact, recv) {
                out.push(AtomicSite {
                    key,
                    method: name,
                    ordering: first_ordering(args),
                    file,
                    line: e.line,
                    col: e.col,
                    depth: depths.get(&e.line).copied().unwrap_or(0),
                });
            }
        }
    }
    for_each_child(e, &mut |c| sites_in(lt, fact, c, file, depths, out));
}

/// Run the `A1` pass over every call-graph fn that calls a method named
/// in `ATOMIC_METHODS` (see `may_access`).
pub fn check_atomics(
    ws: &Workspace<'_>,
    graph: &CallGraph<'_>,
    index: &TypeIndex<'_>,
) -> Vec<Finding> {
    check_sites(ws, graph, |node| {
        if may_access(node) {
            fn_sites(index, node)
        } else {
            Vec::new()
        }
    })
}

/// Whether a fn's body calls a method named in [`ATOMIC_METHODS`] — the
/// only expressions [`sites_in`] records, so a fn without one needs no
/// type solve.
fn may_access(node: &FnNode<'_>) -> bool {
    types::any_site(&node.cfg, &|e| match &e.kind {
        ExprKind::MethodCall { name, .. } => ATOMIC_METHODS.contains(name),
        _ => false,
    })
}

/// Solve local types for one fn and collect its atomic access sites.
fn fn_sites<'a>(index: &'a TypeIndex<'a>, node: &'a FnNode<'a>) -> Vec<AtomicSite<'a>> {
    let lt = LocalTypes::new(index, node);
    let facts = types::solve_fn(&lt, &node.cfg);
    let mut sites = Vec::new();
    for (nid, cfg_node) in node.cfg.nodes.iter().enumerate() {
        let Some(fact_in) = facts.get(nid).and_then(|f| f.as_ref()) else {
            continue;
        };
        dataflow::replay(&lt, &cfg_node.steps, fact_in, &mut |step, fact| {
            if let Some(e) = cost::step_expr(step) {
                sites_in(&lt, fact, e, node.file, &node.line_depths, &mut sites);
            }
        });
    }
    sites
}

/// `A1` over the access sites `sites_of` collects from each fn.
fn check_sites<'a>(
    ws: &Workspace<'_>,
    graph: &'a CallGraph<'a>,
    mut sites_of: impl FnMut(&'a FnNode<'a>) -> Vec<AtomicSite<'a>>,
) -> Vec<Finding> {
    let mut findings = Vec::new();
    // Workspace-wide ordering census: field identity -> orderings seen,
    // plus the first site for the mixed-ordering finding's anchor.
    let mut orderings: BTreeMap<(&str, &str), BTreeSet<&str>> = BTreeMap::new();
    let mut first_site: BTreeMap<(&str, &str), (usize, u32, u32)> = BTreeMap::new();
    for node in &graph.fns {
        let Some(file) = ws.files.get(node.file) else {
            continue;
        };
        let sites = sites_of(node);
        let loaded: BTreeSet<(&str, &str)> = sites
            .iter()
            .filter(|s| s.method == "load")
            .map(|s| s.key)
            .collect();
        for site in &sites {
            let field = site.key.1;
            orderings.entry(site.key).or_default().extend(site.ordering);
            first_site
                .entry(site.key)
                .or_insert((site.file, site.line, site.col));
            if site.method == "store" && loaded.contains(&site.key) {
                findings.push(Finding::at(
                    "A1",
                    Severity::Deny,
                    file.parsed.rel_path,
                    site.line,
                    site.col,
                    format!(
                        "non-atomic read-modify-write: `{field}` is loaded and stored \
                         separately in `{}` — racing workers lose updates between the two; \
                         use a `fetch_*` RMW or `fetch_update`",
                        node.name,
                    ),
                    file.snippet(site.line),
                ));
            }
            let relaxed = site.ordering == Some("Relaxed");
            if site.method == "swap" && relaxed {
                findings.push(Finding::at(
                    "A1",
                    Severity::Deny,
                    file.parsed.rel_path,
                    site.line,
                    site.col,
                    format!(
                        "`swap` on `{field}` under `Ordering::Relaxed` is not commutative — \
                         the final value depends on worker interleaving; use a `fetch_*` \
                         RMW or a CAS retry loop",
                    ),
                    file.snippet(site.line),
                ));
            }
            if site.method.starts_with("compare_exchange") && relaxed && site.depth == 0 {
                findings.push(Finding::at(
                    "A1",
                    Severity::Deny,
                    file.parsed.rel_path,
                    site.line,
                    site.col,
                    format!(
                        "bare `{}` on `{field}` under `Ordering::Relaxed` outside a retry \
                         loop silently drops the update on contention; retry in a loop or \
                         use `fetch_update`",
                        site.method,
                    ),
                    file.snippet(site.line),
                ));
            }
        }
    }
    for (key, seen) in &orderings {
        if seen.len() > 1 {
            if let Some(&(file_id, line, col)) = first_site.get(key) {
                if let Some(file) = ws.files.get(file_id) {
                    let mix: Vec<&str> = seen.iter().copied().collect();
                    findings.push(Finding::at(
                        "A1",
                        Severity::Deny,
                        file.parsed.rel_path,
                        line,
                        col,
                        format!(
                            "`{}` is accessed with mixed memory orderings ({}) across the \
                             workspace; pick one ordering per location — the pipeline's \
                             counters are uniformly `Relaxed`",
                            key.1,
                            mix.join(", "),
                        ),
                        file.snippet(line),
                    ));
                }
            }
        }
    }
    findings
}

/// The reference for the gated solve: the unconditional loop, which
/// solves local types for every fn.
#[cfg(test)]
pub(crate) mod reference {
    use super::*;

    /// [`check_atomics`] without the gate.
    pub(crate) fn check_atomics(
        ws: &Workspace<'_>,
        graph: &CallGraph<'_>,
        index: &TypeIndex<'_>,
    ) -> Vec<Finding> {
        check_sites(ws, graph, |node| fn_sites(index, node))
    }

    /// How many access sites the full solve finds in the fns the gate
    /// skips.
    pub(crate) fn skipped_sites(graph: &CallGraph<'_>, index: &TypeIndex<'_>) -> usize {
        graph
            .fns
            .iter()
            .filter(|node| !may_access(node))
            .map(|node| fn_sites(index, node).len())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(files: &[(&str, &str)]) -> Vec<Finding> {
        let ws = Workspace::build(files);
        let graph = CallGraph::build(&ws);
        let index = TypeIndex::build(&ws);
        check_atomics(&ws, &graph, &index)
    }

    #[test]
    fn load_then_store_is_a_lost_update() {
        let findings = run(&[(
            "crates/core/src/gauge.rs",
            "pub struct Gauge { n: AtomicU64 }\n\
             impl Gauge {\n\
                 pub fn bump(&self) {\n\
                     let v = self.n.load(Ordering::Relaxed);\n\
                     self.n.store(v + 1, Ordering::Relaxed);\n\
                 }\n\
             }\n",
        )]);
        assert_eq!(findings.len(), 1, "{findings:?}");
        let f = findings.first().expect("finding");
        assert_eq!((f.rule, f.severity), ("A1", Severity::Deny));
        assert_eq!(f.line, 5, "anchored at the store");
        assert!(f.message.contains("fetch_*"), "{}", f.message);
    }

    #[test]
    fn relaxed_swap_and_bare_cas_deny_but_cas_loops_are_sanctioned() {
        let findings = run(&[(
            "crates/core/src/gauge.rs",
            "pub struct Gauge { n: AtomicU64 }\n\
             impl Gauge {\n\
                 pub fn reset(&self) -> u64 {\n\
                     self.n.swap(0, Ordering::Relaxed)\n\
                 }\n\
                 pub fn try_set(&self, v: u64) {\n\
                     self.n.compare_exchange(0, v, Ordering::Relaxed, Ordering::Relaxed).ok();\n\
                 }\n\
                 pub fn set_max(&self, v: u64) {\n\
                     let mut cur = self.n.load(Ordering::Relaxed);\n\
                     while cur < v {\n\
                         match self.n.compare_exchange(cur, v, Ordering::Relaxed, Ordering::Relaxed) {\n\
                             Ok(_) => return,\n\
                             Err(seen) => cur = seen,\n\
                         }\n\
                     }\n\
                 }\n\
             }\n",
        )]);
        let rules: Vec<(u32, bool)> = findings
            .iter()
            .map(|f| (f.line, f.message.contains("swap")))
            .collect();
        assert_eq!(findings.len(), 2, "{findings:?}");
        assert!(rules.contains(&(4, true)), "swap denied: {findings:?}");
        assert!(
            findings
                .iter()
                .any(|f| f.line == 7 && f.message.contains("retry loop")),
            "bare CAS denied, looped CAS sanctioned: {findings:?}"
        );
    }

    #[test]
    fn mixed_orderings_on_one_field_deny_once() {
        let findings = run(&[(
            "crates/core/src/gauge.rs",
            "pub struct Gauge { n: AtomicU64 }\n\
             impl Gauge {\n\
                 pub fn bump(&self) { self.n.fetch_add(1, Ordering::Relaxed); }\n\
                 pub fn read(&self) -> u64 { self.n.load(Ordering::SeqCst) }\n\
             }\n",
        )]);
        assert_eq!(findings.len(), 1, "{findings:?}");
        let f = findings.first().expect("finding");
        assert!(
            f.message.contains("Relaxed") && f.message.contains("SeqCst"),
            "{}",
            f.message
        );
    }

    #[test]
    fn uniform_commutative_rmw_is_clean() {
        let findings = run(&[(
            "crates/core/src/gauge.rs",
            "pub struct Gauge { current: AtomicU64, peak: AtomicU64 }\n\
             impl Gauge {\n\
                 pub fn grow(&self, n: u64) {\n\
                     let now = self.current.fetch_add(n, Ordering::Relaxed) + n;\n\
                     self.peak.fetch_max(now, Ordering::Relaxed);\n\
                 }\n\
                 pub fn shrink(&self, n: u64) { self.current.fetch_sub(n, Ordering::Relaxed); }\n\
                 pub fn peak_bytes(&self) -> u64 { self.peak.load(Ordering::Relaxed) }\n\
             }\n",
        )]);
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn cas_failure_ordering_is_not_a_mix() {
        let findings = run(&[(
            "crates/core/src/gauge.rs",
            "pub struct Gauge { n: AtomicU64 }\n\
             impl Gauge {\n\
                 pub fn set_once(&self, v: u64) {\n\
                     loop {\n\
                         if self.n.compare_exchange(0, v, Ordering::Relaxed, Ordering::Acquire).is_ok() {\n\
                             return;\n\
                         }\n\
                     }\n\
                 }\n\
                 pub fn read(&self) -> u64 { self.n.load(Ordering::Relaxed) }\n\
             }\n",
        )]);
        assert!(
            findings.is_empty(),
            "failure ordering excluded: {findings:?}"
        );
    }
}
