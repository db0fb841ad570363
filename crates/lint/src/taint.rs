//! `D3`: determinism taint — hash-order values must be sorted before
//! they reach output.
//!
//! The token-level `D2` rule catches `map.iter()` feeding `writeln!` in
//! one expression; this pass tracks the same hazard *through bindings*
//! with a may-dataflow over the fn's CFG. A value is **tainted** when it
//! is produced by iterating a `HashMap`/`HashSet` (whose order varies
//! per process); taint propagates through `let` rebinding and dies at a
//! **sanitizer** — an in-place `sort`/`sort_unstable`/`sort_by*` or a
//! `collect` into a `BTreeMap`/`BTreeSet`. A finding fires when a
//! tainted value reaches an **output sink**:
//!
//! - a `write!`/`print!`-family macro argument or `{name}` capture;
//! - `serde_json::to_string`/`to_vec`/`to_writer`/`to_value` or a
//!   `.serialize(..)` call;
//! - `push`/`insert`/`extend` into a collection the fn returns (the
//!   caller sees the nondeterministic order), unless that collection is
//!   itself a BTree (self-ordering).
//!
//! Hash-typed names come from parameter types, `let` annotations and
//! initializers (`HashMap::new()`, `collect::<HashMap<..>>()`), and
//! `self.<field>` for struct fields whose type mentions a hash
//! container. Approximation notes. **Over**: any mention of a tainted
//! name inside a sink argument fires, even inside arithmetic that
//! erases order (e.g. summing). **Under**: taint through fields of
//! structs built from tainted values, through fn returns, and through
//! non-`self` method receivers is not tracked.

use crate::callgraph::{CallGraph, FnNode};
use crate::cfg::Step;
use crate::cost;
use crate::dataflow::{self, Analysis};
use crate::expr::{for_each_child, for_each_expr, for_each_let, Expr, ExprKind, Pat, Stmt};
use crate::findings::{Finding, Severity};
use crate::graph::{AnalyzedFile, Workspace};
use crate::parser::ItemKind;
use std::borrow::Cow;
use std::collections::BTreeSet;

/// A place name: a binding (borrowed from the source) or a dotted field
/// path (`self.cache`, made once when a rule reads it).
type Place<'a> = Cow<'a, str>;

/// Run the `D3` pass over an analyzed workspace and its call graph.
pub fn check_taint(ws: &Workspace<'_>, graph: &CallGraph<'_>) -> Vec<Finding> {
    let mut findings = Vec::new();
    for node in &graph.fns {
        let Some(file) = ws.files.get(node.file) else {
            continue;
        };
        check_fn(file, node, &mut findings);
    }
    findings
}

fn check_fn(file: &AnalyzedFile<'_>, node: &FnNode<'_>, findings: &mut Vec<Finding>) {
    let env = Env::collect(file, &node.info.body, &node.info.params);
    if env.hash_names.is_empty() {
        return;
    }
    let cfg = &node.cfg;
    let analysis = TaintFlow { env: &env };
    let facts = dataflow::solve(cfg, &analysis);
    for (id, node) in cfg.nodes.iter().enumerate() {
        let Some(fact_in) = facts.get(id).and_then(|f| f.as_ref()) else {
            continue;
        };
        dataflow::replay(&analysis, &node.steps, fact_in, &mut |step, fact| {
            if let Some(e) = cost::step_expr(step) {
                scan_sinks(e, fact, &env, file, findings);
            }
        });
    }
}

/// Flow-insensitive facts about one fn: which names are hash containers,
/// which are BTree containers, which the fn returns.
struct Env<'a> {
    hash_names: BTreeSet<Place<'a>>,
    btree_names: BTreeSet<&'a str>,
    returned: BTreeSet<&'a str>,
}

impl<'a> Env<'a> {
    fn collect(
        file: &AnalyzedFile<'a>,
        body: &'a [Stmt<'a>],
        params: &'a [crate::parser::Param<'a>],
    ) -> Env<'a> {
        let mut hash_names = BTreeSet::new();
        let mut btree_names = BTreeSet::new();
        for p in params {
            if ty_mentions(&p.ty, &["HashMap", "HashSet"]) {
                hash_names.insert(Place::Borrowed(p.name));
            }
            if ty_mentions(&p.ty, &["BTreeMap", "BTreeSet"]) {
                btree_names.insert(p.name);
            }
        }
        // `self.<field>` for hash-typed struct fields anywhere in the
        // file (over-approximates across impls in one file; harmless).
        collect_hash_fields(&file.parsed.items, &mut hash_names);
        for_each_let(body, &mut |pat, ty, init| {
            let Pat::Ident { name, .. } = pat else {
                return;
            };
            if ty_mentions(ty, &["HashMap", "HashSet"]) || init.is_some_and(is_hash_producer) {
                hash_names.insert(Place::Borrowed(name));
            }
            if ty_mentions(ty, &["BTreeMap", "BTreeSet"]) || init.is_some_and(is_btree_producer) {
                btree_names.insert(name);
            }
        });
        hash_names.retain(|n| !btree_names.contains(n.as_ref()));
        let mut returned = BTreeSet::new();
        collect_returned(body, &mut returned);
        Env {
            hash_names,
            btree_names,
            returned,
        }
    }
}

fn ty_mentions(ty: &[&str], names: &[&str]) -> bool {
    ty.iter().any(|t| names.contains(t))
}

fn collect_hash_fields(items: &[crate::parser::Item<'_>], out: &mut BTreeSet<Place<'_>>) {
    for item in items {
        if let ItemKind::Struct { fields } = &item.kind {
            for f in fields {
                if f.is_hash {
                    out.insert(Place::Owned(format!("self.{}", f.name)));
                }
            }
        }
        collect_hash_fields(&item.children, out);
    }
}

/// `HashMap::new()` / `HashSet::with_capacity(..)` / `collect::<HashMap..>()`.
fn is_hash_producer(e: &Expr<'_>) -> bool {
    constructor_of(e, &["HashMap", "HashSet"])
}

fn is_btree_producer(e: &Expr<'_>) -> bool {
    constructor_of(e, &["BTreeMap", "BTreeSet"])
}

fn constructor_of(e: &Expr<'_>, tys: &[&str]) -> bool {
    match &e.kind {
        ExprKind::Call { callee, .. } => callee
            .plain_path()
            .is_some_and(|segs| segs.iter().any(|s| tys.contains(s))),
        ExprKind::MethodCall {
            name, turbofish, ..
        } if *name == "collect" => turbofish.iter().any(|t| tys.contains(t)),
        _ => false,
    }
}

/// Names the fn hands back: the tail expression, `return n`, and the
/// payload of `Ok(n)` / `Some(n)` in either position.
fn collect_returned<'a>(body: &'a [Stmt<'a>], out: &mut BTreeSet<&'a str>) {
    if let Some(Stmt::Expr { expr, semi: false }) = body.last() {
        returned_name(expr, out);
    }
    for_each_expr(body, &mut |e| {
        if let ExprKind::Return(Some(val)) = &e.kind {
            returned_name(val, out);
        }
    });
}

fn returned_name<'a>(e: &Expr<'a>, out: &mut BTreeSet<&'a str>) {
    match &e.kind {
        ExprKind::Path(segs) => {
            if let [single] = *segs.as_slice() {
                out.insert(single);
            }
        }
        ExprKind::Call { callee, args } => {
            let wrapper = callee
                .plain_path()
                .is_some_and(|p| matches!(p.last().copied(), Some("Ok" | "Some")));
            if wrapper {
                if let [arg] = args.as_slice() {
                    returned_name(arg, out);
                }
            }
        }
        _ => {}
    }
}

/// The taint lattice: the set of tainted names, union join.
struct TaintFlow<'e, 'a> {
    env: &'e Env<'a>,
}

impl<'a> Analysis<'a> for TaintFlow<'_, 'a> {
    type Fact = BTreeSet<Place<'a>>;

    fn boundary(&self) -> Self::Fact {
        BTreeSet::new()
    }

    fn join(&self, acc: &mut Self::Fact, other: &Self::Fact) {
        acc.extend(other.iter().cloned());
    }

    fn step(&self, step: &Step<'a>, fact: &mut Self::Fact) {
        match step {
            Step::Bind { pat, ty, init, .. } => {
                // A `BTreeSet`/`BTreeMap` annotation orders the collected
                // value even without a `collect::<BTree..>` turbofish.
                let ordered = ty_mentions(ty, &["BTreeMap", "BTreeSet"]);
                let tainted = !ordered && init.is_some_and(|e| expr_tainted(e, fact, self.env));
                rebind(pat, tainted, fact);
            }
            Step::PatBind { pat, from } => {
                let tainted = iter_tainted(from, fact, self.env);
                rebind(pat, tainted, fact);
            }
            Step::ForHead { pat, iter } => {
                let tainted = iter_tainted(iter, fact, self.env);
                rebind(pat, tainted, fact);
            }
            Step::Eval(e) | Step::Cond(e) => apply_sanitizers(e, fact),
        }
    }
}

fn rebind<'a>(pat: &Pat<'a>, tainted: bool, fact: &mut BTreeSet<Place<'a>>) {
    let mut names = Vec::new();
    pat.bound_names(&mut names);
    for n in names {
        if tainted {
            fact.insert(Place::Borrowed(n));
        } else {
            fact.remove(n);
        }
    }
}

/// `v.sort()` / `v.sort_unstable_by(..)` as a statement cleanses `v`.
fn apply_sanitizers(e: &Expr<'_>, fact: &mut BTreeSet<Place<'_>>) {
    if let ExprKind::MethodCall { recv, name, .. } = &e.kind {
        if name.starts_with("sort") {
            if let Some(place) = recv.dotted_place() {
                fact.remove(place.as_ref());
            }
        }
    }
    for_each_child(e, &mut |c| {
        if !c.is_control() {
            apply_sanitizers(c, fact);
        }
    });
}

/// Is this expression's value hash-order dependent?
fn expr_tainted(e: &Expr<'_>, fact: &BTreeSet<Place<'_>>, env: &Env<'_>) -> bool {
    if hash_iteration_chain(e, env) {
        return true;
    }
    if sanitized_chain(e) {
        return false;
    }
    let mut found = false;
    mentions_tainted(e, fact, &mut found);
    found
}

/// Like [`expr_tainted`], but in *iteration position* (a `for` head or
/// `while let` scrutinee), where naming a hash container directly —
/// `for k in &set` — is itself hash-order iteration.
fn iter_tainted(e: &Expr<'_>, fact: &BTreeSet<Place<'_>>, env: &Env<'_>) -> bool {
    let mut root = e;
    while let ExprKind::Ref { operand, .. } = &root.kind {
        root = operand;
    }
    if root
        .dotted_place()
        .is_some_and(|p| env.hash_names.contains(p.as_ref()))
    {
        return true;
    }
    expr_tainted(e, fact, env)
}

fn mentions_tainted(e: &Expr<'_>, fact: &BTreeSet<Place<'_>>, found: &mut bool) {
    if *found {
        return;
    }
    if let Some(place) = e.dotted_place() {
        if fact.contains(place.as_ref())
            || place
                .split('.')
                .next()
                .is_some_and(|root| fact.contains(root))
        {
            *found = true;
            return;
        }
    }
    for_each_child(e, &mut |c| {
        if !c.is_control() {
            mentions_tainted(c, fact, found);
        }
    });
}

/// A method chain rooted at a hash container that applies an iteration
/// method, with no re-ordering `collect::<BTree..>` step.
fn hash_iteration_chain(e: &Expr<'_>, env: &Env<'_>) -> bool {
    let mut cur = e;
    let mut saw_iter = false;
    loop {
        match &cur.kind {
            ExprKind::MethodCall {
                recv,
                name,
                turbofish,
                ..
            } => {
                if *name == "collect"
                    && turbofish
                        .iter()
                        .any(|&t| t == "BTreeMap" || t == "BTreeSet")
                {
                    return false;
                }
                if matches!(
                    *name,
                    "iter" | "iter_mut" | "into_iter" | "keys" | "values" | "values_mut" | "drain"
                ) {
                    saw_iter = true;
                }
                cur = recv;
            }
            ExprKind::Ref { operand, .. } | ExprKind::Try { operand } => cur = operand,
            _ => break,
        }
    }
    saw_iter
        && cur
            .dotted_place()
            .is_some_and(|p| env.hash_names.contains(p.as_ref()))
}

/// A chain that ends in an explicit re-ordering step.
fn sanitized_chain(e: &Expr<'_>) -> bool {
    if let ExprKind::MethodCall {
        name, turbofish, ..
    } = &e.kind
    {
        if *name == "collect"
            && turbofish
                .iter()
                .any(|&t| t == "BTreeMap" || t == "BTreeSet")
        {
            return true;
        }
    }
    false
}

/// Output-sink macros: their arguments become user-visible bytes.
const SINK_MACROS: &[&str] = &[
    "write", "writeln", "print", "println", "eprint", "eprintln", "format",
];

/// Detect tainted values reaching sinks in one step's expression tree.
fn scan_sinks(
    e: &Expr<'_>,
    fact: &BTreeSet<Place<'_>>,
    env: &Env<'_>,
    file: &AnalyzedFile<'_>,
    findings: &mut Vec<Finding>,
) {
    match &e.kind {
        ExprKind::MacroCall {
            path,
            args,
            captures,
        } => {
            let last = path.last().copied().unwrap_or("");
            if SINK_MACROS.contains(&last) {
                let arg_hit = args.iter().any(|a| expr_tainted(a, fact, env));
                let cap_hit = captures.iter().copied().find(|&c| fact.contains(c));
                if arg_hit || cap_hit.is_some() {
                    push_sink(e, format!("`{last}!`"), cap_hit, fact, file, findings);
                }
            }
        }
        ExprKind::Call { callee, args } => {
            let serde = callee.plain_path().is_some_and(|p| {
                p.first().copied() == Some("serde_json")
                    && matches!(
                        p.last().copied(),
                        Some("to_string" | "to_vec" | "to_writer" | "to_value")
                    )
            });
            if serde && args.iter().any(|a| expr_tainted(a, fact, env)) {
                push_sink(
                    e,
                    "serde serialization".to_string(),
                    None,
                    fact,
                    file,
                    findings,
                );
            }
        }
        ExprKind::MethodCall {
            recv, name, args, ..
        } => {
            if *name == "serialize" && args.iter().any(|a| expr_tainted(a, fact, env)) {
                push_sink(
                    e,
                    "`.serialize(..)`".to_string(),
                    None,
                    fact,
                    file,
                    findings,
                );
            }
            if matches!(*name, "push" | "insert" | "extend") {
                if let Some(r) = recv.dotted_place() {
                    if env.returned.contains(r.as_ref())
                        && !env.btree_names.contains(r.as_ref())
                        && args.iter().any(|a| expr_tainted(a, fact, env))
                    {
                        push_sink(
                            e,
                            format!("returned collection `{r}`"),
                            None,
                            fact,
                            file,
                            findings,
                        );
                    }
                }
            }
        }
        _ => {}
    }
    for_each_child(e, &mut |c| {
        if !c.is_control() {
            scan_sinks(c, fact, env, file, findings);
        }
    });
}

fn push_sink(
    e: &Expr<'_>,
    sink: String,
    capture: Option<&str>,
    fact: &BTreeSet<Place<'_>>,
    file: &AnalyzedFile<'_>,
    findings: &mut Vec<Finding>,
) {
    let what = capture
        .or_else(|| fact.iter().next().map(AsRef::as_ref))
        .unwrap_or("value");
    findings.push(Finding::at(
        "D3",
        Severity::Deny,
        file.parsed.rel_path,
        e.line,
        e.col,
        format!(
            "hash-order-dependent value `{what}` reaches output sink {sink}; \
             sort it or collect into a BTree first (iteration order of \
             HashMap/HashSet varies per process)"
        ),
        file.snippet(e.line),
    ));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn findings(src: &str) -> Vec<Finding> {
        let files = vec![("crates/x/src/lib.rs".to_string(), src.to_string())];
        let ws = Workspace::build(&files);
        let graph = CallGraph::build(&ws);
        check_taint(&ws, &graph)
    }

    #[test]
    fn keys_through_binding_to_writeln_fires() {
        let f = findings(
            "use std::collections::HashMap;\n\
             pub fn dump(map: &HashMap<String, u32>) -> String {\n\
                 let mut out = String::new();\n\
                 let names: Vec<&String> = map.keys().collect();\n\
                 for n in names {\n\
                     writeln!(out, \"{n}\").ok();\n\
                 }\n\
                 out\n\
             }\n",
        );
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "D3");
        assert!(f[0].message.contains("writeln"), "{}", f[0].message);
    }

    #[test]
    fn sorted_binding_is_clean() {
        let f = findings(
            "use std::collections::HashMap;\n\
             pub fn dump(map: &HashMap<String, u32>) -> String {\n\
                 let mut out = String::new();\n\
                 let mut names: Vec<&String> = map.keys().collect();\n\
                 names.sort();\n\
                 for n in names {\n\
                     writeln!(out, \"{n}\").ok();\n\
                 }\n\
                 out\n\
             }\n",
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn btree_collect_is_clean() {
        let f = findings(
            "use std::collections::{BTreeSet, HashMap};\n\
             pub fn dump(map: &HashMap<String, u32>) -> String {\n\
                 let mut out = String::new();\n\
                 let names: BTreeSet<&String> = map.keys().collect::<BTreeSet<_>>();\n\
                 for n in names {\n\
                     writeln!(out, \"{n}\").ok();\n\
                 }\n\
                 out\n\
             }\n",
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn direct_hash_for_loop_into_returned_vec_fires() {
        let f = findings(
            "use std::collections::HashSet;\n\
             pub fn collect_ids(seen: &HashSet<u32>) -> Vec<u32> {\n\
                 let mut out = Vec::new();\n\
                 for id in seen {\n\
                     out.push(*id);\n\
                 }\n\
                 out\n\
             }\n",
        );
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(
            f[0].message.contains("returned collection `out`"),
            "{}",
            f[0].message
        );
    }

    #[test]
    fn hash_field_iteration_to_format_fires() {
        let f = findings(
            "use std::collections::HashMap;\n\
             pub struct Index { counts: HashMap<String, u32> }\n\
             impl Index {\n\
                 pub fn render(&self) -> String {\n\
                     let pairs: Vec<_> = self.counts.iter().collect();\n\
                     format!(\"{:?}\", pairs)\n\
                 }\n\
             }\n",
        );
        assert_eq!(f.len(), 1, "{f:?}");
    }

    #[test]
    fn btree_iteration_is_never_tainted() {
        let f = findings(
            "use std::collections::BTreeMap;\n\
             pub fn dump(map: &BTreeMap<String, u32>) -> String {\n\
                 let mut out = String::new();\n\
                 for (k, v) in map.iter() {\n\
                     writeln!(out, \"{k} {v}\").ok();\n\
                 }\n\
                 out\n\
             }\n",
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn aggregate_without_sink_is_clean() {
        let f = findings(
            "use std::collections::HashMap;\n\
             pub fn total(map: &HashMap<String, u32>) -> u32 {\n\
                 let mut sum = 0;\n\
                 for v in map.values() {\n\
                     sum += v;\n\
                 }\n\
                 sum\n\
             }\n",
        );
        assert!(f.is_empty(), "{f:?}");
    }
}
