//! `X1`: interprocedural panic-reachability for public API surface.
//!
//! A library fn that can panic turns a recoverable pipeline error into an
//! abort — and a *transitively* reachable panic is invisible at the call
//! site. This pass finds per-fn **panic seeds**, propagates reachability
//! backward over the import-aware [`crate::callgraph`], and flags every
//! `pub` fn of library code from which a seed is reachable, with a
//! witness call path.
//!
//! Seeds, per fn body:
//!
//! - `xs[i]` — indexing a plain place by a plain (possibly `as`-cast)
//!   variable, unless a dominating bounds fact proves `i < xs.len()`;
//! - integer `/` or `%` whose divisor is not proved nonzero (a nonzero
//!   literal or a `.max(<nonzero literal>)` chain); float arithmetic is
//!   exempt, recognized syntactically — casts, float literals,
//!   `sum::<f64>()` turbofish, float math methods, and a per-fn
//!   environment of float-typed params and `let` bindings;
//! - `.unwrap()` / `.expect(..)`;
//! - `panic!` / `unreachable!` / `todo!` / `unimplemented!`.
//!
//! The bounds facts come from a *must*-dataflow over the fn's CFG
//! (intersection join — a fact holds only if every path establishes it):
//! the `True` edge of `i < xs.len()` (or the `False` edge of its
//! negation) proves the pair, `for i in 0..xs.len()` and
//! `for (i, _) in xs.iter().enumerate()` prove it for the loop body, and
//! `let n = xs.len()` makes `i < n` count. Any write to `i`, rebinding,
//! `&mut xs`, or a length-changing method on `xs` kills the fact.
//!
//! Approximation notes. **Over**: a diverging guard (`if i >= xs.len()
//! {{ return; }}` without else) is understood (the `False` edge carries
//! the fact), but arithmetic index forms (`xs[i + 1]`), `i <= n - 1`
//! comparisons, and assert!-style guards are not — rewrite to a
//! recognized guard or `.get()`. Calls whose resolution is unknown are
//! assumed *non*-panicking, so **under**: a panic behind a trait object
//! or foreign callback is missed. Literal indices, range slicing, and
//! call-result indexing are out of scope (mostly shape-guaranteed;
//! flagging them would be all noise).

use crate::callgraph::CallGraph;
use crate::cfg::{Cfg, Edge, Step};
use crate::dataflow::{self, Analysis};
use crate::expr::{for_each_child, for_each_let, Expr, ExprKind, Pat, Stmt};
use crate::findings::{Finding, Severity};
use crate::graph::Workspace;
use crate::parser::Param;
use std::borrow::Cow;
use std::collections::BTreeSet;

/// Run the `X1` pass over an analyzed workspace and its call graph.
pub fn check_panic_reach(ws: &Workspace<'_>, graph: &CallGraph<'_>) -> Vec<Finding> {
    let seeds: Vec<Option<Seed>> = graph
        .fns
        .iter()
        .map(|f| local_seed(&f.cfg, &f.info.body, &f.info.params))
        .collect();
    let reach = propagate(graph, &seeds);
    let mut findings = Vec::new();
    for (id, node) in graph.fns.iter().enumerate() {
        if !node.is_pub {
            continue;
        }
        let Some(r) = reach.get(id).and_then(|r| r.as_ref()) else {
            continue;
        };
        let Some(file) = ws.files.get(node.file) else {
            continue;
        };
        findings.push(Finding::at(
            "X1",
            Severity::Deny,
            file.parsed.rel_path,
            node.line,
            node.col,
            describe(graph, ws, id, r, &reach),
            file.snippet(node.line),
        ));
    }
    findings
}

/// A local panic seed inside one fn body.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
struct Seed {
    /// 1-based line of the seed expression.
    line: u32,
    /// 1-based column of the seed expression.
    col: u32,
    /// Human description of why this can panic.
    desc: String,
}

/// How a fn reaches a panic: its own seed, or a call into a fn that does.
#[derive(Debug, Clone)]
enum Reach {
    Local(Seed),
    Via { callee: usize },
}

/// Backward reachability over the call graph (BFS from seeded fns, in id
/// order — deterministic witness edges).
fn propagate(graph: &CallGraph<'_>, seeds: &[Option<Seed>]) -> Vec<Option<Reach>> {
    let n = graph.fns.len();
    let mut rev: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (caller, edges) in graph.edges.iter().enumerate() {
        for e in edges {
            if let Some(v) = rev.get_mut(e.to) {
                v.push(caller);
            }
        }
    }
    let mut reach: Vec<Option<Reach>> = seeds.iter().map(|s| s.clone().map(Reach::Local)).collect();
    let mut queue: Vec<usize> = reach
        .iter()
        .enumerate()
        .filter_map(|(i, r)| r.is_some().then_some(i))
        .collect();
    let mut head = 0usize;
    while let Some(cur) = queue.get(head).copied() {
        head += 1;
        let callers = rev.get(cur).cloned().unwrap_or_default();
        for caller in callers {
            if let Some(slot) = reach.get_mut(caller) {
                if slot.is_none() {
                    *slot = Some(Reach::Via { callee: cur });
                    queue.push(caller);
                }
            }
        }
    }
    reach
}

/// Render the finding message: witness call path plus the seed.
fn describe(
    graph: &CallGraph<'_>,
    ws: &Workspace<'_>,
    start: usize,
    r: &Reach,
    reach: &[Option<Reach>],
) -> String {
    let mut path: Vec<&str> = Vec::new();
    if let Some(f) = graph.fns.get(start) {
        path.push(f.name);
    }
    let mut cur = r.clone();
    let mut at = start;
    let mut hops = 0usize;
    let seed = loop {
        match cur {
            Reach::Local(s) => break Some(s),
            Reach::Via { callee, .. } => {
                hops += 1;
                if hops > 8 {
                    break None;
                }
                if let Some(f) = graph.fns.get(callee) {
                    path.push(f.name);
                }
                at = callee;
                match reach.get(callee).and_then(|r| r.clone()) {
                    Some(next) => cur = next,
                    None => break None,
                }
            }
        }
    };
    let seed_file = graph
        .fns
        .get(at)
        .and_then(|f| ws.files.get(f.file))
        .map(|f| f.parsed.rel_path)
        .unwrap_or("?");
    match seed {
        Some(s) => {
            if path.len() > 1 {
                format!(
                    "pub fn `{}` can reach a panic (call path {}): {} at {}:{}",
                    path.first().copied().unwrap_or("?"),
                    path.join(" -> "),
                    s.desc,
                    seed_file,
                    s.line,
                )
            } else {
                format!(
                    "pub fn `{}` can panic: {} at line {}",
                    path.first().copied().unwrap_or("?"),
                    s.desc,
                    s.line,
                )
            }
        }
        None => format!(
            "pub fn `{}` can reach a panic through a call chain deeper than 8 \
             (path starts {})",
            path.first().copied().unwrap_or("?"),
            path.join(" -> "),
        ),
    }
}

/// Find the earliest (line, col) panic seed in a fn body, with bounds
/// proofs applied.
fn local_seed<'a>(cfg: &Cfg<'a>, body: &'a [Stmt<'a>], params: &'a [Param<'a>]) -> Option<Seed> {
    let env = NameEnv::collect(body, params);
    let facts = dataflow::solve(cfg, &Bounds);
    let mut seeds: Vec<Seed> = Vec::new();
    for (id, node) in cfg.nodes.iter().enumerate() {
        let Some(fact_in) = facts.get(id).and_then(|f| f.as_ref()) else {
            continue;
        };
        dataflow::replay(&Bounds, &node.steps, fact_in, &mut |step, fact| {
            match step {
                Step::Eval(e) | Step::Cond(e) => scan_expr(e, fact, &env, &mut seeds),
                Step::Bind { init: Some(e), .. } => scan_expr(e, fact, &env, &mut seeds),
                Step::ForHead { iter, .. } => scan_expr(iter, fact, &env, &mut seeds),
                // PatBind's `from` is the already-scanned scrutinee Eval.
                Step::Bind { init: None, .. } | Step::PatBind { .. } => {}
            }
        });
    }
    seeds.into_iter().min()
}

/// Per-fn name facts for the division seed, collected flow-insensitively
/// over `let` bindings in source order (a later shadow with a different
/// shape drops the name again): `floats` are float-typed names whose
/// division yields inf/NaN rather than panicking; `nonzero` are names
/// bound to a shape-proved nonzero value (`let n = xs.count().max(1)`).
/// A plain `name = expr` re-assignment does *not* drop a name — an
/// accepted over-approximation, noted in the module docs.
struct NameEnv<'a> {
    floats: BTreeSet<&'a str>,
    nonzero: BTreeSet<&'a str>,
}

impl<'a> NameEnv<'a> {
    fn collect(body: &'a [Stmt<'a>], params: &'a [Param<'a>]) -> NameEnv<'a> {
        let mut env = NameEnv {
            floats: params
                .iter()
                .filter(|p| is_float_ty(&p.ty))
                .map(|p| p.name)
                .collect(),
            nonzero: BTreeSet::new(),
        };
        for_each_let(body, &mut |pat, ty, init| {
            if let Pat::Ident { name, .. } = pat {
                let is_float =
                    is_float_ty(ty) || init.is_some_and(|e| is_float_operand(e, &env.floats));
                if is_float {
                    env.floats.insert(name);
                } else {
                    env.floats.remove(name);
                }
                if init.is_some_and(divisor_is_nonzero_literal) {
                    env.nonzero.insert(name);
                } else {
                    env.nonzero.remove(name);
                }
            }
        });
        env
    }
}

/// A declared type that is exactly a (possibly referenced) float scalar.
/// Deliberately *not* "mentions f64": `&[f64]` is a slice, and indexing
/// or `.len()` arithmetic on it is integer work.
fn is_float_ty(ty: &[&str]) -> bool {
    !ty.is_empty()
        && ty.iter().all(|t| matches!(*t, "&" | "mut" | "f64" | "f32"))
        && ty.iter().any(|&t| t == "f64" || t == "f32")
}

/// Scan one expression tree for seeds, skipping control-flow children
/// (they are separate CFG steps).
fn scan_expr(e: &Expr<'_>, fact: &BoundsFact<'_>, env: &NameEnv<'_>, out: &mut Vec<Seed>) {
    match &e.kind {
        // Short-circuit: the rhs of `a && b` only evaluates with `a`
        // known true (dually `||`/false), so scan it under those facts —
        // `i < xs.len() && xs[i] == 0` is proved inside the condition
        // itself, not just on its True edge.
        ExprKind::Binary { op, lhs, rhs } if *op == "&&" || *op == "||" => {
            scan_expr(lhs, fact, env, out);
            let mut rhs_fact = fact.clone();
            gen_cond(lhs, *op == "&&", &mut rhs_fact);
            scan_expr(rhs, &rhs_fact, env, out);
            return;
        }
        ExprKind::Index { base, index } => {
            if let (Some(b), Some(i)) = (base.dotted_place(), ident_name(index)) {
                if !fact.pairs.contains(&(i, b.clone())) {
                    out.push(Seed {
                        line: e.line,
                        col: e.col,
                        desc: format!(
                            "possibly out-of-bounds `{b}[{i}]` \
                             (no dominating `{i} < {b}.len()` on every path)"
                        ),
                    });
                }
            }
        }
        // Float division yields inf/NaN, it never panics; only integer
        // division with a possibly-zero divisor seeds.
        ExprKind::Binary { op, lhs, rhs }
            if (*op == "/" || *op == "%")
                && !divisor_is_nonzero_literal(rhs)
                && !matches!(ident_name(rhs), Some(n) if env.nonzero.contains(n))
                && !is_float_operand(lhs, &env.floats)
                && !is_float_operand(rhs, &env.floats) =>
        {
            out.push(Seed {
                line: e.line,
                col: e.col,
                desc: format!("`{op}` with a possibly-zero integer divisor"),
            });
        }
        ExprKind::MethodCall { name, .. } if *name == "unwrap" || *name == "expect" => {
            out.push(Seed {
                line: e.line,
                col: e.col,
                desc: format!("`.{name}()` panics on the None/Err case"),
            });
        }
        ExprKind::MacroCall { path, .. } => {
            let last = path.last().copied().unwrap_or("");
            if matches!(last, "panic" | "unreachable" | "todo" | "unimplemented") {
                out.push(Seed {
                    line: e.line,
                    col: e.col,
                    desc: format!("explicit `{last}!`"),
                });
            }
        }
        _ => {}
    }
    for_each_child(e, &mut |c| {
        if !c.is_control() {
            scan_expr(c, fact, env, out);
        }
    });
}

/// Syntactically float: an `as f64`/`as f32` cast, a float literal, a
/// name from the fn's float environment, a `sum::<f64>()`-style
/// turbofish, float-only math methods, `max`/`min`/`clamp` with a float
/// argument — or an arithmetic/negated/method-chained form thereof.
fn is_float_operand(e: &Expr<'_>, floats: &BTreeSet<&str>) -> bool {
    match &e.kind {
        ExprKind::Cast { ty, .. } => is_float_ty(ty),
        ExprKind::Lit(text) => is_float_literal(text),
        ExprKind::Path(segs) => matches!(segs.as_slice(), [one] if floats.contains(one)),
        ExprKind::Unary { operand, .. } => is_float_operand(operand, floats),
        ExprKind::Binary { op, lhs, rhs } if matches!(*op, "+" | "-" | "*" | "/") => {
            is_float_operand(lhs, floats) || is_float_operand(rhs, floats)
        }
        ExprKind::MethodCall {
            recv,
            name,
            turbofish,
            args,
        } => {
            // Float math chains: `(..).sqrt()`, `x.max(0.0)`,
            // `iter.sum::<f64>()`, ...
            matches!(
                *name,
                "sqrt" | "ln" | "log2" | "log10" | "exp" | "powi" | "powf"
            ) || turbofish.iter().any(|&t| t == "f64" || t == "f32")
                || (matches!(
                    *name,
                    "max" | "min" | "clamp" | "abs" | "floor" | "ceil" | "round"
                ) && args.iter().any(|a| is_float_operand(a, floats)))
                || is_float_operand(recv, floats)
        }
        _ => false,
    }
}

/// A float literal: digit-led with a decimal point, an `e`/`E` exponent
/// (hex `0x…` excluded), or an explicit `f64`/`f32` suffix.
fn is_float_literal(text: &str) -> bool {
    text.bytes().next().is_some_and(|b| b.is_ascii_digit())
        && !text.starts_with("0x")
        && !text.starts_with("0X")
        && (text.contains('.')
            || text.contains('e')
            || text.contains('E')
            || text.ends_with("f64")
            || text.ends_with("f32"))
}

/// Divisors proved nonzero by shape: a nonzero literal (through casts
/// and negation), or `expr.max(<nonzero positive literal>)`.
fn divisor_is_nonzero_literal(rhs: &Expr<'_>) -> bool {
    match &rhs.kind {
        ExprKind::Lit(text) => !is_zero_literal(text),
        ExprKind::Unary { op: '-', operand } | ExprKind::Cast { operand, .. } => {
            divisor_is_nonzero_literal(operand)
        }
        ExprKind::MethodCall { name, args, .. } if *name == "max" => {
            // `n.max(1)` ≥ 1 regardless of `n` (a negative literal would
            // not prove it, so require a bare nonzero literal).
            matches!(
                args.as_slice(),
                [a] if matches!(&a.kind, ExprKind::Lit(t) if !is_zero_literal(t))
            )
        }
        _ => false,
    }
}

fn is_zero_literal(text: &str) -> bool {
    let digits = text.split(['u', 'i', 'f', '_']).next().unwrap_or("");
    !digits.is_empty() && digits.chars().all(|c| c == '0' || c == '.')
}

/// A plain single-identifier index, with `as`-casts stripped.
fn ident_name<'a>(e: &Expr<'a>) -> Option<&'a str> {
    match &e.kind {
        ExprKind::Path(segs) => match *segs.as_slice() {
            [single] => Some(single),
            _ => None,
        },
        ExprKind::Cast { operand, .. } => ident_name(operand),
        _ => None,
    }
}

/// The base of an `xs.len()` call, as a dotted place name.
fn len_call_base<'a>(e: &Expr<'a>) -> Option<Cow<'a, str>> {
    if let ExprKind::MethodCall {
        recv, name, args, ..
    } = &e.kind
    {
        if *name == "len" && args.is_empty() {
            return recv.dotted_place();
        }
    }
    None
}

/// Must-facts: `pairs` holds `(i, xs)` meaning `i < xs.len()`; `aliases`
/// holds `(n, xs)` meaning `n == xs.len()`. Index names borrow the
/// source; a place is borrowed too unless it is a dotted path.
#[derive(Debug, Clone, PartialEq, Default)]
struct BoundsFact<'a> {
    pairs: BTreeSet<(&'a str, Cow<'a, str>)>,
    aliases: BTreeSet<(&'a str, Cow<'a, str>)>,
}

impl BoundsFact<'_> {
    /// Drop every fact mentioning `name` on either side.
    fn kill_name(&mut self, name: &str) {
        self.pairs.retain(|(i, b)| *i != name && b != name);
        self.aliases.retain(|(n, b)| *n != name && b != name);
    }

    /// Drop every fact about the place `base` (its length may change).
    fn kill_base(&mut self, base: &str) {
        self.pairs.retain(|(_, b)| b != base);
        self.aliases.retain(|(_, b)| b != base);
    }
}

/// Methods that can change a container's length.
const LEN_MUTATORS: &[&str] = &[
    "push",
    "pop",
    "insert",
    "remove",
    "clear",
    "truncate",
    "resize",
    "extend",
    "append",
    "drain",
    "retain",
    "dedup",
    "split_off",
    "swap_remove",
    "take",
];

struct Bounds;

impl<'a> Analysis<'a> for Bounds {
    type Fact = BoundsFact<'a>;

    fn boundary(&self) -> BoundsFact<'a> {
        BoundsFact::default()
    }

    fn join(&self, acc: &mut BoundsFact<'a>, other: &BoundsFact<'a>) {
        acc.pairs.retain(|p| other.pairs.contains(p));
        acc.aliases.retain(|p| other.aliases.contains(p));
    }

    fn step(&self, step: &Step<'a>, fact: &mut BoundsFact<'a>) {
        match step {
            Step::Eval(e) | Step::Cond(e) => kill_effects(e, fact),
            Step::Bind { pat, init, .. } => {
                if let Some(init) = init {
                    kill_effects(init, fact);
                }
                let mut names = Vec::new();
                pat.bound_names(&mut names);
                for n in names {
                    fact.kill_name(n);
                }
                if let (Pat::Ident { name, .. }, Some(init)) = (pat, init) {
                    if let Some(base) = len_call_base(init) {
                        fact.aliases.insert((name, base));
                    }
                }
            }
            Step::PatBind { pat, .. } => {
                let mut names = Vec::new();
                pat.bound_names(&mut names);
                for n in &names {
                    fact.kill_name(n);
                }
            }
            Step::ForHead { pat, iter } => {
                kill_effects(iter, fact);
                let mut names = Vec::new();
                pat.bound_names(&mut names);
                for n in &names {
                    fact.kill_name(n);
                }
            }
        }
    }

    fn edge(&self, branch: Option<&Step<'a>>, label: Edge, fact: &mut BoundsFact<'a>) {
        match branch {
            Some(Step::Cond(e)) => match label {
                Edge::True => gen_cond(e, true, fact),
                Edge::False => gen_cond(e, false, fact),
                Edge::Seq => {}
            },
            Some(Step::ForHead { pat, iter }) if label == Edge::True => {
                gen_for(pat, iter, fact);
            }
            _ => {}
        }
    }
}

/// Learn bounds facts from a condition known `positive` (or known false).
fn gen_cond<'a>(e: &Expr<'a>, positive: bool, fact: &mut BoundsFact<'a>) {
    match &e.kind {
        ExprKind::Unary { op: '!', operand } => gen_cond(operand, !positive, fact),
        ExprKind::Binary { op, lhs, rhs } => match *op {
            "&&" if positive => {
                gen_cond(lhs, true, fact);
                gen_cond(rhs, true, fact);
            }
            "||" if !positive => {
                gen_cond(lhs, false, fact);
                gen_cond(rhs, false, fact);
            }
            "<" if positive => gen_upper_bound(lhs, rhs, fact),
            ">" if positive => gen_upper_bound(rhs, lhs, fact),
            ">=" if !positive => gen_upper_bound(lhs, rhs, fact),
            "<=" if !positive => gen_upper_bound(rhs, lhs, fact),
            _ => {}
        },
        _ => {}
    }
}

/// Record `small < big.len()` when `small` is a plain index and `big` is
/// a `len()` call or a recorded length alias.
fn gen_upper_bound<'a>(small: &Expr<'a>, big: &Expr<'a>, fact: &mut BoundsFact<'a>) {
    let Some(idx) = ident_name(small) else {
        return;
    };
    if let Some(base) = len_call_base(big) {
        fact.pairs.insert((idx, base));
        return;
    }
    if let Some(n) = ident_name(big) {
        let bases: Vec<Cow<'a, str>> = fact
            .aliases
            .iter()
            .filter(|(alias, _)| *alias == n)
            .map(|(_, base)| base.clone())
            .collect();
        for base in bases {
            fact.pairs.insert((idx, base));
        }
    }
}

/// Loop-head proofs: `for i in 0..xs.len()` and
/// `for (i, _) in xs.iter().enumerate()`.
fn gen_for<'a>(pat: &Pat<'a>, iter: &Expr<'a>, fact: &mut BoundsFact<'a>) {
    match (&iter.kind, pat) {
        (
            ExprKind::Range {
                hi: Some(hi),
                inclusive: false,
                ..
            },
            Pat::Ident { name, .. },
        ) => {
            if let Some(base) = len_call_base(hi) {
                fact.pairs.insert((name, base));
            }
        }
        (ExprKind::MethodCall { recv, name, .. }, Pat::Tuple(elems)) if *name == "enumerate" => {
            let Some(Pat::Ident { name: idx, .. }) = elems.first() else {
                return;
            };
            if let ExprKind::MethodCall {
                recv: inner,
                name: m,
                ..
            } = &recv.kind
            {
                if *m == "iter" || *m == "iter_mut" {
                    if let Some(base) = inner.dotted_place() {
                        fact.pairs.insert((idx, base));
                    }
                }
            }
        }
        _ => {}
    }
}

/// Apply an expression's *kill* effects: writes to an index variable,
/// `&mut` on a place, or a length-changing method call. Control-flow
/// children are separate steps and skipped.
fn kill_effects(e: &Expr<'_>, fact: &mut BoundsFact<'_>) {
    match &e.kind {
        ExprKind::Assign { lhs, .. } => {
            if let Some(place) = lhs.dotted_place() {
                fact.kill_name(&place);
            }
        }
        ExprKind::MethodCall { recv, name, .. } if LEN_MUTATORS.contains(name) => {
            if let Some(base) = recv.dotted_place() {
                fact.kill_base(&base);
            }
        }
        ExprKind::Ref {
            mutable: true,
            operand,
        } => {
            if let Some(base) = operand.dotted_place() {
                fact.kill_base(&base);
            }
        }
        _ => {}
    }
    for_each_child(e, &mut |c| {
        if !c.is_control() {
            kill_effects(c, fact);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::callgraph::CallGraph;

    fn findings(files: &[(&str, &str)]) -> Vec<Finding> {
        let owned: Vec<(String, String)> = files
            .iter()
            .map(|(p, s)| (p.to_string(), s.to_string()))
            .collect();
        let ws = Workspace::build(&owned);
        let graph = CallGraph::build(&ws);
        check_panic_reach(&ws, &graph)
    }

    #[test]
    fn unguarded_variable_index_fires() {
        let f = findings(&[(
            "crates/x/src/lib.rs",
            "pub fn get(xs: &[u32], i: usize) -> u32 { xs[i] }\n",
        )]);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("xs[i]"), "{}", f[0].message);
    }

    #[test]
    fn guarded_index_is_clean() {
        let f = findings(&[(
            "crates/x/src/lib.rs",
            "pub fn get(xs: &[u32], i: usize) -> u32 {\n\
             \x20   if i < xs.len() { xs[i] } else { 0 }\n\
             }\n",
        )]);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn diverging_negated_guard_is_clean() {
        let f = findings(&[(
            "crates/x/src/lib.rs",
            "pub fn get(xs: &[u32], i: usize) -> u32 {\n\
             \x20   if i >= xs.len() { return 0; }\n\
             \x20   xs[i]\n\
             }\n",
        )]);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn range_len_loop_is_clean_but_mutation_kills() {
        let clean = findings(&[(
            "crates/x/src/lib.rs",
            "pub fn sum(xs: &[u32]) -> u32 {\n\
             \x20   let mut s = 0;\n\
             \x20   for i in 0..xs.len() { s += xs[i]; }\n\
             \x20   s\n\
             }\n",
        )]);
        assert!(clean.is_empty(), "{clean:?}");
        let dirty = findings(&[(
            "crates/x/src/lib.rs",
            "pub fn sum(xs: &mut Vec<u32>) -> u32 {\n\
             \x20   let mut s = 0;\n\
             \x20   for i in 0..xs.len() { xs.push(0); s += xs[i]; }\n\
             \x20   s\n\
             }\n",
        )]);
        assert_eq!(dirty.len(), 1, "{dirty:?}");
    }

    #[test]
    fn len_alias_guard_is_understood() {
        let f = findings(&[(
            "crates/x/src/lib.rs",
            "pub fn get(xs: &[u32], i: usize) -> u32 {\n\
             \x20   let n = xs.len();\n\
             \x20   if i < n { xs[i] } else { 0 }\n\
             }\n",
        )]);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn panic_propagates_to_pub_caller_with_path() {
        let f = findings(&[(
            "crates/x/src/lib.rs",
            "pub fn outer(v: Option<u32>) -> u32 { inner(v) }\n\
             fn inner(v: Option<u32>) -> u32 { v.unwrap() }\n",
        )]);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("outer -> inner"), "{}", f[0].message);
        assert!(f[0].message.contains("unwrap"), "{}", f[0].message);
    }

    #[test]
    fn private_panicking_fn_alone_is_not_flagged() {
        let f = findings(&[(
            "crates/x/src/lib.rs",
            "fn inner(v: Option<u32>) -> u32 { v.unwrap() }\n",
        )]);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn variable_divisor_fires_literal_is_clean() {
        let dirty = findings(&[(
            "crates/x/src/lib.rs",
            "pub fn avg(total: u64, n: u64) -> u64 { total / n }\n",
        )]);
        assert_eq!(dirty.len(), 1, "{dirty:?}");
        assert!(dirty[0].message.contains('/'), "{}", dirty[0].message);
        let clean = findings(&[(
            "crates/x/src/lib.rs",
            "pub fn half(total: u64) -> u64 { total / 2 }\n",
        )]);
        assert!(clean.is_empty(), "{clean:?}");
    }

    #[test]
    fn enumerate_index_is_proved() {
        let f = findings(&[(
            "crates/x/src/lib.rs",
            "pub fn first_gap(xs: &[u32]) -> usize {\n\
             \x20   for (i, v) in xs.iter().enumerate() {\n\
             \x20       if *v == 0 { return xs[i] as usize; }\n\
             \x20   }\n\
             \x20   0\n\
             }\n",
        )]);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn explicit_panic_macros_seed() {
        let f = findings(&[(
            "crates/x/src/lib.rs",
            "pub fn f(x: u32) -> u32 { if x > 9 { unreachable!() } else { x } }\n",
        )]);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("unreachable"), "{}", f[0].message);
    }
}
