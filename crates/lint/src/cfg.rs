//! Per-fn control-flow graphs over the [`crate::expr`] AST.
//!
//! Each fn body lowers into basic blocks of [`Step`]s connected by
//! [`Edge`]s: straight-line statements accumulate in one node, and every
//! control construct (`if`/`if let`, `while`/`while let`, `for`, `loop`,
//! `match`, `return`/`break`/`continue`, `let .. else`) splits the graph
//! with labeled `True`/`False` branch edges so a dataflow pass
//! ([`crate::dataflow`]) can apply *edge transfer functions* — the `X1`
//! bounds analysis learns `i < xs.len()` exactly on the `True` edge out
//! of that comparison.
//!
//! Control-flow expressions nested inside larger expressions (a `match`
//! in a `let` initializer, an `if` inside a call argument) are *hoisted*:
//! lowered as diamonds immediately before the step that consumes their
//! value. Rule walkers therefore never descend into control-flow
//! subexpressions (see [`crate::expr::Expr::is_control`]) — each one is
//! already represented structurally in the graph.
//!
//! Documented approximations: closure bodies are lowered inline at the
//! closure's creation point (as if called exactly once, immediately);
//! the `?` operator's early-return path is not modeled; a failed guard
//! edge goes to the match join rather than the next arm. All three only
//! ever *merge more paths* than really execute, which is the
//! conservative direction for both must- and may-analyses.
//!
//! Invariants (proptested in `tests/cfg_props.rs`): node 0 is the unique
//! entry and never the target of an edge; every node is reachable from
//! the entry; every statement of the body is covered by at least one
//! step.

use crate::expr::{for_each_child, Expr, ExprKind, Pat, Stmt};

/// One atomic unit of work inside a CFG node.
#[derive(Debug, Clone, Copy)]
pub enum Step<'a> {
    /// Evaluate an expression for effect or value.
    Eval(&'a Expr<'a>),
    /// `let pat: ty = init;` — bind (or rebind) the pattern's names.
    Bind {
        /// Bound pattern.
        pat: &'a Pat<'a>,
        /// Declared type tokens (empty when inferred).
        ty: &'a [&'a str],
        /// Initializer, when present (already hoisted if control flow).
        init: Option<&'a Expr<'a>>,
        /// 1-based line of the `let`.
        line: u32,
        /// 1-based column of the `let`.
        col: u32,
    },
    /// Pattern bind from a scrutinee (`if let` / `while let` / match arm).
    PatBind {
        /// Bound pattern.
        pat: &'a Pat<'a>,
        /// The matched value.
        from: &'a Expr<'a>,
    },
    /// A branch condition; the node's outgoing `True`/`False` edges
    /// refine facts against it.
    Cond(&'a Expr<'a>),
    /// A `for` loop head; `True` edges enter the body with `pat` bound
    /// from `iter`'s items, `False` edges leave the loop.
    ForHead {
        /// Loop binding.
        pat: &'a Pat<'a>,
        /// Iterated expression (evaluated before the loop).
        iter: &'a Expr<'a>,
    },
}

impl<'a> Step<'a> {
    /// Source position of the step (1-based line, column).
    pub fn pos(&self) -> (u32, u32) {
        match self {
            Step::Eval(e) | Step::Cond(e) => (e.line, e.col),
            Step::Bind { line, col, .. } => (*line, *col),
            Step::PatBind { from, .. } => (from.line, from.col),
            Step::ForHead { iter, .. } => (iter.line, iter.col),
        }
    }
}

/// Edge labels: `Seq` for unconditional flow, `True`/`False` for the two
/// sides of a branch node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Edge {
    /// Unconditional successor.
    Seq,
    /// Branch taken (condition held / pattern matched / iterator yielded).
    True,
    /// Branch not taken.
    False,
}

/// One basic block.
#[derive(Debug, Default)]
pub struct Node<'a> {
    /// Steps executed in order.
    pub steps: Vec<Step<'a>>,
    /// Successor edges `(target node id, label)`.
    pub succs: Vec<(usize, Edge)>,
}

/// A per-fn control-flow graph. Node 0 is the entry; `exit` collects all
/// normal and early returns.
#[derive(Debug)]
pub struct Cfg<'a> {
    /// Basic blocks; index = node id.
    pub nodes: Vec<Node<'a>>,
    /// Exit node id (no steps, no successors).
    pub exit: usize,
}

impl<'a> Cfg<'a> {
    /// Build the CFG for one fn body.
    pub fn build(body: &'a [Stmt<'a>]) -> Cfg<'a> {
        let mut b = Builder {
            nodes: vec![Node::default(), Node::default()],
            loops: Vec::new(),
        };
        let end = b.lower_block(body, 0);
        if let Some(end) = end {
            b.edge(end, EXIT, Edge::Seq);
        }
        b.finish()
    }

    /// The last step of a node if it is a branch (`Cond`/`ForHead`) —
    /// what the outgoing `True`/`False` edges refine against.
    pub fn branch_step(&self, node: usize) -> Option<&Step<'a>> {
        let last = self.nodes.get(node)?.steps.last()?;
        match last {
            Step::Cond(_) | Step::ForHead { .. } => Some(last),
            _ => None,
        }
    }
}

/// Fixed id of the exit node during construction.
const EXIT: usize = 1;

struct Builder<'a> {
    nodes: Vec<Node<'a>>,
    /// Innermost-last stack of `(head, after)` loop targets for
    /// `continue`/`break`.
    loops: Vec<(usize, usize)>,
}

impl<'a> Builder<'a> {
    fn new_node(&mut self) -> usize {
        self.nodes.push(Node::default());
        self.nodes.len() - 1
    }

    fn push_step(&mut self, node: usize, step: Step<'a>) {
        if let Some(n) = self.nodes.get_mut(node) {
            n.steps.push(step);
        }
    }

    fn edge(&mut self, from: usize, to: usize, label: Edge) {
        if let Some(n) = self.nodes.get_mut(from) {
            n.succs.push((to, label));
        }
    }

    /// Lower a statement list starting in node `cur`; returns the open
    /// node at the end, or `None` if every path diverged.
    fn lower_block(&mut self, stmts: &'a [Stmt<'a>], mut cur: usize) -> Option<usize> {
        for stmt in stmts {
            match stmt {
                Stmt::Let {
                    pat,
                    ty,
                    init,
                    else_block,
                    line,
                    col,
                } => {
                    if let Some(init) = init {
                        cur = self.lower_operand(init, cur)?;
                    }
                    self.push_step(
                        cur,
                        Step::Bind {
                            pat,
                            ty,
                            init: init.as_ref(),
                            line: *line,
                            col: *col,
                        },
                    );
                    if let Some(else_stmts) = else_block {
                        // `let .. else`: the refutable side runs the else
                        // block, which must diverge; model it as a side
                        // branch whose end (if any) flows to the exit.
                        let else_entry = self.new_node();
                        let next = self.new_node();
                        self.edge(cur, else_entry, Edge::Seq);
                        self.edge(cur, next, Edge::Seq);
                        if let Some(end) = self.lower_block(else_stmts, else_entry) {
                            self.edge(end, EXIT, Edge::Seq);
                        }
                        cur = next;
                    }
                }
                Stmt::Expr { expr, .. } => {
                    if expr.is_control() {
                        cur = self.lower_cf(expr, cur)?;
                    } else {
                        cur = self.hoist_nested(expr, cur)?;
                        self.push_step(cur, Step::Eval(expr));
                    }
                }
            }
        }
        Some(cur)
    }

    /// Lower an expression used as an operand (let initializer, branch
    /// condition, scrutinee): control flow lowers structurally, anything
    /// else hoists its nested control flow. The operand's own `Eval`/
    /// `Bind` step is the *caller's* responsibility.
    fn lower_operand(&mut self, e: &'a Expr<'a>, cur: usize) -> Option<usize> {
        if e.is_control() {
            self.lower_cf(e, cur)
        } else {
            self.hoist_nested(e, cur)
        }
    }

    /// Hoist control-flow subexpressions nested inside a non-CF
    /// expression, left to right.
    fn hoist_nested(&mut self, e: &'a Expr<'a>, cur: usize) -> Option<usize> {
        let mut children = Vec::new();
        for_each_child(e, &mut |c| children.push(c));
        let mut cur = cur;
        for child in children {
            cur = if child.is_control() {
                self.lower_cf(child, cur)?
            } else {
                self.hoist_nested(child, cur)?
            };
        }
        Some(cur)
    }

    /// Lower one control-flow expression; returns the join node.
    fn lower_cf(&mut self, e: &'a Expr<'a>, cur: usize) -> Option<usize> {
        match &e.kind {
            ExprKind::Block(stmts) => self.lower_block(stmts, cur),
            ExprKind::If {
                cond,
                then_block,
                else_expr,
            } => {
                let cur = self.lower_operand(cond, cur)?;
                self.push_step(cur, Step::Cond(cond));
                let then_entry = self.new_node();
                let join = self.new_node();
                self.edge(cur, then_entry, Edge::True);
                if let Some(end) = self.lower_block(then_block, then_entry) {
                    self.edge(end, join, Edge::Seq);
                }
                match else_expr {
                    Some(els) => {
                        let else_entry = self.new_node();
                        self.edge(cur, else_entry, Edge::False);
                        if let Some(end) = self.lower_value(els, else_entry) {
                            self.edge(end, join, Edge::Seq);
                        }
                    }
                    None => self.edge(cur, join, Edge::False),
                }
                Some(join)
            }
            ExprKind::IfLet {
                pat,
                scrutinee,
                then_block,
                else_expr,
            } => {
                let cur = self.lower_operand(scrutinee, cur)?;
                self.push_step(cur, Step::Eval(scrutinee));
                let then_entry = self.new_node();
                let join = self.new_node();
                self.edge(cur, then_entry, Edge::True);
                self.push_step(
                    then_entry,
                    Step::PatBind {
                        pat,
                        from: scrutinee,
                    },
                );
                if let Some(end) = self.lower_block(then_block, then_entry) {
                    self.edge(end, join, Edge::Seq);
                }
                match else_expr {
                    Some(els) => {
                        let else_entry = self.new_node();
                        self.edge(cur, else_entry, Edge::False);
                        if let Some(end) = self.lower_value(els, else_entry) {
                            self.edge(end, join, Edge::Seq);
                        }
                    }
                    None => self.edge(cur, join, Edge::False),
                }
                Some(join)
            }
            ExprKind::While { cond, body } => {
                let head = self.new_node();
                self.edge(cur, head, Edge::Seq);
                let cond_node = self.lower_operand(cond, head)?;
                self.push_step(cond_node, Step::Cond(cond));
                let body_entry = self.new_node();
                let after = self.new_node();
                self.edge(cond_node, body_entry, Edge::True);
                self.edge(cond_node, after, Edge::False);
                self.loops.push((head, after));
                let body_end = self.lower_block(body, body_entry);
                self.loops.pop();
                if let Some(end) = body_end {
                    self.edge(end, head, Edge::Seq);
                }
                Some(after)
            }
            ExprKind::WhileLet {
                pat,
                scrutinee,
                body,
            } => {
                let head = self.new_node();
                self.edge(cur, head, Edge::Seq);
                let cond_node = self.lower_operand(scrutinee, head)?;
                self.push_step(cond_node, Step::Eval(scrutinee));
                let body_entry = self.new_node();
                let after = self.new_node();
                self.edge(cond_node, body_entry, Edge::True);
                self.edge(cond_node, after, Edge::False);
                self.push_step(
                    body_entry,
                    Step::PatBind {
                        pat,
                        from: scrutinee,
                    },
                );
                self.loops.push((head, after));
                let body_end = self.lower_block(body, body_entry);
                self.loops.pop();
                if let Some(end) = body_end {
                    self.edge(end, head, Edge::Seq);
                }
                Some(after)
            }
            ExprKind::For { pat, iter, body } => {
                // The iterated expression is evaluated once, before the
                // head; the head's True edge binds the pattern.
                let cur = self.lower_operand(iter, cur)?;
                let head = self.new_node();
                self.edge(cur, head, Edge::Seq);
                self.push_step(head, Step::ForHead { pat, iter });
                let body_entry = self.new_node();
                let after = self.new_node();
                self.edge(head, body_entry, Edge::True);
                self.edge(head, after, Edge::False);
                self.loops.push((head, after));
                let body_end = self.lower_block(body, body_entry);
                self.loops.pop();
                if let Some(end) = body_end {
                    self.edge(end, head, Edge::Seq);
                }
                Some(after)
            }
            ExprKind::Loop { body } => {
                let head = self.new_node();
                self.edge(cur, head, Edge::Seq);
                let after = self.new_node();
                self.loops.push((head, after));
                let body_end = self.lower_block(body, head);
                self.loops.pop();
                if let Some(end) = body_end {
                    self.edge(end, head, Edge::Seq);
                }
                // `after` is only reachable through a `break`.
                Some(after)
            }
            ExprKind::Match { scrutinee, arms } => {
                let cur = self.lower_operand(scrutinee, cur)?;
                self.push_step(cur, Step::Eval(scrutinee));
                let join = self.new_node();
                for arm in arms {
                    let arm_entry = self.new_node();
                    self.edge(cur, arm_entry, Edge::Seq);
                    self.push_step(
                        arm_entry,
                        Step::PatBind {
                            pat: &arm.pat,
                            from: scrutinee,
                        },
                    );
                    let mut arm_cur = arm_entry;
                    if let Some(guard) = &arm.guard {
                        arm_cur = self.lower_operand(guard, arm_cur)?;
                        self.push_step(arm_cur, Step::Cond(guard));
                        let body_entry = self.new_node();
                        self.edge(arm_cur, body_entry, Edge::True);
                        // Guard failed: conservatively flow to the join
                        // (the real target is the next arm; merging at
                        // the join only adds paths).
                        self.edge(arm_cur, join, Edge::False);
                        arm_cur = body_entry;
                    }
                    if let Some(end) = self.lower_value(&arm.body, arm_cur) {
                        self.edge(end, join, Edge::Seq);
                    }
                }
                if arms.is_empty() {
                    self.edge(cur, join, Edge::Seq);
                }
                Some(join)
            }
            ExprKind::Closure { body, .. } => {
                // Inline approximation: the body runs once, here.
                self.lower_value(body, cur)
            }
            ExprKind::Return(operand) => {
                let mut cur = cur;
                if let Some(op) = operand {
                    cur = self.lower_operand(op, cur)?;
                    self.push_step(cur, Step::Eval(op));
                }
                self.edge(cur, EXIT, Edge::Seq);
                None
            }
            ExprKind::Break(operand) => {
                let mut cur = cur;
                if let Some(op) = operand {
                    cur = self.lower_operand(op, cur)?;
                    self.push_step(cur, Step::Eval(op));
                }
                let target = self.loops.last().map(|(_, after)| *after).unwrap_or(EXIT);
                self.edge(cur, target, Edge::Seq);
                None
            }
            ExprKind::Continue => {
                let target = self.loops.last().map(|(head, _)| *head).unwrap_or(EXIT);
                self.edge(cur, target, Edge::Seq);
                None
            }
            _ => {
                // Not control flow after all: treat as a plain step.
                let cur = self.hoist_nested(e, cur)?;
                self.push_step(cur, Step::Eval(e));
                Some(cur)
            }
        }
    }

    /// Lower an expression in value position, recording an `Eval` step
    /// for non-CF expressions.
    fn lower_value(&mut self, e: &'a Expr<'a>, cur: usize) -> Option<usize> {
        if e.is_control() {
            self.lower_cf(e, cur)
        } else {
            let cur = self.hoist_nested(e, cur)?;
            self.push_step(cur, Step::Eval(e));
            Some(cur)
        }
    }

    /// Prune unreachable nodes (loop-less `after` nodes, dead joins) and
    /// remap ids. The exit node is always retained.
    fn finish(self) -> Cfg<'a> {
        let n = self.nodes.len();
        let mut reachable = vec![false; n];
        if let Some(r) = reachable.get_mut(0) {
            *r = true;
        }
        let mut stack = vec![0usize];
        while let Some(id) = stack.pop() {
            let succs: Vec<usize> = self
                .nodes
                .get(id)
                .map(|node| node.succs.iter().map(|(t, _)| *t).collect())
                .unwrap_or_default();
            for t in succs {
                if let Some(r) = reachable.get_mut(t) {
                    if !*r {
                        *r = true;
                        stack.push(t);
                    }
                }
            }
        }
        if let Some(r) = reachable.get_mut(EXIT) {
            *r = true;
        }
        let mut remap = vec![usize::MAX; n];
        let mut kept = 0usize;
        for (id, r) in reachable.iter().enumerate() {
            if *r {
                if let Some(m) = remap.get_mut(id) {
                    *m = kept;
                }
                kept += 1;
            }
        }
        let mut nodes = Vec::with_capacity(kept);
        let mut exit = 0usize;
        for (id, node) in self.nodes.into_iter().enumerate() {
            let mapped = remap.get(id).copied().unwrap_or(usize::MAX);
            if mapped == usize::MAX {
                continue;
            }
            if id == EXIT {
                exit = mapped;
            }
            let succs = node
                .succs
                .into_iter()
                .filter_map(|(t, e)| {
                    let t = remap.get(t).copied().unwrap_or(usize::MAX);
                    (t != usize::MAX).then_some((t, e))
                })
                .collect();
            nodes.push(Node {
                steps: node.steps,
                succs,
            });
        }
        Cfg { nodes, exit }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::{parse_file, ItemKind, ParsedFile};

    fn with_cfg(body_src: &str, check: impl FnOnce(&Cfg<'_>)) {
        let src = format!("fn f() {{ {body_src} }}\n");
        let parsed: ParsedFile = parse_file("crates/x/src/lib.rs", &src);
        let Some(item) = parsed.items.first() else {
            panic!("no item parsed from {body_src:?}");
        };
        let ItemKind::Fn(info) = &item.kind else {
            panic!("not a fn: {body_src:?}");
        };
        let cfg = Cfg::build(&info.body);
        check(&cfg);
    }

    #[test]
    fn straight_line_body_is_two_nodes() {
        with_cfg("let a = 1; let b = a + 2; use_it(b);", |cfg| {
            assert_eq!(cfg.nodes.len(), 2, "{cfg:?}");
            let entry = cfg.nodes.first().expect("entry");
            assert_eq!(entry.steps.len(), 3);
            assert_eq!(entry.succs, vec![(cfg.exit, Edge::Seq)]);
        });
    }

    #[test]
    fn if_else_forms_a_diamond() {
        with_cfg("if a < b { f(); } else { g(); } h();", |cfg| {
            let entry = cfg.nodes.first().expect("entry");
            let branch: Vec<_> = entry.succs.iter().map(|(_, e)| *e).collect();
            assert_eq!(branch, vec![Edge::True, Edge::False]);
            assert!(cfg.branch_step(0).is_some());
            // entry, then, else, join, exit
            assert_eq!(cfg.nodes.len(), 5, "{cfg:?}");
        });
    }

    #[test]
    fn while_loop_has_back_edge() {
        with_cfg("while i < n { i += 1; } done();", |cfg| {
            // Some node must have a successor with an id at most its own
            // (the back edge to the loop head).
            let back = cfg
                .nodes
                .iter()
                .enumerate()
                .any(|(id, n)| n.succs.iter().any(|(t, _)| *t <= id && *t != cfg.exit));
            assert!(back, "{cfg:?}");
        });
    }

    #[test]
    fn entry_is_never_an_edge_target() {
        for src in [
            "let a = 1;",
            "if c { f(); }",
            "while c { f(); }",
            "for x in xs { f(x); }",
            "loop { break; }",
            "match x { Some(v) => f(v), None => g() }",
            "let Some(x) = opt else { return; }; f(x);",
        ] {
            with_cfg(src, |cfg| {
                for node in &cfg.nodes {
                    assert!(
                        node.succs.iter().all(|(t, _)| *t != 0),
                        "edge into entry: {cfg:?}"
                    );
                }
            });
        }
    }

    #[test]
    fn code_after_early_return_branch_still_reachable() {
        with_cfg("if c { return; } f();", |cfg| {
            let evals = cfg
                .nodes
                .iter()
                .flat_map(|n| n.steps.iter())
                .filter(|s| matches!(s, Step::Eval(_)))
                .count();
            // The `f()` call after the early-return branch must survive
            // as a reachable Eval step.
            assert!(evals >= 1, "{cfg:?}");
        });
    }

    #[test]
    fn nested_cf_in_initializer_is_hoisted() {
        with_cfg("let x = if c { 1 } else { 2 }; f(x);", |cfg| {
            // The diamond precedes the Bind step: more than 2 nodes, and
            // some node carries the Bind.
            assert!(cfg.nodes.len() > 2, "{cfg:?}");
            let has_bind = cfg
                .nodes
                .iter()
                .flat_map(|n| n.steps.iter())
                .any(|s| matches!(s, Step::Bind { .. }));
            assert!(has_bind, "{cfg:?}");
        });
    }

    #[test]
    fn match_guard_becomes_cond() {
        with_cfg("match x { Some(v) if v > 0 => f(v), _ => g() }", |cfg| {
            let conds = cfg
                .nodes
                .iter()
                .flat_map(|n| n.steps.iter())
                .filter(|s| matches!(s, Step::Cond(_)))
                .count();
            assert_eq!(conds, 1, "{cfg:?}");
        });
    }
}
