//! Expression grammar for fn bodies (lint v3).
//!
//! [`crate::parser`] resolves *items*; this module parses the token range
//! of one fn body into a statement/expression AST: method chains, match
//! arms with guards, `if let`/`while let`, index/field/call expressions,
//! closures, struct literals, and macro invocations. The CFG builder
//! ([`crate::cfg`]) and the dataflow rules (`X1`, `D3`) consume this AST;
//! the legacy [`crate::parser::CallSite`] list is *derived* from it (see
//! `collect_calls`), so the statement-level consumers (`E1`, `K1`) keep
//! their exact semantics.
//!
//! The lexer emits multi-byte operators as consecutive single-byte
//! `Punct` tokens, so operator recognition re-joins *source-adjacent*
//! punctuation (`>` `>` at adjacent columns is a shift; `>` `>` closing
//! two generic lists in a turbofish is never adjacent to an operand
//! context). That is what makes `Vec<Vec<u32>>` vs `a >> b`
//! disambiguation fall out of context rather than lookahead hacks.
//!
//! Like the item parser, this parser is tolerant by construction: any
//! token run it cannot shape becomes an [`ExprKind::Unknown`] leaf and
//! the parse continues — malformed input degrades to less structure,
//! never to a panic.

use crate::lexer::{Token, TokenKind};
use crate::parser::{CallSite, Discard};
use std::borrow::Cow;

/// One statement inside a fn body or block. Like every node of the
/// tree, it borrows its names, type tokens and literals from the source
/// text (`'src`): a parse allocates per node, never per name.
#[derive(Debug, Clone, PartialEq)]
pub enum Stmt<'src> {
    /// `let pat[: ty] [= init] [else { .. }];`
    Let {
        /// Bound pattern.
        pat: Pat<'src>,
        /// Declared type tokens (empty when inferred).
        ty: Vec<&'src str>,
        /// Initializer expression, when present.
        init: Option<Expr<'src>>,
        /// `let .. else` diverging block.
        else_block: Option<Vec<Stmt<'src>>>,
        /// 1-based line of the `let` keyword.
        line: u32,
        /// 1-based column of the `let` keyword.
        col: u32,
    },
    /// An expression statement; `semi` records a trailing `;`.
    Expr {
        /// The expression.
        expr: Expr<'src>,
        /// Whether the statement ends with `;` (value dropped).
        semi: bool,
    },
}

/// One expression node.
#[derive(Debug, Clone, PartialEq)]
pub struct Expr<'src> {
    /// Shape and children.
    pub kind: ExprKind<'src>,
    /// 1-based line of the expression's first token.
    pub line: u32,
    /// 1-based column of the expression's first token.
    pub col: u32,
    /// Significant-token index of the expression's first token.
    pub tok: usize,
    /// Significant-token index of the expression's *name* token: the last
    /// path segment for paths, the method name for method calls; equals
    /// `tok` otherwise. Call-site derivation anchors lines/columns here.
    pub name_tok: usize,
}

/// Expression shapes. Control-flow shapes (`If`..`Match`, `Block`) are
/// lowered structurally by the CFG builder; everything else is a leaf or
/// an operator node the rule walkers descend through.
#[derive(Debug, Clone, PartialEq)]
pub enum ExprKind<'src> {
    /// A (possibly qualified) path: `x`, `self`, `Url::parse`.
    Path(Vec<&'src str>),
    /// Number, string, char, or bool literal.
    Lit(&'src str),
    /// Prefix operator: `-x`, `!x`, `*x`.
    Unary {
        /// Operator byte (`-`, `!`, `*`).
        op: char,
        /// Operand.
        operand: Box<Expr<'src>>,
    },
    /// `&expr` / `&mut expr`.
    Ref {
        /// True for `&mut`.
        mutable: bool,
        /// Referent.
        operand: Box<Expr<'src>>,
    },
    /// Infix operator (`+`, `==`, `&&`, `<<`, ...).
    Binary {
        /// Operator text (a multi-byte operator comes from a fixed table).
        op: &'src str,
        /// Left operand.
        lhs: Box<Expr<'src>>,
        /// Right operand.
        rhs: Box<Expr<'src>>,
    },
    /// `lhs = rhs`, `lhs += rhs`, ...
    Assign {
        /// Operator text (`=`, `+=`, ...).
        op: &'src str,
        /// Assignee.
        lhs: Box<Expr<'src>>,
        /// Value.
        rhs: Box<Expr<'src>>,
    },
    /// `expr as Ty`.
    Cast {
        /// Value being cast.
        operand: Box<Expr<'src>>,
        /// Target type tokens.
        ty: Vec<&'src str>,
    },
    /// `callee(args)`.
    Call {
        /// Callee (usually a `Path`).
        callee: Box<Expr<'src>>,
        /// Arguments.
        args: Vec<Expr<'src>>,
    },
    /// `recv.name::<T>(args)`.
    MethodCall {
        /// Receiver.
        recv: Box<Expr<'src>>,
        /// Method name.
        name: &'src str,
        /// Turbofish type tokens (empty when absent).
        turbofish: Vec<&'src str>,
        /// Arguments.
        args: Vec<Expr<'src>>,
    },
    /// `name!(args)` / `path::name![..]` / `name!{..}`.
    MacroCall {
        /// Macro path.
        path: Vec<&'src str>,
        /// Arguments that parsed as expressions (others become `Unknown`).
        args: Vec<Expr<'src>>,
        /// Identifiers captured by `{ident}` holes in a leading format
        /// string literal argument.
        captures: Vec<&'src str>,
    },
    /// `base.field` / `base.0` / `base.await`.
    Field {
        /// Base expression.
        base: Box<Expr<'src>>,
        /// Field name (tuple indices as digits; `await` for awaits).
        name: &'src str,
    },
    /// `base[index]`.
    Index {
        /// Indexed expression.
        base: Box<Expr<'src>>,
        /// Index expression.
        index: Box<Expr<'src>>,
    },
    /// `expr?`.
    Try {
        /// Fallible operand.
        operand: Box<Expr<'src>>,
    },
    /// `lo..hi` / `lo..=hi` with either side optional.
    Range {
        /// Lower bound.
        lo: Option<Box<Expr<'src>>>,
        /// Upper bound.
        hi: Option<Box<Expr<'src>>>,
        /// True for `..=`.
        inclusive: bool,
    },
    /// `(a, b, ..)` — a 1-tuple of parens yields the inner expression
    /// instead.
    Tuple(Vec<Expr<'src>>),
    /// `[a, b, ..]`.
    Array(Vec<Expr<'src>>),
    /// `[elem; len]`.
    Repeat {
        /// Element expression.
        elem: Box<Expr<'src>>,
        /// Length expression.
        len: Box<Expr<'src>>,
    },
    /// `Path { field: expr, .. }`.
    StructLit {
        /// Struct path.
        path: Vec<&'src str>,
        /// Field initializers (shorthand `field` becomes `field: field`).
        fields: Vec<(&'src str, Expr<'src>)>,
        /// `..base` functional-update expression.
        rest: Option<Box<Expr<'src>>>,
    },
    /// `{ stmts }` (including `unsafe { .. }`).
    Block(Vec<Stmt<'src>>),
    /// `if cond { .. } [else ..]`.
    If {
        /// Condition.
        cond: Box<Expr<'src>>,
        /// Then-block statements.
        then_block: Vec<Stmt<'src>>,
        /// Else expression (`Block` or chained `If`).
        else_expr: Option<Box<Expr<'src>>>,
    },
    /// `if let pat = scrutinee { .. } [else ..]`.
    IfLet {
        /// Matched pattern.
        pat: Pat<'src>,
        /// Matched value.
        scrutinee: Box<Expr<'src>>,
        /// Then-block statements.
        then_block: Vec<Stmt<'src>>,
        /// Else expression.
        else_expr: Option<Box<Expr<'src>>>,
    },
    /// `while cond { .. }`.
    While {
        /// Condition.
        cond: Box<Expr<'src>>,
        /// Body statements.
        body: Vec<Stmt<'src>>,
    },
    /// `while let pat = scrutinee { .. }`.
    WhileLet {
        /// Matched pattern.
        pat: Pat<'src>,
        /// Matched value.
        scrutinee: Box<Expr<'src>>,
        /// Body statements.
        body: Vec<Stmt<'src>>,
    },
    /// `for pat in iter { .. }`.
    For {
        /// Loop binding.
        pat: Pat<'src>,
        /// Iterated expression.
        iter: Box<Expr<'src>>,
        /// Body statements.
        body: Vec<Stmt<'src>>,
    },
    /// `loop { .. }`.
    Loop {
        /// Body statements.
        body: Vec<Stmt<'src>>,
    },
    /// `match scrutinee { arms }`.
    Match {
        /// Matched value.
        scrutinee: Box<Expr<'src>>,
        /// Arms in source order.
        arms: Vec<Arm<'src>>,
    },
    /// `|params| body` / `move |params| body`.
    Closure {
        /// True for `move` closures.
        moves: bool,
        /// Parameter patterns.
        params: Vec<Pat<'src>>,
        /// Body expression.
        body: Box<Expr<'src>>,
    },
    /// `return [expr]`.
    Return(Option<Box<Expr<'src>>>),
    /// `break ['label] [expr]`.
    Break(Option<Box<Expr<'src>>>),
    /// `continue ['label]`.
    Continue,
    /// Token run the parser could not shape (tolerant recovery).
    Unknown,
}

/// One match arm: `pat | pat if guard => body`.
#[derive(Debug, Clone, PartialEq)]
pub struct Arm<'src> {
    /// Arm pattern (alternatives folded into [`Pat::Or`]).
    pub pat: Pat<'src>,
    /// Guard expression after `if`, when present.
    pub guard: Option<Expr<'src>>,
    /// Arm body.
    pub body: Expr<'src>,
}

/// Patterns, at the resolution the dataflow rules need: which names a
/// pattern binds, plus enough structure to walk tuples and variants.
#[derive(Debug, Clone, PartialEq)]
pub enum Pat<'src> {
    /// `_`.
    Wild,
    /// A binding: `x`, `ref x`, `mut x`, `x @ sub`.
    Ident {
        /// Bound name.
        name: &'src str,
        /// True for `ref` bindings.
        by_ref: bool,
        /// True for `mut` bindings.
        mutable: bool,
    },
    /// A unit path pattern: `None`, `Sector::Web`, `true`.
    Path(Vec<&'src str>),
    /// A literal pattern (including literal ranges); a negative literal
    /// keeps only its number token.
    Lit(&'src str),
    /// `(a, b)`.
    Tuple(Vec<Pat<'src>>),
    /// `Variant(a, b)`.
    TupleStruct {
        /// Variant path.
        path: Vec<&'src str>,
        /// Element patterns.
        elems: Vec<Pat<'src>>,
    },
    /// `Struct { field: pat, .. }`.
    Struct {
        /// Struct path.
        path: Vec<&'src str>,
        /// Field patterns (shorthand `field` binds `field`).
        fields: Vec<(&'src str, Pat<'src>)>,
    },
    /// `[a, b, ..]`.
    Slice(Vec<Pat<'src>>),
    /// `&pat` / `&mut pat`.
    Ref(Box<Pat<'src>>),
    /// `a | b` alternatives.
    Or(Vec<Pat<'src>>),
    /// `..` rest.
    Rest,
    /// Unrecognized pattern tokens.
    Unknown,
}

impl<'src> Pat<'src> {
    /// All names this pattern binds, in source order.
    pub fn bound_names(&self, out: &mut Vec<&'src str>) {
        match self {
            Pat::Ident { name, .. } => out.push(name),
            Pat::Tuple(elems) | Pat::Slice(elems) | Pat::Or(elems) => {
                for p in elems {
                    p.bound_names(out);
                }
            }
            Pat::TupleStruct { elems, .. } => {
                for p in elems {
                    p.bound_names(out);
                }
            }
            Pat::Struct { fields, .. } => {
                for (_, p) in fields {
                    p.bound_names(out);
                }
            }
            Pat::Ref(inner) => inner.bound_names(out),
            Pat::Wild | Pat::Path(_) | Pat::Lit(_) | Pat::Rest | Pat::Unknown => {}
        }
    }
}

impl<'src> Expr<'src> {
    /// The plain dotted path of this expression when it is a chain of
    /// `Path`/`Field` over identifiers (`self.metrics` →
    /// `["self", "metrics"]`); `None` when any link is computed.
    pub fn plain_path(&self) -> Option<Vec<&'src str>> {
        match &self.kind {
            ExprKind::Path(segs) => Some(segs.clone()),
            ExprKind::Field { base, name } => {
                let mut segs = base.plain_path()?;
                segs.push(name);
                Some(segs)
            }
            _ => None,
        }
    }

    /// The dotted place this expression names (`xs`, `self.goto`) when it
    /// is a plain path: a single identifier stays borrowed, a longer path
    /// is joined once.
    pub(crate) fn dotted_place(&self) -> Option<Cow<'src, str>> {
        match &self.kind {
            ExprKind::Path(segs) => Some(match *segs.as_slice() {
                [one] => Cow::Borrowed(one),
                _ => Cow::Owned(segs.join(".")),
            }),
            ExprKind::Field { base, name } => {
                Some(Cow::Owned(format!("{}.{name}", base.dotted_place()?)))
            }
            _ => None,
        }
    }

    /// Whether this expression introduces control flow the CFG builder
    /// lowers structurally (rule walkers stop at these).
    pub fn is_control(&self) -> bool {
        matches!(
            self.kind,
            ExprKind::If { .. }
                | ExprKind::IfLet { .. }
                | ExprKind::While { .. }
                | ExprKind::WhileLet { .. }
                | ExprKind::For { .. }
                | ExprKind::Loop { .. }
                | ExprKind::Match { .. }
                | ExprKind::Block(_)
                | ExprKind::Closure { .. }
                | ExprKind::Return(_)
                | ExprKind::Break(_)
                | ExprKind::Continue
        )
    }
}

/// Maximum expression nesting before the parser degrades to `Unknown`
/// (keeps arbitrary token soup from recursing unboundedly).
const MAX_DEPTH: u32 = 80;

/// Keywords that terminate expression parsing when seen in operand
/// position (item starts and grammar words the body parser handles
/// elsewhere).
const STOP_WORDS: &[&str] = &[
    "else", "in", "where", "impl", "dyn", "pub", "use", "mod", "struct", "enum", "trait", "static",
    "type", "extern", "fn", "let",
];

/// Parse the body token range `[start, end)` (inside the braces) into
/// statements. `sig`/`texts` are the file's significant tokens.
pub(crate) fn parse_body<'src>(
    sig: &[&Token<'src>],
    texts: &[&'src str],
    start: usize,
    end: usize,
) -> Vec<Stmt<'src>> {
    let mut p = BodyParser {
        sig,
        texts,
        pos: start,
        end: end.min(texts.len()),
        depth: 0,
    };
    p.parse_stmts()
}

struct BodyParser<'a, 'b> {
    sig: &'a [&'a Token<'b>],
    texts: &'a [&'b str],
    pos: usize,
    end: usize,
    depth: u32,
}

impl<'a, 'b> BodyParser<'a, 'b> {
    fn at(&self, i: usize) -> &'b str {
        if i < self.end {
            self.texts.get(i).copied().unwrap_or("")
        } else {
            ""
        }
    }

    fn cur(&self) -> &'b str {
        self.at(self.pos)
    }

    fn peek(&self, n: usize) -> &'b str {
        self.at(self.pos + n)
    }

    fn kind_at(&self, i: usize) -> Option<TokenKind> {
        if i < self.end {
            self.sig.get(i).map(|t| t.kind)
        } else {
            None
        }
    }

    fn pos_of(&self, i: usize) -> (u32, u32) {
        self.sig.get(i).map(|t| (t.line, t.col)).unwrap_or((0, 0))
    }

    fn done(&self) -> bool {
        self.pos >= self.end
    }

    /// Whether tokens `i` and `i+1` touch in the source (no whitespace or
    /// comment between them) — the condition for two `Punct` tokens to
    /// form one multi-byte operator.
    fn adjacent(&self, i: usize) -> bool {
        match (self.sig.get(i), self.sig.get(i + 1)) {
            (Some(a), Some(b)) if i + 1 < self.end => {
                let width = u32::try_from(a.text.len()).unwrap_or(u32::MAX);
                a.line == b.line && b.col == a.col.saturating_add(width)
            }
            _ => false,
        }
    }

    /// Maximal-munch operator at the cursor: joins source-adjacent
    /// `Punct` tokens into one operator text, returning it with its token
    /// length. A joined operator comes from [`MULTI_OPS`]; a single byte
    /// is the token itself. Returns `None` for non-punctuation.
    fn op_ahead(&self) -> Option<(&'b str, usize)> {
        if self.kind_at(self.pos) != Some(TokenKind::Punct) {
            return None;
        }
        let a = self.cur();
        let b = if self.adjacent(self.pos) {
            self.peek(1)
        } else {
            ""
        };
        let c = if self.adjacent(self.pos) && self.adjacent(self.pos + 1) {
            self.peek(2)
        } else {
            ""
        };
        let joined = |len: usize, parts: &[&str]| {
            MULTI_OPS.iter().copied().find(|op| {
                op.len() == len
                    && parts
                        .iter()
                        .zip(op.as_bytes())
                        .all(|(p, &byte)| p.as_bytes() == [byte])
            })
        };
        if let Some(op) = joined(3, &[a, b, c]) {
            return Some((op, 3));
        }
        if let Some(op) = joined(2, &[a, b]) {
            return Some((op, 2));
        }
        Some((a, 1))
    }

    fn expr_at(&self, start: usize, kind: ExprKind<'b>) -> Expr<'b> {
        let (line, col) = self.pos_of(start);
        Expr {
            kind,
            line,
            col,
            tok: start,
            name_tok: start,
        }
    }

    /// Parse statements up to the region end or a `}` at this level.
    fn parse_stmts(&mut self) -> Vec<Stmt<'b>> {
        let mut stmts = Vec::new();
        while !self.done() && self.cur() != "}" {
            let before = self.pos;
            if self.cur() == ";" {
                self.pos += 1;
                continue;
            }
            self.skip_stmt_attrs();
            if self.done() || self.cur() == "}" {
                break;
            }
            match self.cur() {
                "let" => stmts.push(self.parse_let()),
                "fn" => {
                    // Nested fn: skip the signature, parse the body as a
                    // block statement so its calls stay visible.
                    self.skip_to_body_or_semi();
                    if self.cur() == "{" {
                        let start = self.pos;
                        let block = self.parse_block();
                        stmts.push(Stmt::Expr {
                            expr: self.expr_at(start, ExprKind::Block(block)),
                            semi: false,
                        });
                    }
                }
                t if is_item_start(t) => self.skip_item_like(),
                _ => {
                    let expr = self.parse_expr(0, false);
                    let semi = self.cur() == ";";
                    if semi {
                        self.pos += 1;
                    }
                    stmts.push(Stmt::Expr { expr, semi });
                }
            }
            if self.pos == before {
                // Recovery: guarantee progress on any input.
                self.pos += 1;
            }
        }
        stmts
    }

    /// Skip `#[..]` statement attributes.
    fn skip_stmt_attrs(&mut self) {
        while self.cur() == "#" && self.peek(1) == "[" {
            self.pos += 1;
            self.skip_balanced();
        }
    }

    /// Skip an item-like statement (`use ..;`, `struct S {..}`, ...)
    /// without modeling it.
    fn skip_item_like(&mut self) {
        while !self.done() {
            match self.cur() {
                ";" => {
                    self.pos += 1;
                    return;
                }
                "{" => {
                    self.skip_balanced();
                    return;
                }
                "(" | "[" => self.skip_balanced(),
                "}" => return,
                _ => self.pos += 1,
            }
        }
    }

    /// Skip tokens until a `{` or `;` at group depth 0 (nested fn
    /// signatures; parens skipped whole).
    fn skip_to_body_or_semi(&mut self) {
        while !self.done() {
            match self.cur() {
                "{" | ";" => return,
                "(" | "[" => self.skip_balanced(),
                "}" => return,
                _ => self.pos += 1,
            }
        }
    }

    /// Skip one balanced group with the cursor on the opener.
    fn skip_balanced(&mut self) {
        let (open, close) = match self.cur() {
            "(" => ("(", ")"),
            "[" => ("[", "]"),
            "{" => ("{", "}"),
            _ => {
                self.pos += 1;
                return;
            }
        };
        let mut depth = 0usize;
        while !self.done() {
            let t = self.cur();
            self.pos += 1;
            if t == open {
                depth += 1;
            } else if t == close {
                depth -= 1;
                if depth == 0 {
                    return;
                }
            }
        }
    }

    fn parse_let(&mut self) -> Stmt<'b> {
        let (line, col) = self.pos_of(self.pos);
        self.pos += 1; // let
        let pat = self.parse_pat(true);
        let mut ty = Vec::new();
        if self.cur() == ":" && self.op_ahead().map(|(op, _)| op) == Some(":") {
            self.pos += 1;
            ty = self.scan_type(&["=", ";"]);
        }
        let mut init = None;
        if self.cur() == "=" && self.op_ahead().map(|(op, _)| op) == Some("=") {
            self.pos += 1;
            init = Some(self.parse_expr(0, false));
        }
        let mut else_block = None;
        if self.cur() == "else" && self.peek(1) == "{" {
            self.pos += 1;
            else_block = Some(self.parse_block());
        }
        if self.cur() == ";" {
            self.pos += 1;
        }
        Stmt::Let {
            pat,
            ty,
            init,
            else_block,
            line,
            col,
        }
    }

    /// Collect type tokens until one of `stops` at bracket/angle depth 0;
    /// `->` inside `Fn(..) -> T` is tolerated. Cursor stops on the stop
    /// token (or an enclosing closer).
    fn scan_type(&mut self, stops: &[&str]) -> Vec<&'b str> {
        let mut out = Vec::new();
        let mut angle = 0i32;
        let mut group = 0i32;
        while !self.done() {
            let t = self.cur();
            if t == "-" && self.adjacent(self.pos) && self.peek(1) == ">" {
                out.push("->");
                self.pos += 2;
                continue;
            }
            if angle == 0 && group == 0 && stops.contains(&t) {
                break;
            }
            match t {
                "<" => angle += 1,
                ">" => {
                    if angle == 0 {
                        break;
                    }
                    angle -= 1;
                }
                "(" | "[" | "{" => group += 1,
                ")" | "]" | "}" => {
                    if group == 0 {
                        break;
                    }
                    group -= 1;
                }
                ";" | "=" if group == 0 && angle == 0 => break,
                _ => {}
            }
            out.push(t);
            self.pos += 1;
        }
        out
    }

    /// Parse one expression with operator precedence (`min_bp` is the
    /// minimum binding power; `no_struct` suppresses struct literals, as
    /// in condition position).
    fn parse_expr(&mut self, min_bp: u8, no_struct: bool) -> Expr<'b> {
        if self.depth >= MAX_DEPTH {
            let start = self.pos;
            match self.cur() {
                "(" | "[" | "{" => self.skip_balanced(),
                _ => self.pos += 1,
            }
            return self.expr_at(start, ExprKind::Unknown);
        }
        self.depth += 1;
        let e = self.parse_expr_inner(min_bp, no_struct);
        self.depth -= 1;
        e
    }

    fn parse_expr_inner(&mut self, min_bp: u8, no_struct: bool) -> Expr<'b> {
        let mut lhs = self.parse_prefix(no_struct);
        loop {
            if self.done() {
                break;
            }
            // Postfix: `.`, call, index, `?`.
            match self.cur() {
                "." => {
                    // `..` is the range operator, not a field access.
                    if self.adjacent(self.pos) && self.peek(1) == "." {
                        // fall through to binary handling below
                    } else {
                        lhs = self.parse_postfix_dot(lhs);
                        continue;
                    }
                }
                "(" if postfix_binds(min_bp) => {
                    let args = self.parse_paren_args();
                    let start = lhs.tok;
                    let name_tok = lhs.name_tok;
                    let mut e = self.expr_at(
                        start,
                        ExprKind::Call {
                            callee: Box::new(lhs),
                            args,
                        },
                    );
                    e.name_tok = name_tok;
                    lhs = e;
                    continue;
                }
                "[" if postfix_binds(min_bp) => {
                    self.pos += 1;
                    let index = self.parse_expr(0, false);
                    if self.cur() == "]" {
                        self.pos += 1;
                    }
                    let start = lhs.tok;
                    lhs = self.expr_at(
                        start,
                        ExprKind::Index {
                            base: Box::new(lhs),
                            index: Box::new(index),
                        },
                    );
                    continue;
                }
                "?" => {
                    self.pos += 1;
                    let start = lhs.tok;
                    lhs = self.expr_at(
                        start,
                        ExprKind::Try {
                            operand: Box::new(lhs),
                        },
                    );
                    continue;
                }
                "as" => {
                    self.pos += 1;
                    let ty = self.scan_type(&[
                        ",", ";", ")", "]", "}", "=", "+", "-", "*", "/", "%", "?", ".", "{", "<",
                        ">", "&", "|", "!", "^",
                    ]);
                    let start = lhs.tok;
                    lhs = self.expr_at(
                        start,
                        ExprKind::Cast {
                            operand: Box::new(lhs),
                            ty,
                        },
                    );
                    continue;
                }
                _ => {}
            }
            // Binary / assignment / range operators.
            let Some((op, len)) = self.op_ahead() else {
                break;
            };
            let Some((l_bp, r_bp)) = infix_binding(op) else {
                break;
            };
            if l_bp < min_bp {
                break;
            }
            self.pos += len;
            if op == ".." || op == "..=" {
                let hi = if self.range_operand_ahead() {
                    Some(Box::new(self.parse_expr(r_bp, no_struct)))
                } else {
                    None
                };
                let start = lhs.tok;
                lhs = self.expr_at(
                    start,
                    ExprKind::Range {
                        lo: Some(Box::new(lhs)),
                        hi,
                        inclusive: op == "..=",
                    },
                );
                continue;
            }
            let rhs = self.parse_expr(r_bp, no_struct);
            let start = lhs.tok;
            let kind = if op == "=" || op.len() == 2 && op.ends_with('=') && is_compound_assign(op)
            {
                ExprKind::Assign {
                    op,
                    lhs: Box::new(lhs),
                    rhs: Box::new(rhs),
                }
            } else {
                ExprKind::Binary {
                    op,
                    lhs: Box::new(lhs),
                    rhs: Box::new(rhs),
                }
            };
            lhs = self.expr_at(start, kind);
        }
        lhs
    }

    /// Whether a token that can start a range operand follows.
    fn range_operand_ahead(&self) -> bool {
        let t = self.cur();
        if t.is_empty() {
            return false;
        }
        match self.kind_at(self.pos) {
            Some(TokenKind::Ident) => !STOP_WORDS.contains(&t) && t != "else",
            Some(TokenKind::Number) | Some(TokenKind::Literal) => true,
            Some(TokenKind::Punct) => matches!(t, "(" | "[" | "-" | "*" | "&" | "!"),
            _ => false,
        }
    }

    /// Parse `.name`, `.name(..)`, `.name::<T>(..)`, `.0`, `.await`.
    fn parse_postfix_dot(&mut self, base: Expr<'b>) -> Expr<'b> {
        let start = base.tok;
        self.pos += 1; // .
        let name_tok = self.pos;
        let name = match self.kind_at(self.pos) {
            Some(TokenKind::Ident | TokenKind::Number) => {
                let n = self.cur();
                self.pos += 1;
                n
            }
            _ => {
                return self.expr_at(
                    start,
                    ExprKind::Field {
                        base: Box::new(base),
                        name: "",
                    },
                );
            }
        };
        // Turbofish: `::<T>`.
        let mut turbofish = Vec::new();
        if self.cur() == ":"
            && self.adjacent(self.pos)
            && self.peek(1) == ":"
            && self.peek(2) == "<"
        {
            self.pos += 2;
            turbofish = self.scan_generic_args();
        }
        if self.cur() == "(" {
            let args = self.parse_paren_args();
            let mut e = self.expr_at(
                start,
                ExprKind::MethodCall {
                    recv: Box::new(base),
                    name,
                    turbofish,
                    args,
                },
            );
            e.name_tok = name_tok;
            e
        } else {
            self.expr_at(
                start,
                ExprKind::Field {
                    base: Box::new(base),
                    name,
                },
            )
        }
    }

    /// Consume a `<..>` generic-argument list (cursor on `<`), returning
    /// its inner token texts. Single-byte `>` tokens close one level each,
    /// which is exactly how `Vec<Vec<u32>>` splits its `>>`.
    fn scan_generic_args(&mut self) -> Vec<&'b str> {
        let mut out = Vec::new();
        if self.cur() != "<" {
            return out;
        }
        self.pos += 1;
        let mut depth = 1i32;
        while !self.done() {
            let t = self.cur();
            if t == "-" && self.adjacent(self.pos) && self.peek(1) == ">" {
                out.push("->");
                self.pos += 2;
                continue;
            }
            match t {
                "<" => depth += 1,
                ">" => {
                    depth -= 1;
                    if depth == 0 {
                        self.pos += 1;
                        return out;
                    }
                }
                "(" | "[" => {
                    // Balanced group inside generics (`Fn(A, B)` bounds).
                    let before = self.pos;
                    self.skip_balanced();
                    for i in before..self.pos {
                        out.push(self.at(i));
                    }
                    continue;
                }
                ";" | "{" | "}" => return out, // malformed: bail
                _ => {}
            }
            out.push(t);
            self.pos += 1;
        }
        out
    }

    /// Parse a parenthesized argument list with the cursor on `(`.
    fn parse_paren_args(&mut self) -> Vec<Expr<'b>> {
        let mut args = Vec::new();
        if self.cur() != "(" {
            return args;
        }
        self.pos += 1;
        while !self.done() && self.cur() != ")" {
            let before = self.pos;
            args.push(self.parse_expr(0, false));
            if self.cur() == "," {
                self.pos += 1;
            } else if self.pos == before {
                self.pos += 1; // recovery inside malformed args
            }
        }
        if self.cur() == ")" {
            self.pos += 1;
        }
        args
    }

    /// Parse a `{ .. }` block with the cursor on `{`; returns its
    /// statements with the cursor past the closing `}`.
    fn parse_block(&mut self) -> Vec<Stmt<'b>> {
        if self.cur() != "{" {
            return Vec::new();
        }
        self.pos += 1;
        let stmts = self.parse_stmts();
        if self.cur() == "}" {
            self.pos += 1;
        }
        stmts
    }

    fn parse_prefix(&mut self, no_struct: bool) -> Expr<'b> {
        let start = self.pos;
        if self.done() {
            return self.expr_at(start, ExprKind::Unknown);
        }
        // Loop labels: `'a: loop { .. }`.
        if self.kind_at(self.pos) == Some(TokenKind::Lifetime) && self.peek(1) == ":" {
            self.pos += 2;
            return self.parse_prefix(no_struct);
        }
        match self.cur() {
            "(" => {
                self.pos += 1;
                let mut elems = Vec::new();
                let mut trailing_comma = false;
                while !self.done() && self.cur() != ")" {
                    let before = self.pos;
                    elems.push(self.parse_expr(0, false));
                    trailing_comma = false;
                    if self.cur() == "," {
                        self.pos += 1;
                        trailing_comma = true;
                    } else if self.pos == before {
                        self.pos += 1;
                    }
                }
                if self.cur() == ")" {
                    self.pos += 1;
                }
                if elems.len() == 1 && !trailing_comma {
                    let mut inner = elems.remove(0);
                    inner.tok = start;
                    return inner;
                }
                self.expr_at(start, ExprKind::Tuple(elems))
            }
            "[" => {
                self.pos += 1;
                let mut elems = Vec::new();
                let mut repeat_len = None;
                while !self.done() && self.cur() != "]" {
                    let before = self.pos;
                    let e = self.parse_expr(0, false);
                    if self.cur() == ";" && repeat_len.is_none() && elems.is_empty() {
                        self.pos += 1;
                        elems.push(e);
                        repeat_len = Some(self.parse_expr(0, false));
                        continue;
                    }
                    elems.push(e);
                    if self.cur() == "," || self.pos == before {
                        self.pos += 1;
                    }
                }
                if self.cur() == "]" {
                    self.pos += 1;
                }
                if let (Some(len), Some(elem)) = (repeat_len, elems.drain(..).next()) {
                    return self.expr_at(
                        start,
                        ExprKind::Repeat {
                            elem: Box::new(elem),
                            len: Box::new(len),
                        },
                    );
                }
                self.expr_at(start, ExprKind::Array(elems))
            }
            "{" => {
                let block = self.parse_block();
                self.expr_at(start, ExprKind::Block(block))
            }
            "&" => {
                // `&&x` is two nested refs when adjacent.
                let double = self.adjacent(self.pos) && self.peek(1) == "&";
                self.pos += 1;
                if double {
                    // Re-enter so the second `&` wraps the operand.
                    let inner = self.parse_prefix(no_struct);
                    return self.expr_at(
                        start,
                        ExprKind::Ref {
                            mutable: false,
                            operand: Box::new(inner),
                        },
                    );
                }
                let mutable = self.cur() == "mut";
                if mutable {
                    self.pos += 1;
                }
                let operand = self.parse_expr(UNARY_BP, no_struct);
                self.expr_at(
                    start,
                    ExprKind::Ref {
                        mutable,
                        operand: Box::new(operand),
                    },
                )
            }
            "-" | "!" | "*" => {
                let op = self.cur().bytes().next().unwrap_or(b'-') as char;
                self.pos += 1;
                let operand = self.parse_expr(UNARY_BP, no_struct);
                self.expr_at(
                    start,
                    ExprKind::Unary {
                        op,
                        operand: Box::new(operand),
                    },
                )
            }
            "." => {
                // Prefix range `..x` / `..=x` / bare `..`.
                if self.adjacent(self.pos) && self.peek(1) == "." {
                    let inclusive = self.adjacent(self.pos + 1) && self.peek(2) == "=";
                    self.pos += if inclusive { 3 } else { 2 };
                    let hi = if self.range_operand_ahead() {
                        Some(Box::new(self.parse_expr(RANGE_BP, no_struct)))
                    } else {
                        None
                    };
                    return self.expr_at(
                        start,
                        ExprKind::Range {
                            lo: None,
                            hi,
                            inclusive,
                        },
                    );
                }
                self.pos += 1;
                self.expr_at(start, ExprKind::Unknown)
            }
            "|" => self.parse_closure(start, false),
            "move" => {
                self.pos += 1;
                self.parse_closure(start, true)
            }
            "if" => self.parse_if(start),
            "while" => self.parse_while(start),
            "for" => self.parse_for(start),
            "loop" => {
                self.pos += 1;
                let body = self.parse_block();
                self.expr_at(start, ExprKind::Loop { body })
            }
            "match" => self.parse_match(start),
            "unsafe" | "async" if self.peek(1) == "{" => {
                self.pos += 1;
                let block = self.parse_block();
                self.expr_at(start, ExprKind::Block(block))
            }
            "return" => {
                self.pos += 1;
                let operand = if self.expr_start_ahead() {
                    Some(Box::new(self.parse_expr(0, no_struct)))
                } else {
                    None
                };
                self.expr_at(start, ExprKind::Return(operand))
            }
            "break" => {
                self.pos += 1;
                if self.kind_at(self.pos) == Some(TokenKind::Lifetime) {
                    self.pos += 1;
                }
                let operand = if self.expr_start_ahead() {
                    Some(Box::new(self.parse_expr(0, no_struct)))
                } else {
                    None
                };
                self.expr_at(start, ExprKind::Break(operand))
            }
            "continue" => {
                self.pos += 1;
                if self.kind_at(self.pos) == Some(TokenKind::Lifetime) {
                    self.pos += 1;
                }
                self.expr_at(start, ExprKind::Continue)
            }
            _ => match self.kind_at(self.pos) {
                Some(TokenKind::Number) | Some(TokenKind::Literal) => {
                    let text = self.cur();
                    self.pos += 1;
                    self.expr_at(start, ExprKind::Lit(text))
                }
                Some(TokenKind::Ident) if !STOP_WORDS.contains(&self.cur()) => {
                    self.parse_path_expr(start, no_struct)
                }
                _ => {
                    match self.cur() {
                        "(" | "[" | "{" => self.skip_balanced(),
                        _ => self.pos += 1,
                    }
                    self.expr_at(start, ExprKind::Unknown)
                }
            },
        }
    }

    /// Whether the cursor could start an expression (for optional
    /// `return`/`break` operands).
    fn expr_start_ahead(&self) -> bool {
        let t = self.cur();
        if t.is_empty() || matches!(t, ";" | "," | ")" | "]" | "}") {
            return false;
        }
        if STOP_WORDS.contains(&t) || t == "else" {
            return false;
        }
        true
    }

    /// Parse `|params| body` with the cursor on `|` (or just past `move`).
    fn parse_closure(&mut self, start: usize, moves: bool) -> Expr<'b> {
        let mut params = Vec::new();
        // `||` adjacent = empty parameter list.
        if self.cur() == "|" && self.adjacent(self.pos) && self.peek(1) == "|" {
            self.pos += 2;
        } else if self.cur() == "|" {
            self.pos += 1;
            while !self.done() && self.cur() != "|" {
                let before = self.pos;
                params.push(self.parse_pat(false));
                if self.cur() == ":" {
                    self.pos += 1;
                    self.scan_type(&[",", "|"]);
                }
                if self.cur() == "," || self.pos == before {
                    self.pos += 1;
                }
            }
            if self.cur() == "|" {
                self.pos += 1;
            }
        } else {
            return self.expr_at(start, ExprKind::Unknown);
        }
        // Optional `-> T` return type forces a block body.
        if self.cur() == "-" && self.adjacent(self.pos) && self.peek(1) == ">" {
            self.pos += 2;
            self.scan_type(&["{"]);
        }
        let body = self.parse_expr(CLOSURE_BODY_BP, false);
        self.expr_at(
            start,
            ExprKind::Closure {
                moves,
                params,
                body: Box::new(body),
            },
        )
    }

    fn parse_if(&mut self, start: usize) -> Expr<'b> {
        self.pos += 1; // if
        if self.cur() == "let" {
            self.pos += 1;
            let pat = self.parse_pat(true);
            if self.cur() == "=" {
                self.pos += 1;
            }
            let scrutinee = self.parse_expr(0, true);
            let then_block = self.parse_block();
            let else_expr = self.parse_else();
            return self.expr_at(
                start,
                ExprKind::IfLet {
                    pat,
                    scrutinee: Box::new(scrutinee),
                    then_block,
                    else_expr,
                },
            );
        }
        let cond = self.parse_expr(0, true);
        let then_block = self.parse_block();
        let else_expr = self.parse_else();
        self.expr_at(
            start,
            ExprKind::If {
                cond: Box::new(cond),
                then_block,
                else_expr,
            },
        )
    }

    fn parse_else(&mut self) -> Option<Box<Expr<'b>>> {
        if self.cur() != "else" {
            return None;
        }
        self.pos += 1;
        let start = self.pos;
        if self.cur() == "if" {
            Some(Box::new(self.parse_if(start)))
        } else {
            let block = self.parse_block();
            Some(Box::new(self.expr_at(start, ExprKind::Block(block))))
        }
    }

    fn parse_while(&mut self, start: usize) -> Expr<'b> {
        self.pos += 1; // while
        if self.cur() == "let" {
            self.pos += 1;
            let pat = self.parse_pat(true);
            if self.cur() == "=" {
                self.pos += 1;
            }
            let scrutinee = self.parse_expr(0, true);
            let body = self.parse_block();
            return self.expr_at(
                start,
                ExprKind::WhileLet {
                    pat,
                    scrutinee: Box::new(scrutinee),
                    body,
                },
            );
        }
        let cond = self.parse_expr(0, true);
        let body = self.parse_block();
        self.expr_at(
            start,
            ExprKind::While {
                cond: Box::new(cond),
                body,
            },
        )
    }

    fn parse_for(&mut self, start: usize) -> Expr<'b> {
        self.pos += 1; // for
        let pat = self.parse_pat(true);
        if self.cur() == "in" {
            self.pos += 1;
        }
        let iter = self.parse_expr(0, true);
        let body = self.parse_block();
        self.expr_at(
            start,
            ExprKind::For {
                pat,
                iter: Box::new(iter),
                body,
            },
        )
    }

    fn parse_match(&mut self, start: usize) -> Expr<'b> {
        self.pos += 1; // match
        let scrutinee = self.parse_expr(0, true);
        let mut arms = Vec::new();
        if self.cur() == "{" {
            self.pos += 1;
            while !self.done() && self.cur() != "}" {
                let before = self.pos;
                self.skip_stmt_attrs();
                let pat = self.parse_pat(true);
                let guard = if self.cur() == "if" {
                    self.pos += 1;
                    Some(self.parse_expr(0, true))
                } else {
                    None
                };
                if self.cur() == "=" && self.adjacent(self.pos) && self.peek(1) == ">" {
                    self.pos += 2;
                }
                let body = self.parse_expr(0, false);
                if self.cur() == "," {
                    self.pos += 1;
                }
                arms.push(Arm { pat, guard, body });
                if self.pos == before {
                    self.pos += 1;
                }
            }
            if self.cur() == "}" {
                self.pos += 1;
            }
        }
        self.expr_at(
            start,
            ExprKind::Match {
                scrutinee: Box::new(scrutinee),
                arms,
            },
        )
    }

    /// Parse a path-rooted expression: path, turbofish call, macro call,
    /// or struct literal.
    fn parse_path_expr(&mut self, start: usize, no_struct: bool) -> Expr<'b> {
        let mut segs = Vec::new();
        let mut last_seg_tok = self.pos;
        while let Some(TokenKind::Ident) = self.kind_at(self.pos) {
            let raw = self.cur();
            last_seg_tok = self.pos;
            segs.push(raw.strip_prefix("r#").unwrap_or(raw));
            self.pos += 1;
            // `::` continuation (segment or turbofish).
            if self.cur() == ":" && self.adjacent(self.pos) && self.peek(1) == ":" {
                if self.peek(2) == "<" {
                    self.pos += 2;
                    let _generics = self.scan_generic_args();
                    // Turbofished path: continue if another `::` follows
                    // (`Vec::<u8>::new`).
                    if self.cur() == ":" && self.adjacent(self.pos) && self.peek(1) == ":" {
                        self.pos += 2;
                        continue;
                    }
                    break;
                }
                match self.kind_at(self.pos + 2) {
                    Some(TokenKind::Ident) => {
                        self.pos += 2;
                        continue;
                    }
                    _ => break,
                }
            }
            break;
        }
        // Macro invocation: `name!(..)` / `name![..]` / `name!{..}`.
        if self.cur() == "!" && matches!(self.peek(1), "(" | "[" | "{") {
            self.pos += 1;
            let delim = self.cur();
            let matches = segs.last() == Some(&"matches");
            let (args, captures) = self.parse_macro_args(delim, matches);
            let mut e = self.expr_at(
                start,
                ExprKind::MacroCall {
                    path: segs,
                    args,
                    captures,
                },
            );
            e.name_tok = last_seg_tok;
            return e;
        }
        // Struct literal: `Path { field: .. }` (suppressed in condition
        // position; the head must look like a type to avoid swallowing
        // blocks after plain variables).
        if self.cur() == "{"
            && !no_struct
            && segs
                .last()
                .map(|s| s.bytes().next().is_some_and(|b| b.is_ascii_uppercase()))
                .unwrap_or(false)
        {
            let (fields, rest) = self.parse_struct_lit_body();
            let mut e = self.expr_at(
                start,
                ExprKind::StructLit {
                    path: segs,
                    fields,
                    rest,
                },
            );
            e.name_tok = last_seg_tok;
            return e;
        }
        let mut e = self.expr_at(start, ExprKind::Path(segs));
        e.name_tok = last_seg_tok;
        e
    }

    /// Parse `{ field: expr, field, ..rest }` with the cursor on `{`.
    fn parse_struct_lit_body(&mut self) -> StructLitBody<'b> {
        let mut fields = Vec::new();
        let mut rest = None;
        self.pos += 1; // {
        while !self.done() && self.cur() != "}" {
            let before = self.pos;
            if self.cur() == "." && self.adjacent(self.pos) && self.peek(1) == "." {
                self.pos += 2;
                rest = Some(Box::new(self.parse_expr(0, false)));
                if self.cur() == "," {
                    self.pos += 1;
                }
                continue;
            }
            if self.kind_at(self.pos) == Some(TokenKind::Ident) {
                let name = self.cur();
                let name_tok = self.pos;
                self.pos += 1;
                if self.cur() == ":" && !(self.adjacent(self.pos) && self.peek(1) == ":") {
                    self.pos += 1;
                    let value = self.parse_expr(0, false);
                    fields.push((name, value));
                } else {
                    // Shorthand `field` — value is the same-named path.
                    let mut value = self.expr_at(name_tok, ExprKind::Path(vec![name]));
                    value.name_tok = name_tok;
                    fields.push((name, value));
                }
            }
            if self.cur() == "," || self.pos == before {
                self.pos += 1;
            }
        }
        if self.cur() == "}" {
            self.pos += 1;
        }
        (fields, rest)
    }

    /// Parse macro arguments. For `(`/`[` delimiters the contents are
    /// comma-separated expressions (tolerantly); `{}` bodies are skipped.
    /// A leading string-literal argument contributes its `{ident}`
    /// capture names. For `matches!` (`matches`) the second argument is a
    /// pattern, parsed as one and not kept (it is matched, not
    /// evaluated); its `if` guard is kept as an argument.
    fn parse_macro_args(&mut self, delim: &str, matches: bool) -> (Vec<Expr<'b>>, Vec<&'b str>) {
        let mut args = Vec::new();
        let mut captures = Vec::new();
        let close = match delim {
            "(" => ")",
            "[" => "]",
            _ => {
                self.skip_balanced();
                return (args, captures);
            }
        };
        self.pos += 1;
        let mut index = 0;
        while !self.done() && self.cur() != close {
            let before = self.pos;
            if matches && index == 1 {
                self.parse_pat(true);
                if self.cur() == "if" {
                    self.pos += 1;
                    args.push(self.parse_expr(0, false));
                }
            } else {
                let arg = self.parse_expr(0, false);
                if let ExprKind::Lit(text) = arg.kind {
                    if text.starts_with('"') || text.starts_with("r\"") || text.starts_with("r#") {
                        format_captures(text, &mut captures);
                    }
                }
                args.push(arg);
            }
            index += 1;
            if self.cur() == "," || self.pos == before {
                self.pos += 1;
            }
        }
        if self.cur() == close {
            self.pos += 1;
        }
        (args, captures)
    }

    /// Parse one pattern. `allow_or` permits top-level `|` alternatives
    /// (match arms, `let`); closure parameters must not eat their closing
    /// `|`.
    fn parse_pat(&mut self, allow_or: bool) -> Pat<'b> {
        if self.depth >= MAX_DEPTH {
            self.pos += 1;
            return Pat::Unknown;
        }
        self.depth += 1;
        let mut first = self.parse_pat_single();
        if allow_or && self.cur() == "|" && !(self.adjacent(self.pos) && self.peek(1) == "|") {
            let mut alts = vec![first];
            while self.cur() == "|" && !(self.adjacent(self.pos) && self.peek(1) == "|") {
                self.pos += 1;
                alts.push(self.parse_pat_single());
            }
            first = Pat::Or(alts);
        }
        self.depth -= 1;
        first
    }

    fn parse_pat_single(&mut self) -> Pat<'b> {
        // Leading `|` in or-patterns.
        match self.cur() {
            "_" => {
                self.pos += 1;
                return Pat::Wild;
            }
            "&" => {
                self.pos += 1;
                if self.cur() == "&" {
                    self.pos += 1;
                }
                if self.cur() == "mut" {
                    self.pos += 1;
                }
                return Pat::Ref(Box::new(self.parse_pat_single()));
            }
            "(" => {
                let elems = self.parse_pat_list(")");
                return Pat::Tuple(elems);
            }
            "[" => {
                let elems = self.parse_pat_list("]");
                return Pat::Slice(elems);
            }
            "." => {
                if self.adjacent(self.pos) && self.peek(1) == "." {
                    self.pos += 2;
                    if self.cur() == "=" {
                        // `..=lit` range pattern tail.
                        self.pos += 1;
                        if !self.done() {
                            self.pos += 1;
                        }
                    }
                    return Pat::Rest;
                }
                self.pos += 1;
                return Pat::Unknown;
            }
            "-" => {
                // Negative literal pattern.
                self.pos += 1;
                if matches!(
                    self.kind_at(self.pos),
                    Some(TokenKind::Number) | Some(TokenKind::Literal)
                ) {
                    let text = self.cur();
                    self.pos += 1;
                    self.consume_range_pat_tail();
                    return Pat::Lit(text);
                }
                return Pat::Unknown;
            }
            _ => {}
        }
        match self.kind_at(self.pos) {
            Some(TokenKind::Number) | Some(TokenKind::Literal) => {
                let text = self.cur();
                self.pos += 1;
                self.consume_range_pat_tail();
                Pat::Lit(text)
            }
            Some(TokenKind::Ident) => self.parse_pat_path(),
            _ => {
                self.pos += 1;
                Pat::Unknown
            }
        }
    }

    /// Consume `..= x` / `.. x` after a literal (range patterns).
    fn consume_range_pat_tail(&mut self) {
        if self.cur() == "." && self.adjacent(self.pos) && self.peek(1) == "." {
            self.pos += 2;
            if self.cur() == "=" {
                self.pos += 1;
            }
            if matches!(
                self.kind_at(self.pos),
                Some(TokenKind::Number) | Some(TokenKind::Literal) | Some(TokenKind::Ident)
            ) {
                self.pos += 1;
            }
        }
    }

    fn parse_pat_path(&mut self) -> Pat<'b> {
        let mut by_ref = false;
        let mut mutable = false;
        loop {
            match self.cur() {
                "ref" => {
                    by_ref = true;
                    self.pos += 1;
                }
                "mut" => {
                    mutable = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        if self.kind_at(self.pos) != Some(TokenKind::Ident) {
            return Pat::Unknown;
        }
        let mut segs = Vec::new();
        loop {
            if self.kind_at(self.pos) != Some(TokenKind::Ident) {
                break;
            }
            let raw = self.cur();
            segs.push(raw.strip_prefix("r#").unwrap_or(raw));
            self.pos += 1;
            if self.cur() == ":"
                && self.adjacent(self.pos)
                && self.peek(1) == ":"
                && self.kind_at(self.pos + 2) == Some(TokenKind::Ident)
            {
                self.pos += 2;
                continue;
            }
            break;
        }
        match self.cur() {
            "(" => {
                let elems = self.parse_pat_list(")");
                Pat::TupleStruct { path: segs, elems }
            }
            "{" => {
                let fields = self.parse_pat_struct_body();
                Pat::Struct { path: segs, fields }
            }
            "@" => {
                self.pos += 1;
                let _sub = self.parse_pat_single();
                // A binding is one identifier; a path before `@` is not
                // Rust, and binds its last segment.
                Pat::Ident {
                    name: segs.last().copied().unwrap_or(""),
                    by_ref,
                    mutable,
                }
            }
            _ => match segs.as_slice() {
                [name]
                    if name
                        .bytes()
                        .next()
                        .is_some_and(|b| b.is_ascii_lowercase() || b == b'_') =>
                {
                    Pat::Ident {
                        name,
                        by_ref,
                        mutable,
                    }
                }
                _ => Pat::Path(segs),
            },
        }
    }

    /// Comma-separated sub-patterns up to `close` (cursor on opener).
    fn parse_pat_list(&mut self, close: &str) -> Vec<Pat<'b>> {
        let mut elems = Vec::new();
        self.pos += 1;
        while !self.done() && self.cur() != close {
            let before = self.pos;
            elems.push(self.parse_pat(true));
            if self.cur() == "," || self.pos == before {
                self.pos += 1;
            }
        }
        if self.cur() == close {
            self.pos += 1;
        }
        elems
    }

    /// `{ field: pat, field, .. }` body of a struct pattern.
    fn parse_pat_struct_body(&mut self) -> Vec<(&'b str, Pat<'b>)> {
        let mut fields = Vec::new();
        self.pos += 1; // {
        while !self.done() && self.cur() != "}" {
            let before = self.pos;
            if self.cur() == "." && self.adjacent(self.pos) && self.peek(1) == "." {
                self.pos += 2;
                continue;
            }
            let mut by_ref = false;
            let mut mutable = false;
            loop {
                match self.cur() {
                    "ref" => {
                        by_ref = true;
                        self.pos += 1;
                    }
                    "mut" => {
                        mutable = true;
                        self.pos += 1;
                    }
                    _ => break,
                }
            }
            if self.kind_at(self.pos) == Some(TokenKind::Ident) {
                let name = self.cur();
                self.pos += 1;
                if self.cur() == ":" && !(self.adjacent(self.pos) && self.peek(1) == ":") {
                    self.pos += 1;
                    let pat = self.parse_pat(true);
                    fields.push((name, pat));
                } else {
                    fields.push((
                        name,
                        Pat::Ident {
                            name,
                            by_ref,
                            mutable,
                        },
                    ));
                }
            }
            if self.cur() == "," || self.pos == before {
                self.pos += 1;
            }
        }
        if self.cur() == "}" {
            self.pos += 1;
        }
        fields
    }
}

/// Field initializers and functional-update base of a struct literal.
type StructLitBody<'src> = (Vec<(&'src str, Expr<'src>)>, Option<Box<Expr<'src>>>);

/// The operators [`BodyParser::op_ahead`] joins from adjacent
/// single-byte `Punct` tokens.
const MULTI_OPS: &[&str] = &[
    "..=", "<<=", ">>=", "&&", "||", "==", "!=", "<=", ">=", "+=", "-=", "*=", "/=", "%=", "^=",
    "&=", "|=", "<<", ">>", "->", "=>", "::", "..",
];

/// Binding power used for unary operand parsing.
const UNARY_BP: u8 = 17;
/// Range operator binding power (prefix form).
const RANGE_BP: u8 = 3;
/// Closure bodies bind loosely so `|x| x + 1` takes the whole sum.
const CLOSURE_BODY_BP: u8 = 2;

/// Whether postfix operators may attach at this minimum binding power.
fn postfix_binds(min_bp: u8) -> bool {
    min_bp <= 18
}

/// Left/right binding powers for an infix operator; `None` for
/// non-operators (`=>`, `->`, `::`, ...), which terminate the expression.
fn infix_binding(op: &str) -> Option<(u8, u8)> {
    Some(match op {
        "=" | "+=" | "-=" | "*=" | "/=" | "%=" | "^=" | "&=" | "|=" | "<<=" | ">>=" => (2, 1),
        ".." | "..=" => (3, 3),
        "||" => (4, 5),
        "&&" => (5, 6),
        "==" | "!=" | "<" | ">" | "<=" | ">=" => (7, 8),
        "|" => (10, 11),
        "^" => (11, 12),
        "&" => (12, 13),
        "<<" | ">>" => (13, 14),
        "+" | "-" => (14, 15),
        "*" | "/" | "%" => (15, 16),
        _ => return None,
    })
}

/// Whether a two-byte `X=` operator is a compound assignment.
fn is_compound_assign(op: &str) -> bool {
    matches!(
        op,
        "+=" | "-=" | "*=" | "/=" | "%=" | "^=" | "&=" | "|=" | "<<=" | ">>="
    )
}

/// Statement-start tokens that begin nested items the body parser skips.
fn is_item_start(t: &str) -> bool {
    matches!(
        t,
        "use"
            | "struct"
            | "enum"
            | "trait"
            | "impl"
            | "mod"
            | "const"
            | "static"
            | "type"
            | "macro_rules"
            | "extern"
            | "union"
    )
}

/// Append the identifier capture names inside a format string literal
/// (`"{name}"`, `"{name:?}"`), skipping escaped `{{`, as slices of it.
fn format_captures<'src>(lit: &'src str, out: &mut Vec<&'src str>) {
    let bytes = lit.as_bytes();
    let mut i = 0usize;
    while i < bytes.len() {
        let b = bytes.get(i).copied().unwrap_or(0);
        if b == b'{' {
            if bytes.get(i + 1).copied() == Some(b'{') {
                i += 2;
                continue;
            }
            let mut j = i + 1;
            while bytes
                .get(j)
                .is_some_and(|c| c.is_ascii_alphanumeric() || *c == b'_')
            {
                j += 1;
            }
            let name = lit.get(i + 1..j).unwrap_or("");
            if name
                .bytes()
                .next()
                .is_some_and(|c| c.is_ascii_alphabetic() || c == b'_')
            {
                let closes = matches!(bytes.get(j).copied(), Some(b'}') | Some(b':'));
                if closes {
                    out.push(name);
                }
            }
            i = j.max(i + 1);
        } else {
            i += 1;
        }
    }
}

/// How a call's statement context discards (or keeps) its value.
#[derive(Clone, Copy, PartialEq)]
enum StmtCtx {
    None,
    LetUnderscore,
    StmtDrop,
}

/// Derive the legacy [`CallSite`] list from a parsed body, preserving the
/// statement-level semantics the `E1`/`K1` passes were built on: calls in
/// source order; the *outermost* call of a `expr;` statement is a
/// [`Discard::StmtDrop`], of a `let _ = expr;` statement a
/// [`Discard::LetUnderscore`]; every other call keeps its value.
pub(crate) fn collect_calls<'src>(body: &[Stmt<'src>], sig: &[&Token<'_>]) -> Vec<CallSite<'src>> {
    let mut acc: Vec<(usize, CallSite<'src>)> = Vec::new();
    collect_calls_block(body, sig, &mut acc);
    acc.sort_by_key(|(tok, _)| *tok);
    acc.into_iter().map(|(_, c)| c).collect()
}

fn collect_calls_block<'src>(
    stmts: &[Stmt<'src>],
    sig: &[&Token<'_>],
    acc: &mut Vec<(usize, CallSite<'src>)>,
) {
    for stmt in stmts {
        match stmt {
            Stmt::Let {
                pat,
                init,
                else_block,
                ..
            } => {
                if let Some(init) = init {
                    let ctx = if matches!(pat, Pat::Wild) {
                        StmtCtx::LetUnderscore
                    } else {
                        StmtCtx::None
                    };
                    collect_calls_expr(init, sig, ctx, acc);
                }
                if let Some(block) = else_block {
                    collect_calls_block(block, sig, acc);
                }
            }
            Stmt::Expr { expr, semi } => {
                let ctx = if *semi {
                    StmtCtx::StmtDrop
                } else {
                    StmtCtx::None
                };
                collect_calls_expr(expr, sig, ctx, acc);
            }
        }
    }
}

/// Walk one expression; `ctx` applies to the outermost call only.
fn collect_calls_expr<'src>(
    expr: &Expr<'src>,
    sig: &[&Token<'_>],
    ctx: StmtCtx,
    acc: &mut Vec<(usize, CallSite<'src>)>,
) {
    match &expr.kind {
        ExprKind::Call { callee, args } => {
            if let ExprKind::Path(segs) = &callee.kind {
                if let Some(name) = segs.last() {
                    let (line, col) = sig
                        .get(callee.name_tok)
                        .map(|t| (t.line, t.col))
                        .unwrap_or((expr.line, expr.col));
                    acc.push((
                        callee.name_tok,
                        CallSite {
                            name,
                            recv: Vec::new(),
                            path: segs.clone(),
                            is_method: false,
                            line,
                            col,
                            discard: discard_of(ctx),
                        },
                    ));
                }
            } else {
                collect_calls_expr(callee, sig, StmtCtx::None, acc);
            }
            for arg in args {
                collect_calls_expr(arg, sig, StmtCtx::None, acc);
            }
        }
        ExprKind::MethodCall {
            recv, name, args, ..
        } => {
            let recv_path = recv.plain_path().unwrap_or_default();
            let (line, col) = sig
                .get(expr.name_tok)
                .map(|t| (t.line, t.col))
                .unwrap_or((expr.line, expr.col));
            acc.push((
                expr.name_tok,
                CallSite {
                    name,
                    recv: recv_path,
                    path: Vec::new(),
                    is_method: true,
                    line,
                    col,
                    discard: discard_of(ctx),
                },
            ));
            collect_calls_expr(recv, sig, StmtCtx::None, acc);
            for arg in args {
                collect_calls_expr(arg, sig, StmtCtx::None, acc);
            }
        }
        _ => {
            for_each_child(expr, &mut |child| {
                collect_calls_expr(child, sig, StmtCtx::None, acc);
            });
            for block in child_blocks(expr) {
                collect_calls_block(block, sig, acc);
            }
            if let ExprKind::Match { arms, .. } = &expr.kind {
                for arm in arms {
                    if let Some(guard) = &arm.guard {
                        collect_calls_expr(guard, sig, StmtCtx::None, acc);
                    }
                    collect_calls_expr(&arm.body, sig, StmtCtx::None, acc);
                }
            }
        }
    }
}

fn discard_of(ctx: StmtCtx) -> Discard {
    match ctx {
        StmtCtx::None => Discard::None,
        StmtCtx::LetUnderscore => Discard::LetUnderscore,
        StmtCtx::StmtDrop => Discard::StmtDrop,
    }
}

/// Visit each direct child *expression* of `expr` (blocks excluded; see
/// [`child_blocks`]; match guards/bodies handled by callers needing them).
pub fn for_each_child<'e, 'src>(expr: &'e Expr<'src>, visit: &mut impl FnMut(&'e Expr<'src>)) {
    match &expr.kind {
        ExprKind::Unary { operand, .. }
        | ExprKind::Ref { operand, .. }
        | ExprKind::Cast { operand, .. }
        | ExprKind::Try { operand } => visit(operand),
        ExprKind::Binary { lhs, rhs, .. } | ExprKind::Assign { lhs, rhs, .. } => {
            visit(lhs);
            visit(rhs);
        }
        ExprKind::Call { callee, args } => {
            visit(callee);
            for a in args {
                visit(a);
            }
        }
        ExprKind::MethodCall { recv, args, .. } => {
            visit(recv);
            for a in args {
                visit(a);
            }
        }
        ExprKind::MacroCall { args, .. } => {
            for a in args {
                visit(a);
            }
        }
        ExprKind::Field { base, .. } => visit(base),
        ExprKind::Index { base, index } => {
            visit(base);
            visit(index);
        }
        ExprKind::Range { lo, hi, .. } => {
            if let Some(lo) = lo {
                visit(lo);
            }
            if let Some(hi) = hi {
                visit(hi);
            }
        }
        ExprKind::Tuple(elems) | ExprKind::Array(elems) => {
            for e in elems {
                visit(e);
            }
        }
        ExprKind::Repeat { elem, len } => {
            visit(elem);
            visit(len);
        }
        ExprKind::StructLit { fields, rest, .. } => {
            for (_, e) in fields {
                visit(e);
            }
            if let Some(rest) = rest {
                visit(rest);
            }
        }
        ExprKind::If {
            cond, else_expr, ..
        } => {
            visit(cond);
            if let Some(e) = else_expr {
                visit(e);
            }
        }
        ExprKind::IfLet {
            scrutinee,
            else_expr,
            ..
        } => {
            visit(scrutinee);
            if let Some(e) = else_expr {
                visit(e);
            }
        }
        ExprKind::While { cond, .. } => visit(cond),
        ExprKind::WhileLet { scrutinee, .. } => visit(scrutinee),
        ExprKind::For { iter, .. } => visit(iter),
        ExprKind::Match { scrutinee, .. } => visit(scrutinee),
        ExprKind::Closure { body, .. } => visit(body),
        ExprKind::Return(operand) | ExprKind::Break(operand) => {
            if let Some(e) = operand {
                visit(e);
            }
        }
        ExprKind::Path(_)
        | ExprKind::Lit(_)
        | ExprKind::Block(_)
        | ExprKind::Loop { .. }
        | ExprKind::Continue
        | ExprKind::Unknown => {}
    }
}

/// The statement blocks directly owned by `expr` (loop bodies, branch
/// blocks) — callers recurse into these for whole-tree walks.
pub fn child_blocks<'e, 'src>(expr: &'e Expr<'src>) -> Vec<&'e Vec<Stmt<'src>>> {
    match &expr.kind {
        ExprKind::Block(b) => vec![b],
        ExprKind::If { then_block, .. } => vec![then_block],
        ExprKind::IfLet { then_block, .. } => vec![then_block],
        ExprKind::While { body, .. }
        | ExprKind::WhileLet { body, .. }
        | ExprKind::For { body, .. }
        | ExprKind::Loop { body } => vec![body],
        _ => Vec::new(),
    }
}

/// Visit every expression in a statement list, descending into nested
/// blocks and control flow.
pub fn for_each_expr<'b, 'src>(stmts: &'b [Stmt<'src>], f: &mut impl FnMut(&'b Expr<'src>)) {
    fn visit<'b, 'src>(e: &'b Expr<'src>, f: &mut impl FnMut(&'b Expr<'src>)) {
        f(e);
        for_each_child(e, &mut |c| visit(c, f));
        for block in child_blocks(e) {
            for_each_expr(block, f);
        }
    }
    for stmt in stmts {
        match stmt {
            Stmt::Let {
                init, else_block, ..
            } => {
                if let Some(e) = init {
                    visit(e, f);
                }
                if let Some(b) = else_block {
                    for_each_expr(b, f);
                }
            }
            Stmt::Expr { expr, .. } => visit(expr, f),
        }
    }
}

/// Visit every `let` statement (pattern, type annotation, initializer)
/// in a statement list, including lets inside nested blocks, in source
/// order.
pub fn for_each_let<'b, 'src>(
    stmts: &'b [Stmt<'src>],
    f: &mut impl FnMut(&'b Pat<'src>, &'b [&'src str], Option<&'b Expr<'src>>),
) {
    fn in_expr<'b, 'src>(
        e: &'b Expr<'src>,
        f: &mut impl FnMut(&'b Pat<'src>, &'b [&'src str], Option<&'b Expr<'src>>),
    ) {
        for_each_child(e, &mut |c| in_expr(c, f));
        for block in child_blocks(e) {
            for_each_let(block, f);
        }
    }
    for stmt in stmts {
        match stmt {
            Stmt::Let {
                pat,
                ty,
                init,
                else_block,
                ..
            } => {
                f(pat, ty, init.as_ref());
                if let Some(e) = init {
                    in_expr(e, f);
                }
                if let Some(b) = else_block {
                    for_each_let(b, f);
                }
            }
            Stmt::Expr { expr, .. } => in_expr(expr, f),
        }
    }
}
