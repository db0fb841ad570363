//! A recursive-descent *item* parser on top of [`crate::lexer`].
//!
//! The syntax-aware rule passes (`L1` layering, `E1` error flow, `K1`
//! lock order, `P1` dead pub) need more structure than a flat token
//! stream, but far less than a full Rust grammar: items, impls, fn
//! signatures, use-trees, and the call/method expressions inside fn
//! bodies. This parser recognizes exactly that slice — statement-level
//! resolution, no expression grammar — and is tolerant by construction:
//! any token sequence it does not recognize as an item is skipped, so
//! malformed input degrades to fewer items, never to a panic.
//!
//! Spans are inclusive index ranges into the *significant* token stream
//! (whitespace and comments dropped). Sibling item spans never overlap
//! and child spans nest inside their parent's — a property the parser
//! proptest (`tests/parser_props.rs`) enforces on arbitrary input.

use crate::lexer::{lex, Token, TokenKind};

/// What a parsed item is. Every name and type token borrows the source
/// text (`'src`), so a parse copies no identifier.
#[derive(Debug, Clone, PartialEq)]
pub enum ItemKind<'src> {
    /// A free or associated function.
    Fn(FnInfo<'src>),
    /// A struct, with its named fields.
    Struct { fields: Vec<FieldInfo<'src>> },
    /// An enum or union.
    Enum,
    /// A trait declaration (children hold provided methods).
    Trait,
    /// An `impl` block; `of_trait` is true for `impl Trait for Type`.
    Impl { of_trait: bool, self_ty: &'src str },
    /// An inline or file module (children hold its items).
    Mod,
    /// A `use` declaration; `paths` are the expanded leaf paths.
    Use { paths: Vec<Vec<&'src str>> },
    /// A `const` or `static` item.
    Const,
    /// A `type` alias.
    TypeAlias,
    /// A `macro_rules!` definition.
    MacroDef,
}

/// A named struct field and whether its declared type is a lock.
#[derive(Debug, Clone, PartialEq)]
pub struct FieldInfo<'src> {
    /// Field name.
    pub name: &'src str,
    /// Whether the declared type mentions `Mutex` or `RwLock`.
    pub is_lock: bool,
    /// Whether the declared type mentions `HashMap` or `HashSet`
    /// (determinism-taint sources for `D3`).
    pub is_hash: bool,
    /// Declared type tokens, verbatim (type/effect layer input: numeric
    /// field types for `N1`/`N2`, `Atomic*` detection for `A1`).
    pub ty: Vec<&'src str>,
}

/// One declared fn parameter.
#[derive(Debug, Clone, PartialEq)]
pub struct Param<'src> {
    /// Parameter name; `self` for receiver forms, empty for pattern
    /// parameters (`(a, b): (u32, u32)`).
    pub name: &'src str,
    /// Declared type tokens (empty for `self` receivers).
    pub ty: Vec<&'src str>,
}

/// Function-level facts the rule passes consume.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FnInfo<'src> {
    /// Whether the declared return type mentions `Result`.
    pub returns_result: bool,
    /// Declared return type tokens, verbatim (empty for `()` fns). The
    /// type index derives ctor/method return types from these.
    pub ret: Vec<&'src str>,
    /// Call and method-call expressions in the body, in source order
    /// (derived from `body`; kept for the statement-level passes).
    pub calls: Vec<CallSite<'src>>,
    /// Declared parameters, in order.
    pub params: Vec<Param<'src>>,
    /// The parsed body statements (expression grammar; see
    /// [`crate::expr`]). Empty for bodyless fns.
    pub body: Vec<crate::expr::Stmt<'src>>,
}

/// How a call's value leaves (or fails to leave) its statement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Discard {
    /// The call is not statement-final; its value flows onward.
    None,
    /// `let _ = call(...);` — value explicitly thrown away.
    LetUnderscore,
    /// `call(...);` as a bare statement — value implicitly dropped.
    StmtDrop,
}

/// One call or method-call expression inside a fn body.
#[derive(Debug, Clone, PartialEq)]
pub struct CallSite<'src> {
    /// Callee name: last path segment (`parse` in `Url::parse`) or the
    /// method name (`lock` in `self.metrics.lock()`).
    pub name: &'src str,
    /// For method calls, the receiver's plain path (`["self", "metrics"]`
    /// for `self.metrics.lock()`); empty when the receiver is itself an
    /// expression (chained calls) or for path calls.
    pub recv: Vec<&'src str>,
    /// For path calls, the full path (`["Url", "parse"]`); empty for
    /// method calls.
    pub path: Vec<&'src str>,
    /// True for `.name(...)` method syntax.
    pub is_method: bool,
    /// 1-based line of the callee token.
    pub line: u32,
    /// 1-based column of the callee token.
    pub col: u32,
    /// Whether (and how) the call's value is discarded.
    pub discard: Discard,
}

/// One parsed item with its nested children.
#[derive(Debug, Clone, PartialEq)]
pub struct Item<'src> {
    /// Classification plus kind-specific facts.
    pub kind: ItemKind<'src>,
    /// Item name; empty for `impl` blocks and `use` declarations.
    pub name: &'src str,
    /// Whether the item is plain `pub` (scoped visibility such as
    /// `pub(crate)` does not count — it is already restricted).
    pub is_pub: bool,
    /// Whether the item sits under a `#[cfg(test)]` attribute (directly
    /// or via an enclosing module).
    pub cfg_test: bool,
    /// 1-based line of the item's defining keyword.
    pub line: u32,
    /// 1-based column of the item's defining keyword.
    pub col: u32,
    /// Inclusive span in significant-token indices.
    pub span: (usize, usize),
    /// Identifier texts inside the item's span (children included, raw
    /// `r#` prefixes stripped), sorted and deduplicated — the names this
    /// item references. Dead-pub liveness propagates through these, so
    /// they are filled only for the items it propagates through (see
    /// `Item::propagates_liveness`): empty for containers, `use`
    /// declarations, unnamed and `#[cfg(test)]` items.
    pub idents: Vec<&'src str>,
    /// Nested items (mod bodies, impl/trait members).
    pub children: Vec<Item<'src>>,
}

impl<'src> Item<'src> {
    /// Whether `P1` liveness propagates through this item: a named
    /// non-test item that is not a container (a `mod`'s or `impl`'s span
    /// covers its children, which propagate individually) or a `use`
    /// declaration (an import is not a use; the item consuming it
    /// propagates).
    pub(crate) fn propagates_liveness(&self) -> bool {
        !self.cfg_test
            && !self.name.is_empty()
            && !matches!(
                self.kind,
                ItemKind::Mod | ItemKind::Impl { .. } | ItemKind::Use { .. }
            )
    }

    /// Depth-first iteration over this item and all descendants.
    pub fn walk<'a>(&'a self, out: &mut Vec<&'a Item<'src>>) {
        out.push(self);
        for child in &self.children {
            child.walk(out);
        }
    }
}

/// A fully parsed source file.
#[derive(Debug, Clone, PartialEq)]
pub struct ParsedFile<'src> {
    /// Workspace-relative path with forward slashes.
    pub rel_path: &'src str,
    /// Top-level items.
    pub items: Vec<Item<'src>>,
    /// Number of significant tokens (span upper bound).
    pub sig_len: usize,
}

impl<'src> ParsedFile<'src> {
    /// All items, flattened depth-first.
    pub fn all_items(&self) -> Vec<&Item<'src>> {
        let mut out = Vec::new();
        for item in &self.items {
            item.walk(&mut out);
        }
        out
    }
}

/// Parse one file's source into its item tree.
pub fn parse_file<'src>(rel_path: &'src str, src: &'src str) -> ParsedFile<'src> {
    parse_tokens(rel_path, &lex(src))
}

/// Parse one file's item tree from its token stream (as [`lex`] returns
/// it), so a scan that already lexed the file does not lex it again.
pub(crate) fn parse_tokens<'src>(rel_path: &'src str, tokens: &[Token<'src>]) -> ParsedFile<'src> {
    let sig: Vec<&Token<'src>> = tokens
        .iter()
        .filter(|t| {
            !matches!(
                t.kind,
                TokenKind::Whitespace | TokenKind::LineComment | TokenKind::BlockComment
            )
        })
        .collect();
    let texts: Vec<&'src str> = sig.iter().map(|t| t.text).collect();
    let mut parser = Parser {
        sig: &sig,
        texts: &texts,
        pos: 0,
    };
    let mut items = parser.parse_items(false, false);
    fill_idents(&mut items, &sig);
    ParsedFile {
        rel_path,
        items,
        sig_len: sig.len(),
    }
}

/// Attach the identifier texts inside its span to every item liveness
/// propagates through, as one sorted, deduplicated list of source slices.
fn fill_idents<'src>(items: &mut [Item<'src>], sig: &[&Token<'src>]) {
    for item in items {
        if item.propagates_liveness() {
            let (lo, hi) = item.span;
            item.idents = sig
                .iter()
                .take(hi + 1)
                .skip(lo)
                .filter(|t| t.kind == TokenKind::Ident)
                .map(|t| t.text.strip_prefix("r#").unwrap_or(t.text))
                .collect();
            item.idents.sort_unstable();
            item.idents.dedup();
        }
        fill_idents(&mut item.children, sig);
    }
}

struct Parser<'a, 'b> {
    sig: &'a [&'a Token<'b>],
    texts: &'a [&'b str],
    pos: usize,
}

/// Keywords that can never start the path of a call expression.
const NON_CALL_KEYWORDS: &[&str] = &[
    "if", "else", "while", "for", "match", "loop", "return", "break", "continue", "fn", "let",
    "move", "in", "as", "where", "impl", "dyn", "ref", "mut", "pub", "use", "mod", "struct",
    "enum", "trait", "const", "static", "type", "unsafe", "extern", "async", "await",
];

impl<'a, 'b> Parser<'a, 'b> {
    fn at(&self, i: usize) -> &'b str {
        self.texts.get(i).copied().unwrap_or("")
    }

    fn cur(&self) -> &'b str {
        self.at(self.pos)
    }

    fn peek(&self, n: usize) -> &'b str {
        self.at(self.pos + n)
    }

    fn pos_of(&self, i: usize) -> (u32, u32) {
        self.sig.get(i).map(|t| (t.line, t.col)).unwrap_or((0, 0))
    }

    /// Parse items until end-of-input or (when `stop_at_brace`) a `}` at
    /// this nesting level. `in_cfg_test` propagates `#[cfg(test)]` from an
    /// enclosing module.
    fn parse_items(&mut self, stop_at_brace: bool, in_cfg_test: bool) -> Vec<Item<'b>> {
        let mut items = Vec::new();
        while self.pos < self.texts.len() {
            if stop_at_brace && self.cur() == "}" {
                break;
            }
            let start = self.pos;
            let cfg_test = in_cfg_test | self.skip_attrs();
            let is_pub = self.skip_visibility();
            self.skip_fn_qualifiers();
            let (line, col) = self.pos_of(self.pos);
            let parsed = match self.cur() {
                "fn" => self.parse_fn(),
                "struct" => self.parse_struct(),
                "enum" | "union" => self.parse_enum_like(),
                "trait" => self.parse_trait(cfg_test),
                "impl" => self.parse_impl(cfg_test),
                "mod" => self.parse_mod(cfg_test),
                "use" => self.parse_use(),
                "const" | "static" => self.parse_const_static(),
                "type" => self.parse_type_alias(),
                "macro_rules" => self.parse_macro_def(),
                _ => None,
            };
            match parsed {
                Some((kind, name, children)) => items.push(Item {
                    kind,
                    name,
                    is_pub,
                    cfg_test,
                    line,
                    col,
                    span: (start, self.pos.saturating_sub(1).max(start)),
                    idents: Vec::new(),
                    children,
                }),
                None => {
                    // Not an item start: skip one token (tolerant recovery).
                    // Balanced groups are skipped whole so `}`s inside
                    // unrecognized constructs don't end an enclosing body.
                    match self.cur() {
                        "{" | "(" | "[" => self.skip_balanced(),
                        _ => self.pos += 1,
                    }
                }
            }
        }
        items
    }

    /// Skip leading attributes; report whether any is `#[cfg(test)]`.
    fn skip_attrs(&mut self) -> bool {
        let mut cfg_test = false;
        while self.cur() == "#" {
            let mut j = self.pos + 1;
            if self.at(j) == "!" {
                j += 1;
            }
            if self.at(j) != "[" {
                break;
            }
            let attr_start = j;
            let mut depth = 0usize;
            while j < self.texts.len() {
                match self.at(j) {
                    "[" => depth += 1,
                    "]" => {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    _ => {}
                }
                j += 1;
            }
            let attr: Vec<&str> = self.texts[attr_start..=j.min(self.texts.len() - 1)].to_vec();
            if attr.windows(4).any(|w| w == ["cfg", "(", "test", ")"]) {
                cfg_test = true;
            }
            self.pos = (j + 1).min(self.texts.len());
        }
        cfg_test
    }

    /// Skip `pub`, `pub(crate)`, `pub(in path)`. Returns true only for
    /// *plain* `pub`: scoped visibility is already restricted, so the
    /// dead-pub rule treats it as non-public (demoting an unreferenced
    /// `pub` item to `pub(crate)` is a recognized fix).
    fn skip_visibility(&mut self) -> bool {
        if self.cur() != "pub" {
            return false;
        }
        self.pos += 1;
        if self.cur() == "(" {
            self.skip_balanced();
            return false;
        }
        true
    }

    /// Skip `const`/`unsafe`/`async`/`extern "C"` fn qualifiers (only when
    /// a `fn` actually follows, so `const NAME` items are untouched).
    fn skip_fn_qualifiers(&mut self) {
        loop {
            match self.cur() {
                "const" | "unsafe" | "async" if self.is_fn_ahead() => self.pos += 1,
                "extern" if self.is_fn_ahead() => {
                    self.pos += 1;
                    if self.sig.get(self.pos).map(|t| t.kind) == Some(TokenKind::Literal) {
                        self.pos += 1;
                    }
                }
                _ => break,
            }
        }
    }

    /// Whether a `fn` keyword follows within the next few qualifier slots.
    fn is_fn_ahead(&self) -> bool {
        (1..=3).any(|n| self.peek(n) == "fn")
    }

    /// Skip one balanced `(`/`[`/`{` group (cursor on the opener).
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
        while self.pos < self.texts.len() {
            let is_open = self.cur() == open;
            let is_close = self.cur() == close;
            self.pos += 1;
            if is_open {
                depth += 1;
            } else if is_close {
                depth -= 1;
                if depth == 0 {
                    return;
                }
            }
        }
    }

    /// Skip a generics list (cursor on `<`), tolerating `->` inside
    /// `Fn(..) -> T` bounds.
    fn skip_generics(&mut self) {
        if self.cur() != "<" {
            return;
        }
        let mut depth = 0i32;
        while self.pos < self.texts.len() {
            if self.cur() == "-" && self.peek(1) == ">" {
                self.pos += 2;
                continue;
            }
            let is_lt = self.cur() == "<";
            let is_gt = self.cur() == ">";
            self.pos += 1;
            if is_lt {
                depth += 1;
            } else if is_gt {
                depth -= 1;
                if depth == 0 {
                    return;
                }
            }
        }
    }

    /// Collect type tokens until one of `stops` at bracket-depth 0;
    /// cursor is left on the stop token. Returns the collected texts.
    fn scan_type_until(&mut self, stops: &[&str]) -> Vec<&'b str> {
        let mut out = Vec::new();
        let mut angle = 0i32;
        let mut group = 0i32;
        while self.pos < self.texts.len() {
            let t = self.cur();
            if t == "-" && self.peek(1) == ">" {
                out.push("->");
                self.pos += 2;
                continue;
            }
            if angle == 0 && group == 0 && stops.contains(&t) {
                break;
            }
            match t {
                "<" => angle += 1,
                ">" => angle -= 1,
                "(" | "[" | "{" => group += 1,
                ")" | "]" | "}" => {
                    if group == 0 {
                        break; // closing an enclosing group: stop here
                    }
                    group -= 1;
                }
                _ => {}
            }
            out.push(t);
            self.pos += 1;
        }
        out
    }

    fn parse_fn(&mut self) -> Option<(ItemKind<'b>, &'b str, Vec<Item<'b>>)> {
        self.pos += 1; // fn
        let name = self.ident()?;
        self.skip_generics();
        if self.cur() != "(" {
            return None;
        }
        let params_start = self.pos;
        self.skip_balanced(); // params
        let params_end = self.pos; // one past `)`
        let params = self.parse_params(params_start + 1, params_end.saturating_sub(1));
        let mut returns_result = false;
        let mut ret = Vec::new();
        if self.cur() == "-" && self.peek(1) == ">" {
            self.pos += 2;
            ret = self.scan_type_until(&["{", ";", "where"]);
            returns_result = ret.contains(&"Result");
        }
        if self.cur() == "where" {
            self.scan_type_until(&["{", ";"]);
        }
        let mut calls = Vec::new();
        let mut body = Vec::new();
        if self.cur() == "{" {
            let body_start = self.pos;
            self.skip_balanced();
            let body_end = self.pos; // one past the closing brace
            body = crate::expr::parse_body(
                self.sig,
                self.texts,
                body_start + 1,
                body_end.saturating_sub(1),
            );
            calls = crate::expr::collect_calls(&body, self.sig);
        } else if self.cur() == ";" {
            self.pos += 1;
        }
        Some((
            ItemKind::Fn(FnInfo {
                returns_result,
                ret,
                calls,
                params,
                body,
            }),
            name,
            Vec::new(),
        ))
    }

    /// Parse the parameter list token range `[start, end)` (inside the
    /// parens) into [`Param`]s: depth-0 commas split parameters, the name
    /// is the single identifier before a depth-0 `:` (empty for pattern
    /// parameters), and receiver forms collapse to name `self`.
    fn parse_params(&mut self, start: usize, end: usize) -> Vec<Param<'b>> {
        let mut params = Vec::new();
        let mut j = start;
        while j < end {
            // Find this parameter's end: a comma at bracket depth 0
            // (`->` inside `Fn(..) -> T` types skipped whole).
            let mut depth = 0i32;
            let mut k = j;
            while k < end {
                match self.at(k) {
                    "-" if self.at(k + 1) == ">" => {
                        k += 2;
                        continue;
                    }
                    "(" | "[" | "{" | "<" => depth += 1,
                    ")" | "]" | "}" | ">" => depth -= 1,
                    "," if depth == 0 => break,
                    _ => {}
                }
                k += 1;
            }
            if let Some(param) = self.parse_one_param(j, k) {
                params.push(param);
            }
            j = k + 1;
        }
        params
    }

    /// Shape one parameter's token range `[j, k)`.
    fn parse_one_param(&self, mut j: usize, k: usize) -> Option<Param<'b>> {
        // Skip attributes and leading modifiers.
        while j < k {
            match self.at(j) {
                "#" => {
                    // `#[..]`: advance past the bracket group.
                    let mut depth = 0i32;
                    j += 1;
                    while j < k {
                        match self.at(j) {
                            "[" => depth += 1,
                            "]" => {
                                depth -= 1;
                                if depth == 0 {
                                    j += 1;
                                    break;
                                }
                            }
                            _ => {}
                        }
                        j += 1;
                    }
                }
                "mut" | "&" => j += 1,
                t if self.sig.get(j).map(|s| s.kind) == Some(TokenKind::Lifetime)
                    && !t.is_empty() =>
                {
                    j += 1
                }
                _ => break,
            }
        }
        if j >= k {
            return None;
        }
        if self.at(j) == "self" {
            return Some(Param {
                name: "self",
                ty: Vec::new(),
            });
        }
        // Find the depth-0 `:` separating pattern from type.
        let mut depth = 0i32;
        let mut colon = None;
        let mut m = j;
        while m < k {
            match self.at(m) {
                "(" | "[" | "{" | "<" => depth += 1,
                ")" | "]" | "}" | ">" => depth -= 1,
                ":" if depth == 0 && self.at(m + 1) != ":" && self.at(m.wrapping_sub(1)) != ":" => {
                    colon = Some(m);
                    break;
                }
                _ => {}
            }
            m += 1;
        }
        let colon = colon?;
        let name = if colon == j + 1 && self.sig.get(j).map(|s| s.kind) == Some(TokenKind::Ident) {
            self.at(j)
        } else {
            ""
        };
        let ty: Vec<&'b str> = ((colon + 1)..k).map(|i| self.at(i)).collect();
        Some(Param { name, ty })
    }

    fn parse_struct(&mut self) -> Option<(ItemKind<'b>, &'b str, Vec<Item<'b>>)> {
        self.pos += 1; // struct
        let name = self.ident()?;
        self.skip_generics();
        if self.cur() == "where" {
            self.scan_type_until(&["{", ";", "("]);
        }
        let mut fields = Vec::new();
        match self.cur() {
            "(" => {
                self.skip_balanced();
                if self.cur() == ";" {
                    self.pos += 1;
                }
            }
            "{" => {
                let end = self.matching_brace(self.pos);
                self.pos += 1;
                while self.pos < end {
                    self.skip_attrs();
                    self.skip_visibility();
                    let Some(field) = self.ident() else {
                        self.pos += 1;
                        continue;
                    };
                    if self.cur() != ":" {
                        continue;
                    }
                    self.pos += 1;
                    let ty = self.scan_type_until(&[","]);
                    let is_lock = ty.iter().any(|&t| t == "Mutex" || t == "RwLock");
                    let is_hash = ty.iter().any(|&t| t == "HashMap" || t == "HashSet");
                    fields.push(FieldInfo {
                        name: field,
                        is_lock,
                        is_hash,
                        ty,
                    });
                    if self.cur() == "," {
                        self.pos += 1;
                    }
                }
                self.pos = (end + 1).min(self.texts.len());
            }
            ";" => self.pos += 1,
            _ => {}
        }
        Some((ItemKind::Struct { fields }, name, Vec::new()))
    }

    fn parse_enum_like(&mut self) -> Option<(ItemKind<'b>, &'b str, Vec<Item<'b>>)> {
        self.pos += 1;
        let name = self.ident()?;
        self.skip_generics();
        if self.cur() == "where" {
            self.scan_type_until(&["{", ";"]);
        }
        if self.cur() == "{" {
            self.skip_balanced();
        } else if self.cur() == ";" {
            self.pos += 1;
        }
        Some((ItemKind::Enum, name, Vec::new()))
    }

    fn parse_trait(&mut self, cfg_test: bool) -> Option<(ItemKind<'b>, &'b str, Vec<Item<'b>>)> {
        self.pos += 1;
        let name = self.ident()?;
        self.skip_generics();
        self.scan_type_until(&["{", ";"]); // supertrait bounds / where
        let mut children = Vec::new();
        if self.cur() == "{" {
            self.pos += 1;
            children = self.parse_items(true, cfg_test);
            if self.cur() == "}" {
                self.pos += 1;
            }
        } else if self.cur() == ";" {
            self.pos += 1;
        }
        Some((ItemKind::Trait, name, children))
    }

    fn parse_impl(&mut self, cfg_test: bool) -> Option<(ItemKind<'b>, &'b str, Vec<Item<'b>>)> {
        self.pos += 1;
        self.skip_generics();
        let first_ty = self.scan_type_until(&["{", "for", ";"]);
        let (of_trait, self_ty) = if self.cur() == "for" {
            self.pos += 1;
            let ty = self.scan_type_until(&["{", ";", "where"]);
            (true, type_head(&ty))
        } else {
            (false, type_head(&first_ty))
        };
        if self.cur() == "where" {
            self.scan_type_until(&["{", ";"]);
        }
        let mut children = Vec::new();
        if self.cur() == "{" {
            self.pos += 1;
            children = self.parse_items(true, cfg_test);
            if self.cur() == "}" {
                self.pos += 1;
            }
        } else if self.cur() == ";" {
            self.pos += 1;
        }
        Some((ItemKind::Impl { of_trait, self_ty }, "", children))
    }

    fn parse_mod(&mut self, cfg_test: bool) -> Option<(ItemKind<'b>, &'b str, Vec<Item<'b>>)> {
        self.pos += 1;
        let name = self.ident()?;
        let mut children = Vec::new();
        if self.cur() == "{" {
            self.pos += 1;
            children = self.parse_items(true, cfg_test);
            if self.cur() == "}" {
                self.pos += 1;
            }
        } else if self.cur() == ";" {
            self.pos += 1;
        }
        Some((ItemKind::Mod, name, children))
    }

    fn parse_use(&mut self) -> Option<(ItemKind<'b>, &'b str, Vec<Item<'b>>)> {
        self.pos += 1; // use
        let mut paths = Vec::new();
        self.parse_use_tree(&mut Vec::new(), &mut paths);
        if self.cur() == ";" {
            self.pos += 1;
        }
        Some((ItemKind::Use { paths }, "", Vec::new()))
    }

    /// Parse one use-tree level, expanding `{...}` groups into leaf paths.
    fn parse_use_tree(&mut self, prefix: &mut Vec<&'b str>, out: &mut Vec<Vec<&'b str>>) {
        let depth_at_entry = prefix.len();
        loop {
            match self.cur() {
                "{" => {
                    self.pos += 1;
                    loop {
                        self.parse_use_tree(prefix, out);
                        if self.cur() == "," {
                            self.pos += 1;
                            continue;
                        }
                        break;
                    }
                    if self.cur() == "}" {
                        self.pos += 1;
                    }
                    break;
                }
                "*" => {
                    self.pos += 1;
                    prefix.push("*");
                    out.push(prefix.clone());
                    prefix.pop();
                    break;
                }
                "as" => {
                    // Rename: record the leaf under its original path.
                    self.pos += 1;
                    self.ident();
                    out.push(prefix.clone());
                    break;
                }
                t if is_path_segment(t) => {
                    prefix.push(t);
                    self.pos += 1;
                    if self.cur() == ":" && self.peek(1) == ":" {
                        self.pos += 2;
                        continue;
                    }
                    out.push(prefix.clone());
                    break;
                }
                _ => break,
            }
        }
        prefix.truncate(depth_at_entry);
    }

    fn parse_const_static(&mut self) -> Option<(ItemKind<'b>, &'b str, Vec<Item<'b>>)> {
        self.pos += 1; // const | static
        if self.cur() == "mut" {
            self.pos += 1;
        }
        let name = self.ident()?;
        // Skip `: Type = expr;` — brackets balanced, stop at depth-0 `;`.
        let mut depth = 0i32;
        while self.pos < self.texts.len() {
            let t = self.cur();
            match t {
                "(" | "[" | "{" => depth += 1,
                ")" | "]" | "}" => {
                    if depth == 0 {
                        break;
                    }
                    depth -= 1;
                }
                ";" if depth == 0 => {
                    self.pos += 1;
                    break;
                }
                _ => {}
            }
            self.pos += 1;
        }
        Some((ItemKind::Const, name, Vec::new()))
    }

    fn parse_type_alias(&mut self) -> Option<(ItemKind<'b>, &'b str, Vec<Item<'b>>)> {
        self.pos += 1;
        let name = self.ident()?;
        self.scan_type_until(&[";"]);
        if self.cur() == ";" {
            self.pos += 1;
        }
        Some((ItemKind::TypeAlias, name, Vec::new()))
    }

    fn parse_macro_def(&mut self) -> Option<(ItemKind<'b>, &'b str, Vec<Item<'b>>)> {
        self.pos += 1; // macro_rules
        if self.cur() == "!" {
            self.pos += 1;
        }
        let name = self.ident()?;
        if matches!(self.cur(), "{" | "(" | "[") {
            self.skip_balanced();
        }
        Some((ItemKind::MacroDef, name, Vec::new()))
    }

    /// Consume one identifier token, if present.
    fn ident(&mut self) -> Option<&'b str> {
        let tok = self.sig.get(self.pos)?;
        if tok.kind != TokenKind::Ident {
            return None;
        }
        self.pos += 1;
        Some(tok.text)
    }

    /// Index of the `}` matching the `{` at `open` (or last token).
    fn matching_brace(&self, open: usize) -> usize {
        let mut depth = 0usize;
        let mut j = open;
        while j < self.texts.len() {
            match self.at(j) {
                "{" => depth += 1,
                "}" => {
                    depth -= 1;
                    if depth == 0 {
                        return j;
                    }
                }
                _ => {}
            }
            j += 1;
        }
        self.texts.len().saturating_sub(1)
    }
}

/// Whether a token can be a use-path segment.
fn is_path_segment(t: &str) -> bool {
    !t.is_empty()
        && t.bytes()
            .all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b'#')
        && t != "as"
}

/// The "head" identifier of a type token run: the last identifier seen at
/// angle-depth 0 (`html::dom::Node<T>` → `Node`, `fmt::Display` →
/// `Display`).
fn type_head<'src>(ty: &[&'src str]) -> &'src str {
    let mut depth = 0i32;
    let mut head = "";
    for &t in ty {
        match t {
            "<" => depth += 1,
            ">" => depth -= 1,
            _ => {
                if depth == 0
                    && t.bytes().all(|b| b.is_ascii_alphanumeric() || b == b'_')
                    && t.bytes().next().is_some_and(|b| !b.is_ascii_digit())
                    && !NON_CALL_KEYWORDS.contains(&t)
                {
                    head = t;
                }
            }
        }
    }
    head
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names<'a>(items: &[Item<'a>]) -> Vec<&'a str> {
        items.iter().map(|i| i.name).collect()
    }

    #[test]
    fn parses_top_level_items() {
        let src = r#"
            use std::collections::BTreeMap;
            pub struct Config { pub depth: u32 }
            pub enum Mode { A, B }
            pub trait Runner { fn run(&self); }
            pub const LIMIT: usize = 10;
            pub type Pair = (u32, u32);
            pub fn go(x: u32) -> u32 { x + 1 }
            mod inner { pub fn helper() {} }
        "#;
        let file = parse_file("crates/x/src/lib.rs", src);
        assert_eq!(
            names(&file.items),
            vec!["", "Config", "Mode", "Runner", "LIMIT", "Pair", "go", "inner"]
        );
        let inner = &file.items[7];
        assert_eq!(names(&inner.children), vec!["helper"]);
        assert!(inner.children[0].is_pub);
    }

    #[test]
    fn sibling_spans_do_not_overlap() {
        let src = "fn a() { b(); }\nfn b() {}\nstruct S;\n";
        let file = parse_file("x.rs", src);
        assert_eq!(file.items.len(), 3);
        for w in file.items.windows(2) {
            assert!(w[0].span.1 < w[1].span.0, "{:?}", file.items);
        }
    }

    #[test]
    fn fn_return_type_result_detected() {
        let src = "pub fn f() -> Result<u32, Error> { Ok(1) }\npub fn g() -> u32 { 1 }\npub fn h() -> io::Result<()> { Ok(()) }\n";
        let file = parse_file("x.rs", src);
        let results: Vec<bool> = file
            .items
            .iter()
            .filter_map(|i| match &i.kind {
                ItemKind::Fn(f) => Some(f.returns_result),
                _ => None,
            })
            .collect();
        assert_eq!(results, vec![true, false, true]);
    }

    #[test]
    fn impl_blocks_classify_trait_vs_inherent() {
        let src =
            "impl Foo { pub fn a(&self) {} }\nimpl fmt::Display for Foo { fn fmt(&self) {} }\n";
        let file = parse_file("x.rs", src);
        match (&file.items[0].kind, &file.items[1].kind) {
            (
                ItemKind::Impl {
                    of_trait: false,
                    self_ty: t1,
                },
                ItemKind::Impl {
                    of_trait: true,
                    self_ty: t2,
                },
            ) => {
                assert_eq!(*t1, "Foo");
                assert_eq!(*t2, "Foo");
            }
            other => panic!("unexpected kinds: {other:?}"),
        }
        assert_eq!(names(&file.items[0].children), vec!["a"]);
        assert!(file.items[0].children[0].is_pub);
    }

    #[test]
    fn use_trees_expand_to_leaf_paths() {
        let src = "use aipan_net::{Client, host::{Internet, StaticSite}};\nuse aipan_taxonomy::Aspect as A;\nuse std::fmt::*;\n";
        let file = parse_file("x.rs", src);
        let mut all: Vec<Vec<&str>> = Vec::new();
        for item in &file.items {
            if let ItemKind::Use { paths } = &item.kind {
                all.extend(paths.clone());
            }
        }
        let joined: Vec<String> = all.iter().map(|p| p.join("::")).collect();
        assert_eq!(
            joined,
            vec![
                "aipan_net::Client",
                "aipan_net::host::Internet",
                "aipan_net::host::StaticSite",
                "aipan_taxonomy::Aspect",
                "std::fmt::*",
            ]
        );
    }

    #[test]
    fn struct_lock_fields_detected() {
        let src = "pub struct Shared { metrics: Arc<Mutex<Metrics>>, hosts: RwLock<u32>, name: String }\n";
        let file = parse_file("x.rs", src);
        let ItemKind::Struct { fields } = &file.items[0].kind else {
            panic!("expected struct");
        };
        let locks: Vec<(&str, bool)> = fields.iter().map(|f| (f.name, f.is_lock)).collect();
        assert_eq!(
            locks,
            vec![("metrics", true), ("hosts", true), ("name", false)]
        );
    }

    #[test]
    fn calls_and_discards_extracted() {
        let src = r#"
            fn work(&self) {
                let _ = Url::parse(input);
                fetch(url);
                let ok = compute();
                self.metrics.lock();
                chain().last();
            }
        "#;
        let file = parse_file("x.rs", src);
        let ItemKind::Fn(info) = &file.items[0].kind else {
            panic!("expected fn");
        };
        let got: Vec<(&str, Discard, bool)> = info
            .calls
            .iter()
            .map(|c| (c.name, c.discard, c.is_method))
            .collect();
        assert_eq!(
            got,
            vec![
                ("parse", Discard::LetUnderscore, false),
                ("fetch", Discard::StmtDrop, false),
                ("compute", Discard::None, false),
                ("lock", Discard::StmtDrop, true),
                ("chain", Discard::None, false),
                ("last", Discard::StmtDrop, true),
            ]
        );
        assert_eq!(info.calls[0].path, vec!["Url", "parse"]);
        assert_eq!(info.calls[3].recv, vec!["self", "metrics"]);
    }

    #[test]
    fn cfg_test_propagates_to_children() {
        let src = "#[cfg(test)]\nmod tests {\n    pub fn helper() {}\n}\npub fn real() {}\n";
        let file = parse_file("x.rs", src);
        assert!(file.items[0].cfg_test);
        assert!(file.items[0].children[0].cfg_test);
        assert!(!file.items[1].cfg_test);
    }

    #[test]
    fn question_mark_is_not_a_discard() {
        let src = "fn f() -> Result<(), E> { g()?; Ok(()) }\n";
        let file = parse_file("x.rs", src);
        let ItemKind::Fn(info) = &file.items[0].kind else {
            panic!("expected fn");
        };
        assert_eq!(info.calls[0].discard, Discard::None);
    }

    #[test]
    fn malformed_input_never_panics() {
        for src in [
            "fn",
            "fn (",
            "struct {",
            "impl for {}",
            "use ;",
            "pub pub pub",
            "}}}{{{",
            "fn f( { } )",
            "#[cfg(test)",
        ] {
            let _ = parse_file("x.rs", src);
        }
    }
}
