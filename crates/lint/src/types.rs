//! Workspace type index and per-fn local type inference — the *type
//! layer* the v6 rules (`N1`/`N2`/`A1`/`F1`) consume.
//!
//! Two pieces:
//!
//! 1. [`TypeIndex`]: a workspace-wide map from struct fields and fn
//!    signatures to [`Ty`] facts, built once per scan. Field entries
//!    also record `Atomic*` wrappers (the `A1` site set); fn entries
//!    record declared return types so ctor and method returns propagate
//!    (`Pool::new()` is a `Pool`, `self.gauge.peak_bytes()` is whatever
//!    `peak_bytes` declares).
//! 2. [`LocalTypes`]: a forward dataflow analysis over the existing
//!    [`crate::dataflow`] worklist solver whose fact is a map from local
//!    name to [`TyFact`] — the inferred type plus a *corpus-scale*
//!    provenance bit. Scale provenance seeds from `.len()`/`.count()`
//!    results and counter-family names (`total`, `bytes`, `count`, ...)
//!    and propagates through arithmetic, casts, and saturating/checked
//!    combinators; it is what lets `N1` confine itself to quantities
//!    that actually grow with the corpus.
//!
//! Approximation directions (DESIGN.md §6a): inference never guesses —
//! an unsuffixed literal, an unresolved call, or a conflicting join is
//! [`Ty::Unknown`], and every consumer treats `Unknown` as "stay
//! silent". Types therefore *under*-approximate (a missed cast, never a
//! spurious one), while the scale bit *over*-approximates (an `||` join
//! and name-hint seeding can only add candidates, which the lossy-cast
//! check then filters by provable type facts). `usize`/`isize` are
//! modeled as 64-bit: the pipeline targets 64-bit hosts, and the model
//! is only consulted to *rule out* findings (`u64 -> usize` is treated
//! as width-preserving), never to create them.

use crate::callgraph::FnNode;
use crate::cfg::{Cfg, Step};
use crate::dataflow::{self, Analysis};
use crate::expr::{Expr, ExprKind, Pat};
use crate::graph::Workspace;
use crate::parser::{FnInfo, ItemKind};
use std::collections::BTreeMap;

/// The primitive-focused type lattice. `Named` carries the head of any
/// nominal type (`String`, `Vec`, `AtomicU64`, `PolicyDoc`); everything
/// the analyzer cannot prove is `Unknown`.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub enum Ty {
    /// `u8`/`u16`/`u32`/`u64`/`u128` (the width in bits).
    Uint(u16),
    /// `i8`..`i128`.
    Int(u16),
    /// `usize` (modeled as 64-bit; see module docs).
    Usize,
    /// `isize` (modeled as 64-bit).
    Isize,
    /// `f32`.
    F32,
    /// `f64`.
    F64,
    /// `bool`.
    Bool,
    /// `char`.
    Char,
    /// A nominal type's head segment.
    Named(String),
    /// No provable fact.
    Unknown,
}

impl Ty {
    /// Parse a primitive type name.
    pub fn prim(name: &str) -> Option<Ty> {
        Some(match name {
            "u8" => Ty::Uint(8),
            "u16" => Ty::Uint(16),
            "u32" => Ty::Uint(32),
            "u64" => Ty::Uint(64),
            "u128" => Ty::Uint(128),
            "i8" => Ty::Int(8),
            "i16" => Ty::Int(16),
            "i32" => Ty::Int(32),
            "i64" => Ty::Int(64),
            "i128" => Ty::Int(128),
            "usize" => Ty::Usize,
            "isize" => Ty::Isize,
            "f32" => Ty::F32,
            "f64" => Ty::F64,
            "bool" => Ty::Bool,
            "char" => Ty::Char,
            _ => return None,
        })
    }

    /// Resolve declared type tokens to a `Ty`: strip references,
    /// mutability, and lifetimes, then classify the head. `Self` maps to
    /// `self_ty` when one is supplied.
    pub fn from_tokens_with(tokens: &[String], self_ty: Option<&str>) -> Ty {
        let mut head = None;
        for t in tokens {
            match t.as_str() {
                "&" | "mut" | "*" | "const" => continue,
                s if s.starts_with('\'') => continue,
                s => {
                    head = Some(s);
                    break;
                }
            }
        }
        let Some(head) = head else {
            return Ty::Unknown;
        };
        if head == "Self" {
            return match self_ty {
                Some(name) => Ty::Named(name.to_string()),
                None => Ty::Unknown,
            };
        }
        match Ty::prim(head) {
            Some(ty) => ty,
            None if head.chars().next().is_some_and(|c| c.is_ascii_uppercase()) => {
                Ty::Named(head.to_string())
            }
            None => Ty::Unknown,
        }
    }

    /// [`Ty::from_tokens_with`] without a `Self` context.
    pub fn from_tokens(tokens: &[String]) -> Ty {
        Ty::from_tokens_with(tokens, None)
    }

    /// Bit width for numeric types (`usize`/`isize` modeled as 64).
    pub fn bits(&self) -> Option<u16> {
        match self {
            Ty::Uint(b) | Ty::Int(b) => Some(*b),
            Ty::Usize | Ty::Isize | Ty::F64 => Some(64),
            Ty::F32 => Some(32),
            _ => None,
        }
    }

    /// Whether the type is an integer (signed or unsigned, any width).
    pub fn is_integer(&self) -> bool {
        matches!(self, Ty::Uint(_) | Ty::Int(_) | Ty::Usize | Ty::Isize)
    }

    /// Whether the type is `f32`/`f64`.
    pub fn is_float(&self) -> bool {
        matches!(self, Ty::F32 | Ty::F64)
    }

    /// Integer or float.
    pub fn is_numeric(&self) -> bool {
        self.is_integer() || self.is_float()
    }

    /// Whether the integer type is signed.
    pub fn is_signed(&self) -> bool {
        matches!(self, Ty::Int(_) | Ty::Isize)
    }

    /// Rust source name, for messages and autofix replacements (`Named`
    /// renders its head; `Unknown` renders `_`).
    pub fn name(&self) -> String {
        match self {
            Ty::Uint(b) => format!("u{b}"),
            Ty::Int(b) => format!("i{b}"),
            Ty::Usize => "usize".to_string(),
            Ty::Isize => "isize".to_string(),
            Ty::F32 => "f32".to_string(),
            Ty::F64 => "f64".to_string(),
            Ty::Bool => "bool".to_string(),
            Ty::Char => "char".to_string(),
            Ty::Named(s) => s.clone(),
            Ty::Unknown => "_".to_string(),
        }
    }
}

/// How an `as` cast relates source and destination type.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CastKind {
    /// Every source value is representable; `from_impl` says whether the
    /// exact std `From` impl exists (the `N1` autofix rewrites only
    /// those — `u32 as usize` widens on 64-bit hosts but has no `From`).
    Widen {
        /// `Dst::from(src)` compiles.
        from_impl: bool,
    },
    /// Some source values change meaning: truncation, sign wrap, or
    /// float precision loss. The payload is the reason, for messages.
    Lossy(&'static str),
    /// Same representation (including same-width `usize`/`u64` under
    /// the 64-bit host model).
    Noop,
    /// At least one side is not provably numeric.
    Opaque,
}

/// Whether the exact `impl From<src> for dst` exists in std. The table
/// is deliberately exhaustive rather than rule-derived: `From<u32> for
/// usize` and `From<usize> for u64` famously do *not* exist, so a
/// width-based rule would rewrite casts into compile errors.
fn from_impl(src: &Ty, dst: &Ty) -> bool {
    match (src, dst) {
        (Ty::Uint(a), Ty::Uint(b)) | (Ty::Int(a), Ty::Int(b)) | (Ty::Uint(a), Ty::Int(b)) => b > a,
        (Ty::Uint(8) | Ty::Uint(16), Ty::Usize) => true,
        (Ty::Uint(8) | Ty::Int(8) | Ty::Int(16), Ty::Isize) => true,
        (Ty::Uint(8) | Ty::Uint(16) | Ty::Int(8) | Ty::Int(16), Ty::F32) => true,
        (
            Ty::Uint(8) | Ty::Uint(16) | Ty::Uint(32) | Ty::Int(8) | Ty::Int(16) | Ty::Int(32),
            Ty::F64,
        ) => true,
        (Ty::F32, Ty::F64) => true,
        _ => false,
    }
}

/// Classify a numeric `as` cast (see [`CastKind`]).
pub fn classify_cast(src: &Ty, dst: &Ty) -> CastKind {
    if !src.is_numeric() || !dst.is_numeric() {
        return CastKind::Opaque;
    }
    if src == dst {
        return CastKind::Noop;
    }
    if src.is_float() && dst.is_integer() {
        return CastKind::Lossy("float-to-integer truncates");
    }
    if src.is_integer() && dst.is_float() {
        // Exact only when the `From` impl exists (f64 holds u32 exactly,
        // not u64); inexact int-to-float casts are tolerated — f64 is
        // exact to 2^53, beyond any plausible corpus quantity.
        return CastKind::Widen {
            from_impl: from_impl(src, dst),
        };
    }
    if src.is_float() && dst.is_float() {
        return match (src.bits(), dst.bits()) {
            (Some(a), Some(b)) if b < a => CastKind::Lossy("f64-to-f32 loses precision"),
            _ => CastKind::Widen {
                from_impl: from_impl(src, dst),
            },
        };
    }
    // Integer to integer.
    let (Some(sb), Some(db)) = (src.bits(), dst.bits()) else {
        return CastKind::Opaque;
    };
    if src.is_signed() && !dst.is_signed() {
        return CastKind::Lossy("signed-to-unsigned wraps negatives");
    }
    if db < sb {
        return CastKind::Lossy("narrowing truncates high bits");
    }
    if db == sb {
        if !src.is_signed() && dst.is_signed() {
            return CastKind::Lossy("same-width unsigned-to-signed wraps large values");
        }
        return CastKind::Noop;
    }
    CastKind::Widen {
        from_impl: from_impl(src, dst),
    }
}

/// Name families that mark a binding, field, or fn as carrying a
/// corpus-scale quantity (matched per `_`-separated word, not substring,
/// so `silence` does not match `len`).
const SCALE_NAME_HINTS: &[&str] = &[
    "len", "count", "counts", "total", "totals", "bytes", "size", "sizes", "tokens", "calls",
    "retries", "hits", "errors", "attempts", "written", "seen", "sum",
];

/// Whether a name belongs to the corpus-scale counter families.
pub fn scale_name(name: &str) -> bool {
    name.split('_').any(|w| SCALE_NAME_HINTS.contains(&w))
}

/// One struct field's type facts.
#[derive(Debug, Clone, PartialEq)]
pub struct FieldFact {
    /// Declared type head.
    pub ty: Ty,
    /// When the declared type is `Atomic*`, the wrapped value type
    /// (`AtomicU64` -> `Uint(64)`, `AtomicBool` -> `Bool`).
    pub atomic: Option<Ty>,
}

/// The `Atomic*` wrapper's inner type, when `head` names one.
fn atomic_inner(head: &str) -> Option<Ty> {
    let inner = head.strip_prefix("Atomic")?;
    match inner {
        "Usize" => Some(Ty::Usize),
        "Isize" => Some(Ty::Isize),
        "Bool" => Some(Ty::Bool),
        _ => Ty::prim(&inner.to_ascii_lowercase()),
    }
}

/// Workspace-wide type facts: struct fields and fn return types, keyed
/// by name with cross-crate collisions degraded to `Unknown` (never a
/// wrong fact, at worst a missing one).
#[derive(Debug, Default)]
pub struct TypeIndex {
    /// `(struct name, field name)` -> fact.
    fields: BTreeMap<(String, String), FieldFact>,
    /// Field name -> fact when the name is unique workspace-wide;
    /// `None` marks an ambiguous name.
    field_by_name: BTreeMap<String, Option<FieldFact>>,
    /// `(self type or "", fn name)` -> declared return type.
    returns: BTreeMap<(String, String), Ty>,
}

impl TypeIndex {
    /// Build the index from every parsed item in the workspace.
    pub fn build(ws: &Workspace) -> TypeIndex {
        let mut index = TypeIndex::default();
        for file in &ws.files {
            for item in &file.parsed.items {
                index.add_item(item, None);
            }
        }
        index
    }

    fn add_item(&mut self, item: &crate::parser::Item, self_ty: Option<&str>) {
        match &item.kind {
            ItemKind::Struct { fields } => {
                for field in fields {
                    let ty = Ty::from_tokens(&field.ty);
                    let atomic = match &ty {
                        Ty::Named(head) => atomic_inner(head),
                        _ => None,
                    };
                    let fact = FieldFact { ty, atomic };
                    let key = (item.name.clone(), field.name.clone());
                    match self.fields.get(&key) {
                        Some(existing) if *existing != fact => {
                            self.fields.insert(
                                key,
                                FieldFact {
                                    ty: Ty::Unknown,
                                    atomic: None,
                                },
                            );
                        }
                        Some(_) => {}
                        None => {
                            self.fields.insert(key, fact.clone());
                        }
                    }
                    match self.field_by_name.get(&field.name) {
                        Some(Some(existing)) if *existing != fact => {
                            self.field_by_name.insert(field.name.clone(), None);
                        }
                        Some(_) => {}
                        None => {
                            self.field_by_name.insert(field.name.clone(), Some(fact));
                        }
                    }
                }
            }
            ItemKind::Fn(info) => {
                let ret = Ty::from_tokens_with(&info.ret, self_ty);
                let key = (self_ty.unwrap_or("").to_string(), item.name.clone());
                match self.returns.get(&key) {
                    Some(existing) if *existing != ret => {
                        self.returns.insert(key, Ty::Unknown);
                    }
                    Some(_) => {}
                    None => {
                        self.returns.insert(key, ret);
                    }
                }
            }
            _ => {}
        }
        let child_self_ty = match &item.kind {
            ItemKind::Impl { self_ty, .. } => Some(self_ty.as_str()),
            _ => self_ty,
        };
        for child in &item.children {
            self.add_item(child, child_self_ty);
        }
    }

    /// Field fact by `(struct, field)`.
    pub fn field(&self, struct_name: &str, field: &str) -> Option<&FieldFact> {
        self.fields
            .get(&(struct_name.to_string(), field.to_string()))
    }

    /// Field fact by name alone, when the name is unique workspace-wide.
    pub fn field_named(&self, field: &str) -> Option<&FieldFact> {
        self.field_by_name.get(field).and_then(|f| f.as_ref())
    }

    /// Declared return type of `self_ty::name` (free fns use `""`).
    pub fn ret(&self, self_ty: &str, name: &str) -> Ty {
        self.returns
            .get(&(self_ty.to_string(), name.to_string()))
            .cloned()
            .unwrap_or(Ty::Unknown)
    }
}

/// One inferred fact: the type plus corpus-scale provenance.
#[derive(Debug, Clone, PartialEq)]
pub struct TyFact {
    /// Inferred type (`Unknown` when unprovable).
    pub ty: Ty,
    /// Whether the value derives from a corpus-scale quantity
    /// (`.len()`/`.count()` results, counter-family names, and anything
    /// arithmetic over them).
    pub scale: bool,
}

impl TyFact {
    /// An unprovable fact with no scale provenance.
    pub fn unknown() -> TyFact {
        TyFact {
            ty: Ty::Unknown,
            scale: false,
        }
    }
}

/// Numeric `recv.method(..)` combinators that preserve the receiver's
/// type (`x.max(y)`, `n.saturating_add(m)`, ...).
const TY_PRESERVING_METHODS: &[&str] = &[
    "min",
    "max",
    "clamp",
    "pow",
    "abs",
    "saturating_add",
    "saturating_sub",
    "saturating_mul",
    "wrapping_add",
    "wrapping_sub",
    "wrapping_mul",
    "rotate_left",
    "rotate_right",
    "swap_bytes",
    "to_le",
    "to_be",
];

/// The per-fn local type inference, as a [`crate::dataflow`] client.
/// The fact maps in-scope names to [`TyFact`]s; the boundary fact holds
/// the declared parameter types.
pub struct LocalTypes<'w> {
    /// Workspace type facts.
    pub index: &'w TypeIndex,
    /// Enclosing impl type, for `self.field` resolution.
    pub self_ty: Option<String>,
    /// Declared parameter facts (the boundary).
    pub params: BTreeMap<String, TyFact>,
}

impl<'w> LocalTypes<'w> {
    /// Inference context for one call-graph fn.
    pub fn new(index: &'w TypeIndex, node: &FnNode<'_>) -> LocalTypes<'w> {
        LocalTypes::for_info(index, node.self_ty.map(str::to_string), node.info)
    }

    /// Inference context from raw fn facts (fixture tests use this).
    pub fn for_info(
        index: &'w TypeIndex,
        self_ty: Option<String>,
        info: &FnInfo,
    ) -> LocalTypes<'w> {
        let mut params = BTreeMap::new();
        for p in &info.params {
            if p.name.is_empty() || p.name == "self" {
                continue;
            }
            params.insert(
                p.name.clone(),
                TyFact {
                    ty: Ty::from_tokens_with(&p.ty, self_ty.as_deref()),
                    scale: scale_name(&p.name),
                },
            );
        }
        LocalTypes {
            index,
            self_ty,
            params,
        }
    }

    /// Look up a field through the receiver's inferred type, falling
    /// back to the unique-name map.
    fn field_fact(&self, fact: &BTreeMap<String, TyFact>, base: &Expr, name: &str) -> TyFact {
        let owner = match &base.kind {
            ExprKind::Path(segs) if segs.as_slice() == ["self"] => self.self_ty.clone(),
            _ => match self.infer(fact, base).ty {
                Ty::Named(s) => Some(s),
                _ => None,
            },
        };
        let looked = match owner {
            Some(owner) => self.index.field(&owner, name),
            None => self.index.field_named(name),
        };
        match looked {
            Some(f) => TyFact {
                ty: f.ty.clone(),
                scale: scale_name(name),
            },
            None => TyFact {
                ty: Ty::Unknown,
                scale: scale_name(name),
            },
        }
    }

    /// Infer one expression's fact under the current local facts. Never
    /// guesses: anything unresolvable is `Unknown` (see module docs).
    pub fn infer(&self, fact: &BTreeMap<String, TyFact>, e: &Expr) -> TyFact {
        match &e.kind {
            ExprKind::Path(segs) => match segs.as_slice() {
                [s] if s == "self" => TyFact {
                    ty: self
                        .self_ty
                        .as_ref()
                        .map(|s| Ty::Named(s.clone()))
                        .unwrap_or(Ty::Unknown),
                    scale: false,
                },
                [one] => fact.get(one).cloned().unwrap_or_else(|| TyFact {
                    ty: Ty::Unknown,
                    scale: scale_name(one),
                }),
                [head, konst] if matches!(konst.as_str(), "MAX" | "MIN") => TyFact {
                    ty: Ty::prim(head).unwrap_or(Ty::Unknown),
                    scale: false,
                },
                _ => TyFact::unknown(),
            },
            ExprKind::Lit(text) => TyFact {
                ty: lit_ty(text),
                scale: false,
            },
            ExprKind::Unary { op, operand } => match op {
                '-' | '!' => self.infer(fact, operand),
                _ => TyFact::unknown(),
            },
            ExprKind::Ref { operand, .. } => self.infer(fact, operand),
            ExprKind::Binary { op, lhs, rhs } => match op.as_str() {
                "==" | "!=" | "<" | "<=" | ">" | ">=" | "&&" | "||" => TyFact {
                    ty: Ty::Bool,
                    scale: false,
                },
                "<<" | ">>" => self.infer(fact, lhs),
                _ => {
                    let l = self.infer(fact, lhs);
                    let r = self.infer(fact, rhs);
                    let ty = match (&l.ty, &r.ty) {
                        (Ty::Unknown, other) | (other, Ty::Unknown) => other.clone(),
                        (a, b) if a == b => a.clone(),
                        _ => Ty::Unknown,
                    };
                    TyFact {
                        ty,
                        scale: l.scale || r.scale,
                    }
                }
            },
            ExprKind::Cast { operand, ty } => TyFact {
                ty: Ty::from_tokens_with(ty, self.self_ty.as_deref()),
                scale: self.infer(fact, operand).scale,
            },
            ExprKind::Field { base, name } => self.field_fact(fact, base, name),
            ExprKind::MethodCall {
                recv,
                name,
                turbofish,
                args,
            } => match name.as_str() {
                "len" | "count" | "capacity" => TyFact {
                    ty: Ty::Usize,
                    scale: true,
                },
                "sum" | "product" => TyFact {
                    ty: if turbofish.is_empty() {
                        Ty::Unknown
                    } else {
                        Ty::from_tokens_with(turbofish, self.self_ty.as_deref())
                    },
                    scale: true,
                },
                m if TY_PRESERVING_METHODS.contains(&m) => {
                    let r = self.infer(fact, recv);
                    let arg_scale = args.iter().any(|a| self.infer(fact, a).scale);
                    TyFact {
                        ty: r.ty,
                        scale: r.scale || arg_scale,
                    }
                }
                "unwrap_or" => args
                    .first()
                    .map(|a| self.infer(fact, a))
                    .unwrap_or_else(TyFact::unknown),
                _ => {
                    let r = self.infer(fact, recv);
                    match r.ty {
                        Ty::Named(owner) => TyFact {
                            ty: self.index.ret(&owner, name),
                            scale: scale_name(name),
                        },
                        _ => TyFact {
                            ty: Ty::Unknown,
                            scale: scale_name(name),
                        },
                    }
                }
            },
            ExprKind::Call { callee, args } => {
                let ExprKind::Path(segs) = &callee.kind else {
                    return TyFact::unknown();
                };
                match segs.as_slice() {
                    [head, from] if from == "from" && Ty::prim(head).is_some() => TyFact {
                        ty: Ty::prim(head).unwrap_or(Ty::Unknown),
                        scale: args.first().is_some_and(|a| self.infer(fact, a).scale),
                    },
                    [ty_name, method]
                        if ty_name
                            .chars()
                            .next()
                            .is_some_and(|c| c.is_ascii_uppercase()) =>
                    {
                        let ret = self.index.ret(ty_name, method);
                        TyFact {
                            ty: match ret {
                                Ty::Unknown if method == "new" => Ty::Named(ty_name.clone()),
                                other => other,
                            },
                            scale: false,
                        }
                    }
                    [free] if free.chars().next().is_some_and(|c| c.is_ascii_lowercase()) => {
                        TyFact {
                            ty: self.index.ret("", free),
                            scale: scale_name(free),
                        }
                    }
                    _ => TyFact::unknown(),
                }
            }
            ExprKind::StructLit { path, .. } => TyFact {
                ty: path
                    .last()
                    .map(|s| Ty::Named(s.clone()))
                    .unwrap_or(Ty::Unknown),
                scale: false,
            },
            _ => TyFact::unknown(),
        }
    }

    /// Bind every name of `pat` to `whole` when it is a single binding,
    /// or to hint-seeded `Unknown` facts otherwise.
    fn bind_pat(&self, fact: &mut BTreeMap<String, TyFact>, pat: &Pat, whole: Option<TyFact>) {
        let mut names = Vec::new();
        pat.bound_names(&mut names);
        match (names.as_slice(), whole) {
            ([one], Some(f)) => {
                fact.insert(
                    one.clone(),
                    TyFact {
                        scale: f.scale || scale_name(one),
                        ..f
                    },
                );
            }
            (many, _) => {
                for name in many {
                    fact.insert(
                        name.clone(),
                        TyFact {
                            ty: Ty::Unknown,
                            scale: scale_name(name),
                        },
                    );
                }
            }
        }
    }
}

/// Literal type from its suffix (`7u64`, `1.5f32`); unsuffixed floats
/// default to `f64`, unsuffixed integers stay `Unknown` (their type is
/// inference-context-dependent, which this analysis does not model).
fn lit_ty(text: &str) -> Ty {
    const SUFFIXES: &[&str] = &[
        "usize", "isize", "u128", "i128", "u64", "i64", "u32", "i32", "u16", "i16", "u8", "i8",
        "f64", "f32",
    ];
    for suffix in SUFFIXES {
        if text.len() > suffix.len() && text.ends_with(suffix) {
            return Ty::prim(suffix).unwrap_or(Ty::Unknown);
        }
    }
    match text {
        "true" | "false" => Ty::Bool,
        t if t.starts_with('\'') => Ty::Char,
        t if t.starts_with('"') => Ty::Named("str".to_string()),
        t if t.starts_with(|c: char| c.is_ascii_digit())
            && !t.starts_with("0x")
            && (t.contains('.') || t.contains('e') || t.contains('E')) =>
        {
            Ty::F64
        }
        _ => Ty::Unknown,
    }
}

impl<'a, 'w> Analysis<'a> for LocalTypes<'w> {
    type Fact = BTreeMap<String, TyFact>;

    fn boundary(&self) -> Self::Fact {
        self.params.clone()
    }

    fn join(&self, acc: &mut Self::Fact, other: &Self::Fact) {
        for (name, theirs) in other {
            match acc.get_mut(name) {
                Some(ours) => {
                    if ours.ty != theirs.ty {
                        ours.ty = Ty::Unknown;
                    }
                    ours.scale = ours.scale || theirs.scale;
                }
                None => {
                    acc.insert(name.clone(), theirs.clone());
                }
            }
        }
    }

    fn step(&self, step: &Step<'a>, fact: &mut Self::Fact) {
        match step {
            Step::Bind { pat, ty, init, .. } => {
                let declared = if ty.is_empty() {
                    None
                } else {
                    Some(Ty::from_tokens_with(ty, self.self_ty.as_deref()))
                };
                let inferred = init.map(|e| self.infer(fact, e));
                let whole = match (declared, inferred) {
                    (Some(ty), Some(f)) => Some(TyFact { ty, scale: f.scale }),
                    (Some(ty), None) => Some(TyFact { ty, scale: false }),
                    (None, Some(f)) => Some(f),
                    (None, None) => None,
                };
                self.bind_pat(fact, pat, whole);
            }
            Step::PatBind { pat, .. } => self.bind_pat(fact, pat, None),
            Step::ForHead { pat, iter } => {
                // `for i in 0..xs.len()` binds `i` to the bound's type
                // and scale; any other iterator's element type is opaque.
                let whole = match &iter.kind {
                    ExprKind::Range { lo, hi, .. } => {
                        let l = lo
                            .as_deref()
                            .map(|e| self.infer(fact, e))
                            .unwrap_or_else(TyFact::unknown);
                        let h = hi
                            .as_deref()
                            .map(|e| self.infer(fact, e))
                            .unwrap_or_else(TyFact::unknown);
                        let ty = match (&l.ty, &h.ty) {
                            (Ty::Unknown, other) | (other, Ty::Unknown) => other.clone(),
                            (a, b) if a == b => a.clone(),
                            _ => Ty::Unknown,
                        };
                        Some(TyFact {
                            ty,
                            scale: l.scale || h.scale,
                        })
                    }
                    _ => None,
                };
                self.bind_pat(fact, pat, whole);
            }
            Step::Eval(e) | Step::Cond(e) => {
                if let ExprKind::Assign { op, lhs, rhs } = &e.kind {
                    if let ExprKind::Path(segs) = &lhs.kind {
                        if let [name] = segs.as_slice() {
                            let r = self.infer(fact, rhs);
                            match fact.get_mut(name) {
                                Some(ours) if op != "=" => {
                                    // Compound assign keeps the type,
                                    // accumulates scale provenance.
                                    ours.scale = ours.scale || r.scale;
                                }
                                _ => {
                                    fact.insert(
                                        name.clone(),
                                        TyFact {
                                            scale: r.scale || scale_name(name),
                                            ..r
                                        },
                                    );
                                }
                            }
                        }
                    }
                }
            }
        }
    }
}

/// Solve local types for one fn body; returns per-node in-facts (see
/// [`dataflow::solve`]) for use with [`dataflow::replay`].
pub fn solve_fn<'a>(lt: &LocalTypes<'_>, cfg: &Cfg<'a>) -> Vec<Option<BTreeMap<String, TyFact>>> {
    dataflow::solve(cfg, lt)
}

/// The fact at the fn's exit node — what the reorder-stability proptest
/// and the unit tests below assert against.
pub fn exit_types(
    index: &TypeIndex,
    self_ty: Option<&str>,
    info: &FnInfo,
) -> BTreeMap<String, TyFact> {
    let lt = LocalTypes::for_info(index, self_ty.map(str::to_string), info);
    let cfg = Cfg::build(&info.body);
    let facts = solve_fn(&lt, &cfg);
    facts
        .get(cfg.exit)
        .and_then(|f| f.clone())
        .unwrap_or_default()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_file;

    fn fn_types(src: &str) -> BTreeMap<String, TyFact> {
        let parsed = parse_file("crates/x/src/lib.rs", src);
        let ws = Workspace::build(&[("crates/x/src/lib.rs".to_string(), src.to_string())]);
        let index = TypeIndex::build(&ws);
        let mut out = None;
        let mut items = Vec::new();
        for item in &parsed.items {
            item.walk(&mut items);
        }
        for item in items {
            if let ItemKind::Fn(info) = &item.kind {
                if item.name == "f" {
                    out = Some(exit_types(&index, None, info));
                }
            }
        }
        out.expect("fn f in fixture")
    }

    #[test]
    fn annotations_literal_suffixes_and_casts_resolve() {
        let t = fn_types(
            "fn f() { let a: u32 = read(); let b = 7u64; let c = b as u16; let d = 1.5; }\n",
        );
        assert_eq!(t.get("a").map(|f| f.ty.clone()), Some(Ty::Uint(32)));
        assert_eq!(t.get("b").map(|f| f.ty.clone()), Some(Ty::Uint(64)));
        assert_eq!(t.get("c").map(|f| f.ty.clone()), Some(Ty::Uint(16)));
        assert_eq!(t.get("d").map(|f| f.ty.clone()), Some(Ty::F64));
    }

    #[test]
    fn len_results_carry_usize_and_scale() {
        let t = fn_types("fn f(xs: &[u8]) { let n = xs.len(); let doubled = n * 2; }\n");
        let n = t.get("n").expect("n");
        assert_eq!(n.ty, Ty::Usize);
        assert!(n.scale);
        let d = t.get("doubled").expect("doubled");
        assert_eq!(d.ty, Ty::Usize, "arith on usize stays usize");
        assert!(d.scale, "scale propagates through arithmetic");
    }

    #[test]
    fn ctor_and_method_returns_propagate() {
        let t = fn_types(
            "pub struct Pool { n: u64 }\n\
             impl Pool {\n\
                 pub fn new() -> Pool { Pool { n: 0 } }\n\
                 pub fn level(&self) -> u64 { self.n }\n\
             }\n\
             fn f() { let p = Pool::new(); let lvl = p.level(); }\n",
        );
        assert_eq!(
            t.get("p").map(|f| f.ty.clone()),
            Some(Ty::Named("Pool".to_string()))
        );
        assert_eq!(t.get("lvl").map(|f| f.ty.clone()), Some(Ty::Uint(64)));
    }

    #[test]
    fn joins_degrade_to_unknown_not_wrong() {
        let t = fn_types("fn f(c: bool) { let x = if c { 1u32 } else { 2u64 }; }\n");
        // The two arms disagree; the join must not pick either.
        assert_eq!(t.get("x").map(|f| f.ty.clone()), Some(Ty::Unknown));
    }

    #[test]
    fn counter_names_seed_scale_without_types() {
        let t = fn_types("fn f() { let mut total = 0; total += 1; }\n");
        let total = t.get("total").expect("total");
        assert!(total.scale, "counter-family name seeds scale");
        assert_eq!(total.ty, Ty::Unknown, "unsuffixed literal stays unknown");
    }

    #[test]
    fn atomic_fields_are_indexed() {
        let src = "pub struct G { current: AtomicU64, peak: AtomicUsize, on: AtomicBool }\n";
        let ws = Workspace::build(&[("crates/x/src/lib.rs".to_string(), src.to_string())]);
        let index = TypeIndex::build(&ws);
        assert_eq!(
            index.field("G", "current").and_then(|f| f.atomic.clone()),
            Some(Ty::Uint(64))
        );
        assert_eq!(
            index.field("G", "peak").and_then(|f| f.atomic.clone()),
            Some(Ty::Usize)
        );
        assert_eq!(
            index.field("G", "on").and_then(|f| f.atomic.clone()),
            Some(Ty::Bool)
        );
    }

    #[test]
    fn from_impl_table_matches_std() {
        assert!(from_impl(&Ty::Uint(32), &Ty::Uint(64)));
        assert!(from_impl(&Ty::Uint(16), &Ty::Usize));
        assert!(from_impl(&Ty::Uint(32), &Ty::F64));
        assert!(from_impl(&Ty::F32, &Ty::F64));
        // The famous non-impls a width rule would get wrong.
        assert!(!from_impl(&Ty::Uint(32), &Ty::Usize));
        assert!(!from_impl(&Ty::Usize, &Ty::Uint(64)));
        assert!(!from_impl(&Ty::Uint(64), &Ty::F64));
    }

    #[test]
    fn cast_classification_covers_the_lattice() {
        use CastKind::*;
        assert_eq!(
            classify_cast(&Ty::Usize, &Ty::Uint(32)),
            Lossy("narrowing truncates high bits")
        );
        assert_eq!(
            classify_cast(&Ty::Int(64), &Ty::Uint(64)),
            Lossy("signed-to-unsigned wraps negatives")
        );
        assert_eq!(
            classify_cast(&Ty::F64, &Ty::Uint(64)),
            Lossy("float-to-integer truncates")
        );
        assert_eq!(
            classify_cast(&Ty::Uint(32), &Ty::Uint(64)),
            Widen { from_impl: true }
        );
        // Widens on 64-bit hosts but has no `From` — exempt, not fixable.
        assert_eq!(
            classify_cast(&Ty::Uint(32), &Ty::Usize),
            Widen { from_impl: false }
        );
        assert_eq!(
            classify_cast(&Ty::Usize, &Ty::Uint(64)),
            Noop,
            "same width under the 64-bit model"
        );
        assert_eq!(
            classify_cast(&Ty::Named("Vec".into()), &Ty::Uint(8)),
            Opaque
        );
    }
}
