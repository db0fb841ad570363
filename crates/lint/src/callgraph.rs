//! Cross-crate call graph with import-aware name resolution.
//!
//! Nodes are every fn in non-test library code across the workspace;
//! edges connect a call site to the workspace fn(s) it resolves to.
//! Resolution consults the file's `use` declarations instead of matching
//! bare names globally — `use std::fs::remove_file;` followed by
//! `remove_file(p)` resolves *external* and can no longer collide with a
//! same-named workspace fn (the bare-name false-positive class `E1`
//! carried an allowlist entry for).
//!
//! Resolution rules, in order:
//!
//! - `self.m(..)` → method `m` of the enclosing impl's self type, in the
//!   same crate. Method calls on any other receiver are **unresolved**
//!   (no type inference), a documented under-approximation.
//! - `f(..)` → a free fn `f` of the same crate; else the file's imports
//!   (workspace import wins, external import shadows the workspace);
//!   else workspace glob imports; else unresolved.
//! - `T::m(..)` / `path::T::m(..)` with `T` capitalized → associated fn
//!   `m` of type `T` in the crate the path or imports name (`Self::m`
//!   uses the enclosing impl). Not found → external.
//! - `path::f(..)` with a module path → free fn `f` in the crate the
//!   root names (`aipan_x::..` → `x`; `crate`/`self`/`super` → same
//!   crate; an imported module leaf → its crate; otherwise the same
//!   crate if it defines `f`, else external).
//!
//! Module segments inside a crate are not checked (the free-fn index is
//! keyed by crate + name), so two same-named free fns in one crate both
//! resolve — callers get edges to all candidates, which over-approximates
//! reachability (safe for `X1`) and over-approximates fallibility (safe
//! for `E1`).
//!
//! Building the graph also lowers every fn body, once per scan: each
//! [`FnNode`] carries its [`Cfg`], the loop depth of each CFG node and
//! the loop depth of each source line. Every dataflow pass reads the
//! lowering from the node instead of building it again.

use crate::cfg::Cfg;
use crate::cost;
use crate::graph::Workspace;
use crate::parser::{CallSite, FnInfo, Item, ItemKind};
use std::collections::BTreeMap;

/// One fn node in the call graph.
#[derive(Debug)]
pub struct FnNode<'a> {
    /// Index into [`Workspace::files`].
    pub file: usize,
    /// Short crate name of the defining file.
    pub crate_name: &'a str,
    /// Self type of the enclosing impl, when the fn is a method or
    /// associated fn.
    pub self_ty: Option<&'a str>,
    /// Fn name.
    pub name: &'a str,
    /// Whether the item is plain `pub`.
    pub is_pub: bool,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// 1-based column of the `fn` keyword.
    pub col: u32,
    /// Parsed body facts.
    pub info: &'a FnInfo<'a>,
    /// The body's control-flow graph.
    pub cfg: Cfg<'a>,
    /// Loop-nesting depth of each CFG node (see [`cost::loop_depths`]).
    pub depths: Vec<u32>,
    /// Loop depth of every source line holding a step: the deepest node
    /// with a step on that line.
    pub line_depths: BTreeMap<u32, u32>,
}

/// A resolved call edge `caller → callee`.
#[derive(Debug, Clone, Copy)]
pub struct CallEdge {
    /// Callee fn id.
    pub to: usize,
    /// 1-based line of the call site.
    pub line: u32,
    /// 1-based column of the call site.
    pub col: u32,
}

/// What a call site resolves to.
#[derive(Debug, Clone, PartialEq)]
pub enum Resolution {
    /// Workspace fn candidates (usually one; several on intra-crate name
    /// reuse).
    Fns(Vec<usize>),
    /// Definitely not a workspace fn (external import, foreign path).
    External,
    /// Cannot tell (method on a non-`self` receiver, bare name with no
    /// local definition or import).
    Unknown,
}

/// Where an imported leaf name comes from.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Origin<'a> {
    /// A workspace crate (short name).
    Ws(&'a str),
    /// Anything else (`std`, vendored deps, ...).
    Ext,
}

#[derive(Debug, Default)]
struct FileImports<'a> {
    /// Leaf name → origin crate.
    leaves: BTreeMap<&'a str, Origin<'a>>,
    /// Workspace crates glob-imported (`use aipan_x::module::*`).
    glob_crates: Vec<&'a str>,
}

/// The workspace call graph. Fn ids index [`CallGraph::fns`] and
/// [`CallGraph::edges`].
#[derive(Debug)]
pub struct CallGraph<'a> {
    /// All library-code fns, in file-then-source order.
    pub fns: Vec<FnNode<'a>>,
    /// Resolved workspace call edges per fn (parallel to `fns`).
    pub edges: Vec<Vec<CallEdge>>,
    free: BTreeMap<(&'a str, &'a str), Vec<usize>>,
    methods: BTreeMap<(&'a str, &'a str, &'a str), Vec<usize>>,
    imports: Vec<FileImports<'a>>,
    file_crates: Vec<&'a str>,
}

impl<'a> CallGraph<'a> {
    /// Build the graph over an analyzed workspace.
    pub fn build(ws: &'a Workspace<'a>) -> CallGraph<'a> {
        let mut fns: Vec<FnNode<'a>> = Vec::new();
        let mut imports: Vec<FileImports<'a>> = Vec::new();
        let mut file_crates: Vec<&'a str> = Vec::new();
        for (file_idx, file) in ws.files.iter().enumerate() {
            let mut fi = FileImports::default();
            collect_imports(&file.parsed.items, file.crate_name, &mut fi);
            imports.push(fi);
            file_crates.push(file.crate_name);
            if !file.class.is_library_code() {
                continue;
            }
            collect_fns(
                &file.parsed.items,
                file_idx,
                file.crate_name,
                None,
                &mut fns,
            );
        }
        let mut free: BTreeMap<(&str, &str), Vec<usize>> = BTreeMap::new();
        let mut methods: BTreeMap<(&str, &str, &str), Vec<usize>> = BTreeMap::new();
        for (id, f) in fns.iter().enumerate() {
            match f.self_ty {
                Some(ty) => methods
                    .entry((f.crate_name, ty, f.name))
                    .or_default()
                    .push(id),
                None => free.entry((f.crate_name, f.name)).or_default().push(id),
            }
        }
        let mut graph = CallGraph {
            fns,
            edges: Vec::new(),
            free,
            methods,
            imports,
            file_crates,
        };
        let mut edges: Vec<Vec<CallEdge>> = Vec::with_capacity(graph.fns.len());
        for f in &graph.fns {
            let mut out = Vec::new();
            for call in &f.info.calls {
                if let Resolution::Fns(ids) = graph.resolve(f.file, f.self_ty, call) {
                    for to in ids {
                        out.push(CallEdge {
                            to,
                            line: call.line,
                            col: call.col,
                        });
                    }
                }
            }
            edges.push(out);
        }
        graph.edges = edges;
        graph
    }

    /// Resolve one call site occurring in `file` (with `self_ty` the
    /// enclosing impl's type, if any).
    pub fn resolve(&self, file: usize, self_ty: Option<&str>, call: &CallSite<'_>) -> Resolution {
        let crate_name = self.file_crates.get(file).copied().unwrap_or("");
        self.resolve_in(crate_name, self_ty, call, file)
    }

    fn resolve_in(
        &self,
        crate_name: &str,
        self_ty: Option<&str>,
        call: &CallSite<'_>,
        file: usize,
    ) -> Resolution {
        if call.is_method {
            // Only `self.m()` resolves; other receivers need inference.
            if call.recv.as_slice() == ["self"] {
                if let Some(ty) = self_ty {
                    if let Some(ids) = self.methods.get(&(crate_name, ty, call.name)) {
                        return Resolution::Fns(ids.clone());
                    }
                }
            }
            return Resolution::Unknown;
        }
        let path = &call.path;
        if path.len() <= 1 {
            return self.resolve_bare(crate_name, file, call.name);
        }
        let penult = path.get(path.len().wrapping_sub(2)).copied().unwrap_or("");
        if penult == "Self" {
            if let Some(ty) = self_ty {
                if let Some(ids) = self.methods.get(&(crate_name, ty, call.name)) {
                    return Resolution::Fns(ids.clone());
                }
            }
            return Resolution::External;
        }
        if penult
            .bytes()
            .next()
            .is_some_and(|b| b.is_ascii_uppercase())
        {
            // Associated fn: `T::m` / `path::T::m`.
            let ty_crate = if path.len() >= 3 {
                self.root_crate(crate_name, file, path.first().copied())
            } else {
                match self.imports.get(file).and_then(|fi| fi.leaves.get(penult)) {
                    Some(Origin::Ws(c)) => Some(*c),
                    Some(Origin::Ext) => None,
                    None => Some(crate_name),
                }
            };
            if let Some(tc) = ty_crate {
                if let Some(ids) = self.methods.get(&(tc, penult, call.name)) {
                    return Resolution::Fns(ids.clone());
                }
            }
            return Resolution::External;
        }
        // Module path to a free fn.
        let root = path.first().copied();
        match self.root_crate(crate_name, file, root) {
            Some(rc) => match self.free.get(&(rc, call.name)) {
                Some(ids) => Resolution::Fns(ids.clone()),
                None => Resolution::External,
            },
            None => Resolution::External,
        }
    }

    /// Crate a path root names: `aipan_x` → `x`, `crate`/`self`/`super` →
    /// the current crate, an imported module leaf → its origin crate, a
    /// sibling module (current crate defines the target name) → the
    /// current crate; `None` for external roots.
    fn root_crate<'r>(
        &'r self,
        crate_name: &'r str,
        file: usize,
        root: Option<&'r str>,
    ) -> Option<&'r str> {
        let root = root?;
        if let Some(short) = root.strip_prefix("aipan_") {
            return Some(short);
        }
        if matches!(root, "crate" | "self" | "super") {
            return Some(crate_name);
        }
        match self.imports.get(file).and_then(|fi| fi.leaves.get(root)) {
            Some(Origin::Ws(c)) => Some(*c),
            Some(Origin::Ext) => None,
            // Unimported lowercase root: a sibling module of this crate.
            None => Some(crate_name),
        }
    }

    fn resolve_bare(&self, crate_name: &str, file: usize, name: &str) -> Resolution {
        if let Some(ids) = self.free.get(&(crate_name, name)) {
            return Resolution::Fns(ids.clone());
        }
        match self.imports.get(file).and_then(|fi| fi.leaves.get(name)) {
            Some(Origin::Ws(c)) => match self.free.get(&(*c, name)) {
                Some(ids) => Resolution::Fns(ids.clone()),
                None => Resolution::External,
            },
            Some(Origin::Ext) => Resolution::External,
            None => {
                let mut ids = Vec::new();
                if let Some(fi) = self.imports.get(file) {
                    for &c in &fi.glob_crates {
                        if let Some(more) = self.free.get(&(c, name)) {
                            ids.extend(more.iter().copied());
                        }
                    }
                }
                if ids.is_empty() {
                    Resolution::Unknown
                } else {
                    Resolution::Fns(ids)
                }
            }
        }
    }
}

/// Record every `use` leaf of a file's item tree into `fi`.
fn collect_imports<'a>(items: &'a [Item<'a>], crate_name: &'a str, fi: &mut FileImports<'a>) {
    for item in items {
        if let ItemKind::Use { paths } = &item.kind {
            for path in paths {
                let origin = match path.first().copied() {
                    Some(root) => {
                        if let Some(short) = root.strip_prefix("aipan_") {
                            Origin::Ws(short)
                        } else if matches!(root, "crate" | "self" | "super") {
                            Origin::Ws(crate_name)
                        } else {
                            Origin::Ext
                        }
                    }
                    None => continue,
                };
                match path.last().copied() {
                    Some("*") => {
                        if let Origin::Ws(c) = origin {
                            fi.glob_crates.push(c);
                        }
                    }
                    Some(leaf) => {
                        fi.leaves.insert(leaf, origin);
                    }
                    None => {}
                }
            }
        }
        collect_imports(&item.children, crate_name, fi);
    }
}

/// Collect fn nodes, tracking the enclosing impl's self type.
fn collect_fns<'a>(
    items: &'a [Item<'a>],
    file: usize,
    crate_name: &'a str,
    self_ty: Option<&'a str>,
    out: &mut Vec<FnNode<'a>>,
) {
    for item in items {
        if item.cfg_test {
            continue;
        }
        match &item.kind {
            ItemKind::Fn(info) => {
                let cfg = Cfg::build(&info.body);
                let depths = cost::loop_depths(&cfg);
                let line_depths = cost::line_depths(&cfg, &depths);
                out.push(FnNode {
                    file,
                    crate_name,
                    self_ty,
                    name: item.name,
                    is_pub: item.is_pub,
                    line: item.line,
                    col: item.col,
                    info,
                    cfg,
                    depths,
                    line_depths,
                });
            }
            ItemKind::Impl { self_ty: ty, .. } => {
                collect_fns(&item.children, file, crate_name, Some(ty), out);
            }
            _ => collect_fns(&item.children, file, crate_name, self_ty, out),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ws<'a>(files: &'a [(&'a str, &'a str)]) -> Workspace<'a> {
        Workspace::build(files)
    }

    fn fn_id<'a>(g: &CallGraph<'a>, name: &str) -> usize {
        g.fns
            .iter()
            .position(|f| f.name == name)
            .unwrap_or_else(|| panic!("fn {name} not in graph"))
    }

    fn callees<'a>(g: &'a CallGraph<'a>, name: &str) -> Vec<&'a str> {
        let id = fn_id(g, name);
        g.edges
            .get(id)
            .map(|es| {
                es.iter()
                    .filter_map(|e| g.fns.get(e.to).map(|f| f.name))
                    .collect()
            })
            .unwrap_or_default()
    }

    #[test]
    fn imported_workspace_fn_resolves_cross_crate() {
        let w = ws(&[
            (
                "crates/net/src/url.rs",
                "pub fn parse(s: &str) -> Result<Url, E> { build(s) }\nfn build(s: &str) -> Result<Url, E> { Err(E) }\n",
            ),
            (
                "crates/core/src/lib.rs",
                "use aipan_net::url::parse;\npub fn f(s: &str) { let _ = parse(s); }\n",
            ),
        ]);
        let g = CallGraph::build(&w);
        assert_eq!(callees(&g, "f"), vec!["parse"]);
        assert_eq!(callees(&g, "parse"), vec!["build"]);
    }

    #[test]
    fn external_import_shadows_nothing_and_stays_external() {
        let w = ws(&[
            (
                "crates/net/src/fsops.rs",
                "pub fn remove_file(p: &str) -> Result<(), E> { Err(E) }\n",
            ),
            (
                "crates/core/src/lib.rs",
                "use std::fs::remove_file;\npub fn f(p: &str) { let _ = remove_file(p); }\n",
            ),
        ]);
        let g = CallGraph::build(&w);
        assert!(callees(&g, "f").is_empty(), "{:?}", callees(&g, "f"));
        let id = fn_id(&g, "f");
        let node = &g.fns[id];
        let call = &node.info.calls[0];
        assert_eq!(
            g.resolve(node.file, node.self_ty, call),
            Resolution::External
        );
    }

    #[test]
    fn unimported_bare_name_is_unknown() {
        let w = ws(&[
            (
                "crates/net/src/url.rs",
                "pub fn parse(s: &str) -> Result<Url, E> { Err(E) }\n",
            ),
            (
                "crates/core/src/lib.rs",
                "pub fn f(s: &str) { let _ = parse(s); }\n",
            ),
        ]);
        let g = CallGraph::build(&w);
        assert!(callees(&g, "f").is_empty());
        let id = fn_id(&g, "f");
        let node = &g.fns[id];
        assert_eq!(
            g.resolve(node.file, node.self_ty, &node.info.calls[0]),
            Resolution::Unknown
        );
    }

    #[test]
    fn self_methods_and_assoc_fns_resolve() {
        let w = ws(&[(
            "crates/x/src/lib.rs",
            "pub struct Pool { n: u32 }\n\
             impl Pool {\n\
                 pub fn new() -> Pool { Self::with(4) }\n\
                 pub fn with(n: u32) -> Pool { Pool { n } }\n\
                 pub fn run(&self) { self.step(); }\n\
                 fn step(&self) {}\n\
             }\n",
        )]);
        let g = CallGraph::build(&w);
        assert_eq!(callees(&g, "new"), vec!["with"]);
        assert_eq!(callees(&g, "run"), vec!["step"]);
    }

    #[test]
    fn method_on_non_self_receiver_is_unresolved() {
        let w = ws(&[(
            "crates/x/src/lib.rs",
            "pub fn f(handle: Handle) { handle.join(); }\npub struct T;\nimpl T { pub fn join(&self) {} }\n",
        )]);
        let g = CallGraph::build(&w);
        assert!(callees(&g, "f").is_empty());
        let id = fn_id(&g, "f");
        let node = &g.fns[id];
        assert_eq!(
            g.resolve(node.file, node.self_ty, &node.info.calls[0]),
            Resolution::Unknown
        );
    }

    #[test]
    fn typed_path_resolves_via_import() {
        let w = ws(&[
            (
                "crates/net/src/lib.rs",
                "pub struct Url;\nimpl Url { pub fn parse(s: &str) -> Result<Url, E> { Err(E) } }\n",
            ),
            (
                "crates/core/src/lib.rs",
                "use aipan_net::Url;\npub fn f(s: &str) { let _ = Url::parse(s); }\n",
            ),
        ]);
        let g = CallGraph::build(&w);
        assert_eq!(callees(&g, "f"), vec!["parse"]);
    }

    #[test]
    fn test_targets_are_not_graph_nodes() {
        let w = ws(&[
            ("crates/x/src/lib.rs", "pub fn real() {}\n"),
            ("crates/x/tests/t.rs", "fn helper() {}\n"),
        ]);
        let g = CallGraph::build(&w);
        let names: Vec<&str> = g.fns.iter().map(|f| f.name).collect();
        assert_eq!(names, vec!["real"]);
    }
}
