//! `K1`: inconsistent lock-acquisition order across the workspace.
//!
//! Deadlock by lock-order inversion is invisible to per-file review: each
//! function looks locally correct, and only the *global* acquisition
//! graph shows the cycle. This pass:
//!
//! 1. registers every named `Mutex`/`RwLock` struct field in the
//!    workspace (parser-level: a field whose declared type mentions
//!    `Mutex` or `RwLock`), identified as `crate::Struct.field`;
//! 2. walks every fn in an impl block and records the sequence of
//!    `self.field.lock()` / `.read()` / `.write()` acquisitions;
//! 3. adds an edge `a -> b` for every ordered pair of *distinct* locks
//!    acquired in one fn (an over-approximation: a guard dropped before
//!    the next acquisition still counts, which is conservative for a
//!    deadlock lint and covered by the allowlist when provably disjoint);
//! 4. reports every strongly-connected component of two or more locks in
//!    the global graph — each is a set of functions that can deadlock
//!    against each other — with one witness site per edge.
//!
//! Re-acquiring the same lock in one fn is *not* flagged (guards are
//! routinely dropped between statements), so self-edges are excluded.

use crate::findings::{Finding, Severity};
use crate::graph::Workspace;
use crate::guards::{lock_registry, ACQUIRE_METHODS};
use crate::parser::{CallSite, ItemKind};
use std::collections::{BTreeMap, BTreeSet};

/// The registered lock field a call acquires via `self.<field>.lock()` /
/// `.read()` / `.write()`, if any.
fn acquired_field<'a>(call: &CallSite<'a>, locks: &BTreeSet<&str>) -> Option<&'a str> {
    match *call.recv.as_slice() {
        ["self", field]
            if call.is_method && ACQUIRE_METHODS.contains(&call.name) && locks.contains(field) =>
        {
            Some(field)
        }
        _ => None,
    }
}

/// Where one lock-after-lock edge was observed.
#[derive(Debug, Clone, PartialEq)]
struct Witness<'a> {
    file: &'a str,
    fn_name: &'a str,
    line: u32,
    col: u32,
}

/// Run the `K1` pass over an analyzed workspace.
pub fn check_lock_order(ws: &Workspace<'_>) -> Vec<Finding> {
    // Pass 1: the lock registry — (crate, struct) -> lock field names.
    let registry = lock_registry(ws);

    // Pass 2: acquisition sequences per fn -> global edge map.
    let mut edges: BTreeMap<(String, String), Witness<'_>> = BTreeMap::new();
    for file in &ws.files {
        for item in &file.parsed.items {
            let ItemKind::Impl { self_ty, .. } = &item.kind else {
                continue;
            };
            let Some(locks) = registry.get(&(file.crate_name, *self_ty)) else {
                continue;
            };
            for child in &item.children {
                if child.cfg_test {
                    continue;
                }
                let ItemKind::Fn(info) = &child.kind else {
                    continue;
                };
                let mut sequence: Vec<(String, u32, u32)> = Vec::new();
                for call in &info.calls {
                    if let Some(field) = acquired_field(call, locks) {
                        let id = format!("{}::{}.{}", file.crate_name, self_ty, field);
                        sequence.push((id, call.line, call.col));
                    }
                }
                for i in 0..sequence.len() {
                    for j in (i + 1)..sequence.len() {
                        let (a, _, _) = &sequence[i];
                        let (b, line, col) = &sequence[j];
                        if a == b {
                            continue;
                        }
                        edges
                            .entry((a.clone(), b.clone()))
                            .or_insert_with(|| Witness {
                                file: file.parsed.rel_path,
                                fn_name: child.name,
                                line: *line,
                                col: *col,
                            });
                    }
                }
            }
        }
    }

    // Pass 3: strongly-connected components of the acquisition graph.
    let mut findings = Vec::new();
    for component in cyclic_components(&edges) {
        // Every edge inside the component is part of the inversion; cite
        // each with its witness, anchored at the first site.
        let mut cited: Vec<String> = Vec::new();
        let mut anchor: Option<&Witness<'_>> = None;
        for ((a, b), w) in &edges {
            if component.contains(a) && component.contains(b) {
                cited.push(format!(
                    "{} then {} in {} ({}:{})",
                    a, b, w.fn_name, w.file, w.line
                ));
                let earlier = anchor.is_none_or(|cur| (w.file, w.line) < (cur.file, cur.line));
                if earlier {
                    anchor = Some(w);
                }
            }
        }
        let Some(anchor) = anchor else { continue };
        let locks: Vec<&str> = component.iter().map(String::as_str).collect();
        findings.push(Finding::at(
            "K1",
            Severity::Deny,
            anchor.file,
            anchor.line,
            anchor.col,
            format!(
                "inconsistent lock-acquisition order: {{{}}} form a cycle in the global \
                 acquisition graph ({}); pick one order and use it everywhere",
                locks.join(", "),
                cited.join("; ")
            ),
            String::new(),
        ));
    }
    findings
}

/// Strongly-connected components with at least two nodes, sorted for
/// deterministic output (Kosaraju on the tiny lock graph).
fn cyclic_components(edges: &BTreeMap<(String, String), Witness<'_>>) -> Vec<BTreeSet<String>> {
    let mut nodes: BTreeSet<&str> = BTreeSet::new();
    let mut fwd: BTreeMap<&str, Vec<&str>> = BTreeMap::new();
    let mut rev: BTreeMap<&str, Vec<&str>> = BTreeMap::new();
    for (a, b) in edges.keys() {
        nodes.insert(a);
        nodes.insert(b);
        fwd.entry(a).or_default().push(b);
        rev.entry(b).or_default().push(a);
    }

    // First DFS pass: finish order.
    let mut visited: BTreeSet<&str> = BTreeSet::new();
    let mut order: Vec<&str> = Vec::new();
    for &start in &nodes {
        if visited.contains(start) {
            continue;
        }
        let mut stack: Vec<(&str, usize)> = vec![(start, 0)];
        visited.insert(start);
        while let Some(&(node, edge)) = stack.last() {
            let next = fwd.get(node).and_then(|deps| deps.get(edge)).copied();
            if let Some(last) = stack.last_mut() {
                last.1 += 1;
            }
            match next {
                Some(n) if !visited.contains(n) => {
                    visited.insert(n);
                    stack.push((n, 0));
                }
                Some(_) => {}
                None => {
                    order.push(node);
                    stack.pop();
                }
            }
        }
    }

    // Second pass over the transpose, in reverse finish order.
    let mut assigned: BTreeSet<&str> = BTreeSet::new();
    let mut components = Vec::new();
    for &start in order.iter().rev() {
        if assigned.contains(start) {
            continue;
        }
        let mut component = BTreeSet::new();
        let mut stack = vec![start];
        assigned.insert(start);
        while let Some(node) = stack.pop() {
            component.insert(node.to_string());
            for &n in rev.get(node).map(Vec::as_slice).unwrap_or(&[]) {
                if assigned.insert(n) {
                    stack.push(n);
                }
            }
        }
        if component.len() >= 2 {
            components.push(component);
        }
    }
    components.sort();
    components
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ws<'a>(files: &'a [(&'a str, &'a str)]) -> Workspace<'a> {
        Workspace::build(files)
    }

    const TWO_LOCK_STRUCT: &str = "pub struct Shared {\n\
         \x20   jobs: Mutex<Vec<u32>>,\n\
         \x20   hosts: RwLock<u32>,\n\
         }\n";

    #[test]
    fn inverted_order_across_fns_fires() {
        let src = format!(
            "{TWO_LOCK_STRUCT}impl Shared {{\n\
             \x20   pub fn a(&self) {{ let j = self.jobs.lock(); let h = self.hosts.read(); work(j, h); }}\n\
             \x20   pub fn b(&self) {{ let h = self.hosts.write(); let j = self.jobs.lock(); work(j, h); }}\n\
             }}\n"
        );
        let files = [("crates/crawler/src/pool.rs", src.as_str())];
        let w = ws(&files);
        let f = check_lock_order(&w);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "K1");
        assert!(
            f[0].message.contains("crawler::Shared.jobs"),
            "{}",
            f[0].message
        );
        assert!(f[0].message.contains("crawler::Shared.hosts"));
        assert!(f[0].message.contains("cycle"));
    }

    #[test]
    fn consistent_order_is_clean() {
        let src = format!(
            "{TWO_LOCK_STRUCT}impl Shared {{\n\
             \x20   pub fn a(&self) {{ let j = self.jobs.lock(); let h = self.hosts.read(); work(j, h); }}\n\
             \x20   pub fn b(&self) {{ let j = self.jobs.lock(); let h = self.hosts.write(); work(j, h); }}\n\
             }}\n"
        );
        let files = [("crates/crawler/src/pool.rs", src.as_str())];
        let w = ws(&files);
        assert!(check_lock_order(&w).is_empty());
    }

    #[test]
    fn cross_file_inversion_fires() {
        let a = format!(
            "{TWO_LOCK_STRUCT}impl Shared {{\n\
             \x20   pub fn a(&self) {{ let j = self.jobs.lock(); let h = self.hosts.read(); work(j, h); }}\n\
             }}\n"
        );
        let b = "impl Shared {\n\
             \x20   pub fn b(&self) { let h = self.hosts.write(); let j = self.jobs.lock(); work(j, h); }\n\
             }\n";
        let files = [
            ("crates/crawler/src/pool.rs", a.as_str()),
            ("crates/crawler/src/steal.rs", b),
        ];
        let w = ws(&files);
        let f = check_lock_order(&w);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("steal.rs") || f[0].file.contains("pool.rs"));
    }

    #[test]
    fn same_lock_reacquired_is_clean() {
        let src = "pub struct M { inner: Mutex<u32> }\n\
             impl M {\n\
             \x20   pub fn bump(&self) { self.inner.lock(); self.inner.lock(); }\n\
             }\n";
        let files = [("crates/net/src/m.rs", src)];
        let w = ws(&files);
        assert!(check_lock_order(&w).is_empty());
    }

    #[test]
    fn non_lock_read_write_receivers_ignored() {
        let src = "pub struct F { file: Handle, buf: Mutex<Vec<u8>> }\n\
             impl F {\n\
             \x20   pub fn go(&self) { self.file.read(); self.buf.lock(); }\n\
             \x20   pub fn back(&self) { self.buf.lock(); self.file.read(); }\n\
             }\n";
        let files = [("crates/net/src/f.rs", src)];
        let w = ws(&files);
        assert!(check_lock_order(&w).is_empty(), "file is not a lock field");
    }
}
