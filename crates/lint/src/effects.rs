//! Fn-level filesystem-effect inference and the `F1` rule.
//!
//! PR 8's streaming contract keeps durable writes confined to the
//! journal/shard layer (`crates/core/src/journal.rs`, `shard.rs`): the
//! per-domain hot loop appends through `ShardedJournal`, and nothing
//! else on the pipeline's hot path touches the filesystem. This pass
//! makes that contract checkable: every fn gets an *fs effect* bit —
//! true when it (transitively) performs filesystem I/O that does **not**
//! originate inside the sanctioned journal/shard modules — propagated
//! callees-first over the `cost::call_sccs` condensation,
//! exactly the way the cost model propagates totals.
//!
//! **`F1` filesystem-I/O-in-hot-loop** (Warn): a call at loop depth ≥ 1
//! inside a fn of the pipeline hot set either performs filesystem I/O
//! directly or reaches a workspace fn with an unsanctioned fs effect.
//! At the 10–100× corpus scale an open/write per loop iteration is a
//! syscall storm the sharded journal exists to absorb; findings carry
//! the cost model's entry→fn witness chain.
//!
//! Approximation directions (DESIGN.md §6a): the fs base set is
//! syntactic (`fs::*` paths, `File`/`OpenOptions` ctors, `sync_all`/
//! `sync_data`), so I/O behind an unresolvable trait object is missed
//! (under-approximates effects); propagation merges all call edges, so
//! a dynamically-dead branch still taints its caller (over-approximates
//! reachability, the conservative direction for a hot-loop rule); and
//! effects originating *inside* journal/shard files are sanctioned
//! wholesale — the rule checks confinement, not volume.

use crate::callgraph::{CallGraph, FnNode, Resolution};
use crate::cost::{self, CostModel};
use crate::findings::{Finding, Severity};
use crate::graph::Workspace;
use crate::parser::CallSite;

/// Method names that force durable I/O on an already-open handle.
const FS_METHODS: &[&str] = &["sync_all", "sync_data"];

/// Type heads whose associated fns open filesystem handles.
const FS_TYPES: &[&str] = &["File", "OpenOptions", "DirBuilder"];

/// Files whose filesystem effects are sanctioned: the durable-write
/// layer the rest of the pipeline is supposed to route through.
const SANCTIONED_SUFFIXES: &[&str] = &["/journal.rs", "/shard.rs"];

/// Whether one call site is directly filesystem I/O.
fn is_fs_call(call: &CallSite<'_>) -> bool {
    if call.is_method {
        return FS_METHODS.contains(&call.name);
    }
    // Path calls: `fs::write`, `std::fs::read_to_string`,
    // `File::open`, `OpenOptions::new`.
    call.path.contains(&"fs")
        || call
            .path
            .first()
            .is_some_and(|head| FS_TYPES.contains(head))
}

/// Whether a fn's defining file is part of the sanctioned write layer.
fn is_sanctioned(ws: &Workspace<'_>, node: &FnNode<'_>) -> bool {
    ws.files.get(node.file).is_some_and(|f| {
        SANCTIONED_SUFFIXES
            .iter()
            .any(|s| f.parsed.rel_path.ends_with(s))
    })
}

/// Per-fn effect facts for one analyzed workspace.
#[derive(Debug)]
pub struct EffectModel {
    /// Whether the fn transitively performs filesystem I/O originating
    /// outside the journal/shard layer (index = call-graph fn id).
    pub fs_unsanctioned: Vec<bool>,
}

impl EffectModel {
    /// Infer effects for every call-graph fn, callees first.
    pub fn build(ws: &Workspace<'_>, graph: &CallGraph<'_>) -> EffectModel {
        let n = graph.fns.len();
        let mut fs_unsanctioned = vec![false; n];
        for (i, node) in graph.fns.iter().enumerate() {
            if is_sanctioned(ws, node) {
                continue;
            }
            if node.info.calls.iter().any(is_fs_call) {
                if let Some(slot) = fs_unsanctioned.get_mut(i) {
                    *slot = true;
                }
            }
        }
        let mut succs: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (u, edges) in graph.edges.iter().enumerate() {
            for edge in edges {
                if let Some(s) = succs.get_mut(u) {
                    s.push(edge.to);
                }
            }
        }
        for component in cost::call_sccs(n, &succs) {
            let tainted = component.iter().any(|&m| {
                fs_unsanctioned.get(m).copied().unwrap_or(false)
                    || succs
                        .get(m)
                        .map(Vec::as_slice)
                        .unwrap_or(&[])
                        .iter()
                        .any(|&t| {
                            !component.contains(&t)
                                && fs_unsanctioned.get(t).copied().unwrap_or(false)
                        })
            });
            if tainted {
                for &m in &component {
                    if let Some(slot) = fs_unsanctioned.get_mut(m) {
                        *slot = true;
                    }
                }
            }
        }
        EffectModel { fs_unsanctioned }
    }

    /// Whether fn `id` carries an unsanctioned fs effect.
    pub fn has_fs(&self, id: usize) -> bool {
        self.fs_unsanctioned.get(id).copied().unwrap_or(false)
    }
}

/// Run the `F1` pass: unsanctioned filesystem I/O at loop depth ≥ 1 in
/// hot-set fns outside the journal/shard layer.
pub fn check_effects(
    ws: &Workspace<'_>,
    graph: &CallGraph<'_>,
    model: &CostModel,
    effects: &EffectModel,
) -> Vec<Finding> {
    let mut findings = Vec::new();
    for (id, node) in graph.fns.iter().enumerate() {
        if !model.is_hot(id) || is_sanctioned(ws, node) {
            continue;
        }
        let Some(file) = ws.files.get(node.file) else {
            continue;
        };
        let resolved_fs = |call: &CallSite<'_>| -> Option<String> {
            if is_fs_call(call) {
                return Some(call.name.to_string());
            }
            match graph.resolve(node.file, node.self_ty, call) {
                Resolution::Fns(ids) => ids
                    .iter()
                    .find(|&&t| effects.has_fs(t))
                    .and_then(|&t| graph.fns.get(t))
                    .map(cost::fn_display),
                _ => None,
            }
        };
        for call in &node.info.calls {
            if node.line_depths.get(&call.line).copied().unwrap_or(0) == 0 {
                continue;
            }
            let Some(callee) = resolved_fs(call) else {
                continue;
            };
            findings.push(Finding::at(
                "F1",
                Severity::Warn,
                file.parsed.rel_path,
                call.line,
                call.col,
                format!(
                    "`{callee}` performs filesystem I/O inside a corpus-scale hot loop \
                     (hot path: {}); route durable writes through the journal/shard \
                     layer or hoist the I/O out of the loop",
                    model
                        .hot_path(graph, id)
                        .unwrap_or_else(|| node.name.to_string()),
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

    fn ws<'a>(files: &'a [(&'a str, &'a str)]) -> Workspace<'a> {
        Workspace::build(files)
    }

    fn f1_findings(files: &[(&str, &str)]) -> Vec<Finding> {
        let ws = ws(files);
        let graph = CallGraph::build(&ws);
        let model = CostModel::build(&ws, &graph);
        let effects = EffectModel::build(&ws, &graph);
        check_effects(&ws, &graph, &model, &effects)
    }

    #[test]
    fn direct_fs_write_in_hot_loop_fires() {
        let findings = f1_findings(&[(
            "crates/core/src/pipeline.rs",
            "pub fn run_pipeline(domains: &[String]) {\n\
                 for d in domains {\n\
                     std::fs::write(d, \"x\").ok();\n\
                 }\n\
             }\n",
        )]);
        assert_eq!(findings.len(), 1, "{findings:?}");
        let f = findings.first().expect("finding");
        assert_eq!((f.rule, f.severity), ("F1", Severity::Warn));
        assert_eq!(f.line, 3);
        assert!(
            f.message.contains("hot path: run_pipeline"),
            "{}",
            f.message
        );
    }

    #[test]
    fn fs_effect_propagates_through_helpers() {
        let findings = f1_findings(&[(
            "crates/core/src/pipeline.rs",
            "pub fn run_pipeline(domains: &[String]) {\n\
                 for d in domains {\n\
                     persist(d);\n\
                 }\n\
             }\n\
             fn persist(d: &str) { std::fs::write(d, \"x\").ok(); }\n",
        )]);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(
            findings
                .first()
                .is_some_and(|f| f.message.contains("persist")),
            "{findings:?}"
        );
    }

    #[test]
    fn journal_layer_calls_are_sanctioned() {
        let findings = f1_findings(&[
            (
                "crates/core/src/pipeline.rs",
                "use crate::journal::append_record;\n\
                 pub fn run_pipeline(domains: &[String]) {\n\
                     for d in domains {\n\
                         append_record(d);\n\
                     }\n\
                 }\n",
            ),
            (
                "crates/core/src/journal.rs",
                "pub fn append_record(d: &str) { std::fs::write(d, \"x\").ok(); }\n",
            ),
        ]);
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn fs_outside_loops_or_cold_fns_is_silent() {
        let findings = f1_findings(&[(
            "crates/core/src/pipeline.rs",
            "pub fn run_pipeline(domains: &[String]) {\n\
                 std::fs::write(\"summary\", \"x\").ok();\n\
                 for d in domains { use_it(d); }\n\
             }\n\
             fn use_it(_d: &str) {}\n\
             pub fn cold_helper(domains: &[String]) {\n\
                 for d in domains { std::fs::write(d, \"x\").ok(); }\n\
             }\n",
        )]);
        assert!(findings.is_empty(), "{findings:?}");
    }
}
