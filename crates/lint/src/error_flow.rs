//! `E1`: discarded `Result`s from fallible workspace functions.
//!
//! The paper's pipeline earns trust through verification layers; an error
//! silently dropped between them (a crawl failure, a malformed annotation,
//! a validation miss) turns a measured number into a guess. This pass
//! resolves every call in library code through the import-aware
//! [`crate::callgraph`] and flags:
//!
//! - `let _ = fallible(...);` — the error explicitly thrown away;
//! - `fallible(...);` as a bare statement — implicitly dropped;
//! - `anything.ok();` statement-final — the error mapped to `None` and
//!   then dropped, which is the same silence with extra steps.
//!
//! A discarded call fires only when resolution lands on a workspace fn
//! whose declared return type mentions `Result`. A call that resolves
//! *external* (a foreign import shadowing a workspace name, `std::fs::
//! remove_file` style) or *unknown* (a method on a non-`self` receiver)
//! never fires — the bare-name collision class that previously needed a
//! standing allowlist entry is resolved structurally instead.
//! Tests, benches, examples, binaries, and `#[cfg(test)]` code are exempt,
//! as for `R1`/`O1`.

use crate::callgraph::{CallGraph, Resolution};
use crate::findings::{Finding, Severity};
use crate::graph::Workspace;
use crate::parser::Discard;

/// Run the `E1` pass over an analyzed workspace.
pub fn check_error_flow(ws: &Workspace<'_>) -> Vec<Finding> {
    let graph = CallGraph::build(ws);
    check_with_graph(ws, &graph)
}

/// `E1` against a prebuilt call graph (shared with the `X1` pass).
pub fn check_with_graph(ws: &Workspace<'_>, graph: &CallGraph<'_>) -> Vec<Finding> {
    let mut findings = Vec::new();
    for node in &graph.fns {
        let Some(file) = ws.files.get(node.file) else {
            continue;
        };
        for call in &node.info.calls {
            if call.discard == Discard::None {
                continue;
            }
            if call.is_method && call.name == "ok" {
                findings.push(Finding::at(
                    "E1",
                    Severity::Warn,
                    file.parsed.rel_path,
                    call.line,
                    call.col,
                    "`.ok()` whose value is immediately dropped swallows the error; \
                     handle the Err case, propagate with `?`, or match explicitly"
                        .to_string(),
                    file.snippet(call.line),
                ));
                continue;
            }
            let Resolution::Fns(ids) = graph.resolve(node.file, node.self_ty, call) else {
                continue;
            };
            let fallible = ids
                .iter()
                .any(|id| graph.fns.get(*id).is_some_and(|f| f.info.returns_result));
            if !fallible {
                continue;
            }
            let how = match call.discard {
                Discard::LetUnderscore => "`let _ =` discards",
                _ => "a bare statement drops",
            };
            findings.push(Finding::at(
                "E1",
                Severity::Warn,
                file.parsed.rel_path,
                call.line,
                call.col,
                format!(
                    "{how} the Result of fallible workspace fn `{}`; handle or \
                     propagate the error (or justify the discard in lint.allow)",
                    call.name
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

    const FALLIBLE_DEF: (&str, &str) = (
        "crates/net/src/url.rs",
        "pub fn parse(s: &str) -> Result<Url, UrlError> { todo(s) }\n",
    );

    #[test]
    fn let_underscore_discard_fires() {
        let w = ws(&[
            FALLIBLE_DEF,
            (
                "crates/core/src/lib.rs",
                "use aipan_net::url::parse;\npub fn f(s: &str) { let _ = parse(s); }\n",
            ),
        ]);
        let f = check_error_flow(&w);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(
            (f[0].rule, f[0].file.as_str()),
            ("E1", "crates/core/src/lib.rs")
        );
        assert!(f[0].message.contains("let _ ="), "{}", f[0].message);
    }

    #[test]
    fn bare_statement_discard_fires() {
        let w = ws(&[
            FALLIBLE_DEF,
            (
                "crates/core/src/lib.rs",
                "use aipan_net::url::parse;\npub fn f(s: &str) { parse(s); }\n",
            ),
        ]);
        let f = check_error_flow(&w);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("bare statement"));
    }

    #[test]
    fn ok_swallowing_fires_regardless_of_callee_origin() {
        let w = ws(&[(
            "crates/core/src/lib.rs",
            "pub fn f(s: &str) { std::fs::remove_file(s).ok(); }\n",
        )]);
        let f = check_error_flow(&w);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains(".ok()"));
    }

    #[test]
    fn used_results_are_clean() {
        let w = ws(&[
            FALLIBLE_DEF,
            (
                "crates/core/src/lib.rs",
                "use aipan_net::url::parse;\n\
                 pub fn f(s: &str) -> Result<Url, UrlError> {\n\
                 \x20   let u = parse(s)?;\n\
                 \x20   if parse(s).is_ok() { return parse(s); }\n\
                 \x20   let v = parse(s).ok();\n\
                 \x20   other(v);\n\
                 \x20   Ok(u)\n\
                 }\n\
                 fn other<T>(_v: T) {}\n",
            ),
        ]);
        let f = check_error_flow(&w);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn test_code_and_test_targets_are_exempt() {
        let w = ws(&[
            FALLIBLE_DEF,
            (
                "crates/core/src/lib.rs",
                "use aipan_net::url::parse;\n\
                 #[cfg(test)]\nmod tests {\n    fn t() { let _ = parse(\"x\"); }\n}\n",
            ),
            (
                "crates/core/tests/t.rs",
                "#[test]\nfn t() { let _ = parse(\"x\"); }\n",
            ),
        ]);
        assert!(check_error_flow(&w).is_empty());
    }

    #[test]
    fn infallible_workspace_fns_are_clean() {
        let w = ws(&[
            (
                "crates/net/src/url.rs",
                "pub fn normalize(s: &str) -> String { s.to_string() }\n",
            ),
            (
                "crates/core/src/lib.rs",
                "use aipan_net::url::normalize;\npub fn f(s: &str) { normalize(s); }\n",
            ),
        ]);
        assert!(check_error_flow(&w).is_empty());
    }

    #[test]
    fn unimported_bare_name_does_not_fire() {
        // Without a `use`, resolution is Unknown — the old bare-name
        // matching would have fired here.
        let w = ws(&[
            FALLIBLE_DEF,
            (
                "crates/core/src/lib.rs",
                "pub fn f(s: &str) { let _ = parse(s); }\n",
            ),
        ]);
        assert!(check_error_flow(&w).is_empty());
    }

    #[test]
    fn external_import_shadows_workspace_name() {
        // `remove_file` exists fallibly in the workspace, but this file
        // imported std's; the discard is of the external one.
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
        assert!(check_error_flow(&w).is_empty());
    }

    #[test]
    fn foreign_method_sharing_a_workspace_fn_name_does_not_fire() {
        // The crossbeam-`join` collision class: a method on a non-`self`
        // receiver never resolves to a workspace free fn.
        let w = ws(&[
            (
                "crates/exec/src/lib.rs",
                "pub fn join(parts: &[String]) -> Result<String, E> { Err(E) }\n",
            ),
            (
                "crates/crawler/src/pool.rs",
                "pub fn run(handle: Handle) { handle.join(); }\n",
            ),
        ]);
        assert!(check_error_flow(&w).is_empty());
    }
}
