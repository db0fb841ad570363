//! Workspace discovery and the end-to-end lint driver.
//!
//! Scans the workspace's own Rust sources — `crates/`, `src/`, `tests/`,
//! `examples/`, `benches/` — skipping `vendor/` (offline stand-in crates are
//! third-party API mirrors, not our code), `target/`, and hidden
//! directories.
//!
//! [`run_filtered`] (and [`run`], its whole-workspace form) is the only
//! driver. It runs every pass over the same file set, in this order:
//!
//! 1. **token rules** ([`crate::rules`]): each file independently through
//!    the lexer-level passes (`D1`/`D2`/`R1`/`O1`/`H1`/`B1`);
//! 2. **graph rules**: all files parsed ([`crate::parser`]) into a
//!    [`crate::graph::Workspace`], then `L1` layering against the
//!    `lint.toml` contract;
//! 3. **shared models**, built once over the workspace: the
//!    [`crate::callgraph::CallGraph`], the [`crate::cost::CostModel`], the
//!    [`crate::types::TypeIndex`] and the [`crate::effects::EffectModel`];
//! 4. **dataflow and whole-workspace passes** over those models: `E1`
//!    error flow, `K1` lock order, `X1` panic-reachability, `D3`
//!    determinism taint, `H2`/`C2` cost, `M1`/`M2` guard liveness,
//!    `S1`/`S2` retention, `W1`/`W2` sharing, `N1`/`N2` numeric safety,
//!    `A1` atomics, `F1` filesystem effects, and `P1` dead pub;
//! 5. the taxonomy data invariants (`T1`–`T3`).
//!
//! Last, findings are partitioned through the allowlist, unused entries
//! become `A0` findings, and both lists are sorted.

use crate::allow::Allowlist;
use crate::callgraph::CallGraph;
use crate::config::Config;
use crate::findings::{sort_findings, Finding};
use crate::graph::Workspace;
use crate::{
    atomics, cost, effects, error_flow, guards, invariants, locks, numeric, panic_reach, retain,
    rules, share, taint, types,
};
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Directories under the workspace root that are scanned for `.rs` files.
const SCAN_ROOTS: &[&str] = &["crates", "src", "tests", "examples", "benches"];

/// Directory names never descended into.
const SKIP_DIRS: &[&str] = &["vendor", "target"];

/// Locate the workspace root: walk up from `start` to the first directory
/// holding a `Cargo.toml` with a `[workspace]` table.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start);
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if let Ok(text) = fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(d.to_path_buf());
            }
        }
        dir = d.parent();
    }
    None
}

/// All lintable source files under `root`, as sorted workspace-relative
/// forward-slash paths.
pub(crate) fn source_files(root: &Path) -> io::Result<Vec<String>> {
    let mut files = Vec::new();
    for scan_root in SCAN_ROOTS {
        let dir = root.join(scan_root);
        if dir.is_dir() {
            walk_dir(&dir, root, &mut files)?;
        }
    }
    files.sort();
    Ok(files)
}

fn walk_dir(dir: &Path, root: &Path, out: &mut Vec<String>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if name.starts_with('.') || SKIP_DIRS.contains(&name.as_ref()) {
            continue;
        }
        if path.is_dir() {
            walk_dir(&path, root, out)?;
        } else if name.ends_with(".rs") {
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .components()
                .map(|c| c.as_os_str().to_string_lossy().into_owned())
                .collect::<Vec<_>>()
                .join("/");
            out.push(rel);
        }
    }
    Ok(())
}

/// Outcome of a full lint run.
#[derive(Debug)]
pub struct Report {
    /// Findings that survived the allowlist, sorted deterministically.
    pub findings: Vec<Finding>,
    /// Findings suppressed by `lint.allow` (kept for `--verbose` display).
    pub suppressed: Vec<Finding>,
    /// Number of files scanned.
    pub files_scanned: usize,
}

impl Report {
    /// Whether the run fails under the given strictness.
    pub fn failed(&self, deny_warnings: bool) -> bool {
        if deny_warnings {
            !self.findings.is_empty()
        } else {
            self.findings
                .iter()
                .any(|f| f.severity == crate::findings::Severity::Deny)
        }
    }
}

/// Lint the whole workspace at `root` against `allowlist`.
pub fn run(root: &Path, allowlist: Allowlist) -> io::Result<Report> {
    run_filtered(root, allowlist, |_| true)
}

/// Read every kept source file under `root` as `(rel_path, text)` pairs.
///
/// Public so out-of-crate harnesses can rebuild the exact scan set and
/// time individual passes against it.
pub fn read_sources(root: &Path, keep: impl Fn(&str) -> bool) -> io::Result<Vec<(String, String)>> {
    let files: Vec<String> = source_files(root)?
        .into_iter()
        .filter(|rel| keep(rel))
        .collect();
    let mut sources: Vec<(String, String)> = Vec::with_capacity(files.len());
    for rel in files {
        let src = fs::read_to_string(root.join(&rel))?;
        sources.push((rel, src));
    }
    Ok(sources)
}

/// Lint the subset of workspace files whose relative path satisfies
/// `keep`. The graph passes see only the kept files, so a subset run
/// answers "is this corner self-consistent?" — `tests/lint_self_clean.rs`
/// uses it to hold `crates/lint` to its own rules with no allowlist.
pub fn run_filtered(
    root: &Path,
    mut allowlist: Allowlist,
    keep: impl Fn(&str) -> bool,
) -> io::Result<Report> {
    let sources = read_sources(root, keep)?;
    let mut raw = Vec::new();
    for (rel, src) in &sources {
        raw.extend(rules::lint_source(rel, src));
    }
    let workspace = Workspace::build(&sources);
    let config_path = root.join("lint.toml");
    if config_path.is_file() {
        let text = fs::read_to_string(&config_path)?;
        let config = Config::parse(&text)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        raw.extend(workspace.check_layering(&config));
    }
    let callgraph = CallGraph::build(&workspace);
    let cost_model = cost::CostModel::build(&workspace, &callgraph);
    let type_index = types::TypeIndex::build(&workspace);
    let effect_model = effects::EffectModel::build(&workspace, &callgraph);
    raw.extend(error_flow::check_with_graph(&workspace, &callgraph));
    raw.extend(locks::check_lock_order(&workspace));
    raw.extend(panic_reach::check_panic_reach(&workspace, &callgraph));
    raw.extend(taint::check_taint(&workspace, &callgraph));
    raw.extend(cost::check_cost(&workspace, &callgraph, &cost_model));
    raw.extend(guards::check_guards(&workspace, &callgraph, &cost_model));
    raw.extend(retain::check_retention(&workspace, &callgraph, &cost_model));
    raw.extend(share::check_sharing(&workspace, &callgraph, &cost_model));
    raw.extend(numeric::check_numeric(
        &workspace,
        &callgraph,
        &cost_model,
        &type_index,
    ));
    raw.extend(atomics::check_atomics(&workspace, &callgraph, &type_index));
    raw.extend(effects::check_effects(
        &workspace,
        &callgraph,
        &cost_model,
        &effect_model,
    ));
    raw.extend(workspace.check_dead_pub());
    raw.extend(invariants::check_all());

    let mut findings = Vec::new();
    let mut suppressed = Vec::new();
    for finding in raw {
        if allowlist.permits(&finding) {
            suppressed.push(finding);
        } else {
            findings.push(finding);
        }
    }
    findings.extend(allowlist.unused());
    sort_findings(&mut findings);
    sort_findings(&mut suppressed);
    Ok(Report {
        findings,
        suppressed,
        files_scanned: sources.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finds_this_workspace_root() {
        let here = Path::new(env!("CARGO_MANIFEST_DIR"));
        let root = find_workspace_root(here).expect("lint crate lives in the workspace");
        assert!(root.join("crates/lint/Cargo.toml").is_file());
    }

    #[test]
    fn scan_skips_vendor_and_sorts() {
        let here = Path::new(env!("CARGO_MANIFEST_DIR"));
        let root = find_workspace_root(here).unwrap();
        let files = source_files(&root).unwrap();
        assert!(!files.is_empty());
        assert!(
            files.iter().all(|f| !f.starts_with("vendor/")),
            "vendor must be skipped"
        );
        assert!(files.iter().any(|f| f == "crates/lint/src/lexer.rs"));
        let mut sorted = files.clone();
        sorted.sort();
        assert_eq!(files, sorted);
    }

    #[test]
    fn cost_model_entries_cover_the_pipeline_and_annotate_surface() {
        // `H2`/`N2`/`F1`/`W2` fire only in hot fns, so renaming an entry
        // point would silently mute them: pin the real workspace's entries
        // and one annotate fn the hot set must reach.
        let here = Path::new(env!("CARGO_MANIFEST_DIR"));
        let root = find_workspace_root(here).unwrap();
        let sources = read_sources(&root, |_| true).unwrap();
        let workspace = Workspace::build(&sources);
        let callgraph = CallGraph::build(&workspace);
        let model = cost::CostModel::build(&workspace, &callgraph);
        let entry_names: Vec<&str> = model
            .entries
            .iter()
            .filter_map(|&id| callgraph.fns.get(id).map(|f| f.name))
            .collect();
        for entry in ["run_pipeline", "crawl_all"] {
            assert!(entry_names.contains(&entry), "{entry_names:?}");
        }
        let hot_annotate = callgraph
            .fns
            .iter()
            .enumerate()
            .any(|(id, f)| f.name == "annotate_policy_with" && model.is_hot(id));
        assert!(hot_annotate, "annotate_policy_with must be hot");
    }

    #[test]
    fn filtered_run_sees_only_kept_files() {
        let here = Path::new(env!("CARGO_MANIFEST_DIR"));
        let root = find_workspace_root(here).unwrap();
        let report = run_filtered(&root, Allowlist::default(), |rel| {
            rel.starts_with("crates/lint/src/")
        })
        .expect("subset scan");
        let all = source_files(&root).unwrap();
        assert!(report.files_scanned > 0);
        assert!(report.files_scanned < all.len());
    }
}
