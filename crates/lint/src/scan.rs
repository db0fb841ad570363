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
//! 1. **token rules** ([`crate::rules`]): each file is lexed once, and its
//!    tokens go through the lexer-level passes (`D1`/`D2`/`R1`/`O1`/`H1`),
//!    the item parser ([`crate::parser`]) and the mention scan;
//! 2. **graph rules**: the parsed files form a
//!    [`crate::graph::Workspace`], then `L1` layering runs against the
//!    `lint.toml` contract;
//! 3. **shared models**, built once over the workspace: the
//!    [`crate::callgraph::CallGraph`], which lowers each fn once (its CFG
//!    and loop depths, read by every dataflow pass below), the
//!    [`crate::cost::CostModel`], the [`crate::types::TypeIndex`] and the
//!    [`crate::effects::EffectModel`];
//! 4. **dataflow and whole-workspace passes** over those models: `E1`
//!    error flow, `K1` lock order, `X1` panic-reachability, `D3`
//!    determinism taint, `H2` cost, `M1` guard liveness, `S1`
//!    retention, `W1` sharing, `N1`/`N2` numeric safety, `A1` atomics,
//!    `F1` filesystem effects, and `P1` dead pub;
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
    atomics, cost, effects, error_flow, guards, invariants, lexer, locks, numeric, panic_reach,
    retain, rules, share, taint, types,
};
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Directories under the workspace root that are scanned for `.rs` files.
const SCAN_ROOTS: &[&str] = &["crates", "src", "tests", "examples", "benches"];

/// Directory names never descended into.
const SKIP_DIRS: &[&str] = &["vendor", "target"];

/// Whether `dir` holds a `Cargo.toml` with a `[workspace]` table.
pub fn is_workspace_root(dir: &Path) -> bool {
    fs::read_to_string(dir.join("Cargo.toml")).is_ok_and(|text| text.contains("[workspace]"))
}

/// Locate the workspace root: walk up from `start` to the first directory
/// holding a `Cargo.toml` with a `[workspace]` table.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    start
        .ancestors()
        .find(|d| is_workspace_root(d))
        .map(Path::to_path_buf)
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
    /// Findings suppressed by `lint.allow` (counted in the human summary,
    /// listed under `suppressed` in the JSON report).
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
    let mut workspace = Workspace::default();
    for (rel, src) in &sources {
        let tokens = lexer::lex(src);
        raw.extend(rules::lint_tokens(rel, src, &tokens));
        workspace.add_file(rel, src, &tokens);
    }
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
        // `H2`/`S1`/`N2`/`F1` fire only in hot fns, so renaming an entry
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
    fn gated_type_solve_matches_the_full_solve() {
        // `N1`/`N2`/`A1` solve local types only where a site can report;
        // the unconditional loop is the reference. Every site kind the
        // gates name has a positive fixture, and the workspace itself
        // supplies ~1,000 fns the gates mostly skip.
        let fixtures = [
            (
                "crates/core/src/lib.rs",
                "pub struct Tally { pub rows_total: u64 }\n\
                 fn bump(t: &mut Tally) { t.rows_total += 1; }\n\
                 fn cold(t: &mut Tally) { t.rows_total += 1; }\n\
                 pub fn run_pipeline(t: &mut Tally, domains: &[String]) -> u32 {\n\
                     for _d in domains { bump(t); }\n\
                     let n = domains.len();\n\
                     let byte_count = 3u32;\n\
                     let wide = byte_count as u64;\n\
                     n as u32\n\
                 }\n",
            ),
            (
                "crates/core/src/gauge.rs",
                "pub struct Gauge { n: AtomicU64, m: AtomicU64 }\n\
                 impl Gauge {\n\
                     pub fn bump(&self) {\n\
                         let v = self.n.load(Ordering::Relaxed);\n\
                         self.n.store(v + 1, Ordering::Relaxed);\n\
                     }\n\
                     pub fn reset(&self) -> u64 { self.m.swap(0, Ordering::Relaxed) }\n\
                     pub fn try_set(&self, v: u64) {\n\
                         self.m.compare_exchange(0, v, Ordering::Relaxed, Ordering::Relaxed).ok();\n\
                     }\n\
                     pub fn read(&self) -> u64 { self.m.load(Ordering::SeqCst) }\n\
                 }\n",
            ),
        ];
        let here = Path::new(env!("CARGO_MANIFEST_DIR"));
        let root = find_workspace_root(here).unwrap();
        let mut cases: Vec<Vec<(String, String)>> = fixtures
            .iter()
            .map(|(p, s)| vec![(p.to_string(), s.to_string())])
            .collect();
        cases.push(read_sources(&root, |_| true).unwrap());
        let mut rules: Vec<Vec<&str>> = Vec::new();
        for sources in &cases {
            let workspace = Workspace::build(sources);
            let graph = CallGraph::build(&workspace);
            let model = cost::CostModel::build(&workspace, &graph);
            let index = types::TypeIndex::build(&workspace);
            let mut gated = numeric::check_numeric(&workspace, &graph, &model, &index);
            let full = numeric::reference::check_numeric(&workspace, &graph, &model, &index);
            assert_eq!(gated, full);
            let skipped = numeric::reference::skipped_findings(&workspace, &graph, &model, &index);
            assert!(skipped.is_empty(), "{skipped:?}");
            let atomic = atomics::check_atomics(&workspace, &graph, &index);
            let full = atomics::reference::check_atomics(&workspace, &graph, &index);
            assert_eq!(atomic, full);
            assert_eq!(atomics::reference::skipped_sites(&graph, &index), 0);
            gated.extend(atomic);
            rules.push(gated.iter().map(|f| f.rule).collect());
        }
        // The fixtures exercise every site kind: casts both ways, a hot
        // counter, and each `A1` shape; the workspace is lint-clean.
        assert_eq!(
            rules,
            vec![vec!["N2", "N1", "N1"], vec!["A1", "A1", "A1", "A1"], vec![]]
        );
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
