//! CLI for the workspace lint pass.
//!
//! ```text
//! cargo run -p aipan-lint -- [--format human|json] [--deny-warnings] [--verbose] [--root DIR] [--allow FILE]
//! cargo run -p aipan-lint -- --explain RULE
//! cargo run -p aipan-lint -- --fix [--dry-run]
//! ```
//!
//! Exit codes: 0 clean (or warnings only, without `--deny-warnings`),
//! 1 findings failed the run (or, under `--fix --dry-run`, fixes are
//! pending), 2 usage or I/O error.

use aipan_lint::allow::Allowlist;
use aipan_lint::{catalog, fix, report, scan};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// `--fix` re-lints and re-applies until a fixpoint, bounded by this many
/// rounds (hoists can unlock further hoists; anything deeper is a bug).
const MAX_FIX_ROUNDS: usize = 5;

/// Report rendering selected by `--format`.
#[derive(Clone, Copy, PartialEq)]
enum OutputFormat {
    Human,
    Json,
}

struct Options {
    format: OutputFormat,
    deny_warnings: bool,
    verbose: bool,
    fix: bool,
    dry_run: bool,
    root: Option<PathBuf>,
    allow: Option<PathBuf>,
}

fn parse_args() -> Result<Options, String> {
    let mut opts = Options {
        format: OutputFormat::Human,
        deny_warnings: false,
        verbose: false,
        fix: false,
        dry_run: false,
        root: None,
        allow: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            // `cargo lint` aliases to `run -p aipan-lint --`, so a second
            // `--` from `cargo lint -- --fix` arrives literally; ignore it.
            "--" => {}
            "--format" => {
                let value = args.next().ok_or("--format needs `human` or `json`")?;
                match value.as_str() {
                    "json" => opts.format = OutputFormat::Json,
                    "human" => opts.format = OutputFormat::Human,
                    other => {
                        return Err(format!("--format must be `human` or `json`, got `{other}`"))
                    }
                }
            }
            "--explain" => {
                let id = args.next().ok_or("--explain needs a rule id (e.g. X1)")?;
                match catalog::explain(&id) {
                    Ok(text) => {
                        print!("{text}");
                        std::process::exit(0);
                    }
                    Err(e) => return Err(e),
                }
            }
            "--deny-warnings" => opts.deny_warnings = true,
            "--verbose" => opts.verbose = true,
            "--fix" => opts.fix = true,
            "--dry-run" => opts.dry_run = true,
            "--root" => {
                opts.root = Some(PathBuf::from(
                    args.next().ok_or("--root needs a directory argument")?,
                ))
            }
            "--allow" => {
                opts.allow = Some(PathBuf::from(
                    args.next().ok_or("--allow needs a file argument")?,
                ))
            }
            "--help" | "-h" => {
                println!(
                    "aipan-lint: workspace determinism & invariant checks\n\n\
                     USAGE: cargo run -p aipan-lint -- [OPTIONS]\n\n\
                     OPTIONS:\n\
                     \x20 --format FORMAT   output format: human (default) or json\n\
                     \x20 --explain RULE    print the catalog entry for one rule (e.g. X1)\n\
                     \x20 --fix             apply machine-applicable fixes, re-lint to fixpoint\n\
                     \x20 --dry-run         with --fix: print the would-be unified diff instead\n\
                     \x20 --deny-warnings   any finding fails the run (CI mode)\n\
                     \x20 --verbose         also list allowlist-suppressed findings\n\
                     \x20 --root DIR        workspace root (default: discovered from cwd)\n\
                     \x20 --allow FILE      allowlist path (default: <root>/lint.allow)"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown option `{other}` (try --help)")),
        }
    }
    if opts.dry_run && !opts.fix {
        return Err("--dry-run only makes sense together with --fix".to_string());
    }
    Ok(opts)
}

/// Load the allowlist fresh from disk (the `--fix` loop re-scans, and
/// `Allowlist` tracks per-run usage, so each scan needs its own copy).
fn load_allowlist(allow_path: &Path) -> Result<Allowlist, String> {
    if !allow_path.is_file() {
        return Ok(Allowlist::default());
    }
    std::fs::read_to_string(allow_path)
        .map_err(|e| e.to_string())
        .and_then(|text| Allowlist::parse(&text).map_err(|e| e.to_string()))
}

/// Pending fix edits per workspace-relative file, from non-allowlisted
/// findings only (allowlisted findings are vetted exceptions, not bugs
/// to rewrite).
fn fixes_by_file(lint_report: &scan::Report) -> BTreeMap<String, Vec<fix::FixEdit>> {
    let mut by_file: BTreeMap<String, Vec<fix::FixEdit>> = BTreeMap::new();
    for f in &lint_report.findings {
        if let Some(fx) = &f.fix {
            by_file
                .entry(f.file.clone())
                .or_default()
                .extend(fx.edits.iter().cloned());
        }
    }
    by_file
}

/// `--fix --dry-run`: print the unified diff of every pending fix; exit 1
/// when any fix is pending (the cleanliness gate), 0 when none.
fn run_dry_run(root: &Path, allow_path: &Path) -> ExitCode {
    let allowlist = match load_allowlist(allow_path) {
        Ok(list) => list,
        Err(e) => {
            eprintln!("aipan-lint: {}: {e}", allow_path.display());
            return ExitCode::from(2);
        }
    };
    let lint_report = match scan::run(root, allowlist) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("aipan-lint: scan failed: {e}");
            return ExitCode::from(2);
        }
    };
    let by_file = fixes_by_file(&lint_report);
    let mut pending = 0usize;
    for (rel, edits) in &by_file {
        let old = match std::fs::read_to_string(root.join(rel)) {
            Ok(text) => text,
            Err(e) => {
                eprintln!("aipan-lint: {rel}: {e}");
                return ExitCode::from(2);
            }
        };
        let new = fix::apply_edits(&old, edits);
        let diff = fix::unified_diff(rel, &old, &new);
        if !diff.is_empty() {
            pending += 1;
            print!("{diff}");
        }
    }
    println!("aipan-lint --fix --dry-run: {pending} file(s) with pending machine-applicable fixes");
    if pending > 0 {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}

/// `--fix`: apply pending fixes, re-lint, repeat to a fixpoint, then
/// report like a normal run.
fn run_fix(root: &Path, allow_path: &Path, opts: &Options) -> ExitCode {
    let mut files_rewritten = 0usize;
    for _round in 0..MAX_FIX_ROUNDS {
        let allowlist = match load_allowlist(allow_path) {
            Ok(list) => list,
            Err(e) => {
                eprintln!("aipan-lint: {}: {e}", allow_path.display());
                return ExitCode::from(2);
            }
        };
        let lint_report = match scan::run(root, allowlist) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("aipan-lint: scan failed: {e}");
                return ExitCode::from(2);
            }
        };
        let by_file = fixes_by_file(&lint_report);
        let mut changed = false;
        for (rel, edits) in &by_file {
            let path = root.join(rel);
            let old = match std::fs::read_to_string(&path) {
                Ok(text) => text,
                Err(e) => {
                    eprintln!("aipan-lint: {rel}: {e}");
                    return ExitCode::from(2);
                }
            };
            let new = fix::apply_edits(&old, edits);
            if new != old {
                if let Err(e) = std::fs::write(&path, &new) {
                    eprintln!("aipan-lint: {rel}: {e}");
                    return ExitCode::from(2);
                }
                files_rewritten += 1;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }

    let allowlist = match load_allowlist(allow_path) {
        Ok(list) => list,
        Err(e) => {
            eprintln!("aipan-lint: {}: {e}", allow_path.display());
            return ExitCode::from(2);
        }
    };
    let lint_report = match scan::run(root, allowlist) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("aipan-lint: scan failed: {e}");
            return ExitCode::from(2);
        }
    };
    println!("aipan-lint --fix: rewrote {files_rewritten} file(s)");
    print!("{}", report::human(&lint_report, opts.deny_warnings));
    if lint_report.failed(opts.deny_warnings) {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("aipan-lint: {e}");
            return ExitCode::from(2);
        }
    };

    let root = match opts.root.clone().or_else(|| {
        std::env::current_dir()
            .ok()
            .and_then(|cwd| scan::find_workspace_root(&cwd))
    }) {
        Some(root) => root,
        None => {
            eprintln!("aipan-lint: could not locate workspace root (try --root)");
            return ExitCode::from(2);
        }
    };

    let allow_path = opts
        .allow
        .clone()
        .unwrap_or_else(|| root.join("lint.allow"));

    if opts.fix {
        return if opts.dry_run {
            run_dry_run(&root, &allow_path)
        } else {
            run_fix(&root, &allow_path, &opts)
        };
    }

    let allowlist = match load_allowlist(&allow_path) {
        Ok(list) => list,
        Err(e) => {
            eprintln!("aipan-lint: {}: {e}", allow_path.display());
            return ExitCode::from(2);
        }
    };

    let lint_report = match scan::run(&root, allowlist) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("aipan-lint: scan failed: {e}");
            return ExitCode::from(2);
        }
    };

    match opts.format {
        OutputFormat::Json => println!("{}", report::json(&lint_report)),
        OutputFormat::Human => {
            print!("{}", report::human(&lint_report, opts.deny_warnings));
            if opts.verbose {
                for f in &lint_report.suppressed {
                    println!(
                        "allowlisted: {}:{}:{}: {} {}: {}",
                        f.file,
                        f.line,
                        f.col,
                        f.severity.name(),
                        f.rule,
                        f.message
                    );
                }
            }
        }
    }

    if lint_report.failed(opts.deny_warnings) {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}
