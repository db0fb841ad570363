//! CLI for the workspace lint pass.
//!
//! ```text
//! cargo run -p aipan-lint -- [--format human|json] [--deny-warnings] [--root DIR] [--allow FILE]
//! cargo run -p aipan-lint -- --explain RULE
//! ```
//!
//! Exit codes: 0 clean (or warnings only, without `--deny-warnings`),
//! 1 findings failed the run, 2 usage or I/O error — including a `--root`
//! that is not a workspace root (a directory whose `Cargo.toml` has a
//! `[workspace]` table) and an `--allow` file that does not exist.

use aipan_lint::allow::Allowlist;
use aipan_lint::{catalog, report, scan};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Report rendering selected by `--format`.
#[derive(Clone, Copy, PartialEq)]
enum OutputFormat {
    Human,
    Json,
}

struct Options {
    format: OutputFormat,
    deny_warnings: bool,
    root: Option<PathBuf>,
    allow: Option<PathBuf>,
}

fn parse_args() -> Result<Options, String> {
    let mut opts = Options {
        format: OutputFormat::Human,
        deny_warnings: false,
        root: None,
        allow: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            // `cargo lint` aliases to `run -p aipan-lint --`, so a second
            // `--` from `cargo lint -- --explain X1` arrives literally; ignore it.
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
                     \x20 --deny-warnings   any finding fails the run (CI mode)\n\
                     \x20 --root DIR        workspace root (default: discovered from cwd)\n\
                     \x20 --allow FILE      allowlist path (default: <root>/lint.allow)"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown option `{other}` (try --help)")),
        }
    }
    Ok(opts)
}

/// Load the allowlist from disk. A missing default `<root>/lint.allow`
/// is an empty list; a missing file the user `named` is an error.
fn load_allowlist(allow_path: &Path, named: bool) -> Result<Allowlist, String> {
    if !allow_path.is_file() {
        return if named {
            Err("no such allowlist file".to_string())
        } else {
            Ok(Allowlist::default())
        };
    }
    std::fs::read_to_string(allow_path)
        .map_err(|e| e.to_string())
        .and_then(|text| Allowlist::parse(&text).map_err(|e| e.to_string()))
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("aipan-lint: {e}");
            return ExitCode::from(2);
        }
    };

    if let Some(root) = &opts.root {
        if !scan::is_workspace_root(root) {
            eprintln!(
                "aipan-lint: --root {}: not a directory holding a Cargo.toml with a \
                 [workspace] table",
                root.display()
            );
            return ExitCode::from(2);
        }
    }
    let root = match opts.root.or_else(|| {
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

    let named = opts.allow.is_some();
    let allow_path = opts.allow.unwrap_or_else(|| root.join("lint.allow"));

    let allowlist = match load_allowlist(&allow_path, named) {
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
        OutputFormat::Human => print!("{}", report::human(&lint_report, opts.deny_warnings)),
    }

    if lint_report.failed(opts.deny_warnings) {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}
