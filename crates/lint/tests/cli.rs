//! End-to-end tests of the `aipan-lint` binary: argument parsing, output
//! formats, exit codes and `--fix --dry-run`, run against a scratch
//! two-crate workspace whose only finding is one machine-fixable `N1`
//! widening-cast warning.

use aipan_lint::allow::Allowlist;
use aipan_lint::{report, scan};
use std::path::PathBuf;
use std::process::{Command, Output};

/// Crate `a`: the one finding, `byte_count as u64` (a provable widening
/// with an exact std `From` impl, so `N1` warns and attaches a fix).
const CRATE_A: &str = "//! Scratch crate a.\n\
                       \n\
                       /// Widen a byte count.\n\
                       pub fn widen(byte_count: u32) -> u64 {\n\
                       \x20   let total_bytes = byte_count as u64;\n\
                       \x20   total_bytes\n\
                       }\n";

/// Crate `b`: references `widen`, so `P1` sees it used.
const CRATE_B: &str = "//! Scratch crate b.\n\
                       \n\
                       fn total(n: u32) -> u64 {\n\
                       \x20   aipan_a::widen(n)\n\
                       }\n";

const LINT_TOML: &str = "[layering]\na = []\nb = [\"a\"]\n";

/// A scratch workspace under the OS temp dir, deleted on drop.
struct ScratchWs {
    root: PathBuf,
}

impl ScratchWs {
    fn new(tag: &str) -> ScratchWs {
        let root =
            std::env::temp_dir().join(format!("aipan-lint-cli-{}-{tag}", std::process::id()));
        // A previous failed run may have left the directory behind.
        let _ = std::fs::remove_dir_all(&root);
        for (rel, text) in [
            ("Cargo.toml", "[workspace]\nmembers = [\"crates/*\"]\n"),
            ("lint.toml", LINT_TOML),
            ("crates/a/src/lib.rs", CRATE_A),
            ("crates/b/src/lib.rs", CRATE_B),
        ] {
            let path = root.join(rel);
            std::fs::create_dir_all(path.parent().expect("file has a parent")).expect("mkdir");
            std::fs::write(&path, text).expect("write scratch file");
        }
        ScratchWs { root }
    }

    /// Run the binary with `--root <scratch>` plus `args`.
    fn lint(&self, args: &[&str]) -> Output {
        Command::new(env!("CARGO_BIN_EXE_aipan-lint"))
            .arg("--root")
            .arg(&self.root)
            .args(args)
            .output()
            .expect("run aipan-lint")
    }

    fn crate_a(&self) -> String {
        std::fs::read_to_string(self.root.join("crates/a/src/lib.rs")).expect("read crate a")
    }
}

impl Drop for ScratchWs {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

fn stdout(out: &Output) -> String {
    String::from_utf8(out.stdout.clone()).expect("utf-8 stdout")
}

#[test]
fn json_stdout_is_the_library_report() {
    let ws = ScratchWs::new("json");
    let lint_report =
        scan::run(&ws.root, Allowlist::default()).expect("scan the scratch workspace");
    assert_eq!(lint_report.files_scanned, 2);
    let [finding] = lint_report.findings.as_slice() else {
        panic!("expected one finding: {:?}", lint_report.findings);
    };
    assert_eq!(
        (finding.rule, finding.severity),
        ("N1", aipan_lint::Severity::Warn)
    );
    assert!(finding.fix.is_some(), "{finding:?}");

    let out = ws.lint(&["--format", "json"]);
    assert_eq!(out.status.code(), Some(0));
    assert_eq!(stdout(&out), report::json(&lint_report) + "\n");
}

#[test]
fn warnings_fail_only_under_deny_warnings() {
    let ws = ScratchWs::new("exit");
    let lenient = ws.lint(&[]);
    assert_eq!(lenient.status.code(), Some(0), "{}", stdout(&lenient));
    assert!(
        stdout(&lenient).contains("warn N1:"),
        "{}",
        stdout(&lenient)
    );
    let strict = ws.lint(&["--deny-warnings"]);
    assert_eq!(strict.status.code(), Some(1), "{}", stdout(&strict));
    assert!(stdout(&strict).contains("FAIL"), "{}", stdout(&strict));
}

#[test]
fn fix_dry_run_prints_a_diff_and_writes_nothing() {
    let ws = ScratchWs::new("fix");
    let before = ws.crate_a();
    let dry = ws.lint(&["--fix", "--dry-run"]);
    assert_eq!(dry.status.code(), Some(1), "{}", stdout(&dry));
    let text = stdout(&dry);
    assert!(
        text.contains("--- a/crates/a/src/lib.rs\n+++ b/crates/a/src/lib.rs\n"),
        "{text}"
    );
    assert!(
        text.contains("-    let total_bytes = byte_count as u64;"),
        "{text}"
    );
    assert!(
        text.contains("+    let total_bytes = u64::from(byte_count);"),
        "{text}"
    );
    assert_eq!(ws.crate_a(), before, "--dry-run must not write");

    // Applying the fix leaves the tree clean under the strictest gate.
    let fixed = ws.lint(&["--fix"]);
    assert_eq!(fixed.status.code(), Some(0), "{}", stdout(&fixed));
    assert!(ws.crate_a().contains("u64::from(byte_count)"));
    assert_eq!(ws.lint(&["--deny-warnings"]).status.code(), Some(0));
}

#[test]
fn removed_spellings_are_usage_errors() {
    let ws = ScratchWs::new("removed");
    for args in [
        &["--incremental"][..],
        &["--hotpaths"],
        &["--contention"],
        &["--format", "sarif"],
        &["--json"],
    ] {
        let out = ws.lint(args);
        assert_eq!(out.status.code(), Some(2), "{args:?} must be rejected");
        assert!(out.stdout.is_empty(), "{args:?} printed a report");
    }
}
