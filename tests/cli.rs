//! The `aipan` binary rejects bad arguments with the usage text and exit
//! code 2 before it builds a world, so a typo never runs the default
//! pipeline and never writes a dataset; and `aipan repro` prints the
//! paper's artifacts byte for byte as pinned.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// A scratch working directory under the OS temp dir, deleted on drop.
struct ScratchDir(PathBuf);

impl ScratchDir {
    fn new(tag: &str) -> ScratchDir {
        let dir = std::env::temp_dir().join(format!("aipan-cli-{}-{tag}", std::process::id()));
        // A previous failed run may have left the directory behind.
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create scratch dir");
        ScratchDir(dir)
    }

    fn files(&self) -> Vec<String> {
        std::fs::read_dir(&self.0)
            .expect("read scratch dir")
            .map(|e| {
                e.expect("dir entry")
                    .file_name()
                    .to_string_lossy()
                    .into_owned()
            })
            .collect()
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn aipan(dir: &Path, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_aipan"))
        .current_dir(dir)
        .args(args)
        .output()
        .expect("run aipan")
}

/// `args` exits 2 with the usage text, prints nothing to stdout and
/// writes no file, before any world is built.
fn assert_rejected(dir: &ScratchDir, args: &[&str]) {
    let out = aipan(&dir.0, args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(stderr.contains("usage: aipan"), "{args:?}: {stderr}");
    assert!(!stderr.contains("building world"), "{args:?}: {stderr}");
    assert!(out.stdout.is_empty(), "{args:?} printed output");
    assert_eq!(dir.files(), Vec::<String>::new(), "{args:?} wrote a file");
}

#[test]
fn bad_arguments_exit_2_before_building_a_world() {
    let dir = ScratchDir::new("bad");
    for args in [
        &["run", "--size", "10k"][..],
        &["run", "--seed", "seven"],
        &["run", "--size"],
        &["run", "--sizee", "5"],
        &["distill"],
        &[],
        // Below the smallest universe the generator builds.
        &["run", "--size", "5"],
        &["repro", "--size", "0", "funnel"],
        &["audit", "pg.com", "--size", "7"],
        // Options and positionals the subcommand does not read.
        &["run", "--size", "8", "--sector", "IT"],
        &["run", "--size", "8", "stray"],
        &["audit", "pg.com", "--out", "ds.json"],
        &["audit", "pg.com", "--resume", "j.jsonl"],
        &["audit", "pg.com", "bms.com"],
        &["audit"],
        &["analyze", "s.json", "--seed", "3"],
        &["analyze", "s.json", "--size", "9"],
        &["analyze"],
        // A bad sector is reported before the dataset is read.
        &["analyze", "missing.json", "--sector", "ZZ"],
        &["repro", "--out", "ds.json", "funnel"],
        &["repro", "--health-out", "h.json"],
        // Not commands: `repro` prints these tables and audits.
        &["tables"],
        &["validate"],
    ] {
        assert_rejected(&dir, args);
    }
}

/// `aipan repro` rejects an unknown experiment or option, and a
/// `--seed`/`--size` that is not a number, the same way.
#[test]
fn bad_arguments_exit_2_before_building_the_world() {
    let dir = ScratchDir::new("bad-repro");
    for args in [
        &["repro", "nosuch"][..],
        &["repro", "funnel", "tab9"],
        &["repro", "--size", "10k", "funnel"],
        &["repro", "--sizee", "5"],
    ] {
        assert_rejected(&dir, args);
    }
}

#[test]
fn valid_arguments_still_run() {
    let dir = ScratchDir::new("good");
    let out = aipan(
        &dir.0,
        &["run", "--seed", "3", "--size", "8", "--out", "ds.json"],
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{stderr}");
    assert!(
        stderr.contains("building world (seed 3, 8 constituents)"),
        "{stderr}"
    );
    assert_eq!(dir.files(), ["ds.json"]);
}

fn fnv1a(bytes: &[u8]) -> String {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{hash:016x}")
}

/// Pins every table, figure, audit and the §6 comparison that `repro all`
/// renders on a 200-company world. `determinism_golden.rs` only compares
/// two runs with each other; this digest is the stored value. A
/// deliberate change to any of these outputs re-pins it in the same change.
#[test]
fn repro_all_matches_the_pinned_digest() {
    let dir = ScratchDir::new("repro");
    let out = aipan(&dir.0, &["repro", "all", "--size", "200"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{stderr}");
    assert!(
        stderr.contains("building world (seed 42, 200 constituents)"),
        "{stderr}"
    );
    assert_eq!(
        (out.stdout.len(), fnv1a(&out.stdout)),
        (23_530, "31a288012d86a94e".to_string()),
        "`aipan repro all --size 200` output changed"
    );
}

/// Pins `aipan analyze` on a real dataset, with and without a sector
/// filter: the per-aspect counts, the meta-category tallies, Table 1/4 and
/// the §5 insights it prints for a 40-company run.
#[test]
fn analyze_matches_the_pinned_digest() {
    let dir = ScratchDir::new("analyze");
    let out = aipan(
        &dir.0,
        &["run", "--seed", "3", "--size", "40", "--out", "ds.json"],
    );
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    for (args, pinned) in [
        (&["analyze", "ds.json"][..], (7_387, "77753f8d74ee091b")),
        (
            &["analyze", "ds.json", "--sector", "IT"],
            (6_290, "24563e1187274971"),
        ),
    ] {
        let out = aipan(&dir.0, args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(0), "{args:?}: {stderr}");
        assert_eq!(
            (out.stdout.len(), fnv1a(&out.stdout)),
            (pinned.0, pinned.1.to_string()),
            "`aipan {}` output changed",
            args.join(" ")
        );
    }
}
