//! The `aipan` binary rejects bad arguments with the usage text and exit
//! code 2 before it builds a world, so a typo never runs the default
//! pipeline and never writes a dataset.

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

#[test]
fn bad_arguments_exit_2_before_building_a_world() {
    let dir = ScratchDir::new("bad");
    for args in [
        &["run", "--size", "10k"][..],
        &["run", "--seed", "seven"],
        &["run", "--size"],
        &["run", "--sizee", "5"],
        &["distill"],
    ] {
        let out = aipan(&dir.0, args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains("usage: aipan"), "{args:?}: {stderr}");
        assert!(!stderr.contains("building world"), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} printed output");
        assert_eq!(dir.files(), Vec::<String>::new(), "{args:?} wrote a file");
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
