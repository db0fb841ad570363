//! The `repro` binary rejects an unknown experiment or option, and a
//! `--seed`/`--size` that is not a number, with exit code 2 before it
//! builds the world.

use std::process::Command;

#[test]
fn bad_arguments_exit_2_before_building_the_world() {
    for args in [
        &["nosuch"][..],
        &["funnel", "tab9"],
        &["--size", "10k", "funnel"],
        &["--sizee", "5"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_repro"))
            .args(args)
            .output()
            .expect("run repro");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains("usage: repro"), "{args:?}: {stderr}");
        assert!(!stderr.contains("building world"), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} printed output");
    }
}
