//! Unknown flags fail the invocation: a misspelled or removed option must
//! exit 2 with a message naming it, before any analysis runs, rather than
//! be silently ignored. So does an input the command would ignore.

use std::path::{Path, PathBuf};
use std::process::Command;

/// The options `check` and `scan` once took and no longer do.
const REMOVED: [&[&str]; 5] = [
    &["--no-hbr"],
    &["--no-preprocess"],
    &["--instance-granularity", "function"],
    &["--threads", "2"],
    &["--no-incremental"],
];

/// A fresh directory holding one analyzable file, `a.mc`.
fn fixture(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("stack-cli-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join("a.mc"), "int f(int x) { return x; }\n").unwrap();
    dir
}

/// Run `stack <args>` and require exit 2, a stderr naming `named`, and no
/// analysis output.
fn assert_rejected(args: &[&Path], extra: &[&str], named: &str) {
    let output = Command::new(env!("CARGO_BIN_EXE_stack"))
        .args(args)
        .args(extra)
        .output()
        .expect("run stack");
    assert_eq!(output.status.code(), Some(2), "{extra:?}: {output:?}");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains(named), "{stderr}");
    assert!(output.stdout.is_empty(), "no analysis may run: {output:?}");
}

#[test]
fn scan_rejects_a_removed_flag_with_exit_2() {
    let dir = fixture("flags");
    for flag in REMOVED {
        assert_rejected(&[Path::new("scan"), &dir], flag, flag[0]);
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn check_rejects_a_removed_flag_with_exit_2() {
    let dir = fixture("check-flags");
    for flag in REMOVED {
        assert_rejected(&[Path::new("check"), &dir.join("a.mc")], flag, flag[0]);
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn an_input_the_command_would_ignore_is_rejected_with_exit_2() {
    let dir = fixture("inputs");
    std::fs::write(dir.join("b.mc"), "int g(int y) { return y; }\n").unwrap();
    let (a, b) = (dir.join("a.mc"), dir.join("b.mc"));
    let other = dir.join("other");
    std::fs::create_dir_all(&other).unwrap();
    let b_name = b.to_str().unwrap();
    let other_name = other.to_str().unwrap();
    let dir_name = dir.to_str().unwrap();
    // A second file for `check`, a second root for `scan`, a root beside
    // `--synth`, and `--seed` without `--synth`.
    assert_rejected(&[Path::new("check"), &a, &b], &[], b_name);
    assert_rejected(&[Path::new("scan"), &dir, &other], &[], other_name);
    assert_rejected(&[Path::new("scan"), &dir], &["--synth", "2"], dir_name);
    assert_rejected(&[Path::new("scan"), &dir], &["--seed", "5"], "--seed");
    std::fs::remove_dir_all(&dir).unwrap();
}
