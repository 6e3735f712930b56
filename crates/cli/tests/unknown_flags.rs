//! Unknown flags fail the invocation: a misspelled or removed option must
//! exit 2 with a message naming it, before any work runs, rather than be
//! silently ignored. So does an input the command would ignore. Flags may
//! come before or after the path.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

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

/// Run `stack <args> <extra>`.
fn stack(args: &[&Path], extra: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_stack"))
        .args(args)
        .args(extra)
        .output()
        .expect("run stack")
}

/// Run `stack <args>` and require exit 2, a stderr naming `named`, and no
/// analysis output.
fn assert_rejected(args: &[&Path], extra: &[&str], named: &str) {
    let output = stack(args, extra);
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

#[test]
fn flags_may_come_before_the_path() {
    let dir = fixture("flag-order");
    let unstable = dir.join("u.mc");
    std::fs::write(
        &unstable,
        "int f(int *p) { int x = *p; if (!p) return 0; return x; }\n",
    )
    .unwrap();
    let summary = dir.join("summary.txt");
    let summary = summary.to_str().unwrap();
    let check = Path::new("check");
    let scan = Path::new("scan");
    for (first, last) in [
        (
            stack(&[check], &["--json", unstable.to_str().unwrap()]),
            stack(&[check, &unstable], &["--json"]),
        ),
        (
            stack(
                &[scan],
                &["--jobs", "2", dir.to_str().unwrap(), "--out", summary],
            ),
            stack(&[scan, &dir], &["--jobs", "2", "--out", summary]),
        ),
    ] {
        assert_eq!(first.status.code(), last.status.code(), "{first:?}");
        assert_eq!(first.stdout, last.stdout, "{first:?}");
        assert!(
            String::from_utf8_lossy(&first.stdout).contains("u.mc"),
            "the flag-first form must analyze the file: {first:?}"
        );
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn every_subcommand_rejects_an_unknown_flag_before_any_work() {
    let dir = fixture("other-flags");
    let archive = dir.join("archive");
    assert_rejected(
        &[Path::new("gen-archive"), &archive],
        &["--seed", "5", "--edit-function", "2"],
        "--edit-function",
    );
    assert!(!archive.exists(), "no archive may be written");

    let store = dir.join("q.qs");
    let filled = stack(
        &[Path::new("scan"), &dir],
        &["--cache-file", store.to_str().unwrap(), "--quiet"],
    );
    assert!(filled.status.success(), "{filled:?}");
    assert_rejected(
        &[Path::new("store"), Path::new("fsck"), &store],
        &["--repiar"],
        "--repiar",
    );
    let merged = dir.join("m.qs");
    assert_rejected(
        &[
            Path::new("store"),
            Path::new("merge"),
            &merged,
            &store,
            &store,
        ],
        &["--compat", "2"],
        "--compat",
    );
    assert!(!merged.exists(), "no merged store may be written");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn a_stray_argument_to_a_command_without_inputs_is_rejected_before_any_work() {
    let (list, extra) = (Path::new("list"), ["extra-arg"]);
    assert_rejected(&[list], &extra, extra[0]);
    let stderr = String::from_utf8_lossy(&stack(&[list], &extra).stderr).into_owned();
    assert!(stderr.contains("usage: stack list"), "{stderr}");
}

#[test]
fn a_removed_subcommand_is_rejected_with_exit_2() {
    assert_rejected(&[Path::new("survey")], &[], "usage: stack <");
}
