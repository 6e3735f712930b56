//! `stack gen-archive` says how many functions it edited, which is at most
//! the number the archive has, and rejects an archive of no packages as a
//! usage error before it writes anything.

use std::process::Command;

#[test]
fn gen_archive_reports_the_edits_it_made_and_rejects_zero_packages() {
    let dir = std::env::temp_dir().join(format!("stack-cli-gen-archive-{}", std::process::id()));
    let archive = dir.join("archive");
    let gen_archive = |extra: &[&str]| {
        Command::new(env!("CARGO_BIN_EXE_stack"))
            .arg("gen-archive")
            .arg(&archive)
            .args(extra)
            .output()
            .expect("run stack")
    };

    // Two packages hold 4 files of 5 functions: 999 edits edit all 20.
    let output = gen_archive(&["--packages", "2", "--edit-functions", "999"]);
    assert!(output.status.success(), "{output:?}");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(stdout.contains(", 20 functions edited)"), "{stdout}");
    std::fs::remove_dir_all(&dir).unwrap();

    let output = gen_archive(&["--packages", "0"]);
    assert_eq!(output.status.code(), Some(2), "{output:?}");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("--packages"), "{stderr}");
    assert!(output.stdout.is_empty(), "{output:?}");
    assert!(!archive.exists(), "no archive may be written");
}
