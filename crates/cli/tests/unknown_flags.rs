//! Unknown flags fail the invocation: a misspelled or removed option must
//! exit 2 with a message naming it, before any analysis runs, rather than
//! be silently ignored.

use std::process::Command;

#[test]
fn scan_rejects_a_removed_flag_with_exit_2() {
    let dir = std::env::temp_dir().join(format!("stack-cli-flags-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join("a.mc"), "int f(int x) { return x; }\n").unwrap();
    let removed: [&[&str]; 3] = [
        &["--no-hbr"],
        &["--no-preprocess"],
        &["--instance-granularity", "function"],
    ];
    for flag in removed {
        let output = Command::new(env!("CARGO_BIN_EXE_stack"))
            .arg("scan")
            .arg(&dir)
            .args(flag)
            .output()
            .expect("run stack");
        assert_eq!(output.status.code(), Some(2), "{flag:?}: {output:?}");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(stderr.contains(flag[0]), "{stderr}");
        assert!(output.stdout.is_empty(), "no analysis may run: {output:?}");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
