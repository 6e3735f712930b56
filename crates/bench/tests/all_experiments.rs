//! `all_experiments` prints one experiment when given its id and rejects
//! any other argument with exit 2 before an experiment runs.

use std::process::{Command, Output};

fn all_experiments(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_all_experiments"))
        .args(args)
        .output()
        .expect("run all_experiments")
}

#[test]
fn an_unknown_id_a_stray_argument_or_a_flag_exits_2_before_any_work() {
    for args in [
        &["fig99"][..],
        &["fig4", "extra"],
        &["--bogus"],
        &["fig16", "2"],
    ] {
        let output = all_experiments(args);
        assert_eq!(output.status.code(), Some(2), "{args:?}: {output:?}");
        assert!(output.stdout.is_empty(), "{args:?}: {output:?}");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(stderr.contains("usage: all_experiments ["), "{stderr}");
    }
}

#[test]
fn an_id_prints_that_experiment_alone() {
    let output = all_experiments(&["fig4"]);
    assert!(output.status.success(), "{output:?}");
    let expected = format!("{}\n", stack_bench::figure4().render());
    assert_eq!(String::from_utf8_lossy(&output.stdout), expected);
}
