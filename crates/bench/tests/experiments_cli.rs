//! The `experiments` command line is checked whole before any of it runs.

use std::process::Command;

#[test]
fn an_unknown_id_is_rejected_before_any_experiment_runs() {
    let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(["--scale", "tiny", "e1", "bogus"])
        .output()
        .expect("run experiments");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown experiment 'bogus'"));
    assert!(out.stdout.is_empty(), "e1 ran before `bogus` was rejected");
}
