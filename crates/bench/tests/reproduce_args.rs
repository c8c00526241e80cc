//! `reproduce` refuses what it cannot run before it generates anything.

use std::process::Command;

#[test]
fn an_unknown_experiment_exits_2_naming_the_valid_ones() {
    let out = Command::new(env!("CARGO_BIN_EXE_reproduce")).arg("fig7").output().unwrap();
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(stderr.contains("`fig7`"), "{stderr}");
    let names = "table1 table2 table3 fig2 fig3 fig4 fig5 fig6";
    assert!(stderr.contains(names), "{stderr}");
    assert!(!stderr.contains("generating") && !stderr.contains("panicked"), "{stderr}");
    assert!(out.stdout.is_empty());
}
