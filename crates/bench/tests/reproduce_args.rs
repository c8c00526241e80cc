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

#[test]
fn quick_with_resume_exits_2_and_writes_no_checkpoint() {
    // A quick run's stage checkpoints would be restored by a later full
    // `--resume` run, which then continues from the quick run's epochs.
    let dir = std::env::temp_dir().join(format!("tsdx-reproduce-args-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_reproduce"))
        .args(["--quick", "--resume", "fig6"])
        .current_dir(&dir)
        .output()
        .unwrap();
    let stderr = String::from_utf8(out.stderr).unwrap();
    let wrote_results = dir.join("results").exists();
    std::fs::remove_dir_all(&dir).unwrap();
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(stderr.contains("usage: reproduce"), "{stderr}");
    assert!(!stderr.contains("generating") && !stderr.contains("panicked"), "{stderr}");
    assert!(out.stdout.is_empty());
    assert!(!wrote_results, "a refused run wrote under results/");
}
