//! Drives the `report_diff` binary on hostile input: a parse failure must
//! exit 2 with a message, never abort the process.

use std::process::Command;

#[test]
fn deeply_nested_input_is_a_parse_error_not_a_stack_overflow() {
    let path = std::env::temp_dir().join(format!("report_diff_deep_{}.json", std::process::id()));
    let depth = 200_000;
    std::fs::write(&path, "[".repeat(depth) + &"]".repeat(depth)).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_report_diff"))
        .arg(&path)
        .arg(&path)
        .output()
        .expect("failed to spawn the report_diff binary");
    std::fs::remove_file(&path).unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(stderr.contains("nesting deeper than"), "{stderr}");
}
