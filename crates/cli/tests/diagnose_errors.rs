//! `scanbist diagnose` reports an impossible plan as an error line and
//! exit code 1, not as a panic (exit 101).

use std::process::Command;

#[test]
fn more_groups_than_scan_cells_exits_one_with_a_message() {
    // s27 has a short scan chain; the default 8 groups do not fit it.
    let output = Command::new(env!("CARGO_BIN_EXE_scanbist"))
        .args(["diagnose", "s27"])
        .output()
        .expect("run scanbist");
    let stdout = String::from_utf8_lossy(&output.stdout);
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(
        output.status.code(),
        Some(1),
        "stdout: {stdout}\nstderr: {stderr}"
    );
    assert!(
        stdout.contains("error:") && stdout.contains("8 groups exceed"),
        "stdout: {stdout}"
    );
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
}
