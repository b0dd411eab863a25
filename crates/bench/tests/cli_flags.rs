//! `perfsuite` argument validation: a flag it does not read is a usage
//! error (exit code 2, diagnostic on stderr) raised before any
//! measurement starts, so this stays cheap.

use std::process::Command;

#[test]
fn mistyped_perfsuite_flag_is_a_usage_error() {
    let out = Command::new(env!("CARGO_BIN_EXE_perfsuite"))
        .args(["--quik", "--seeds", "1", "--out", "never-written.json"])
        .output()
        .expect("perfsuite spawns");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("unknown flag `--quik`"), "{stderr}");
}
