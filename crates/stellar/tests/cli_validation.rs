//! `stellar-tune` argument validation: an empty or malformed grid — and
//! any malformed numeric or unknown flag — is a friendly usage error (exit code 2,
//! diagnostic on stderr), never a panic. `stellar-replay` rejects unknown
//! flags the same way. Each case exits during argument
//! validation, before any tuning work starts, so these stay cheap.

use std::process::Command;

fn run(args: &[&str]) -> (i32, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_stellar-tune"))
        .args(args)
        .output()
        .expect("stellar-tune spawns");
    let code = out.status.code().expect("exits, not killed by signal");
    (code, String::from_utf8_lossy(&out.stderr).into_owned())
}

#[test]
fn empty_campaign_grid_is_a_usage_error() {
    // Only separators: every segment is empty, so the grid has no cells.
    let (code, stderr) = run(&["campaign", ","]);
    assert_eq!(code, 2, "{stderr}");
    assert!(stderr.contains("empty workload list"), "{stderr}");
}

#[test]
fn missing_campaign_grid_is_a_usage_error() {
    let (code, stderr) = run(&["campaign"]);
    assert_eq!(code, 2, "{stderr}");
    assert!(stderr.contains("missing workload list"), "{stderr}");
}

#[test]
fn unknown_workload_is_a_usage_error() {
    let (code, stderr) = run(&["campaign", "NOPE_1M"]);
    assert_eq!(code, 2, "{stderr}");
    assert!(stderr.contains("unknown workload"), "{stderr}");
}

#[test]
fn empty_seed_list_is_a_usage_error() {
    let (code, stderr) = run(&["campaign", "IOR_16M", "--seeds", ","]);
    assert_eq!(code, 2, "{stderr}");
    assert!(stderr.contains("no valid seeds"), "{stderr}");
}

#[test]
fn malformed_seed_is_a_usage_error() {
    let (code, stderr) = run(&["campaign", "IOR_16M", "--seeds", "1,x"]);
    assert_eq!(code, 2, "{stderr}");
    assert!(stderr.contains("bad seed `x`"), "{stderr}");
}

#[test]
fn malformed_numeric_flags_are_usage_errors() {
    for args in [
        &["tune", "IOR_16M", "--scale", "tiny"][..],
        &["tune", "IOR_16M", "--seed", "forty-two"][..],
        &["tune", "IOR_16M", "--attempts", "many"][..],
        &["campaign", "IOR_16M", "--scale", "tiny"][..],
        &["campaign", "IOR_16M", "--threads", "all"][..],
        &["baseline", "IOR_16M", "--scale", "tiny"][..],
    ] {
        let (code, stderr) = run(args);
        assert_eq!(code, 2, "{args:?}: {stderr}");
        assert!(stderr.contains("bad "), "{args:?}: {stderr}");
    }
}

/// A flag the subcommand does not read is a usage error, not silently
/// ignored: a typo, `--schedule` (which no subcommand reads), and a
/// campaign-only switch given to `tune`.
#[test]
fn unknown_flags_are_usage_errors() {
    for (args, flag) in [
        (&["campaign", "IOR_16M", "--thread", "4"][..], "--thread"),
        (
            &["campaign", "IOR_16M", "--schedule", "lpt"][..],
            "--schedule",
        ),
        (&["tune", "IOR_16M", "--warm"][..], "--warm"),
    ] {
        let (code, stderr) = run(args);
        assert_eq!(code, 2, "{args:?}: {stderr}");
        assert!(
            stderr.contains(&format!("unknown flag `{flag}`")),
            "{args:?}: {stderr}"
        );
    }
}

/// `stellar-replay` rejects a flag it does not read before it loads the
/// record, so a typo for `--events` fails instead of printing the summary.
#[test]
fn unknown_replay_flag_is_a_usage_error() {
    let out = Command::new(env!("CARGO_BIN_EXE_stellar-replay"))
        .args(["rec.jsonl", "--event"])
        .output()
        .expect("stellar-replay spawns");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("unknown flag `--event`"), "{stderr}");
}

#[test]
fn malformed_failure_flags_are_usage_errors() {
    let (code, stderr) = run(&["tune", "IOR_16M", "--inject-failures", "x"]);
    assert_eq!(code, 2, "{stderr}");
    assert!(stderr.contains("bad --inject-failures"), "{stderr}");
    // A zero-attempt retry budget can never submit a call.
    let (code, stderr) = run(&["tune", "IOR_16M", "--retry", "0"]);
    assert_eq!(code, 2, "{stderr}");
    assert!(stderr.contains("bad --retry"), "{stderr}");
}

#[test]
fn unreadable_resume_record_is_a_usage_error() {
    let (code, stderr) = run(&[
        "campaign",
        "IOR_16M",
        "--scale",
        "0.05",
        "--resume",
        "/nonexistent/record.jsonl",
    ]);
    assert_eq!(code, 2, "{stderr}");
    assert!(stderr.contains("bad run record"), "{stderr}");
}
