//! The benchmark as its command line runs it: environment overrides do
//! not reach the measured configuration, the fixed-work probe runs in
//! its child process, and the last line is the JSON result.

use std::process::Command;

#[test]
fn pins_the_default_config_and_ends_with_the_json_result() {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", "ingest", "--seed", "5", "--seconds", "1"])
        .args(["--trace", "0"])
        .env("TEMPORAL_THREADS", "4")
        .env("TEMPORAL_ZONEMAPS", "0")
        .env("TEMPORAL_INTERVAL_INDEX", "0")
        .env("TEMPORAL_TRACE", "1")
        .env("TEMPORAL_SYNC_MODE", "always")
        .env("TEMPORAL_WRITER_WAIT_MS", "1")
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("run the benchmark");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stdout}");
    assert!(
        stdout.contains(
            "config: threads=1 zonemaps=true interval_index=true trace=false slow_query_ms=0 \
             sync_mode=commit"
        ),
        "{stdout}"
    );
    let last = stdout.lines().last().unwrap_or_default();
    assert!(
        last.starts_with("{\"correct\": true, \"attempted\": "),
        "{last}"
    );
    assert!(last.contains("\"recovery_s\": {\"value\": "), "{last}");
}

#[test]
fn bad_arguments_exit_non_zero_without_a_result() {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", "nosuch", "--seed", "1"])
        .output()
        .expect("run the benchmark");
    assert!(!out.status.success());
    assert!(out.stdout.is_empty());
}
