//! `--watchdog-events` is parsed by one helper for every command that takes
//! it: `chaos`, `conform`, `soak` and `serve`. A budget of 0 would cut every
//! run off at its first event, so it is a usage error (exit 2) that names
//! the flag, as is a value that is not a number. The same holds for a
//! stray token after a command's target, and for a `--breaker-threshold`
//! that does not fit the breaker's 32-bit failure count.

use std::process::{Command, Stdio};

#[test]
fn zero_or_non_numeric_watchdog_budget_is_a_usage_error() {
    let dir = std::env::temp_dir().join(format!("fjs-watchdog-flag-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let corpus = dir.join("corpus");
    let journal = dir.join("soak.jsonl");
    let corpus = corpus.to_str().unwrap();
    let journal = journal.to_str().unwrap();
    let commands: [&[&str]; 4] = [
        &["chaos", "eager"],
        &[
            "conform", "batch", "--quick", "--cases", "1", "--corpus", corpus,
        ],
        &["soak", "batch", "--cells", "1", "--journal", journal],
        &["serve"],
    ];
    for value in ["0", "many"] {
        for args in commands {
            let out = Command::new(env!("CARGO_BIN_EXE_fjs"))
                .args(args)
                .args(["--watchdog-events", value])
                .stdin(Stdio::null())
                .output()
                .unwrap();
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(2), "{args:?} {value}: {stderr}");
            let want = format!("--watchdog-events: '{value}' is not a positive event count");
            assert!(stderr.contains(&want), "{args:?} {value}: {stderr}");
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn stray_arguments_and_a_wrapping_breaker_threshold_are_usage_errors() {
    let dir = std::env::temp_dir().join(format!("fjs-stray-args-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let corpus = dir.join("corpus");
    let journal = dir.join("soak.jsonl");
    let corpus = corpus.to_str().unwrap();
    let journal = journal.to_str().unwrap();
    let cases: [(&[&str], &str); 5] = [
        (
            &["chaos", "eager", "--quck"],
            "chaos: unexpected argument '--quck'",
        ),
        (
            &[
                "conform", "eager", "--quck", "--cases", "5", "--corpus", corpus,
            ],
            "conform: unexpected argument '--quck'",
        ),
        (
            &[
                "soak",
                "batch",
                "--cells",
                "1",
                "--journal",
                journal,
                "--quck",
            ],
            "soak: unexpected argument '--quck'",
        ),
        (
            &["stats", "eager", "--quck"],
            "stats: unexpected argument '--quck'",
        ),
        // 2^32 + 1 would wrap to a threshold of 1.
        (
            &["serve", "--breaker-threshold", "4294967297"],
            "--breaker-threshold: '4294967297' is not a failure count (0 to 4294967295)",
        ),
    ];
    for (args, want) in cases {
        let out = Command::new(env!("CARGO_BIN_EXE_fjs"))
            .args(args)
            .stdin(Stdio::null())
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains(want), "{args:?}: {stderr}");
    }
    std::fs::remove_dir_all(&dir).ok();
}
