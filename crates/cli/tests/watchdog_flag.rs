//! `--watchdog-events` is parsed by one helper for every command that takes
//! it: `chaos`, `conform`, `soak` and `serve`. A budget of 0 would cut every
//! run off at its first event, so it is a usage error (exit 2) that names
//! the flag, as is a value that is not a number.

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
