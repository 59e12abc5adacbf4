//! Every `fjs` command line is checked against one argument table before
//! any work starts. `--watchdog-events` (`chaos`, `conform`, `soak`,
//! `serve`) is one entry of it: a budget of 0 would cut every run off at
//! its first event, so it is a usage error (exit 2) that names the flag, as
//! is a value that is not a number. The same holds for a stray token or an
//! unknown flag on any command, for any numeric flag given a non-number,
//! and for a `--breaker-threshold` that does not fit the breaker's 32-bit
//! failure count.

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

/// Runs `fjs` with `args` and stdin closed; returns its exit code and
/// stderr.
fn fjs(args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_fjs"))
        .args(args)
        .stdin(Stdio::null())
        .output()
        .unwrap();
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into(),
    )
}

/// Each command of `fjs`'s own usage text (no arguments, exit 2): its
/// name and the words of its entry after the name.
fn usage_entries() -> Vec<(String, Vec<String>)> {
    let (code, usage) = fjs(&[]);
    assert_eq!(code, Some(2), "{usage}");
    let mut entries: Vec<(String, Vec<String>)> = Vec::new();
    for line in usage.lines().map(|l| l.trim_start_matches("usage:").trim()) {
        let mut words = line.split_whitespace().map(String::from);
        if line.starts_with("fjs ") {
            words.next();
            entries.push((words.next().unwrap(), words.collect()));
        } else if line.starts_with('[') {
            entries.last_mut().unwrap().1.extend(words);
        }
    }
    entries
}

#[test]
fn every_command_rejects_an_unknown_flag_and_a_non_numeric_value() {
    let entries = usage_entries();
    assert!(entries.len() >= 15, "{entries:?}");
    for (name, words) in &entries {
        // `e1..e15` stands for every experiment id.
        let cmd = name.split("..").next().unwrap();
        let (code, stderr) = fjs(&[cmd, "--bogus"]);
        assert_eq!(code, Some(2), "{cmd} --bogus: {stderr}");
        assert!(stderr.contains("'--bogus'"), "{cmd} --bogus: {stderr}");
        // A numeric flag shows as `[--flag <n>]` or `[--flag <x>]`.
        for pair in words.windows(2) {
            let (Some(flag), "<n>]" | "<x>]") = (pair[0].strip_prefix('['), pair[1].as_str())
            else {
                continue;
            };
            let (code, stderr) = fjs(&[cmd, flag, "x"]);
            assert_eq!(code, Some(2), "{cmd} {flag} x: {stderr}");
            assert!(
                stderr.contains(&format!("{flag}: 'x'")),
                "{cmd} {flag} x: {stderr}"
            );
        }
    }
}

#[test]
fn typos_and_out_of_range_values_are_named_usage_errors() {
    let cases: [(&[&str], &str); 14] = [
        (&["gantt", "batch+", "nope"], "gantt: 'nope' is not a seed"),
        (
            &["audit", "batch+", "7", "--bogus"],
            "audit: unexpected argument '--bogus'",
        ),
        (&["e3", "--bogus"], "e3: unexpected argument '--bogus'"),
        (&["list", "--bogus"], "list: unexpected argument '--bogus'"),
        (
            &["trace", "a.csv", "extra"],
            "trace: unexpected argument 'extra'",
        ),
        (&["serve", "--csv"], "serve: unexpected argument '--csv'"),
        (
            &["soak", "--journal", "s.jsonl", "--stop-after", "3"],
            "soak: unexpected argument '--stop-after'",
        ),
        (
            &["serve", "--workers", "1", "--workers", "2"],
            "serve: --workers given twice",
        ),
        (&["bench", "--json"], "--json needs a value"),
        (&["trace"], "trace: missing <file.csv>"),
        (
            &["loadgen", "--emit", "-", "--rate", "nan"],
            "--rate: 'nan'",
        ),
        (&["loadgen", "--emit", "-", "--rate", "-1"], "--rate: '-1'"),
        (
            &["loadgen", "--emit", "-", "--laxity", "inf"],
            "--laxity: 'inf'",
        ),
        (
            &["loadgen", "--emit", "-", "--mean-length", "-2"],
            "--mean-length: '-2'",
        ),
    ];
    for (args, want) in cases {
        let (code, stderr) = fjs(args);
        assert_eq!(code, Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains(want), "{args:?}: {stderr}");
    }
}
