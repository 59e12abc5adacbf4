//! `fjs` writing into a pipe whose reader has already gone away: the
//! command drops its stdout quietly, still writes its files, and exits with
//! its own status. The stats run also checks every `--log-jsonl` record.

use fjs_core::json::Json;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command, Output, Stdio};

/// `fjs stats --log-jsonl`'s keys, in record order.
const STATS_KEYS: [&str; 25] = [
    "scheduler",
    "scenario",
    "n",
    "seed",
    "span",
    "release_events",
    "jobs_released",
    "completions",
    "ordered_starts",
    "length_probes",
    "deadline_alarms",
    "wakeups",
    "events_total",
    "peak_queue",
    "actions_applied",
    "actions_rejected",
    "force_starts",
    "jobs_completed",
    "peak_retained",
    "arena_slots",
    "opt_cache_hits",
    "opt_cache_misses",
    "wall_total_s",
    "wall_scheduler_s",
    "wall_environment_s",
];

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("fjs-closed-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Runs `fjs args` in `dir` with its stdout a pipe whose read end is closed
/// before `fjs` starts: a shell waits on stdin, and is told to exec `fjs`
/// only once the read end is gone.
fn run_with_stdout_closed(dir: &Path, args: &[&str]) -> Output {
    let mut child = Command::new("sh")
        .args(["-c", "read go && exec \"$0\" \"$@\""])
        .arg(env!("CARGO_BIN_EXE_fjs"))
        .args(args)
        .current_dir(dir)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    drop(child.stdout.take());
    child.stdin.take().unwrap().write_all(b"go\n").unwrap();
    child.wait_with_output().unwrap()
}

fn assert_quiet_success(out: &Output) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "stderr: {stderr}");
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
    assert!(!stderr.contains("Broken pipe"), "stderr: {stderr}");
}

#[test]
fn stats_writes_its_jsonl_with_stdout_closed() {
    let dir = scratch_dir("stats");
    let out = run_with_stdout_closed(
        &dir,
        &["stats", "all", "--n", "50", "--log-jsonl", "f.jsonl"],
    );
    assert_quiet_success(&out);
    let text = std::fs::read_to_string(dir.join("f.jsonl")).unwrap();
    assert_eq!(text.lines().count(), 42);
    for line in text.lines() {
        let Json::Obj(fields) = Json::parse(line).unwrap() else {
            panic!("not an object: {line}");
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, STATS_KEYS, "{line}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn bench_diff_exits_zero_with_stdout_closed() {
    let dir = scratch_dir("diff");
    let baseline = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_baseline.json");
    let out = run_with_stdout_closed(&dir, &["bench-diff", baseline, baseline]);
    assert_quiet_success(&out);
    std::fs::remove_dir_all(&dir).ok();
}
