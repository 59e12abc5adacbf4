//! Kill/resume and drain discipline for `fjs serve`, end to end against
//! the real binary: a daemon killed with `SIGKILL` mid-load and resumed
//! from its journal must reproduce the decision log of an uninterrupted
//! run byte for byte, and `SIGTERM` must drain gracefully (exit 0 with
//! every session's deltas flushed).

#![cfg(unix)]

use std::path::PathBuf;
use std::process::{Command, Output, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};

static SCRATCH: AtomicUsize = AtomicUsize::new(0);

/// A unique temp path per call so tests don't collide.
fn scratch(tag: &str) -> PathBuf {
    let n = SCRATCH.fetch_add(1, Ordering::Relaxed);
    let mut p = std::env::temp_dir();
    p.push(format!("fjs-serve-{tag}-{}-{n}", std::process::id()));
    p
}

fn bin() -> &'static str {
    env!("CARGO_BIN_EXE_fjs")
}

/// Emits the shared deterministic load script via `fjs loadgen --emit`.
fn emit_script(path: &PathBuf, jobs: u32) -> String {
    let out = Command::new(bin())
        .args([
            "loadgen",
            "--emit",
            path.to_str().expect("utf8 path"),
            "--sessions",
            "3",
            "--jobs",
            &jobs.to_string(),
            "--seed",
            "11",
            "--scheduler",
            "batch",
        ])
        .output()
        .expect("run fjs loadgen --emit");
    assert!(out.status.success(), "loadgen must succeed: {out:?}");
    std::fs::read_to_string(path).expect("read emitted script")
}

#[test]
fn loadgen_emit_is_deterministic_across_processes() {
    let a = scratch("emit-a");
    let b = scratch("emit-b");
    let sa = emit_script(&a, 50);
    let sb = emit_script(&b, 50);
    assert_eq!(sa, sb, "same seed must emit byte-identical scripts");
    assert!(sa.lines().any(|l| l.starts_with("open s0 batch")));
    let _ = std::fs::remove_file(&a);
    let _ = std::fs::remove_file(&b);
}

/// The tentpole acceptance test: SIGKILL mid-load, then `--resume`
/// replays the journal and re-reads the input tail, converging to the
/// byte-identical decision log of an uninterrupted run.
#[test]
fn sigkill_and_resume_reproduce_the_decision_log() {
    let script = scratch("kill-script");
    emit_script(&script, 200);

    // Reference: uninterrupted run.
    let ref_log = scratch("kill-ref-log");
    let ref_journal = scratch("kill-ref-journal");
    let reference = Command::new(bin())
        .args(["serve", "--input"])
        .arg(&script)
        .args(["--log"])
        .arg(&ref_log)
        .args(["--journal"])
        .arg(&ref_journal)
        .output()
        .expect("reference serve run");
    assert!(reference.status.success(), "{reference:?}");

    // Throttled run, killed hard mid-stream.
    let cut_log = scratch("kill-cut-log");
    let cut_journal = scratch("kill-cut-journal");
    let mut child = Command::new(bin())
        .args([
            "serve",
            "--throttle-ms",
            "5",
            "--checkpoint-every",
            "1",
            "--input",
        ])
        .arg(&script)
        .args(["--log"])
        .arg(&cut_log)
        .args(["--journal"])
        .arg(&cut_journal)
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn throttled serve");
    std::thread::sleep(std::time::Duration::from_millis(400));
    let _ = Command::new("kill")
        .args(["-KILL", &child.id().to_string()])
        .status();
    let status = child.wait().expect("wait for killed serve");
    assert!(!status.success(), "SIGKILL must not exit cleanly");

    // Resume from the journal over the same input.
    let resumed = Command::new(bin())
        .args(["serve", "--resume", "--input"])
        .arg(&script)
        .args(["--log"])
        .arg(&cut_log)
        .args(["--journal"])
        .arg(&cut_journal)
        .output()
        .expect("resumed serve run");
    assert!(resumed.status.success(), "{resumed:?}");

    assert_eq!(
        std::fs::read(&ref_log).expect("reference log"),
        std::fs::read(&cut_log).expect("resumed log"),
        "killed+resumed decision log must equal the uninterrupted one"
    );

    for p in [&script, &ref_log, &ref_journal, &cut_log, &cut_journal] {
        let _ = std::fs::remove_file(p);
    }
}

/// `SIGTERM` is a graceful drain: stop admitting, close every session,
/// flush all deltas, exit 0 — even while blocked waiting on stdin.
#[test]
fn sigterm_drains_gracefully_with_flushed_deltas() {
    use std::io::Write;

    let log = scratch("drain-log");
    let mut child = Command::new(bin())
        .args(["serve", "--log"])
        .arg(&log)
        .stdin(Stdio::piped())
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn stdin serve");
    {
        let stdin = child.stdin.as_mut().expect("child stdin");
        stdin
            .write_all(b"open a eager\njob a 0,5,1\njob a 1,9,2\n")
            .expect("feed requests");
        stdin.flush().expect("flush requests");
    }
    // Leave stdin open: only the signal can end this run.
    std::thread::sleep(std::time::Duration::from_millis(500));
    let _ = Command::new("kill")
        .args(["-TERM", &child.id().to_string()])
        .status();
    let out = child.wait_with_output().expect("wait for drained serve");
    assert!(
        out.status.success(),
        "SIGTERM must drain and exit 0, got {:?} (stderr: {})",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );

    let log_text = std::fs::read_to_string(&log).expect("drained log");
    assert!(
        log_text.lines().any(|l| l.starts_with("a start ")),
        "deltas must be flushed: {log_text:?}"
    );
    assert!(
        log_text.lines().any(|l| l.starts_with("a close span=")),
        "drain must close the session: {log_text:?}"
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("peak") && stderr.contains("resident records"),
        "drain must report the bounded-memory figures: {stderr}"
    );
    let _ = std::fs::remove_file(&log);
}

/// `serve --resume` against a missing journal is a usage error (exit 2),
/// mirroring the `soak --resume` contract.
#[test]
fn serve_resume_with_missing_journal_is_a_usage_error() {
    let journal = scratch("missing-journal");
    let out = Command::new(bin())
        .args(["serve", "--resume", "--journal"])
        .arg(&journal)
        .args(["--input", "/dev/null"])
        .output()
        .expect("run serve --resume");
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("nothing to resume"), "{stderr}");
}

/// Runs `fjs serve --input script --log log --journal journal` plus
/// `extra` arguments to completion.
fn serve_run(script: &PathBuf, log: &PathBuf, journal: &PathBuf, extra: &[&str]) -> Output {
    Command::new(bin())
        .arg("serve")
        .args(extra)
        .arg("--input")
        .arg(script)
        .arg("--log")
        .arg(log)
        .arg("--journal")
        .arg(journal)
        .output()
        .expect("run fjs serve")
}

/// A kill can leave a torn final record in the journal. `--resume` must cut
/// it off before appending: otherwise the next record is glued onto the
/// fragment and the following `--resume` refuses the journal as corrupt.
#[test]
fn resume_cuts_a_torn_tail_before_appending() {
    use std::io::Write;

    let script = scratch("torn-script");
    emit_script(&script, 200);
    let ref_log = scratch("torn-ref-log");
    let ref_journal = scratch("torn-ref-journal");
    let reference = serve_run(&script, &ref_log, &ref_journal, &[]);
    assert!(reference.status.success(), "{reference:?}");

    let cut_log = scratch("torn-cut-log");
    let cut_journal = scratch("torn-cut-journal");
    let mut child = Command::new(bin())
        .args(["serve", "--throttle-ms", "5", "--checkpoint-every", "1"])
        .arg("--input")
        .arg(&script)
        .arg("--log")
        .arg(&cut_log)
        .arg("--journal")
        .arg(&cut_journal)
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn throttled serve");
    std::thread::sleep(std::time::Duration::from_millis(400));
    let _ = Command::new("kill")
        .args(["-KILL", &child.id().to_string()])
        .status();
    assert!(!child.wait().expect("wait for killed serve").success());

    // The kill tore the final record mid-write.
    std::fs::OpenOptions::new()
        .append(true)
        .open(&cut_journal)
        .expect("open killed journal")
        .write_all(b"{\"v\":1,\"kind\":\"job\",\"session\":\"s")
        .expect("tear the tail");

    let resumed = serve_run(&script, &cut_log, &cut_journal, &["--resume"]);
    assert!(resumed.status.success(), "{resumed:?}");
    let ref_text = std::fs::read_to_string(&ref_journal).expect("reference journal");
    assert_eq!(
        std::fs::read_to_string(&cut_journal).expect("resumed journal"),
        ref_text,
        "the resumed journal must equal the uninterrupted one"
    );
    assert_eq!(
        std::fs::read(&cut_log).expect("resumed log"),
        std::fs::read(&ref_log).expect("reference log")
    );

    // The repaired journal resumes again.
    let again = serve_run(&script, &cut_log, &cut_journal, &["--resume"]);
    assert!(again.status.success(), "second resume: {again:?}");
    assert_eq!(
        std::fs::read_to_string(&cut_journal).expect("journal"),
        ref_text
    );

    for p in [&script, &ref_log, &ref_journal, &cut_log, &cut_journal] {
        let _ = std::fs::remove_file(p);
    }
}
