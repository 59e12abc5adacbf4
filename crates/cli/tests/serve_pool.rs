//! Multi-core `fjs serve` end to end against the real binary: worker
//! count must never change observable bytes (decision log, journal,
//! replies), SIGKILL+`--resume` must hold at 8 workers, and the
//! connection layer must survive the failure modes that used to kill
//! the daemon — mid-line client disconnects, transient accept errors,
//! and a live socket path that a second daemon must refuse to clobber.

#![cfg(unix)]

use std::io::{BufRead, BufReader, Read, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

static SCRATCH: AtomicUsize = AtomicUsize::new(0);

/// A unique temp path per call so tests don't collide.
fn scratch(tag: &str) -> PathBuf {
    let n = SCRATCH.fetch_add(1, Ordering::Relaxed);
    let mut p = std::env::temp_dir();
    p.push(format!("fjs-pool-{tag}-{}-{n}", std::process::id()));
    p
}

fn bin() -> &'static str {
    env!("CARGO_BIN_EXE_fjs")
}

/// Emits the shared deterministic load script via `fjs loadgen --emit`.
fn emit_script(path: &Path, sessions: u32, jobs: u32) {
    let out = Command::new(bin())
        .args(["loadgen", "--emit"])
        .arg(path)
        .args(["--sessions", &sessions.to_string()])
        .args(["--jobs", &jobs.to_string()])
        .args(["--seed", "23", "--scheduler", "batch"])
        .output()
        .expect("run fjs loadgen --emit");
    assert!(out.status.success(), "loadgen must succeed: {out:?}");
}

/// Runs `serve --input` at a given worker count, returning (replies,
/// status) with the log/journal left at the given paths.
fn serve_input(script: &Path, workers: u32, log: &Path, journal: &Path) -> (Vec<u8>, bool) {
    let out = Command::new(bin())
        .args(["serve", "--input"])
        .arg(script)
        .args(["--workers", &workers.to_string()])
        .args(["--log"])
        .arg(log)
        .args(["--journal"])
        .arg(journal)
        .output()
        .expect("serve --input run");
    (out.stdout, out.status.success())
}

/// Polls until the daemon's unix socket accepts a connection.
fn await_socket(path: &Path) -> UnixStream {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        match UnixStream::connect(path) {
            Ok(s) => return s,
            Err(_) if Instant::now() < deadline => std::thread::sleep(Duration::from_millis(20)),
            Err(e) => panic!("daemon socket {} never came up: {e}", path.display()),
        }
    }
}

fn terminate(child: &mut Child) -> std::process::Output {
    let _ = Command::new("kill")
        .args(["-TERM", &child.id().to_string()])
        .status();
    let deadline = Instant::now() + Duration::from_secs(10);
    while Instant::now() < deadline {
        match child.try_wait().expect("try_wait") {
            Some(_) => break,
            None => std::thread::sleep(Duration::from_millis(20)),
        }
    }
    let mut stderr = Vec::new();
    if let Some(mut pipe) = child.stderr.take() {
        let _ = pipe.read_to_end(&mut stderr);
    }
    let status = child.wait().expect("wait for daemon");
    std::process::Output {
        status,
        stdout: Vec::new(),
        stderr,
    }
}

/// The tentpole determinism contract at the binary level: decision log,
/// journal and replies are byte-identical at 1, 2 and 8 workers.
#[test]
fn worker_count_never_changes_observable_bytes() {
    let script = scratch("det-script");
    emit_script(&script, 8, 240);

    let mut outputs = Vec::new();
    for workers in [1u32, 2, 8] {
        let log = scratch(&format!("det-log-w{workers}"));
        let journal = scratch(&format!("det-journal-w{workers}"));
        let (replies, ok) = serve_input(&script, workers, &log, &journal);
        assert!(ok, "workers={workers} run must succeed");
        outputs.push((
            workers,
            std::fs::read(&log).expect("log"),
            std::fs::read(&journal).expect("journal"),
            replies,
            log,
            journal,
        ));
    }

    let (_, ref_log, ref_journal, ref_replies, ..) = &outputs[0];
    for (workers, log, journal, replies, ..) in &outputs[1..] {
        assert_eq!(log, ref_log, "workers={workers}: decision log diverged");
        assert_eq!(journal, ref_journal, "workers={workers}: journal diverged");
        assert_eq!(replies, ref_replies, "workers={workers}: replies diverged");
    }

    let _ = std::fs::remove_file(&script);
    for (.., log, journal) in &outputs {
        let _ = std::fs::remove_file(log);
        let _ = std::fs::remove_file(journal);
    }
}

/// The exit summary says where pool requests were applied, but only at
/// more than one worker. `--input` reads many lines per wakeup, and all
/// but the last of each read are backlog, so the worker thread applies
/// some of them.
#[test]
fn exit_summary_reports_the_apply_split_only_when_pooled() {
    let script = scratch("split-script");
    emit_script(&script, 8, 240);
    let mut lines = Vec::new();
    for workers in [1u32, 2] {
        let out = Command::new(bin())
            .args(["serve", "--input"])
            .arg(&script)
            .args(["--workers", &workers.to_string()])
            .stdout(Stdio::null())
            .output()
            .expect("serve --input run");
        assert!(out.status.success(), "workers={workers}: {out:?}");
        let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
        lines.push(
            stderr
                .lines()
                .find(|l| l.starts_with("serve: pool:"))
                .map(str::to_string),
        );
    }
    let _ = std::fs::remove_file(&script);
    assert_eq!(lines[0], None, "--workers 1 prints no pool line");
    let line = lines[1]
        .as_deref()
        .expect("--workers 2 prints the pool line");
    let counts: Vec<u64> = line
        .split_whitespace()
        .filter_map(|w| w.parse().ok())
        .collect();
    let [_, threaded] = counts[..] else {
        panic!("two counts expected: {line}");
    };
    assert!(threaded > 0, "the worker thread applied nothing: {line}");
}

/// SIGKILL mid-load at 8 workers, then `--resume` at 8 workers, must
/// converge to the uninterrupted single-worker decision log.
#[test]
fn sigkill_and_resume_at_8_workers_matches_serial_log() {
    let script = scratch("kill8-script");
    emit_script(&script, 8, 200);

    let ref_log = scratch("kill8-ref-log");
    let ref_journal = scratch("kill8-ref-journal");
    let (_, ok) = serve_input(&script, 1, &ref_log, &ref_journal);
    assert!(ok, "reference run must succeed");

    let cut_log = scratch("kill8-cut-log");
    let cut_journal = scratch("kill8-cut-journal");
    let mut child = Command::new(bin())
        .args(["serve", "--workers", "8", "--throttle-ms", "5"])
        .args(["--checkpoint-every", "1", "--input"])
        .arg(&script)
        .args(["--log"])
        .arg(&cut_log)
        .args(["--journal"])
        .arg(&cut_journal)
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn throttled 8-worker serve");
    std::thread::sleep(Duration::from_millis(400));
    let _ = Command::new("kill")
        .args(["-KILL", &child.id().to_string()])
        .status();
    let status = child.wait().expect("wait for killed serve");
    assert!(!status.success(), "SIGKILL must not exit cleanly");

    let resumed = Command::new(bin())
        .args(["serve", "--workers", "8", "--resume", "--input"])
        .arg(&script)
        .args(["--log"])
        .arg(&cut_log)
        .args(["--journal"])
        .arg(&cut_journal)
        .output()
        .expect("resumed 8-worker serve");
    assert!(resumed.status.success(), "{resumed:?}");

    assert_eq!(
        std::fs::read(&ref_log).expect("reference log"),
        std::fs::read(&cut_log).expect("resumed log"),
        "killed+resumed 8-worker log must equal the uninterrupted serial one"
    );

    for p in [&script, &ref_log, &ref_journal, &cut_log, &cut_journal] {
        let _ = std::fs::remove_file(p);
    }
}

/// The daemon-killing bug, pinned: a client dropping its connection
/// mid-line must cost exactly that connection. A second client keeps
/// scheduling and closing sessions, and the drain still exits 0 with
/// the disconnect counted.
#[test]
fn midline_disconnect_keeps_daemon_serving() {
    let sock = scratch("dc-sock");
    let mut child = Command::new(bin())
        .args(["serve", "--workers", "2", "--socket"])
        .arg(&sock)
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn socket daemon");

    // Client A: half a request line, then a hard drop.
    let mut a = await_socket(&sock);
    a.write_all(b"open a eager\n").expect("client A open");
    let mut a_reader = BufReader::new(a.try_clone().expect("clone A"));
    let mut reply = String::new();
    a_reader.read_line(&mut reply).expect("client A reply");
    assert!(reply.starts_with("ok open a "), "{reply}");
    a.write_all(b"job a 0,5,").expect("client A partial line");
    a.flush().expect("flush A");
    let _ = a.shutdown(std::net::Shutdown::Both);
    drop(a);

    // Client B: a full session lifecycle, after A is gone.
    let b = await_socket(&sock);
    let mut b_reader = BufReader::new(b.try_clone().expect("clone B"));
    let mut b = b;
    let ask = |req: &str, reader: &mut BufReader<UnixStream>, w: &mut UnixStream| {
        writeln!(w, "{req}").expect("client B write");
        w.flush().expect("client B flush");
        let mut line = String::new();
        reader.read_line(&mut line).expect("client B read");
        line.trim_end().to_string()
    };
    for (req, want) in [
        ("open b eager", "ok open b "),
        ("job b 0,5,1", "ok job b id=J0"),
        ("job b 1,9,2", "ok job b id=J1"),
        ("close b", "ok close b"),
    ] {
        let reply = ask(req, &mut b_reader, &mut b);
        assert!(reply.starts_with(want), "'{req}' got '{reply}'");
    }
    drop(b_reader);
    drop(b);

    let out = terminate(&mut child);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        out.status.success(),
        "daemon must drain cleanly after a mid-line disconnect: {:?} (stderr: {stderr})",
        out.status
    );
    assert!(
        stderr.contains("1 dropped by I/O errors"),
        "summary must count the mid-line disconnect: {stderr}"
    );
    let _ = std::fs::remove_file(&sock);
}

/// Socket-path claiming: a second daemon must refuse a live socket with
/// exit 2, and a stale path (previous daemon SIGKILLed) must be swept
/// and rebound.
#[test]
fn live_socket_refused_stale_socket_reclaimed() {
    let sock = scratch("claim-sock");
    let mut first = Command::new(bin())
        .args(["serve", "--socket"])
        .arg(&sock)
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn first daemon");
    drop(await_socket(&sock));

    let second = Command::new(bin())
        .args(["serve", "--socket"])
        .arg(&sock)
        .output()
        .expect("second daemon");
    assert_eq!(
        second.status.code(),
        Some(2),
        "live socket must be refused as a usage error: {second:?}"
    );
    assert!(
        String::from_utf8_lossy(&second.stderr).contains("live daemon"),
        "{second:?}"
    );

    // SIGKILL the first daemon so the path goes stale…
    let _ = Command::new("kill")
        .args(["-KILL", &first.id().to_string()])
        .status();
    let _ = first.wait();
    assert!(sock.exists(), "SIGKILL must leave the socket path behind");

    // …and a fresh daemon must sweep it and serve.
    let mut third = Command::new(bin())
        .args(["serve", "--socket"])
        .arg(&sock)
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn third daemon");
    let mut c = await_socket(&sock);
    let mut reader = BufReader::new(c.try_clone().expect("clone"));
    writeln!(c, "open x eager").expect("write");
    let mut line = String::new();
    reader.read_line(&mut line).expect("read");
    assert!(line.trim_end().starts_with("ok open x "), "{line}");
    drop(reader);
    drop(c);
    let out = terminate(&mut third);
    assert!(out.status.success(), "{out:?}");
    let _ = std::fs::remove_file(&sock);
}

/// Picks a free TCP port by binding to :0 and releasing it.
fn free_port() -> u16 {
    std::net::TcpListener::bind("127.0.0.1:0")
        .expect("bind :0")
        .local_addr()
        .expect("local addr")
        .port()
}

/// TCP frontend end to end: closed-loop loadgen over TCP against a
/// 4-worker daemon, every request answered, none errored.
#[test]
fn tcp_frontend_serves_closed_loop_loadgen() {
    let addr = format!("127.0.0.1:{}", free_port());
    let mut child = Command::new(bin())
        .args(["serve", "--workers", "4", "--tcp", &addr])
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn tcp daemon");

    // Wait for the listener, then drive it closed-loop with 4 clients.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        match std::net::TcpStream::connect(&addr) {
            Ok(_) => break,
            Err(_) if Instant::now() < deadline => std::thread::sleep(Duration::from_millis(20)),
            Err(e) => panic!("tcp daemon never came up: {e}"),
        }
    }
    let drive = Command::new(bin())
        .args(["loadgen", "--tcp", &addr])
        .args(["--sessions", "8", "--jobs", "160", "--concurrency", "4"])
        .output()
        .expect("closed-loop loadgen over tcp");
    assert!(drive.status.success(), "{drive:?}");
    let report = String::from_utf8_lossy(&drive.stdout);
    // 160 jobs + 8 opens + 8 closes, all answered, none err.
    assert!(report.contains("sent 176 requests"), "{report}");
    assert!(report.contains("176 replies"), "{report}");
    assert!(report.contains("0 err"), "{report}");
    assert!(report.contains("latency histogram le"), "{report}");

    let out = terminate(&mut child);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{:?} (stderr: {stderr})", out.status);
    // 4 loadgen clients + this test's readiness probe.
    assert!(stderr.contains("5 connections"), "{stderr}");
}

/// Concurrent unix-socket clients: two interleaved sessions on separate
/// connections both complete with correct, in-order replies.
#[test]
fn concurrent_socket_clients_interleave() {
    let sock = scratch("conc-sock");
    let mut child = Command::new(bin())
        .args(["serve", "--workers", "2", "--socket"])
        .arg(&sock)
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn socket daemon");

    let sock_a = sock.clone();
    let sock_b = sock.clone();
    let run_client = move |path: PathBuf, sid: &'static str| -> Vec<String> {
        let mut s = await_socket(&path);
        let mut reader = BufReader::new(s.try_clone().expect("clone"));
        let mut replies = Vec::new();
        let mut ask = |req: String| {
            writeln!(s, "{req}").expect("write");
            s.flush().expect("flush");
            let mut line = String::new();
            reader.read_line(&mut line).expect("read");
            replies_push(&mut replies, line);
        };
        fn replies_push(v: &mut Vec<String>, line: String) {
            v.push(line.trim_end().to_string());
        }
        ask(format!("open {sid} eager"));
        for j in 0..20 {
            ask(format!("job {sid} {j},{},1", j + 5));
        }
        ask(format!("close {sid}"));
        replies
    };
    let ta = std::thread::spawn(move || run_client(sock_a, "alpha"));
    let tb = std::thread::spawn(move || run_client(sock_b, "beta"));
    let ra = ta.join().expect("client alpha");
    let rb = tb.join().expect("client beta");

    for (sid, replies) in [("alpha", &ra), ("beta", &rb)] {
        assert_eq!(replies.len(), 22, "{sid}");
        assert!(replies[0].starts_with(&format!("ok open {sid} ")), "{sid}");
        for (j, r) in replies[1..21].iter().enumerate() {
            assert!(
                r.starts_with(&format!("ok job {sid} id=J{j} ")),
                "{sid} job {j}: {r}"
            );
        }
        assert!(replies[21].starts_with(&format!("ok close {sid}")), "{sid}");
    }

    let out = terminate(&mut child);
    assert!(out.status.success(), "{out:?}");
    let _ = std::fs::remove_file(&sock);
}

/// Median of a sample of round-trip times.
fn median(mut samples: Vec<Duration>) -> Duration {
    samples.sort();
    samples[samples.len() / 2]
}

/// Pooled replies must reach a closed-loop client as soon as the worker
/// finishes: one connection sending each `job` only after the previous
/// reply arrived generates no other event that could wake the daemon, so
/// any timer-driven dispatch shows up directly in the round trip.
#[test]
fn pooled_socket_replies_without_waiting_for_a_tick() {
    let sock = scratch("rtt-sock");
    let mut child = Command::new(bin())
        .args(["serve", "--workers", "2", "--socket"])
        .arg(&sock)
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn socket daemon");

    let mut s = await_socket(&sock);
    let mut reader = BufReader::new(s.try_clone().expect("clone"));
    let mut ask = |req: String| {
        let start = Instant::now();
        writeln!(s, "{req}").expect("write");
        s.flush().expect("flush");
        let mut line = String::new();
        reader.read_line(&mut line).expect("read");
        (line, start.elapsed())
    };
    let (reply, _) = ask("open rtt eager".into());
    assert!(reply.starts_with("ok open rtt "), "{reply}");
    let mut rtts = Vec::new();
    for j in 0..300 {
        let (reply, rtt) = ask(format!("job rtt {j},{},1", j + 5));
        assert!(
            reply.starts_with(&format!("ok job rtt id=J{j} ")),
            "{reply}"
        );
        rtts.push(rtt);
    }
    let (reply, _) = ask("close rtt".into());
    assert!(reply.starts_with("ok close rtt"), "{reply}");

    let med = median(rtts);
    let out = terminate(&mut child);
    assert!(out.status.success(), "{out:?}");
    let _ = std::fs::remove_file(&sock);
    assert!(
        med < Duration::from_micros(500),
        "median socket round trip at --workers 2 is {med:?}; want < 0.5 ms"
    );
}

/// The stdin frontend at `--workers 2`: an interactive client writing one
/// request at a time must get each reply without waiting for the next
/// line or the 100 ms signal heartbeat.
#[test]
fn pooled_stdin_replies_without_waiting_for_the_heartbeat() {
    let log = scratch("stdin-log");
    let mut child = Command::new(bin())
        .args(["serve", "--workers", "2", "--log"])
        .arg(&log)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn stdin daemon");
    let mut stdin = child.stdin.take().expect("stdin");
    let mut stdout = BufReader::new(child.stdout.take().expect("stdout"));
    let mut ask = |req: String| {
        let start = Instant::now();
        writeln!(stdin, "{req}").expect("write");
        stdin.flush().expect("flush");
        let mut line = String::new();
        stdout.read_line(&mut line).expect("read");
        (line, start.elapsed())
    };
    let (reply, _) = ask("open in eager".into());
    assert!(reply.starts_with("ok open in "), "{reply}");
    let mut rtts = Vec::new();
    for j in 0..20 {
        let (reply, rtt) = ask(format!("job in {j},{},1", j + 5));
        assert!(reply.starts_with(&format!("ok job in id=J{j} ")), "{reply}");
        rtts.push(rtt);
    }
    let (reply, _) = ask("close in".into());
    assert!(reply.starts_with("ok close in"), "{reply}");
    drop(stdin);
    let status = child.wait().expect("wait for daemon");
    assert!(status.success(), "{status:?}");
    let _ = std::fs::remove_file(&log);

    let med = median(rtts);
    assert!(
        med < Duration::from_millis(20),
        "median stdin round trip at --workers 2 is {med:?}; want < 20 ms"
    );
}

/// Threads in a live process, read from `/proc/<pid>/task`.
fn thread_count(pid: u32) -> usize {
    std::fs::read_dir(format!("/proc/{pid}/task"))
        .expect("read /proc/<pid>/task")
        .count()
}

/// Opens a connection and waits for one reply on it, so the daemon has
/// certainly accepted it.
fn open_connection(sock: &Path) -> UnixStream {
    let mut s = await_socket(sock);
    let mut reader = BufReader::new(s.try_clone().expect("clone"));
    writeln!(s, "stats").expect("write");
    let mut line = String::new();
    reader.read_line(&mut line).expect("read");
    assert!(line.starts_with("ok stats daemon "), "{line}");
    s
}

/// The socket frontend serves every connection from one loop: the
/// daemon's thread count with 8 idle connections open equals its count
/// with none, and is the worker count, at one worker and at two.
#[test]
#[cfg(target_os = "linux")]
fn thread_count_does_not_grow_with_connections() {
    for workers in [1u32, 2] {
        let sock = scratch(&format!("threads-w{workers}"));
        let mut child = Command::new(bin())
            .args(["serve", "--workers", &workers.to_string(), "--socket"])
            .arg(&sock)
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn socket daemon");
        drop(open_connection(&sock));
        let idle = thread_count(child.id());
        let conns: Vec<UnixStream> = (0..8).map(|_| open_connection(&sock)).collect();
        let busy = thread_count(child.id());
        drop(conns);
        let out = terminate(&mut child);
        assert!(out.status.success(), "{out:?}");
        let _ = std::fs::remove_file(&sock);
        assert_eq!(
            busy, idle,
            "--workers {workers}: {idle} threads with no connection, {busy} with 8"
        );
        assert_eq!(
            idle, workers as usize,
            "--workers {workers}: the dispatcher owns shard 0, so N threads"
        );
    }
}

/// CPU clock ticks (utime + stime) a live process has used, read from
/// `/proc/<pid>/stat`. The fields after the `)` that closes the command
/// name start at field 3, so utime (14) and stime (15) are the 12th and
/// 13th of them.
#[cfg(target_os = "linux")]
fn cpu_ticks(pid: u32) -> u64 {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).expect("read /proc/<pid>/stat");
    let (_, fields) = stat.rsplit_once(") ").expect("stat has a command name");
    let field = |i: usize| -> u64 {
        fields
            .split_whitespace()
            .nth(i)
            .expect("stat field")
            .parse()
            .expect("tick count")
    };
    field(11) + field(12)
}

/// The busy-poll window closes: after a closed-loop burst, which keeps
/// the loop polling without blocking, an idle daemon goes back to sleep
/// in `poll(2)` and uses almost no CPU, at one worker and at two.
#[test]
#[cfg(target_os = "linux")]
fn idle_daemon_does_not_spin() {
    for workers in [1u32, 2] {
        let sock = scratch(&format!("idle-w{workers}"));
        let mut child = Command::new(bin())
            .args(["serve", "--workers", &workers.to_string(), "--socket"])
            .arg(&sock)
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn socket daemon");
        drop(await_socket(&sock));
        let burst = Command::new(bin())
            .args(["loadgen", "--socket"])
            .arg(&sock)
            .args(["--sessions", "4", "--jobs", "400", "--concurrency", "2"])
            .output()
            .expect("closed-loop loadgen");
        assert!(burst.status.success(), "{burst:?}");
        let report = String::from_utf8_lossy(&burst.stdout);
        assert!(report.contains("408 replies"), "{report}");
        let before = cpu_ticks(child.id());
        std::thread::sleep(Duration::from_secs(2));
        let idle = cpu_ticks(child.id()) - before;
        let out = terminate(&mut child);
        assert!(out.status.success(), "{out:?}");
        let _ = std::fs::remove_file(&sock);
        assert!(
            idle < 10,
            "--workers {workers}: an idle daemon used {idle} ticks in 2 s"
        );
    }
}

/// The stdin frontend is the same poll loop: a stdin daemon runs the main
/// thread, which owns shard 0, plus one thread per worker above one, and
/// no reader thread.
#[test]
#[cfg(target_os = "linux")]
fn stdin_daemon_runs_no_reader_thread() {
    for (workers, want) in [(1u32, 1usize), (2, 2), (4, 4)] {
        let log = scratch(&format!("stdin-threads-w{workers}"));
        let mut child = Command::new(bin())
            .args(["serve", "--workers", &workers.to_string(), "--log"])
            .arg(&log)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn stdin daemon");
        let mut stdin = child.stdin.take().expect("stdin");
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout"));
        writeln!(stdin, "open a eager").expect("write");
        stdin.flush().expect("flush");
        let mut reply = String::new();
        stdout.read_line(&mut reply).expect("read");
        assert!(reply.starts_with("ok open a "), "{reply}");
        let threads = thread_count(child.id());
        drop(stdin);
        let status = child.wait().expect("wait for daemon");
        let _ = std::fs::remove_file(&log);
        assert!(status.success(), "{status:?}");
        assert_eq!(
            threads, want,
            "--workers {workers}: threads of a stdin daemon"
        );
    }
}

/// Feeds `input` to a stdin daemon, returning (stdout, log, status).
fn serve_stdin(input: &[u8], args: &[&str]) -> (String, String, std::process::ExitStatus) {
    let log = scratch("stdin-feed-log");
    let mut child = Command::new(bin())
        .arg("serve")
        .args(args)
        .arg("--log")
        .arg(&log)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn stdin daemon");
    let mut stdin = child.stdin.take().expect("stdin");
    stdin.write_all(input).expect("write");
    drop(stdin);
    let out = child.wait_with_output().expect("wait for daemon");
    let text = std::fs::read_to_string(&log).expect("read log");
    let _ = std::fs::remove_file(&log);
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        text,
        out.status,
    )
}

/// Input that ends without a newline still has its last line served, as
/// from a file (a socket would count it as a lost connection).
#[test]
fn stdin_serves_a_final_line_without_newline() {
    let (replies, log, status) = serve_stdin(b"open a eager\njob a 0,5,1\nclose a", &[]);
    assert!(status.success(), "{status:?}");
    let replies: Vec<&str> = replies.lines().collect();
    assert_eq!(replies.len(), 3, "{replies:?}");
    assert!(replies[2].starts_with("ok close a "), "{replies:?}");
    assert_eq!(log.lines().last(), Some("a close span=1 verdict=completed"));
}

/// A halting line arriving in the same read as the lines after it stops
/// submission there: no `err halted` replies, exit 1.
#[test]
fn stdin_halt_stops_submission_at_the_halting_line() {
    let input = b"open a eager\nbogus line\njob a 0,5,1\nclose a\n";
    let (replies, _, status) = serve_stdin(input, &["--quarantine", "halt"]);
    assert_eq!(status.code(), Some(1), "{replies}");
    let replies: Vec<&str> = replies.lines().collect();
    assert_eq!(replies.len(), 2, "{replies:?}");
    assert!(replies[0].starts_with("ok open a "), "{replies:?}");
    assert!(
        replies[1].starts_with("err line=2 offset=13: "),
        "{replies:?}"
    );
}
