//! The served byte contract at the workspace root: the worker pool must
//! reproduce the serial server's replies, decision log, journal and
//! summary byte for byte. One test drives a seeded `fjs loadgen` script
//! under two tenants, with bare `stats` requests that read the
//! daemon-wide counters mid-stream; the other drives every registered
//! scheduler, poisoned sessions and a breaker trip through a kill and a
//! journal resume, under many patterns of the frontend's backlog hint.

use fjs_cli::loadgen::{emit_script, LoadgenOptions};
use fjs_cli::serve::{run_script, run_script_pooled, ServeOptions, Server, Sink};
use fjs_core::service::{BreakerConfig, ServeJournal};
use fjs_core::supervise::with_quiet_panics;
use fjs_prng::SmallRng;
use fjs_schedulers::SchedulerKind;

/// Two tenants' loadgen scripts, interleaved line by line, with a daemon
/// `stats` read every 64 lines and once at the end.
fn tenant_script() -> String {
    let tenant = |prefix: &str, seed: u64, scheduler: &str| {
        emit_script(&LoadgenOptions {
            sessions: 3,
            jobs: 300,
            seed,
            scheduler: scheduler.into(),
            sid_prefix: prefix.into(),
            ..LoadgenOptions::default()
        })
    };
    let a = tenant("alpha.s", 41, "batch+");
    let b = tenant("beta.s", 42, "cdb");
    let (a, b): (Vec<&str>, Vec<&str>) = (a.lines().collect(), b.lines().collect());
    let mut script = String::new();
    for i in 0..a.len().max(b.len()) {
        for side in [&a, &b] {
            if let Some(line) = side.get(i) {
                script.push_str(line);
                script.push('\n');
            }
        }
        if i % 64 == 63 {
            script.push_str("stats\n");
        }
    }
    script.push_str("stats\n");
    script
}

#[test]
fn pooled_serve_is_byte_identical_to_serial() {
    let script = tenant_script();
    let serial = run_script(&script, ServeOptions::default()).expect("serial run");
    assert!(serial.summary.halted.is_none());
    assert_eq!(serial.summary.opened, 6);
    assert_eq!(serial.summary.closed, 6);
    assert!(
        serial
            .replies
            .iter()
            .any(|r| r.starts_with("ok stats daemon")),
        "the script must read the daemon counters"
    );
    for workers in [2usize, 4] {
        let opts = ServeOptions {
            workers,
            ..ServeOptions::default()
        };
        let pooled = run_script_pooled(&script, opts).expect("pooled run");
        assert_eq!(
            pooled.replies, serial.replies,
            "workers={workers}: replies diverged"
        );
        assert_eq!(pooled.log, serial.log, "workers={workers}: log diverged");
    }
}

/// Every registered scheduler in tenant `r`, one panicking and one
/// hanging session in tenant `p`, and two eager-panic sessions in tenant
/// `h` whose closes trip `h`'s breaker, so the following `open h.c` is
/// refused. Session and daemon `stats` reads are spread through it.
fn mixed_script() -> String {
    let kinds = SchedulerKind::registered_set();
    let mut s = String::new();
    for (i, kind) in kinds.iter().enumerate() {
        s.push_str(&format!("open r.s{i} {}\n", kind.short_name()));
    }
    s.push_str("open p.panic poison:panic:batch+\nopen p.hang poison:hang:cdb\n");
    s.push_str("open h.a poison:panic:eager\nopen h.b poison:panic:eager\n");
    let deck = [
        (0.0, 0.0, 2.0),
        (0.25, 1.75, 1.5),
        (0.75, 4.0, 0.5),
        (1.5, 1.5, 2.25),
        (2.25, 6.0, 1.0),
        (3.5, 3.75, 0.25),
        (4.0, 9.0, 2.0),
        (5.25, 5.25, 1.25),
    ];
    for (j, (a, d, p)) in deck.into_iter().enumerate() {
        for i in 0..kinds.len() {
            s.push_str(&format!("job r.s{i} {a},{d},{p}\n"));
        }
        s.push_str(&format!(
            "job p.panic {a},{d},{p}\njob p.hang {a},{d},{p}\n"
        ));
        match j {
            1 => s.push_str("job h.a 0,1,1\njob h.b 0,1,1\nstats r.s0\n"),
            2 => s.push_str("close h.a\nstats\nclose h.b\nopen h.c eager\nstats\n"),
            5 => s.push_str("stats p.hang\nstats r.s1\nstats\n"),
            _ => {}
        }
    }
    for i in 0..kinds.len() {
        s.push_str(&format!("stats r.s{i}\nclose r.s{i}\n"));
    }
    s.push_str("close p.panic\nstats\n");
    s
}

fn mixed_opts(workers: usize) -> ServeOptions {
    ServeOptions {
        workers,
        watchdog_events: 2_000,
        breaker: BreakerConfig {
            threshold: 2,
            cooldown_events: 1_000,
        },
        ..ServeOptions::default()
    }
}

/// Everything a served run leaves behind.
#[derive(Debug, PartialEq)]
struct Bytes {
    /// The killed run's replies, then the resumed run's.
    replies: Vec<String>,
    log: String,
    journal: String,
    summary: String,
}

/// Feeds `lines` to `server` as one stream, with `backlog(i)` as the
/// hint of line `i`, and waits for every reply.
fn feed(server: &mut Server, lines: &[&str], backlog: &dyn Fn(usize) -> bool) -> Vec<String> {
    let mut out = Vec::new();
    let mut offset = 0u64;
    for (i, line) in lines.iter().enumerate() {
        server
            .submit(0, offset, line, backlog(i), &mut out)
            .expect("submit");
        offset += line.len() as u64;
    }
    server.settle(&mut out);
    out.into_iter().map(|(_, reply)| reply).collect()
}

/// Journals the first `kill_after` lines, drops the server without a
/// drain (the SIGKILL stand-in), resumes from the journal and feeds the
/// whole script again, as `fjs serve --resume` does.
fn run(script: &str, workers: usize, kill_after: usize, backlog: &dyn Fn(usize) -> bool) -> Bytes {
    let path = std::env::temp_dir().join(format!(
        "fjs-pool-identity-{}-{workers}-{kill_after}.journal",
        std::process::id()
    ));
    let lines: Vec<&str> = script.split_inclusive('\n').collect();
    let journal = ServeJournal::create(&path)
        .expect("create journal")
        .with_sync_every(usize::MAX);
    let mut killed = Server::new(mixed_opts(workers), Sink::Null, Some(journal));
    let mut replies = feed(&mut killed, &lines[..kill_after], backlog);
    drop(killed);

    let events = ServeJournal::load(&path).expect("load journal");
    let journal = ServeJournal::open_append(&path).expect("reopen journal");
    let mut resumed = Server::new(mixed_opts(workers), Sink::Mem(Vec::new()), Some(journal));
    resumed.resume(&events).expect("resume");
    replies.extend(feed(&mut resumed, &lines, &|i| backlog(kill_after + i)));
    let (summary, log) = resumed.finish().expect("finish");
    let journal = std::fs::read_to_string(&path).expect("read journal");
    let _ = std::fs::remove_file(&path);
    Bytes {
        replies,
        log: String::from_utf8_lossy(log.mem().unwrap_or_default()).into_owned(),
        journal,
        summary: summary.to_jsonl(),
    }
}

/// The pool applies a request on the dispatcher only when its worker has
/// nothing outstanding and the frontend says no input waits. Whatever the
/// hints, every byte must equal the one-worker run's: all lines backlog,
/// none, and 200 seeded random patterns, each with a kill and a journal
/// resume partway through.
#[test]
fn backlog_hints_never_change_served_bytes() {
    let script = mixed_script();
    let len = script.lines().count();
    let splits = [len / 3, len / 2, 2 * len / 3];
    let reference: Vec<Bytes> = splits
        .iter()
        .map(|&k| with_quiet_panics(|| run(&script, 1, k, &|_| false)))
        .collect();
    let first = &reference[0];
    assert!(first
        .replies
        .iter()
        .any(|r| r.starts_with("ok stats daemon")));
    assert!(first
        .replies
        .iter()
        .any(|r| r.starts_with("ok stats r.s0 ")));
    assert!(first
        .replies
        .iter()
        .any(|r| r.starts_with("busy open h.c breaker-open")));
    assert!(first.log.contains("verdict=panicked"), "{}", first.log);
    assert!(first.log.contains("verdict=timed-out"), "{}", first.log);
    assert!(
        first.summary.contains("\"breaker_refused\":1"),
        "{}",
        first.summary
    );

    let mut rng = SmallRng::seed_from_u64(0x5eed_b10c);
    let mut patterns: Vec<(String, Vec<bool>)> = vec![
        ("all backlog".into(), vec![true; 2 * len]),
        ("no backlog".into(), vec![false; 2 * len]),
    ];
    for p in 0..200 {
        let density = rng.f64_unit();
        let hints = (0..2 * len).map(|_| rng.bool_with(density)).collect();
        patterns.push((format!("random pattern {p} (density {density:.2})"), hints));
    }
    for (n, (name, hints)) in patterns.iter().enumerate() {
        let split = n % splits.len();
        for workers in [2usize, 4] {
            let got = with_quiet_panics(|| run(&script, workers, splits[split], &|i| hints[i]));
            let want = &reference[split];
            let what = format!("workers={workers}, {name}, kill after {}", splits[split]);
            assert_eq!(got.replies, want.replies, "{what}: replies diverged");
            assert_eq!(got.log, want.log, "{what}: log diverged");
            assert_eq!(got.journal, want.journal, "{what}: journal diverged");
            assert_eq!(got.summary, want.summary, "{what}: summary diverged");
        }
    }
}
