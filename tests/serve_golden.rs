//! Frozen served bytes. `tests/golden/serve.txt` holds one line per case:
//! an FNV-1a-64 digest of the replies, of the decision log and of the
//! summary's JSONL record, as the single-threaded reference server
//! produced them. Every runner (`run_script`, `run_script_pooled`) at
//! every worker count must reproduce each digest, including a journal
//! kill/resume split. A mismatch prints the whole actual table.

use fjs_cli::loadgen::{emit_script, LoadgenOptions};
use fjs_cli::serve::{run_script, run_script_pooled, ScriptOutcome, ServeOptions, Server, Sink};
use fjs_core::service::{fnv1a, BreakerConfig, ServeJournal, TenantQuotas};
use fjs_core::supervise::with_quiet_panics;
use fjs_workloads::Quarantine;

const FIXTURE: &str = include_str!("golden/serve.txt");

fn loadgen(sessions: usize, jobs: usize, seed: u64, scheduler: &str, prefix: &str) -> String {
    emit_script(&LoadgenOptions {
        sessions,
        jobs,
        seed,
        scheduler: scheduler.into(),
        sid_prefix: prefix.into(),
        ..LoadgenOptions::default()
    })
}

/// The two-tenant registry script of `serve_pool_identity.rs`: two
/// loadgen streams interleaved line by line, a daemon `stats` every 64
/// lines and once at the end.
fn registry_script() -> String {
    let a = loadgen(3, 300, 41, "batch+", "alpha.s");
    let b = loadgen(3, 300, 42, "cdb", "beta.s");
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

const POISON: &str = "open good eager\n\
                      open bad poison:panic:eager\n\
                      open spin poison:hang:lazy\n\
                      open late batch+\n\
                      job good 0,0,1\n\
                      job bad 0,0,1\n\
                      job spin 0,5,1\n\
                      job late 0,4,2\n\
                      job bad 1,1,1\n\
                      job spin 1,6,1\n\
                      job good 1,1,1\n\
                      stats spin\n\
                      job late 1,9,1\n\
                      close bad\n\
                      job spin 2,8,1\n\
                      close spin\n\
                      stats\n";

const QUOTAS: &str = "open t.a lazy\n\
                      open t.b lazy\n\
                      open t.c lazy\n\
                      open t.d lazy\n\
                      job t.a 0,100,1\n\
                      job t.b 0,100,1\n\
                      job t.a 0,100,1\n\
                      open u.a lazy\n\
                      job u.a 0,100,1\n\
                      job u.a 0,100,1\n\
                      job u.a 0,100,1\n\
                      job u.a 1,100,2\n\
                      stats\n\
                      close t.a\n\
                      job t.b 1,100,1\n\
                      close u.a\n";

const BREAKER: &str = "open h.a poison:panic:eager\n\
                       job h.a 0,1,1\n\
                       close h.a\n\
                       open h.b poison:panic:eager\n\
                       job h.b 0,1,1\n\
                       close h.b\n\
                       open h.c eager\n\
                       open u.a eager\n\
                       job u.a 0,5,1\n\
                       job u.a 1,6,1\n\
                       close u.a\n\
                       open h.d eager\n\
                       job h.d 0,5,2\n\
                       stats\n\
                       close h.d\n\
                       open h.e eager\n\
                       job h.e 0,3,1\n\
                       stats\n";

const MALFORMED: &str = "# quarantine provenance\n\
                         open a eager\n\
                         job a bogus\n\
                         job a 0,5,1\n\
                         \n\
                         frobnicate a\n\
                         job a 5,2,1\n\
                         open b nonesuch\n\
                         job b 0,1,1\n\
                         job a 1,6,1\n\
                         stats a\n\
                         close a\n";

/// One case: a script and the options it runs under.
struct Case {
    name: &'static str,
    script: String,
    opts: ServeOptions,
}

fn cases() -> Vec<Case> {
    let case = |name, script: &str, opts| Case {
        name,
        script: script.to_string(),
        opts,
    };
    vec![
        case(
            "loadgen-ci",
            &loadgen(4, 2000, 11, "batch", "s"),
            ServeOptions::default(),
        ),
        case("registry", &registry_script(), ServeOptions::default()),
        case(
            "poison",
            POISON,
            ServeOptions {
                watchdog_events: 500,
                ..ServeOptions::default()
            },
        ),
        case(
            "tenant-quotas",
            QUOTAS,
            ServeOptions {
                tenant_max_sessions: 3,
                tenant_quotas: TenantQuotas {
                    max_pending: 2,
                    max_bytes: 40,
                },
                ..ServeOptions::default()
            },
        ),
        case(
            "breaker",
            BREAKER,
            ServeOptions {
                breaker: BreakerConfig {
                    threshold: 2,
                    cooldown_events: 4,
                },
                ..ServeOptions::default()
            },
        ),
        case("dead-letter", MALFORMED, ServeOptions::default()),
        case(
            "halt",
            MALFORMED,
            ServeOptions {
                quarantine: Quarantine::Halt,
                ..ServeOptions::default()
            },
        ),
        case(
            "resume",
            &format!("{BREAKER}{}", loadgen(3, 200, 7, "lazy", "r")),
            ServeOptions {
                breaker: BreakerConfig {
                    threshold: 2,
                    cooldown_events: 4,
                },
                ..ServeOptions::default()
            },
        ),
    ]
}

/// Protocol lines the killed run of the `resume` case applies.
const KILL_AFTER: usize = 150;

/// Journals the first [`KILL_AFTER`] lines, drops the server without a
/// drain (the SIGKILL stand-in), then resumes from the journal and feeds
/// the whole script again, as `fjs serve --resume` does.
fn kill_and_resume(script: &str, opts: &ServeOptions, tag: &str) -> ScriptOutcome {
    let path = std::env::temp_dir().join(format!(
        "fjs-serve-golden-{}-{tag}.journal",
        std::process::id()
    ));
    let journal = ServeJournal::create(&path)
        .expect("create journal")
        .with_sync_every(1);
    let mut killed = Server::new(opts.clone(), Sink::Null, Some(journal));
    let mut offset = 0u64;
    for line in script.split_inclusive('\n').take(KILL_AFTER) {
        killed.handle_line(offset, line);
        offset += line.len() as u64;
    }
    drop(killed);

    let events = ServeJournal::load(&path).expect("load journal");
    let _ = std::fs::remove_file(&path);
    let mut resumed = Server::new(opts.clone(), Sink::Mem(Vec::new()), None);
    resumed.resume(&events).expect("resume");
    let mut replies = Vec::new();
    let mut offset = 0u64;
    for line in script.split_inclusive('\n') {
        replies.extend(resumed.handle_line(offset, line));
        offset += line.len() as u64;
    }
    let (summary, log) = resumed.finish().expect("finish");
    ScriptOutcome {
        replies,
        log: String::from_utf8_lossy(log.mem().unwrap_or_default()).into_owned(),
        summary,
    }
}

fn row(name: &str, out: &ScriptOutcome) -> String {
    let mut replies = String::new();
    for r in &out.replies {
        replies.push_str(r);
        replies.push('\n');
    }
    format!(
        "{name} replies={:016x} log={:016x} summary={:016x}",
        fnv1a(replies.as_bytes()),
        fnv1a(out.log.as_bytes()),
        fnv1a(out.summary.to_jsonl().as_bytes())
    )
}

#[test]
fn served_bytes_match_the_frozen_reference() {
    let cases = cases();
    let mut failures = Vec::new();
    for pooled in [false, true] {
        for workers in [1usize, 2, 4, 8] {
            let runner = if pooled {
                "run_script_pooled"
            } else {
                "run_script"
            };
            let mut table = String::new();
            for case in &cases {
                let opts = ServeOptions {
                    workers,
                    ..case.opts.clone()
                };
                let out = with_quiet_panics(|| {
                    if case.name == "resume" {
                        kill_and_resume(&case.script, &opts, &format!("{runner}-{workers}"))
                    } else if pooled {
                        run_script_pooled(&case.script, opts).expect("pooled run")
                    } else {
                        run_script(&case.script, opts).expect("run")
                    }
                });
                table.push_str(&row(case.name, &out));
                table.push('\n');
            }
            if table != FIXTURE {
                failures.push(format!("{runner} --workers {workers}:\n{table}"));
            }
        }
    }
    assert!(
        failures.is_empty(),
        "served bytes differ from tests/golden/serve.txt; actual tables:\n{}",
        failures.join("\n")
    );
}
