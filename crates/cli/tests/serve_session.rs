//! Determinism contract for the service layer against the batch engine,
//! across the whole scheduler registry: driving a registry-built
//! scheduler through `fjs serve`'s in-process core must produce exactly
//! the spans the batch engine computes for the same instance, and a
//! poisoned session must never leak into its neighbours.

use fjs_cli::serve::{run_script, run_script_pooled, ServeOptions};
use fjs_core::job::{Instance, Job};
use fjs_core::service::{stable_shard, tenant_of};
use fjs_core::supervise::with_quiet_panics;
use fjs_schedulers::SchedulerKind;

/// A deck with strictly increasing quarter-grid arrivals (so the session
/// and engine see identical release orderings) and mixed laxity.
fn deck() -> Vec<(f64, f64, f64)> {
    vec![
        (0.0, 0.0, 2.0),
        (0.25, 1.75, 1.5),
        (0.75, 4.0, 0.5),
        (1.5, 1.5, 2.25),
        (2.25, 6.0, 1.0),
        (3.5, 3.75, 0.25),
        (4.0, 9.0, 2.0),
        (5.25, 5.25, 1.25),
        (6.0, 11.0, 0.75),
        (7.5, 8.0, 1.0),
        (9.0, 14.0, 3.0),
        (10.25, 10.5, 0.5),
    ]
}

fn instance() -> Instance {
    Instance::new(
        deck()
            .into_iter()
            .map(|(a, d, p)| Job::adp(a, d, p))
            .collect(),
    )
}

fn script_for(kind: SchedulerKind) -> String {
    let mut s = format!("open x {}\n", kind.short_name());
    for (a, d, p) in deck() {
        s.push_str(&format!("job x {a},{d},{p}\n"));
    }
    s.push_str("close x\n");
    s
}

/// Extracts the `span=` value (as rendered text, so the comparison is
/// exact) from the session's close line.
fn close_span(log: &str) -> String {
    log.lines()
        .find_map(|l| l.strip_prefix("x close span="))
        .and_then(|rest| rest.split_whitespace().next())
        .unwrap_or_else(|| panic!("no close line in log: {log:?}"))
        .to_string()
}

#[test]
fn every_registered_scheduler_matches_its_batch_span() {
    for kind in SchedulerKind::registered_set() {
        let out = run_script(&script_for(kind), ServeOptions::default())
            .unwrap_or_else(|e| panic!("{}: serve script failed: {e}", kind.label()));
        assert!(
            out.summary.halted.is_none(),
            "{}: {:?}",
            kind.label(),
            out.summary.halted
        );
        assert_eq!(out.summary.jobs, deck().len() as u64, "{}", kind.label());
        let batch = kind.run_on(&instance());
        assert!(
            batch.termination.is_completed(),
            "{}: batch run must complete",
            kind.label()
        );
        assert_eq!(
            close_span(&out.log),
            batch.span.to_string(),
            "{}: session span must equal the batch engine span",
            kind.label()
        );
        // Start decisions stream one per job.
        let starts = out.log.lines().filter(|l| l.contains(" start ")).count();
        let dones = out.log.lines().filter(|l| l.contains(" done ")).count();
        assert_eq!(
            (starts, dones),
            (deck().len(), deck().len()),
            "{}",
            kind.label()
        );
    }
}

#[test]
fn serve_decision_stream_is_deterministic_per_scheduler() {
    for kind in SchedulerKind::registered_set() {
        let a = run_script(&script_for(kind), ServeOptions::default()).unwrap();
        let b = run_script(&script_for(kind), ServeOptions::default()).unwrap();
        assert_eq!(
            a.log,
            b.log,
            "{}: same input must produce a byte-identical decision log",
            kind.label()
        );
        assert_eq!(a.replies, b.replies, "{}", kind.label());
    }
}

/// The worker pool's determinism contract: for a script interleaving
/// every registered scheduler across concurrent sessions, the pooled
/// backend must produce the serial backend's decision log and replies
/// byte for byte, at every worker count.
#[test]
fn pooled_backend_is_byte_identical_to_serial() {
    let kinds = SchedulerKind::registered_set();
    let mut script = String::new();
    for (i, kind) in kinds.iter().enumerate() {
        script.push_str(&format!("open n{i} {}\n", kind.short_name()));
    }
    for (a, d, p) in deck() {
        for i in 0..kinds.len() {
            script.push_str(&format!("job n{i} {a},{d},{p}\n"));
        }
    }
    for i in 0..kinds.len() {
        script.push_str(&format!("stats n{i}\n"));
        script.push_str(&format!("close n{i}\n"));
    }

    let serial = run_script(&script, ServeOptions::default()).expect("serial run");
    assert!(serial.summary.halted.is_none());
    for workers in [1, 2, 3, 8] {
        let opts = ServeOptions {
            workers,
            ..ServeOptions::default()
        };
        let pooled = run_script_pooled(&script, opts).expect("pooled run");
        assert_eq!(
            serial.log, pooled.log,
            "workers={workers}: decision log must match the serial backend"
        );
        assert_eq!(
            serial.replies, pooled.replies,
            "workers={workers}: replies must match the serial backend"
        );
        assert_eq!(
            serial.summary.jobs, pooled.summary.jobs,
            "workers={workers}"
        );
        assert_eq!(
            serial.summary.shed, pooled.summary.shed,
            "workers={workers}"
        );
    }
}

/// A poisoned session sharded onto one worker must not stall its
/// sibling workers' sessions: the pooled run completes, the poisoned
/// session gets a typed verdict, and every healthy session's log equals
/// its clean serial run.
#[test]
fn pooled_poison_session_does_not_stall_siblings() {
    let kinds = SchedulerKind::registered_set();
    let clean: Vec<(SchedulerKind, String)> = kinds
        .iter()
        .map(|&kind| {
            let out = run_script(&script_for(kind), ServeOptions::default()).unwrap();
            (kind, out.log)
        })
        .collect();

    for poison in ["poison:panic:eager", "poison:hang:eager"] {
        let mut script = format!("open bad {poison}\n");
        for (i, (kind, _)) in clean.iter().enumerate() {
            script.push_str(&format!("open n{i} {}\n", kind.short_name()));
        }
        for (j, (a, d, p)) in deck().into_iter().enumerate() {
            if j == 1 {
                script.push_str(&format!("job bad {a},{d},{p}\n"));
            }
            for i in 0..clean.len() {
                script.push_str(&format!("job n{i} {a},{d},{p}\n"));
            }
        }
        script.push_str("close bad\n");
        for i in 0..clean.len() {
            script.push_str(&format!("close n{i}\n"));
        }

        let opts = ServeOptions {
            workers: 4,
            watchdog_events: 5_000,
            ..ServeOptions::default()
        };
        let out = with_quiet_panics(|| run_script_pooled(&script, opts).unwrap());
        let bad_close = out
            .log
            .lines()
            .find(|l| l.starts_with("bad close"))
            .unwrap_or_else(|| panic!("{poison}: no close line for the poisoned session"));
        assert!(
            bad_close.contains("verdict=panicked") || bad_close.contains("verdict=timed-out"),
            "{poison}: poisoned session must end with a typed verdict: {bad_close}"
        );

        for (i, (kind, clean_log)) in clean.iter().enumerate() {
            let prefix = format!("n{i} ");
            let mine: Vec<&str> = out
                .log
                .lines()
                .filter_map(|l| l.strip_prefix(&prefix))
                .collect();
            let reference: Vec<&str> = clean_log
                .lines()
                .filter_map(|l| l.strip_prefix("x "))
                .collect();
            assert_eq!(
                mine,
                reference,
                "{poison}: pooled session n{i} ({}) diverged from its clean run",
                kind.label()
            );
        }
    }
}

/// One poisoned session per mode, surrounded by every registered
/// scheduler running the shared deck: the neighbours' logs must be
/// byte-identical to runs without the poison present.
#[test]
fn poison_never_leaks_across_sessions() {
    let clean: Vec<(SchedulerKind, String)> = SchedulerKind::registered_set()
        .into_iter()
        .map(|kind| {
            let out = run_script(&script_for(kind), ServeOptions::default()).unwrap();
            (kind, out.log)
        })
        .collect();

    for poison in ["poison:panic:eager", "poison:hang:eager"] {
        // Interleave the poisoned session's jobs with every healthy one.
        // Session names are n0, n1, ... (registry short names like
        // `batch+` are not valid sids).
        let mut script = format!("open bad {poison}\n");
        for (i, (kind, _)) in clean.iter().enumerate() {
            script.push_str(&format!("open n{i} {}\n", kind.short_name()));
        }
        for (j, (a, d, p)) in deck().into_iter().enumerate() {
            if j == 1 {
                script.push_str(&format!("job bad {a},{d},{p}\n"));
            }
            for i in 0..clean.len() {
                script.push_str(&format!("job n{i} {a},{d},{p}\n"));
            }
        }
        script.push_str("close bad\n");
        for i in 0..clean.len() {
            script.push_str(&format!("close n{i}\n"));
        }

        let opts = ServeOptions {
            watchdog_events: 5_000,
            ..ServeOptions::default()
        };
        let out = with_quiet_panics(|| run_script(&script, opts).unwrap());
        let bad_close = out
            .log
            .lines()
            .find(|l| l.starts_with("bad close"))
            .unwrap_or_else(|| panic!("{poison}: no close line for the poisoned session"));
        assert!(
            bad_close.contains("verdict=panicked") || bad_close.contains("verdict=timed-out"),
            "{poison}: poisoned session must end with a typed verdict: {bad_close}"
        );

        for (i, (kind, clean_log)) in clean.iter().enumerate() {
            let prefix = format!("n{i} ");
            let mine: Vec<&str> = out
                .log
                .lines()
                .filter_map(|l| l.strip_prefix(&prefix))
                .collect();
            let reference: Vec<&str> = clean_log
                .lines()
                .filter_map(|l| l.strip_prefix("x "))
                .collect();
            assert_eq!(
                mine,
                reference,
                "{poison}: session n{i} ({}) diverged from its clean run",
                kind.label()
            );
        }
    }
}

/// Shard 0 runs inline on the dispatcher thread at every worker count. A
/// poisoned session there must stay contained exactly as on a worker
/// thread: the run completes, the session ends with a typed verdict,
/// every healthy session keeps its clean log, and the whole log and
/// every reply equal the `--workers 1` run byte for byte.
#[test]
fn poison_on_the_inline_shard_is_contained() {
    // Shard 0 of 4 is shard 0 of 2 as well.
    let bad = (0..)
        .map(|i| format!("bad{i}"))
        .find(|sid| stable_shard(tenant_of(sid), 4) == 0)
        .expect("some sid hashes to shard 0");
    let clean: Vec<(SchedulerKind, String)> = SchedulerKind::registered_set()
        .into_iter()
        .map(|kind| {
            let out = run_script(&script_for(kind), ServeOptions::default()).unwrap();
            (kind, out.log)
        })
        .collect();

    for poison in ["poison:panic:eager", "poison:hang:eager"] {
        let mut script = format!("open {bad} {poison}\n");
        for (i, (kind, _)) in clean.iter().enumerate() {
            script.push_str(&format!("open n{i} {}\n", kind.short_name()));
        }
        for (j, (a, d, p)) in deck().into_iter().enumerate() {
            if j == 1 {
                script.push_str(&format!("job {bad} {a},{d},{p}\n"));
            }
            for i in 0..clean.len() {
                script.push_str(&format!("job n{i} {a},{d},{p}\n"));
            }
        }
        script.push_str(&format!("close {bad}\n"));
        for i in 0..clean.len() {
            script.push_str(&format!("close n{i}\n"));
        }

        let run = |workers| {
            let opts = ServeOptions {
                workers,
                watchdog_events: 5_000,
                ..ServeOptions::default()
            };
            with_quiet_panics(|| run_script_pooled(&script, opts).unwrap())
        };
        let reference = run(1);
        for workers in [2, 4] {
            let out = run(workers);
            let bad_close = out
                .log
                .lines()
                .find(|l| l.starts_with(&format!("{bad} close")))
                .unwrap_or_else(|| panic!("{poison}@w{workers}: no close line for {bad}"));
            assert!(
                bad_close.contains("verdict=panicked") || bad_close.contains("verdict=timed-out"),
                "{poison}@w{workers}: poisoned session must end with a typed verdict: {bad_close}"
            );
            for (i, (kind, clean_log)) in clean.iter().enumerate() {
                let prefix = format!("n{i} ");
                let mine: Vec<&str> = out
                    .log
                    .lines()
                    .filter_map(|l| l.strip_prefix(&prefix))
                    .collect();
                let want: Vec<&str> = clean_log
                    .lines()
                    .filter_map(|l| l.strip_prefix("x "))
                    .collect();
                assert_eq!(
                    mine,
                    want,
                    "{poison}@w{workers}: session n{i} ({}) diverged from its clean run",
                    kind.label()
                );
            }
            assert_eq!(
                out.log, reference.log,
                "{poison}@w{workers}: log must equal --workers 1"
            );
            assert_eq!(
                out.replies, reference.replies,
                "{poison}@w{workers}: replies must equal --workers 1"
            );
        }
    }
}
