//! The served byte contract at the workspace root: the worker pool must
//! reproduce the serial server's replies and decision log byte for byte.
//! The traffic is a seeded `fjs loadgen` script under two tenants, with
//! bare `stats` requests that read the daemon-wide counters mid-stream.

use fjs_cli::loadgen::{emit_script, LoadgenOptions};
use fjs_cli::serve::{run_script, run_script_pooled, ServeOptions};

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
