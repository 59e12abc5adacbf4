//! Exit codes of `fjs bench-diff`, the gate CI runs against
//! `BENCH_baseline.json`: 0 when no case regressed past the threshold, 1 on
//! a regression or a baseline case missing from the new report, 2 on a bad
//! invocation.

use fjs_analysis::{BenchReport, BenchSample};
use std::path::PathBuf;
use std::process::{Command, Output};

fn report(cases: &[(&str, f64)]) -> BenchReport {
    let mut report = BenchReport::new("test");
    for &(name, median_s) in cases {
        report.upsert(BenchSample {
            name: name.into(),
            median_s,
            min_s: median_s,
            mean_s: median_s,
            iters: 1,
            samples: 1,
        });
    }
    report
}

/// Writes each report to a fresh file and runs `fjs bench-diff` on them
/// with `extra` arguments appended.
fn bench_diff(tag: &str, old: &BenchReport, new: &BenchReport, extra: &[&str]) -> Output {
    let dir = std::env::temp_dir().join(format!("fjs-diff-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = |name: &str, r: &BenchReport| -> PathBuf {
        let p = dir.join(name);
        std::fs::write(&p, r.to_json()).unwrap();
        p
    };
    let out = Command::new(env!("CARGO_BIN_EXE_fjs"))
        .arg("bench-diff")
        .arg(path("old.json", old))
        .arg(path("new.json", new))
        .args(extra)
        .output()
        .unwrap();
    std::fs::remove_dir_all(&dir).ok();
    out
}

fn code(out: &Output) -> i32 {
    out.status.code().expect("exited normally")
}

#[test]
fn bench_diff_exit_codes() {
    let base = report(&[("a", 1.0), ("b", 2.0)]);

    let same = bench_diff("same", &base, &base, &["--max-regress", "0"]);
    assert_eq!(code(&same), 0, "self-diff must pass");
    assert_eq!(code(&bench_diff("default", &base, &base, &[])), 0);

    let doubled = report(&[("a", 2.0), ("b", 2.0)]);
    assert_eq!(code(&bench_diff("doubled", &base, &doubled, &[])), 1);
    let loose = bench_diff("loose", &base, &doubled, &["--max-regress", "150"]);
    assert_eq!(code(&loose), 0, "a doubling is within a 150% bound");

    // A baseline case dropped from the new report fails the gate and is
    // named; a case only in the new report does not.
    let missing = bench_diff("missing", &base, &report(&[("a", 1.0)]), &[]);
    assert_eq!(code(&missing), 1);
    let stderr = String::from_utf8_lossy(&missing.stderr);
    assert!(stderr.contains("1 case(s) missing from"), "{stderr}");
    assert!(stderr.trim_end().ends_with(": b"), "{stderr}");
    let extra = report(&[("a", 1.0), ("b", 2.0), ("c", 9.0)]);
    assert_eq!(code(&bench_diff("extra", &base, &extra, &[])), 0);

    for bad in [
        &["--threshold", "0.2"][..],
        &["--max-regress", "abc"],
        &["--max-regress", "-5"],
        &["--max-regress"],
    ] {
        let out = bench_diff("bad", &base, &base, bad);
        assert_eq!(code(&out), 2, "{bad:?} must be a usage error");
    }
}
