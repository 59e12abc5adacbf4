//! The timing loop behind `fjs bench`: calibrated, warmed-up measurement of
//! one closure into a [`crate::benchjson`] record.

use crate::benchjson::BenchSample;
use std::time::Instant;

/// Times `f`, prints one aligned report line (median / min / mean per
/// iteration) and returns the measurement as a [`BenchSample`] record.
///
/// Calibration: the closure is first *warmed up* (population of caches,
/// branch predictors, lazy allocations), then the per-sample iteration
/// count is derived from the **minimum of ≥3 post-warm-up probes** — a
/// single cold probe runs slow and would overshoot `iters`, inflating
/// sample times on short cases. The chosen `iters` is surfaced in the
/// returned record.
///
/// `quick` shrinks the sample count and the per-sample time budget, so a
/// smoke run finishes in seconds; the work `f` does is the same either way.
///
/// A tiny fixed-iteration harness, good enough for the coarse regressions
/// it guards; it deliberately trades Criterion's statistics for a
/// dependency-free build.
pub fn time_case<R>(name: &str, quick: bool, mut f: impl FnMut() -> R) -> BenchSample {
    let (samples, target_sample_ms, probes) = if quick { (4, 5.0, 3) } else { (12, 80.0, 3) };

    // Warm up: one untimed call, discarded.
    std::hint::black_box(f());

    // Calibrate from the fastest of several post-warm-up probes.
    let mut probe_min = f64::INFINITY;
    for _ in 0..probes {
        let t0 = Instant::now();
        std::hint::black_box(f());
        probe_min = probe_min.min(t0.elapsed().as_secs_f64());
    }
    let probe_min = probe_min.max(1e-9);
    let iters = ((target_sample_ms / 1e3 / probe_min).ceil() as usize).clamp(1, 1_000_000);

    let mut per_iter: Vec<f64> = Vec::with_capacity(samples);
    for _ in 0..samples {
        let start = Instant::now();
        for _ in 0..iters {
            std::hint::black_box(f());
        }
        per_iter.push(start.elapsed().as_secs_f64() / iters as f64);
    }
    per_iter.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let median = per_iter[per_iter.len() / 2];
    let min = per_iter[0];
    let mean = per_iter.iter().sum::<f64>() / per_iter.len() as f64;
    println!(
        "{name:<44} median {:>12}  min {:>12}  mean {:>12}  ({iters} it/sample)",
        fmt_duration(median),
        fmt_duration(min),
        fmt_duration(mean),
    );
    BenchSample {
        name: name.to_string(),
        median_s: median,
        min_s: min,
        mean_s: mean,
        iters,
        samples,
    }
}

/// Human-friendly seconds formatting (ns/µs/ms/s).
pub fn fmt_duration(secs: f64) -> String {
    if secs < 1e-6 {
        format!("{:.1} ns", secs * 1e9)
    } else if secs < 1e-3 {
        format!("{:.2} µs", secs * 1e6)
    } else if secs < 1.0 {
        format!("{:.2} ms", secs * 1e3)
    } else {
        format!("{:.3} s", secs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fmt_picks_sane_units() {
        assert!(fmt_duration(5e-9).ends_with("ns"));
        assert!(fmt_duration(5e-6).ends_with("µs"));
        assert!(fmt_duration(5e-3).ends_with("ms"));
        assert!(fmt_duration(5.0).ends_with("s"));
    }

    #[test]
    fn time_case_runs_the_closure_and_surfaces_calibration() {
        let mut calls = 0usize;
        let sample = time_case("noop", true, || calls += 1);
        // 1 warm-up + ≥3 probes + samples×iters timed calls.
        assert!(calls >= 1 + 3 + sample.samples * sample.iters);
        assert_eq!(sample.name, "noop");
        assert!(sample.iters >= 1);
        assert!(sample.samples >= 1);
        assert!(sample.min_s <= sample.median_s);
        assert!(sample.min_s >= 0.0 && sample.median_s.is_finite());
    }
}
