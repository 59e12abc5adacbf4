//! Process-wide memo cache for exact optima ([`cached_optimal_span_dp`]).
//!
//! The conformance harness and the exhaustive validation sweeps solve the
//! *same* small instances to optimality over and over: every scheduler kind
//! is ratio-checked against the same deck, every metamorphic transform
//! re-derives the optimum of a translated/scaled/permuted copy, and bench
//! iterations repeat whole sweeps. The DP solve dominates those paths, so
//! this module shares solutions across all of them through one
//! process-global table.
//!
//! # Canonical fingerprint
//!
//! Entries are keyed by a canonicalized copy of the instance that quotients
//! out exactly the symmetries the optimum is invariant under:
//!
//! * **translation** — arrivals and deadlines are shifted so the earliest
//!   arrival is 0 (`OPT(I + c) = OPT(I)`);
//! * **uniform scaling** — all values are divided by their GCD, and the
//!   cached optimum is the optimum of that reduced instance
//!   (`OPT(g·I) = g·OPT(I)`, exact in integers by the integrality lemma of
//!   [`crate::exact`]);
//! * **permutation** — jobs are sorted (`OPT` does not depend on job order).
//!
//! The key is the full canonical `(a, d, p)` vector, not a hash of it, so
//! lookups are collision-proof by construction: two instances share an
//! entry iff they are literally the same instance modulo the symmetries
//! above.
//!
//! # Determinism
//!
//! A cache hit returns bit-identical spans to an uncached solve (integers
//! scaled by an integer factor, converted through the same `f64` path), so
//! sweeps are reproducible regardless of cache state; the conformance
//! determinism suite asserts this. [`set_enabled`]`(false)` and [`reset`]
//! exist for tests that want to prove it.

use crate::exact::{optimal_span_dp, ExactError};
use fjs_core::job::Instance;
use fjs_core::time::Dur;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

/// Canonical form of an instance: sorted `(a, d, p)` triples, translated to
/// start at 0 and reduced by their common divisor.
type CanonKey = Vec<(i64, i64, i64)>;

/// Entry cap; past it the cache serves hits but stops inserting (a sweep
/// that somehow enumerates millions of distinct small instances degrades to
/// uncached speed instead of exhausting memory).
pub const CACHE_CAPACITY: usize = 1 << 18;

static ENABLED: AtomicBool = AtomicBool::new(true);
static HITS: AtomicU64 = AtomicU64::new(0);
static MISSES: AtomicU64 = AtomicU64::new(0);

fn table() -> &'static Mutex<HashMap<CanonKey, i64>> {
    static TABLE: OnceLock<Mutex<HashMap<CanonKey, i64>>> = OnceLock::new();
    TABLE.get_or_init(|| Mutex::new(HashMap::new()))
}

fn lock_table() -> std::sync::MutexGuard<'static, HashMap<CanonKey, i64>> {
    // A poisoned lock only means another thread panicked mid-insert; the
    // map itself is still a valid memo table.
    table().lock().unwrap_or_else(|e| e.into_inner())
}

/// Hit/miss counters of the process-wide cache (see [`stats`]).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct CacheStats {
    /// Lookups answered from the table.
    pub hits: u64,
    /// Lookups that fell through to a DP solve.
    pub misses: u64,
    /// Entries currently stored.
    pub entries: usize,
}

impl CacheStats {
    /// Hits as a fraction of all lookups (0.0 when untouched).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Greatest common divisor (non-negative inputs).
fn gcd(mut a: i64, mut b: i64) -> i64 {
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a
}

/// The canonical key and the scale factor `g` it was reduced by, or `None`
/// for instances outside the integral domain (the cache only fronts the
/// integer DP).
fn canonicalize(inst: &Instance) -> Option<(CanonKey, i64)> {
    let mut jobs: Vec<(i64, i64, i64)> = Vec::with_capacity(inst.len());
    for j in inst.jobs() {
        let (a, d, p) = (j.arrival().get(), j.deadline().get(), j.length().get());
        if a.fract() != 0.0 || d.fract() != 0.0 || p.fract() != 0.0 {
            return None;
        }
        // The DP itself only sees instances with modest windows, but guard
        // the i64 conversion anyway.
        if a.abs() > 1e15 || d.abs() > 1e15 || p.abs() > 1e15 {
            return None;
        }
        jobs.push((a as i64, d as i64, p as i64));
    }
    let t0 = jobs.iter().map(|&(a, _, _)| a).min().unwrap_or(0);
    let mut g = 0;
    for (a, d, p) in &mut jobs {
        *a -= t0;
        *d -= t0;
        g = gcd(g, gcd(*a, gcd(*d, *p)));
    }
    let g = g.max(1);
    for (a, d, p) in &mut jobs {
        *a /= g;
        *d /= g;
        *p /= g;
    }
    jobs.sort_unstable();
    Some((jobs, g))
}

/// [`optimal_span_dp`] fronted by the process-wide memo table.
///
/// Exactly equivalent to the uncached solver — same `Ok` spans bit for bit,
/// same errors — but a repeated instance (or a translate/scale/permute of
/// one) is answered from the table. Disabled caches ([`set_enabled`])
/// delegate straight through without touching the counters.
pub fn cached_optimal_span_dp(inst: &Instance) -> Result<Dur, ExactError> {
    if !ENABLED.load(Ordering::Relaxed) {
        return optimal_span_dp(inst);
    }
    let Some((key, g)) = canonicalize(inst) else {
        // Non-integral: let the solver produce its own error.
        return optimal_span_dp(inst);
    };
    if let Some(&canon_span) = lock_table().get(&key) {
        HITS.fetch_add(1, Ordering::Relaxed);
        return Ok(Dur::new((canon_span * g) as f64));
    }
    MISSES.fetch_add(1, Ordering::Relaxed);
    let span = optimal_span_dp(inst)?;
    let span_int = span.get() as i64;
    debug_assert_eq!(
        span_int as f64,
        span.get(),
        "integral instance, integral optimum"
    );
    debug_assert_eq!(span_int % g, 0, "optimum scales with the instance");
    let mut tbl = lock_table();
    if tbl.len() < CACHE_CAPACITY {
        tbl.insert(key, span_int / g);
    }
    Ok(span)
}

/// Snapshot of the cache counters and size.
pub fn stats() -> CacheStats {
    CacheStats {
        hits: HITS.load(Ordering::Relaxed),
        misses: MISSES.load(Ordering::Relaxed),
        entries: lock_table().len(),
    }
}

/// Clears all entries and zeroes the counters. For tests and for sweeps
/// that want per-run hit rates.
pub fn reset() {
    let mut tbl = lock_table();
    tbl.clear();
    HITS.store(0, Ordering::Relaxed);
    MISSES.store(0, Ordering::Relaxed);
}

/// Turns the cache on or off process-wide (it starts enabled). While off,
/// [`cached_optimal_span_dp`] is a plain passthrough: no lookups, no
/// inserts, no counter movement.
pub fn set_enabled(enabled: bool) {
    ENABLED.store(enabled, Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;
    use fjs_core::job::Job;
    use fjs_core::time::dur;
    use std::sync::Mutex as StdMutex;

    /// The cache is process-global; tests that depend on counter deltas
    /// serialize on this.
    static TEST_LOCK: StdMutex<()> = StdMutex::new(());

    fn base() -> Instance {
        Instance::new(vec![
            Job::adp(0.0, 3.0, 2.0),
            Job::adp(1.0, 5.0, 1.0),
            Job::adp(2.0, 2.0, 3.0),
        ])
    }

    #[test]
    fn hit_returns_identical_span_and_counts() {
        let _guard = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        reset();
        let uncached = optimal_span_dp(&base()).unwrap();
        let first = cached_optimal_span_dp(&base()).unwrap();
        let second = cached_optimal_span_dp(&base()).unwrap();
        assert_eq!(first, uncached);
        assert_eq!(second, uncached);
        let s = stats();
        assert_eq!((s.hits, s.misses, s.entries), (1, 1, 1));
        assert!((s.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn translation_scaling_permutation_share_one_entry() {
        let _guard = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        reset();
        let opt = cached_optimal_span_dp(&base()).unwrap();

        let translated = Instance::new(
            base()
                .jobs()
                .iter()
                .map(|j| {
                    Job::adp(
                        j.arrival().get() + 97.0,
                        j.deadline().get() + 97.0,
                        j.length().get(),
                    )
                })
                .collect(),
        );
        assert_eq!(cached_optimal_span_dp(&translated).unwrap(), opt);

        let scaled = Instance::new(
            base()
                .jobs()
                .iter()
                .map(|j| {
                    Job::adp(
                        j.arrival().get() * 4.0,
                        j.deadline().get() * 4.0,
                        j.length().get() * 4.0,
                    )
                })
                .collect(),
        );
        assert_eq!(
            cached_optimal_span_dp(&scaled).unwrap(),
            dur(opt.get() * 4.0)
        );

        let reversed = Instance::new(base().jobs().iter().rev().cloned().collect());
        assert_eq!(cached_optimal_span_dp(&reversed).unwrap(), opt);

        let s = stats();
        assert_eq!(s.entries, 1, "all four variants canonicalize identically");
        assert_eq!((s.hits, s.misses), (3, 1));
    }

    #[test]
    fn disabled_cache_is_a_passthrough() {
        let _guard = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        reset();
        set_enabled(false);
        let span = cached_optimal_span_dp(&base()).unwrap();
        set_enabled(true);
        assert_eq!(span, optimal_span_dp(&base()).unwrap());
        let s = stats();
        assert_eq!((s.hits, s.misses, s.entries), (0, 0, 0));
    }

    #[test]
    fn non_integral_and_oversize_errors_pass_through() {
        let _guard = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        reset();
        let frac = Instance::new(vec![Job::adp(0.0, 1.5, 1.0)]);
        assert_eq!(cached_optimal_span_dp(&frac), Err(ExactError::NonIntegral));
        let big = Instance::new((0..20).map(|i| Job::adp(i as f64, i as f64, 1.0)).collect());
        assert!(matches!(
            cached_optimal_span_dp(&big),
            Err(ExactError::TooLarge { .. })
        ));
        // The oversize probe consumed a miss (canonicalization succeeded,
        // the solve failed) but nothing was stored.
        assert_eq!(stats().entries, 0);
    }

    #[test]
    fn empty_instance_cached() {
        let _guard = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        reset();
        assert_eq!(cached_optimal_span_dp(&Instance::empty()), Ok(Dur::ZERO));
        assert_eq!(cached_optimal_span_dp(&Instance::empty()), Ok(Dur::ZERO));
        assert_eq!(stats().hits, 1);
    }

    #[test]
    fn gcd_basics() {
        assert_eq!(gcd(0, 0), 0);
        assert_eq!(gcd(0, 7), 7);
        assert_eq!(gcd(12, 18), 6);
        assert_eq!(gcd(18, 12), 6);
    }
}
