//! # fjs-prng
//!
//! A self-contained deterministic random number generator plus a minimal
//! property-testing harness. The workspace builds offline with zero external
//! dependencies; this crate supplies the two things third-party crates were
//! previously used for:
//!
//! * [`SmallRng`] — a seeded xoshiro256++ generator (Blackman & Vigna) with
//!   the small API surface the workloads and tests actually need;
//! * [`check`] — `forall`-style property execution with per-case seeds, so
//!   failures print a reproducible case number.
//!
//! Determinism is load-bearing: the same seed must produce the same stream
//! on every platform, forever, because experiment tables and regression
//! tests shard by seed.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod check;

/// A small, fast, seedable PRNG: xoshiro256++ with SplitMix64 seeding.
///
/// Not cryptographic. Statistically solid for simulation workloads, 2²⁵⁶−1
/// period, and trivially portable (pure integer arithmetic).
#[derive(Clone, Debug)]
pub struct SmallRng {
    s: [u64; 4],
}

/// SplitMix64 step: advances `state` and returns its next output. Expands
/// seeds into [`SmallRng`] state, and is the workspace's one hash-quality
/// stream for code that draws a few numbers straight from a seed.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl SmallRng {
    /// Builds a generator from a 64-bit seed (SplitMix64 expansion, the
    /// reference seeding procedure — any seed, including 0, is fine).
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = seed;
        SmallRng {
            s: [
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
            ],
        }
    }

    /// The next 64 uniform random bits.
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform `f64` in `[0, 1)` (53 mantissa bits).
    pub fn f64_unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform `f64` in `[lo, hi)`. Requires `lo < hi` and both finite.
    pub fn f64_range(&mut self, lo: f64, hi: f64) -> f64 {
        debug_assert!(lo < hi && lo.is_finite() && hi.is_finite());
        let v = lo + self.f64_unit() * (hi - lo);
        // Guard against rounding up to `hi` when the width underflows.
        if v < hi {
            v
        } else {
            lo
        }
    }

    /// Uniform `f64` in `[lo, hi]`. Requires `lo <= hi` and both finite.
    pub fn f64_range_inclusive(&mut self, lo: f64, hi: f64) -> f64 {
        debug_assert!(lo <= hi && lo.is_finite() && hi.is_finite());
        if lo == hi {
            return lo;
        }
        lo + self.f64_unit() * (hi - lo)
    }

    /// `true` with probability `p` (clamped to `[0, 1]`).
    pub fn bool_with(&mut self, p: f64) -> bool {
        self.f64_unit() < p
    }

    /// Uniform integer in `[0, n)`. Requires `n > 0`. Uses Lemire's
    /// widening-multiply rejection method (unbiased).
    pub fn u64_below(&mut self, n: u64) -> u64 {
        debug_assert!(n > 0);
        loop {
            let x = self.next_u64();
            let m = (x as u128) * (n as u128);
            let lo = m as u64;
            if lo >= n || lo >= n.wrapping_neg() % n {
                return (m >> 64) as u64;
            }
        }
    }

    /// Uniform `usize` in `[lo, hi)`. Requires `lo < hi`.
    pub fn usize_range(&mut self, lo: usize, hi: usize) -> usize {
        debug_assert!(lo < hi);
        lo + self.u64_below((hi - lo) as u64) as usize
    }

    /// A uniformly chosen element of a non-empty slice.
    pub fn choose<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        debug_assert!(!items.is_empty());
        &items[self.usize_range(0, items.len())]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SmallRng::seed_from_u64(7);
        let mut b = SmallRng::seed_from_u64(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = SmallRng::seed_from_u64(8);
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn unit_floats_in_range_and_spread() {
        let mut rng = SmallRng::seed_from_u64(1);
        let mut lo_half = 0usize;
        for _ in 0..10_000 {
            let v = rng.f64_unit();
            assert!((0.0..1.0).contains(&v));
            if v < 0.5 {
                lo_half += 1;
            }
        }
        assert!((4_500..5_500).contains(&lo_half), "biased: {lo_half}");
    }

    #[test]
    fn ranges_respect_bounds() {
        let mut rng = SmallRng::seed_from_u64(2);
        for _ in 0..10_000 {
            let v = rng.f64_range(3.0, 5.0);
            assert!((3.0..5.0).contains(&v));
            let w = rng.f64_range_inclusive(3.0, 5.0);
            assert!((3.0..=5.0).contains(&w));
            let n = rng.u64_below(10);
            assert!(n < 10);
            let i = rng.usize_range(4, 7);
            assert!((4..7).contains(&i));
        }
        assert_eq!(rng.f64_range_inclusive(2.0, 2.0), 2.0);
    }

    #[test]
    fn u64_below_covers_all_residues() {
        let mut rng = SmallRng::seed_from_u64(3);
        let mut seen = [false; 7];
        for _ in 0..1_000 {
            seen[rng.u64_below(7) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "missing residues: {seen:?}");
    }

    #[test]
    fn bool_with_matches_probability() {
        let mut rng = SmallRng::seed_from_u64(4);
        let hits = (0..10_000).filter(|_| rng.bool_with(0.25)).count();
        assert!((2_200..2_800).contains(&hits), "p=0.25 gave {hits}/10000");
    }

    #[test]
    fn choose_hits_every_element() {
        let mut rng = SmallRng::seed_from_u64(5);
        let items = [10, 20, 30];
        let mut seen = [false; 3];
        for _ in 0..200 {
            seen[(rng.choose(&items) / 10 - 1) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }
}
