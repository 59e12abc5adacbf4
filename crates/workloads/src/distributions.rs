//! Primitive distributions used by the workload generator: arrival
//! processes, processing-length laws and laxity models.
//!
//! Everything is seeded and deterministic: the same `(spec, seed)` always
//! yields the same instance, which keeps experiments reproducible and lets
//! parallel sweeps shard by seed.

use fjs_prng::SmallRng;

/// How job arrival times are produced.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum ArrivalProcess {
    /// Poisson process with the given rate (mean inter-arrival `1/rate`).
    Poisson {
        /// Arrivals per unit time (`> 0`).
        rate: f64,
    },
    /// Evenly spaced arrivals with the given gap.
    Uniform {
        /// Gap between consecutive arrivals (`>= 0`).
        gap: f64,
    },
    /// Bursts of `burst_size` simultaneous arrivals separated by
    /// exponential gaps of mean `1/rate`.
    Bursty {
        /// Jobs per burst (`>= 1`).
        burst_size: usize,
        /// Bursts per unit time (`> 0`).
        rate: f64,
    },
    /// Non-homogeneous Poisson with sinusoidal intensity
    /// `rate(t) = base_rate · (1 + amplitude · sin(2πt/period))` — the
    /// classic diurnal cloud-submission pattern. Sampled by thinning.
    Diurnal {
        /// Mean arrival rate (`> 0`).
        base_rate: f64,
        /// Relative swing (`0..=1`; 1 means the trough reaches zero).
        amplitude: f64,
        /// Cycle length (`> 0`).
        period: f64,
    },
}

impl ArrivalProcess {
    /// Generates `n` nondecreasing arrival times starting at 0.
    pub fn sample(&self, n: usize, rng: &mut SmallRng) -> Vec<f64> {
        let mut out = Vec::with_capacity(n);
        match *self {
            ArrivalProcess::Poisson { rate } => {
                assert!(rate > 0.0, "Poisson rate must be positive");
                let mut t = 0.0;
                for _ in 0..n {
                    // Inverse-CDF exponential; guard the log away from 0.
                    let u: f64 = rng.f64_range(f64::EPSILON, 1.0);
                    t += -u.ln() / rate;
                    out.push(t);
                }
            }
            ArrivalProcess::Uniform { gap } => {
                assert!(gap >= 0.0, "gap must be nonnegative");
                for i in 0..n {
                    out.push(i as f64 * gap);
                }
            }
            ArrivalProcess::Bursty { burst_size, rate } => {
                assert!(burst_size >= 1, "bursts need at least one job");
                assert!(rate > 0.0, "burst rate must be positive");
                let mut t = 0.0;
                while out.len() < n {
                    let u: f64 = rng.f64_range(f64::EPSILON, 1.0);
                    t += -u.ln() / rate;
                    for _ in 0..burst_size.min(n - out.len()) {
                        out.push(t);
                    }
                }
            }
            ArrivalProcess::Diurnal {
                base_rate,
                amplitude,
                period,
            } => {
                assert!(base_rate > 0.0, "base rate must be positive");
                assert!(
                    (0.0..=1.0).contains(&amplitude),
                    "amplitude must be in [0, 1]"
                );
                assert!(period > 0.0, "period must be positive");
                // Thinning against the envelope rate base·(1+amplitude).
                let envelope = base_rate * (1.0 + amplitude);
                let mut t = 0.0;
                while out.len() < n {
                    let u: f64 = rng.f64_range(f64::EPSILON, 1.0);
                    t += -u.ln() / envelope;
                    let rate =
                        base_rate * (1.0 + amplitude * (std::f64::consts::TAU * t / period).sin());
                    if rng.f64_range(0.0, 1.0) * envelope <= rate {
                        out.push(t);
                    }
                }
            }
        }
        out
    }
}

/// How processing lengths are produced.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum LengthLaw {
    /// All jobs share one length.
    Fixed {
        /// The common length (`> 0`).
        value: f64,
    },
    /// Uniform on `[min, max]`.
    Uniform {
        /// Smallest length (`> 0`).
        min: f64,
        /// Largest length (`>= min`).
        max: f64,
    },
    /// Bounded Pareto on `[min, max]` with tail index `shape` — the classic
    /// heavy-tailed job-size model for cloud/batch workloads.
    BoundedPareto {
        /// Smallest length (`> 0`).
        min: f64,
        /// Largest length (`> min`).
        max: f64,
        /// Tail index (`> 0`); smaller = heavier tail.
        shape: f64,
    },
    /// Two-point mixture: `short` with probability `1 − p_long`, else
    /// `long` — matches the paper's short/long adversarial flavor.
    Bimodal {
        /// Short length (`> 0`).
        short: f64,
        /// Long length (`>= short`).
        long: f64,
        /// Probability of a long job (`0..=1`).
        p_long: f64,
    },
}

impl LengthLaw {
    /// Draws one length.
    pub fn sample(&self, rng: &mut SmallRng) -> f64 {
        match *self {
            LengthLaw::Fixed { value } => {
                assert!(value > 0.0, "length must be positive");
                value
            }
            LengthLaw::Uniform { min, max } => {
                assert!(min > 0.0 && max >= min, "need 0 < min <= max");
                if min == max {
                    min
                } else {
                    rng.f64_range_inclusive(min, max)
                }
            }
            LengthLaw::BoundedPareto { min, max, shape } => {
                assert!(
                    min > 0.0 && max > min && shape > 0.0,
                    "invalid bounded Pareto"
                );
                // Inverse CDF of the bounded Pareto.
                let u: f64 = rng.f64_range(0.0, 1.0);
                let lo_a = min.powf(-shape);
                let hi_a = max.powf(-shape);
                (lo_a - u * (lo_a - hi_a)).powf(-1.0 / shape)
            }
            LengthLaw::Bimodal {
                short,
                long,
                p_long,
            } => {
                assert!(short > 0.0 && long >= short, "need 0 < short <= long");
                assert!(
                    (0.0..=1.0).contains(&p_long),
                    "p_long must be a probability"
                );
                if rng.bool_with(p_long) {
                    long
                } else {
                    short
                }
            }
        }
    }
}

/// How laxities (deadline minus arrival) are produced.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum LaxityModel {
    /// All jobs are rigid (`d = a`), the model of prior busy-time work.
    Rigid,
    /// Constant laxity.
    Constant {
        /// The common laxity (`>= 0`).
        value: f64,
    },
    /// Laxity proportional to the job's own length: `factor · p`.
    Proportional {
        /// Multiplier (`>= 0`).
        factor: f64,
    },
    /// Uniform on `[min, max]`.
    Uniform {
        /// Smallest laxity (`>= 0`).
        min: f64,
        /// Largest laxity (`>= min`).
        max: f64,
    },
}

impl LaxityModel {
    /// Draws one laxity for a job of length `p`.
    pub fn sample(&self, p: f64, rng: &mut SmallRng) -> f64 {
        match *self {
            LaxityModel::Rigid => 0.0,
            LaxityModel::Constant { value } => {
                assert!(value >= 0.0, "laxity must be nonnegative");
                value
            }
            LaxityModel::Proportional { factor } => {
                assert!(factor >= 0.0, "laxity factor must be nonnegative");
                factor * p
            }
            LaxityModel::Uniform { min, max } => {
                assert!(min >= 0.0 && max >= min, "need 0 <= min <= max");
                if min == max {
                    min
                } else {
                    rng.f64_range_inclusive(min, max)
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fjs_prng::SmallRng;

    fn rng() -> SmallRng {
        SmallRng::seed_from_u64(42)
    }

    #[test]
    fn poisson_arrivals_increase() {
        let a = ArrivalProcess::Poisson { rate: 2.0 }.sample(100, &mut rng());
        assert_eq!(a.len(), 100);
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        assert!(a[0] > 0.0);
        // Mean inter-arrival ≈ 0.5 → a[99] ≈ 50 within loose bounds.
        assert!(a[99] > 20.0 && a[99] < 110.0, "total time {}", a[99]);
    }

    #[test]
    fn uniform_arrivals_are_evenly_spaced() {
        let a = ArrivalProcess::Uniform { gap: 3.0 }.sample(4, &mut rng());
        assert_eq!(a, vec![0.0, 3.0, 6.0, 9.0]);
    }

    #[test]
    fn bursty_arrivals_cluster() {
        let a = ArrivalProcess::Bursty {
            burst_size: 5,
            rate: 1.0,
        }
        .sample(12, &mut rng());
        assert_eq!(a.len(), 12);
        // First five identical, next five identical.
        assert!(a[0..5].iter().all(|&t| t == a[0]));
        assert!(a[5..10].iter().all(|&t| t == a[5]));
        assert!(a[5] > a[0]);
    }

    #[test]
    fn diurnal_arrivals_cluster_in_peaks() {
        let proc = ArrivalProcess::Diurnal {
            base_rate: 2.0,
            amplitude: 1.0,
            period: 20.0,
        };
        let a = proc.sample(2000, &mut rng());
        assert_eq!(a.len(), 2000);
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        // Count arrivals in peak phases (sin > 0) vs trough phases: peaks
        // must dominate clearly with amplitude 1.
        let (mut peak, mut trough) = (0usize, 0usize);
        for &t in &a {
            let phase = (std::f64::consts::TAU * t / 20.0).sin();
            if phase > 0.0 {
                peak += 1;
            } else {
                trough += 1;
            }
        }
        assert!(
            peak > 2 * trough,
            "expected strong diurnal skew, got peak {peak} vs trough {trough}"
        );
    }

    #[test]
    fn bounded_pareto_respects_bounds() {
        let law = LengthLaw::BoundedPareto {
            min: 1.0,
            max: 100.0,
            shape: 1.1,
        };
        let mut r = rng();
        for _ in 0..1000 {
            let p = law.sample(&mut r);
            assert!((1.0..=100.0).contains(&p), "out of range: {p}");
        }
    }

    #[test]
    fn bounded_pareto_is_heavy_tailed() {
        // Most mass near min for shape > 1.
        let law = LengthLaw::BoundedPareto {
            min: 1.0,
            max: 1000.0,
            shape: 1.5,
        };
        let mut r = rng();
        let below_10 = (0..2000).filter(|_| law.sample(&mut r) < 10.0).count();
        assert!(
            below_10 > 1800,
            "expected >90% below 10, got {below_10}/2000"
        );
    }

    #[test]
    fn bimodal_mixture_frequencies() {
        let law = LengthLaw::Bimodal {
            short: 1.0,
            long: 8.0,
            p_long: 0.25,
        };
        let mut r = rng();
        let longs = (0..4000).filter(|_| law.sample(&mut r) == 8.0).count();
        assert!(
            (800..1200).contains(&longs),
            "expected ≈1000 longs, got {longs}"
        );
    }

    #[test]
    fn uniform_length_range() {
        let law = LengthLaw::Uniform { min: 2.0, max: 5.0 };
        let mut r = rng();
        for _ in 0..200 {
            let p = law.sample(&mut r);
            assert!((2.0..=5.0).contains(&p));
        }
        // Degenerate range works.
        assert_eq!(
            LengthLaw::Uniform { min: 3.0, max: 3.0 }.sample(&mut r),
            3.0
        );
    }

    #[test]
    fn laxity_models() {
        let mut r = rng();
        assert_eq!(LaxityModel::Rigid.sample(5.0, &mut r), 0.0);
        assert_eq!(
            LaxityModel::Constant { value: 2.0 }.sample(5.0, &mut r),
            2.0
        );
        assert_eq!(
            LaxityModel::Proportional { factor: 0.5 }.sample(6.0, &mut r),
            3.0
        );
        let l = LaxityModel::Uniform { min: 1.0, max: 4.0 }.sample(5.0, &mut r);
        assert!((1.0..=4.0).contains(&l));
    }
}
