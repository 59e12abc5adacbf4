//! Time points and durations.
//!
//! The paper's constructions use irrational constants (the golden ratio `φ`,
//! `1 + √2/2`, `1 + √(2/3)`), so exact rational arithmetic buys nothing.
//! Instead [`Time`] and [`Dur`] are thin newtypes over `f64` that enforce
//! *finiteness* at construction, which makes a total order sound. All
//! interval logic in this workspace is half-open (`[s, s + p)`), matching the
//! paper's convention, so equality comparisons only ever happen between
//! values produced by identical arithmetic (e.g. a completion event created
//! as `start + length` compared against itself).

use std::cmp::Ordering;
use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

/// A point in (simulated) time. Finite, totally ordered.
#[derive(Clone, Copy, PartialEq, Default)]
pub struct Time(f64);

/// A duration (difference of two [`Time`]s). Finite, totally ordered, may be
/// negative in intermediate arithmetic but job processing lengths are
/// validated to be strictly positive at [`crate::job::Job`] construction.
#[derive(Clone, Copy, PartialEq, Default)]
pub struct Dur(f64);

macro_rules! impl_finite_newtype {
    ($name:ident) => {
        impl $name {
            /// The zero value.
            pub const ZERO: $name = $name(0.0);

            /// Wraps a raw `f64`.
            ///
            /// # Panics
            /// Panics if `v` is NaN or infinite; finiteness is the invariant
            /// that makes [`Ord`] sound.
            #[inline]
            #[track_caller]
            pub fn new(v: f64) -> Self {
                assert!(
                    v.is_finite(),
                    concat!(stringify!($name), " must be finite, got {}"),
                    v
                );
                Self(v)
            }

            /// The raw `f64` value.
            #[inline]
            pub fn get(self) -> f64 {
                self.0
            }

            /// Element-wise minimum.
            #[inline]
            pub fn min(self, other: Self) -> Self {
                if self <= other {
                    self
                } else {
                    other
                }
            }

            /// Element-wise maximum.
            #[inline]
            pub fn max(self, other: Self) -> Self {
                if self >= other {
                    self
                } else {
                    other
                }
            }
        }

        impl Eq for $name {}

        #[allow(clippy::derive_ord_xor_partial_ord)]
        impl Ord for $name {
            #[inline]
            fn cmp(&self, other: &Self) -> Ordering {
                // Finiteness is enforced at construction, so partial_cmp is
                // total; the fallback is unreachable but keeps this panic-free.
                self.0.partial_cmp(&other.0).unwrap_or(Ordering::Equal)
            }
        }

        impl PartialOrd for $name {
            #[inline]
            fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
                Some(self.cmp(other))
            }
        }

        impl fmt::Debug for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!(stringify!($name), "({})"), self.0)
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                fmt::Display::fmt(&self.0, f)
            }
        }

        impl From<f64> for $name {
            #[inline]
            #[track_caller]
            fn from(v: f64) -> Self {
                Self::new(v)
            }
        }

        impl From<u32> for $name {
            #[inline]
            fn from(v: u32) -> Self {
                Self(v as f64)
            }
        }

        impl From<i32> for $name {
            #[inline]
            fn from(v: i32) -> Self {
                Self(v as f64)
            }
        }
    };
}

impl_finite_newtype!(Time);
impl_finite_newtype!(Dur);

impl Time {
    /// Converts a duration measured from the epoch into a time point.
    #[inline]
    pub fn from_dur(d: Dur) -> Time {
        Time(d.0)
    }
}

impl Dur {
    /// Ratio of two durations.
    ///
    /// Prefer [`Dur::checked_ratio`] when `other` may legitimately be zero
    /// (e.g. degenerate workloads with equal min/max lengths of zero laxity).
    ///
    /// # Panics
    /// Panics if `other` is zero.
    #[inline]
    #[track_caller]
    pub fn ratio(self, other: Dur) -> f64 {
        match self.checked_ratio(other) {
            Some(r) => r,
            None => panic!("division by zero duration"),
        }
    }

    /// Ratio of two durations, or `None` when `other` is zero (the checked
    /// companion of [`Dur::ratio`]). Use this wherever the denominator comes
    /// from data — e.g. `μ = max/min` over a workload whose minimum length
    /// could be arbitrarily small or a degenerate zero.
    #[inline]
    pub fn checked_ratio(self, other: Dur) -> Option<f64> {
        (other.0 != 0.0).then(|| self.0 / other.0)
    }

    /// Whether this duration is strictly positive.
    #[inline]
    pub fn is_positive(self) -> bool {
        self.0 > 0.0
    }
}

impl Add<Dur> for Time {
    type Output = Time;
    #[inline]
    fn add(self, rhs: Dur) -> Time {
        Time::new(self.0 + rhs.0)
    }
}

impl AddAssign<Dur> for Time {
    #[inline]
    fn add_assign(&mut self, rhs: Dur) {
        *self = *self + rhs;
    }
}

impl Sub<Dur> for Time {
    type Output = Time;
    #[inline]
    fn sub(self, rhs: Dur) -> Time {
        Time::new(self.0 - rhs.0)
    }
}

impl SubAssign<Dur> for Time {
    #[inline]
    fn sub_assign(&mut self, rhs: Dur) {
        *self = *self - rhs;
    }
}

impl Sub<Time> for Time {
    type Output = Dur;
    #[inline]
    fn sub(self, rhs: Time) -> Dur {
        Dur::new(self.0 - rhs.0)
    }
}

impl Add for Dur {
    type Output = Dur;
    #[inline]
    fn add(self, rhs: Dur) -> Dur {
        Dur::new(self.0 + rhs.0)
    }
}

impl AddAssign for Dur {
    #[inline]
    fn add_assign(&mut self, rhs: Dur) {
        *self = *self + rhs;
    }
}

impl Sub for Dur {
    type Output = Dur;
    #[inline]
    fn sub(self, rhs: Dur) -> Dur {
        Dur::new(self.0 - rhs.0)
    }
}

impl SubAssign for Dur {
    #[inline]
    fn sub_assign(&mut self, rhs: Dur) {
        *self = *self - rhs;
    }
}

impl Neg for Dur {
    type Output = Dur;
    #[inline]
    fn neg(self) -> Dur {
        Dur::new(-self.0)
    }
}

impl Mul<f64> for Dur {
    type Output = Dur;
    #[inline]
    fn mul(self, rhs: f64) -> Dur {
        Dur::new(self.0 * rhs)
    }
}

impl Mul<Dur> for f64 {
    type Output = Dur;
    #[inline]
    fn mul(self, rhs: Dur) -> Dur {
        Dur::new(self * rhs.0)
    }
}

impl Div<f64> for Dur {
    type Output = Dur;
    #[inline]
    fn div(self, rhs: f64) -> Dur {
        Dur::new(self.0 / rhs)
    }
}

impl std::iter::Sum for Dur {
    fn sum<I: Iterator<Item = Dur>>(iter: I) -> Dur {
        iter.fold(Dur::ZERO, |acc, d| acc + d)
    }
}

/// Convenience constructor for a [`Time`].
#[inline]
#[track_caller]
pub fn t(v: f64) -> Time {
    Time::new(v)
}

/// Convenience constructor for a [`Dur`].
#[inline]
#[track_caller]
pub fn dur(v: f64) -> Dur {
    Dur::new(v)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordering_is_total_on_finite_values() {
        let a = t(1.0);
        let b = t(2.0);
        assert!(a < b);
        assert!(b > a);
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
        assert_eq!(t(3.5), t(3.5));
    }

    #[test]
    #[should_panic(expected = "must be finite")]
    fn nan_time_rejected() {
        let _ = Time::new(f64::NAN);
    }

    #[test]
    #[should_panic(expected = "must be finite")]
    fn infinite_dur_rejected() {
        let _ = Dur::new(f64::INFINITY);
    }

    #[test]
    fn time_dur_arithmetic_roundtrips() {
        let s = t(5.0);
        let p = dur(3.0);
        let e = s + p;
        assert_eq!(e, t(8.0));
        assert_eq!(e - s, p);
        assert_eq!(e - p, s);
    }

    #[test]
    fn dur_scaling_and_ratio() {
        assert_eq!(dur(3.0) * 2.0, dur(6.0));
        assert_eq!(2.0 * dur(3.0), dur(6.0));
        assert_eq!(dur(6.0) / 2.0, dur(3.0));
        assert!((dur(6.0).ratio(dur(3.0)) - 2.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "division by zero")]
    fn zero_ratio_panics() {
        let _ = dur(1.0).ratio(Dur::ZERO);
    }

    #[test]
    fn checked_ratio_guards_zero() {
        assert_eq!(dur(1.0).checked_ratio(Dur::ZERO), None);
        assert_eq!(dur(6.0).checked_ratio(dur(3.0)), Some(2.0));
        assert_eq!(Dur::ZERO.checked_ratio(dur(3.0)), Some(0.0));
    }

    #[test]
    fn sum_of_durs() {
        let total: Dur = [dur(1.0), dur(2.5), dur(0.5)].into_iter().sum();
        assert_eq!(total, dur(4.0));
    }

    #[test]
    fn negative_dur_allowed_in_arithmetic() {
        let d = t(1.0) - t(4.0);
        assert_eq!(d, dur(-3.0));
        assert!(!d.is_positive());
        assert_eq!(-d, dur(3.0));
    }

    #[test]
    fn conversions() {
        assert_eq!(Time::from(3u32), t(3.0));
        assert_eq!(Dur::from(-2i32), dur(-2.0));
        assert_eq!(Time::from_dur(dur(7.0)), t(7.0));
    }
}
