//! Half-open intervals `[lo, hi)` and measurable unions of them.
//!
//! The span objective of the paper is `len(⋃_J [s(J), s(J)+p(J)))`; the
//! [`IntervalSet`] type maintains a sorted list of disjoint intervals so that
//! unions and measures are exact (no discretization).

use crate::time::{Dur, Time};
use std::fmt;

/// A half-open time interval `[lo, hi)`. Empty iff `lo >= hi`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Interval {
    lo: Time,
    hi: Time,
}

impl Interval {
    /// Creates `[lo, hi)`.
    ///
    /// # Panics
    /// Panics if `lo > hi`. (Zero-length intervals are allowed and are empty.)
    #[track_caller]
    pub fn new(lo: Time, hi: Time) -> Self {
        assert!(lo <= hi, "interval endpoints out of order: [{lo}, {hi})");
        Interval { lo, hi }
    }

    /// The active interval of a job started at `start` with length `len`.
    #[track_caller]
    pub fn active(start: Time, len: Dur) -> Self {
        Interval::new(start, start + len)
    }

    /// Left endpoint (`I⁻` in the paper).
    #[inline]
    pub fn lo(&self) -> Time {
        self.lo
    }

    /// Right endpoint (`I⁺` in the paper).
    #[inline]
    pub fn hi(&self) -> Time {
        self.hi
    }

    /// `len(I) = I⁺ − I⁻`.
    #[inline]
    pub fn len(&self) -> Dur {
        self.hi - self.lo
    }

    /// Whether the interval is empty (`lo == hi`).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.lo >= self.hi
    }

    /// Whether `t ∈ [lo, hi)`.
    #[inline]
    pub fn contains(&self, t: Time) -> bool {
        self.lo <= t && t < self.hi
    }

    /// Whether `other ⊆ self`.
    #[inline]
    pub fn contains_interval(&self, other: &Interval) -> bool {
        other.is_empty() || (self.lo <= other.lo && other.hi <= self.hi)
    }

    /// Whether the two half-open intervals share a point.
    #[inline]
    pub fn overlaps(&self, other: &Interval) -> bool {
        self.lo < other.hi && other.lo < self.hi
    }

    /// Intersection of two intervals; `None` if disjoint (or touching).
    pub fn intersect(&self, other: &Interval) -> Option<Interval> {
        let lo = self.lo.max(other.lo);
        let hi = self.hi.min(other.hi);
        (lo < hi).then_some(Interval { lo, hi })
    }

    /// Length of the overlap with `other` (zero if disjoint).
    pub fn overlap_len(&self, other: &Interval) -> Dur {
        self.intersect(other).map_or(Dur::ZERO, |i| i.len())
    }
}

impl fmt::Display for Interval {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}, {})", self.lo, self.hi)
    }
}

/// A union of half-open intervals, stored as sorted, disjoint, non-touching,
/// non-empty segments. The measure of the set is the *span* when the
/// segments are job active intervals.
///
/// ```
/// use fjs_core::interval::{Interval, IntervalSet};
/// use fjs_core::time::{t, dur};
///
/// let set: IntervalSet = [
///     Interval::new(t(0.0), t(2.0)),
///     Interval::new(t(1.0), t(3.0)),  // overlaps → merges
///     Interval::new(t(5.0), t(6.0)),  // gap → second segment
/// ].into_iter().collect();
/// assert_eq!(set.num_segments(), 2);
/// assert_eq!(set.measure(), dur(4.0));
/// ```
#[derive(Clone, Default, PartialEq, Eq, Debug)]
pub struct IntervalSet {
    /// Sorted by `lo`; pairwise disjoint with strict gaps between segments.
    segs: Vec<Interval>,
}

impl IntervalSet {
    /// The empty set.
    pub fn new() -> Self {
        IntervalSet::default()
    }

    /// Builds the union of arbitrary intervals.
    pub fn from_intervals<I: IntoIterator<Item = Interval>>(iter: I) -> Self {
        let mut s = IntervalSet::new();
        for iv in iter {
            s.insert(iv);
        }
        s
    }

    /// Inserts (unions) one interval. Amortized `O(log n + k)` where `k` is
    /// the number of segments merged away.
    pub fn insert(&mut self, iv: Interval) {
        if iv.is_empty() {
            return;
        }
        // Find the first segment whose right endpoint reaches iv.lo
        // (touching segments merge: [0,1) ∪ [1,2) = [0,2)).
        let start = self.segs.partition_point(|s| s.hi < iv.lo);
        // Find the first segment strictly to the right of iv (no touching).
        let end = self.segs.partition_point(|s| s.lo <= iv.hi);
        if start == end {
            self.segs.insert(start, iv);
            return;
        }
        let lo = iv.lo.min(self.segs[start].lo);
        let hi = iv.hi.max(self.segs[end - 1].hi);
        self.segs.drain(start + 1..end);
        self.segs[start] = Interval { lo, hi };
    }

    /// Unions another set into this one.
    ///
    /// Bulk two-pointer merge over the two sorted segment lists: `O(n + m)`
    /// total, versus `O(m · (log n + k))` for inserting `other`'s segments
    /// one at a time (each insert may shift the tail of the vector).
    pub fn union_with(&mut self, other: &IntervalSet) {
        if other.segs.is_empty() {
            return;
        }
        if self.segs.is_empty() {
            self.segs.clone_from(&other.segs);
            return;
        }
        // Disjoint fast paths: one set lies strictly past the other (no
        // touching), so the result is plain concatenation.
        if self.segs[self.segs.len() - 1].hi < other.segs[0].lo {
            self.segs.extend_from_slice(&other.segs);
            return;
        }
        if other.segs[other.segs.len() - 1].hi < self.segs[0].lo {
            self.segs.splice(0..0, other.segs.iter().copied());
            return;
        }
        let old = std::mem::take(&mut self.segs);
        let mut merged = Vec::with_capacity(old.len() + other.segs.len());
        let (mut i, mut j) = (0, 0);
        let mut cur: Option<Interval> = None;
        while i < old.len() || j < other.segs.len() {
            let next = if j >= other.segs.len() || (i < old.len() && old[i].lo <= other.segs[j].lo)
            {
                i += 1;
                old[i - 1]
            } else {
                j += 1;
                other.segs[j - 1]
            };
            match cur {
                None => cur = Some(next),
                // Touching segments merge, matching `insert`'s invariant
                // that stored segments have strict gaps between them.
                Some(ref mut c) if next.lo <= c.hi => c.hi = c.hi.max(next.hi),
                Some(c) => {
                    merged.push(c);
                    cur = Some(next);
                }
            }
        }
        if let Some(c) = cur {
            merged.push(c);
        }
        self.segs = merged;
    }

    /// Total measure of the set (`span` when segments are active intervals).
    pub fn measure(&self) -> Dur {
        self.segs.iter().map(|s| s.len()).sum()
    }

    /// Number of maximal contiguous segments.
    pub fn num_segments(&self) -> usize {
        self.segs.len()
    }

    /// The maximal contiguous segments, sorted.
    pub fn segments(&self) -> &[Interval] {
        &self.segs
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.segs.is_empty()
    }

    /// Whether `t` lies in the set.
    pub fn contains(&self, t: Time) -> bool {
        let idx = self.segs.partition_point(|s| s.hi <= t);
        self.segs.get(idx).is_some_and(|s| s.contains(t))
    }

    /// Whether `iv ⊆ self` (as point sets).
    pub fn contains_interval(&self, iv: &Interval) -> bool {
        if iv.is_empty() {
            return true;
        }
        let idx = self.segs.partition_point(|s| s.hi <= iv.lo);
        self.segs.get(idx).is_some_and(|s| s.contains_interval(iv))
    }

    /// The maximal contiguous segment containing `t`, if any.
    ///
    /// This is the `I_S(J)` operation used throughout Section 4 of the paper:
    /// the contiguous busy interval a given active interval falls in.
    pub fn segment_containing(&self, t: Time) -> Option<Interval> {
        let idx = self.segs.partition_point(|s| s.hi <= t);
        self.segs.get(idx).filter(|s| s.contains(t)).copied()
    }

    /// Measure of the intersection of `self` with `iv`.
    ///
    /// `O(log n + k)` where `k` is the number of segments overlapping the
    /// window: binary-search to the first candidate, stop at the first
    /// segment past the window.
    pub fn measure_within(&self, iv: &Interval) -> Dur {
        if iv.is_empty() {
            return Dur::ZERO;
        }
        let start = self.segs.partition_point(|s| s.hi <= iv.lo);
        self.segs[start..]
            .iter()
            .take_while(|s| s.lo < iv.hi)
            .map(|s| s.overlap_len(iv))
            .sum()
    }

    /// Leftmost point of the set, if non-empty.
    pub fn lo(&self) -> Option<Time> {
        self.segs.first().map(|s| s.lo)
    }

    /// Rightmost point of the set, if non-empty.
    pub fn hi(&self) -> Option<Time> {
        self.segs.last().map(|s| s.hi)
    }
}

impl FromIterator<Interval> for IntervalSet {
    fn from_iter<I: IntoIterator<Item = Interval>>(iter: I) -> Self {
        IntervalSet::from_intervals(iter)
    }
}

/// Incremental span for the engine's drive loop, in batch runs and
/// resident sessions alike: a running scalar updated at each busy-interval
/// open/close, replacing an end-of-run `Schedule::busy_set().measure()`
/// pass and holding O(1) state however many jobs stream through.
///
/// Starts arrive at a monotone `now`, so the whole union collapses to *one*
/// current segment `[seg_start, seg_end)` plus a closed total:
///
/// * a start at `now` **merges** into the current segment iff `now <=
///   seg_end` (the exact touching-merge comparison `lo <= hi` that
///   [`IntervalSet::insert`] uses) or some merged job's completion is still
///   unruled (`open > 0`): an unruled running job is guaranteed to cover
///   through any later ruling instant, so the segment cannot have a gap;
/// * otherwise the current segment **closes** (its length is added to the
///   scalar in chronological order, matching the summation order of
///   [`IntervalSet::measure`]) and a new one opens.
///
/// Endpoints are the same `f64` values the interval set would compute
/// (`max` over identical completions, `min` = first chronological start), so
/// the result is bit-identical to [`IntervalSet::measure`] of the
/// schedule's busy intervals. The engine equivalence suite checks that on
/// every completed run it pins, and `prop_running_span_matches_measure`
/// checks it against seeded open/close streams.
#[derive(Clone, Copy, Debug, Default)]
pub struct RunningSpan {
    /// Sum of closed segments, accumulated chronologically.
    closed: Dur,
    seg_start: Time,
    /// Latest known completion within the current segment.
    seg_end: Time,
    has_seg: bool,
    /// Running jobs merged into the current segment whose completion is not
    /// yet known (adaptive lengths before their ruling).
    open: usize,
}

impl RunningSpan {
    /// A fresh span of zero.
    pub fn new() -> Self {
        RunningSpan::default()
    }

    /// Records a job starting at `at` (calls must be monotone in `at`), with
    /// its completion time when already known (fixed or just-ruled lengths)
    /// or `None` while adaptive (close it later with
    /// [`RunningSpan::on_rule`]).
    pub fn on_start(&mut self, at: Time, completion: Option<Time>) {
        if !self.has_seg {
            self.has_seg = true;
            self.seg_start = at;
            self.seg_end = at;
        } else if self.open == 0 && at > self.seg_end {
            // Gap: close the finished segment, open a new one.
            self.closed += self.seg_end - self.seg_start;
            self.seg_start = at;
            self.seg_end = at;
        }
        match completion {
            Some(c) => self.seg_end = self.seg_end.max(c),
            None => self.open += 1,
        }
    }

    /// Resolves the completion of one previously-open start. The job is
    /// necessarily part of the current segment: a segment cannot close while
    /// any of its jobs is still open.
    pub fn on_rule(&mut self, completion: Time) {
        debug_assert!(self.open > 0, "ruling without an open start");
        self.open -= 1;
        self.seg_end = self.seg_end.max(completion);
    }

    /// The total span, provided every start's completion has been resolved;
    /// `None` while any merged job's length is still unruled (callers fall
    /// back to measuring the materialized schedule, as aborted runs must).
    pub fn total_if_resolved(&self) -> Option<Dur> {
        (self.open == 0).then(|| self.total())
    }

    /// The span of every start so far, counting an unruled job only up to
    /// the latest known completion of its segment (exact when
    /// [`RunningSpan::open_starts`] is 0, as it always is for fixed
    /// lengths).
    pub fn total(&self) -> Dur {
        let tail = if self.has_seg {
            self.seg_end - self.seg_start
        } else {
            Dur::ZERO
        };
        self.closed + tail
    }

    /// Segments held: 1 once any job has started (the current segment,
    /// whatever the history), 0 before.
    pub fn live_segments(&self) -> usize {
        usize::from(self.has_seg)
    }

    /// Number of merged starts whose completion is still unknown.
    pub fn open_starts(&self) -> usize {
        self.open
    }
}

impl fmt::Display for IntervalSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, seg) in self.segs.iter().enumerate() {
            if i > 0 {
                write!(f, " ∪ ")?;
            }
            write!(f, "{seg}")?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::{dur, t};

    fn iv(lo: f64, hi: f64) -> Interval {
        Interval::new(t(lo), t(hi))
    }

    #[test]
    fn interval_basics() {
        let i = iv(1.0, 3.0);
        assert_eq!(i.len(), dur(2.0));
        assert!(i.contains(t(1.0)));
        assert!(i.contains(t(2.999)));
        assert!(!i.contains(t(3.0)), "half-open: right endpoint excluded");
        assert!(!i.contains(t(0.999)));
        assert!(!i.is_empty());
        assert!(iv(2.0, 2.0).is_empty());
    }

    #[test]
    #[should_panic(expected = "out of order")]
    fn reversed_interval_panics() {
        let _ = iv(3.0, 1.0);
    }

    #[test]
    fn overlap_semantics_half_open() {
        // Touching half-open intervals do not overlap…
        assert!(!iv(0.0, 1.0).overlaps(&iv(1.0, 2.0)));
        // …but properly intersecting ones do.
        assert!(iv(0.0, 1.5).overlaps(&iv(1.0, 2.0)));
        assert_eq!(iv(0.0, 1.5).overlap_len(&iv(1.0, 2.0)), dur(0.5));
        assert_eq!(iv(0.0, 1.0).overlap_len(&iv(1.0, 2.0)), Dur::ZERO);
    }

    #[test]
    fn intersect() {
        assert_eq!(iv(0.0, 2.0).intersect(&iv(1.0, 3.0)), Some(iv(1.0, 2.0)));
        assert_eq!(iv(0.0, 1.0).intersect(&iv(1.0, 3.0)), None);
        assert_eq!(iv(0.0, 5.0).intersect(&iv(1.0, 3.0)), Some(iv(1.0, 3.0)));
    }

    #[test]
    fn set_merges_touching_segments() {
        let s = IntervalSet::from_intervals([iv(0.0, 1.0), iv(1.0, 2.0)]);
        assert_eq!(s.num_segments(), 1);
        assert_eq!(s.measure(), dur(2.0));
    }

    #[test]
    fn set_keeps_gaps() {
        let s = IntervalSet::from_intervals([iv(0.0, 1.0), iv(2.0, 3.0)]);
        assert_eq!(s.num_segments(), 2);
        assert_eq!(s.measure(), dur(2.0));
        assert!(s.contains(t(0.5)));
        assert!(!s.contains(t(1.5)));
    }

    #[test]
    fn set_insert_merging_many() {
        let mut s = IntervalSet::new();
        s.insert(iv(0.0, 1.0));
        s.insert(iv(4.0, 5.0));
        s.insert(iv(2.0, 3.0));
        assert_eq!(s.num_segments(), 3);
        // Bridge all three.
        s.insert(iv(0.5, 4.5));
        assert_eq!(s.num_segments(), 1);
        assert_eq!(s.measure(), dur(5.0));
        assert_eq!(s.segments()[0], iv(0.0, 5.0));
    }

    #[test]
    fn set_insert_empty_is_noop() {
        let mut s = IntervalSet::new();
        s.insert(iv(1.0, 1.0));
        assert!(s.is_empty());
        assert_eq!(s.measure(), Dur::ZERO);
    }

    #[test]
    fn set_insert_contained() {
        let mut s = IntervalSet::from_intervals([iv(0.0, 10.0)]);
        s.insert(iv(3.0, 4.0));
        assert_eq!(s.num_segments(), 1);
        assert_eq!(s.measure(), dur(10.0));
    }

    #[test]
    fn segment_containing_lookup() {
        let s = IntervalSet::from_intervals([iv(0.0, 1.0), iv(2.0, 5.0)]);
        assert_eq!(s.segment_containing(t(3.0)), Some(iv(2.0, 5.0)));
        assert_eq!(s.segment_containing(t(1.5)), None);
        assert_eq!(
            s.segment_containing(t(1.0)),
            None,
            "right endpoint excluded"
        );
        assert_eq!(s.segment_containing(t(2.0)), Some(iv(2.0, 5.0)));
    }

    #[test]
    fn contains_interval_subset() {
        let s = IntervalSet::from_intervals([iv(0.0, 2.0), iv(3.0, 6.0)]);
        assert!(s.contains_interval(&iv(3.5, 5.0)));
        assert!(s.contains_interval(&iv(0.0, 2.0)));
        assert!(!s.contains_interval(&iv(1.0, 4.0)), "spans a gap");
        assert!(
            s.contains_interval(&iv(9.0, 9.0)),
            "empty interval always contained"
        );
    }

    #[test]
    fn measure_within_window() {
        let s = IntervalSet::from_intervals([iv(0.0, 2.0), iv(3.0, 6.0)]);
        assert_eq!(s.measure_within(&iv(1.0, 4.0)), dur(2.0));
        assert_eq!(s.measure_within(&iv(10.0, 20.0)), Dur::ZERO);
    }

    #[test]
    fn union_with_edge_shapes() {
        // Into empty / with empty.
        let mut a = IntervalSet::new();
        a.union_with(&IntervalSet::from_intervals([iv(1.0, 2.0)]));
        assert_eq!(a.segments(), &[iv(1.0, 2.0)]);
        a.union_with(&IntervalSet::new());
        assert_eq!(a.segments(), &[iv(1.0, 2.0)]);

        // Disjoint fast paths: append and prepend.
        let mut b = IntervalSet::from_intervals([iv(0.0, 1.0)]);
        b.union_with(&IntervalSet::from_intervals([iv(5.0, 6.0), iv(8.0, 9.0)]));
        assert_eq!(b.num_segments(), 3);
        let mut c = IntervalSet::from_intervals([iv(10.0, 11.0)]);
        c.union_with(&IntervalSet::from_intervals([iv(0.0, 1.0), iv(2.0, 3.0)]));
        assert_eq!(c.segments(), &[iv(0.0, 1.0), iv(2.0, 3.0), iv(10.0, 11.0)]);

        // Touching across the two sets must merge (same rule as insert).
        let mut d = IntervalSet::from_intervals([iv(0.0, 1.0), iv(3.0, 4.0)]);
        d.union_with(&IntervalSet::from_intervals([iv(1.0, 3.0)]));
        assert_eq!(d.segments(), &[iv(0.0, 4.0)]);

        // Interleaved with containment and bridging.
        let mut e = IntervalSet::from_intervals([iv(0.0, 2.0), iv(4.0, 6.0), iv(9.0, 10.0)]);
        e.union_with(&IntervalSet::from_intervals([iv(1.0, 5.0), iv(6.5, 7.0)]));
        assert_eq!(e.segments(), &[iv(0.0, 6.0), iv(6.5, 7.0), iv(9.0, 10.0)]);
        assert_eq!(e.measure(), dur(7.5));
    }

    #[test]
    fn measure_within_matches_full_scan() {
        let s =
            IntervalSet::from_intervals((0..40).map(|k| iv(k as f64 * 3.0, k as f64 * 3.0 + 1.5)));
        for (lo, hi) in [
            (0.0, 0.0),
            (2.0, 2.5),
            (0.75, 50.25),
            (119.0, 300.0),
            (-5.0, 500.0),
        ] {
            let w = iv(lo, hi);
            let naive: Dur = s.segments().iter().map(|g| g.overlap_len(&w)).sum();
            assert_eq!(s.measure_within(&w), naive, "window [{lo}, {hi})");
        }
    }

    #[test]
    fn union_with_other_set() {
        let mut a = IntervalSet::from_intervals([iv(0.0, 1.0)]);
        let b = IntervalSet::from_intervals([iv(0.5, 2.0), iv(5.0, 6.0)]);
        a.union_with(&b);
        assert_eq!(a.num_segments(), 2);
        assert_eq!(a.measure(), dur(3.0));
        assert_eq!(a.lo(), Some(t(0.0)));
        assert_eq!(a.hi(), Some(t(6.0)));
    }

    /// The engine-shaped differential property: over seeded streams of
    /// monotone starts — fixed completions, re-entrant overlaps, and
    /// adaptive starts whose completions are ruled later — the running
    /// scalar must equal [`IntervalSet::measure`] over every interval ever
    /// opened, *exactly*, whenever all completions are resolved.
    #[test]
    fn prop_running_span_matches_measure() {
        use fjs_prng::check::forall_seeded;
        // Quarter-unit grid, as above: exact f64 arithmetic everywhere, so
        // equality below is bitwise, not approximate.
        let q = |x: f64| (x * 4.0).round() / 4.0;
        forall_seeded(0x59a7_0a01, 96, move |rng| {
            let mut span = RunningSpan::new();
            let mut reference = IntervalSet::new();
            // Start times of adaptive opens whose completion is unruled.
            let mut open: Vec<f64> = Vec::new();
            let mut now = 0.0f64;
            let steps = 1 + rng.u64_below(100) as usize;
            for _ in 0..steps {
                if !open.is_empty() && rng.bool_with(0.4) {
                    // Rule one open start. The engine validates completions
                    // against the ruling instant (`completion >= now`), and
                    // `now` has passed every start merged meanwhile — the
                    // exact guarantee that lets an open job hold its segment
                    // together across re-entrant overlaps.
                    let k = rng.usize_range(0, open.len());
                    let start = open.swap_remove(k);
                    now += q(rng.f64_range(0.0, 2.0));
                    let hi = (start + 0.25).max(now) + q(rng.f64_range(0.0, 4.0));
                    span.on_rule(t(hi));
                    reference.insert(Interval::new(t(start), t(hi)));
                } else {
                    now += q(rng.f64_range(0.0, 6.0));
                    let s = now;
                    let len = q(rng.f64_range_inclusive(0.25, 6.0));
                    if rng.bool_with(0.3) {
                        // Adaptive: completion revealed at a later ruling.
                        span.on_start(t(s), None);
                        open.push(s);
                    } else {
                        span.on_start(t(s), Some(t(s + len)));
                        reference.insert(Interval::new(t(s), t(s + len)));
                    }
                }
                assert_eq!(span.open_starts(), open.len());
                if open.is_empty() {
                    assert_eq!(
                        span.total_if_resolved(),
                        Some(reference.measure()),
                        "running span diverged at now={now}"
                    );
                } else {
                    assert_eq!(span.total_if_resolved(), None);
                }
            }
            // Resolve every remaining open start, then the two agree.
            while let Some(start) = open.pop() {
                let hi = (start + 0.25).max(now) + q(rng.f64_range(0.0, 4.0));
                span.on_rule(t(hi));
                reference.insert(Interval::new(t(start), t(hi)));
            }
            assert_eq!(span.total_if_resolved(), Some(reference.measure()));
        });
    }

    #[test]
    fn running_span_merges_touching_and_counts_gaps() {
        let mut span = RunningSpan::new();
        span.on_start(t(0.0), Some(t(2.0)));
        span.on_start(t(2.0), Some(t(3.0))); // touching: [0,3)
        span.on_start(t(5.0), Some(t(6.0))); // gap: closes [0,3)
        assert_eq!(span.total_if_resolved(), Some(dur(4.0)));
    }

    #[test]
    fn running_span_open_start_holds_segment_open() {
        let mut span = RunningSpan::new();
        span.on_start(t(0.0), None);
        // Far-later start: would be a gap if the adaptive job's reach were
        // known, but while open the segment cannot close.
        span.on_start(t(10.0), Some(t(11.0)));
        assert_eq!(span.total_if_resolved(), None);
        span.on_rule(t(12.0)); // the adaptive job ran [0,12) — one segment
        assert_eq!(span.total_if_resolved(), Some(dur(12.0)));
    }

    #[test]
    fn running_span_empty_is_zero() {
        assert_eq!(RunningSpan::new().total_if_resolved(), Some(Dur::ZERO));
    }
}
