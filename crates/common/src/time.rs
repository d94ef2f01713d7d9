//! Timestamps, time bounds, time ranges, and the logical clock.
//!
//! The paper assumes a *rollback database* (\[SnAh\], \[McKe\]): every committed
//! version is stamped with the **commit time** of the transaction that wrote
//! it, and values are *stepwise constant* between updates (Figure 1). The
//! absolute scale of timestamps is irrelevant to the structure; what matters
//! is that commit timestamps are monotonically non-decreasing. We therefore
//! use an abstract `u64` logical timestamp issued by [`LogicalClock`].
//!
//! A [`TimeRange`] is the half-open time interval `[lo, hi)` spanned by a
//! TSB-tree node or index entry; current nodes have `hi = +∞`
//! ([`TimeBound::Infinity`]).

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

/// A logical timestamp (transaction commit time).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Timestamp(pub u64);

impl Timestamp {
    /// The smallest timestamp; the initial root's time range starts here.
    pub const ZERO: Timestamp = Timestamp(0);
    /// The largest representable timestamp.
    pub const MAX: Timestamp = Timestamp(u64::MAX);

    /// Creates a timestamp from a raw value.
    pub const fn new(v: u64) -> Self {
        Timestamp(v)
    }

    /// The raw value.
    pub const fn value(&self) -> u64 {
        self.0
    }

    /// The next timestamp (saturating).
    pub const fn next(&self) -> Timestamp {
        Timestamp(self.0.saturating_add(1))
    }

    /// The previous timestamp (saturating).
    pub const fn prev(&self) -> Timestamp {
        Timestamp(self.0.saturating_sub(1))
    }
}

impl fmt::Debug for Timestamp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "T={}", self.0)
    }
}

impl fmt::Display for Timestamp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl From<u64> for Timestamp {
    fn from(v: u64) -> Self {
        Timestamp(v)
    }
}

/// An upper bound on a time range: either a finite timestamp (exclusive) or
/// `+∞` (the node is *current*: it still receives updates).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum TimeBound {
    /// Finite, exclusive upper bound.
    Finite(Timestamp),
    /// The range is open-ended: it covers all times from `lo` onwards.
    Infinity,
}

impl TimeBound {
    /// Returns true if `t < self`.
    pub fn is_above(&self, t: Timestamp) -> bool {
        match self {
            TimeBound::Finite(b) => t < *b,
            TimeBound::Infinity => true,
        }
    }

    /// The finite bound, if any.
    pub fn as_finite(&self) -> Option<Timestamp> {
        match self {
            TimeBound::Finite(t) => Some(*t),
            TimeBound::Infinity => None,
        }
    }

    /// Whether the bound is `+∞`.
    pub fn is_infinite(&self) -> bool {
        matches!(self, TimeBound::Infinity)
    }

    /// `a <= b` where `+∞` is the greatest element.
    pub fn le(a: &TimeBound, b: &TimeBound) -> bool {
        match (a, b) {
            (TimeBound::Infinity, TimeBound::Infinity) => true,
            (TimeBound::Infinity, TimeBound::Finite(_)) => false,
            (TimeBound::Finite(_), TimeBound::Infinity) => true,
            (TimeBound::Finite(x), TimeBound::Finite(y)) => x <= y,
        }
    }
}

impl PartialOrd for TimeBound {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for TimeBound {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        use std::cmp::Ordering;
        match (self, other) {
            (TimeBound::Infinity, TimeBound::Infinity) => Ordering::Equal,
            (TimeBound::Infinity, TimeBound::Finite(_)) => Ordering::Greater,
            (TimeBound::Finite(_), TimeBound::Infinity) => Ordering::Less,
            (TimeBound::Finite(a), TimeBound::Finite(b)) => a.cmp(b),
        }
    }
}

impl fmt::Display for TimeBound {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TimeBound::Finite(t) => write!(f, "{t}"),
            TimeBound::Infinity => write!(f, "+inf"),
        }
    }
}

/// A half-open time interval `[lo, hi)`.
///
/// Current (magnetic-disk) nodes span `[lo, +∞)`; historical nodes produced
/// by a time split at `T` span `[lo, T)`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct TimeRange {
    /// Inclusive lower bound.
    pub lo: Timestamp,
    /// Exclusive upper bound (possibly `+∞`).
    pub hi: TimeBound,
}

impl TimeRange {
    /// The full time axis `[0, +∞)`.
    pub fn full() -> Self {
        TimeRange {
            lo: Timestamp::ZERO,
            hi: TimeBound::Infinity,
        }
    }

    /// Creates `[lo, hi)`.
    pub fn new(lo: Timestamp, hi: TimeBound) -> Self {
        TimeRange { lo, hi }
    }

    /// Creates the open-ended range `[lo, +∞)` of a current node.
    pub fn from(lo: Timestamp) -> Self {
        TimeRange {
            lo,
            hi: TimeBound::Infinity,
        }
    }

    /// Creates a bounded range `[lo, hi)`.
    pub fn bounded(lo: Timestamp, hi: Timestamp) -> Self {
        TimeRange {
            lo,
            hi: TimeBound::Finite(hi),
        }
    }

    /// Whether the range contains time `t`.
    pub fn contains(&self, t: Timestamp) -> bool {
        t >= self.lo && self.hi.is_above(t)
    }

    /// Whether the range is empty.
    pub fn is_empty(&self) -> bool {
        match self.hi {
            TimeBound::Finite(h) => self.lo >= h,
            TimeBound::Infinity => false,
        }
    }

    /// Whether the range is open-ended (`hi = +∞`), i.e. refers to a current
    /// node.
    pub fn is_current(&self) -> bool {
        self.hi.is_infinite()
    }

    /// Whether two ranges overlap.
    pub fn overlaps(&self, other: &TimeRange) -> bool {
        let a_below_d = other.hi.is_above(self.lo);
        let c_below_b = self.hi.is_above(other.lo);
        a_below_d && c_below_b && !self.is_empty() && !other.is_empty()
    }

    /// Whether `other` is entirely contained in `self`.
    pub fn contains_range(&self, other: &TimeRange) -> bool {
        if other.is_empty() {
            return true;
        }
        self.lo <= other.lo && TimeBound::le(&other.hi, &self.hi)
    }

    /// Splits the range at `t`, producing `[lo, t)` and `[t, hi)`.
    ///
    /// Returns `None` if `t` does not lie strictly inside the range.
    pub fn split_at(&self, t: Timestamp) -> Option<(TimeRange, TimeRange)> {
        if t <= self.lo || !self.hi.is_above(t) {
            return None;
        }
        Some((TimeRange::bounded(self.lo, t), TimeRange::new(t, self.hi)))
    }

    /// The intersection of two ranges (possibly empty).
    pub fn intersection(&self, other: &TimeRange) -> TimeRange {
        let lo = self.lo.max(other.lo);
        let hi = if TimeBound::le(&self.hi, &other.hi) {
            self.hi
        } else {
            other.hi
        };
        TimeRange { lo, hi }
    }
}

impl fmt::Display for TimeRange {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}, {})", self.lo, self.hi)
    }
}

/// A monotonic logical clock issuing commit timestamps.
///
/// The clock is shared by the tree and its transaction manager; `tick()`
/// returns a strictly increasing timestamp. The clock is thread-safe so that
/// read-only transactions (§4.1) can take a start timestamp without any
/// coordination with writers.
#[derive(Debug)]
pub struct LogicalClock {
    next: AtomicU64,
}

impl LogicalClock {
    /// Creates a clock whose first tick returns `T=1`.
    pub fn new() -> Self {
        LogicalClock {
            next: AtomicU64::new(1),
        }
    }

    /// Returns the next timestamp and advances the clock.
    pub fn tick(&self) -> Timestamp {
        Timestamp(self.next.fetch_add(1, Ordering::SeqCst))
    }

    /// Returns the timestamp the next `tick()` would produce, without
    /// advancing. Used as "the current time" for WOBT-style splits.
    pub fn now(&self) -> Timestamp {
        Timestamp(self.next.load(Ordering::SeqCst))
    }

    /// Advances the clock so that the next tick is at least `t`.
    ///
    /// Used when reopening a tree whose stored data already contains
    /// timestamps up to `t - 1`.
    pub fn advance_to(&self, t: Timestamp) {
        let mut cur = self.next.load(Ordering::SeqCst);
        while cur < t.0 {
            match self
                .next
                .compare_exchange(cur, t.0, Ordering::SeqCst, Ordering::SeqCst)
            {
                Ok(_) => return,
                Err(actual) => cur = actual,
            }
        }
    }
}

impl Default for LogicalClock {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timestamp_basics() {
        let t = Timestamp::new(5);
        assert_eq!(t.value(), 5);
        assert_eq!(t.next(), Timestamp(6));
        assert_eq!(t.prev(), Timestamp(4));
        assert_eq!(Timestamp::ZERO.prev(), Timestamp::ZERO);
        assert_eq!(Timestamp::MAX.next(), Timestamp::MAX);
        assert_eq!(format!("{t}"), "5");
        assert_eq!(format!("{t:?}"), "T=5");
    }

    #[test]
    fn time_bound_ordering() {
        let a = TimeBound::Finite(Timestamp(3));
        let b = TimeBound::Finite(Timestamp(9));
        let inf = TimeBound::Infinity;
        assert!(a < b && b < inf);
        assert!(TimeBound::le(&a, &a));
        assert!(!TimeBound::le(&inf, &b));
        assert_eq!(inf.as_finite(), None);
        assert_eq!(a.as_finite(), Some(Timestamp(3)));
    }

    #[test]
    fn time_range_contains_and_split() {
        let r = TimeRange::bounded(Timestamp(2), Timestamp(10));
        assert!(r.contains(Timestamp(2)));
        assert!(r.contains(Timestamp(9)));
        assert!(!r.contains(Timestamp(10)));
        assert!(!r.contains(Timestamp(1)));

        let (old, new) = r.split_at(Timestamp(5)).unwrap();
        assert_eq!(old, TimeRange::bounded(Timestamp(2), Timestamp(5)));
        assert_eq!(new, TimeRange::bounded(Timestamp(5), Timestamp(10)));
        assert!(r.split_at(Timestamp(2)).is_none());
        assert!(r.split_at(Timestamp(10)).is_none());

        let cur = TimeRange::from(Timestamp(3));
        assert!(cur.is_current());
        assert!(cur.contains(Timestamp::MAX));
        let (h, c) = cur.split_at(Timestamp(7)).unwrap();
        assert!(!h.is_current());
        assert!(c.is_current());
    }

    #[test]
    fn time_range_overlap_intersection() {
        let a = TimeRange::bounded(Timestamp(0), Timestamp(5));
        let b = TimeRange::bounded(Timestamp(4), Timestamp(9));
        let c = TimeRange::bounded(Timestamp(5), Timestamp(9));
        assert!(a.overlaps(&b));
        assert!(!a.overlaps(&c));
        assert_eq!(
            a.intersection(&b),
            TimeRange::bounded(Timestamp(4), Timestamp(5))
        );
        assert!(a.intersection(&c).is_empty());
        assert!(TimeRange::full().contains_range(&a));
        assert!(!a.contains_range(&TimeRange::full()));
    }

    #[test]
    fn clock_is_monotonic() {
        let c = LogicalClock::new();
        let t1 = c.tick();
        let t2 = c.tick();
        let t3 = c.tick();
        assert!(t1 < t2 && t2 < t3);
        assert_eq!(t1, Timestamp(1));
        assert_eq!(c.now(), Timestamp(4));
        c.advance_to(Timestamp(100));
        assert_eq!(c.tick(), Timestamp(100));
        // advance_to never goes backwards
        c.advance_to(Timestamp(5));
        assert_eq!(c.tick(), Timestamp(101));
    }
}
