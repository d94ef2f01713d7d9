//! One half-open interval type for both axes of a node's rectangle.
//!
//! Every TSB-tree node spans a key range crossed with a time range (§3.5),
//! and both are the same shape: an inclusive lower point and an exclusive
//! upper bound that may be `+∞`. [`Interval`] is that shape over any totally
//! ordered point type and [`UpperBound`] its upper end; [`crate::KeyRange`]
//! and [`crate::TimeRange`] are the two instances, so the split rules of
//! §3.1 and §3.5 — one three-way rule on either axis — are written once
//! against one set of interval operations.

use std::borrow::Borrow;
use std::fmt;

/// An upper bound: a finite, exclusive point or `+∞`. `+∞` sorts above
/// every finite bound.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum UpperBound<T> {
    /// A finite, exclusive upper bound.
    Finite(T),
    /// No upper bound: the interval runs to the end of its axis. On the
    /// time axis this is what makes a node *current*.
    PlusInfinity,
}

impl<T: Ord> UpperBound<T> {
    /// Whether `point < self` (the point lies below this bound).
    pub fn is_above(&self, point: impl Borrow<T>) -> bool {
        match self {
            UpperBound::Finite(b) => point.borrow() < b,
            UpperBound::PlusInfinity => true,
        }
    }

    /// The finite bound, if any.
    pub fn as_finite(&self) -> Option<&T> {
        match self {
            UpperBound::Finite(b) => Some(b),
            UpperBound::PlusInfinity => None,
        }
    }

    /// Whether this bound is `+∞`.
    pub fn is_infinite(&self) -> bool {
        matches!(self, UpperBound::PlusInfinity)
    }
}

impl<T: fmt::Display> fmt::Display for UpperBound<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UpperBound::Finite(b) => write!(f, "{b}"),
            UpperBound::PlusInfinity => write!(f, "+inf"),
        }
    }
}

/// A half-open interval `[lo, hi)` of one axis of the key × time plane.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct Interval<T> {
    /// Inclusive lower bound.
    pub lo: T,
    /// Exclusive upper bound (possibly `+∞`).
    pub hi: UpperBound<T>,
}

impl<T: Ord + Clone> Interval<T> {
    /// Creates `[lo, hi)`.
    pub fn new(lo: T, hi: UpperBound<T>) -> Self {
        Interval { lo, hi }
    }

    /// Creates a bounded interval `[lo, hi)` from two finite points.
    pub fn bounded(lo: impl Into<T>, hi: impl Into<T>) -> Self {
        Interval::new(lo.into(), UpperBound::Finite(hi.into()))
    }

    /// The whole axis: from its least point (the paper's "minus infinity"
    /// key, or time 0) to `+∞`.
    pub fn full() -> Self
    where
        T: Default,
    {
        Interval::new(T::default(), UpperBound::PlusInfinity)
    }

    /// Whether the interval contains `point`.
    pub fn contains(&self, point: impl Borrow<T>) -> bool {
        let point = point.borrow();
        *point >= self.lo && self.hi.is_above(point)
    }

    /// Whether the interval is empty (`lo >= hi`).
    pub fn is_empty(&self) -> bool {
        !self.hi.is_above(&self.lo)
    }

    /// Whether `split` lies strictly inside the interval (`lo < split < hi`).
    ///
    /// On the key axis this is the Index Node Keyspace Split Rule's item 4:
    /// entries whose key range *strictly includes* the split value are
    /// copied to both new index nodes.
    pub fn strictly_contains(&self, split: impl Borrow<T>) -> bool {
        let split = split.borrow();
        self.lo < *split && self.hi.is_above(split)
    }

    /// Whether the interval lies entirely below `split` (`hi <= split`):
    /// the low side of a split.
    pub fn entirely_below(&self, split: impl Borrow<T>) -> bool {
        !self.hi.is_above(split)
    }

    /// Whether the interval lies entirely at or above `split`
    /// (`lo >= split`): the high side of a split.
    pub fn entirely_at_or_above(&self, split: impl Borrow<T>) -> bool {
        self.lo >= *split.borrow()
    }

    /// Whether the two intervals share a point.
    pub fn overlaps(&self, other: &Self) -> bool {
        // [a, b) and [c, d) overlap iff a < d and c < b.
        other.hi.is_above(&self.lo)
            && self.hi.is_above(&other.lo)
            && !self.is_empty()
            && !other.is_empty()
    }

    /// Whether `other` lies entirely inside `self`.
    pub fn contains_range(&self, other: &Self) -> bool {
        other.is_empty() || (self.lo <= other.lo && other.hi <= self.hi)
    }

    /// Splits the interval at `split` into `[lo, split)` and `[split, hi)`.
    ///
    /// Returns `None` if `split` does not lie strictly inside the interval
    /// (a split there would leave an empty half).
    pub fn split_at(&self, split: impl Borrow<T>) -> Option<(Self, Self)> {
        let split = split.borrow();
        self.strictly_contains(split).then(|| {
            (
                Interval::new(self.lo.clone(), UpperBound::Finite(split.clone())),
                Interval::new(split.clone(), self.hi.clone()),
            )
        })
    }

    /// The intersection of two intervals (possibly empty).
    pub fn intersection(&self, other: &Self) -> Self {
        Interval::new(
            (&self.lo).max(&other.lo).clone(),
            (&self.hi).min(&other.hi).clone(),
        )
    }
}

impl<T: fmt::Display> fmt::Display for Interval<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}, {})", self.lo, self.hi)
    }
}
