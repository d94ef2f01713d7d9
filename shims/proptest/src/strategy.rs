//! Value-generation strategies: the [`Strategy`] trait and the combinators
//! the workspace uses.

use std::marker::PhantomData;
use std::ops::{Range, RangeInclusive};

use crate::test_runner::TestRng;

/// A recipe for generating values of one type.
pub trait Strategy {
    /// The generated value type.
    type Value;

    /// Generates one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Maps generated values through `f`.
    fn prop_map<O, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> O,
    {
        Map { inner: self, f }
    }

    /// Type-erases the strategy (needed to mix strategy types in
    /// `prop_oneof!`).
    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
    {
        BoxedStrategy(Box::new(self))
    }
}

/// A type-erased strategy.
pub struct BoxedStrategy<V>(Box<dyn Strategy<Value = V>>);

impl<V> Strategy for BoxedStrategy<V> {
    type Value = V;
    fn generate(&self, rng: &mut TestRng) -> V {
        self.0.generate(rng)
    }
}

/// Always generates a clone of the wrapped value.
#[derive(Clone, Debug)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// Types with a canonical "any value" strategy.
pub trait Arbitrary: Sized {
    /// Generates an arbitrary value.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

macro_rules! impl_arbitrary_int {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut TestRng) -> Self {
                rng.next_u64() as $t
            }
        }
    )*};
}

impl_arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> Self {
        rng.next_u64() & 1 == 1
    }
}

/// The strategy returned by [`any`].
pub struct Any<T>(PhantomData<T>);

/// Generates any value of `T` (`any::<u8>()`, ...).
pub fn any<T: Arbitrary>() -> Any<T> {
    Any(PhantomData)
}

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

macro_rules! impl_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                // Span arithmetic in u128 so full-width ranges (e.g.
                // `0u64..=u64::MAX`, span 2^64) never truncate to zero.
                let span = (self.end as u128).wrapping_sub(self.start as u128);
                self.start + ((rng.next_u64() as u128) % span) as $t
            }
        }
        impl Strategy for RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty range strategy");
                let span = hi as u128 - lo as u128 + 1;
                lo + ((rng.next_u64() as u128) % span) as $t
            }
        }
    )*};
}

impl_range_strategy!(u8, u16, u32, u64, usize);

impl Strategy for Range<f64> {
    type Value = f64;
    fn generate(&self, rng: &mut TestRng) -> f64 {
        assert!(self.start < self.end, "empty range strategy");
        self.start + rng.unit_f64() * (self.end - self.start)
    }
}

/// The combinator returned by [`Strategy::prop_map`].
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S, F, O> Strategy for Map<S, F>
where
    S: Strategy,
    F: Fn(S::Value) -> O,
{
    type Value = O;
    fn generate(&self, rng: &mut TestRng) -> O {
        (self.f)(self.inner.generate(rng))
    }
}

macro_rules! impl_tuple_strategy {
    ($(($($s:ident . $idx:tt),+))*) => {$(
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$idx.generate(rng),)+)
            }
        }
    )*};
}

impl_tuple_strategy! {
    (A.0)
    (A.0, B.1)
    (A.0, B.1, C.2)
    (A.0, B.1, C.2, D.3)
    (A.0, B.1, C.2, D.3, E.4)
}

/// Weighted union over strategies of one value type (see `prop_oneof!`).
pub struct Union<V> {
    arms: Vec<(u32, BoxedStrategy<V>)>,
    total_weight: u64,
}

impl<V> Union<V> {
    /// Builds a union; weights must not all be zero.
    pub fn new(arms: Vec<(u32, BoxedStrategy<V>)>) -> Self {
        let total_weight: u64 = arms.iter().map(|(w, _)| *w as u64).sum();
        assert!(
            total_weight > 0,
            "prop_oneof! needs a positive total weight"
        );
        Union { arms, total_weight }
    }
}

impl<V> Strategy for Union<V> {
    type Value = V;
    fn generate(&self, rng: &mut TestRng) -> V {
        let mut roll = rng.below(self.total_weight);
        for (w, strat) in &self.arms {
            if roll < *w as u64 {
                return strat.generate(rng);
            }
            roll -= *w as u64;
        }
        unreachable!("roll below total weight always lands in an arm")
    }
}

/// The size argument accepted by [`vec()`].
#[derive(Clone, Debug)]
pub struct SizeRange {
    lo: usize,
    hi: usize, // exclusive
}

impl From<usize> for SizeRange {
    fn from(n: usize) -> Self {
        SizeRange { lo: n, hi: n + 1 }
    }
}

impl From<Range<usize>> for SizeRange {
    fn from(r: Range<usize>) -> Self {
        assert!(r.start < r.end, "empty vec size range");
        SizeRange {
            lo: r.start,
            hi: r.end,
        }
    }
}

impl From<RangeInclusive<usize>> for SizeRange {
    fn from(r: RangeInclusive<usize>) -> Self {
        SizeRange {
            lo: *r.start(),
            hi: *r.end() + 1,
        }
    }
}

/// The strategy returned by [`vec()`].
pub struct VecStrategy<S> {
    element: S,
    size: SizeRange,
}

/// Generates `Vec`s whose length is drawn from `size` and whose elements
/// come from `element` (mirrors `prop::collection::vec`).
pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
    VecStrategy {
        element,
        size: size.into(),
    }
}

impl<S: Strategy> Strategy for VecStrategy<S> {
    type Value = Vec<S::Value>;
    fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
        let span = (self.size.hi - self.size.lo) as u64;
        let len = self.size.lo + rng.below(span.max(1)) as usize;
        (0..len).map(|_| self.element.generate(rng)).collect()
    }
}

/// The strategy returned by [`option_of`].
pub struct OptionStrategy<S>(S);

/// Generates `None` half the time, `Some` of the inner strategy otherwise
/// (mirrors `prop::option::of`).
pub fn option_of<S: Strategy>(inner: S) -> OptionStrategy<S> {
    OptionStrategy(inner)
}

impl<S: Strategy> Strategy for OptionStrategy<S> {
    type Value = Option<S::Value>;
    fn generate(&self, rng: &mut TestRng) -> Option<S::Value> {
        if rng.next_u64() & 1 == 0 {
            None
        } else {
            Some(self.0.generate(rng))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> TestRng {
        TestRng::for_case("strategy::tests", 0)
    }

    #[test]
    fn ranges_tuples_and_maps_stay_in_bounds() {
        let mut r = rng();
        for _ in 0..500 {
            let v = (3u64..9).generate(&mut r);
            assert!((3..9).contains(&v));
            let (a, b) = (0u8..4, 10usize..=12).generate(&mut r);
            assert!(a < 4 && (10..=12).contains(&b));
            let doubled = (1u32..5).prop_map(|x| x * 2).generate(&mut r);
            assert!(doubled % 2 == 0 && (2..10).contains(&doubled));
            let f = (0.5f64..1.5).generate(&mut r);
            assert!((0.5..1.5).contains(&f));
        }
    }

    #[test]
    fn full_width_inclusive_ranges_do_not_panic() {
        let mut r = rng();
        let mut seen_high_bit = false;
        for _ in 0..64 {
            let v = (0u64..=u64::MAX).generate(&mut r);
            seen_high_bit |= v >= 1 << 63;
            let b = (0u8..=u8::MAX).generate(&mut r);
            let _ = b;
        }
        assert!(
            seen_high_bit,
            "full-width range never produced a high value"
        );
    }

    #[test]
    fn vec_and_option_and_union_cover_their_domains() {
        let mut r = rng();
        let mut saw_none = false;
        let mut saw_some = false;
        let mut arm_hits = [0u32; 2];
        for _ in 0..300 {
            let v = vec(any::<u8>(), 2..5).generate(&mut r);
            assert!((2..5).contains(&v.len()));
            match option_of(1u64..2).generate(&mut r) {
                None => saw_none = true,
                Some(1) => saw_some = true,
                Some(other) => panic!("out of range: {other}"),
            }
            let u = crate::prop_oneof![3 => Just(0usize), 1 => Just(1usize)].generate(&mut r);
            arm_hits[u] += 1;
        }
        assert!(saw_none && saw_some);
        assert!(arm_hits[0] > arm_hits[1], "weighting ignored: {arm_hits:?}");
    }
}
