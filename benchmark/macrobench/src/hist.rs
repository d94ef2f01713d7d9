//! Fixed log-bucket latency histogram: 64 buckets per octave (steps of about
//! 1 %), no allocation on record, quantiles interpolated inside a bucket so
//! that a reported percentile moves smoothly instead of jumping between
//! bucket edges.

const SUB_BITS: u32 = 6;
const SUB: u64 = 1 << SUB_BITS;
/// Values up to 2^40 ns (18 minutes) are distinguished; larger ones clamp.
const OCTAVES: u64 = 40 - SUB_BITS as u64;
const BUCKETS: usize = (SUB * (OCTAVES + 1)) as usize;

#[derive(Clone)]
pub struct Histogram {
    counts: Vec<u64>,
    total: u64,
}

fn bucket_of(v: u64) -> usize {
    if v < SUB {
        return v as usize;
    }
    let msb = 63 - v.leading_zeros();
    let octave = (msb - SUB_BITS + 1) as u64;
    let sub = (v >> (msb - SUB_BITS)) - SUB;
    ((octave * SUB + sub) as usize).min(BUCKETS - 1)
}

/// The half-open value range `[lo, hi)` bucket `b` covers.
fn bucket_bounds(b: usize) -> (u64, u64) {
    let (octave, sub) = (b as u64 / SUB, b as u64 % SUB);
    if octave == 0 {
        return (sub, sub + 1);
    }
    let width = 1u64 << (octave - 1);
    let lo = (SUB + sub) * width;
    (lo, lo + width)
}

impl Histogram {
    pub fn new() -> Histogram {
        Histogram {
            counts: vec![0; BUCKETS],
            total: 0,
        }
    }

    pub fn record(&mut self, nanos: u64) {
        self.counts[bucket_of(nanos)] += 1;
        self.total += 1;
    }

    pub fn count(&self) -> u64 {
        self.total
    }

    pub fn merge(&mut self, other: &Histogram) {
        for (mine, theirs) in self.counts.iter_mut().zip(&other.counts) {
            *mine += theirs;
        }
        self.total += other.total;
    }

    /// The `q`-quantile in nanoseconds (0 when empty).
    pub fn quantile(&self, q: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let rank = q.clamp(0.0, 1.0) * (self.total - 1) as f64;
        let mut below = 0u64;
        for (b, &n) in self.counts.iter().enumerate() {
            if n > 0 && rank < (below + n) as f64 {
                let (lo, hi) = bucket_bounds(b);
                let frac = (rank - below as f64 + 0.5) / n as f64;
                return lo as f64 + frac * (hi - lo) as f64;
            }
            below += n;
        }
        bucket_bounds(BUCKETS - 1).1 as f64
    }

    /// The `q`-quantile in microseconds.
    pub fn quantile_us(&self, q: f64) -> f64 {
        self.quantile(q) / 1000.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::Rng;

    #[test]
    fn buckets_tile_the_value_axis() {
        let mut expected_lo = 0;
        for b in 0..BUCKETS {
            let (lo, hi) = bucket_bounds(b);
            assert_eq!(lo, expected_lo, "bucket {b}");
            assert_eq!(bucket_of(lo), b);
            assert_eq!(bucket_of(hi - 1), b);
            expected_lo = hi;
        }
        assert_eq!(bucket_of(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn quantiles_track_a_sorted_vector_within_one_bucket_step() {
        let mut rng = Rng::new(5, 0);
        let mut h = Histogram::new();
        // Log-uniform from 1 µs to ~1 s, like real latencies.
        let mut exact: Vec<u64> = (0..50_000)
            .map(|_| (1000.0 * (rng.unit() * 13.8).exp()) as u64)
            .collect();
        for &v in &exact {
            h.record(v);
        }
        exact.sort_unstable();
        for q in [0.0, 0.5, 0.9, 0.99, 0.999, 1.0] {
            let want = exact[(q * (exact.len() - 1) as f64).round() as usize] as f64;
            let got = h.quantile(q);
            assert!(
                (got - want).abs() <= want * 0.02 + 1.0,
                "q{q}: {got} vs {want}"
            );
        }
        assert_eq!(h.count(), 50_000);
    }

    #[test]
    fn merge_adds_counts() {
        let (mut a, mut b) = (Histogram::new(), Histogram::new());
        a.record(10);
        b.record(1_000_000);
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert!(a.quantile(1.0) > 900_000.0);
        assert_eq!(Histogram::new().quantile(0.5), 0.0);
    }
}
