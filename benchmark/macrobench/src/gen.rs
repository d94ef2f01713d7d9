//! Deterministic input generation: a splitmix64 stream, a Zipf sampler and
//! the `(key, seq) -> value` derivation that lets any reply be checked
//! without storing a single value.

/// Bytes in every value the benchmark writes.
pub const VALUE_LEN: usize = 100;
/// Bytes in every key (`Key::from_u64`).
pub const KEY_LEN: usize = 8;

/// One splitmix64 step: advances `state` and returns the next output.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A seeded random stream (splitmix64; the harness may not depend on `rand`).
pub struct Rng(u64);

impl Rng {
    /// Stream `stream` of seed `seed`: distinct streams never share state.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut s = seed ^ stream.wrapping_mul(0xD6E8_FEB8_6659_FD93);
        splitmix64(&mut s);
        Rng(s)
    }

    pub fn next_u64(&mut self) -> u64 {
        splitmix64(&mut self.0)
    }

    /// Uniform in `0..n` (`n > 0`), by multiply-shift.
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// The 100-byte value of version `seq` (1-based) of `key`.
pub fn value_for(key: u64, seq: u32) -> Vec<u8> {
    let mut state = key.rotate_left(32) ^ seq as u64;
    let mut out = Vec::with_capacity(VALUE_LEN);
    while out.len() < VALUE_LEN {
        let word = splitmix64(&mut state).to_le_bytes();
        let take = word.len().min(VALUE_LEN - out.len());
        out.extend_from_slice(&word[..take]);
    }
    out
}

/// Whether `bytes` is exactly [`value_for`]`(key, seq)`, without allocating.
pub fn value_matches(key: u64, seq: u32, bytes: &[u8]) -> bool {
    if bytes.len() != VALUE_LEN {
        return false;
    }
    let mut state = key.rotate_left(32) ^ seq as u64;
    bytes.chunks(8).all(|chunk| {
        let word = splitmix64(&mut state).to_le_bytes();
        chunk == &word[..chunk.len()]
    })
}

/// Zipf-distributed ranks over `0..n` with exponent `theta` (Gray et al.,
/// "Quickly generating billion-record synthetic databases", as in YCSB).
pub struct Zipf {
    n: u64,
    theta: f64,
    alpha: f64,
    zetan: f64,
    eta: f64,
}

impl Zipf {
    pub fn new(n: u64, theta: f64) -> Zipf {
        let zeta = |m: u64| (1..=m).map(|i| (i as f64).powf(-theta)).sum::<f64>();
        let zetan = zeta(n);
        let eta = (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta(2) / zetan);
        Zipf {
            n,
            theta,
            alpha: 1.0 / (1.0 - theta),
            zetan,
            eta,
        }
    }

    /// The next rank; rank 0 is the most popular.
    pub fn sample(&self, rng: &mut Rng) -> u64 {
        let u = rng.unit();
        let uz = u * self.zetan;
        if uz < 1.0 {
            return 0;
        }
        if uz < 1.0 + 0.5f64.powf(self.theta) {
            return 1;
        }
        let rank = (self.n as f64 * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as u64;
        rank.min(self.n - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix64_matches_the_reference_vector() {
        // First outputs of the reference implementation seeded with 0.
        let mut s = 0u64;
        assert_eq!(splitmix64(&mut s), 0xE220_A839_7B1D_CDAF);
        assert_eq!(splitmix64(&mut s), 0x6E78_9E6A_A1B9_65F4);
    }

    #[test]
    fn streams_are_deterministic_and_distinct() {
        let a: Vec<u64> = {
            let mut r = Rng::new(42, 0);
            (0..8).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = Rng::new(42, 0);
            (0..8).map(|_| r.next_u64()).collect()
        };
        let c: Vec<u64> = {
            let mut r = Rng::new(42, 1);
            (0..8).map(|_| r.next_u64()).collect()
        };
        assert_eq!(a, b);
        assert_ne!(a, c);
        let mut r = Rng::new(7, 3);
        assert!((0..1000).all(|_| r.below(10) < 10));
    }

    #[test]
    fn zipf_is_deterministic_and_skewed() {
        let z = Zipf::new(2000, 0.99);
        let draw = |seed| {
            let mut r = Rng::new(seed, 0);
            (0..20_000).map(|_| z.sample(&mut r)).collect::<Vec<_>>()
        };
        let a = draw(1);
        assert_eq!(a, draw(1));
        assert!(a.iter().all(|&r| r < 2000));
        let top10 = a.iter().filter(|&&r| r < 10).count();
        // Zipf(0.99) over 2000 ranks puts ~36 % of the mass on the top ten.
        assert!((6000..8500).contains(&top10), "top10 = {top10}");
    }

    #[test]
    fn values_round_trip_through_the_checker() {
        let v = value_for(17, 3);
        assert_eq!(v.len(), VALUE_LEN);
        assert!(value_matches(17, 3, &v));
        assert!(!value_matches(17, 4, &v));
        assert!(!value_matches(18, 3, &v));
        assert!(!value_matches(17, 3, &v[..99]));
        assert_eq!(v, value_for(17, 3));
    }
}
