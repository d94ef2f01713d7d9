//! The in-harness oracle. Every key belongs to exactly one connection or
//! thread (a [`Partition`]), and a connection's requests execute in the
//! order it sent them, so each read has exactly one admissible answer:
//!
//! * a current read sent after `n` writes to its key expects version `n`;
//! * an as-of read at `T`, with `T` no later than the newest commit this
//!   partition has seen acknowledged, expects the newest acknowledged
//!   version at or before `T` — every write still in flight was sent after
//!   that acknowledgement and so commits later than `T`.
//!
//! Values are derived from `(key, version number)`, so the oracle stores a
//! counter and the commit timestamps per key and nothing else.

use crate::gen::value_matches;

/// Odd multiplier scattering insertion order over the slot space.
const SCATTER: u64 = 0x9E37_79B1;

pub struct Partition {
    /// First key of this partition's scan space.
    pub base: u64,
    /// Slots in the scan space (a power of two); slot `s` is key `base + s`.
    pub cap: u64,
    /// Keys inserted so far; the `i`-th insert went to [`Self::slot_of`]`(i)`.
    pub present: u64,
    /// Transaction-only keys, placed after the scan space so that no range
    /// scan ever covers a key with an uncommitted version.
    pub txn_slots: u64,
    /// Per slot (scan space, then transaction keys): versions sent.
    sent: Vec<u32>,
    /// Per slot: commit timestamp of each acknowledged version, ascending.
    acked: Vec<Vec<u64>>,
    /// Commit timestamps bracketing what as-of reads may ask for.
    pub first_ts: u64,
    pub last_ts: u64,
    /// Key and value bytes of every acknowledged write.
    pub user_bytes: u64,
}

impl Partition {
    pub fn new(base: u64, cap: u64, txn_slots: u64) -> Partition {
        assert!(cap.is_power_of_two());
        let slots = (cap + txn_slots) as usize;
        Partition {
            base,
            cap,
            present: 0,
            txn_slots,
            sent: vec![0; slots],
            acked: vec![Vec::new(); slots],
            first_ts: 0,
            last_ts: 0,
            user_bytes: 0,
        }
    }

    /// The slot the `i`-th inserted key occupies (a bijection on `0..cap`).
    pub fn slot_of(&self, i: u64) -> u64 {
        i.wrapping_mul(SCATTER) & (self.cap - 1)
    }

    pub fn txn_slot(&self, j: u64) -> u64 {
        self.cap + j % self.txn_slots
    }

    pub fn key(&self, slot: u64) -> u64 {
        self.base + slot
    }

    /// Versions of `slot` sent so far: what a current read sent now expects.
    pub fn sent(&self, slot: u64) -> u32 {
        self.sent[slot as usize]
    }

    /// Registers a write about to be sent; returns its version number.
    pub fn next_version(&mut self, slot: u64) -> u32 {
        let seq = &mut self.sent[slot as usize];
        *seq += 1;
        *seq
    }

    /// Registers the acknowledgement (commit timestamp `ts`) of the oldest
    /// unacknowledged write to `slot`.
    pub fn ack(&mut self, slot: u64, ts: u64) {
        self.acked[slot as usize].push(ts);
        if self.first_ts == 0 {
            self.first_ts = ts;
        }
        self.last_ts = self.last_ts.max(ts);
        self.user_bytes += (crate::gen::KEY_LEN + crate::gen::VALUE_LEN) as u64;
    }

    /// The version an as-of read of `slot` at `ts` must return (0 = none).
    pub fn version_as_of(&self, slot: u64, ts: u64) -> u32 {
        self.acked[slot as usize].partition_point(|&t| t <= ts) as u32
    }

    /// The versions `[first, last]` (1-based, empty when `first > last`) a
    /// history read of `slot` over the window `[lo, hi)` must return.
    pub fn versions_between(&self, slot: u64, lo: u64, hi: u64) -> (u32, u32) {
        let acked = &self.acked[slot as usize];
        let first = acked.partition_point(|&t| t < lo) as u32 + 1;
        let last = acked.partition_point(|&t| t < hi) as u32;
        (first, last)
    }

    pub fn commit_ts(&self, slot: u64, version: u32) -> u64 {
        self.acked[slot as usize][version as usize - 1]
    }

    /// Every slot that has ever been written, with its newest version.
    pub fn written(&self) -> impl Iterator<Item = (u64, u32)> + '_ {
        self.sent
            .iter()
            .enumerate()
            .filter(|(_, &seq)| seq > 0)
            .map(|(slot, &seq)| (slot as u64, seq))
    }
}

/// Whether a point read's reply is the expected version (0 = no value).
pub fn value_ok(key: u64, expect: u32, got: Option<&[u8]>) -> bool {
    match got {
        None => expect == 0,
        Some(bytes) => expect != 0 && value_matches(key, expect, bytes),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::value_for;

    #[test]
    fn scatter_is_a_bijection_on_the_slot_space() {
        let p = Partition::new(1000, 1024, 8);
        let mut seen = vec![false; 1024];
        for i in 0..1024 {
            let s = p.slot_of(i) as usize;
            assert!(!seen[s]);
            seen[s] = true;
        }
        assert_eq!(p.key(p.txn_slot(9)), 1000 + 1024 + 1);
    }

    #[test]
    fn as_of_lookup_picks_the_newest_version_at_or_before() {
        let mut p = Partition::new(0, 16, 4);
        for ts in [10, 20, 30] {
            p.next_version(3);
            p.ack(3, ts);
        }
        assert_eq!(p.version_as_of(3, 9), 0);
        assert_eq!(p.version_as_of(3, 10), 1);
        assert_eq!(p.version_as_of(3, 29), 2);
        assert_eq!(p.version_as_of(3, 1000), 3);
        assert_eq!(p.version_as_of(4, 1000), 0);
        assert_eq!(p.versions_between(3, 10, 30), (1, 2));
        assert_eq!(p.versions_between(3, 11, 20), (2, 1));
        assert_eq!(p.versions_between(3, 0, 31), (1, 3));
        assert_eq!((p.first_ts, p.last_ts, p.sent(3)), (10, 30, 3));
        assert_eq!(p.commit_ts(3, 2), 20);
        assert_eq!(p.user_bytes, 3 * 108);
        assert_eq!(p.written().collect::<Vec<_>>(), vec![(3, 3)]);
    }

    #[test]
    fn value_check_distinguishes_absent_from_wrong() {
        let v = value_for(5, 2);
        assert!(value_ok(5, 2, Some(&v)));
        assert!(!value_ok(5, 1, Some(&v)));
        assert!(!value_ok(5, 2, None));
        assert!(value_ok(5, 0, None));
        assert!(!value_ok(5, 0, Some(&v)));
    }
}
