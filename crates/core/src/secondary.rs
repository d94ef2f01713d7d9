//! Secondary indexes (§3.6).
//!
//! A secondary index is itself a Time-Split B-tree whose records have the
//! form `<timestamp, secondary key, primary key>`: each entry inherits the
//! timestamp of the primary record change that caused it, and the index
//! spans the historical and current databases exactly like the primary
//! index. "When splits occur to the primary data, secondary indexes do not
//! change" — the secondary index stores primary *keys*, never node
//! addresses, so this holds by construction.
//!
//! Entries are stored under an order-preserving composite key
//! `(secondary key, primary key)` so that all primary keys with a given
//! secondary value are contiguous and can be counted or listed "using only
//! the secondary time-split B-tree", as the paper points out for
//! `COUNT`-style queries.

use std::sync::Arc;

use tsb_common::{Key, KeyBound, KeyRange, Timestamp, TsbConfig, TsbError, TsbResult};
use tsb_storage::IoStats;

use crate::tree::TsbTree;

/// Escapes a byte string so that concatenated escaped strings preserve the
/// lexicographic order of the tuple: `0x00` becomes `0x00 0xFF`, and the
/// component is terminated by `0x00 0x00`.
fn escape_component(out: &mut Vec<u8>, bytes: &[u8]) {
    for &b in bytes {
        out.push(b);
        if b == 0x00 {
            out.push(0xFF);
        }
    }
    out.push(0x00);
    out.push(0x00);
}

/// Decodes one escaped component, returning the component and the rest.
fn unescape_component(bytes: &[u8]) -> TsbResult<(Vec<u8>, &[u8])> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] == 0x00 {
            if i + 1 >= bytes.len() {
                return Err(TsbError::corruption("truncated composite key"));
            }
            match bytes[i + 1] {
                0x00 => return Ok((out, &bytes[i + 2..])),
                0xFF => {
                    out.push(0x00);
                    i += 2;
                }
                other => {
                    return Err(TsbError::corruption(format!(
                        "invalid escape byte {other:#04x} in composite key"
                    )))
                }
            }
        } else {
            out.push(bytes[i]);
            i += 1;
        }
    }
    Err(TsbError::corruption("unterminated composite key component"))
}

/// Builds the composite key `(secondary, primary)`.
pub(crate) fn composite_key(secondary: &Key, primary: &Key) -> Key {
    let mut out = Vec::with_capacity(secondary.len() + primary.len() + 4);
    escape_component(&mut out, secondary.as_bytes());
    escape_component(&mut out, primary.as_bytes());
    Key::from_vec(out)
}

/// Splits a composite key back into `(secondary, primary)`.
pub(crate) fn split_composite_key(key: &Key) -> TsbResult<(Key, Key)> {
    let (secondary, rest) = unescape_component(key.as_bytes())?;
    let (primary, rest) = unescape_component(rest)?;
    if !rest.is_empty() {
        return Err(TsbError::corruption("trailing bytes after composite key"));
    }
    Ok((Key::from_vec(secondary), Key::from_vec(primary)))
}

/// The key range covering every composite key whose secondary component is
/// exactly `secondary`.
fn secondary_prefix_range(secondary: &Key) -> KeyRange {
    let mut lo = Vec::new();
    escape_component(&mut lo, secondary.as_bytes());
    // The upper bound is the prefix with its terminator bumped from
    // 0x00 0x00 to 0x00 0x01: no valid escaped component sorts between them.
    let mut hi = lo.clone();
    let last = hi.len() - 1;
    hi[last] = 0x01;
    KeyRange::new(Key::from_vec(lo), KeyBound::Finite(Key::from_vec(hi)))
}

/// A secondary index over some attribute of the primary records, implemented
/// as its own TSB-tree.
pub struct SecondaryIndex {
    tree: TsbTree,
}

impl std::fmt::Debug for SecondaryIndex {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SecondaryIndex")
            .field("tree", &self.tree)
            .finish()
    }
}

impl SecondaryIndex {
    /// Creates a secondary index with its own in-memory stores.
    pub fn new_in_memory(cfg: TsbConfig) -> TsbResult<Self> {
        Ok(SecondaryIndex {
            tree: crate::TsbOptions::in_memory().config(cfg).open_tree()?,
        })
    }

    /// Checks every structural invariant of the index's tree (the checks
    /// [`crate::EngineHandle::verify`] runs on each shard).
    pub fn verify(&self) -> TsbResult<()> {
        self.tree.verify()
    }

    /// The shared I/O statistics of the index's stores.
    pub fn io_stats(&self) -> &Arc<IoStats> {
        self.tree.io_stats()
    }

    /// Records that `primary` acquired secondary value `secondary` at time
    /// `ts` (a record creation, or the "new side" of a secondary-field
    /// update). The entry inherits the primary record's timestamp.
    pub fn insert_entry(&mut self, secondary: &Key, primary: &Key, ts: Timestamp) -> TsbResult<()> {
        let key = composite_key(secondary, primary);
        self.tree.insert_at(key, Vec::new(), ts)
    }

    /// Records that `primary` ceased to have secondary value `secondary` at
    /// time `ts` (the "old side" of a secondary-field update, or a record
    /// deletion).
    pub fn remove_entry(&mut self, secondary: &Key, primary: &Key, ts: Timestamp) -> TsbResult<()> {
        let key = composite_key(secondary, primary);
        self.tree.delete_at(key, ts)
    }

    /// Records a change of the secondary attribute of `primary` from
    /// `old_secondary` to `new_secondary` at time `ts`. Either side may be
    /// `None` (record creation / deletion).
    pub fn record_change(
        &mut self,
        old_secondary: Option<&Key>,
        new_secondary: Option<&Key>,
        primary: &Key,
        ts: Timestamp,
    ) -> TsbResult<()> {
        if old_secondary == new_secondary {
            return Ok(());
        }
        if let Some(old) = old_secondary {
            self.remove_entry(old, primary, ts)?;
        }
        if let Some(new) = new_secondary {
            self.insert_entry(new, primary, ts)?;
        }
        Ok(())
    }

    /// The primary keys that had secondary value `secondary` as of time `ts`,
    /// in primary-key order.
    pub fn primaries_as_of(&self, secondary: &Key, ts: Timestamp) -> TsbResult<Vec<Key>> {
        let range = secondary_prefix_range(secondary);
        let rows = self.tree.scan_as_of(&range, ts)?;
        rows.iter()
            .map(|(composite, _)| split_composite_key(composite).map(|(_, primary)| primary))
            .collect()
    }

    /// The primary keys that currently have secondary value `secondary`.
    pub fn primaries_current(&self, secondary: &Key) -> TsbResult<Vec<Key>> {
        self.primaries_as_of(secondary, Timestamp::MAX)
    }

    /// How many records had secondary value `secondary` at time `ts` —
    /// answerable from the secondary index alone, as §3.6 notes.
    pub fn count_as_of(&self, secondary: &Key, ts: Timestamp) -> TsbResult<usize> {
        Ok(self.primaries_as_of(secondary, ts)?.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn composite_keys_round_trip_and_preserve_order() {
        let cases = [
            (Key::from("boston"), Key::from_u64(1)),
            (Key::from("boston"), Key::from_u64(2)),
            (Key::from("nashua"), Key::from_u64(1)),
            (
                Key::from_bytes(vec![0x00, 0x01]),
                Key::from_bytes(vec![0x00]),
            ),
            (Key::from_bytes(vec![0x00, 0x00, 0xFF]), Key::from("x")),
            (Key::MIN, Key::from("primary-only")),
        ];
        for (sec, pri) in &cases {
            let c = composite_key(sec, pri);
            let (s2, p2) = split_composite_key(&c).unwrap();
            assert_eq!(&s2, sec);
            assert_eq!(&p2, pri);
        }
        // Tuple order is preserved by the composite encoding.
        let mut composites: Vec<Key> = cases.iter().map(|(s, p)| composite_key(s, p)).collect();
        let mut by_tuple = cases.to_vec();
        by_tuple.sort_by(|a, b| (&a.0, &a.1).cmp(&(&b.0, &b.1)));
        composites.sort();
        let reencoded: Vec<Key> = by_tuple.iter().map(|(s, p)| composite_key(s, p)).collect();
        assert_eq!(composites, reencoded);

        assert!(split_composite_key(&Key::from("no terminator")).is_err());
    }

    #[test]
    fn prefix_range_covers_exactly_one_secondary_value() {
        let range = secondary_prefix_range(&Key::from("boston"));
        assert!(range.contains(composite_key(&Key::from("boston"), &Key::from_u64(1))));
        assert!(range.contains(composite_key(
            &Key::from("boston"),
            &Key::from_u64(u64::MAX)
        )));
        assert!(!range.contains(composite_key(&Key::from("bostona"), &Key::from_u64(1))));
        assert!(!range.contains(composite_key(&Key::from("bosto"), &Key::from_u64(1))));
        assert!(!range.contains(composite_key(&Key::from("nashua"), &Key::from_u64(1))));
    }

    #[test]
    fn time_travel_queries_on_the_secondary_attribute() {
        let mut idx = SecondaryIndex::new_in_memory(TsbConfig::small_pages()).unwrap();
        let boston = Key::from("boston");
        let nashua = Key::from("nashua");

        // Employees 1..=3 start in Boston at t=10.
        for emp in 1..=3u64 {
            idx.record_change(None, Some(&boston), &Key::from_u64(emp), Timestamp(10))
                .unwrap();
        }
        // Employee 2 moves to Nashua at t=20.
        idx.record_change(
            Some(&boston),
            Some(&nashua),
            &Key::from_u64(2),
            Timestamp(20),
        )
        .unwrap();
        // Employee 3 leaves the company at t=30.
        idx.record_change(Some(&boston), None, &Key::from_u64(3), Timestamp(30))
            .unwrap();

        assert_eq!(idx.count_as_of(&boston, Timestamp(15)).unwrap(), 3);
        assert_eq!(idx.count_as_of(&boston, Timestamp(25)).unwrap(), 2);
        assert_eq!(idx.count_as_of(&boston, Timestamp(35)).unwrap(), 1);
        assert_eq!(idx.count_as_of(&nashua, Timestamp(15)).unwrap(), 0);
        assert_eq!(idx.count_as_of(&nashua, Timestamp(25)).unwrap(), 1);

        assert_eq!(
            idx.primaries_current(&boston).unwrap(),
            vec![Key::from_u64(1)]
        );
        assert_eq!(
            idx.primaries_as_of(&boston, Timestamp(12)).unwrap(),
            vec![Key::from_u64(1), Key::from_u64(2), Key::from_u64(3)]
        );
        // No-op change is accepted and changes nothing.
        idx.record_change(
            Some(&boston),
            Some(&boston),
            &Key::from_u64(1),
            Timestamp(40),
        )
        .unwrap();
        assert_eq!(idx.count_as_of(&boston, Timestamp(45)).unwrap(), 1);
        idx.verify().unwrap();
    }

    #[test]
    fn secondary_index_survives_many_entries_and_splits() {
        let mut idx = SecondaryIndex::new_in_memory(TsbConfig::small_pages()).unwrap();
        let dept_names: Vec<Key> = (0..5).map(|d| Key::from(format!("dept-{d}"))).collect();
        let mut ts = 1u64;
        for emp in 0..200u64 {
            let dept = &dept_names[(emp % 5) as usize];
            idx.record_change(None, Some(dept), &Key::from_u64(emp), Timestamp(ts))
                .unwrap();
            ts += 1;
        }
        // Reassign half of the employees to dept-0.
        for emp in (0..200u64).filter(|e| e % 2 == 0) {
            let old = &dept_names[(emp % 5) as usize];
            if *old != dept_names[0] {
                idx.record_change(
                    Some(old),
                    Some(&dept_names[0]),
                    &Key::from_u64(emp),
                    Timestamp(ts),
                )
                .unwrap();
                ts += 1;
            }
        }
        let total: usize = dept_names
            .iter()
            .map(|d| idx.count_as_of(d, Timestamp(ts)).unwrap())
            .sum();
        assert_eq!(total, 200, "every employee is in exactly one department");
        // dept-0 now holds its original 40 plus 80 transferred employees.
        assert_eq!(idx.count_as_of(&dept_names[0], Timestamp(ts)).unwrap(), 120);
        idx.verify().unwrap();
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// The composite (secondary, primary) encoding is loss-free and
        /// order-preserving — the property the secondary index relies on for its
        /// prefix scans.
        #[test]
        fn composite_key_encoding_round_trips_and_preserves_order(
            pairs in prop::collection::vec(
                (prop::collection::vec(any::<u8>(), 0..12), prop::collection::vec(any::<u8>(), 0..12)),
                1..30
            ),
        ) {
            let mut tuples: Vec<(Key, Key)> = pairs
                .into_iter()
                .map(|(s, p)| (Key::from_bytes(s), Key::from_bytes(p)))
                .collect();
            for (s, p) in &tuples {
                let c = composite_key(s, p);
                let (s2, p2) = split_composite_key(&c).unwrap();
                prop_assert_eq!(&s2, s);
                prop_assert_eq!(&p2, p);
            }
            // Order preservation: sorting by tuple equals sorting by encoding.
            let mut by_encoding: Vec<(Key, Key)> = tuples.clone();
            by_encoding.sort_by_key(|(s, p)| composite_key(s, p));
            tuples.sort();
            prop_assert_eq!(by_encoding, tuples);
        }
    }
}
