//! The leaf as it was before it became its page image: a `Vec<Version>`
//! sorted by `(key, version order)`, one owned `Key` and `Vec<u8>` per entry.
//!
//! Kept, test-only, as the reference model the image-backed
//! [`DataNode`](super::DataNode) is checked against (like
//! `IndexNode::find_child_linear` for the partitioned routing): every query,
//! `composition()`, `validate()` and the `encode()` bytes must agree after
//! every mutation.

use tsb_common::encode::{size, ByteWriter};
use tsb_common::{
    Key, KeyRange, TimeRange, Timestamp, TsState, TsbError, TsbResult, TxnId, Version, VersionOrder,
};

use super::data::{DataComposition, DATA_NODE_TAG};

/// The `Vec<Version>`-bodied leaf.
#[derive(Clone, PartialEq, Eq, Debug)]
pub(crate) struct ModelNode {
    pub key_range: KeyRange,
    pub time_range: TimeRange,
    entries: Vec<Version>,
}

impl ModelNode {
    /// Creates an empty data node covering `key_range` × `time_range`.
    pub(crate) fn new(key_range: KeyRange, time_range: TimeRange) -> Self {
        ModelNode {
            key_range,
            time_range,
            entries: Vec::new(),
        }
    }

    /// A node holding `entries` in the order given — what the old decoder
    /// built from an image, which it never re-sorted.
    pub(crate) fn in_image_order(
        key_range: KeyRange,
        time_range: TimeRange,
        entries: Vec<Version>,
    ) -> Self {
        ModelNode {
            key_range,
            time_range,
            entries,
        }
    }

    /// The entries, sorted by `(key, version order)`.
    pub(crate) fn entries(&self) -> &[Version] {
        &self.entries
    }

    /// Number of entries.
    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the node is a current node (open-ended time range).
    pub(crate) fn is_current(&self) -> bool {
        self.time_range.is_current()
    }

    /// Binary search for `(key, order)` with a fully borrowed comparator:
    /// no probe ever clones the search key or an entry's key.
    fn position_of(&self, key: &Key, order: VersionOrder) -> Result<usize, usize> {
        self.entries
            .binary_search_by(|e| e.key.cmp(key).then_with(|| e.order().cmp(&order)))
    }

    /// Inserts (or replaces) a version. Replacement happens when an entry
    /// with the same `(key, state)` already exists — e.g. a transaction
    /// overwriting its own uncommitted write.
    ///
    /// Returns an error if the key lies outside the node's key range (that
    /// would indicate a routing bug in the caller).
    pub(crate) fn insert(&mut self, version: Version) -> TsbResult<()> {
        if !self.key_range.contains(&version.key) {
            return Err(TsbError::internal(format!(
                "key {} routed to node with key range {}",
                version.key, self.key_range
            )));
        }
        match self.position_of(&version.key, version.order()) {
            Ok(pos) => self.entries[pos] = version,
            Err(pos) => self.entries.insert(pos, version),
        }
        Ok(())
    }

    /// Removes the uncommitted version of `key` written by `txn`, if any.
    pub(crate) fn remove_uncommitted(&mut self, key: &Key, txn: TxnId) -> Option<Version> {
        match self.position_of(key, VersionOrder::Uncommitted(txn)) {
            Ok(pos) => Some(self.entries.remove(pos)),
            Err(_) => None,
        }
    }

    /// The uncommitted version of `key`, if any (written by any transaction —
    /// there is at most one, because writers conflict on uncommitted keys).
    pub(crate) fn find_uncommitted(&self, key: &Key) -> Option<&Version> {
        self.versions_of(key).find(|e| e.state.is_uncommitted())
    }

    /// All versions of `key` in this node, in version order. The key's
    /// contiguous group is located by two binary searches up front, so the
    /// returned iterator borrows only the node — the probe key is neither
    /// cloned nor captured.
    pub(crate) fn versions_of(&self, key: &Key) -> impl Iterator<Item = &Version> + '_ {
        let start = self.entries.partition_point(|e| e.key < *key);
        let end = self.entries.partition_point(|e| e.key <= *key);
        self.entries[start..end].iter()
    }

    /// The version of `key` governing time `ts`: the committed version with
    /// the largest commit time ≤ `ts`. Uncommitted versions are invisible.
    pub(crate) fn find_as_of(&self, key: &Key, ts: Timestamp) -> Option<&Version> {
        self.versions_of(key)
            .filter(|v| v.commit_time().map(|t| t <= ts).unwrap_or(false))
            .last()
    }

    /// The newest committed version of `key` (which may be a tombstone).
    pub(crate) fn find_latest_committed(&self, key: &Key) -> Option<&Version> {
        self.versions_of(key)
            .filter(|v| v.state.is_committed())
            .last()
    }

    /// The distinct keys present, in order.
    pub(crate) fn distinct_keys(&self) -> Vec<Key> {
        let mut keys: Vec<Key> = Vec::new();
        for e in &self.entries {
            if keys.last() != Some(&e.key) {
                keys.push(e.key.clone());
            }
        }
        keys
    }

    /// Summarizes the node contents for the split policy.
    pub(crate) fn composition(&self) -> DataComposition {
        let mut distinct_keys = 0usize;
        let mut live = 0usize;
        let mut historical = 0usize;
        let mut uncommitted = 0usize;
        let mut live_bytes = 0usize;
        let mut last_update: Option<Timestamp> = None;
        let mut commit_times: Vec<Timestamp> = Vec::new();

        let mut i = 0;
        while i < self.entries.len() {
            let key = &self.entries[i].key;
            distinct_keys += 1;
            let group_end = self.entries[i..]
                .iter()
                .position(|e| e.key != *key)
                .map(|p| i + p)
                .unwrap_or(self.entries.len());
            let group = &self.entries[i..group_end];

            // Newest committed version in the group, if any.
            let latest_committed_idx = group.iter().rposition(|e| e.state.is_committed());
            let mut versions_seen = 0usize;
            for (j, e) in group.iter().enumerate() {
                match e.state {
                    TsState::Committed(t) => {
                        commit_times.push(t);
                        versions_seen += 1;
                        let is_latest = Some(j) == latest_committed_idx;
                        if is_latest && !e.is_tombstone() {
                            live += 1;
                            live_bytes += size::version(e);
                        } else {
                            historical += 1;
                        }
                        // A version that supersedes an earlier one is an "update".
                        if versions_seen > 1 {
                            last_update = Some(last_update.map_or(t, |cur| cur.max(t)));
                        }
                    }
                    TsState::Uncommitted(_) => {
                        uncommitted += 1;
                        live_bytes += size::version(e);
                    }
                }
            }
            i = group_end;
        }

        commit_times.sort();
        commit_times.dedup();
        let median = if commit_times.is_empty() {
            None
        } else {
            Some(commit_times[commit_times.len() / 2])
        };

        DataComposition {
            total_entries: self.entries.len(),
            distinct_keys,
            live_entries: live,
            historical_entries: historical,
            uncommitted_entries: uncommitted,
            entry_bytes: self.entries.iter().map(size::version).sum(),
            live_entry_bytes: live_bytes,
            last_update_time: last_update,
            median_commit_time: median,
            min_commit_time: commit_times.first().copied(),
            max_commit_time: commit_times.last().copied(),
        }
    }

    /// Encoded size of the node in bytes.
    pub(crate) fn encoded_size(&self) -> usize {
        // tag + entry count + key range + time range + entries
        1 + 4
            + size::interval(&self.key_range)
            + size::interval(&self.time_range)
            + self.entries.iter().map(size::version).sum::<usize>()
    }

    /// Encodes the node.
    pub(crate) fn encode(&self) -> Vec<u8> {
        let mut w = ByteWriter::with_capacity(self.encoded_size());
        w.put_u8(DATA_NODE_TAG);
        w.put_u32(self.entries.len() as u32);
        w.put_interval(&self.key_range);
        w.put_interval(&self.time_range);
        for e in &self.entries {
            w.put_version(e);
        }
        debug_assert_eq!(w.len(), self.encoded_size());
        w.into_vec()
    }

    /// Checks the node's internal invariants:
    ///
    /// * entries are sorted by `(key, version order)` and unique,
    /// * every key lies in the node's key range,
    /// * every commit time is below the time range's upper bound,
    /// * at most one version per key has a commit time below the time range's
    ///   lower bound, and it is that key's earliest version in the node (the
    ///   rule-3 duplicate of the version valid at the split time),
    /// * historical (closed time range) nodes contain no uncommitted entries.
    pub(crate) fn validate(&self) -> TsbResult<()> {
        for w in self.entries.windows(2) {
            if w[0].sort_key() >= w[1].sort_key() {
                return Err(TsbError::invariant(format!(
                    "data node entries out of order: {} then {}",
                    w[0], w[1]
                )));
            }
        }
        let mut earlier_than_lo_per_key: Option<(&Key, usize)> = None;
        for (idx, e) in self.entries.iter().enumerate() {
            if !self.key_range.contains(&e.key) {
                return Err(TsbError::invariant(format!(
                    "entry {} outside node key range {}",
                    e, self.key_range
                )));
            }
            if let Some(t) = e.commit_time() {
                if !self.time_range.hi.is_above(t) {
                    return Err(TsbError::invariant(format!(
                        "entry {} at or beyond node time-range end {}",
                        e, self.time_range
                    )));
                }
                if t < self.time_range.lo {
                    // Must be the earliest version of its key in this node.
                    let first_of_key = self
                        .entries
                        .iter()
                        .position(|o| o.key == e.key)
                        .unwrap_or(idx);
                    if first_of_key != idx {
                        return Err(TsbError::invariant(format!(
                            "entry {} predates node time range {} but is not its key's earliest entry",
                            e, self.time_range
                        )));
                    }
                    if let Some((k, _)) = earlier_than_lo_per_key {
                        if k == &e.key {
                            return Err(TsbError::invariant(format!(
                                "key {} has two entries before the node time range start",
                                e.key
                            )));
                        }
                    }
                    earlier_than_lo_per_key = Some((&e.key, idx));
                }
            } else if !self.is_current() {
                return Err(TsbError::invariant(format!(
                    "historical node contains uncommitted entry {e}"
                )));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::super::DataNode;
    use super::*;
    use proptest::prelude::*;

    /// One mutation of a leaf, as the tree issues them.
    #[derive(Clone, Debug)]
    enum Step {
        /// A committed version: new, or a same-`(key, state)` replace when
        /// the `(key, ts)` repeats.
        Put {
            key: u8,
            ts: u8,
            len: u8,
        },
        Tombstone {
            key: u8,
            ts: u8,
        },
        Pending {
            key: u8,
            txn: u8,
            len: u8,
        },
        PendingTombstone {
            key: u8,
            txn: u8,
        },
        Remove {
            key: u8,
            txn: u8,
        },
        /// The commit rewrite: the uncommitted slot out, the same value in
        /// as committed.
        Commit {
            key: u8,
            txn: u8,
            ts: u8,
        },
        /// Continue on `decode(encode(node))` — an image with its header
        /// still in front.
        Reload,
    }

    fn step() -> impl Strategy<Value = Step> {
        let (k, t, x) = (0u8..12, 40u8..90, 0u8..3);
        prop_oneof![
            6 => (k.clone(), t.clone(), any::<u8>()).prop_map(|(key, ts, len)| Step::Put { key, ts, len }),
            2 => (k.clone(), t.clone()).prop_map(|(key, ts)| Step::Tombstone { key, ts }),
            3 => (k.clone(), x.clone(), any::<u8>()).prop_map(|(key, txn, len)| Step::Pending { key, txn, len }),
            1 => (k.clone(), x.clone()).prop_map(|(key, txn)| Step::PendingTombstone { key, txn }),
            2 => (k.clone(), x.clone()).prop_map(|(key, txn)| Step::Remove { key, txn }),
            3 => (k, x, t).prop_map(|(key, txn, ts)| Step::Commit { key, txn, ts }),
            1 => Just(Step::Reload),
        ]
    }

    /// Keys 0 and 1 fall outside the node's key range; 10 and 11 are too
    /// long to be stored inline.
    fn key(k: u8) -> Key {
        if k < 10 {
            Key::from_u64(k as u64)
        } else {
            Key::from(format!("a-key-too-long-for-the-inline-form-{k}"))
        }
    }

    fn value(len: u8, salt: u8) -> Vec<u8> {
        vec![salt; (len % 40) as usize]
    }

    fn owned(v: Option<super::super::VersionRef<'_>>) -> Option<Version> {
        v.map(|v| v.to_version())
    }

    fn assert_same(node: &DataNode, model: &ModelNode) -> Result<(), TestCaseError> {
        prop_assert_eq!(node.to_versions(), model.entries().to_vec());
        prop_assert_eq!(node.len(), model.len());
        prop_assert_eq!(node.encode(), model.encode());
        prop_assert_eq!(node.encoded_size(), model.encoded_size());
        prop_assert_eq!(node.composition(), model.composition());
        prop_assert_eq!(node.distinct_keys(), model.distinct_keys());
        prop_assert_eq!(
            node.validate().map_err(|e| e.to_string()),
            model.validate().map_err(|e| e.to_string())
        );
        for k in 0..13u8 {
            let k = key(k);
            prop_assert_eq!(
                owned(node.find_latest_committed(&k)),
                model.find_latest_committed(&k).cloned()
            );
            prop_assert_eq!(
                owned(node.find_uncommitted(&k)),
                model.find_uncommitted(&k).cloned()
            );
            prop_assert_eq!(
                node.versions_of(&k)
                    .map(|v| v.to_version())
                    .collect::<Vec<_>>(),
                model.versions_of(&k).cloned().collect::<Vec<_>>()
            );
            for ts in [0u64, 39, 40, 55, 64, 65, 89, 90, u64::MAX] {
                prop_assert_eq!(
                    owned(node.find_as_of(&k, Timestamp(ts))),
                    model.find_as_of(&k, Timestamp(ts)).cloned()
                );
            }
            for hi in 0..13u8 {
                let range = KeyRange::bounded(k.clone(), key(hi));
                let expected: Vec<Version> = model
                    .entries()
                    .iter()
                    .filter(|v| range.contains(&v.key))
                    .cloned()
                    .collect();
                prop_assert_eq!(
                    node.versions_in(&range)
                        .map(|v| v.to_version())
                        .collect::<Vec<_>>(),
                    expected
                );
            }
        }
        let decoded = DataNode::decode(node.encode()).unwrap();
        prop_assert_eq!(&decoded, node);
        prop_assert_eq!(decoded.encode(), node.encode());
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// The image-backed leaf and the `Vec<Version>` leaf agree on every
        /// query, on `composition()`, on `validate()` and on the encoded
        /// bytes after every step of an arbitrary mutation sequence.
        #[test]
        fn image_leaf_equals_the_version_vector_leaf(steps in prop::collection::vec(step(), 1..60)) {
            // Keys below 2 are out of range (both must refuse them), and a
            // time range starting at 50 makes pre-range versions — legal
            // rule-3 copies and violations alike — reachable.
            let key_range = KeyRange::new(key(2), tsb_common::KeyBound::PlusInfinity);
            let time_range = TimeRange::from(Timestamp(50));
            let mut node = DataNode::new(key_range.clone(), time_range);
            let mut model = ModelNode::new(key_range, time_range);
            for step in steps {
                let version = match step {
                    Step::Put { key: k, ts, len } => {
                        Some(Version::committed(key(k), Timestamp(ts as u64), value(len, ts)))
                    }
                    Step::Tombstone { key: k, ts } => {
                        Some(Version::tombstone(key(k), Timestamp(ts as u64)))
                    }
                    Step::Pending { key: k, txn, len } => {
                        Some(Version::uncommitted(key(k), TxnId(txn as u64), value(len, txn)))
                    }
                    Step::PendingTombstone { key: k, txn } => {
                        Some(Version::uncommitted_tombstone(key(k), TxnId(txn as u64)))
                    }
                    Step::Remove { key: k, txn } => {
                        prop_assert_eq!(
                            node.remove_uncommitted(&key(k), TxnId(txn as u64)),
                            model.remove_uncommitted(&key(k), TxnId(txn as u64))
                        );
                        None
                    }
                    Step::Commit { key: k, txn, ts } => {
                        let pending = node.remove_uncommitted(&key(k), TxnId(txn as u64));
                        prop_assert_eq!(
                            &pending,
                            &model.remove_uncommitted(&key(k), TxnId(txn as u64))
                        );
                        pending.map(|p| Version {
                            key: p.key,
                            state: TsState::Committed(Timestamp(ts as u64)),
                            value: p.value,
                        })
                    }
                    Step::Reload => {
                        node = DataNode::decode(node.encode()).unwrap();
                        None
                    }
                };
                if let Some(version) = version {
                    // The put path's copy-on-write form is the same insert.
                    let copied = node.with_inserted(&version).map_err(|e| e.to_string());
                    let inserted = node.insert(&version).map_err(|e| e.to_string());
                    prop_assert_eq!(copied, inserted.clone().map(|()| node.clone()));
                    prop_assert_eq!(inserted, model.insert(version).map_err(|e| e.to_string()));
                }
                assert_same(&node, &model)?;
            }
        }
    }
}
