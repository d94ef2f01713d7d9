//! Range scans, database snapshots, and per-record version histories
//! (§2.5's temporal queries: "find the state of the database as it was at
//! any given time in the past", "find the records with a given key valid at
//! a given point in time", "find all past versions of a given record").

use std::collections::{BTreeMap, HashSet};

use tsb_common::{Key, KeyRange, TimeRange, Timestamp, TsbResult, Version};

use crate::node::{Node, NodeAddr, VersionRef};

use super::TsbTree;

impl TsbTree {
    /// Returns every `(key, value)` pair in `range` as of time `ts`, in key
    /// order. Tombstoned keys are omitted. This answers the paper's
    /// "snapshot of the database at any given past time" restricted to a key
    /// range.
    pub(crate) fn scan_as_of(
        &self,
        range: &KeyRange,
        ts: Timestamp,
    ) -> TsbResult<Vec<(Key, Vec<u8>)>> {
        let mut out: BTreeMap<Key, Vec<u8>> = BTreeMap::new();
        let mut visited: HashSet<NodeAddr> = HashSet::new();
        self.scan_node(self.current_root(), range, ts, &mut visited, &mut out)?;
        Ok(out.into_iter().collect())
    }

    fn scan_node(
        &self,
        addr: NodeAddr,
        range: &KeyRange,
        ts: Timestamp,
        visited: &mut HashSet<NodeAddr>,
        out: &mut BTreeMap<Key, Vec<u8>>,
    ) -> TsbResult<()> {
        if !visited.insert(addr) {
            return Ok(());
        }
        match &*self.read_node(addr)? {
            Node::Data(data) => {
                // Only keys inside both the query range and the node's own
                // key range are collected; at a fixed time the key ranges of
                // the leaves containing that time are disjoint, so no leaf
                // can contribute a stale answer for a key it does not own.
                //
                // Entries are sorted by (key, version order): binary-search
                // that run in the image, then walk it once. Within a key the
                // governing version — newest commit at or below `ts` — is
                // the last one that qualifies, and only its value is copied
                // out of the leaf.
                let mut emit = |v: VersionRef<'_>| {
                    if let Some(value) = v.value {
                        let key = v.to_key();
                        if data.key_range.contains(&key) {
                            out.insert(key, value.to_vec());
                        }
                    }
                };
                let mut governing: Option<VersionRef<'_>> = None;
                for v in data.versions_in(range) {
                    if let Some(previous) = governing.filter(|g| g.key != v.key) {
                        emit(previous);
                        governing = None;
                    }
                    if v.commit_time().is_some_and(|t| t <= ts) {
                        governing = Some(v);
                    }
                }
                if let Some(last) = governing {
                    emit(last);
                }
            }
            Node::Index(index) => {
                // Current children: one binary-searched contiguous run
                // instead of a filter over every entry. The descent into an
                // adjacent leaf therefore reuses this node's routing work —
                // no per-key-group re-descent, no historical-region scan at
                // all for a current-time query.
                for entry in index.current_children_overlapping(range) {
                    if entry.time_range.contains(ts) {
                        self.scan_node(entry.child, range, ts, visited, out)?;
                    }
                }
                // Historical children can only govern past-time queries:
                // their closed time ranges never contain MAX.
                if ts != Timestamp::MAX {
                    for entry in index.historical_region() {
                        if entry.key_overlaps(range) && entry.time_range.contains(ts) {
                            self.scan_node(entry.child, range, ts, visited, out)?;
                        }
                    }
                }
            }
        }
        Ok(())
    }

    /// A full-database snapshot as of `ts`: every key alive at that time with
    /// its governing value, in key order.
    pub(crate) fn snapshot_at(&self, ts: Timestamp) -> TsbResult<Vec<(Key, Vec<u8>)>> {
        self.scan_as_of(&KeyRange::full(), ts)
    }

    /// Every key currently alive with its newest committed value, in key
    /// order.
    pub(crate) fn scan_current(&self, range: &KeyRange) -> TsbResult<Vec<(Key, Vec<u8>)>> {
        // "Now" routes to the current nodes; any timestamp at or past the
        // newest commit works, and MAX is simplest.
        self.scan_as_of(range, Timestamp::MAX)
    }

    /// Number of keys alive in `range` as of `ts`.
    pub(crate) fn count_as_of(&self, range: &KeyRange, ts: Timestamp) -> TsbResult<usize> {
        Ok(self.scan_as_of(range, ts)?.len())
    }

    /// Every committed version of `key`, oldest first, tombstones included —
    /// the paper's "find all past versions of a given record". Redundant
    /// copies created by time splits are reported once.
    pub(crate) fn versions(&self, key: &Key) -> TsbResult<Vec<Version>> {
        self.history_between(key, TimeRange::full())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsb_common::{SplitPolicyKind, TsbConfig};

    fn build_tree(policy: SplitPolicyKind) -> (TsbTree, Vec<(u64, Timestamp, String)>) {
        let cfg = TsbConfig::small_pages().with_split_policy(policy);
        let tree = crate::TsbOptions::in_memory()
            .config(cfg)
            .open_tree()
            .unwrap();
        let mut log = Vec::new();
        for i in 0..240u64 {
            let key = i % 24;
            let value = format!("k{key}-gen{}", i / 24);
            let ts = tree.insert(key, value.clone().into_bytes()).unwrap().0;
            log.push((key, ts, value));
        }
        (tree, log)
    }

    #[test]
    fn snapshot_reconstructs_past_states() {
        let (tree, log) = build_tree(SplitPolicyKind::default());
        // Snapshot at the midpoint of history: keys written at or before the
        // midpoint are present with their then-current values.
        let mid_idx = log.len() / 2;
        let mid_ts = log[mid_idx].1;
        let snap = tree.snapshot_at(mid_ts).unwrap();
        let mut expected: BTreeMap<u64, String> = BTreeMap::new();
        for (key, ts, value) in &log {
            if *ts <= mid_ts {
                expected.insert(*key, value.clone());
            }
        }
        assert_eq!(snap.len(), expected.len());
        for (k, v) in snap {
            let key = k.as_u64().unwrap();
            assert_eq!(v, expected[&key].clone().into_bytes());
        }
    }

    #[test]
    fn range_scans_respect_bounds_and_time() {
        let (tree, _) = build_tree(SplitPolicyKind::TimePreferring);
        let range = KeyRange::bounded(Key::from_u64(5), Key::from_u64(15));
        let rows = tree.scan_current(&range).unwrap();
        assert_eq!(rows.len(), 10);
        assert!(rows.iter().all(|(k, _)| range.contains(k)));
        // Keys come back sorted.
        let keys: Vec<u64> = rows.iter().map(|(k, _)| k.as_u64().unwrap()).collect();
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(keys, sorted);
        // Before anything was written the snapshot is empty.
        assert!(tree.snapshot_at(Timestamp::ZERO).unwrap().is_empty());
    }

    #[test]
    fn version_history_is_complete_and_deduplicated() {
        let (tree, log) = build_tree(SplitPolicyKind::TimePreferring);
        for key in 0..24u64 {
            let expected: Vec<_> = log.iter().filter(|(k, _, _)| *k == key).collect();
            let versions = tree.versions(&Key::from_u64(key)).unwrap();
            assert_eq!(versions.len(), expected.len(), "key {key}");
            // Oldest first, and values match the insertion log.
            for (v, (_, ts, value)) in versions.iter().zip(expected.iter()) {
                assert_eq!(v.commit_time().unwrap(), *ts);
                assert_eq!(v.value.as_ref().unwrap(), &value.clone().into_bytes());
            }
        }
        assert!(tree.versions(&Key::from_u64(999)).unwrap().is_empty());
    }

    #[test]
    fn deleted_keys_vanish_from_snapshots_but_keep_history() {
        let cfg = TsbConfig::small_pages();
        let tree = crate::TsbOptions::in_memory()
            .config(cfg)
            .open_tree()
            .unwrap();
        for i in 0..10u64 {
            tree.insert(i, format!("v{i}").into_bytes()).unwrap();
        }
        let before_delete = tree.now();
        tree.delete(3u64).unwrap();
        let current = tree.scan_current(&KeyRange::full()).unwrap();
        assert_eq!(current.len(), 9);
        assert!(!current.iter().any(|(k, _)| k.as_u64() == Some(3)));
        // The snapshot before the delete still has it.
        let past = tree.snapshot_at(before_delete.prev()).unwrap();
        assert_eq!(past.len(), 10);
        // And the tombstone shows up in the version history.
        let history = tree.versions(&Key::from_u64(3)).unwrap();
        assert_eq!(history.len(), 2);
        assert!(history.last().unwrap().is_tombstone());
    }

    #[test]
    fn count_as_of_tracks_database_growth() {
        let (tree, log) = build_tree(SplitPolicyKind::default());
        let quarter = log[log.len() / 4].1;
        let half = log[log.len() / 2].1;
        let c1 = tree.count_as_of(&KeyRange::full(), quarter).unwrap();
        let c2 = tree.count_as_of(&KeyRange::full(), half).unwrap();
        let c3 = tree.count_as_of(&KeyRange::full(), Timestamp::MAX).unwrap();
        assert!(c1 <= c2 && c2 <= c3);
        assert_eq!(c3, 24);
    }
}
