//! Time-travel queries over key × time rectangles.
//!
//! The rectangle organisation of the TSB-tree makes "what happened to these
//! keys during this time interval" a first-class query. Every query here is
//! one walk of the rectangle `keys × window`: at an index node it follows
//! only the entries whose rectangle overlaps the query's
//! ([`crate::node::IndexNode::children_overlapping`]); at a leaf it
//! binary-searches to the first key and reports the committed versions
//! whose commit time lies in the window.
//!
//! * [`TsbTree::history_between`] — every version of one key committed in a
//!   time interval (an account statement for a quarter),
//! * [`TsbTree::versions`] — the same over all of time,
//! * [`TsbTree::scan_versions`] — every version of every key in a key range
//!   committed in a time interval (an audit log extract),
//! * [`TsbTree::changed_keys_between`] — the set of keys that changed in an
//!   interval (incremental backup / change data capture),
//! * [`TsbTree::version_count`] — number of committed versions stored for a
//!   key (diagnostics and tests).
//!
//! **Why overlap suffices.** A version committed at `t` is stored in the
//! leaf whose rectangle contains `(key, t)` — the leaf `get_as_of(key, t)`
//! reaches. It can also sit in a later leaf as the time-split rule's copy
//! of the version valid at the split time, so the walk may meet it twice;
//! results are sorted and deduplicated on `(key, commit time)`.
//!
//! **Cost.** Nodes read ∝ (share of the time axis the window covers) ×
//! (share of the key space the keys cover), plus one root-to-leaf path: a
//! 10 % window over one key reads about a tenth of the leaves that ever held
//! the key, where a walk that ignored the window would read them all.

use std::collections::HashSet;

use tsb_common::{Key, KeyRange, TimeRange, TsbResult, Version};

use crate::node::{Node, NodeAddr, VersionRef};

use super::TsbTree;

impl TsbTree {
    /// Every committed version of `key` whose commit time lies in `window`,
    /// oldest first. Tombstones are included (they are part of the history).
    pub(crate) fn history_between(&self, key: &Key, window: TimeRange) -> TsbResult<Vec<Version>> {
        self.scan_versions(&KeyRange::point(key), window)
    }

    /// Every committed version of every key in `keys` whose commit time lies
    /// in `window`, ordered by key and then commit time. Redundant copies
    /// created by time splits are reported once.
    pub(crate) fn scan_versions(
        &self,
        keys: &KeyRange,
        window: TimeRange,
    ) -> TsbResult<Vec<Version>> {
        let mut out = self.collect_rectangle(keys, &window, |v| v.to_version())?;
        out.sort_by(Version::sort_cmp);
        out.dedup_by(|a, b| a.sort_key() == b.sort_key());
        Ok(out)
    }

    /// The distinct keys in `keys` that had at least one committed change
    /// (insert, update, or delete) during `window`, in key order.
    pub(crate) fn changed_keys_between(
        &self,
        keys: &KeyRange,
        window: TimeRange,
    ) -> TsbResult<Vec<Key>> {
        let mut changed = self.collect_rectangle(keys, &window, |v| v.to_key())?;
        changed.sort();
        changed.dedup();
        Ok(changed)
    }

    /// Number of committed versions stored for `key` (0 if never written).
    pub(crate) fn version_count(&self, key: &Key) -> TsbResult<usize> {
        let everything = TimeRange::full();
        let mut times =
            self.collect_rectangle(&KeyRange::point(key), &everything, |v| v.commit_time())?;
        times.sort();
        times.dedup();
        Ok(times.len())
    }

    /// Walks `keys × window` and returns `pick` of every stored copy of
    /// every committed version inside it, in no particular order.
    fn collect_rectangle<T>(
        &self,
        keys: &KeyRange,
        window: &TimeRange,
        pick: impl Fn(VersionRef<'_>) -> T,
    ) -> TsbResult<Vec<T>> {
        let mut out = Vec::new();
        let mut visited = HashSet::new();
        let mut visit = |v: VersionRef<'_>| out.push(pick(v));
        self.walk_rectangle(self.current_root(), keys, window, &mut visited, &mut visit)?;
        Ok(out)
    }

    fn walk_rectangle(
        &self,
        addr: NodeAddr,
        keys: &KeyRange,
        window: &TimeRange,
        visited: &mut HashSet<NodeAddr>,
        visit: &mut dyn FnMut(VersionRef<'_>),
    ) -> TsbResult<()> {
        // The tree is a DAG: a historical child can hang under two parents.
        if !visited.insert(addr) {
            return Ok(());
        }
        match &*self.read_node(addr)? {
            Node::Data(data) => {
                data.versions_in(keys)
                    .filter(|v| v.commit_time().is_some_and(|t| window.contains(t)))
                    .for_each(visit);
            }
            Node::Index(index) => {
                for entry in index.children_overlapping(keys, window) {
                    self.walk_rectangle(entry.child, keys, window, visited, visit)?;
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsb_common::{SplitPolicyKind, Timestamp, TsbConfig};

    /// Reference for the rectangle walk: every stored version, read by
    /// visiting every node whatever its rectangle. Kept, like
    /// `find_child_linear`, so the pruned walk always has an unpruned answer
    /// to be checked against.
    fn unpruned_walk(tree: &TsbTree) -> Vec<Version> {
        fn walk(
            tree: &TsbTree,
            addr: NodeAddr,
            seen: &mut HashSet<NodeAddr>,
            out: &mut Vec<Version>,
        ) {
            if !seen.insert(addr) {
                return;
            }
            match &*tree.read_node(addr).unwrap() {
                Node::Data(data) => out.extend(data.to_versions()),
                Node::Index(index) => {
                    for entry in index.iter() {
                        walk(tree, entry.child, seen, out);
                    }
                }
            }
        }
        let mut out = Vec::new();
        walk(tree, tree.current_root(), &mut HashSet::new(), &mut out);
        out.sort_by(Version::sort_cmp);
        out.dedup();
        out
    }

    /// The committed versions of `stored` inside `keys` x `window`.
    fn clip(stored: &[Version], keys: &KeyRange, window: &TimeRange) -> Vec<Version> {
        stored
            .iter()
            .filter(|v| {
                keys.contains(&v.key) && v.commit_time().is_some_and(|t| window.contains(t))
            })
            .cloned()
            .collect()
    }

    #[test]
    fn pruned_walk_equals_the_unpruned_reference_under_every_policy() {
        for policy in [
            SplitPolicyKind::WobtLike,
            SplitPolicyKind::TimePreferring,
            SplitPolicyKind::KeyPreferring,
            SplitPolicyKind::KeyOnly,
            SplitPolicyKind::CostBased,
            SplitPolicyKind::default(),
        ] {
            let cfg = TsbConfig::small_pages().with_split_policy(policy);
            let tree = crate::TsbOptions::in_memory()
                .config(cfg)
                .open_tree()
                .unwrap();
            // 24 keys x 30 generations, every seventh write a delete, and an
            // uncommitted write left pending (never part of any history).
            for i in 0..720u64 {
                if i % 7 == 3 {
                    tree.delete(i % 24).unwrap();
                } else {
                    tree.insert(i % 24, format!("v{i}").into_bytes()).unwrap();
                }
            }
            let txn = tree.begin_txn();
            tree.txn_insert(txn, 5u64, b"pending".to_vec()).unwrap();
            tree.verify().unwrap();
            let now = tree.now().value();
            let stored = unpruned_walk(&tree);

            let bounds = [0, 1, now / 10, now / 2, now, now + 5];
            let key_cuts = [0u64, 5, 6, 12, 24, 99];
            for lo in bounds {
                for hi in bounds {
                    let window = TimeRange::bounded(Timestamp(lo), Timestamp(hi));
                    for k in key_cuts {
                        let key = Key::from_u64(k);
                        assert_eq!(
                            tree.history_between(&key, window).unwrap(),
                            clip(&stored, &KeyRange::point(&key), &window),
                            "{policy:?} key {k} window {window}"
                        );
                        for k_hi in key_cuts {
                            let keys = KeyRange::bounded(key.clone(), Key::from_u64(k_hi));
                            let expected = clip(&stored, &keys, &window);
                            assert_eq!(
                                tree.scan_versions(&keys, window).unwrap(),
                                expected,
                                "{policy:?} keys {keys} window {window}"
                            );
                            let mut changed: Vec<Key> =
                                expected.into_iter().map(|v| v.key).collect();
                            changed.dedup();
                            assert_eq!(tree.changed_keys_between(&keys, window).unwrap(), changed);
                        }
                    }
                }
            }
            for k in key_cuts {
                let key = Key::from_u64(k);
                let all = clip(&stored, &KeyRange::point(&key), &TimeRange::full());
                assert_eq!(tree.version_count(&key).unwrap(), all.len());
                assert_eq!(tree.versions(&key).unwrap(), all);
            }
            tree.abort_txn(txn).unwrap();
        }
    }

    /// 20 keys, 10 generations each; generation g of key k commits at
    /// timestamp g*20 + k + 1 (deterministic via insert_at).
    fn build() -> TsbTree {
        let cfg = TsbConfig::small_pages().with_split_policy(SplitPolicyKind::TimePreferring);
        let mut tree = crate::TsbOptions::in_memory()
            .config(cfg)
            .open_tree()
            .unwrap();
        for gen in 0..10u64 {
            for key in 0..20u64 {
                let ts = Timestamp(gen * 20 + key + 1);
                tree.insert_at(key, format!("k{key}-g{gen}").into_bytes(), ts)
                    .unwrap();
            }
        }
        tree.verify().unwrap();
        tree
    }

    /// CI guard (run in release next to the WAL-size guard): node reads
    /// follow the window. Counter-based on a deterministic build, so it
    /// cannot flake.
    #[test]
    fn history_window_reads_stay_proportional() {
        let tree = crate::TsbOptions::in_memory()
            .config(TsbConfig::small_pages())
            .open_tree()
            .unwrap();
        for gen in 0..80u64 {
            for key in 0..64u64 {
                tree.insert(key, format!("k{key}-g{gen}").into_bytes())
                    .unwrap();
            }
        }
        let now = tree.now().value();
        let historical_reads = |window: TimeRange| {
            let before = tree.io_stats().snapshot();
            for key in 0..64u64 {
                let rows = tree.history_between(&Key::from_u64(key), window).unwrap();
                assert!(!rows.is_empty());
            }
            let delta = tree.io_stats().snapshot().delta_since(&before);
            delta.node_accesses_historical
        };
        let full = historical_reads(TimeRange::full());
        let tenth = historical_reads(TimeRange::bounded(
            Timestamp(now * 45 / 100),
            Timestamp(now * 55 / 100),
        ));
        // 18 308 is what the walk that ignored the window read for this
        // build, whatever the window (PR 12).
        assert!(full <= 18_308, "full window read {full} historical nodes");
        assert!(tenth * 4 <= full, "10% window read {tenth} of {full}");
    }

    #[test]
    fn history_between_clips_to_the_window() {
        let tree = build();
        let key = Key::from_u64(3);
        // Generations 2..=4 of key 3 commit at 44, 64, 84.
        let window = TimeRange::bounded(Timestamp(44), Timestamp(85));
        let history = tree.history_between(&key, window).unwrap();
        assert_eq!(history.len(), 3);
        assert_eq!(
            history
                .iter()
                .map(|v| v.commit_time().unwrap().value())
                .collect::<Vec<_>>(),
            vec![44, 64, 84]
        );
        // Empty window.
        assert!(tree
            .history_between(&key, TimeRange::bounded(Timestamp(45), Timestamp(46)))
            .unwrap()
            .is_empty());
        // Full window returns the whole history.
        assert_eq!(
            tree.history_between(&key, TimeRange::full()).unwrap().len(),
            10
        );
        assert_eq!(tree.version_count(&key).unwrap(), 10);
    }

    #[test]
    fn scan_versions_covers_the_rectangle_exactly() {
        let tree = build();
        let keys = KeyRange::bounded(Key::from_u64(5), Key::from_u64(8)); // keys 5,6,7
        let window = TimeRange::bounded(Timestamp(41), Timestamp(101)); // generations 2,3,4
        let versions = tree.scan_versions(&keys, window).unwrap();
        // 3 keys x 3 generations.
        assert_eq!(versions.len(), 9);
        for v in &versions {
            assert!(keys.contains(&v.key));
            assert!(window.contains(v.commit_time().unwrap()));
        }
        // Sorted by (key, time).
        let sorted = {
            let mut s = versions.clone();
            s.sort_by_key(|v| (v.key.clone(), v.commit_time().unwrap()));
            s
        };
        assert_eq!(versions, sorted);
        // No duplicates despite time-split redundancy in the structure.
        let mut seen = std::collections::HashSet::new();
        for v in &versions {
            assert!(seen.insert((v.key.clone(), v.commit_time().unwrap())));
        }
    }

    #[test]
    fn changed_keys_between_supports_incremental_backup() {
        let cfg = TsbConfig::small_pages();
        let tree = crate::TsbOptions::in_memory()
            .config(cfg)
            .open_tree()
            .unwrap();
        for key in 0..30u64 {
            tree.insert(key, b"initial".to_vec()).unwrap();
        }
        let checkpoint = tree.now();
        // Only keys 10..15 change after the checkpoint; key 12 is deleted.
        for key in 10..15u64 {
            tree.insert(key, b"changed".to_vec()).unwrap();
        }
        tree.delete(12u64).unwrap();
        let changed = tree
            .changed_keys_between(&KeyRange::full(), TimeRange::from(checkpoint))
            .unwrap();
        let changed: Vec<u64> = changed.iter().map(|k| k.as_u64().unwrap()).collect();
        assert_eq!(changed, vec![10, 11, 12, 13, 14]);
        // Nothing changed in an interval entirely in the future.
        assert!(tree
            .changed_keys_between(&KeyRange::full(), TimeRange::from(tree.now()))
            .unwrap()
            .is_empty());
    }

    #[test]
    fn unknown_keys_and_empty_ranges_return_empty_results() {
        let tree = build();
        assert!(tree
            .history_between(&Key::from_u64(999), TimeRange::full())
            .unwrap()
            .is_empty());
        assert_eq!(tree.version_count(&Key::from_u64(999)).unwrap(), 0);
        let empty_range = KeyRange::bounded(Key::from_u64(5), Key::from_u64(5));
        assert!(tree
            .scan_versions(&empty_range, TimeRange::full())
            .unwrap()
            .is_empty());
    }
}
