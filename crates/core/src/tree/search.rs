//! Point lookups: the current version of a key, and the version governing an
//! arbitrary past time (§2.2, §2.5 — the search algorithm is "exactly the
//! same as in the WOBT": one root-to-leaf path per lookup).
//!
//! With explicit rectangles the descent is direct: at each index node follow
//! the unique entry whose rectangle contains `(key, ts)`. For current
//! lookups `ts` is "the end of time" (`Timestamp::MAX`), which always routes
//! to current children.

use tsb_common::{Key, Timestamp, TsbError, TsbResult, Version};
use tsb_storage::PageId;

use crate::node::Node;

use super::{DataRef, TsbTree};

impl TsbTree {
    /// Descends to the data node responsible for `(key, ts)`, returning a
    /// shared handle to it (no decode, no copy, when the path is cached).
    pub(crate) fn descend(&self, key: &Key, ts: Timestamp) -> TsbResult<DataRef> {
        let mut addr = self.current_root();
        loop {
            let node = self.read_node(addr)?;
            let next = match &*node {
                Node::Data(_) => None,
                Node::Index(index) => {
                    let entry = index.find_child(key, ts).ok_or_else(|| {
                        TsbError::corruption(format!(
                            "index node {} x {} has no child containing (key {key}, time {ts})",
                            index.key_range, index.time_range
                        ))
                    })?;
                    Some(entry.child)
                }
            };
            match next {
                Some(child) => addr = child,
                None => return Ok(DataRef(node)),
            }
        }
    }

    /// Descends to the *current* data node responsible for `key`, returning
    /// the page id alongside the node (used by transaction commit/abort,
    /// which must rewrite the leaf in place).
    pub(crate) fn descend_to_current_leaf(&self, key: &Key) -> TsbResult<(PageId, DataRef)> {
        let mut addr = self.current_root();
        loop {
            let node = self.read_node(addr)?;
            let next = match &*node {
                Node::Data(_) => None,
                Node::Index(index) => {
                    let entry = index.find_child(key, Timestamp::MAX).ok_or_else(|| {
                        TsbError::corruption(format!(
                            "index node {} x {} has no current child for key {key}",
                            index.key_range, index.time_range
                        ))
                    })?;
                    Some(entry.child)
                }
            };
            match next {
                Some(child) => addr = child,
                None => {
                    let page = addr.as_page().ok_or_else(|| {
                        TsbError::internal("current-leaf descent ended at a historical node")
                    })?;
                    return Ok((page, DataRef(node)));
                }
            }
        }
    }

    /// Returns the newest committed value of `key`, or `None` if the key has
    /// never been written or its newest version is a tombstone.
    pub(crate) fn get_current(&self, key: &Key) -> TsbResult<Option<Vec<u8>>> {
        let leaf = self.descend(key, Timestamp::MAX)?;
        Ok(leaf
            .find_latest_committed(key)
            .and_then(|v| v.value)
            .map(<[u8]>::to_vec))
    }

    /// Returns the value of `key` as of time `ts` — the value written by the
    /// last transaction that committed at or before `ts` (stepwise-constant
    /// semantics, Figure 1). `None` if the key did not exist at `ts` or was
    /// deleted by then.
    pub(crate) fn get_as_of(&self, key: &Key, ts: Timestamp) -> TsbResult<Option<Vec<u8>>> {
        let leaf = self.descend(key, ts)?;
        Ok(leaf
            .find_as_of(key, ts)
            .and_then(|v| v.value)
            .map(<[u8]>::to_vec))
    }

    /// Returns the full version record governing `(key, ts)`, tombstones
    /// included. `None` if the key did not exist at `ts`.
    pub(crate) fn get_version_as_of(&self, key: &Key, ts: Timestamp) -> TsbResult<Option<Version>> {
        let leaf = self.descend(key, ts)?;
        Ok(leaf.find_as_of(key, ts).map(|v| v.to_version()))
    }

    /// The uncommitted version of `key` written by an in-flight transaction,
    /// if any: what a transactional write conflicts with.
    pub(crate) fn pending_version(&self, key: &Key) -> TsbResult<Option<Version>> {
        let leaf = self.descend(key, Timestamp::MAX)?;
        Ok(leaf.find_uncommitted(key).map(|v| v.to_version()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::NodeAddr;
    use tsb_common::{SplitPolicyKind, TsbConfig};

    impl TsbTree {
        /// Returns the path of node addresses visited by a lookup of
        /// `(key, ts)`, root first.
        fn lookup_path(&self, key: &Key, ts: Timestamp) -> TsbResult<Vec<NodeAddr>> {
            let mut addr = self.current_root();
            let mut path = vec![addr];
            loop {
                match &*self.read_node(addr)? {
                    Node::Data(_) => return Ok(path),
                    Node::Index(index) => {
                        let entry = index.find_child(key, ts).ok_or_else(|| {
                            TsbError::corruption(format!(
                                "index node {} x {} has no child containing (key {key}, time {ts})",
                                index.key_range, index.time_range
                            ))
                        })?;
                        addr = entry.child;
                        path.push(addr);
                    }
                }
            }
        }
    }

    fn tree_with_history() -> (TsbTree, Vec<(u64, Timestamp, String)>) {
        let cfg = TsbConfig::small_pages().with_split_policy(SplitPolicyKind::default());
        let tree = crate::TsbOptions::in_memory()
            .config(cfg)
            .open_tree()
            .unwrap();
        let mut log = Vec::new();
        for i in 0..300u64 {
            let key = i % 30;
            let value = format!("k{key}-gen{}", i / 30);
            let ts = tree.insert(key, value.clone().into_bytes()).unwrap().0;
            log.push((key, ts, value));
        }
        (tree, log)
    }

    #[test]
    fn current_lookup_returns_the_newest_version() {
        let (tree, log) = tree_with_history();
        for key in 0..30u64 {
            let expected = log
                .iter()
                .filter(|(k, _, _)| *k == key)
                .map(|(_, _, v)| v.clone())
                .next_back()
                .unwrap();
            assert_eq!(
                tree.get_current(&Key::from_u64(key)).unwrap().unwrap(),
                expected.into_bytes()
            );
        }
        assert!(tree.get_current(&Key::from_u64(999)).unwrap().is_none());
        assert!(tree.get_current(&Key::from_u64(3)).unwrap().is_some());
    }

    #[test]
    fn as_of_lookup_replays_every_point_in_history() {
        let (tree, log) = tree_with_history();
        // At each recorded timestamp, the governing version of that key is
        // the one written at exactly that timestamp.
        for (key, ts, value) in &log {
            assert_eq!(
                tree.get_as_of(&Key::from_u64(*key), *ts).unwrap().unwrap(),
                value.clone().into_bytes()
            );
        }
        // Before the first write of a key, it does not exist.
        let first_ts = log.iter().find(|(k, _, _)| *k == 29).unwrap().1;
        assert!(tree
            .get_as_of(&Key::from_u64(29), first_ts.prev())
            .unwrap()
            .is_none());
    }

    #[test]
    fn as_of_between_versions_returns_the_earlier_one() {
        let cfg = TsbConfig::small_pages();
        let tree = crate::TsbOptions::in_memory()
            .config(cfg)
            .open_tree()
            .unwrap();
        let t1 = tree.insert(1u64, b"v1".to_vec()).unwrap().0;
        // Unrelated activity advances the clock.
        for i in 100..120u64 {
            tree.insert(i, b"filler".to_vec()).unwrap();
        }
        let t2 = tree.insert(1u64, b"v2".to_vec()).unwrap().0;
        let mid = Timestamp((t1.value() + t2.value()) / 2);
        assert_eq!(
            tree.get_as_of(&Key::from_u64(1), mid).unwrap().unwrap(),
            b"v1".to_vec()
        );
        assert_eq!(
            tree.get_as_of(&Key::from_u64(1), t2).unwrap().unwrap(),
            b"v2".to_vec()
        );
    }

    #[test]
    fn lookup_path_runs_root_to_leaf() {
        let (tree, log) = tree_with_history();
        let (key, ts, _) = &log[log.len() / 2];
        let path = tree.lookup_path(&Key::from_u64(*key), *ts).unwrap();
        assert!(
            path.len() >= 2,
            "the tree should have grown at least one level"
        );
        // The last element of the path is a data node.
        let last = *path.last().unwrap();
        assert!(matches!(&*tree.read_node(last).unwrap(), Node::Data(_)));
    }

    #[test]
    fn pending_version_reports_uncommitted_writes() {
        let cfg = TsbConfig::small_pages();
        let tree = crate::TsbOptions::in_memory()
            .config(cfg)
            .open_tree()
            .unwrap();
        tree.insert(1u64, b"committed".to_vec()).unwrap();
        assert!(tree.pending_version(&Key::from_u64(1)).unwrap().is_none());
        let txn = tree.begin_txn();
        tree.txn_insert(txn, 1u64, b"pending".to_vec()).unwrap();
        let pending = tree.pending_version(&Key::from_u64(1)).unwrap().unwrap();
        assert!(pending.state.is_uncommitted());
        tree.abort_txn(txn).unwrap();
        assert!(tree.pending_version(&Key::from_u64(1)).unwrap().is_none());
    }
}
