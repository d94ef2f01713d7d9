//! Insertion, update, logical deletion, and the split / migration machinery.
//!
//! An update in the multiversion database is the insertion of a new version
//! with the same key (§2.1); logical deletion is the insertion of a
//! tombstone version (an extension: the paper's database is non-deleting,
//! and the tombstone stays in history like any version). New versions
//! always land in the *current* node responsible for their key. When a
//! current node overflows its page it is split according to the configured
//! policy:
//!
//! * a **key split** partitions the node in place (the erasable store allows
//!   "normal" B+-tree splitting — §3, §5);
//! * a **time split** consolidates the older versions into a historical node
//!   appended to the WORM store and keeps the rest (plus the rule-3
//!   duplicates) in the same magnetic page — this is the *incremental
//!   migration*, "one node at a time" (§3.1).
//!
//! Splits post replacement index entries to the parent, which may overflow
//! and split in turn (index key splits or local index time splits, §3.5).
//! When the root splits, a new root is created above it.

use tsb_common::encode::size;
use tsb_common::{Key, KeyRange, TimeRange, Timestamp, TsbError, TsbResult, Version};
use tsb_storage::{Lsn, PageId, PageOp};

use crate::node::{DataNode, IndexEntry, IndexNode, Node, NodeAddr};
use crate::split::{
    choose_index_split_key, choose_split_key, local_time_split_point, plan_data_split, SplitPlan,
};

use super::TsbTree;

/// What a recursive insertion reports to its parent.
pub(crate) enum InsertOutcome {
    /// The child absorbed the change.
    Fit,
    /// The child split; the parent must replace its entry for the child with
    /// these entries.
    Split(Vec<IndexEntry>),
}

impl TsbTree {
    /// Inserts a new version of `key` with the next commit timestamp,
    /// returning that timestamp and the position to wait on before
    /// acknowledging the write. If the key already exists this records an
    /// update (the old version remains readable as of its own time). The
    /// caller serializes writers (each shard of a [`crate::ShardedTsb`]
    /// under its writer lock).
    pub(crate) fn insert(
        &self,
        key: impl Into<Key>,
        value: Vec<u8>,
    ) -> TsbResult<(Timestamp, Option<Lsn>)> {
        let ts = self.clock.tick();
        let wait = self.insert_version(Version::committed(key, ts, value))?;
        Ok((ts, wait))
    }

    /// Inserts a new version of `key` with an explicit commit timestamp,
    /// once durable.
    ///
    /// The timestamp must not be older than any timestamp already issued,
    /// and `key` must not already hold a version at exactly `ts` — either
    /// would change an answer a reader may already have seen, so both are
    /// refused with [`TsbError::Config`] before anything is written. The
    /// newest issued timestamp may be reused for another key. The internal
    /// clock is advanced past `ts`. Used by secondary indexes, which
    /// inherit the primary record's timestamp (§3.6).
    pub(crate) fn insert_at(
        &mut self,
        key: impl Into<Key>,
        value: Vec<u8>,
        ts: Timestamp,
    ) -> TsbResult<()> {
        self.insert_version_at(Version::committed(key, ts, value), ts)
    }

    /// Logically deletes `key` by inserting a tombstone version with the
    /// next commit timestamp (see [`Self::insert`]). History remains
    /// readable; only reads at or after the returned timestamp observe the
    /// deletion.
    pub(crate) fn delete(&self, key: impl Into<Key>) -> TsbResult<(Timestamp, Option<Lsn>)> {
        let ts = self.clock.tick();
        let wait = self.insert_version(Version::tombstone(key, ts))?;
        Ok((ts, wait))
    }

    /// Logically deletes `key` at an explicit timestamp (see [`Self::insert_at`]).
    pub(crate) fn delete_at(&mut self, key: impl Into<Key>, ts: Timestamp) -> TsbResult<()> {
        self.insert_version_at(Version::tombstone(key, ts), ts)
    }

    /// Inserts `version`, committed at `ts`, after refusing a timestamp
    /// that would rewrite history: 0, one older than the newest issued,
    /// or one at which the version's key already holds a committed
    /// version.
    fn insert_version_at(&mut self, version: Version, ts: Timestamp) -> TsbResult<()> {
        if ts == Timestamp::ZERO {
            return Err(TsbError::config("timestamp 0 is reserved"));
        }
        let newest = self.clock.now().prev();
        if ts < newest {
            return Err(TsbError::config(format!(
                "timestamp {ts} is older than the newest issued, {newest}"
            )));
        }
        let taken = ts == newest
            && self
                .get_version_as_of(&version.key, ts)?
                .is_some_and(|v| v.state.commit_time() == Some(ts));
        if taken {
            return Err(TsbError::config(format!(
                "key {} already holds a version at {ts}",
                version.key
            )));
        }
        self.clock.advance_to(ts.next());
        let wait = self.insert_version(version)?;
        self.wait_durable_lsn(wait)
    }

    /// Inserts a fully formed version (committed or uncommitted) into the
    /// current node responsible for its key, splitting as needed. When the
    /// insertion splits nodes, the structure epoch is odd from the first
    /// structural write until this method returns (success or error), so
    /// optimistic concurrent readers know to retry.
    ///
    /// On a durable tree the mutation ends with a WAL commit fence
    /// ([`TsbTree::wal_commit`]): all of its page images precede the fence
    /// in the log, so recovery either replays the mutation completely or
    /// discards it completely. Returns the fence's position to wait on.
    pub(crate) fn insert_version(&self, version: Version) -> TsbResult<Option<Lsn>> {
        let fence_ts = version.state.commit_time();
        let result = self
            .insert_version_inner(version)
            .and_then(|()| self.wal_commit(fence_ts.unwrap_or_else(|| self.clock.now().prev())));
        self.settle_structure_after(result.is_err());
        result
    }

    fn insert_version_inner(&self, version: Version) -> TsbResult<()> {
        self.check_not_poisoned()?;
        self.check_entry_size(&version)?;
        let root = self.current_root();
        match self.insert_into(root, version)? {
            InsertOutcome::Fit => Ok(()),
            InsertOutcome::Split(entries) => self.grow_new_root(entries),
        }
    }

    /// Rejects versions that could never fit in a node even after splitting.
    fn check_entry_size(&self, version: &Version) -> TsbResult<()> {
        if version.key.len() > self.cfg.max_key_len {
            return Err(TsbError::KeyTooLarge {
                len: version.key.len(),
                max: self.cfg.max_key_len,
            });
        }
        // Splitting can always isolate a single entry into its own node, so
        // the hard requirement is that one entry plus the worst-case data
        // node header (whose key-range bounds are at most `max_key_len`
        // long) fits in a page.
        let header = 1 + 4 + (4 + self.cfg.max_key_len) + (1 + 4 + self.cfg.max_key_len) + 8 + 9;
        let budget = self.page_capacity().saturating_sub(header);
        let entry = size::version(version);
        if entry > budget {
            return Err(TsbError::EntryTooLarge {
                entry_size: entry,
                capacity: budget,
            });
        }
        Ok(())
    }

    /// Rejects a write that leaves its key more data than any leaf holds.
    /// A key's uncommitted version never migrates (§4) and its live
    /// committed version survives every time split, so no split parts the
    /// two: when they overflow a leaf on their own, even one with the
    /// smallest header, the split would fail after migrating and poison the
    /// tree. Checked on an overflowing `leaf` only, before anything is
    /// logged or migrated.
    fn check_pinned_fit(&self, leaf: &DataNode, key: &Key) -> TsbResult<()> {
        let Some(pending) = leaf.find_uncommitted(key) else {
            return Ok(());
        };
        let live = leaf
            .versions_of(key)
            .filter(|v| v.state.is_committed())
            .last()
            .filter(|v| !v.is_tombstone());
        let pinned = live.into_iter().chain([pending]).map(|v| v.to_version());
        let pinned = DataNode::from_entries(KeyRange::full(), leaf.time_range, pinned.collect());
        let (entry_size, capacity) = (pinned.encoded_size(), self.split_threshold());
        if entry_size > capacity {
            return Err(TsbError::EntryTooLarge {
                entry_size,
                capacity,
            });
        }
        Ok(())
    }

    /// Recursive insertion. `addr` must reference a current node (new data
    /// is never routed to the write-once historical store).
    ///
    /// Nodes are read through the decoded-node cache and cloned only on the
    /// actual write path: the leaf absorbing the version, and each ancestor
    /// whose child actually split.
    fn insert_into(&self, addr: NodeAddr, version: Version) -> TsbResult<InsertOutcome> {
        let page = addr.as_page().ok_or_else(|| {
            TsbError::internal("insertion routed to a historical (write-once) node")
        })?;
        let node = self.read_node(addr)?;
        match &*node {
            Node::Data(data) => {
                // Copy-on-write of the leaf is a copy of its image and its
                // offset table, whatever the entry count.
                let data = data.with_inserted(&version)?;
                let fits = data.encoded_size() <= self.split_threshold();
                if !fits {
                    self.check_pinned_fit(&data, &version.key)?;
                }
                // The whole mutation is this one version landing in this
                // one leaf — exactly what a logical redo delta can say in
                // tens of bytes; the version moves into it.
                let ops = if self.logs_deltas() {
                    vec![PageOp::InsertVersion(version)]
                } else {
                    Vec::new()
                };
                if fits {
                    self.write_current_delta(page, Node::Data(data), ops)?;
                    Ok(InsertOutcome::Fit)
                } else {
                    // The split extends the insert's delta chain with its
                    // own ops; the page's one write logs the whole chain.
                    let entries = self.split_node(Node::Data(data), page, false, ops)?;
                    Ok(InsertOutcome::Split(entries))
                }
            }
            Node::Index(index) => {
                // New versions are routed as of "the end of time": the
                // current child for this key. Only the child address (a
                // `Copy` word pair) leaves the borrow — the entry's key
                // ranges are never cloned on the descent.
                let child = index
                    .find_child(&version.key, Timestamp::MAX)
                    .map(|e| e.child)
                    .ok_or_else(|| {
                        TsbError::corruption(format!(
                            "index node {} x {} has no child for key {} at +inf",
                            index.key_range, index.time_range, version.key
                        ))
                    })?;
                match self.insert_into(child, version)? {
                    InsertOutcome::Fit => Ok(InsertOutcome::Fit),
                    InsertOutcome::Split(replacements) => {
                        let mut index = index.clone();
                        // A child replacement is a content edit of this
                        // index page: one compact delta instead of
                        // re-imaging the whole (typically fullest) node.
                        let ops = if self.logs_deltas() {
                            vec![PageOp::IndexReplaceChild {
                                payload: super::replay::encode_replace_child(&child, &replacements),
                            }]
                        } else {
                            Vec::new()
                        };
                        index.replace_child(&child, replacements)?;
                        if index.encoded_size() <= self.split_threshold() {
                            self.write_current_delta(page, Node::Index(index), ops)?;
                            Ok(InsertOutcome::Fit)
                        } else {
                            let entries = self.split_node(Node::Index(index), page, false, ops)?;
                            Ok(InsertOutcome::Split(entries))
                        }
                    }
                }
            }
        }
    }

    /// Creates a new root index node above the split pieces of the old root.
    fn grow_new_root(&self, entries: Vec<IndexEntry>) -> TsbResult<()> {
        let page = self.allocate_page()?;
        // The epoch goes odd at the first structural *write* — after every
        // fallible pure step (planning, allocation) — so an error that
        // wrote nothing stays a recoverable per-operation error instead of
        // poisoning the tree. Same pattern in both split executors.
        self.note_structural_write();
        let root = IndexNode::from_entries(KeyRange::full(), TimeRange::full(), entries);
        self.write_current(page, Node::Index(root))?;
        self.set_root(NodeAddr::Current(page));
        Ok(())
    }

    // ----- splits ---------------------------------------------------------
    //
    // One key-split executor, one time-split executor and one placement
    // function serve both node kinds; only the *choice* of split is per
    // kind.

    /// Splits an overflowing node held in memory, writing the resulting
    /// nodes to their devices and returning the index entries the parent
    /// should adopt in place of its entry for `page`.
    ///
    /// `forbid_time` breaks potential non-termination when a time split
    /// failed to shrink the node (every entry was duplicated forward).
    /// `ops` is `page`'s delta chain so far: the ops deriving `node` from
    /// the page's logged state. Each split appends its own op, and the
    /// write that installs the page logs the whole chain, so nothing is
    /// logged before the split's first structural write.
    fn split_node(
        &self,
        node: Node,
        page: PageId,
        forbid_time: bool,
        ops: Vec<PageOp>,
    ) -> TsbResult<Vec<IndexEntry>> {
        let plan = match &node {
            Node::Data(data) => self.plan_leaf_split(data, page, forbid_time)?,
            Node::Index(index) => self.plan_index_split(index, forbid_time)?,
        };
        match plan {
            SplitPlan::Key { split_key } => self.key_split(node, page, split_key, ops),
            SplitPlan::Time { split_time } => self.time_split(node, page, split_time, ops),
        }
    }

    /// Chooses how to split an overflowing leaf: the configured policy
    /// ([`plan_data_split`]), a marked child's preference for a time split,
    /// and `forbid_time`.
    fn plan_leaf_split(
        &self,
        node: &DataNode,
        page: PageId,
        forbid_time: bool,
    ) -> TsbResult<SplitPlan> {
        let now = self.clock.now();
        let mut plan = plan_data_split(node, &self.cfg, now, self.page_capacity())?;

        // A child that blocked a local index time split is marked to prefer a
        // time split at its next opportunity (§3.5's optimization). Policies
        // that never migrate by design (the key-only baseline and the
        // key-preferring policy) ignore the marking.
        let policy_migrates = !matches!(
            self.cfg.split_policy,
            tsb_common::SplitPolicyKind::KeyOnly | tsb_common::SplitPolicyKind::KeyPreferring
        );
        let marked = self.marked_for_time_split.lock().contains(&page);
        if marked {
            if policy_migrates {
                if let SplitPlan::Key { .. } = plan {
                    let comp = node.composition();
                    // Honouring the mark only makes sense when the node has
                    // something historical to migrate — a node of pure
                    // insertions is the paper's "time splitting is useless"
                    // boundary case even when marked.
                    if comp.historical_entries > 0 {
                        if let Some(t) = crate::split::choose_split_time(
                            self.cfg.split_time_choice,
                            &comp,
                            node.time_range.lo,
                            now,
                        ) {
                            plan = SplitPlan::Time { split_time: t };
                        }
                    }
                }
            }
            self.marked_for_time_split.lock().remove(&page);
        }
        if forbid_time {
            if let SplitPlan::Time { .. } = plan {
                if let Some(split_key) = choose_split_key(node) {
                    plan = SplitPlan::Key { split_key };
                }
            }
        }
        Ok(plan)
    }

    /// Chooses how to split an overflowing index node: a local time split
    /// when most references are already historical (mirroring the leaf
    /// heuristic) or when no key split is possible, else a keyspace split.
    fn plan_index_split(&self, node: &IndexNode, forbid_time: bool) -> TsbResult<SplitPlan> {
        let time_point = if forbid_time {
            None
        } else {
            local_time_split_point(node)
        };
        let mostly_historical = || {
            let comp = node.composition();
            comp.historical_entries * 2 >= comp.total_entries
        };
        match (time_point, choose_index_split_key(node)) {
            (Some(split_time), None) => Ok(SplitPlan::Time { split_time }),
            (Some(split_time), Some(_)) if mostly_historical() => {
                Ok(SplitPlan::Time { split_time })
            }
            (time_point, Some(split_key)) => {
                if time_point.is_none() && self.cfg.mark_recalcitrant_children {
                    self.mark_blocking_children(node);
                }
                Ok(SplitPlan::Key { split_key })
            }
            (None, None) => Err(TsbError::internal(
                "index node can be neither key split nor time split",
            )),
        }
    }

    /// Marks the current children whose old start times block a local index
    /// time split (Figure 9) so that they prefer a time split next time.
    fn mark_blocking_children(&self, node: &IndexNode) {
        let min_start = node
            .iter()
            .filter(|e| e.is_current())
            .map(|e| e.time_range.lo)
            .min();
        if let Some(min_start) = min_start {
            let mut marked = self.marked_for_time_split.lock();
            for e in node.iter() {
                if e.is_current() && e.time_range.lo == min_start {
                    if let Some(p) = e.child.as_page() {
                        marked.insert(p);
                    }
                }
            }
        }
    }

    /// Key split ([`Node::key_split`]): the old page keeps the low half, a
    /// new page gets the high half. The replacement index entries inherit
    /// the node's time range (Figure 5: "the timestamp in the new index
    /// entry is the same as the timestamp of the previous index entry").
    fn key_split(
        &self,
        node: Node,
        page: PageId,
        split_key: Key,
        mut ops: Vec<PageOp>,
    ) -> TsbResult<Vec<IndexEntry>> {
        let (low, high) = node.key_split(&split_key).ok_or_else(|| {
            TsbError::internal(format!(
                "split key {split_key} outside node key range {}",
                node.key_range()
            ))
        })?;
        let high_page = self.allocate_page()?;
        self.note_structural_write();

        // The old page keeps the low half: derivable from its logged state,
        // so its chain grows by a delta. The new page has no logged base
        // (fresh or recycled), so it starts a chain of its own that is moot
        // — first touch logs the full image.
        let op = |keep_low| match node {
            Node::Data(_) => PageOp::DataKeySplit {
                split_key: split_key.clone(),
                keep_low,
            },
            Node::Index(_) => PageOp::IndexKeySplit {
                split_key: split_key.clone(),
                keep_low,
            },
        };
        ops.push(op(true));
        let high_ops = vec![op(false)];
        let mut out = self.place_node(low, page, false, ops)?;
        out.extend(self.place_node(high, high_page, false, high_ops)?);
        Ok(out)
    }

    /// Time split at `split_time` ([`Node::time_split`]): the older half is
    /// consolidated into a historical node appended to the WORM store; the
    /// newer half (with a leaf's rule-3 duplicates) stays in the same
    /// magnetic page. A leaf whose split would migrate nothing falls back to
    /// a key split; an index node's historical half may hold no current
    /// reference (the choice of `split_time` guarantees it).
    fn time_split(
        &self,
        node: Node,
        page: PageId,
        split_time: Timestamp,
        mut ops: Vec<PageOp>,
    ) -> TsbResult<Vec<IndexEntry>> {
        let (past, current) = node.time_split(split_time);
        if past.len() == 0 {
            let Node::Data(data) = &node else {
                return Err(TsbError::internal(
                    "index time split selected but nothing migrates",
                ));
            };
            // Nothing to migrate; fall back to a key split to make progress.
            let split_key = choose_split_key(data).ok_or_else(|| {
                TsbError::internal(
                    "time split selected but nothing migrates and no key split is possible",
                )
            })?;
            return self.key_split(node, page, split_key, ops);
        }
        if let Node::Index(past) = &past {
            if past.iter().any(|e| e.is_current()) {
                return Err(TsbError::internal(
                    "index time split would place a current reference on the write-once store",
                ));
            }
        }
        let shrank = current.len() < node.len();

        self.note_structural_write();
        let (keys, times) = (past.key_range().clone(), past.time_range());
        let hist_addr = self.append_historical(past)?;
        let hist_entry = IndexEntry::new(keys, times, NodeAddr::Historical(hist_addr));
        // The survivor is a pure partition of the overflowing node: one tiny
        // delta on the chain carries the whole rewrite.
        ops.push(match node {
            Node::Data(_) => PageOp::DataTimeSplit { split_time },
            Node::Index(_) => PageOp::IndexTimeSplit { split_time },
        });
        // A survivor still too big (lots of live data) is split further —
        // the WOBT's "split by key value and current time" corresponds to
        // this path.
        let mut out = vec![hist_entry];
        out.extend(self.place_node(current, page, !shrank, ops)?);
        Ok(out)
    }

    /// Writes a node to `page`, splitting it further (see
    /// [`Self::split_node`] for `forbid_time` and `ops`) if it does not fit.
    /// A page with no logged base ignores `ops` and logs a full image on
    /// first touch.
    fn place_node(
        &self,
        node: Node,
        page: PageId,
        forbid_time: bool,
        ops: Vec<PageOp>,
    ) -> TsbResult<Vec<IndexEntry>> {
        if node.encoded_size() <= self.split_threshold() {
            let child = NodeAddr::Current(page);
            let entry = IndexEntry::new(node.key_range().clone(), node.time_range(), child);
            self.write_current_delta(page, node, ops)?;
            Ok(vec![entry])
        } else {
            self.split_node(node, page, forbid_time, ops)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsb_common::{SplitPolicyKind, SplitTimeChoice, TsbConfig};

    fn small_tree(policy: SplitPolicyKind) -> TsbTree {
        let cfg = TsbConfig::small_pages().with_split_policy(policy);
        crate::TsbOptions::in_memory()
            .config(cfg)
            .open_tree()
            .unwrap()
    }

    #[test]
    fn insert_and_read_back_many_keys_across_splits() {
        let tree = small_tree(SplitPolicyKind::default());
        for i in 0..200u64 {
            tree.insert(i, format!("value-{i}").into_bytes()).unwrap();
        }
        for i in 0..200u64 {
            assert_eq!(
                tree.get_current(&Key::from_u64(i)).unwrap().unwrap(),
                format!("value-{i}").into_bytes(),
                "key {i}"
            );
        }
        // Splits definitely happened: more than one page is allocated.
        assert!(tree.magnetic.allocated_pages() > 2);
    }

    #[test]
    fn updates_preserve_history_across_time_splits() {
        let tree = small_tree(SplitPolicyKind::TimePreferring);
        let mut stamps = Vec::new();
        for round in 0..30u64 {
            let ts = tree
                .insert(7u64, format!("v{round}").into_bytes())
                .unwrap()
                .0;
            stamps.push((ts, round));
        }
        // Every historical version is still reachable as of its own time.
        for (ts, round) in &stamps {
            assert_eq!(
                tree.get_as_of(&Key::from_u64(7), *ts).unwrap().unwrap(),
                format!("v{round}").into_bytes()
            );
        }
        // The repeated updates forced migration to the historical store.
        assert!(tree.worm.sectors_allocated() > 0);
    }

    #[test]
    fn deletes_are_visible_only_from_their_timestamp() {
        let tree = small_tree(SplitPolicyKind::default());
        let t1 = tree.insert(5u64, b"alive".to_vec()).unwrap().0;
        let t2 = tree.delete(5u64).unwrap().0;
        assert!(tree.get_current(&Key::from_u64(5)).unwrap().is_none());
        assert_eq!(
            tree.get_as_of(&Key::from_u64(5), t1).unwrap().unwrap(),
            b"alive".to_vec()
        );
        assert!(tree.get_as_of(&Key::from_u64(5), t2).unwrap().is_none());
    }

    #[test]
    fn insert_at_supports_replayed_timestamps() {
        let mut tree = small_tree(SplitPolicyKind::default());
        tree.insert_at(1u64, b"a".to_vec(), Timestamp(10)).unwrap();
        tree.insert_at(1u64, b"b".to_vec(), Timestamp(20)).unwrap();
        assert_eq!(
            tree.get_as_of(&Key::from_u64(1), Timestamp(15))
                .unwrap()
                .unwrap(),
            b"a".to_vec()
        );
        // The clock has moved past the replayed timestamps.
        assert!(tree.now() > Timestamp(20));
        assert!(tree
            .insert_at(2u64, b"x".to_vec(), Timestamp::ZERO)
            .is_err());
    }

    #[test]
    fn oversized_entries_are_rejected_up_front() {
        let tree = small_tree(SplitPolicyKind::default());
        let huge = vec![0u8; 10_000];
        assert!(matches!(
            tree.insert(1u64, huge),
            Err(TsbError::EntryTooLarge { .. })
        ));
        let long_key = vec![b'k'; 500];
        assert!(matches!(
            tree.insert(long_key, b"v".to_vec()),
            Err(TsbError::KeyTooLarge { .. })
        ));
    }

    #[test]
    fn every_policy_sustains_a_mixed_workload() {
        for policy in [
            SplitPolicyKind::WobtLike,
            SplitPolicyKind::KeyPreferring,
            SplitPolicyKind::TimePreferring,
            SplitPolicyKind::KeyOnly,
            SplitPolicyKind::CostBased,
            SplitPolicyKind::Threshold {
                key_split_live_fraction: 0.6,
            },
        ] {
            let tree = small_tree(policy);
            for i in 0..150u64 {
                let key = i % 25; // 6 versions per key on average
                tree.insert(key, format!("{policy:?}-{i}").into_bytes())
                    .unwrap();
            }
            for key in 0..25u64 {
                assert!(
                    tree.get_current(&Key::from_u64(key)).unwrap().is_some(),
                    "{policy:?} lost key {key}"
                );
            }
            tree.verify().unwrap_or_else(|e| panic!("{policy:?}: {e}"));
        }
    }

    #[test]
    fn last_update_split_time_choice_workload() {
        let cfg = TsbConfig::small_pages()
            .with_split_policy(SplitPolicyKind::TimePreferring)
            .with_split_time_choice(SplitTimeChoice::LastUpdate);
        let tree = crate::TsbOptions::in_memory()
            .config(cfg)
            .open_tree()
            .unwrap();
        for i in 0..120u64 {
            tree.insert(i % 10, format!("v{i}").into_bytes()).unwrap();
        }
        tree.verify().unwrap();
        assert!(tree.worm.sectors_allocated() > 0);
    }
}
