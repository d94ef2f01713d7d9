//! Insertion, update, logical deletion, and the split / migration machinery.
//!
//! An update in the multiversion database is the insertion of a new version
//! with the same key (§2.1); logical deletion is the insertion of a
//! tombstone version (extension — see DESIGN.md). New versions always land
//! in the *current* node responsible for their key. When a current node
//! overflows its page it is split according to the configured policy:
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
use tsb_storage::{PageId, PageOp};

use crate::node::{DataNode, IndexEntry, IndexNode, Node, NodeAddr};
use crate::split::{
    choose_index_split_key, choose_split_key, local_time_split_point, partition_by_key,
    partition_by_time, partition_index_by_key, partition_index_by_time, plan_data_split, SplitPlan,
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
    /// returning that timestamp. If the key already exists this records an
    /// update (the old version remains readable as of its own time).
    pub fn insert(&mut self, key: impl Into<Key>, value: Vec<u8>) -> TsbResult<Timestamp> {
        let result = self.insert_shared(key, value);
        self.settle_durability(result)
    }

    /// [`Self::insert`] against `&self`, for callers that serialize writers
    /// externally ([`crate::ConcurrentTsb`]).
    pub(crate) fn insert_shared(
        &self,
        key: impl Into<Key>,
        value: Vec<u8>,
    ) -> TsbResult<Timestamp> {
        let ts = self.clock.tick();
        self.insert_version(Version::committed(key, ts, value))?;
        Ok(ts)
    }

    /// Inserts a new version of `key` with an explicit commit timestamp.
    ///
    /// The timestamp must not be older than any timestamp already issued;
    /// the internal clock is advanced past `ts`. Used by secondary indexes
    /// (which inherit the primary record's timestamp, §3.6) and by loaders
    /// replaying a history.
    pub fn insert_at(
        &mut self,
        key: impl Into<Key>,
        value: Vec<u8>,
        ts: Timestamp,
    ) -> TsbResult<()> {
        let result = self.insert_at_shared(key, value, ts);
        self.settle_durability(result)
    }

    /// [`Self::insert_at`] against `&self` (externally serialized writers).
    pub(crate) fn insert_at_shared(
        &self,
        key: impl Into<Key>,
        value: Vec<u8>,
        ts: Timestamp,
    ) -> TsbResult<()> {
        if ts == Timestamp::ZERO {
            return Err(TsbError::config("timestamp 0 is reserved"));
        }
        self.clock.advance_to(ts.next());
        self.insert_version(Version::committed(key, ts, value))
    }

    /// Logically deletes `key` by inserting a tombstone version with the next
    /// commit timestamp. History remains readable; only reads at or after
    /// the returned timestamp observe the deletion.
    pub fn delete(&mut self, key: impl Into<Key>) -> TsbResult<Timestamp> {
        let result = self.delete_shared(key);
        self.settle_durability(result)
    }

    /// [`Self::delete`] against `&self` (externally serialized writers).
    pub(crate) fn delete_shared(&self, key: impl Into<Key>) -> TsbResult<Timestamp> {
        let ts = self.clock.tick();
        self.insert_version(Version::tombstone(key, ts))?;
        Ok(ts)
    }

    /// Logically deletes `key` at an explicit timestamp (see [`Self::insert_at`]).
    pub fn delete_at(&mut self, key: impl Into<Key>, ts: Timestamp) -> TsbResult<()> {
        let result = self.delete_at_shared(key, ts);
        self.settle_durability(result)
    }

    /// [`Self::delete_at`] against `&self` (externally serialized writers).
    pub(crate) fn delete_at_shared(&self, key: impl Into<Key>, ts: Timestamp) -> TsbResult<()> {
        if ts == Timestamp::ZERO {
            return Err(TsbError::config("timestamp 0 is reserved"));
        }
        self.clock.advance_to(ts.next());
        self.insert_version(Version::tombstone(key, ts))
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
    /// discards it completely.
    pub(crate) fn insert_version(&self, version: Version) -> TsbResult<()> {
        let fence_ts = version.state.commit_time();
        let result = self
            .insert_version_inner(version)
            .and_then(|()| self.wal_commit(fence_ts.unwrap_or_else(|| self.clock.now().prev())));
        if result.is_err() {
            // A recoverable failure (no structural write landed) may still
            // have logged pending split deltas; disown them so the next
            // fence supersedes them instead of making them replayable.
            self.quarantine_pending_deltas();
        }
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
                // The whole mutation is this one version landing in this
                // one leaf — exactly what a logical redo delta can say in
                // tens of bytes; the version moves into it.
                let ops = if self.logs_deltas() {
                    vec![PageOp::InsertVersion(version)]
                } else {
                    Vec::new()
                };
                if data.encoded_size() <= self.split_threshold() {
                    self.write_current_delta(page, Node::Data(data), ops)?;
                    Ok(InsertOutcome::Fit)
                } else {
                    // The split's own deltas describe partitions of the
                    // *post-insert* node, so the insert must be in the log
                    // first (as a pending delta of the in-flight state).
                    if self.pending_ops_allowed(page) {
                        self.wal_append_ops(page, ops)?;
                    }
                    let entries = self.split_data_node(data, page, false)?;
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
                            if self.pending_ops_allowed(page) {
                                self.wal_append_ops(page, ops)?;
                            }
                            let entries = self.split_index_node(index, page, false)?;
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
        // poisoning the tree. Same pattern in every execute_* split path.
        self.note_structural_write();
        let root = IndexNode::from_entries(KeyRange::full(), TimeRange::full(), entries);
        self.write_current(page, Node::Index(root))?;
        self.set_root(NodeAddr::Current(page));
        Ok(())
    }

    // ----- data node splits ----------------------------------------------

    /// Splits an overflowing data node held in memory, writing the resulting
    /// nodes to their devices and returning the index entries the parent
    /// should adopt in place of its entry for `page`.
    ///
    /// `forbid_time` breaks potential non-termination when a time split
    /// failed to shrink the node (every entry was duplicated forward).
    pub(crate) fn split_data_node(
        &self,
        node: DataNode,
        page: PageId,
        forbid_time: bool,
    ) -> TsbResult<Vec<IndexEntry>> {
        let now = self.clock.now();
        let mut plan = plan_data_split(&node, &self.cfg, now, self.page_capacity())?;

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
                if let Some(split_key) = choose_split_key(&node) {
                    plan = SplitPlan::Key { split_key };
                }
            }
        }

        match plan {
            SplitPlan::Key { split_key } => self.execute_data_key_split(node, page, split_key),
            SplitPlan::Time { split_time } => self.execute_data_time_split(node, page, split_time),
        }
    }

    /// Pure key split: the old page keeps the low half, a new page gets the
    /// high half. The replacement index entries inherit the node's time
    /// range (Figure 5: "the timestamp in the new index entry is the same as
    /// the timestamp of the previous index entry").
    fn execute_data_key_split(
        &self,
        node: DataNode,
        page: PageId,
        split_key: Key,
    ) -> TsbResult<Vec<IndexEntry>> {
        if !node.key_range.strictly_contains(&split_key) {
            return Err(TsbError::internal(format!(
                "split key {split_key} outside node key range {}",
                node.key_range
            )));
        }
        let (left_entries, right_entries) = partition_by_key(&node.to_versions(), &split_key);
        let (left_range, right_range) = node
            .key_range
            .split_at(&split_key)
            .ok_or_else(|| TsbError::internal("key range refused to split"))?;
        let left = DataNode::from_entries(left_range, node.time_range, left_entries);
        let right = DataNode::from_entries(right_range, node.time_range, right_entries);
        let right_page = self.allocate_page()?;
        self.note_structural_write();

        // The old page keeps the low half: derivable from its logged state,
        // so a delta suffices. The new page has no logged base (fresh or
        // recycled), so its op is moot — first touch logs the full image.
        let mut out = Vec::new();
        out.extend(self.place_data_node(
            left,
            page,
            Some(PageOp::DataKeySplit {
                split_key: split_key.clone(),
                keep_low: true,
            }),
        )?);
        out.extend(self.place_data_node(
            right,
            right_page,
            Some(PageOp::DataKeySplit {
                split_key,
                keep_low: false,
            }),
        )?);
        Ok(out)
    }

    /// Time split at `split_time`: the older versions are consolidated into a
    /// historical node appended to the WORM store; the newer versions (and
    /// the rule-3 duplicates) stay in the same magnetic page.
    fn execute_data_time_split(
        &self,
        node: DataNode,
        page: PageId,
        split_time: Timestamp,
    ) -> TsbResult<Vec<IndexEntry>> {
        let parts = partition_by_time(&node.to_versions(), split_time);
        if parts.historical.is_empty() {
            // Nothing to migrate; fall back to a key split to make progress.
            return match choose_split_key(&node) {
                Some(k) => self.execute_data_key_split(node, page, k),
                None => Err(TsbError::internal(
                    "time split selected but nothing migrates and no key split is possible",
                )),
            };
        }
        let shrank = parts.current.len() < node.len();

        let hist_tr = TimeRange::bounded(node.time_range.lo, split_time);
        let hist_node = DataNode::from_entries(node.key_range.clone(), hist_tr, parts.historical);
        self.note_structural_write();
        let hist_addr = self.append_historical(Node::Data(hist_node))?;
        let hist_entry = IndexEntry::new(
            node.key_range.clone(),
            hist_tr,
            NodeAddr::Historical(hist_addr),
        );

        let current = DataNode::from_entries(
            node.key_range.clone(),
            TimeRange::new(split_time, node.time_range.hi),
            parts.current,
        );

        // The survivor is a pure partition of the (already logged) overflowing
        // node: one tiny delta carries the whole rewrite.
        let op = PageOp::DataTimeSplit { split_time };
        let mut out = vec![hist_entry];
        if current.encoded_size() <= self.split_threshold() {
            self.write_current_delta(page, Node::Data(current), vec![op])?;
            out.push(IndexEntry::new(
                node.key_range,
                TimeRange::new(split_time, node.time_range.hi),
                NodeAddr::Current(page),
            ));
        } else {
            // Still too big (lots of live data): follow with a further split
            // of the surviving current node — the WOBT's "split by key value
            // and current time" corresponds to this path. The follow-up
            // split's deltas partition the *survivor*, so the time split
            // goes into the log first as a pending delta.
            if self.pending_ops_allowed(page) {
                self.wal_append_ops(page, vec![op])?;
            }
            out.extend(self.split_data_node(current, page, !shrank)?);
        }
        Ok(out)
    }

    /// Writes a data node to `page`, splitting it further if it does not
    /// fit. `op` is the logical delta describing how the node was derived
    /// from the page's previous (logged) state, when it was; pages with no
    /// logged base ignore it and log a full image on first touch.
    fn place_data_node(
        &self,
        node: DataNode,
        page: PageId,
        op: Option<PageOp>,
    ) -> TsbResult<Vec<IndexEntry>> {
        if node.encoded_size() <= self.split_threshold() {
            let entry = IndexEntry::new(
                node.key_range.clone(),
                node.time_range,
                NodeAddr::Current(page),
            );
            self.write_current_delta(page, Node::Data(node), op.into_iter().collect())?;
            Ok(vec![entry])
        } else {
            if let Some(op) = op {
                if self.pending_ops_allowed(page) {
                    self.wal_append_ops(page, vec![op])?;
                }
            }
            self.split_data_node(node, page, false)
        }
    }

    // ----- index node splits ---------------------------------------------

    /// Splits an overflowing index node, returning the replacement entries
    /// for its parent.
    pub(crate) fn split_index_node(
        &self,
        node: IndexNode,
        page: PageId,
        forbid_time: bool,
    ) -> TsbResult<Vec<IndexEntry>> {
        let comp = node.composition();
        let time_point = if forbid_time {
            None
        } else {
            local_time_split_point(&node)
        };
        let key_candidate = choose_index_split_key(&node);

        // Prefer a local time split when most references are already
        // historical (mirroring the data-node heuristic), or when a key
        // split is impossible.
        let use_time = match (time_point, &key_candidate) {
            (Some(_), None) => true,
            (Some(_), Some(_)) => comp.historical_entries * 2 >= comp.total_entries,
            (None, _) => false,
        };

        if use_time {
            let t = time_point.expect("checked above");
            return self.execute_index_time_split(node, page, t);
        }

        match key_candidate {
            Some(split_key) => {
                if time_point.is_none() && self.cfg.mark_recalcitrant_children {
                    self.mark_blocking_children(&node);
                }
                self.execute_index_key_split(node, page, split_key)
            }
            None => match time_point {
                Some(t) => self.execute_index_time_split(node, page, t),
                None => Err(TsbError::internal(
                    "index node can be neither key split nor time split",
                )),
            },
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

    /// Index keyspace split (§3.5 rule set): straddling historical entries
    /// are copied to both halves; the replacement entries inherit the node's
    /// time range.
    fn execute_index_key_split(
        &self,
        node: IndexNode,
        page: PageId,
        split_key: Key,
    ) -> TsbResult<Vec<IndexEntry>> {
        if !node.key_range.strictly_contains(&split_key) {
            return Err(TsbError::internal(format!(
                "index split key {split_key} outside node key range {}",
                node.key_range
            )));
        }
        let parts = partition_index_by_key(&node.to_entries(), &split_key);
        let (left_range, right_range) = node
            .key_range
            .split_at(&split_key)
            .ok_or_else(|| TsbError::internal("index key range refused to split"))?;
        let left = IndexNode::from_entries(left_range, node.time_range, parts.left);
        let right = IndexNode::from_entries(right_range, node.time_range, parts.right);
        let right_page = self.allocate_page()?;
        self.note_structural_write();

        let mut out = Vec::new();
        out.extend(self.place_index_node(
            left,
            page,
            Some(PageOp::IndexKeySplit {
                split_key: split_key.clone(),
                keep_low: true,
            }),
        )?);
        out.extend(self.place_index_node(
            right,
            right_page,
            Some(PageOp::IndexKeySplit {
                split_key,
                keep_low: false,
            }),
        )?);
        Ok(out)
    }

    /// Local index time split (§3.5): entries lying entirely before `t`
    /// migrate into a historical index node; no current reference may end up
    /// there (guaranteed by the choice of `t`).
    fn execute_index_time_split(
        &self,
        node: IndexNode,
        page: PageId,
        t: Timestamp,
    ) -> TsbResult<Vec<IndexEntry>> {
        let parts = partition_index_by_time(&node.to_entries(), t);
        if parts.historical.is_empty() {
            return Err(TsbError::internal(
                "index time split selected but nothing migrates",
            ));
        }
        if parts.historical.iter().any(|e| e.child.is_current()) {
            return Err(TsbError::internal(
                "index time split would place a current reference on the write-once store",
            ));
        }
        let shrank = parts.current.len() < node.len();

        let hist_tr = TimeRange::bounded(node.time_range.lo, t);
        let hist = IndexNode::from_entries(node.key_range.clone(), hist_tr, parts.historical);
        self.note_structural_write();
        let hist_addr = self.append_historical(Node::Index(hist))?;
        let hist_entry = IndexEntry::new(
            node.key_range.clone(),
            hist_tr,
            NodeAddr::Historical(hist_addr),
        );

        let current = IndexNode::from_entries(
            node.key_range.clone(),
            TimeRange::new(t, node.time_range.hi),
            parts.current,
        );

        let op = PageOp::IndexTimeSplit { split_time: t };
        let mut out = vec![hist_entry];
        if current.encoded_size() <= self.split_threshold() {
            self.write_current_delta(page, Node::Index(current), vec![op])?;
            out.push(IndexEntry::new(
                node.key_range,
                TimeRange::new(t, node.time_range.hi),
                NodeAddr::Current(page),
            ));
        } else {
            if self.pending_ops_allowed(page) {
                self.wal_append_ops(page, vec![op])?;
            }
            out.extend(self.split_index_node(current, page, !shrank)?);
        }
        Ok(out)
    }

    /// Writes an index node to `page`, splitting further if needed. `op`
    /// as in [`Self::place_data_node`].
    fn place_index_node(
        &self,
        node: IndexNode,
        page: PageId,
        op: Option<PageOp>,
    ) -> TsbResult<Vec<IndexEntry>> {
        if node.encoded_size() <= self.split_threshold() {
            let entry = IndexEntry::new(
                node.key_range.clone(),
                node.time_range,
                NodeAddr::Current(page),
            );
            self.write_current_delta(page, Node::Index(node), op.into_iter().collect())?;
            Ok(vec![entry])
        } else {
            if let Some(op) = op {
                if self.pending_ops_allowed(page) {
                    self.wal_append_ops(page, vec![op])?;
                }
            }
            self.split_index_node(node, page, false)
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
        let mut tree = small_tree(SplitPolicyKind::default());
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
        let mut tree = small_tree(SplitPolicyKind::TimePreferring);
        let mut stamps = Vec::new();
        for round in 0..30u64 {
            let ts = tree.insert(7u64, format!("v{round}").into_bytes()).unwrap();
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
        let mut tree = small_tree(SplitPolicyKind::default());
        let t1 = tree.insert(5u64, b"alive".to_vec()).unwrap();
        let t2 = tree.delete(5u64).unwrap();
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
        let mut tree = small_tree(SplitPolicyKind::default());
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
            let mut tree = small_tree(policy);
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
        let mut tree = crate::TsbOptions::in_memory()
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
