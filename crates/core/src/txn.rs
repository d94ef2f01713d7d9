//! Transaction support (§4).
//!
//! The TSB-tree's transaction story follows the paper:
//!
//! * **Writer transactions** place *uncommitted* versions directly in the
//!   current nodes. Uncommitted versions carry no timestamp, only the writer
//!   transaction id, so they are never migrated to the historical store by a
//!   time split and can always be erased — which is exactly what abort does.
//!   Commit stamps every written version with the transaction's commit
//!   timestamp.
//! * **Write-write conflicts** are refused eagerly: if another in-flight
//!   transaction already holds an uncommitted version of a key, a new write
//!   to it fails with [`TsbError::WriteConflict`].
//! * **Read-only transactions** (§4.1) take a *start* timestamp when they
//!   begin and read as of that timestamp. They never block and never see
//!   uncommitted data: a committed version with a later timestamp is simply
//!   ignored by the as-of search, and uncommitted versions are invisible to
//!   it. This is what lets backups and unloads run without locks. The
//!   engine's [`crate::ShardedSnapshot`] is that transaction; on a tree it
//!   is a plain as-of read.

use std::collections::HashMap;

use tsb_common::{Key, Timestamp, TsbError, TsbResult, TxnId, Version};
use tsb_storage::{Lsn, PageOp};

use crate::node::Node;
use crate::tree::TsbTree;

/// Book-keeping for in-flight writer transactions.
#[derive(Debug)]
pub(crate) struct TxnTable {
    next_id: u64,
    active: HashMap<TxnId, Vec<Key>>,
}

impl TxnTable {
    pub(crate) fn starting_at(next_id: u64) -> Self {
        TxnTable {
            next_id: next_id.max(1),
            active: HashMap::new(),
        }
    }

    pub(crate) fn next_id_value(&self) -> u64 {
        self.next_id
    }

    fn begin(&mut self) -> TxnId {
        let id = TxnId(self.next_id);
        self.next_id += 1;
        self.active.insert(id, Vec::new());
        id
    }

    fn record_write(&mut self, txn: TxnId, key: Key) -> TsbResult<()> {
        let writes = self
            .active
            .get_mut(&txn)
            .ok_or(TsbError::TxnNotActive(txn))?;
        if !writes.contains(&key) {
            writes.push(key);
        }
        Ok(())
    }

    fn finish(&mut self, txn: TxnId) -> TsbResult<Vec<Key>> {
        self.active.remove(&txn).ok_or(TsbError::TxnNotActive(txn))
    }

    fn is_active(&self, txn: TxnId) -> bool {
        self.active.contains_key(&txn)
    }
}

impl TsbTree {
    /// Begins a writer transaction. Like every verb that mutates, it
    /// relies on its caller to serialize writers (each shard of a
    /// [`crate::ShardedTsb`] under its writer lock).
    pub(crate) fn begin_txn(&self) -> TxnId {
        self.txns.lock().begin()
    }

    /// Writes `key = value` within transaction `txn` (uncommitted until
    /// [`Self::commit_txn`]). Fails with [`TsbError::WriteConflict`] if
    /// another in-flight transaction already wrote this key.
    ///
    /// Returns once the write is applied, without waiting for the log: the
    /// version carries no timestamp, so until [`Self::commit_txn`]'s fence
    /// (which follows it on the one log) is durable, recovery erases it.
    pub(crate) fn txn_insert(
        &self,
        txn: TxnId,
        key: impl Into<Key>,
        value: Vec<u8>,
    ) -> TsbResult<()> {
        let key = key.into();
        self.txn_write(txn, Version::uncommitted(key, txn, value))
    }

    /// Logically deletes `key` within transaction `txn`; like
    /// [`Self::txn_insert`], it waits for nothing.
    pub(crate) fn txn_delete(&self, txn: TxnId, key: impl Into<Key>) -> TsbResult<()> {
        let key = key.into();
        self.txn_write(txn, Version::uncommitted_tombstone(key, txn))
    }

    fn txn_write(&self, txn: TxnId, version: Version) -> TsbResult<()> {
        if !self.txns.lock().is_active(txn) {
            return Err(TsbError::TxnNotActive(txn));
        }
        // Eager write-write conflict detection.
        if let Some(existing) = self.pending_version(&version.key)? {
            if existing.state.txn_id() != Some(txn) {
                return Err(TsbError::WriteConflict {
                    key: version.key.clone(),
                    holder: existing.state.txn_id().unwrap_or(TxnId(0)),
                });
            }
        }
        let key = version.key.clone();
        self.insert_version(version)?;
        self.txns.lock().record_write(txn, key)
    }

    /// Reads `key` from inside transaction `txn`: the transaction's own
    /// uncommitted write if it has one, otherwise the newest committed value.
    pub(crate) fn txn_get(&self, txn: TxnId, key: &Key) -> TsbResult<Option<Vec<u8>>> {
        if let Some(pending) = self.pending_version(key)? {
            if pending.state.txn_id() == Some(txn) {
                // The transaction's own write: a pending tombstone reads as
                // "gone", a pending value reads as that value.
                return Ok(pending.value);
            }
        }
        self.get_current(key)
    }

    /// Commits transaction `txn`: every version it wrote is stamped with a
    /// single commit timestamp (the transaction's commit time), which is
    /// returned with the position to wait on before acknowledging it.
    ///
    /// A commit stamps one leaf per written key. Even though the versions
    /// only become *visible* at the single commit timestamp, the unpinned
    /// current-state readers of a [`crate::ShardedTsb`] shard could otherwise
    /// observe a prefix of the stamped leaves — a torn commit — so a
    /// multi-key commit holds the structure epoch odd for the span of the
    /// loop, making the whole stamping pass atomic to concurrent readers.
    pub(crate) fn commit_txn(&self, txn: TxnId) -> TsbResult<(Timestamp, Option<Lsn>)> {
        let ts = self.clock.tick();
        let wait = self.stamp_txn(txn, ts, || self.wal_commit(ts))?;
        Ok((ts, wait))
    }

    /// Stamps every write of `txn` committed at `ts`, then runs `fence`
    /// inside the same structure window: this tree's own commit fence, or
    /// nothing when a cross-shard commit fences every participant at once
    /// after the last of them is stamped. Returns what `fence` returns.
    pub(crate) fn stamp_txn<W>(
        &self,
        txn: TxnId,
        ts: Timestamp,
        fence: impl FnOnce() -> TsbResult<W>,
    ) -> TsbResult<W> {
        let writes = self.txns.lock().finish(txn)?;
        if writes.len() > 1 {
            self.note_structural_write();
        }
        let result = (|| {
            for key in writes {
                let (page, leaf) = self.descend_to_current_leaf(&key)?;
                let mut leaf = crate::node::DataNode::clone(&leaf);
                let pending = leaf.remove_uncommitted(&key, txn).ok_or_else(|| {
                    TsbError::internal(format!(
                        "transaction {txn} lost its uncommitted version of key {key}"
                    ))
                })?;
                let committed = Version {
                    key: pending.key,
                    state: tsb_common::TsState::Committed(ts),
                    value: pending.value,
                };
                // Stamping one key = erase the uncommitted slot, install
                // the committed one: two logical deltas, not a page image.
                let ops = if self.logs_deltas() {
                    vec![
                        PageOp::RemoveUncommitted {
                            key: key.clone(),
                            txn,
                        },
                        PageOp::InsertVersion(committed.clone()),
                    ]
                } else {
                    Vec::new()
                };
                leaf.insert(&committed)?;
                self.write_current_delta(page, Node::Data(leaf), ops)?;
            }
            Ok(())
        })()
        // The commit fence covers every stamped leaf: recovery replays the
        // whole commit or none of it, so a crashed multi-key commit can
        // never resurface half-stamped.
        .and_then(|()| fence());
        self.settle_structure_after(result.is_err());
        result
    }

    /// Aborts transaction `txn`: every uncommitted version it wrote is erased
    /// from the current store. (This erasure is exactly what the write-once
    /// WOBT cannot do — §2.6, §5.) Like a write, it waits for nothing:
    /// an abort the log loses is redone by recovery's implicit abort.
    /// Multi-key erasure is made atomic to concurrent readers the same way
    /// as [`Self::commit_txn`]. (Uncommitted versions are invisible to
    /// reads anyway; the epoch guard protects diagnostic surfaces like
    /// `pending_version` from observing a half-erased transaction.)
    pub(crate) fn abort_txn(&self, txn: TxnId) -> TsbResult<()> {
        let writes = self.txns.lock().finish(txn)?;
        if writes.len() > 1 {
            self.note_structural_write();
        }
        let result = (|| {
            for key in writes {
                let (page, leaf) = self.descend_to_current_leaf(&key)?;
                let mut leaf = crate::node::DataNode::clone(&leaf);
                if leaf.remove_uncommitted(&key, txn).is_some() {
                    let ops = if self.logs_deltas() {
                        vec![PageOp::RemoveUncommitted {
                            key: key.clone(),
                            txn,
                        }]
                    } else {
                        Vec::new()
                    };
                    self.write_current_delta(page, Node::Data(leaf), ops)?;
                }
            }
            Ok(())
        })()
        .and_then(|()| self.wal_commit(self.clock.now().prev()).map(drop));
        self.settle_structure_after(result.is_err());
        result
    }
}

#[cfg(test)]
impl TsbTree {
    /// Number of in-flight writer transactions.
    pub(crate) fn active_txn_count(&self) -> usize {
        self.txns.lock().active.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsb_common::{KeyRange, SplitPolicyKind, TsbConfig};

    fn tree() -> TsbTree {
        crate::TsbOptions::in_memory()
            .config(TsbConfig::small_pages())
            .open_tree()
            .unwrap()
    }

    #[test]
    fn commit_makes_writes_visible_with_one_timestamp() {
        let t = tree();
        let txn = t.begin_txn();
        t.txn_insert(txn, 1u64, b"a".to_vec()).unwrap();
        t.txn_insert(txn, 2u64, b"b".to_vec()).unwrap();
        // Invisible before commit.
        assert!(t.get_current(&Key::from_u64(1)).unwrap().is_none());
        assert!(t.get_current(&Key::from_u64(2)).unwrap().is_none());
        let ts = t.commit_txn(txn).unwrap().0;
        assert_eq!(t.get_current(&Key::from_u64(1)).unwrap().unwrap(), b"a");
        assert_eq!(t.get_current(&Key::from_u64(2)).unwrap().unwrap(), b"b");
        // Both versions carry the same commit timestamp.
        assert_eq!(
            t.get_version_as_of(&Key::from_u64(1), ts)
                .unwrap()
                .unwrap()
                .commit_time(),
            Some(ts)
        );
        assert_eq!(
            t.get_version_as_of(&Key::from_u64(2), ts)
                .unwrap()
                .unwrap()
                .commit_time(),
            Some(ts)
        );
        assert_eq!(t.active_txn_count(), 0);
    }

    #[test]
    fn abort_erases_uncommitted_data() {
        let t = tree();
        t.insert(1u64, b"old".to_vec()).unwrap();
        let txn = t.begin_txn();
        t.txn_insert(txn, 1u64, b"new".to_vec()).unwrap();
        t.txn_insert(txn, 99u64, b"fresh".to_vec()).unwrap();
        t.abort_txn(txn).unwrap();
        assert_eq!(t.get_current(&Key::from_u64(1)).unwrap().unwrap(), b"old");
        assert!(t.get_current(&Key::from_u64(99)).unwrap().is_none());
        assert!(t.pending_version(&Key::from_u64(1)).unwrap().is_none());
        // The aborted transaction cannot be used again.
        assert!(matches!(
            t.txn_insert(txn, 5u64, b"x".to_vec()),
            Err(TsbError::TxnNotActive(_))
        ));
        assert!(matches!(t.commit_txn(txn), Err(TsbError::TxnNotActive(_))));
    }

    #[test]
    fn write_write_conflicts_are_detected() {
        let t = tree();
        let a = t.begin_txn();
        let b = t.begin_txn();
        t.txn_insert(a, 7u64, b"from-a".to_vec()).unwrap();
        let err = t.txn_insert(b, 7u64, b"from-b".to_vec()).unwrap_err();
        assert!(matches!(err, TsbError::WriteConflict { holder, .. } if holder == a));
        // A transaction may overwrite its own pending write.
        t.txn_insert(a, 7u64, b"from-a-v2".to_vec()).unwrap();
        let ts = t.commit_txn(a).unwrap().0;
        assert_eq!(
            t.get_as_of(&Key::from_u64(7), ts).unwrap().unwrap(),
            b"from-a-v2".to_vec()
        );
        // After a's commit, b can write the key.
        t.txn_insert(b, 7u64, b"from-b".to_vec()).unwrap();
        t.commit_txn(b).unwrap();
        assert_eq!(
            t.get_current(&Key::from_u64(7)).unwrap().unwrap(),
            b"from-b".to_vec()
        );
    }

    #[test]
    fn txn_reads_see_own_writes_but_not_others() {
        let t = tree();
        t.insert(1u64, b"committed".to_vec()).unwrap();
        let a = t.begin_txn();
        let b = t.begin_txn();
        t.txn_insert(a, 1u64, b"a-pending".to_vec()).unwrap();
        assert_eq!(
            t.txn_get(a, &Key::from_u64(1)).unwrap().unwrap(),
            b"a-pending".to_vec()
        );
        assert_eq!(
            t.txn_get(b, &Key::from_u64(1)).unwrap().unwrap(),
            b"committed".to_vec()
        );
        t.abort_txn(a).unwrap();
        t.abort_txn(b).unwrap();
    }

    #[test]
    fn txn_delete_commits_a_tombstone() {
        let t = tree();
        t.insert(4u64, b"exists".to_vec()).unwrap();
        let txn = t.begin_txn();
        t.txn_delete(txn, 4u64).unwrap();
        assert_eq!(
            t.get_current(&Key::from_u64(4)).unwrap().unwrap(),
            b"exists".to_vec(),
            "delete not visible before commit"
        );
        let ts = t.commit_txn(txn).unwrap().0;
        assert!(t.get_current(&Key::from_u64(4)).unwrap().is_none());
        assert!(t.get_as_of(&Key::from_u64(4), ts.prev()).unwrap().is_some());
    }

    #[test]
    fn snapshot_readers_are_stable_under_concurrent_commits() {
        let t = tree();
        for i in 0..20u64 {
            t.insert(i, b"v1".to_vec()).unwrap();
        }
        let snap_ts = t.now().prev();
        assert_eq!(t.snapshot_at(snap_ts).unwrap().len(), 20);
        // Later writes do not affect reads pinned to the earlier time.
        for i in 0..20u64 {
            t.insert(i, b"v2".to_vec()).unwrap();
        }
        t.insert(100u64, b"new key".to_vec()).unwrap();
        let rows = t.snapshot_at(snap_ts).unwrap();
        assert_eq!(rows.len(), 20);
        assert!(rows.iter().all(|(_, v)| v == b"v1"));
        assert_eq!(
            t.get_as_of(&Key::from_u64(3), snap_ts).unwrap().unwrap(),
            b"v1".to_vec()
        );
        assert!(t.get_as_of(&Key::from_u64(100), snap_ts).unwrap().is_none());
        let range = KeyRange::bounded(Key::from_u64(0), Key::from_u64(5));
        assert_eq!(t.scan_as_of(&range, snap_ts).unwrap().len(), 5);
    }

    #[test]
    fn uncommitted_data_survives_splits_and_never_migrates() {
        let cfg = TsbConfig::small_pages().with_split_policy(SplitPolicyKind::TimePreferring);
        let t = crate::TsbOptions::in_memory()
            .config(cfg)
            .open_tree()
            .unwrap();
        let txn = t.begin_txn();
        t.txn_insert(txn, 500u64, b"pending-through-splits".to_vec())
            .unwrap();
        // Flood the tree so that many splits (including time splits) happen
        // around the pending write.
        for i in 0..300u64 {
            t.insert(i % 30, format!("v{i}").into_bytes()).unwrap();
        }
        // The pending version is still present, still uncommitted, and still
        // erasable.
        let pending = t.pending_version(&Key::from_u64(500)).unwrap().unwrap();
        assert!(pending.state.is_uncommitted());
        let ts = t.commit_txn(txn).unwrap().0;
        assert_eq!(
            t.get_as_of(&Key::from_u64(500), ts).unwrap().unwrap(),
            b"pending-through-splits".to_vec()
        );
        t.verify().unwrap();
    }
}
