//! One shard of a [`crate::ShardedTsb`]: one writer and many concurrent
//! readers over one [`TsbTree`].
//!
//! The paper's central operational promise is that historical data, once
//! migrated to the write-once store, is *immutable* — so as-of lookups,
//! range snapshots, and version histories can be served while the current
//! database keeps absorbing inserts (§4.1's lock-free read-only
//! transactions). Each shard keeps that promise with a **single-writer /
//! many-reader** protocol:
//!
//! * **Writes serialize** through the shard's writer lock and run the
//!   ordinary insert / split / migration path of [`TsbTree`]. There is
//!   never more than one mutation in flight on a shard. On a durable engine
//!   the lock covers only the in-memory mutation and the log append — the
//!   commit's fsync is asked for by whoever waits on it, outside the lock,
//!   so device syncs overlap the next mutation.
//! * **Readers never take the writer lock.** They descend the tree through
//!   the shared decoded-node cache: historical (WORM) nodes are immutable
//!   and served lock-free forever; current pages are read under the node
//!   cache's short shard latch (a hash-map lookup), never held across I/O
//!   or across more than one node. A miss reads its page from the device
//!   outside that latch, and never writes a page or forces the log: only
//!   the writer writes dirty nodes back.
//! * **Structural changes are fenced by a seqlock epoch.** Content-only
//!   leaf rewrites are invisible to a reader pinned at a past timestamp
//!   (the new version has a later commit time, and leaf replacement is a
//!   single atomic `Arc` swap in the node cache). But a split or a
//!   migration rewrites *several* nodes — parent and children — and a
//!   descent overlapping it could observe a torn multi-node state. The
//!   writer therefore marks the tree's structure epoch odd for the span of
//!   each structural change; [`Shard::read`] samples the epoch before and
//!   after a descent and retries if it moved. Retries are rare — most
//!   inserts never split — and bounded: a reader that keeps losing the race
//!   falls back to taking the writer lock once, which guarantees a
//!   quiescent tree.
//! * **A timestamp fence orders reads behind writes.** The install fence
//!   is the commit time of the newest *fully installed* write: it advances
//!   only after the mutation (including any splits it triggered) has
//!   completely finished. A snapshot pins readers at or below every
//!   shard's fence, so it never observes a half-applied write.
//!
//! All tree logic stays in [`TsbTree`], whose verbs all take `&self` and
//! rely on this writer lock for the single-writer invariant: the shard is
//! the only place that invariant is kept.
//!
//! ```
//! use tsb_core::{EngineHandle, Key, TsbConfig};
//!
//! let db = tsb_core::TsbOptions::in_memory().config(TsbConfig::default()).open().unwrap();
//! let t1 = db.insert(Key::from("acct-1"), b"balance=100".to_vec()).unwrap();
//!
//! // Readers are cheap clones of the handle; move them into threads.
//! let reader = db.clone();
//! let handle = std::thread::spawn(move || {
//!     reader.get_as_of(&Key::from("acct-1"), t1).unwrap()
//! });
//! db.insert(Key::from("acct-1"), b"balance=250".to_vec()).unwrap();
//! assert_eq!(handle.join().unwrap().unwrap(), b"balance=100".to_vec());
//! ```

use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::{Mutex, MutexGuard};

use tsb_common::{Timestamp, TsbResult};
use tsb_storage::Lsn;

use crate::tree::TsbTree;

/// Optimistic attempts before a reader gives up racing the writer and
/// takes the writer lock for one guaranteed-quiescent pass.
const READ_RETRY_LIMIT: usize = 64;

/// One shard's tree with its writer lock and install fence, `Send + Sync`.
/// See the [module docs](self) for the protocol.
pub(crate) struct Shard {
    tree: TsbTree,
    /// The single-writer pipeline: every mutation holds this for its whole
    /// duration, so at most one mutation is ever in flight — the invariant
    /// the `&self` write path of [`TsbTree`] requires.
    writer: Mutex<()>,
    /// Commit time of the newest fully installed write (the epoch fence).
    /// Stored only after the mutation — splits, migration, root growth,
    /// metadata — has completely finished.
    fence: AtomicU64,
}

// Compile-time proof of the thread-safety contract.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Shard>();
};

impl Shard {
    /// Wraps a tree, taking its current state as the last fully installed
    /// write (the fence starts at `now - 1`).
    pub(crate) fn from_tree(tree: TsbTree) -> Self {
        let fence = tree.now().prev();
        Self::from_tree_at(tree, fence)
    }

    /// [`Self::from_tree`] with the install fence at `fence`: a replica's
    /// shard is complete only through its own last fence, not through the
    /// clock every shard shares.
    pub(crate) fn from_tree_at(tree: TsbTree, fence: Timestamp) -> Self {
        Shard {
            tree,
            writer: Mutex::new(()),
            fence: AtomicU64::new(fence.value()),
        }
    }

    /// Unwraps the shard back into its single-threaded tree.
    pub(crate) fn into_tree(self) -> TsbTree {
        self.tree
    }

    /// The tree, for setup before the shard is shared.
    pub(crate) fn tree_mut(&mut self) -> &mut TsbTree {
        &mut self.tree
    }

    /// The underlying tree. Its reads need [`Self::read`]'s validation (or
    /// the writer lock); its mutating calls need the writer lock.
    pub(crate) fn tree(&self) -> &TsbTree {
        &self.tree
    }

    /// Acquires the writer lock — the one way to take it — charging any
    /// blocked time to the `writer_lock_wait` counters. The uncontended
    /// fast path costs one `try_lock`.
    pub(crate) fn lock_writer(&self) -> MutexGuard<'_, ()> {
        if let Some(guard) = self.writer.try_lock() {
            return guard;
        }
        let start = std::time::Instant::now();
        let guard = self.writer.lock();
        self.tree
            .io_stats()
            .record_writer_lock_wait(start.elapsed().as_nanos() as u64);
        guard
    }

    /// Runs the commit `f` under the writer lock and advances the fence to
    /// its commit timestamp once it has fully installed. `f` returns,
    /// beside that timestamp, the log position the caller must wait on (the
    /// tree's `wait_durable_lsn`) before acknowledging the write, `None`
    /// when the write owes no wait; the wait itself runs outside the lock,
    /// so the next writer's mutation overlaps this one's device sync.
    pub(crate) fn write(
        &self,
        f: impl FnOnce(&TsbTree) -> TsbResult<(Timestamp, Option<Lsn>)>,
    ) -> TsbResult<(Timestamp, Option<Lsn>)> {
        let _writer = self.lock_writer();
        let (ts, wait) = f(&self.tree)?;
        self.advance_fence(ts);
        Ok((ts, wait))
    }

    /// Runs the read-only tree operation `op` with seqlock validation: it
    /// is retried if a structural change (split / migration / root growth)
    /// overlapped it; after [`READ_RETRY_LIMIT`] lost races it runs once
    /// under the writer lock.
    pub(crate) fn read<T>(&self, op: impl Fn(&TsbTree) -> TsbResult<T>) -> TsbResult<T> {
        let tree = &self.tree;
        for _ in 0..READ_RETRY_LIMIT {
            let before = tree.structure_epoch();
            if before % 2 == 1 {
                // A structural change is in flight right now; don't even
                // start the descent.
                std::thread::yield_now();
                continue;
            }
            let result = op(tree);
            if tree.structure_epoch() == before {
                return result;
            }
            // The structure moved under the descent: the result (even an
            // error) may reflect a torn view. Retry.
        }
        let _quiesce = self.lock_writer();
        op(tree)
    }

    // ----- the install fence ----------------------------------------------

    /// The commit time of the newest fully installed write. Reads pinned at
    /// or before it are stable: no in-flight mutation can change them.
    pub(crate) fn last_installed(&self) -> Timestamp {
        Timestamp(self.fence.load(Ordering::Acquire))
    }

    /// Advances the install fence to at least `ts` (it never regresses).
    /// Caller must hold the writer lock: the fence may only move when no
    /// mutation is mid-install.
    pub(crate) fn advance_fence(&self, ts: Timestamp) {
        self.fence.fetch_max(ts.value(), Ordering::Release);
    }

    /// Pins the install fence at `ts` or later, so a snapshot pinned at
    /// `ts` reads a state this shard has caught up to. Sound because
    /// commit timestamps are ticked *under* the writer lock: holding it
    /// here proves no mutation with a timestamp ≤ `ts` is mid-install.
    pub(crate) fn pin_fence_at_least(&self, ts: Timestamp) {
        if self.last_installed() >= ts {
            return;
        }
        let _writer = self.lock_writer();
        self.advance_fence(ts);
    }

    /// The newest durable commit of this shard (see
    /// [`TsbTree::last_durable_commit`]).
    pub(crate) fn last_durable_commit(&self) -> Option<Timestamp> {
        self.tree.last_durable_commit()
    }
}

#[cfg(test)]
mod tests {
    use std::thread;

    use tsb_common::{Key, KeyRange, TsbConfig};

    use super::Shard;
    use crate::tree::TsbTree;
    use crate::{EngineHandle, ShardedTsb};

    /// Every test runs the engine at one shard and at four.
    const SHARD_COUNTS: [usize; 2] = [1, 4];

    fn engine(shards: usize) -> ShardedTsb {
        crate::TsbOptions::in_memory()
            .config(TsbConfig::small_pages())
            .shards(shards)
            .open()
            .unwrap()
    }

    fn key(k: u64) -> Key {
        Key::from_u64(k)
    }

    #[test]
    fn single_threaded_semantics_match_the_tree() {
        for n in SHARD_COUNTS {
            let db = engine(n);
            let t1 = db.insert(key(1), b"a".to_vec()).unwrap();
            let t2 = db.insert(key(1), b"b".to_vec()).unwrap();
            db.delete(key(1)).unwrap();
            assert!(db.get_current(&key(1)).unwrap().is_none());
            assert_eq!(db.get_as_of(&key(1), t1).unwrap().unwrap(), b"a");
            assert_eq!(db.get_as_of(&key(1), t2).unwrap().unwrap(), b"b");
            assert_eq!(db.versions(&key(1)).unwrap().len(), 3);
            assert_eq!(db.version_count(&key(1)).unwrap(), 3);
            db.verify().unwrap();
        }
    }

    #[test]
    fn fence_tracks_fully_installed_writes() {
        for n in SHARD_COUNTS {
            let db = engine(n);
            assert_eq!(db.last_installed(), tsb_common::Timestamp::ZERO);
            let ts = db.insert(key(7), b"x".to_vec()).unwrap();
            let home = &db.shards()[db.shard_of(&key(7))];
            assert_eq!(home.last_installed(), ts);
            // The snapshot pins every shard's fence at the newest write.
            let snap = db.begin_snapshot();
            assert_eq!(snap.timestamp(), ts);
            assert_eq!(db.last_installed(), ts);
            // Later writes never move an existing snapshot.
            db.insert(key(7), b"y".to_vec()).unwrap();
            assert_eq!(snap.get(&key(7)).unwrap().unwrap(), b"x");
            assert!(home.last_installed() > ts);
        }
    }

    #[test]
    fn transactions_commit_atomically_through_the_writer_pipeline() {
        for n in SHARD_COUNTS {
            let db = engine(n);
            let txn = db.begin_txn().unwrap();
            db.txn_insert(txn, key(1), b"one".to_vec()).unwrap();
            db.txn_insert(txn, key(2), b"two".to_vec()).unwrap();
            assert!(db.get_current(&key(1)).unwrap().is_none());
            assert_eq!(db.txn_get(txn, &key(1)).unwrap().unwrap(), b"one");
            let ts = db.commit_txn(txn).unwrap();
            for k in [1, 2] {
                assert_eq!(db.shards()[db.shard_of(&key(k))].last_installed(), ts);
            }
            assert_eq!(db.get_current(&key(1)).unwrap().unwrap(), b"one");
            assert_eq!(db.get_current(&key(2)).unwrap().unwrap(), b"two");
        }
    }

    #[test]
    fn concurrent_readers_see_consistent_prefixes() {
        for n in SHARD_COUNTS {
            let db = engine(n);
            for i in 0..50u64 {
                db.insert(key(i), format!("seed-{i}").into_bytes()).unwrap();
            }
            let stop_at = 3_000u64;
            let writer = {
                let db = db.clone();
                thread::spawn(move || {
                    for i in 0..stop_at {
                        db.insert(key(i % 50), format!("gen-{i}").into_bytes())
                            .unwrap();
                    }
                })
            };
            let readers: Vec<_> = (0..4)
                .map(|r| {
                    let db = db.clone();
                    thread::spawn(move || {
                        for i in 0..500u64 {
                            // One shard reads lock-free at its install
                            // fence; across shards the snapshot pins one
                            // fence every shard has reached.
                            let ts = if n == 1 {
                                db.last_installed()
                            } else {
                                db.begin_snapshot().timestamp()
                            };
                            let k = key((r * 131 + i) % 50);
                            // Pinned at the fence, a value must exist for
                            // every seeded key.
                            let got = db.get_as_of(&k, ts).unwrap();
                            assert!(got.is_some(), "key {k} missing at fence {ts}");
                            let rows = db.snapshot_at(ts).unwrap();
                            assert_eq!(rows.len(), 50, "snapshot at {ts} lost keys");
                        }
                    })
                })
                .collect();
            for r in readers {
                r.join().unwrap();
            }
            writer.join().unwrap();
            db.verify().unwrap();
            db.verify_cache_coherence().unwrap();
        }
    }

    #[test]
    fn committed_transactions_are_atomic_to_concurrent_readers() {
        for n in SHARD_COUNTS {
            let db = engine(n);
            let keys: Vec<Key> = (0..8).map(key).collect();
            let txn = db.begin_txn().unwrap();
            for k in &keys {
                db.txn_insert(txn, k.clone(), vec![0]).unwrap();
            }
            db.commit_txn(txn).unwrap();

            let rounds = 200u8;
            thread::scope(|s| {
                {
                    let db = db.clone();
                    let keys = keys.clone();
                    s.spawn(move || {
                        for round in 1..=rounds {
                            let txn = db.begin_txn().unwrap();
                            for k in &keys {
                                db.txn_insert(txn, k.clone(), vec![round]).unwrap();
                            }
                            db.commit_txn(txn).unwrap();
                        }
                    });
                }
                for _ in 0..2 {
                    let db = db.clone();
                    let keys = keys.clone();
                    s.spawn(move || loop {
                        // One shard reads unpinned current state, so only
                        // the commit's structure-epoch bracket keeps it
                        // whole; across shards a scan needs the snapshot.
                        let rows = if n == 1 {
                            db.scan_current(&KeyRange::full())
                        } else {
                            db.begin_snapshot().scan(&KeyRange::full())
                        }
                        .unwrap();
                        assert_eq!(rows.len(), keys.len(), "commit lost keys mid-flight");
                        let generation = rows[0].1.clone();
                        for (key, value) in &rows {
                            assert_eq!(
                                value, &generation,
                                "torn commit visible: key {key} is from another generation"
                            );
                        }
                        if generation == vec![rounds] {
                            break;
                        }
                    });
                }
            });
        }
    }

    #[test]
    fn try_into_tree_round_trips() {
        let clock = std::sync::Arc::new(tsb_common::LogicalClock::new());
        let tree = TsbTree::new_in_memory_with_clock(TsbConfig::small_pages(), clock).unwrap();
        let shard = Shard::from_tree(tree);
        let (ts, _) = shard.write(|t| t.insert(key(1), b"v".to_vec())).unwrap();
        assert_eq!(shard.last_installed(), ts);
        let tree = shard.into_tree();
        assert_eq!(tree.get_current(&key(1)).unwrap().unwrap(), b"v".to_vec());
        assert_eq!(tree.now(), ts.next());
    }
}
