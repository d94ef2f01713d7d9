//! A `Send + Sync` TSB-tree engine: one writer, many concurrent readers.
//!
//! The paper's central operational promise is that historical data, once
//! migrated to the write-once store, is *immutable* — so as-of lookups,
//! range snapshots, and version histories can be served while the current
//! database keeps absorbing inserts (§4.1's lock-free read-only
//! transactions). [`ConcurrentTsb`] realizes that promise in-process with a
//! **single-writer / many-reader** architecture:
//!
//! * **Writes serialize** through one writer lock and run the ordinary
//!   insert / split / migration path of [`TsbTree`]. There is never more
//!   than one mutation in flight. On a durable engine the lock covers only
//!   the in-memory mutation and WAL buffer append — the commit fsync runs
//!   on a background group-commit thread and the writer parks for it
//!   *outside* the lock, so device syncs overlap the next mutation.
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
//!   each structural change; readers sample the epoch before and after a
//!   descent and retry if it moved (see [`TsbTree`]'s `structure_seq`).
//!   Retries are rare — most inserts never split — and bounded: a reader
//!   that keeps losing the race falls back to taking the writer lock once,
//!   which guarantees a quiescent tree.
//! * **A timestamp fence orders reads behind writes.** `last_installed()`
//!   is the commit time of the newest *fully installed* write: it advances
//!   only after the mutation (including any splits it triggered) has
//!   completely finished. [`ConcurrentTsb::begin_snapshot`] pins readers to
//!   the fence, so a snapshot's as-of time is always ≤ the last fully
//!   installed write and never observes a half-applied one.
//!
//! The engine is a thin layer: all tree logic stays in [`TsbTree`], whose
//! single-threaded API (`&mut self` mutations) keeps working unchanged and
//! enforces the same single-writer invariant through the borrow checker
//! instead of a lock.
//!
//! ```
//! use tsb_core::ConcurrentTsb;
//! use tsb_common::{Key, TsbConfig};
//!
//! let db = tsb_core::TsbOptions::in_memory().config(TsbConfig::default()).open_concurrent().unwrap();
//! let t1 = db.insert("acct-1", b"balance=100".to_vec()).unwrap();
//!
//! // Readers are cheap clones of the handle; move them into threads.
//! let reader = db.clone();
//! let handle = std::thread::spawn(move || {
//!     reader.get_as_of(&Key::from("acct-1"), t1).unwrap()
//! });
//! db.insert("acct-1", b"balance=250".to_vec()).unwrap();
//! assert_eq!(handle.join().unwrap().unwrap(), b"balance=100".to_vec());
//! ```

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use tsb_common::{Key, KeyRange, TimeRange, Timestamp, TsbConfig, TsbResult, TxnId, Version};
use tsb_storage::{IoStats, Lsn, SpaceSnapshot};

use crate::tree::TsbTree;

/// Optimistic attempts before a reader gives up racing the writer and
/// takes the writer lock for one guaranteed-quiescent pass.
const READ_RETRY_LIMIT: usize = 64;

struct Shared {
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

/// A thread-safe TSB-tree engine: cheaply cloneable handle, single-writer /
/// many-reader.
///
/// Writes (`insert`, `delete`, transactions, `flush`) serialize through an
/// internal writer lock. Reads (`get_as_of`, `scan_as_of`,
/// `history_between`, snapshots, …) run concurrently with the writer and
/// with each other: lock-free against immutable historical nodes, short
/// shared latches on current pages, with a structure-epoch retry protecting
/// descents from torn multi-node states. See the [module docs](self) for
/// the full protocol.
///
/// `ConcurrentTsb` is `Send + Sync + Clone`; clones share one tree.
#[derive(Clone)]
pub struct ConcurrentTsb {
    inner: Arc<Shared>,
}

// Compile-time proof of the thread-safety contract.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<ConcurrentTsb>();
    assert_send_sync::<ConcurrentSnapshot>();
};

impl std::fmt::Debug for ConcurrentTsb {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ConcurrentTsb")
            .field("tree", &self.inner.tree)
            .field("last_installed", &self.last_installed())
            .finish()
    }
}

impl ConcurrentTsb {
    // ----- construction ---------------------------------------------------

    /// Wraps an existing tree — the one way to put hand-built devices
    /// behind a concurrent engine (`from_tree(TsbTree::create(..)?)`);
    /// directories and configs open through [`crate::TsbOptions`]. The
    /// tree's current state is taken as the last fully installed write
    /// (the fence starts at `now - 1`).
    ///
    /// On a durable tree the writer pipeline becomes **pipelined group
    /// commit**: writers queue on the writer lock, each appends its
    /// records to the WAL buffer while holding it, then releases the lock
    /// and parks on the WAL's durable-LSN watermark — the fsync itself runs
    /// on a dedicated group-commit thread, so one drain acknowledges every
    /// commit appended while the previous sync was in flight.
    /// `cfg.fsync_policy` decides whether commits wait:
    /// [`tsb_common::FsyncPolicy::Always`] parks every commit until its own
    /// LSN is durable, `Os` never parks and leaves flushing to the
    /// operating system. The E12 experiment measures the resulting
    /// throughput/durability trade.
    pub fn from_tree(tree: TsbTree) -> Self {
        let fence = tree.now().prev().value();
        ConcurrentTsb {
            inner: Arc::new(Shared {
                tree,
                writer: Mutex::new(()),
                fence: AtomicU64::new(fence),
            }),
        }
    }

    /// Unwraps the engine back into the single-threaded tree, if this is
    /// the last handle. Fails (returning `self`) while clones or snapshots
    /// are still alive.
    pub fn try_into_tree(self) -> Result<TsbTree, Self> {
        match Arc::try_unwrap(self.inner) {
            Ok(shared) => Ok(shared.tree),
            Err(inner) => Err(ConcurrentTsb { inner }),
        }
    }

    // ----- the single-writer pipeline ------------------------------------

    /// Runs `f` while holding the writer lock and advances the fence to
    /// `f`'s commit timestamp once the mutation has fully installed.
    ///
    /// On a durable engine the writer lock covers only the in-memory
    /// mutation and the WAL buffer append; the fsync that makes the commit
    /// durable runs on the group-commit thread, and this writer parks on
    /// the durable-LSN watermark *after* releasing the lock — so the next
    /// writer's mutation overlaps this one's device sync.
    fn write_op<T>(
        &self,
        f: impl FnOnce(&TsbTree) -> TsbResult<T>,
        commit_ts: impl FnOnce(&T) -> Option<Timestamp>,
    ) -> TsbResult<T> {
        let (out, wait) = self.write_op_deferred(f, commit_ts)?;
        if let Some(lsn) = wait {
            self.inner.tree.wait_durable_lsn(lsn)?;
        }
        Ok(out)
    }

    /// The deferred half of [`Self::write_op`]: runs the mutation and
    /// returns the durable-wait LSN instead of parking on it. The caller
    /// owns the wait — the mutation is installed in memory and appended to
    /// the WAL buffer, but must not be *acknowledged* (to a network client,
    /// say) before [`Self::wait_durable`] returns for the LSN.
    fn write_op_deferred<T>(
        &self,
        f: impl FnOnce(&TsbTree) -> TsbResult<T>,
        commit_ts: impl FnOnce(&T) -> Option<Timestamp>,
    ) -> TsbResult<(T, Option<Lsn>)> {
        let _writer = self.lock_writer_timed();
        let out = f(&self.inner.tree)?;
        if let Some(ts) = commit_ts(&out) {
            // Single writer, but insert_at may replay an old timestamp:
            // the fence never regresses.
            self.inner.fence.fetch_max(ts.value(), Ordering::Release);
        }
        // The pending-wait slot is single-entry and the next writer
        // overwrites it, so it must be claimed before the lock drops.
        let wait = self.inner.tree.take_pending_durable_wait();
        Ok((out, wait))
    }

    /// Acquires the writer lock, charging any blocked time to the
    /// `writer_lock_wait` counters — the E14 "how serialized are writers"
    /// metric. The uncontended fast path costs one `try_lock`.
    fn lock_writer_timed(&self) -> parking_lot::MutexGuard<'_, ()> {
        if let Some(guard) = self.inner.writer.try_lock() {
            return guard;
        }
        let start = std::time::Instant::now();
        let guard = self.inner.writer.lock();
        self.inner
            .tree
            .io_stats()
            .record_writer_lock_wait(start.elapsed().as_nanos() as u64);
        guard
    }

    // ----- sharded-engine plumbing (crate-internal) ----------------------

    /// The underlying tree, for the sharded engine's two-phase fence
    /// protocol. Mutating tree calls require the writer lock
    /// ([`Self::lock_writer`]).
    pub(crate) fn tree(&self) -> &TsbTree {
        &self.inner.tree
    }

    /// Acquires this shard's writer lock for an externally driven mutation
    /// (the sharded engine's cross-shard commit holds every participant's
    /// lock for the span of the protocol).
    pub(crate) fn lock_writer(&self) -> parking_lot::MutexGuard<'_, ()> {
        self.lock_writer_timed()
    }

    /// The newest durable position in this engine's log (0 when it has no
    /// log): the limit replication ships up to.
    pub(crate) fn durable_lsn(&self) -> Lsn {
        let wal = self.inner.tree.wal_handle();
        wal.map_or(0, |w| w.durable_lsn())
    }

    /// Advances the install fence to at least `ts`. Caller must hold the
    /// writer lock: the fence may only move when no mutation is mid-install.
    pub(crate) fn advance_fence(&self, ts: Timestamp) {
        self.inner.fence.fetch_max(ts.value(), Ordering::Release);
    }

    /// Pins this shard's install fence at `ts` or later, so a snapshot
    /// pinned at `ts` reads a state this shard has caught up to. Sound
    /// because commit timestamps are ticked *under* the shard writer lock:
    /// holding it here proves no mutation with a timestamp ≤ `ts` is
    /// mid-install on this shard.
    pub(crate) fn pin_fence_at_least(&self, ts: Timestamp) {
        if self.inner.fence.load(Ordering::Acquire) >= ts.value() {
            return;
        }
        let _writer = self.lock_writer_timed();
        self.inner.fence.fetch_max(ts.value(), Ordering::Release);
    }

    /// Inserts a new version of `key`, returning its commit timestamp.
    pub fn insert(&self, key: impl Into<Key>, value: Vec<u8>) -> TsbResult<Timestamp> {
        self.write_op(|t| t.insert_shared(key, value), |ts| Some(*ts))
    }

    // ----- deferred-durability writes -------------------------------------
    //
    // The `*_deferred` variants are the server-facing batch interface: they
    // run the mutation but return the pending durable-wait LSN instead of
    // parking on it. A caller draining a pipelined connection executes a
    // whole burst of writes back-to-back, then parks **once** on the
    // maximum returned LSN — no sync was asked for until that wait, and
    // the durable watermark is monotonic, so when the max LSN is durable
    // every earlier commit in the burst is too, and all of them may be
    // acknowledged. `None` means the engine (or this
    // particular op) has no durability obligation and may be acknowledged
    // immediately.

    /// [`Self::insert`] without the durability wait; see the section
    /// comment. Returns the commit timestamp and the LSN to pass to
    /// [`Self::wait_durable`] before acknowledging.
    pub fn insert_deferred(
        &self,
        key: impl Into<Key>,
        value: Vec<u8>,
    ) -> TsbResult<(Timestamp, Option<Lsn>)> {
        self.write_op_deferred(|t| t.insert_shared(key, value), |ts| Some(*ts))
    }

    /// [`Self::delete`] without the durability wait.
    pub fn delete_deferred(&self, key: impl Into<Key>) -> TsbResult<(Timestamp, Option<Lsn>)> {
        self.write_op_deferred(|t| t.delete_shared(key), |ts| Some(*ts))
    }

    /// [`Self::commit_txn`] without the durability wait.
    pub fn commit_txn_deferred(&self, txn: TxnId) -> TsbResult<(Timestamp, Option<Lsn>)> {
        self.write_op_deferred(|t| t.commit_txn_shared(txn), |ts| Some(*ts))
    }

    /// Asks the log for `lsn`, then parks until the durable-LSN watermark
    /// covers it; returns immediately for LSNs already durable. Completes
    /// the contract of the `*_deferred` writes, which only append: the
    /// sync a commit needs is requested here, by its waiter, so the
    /// commits of one burst share the sync their last wait asks for. The
    /// `*_deferred` methods hand out `Some` exactly when the policy wants
    /// the commit durable before it is acknowledged (never under `Os`).
    /// An LSN past the log's newest record was never handed out: that is
    /// a config error, and the tree is not poisoned by it.
    pub fn wait_durable(&self, lsn: Lsn) -> TsbResult<()> {
        self.inner.tree.wait_durable_lsn(lsn)
    }

    /// Inserts a new version of `key` at an explicit timestamp (see
    /// [`TsbTree::insert_at`]).
    ///
    /// Unlike the single-threaded replay API, the timestamp must lie
    /// *above* [`Self::last_installed`]: writing at or below the fence
    /// would rewrite history that snapshots pinned there are entitled to
    /// treat as immutable.
    pub fn insert_at(&self, key: impl Into<Key>, value: Vec<u8>, ts: Timestamp) -> TsbResult<()> {
        self.write_op(
            |t| {
                self.check_above_fence(ts)?;
                t.insert_at_shared(key, value, ts)
            },
            |_| Some(ts),
        )
    }

    /// Logically deletes `key`, returning the tombstone's commit timestamp.
    pub fn delete(&self, key: impl Into<Key>) -> TsbResult<Timestamp> {
        self.write_op(|t| t.delete_shared(key), |ts| Some(*ts))
    }

    /// Logically deletes `key` at an explicit timestamp. The timestamp
    /// must lie above [`Self::last_installed`] (see [`Self::insert_at`]).
    pub fn delete_at(&self, key: impl Into<Key>, ts: Timestamp) -> TsbResult<()> {
        self.write_op(
            |t| {
                self.check_above_fence(ts)?;
                t.delete_at_shared(key, ts)
            },
            |_| Some(ts),
        )
    }

    /// Rejects explicit timestamps that would mutate already-installed
    /// history out from under fence-pinned readers. Called with the writer
    /// lock held, so the fence cannot advance concurrently.
    fn check_above_fence(&self, ts: Timestamp) -> TsbResult<()> {
        let fence = self.last_installed();
        if ts <= fence {
            return Err(tsb_common::TsbError::config(format!(
                "explicit timestamp {ts} is not above the install fence {fence}; \
                 writing there would rewrite history under pinned snapshots"
            )));
        }
        Ok(())
    }

    /// Begins a writer transaction (see [`TsbTree::begin_txn`]).
    pub fn begin_txn(&self) -> TxnId {
        let _writer = self.inner.writer.lock();
        self.inner.tree.begin_txn_shared()
    }

    /// Writes `key = value` within transaction `txn`.
    pub fn txn_insert(&self, txn: TxnId, key: impl Into<Key>, value: Vec<u8>) -> TsbResult<()> {
        self.write_op(|t| t.txn_insert_shared(txn, key, value), |_| None)
    }

    /// Logically deletes `key` within transaction `txn`.
    pub fn txn_delete(&self, txn: TxnId, key: impl Into<Key>) -> TsbResult<()> {
        self.write_op(|t| t.txn_delete_shared(txn, key), |_| None)
    }

    /// Reads `key` from inside transaction `txn` (its own uncommitted write
    /// if present). Serialized with the writer pipeline because it must
    /// observe pending state.
    pub fn txn_get(&self, txn: TxnId, key: &Key) -> TsbResult<Option<Vec<u8>>> {
        let _writer = self.inner.writer.lock();
        self.inner.tree.txn_get(txn, key)
    }

    /// Commits `txn`; all of its writes become visible at the returned
    /// timestamp (and the fence advances to it).
    pub fn commit_txn(&self, txn: TxnId) -> TsbResult<Timestamp> {
        self.write_op(|t| t.commit_txn_shared(txn), |ts| Some(*ts))
    }

    /// Aborts `txn`, erasing its uncommitted versions.
    pub fn abort_txn(&self, txn: TxnId) -> TsbResult<()> {
        self.write_op(|t| t.abort_txn_shared(txn), |_| None)
    }

    /// Flushes dirty nodes, pages, metadata, and both devices. On a
    /// durable engine this is a checkpoint: it fences the redo log so the
    /// next recovery replays nothing that precedes it.
    pub fn flush(&self) -> TsbResult<()> {
        self.write_op(|t| t.flush_shared(), |_| None)
    }

    /// Synonym for [`Self::flush`] under its durability name.
    pub fn checkpoint(&self) -> TsbResult<()> {
        self.flush()
    }

    /// See [`TsbTree::last_durable_commit`]: the replay cut of a recovered
    /// engine, `None` if this engine was not produced by recovery.
    pub fn last_durable_commit(&self) -> Option<Timestamp> {
        self.inner.tree.last_durable_commit()
    }

    /// Whether the engine redo-logs its mutations (see
    /// [`TsbTree::is_durable`]).
    pub fn is_durable(&self) -> bool {
        self.inner.tree.is_durable()
    }

    /// Runs `f` on the underlying tree with the writer pipeline stalled —
    /// a guaranteed-quiescent view. Intended for verification, statistics,
    /// and measurement harnesses, not hot paths.
    pub fn quiesced<R>(&self, f: impl FnOnce(&TsbTree) -> R) -> R {
        let _writer = self.inner.writer.lock();
        f(&self.inner.tree)
    }

    /// Verifies the structural invariants of the whole tree (quiescent).
    pub fn verify(&self) -> TsbResult<()> {
        self.quiesced(|t| t.verify())
    }

    /// Checks that every cached decoded node equals its device image
    /// (quiescent).
    pub fn verify_cache_coherence(&self) -> TsbResult<()> {
        self.quiesced(|t| t.verify_cache_coherence())
    }

    // ----- concurrent reads ----------------------------------------------

    /// Runs a read-only tree operation with seqlock validation: the
    /// operation is retried if a structural change (split / migration /
    /// root growth) overlapped it; after [`READ_RETRY_LIMIT`] lost races it
    /// runs once under the writer lock.
    fn read_consistent<T>(&self, op: impl Fn(&TsbTree) -> TsbResult<T>) -> TsbResult<T> {
        let tree = &self.inner.tree;
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
        let _quiesce = self.inner.writer.lock();
        op(tree)
    }

    /// The newest committed value of `key` (see [`TsbTree::get_current`]).
    pub fn get_current(&self, key: &Key) -> TsbResult<Option<Vec<u8>>> {
        self.read_consistent(|t| t.get_current(key))
    }

    /// The value of `key` as of time `ts` (see [`TsbTree::get_as_of`]).
    pub fn get_as_of(&self, key: &Key, ts: Timestamp) -> TsbResult<Option<Vec<u8>>> {
        self.read_consistent(|t| t.get_as_of(key, ts))
    }

    /// The full version record governing `(key, ts)`.
    pub fn get_version_as_of(&self, key: &Key, ts: Timestamp) -> TsbResult<Option<Version>> {
        self.read_consistent(|t| t.get_version_as_of(key, ts))
    }

    /// Whether `key` currently exists.
    pub fn contains_key(&self, key: &Key) -> TsbResult<bool> {
        self.read_consistent(|t| t.contains_key(key))
    }

    /// Every `(key, value)` in `range` as of `ts`, in key order.
    pub fn scan_as_of(&self, range: &KeyRange, ts: Timestamp) -> TsbResult<Vec<(Key, Vec<u8>)>> {
        self.read_consistent(|t| t.scan_as_of(range, ts))
    }

    /// Every key currently alive in `range` with its newest value.
    pub fn scan_current(&self, range: &KeyRange) -> TsbResult<Vec<(Key, Vec<u8>)>> {
        self.read_consistent(|t| t.scan_current(range))
    }

    /// A full-database snapshot as of `ts`.
    pub fn snapshot_at(&self, ts: Timestamp) -> TsbResult<Vec<(Key, Vec<u8>)>> {
        self.read_consistent(|t| t.snapshot_at(ts))
    }

    /// Number of keys alive in `range` as of `ts`.
    pub fn count_as_of(&self, range: &KeyRange, ts: Timestamp) -> TsbResult<usize> {
        self.read_consistent(|t| t.count_as_of(range, ts))
    }

    /// Every committed version of `key`, oldest first.
    pub fn versions(&self, key: &Key) -> TsbResult<Vec<Version>> {
        self.read_consistent(|t| t.versions(key))
    }

    /// Number of committed versions stored for `key`.
    pub fn version_count(&self, key: &Key) -> TsbResult<usize> {
        self.read_consistent(|t| t.version_count(key))
    }

    /// Every committed version of `key` in `window`, oldest first.
    pub fn history_between(&self, key: &Key, window: TimeRange) -> TsbResult<Vec<Version>> {
        self.read_consistent(|t| t.history_between(key, window))
    }

    /// Every committed version in the `keys` × `window` rectangle.
    pub fn scan_versions(&self, keys: &KeyRange, window: TimeRange) -> TsbResult<Vec<Version>> {
        self.read_consistent(|t| t.scan_versions(keys, window))
    }

    /// The keys in `keys` that changed during `window`.
    pub fn changed_keys_between(&self, keys: &KeyRange, window: TimeRange) -> TsbResult<Vec<Key>> {
        self.read_consistent(|t| t.changed_keys_between(keys, window))
    }

    // ----- snapshots and the fence ---------------------------------------

    /// The commit time of the newest fully installed write. Reads pinned at
    /// or before this timestamp are stable: no in-flight mutation can
    /// change their answer.
    pub fn last_installed(&self) -> Timestamp {
        Timestamp(self.inner.fence.load(Ordering::Acquire))
    }

    /// Begins a lock-free read-only transaction pinned to the last fully
    /// installed write (§4.1). The snapshot owns a handle to the engine, so
    /// it can outlive this reference and move across threads.
    pub fn begin_snapshot(&self) -> ConcurrentSnapshot {
        ConcurrentSnapshot {
            db: self.clone(),
            ts: self.last_installed(),
        }
    }

    /// A read-only view pinned to an explicit past timestamp. Stability is
    /// only guaranteed for `ts ≤ last_installed()`.
    pub fn snapshot_as_of(&self, ts: Timestamp) -> ConcurrentSnapshot {
        ConcurrentSnapshot {
            db: self.clone(),
            ts,
        }
    }

    // ----- passthroughs ---------------------------------------------------

    /// The tree configuration.
    pub fn config(&self) -> &TsbConfig {
        self.inner.tree.config()
    }

    /// The shared I/O statistics counters (atomic; safe to snapshot from
    /// any thread).
    pub fn io_stats(&self) -> &Arc<IoStats> {
        self.inner.tree.io_stats()
    }

    /// The current logical time (next commit timestamp). May be ahead of
    /// [`Self::last_installed`] while a write is in flight.
    pub fn now(&self) -> Timestamp {
        self.inner.tree.now()
    }

    /// Space currently occupied on the two devices.
    pub fn space(&self) -> SpaceSnapshot {
        self.inner.tree.space()
    }

    /// The storage cost `CS = SpaceM·CM + SpaceO·CO` of the current state.
    pub fn storage_cost(&self) -> f64 {
        self.inner.tree.storage_cost()
    }
}

/// An owning, thread-safe read-only view of the database pinned to a fixed
/// timestamp — the concurrent counterpart of [`crate::SnapshotReader`].
///
/// Because the pinned time is at or before the engine's install fence (when
/// obtained via [`ConcurrentTsb::begin_snapshot`]) and historical versions
/// are never mutated, every query on a snapshot returns the same answer no
/// matter how many writes commit concurrently — dump it before, during, and
/// after a write storm and the version set is identical.
#[derive(Clone, Debug)]
pub struct ConcurrentSnapshot {
    db: ConcurrentTsb,
    ts: Timestamp,
}

impl ConcurrentSnapshot {
    /// The snapshot's pinned read timestamp.
    pub fn timestamp(&self) -> Timestamp {
        self.ts
    }

    /// Reads a key as of the snapshot time.
    pub fn get(&self, key: &Key) -> TsbResult<Option<Vec<u8>>> {
        self.db.get_as_of(key, self.ts)
    }

    /// Scans a key range as of the snapshot time.
    pub fn scan(&self, range: &KeyRange) -> TsbResult<Vec<(Key, Vec<u8>)>> {
        self.db.scan_as_of(range, self.ts)
    }

    /// Dumps the entire database as of the snapshot time (the lock-free
    /// backup/unload the paper highlights).
    pub fn dump(&self) -> TsbResult<Vec<(Key, Vec<u8>)>> {
        self.db.snapshot_at(self.ts)
    }

    /// Number of keys alive in `range` at the snapshot time.
    pub fn count(&self, range: &KeyRange) -> TsbResult<usize> {
        self.db.count_as_of(range, self.ts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    fn engine() -> ConcurrentTsb {
        crate::TsbOptions::in_memory()
            .config(TsbConfig::small_pages())
            .open_concurrent()
            .unwrap()
    }

    #[test]
    fn single_threaded_semantics_match_the_tree() {
        let db = engine();
        let t1 = db.insert(1u64, b"a".to_vec()).unwrap();
        let t2 = db.insert(1u64, b"b".to_vec()).unwrap();
        db.delete(1u64).unwrap();
        assert!(db.get_current(&Key::from_u64(1)).unwrap().is_none());
        assert_eq!(db.get_as_of(&Key::from_u64(1), t1).unwrap().unwrap(), b"a");
        assert_eq!(db.get_as_of(&Key::from_u64(1), t2).unwrap().unwrap(), b"b");
        assert_eq!(db.versions(&Key::from_u64(1)).unwrap().len(), 3);
        db.verify().unwrap();
    }

    #[test]
    fn fence_tracks_fully_installed_writes() {
        let db = engine();
        assert_eq!(db.last_installed(), Timestamp::ZERO);
        let ts = db.insert(7u64, b"x".to_vec()).unwrap();
        assert_eq!(db.last_installed(), ts);
        let snap = db.begin_snapshot();
        assert_eq!(snap.timestamp(), ts);
        // Later writes never move an existing snapshot.
        db.insert(7u64, b"y".to_vec()).unwrap();
        assert_eq!(snap.get(&Key::from_u64(7)).unwrap().unwrap(), b"x");
        assert!(db.last_installed() > ts);
    }

    #[test]
    fn transactions_commit_atomically_through_the_writer_pipeline() {
        let db = engine();
        let txn = db.begin_txn();
        db.txn_insert(txn, 1u64, b"one".to_vec()).unwrap();
        db.txn_insert(txn, 2u64, b"two".to_vec()).unwrap();
        assert!(db.get_current(&Key::from_u64(1)).unwrap().is_none());
        assert_eq!(db.txn_get(txn, &Key::from_u64(1)).unwrap().unwrap(), b"one");
        let ts = db.commit_txn(txn).unwrap();
        assert_eq!(db.last_installed(), ts);
        assert_eq!(db.get_current(&Key::from_u64(1)).unwrap().unwrap(), b"one");
        assert_eq!(db.get_current(&Key::from_u64(2)).unwrap().unwrap(), b"two");
    }

    #[test]
    fn concurrent_readers_see_consistent_prefixes() {
        let db = engine();
        for i in 0..50u64 {
            db.insert(i, format!("seed-{i}").into_bytes()).unwrap();
        }
        let stop_at = 3_000u64;
        let writer = {
            let db = db.clone();
            thread::spawn(move || {
                for i in 0..stop_at {
                    db.insert(i % 50, format!("gen-{i}").into_bytes()).unwrap();
                }
            })
        };
        let readers: Vec<_> = (0..4)
            .map(|r| {
                let db = db.clone();
                thread::spawn(move || {
                    for i in 0..500u64 {
                        let ts = db.last_installed();
                        let key = Key::from_u64((r * 131 + i) % 50);
                        // Pinned at the fence, a value must exist for every
                        // seeded key.
                        let got = db.get_as_of(&key, ts).unwrap();
                        assert!(got.is_some(), "key {key} missing at fence {ts}");
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

    #[test]
    fn explicit_timestamps_below_the_fence_are_rejected() {
        let db = engine();
        let ts = db.insert(1u64, b"x".to_vec()).unwrap();
        // Writing at or below the fence would rewrite pinned history.
        assert!(db.insert_at(2u64, b"y".to_vec(), ts).is_err());
        assert!(db.delete_at(1u64, ts).is_err());
        assert!(db.insert_at(2u64, b"y".to_vec(), ts.prev()).is_err());
        // Above the fence is the ordinary replay path.
        db.insert_at(2u64, b"y".to_vec(), ts.next()).unwrap();
        assert_eq!(db.last_installed(), ts.next());
        assert_eq!(db.get_current(&Key::from_u64(2)).unwrap().unwrap(), b"y");
    }

    #[test]
    fn committed_transactions_are_atomic_to_concurrent_readers() {
        let db = engine();
        let keys: Vec<u64> = (0..8).collect();
        let txn = db.begin_txn();
        for k in &keys {
            db.txn_insert(txn, *k, vec![0]).unwrap();
        }
        db.commit_txn(txn).unwrap();

        let rounds = 200u8;
        thread::scope(|s| {
            {
                let db = db.clone();
                let keys = keys.clone();
                s.spawn(move || {
                    for round in 1..=rounds {
                        let txn = db.begin_txn();
                        for k in &keys {
                            db.txn_insert(txn, *k, vec![round]).unwrap();
                        }
                        db.commit_txn(txn).unwrap();
                    }
                });
            }
            for _ in 0..2 {
                let db = db.clone();
                let keys = keys.clone();
                s.spawn(move || loop {
                    let rows = db.scan_current(&tsb_common::KeyRange::full()).unwrap();
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

    #[test]
    fn try_into_tree_round_trips() {
        let db = engine();
        db.insert(1u64, b"v".to_vec()).unwrap();
        let clone = db.clone();
        let db = db.try_into_tree().unwrap_err(); // clone still alive
        drop(clone);
        let tree = db.try_into_tree().unwrap();
        assert_eq!(
            tree.get_current(&Key::from_u64(1)).unwrap().unwrap(),
            b"v".to_vec()
        );
    }
}
