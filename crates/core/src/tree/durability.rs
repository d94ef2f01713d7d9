//! The durable half of a tree's write path: the [`Durability`] state a
//! WAL-attached tree carries, its seat on a log it may share with the
//! other shards of an engine, the fences that end its mutations
//! (`wal_commit`, [`commit_across`], [`checkpoint_log`]) — the only place
//! a tree's state (root, clock, txn counter) is written — and the
//! acknowledgement side of pipelined commit: a commit fence returns the
//! log position its caller waits on, and [`TsbTree::wait_durable_lsn`]
//! parks on it. A mutation logs nothing before its first structural write:
//! each page's records go to the log with the write that installs the
//! page, so a mutation that fails before that write leaves no record.
//! What the log *means* on reopen is [`super::recover`]'s.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use tsb_common::{Timestamp, TsbError, TsbResult};
use tsb_storage::{Lsn, ShardFence, Wal, WalPageTable, WalRecord, WormStore};

use super::TsbTree;
use crate::node::NodeAddr;

/// A tree's place on a redo log: the log, the shard its records are
/// tagged with, and the WORM mark the log's pre-sync hook keeps for this
/// shard. Made by [`seat_trees`], one per shard.
pub(crate) struct LogSeat {
    wal: Arc<Wal>,
    shard: u32,
    worm_synced: Arc<AtomicU64>,
}

/// Seats one tree per WORM store on `wal`, shard `i` over `worms[i]`, and
/// installs the log's one pre-sync hook: before every fsync of the log it
/// settles every shard's WORM, so no fence in the about-to-be-durable
/// prefix can reference history that might not survive — which is also
/// what lets every recovery cut at or after each shard's durable fence.
pub(crate) fn seat_trees(wal: Wal, worms: &[Arc<WormStore>]) -> Vec<LogSeat> {
    let wal = Arc::new(wal);
    let marks: Vec<Arc<AtomicU64>> = worms.iter().map(|_| Arc::default()).collect();
    let settle: Vec<(Arc<WormStore>, Arc<AtomicU64>)> =
        worms.iter().cloned().zip(marks.iter().cloned()).collect();
    wal.set_pre_sync_hook(Box::new(move || {
        for (worm, synced) in &settle {
            let len = worm.device_bytes();
            if len > synced.load(Ordering::Acquire) {
                worm.sync()?;
                synced.store(len, Ordering::Release);
            }
        }
        Ok(())
    }));
    (0..)
        .zip(marks)
        .map(|(shard, worm_synced)| LogSeat {
            wal: Arc::clone(&wal),
            shard,
            worm_synced,
        })
        .collect()
}

/// The durability state of a WAL-attached tree.
///
/// Present on trees opened through a durable [`crate::TsbOptions`];
/// absent (and zero-cost) on in-memory trees. See the [`tsb_storage::wal`] module
/// docs for the log format and [`super::recover`] for the fence /
/// commit-cut protocol this drives.
pub(crate) struct Durability {
    /// The redo log. Appends happen *before* the node cache may hold the
    /// corresponding node dirty (WAL-before-page).
    pub(super) wal: Arc<Wal>,
    /// The shard this tree's records are tagged with on the log.
    shard: u32,
    /// Dirty-page table backing the WAL-before-page barrier: the one
    /// write-back site (`write_back_dirty`) runs the flushed-LSN rule
    /// through it before any device page write — free when this shard's
    /// durable fence already covers the page's newest record, one force of
    /// the log otherwise.
    pub(super) pages: WalPageTable,
    /// WORM device length known to be on stable storage (shared with the
    /// WAL's pre-sync hook). No commit record may become *durable* while
    /// it references history past this mark, or the commit could outlive
    /// the history it points at; the WAL's pre-sync hook restores the
    /// invariant at exactly the moments commits become durable — before
    /// every log fsync (policy-triggered, flushed-LSN barrier, or
    /// checkpoint) — instead of charging every migrating commit an eager
    /// WORM fsync under `Os`.
    pub(super) worm_synced: Arc<AtomicU64>,
    /// The `(root, next txn id)` carried by the newest fence record whose
    /// metadata was written out in full. A commit whose state is fully
    /// predictable from it — same root, same txn counter, clock following
    /// the commit timestamp — elides its metadata payload (recovery
    /// re-derives it), shaving a third off the steady-state commit record.
    /// `None` until the current log generation holds a full-meta fence.
    last_fence: Mutex<Option<(NodeAddr, u64)>>,
    /// This shard's fences against the WAL's durable watermark: what
    /// [`TsbTree::last_durable_commit`] reports on live durable trees, and
    /// the durable fence the write-back barrier reads.
    acks: Mutex<CommitAcks>,
}

/// Maps the WAL's durable-LSN watermark back to this shard's fences:
/// which of its commits are on stable storage right now.
#[derive(Default)]
struct CommitAcks {
    /// Appended commit fences naming this shard not yet settled, oldest
    /// first.
    pending: VecDeque<(Lsn, Timestamp)>,
    /// The newest commit timestamp whose fence the watermark covers.
    durable_ts: Option<Timestamp>,
    /// The newest of this shard's fences the watermark covers: its
    /// durable fence. Another shard's fence never counts — recovery
    /// replays this shard only through fences that name it.
    durable_fence: Lsn,
}

impl CommitAcks {
    /// Bounds `pending` under `Os` (nothing waits, so only checkpoints
    /// drain it): past the cap, a new fence coalesces into the newest
    /// entry, under-reporting the overwritten commit's durability until
    /// the newer fence syncs — the safe direction.
    const CAP: usize = 4096;

    /// Registers an appended commit fence.
    fn push(&mut self, lsn: Lsn, ts: Timestamp) {
        if self.pending.len() >= Self::CAP {
            if let Some(back) = self.pending.back_mut() {
                *back = (lsn, ts);
                return;
            }
        }
        self.pending.push_back((lsn, ts));
    }

    /// Marks every fence at or below `durable_lsn` durable.
    fn settle(&mut self, durable_lsn: Lsn) {
        while matches!(self.pending.front(), Some((lsn, _)) if *lsn <= durable_lsn) {
            let (lsn, ts) = self.pending.pop_front().expect("front was just checked");
            self.durable_ts = Some(self.durable_ts.map_or(ts, |prev| prev.max(ts)));
            self.durable_fence = lsn;
        }
    }
}

impl Durability {
    /// The state of a tree sitting on `seat`.
    pub(super) fn new(seat: LogSeat) -> Durability {
        Durability {
            wal: seat.wal,
            shard: seat.shard,
            pages: WalPageTable::new(),
            worm_synced: seat.worm_synced,
            last_fence: Mutex::new(None),
            acks: Mutex::new(CommitAcks::default()),
        }
    }

    /// This shard's durable fence, settled against the log's watermark
    /// now: what the write-back barrier compares a page's newest record
    /// with.
    pub(super) fn durable_fence(&self) -> Lsn {
        let mut acks = self.acks.lock();
        acks.settle(self.wal.durable_lsn());
        acks.durable_fence
    }
}

/// Checkpoints every tree on one log: flushes each to its devices, then
/// replaces the log with one fence holding every tree's state — a
/// `Checkpoint` for a log of one tree, a `ShardCheckpoint` for several —
/// then starts each tree's fresh log interval. `trees` are every shard of
/// the log, in shard order, and no mutation may run on any of them (the
/// caller holds every writer lock). Returns the fence's body as logged;
/// in-memory trees only flush, and return `None`.
pub(crate) fn checkpoint_log(trees: &[&TsbTree]) -> TsbResult<Option<Vec<u8>>> {
    for tree in trees {
        tree.flush_devices()?;
    }
    let Some(d) = trees.first().and_then(|t| t.durability.as_ref()) else {
        return Ok(None);
    };
    let parts: Vec<ShardFence> = trees
        .iter()
        .filter_map(|tree| {
            Some(ShardFence {
                shard: tree.durability.as_ref()?.shard,
                worm_len: tree.worm.device_bytes(),
                meta: tree.encode_meta_bytes(),
            })
        })
        .collect();
    let record = match <[ShardFence; 1]>::try_from(parts) {
        Ok([one]) => WalRecord::Checkpoint {
            worm_len: one.worm_len,
            meta: one.meta,
        },
        Err(parts) => WalRecord::ShardCheckpoint { parts },
    };
    // A completed checkpoint fences everything before it, so the log is
    // atomically *replaced* by the new fence record (write-new-then-rename
    // inside `reset_with`, fsynced) instead of growing without bound: the
    // log stays one checkpoint interval long, and reopen cost is O(since
    // last checkpoint).
    let lsn = d.wal.reset_with(&record).inspect_err(|_| {
        trees.iter().for_each(|t| t.poison());
    })?;
    for tree in trees {
        tree.begin_interval();
    }
    Ok(Some(record.encode_body(lsn)))
}

/// Fences one commit at `ts` over several trees sharing a log — the
/// cross-shard commit: one `ShardCommit` naming each tree's state, so
/// recovery replays the commit on every participant or on none. Each
/// tree's writes are already stamped and logged under its own tag; the
/// caller holds every participant's writer lock. Returns the position to
/// wait on before acknowledging (the policy's, as for a single-tree
/// commit); `None` for in-memory trees.
pub(crate) fn commit_across(trees: &[&TsbTree], ts: Timestamp) -> TsbResult<Option<Lsn>> {
    let Some(d) = trees.first().and_then(|t| t.durability.as_ref()) else {
        return Ok(None);
    };
    // Every shard of one log is durable, as the first one is.
    let parts = trees
        .iter()
        .filter_map(|tree| Some(tree.fence_part(tree.durability.as_ref()?, None)))
        .collect();
    // A fence naming its shards takes no shard switch, whatever the tag.
    let (lsn, boundary) = d.wal.append_for(
        0,
        &WalRecord::ShardCommit {
            ts: ts.value(),
            parts,
        },
    )?;
    for tree in trees {
        tree.fence_appended(lsn, ts)?;
    }
    Ok(boundary)
}

impl TsbTree {
    /// The commit timestamp of the newest mutation known to be on stable
    /// storage — the durable prefix's upper bound. For a tree produced by
    /// recovery this starts at the recovery cut; on a live
    /// durable tree it then advances with the WAL's durable-LSN watermark
    /// as commit fences are fsynced (pipelined group commit). `None` for
    /// non-durable trees that were also not born from recovery.
    pub(crate) fn last_durable_commit(&self) -> Option<Timestamp> {
        let settled = self.durability.as_ref().and_then(|d| {
            let mut acks = d.acks.lock();
            acks.settle(d.wal.durable_lsn());
            acks.durable_ts
        });
        match (self.recovered_to, settled) {
            (Some(cut), Some(live)) => Some(cut.max(live)),
            (cut, live) => cut.or(live),
        }
    }

    // ----- write-ahead logging --------------------------------------------

    /// Appends one record to the WAL. A failed append **poisons the tree**:
    /// the in-memory state is ahead of what can ever be made durable again,
    /// and continuing to serve (or mutate) it would silently widen the gap,
    /// so every subsequent operation refuses instead.
    pub(super) fn wal_append(&self, record: &WalRecord) -> TsbResult<Lsn> {
        let d = self
            .durability
            .as_ref()
            .expect("wal_append is only called on durable trees");
        let (lsn, _) = d
            .wal
            .append_for(d.shard, record)
            .inspect_err(|_| self.poison())?;
        Ok(lsn)
    }

    /// Poisons the tree: every later read and write refuses. For a state
    /// in memory that no fence can ever make durable as it stands.
    pub(crate) fn poison(&self) {
        self.poisoned.store(true, Ordering::Release);
    }

    /// Poisons the tree if a fence naming it was appended past the log's
    /// durable watermark: after a failed wait, such a fence never becomes
    /// durable. A tree with every fence covered is left serving.
    pub(crate) fn poison_if_unsettled(&self) {
        let Some(d) = &self.durability else {
            return;
        };
        let mut acks = d.acks.lock();
        acks.settle(d.wal.durable_lsn());
        if !acks.pending.is_empty() {
            self.poison();
        }
    }

    /// Appends the commit fence ending a mutation: a `Commit` record whose
    /// metadata describes the resulting tree state, promising that every
    /// page image the mutation produced precedes it in the log. Returns
    /// the position the mutation's caller must wait on before
    /// acknowledging it ([`Self::wait_durable_lsn`]) — the fsync policy's,
    /// as for [`commit_across`] — and `None` on non-durable trees.
    ///
    /// Overflow write-back deferred by [`Self::write_current`] drains here,
    /// *after* the fence: a page image may only reach the device once a
    /// commit record covers it, otherwise a crash could leave the device
    /// holding state that recovery's replay cut discards (see
    /// [`super::recover`], step 3).
    pub(crate) fn wal_commit(&self, ts: Timestamp) -> TsbResult<Option<Lsn>> {
        let Some(d) = &self.durability else {
            return Ok(None);
        };
        let ShardFence { worm_len, meta, .. } = self.fence_part(d, Some(ts));
        let record = WalRecord::Commit {
            ts: ts.value(),
            worm_len,
            meta,
        };
        // Pipelined commit: the fence is appended, nothing more — whoever
        // waits on it asks for its sync, once its locks are released.
        let (lsn, boundary) = d
            .wal
            .append_for(d.shard, &record)
            .inspect_err(|_| self.poison())?;
        self.fence_appended(lsn, ts)?;
        Ok(boundary)
    }

    /// This tree's part of a fence: the shard, WORM length and metadata
    /// the fence carries. `elide_at` is the commit timestamp of a
    /// single-tree `Commit`, whose metadata is elided when recovery can
    /// re-derive it; a fence naming several shards always carries it whole.
    pub(super) fn fence_part(&self, d: &Durability, elide_at: Option<Timestamp>) -> ShardFence {
        // If this mutation migrated history, the WORM bytes must be stable
        // before a fence referencing them can be *durable* — under every
        // fsync policy. For `Always` the reason is the acknowledgement
        // contract: a power failure after the commit's fsync but before
        // the OS flushed the WORM tail would force recovery to cut before
        // this commit. For `Os` the reason is device consistency: the
        // flushed-LSN barrier waits for a durable *WAL* fence (not the
        // WORM) before page write-backs, so the page device could
        // otherwise hold images from a commit whose WORM history was lost.
        // The log's pre-sync hook (installed by `seat_trees`) settles every
        // shard's WORM immediately before *every* fsync of the log — the
        // only moments a fence can become durable — so an `Os` commit pays
        // no eager WORM fsync here; `Always` pays it inside its own commit
        // fsync.
        let worm_len = self.worm.device_bytes();
        // Elide the metadata payload when recovery can re-derive it from
        // the previous fence: same root, same txn counter, and the logical
        // clock sitting exactly one past the commit timestamp (true for
        // every insert, delete and commit, `insert_at` included, since it
        // refuses a timestamp older than the newest issued; a clock ahead
        // of it falls back to full metadata).
        let root = self.current_root();
        let next_txn = self.txns.lock().next_id_value();
        let mut last = d.last_fence.lock();
        let elide = elide_at.is_some_and(|ts| self.clock.now() == ts.next());
        let meta = if elide && *last == Some((root, next_txn)) {
            Vec::new()
        } else {
            *last = Some((root, next_txn));
            self.encode_meta_bytes()
        };
        ShardFence {
            shard: d.shard,
            worm_len,
            meta,
        }
    }

    /// Books a fence naming this tree, appended at `lsn` for a commit at
    /// `ts` — in `acks`, so `last_durable_commit` and the write-back
    /// barrier can track the watermark — then drains the overflow
    /// write-backs the mutation deferred. They wait for the fence: a page
    /// image may only reach the device once a fence covers it, otherwise a
    /// crash could leave the device holding state that recovery's replay
    /// cut discards (see [`super::recover`], step 3). A replica books each
    /// shipped commit fence it installs here too.
    pub(crate) fn fence_appended(&self, lsn: Lsn, ts: Timestamp) -> TsbResult<()> {
        let Some(d) = &self.durability else {
            return Ok(());
        };
        {
            let mut acks = d.acks.lock();
            acks.push(lsn, ts);
            acks.settle(d.wal.durable_lsn());
        }
        while let Some((page, node)) = self.cache.any_dirty_overflow_victim() {
            self.write_back_dirty(page, &node)?;
        }
        Ok(())
    }

    /// Starts a fresh log interval after [`checkpoint_log`] replaced the
    /// log with a checkpoint holding this tree's state.
    fn begin_interval(&self) {
        let Some(d) = &self.durability else {
            return;
        };
        // A fresh log generation holds no page bases: the first-touch set
        // resets so every page logs a full image again before its next
        // delta, and the write-back coverage map starts over (the flush
        // drained every dirty page).
        d.pages.begin_interval();
        // The checkpoint is a full-meta fence: later commits may elide
        // their metadata against it.
        *d.last_fence.lock() = Some((self.current_root(), self.txns.lock().next_id_value()));
        d.worm_synced
            .store(self.worm.device_bytes(), Ordering::Release);
        // The checkpoint quiesced the commit pipeline: every appended
        // fence is durable (the reset jumped the watermark over them).
        d.acks.lock().settle(Lsn::MAX);
    }

    /// Returns once the log's durable watermark covers `lsn`, leading the
    /// sync on this thread or parking on the one on the device (see
    /// [`Wal::wait_durable`]) — the acknowledgement half of a pipelined
    /// commit, run on the position a mutation returned (`None`: nothing
    /// owed). A `&mut` commit verb waits at once, so `insert` or
    /// `commit_txn` returning under `Always` means the commit is on stable
    /// storage; a shard waits
    /// after its writer lock drops. A transaction's writes and its abort
    /// owe no wait: the commit's fence follows them on the one log. A
    /// failed wait **poisons the tree**: the fence was appended but can
    /// never become durable, so the in-memory state is permanently ahead
    /// of the log. A position the log never handed out is refused as a
    /// `Config` error that poisons nothing: nothing was appended there, so
    /// nothing is wrong with the tree.
    pub(crate) fn wait_durable_lsn(&self, lsn: Option<Lsn>) -> TsbResult<()> {
        let (Some(d), Some(lsn)) = (&self.durability, lsn) else {
            return Ok(());
        };
        d.wal.wait_durable(lsn).inspect_err(|e| {
            if !matches!(e, TsbError::Config(_)) {
                self.poison();
            }
        })?;
        d.acks.lock().settle(d.wal.durable_lsn());
        Ok(())
    }

    /// Whether content-only rewrites on this tree should describe
    /// themselves as logical [`tsb_storage::PageOp`] deltas for the redo log. Callers
    /// on the hot path use this to skip building the ops (and the version
    /// clone they cost) entirely when nothing would consume them.
    pub(crate) fn logs_deltas(&self) -> bool {
        self.durability.is_some() && !self.log_images_only
    }
}
