//! The durable half of a tree's write path: the [`Durability`] state a
//! WAL-attached tree carries, the fences that end its mutations
//! (`wal_commit`, `wal_prepare`, `wal_decision`, the checkpoint), the
//! phantom-delta quarantine, and the acknowledgement side of pipelined
//! commit. What the log *means* on reopen is [`super::recover`]'s.

use std::collections::{HashSet, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use tsb_common::{Timestamp, TsbResult, TxnId};
use tsb_storage::{Lsn, PageId, PageOp, Wal, WalPageTable, WalRecord, WormStore};

use super::TsbTree;
use crate::node::NodeAddr;

/// The durability state of a WAL-attached tree.
///
/// Present on trees opened through [`TsbTree::create_durable`] or a
/// durable [`crate::TsbOptions`]; absent (and zero-cost) on plain
/// in-memory or file-backed trees. See the [`tsb_storage::wal`] module
/// docs for the log format and [`super::recover`] for the fence /
/// commit-cut protocol this drives.
pub(crate) struct Durability {
    /// The redo log. Appends happen *before* the node cache may hold the
    /// corresponding node dirty (WAL-before-page).
    pub(super) wal: Arc<Wal>,
    /// Dirty-page table backing the WAL-before-page barrier: the one
    /// write-back site (`write_back_dirty`) runs the flushed-LSN rule
    /// through it before any device page write.
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
    /// Pages that received mid-split *pending* deltas
    /// ([`TsbTree::wal_append_ops`]) during the current mutation. Cleared
    /// at the commit fence (success: the split's later records composed
    /// with them); on failure they move to [`Self::needs_reimage`] — the
    /// deltas are then *phantoms*, describing state the mutation rolled
    /// back.
    pending_delta_pages: Mutex<HashSet<PageId>>,
    /// Pages whose newest logged records are phantom deltas from a failed
    /// (but non-poisoning) mutation. The next commit fence must supersede
    /// each with a full image of the page's true state *before* the fence
    /// makes the phantoms replayable — otherwise recovery would apply a
    /// change the caller was told failed.
    needs_reimage: Mutex<HashSet<PageId>>,
    /// The durable-LSN wait deferred by the newest commit fence: set by
    /// [`TsbTree::wal_commit`] when the fsync policy wants the commit
    /// acknowledged only once durable. Single-writer wrappers consume and
    /// wait inline ([`TsbTree::settle_durability`]); the concurrent engine
    /// takes it while still holding its writer lock and parks *after*
    /// releasing it (early lock release).
    pending_wait: Mutex<Option<Lsn>>,
    /// Fence-LSN → commit-timestamp bookkeeping against the WAL's durable
    /// watermark: what [`TsbTree::last_durable_commit`] reports on live
    /// durable trees.
    acks: Mutex<CommitAcks>,
}

/// Maps the WAL's durable-LSN watermark back to commit timestamps: which
/// commits are on stable storage right now.
#[derive(Default)]
struct CommitAcks {
    /// Appended commit fences not yet settled, oldest first.
    pending: VecDeque<(Lsn, Timestamp)>,
    /// The newest commit timestamp whose fence the watermark covers.
    durable_ts: Option<Timestamp>,
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
            let (_, ts) = self.pending.pop_front().expect("front was just checked");
            self.durable_ts = Some(self.durable_ts.map_or(ts, |prev| prev.max(ts)));
        }
    }
}

impl TsbTree {
    /// Builds the [`Durability`] state for a WAL-attached tree: the
    /// dirty-page table the write-back barrier forces the log through, and
    /// the WORM settle-before-durability rule hooked into the log's fsync
    /// path (see [`Durability::worm_synced`]).
    pub(super) fn attach_wal(wal: Wal, worm: &Arc<WormStore>) -> Durability {
        let wal = Arc::new(wal);
        let pages = WalPageTable::new();
        pages.attach_wal(Arc::clone(&wal));
        let worm_synced = Arc::new(AtomicU64::new(0));
        {
            let worm = Arc::clone(worm);
            let synced = Arc::clone(&worm_synced);
            wal.set_pre_sync_hook(Box::new(move || {
                let len = worm.device_bytes();
                if len > synced.load(Ordering::Acquire) {
                    worm.sync()?;
                    synced.store(len, Ordering::Release);
                }
                Ok(())
            }));
        }
        Durability {
            wal,
            pages,
            worm_synced,
            last_fence: Mutex::new(None),
            pending_delta_pages: Mutex::new(HashSet::new()),
            needs_reimage: Mutex::new(HashSet::new()),
            pending_wait: Mutex::new(None),
            acks: Mutex::new(CommitAcks::default()),
        }
    }

    /// The commit timestamp of the newest mutation known to be on stable
    /// storage — the durable prefix's upper bound. For a tree produced by
    /// recovery this starts at the recovery cut; on a live
    /// durable tree it then advances with the WAL's durable-LSN watermark
    /// as commit fences are fsynced (pipelined group commit). `None` for
    /// non-durable trees that were also not born from recovery.
    pub fn last_durable_commit(&self) -> Option<Timestamp> {
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

    /// Whether this tree redo-logs its mutations to a write-ahead log.
    pub fn is_durable(&self) -> bool {
        self.durability.is_some()
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
        d.wal.append(record).inspect_err(|_| {
            self.poisoned.store(true, Ordering::Release);
        })
    }

    /// Appends the commit fence ending a mutation: a `Commit` record whose
    /// metadata describes the resulting tree state, promising that every
    /// page image the mutation produced precedes it in the log. The WAL's
    /// fsync policy (group commit) decides whether this forces stable
    /// storage. No-op on non-durable trees.
    ///
    /// Overflow write-back deferred by [`Self::write_current`] drains here,
    /// *after* the fence: a page image may only reach the device once a
    /// commit record covers it, otherwise a crash could leave the device
    /// holding state that recovery's replay cut discards (see
    /// [`super::recover`], step 3).
    pub(crate) fn wal_commit(&self, ts: Timestamp) -> TsbResult<()> {
        let Some(d) = &self.durability else {
            return Ok(());
        };
        self.wal_reimage_stale(d)?;
        // This mutation reached its fence: its pending deltas (if any)
        // composed with the split records that followed them.
        d.pending_delta_pages.lock().clear();
        let worm_len = self.worm.device_bytes();
        // If this mutation migrated history, the WORM bytes must be stable
        // before a commit record referencing them can be *durable* — under
        // every fsync policy. For `Always` the reason is the
        // acknowledgement contract: a power failure after the commit's
        // fsync but before the OS flushed the WORM tail would force
        // recovery to cut before this commit. For `Os` the reason is
        // device consistency: the flushed-LSN barrier forces the *WAL*
        // (not the WORM) before page write-backs, so the page device could
        // otherwise hold images from a commit whose WORM history was lost.
        // The WAL's pre-sync hook (installed by `attach_wal`) settles the
        // WORM immediately before *every* fsync of the log — the only
        // moments a commit record can become durable — so an `Os` commit
        // pays no eager WORM fsync here; `Always` pays it inside its own
        // commit fsync.
        // Elide the metadata payload when recovery can re-derive it from
        // the previous fence: same root, same txn counter, and the logical
        // clock sitting exactly one past the commit timestamp (true for
        // every plain insert/delete/commit; an out-of-order `insert_at`
        // leaves the clock ahead and falls back to full metadata).
        let root = self.current_root();
        let next_txn = self.txns.lock().next_id_value();
        let meta = {
            let mut last = d.last_fence.lock();
            if self.clock.now() == ts.next() && *last == Some((root, next_txn)) {
                Vec::new()
            } else {
                *last = Some((root, next_txn));
                self.encode_meta_bytes()
            }
        };
        let record = WalRecord::Commit {
            ts: ts.value(),
            worm_len,
            meta,
        };
        // Pipelined commit: the fence is appended, nothing more — whoever
        // waits on it asks for its sync. The deferred wait lands in
        // `pending_wait` for the engine wrapper to consume once its locks
        // are released; the fence/timestamp pair lands in `acks` so
        // `last_durable_commit` can track the watermark.
        let (lsn, boundary) = d.wal.append_commit(&record).inspect_err(|_| {
            self.poisoned.store(true, Ordering::Release);
        })?;
        {
            let mut acks = d.acks.lock();
            acks.push(lsn, ts);
            acks.settle(d.wal.durable_lsn());
        }
        *d.pending_wait.lock() = boundary;
        while let Some((page, node)) = self.cache.any_dirty_overflow_victim() {
            self.write_back_dirty(page, &node)?;
        }
        Ok(())
    }

    /// Neutralizes phantoms quarantined by an earlier failed mutation
    /// *before* a fence makes them replayable: each page gets a full
    /// image of its true current state, which supersedes the phantom
    /// deltas at replay (a later image always wins). Pages a successful
    /// write already re-imaged (their first touch after the quarantine)
    /// need nothing. The set is only emptied after every corrective
    /// image landed, so an error here retries at the next fence.
    fn wal_reimage_stale(&self, d: &Durability) -> TsbResult<()> {
        let stale: Vec<PageId> = d.needs_reimage.lock().iter().copied().collect();
        if !stale.is_empty() {
            for &page in &stale {
                if d.pages.is_imaged(page) {
                    continue;
                }
                let node = self.read_node(NodeAddr::Current(page))?;
                let record = WalRecord::PageImage {
                    page,
                    bytes: node.encode(),
                };
                let lsn = self.wal_append(&record)?;
                d.pages.record(page, lsn);
                d.pages.first_touch(page);
            }
            let mut set = d.needs_reimage.lock();
            for page in &stale {
                set.remove(page);
            }
        }
        Ok(())
    }

    /// The log half of a checkpoint ([`Self::flush_shared`] calls it once
    /// every dirty node is encoded, every dirty page written and both
    /// devices synced): fences the redo log with a checkpoint record and
    /// starts a fresh log generation. No-op on non-durable trees.
    pub(super) fn wal_checkpoint(&self) -> TsbResult<()> {
        let Some(d) = &self.durability else {
            return Ok(());
        };
        let worm_len = self.worm.device_bytes();
        let record = WalRecord::Checkpoint {
            worm_len,
            meta: self.encode_meta_bytes(),
        };
        // A completed checkpoint fences everything before it, so the
        // log is atomically *replaced* by the new fence record
        // (write-new-then-rename inside `reset_with`, fsynced) instead
        // of growing without bound: the log stays one checkpoint
        // interval long, and reopen cost is O(since last checkpoint).
        d.wal.reset_with(&record).inspect_err(|_| {
            self.poisoned.store(true, Ordering::Release);
        })?;
        // A fresh log generation holds no page bases: the first-touch
        // set resets so every page logs a full image again before its
        // next delta, and the write-back coverage map starts over (the
        // flush drained every dirty page).
        d.pages.begin_interval();
        // The log reset obsoleted any quarantined phantoms along with
        // everything else pre-fence.
        d.needs_reimage.lock().clear();
        d.pending_delta_pages.lock().clear();
        // The checkpoint is a full-meta fence: later commits may elide
        // their metadata against it.
        *d.last_fence.lock() = Some((self.current_root(), self.txns.lock().next_id_value()));
        d.worm_synced.store(worm_len, Ordering::Release);
        // The checkpoint quiesced the commit pipeline: every appended
        // fence is durable (the reset jumped the watermark over them)
        // and no deferred wait remains outstanding.
        d.acks.lock().settle(Lsn::MAX);
        *d.pending_wait.lock() = None;
        Ok(())
    }

    /// Appends a two-phase-commit **prepare** fence: the transaction's
    /// writes are all in the log before it, and its metadata is always
    /// written in full (a prepare is a cut candidate recovery must be able
    /// to stand on). It becomes the participant's promise that it can
    /// commit only once durable — the caller forces it
    /// ([`Self::request_durable_tail`] + [`Self::wait_durable_lsn`]) before
    /// the decision is logged. No-op on non-durable trees.
    pub(crate) fn wal_prepare(
        &self,
        ts: Timestamp,
        txn: TxnId,
        coordinator: u32,
        participants: &[u32],
    ) -> TsbResult<()> {
        let Some(d) = &self.durability else {
            return Ok(());
        };
        self.wal_reimage_stale(d)?;
        d.pending_delta_pages.lock().clear();
        let worm_len = self.worm.device_bytes();
        let root = self.current_root();
        let next_txn = self.txns.lock().next_id_value();
        // A prepare is a full-meta fence: later commits may elide their
        // metadata against it, exactly as against a checkpoint.
        *d.last_fence.lock() = Some((root, next_txn));
        let record = WalRecord::Prepare {
            ts: ts.value(),
            worm_len,
            meta: self.encode_meta_bytes(),
            txn: txn.value(),
            coordinator,
            participants: participants.to_vec(),
        };
        self.wal_append(&record)?;
        Ok(())
    }

    /// Appends the coordinator's two-phase-commit **decision**: logged
    /// only once every participant's prepare is durable, it is the single
    /// record that decides the transaction — recovery commits an in-doubt
    /// prepare iff the coordinator's log holds its decision. The caller
    /// forces it before any participant's commit is logged. No-op on
    /// non-durable trees.
    pub(crate) fn wal_decision(&self, ts: Timestamp, participants: &[u32]) -> TsbResult<()> {
        if self.durability.is_none() {
            return Ok(());
        }
        let record = WalRecord::Decision {
            ts: ts.value(),
            participants: participants.to_vec(),
        };
        self.wal_append(&record)?;
        Ok(())
    }

    /// Asks the log for everything appended so far, whatever the fsync
    /// policy, without parking: the position to hand to
    /// [`Self::wait_durable_lsn`], `None` on a non-durable tree. Asking
    /// several trees before parking on any is what lets their logs' syncs
    /// run side by side.
    pub(crate) fn request_durable_tail(&self) -> Option<Lsn> {
        let wal = &self.durability.as_ref()?.wal;
        let tail = wal.last_lsn();
        // The tail only grows, so it cannot have passed out of range.
        wal.request_durable(tail).ok()?;
        Some(tail)
    }

    /// Takes the durable-LSN wait deferred by the newest commit fence, if
    /// any. The concurrent engine calls this while still holding its
    /// writer lock (the cell is a single slot the next writer overwrites),
    /// then parks via [`Self::wait_durable_lsn`] after releasing it.
    pub(crate) fn take_pending_durable_wait(&self) -> Option<Lsn> {
        self.durability.as_ref()?.pending_wait.lock().take()
    }

    /// Asks the log for `lsn`, then parks until its durable watermark
    /// covers it — the acknowledgement half of a pipelined commit. A
    /// failed wait **poisons the tree**: the fence was appended but can
    /// never become durable, so the in-memory state is permanently ahead
    /// of the log. A position the log never handed out is refused before
    /// that: nothing was appended there, so nothing is wrong with the tree.
    pub(crate) fn wait_durable_lsn(&self, lsn: Lsn) -> TsbResult<()> {
        let Some(d) = &self.durability else {
            return Ok(());
        };
        d.wal.request_durable(lsn)?;
        d.wal.wait_durable(lsn).inspect_err(|_| {
            self.poisoned.store(true, Ordering::Release);
        })?;
        d.acks.lock().settle(d.wal.durable_lsn());
        Ok(())
    }

    /// Completes a single-writer mutation: consumes the deferred
    /// durability wait and, when the mutation succeeded, parks on it —
    /// preserving the acknowledgement contract (`insert` returning under
    /// `Always` means the commit is on stable storage). The concurrent
    /// engine splits these two steps around its writer-lock release
    /// instead.
    pub(crate) fn settle_durability<T>(&self, result: TsbResult<T>) -> TsbResult<T> {
        let wait = self.take_pending_durable_wait();
        let value = result?;
        if let Some(lsn) = wait {
            self.wait_durable_lsn(lsn)?;
        }
        Ok(value)
    }

    /// Whether content-only rewrites on this tree should describe
    /// themselves as logical [`PageOp`] deltas for the redo log. Callers
    /// on the hot path use this to skip building the ops (and the version
    /// clone they cost) entirely when nothing would consume them.
    pub(crate) fn logs_deltas(&self) -> bool {
        self.durability.is_some() && !self.log_images_only
    }

    /// Whether a *pending* delta for `page` — one logged mid-split, before
    /// the page's final node is installed — would have a base to apply to.
    /// False when the page has no image in the current log generation: the
    /// pending op is then skipped entirely, because the page's next full
    /// write will first-touch an image that subsumes it.
    pub(crate) fn pending_ops_allowed(&self, page: PageId) -> bool {
        match &self.durability {
            Some(d) => self.logs_deltas() && d.pages.is_imaged(page),
            None => false,
        }
    }

    /// Appends standalone delta records for `page` without installing a
    /// node — the split path's way of logging an in-flight intermediate
    /// state (the triggering insert, a survivor partition) that the next
    /// delta of the same mutation builds on. Caller contract: the page's
    /// logged state ⊕ `ops` equals the in-memory node the next logged
    /// record assumes, and [`Self::pending_ops_allowed`] returned true.
    pub(crate) fn wal_append_ops(&self, page: PageId, ops: Vec<PageOp>) -> TsbResult<()> {
        let Some(d) = &self.durability else {
            return Ok(());
        };
        // Tracked before the append: should the mutation die anywhere past
        // this point without poisoning the tree, these records are
        // phantoms and must be superseded before the next fence (see
        // [`Self::quarantine_pending_deltas`]).
        d.pending_delta_pages.lock().insert(page);
        for op in ops {
            let record = WalRecord::PageDelta { page, op };
            let lsn = self.wal_append(&record)?;
            d.pages.record(page, lsn);
        }
        Ok(())
    }

    /// Disowns the current mutation's pending deltas after it failed
    /// without poisoning the tree — a split that errored in pure planning
    /// or allocation *after* its triggering delta was already logged. The
    /// in-memory tree rolled the mutation back (all work happened on
    /// clones), but the log now ends in deltas describing state that never
    /// happened; once any later commit fences them, recovery would replay
    /// them. Each such page loses its delta base (next write logs a full
    /// image) and is queued for a corrective image at the next fence, so
    /// the phantoms are superseded before they can ever become replayable.
    pub(crate) fn quarantine_pending_deltas(&self) {
        let Some(d) = &self.durability else {
            return;
        };
        let mut pending = d.pending_delta_pages.lock();
        if pending.is_empty() {
            return;
        }
        let mut stale = d.needs_reimage.lock();
        for page in pending.drain() {
            d.pages.unimage(page);
            stale.insert(page);
        }
    }
}
