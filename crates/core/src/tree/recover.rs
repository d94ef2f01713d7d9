//! Redo recovery: what a log *means*, written once.
//!
//! A crash leaves several admissible durable prefixes — every fence whose
//! records and history reached the devices — and recovery determines which
//! one the system reveals. That determination is this module: two rules
//! every reader of the log passes through, one cut finder over them, and
//! the two recoveries (a primary's, a replica's) that differ only in what
//! they do *after* the cut.
//!
//! ## The rules
//!
//! * The **fence rule** ([`fence_rule`]) reads one record against the
//!   previous fence's state and the WORM bytes actually on the device, and
//!   says whether it is a fence, whether its history is there, and which
//!   `(root, clock-next, next-txn)` it describes. It is the only code that
//!   decodes fence metadata, inherits elided metadata, or compares a
//!   fence's `worm_len` with the device — the comparison the two-device
//!   design rests on: *history before the fence that references it* (a
//!   historical node is burned once, then only pointed at — §3.4). What a
//!   fence past the device *means* is the caller's: primary recovery ends
//!   its cut before it (nothing acknowledged it); a replica, whose apply
//!   protocol syncs history before logging its fence, refuses it as
//!   corruption — at restart and, before the fence reaches the local log,
//!   at live apply.
//! * The **page rule** ([`apply_page_record`], in [`super::replay`]) folds
//!   one page record into a map of [`ReplayPage`]s: an image replaces the page's state, a delta
//!   applies to its newest state, and a page the map lacks takes its base
//!   from the caller — recovery supplies none (the first-touch rule makes
//!   a miss corruption), a replica's re-seed and live apply supply the
//!   fenced overlay and the device.
//!
//! ## The protocol ("repeating history", then discarding the un-fenced tail)
//!
//! 1. **Base.** Replay starts after the newest `Checkpoint` record — the
//!    magnetic device is known to equal that state. A log with commits but
//!    no checkpoint replays from the empty store the first session started
//!    with.
//! 2. **Cut** ([`find_cut`]). The replay target is the newest fence such
//!    that every fence up to it has its WORM history on the device.
//!    Records after the cut belong to a mutation that never finished
//!    logging; its page records are discarded and any WORM sectors it
//!    burned are dead space (write-once media cannot be un-burned — §1).
//!    A `Prepare` is a cut candidate exactly like a commit — its page
//!    records must replay so the in-doubt writes exist to be stamped or
//!    erased — but never advances the recovered-to timestamp.
//! 3. **Repeat history.** Every page record between base and cut folds
//!    through the page rule, in LSN order over one map, and each page's
//!    final state is installed ([`MagneticStore::restore`] force-allocates
//!    pages the on-disk superblock predates). This overwrites any torn or
//!    half-flushed device state — correctness does not depend on *which*
//!    writes happened to reach the device before the crash, and deltas
//!    never read the device.
//! 4. **Metadata.** The root pointer, logical clock, and transaction
//!    counter come from the cut, not from the (possibly stale) on-device
//!    metadata page.
//! 5. **Implicit abort.** Uncommitted versions that made it into replayed
//!    pages are erased — in-flight writer transactions died with the
//!    process, exactly the erasure §4 makes possible on the erasable
//!    store. (In-doubt two-phase prepares are first resolved against the
//!    coordinator's decision: [`StagedRecovery`].)
//! 6. **Reclaim.** The magnetic free list is rebuilt from reachability:
//!    any allocated page the recovered root cannot reach is freed. The
//!    log has no record kind for page frees, so replay can only ever
//!    allocate.
//! 7. **Verify, then fence.** The rebuilt tree must pass
//!    [`TsbTree::verify`] before serving, and a fresh checkpoint fences
//!    the next recovery.
//!
//! Steps 1–4 are shared ([`TsbTree::recover_staged`],
//! [`TsbTree::recover_replica`]); a replica then skips 5 and the
//! checkpoint of 7 and keeps the un-fenced tail — see
//! [`ReplicaRecovery`]. The recovered tree answers every query exactly as
//! the oracle's replay of the committed prefix up to
//! [`TsbTree::last_durable_commit`].

use std::collections::{HashMap, HashSet};
use std::ops::Range;
use std::path::Path;
use std::sync::atomic::Ordering;
use std::sync::Arc;

use tsb_common::{Key, LogicalClock, Timestamp, TsbConfig, TsbError, TsbResult, TxnId, Version};
use tsb_storage::{IoStats, Lsn, MagneticStore, PageId, Wal, WalRecord, WalScan, WormStore};

use super::replay::{apply_page_record, ReplayPage};
use super::TsbTree;
use crate::node::{DataNode, Node, NodeAddr};

/// File names a durable tree uses inside its directory.
const MAGNETIC_FILE: &str = "current.pages";
const WORM_FILE: &str = "history.worm";
const WAL_FILE: &str = "redo.wal";

/// The three files of a durable tree, opened over one set of I/O counters.
pub(crate) struct DurableFiles {
    pub(crate) wal: Wal,
    pub(crate) magnetic: Arc<MagneticStore>,
    pub(crate) worm: Arc<WormStore>,
}

impl DurableFiles {
    /// Opens `redo.wal` (scanned, a torn tail truncated), `current.pages`
    /// and `history.worm` in `dir`, creating whichever is missing.
    pub(crate) fn open(dir: &Path, cfg: &TsbConfig) -> TsbResult<(DurableFiles, WalScan)> {
        let stats = Arc::new(IoStats::new());
        let (wal, scan) = Wal::open(dir.join(WAL_FILE), cfg.fsync_policy, Arc::clone(&stats))?;
        Ok((Self::beside(wal, dir, cfg, stats)?, scan))
    }

    /// [`Self::open`] with a fresh, empty log, for a directory the caller
    /// knows holds nothing durable.
    pub(crate) fn create(dir: &Path, cfg: &TsbConfig) -> TsbResult<DurableFiles> {
        let stats = Arc::new(IoStats::new());
        let wal = Wal::create(dir.join(WAL_FILE), cfg.fsync_policy, Arc::clone(&stats))?;
        Self::beside(wal, dir, cfg, stats)
    }

    fn beside(
        wal: Wal,
        dir: &Path,
        cfg: &TsbConfig,
        stats: Arc<IoStats>,
    ) -> TsbResult<DurableFiles> {
        let magnetic = Arc::new(MagneticStore::open_file(
            dir.join(MAGNETIC_FILE),
            cfg.page_size,
            Arc::clone(&stats),
        )?);
        let worm = Arc::new(WormStore::open_file(
            dir.join(WORM_FILE),
            cfg.worm_sector_size,
            stats,
        )?);
        Ok(DurableFiles {
            wal,
            magnetic,
            worm,
        })
    }

    /// Whether `dir` holds a redo log at all.
    pub(crate) fn has_log(dir: &Path) -> bool {
        dir.join(WAL_FILE).exists()
    }

    /// Removes the three files from `dir` (the stores first: a directory
    /// that lost only its log reads as "store data without a log", which
    /// no open path will recreate over).
    pub(crate) fn wipe(dir: &Path) -> TsbResult<()> {
        for name in [MAGNETIC_FILE, WORM_FILE, WAL_FILE] {
            match std::fs::remove_file(dir.join(name)) {
                Ok(()) => {}
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
                Err(e) => return Err(e.into()),
            }
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// The fence rule
// ---------------------------------------------------------------------------

/// The tree state a fence describes: `(root, clock-next, next-txn)`.
pub(crate) type FenceState = (NodeAddr, Timestamp, u64);

/// What the [fence rule](fence_rule) says about one log record.
#[derive(Debug, PartialEq)]
pub(crate) enum FenceReading {
    /// A page record, or a two-phase-commit decision: it describes no
    /// tree state.
    NotAFence,
    /// A fence referencing `worm_len` bytes of history, more than the
    /// device holds: the tree state it describes would dangle.
    PastDevice {
        /// The WORM length the fence was logged against.
        worm_len: u64,
    },
    /// A usable fence: every page record its state needs precedes it, and
    /// the history that state points at is on the device.
    Describes {
        /// The state the fence describes.
        state: FenceState,
        /// The commit timestamp, if the fence is a `Commit` (a checkpoint
        /// carries none; a prepare's transaction may yet abort).
        commit_ts: Option<Timestamp>,
    },
}

/// A fence's `(worm_len, meta, commit timestamp)`, or `None` for a record
/// that describes no tree state.
fn fence_fields(record: &WalRecord) -> Option<(u64, &[u8], Option<Timestamp>)> {
    match record {
        WalRecord::Commit { ts, worm_len, meta } => Some((*worm_len, meta, Some(Timestamp(*ts)))),
        WalRecord::Checkpoint { worm_len, meta } | WalRecord::Prepare { worm_len, meta, .. } => {
            Some((*worm_len, meta, None))
        }
        WalRecord::PageImage { .. } | WalRecord::PageDelta { .. } | WalRecord::Decision { .. } => {
            None
        }
    }
}

/// The WORM length `record` references if it is a fence the [fence
/// rule](fence_rule) reads a tree state from, `None` otherwise. A log
/// holding such a record is a log worth recovering; a batch holding one
/// must ship with that much history.
pub(crate) fn fence_worm_len(record: &WalRecord) -> Option<u64> {
    fence_fields(record).map(|(worm_len, _, _)| worm_len)
}

/// Whether a scanned log holds any fence at all — without one nothing was
/// ever durable through it, and there is nothing to recover.
fn holds_a_fence(scan: &WalScan) -> bool {
    scan.records
        .iter()
        .any(|(_, r)| fence_worm_len(r).is_some())
}

/// The **fence rule**: reads `record` against the state of the fence
/// before it (`prev`) and the WORM bytes actually on the device.
///
/// A commit whose state was fully predictable from the previous fence
/// elides its metadata (see `wal_commit`): it inherits root and
/// transaction counter from `prev` and derives its clock from its own
/// timestamp. Only commits elide; any other fence with unreadable
/// metadata is corruption.
pub(crate) fn fence_rule(
    record: &WalRecord,
    prev: Option<FenceState>,
    worm_on_device: u64,
) -> TsbResult<FenceReading> {
    let Some((worm_len, meta, commit_ts)) = fence_fields(record) else {
        return Ok(FenceReading::NotAFence);
    };
    if worm_len > worm_on_device {
        return Ok(FenceReading::PastDevice { worm_len });
    }
    let state = match commit_ts {
        Some(ts) if meta.is_empty() => {
            let (root, _, next_txn) = prev.ok_or_else(|| {
                TsbError::corruption(
                    "WAL commit with elided metadata has no prior fence to inherit from",
                )
            })?;
            (root, ts.next(), next_txn)
        }
        _ => TsbTree::decode_meta(meta)?,
    };
    Ok(FenceReading::Describes { state, commit_ts })
}

/// The error a reader raises for a fence it must not find
/// [`FenceReading::PastDevice`]: a replica syncs shipped history before the
/// fence referencing it reaches its log.
pub(crate) fn fence_past_device(origin: &str, lsn: Lsn, worm_len: u64, on_device: u64) -> TsbError {
    TsbError::corruption(format!(
        "{origin} fence at lsn {lsn} references {worm_len} WORM bytes but the device \
         holds {on_device}; history must be on the device before the fence that \
         references it"
    ))
}

/// A replica's log is one shard's log; two-phase-commit records mean a
/// sharded primary, which must be subscribed to per shard (unsupported in
/// this version).
pub(crate) fn refuse_two_phase(record: &WalRecord) -> TsbResult<()> {
    if matches!(
        record,
        WalRecord::Prepare { .. } | WalRecord::Decision { .. }
    ) {
        return Err(TsbError::config(
            "the log holds two-phase-commit records; replicating a sharded primary \
             is not supported",
        ));
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// The cut finder
// ---------------------------------------------------------------------------

/// Where recovery stands: the result of [`find_cut`].
#[derive(Debug, PartialEq)]
pub(crate) struct Cut {
    /// Indices of the records to repeat: from just past the base
    /// checkpoint through the cut fence (empty when the cut *is* the
    /// base). Everything from `replay.end` on is the un-fenced tail.
    pub(crate) replay: Range<usize>,
    /// LSN of the cut fence.
    pub(crate) fence_lsn: Lsn,
    /// Timestamp of the newest `Commit` at or before the cut, if any.
    pub(crate) commit_ts: Option<Timestamp>,
    /// The state the cut fence describes.
    pub(crate) state: FenceState,
    /// The fence that ended the search early, if one did: its LSN and the
    /// WORM length it references, more than the device holds.
    pub(crate) short_fence: Option<(Lsn, u64)>,
}

/// Finds the replay cut in a scanned log: the base is the newest
/// checkpoint; the cut is the newest fence at or after it such that its
/// history, and every earlier fence's, is on the device.
pub(crate) fn find_cut(records: &[(Lsn, WalRecord)], worm_on_device: u64) -> TsbResult<Cut> {
    let base = records
        .iter()
        .rposition(|(_, r)| matches!(r, WalRecord::Checkpoint { .. }));
    let mut cut: Option<(usize, Lsn, FenceState)> = None;
    let mut commit_ts = None;
    let mut short_fence = None;
    for (idx, (lsn, record)) in records.iter().enumerate().skip(base.unwrap_or(0)) {
        match fence_rule(record, cut.map(|(_, _, state)| state), worm_on_device)? {
            FenceReading::NotAFence => {}
            FenceReading::PastDevice { worm_len } => {
                short_fence = Some((*lsn, worm_len));
                break;
            }
            FenceReading::Describes {
                state,
                commit_ts: ts,
            } => {
                cut = Some((idx, *lsn, state));
                commit_ts = ts.or(commit_ts);
            }
        }
    }
    let (cut_idx, fence_lsn, state) = cut.ok_or_else(|| match short_fence {
        Some((lsn, worm_len)) => {
            fence_past_device("the log's first", lsn, worm_len, worm_on_device)
        }
        None => TsbError::corruption(
            "write-ahead log has no usable fence (no checkpoint and no commit); \
             nothing was ever durable",
        ),
    })?;
    Ok(Cut {
        replay: base.map_or(0, |i| i + 1)..cut_idx + 1,
        fence_lsn,
        commit_ts,
        state,
        short_fence,
    })
}

// ---------------------------------------------------------------------------
// The two recoveries
// ---------------------------------------------------------------------------

/// A two-phase-commit prepare that survived recovery's replay with its
/// transaction still unstamped: the writes exist in the tree as
/// uncommitted versions, and only the coordinator shard's decision record
/// says whether they commit at `ts` or roll back (presumed abort).
#[derive(Clone, Debug)]
pub(crate) struct InDoubtTxn {
    /// The global commit timestamp reserved for the transaction.
    pub(crate) ts: Timestamp,
    /// The participant-local transaction id whose writes are prepared.
    pub(crate) txn: TxnId,
    /// Shard index of the coordinator (where the decision was logged).
    pub(crate) coordinator: u32,
}

/// A recovered (or freshly created) durable tree whose in-doubt two-phase
/// prepares have not yet been resolved, and whose final
/// purge/reclaim/verify/checkpoint pass has not yet run.
///
/// Produced by [`TsbTree::open_durable_staged`] /
/// [`TsbTree::recover_staged`]. The sharded engine opens every shard
/// staged, resolves each shard's [`Self::in_doubt`] list against the
/// *coordinator* shard's [`Self::has_decision`], and only then calls
/// [`Self::finish`] on each — so a crash mid-2PC never commits a
/// cross-shard transaction partially. Single-shard callers use
/// [`Self::resolve_locally`].
pub(crate) struct StagedRecovery {
    tree: TsbTree,
    /// Prepares awaiting a commit/abort decision, in log order.
    in_doubt: Vec<InDoubtTxn>,
    /// Commit timestamps of every intact decision record in this tree's
    /// own log (it was a coordinator for those transactions).
    decisions: HashSet<u64>,
    /// Whether the deferred recovery tail (purge, reclaim, verify,
    /// checkpoint) must run in [`Self::finish`]; `false` for trees that
    /// were freshly created rather than recovered.
    needs_finish: bool,
}

impl StagedRecovery {
    /// Wraps a freshly created tree: nothing in doubt, nothing to finish.
    fn fresh(tree: TsbTree) -> Self {
        StagedRecovery {
            tree,
            in_doubt: Vec::new(),
            decisions: HashSet::new(),
            needs_finish: false,
        }
    }

    /// The prepares that survived replay unresolved, in log order.
    pub(crate) fn in_doubt(&self) -> &[InDoubtTxn] {
        &self.in_doubt
    }

    /// Whether this tree's own log holds the coordinator decision for the
    /// transaction committed at `ts`.
    pub(crate) fn has_decision(&self, ts: Timestamp) -> bool {
        self.decisions.contains(&ts.value())
    }

    /// Rolls an in-doubt prepare forward: stamps its surviving writes as
    /// committed at `ts` and fences the stamping with a commit record.
    pub(crate) fn commit_in_doubt(&mut self, txn: TxnId, ts: Timestamp) -> TsbResult<()> {
        self.tree.resolve_in_doubt_commit(txn, ts)?;
        self.tree.recovered_to = Some(self.tree.recovered_to.map_or(ts, |r| r.max(ts)));
        Ok(())
    }

    /// Runs the deferred recovery tail — purge of uncommitted versions,
    /// free-list reclamation, verification, and the fencing checkpoint —
    /// and returns the serving-ready tree. Every in-doubt prepare that is
    /// to commit must have been rolled forward first: the purge *is* the
    /// abort of the rest (recovery's implicit abort erases all remaining
    /// uncommitted versions).
    pub(crate) fn finish(self) -> TsbResult<TsbTree> {
        let tree = self.tree;
        if self.needs_finish {
            tree.purge_uncommitted()?;
            tree.reclaim_unreachable_pages()?;
            tree.verify()?;
            tree.flush_shared()?;
        }
        Ok(tree)
    }

    /// Resolves in-doubt prepares against this tree's *own* decision
    /// records and finishes: the single-shard path, where coordinator and
    /// participant are the same log. (A participant shard's directory
    /// opened standalone presumes abort for prepares whose decision lives
    /// on another shard — open sharded directories through the sharded
    /// engine.)
    pub(crate) fn resolve_locally(mut self) -> TsbResult<TsbTree> {
        let pending: Vec<InDoubtTxn> = self.in_doubt.drain(..).collect();
        for p in pending {
            if self.decisions.contains(&p.ts.value()) {
                self.commit_in_doubt(p.txn, p.ts)?;
            }
        }
        self.finish()
    }
}

/// A replication replica's crash-consistent reopen, produced by
/// [`TsbTree::open_durable_replica`].
///
/// A replica keeps a byte-faithful local copy of the primary's log
/// (shipped record bodies appended via [`Wal::append_shipped`], primary
/// LSNs preserved), so its restart is ordinary redo recovery — with three
/// deliberate departures from [`TsbTree::recover_staged`]'s tail:
///
/// * **No purge.** Uncommitted versions surviving at the cut fence belong
///   to primary transactions that are still in flight *on the primary*;
///   later shipped records will stamp or erase them. Erasing them here
///   would diverge from the stream.
/// * **No local checkpoint.** A replica never appends records of its own —
///   its log is a pure copy, and a locally minted checkpoint would collide
///   with the primary's LSN namespace. The local log only ever grows (it
///   is re-based wholesale when the primary's generation outruns it).
/// * **The un-fenced tail is kept.** Records past the cut are shipped
///   state whose commit fence has not arrived yet; they re-seed the apply
///   overlay instead of being discarded.
pub(crate) struct ReplicaRecovery {
    /// The recovered tree, serving-ready at the cut fence.
    pub(crate) tree: TsbTree,
    /// LSN of the cut fence record — the applied watermark at reopen.
    pub(crate) applied_lsn: Lsn,
    /// LSN of the newest record in the local log (≥ `applied_lsn`): the
    /// resume cursor for the subscription to the primary.
    pub(crate) last_lsn: Lsn,
    /// Records after the cut fence, in LSN order — shipped but not yet
    /// fenced; they re-seed the apply overlay's staging area.
    pub(crate) tail: Vec<WalRecord>,
    /// The cut fence's `(root, clock-next, next-txn)`, seeding the
    /// metadata-elision chain for subsequently shipped commits.
    pub(crate) cut_state: FenceState,
}

impl TsbTree {
    /// Opens (or creates) the durable tree rooted at directory `dir` — the
    /// contract is spelled out on [`crate::TsbOptions::open_tree`] — split
    /// in two for the sharded engine: returns
    /// a [`StagedRecovery`] whose in-doubt two-phase-commit prepares are
    /// *not yet resolved* — the caller resolves each against the
    /// coordinator shard's decision (commit or presumed abort) and then
    /// calls [`StagedRecovery::finish`]. `clock` is advanced to (never
    /// reset below) the recovered clock value, so sharing one clock across
    /// shards re-derives the global clock as the max across all of them.
    pub(crate) fn open_durable_staged(
        dir: impl AsRef<Path>,
        cfg: TsbConfig,
        clock: Arc<LogicalClock>,
    ) -> TsbResult<StagedRecovery> {
        cfg.validate()?;
        let dir = dir.as_ref();
        std::fs::create_dir_all(dir)?;
        let (files, scan) = DurableFiles::open(dir, &cfg)?;
        if holds_a_fence(&scan) {
            return Self::recover_staged(files, scan, cfg, clock);
        }
        // No fence: nothing was ever durably committed through this log.
        // Starting fresh is safe when the stores hold no data of their
        // own, or when every byte in them provably came from an
        // unfinished first create: a non-empty, fence-less log can only be
        // the first create's page images (every completed create or
        // mutation appends a fence, and a torn tail that ate *every* fence
        // must lie at or before the first one).
        let stores_empty = files.magnetic.allocated_pages() == 0 && files.worm.device_bytes() == 0;
        if !stores_empty && scan.records.is_empty() {
            // Real store data, empty log: a pre-WAL database or a lost
            // redo.wal. Refuse rather than guess.
            return Err(TsbError::corruption(format!(
                "directory {} holds store data but its write-ahead log has no usable \
                 fence; refusing to recreate (use TsbTree::open for a non-durable \
                 reopen, or restore the missing redo.wal)",
                dir.display()
            )));
        }
        drop(files);
        DurableFiles::wipe(dir)?;
        let DurableFiles {
            wal,
            magnetic,
            worm,
        } = DurableFiles::create(dir, &cfg)?;
        Self::create_durable_with_clock(magnetic, worm, wal, cfg, clock).map(StagedRecovery::fresh)
    }

    /// Crash-consistent reopen of a primary (the module docs' protocol) up
    /// to — but not including — the resolution of in-doubt
    /// two-phase-commit prepares and the final
    /// purge/reclaim/verify/checkpoint pass. The returned
    /// [`StagedRecovery`] lists every prepare that survived the cut with
    /// its transaction still unstamped; the caller decides each one
    /// (against the coordinator shard's decision record) and then calls
    /// [`StagedRecovery::finish`].
    ///
    /// A fence past the device simply ends the cut before it: its commit
    /// was never acknowledged as durable (the log's pre-sync hook settles
    /// the WORM before every fsync that could make a fence durable).
    pub(crate) fn recover_staged(
        files: DurableFiles,
        scan: WalScan,
        cfg: TsbConfig,
        clock: Arc<LogicalClock>,
    ) -> TsbResult<StagedRecovery> {
        let cut = find_cut(&scan.records, files.worm.device_bytes())?;
        // Any intact decision record is honorable: the coordinator logs it
        // only after every participant's prepare is durable, so even a
        // decision past this shard's own cut proves the commit outcome.
        let decisions: HashSet<u64> = scan
            .records
            .iter()
            .filter_map(|(_, r)| match r {
                WalRecord::Decision { ts, .. } => Some(*ts),
                _ => None,
            })
            .collect();
        let mut in_doubt: Vec<InDoubtTxn> = scan.records[cut.replay.clone()]
            .iter()
            .filter_map(|(_, r)| match r {
                WalRecord::Prepare {
                    ts,
                    txn,
                    coordinator,
                    ..
                } => Some(InDoubtTxn {
                    ts: Timestamp(*ts),
                    txn: TxnId(*txn),
                    coordinator: *coordinator,
                }),
                _ => None,
            })
            .collect();
        // Records past the cut belong to a mutation that never finished
        // logging: discarded.
        let mut records = scan.records;
        records.truncate(cut.replay.end);
        let tree = Self::rebuild_at_cut(files, records, &cut, cfg, clock)?;
        // In-doubt = a surviving prepare whose transaction is still
        // unstamped in the replayed tree. A prepare whose transaction was
        // later committed (a commit record at or before the cut stamped
        // it) or aborted leaves no uncommitted versions and needs no
        // resolution.
        let unstamped = tree.collect_uncommitted_txns()?;
        in_doubt.retain(|p| unstamped.contains(&p.txn));
        Ok(StagedRecovery {
            tree,
            in_doubt,
            decisions,
            needs_finish: true,
        })
    }

    /// Reopens a replication replica's local state at directory `dir`, or
    /// returns `None` when the directory holds nothing usable (fresh, or a
    /// base install that never finished — the caller wipes and re-fetches
    /// the base). See [`ReplicaRecovery`] for how this differs from the
    /// primary's [`Self::open_durable_staged`].
    pub(crate) fn open_durable_replica(
        dir: impl AsRef<Path>,
        cfg: TsbConfig,
    ) -> TsbResult<Option<ReplicaRecovery>> {
        cfg.validate()?;
        let dir = dir.as_ref();
        std::fs::create_dir_all(dir)?;
        if !DurableFiles::has_log(dir) {
            return Ok(None);
        }
        let (files, scan) = DurableFiles::open(dir, &cfg)?;
        if !holds_a_fence(&scan) {
            // A shipped log always starts at a fence (the base image's
            // checkpoint); no fence means the install never completed.
            return Ok(None);
        }
        Self::recover_replica(files, scan, cfg).map(Some)
    }

    /// [`Self::recover_staged`]'s replica variant: replays the local copy
    /// of the primary's log to the newest fence, but keeps uncommitted
    /// versions (their transactions are still live on the primary), never
    /// appends records of its own (no purge fences, no local checkpoint),
    /// and hands back the un-fenced tail for the apply overlay.
    ///
    /// The batch-apply protocol makes the WORM durable *before* any record
    /// of the batch reaches the local log, so every logged fence must have
    /// its history on the device — one that does not is corruption, not a
    /// torn tail to skip.
    pub(crate) fn recover_replica(
        files: DurableFiles,
        scan: WalScan,
        cfg: TsbConfig,
    ) -> TsbResult<ReplicaRecovery> {
        scan.records
            .iter()
            .try_for_each(|(_, r)| refuse_two_phase(r))?;
        let on_device = files.worm.device_bytes();
        let cut = find_cut(&scan.records, on_device)?;
        if let Some((lsn, worm_len)) = cut.short_fence {
            return Err(fence_past_device("replica log", lsn, worm_len, on_device));
        }
        let last_lsn = files.wal.last_lsn();
        let clock = Arc::new(LogicalClock::new());
        let mut records = scan.records;
        let tail = records.split_off(cut.replay.end);
        let tree = Self::rebuild_at_cut(files, records, &cut, cfg, clock)?;
        // Reclaim pages unreachable at the cut (a free has no log record;
        // see `reclaim_unreachable_pages`) and verify — but no purge and
        // no fencing checkpoint: the replica's state must stay exactly the
        // primary's state at the cut fence, and its log is a pure copy.
        tree.reclaim_unreachable_pages()?;
        tree.verify()?;
        Ok(ReplicaRecovery {
            tree,
            applied_lsn: cut.fence_lsn,
            last_lsn,
            tail: tail.into_iter().map(|(_, record)| record).collect(),
            cut_state: cut.state,
        })
    }

    /// Steps 3 and 4 of the protocol, for both recoveries: repeats history
    /// over the cut's replay range — deltas applied in place over one map,
    /// each page installed once — then builds the tree at the cut's
    /// metadata over the repaired device. `records` is the scanned log
    /// with the un-fenced tail (everything past the cut) already taken
    /// off by the caller, who alone knows what the tail is worth.
    fn rebuild_at_cut(
        files: DurableFiles,
        records: Vec<(Lsn, WalRecord)>,
        cut: &Cut,
        cfg: TsbConfig,
        clock: Arc<LogicalClock>,
    ) -> TsbResult<TsbTree> {
        let DurableFiles {
            wal,
            magnetic,
            worm,
        } = files;
        let mut replayed: HashMap<PageId, ReplayPage> = HashMap::new();
        for (_, record) in records.into_iter().skip(cut.replay.start) {
            apply_page_record(&mut replayed, record, |_| Ok(None))?;
        }
        for (page, state) in replayed {
            magnetic.restore(page, &state.into_bytes())?;
        }
        let (root, clock_next, next_txn) = cut.state;
        clock.advance_to(clock_next);
        let recovered_to = cut.commit_ts.unwrap_or_else(|| clock_next.prev());
        let worm_on_device = worm.device_bytes();
        let tree = Self::assemble(
            magnetic,
            worm,
            cfg,
            clock,
            (root, next_txn),
            Some(wal),
            Some(recovered_to),
        )?;
        // The WORM bytes the cut references survived, so they are as
        // stable as they will ever be.
        if let Some(d) = &tree.durability {
            d.worm_synced.store(worm_on_device, Ordering::Release);
        }
        tree.write_meta()?;
        Ok(tree)
    }

    /// Walks the current database collecting the transaction ids of every
    /// surviving uncommitted version (used by staged recovery to tell
    /// in-doubt prepares from already-resolved ones).
    fn collect_uncommitted_txns(&self) -> TsbResult<HashSet<TxnId>> {
        fn walk(tree: &TsbTree, addr: NodeAddr, out: &mut HashSet<TxnId>) -> TsbResult<()> {
            if addr.as_page().is_none() {
                return Ok(());
            }
            let node = tree.read_node(addr)?;
            match &*node {
                Node::Data(data) => {
                    for v in data.iter() {
                        if let Some(txn) = v.state.txn_id() {
                            out.insert(txn);
                        }
                    }
                }
                Node::Index(index) => {
                    let children: Vec<NodeAddr> = index.iter().map(|e| e.child).collect();
                    for child in children {
                        walk(tree, child, out)?;
                    }
                }
            }
            Ok(())
        }
        let mut out = HashSet::new();
        walk(self, self.current_root(), &mut out)?;
        Ok(out)
    }

    /// Stamps every surviving uncommitted version of `txn` as committed at
    /// `ts` and fences the stamping with a commit record — recovery's
    /// roll-forward of an in-doubt two-phase-commit prepare whose
    /// coordinator decided commit. Mirrors the stamping loop of
    /// `commit_txn_shared`, but driven by a tree walk (the transaction
    /// table's write set died with the process).
    pub(crate) fn resolve_in_doubt_commit(&self, txn: TxnId, ts: Timestamp) -> TsbResult<()> {
        self.clock.advance_to(ts.next());
        self.stamp_in_doubt_at(self.current_root(), txn, ts)?;
        self.wal_commit(ts)?;
        // Recovery has no ack pipeline; the deferred wait (if the policy
        // produced one) is settled by the checkpoint in `finish`.
        let _ = self.take_pending_durable_wait();
        Ok(())
    }

    fn stamp_in_doubt_at(&self, addr: NodeAddr, txn: TxnId, ts: Timestamp) -> TsbResult<()> {
        let Some(page) = addr.as_page() else {
            return Ok(());
        };
        let node = self.read_node(addr)?;
        match &*node {
            Node::Data(data) => {
                let keys: Vec<Key> = data
                    .iter()
                    .filter(|v| v.state.txn_id() == Some(txn))
                    .map(|v| v.to_key())
                    .collect();
                if keys.is_empty() {
                    return Ok(());
                }
                let mut leaf = DataNode::clone(data);
                for key in keys {
                    let pending = leaf.remove_uncommitted(&key, txn).ok_or_else(|| {
                        TsbError::internal(format!(
                            "in-doubt transaction {txn} lost its uncommitted version of key {key}"
                        ))
                    })?;
                    leaf.insert(&Version {
                        key: pending.key,
                        state: tsb_common::TsState::Committed(ts),
                        value: pending.value,
                    })?;
                }
                self.write_current(page, Node::Data(leaf))
            }
            Node::Index(index) => {
                let children: Vec<NodeAddr> = index.iter().map(|e| e.child).collect();
                for child in children {
                    self.stamp_in_doubt_at(child, txn, ts)?;
                }
                Ok(())
            }
        }
    }

    /// Walks the current database and erases every uncommitted version
    /// (recovery's implicit abort of in-flight transactions; uncommitted
    /// versions never migrate, so historical nodes need no visit).
    fn purge_uncommitted(&self) -> TsbResult<()> {
        self.purge_uncommitted_at(self.current_root())
    }

    fn purge_uncommitted_at(&self, addr: NodeAddr) -> TsbResult<()> {
        let Some(page) = addr.as_page() else {
            return Ok(());
        };
        let node = self.read_node(addr)?;
        match &*node {
            Node::Data(data) => {
                if data.iter().any(|v| v.state.is_uncommitted()) {
                    let committed: Vec<_> = data
                        .iter()
                        .filter(|v| !v.state.is_uncommitted())
                        .map(|v| v.to_version())
                        .collect();
                    let cleaned =
                        DataNode::from_entries(data.key_range.clone(), data.time_range, committed);
                    self.write_current(page, Node::Data(cleaned))?;
                }
                Ok(())
            }
            Node::Index(index) => {
                let children: Vec<NodeAddr> = index.iter().map(|e| e.child).collect();
                for child in children {
                    self.purge_uncommitted_at(child)?;
                }
                Ok(())
            }
        }
    }

    /// Rebuilds the magnetic free list from reachability: frees every
    /// allocated page that is neither the metadata page nor reachable from
    /// the recovered root. The redo log has no record kind for page frees,
    /// so replay can only ever *allocate* ([`MagneticStore::restore`] even
    /// pulls replayed pages off the on-disk free list): a page freed since
    /// the last checkpoint would come back allocated-but-unreachable after
    /// recovery and stay leaked across every later session — which
    /// [`Self::verify`] treats as a hard error, turning a space leak into
    /// an unrecoverable store. Deriving the free list from the recovered
    /// tree closes that gap for any free site, present or future, without
    /// a `PageFree` record.
    fn reclaim_unreachable_pages(&self) -> TsbResult<()> {
        let mut reachable: HashSet<PageId> = HashSet::new();
        reachable.insert(self.meta_page);
        self.collect_current_pages(self.current_root(), &mut reachable)?;
        for page in self.magnetic.allocated_page_ids() {
            if !reachable.contains(&page) {
                self.cache.discard(NodeAddr::Current(page));
                self.magnetic.free(page)?;
            }
        }
        Ok(())
    }

    /// Collects into `out` every magnetic page reachable from `addr`
    /// (historical children live on the WORM and are skipped).
    fn collect_current_pages(&self, addr: NodeAddr, out: &mut HashSet<PageId>) -> TsbResult<()> {
        let Some(page) = addr.as_page() else {
            return Ok(());
        };
        if !out.insert(page) {
            return Ok(());
        }
        let node = self.read_node(addr)?;
        if let Node::Index(index) = &*node {
            for entry in index.iter() {
                self.collect_current_pages(entry.child, out)?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsb_storage::PageOp;

    const FIRST_LSN: Lsn = 10;

    fn state(root_page: u64, clock_next: u64, next_txn: u64) -> FenceState {
        (
            NodeAddr::Current(PageId(root_page)),
            Timestamp(clock_next),
            next_txn,
        )
    }

    fn meta((root, clock_next, next_txn): FenceState) -> Vec<u8> {
        TsbTree::encode_meta(root, clock_next, next_txn)
    }

    fn checkpoint(worm_len: u64, s: FenceState) -> WalRecord {
        WalRecord::Checkpoint {
            worm_len,
            meta: meta(s),
        }
    }

    fn commit(ts: u64, worm_len: u64, s: FenceState) -> WalRecord {
        WalRecord::Commit {
            ts,
            worm_len,
            meta: meta(s),
        }
    }

    fn elided_commit(ts: u64, worm_len: u64) -> WalRecord {
        WalRecord::Commit {
            ts,
            worm_len,
            meta: Vec::new(),
        }
    }

    fn prepare(ts: u64, worm_len: u64, s: FenceState) -> WalRecord {
        WalRecord::Prepare {
            ts,
            worm_len,
            meta: meta(s),
            txn: 3,
            coordinator: 0,
            participants: vec![0, 1],
        }
    }

    // Page records are filler here: neither rule under test reads them.
    fn image(page: u64) -> WalRecord {
        WalRecord::PageImage {
            page: PageId(page),
            bytes: Vec::new(),
        }
    }

    fn delta(page: u64) -> WalRecord {
        WalRecord::PageDelta {
            page: PageId(page),
            op: PageOp::DataTimeSplit {
                split_time: Timestamp(4),
            },
        }
    }

    fn log(records: Vec<WalRecord>) -> Vec<(Lsn, WalRecord)> {
        (FIRST_LSN..).zip(records).collect()
    }

    /// The fence rule and the cut finder over hand-built logs: each row is
    /// a log, the WORM bytes on the device, and the cut it must yield
    /// (`None`: corruption).
    #[test]
    fn the_cut_is_the_newest_fence_whose_history_is_on_the_device() {
        let (a, b, c) = (state(1, 5, 1), state(2, 6, 4), state(7, 12, 9));
        let cut = |replay, at: usize, commit_ts: Option<u64>, state, short| {
            Some(Cut {
                replay,
                fence_lsn: FIRST_LSN + at as Lsn,
                commit_ts: commit_ts.map(Timestamp),
                state,
                short_fence: short,
            })
        };
        let table: Vec<(&str, Vec<WalRecord>, u64, Option<Cut>)> = vec![
            (
                "a checkpoint alone is base and cut: nothing to replay",
                vec![checkpoint(64, a)],
                64,
                cut(1..1, 0, None, a, None),
            ),
            (
                "the newest checkpoint is the base, whatever precedes it",
                vec![commit(3, 0, c), checkpoint(0, a), image(2)],
                0,
                cut(2..2, 1, None, a, None),
            ),
            (
                "full metadata is decoded; elided metadata inherits root and \
                 txn counter and derives the clock from its own timestamp",
                vec![
                    checkpoint(0, a),
                    image(2),
                    commit(5, 0, b),
                    delta(2),
                    elided_commit(6, 64),
                ],
                64,
                cut(1..5, 4, Some(6), (b.0, Timestamp(7), b.2), None),
            ),
            (
                "no checkpoint: replay starts at the first record",
                vec![image(2), commit(5, 0, b), elided_commit(6, 0)],
                0,
                cut(0..3, 2, Some(6), (b.0, Timestamp(7), b.2), None),
            ),
            (
                "an elided commit with no prior fence is corruption",
                vec![image(2), elided_commit(5, 0)],
                0,
                None,
            ),
            (
                "a fence past the device ends the cut before it, however \
                 many usable fences follow",
                vec![
                    checkpoint(0, a),
                    image(2),
                    commit(5, 64, b),
                    image(3),
                    commit(6, 256, c),
                    image(4),
                    elided_commit(7, 64),
                ],
                128,
                cut(1..3, 2, Some(5), b, Some((FIRST_LSN + 4, 256))),
            ),
            (
                "a base checkpoint past the device leaves nothing to stand on",
                vec![checkpoint(256, a), image(2), commit(5, 0, b)],
                128,
                None,
            ),
            (
                "a prepare fences (its page records replay) without \
                 advancing the commit timestamp; a decision is no fence",
                vec![
                    checkpoint(0, a),
                    image(2),
                    commit(5, 0, b),
                    delta(2),
                    prepare(9, 0, c),
                    WalRecord::Decision {
                        ts: 9,
                        participants: vec![0, 1],
                    },
                ],
                0,
                cut(1..5, 4, Some(5), c, None),
            ),
            (
                "records after the last fence are the tail, not replayed",
                vec![
                    checkpoint(0, a),
                    image(2),
                    commit(5, 0, b),
                    image(3),
                    delta(3),
                ],
                0,
                cut(1..3, 2, Some(5), b, None),
            ),
            (
                "a log with no fence at all has no cut",
                vec![image(2), delta(2)],
                0,
                None,
            ),
        ];
        for (name, records, on_device, expected) in table {
            let found = find_cut(&log(records), on_device);
            match (&found, &expected) {
                (Ok(cut), Some(want)) => assert_eq!(cut, want, "{name}"),
                (Err(TsbError::Corruption(_)), None) => {}
                _ => panic!("{name}: found {found:?}, expected {expected:?}"),
            }
        }
    }

    #[test]
    fn the_fence_rule_compares_history_with_the_device_before_reading_metadata() {
        let a = state(1, 5, 1);
        for record in [
            image(2),
            delta(2),
            WalRecord::Decision {
                ts: 9,
                participants: vec![0],
            },
        ] {
            assert_eq!(
                fence_rule(&record, None, 0).unwrap(),
                FenceReading::NotAFence,
                "{record:?}"
            );
            assert_eq!(fence_worm_len(&record), None);
        }
        // Exactly on the device is on the device.
        assert_eq!(
            fence_rule(&checkpoint(128, a), None, 128).unwrap(),
            FenceReading::Describes {
                state: a,
                commit_ts: None
            }
        );
        // One byte past it is not — and the metadata is never consulted
        // (unreadable here), so the caller decides what a short fence means.
        for short in [
            WalRecord::Checkpoint {
                worm_len: 129,
                meta: vec![0xFF],
            },
            elided_commit(5, 129),
            prepare(5, 129, a),
        ] {
            assert_eq!(
                fence_rule(&short, None, 128).unwrap(),
                FenceReading::PastDevice { worm_len: 129 }
            );
            assert_eq!(fence_worm_len(&short), Some(129));
        }
        // Only a commit elides: any other fence with empty metadata is
        // corruption, prior fence or not.
        let empty_checkpoint = WalRecord::Checkpoint {
            worm_len: 0,
            meta: Vec::new(),
        };
        assert!(fence_rule(&empty_checkpoint, Some(a), 0).is_err());
    }

    /// What a fence past the device *means* is the caller's: the same
    /// directory, its history lost, reopens as a primary at the last fence
    /// that never needed it, and is refused as a replica's.
    #[test]
    fn a_fence_past_the_device_ends_a_primarys_cut_and_is_corruption_for_a_replica() {
        let dir = std::env::temp_dir().join(format!("tsb-recover-short-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cfg =
            TsbConfig::small_pages().with_split_policy(tsb_common::SplitPolicyKind::TimePreferring);
        let mut before_history = None;
        {
            let tree = crate::TsbOptions::durable(&dir)
                .config(cfg.clone())
                .open_tree()
                .unwrap();
            for i in 0..200u64 {
                let ts = tree.insert_shared(i % 4, vec![b'v'; 24]).unwrap();
                if tree.worm.device_bytes() == 0 {
                    before_history = Some(ts);
                }
            }
            assert!(tree.worm.device_bytes() > 0, "the build migrated history");
        }
        let before_history = before_history.expect("some commit preceded the first migration");
        std::fs::OpenOptions::new()
            .write(true)
            .open(dir.join(WORM_FILE))
            .unwrap()
            .set_len(0)
            .unwrap();

        let as_replica = TsbTree::open_durable_replica(&dir, cfg.clone());
        assert!(
            matches!(&as_replica, Err(TsbError::Corruption(msg)) if msg.contains("replica log fence")),
            "a replica's log never holds a fence over history it lacks"
        );
        drop(as_replica);

        let tree = crate::TsbOptions::durable(&dir)
            .config(cfg)
            .open_tree()
            .unwrap();
        assert_eq!(tree.last_durable_commit(), Some(before_history));
        tree.verify().unwrap();
        drop(tree);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
