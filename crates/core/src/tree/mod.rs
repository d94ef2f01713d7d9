//! The Time-Split B-tree proper: tree handle, node I/O over the two devices,
//! and the on-disk metadata page.
//!
//! Sub-modules implement the operations:
//!
//! * [`search`](crate::tree) — point lookups (current and as-of),
//! * [`scan`](crate::tree) — range scans, snapshots, version histories,
//! * [`insert`](crate::tree) — insertion, update, logical deletion, and the
//!   split/migration machinery.
//!
//! Transactions live in [`crate::txn`], secondary indexes in
//! [`crate::secondary`], statistics in [`crate::stats`], and the structural
//! verifier in [`crate::verify`].

pub mod history;
pub mod insert;
pub mod scan;
pub mod search;

use std::collections::{HashMap, HashSet, VecDeque};
use std::ops::Deref;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::{Mutex, RwLock};

use tsb_common::encode::{ByteReader, ByteWriter};
use tsb_common::{
    Key, LogicalClock, Timestamp, TsbConfig, TsbError, TsbResult, TxnId, Version, WalMode,
};
use tsb_storage::{
    BufferPool, CostModel, FaultInjector, HistAddr, IoStats, Lsn, MagneticStore, PageId, PageOp,
    SpaceSnapshot, Wal, WalPageTable, WalRecord, WalScan, WormStore,
};

use crate::cache::NodeCache;
use crate::node::{DataNode, IndexEntry, IndexNode, Node, NodeAddr};
use crate::txn::TxnTable;

const META_MAGIC: u64 = 0x5453_4254_5245_4531; // "TSBTREE1"

/// File names a durable tree uses inside its directory
/// (`pub(crate)` so the replica engine can wipe a half-installed base).
pub(crate) const MAGNETIC_FILE: &str = "current.pages";
pub(crate) const WORM_FILE: &str = "history.worm";
pub(crate) const WAL_FILE: &str = "redo.wal";

/// The durability state of a WAL-attached tree.
///
/// Present on trees opened through [`TsbTree::create_durable`] /
/// [`TsbTree::recover`] / a durable [`crate::TsbOptions`]; absent (and
/// zero-cost) on plain in-memory or file-backed trees. See the
/// [`tsb_storage::wal`] module docs for the log format and the fence /
/// commit-cut protocol this drives.
pub(crate) struct Durability {
    /// The redo log. Appends happen *before* the node cache may hold the
    /// corresponding node dirty (WAL-before-page).
    wal: Arc<Wal>,
    /// Dirty-page table backing the WAL-before-page barrier at every
    /// write-back site (shared with the buffer pool, which runs the
    /// flushed-LSN rule through it before any device page write).
    pages: Arc<WalPageTable>,
    /// WORM device length known to be on stable storage (shared with the
    /// WAL's pre-sync hook). No commit record may become *durable* while
    /// it references history past this mark, or the commit could outlive
    /// the history it points at; the WAL's pre-sync hook restores the
    /// invariant at exactly the moments commits become durable — before
    /// every log fsync (policy-triggered, flushed-LSN barrier, or
    /// checkpoint) — instead of charging every migrating commit an eager
    /// WORM fsync under `Os`/`EveryN`.
    worm_synced: Arc<AtomicU64>,
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
    pub(crate) cut_state: (NodeAddr, Timestamp, u64),
}

/// A page being rebuilt by recovery's replay: the newest logged image,
/// decoded lazily — only when a delta actually has to be applied, so
/// pages whose last record is an image (structural rewrites, ImagesOnly
/// mode) are restored without a decode/encode round trip.
///
/// Also the unit of a replication replica's *apply overlay*
/// ([`crate::replica::ReplicaEngine`]): shipped page records accumulate
/// here between commit fences and are installed onto the device only when
/// their fence arrives.
pub(crate) enum ReplayPage {
    /// The image bytes as logged; no delta has touched them yet.
    Raw(Vec<u8>),
    /// The decoded node with at least one delta applied.
    Decoded(Node),
}

impl ReplayPage {
    /// Re-applies one logged delta, decoding the base image on first use.
    ///
    /// Content ops replay as slot assignments; structural ops re-run the
    /// same pure partition functions the forward split path ran, against
    /// the identical node state the log has rebuilt, so they land on the
    /// identical outcome.
    pub(crate) fn apply(&mut self, op: &PageOp) -> TsbResult<()> {
        if let ReplayPage::Raw(bytes) = self {
            *self = ReplayPage::Decoded(Node::decode(std::mem::take(bytes))?);
        }
        let ReplayPage::Decoded(node) = self else {
            unreachable!("Raw was just decoded");
        };
        fn data_op(node: &mut Node) -> TsbResult<&mut DataNode> {
            match node {
                Node::Data(data) => Ok(data),
                Node::Index(_) => Err(TsbError::corruption("WAL data delta targets an index node")),
            }
        }
        fn index_op(node: &mut Node) -> TsbResult<&mut IndexNode> {
            match node {
                Node::Index(index) => Ok(index),
                Node::Data(_) => Err(TsbError::corruption("WAL index delta targets a data node")),
            }
        }
        match op {
            PageOp::InsertVersion(version) => data_op(node)?.insert(version),
            PageOp::RemoveUncommitted { key, txn } => {
                data_op(node)?.remove_uncommitted(key, *txn);
                Ok(())
            }
            PageOp::DataTimeSplit { split_time } => {
                let data = data_op(node)?;
                let parts = crate::split::partition_by_time(&data.to_versions(), *split_time);
                *data = DataNode::from_entries(
                    data.key_range.clone(),
                    tsb_common::TimeRange::new(*split_time, data.time_range.hi),
                    parts.current,
                );
                Ok(())
            }
            PageOp::DataKeySplit {
                split_key,
                keep_low,
            } => {
                let data = data_op(node)?;
                let (left, right) = crate::split::partition_by_key(&data.to_versions(), split_key);
                let (left_range, right_range) =
                    data.key_range.split_at(split_key).ok_or_else(|| {
                        TsbError::corruption("WAL key-split delta outside the node key range")
                    })?;
                *data = if *keep_low {
                    DataNode::from_entries(left_range, data.time_range, left)
                } else {
                    DataNode::from_entries(right_range, data.time_range, right)
                };
                Ok(())
            }
            PageOp::IndexTimeSplit { split_time } => {
                let index = index_op(node)?;
                let parts = crate::split::partition_index_by_time(&index.to_entries(), *split_time);
                *index = IndexNode::from_entries(
                    index.key_range.clone(),
                    tsb_common::TimeRange::new(*split_time, index.time_range.hi),
                    parts.current,
                );
                Ok(())
            }
            PageOp::IndexKeySplit {
                split_key,
                keep_low,
            } => {
                let index = index_op(node)?;
                let parts = crate::split::partition_index_by_key(&index.to_entries(), split_key);
                let (left_range, right_range) =
                    index.key_range.split_at(split_key).ok_or_else(|| {
                        TsbError::corruption("WAL index key-split delta outside the node key range")
                    })?;
                *index = if *keep_low {
                    IndexNode::from_entries(left_range, index.time_range, parts.left)
                } else {
                    IndexNode::from_entries(right_range, index.time_range, parts.right)
                };
                Ok(())
            }
            PageOp::IndexReplaceChild { payload } => {
                let index = index_op(node)?;
                let (old_child, replacements) = decode_replace_child(payload)?;
                index.replace_child(&old_child, replacements)
            }
        }
    }

    /// The page's final image for [`MagneticStore::restore`].
    pub(crate) fn into_bytes(self) -> Vec<u8> {
        match self {
            ReplayPage::Raw(bytes) => bytes,
            ReplayPage::Decoded(node) => node.encode(),
        }
    }
}

/// Encodes the payload of a [`PageOp::IndexReplaceChild`] delta: the old
/// child address followed by the replacement entries. Opaque to
/// `tsb-storage` (like `Commit.meta`); only this module and
/// [`decode_replace_child`] know the layout.
pub(crate) fn encode_replace_child(old_child: &NodeAddr, replacements: &[IndexEntry]) -> Vec<u8> {
    let mut w = ByteWriter::new();
    old_child.encode(&mut w);
    w.put_u32(replacements.len() as u32);
    for entry in replacements {
        entry.encode(&mut w);
    }
    w.into_vec()
}

fn decode_replace_child(payload: &[u8]) -> TsbResult<(NodeAddr, Vec<IndexEntry>)> {
    let mut r = ByteReader::new(payload);
    let old_child = NodeAddr::decode(&mut r)?;
    let count = r.get_u32()? as usize;
    let mut replacements = Vec::with_capacity(count);
    for _ in 0..count {
        replacements.push(IndexEntry::decode(&mut r)?);
    }
    Ok((old_child, replacements))
}

/// The Time-Split B-tree: a single integrated index over a multiversion
/// database whose current part lives on an erasable store and whose
/// historical part lives on a write-once store.
///
/// Reads (`get_*`, `scan_*`, snapshots, statistics, verification) take
/// `&self`; mutations (inserts, deletes, transactions) take `&mut self`.
///
/// Internally every mutation is implemented against `&self` with the tree's
/// mutable state behind locks and atomics, under the invariant that **at
/// most one mutation runs at a time**. The single-threaded API enforces
/// that invariant with `&mut self`; [`crate::ConcurrentTsb`] enforces it
/// with a writer lock and may run any number of readers concurrently (see
/// the module docs of [`crate::concurrent`]).
///
/// ```
/// use tsb_core::TsbTree;
/// use tsb_common::{Key, TsbConfig};
///
/// let mut tree = tsb_core::TsbOptions::in_memory().config(TsbConfig::default()).open_tree().unwrap();
/// let t1 = tree.insert("acct-1", b"balance=100".to_vec()).unwrap();
/// let t2 = tree.insert("acct-1", b"balance=250".to_vec()).unwrap();
/// assert_eq!(tree.get_current(&Key::from("acct-1")).unwrap().unwrap(), b"balance=250".to_vec());
/// // The old version is still reachable as of its own time (rollback database).
/// assert_eq!(tree.get_as_of(&Key::from("acct-1"), t1).unwrap().unwrap(), b"balance=100".to_vec());
/// assert!(t1 < t2);
/// ```
pub struct TsbTree {
    pub(crate) cfg: TsbConfig,
    pub(crate) magnetic: Arc<MagneticStore>,
    pub(crate) pool: BufferPool,
    pub(crate) cache: NodeCache,
    pub(crate) worm: Arc<WormStore>,
    pub(crate) stats: Arc<IoStats>,
    pub(crate) cost: CostModel,
    /// The commit clock. Normally private to this tree; a sharded engine
    /// shares one clock across every shard (`Arc`) so commit timestamps
    /// form a single global order.
    pub(crate) clock: Arc<LogicalClock>,
    /// The root pointer, behind a short-latch lock: readers copy it out at
    /// the top of each descent, the (single) writer replaces it when the
    /// root splits.
    pub(crate) root: RwLock<NodeAddr>,
    pub(crate) meta_page: PageId,
    pub(crate) txns: Mutex<TxnTable>,
    /// Current data pages that blocked a local index time split (Figure 9)
    /// and should prefer a time split at their next opportunity (§3.5).
    pub(crate) marked_for_time_split: Mutex<HashSet<PageId>>,
    /// Set when a *structural* mutation (split / migration / root growth)
    /// failed part-way through: some nodes were rewritten, others were
    /// not, and no retry signal can make the tree consistent again. All
    /// subsequent reads and writes refuse with an error instead of
    /// silently serving the torn structure. Unreachable on in-memory
    /// stores (their writes cannot fail mid-split); it exists for the
    /// file-backed I/O error paths.
    pub(crate) poisoned: std::sync::atomic::AtomicBool,
    /// Write-ahead log state; `None` for non-durable trees.
    pub(crate) durability: Option<Durability>,
    /// Set by [`TsbTree::recover`]: the commit timestamp of the newest
    /// mutation the recovered tree contains (the replay *cut*). `None` on
    /// trees that were not produced by recovery.
    pub(crate) recovered_to: Option<Timestamp>,
    /// Seqlock-style structure epoch for optimistic concurrent readers.
    ///
    /// Even = the tree's multi-node invariants hold; odd = the single
    /// writer is mid-way through a structural change (split, migration,
    /// root growth) and a concurrent descent may observe a torn state. The
    /// writer bumps even→odd at the first structural write of a mutation
    /// ([`TsbTree::note_structural_write`]) and odd→even when the mutation
    /// has fully installed ([`TsbTree::settle_structure`]). Content-only
    /// leaf rewrites never bump it: replacing a leaf is atomic through the
    /// decoded-node cache, and multiversion reads at a pinned past
    /// timestamp are unaffected by new versions. Readers that need a
    /// consistent multi-node view (see [`crate::ConcurrentTsb`]) sample
    /// the epoch before and after and retry on change.
    pub(crate) structure_seq: AtomicU64,
}

impl std::fmt::Debug for TsbTree {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TsbTree")
            .field("root", &self.current_root())
            .field("page_size", &self.cfg.page_size)
            .field("split_policy", &self.cfg.split_policy)
            .finish()
    }
}

impl TsbTree {
    /// A fresh tree over in-memory stores sized by `cfg`, stamping commits
    /// from a caller-supplied (possibly shared) clock — the in-memory
    /// counterpart of [`Self::create_durable_with_clock`]. Reached through
    /// [`crate::TsbOptions`].
    pub(crate) fn new_in_memory_with_clock(
        cfg: TsbConfig,
        clock: Arc<LogicalClock>,
    ) -> TsbResult<Self> {
        cfg.validate()?;
        let stats = Arc::new(IoStats::new());
        let magnetic = Arc::new(MagneticStore::in_memory(cfg.page_size, Arc::clone(&stats)));
        let worm = Arc::new(WormStore::in_memory(
            cfg.worm_sector_size,
            Arc::clone(&stats),
        ));
        Self::create_with(magnetic, worm, cfg, None, clock)
    }

    /// Creates a fresh tree over the provided stores. The magnetic store must
    /// be empty (use [`Self::open`] to reopen an existing tree).
    pub fn create(
        magnetic: Arc<MagneticStore>,
        worm: Arc<WormStore>,
        cfg: TsbConfig,
    ) -> TsbResult<Self> {
        Self::create_with(magnetic, worm, cfg, None, Arc::new(LogicalClock::new()))
    }

    /// Creates a fresh **durable** tree: every mutation is redo-logged to
    /// `wal` before it may dirty a page, and the initial state is fenced
    /// with a checkpoint, so the tree is crash-consistent from its first
    /// instant. Use [`crate::TsbOptions::open_tree`] for the directory-based
    /// door and [`Self::recover`] to reopen after a crash.
    pub fn create_durable(
        magnetic: Arc<MagneticStore>,
        worm: Arc<WormStore>,
        wal: Wal,
        cfg: TsbConfig,
    ) -> TsbResult<Self> {
        Self::create_durable_with_clock(magnetic, worm, wal, cfg, Arc::new(LogicalClock::new()))
    }

    /// [`Self::create_durable`] stamping commits from a caller-supplied
    /// (possibly shared) clock — how a sharded engine gives every shard the
    /// same global commit order.
    pub(crate) fn create_durable_with_clock(
        magnetic: Arc<MagneticStore>,
        worm: Arc<WormStore>,
        wal: Wal,
        cfg: TsbConfig,
        clock: Arc<LogicalClock>,
    ) -> TsbResult<Self> {
        let tree = Self::create_with(magnetic, worm, cfg, Some(wal), clock)?;
        // Fence the initial root + metadata so recovery always has a
        // checkpoint to replay from.
        tree.flush_shared()?;
        Ok(tree)
    }

    fn create_with(
        magnetic: Arc<MagneticStore>,
        worm: Arc<WormStore>,
        cfg: TsbConfig,
        wal: Option<Wal>,
        clock: Arc<LogicalClock>,
    ) -> TsbResult<Self> {
        cfg.validate()?;
        if magnetic.allocated_pages() != 0 {
            return Err(TsbError::config(
                "TsbTree::create requires an empty magnetic store; use TsbTree::open to reopen",
            ));
        }
        if magnetic.page_size() != cfg.page_size {
            return Err(TsbError::config(format!(
                "magnetic store page size {} does not match config page size {}",
                magnetic.page_size(),
                cfg.page_size
            )));
        }
        let stats = Arc::clone(magnetic.stats());
        let pool = BufferPool::new(Arc::clone(&magnetic), cfg.buffer_pool_pages);
        let cache = NodeCache::sharded(cfg.node_cache_entries);
        let cost = CostModel::new(cfg.cost);

        let meta_page = magnetic.allocate()?;
        let root_page = magnetic.allocate()?;
        let root = NodeAddr::Current(root_page);
        let durability = wal.map(|wal| Self::attach_wal(wal, &pool, &worm, meta_page));

        let tree = TsbTree {
            cfg,
            magnetic,
            pool,
            cache,
            worm,
            stats,
            cost,
            clock,
            root: RwLock::new(root),
            meta_page,
            txns: Mutex::new(TxnTable::new()),
            marked_for_time_split: Mutex::new(HashSet::new()),
            poisoned: std::sync::atomic::AtomicBool::new(false),
            durability,
            recovered_to: None,
            structure_seq: AtomicU64::new(0),
        };
        let root_node = DataNode::initial_root();
        tree.write_current(root_page, Node::Data(root_node))?;
        tree.write_meta()?;
        Ok(tree)
    }

    /// Builds the [`Durability`] state for a WAL-attached tree: exempts the
    /// metadata page (its content is reconstructed from commit records, not
    /// page images), installs the dirty-page table into the buffer pool so
    /// its write-back sites can assert the WAL-before-page ordering, and
    /// hooks the WORM settle-before-durability rule into the log's fsync
    /// path (see [`Durability::worm_synced`]).
    fn attach_wal(
        wal: Wal,
        pool: &BufferPool,
        worm: &Arc<WormStore>,
        meta_page: PageId,
    ) -> Durability {
        let wal = Arc::new(wal);
        let pages = Arc::new(WalPageTable::new());
        pages.exempt(meta_page);
        pages.attach_wal(Arc::clone(&wal));
        pool.set_wal_table(Arc::clone(&pages));
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

    /// Reopens an existing tree, or creates a fresh one if the magnetic
    /// store is empty. The metadata page is the lowest allocated page id.
    pub fn open(
        magnetic: Arc<MagneticStore>,
        worm: Arc<WormStore>,
        cfg: TsbConfig,
    ) -> TsbResult<Self> {
        cfg.validate()?;
        if magnetic.allocated_pages() == 0 {
            return Self::create(magnetic, worm, cfg);
        }
        if magnetic.page_size() != cfg.page_size {
            return Err(TsbError::config(format!(
                "magnetic store page size {} does not match config page size {}",
                magnetic.page_size(),
                cfg.page_size
            )));
        }
        let meta_page = magnetic
            .allocated_page_ids()
            .into_iter()
            .min()
            .ok_or_else(|| TsbError::internal("non-empty store with no pages"))?;
        let meta_bytes = magnetic.read(meta_page)?;
        let (root, clock_next, next_txn) = Self::decode_meta(&meta_bytes)?;

        let stats = Arc::clone(magnetic.stats());
        let pool = BufferPool::new(Arc::clone(&magnetic), cfg.buffer_pool_pages);
        let cache = NodeCache::sharded(cfg.node_cache_entries);
        let cost = CostModel::new(cfg.cost);
        let clock = Arc::new(LogicalClock::starting_at(clock_next));

        Ok(TsbTree {
            cfg,
            magnetic,
            pool,
            cache,
            worm,
            stats,
            cost,
            clock,
            root: RwLock::new(root),
            meta_page,
            txns: Mutex::new(TxnTable::starting_at(next_txn)),
            marked_for_time_split: Mutex::new(HashSet::new()),
            poisoned: std::sync::atomic::AtomicBool::new(false),
            durability: None,
            recovered_to: None,
            structure_seq: AtomicU64::new(0),
        })
    }

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
        let stats = Arc::new(IoStats::new());
        let wal_path = dir.join(WAL_FILE);
        let (wal, scan) = Wal::open(&wal_path, cfg.fsync_policy, Arc::clone(&stats))?;
        let has_fence = scan.records.iter().any(|(_, r)| {
            matches!(
                r,
                WalRecord::Commit { .. } | WalRecord::Checkpoint { .. } | WalRecord::Prepare { .. }
            )
        });
        let magnetic = Arc::new(MagneticStore::open_file(
            dir.join(MAGNETIC_FILE),
            cfg.page_size,
            Arc::clone(&stats),
        )?);
        let worm = Arc::new(WormStore::open_file(
            dir.join(WORM_FILE),
            cfg.worm_sector_size,
            Arc::clone(&stats),
        )?);
        if has_fence {
            return Self::recover_staged(magnetic, worm, wal, scan, cfg, clock);
        }
        // No fence: nothing was ever durably committed through this log.
        // Starting fresh is only safe when the stores hold no data of
        // their own...
        if magnetic.allocated_pages() == 0 && worm.device_bytes() == 0 {
            drop(wal);
            let wal = Wal::create(&wal_path, cfg.fsync_policy, stats)?;
            return Self::create_durable_with_clock(magnetic, worm, wal, cfg, clock)
                .map(StagedRecovery::fresh);
        }
        // ...or when every byte in them provably came from an unfinished
        // first create: a non-empty, fence-less log can only be the first
        // create's page images (every completed create or mutation appends
        // a fence, and a torn tail that ate *every* fence must lie at or
        // before the first one). Recreate from scratch.
        if !scan.records.is_empty() {
            drop(wal);
            drop(magnetic);
            drop(worm);
            std::fs::remove_file(dir.join(MAGNETIC_FILE))?;
            std::fs::remove_file(dir.join(WORM_FILE))?;
            let wal = Wal::create(&wal_path, cfg.fsync_policy, Arc::clone(&stats))?;
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
            return Self::create_durable_with_clock(magnetic, worm, wal, cfg, clock)
                .map(StagedRecovery::fresh);
        }
        // Real store data, empty log: a pre-WAL database or a lost
        // redo.wal. Refuse rather than guess.
        Err(TsbError::corruption(format!(
            "directory {} holds store data but its write-ahead log has no usable \
             fence; refusing to recreate (use TsbTree::open for a non-durable \
             reopen, or restore the missing redo.wal)",
            dir.display()
        )))
    }

    /// Crash-consistent reopen: replays the redo log over the magnetic
    /// store and rebuilds a verified tree.
    ///
    /// The protocol ("repeating history", then discarding the un-fenced
    /// tail):
    ///
    /// 1. **Base.** Replay starts after the newest `Checkpoint` record (the
    ///    fence LSN) — the magnetic device is known to equal that state. A
    ///    log with commits but no checkpoint replays from the empty store
    ///    the first session started with.
    /// 2. **Cut.** The replay target is the newest `Commit` record such
    ///    that every commit up to it has its WORM history intact
    ///    (`worm_len` within the surviving WORM file). Records after the
    ///    cut belong to a mutation that never finished logging; its page
    ///    images are discarded and any WORM sectors it burned are dead
    ///    space (write-once media cannot be un-burned — §1).
    /// 3. **Repeat history.** Every `PageImage` between base and cut is
    ///    installed into the magnetic store in LSN order
    ///    ([`MagneticStore::restore`] force-allocates pages the on-disk
    ///    superblock predates). This overwrites any torn or half-flushed
    ///    device state — correctness does not depend on *which* writes
    ///    happened to reach the device before the crash.
    /// 4. **Metadata.** The root pointer, logical clock, and transaction
    ///    counter come from the cut's metadata payload, not from the
    ///    (possibly stale) on-device metadata page.
    /// 5. **Implicit abort.** Uncommitted versions that made it into
    ///    replayed pages are erased — in-flight writer transactions died
    ///    with the process, exactly the erasure §4 makes possible on the
    ///    erasable store.
    /// 6. **Reclaim.** The magnetic free list is rebuilt from reachability:
    ///    any allocated page the recovered root cannot reach is freed. The
    ///    log has no record kind for page frees, so replay can only ever
    ///    allocate — without this step a page freed since the checkpoint
    ///    would come back allocated-but-unreachable and stay leaked across
    ///    every later session.
    /// 7. **Verify, then fence.** The rebuilt tree must pass [`Self::verify`]
    ///    before serving, and a fresh checkpoint fences the next recovery.
    ///
    /// The recovered tree answers every query exactly as the oracle's
    /// replay of the committed prefix up to [`Self::last_durable_commit`].
    pub fn recover(
        magnetic: Arc<MagneticStore>,
        worm: Arc<WormStore>,
        wal: Wal,
        scan: WalScan,
        cfg: TsbConfig,
    ) -> TsbResult<Self> {
        Self::recover_staged(
            magnetic,
            worm,
            wal,
            scan,
            cfg,
            Arc::new(LogicalClock::new()),
        )?
        .resolve_locally()
    }

    /// [`Self::recover`] up to — but not including — the resolution of
    /// in-doubt two-phase-commit prepares and the final
    /// purge/reclaim/verify/checkpoint pass. The returned
    /// [`StagedRecovery`] lists every prepare that survived the cut with
    /// its transaction still unstamped; the caller decides each one
    /// (against the coordinator shard's decision record) and then calls
    /// [`StagedRecovery::finish`]. A `Prepare` record is a cut candidate
    /// exactly like a commit — its page images must replay so the in-doubt
    /// writes exist to be stamped or erased — but it never advances the
    /// recovered-to timestamp (the transaction may yet abort).
    pub(crate) fn recover_staged(
        magnetic: Arc<MagneticStore>,
        worm: Arc<WormStore>,
        wal: Wal,
        scan: WalScan,
        cfg: TsbConfig,
        clock: Arc<LogicalClock>,
    ) -> TsbResult<StagedRecovery> {
        cfg.validate()?;
        if magnetic.page_size() != cfg.page_size {
            return Err(TsbError::config(format!(
                "magnetic store page size {} does not match config page size {}",
                magnetic.page_size(),
                cfg.page_size
            )));
        }
        // 1. Base: the newest checkpoint, if any.
        let chk_idx = scan
            .records
            .iter()
            .rposition(|(_, r)| matches!(r, WalRecord::Checkpoint { .. }));
        let mut cut_state: Option<(NodeAddr, Timestamp, u64)> =
            match chk_idx.map(|i| &scan.records[i].1) {
                Some(WalRecord::Checkpoint { meta, .. }) => Some(Self::decode_meta(meta)?),
                Some(_) => unreachable!("rposition matched a checkpoint"),
                None => None,
            };
        // 2. Cut: the longest post-base prefix of commits whose WORM
        //    history survived. A commit with an elided (empty) metadata
        //    payload inherits root and txn counter from the previous fence
        //    and derives its clock from its own timestamp — exactly the
        //    predictability `wal_commit` checked before eliding.
        let replay_from = chk_idx.map(|i| i + 1).unwrap_or(0);
        let worm_len_actual = worm.device_bytes();
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
        let mut prepares: Vec<InDoubtTxn> = Vec::new();
        let mut cut_idx = None;
        let mut cut_ts = None;
        for (idx, (_, record)) in scan.records.iter().enumerate().skip(replay_from) {
            match record {
                WalRecord::Commit { ts, worm_len, meta } => {
                    if *worm_len > worm_len_actual {
                        break;
                    }
                    let state = if meta.is_empty() {
                        let (root, _, next_txn) = cut_state.ok_or_else(|| {
                            TsbError::corruption(
                                "WAL commit with elided metadata has no prior fence to inherit from",
                            )
                        })?;
                        (root, Timestamp(*ts).next(), next_txn)
                    } else {
                        Self::decode_meta(meta)?
                    };
                    cut_idx = Some(idx);
                    cut_ts = Some(Timestamp(*ts));
                    cut_state = Some(state);
                }
                // A prepare fences like a commit (always full metadata)
                // but does not advance the commit cut timestamp — whether
                // its transaction committed is decided later.
                WalRecord::Prepare {
                    ts,
                    worm_len,
                    meta,
                    txn,
                    coordinator,
                    ..
                } => {
                    if *worm_len > worm_len_actual {
                        break;
                    }
                    cut_idx = Some(idx);
                    cut_state = Some(Self::decode_meta(meta)?);
                    prepares.push(InDoubtTxn {
                        ts: Timestamp(*ts),
                        txn: TxnId(*txn),
                        coordinator: *coordinator,
                    });
                }
                _ => {}
            }
        }
        let cut_state = cut_state.ok_or_else(|| {
            TsbError::corruption(
                "write-ahead log has no usable fence (no checkpoint, and no commit \
                 whose WORM history survived); nothing was ever durable",
            )
        })?;
        // 3. Repeat history up to the cut: collect each page's newest
        //    logged image, re-apply its deltas in LSN order, and install
        //    the final state. Deltas never read the device — the
        //    first-touch rule guarantees an in-log image precedes every
        //    delta of its page within the generation, so a torn or
        //    never-flushed device page can't poison replay.
        if let Some(cut_idx) = cut_idx {
            let mut replayed: HashMap<PageId, ReplayPage> = HashMap::new();
            for (_, record) in &scan.records[replay_from..=cut_idx] {
                match record {
                    WalRecord::PageImage { page, bytes } => {
                        replayed.insert(*page, ReplayPage::Raw(bytes.clone()));
                    }
                    WalRecord::PageDelta { page, op } => {
                        let state = replayed.get_mut(page).ok_or_else(|| {
                            TsbError::corruption(format!(
                                "WAL delta for page {page} precedes the page's image \
                                 in this log generation (first-touch rule violated)"
                            ))
                        })?;
                        state.apply(op)?;
                    }
                    WalRecord::Commit { .. }
                    | WalRecord::Checkpoint { .. }
                    | WalRecord::Prepare { .. }
                    | WalRecord::Decision { .. } => {}
                }
            }
            for (page, state) in replayed {
                magnetic.restore(page, &state.into_bytes())?;
            }
        }
        // 4. Install the cut's metadata.
        let (root, clock_next, next_txn) = cut_state;
        let meta_page = magnetic
            .allocated_page_ids()
            .into_iter()
            .min()
            .ok_or_else(|| TsbError::corruption("recovered store has no pages"))?;
        let stats = Arc::clone(magnetic.stats());
        let pool = BufferPool::new(Arc::clone(&magnetic), cfg.buffer_pool_pages);
        let cache = NodeCache::sharded(cfg.node_cache_entries);
        let cost = CostModel::new(cfg.cost);
        clock.advance_to(clock_next);
        let recovered_to = cut_ts.unwrap_or_else(|| clock_next.prev());
        let durability = Some(Self::attach_wal(wal, &pool, &worm, meta_page));

        let tree = TsbTree {
            cfg,
            magnetic,
            pool,
            cache,
            worm,
            stats,
            cost,
            clock,
            root: RwLock::new(root),
            meta_page,
            txns: Mutex::new(TxnTable::starting_at(next_txn)),
            marked_for_time_split: Mutex::new(HashSet::new()),
            poisoned: std::sync::atomic::AtomicBool::new(false),
            durability,
            recovered_to: Some(recovered_to),
            structure_seq: AtomicU64::new(0),
        };
        // The WORM bytes the cut references survived, so they are as
        // stable as they will ever be.
        if let Some(d) = &tree.durability {
            d.worm_synced.store(worm_len_actual, Ordering::Release);
        }
        tree.write_meta()?;
        // In-doubt = a surviving prepare whose transaction is still
        // unstamped in the replayed tree. A prepare whose transaction was
        // later committed (a commit record at or before the cut stamped
        // it) or aborted leaves no uncommitted versions and needs no
        // resolution.
        let unstamped = tree.collect_uncommitted_txns()?;
        prepares.retain(|p| unstamped.contains(&p.txn));
        Ok(StagedRecovery {
            tree,
            in_doubt: prepares,
            decisions,
            needs_finish: true,
        })
    }

    // ----- replication (replica side) -------------------------------------

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
        let wal_path = dir.join(WAL_FILE);
        if !wal_path.exists() {
            return Ok(None);
        }
        let stats = Arc::new(IoStats::new());
        let (wal, scan) = Wal::open(&wal_path, cfg.fsync_policy, Arc::clone(&stats))?;
        let has_fence = scan
            .records
            .iter()
            .any(|(_, r)| matches!(r, WalRecord::Commit { .. } | WalRecord::Checkpoint { .. }));
        if !has_fence {
            // A shipped log always starts at a fence (the base image's
            // checkpoint); no fence means the install never completed.
            drop(wal);
            return Ok(None);
        }
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
        Self::recover_replica(magnetic, worm, wal, scan, cfg).map(Some)
    }

    /// [`Self::recover_staged`]'s replica variant: replays the local copy
    /// of the primary's log to the newest fence, but keeps uncommitted
    /// versions (their transactions are still live on the primary), never
    /// appends records of its own (no purge fences, no local checkpoint),
    /// and hands back the un-fenced tail for the apply overlay. A log
    /// holding two-phase-commit records is rejected: replication ships a
    /// single shard's log, and a sharded primary must be subscribed to
    /// per-shard (unsupported in this version).
    pub(crate) fn recover_replica(
        magnetic: Arc<MagneticStore>,
        worm: Arc<WormStore>,
        wal: Wal,
        scan: WalScan,
        cfg: TsbConfig,
    ) -> TsbResult<ReplicaRecovery> {
        cfg.validate()?;
        if magnetic.page_size() != cfg.page_size {
            return Err(TsbError::config(format!(
                "magnetic store page size {} does not match config page size {}",
                magnetic.page_size(),
                cfg.page_size
            )));
        }
        if scan
            .records
            .iter()
            .any(|(_, r)| matches!(r, WalRecord::Prepare { .. } | WalRecord::Decision { .. }))
        {
            return Err(TsbError::config(
                "replica log holds two-phase-commit records; replicating a \
                 sharded primary is not supported",
            ));
        }
        // Base: the newest checkpoint (the base image's fence, or a
        // primary checkpoint that was applied in place).
        let chk_idx = scan
            .records
            .iter()
            .rposition(|(_, r)| matches!(r, WalRecord::Checkpoint { .. }));
        let mut cut_state: Option<(NodeAddr, Timestamp, u64)> =
            match chk_idx.map(|i| &scan.records[i].1) {
                Some(WalRecord::Checkpoint { meta, .. }) => Some(Self::decode_meta(meta)?),
                Some(_) => unreachable!("rposition matched a checkpoint"),
                None => None,
            };
        let mut applied_lsn = chk_idx.map(|i| scan.records[i].0);
        // Cut: the newest commit fence. The batch-apply protocol makes the
        // WORM durable *before* any record of the batch reaches the local
        // log, so every logged commit must have its history intact — a
        // violation is corruption, not a torn tail to skip.
        let replay_from = chk_idx.map(|i| i + 1).unwrap_or(0);
        let worm_len_actual = worm.device_bytes();
        let mut cut_idx = None;
        let mut cut_ts = None;
        for (idx, (lsn, record)) in scan.records.iter().enumerate().skip(replay_from) {
            if let WalRecord::Commit { ts, worm_len, meta } = record {
                if *worm_len > worm_len_actual {
                    return Err(TsbError::corruption(format!(
                        "replica log commit at lsn {lsn} references {worm_len} WORM \
                         bytes but the device holds {worm_len_actual}; the apply \
                         protocol syncs history before logging its fence"
                    )));
                }
                let state = if meta.is_empty() {
                    let (root, _, next_txn) = cut_state.ok_or_else(|| {
                        TsbError::corruption(
                            "WAL commit with elided metadata has no prior fence to inherit from",
                        )
                    })?;
                    (root, Timestamp(*ts).next(), next_txn)
                } else {
                    Self::decode_meta(meta)?
                };
                cut_idx = Some(idx);
                cut_ts = Some(Timestamp(*ts));
                cut_state = Some(state);
                applied_lsn = Some(*lsn);
            }
        }
        let cut_state = cut_state.ok_or_else(|| {
            TsbError::corruption("replica log has no usable fence; nothing was ever applied")
        })?;
        let applied_lsn = applied_lsn
            .ok_or_else(|| TsbError::corruption("replica log has a fence but no fence lsn"))?;
        // Repeat history through the cut, exactly as primary recovery does.
        let replay_to = cut_idx.or(chk_idx);
        if let Some(replay_to) = replay_to {
            let mut replayed: HashMap<PageId, ReplayPage> = HashMap::new();
            for (_, record) in &scan.records[replay_from..=replay_to] {
                match record {
                    WalRecord::PageImage { page, bytes } => {
                        replayed.insert(*page, ReplayPage::Raw(bytes.clone()));
                    }
                    WalRecord::PageDelta { page, op } => {
                        let state = replayed.get_mut(page).ok_or_else(|| {
                            TsbError::corruption(format!(
                                "WAL delta for page {page} precedes the page's image \
                                 in this log generation (first-touch rule violated)"
                            ))
                        })?;
                        state.apply(op)?;
                    }
                    _ => {}
                }
            }
            for (page, state) in replayed {
                magnetic.restore(page, &state.into_bytes())?;
            }
        }
        // The un-fenced tail: shipped records whose commit fence has not
        // arrived. They re-seed the apply overlay's staging area.
        let tail: Vec<WalRecord> = replay_to
            .map(|i| {
                scan.records[i + 1..]
                    .iter()
                    .map(|(_, r)| r.clone())
                    .collect()
            })
            .unwrap_or_default();
        let last_lsn = wal.last_lsn();
        // Install the cut's metadata and assemble the tree.
        let (root, clock_next, next_txn) = cut_state;
        let meta_page = magnetic
            .allocated_page_ids()
            .into_iter()
            .min()
            .ok_or_else(|| TsbError::corruption("recovered store has no pages"))?;
        let stats = Arc::clone(magnetic.stats());
        let pool = BufferPool::new(Arc::clone(&magnetic), cfg.buffer_pool_pages);
        let cache = NodeCache::sharded(cfg.node_cache_entries);
        let cost = CostModel::new(cfg.cost);
        let clock = Arc::new(LogicalClock::starting_at(clock_next));
        let recovered_to = cut_ts.unwrap_or_else(|| clock_next.prev());
        let durability = Some(Self::attach_wal(wal, &pool, &worm, meta_page));
        let tree = TsbTree {
            cfg,
            magnetic,
            pool,
            cache,
            worm,
            stats,
            cost,
            clock,
            root: RwLock::new(root),
            meta_page,
            txns: Mutex::new(TxnTable::starting_at(next_txn)),
            marked_for_time_split: Mutex::new(HashSet::new()),
            poisoned: std::sync::atomic::AtomicBool::new(false),
            durability,
            recovered_to: Some(recovered_to),
            structure_seq: AtomicU64::new(0),
        };
        if let Some(d) = &tree.durability {
            d.worm_synced.store(worm_len_actual, Ordering::Release);
        }
        tree.write_meta()?;
        // Reclaim pages unreachable at the cut (a free has no log record;
        // see `reclaim_unreachable_pages`) and verify — but no purge and
        // no fencing checkpoint: the replica's state must stay exactly the
        // primary's state at the cut fence, and its log is a pure copy.
        tree.reclaim_unreachable_pages()?;
        tree.verify()?;
        Ok(ReplicaRecovery {
            tree,
            applied_lsn,
            last_lsn,
            tail,
            cut_state,
        })
    }

    /// Installs a shipped page image onto the replica's magnetic device and
    /// invalidates every cached copy. Order matters against concurrent
    /// readers: device first, then the buffer-pool frame, then the node
    /// cache — a racing fill that decoded stale bytes began before the
    /// cache discard bumped the shard stamp, so `complete_fill` refuses to
    /// install it. Caller must hold the writer lock with the structure
    /// epoch marked in flight.
    pub(crate) fn replica_install_page(&self, page: PageId, bytes: &[u8]) -> TsbResult<()> {
        self.magnetic.restore(page, bytes)?;
        self.pool.discard(page);
        self.cache.discard(NodeAddr::Current(page));
        Ok(())
    }

    /// Installs a shipped fence's metadata: the root pointer, the commit
    /// clock, and the transaction counter, mirrored onto the metadata page.
    /// Caller must hold the writer lock with the structure epoch marked in
    /// flight.
    pub(crate) fn replica_install_meta(
        &self,
        root: NodeAddr,
        clock_next: Timestamp,
        next_txn: u64,
    ) -> TsbResult<()> {
        *self.root.write() = root;
        self.clock.advance_to(clock_next);
        *self.txns.lock() = TxnTable::starting_at(next_txn);
        self.write_meta()
    }

    /// The device image of a current page — the base a shipped delta
    /// applies to when the apply overlay holds no newer state for the page
    /// (the page's first-touch image predates the replica's local log
    /// generation; the device equals the state at the last installed
    /// fence).
    pub(crate) fn replica_read_page(&self, page: PageId) -> TsbResult<Vec<u8>> {
        self.magnetic.read(page)
    }

    /// Flushes the replica's device stores so a primary checkpoint record
    /// can become a sound local recovery base: local restart replays from
    /// the newest checkpoint assuming the device equals that state.
    pub(crate) fn replica_sync_devices(&self) -> TsbResult<()> {
        self.pool.flush()?;
        self.magnetic.sync()?;
        self.worm.sync()?;
        if let Some(d) = &self.durability {
            d.worm_synced
                .store(self.worm.device_bytes(), Ordering::Release);
        }
        Ok(())
    }

    /// The redo log handle, for the replica's local record appends and
    /// syncs (`None` on non-durable trees).
    pub(crate) fn wal_handle(&self) -> Option<Arc<Wal>> {
        self.durability.as_ref().map(|d| Arc::clone(&d.wal))
    }

    /// Captures a consistent **base image** for a new (or re-basing)
    /// replica: checkpoints the tree — after [`Self::flush_shared`] the
    /// log is exactly `[Checkpoint]` and the devices equal the
    /// checkpointed state — then snapshots every magnetic page, the whole
    /// WORM device, and the checkpoint record's exact logged body (the
    /// replica seeds its local log with it, byte-identical, preserving the
    /// primary's LSN chain). Caller must hold the writer lock.
    pub(crate) fn capture_replication_base(&self) -> TsbResult<crate::replica::ReplicaBase> {
        let wal = self.wal_handle().ok_or_else(|| {
            TsbError::config("replication requires a durable (WAL-attached) primary")
        })?;
        self.flush_shared()?;
        let checkpoint_lsn = wal.last_lsn();
        if checkpoint_lsn == 0 {
            return Err(TsbError::internal(
                "checkpoint fence landed at lsn 0 (a fresh tree logs page images first)",
            ));
        }
        let mut tailer = tsb_storage::WalTailer::new(wal.path());
        let checkpoint = match tailer.poll(checkpoint_lsn - 1, checkpoint_lsn, usize::MAX)? {
            tsb_storage::TailPoll::Batch(mut bodies) if bodies.len() == 1 => bodies.remove(0),
            _ => {
                return Err(TsbError::internal(
                    "the just-written checkpoint fence is not the log's sole record",
                ))
            }
        };
        let mut pages = Vec::new();
        let mut ids = self.magnetic.allocated_page_ids();
        ids.sort_unstable();
        for page in ids {
            pages.push((page, self.magnetic.read(page)?));
        }
        let worm_len = self.worm.device_bytes();
        let worm = self.worm.read_raw(0, worm_len as usize)?;
        Ok(crate::replica::ReplicaBase {
            checkpoint_lsn,
            checkpoint,
            pages,
            worm,
            page_size: self.cfg.page_size,
            worm_sector_size: self.cfg.worm_sector_size,
        })
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

    /// The commit timestamp of the newest mutation known to be on stable
    /// storage — the durable prefix's upper bound. For a tree produced by
    /// [`Self::recover`] this starts at the recovery cut; on a live
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
                self.pool.discard(page);
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

    /// The tree configuration.
    pub fn config(&self) -> &TsbConfig {
        &self.cfg
    }

    /// The shared I/O statistics counters.
    pub fn io_stats(&self) -> &Arc<IoStats> {
        &self.stats
    }

    /// The device cost model.
    pub fn cost_model(&self) -> &CostModel {
        &self.cost
    }

    /// Wires `injector` into every device this tree writes — the magnetic
    /// store, the WORM store, and (when durable) the WAL — so crash tests
    /// can kill a fully assembled engine at any instrumented write site.
    /// Sharded crash tests install one injector across every shard, making
    /// "crash after k of n prepares" a single armed trigger.
    pub fn set_fault_injector(&self, injector: &Arc<FaultInjector>) {
        self.magnetic.set_fault_injector(Arc::clone(injector));
        self.worm.set_fault_injector(Arc::clone(injector));
        if let Some(d) = &self.durability {
            d.wal.set_fault_injector(Arc::clone(injector));
        }
    }

    /// The current logical time (the timestamp the next commit would get).
    pub fn now(&self) -> Timestamp {
        self.clock.now()
    }

    /// The root node address.
    pub fn root_addr(&self) -> NodeAddr {
        self.current_root()
    }

    /// Copies the root pointer out of its latch (a short shared latch, held
    /// only for the copy).
    pub(crate) fn current_root(&self) -> NodeAddr {
        *self.root.read()
    }

    // ----- structure epoch (single-writer seqlock) ------------------------

    /// The current structure epoch (even = stable, odd = a structural
    /// change is in flight). Readers needing a consistent multi-node view
    /// sample this before and after their descent and retry on change.
    pub(crate) fn structure_epoch(&self) -> u64 {
        self.structure_seq.load(Ordering::Acquire)
    }

    /// Marks the beginning of a structural change (first split / migration /
    /// root replacement of the current mutation). Idempotent within one
    /// mutation: only the even→odd transition stores. Must only be called
    /// by the single writer.
    pub(crate) fn note_structural_write(&self) {
        let seq = self.structure_seq.load(Ordering::Relaxed);
        if seq.is_multiple_of(2) {
            self.structure_seq.store(seq + 1, Ordering::Release);
        }
    }

    /// Marks the end of the current mutation: if a structural change was
    /// noted, the epoch settles back to even. Must only be called by the
    /// single writer.
    pub(crate) fn settle_structure(&self) {
        let seq = self.structure_seq.load(Ordering::Relaxed);
        if seq % 2 == 1 {
            self.structure_seq.store(seq + 1, Ordering::Release);
        }
    }

    /// Ends a mutation that may have performed structural writes. If the
    /// mutation `failed` while the epoch was odd — i.e. after at least one
    /// structural write landed but before the change fully installed — the
    /// tree is permanently poisoned: some nodes were rewritten and others
    /// were not, and neither the writer nor a retrying reader can
    /// reconstruct a consistent view. All subsequent operations then
    /// refuse (see [`Self::check_not_poisoned`]) instead of silently
    /// serving the torn structure.
    pub(crate) fn settle_structure_after(&self, failed: bool) {
        if failed && self.structure_seq.load(Ordering::Relaxed) % 2 == 1 {
            self.poisoned.store(true, Ordering::Release);
        }
        self.settle_structure();
    }

    /// Errors if a previous structural mutation failed part-way through.
    pub(crate) fn check_not_poisoned(&self) -> TsbResult<()> {
        if self.poisoned.load(Ordering::Acquire) {
            return Err(TsbError::invariant(
                "the tree is poisoned: a structural change (split/migration) failed \
                 part-way through and the on-device structure is torn",
            ));
        }
        Ok(())
    }

    /// Space currently occupied on the two devices (the paper's `SpaceM` and
    /// `SpaceO`).
    pub fn space(&self) -> SpaceSnapshot {
        SpaceSnapshot {
            magnetic_bytes: self.magnetic.device_bytes(),
            worm_bytes: self.worm.device_bytes(),
            magnetic_payload_bytes: self.magnetic.payload_bytes(),
            worm_payload_bytes: self.worm.payload_bytes(),
        }
    }

    /// The storage cost `CS = SpaceM·CM + SpaceO·CO` of the current state.
    pub fn storage_cost(&self) -> f64 {
        self.cost.storage_cost(&self.space())
    }

    /// Flushes dirty nodes, dirty pages, the metadata page, and both
    /// devices. On a durable tree this is a full **checkpoint**: once the
    /// devices are synced, a checkpoint record fences the redo log, so the
    /// next recovery replays nothing that precedes this call.
    pub fn flush(&mut self) -> TsbResult<()> {
        self.flush_shared()
    }

    /// Synonym for [`Self::flush`] under its durability name.
    pub fn checkpoint(&mut self) -> TsbResult<()> {
        self.flush_shared()
    }

    /// [`Self::flush`] against `&self`, for callers that serialize writers
    /// externally ([`crate::ConcurrentTsb`]).
    ///
    /// Checkpoint ordering is what makes the fence sound: the checkpoint
    /// record is appended (and fsynced) only *after* every dirty node is
    /// encoded, every dirty page written, and both devices synced. A crash
    /// anywhere inside this sequence leaves the log without the new
    /// checkpoint, so recovery replays from the previous fence — and
    /// because every page image since that fence is in the log, replay
    /// overwrites whatever subset of the flush had landed.
    pub(crate) fn flush_shared(&self) -> TsbResult<()> {
        self.write_meta()?;
        self.flush_node_cache()?;
        self.pool.flush()?;
        self.magnetic.sync()?;
        self.worm.sync()?;
        if let Some(d) = &self.durability {
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
            // flush above drained every dirty page).
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
        }
        Ok(())
    }

    // ----- write-ahead logging --------------------------------------------

    /// Appends one record to the WAL. A failed append **poisons the tree**:
    /// the in-memory state is ahead of what can ever be made durable again,
    /// and continuing to serve (or mutate) it would silently widen the gap,
    /// so every subsequent operation refuses instead.
    fn wal_append(&self, record: &WalRecord) -> TsbResult<Lsn> {
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
    /// [`Self::recover`], step 3).
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
        // recovery to cut before this commit. For `EveryN`/`Os` the reason
        // is device consistency: the flushed-LSN barrier forces the *WAL*
        // (not the WORM) before page write-backs, so the page device could
        // otherwise hold images from a commit whose WORM history was lost.
        // The WAL's pre-sync hook (installed by `attach_wal`) settles the
        // WORM immediately before *every* fsync of the log — the only
        // moments a commit record can become durable — so an `Os` or
        // mid-group `EveryN` commit no longer pays an eager WORM fsync
        // here; `Always` pays it inside its own commit fsync, as before.
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
        // Pipelined commit: the fence is appended (and its sync requested
        // at policy boundaries) but *never* fsynced on this thread. The
        // deferred wait lands in `pending_wait` for the engine wrapper to
        // consume once its locks are released; the fence/timestamp pair
        // lands in `acks` so `last_durable_commit` can track the watermark.
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

    /// Appends (and force-syncs) a two-phase-commit **prepare** fence: the
    /// transaction's writes are all in the log before it, its metadata is
    /// always written in full (a prepare is a cut candidate recovery must
    /// be able to stand on), and the record is on stable storage when this
    /// returns — the participant's promise that it can commit. No-op on
    /// non-durable trees.
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
        self.wal_force_sync()
    }

    /// Appends (and force-syncs) the coordinator's two-phase-commit
    /// **decision**: logged only once every participant's prepare is
    /// durable, it is the single record that decides the transaction —
    /// recovery commits an in-doubt prepare iff the coordinator's log
    /// holds its decision. No-op on non-durable trees.
    pub(crate) fn wal_decision(&self, ts: Timestamp, participants: &[u32]) -> TsbResult<()> {
        if self.durability.is_none() {
            return Ok(());
        }
        let record = WalRecord::Decision {
            ts: ts.value(),
            participants: participants.to_vec(),
        };
        self.wal_append(&record)?;
        self.wal_force_sync()
    }

    /// Forces the WAL to stable storage on the calling thread, regardless
    /// of the fsync policy (the 2PC fences must not ride the group-commit
    /// pipeline: the protocol's next step may only start once the previous
    /// fence is durable). No-op on non-durable trees.
    pub(crate) fn wal_force_sync(&self) -> TsbResult<()> {
        let Some(d) = &self.durability else {
            return Ok(());
        };
        d.wal.sync().inspect_err(|_| {
            self.poisoned.store(true, Ordering::Release);
        })?;
        d.acks.lock().settle(d.wal.durable_lsn());
        Ok(())
    }

    /// Takes the durable-LSN wait deferred by the newest commit fence, if
    /// any. The concurrent engine calls this while still holding its
    /// writer lock (the cell is a single slot the next writer overwrites),
    /// then parks via [`Self::wait_durable_lsn`] after releasing it.
    pub(crate) fn take_pending_durable_wait(&self) -> Option<Lsn> {
        self.durability.as_ref()?.pending_wait.lock().take()
    }

    /// Parks until the WAL's durable watermark covers `lsn` — the
    /// acknowledgement half of a pipelined commit. A failed wait **poisons
    /// the tree**: the fence was appended but can never become durable, so
    /// the in-memory state is permanently ahead of the log.
    pub(crate) fn wait_durable_lsn(&self, lsn: Lsn) -> TsbResult<()> {
        let Some(d) = &self.durability else {
            return Ok(());
        };
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

    // ----- node I/O -------------------------------------------------------

    /// Usable bytes for an encoded node on a magnetic page.
    pub(crate) fn page_capacity(&self) -> usize {
        self.magnetic.capacity()
    }

    /// The size at which an insertion triggers a split.
    pub(crate) fn split_threshold(&self) -> usize {
        (self.page_capacity() as f64 * self.cfg.split_fill_threshold) as usize
    }

    /// Reads the node at `addr`, recording a logical node access. Served
    /// from the decoded-node cache when possible — a hit performs no decode
    /// and no page-image copy, just a shared handle.
    pub(crate) fn read_node(&self, addr: NodeAddr) -> TsbResult<Arc<Node>> {
        self.check_not_poisoned()?;
        match addr {
            NodeAddr::Current(_) => self.stats.record_current_node_access(),
            NodeAddr::Historical(_) => self.stats.record_historical_node_access(),
        }
        let fill_stamp = match self.cache.begin_fill(addr) {
            Ok(node) => {
                self.stats.record_node_cache_hit();
                return Ok(node);
            }
            Err(stamp) => stamp,
        };
        self.stats.record_node_cache_miss();
        let decoded = Arc::new(self.decode_node_at(addr)?);
        // Caching a clean node is pure in-memory bookkeeping (dirty entries
        // are pinned against eviction), so the read path performs no page
        // I/O beyond the decode above. The fill is stamp-validated: if the
        // writer changed this cache shard's contents while we were
        // decoding, our decode may be stale and is returned *uncached*
        // (still a legal answer for a read that began before the write
        // installed); a resident entry always wins.
        Ok(self.cache.complete_fill(addr, decoded, fill_stamp))
    }

    /// Decodes the node at `addr` from its device image (buffer pool for
    /// current pages, WORM store for historical nodes), bypassing the
    /// decoded-node cache.
    fn decode_node_at(&self, addr: NodeAddr) -> TsbResult<Node> {
        Node::decode(self.read_image(addr)?)
    }

    /// The device image of the node at `addr`, as a buffer the decoded node
    /// takes over as its body: the pool keeps its frame, so a current node
    /// starts from a copy; a WORM read's buffer is ours already.
    fn read_image(&self, addr: NodeAddr) -> TsbResult<Vec<u8>> {
        self.stats.record_node_decode();
        match addr {
            NodeAddr::Current(page) => Ok(self.pool.get(page)?.to_vec()),
            NodeAddr::Historical(hist) => self.worm.read(hist),
        }
    }

    /// Reads and decodes the node at `addr` directly from the devices. Any
    /// pending dirty state *for that address* is flushed first so its
    /// device image is the newest one (other deferred encodes stay
    /// deferred). Diagnostic surface used to check cache coherence.
    pub fn read_node_bypass(&self, addr: NodeAddr) -> TsbResult<Node> {
        self.flush_dirty_node_at(addr)?;
        self.decode_node_at(addr)
    }

    /// Whether content-only rewrites on this tree should describe
    /// themselves as logical [`PageOp`] deltas for the redo log. Callers
    /// on the hot path use this to skip building the ops (and the version
    /// clone they cost) entirely when nothing would consume them.
    pub(crate) fn logs_deltas(&self) -> bool {
        self.durability.is_some() && self.cfg.wal_mode == WalMode::Hybrid
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

    /// Installs the newest version of a current node after a **structural**
    /// rewrite (split piece, migration survivor, root growth, node
    /// initialization, wholesale repair): the redo log always receives the
    /// full page image. Content-only rewrites should use
    /// [`Self::write_current_delta`] instead.
    pub(crate) fn write_current(&self, page: PageId, node: Node) -> TsbResult<()> {
        self.write_current_inner(page, node, Vec::new())
    }

    /// Installs the newest version of a current node after a
    /// **content-only** rewrite fully described by `ops` (the logical redo
    /// deltas that turn the node's previous state into `node`). Under
    /// [`WalMode::Hybrid`], the first dirtying of the page per checkpoint
    /// interval still logs the full image (the replay base); every later
    /// call logs only `ops` — tens of bytes instead of a page. `ops` may
    /// be empty on non-durable or [`WalMode::ImagesOnly`] trees (see
    /// [`Self::logs_deltas`]).
    pub(crate) fn write_current_delta(
        &self,
        page: PageId,
        node: Node,
        ops: Vec<PageOp>,
    ) -> TsbResult<()> {
        self.write_current_inner(page, node, ops)
    }

    /// Shared write-install path. The node goes into the decoded-node
    /// cache marked dirty; the encode into its page image is deferred
    /// until the entry is evicted or the tree flushes, so a hot leaf
    /// rewritten many times between flushes encodes once.
    fn write_current_inner(&self, page: PageId, node: Node, ops: Vec<PageOp>) -> TsbResult<()> {
        let size = node.encoded_size();
        if size > self.page_capacity() {
            return Err(TsbError::internal(format!(
                "attempted to write a {}-byte node into a {}-byte page; splitting should have prevented this",
                size,
                self.page_capacity()
            )));
        }
        // WAL-before-page: the redo record(s) go into the log *before* the
        // cache may hold the node dirty. If an append fails nothing has
        // changed in memory, so the error is clean (though the tree is
        // poisoned — the log device is gone).
        //
        // First-touch rule: a page's first dirtying per checkpoint
        // interval logs its full image whatever the caller offered —
        // recovery replays deltas against in-log images only, never the
        // (possibly torn, possibly never-written) device page. After that,
        // a content-only rewrite with ops logs just the deltas; the full
        // encode this path used to pay per mutation happens only on first
        // touch and structural rewrites.
        if let Some(d) = &self.durability {
            let first_touch = d.pages.first_touch(page);
            if first_touch || ops.is_empty() || self.cfg.wal_mode == WalMode::ImagesOnly {
                let record = WalRecord::PageImage {
                    page,
                    bytes: node.encode(),
                };
                let lsn = self.wal_append(&record)?;
                d.pages.record(page, lsn);
            } else {
                // Caller contract, cross-checked in debug builds: the ops
                // must derive `node` from the page's logged state. Checked
                // only for pure content ops — there the logged state *is*
                // the cached prior node; a split survivor's ops instead
                // build on pending deltas logged mid-mutation
                // ([`Self::wal_append_ops`]), which the cache never held.
                #[cfg(debug_assertions)]
                {
                    let content_only = ops.iter().all(|op| {
                        matches!(
                            op,
                            PageOp::InsertVersion(_)
                                | PageOp::RemoveUncommitted { .. }
                                | PageOp::IndexReplaceChild { .. }
                        )
                    });
                    if content_only {
                        if let Ok(prior) = self.read_node(NodeAddr::Current(page)) {
                            let mut derived = ReplayPage::Decoded(Node::clone(&prior));
                            let applied = ops.iter().try_for_each(|op| derived.apply(op));
                            if let (Ok(()), ReplayPage::Decoded(derived)) = (applied, derived) {
                                debug_assert_eq!(
                                    derived, node,
                                    "WAL delta contract violated for page {page}: the \
                                     logged ops do not derive the installed node from \
                                     its prior state"
                                );
                            }
                        }
                    }
                }
                for op in ops {
                    let record = WalRecord::PageDelta { page, op };
                    let lsn = self.wal_append(&record)?;
                    d.pages.record(page, lsn);
                }
            }
        }
        self.cache.insert_dirty(page, Arc::new(node));
        // Bound the dirty residency: when this page's cache shard holds
        // more deferred encodes than its capacity, write the least recently
        // written one back now (writer context, so this is race-free). The
        // victim stays resident and is marked clean only after its image is
        // in the pool — a concurrent reader therefore never sees a gap.
        //
        // Durable trees defer this to the end of the mutation
        // ([`Self::wal_commit`]): writing a victim back here could push an
        // image from the *in-flight* mutation toward the device before its
        // commit fence exists, and recovery discards un-fenced images — the
        // device would hold state replay cannot reproduce.
        if self.durability.is_none() {
            if let Some((victim_page, victim_node)) =
                self.cache.dirty_overflow_victim(NodeAddr::Current(page))
            {
                self.write_back_dirty(victim_page, &victim_node)?;
            }
        }
        Ok(())
    }

    /// Encodes and writes one dirty cached node into its page image, then
    /// confirms the write-back so the cache unpins the entry. The entry
    /// stays dirty — pinned against eviction — until its image is in the
    /// pool, so a concurrent reader can never evict-then-refill it from a
    /// stale page image mid-flush.
    fn write_back_dirty(&self, page: PageId, node: &Node) -> TsbResult<()> {
        // WAL-before-page invariant: a dirty node may only start its way to
        // the device if its image was logged when the node was installed
        // (`write_current`). The buffer pool asserts the same contract at
        // its own write-back sites via the shared WalPageTable.
        if let Some(d) = &self.durability {
            d.pages.assert_covered(page);
        }
        self.stats.record_node_encode();
        self.pool.put(page, node.encode())?;
        self.cache.mark_clean(NodeAddr::Current(page));
        Ok(())
    }

    /// Encodes every dirty cached node into its page image (ascending
    /// `PageId` order). The entries stay cached, now clean. Public so
    /// measurement harnesses can draw a line between build-phase and
    /// query-phase encode/write traffic without a full device flush.
    pub fn flush_node_cache(&self) -> TsbResult<()> {
        for (page, node) in self.cache.dirty_entries() {
            self.write_back_dirty(page, &node)?;
        }
        Ok(())
    }

    /// Encodes one address's dirty cached node into its page image, if it
    /// has one; every other deferred encode stays deferred.
    fn flush_dirty_node_at(&self, addr: NodeAddr) -> TsbResult<()> {
        match self.cache.dirty_at(addr) {
            Some((page, node)) => self.write_back_dirty(page, &node),
            None => Ok(()),
        }
    }

    /// Consolidates a node and appends it to the historical store,
    /// returning its address (§3.4: the historical node is written once, at
    /// whatever length it has). The node is retained in the decoded-node
    /// cache — freshly migrated history is the history most likely to be
    /// queried.
    pub(crate) fn append_historical(&self, node: Node) -> TsbResult<HistAddr> {
        self.stats.record_node_encode();
        let addr = self.worm.append(&node.encode())?;
        self.cache
            .insert_clean(NodeAddr::Historical(addr), Arc::new(node));
        Ok(addr)
    }

    /// Drops every cached decoded node and page frame, writing dirty state
    /// to the devices first. Subsequent reads re-read pages from the device
    /// *and* re-decode them — the fully-cold baseline.
    pub fn drop_caches(&self) -> TsbResult<()> {
        self.drop_node_cache()?;
        self.pool.flush_and_clear()
    }

    /// Drops only the decoded-node cache (after flushing its dirty state),
    /// leaving the buffer pool warm. Subsequent reads pay one `Node::decode`
    /// per access but no device I/O — exactly the engine's behaviour before
    /// the decoded-node cache existed, which makes this the baseline for
    /// measuring what the cache itself buys.
    pub fn drop_node_cache(&self) -> TsbResult<()> {
        self.flush_node_cache()?;
        self.cache.clear();
        Ok(())
    }

    /// Invalidates the decoded-node cache entry for `addr`, if any. That
    /// entry's dirty state is flushed first, so no write is lost — and
    /// *only* that entry's, so invalidating one node does not act as a
    /// full flush; the next read re-decodes the device image.
    pub fn invalidate_cached_node(&self, addr: NodeAddr) -> TsbResult<()> {
        self.flush_dirty_node_at(addr)?;
        self.cache.discard(addr);
        Ok(())
    }

    /// Walks every node reachable from the root and checks that the cached
    /// copy equals what decoding the device image produces (pending dirty
    /// nodes are flushed first), and that the decoded node re-encodes to
    /// exactly that image — a node in memory *is* its device bytes. Returns
    /// the first divergence found.
    pub fn verify_cache_coherence(&self) -> TsbResult<()> {
        self.flush_node_cache()?;
        let mut visited: HashSet<NodeAddr> = HashSet::new();
        self.check_coherence(self.current_root(), &mut visited)
    }

    fn check_coherence(&self, addr: NodeAddr, visited: &mut HashSet<NodeAddr>) -> TsbResult<()> {
        if !visited.insert(addr) {
            return Ok(());
        }
        let cached = self.read_node(addr)?;
        let image = self.read_image(addr)?;
        let direct = Node::decode(image.clone())?;
        if *cached != direct {
            return Err(TsbError::invariant(format!(
                "decoded-node cache diverges from the device image at {addr}"
            )));
        }
        if direct.encode() != image {
            return Err(TsbError::invariant(format!(
                "node at {addr} does not re-encode to its device image"
            )));
        }
        if let Node::Index(index) = &*cached {
            for entry in index.iter() {
                self.check_coherence(entry.child, visited)?;
            }
        }
        Ok(())
    }

    /// Allocates a fresh current page. Under durability, anything the WAL
    /// page table knew about a recycled page is forgotten: its old image
    /// is not a redo base for its new life, so the first write of new
    /// content logs a fresh full image.
    pub(crate) fn allocate_page(&self) -> TsbResult<PageId> {
        let page = self.magnetic.allocate()?;
        if let Some(d) = &self.durability {
            d.pages.forget(page);
        }
        Ok(page)
    }

    // ----- metadata -------------------------------------------------------

    /// The metadata encoding shared by the on-device metadata page and the
    /// WAL's commit / checkpoint records (recovery trusts the latter; the
    /// page is a convenience for non-durable reopen).
    fn encode_meta_bytes(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.put_u64(META_MAGIC);
        self.current_root().encode(&mut w);
        w.put_u64(self.clock.now().value());
        w.put_u64(self.txns.lock().next_id_value());
        w.into_vec()
    }

    pub(crate) fn write_meta(&self) -> TsbResult<()> {
        self.pool.put(self.meta_page, self.encode_meta_bytes())
    }

    pub(crate) fn decode_meta(bytes: &[u8]) -> TsbResult<(NodeAddr, Timestamp, u64)> {
        let mut r = ByteReader::new(bytes);
        if r.get_u64()? != META_MAGIC {
            return Err(TsbError::corruption("bad TSB-tree metadata magic"));
        }
        let root = NodeAddr::decode(&mut r)?;
        let clock_next = Timestamp(r.get_u64()?);
        let next_txn = r.get_u64()?;
        Ok((root, clock_next, next_txn))
    }

    /// Updates the root pointer and persists the metadata page. A root
    /// replacement is a structural change, so the caller (the insert path)
    /// must have noted the structure epoch as in-flight.
    pub(crate) fn set_root(&self, root: NodeAddr) -> TsbResult<()> {
        *self.root.write() = root;
        self.write_meta()
    }
}

/// A shared read handle to a cached data node. Dereferences to
/// [`DataNode`]; cloning the target (`DataNode::clone(&r)`) yields an owned
/// node for mutation paths.
pub(crate) struct DataRef(pub(crate) Arc<Node>);

impl Deref for DataRef {
    type Target = DataNode;
    fn deref(&self) -> &DataNode {
        match &*self.0 {
            Node::Data(n) => n,
            Node::Index(_) => unreachable!("DataRef only wraps data nodes"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsb_common::Key;

    struct TempDir(std::path::PathBuf);

    impl TempDir {
        fn new(tag: &str) -> Self {
            let dir = std::env::temp_dir().join(format!(
                "tsb-tree-{tag}-{}-{:?}",
                std::process::id(),
                std::thread::current().id()
            ));
            let _ = std::fs::remove_dir_all(&dir);
            std::fs::create_dir_all(&dir).unwrap();
            TempDir(dir)
        }
    }

    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    #[test]
    fn durable_tree_recovers_unflushed_writes_from_the_wal() {
        let dir = TempDir::new("wal-recover");
        let cfg =
            TsbConfig::small_pages().with_split_policy(tsb_common::SplitPolicyKind::TimePreferring);
        let mut stamps = Vec::new();
        {
            let tree = crate::TsbOptions::durable(&dir.0)
                .config(cfg.clone())
                .open_tree()
                .unwrap();
            assert!(tree.is_durable());
            for i in 0..120u64 {
                let ts = tree
                    .insert_shared(i % 12, format!("v{i}").into_bytes())
                    .unwrap();
                stamps.push((i % 12, ts, format!("v{i}").into_bytes()));
            }
            // No flush, no checkpoint: everything durable lives in the WAL.
            // Dropping the tree models a crash of the caches.
        }
        let tree = crate::TsbOptions::durable(&dir.0)
            .config(cfg)
            .open_tree()
            .unwrap();
        let cut = tree
            .last_durable_commit()
            .expect("recovered tree has a cut");
        assert!(cut >= stamps.last().unwrap().1, "every commit was logged");
        for (key, ts, value) in &stamps {
            assert_eq!(
                tree.get_as_of(&Key::from_u64(*key), *ts).unwrap().unwrap(),
                *value,
                "key {key} as of {ts}"
            );
        }
        tree.verify().unwrap();
    }

    #[test]
    fn durable_tree_survives_clean_checkpoint_and_reopen() {
        let dir = TempDir::new("wal-clean");
        let cfg = TsbConfig::small_pages();
        {
            let mut tree = crate::TsbOptions::durable(&dir.0)
                .config(cfg.clone())
                .open_tree()
                .unwrap();
            for i in 0..60u64 {
                tree.insert(i, format!("x{i}").into_bytes()).unwrap();
            }
            tree.checkpoint().unwrap();
        }
        let tree = crate::TsbOptions::durable(&dir.0)
            .config(cfg)
            .open_tree()
            .unwrap();
        for i in 0..60u64 {
            assert_eq!(
                tree.get_current(&Key::from_u64(i)).unwrap().unwrap(),
                format!("x{i}").into_bytes()
            );
        }
        tree.verify().unwrap();
    }

    #[test]
    fn recovery_erases_in_flight_transactions() {
        let dir = TempDir::new("wal-txn");
        let cfg = TsbConfig::small_pages();
        {
            let mut tree = crate::TsbOptions::durable(&dir.0)
                .config(cfg.clone())
                .open_tree()
                .unwrap();
            tree.insert(1u64, b"committed".to_vec()).unwrap();
            let txn = tree.begin_txn();
            tree.txn_insert(txn, 1u64, b"pending-update".to_vec())
                .unwrap();
            tree.txn_insert(txn, 99u64, b"pending-new".to_vec())
                .unwrap();
            // Crash with the transaction still open.
        }
        let tree = crate::TsbOptions::durable(&dir.0)
            .config(cfg)
            .open_tree()
            .unwrap();
        assert_eq!(
            tree.get_current(&Key::from_u64(1)).unwrap().unwrap(),
            b"committed".to_vec()
        );
        assert!(tree.get_current(&Key::from_u64(99)).unwrap().is_none());
        assert!(
            tree.pending_version(&Key::from_u64(1)).unwrap().is_none(),
            "recovery aborts in-flight transactions"
        );
        tree.verify().unwrap();
    }

    #[test]
    fn phantom_deltas_from_a_failed_mutation_never_reach_recovery() {
        // A split can log its triggering delta as a *pending* record and
        // then fail in pure planning or allocation — before any structural
        // write, so the tree is not poisoned and keeps serving. Those
        // deltas describe state the mutation rolled back; the next
        // successful fence must supersede them with a corrective full
        // image, or recovery would replay a change the caller was told
        // failed. This drives the quarantine machinery directly (the
        // failure window itself needs ENOSPC-grade faults to reach).
        let dir = TempDir::new("wal-phantom");
        let cfg = TsbConfig::small_pages();
        {
            let tree = crate::TsbOptions::durable(&dir.0)
                .config(cfg.clone())
                .open_tree()
                .unwrap();
            tree.insert_shared(1u64, b"real".to_vec()).unwrap();
            let page = tree.root_addr().as_page().expect("root is a leaf page");
            assert!(tree.pending_ops_allowed(page), "leaf has a delta base");
            // The failed mutation: a pending delta lands in the log…
            tree.wal_append_ops(
                page,
                vec![PageOp::InsertVersion(tsb_common::Version::committed(
                    99u64,
                    Timestamp(77),
                    b"phantom".to_vec(),
                ))],
            )
            .unwrap();
            // …then the split dies without a structural write.
            tree.quarantine_pending_deltas();
            assert!(
                !tree.pending_ops_allowed(page),
                "a quarantined page loses its delta base"
            );
            // The next successful mutation fences; its corrective image
            // must win over the phantom at replay.
            tree.insert_shared(2u64, b"after".to_vec()).unwrap();
        }
        let tree = crate::TsbOptions::durable(&dir.0)
            .config(cfg)
            .open_tree()
            .unwrap();
        tree.verify().unwrap();
        assert!(
            tree.get_current(&Key::from_u64(99)).unwrap().is_none(),
            "the phantom version must not survive recovery"
        );
        assert_eq!(
            tree.get_current(&Key::from_u64(1)).unwrap().unwrap(),
            b"real".to_vec()
        );
        assert_eq!(
            tree.get_current(&Key::from_u64(2)).unwrap().unwrap(),
            b"after".to_vec()
        );
    }

    #[test]
    fn a_directory_with_nothing_durable_is_recreated() {
        let dir = TempDir::new("wal-fresh");
        let cfg = TsbConfig::small_pages();
        // Simulate a crash during the very first create: a WAL holding only
        // un-fenced page images (no commit, no checkpoint).
        {
            let stats = Arc::new(IoStats::new());
            let wal = Wal::create(dir.0.join(WAL_FILE), cfg.fsync_policy, stats).unwrap();
            wal.append(&WalRecord::PageImage {
                page: PageId(1),
                bytes: vec![1, 2, 3],
            })
            .unwrap();
        }
        let tree = crate::TsbOptions::durable(&dir.0)
            .config(cfg)
            .open_tree()
            .unwrap();
        assert!(tree.get_current(&Key::from_u64(1)).unwrap().is_none());
        tree.verify().unwrap();
    }

    #[test]
    fn create_open_round_trip() {
        let cfg = TsbConfig::small_pages();
        let stats = Arc::new(IoStats::new());
        let magnetic = Arc::new(MagneticStore::in_memory(cfg.page_size, Arc::clone(&stats)));
        let worm = Arc::new(WormStore::in_memory(
            cfg.worm_sector_size,
            Arc::clone(&stats),
        ));

        let root_before;
        {
            let mut tree =
                TsbTree::create(Arc::clone(&magnetic), Arc::clone(&worm), cfg.clone()).unwrap();
            tree.insert(1u64, b"one".to_vec()).unwrap();
            tree.insert(2u64, b"two".to_vec()).unwrap();
            root_before = tree.root_addr();
            tree.flush().unwrap();
        }
        {
            let tree =
                TsbTree::open(Arc::clone(&magnetic), Arc::clone(&worm), cfg.clone()).unwrap();
            assert_eq!(tree.root_addr(), root_before);
            assert_eq!(
                tree.get_current(&Key::from_u64(1)).unwrap().unwrap(),
                b"one".to_vec()
            );
            assert_eq!(
                tree.get_current(&Key::from_u64(2)).unwrap().unwrap(),
                b"two".to_vec()
            );
            // The clock resumes past previously issued timestamps.
            assert!(tree.now() > Timestamp(2));
        }
        // create() refuses a non-empty store.
        assert!(TsbTree::create(magnetic, worm, cfg).is_err());
    }

    #[test]
    fn create_rejects_mismatched_page_size() {
        let cfg = TsbConfig::small_pages();
        let stats = Arc::new(IoStats::new());
        let magnetic = Arc::new(MagneticStore::in_memory(4096, Arc::clone(&stats)));
        let worm = Arc::new(WormStore::in_memory(
            cfg.worm_sector_size,
            Arc::clone(&stats),
        ));
        assert!(TsbTree::create(magnetic, worm, cfg).is_err());
    }

    #[test]
    fn space_and_cost_reflect_the_stores() {
        let mut tree = crate::TsbOptions::in_memory()
            .config(TsbConfig::small_pages())
            .open_tree()
            .unwrap();
        for i in 0..50u64 {
            tree.insert(i, vec![b'v'; 20]).unwrap();
        }
        let space = tree.space();
        assert!(space.magnetic_bytes > 0);
        assert!(tree.storage_cost() > 0.0);
    }

    #[test]
    fn warm_descents_perform_zero_decodes() {
        let cfg = TsbConfig::small_pages().with_node_cache_entries(4096);
        let mut tree = crate::TsbOptions::in_memory()
            .config(cfg)
            .open_tree()
            .unwrap();
        for i in 0..300u64 {
            tree.insert(i % 30, format!("v{i}").into_bytes()).unwrap();
        }
        // First pass warms the cache for every current path.
        for key in 0..30u64 {
            tree.get_current(&Key::from_u64(key)).unwrap();
        }
        let before = tree.io_stats().snapshot();
        for key in 0..30u64 {
            tree.get_current(&Key::from_u64(key)).unwrap();
        }
        let delta = tree.io_stats().snapshot().delta_since(&before);
        assert!(delta.node_cache_hits > 0, "warm reads must hit the cache");
        assert_eq!(delta.node_cache_misses, 0, "every node was already cached");
        assert_eq!(delta.node_decodes, 0, "cache hits perform no decode");
        assert!(
            delta.node_accesses_current >= 30,
            "logical accesses are still counted on hits"
        );
    }

    #[test]
    fn encode_is_deferred_until_flush() {
        // Large pages: no splits, so the root leaf absorbs every insert.
        let mut tree = crate::TsbOptions::in_memory()
            .config(TsbConfig::default())
            .open_tree()
            .unwrap();
        let before = tree.io_stats().snapshot();
        for i in 0..20u64 {
            tree.insert(i, vec![b'x'; 16]).unwrap();
        }
        let delta = tree.io_stats().snapshot().delta_since(&before);
        assert_eq!(
            delta.node_encodes, 0,
            "20 rewrites of the hot leaf must not encode until flush"
        );
        tree.flush().unwrap();
        let delta = tree.io_stats().snapshot().delta_since(&before);
        assert_eq!(delta.node_encodes, 1, "flush encodes the leaf exactly once");
    }

    #[test]
    fn a_poisoned_tree_refuses_reads_and_writes() {
        let mut tree = crate::TsbOptions::in_memory()
            .config(TsbConfig::small_pages())
            .open_tree()
            .unwrap();
        tree.insert(1u64, b"v".to_vec()).unwrap();
        // Simulate a structural mutation failing part-way through (only
        // reachable through file-backed I/O errors in production).
        tree.note_structural_write();
        tree.settle_structure_after(true);
        assert!(tree.get_current(&Key::from_u64(1)).is_err());
        assert!(tree.insert(2u64, b"w".to_vec()).is_err());
        // A clean failure outside a structural window does not poison.
        let tree = crate::TsbOptions::in_memory()
            .config(TsbConfig::small_pages())
            .open_tree()
            .unwrap();
        tree.settle_structure_after(true);
        assert!(tree.get_current(&Key::from_u64(1)).is_ok());
    }

    #[test]
    fn dirty_residency_is_bounded_without_explicit_flush() {
        // KeyOnly: no WORM migration, so every node encode in this run can
        // only come from the dirty-overflow write-back. A long unflushed
        // insert run must not let deferred encodes pile up past the cache
        // capacity — the overflow path drains them as it goes.
        let cfg = TsbConfig::small_pages()
            .with_node_cache_entries(64)
            .with_split_policy(tsb_common::SplitPolicyKind::KeyOnly);
        let mut tree = crate::TsbOptions::in_memory()
            .config(cfg)
            .open_tree()
            .unwrap();
        let before = tree.io_stats().snapshot();
        for i in 0..2000u64 {
            tree.insert(i, vec![b'v'; 24]).unwrap();
        }
        let delta = tree.io_stats().snapshot().delta_since(&before);
        assert_eq!(delta.worm_appends, 0, "KeyOnly must not migrate");
        assert!(
            delta.node_encodes > 0,
            "dirty overflow write-back never fired across 2000 unflushed inserts"
        );
        tree.verify().unwrap();
        tree.verify_cache_coherence().unwrap();
        // Nothing was lost to the early write-backs.
        for i in (0..2000u64).step_by(97) {
            assert!(tree.get_current(&Key::from_u64(i)).unwrap().is_some());
        }
    }

    #[test]
    fn bypass_reads_and_cache_invalidation_agree_with_the_cache() {
        let cfg = TsbConfig::small_pages();
        let mut tree = crate::TsbOptions::in_memory()
            .config(cfg)
            .open_tree()
            .unwrap();
        for i in 0..300u64 {
            tree.insert(i % 25, format!("value-{i}").into_bytes())
                .unwrap();
        }
        tree.verify_cache_coherence().unwrap();

        // A bypass read of the root decodes the same node the cache holds.
        let via_cache = tree.read_node(tree.root_addr()).unwrap();
        let via_device = tree.read_node_bypass(tree.root_addr()).unwrap();
        assert_eq!(*via_cache, via_device);

        // Invalidation forces a re-decode, which still agrees.
        tree.invalidate_cached_node(tree.root_addr()).unwrap();
        let before = tree.io_stats().snapshot();
        let reread = tree.read_node(tree.root_addr()).unwrap();
        let delta = tree.io_stats().snapshot().delta_since(&before);
        assert_eq!(delta.node_cache_misses, 1);
        assert_eq!(*reread, via_device);

        // Dropping every cache cold-starts reads without losing anything.
        tree.drop_caches().unwrap();
        let before = tree.io_stats().snapshot();
        for key in 0..25u64 {
            assert!(tree.get_current(&Key::from_u64(key)).unwrap().is_some());
        }
        let delta = tree.io_stats().snapshot().delta_since(&before);
        assert!(delta.node_decodes > 0, "cold reads decode again");
        tree.verify_cache_coherence().unwrap();
    }

    #[test]
    fn persistence_survives_deferred_encodes() {
        let cfg = TsbConfig::small_pages();
        let stats = Arc::new(IoStats::new());
        let magnetic = Arc::new(MagneticStore::in_memory(cfg.page_size, Arc::clone(&stats)));
        let worm = Arc::new(WormStore::in_memory(
            cfg.worm_sector_size,
            Arc::clone(&stats),
        ));
        {
            let mut tree =
                TsbTree::create(Arc::clone(&magnetic), Arc::clone(&worm), cfg.clone()).unwrap();
            for i in 0..200u64 {
                tree.insert(i % 20, format!("gen-{i}").into_bytes())
                    .unwrap();
            }
            tree.flush().unwrap();
        }
        // A reopened tree (fresh, empty caches) sees every write.
        let tree = TsbTree::open(magnetic, worm, cfg).unwrap();
        for key in 0..20u64 {
            let got = tree.get_current(&Key::from_u64(key)).unwrap().unwrap();
            assert_eq!(got, format!("gen-{}", 180 + key).into_bytes());
        }
        tree.verify().unwrap();
    }
}
