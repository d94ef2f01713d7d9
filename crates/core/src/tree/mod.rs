//! The Time-Split B-tree proper: the tree handle, its constructors, and
//! the state every operation shares (root latch, structure epoch, poison
//! flag).
//!
//! Sub-modules implement the operations:
//!
//! * `search` — point lookups (current and as-of),
//! * `scan` — range scans, snapshots, version histories,
//! * `insert` — insertion, update, logical deletion, and the
//!   split/migration machinery,
//! * `node_io` — how a node travels between the caches and the devices,
//!   and the metadata encoding the log's fences carry,
//! * `durability` — the write-ahead-log half of the write path: a tree's
//!   seat on a log it may share with other shards, fences, commit
//!   acknowledgement,
//! * `replay` — how a logged page record re-applies to a page: the page
//!   rule,
//! * `recover` — what the log means on reopen: the fence rule, the replay
//!   cut, and the two recoveries built on them.
//!
//! Transactions live in `txn.rs`, secondary indexes in
//! [`crate::secondary`], statistics in [`crate::stats`], and the structural
//! verifier in [`crate::verify`].

pub(crate) mod durability;
mod history;
mod insert;
mod node_io;
pub(crate) mod recover;
pub(crate) mod replay;
mod scan;
mod search;

use std::collections::HashSet;
use std::ops::Deref;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::{Mutex, RwLock};

use tsb_common::{LogicalClock, Timestamp, TsbConfig, TsbError, TsbResult};
use tsb_storage::{FaultInjector, IoStats, MagneticStore, PageId, Wal, WormStore};

use crate::cache::NodeCache;
use crate::node::{DataNode, Node, NodeAddr};
use crate::txn::TxnTable;
use durability::{Durability, LogSeat};

/// The Time-Split B-tree: a single integrated index over a multiversion
/// database whose current part lives on an erasable store and whose
/// historical part lives on a write-once store.
///
/// Every operation takes `&self`: the tree's mutable state sits behind
/// locks and atomics, under the invariant that **at most one mutation runs
/// at a time**. Each shard of a [`crate::ShardedTsb`] enforces that
/// invariant with a writer lock and may run any number of readers
/// concurrently (see the module docs of [`crate::sharded`]). A mutation
/// returns, beside its result, the log position its commit must be durable
/// through before it is acknowledged; the shard waits on it only after its
/// writer lock drops.
///
/// Outside this crate a tree answers one question, its census
/// ([`TsbTree::tree_stats`]): every read and write goes through a
/// [`crate::ShardedTsb`], and [`crate::TsbOptions::open_tree`] reads back a
/// directory one wrote — its one tree, or one `shard-NNN` directory's.
/// [`crate::ShardedTsb::tree_stats`] is the same census of a live engine.
/// A tree's state — root, clock, transaction counter — is written to its
/// redo log's fences and nowhere else, so it reopens only through
/// recovery.
///
/// ```
/// use tsb_core::{EngineHandle, Key, TsbOptions};
///
/// let dir = std::env::temp_dir().join(format!("tsb-doc-tree-{}", std::process::id()));
/// let db = TsbOptions::durable(&dir).open()?;
/// db.insert(Key::from("acct-1"), b"balance=100".to_vec())?;
/// db.insert(Key::from("acct-1"), b"balance=250".to_vec())?;
/// drop(db);
///
/// // The engine's one shard, read back as a bare tree: both versions are
/// // stored (rollback database), one of them live.
/// let stats = TsbOptions::durable(&dir).open_tree()?.tree_stats()?;
/// assert_eq!(stats.distinct_versions, 2);
/// assert_eq!(stats.live_versions, 1);
/// # std::fs::remove_dir_all(&dir).ok();
/// # Ok::<(), tsb_core::TsbError>(())
/// ```
pub struct TsbTree {
    pub(crate) cfg: TsbConfig,
    pub(crate) magnetic: Arc<MagneticStore>,
    pub(crate) cache: NodeCache,
    pub(crate) worm: Arc<WormStore>,
    pub(crate) stats: Arc<IoStats>,
    /// The commit clock. Normally private to this tree; a sharded engine
    /// shares one clock across every shard (`Arc`) so commit timestamps
    /// form a single global order.
    pub(crate) clock: Arc<LogicalClock>,
    /// The root pointer, behind a short-latch lock: readers copy it out at
    /// the top of each descent, the (single) writer replaces it when the
    /// root splits.
    pub(crate) root: RwLock<NodeAddr>,
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
    pub(crate) poisoned: AtomicBool,
    /// Write-ahead log state; `None` for non-durable trees.
    pub(crate) durability: Option<Durability>,
    /// The reference log mode the shipped one is tested against: every
    /// rewrite logs a full page image, never a delta. Only
    /// [`crate::TsbOptions::reference_image_log`] sets it.
    pub(crate) log_images_only: bool,
    /// Set by recovery: the commit timestamp of the newest mutation the
    /// recovered tree contains (the replay *cut*). `None` on trees that
    /// were not produced by recovery.
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
    /// consistent multi-node view (the shards of a [`crate::ShardedTsb`]) sample
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
    /// from a caller-supplied (possibly shared) clock. Reached through
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

    /// A fresh tree over empty stores, sitting on `seat` when durable. The
    /// caller fences it with a checkpoint — alone, or with the other
    /// shards of its log ([`durability::checkpoint_log`]).
    pub(crate) fn create_with(
        magnetic: Arc<MagneticStore>,
        worm: Arc<WormStore>,
        cfg: TsbConfig,
        seat: Option<LogSeat>,
        clock: Arc<LogicalClock>,
    ) -> TsbResult<Self> {
        cfg.validate()?;
        if magnetic.allocated_pages() != 0 {
            return Err(TsbError::config(
                "a new tree requires an empty magnetic store",
            ));
        }
        if magnetic.page_size() != cfg.page_size {
            return Err(TsbError::config(format!(
                "magnetic store page size {} does not match config page size {}",
                magnetic.page_size(),
                cfg.page_size
            )));
        }
        let root_page = magnetic.allocate()?;
        let root = NodeAddr::Current(root_page);
        let tree = Self::assemble(magnetic, worm, cfg, clock, (root, 1), seat, None);
        let root_node = DataNode::initial_root();
        tree.write_current(root_page, Node::Data(root_node))?;
        Ok(tree)
    }

    /// Builds the tree value over opened stores — every constructor and
    /// both recoveries end here. `(root, next_txn)` and the clock say where
    /// the tree stands; a log seat makes it durable ([`Durability`]);
    /// `recovered_to` is the replay cut of a tree born from recovery.
    fn assemble(
        magnetic: Arc<MagneticStore>,
        worm: Arc<WormStore>,
        cfg: TsbConfig,
        clock: Arc<LogicalClock>,
        (root, next_txn): (NodeAddr, u64),
        seat: Option<LogSeat>,
        recovered_to: Option<Timestamp>,
    ) -> TsbTree {
        let durability = seat.map(Durability::new);
        TsbTree {
            stats: Arc::clone(magnetic.stats()),
            cache: NodeCache::sharded(cfg.node_cache_entries),
            cfg,
            magnetic,
            worm,
            clock,
            root: RwLock::new(root),
            txns: Mutex::new(TxnTable::starting_at(next_txn)),
            marked_for_time_split: Mutex::new(HashSet::new()),
            poisoned: AtomicBool::new(false),
            durability,
            log_images_only: false,
            recovered_to,
            structure_seq: AtomicU64::new(0),
        }
    }

    /// The redo log handle, for replication: the source's tailer and a
    /// replica's local record appends and syncs (`None` on non-durable
    /// trees).
    pub(crate) fn wal_handle(&self) -> Option<Arc<Wal>> {
        self.durability.as_ref().map(|d| Arc::clone(&d.wal))
    }

    /// The tree configuration.
    pub(crate) fn config(&self) -> &TsbConfig {
        &self.cfg
    }

    /// The shared I/O statistics counters.
    pub(crate) fn io_stats(&self) -> &Arc<IoStats> {
        &self.stats
    }

    /// Wires `injector` into every device this tree writes — the magnetic
    /// store, the WORM store, and (when durable) the WAL — so crash tests
    /// can kill a fully assembled engine at any instrumented write site.
    /// Sharded crash tests install one injector across every shard, making
    /// a crash anywhere inside a cross-shard commit a single armed trigger.
    pub(crate) fn set_fault_injector(&self, injector: &Arc<FaultInjector>) {
        self.magnetic.set_fault_injector(Arc::clone(injector));
        self.worm.set_fault_injector(Arc::clone(injector));
        if let Some(d) = &self.durability {
            d.wal.set_fault_injector(Arc::clone(injector));
        }
    }

    /// The current logical time (the timestamp the next commit would get).
    pub(crate) fn now(&self) -> Timestamp {
        self.clock.now()
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

    /// The device half of a checkpoint ([`checkpoint_log`]): every dirty
    /// node written back, both devices synced.
    pub(crate) fn flush_devices(&self) -> TsbResult<()> {
        self.flush_node_cache()?;
        self.magnetic.sync()?;
        self.worm.sync()
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
mod tests;
