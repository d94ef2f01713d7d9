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
//!   and the metadata page,
//! * `durability` — the write-ahead-log half of the write path: fences,
//!   the phantom quarantine, commit acknowledgement,
//! * `replay` — how a logged page record re-applies to a page: the page
//!   rule,
//! * `recover` — what the log means on reopen: the fence rule, the replay
//!   cut, and the two recoveries built on them.
//!
//! Transactions live in [`crate::txn`], secondary indexes in
//! [`crate::secondary`], statistics in [`crate::stats`], and the structural
//! verifier in [`crate::verify`].

mod durability;
pub mod history;
pub mod insert;
mod node_io;
pub(crate) mod recover;
pub(crate) mod replay;
pub mod scan;
pub mod search;

use std::collections::HashSet;
use std::ops::Deref;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::{Mutex, RwLock};

use tsb_common::{LogicalClock, Timestamp, TsbConfig, TsbError, TsbResult};
use tsb_storage::{
    CostModel, FaultInjector, IoStats, MagneticStore, PageId, SpaceSnapshot, Wal, WormStore,
};

use crate::cache::NodeCache;
use crate::node::{DataNode, Node, NodeAddr};
use crate::txn::TxnTable;
use durability::Durability;

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
    /// instant. [`crate::TsbOptions::open_tree`] is the directory-based
    /// door, and the one that reopens after a crash.
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
        Self::check_page_size(&magnetic, &cfg)?;
        // The metadata page must be the lowest page id (see `assemble`).
        magnetic.allocate()?;
        let root_page = magnetic.allocate()?;
        let root = NodeAddr::Current(root_page);
        let tree = Self::assemble(magnetic, worm, cfg, clock, (root, 1), wal, None)?;
        let root_node = DataNode::initial_root();
        tree.write_current(root_page, Node::Data(root_node))?;
        tree.write_meta()?;
        Ok(tree)
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
        Self::check_page_size(&magnetic, &cfg)?;
        let meta_bytes = magnetic.read(Self::meta_page_of(&magnetic)?)?;
        let (root, clock_next, next_txn) = Self::decode_meta(&meta_bytes)?;
        let clock = Arc::new(LogicalClock::starting_at(clock_next));
        Self::assemble(magnetic, worm, cfg, clock, (root, next_txn), None, None)
    }

    /// The metadata page: by construction the lowest allocated page id.
    fn meta_page_of(magnetic: &MagneticStore) -> TsbResult<PageId> {
        magnetic
            .allocated_page_ids()
            .into_iter()
            .min()
            .ok_or_else(|| TsbError::corruption("the magnetic store holds no pages"))
    }

    fn check_page_size(magnetic: &MagneticStore, cfg: &TsbConfig) -> TsbResult<()> {
        if magnetic.page_size() != cfg.page_size {
            return Err(TsbError::config(format!(
                "magnetic store page size {} does not match config page size {}",
                magnetic.page_size(),
                cfg.page_size
            )));
        }
        Ok(())
    }

    /// Builds the tree value over opened stores — every constructor and
    /// both recoveries end here. `(root, next_txn)` and the clock say where
    /// the tree stands; `wal` makes it durable ([`Durability`]);
    /// `recovered_to` is the replay cut of a tree born from recovery.
    fn assemble(
        magnetic: Arc<MagneticStore>,
        worm: Arc<WormStore>,
        cfg: TsbConfig,
        clock: Arc<LogicalClock>,
        (root, next_txn): (NodeAddr, u64),
        wal: Option<Wal>,
        recovered_to: Option<Timestamp>,
    ) -> TsbResult<TsbTree> {
        let meta_page = Self::meta_page_of(&magnetic)?;
        let durability = wal.map(|wal| Self::attach_wal(wal, &worm));
        Ok(TsbTree {
            stats: Arc::clone(magnetic.stats()),
            cache: NodeCache::sharded(cfg.node_cache_entries),
            cost: CostModel::new(cfg.cost),
            cfg,
            magnetic,
            worm,
            clock,
            root: RwLock::new(root),
            meta_page,
            txns: Mutex::new(TxnTable::starting_at(next_txn)),
            marked_for_time_split: Mutex::new(HashSet::new()),
            poisoned: AtomicBool::new(false),
            durability,
            log_images_only: false,
            recovered_to,
            structure_seq: AtomicU64::new(0),
        })
    }

    // ----- replication (replica side) -------------------------------------

    /// Installs a shipped page image onto the replica's magnetic device and
    /// invalidates its cached node. Order matters against concurrent
    /// readers: device first, then the node cache — a racing fill that
    /// decoded stale bytes began before the cache discard bumped the shard
    /// stamp, so `complete_fill` refuses to install it. Caller must hold
    /// the writer lock with the structure epoch marked in flight.
    pub(crate) fn replica_install_page(&self, page: PageId, bytes: &[u8]) -> TsbResult<()> {
        self.magnetic.restore(page, bytes)?;
        self.cache.discard(NodeAddr::Current(page));
        Ok(())
    }

    /// Installs a shipped fence's metadata: the root pointer, the commit
    /// clock, and the transaction counter. The metadata page is left alone:
    /// a replica restarts from its log, whose fences carry the same state.
    /// Caller must hold the writer lock with the structure epoch marked in
    /// flight.
    pub(crate) fn replica_install_meta(&self, (root, clock_next, next_txn): recover::FenceState) {
        *self.root.write() = root;
        self.clock.advance_to(clock_next);
        *self.txns.lock() = TxnTable::starting_at(next_txn);
    }

    /// The device image of a current page — the base a shipped delta
    /// applies to when the apply overlay holds no newer state for the page
    /// (the page's first-touch image predates the replica's local log
    /// generation; the device equals the state at the last installed
    /// fence).
    pub(crate) fn replica_read_page(&self, page: PageId) -> TsbResult<replay::ReplayPage> {
        self.magnetic.read(page).map(replay::ReplayPage::Raw)
    }

    /// Syncs the replica's device stores so a primary checkpoint record
    /// can become a sound local recovery base: local restart replays from
    /// the newest checkpoint assuming the device equals that state.
    pub(crate) fn replica_sync_devices(&self) -> TsbResult<()> {
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

    /// Flushes dirty nodes, the metadata page, and both devices. On a
    /// durable tree this is a full **checkpoint**: once the devices are
    /// synced, a checkpoint record fences the redo log, so the next
    /// recovery replays nothing that precedes this call.
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
    /// encoded and written, and both devices synced. A crash
    /// anywhere inside this sequence leaves the log without the new
    /// checkpoint, so recovery replays from the previous fence — and
    /// because every page image since that fence is in the log, replay
    /// overwrites whatever subset of the flush had landed.
    pub(crate) fn flush_shared(&self) -> TsbResult<()> {
        self.write_meta()?;
        self.flush_node_cache()?;
        self.magnetic.sync()?;
        self.worm.sync()?;
        self.wal_checkpoint()
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
