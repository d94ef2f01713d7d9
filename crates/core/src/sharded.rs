//! N-way keyspace partitioning under one global commit clock and one
//! redo log.
//!
//! [`ShardedTsb`] splits the keyspace across `N` shards by a stable hash
//! of the key. Each shard owns its writer lock, install fence, node cache,
//! devices and tree — one writer and many lock-free readers per shard (the
//! protocol is in `concurrent.rs`) — so `N` writers touching `N` different shards
//! mutate in parallel: the per-engine writer lock stops being a global
//! serialization point. What the shards share is *time* and the *log*.
//! Every shard stamps its commits from one [`LogicalClock`], so commit
//! timestamps form a single total order across the keyspace and a
//! snapshot pinned at timestamp `T` means the same instant on every shard.
//! And every shard appends to one redo log — one append buffer, one
//! fsync, run by whichever waiter finds none on the device — tagging its
//! records with its shard, so a batch of commits over every shard is made
//! durable by one sync.
//!
//! ## Routing
//!
//! A key routes to shard `fnv1a64(key_bytes) % N`. The hash is a pure
//! function of the key bytes and the shard count — no routing table, no
//! rebalancing state — so the partition is trivially stable across reopen
//! as long as `N` is stable. `N` is therefore persisted in a
//! `shards.manifest` file at create time, and reopening with a different
//! `--shards` value is a hard error rather than a silent re-partition
//! (which would strand every key on the wrong shard).
//!
//! ## Layout
//!
//! One shard without a manifest lives directly in its directory
//! (`redo.wal`, `current.pages`, `history.worm`), byte-identical to a bare
//! tree's. `N > 1` shards keep `redo.wal` and the manifest (layout v2) in
//! the directory and each shard's two stores in `shard-NNN/`. A directory
//! of the first sharded layout (manifest v1, a log per shard) is refused
//! with [`TsbError::OldLayout`] before anything in it is touched.
//!
//! ## Snapshot consistency
//!
//! [`ShardedTsb::begin_snapshot`] pins the newest ticked timestamp `T` and
//! then raises every shard's install fence to at least `T`
//! (the shard's `pin_fence_at_least`). Raising the fence takes the
//! shard's writer lock when the shard is behind — and because commit
//! timestamps are ticked *under* that lock, holding it proves no mutation
//! with a timestamp `≤ T` is still mid-install on that shard. After the
//! pin, reads at `T` are stable on every shard simultaneously: the
//! snapshot can never observe shard A after a commit and shard B before
//! it.
//!
//! ## Cross-shard transactions: one fence
//!
//! A transaction whose writes all land on one shard commits exactly like a
//! plain single-engine transaction — one commit record, zero cross-shard
//! coordination. A transaction straddling shards commits as one fence on
//! the shared log (§4: every version a transaction writes carries the one
//! commit time it gets at commit):
//!
//! ```text
//!  lock writers of every participant (ascending shard order)
//!  T = clock.tick()
//!  each participant stamps its writes committed at T (page records
//!    under its own shard tag, no fence)
//!  append ShardCommit{T, (shard, worm_len, meta) per participant}
//!  advance every participant's install fence to T
//!  unlock; hand back the fence's position to wait on, as a put does
//! ```
//!
//! Recovery cuts the log once, and a shard replays its records only up to
//! its last fence before the cut. The `ShardCommit` is one record: it is
//! before the cut for every participant or for none, so a crash at any
//! instant commits the transaction on every shard or erases its
//! uncommitted writes from every shard (recovery's implicit abort). The
//! commit is acknowledged once its position is durable, so it joins the
//! caller's group commit like any other write instead of forcing the log
//! on the writer's path. Holding every participant's writer lock across
//! the stamps and the append keeps a checkpoint (which takes every lock)
//! and a pinned snapshot from landing between them.
//!
//! The commit's wait is the transaction's only one: a `txn_insert`,
//! `txn_delete` or `abort_txn` returns once applied under its shard's
//! writer lock. Its version carries no timestamp and the commit's fence
//! follows it on the one log, so until that fence is durable a crash
//! erases it, even if another force carried it to disk.
//!
//! ## Replicas
//!
//! A replica is a `ShardedTsb` too, whose one writer is the log applier
//! (see [`crate::replica`]): every write verb answers
//! [`TsbError::ReadOnly`] until [`ShardedTsb::promote`] stops applying.

use std::collections::HashMap;
use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use tsb_common::{
    Key, KeyRange, LogicalClock, TimeRange, Timestamp, TsbConfig, TsbError, TsbResult, TxnId,
    Version,
};
use tsb_storage::{sync_parent_dir, FaultInjector, IoSnapshot, Lsn, Wal};

use crate::concurrent::Shard;
use crate::engine::{EngineHandle, EngineRole};
use crate::epoch::{read_epoch, INITIAL_EPOCH};
use crate::replica::{not_serving, Replica, ReplicaStatus, ReplicationSource};
use crate::stats::TreeStats;
use crate::tree::durability::{checkpoint_log, commit_across};
use crate::tree::recover::{DurableFiles, Layout};
use crate::tree::TsbTree;

/// Name of the shard-count manifest inside a sharded data directory.
const MANIFEST_FILE: &str = "shards.manifest";
/// First line of the manifest; bumping the layout bumps the version.
const MANIFEST_MAGIC: &str = "tsb-sharded v2";
/// The first sharded layout's manifest: a log per shard, refused.
const MANIFEST_MAGIC_V1: &str = "tsb-sharded v1";
/// Upper bound on the shard count — far above any sensible value, it only
/// guards against a corrupt manifest or a typo'd `--shards`.
const MAX_SHARDS: usize = 256;

/// A deferred durability obligation: the [`Lsn`] on the engine's one log
/// to pass to [`EngineHandle::wait_durable`] before acknowledging the
/// write. A name kept for the callers that import it.
pub type ShardLsn = Lsn;

/// FNV-1a 64-bit over the key bytes: the routing hash. Stable by
/// construction — it depends on nothing but the bytes.
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// A cross-shard transaction's bookkeeping: which participant shards it
/// touched and the shard-local transaction id begun on each.
struct GlobalTxnTable {
    /// Next global transaction id to hand out. Global ids live in their
    /// own namespace — they never reach a shard's transaction table.
    next: u64,
    /// Global id → per-shard local transaction id (lazily begun on the
    /// first write routed to that shard).
    active: HashMap<TxnId, Vec<Option<TxnId>>>,
}

struct ShardedInner {
    /// Empty only on a replica awaiting its first base image.
    shards: Vec<Shard>,
    clock: Arc<LogicalClock>,
    txns: Mutex<GlobalTxnTable>,
    cfg: TsbConfig,
    /// The one log every shard appends to; `None` in memory, and on a
    /// replica awaiting its first base image.
    wal: Option<Arc<Wal>>,
    /// The promotion epoch (see [`crate::epoch`]): the directory's when
    /// opened, bumped in place by a promotion.
    epoch: AtomicU64,
    /// Present on an engine opened as a replica, applying or promoted.
    replica: Option<Replica>,
}

/// An `N`-shard TSB-tree engine under one global commit clock and one
/// redo log. Cheaply cloneable handle; clones share the shards. See the
/// [module docs](self) for the routing, snapshot, and cross-shard commit
/// protocols.
#[derive(Clone)]
pub struct ShardedTsb {
    inner: Arc<ShardedInner>,
}

const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<ShardedTsb>();
    assert_send_sync::<ShardedSnapshot>();
};

impl std::fmt::Debug for ShardedTsb {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedTsb")
            .field("shards", &self.inner.shards.len())
            .field("now", &self.inner.clock.now())
            .finish()
    }
}

impl ShardedTsb {
    // ----- construction ---------------------------------------------------

    /// The engine over `shards` stamping from `clock` at promotion
    /// `epoch`, a replica when `replica` is given.
    pub(crate) fn from_parts(
        shards: Vec<Shard>,
        clock: Arc<LogicalClock>,
        cfg: TsbConfig,
        replica: Option<Replica>,
        epoch: u64,
    ) -> Self {
        let wal = shards.first().and_then(|s| s.tree().wal_handle());
        ShardedTsb {
            inner: Arc::new(ShardedInner {
                shards,
                clock,
                txns: Mutex::new(GlobalTxnTable {
                    next: 0,
                    active: HashMap::new(),
                }),
                cfg,
                wal,
                epoch: AtomicU64::new(epoch),
                replica,
            }),
        }
    }

    /// A fresh sharded engine over in-memory stores: `shards` independent
    /// engines stamping from one clock. No durability. Reached through
    /// [`crate::TsbOptions::open`].
    pub(crate) fn open_in_memory(shards: usize, cfg: TsbConfig) -> TsbResult<Self> {
        check_shard_count(shards)?;
        let clock = Arc::new(LogicalClock::new());
        let mut engines = Vec::with_capacity(shards);
        for _ in 0..shards {
            let tree = TsbTree::new_in_memory_with_clock(cfg.clone(), Arc::clone(&clock))?;
            engines.push(Shard::from_tree(tree));
        }
        Ok(Self::from_parts(engines, clock, cfg, None, INITIAL_EPOCH))
    }

    /// Opens (or creates) a durable sharded engine rooted at `dir`.
    /// Reached through [`crate::TsbOptions::open`].
    ///
    /// * `shards == 1` with no manifest uses the flat single-engine layout
    ///   (`current.pages` / `history.worm` / `redo.wal` directly in `dir`),
    ///   so a 1-shard engine is byte-identical on disk to a bare tree.
    /// * `shards > 1` writes a `shards.manifest` and lays each shard's
    ///   stores out in its own `shard-NNN/` subdirectory, beside the one
    ///   `redo.wal` every shard appends to.
    /// * Reopening with a shard count that contradicts the manifest (or a
    ///   flat directory with `shards > 1`) is a hard error: the hash
    ///   partition is only stable while `N` is. A directory of the first
    ///   sharded layout is [`TsbError::OldLayout`].
    ///
    /// Every shard count runs the same recovery over the one log: one cut,
    /// each shard replayed to its own last fence before it, and the global
    /// clock re-derived as the maximum across every shard's recovered
    /// clock — see [`crate::tree::recover`]. The engine serves at the
    /// directory's promotion epoch.
    pub(crate) fn open_durable(dir: &Path, shards: usize, cfg: TsbConfig) -> TsbResult<Self> {
        let epoch = read_epoch(dir)?;
        let layout = layout(dir, shards)?;
        let clock = Arc::new(LogicalClock::new());
        let trees = TsbTree::open_durable(&layout, &cfg, &clock)?;
        let engines = trees.into_iter().map(Shard::from_tree).collect();
        Ok(Self::from_parts(engines, clock, cfg, None, epoch))
    }

    /// Puts every shard of a freshly opened, unshared engine in the
    /// reference log mode of [`crate::TsbOptions::reference_image_log`].
    pub(crate) fn log_images_only(&mut self) {
        let inner = Arc::get_mut(&mut self.inner).expect("a freshly opened engine is unshared");
        for shard in &mut inner.shards {
            shard.tree_mut().log_images_only = true;
        }
    }

    /// Opens the durable tree at `dir` on its own: a flat directory's one
    /// tree, or — when `dir` is the `shard-NNN` directory of a sharded
    /// engine — that shard's tree, recovered with its engine (the shards
    /// share one log) and kept on its seat there, so what it logs stays
    /// the shard's. Reached through [`crate::TsbOptions::open_tree`].
    pub(crate) fn open_tree(dir: &Path, cfg: TsbConfig) -> TsbResult<TsbTree> {
        let sharded = match (dir.parent(), Layout::shard_index(dir)) {
            (Some(parent), Some(index)) => read_manifest(parent)?.map(|n| (parent, n, index)),
            _ => None,
        };
        let (root, shards, index) = sharded.unwrap_or((dir, 1, 0));
        let db = Self::open_durable(root, shards, cfg)?;
        let unique = Arc::try_unwrap(db.inner).ok();
        let shard = unique.and_then(|inner| inner.shards.into_iter().nth(index));
        shard.map(Shard::into_tree).ok_or_else(|| {
            TsbError::config(format!(
                "{} is not a shard of the engine in {}",
                dir.display(),
                root.display()
            ))
        })
    }

    // ----- routing --------------------------------------------------------

    /// The shard `key` routes to: `fnv1a64(key_bytes) % N`. A pure
    /// function of the key bytes and the shard count — every key maps to
    /// exactly one shard, identically before and after reopen.
    pub fn shard_of(&self, key: &Key) -> usize {
        shard_of(key, self.inner.shards.len())
    }

    /// The shards, in shard order.
    pub(crate) fn shards(&self) -> &[Shard] {
        &self.inner.shards
    }

    /// The one log every shard appends to (`None` in memory, and while a
    /// replica awaits its base).
    pub(crate) fn wal(&self) -> Option<&Arc<Wal>> {
        self.inner.wal.as_ref()
    }

    /// Sets the promotion epoch in memory, once the directory holds it.
    pub(crate) fn set_epoch(&self, epoch: u64) {
        self.inner.epoch.store(epoch, Ordering::SeqCst);
    }

    /// The shard `key` routes to; none while a replica awaits its base.
    fn shard_for(&self, key: &Key) -> TsbResult<&Shard> {
        self.inner
            .shards
            .get(self.shard_of(key))
            .ok_or_else(not_serving)
    }

    /// Every shard, for a read that spans them; none while a replica
    /// awaits its base.
    fn serving_shards(&self) -> TsbResult<&[Shard]> {
        match self.inner.shards.as_slice() {
            [] => Err(not_serving()),
            shards => Ok(shards),
        }
    }

    /// The replica half of an engine opened as a replica, until promoted.
    pub(crate) fn replica(&self) -> Option<&Replica> {
        self.inner.replica.as_ref().filter(|r| r.is_applying())
    }

    /// Whether this engine applies a shipped log: a replica not promoted.
    pub(crate) fn is_replica(&self) -> bool {
        self.replica().is_some()
    }

    /// Refuses a write verb on a replica: its one writer is the applier.
    fn writable(&self) -> TsbResult<()> {
        if self.is_replica() {
            return Err(TsbError::ReadOnly);
        }
        Ok(())
    }

    /// Runs `f` over every shard's tree with every writer lock held, taken
    /// in ascending order (as a cross-shard commit takes its
    /// participants'): no mutation runs anywhere meanwhile.
    pub(crate) fn with_every_writer<T>(&self, f: impl FnOnce(&[&TsbTree]) -> T) -> T {
        let shards = &self.inner.shards;
        let _guards: Vec<_> = shards.iter().map(|s| s.lock_writer()).collect();
        let trees: Vec<&TsbTree> = shards.iter().map(|s| s.tree()).collect();
        f(&trees)
    }

    // ----- transaction plumbing -------------------------------------------

    /// The shard-local transaction on `shard`, begun on first use.
    fn local_txn(&self, txn: TxnId, shard: usize) -> TsbResult<TxnId> {
        let mut t = self.inner.txns.lock();
        let slots = t.active.get_mut(&txn).ok_or_else(|| unknown_txn(txn))?;
        if let Some(local) = slots[shard] {
            return Ok(local);
        }
        let db = &self.inner.shards[shard];
        let local = {
            let _writer = db.lock_writer();
            db.tree().begin_txn()
        };
        slots[shard] = Some(local);
        Ok(local)
    }

    /// Takes a transaction's participant list out of the table: the
    /// `(shard, local txn)` pairs in ascending shard order.
    fn take_participants(&self, txn: TxnId) -> TsbResult<Vec<(usize, TxnId)>> {
        let slots = self.inner.txns.lock().active.remove(&txn);
        Ok(slots
            .ok_or_else(|| unknown_txn(txn))?
            .into_iter()
            .enumerate()
            .filter_map(|(i, local)| local.map(|l| (i, l)))
            .collect())
    }

    /// The cross-shard commit (see the [module docs](self)). `parts` is
    /// ascending by shard index; locks are acquired in that order (a
    /// global order, so concurrent cross-shard commits and checkpoints
    /// cannot deadlock). Any failure after the first stamp poisons every
    /// participant: a stamped shard must never fence the stamps alone.
    fn commit_cross_shard(&self, parts: &[(usize, TxnId)]) -> TsbResult<(Timestamp, Option<Lsn>)> {
        let shards = &self.inner.shards;
        let _guards: Vec<_> = parts
            .iter()
            .map(|(i, _)| shards[*i].lock_writer())
            .collect();
        let ts = self.inner.clock.tick();
        let trees: Vec<&TsbTree> = parts.iter().map(|(i, _)| shards[*i].tree()).collect();
        let fenced = parts
            .iter()
            .zip(&trees)
            .try_for_each(|((_, local), tree)| tree.stamp_txn(*local, ts, || Ok(())))
            .and_then(|()| commit_across(&trees, ts));
        let wait = fenced.inspect_err(|_| trees.iter().for_each(|t| t.poison()))?;
        for (i, _) in parts {
            shards[*i].advance_fence(ts);
        }
        Ok((ts, wait))
    }

    // ----- reads beyond the engine verbs ----------------------------------

    /// The full version record governing `(key, ts)`.
    pub fn get_version_as_of(&self, key: &Key, ts: Timestamp) -> TsbResult<Option<Version>> {
        self.shard_for(key)?.read(|t| t.get_version_as_of(key, ts))
    }

    /// Every committed version of `key`, oldest first.
    pub fn versions(&self, key: &Key) -> TsbResult<Vec<Version>> {
        self.shard_for(key)?.read(|t| t.versions(key))
    }

    /// Number of committed versions stored for `key`.
    pub fn version_count(&self, key: &Key) -> TsbResult<usize> {
        self.shard_for(key)?.read(|t| t.version_count(key))
    }

    /// Every committed version in the `keys` × `window` rectangle, ordered
    /// by key and then commit time.
    pub fn scan_versions(&self, keys: &KeyRange, window: TimeRange) -> TsbResult<Vec<Version>> {
        self.merge(|t| t.scan_versions(keys, window), Version::sort_cmp)
    }

    /// The distinct keys in `keys` that changed during `window`, in key
    /// order.
    pub fn changed_keys_between(&self, keys: &KeyRange, window: TimeRange) -> TsbResult<Vec<Key>> {
        self.merge(|t| t.changed_keys_between(keys, window), Key::cmp)
    }

    /// A full-database snapshot as of `ts`, merged in key order.
    pub fn snapshot_at(&self, ts: Timestamp) -> TsbResult<Vec<(Key, Vec<u8>)>> {
        self.merge(|t| t.snapshot_at(ts), |a, b| a.0.cmp(&b.0))
    }

    /// Number of keys alive in `range` as of `ts`, summed across shards.
    pub fn count_as_of(&self, range: &KeyRange, ts: Timestamp) -> TsbResult<usize> {
        let mut n = 0;
        for s in self.serving_shards()? {
            n += s.read(|t| t.count_as_of(range, ts))?;
        }
        Ok(n)
    }

    /// Checks on every shard that each cached decoded node equals its
    /// device image, with the shard's writer stalled.
    pub fn verify_cache_coherence(&self) -> TsbResult<()> {
        self.each_quiesced(TsbTree::verify_cache_coherence)
    }

    /// The census of the whole engine ([`TsbTree::tree_stats`] of each
    /// shard, taken with its writer stalled): node and version counts,
    /// space and storage cost summed over shards, the depth the deepest
    /// shard's. At one shard it is that shard's tree's census.
    pub fn tree_stats(&self) -> TsbResult<TreeStats> {
        let mut shards = Vec::new();
        self.each_quiesced(|t| {
            shards.push(t.tree_stats()?);
            Ok(())
        })?;
        shards
            .into_iter()
            .reduce(TreeStats::plus)
            .ok_or_else(not_serving)
    }

    /// Runs `f` on every shard's tree in turn, each with its writer lock
    /// held.
    fn each_quiesced(&self, mut f: impl FnMut(&TsbTree) -> TsbResult<()>) -> TsbResult<()> {
        self.serving_shards()?.iter().try_for_each(|s| {
            let _writer = s.lock_writer();
            f(s.tree())
        })
    }

    /// Runs a per-shard query and merges the results into the order one
    /// shard returns them in, `cmp` (the hash partition makes per-shard
    /// key sets disjoint, so a sort of the concatenation is a correct
    /// merge).
    fn merge<T>(
        &self,
        f: impl Fn(&TsbTree) -> TsbResult<Vec<T>>,
        cmp: impl FnMut(&T, &T) -> std::cmp::Ordering,
    ) -> TsbResult<Vec<T>> {
        let mut out = Vec::new();
        for s in self.serving_shards()? {
            out.extend(s.read(&f)?);
        }
        out.sort_by(cmp);
        Ok(out)
    }

    // ----- snapshots and the fence ----------------------------------------

    /// Begins a read-only transaction pinned at one global fence
    /// timestamp, consistent across every shard: the newest ticked commit
    /// timestamp `T`, with every shard's install fence raised to at least
    /// `T` before the snapshot is handed out (see the [module docs](self)).
    /// Includes every write acknowledged before this call, on any shard.
    /// A replica pins [`EngineHandle::last_installed`] instead: a shard of
    /// a replica is complete only through the fences it has installed.
    pub fn begin_snapshot(&self) -> ShardedSnapshot {
        let ts = if self.is_replica() {
            self.last_installed()
        } else {
            let ts = self.inner.clock.now().prev();
            self.pin_all(ts);
            ts
        };
        ShardedSnapshot {
            db: self.clone(),
            ts,
        }
    }

    fn pin_all(&self, ts: Timestamp) {
        for s in &self.inner.shards {
            s.pin_fence_at_least(ts);
        }
    }

    // ----- passthroughs ---------------------------------------------------

    /// The current global logical time (next commit timestamp on any
    /// shard).
    pub fn now(&self) -> Timestamp {
        self.inner.clock.now()
    }

    /// Wires `injector` into every write site of every shard — each
    /// shard's two stores and the shared log — so one armed trigger can
    /// crash the engine anywhere in the sharded write path, a cross-shard
    /// commit (or a replica's apply) included.
    pub fn set_fault_injector(&self, injector: Arc<FaultInjector>) {
        for s in &self.inner.shards {
            s.tree().set_fault_injector(&injector);
        }
    }
}

/// The engine verbs, defined here and nowhere else: a key's verbs run on
/// its home shard, range verbs merge across shards, and the durability
/// positions handed out are positions on the one log.
impl EngineHandle for ShardedTsb {
    fn role(&self) -> EngineRole {
        if self.is_replica() {
            EngineRole::Replica
        } else {
            EngineRole::Primary
        }
    }

    fn shard_count(&self) -> usize {
        self.inner.shards.len()
    }

    fn epoch(&self) -> u64 {
        self.inner.epoch.load(Ordering::SeqCst)
    }

    // ----- single-key writes (zero cross-shard coordination) --------------

    /// Inserts a new version of `key` on its home shard, stamped from the
    /// global clock. A pipelined caller batches writes and waits once at
    /// the end; every shard appends to the one log, so the batch's first
    /// wait asks for a sync that covers all of it.
    fn insert_deferred(&self, key: Key, value: Vec<u8>) -> TsbResult<(Timestamp, Option<Lsn>)> {
        self.writable()?;
        let shard = self.shard_for(&key)?;
        shard.write(|t| t.insert(key, value))
    }

    fn delete_deferred(&self, key: Key) -> TsbResult<(Timestamp, Option<Lsn>)> {
        self.writable()?;
        let shard = self.shard_for(&key)?;
        shard.write(|t| t.delete(key))
    }

    /// Returns once the one log's durable-LSN watermark covers `lsn`,
    /// leading the sync on this thread or parking on the one on the device
    /// (see [`Wal::wait_durable`]). A sync covers the whole appended tail,
    /// so a batch's waits after the first find it already covered. A
    /// failed wait poisons every shard with a fence appended past the
    /// watermark: those fences can never become durable, so the shard's
    /// memory is ahead of its log for good; a shard with none serves on.
    /// An LSN the log never handed out is a config error that poisons
    /// nothing.
    fn wait_durable(&self, lsn: Lsn) -> TsbResult<()> {
        self.writable()?;
        let Some(wal) = self.wal() else {
            return Ok(());
        };
        wal.wait_durable(lsn).inspect_err(|e| {
            if !matches!(e, TsbError::Config(_)) {
                let trees = self.inner.shards.iter().map(Shard::tree);
                trees.for_each(TsbTree::poison_if_unsettled);
            }
        })
    }

    // ----- transactions ---------------------------------------------------

    /// Begins a transaction that may write keys on any shard. The returned
    /// id lives in the sharded engine's own namespace; shard-local
    /// transactions are begun lazily as writes route to shards.
    fn begin_txn(&self) -> TsbResult<TxnId> {
        self.writable()?;
        let mut t = self.inner.txns.lock();
        t.next += 1;
        let id = TxnId::new(t.next);
        let slots = vec![None; self.inner.shards.len()];
        t.active.insert(id, slots);
        Ok(id)
    }

    fn txn_insert(&self, txn: TxnId, key: Key, value: Vec<u8>) -> TsbResult<()> {
        self.writable()?;
        let shard = self.shard_of(&key);
        let local = self.local_txn(txn, shard)?;
        let db = &self.inner.shards[shard];
        let _writer = db.lock_writer();
        db.tree().txn_insert(local, key, value)
    }

    fn txn_delete(&self, txn: TxnId, key: Key) -> TsbResult<()> {
        self.writable()?;
        let shard = self.shard_of(&key);
        let local = self.local_txn(txn, shard)?;
        let db = &self.inner.shards[shard];
        let _writer = db.lock_writer();
        db.tree().txn_delete(local, key)
    }

    /// The transaction's own pending write when it touched the key's
    /// shard, the committed current value otherwise.
    fn txn_get(&self, txn: TxnId, key: &Key) -> TsbResult<Option<Vec<u8>>> {
        self.writable()?;
        let shard = self.shard_of(key);
        let local = {
            let t = self.inner.txns.lock();
            t.active.get(&txn).ok_or_else(|| unknown_txn(txn))?[shard]
        };
        let db = &self.inner.shards[shard];
        match local {
            Some(local) => {
                let _writer = db.lock_writer();
                db.tree().txn_get(local, key)
            }
            None => db.read(|t| t.get_current(key)),
        }
    }

    /// All of `txn`'s writes across all shards become visible atomically
    /// at the returned timestamp. Single-shard transactions commit with
    /// zero coordination; cross-shard ones as one fence naming every
    /// participant (see the [module docs](self)). Either hands back the
    /// fence's position to wait on, as a put does.
    fn commit_txn_deferred(&self, txn: TxnId) -> TsbResult<(Timestamp, Option<Lsn>)> {
        self.writable()?;
        let parts = self.take_participants(txn)?;
        match parts.as_slice() {
            // A transaction that never wrote: tick so the commit still has
            // a unique place in the global order, with nothing to install.
            [] => Ok((self.inner.clock.tick(), None)),
            [(shard, local)] => {
                let commit = |t: &TsbTree| t.commit_txn(*local);
                self.inner.shards[*shard].write(commit)
            }
            _ => self.commit_cross_shard(&parts),
        }
    }

    /// Aborts on every participant, even past one whose abort fails: the
    /// transaction has left the table, so a participant skipped here would
    /// keep its local transaction, and its keys' write locks, until
    /// restart. Returns the first failure, and waits for no sync: a lost
    /// abort is redone by recovery's implicit abort.
    fn abort_txn(&self, txn: TxnId) -> TsbResult<()> {
        self.writable()?;
        let mut first = Ok(());
        for (shard, local) in self.take_participants(txn)? {
            let db = &self.inner.shards[shard];
            let _writer = db.lock_writer();
            first = first.and(db.tree().abort_txn(local));
        }
        first
    }

    /// One checkpoint of the one log: every writer lock taken in
    /// ascending order, every shard flushed to its devices, then the log
    /// replaced by one fence holding every shard's state. A replica writes
    /// no fences of its own.
    fn checkpoint(&self) -> TsbResult<()> {
        self.writable()?;
        self.with_every_writer(checkpoint_log).map(drop)
    }

    // ----- reads ----------------------------------------------------------

    fn get_current(&self, key: &Key) -> TsbResult<Option<Vec<u8>>> {
        self.shard_for(key)?.read(|t| t.get_current(key))
    }

    /// On a replica, answers for `ts` past [`EngineHandle::last_installed`]
    /// may still change as shipped fences install.
    fn get_as_of(&self, key: &Key, ts: Timestamp) -> TsbResult<Option<Vec<u8>>> {
        self.shard_for(key)?.read(|t| t.get_as_of(key, ts))
    }

    fn scan_as_of(&self, range: &KeyRange, ts: Timestamp) -> TsbResult<Vec<(Key, Vec<u8>)>> {
        self.merge(|t| t.scan_as_of(range, ts), |a, b| a.0.cmp(&b.0))
    }

    fn scan_current(&self, range: &KeyRange) -> TsbResult<Vec<(Key, Vec<u8>)>> {
        self.merge(|t| t.scan_current(range), |a, b| a.0.cmp(&b.0))
    }

    fn history_between(&self, key: &Key, window: TimeRange) -> TsbResult<Vec<Version>> {
        self.shard_for(key)?
            .read(|t| t.history_between(key, window))
    }

    /// The newest timestamp at which *every* shard is known fully
    /// installed (the minimum of the per-shard install fences). Reads
    /// pinned at or before it are stable on all shards without taking any
    /// lock. On a replica: the applied prefix, [`Timestamp::ZERO`] while
    /// awaiting a base.
    fn last_installed(&self) -> Timestamp {
        let fences = self.inner.shards.iter().map(|s| s.last_installed());
        fences.min().unwrap_or(Timestamp::ZERO)
    }

    /// The newest durable commit on the log: the latest commit time among
    /// the durable fences, each shard reading its own against the one
    /// watermark (`None` for an in-memory engine not born from recovery).
    /// A replica installs a shipped fence only once its local log holds
    /// it durably, so there this is the newest installed commit.
    fn last_durable_commit(&self) -> Option<Timestamp> {
        let commits = self.inner.shards.iter().map(|s| s.last_durable_commit());
        commits.flatten().max()
    }

    /// The log's durable watermark (every shard shares the log); on a
    /// replica, the LSN of the newest installed fence.
    fn durable_lsn(&self) -> Lsn {
        match self.replica() {
            Some(replica) => replica.applied_lsn(),
            None => self.wal().map_or(0, |w| w.durable_lsn()),
        }
    }

    // ----- introspection --------------------------------------------------

    fn verify(&self) -> TsbResult<()> {
        self.each_quiesced(TsbTree::verify)
    }

    /// Identical on every shard.
    fn config(&self) -> &TsbConfig {
        &self.inner.cfg
    }

    /// The sum of every shard's [`tsb_storage::IoStats`] snapshot.
    fn io_snapshot(&self) -> IoSnapshot {
        let shards = self.inner.shards.iter();
        shards.fold(IoSnapshot::default(), |sum, s| {
            sum.merge(&s.tree().io_stats().snapshot())
        })
    }

    fn replica_status(&self) -> Option<ReplicaStatus> {
        let serving = !self.inner.shards.is_empty();
        self.replica().map(|replica| replica.status(serving))
    }

    fn replication_source(&self) -> TsbResult<ReplicationSource> {
        ReplicationSource::new(self)
    }
}

fn unknown_txn(txn: TxnId) -> TsbError {
    TsbError::config(format!("unknown transaction {txn:?}"))
}

/// The shard `key` routes to under an `n`-way partition — exposed for
/// tests that need the routing function without an engine.
pub fn shard_of(key: &Key, n: usize) -> usize {
    if n <= 1 {
        return 0;
    }
    (fnv1a64(key.as_bytes()) % n as u64) as usize
}

fn check_shard_count(shards: usize) -> TsbResult<()> {
    if shards == 0 || shards > MAX_SHARDS {
        return Err(TsbError::config(format!(
            "shard count must be in 1..={MAX_SHARDS}, got {shards}"
        )));
    }
    Ok(())
}

/// Where the files of a `shards`-shard engine in `dir` live — one shard
/// flat in the directory, more beside a manifest — once the directory is
/// known to hold that count (a fresh one is reserved for it). Primaries
/// and replicas lay their files out alike.
pub(crate) fn layout(dir: &Path, shards: usize) -> TsbResult<Layout> {
    check_shard_count(shards)?;
    std::fs::create_dir_all(dir)?;
    match read_manifest(dir)? {
        Some(n) if n != shards => Err(TsbError::config(format!(
            "directory {} was created with {n} shards; reopening with \
             {shards} would re-partition every key onto the wrong shard",
            dir.display()
        ))),
        Some(_) => Ok(Layout::sharded(dir, shards)),
        None if shards == 1 => Ok(Layout::flat(dir)),
        None => {
            if DurableFiles::has_log(dir) {
                return Err(TsbError::config(format!(
                    "directory {} holds a flat single-shard database; reopening \
                     with {shards} shards would re-partition it",
                    dir.display()
                )));
            }
            write_manifest(&dir.join(MANIFEST_FILE), shards)?;
            Ok(Layout::sharded(dir, shards))
        }
    }
}

/// The layout `dir` already holds: the manifest's shard count, else one
/// shard. A replica, whose count is its primary's, opens with it.
pub(crate) fn existing_layout(dir: &Path) -> TsbResult<Layout> {
    layout(dir, read_manifest(dir)?.unwrap_or(1))
}

/// Lays `dir` out for `shards` shards whatever count it held before: for
/// a replica installing a base, once its files are wiped.
pub(crate) fn relayout(dir: &Path, shards: usize) -> TsbResult<Layout> {
    match std::fs::remove_file(dir.join(MANIFEST_FILE)) {
        Ok(()) => {}
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
        Err(e) => return Err(e.into()),
    }
    layout(dir, shards)
}

/// Reads the shard count from `dir`'s manifest, `None` if it has none. A
/// first-layout manifest is [`TsbError::OldLayout`]: that directory's
/// shards each keep a log of their own, which this version does not read.
fn read_manifest(dir: &Path) -> TsbResult<Option<usize>> {
    let path = dir.join(MANIFEST_FILE);
    let text = match std::fs::read_to_string(&path) {
        Ok(t) => t,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(e.into()),
    };
    let mut lines = text.lines();
    let magic = lines.next().unwrap_or_default();
    if magic == MANIFEST_MAGIC_V1 {
        return Err(TsbError::OldLayout(format!(
            "{} holds a sharded database with a redo log per shard; this version \
             keeps one log for every shard and does not migrate it",
            dir.display()
        )));
    }
    if magic != MANIFEST_MAGIC {
        return Err(TsbError::corruption(format!(
            "unrecognized shard manifest header {magic:?} in {}",
            path.display()
        )));
    }
    let count = lines
        .next()
        .and_then(|l| l.strip_prefix("shards "))
        .and_then(|n| n.parse::<usize>().ok())
        .ok_or_else(|| {
            TsbError::corruption(format!(
                "shard manifest {} has no shard count",
                path.display()
            ))
        })?;
    if count == 0 || count > MAX_SHARDS {
        return Err(TsbError::corruption(format!(
            "shard manifest {} names an impossible shard count {count}",
            path.display()
        )));
    }
    Ok(Some(count))
}

/// Writes the manifest durably: temp file, fsync, rename, directory
/// fsync — the count must never be lost or torn, or every key would route
/// to the wrong shard. A failure at any step, the directory fsync
/// included, is the caller's error, and the temp file does not outlive it.
fn write_manifest(path: &Path, shards: usize) -> TsbResult<()> {
    let tmp = path.with_extension("tmp");
    let written = (|| {
        let mut f = std::fs::File::create(&tmp)?;
        writeln!(f, "{MANIFEST_MAGIC}")?;
        writeln!(f, "shards {shards}")?;
        writeln!(f, "hash fnv1a64")?;
        f.sync_all()?;
        std::fs::rename(&tmp, path)?;
        sync_parent_dir(path)
    })();
    if written.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    written
}

/// An owning, thread-safe read-only view of the sharded database pinned
/// to one global fence timestamp — every query answers as of the same
/// instant on every shard, no matter how many writes commit concurrently.
#[derive(Clone, Debug)]
pub struct ShardedSnapshot {
    db: ShardedTsb,
    ts: Timestamp,
}

impl ShardedSnapshot {
    /// The snapshot's pinned read timestamp.
    pub fn timestamp(&self) -> Timestamp {
        self.ts
    }

    /// Reads a key as of the snapshot time.
    pub fn get(&self, key: &Key) -> TsbResult<Option<Vec<u8>>> {
        self.db.get_as_of(key, self.ts)
    }

    /// Scans a key range as of the snapshot time, merged in key order.
    pub fn scan(&self, range: &KeyRange) -> TsbResult<Vec<(Key, Vec<u8>)>> {
        self.db.scan_as_of(range, self.ts)
    }

    /// Dumps the entire database as of the snapshot time.
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

    fn engine(shards: usize) -> ShardedTsb {
        crate::TsbOptions::in_memory()
            .config(TsbConfig::small_pages())
            .shards(shards)
            .open()
            .unwrap()
    }

    #[test]
    fn routing_is_a_stable_total_partition() {
        for n in [1usize, 2, 4, 7] {
            for i in 0..500u64 {
                let key = Key::from_u64(i);
                let s = shard_of(&key, n);
                assert!(s < n);
                assert_eq!(s, shard_of(&key, n), "routing must be deterministic");
            }
        }
        // With a few shards every shard receives some keys.
        let n = 4;
        let mut seen = vec![false; n];
        for i in 0..500u64 {
            seen[shard_of(&Key::from_u64(i), n)] = true;
        }
        assert!(seen.iter().all(|s| *s), "a shard received no keys");
    }

    #[test]
    fn timestamps_are_globally_unique_and_monotonic() {
        let db = engine(4);
        let mut last = Timestamp::ZERO;
        for i in 0..200u64 {
            let ts = db.insert(i.into(), format!("v{i}").into_bytes()).unwrap();
            assert!(ts > last, "global commit order must be total");
            last = ts;
        }
        assert_eq!(db.now(), last.next());
    }

    #[test]
    fn reads_route_and_merge() {
        let db = engine(4);
        for i in 0..100u64 {
            db.insert(i.into(), format!("v{i}").into_bytes()).unwrap();
        }
        for i in 0..100u64 {
            assert_eq!(
                db.get_current(&Key::from_u64(i)).unwrap().unwrap(),
                format!("v{i}").into_bytes()
            );
        }
        let rows = db.scan_current(&KeyRange::full()).unwrap();
        assert_eq!(rows.len(), 100);
        assert!(rows.windows(2).all(|w| w[0].0 < w[1].0), "merged key order");
    }

    #[test]
    fn cross_shard_transactions_commit_atomically() {
        let db = engine(4);
        let txn = db.begin_txn().unwrap();
        for i in 0..16u64 {
            db.txn_insert(txn, i.into(), b"txn".to_vec()).unwrap();
        }
        // Nothing visible before commit, own writes visible inside.
        assert!(db.get_current(&Key::from_u64(3)).unwrap().is_none());
        assert_eq!(db.txn_get(txn, &Key::from_u64(3)).unwrap().unwrap(), b"txn");
        let ts = db.commit_txn(txn).unwrap();
        for i in 0..16u64 {
            let v = db
                .get_version_as_of(&Key::from_u64(i), ts)
                .unwrap()
                .expect("committed");
            assert_eq!(v.state.commit_time(), Some(ts), "one timestamp everywhere");
        }
        db.verify().unwrap();
    }

    #[test]
    fn aborted_cross_shard_transactions_vanish_everywhere() {
        let db = engine(3);
        let txn = db.begin_txn().unwrap();
        for i in 0..12u64 {
            db.txn_insert(txn, i.into(), b"gone".to_vec()).unwrap();
        }
        db.abort_txn(txn).unwrap();
        for i in 0..12u64 {
            assert!(db.get_current(&Key::from_u64(i)).unwrap().is_none());
        }
        db.verify().unwrap();
    }

    #[test]
    fn snapshots_pin_one_fence_across_shards() {
        let db = engine(4);
        for i in 0..40u64 {
            db.insert(i.into(), b"before".to_vec()).unwrap();
        }
        let snap = db.begin_snapshot();
        // A snapshot taken after an acknowledged write includes it — on
        // every shard, not just the one that acknowledged last.
        assert_eq!(snap.count(&KeyRange::full()).unwrap(), 40);
        let txn = db.begin_txn().unwrap();
        for i in 0..40u64 {
            db.txn_insert(txn, i.into(), b"after".to_vec()).unwrap();
        }
        db.commit_txn(txn).unwrap();
        for (_, v) in snap.dump().unwrap() {
            assert_eq!(v, b"before".to_vec(), "snapshot saw a post-pin commit");
        }
    }

    #[test]
    fn empty_and_unknown_transactions() {
        let db = engine(2);
        let txn = db.begin_txn().unwrap();
        db.commit_txn(txn).unwrap();
        assert!(db.commit_txn(txn).is_err(), "already committed");
        assert!(
            db.txn_insert(txn, 1u64.into(), vec![]).is_err(),
            "txn is gone"
        );
        assert!(db.abort_txn(TxnId::new(999)).is_err());
    }

    /// A scratch directory for the durable tests below, removed on drop.
    struct TempDir(std::path::PathBuf);

    impl TempDir {
        fn new(tag: &str) -> Self {
            let dir =
                std::env::temp_dir().join(format!("tsb-sharded-{tag}-{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            TempDir(dir)
        }
    }

    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    fn durable_engine(dir: &TempDir, shards: usize) -> ShardedTsb {
        crate::TsbOptions::durable(&dir.0)
            .fsync(tsb_common::FsyncPolicy::Always)
            .shards(shards)
            .open()
            .unwrap()
    }

    /// Small pages under a time-preferring policy, so a few hundred updates
    /// migrate history to every shard's WORM.
    fn migrating_cfg() -> TsbConfig {
        TsbConfig::small_pages().with_split_policy(tsb_common::SplitPolicyKind::TimePreferring)
    }

    fn write_history(db: &ShardedTsb) {
        for i in 0..600u64 {
            db.insert(Key::from_u64(i % 40), vec![i as u8; 24]).unwrap();
        }
    }

    /// The engine's census at one shard is its tree's, field for field.
    #[test]
    fn a_one_shard_census_is_its_trees() {
        let db = crate::TsbOptions::in_memory()
            .config(migrating_cfg())
            .open()
            .unwrap();
        write_history(&db);
        let census = db.tree_stats().unwrap();
        assert!(census.historical_data_nodes > 0, "history migrated");
        assert_eq!(census, db.shards()[0].tree().tree_stats().unwrap());
    }

    /// The census of a live four-shard engine equals what the benchmark
    /// harness sums by reading each `shard-NNN` directory back as a tree,
    /// WORM payload included: the census counts historical nodes' lengths,
    /// so a reopened WORM's sector padding never reads as payload.
    #[test]
    fn a_four_shard_census_sums_what_each_shard_directory_reads_back() {
        let dir = TempDir::new("census");
        let cfg = migrating_cfg().with_fsync_policy(tsb_common::FsyncPolicy::Os);
        let census = {
            let db = crate::TsbOptions::durable(&dir.0)
                .config(cfg.clone())
                .shards(4)
                .open()
                .unwrap();
            write_history(&db);
            db.tree_stats().unwrap()
        };

        let (mut distinct, mut redundant, mut worm_payload, mut worm_bytes) = (0, 0, 0, 0);
        for shard in 0..4 {
            let shard_dir = dir.0.join(format!("shard-{shard:03}"));
            let tree = crate::TsbOptions::durable(shard_dir)
                .config(cfg.clone())
                .open_tree()
                .unwrap();
            let s = tree.tree_stats().unwrap();
            assert!(s.space.worm_bytes > 0, "shard {shard} migrated history");
            distinct += s.distinct_versions;
            redundant += s.redundant_copies;
            worm_payload += s.space.worm_payload_bytes;
            worm_bytes += s.space.worm_bytes;
        }
        assert_eq!(census.distinct_versions, distinct);
        assert_eq!(census.redundant_copies, redundant);
        assert_eq!(census.space.worm_payload_bytes, worm_payload);
        assert_eq!(census.space.worm_bytes, worm_bytes);
        assert!(worm_payload < worm_bytes, "sector padding is not payload");
    }

    /// Every shard appends to one log, so the waits that end a batch over
    /// all four shards cost one fsync — not one per shard, and not one per
    /// insert: deferred inserts ask for nothing. Counts, not timings.
    #[test]
    fn a_batch_over_four_shards_costs_one_sync() {
        let dir = TempDir::new("batch");
        let db = durable_engine(&dir, 4);
        let before = db.io_snapshot().wal_syncs;
        let mut max_lsns = [None; 4];
        for i in 0..32u64 {
            let shard = db.shard_of(&Key::from_u64(i));
            let (_, lsn) = db.insert_deferred(i.into(), b"v".to_vec()).unwrap();
            assert!(lsn.is_some(), "`Always` hands out a position");
            max_lsns[shard] = max_lsns[shard].max(lsn);
        }
        assert!(
            max_lsns.iter().all(Option::is_some),
            "a shard went untouched"
        );
        assert_eq!(
            db.io_snapshot().wal_syncs,
            before,
            "an insert nobody waited on yet asked for a sync"
        );
        for lsn in max_lsns {
            db.wait_durable(lsn.unwrap()).unwrap();
        }
        assert_eq!(db.io_snapshot().wal_syncs, before + 1);
    }

    /// A key on each of `p` shards, written in one open transaction.
    fn straddling_txn(db: &ShardedTsb, p: usize) -> TxnId {
        let txn = db.begin_txn().unwrap();
        let mut touched = vec![false; p];
        for key in 0u64.. {
            let shard = db.shard_of(&Key::from_u64(key));
            if shard < p && !touched[shard] {
                touched[shard] = true;
                db.txn_insert(txn, key.into(), b"t".to_vec()).unwrap();
            }
            if touched.iter().all(|t| *t) {
                return txn;
            }
        }
        unreachable!("every shard owns some key")
    }

    /// A cross-shard commit is one fence on the one log, whatever its
    /// participant count P, and its writes wait for nothing: under
    /// `Always` the whole transaction — P writes and a blocking commit,
    /// with nothing else pending — costs exactly one fsync, and returns
    /// durable on every participant; under `Os` it costs none.
    #[test]
    fn a_cross_shard_commit_costs_at_most_one_sync_whatever_p() {
        for p in [2usize, 3, 4] {
            let dir = TempDir::new(&format!("one-fence-{p}"));
            let db = durable_engine(&dir, 4);
            let before = db.io_snapshot().wal_syncs;
            let txn = straddling_txn(&db, p);
            let ts = db.commit_txn(txn).unwrap();
            assert_eq!(db.io_snapshot().wal_syncs - before, 1, "{p} participants");
            assert_eq!(db.last_durable_commit(), Some(ts), "{p} participants");
            for shard in &db.shards()[..p] {
                assert_eq!(shard.last_durable_commit(), Some(ts), "{p} participants");
            }
        }
        let dir = TempDir::new("one-fence-os");
        let db = crate::TsbOptions::durable(&dir.0)
            .fsync(tsb_common::FsyncPolicy::Os)
            .shards(4)
            .open()
            .unwrap();
        let before = db.io_snapshot().wal_syncs;
        let txn = straddling_txn(&db, 4);
        let (_, pos) = db.commit_txn_deferred(txn).unwrap();
        assert_eq!(pos, None, "`Os` hands out nothing to wait on");
        assert_eq!(db.io_snapshot().wal_syncs, before);
    }

    /// A transaction write returns before the log is forced, but the next
    /// acknowledged put's force carries its page records to disk anyway.
    /// Recovery's implicit abort erases it, at 1 and 4 shards: through two
    /// reopens every key reads its pre-transaction value with no pending
    /// version, and a new transaction writes the same keys and commits.
    #[test]
    fn recovery_erases_an_uncommitted_write_a_later_force_carried_to_disk() {
        for n in [1usize, 4] {
            let dir = TempDir::new(&format!("txn-erased-{n}"));
            let keys: Vec<Key> = (0..16u64).map(Key::from_u64).collect();
            let db = durable_engine(&dir, n);
            for k in &keys {
                db.insert(k.clone(), b"before".to_vec()).unwrap();
            }
            let txn = db.begin_txn().unwrap();
            for k in &keys {
                db.txn_insert(txn, k.clone(), b"pending".to_vec()).unwrap();
            }
            for shard in 0..n {
                assert!(keys.iter().any(|k| db.shard_of(k) == shard));
                let put = (100u64..)
                    .map(Key::from_u64)
                    .find(|k| db.shard_of(k) == shard);
                db.insert(put.unwrap(), b"put".to_vec()).unwrap();
            }
            drop(db); // crash with the transaction open

            for generation in 0..2 {
                let db = durable_engine(&dir, n);
                db.verify().unwrap();
                for k in &keys {
                    let at = format!("{n} shards, gen {generation}, key {k}");
                    assert_eq!(db.get_current(k).unwrap(), Some(b"before".to_vec()), "{at}");
                    let pending = db.shards()[db.shard_of(k)].read(|t| t.pending_version(k));
                    assert_eq!(pending.unwrap(), None, "{at}");
                }
            }
            let db = durable_engine(&dir, n);
            let again = db.begin_txn().unwrap();
            for k in &keys {
                db.txn_insert(again, k.clone(), b"after".to_vec()).unwrap();
            }
            db.commit_txn(again).unwrap();
            for k in &keys {
                assert_eq!(db.get_current(k).unwrap(), Some(b"after".to_vec()));
            }
        }
    }

    /// An abort that fails on one participant still aborts every other:
    /// the transaction has already left the table, so a participant
    /// skipped there would keep its keys locked until restart.
    #[test]
    fn a_failed_participant_abort_still_aborts_the_others() {
        let db = engine(3);
        let txn = straddling_txn(&db, 3);
        db.shards()[0].tree().poison();
        assert!(db.abort_txn(txn).is_err(), "shard 0's abort must fail");
        for shard in &db.shards()[1..] {
            assert_eq!(shard.tree().active_txn_count(), 0);
        }
        // A new transaction writes the same keys on the healthy shards.
        let again = db.begin_txn().unwrap();
        for shard in 1..3 {
            let key = (0u64..).find(|k| db.shard_of(&Key::from_u64(*k)) == shard);
            let key = Key::from_u64(key.unwrap());
            db.txn_insert(again, key, b"again".to_vec()).unwrap();
        }
        db.commit_txn(again).unwrap();
    }

    /// The engine's durable LSN is its one log's watermark at every shard
    /// count: past 0 once a put is acknowledged, and past that put's
    /// position once it was waited on.
    #[test]
    fn durable_lsn_is_the_shared_logs_watermark() {
        let dir = TempDir::new("durable-lsn");
        let db = durable_engine(&dir, 4);
        for i in 0..8u64 {
            db.insert(i.into(), b"v".to_vec()).unwrap();
        }
        assert!(db.durable_lsn() > 0, "an acknowledged put is durable");
        let (_, lsn) = db.insert_deferred(9u64.into(), b"w".to_vec()).unwrap();
        let lsn = lsn.unwrap();
        db.wait_durable(lsn).unwrap();
        assert!(db.durable_lsn() >= lsn);
    }

    /// A position the log never handed out — an LSN past its newest
    /// record — is a typed error: not a wait that can never end, and not
    /// a reason to poison a tree nothing is wrong with.
    #[test]
    fn waiting_past_the_tail_is_a_config_error_and_poisons_nothing() {
        let dir = TempDir::new("past-tail");
        let db = durable_engine(&dir, 2);
        let (_, lsn) = db.insert_deferred(1u64.into(), b"v".to_vec()).unwrap();
        let lsn = lsn.unwrap();
        db.wait_durable(lsn).unwrap();

        let (tx, rx) = std::sync::mpsc::channel();
        let waiter = db.clone();
        std::thread::spawn(move || {
            let _ = tx.send(waiter.wait_durable(lsn + 1));
        });
        let result = rx
            .recv_timeout(std::time::Duration::from_secs(2))
            .expect("a wait past the tail parked instead of failing");
        assert!(
            matches!(result, Err(TsbError::Config(_))),
            "expected a config error, got {result:?}"
        );

        let (_, pos) = db.insert_deferred(1u64.into(), b"w".to_vec()).unwrap();
        db.wait_durable(pos.unwrap()).unwrap();
        assert_eq!(db.get_current(&Key::from_u64(1)).unwrap().unwrap(), b"w");
    }

    /// A failed wait poisons every shard whose fence the log's durable
    /// watermark does not cover, whichever position was waited on, and only
    /// those: with writes deferred on shards A and B of a 3-shard `Always`
    /// engine, the failed wait on A's position leaves B refusing reads too,
    /// while the idle shard C serves on.
    #[test]
    fn a_failed_wait_poisons_every_shard_with_a_fence_past_the_watermark() {
        use tsb_storage::CrashPoint;
        let dir = TempDir::new("poison");
        let db = durable_engine(&dir, 3);
        let key_on = |shard| {
            let key = (0u64..).find(|k| db.shard_of(&Key::from_u64(*k)) == shard);
            Key::from_u64(key.unwrap())
        };
        let (a, b, c) = (key_on(0), key_on(1), key_on(2));
        db.insert(c.clone(), b"c".to_vec()).unwrap();

        let faults = Arc::new(FaultInjector::new());
        db.set_fault_injector(Arc::clone(&faults));
        faults.crash_at(CrashPoint::WalSync, 0);
        let (_, lsn) = db.insert_deferred(a.clone(), b"a".to_vec()).unwrap();
        db.insert_deferred(b.clone(), b"b".to_vec()).unwrap();
        assert!(db.wait_durable(lsn.unwrap()).is_err(), "the sync must fail");
        assert!(faults.tripped());

        assert!(
            db.get_current(&a).is_err(),
            "shard A serves past a lost fence"
        );
        assert!(
            db.get_current(&b).is_err(),
            "shard B serves past a lost fence"
        );
        assert_eq!(db.get_current(&c).unwrap(), Some(b"c".to_vec()));
    }

    /// A manifest that cannot be put in place is the caller's error, and
    /// its temp file does not outlive the attempt.
    #[test]
    fn a_manifest_that_cannot_be_written_is_an_error_and_leaves_no_temp() {
        let dir = TempDir::new("manifest");
        std::fs::create_dir_all(&dir.0).unwrap();
        let path = dir.0.join(MANIFEST_FILE);
        write_manifest(&path, 4).unwrap();
        assert_eq!(read_manifest(&dir.0).unwrap(), Some(4));
        assert!(!path.with_extension("tmp").exists());

        // A non-empty directory squatting on the manifest's name makes the
        // rename fail after the temp file was written and synced.
        let squatted = dir.0.join("squatted").join(MANIFEST_FILE);
        std::fs::create_dir_all(squatted.join("occupant")).unwrap();
        assert!(write_manifest(&squatted, 4).is_err());
        assert!(!squatted.with_extension("tmp").exists());
    }

    #[test]
    fn shard_count_bounds_are_enforced() {
        assert!(crate::TsbOptions::in_memory()
            .config(TsbConfig::small_pages())
            .shards(0)
            .open()
            .is_err());
        assert!(crate::TsbOptions::in_memory()
            .config(TsbConfig::small_pages())
            .shards(MAX_SHARDS + 1)
            .open()
            .is_err());
    }
}
