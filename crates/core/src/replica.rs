//! WAL shipping: a primary streams its redo log to replicas, and a replica
//! is the same [`ShardedTsb`] a primary is, whose one writer is the log
//! applier.
//!
//! The Time-Split B-tree's redo log is *physical* — page images on first
//! touch per checkpoint interval, logical page deltas after, and commit /
//! checkpoint fences carrying the tree metadata. That makes it a complete
//! replication stream for free: a replica that keeps a byte-faithful local
//! copy of the primary's log and repeats history through the newest
//! shipped fence holds exactly the primary's durable state at that fence.
//! Every shard of an engine appends to its one log, so a sharded primary
//! ships unchanged: shard switches and fences naming shards travel with
//! the records they tag. This module is the two ends of that stream:
//!
//! * [`ReplicationSource`] — the primary side. Wraps a durable
//!   [`ShardedTsb`]; [`ReplicationSource::poll`] tails the log file (via
//!   [`tsb_storage::WalTailer`]) up to the **durable** watermark — a
//!   replica must never apply a record the primary could still lose — and
//!   ships each batch together with the WORM bytes its fences reference,
//!   shard by shard. [`ReplicationSource::base`] captures a consistent
//!   full image (checkpoint fence + every shard's magnetic pages and WORM
//!   prefix) for bootstrapping a new replica or re-basing one that a
//!   checkpoint's log reset left behind.
//! * The replica side — a [`ShardedTsb`] opened with
//!   [`crate::TsbOptions::open_replica`], at the shard count of the base
//!   image it installs.
//!   [`ShardedTsb::apply_batch`] appends shipped record bodies to the local
//!   log (primary LSNs preserved, so restart is ordinary redo recovery),
//!   folds them through the one applier recovery uses, and **installs
//!   only at fences**, after the local log is fsynced through them. Each
//!   shard's install fence advances as its fences install, so scans and
//!   as-of reads obey the primary's fence-pinned read rule at the
//!   replica's applied prefix. [`ShardedTsb::install_base`] and
//!   [`ShardedTsb::reopen`] hand back the engine to serve from then on;
//!   [`ShardedTsb::promote`] stops applying.
//!
//! The promotion epoch (see [`crate::epoch`]) travels with the base: a
//! replica adopts its base's epoch on install and refuses a base of an
//! older one, and its promotion bumps it before it accepts a write.
//!
//! ## The apply protocol (and why each step is ordered)
//!
//! For each shipped batch:
//!
//! 1. **WORM first.** Each shard's historical bytes are appended and
//!    synced before any log record that references them — the same
//!    history-before-fence rule the primary's WAL pre-sync hook enforces.
//! 2. **Records stage, then append to the local log.** A page record
//!    joins the stage of the shard the log's tag names: its records since
//!    its last fence (after a restart, the stage recovery kept).
//! 3. **A fence folds the stage of each shard it names into that shard's
//!    fenced page states.** A page no fenced state holds starts from the
//!    device, which equals the state at the shard's last installed fence
//!    (its first-touch image may predate an install or this replica's
//!    log). Only fenced state may ever reach the device: records
//!    after a shard's last fence may yet be discarded by the primary (a
//!    mutation a crash cut off, or one that failed part-way and poisoned
//!    its tree, is never fenced). Every fence first passes the fence rule
//!    (`tree/recover.rs`, the one recovery uses): a batch is input from
//!    outside the process, and a fence referencing more history than step
//!    1 left on the device is refused as corruption, naming the short
//!    shard, *before* it reaches the local log — the replica keeps serving
//!    its installed fences, and a primary that ships the history on the
//!    next poll heals it.
//! 4. **At batch end: fsync the local log, then install.** Installing a
//!    fence before the local log is durable through it could leave a
//!    restart's device holding page content its log never mentions. Each
//!    shard installs under its writer lock with its structure epoch marked
//!    in flight, so concurrent readers retry instead of seeing a torn
//!    multi-page state; the shard's install fence advances last. A
//!    cross-shard commit is one fence, so a read pinned at the engine's
//!    `last_installed` sees it on every participant or on none.
//! 5. **A primary checkpoint record is applied inline**: every shard's
//!    stage is discarded (unfenced, step 3), pending fences install, the devices
//!    are synced to exactly the checkpointed state, and only then is the
//!    checkpoint appended (and synced) locally — making it a sound base
//!    for the replica's own restart recovery, which replays from the
//!    newest local checkpoint assuming the devices equal it.
//!
//! The replica never writes records of its own until it is promoted: no
//! purge fences, no local checkpoints (either would collide with the
//! primary's LSN namespace). Its local log only grows; when the primary's
//! checkpoint reset discards records the replica never fetched,
//! [`ShippedBatch::needs_rebase`] tells it to re-bootstrap from a fresh
//! base image.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use parking_lot::Mutex;

use tsb_common::{LogicalClock, TsbConfig, TsbError, TsbResult};
use tsb_storage::{Lsn, PageId, TailPoll, WalRecord, WalTailer};

use crate::concurrent::Shard;
use crate::engine::EngineHandle;
use crate::epoch::{persist_epoch, read_epoch};
use crate::node::NodeAddr;
use crate::sharded::{existing_layout, relayout, ShardedTsb};
use crate::tree::durability::checkpoint_log;
use crate::tree::recover::{fence_past_device, fence_worm_lens, DurableFiles, FenceReading};
use crate::tree::replay::{Applier, ReplayPage};
use crate::tree::TsbTree;
use crate::txn::TxnTable;

/// Marker file present while a base image install is in progress. A
/// restart that finds it wipes the half-installed state and waits for a
/// fresh base.
const INSTALLING_MARKER: &str = "replica.installing";

/// A consistent full image of a primary, for bootstrapping (or re-basing)
/// a replica: the checkpoint fence's exact logged body plus everything it
/// describes. Captured under every writer lock of the primary by
/// [`ReplicationSource::base`]; installed by [`ShardedTsb::install_base`].
pub struct ReplicaBase {
    /// LSN of the checkpoint fence — the replica's first local record and
    /// its resume cursor.
    pub checkpoint_lsn: Lsn,
    /// The checkpoint record's encoded body, byte-identical to the
    /// primary's log (the replica seeds its local log with it, preserving
    /// the primary's LSN chain).
    pub checkpoint: Vec<u8>,
    /// Each shard's devices, in shard order.
    pub shards: Vec<ShardImage>,
    /// The primary's page size; the replica refuses a mismatched config.
    pub page_size: usize,
    /// The primary's WORM sector size; likewise checked.
    pub worm_sector_size: usize,
    /// The primary's promotion epoch at capture. The replica adopts it on
    /// install and refuses a base of an older epoch than its own.
    pub epoch: u64,
}

/// One shard's devices in a [`ReplicaBase`].
pub struct ShardImage {
    /// Every allocated magnetic page and its device image, ascending id.
    pub pages: Vec<(PageId, Vec<u8>)>,
    /// The whole WORM device (padded to sectors, as on the primary).
    pub worm: Vec<u8>,
}

/// One poll's worth of shipped log: record bodies in LSN order, the WORM
/// bytes the batch's fences reference, and the primary's durable
/// watermark (for lag accounting).
pub struct ShippedBatch {
    /// The subscriber's cursor predates the primary's oldest retained
    /// record (a checkpoint reset discarded the gap): the replica must
    /// re-bootstrap from a fresh [`ReplicaBase`]. When set, the other
    /// fields carry no records and no history.
    pub needs_rebase: bool,
    /// The primary's durable-LSN watermark at poll time (the shipping
    /// limit: nothing past it is ever shipped).
    pub durable_lsn: Lsn,
    /// Per shard, in shard order: the WORM device length the subscriber
    /// reported, and the bytes past it that the batch's fences reference
    /// (whole sectors).
    pub worm: Vec<(u64, Vec<u8>)>,
    /// Encoded record bodies (`lsn | kind | payload`), contiguous LSNs.
    pub records: Vec<Vec<u8>>,
}

/// A point-in-time view of a replica's replication progress.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ReplicaStatus {
    /// Whether the replica holds an installed base and serves reads.
    pub serving: bool,
    /// LSN of the newest installed fence (0 before the first install).
    pub applied_lsn: Lsn,
    /// LSN of the newest record in the replica's local log copy — received
    /// and durable locally, but possibly past the newest installed fence.
    /// This is the freshness signal promotion tooling compares across
    /// replicas: promotion keeps the fences at or below it.
    pub received_lsn: Lsn,
    /// The primary's durable watermark as of the newest poll (0 before
    /// the first).
    pub source_durable_lsn: Lsn,
    /// `source_durable_lsn − applied_lsn`: the full applied-vs-durable LSN
    /// delta (LSNs are densely assigned, so this is also a record count).
    pub lag_records: u64,
    /// `source_durable_lsn − received_lsn`: records durable on the primary
    /// that have not reached this replica's local log yet (ship lag). The
    /// remainder of `lag_records` is received-but-unapplied.
    pub ship_lag_records: u64,
    /// Milliseconds since the replica last made progress (applied a batch
    /// or confirmed it was caught up); 0 when not lagging.
    pub lag_ms: u64,
}

/// The error every read answers while a replica awaits its first base.
pub(crate) fn not_serving() -> TsbError {
    TsbError::config("replica is not serving yet (awaiting a base image from the primary)")
}

// ---------------------------------------------------------------------------
// Primary side
// ---------------------------------------------------------------------------

/// The primary end of the replication stream: tails a durable
/// [`ShardedTsb`]'s log and captures base images. Cheap to construct;
/// safe to use concurrently with the primary's writers (polls never take
/// a writer lock — only [`Self::base`] does, briefly).
pub struct ReplicationSource {
    db: ShardedTsb,
    tailer: Mutex<WalTailer>,
}

impl ReplicationSource {
    /// Wraps a durable primary. Fails on an in-memory engine — there is
    /// no log to ship — and on a replica: subscribe to its primary.
    pub fn new(db: &ShardedTsb) -> TsbResult<ReplicationSource> {
        if db.is_replica() {
            return Err(TsbError::config(
                "cascading replication is not supported: subscribe to the primary",
            ));
        }
        let wal = db.wal().ok_or_else(|| {
            TsbError::config("replication requires a durable (WAL-attached) primary")
        })?;
        Ok(ReplicationSource {
            db: db.clone(),
            tailer: Mutex::new(WalTailer::new(wal.path())),
        })
    }

    /// The primary's durable-LSN watermark (the shipping limit).
    pub fn durable_lsn(&self) -> Lsn {
        self.db.durable_lsn()
    }

    /// Returns the records after `after_lsn` (up to the durable
    /// watermark, capped near `max_bytes`) plus, for each shard, the WORM
    /// bytes the batch's fences reference beyond the subscriber's
    /// `worm_have[shard]` length. An empty batch means the subscriber is
    /// caught up.
    pub fn poll(
        &self,
        after_lsn: Lsn,
        worm_have: &[u64],
        max_bytes: usize,
    ) -> TsbResult<ShippedBatch> {
        let shards = self.db.shards();
        if worm_have.len() != shards.len() {
            return Err(TsbError::config(format!(
                "the subscriber holds the history of {} shards; this primary has {}",
                worm_have.len(),
                shards.len()
            )));
        }
        let durable = self.durable_lsn();
        let (mut tag, records) = match self.tailer.lock().poll(after_lsn, durable, max_bytes)? {
            TailPoll::NeedsRebase => {
                return Ok(ShippedBatch {
                    needs_rebase: true,
                    durable_lsn: durable,
                    worm: Vec::new(),
                    records: Vec::new(),
                })
            }
            TailPoll::Batch { shard, records } => (shard, records),
        };
        // Ship each shard's history through the newest fence part naming
        // it: a part's `worm_len` is the device length its commit depends
        // on, and fences only become durable after the pre-sync hook made
        // that prefix stable — so the reads below cannot race an unsynced
        // append.
        let mut target = worm_have.to_vec();
        for body in &records {
            let (_, record) = WalRecord::decode_body(body)?;
            tag = record.tag_after(tag);
            for (shard, worm_len) in fence_worm_lens(&record, tag) {
                if let Some(want) = target.get_mut(shard) {
                    *want = (*want).max(worm_len);
                }
            }
        }
        let worm = shards
            .iter()
            .zip(worm_have.iter().zip(target))
            .map(|(shard, (&have, want))| {
                let bytes = match want.checked_sub(have) {
                    Some(len) if len > 0 => shard.tree().worm.read_raw(have, len as usize)?,
                    _ => Vec::new(),
                };
                Ok((have, bytes))
            })
            .collect::<TsbResult<_>>()?;
        Ok(ShippedBatch {
            needs_rebase: false,
            durable_lsn: durable,
            worm,
            records,
        })
    }

    /// Captures a consistent base image under every writer lock of the
    /// primary: checkpoints (so the log is exactly one checkpoint fence and
    /// the devices equal the checkpointed state) and snapshots every
    /// shard's pages and WORM plus the checkpoint body. Expensive and
    /// briefly write-blocking; used only to bootstrap or re-base a replica.
    pub fn base(&self) -> TsbResult<ReplicaBase> {
        let epoch = self.db.epoch();
        self.db.with_every_writer(|t| capture_base(t, epoch))
    }
}

/// [`ReplicationSource::base`] over the trees of one log, in shard order,
/// of an engine at `epoch`.
fn capture_base(trees: &[&TsbTree], epoch: u64) -> TsbResult<ReplicaBase> {
    let first = trees.first().ok_or_else(not_serving)?;
    let checkpoint = checkpoint_log(trees)?
        .ok_or_else(|| TsbError::config("replication requires a durable (WAL-attached) primary"))?;
    let (checkpoint_lsn, _) = WalRecord::decode_body(&checkpoint)?;
    let shards = trees
        .iter()
        .map(|tree| {
            let mut ids = tree.magnetic.allocated_page_ids();
            ids.sort_unstable();
            let pages = ids
                .into_iter()
                .map(|page| Ok((page, tree.magnetic.read(page)?)))
                .collect::<TsbResult<_>>()?;
            let worm = tree.worm.read_raw(0, tree.worm.device_bytes() as usize)?;
            Ok(ShardImage { pages, worm })
        })
        .collect::<TsbResult<_>>()?;
    let cfg = first.config();
    Ok(ReplicaBase {
        checkpoint_lsn,
        checkpoint,
        shards,
        page_size: cfg.page_size,
        worm_sector_size: cfg.worm_sector_size,
        epoch,
    })
}

// ---------------------------------------------------------------------------
// Replica side
// ---------------------------------------------------------------------------

/// The replica half of a [`ShardedTsb`]: where it lives, how far it has
/// applied, and the applier's state while it applies.
pub(crate) struct Replica {
    dir: PathBuf,
    /// Cleared by [`ShardedTsb::promote`]: the engine is a primary since.
    applying: AtomicBool,
    /// `None` while awaiting a base, and once promoted: the applier
    /// recovery replayed the local log with, applying the stream since.
    /// One applier at a time; readers never touch it.
    apply: Mutex<Option<Applier>>,
    applied_lsn: AtomicU64,
    source_durable: AtomicU64,
    /// When the replica last made progress (applied or caught-up batch).
    last_progress: Mutex<Instant>,
}

impl Replica {
    /// Whether the engine still applies a shipped log (not promoted).
    pub(crate) fn is_applying(&self) -> bool {
        self.applying.load(Ordering::Acquire)
    }

    /// LSN of the newest installed fence.
    pub(crate) fn applied_lsn(&self) -> Lsn {
        self.applied_lsn.load(Ordering::Acquire)
    }

    /// Replication progress; `serving` says whether a base is installed.
    pub(crate) fn status(&self, serving: bool) -> ReplicaStatus {
        let applied_lsn = self.applied_lsn();
        let apply = self.apply.lock();
        let received_lsn = apply.as_ref().map_or(applied_lsn, Applier::last_lsn);
        drop(apply);
        let source_durable_lsn = self.source_durable.load(Ordering::Acquire);
        let lag_records = source_durable_lsn.saturating_sub(applied_lsn);
        let lag_ms = if lag_records == 0 && serving {
            0
        } else {
            self.last_progress.lock().elapsed().as_millis() as u64
        };
        ReplicaStatus {
            serving,
            applied_lsn,
            received_lsn,
            source_durable_lsn,
            lag_records,
            ship_lag_records: source_durable_lsn.saturating_sub(received_lsn),
            lag_ms,
        }
    }
}

/// The replica verbs of the engine (see the module docs).
impl ShardedTsb {
    /// Opens the replica at `dir`, at the shard count its files are laid
    /// out for: recovers each shard from the local log copy if one is usable (crash-consistent, exactly
    /// like primary recovery but fence-faithful — see
    /// `TsbTree::open_durable_replica`), or starts with no shard at all,
    /// answering every read with a not-serving error until
    /// [`Self::install_base`]. A half-installed base (marker file present)
    /// is wiped. The engine serves at the directory's promotion epoch.
    /// Reached through [`crate::TsbOptions::open_replica`].
    pub(crate) fn open_replica(dir: &Path, cfg: TsbConfig) -> TsbResult<ShardedTsb> {
        cfg.validate()?;
        let epoch = read_epoch(dir)?;
        let layout = existing_layout(dir)?;
        let replica = Replica {
            dir: dir.to_path_buf(),
            applying: AtomicBool::new(true),
            apply: Mutex::new(None),
            applied_lsn: AtomicU64::new(0),
            source_durable: AtomicU64::new(0),
            last_progress: Mutex::new(Instant::now()),
        };
        let marker = dir.join(INSTALLING_MARKER);
        let recovered = if marker.exists() {
            // A base install died part-way: none of the files are
            // trustworthy. Wipe and wait for a fresh base.
            DurableFiles::wipe(&layout)?;
            std::fs::remove_file(&marker)?;
            None
        } else {
            TsbTree::open_durable_replica(&layout, &cfg)?
        };
        let (engines, clock) = match recovered {
            None => (Vec::new(), Arc::new(LogicalClock::new())),
            Some(rec) => {
                // A shard is complete through its own last fence, not
                // through the clock every shard shares.
                let trees = rec.trees.into_iter();
                let engines =
                    trees.map(|(tree, fence)| Shard::from_tree_at(tree, fence.state.1.prev()));
                let applied = rec.applier.cut().unwrap_or(0);
                replica.applied_lsn.store(applied, Ordering::Release);
                *replica.apply.lock() = Some(rec.applier);
                (engines.collect(), rec.clock)
            }
        };
        Ok(Self::from_parts(engines, clock, cfg, Some(replica), epoch))
    }

    /// The replica half, or the error a verb only replicas have answers.
    fn replica_half(&self) -> TsbResult<&Replica> {
        self.replica()
            .ok_or_else(|| TsbError::config("this engine was not opened as a replica"))
    }

    /// The directory a replica lives in (`None` on a primary, promoted
    /// replicas included).
    pub fn replica_dir(&self) -> Option<&Path> {
        self.replica().map(|r| r.dir.as_path())
    }

    /// Whether this replica needs a [`ReplicaBase`] before it can apply
    /// records (fresh directory, or a wiped half-install).
    pub fn needs_base(&self) -> bool {
        self.is_replica() && self.shards().is_empty()
    }

    /// The resume cursor: LSN of the newest record in the local log, to
    /// pass as `after_lsn` to [`ReplicationSource::poll`] (directly or
    /// over the wire). `None` when a base is needed first.
    pub fn resume_lsn(&self) -> Option<Lsn> {
        self.replica()?.apply.lock().as_ref().map(Applier::last_lsn)
    }

    /// Each shard's local WORM device length, to report as `worm_have`
    /// when polling.
    pub fn worm_have(&self) -> Vec<u64> {
        let shards = self.shards().iter();
        shards.map(|s| s.tree().worm.device_bytes()).collect()
    }

    /// Re-recovers the replica from its directory — the in-process
    /// equivalent of killing and restarting it — and returns the engine to
    /// serve from then on; this one stops applying.
    ///
    /// A batch that failed part-way leaves records in the local log that
    /// its batch-end fsync never covered, and replica recovery ends in no
    /// checkpoint that would. No sync is needed here all the same:
    /// [`tsb_storage::Wal::open`] forces the prefix it scanned before
    /// recovery installs a page from it.
    pub fn reopen(&self) -> TsbResult<ShardedTsb> {
        let replica = self.replica_half()?;
        *replica.apply.lock() = None;
        Self::open_replica(&replica.dir, self.config().clone())
    }

    /// Refuses a base at promotion epoch `epoch` when it is older than
    /// this node's: a node ahead of its primary (a promotion that failed
    /// past its epoch bump) keeps its directory rather than follow that
    /// lineage. The rule [`Self::install_base`] applies, for a fetcher to
    /// ask as soon as the primary names its base's epoch, before any page
    /// moves.
    pub fn admit_base_epoch(&self, epoch: u64) -> TsbResult<()> {
        let ours = self.epoch();
        if epoch < ours {
            return Err(TsbError::config(format!(
                "the base is at promotion epoch {epoch}, behind this node's {ours}"
            )));
        }
        Ok(())
    }

    /// Installs a base image and returns the replica recovered from it,
    /// to serve from then on; this one stops applying. Wipes the local
    /// state first (under a crash marker, so a death mid-install is
    /// detected and re-wiped), lays the directory out for the base's shard
    /// count, then lays down each shard's pages and WORM prefix and the
    /// checkpoint fence, and recovers from the result exactly as a restart
    /// would.
    /// It adopts the base's promotion epoch once the install is complete,
    /// and refuses a base of an older epoch than its own before touching
    /// anything ([`Self::admit_base_epoch`]).
    pub fn install_base(&self, base: &ReplicaBase) -> TsbResult<ShardedTsb> {
        let replica = self.replica_half()?;
        self.admit_base_epoch(base.epoch)?;
        let cfg = self.config();
        if base.page_size != cfg.page_size {
            return Err(TsbError::config(format!(
                "primary page size {} does not match replica config page size {}",
                base.page_size, cfg.page_size
            )));
        }
        if base.worm_sector_size != cfg.worm_sector_size {
            return Err(TsbError::config(format!(
                "primary WORM sector size {} does not match replica config sector size {}",
                base.worm_sector_size, cfg.worm_sector_size
            )));
        }
        let mut apply = replica.apply.lock();
        *apply = None;
        let marker = replica.dir.join(INSTALLING_MARKER);
        std::fs::File::create(&marker)?.sync_all()?;
        DurableFiles::wipe(&existing_layout(&replica.dir)?)?;
        let layout = relayout(&replica.dir, base.shards.len())?;
        let files = DurableFiles::create(&layout, cfg)?;
        for ((magnetic, worm), image) in files.stores.iter().zip(&base.shards) {
            for (page, bytes) in &image.pages {
                magnetic.restore(*page, bytes)?;
            }
            magnetic.sync()?;
            worm.restore_tail(0, &image.worm)?;
            worm.sync()?;
        }
        files.wal.append_shipped(&base.checkpoint)?;
        files.wal.sync()?;
        drop(files);
        std::fs::remove_file(&marker)?;
        persist_epoch(&replica.dir, base.epoch)?;
        drop(apply);
        let db = Self::open_replica(&replica.dir, cfg.clone())?;
        if db.needs_base() {
            return Err(TsbError::internal(
                "freshly installed replica base did not recover to a serving state",
            ));
        }
        Ok(db)
    }

    /// Applies one shipped batch per the module-level protocol. An error
    /// may leave the batch part-way applied, so the engine stops applying
    /// (its [`Self::resume_lsn`] is `None`) and serves what it had
    /// installed; apply through [`Self::reopen`]'s engine (crash-equivalent
    /// local recovery) from then on — exactly what the subscription runner
    /// does.
    pub fn apply_batch(&self, batch: &ShippedBatch) -> TsbResult<()> {
        let replica = self.replica_half()?;
        if batch.needs_rebase {
            return Err(TsbError::config(
                "the primary no longer retains this replica's resume point; \
                 install a fresh base image",
            ));
        }
        let mut guard = replica.apply.lock();
        let st = guard.as_mut().ok_or_else(not_serving)?;
        let applied = self.apply_to(replica, st, batch);
        if applied.is_err() {
            *guard = None;
        }
        applied
    }

    fn apply_to(&self, replica: &Replica, st: &mut Applier, batch: &ShippedBatch) -> TsbResult<()> {
        // Publish the primary's watermark *before* applying: a status read
        // mid-batch may then over-report lag, never under-report it. Even
        // so, lag zero only means "applied everything the primary had
        // durable as of this batch" — promotion tooling that must lose
        // nothing compares `applied_lsn` against the primary's own
        // `durable_lsn` instead (see `EngineHandle::durable_lsn`).
        replica
            .source_durable
            .fetch_max(batch.durable_lsn, Ordering::AcqRel);
        let shards = self.shards();
        let wal = self.wal();
        let wal = wal.ok_or_else(|| TsbError::internal("replica tree has no local log"))?;

        // 1. History first (see module docs).
        if !batch.worm.is_empty() && batch.worm.len() != shards.len() {
            return Err(TsbError::corruption(format!(
                "a batch ships the history of {} shards to a {}-shard replica",
                batch.worm.len(),
                shards.len()
            )));
        }
        for (shard, (start, bytes)) in shards.iter().zip(&batch.worm) {
            let worm = &shard.tree().worm;
            let have = worm.device_bytes();
            let skip = have.checked_sub(*start).ok_or_else(|| {
                TsbError::corruption(format!(
                    "shipped WORM bytes start at {start} but the replica device holds {have}"
                ))
            })? as usize;
            if skip < bytes.len() {
                worm.restore_tail(have, &bytes[skip..])?;
                worm.sync()?;
            }
        }

        // 2. Records in order through the applier, each appended locally
        //    once it is taken. A fence passes the fence rule *before* it
        //    reaches the local log: a batch is input from outside the
        //    process, and a fence over history this device does not hold
        //    must never be logged, let alone installed.
        let worm_on_device: Vec<u64> = shards
            .iter()
            .map(|s| s.tree().worm.device_bytes())
            .collect();
        // A page no fenced state holds starts from the device, which holds
        // the shard's last installed fence.
        let device = |shard: usize, page: PageId| {
            let tree = shards[shard].tree();
            tree.magnetic.read(page).map(|b| Some(ReplayPage::Raw(b)))
        };
        for body in &batch.records {
            let (lsn, record) = WalRecord::decode_body(body)?;
            if lsn <= st.last_lsn() {
                // Reconnect overlap: already in the local log.
                continue;
            }
            match st.feed(lsn, record, &worm_on_device, device)? {
                FenceReading::PastDevice { shard, worm_len } => {
                    let on_device = worm_on_device[shard];
                    return Err(fence_past_device(
                        "shipped", lsn, shard, worm_len, on_device,
                    ));
                }
                FenceReading::Describes {
                    commit_ts: None, ..
                } => {
                    // The stage the checkpoint discarded described state
                    // the primary's log reset threw away. Every earlier
                    // record is made durable locally, then a sound local
                    // recovery base: the devices synced to exactly the
                    // checkpointed state, then the record.
                    wal.sync()?;
                    self.install(replica, st)?;
                    for tree in shards.iter().map(Shard::tree) {
                        tree.magnetic.sync()?;
                        tree.worm.sync()?;
                    }
                    wal.append_shipped(body)?;
                    wal.sync()?;
                }
                // A page record, a shard switch or a commit.
                _ => {
                    wal.append_shipped(body)?;
                }
            }
        }

        // 3. Local durability, then the batch's fences install.
        wal.sync()?;
        self.install(replica, st)?;
        *replica.last_progress.lock() = Instant::now();
        Ok(())
    }

    /// Installs each shard's pending fence under the shard's writer lock
    /// with its structure epoch marked in flight, so concurrent readers
    /// retry around the multi-page install: each page device first, then
    /// its cached node discarded (a racing fill that decoded stale bytes
    /// began before the discard bumped the cache shard's stamp, so
    /// `complete_fill` refuses it), then the root, clock and transaction
    /// counter (which the shipped fence alone carries: a replica restarts
    /// from its log). Last, a commit fence is booked for `last_durable_commit`
    /// and the shard's install fence advances.
    fn install(&self, replica: &Replica, st: &mut Applier) -> TsbResult<()> {
        for (shard, db) in self.shards().iter().enumerate() {
            let Some((fence, pages)) = st.take_pending(shard) else {
                continue;
            };
            let (root, clock_next, next_txn) = fence.state;
            let tree = db.tree();
            let _writer = db.lock_writer();
            tree.check_not_poisoned()?;
            tree.note_structural_write();
            let installed: TsbResult<()> = pages.into_iter().try_for_each(|(page, state)| {
                tree.magnetic.restore(page, &state.into_bytes())?;
                tree.cache.discard(NodeAddr::Current(page));
                Ok(())
            });
            if installed.is_ok() {
                *tree.root.write() = root;
                tree.clock.advance_to(clock_next);
                *tree.txns.lock() = TxnTable::starting_at(next_txn);
            }
            tree.settle_structure();
            installed?;
            if let Some(ts) = fence.commit_ts {
                tree.fence_appended(fence.lsn, ts)?;
            }
            db.advance_fence(clock_next.prev());
            replica.applied_lsn.fetch_max(fence.lsn, Ordering::AcqRel);
        }
        Ok(())
    }

    /// Stops applying: the replica becomes a primary over its own
    /// directory, at the prefix it has installed, and returns its bumped
    /// promotion epoch, fsynced first (and the engine's from then on, even
    /// if the rest fails). As the primary recovery of this directory would,
    /// it drops the un-fenced shipped tail, erases the versions of
    /// transactions still open on the old primary, and fences the result
    /// with one checkpoint of every shard. Idempotent; on a primary it
    /// returns the epoch.
    ///
    /// Refused on an engine that stopped applying after a failed batch or
    /// a failed promotion: its memory may hold a shard part-way installed,
    /// so promote the engine [`Self::reopen`] returns instead.
    pub fn promote(&self) -> TsbResult<u64> {
        let Some(replica) = self.replica() else {
            return Ok(self.epoch());
        };
        let mut apply = replica.apply.lock();
        if !replica.is_applying() {
            return Ok(self.epoch());
        }
        if self.shards().is_empty() {
            return Err(TsbError::config(
                "a replica awaiting its first base image has nothing to promote",
            ));
        }
        if apply.is_none() {
            return Err(TsbError::config(
                "a failed apply stopped this replica part-way: promote the engine reopen() returns",
            ));
        }
        let epoch = self.epoch().saturating_add(1);
        persist_epoch(&replica.dir, epoch)?;
        self.set_epoch(epoch);
        // A failure may leave some shards purged or fenced: this engine
        // stops applying either way.
        *apply = None;
        self.with_every_writer(|trees| {
            for tree in trees {
                tree.purge_uncommitted()?;
                tree.verify()?;
            }
            checkpoint_log(trees)
        })?;
        replica.applying.store(false, Ordering::Release);
        Ok(epoch)
    }
}

#[cfg(test)]
mod tests;
