//! WAL shipping: a primary streams its redo log to read-only replicas.
//!
//! The Time-Split B-tree's redo log is *physical* — page images on first
//! touch per checkpoint interval, logical page deltas after, and commit /
//! checkpoint fences carrying the tree metadata. That makes it a complete
//! replication stream for free: a replica that keeps a byte-faithful local
//! copy of the primary's log and repeats history through the newest
//! shipped fence holds exactly the primary's durable state at that fence.
//! This module is the two ends of that stream:
//!
//! * [`ReplicationSource`] — the primary side. Wraps a durable
//!   [`ConcurrentTsb`]; [`ReplicationSource::poll`] tails the log file
//!   (via [`tsb_storage::WalTailer`]) up to the **durable** watermark —
//!   a replica must never apply a record the primary could still lose —
//!   and ships each batch together with the WORM bytes the batch's fences
//!   reference. [`ReplicationSource::base`] captures a consistent full
//!   image (checkpoint fence + every magnetic page + the WORM prefix) for
//!   bootstrapping a new replica or re-basing one that a checkpoint's log
//!   reset left behind.
//! * [`ReplicaEngine`] — the replica side. Appends shipped record bodies
//!   to a local log (primary LSNs preserved, so restart is ordinary redo
//!   recovery), stages page state in an in-memory overlay, and **installs
//!   only at commit fences**, after the local log is fsynced through the
//!   fence. Reads are served from an inner [`ConcurrentTsb`] whose install
//!   fence is pinned at the newest applied commit — so scans and as-of
//!   reads on the replica obey exactly the primary's fence-pinned read
//!   rule, at the replica's applied prefix.
//!
//! ## The apply protocol (and why each step is ordered)
//!
//! For each shipped batch:
//!
//! 1. **WORM first.** The batch's historical bytes are appended and
//!    synced before any log record that references them — the same
//!    history-before-fence rule the primary's WAL pre-sync hook enforces.
//! 2. **Records append to the local log and stage in an overlay.** Page
//!    images replace the staged entry; deltas apply to it (falling back to
//!    the fenced overlay, then the device image, for pages whose
//!    first-touch image predates this replica's log — the device equals
//!    the state at the last installed fence, so it is a valid delta base).
//! 3. **A commit fence folds the staging area into the fenced overlay.**
//!    Only fenced state may ever reach the device: records after the last
//!    fence may yet be discarded by the primary (a failed mutation's
//!    phantom deltas superseded by a checkpoint reset). Every fence first
//!    passes the fence rule (`tree/recover.rs`, the one recovery uses): a
//!    batch is input from outside the process, and a fence referencing
//!    more history than step 1 left on the device is refused as
//!    corruption *before* it reaches the local log — the replica keeps
//!    serving its last installed fence, and a primary that ships the
//!    history on the next poll heals it.
//! 4. **At batch end: fsync the local log, then install.** Installing a
//!    fence before the local log is durable through it could leave a
//!    restart's device holding page content its log never mentions.
//!    Install happens under the engine's writer lock with the structure
//!    epoch marked in flight, so concurrent readers retry instead of
//!    seeing a torn multi-page state; the read fence advances to the
//!    fence's commit timestamp last.
//! 5. **A primary checkpoint record is applied inline**: staging is
//!    discarded (phantom rule above), pending fences install, the devices
//!    are flushed and synced to exactly the checkpointed state, and only
//!    then is the checkpoint appended (and synced) locally — making it a
//!    sound base for the replica's own restart recovery, which replays
//!    from the newest local checkpoint assuming the device equals it.
//!
//! The replica never writes records of its own: no purge fences, no local
//! checkpoints (either would collide with the primary's LSN namespace).
//! Its local log only grows; when the primary's checkpoint reset discards
//! records the replica never fetched, [`ShippedBatch::needs_rebase`] tells
//! it to wipe and re-bootstrap from a fresh base image.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use parking_lot::{Mutex, RwLock};

use tsb_common::{
    Key, KeyRange, TimeRange, Timestamp, TsbConfig, TsbError, TsbResult, TxnId, Version,
};
use tsb_storage::{FaultInjector, IoSnapshot, Lsn, PageId, TailPoll, WalRecord, WalTailer};

use crate::concurrent::ConcurrentTsb;
use crate::engine::{EngineHandle, EngineRole};
use crate::sharded::ShardLsn;
use crate::tree::recover::{
    fence_past_device, fence_rule, fence_worm_len, refuse_two_phase, DurableFiles, FenceReading,
    FenceState,
};
use crate::tree::replay::{apply_page_record, ReplayPage};
use crate::tree::TsbTree;

/// Marker file present while a base image install is in progress. A
/// restart that finds it wipes the half-installed state and waits for a
/// fresh base.
const INSTALLING_MARKER: &str = "replica.installing";

/// A consistent full image of a primary, for bootstrapping (or re-basing)
/// a replica: the checkpoint fence's exact logged body plus everything it
/// describes. Captured under the primary's writer lock by
/// [`ReplicationSource::base`]; installed by
/// [`ReplicaEngine::install_base`].
pub struct ReplicaBase {
    /// LSN of the checkpoint fence — the replica's first local record and
    /// its resume cursor.
    pub checkpoint_lsn: Lsn,
    /// The checkpoint record's encoded body, byte-identical to the
    /// primary's log (the replica seeds its local log with it, preserving
    /// the primary's LSN chain).
    pub checkpoint: Vec<u8>,
    /// Every allocated magnetic page and its device image, ascending id.
    pub pages: Vec<(PageId, Vec<u8>)>,
    /// The whole WORM device (padded to sectors, as on the primary).
    pub worm: Vec<u8>,
    /// The primary's page size; the replica refuses a mismatched config.
    pub page_size: usize,
    /// The primary's WORM sector size; likewise checked.
    pub worm_sector_size: usize,
}

/// One poll's worth of shipped log: record bodies in LSN order, the WORM
/// bytes the batch's fences reference, and the primary's durable
/// watermark (for lag accounting).
pub struct ShippedBatch {
    /// The subscriber's cursor predates the primary's oldest retained
    /// record (a checkpoint reset discarded the gap): the replica must
    /// wipe and re-bootstrap from a fresh [`ReplicaBase`]. When set, the
    /// other fields carry no records.
    pub needs_rebase: bool,
    /// The primary's durable-LSN watermark at poll time (the shipping
    /// limit: nothing past it is ever shipped).
    pub durable_lsn: Lsn,
    /// Device offset at which [`Self::worm`] starts (the subscriber's
    /// WORM length as reported in the poll).
    pub worm_start: u64,
    /// WORM bytes `[worm_start, worm_start + worm.len())` — whole sectors,
    /// covering every fence in the batch.
    pub worm: Vec<u8>,
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
    /// replicas: promotion recovers to the newest *fence* at or below it.
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
    /// Milliseconds since the replica last made progress (applied a fence
    /// or confirmed it was caught up); 0 when not lagging.
    pub lag_ms: u64,
}

// ---------------------------------------------------------------------------
// Primary side
// ---------------------------------------------------------------------------

/// The primary end of the replication stream: tails a durable
/// [`ConcurrentTsb`]'s log and captures base images. Cheap to construct;
/// safe to use concurrently with the primary's writers (polls never take
/// the writer lock — only [`Self::base`] does, briefly).
pub struct ReplicationSource {
    db: ConcurrentTsb,
    tailer: Mutex<WalTailer>,
}

impl ReplicationSource {
    /// Wraps a durable engine. Fails on an in-memory (non-WAL) engine —
    /// there is no log to ship.
    pub fn new(db: &ConcurrentTsb) -> TsbResult<ReplicationSource> {
        let wal = db.tree().wal_handle().ok_or_else(|| {
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
    /// watermark, capped near `max_bytes`) plus the WORM bytes the
    /// batch's fences reference beyond the subscriber's `worm_have`
    /// length. An empty batch means the subscriber is caught up.
    pub fn poll(
        &self,
        after_lsn: Lsn,
        worm_have: u64,
        max_bytes: usize,
    ) -> TsbResult<ShippedBatch> {
        let tree = self.db.tree();
        let durable = self.durable_lsn();
        let poll = self.tailer.lock().poll(after_lsn, durable, max_bytes)?;
        match poll {
            TailPoll::NeedsRebase => Ok(ShippedBatch {
                needs_rebase: true,
                durable_lsn: durable,
                worm_start: worm_have,
                worm: Vec::new(),
                records: Vec::new(),
            }),
            TailPoll::Batch(records) => {
                // Ship history through the newest fence in the batch: a
                // fence's `worm_len` is the device length its commit
                // depends on, and fences only become durable after the
                // pre-sync hook made that prefix stable — so the read
                // below cannot race an unsynced append.
                let mut target = worm_have;
                for body in &records {
                    let (_, record) = WalRecord::decode_body(body)?;
                    target = target.max(fence_worm_len(&record).unwrap_or(0));
                }
                let worm = if target > worm_have {
                    tree.worm
                        .read_raw(worm_have, (target - worm_have) as usize)?
                } else {
                    Vec::new()
                };
                Ok(ShippedBatch {
                    needs_rebase: false,
                    durable_lsn: durable,
                    worm_start: worm_have,
                    worm,
                    records,
                })
            }
        }
    }

    /// Captures a consistent base image under the primary's writer lock:
    /// checkpoints (so the log is exactly `[Checkpoint]` and the devices
    /// equal the checkpointed state) and snapshots pages + WORM + the
    /// checkpoint body. Expensive and briefly write-blocking; used only to
    /// bootstrap or re-base a replica.
    pub fn base(&self) -> TsbResult<ReplicaBase> {
        let _writer = self.db.lock_writer();
        self.db.tree().capture_replication_base()
    }
}

// ---------------------------------------------------------------------------
// Replica side
// ---------------------------------------------------------------------------

/// A pending fence: the newest shipped commit (or checkpoint) whose state
/// is staged but not yet installed.
struct FenceInstall {
    lsn: Lsn,
    state: FenceState,
}

/// The apply-side state, serialized by the apply mutex (one applier —
/// the subscription runner — at a time; readers never touch it).
struct ApplyState {
    db: ConcurrentTsb,
    /// Page states from records after the newest seen fence. May yet be
    /// discarded (phantoms); never reaches the device.
    staged: HashMap<PageId, ReplayPage>,
    /// Page states as of the newest seen fence, awaiting install.
    fenced: HashMap<PageId, ReplayPage>,
    /// The state of the newest seen fence — what a shipped commit with
    /// elided metadata inherits from.
    chain: FenceState,
    /// The newest seen, not-yet-installed commit fence (only the newest
    /// matters: installs fold).
    pending: Option<FenceInstall>,
    /// LSN of the newest record in the local log: the resume cursor.
    last_lsn: Lsn,
    /// LSN of the newest installed fence.
    applied_lsn: Lsn,
}

struct ReplicaInner {
    dir: PathBuf,
    cfg: TsbConfig,
    /// The serving engine; `None` until a base is installed. Readers
    /// clone the handle out under a short read lock — they never contend
    /// with the applier's mutex.
    serving: RwLock<Option<ConcurrentTsb>>,
    apply: Mutex<Option<ApplyState>>,
    applied_lsn: AtomicU64,
    source_durable: AtomicU64,
    /// When the replica last made progress (install or caught-up poll).
    last_progress: Mutex<Instant>,
    /// Re-wired into the stores after every reopen / base install.
    injector: Mutex<Option<Arc<FaultInjector>>>,
}

/// A read-only replica engine fed by WAL shipping. Cloning is cheap
/// (shared state); all clones are the same replica.
///
/// It serves through [`EngineHandle`] and nothing else: reads are
/// fence-pinned at the newest **applied** fence
/// ([`EngineHandle::last_installed`] never exposes state past the applied
/// durable prefix) and writes are refused with [`TsbError::ReadOnly`].
#[derive(Clone)]
pub struct ReplicaEngine {
    inner: Arc<ReplicaInner>,
}

impl ReplicaEngine {
    /// Opens the replica state at `dir`: recovers from the local log copy
    /// if one is usable (crash-consistent, exactly like primary recovery
    /// but fence-faithful — see `TsbTree::open_durable_replica`), or
    /// starts empty awaiting a base image. A half-installed base (marker
    /// file present) is wiped. Reached through
    /// [`crate::TsbOptions::open_replica`].
    pub(crate) fn open(dir: impl AsRef<Path>, cfg: TsbConfig) -> TsbResult<ReplicaEngine> {
        cfg.validate()?;
        let engine = ReplicaEngine {
            inner: Arc::new(ReplicaInner {
                dir: dir.as_ref().to_path_buf(),
                cfg,
                serving: RwLock::new(None),
                apply: Mutex::new(None),
                applied_lsn: AtomicU64::new(0),
                source_durable: AtomicU64::new(0),
                last_progress: Mutex::new(Instant::now()),
                injector: Mutex::new(None),
            }),
        };
        engine.reopen()?;
        Ok(engine)
    }

    /// The replica's directory.
    pub fn dir(&self) -> &Path {
        &self.inner.dir
    }

    /// Whether a base is installed and reads are being served.
    pub fn is_serving(&self) -> bool {
        self.inner.serving.read().is_some()
    }

    /// Whether the replica needs a [`ReplicaBase`] before it can apply
    /// records (fresh directory, wiped half-install, or after a rebase
    /// signal).
    pub fn needs_base(&self) -> bool {
        !self.is_serving()
    }

    /// The resume cursor: LSN of the newest record in the local log, to
    /// pass as `after_lsn` to [`ReplicationSource::poll`] (directly or
    /// over the wire). `None` when a base is needed first.
    pub fn resume_lsn(&self) -> Option<Lsn> {
        self.inner.apply.lock().as_ref().map(|st| st.last_lsn)
    }

    /// The local WORM device length, to report as `worm_have` when
    /// polling. 0 when not serving.
    pub fn worm_have(&self) -> u64 {
        self.inner
            .apply
            .lock()
            .as_ref()
            .map(|st| st.db.tree().worm.device_bytes())
            .unwrap_or(0)
    }

    /// Replication progress, for the `replica_status` verb and lag
    /// accounting.
    pub fn status(&self) -> ReplicaStatus {
        let serving = self.is_serving();
        let applied_lsn = self.inner.applied_lsn.load(Ordering::Acquire);
        let received_lsn = self
            .inner
            .apply
            .lock()
            .as_ref()
            .map(|st| st.last_lsn)
            .unwrap_or(applied_lsn);
        let source_durable_lsn = self.inner.source_durable.load(Ordering::Acquire);
        let lag_records = source_durable_lsn.saturating_sub(applied_lsn);
        let ship_lag_records = source_durable_lsn.saturating_sub(received_lsn);
        let lag_ms = if lag_records == 0 && serving {
            0
        } else {
            self.inner.last_progress.lock().elapsed().as_millis() as u64
        };
        ReplicaStatus {
            serving,
            applied_lsn,
            received_lsn,
            source_durable_lsn,
            lag_records,
            ship_lag_records,
            lag_ms,
        }
    }

    /// Releases the replica's hold on its directory for promotion: drops
    /// the serving engine and the apply overlay (discarding staged
    /// post-fence state — exactly what primary recovery would discard
    /// anyway). After this the directory can be reopened as a primary with
    /// [`crate::TsbOptions::open`], whose recovery cuts at the
    /// newest durable commit fence. The replica stops serving; this handle
    /// is only good for [`Self::reopen`] afterwards.
    pub fn close(&self) {
        let mut apply = self.inner.apply.lock();
        *self.inner.serving.write() = None;
        *apply = None;
        self.inner.applied_lsn.store(0, Ordering::Release);
    }

    /// Wires `injector` into every device the replica writes, for crash
    /// tests. Survives [`Self::reopen`] and [`Self::install_base`] (the
    /// stores are rebuilt; the injector is re-attached).
    pub fn set_fault_injector(&self, injector: &Arc<FaultInjector>) {
        *self.inner.injector.lock() = Some(Arc::clone(injector));
        if let Some(db) = self.inner.serving.read().as_ref() {
            db.tree().set_fault_injector(injector);
        }
    }

    /// Drops the in-memory state and re-recovers from the local disk
    /// state — the in-process equivalent of killing and restarting the
    /// replica. Returns whether the replica is serving afterwards.
    ///
    /// A batch that failed part-way leaves records in the local log that
    /// its batch-end fsync never covered, and replica recovery ends in no
    /// checkpoint that would. No sync is needed here all the same:
    /// [`tsb_storage::Wal::open`] forces the prefix it scanned before
    /// recovery installs a page from it.
    pub fn reopen(&self) -> TsbResult<bool> {
        let mut apply = self.inner.apply.lock();
        *self.inner.serving.write() = None;
        *apply = None;
        self.inner.applied_lsn.store(0, Ordering::Release);

        let marker = self.inner.dir.join(INSTALLING_MARKER);
        if marker.exists() {
            // A base install died part-way: none of the files are
            // trustworthy. Wipe and wait for a fresh base.
            DurableFiles::wipe(&self.inner.dir)?;
            std::fs::remove_file(&marker)?;
            return Ok(false);
        }
        let Some(rec) = TsbTree::open_durable_replica(&self.inner.dir, self.inner.cfg.clone())?
        else {
            return Ok(false);
        };
        if let Some(injector) = self.inner.injector.lock().as_ref() {
            rec.tree.set_fault_injector(injector);
        }
        let db = ConcurrentTsb::from_tree(rec.tree);
        let mut st = ApplyState {
            db: db.clone(),
            staged: HashMap::new(),
            fenced: HashMap::new(),
            chain: rec.cut_state,
            pending: None,
            last_lsn: rec.last_lsn,
            applied_lsn: rec.applied_lsn,
        };
        // Re-seed the staging area with the un-fenced tail: shipped
        // records whose fence has not arrived yet. Their fence (or a
        // checkpoint discarding them) comes through the stream. The
        // fenced overlay is empty right after recovery and the device
        // equals the cut fence's state — a valid delta base.
        let from_device = |page| db.tree().replica_read_page(page).map(Some);
        for record in rec.tail {
            if !apply_page_record(&mut st.staged, record, from_device)? {
                return Err(TsbError::corruption(
                    "replica log tail holds a fence record past the recovery cut",
                ));
            }
        }
        self.inner
            .applied_lsn
            .store(st.applied_lsn, Ordering::Release);
        *self.inner.last_progress.lock() = Instant::now();
        *apply = Some(st);
        *self.inner.serving.write() = Some(db);
        Ok(true)
    }

    /// Installs a base image: wipes any existing local state (under a
    /// crash marker, so a death mid-install is detected and re-wiped) and
    /// lays down the shipped pages, WORM prefix, and checkpoint fence,
    /// then recovers from the result exactly as a restart would.
    pub fn install_base(&self, base: &ReplicaBase) -> TsbResult<()> {
        if base.page_size != self.inner.cfg.page_size {
            return Err(TsbError::config(format!(
                "primary page size {} does not match replica config page size {}",
                base.page_size, self.inner.cfg.page_size
            )));
        }
        if base.worm_sector_size != self.inner.cfg.worm_sector_size {
            return Err(TsbError::config(format!(
                "primary WORM sector size {} does not match replica config sector size {}",
                base.worm_sector_size, self.inner.cfg.worm_sector_size
            )));
        }
        {
            let mut apply = self.inner.apply.lock();
            *self.inner.serving.write() = None;
            *apply = None;
            self.inner.applied_lsn.store(0, Ordering::Release);

            std::fs::create_dir_all(&self.inner.dir)?;
            let marker = self.inner.dir.join(INSTALLING_MARKER);
            {
                let f = std::fs::File::create(&marker)?;
                f.sync_all()?;
            }
            DurableFiles::wipe(&self.inner.dir)?;
            let files = DurableFiles::create(&self.inner.dir, &self.inner.cfg)?;
            for (page, bytes) in &base.pages {
                files.magnetic.restore(*page, bytes)?;
            }
            files.magnetic.sync()?;
            files.worm.restore_tail(0, &base.worm)?;
            files.worm.sync()?;
            files.wal.append_shipped(&base.checkpoint)?;
            files.wal.sync()?;
            drop(files);
            std::fs::remove_file(&marker)?;
        }
        if !self.reopen()? {
            return Err(TsbError::internal(
                "freshly installed replica base did not recover to a serving state",
            ));
        }
        Ok(())
    }

    /// Applies one shipped batch per the module-level protocol. On error
    /// the in-memory apply state may be part-way through the batch; the
    /// caller should [`Self::reopen`] (crash-equivalent local recovery)
    /// before retrying — exactly what the subscription runner does.
    pub fn apply_batch(&self, batch: &ShippedBatch) -> TsbResult<()> {
        if batch.needs_rebase {
            return Err(TsbError::config(
                "the primary no longer retains this replica's resume point; \
                 install a fresh base image",
            ));
        }
        let mut guard = self.inner.apply.lock();
        let st = guard.as_mut().ok_or_else(|| {
            TsbError::config("replica is not serving yet (install a base image first)")
        })?;
        // Publish the primary's watermark *before* applying: a status read
        // mid-batch may then over-report lag, never under-report it. Even
        // so, lag zero only means "applied everything the primary had
        // durable as of this batch" — promotion tooling that must lose
        // nothing compares `applied_lsn` against the primary's own
        // `durable_lsn` instead (see `EngineHandle::durable_lsn`).
        let durable = self.inner.source_durable.load(Ordering::Acquire);
        self.inner
            .source_durable
            .store(durable.max(batch.durable_lsn), Ordering::Release);
        let db = st.db.clone();
        let tree = db.tree();
        let wal = tree
            .wal_handle()
            .ok_or_else(|| TsbError::internal("replica tree has no local log"))?;

        // 1. History first (see module docs).
        if !batch.worm.is_empty() {
            let have = tree.worm.device_bytes();
            if batch.worm_start > have {
                return Err(TsbError::corruption(format!(
                    "shipped WORM bytes start at {} but the replica device holds {have}",
                    batch.worm_start
                )));
            }
            let skip = (have - batch.worm_start) as usize;
            if skip < batch.worm.len() {
                tree.worm.restore_tail(have, &batch.worm[skip..])?;
                tree.worm.sync()?;
            }
        }

        // 2. Records in order: append locally, stage, fold at fences. A
        //    fence passes the fence rule *before* it reaches the local
        //    log: a batch is input from outside the process, and a fence
        //    over history this device does not hold must never be logged,
        //    let alone installed.
        let worm_on_device = tree.worm.device_bytes();
        for body in &batch.records {
            let (lsn, record) = WalRecord::decode_body(body)?;
            if lsn <= st.last_lsn {
                // Reconnect overlap: already in the local log.
                continue;
            }
            refuse_two_phase(&record)?;
            match fence_rule(&record, Some(st.chain), worm_on_device)? {
                FenceReading::NotAFence => {
                    wal.append_shipped(body)?;
                    // A page the staging area lacks starts from the fenced
                    // overlay, else from the device: its first touch
                    // predates this replica's log, and the device equals
                    // the last installed fence.
                    let fenced = &st.fenced;
                    apply_page_record(&mut st.staged, record, |page| match fenced.get(&page) {
                        Some(state) => Ok(Some(state.clone())),
                        None => tree.replica_read_page(page).map(Some),
                    })?;
                }
                FenceReading::PastDevice { worm_len } => {
                    return Err(fence_past_device("shipped", lsn, worm_len, worm_on_device));
                }
                FenceReading::Describes {
                    state,
                    commit_ts: Some(_),
                } => {
                    wal.append_shipped(body)?;
                    st.chain = state;
                    st.fenced.extend(st.staged.drain());
                    st.pending = Some(FenceInstall { lsn, state });
                }
                // A checkpoint (two-phase fences were refused above).
                FenceReading::Describes {
                    state,
                    commit_ts: None,
                } => {
                    // Phantom discard: un-fenced records describe state
                    // the primary's log reset threw away.
                    st.staged.clear();
                    // Sound local recovery base: earlier records durable
                    // in the local log, then the devices flushed + synced
                    // to exactly the checkpointed state, then the record.
                    wal.sync()?;
                    st.chain = state;
                    Self::install(&db, st, FenceInstall { lsn, state })?;
                    tree.replica_sync_devices()?;
                    wal.append_shipped(body)?;
                    wal.sync()?;
                    st.pending = None;
                }
            }
            st.last_lsn = lsn;
        }

        // 3. Local durability, then the batch's newest fence installs.
        wal.sync()?;
        if let Some(fence) = st.pending.take() {
            Self::install(&db, st, fence)?;
        }
        self.inner
            .applied_lsn
            .store(st.applied_lsn, Ordering::Release);
        *self.inner.last_progress.lock() = Instant::now();
        Ok(())
    }

    /// Installs the fenced overlay and a fence's metadata under the
    /// writer lock, then advances the read fence to the fence's commit
    /// timestamp. The structure epoch is marked in flight so concurrent
    /// readers retry around the multi-page install.
    fn install(db: &ConcurrentTsb, st: &mut ApplyState, fence: FenceInstall) -> TsbResult<()> {
        let tree = db.tree();
        {
            let _writer = db.lock_writer();
            tree.check_not_poisoned()?;
            tree.note_structural_write();
            let result = (|| -> TsbResult<()> {
                let fenced: Vec<(PageId, ReplayPage)> = st.fenced.drain().collect();
                for (page, state) in fenced {
                    tree.replica_install_page(page, &state.into_bytes())?;
                }
                tree.replica_install_meta(fence.state);
                Ok(())
            })();
            tree.settle_structure();
            result?;
        }
        let (_, clock_next, _) = fence.state;
        db.advance_fence(clock_next.prev());
        st.applied_lsn = fence.lsn;
        Ok(())
    }

    /// The serving engine, or the not-serving error every read maps to.
    fn serving_db(&self) -> TsbResult<ConcurrentTsb> {
        self.inner.serving.read().clone().ok_or_else(|| {
            TsbError::config("replica is not serving yet (awaiting a base image from the primary)")
        })
    }
}

/// Every write verb on a replica fails with this — the blocking `insert`
/// / `delete` / `commit_txn` inherit it through their deferred halves.
fn read_only<T>() -> TsbResult<T> {
    Err(TsbError::ReadOnly)
}

/// The engine verbs on a replica: reads are served at the newest
/// **applied** fence (and error while awaiting a base); writes refuse.
impl EngineHandle for ReplicaEngine {
    fn role(&self) -> EngineRole {
        EngineRole::Replica
    }

    fn shard_count(&self) -> usize {
        1
    }

    fn insert_deferred(&self, _: Key, _: Vec<u8>) -> TsbResult<(Timestamp, Option<ShardLsn>)> {
        read_only()
    }

    fn delete_deferred(&self, _: Key) -> TsbResult<(Timestamp, Option<ShardLsn>)> {
        read_only()
    }

    fn wait_durable(&self, _: ShardLsn) -> TsbResult<()> {
        read_only()
    }

    fn begin_txn(&self) -> TsbResult<TxnId> {
        read_only()
    }

    fn txn_insert(&self, _: TxnId, _: Key, _: Vec<u8>) -> TsbResult<()> {
        read_only()
    }

    fn txn_delete(&self, _: TxnId, _: Key) -> TsbResult<()> {
        read_only()
    }

    fn txn_get(&self, _: TxnId, _: &Key) -> TsbResult<Option<Vec<u8>>> {
        read_only()
    }

    fn commit_txn_deferred(&self, _: TxnId) -> TsbResult<(Timestamp, Option<ShardLsn>)> {
        read_only()
    }

    fn abort_txn(&self, _: TxnId) -> TsbResult<()> {
        read_only()
    }

    fn checkpoint(&self) -> TsbResult<()> {
        read_only()
    }

    fn get_current(&self, key: &Key) -> TsbResult<Option<Vec<u8>>> {
        self.serving_db()?.get_current(key)
    }

    /// `ts` is effectively capped at the applied fence.
    fn get_as_of(&self, key: &Key, ts: Timestamp) -> TsbResult<Option<Vec<u8>>> {
        self.serving_db()?.get_as_of(key, ts)
    }

    fn scan_as_of(&self, range: &KeyRange, ts: Timestamp) -> TsbResult<Vec<(Key, Vec<u8>)>> {
        self.serving_db()?.scan_as_of(range, ts)
    }

    fn scan_current(&self, range: &KeyRange) -> TsbResult<Vec<(Key, Vec<u8>)>> {
        self.serving_db()?.scan_current(range)
    }

    fn history_between(&self, key: &Key, window: TimeRange) -> TsbResult<Vec<Version>> {
        self.serving_db()?.history_between(key, window)
    }

    /// The applied fence: [`Timestamp::ZERO`] before the first install or
    /// while awaiting a base.
    fn last_installed(&self) -> Timestamp {
        let serving = self.inner.serving.read();
        serving
            .as_ref()
            .map_or(Timestamp::ZERO, |db| db.last_installed())
    }

    fn last_durable_commit(&self) -> Option<Timestamp> {
        // The applied fence *is* the replica's durable prefix: nothing is
        // installed before the local log is synced through it.
        let ts = self.last_installed();
        (ts != Timestamp::ZERO).then_some(ts)
    }

    fn durable_lsn(&self) -> Lsn {
        self.status().applied_lsn
    }

    fn verify(&self) -> TsbResult<()> {
        self.serving_db()?.verify()
    }

    fn config(&self) -> &TsbConfig {
        &self.inner.cfg
    }

    /// Counters of the serving stores (zeroes while awaiting a base).
    fn io_snapshot(&self) -> IoSnapshot {
        let serving = self.inner.serving.read();
        serving
            .as_ref()
            .map(|db| db.io_stats().snapshot())
            .unwrap_or_default()
    }

    fn replica_status(&self) -> Option<ReplicaStatus> {
        Some(self.status())
    }

    fn replication_source(&self) -> TsbResult<ReplicationSource> {
        Err(TsbError::config(
            "cascading replication is not supported: subscribe to the primary",
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsb_common::FsyncPolicy;

    struct TempDir(std::path::PathBuf);

    impl TempDir {
        fn new(tag: &str) -> Self {
            let dir = std::env::temp_dir().join(format!(
                "tsb-replica-{tag}-{}-{:?}",
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

    fn cfg() -> TsbConfig {
        TsbConfig::small_pages().with_fsync_policy(FsyncPolicy::Always)
    }

    fn sync_until_caught_up(source: &ReplicationSource, replica: &ReplicaEngine) -> TsbResult<()> {
        loop {
            if replica.needs_base() {
                replica.install_base(&source.base()?)?;
            }
            let batch = source.poll(
                replica.resume_lsn().expect("serving"),
                replica.worm_have(),
                tsb_storage::DEFAULT_BATCH_BYTES,
            )?;
            if batch.needs_rebase {
                replica.install_base(&source.base()?)?;
                continue;
            }
            if batch.records.is_empty() {
                return Ok(());
            }
            replica.apply_batch(&batch)?;
        }
    }

    fn assert_replica_matches(primary: &ConcurrentTsb, replica: &ReplicaEngine) {
        let range = KeyRange::full();
        let p = primary.scan_current(&range).unwrap();
        let r = replica.scan_current(&range).unwrap();
        assert_eq!(p, r, "replica diverges from primary at the applied fence");
        assert_eq!(primary.last_installed(), replica.last_installed());
    }

    #[test]
    fn base_then_stream_converges_and_serves_as_of_reads() {
        let pdir = TempDir::new("src-a");
        let rdir = TempDir::new("dst-a");
        let primary = crate::TsbOptions::durable(&pdir.0)
            .config(cfg())
            .open_concurrent()
            .unwrap();
        let mut stamps = Vec::new();
        for i in 0..40u64 {
            let ts = primary
                .insert(Key::from_u64(i % 8), format!("v{i}").into_bytes())
                .unwrap();
            stamps.push((i % 8, ts, format!("v{i}").into_bytes()));
        }
        let source = ReplicationSource::new(&primary).unwrap();
        let replica = ReplicaEngine::open(&rdir.0, cfg()).unwrap();
        assert!(replica.needs_base());
        assert!(replica.get_current(&Key::from_u64(0)).is_err());

        sync_until_caught_up(&source, &replica).unwrap();
        assert_replica_matches(&primary, &replica);

        // Incremental: more writes stream without a new base.
        for i in 40..80u64 {
            primary
                .insert(Key::from_u64(i % 8), format!("v{i}").into_bytes())
                .unwrap();
        }
        sync_until_caught_up(&source, &replica).unwrap();
        assert_replica_matches(&primary, &replica);

        // As-of reads against historical stamps answer exactly as the
        // primary does (history migrated to the WORM shipped too).
        for (k, ts, v) in &stamps {
            assert_eq!(
                replica.get_as_of(&Key::from_u64(*k), *ts).unwrap().as_ref(),
                Some(v),
                "as-of read diverged at ts {ts:?}"
            );
        }
        let status = replica.status();
        assert!(status.serving);
        assert_eq!(status.lag_records, 0);
    }

    #[test]
    fn replica_restart_resumes_from_its_local_log() {
        let pdir = TempDir::new("src-b");
        let rdir = TempDir::new("dst-b");
        let primary = crate::TsbOptions::durable(&pdir.0)
            .config(cfg())
            .open_concurrent()
            .unwrap();
        let source = ReplicationSource::new(&primary).unwrap();
        let replica = ReplicaEngine::open(&rdir.0, cfg()).unwrap();
        for i in 0..30u64 {
            primary
                .insert(Key::from_u64(i), format!("a{i}").into_bytes())
                .unwrap();
        }
        sync_until_caught_up(&source, &replica).unwrap();
        let resume = replica.resume_lsn().unwrap();
        drop(replica);

        // Restart: recovery from the local log copy, no new base needed.
        let replica = ReplicaEngine::open(&rdir.0, cfg()).unwrap();
        assert!(replica.is_serving());
        assert_eq!(replica.resume_lsn(), Some(resume));
        assert_replica_matches(&primary, &replica);

        for i in 0..30u64 {
            primary
                .insert(Key::from_u64(i), format!("b{i}").into_bytes())
                .unwrap();
        }
        sync_until_caught_up(&source, &replica).unwrap();
        assert_replica_matches(&primary, &replica);
    }

    #[test]
    fn primary_checkpoint_applies_in_place_when_caught_up_and_rebases_when_behind() {
        let pdir = TempDir::new("src-c");
        let rdir = TempDir::new("dst-c");
        let primary = crate::TsbOptions::durable(&pdir.0)
            .config(cfg())
            .open_concurrent()
            .unwrap();
        let source = ReplicationSource::new(&primary).unwrap();
        let replica = ReplicaEngine::open(&rdir.0, cfg()).unwrap();
        for i in 0..20u64 {
            primary.insert(Key::from_u64(i), b"one".to_vec()).unwrap();
        }
        sync_until_caught_up(&source, &replica).unwrap();

        // Caught up: the checkpoint record streams and applies in place.
        primary.checkpoint().unwrap();
        sync_until_caught_up(&source, &replica).unwrap();
        assert_replica_matches(&primary, &replica);

        // Behind a reset: writes + checkpoint while the replica is not
        // polling discard its resume point → rebase from a fresh base.
        for i in 20..40u64 {
            primary.insert(Key::from_u64(i), b"two".to_vec()).unwrap();
        }
        primary.checkpoint().unwrap();
        let batch = source
            .poll(
                replica.resume_lsn().unwrap(),
                replica.worm_have(),
                tsb_storage::DEFAULT_BATCH_BYTES,
            )
            .unwrap();
        assert!(batch.needs_rebase, "a reset past the cursor must rebase");
        sync_until_caught_up(&source, &replica).unwrap();
        assert_replica_matches(&primary, &replica);
    }

    /// A `Batch` reply is input from outside the process. One whose fences
    /// reference history it does not carry must be refused before the
    /// fence reaches the local log — not installed over a WORM device that
    /// lacks the bytes (reads past the device, and a restart that refuses
    /// its own log).
    #[test]
    fn a_fence_over_history_the_replica_lacks_is_refused_before_it_is_logged() {
        let pdir = TempDir::new("src-f");
        let rdir = TempDir::new("dst-f");
        let primary = crate::TsbOptions::durable(&pdir.0)
            .config(cfg())
            .open_concurrent()
            .unwrap();
        let source = ReplicationSource::new(&primary).unwrap();
        let replica = ReplicaEngine::open(&rdir.0, cfg()).unwrap();
        let probe = Key::from_u64(0);
        primary.insert(probe.clone(), b"base".to_vec()).unwrap();
        sync_until_caught_up(&source, &replica).unwrap();
        let applied = replica.status().applied_lsn;

        // Updates until history migrates onto the primary's WORM, so the
        // next batch's fences reference bytes the replica does not hold.
        for i in 0..80u64 {
            primary
                .insert(Key::from_u64(i % 4), format!("v{i}").into_bytes())
                .unwrap();
        }
        let poll = |replica: &ReplicaEngine| {
            source
                .poll(
                    replica.resume_lsn().expect("serving"),
                    replica.worm_have(),
                    tsb_storage::DEFAULT_BATCH_BYTES,
                )
                .unwrap()
        };
        let mut short = poll(&replica);
        assert!(!short.worm.is_empty(), "the batch must carry new history");
        short.worm.clear();

        let refused = replica.apply_batch(&short);
        assert!(
            matches!(&refused, Err(TsbError::Corruption(msg)) if msg.contains("shipped fence")),
            "a fence past the local WORM device must be refused, got {refused:?}"
        );
        // The replica keeps serving its last installed fence…
        assert_eq!(replica.status().applied_lsn, applied);
        assert_eq!(replica.get_current(&probe).unwrap(), Some(b"base".to_vec()));
        assert_eq!(
            replica
                .history_between(&probe, TimeRange::full())
                .unwrap()
                .len(),
            1
        );
        // …and its local log never saw the refused fence: a restart opens
        // (at the newest fence the batch held *before* it, whose history
        // is on the device).
        drop(replica);
        let replica = ReplicaEngine::open(&rdir.0, cfg()).unwrap();
        assert!(replica.is_serving());
        assert!(replica.status().applied_lsn >= applied);
        replica.verify().unwrap();

        // A primary that ships the history on the next poll heals it.
        let intact = poll(&replica);
        assert!(!intact.worm.is_empty());
        replica.apply_batch(&intact).unwrap();
        sync_until_caught_up(&source, &replica).unwrap();
        assert_replica_matches(&primary, &replica);
        assert_eq!(
            replica.history_between(&probe, TimeRange::full()).unwrap(),
            primary.history_between(&probe, TimeRange::full()).unwrap()
        );
    }

    #[test]
    fn half_installed_base_is_wiped_on_open() {
        let pdir = TempDir::new("src-d");
        let rdir = TempDir::new("dst-d");
        let primary = crate::TsbOptions::durable(&pdir.0)
            .config(cfg())
            .open_concurrent()
            .unwrap();
        primary.insert(Key::from_u64(1), b"x".to_vec()).unwrap();
        let source = ReplicationSource::new(&primary).unwrap();
        let replica = ReplicaEngine::open(&rdir.0, cfg()).unwrap();
        sync_until_caught_up(&source, &replica).unwrap();
        drop(replica);

        // Simulate a death mid-install: the marker survives alongside
        // stale-looking files.
        std::fs::write(rdir.0.join(INSTALLING_MARKER), b"").unwrap();
        let replica = ReplicaEngine::open(&rdir.0, cfg()).unwrap();
        assert!(replica.needs_base(), "marker must force a re-base");
        sync_until_caught_up(&source, &replica).unwrap();
        assert_replica_matches(&primary, &replica);
    }

    #[test]
    fn transactions_stream_with_their_uncommitted_windows() {
        let pdir = TempDir::new("src-e");
        let rdir = TempDir::new("dst-e");
        let primary = crate::TsbOptions::durable(&pdir.0)
            .config(cfg())
            .open_concurrent()
            .unwrap();
        let source = ReplicationSource::new(&primary).unwrap();
        let replica = ReplicaEngine::open(&rdir.0, cfg()).unwrap();

        // An open transaction's uncommitted versions ship inside the
        // stream (they are page content); the replica must serve reads
        // that skip them, then surface the commit once fenced.
        let txn = primary.begin_txn();
        primary
            .txn_insert(txn, Key::from_u64(7), b"pending".to_vec())
            .unwrap();
        primary.insert(Key::from_u64(1), b"seen".to_vec()).unwrap();
        sync_until_caught_up(&source, &replica).unwrap();
        assert_eq!(replica.get_current(&Key::from_u64(7)).unwrap(), None);
        assert_eq!(
            replica.get_current(&Key::from_u64(1)).unwrap(),
            Some(b"seen".to_vec())
        );

        primary.commit_txn(txn).unwrap();
        sync_until_caught_up(&source, &replica).unwrap();
        assert_eq!(
            replica.get_current(&Key::from_u64(7)).unwrap(),
            Some(b"pending".to_vec())
        );
        assert_replica_matches(&primary, &replica);
    }
}
