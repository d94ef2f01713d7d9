//! The write-ahead (redo) log for the current database.
//!
//! The paper's two-device design is only half durable by construction: the
//! WORM side is write-once hardware, so migrated history can never be lost,
//! but the magnetic current database is rewritten in place and buffered in
//! two volatile caches (the decoded-node cache and the buffer pool). This
//! module closes that gap with a **hybrid redo log**: the *first* dirtying
//! of a page per checkpoint interval appends its full image here *before*
//! the engine's caches may hold it dirty; every later content-only rewrite
//! of the same page appends only a compact logical [`PageOp`] delta. A
//! crash can always be repaired by replaying the images and re-applying
//! the deltas, in LSN order, over the magnetic store ("repeating
//! history").
//!
//! ## Record format
//!
//! The log is a flat file of length-prefixed, checksummed records:
//!
//! ```text
//! +----------+----------+===========================+
//! | len: u32 | crc: u32 |  body (len bytes)         |
//! +----------+----------+===========================+
//! body = lsn: u64 | kind: u8 | payload
//!
//! kind 1  PageImage   payload = page: u64 | bytes (u32-len-prefixed)
//! kind 2  Commit      payload = ts: u64 | worm_len: u64 | meta (u32-len-prefixed)
//! kind 3  Checkpoint  payload = worm_len: u64 | meta (u32-len-prefixed)
//! kind 4  PageDelta   payload = page: u64 | op (see PageOp::encode)
//! kind 5  Prepare     payload = ts: u64 | worm_len: u64 | meta (u32-len-prefixed)
//!                               | txn: u64 | coordinator: u32
//!                               | participants (u32 count, u32 each)
//! kind 6  Decision    payload = ts: u64 | participants (u32 count, u32 each)
//! ```
//!
//! A `PageDelta` is meaningful only relative to the page state built up by
//! the records before it: within one log generation, the engine guarantees
//! a `PageImage` of the page precedes the page's first delta (the
//! first-touch rule), so replay never has to trust — or even read — the
//! possibly-torn device image of a delta'd page. Deltas are *slot
//! assignments* (insert-or-replace a version, remove an uncommitted
//! version), so re-applying a replayed prefix over device state that
//! already contains it is idempotent.
//!
//! `crc` is CRC-32 (IEEE polynomial) over the body. On reopen the file is
//! scanned from the start; the first record whose length prefix runs past
//! the end of the file or whose CRC does not match marks a **torn tail**
//! (the machine died mid-append): the file is truncated there and replay
//! uses only the intact prefix. Nothing after a tear can be trusted — a
//! later record being intact does not mean the skipped one was benign.
//!
//! ## LSNs and the fence
//!
//! Every record carries a monotonically increasing **log sequence number**.
//! Two record kinds fence replay:
//!
//! * A **`Checkpoint`** record is appended (and always fsynced) only after
//!   a full flush — every dirty node encoded, every dirty page written,
//!   both devices synced. It promises "the magnetic store, as a device, is
//!   exactly the tree state described by my `meta` bytes". Recovery starts
//!   from the newest checkpoint and replays only records after it; its LSN
//!   is the *fence LSN* — nothing at or before it is ever replayed again.
//! * A **`Commit`** record is appended at the end of every mutation, after
//!   all of the mutation's page images. It promises "every image needed
//!   for the tree state described by my `meta` bytes precedes me in the
//!   log". Recovery replays page images up to the newest usable commit
//!   (the *cut*) and installs that commit's metadata (root pointer,
//!   logical clock, transaction counter). Images after the cut belong to a
//!   mutation that never finished logging and are discarded.
//!
//! A commit also records the WORM store's length at commit time: a commit
//! whose referenced history extends past the surviving WORM file cannot be
//! used as a cut (its index entries would dangle), so recovery stops at
//! the last commit whose `worm_len` fits.
//!
//! ## Group commit: one coalesced write per mutation
//!
//! Appends land in an in-process append buffer; the buffer is flushed to
//! the file with a single `write_all` when a fence record (`Commit` /
//! `Checkpoint`) is appended, when the flushed-LSN barrier or an fsync
//! needs the bytes in the file, or when it outgrows
//! `APPEND_BUFFER_FLUSH_BYTES`. One mutation — its page images, its
//! deltas, and its commit fence — therefore issues **one** write syscall
//! instead of one per record. Buffered bytes are always un-fenced (every
//! fence append flushes), so a process crash loses nothing acknowledged:
//! recovery's replay cut discards un-fenced records anyway.
//! [`tsb_common::FsyncPolicy`] chooses how often commit records
//! additionally force the file to stable storage; checkpoints always do.
//!
//! ## Pipelined commit: the fsync runs off the append path
//!
//! The device sync itself is **pipelined**: no append ever issues an
//! fsync inline. A commit at a policy boundary instead *requests*
//! durability of its fence LSN ([`Wal::append_commit`]) and then — on the
//! caller's schedule, typically after the engine has released its writer
//! lock — parks on the **durable-LSN watermark**
//! ([`Wal::wait_durable`]). A dedicated group-commit thread drains the
//! request queue: each drain captures the log tail, runs the pre-sync
//! hook, issues **one** `fsync` covering every commit appended up to the
//! capture, and broadcasts the new watermark to every parked committer.
//! While the device works, the next mutations keep appending (the inner
//! lock is not held across the sync), so under concurrent writers dozens
//! of commits share one fsync — `Always` durability at `EveryN`-like
//! throughput. A sync failure is sticky: it is published to the
//! watermark, every parked and future waiter errors, and the engine
//! poisons the tree. The per-policy wait rule: `Always` waits for its
//! own fence LSN, `EveryN(n)` waits only when its commit lands on a
//! group boundary, `Os` never waits.

use std::collections::{HashMap, HashSet};
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Condvar, Mutex as StdMutex, MutexGuard as StdMutexGuard};
use std::thread::JoinHandle;
use std::time::Instant;

use parking_lot::Mutex;

use tsb_common::checksum::crc32;
use tsb_common::encode::{ByteReader, ByteWriter};
use tsb_common::{FsyncPolicy, Key, Timestamp, TsbError, TsbResult, TxnId, Version};

use crate::fault::{CrashPoint, FaultInjector};
use crate::page::PageId;
use crate::stats::IoStats;

/// A log sequence number: the position of a record in the total order of
/// the log. Starts at 1; 0 means "nothing logged".
pub type Lsn = u64;

/// Upper bound on a single record body. Anything larger in a length prefix
/// is treated as a torn tail rather than an allocation request.
const MAX_RECORD_BODY: u32 = 64 << 20;

/// The append buffer is flushed to the file once it holds this many bytes,
/// even mid-mutation, bounding the process memory a huge split can pin.
const APPEND_BUFFER_FLUSH_BYTES: usize = 1 << 20;

/// A compact logical redo operation against one data (leaf) node — the
/// payload of a [`WalRecord::PageDelta`].
///
/// The content ops ([`InsertVersion`](Self::InsertVersion),
/// [`RemoveUncommitted`](Self::RemoveUncommitted)) are *slot assignments*
/// on the node's `(key, version-order)` entry map: applying one twice
/// equals applying it once. The structural ops record the *outcome* of a
/// split decision (the chosen split time or key); replay re-runs the same
/// pure partition function the forward path ran, against the same node
/// state the log rebuilt, so it reproduces the same result. Both families
/// replay deterministically in LSN order against the page's last logged
/// image — recovery never reads (or trusts) the device copy of a delta'd
/// page.
///
/// Wholesale content that cannot be derived from the page's prior state —
/// a freshly initialized node, a split piece landing on a new (or
/// recycled) page, a recovery repair — is never expressed as an op; it
/// logs a full [`WalRecord::PageImage`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum PageOp {
    /// Insert a version into the leaf, replacing any existing entry with
    /// the same `(key, version order)` — the redo image of an insert,
    /// update, logical delete (tombstone), uncommitted transactional
    /// write, or commit-time stamping.
    InsertVersion(Version),
    /// Remove the uncommitted version of `key` written by `txn`, if
    /// present — the redo image of a transaction abort and of the removal
    /// half of commit-time stamping.
    RemoveUncommitted {
        /// The key whose uncommitted version is erased.
        key: Key,
        /// The transaction that wrote it.
        txn: TxnId,
    },
    /// Data-node time split at `split_time`: the page keeps the split's
    /// *current* partition (versions at or after the split time, the
    /// rule-3 duplicates valid at it, and uncommitted entries) and its
    /// time range now starts at `split_time`. The migrated half lives on
    /// the WORM, which needs no redo.
    DataTimeSplit {
        /// The chosen split time.
        split_time: Timestamp,
    },
    /// Data-node key split at `split_key`: the page keeps the low half
    /// (`keep_low`) or the high half, and its key range shrinks to the
    /// matching side. The other half's page logs its own image (it is a
    /// fresh or recycled page with no usable base).
    DataKeySplit {
        /// The chosen split key.
        split_key: Key,
        /// Whether this page keeps the `< split_key` half.
        keep_low: bool,
    },
    /// Index-node local time split at `split_time` (§3.5): the page keeps
    /// the entries whose rectangles reach `split_time` or later, and its
    /// time range now starts there.
    IndexTimeSplit {
        /// The chosen split time.
        split_time: Timestamp,
    },
    /// Index-node keyspace split at `split_key`: the page keeps the low or
    /// high side (straddling historical entries are duplicated into both
    /// by the partition rule, so each side is self-contained).
    IndexKeySplit {
        /// The chosen split key.
        split_key: Key,
        /// Whether this page keeps the low side.
        keep_low: bool,
    },
    /// Index-node child replacement: the entry for one child is swapped
    /// for the entries describing its split pieces. The payload is the
    /// tree's own encoding of `(old child address, replacement entries)` —
    /// opaque at this layer, exactly like the tree metadata carried by
    /// [`WalRecord::Commit`].
    IndexReplaceChild {
        /// Core-encoded `(old child, replacements)` tuple.
        payload: Vec<u8>,
    },
}

impl PageOp {
    fn encode(&self, w: &mut ByteWriter) {
        match self {
            PageOp::InsertVersion(v) => {
                w.put_u8(1);
                w.put_version(v);
            }
            PageOp::RemoveUncommitted { key, txn } => {
                w.put_u8(2);
                w.put_key(key);
                w.put_u64(txn.0);
            }
            PageOp::DataTimeSplit { split_time } => {
                w.put_u8(3);
                w.put_timestamp(*split_time);
            }
            PageOp::DataKeySplit {
                split_key,
                keep_low,
            } => {
                w.put_u8(4);
                w.put_key(split_key);
                w.put_u8(*keep_low as u8);
            }
            PageOp::IndexTimeSplit { split_time } => {
                w.put_u8(5);
                w.put_timestamp(*split_time);
            }
            PageOp::IndexKeySplit {
                split_key,
                keep_low,
            } => {
                w.put_u8(6);
                w.put_key(split_key);
                w.put_u8(*keep_low as u8);
            }
            PageOp::IndexReplaceChild { payload } => {
                w.put_u8(7);
                w.put_bytes(payload);
            }
        }
    }

    fn decode(r: &mut ByteReader<'_>) -> TsbResult<Self> {
        match r.get_u8()? {
            1 => Ok(PageOp::InsertVersion(r.get_version()?)),
            2 => Ok(PageOp::RemoveUncommitted {
                key: r.get_key()?,
                txn: TxnId(r.get_u64()?),
            }),
            3 => Ok(PageOp::DataTimeSplit {
                split_time: r.get_timestamp()?,
            }),
            4 => Ok(PageOp::DataKeySplit {
                split_key: r.get_key()?,
                keep_low: r.get_u8()? != 0,
            }),
            5 => Ok(PageOp::IndexTimeSplit {
                split_time: r.get_timestamp()?,
            }),
            6 => Ok(PageOp::IndexKeySplit {
                split_key: r.get_key()?,
                keep_low: r.get_u8()? != 0,
            }),
            7 => Ok(PageOp::IndexReplaceChild {
                payload: r.get_bytes()?,
            }),
            t => Err(TsbError::corruption(format!("invalid WAL page op {t}"))),
        }
    }
}

/// One redo-log record.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum WalRecord {
    /// The newest image of a magnetic page (an encoded node). Appended by
    /// the tree *before* its node cache holds the node dirty.
    PageImage {
        /// The magnetic page this image belongs to.
        page: PageId,
        /// The full page payload (what `MagneticStore::write` would store).
        bytes: Vec<u8>,
    },
    /// A mutation fully logged: every page image it produced precedes this
    /// record. Carries the tree metadata describing the resulting state.
    Commit {
        /// The newest commit timestamp as of this mutation.
        ts: u64,
        /// WORM device length at commit time; recovery refuses to cut at a
        /// commit whose history extends past the surviving WORM file.
        worm_len: u64,
        /// Opaque tree metadata (root pointer, clock, txn counter) in the
        /// tree's own meta-page encoding.
        meta: Vec<u8>,
    },
    /// A completed flush: the magnetic device equals the state in `meta`.
    /// Replay starts after the newest checkpoint (the fence LSN).
    Checkpoint {
        /// WORM device length at checkpoint time.
        worm_len: u64,
        /// Opaque tree metadata, as in [`WalRecord::Commit`].
        meta: Vec<u8>,
    },
    /// A logical redo delta against one page: the page's content after an
    /// already-logged base ([`WalRecord::PageImage`], first-touch rule)
    /// plus this op, instead of a fresh full image. Appended by the tree
    /// for content-only leaf rewrites after the page's first dirtying in
    /// the current checkpoint interval.
    PageDelta {
        /// The magnetic page the op applies to.
        page: PageId,
        /// The logical mutation.
        op: PageOp,
    },
    /// A two-phase-commit **prepare** fence on one participant shard: every
    /// page image/delta of the prepared (still-uncommitted) writes precedes
    /// this record, and the record survives as a cut candidate so recovery
    /// can see the in-doubt transaction and resolve it against the
    /// coordinator's decision. Always carries full metadata (never elided)
    /// and is force-synced by the engine before the protocol proceeds.
    Prepare {
        /// The global commit timestamp reserved for the transaction.
        ts: u64,
        /// WORM device length at prepare time (same cut rule as a commit).
        worm_len: u64,
        /// Opaque tree metadata, as in [`WalRecord::Commit`].
        meta: Vec<u8>,
        /// The participant-local transaction id whose writes are prepared.
        txn: u64,
        /// Shard index of the coordinator (where the decision is logged).
        coordinator: u32,
        /// Shard indices of every participant, coordinator included.
        participants: Vec<u32>,
    },
    /// The coordinator's two-phase-commit **decision**: the transaction at
    /// `ts` is committed on every participant. Logged (and force-synced)
    /// only after every participant's prepare is durable; recovery commits
    /// an in-doubt prepare iff a decision with its `ts` survives on the
    /// coordinator, and aborts it otherwise (presumed abort).
    Decision {
        /// The global commit timestamp of the decided transaction.
        ts: u64,
        /// Shard indices of every participant, coordinator included.
        participants: Vec<u32>,
    },
}

impl WalRecord {
    fn kind(&self) -> u8 {
        match self {
            WalRecord::PageImage { .. } => 1,
            WalRecord::Commit { .. } => 2,
            WalRecord::Checkpoint { .. } => 3,
            WalRecord::PageDelta { .. } => 4,
            WalRecord::Prepare { .. } => 5,
            WalRecord::Decision { .. } => 6,
        }
    }

    /// Encodes the record body (`lsn | kind | payload`) exactly as it is
    /// framed into the log. Public for WAL shipping: a replication source
    /// re-frames record bodies onto the wire, and a replica appends the
    /// same bytes to its local log via [`Wal::append_shipped`], so both
    /// sides of the stream speak the log's own on-disk encoding.
    pub fn encode_body(&self, lsn: Lsn) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.put_u64(lsn);
        w.put_u8(self.kind());
        match self {
            WalRecord::PageImage { page, bytes } => {
                w.put_u64(page.0);
                w.put_bytes(bytes);
            }
            WalRecord::Commit { ts, worm_len, meta } => {
                w.put_u64(*ts);
                w.put_u64(*worm_len);
                w.put_bytes(meta);
            }
            WalRecord::Checkpoint { worm_len, meta } => {
                w.put_u64(*worm_len);
                w.put_bytes(meta);
            }
            WalRecord::PageDelta { page, op } => {
                w.put_u64(page.0);
                op.encode(&mut w);
            }
            WalRecord::Prepare {
                ts,
                worm_len,
                meta,
                txn,
                coordinator,
                participants,
            } => {
                w.put_u64(*ts);
                w.put_u64(*worm_len);
                w.put_bytes(meta);
                w.put_u64(*txn);
                w.put_u32(*coordinator);
                w.put_u32(participants.len() as u32);
                for p in participants {
                    w.put_u32(*p);
                }
            }
            WalRecord::Decision { ts, participants } => {
                w.put_u64(*ts);
                w.put_u32(participants.len() as u32);
                for p in participants {
                    w.put_u32(*p);
                }
            }
        }
        w.into_vec()
    }

    /// Decodes a record body produced by [`Self::encode_body`], returning
    /// the embedded LSN and the record. The inverse used by a replica to
    /// interpret shipped record bodies.
    pub fn decode_body(body: &[u8]) -> TsbResult<(Lsn, WalRecord)> {
        let mut r = ByteReader::new(body);
        let lsn = r.get_u64()?;
        let record = match r.get_u8()? {
            1 => WalRecord::PageImage {
                page: PageId(r.get_u64()?),
                bytes: r.get_bytes()?,
            },
            2 => WalRecord::Commit {
                ts: r.get_u64()?,
                worm_len: r.get_u64()?,
                meta: r.get_bytes()?,
            },
            3 => WalRecord::Checkpoint {
                worm_len: r.get_u64()?,
                meta: r.get_bytes()?,
            },
            4 => WalRecord::PageDelta {
                page: PageId(r.get_u64()?),
                op: PageOp::decode(&mut r)?,
            },
            5 => {
                let ts = r.get_u64()?;
                let worm_len = r.get_u64()?;
                let meta = r.get_bytes()?;
                let txn = r.get_u64()?;
                let coordinator = r.get_u32()?;
                let n = r.get_u32()? as usize;
                let mut participants = Vec::with_capacity(n.min(1024));
                for _ in 0..n {
                    participants.push(r.get_u32()?);
                }
                WalRecord::Prepare {
                    ts,
                    worm_len,
                    meta,
                    txn,
                    coordinator,
                    participants,
                }
            }
            6 => {
                let ts = r.get_u64()?;
                let n = r.get_u32()? as usize;
                let mut participants = Vec::with_capacity(n.min(1024));
                for _ in 0..n {
                    participants.push(r.get_u32()?);
                }
                WalRecord::Decision { ts, participants }
            }
            t => return Err(TsbError::corruption(format!("invalid WAL record kind {t}"))),
        };
        Ok((lsn, record))
    }
}

/// Forces the directory entry for `path` to stable storage. Creating or
/// renaming a file is durable only once its *parent directory* is fsynced:
/// the file's own `sync_all` covers its data and inode, not the name
/// pointing at it, and on many filesystems a crash can otherwise resurrect
/// the directory's previous contents (the pre-checkpoint log generation, or
/// no log at all).
fn sync_parent_dir(path: &Path) -> TsbResult<()> {
    let parent = match path.parent() {
        Some(p) if !p.as_os_str().is_empty() => p,
        _ => Path::new("."),
    };
    File::open(parent)?.sync_all()?;
    Ok(())
}

struct WalInner {
    file: File,
    next_lsn: Lsn,
    /// Bytes of intact log (the append position), buffered bytes included.
    len: u64,
    commits_since_sync: u32,
    /// Appended frames not yet written to the file: the group-commit
    /// append buffer. Drained by one coalesced `write_all` at every fence
    /// append, before every fsync, and at [`APPEND_BUFFER_FLUSH_BYTES`].
    /// Always un-fenced content (fence appends flush), so losing it to a
    /// process kill loses nothing recovery would have kept.
    pending: Vec<u8>,
    /// Runs immediately before every fsync of the log — the engine's spot
    /// to settle cross-device ordering (sync the WORM store so no commit
    /// in the about-to-be-durable prefix references history that could
    /// fail to survive). Deferring that work here, instead of paying it
    /// per commit, is what keeps `Os`/`EveryN` commits fsync-free.
    /// `Arc` so a capture can run it outside the inner lock.
    pre_sync: Option<Arc<dyn Fn() -> TsbResult<()> + Send + Sync>>,
    injector: Option<Arc<FaultInjector>>,
}

/// See [`Wal::set_pre_sync_hook`].
pub type PreSyncHook = Box<dyn Fn() -> TsbResult<()> + Send + Sync>;

impl WalInner {
    /// Writes the append buffer to the file in one syscall.
    fn flush_pending(&mut self) -> TsbResult<()> {
        if self.pending.is_empty() {
            return Ok(());
        }
        self.file.write_all(&self.pending)?;
        self.pending.clear();
        Ok(())
    }
}

/// Locks a std mutex, shrugging off poisoning (a panicked committer must
/// not wedge every waiter — matching the parking_lot contract used
/// elsewhere in the crate).
fn lock_std<T>(mutex: &StdMutex<T>) -> StdMutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(|e| e.into_inner())
}

/// What a sync request queue holds: the highest fence LSN whose
/// durability was requested, and the shutdown flag for the committer
/// thread. Guarded by [`GroupCommit::queue`] / woken via
/// [`GroupCommit::work`].
#[derive(Default)]
struct SyncQueue {
    requested: Lsn,
    shutdown: bool,
}

/// The durable-LSN watermark: every record at or below `lsn` is on stable
/// storage. `failed` is the sticky sync error — once a drain fails, every
/// parked and future waiter observes it.
#[derive(Default)]
struct DurableMark {
    lsn: Lsn,
    failed: Option<String>,
}

/// The pipelined group-commit state shared between committers (append
/// threads) and the dedicated sync thread. Uses `std::sync` primitives
/// because the workspace's parking_lot shim carries no condvar.
///
/// Lock order (never reversed): `queue` before `durable`; the record
/// state's inner lock before `durable`. `queue` and the inner lock are
/// never held together.
#[derive(Default)]
struct GroupCommit {
    /// See [`SyncQueue`].
    queue: StdMutex<SyncQueue>,
    /// Wakes the committer thread when `queue.requested` advances.
    work: Condvar,
    /// See [`DurableMark`].
    durable: StdMutex<DurableMark>,
    /// Broadcasts watermark advances (and failures) to parked committers.
    published: Condvar,
}

/// The state shared between [`Wal`] handles, their callers, and the
/// group-commit thread.
struct WalShared {
    inner: Mutex<WalInner>,
    policy: FsyncPolicy,
    stats: Arc<IoStats>,
    group: GroupCommit,
}

/// The write-ahead log: an append-only, checksummed redo log over one
/// file, synced by a dedicated group-commit thread (see the module docs).
pub struct Wal {
    shared: Arc<WalShared>,
    path: PathBuf,
    /// The group-commit thread, joined on drop.
    committer: Option<JoinHandle<()>>,
}

impl std::fmt::Debug for Wal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.shared.inner.lock();
        f.debug_struct("Wal")
            .field("next_lsn", &inner.next_lsn)
            .field("bytes", &inner.len)
            .field("durable_lsn", &self.shared.durable_lsn())
            .field("policy", &self.shared.policy)
            .finish()
    }
}

/// What [`Wal::open`] found on disk: the intact records (torn tail already
/// truncated) and whether a tear was repaired.
#[derive(Debug)]
pub struct WalScan {
    /// Every intact record, in LSN order.
    pub records: Vec<(Lsn, WalRecord)>,
    /// Whether a torn tail (partial or corrupt trailing record) was cut off.
    pub truncated_torn_tail: bool,
}

impl WalShared {
    /// The durable-LSN watermark (0 when nothing is durable yet).
    fn durable_lsn(&self) -> Lsn {
        lock_std(&self.group.durable).lsn
    }

    /// Advances the watermark to `lsn` (monotonic: a stale publish from a
    /// drain that raced a checkpoint reset is a no-op) and wakes every
    /// parked committer.
    fn publish_durable(&self, lsn: Lsn) {
        let mut mark = lock_std(&self.group.durable);
        if lsn > mark.lsn {
            mark.lsn = lsn;
        }
        drop(mark);
        self.group.published.notify_all();
    }

    /// Publishes a sticky sync failure: every parked and future
    /// [`Self::wait_durable`] call errors with it.
    fn publish_failure(&self, err: &TsbError) {
        let mut mark = lock_std(&self.group.durable);
        if mark.failed.is_none() {
            mark.failed = Some(err.to_string());
        }
        drop(mark);
        self.group.published.notify_all();
    }

    /// Asks the group-commit thread to make everything through `lsn`
    /// durable. Returns immediately; callers park via
    /// [`Self::wait_durable`] when their policy requires it.
    fn request_sync(&self, lsn: Lsn) {
        let mut queue = lock_std(&self.group.queue);
        if lsn > queue.requested {
            queue.requested = lsn;
            drop(queue);
            self.group.work.notify_one();
        }
    }

    /// Parks until the watermark reaches `lsn` or a sync failure is
    /// published. The parked time lands in the group-commit wait counters.
    fn wait_durable(&self, lsn: Lsn) -> TsbResult<()> {
        let mut mark = lock_std(&self.group.durable);
        if mark.lsn >= lsn {
            return Ok(());
        }
        let start = Instant::now();
        loop {
            if mark.lsn >= lsn {
                drop(mark);
                self.stats
                    .record_group_commit_wait(start.elapsed().as_nanos() as u64);
                return Ok(());
            }
            // A commit already durable is durable no matter what happened
            // to a *later* drain, hence the watermark check first.
            if let Some(msg) = &mark.failed {
                let err = TsbError::Io(std::io::Error::other(msg.clone()));
                drop(mark);
                self.stats
                    .record_group_commit_wait(start.elapsed().as_nanos() as u64);
                return Err(err);
            }
            mark = self
                .group
                .published
                .wait(mark)
                .unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Appends one record under the inner lock: frames it into the append
    /// buffer, flushes the buffer on fences and overflow, and — for commit
    /// fences — runs the policy's boundary arithmetic. Returns the record's
    /// LSN plus, for a boundary commit, the fence LSN the caller must get
    /// made durable (request + wait). Never syncs inline.
    fn append_record(&self, record: &WalRecord) -> TsbResult<(Lsn, Option<Lsn>)> {
        let mut inner = self.inner.lock();
        let point = match record {
            WalRecord::Checkpoint { .. } => CrashPoint::WalCheckpoint,
            WalRecord::Prepare { .. } => CrashPoint::WalPrepare,
            WalRecord::Decision { .. } => CrashPoint::WalDecision,
            _ => CrashPoint::WalAppend,
        };
        if let Some(injector) = &inner.injector {
            injector.check(point)?;
        }
        let lsn = inner.next_lsn;
        let body = record.encode_body(lsn);
        let frame_len = 8 + body.len();
        inner.pending.reserve(frame_len);
        inner
            .pending
            .extend_from_slice(&(body.len() as u32).to_le_bytes());
        let crc = crc32(&body);
        inner.pending.extend_from_slice(&crc.to_le_bytes());
        inner.pending.extend_from_slice(&body);
        inner.next_lsn += 1;
        inner.len += frame_len as u64;
        self.stats.record_wal_append();
        self.stats.record_wal_bytes(frame_len as u64);

        let is_fence = matches!(
            record,
            WalRecord::Commit { .. }
                | WalRecord::Checkpoint { .. }
                | WalRecord::Prepare { .. }
                | WalRecord::Decision { .. }
        );
        if is_fence || inner.pending.len() >= APPEND_BUFFER_FLUSH_BYTES {
            inner.flush_pending()?;
        }
        let boundary = match record {
            WalRecord::Commit { .. } => {
                self.stats.record_wal_commit();
                inner.commits_since_sync += 1;
                let at_boundary = match self.policy {
                    FsyncPolicy::Always => true,
                    FsyncPolicy::EveryN(n) => inner.commits_since_sync >= n.max(1),
                    FsyncPolicy::Os => false,
                };
                at_boundary.then_some(lsn)
            }
            // Checkpoints always sync, on the caller's thread; 2PC fences
            // (Prepare/Decision) are force-synced explicitly by the engine
            // via `sync()`; page records never sync.
            _ => None,
        };
        Ok((lsn, boundary))
    }

    /// Forces everything appended so far to stable storage and publishes
    /// the watermark. The capture (flush + tail LSN + file handle) runs
    /// under the inner lock; the device sync runs *outside* it, so the
    /// next mutation's appends proceed while the device works — the
    /// pipelining that lets concurrent commits share one fsync. Any error
    /// is published as the sticky failure before it returns. Returns
    /// whether a sync was actually performed (false = already durable).
    fn sync_to_tail(&self, from_committer: bool) -> TsbResult<bool> {
        let result = self.sync_to_tail_inner(from_committer);
        if let Err(e) = &result {
            self.publish_failure(e);
        }
        result
    }

    fn sync_to_tail_inner(&self, from_committer: bool) -> TsbResult<bool> {
        let (target, file, hook, injector) = {
            let mut inner = self.inner.lock();
            let target = inner.next_lsn - 1;
            if target <= self.durable_lsn() {
                // Nothing undurable; the append buffer is necessarily
                // empty (un-flushed appends hold LSNs above the mark).
                return Ok(false);
            }
            if let Some(injector) = &inner.injector {
                injector.check(CrashPoint::WalSync)?;
            }
            inner.flush_pending()?;
            inner.commits_since_sync = 0;
            (
                target,
                inner.file.try_clone()?,
                inner.pre_sync.clone(),
                inner.injector.clone(),
            )
        };
        // The target was captured *before* the hook runs: the WORM store
        // is append-only, so syncing it to its current length covers the
        // history referenced by every commit at or below the capture. (A
        // commit appended after the capture may reach the device by this
        // fsync with WORM references the hook never covered — recovery's
        // worm_len cut rule discards exactly those, and nothing
        // acknowledged them.)
        if let Some(hook) = &hook {
            hook()?;
        }
        file.sync_all()?;
        if let Some(injector) = &injector {
            // The window between the device sync and the watermark
            // broadcast: a crash here has durable-but-unacknowledged
            // commits, which recovery must keep (they cost nothing) while
            // the engine must not have reported them committed.
            injector.check(CrashPoint::WalSyncPublish)?;
        }
        // Count the sync *before* broadcasting the watermark: a waiter
        // woken by the publish must observe its sync in the counters.
        self.stats.record_wal_sync();
        if from_committer {
            self.stats.record_group_commit_batch();
        }
        self.publish_durable(target);
        Ok(true)
    }

    /// The group-commit thread body: park until a fence LSN beyond the
    /// watermark is requested, drain (one fsync per wake), repeat. Exits
    /// on shutdown or after publishing a sync failure — the failure is
    /// sticky, so staying alive to fail every future drain adds nothing.
    fn committer_loop(self: &Arc<Self>) {
        loop {
            {
                let mut queue = lock_std(&self.group.queue);
                loop {
                    if queue.shutdown {
                        return;
                    }
                    if queue.requested > self.durable_lsn() {
                        break;
                    }
                    queue = self
                        .group
                        .work
                        .wait(queue)
                        .unwrap_or_else(|e| e.into_inner());
                }
            }
            if self.sync_to_tail(true).is_err() {
                return;
            }
        }
    }
}

impl Wal {
    /// Creates a fresh, empty log at `path` (truncating any existing file).
    pub fn create(
        path: impl AsRef<Path>,
        policy: FsyncPolicy,
        stats: Arc<IoStats>,
    ) -> TsbResult<Wal> {
        let path = path.as_ref().to_path_buf();
        // A fresh log invalidates any generation that came before it —
        // including a reset temp file a previous incarnation died holding.
        // Left in place, an intact fenced `*.wal.tmp` would be rolled
        // forward by the next `open`, clobbering this log with the dead
        // generation's checkpoint.
        match std::fs::remove_file(path.with_extension("wal.tmp")) {
            Ok(()) => {}
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) => return Err(e.into()),
        }
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(&path)?;
        // Make the file's *existence* durable before anything is logged
        // into it: without the directory fsync a crash could drop the
        // directory entry while keeping acknowledged, fsynced commits in
        // the now-unreachable inode.
        file.sync_all()?;
        sync_parent_dir(&path)?;
        Ok(Self::assemble(
            WalInner {
                file,
                next_lsn: 1,
                len: 0,
                commits_since_sync: 0,
                pending: Vec::new(),
                pre_sync: None,
                injector: None,
            },
            policy,
            path,
            stats,
            0,
        ))
    }

    /// Wraps the opened inner state, seeds the durable watermark, and
    /// spawns the group-commit thread.
    fn assemble(
        inner: WalInner,
        policy: FsyncPolicy,
        path: PathBuf,
        stats: Arc<IoStats>,
        durable_lsn: Lsn,
    ) -> Wal {
        let shared = Arc::new(WalShared {
            inner: Mutex::new(inner),
            // `EveryN(0)` can never reach a group boundary, so commits
            // would never be synced or acknowledged; every constructor
            // clamps it to `EveryN(1)` here (`TsbConfig::validate` rejects
            // it earlier for engine configs, but the WAL also stands alone).
            policy: policy.normalized(),
            stats,
            group: GroupCommit::default(),
        });
        lock_std(&shared.group.durable).lsn = durable_lsn;
        let committer = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("tsb-wal-commit".into())
                .spawn(move || shared.committer_loop())
                .expect("spawn the WAL group-commit thread")
        };
        Wal {
            shared,
            path,
            committer: Some(committer),
        }
    }

    /// Opens (or creates) the log at `path`, scanning every record and
    /// truncating a torn tail. The returned [`WalScan`] is the replay input;
    /// the `Wal` is positioned to append after the intact prefix.
    pub fn open(
        path: impl AsRef<Path>,
        policy: FsyncPolicy,
        stats: Arc<IoStats>,
    ) -> TsbResult<(Wal, WalScan)> {
        let path = path.as_ref().to_path_buf();
        Self::resolve_pending_reset(&path)?;
        let existed = path.exists();
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(&path)?;
        if !existed {
            // See `create`: a file whose directory entry is not durable
            // can vanish in a crash along with everything fsynced into it.
            file.sync_all()?;
            sync_parent_dir(&path)?;
        }
        let mut buf = Vec::new();
        file.seek(SeekFrom::Start(0))?;
        file.read_to_end(&mut buf)?;

        let (records, pos, torn) = Self::scan_buf(&buf);
        let next_lsn = records.last().map(|(lsn, _)| lsn + 1).unwrap_or(1);
        if torn {
            file.set_len(pos as u64)?;
            file.sync_all()?;
        }
        file.seek(SeekFrom::Start(pos as u64))?;
        Ok((
            Self::assemble(
                WalInner {
                    file,
                    next_lsn,
                    len: pos as u64,
                    commits_since_sync: 0,
                    pending: Vec::new(),
                    pre_sync: None,
                    injector: None,
                },
                policy,
                path,
                stats,
                // Everything that survived on disk is as durable as it
                // will ever be.
                next_lsn - 1,
            ),
            WalScan {
                records,
                truncated_torn_tail: torn,
            },
        ))
    }

    /// Scans `buf` from the start: returns the intact records in LSN order,
    /// the byte position of the first bad frame (== `buf.len()` when the
    /// whole buffer is intact), and whether a torn tail was found. The
    /// first record may carry any LSN (checkpoint truncation keeps the
    /// sequence running across log generations); after that a
    /// discontinuity means the file was spliced or a tear was overwritten
    /// — nothing from there on is trustworthy.
    pub(crate) fn scan_buf(buf: &[u8]) -> (Vec<(Lsn, WalRecord)>, usize, bool) {
        let mut records: Vec<(Lsn, WalRecord)> = Vec::new();
        let mut pos = 0usize;
        let mut next_lsn: Lsn = 1;
        let mut torn = false;
        while pos < buf.len() {
            let Some((record_len, body)) = Self::frame_at(buf, pos) else {
                torn = true;
                break;
            };
            let Ok((lsn, record)) = WalRecord::decode_body(body) else {
                torn = true;
                break;
            };
            if !records.is_empty() && lsn != next_lsn {
                torn = true;
                break;
            }
            next_lsn = lsn + 1;
            records.push((lsn, record));
            pos += record_len;
        }
        (records, pos, torn)
    }

    /// Settles a checkpoint reset the previous process died inside of.
    ///
    /// A leftover `*.wal.tmp` next to the log means the crash landed in
    /// [`Self::reset_with`]'s write-new-then-rename window: the
    /// replacement log was (at least partially) written, and the rename
    /// making it the real log may or may not have reached the directory.
    /// Before the log is scanned, the temp file's fate is decided:
    ///
    /// * A fully intact temp file whose records carry a fence is **rolled
    ///   forward** (the rename is completed). Its content was written and
    ///   fsynced before the rename was ever attempted, so its checkpoint
    ///   promise holds — and the main log can only be an *older*
    ///   generation (nothing appends between the temp write and the
    ///   rename, and a completed rename is directory-fsynced before any
    ///   later append is acknowledged). This also keeps a first create's
    ///   interrupted checkpoint from leaving a fence-less main log that
    ///   reads as "nothing was ever durable".
    /// * Anything else — short, torn, or fence-less — is an unfinished
    ///   temp write; it is **rolled back** (deleted) and the main log
    ///   stands.
    fn resolve_pending_reset(path: &Path) -> TsbResult<()> {
        let tmp = path.with_extension("wal.tmp");
        let buf = match std::fs::read(&tmp) {
            Ok(buf) => buf,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(()),
            Err(e) => return Err(e.into()),
        };
        let (records, pos, _) = Self::scan_buf(&buf);
        let intact = pos == buf.len() && !records.is_empty();
        let fenced = records
            .iter()
            .any(|(_, r)| matches!(r, WalRecord::Commit { .. } | WalRecord::Checkpoint { .. }));
        if intact && fenced {
            std::fs::rename(&tmp, path)?;
        } else {
            std::fs::remove_file(&tmp)?;
        }
        sync_parent_dir(path)
    }

    /// Frames the record starting at `pos`: returns `(total frame length,
    /// body slice)` if the frame is complete and its CRC matches.
    pub(crate) fn frame_at(buf: &[u8], pos: usize) -> Option<(usize, &[u8])> {
        let header = buf.get(pos..pos + 8)?;
        let len = u32::from_le_bytes([header[0], header[1], header[2], header[3]]);
        let crc = u32::from_le_bytes([header[4], header[5], header[6], header[7]]);
        if len == 0 || len > MAX_RECORD_BODY {
            return None;
        }
        let body = buf.get(pos + 8..pos + 8 + len as usize)?;
        if crc32(body) != crc {
            return None;
        }
        Some((8 + len as usize, body))
    }

    /// The configured fsync policy.
    pub fn policy(&self) -> FsyncPolicy {
        self.shared.policy
    }

    /// The path of the log file. A replication tailer reads the log by
    /// *path* (not through this handle's file descriptor): a checkpoint
    /// reset replaces the file by rename, so an open descriptor goes stale
    /// while the path always names the current generation.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The LSN the next append will receive.
    pub fn next_lsn(&self) -> Lsn {
        self.shared.inner.lock().next_lsn
    }

    /// The LSN of the newest appended record (0 if the log is empty).
    pub fn last_lsn(&self) -> Lsn {
        self.shared.inner.lock().next_lsn - 1
    }

    /// The durable-LSN watermark: every record at or below it is on
    /// stable storage.
    pub fn durable_lsn(&self) -> Lsn {
        self.shared.durable_lsn()
    }

    /// Bytes of intact log on disk.
    pub fn bytes(&self) -> u64 {
        self.shared.inner.lock().len
    }

    /// Wires a fault injector into the append and sync paths (tests only).
    pub fn set_fault_injector(&self, injector: Arc<FaultInjector>) {
        self.shared.inner.lock().injector = Some(injector);
    }

    /// Installs the hook that runs before every fsync of the log (see
    /// `WalInner::pre_sync`); the sync is abandoned if the hook errors.
    pub fn set_pre_sync_hook(&self, hook: PreSyncHook) {
        self.shared.inner.lock().pre_sync = Some(Arc::from(hook));
    }

    /// Appends one record, returning its LSN. The frame lands in the
    /// append buffer; fence records (`Commit` / `Checkpoint`) drain the
    /// buffer to the file in one coalesced `write_all` — the whole
    /// mutation group in one syscall. A commit at a policy boundary is
    /// additionally made durable before this returns (request + park on
    /// the watermark); checkpoints always sync, on this thread. Callers
    /// that can release locks between the append and the park use
    /// [`Self::append_commit`] + [`Self::wait_durable`] instead.
    pub fn append(&self, record: &WalRecord) -> TsbResult<Lsn> {
        match record {
            WalRecord::Commit { .. } => {
                let (lsn, boundary) = self.append_commit(record)?;
                if let Some(fence) = boundary {
                    self.wait_durable(fence)?;
                }
                Ok(lsn)
            }
            WalRecord::Checkpoint { .. } => {
                let (lsn, _) = self.shared.append_record(record)?;
                self.shared.sync_to_tail(false)?;
                Ok(lsn)
            }
            _ => Ok(self.shared.append_record(record)?.0),
        }
    }

    /// Appends a commit fence and *requests* (never performs) its sync.
    /// Returns `(lsn, boundary)`: `boundary` is `Some(fence_lsn)` exactly
    /// when the policy wants this commit durable before it is
    /// acknowledged — the caller should release its locks, then
    /// [`Self::wait_durable`] on it. `None` means acknowledge immediately
    /// (`Os` always; `EveryN` off-boundary).
    pub fn append_commit(&self, record: &WalRecord) -> TsbResult<(Lsn, Option<Lsn>)> {
        debug_assert!(matches!(record, WalRecord::Commit { .. }));
        let (lsn, boundary) = self.shared.append_record(record)?;
        if let Some(fence) = boundary {
            self.shared.request_sync(fence);
        }
        Ok((lsn, boundary))
    }

    /// Parks until the durable watermark reaches `lsn`; errors if a sync
    /// failure was published (the failure is sticky).
    pub fn wait_durable(&self, lsn: Lsn) -> TsbResult<()> {
        self.shared.wait_durable(lsn)
    }

    /// Appends a record body *shipped from a replication primary*, keeping
    /// the primary's LSN instead of assigning a local one — a replica's
    /// local log is a verbatim suffix of the primary's log, so replica
    /// restart can reuse the standard recovery scan unchanged.
    ///
    /// `body` must be a record body as produced by
    /// [`WalRecord::encode_body`]. The embedded LSN must continue the local
    /// sequence (`last_lsn + 1`); the first record appended to an *empty*
    /// log may carry any LSN (exactly as the reopen scanner accepts any
    /// starting LSN across checkpoint generations). A body whose LSN is at
    /// or below the local tail is a duplicate from a reconnect overlap and
    /// is skipped (`Ok(false)`).
    ///
    /// The frame lands in the append buffer; fence records drain it, and
    /// the caller decides when to fsync (via [`Self::sync`]) — the policy's
    /// group-commit boundary arithmetic never runs for shipped records.
    /// Returns whether the record was actually appended.
    pub fn append_shipped(&self, body: &[u8]) -> TsbResult<bool> {
        let (lsn, record) = WalRecord::decode_body(body)?;
        let mut inner = self.shared.inner.lock();
        if let Some(injector) = &inner.injector {
            injector.check(CrashPoint::WalAppend)?;
        }
        let empty = inner.len == 0;
        if !empty {
            if lsn < inner.next_lsn {
                return Ok(false);
            }
            if lsn != inner.next_lsn {
                return Err(TsbError::corruption(format!(
                    "shipped record LSN {lsn} does not continue the local log \
                     (expected {})",
                    inner.next_lsn
                )));
            }
        }
        let frame_len = 8 + body.len();
        inner.pending.reserve(frame_len);
        inner
            .pending
            .extend_from_slice(&(body.len() as u32).to_le_bytes());
        inner.pending.extend_from_slice(&crc32(body).to_le_bytes());
        inner.pending.extend_from_slice(body);
        inner.next_lsn = lsn + 1;
        inner.len += frame_len as u64;
        self.shared.stats.record_wal_append();
        self.shared.stats.record_wal_bytes(frame_len as u64);
        let is_fence = matches!(
            record,
            WalRecord::Commit { .. }
                | WalRecord::Checkpoint { .. }
                | WalRecord::Prepare { .. }
                | WalRecord::Decision { .. }
        );
        if is_fence || inner.pending.len() >= APPEND_BUFFER_FLUSH_BYTES {
            inner.flush_pending()?;
        }
        Ok(true)
    }

    /// Forces everything appended so far to stable storage before
    /// returning. No-op when the tail is already durable.
    pub fn sync(&self) -> TsbResult<()> {
        self.shared.sync_to_tail(false).map(|_| ())
    }

    /// Forces the log to stable storage only if records were appended since
    /// the last fsync. This is the **flushed-LSN rule** barrier: a dirty
    /// page may reach the page device only when every log record that could
    /// be needed to reproduce (or supersede) its content is already stable,
    /// whatever the commit fsync policy says. No-op when nothing is pending.
    /// Runs on the calling thread (synchronously), possibly alongside a
    /// concurrent committer drain — both publish the watermark.
    pub fn ensure_all_synced(&self) -> TsbResult<()> {
        self.shared.sync_to_tail(false).map(|_| ())
    }

    /// Atomically replaces the whole log with a single `record` (a
    /// checkpoint), bounding the log to one generation: everything before a
    /// checkpoint fence is unreplayable by construction, so a completed
    /// checkpoint may discard it.
    ///
    /// Crash safety comes from write-new-then-rename: the replacement file
    /// is fully written and fsynced *before* it atomically takes the log's
    /// name, and the parent directory is fsynced before this returns — a
    /// rename is durable only once the directory holding the entry is, so
    /// without that sync a crash could resurrect the pre-checkpoint
    /// generation and silently drop commits fsynced into the new inode
    /// after it. A crash anywhere leaves either the complete old log, the
    /// complete new one, or the old log plus an intact temp file that
    /// [`Self::open`] rolls forward — never a fence-less hybrid. LSNs keep
    /// counting across generations (the scanner accepts any starting LSN).
    pub fn reset_with(&self, record: &WalRecord) -> TsbResult<Lsn> {
        let mut inner = self.shared.inner.lock();
        if let Some(injector) = &inner.injector {
            injector.check(CrashPoint::WalCheckpoint)?;
        }
        let lsn = inner.next_lsn;
        let body = record.encode_body(lsn);
        let mut frame = Vec::with_capacity(8 + body.len());
        frame.extend_from_slice(&(body.len() as u32).to_le_bytes());
        frame.extend_from_slice(&crc32(&body).to_le_bytes());
        frame.extend_from_slice(&body);

        let tmp = self.path.with_extension("wal.tmp");
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(&tmp)?;
        file.write_all(&frame)?;
        file.sync_all()?;
        std::fs::rename(&tmp, &self.path)?;
        sync_parent_dir(&self.path)?;
        self.shared.stats.record_wal_append();
        self.shared.stats.record_wal_bytes(frame.len() as u64);
        self.shared.stats.record_wal_sync();
        inner.file = file;
        inner.next_lsn = lsn + 1;
        inner.len = frame.len() as u64;
        inner.commits_since_sync = 0;
        // Anything the old generation still buffered precedes the new
        // fence and is unreplayable by construction.
        inner.pending.clear();
        drop(inner);
        // The fence is the newest LSN and it is durable, so this jumps the
        // watermark over everything the old generation ever held: the
        // checkpoint quiesces the pipeline (parked committers wake
        // satisfied, a racing drain's stale publish is a monotonic no-op)
        // and the committer thread sees its requests already covered. A
        // drain that raced the rename fsyncs the renamed-over file handle,
        // which is harmless.
        self.shared.publish_durable(lsn);
        Ok(lsn)
    }
}

impl Drop for Wal {
    /// Shuts down and joins the group-commit thread (an in-flight drain
    /// completes first), then best-effort drains the append buffer: a
    /// *clean* shutdown keeps every appended record reachable on reopen,
    /// exactly as when appends wrote through. (A killed process loses only
    /// un-fenced buffered records, which recovery's replay cut would
    /// discard regardless.)
    fn drop(&mut self) {
        {
            let mut queue = lock_std(&self.shared.group.queue);
            queue.shutdown = true;
        }
        self.shared.group.work.notify_all();
        if let Some(committer) = self.committer.take() {
            let _ = committer.join();
        }
        let _ = self.shared.inner.lock().flush_pending();
    }
}

/// The dirty-page table backing the **WAL-before-page** invariant.
///
/// Before a dirty page may be written back to the magnetic store — by the
/// tree's flush, by the decoded-node cache's overflow write-back, or by a
/// buffer-pool eviction — the page's newest image must already be in the
/// WAL. The tree records every `PageImage` append here
/// ([`record`](Self::record)); every *device* write-back site runs the
/// full barrier ([`ensure_durable`](Self::ensure_durable)): a coverage
/// `debug_assert` plus the flushed-LSN rule — the log is forced to stable
/// storage through its newest record before the page bytes may land on
/// the device, so a power failure can never leave the device holding
/// state the surviving log cannot reproduce or supersede. Pages that are
/// legitimately outside the log (the tree's metadata page, whose content
/// is reconstructed from commit records) are registered with
/// [`exempt`](Self::exempt).
#[derive(Debug, Default)]
pub struct WalPageTable {
    /// page -> LSN of the page's newest logged record (image or delta).
    pages: Mutex<HashMap<u64, Lsn>>,
    /// Pages whose full image was logged in the current checkpoint
    /// interval (log generation) — the **first-touch** set. A content-only
    /// rewrite of a page in this set may log a delta; a page outside it
    /// must log its full image first, so replay always has an in-log base
    /// for every delta. Cleared by [`begin_interval`](Self::begin_interval)
    /// when a checkpoint resets the log.
    imaged: Mutex<HashSet<u64>>,
    /// The log to force before device write-backs (set once at attach).
    wal: Mutex<Option<Arc<Wal>>>,
}

impl WalPageTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Wires in the log [`ensure_durable`](Self::ensure_durable) forces.
    pub fn attach_wal(&self, wal: Arc<Wal>) {
        *self.wal.lock() = Some(wal);
    }

    /// The write-back barrier: asserts WAL coverage of `page` and forces
    /// the log to stable storage through its newest record. Called by
    /// every site about to write a dirty page image to the device.
    pub fn ensure_durable(&self, page: PageId) -> TsbResult<()> {
        self.assert_covered(page);
        let wal = self.wal.lock().clone();
        match wal {
            Some(wal) => wal.ensure_all_synced(),
            None => Ok(()),
        }
    }

    /// Records that `page`'s newest record (image or delta) was appended
    /// at `lsn`.
    pub fn record(&self, page: PageId, lsn: Lsn) {
        self.pages.lock().insert(page.0, lsn);
    }

    /// Whether `page` still needs a full image in the current checkpoint
    /// interval, marking it imaged. Returns `true` exactly once per page
    /// per interval: the caller that sees `true` must log a
    /// [`WalRecord::PageImage`]; later callers may log deltas.
    pub fn first_touch(&self, page: PageId) -> bool {
        self.imaged.lock().insert(page.0)
    }

    /// Whether `page` already has an image (a delta base) in the current
    /// checkpoint interval, without marking anything. Callers about to log
    /// standalone deltas (mid-split pending ops) consult this: a page with
    /// no base skips the delta entirely — its next full write will log an
    /// image that subsumes it.
    pub fn is_imaged(&self, page: PageId) -> bool {
        self.imaged.lock().contains(&page.0)
    }

    /// Drops everything known about `page`. Called when the page is
    /// (re)allocated: a recycled page's old image is not a base for its
    /// new life — content landing on it must log a fresh full image.
    pub fn forget(&self, page: PageId) {
        self.imaged.lock().remove(&page.0);
        self.pages.lock().remove(&page.0);
    }

    /// Revokes `page`'s delta base without touching its write-back
    /// coverage: the page's next logged record must be a full image.
    /// Called when a failed mutation left pending deltas in the log that
    /// no longer describe the page's real state (see the tree's phantom
    /// quarantine in `wal_commit`).
    pub fn unimage(&self, page: PageId) {
        self.imaged.lock().remove(&page.0);
    }

    /// Starts a fresh checkpoint interval after the log was reset: every
    /// page must log a full image again before its next delta (the new log
    /// generation holds no bases), and the write-back coverage map starts
    /// over (the checkpoint's flush drained every dirty page). Exempt
    /// pages stay exempt — their content is reconstructed from fence
    /// records, never from page records.
    pub fn begin_interval(&self) {
        self.imaged.lock().clear();
        self.pages.lock().retain(|_, lsn| *lsn == 0);
    }

    /// Marks `page` as legitimately un-logged (metadata pages).
    pub fn exempt(&self, page: PageId) {
        self.pages.lock().insert(page.0, 0);
    }

    /// The LSN of `page`'s newest logged image (`Some(0)` for exempt pages).
    pub fn lsn_of(&self, page: PageId) -> Option<Lsn> {
        self.pages.lock().get(&page.0).copied()
    }

    /// Whether `page` may be written back (logged or exempt).
    pub fn is_covered(&self, page: PageId) -> bool {
        self.pages.lock().contains_key(&page.0)
    }

    /// Debug-asserts the WAL-before-page invariant for `page`.
    pub fn assert_covered(&self, page: PageId) {
        debug_assert!(
            self.is_covered(page),
            "WAL-before-page violation: page {page} is being written back to the \
             magnetic store but no PageImage record for it was ever appended to the WAL"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_wal_path(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "tsb-wal-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("test.wal")
    }

    fn page_image(page: u64, fill: u8) -> WalRecord {
        WalRecord::PageImage {
            page: PageId(page),
            bytes: vec![fill; 32],
        }
    }

    fn commit(ts: u64) -> WalRecord {
        WalRecord::Commit {
            ts,
            worm_len: 0,
            meta: vec![0xAB; 16],
        }
    }

    #[test]
    fn records_round_trip_through_the_file() {
        let path = temp_wal_path("roundtrip");
        let _ = std::fs::remove_file(&path);
        let stats = Arc::new(IoStats::new());
        let written = [
            page_image(7, 1),
            page_image(9, 2),
            commit(42),
            WalRecord::Checkpoint {
                worm_len: 128,
                meta: vec![1, 2, 3],
            },
        ];
        {
            let wal = Wal::create(&path, FsyncPolicy::Always, Arc::clone(&stats)).unwrap();
            for (i, rec) in written.iter().enumerate() {
                assert_eq!(wal.append(rec).unwrap(), (i + 1) as Lsn);
            }
            assert_eq!(wal.last_lsn(), 4);
        }
        let (wal, scan) = Wal::open(&path, FsyncPolicy::Always, stats).unwrap();
        assert!(!scan.truncated_torn_tail);
        assert_eq!(scan.records.len(), written.len());
        for (i, (lsn, rec)) in scan.records.iter().enumerate() {
            assert_eq!(*lsn, (i + 1) as Lsn);
            assert_eq!(rec, &written[i]);
        }
        // Appending continues the LSN sequence.
        assert_eq!(wal.append(&page_image(1, 3)).unwrap(), 5);
        let _ = std::fs::remove_file(&path);
    }

    fn delta(page: u64, key: u64, ts: u64) -> WalRecord {
        WalRecord::PageDelta {
            page: PageId(page),
            op: PageOp::InsertVersion(Version::committed(key, Timestamp(ts), vec![b'v'; 12])),
        }
    }

    #[test]
    fn every_page_op_round_trips() {
        let ops = [
            PageOp::InsertVersion(Version::committed(9u64, Timestamp(4), b"val".to_vec())),
            PageOp::RemoveUncommitted {
                key: Key::from_u64(7),
                txn: TxnId(3),
            },
            PageOp::DataTimeSplit {
                split_time: Timestamp(17),
            },
            PageOp::DataKeySplit {
                split_key: Key::from_u64(100),
                keep_low: true,
            },
            PageOp::IndexTimeSplit {
                split_time: Timestamp(23),
            },
            PageOp::IndexKeySplit {
                split_key: Key::from_u64(50),
                keep_low: false,
            },
            PageOp::IndexReplaceChild {
                payload: vec![1, 2, 3, 4],
            },
        ];
        for op in ops {
            let record = WalRecord::PageDelta {
                page: PageId(11),
                op: op.clone(),
            };
            let body = record.encode_body(5);
            let (lsn, decoded) = WalRecord::decode_body(&body).unwrap();
            assert_eq!(lsn, 5);
            assert_eq!(decoded, record, "op {op:?}");
        }
    }

    #[test]
    fn torn_tail_mid_delta_run_keeps_the_image_and_drops_trailing_deltas() {
        // A delta run: image base, commit, then three deltas and a commit.
        // Tearing into the *middle* delta must keep the image and the first
        // delta (everything before the tear) and drop the rest — a delta
        // run truncates record-by-record like any other tail.
        let path = temp_wal_path("torn-delta");
        let _ = std::fs::remove_file(&path);
        let stats = Arc::new(IoStats::new());
        {
            let wal = Wal::create(&path, FsyncPolicy::Os, Arc::clone(&stats)).unwrap();
            wal.append(&page_image(1, 1)).unwrap();
            wal.append(&commit(1)).unwrap();
            wal.append(&delta(1, 10, 2)).unwrap();
            wal.append(&delta(1, 11, 3)).unwrap();
            wal.append(&delta(1, 12, 4)).unwrap();
            wal.append(&commit(4)).unwrap();
        }
        // Cut into the third delta: the commit and the tail of that delta
        // vanish; the second delta's frame stays intact.
        let len = std::fs::metadata(&path).unwrap().len();
        let commit_len = 8 + commit(4).encode_body(6).len() as u64;
        let file = OpenOptions::new().write(true).open(&path).unwrap();
        file.set_len(len - commit_len - 5).unwrap();
        drop(file);

        let (_, scan) = Wal::open(&path, FsyncPolicy::Os, stats).unwrap();
        assert!(scan.truncated_torn_tail);
        assert_eq!(scan.records.len(), 4, "image, commit, two intact deltas");
        assert!(matches!(scan.records[0].1, WalRecord::PageImage { .. }));
        assert!(matches!(scan.records[2].1, WalRecord::PageDelta { .. }));
        assert!(matches!(scan.records[3].1, WalRecord::PageDelta { .. }));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn mutation_group_coalesces_into_one_file_write() {
        // Appends buffer in process memory until a fence record lands; the
        // file grows only at the commit append (one write_all per group).
        let path = temp_wal_path("coalesce");
        let _ = std::fs::remove_file(&path);
        let stats = Arc::new(IoStats::new());
        let wal = Wal::create(&path, FsyncPolicy::Os, Arc::clone(&stats)).unwrap();
        wal.append(&page_image(1, 1)).unwrap();
        wal.append(&delta(1, 5, 1)).unwrap();
        assert_eq!(
            std::fs::metadata(&path).unwrap().len(),
            0,
            "non-fence records stay buffered"
        );
        wal.append(&commit(1)).unwrap();
        assert_eq!(
            std::fs::metadata(&path).unwrap().len(),
            wal.bytes(),
            "the commit flushed the whole group"
        );
        // The flushed-LSN barrier also drains the buffer (before fsync).
        wal.append(&page_image(2, 2)).unwrap();
        wal.ensure_all_synced().unwrap();
        assert_eq!(std::fs::metadata(&path).unwrap().len(), wal.bytes());
        assert_eq!(stats.snapshot().wal_bytes_appended, wal.bytes());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn page_table_first_touch_and_interval_reset() {
        let table = WalPageTable::new();
        assert!(!table.is_imaged(PageId(3)));
        assert!(table.first_touch(PageId(3)), "first touch logs the image");
        assert!(!table.first_touch(PageId(3)), "second touch logs deltas");
        assert!(table.is_imaged(PageId(3)));
        table.record(PageId(3), 9);
        table.exempt(PageId(0));
        // A checkpoint resets the interval: bases are gone, exemptions stay.
        table.begin_interval();
        assert!(!table.is_imaged(PageId(3)));
        assert!(!table.is_covered(PageId(3)));
        assert!(
            table.is_covered(PageId(0)),
            "exempt pages survive the reset"
        );
        // Reallocation forgets a page's base entirely.
        assert!(table.first_touch(PageId(3)));
        table.record(PageId(3), 12);
        table.forget(PageId(3));
        assert!(!table.is_imaged(PageId(3)));
        assert!(!table.is_covered(PageId(3)));
    }

    #[test]
    fn torn_tail_is_truncated_to_the_intact_prefix() {
        let path = temp_wal_path("torn");
        let _ = std::fs::remove_file(&path);
        let stats = Arc::new(IoStats::new());
        {
            let wal = Wal::create(&path, FsyncPolicy::Os, Arc::clone(&stats)).unwrap();
            wal.append(&page_image(1, 1)).unwrap();
            wal.append(&commit(1)).unwrap();
            wal.append(&page_image(2, 2)).unwrap();
        }
        // Tear the last record: cut 3 bytes off the end.
        let len = std::fs::metadata(&path).unwrap().len();
        let file = OpenOptions::new().write(true).open(&path).unwrap();
        file.set_len(len - 3).unwrap();
        drop(file);

        let (wal, scan) = Wal::open(&path, FsyncPolicy::Os, Arc::clone(&stats)).unwrap();
        assert!(scan.truncated_torn_tail);
        assert_eq!(scan.records.len(), 2, "intact prefix only");
        assert!(matches!(scan.records[1].1, WalRecord::Commit { ts: 1, .. }));
        // The torn bytes are gone from the file; appends restart cleanly.
        wal.append(&page_image(3, 3)).unwrap();
        drop(wal);
        let (_, rescan) = Wal::open(&path, FsyncPolicy::Os, stats).unwrap();
        assert!(!rescan.truncated_torn_tail);
        assert_eq!(rescan.records.len(), 3);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn corrupt_crc_mid_log_discards_everything_after() {
        let path = temp_wal_path("crc");
        let _ = std::fs::remove_file(&path);
        let stats = Arc::new(IoStats::new());
        {
            let wal = Wal::create(&path, FsyncPolicy::Os, Arc::clone(&stats)).unwrap();
            wal.append(&commit(1)).unwrap();
            wal.append(&commit(2)).unwrap();
            wal.append(&commit(3)).unwrap();
        }
        // Flip one byte in the middle record's body.
        let mut bytes = std::fs::read(&path).unwrap();
        let record_len = bytes.len() / 3;
        bytes[record_len + 12] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();

        let (_, scan) = Wal::open(&path, FsyncPolicy::Os, stats).unwrap();
        assert!(scan.truncated_torn_tail);
        assert_eq!(
            scan.records.len(),
            1,
            "records after a corrupt one are untrustworthy"
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn fsync_policy_governs_commit_syncs() {
        let cases: &[(FsyncPolicy, u64)] = &[
            // 6 commits: Always syncs each; EveryN(3) twice; Os never.
            (FsyncPolicy::Always, 6),
            (FsyncPolicy::EveryN(3), 2),
            (FsyncPolicy::Os, 0),
        ];
        for (policy, expected_syncs) in cases {
            let path = temp_wal_path(&format!("policy-{expected_syncs}"));
            let _ = std::fs::remove_file(&path);
            let stats = Arc::new(IoStats::new());
            let wal = Wal::create(&path, *policy, Arc::clone(&stats)).unwrap();
            for ts in 0..6 {
                wal.append(&page_image(ts, 0)).unwrap(); // images never sync
                wal.append(&commit(ts)).unwrap();
            }
            assert_eq!(
                stats.snapshot().wal_syncs,
                *expected_syncs,
                "policy {policy:?}"
            );
            // A checkpoint always syncs.
            wal.append(&WalRecord::Checkpoint {
                worm_len: 0,
                meta: vec![],
            })
            .unwrap();
            assert_eq!(stats.snapshot().wal_syncs, *expected_syncs + 1);
            let _ = std::fs::remove_file(&path);
        }
    }

    #[test]
    fn every_n_zero_is_clamped_to_every_one() {
        // Regression: EveryN(0) used to be accepted verbatim. Zero-sized
        // groups never reach a boundary, so commits were buffered forever
        // and `wait_durable` would hang. The constructors now clamp to
        // EveryN(1): every commit is its own group boundary.
        let path = temp_wal_path("everyn0");
        let _ = std::fs::remove_file(&path);
        let stats = Arc::new(IoStats::new());
        let wal = Wal::create(&path, FsyncPolicy::EveryN(0), Arc::clone(&stats)).unwrap();
        assert_eq!(wal.policy(), FsyncPolicy::EveryN(1));
        for ts in 0..4 {
            let (lsn, boundary) = wal.append_commit(&commit(ts)).unwrap();
            assert_eq!(boundary, Some(lsn), "each commit closes its own group");
            wal.wait_durable(lsn).unwrap();
        }
        assert_eq!(stats.snapshot().wal_syncs, 4);
        drop(wal);
        let (wal, scan) = Wal::open(&path, FsyncPolicy::EveryN(0), stats).unwrap();
        assert_eq!(wal.policy(), FsyncPolicy::EveryN(1), "open clamps too");
        assert_eq!(scan.records.len(), 4);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn reset_with_bounds_the_log_and_keeps_lsns_continuous() {
        let path = temp_wal_path("reset");
        let _ = std::fs::remove_file(&path);
        let stats = Arc::new(IoStats::new());
        {
            let wal = Wal::create(&path, FsyncPolicy::Os, Arc::clone(&stats)).unwrap();
            for ts in 0..20 {
                wal.append(&page_image(ts, 0)).unwrap();
                wal.append(&commit(ts)).unwrap();
            }
            let grown = wal.bytes();
            let fence_lsn = wal
                .reset_with(&WalRecord::Checkpoint {
                    worm_len: 7,
                    meta: vec![9; 8],
                })
                .unwrap();
            assert_eq!(fence_lsn, 41, "LSNs keep counting across generations");
            assert!(wal.bytes() < grown / 10, "the log shrank to one record");
            // Appends continue on the new generation.
            assert_eq!(wal.append(&commit(99)).unwrap(), 42);
        }
        let (_, scan) = Wal::open(&path, FsyncPolicy::Os, stats).unwrap();
        assert!(!scan.truncated_torn_tail);
        assert_eq!(scan.records.len(), 2);
        assert_eq!(scan.records[0].0, 41, "first record keeps its high LSN");
        assert!(matches!(
            scan.records[0].1,
            WalRecord::Checkpoint { worm_len: 7, .. }
        ));
        assert_eq!(scan.records[1].0, 42);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn leftover_intact_fenced_reset_tmp_is_rolled_forward() {
        let path = temp_wal_path("tmp-fwd");
        let tmp = path.with_extension("wal.tmp");
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(&tmp);
        let stats = Arc::new(IoStats::new());
        {
            // An old fence-less generation (a first create's page images)…
            let wal = Wal::create(&path, FsyncPolicy::Os, Arc::clone(&stats)).unwrap();
            wal.append(&page_image(1, 1)).unwrap();
            // …and a fully written replacement the crash kept from being
            // renamed: reset_with's temp file, holding the checkpoint.
            let replacement = Wal::create(&tmp, FsyncPolicy::Os, Arc::clone(&stats)).unwrap();
            replacement
                .append(&WalRecord::Checkpoint {
                    worm_len: 11,
                    meta: vec![7; 8],
                })
                .unwrap();
        }
        let (_, scan) = Wal::open(&path, FsyncPolicy::Os, stats).unwrap();
        assert!(!tmp.exists(), "the rename was completed");
        assert_eq!(scan.records.len(), 1);
        assert!(
            matches!(
                scan.records[0].1,
                WalRecord::Checkpoint { worm_len: 11, .. }
            ),
            "the fenced replacement generation won, not the fence-less old one"
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn create_discards_a_stale_reset_tmp_from_a_dead_generation() {
        let path = temp_wal_path("tmp-create");
        let tmp = path.with_extension("wal.tmp");
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(&tmp);
        let stats = Arc::new(IoStats::new());
        {
            // An intact, fenced temp file a dead incarnation left behind…
            let stale = Wal::create(&tmp, FsyncPolicy::Os, Arc::clone(&stats)).unwrap();
            stale
                .append(&WalRecord::Checkpoint {
                    worm_len: 99,
                    meta: vec![3; 8],
                })
                .unwrap();
            // …must not outlive a fresh create: rolled forward later, it
            // would clobber the new log with the dead generation's fence.
            let wal = Wal::create(&path, FsyncPolicy::Os, Arc::clone(&stats)).unwrap();
            assert!(!tmp.exists(), "create removed the stale temp file");
            wal.append(&commit(1)).unwrap();
        }
        let (_, scan) = Wal::open(&path, FsyncPolicy::Os, stats).unwrap();
        assert_eq!(scan.records.len(), 1);
        assert!(matches!(scan.records[0].1, WalRecord::Commit { ts: 1, .. }));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn leftover_unusable_reset_tmp_is_rolled_back() {
        for garbage in [&b"torn mid-write"[..], &[][..]] {
            let path = temp_wal_path("tmp-back");
            let tmp = path.with_extension("wal.tmp");
            let _ = std::fs::remove_file(&path);
            let stats = Arc::new(IoStats::new());
            {
                let wal = Wal::create(&path, FsyncPolicy::Os, Arc::clone(&stats)).unwrap();
                wal.append(&page_image(1, 1)).unwrap();
                wal.append(&commit(5)).unwrap();
            }
            std::fs::write(&tmp, garbage).unwrap();
            let (_, scan) = Wal::open(&path, FsyncPolicy::Os, stats).unwrap();
            assert!(!tmp.exists(), "the unfinished temp write was discarded");
            assert!(!scan.truncated_torn_tail);
            assert_eq!(scan.records.len(), 2, "the main log stands untouched");
            assert!(matches!(scan.records[1].1, WalRecord::Commit { ts: 5, .. }));
            let _ = std::fs::remove_file(&path);
        }
    }

    #[test]
    fn ensure_all_synced_is_a_noop_when_clean() {
        let path = temp_wal_path("ensure");
        let _ = std::fs::remove_file(&path);
        let stats = Arc::new(IoStats::new());
        let wal = Wal::create(&path, FsyncPolicy::Os, Arc::clone(&stats)).unwrap();
        wal.append(&page_image(1, 1)).unwrap();
        wal.ensure_all_synced().unwrap();
        assert_eq!(
            stats.snapshot().wal_syncs,
            1,
            "pending record forced a sync"
        );
        wal.ensure_all_synced().unwrap();
        wal.ensure_all_synced().unwrap();
        assert_eq!(stats.snapshot().wal_syncs, 1, "nothing pending, no syncs");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn fault_injector_kills_appends() {
        let path = temp_wal_path("fault");
        let _ = std::fs::remove_file(&path);
        let stats = Arc::new(IoStats::new());
        let wal = Wal::create(&path, FsyncPolicy::Os, stats).unwrap();
        let injector = Arc::new(FaultInjector::new());
        wal.set_fault_injector(Arc::clone(&injector));
        injector.crash_at(CrashPoint::WalAppend, 1);
        wal.append(&commit(1)).unwrap();
        assert!(wal.append(&commit(2)).is_err());
        assert!(wal.append(&commit(3)).is_err(), "dead forever");
        assert_eq!(wal.last_lsn(), 1);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn page_table_tracks_coverage() {
        let table = WalPageTable::new();
        assert!(!table.is_covered(PageId(5)));
        table.record(PageId(5), 17);
        assert!(table.is_covered(PageId(5)));
        assert_eq!(table.lsn_of(PageId(5)), Some(17));
        table.exempt(PageId(0));
        assert!(table.is_covered(PageId(0)));
        table.assert_covered(PageId(5));
        table.assert_covered(PageId(0));
    }

    /// A log written by the commit before the CRC kernel changed (PR 13,
    /// byte-at-a-time table), pinned as hex: an image, a delta, a commit
    /// and a checkpoint, with bodies of 53, 56, 45 and 24 bytes. It must
    /// replay whole, and today's appender must write exactly these bytes —
    /// the record format did not move.
    #[test]
    fn golden_log_from_the_parent_commit_replays_and_rewrites_identically() {
        const GOLDEN: &str = "\
            35000000b54ef1700100000000000000010700000000000000200000000101010101\
            01010101010101010101010101010101010101010101010101010138000000b51a26\
            bd020000000000000004070000000000000001080000000000000000000003002900\
            000000000000010c0000007676767676767676767676762d00000080dee4ce030000\
            0000000000022a00000000000000000000000000000010000000abababababababab\
            abababababababab18000000a4539d36040000000000000003800000000000000003\
            000000010203";
        let golden: Vec<u8> = (0..GOLDEN.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&GOLDEN[i..i + 2], 16).unwrap())
            .collect();
        let written = [
            page_image(7, 1),
            delta(7, 3, 41),
            commit(42),
            WalRecord::Checkpoint {
                worm_len: 128,
                meta: vec![1, 2, 3],
            },
        ];

        let path = temp_wal_path("golden");
        std::fs::write(&path, &golden).unwrap();
        let stats = Arc::new(IoStats::new());
        let (wal, scan) = Wal::open(&path, FsyncPolicy::Always, Arc::clone(&stats)).unwrap();
        assert!(!scan.truncated_torn_tail);
        assert_eq!(scan.records.len(), written.len());
        for (i, (lsn, rec)) in scan.records.iter().enumerate() {
            assert_eq!(*lsn, (i + 1) as Lsn);
            assert_eq!(rec, &written[i]);
        }
        drop(wal);

        let _ = std::fs::remove_file(&path);
        {
            let wal = Wal::create(&path, FsyncPolicy::Always, stats).unwrap();
            for rec in &written {
                wal.append(rec).unwrap();
            }
        }
        assert_eq!(std::fs::read(&path).unwrap(), golden);
        let _ = std::fs::remove_file(&path);
    }
}
