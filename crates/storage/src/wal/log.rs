//! The log file and its append buffer: [`Wal`] opens, creates and resets
//! the file; appends frame records into an in-process buffer that fences
//! drain with one `write_all`. When those bytes are *synced* is
//! [`super::commit`]'s concern.

use std::fs::{File, OpenOptions};
use std::io::{Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use parking_lot::Mutex;

use tsb_common::{FsyncPolicy, TsbError, TsbResult};

use super::commit::GroupCommit;
use super::record::write_frame;
use super::{Lsn, WalRecord, WalScan};
use crate::fault::{CrashPoint, FaultInjector};
use crate::stats::IoStats;

/// The append buffer is flushed to the file once it holds this many bytes,
/// even mid-mutation, bounding the process memory a huge split can pin.
const APPEND_BUFFER_FLUSH_BYTES: usize = 1 << 20;

/// Forces the directory entry for `path` to stable storage. Creating or
/// renaming a file is durable only once its *parent directory* is fsynced:
/// the file's own `sync_all` covers its data and inode, not the name
/// pointing at it, and on many filesystems a crash can otherwise resurrect
/// the directory's previous contents (the pre-checkpoint log generation, or
/// no log at all).
pub fn sync_parent_dir(path: &Path) -> TsbResult<()> {
    let parent = match path.parent() {
        Some(p) if !p.as_os_str().is_empty() => p,
        _ => Path::new("."),
    };
    File::open(parent)?.sync_all()?;
    Ok(())
}

pub(super) struct WalInner {
    pub(super) file: File,
    pub(super) next_lsn: Lsn,
    /// The shard the log's newest [`WalRecord::Shard`] switch names: the
    /// owner of a tagged record appended next without a switch.
    shard: u32,
    /// Bytes of intact log (the append position), buffered bytes included.
    len: u64,
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
    /// per commit, is what keeps `Os` commits fsync-free.
    /// `Arc` so a capture can run it outside the inner lock.
    pub(super) pre_sync: Option<Arc<dyn Fn() -> TsbResult<()> + Send + Sync>>,
    pub(super) injector: Option<Arc<FaultInjector>>,
}

/// See [`Wal::set_pre_sync_hook`].
pub type PreSyncHook = Box<dyn Fn() -> TsbResult<()> + Send + Sync>;

impl WalInner {
    /// Frames `body` — the record at `lsn` — into the append buffer. A
    /// fence, or a buffer past [`APPEND_BUFFER_FLUSH_BYTES`], drains the
    /// buffer to the file.
    fn push(&mut self, lsn: Lsn, body: &[u8], is_fence: bool, stats: &IoStats) -> TsbResult<()> {
        let frame_len = write_frame(&mut self.pending, body) as u64;
        self.next_lsn = lsn + 1;
        self.len += frame_len;
        stats.record_wal_append();
        stats.record_wal_bytes(frame_len);
        if is_fence || self.pending.len() >= APPEND_BUFFER_FLUSH_BYTES {
            self.flush_pending()?;
        }
        Ok(())
    }

    /// Writes the append buffer to the file in one syscall.
    pub(super) fn flush_pending(&mut self) -> TsbResult<()> {
        if self.pending.is_empty() {
            return Ok(());
        }
        self.file.write_all(&self.pending)?;
        self.pending.clear();
        Ok(())
    }
}

/// The state shared between a [`Wal`] and every thread that appends to
/// or syncs it.
pub(super) struct WalShared {
    pub(super) inner: Mutex<WalInner>,
    policy: FsyncPolicy,
    pub(super) stats: Arc<IoStats>,
    pub(super) group: GroupCommit,
}

/// The write-ahead log: an append-only, checksummed redo log over one
/// file, synced by whoever waits on it (see the module docs).
pub struct Wal {
    shared: Arc<WalShared>,
    path: PathBuf,
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

impl WalShared {
    /// Appends one record of shard `shard` under the inner lock (see
    /// [`WalInner::push`]), preceded by a [`WalRecord::Shard`] switch when
    /// the record belongs to the tagged shard and that is not `shard`.
    /// Returns the record's LSN plus, for a commit the policy wants durable
    /// before it is acknowledged, the fence LSN the caller must wait on
    /// ([`Wal::wait_durable`]). Never syncs, never asks for a sync.
    fn append_record(&self, shard: u32, record: &WalRecord) -> TsbResult<(Lsn, Option<Lsn>)> {
        let mut inner = self.inner.lock();
        let point = match record {
            WalRecord::Checkpoint { .. } => CrashPoint::WalCheckpoint,
            _ => CrashPoint::WalAppend,
        };
        if let Some(injector) = &inner.injector {
            injector.check(point)?;
        }
        if record.is_tagged() && inner.shard != shard {
            let lsn = inner.next_lsn;
            let switch = WalRecord::Shard { shard }.encode_body(lsn);
            inner.push(lsn, &switch, false, &self.stats)?;
            inner.shard = shard;
        }
        let lsn = inner.next_lsn;
        inner.push(
            lsn,
            &record.encode_body(lsn),
            record.is_fence(),
            &self.stats,
        )?;
        // Only a commit hands out a position to wait on, and only under
        // `Always`: checkpoints sync on the caller's thread, page records
        // never sync.
        let is_commit = matches!(
            record,
            WalRecord::Commit { .. } | WalRecord::ShardCommit { .. }
        );
        if is_commit {
            self.stats.record_wal_commit();
        }
        let boundary = (is_commit && self.policy == FsyncPolicy::Always).then_some(lsn);
        Ok((lsn, boundary))
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
        Ok(Self::assemble(file, 1, 0, 0, policy, path, stats))
    }

    /// Wraps an opened file positioned at byte `len`, where `next_lsn`
    /// will be appended on the tagged `shard`. The watermark starts at
    /// `next_lsn - 1`: the caller has forced whatever the file already
    /// holds (`create`: nothing; `open`: the prefix it scanned).
    fn assemble(
        file: File,
        next_lsn: Lsn,
        len: u64,
        shard: u32,
        policy: FsyncPolicy,
        path: PathBuf,
        stats: Arc<IoStats>,
    ) -> Wal {
        let shared = Arc::new(WalShared {
            inner: Mutex::new(WalInner {
                file,
                next_lsn,
                shard,
                len,
                pending: Vec::new(),
                pre_sync: None,
                injector: None,
            }),
            policy,
            stats,
            group: GroupCommit::starting_at(next_lsn - 1),
        });
        Wal { shared, path }
    }

    /// Opens (or creates) the log at `path`: one integrity pass over the
    /// file, a chunk at a time, truncates a torn tail. The returned
    /// [`WalScan`] reads the intact records back for replay; the `Wal` is
    /// positioned to append after them, and they are forced to stable
    /// storage (one fsync, none for an empty log) before
    /// [`Self::durable_lsn`] is seeded at their tail.
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
        let scan = WalScan::check(file.try_clone()?)?;
        if scan.truncated_torn_tail {
            file.set_len(scan.end)?;
            file.sync_all()?;
        } else if scan.end > 0 {
            // Bytes a scan can read are not thereby durable: the process
            // that wrote them may have been killed (or, under `Os`, simply
            // exited) before any fsync covered them. The caller installs
            // pages from this scan and the watermark below lets dirty pages
            // past the write-back barrier, so force the file first —
            // whatever the policy, exactly as that barrier does.
            file.sync_data()?;
            stats.record_wal_sync();
        }
        file.seek(SeekFrom::Start(scan.end))?;
        let next_lsn = scan.last_lsn.map_or(1, |lsn| lsn + 1);
        let wal = Self::assemble(file, next_lsn, scan.end, scan.tag, policy, path, stats);
        Ok((wal, scan))
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
        let scan = match File::open(&tmp) {
            Ok(file) => WalScan::check(file)?,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(()),
            Err(e) => return Err(e.into()),
        };
        if !scan.truncated_torn_tail && scan.holds_a_fence() {
            std::fs::rename(&tmp, path)?;
        } else {
            std::fs::remove_file(&tmp)?;
        }
        sync_parent_dir(path)
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

    /// Appends one record of shard 0, returning its LSN. The frame lands
    /// in the append buffer; fence records (`Commit` / `Checkpoint`) drain
    /// the buffer to the file in one coalesced `write_all` — the whole
    /// mutation group in one syscall. Under `Always` a commit is
    /// additionally made durable before this returns
    /// ([`Self::wait_durable`]); checkpoints always sync, on this thread. Callers
    /// that can release locks between the append and the park use
    /// [`Self::append_for`] + [`Self::wait_durable`] instead.
    pub fn append(&self, record: &WalRecord) -> TsbResult<Lsn> {
        match record {
            WalRecord::Commit { .. } => {
                let (lsn, boundary) = self.append_for(0, record)?;
                if let Some(fence) = boundary {
                    self.wait_durable(fence)?;
                }
                Ok(lsn)
            }
            WalRecord::Checkpoint { .. } => {
                let (lsn, _) = self.append_for(0, record)?;
                self.sync()?;
                Ok(lsn)
            }
            _ => Ok(self.append_for(0, record)?.0),
        }
    }

    /// Appends one record on behalf of shard `shard` — the door of every
    /// tree sharing the log — and nothing else: no sync is performed or
    /// asked for. Returns `(lsn, boundary)`: for a commit fence `boundary`
    /// is `Some(fence_lsn)` exactly when the policy wants the commit
    /// durable before it is acknowledged — the caller should release its
    /// locks, then [`Self::wait_durable`] on it (a batch waits once, on its
    /// newest boundary, and every commit before it shares that sync);
    /// `None` means acknowledge immediately (`Os`). A record that belongs
    /// to the tagged shard is preceded by a [`WalRecord::Shard`] switch
    /// when the log's tag names another shard; one that names its shards
    /// never is.
    pub fn append_for(&self, shard: u32, record: &WalRecord) -> TsbResult<(Lsn, Option<Lsn>)> {
        self.shared.append_record(shard, record)
    }

    /// Returns once the durable watermark covers `lsn`: at once when it
    /// already does; else by parking on the sync on the device, or by
    /// running the next sync on this thread when none is (see "Group
    /// commit" in the [module docs](super)). Errors if a sync failure was
    /// published (the failure is sticky). A wait that does not return at
    /// once lands in the group-commit wait counters, timed from call to
    /// return.
    ///
    /// An `lsn` past the newest appended record was never handed out by
    /// this log; no sync could reach it, so it is a typed error.
    pub fn wait_durable(&self, lsn: Lsn) -> TsbResult<()> {
        let start = Instant::now();
        let tail = self.last_lsn();
        if lsn > tail {
            return Err(TsbError::config(format!(
                "durability position {lsn} is past the newest appended record ({tail})"
            )));
        }
        if self.durable_lsn() >= lsn {
            return Ok(());
        }
        let result = self.shared.sync_through(lsn);
        self.shared
            .stats
            .record_group_commit_wait(start.elapsed().as_nanos() as u64);
        result
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
    /// the caller decides when to fsync (via [`Self::sync`]) — the fsync
    /// policy never applies to shipped records.
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
        inner.push(lsn, body, record.is_fence(), &self.shared.stats)?;
        inner.shard = record.tag_after(inner.shard);
        Ok(true)
    }

    /// Forces everything appended so far to stable storage before
    /// returning; no-op (no fsync) when the tail is already durable.
    /// Goes through the same gate as [`Self::wait_durable`], targeting
    /// [`Self::last_lsn`], but books no group-commit wait. Once a sync
    /// failure was published it returns that failure and syncs nothing.
    ///
    /// Besides a replica's batch end, this is the force behind the
    /// **flushed-LSN rule** ([`super::WalPageTable::ensure_durable`]) — run
    /// only for a page whose newest record its shard's durable fence does
    /// not cover yet. A page may reach the page device only when
    /// every log record needed to reproduce (or supersede) its content is
    /// stable and fenced, whatever the commit fsync policy says.
    pub fn sync(&self) -> TsbResult<()> {
        self.shared.sync_through(self.last_lsn())
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
        let mut frame = Vec::new();
        write_frame(&mut frame, &record.encode_body(lsn));

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
        inner.shard = 0;
        inner.len = frame.len() as u64;
        // Anything the old generation still buffered precedes the new
        // fence and is unreplayable by construction.
        inner.pending.clear();
        drop(inner);
        // The fence is the newest LSN and it is durable, so this jumps the
        // watermark over everything the old generation ever held: the
        // checkpoint quiesces the pipeline (parked waiters wake satisfied,
        // a racing sync's stale publish is a monotonic no-op). A sync that
        // raced the rename fsyncs the renamed-over file handle, which is
        // harmless.
        self.shared.publish_durable(lsn)?;
        Ok(lsn)
    }
}

impl Drop for Wal {
    /// Best-effort drains the append buffer: a *clean* shutdown keeps
    /// every appended record reachable on reopen, exactly as when appends
    /// wrote through. (A killed process loses only un-fenced buffered
    /// records, which recovery's replay cut would discard regardless.)
    fn drop(&mut self) {
        let _ = self.shared.inner.lock().flush_pending();
    }
}
