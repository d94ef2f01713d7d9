//! Pipelined group commit: the sync request queue, the durable-LSN
//! watermark committers park on, and the thread that turns requests into
//! one `fsync` per drain. See "Pipelined commit" in the [module
//! docs](super).

use std::sync::{Arc, Condvar, Mutex as StdMutex, MutexGuard as StdMutexGuard};
use std::thread::JoinHandle;
use std::time::Instant;

use tsb_common::{TsbError, TsbResult};

use super::log::WalShared;
use super::Lsn;
use crate::fault::CrashPoint;

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
/// parked and future waiter observes it, and the watermark never moves
/// again.
#[derive(Default)]
struct DurableMark {
    lsn: Lsn,
    failed: Option<String>,
}

impl DurableMark {
    /// The sticky sync failure as an error, if one was published.
    fn failure(&self) -> Option<TsbError> {
        let msg = self.failed.as_ref()?;
        Some(TsbError::Io(std::io::Error::other(msg.clone())))
    }
}

/// The pipelined group-commit state shared between committers (append
/// threads) and the dedicated sync thread. Uses `std::sync` primitives
/// because the workspace's parking_lot shim carries no condvar.
///
/// Lock order (never reversed): `queue` before `durable`; the record
/// state's inner lock before `durable`. `queue` and the inner lock are
/// never held together.
#[derive(Default)]
pub(super) struct GroupCommit {
    /// See [`SyncQueue`].
    queue: StdMutex<SyncQueue>,
    /// Wakes the committer thread when `queue.requested` advances.
    work: Condvar,
    /// See [`DurableMark`].
    durable: StdMutex<DurableMark>,
    /// Broadcasts watermark advances (and failures) to parked committers.
    published: Condvar,
}

impl GroupCommit {
    /// A pipeline whose watermark starts at `durable_lsn` — the tail of
    /// what the opener has already forced (see `Wal::open`), 0 for a fresh
    /// log.
    pub(super) fn starting_at(durable_lsn: Lsn) -> GroupCommit {
        GroupCommit {
            durable: StdMutex::new(DurableMark {
                lsn: durable_lsn,
                failed: None,
            }),
            ..GroupCommit::default()
        }
    }

    /// Tells the committer thread to exit once its in-flight drain (if
    /// any) completes.
    pub(super) fn shut_down(&self) {
        lock_std(&self.queue).shutdown = true;
        self.work.notify_all();
    }
}

impl WalShared {
    /// The durable-LSN watermark (0 when nothing is durable yet).
    pub(super) fn durable_lsn(&self) -> Lsn {
        lock_std(&self.group.durable).lsn
    }

    /// Advances the watermark to `lsn` (monotonic: a stale publish from a
    /// drain that raced a checkpoint reset is a no-op) and wakes every
    /// parked committer. Refused once a sync failure is published: an
    /// fsync that succeeds after a failed one may be covering for bytes the
    /// failure dropped.
    pub(super) fn publish_durable(&self, lsn: Lsn) -> TsbResult<()> {
        let mut mark = lock_std(&self.group.durable);
        if let Some(err) = mark.failure() {
            return Err(err);
        }
        mark.lsn = mark.lsn.max(lsn);
        drop(mark);
        self.group.published.notify_all();
        Ok(())
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
    /// durable. Returns immediately. `lsn` must not pass the log's tail
    /// (`Wal::request_durable`, the only caller, checks): a target no
    /// drain can reach would keep the committer thread spinning.
    pub(super) fn request_sync(&self, lsn: Lsn) {
        let mut queue = lock_std(&self.group.queue);
        if lsn > queue.requested {
            queue.requested = lsn;
            drop(queue);
            self.group.work.notify_one();
        }
    }

    /// Parks until the watermark reaches `lsn` or a sync failure is
    /// published. The parked time lands in the group-commit wait counters.
    pub(super) fn wait_durable(&self, lsn: Lsn) -> TsbResult<()> {
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
            if let Some(err) = mark.failure() {
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

    /// Forces everything appended so far to stable storage and publishes
    /// the watermark. The capture (flush + tail LSN + file handle) runs
    /// under the inner lock; the device sync runs *outside*
    /// it, so the next mutation's appends proceed while the device works —
    /// the pipelining that lets concurrent commits share one fsync. Any error
    /// is published as the sticky failure before it returns; once one is
    /// published, every later call returns it without syncing. No-op when
    /// the tail is already durable.
    pub(super) fn sync_to_tail(&self, from_committer: bool) -> TsbResult<()> {
        let result = self.sync_to_tail_inner(from_committer);
        if let Err(e) = &result {
            self.publish_failure(e);
        }
        result
    }

    fn sync_to_tail_inner(&self, from_committer: bool) -> TsbResult<()> {
        let (target, file, hook, injector) = {
            let mut inner = self.inner.lock();
            let target = inner.next_lsn - 1;
            {
                let mark = lock_std(&self.group.durable);
                if let Some(err) = mark.failure() {
                    return Err(err);
                }
                if target <= mark.lsn {
                    // Nothing undurable; the append buffer is necessarily
                    // empty (un-flushed appends hold LSNs above the mark).
                    return Ok(());
                }
            }
            if let Some(injector) = &inner.injector {
                injector.check(CrashPoint::WalSync)?;
            }
            inner.flush_pending()?;
            (
                target,
                inner.file.try_clone()?,
                inner.pre_sync.clone(),
                inner.injector.clone(),
            )
        };
        // The target was captured *before* the hook runs: every WORM store
        // is append-only, so syncing each to its current length covers the
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
        self.publish_durable(target)
    }

    /// The group-commit thread body: park until a fence LSN beyond the
    /// watermark is requested, drain (one fsync per wake), repeat. Exits
    /// on shutdown or after publishing a sync failure — the failure is
    /// sticky, so staying alive to fail every future drain adds nothing.
    fn committer_loop(&self) {
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

    /// Spawns the group-commit thread over this shared state.
    pub(super) fn spawn_committer(self: &Arc<Self>) -> JoinHandle<()> {
        let shared = Arc::clone(self);
        std::thread::Builder::new()
            .name("tsb-wal-commit".into())
            .spawn(move || shared.committer_loop())
            .expect("spawn the WAL group-commit thread")
    }
}
