//! Group commit: the durable-LSN watermark and the one gate every sync of
//! the log goes through, run on the thread that needs the sync. See
//! "Group commit: whoever waits runs the sync" in the [module
//! docs](super).

use std::sync::{Condvar, Mutex as StdMutex, MutexGuard as StdMutexGuard};

use tsb_common::{TsbError, TsbResult};

use super::log::WalShared;
use super::Lsn;
use crate::fault::CrashPoint;

/// Locks a std mutex, shrugging off poisoning (a panicked sync leader must
/// not wedge every waiter — matching the parking_lot contract used
/// elsewhere in the crate).
fn lock_std<T>(mutex: &StdMutex<T>) -> StdMutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(|e| e.into_inner())
}

/// The durable-LSN watermark: every record at or below `lsn` is on stable
/// storage. `failed` is the sticky sync error — once a sync fails, every
/// parked and future waiter observes it, and the watermark never moves
/// again. `syncing` says a sync is on the device: its leader publishes,
/// clears the flag and wakes every follower.
#[derive(Default)]
struct DurableMark {
    lsn: Lsn,
    failed: Option<String>,
    syncing: bool,
}

impl DurableMark {
    /// The sticky sync failure as an error, if one was published.
    fn failure(&self) -> Option<TsbError> {
        let msg = self.failed.as_ref()?;
        Some(TsbError::Io(std::io::Error::other(msg.clone())))
    }
}

/// The group-commit state every caller of the log shares. Uses
/// `std::sync` primitives because the workspace's parking_lot shim carries
/// no condvar.
///
/// Lock order (never reversed): the record state's inner lock before
/// `durable`. The gate never holds `durable` while it takes the inner
/// lock.
pub(super) struct GroupCommit {
    /// See [`DurableMark`].
    durable: StdMutex<DurableMark>,
    /// Broadcasts watermark advances, failures and the end of every sync
    /// to parked followers.
    published: Condvar,
}

impl GroupCommit {
    /// A gate whose watermark starts at `durable_lsn` — the tail of what
    /// the opener has already forced (see `Wal::open`), 0 for a fresh log.
    pub(super) fn starting_at(durable_lsn: Lsn) -> GroupCommit {
        GroupCommit {
            durable: StdMutex::new(DurableMark {
                lsn: durable_lsn,
                ..DurableMark::default()
            }),
            published: Condvar::new(),
        }
    }
}

/// A leader's hold on the gate. Dropping it — after a sync that returned,
/// failed or panicked — clears `syncing` and wakes every follower, so none
/// parks on a sync that will never publish.
struct Lead<'a>(&'a GroupCommit);

impl Drop for Lead<'_> {
    fn drop(&mut self) {
        lock_std(&self.0.durable).syncing = false;
        self.0.published.notify_all();
    }
}

impl WalShared {
    /// The durable-LSN watermark (0 when nothing is durable yet).
    pub(super) fn durable_lsn(&self) -> Lsn {
        lock_std(&self.group.durable).lsn
    }

    /// Advances the watermark to `lsn` (monotonic: a stale publish from a
    /// sync that raced a checkpoint reset is a no-op) and wakes every
    /// parked follower. Refused once a sync failure is published: an fsync
    /// that succeeds after a failed one may be covering for bytes the
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

    /// Publishes a sticky sync failure: every parked and future waiter
    /// errors with it.
    fn publish_failure(&self, err: &TsbError) {
        let mut mark = lock_std(&self.group.durable);
        if mark.failed.is_none() {
            mark.failed = Some(err.to_string());
        }
        drop(mark);
        self.group.published.notify_all();
    }

    /// The one gate of every sync: returns once the watermark covers
    /// `target`, or with the sticky failure once one is published. While a
    /// sync is on the device the caller parks on it; otherwise the caller
    /// leads the next one, on its own thread, and that sync covers every
    /// record appended before its capture — its followers' too. `target`
    /// must not pass the log's tail (`Wal::wait_durable` checks): no sync
    /// could reach it.
    pub(super) fn sync_through(&self, target: Lsn) -> TsbResult<()> {
        let mut mark = lock_std(&self.group.durable);
        loop {
            if mark.lsn >= target {
                return Ok(());
            }
            // A position already durable is durable no matter what happened
            // to a *later* sync, hence the watermark check first.
            if let Some(err) = mark.failure() {
                return Err(err);
            }
            if mark.syncing {
                mark = self
                    .group
                    .published
                    .wait(mark)
                    .unwrap_or_else(|e| e.into_inner());
                continue;
            }
            mark.syncing = true;
            drop(mark);
            let lead = Lead(&self.group);
            self.sync_to_tail()?;
            drop(lead);
            mark = lock_std(&self.group.durable);
        }
    }

    /// Forces everything appended so far to stable storage and publishes
    /// the watermark; run only by the gate's leader. The capture (flush +
    /// tail LSN + file handle) runs under the inner lock; the device sync
    /// runs *outside* it, so the next mutations' appends proceed while the
    /// device works — the pipelining that lets concurrent commits share
    /// one fsync. Any error is published as the sticky failure before it
    /// returns. No-op when the tail is already durable.
    fn sync_to_tail(&self) -> TsbResult<()> {
        let result = self.sync_to_tail_inner();
        if let Err(e) = &result {
            self.publish_failure(e);
        }
        result
    }

    fn sync_to_tail_inner(&self) -> TsbResult<()> {
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
        self.publish_durable(target)
    }
}
