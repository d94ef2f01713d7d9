//! The dirty-page table: which pages the log covers, and the barrier a
//! device write-back passes through — a comparison with the durable fence
//! of the page's own shard, and a force of the log only when that
//! comparison fails.

use std::collections::{HashMap, HashSet};

use parking_lot::Mutex;

use tsb_common::TsbResult;

use super::{Lsn, Wal};
use crate::page::PageId;

/// The dirty-page table backing the **WAL-before-page** invariant.
///
/// Before a dirty page may be written back to the magnetic store, the
/// page's newest state must already be in the WAL. The tree logs a page
/// only with the write that installs it — a full image on the page's
/// first touch of the interval ([`first_touch`](Self::first_touch)), the
/// delta chain deriving the new node otherwise — and records each append
/// here ([`record`](Self::record)); its one device
/// write-back site — shared by the decoded-node cache's overflow drain
/// and the tree's flush — runs the full barrier
/// ([`ensure_durable`](Self::ensure_durable)): a coverage `debug_assert`
/// plus the flushed-LSN rule — the page's newest record must sit at or
/// below the **durable fence of its shard** (the newest fence naming that
/// shard at or below the durable LSN) before the page bytes may land on
/// the device, so a power failure can never leave the device holding state
/// the surviving log cannot reproduce or supersede. Every recovery replays
/// the shard through that fence or a later one, so a page it already
/// covers is written back with no fsync at all; only a page past it forces
/// the log, inline ([`Wal::sync`]). Neither the durable LSN nor another
/// shard's fence would do: a sync may capture the tail in the middle of a
/// mutation, and recovery discards the records of a shard that no fence
/// of *that shard* covers. The table holds one shard's pages; the fence is
/// the caller's to track, because only the caller reads what a fence
/// names.
#[derive(Debug, Default)]
pub struct WalPageTable {
    /// page -> LSN of the page's newest logged record (image or delta).
    pages: Mutex<HashMap<u64, Lsn>>,
    /// Pages whose full image was logged in the current checkpoint
    /// interval (log generation) — the **first-touch** set. A write of a
    /// page in this set may log its delta chain; a page outside it must
    /// log its full image first, so replay always has an in-log base for
    /// every delta. Cleared by [`begin_interval`](Self::begin_interval)
    /// when a checkpoint resets the log.
    imaged: Mutex<HashSet<u64>>,
}

impl WalPageTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// The write-back barrier: asserts WAL coverage of `page`, then
    /// returns at once if `durable_fence` — the newest durable fence of the
    /// page's shard — covers the page's newest record, and otherwise forces
    /// `wal` through its tail — at a write-back, the fence just appended.
    /// Called before a dirty page image is written to the device.
    pub fn ensure_durable(&self, page: PageId, durable_fence: Lsn, wal: &Wal) -> TsbResult<()> {
        self.assert_covered(page);
        match self.lsn_of(page) {
            Some(lsn) if lsn <= durable_fence => Ok(()),
            _ => wal.sync(),
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
    /// [`super::WalRecord::PageImage`]; later callers may log deltas.
    pub fn first_touch(&self, page: PageId) -> bool {
        self.imaged.lock().insert(page.0)
    }

    /// Drops everything known about `page`. Called when the page is
    /// (re)allocated: a recycled page's old image is not a base for its
    /// new life — content landing on it must log a fresh full image.
    pub fn forget(&self, page: PageId) {
        self.imaged.lock().remove(&page.0);
        self.pages.lock().remove(&page.0);
    }

    /// Starts a fresh checkpoint interval after the log was reset: every
    /// page must log a full image again before its next delta (the new log
    /// generation holds no bases), and the write-back coverage map starts
    /// over (the checkpoint's flush drained every dirty page).
    pub fn begin_interval(&self) {
        self.imaged.lock().clear();
        self.pages.lock().clear();
    }

    /// The LSN of `page`'s newest logged record.
    pub fn lsn_of(&self, page: PageId) -> Option<Lsn> {
        self.pages.lock().get(&page.0).copied()
    }

    /// Whether `page` may be written back (its newest state is logged).
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
