//! The dirty-page table: which pages the log covers, and the barrier a
//! device write-back passes through.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use parking_lot::Mutex;

use tsb_common::TsbResult;

use super::{Lsn, Wal};
use crate::page::PageId;

/// The dirty-page table backing the **WAL-before-page** invariant.
///
/// Before a dirty page may be written back to the magnetic store, the
/// page's newest image must already be in the WAL. The tree records every
/// `PageImage` append here ([`record`](Self::record)); its one device
/// write-back site — shared by the decoded-node cache's overflow drain
/// and the tree's flush — runs the full barrier
/// ([`ensure_durable`](Self::ensure_durable)): a coverage `debug_assert`
/// plus the flushed-LSN rule — the log is forced to stable storage
/// through its newest record before the page bytes may land on the
/// device, so a power failure can never leave the device holding state
/// the surviving log cannot reproduce or supersede. The tree's metadata
/// page never passes through it: recovery rebuilds the metadata from
/// fence records, never from the page.
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
    /// the log to stable storage through its newest record. Called before
    /// a dirty page image is written to the device.
    pub fn ensure_durable(&self, page: PageId) -> TsbResult<()> {
        self.assert_covered(page);
        let wal = self.wal.lock().clone();
        match wal {
            Some(wal) => wal.sync(),
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
    /// [`super::WalRecord::PageImage`]; later callers may log deltas.
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
