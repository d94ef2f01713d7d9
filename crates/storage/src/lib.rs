//! # tsb-storage
//!
//! The two-device storage substrate required by the Time-Split B-tree
//! (Lomet & Salzberg, SIGMOD 1989):
//!
//! * [`MagneticStore`] — the **current database** device: an erasable,
//!   random-access, page-addressed store (in-memory or file-backed). Pages
//!   can be allocated, rewritten in place, and freed, which is what permits
//!   "normal" B-tree node splitting and the erasure of aborted-transaction
//!   data (§1, §5).
//! * [`WormStore`] — the **historical database** device: an append-only,
//!   sector-granular write-once store. Any attempt to rewrite a sector is an
//!   error ([`tsb_common::TsbError::WormRewrite`]), reproducing the "burned
//!   error-correcting code" property the paper describes (§1). Historical
//!   nodes of arbitrary length are appended and addressed by
//!   `(offset, length)` exactly as §3.4 prescribes; the store tracks payload
//!   bytes vs. sectors consumed so experiments can report sector utilization.
//! * [`IoStats`] — cross-cutting I/O counters (device reads, writes and
//!   appends, node-cache hits/misses, log traffic) used by the access-cost
//!   experiments.
//! * [`CostModel`] — the paper's storage cost function
//!   `CS = SpaceM · CM + SpaceO · CO` (§3.2) plus a simple device access-time
//!   model (optical seeks ≈ 3× magnetic, optional robot mount time).
//! * [`Wal`] — a checksummed, length-prefixed physical redo log for the
//!   magnetic store, with torn-tail repair, checkpoint fencing, and a
//!   configurable commit fsync policy (see [`wal`]). The WORM store needs
//!   no log — write-once hardware is its own durability — so the WAL is
//!   what makes the *erasable* half of the two-device design crash-safe.
//! * [`FaultInjector`] / [`CrashPoint`] — deterministic crash injection
//!   consulted by every durable write site, so recovery is adversarially
//!   testable rather than hopefully correct.
//!
//! Everything is deliberately synchronous and simulator-grade: the goal is
//! faithful *behaviour* (erasability, write-once-ness, sector granularity,
//! space accounting), not kernel-bypass performance.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cost;
pub mod fault;
pub mod lru;
pub mod magnetic;
pub mod page;
pub mod replication;
pub mod stats;
pub mod wal;
pub mod worm;

pub use cost::{AccessCost, CostModel, SpaceSnapshot};
pub use fault::{CrashPoint, FaultInjector, ALL_CRASH_POINTS};
pub use lru::LruList;
pub use magnetic::MagneticStore;
pub use page::{HistAddr, PageId};
pub use replication::{TailPoll, WalTailer, DEFAULT_BATCH_BYTES};
pub use stats::{IoSnapshot, IoStats};
pub use wal::{sync_parent_dir, Lsn, PageOp, Wal, WalPageTable, WalRecord, WalScan};
pub use worm::{SectorId, WormStore};
