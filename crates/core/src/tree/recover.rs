//! Redo recovery: what a log *means*, written once.
//!
//! A crash leaves several admissible durable prefixes — every fence whose
//! records and history reached the devices — and recovery determines which
//! one the system reveals. One [`Applier`] makes that determination, for
//! a primary's recovery, a replica's restart ([`replay`] for both) and a
//! replica's live apply alike, by folding the log through two rules. A
//! log may be shared by the shards of one engine; the fence rule and the
//! applier are the only readers that know it.
//!
//! ## The rules
//!
//! * The **fence rule** ([`fence_rule`]) reads one record against each
//!   shard's previous fence state and the WORM bytes actually on each
//!   shard's device, and says whether it is a fence, whether its history
//!   is there, and which `(root, clock-next, next-txn)` it describes for
//!   each shard it names — the shard the log's tag names for a one-shard
//!   fence, every part's shard for a fence that spans shards. It is the
//!   only code that decodes fence metadata, inherits elided metadata, or
//!   compares a fence's `worm_len` with the device — the comparison the
//!   two-device design rests on: *history before the fence that
//!   references it* (a historical node is burned once, then only pointed
//!   at — §3.4). A fence that spans shards is usable whole or not at all.
//!   What a fence past the device *means* is the caller's: primary
//!   recovery ends its replay before it (nothing acknowledged it); a
//!   replica, whose apply protocol syncs history before logging its fence,
//!   refuses it as corruption, naming the short shard — at restart and,
//!   before the fence reaches the local log, at live apply.
//! * The **page rule** ([`apply_page_record`], in [`super::replay`]) folds
//!   one page record into a map of [`ReplayPage`]s: an image replaces the
//!   page's state, a delta applies to its newest state, and a page the map
//!   lacks takes its base from the caller — recovery supplies none (the
//!   first-touch rule makes a miss corruption), live apply the device.
//!
//! ## The protocol ("repeating history", then discarding the un-fenced tail)
//!
//! 1. **Base.** Replay starts at the newest checkpoint record
//!    ([`WalScan::since_newest_checkpoint`], read a chunk at a time):
//!    every shard's magnetic device is known to equal the state it names.
//!    A log with commits but no checkpoint replays from the empty store the
//!    first session started with.
//! 2. **Fold, fence by fence** ([`Applier::feed`]). Each shard stages its
//!    page records since its last fence; a fence folds the stage of each
//!    shard it names into that shard's fenced page states. The first fence
//!    past its device ends the replay: the cut, one for the whole log, is
//!    the newest fence such that every fence up to it has its history on
//!    its own shard's WORM device. Each shard stands at its own last fence
//!    at or before the cut; its stage belongs to a mutation that never
//!    finished logging and is discarded, and any WORM sectors it burned
//!    are dead space (write-once media cannot be un-burned — §1). A
//!    cross-shard commit is one fence record, so it is in every
//!    participant's replayed prefix or in none.
//! 3. **Repeat history.** Each shard's fenced page states are installed
//!    ([`MagneticStore::restore`] force-allocates pages the on-disk
//!    superblock predates). This overwrites any torn or half-flushed
//!    device state — correctness does not depend on *which* writes
//!    happened to reach the device before the crash, and deltas never
//!    read the device.
//! 4. **Metadata.** Each shard's root pointer, logical clock, and
//!    transaction counter come from its last fence — the log is the only
//!    place a tree's state is written — and the shared clock is advanced
//!    past every shard's.
//! 5. **Implicit abort.** Uncommitted versions that made it into replayed
//!    pages are erased — in-flight writer transactions died with the
//!    process, exactly the erasure §4 makes possible on the erasable
//!    store. A cross-shard transaction's writes are uncommitted until the
//!    one fence that stamps them all, so it too commits everywhere or is
//!    erased everywhere.
//! 6. **Reclaim.** The magnetic free list is rebuilt from reachability:
//!    any allocated page the recovered root cannot reach is freed. The
//!    log has no record kind for page frees, so replay can only ever
//!    allocate.
//! 7. **Verify, then fence.** Every rebuilt tree must pass
//!    [`TsbTree::verify`] before serving, and one fresh checkpoint of
//!    every shard fences the next recovery.
//!
//! Steps 1–4 are shared ([`TsbTree::open_durable`],
//! [`TsbTree::open_durable_replica`]); a replica refuses a fence past its
//! device in step 2, keeps each shard's stage, and skips 5 and the
//! checkpoint of 7 — the applier it recovered with goes on applying the
//! stream (see [`ReplicaRecovery`]). The recovered trees answer every
//! query exactly as the oracle's replay of the committed prefix up to the
//! cut.

use std::collections::HashSet;
use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering;
use std::sync::Arc;

use tsb_common::{LogicalClock, Timestamp, TsbConfig, TsbError, TsbResult};
use tsb_storage::{
    IoStats, Lsn, MagneticStore, PageId, ShardFence, Wal, WalRecord, WalScan, WormStore,
};

use super::durability::{checkpoint_log, seat_trees};
#[cfg(doc)]
use super::replay::{apply_page_record, ReplayPage};
use super::replay::{Applier, Fence, FencedPages};
use super::TsbTree;
use crate::node::{DataNode, Node, NodeAddr};

/// File names a durable engine uses: one log for the engine, and two
/// stores per shard.
const MAGNETIC_FILE: &str = "current.pages";
const WORM_FILE: &str = "history.worm";
const WAL_FILE: &str = "redo.wal";
/// A shard's directory is this prefix and its index in three digits.
const SHARD_DIR_PREFIX: &str = "shard-";

/// Where a durable engine's files live: the redo log in the engine's
/// directory, and each shard's two stores in that directory itself (one
/// shard, the flat layout) or in its `shard-NNN` subdirectory.
pub(crate) struct Layout {
    log: PathBuf,
    shards: Vec<PathBuf>,
}

impl Layout {
    /// One shard, every file directly in `dir`.
    pub(crate) fn flat(dir: &Path) -> Layout {
        Layout {
            log: dir.join(WAL_FILE),
            shards: vec![dir.to_path_buf()],
        }
    }

    /// `shards` shards' stores in `dir/shard-NNN`, the log in `dir`.
    pub(crate) fn sharded(dir: &Path, shards: usize) -> Layout {
        Layout {
            log: dir.join(WAL_FILE),
            shards: (0..shards)
                .map(|i| dir.join(format!("{SHARD_DIR_PREFIX}{i:03}")))
                .collect(),
        }
    }

    /// The shard a directory named `shard-NNN` holds the stores of.
    pub(crate) fn shard_index(dir: &Path) -> Option<usize> {
        let name = dir.file_name()?.to_str()?;
        let digits = name.strip_prefix(SHARD_DIR_PREFIX)?;
        (digits.len() == 3).then(|| digits.parse().ok()).flatten()
    }
}

/// The files of a durable engine: its log and each shard's two stores,
/// in shard order. Shard 0's stores and the log share one set of I/O
/// counters; every other shard has its own.
pub(crate) struct DurableFiles {
    pub(crate) wal: Wal,
    pub(crate) stores: Vec<(Arc<MagneticStore>, Arc<WormStore>)>,
}

impl DurableFiles {
    /// Opens the log (scanned, a torn tail truncated) and every shard's
    /// `current.pages` and `history.worm`, creating whichever is missing.
    pub(crate) fn open(layout: &Layout, cfg: &TsbConfig) -> TsbResult<(DurableFiles, WalScan)> {
        let stats = Arc::new(IoStats::new());
        let (wal, scan) = Wal::open(&layout.log, cfg.fsync_policy, Arc::clone(&stats))?;
        Ok((Self::beside(wal, stats, layout, cfg)?, scan))
    }

    /// [`Self::open`] with a fresh, empty log, for a layout the caller
    /// knows holds nothing durable.
    pub(crate) fn create(layout: &Layout, cfg: &TsbConfig) -> TsbResult<DurableFiles> {
        let stats = Arc::new(IoStats::new());
        let wal = Wal::create(&layout.log, cfg.fsync_policy, Arc::clone(&stats))?;
        Self::beside(wal, stats, layout, cfg)
    }

    fn beside(
        wal: Wal,
        stats: Arc<IoStats>,
        layout: &Layout,
        cfg: &TsbConfig,
    ) -> TsbResult<DurableFiles> {
        let mut log_stats = Some(stats);
        let mut stores = Vec::with_capacity(layout.shards.len());
        for dir in &layout.shards {
            std::fs::create_dir_all(dir)?;
            let stats = log_stats.take().unwrap_or_default();
            let magnetic = MagneticStore::open_file(
                dir.join(MAGNETIC_FILE),
                cfg.page_size,
                Arc::clone(&stats),
            )?;
            let worm = WormStore::open_file(dir.join(WORM_FILE), cfg.worm_sector_size, stats)?;
            stores.push((Arc::new(magnetic), Arc::new(worm)));
        }
        Ok(DurableFiles { wal, stores })
    }

    /// Whether `dir` holds a redo log at all.
    pub(crate) fn has_log(dir: &Path) -> bool {
        dir.join(WAL_FILE).exists()
    }

    /// Removes the layout's files (the stores first: a directory that lost
    /// only its log reads as "store data without a log", which no open
    /// path will recreate over).
    pub(crate) fn wipe(layout: &Layout) -> TsbResult<()> {
        let stores = layout
            .shards
            .iter()
            .flat_map(|dir| [dir.join(MAGNETIC_FILE), dir.join(WORM_FILE)]);
        for path in stores.chain([layout.log.clone()]) {
            match std::fs::remove_file(path) {
                Ok(()) => {}
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
                Err(e) => return Err(e.into()),
            }
        }
        Ok(())
    }
}

/// Each shard's WORM store, for the log's pre-sync hook.
fn worms(stores: &[(Arc<MagneticStore>, Arc<WormStore>)]) -> Vec<Arc<WormStore>> {
    stores.iter().map(|(_, worm)| Arc::clone(worm)).collect()
}

// ---------------------------------------------------------------------------
// The fence rule
// ---------------------------------------------------------------------------

/// The tree state a fence describes: `(root, clock-next, next-txn)`.
pub(crate) type FenceState = (NodeAddr, Timestamp, u64);

/// What the [fence rule](fence_rule) says about one log record.
#[derive(Debug, PartialEq)]
pub(crate) enum FenceReading {
    /// A page record or a shard switch: it describes no tree state.
    NotAFence,
    /// A fence one of whose shards' parts references `worm_len` bytes of
    /// history, more than that shard's device holds: the tree state it
    /// describes would dangle.
    PastDevice {
        /// The shard whose device is short.
        shard: usize,
        /// The WORM length that part was logged against.
        worm_len: u64,
    },
    /// A usable fence: every page record its states need precedes it, and
    /// the history those states point at is on the devices.
    Describes {
        /// The state of each shard the fence names, in the fence's order.
        states: Vec<(usize, FenceState)>,
        /// The commit timestamp, if the fence is a commit (a checkpoint
        /// carries none).
        commit_ts: Option<Timestamp>,
    },
}

/// One shard's part of a fence: the shard, the WORM length, the metadata.
type FencePart<'a> = (usize, u64, &'a [u8]);

/// A fence's commit timestamp and parts, or `None` for a record that
/// describes no tree state. A one-shard fence describes `tag`, the shard
/// the log's newest switch before it names.
fn fence_fields(record: &WalRecord, tag: u32) -> Option<(Option<Timestamp>, Vec<FencePart<'_>>)> {
    fn named(parts: &[ShardFence]) -> Vec<FencePart<'_>> {
        parts
            .iter()
            .map(|p| (p.shard as usize, p.worm_len, p.meta.as_slice()))
            .collect()
    }
    match record {
        WalRecord::Commit { ts, worm_len, meta } => Some((
            Some(Timestamp(*ts)),
            vec![(tag as usize, *worm_len, meta.as_slice())],
        )),
        WalRecord::Checkpoint { worm_len, meta } => {
            Some((None, vec![(tag as usize, *worm_len, meta.as_slice())]))
        }
        WalRecord::ShardCommit { ts, parts } => Some((Some(Timestamp(*ts)), named(parts))),
        WalRecord::ShardCheckpoint { parts } => Some((None, named(parts))),
        WalRecord::PageImage { .. } | WalRecord::PageDelta { .. } | WalRecord::Shard { .. } => None,
    }
}

/// The WORM history each shard's part of `record` references, when it is
/// a fence logged under the tag `tag` (empty otherwise): what a batch
/// holding it must ship with.
pub(crate) fn fence_worm_lens(record: &WalRecord, tag: u32) -> Vec<(usize, u64)> {
    let parts = fence_fields(record, tag).map(|(_, parts)| parts);
    let parts = parts.unwrap_or_default().into_iter();
    parts
        .map(|(shard, worm_len, _)| (shard, worm_len))
        .collect()
}

/// The **fence rule**: reads `record`, logged under the shard tag `tag`,
/// against the state of each shard's fence before it (`prev`) and the
/// WORM bytes actually on each shard's device (`worm_on_device[shard]`).
///
/// A commit whose state was fully predictable from the previous fence of
/// its shard elides its metadata (see `wal_commit`): it inherits root and
/// transaction counter from `prev` and derives its clock from its own
/// timestamp. Only commits elide; any other fence with unreadable
/// metadata is corruption, and so is a fence naming a shard the log's
/// engine does not have.
pub(crate) fn fence_rule(
    record: &WalRecord,
    tag: u32,
    prev: impl Fn(usize) -> Option<FenceState>,
    worm_on_device: &[u64],
) -> TsbResult<FenceReading> {
    let Some((commit_ts, parts)) = fence_fields(record, tag) else {
        return Ok(FenceReading::NotAFence);
    };
    for &(shard, worm_len, _) in &parts {
        let on_device = *worm_on_device.get(shard).ok_or_else(|| {
            TsbError::corruption(format!(
                "a WAL fence names shard {shard} of a {}-shard log",
                worm_on_device.len()
            ))
        })?;
        if worm_len > on_device {
            return Ok(FenceReading::PastDevice { shard, worm_len });
        }
    }
    let mut states = Vec::with_capacity(parts.len());
    for (shard, _, meta) in parts {
        let state = match commit_ts {
            Some(ts) if meta.is_empty() => {
                let (root, _, next_txn) = prev(shard).ok_or_else(|| {
                    TsbError::corruption(
                        "WAL commit with elided metadata has no prior fence to inherit from",
                    )
                })?;
                (root, ts.next(), next_txn)
            }
            _ => TsbTree::decode_meta(meta)?,
        };
        states.push((shard, state));
    }
    Ok(FenceReading::Describes { states, commit_ts })
}

/// The error a reader raises for a fence it must not take
/// ([`FenceReading::PastDevice`]): its part of `shard` references
/// `worm_len` WORM bytes, and that shard's device holds `on_device`.
pub(crate) fn fence_past_device(
    origin: &str,
    lsn: Lsn,
    shard: usize,
    worm_len: u64,
    on_device: u64,
) -> TsbError {
    TsbError::corruption(format!(
        "{origin} fence at lsn {lsn} references {worm_len} WORM bytes of shard {shard}, \
         whose device holds {on_device}; history must be on the device before the \
         fence that references it"
    ))
}

// ---------------------------------------------------------------------------
// The two recoveries
// ---------------------------------------------------------------------------

/// Which recovery [`replay`] runs.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Recovery {
    /// A primary's: a fence past its device ends the replay (nothing
    /// acknowledged it), and the unfenced stage dies with the applier.
    Primary,
    /// A replica's restart: a fence past its device is corruption, and
    /// the unfenced stage is kept for the stream to fence.
    Replica,
}

/// Steps 1 and 2 of the protocol: feeds `records` — a log of
/// `worm_on_device.len()` shards, from its newest checkpoint — into one
/// [`Applier`], as `recovery` says, then takes each shard's last fence and
/// fenced page states from it, in shard order: every shard must stand at
/// a fence.
pub(crate) fn replay(
    records: impl Iterator<Item = TsbResult<(Lsn, WalRecord)>>,
    worm_on_device: &[u64],
    recovery: Recovery,
) -> TsbResult<(Applier, Vec<(Fence, FencedPages)>)> {
    let mut applier = Applier::new(worm_on_device.len());
    for entry in records {
        let (lsn, record) = entry?;
        let reading = applier.feed(lsn, record, worm_on_device, |_, _| Ok(None))?;
        let FenceReading::PastDevice { shard, worm_len } = reading else {
            continue;
        };
        let origin = match (recovery, applier.cut()) {
            (Recovery::Primary, Some(_)) => break,
            (Recovery::Primary, None) => "the log's first",
            (Recovery::Replica, _) => "replica log",
        };
        let on_device = worm_on_device[shard];
        return Err(fence_past_device(origin, lsn, shard, worm_len, on_device));
    }
    if applier.cut().is_none() {
        return Err(TsbError::corruption(
            "write-ahead log has no usable fence (no checkpoint and no commit); \
             nothing was ever durable",
        ));
    }
    let fenced = (0..worm_on_device.len()).map(|shard| {
        applier.take_pending(shard).ok_or_else(|| {
            TsbError::corruption(format!(
                "shard {shard} has no usable fence at or before the log's cut"
            ))
        })
    });
    let fenced = fenced.collect::<TsbResult<_>>()?;
    Ok((applier, fenced))
}

/// A replication replica's crash-consistent reopen, produced by
/// [`TsbTree::open_durable_replica`].
///
/// A replica keeps a byte-faithful local copy of the primary's log
/// (shipped record bodies appended via [`Wal::append_shipped`], primary
/// LSNs preserved), so its restart is ordinary redo recovery — with three
/// deliberate departures from [`TsbTree::open_durable`]'s tail:
///
/// * **No purge.** Uncommitted versions surviving at the cut fence belong
///   to primary transactions that are still in flight *on the primary*;
///   later shipped records will stamp or erase them. Erasing them here
///   would diverge from the stream.
/// * **No local checkpoint.** A replica never appends records of its own —
///   its log is a pure copy, and a locally minted checkpoint would collide
///   with the primary's LSN namespace. The local log only ever grows (it
///   is re-based wholesale when the primary's generation outruns it).
/// * **The un-fenced tail is kept.** A shard's page records past its last
///   fence are shipped state whose fence has not arrived yet: they stay
///   the stage of the applier that replayed them, which goes on applying
///   the stream.
pub(crate) struct ReplicaRecovery {
    /// The recovered trees, one per shard, serving-ready at the cut, each
    /// with its last fence.
    pub(crate) trees: Vec<(TsbTree, Fence)>,
    /// The clock every tree stamps from, advanced past each shard's cut.
    pub(crate) clock: Arc<LogicalClock>,
    /// The applier that replayed the local log: the cut (the applied
    /// watermark), the resume cursor, and each shard's fence and stage.
    pub(crate) applier: Applier,
}

impl TsbTree {
    /// Opens (or creates) the durable engine laid out as `layout`: one
    /// tree per shard, in shard order, every one on the layout's one log.
    /// The contract is spelled out on [`crate::TsbOptions::open_tree`] and
    /// [`crate::TsbOptions::open`]. `clock` is advanced to (never reset
    /// below) every shard's recovered clock.
    pub(crate) fn open_durable(
        layout: &Layout,
        cfg: &TsbConfig,
        clock: &Arc<LogicalClock>,
    ) -> TsbResult<Vec<TsbTree>> {
        cfg.validate()?;
        let (files, scan) = DurableFiles::open(layout, cfg)?;
        if scan.holds_a_fence() {
            // Crash-consistent reopen (the module docs' protocol). A fence
            // past the device ends the replay before it: it was never
            // acknowledged as durable (the log's pre-sync hook settles
            // every WORM before each fsync that could make a fence durable).
            let (shards, _) = Self::rebuild(files, scan, Recovery::Primary, cfg, clock)?;
            let trees: Vec<TsbTree> = shards.into_iter().map(|(tree, _)| tree).collect();
            for tree in &trees {
                tree.purge_uncommitted()?;
                tree.reclaim_unreachable_pages()?;
                tree.verify()?;
            }
            checkpoint_log(&trees.iter().collect::<Vec<_>>())?;
            return Ok(trees);
        }
        // No fence: nothing was ever durably committed through this log.
        // Starting fresh is safe when the stores hold no data of their
        // own, or when every byte in them provably came from an
        // unfinished first create: a non-empty, fence-less log can only be
        // the first create's page images (every completed create or
        // mutation appends a fence, and a torn tail that ate *every* fence
        // must lie at or before the first one).
        let stores_empty = files
            .stores
            .iter()
            .all(|(magnetic, worm)| magnetic.allocated_pages() == 0 && worm.device_bytes() == 0);
        if !stores_empty && files.wal.last_lsn() == 0 {
            // Real store data, empty log: a pre-WAL database or a lost
            // redo.wal. Refuse rather than guess.
            return Err(TsbError::corruption(format!(
                "{} holds no usable fence but its stores hold data; refusing to \
                 recreate (a tree reopens from its log alone: restore the missing \
                 redo.wal)",
                layout.log.display()
            )));
        }
        drop(files);
        DurableFiles::wipe(layout)?;
        let DurableFiles { wal, stores } = DurableFiles::create(layout, cfg)?;
        let seats = seat_trees(wal, &worms(&stores));
        let trees = stores
            .into_iter()
            .zip(seats)
            .map(|((magnetic, worm), seat)| {
                Self::create_with(magnetic, worm, cfg.clone(), Some(seat), Arc::clone(clock))
            })
            .collect::<TsbResult<Vec<_>>>()?;
        // Fence every initial root + metadata so recovery always has a
        // checkpoint to replay from.
        checkpoint_log(&trees.iter().collect::<Vec<_>>())?;
        Ok(trees)
    }

    /// Reopens a replication replica's local state laid out as `layout`,
    /// or returns `None` when it holds nothing usable (fresh, or a base
    /// install that never finished — the caller wipes and re-fetches the
    /// base). See [`ReplicaRecovery`] for how this differs from the
    /// primary's [`Self::open_durable`].
    ///
    /// The batch-apply protocol makes the WORM durable *before* any record
    /// of the batch reaches the local log, so every logged fence must have
    /// its history on the device — one that does not is corruption, not a
    /// torn tail to skip.
    pub(crate) fn open_durable_replica(
        layout: &Layout,
        cfg: &TsbConfig,
    ) -> TsbResult<Option<ReplicaRecovery>> {
        cfg.validate()?;
        if !layout.log.exists() {
            return Ok(None);
        }
        let (files, scan) = DurableFiles::open(layout, cfg)?;
        if !scan.holds_a_fence() {
            // A shipped log always starts at a fence (the base image's
            // checkpoint); no fence means the install never completed.
            return Ok(None);
        }
        let clock = Arc::new(LogicalClock::new());
        let (trees, applier) = Self::rebuild(files, scan, Recovery::Replica, cfg, &clock)?;
        // Reclaim pages unreachable at the cut (a free has no log record;
        // see `reclaim_unreachable_pages`) and verify — but no purge and
        // no fencing checkpoint: the replica's state must stay exactly the
        // primary's state at the cut, and its log is a pure copy.
        for (tree, _) in &trees {
            tree.reclaim_unreachable_pages()?;
            tree.verify()?;
        }
        Ok(Some(ReplicaRecovery {
            trees,
            clock,
            applier,
        }))
    }

    /// Steps 1–4 of the protocol, for both recoveries: replays the log
    /// `scan` read as `recovery` says, installs each shard's fenced page
    /// states, each page once, then builds each shard's tree at its last
    /// fence's metadata over its repaired device, all seated on the one
    /// log. Returns each tree with its last fence, and the applier that
    /// replayed them.
    fn rebuild(
        files: DurableFiles,
        scan: WalScan,
        recovery: Recovery,
        cfg: &TsbConfig,
        clock: &Arc<LogicalClock>,
    ) -> TsbResult<(Vec<(TsbTree, Fence)>, Applier)> {
        let on_device: Vec<u64> = files.stores.iter().map(|(_, w)| w.device_bytes()).collect();
        let (applier, fenced) = replay(scan.since_newest_checkpoint(), &on_device, recovery)?;
        drop(scan);
        let DurableFiles { wal, stores } = files;
        let seats = seat_trees(wal, &worms(&stores));
        let mut trees = Vec::with_capacity(stores.len());
        for (((magnetic, worm), seat), (fence, pages)) in stores.into_iter().zip(seats).zip(fenced)
        {
            for (page, state) in pages {
                magnetic.restore(page, &state.into_bytes())?;
            }
            let (root, clock_next, next_txn) = fence.state;
            clock.advance_to(clock_next);
            let recovered_to = fence.commit_ts.unwrap_or_else(|| clock_next.prev());
            let worm_on_device = worm.device_bytes();
            let tree = Self::assemble(
                magnetic,
                worm,
                cfg.clone(),
                Arc::clone(clock),
                (root, next_txn),
                Some(seat),
                Some(recovered_to),
            );
            // The WORM bytes the cut references survived, so they are as
            // stable as they will ever be.
            if let Some(d) = &tree.durability {
                d.worm_synced.store(worm_on_device, Ordering::Release);
            }
            trees.push((tree, fence));
        }
        Ok((trees, applier))
    }

    /// Walks the current database and erases every uncommitted version
    /// (recovery's implicit abort of in-flight transactions, and a
    /// promotion's; uncommitted versions never migrate, so historical
    /// nodes need no visit).
    pub(crate) fn purge_uncommitted(&self) -> TsbResult<()> {
        self.purge_uncommitted_at(self.current_root())
    }

    fn purge_uncommitted_at(&self, addr: NodeAddr) -> TsbResult<()> {
        let Some(page) = addr.as_page() else {
            return Ok(());
        };
        let node = self.read_node(addr)?;
        match &*node {
            Node::Data(data) => {
                if data.iter().any(|v| v.state.is_uncommitted()) {
                    let committed: Vec<_> = data
                        .iter()
                        .filter(|v| !v.state.is_uncommitted())
                        .map(|v| v.to_version())
                        .collect();
                    let cleaned =
                        DataNode::from_entries(data.key_range.clone(), data.time_range, committed);
                    self.write_current(page, Node::Data(cleaned))?;
                }
                Ok(())
            }
            Node::Index(index) => {
                let children: Vec<NodeAddr> = index.iter().map(|e| e.child).collect();
                for child in children {
                    self.purge_uncommitted_at(child)?;
                }
                Ok(())
            }
        }
    }

    /// Rebuilds the magnetic free list from reachability: frees every
    /// allocated page the recovered root cannot reach — among them the
    /// metadata page that directories written by earlier versions hold at
    /// their lowest page id. The redo log has no record kind for page
    /// frees, so replay can only ever *allocate*
    /// ([`MagneticStore::restore`] even pulls replayed pages off the
    /// on-disk free list): a page freed since the last checkpoint would
    /// come back allocated-but-unreachable after recovery and stay leaked
    /// across every later session — which
    /// [`Self::verify`] treats as a hard error, turning a space leak into
    /// an unrecoverable store. Deriving the free list from the recovered
    /// tree closes that gap for any free site, present or future, without
    /// a `PageFree` record.
    fn reclaim_unreachable_pages(&self) -> TsbResult<()> {
        let mut reachable: HashSet<PageId> = HashSet::new();
        self.collect_current_pages(self.current_root(), &mut reachable)?;
        for page in self.magnetic.allocated_page_ids() {
            if !reachable.contains(&page) {
                self.cache.discard(NodeAddr::Current(page));
                self.magnetic.free(page)?;
            }
        }
        Ok(())
    }

    /// Collects into `out` every magnetic page reachable from `addr`
    /// (historical children live on the WORM and are skipped).
    fn collect_current_pages(&self, addr: NodeAddr, out: &mut HashSet<PageId>) -> TsbResult<()> {
        let Some(page) = addr.as_page() else {
            return Ok(());
        };
        if !out.insert(page) {
            return Ok(());
        }
        let node = self.read_node(addr)?;
        if let Node::Index(index) = &*node {
            for entry in index.iter() {
                self.collect_current_pages(entry.child, out)?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::ops::Range;
    use tsb_common::{FsyncPolicy, Version};
    use tsb_storage::PageOp;

    const FIRST_LSN: Lsn = 10;

    fn state(root_page: u64, clock_next: u64, next_txn: u64) -> FenceState {
        (
            NodeAddr::Current(PageId(root_page)),
            Timestamp(clock_next),
            next_txn,
        )
    }

    fn meta((root, clock_next, next_txn): FenceState) -> Vec<u8> {
        TsbTree::encode_meta(root, clock_next, next_txn)
    }

    fn checkpoint(worm_len: u64, s: FenceState) -> WalRecord {
        WalRecord::Checkpoint {
            worm_len,
            meta: meta(s),
        }
    }

    fn commit(ts: u64, worm_len: u64, s: FenceState) -> WalRecord {
        WalRecord::Commit {
            ts,
            worm_len,
            meta: meta(s),
        }
    }

    fn elided_commit(ts: u64, worm_len: u64) -> WalRecord {
        WalRecord::Commit {
            ts,
            worm_len,
            meta: Vec::new(),
        }
    }

    /// A part per `(worm_len, state)`, for shards 0, 1, ... in order.
    fn parts(of: &[(u64, FenceState)]) -> Vec<ShardFence> {
        (0..)
            .zip(of)
            .map(|(shard, &(worm_len, s))| ShardFence {
                shard,
                worm_len,
                meta: meta(s),
            })
            .collect()
    }

    fn switch(shard: u32) -> WalRecord {
        WalRecord::Shard { shard }
    }

    // Page records are filler to the rules under test, but the applier
    // folds the fenced ones: an empty leaf's image, and a delta over it.
    fn image(page: u64) -> WalRecord {
        WalRecord::PageImage {
            page: PageId(page),
            bytes: Node::Data(DataNode::initial_root()).encode(),
        }
    }

    fn delta(page: u64) -> WalRecord {
        WalRecord::PageDelta {
            page: PageId(page),
            op: PageOp::InsertVersion(Version::committed(7u64, Timestamp(4), b"v".to_vec())),
        }
    }

    /// The cut a table row expects of a primary's replay: the records it
    /// repeats and the cut fence, by index; each shard's `(last fence
    /// index, commit ts, state)`; and the fence past its device that ended
    /// the replay, as `(lsn, shard, worm_len)`.
    #[derive(Debug)]
    struct Expect {
        replay: Range<usize>,
        at: usize,
        shards: Vec<(usize, Option<u64>, FenceState)>,
        short_fence: Option<(Lsn, usize, u64)>,
    }

    fn cut(
        replay: Range<usize>,
        at: usize,
        shards: &[(usize, Option<u64>, FenceState)],
        short: Option<(Lsn, usize, u64)>,
    ) -> Option<Expect> {
        Some(Expect {
            replay,
            at,
            shards: shards.to_vec(),
            short_fence: short,
        })
    }

    /// Where an applier stands: the cut fence's LSN, and each shard's
    /// fence `(lsn, commit ts, state)` with the pages its fenced states
    /// hold.
    type Outcome = (Lsn, Vec<(Lsn, Option<Timestamp>, FenceState, Vec<PageId>)>);

    fn outcome((applier, fenced): (Applier, Vec<(Fence, FencedPages)>)) -> Outcome {
        let cut = applier.cut().expect("a replay that succeeds has a cut");
        let shards = fenced.into_iter().map(|(fence, pages)| {
            let mut pages: Vec<PageId> = pages.into_keys().collect();
            pages.sort();
            (fence.lsn, fence.commit_ts, fence.state, pages)
        });
        (cut, shards.collect())
    }

    impl Expect {
        /// The outcome this cut means for `records`: a shard's pages are
        /// those its page records in the replay range name, up to its
        /// last fence.
        fn outcome(&self, records: &[WalRecord]) -> Outcome {
            let mut pages = vec![Vec::new(); self.shards.len()];
            let mut tag = 0;
            for (idx, record) in records.iter().enumerate() {
                tag = record.tag_after(tag);
                let shard = tag as usize;
                if let WalRecord::PageImage { page, .. } | WalRecord::PageDelta { page, .. } =
                    record
                {
                    let folded = self.replay.contains(&idx) && idx <= self.shards[shard].0;
                    if folded && !pages[shard].contains(page) {
                        pages[shard].push(*page);
                    }
                }
            }
            let shards = self
                .shards
                .iter()
                .zip(pages)
                .map(|(&(last, ts, state), mut pages)| {
                    pages.sort();
                    (FIRST_LSN + last as Lsn, ts.map(Timestamp), state, pages)
                });
            (FIRST_LSN + self.at as Lsn, shards.collect())
        }
    }

    /// A table row: its name, a log, the WORM bytes on each shard's
    /// device, and the cut the log must yield (`None`: corruption).
    type Row = (&'static str, Vec<WalRecord>, Vec<u64>, Option<Expect>);

    /// Writes `records` as the log at `path` (LSNs from [`FIRST_LSN`]),
    /// opens it, and replays it as `recovery` does.
    fn replay_log(
        path: &Path,
        records: &[WalRecord],
        on_device: &[u64],
        recovery: Recovery,
    ) -> TsbResult<(Applier, Vec<(Fence, FencedPages)>)> {
        let stats = || Arc::new(IoStats::new());
        let wal = Wal::create(path, FsyncPolicy::Os, stats())?;
        for (lsn, record) in (FIRST_LSN..).zip(records) {
            wal.append_shipped(&record.encode_body(lsn))?;
        }
        drop(wal);
        let (_wal, scan) = Wal::open(path, FsyncPolicy::Os, stats())?;
        replay(scan.since_newest_checkpoint(), on_device, recovery)
    }

    /// Replays each row's log as a primary, which must reach the row's
    /// cut; a row whose replay a fence past its device ended must also be
    /// refused as a replica's, the error naming the fence, its short
    /// shard and that shard's device length.
    fn check_table(tag: &str, table: Vec<Row>) {
        let dir = std::env::temp_dir().join(format!("tsb-cut-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(WAL_FILE);
        for (name, records, on_device, expected) in table {
            let found = replay_log(&path, &records, &on_device, Recovery::Primary).map(outcome);
            match (&found, &expected) {
                (Ok(found), Some(want)) => assert_eq!(found, &want.outcome(&records), "{name}"),
                (Err(TsbError::Corruption(_)), None) => {}
                _ => panic!("{name}: found {found:?}, expected {expected:?}"),
            }
            if let Some((lsn, shard, worm_len)) = expected.and_then(|e| e.short_fence) {
                let refused = replay_log(&path, &records, &on_device, Recovery::Replica).err();
                let want = format!(
                    "replica log fence at lsn {lsn} references {worm_len} WORM bytes of \
                     shard {shard}, whose device holds {}",
                    on_device[shard]
                );
                assert!(
                    matches!(&refused, Some(TsbError::Corruption(msg)) if msg.contains(&want)),
                    "{name}: {refused:?}"
                );
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The fence rule and the applier over hand-built one-shard logs: each
    /// row is a log, the WORM bytes on the device, and the cut it must
    /// yield (`None`: corruption).
    #[test]
    fn the_cut_is_the_newest_fence_whose_history_is_on_the_device() {
        let (a, b, c) = (state(1, 5, 1), state(2, 6, 4), state(7, 12, 9));
        let table: Vec<Row> = vec![
            (
                "a checkpoint alone is base and cut: nothing to replay",
                vec![checkpoint(64, a)],
                vec![64],
                cut(1..1, 0, &[(0, None, a)], None),
            ),
            (
                "the newest checkpoint is the base, whatever precedes it",
                vec![commit(3, 0, c), checkpoint(0, a), image(2)],
                vec![0],
                cut(2..2, 1, &[(1, None, a)], None),
            ),
            (
                "full metadata is decoded; elided metadata inherits root and \
                 txn counter and derives the clock from its own timestamp",
                vec![
                    checkpoint(0, a),
                    image(2),
                    commit(5, 0, b),
                    delta(2),
                    elided_commit(6, 64),
                ],
                vec![64],
                cut(1..5, 4, &[(4, Some(6), (b.0, Timestamp(7), b.2))], None),
            ),
            (
                "no checkpoint: replay starts at the first record",
                vec![image(2), commit(5, 0, b), elided_commit(6, 0)],
                vec![0],
                cut(0..3, 2, &[(2, Some(6), (b.0, Timestamp(7), b.2))], None),
            ),
            (
                "an elided commit with no prior fence is corruption",
                vec![image(2), elided_commit(5, 0)],
                vec![0],
                None,
            ),
            (
                "a fence past the device ends the cut before it, however \
                 many usable fences follow",
                vec![
                    checkpoint(0, a),
                    image(2),
                    commit(5, 64, b),
                    image(3),
                    commit(6, 256, c),
                    image(4),
                    elided_commit(7, 64),
                ],
                vec![128],
                cut(1..3, 2, &[(2, Some(5), b)], Some((FIRST_LSN + 4, 0, 256))),
            ),
            (
                "a base checkpoint past the device leaves nothing to stand on",
                vec![checkpoint(256, a), image(2), commit(5, 0, b)],
                vec![128],
                None,
            ),
            (
                "records after the last fence are the tail, not replayed",
                vec![
                    checkpoint(0, a),
                    image(2),
                    commit(5, 0, b),
                    image(3),
                    delta(3),
                ],
                vec![0],
                cut(1..3, 2, &[(2, Some(5), b)], None),
            ),
            (
                "a log with no fence at all has no cut",
                vec![image(2), delta(2)],
                vec![0],
                None,
            ),
        ];
        check_table("one-shard", table);
    }

    /// One cut for a log two shards share: each shard stands at its own
    /// last fence at or before it, and a fence naming several shards is
    /// in every one's prefix or in none.
    #[test]
    fn one_cut_for_a_shared_log_and_each_shard_stops_at_its_own_last_fence() {
        let (a, b, c, d) = (
            state(1, 5, 1),
            state(2, 6, 4),
            state(7, 12, 9),
            state(8, 13, 9),
        );
        let base = || WalRecord::ShardCheckpoint {
            parts: parts(&[(0, a), (0, b)]),
        };
        let table: Vec<Row> = vec![
            (
                "each shard stops at its own last fence; the newest fence \
                 is the cut, and a shard's later records are its tail",
                vec![
                    base(),
                    image(2),
                    commit(5, 0, c),
                    switch(1),
                    image(3),
                    commit(6, 0, d),
                    switch(0),
                    delta(2),
                ],
                vec![0, 0],
                cut(1..6, 5, &[(2, Some(5), c), (5, Some(6), d)], None),
            ),
            (
                "a checkpoint restarts the tag on shard 0, as it does in a \
                 replica's copy of a log that crossed a reset",
                vec![
                    base(),
                    switch(1),
                    image(3),
                    commit(6, 0, d),
                    WalRecord::ShardCheckpoint {
                        parts: parts(&[(0, c), (0, d)]),
                    },
                    image(2),
                    commit(7, 0, c),
                ],
                vec![0, 0],
                cut(5..7, 6, &[(6, Some(7), c), (4, None, d)], None),
            ),
            (
                "a cross-shard commit is one fence of every participant",
                vec![
                    base(),
                    image(2),
                    switch(1),
                    image(3),
                    WalRecord::ShardCommit {
                        ts: 7,
                        parts: parts(&[(0, c), (64, d)]),
                    },
                ],
                vec![0, 64],
                cut(1..5, 4, &[(4, Some(7), c), (4, Some(7), d)], None),
            ),
            (
                "one participant's history past its device ends the cut \
                 before the whole cross-shard commit",
                vec![
                    base(),
                    commit(5, 0, c),
                    WalRecord::ShardCommit {
                        ts: 7,
                        parts: parts(&[(0, c), (256, d)]),
                    },
                ],
                vec![0, 128],
                cut(
                    1..2,
                    1,
                    &[(1, Some(5), c), (0, None, b)],
                    Some((FIRST_LSN + 2, 1, 256)),
                ),
            ),
            (
                "the short part is the one past its own shard's device, on \
                 the shard with more history too",
                vec![
                    base(),
                    commit(5, 0, c),
                    WalRecord::ShardCommit {
                        ts: 7,
                        parts: parts(&[(64, c), (1024, d)]),
                    },
                ],
                vec![128, 512],
                cut(
                    1..2,
                    1,
                    &[(1, Some(5), c), (0, None, b)],
                    Some((FIRST_LSN + 2, 1, 1024)),
                ),
            ),
            (
                "a shard no fence names has nothing to stand on",
                vec![checkpoint(0, a), commit(5, 0, b)],
                vec![0, 0],
                None,
            ),
            (
                "a fence naming a shard the log lacks is corruption",
                vec![base(), switch(2), commit(5, 0, c)],
                vec![0, 0],
                None,
            ),
        ];
        check_table("two-shard", table);
    }

    #[test]
    fn the_fence_rule_compares_history_with_the_device_before_reading_metadata() {
        let a = state(1, 5, 1);
        let none = |_| None;
        for record in [image(2), delta(2), switch(1)] {
            assert_eq!(
                fence_rule(&record, 0, none, &[0]).unwrap(),
                FenceReading::NotAFence,
                "{record:?}"
            );
            assert_eq!(fence_worm_lens(&record, 0), vec![]);
        }
        // Exactly on the device is on the device; a one-shard fence
        // describes the shard the tag names.
        assert_eq!(
            fence_rule(&checkpoint(128, a), 1, none, &[0, 128]).unwrap(),
            FenceReading::Describes {
                states: vec![(1, a)],
                commit_ts: None
            }
        );
        // One byte past it is not — and the metadata is never consulted
        // (unreadable here), so the caller decides what a short fence means.
        for (short, shard) in [
            (
                WalRecord::Checkpoint {
                    worm_len: 129,
                    meta: vec![0xFF],
                },
                0,
            ),
            (elided_commit(5, 129), 0),
            (
                WalRecord::ShardCommit {
                    ts: 5,
                    parts: parts(&[(0, a), (129, a)]),
                },
                1,
            ),
        ] {
            assert_eq!(
                fence_rule(&short, 0, none, &[128, 128]).unwrap(),
                FenceReading::PastDevice {
                    shard,
                    worm_len: 129
                }
            );
            let lens = fence_worm_lens(&short, 1);
            assert_eq!(lens.iter().map(|&(_, len)| len).max(), Some(129));
        }
        // A one-shard fence references the history of the shard its tag
        // names; a fence naming shards, of each part's shard.
        assert_eq!(fence_worm_lens(&elided_commit(5, 64), 2), vec![(2, 64)]);
        let spanning = WalRecord::ShardCommit {
            ts: 5,
            parts: parts(&[(64, a), (128, a)]),
        };
        assert_eq!(fence_worm_lens(&spanning, 3), vec![(0, 64), (1, 128)]);
        // Only a commit elides: any other fence with empty metadata is
        // corruption, prior fence or not.
        let empty_checkpoint = WalRecord::Checkpoint {
            worm_len: 0,
            meta: Vec::new(),
        };
        assert!(fence_rule(&empty_checkpoint, 0, |_| Some(a), &[0]).is_err());
    }

    /// What a fence past the device *means* is the caller's: the same
    /// directory, its history lost, reopens as a primary at the last fence
    /// that never needed it, and is refused as a replica's.
    #[test]
    fn a_fence_past_the_device_ends_a_primarys_cut_and_is_corruption_for_a_replica() {
        let dir = std::env::temp_dir().join(format!("tsb-recover-short-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cfg =
            TsbConfig::small_pages().with_split_policy(tsb_common::SplitPolicyKind::TimePreferring);
        let mut before_history = None;
        {
            let tree = crate::TsbOptions::durable(&dir)
                .config(cfg.clone())
                .open_tree()
                .unwrap();
            for i in 0..200u64 {
                let (ts, _) = tree.insert(i % 4, vec![b'v'; 24]).unwrap();
                if tree.worm.device_bytes() == 0 {
                    before_history = Some(ts);
                }
            }
            assert!(tree.worm.device_bytes() > 0, "the build migrated history");
        }
        let before_history = before_history.expect("some commit preceded the first migration");
        std::fs::OpenOptions::new()
            .write(true)
            .open(dir.join(WORM_FILE))
            .unwrap()
            .set_len(0)
            .unwrap();

        let as_replica = TsbTree::open_durable_replica(&Layout::flat(&dir), &cfg);
        assert!(
            matches!(&as_replica, Err(TsbError::Corruption(msg)) if msg.contains("replica log fence")),
            "a replica's log never holds a fence over history it lacks"
        );
        drop(as_replica);

        let tree = crate::TsbOptions::durable(&dir)
            .config(cfg)
            .open_tree()
            .unwrap();
        assert_eq!(tree.last_durable_commit(), Some(before_history));
        tree.verify().unwrap();
        drop(tree);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
