//! Whole-tree tests — create / open / recover through the public doors,
//! cache coherence, the poison flag — kept in one module so their names
//! stay `tree::tests::*`. The log's rules are tested beside them, in
//! `recover.rs`.

use std::sync::Arc;

use proptest::prelude::*;

use tsb_common::{
    FsyncPolicy, Key, LogicalClock, SplitPolicyKind, SplitTimeChoice, Timestamp, TsbConfig,
    TsbError,
};
use tsb_storage::{IoStats, MagneticStore, PageId, Wal, WalRecord, WormStore};

use super::durability::checkpoint_log;
use super::TsbTree;
use crate::node::{Node, NodeAddr};
use crate::EngineHandle;

/// Cache probes only these tests make: each writes back the dirty state it
/// would otherwise lose, then reads, drops or invalidates past the cache.
impl TsbTree {
    /// Writes one address's dirty cached node back to its page, if it has
    /// one; every other deferred encode stays deferred.
    fn flush_dirty_node_at(&self, addr: NodeAddr) -> tsb_common::TsbResult<()> {
        match self.cache.dirty_at(addr) {
            Some((page, node)) => self.write_back_dirty(page, &node),
            None => Ok(()),
        }
    }

    /// Decodes the node at `addr` from its device image, bypassing (and
    /// not filling) the node cache.
    fn read_node_bypass(&self, addr: NodeAddr) -> tsb_common::TsbResult<Node> {
        self.flush_dirty_node_at(addr)?;
        self.decode_node_at(addr)
    }

    /// Drops every cached node, dirty ones written back first.
    fn drop_caches(&self) -> tsb_common::TsbResult<()> {
        self.flush_node_cache()?;
        self.cache.clear();
        Ok(())
    }

    /// Drops `addr`'s cached node, its dirty state written back first.
    fn invalidate_cached_node(&self, addr: NodeAddr) -> tsb_common::TsbResult<()> {
        self.flush_dirty_node_at(addr)?;
        self.cache.discard(addr);
        Ok(())
    }
}

struct TempDir(std::path::PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!(
            "tsb-tree-{tag}-{}-{:?}",
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

/// A fresh tree over `magnetic` and `worm`, on its own clock and no log.
fn create(
    magnetic: Arc<MagneticStore>,
    worm: Arc<WormStore>,
    cfg: TsbConfig,
) -> tsb_common::TsbResult<TsbTree> {
    TsbTree::create_with(magnetic, worm, cfg, None, Arc::new(LogicalClock::new()))
}

#[test]
fn durable_tree_recovers_unflushed_writes_from_the_wal() {
    let dir = TempDir::new("wal-recover");
    let cfg =
        TsbConfig::small_pages().with_split_policy(tsb_common::SplitPolicyKind::TimePreferring);
    let mut stamps = Vec::new();
    {
        let tree = crate::TsbOptions::durable(&dir.0)
            .config(cfg.clone())
            .open_tree()
            .unwrap();
        assert!(tree.durability.is_some());
        for i in 0..120u64 {
            let (ts, _) = tree.insert(i % 12, format!("v{i}").into_bytes()).unwrap();
            stamps.push((i % 12, ts, format!("v{i}").into_bytes()));
        }
        // No flush, no checkpoint: everything durable lives in the WAL.
        // Dropping the tree models a crash of the caches.
    }
    let tree = crate::TsbOptions::durable(&dir.0)
        .config(cfg)
        .open_tree()
        .unwrap();
    let cut = tree
        .last_durable_commit()
        .expect("recovered tree has a cut");
    assert!(cut >= stamps.last().unwrap().1, "every commit was logged");
    for (key, ts, value) in &stamps {
        assert_eq!(
            tree.get_as_of(&Key::from_u64(*key), *ts).unwrap().unwrap(),
            *value,
            "key {key} as of {ts}"
        );
    }
    tree.verify().unwrap();
}

#[test]
fn durable_tree_survives_clean_checkpoint_and_reopen() {
    let dir = TempDir::new("wal-clean");
    let cfg = TsbConfig::small_pages();
    {
        let tree = crate::TsbOptions::durable(&dir.0)
            .config(cfg.clone())
            .open_tree()
            .unwrap();
        for i in 0..60u64 {
            tree.insert(i, format!("x{i}").into_bytes()).unwrap();
        }
        checkpoint_log(&[&tree]).unwrap();
    }
    let tree = crate::TsbOptions::durable(&dir.0)
        .config(cfg)
        .open_tree()
        .unwrap();
    for i in 0..60u64 {
        assert_eq!(
            tree.get_current(&Key::from_u64(i)).unwrap().unwrap(),
            format!("x{i}").into_bytes()
        );
    }
    tree.verify().unwrap();
}

#[test]
fn recovery_erases_in_flight_transactions() {
    let dir = TempDir::new("wal-txn");
    let cfg = TsbConfig::small_pages();
    {
        let tree = crate::TsbOptions::durable(&dir.0)
            .config(cfg.clone())
            .open_tree()
            .unwrap();
        tree.insert(1u64, b"committed".to_vec()).unwrap();
        let txn = tree.begin_txn();
        tree.txn_insert(txn, 1u64, b"pending-update".to_vec())
            .unwrap();
        tree.txn_insert(txn, 99u64, b"pending-new".to_vec())
            .unwrap();
        // Crash with the transaction still open.
    }
    let tree = crate::TsbOptions::durable(&dir.0)
        .config(cfg)
        .open_tree()
        .unwrap();
    assert_eq!(
        tree.get_current(&Key::from_u64(1)).unwrap().unwrap(),
        b"committed".to_vec()
    );
    assert!(tree.get_current(&Key::from_u64(99)).unwrap().is_none());
    assert!(
        tree.pending_version(&Key::from_u64(1)).unwrap().is_none(),
        "recovery aborts in-flight transactions"
    );
    tree.verify().unwrap();
}

/// 3 000 bytes: at the default page size a key's live value and its
/// pending transaction write of this size never share a leaf.
fn big(fill: u8) -> Vec<u8> {
    vec![fill; 3_000]
}

/// Neither a key's pending write nor its live value ever leaves its leaf,
/// so a write that leaves the two more than a leaf holds is refused before
/// anything is logged or migrated — whichever of the two came first — and
/// the tree keeps serving.
#[test]
fn a_write_no_leaf_can_hold_is_refused_before_anything_is_logged() {
    for pending_first in [false, true] {
        let dir = TempDir::new("pinned-tree");
        {
            let tree = crate::TsbOptions::durable(&dir.0).open_tree().unwrap();
            tree.insert(1u64, b"neighbour".to_vec()).unwrap();
            let txn = tree.begin_txn();
            if pending_first {
                tree.txn_insert(txn, 7u64, big(1)).unwrap();
            } else {
                tree.insert(7u64, big(1)).unwrap();
            }
            let before = tree.io_stats().snapshot();
            let refused = if pending_first {
                tree.insert(7u64, big(2)).map(drop)
            } else {
                tree.txn_insert(txn, 7u64, big(2))
            };
            assert!(
                matches!(refused, Err(TsbError::EntryTooLarge { .. })),
                "{refused:?}"
            );
            let spent = tree.io_stats().snapshot().delta_since(&before);
            assert_eq!((spent.wal_appends, spent.worm_appends), (0, 0));
            tree.insert(8u64, b"next".to_vec()).unwrap();
        }
        let tree = crate::TsbOptions::durable(&dir.0).open_tree().unwrap();
        tree.verify().unwrap();
    }
}

#[test]
fn a_write_no_leaf_can_hold_is_refused_before_anything_is_logged_through_a_sharded_engine() {
    for pending_first in [false, true] {
        let dir = TempDir::new("pinned-sharded");
        let key = Key::from_u64(7);
        {
            let db = crate::TsbOptions::durable(&dir.0).shards(2).open().unwrap();
            db.insert(Key::from_u64(1), b"neighbour".to_vec()).unwrap();
            let txn = db.begin_txn().unwrap();
            if pending_first {
                db.txn_insert(txn, key.clone(), big(1)).unwrap();
            } else {
                db.insert(key.clone(), big(1)).unwrap();
            }
            let before = db.io_snapshot();
            let refused = if pending_first {
                db.insert(key.clone(), big(2)).map(drop)
            } else {
                db.txn_insert(txn, key.clone(), big(2))
            };
            assert!(
                matches!(refused, Err(TsbError::EntryTooLarge { .. })),
                "{refused:?}"
            );
            let spent = db.io_snapshot().delta_since(&before);
            assert_eq!((spent.wal_appends, spent.worm_appends), (0, 0));
            db.insert(key, b"next".to_vec()).unwrap();
        }
        let db = crate::TsbOptions::durable(&dir.0).shards(2).open().unwrap();
        db.verify().unwrap();
    }
}

#[test]
fn a_directory_with_nothing_durable_is_recreated() {
    let dir = TempDir::new("wal-fresh");
    let cfg = TsbConfig::small_pages();
    // Simulate a crash during the very first create: a WAL holding only
    // un-fenced page images (no commit, no checkpoint).
    {
        let stats = Arc::new(IoStats::new());
        let wal = Wal::create(dir.0.join("redo.wal"), cfg.fsync_policy, stats).unwrap();
        wal.append(&WalRecord::PageImage {
            page: PageId(1),
            bytes: vec![1, 2, 3],
        })
        .unwrap();
    }
    let tree = crate::TsbOptions::durable(&dir.0)
        .config(cfg)
        .open_tree()
        .unwrap();
    assert!(tree.get_current(&Key::from_u64(1)).unwrap().is_none());
    tree.verify().unwrap();
}

#[test]
fn create_open_round_trip() {
    let dir = TempDir::new("round-trip");
    let cfg = TsbConfig::small_pages();
    let open = || {
        crate::TsbOptions::durable(&dir.0)
            .config(cfg.clone())
            .open_tree()
            .unwrap()
    };

    let root_before;
    {
        let tree = open();
        tree.insert(1u64, b"one".to_vec()).unwrap();
        tree.insert(2u64, b"two".to_vec()).unwrap();
        root_before = tree.current_root();
        checkpoint_log(&[&tree]).unwrap();
    }
    {
        let tree = open();
        assert_eq!(tree.current_root(), root_before);
        assert_eq!(
            tree.get_current(&Key::from_u64(1)).unwrap().unwrap(),
            b"one".to_vec()
        );
        assert_eq!(
            tree.get_current(&Key::from_u64(2)).unwrap().unwrap(),
            b"two".to_vec()
        );
        // The clock resumes past previously issued timestamps.
        assert!(tree.now() > Timestamp(2));
    }
    // Creating a tree refuses a non-empty store.
    let stats = Arc::new(IoStats::new());
    let pages = dir.0.join("current.pages");
    let magnetic =
        Arc::new(MagneticStore::open_file(pages, cfg.page_size, Arc::clone(&stats)).unwrap());
    let worm = Arc::new(WormStore::in_memory(cfg.worm_sector_size, stats));
    assert!(create(magnetic, worm, cfg).is_err());
}

#[test]
fn create_rejects_mismatched_page_size() {
    let cfg = TsbConfig::small_pages();
    let stats = Arc::new(IoStats::new());
    let magnetic = Arc::new(MagneticStore::in_memory(4096, Arc::clone(&stats)));
    let worm = Arc::new(WormStore::in_memory(
        cfg.worm_sector_size,
        Arc::clone(&stats),
    ));
    assert!(create(magnetic, worm, cfg).is_err());
}

#[test]
fn space_and_cost_reflect_the_stores() {
    let tree = crate::TsbOptions::in_memory()
        .config(TsbConfig::small_pages())
        .open_tree()
        .unwrap();
    for i in 0..50u64 {
        tree.insert(i, vec![b'v'; 20]).unwrap();
    }
    let stats = tree.tree_stats().unwrap();
    assert!(stats.space.magnetic_bytes > 0);
    assert!(stats.storage_cost > 0.0);
}

#[test]
fn warm_descents_perform_zero_decodes() {
    let cfg = TsbConfig::small_pages().with_node_cache_entries(4096);
    let tree = crate::TsbOptions::in_memory()
        .config(cfg)
        .open_tree()
        .unwrap();
    for i in 0..300u64 {
        tree.insert(i % 30, format!("v{i}").into_bytes()).unwrap();
    }
    // First pass warms the cache for every current path.
    for key in 0..30u64 {
        tree.get_current(&Key::from_u64(key)).unwrap();
    }
    let before = tree.io_stats().snapshot();
    for key in 0..30u64 {
        tree.get_current(&Key::from_u64(key)).unwrap();
    }
    let delta = tree.io_stats().snapshot().delta_since(&before);
    assert!(delta.node_cache_hits > 0, "warm reads must hit the cache");
    assert_eq!(delta.node_cache_misses, 0, "every node was already cached");
    assert_eq!(delta.node_decodes, 0, "cache hits perform no decode");
    assert!(
        delta.node_accesses_current >= 30,
        "logical accesses are still counted on hits"
    );
}

#[test]
fn encode_is_deferred_until_flush() {
    // Large pages: no splits, so the root leaf absorbs every insert.
    let dir = TempDir::new("deferred-encode");
    let tree = crate::TsbOptions::durable(&dir.0)
        .config(TsbConfig::default())
        .open_tree()
        .unwrap();
    let before = tree.io_stats().snapshot();
    for i in 0..20u64 {
        tree.insert(i, vec![b'x'; 16]).unwrap();
    }
    let delta = tree.io_stats().snapshot().delta_since(&before);
    assert_eq!(
        delta.node_encodes, 0,
        "20 rewrites of the hot leaf must not encode until flush"
    );
    checkpoint_log(&[&tree]).unwrap();
    let delta = tree.io_stats().snapshot().delta_since(&before);
    assert_eq!(delta.node_encodes, 1, "flush encodes the leaf exactly once");
}

#[test]
fn a_poisoned_tree_refuses_reads_and_writes() {
    let tree = crate::TsbOptions::in_memory()
        .config(TsbConfig::small_pages())
        .open_tree()
        .unwrap();
    tree.insert(1u64, b"v".to_vec()).unwrap();
    // Simulate a structural mutation failing part-way through (only
    // reachable through file-backed I/O errors in production).
    tree.note_structural_write();
    tree.settle_structure_after(true);
    assert!(tree.get_current(&Key::from_u64(1)).is_err());
    assert!(tree.insert(2u64, b"w".to_vec()).is_err());
    // A clean failure outside a structural window does not poison.
    let tree = crate::TsbOptions::in_memory()
        .config(TsbConfig::small_pages())
        .open_tree()
        .unwrap();
    tree.settle_structure_after(true);
    assert!(tree.get_current(&Key::from_u64(1)).is_ok());
}

#[test]
fn dirty_residency_is_bounded_without_explicit_flush() {
    // KeyOnly: no WORM migration, so every node encode in this run can
    // only come from the dirty-overflow write-back. A long unflushed
    // insert run must not let deferred encodes pile up past the cache
    // capacity — the overflow path drains them as it goes.
    let cfg = TsbConfig::small_pages()
        .with_node_cache_entries(64)
        .with_split_policy(tsb_common::SplitPolicyKind::KeyOnly);
    let tree = crate::TsbOptions::in_memory()
        .config(cfg)
        .open_tree()
        .unwrap();
    let before = tree.io_stats().snapshot();
    for i in 0..2000u64 {
        tree.insert(i, vec![b'v'; 24]).unwrap();
    }
    let delta = tree.io_stats().snapshot().delta_since(&before);
    assert_eq!(delta.worm_appends, 0, "KeyOnly must not migrate");
    assert!(
        delta.node_encodes > 0,
        "dirty overflow write-back never fired across 2000 unflushed inserts"
    );
    tree.verify().unwrap();
    tree.verify_cache_coherence().unwrap();
    // Nothing was lost to the early write-backs.
    for i in (0..2000u64).step_by(97) {
        assert!(tree.get_current(&Key::from_u64(i)).unwrap().is_some());
    }
}

#[test]
fn a_read_never_writes_a_page_or_forces_the_log() {
    // A durable tree whose current database is many times the node cache:
    // the read sweep misses constantly while the cache still holds dirty
    // nodes. KeyOnly keeps the WORM out of it, `Os` keeps commits from
    // forcing the log, so any write or sync in the sweep is a reader's.
    let dir = TempDir::new("read-never-writes");
    let cfg = TsbConfig::small_pages()
        .with_node_cache_entries(16)
        .with_split_policy(tsb_common::SplitPolicyKind::KeyOnly)
        .with_fsync_policy(tsb_common::FsyncPolicy::Os);
    let tree = crate::TsbOptions::durable(&dir.0)
        .config(cfg)
        .open_tree()
        .unwrap();
    for i in 0..3000u64 {
        tree.insert(i, vec![b'v'; 24]).unwrap();
    }
    let before = tree.io_stats().snapshot();
    for i in 0..3000u64 {
        assert!(tree.get_current(&Key::from_u64(i)).unwrap().is_some());
    }
    let sweep = tree.io_stats().snapshot().delta_since(&before);
    assert!(sweep.node_cache_misses > 0, "the sweep must miss the cache");
    assert_eq!(sweep.magnetic_writes, 0, "a read wrote a page");
    assert_eq!(sweep.wal_syncs, 0, "a read forced the log");
    assert_eq!(
        sweep.magnetic_reads, sweep.node_decodes,
        "a current-node miss is exactly one device read"
    );
}

/// A tree's state — root, clock, transaction counter — is written to the
/// log's fences and nowhere else, so a checkpoint writes back dirty nodes
/// and nothing more: a second checkpoint of a tree nothing dirtied writes
/// no page and forces the log once, for its own record. Counted from
/// IoSnapshot, so it cannot flake.
#[test]
fn a_checkpoint_of_a_clean_tree_writes_no_page() {
    let dir = TempDir::new("clean-checkpoint");
    let tree = crate::TsbOptions::durable(&dir.0)
        .small_pages()
        .open_tree()
        .unwrap();
    for i in 0..60u64 {
        tree.insert(i, format!("x{i}").into_bytes()).unwrap();
    }
    checkpoint_log(&[&tree]).unwrap();
    let before = tree.io_stats().snapshot();
    checkpoint_log(&[&tree]).unwrap();
    let second = tree.io_stats().snapshot().delta_since(&before);
    assert_eq!(second.magnetic_writes, 0, "a clean checkpoint wrote a page");
    assert_eq!(second.wal_syncs, 1, "a checkpoint forces the log once");
}

/// A transaction's writes wait for nothing: the commit's fence follows
/// them on the one log, so under `Always` four `txn_insert`s and their
/// `commit_txn` cost one fsync, and the wait on the commit's position
/// returns it durable.
#[test]
fn a_transaction_on_one_tree_costs_one_sync() {
    let dir = TempDir::new("txn-one-sync");
    let tree = crate::TsbOptions::durable(&dir.0)
        .fsync(FsyncPolicy::Always)
        .open_tree()
        .unwrap();
    let before = tree.io_stats().snapshot().wal_syncs;
    let txn = tree.begin_txn();
    for k in 0..4u64 {
        tree.txn_insert(txn, k, b"t".to_vec()).unwrap();
    }
    assert_eq!(
        tree.io_stats().snapshot().wal_syncs,
        before,
        "a write synced"
    );
    let (ts, wait) = tree.commit_txn(txn).unwrap();
    tree.wait_durable_lsn(wait).unwrap();
    assert_eq!(tree.io_stats().snapshot().wal_syncs - before, 1);
    assert_eq!(tree.last_durable_commit(), Some(ts));
}

#[test]
fn a_write_back_under_a_durable_fence_forces_nothing() {
    // A durable tree many times its node cache, under `Os`: no commit
    // forces the log, so every fsync in the run is a write-back barrier's.
    // Overflow write-backs mostly pick pages last logged several commits
    // ago, which the durable fence of the barrier's previous force already
    // covers; only a page logged since then forces the log again.
    let dir = TempDir::new("fenced-write-back");
    let cfg = TsbConfig::small_pages()
        .with_node_cache_entries(32)
        .with_split_policy(tsb_common::SplitPolicyKind::KeyOnly)
        .with_fsync_policy(tsb_common::FsyncPolicy::Os);
    let tree = crate::TsbOptions::durable(&dir.0)
        .config(cfg)
        .open_tree()
        .unwrap();
    let before = tree.io_stats().snapshot();
    for i in 0..3000u64 {
        tree.insert(i * 7919 % 3000, vec![b'v'; 24]).unwrap();
    }
    let run = tree.io_stats().snapshot().delta_since(&before);
    assert!(run.wal_syncs > 0, "no write-back ever forced the log");
    assert!(
        4 * run.wal_syncs <= run.magnetic_writes,
        "{} forces for {} write-backs: a write-back forced a log its durable \
         fence already covered",
        run.wal_syncs,
        run.magnetic_writes
    );
    tree.verify().unwrap();
}

/// On a log the shards share, a page may reach its device only under a
/// durable fence of *its own* shard: recovery replays a shard only through
/// that shard's fences, so another shard's durable fence past the page's
/// record covers nothing. Counted: the barrier must force exactly when its
/// shard's fence falls short.
#[test]
fn the_write_back_barrier_reads_the_shards_own_durable_fence() {
    use crate::EngineHandle;

    let dir = TempDir::new("shard-fence");
    let cfg = TsbConfig::small_pages().with_fsync_policy(tsb_common::FsyncPolicy::Os);
    let db = crate::TsbOptions::durable(&dir.0)
        .config(cfg)
        .shards(2)
        .open()
        .unwrap();
    let (a, b) = (db.shards()[0].tree(), db.shards()[1].tree());
    let wal = a.wal_handle().unwrap();
    let rewrite_root = |tree: &TsbTree| {
        let root = tree.current_root();
        let node = tree.read_node(root).unwrap();
        let page = root.as_page().unwrap();
        tree.write_current(page, Node::clone(&node)).unwrap();
        (page, node)
    };

    // Shard A: a mutation in flight logs its root page, and no fence.
    let (page, node) = rewrite_root(a);
    // Shard B: a whole mutation, its fence forced; then B's next mutation
    // begins, so a force of the log has something to do.
    let key_b = (0u64..)
        .find(|k| db.shard_of(&Key::from_u64(*k)) == 1)
        .unwrap();
    b.insert(key_b, b"b".to_vec()).unwrap();
    wal.sync().unwrap();
    assert!(wal.durable_lsn() > a.durability.as_ref().unwrap().pages.lsn_of(page).unwrap());
    rewrite_root(b);

    let syncs = || db.io_snapshot().wal_syncs;
    let before = syncs();
    a.write_back_dirty(page, &node).unwrap();
    assert_eq!(
        syncs(),
        before + 1,
        "shard A's page went to its device under shard B's fence"
    );

    // A's own fence lands and is forced: now it covers the page.
    a.wal_commit(a.now().prev()).unwrap();
    wal.sync().unwrap();
    let before = syncs();
    a.write_back_dirty(page, &node).unwrap();
    assert_eq!(
        syncs(),
        before,
        "a page its shard's durable fence covers forced the log"
    );
}

/// The paper prices a query as one root-to-leaf path of node accesses, and
/// an index node lies on the path to every node below it. With a cache
/// about twice the tree's index nodes, but far short of index nodes plus
/// leaves, a stream of as-of gets over distinct historical leaves must
/// leave every index node resident: each get decodes its leaf and nothing
/// else. Counted from IoSnapshot, so it cannot flake.
#[test]
fn an_as_of_descent_whose_index_fits_decodes_only_its_leaf() {
    // 1 KiB pages: at 256 bytes an index node routes about four children,
    // so leaves would barely outnumber index nodes.
    let cfg = TsbConfig {
        page_size: 1024,
        ..TsbConfig::small_pages()
    };
    let (keys, rounds) = (256u64, 100u8);
    let dir = TempDir::new("index-residency");
    let reopen = |cfg: TsbConfig| {
        crate::TsbOptions::durable(&dir.0)
            .config(cfg)
            .fsync(FsyncPolicy::Os)
            .open_tree()
            .unwrap()
    };
    {
        let tree = reopen(cfg.clone());
        for round in 0..rounds {
            for k in 0..keys {
                tree.insert(k, vec![round; 8]).unwrap();
            }
        }
        checkpoint_log(&[&tree]).unwrap();
    }

    // Every index node the tree reaches, and a probe for every historical
    // leaf: a version it holds, as of a time inside its rectangle — the
    // descent for that point ends at this leaf and nowhere else.
    let tree = reopen(cfg.clone());
    let mut index_nodes = Vec::new();
    let mut probes = Vec::new();
    let mut seen = std::collections::HashSet::new();
    let mut frontier = vec![tree.current_root()];
    while let Some(addr) = frontier.pop() {
        if !seen.insert(addr) {
            continue;
        }
        match &*tree.read_node(addr).unwrap() {
            Node::Index(index) => {
                index_nodes.push(addr);
                frontier.extend(index.iter().map(|e| e.child));
            }
            Node::Data(leaf) if addr.is_historical() => {
                let version = leaf.get(0);
                let ts = version.commit_time().unwrap().max(leaf.time_range.lo);
                probes.push((version.to_key(), ts));
            }
            Node::Data(_) => {}
        }
    }
    // A scattered order, so that no index node's leaves come together.
    let probes: Vec<_> = (0..probes.len())
        .map(|i| probes[i * 7919 % probes.len()].clone())
        .collect();
    let capacity = 2 * index_nodes.len();
    assert!(
        probes.len() > 4 * capacity,
        "{} historical leaves do not overflow a {capacity}-entry cache by far",
        probes.len()
    );

    drop(tree);
    let tree = reopen(cfg.with_node_cache_entries(capacity));
    // Recovery's verify() warmed the cache: start as cold as a fresh tree.
    tree.drop_caches().unwrap();
    for &addr in &index_nodes {
        tree.read_node(addr).unwrap();
    }
    for (i, (key, ts)) in probes.iter().enumerate() {
        let before = tree.io_stats().snapshot();
        assert!(tree.get_as_of(key, *ts).unwrap().is_some());
        let delta = tree.io_stats().snapshot().delta_since(&before);
        assert_eq!(
            delta.node_decodes,
            1,
            "as-of get {i} of {} decoded an index node as well as its leaf \
             ({} index nodes, cache {capacity})",
            probes.len(),
            index_nodes.len()
        );
    }
}

#[test]
fn bypass_reads_and_cache_invalidation_agree_with_the_cache() {
    let cfg = TsbConfig::small_pages();
    let tree = crate::TsbOptions::in_memory()
        .config(cfg)
        .open_tree()
        .unwrap();
    for i in 0..300u64 {
        tree.insert(i % 25, format!("value-{i}").into_bytes())
            .unwrap();
    }
    tree.verify_cache_coherence().unwrap();

    // A bypass read of the root decodes the same node the cache holds.
    let via_cache = tree.read_node(tree.current_root()).unwrap();
    let via_device = tree.read_node_bypass(tree.current_root()).unwrap();
    assert_eq!(*via_cache, via_device);

    // Invalidation forces a re-decode, which still agrees.
    tree.invalidate_cached_node(tree.current_root()).unwrap();
    let before = tree.io_stats().snapshot();
    let reread = tree.read_node(tree.current_root()).unwrap();
    let delta = tree.io_stats().snapshot().delta_since(&before);
    assert_eq!(delta.node_cache_misses, 1);
    assert_eq!(*reread, via_device);

    // Dropping every cache cold-starts reads without losing anything.
    tree.drop_caches().unwrap();
    let before = tree.io_stats().snapshot();
    for key in 0..25u64 {
        assert!(tree.get_current(&Key::from_u64(key)).unwrap().is_some());
    }
    let delta = tree.io_stats().snapshot().delta_since(&before);
    assert!(delta.node_decodes > 0, "cold reads decode again");
    tree.verify_cache_coherence().unwrap();
}

#[test]
fn persistence_survives_deferred_encodes() {
    let dir = TempDir::new("deferred-persist");
    let cfg = TsbConfig::small_pages();
    let open = || {
        crate::TsbOptions::durable(&dir.0)
            .config(cfg.clone())
            .open_tree()
            .unwrap()
    };
    {
        let tree = open();
        for i in 0..200u64 {
            tree.insert(i % 20, format!("gen-{i}").into_bytes())
                .unwrap();
        }
        checkpoint_log(&[&tree]).unwrap();
    }
    // A reopened tree (fresh, empty caches) sees every write.
    let tree = open();
    for key in 0..20u64 {
        let got = tree.get_current(&Key::from_u64(key)).unwrap().unwrap();
        assert_eq!(got, format!("gen-{}", 180 + key).into_bytes());
    }
    tree.verify().unwrap();
}

#[test]
fn an_explicit_timestamp_that_would_rewrite_history_is_refused() {
    let dir = TempDir::new("explicit-ts");
    let mut tree = crate::TsbOptions::durable(&dir.0)
        .config(TsbConfig::small_pages())
        .open_tree()
        .unwrap();
    let t1 = tree.insert(1u64, b"a1".to_vec()).unwrap().0;
    let t2 = tree.insert(1u64, b"a2".to_vec()).unwrap().0;
    let t3 = tree.insert(3u64, b"c3".to_vec()).unwrap().0;
    let answers = |tree: &TsbTree| {
        [(1u64, t1), (1, t2), (2, t2), (3, t3)]
            .map(|(key, ts)| tree.get_as_of(&Key::from_u64(key), ts).unwrap())
    };
    let seen = answers(&tree);

    let before = tree.io_stats().snapshot();
    // Older than the newest issued timestamp, on a new key and on an old one.
    for refused in [
        tree.insert_at(2u64, b"b".to_vec(), t1),
        tree.insert_at(1u64, b"x".to_vec(), t1),
        tree.delete_at(1u64, t2),
    ] {
        assert!(matches!(refused, Err(TsbError::Config(_))), "{refused:?}");
    }
    // The newest issued timestamp, on the key that already holds it.
    for refused in [
        tree.insert_at(3u64, b"y".to_vec(), t3),
        tree.delete_at(3u64, t3),
    ] {
        assert!(matches!(refused, Err(TsbError::Config(_))), "{refused:?}");
    }
    let delta = tree.io_stats().snapshot().delta_since(&before);
    assert_eq!(delta.wal_bytes_appended, 0, "a refusal logs nothing");
    assert_eq!(answers(&tree), seen);

    // The tree is not poisoned, and the newest timestamp stays free for
    // another key.
    let t4 = tree.insert(4u64, b"d".to_vec()).unwrap().0;
    tree.insert_at(5u64, b"e".to_vec(), t4).unwrap();
    assert_eq!(
        tree.get_as_of(&Key::from_u64(5), t4).unwrap(),
        Some(b"e".to_vec())
    );
    assert_eq!(answers(&tree), seen);
    tree.verify().unwrap();
}

// ---------- the node cache under arbitrary writes ----------------------------

#[derive(Clone, Debug)]
enum PropOp {
    Put { key: u8, len: u8 },
    Delete { key: u8 },
}

fn op_strategy() -> impl Strategy<Value = PropOp> {
    prop_oneof![
        4 => (any::<u8>(), any::<u8>()).prop_map(|(key, len)| PropOp::Put { key: key % 32, len }),
        1 => any::<u8>().prop_map(|key| PropOp::Delete { key: key % 32 }),
    ]
}

fn policy_strategy() -> impl Strategy<Value = (SplitPolicyKind, SplitTimeChoice)> {
    let policy = prop_oneof![
        Just(SplitPolicyKind::WobtLike),
        Just(SplitPolicyKind::TimePreferring),
        Just(SplitPolicyKind::KeyPreferring),
        Just(SplitPolicyKind::KeyOnly),
        Just(SplitPolicyKind::CostBased),
        (0.1f64..0.95).prop_map(|f| SplitPolicyKind::Threshold {
            key_split_live_fraction: f,
        }),
    ];
    let choice = prop_oneof![
        Just(SplitTimeChoice::CurrentTime),
        Just(SplitTimeChoice::LastUpdate),
        Just(SplitTimeChoice::MedianVersion),
    ];
    (policy, choice)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The decoded-node cache is coherent: after arbitrary operation
    /// sequences (with splits and interleaved invalidations), every cached
    /// node equals what decoding its device image produces, cache-bypassing
    /// reads return the same answers as cached reads, and re-running the
    /// same warm queries performs zero decodes.
    #[test]
    fn node_cache_is_coherent_under_arbitrary_ops(
        ops in prop::collection::vec(op_strategy(), 1..200),
        (policy, choice) in policy_strategy(),
        invalidate_every in 5usize..40,
    ) {
        let cfg = TsbConfig::small_pages()
            .with_split_policy(policy)
            .with_split_time_choice(choice)
            .with_node_cache_entries(4096);
        let tree = crate::TsbOptions::in_memory().config(cfg).open_tree().unwrap();
        for (i, op) in ops.iter().enumerate() {
            match op {
                PropOp::Put { key, len } => {
                    let value = vec![*key; (*len % 24) as usize];
                    tree.insert(Key::from_u64(*key as u64), value).unwrap();
                }
                PropOp::Delete { key } => {
                    tree.delete(Key::from_u64(*key as u64)).unwrap();
                }
            }
            // Sprinkle invalidations through the stream: they must never
            // change any answer, only force re-decodes.
            if i % invalidate_every == invalidate_every - 1 {
                tree.invalidate_cached_node(tree.current_root()).unwrap();
            }
        }
        // Every reachable cached node equals its decoded device image.
        tree.verify_cache_coherence().unwrap();

        // Answers through the warm cache...
        let cached_answers: Vec<_> = (0..32u64)
            .map(|key| tree.get_current(&Key::from_u64(key)).unwrap())
            .collect();
        // ...survive a full cold start (bypass: everything re-decoded).
        tree.drop_caches().unwrap();
        for (key, expected) in (0..32u64).zip(&cached_answers) {
            prop_assert_eq!(&tree.get_current(&Key::from_u64(key)).unwrap(), expected);
        }
        // And the now-warm paths decode nothing on a repeat pass.
        let before = tree.io_stats().snapshot();
        for key in 0..32u64 {
            tree.get_current(&Key::from_u64(key)).unwrap();
        }
        let delta = tree.io_stats().snapshot().delta_since(&before);
        prop_assert_eq!(delta.node_decodes, 0);
        prop_assert_eq!(delta.node_cache_misses, 0);
        prop_assert!(delta.node_cache_hits > 0);
    }
}
