//! Whole-tree tests — create / open / recover through the public doors,
//! cache coherence, the poison flag — kept in one module so their names
//! stay `tree::tests::*`. The log's rules are tested beside them, in
//! `recover.rs`.

use std::sync::Arc;

use tsb_common::{Key, Timestamp, TsbConfig};
use tsb_storage::{IoStats, MagneticStore, PageId, PageOp, Wal, WalRecord, WormStore};

use super::TsbTree;

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
        assert!(tree.is_durable());
        for i in 0..120u64 {
            let ts = tree
                .insert_shared(i % 12, format!("v{i}").into_bytes())
                .unwrap();
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
        let mut tree = crate::TsbOptions::durable(&dir.0)
            .config(cfg.clone())
            .open_tree()
            .unwrap();
        for i in 0..60u64 {
            tree.insert(i, format!("x{i}").into_bytes()).unwrap();
        }
        tree.checkpoint().unwrap();
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
        let mut tree = crate::TsbOptions::durable(&dir.0)
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

#[test]
fn phantom_deltas_from_a_failed_mutation_never_reach_recovery() {
    // A split can log its triggering delta as a *pending* record and
    // then fail in pure planning or allocation — before any structural
    // write, so the tree is not poisoned and keeps serving. Those
    // deltas describe state the mutation rolled back; the next
    // successful fence must supersede them with a corrective full
    // image, or recovery would replay a change the caller was told
    // failed. This drives the quarantine machinery directly (the
    // failure window itself needs ENOSPC-grade faults to reach).
    let dir = TempDir::new("wal-phantom");
    let cfg = TsbConfig::small_pages();
    {
        let tree = crate::TsbOptions::durable(&dir.0)
            .config(cfg.clone())
            .open_tree()
            .unwrap();
        tree.insert_shared(1u64, b"real".to_vec()).unwrap();
        let page = tree.root_addr().as_page().expect("root is a leaf page");
        assert!(tree.pending_ops_allowed(page), "leaf has a delta base");
        // The failed mutation: a pending delta lands in the log…
        tree.wal_append_ops(
            page,
            vec![PageOp::InsertVersion(tsb_common::Version::committed(
                99u64,
                Timestamp(77),
                b"phantom".to_vec(),
            ))],
        )
        .unwrap();
        // …then the split dies without a structural write.
        tree.quarantine_pending_deltas();
        assert!(
            !tree.pending_ops_allowed(page),
            "a quarantined page loses its delta base"
        );
        // The next successful mutation fences; its corrective image
        // must win over the phantom at replay.
        tree.insert_shared(2u64, b"after".to_vec()).unwrap();
    }
    let tree = crate::TsbOptions::durable(&dir.0)
        .config(cfg)
        .open_tree()
        .unwrap();
    tree.verify().unwrap();
    assert!(
        tree.get_current(&Key::from_u64(99)).unwrap().is_none(),
        "the phantom version must not survive recovery"
    );
    assert_eq!(
        tree.get_current(&Key::from_u64(1)).unwrap().unwrap(),
        b"real".to_vec()
    );
    assert_eq!(
        tree.get_current(&Key::from_u64(2)).unwrap().unwrap(),
        b"after".to_vec()
    );
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
    let cfg = TsbConfig::small_pages();
    let stats = Arc::new(IoStats::new());
    let magnetic = Arc::new(MagneticStore::in_memory(cfg.page_size, Arc::clone(&stats)));
    let worm = Arc::new(WormStore::in_memory(
        cfg.worm_sector_size,
        Arc::clone(&stats),
    ));

    let root_before;
    {
        let mut tree =
            TsbTree::create(Arc::clone(&magnetic), Arc::clone(&worm), cfg.clone()).unwrap();
        tree.insert(1u64, b"one".to_vec()).unwrap();
        tree.insert(2u64, b"two".to_vec()).unwrap();
        root_before = tree.root_addr();
        tree.flush().unwrap();
    }
    {
        let tree = TsbTree::open(Arc::clone(&magnetic), Arc::clone(&worm), cfg.clone()).unwrap();
        assert_eq!(tree.root_addr(), root_before);
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
    // create() refuses a non-empty store.
    assert!(TsbTree::create(magnetic, worm, cfg).is_err());
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
    assert!(TsbTree::create(magnetic, worm, cfg).is_err());
}

#[test]
fn space_and_cost_reflect_the_stores() {
    let mut tree = crate::TsbOptions::in_memory()
        .config(TsbConfig::small_pages())
        .open_tree()
        .unwrap();
    for i in 0..50u64 {
        tree.insert(i, vec![b'v'; 20]).unwrap();
    }
    let space = tree.space();
    assert!(space.magnetic_bytes > 0);
    assert!(tree.storage_cost() > 0.0);
}

#[test]
fn warm_descents_perform_zero_decodes() {
    let cfg = TsbConfig::small_pages().with_node_cache_entries(4096);
    let mut tree = crate::TsbOptions::in_memory()
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
    let mut tree = crate::TsbOptions::in_memory()
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
    tree.flush().unwrap();
    let delta = tree.io_stats().snapshot().delta_since(&before);
    assert_eq!(delta.node_encodes, 1, "flush encodes the leaf exactly once");
}

#[test]
fn a_poisoned_tree_refuses_reads_and_writes() {
    let mut tree = crate::TsbOptions::in_memory()
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
    let mut tree = crate::TsbOptions::in_memory()
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
    let mut tree = crate::TsbOptions::durable(&dir.0)
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

#[test]
fn bypass_reads_and_cache_invalidation_agree_with_the_cache() {
    let cfg = TsbConfig::small_pages();
    let mut tree = crate::TsbOptions::in_memory()
        .config(cfg)
        .open_tree()
        .unwrap();
    for i in 0..300u64 {
        tree.insert(i % 25, format!("value-{i}").into_bytes())
            .unwrap();
    }
    tree.verify_cache_coherence().unwrap();

    // A bypass read of the root decodes the same node the cache holds.
    let via_cache = tree.read_node(tree.root_addr()).unwrap();
    let via_device = tree.read_node_bypass(tree.root_addr()).unwrap();
    assert_eq!(*via_cache, via_device);

    // Invalidation forces a re-decode, which still agrees.
    tree.invalidate_cached_node(tree.root_addr()).unwrap();
    let before = tree.io_stats().snapshot();
    let reread = tree.read_node(tree.root_addr()).unwrap();
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
    let cfg = TsbConfig::small_pages();
    let stats = Arc::new(IoStats::new());
    let magnetic = Arc::new(MagneticStore::in_memory(cfg.page_size, Arc::clone(&stats)));
    let worm = Arc::new(WormStore::in_memory(
        cfg.worm_sector_size,
        Arc::clone(&stats),
    ));
    {
        let mut tree =
            TsbTree::create(Arc::clone(&magnetic), Arc::clone(&worm), cfg.clone()).unwrap();
        for i in 0..200u64 {
            tree.insert(i % 20, format!("gen-{i}").into_bytes())
                .unwrap();
        }
        tree.flush().unwrap();
    }
    // A reopened tree (fresh, empty caches) sees every write.
    let tree = TsbTree::open(magnetic, worm, cfg).unwrap();
    for key in 0..20u64 {
        let got = tree.get_current(&Key::from_u64(key)).unwrap().unwrap();
        assert_eq!(got, format!("gen-{}", 180 + key).into_bytes());
    }
    tree.verify().unwrap();
}
