//! Durability: an engine opened on a directory survives a close and reopen
//! with its history, its clock, and the write-once property intact.

use std::path::PathBuf;
use std::sync::Arc;

use tsb_common::{Key, SplitPolicyKind, TsbConfig};
use tsb_core::{EngineHandle, ShardedTsb, TsbOptions};
use tsb_storage::{IoStats, MagneticStore, SectorId, WormStore};
use tsb_workload::{generate_ops, Oracle, WorkloadSpec};

use tsb_integration::{assert_tree_matches_oracle, replay};

struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!(
            "tsb-it-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        TempDir(dir)
    }
    fn path(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn open_engine(dir: &TempDir, cfg: &TsbConfig) -> ShardedTsb {
    TsbOptions::durable(&dir.0)
        .config(cfg.clone())
        .open()
        .unwrap()
}

fn open_stores(dir: &TempDir, cfg: &TsbConfig) -> (Arc<MagneticStore>, Arc<WormStore>) {
    let stats = Arc::new(IoStats::new());
    let magnetic = Arc::new(
        MagneticStore::open_file(dir.path("current.pages"), cfg.page_size, Arc::clone(&stats))
            .unwrap(),
    );
    let worm = Arc::new(
        WormStore::open_file(dir.path("history.worm"), cfg.worm_sector_size, stats).unwrap(),
    );
    (magnetic, worm)
}

#[test]
fn tree_survives_close_and_reopen_with_full_history() {
    let dir = TempDir::new("reopen");
    let cfg = TsbConfig::small_pages().with_split_policy(SplitPolicyKind::TimePreferring);

    let spec = WorkloadSpec::default()
        .with_ops(600)
        .with_keys(60)
        .with_update_ratio(4.0)
        .with_value_size(24);
    let ops = generate_ops(&spec);
    let mut oracle = Oracle::new();
    let log;
    let clock_before;
    {
        let tree = open_engine(&dir, &cfg);
        log = replay(&tree, &mut oracle, &ops);
        tree.verify().unwrap();
        clock_before = tree.now();
        tree.checkpoint().unwrap();
    }
    {
        let tree = open_engine(&dir, &cfg);
        assert!(tree.now() >= clock_before, "clock must not run backwards");
        tree.verify().unwrap();
        assert_tree_matches_oracle(&tree, &oracle, &log);
    }
    // A third session keeps writing and the history stays consistent.
    {
        let tree = open_engine(&dir, &cfg);
        let more = generate_ops(&spec.clone().with_seed(99).with_ops(200));
        let more_log = replay(&tree, &mut oracle, &more);
        tree.verify().unwrap();
        assert_tree_matches_oracle(&tree, &oracle, &more_log);
        // The versions written in the first session are still there too.
        for (key, ts, value) in &log {
            assert_eq!(&tree.get_as_of(key, *ts).unwrap(), value);
        }
        tree.checkpoint().unwrap();
    }
}

#[test]
fn historical_store_stays_write_once_across_sessions() {
    let dir = TempDir::new("worm");
    let cfg = TsbConfig::small_pages().with_split_policy(SplitPolicyKind::TimePreferring);
    {
        let tree = open_engine(&dir, &cfg);
        for i in 0..300u64 {
            tree.insert(Key::from_u64(i % 10), format!("v{i}").into_bytes())
                .unwrap();
        }
        tree.checkpoint().unwrap();
        assert!(
            tree.tree_stats().unwrap().space.worm_bytes > 0,
            "time splits must have migrated data"
        );
    }
    {
        let (_magnetic, worm) = open_stores(&dir, &cfg);
        // Every already-burned sector refuses to be rewritten after reopen.
        assert!(worm.sectors_allocated() > 0);
        for s in 0..worm.sectors_allocated() {
            if worm.is_sector_written(SectorId(s)) {
                assert!(worm
                    .write_sector(SectorId(s), b"overwrite attempt")
                    .is_err());
            }
        }
    }
}

#[test]
fn reopening_with_a_different_page_size_is_rejected() {
    let dir = TempDir::new("pagesize");
    let cfg = TsbConfig::small_pages();
    {
        let tree = open_engine(&dir, &cfg);
        tree.insert(Key::from_u64(1), b"x".to_vec()).unwrap();
        tree.checkpoint().unwrap();
    }
    {
        let stats = Arc::new(IoStats::new());
        // The store itself refuses to open with a mismatched page size.
        assert!(MagneticStore::open_file(dir.path("current.pages"), 4096, stats).is_err());
    }
}
