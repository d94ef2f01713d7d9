//! Proof that the warm descent is allocation-free.
//!
//! This binary installs a counting `GlobalAlloc` (wrapping the system
//! allocator) and asserts that a warm `get_current` over small (inline)
//! keys performs **zero** heap allocations end to end: the root latch, the
//! node-cache hits on every level, the binary-search routing inside index
//! nodes, and the `(key, version-order)` probes inside the leaf all work on
//! borrowed or inline data. Before this PR the same path allocated on
//! every index-node scan probe (`Key` was always heap-backed) and on every
//! leaf binary-search probe (`sort_key()` cloned the entry key).
//!
//! The test lives in its own integration-test binary so the global
//! allocator hook does not interfere with any other test.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;

use tsb_common::{FsyncPolicy, Key, Timestamp, TsbConfig};
use tsb_core::{EngineHandle, ShardedTsb, TsbOptions, TsbTree};

/// Counts allocations while `COUNTING` is set; delegates to [`System`].
struct CountingAlloc;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static ALLOCATED_BYTES: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
            ALLOCATED_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        }
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
            ALLOCATED_BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// The counting statics are process-global, but libtest runs `#[test]`
/// fns on parallel threads — another test's allocations (tree building!)
/// must not leak into a measured window. Every test in this binary holds
/// this lock for its whole body.
static SERIAL: Mutex<()> = Mutex::new(());

/// Runs `f` with allocation counting on, returning (allocations, bytes).
fn count_allocations(f: impl FnOnce()) -> (u64, u64) {
    ALLOCATIONS.store(0, Ordering::SeqCst);
    ALLOCATED_BYTES.store(0, Ordering::SeqCst);
    COUNTING.store(true, Ordering::SeqCst);
    f();
    COUNTING.store(false, Ordering::SeqCst);
    (
        ALLOCATIONS.load(Ordering::SeqCst),
        ALLOCATED_BYTES.load(Ordering::SeqCst),
    )
}

/// Builds a one-shard engine over a multi-level tree of 8-byte keys whose
/// values are empty, so the `Option<Vec<u8>>` a lookup returns never needs
/// a backing allocation. Its reads are the ones the server makes.
fn build_engine(keys: u64) -> ShardedTsb {
    let cfg = TsbConfig::small_pages().with_node_cache_entries(4096);
    let db = TsbOptions::in_memory().config(cfg).open().unwrap();
    for _round in 0..4 {
        for k in 0..keys {
            db.insert(Key::from_u64(k), Vec::new()).unwrap();
        }
    }
    db
}

/// A scratch directory for a durable engine, removed on drop.
struct TempDir(std::path::PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        let dir = std::env::temp_dir().join(format!("tsb-alloc-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        TempDir(dir)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Writes through a durable one-shard engine at `dir`, checkpoints it (every
/// page on the device) and reads the directory back as a bare tree, whose
/// cache starts cold: the harness's way to a tree's internals.
fn write_then_read_back(dir: &TempDir, cfg: TsbConfig, write: impl FnOnce(&ShardedTsb)) -> TsbTree {
    let opts = TsbOptions::durable(&dir.0).config(cfg.with_fsync_policy(FsyncPolicy::Os));
    let db = opts.clone().open().unwrap();
    write(&db);
    db.checkpoint().unwrap();
    drop(db);
    opts.open_tree().unwrap()
}

#[test]
fn warm_small_key_get_current_allocates_nothing() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let keys = 200u64;
    let tree = build_engine(keys);
    // The tree must actually have grown an index level for the claim to
    // mean anything.
    let depth = tree.tree_stats().unwrap().depth;
    assert!(depth >= 2, "tree did not grow an index level");

    // Probe keys are built outside the measured section (Key::from_u64 is
    // allocation-free anyway, but the claim under test is the descent).
    let probes: Vec<Key> = (0..keys).map(Key::from_u64).collect();
    assert!(probes.iter().all(Key::is_inline));

    // Warm every current root-to-leaf path.
    for key in &probes {
        assert!(tree.get_current(key).unwrap().is_some());
    }

    let before = tree.io_snapshot();
    let (allocs, bytes) = count_allocations(|| {
        for key in &probes {
            assert!(tree.get_current(key).unwrap().is_some());
        }
    });
    let delta = tree.io_snapshot().delta_since(&before);

    // The sweep really was warm (pure cache hits, no decodes) …
    assert_eq!(delta.node_cache_misses, 0, "sweep was not warm");
    assert_eq!(delta.node_decodes, 0, "sweep was not warm");
    // … and it did not touch the heap at all.
    assert_eq!(
        (allocs, bytes),
        (0, 0),
        "warm get_current over {keys} small keys must not allocate"
    );
}

#[test]
fn warm_missing_key_lookup_allocates_nothing() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let tree = build_engine(150);
    let absent = Key::from_u64(5_000_000);
    // Warm the path the absent key routes through.
    assert!(tree.get_current(&absent).unwrap().is_none());
    let (allocs, bytes) = count_allocations(|| {
        for _ in 0..64 {
            assert!(tree.get_current(&absent).unwrap().is_none());
        }
    });
    assert_eq!(
        (allocs, bytes),
        (0, 0),
        "missing-key lookups must not allocate"
    );
}

/// A historical leaf that misses the decoded-node cache is taken over as it
/// came off the device: the read's buffer becomes the node's body, and the
/// only other allocations are the offset table and the `Arc` the cache
/// holds. With a `Vec<u8>` per value the same miss allocated once per entry
/// (33 times for a 31-entry leaf).
#[test]
fn historical_leaf_miss_allocates_at_most_four_times() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    // Engine-default 4 KiB pages: about 30 versions to a leaf.
    let cfg = TsbConfig::default().with_node_cache_entries(4096);
    let dir = TempDir::new("historical-miss");
    let mut stamps = Vec::new();
    let tree = write_then_read_back(&dir, cfg, |db| {
        for generation in 0..80u8 {
            for k in 0..50u64 {
                stamps.push(db.insert(Key::from_u64(k), vec![generation; 100]).unwrap());
            }
        }
    });
    let key = Key::from_u64(17);
    let ts = stamps[stamps.len() / 4];
    let leaf = *tree.lookup_path(&key, ts).unwrap().last().unwrap();
    assert!(
        leaf.is_historical(),
        "the probe must land in migrated history"
    );
    let entries = tree
        .read_node_bypass(leaf)
        .unwrap()
        .as_data()
        .expect("a lookup path ends at a leaf")
        .len();
    assert!(entries >= 20, "leaf holds only {entries} entries");

    // Warm: the only allocation is the value handed to the caller.
    assert!(tree.get_as_of(&key, ts).unwrap().is_some());
    let (warm, _) = count_allocations(|| {
        assert!(tree.get_as_of(&key, ts).unwrap().is_some());
    });

    tree.invalidate_cached_node(leaf).unwrap();
    let before = tree.io_stats().snapshot();
    let (miss, _) = count_allocations(|| {
        assert!(tree.get_as_of(&key, ts).unwrap().is_some());
    });
    let delta = tree.io_stats().snapshot().delta_since(&before);
    assert_eq!(delta.node_decodes, 1, "exactly the dropped leaf is decoded");
    assert!(
        miss - warm <= 4,
        "a {entries}-entry historical leaf miss allocated {} times beyond the warm lookup's {warm}",
        miss - warm
    );
}

/// A current leaf that misses the node cache costs what a historical one
/// does: the page read's buffer becomes the node's body — the page's length
/// header is shifted out in place, not copied into a second buffer — and
/// the only other allocations are the offset table and the cache's `Arc`.
#[test]
fn current_leaf_miss_allocates_at_most_three_times() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let cfg = TsbConfig::default().with_node_cache_entries(4096);
    let dir = TempDir::new("current-miss");
    // Every page on the device.
    let tree = write_then_read_back(&dir, cfg, |db| {
        for k in 0..1000u64 {
            db.insert(Key::from_u64(k), Vec::new()).unwrap();
        }
    });
    let key = Key::from_u64(417);
    let leaf = *tree
        .lookup_path(&key, Timestamp::MAX)
        .unwrap()
        .last()
        .unwrap();
    assert!(leaf.is_current(), "the probe must land in a current leaf");

    assert!(tree.get_current(&key).unwrap().is_some());
    let (warm, _) = count_allocations(|| {
        assert!(tree.get_current(&key).unwrap().is_some());
    });

    tree.invalidate_cached_node(leaf).unwrap();
    let before = tree.io_stats().snapshot();
    let (miss, _) = count_allocations(|| {
        assert!(tree.get_current(&key).unwrap().is_some());
    });
    let delta = tree.io_stats().snapshot().delta_since(&before);
    assert_eq!(delta.node_decodes, 1, "exactly the dropped leaf is decoded");
    assert_eq!(delta.magnetic_reads, 1, "from one page read");
    assert!(
        miss - warm <= 3,
        "a current leaf miss allocated {} times beyond the warm lookup's {warm}",
        miss - warm
    );
}
