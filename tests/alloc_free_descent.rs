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

use tsb_common::{FsyncPolicy, Key, TsbConfig};
use tsb_core::{EngineHandle, ShardedTsb, TsbOptions};

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

/// The node cache of the serving engines the miss tests reopen: far
/// fewer entries than the tree has leaves, so it is full from recovery's
/// verify on, as a serving engine's is.
const SMALL_CACHE: usize = 16;

/// Writes through a durable one-shard engine at `dir`, checkpoints it (every
/// page on the device) and reopens the directory as an engine whose node
/// cache holds [`SMALL_CACHE`] nodes.
fn write_then_reopen(dir: &TempDir, write: impl FnOnce(&ShardedTsb)) -> ShardedTsb {
    let opts = TsbOptions::durable(&dir.0).fsync(FsyncPolicy::Os);
    let db = opts.clone().open().unwrap();
    write(&db);
    db.checkpoint().unwrap();
    drop(db);
    opts.config(TsbConfig::default().with_node_cache_entries(SMALL_CACHE))
        .fsync(FsyncPolicy::Os)
        .open()
        .unwrap()
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
/// (33 times for a 31-entry leaf). Measured in the serving state: the
/// engine's cache is full, so the fill also evicts a node.
#[test]
fn historical_leaf_miss_allocates_at_most_four_times() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    // Engine-default 4 KiB pages: about 30 versions to a leaf.
    let dir = TempDir::new("historical-miss");
    let mut stamps = Vec::new();
    let db = write_then_reopen(&dir, |db| {
        for generation in 0..80u8 {
            for k in 0..50u64 {
                stamps.push(db.insert(Key::from_u64(k), vec![generation; 100]).unwrap());
            }
        }
    });
    let census = db.tree_stats().unwrap();
    assert!(
        census.historical_data_nodes > 2 * SMALL_CACHE,
        "{} historical leaves do not overflow a {SMALL_CACHE}-node cache",
        census.historical_data_nodes
    );
    let key = Key::from_u64(17);
    let ts = stamps[stamps.len() / 4];

    // Warm: the only allocation is the value handed to the caller.
    assert!(db.get_as_of(&key, ts).unwrap().is_some());
    let (warm, _) = count_allocations(|| {
        assert!(db.get_as_of(&key, ts).unwrap().is_some());
    });

    // Reading every other key's history, version by version, evicts the
    // probed leaf.
    for (i, at) in stamps.iter().enumerate() {
        let k = i as u64 % 50;
        if k != 17 {
            db.get_as_of(&Key::from_u64(k), *at).unwrap();
        }
    }
    let before = db.io_snapshot();
    let (miss, _) = count_allocations(|| {
        assert!(db.get_as_of(&key, ts).unwrap().is_some());
    });
    let delta = db.io_snapshot().delta_since(&before);
    assert_eq!(delta.node_decodes, 1, "exactly the evicted leaf is decoded");
    assert!(
        miss - warm <= 4,
        "a historical leaf miss allocated {} times beyond the warm lookup's {warm}",
        miss - warm
    );
}

/// A current leaf that misses the node cache costs what a historical one
/// does: the page read's buffer becomes the node's body — the page's length
/// header is shifted out in place, not copied into a second buffer — and
/// the only other allocations are the offset table and the cache's `Arc`.
/// The node the fill evicts is handed back without a container of its own.
#[test]
fn current_leaf_miss_allocates_at_most_three_times() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let dir = TempDir::new("current-miss");
    let db = write_then_reopen(&dir, |db| {
        for k in 0..5000u64 {
            db.insert(Key::from_u64(k), Vec::new()).unwrap();
        }
    });
    let census = db.tree_stats().unwrap();
    assert!(
        census.current_data_nodes > 2 * SMALL_CACHE,
        "{} current leaves do not overflow a {SMALL_CACHE}-node cache",
        census.current_data_nodes
    );
    let key = Key::from_u64(417);

    assert!(db.get_current(&key).unwrap().is_some());
    let (warm, _) = count_allocations(|| {
        assert!(db.get_current(&key).unwrap().is_some());
    });

    // Every other key's read evicts the probed leaf.
    for k in (0..5000u64).filter(|k| *k != 417) {
        db.get_current(&Key::from_u64(k)).unwrap();
    }
    let before = db.io_snapshot();
    let (miss, _) = count_allocations(|| {
        assert!(db.get_current(&key).unwrap().is_some());
    });
    let delta = db.io_snapshot().delta_since(&before);
    assert_eq!(delta.node_decodes, 1, "exactly the evicted leaf is decoded");
    assert_eq!(delta.magnetic_reads, 1, "from one page read");
    assert!(
        miss - warm <= 3,
        "a current leaf miss allocated {} times beyond the warm lookup's {warm}",
        miss - warm
    );
}
