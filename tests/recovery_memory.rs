//! Reopen memory is bounded by the data, not by the log.
//!
//! This binary installs a `GlobalAlloc` (wrapping the system allocator)
//! that tracks *live* heap bytes — added on allocation, removed on
//! deallocation — and their peak. It writes a redo log many times larger
//! than the data it describes (a few thousand keys, overwritten round
//! after round, with no checkpoint after the first), drops the engine
//! without a checkpoint, and reopens it: recovery reads the log back a
//! chunk at a time and folds it fence by fence, so the peak live heap
//! during the reopen must stay a small fraction of the log.
//!
//! The test lives in its own integration-test binary so the global
//! allocator hook does not interfere with any other test.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use tsb_common::{FsyncPolicy, Key};
use tsb_core::{EngineHandle, TsbOptions};

/// Tracks live heap bytes and their peak; delegates to [`System`].
struct TrackingAlloc;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

fn shrank(bytes: usize) {
    LIVE.fetch_sub(bytes, Ordering::Relaxed);
}

unsafe impl GlobalAlloc for TrackingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            grew(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        shrank(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let moved = System.realloc(ptr, layout, new_size);
        if !moved.is_null() {
            if new_size >= layout.size() {
                grew(new_size - layout.size());
            } else {
                shrank(layout.size() - new_size);
            }
        }
        moved
    }
}

#[global_allocator]
static ALLOC: TrackingAlloc = TrackingAlloc;

const KEYS: u64 = 2_000;
const VALUE_BYTES: usize = 1_500;
const LOG_BYTES: u64 = 40 << 20;

fn value(key: u64, round: u64) -> Vec<u8> {
    let mut value = vec![(key ^ round) as u8; VALUE_BYTES];
    value[..8].copy_from_slice(&key.to_le_bytes());
    value[8..16].copy_from_slice(&round.to_le_bytes());
    value
}

#[test]
fn reopening_a_long_log_holds_a_heap_bounded_by_the_data_not_the_log() {
    let dir = std::env::temp_dir().join(format!("tsb-recovery-memory-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let open = || TsbOptions::durable(&dir).fsync(FsyncPolicy::Os).open();
    let log = dir.join("redo.wal");
    let log_len = || std::fs::metadata(&log).unwrap().len();

    let mut rounds = 0;
    {
        let tree = open().unwrap();
        while log_len() < LOG_BYTES {
            for key in 0..KEYS {
                tree.insert(Key::from_u64(key), value(key, rounds)).unwrap();
            }
            rounds += 1;
        }
        // Dropped without a checkpoint: the reopen replays the whole log.
    }
    let log_bytes = log_len();

    let before = LIVE.load(Ordering::SeqCst);
    PEAK.store(before, Ordering::SeqCst);
    let tree = open().unwrap();
    let peak = PEAK.load(Ordering::SeqCst) - before;
    eprintln!("reopening a {log_bytes}-byte log peaked at {peak} live heap bytes");
    assert!(
        (peak as u64) < log_bytes / 4,
        "reopening a {log_bytes}-byte log peaked at {peak} live heap bytes"
    );

    for key in 0..KEYS {
        let got = tree.get_current(&Key::from_u64(key)).unwrap();
        assert_eq!(got, Some(value(key, rounds - 1)), "key {key}");
    }
    drop(tree);
    let _ = std::fs::remove_dir_all(&dir);
}
