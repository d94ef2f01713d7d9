//! A counting global allocator (the pattern of `tests/alloc_free_descent.rs`)
//! gated by a flag, so that it costs one relaxed load per allocation when
//! off. Load-generator threads mark themselves exempt: what they allocate to
//! build requests and check replies is the benchmark's, not the program's.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

struct CountingAlloc;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static ALLOCATED_BYTES: AtomicU64 = AtomicU64::new(0);

thread_local! {
    // Const-initialised and without a destructor, so reading it from inside
    // the allocator never allocates and never observes a torn-down slot.
    static EXEMPT: Cell<bool> = const { Cell::new(false) };
}

fn count(bytes: usize) {
    if COUNTING.load(Ordering::Relaxed) && !EXEMPT.try_with(Cell::get).unwrap_or(true) {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        ALLOCATED_BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counting touches only atomics and
// a `Cell<bool>` thread-local and cannot allocate or unwind.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's obligations are passed on unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: the caller's obligations are passed on unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Marks the calling thread as a load generator (its allocations are not
/// counted) or, with `false`, as running the program under test.
pub fn set_exempt(exempt: bool) {
    EXEMPT.with(|e| e.set(exempt));
}

/// Runs `f` as the program under test even on a load-generator thread: an
/// in-process engine call is the program's work.
pub fn counted<T>(f: impl FnOnce() -> T) -> T {
    let was = EXEMPT.with(|e| e.replace(false));
    let out = f();
    EXEMPT.with(|e| e.set(was));
    out
}

pub fn set_counting(on: bool) {
    COUNTING.store(on, Ordering::SeqCst);
}

/// `(allocations, bytes)` counted so far.
pub fn totals() -> (u64, u64) {
    (
        ALLOCATIONS.load(Ordering::SeqCst),
        ALLOCATED_BYTES.load(Ordering::SeqCst),
    )
}
