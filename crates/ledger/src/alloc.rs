//! A counting global allocator: the machine-independent column.
//!
//! Allocations and bytes per datagram, per frame or per message repeat
//! across hosts where nanoseconds do not. The `ledger` binary installs
//! [`CountingAlloc`] as its `#[global_allocator]`; counting is off until a
//! traced run switches it on, so an untraced run pays one relaxed load
//! per allocation.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

// Statistics only: none of these publishes other data, hence `Relaxed`.
static ENABLED: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

/// Forwards to the system allocator, counting calls and bytes while
/// [`set_counting`] is on.
#[derive(Debug, Clone, Copy, Default)]
pub struct CountingAlloc;

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counters touch no
// allocator state.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: forwarded caller contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: forwarded caller contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: forwarded caller contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded caller contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[inline]
fn count(bytes: usize) {
    if ENABLED.load(Ordering::Relaxed) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
    }
}

/// Switches counting on or off (process-wide).
pub fn set_counting(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Cumulative `(allocations, bytes)` counted so far. Both stay 0 in a
/// process that did not install [`CountingAlloc`].
pub fn counts() -> (u64, u64) {
    (
        ALLOCS.load(Ordering::Relaxed),
        BYTES.load(Ordering::Relaxed),
    )
}

/// The allocations `f` (and every other thread) performed while it ran,
/// with its result. Counting must already be on.
pub fn counted<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = counts().0;
    let out = f();
    (out, counts().0 - before)
}
