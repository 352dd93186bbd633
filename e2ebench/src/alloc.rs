//! Byte- and call-counting global allocator.
//!
//! Wraps the system allocator and keeps three relaxed atomics: allocation
//! calls, live bytes, and the live-byte high-water since the last
//! [`reset_peak`]. The counters publish no other data, so `Relaxed` is
//! enough; the peak is exact for a single thread and exact up to the
//! interleaving of concurrent updates for several.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static CALLS: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);

/// System allocator wrapper that counts calls and tracks live bytes.
pub struct Counting;

fn grow(bytes: usize) {
    let live = LIVE.fetch_add(bytes as u64, Ordering::Relaxed) + bytes as u64;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

fn shrink(bytes: usize) {
    LIVE.fetch_sub(bytes as u64, Ordering::Relaxed);
}

// SAFETY: every method defers to `System` with the caller's arguments
// unchanged; the counters never touch the returned memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            CALLS.fetch_add(1, Ordering::Relaxed);
            grow(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            CALLS.fetch_add(1, Ordering::Relaxed);
            grow(layout.size());
        }
        p
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            CALLS.fetch_add(1, Ordering::Relaxed);
            if new_size >= layout.size() {
                grow(new_size - layout.size());
            } else {
                shrink(layout.size() - new_size);
            }
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        shrink(layout.size());
    }
}

/// Allocation calls so far (alloc, alloc_zeroed and realloc).
pub fn calls() -> u64 {
    CALLS.load(Ordering::Relaxed)
}

/// Restarts the high-water mark at the current live size and returns that
/// size, the baseline a later [`peak_since`] subtracts.
pub fn reset_peak() -> u64 {
    let live = LIVE.load(Ordering::Relaxed);
    PEAK.store(live, Ordering::Relaxed);
    live
}

/// Live-heap high-water above `baseline` since the matching [`reset_peak`],
/// in bytes.
pub fn peak_since(baseline: u64) -> u64 {
    PEAK.load(Ordering::Relaxed).saturating_sub(baseline)
}
