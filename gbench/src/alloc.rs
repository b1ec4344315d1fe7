//! The counting allocator behind `alloc_bytes_per_frame`, `peak_heap_mb`
//! and the per-span allocation bytes of the traced run.
//!
//! It wraps [`System`] and keeps three process-wide counters: bytes ever
//! allocated, bytes live now, and the highest live value since the last
//! [`reset_peak`]. The program's own `host-prof` feature installs a
//! second global allocator, so this crate must never enable it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCATED: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);

/// [`System`] plus byte accounting. The counters are statistics that
/// publish no other data, so every access is `Relaxed`.
pub struct CountingAlloc;

fn grow(bytes: u64) {
    ALLOCATED.fetch_add(bytes, Ordering::Relaxed);
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

fn shrink(bytes: u64) {
    LIVE.fetch_sub(bytes, Ordering::Relaxed);
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged and only updates atomics afterwards, so `System`'s contract
// is the whole contract; the accounting never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded verbatim; the caller upholds `alloc`'s contract.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grow(layout.size() as u64);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded verbatim; the caller upholds `alloc_zeroed`'s contract.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            grow(layout.size() as u64);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded verbatim; `ptr` came from this allocator.
        unsafe { System.dealloc(ptr, layout) };
        shrink(layout.size() as u64);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: forwarded verbatim; the caller upholds `realloc`'s contract.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            let old = layout.size() as u64;
            let new = new_size as u64;
            // A grown block counts its new tail as allocated bytes, the
            // same rule the program's own host profiler uses.
            if new > old {
                grow(new - old);
            } else {
                shrink(old - new);
            }
        }
        p
    }
}

/// Bytes allocated since the process started (frees do not subtract).
pub fn allocated() -> u64 {
    ALLOCATED.load(Ordering::Relaxed)
}

/// Bytes live right now.
pub fn live() -> u64 {
    LIVE.load(Ordering::Relaxed)
}

/// Highest live value since the last [`reset_peak`].
pub fn peak() -> u64 {
    PEAK.load(Ordering::Relaxed)
}

/// Restarts peak tracking from the current live value.
pub fn reset_peak() {
    PEAK.store(live(), Ordering::Relaxed);
}
