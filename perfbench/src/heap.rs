//! Live heap bytes and their peak, counted by the process's global
//! allocator.
//!
//! `mem_peak_mb` is the peak of the bytes the process holds allocated, not
//! of its RSS: the RSS a run retains depends on how glibc's heap happened
//! to be laid out by the order in which threads allocated and freed, and
//! on the development host the RSS peak of the same `frames_small` load
//! read 36–57 MB from one process to the next. Counting every allocation
//! and free gives the memory the program holds, whatever the allocator
//! keeps around it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// The system allocator, counting live bytes and their peak.
pub struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

#[global_allocator]
static ALLOCATOR: Counting = Counting;

fn grew(by: usize) {
    let now = LIVE.fetch_add(by, Ordering::Relaxed) + by;
    // Most allocations stay below the peak; only a new peak writes it.
    if now > PEAK.load(Ordering::Relaxed) {
        PEAK.fetch_max(now, Ordering::Relaxed);
    }
}

fn shrank(by: usize) {
    LIVE.fetch_sub(by, Ordering::Relaxed);
}

// SAFETY: every call is forwarded unchanged to `System`; the counters
// only observe the sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        shrank(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            if new_size > layout.size() {
                grew(new_size - layout.size());
            } else {
                shrank(layout.size() - new_size);
            }
        }
        p
    }
}

/// Bytes currently allocated.
pub fn live_bytes() -> usize {
    LIVE.load(Ordering::Relaxed)
}

/// The most bytes allocated at once since the last call; the next window
/// starts at the bytes allocated now.
pub fn take_peak() -> usize {
    PEAK.swap(live_bytes(), Ordering::Relaxed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_peak_covers_a_freed_allocation() {
        take_peak();
        let v: Vec<u8> = Vec::with_capacity(64 << 20);
        drop(std::hint::black_box(v));
        // Other test threads allocate and free too, so only bound it
        // by what this one held.
        assert!(take_peak() >= 64 << 20);
    }
}
