//! A counting `#[global_allocator]`: forwards to the system allocator and,
//! only while enabled (`--trace 1`), counts calls and bytes. End-to-end runs
//! pay one relaxed load per allocation.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};

pub struct Counting;

// Statistics only: they publish no other data, so `Relaxed` suffices.
static ENABLED: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

fn count(bytes: usize) {
    if ENABLED.load(Relaxed) {
        ALLOCS.fetch_add(1, Relaxed);
        BYTES.fetch_add(bytes as u64, Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters touch no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's `layout` obligations pass through as they are.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: `ptr`/`layout` came from `System`; `new_size` is the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

pub fn set_enabled(on: bool) {
    ENABLED.store(on, Relaxed);
}

/// `(allocation calls, bytes requested)` counted so far.
pub fn snapshot() -> (u64, u64) {
    (ALLOCS.load(Relaxed), BYTES.load(Relaxed))
}

#[cfg(test)]
mod tests {
    use super::*;

    // The only test that toggles the process-wide flag, so parallel test
    // threads cannot race on it; other threads' allocations only add.
    #[test]
    fn counts_only_while_enabled() {
        let (a0, _) = snapshot();
        drop(std::hint::black_box(vec![0u8; 4096]));
        let (a1, _) = snapshot();
        assert_eq!(a0, a1, "disabled allocator must not count");

        set_enabled(true);
        let (a2, b2) = snapshot();
        drop(std::hint::black_box(vec![0u8; 4096]));
        let (a3, b3) = snapshot();
        set_enabled(false);
        assert!(a3 > a2);
        assert!(b3 - b2 >= 4096);
    }
}
