//! Counting global allocator for the traced binary.
//!
//! Counters are thread-local: the deterministic backend runs every task
//! on the calling thread, so the counts are exactly the work one trial
//! did, and nothing another thread allocates (a test harness, the
//! standard library's own helpers) leaks into them. Only
//! `perfbench-traced` installs the allocator; in the untraced binary the
//! counters stay at zero and cost nothing.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
    static LIVE: Cell<i64> = const { Cell::new(0) };
}

/// The system allocator plus per-thread allocation counters.
pub struct CountingAlloc;

fn note(allocs: u64, bytes: u64, live: i64) {
    // `try_with`: the counters have no destructor, but an allocation
    // during thread teardown must never panic inside the allocator.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + allocs));
    let _ = BYTES.try_with(|c| c.set(c.get() + bytes));
    let _ = LIVE.try_with(|c| c.set(c.get() + live));
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the counters touch no
// memory the allocator hands out.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(1, layout.size() as u64, layout.size() as i64);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(1, layout.size() as u64, layout.size() as i64);
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        note(0, 0, -(layout.size() as i64));
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(1, new_size as u64, new_size as i64 - layout.size() as i64);
        System.realloc(ptr, layout, new_size)
    }
}

/// This thread's allocation counters at one instant.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AllocSnapshot {
    /// Allocations (a `realloc` counts as one).
    pub allocs: u64,
    /// Bytes requested by those allocations.
    pub bytes: u64,
    /// Bytes allocated and not yet freed on this thread.
    pub live: i64,
}

impl AllocSnapshot {
    /// Reads this thread's counters.
    pub fn now() -> Self {
        AllocSnapshot {
            allocs: ALLOCS.with(Cell::get),
            bytes: BYTES.with(Cell::get),
            live: LIVE.with(Cell::get),
        }
    }

    /// Counts accumulated since `earlier`.
    pub fn since(self, earlier: AllocSnapshot) -> AllocSnapshot {
        AllocSnapshot {
            allocs: self.allocs - earlier.allocs,
            bytes: self.bytes - earlier.bytes,
            live: self.live - earlier.live,
        }
    }
}
