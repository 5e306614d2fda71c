//! A poll allocates nothing: the task's
//! waker is built once at spawn and the ready queue reuses its buffers.
//!
//! This binary installs a counting global allocator, so it holds this
//! one test only; counts are per thread, so the harness's own threads
//! do not disturb them.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use pathways_sim::Sim;

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: every call forwards to `System` unchanged; the counter is a
// const-initialised thread-local `Cell` with no destructor, so touching
// it never allocates or re-enters the allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` via `alloc`/`realloc` above.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

/// Allocations made while running one task that yields `yields` times.
fn run_allocs(yields: u32) -> (u64, u64) {
    let mut sim = Sim::new(0);
    let h = sim.handle();
    sim.spawn("yielder", async move {
        for _ in 0..yields {
            h.yield_now().await;
        }
    });
    let before = allocs();
    sim.run_to_quiescence();
    (allocs() - before, sim.poll_count())
}

#[test]
fn yielding_task_allocates_nothing_per_poll() {
    let (few, few_polls) = run_allocs(10);
    let (many, many_polls) = run_allocs(10_000);
    assert_eq!(few_polls, 11);
    assert_eq!(many_polls, 10_001);
    assert_eq!(
        many,
        few,
        "10 000 extra polls made {} extra allocations",
        many as i64 - few as i64
    );
}
