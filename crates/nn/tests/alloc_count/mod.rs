//! Allocation counting shared by the allocation-free warm-path suites
//! (`no_alloc_infer`, `profiler_off`).
//!
//! A counting global allocator wraps the system one. Counts are kept per
//! thread, so the test harness's own threads (result reporting, spawning
//! the next test) can never land inside a measurement window. That alone
//! would miss work handed to another thread, so [`allocations_during`]
//! also asserts that no job reached the rayon pool during the window: the
//! count then covers *all* work done for the measured closure. The suites
//! size their networks below `PARALLEL_FLOP_THRESHOLD`, where the kernels
//! never dispatch to the pool, so both assertions are exact on any host.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::{Mutex, MutexGuard};

struct CountingAlloc;

thread_local! {
    /// Heap allocations (including reallocations) made by this thread.
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

fn count_one() {
    ALLOCATIONS.with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`, so
// the `GlobalAlloc` contract the caller upholds for this allocator is the
// one `System` requires; counting touches only a thread-local `Cell`.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: the caller's `layout` contract is forwarded as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        // SAFETY: `ptr` came from `System` with `layout`; forwarded as is.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Serializes a binary's tests: the pool counters behind the no-job
/// assertion are process-global, so one test's pool work must not fall
/// inside another's window. Hold the guard for the whole test body.
pub fn serial() -> MutexGuard<'static, ()> {
    static SERIAL: Mutex<()> = Mutex::new(());
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

/// Runs `f` and returns the number of heap allocations it made, asserting
/// that no job was pushed to or injected into the rayon pool meanwhile (so
/// no other thread did work on `f`'s behalf).
pub fn allocations_during(f: impl FnOnce()) -> usize {
    // Read once before the window: the first read starts the pool.
    let mut pool = rayon::pool_stats();
    let before = ALLOCATIONS.with(Cell::get);
    f();
    let after = ALLOCATIONS.with(Cell::get);
    let jobs = rayon::pool_stats_delta(&mut pool);
    assert_eq!(jobs.total_pushes(), 0, "the measured work dispatched pool jobs: {jobs:?}");
    after - before
}
