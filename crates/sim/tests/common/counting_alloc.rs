//! A global allocator that counts the allocations of the measuring
//! thread, for the no-allocation window tests. A test binary installs it
//! by including this file (`#[path = "common/counting_alloc.rs"] mod
//! counting_alloc;`).
//!
//! The counter only ticks while the measuring thread raises a
//! thread-local flag: libtest's harness threads share the process
//! allocator and allocate at unpredictable moments, which would otherwise
//! fail the window spuriously. Each including file holds a single test
//! for the same reason.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    // Const-initialised `Cell<bool>` has no destructor and no lazy
    // registration, so reading it inside the allocator never allocates.
    static MEASURING: Cell<bool> = const { Cell::new(false) };
}

struct Counting;

// SAFETY: delegates directly to the system allocator; the counter is a
// relaxed atomic with no other side effects. `try_with` (not `with`)
// keeps late allocations during thread teardown from panicking.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if MEASURING.try_with(Cell::get).unwrap_or(false) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if MEASURING.try_with(Cell::get).unwrap_or(false) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static COUNTER: Counting = Counting;

/// Runs `f`, returning its result and the number of allocations and
/// reallocations this thread made inside it.
pub fn allocations_in<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = ALLOCS.load(Ordering::Relaxed);
    MEASURING.with(|m| m.set(true));
    let out = f();
    MEASURING.with(|m| m.set(false));
    (out, ALLOCS.load(Ordering::Relaxed) - before)
}
