//! Guards the allocation-free steady state of the simulation hot path.
//!
//! A counting global allocator measures heap activity across a window of
//! `step()` calls after a warm-up period. Once every scratch buffer has
//! grown to its working-set size, a closed-network simulation must not
//! touch the allocator at all — overtake detection, lane insertion, routing,
//! and event emission all run on reused buffers.
//!
//! This is the only test in this file on purpose: the allocator counts
//! process-wide, so a concurrently running test would pollute the window.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use vcount_roadnet::builders::grid;
use vcount_traffic::{Demand, SimConfig, Simulator};

static ALLOCS: AtomicU64 = AtomicU64::new(0);

struct Counting;

// SAFETY: delegates directly to the system allocator; the counter is a
// relaxed atomic with no other side effects.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static COUNTER: Counting = Counting;

#[test]
fn steady_state_step_does_not_allocate() {
    // Overtake-heavy configuration: multi-lane closed grid, heterogeneous
    // speeds, detection on. Same shape as the bench cases.
    let net = grid(5, 5, 150.0, 3, 10.0);
    let cfg = SimConfig {
        detect_overtakes: true,
        speed_factor_range: (0.5, 1.0),
        seed: 77,
        ..Default::default()
    };
    let mut sim = Simulator::new(net, cfg, Demand::at_volume(100.0));

    // Warm-up: grow event buffers, per-edge order snapshots, rank tables,
    // and merge scratch to their working-set sizes.
    let mut events = 0u64;
    for _ in 0..2500 {
        events += sim.step().len() as u64;
    }
    assert!(events > 0, "warm-up produced no events; test is vacuous");

    let before = ALLOCS.load(Ordering::Relaxed);
    let mut measured_events = 0u64;
    for _ in 0..400 {
        measured_events += sim.step().len() as u64;
    }
    let delta = ALLOCS.load(Ordering::Relaxed) - before;

    assert!(
        measured_events > 0,
        "measurement window produced no events; test is vacuous"
    );
    // Exactly zero is not achievable on any finite warm-up: a lane vector
    // reallocates whenever an edge sets a new record occupancy, and the
    // occupancy distribution has a long tail. What the refactor guarantees
    // is *amortized* zero — no allocation that recurs per step. The old
    // detector built a HashMap per edge per step (hundreds of allocations
    // every step); a handful over 400 steps is high-water-mark growth, not
    // a regression.
    assert!(
        delta <= 8,
        "hot path allocated {delta} times over 400 steady-state steps \
         ({measured_events} events) — a per-step allocation crept back in"
    );
}
