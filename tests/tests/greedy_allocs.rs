//! Pins the greedy engine's allocations: each candidate sort keeps running
//! column counts, and a placement, move or merge is scored in a reused
//! scratch buffer, so a solve allocates per sort and per pass, not per
//! candidate it scores. This suite is a test binary of its own because it
//! replaces the global allocator with a counting one.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use strudel_core::prelude::*;
use strudel_datagen::dbpedia_persons_scaled;

struct Counting;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every call forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the counter is an atomic
// and allocates nothing.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

#[test]
fn a_greedy_solve_allocates_per_sort_not_per_candidate() {
    let view = dbpedia_persons_scaled(40);
    let (spec, theta) = (SigmaSpec::Coverage, Ratio::new(7, 10));
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let outcome = GreedyEngine::new().refine(&view, &spec, 3, theta).unwrap();
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;
    assert!(
        outcome.refinement().is_some(),
        "greedy reaches θ = 7/10 with 3 sorts"
    );
    assert!(
        allocations < 1000,
        "greedy on DBpedia 1/40 (Cov, k = 3, θ = 7/10) made {allocations} allocations"
    );
}
