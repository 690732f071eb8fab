//! Pins the parser's allocations: a term the graph already holds is taken
//! as a slice of the line and found in the dictionary, so repeating a line
//! allocates nothing. This suite is a test binary of its own because it
//! replaces the global allocator with a counting one.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use strudel_rdf::ntriples::parse_ntriples;

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
fn repeating_a_line_allocates_nothing() {
    let doc =
        "<http://example.org/s> <http://example.org/p> <http://example.org/o> .\n".repeat(1000);
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let graph = parse_ntriples(&doc).expect("parses");
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;
    assert_eq!(graph.len(), 1);
    assert!(
        allocations < 100,
        "parsing 1 000 copies of one triple made {allocations} allocations"
    );
}
