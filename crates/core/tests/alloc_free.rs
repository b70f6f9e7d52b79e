//! Pins the predictor's warm-path allocation contract at the core level:
//! once an [`IncrementalFluid`] built `with_capacity` has reached its
//! steady state, arrivals and departures reuse node slots and allocate
//! nothing, and a `rebuild` (the circuit breaker's self-heal) keeps the
//! capacity the columns had, so the warm deltas after it allocate nothing
//! either. A counting `#[global_allocator]` makes that a hard test; the
//! service-level gates are in `crates/pi/tests/alloc_free.rs`.

// Test code: unwrap/expect on known-good fixtures is fine here.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::alloc::{GlobalAlloc, Layout, System as SystemAlloc};
use std::cell::Cell;

use mqpi_core::IncrementalFluid;

/// Counts the allocations of the calling thread (the harness runs tests on
/// parallel threads). Frees are not counted.
struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
        unsafe { SystemAlloc.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { SystemAlloc.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
        unsafe { SystemAlloc.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

const POP: u64 = 512;

/// One arrival and one departure: the resident population stays put.
fn cycle(f: &mut IncrementalFluid, next: &mut u64) {
    f.arrive(*next, 100.0 + (*next % 7) as f64, 1.0 + (*next % 3) as f64);
    assert!(f.finish(*next - POP));
    *next += 1;
}

#[test]
fn warm_arrive_finish_allocates_nothing_before_and_after_rebuild() {
    let mut f = IncrementalFluid::with_capacity(100.0, 4 * POP as usize);
    for id in 0..POP {
        f.arrive(id, 100.0 + (id % 7) as f64, 1.0 + (id % 3) as f64);
    }
    let mut next = POP;
    for _ in 0..POP {
        cycle(&mut f, &mut next);
    }

    let before = allocs();
    for _ in 0..1_000 {
        cycle(&mut f, &mut next);
    }
    assert_eq!(allocs() - before, 0, "warm arrive + finish allocated");

    assert_eq!(f.rebuild(), 0);
    let before = allocs();
    for _ in 0..1_000 {
        cycle(&mut f, &mut next);
    }
    let during = allocs() - before;
    assert_eq!(
        during, 0,
        "warm arrive + finish after a rebuild allocated {during} times"
    );
    assert_eq!(f.len(), POP as usize);
}
