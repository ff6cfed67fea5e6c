//! Allocation guard for the static analysis: the compile of the 100
//! standing XMark queries (the `xmark-multiquery` registry at N = 100) and
//! the matcher builds of its states, counted by a global allocator. A
//! compile that allocates per state or per query again shows here as a
//! count, not as drift in a timing.
//!
//! Run alone: `cargo test -q --test compile_alloc`.

#[allow(dead_code)] // no documents are generated here
mod common;

use smpx_bench::queries::standing_path_sets;
use smpx_core::compile::compile_multi_with_counts;
use smpx_core::Prefilter;
use smpx_dtd::Dtd;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Counts the allocations (fresh blocks and growths) of the thread that
/// makes them, so the test harness's other threads do not add to it.
struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every call is forwarded unchanged to the system allocator; the
// counter is a const-initialised thread-local without a destructor, so
// touching it never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocations<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let r = f();
    (r, ALLOCATIONS.with(Cell::get) - before)
}

#[test]
fn standing_100_compile_allocates_a_bounded_count() {
    let dtd = Dtd::parse(smpx_datagen::xmark::XMARK_DTD.as_bytes()).expect("XMark DTD");
    let queries = standing_path_sets(&dtd, 100);
    let (tables, compile) =
        allocations(|| compile_multi_with_counts(&dtd, &queries).expect("compile").0);
    let states = tables.state_count();
    let (_, matchers) = allocations(|| Prefilter::from_tables(tables).precompile_matchers());
    eprintln!("{states} states: {compile} allocations to compile, {matchers} to build matchers");
    // Before the compile allocated per state and per query: 40.2 k and
    // 5.7 k. Now about 3.0 k (the tables themselves, and one position-mask
    // array per query) and 4.0 k (the matchers' own tables).
    assert!(compile <= 3_500, "{compile} allocations to compile");
    assert!(matchers <= 4_500, "{matchers} allocations to build matchers");
    assert!(compile + matchers <= 47_000 / 4);
}
