//! Allocation guard for the static analysis: the XMark DTD's parse and
//! DTD-automaton build, the XM5 compile from a freshly parsed DTD (its
//! schema analysis included) and its matchers, and the compile of the 100
//! standing XMark queries (the `xmark-multiquery` registry at N = 100) and
//! the matcher builds of its states, counted by a global allocator. A
//! front end that allocates per name or per declaration, a builder that
//! allocates per content-model position or per instance, or a compile that
//! allocates per state or per query again shows here as a count, not as
//! drift in a timing. The matcher builds are pinned too: one per distinct
//! vocabulary.
//!
//! Run alone: `cargo test -q --test compile_alloc`.

#[allow(dead_code)] // no documents are generated here
mod common;

use smpx_bench::queries::{standing_path_sets, xmark_paths, XMARK_QUERIES};
use smpx_core::compile::{compile_multi_with_counts, compile_with_counts};
use smpx_core::Prefilter;
use smpx_dtd::{Dtd, DtdAutomaton};
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
    let mut pf = Prefilter::from_tables(tables);
    let (_, matchers) = allocations(|| pf.precompile_matchers());
    eprintln!("{states} states: {compile} allocations to compile, {matchers} to build matchers");
    // One matcher per distinct vocabulary.
    assert_eq!((states, pf.matchers_built()), (251, 111));
    // Before the compile allocated per state and per query: 40.2 k and
    // 5.7 k. Now about 3.0 k (the tables themselves, and one position-mask
    // array per query) and 4.0 k (the matchers' own tables).
    assert!(compile <= 3_500, "{compile} allocations to compile");
    assert!(matchers <= 4_500, "{matchers} allocations to build matchers");
    assert!(compile + matchers <= 47_000 / 4);
}

#[test]
fn xmark_dtd_parses_and_expands_in_a_bounded_count() {
    let text = smpx_datagen::xmark::XMARK_DTD.as_bytes();
    let (dtd, parse) = allocations(|| Dtd::parse(text).expect("XMark DTD"));
    let (auto, build) =
        allocations(|| DtdAutomaton::build_allow_recursion(&dtd).expect("automaton"));
    eprintln!("{parse} allocations to parse, {build} to build {} states", auto.state_count());
    // Before the id-based front end: 434 (a `String` per name mention and
    // per content-model node) and 942 (an `Rc`'d wiring, `BTreeSet`s and
    // `String` labels per element, a `Vec` per instance's children).
    assert!(parse <= 60, "{parse} allocations to parse");
    assert!(build <= 25, "{build} allocations to build the automaton");
}

#[test]
fn xm5_compile_from_a_fresh_dtd_allocates_a_bounded_count() {
    let dtd = Dtd::parse(smpx_datagen::xmark::XMARK_DTD.as_bytes()).expect("XMark DTD");
    let q = XMARK_QUERIES.iter().find(|q| q.id == "XM5").expect("Table I query");
    let paths = xmark_paths(q);
    // The first compile from a DTD builds its analysis (automaton,
    // minimal lengths, tag universe); it is counted here.
    let (tables, compile) = allocations(|| compile_with_counts(&dtd, &paths).expect("compile").0);
    let states = tables.state_count();
    let vocabularies = tables.vocabularies();
    let mut pf = Prefilter::from_tables(tables);
    let (_, matchers) = allocations(|| pf.precompile_matchers());
    eprintln!(
        "XM5: {states} states, {vocabularies} vocabularies: {compile} allocations to compile, \
         {matchers} to build matchers"
    );
    assert_eq!(pf.matchers_built(), vocabularies);
    // About 1,205 before (942 of them the automaton build).
    assert!(compile + matchers <= 250, "{compile} + {matchers} allocations");
    // A second compile reads the same analysis.
    let (_, again) = allocations(|| compile_with_counts(&dtd, &paths).expect("compile"));
    assert!(again < compile, "{again} allocations to compile again");
}

#[test]
fn matchers_are_built_once_per_vocabulary() {
    let dtd = Dtd::parse(smpx_datagen::xmark::XMARK_DTD.as_bytes()).expect("XMark DTD");
    let mut got = Vec::new();
    for n in [1, 10, 100] {
        let queries = standing_path_sets(&dtd, n);
        let mut pf = Prefilter::compile_multi(&dtd, &queries).expect("compile");
        pf.precompile_matchers();
        got.push((format!("N={n}"), pf.tables().state_count(), pf.matchers_built()));
    }
    for id in ["XM5", "XM13", "XM7", "XM14"] {
        let q = XMARK_QUERIES.iter().find(|q| q.id == id).expect("Table I query");
        let mut pf = Prefilter::compile(&dtd, &xmark_paths(q)).expect("compile");
        pf.precompile_matchers();
        got.push((id.to_string(), pf.tables().state_count(), pf.matchers_built()));
    }
    let want = [
        ("N=1", 13, 12),
        ("N=10", 53, 40),
        ("N=100", 251, 111),
        ("XM5", 9, 8),
        ("XM13", 13, 12),
        ("XM7", 11, 9),
        ("XM14", 9, 8),
    ];
    let want: Vec<(String, usize, usize)> =
        want.iter().map(|&(c, s, m)| (c.to_string(), s, m)).collect();
    // (command, states, matchers built): one build per state before.
    assert_eq!(got, want);
}
