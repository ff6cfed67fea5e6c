//! The contraction's gap search against the search state by state.
//!
//! The compile's contraction `D|S` crosses an instance with no selected
//! state inside as one edge costing the element's minimal length
//! (`MinLen::of`), where the search it replaced relaxed every state of the
//! interior. The two must find the same gaps — the initial jumps `J[q]`
//! rest on them — and the same final states, on every selection: the
//! generated DTD × path-set pairs of `tests/proptest_pipeline.rs` (alone
//! and as a two-query registry) and every analysis case (each query alone
//! and the registry of all of them).

#[allow(dead_code)] // no documents are generated here
mod common;

use common::{analysis_cases, random_dtd, random_paths, Rand};
use smpx_core::compile::contraction;
use smpx_dtd::{Dtd, DtdAutomaton, MinLen, StateId};
use smpx_paths::PathSet;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Minimal characters the skipped token of `v` adds to a gap, entered from
/// `u`: its minimal tag, or for a close entered straight from its own
/// skipped open the surplus of the bachelor tag over that open tag.
fn token_cost(auto: &DtdAutomaton, minlen: &MinLen, u: StateId, v: StateId) -> u64 {
    let name = auto.elem_name(v);
    if !auto.is_close(v) {
        return minlen.open_tag(name) as u64;
    }
    match minlen.bachelor(name) {
        Some(b) if u != StateId::Q0 && auto.dual(u) == v => (b - minlen.open_tag(name)) as u64,
        _ => minlen.close_tag(name) as u64,
    }
}

/// Dijkstra from `q` over every state: skipped states (outside `in_s`) are
/// relaxed one by one, in-`S` states end a path. Returns the gaps to the
/// in-`S` states reached, by target, and whether the document-final state
/// is reached through skipped states only.
fn reference(
    auto: &DtdAutomaton,
    minlen: &MinLen,
    in_s: &[bool],
    q: StateId,
) -> (Vec<(StateId, u32)>, bool) {
    let skipped = |v: StateId| !in_s[v.0 as usize];
    let mut dist = vec![u64::MAX; auto.state_count()];
    let mut heap = BinaryHeap::new();
    let doc_final = auto.final_state();
    let mut reaches_end = q == doc_final && skipped(doc_final);
    let mut relax = |dist: &mut Vec<u64>, heap: &mut BinaryHeap<_>, u, base, v: StateId| {
        let d = if skipped(v) { base + token_cost(auto, minlen, u, v) } else { base };
        reaches_end |= skipped(v) && v == doc_final;
        if d < dist[v.0 as usize] {
            dist[v.0 as usize] = d;
            if skipped(v) {
                heap.push(Reverse((d, v)));
            }
        }
    };
    for &t in auto.transitions(q) {
        relax(&mut dist, &mut heap, q, 0, t);
    }
    while let Some(Reverse((d, u))) = heap.pop() {
        if dist[u.0 as usize] == d {
            for &v in auto.transitions(u) {
                relax(&mut dist, &mut heap, u, d, v);
            }
        }
    }
    let gaps = auto
        .states()
        .filter(|&v| !skipped(v) && dist[v.0 as usize] != u64::MAX)
        .map(|v| (v, dist[v.0 as usize].min(u32::MAX as u64) as u32))
        .collect();
    (gaps, reaches_end)
}

/// The compile's contraction of `queries` equals the reference's on the
/// same selection. Returns the number of sources checked.
fn check(dtd: &Dtd, queries: &[PathSet], what: &str) -> usize {
    let auto = DtdAutomaton::build_allow_recursion(dtd).expect("automaton");
    let minlen = MinLen::compute_allow_recursion(dtd).expect("minimal lengths");
    let sources = contraction(dtd, queries).expect("compile");
    let mut in_s = vec![false; auto.state_count()];
    sources.iter().skip(1).for_each(|&(q, ..)| in_s[q.0 as usize] = true);
    for (q, trans, is_final) in &sources {
        let (gaps, reaches_end) = reference(&auto, &minlen, &in_s, *q);
        assert_eq!(trans, &gaps, "{what}: gaps from {:?}", auto.branch(*q));
        let want_final = *q == auto.final_state() || reaches_end;
        assert_eq!(*is_final, want_final, "{what}: final {:?}", auto.branch(*q));
    }
    sources.len()
}

#[test]
fn generated_selections_contract_to_the_state_by_state_gaps() {
    let mut sources = 0;
    for seed in 0..400 {
        let mut r = Rand::new(seed);
        let dtd = random_dtd(&mut r);
        let queries = [random_paths(&dtd, &mut r), random_paths(&dtd, &mut r)];
        sources += check(&dtd, &queries[..1], &format!("seed {seed}"));
        sources += check(&dtd, &queries, &format!("seed {seed}, registry"));
    }
    assert!(sources > 1000, "only {sources} sources checked");
}

#[test]
fn analysis_cases_contract_to_the_state_by_state_gaps() {
    for case in analysis_cases() {
        for (i, q) in case.queries.iter().enumerate() {
            check(&case.dtd, std::slice::from_ref(q), &format!("{} query {i}", case.name));
        }
        if case.queries.len() > 1 {
            check(&case.dtd, &case.queries, &format!("{} registry", case.name));
        }
    }
}
