//! Static analysis: from DTD + projection paths to runtime lookup tables
//! (paper Sec. IV).
//!
//! The pipeline is exactly the paper's Fig. 6:
//!
//! 1. build the DTD-automaton (in `smpx-dtd`),
//! 2. select the state set `S` — relevance, copy-on pruning, orientation
//!    stopovers (`select` module),
//! 3. contract to the subgraph automaton `D|S` with minimal-gap
//!    annotations (`subgraph` module),
//! 4. determinize and emit the `A`/`V`/`J`/`T` tables (`tables` module).

mod classes;
pub(crate) mod select;
pub(crate) mod subgraph;
pub(crate) mod tables;

pub use tables::{
    Action, Attribution, CompiledTables, Entry, Keyword, RtState, TokenRow, NO_CLOSE,
};

use crate::error::CoreError;
use crate::idset::{QueryId, QueryIdSet};
use classes::StateClasses;
use smpx_dtd::{Dtd, DtdAutomaton, MinLen, StateId};
use smpx_paths::{PathSet, Relevance};

/// A set of DTD-automaton states as a membership vector indexed by
/// `StateId`: the selected set `S` and its relatives are probed once per
/// transition followed, so membership is a load, and iteration is in
/// ascending id like the ordered sets it replaces.
#[derive(Debug, Clone)]
pub(crate) struct StateSet {
    member: Vec<bool>,
}

impl StateSet {
    /// The empty set over an automaton of `states` states.
    pub(crate) fn new(states: usize) -> StateSet {
        StateSet { member: vec![false; states] }
    }

    /// Is `q` in the set?
    pub(crate) fn contains(&self, q: StateId) -> bool {
        self.member[q.0 as usize]
    }

    /// Add `q`.
    pub(crate) fn insert(&mut self, q: StateId) {
        self.member[q.0 as usize] = true;
    }

    /// Remove `q`.
    pub(crate) fn remove(&mut self, q: StateId) {
        self.member[q.0 as usize] = false;
    }

    /// Is the set empty?
    pub(crate) fn is_empty(&self) -> bool {
        !self.member.contains(&true)
    }

    /// The members in ascending order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = StateId> + '_ {
        self.member.iter().enumerate().filter(|(_, &m)| m).map(|(i, _)| StateId(i as u32))
    }
}

/// What one static analysis did, for the deterministic guards in the tests:
/// a regression shows up as a count, not as a silent compile-time cliff.
#[doc(hidden)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompileCounts {
    /// Determinization passes the DFA-level hazard fixpoint took. The
    /// per-label-group pre-analysis in state selection is designed to make
    /// this exactly 1 (the fixpoint then verifies and finds nothing).
    pub passes: usize,
    /// Relevance steps (`RelConfig::descend` calls): one per element
    /// instance of the DTD-automaton per relevance built — never a re-walk
    /// of a branch.
    pub relevance_steps: usize,
}

/// Run the full static analysis.
///
/// Recursive DTDs are supported via the opaque-state extension the paper
/// sketches (Sec. II): recursive elements are navigated by balanced
/// depth-counting scans, and subtrees that projection paths could reach
/// into are conservatively preserved whole.
pub fn compile(dtd: &Dtd, paths: &PathSet) -> Result<CompiledTables, CoreError> {
    compile_with_counts(dtd, paths).map(|(tables, _)| tables)
}

/// [`compile`], also reporting the pass count of [`CompileCounts`] (the
/// form `benchmark/` calls).
#[doc(hidden)]
pub fn compile_counted(dtd: &Dtd, paths: &PathSet) -> Result<(CompiledTables, usize), CoreError> {
    compile_with_counts(dtd, paths).map(|(tables, counts)| (tables, counts.passes))
}

/// [`compile`], also reporting its [`CompileCounts`].
#[doc(hidden)]
pub fn compile_with_counts(
    dtd: &Dtd,
    paths: &PathSet,
) -> Result<(CompiledTables, CompileCounts), CoreError> {
    if paths.is_empty() {
        return Err(CoreError::NoPaths);
    }
    let auto = DtdAutomaton::build_allow_recursion(dtd)?;
    let minlen = MinLen::compute_allow_recursion(dtd)?;
    let classes = StateClasses::build(&auto, &Relevance::new(paths));
    let s = select::select_states(&auto, &classes);
    let (states, passes, _) = compile_from_selection(&auto, &minlen, &classes, s);
    let tables = CompiledTables::new(states, dtd.elem_names(), None);
    Ok((tables, CompileCounts { passes, relevance_steps: classes.steps }))
}

/// Contract, determinize and hazard-check a chosen state set: steps 3–4
/// of the Fig. 6 pipeline, shared by the single-query and the multi-query
/// (registry) compiles. Returns the runtime-DFA states, the pass count,
/// and each state's member subset (the registry derives its hit
/// attribution from the subsets).
///
/// State selection's step (c) runs per *label group* (all same-labeled
/// selected states analysed with their reaches united), which
/// over-approximates every merge the subset construction below can
/// perform — determinization only ever merges states entered by the
/// same token. The loop here re-checks orientation hazards on the
/// actual determinized automaton as a safety net: with the grouped
/// pre-analysis it finds nothing and the tables compile in one pass,
/// where the per-NFA-state analysis of earlier revisions needed up to
/// a handful of recompiles on ambiguous (non-1-unambiguous) content
/// models. S only grows, so the fixpoint terminates either way.
fn compile_from_selection(
    auto: &DtdAutomaton,
    minlen: &MinLen,
    classes: &StateClasses,
    mut s: StateSet,
) -> (Vec<RtState>, usize, Vec<Vec<StateId>>) {
    let mut passes = 0usize;
    let mut scan = select::HazardScan::new(auto);
    let mut to_add: Vec<StateId> = Vec::new();
    loop {
        passes += 1;
        let sub = subgraph::build_subgraph(auto, minlen, &s);
        let (states, subsets) = tables::determinize_with_subsets(auto, classes, &sub);
        for (st, members) in states.iter().zip(&subsets) {
            // A merged state's frontier vocabulary is the labels of the
            // in-S states its members reach: the same unit analysis as a
            // label group of step (c). Balanced states cross their subtree
            // with a depth-counting scan instead of the frontier search.
            if !st.keywords.is_empty() && !st.balanced {
                scan.hazards(auto, members, &s, &mut to_add);
            }
        }
        if to_add.is_empty() {
            return (states, passes, subsets);
        }
        to_add.drain(..).for_each(|q| s.insert(q));
    }
}

/// Compile a whole query workload into one shared automaton whose states
/// carry query-id attribution (the multi-query registry).
///
/// The automaton is the single-query compile of the *union* of the
/// queries' path sets, with two additions:
///
/// 1. **Selection**: every query's *hit states* — the DTD-automaton
///    states whose action indicates a match under that query's own
///    relevance, restricted to that query's own selected set — are forced
///    into the union selection as dual pairs
///    ([`select::select_states_with_extra`]). The union's copy-on pruning
///    could otherwise hide one query's hit states inside another query's
///    raw-copied instance, and a never-visited hit state can never
///    attribute (a missed id would be a soundness bug). Restricting to
///    the query's own selected set matters in the other direction: a
///    query's own step-(b) pruning removes nested hit states whose
///    instances are already covered by an enclosing raw copy, and
///    re-adding those would over-attribute.
/// 2. **Attribution**: after determinization, runtime state `i` is
///    attributed to query `q` iff some member of subset `i` is one of
///    `q`'s hit states. By relevance monotonicity (the union's relevance
///    dominates each query's) such a state's joined action is itself in
///    the hit class, so attributed entries coincide with the union run's
///    match events.
pub(crate) fn compile_multi(dtd: &Dtd, queries: &[PathSet]) -> Result<CompiledTables, CoreError> {
    compile_multi_with_counts(dtd, queries).map(|(tables, _)| tables)
}

/// [`Prefilter::compile_multi`](crate::Prefilter::compile_multi)'s tables,
/// also reporting the [`CompileCounts`]: one state-class table per query
/// and one for the union.
#[doc(hidden)]
pub fn compile_multi_with_counts(
    dtd: &Dtd,
    queries: &[PathSet],
) -> Result<(CompiledTables, CompileCounts), CoreError> {
    if queries.is_empty() || queries.iter().any(PathSet::is_empty) {
        return Err(CoreError::NoPaths);
    }
    let auto = DtdAutomaton::build_allow_recursion(dtd)?;
    let minlen = MinLen::compute_allow_recursion(dtd)?;
    let mut relevance_steps = 0;

    // Per DTD-automaton state, the queries it is a hit state of (ascending),
    // and the forced extras (dual pairs).
    let mut hit_queries: Vec<Vec<QueryId>> = vec![Vec::new(); auto.state_count()];
    let mut extra: Vec<StateId> = Vec::new();
    for (qi, paths) in queries.iter().enumerate() {
        let classes_q = StateClasses::build(&auto, &Relevance::new(paths));
        relevance_steps += classes_q.steps;
        let s_q = select::select_states(&auto, &classes_q);
        for m in s_q.iter().filter(|&m| classes_q.action(m).indicates_match()) {
            hit_queries[m.0 as usize].push(QueryId(qi as u32));
            extra.extend([m, auto.dual(m)]);
        }
    }

    let union = PathSet::union_of(queries);
    let classes = StateClasses::build(&auto, &Relevance::new(&union));
    relevance_steps += classes.steps;
    let s = select::select_states_with_extra(&auto, &classes, &extra);
    let (states, passes, subsets) = compile_from_selection(&auto, &minlen, &classes, s);

    let mut ids: Vec<QueryId> = Vec::new();
    let state_hits = subsets
        .iter()
        .map(|members| {
            ids.clear();
            ids.extend(members.iter().flat_map(|m| &hit_queries[m.0 as usize]));
            ids.sort_unstable();
            ids.iter().copied().collect::<QueryIdSet>()
        })
        .collect();
    let attribution = Attribution { n_queries: queries.len() as u32, state_hits };
    let tables = CompiledTables::new(states, dtd.elem_names(), Some(attribution));
    Ok((tables, CompileCounts { passes, relevance_steps }))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_paths_rejected() {
        let dtd = Dtd::parse(b"<!ELEMENT a EMPTY>").unwrap();
        let paths = PathSet::new(vec![]);
        assert!(matches!(compile(&dtd, &paths), Err(CoreError::NoPaths)));
    }

    #[test]
    fn recursive_dtd_compiles_with_opaque_states() {
        // a → b → a?: both elements are recursive; the automaton degrades
        // to opaque pairs and balanced scanning.
        let dtd = Dtd::parse(b"<!ELEMENT a (b)> <!ELEMENT b (a?)>").unwrap();
        let paths = PathSet::parse(&["/*"]).unwrap();
        let t = compile(&dtd, &paths).unwrap();
        assert!(t.states.iter().any(|s| s.balanced));
    }

    #[test]
    fn paths_unsatisfiable_by_dtd_yield_trivial_tables() {
        // No /* and no matching tags: nothing is ever searched for.
        let dtd = Dtd::parse(b"<!ELEMENT a (#PCDATA)>").unwrap();
        let paths = PathSet::parse(&["/zzz"]).unwrap();
        let t = compile(&dtd, &paths).unwrap();
        assert_eq!(t.state_count(), 1);
        assert!(t.states[0].keywords.is_empty());
    }

    /// Ambiguous content models whose orientation hazards only exist on
    /// the *merged* (determinized) states: the per-label-group
    /// pre-analysis in state selection must catch them up front, so the
    /// DFA-level safety-net fixpoint verifies in exactly one
    /// determinization pass. Before the grouped analysis each of these
    /// took two passes (table recompiles).
    ///
    /// The shape, in the first case: `(item*, (item, y, cd), y)` makes
    /// `<item` from the root reach two item states, which determinization
    /// merges; one merged member keeps `<item` in the frontier vocabulary
    /// while the other member's scan skips across `cd` — whose interior
    /// contains items. No single NFA state has both the stop label and
    /// the hazardous region, so the paper's per-state step (c) is blind
    /// to it.
    #[test]
    fn ambiguous_models_compile_tables_in_one_pass() {
        let cases: &[(&[u8], &[&str])] = &[
            (
                b"<!ELEMENT a (item*, (item, y, cd), y)> <!ELEMENT item (#PCDATA)> \
                  <!ELEMENT y (#PCDATA)> <!ELEMENT cd (item*)>",
                &["/*", "/a/item#"],
            ),
            (
                b"<!ELEMENT a (item*, (item, y, cd), y)> <!ELEMENT item (#PCDATA)> \
                  <!ELEMENT y (item*)> <!ELEMENT cd (item*)>",
                &["/*", "/a/item#"],
            ),
            (b"<!ELEMENT a (b?, b, c)> <!ELEMENT b (#PCDATA)> <!ELEMENT c (b*)>", &["/*", "/a/b#"]),
        ];
        for (i, (dtd_text, path_texts)) in cases.iter().enumerate() {
            let dtd = Dtd::parse(dtd_text).unwrap();
            let paths = PathSet::parse(path_texts).unwrap();
            let (tables, passes) = compile_counted(&dtd, &paths).unwrap();
            assert_eq!(
                passes, 1,
                "case {i}: grouped pre-analysis must leave nothing for the DFA fixpoint"
            );
            // The hazard repair itself must still be present: the `cd`/`c`
            // region gained its stopover pair, visible as extra states
            // beyond the plain selected set.
            assert!(tables.state_count() >= 7, "case {i}: stopovers missing");
        }
    }

    /// Unambiguous models (the paper's assumption) stay single-pass too,
    /// and the grouped analysis must not add anything beyond the paper's
    /// per-state step (c) there — Fig. 3's exact 7-state automaton is
    /// pinned in `tables::tests::figure3_tables`.
    #[test]
    fn unambiguous_models_are_single_pass() {
        let dtd = Dtd::parse(
            br#"<!DOCTYPE a [ <!ELEMENT a (b|c)*> <!ELEMENT b (#PCDATA)> <!ELEMENT c (b,b?)> ]>"#,
        )
        .unwrap();
        for texts in [&["/*", "/a/b#"][..], &["/*", "//c#"], &["/*", "//b#"]] {
            let paths = PathSet::parse(texts).unwrap();
            let (_, passes) = compile_counted(&dtd, &paths).unwrap();
            assert_eq!(passes, 1);
        }
    }
}
