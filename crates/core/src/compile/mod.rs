//! Static analysis: from DTD + projection paths to runtime lookup tables
//! (paper Sec. IV).
//!
//! The pipeline is exactly the paper's Fig. 6:
//!
//! 1. build the DTD-automaton (in `smpx-dtd`, once per parsed DTD:
//!    [`Dtd::analysis`]),
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
use select::Selector;
use smpx_dtd::{Dtd, DtdAnalysis, DtdAutomaton, StateId};
use smpx_paths::{PathSet, RelNfa};
use subgraph::GapSearch;
use tables::Subsets;

/// A set of DTD-automaton states as a membership vector indexed by
/// `StateId`: the selected set `S` and its relatives are probed once per
/// transition followed, so membership is a load, and iteration is in
/// ascending id like the ordered sets it replaces. Once
/// [indexed](Self::index), whether an instance holds a member is two loads
/// more.
#[derive(Debug, Clone)]
pub(crate) struct StateSet {
    member: Vec<bool>,
    /// After [`index`](Self::index): `below[i]` members have ids under `i`.
    /// Emptied by every change, so a stale index fails loudly.
    below: Vec<u32>,
}

impl StateSet {
    /// The empty set over an automaton of `states` states.
    pub(crate) fn new(states: usize) -> StateSet {
        StateSet { member: vec![false; states], below: Vec::new() }
    }

    /// Is `q` in the set?
    pub(crate) fn contains(&self, q: StateId) -> bool {
        self.member[q.0 as usize]
    }

    /// Add `q`.
    pub(crate) fn insert(&mut self, q: StateId) {
        self.member[q.0 as usize] = true;
        self.below.clear();
    }

    /// Remove `q`.
    pub(crate) fn remove(&mut self, q: StateId) {
        self.member[q.0 as usize] = false;
        self.below.clear();
    }

    /// Remove every member.
    pub(crate) fn clear(&mut self) {
        self.member.fill(false);
        self.below.clear();
    }

    /// Is the set empty?
    #[cfg(test)]
    pub(crate) fn is_empty(&self) -> bool {
        !self.member.contains(&true)
    }

    /// The members in ascending order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = StateId> + '_ {
        self.member.iter().enumerate().filter(|(_, &m)| m).map(|(i, _)| StateId(i as u32))
    }

    /// Count the members below every id, for [`holds_none`](Self::holds_none)
    /// until the set next changes.
    pub(crate) fn index(&mut self) {
        self.below.clear();
        self.below.push(0);
        let mut n = 0;
        for &m in &self.member {
            n += m as u32;
            self.below.push(n);
        }
    }

    /// Does the instance `open` opens hold no member — neither its own two
    /// states nor any inside it? The set must be indexed.
    pub(crate) fn holds_none(&self, auto: &DtdAutomaton, open: StateId) -> bool {
        self.below[auto.subtree_end(open).0 as usize] == self.below[open.0 as usize]
    }
}

/// What one static analysis did, for the deterministic guards in the tests
/// and the `smpx --stats` line: a regression shows up as a count, not as a
/// silent compile-time cliff.
#[doc(hidden)]
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CompileCounts {
    /// Determinization passes the DFA-level hazard fixpoint took. The
    /// per-label-group pre-analysis in state selection is designed to make
    /// this exactly 1 (the fixpoint then verifies and finds nothing).
    pub passes: usize,
    /// Relevance steps (`ConfigStack::push` calls) over every relevance
    /// walked: one per element instance visited, and an instance below a
    /// dead configuration is not — never a re-walk of a branch, never a
    /// branch no path can reach.
    pub relevance_steps: usize,
    /// Skipped states the gap searches of the contraction settled, over
    /// every source of every pass. An instance with no selected state
    /// inside is one edge, so its interior is never settled.
    pub gap_nodes: usize,
    /// States the orientation analysis (step c and the DFA-level re-check)
    /// reached or looked into, over every unit analysed. It crosses an
    /// unselected instance in one step and looks inside only when the
    /// instance holds a label the unit stops at.
    pub hazard_visits: usize,
}

/// The scratch of one compile's analysis over the DTD's shared automaton:
/// allocated once, then reset by every relevance walked and every
/// selection made with it, so a registry of N queries allocates per query
/// only its [`RelNfa`].
struct Analysis<'d> {
    /// The DTD-automaton, minimal lengths and tag universe, built once
    /// per parsed DTD and read by every compile from it.
    schema: &'d DtdAnalysis,
    classes: StateClasses,
    selector: Selector,
    gaps: GapSearch,
    passes: usize,
}

impl<'d> Analysis<'d> {
    fn new(dtd: &'d Dtd) -> Result<Analysis<'d>, CoreError> {
        let schema = &**dtd.analysis()?;
        let auto = &schema.automaton;
        Ok(Analysis {
            classes: StateClasses::new(auto),
            selector: Selector::new(auto),
            gaps: GapSearch::new(auto, &schema.min_len),
            schema,
            passes: 0,
        })
    }

    /// Package determinized states as tables over the DTD's elements.
    fn package(&self, states: Vec<RtState>, attribution: Option<Attribution>) -> CompiledTables {
        let (names, universe) = (self.schema.automaton.elem_names(), &self.schema.universe);
        let mut tables = CompiledTables::new(states, names, universe, attribution);
        tables.counts = self.counts();
        tables
    }

    /// Walk `nfa` and select its states into `self.selector.s`, `extra`
    /// forced in ([`Selector::select`]).
    fn select(&mut self, nfa: &RelNfa<'_>, extra: &[StateId]) {
        let auto = &self.schema.automaton;
        self.classes.walk(auto, nfa);
        self.selector.select(auto, &self.classes, extra);
    }

    /// The registry's selection ([`compile_multi`]): each query's hit
    /// states, returned as `(state, query)` pairs, then the union's
    /// selection with them forced in.
    fn select_registry(&mut self, queries: &[PathSet]) -> Vec<(StateId, QueryId)> {
        let mut hits: Vec<(StateId, QueryId)> = Vec::new();
        // The forced extras: the hit states as dual pairs.
        let mut extra: Vec<StateId> = Vec::new();
        for (qi, paths) in queries.iter().enumerate() {
            self.select(&RelNfa::new(paths), &[]);
            for m in self.selector.s.iter().filter(|&m| self.classes.action(m).indicates_match()) {
                hits.push((m, QueryId(qi as u32)));
                extra.extend([m, self.schema.automaton.dual(m)]);
            }
        }
        self.select(&RelNfa::of_sets(queries), &extra);
        hits
    }

    /// Contract, determinize and hazard-check the selection made last:
    /// steps 3–4 of the Fig. 6 pipeline, shared by the single-query and the
    /// multi-query (registry) compiles. Returns the runtime-DFA states and
    /// each state's member subset (the registry derives its hit attribution
    /// from the subsets).
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
    fn tables(&mut self) -> (Vec<RtState>, Subsets) {
        let (auto, s, scan) =
            (&self.schema.automaton, &mut self.selector.s, &mut self.selector.scan);
        let mut to_add: Vec<StateId> = Vec::new();
        loop {
            self.passes += 1;
            s.index();
            let sub = self.gaps.subgraph(auto, s);
            let (states, subsets) = tables::determinize_with_subsets(auto, &self.classes, &sub);
            for (i, st) in states.iter().enumerate() {
                // A merged state's frontier vocabulary is the labels of the
                // in-S states its members reach: the same unit analysis as
                // a label group of step (c). Balanced states cross their
                // subtree with a depth-counting scan instead of the
                // frontier search.
                if !st.keywords.is_empty() && !st.balanced {
                    scan.hazards(auto, subsets.get(i), s, &mut to_add);
                }
            }
            if to_add.is_empty() {
                return (states, subsets);
            }
            to_add.drain(..).for_each(|q| s.insert(q));
        }
    }

    fn counts(&self) -> CompileCounts {
        CompileCounts {
            passes: self.passes,
            relevance_steps: self.classes.steps,
            gap_nodes: self.gaps.settled,
            hazard_visits: self.selector.scan.visits,
        }
    }
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
    let mut analysis = Analysis::new(dtd)?;
    analysis.select(&RelNfa::new(paths), &[]);
    let (states, _) = analysis.tables();
    Ok((analysis.package(states, None), analysis.counts()))
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
///    into the union selection as dual pairs ([`Selector::select`]'s
///    `extra`). The union's copy-on pruning could otherwise hide one
///    query's hit states inside another query's raw-copied instance, and
///    a never-visited hit state can never attribute (a missed id would be
///    a soundness bug). Restricting to the query's own selected set
///    matters in the other direction: a query's own step-(b) pruning
///    removes nested hit states whose instances are already covered by an
///    enclosing raw copy, and re-adding those would over-attribute.
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
/// also reporting the [`CompileCounts`]: one relevance walk and selection
/// per query and one for the union.
#[doc(hidden)]
pub fn compile_multi_with_counts(
    dtd: &Dtd,
    queries: &[PathSet],
) -> Result<(CompiledTables, CompileCounts), CoreError> {
    if queries.is_empty() || queries.iter().any(PathSet::is_empty) {
        return Err(CoreError::NoPaths);
    }
    let mut analysis = Analysis::new(dtd)?;
    let mut hits = analysis.select_registry(queries);
    let (states, subsets) = analysis.tables();

    hits.sort_unstable();
    let mut ids: Vec<QueryId> = Vec::new();
    let state_hits = (0..states.len())
        .map(|i| {
            ids.clear();
            for &m in subsets.get(i) {
                let first = hits.partition_point(|&(q, _)| q < m);
                ids.extend(hits[first..].iter().take_while(|&&(q, _)| q == m).map(|&(_, id)| id));
            }
            ids.sort_unstable();
            ids.iter().copied().collect::<QueryIdSet>()
        })
        .collect();
    let attribution = Attribution { n_queries: queries.len() as u32, state_hits };
    Ok((analysis.package(states, Some(attribution)), analysis.counts()))
}

/// One source of a [`contraction`]: the state, its contracted transitions
/// (target, minimal gap), and whether the document may end after it.
#[doc(hidden)]
pub type ContractedSource = (StateId, Vec<(StateId, u32)>, bool);

/// The contraction `D|S` of the compile of `queries` — one query: the
/// single-query compile, several: the registry's — once the hazard
/// fixpoint has settled `S`, for `q0` and every state of `S`. What
/// `tests/gap_search.rs` checks against a search state by state.
#[doc(hidden)]
pub fn contraction(dtd: &Dtd, queries: &[PathSet]) -> Result<Vec<ContractedSource>, CoreError> {
    if queries.is_empty() || queries.iter().any(PathSet::is_empty) {
        return Err(CoreError::NoPaths);
    }
    let mut analysis = Analysis::new(dtd)?;
    match queries {
        [one] => analysis.select(&RelNfa::new(one), &[]),
        _ => drop(analysis.select_registry(queries)),
    }
    analysis.tables();
    let Analysis { schema, selector, gaps, .. } = &mut analysis;
    let auto = &schema.automaton;
    selector.s.index();
    let sub = gaps.subgraph(auto, &selector.s);
    let sources = std::iter::once(StateId::Q0).chain(selector.s.iter());
    Ok(sources.map(|q| (q, sub.trans(q).to_vec(), sub.is_final(q))).collect())
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
