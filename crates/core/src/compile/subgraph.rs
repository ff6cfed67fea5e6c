//! The subgraph automaton `D|S` (paper Def. 4) with minimal-gap
//! annotations.
//!
//! A contracted transition `q → p` (both in `S ∪ {q0}`) stands for every
//! path `q → r1 → … → rk → p` of the DTD-automaton whose intermediate
//! states `ri` lie outside `S`: at runtime those tokens are *skipped
//! unparsed*. The **gap** of the transition is the minimum number of
//! characters those skipped tokens must occupy in any valid document —
//! intermediate open/close tags at their minimal serialization (required
//! attributes included), with a directly-closed pair `⟨x⟩⟨/x⟩` charged at
//! bachelor cost `⟨x/⟩`. Text contributes nothing (it may be empty). The
//! per-state minimum over outgoing gaps becomes the initial jump offset
//! `J[q]` (paper Ex. 3).
//!
//! Gap minimality is a *safety* requirement: the runtime advances the
//! cursor by `J[q]` before searching, so `J[q]` must lower-bound the
//! distance to the next token of interest in every valid document.

use super::StateSet;
use smpx_dtd::{DtdAutomaton, MinLen, StateId};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// `D|S` with gap-annotated transitions.
#[derive(Debug, Clone)]
pub struct Subgraph {
    /// Contracted transitions of every source (`q0` and every state of
    /// `S`) back to back, each source's sorted by target: `q`'s are
    /// `trans[at[q]..at[q + 1]]`, empty for a state outside `S`. Targets
    /// are always in `S`; the `u32` is the minimal gap.
    trans: Vec<(StateId, u32)>,
    at: Vec<u32>,
    /// States after which the document may end without visiting another
    /// in-`S` state (Def. 4's final states; includes `q0` when the whole
    /// document may be skipped).
    finals: Vec<bool>,
}

impl Subgraph {
    /// The contracted transitions leaving `q`.
    pub fn trans(&self, q: StateId) -> &[(StateId, u32)] {
        let i = q.0 as usize;
        &self.trans[self.at[i] as usize..self.at[i + 1] as usize]
    }

    /// May the document end after `q`?
    pub fn is_final(&self, q: StateId) -> bool {
        self.finals[q.0 as usize]
    }
}

/// The per-source shortest-gap searches of one compile: what each skipped
/// token costs, worked out once per automaton, and tentative distances
/// indexed by `StateId`, reset through the list of entries touched.
pub(crate) struct GapSearch {
    /// Per state, the characters its token adds to a gap: for an open
    /// state its minimal open tag and the minimal length of its whole
    /// instance; for a close state its close tag, and what it costs right
    /// after its own skipped open tag (a bachelor tag's surplus over that
    /// open tag when the element may be empty).
    costs: Vec<[u32; 2]>,
    dist: Vec<u64>,
    touched: Vec<StateId>,
    heap: BinaryHeap<Reverse<(u64, StateId)>>,
    /// Skipped states settled (expanded), over every search.
    pub(crate) settled: usize,
}

impl GapSearch {
    pub(crate) fn new(auto: &DtdAutomaton, minlen: &MinLen) -> GapSearch {
        let n = auto.state_count();
        let costs = auto
            .states()
            .map(|q| {
                if q == StateId::Q0 {
                    return [0, 0];
                }
                let len = minlen.of(auto.elem_id(q));
                let pair = if auto.is_close(q) {
                    [len.close_tag, len.bachelor.map_or(len.close_tag, |b| b - len.open_tag)]
                } else {
                    [len.open_tag, len.elem]
                };
                pair.map(|c| c as u32)
            })
            .collect();
        GapSearch {
            costs,
            dist: vec![u64::MAX; n],
            touched: Vec::new(),
            heap: BinaryHeap::new(),
            settled: 0,
        }
    }

    /// Build `D|S` from the DTD-automaton and the selected set `S`, which
    /// must be [indexed](StateSet::index).
    pub(crate) fn subgraph(&mut self, auto: &DtdAutomaton, s: &StateSet) -> Subgraph {
        let n = auto.state_count();
        let mut sub =
            Subgraph { trans: Vec::new(), at: Vec::with_capacity(n + 1), finals: vec![false; n] };
        for q in auto.states() {
            let from = sub.trans.len();
            sub.at.push(from as u32);
            if q != StateId::Q0 && !s.contains(q) {
                continue;
            }
            let reaches_end = self.from(auto, s, q, &mut sub.trans);
            sub.trans[from..].sort_unstable();
            sub.finals[q.0 as usize] = q == auto.final_state() || reaches_end;
        }
        sub.at.push(sub.trans.len() as u32);
        sub
    }

    /// Single-source shortest gaps from `q` to each reachable in-`S` state,
    /// pushed onto `out`, where path cost is the minimal serialization of
    /// skipped tokens. Returns whether the document-final state is
    /// reachable via skipped states only (making `q` final in `D|S`).
    ///
    /// An instance outside `S` with no state of `S` inside is one edge from
    /// its open to its close state, costing its minimal length: inside it
    /// every path is skipped, and its cheapest one through open, interior
    /// and close is exactly that length (a bachelor tag when the element
    /// may be empty; `tests/gap_search.rs` checks it against the search
    /// state by state).
    fn from(
        &mut self,
        auto: &DtdAutomaton,
        s: &StateSet,
        q: StateId,
        out: &mut Vec<(StateId, u32)>,
    ) -> bool {
        let doc_final = auto.final_state();
        let mut reaches_end = q == doc_final && !s.contains(doc_final);
        // One distance table serves both kinds of node: a skipped state's
        // entry is the cost up to and including its own token, an in-S
        // target's is the gap before it (it is never expanded).
        let mut relax = |this: &mut GapSearch, u: StateId, base: u64, v: StateId| {
            let skipped = !s.contains(v);
            let (v, d) = if !skipped {
                (v, base)
            } else if !auto.is_close(v) && s.holds_none(auto, v) {
                (auto.dual(v), base + this.costs[v.0 as usize][1] as u64)
            } else {
                (v, base + this.token_cost(auto, u, v))
            };
            reaches_end |= skipped && v == doc_final;
            let old = &mut this.dist[v.0 as usize];
            if d < *old {
                if *old == u64::MAX {
                    this.touched.push(v);
                }
                *old = d;
                if skipped {
                    this.heap.push(Reverse((d, v)));
                }
            }
        };
        for &t in auto.transitions(q) {
            relax(self, q, 0, t);
        }
        while let Some(Reverse((d, u))) = self.heap.pop() {
            if self.dist[u.0 as usize] != d {
                continue; // stale entry
            }
            self.settled += 1;
            for &v in auto.transitions(u) {
                relax(self, u, d, v);
            }
        }
        for v in self.touched.drain(..) {
            let d = std::mem::replace(&mut self.dist[v.0 as usize], u64::MAX);
            if s.contains(v) {
                out.push((v, d.min(u32::MAX as u64) as u32));
            }
        }
        reaches_end
    }

    /// Minimal characters the skipped token of state `v` adds to the gap,
    /// given it is entered from `u`.
    fn token_cost(&self, auto: &DtdAutomaton, u: StateId, v: StateId) -> u64 {
        // Direct open→close of the same *skipped* instance: the pair can be
        // serialized as a bachelor tag; the close then costs only the
        // difference over the already-charged open tag (one character).
        // `u` is skipped here whenever it is `v`'s open: `S` holds an
        // instance's two states or neither, and `v` is skipped.
        let after_open = auto.is_close(v) && auto.dual(u) == v;
        self.costs[v.0 as usize][after_open as usize] as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::classes::StateClasses;
    use crate::compile::select::select_states;
    use smpx_dtd::Dtd;
    use smpx_paths::{PathSet, RelNfa};

    fn setup(dtd_text: &[u8], paths: &[&str]) -> (DtdAutomaton, MinLen, StateSet) {
        let dtd = Dtd::parse(dtd_text).unwrap();
        let auto = DtdAutomaton::build(&dtd).unwrap();
        let minlen = MinLen::compute(&dtd).unwrap();
        let paths = PathSet::parse(paths).unwrap();
        let mut s = select_states(&auto, &StateClasses::build(&auto, &RelNfa::new(&paths)));
        s.index();
        (auto, minlen, s)
    }

    fn build_subgraph(auto: &DtdAutomaton, minlen: &MinLen, s: &StateSet) -> Subgraph {
        GapSearch::new(auto, minlen).subgraph(auto, s)
    }

    fn find_state(auto: &DtdAutomaton, branch: &[&str], close: bool) -> StateId {
        auto.states()
            .skip(1)
            .find(|&q| auto.is_close(q) == close && auto.branch(q) == branch)
            .expect("state exists")
    }

    const EX2: &[u8] =
        br#"<!DOCTYPE a [ <!ELEMENT a (b|c)*> <!ELEMENT b (#PCDATA)> <!ELEMENT c (b,b?)> ]>"#;

    /// Paper Fig. 3: with P = {/*, /a/b#}, J[q3] = 4 (the mandatory <b/>
    /// inside c) and all other jumps are 0.
    #[test]
    fn figure3_jump_offsets() {
        let (auto, minlen, s) = setup(EX2, &["/*", "/a/b#"]);
        let sub = build_subgraph(&auto, &minlen, &s);
        let c_open = find_state(&auto, &["a", "c"], false);
        let c_trans = sub.trans(c_open);
        // From <c> the only contracted transition goes to </c> with gap 4.
        assert_eq!(c_trans.len(), 1);
        let (tgt, gap) = c_trans[0];
        assert_eq!(auto.elem_name(tgt), "c");
        assert!(auto.is_close(tgt));
        assert_eq!(gap, 4);

        // From <a>: direct neighbours <b>, <c>, </a> — gap 0.
        let a_open = find_state(&auto, &["a"], false);
        for &(_, gap) in sub.trans(a_open) {
            assert_eq!(gap, 0);
        }
        // q0 → <a>: gap 0.
        assert_eq!(sub.trans(StateId::Q0), [(a_open, 0)]);
    }

    /// Example 12 selection: from <c> we scan for </c> skipping one or two
    /// b's; minimal skipped content is one bachelor <b/> = 4.
    #[test]
    fn example12_gap_through_interior() {
        let (auto, minlen, s) = setup(EX2, &["/*", "//c#"]);
        let sub = build_subgraph(&auto, &minlen, &s);
        let c_open = find_state(&auto, &["a", "c"], false);
        let (tgt, gap) = sub.trans(c_open)[0];
        assert!(auto.is_close(tgt));
        assert_eq!(gap, 4);
    }

    /// Paper Example 1: after <site>, scanning for <australia> skips at
    /// least "<regions><africa/><asia/>" = 25 characters.
    #[test]
    fn example1_initial_jump_25() {
        let dtd_text: &[u8] = br#"<!DOCTYPE site [
            <!ELEMENT site (regions)>
            <!ELEMENT regions (africa, asia, australia)>
            <!ELEMENT africa (item*)>
            <!ELEMENT asia (item*)>
            <!ELEMENT australia (item*)>
            <!ELEMENT item (location,name,payment,description,shipping,incategory+)>
            <!ELEMENT incategory EMPTY>
            <!ATTLIST incategory category ID #REQUIRED>
            ]>"#;
        let (auto, minlen, s) = setup(dtd_text, &["/*", "//australia//description#"]);
        let sub = build_subgraph(&auto, &minlen, &s);
        let site_open = find_state(&auto, &["site"], false);
        let trans = sub.trans(site_open);
        let to_australia = trans
            .iter()
            .find(|&&(t, _)| auto.elem_name(t) == "australia" && !auto.is_close(t))
            .expect("australia transition");
        assert_eq!(to_australia.1, 25);
    }

    #[test]
    fn finals_include_close_root_and_skippable_tails() {
        let (auto, minlen, s) = setup(EX2, &["/*", "/a/b#"]);
        let sub = build_subgraph(&auto, &minlen, &s);
        let a_close = find_state(&auto, &["a"], true);
        assert!(sub.is_final(a_close));
        // <a> itself is not final: </a> is in S and must still be seen.
        let a_open = find_state(&auto, &["a"], false);
        assert!(!sub.is_final(a_open));
    }

    #[test]
    fn ancestors_always_selected_so_close_root_terminates() {
        // The prefix closure keeps every ancestor of a kept node, so the
        // root's closing tag is always in S when S is non-empty: </x> is
        // NOT final (</r> still needs to be matched after it).
        let dtd_text: &[u8] = b"<!ELEMENT r (x, y*)> <!ELEMENT x EMPTY> <!ELEMENT y EMPTY>";
        let (auto, minlen, s) = setup(dtd_text, &["/r/x"]);
        let sub = build_subgraph(&auto, &minlen, &s);
        let x_close = find_state(&auto, &["r", "x"], true);
        assert!(!sub.is_final(x_close));
        let r_close = find_state(&auto, &["r"], true);
        assert!(s.contains(r_close));
        assert!(sub.is_final(r_close));
    }

    #[test]
    fn q0_final_when_nothing_selected() {
        // Paths matching nothing in the schema: the whole document may be
        // skipped, so q0 itself is final in D|S.
        let dtd_text: &[u8] = b"<!ELEMENT r (x)> <!ELEMENT x EMPTY>";
        let (auto, minlen, s) = setup(dtd_text, &["/zzz"]);
        assert!(s.is_empty());
        let sub = build_subgraph(&auto, &minlen, &s);
        assert!(sub.is_final(StateId::Q0));
    }

    #[test]
    fn gap_counts_required_attributes() {
        // Skipping <e cat=""/><f/> before <g>: e has a required attribute.
        let dtd_text: &[u8] = br#"<!DOCTYPE r [
            <!ELEMENT r (e, f, g)>
            <!ELEMENT e EMPTY> <!ATTLIST e cat CDATA #REQUIRED>
            <!ELEMENT f EMPTY>
            <!ELEMENT g (#PCDATA)>
        ]>"#;
        let (auto, minlen, s) = setup(dtd_text, &["/r/g#"]);
        let sub = build_subgraph(&auto, &minlen, &s);
        let r_open = find_state(&auto, &["r"], false);
        let to_g = sub
            .trans(r_open)
            .iter()
            .find(|&&(t, _)| auto.elem_name(t) == "g" && !auto.is_close(t))
            .unwrap();
        // <e cat=""/> = 11, <f/> = 4  =>  gap 15.
        assert_eq!(to_g.1, 15);
    }

    #[test]
    fn non_nullable_skipped_pair_charges_full_tags() {
        // y requires a z child, so skipping y costs <y> + <z/> + </y>.
        let dtd_text: &[u8] =
            b"<!ELEMENT r (y, g)> <!ELEMENT y (z)> <!ELEMENT z EMPTY> <!ELEMENT g (#PCDATA)>";
        let (auto, minlen, s) = setup(dtd_text, &["/r/g#"]);
        let sub = build_subgraph(&auto, &minlen, &s);
        let r_open = find_state(&auto, &["r"], false);
        let to_g = sub
            .trans(r_open)
            .iter()
            .find(|&&(t, _)| auto.elem_name(t) == "g" && !auto.is_close(t))
            .unwrap();
        // <y> = 3, <z/> = 4, </y> = 4  =>  11.
        assert_eq!(to_g.1, 11);
    }
}
