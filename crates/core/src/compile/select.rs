//! State selection — steps (1a), (1b), (1c) of the paper's Fig. 6.
//!
//! * **(a)** every DTD-automaton state whose document branch is relevant
//!   (Def. 5 via Def. 3) enters `S` — these are the tokens that must be
//!   preserved.
//! * **(b)** if the element instance of a dual pair `(q, q̂)` is copied
//!   *raw* (`copy on/off`, i.e. its leaf is `#`-matched), the runtime never
//!   needs to stop over inside it: all interior states are removed from
//!   `S`. The paper phrases this as "if R ⊆ S then remove R" — under C2
//!   every interior state of a `#`-matched instance is relevant, so the
//!   set-inclusion test and the copy-on test coincide on relevant inputs;
//!   we key on copy-on directly, which stays safe when they differ.
//! * **(c)** orientation stopovers: if from some `q ∈ S ∪ {q0}` the
//!   runtime, scanning for the label of an in-`S` state `p`, could instead
//!   hit an out-of-`S` state `p′` with the *same label* (both reachable
//!   through skipped states only), it would be thrown off-track. The
//!   parent states (dual pair) of `p′` are added to `S`, and the analysis
//!   repeats until a fixpoint is reached (paper Ex. 11: `q3`, `q̂3`).
//!
//! Step (c) here runs per **label group** rather than per state: all
//! selected states with the same token label are analysed together, with
//! their skipped-closures and stop vocabularies united. The paper's
//! per-state analysis is exact for 1-unambiguous content models (the XML
//! spec's requirement), but an ambiguous model lets the later subset
//! construction merge same-labeled states and *combine* their frontier
//! vocabularies — creating hazards no single member has. Since
//! determinization only ever merges states entered by the same token, the
//! label group over-approximates every merge it can perform, so the
//! grouped fixpoint subsumes both the per-state step (c) and the DFA-level
//! re-check in `compile()` (which remains as a verifying safety net and is
//! pinned to find nothing by the one-pass compile assertions).

use super::classes::StateClasses;
use super::StateSet;
use smpx_dtd::{DtdAutomaton, StateId};

/// The selected state set `S` (never contains `q0`), with the scratch of
/// its construction: one per compile, reset for each relevance selected
/// with it, so selecting a query's states allocates nothing once the
/// first query has sized the buffers.
pub(crate) struct Selector {
    /// `S` as the last [`select`](Self::select) left it.
    pub(crate) s: StateSet,
    /// The opaque (recursive-element) states, ascending.
    opaque: Vec<StateId>,
    pub(crate) scan: HazardScan,
    /// The members of `S` by label: step (c)'s label groups.
    by_label: Vec<StateId>,
    to_add: Vec<StateId>,
}

impl Selector {
    pub(crate) fn new(auto: &DtdAutomaton) -> Selector {
        Selector {
            s: StateSet::new(auto.state_count()),
            opaque: auto.states().filter(|&q| auto.is_opaque(q)).collect(),
            scan: HazardScan::new(auto),
            by_label: Vec::new(),
            to_add: Vec::new(),
        }
    }

    /// Select `S` into `self.s` from the classes of the relevance walked
    /// last, with `extra` states forced in after the copy-on pruning of
    /// step (b) and before the stopover fixpoint of step (c).
    ///
    /// The multi-query registry compile uses `extra` to keep every member
    /// query's hit-indicating states selected even where the *union* path
    /// set's step (b) would prune them (a query's `#`-instance nested
    /// inside another query's): a pruned hit state could never fire its
    /// attribution. The forced states always lie strictly inside a union
    /// copy-on instance, so at runtime they are only entered while a raw
    /// copy range is active — the depth-counted multi-query copy semantics
    /// keep the union projection unchanged. Step (c) then re-establishes
    /// the orientation guarantee for the grown `S`.
    pub(crate) fn select(
        &mut self,
        auto: &DtdAutomaton,
        classes: &StateClasses,
        extra: &[StateId],
    ) {
        let s = &mut self.s;
        s.clear();
        // Step (a): relevant states. Only a visited instance can be one.
        let mut any = false;
        for &open in classes.visited().iter().filter(|&&q| classes.relevant(q)) {
            s.insert(open);
            s.insert(auto.dual(open));
            any = true;
        }
        // Recursion extension: every opaque (recursive-element) state joins
        // S whenever anything is selected at all. An opaque subtree may
        // contain tags of any element it can reach, so scanning *over* an
        // unvisited opaque instance could be thrown off-track; visiting it
        // costs one balanced scan and restores the orientation guarantee.
        if any {
            self.opaque.iter().for_each(|&q| s.insert(q));
        }
        // Step (b): prune the interior of copy-on instances. A `#`-matched
        // instance is relevant, hence selected, hence its whole interior
        // goes — whichever of its ancestors is the outermost one.
        for &open in classes.visited().iter().filter(|&&q| classes.inside_copy_on(q)) {
            s.remove(open);
            s.remove(auto.dual(open));
        }
        extra.iter().for_each(|&q| s.insert(q));
        self.step_c(auto);
    }

    /// Step (c), grouped: add orientation stopovers until fixpoint,
    /// analysing all same-labeled selected states as one unit (module docs).
    ///
    /// The units are `q0` alone (determinization starts from `{q0}`) and the
    /// selected states bucketed by token label; singleton groups reproduce
    /// the paper's per-state step (c) exactly, multi-member groups
    /// additionally cover the vocabulary unions the subset construction can
    /// later create.
    fn step_c(&mut self, auto: &DtdAutomaton) {
        loop {
            self.s.index();
            self.by_label.clear();
            self.by_label.extend(self.s.iter());
            self.by_label.sort_by_key(|&q| auto.label_id(q));
            self.scan.hazards(auto, &[StateId::Q0], &self.s, &mut self.to_add);
            for members in self.by_label.chunk_by(|&a, &b| auto.label_id(a) == auto.label_id(b)) {
                self.scan.hazards(auto, members, &self.s, &mut self.to_add);
            }
            if self.to_add.is_empty() {
                return;
            }
            self.to_add.drain(..).for_each(|q| self.s.insert(q));
        }
    }
}

/// Scratch for the orientation analysis of one unit of states that the
/// runtime treats as one (a label group, or the members of a determinized
/// state): visit stamps per state, reused from unit to unit so no analysis
/// allocates or clears a set, and per instance the labels inside it.
pub(crate) struct HazardScan {
    epoch: u32,
    seen: Vec<u32>,
    /// Words of a label bitset.
    words: usize,
    /// Per state, for an open state the labels of the states strictly
    /// inside its instance (`words` words each).
    inside: Vec<u64>,
    /// The labels the unit at hand stops at.
    stop: Vec<u64>,
    reach: Vec<StateId>,
    /// The open states of the instances [`reach`](Self::reach) crossed in
    /// one step.
    crossed: Vec<StateId>,
    stack: Vec<StateId>,
    /// States reached or looked into, over every unit analysed.
    pub(crate) visits: usize,
}

fn has(bits: &[u64], i: usize) -> bool {
    bits[i / 64] & 1 << (i % 64) != 0
}

impl HazardScan {
    pub(crate) fn new(auto: &DtdAutomaton) -> HazardScan {
        let words = auto.label_count().div_ceil(64);
        // Children follow their parents in state order: adding each
        // instance's labels to its parent's from the last state back sums
        // every subtree.
        let mut inside = vec![0u64; auto.state_count() * words];
        for open in (1..auto.state_count() as u32).rev().map(StateId).filter(|&q| !auto.is_close(q))
        {
            let Some(p) = auto.parent(open) else { continue };
            let (p, o) = (p.0 as usize * words, open.0 as usize * words);
            for w in 0..words {
                inside[p + w] |= inside[o + w];
            }
            for l in [auto.label_id(open), auto.label_id(auto.dual(open))] {
                inside[p + l / 64] |= 1 << (l % 64);
            }
        }
        HazardScan {
            epoch: 0,
            seen: vec![0; auto.state_count()],
            words,
            inside,
            stop: vec![0; words],
            reach: Vec::new(),
            crossed: Vec::new(),
            stack: Vec::new(),
            visits: 0,
        }
    }

    /// The states reachable from a member of `members` by a non-empty path
    /// whose intermediate states are all outside `S`: the first in-`S`
    /// states reached (search stops there) and the skipped states passed
    /// through, united over the members — except the interiors of the
    /// instances with no state in `S`, which the path crosses from open to
    /// close in one step (they are listed in `crossed`: every state inside
    /// one is reached and skipped).
    fn reach(&mut self, auto: &DtdAutomaton, members: &[StateId], s: &StateSet) -> &[StateId] {
        self.epoch += 1;
        self.reach.clear();
        self.crossed.clear();
        for &m in members {
            self.stack.extend_from_slice(auto.transitions(m));
            while let Some(t) = self.stack.pop() {
                if std::mem::replace(&mut self.seen[t.0 as usize], self.epoch) == self.epoch {
                    continue;
                }
                self.reach.push(t);
                if s.contains(t) {
                    // In-S states terminate the scan; skipped ones pass it on.
                } else if !auto.is_close(t) && s.holds_none(auto, t) {
                    self.crossed.push(t);
                    self.stack.push(auto.dual(t));
                } else {
                    self.stack.extend_from_slice(auto.transitions(t));
                }
            }
        }
        self.visits += self.reach.len();
        &self.reach
    }

    /// The orientation hazards of one unit: the labels the runtime could
    /// scan for from any member are those of the in-`S` states reached; an
    /// out-of-`S` state reached that carries one of them would throw the
    /// scan off-track. For each, the dual pair of its enclosing instance is
    /// pushed onto `to_add` (the runtime then stops over there and cannot
    /// stray into the hazard region). Root-level states have no enclosing
    /// instance and need no repair: the root pair is in `S` whenever `S` is
    /// non-empty (prefix closure), so a root state is never a hazard.
    ///
    /// `s` must be [indexed](StateSet::index).
    pub(crate) fn hazards(
        &mut self,
        auto: &DtdAutomaton,
        members: &[StateId],
        s: &StateSet,
        to_add: &mut Vec<StateId>,
    ) {
        self.reach(auto, members, s);
        self.stop.fill(0);
        for &r in self.reach.iter().filter(|&&r| s.contains(r)) {
            let l = auto.label_id(r);
            self.stop[l / 64] |= 1 << (l % 64);
        }
        let hazard = |r: StateId, to_add: &mut Vec<StateId>| {
            if let Some(parent_open) = auto.parent(r) {
                for q in [parent_open, auto.dual(parent_open)] {
                    if !s.contains(q) {
                        to_add.push(q);
                    }
                }
            }
        };
        for &r in self.reach.iter().filter(|&&r| !s.contains(r)) {
            if has(&self.stop, auto.label_id(r)) {
                hazard(r, to_add);
            }
        }
        // A crossed instance is looked into only when it holds a stop label.
        for &open in &self.crossed {
            let labels = &self.inside[open.0 as usize * self.words..][..self.words];
            if labels.iter().zip(&self.stop).all(|(a, b)| a & b == 0) {
                continue;
            }
            let interior = (open.0 + 2..auto.subtree_end(open).0).map(StateId);
            self.visits += interior.len();
            for r in interior.filter(|&r| has(&self.stop, auto.label_id(r))) {
                hazard(r, to_add);
            }
        }
    }
}

/// `S` of the classes at hand, through a selector of its own.
#[cfg(test)]
pub(crate) fn select_states(auto: &DtdAutomaton, classes: &StateClasses) -> StateSet {
    let mut selector = Selector::new(auto);
    selector.select(auto, classes, &[]);
    selector.s
}

#[cfg(test)]
mod tests {
    use super::*;
    use smpx_dtd::Dtd;
    use smpx_paths::{PathSet, RelNfa};

    fn example2() -> (Dtd, DtdAutomaton) {
        let dtd = Dtd::parse(
            br#"<!DOCTYPE a [ <!ELEMENT a (b|c)*> <!ELEMENT b (#PCDATA)> <!ELEMENT c (b,b?)> ]>"#,
        )
        .unwrap();
        let auto = DtdAutomaton::build(&dtd).unwrap();
        (dtd, auto)
    }

    fn classes(auto: &DtdAutomaton, paths: &[&str]) -> StateClasses {
        StateClasses::build(auto, &RelNfa::new(&PathSet::parse(paths).unwrap()))
    }

    /// Step (a) alone: the relevant states.
    fn step_a(auto: &DtdAutomaton, classes: &StateClasses) -> StateSet {
        let mut s = StateSet::new(auto.state_count());
        for q in auto.states().skip(1).filter(|&q| classes.relevant(q)) {
            s.insert(q);
        }
        s
    }

    fn names_of(auto: &DtdAutomaton, s: &StateSet) -> Vec<String> {
        let mut v: Vec<String> = s
            .iter()
            .map(|q| {
                format!(
                    "{}{}@{}",
                    if auto.is_close(q) { "/" } else { "" },
                    auto.elem_name(q),
                    auto.branch(q).join(".")
                )
            })
            .collect();
        v.sort();
        v
    }

    /// Paper Example 11: P = {/*, /a/b#} selects a, b-under-a, and then
    /// step (c) adds the dual pair of c (because c contains a second
    /// b-labeled state).
    #[test]
    fn example11_selection() {
        let (_, auto) = example2();
        let s = select_states(&auto, &classes(&auto, &["/*", "/a/b#"]));
        let names = names_of(&auto, &s);
        assert_eq!(
            names,
            vec![
                "/a@a",   // q̂1
                "/b@a.b", // q̂2
                "/c@a.c", // q̂3 (added by step c)
                "a@a",    // q1
                "b@a.b",  // q2
                "c@a.c",  // q3 (added by step c)
            ]
        );
    }

    /// Paper Example 12: P = {/*, //c#}: step (a) selects everything under
    /// c too, step (b) prunes the interior of c.
    #[test]
    fn example12_selection() {
        let (_, auto) = example2();
        let s = select_states(&auto, &classes(&auto, &["/*", "//c#"]));
        let names = names_of(&auto, &s);
        assert_eq!(names, vec!["/a@a", "/c@a.c", "a@a", "c@a.c"]);
    }

    #[test]
    fn step_a_alone_matches_example12_prepruning() {
        let (_, auto) = example2();
        let s = step_a(&auto, &classes(&auto, &["/*", "//c#"]));
        // q0 excluded; a (C1 via /*... via prefix "/" of //c? "/" matches
        // the empty branch only; /* matches [a]), c states (C1), b-inside-c
        // states (C2). The b-under-a states are NOT relevant.
        let names = names_of(&auto, &s);
        assert_eq!(
            names,
            vec!["/a@a", "/b@a.c.b", "/b@a.c.b", "/c@a.c", "a@a", "b@a.c.b", "b@a.c.b", "c@a.c"]
        );
    }

    /// With P = {/*, //b#} every b is copy-on; no stopovers needed because
    /// every b-labeled state is in S.
    #[test]
    fn no_stopover_when_all_same_label_selected() {
        let (_, auto) = example2();
        let s = select_states(&auto, &classes(&auto, &["/*", "//b#"]));
        let names = names_of(&auto, &s);
        assert_eq!(
            names,
            vec!["/a@a", "/b@a.b", "/b@a.c.b", "/b@a.c.b", "a@a", "b@a.b", "b@a.c.b", "b@a.c.b"]
        );
    }

    /// Nested copy-on: the outer # instance prunes inner selected states.
    #[test]
    fn nested_copy_on_prunes_inner() {
        let dtd =
            Dtd::parse(b"<!ELEMENT r (x*)> <!ELEMENT x (y*)> <!ELEMENT y (#PCDATA)>").unwrap();
        let auto = DtdAutomaton::build(&dtd).unwrap();
        let s = select_states(&auto, &classes(&auto, &["/*", "/r/x#", "//y#"]));
        let names = names_of(&auto, &s);
        // y is inside the copy-on x: pruned.
        assert_eq!(names, vec!["/r@r", "/x@r.x", "r@r", "x@r.x"]);
    }

    #[test]
    fn reach_via_skipped_stops_at_s() {
        let (_, auto) = example2();
        let mut s = step_a(&auto, &classes(&auto, &["/*", "/a/b#"])); // before step (c): c states not in S
        s.index();
        let a_open = auto.transitions(StateId::Q0)[0];
        let mut scan = HazardScan::new(&auto);
        let reach = scan.reach(&auto, &[a_open], &s);
        // From <a> we can reach <b> (in S, stop), </a> (in S, stop), <c>
        // (skipped) and </c>. Nothing inside c is selected, so c is crossed
        // in one step: its b's are reached, but not listed.
        let names: Vec<(String, bool)> =
            reach.iter().map(|&r| (auto.elem_name(r).to_string(), auto.is_close(r))).collect();
        assert_eq!(names.len(), 4, "{names:?}");
        let c_open = reach.iter().copied().find(|&r| auto.elem_name(r) == "c").expect("<c>");
        assert_eq!(scan.crossed, [c_open], "skipped scan must cross c's interior");
        // Looking inside c for a stop label finds the b's, and repairs c.
        let mut to_add = Vec::new();
        scan.hazards(&auto, &[a_open], &s, &mut to_add);
        assert_eq!(to_add, [c_open, auto.dual(c_open), c_open, auto.dual(c_open)]);
    }
}
