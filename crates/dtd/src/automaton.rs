//! The document-level DTD-automaton (paper Fig. 5).
//!
//! For a non-recursive DTD, the token language of valid documents (reading
//! only opening and closing tags, text skipped) is regular: the nesting
//! depth is bounded by the element containment DAG. The DTD-automaton makes
//! this explicit. It is built by recursively *expanding* element
//! declarations from the root: each element **instance** in the expansion
//! tree contributes a dual pair of states — `q` entered by reading the
//! opening tag `⟨t⟩` and `q̂` entered by reading the closing tag `⟨/t⟩` —
//! and the Glushkov automaton of the parent's content model wires the
//! instances together.
//!
//! Homogeneity (every transition into a state carries the same label) holds
//! by construction: the label of a transition is the label of its target.
//! Consequently transitions are stored as plain target lists.
//!
//! The build works out each element's wiring once, into flat arrays, then
//! counts the states and transitions of the expansion and writes them in
//! one pre-order pass: states in id order, each with its transitions, no
//! edge list to sort and no per-element allocation.

use crate::error::DtdError;
use crate::glushkov::{members, Positions};
use crate::model::{Dtd, ElemNames, Kind, Node};
use std::collections::BTreeSet;
use std::sync::Arc;

/// Hard cap on expansion size; beyond this the schema is pathological.
const STATE_LIMIT: usize = 200_000;

/// Index of a state in a [`DtdAutomaton`]. State 0 is the initial state
/// `q0`, which carries no label.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct StateId(pub u32);

impl StateId {
    /// The initial state `q0`.
    pub const Q0: StateId = StateId(0);

    fn idx(self) -> usize {
        self.0 as usize
    }
}

/// The label of a non-initial state: the tag token that enters it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TagToken<'a> {
    /// Element name.
    pub name: &'a str,
    /// True for a closing tag `⟨/name⟩`.
    pub close: bool,
}

#[derive(Debug, Clone)]
struct StateData {
    /// The element's id in the `Dtd` (its index in `elem_names`);
    /// `u32::MAX` for `q0`.
    elem: u32,
    close: bool,
    dual: StateId,
    /// Open state of the enclosing element instance (`None` for the root
    /// instance and `q0`).
    parent: Option<StateId>,
    /// One past the last state of the instance's subtree.
    end: u32,
    /// Recursive element: the instance's interior is not expanded into
    /// states; the runtime navigates it by balanced tag counting.
    opaque: bool,
}

/// The homogeneous document-level automaton of a non-recursive DTD.
#[derive(Debug, Clone)]
pub struct DtdAutomaton {
    /// Every element name of the DTD, in id (= name) order: shared with it.
    elem_names: Arc<ElemNames>,
    states: Vec<StateData>,
    /// Outgoing transitions, state by state: `s`'s are
    /// `trans[trans_at[s]..trans_at[s + 1]]`. The label of each is the
    /// target's label.
    trans: Vec<StateId>,
    trans_at: Vec<u32>,
    final_state: StateId,
}

impl DtdAutomaton {
    /// Build the automaton. Fails on recursive DTDs and on schemas whose
    /// expansion exceeds the state budget.
    pub fn build(dtd: &Dtd) -> Result<DtdAutomaton, DtdError> {
        if let Some(e) = dtd.find_cycle() {
            return Err(DtdError::Recursive { element: e.to_string() });
        }
        Self::build_allow_recursion(dtd)
    }

    /// Build the automaton, representing recursive elements as *opaque*
    /// dual pairs (the paper's sketched extension, Sec. II): an opaque
    /// instance contributes its open and close states and a single
    /// open→close transition; its interior is not modelled — the runtime
    /// crosses it with a balanced depth-counting scan over `<e`/`</e`.
    pub fn build_allow_recursion(dtd: &Dtd) -> Result<DtdAutomaton, DtdError> {
        let wiring = Wiring::of(dtd)?;
        let root = dtd.root_id();
        let total = 1 + wiring.size(root) as usize;
        let mut states = Vec::with_capacity(total);
        let mut trans = Vec::with_capacity(1 + wiring.edges(root) as usize);
        let mut trans_at = Vec::with_capacity(total + 1);
        // State `s` of an instance of `e`.
        let state = |e: u32, s: u32, close: bool, parent: Option<StateId>| StateData {
            elem: e,
            close,
            dual: StateId(if close { s - 1 } else { s + 1 }),
            parent,
            end: s - close as u32 + wiring.size(e) as u32,
            opaque: dtd.elem_is_recursive(e),
        };
        states.push(StateData {
            elem: u32::MAX,
            close: false,
            dual: StateId::Q0,
            parent: None,
            end: total as u32,
            opaque: false,
        });
        trans_at.push(0);
        trans.push(StateId(1));
        // Enter the instance of `e` opened at `s`: its open state with the
        // transitions of its own wiring, its close state with those of
        // the parent's wiring (the instance is kid `i` of `p`'s element
        // `pe`, opened at state `p`).
        let mut enter = |e: u32, s: u32, parent: Option<(u32, u32, u32)>| {
            debug_assert_eq!(states.len(), s as usize);
            let up = parent.map(|(p, ..)| StateId(p));
            states.push(state(e, s, false, up));
            trans_at.push(trans.len() as u32);
            trans.extend(wiring.targets(e, 0).iter().map(|&d| StateId(s + d)));
            states.push(state(e, s + 1, true, up));
            trans_at.push(trans.len() as u32);
            if let Some((p, pe, i)) = parent {
                trans.extend(wiring.targets(pe, 1 + i).iter().map(|&d| StateId(p + d)));
            }
        };
        enter(root, 1, None);
        // (open state, element, next kid) of every instance being filled.
        let mut open: Vec<(u32, u32, u32)> = vec![(1, root, 0)];
        while let Some(top) = open.last_mut() {
            let (s, e, i) = *top;
            let Some(&(kid, offset)) = wiring.kids(e).get(i as usize) else {
                open.pop();
                continue;
            };
            top.2 += 1;
            let at = s + offset;
            enter(kid, at, Some((s, e, i)));
            open.push((at, kid, 0));
        }
        trans_at.push(trans.len() as u32);
        Ok(DtdAutomaton {
            elem_names: dtd.elem_names().clone(),
            states,
            trans,
            trans_at,
            final_state: StateId(2),
        })
    }

    /// Total number of states, `q0` included.
    pub fn state_count(&self) -> usize {
        self.states.len()
    }

    /// Iterator over all states.
    pub fn states(&self) -> impl Iterator<Item = StateId> {
        (0..self.states.len() as u32).map(StateId)
    }

    /// The accepting state (the closing tag of the root element).
    pub fn final_state(&self) -> StateId {
        self.final_state
    }

    /// The tag token entering `s`, or `None` for `q0`.
    pub fn label(&self, s: StateId) -> Option<TagToken<'_>> {
        let d = &self.states[s.idx()];
        if d.elem == u32::MAX {
            return None;
        }
        Some(TagToken { name: self.elem_names.get(d.elem as usize), close: d.close })
    }

    /// Element name of `s` (panics on `q0`).
    pub fn elem_name(&self, s: StateId) -> &str {
        self.elem_names.get(self.elem_id(s))
    }

    /// The `Dtd`'s element id of `s`'s element: its index in the DTD's
    /// names, which are in name order, below
    /// [`elem_count`](Self::elem_count) (panics on `q0`, whose label is
    /// none — a caller passing it has a bug).
    pub fn elem_id(&self, s: StateId) -> usize {
        let d = &self.states[s.idx()];
        assert!(d.elem != u32::MAX, "q0 has no label");
        d.elem as usize
    }

    /// Every element name of the DTD, in id order (the DTD's own list).
    pub fn elem_names(&self) -> &Arc<ElemNames> {
        &self.elem_names
    }

    /// Number of element names of the DTD.
    pub fn elem_count(&self) -> usize {
        self.elem_names.len()
    }

    /// The element id of `name`, if the DTD mentions it.
    pub fn elem_by_name(&self, name: &str) -> Option<usize> {
        self.elem_names.find(name)
    }

    /// Dense id of the tag token entering `s`: `element id · 2 + close`,
    /// below [`label_count`](Self::label_count). Two states carry the same
    /// token exactly when their ids are equal, and the ids ascend in
    /// `(name, close)` order, so the static analysis can group, compare
    /// and sort labels without touching a name (panics on `q0`).
    pub fn label_id(&self, s: StateId) -> usize {
        self.elem_id(s) * 2 + self.states[s.idx()].close as usize
    }

    /// Number of distinct tag tokens (the exclusive bound of
    /// [`label_id`](Self::label_id)).
    pub fn label_count(&self) -> usize {
        self.elem_names.len() * 2
    }

    /// The tag token with dense id `id`.
    pub fn label_token(&self, id: usize) -> TagToken<'_> {
        TagToken { name: self.elem_names.get(id / 2), close: id % 2 == 1 }
    }

    /// Is `s` a closing-tag state?
    pub fn is_close(&self, s: StateId) -> bool {
        self.states[s.idx()].close
    }

    /// The dual state (`q` ↔ `q̂`) of the same element instance.
    pub fn dual(&self, s: StateId) -> StateId {
        self.states[s.idx()].dual
    }

    /// The open state of the enclosing element instance. An instance's
    /// states are created before those of the instances it contains, so a
    /// parent's id is always below its children's: one pass over
    /// [`states`](Self::states) in order visits every instance after its
    /// ancestors.
    pub fn parent(&self, s: StateId) -> Option<StateId> {
        self.states[s.idx()].parent
    }

    /// One past the last state of `s`'s instance. An instance is the states
    /// `open..subtree_end(open)`: its open and close state, then the
    /// instances it contains laid out the same way — so instances follow
    /// each other in pre-order, two states apart, and a walk skips a
    /// subtree by jumping here (for `q0`: the state count).
    pub fn subtree_end(&self, s: StateId) -> StateId {
        StateId(self.states[s.idx()].end)
    }

    /// Is `s` a state of an opaque (recursive) element instance?
    pub fn is_opaque(&self, s: StateId) -> bool {
        self.states[s.idx()].opaque
    }

    /// Element names that may occur (at any depth) inside instances of
    /// `elem` — used to reason about what an opaque subtree might contain.
    pub fn descendant_vocabulary<'d>(&self, dtd: &'d Dtd, elem: &str) -> BTreeSet<&'d str> {
        let mut seen: BTreeSet<&str> = BTreeSet::new();
        let mut stack: Vec<&str> = dtd.effective_child_names(elem).into_iter().collect();
        while let Some(c) = stack.pop() {
            if seen.insert(c) {
                stack.extend(dtd.effective_child_names(c));
            }
        }
        seen
    }

    /// Outgoing transitions of `s`. The token labeling each transition is
    /// the target's [`label`](Self::label).
    pub fn transitions(&self, s: StateId) -> &[StateId] {
        &self.trans[self.trans_at[s.idx()] as usize..self.trans_at[s.idx() + 1] as usize]
    }

    /// The document branch of `s` (paper Ex. 9): the chain of element names
    /// from the root down to `s`'s element. Empty for `q0`.
    pub fn branch(&self, s: StateId) -> Vec<&str> {
        let mut out = Vec::new();
        let mut cur = Some(s);
        while let Some(c) = cur {
            if self.states[c.idx()].elem == u32::MAX {
                break;
            }
            out.push(self.elem_name(c));
            cur = self.parent(c);
        }
        out.reverse();
        out
    }

    /// Nesting depth of `s`'s element instance (root = 1, `q0` = 0).
    pub fn depth(&self, s: StateId) -> usize {
        let mut d = 0;
        let mut cur = Some(s);
        while let Some(c) = cur {
            if self.states[c.idx()].elem == u32::MAX {
                break;
            }
            d += 1;
            cur = self.parent(c);
        }
        d
    }

    /// NFA acceptance over a token sequence `(name, is_close)` — text
    /// tokens must already be filtered out by the caller. Used to validate
    /// generated documents against the DTD in tests.
    pub fn accepts<S: AsRef<str>>(&self, tokens: &[(S, bool)]) -> bool {
        let mut current = vec![StateId::Q0];
        for (name, close) in tokens {
            let mut next = Vec::new();
            for &s in &current {
                for &t in self.transitions(s) {
                    // `q0` is no target: every target has an element.
                    if self.is_close(t) == *close
                        && self.elem_name(t) == name.as_ref()
                        && !next.contains(&t)
                    {
                        next.push(t);
                    }
                }
            }
            if next.is_empty() {
                return false;
            }
            current = next;
        }
        current.contains(&self.final_state)
    }
}

/// How every element's content wires the instances of its children
/// between its open and close state, worked out once per element — every
/// instance of an element is wired the same way — into flat arrays.
///
/// An element's *kids* are the child instances one instance of it holds,
/// in order: the positions of its content model's Glushkov automaton, or
/// the listed children of `(n1 | … | nk)*` content (mixed content and
/// `ANY`). Its *slots* are the transition sources its wiring adds: slot 0
/// is its open state, slot `1 + i` the close state of kid `i`. A slot's
/// targets, in the order the transitions are taken, are coded `0` for the
/// element's close state and `1 + i` for the open state of kid `i` until
/// the element's expansion is counted, then rewritten to offsets from the
/// instance's open state, so an instance's transitions are additions.
/// Leaves (`EMPTY`, `(#PCDATA)`) and opaque (recursive) elements have no
/// kids and one transition, open → close.
struct Wiring {
    elems: Vec<ElemWiring>,
    /// Every wired element's kids: (element id, the kid instance's open
    /// state relative to the parent's — 2 plus the sizes of the kids
    /// before it).
    kids: Vec<(u32, u32)>,
    /// `targets[slot_at[k]..slot_at[k + 1]]` are slot `k`'s targets.
    slot_at: Vec<u32>,
    targets: Vec<u32>,
}

/// One element's part of a [`Wiring`].
#[derive(Clone, Copy)]
struct ElemWiring {
    /// Its first kid in `kids` (`u32::MAX`: not wired yet) and how many.
    kid_at: u32,
    kids: u32,
    /// Its first slot.
    slot: u32,
    /// States and transitions of one instance's expansion, its own
    /// included (saturating; 0 until counted).
    size: u64,
    edges: u64,
}

impl Wiring {
    /// Wire every element the root's expansion reaches and count its
    /// expansion; fails once it would exceed the state budget.
    fn of(dtd: &Dtd) -> Result<Wiring, DtdError> {
        let n = dtd.elem_count();
        let unwired = ElemWiring { kid_at: u32::MAX, kids: 0, slot: 0, size: 0, edges: 0 };
        // Every kid is a name of a model or a child of an `ANY`.
        let (kids, longest) = (0..n as u32).fold((0, 0), |(kids, longest), e| {
            let model = dtd.elem_model(e).len();
            let any = if dtd.elem_kind(e) == Kind::Any { dtd.elem_children(e).len() } else { 0 };
            (kids + model + any, longest.max(model))
        });
        let mut w = Wiring {
            elems: vec![unwired; n],
            kids: Vec::with_capacity(kids),
            slot_at: Vec::with_capacity(n + kids + 1),
            targets: Vec::with_capacity(4 * (n + kids)),
        };
        w.slot_at.push(0);
        let mut positions = Positions::with_capacity(longest);
        // Post-order over the elements reached: an element is counted
        // once its kids are. Non-opaque elements form a DAG, so no element
        // waits on itself.
        let mut stack = Vec::with_capacity(n + 1);
        stack.push(dtd.root_id());
        while let Some(&e) = stack.last() {
            let ei = e as usize;
            if w.elems[ei].size != 0 {
                stack.pop();
                continue;
            }
            if w.elems[ei].kid_at == u32::MAX {
                w.wire(dtd, e, &mut positions);
            }
            let pending = stack.len();
            let ElemWiring { kid_at, kids, .. } = w.elems[ei];
            let range = kid_at as usize..(kid_at + kids) as usize;
            stack.extend(
                w.kids[range.clone()]
                    .iter()
                    .map(|k| k.0)
                    .filter(|&k| w.elems[k as usize].size == 0),
            );
            if stack.len() > pending {
                continue;
            }
            stack.pop();
            let k0 = range.start;
            let mut size = 2u64;
            let mut edges = w.targets(e, 0).len() as u64;
            for (i, k) in range.enumerate() {
                w.kids[k].1 = size.min(u32::MAX as u64) as u32;
                let kid = w.elems[w.kids[k].0 as usize];
                size = size.saturating_add(kid.size);
                let slot = w.targets(e, 1 + i as u32).len() as u64;
                edges = edges.saturating_add(kid.edges).saturating_add(slot);
            }
            w.elems[ei].size = size.min(STATE_LIMIT as u64 + 1);
            w.elems[ei].edges = edges;
            // The kids are placed: resolve the coded targets to offsets.
            let slots =
                w.elems[ei].slot as usize..(w.elems[ei].slot + w.elems[ei].kids + 1) as usize;
            let codes = w.slot_at[slots.start] as usize..w.slot_at[slots.end] as usize;
            for t in &mut w.targets[codes] {
                *t = if *t == 0 { 1 } else { w.kids[k0 + *t as usize - 1].1 };
            }
        }
        if 1 + w.size(dtd.root_id()) > STATE_LIMIT as u64 {
            return Err(DtdError::TooLarge { limit: STATE_LIMIT });
        }
        Ok(w)
    }

    /// Work out element `e`'s kids and slots.
    fn wire(&mut self, dtd: &Dtd, e: u32, positions: &mut Positions) {
        let kid_at = self.kids.len() as u32;
        let slot = self.slot_at.len() as u32 - 1;
        let kind = if dtd.elem_is_recursive(e) { Kind::Empty } else { dtd.elem_kind(e) };
        match kind {
            Kind::Undeclared | Kind::Empty | Kind::Pcdata => {
                self.targets.push(0);
                self.slot_at.push(self.targets.len() as u32);
            }
            Kind::Any | Kind::Mixed => {
                if kind == Kind::Any {
                    self.kids.extend(dtd.elem_children(e).iter().map(|&c| (c, 0)));
                } else {
                    self.kids.extend(dtd.elem_model(e).iter().map(|n| match n {
                        Node::Name(c) => (*c, 0),
                        _ => unreachable!("a mixed model lists names"),
                    }));
                }
                // `(n1 | … | nk)*`: the open state and every kid's close
                // state go to the close state or to any kid's open state.
                let k = self.kids.len() as u32 - kid_at;
                for _ in 0..=k {
                    self.targets.extend(0..=k);
                    self.slot_at.push(self.targets.len() as u32);
                }
            }
            Kind::Children => {
                positions.build(dtd.elem_model(e));
                self.kids.extend(positions.labels.iter().map(|&c| (c, 0)));
                self.targets.extend(members(positions.first()).map(|f| 1 + f as u32));
                if positions.nullable {
                    self.targets.push(0);
                }
                self.slot_at.push(self.targets.len() as u32);
                let last = positions.last();
                for x in 0..positions.labels.len() {
                    self.targets.extend(members(positions.follow(x)).map(|y| 1 + y as u32));
                    if last[x / 64] >> (x % 64) & 1 == 1 {
                        self.targets.push(0);
                    }
                    self.slot_at.push(self.targets.len() as u32);
                }
            }
        }
        let kids = self.kids.len() as u32 - kid_at;
        self.elems[e as usize] = ElemWiring { kid_at, kids, slot, size: 0, edges: 0 };
    }

    /// States of one instance of `e`.
    fn size(&self, e: u32) -> u64 {
        self.elems[e as usize].size
    }

    /// Transitions of one instance of `e`, `q0`'s excluded.
    fn edges(&self, e: u32) -> u64 {
        self.elems[e as usize].edges
    }

    /// The kids of `e`: (element id, relative open state).
    fn kids(&self, e: u32) -> &[(u32, u32)] {
        let ElemWiring { kid_at, kids, .. } = self.elems[e as usize];
        &self.kids[kid_at as usize..(kid_at + kids) as usize]
    }

    /// The targets of element `e`'s slot `slot` (coded, or offsets once
    /// `e` is counted).
    fn targets(&self, e: u32, slot: u32) -> &[u32] {
        let k = (self.elems[e as usize].slot + slot) as usize;
        &self.targets[self.slot_at[k] as usize..self.slot_at[k + 1] as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn example2_dtd() -> Dtd {
        Dtd::parse(
            br#"<!DOCTYPE a [ <!ELEMENT a (b|c)*> <!ELEMENT b (#PCDATA)> <!ELEMENT c (b,b?)> ]>"#,
        )
        .unwrap()
    }

    /// Convert "<a> </a> <b>"-style text into (name, close) pairs.
    fn tokens(s: &str) -> Vec<(String, bool)> {
        s.split_whitespace()
            .map(|t| {
                let t = t.trim_start_matches('<').trim_end_matches('>');
                match t.strip_prefix('/') {
                    Some(n) => (n.to_string(), true),
                    None => (t.to_string(), false),
                }
            })
            .collect()
    }

    #[test]
    fn figure5_shape() {
        let auto = DtdAutomaton::build(&example2_dtd()).unwrap();
        // q0 + dual pairs for instances {a, b@a, c@a, b1@c, b2@c}.
        assert_eq!(auto.state_count(), 11);
        // q0 has exactly one transition, to <a>.
        let t = auto.transitions(StateId::Q0);
        assert_eq!(t.len(), 1);
        let a_open = t[0];
        assert_eq!(auto.elem_name(a_open), "a");
        assert!(!auto.is_close(a_open));
        // <a> can be followed by <b>, <c> or </a>.
        let labels: Vec<(String, bool)> = auto
            .transitions(a_open)
            .iter()
            .map(|&s| {
                let l = auto.label(s).unwrap();
                (l.name.to_string(), l.close)
            })
            .collect();
        assert!(labels.contains(&("b".to_string(), false)));
        assert!(labels.contains(&("c".to_string(), false)));
        assert!(labels.contains(&("a".to_string(), true)));
        assert_eq!(labels.len(), 3);
        // Final state is </a>.
        assert_eq!(auto.elem_name(auto.final_state()), "a");
        assert!(auto.is_close(auto.final_state()));
    }

    #[test]
    fn duals_and_parents() {
        let auto = DtdAutomaton::build(&example2_dtd()).unwrap();
        let a_open = auto.transitions(StateId::Q0)[0];
        assert_eq!(auto.dual(auto.dual(a_open)), a_open);
        assert_eq!(auto.parent(a_open), None);
        // Children of <a> report a_open as their parent.
        for &s in auto.transitions(a_open) {
            if !auto.is_close(s) {
                assert_eq!(auto.parent(s), Some(a_open));
            }
        }
    }

    #[test]
    fn parents_precede_children_and_label_ids_are_dense() {
        let auto = DtdAutomaton::build(&example2_dtd()).unwrap();
        assert_eq!(auto.label_count(), 6); // a, b, c × open/close
        for s in auto.states().skip(1) {
            assert!(auto.parent(s).is_none_or(|p| p < s && !auto.is_close(p)));
            let id = auto.label_id(s);
            assert!(id < auto.label_count());
            assert_eq!(auto.label_token(id), auto.label(s).unwrap());
            assert_eq!(auto.label_id(auto.dual(s)), id ^ 1);
        }
    }

    #[test]
    fn branches_match_example9() {
        let auto = DtdAutomaton::build(&example2_dtd()).unwrap();
        assert_eq!(auto.branch(StateId::Q0), Vec::<&str>::new());
        let a_open = auto.transitions(StateId::Q0)[0];
        assert_eq!(auto.branch(a_open), vec!["a"]);
        assert_eq!(auto.branch(auto.dual(a_open)), vec!["a"]);
        let b_open = *auto
            .transitions(a_open)
            .iter()
            .find(|&&s| auto.elem_name(s) == "b" && !auto.is_close(s))
            .unwrap();
        assert_eq!(auto.branch(b_open), vec!["a", "b"]);
        assert_eq!(auto.depth(b_open), 2);
        let c_open = *auto
            .transitions(a_open)
            .iter()
            .find(|&&s| auto.elem_name(s) == "c" && !auto.is_close(s))
            .unwrap();
        let b_in_c = auto.transitions(c_open)[0];
        assert_eq!(auto.branch(b_in_c), vec!["a", "c", "b"]);
    }

    #[test]
    fn acceptance() {
        let auto = DtdAutomaton::build(&example2_dtd()).unwrap();
        assert!(auto.accepts(&tokens("<a> </a>")));
        assert!(auto.accepts(&tokens("<a> <b> </b> </a>")));
        assert!(auto.accepts(&tokens("<a> <c> <b> </b> </c> </a>")));
        assert!(auto.accepts(&tokens("<a> <c> <b> </b> <b> </b> </c> <b> </b> </a>")));
        // c needs at least one b.
        assert!(!auto.accepts(&tokens("<a> <c> </c> </a>")));
        // c allows at most two b's.
        assert!(!auto.accepts(&tokens("<a> <c> <b> </b> <b> </b> <b> </b> </c> </a>")));
        // Wrong root.
        assert!(!auto.accepts(&tokens("<b> </b>")));
        // Incomplete.
        assert!(!auto.accepts(&tokens("<a>")));
        // Empty input is not a document.
        assert!(!auto.accepts::<&str>(&[]));
    }

    #[test]
    fn recursive_dtd_rejected() {
        let dtd = Dtd::parse(b"<!ELEMENT a (b)> <!ELEMENT b (a?)>").unwrap();
        assert!(matches!(DtdAutomaton::build(&dtd), Err(DtdError::Recursive { .. })));
    }

    #[test]
    fn any_content_expands_to_all_elements() {
        let dtd = Dtd::parse(b"<!ELEMENT r ANY> <!ELEMENT x EMPTY>").unwrap();
        // r ANY would contain r itself -> recursive.
        assert!(matches!(DtdAutomaton::build(&dtd), Err(DtdError::Recursive { .. })));
    }

    #[test]
    fn mixed_content_accepts_any_interleaving() {
        let dtd =
            Dtd::parse(b"<!ELEMENT p (#PCDATA|em|b)*> <!ELEMENT em EMPTY> <!ELEMENT b EMPTY>")
                .unwrap();
        let auto = DtdAutomaton::build(&dtd).unwrap();
        assert!(auto.accepts(&tokens("<p> </p>")));
        assert!(auto.accepts(&tokens("<p> <em> </em> <b> </b> <em> </em> </p>")));
        assert!(!auto.accepts(&tokens("<p> <q> </q> </p>")));
    }

    #[test]
    fn figure1_xmark_excerpt_automaton() {
        let dtd = Dtd::parse(
            br#"<!DOCTYPE site [
            <!ELEMENT site (regions)>
            <!ELEMENT regions (africa, asia, australia)>
            <!ELEMENT africa (item*)>
            <!ELEMENT asia (item*)>
            <!ELEMENT australia (item*)>
            <!ELEMENT item (location,name,payment,description,shipping,incategory+)>
            <!ELEMENT incategory EMPTY>
            <!ATTLIST incategory category ID #REQUIRED>
            ]>"#,
        )
        .unwrap();
        let auto = DtdAutomaton::build(&dtd).unwrap();
        // site, regions, 3 continents, 3 items, 3*6 item children:
        // instances = 1 + 1 + 3 + 3 + 18 = 26, states = 1 + 52.
        assert_eq!(auto.state_count(), 53);
        assert!(auto.accepts(&tokens(
            "<site> <regions> <africa> </africa> <asia> </asia> \
             <australia> <item> <location> </location> <name> </name> \
             <payment> </payment> <description> </description> \
             <shipping> </shipping> <incategory> </incategory> </item> \
             </australia> </regions> </site>"
        )));
        assert!(!auto.accepts(&tokens("<site> </site>")));
    }
}
