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

use crate::error::DtdError;
use crate::glushkov::Glushkov;
use crate::model::{ContentModel, Dtd};
use std::collections::BTreeSet;
use std::rc::Rc;
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
    elem_names: Arc<[String]>,
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
        let mut b = Builder {
            dtd,
            wiring: vec![None; dtd.elem_names().len()],
            states: Vec::new(),
            edges: Vec::new(),
        };
        b.states.push(StateData {
            elem: u32::MAX,
            close: false,
            dual: StateId::Q0,
            parent: None,
            end: 0,
            opaque: false,
        });
        // `Dtd::from_parts` gives the root an id like every other name.
        let root = dtd.elem_id(dtd.root()).expect("the root has an element id");
        let (open_root, close_root) = b.expand(root, None)?;
        b.edges.push((StateId::Q0, open_root));
        b.states[0].end = b.states.len() as u32;
        // The transitions by source, each source's in the order wired.
        let mut trans_at = vec![0u32; b.states.len() + 1];
        for &(from, _) in &b.edges {
            trans_at[from.idx() + 1] += 1;
        }
        for i in 1..trans_at.len() {
            trans_at[i] += trans_at[i - 1];
        }
        let mut fill = trans_at.clone();
        let mut trans = vec![StateId::Q0; b.edges.len()];
        for &(from, to) in &b.edges {
            trans[fill[from.idx()] as usize] = to;
            fill[from.idx()] += 1;
        }
        Ok(DtdAutomaton {
            elem_names: dtd.elem_names().clone(),
            states: b.states,
            trans,
            trans_at,
            final_state: close_root,
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
        Some(TagToken { name: &self.elem_names[d.elem as usize], close: d.close })
    }

    /// Element name of `s` (panics on `q0`).
    pub fn elem_name(&self, s: StateId) -> &str {
        &self.elem_names[self.elem_id(s)]
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

    /// Number of element names of the DTD.
    pub fn elem_count(&self) -> usize {
        self.elem_names.len()
    }

    /// The element id of `name`, if the DTD mentions it.
    pub fn elem_by_name(&self, name: &str) -> Option<usize> {
        self.elem_names.binary_search_by(|n| n.as_str().cmp(name)).ok()
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
        TagToken { name: &self.elem_names[id / 2], close: id % 2 == 1 }
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

/// How an element's content wires the instances of its children between
/// its open and close state. Worked out once per element: every instance
/// of the element is wired the same way.
enum Wiring {
    /// `EMPTY` / `(#PCDATA)`: open → close.
    Leaf,
    /// `(n1 | … | nk)*` (mixed content, `ANY`): the child element ids.
    StarOfChoices(Vec<u32>),
    /// Element content: the Glushkov automaton of the content model, and
    /// the element id of each of its positions.
    Positions(Glushkov, Vec<u32>),
}

struct Builder<'d> {
    dtd: &'d Dtd,
    /// Per `Dtd` element id, its content wiring once an instance needed it.
    wiring: Vec<Option<Rc<Wiring>>>,
    states: Vec<StateData>,
    /// Every transition `(from, to)`, in the order wired.
    edges: Vec<(StateId, StateId)>,
}

impl<'d> Builder<'d> {
    fn wiring(&mut self, elem: u32) -> Rc<Wiring> {
        let dtd = self.dtd;
        // `Dtd::from_parts` gives every name a content model mentions an id.
        let id = |n: &String| dtd.elem_id(n).expect("content models mention known elements");
        self.wiring[elem as usize]
            .get_or_insert_with(|| {
                Rc::new(match dtd.elem_decl(elem).map(|d| &d.content) {
                    None | Some(ContentModel::Empty | ContentModel::Pcdata) => Wiring::Leaf,
                    Some(ContentModel::Any) => {
                        Wiring::StarOfChoices(dtd.elem_children(elem).to_vec())
                    }
                    Some(ContentModel::Mixed(names)) => {
                        Wiring::StarOfChoices(names.iter().map(id).collect())
                    }
                    Some(ContentModel::Children(re)) => {
                        let g = Glushkov::build(re);
                        let elems = g.labels.iter().map(id).collect();
                        Wiring::Positions(g, elems)
                    }
                })
            })
            .clone()
    }

    fn new_state(
        &mut self,
        elem: u32,
        close: bool,
        parent: Option<StateId>,
        opaque: bool,
    ) -> Result<StateId, DtdError> {
        if self.states.len() >= STATE_LIMIT {
            return Err(DtdError::TooLarge { limit: STATE_LIMIT });
        }
        let id = StateId(self.states.len() as u32);
        self.states.push(StateData { elem, close, dual: id, parent, end: 0, opaque });
        Ok(id)
    }

    /// Expand one instance of element `elem` (a `Dtd` element id); returns
    /// its (open, close) states.
    fn expand(
        &mut self,
        elem: u32,
        parent: Option<StateId>,
    ) -> Result<(StateId, StateId), DtdError> {
        let opaque = self.dtd.elem_is_recursive(elem);
        let open = self.new_state(elem, false, parent, opaque)?;
        let close = self.new_state(elem, true, parent, opaque)?;
        self.states[open.idx()].dual = close;
        self.states[close.idx()].dual = open;

        if opaque {
            // Interior elided: the subtree is crossed by balanced scanning.
            self.edges.push((open, close));
        } else {
            match &*self.wiring(elem) {
                Wiring::Leaf => self.edges.push((open, close)),
                Wiring::StarOfChoices(children) => {
                    self.expand_star_of_choices(children, open, close)?
                }
                Wiring::Positions(g, elems) => self.expand_positions(g, elems, open, close)?,
            }
        }
        let end = self.states.len() as u32;
        self.states[open.idx()].end = end;
        self.states[close.idx()].end = end;
        Ok((open, close))
    }

    /// Wire `(n1 | … | nk)*` content between `open` and `close`.
    fn expand_star_of_choices(
        &mut self,
        children: &[u32],
        open: StateId,
        close: StateId,
    ) -> Result<(), DtdError> {
        let mut child_states = Vec::with_capacity(children.len());
        for &n in children {
            child_states.push(self.expand(n, Some(open))?);
        }
        self.edges.push((open, close));
        for &(co, _) in &child_states {
            self.edges.push((open, co));
        }
        for &(_, cc) in &child_states {
            self.edges.push((cc, close));
            for &(co2, _) in &child_states {
                self.edges.push((cc, co2));
            }
        }
        Ok(())
    }

    /// Wire element content between `open` and `close` along the Glushkov
    /// automaton `g` of the content model, whose positions are instances
    /// of the elements `elems`.
    fn expand_positions(
        &mut self,
        g: &Glushkov,
        elems: &[u32],
        open: StateId,
        close: StateId,
    ) -> Result<(), DtdError> {
        let mut pos_states = Vec::with_capacity(elems.len());
        for &elem in elems {
            pos_states.push(self.expand(elem, Some(open))?);
        }
        for &f in &g.first {
            self.edges.push((open, pos_states[f].0));
        }
        if g.nullable {
            self.edges.push((open, close));
        }
        for (x, follows) in g.follow.iter().enumerate() {
            let from = pos_states[x].1;
            for &y in follows {
                self.edges.push((from, pos_states[y].0));
            }
        }
        for &l in &g.last {
            self.edges.push((pos_states[l].1, close));
        }
        Ok(())
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
