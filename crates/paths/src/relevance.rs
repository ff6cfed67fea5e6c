//! Token/branch relevance — Definition 3 of the paper (conditions C1, C2,
//! C3).
//!
//! Relevance is evaluated on *document branches*: the chain of element
//! labels from the root down to a token. For a tag token the branch ends
//! with the tag's own label; for a text token the branch is the chain of
//! its ancestors (the text itself carries no label).
//!
//! * **C1** — the leaf of the branch is selected by some path in `P+`.
//! * **C2** — some node on the branch is selected by a `#`-flagged path.
//! * **C3** — there is a tag `t` such that `P+` contains a path ending in a
//!   *child* step on `t` and a path ending in a *descendant* step on `t`,
//!   both selecting the hypothetical sibling branch `parent-branch + [t]`.
//!   This keeps "stopover" tags whose presence disambiguates child from
//!   descendant matches (paper Ex. 6: the `c` tags).
//!
//! Following the runtime's behaviour we apply C3 to tag tokens only: its
//! `⟨t/⟩` substitution speaks about hypothetical sibling *tags*, and the SMP
//! actions can only preserve text inside `copy on/off` regions (C2).
//!
//! # Two forms
//!
//! The predicates on [`Relevance`] that take a branch are the executable
//! statement of Def. 3: each call runs every path's NFA over the whole
//! branch. They are what the token-level oracle calls, and they stay as
//! they are.
//!
//! The static analysis asks the same questions about *every* instance of an
//! expansion tree, where a child's branch is its parent's plus one label.
//! [`RelConfig`] is the form for that: the set of live NFA positions over
//! all paths of `P+` after consuming a branch, as a bitset, plus the
//! inherited "inside a `#`-selected instance" bit. [`Relevance::root`] is
//! the configuration of the empty branch, [`RelConfig::descend`] takes one
//! step, and every predicate is a mask test — `O(positions / 64)` per
//! instance instead of a re-walk of the branch per path per prefix.

use crate::model::{Axis, NameTest, PathSet, ProjectionPath, Step};
use std::collections::BTreeSet;

/// Is `p`'s last step along `axis` with the literal name `t` — one of the
/// two path forms C3 speaks about?
fn ends_in(p: &ProjectionPath, axis: Axis, t: &str) -> bool {
    p.last_step().is_some_and(|s| s.axis == axis && matches!(&s.test, NameTest::Name(n) if n == t))
}

/// Compiled relevance test for a path set.
#[derive(Debug, Clone)]
pub struct Relevance {
    /// The original set `P`.
    original: Vec<ProjectionPath>,
    /// The closure `P+`.
    plus: Vec<ProjectionPath>,
    /// Concrete names appearing as the last step of any path in `P+`, the
    /// candidate `t`s of C3.
    c3_candidates: Vec<String>,
    /// Position masks of the configuration form.
    masks: Masks,
}

impl Relevance {
    /// Compile the relevance test for `P` (computing `P+`).
    pub fn new(pset: &PathSet) -> Relevance {
        let plus = pset.plus_closure();
        let mut cands: BTreeSet<String> = BTreeSet::new();
        for p in &plus {
            if let Some(step) = p.last_step() {
                if let NameTest::Name(n) = &step.test {
                    cands.insert(n.clone());
                }
            }
        }
        let c3_candidates: Vec<String> = cands.into_iter().collect();
        let masks = Masks::new(pset.paths(), &plus, &c3_candidates);
        Relevance { original: pset.paths().to_vec(), plus, c3_candidates, masks }
    }

    /// The closure `P+` in deterministic order.
    pub fn plus(&self) -> &[ProjectionPath] {
        &self.plus
    }

    /// C1: the leaf of `branch` is selected by a path in `P+`.
    pub fn c1<S: AsRef<str>>(&self, branch: &[S]) -> bool {
        self.plus.iter().any(|p| p.matches(branch))
    }

    /// Like C1, but only counting *complete* paths of the original set `P`
    /// (not closure-added prefixes) whose last step names an element. A
    /// node matched this way is one the query itself selects, so the action
    /// table copies its attributes ("copy tag + atts"); nodes kept merely
    /// as ancestors — including via the default well-formedness path `/*` —
    /// get a bare tag (the paper's Fig. 3 assigns plain `copy tag` to the
    /// `/*`-preserved root).
    pub fn c1_exact<S: AsRef<str>>(&self, branch: &[S]) -> bool {
        self.original.iter().any(|p| {
            p.last_step().is_some_and(|s| matches!(s.test, NameTest::Name(_))) && p.matches(branch)
        })
    }

    /// C2: some node on `branch` (any prefix, leaf included) is selected by
    /// a `#`-flagged path.
    pub fn c2<S: AsRef<str>>(&self, branch: &[S]) -> bool {
        self.plus
            .iter()
            .filter(|p| p.subtree)
            .any(|p| (0..=branch.len()).any(|i| p.matches(&branch[..i])))
    }

    /// C2 restricted to the leaf itself: the node is selected by a
    /// `#`-flagged path (drives the `copy on` action).
    pub fn c2_leaf<S: AsRef<str>>(&self, branch: &[S]) -> bool {
        self.plus.iter().filter(|p| p.subtree).any(|p| p.matches(branch))
    }

    /// C3 for a tag whose *parent* branch is `parent`: is there a `t` such
    /// that `P+` contains a path of the form `/p1/…/pi/t` (child-axis last
    /// step on the literal name `t`) and one of the form `/p′1/…/p′j//t`
    /// (descendant-axis last step on `t`), both selecting `parent + [t]`?
    ///
    /// Per the paper the two forms name a literal tag `t`; wildcard-final
    /// paths are not C3 forms (their effect is already covered by prefix
    /// matches under C1).
    pub fn c3_parent<S: AsRef<str>>(&self, parent: &[S]) -> bool {
        let mut probe: Vec<&str> = parent.iter().map(|s| s.as_ref()).collect();
        for t in &self.c3_candidates {
            probe.push(t);
            let form = |axis| self.plus.iter().any(|p| ends_in(p, axis, t) && p.matches(&probe));
            let child_form = form(Axis::Child);
            let desc_form = child_form && form(Axis::Descendant);
            probe.pop();
            if child_form && desc_form {
                return true;
            }
        }
        false
    }

    /// Full relevance of a *tag* token with document branch `branch`
    /// (Def. 3 with C1 ∨ C2 ∨ C3).
    pub fn relevant_tag<S: AsRef<str>>(&self, branch: &[S]) -> bool {
        if branch.is_empty() {
            return false;
        }
        self.c1(branch) || self.c2(branch) || self.c3_parent(&branch[..branch.len() - 1])
    }

    /// Relevance of a *text* token whose ancestor chain is `branch`: text
    /// carries no label, so only C2 over the ancestors applies.
    pub fn relevant_text<S: AsRef<str>>(&self, branch: &[S]) -> bool {
        self.c2(branch)
    }

    /// Could any path of `P+` select a node *strictly below* `branch` in
    /// some document? Used by the recursion extension: when true for an
    /// opaque (recursive) element's branch, the prefilter cannot navigate
    /// inside the subtree and must conservatively copy it whole.
    ///
    /// The test is per-path NFA liveness after consuming `branch`: a step
    /// remains unconsumed in some alive configuration (a descendant-axis
    /// step that is alive can always fire deeper, a child-axis step can
    /// fire one level down).
    pub fn may_match_below<S: AsRef<str>>(&self, branch: &[S]) -> bool {
        self.plus.iter().any(|p| path_live_below(p, branch))
    }

    /// The configuration of the empty branch (the virtual document root):
    /// every path at its first step.
    pub fn root(&self) -> RelConfig<'_> {
        let live = self.masks.start.clone();
        let in_subtree = intersects(&live, &self.masks.subtree);
        RelConfig { masks: &self.masks, live, in_subtree }
    }
}

/// The position masks behind [`RelConfig`]. Position `(p, i)` — "the first
/// `i` steps of path `p` of `P+` are matched" — is bit `base(p) + i`, a
/// path's positions contiguous, so one step of every path's NFA is a mask,
/// a shift by one and an or.
#[derive(Debug, Clone)]
struct Masks {
    /// `(p, 0)` of every path.
    start: Vec<u64>,
    /// `(p, len(p))`: the path selects the branch's leaf (C1).
    accept: Vec<u64>,
    /// The accepting positions of the complete, name-final paths of `P`.
    exact: Vec<u64>,
    /// The accepting positions of the `#`-flagged paths (C2 at the leaf).
    subtree: Vec<u64>,
    /// Positions whose next step is on the descendant axis: they survive a
    /// label they do not consume.
    stay: Vec<u64>,
    /// Positions whose next step is `*`: what any label advances.
    wildcard: Vec<u64>,
    /// Per step name, sorted: the positions that label advances (the
    /// wildcard ones included).
    advance: Vec<(String, Vec<u64>)>,
    /// Per C3 tag `t` with both forms in `P+`: the last-step positions of
    /// the paths ending in `/t`, and of those ending in `//t`.
    c3: Vec<(Vec<u64>, Vec<u64>)>,
}

fn set(mask: &mut [u64], bit: usize) {
    mask[bit / 64] |= 1 << (bit % 64);
}

fn intersects(a: &[u64], b: &[u64]) -> bool {
    a.iter().zip(b).any(|(x, y)| x & y != 0)
}

impl Masks {
    fn new(original: &[ProjectionPath], plus: &[ProjectionPath], c3_tags: &[String]) -> Masks {
        let mut positions = 0;
        let mut bases = Vec::with_capacity(plus.len());
        for p in plus {
            bases.push(positions);
            positions += p.steps.len() + 1;
        }
        let zero = vec![0u64; positions.div_ceil(64)];
        let mut m = Masks {
            start: zero.clone(),
            accept: zero.clone(),
            exact: zero.clone(),
            subtree: zero.clone(),
            stay: zero.clone(),
            wildcard: zero.clone(),
            advance: Vec::new(),
            c3: Vec::new(),
        };
        let mut named: Vec<(&str, usize)> = Vec::new();
        // Per C3 candidate (sorted), its `/t` and `//t` last-step positions.
        let mut forms = vec![(zero.clone(), zero.clone()); c3_tags.len()];
        for (p, &base) in plus.iter().zip(&bases) {
            let end = base + p.steps.len();
            set(&mut m.start, base);
            set(&mut m.accept, end);
            if p.subtree {
                set(&mut m.subtree, end);
            }
            if let Some(Step { axis, test: NameTest::Name(t) }) = p.last_step() {
                if original.contains(p) {
                    set(&mut m.exact, end);
                }
                let i = c3_tags.binary_search(t).expect("every final name is a candidate");
                let (child, desc) = &mut forms[i];
                set(if *axis == Axis::Child { child } else { desc }, end - 1);
            }
            for (i, step) in p.steps.iter().enumerate() {
                if step.axis == Axis::Descendant {
                    set(&mut m.stay, base + i);
                }
                match &step.test {
                    NameTest::Wildcard => set(&mut m.wildcard, base + i),
                    NameTest::Name(n) => named.push((n, base + i)),
                }
            }
        }
        named.sort_unstable();
        for (name, bit) in named {
            if m.advance.last().is_none_or(|(n, _)| n != name) {
                m.advance.push((name.to_string(), m.wildcard.clone()));
            }
            set(&mut m.advance.last_mut().expect("just pushed").1, bit);
        }
        m.c3 = forms
            .into_iter()
            .filter(|(child, desc)| [child, desc].iter().all(|f| f.iter().any(|&w| w != 0)))
            .collect();
        m
    }
}

/// Relevance in configuration form: which positions of the paths of `P+`
/// are live after a document branch, and whether a node on the branch is
/// `#`-selected. Obtained from [`Relevance::root`] and [`descend`]; a
/// child's answers are one step from its parent's (module docs).
///
/// [`descend`]: RelConfig::descend
#[derive(Debug, Clone)]
pub struct RelConfig<'r> {
    masks: &'r Masks,
    live: Vec<u64>,
    /// C2 is inherited: once a `#`-flagged path accepts, every branch
    /// below stays inside that instance.
    in_subtree: bool,
}

impl<'r> RelConfig<'r> {
    /// The configuration of this branch extended by a child `label`.
    pub fn descend(&self, label: &str) -> RelConfig<'r> {
        let m = self.masks;
        let advance = match m.advance.binary_search_by(|(n, _)| n.as_str().cmp(label)) {
            Ok(i) => &m.advance[i].1,
            Err(_) => &m.wildcard,
        };
        let mut live = Vec::with_capacity(self.live.len());
        let mut carry = 0;
        for ((&w, &stay), &adv) in self.live.iter().zip(&m.stay).zip(advance) {
            let moved = w & adv;
            live.push(w & stay | moved << 1 | carry);
            carry = moved >> 63;
        }
        let in_subtree = self.in_subtree || intersects(&live, &m.subtree);
        RelConfig { masks: m, live, in_subtree }
    }

    /// C1: the leaf of the branch is selected by a path in `P+`.
    pub fn c1(&self) -> bool {
        intersects(&self.live, &self.masks.accept)
    }

    /// C1 counting only the complete, name-final paths of `P`
    /// ([`Relevance::c1_exact`]).
    pub fn c1_exact(&self) -> bool {
        intersects(&self.live, &self.masks.exact)
    }

    /// C2: some node on the branch is selected by a `#`-flagged path.
    pub fn c2(&self) -> bool {
        self.in_subtree
    }

    /// C2 at the leaf itself (drives `copy on`).
    pub fn c2_leaf(&self) -> bool {
        intersects(&self.live, &self.masks.subtree)
    }

    /// C3 for the tags whose *parent* branch this is
    /// ([`Relevance::c3_parent`]). A question to the parent because it
    /// speaks about a hypothetical sibling `t`: a path ending in `/t` or
    /// `//t` selects `parent + [t]` exactly when its last-step position is
    /// live here.
    pub fn c3(&self) -> bool {
        self.masks
            .c3
            .iter()
            .any(|(child, desc)| intersects(&self.live, child) && intersects(&self.live, desc))
    }

    /// Def. 3 for a tag with this branch, given its parent's configuration
    /// (C1 ∨ C2 ∨ C3).
    pub fn relevant_tag(&self, parent: &RelConfig<'_>) -> bool {
        self.c1() || self.c2() || parent.c3()
    }

    /// Could a path of `P+` select a node strictly below this branch
    /// ([`Relevance::may_match_below`]): some path is live with a step left.
    pub fn may_match_below(&self) -> bool {
        self.live.iter().zip(&self.masks.accept).any(|(w, acc)| w & !acc != 0)
    }
}

/// NFA liveness of `p` strictly below `branch`.
fn path_live_below<S: AsRef<str>>(p: &ProjectionPath, branch: &[S]) -> bool {
    let n = p.steps.len();
    let mut states = vec![false; n + 1];
    states[0] = true;
    for label in branch {
        let label = label.as_ref();
        let mut next = vec![false; n + 1];
        for i in 0..n {
            if !states[i] {
                continue;
            }
            let step = &p.steps[i];
            if step.test.accepts(label) {
                next[i + 1] = true;
            }
            if step.axis == Axis::Descendant {
                next[i] = true;
            }
        }
        states = next;
        if states.iter().all(|&s| !s) {
            return false;
        }
    }
    // Alive with at least one step left: the remaining step(s) can match
    // one or more levels further down.
    states[..n].iter().any(|&s| s)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rel(paths: &[&str]) -> Relevance {
        Relevance::new(&PathSet::parse(paths).unwrap())
    }

    /// Paper Example 6 in full: query <x>{/a/b,//b}</x> over
    /// D = <a><c><b>T</b></c></a>; every token is relevant.
    #[test]
    fn example6_all_tokens_relevant() {
        let r = rel(&["/*", "/a/b#", "//b#"]);
        // a-tags: C1 via prefix /a.
        assert!(r.c1(&["a"]));
        assert!(r.relevant_tag(&["a"]));
        // b-tags: C1 via //b#.
        assert!(r.c1(&["a", "c", "b"]));
        assert!(r.relevant_tag(&["a", "c", "b"]));
        // Text "T": C2 (inside //b# subtree).
        assert!(r.relevant_text(&["a", "c", "b"]));
        // c-tags: neither C1 nor C2 …
        assert!(!r.c1(&["a", "c"]));
        assert!(!r.c2(&["a", "c"]));
        // … but C3 with t = b.
        assert!(r.c3_parent(&["a"]));
        assert!(r.relevant_tag(&["a", "c"]));
    }

    #[test]
    fn without_the_child_form_c3_does_not_fire() {
        // Only //b#: keeping c is unnecessary.
        let r = rel(&["/*", "//b#"]);
        assert!(!r.c3_parent(&["a"]));
        assert!(!r.relevant_tag(&["a", "c"]));
    }

    #[test]
    fn without_the_descendant_form_c3_does_not_fire() {
        let r = rel(&["/*", "/a/b#"]);
        assert!(!r.c3_parent(&["a"]));
        assert!(!r.relevant_tag(&["a", "c"]));
    }

    #[test]
    fn c3_only_at_the_right_depth() {
        let r = rel(&["/*", "/a/b#", "//b#"]);
        // Parent branch [a, c]: /a/b does not match [a, c, b] (wrong depth).
        assert!(!r.c3_parent(&["a", "c"]));
        // Parent branch []: /a/b does not match [b].
        assert!(!r.c3_parent(&[] as &[&str]));
    }

    #[test]
    fn c2_covers_whole_subtree() {
        let r = rel(&["/a#"]);
        assert!(r.c2(&["a"]));
        assert!(r.c2(&["a", "x"]));
        assert!(r.c2(&["a", "x", "y"]));
        assert!(!r.c2(&["b"]));
        assert!(r.c2_leaf(&["a"]));
        assert!(!r.c2_leaf(&["b", "a", "c"]));
    }

    #[test]
    fn prefix_paths_keep_ancestors() {
        let r = rel(&["/site/regions/australia/item/name#"]);
        assert!(r.c1(&["site"]));
        assert!(r.c1(&["site", "regions"]));
        assert!(r.c1(&["site", "regions", "australia"]));
        assert!(r.c1(&["site", "regions", "australia", "item"]));
        assert!(!r.c1(&["site", "people"]));
        assert!(!r.relevant_tag(&["site", "people"]));
    }

    #[test]
    fn star_path_keeps_top_level_node_only() {
        let r = rel(&["/*"]);
        assert!(r.relevant_tag(&["site"]));
        assert!(!r.relevant_tag(&["site", "regions"]));
        assert!(!r.relevant_text(&["site"]));
    }

    #[test]
    fn star_hash_keeps_everything() {
        let r = rel(&["/*#"]);
        assert!(r.relevant_tag(&["a"]));
        assert!(r.relevant_tag(&["a", "b", "c"]));
        assert!(r.relevant_text(&["a", "b"]));
    }

    #[test]
    fn wildcard_last_steps_are_not_c3_forms() {
        // Wildcard-final paths do not create C3 obligations: a wildcard
        // child path already makes every child C1-relevant via prefixes.
        let r = rel(&["/a/*", "//*"]);
        assert!(!r.c3_parent(&["a"]));
        assert!(r.c1(&["a", "anything"])); // covered by C1 instead
    }

    #[test]
    fn text_never_c1() {
        let r = rel(&["/a/b"]);
        assert!(!r.relevant_text(&["a", "b"]));
        assert!(r.relevant_tag(&["a", "b"]));
    }

    #[test]
    fn empty_branch_tag_is_irrelevant() {
        let r = rel(&["/a"]);
        assert!(!r.relevant_tag(&[] as &[&str]));
    }
}
