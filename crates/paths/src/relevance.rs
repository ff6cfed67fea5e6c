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
//! [`RelNfa`] is the form for that: the NFAs of all paths as position
//! masks, built from `P` without materialising `P+`. A [`ConfigStack`]
//! holds the configurations of a branch's prefixes in one flat word array —
//! the set of live NFA positions after each, plus the inherited "inside a
//! `#`-selected instance" bit — so a step down is one
//! [`push`](ConfigStack::push), every predicate on a [`RelConfig`] is a
//! mask test, `O(positions / 64)` per instance instead of a re-walk of the
//! branch per path per prefix, and a walk allocates nothing per instance.

use crate::model::{Axis, NameTest, PathSet, ProjectionPath};
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
        Relevance { original: pset.paths().to_vec(), plus, c3_candidates }
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
}

/// Relevance in configuration form: the NFAs of every path of a path set
/// at once, as position masks, for a walk that asks Def. 3 about every
/// branch of an expansion tree.
///
/// Position `(p, i)` — "the first `i` steps of path `p` are matched" — is
/// bit `base(p) + i`, a path's positions contiguous, so one step of every
/// path's NFA is a mask, a shift by one and an or. The positions are those
/// of `P`, not of `P+`: a prefix `p[..i]` runs the same steps as `p`, so
/// `p`'s positions below `i` stand for it, and a prefix accepts when the
/// last label *entered* its last position — which a configuration records
/// as a flag, since a `//` step keeps a position live after it was
/// entered. Building one costs a word array and a name list, whatever the
/// number of prefixes.
#[derive(Debug, Clone)]
pub struct RelNfa<'p> {
    /// Words per mask.
    width: usize,
    /// The masks back to back, `width` words each: `START`, `FINAL`,
    /// `EXACT`, `SUBTREE`, `STAY`, then one advance mask per row
    /// (row 0 for a label no step names), then per C3 tag the `/t` and the
    /// `//t` mask.
    words: Vec<u64>,
    /// The names steps test for, sorted: `names[i]` advances through row
    /// `i + 1`.
    names: Vec<&'p str>,
    /// Number of C3 tags: names some step tests on the child axis and some
    /// step on the descendant axis.
    c3: usize,
}

/// `(p, 0)` of every path.
const START: usize = 0;
/// `(p, len(p))`: no step left.
const FINAL: usize = 1;
/// The last positions of the name-final paths (`copy tag + atts`).
const EXACT: usize = 2;
/// The last positions of the `#`-flagged paths (C2 at the leaf).
const SUBTREE: usize = 3;
/// Positions whose next step is on the descendant axis: they survive a
/// label they do not consume.
const STAY: usize = 4;
/// The first advance mask: row 0, the positions whose next step is `*`.
const ADVANCE: usize = 5;

fn set(mask: &mut [u64], bit: usize) {
    mask[bit / 64] |= 1 << (bit % 64);
}

fn intersects(a: &[u64], b: &[u64]) -> bool {
    a.iter().zip(b).any(|(x, y)| x & y != 0)
}

impl<'p> RelNfa<'p> {
    /// The configuration form of `set`.
    pub fn new(set: &'p PathSet) -> RelNfa<'p> {
        RelNfa::of_sets(std::slice::from_ref(set))
    }

    /// The configuration form of the union of `sets`. A path two sets
    /// share is run twice, which changes no answer.
    pub fn of_sets(sets: &'p [PathSet]) -> RelNfa<'p> {
        let paths = || sets.iter().flat_map(PathSet::paths);
        let width = paths().map(|p| p.steps.len() + 1).sum::<usize>().div_ceil(64);
        // Every named step: its name, axis and position, by name.
        let mut named: Vec<(&'p str, Axis, usize)> = Vec::new();
        let mut base = 0;
        for p in paths() {
            for (i, step) in p.steps.iter().enumerate() {
                if let NameTest::Name(n) = &step.test {
                    named.push((n, step.axis, base + i));
                }
            }
            base += p.steps.len() + 1;
        }
        named.sort_unstable();
        let mut names: Vec<&'p str> = Vec::new();
        let mut c3 = 0;
        for run in named.chunk_by(|a, b| a.0 == b.0) {
            names.push(run[0].0);
            c3 += (run[0].1 == Axis::Child && run[run.len() - 1].1 == Axis::Descendant) as usize;
        }
        let c3_base = ADVANCE + 1 + names.len();
        let mut nfa =
            RelNfa { width, words: vec![0; width * (c3_base + 2 * c3)], names: Vec::new(), c3 };
        let mut base = 0;
        for p in paths() {
            let end = base + p.steps.len();
            set(nfa.mask_mut(START), base);
            set(nfa.mask_mut(FINAL), end);
            if p.subtree {
                set(nfa.mask_mut(SUBTREE), end);
            }
            if p.last_step().is_some_and(|s| matches!(s.test, NameTest::Name(_))) {
                set(nfa.mask_mut(EXACT), end);
            }
            for (i, step) in p.steps.iter().enumerate() {
                if step.axis == Axis::Descendant {
                    set(nfa.mask_mut(STAY), base + i);
                }
                if step.test == NameTest::Wildcard {
                    set(nfa.mask_mut(ADVANCE), base + i);
                }
            }
            base = end + 1;
        }
        let mut pair = c3_base;
        for (row, run) in named.chunk_by(|a, b| a.0 == b.0).enumerate() {
            let at = (ADVANCE + 1 + row) * width;
            nfa.words.copy_within(ADVANCE * width..(ADVANCE + 1) * width, at);
            for &(_, _, bit) in run {
                set(nfa.mask_mut(ADVANCE + 1 + row), bit);
            }
            // A C3 tag: its `/t` steps, then its `//t` steps. A path ending
            // in such a step selects `parent + [t]` exactly when the step's
            // position is live at the parent.
            if run[0].1 == Axis::Child && run[run.len() - 1].1 == Axis::Descendant {
                for &(_, axis, bit) in run {
                    set(nfa.mask_mut(pair + (axis == Axis::Descendant) as usize), bit);
                }
                pair += 2;
            }
        }
        nfa.names = names;
        nfa
    }

    fn mask(&self, k: usize) -> &[u64] {
        &self.words[k * self.width..(k + 1) * self.width]
    }

    fn mask_mut(&mut self, k: usize) -> &mut [u64] {
        &mut self.words[k * self.width..(k + 1) * self.width]
    }

    /// The names the steps test for, each with the row [`ConfigStack::push`]
    /// advances a label of that name through, by name. Every other label
    /// advances through row 0.
    pub fn named_rows(&self) -> impl Iterator<Item = (&'p str, u32)> + '_ {
        self.names.iter().enumerate().map(|(i, &n)| (n, i as u32 + 1))
    }

    /// The row a label advances through (a binary search: a walk resolves
    /// its labels once, from [`named_rows`](Self::named_rows)).
    pub fn row(&self, label: &str) -> u32 {
        self.names.binary_search(&label).map_or(0, |i| i as u32 + 1)
    }
}

/// The configurations of a branch and of each of its prefixes, deepest
/// last, in one flat array of words: what a walk down an expansion tree
/// keeps of the instances enclosing the one at hand. One stack serves any
/// number of walks over any number of [`RelNfa`]s; it allocates only when a
/// walk goes deeper or wider than every walk before it.
#[derive(Debug, Clone, Default)]
pub struct ConfigStack {
    width: usize,
    words: Vec<u64>,
    /// Per configuration: C1 and C2 (see [`RelConfig`]).
    flags: Vec<(bool, bool)>,
}

impl ConfigStack {
    /// Start a walk of `nfa` at the empty branch (the virtual document
    /// root).
    pub fn start(&mut self, nfa: &RelNfa<'_>) {
        let root = nfa.mask(START);
        self.width = nfa.width;
        self.words.clear();
        self.words.extend_from_slice(root);
        self.flags.clear();
        self.flags.push((root.iter().any(|&w| w != 0), intersects(root, nfa.mask(SUBTREE))));
    }

    /// Labels on the deepest branch.
    pub fn depth(&self) -> usize {
        self.flags.len() - 1
    }

    /// Extend the deepest branch by a label advancing through `row` of
    /// `nfa`, the walk's ([`RelNfa::row`]).
    pub fn push(&mut self, nfa: &RelNfa<'_>, row: u32) {
        let (w, len) = (self.width, self.words.len());
        self.words.resize(len + w, 0);
        let (done, live) = self.words.split_at_mut(len);
        let parent = &done[len - w..];
        let advance = nfa.mask(ADVANCE + row as usize);
        let (mut carry, mut entered) = (0, false);
        for ((out, &word), (&stay, &adv)) in
            live.iter_mut().zip(parent).zip(nfa.mask(STAY).iter().zip(advance))
        {
            let moved = word & adv;
            let shifted = moved << 1 | carry;
            entered |= shifted != 0;
            *out = word & stay | shifted;
            carry = moved >> 63;
        }
        let in_subtree = self.flags[self.flags.len() - 1].1 || intersects(live, nfa.mask(SUBTREE));
        self.flags.push((entered, in_subtree));
    }

    /// Drop the deepest label.
    pub fn pop(&mut self) {
        self.flags.pop();
        self.words.truncate(self.flags.len() * self.width);
    }

    /// The configuration of the prefix with `depth` labels.
    pub fn at<'a>(&'a self, nfa: &'a RelNfa<'_>, depth: usize) -> RelConfig<'a> {
        let (entered, in_subtree) = self.flags[depth];
        let live = &self.words[depth * self.width..(depth + 1) * self.width];
        RelConfig { nfa: nfa.masks(), live, entered, in_subtree }
    }
}

impl RelNfa<'_> {
    /// The masks without the names: what a configuration reads.
    fn masks(&self) -> Masks<'_> {
        let c3_base = ADVANCE + 1 + self.names.len();
        Masks { width: self.width, words: &self.words, c3: c3_base..c3_base + 2 * self.c3 }
    }
}

/// The masks of a [`RelNfa`] as a configuration reads them.
#[derive(Debug, Clone)]
struct Masks<'a> {
    width: usize,
    words: &'a [u64],
    /// The masks of the C3 pairs.
    c3: std::ops::Range<usize>,
}

impl Masks<'_> {
    fn mask(&self, k: usize) -> &[u64] {
        &self.words[k * self.width..(k + 1) * self.width]
    }
}

/// One configuration of a [`ConfigStack`]: which positions of the paths
/// are live after a document branch, whether the last label entered one
/// (C1), and whether a node on the branch is `#`-selected (C2). A child's
/// answers are one [`push`](ConfigStack::push) from its parent's.
#[derive(Debug, Clone)]
pub struct RelConfig<'a> {
    nfa: Masks<'a>,
    live: &'a [u64],
    /// The last label entered a position: the prefix of `P+` ending there
    /// selects the branch's leaf (the empty branch: any path at all).
    entered: bool,
    /// C2 is inherited: once a `#`-flagged path accepts, every branch
    /// below stays inside that instance.
    in_subtree: bool,
}

impl RelConfig<'_> {
    /// C1: the leaf of the branch is selected by a path in `P+`.
    pub fn c1(&self) -> bool {
        self.entered
    }

    /// C1 counting only the complete, name-final paths of `P`
    /// ([`Relevance::c1_exact`]).
    pub fn c1_exact(&self) -> bool {
        intersects(self.live, self.nfa.mask(EXACT))
    }

    /// C2: some node on the branch is selected by a `#`-flagged path.
    pub fn c2(&self) -> bool {
        self.in_subtree
    }

    /// C2 at the leaf itself (drives `copy on`).
    pub fn c2_leaf(&self) -> bool {
        intersects(self.live, self.nfa.mask(SUBTREE))
    }

    /// C3 for the tags whose *parent* branch this is
    /// ([`Relevance::c3_parent`]). A question to the parent because it
    /// speaks about a hypothetical sibling `t`: a path ending in `/t` or
    /// `//t` selects `parent + [t]` exactly when its last step's position
    /// is live here.
    pub fn c3(&self) -> bool {
        self.nfa.c3.clone().step_by(2).any(|pair| {
            intersects(self.live, self.nfa.mask(pair))
                && intersects(self.live, self.nfa.mask(pair + 1))
        })
    }

    /// Def. 3 for a tag with this branch, given its parent's configuration
    /// (C1 ∨ C2 ∨ C3).
    pub fn relevant_tag(&self, parent: &RelConfig<'_>) -> bool {
        self.c1() || self.c2() || parent.c3()
    }

    /// Could a path of `P+` select a node strictly below this branch
    /// ([`Relevance::may_match_below`]): some path is live with a step left.
    pub fn may_match_below(&self) -> bool {
        self.live.iter().zip(self.nfa.mask(FINAL)).any(|(w, fin)| w & !fin != 0)
    }

    /// No position with a step left is live and the branch is not inside a
    /// `#`-selected instance: no label below can enter a position, so
    /// nothing below is relevant, `#`-selected, `c1_exact` or live, and a
    /// walk may skip the subtree.
    pub fn is_dead(&self) -> bool {
        !self.in_subtree && !self.may_match_below()
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
