//! Determinization of `D|S` and emission of the runtime lookup tables.
//!
//! The paper's four tables (Fig. 3) are packaged per runtime-DFA state:
//!
//! * `V[q]` — the frontier vocabulary, here the [`Keyword`] list: the byte
//!   patterns `<name` / `</name` to scan for (trailing bracket excluded, as
//!   tags may contain attributes or whitespace),
//! * `A[q, token]` — the transition function, stored as each keyword's
//!   `target`,
//! * `J[q]` — the initial jump offset (minimum over the member states'
//!   contracted-transition gaps),
//! * `T[q]` — the action, attached to states thanks to homogeneity, which
//!   subset construction preserves (Champarnaud \[25\]).
//!
//! When determinization merges member states whose actions differ, the
//! *strongest* action wins (`copy on/off` ≻ `copy tag + atts` ≻ `copy tag`
//! ≻ `nop`): preserving more nodes never violates projection-safety
//! (Lemma 1), it only costs output size. The differential tests against the
//! token-level oracle check that this conservatism rarely triggers.

use super::classes::StateClasses;
use super::subgraph::Subgraph;
use super::CompileCounts;
use crate::idset::QueryIdSet;
use smpx_dtd::{DtdAutomaton, ElemNames, StateId};
use smpx_stringmatch::memscan::TagUniverse;
use std::collections::HashMap;
use std::sync::Arc;

/// The action `T[q]` performed when entering a state (paper Fig. 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Action {
    /// Do nothing (orientation stopovers).
    Nop,
    /// Emit the matched tag; with `with_atts` the raw source tag is copied,
    /// otherwise a bare `<name>` / `</name>` is reconstructed.
    CopyTag {
        /// Copy the attributes too?
        with_atts: bool,
    },
    /// Start raw copying at this opening tag (`copy on`).
    CopyOn,
    /// Stop raw copying after this closing tag and emit the range
    /// (`copy off`).
    CopyOff,
}

impl Action {
    /// Does entering a state with this action signal a potential query
    /// match? `copy on`/`copy off` fire exactly at `#`-matched instances
    /// and `copy tag + atts` exactly at C1-exact tags — the tokens a
    /// query selects. Bare `copy tag` is structural skeleton (every
    /// document's root fires it) and `nop` is orientation only, so
    /// neither counts. The join below preserves membership in this hit
    /// class exactly: a merged state indicates a match iff some member
    /// does.
    pub(crate) fn indicates_match(self) -> bool {
        matches!(self, Action::CopyOn | Action::CopyOff | Action::CopyTag { with_atts: true })
    }

    /// Conservative join for merged member states (see module docs).
    fn join(self, other: Action) -> Action {
        use Action::*;
        match (self, other) {
            (CopyOn, _) | (_, CopyOn) => CopyOn,
            (CopyOff, _) | (_, CopyOff) => CopyOff,
            (CopyTag { with_atts: a }, CopyTag { with_atts: b }) => CopyTag { with_atts: a || b },
            (CopyTag { with_atts }, Nop) | (Nop, CopyTag { with_atts }) => CopyTag { with_atts },
            (Nop, Nop) => Nop,
        }
    }
}

/// One entry of the frontier vocabulary `V[q]` with its `A[q, ·]` target.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Keyword {
    /// The scan pattern: `<name` or `</name` (no trailing bracket).
    pub bytes: Vec<u8>,
    /// The tag name.
    pub name: String,
    /// Closing-tag keyword?
    pub close: bool,
    /// Runtime-DFA state entered when this token is matched.
    pub target: u32,
}

impl AsRef<[u8]> for Keyword {
    /// The scan pattern.
    fn as_ref(&self) -> &[u8] {
        &self.bytes
    }
}

/// One runtime-DFA state with its table rows.
#[derive(Debug, Clone)]
pub struct RtState {
    /// The token label entering this state (`None` for the start state).
    pub label: Option<(String, bool)>,
    /// `V[q]` + `A[q, ·]`, sorted by pattern bytes for determinism.
    pub keywords: Vec<Keyword>,
    /// `J[q]`.
    pub jump: u32,
    /// `T[q]`.
    pub action: Action,
    /// May the document end in this state (diagnostics; the runtime also
    /// simply stops when no further keyword occurs)?
    pub is_final: bool,
    /// Recursion extension: this open state belongs to a recursive
    /// element; instead of the normal frontier search the runtime crosses
    /// the subtree with a balanced depth-counting scan for `<e`/`</e`.
    pub balanced: bool,
}

/// Query attribution for a multi-query (registry) automaton: which
/// registered queries each runtime-DFA state's match events belong to.
#[derive(Debug, Clone)]
pub struct Attribution {
    /// Number of registered queries (ids are `0..n_queries`).
    pub n_queries: u32,
    /// Per runtime state, the ids of the queries for which entering this
    /// state is a match event — empty for purely structural states.
    /// Indexed like [`CompiledTables::states`].
    pub state_hits: Vec<QueryIdSet>,
}

impl Attribution {
    /// Approximate heap bytes of the attribution table.
    pub fn table_bytes(&self) -> usize {
        self.state_hits.capacity() * std::mem::size_of::<QueryIdSet>()
            + self.state_hits.iter().map(QueryIdSet::memory_bytes).sum::<usize>()
    }
}

/// What entering a runtime state does besides moving there, as the Fig. 4
/// loop reads it from a [`TokenRow`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Entry {
    /// `T[q]`.
    pub action: Action,
    /// The state crosses its element's subtree with the balanced scan.
    pub balanced: bool,
    /// Entering it is a match event ([`Action`]'s hit class).
    pub event: bool,
    /// Entering it attributes a non-empty query-id set (registry tables).
    pub attributed: bool,
}

/// [`TokenRow::close_target`] of a row whose target has no closing
/// keyword of its own element: taking the close transition without a
/// search is an [`UnexpectedToken`](crate::CoreError::UnexpectedToken).
pub const NO_CLOSE: u32 = u32::MAX;

/// One keyword of `V[q]` with its `A[q, ·]` transition, flattened for the
/// Fig. 4 loop: everything a token step needs is in one row, and no name
/// is compared at run time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TokenRow {
    /// Pattern length (`<name` / `</name`, no bracket).
    pub len: u32,
    /// Closing-tag keyword?
    pub close: bool,
    /// `A[q, token]`.
    pub target: u32,
    /// For an open keyword, `A[target, </name]`: where the element's own
    /// closing tag leads, which a bachelor tag or a balanced scan takes
    /// without searching for it; [`NO_CLOSE`] when `V[target]` has no
    /// such keyword, and for close keywords.
    pub close_target: u32,
    /// Entering `target`.
    pub on: Entry,
    /// Entering `close_target` (a no-op entry without one).
    pub on_close: Entry,
}

/// The complete compiled lookup tables; state 0 is the start state.
#[derive(Debug, Clone)]
pub struct CompiledTables {
    /// Runtime-DFA states.
    pub states: Vec<RtState>,
    /// Length of the longest keyword (window sizing for streaming).
    pub max_kw_len: usize,
    /// Multi-query attribution (`Some` exactly for registry-compiled
    /// automata; `None` keeps the single-query runtime path unchanged).
    pub attribution: Option<Attribution>,
    /// Every element name the DTD mentions (the list `Dtd` shares): the
    /// tags a document can hold besides the ones a state searches for.
    pub elem_names: Arc<ElemNames>,
    /// The `<name` / `</name` tokens of `elem_names` as the matcher builds
    /// read them: each state's candidate filter is fitted against it (the
    /// one universe of the DTD's analysis, shared).
    pub universe: Arc<TagUniverse>,
    /// Per state, the first state with the same keyword list: a matcher
    /// depends on nothing else, so states that share a vocabulary share
    /// the matcher built for this one.
    vocab: Vec<u32>,
    /// The [`TokenRow`]s of every state back to back, in keyword order;
    /// state `q`'s are `rows[row_at[q]..row_at[q + 1]]`.
    rows: Vec<TokenRow>,
    row_at: Vec<u32>,
    /// `J[q]` of every state, dense.
    jumps: Vec<u32>,
    /// Every state's tag as a `copy tag` without attributes emits it, back
    /// to back; state `q`'s is `bare[bare_at[q]..bare_at[q + 1]]`.
    bare: Vec<u8>,
    bare_at: Vec<u32>,
    /// What the static analysis that built the tables did.
    pub(crate) counts: CompileCounts,
}

impl CompiledTables {
    /// Package determinized states as tables over a DTD mentioning the
    /// elements `elem_names` — registry tables with `attribution`,
    /// single-query ones without.
    pub(crate) fn new(
        states: Vec<RtState>,
        elem_names: &Arc<ElemNames>,
        universe: &Arc<TagUniverse>,
        attribution: Option<Attribution>,
    ) -> CompiledTables {
        let max_kw_len =
            states.iter().flat_map(|s| s.keywords.iter().map(|k| k.bytes.len())).max().unwrap_or(1);
        let entry = |q: u32| {
            let s = &states[q as usize];
            Entry {
                action: s.action,
                balanced: s.balanced,
                event: s.action.indicates_match(),
                attributed: attribution
                    .as_ref()
                    .is_some_and(|att| !att.state_hits[q as usize].is_empty()),
            }
        };
        let mut rows = Vec::with_capacity(states.iter().map(|s| s.keywords.len()).sum());
        let mut row_at = Vec::with_capacity(states.len() + 1);
        for s in &states {
            row_at.push(rows.len() as u32);
            for k in &s.keywords {
                let close_target = if k.close { NO_CLOSE } else { close_target(&states, k.target) };
                rows.push(TokenRow {
                    len: k.bytes.len() as u32,
                    close: k.close,
                    target: k.target,
                    close_target,
                    on: entry(k.target),
                    on_close: match close_target {
                        NO_CLOSE => Entry {
                            action: Action::Nop,
                            balanced: false,
                            event: false,
                            attributed: false,
                        },
                        c => entry(c),
                    },
                });
            }
        }
        row_at.push(rows.len() as u32);
        let mut bare = Vec::new();
        let mut bare_at = Vec::with_capacity(states.len() + 1);
        for s in &states {
            bare_at.push(bare.len() as u32);
            if let Some((name, close)) = &s.label {
                bare.extend_from_slice(if *close { b"</" } else { b"<" });
                bare.extend_from_slice(name.as_bytes());
                bare.push(b'>');
            }
        }
        bare_at.push(bare.len() as u32);
        let jumps = states.iter().map(|s| s.jump).collect();
        let vocab = first_of_each_vocabulary(&states);
        CompiledTables {
            states,
            max_kw_len,
            attribution,
            elem_names: elem_names.clone(),
            universe: universe.clone(),
            vocab,
            rows,
            row_at,
            jumps,
            bare,
            bare_at,
            counts: CompileCounts::default(),
        }
    }

    /// What the static analysis that built these tables did (`smpx
    /// --stats` prints it).
    #[doc(hidden)]
    pub fn compile_counts(&self) -> CompileCounts {
        self.counts
    }

    /// State `q`'s [`TokenRow`]s, one per keyword in keyword order (empty
    /// for a final state).
    #[inline]
    pub fn rows(&self, q: u32) -> &[TokenRow] {
        &self.rows[self.row_at[q as usize] as usize..self.row_at[q as usize + 1] as usize]
    }

    /// `J[q]`.
    #[inline]
    pub fn jump(&self, q: u32) -> u32 {
        self.jumps[q as usize]
    }

    /// State `q`'s tag as `copy tag` rebuilds it without attributes:
    /// `<name>` for an open state, `</name>` for a close state (empty for
    /// the start state).
    #[inline]
    pub fn bare_tag(&self, q: u32) -> &[u8] {
        &self.bare[self.bare_at[q as usize] as usize..self.bare_at[q as usize + 1] as usize]
    }

    /// The first state whose keyword list equals `q`'s: the state whose
    /// matcher `q` searches with.
    #[inline]
    pub(crate) fn vocab(&self, q: u32) -> u32 {
        self.vocab[q as usize]
    }

    /// Number of distinct keyword lists — the matchers a run builds at
    /// most (one for the empty list of final states included).
    #[doc(hidden)]
    pub fn vocabularies(&self) -> usize {
        self.vocab.iter().enumerate().filter(|&(q, &v)| q == v as usize).count()
    }

    /// Number of states whose frontier vocabulary needs Commentz–Walter
    /// (≥ 2 keywords).
    pub fn cw_states(&self) -> usize {
        self.states.iter().filter(|s| s.keywords.len() >= 2).count()
    }

    /// Number of states searched with Boyer–Moore (exactly 1 keyword).
    pub fn bm_states(&self) -> usize {
        self.states.iter().filter(|s| s.keywords.len() == 1).count()
    }

    /// Total number of runtime-DFA states (paper's `States`).
    pub fn state_count(&self) -> usize {
        self.states.len()
    }

    /// Approximate heap bytes of the static tables (before lazy matcher
    /// construction) — part of the paper's `Mem` column.
    pub fn table_bytes(&self) -> usize {
        let mut total = self.states.capacity() * std::mem::size_of::<RtState>();
        for s in &self.states {
            for k in &s.keywords {
                total += k.bytes.len() + k.name.len() + std::mem::size_of::<Keyword>();
            }
            if let Some((n, _)) = &s.label {
                total += n.len();
            }
        }
        if let Some(att) = &self.attribution {
            total += att.table_bytes();
        }
        total += self.rows.capacity() * std::mem::size_of::<TokenRow>()
            + (self.row_at.capacity()
                + self.jumps.capacity()
                + self.bare_at.capacity()
                + self.vocab.capacity())
                * std::mem::size_of::<u32>()
            + self.bare.capacity();
        total + self.universe.heap_bytes()
    }
}

/// `A[open, </name]` for the open state `open` of element `name` — the
/// one closing keyword of its own element in `V[open]` — or [`NO_CLOSE`].
fn close_target(states: &[RtState], open: u32) -> u32 {
    let state = &states[open as usize];
    let Some((name, _)) = &state.label else {
        return NO_CLOSE;
    };
    state.keywords.iter().find(|k| k.close && k.name == *name).map_or(NO_CLOSE, |k| k.target)
}

/// The member states of every runtime-DFA state, back to back: state
/// `i`'s are `members[at[i]..at[i + 1]]`, ascending.
pub(crate) struct Subsets {
    members: Vec<StateId>,
    at: Vec<u32>,
}

impl Subsets {
    /// The members of runtime state `i`.
    pub(crate) fn get(&self, i: usize) -> &[StateId] {
        &self.members[self.at[i] as usize..self.at[i + 1] as usize]
    }

    fn len(&self) -> usize {
        self.at.len() - 1
    }

    fn push(&mut self, members: &[StateId]) {
        self.members.extend_from_slice(members);
        self.at.push(self.members.len() as u32);
    }
}

/// Subset construction over `D|S`, producing the runtime-DFA states with
/// their table rows along with each state's member set — the compile
/// driver re-checks orientation hazards on the merged states (see
/// `compile()`), which the per-NFA-state step (c) cannot see when an
/// ambiguous content model makes `D` nondeterministic.
///
/// Successor subsets are numbered in order of their token `(name, close)`
/// — the order of the automaton's label ids — so the tables do not depend
/// on the order the DTD declares its elements in. The grouping itself runs
/// on label ids; a name is materialised once per emitted keyword.
pub(crate) fn determinize_with_subsets(
    auto: &DtdAutomaton,
    classes: &StateClasses,
    sub: &Subgraph,
) -> (Vec<RtState>, Subsets) {
    let mut subsets = Subsets { members: vec![StateId::Q0], at: vec![0, 1] };
    // The runtime state of each one-member subset (most are: a DTD's
    // content models are 1-unambiguous), and of each larger one.
    let mut single = vec![u32::MAX; auto.state_count()];
    single[0] = 0;
    let mut index: HashMap<Vec<StateId>, u32> = HashMap::new();
    let mut states: Vec<RtState> = Vec::new();
    // The members of the state at hand, and their transitions as
    // (label id, target).
    let mut members: Vec<StateId> = Vec::new();
    let mut moves: Vec<(usize, StateId)> = Vec::new();
    let mut targets: Vec<StateId> = Vec::new();

    while states.len() < subsets.len() {
        members.clear();
        members.extend_from_slice(subsets.get(states.len()));
        let mut jump: Option<u32> = None;
        moves.clear();
        for &m in &members {
            for &(tgt, gap) in sub.trans(m) {
                jump = Some(jump.map_or(gap, |j| j.min(gap)));
                moves.push((auto.label_id(tgt), tgt));
            }
        }
        moves.sort_unstable();
        moves.dedup();

        // Label and action: homogeneity guarantees all members agree on the
        // label; actions are joined.
        let labeled = || members.iter().copied().filter(|&m| m != StateId::Q0);
        let label = labeled().next().map(|m| (auto.elem_name(m).to_string(), auto.is_close(m)));
        let action = labeled().map(|m| classes.action(m)).fold(Action::Nop, Action::join);
        let balanced = labeled().any(|m| auto.is_opaque(m) && !auto.is_close(m));
        let is_final = members.iter().any(|&m| sub.is_final(m));

        // Keywords and successor subsets, one per run of equal labels.
        let mut keywords = Vec::with_capacity(moves.chunk_by(|a, b| a.0 == b.0).count());
        for group in moves.chunk_by(|a, b| a.0 == b.0) {
            targets.clear();
            targets.extend(group.iter().map(|&(_, tgt)| tgt));
            let known = match *targets {
                [one] => single[one.0 as usize],
                _ => index.get(targets.as_slice()).copied().unwrap_or(u32::MAX),
            };
            let target = if known != u32::MAX {
                known
            } else {
                let next = subsets.len() as u32;
                match *targets {
                    [one] => single[one.0 as usize] = next,
                    _ => drop(index.insert(targets.clone(), next)),
                }
                subsets.push(&targets);
                next
            };
            let token = auto.label_token(group[0].0);
            let mut bytes = Vec::with_capacity(token.name.len() + 2);
            bytes.push(b'<');
            if token.close {
                bytes.push(b'/');
            }
            bytes.extend_from_slice(token.name.as_bytes());
            keywords.push(Keyword {
                bytes,
                name: token.name.to_string(),
                close: token.close,
                target,
            });
        }
        keywords.sort_by(|a, b| a.bytes.cmp(&b.bytes));

        states.push(RtState {
            label,
            keywords,
            jump: jump.unwrap_or(0),
            action,
            is_final,
            balanced,
        });
    }

    (states, subsets)
}

/// Per state, the first state whose keyword list (the byte patterns, in
/// order) is the same.
fn first_of_each_vocabulary(states: &[RtState]) -> Vec<u32> {
    let patterns = |q: u32| states[q as usize].keywords.iter().map(|k| k.bytes.as_slice());
    let mut order: Vec<u32> = (0..states.len() as u32).collect();
    order.sort_unstable_by(|&a, &b| patterns(a).cmp(patterns(b)).then(a.cmp(&b)));
    let mut first = vec![0u32; states.len()];
    for (i, &q) in order.iter().enumerate() {
        first[q as usize] = if i > 0 && patterns(order[i - 1]).eq(patterns(q)) {
            first[order[i - 1] as usize]
        } else {
            q
        };
    }
    first
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::compile;
    use smpx_dtd::Dtd;
    use smpx_paths::PathSet;

    const EX2: &[u8] =
        br#"<!DOCTYPE a [ <!ELEMENT a (b|c)*> <!ELEMENT b (#PCDATA)> <!ELEMENT c (b,b?)> ]>"#;

    fn tables(dtd: &[u8], paths: &[&str]) -> CompiledTables {
        let dtd = Dtd::parse(dtd).unwrap();
        let paths = PathSet::parse(paths).unwrap();
        compile(&dtd, &paths).unwrap()
    }

    /// The paper's Fig. 3 runtime automaton: 7 states (q0, q1, q̂1, q2, q̂2,
    /// q3, q̂3), V as listed, J[q3] = 4, T as listed.
    #[test]
    fn figure3_tables() {
        let t = tables(EX2, &["/*", "/a/b#"]);
        assert_eq!(t.state_count(), 7);

        // Start state: V = {"<a"}, J = 0, action nop.
        let q0 = &t.states[0];
        assert_eq!(q0.label, None);
        assert_eq!(q0.jump, 0);
        assert_eq!(q0.action, Action::Nop);
        assert_eq!(
            q0.keywords.iter().map(|k| k.bytes.clone()).collect::<Vec<_>>(),
            vec![b"<a".to_vec()]
        );

        // q1 = after <a>: V = {"</a", "<b", "<c"} (sorted by bytes), copy tag.
        let q1 = &t.states[q0.keywords[0].target as usize];
        assert_eq!(q1.label, Some(("a".to_string(), false)));
        let kw: Vec<Vec<u8>> = q1.keywords.iter().map(|k| k.bytes.clone()).collect();
        assert_eq!(kw, vec![b"</a".to_vec(), b"<b".to_vec(), b"<c".to_vec()]);
        assert_eq!(q1.action, Action::CopyTag { with_atts: false });
        assert_eq!(q1.jump, 0);

        // q2 = after <b>: V = {"</b"}, copy on.
        let q2_id = q1.keywords.iter().find(|k| k.bytes == b"<b").unwrap().target;
        let q2 = &t.states[q2_id as usize];
        assert_eq!(q2.action, Action::CopyOn);
        assert_eq!(q2.keywords.len(), 1);
        assert_eq!(q2.keywords[0].bytes, b"</b".to_vec());

        // q̂2 = after </b>: copy off, V like q1's.
        let q2h = &t.states[q2.keywords[0].target as usize];
        assert_eq!(q2h.action, Action::CopyOff);
        assert_eq!(q2h.keywords.len(), 3);

        // q3 = after <c>: nop, V = {"</c"}, J = 4 (Example 3!).
        let q3_id = q1.keywords.iter().find(|k| k.bytes == b"<c").unwrap().target;
        let q3 = &t.states[q3_id as usize];
        assert_eq!(q3.action, Action::Nop);
        assert_eq!(q3.jump, 4);
        assert_eq!(q3.keywords[0].bytes, b"</c".to_vec());

        // q̂3 = after </c>: nop.
        let q3h = &t.states[q3.keywords[0].target as usize];
        assert_eq!(q3h.action, Action::Nop);

        // q̂1 = after </a>: final, empty vocabulary.
        let q1h_id = q1.keywords.iter().find(|k| k.bytes == b"</a").unwrap().target;
        let q1h = &t.states[q1h_id as usize];
        assert!(q1h.is_final);
        assert!(q1h.keywords.is_empty());
        assert_eq!(q1h.action, Action::CopyTag { with_atts: false });

        // CW/BM split per Fig. 3's V column: q1, q̂2, q̂3 need CW; q0, q2,
        // q3 need BM; q̂1 has an empty vocabulary.
        assert_eq!(t.cw_states(), 3);
        assert_eq!(t.bm_states(), 3);
    }

    /// Example 12 runtime automaton: only a and c states; action copy
    /// on/off at c, jump 4 at q3.
    #[test]
    fn example12_tables() {
        let t = tables(EX2, &["/*", "//c#"]);
        assert_eq!(t.state_count(), 5); // q0, a, â, c, ĉ
        let q0 = &t.states[0];
        let q1 = &t.states[q0.keywords[0].target as usize];
        let kw: Vec<Vec<u8>> = q1.keywords.iter().map(|k| k.bytes.clone()).collect();
        assert_eq!(kw, vec![b"</a".to_vec(), b"<c".to_vec()]);
        let qc = &t.states[q1.keywords[1].target as usize];
        assert_eq!(qc.action, Action::CopyOn);
        assert_eq!(qc.jump, 4);
        let qch = &t.states[qc.keywords[0].target as usize];
        assert_eq!(qch.action, Action::CopyOff);
    }

    #[test]
    fn join_is_conservative() {
        use Action::*;
        assert_eq!(Nop.join(CopyTag { with_atts: false }), CopyTag { with_atts: false });
        assert_eq!(
            CopyTag { with_atts: false }.join(CopyTag { with_atts: true }),
            CopyTag { with_atts: true }
        );
        assert_eq!(CopyOn.join(CopyTag { with_atts: true }), CopyOn);
        assert_eq!(Nop.join(Nop), Nop);
    }

    #[test]
    fn table_bytes_reasonable() {
        let t = tables(EX2, &["/*", "/a/b#"]);
        let bytes = t.table_bytes();
        assert!(bytes > 0 && bytes < 64 * 1024, "got {bytes}");
    }

    #[test]
    fn max_kw_len_is_longest_pattern() {
        let t = tables(EX2, &["/*", "/a/b#"]);
        assert_eq!(t.max_kw_len, 3); // "</a", "</b", "</c"
    }
}
