//! Per-state search engines, built lazily.
//!
//! The paper (Sec. V): "The data structures for string search are computed
//! lazily, when an automaton-state is first entered." A state with one
//! keyword gets Boyer–Moore, with several Commentz–Walter (Fig. 4's
//! `(BM)`/`(CW)` branches); the `ablations` bench compares this laziness
//! against eager construction. A matcher depends only on the state's
//! keyword list and the universe, so it is built once per distinct
//! vocabulary and shared, through reference counts, by every state that
//! searches for the same keywords.

use crate::compile::RtState;
use smpx_stringmatch::memscan::{Blocks, TagUniverse};
use smpx_stringmatch::{BoyerMoore, CommentzWalter, FilterChoice, Metrics};
use std::sync::Arc;

/// Anything the input layer can drive a windowed search with.
pub(crate) trait Searcher {
    /// First occurrence in `hay` at or after `from`: (keyword index,
    /// start). `blocks` caches the structural masks of `hay`.
    fn search_in<M: Metrics>(
        &self,
        hay: &[u8],
        from: usize,
        blocks: &mut Blocks,
        m: &mut M,
    ) -> Option<(usize, usize)>;
    /// Longest pattern length (stream-refill overlap).
    fn longest(&self) -> usize;
}

impl Searcher for CommentzWalter {
    fn search_in<M: Metrics>(
        &self,
        hay: &[u8],
        from: usize,
        blocks: &mut Blocks,
        m: &mut M,
    ) -> Option<(usize, usize)> {
        self.find_at_blocks(hay, from, blocks, m).map(|mm| (mm.pattern, mm.start))
    }

    fn longest(&self) -> usize {
        self.max_len()
    }
}

impl Searcher for StateMatcher {
    #[inline(always)]
    fn search_in<M: Metrics>(
        &self,
        hay: &[u8],
        from: usize,
        blocks: &mut Blocks,
        m: &mut M,
    ) -> Option<(usize, usize)> {
        self.find_in(hay, from, blocks, m)
    }

    fn longest(&self) -> usize {
        self.max_len()
    }
}

/// The search engine of one runtime state; a clone shares its tables.
#[derive(Debug, Clone)]
pub(crate) enum StateMatcher {
    /// No keywords (final states): nothing to search.
    Empty,
    /// Unary frontier vocabulary → Boyer–Moore (behind a pointer: the
    /// shift tables are ~2 KiB).
    Bm(Arc<BoyerMoore>),
    /// Multi-keyword frontier vocabulary → Commentz–Walter, and the
    /// keyword indices longest first (ties by index): the order a false
    /// match re-checks the vocabulary in.
    Cw(Arc<CommentzWalter>, Arc<[u32]>),
}

impl StateMatcher {
    /// Build the matcher for a state's keyword list, its candidate filter
    /// fitted to `universe` — the tags of the DTD, which the state's
    /// search has to pass over.
    pub fn build(state: &RtState, universe: &TagUniverse) -> StateMatcher {
        match state.keywords.len() {
            0 => StateMatcher::Empty,
            1 => StateMatcher::Bm(Arc::new(BoyerMoore::with_universe(
                &state.keywords[0].bytes,
                universe,
            ))),
            _ => {
                let kws = &state.keywords;
                let mut longest_first: Arc<[u32]> = (0..kws.len() as u32).collect();
                Arc::get_mut(&mut longest_first)
                    .expect("not shared yet")
                    .sort_by_key(|&i| std::cmp::Reverse(kws[i as usize].bytes.len()));
                let cw = CommentzWalter::with_universe(kws, universe);
                StateMatcher::Cw(Arc::new(cw), longest_first)
            }
        }
    }

    /// First keyword occurrence in `hay` starting at or after `from`:
    /// `(keyword index, start offset)`.
    #[inline(always)]
    pub fn find_in<M: Metrics>(
        &self,
        hay: &[u8],
        from: usize,
        blocks: &mut Blocks,
        m: &mut M,
    ) -> Option<(usize, usize)> {
        match self {
            StateMatcher::Empty => None,
            StateMatcher::Bm(bm) => bm.find_at_blocks(hay, from, blocks, m).map(|s| (0, s)),
            StateMatcher::Cw(cw, _) => {
                cw.find_at_blocks(hay, from, blocks, m).map(|mm| (mm.pattern, mm.start))
            }
        }
    }

    /// What the matcher's candidate filter decided against `universe`,
    /// the one it was built with (`None`: nothing to search for).
    pub fn filter_choice(&self, universe: &TagUniverse) -> Option<FilterChoice> {
        match self {
            StateMatcher::Empty => None,
            StateMatcher::Bm(bm) => Some(bm.filter_choice(universe)),
            StateMatcher::Cw(cw, _) => Some(cw.filter_choice(universe)),
        }
    }

    /// Shortest keyword length (the Commentz–Walter sliding-window size).
    #[allow(dead_code)] // part of the matcher API surface; used in tests
    pub fn min_len(&self) -> usize {
        match self {
            StateMatcher::Empty => 1,
            StateMatcher::Bm(bm) => bm.pattern().len(),
            StateMatcher::Cw(cw, _) => cw.min_len(),
        }
    }

    /// Longest keyword length. The streaming window must re-scan this many
    /// minus one bytes of overlap after a refill, or a long keyword
    /// straddling the old window end is lost.
    pub fn max_len(&self) -> usize {
        match self {
            StateMatcher::Empty => 1,
            StateMatcher::Bm(bm) => bm.pattern().len(),
            StateMatcher::Cw(cw, _) => cw.max_len(),
        }
    }

    /// The keyword indices of the state's vocabulary, longest first (empty
    /// unless the state has several keywords).
    pub fn longest_first(&self) -> &[u32] {
        match self {
            StateMatcher::Cw(_, order) => order,
            _ => &[],
        }
    }

    /// Heap size of the lookup tables (the paper's `Mem` column counts
    /// these): the searcher struct behind its pointer (shift/`d1` tables
    /// are inline arrays) plus the exact heap allocations it owns — no
    /// estimates, so the number tracks the real `Node`/table layout as it
    /// evolves.
    pub fn memory_bytes(&self) -> usize {
        match self {
            StateMatcher::Empty => 0,
            StateMatcher::Bm(bm) => std::mem::size_of::<BoyerMoore>() + bm.heap_bytes(),
            StateMatcher::Cw(cw, longest_first) => {
                std::mem::size_of::<CommentzWalter>()
                    + cw.heap_bytes()
                    + std::mem::size_of_val(&**longest_first)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::{Action, Keyword, RtState};
    use smpx_stringmatch::NoMetrics;

    fn build(kws: &[&str]) -> StateMatcher {
        StateMatcher::build(&state(kws), &TagUniverse::default())
    }

    fn find(m: &StateMatcher, hay: &[u8], from: usize) -> Option<(usize, usize)> {
        m.find_in(hay, from, &mut Blocks::new(), &mut NoMetrics)
    }

    fn state(kws: &[&str]) -> RtState {
        RtState {
            label: None,
            keywords: kws
                .iter()
                .enumerate()
                .map(|(i, k)| Keyword {
                    bytes: k.as_bytes().to_vec(),
                    name: k.trim_start_matches(['<', '/']).to_string(),
                    close: k.starts_with("</"),
                    target: i as u32,
                })
                .collect(),
            jump: 0,
            action: Action::Nop,
            is_final: false,
            balanced: false,
        }
    }

    #[test]
    fn empty_state_never_matches() {
        let m = build(&[]);
        assert!(find(&m, b"<a><b>", 0).is_none());
    }

    #[test]
    fn single_keyword_uses_bm() {
        let m = build(&["<item"]);
        assert!(matches!(m, StateMatcher::Bm(_)));
        assert_eq!(find(&m, b"xx<item y>", 0), Some((0, 2)));
        assert_eq!(find(&m, b"xx<item y>", 3), None);
    }

    #[test]
    fn multi_keyword_uses_cw_with_stable_indices() {
        let m = build(&["</a", "<b", "<c"]);
        assert!(matches!(m, StateMatcher::Cw(..)));
        assert_eq!(find(&m, b"..<c>..</a>", 0), Some((2, 2)));
        assert_eq!(find(&m, b"..<c>..</a>", 3), Some((0, 7)));
    }

    #[test]
    fn min_and_max_len() {
        let m = build(&["</a", "<longkeyword"]);
        assert_eq!(m.min_len(), 3);
        assert_eq!(m.max_len(), 12);
        let b = build(&["<item"]);
        assert_eq!(b.min_len(), 5);
        assert_eq!(b.max_len(), 5);
        assert_eq!(build(&[]).max_len(), 1);
    }

    #[test]
    fn memory_estimates_positive() {
        assert!(build(&["<item"]).memory_bytes() > 256);
        assert!(build(&["<a", "</a"]).memory_bytes() > 1024);
        assert_eq!(build(&[]).memory_bytes(), 0);
    }

    #[test]
    fn memory_tracks_real_layout() {
        // Computed from the live struct layout, not a per-node constant:
        // a bigger vocabulary must cost measurably more, and every matcher
        // costs at least its searcher struct.
        let small = build(&["<a", "</a"]);
        let big = build(&["<alpha", "</alpha", "<beta", "</beta"]);
        assert!(big.memory_bytes() > small.memory_bytes());
        assert!(small.memory_bytes() >= std::mem::size_of::<CommentzWalter>());
        let bm = build(&["<item"]);
        assert!(bm.memory_bytes() >= std::mem::size_of::<BoyerMoore>());
    }
}
