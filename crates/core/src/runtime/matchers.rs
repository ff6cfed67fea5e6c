//! Per-state search engines, built lazily.
//!
//! The paper (Sec. V): "The data structures for string search are computed
//! lazily, when an automaton-state is first entered." The one decision is
//! made here, when a matcher is built, from the prefilter's
//! [`ScanMode`]:
//!
//! * **the walk** (the default) builds a [`TagWalk`] for every
//!   vocabulary, one keyword or many: the candidate walk of one fingerprint
//!   fitted to the DTD's tags, on the kernels of the run's [`Blocks`];
//! * **the specification** (`SMPX_NO_SIMD=1`) builds the paper's Fig. 4
//!   engines — Boyer–Moore for one keyword, Commentz–Walter for several
//!   — whose counters are the paper's accounting.
//!
//! So the shift tables and the trie exist only when the specification
//! runs. A matcher depends only on the state's keyword list, the universe
//! and the mode, so it is built once per distinct vocabulary and shared,
//! through reference counts, by every state that searches for the same
//! keywords; the `ablations` bench compares this laziness against eager
//! construction.

use smpx_stringmatch::memscan::{Blocks, ScanMode, TagUniverse};
use smpx_stringmatch::{BoyerMoore, CommentzWalter, Metrics, TagWalk};
use std::sync::Arc;

/// The search engine of one runtime state; a clone shares its tables.
#[derive(Debug, Clone)]
pub(crate) enum StateMatcher {
    /// No keywords (final states): nothing to search.
    Empty,
    /// The walk, every vocabulary.
    Walk(Arc<TagWalk>),
    /// The specification, one keyword → Boyer–Moore.
    Bm(Arc<BoyerMoore>),
    /// The specification, several keywords → Commentz–Walter, and the keyword
    /// indices longest first (ties by index): the order a false match
    /// re-checks the vocabulary in.
    Cw(Arc<CommentzWalter>, Arc<[u32]>),
}

impl StateMatcher {
    /// Build the matcher of a keyword list — a state's vocabulary, or the
    /// `{<e, </e}` of a balanced scan — in `mode`, a walk's filter fitted
    /// to `universe`: the tags of the DTD, which the search has to pass
    /// over.
    pub fn build<P: AsRef<[u8]>>(keywords: &[P], universe: &TagUniverse, mode: ScanMode) -> Self {
        match keywords {
            [] => StateMatcher::Empty,
            _ if mode != ScanMode::Spec => {
                StateMatcher::Walk(Arc::new(TagWalk::with_universe(keywords, universe)))
            }
            [one] => StateMatcher::Bm(Arc::new(BoyerMoore::new(one.as_ref()))),
            many => {
                let mut longest_first: Arc<[u32]> = (0..many.len() as u32).collect();
                Arc::get_mut(&mut longest_first)
                    .expect("not shared yet")
                    .sort_by_key(|&i| std::cmp::Reverse(many[i as usize].as_ref().len()));
                StateMatcher::Cw(Arc::new(CommentzWalter::new(many)), longest_first)
            }
        }
    }

    /// First keyword occurrence in `hay` starting at or after `from`:
    /// `(keyword index, start offset)`. `blocks` caches the structural
    /// masks of `hay` for the walk.
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
            StateMatcher::Walk(walk) => {
                walk.find_at(hay, from, blocks, m).map(|mm| (mm.pattern, mm.start))
            }
            StateMatcher::Bm(bm) => bm.find_at(hay, from, m).map(|s| (0, s)),
            StateMatcher::Cw(cw, _) => cw.find_at(hay, from, m).map(|mm| (mm.pattern, mm.start)),
        }
    }

    /// Longest keyword length. The streaming window must re-scan this many
    /// minus one bytes of overlap after a refill, or a long keyword
    /// straddling the old window end is lost.
    pub fn max_len(&self) -> usize {
        match self {
            StateMatcher::Empty => 1,
            StateMatcher::Walk(walk) => walk.max_len(),
            StateMatcher::Bm(bm) => bm.pattern().len(),
            StateMatcher::Cw(cw, _) => cw.max_len(),
        }
    }

    /// The keyword indices of the state's vocabulary, longest first (ties
    /// by index; empty when there is no other keyword to re-check).
    pub fn longest_first(&self) -> &[u32] {
        match self {
            StateMatcher::Walk(walk) => walk.longest_first(),
            StateMatcher::Cw(_, order) => order,
            StateMatcher::Empty | StateMatcher::Bm(_) => &[],
        }
    }

    /// Heap size of the lookup tables built (the paper's `Mem` column
    /// counts these): the searcher struct behind its pointer plus the
    /// exact heap allocations it owns — no estimates, so the number tracks
    /// the real layout as it evolves.
    pub fn memory_bytes(&self) -> usize {
        match self {
            StateMatcher::Empty => 0,
            StateMatcher::Walk(walk) => std::mem::size_of::<TagWalk>() + walk.heap_bytes(),
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
    use smpx_stringmatch::{memscan, NoMetrics};

    /// The matchers of `kws` in both modes, the walk first.
    fn both(kws: &[&str]) -> [StateMatcher; 2] {
        [ScanMode::Walk(memscan::kind()), ScanMode::Spec]
            .map(|mode| StateMatcher::build(kws, &TagUniverse::default(), mode))
    }

    fn find(m: &StateMatcher, hay: &[u8], from: usize) -> Option<(usize, usize)> {
        m.find_in(hay, from, &mut Blocks::default(), &mut NoMetrics)
    }

    #[test]
    fn empty_state_never_matches() {
        for m in both(&[]) {
            assert!(matches!(m, StateMatcher::Empty));
            assert!(find(&m, b"<a><b>", 0).is_none());
        }
    }

    #[test]
    fn single_keyword_uses_bm() {
        let [walk, bm] = both(&["<item"]);
        assert!(matches!(walk, StateMatcher::Walk(_)));
        assert!(matches!(bm, StateMatcher::Bm(_)));
        for m in [walk, bm] {
            assert_eq!(find(&m, b"xx<item y>", 0), Some((0, 2)));
            assert_eq!(find(&m, b"xx<item y>", 3), None);
        }
    }

    #[test]
    fn multi_keyword_uses_cw_with_stable_indices() {
        let [walk, cw] = both(&["</a", "<b", "<c"]);
        assert!(matches!(walk, StateMatcher::Walk(_)));
        assert!(matches!(cw, StateMatcher::Cw(..)));
        for m in [walk, cw] {
            assert_eq!(find(&m, b"..<c>..</a>", 0), Some((2, 2)));
            assert_eq!(find(&m, b"..<c>..</a>", 3), Some((0, 7)));
            assert_eq!(m.longest_first(), [0, 1, 2]);
        }
    }

    #[test]
    fn min_and_max_len() {
        // The overlap a refill re-scans is the longest keyword; the walk's
        // candidates end where the shortest one no longer fits.
        let [walk, cw] = both(&["</a", "<longkeyword"]);
        let StateMatcher::Walk(w) = &walk else { panic!("the walk mode builds the walk") };
        assert_eq!((w.min_len(), w.max_len()), (3, 12));
        assert_eq!((walk.max_len(), cw.max_len()), (12, 12));
        assert_eq!(both(&["<item"]).map(|m| m.max_len()), [5, 5]);
        assert_eq!(both(&[]).map(|m| m.max_len()), [1, 1]);
    }

    #[test]
    fn memory_estimates_positive() {
        for m in both(&["<item"]).into_iter().chain(both(&["<a", "</a"])) {
            assert!(m.memory_bytes() > 64);
        }
        assert!(both(&["<item"])[1].memory_bytes() > 256);
        assert!(both(&["<a", "</a"])[1].memory_bytes() > 1024);
        assert_eq!(both(&[]).map(|m| m.memory_bytes()), [0, 0]);
    }

    #[test]
    fn memory_tracks_real_layout() {
        // Computed from the live struct layout, not a per-node constant:
        // a bigger vocabulary must cost measurably more, every matcher
        // costs at least its searcher struct, and only what was built is
        // counted — the walk holds no shift table and no trie.
        let [small_walk, small_cw] = both(&["<a", "</a"]);
        let [big_walk, big_cw] = both(&["<alpha", "</alpha", "<beta", "</beta"]);
        assert!(big_walk.memory_bytes() > small_walk.memory_bytes());
        assert!(big_cw.memory_bytes() > small_cw.memory_bytes());
        assert!(small_walk.memory_bytes() >= std::mem::size_of::<TagWalk>());
        assert!(small_cw.memory_bytes() >= std::mem::size_of::<CommentzWalter>());
        assert!(small_walk.memory_bytes() < small_cw.memory_bytes());
        let [walk, bm] = both(&["<item"]);
        assert!(bm.memory_bytes() >= std::mem::size_of::<BoyerMoore>());
        assert!(walk.memory_bytes() < bm.memory_bytes());
    }
}
