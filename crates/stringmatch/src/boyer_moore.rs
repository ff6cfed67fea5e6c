//! Boyer–Moore single-keyword search (Boyer & Moore, CACM 1977).
//!
//! The paper searches a unary frontier vocabulary with Boyer–Moore (the
//! `(BM)` branch of Fig. 4). The implementation combines the *bad
//! character* rule with the *strong good suffix* rule; both shift tables
//! are precomputed at construction, once per vocabulary.
//!
//! This loop is the specification of a single-keyword search and the
//! accounting of the paper's Tables I/II: [`Metrics::cmp`] counts every
//! byte compared, [`Metrics::shift`] every window shift. The runtime runs
//! it under `SMPX_NO_SIMD=1`; the vector path searches the same keyword
//! with [`TagWalk`](crate::TagWalk), which the property tests hold to it.

use crate::{Metrics, NoMetrics};

/// A compiled Boyer–Moore searcher for one pattern.
#[derive(Debug, Clone)]
pub struct BoyerMoore {
    pattern: Vec<u8>,
    /// Strong good-suffix shift: `good_suffix[j]` is the shift when a
    /// mismatch occurs at pattern index `j` (all of `pattern[j+1..]`
    /// matched).
    good_suffix: Vec<usize>,
    /// `bad_char[c]` = rightmost index of `c` in the pattern, or `usize::MAX`
    /// when `c` does not occur.
    bad_char: [usize; 256],
}

impl BoyerMoore {
    /// Compile `pattern`. Panics on an empty pattern: an empty keyword never
    /// arises from the SMP static analysis and has no sensible occurrence
    /// semantics.
    pub fn new(pattern: &[u8]) -> Self {
        assert!(!pattern.is_empty(), "BoyerMoore pattern must be non-empty");
        let mut bad_char = [usize::MAX; 256];
        for (i, &b) in pattern.iter().enumerate() {
            bad_char[b as usize] = i;
        }
        let good_suffix = build_good_suffix(pattern);
        BoyerMoore { pattern: pattern.to_vec(), bad_char, good_suffix }
    }

    /// The compiled pattern.
    pub fn pattern(&self) -> &[u8] {
        &self.pattern
    }

    /// Leftmost occurrence in `hay`, uninstrumented.
    pub fn find(&self, hay: &[u8]) -> Option<usize> {
        self.find_at(hay, 0, &mut NoMetrics)
    }

    /// Leftmost occurrence whose start is `>= from`, reporting character
    /// comparisons and shifts to `m`: the classic Boyer–Moore shift loop,
    /// one byte compared per iteration. Returns the absolute start offset.
    pub fn find_at<M: Metrics>(&self, hay: &[u8], from: usize, m: &mut M) -> Option<usize> {
        let pat = &self.pattern[..];
        let plen = pat.len();
        if from >= hay.len() || hay.len() - from < plen {
            return None;
        }
        let mut pos = from; // current alignment of pattern start
        let last = hay.len() - plen;
        while pos <= last {
            // Match right to left.
            let mut j = plen;
            while j > 0 {
                m.cmp(1);
                if hay[pos + j - 1] != pat[j - 1] {
                    break;
                }
                j -= 1;
            }
            if j == 0 {
                return Some(pos);
            }
            let mismatch_idx = j - 1;
            let c = hay[pos + mismatch_idx];
            let bc = self.bad_char_shift(mismatch_idx, c);
            let gs = self.good_suffix[mismatch_idx];
            let shift = bc.max(gs);
            m.shift(shift as u64);
            pos += shift;
        }
        None
    }

    /// All (possibly overlapping) occurrences.
    pub fn find_iter<'h>(&'h self, hay: &'h [u8]) -> impl Iterator<Item = usize> + 'h {
        let mut from = 0;
        std::iter::from_fn(move || {
            let hit = self.find_at(hay, from, &mut NoMetrics)?;
            from = hit + 1;
            Some(hit)
        })
    }

    /// Exact heap bytes owned by the compiled searcher: the pattern copy
    /// and the good-suffix table. The bad-character table lives inline in
    /// the struct (callers owning a `Box<BoyerMoore>` add
    /// `size_of::<BoyerMoore>()`).
    pub fn heap_bytes(&self) -> usize {
        self.pattern.capacity() + self.good_suffix.capacity() * std::mem::size_of::<usize>()
    }

    /// Bad-character shift when `pattern[idx]` mismatched haystack byte `c`.
    #[inline]
    fn bad_char_shift(&self, idx: usize, c: u8) -> usize {
        match self.bad_char[c as usize] {
            usize::MAX => idx + 1,
            r if r < idx => idx - r,
            _ => 1,
        }
    }
}

/// Strong good-suffix table following the classic two-phase construction
/// (Knuth–Morris–Pratt style border scan on the reversed pattern).
fn build_good_suffix(pat: &[u8]) -> Vec<usize> {
    let m = pat.len();
    let mut shift = vec![0usize; m + 1];
    let mut border = vec![0usize; m + 1];

    // Phase 1: borders of suffixes.
    let mut i = m;
    let mut j = m + 1;
    border[i] = j;
    while i > 0 {
        while j <= m && pat[i - 1] != pat[j - 1] {
            if shift[j] == 0 {
                shift[j] = j - i;
            }
            j = border[j];
        }
        i -= 1;
        j -= 1;
        border[i] = j;
    }

    // Phase 2: widest borders.
    j = border[0];
    for s in shift.iter_mut().take(m + 1) {
        if *s == 0 {
            *s = j;
        }
    }
    let mut i = 0;
    while i <= m {
        if i == j {
            j = border[j];
        }
        i += 1;
    }

    // Convert: mismatch at pattern index `idx` (suffix pat[idx+1..] matched)
    // uses shift[idx + 1].
    (0..m).map(|idx| shift[idx + 1].max(1)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{naive, Counters};

    fn check(hay: &[u8], pat: &[u8]) {
        let bm = BoyerMoore::new(pat);
        assert_eq!(bm.find(hay), naive::find(hay, pat), "hay={hay:?} pat={pat:?}");
    }

    #[test]
    fn simple_hits_and_misses() {
        check(b"hello world", b"world");
        check(b"hello world", b"hello");
        check(b"hello world", b"o w");
        check(b"hello world", b"xyz");
        check(b"", b"a");
        check(b"a", b"a");
        check(b"aa", b"aaa");
    }

    #[test]
    fn repeated_structure() {
        check(b"aabaabaaab", b"aaab");
        check(b"abababababab", b"abab");
        check(b"aaaaaaaaaa", b"aab");
        check(b"GCATCGCAGAGAGTATACAGTACG", b"GCAGAGAG");
    }

    #[test]
    fn find_at_respects_from() {
        let bm = BoyerMoore::new(b"ab");
        assert_eq!(bm.find_at(b"abab", 1, &mut NoMetrics), Some(2));
        assert_eq!(bm.find_at(b"abab", 3, &mut NoMetrics), None);
        assert_eq!(bm.find_at(b"abab", 100, &mut NoMetrics), None);
    }

    #[test]
    fn find_iter_yields_all_overlapping() {
        let bm = BoyerMoore::new(b"aa");
        assert_eq!(bm.find_iter(b"aaaa").collect::<Vec<_>>(), vec![0, 1, 2]);
    }

    #[test]
    fn sublinear_on_absent_alphabet() {
        // None of the haystack characters occur in the pattern, so BM should
        // inspect roughly hay.len()/pat.len() characters.
        let hay = vec![b'x'; 10_000];
        let bm = BoyerMoore::new(b"keyword!");
        let mut c = Counters::default();
        assert_eq!(bm.find_at(&hay, 0, &mut c), None);
        assert!(
            c.comparisons <= (hay.len() / 8 + 8) as u64,
            "expected ~n/m comparisons, got {}",
            c.comparisons
        );
        assert!(c.avg_shift() >= 7.9);
    }

    #[test]
    fn good_suffix_kicks_in() {
        // Classic case where the bad-character rule alone is weak.
        check(b"ababababcabab", b"ababc");
        check(b"aaaaabaaaaab", b"aaab");
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_pattern_panics() {
        let _ = BoyerMoore::new(b"");
    }
}
