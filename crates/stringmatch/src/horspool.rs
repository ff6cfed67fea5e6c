//! Boyer–Moore–Horspool single-keyword search (Horspool 1980).
//!
//! A simplification of Boyer–Moore that only keeps the bad-character rule,
//! always keyed on the haystack byte aligned with the *last* pattern
//! position. Included as an ablation point: the paper's shifts come mostly
//! from the bad-character rule on XML inputs, so Horspool is expected to be
//! close to full BM there (the `ablations` bench quantifies this).
//!
//! The accelerated [`find_at`](Horspool::find_at) is the candidate walk of
//! the Boyer–Moore twin (see its module docs); the two differ in their
//! scalar loops, [`find_at_scalar`](Horspool::find_at_scalar).

use crate::memscan::{self, Fingerprint, TagUniverse};
use crate::{Metrics, NoMetrics};

/// A compiled Horspool searcher for one pattern.
#[derive(Debug, Clone)]
pub struct Horspool {
    pattern: Vec<u8>,
    /// Shift keyed by the haystack byte under the last pattern position.
    shift: [usize; 256],
    /// The candidate filter of the accelerated path.
    filter: Fingerprint,
}

impl Horspool {
    /// Compile `pattern`. Panics on an empty pattern.
    pub fn new(pattern: &[u8]) -> Self {
        Horspool::with_universe(pattern, &TagUniverse::default())
    }

    /// Compile `pattern` with its candidate filter fitted to `universe`,
    /// the tag tokens of the documents to be searched.
    pub fn with_universe(pattern: &[u8], universe: &TagUniverse) -> Self {
        assert!(!pattern.is_empty(), "Horspool pattern must be non-empty");
        let m = pattern.len();
        let mut shift = [m; 256];
        for (i, &b) in pattern.iter().enumerate().take(m - 1) {
            shift[b as usize] = m - 1 - i;
        }
        let filter = Fingerprint::with_universe(&[pattern], universe);
        Horspool { pattern: pattern.to_vec(), shift, filter }
    }

    /// The compiled pattern.
    pub fn pattern(&self) -> &[u8] {
        &self.pattern
    }

    /// Leftmost occurrence, uninstrumented.
    pub fn find(&self, hay: &[u8]) -> Option<usize> {
        self.find_at(hay, 0, &mut NoMetrics)
    }

    /// Leftmost occurrence whose start is `>= from`.
    ///
    /// Walks the candidates of the pattern's filter unless
    /// `SMPX_NO_SIMD=1` forces the classic loop
    /// ([`find_at_scalar`](Self::find_at_scalar)).
    pub fn find_at<M: Metrics>(&self, hay: &[u8], from: usize, m: &mut M) -> Option<usize> {
        if memscan::accel_enabled() {
            let blocks = &mut memscan::Blocks::new();
            memscan::candidate_find(hay, from, &self.pattern, &self.filter, blocks, m)
        } else {
            self.find_at_scalar(hay, from, m)
        }
    }

    /// The classic Horspool loop (`SMPX_NO_SIMD=1` fallback and ablation
    /// baseline); result-identical to [`find_at`](Self::find_at).
    pub fn find_at_scalar<M: Metrics>(&self, hay: &[u8], from: usize, m: &mut M) -> Option<usize> {
        let pat = &self.pattern[..];
        let plen = pat.len();
        if from >= hay.len() || hay.len() - from < plen {
            return None;
        }
        let mut pos = from;
        let last = hay.len() - plen;
        while pos <= last {
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
            let s = self.shift[hay[pos + plen - 1] as usize];
            m.shift(s as u64);
            pos += s;
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive;

    fn check(hay: &[u8], pat: &[u8]) {
        let h = Horspool::new(pat);
        assert_eq!(h.find(hay), naive::find(hay, pat), "hay={hay:?} pat={pat:?}");
    }

    #[test]
    fn agrees_with_naive() {
        check(b"hello world", b"world");
        check(b"hello world", b"zzz");
        check(b"aabaabaaab", b"aaab");
        check(b"abababababab", b"bab");
        check(b"x", b"x");
        check(b"", b"x");
    }

    #[test]
    fn from_offset() {
        let h = Horspool::new(b"ab");
        assert_eq!(h.find_at(b"abab", 1, &mut NoMetrics), Some(2));
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_pattern_panics() {
        let _ = Horspool::new(b"");
    }
}
