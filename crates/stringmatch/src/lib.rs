//! Skipping string-matching algorithms, instrumented.
//!
//! This crate provides the string-matching substrate of the SMP prefilter
//! (Koch, Scherzinger, Schmidt: *XML Prefiltering as a String Matching
//! Problem*, ICDE 2008):
//!
//! * [`TagWalk`] — the vector search the runtime runs for every state, one
//!   keyword or many: the candidates of one [`memscan::Fingerprint`] (the
//!   keywords' `<` and their bytes at two offsets, fitted to the tags of
//!   the DTD through a [`memscan::TagUniverse`]; portable SWAR plus
//!   SSE2/AVX2 on `x86_64`, selected at runtime), each verified against
//!   the keywords,
//! * [`BoyerMoore`] — single-keyword search with bad-character and strong
//!   good-suffix shifts (the paper's **BM** engine for unary frontier
//!   vocabularies),
//! * [`CommentzWalter`] — multi-keyword search matching right-to-left over a
//!   trie of reversed patterns with bad-character and good-suffix style
//!   shifts (the paper's **CW** engine),
//! * [`AhoCorasick`] — the classic every-character multi-keyword automaton
//!   (the baseline family the paper contrasts against, cf. its related work
//!   \[21\]),
//! * [`Kmp`] and [`naive`] — further one-character-at-a-time baselines.
//!
//! Boyer–Moore and Commentz–Walter are the paper's algorithms and the
//! specification of [`TagWalk`]: the property tests hold the walk to
//! them, and the runtime runs them under `SMPX_NO_SIMD=1`, where their
//! counters are the paper's accounting.
//!
//! All searchers are generic over a [`Metrics`] sink so that the number of
//! character comparisons and the sizes of forward shifts can be measured
//! (Table I/II of the paper report `Char Comp.` and `∅ Shift Size`) without
//! imposing any cost on uninstrumented runs ([`NoMetrics`] is fully inlined
//! away). Bytes the vector unit consumes are reported through the separate
//! [`Metrics::scanned`] counter.
//!
//! # Example
//!
//! ```
//! use smpx_stringmatch::{BoyerMoore, CommentzWalter, Counters, Metrics, NoMetrics, TagWalk};
//!
//! let bm = BoyerMoore::new(b"ICDE");
//! assert_eq!(bm.find(b"welcome to ICDE 2008"), Some(11));
//!
//! let cw = CommentzWalter::new(&[b"<b".as_slice(), b"<c", b"</a"]);
//! let m = cw.find(b"<a><c><b/></c></a>").unwrap();
//! assert_eq!((m.pattern, m.start), (1, 3)); // first token is "<c"
//!
//! // The vector walk finds what the specification finds.
//! let walk = TagWalk::new(&[b"<b".as_slice(), b"<c", b"</a"]);
//! assert_eq!(walk.find(b"<a><c><b/></c></a>"), Some(m));
//!
//! // Instrumented search: count character comparisons.
//! let mut stats = Counters::default();
//! bm.find_at(b"xxxxxxxxxxxxICDExx", 0, &mut stats);
//! assert!(stats.comparisons < 18); // inspected only a fraction of the input
//! ```

// `unsafe` is denied crate-wide and allowed back in exactly one place: the
// SSE2/AVX2 loads in `memscan`, each with its bounds argument spelled out.
#![deny(unsafe_code)]
#![warn(missing_docs)]

mod aho_corasick;
mod boyer_moore;
mod commentz_walter;
mod kmp;
pub mod memscan;
mod metrics;
pub mod naive;
mod tag_walk;

pub use aho_corasick::AhoCorasick;
pub use boyer_moore::BoyerMoore;
pub use commentz_walter::CommentzWalter;
pub use kmp::Kmp;
#[doc(hidden)]
pub use memscan::FilterChoice;
pub use metrics::{Counters, Metrics, NoMetrics};
pub use tag_walk::TagWalk;

/// An occurrence of one pattern of a multi-pattern searcher.
///
/// `start..end` is the byte range of the occurrence in the haystack and
/// `pattern` the index of the matched pattern in the order the patterns were
/// supplied at construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MultiMatch {
    /// Index of the matched pattern (construction order).
    pub pattern: usize,
    /// Byte offset of the first character of the occurrence.
    pub start: usize,
    /// Byte offset one past the last character of the occurrence.
    pub end: usize,
}

impl MultiMatch {
    /// Length of the matched pattern occurrence.
    #[inline]
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// True when the matched occurrence is empty (never produced by the
    /// searchers in this crate, which reject empty patterns).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn multi_match_len() {
        let m = MultiMatch { pattern: 0, start: 3, end: 7 };
        assert_eq!(m.len(), 4);
        assert!(!m.is_empty());
    }

    /// The doc-comment scenario of the paper's introduction: matching
    /// "ICDE" skips ahead when the fourth character cannot participate.
    #[test]
    fn icde_intro_example() {
        let bm = BoyerMoore::new(b"ICDE");
        let mut c = Counters::default();
        // "A" at position 3 rules the first window out entirely.
        let hay = b"ABCAICDE";
        assert_eq!(bm.find_at(hay, 0, &mut c), Some(4));
        assert!(c.comparisons <= hay.len() as u64);
    }
}
