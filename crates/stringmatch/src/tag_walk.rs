//! The vector search of a keyword vocabulary: one walk for every state.
//!
//! Every SMP vocabulary is a set of tag tokens — each keyword starts with
//! `<` and holds no other `<` — and [`TagWalk`] searches such a set, one
//! keyword or many, the same way. It does not slide a window as
//! [`BoyerMoore`](crate::BoyerMoore) and
//! [`CommentzWalter`](crate::CommentzWalter) do (they stay the paper's
//! specification, property-tested against this walk): it walks the
//! *candidate* alignments of one [`Fingerprint`] in increasing order and
//! verifies the keywords at each.
//!
//! * **The filter.** Two byte offsets `o1 <= o2 < lmin` are chosen for the
//!   whole vocabulary at build time: the pair that the fewest *foreign*
//!   tags of the DTD pass — tokens of the [`TagUniverse`] the walk is
//!   [built against](TagWalk::with_universe) that no keyword is a prefix
//!   of and that hold some keyword's byte at both offsets — and among
//!   equals (all pairs, for [`new`](TagWalk::new)) the pair of rarest
//!   bytes under `memscan`'s XML byte-frequency table. The anchor `<` is
//!   tested as well, and the offsets are chosen past it. Alignment `i` is
//!   a candidate when it holds the anchor and some keyword bucket admits
//!   both `hay[i + o1]` and `hay[i + o2]`: one compare and four
//!   nibble-table lookups whatever `|V|` is, two exact compares when the
//!   keywords agree on both bytes (always, for one keyword). Text and the
//!   tags outside `V[q]` never leave the vector unit.
//! * **Near phase.** The walk first pops the `<` bits of the 64-byte
//!   structural block it starts in ([`Blocks`]: `<`, `>` and quote masks,
//!   computed once and shared with the runtime's tag-end scan) and states
//!   the lane test at each. In dense markup the next token is in that
//!   block, which the vector loop cannot help and must not hurt.
//! * **Far phase.** Past an exhausted block, the fingerprint scan on the
//!   kind of the [`Blocks`] tests 8–64 alignments per iteration against
//!   all keywords at once.
//! * **Verification.** A candidate's two bytes are the key into a table
//!   of `(key, keyword)` rows sorted by `(key, len, index)`: the rows of
//!   one key are the keywords that can start there, shortest first, so
//!   the first that compares equal is the smallest end at this start
//!   (`<ab` before `<abc`, duplicates by index).
//! * **First-hit exit.** An occurrence starting later than a verified one
//!   would have to start inside it, on a byte that is not `<`: the first
//!   verified candidate is the answer — the first match by end, ties by
//!   index, that the windowed Commentz–Walter loop reports.
//!
//! The vocabulary shape is a checked precondition: [`TagWalk::new`]
//! panics on a keyword that does not start with `<` or holds another.
//!
//! **What the counters mean here.** Every alignment the walk passes over
//! is booked once through [`Metrics::scanned`], near phase and far phase
//! alike, and so are the bytes past the last alignment tested when the
//! haystack ends first; [`Metrics::cmp`] counts verification bytes only;
//! [`Metrics::shift`] is called once per candidate stop, and once at the
//! end of the haystack, with the distance from the previous one — never
//! with a distance of zero. `Char Comp.` therefore counts a few bytes per
//! *candidate* rather than per tag, and `∅ Shift` is the distance between
//! candidates; the paper's quantities are the scalar loops'.

use crate::memscan::{Blocks, Fingerprint, TagUniverse};
use crate::{Metrics, MultiMatch, NoMetrics};

/// The candidate walk over an SMP keyword vocabulary.
///
/// The fields the walk reads come first and in declaration order
/// (`repr(C)`): one or two cache lines per search.
#[derive(Debug, Clone)]
#[repr(C)]
pub struct TagWalk {
    filter: Fingerprint,
    /// Length of the shortest keyword.
    lmin: usize,
    /// Length of the longest keyword.
    lmax: usize,
    /// One `(key, keyword)` row per keyword, sorted by `(key, len, index)`,
    /// where `key` packs the keyword's bytes at the filter's two offsets.
    verify: Vec<(u16, u32)>,
    patterns: Vec<Vec<u8>>,
    /// The keyword indices, longest first (ties by index).
    longest_first: Vec<u32>,
}

impl TagWalk {
    /// The walk of `patterns` with its filter chosen by byte frequency
    /// alone: [`with_universe`](Self::with_universe) over the empty
    /// universe.
    pub fn new<P: AsRef<[u8]>>(patterns: &[P]) -> TagWalk {
        TagWalk::with_universe(patterns, &TagUniverse::default())
    }

    /// The walk of `patterns` with its filter fitted to `universe`, the tag
    /// tokens of the documents to be searched. Panics on an empty set and
    /// on a keyword that does not start with `<` or holds another `<`.
    pub fn with_universe<P: AsRef<[u8]>>(patterns: &[P], universe: &TagUniverse) -> TagWalk {
        assert!(!patterns.is_empty(), "TagWalk needs at least one keyword");
        let patterns: Vec<Vec<u8>> = patterns.iter().map(|p| p.as_ref().to_vec()).collect();
        for p in &patterns {
            assert!(
                p.first() == Some(&b'<') && !p[1..].contains(&b'<'),
                "TagWalk keyword {:?} must start with `<` and hold no other",
                String::from_utf8_lossy(p)
            );
        }
        let lmin = patterns.iter().map(Vec::len).min().expect("non-empty set");
        let lmax = patterns.iter().map(Vec::len).max().expect("non-empty set");
        let filter = Fingerprint::with_universe(&patterns, universe);
        let (o1, o2) = filter.offsets();
        let mut verify: Vec<(u16, u32)> = patterns
            .iter()
            .enumerate()
            .map(|(idx, p)| (u16::from_be_bytes([p[o1], p[o2]]), idx as u32))
            .collect();
        verify.sort_unstable_by_key(|&(key, idx)| (key, patterns[idx as usize].len(), idx));
        let mut longest_first: Vec<u32> = (0..patterns.len() as u32).collect();
        longest_first.sort_by_key(|&i| std::cmp::Reverse(patterns[i as usize].len()));
        TagWalk { filter, lmin, lmax, verify, patterns, longest_first }
    }

    /// Length of the shortest keyword.
    pub fn min_len(&self) -> usize {
        self.lmin
    }

    /// Length of the longest keyword.
    pub fn max_len(&self) -> usize {
        self.lmax
    }

    /// The keyword indices, longest first (ties by index): the order a
    /// false match re-checks the vocabulary in.
    pub fn longest_first(&self) -> &[u32] {
        &self.longest_first
    }

    /// First match in `hay`, uninstrumented.
    pub fn find(&self, hay: &[u8]) -> Option<MultiMatch> {
        self.find_at(hay, 0, &mut Blocks::default(), &mut NoMetrics)
    }

    /// First match starting at or after `from`, by end and then by
    /// keyword index (for this vocabulary shape, the first by start),
    /// booked to `m` (module docs, "What the counters mean"). `blocks`
    /// keeps the structural masks of `hay` from one search to the next (the
    /// runtime's token step shares them with its tag-end scan).
    #[inline(always)]
    pub fn find_at<M: Metrics>(
        &self,
        hay: &[u8],
        from: usize,
        blocks: &mut Blocks,
        m: &mut M,
    ) -> Option<MultiMatch> {
        if from >= hay.len() || hay.len() - from < self.lmin {
            return None;
        }
        // Last position where even the shortest keyword still fits.
        let last_start = hay.len() - self.lmin;
        let mut cursor = from;
        while cursor <= last_start {
            let Some(s) = self.filter.next_candidate(hay, cursor, last_start, blocks) else {
                break;
            };
            m.scanned((s + 1 - cursor) as u64);
            if s > cursor {
                m.shift((s - cursor) as u64);
            }
            if let Some(&(_, idx)) =
                self.rows_at(hay, s).iter().find(|r| self.occurs_at(hay, s, r, m))
            {
                let idx = idx as usize;
                return Some(MultiMatch {
                    pattern: idx,
                    start: s,
                    end: s + self.patterns[idx].len(),
                });
            }
            cursor = s + 1;
        }
        m.scanned((hay.len() - cursor) as u64);
        if cursor <= last_start {
            m.shift((last_start + 1 - cursor) as u64);
        }
        None
    }

    /// The verification rows of candidate `s` (`s + lmin <= hay.len()`):
    /// the keywords holding the candidate's two filter bytes, shortest
    /// first.
    #[inline]
    fn rows_at(&self, hay: &[u8], s: usize) -> &[(u16, u32)] {
        let (o1, o2) = self.filter.offsets();
        let key = u16::from_be_bytes([hay[s + o1], hay[s + o2]]);
        let lo = self.verify.partition_point(|&(k, _)| k < key);
        let n = self.verify[lo..].iter().take_while(|&&(k, _)| k == key).count();
        &self.verify[lo..lo + n]
    }

    /// Does the keyword of verification row `row` occur at `s` (it may not
    /// fit)? Books the bytes compared: up to and including the first that
    /// differs.
    #[inline]
    fn occurs_at<M: Metrics>(&self, hay: &[u8], s: usize, row: &(u16, u32), m: &mut M) -> bool {
        let pat = &self.patterns[row.1 as usize];
        let Some(window) = hay.get(s..s + pat.len()) else {
            return false;
        };
        let same = common_prefix(window, pat);
        m.cmp((same + 1).min(pat.len()) as u64);
        same == pat.len()
    }

    /// Exact heap bytes owned by the walk: the keyword copies, the
    /// verification table and the longest-first order. The filter lives
    /// inline in the struct (callers owning a `Box<TagWalk>` add
    /// `size_of::<TagWalk>()`).
    pub fn heap_bytes(&self) -> usize {
        self.patterns.capacity() * std::mem::size_of::<Vec<u8>>()
            + self.patterns.iter().map(Vec::capacity).sum::<usize>()
            + self.verify.capacity() * std::mem::size_of::<(u16, u32)>()
            + self.longest_first.capacity() * std::mem::size_of::<u32>()
    }
}

/// Length of the common prefix of two slices of one length, a word at a
/// time: the last word of a length that is no multiple of the word
/// overlaps the one before it, so a keyword takes one or two loads per
/// side however long it is.
#[inline]
fn common_prefix(a: &[u8], b: &[u8]) -> usize {
    let len = a.len();
    let word = |s: &[u8], i: usize| u64::from_le_bytes(s[i..i + 8].try_into().expect("8 bytes"));
    let half = |s: &[u8], i: usize| u32::from_le_bytes(s[i..i + 4].try_into().expect("4 bytes"));
    // The first differing byte of the words at `i`, if any.
    let diff_at =
        |i: usize, diff: u64| (diff != 0).then(|| i + (diff.trailing_zeros() / 8) as usize);
    let found = if len >= 8 {
        let mut i = 0;
        loop {
            let at = i.min(len - 8);
            if let Some(j) = diff_at(at, word(a, at) ^ word(b, at)) {
                break Some(j);
            }
            if at == len - 8 {
                break None;
            }
            i += 8;
        }
    } else if len >= 4 {
        let diff = |i: usize| (half(a, i) ^ half(b, i)) as u64;
        diff_at(0, diff(0)).or_else(|| diff_at(len - 4, diff(len - 4)))
    } else {
        a.iter().zip(b).position(|(x, y)| x != y)
    };
    found.unwrap_or(len)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CommentzWalter, Counters};

    #[test]
    fn candidate_walk_books_scanned_bytes_once() {
        // 4 KiB of text, one keyword near the end: the filter passes every
        // byte up to the candidate once, compares only the keyword, and
        // stops once.
        let mut hay = vec![b't'; 4096];
        hay.extend_from_slice(b"<name>");
        let walk = TagWalk::new(&[&b"<description"[..], b"<name", b"</item"]);
        let mut c = Counters::default();
        let hit = walk.find_at(&hay, 0, &mut Blocks::default(), &mut c).unwrap();
        assert_eq!((hit.pattern, hit.start), (1, 4096));
        assert_eq!(c.scanned, 4097);
        assert_eq!(c.comparisons, 5);
        assert_eq!((c.shifts, c.shift_total), (1, 4096));
    }

    #[test]
    fn the_end_of_the_haystack_books_its_bytes_and_no_empty_shift() {
        // The last alignment `<name` fits at holds its two filter bytes but
        // not the keyword: the walk stops there, fails, and books the bytes
        // behind it as scanned and no shift, for no distance is left.
        let walk = TagWalk::new(&[&b"<name"[..]]);
        let (o1, o2) = walk.filter.offsets();
        let wrong = (1..5).find(|&o| o != o1 && o != o2).expect("a byte off the filter");
        let mut hay = b"tt<name".to_vec();
        hay[2 + wrong] = b'x';
        let mut c = Counters::default();
        assert_eq!(walk.find_at(&hay, 0, &mut Blocks::default(), &mut c), None);
        assert_eq!(
            (c.scanned, c.comparisons, c.shifts, c.shift_total),
            (7, wrong as u64 + 1, 1, 2)
        );
        // One alignment short of the end, the walk ends with a shift of one.
        hay.push(b't');
        let mut c = Counters::default();
        assert_eq!(walk.find_at(&hay, 0, &mut Blocks::default(), &mut c), None);
        assert_eq!((c.scanned, c.shifts, c.shift_total), (8, 2, 3));
        // No candidate at all: the whole haystack, one shift.
        let mut c = Counters::default();
        assert_eq!(walk.find_at(b"tttttttt", 0, &mut Blocks::default(), &mut c), None);
        assert_eq!((c.scanned, c.shifts, c.shift_total), (8, 1, 4));
    }

    #[test]
    fn walk_equals_commentz_walter_on_smp_vocabularies() {
        // Prefix pairs, open and close tokens of one name, and a text full
        // of lookalikes: the first hit is the specification's first match
        // by end, from every start.
        let vocabularies: [&[&[u8]]; 4] = [
            &[b"<Abstract", b"<AbstractText", b"</Abstract", b"</AbstractText"],
            &[b"<a", b"<ab", b"<abc", b"</a", b"</ab"],
            &[b"<item", b"</item", b"<name", b"<description", b"</site"],
            &[b"<abc"],
        ];
        let hay = b"<site><AbstractText a='<x>'>x</AbstractText><Abstract/><abx><abc b=\"q>\">\
                    <ab/><a></a><items><item id='i'><name>n</name><description>d</description>\
                    </item></items></site>";
        for pats in vocabularies {
            let walk = TagWalk::new(pats);
            let spec = CommentzWalter::new(pats);
            for from in 0..=hay.len() {
                let got = walk.find_at(hay, from, &mut Blocks::default(), &mut NoMetrics);
                assert_eq!(got, spec.find_at(hay, from, &mut NoMetrics), "{pats:?} from {from}");
            }
        }
    }

    #[test]
    fn longest_first_order_breaks_ties_by_index() {
        let walk = TagWalk::new(&[&b"<a"[..], b"</ab", b"<abc", b"</a"]);
        assert_eq!(walk.longest_first(), [1, 2, 3, 0]);
        assert_eq!((walk.min_len(), walk.max_len()), (2, 4));
    }

    #[test]
    #[should_panic(expected = "must start with `<` and hold no other")]
    fn a_second_angle_bracket_is_rejected() {
        let _ = TagWalk::new(&[&b"<a<b"[..], b"<c"]);
    }

    #[test]
    #[should_panic(expected = "must start with `<` and hold no other")]
    fn a_keyword_without_the_anchor_is_rejected() {
        let _ = TagWalk::new(&[&b"ab"[..], b"<c"]);
    }
}
