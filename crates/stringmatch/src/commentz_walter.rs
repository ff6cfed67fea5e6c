//! Commentz–Walter multi-keyword skipping search (Commentz-Walter, ICALP
//! 1979).
//!
//! The paper searches a frontier vocabulary of several keywords with
//! Commentz–Walter (the `(CW)` branch of Fig. 4). Like Boyer–Moore it
//! matches **right to left** and *skips* haystack characters; unlike
//! Aho–Corasick it does not touch every input position.
//!
//! # Algorithm
//!
//! A window of length `lmin` (the shortest pattern) slides over the
//! haystack. At each alignment the haystack is read backwards from the
//! window end through a trie of the *reversed* patterns; every trie node
//! that completes a reversed pattern reports an occurrence ending at the
//! window end. On a mismatch the window shifts forward by the maximum of
//! two independently safe shift functions:
//!
//! * **bad character** — `max(d1[c] − t, 1)` where `c` is the mismatching
//!   byte read at backward depth `t` and `d1[c]` is the minimal distance
//!   (≥ 1, capped at `lmin`) of `c` from the right end of any pattern.
//!   Capping at `lmin` is what makes this rule safe on its own: a pattern
//!   occurrence that does not cover the mismatch position must end at least
//!   `lmin − t` beyond the current window end.
//! * **good suffix** — a per-node shift `gs[v]`: the minimal `s ≥ 1` such
//!   that shifting the window by `s` re-aligns the already-matched backward
//!   string `u` with (a) a factor of some pattern at distance `s` from its
//!   end, or (b) a whole pattern lying inside `u`'s right portion. Defaults
//!   to `lmin`.
//!
//! Both rules follow the classical Commentz–Walter construction; the
//! property tests in `tests/proptest_matchers.rs` verify the full occurrence
//! set against Aho–Corasick and naive oracles.
//!
//! This loop is the specification of a multi-keyword search and the
//! accounting of the paper's Tables I/II: [`Metrics::cmp`] counts every
//! byte read through the trie, [`Metrics::shift`] every window shift. The
//! runtime runs it under `SMPX_NO_SIMD=1`; the vector path searches the
//! same vocabulary with [`TagWalk`](crate::TagWalk), which the property
//! tests hold to it.

use crate::{Metrics, MultiMatch, NoMetrics};

#[derive(Debug, Clone, Default)]
struct Node {
    /// Sorted outgoing edges (byte, target).
    edges: Vec<(u8, u32)>,
    /// Patterns whose reversal ends at this node.
    out: Vec<u32>,
    /// Good-suffix shift for a mismatch below this node.
    gs: u32,
    /// Minimal `s` for rule (b): some reversed pattern's tail starting at
    /// offset `s` ends exactly at this node (propagated to descendants).
    tail: u32,
}

impl Node {
    fn child(&self, b: u8) -> Option<u32> {
        self.edges.binary_search_by_key(&b, |&(c, _)| c).ok().map(|i| self.edges[i].1)
    }
}

/// A compiled Commentz–Walter searcher over a pattern set.
#[derive(Debug, Clone)]
pub struct CommentzWalter {
    /// Length of the shortest pattern (window size).
    lmin: usize,
    /// Length of the longest pattern (bounds how far an occurrence start
    /// can trail its detection window).
    lmax: usize,
    patterns: Vec<Vec<u8>>,
    nodes: Vec<Node>,
    /// `d1[c]`: minimal distance ≥ 1 of byte `c` from the right end of any
    /// pattern, capped at `lmin`.
    d1: [u32; 256],
}

impl CommentzWalter {
    /// Compile the pattern set. Panics if the set or any pattern is empty.
    pub fn new<P: AsRef<[u8]>>(patterns: &[P]) -> Self {
        assert!(!patterns.is_empty(), "CommentzWalter needs at least one pattern");
        let patterns: Vec<Vec<u8>> = patterns.iter().map(|p| p.as_ref().to_vec()).collect();
        for p in &patterns {
            assert!(!p.is_empty(), "CommentzWalter patterns must be non-empty");
        }
        let lmin = patterns.iter().map(|p| p.len()).min().unwrap();
        let lmax = patterns.iter().map(|p| p.len()).max().unwrap();

        // Trie over reversed patterns.
        let mut nodes = vec![Node { gs: lmin as u32, tail: lmin as u32, ..Node::default() }];
        for (idx, pat) in patterns.iter().enumerate() {
            let mut cur = 0u32;
            for &b in pat.iter().rev() {
                cur = match nodes[cur as usize].child(b) {
                    Some(n) => n,
                    None => {
                        let n = nodes.len() as u32;
                        nodes.push(Node { gs: lmin as u32, tail: lmin as u32, ..Node::default() });
                        let edges = &mut nodes[cur as usize].edges;
                        let at = edges.partition_point(|&(c, _)| c < b);
                        edges.insert(at, (b, n));
                        n
                    }
                };
            }
            nodes[cur as usize].out.push(idx as u32);
        }

        // Bad-character distances.
        let mut d1 = [lmin as u32; 256];
        for p in &patterns {
            for j in 1..p.len() {
                let c = p[p.len() - 1 - j];
                let dist = j.min(lmin) as u32;
                if dist < d1[c as usize] {
                    d1[c as usize] = dist;
                }
            }
        }

        // Good-suffix candidates: walk every reversed-pattern tail rp[s..]
        // through the trie. Each visited node (root included: the empty
        // string is a factor at every offset) gets candidate `s`; a fully
        // consumed tail records a rule-(b) candidate for the subtree.
        for pat in &patterns {
            let rp = |i: usize| pat[pat.len() - 1 - i];
            for s in 1..=pat.len().min(lmin.saturating_sub(1)) {
                let mut cur = 0u32;
                nodes[0].gs = nodes[0].gs.min(s as u32);
                let mut d = 0usize;
                while s + d < pat.len() {
                    match nodes[cur as usize].child(rp(s + d)) {
                        Some(n) => {
                            cur = n;
                            d += 1;
                            nodes[cur as usize].gs = nodes[cur as usize].gs.min(s as u32);
                        }
                        None => break,
                    }
                }
                if s + d == pat.len() {
                    nodes[cur as usize].tail = nodes[cur as usize].tail.min(s as u32);
                }
            }
        }

        // Propagate rule-(b) candidates to descendants (DFS, ancestors-or-self).
        let mut stack = vec![(0u32, lmin as u32)];
        while let Some((v, inherited)) = stack.pop() {
            let running = inherited.min(nodes[v as usize].tail);
            nodes[v as usize].gs = nodes[v as usize].gs.min(running);
            stack.extend(nodes[v as usize].edges.iter().map(|&(_, c)| (c, running)));
        }

        CommentzWalter { lmin, lmax, patterns, nodes, d1 }
    }

    /// The pattern set, in construction order.
    pub fn patterns(&self) -> &[Vec<u8>] {
        &self.patterns
    }

    /// Length of the shortest pattern (the sliding-window size).
    pub fn min_len(&self) -> usize {
        self.lmin
    }

    /// Length of the longest pattern.
    pub fn max_len(&self) -> usize {
        self.lmax
    }

    /// First match by end position (ties: smallest pattern index),
    /// uninstrumented.
    pub fn find(&self, hay: &[u8]) -> Option<MultiMatch> {
        self.find_at(hay, 0, &mut NoMetrics)
    }

    /// First match by end position whose start is `>= from`, instrumented:
    /// the windowed loop.
    ///
    /// Note that because matching is right-to-left over a window, "first" is
    /// defined by the *end* offset of the occurrence. For the token
    /// keywords SMP uses (each containing exactly one `<`) occurrences can
    /// never overlap, so first-by-end coincides with first-by-start.
    pub fn find_at<M: Metrics>(&self, hay: &[u8], from: usize, m: &mut M) -> Option<MultiMatch> {
        let lmin = self.lmin;
        if from >= hay.len() || hay.len() - from < lmin {
            return None;
        }
        let mut pos = from;
        let last_pos = hay.len() - lmin;
        while pos <= last_pos {
            let e = pos + lmin - 1;
            let (best, shift) = self.scan_window(hay, from, e, m);
            if let Some(mm) = best {
                return Some(mm);
            }
            m.shift(shift as u64);
            pos += shift;
        }
        None
    }

    /// All matches, sorted by (end, pattern index).
    pub fn find_iter<'h>(&'h self, hay: &'h [u8]) -> impl Iterator<Item = MultiMatch> + 'h {
        let lmin = self.lmin;
        let mut pos = 0usize;
        // The matches of the last window, sorted by descending (end,
        // pattern): reported whole before the window moves on.
        let mut pending: Vec<MultiMatch> = Vec::new();
        std::iter::from_fn(move || loop {
            if let Some(mm) = pending.pop() {
                return Some(mm);
            }
            if hay.len() < lmin || pos > hay.len() - lmin {
                return None;
            }
            let e = pos + lmin - 1;
            let (all, shift) = self.scan_window_all(hay, e);
            pending = all;
            pos += shift;
            if pending.len() > 1 {
                pending.sort_by_key(|mm| std::cmp::Reverse((mm.end, mm.pattern)));
            }
        })
    }

    /// Exact heap bytes owned by the compiled searcher: the trie node
    /// vector plus every node's edge/out vectors and the pattern copies.
    /// The fixed-size `d1` table lives inline in the struct and is not
    /// counted here (callers owning a `Box<CommentzWalter>` add
    /// `size_of::<CommentzWalter>()`).
    pub fn heap_bytes(&self) -> usize {
        let nodes = self.nodes.capacity() * std::mem::size_of::<Node>()
            + self
                .nodes
                .iter()
                .map(|n| {
                    n.edges.capacity() * std::mem::size_of::<(u8, u32)>()
                        + n.out.capacity() * std::mem::size_of::<u32>()
                })
                .sum::<usize>();
        let patterns = self.patterns.capacity() * std::mem::size_of::<Vec<u8>>()
            + self.patterns.iter().map(|p| p.capacity()).sum::<usize>();
        nodes + patterns
    }

    /// Backward trie walk at window end `e`; returns the best reportable
    /// match (start ≥ `from`, smallest pattern index) and the safe shift.
    fn scan_window<M: Metrics>(
        &self,
        hay: &[u8],
        from: usize,
        e: usize,
        m: &mut M,
    ) -> (Option<MultiMatch>, usize) {
        let mut v = 0u32;
        let mut t = 0usize;
        let mut best: Option<MultiMatch> = None;
        let shift;
        loop {
            if t > e {
                // Ran off the start of the haystack.
                shift = (self.nodes[v as usize].gs as usize).max(1);
                break;
            }
            let c = hay[e - t];
            m.cmp(1);
            match self.nodes[v as usize].child(c) {
                Some(n) => {
                    v = n;
                    t += 1;
                    let node = &self.nodes[v as usize];
                    for &p in &node.out {
                        let plen = self.patterns[p as usize].len();
                        debug_assert_eq!(plen, t);
                        let start = e + 1 - plen;
                        if start >= from && best.is_none_or(|b| (p as usize) < b.pattern) {
                            best = Some(MultiMatch { pattern: p as usize, start, end: e + 1 });
                        }
                    }
                    if node.edges.is_empty() {
                        shift = (node.gs as usize).max(1);
                        break;
                    }
                }
                None => {
                    let bad = (self.d1[c as usize] as usize).saturating_sub(t).max(1);
                    shift = bad.max(self.nodes[v as usize].gs as usize).max(1);
                    break;
                }
            }
        }
        (best, shift)
    }

    /// Like [`scan_window`](Self::scan_window) but collects every output.
    fn scan_window_all(&self, hay: &[u8], e: usize) -> (Vec<MultiMatch>, usize) {
        let mut v = 0u32;
        let mut t = 0usize;
        let mut all = Vec::new();
        let shift;
        loop {
            if t > e {
                shift = (self.nodes[v as usize].gs as usize).max(1);
                break;
            }
            let c = hay[e - t];
            match self.nodes[v as usize].child(c) {
                Some(n) => {
                    v = n;
                    t += 1;
                    let node = &self.nodes[v as usize];
                    for &p in &node.out {
                        let plen = self.patterns[p as usize].len();
                        all.push(MultiMatch {
                            pattern: p as usize,
                            start: e + 1 - plen,
                            end: e + 1,
                        });
                    }
                    if node.edges.is_empty() {
                        shift = (node.gs as usize).max(1);
                        break;
                    }
                }
                None => {
                    let bad = (self.d1[c as usize] as usize).saturating_sub(t).max(1);
                    shift = bad.max(self.nodes[v as usize].gs as usize).max(1);
                    break;
                }
            }
        }
        (all, shift)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{naive, Counters};

    fn check_all(hay: &[u8], pats: &[&[u8]]) {
        let cw = CommentzWalter::new(pats);
        let got: Vec<MultiMatch> = cw.find_iter(hay).collect();
        let want = naive::find_all_multi(hay, pats);
        assert_eq!(got, want, "hay={:?} pats={:?}", String::from_utf8_lossy(hay), pats);
    }

    #[test]
    fn paper_frontier_vocabulary() {
        // Example 2 of the paper: state q1 scans for {"<b", "<c", "</a"}.
        let pats: Vec<&[u8]> = vec![b"<b", b"<c", b"</a"];
        let cw = CommentzWalter::new(&pats);
        let m = cw.find(b"<a><c><b/></c></a>").unwrap();
        assert_eq!((m.pattern, m.start), (1, 3));
        check_all(b"<a><c><b/></c></a>", &pats);
    }

    #[test]
    fn single_pattern_degenerates() {
        check_all(b"abcabcabc", &[b"abc"]);
        check_all(b"aaaa", &[b"aa"]);
    }

    #[test]
    fn different_lengths() {
        check_all(b"ushers say hershey", &[b"he", b"she", b"hers"]);
        check_all(b"xayxayaa", &[b"aa", b"xay"]);
        check_all(b"abababab", &[b"ab", b"ba", b"aba"]);
        check_all(b"abracadabra", &[b"abra", b"cad"]);
        check_all(b"<a>text</a><b/>", &[b"<a", b"text", b"/b"]);
        check_all(b"mississippi", &[b"ssi", b"ppi", b"iss"]);
        check_all(b"xxefxxabxxghxxcd", &[b"ab", b"cd", b"ef", b"gh"]);
    }

    #[test]
    fn nested_suffix_patterns() {
        // One pattern is a suffix of another: both end at the same spot.
        check_all(b"zzabcdezz", &[b"cde", b"abcde", b"e"]);
    }

    #[test]
    fn no_match() {
        let pats: Vec<&[u8]> = vec![b"xx", b"yy"];
        let cw = CommentzWalter::new(&pats);
        assert_eq!(cw.find(b"abcdefgh"), None);
        assert_eq!(cw.find(b"x"), None);
        assert_eq!(cw.find(b""), None);
    }

    #[test]
    fn from_offset_skips_earlier_matches() {
        let pats: Vec<&[u8]> = vec![b"ab"];
        let cw = CommentzWalter::new(&pats);
        let m = cw.find_at(b"abab", 1, &mut NoMetrics).unwrap();
        assert_eq!(m.start, 2);
    }

    #[test]
    fn skips_characters_on_absent_alphabet() {
        let hay = vec![b'z'; 4096];
        let pats: Vec<&[u8]> = vec![b"<description", b"<name", b"</item"];
        let cw = CommentzWalter::new(&pats);
        let mut c = Counters::default();
        assert_eq!(cw.find_at(&hay, 0, &mut c), None);
        // lmin = 5 ("<name"), so roughly n/5 comparisons.
        assert!(c.comparisons <= (hay.len() / 4) as u64, "got {}", c.comparisons);
        assert!(c.avg_shift() > 4.0);
    }

    #[test]
    fn nested_and_overlapping_occurrences_keep_first_by_end() {
        // `bcd` and `cd` end inside `abcdef`, before it and together: a
        // later start that ends sooner wins, and the tie on the end goes to
        // the index — from every start, as the oracle's occurrence set
        // says.
        let pats: Vec<&[u8]> = vec![b"abcdef", b"cd", b"bcd"];
        let hay = b"xxabcdefxx";
        let cw = CommentzWalter::new(&pats);
        let all = naive::find_all_multi(hay, &pats);
        for from in 0..=hay.len() {
            let want =
                all.iter().filter(|mm| mm.start >= from).min_by_key(|mm| (mm.end, mm.pattern));
            assert_eq!(cw.find_at(hay, from, &mut NoMetrics).as_ref(), want, "from={from}");
        }
        assert_eq!(cw.find(hay), Some(MultiMatch { pattern: 1, start: 4, end: 6 }));
        check_all(hay, &pats);
    }

    #[test]
    fn single_byte_patterns_in_mixed_vocabulary() {
        // Patterns of length 1: a window of one byte.
        check_all(b"a<b<<c", &[b"<", b"ab"]);
        check_all(b"zzz", &[b"z", b"y"]);
    }

    #[test]
    fn min_len_reported() {
        let pats: Vec<&[u8]> = vec![b"abc", b"de"];
        assert_eq!(CommentzWalter::new(&pats).min_len(), 2);
    }

    #[test]
    fn lmin_one_scans_everything_correctly() {
        check_all(b"abcabc", &[b"a", b"bc"]);
        check_all(b"aaa", &[b"a"]);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_pattern_panics() {
        let _ = CommentzWalter::new(&[b"".as_slice()]);
    }
}
