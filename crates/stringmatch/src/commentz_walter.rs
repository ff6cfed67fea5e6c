//! Commentz–Walter multi-keyword skipping search (Commentz-Walter, ICALP
//! 1979).
//!
//! The SMP runtime uses this engine whenever the frontier vocabulary of the
//! current automaton state holds several keywords (the paper's `(CW)` branch
//! in Fig. 4). Like Boyer–Moore it matches **right to left** and *skips*
//! haystack characters; unlike Aho–Corasick it does not touch every input
//! position.
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
//! # Vectorized fast path
//!
//! [`find_at`](CommentzWalter::find_at) does not slide windows. It walks
//! the *candidate* alignments of a per-vocabulary
//! [`memscan::Fingerprint`] in increasing order and verifies the keywords
//! at each; [`find_at_scalar`](CommentzWalter::find_at_scalar) — the loop
//! above — stays the specification and the `SMPX_NO_SIMD=1` leg, and
//! `find_at ≡ find_at_scalar` (first by end, ties by pattern index,
//! starts `>= from`) for arbitrary byte patterns.
//!
//! * **The filter.** At build time two byte offsets `o1 <= o2 < lmin` are
//!   chosen for the whole vocabulary: the pair that the fewest *foreign*
//!   tags of the DTD pass — tokens of the [`memscan::TagUniverse`] the
//!   searcher is [built against](CommentzWalter::with_universe) that no
//!   keyword is a prefix of and that hold some keyword's byte at both
//!   offsets — and among equals (all pairs, for [`new`](CommentzWalter::new))
//!   the pair minimising `Σ_k rank(k[o1]) · rank(k[o2])` under `memscan`'s
//!   XML byte-frequency table, ties to the later offsets. When the
//!   keywords share their first byte (the *anchor*: always `<` in SMP) it
//!   is tested as well, and the offsets are chosen past it: for
//!   `{<Abstract, </Abstract}` with no universe the filter is `<` with
//!   `Ab` or `/A` at `(1, 2)`. Alignment `i` is a candidate
//!   when it holds the anchor and some keyword bucket admits both
//!   `hay[i + o1]` and `hay[i + o2]`; the test is one compare and four
//!   nibble-table lookups, whatever `|V|` is (two exact compares when the
//!   keywords agree on both bytes), so text and tags outside `V[q]` never
//!   leave the vector unit.
//! * **Near phase.** A set anchored on `<` (every SMP vocabulary) first
//!   pops the `<` bits of the 64-byte structural block the search starts
//!   in ([`memscan::Blocks`]: `<`, `>` and quote masks, computed once and
//!   shared with the runtime's tag-end scan) and states the lane test at
//!   each. In dense markup the next token is in that block, which the
//!   vector loop cannot help and must not hurt.
//! * **Far phase.** Past an exhausted block — at once, for any other
//!   set — [`memscan::find_fingerprint`] tests 16/32 alignments per
//!   iteration against all keywords at once.
//! * **Verification.** A candidate's two bytes are the key into a table
//!   of `(key, pattern)` rows sorted by `(key, len, index)`: the rows of
//!   one key are the keywords that can start there, shortest first, so
//!   the first that compares equal is the smallest end at this start
//!   (`<ab` before `<abc`, duplicates by index). There is no trie on
//!   this path.
//! * **First-hit exit.** When every pattern begins with `<` and holds no
//!   other `<` (every SMP vocabulary), an occurrence starting later than
//!   a verified one would have to start inside it, on a byte that is not
//!   `<`: the first verified candidate is the answer, and the walk stops
//!   there instead of going on while a later start could still end
//!   sooner.
//!
//! The safety argument for the vector loads is the filter's: offsets stay
//! below `lmin`, the loop runs while `i + 32 + o2 <= len`, and the scalar
//! statement finishes the tail.
//!
//! **What the counters mean here.** Every alignment the filter passes
//! over is booked once through [`Metrics::scanned`], near phase and far
//! phase alike; [`Metrics::cmp`] counts verification bytes only;
//! [`Metrics::shift`] is called once per candidate stop with the distance
//! from the previous one. `Char Comp.` therefore counts a few bytes per
//! *candidate* rather than per tag, and `∅ Shift` is the distance between
//! candidates; the scalar leg keeps the paper's definitions. A walk that
//! takes the first-hit exit books nothing past its hit; one that cannot
//! books the alignments it went on over, up to `len - lmin` per hit.

use crate::memscan::{self, Blocks, FilterChoice, TagUniverse};
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
///
/// The fields the candidate walk reads come first and in declaration
/// order (`repr(C)`): one or two cache lines per search, the tables of
/// the windowed loop behind them.
#[derive(Debug, Clone)]
#[repr(C)]
pub struct CommentzWalter {
    /// The candidate filter of the accelerated path.
    filter: memscan::Fingerprint,
    /// Every pattern begins with `<` and holds no other: the walk may
    /// stop at its first verified candidate (module docs, "First-hit
    /// exit").
    first_hit: bool,
    /// Length of the shortest pattern (window size).
    lmin: usize,
    /// Length of the longest pattern (bounds how far an occurrence start
    /// can trail its detection window).
    lmax: usize,
    /// Verification table of the accelerated path: one `(key, pattern)`
    /// row per pattern, sorted by `(key, len, index)`, where `key` packs
    /// the pattern's bytes at the filter's two offsets.
    verify: Vec<(u16, u32)>,
    patterns: Vec<Vec<u8>>,
    nodes: Vec<Node>,
    /// `d1[c]`: minimal distance ≥ 1 of byte `c` from the right end of any
    /// pattern, capped at `lmin`.
    d1: [u32; 256],
}

impl CommentzWalter {
    /// Compile the pattern set. Panics if the set or any pattern is empty.
    pub fn new<P: AsRef<[u8]>>(patterns: &[P]) -> Self {
        CommentzWalter::with_universe(patterns, &TagUniverse::default())
    }

    /// Compile the pattern set with its candidate filter fitted to
    /// `universe`, the tag tokens of the documents to be searched.
    pub fn with_universe<P: AsRef<[u8]>>(patterns: &[P], universe: &TagUniverse) -> Self {
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

        let filter = memscan::Fingerprint::with_universe(&patterns, universe);
        let (o1, o2) = filter.offsets();
        let mut verify: Vec<(u16, u32)> = patterns
            .iter()
            .enumerate()
            .map(|(idx, p)| (u16::from_be_bytes([p[o1], p[o2]]), idx as u32))
            .collect();
        verify.sort_unstable_by_key(|&(key, idx)| (key, patterns[idx as usize].len(), idx));

        let first_hit = patterns.iter().all(|p| p[0] == b'<' && !p[1..].contains(&b'<'));
        CommentzWalter { filter, first_hit, lmin, lmax, verify, patterns, nodes, d1 }
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

    /// First match by end position whose start is `>= from`, instrumented.
    ///
    /// Note that because matching is right-to-left over a window, "first" is
    /// defined by the *end* offset of the occurrence. For the token
    /// keywords SMP uses (each containing exactly one `<`) occurrences can
    /// never overlap, so first-by-end coincides with first-by-start.
    ///
    /// Walks the filter's candidates (module docs, "Vectorized fast
    /// path") unless `SMPX_NO_SIMD=1` forces the pure windowed loop
    /// ([`find_at_scalar`](Self::find_at_scalar)).
    pub fn find_at<M: Metrics>(&self, hay: &[u8], from: usize, m: &mut M) -> Option<MultiMatch> {
        self.find_at_blocks(hay, from, &mut Blocks::new(), m)
    }

    /// [`find_at`](Self::find_at) with the structural masks of `hay` kept
    /// in `blocks` from one search to the next (the runtime's token step
    /// shares them with its tag-end scan; see [`Blocks`]).
    #[inline]
    pub fn find_at_blocks<M: Metrics>(
        &self,
        hay: &[u8],
        from: usize,
        blocks: &mut Blocks,
        m: &mut M,
    ) -> Option<MultiMatch> {
        if memscan::accel_enabled() {
            self.find_at_accel(hay, from, blocks, m)
        } else {
            self.find_at_scalar(hay, from, m)
        }
    }

    /// Accelerated search: verify the filter's candidates in increasing
    /// order of start. The shortest pattern occurring at a start is the
    /// smallest end there, so the result is the minimum by `(end, pattern
    /// index)` over the starts `>= from` — what the windowed loop
    /// computes, which returns the first *window* (= smallest end) with a
    /// detection and breaks ties by pattern index. A later start can only
    /// beat the best end so far while `start + lmin <= end`, which bounds
    /// the walk past the first hit to `lmax - lmin` alignments — and to
    /// none under the first-hit exit.
    #[inline(always)]
    fn find_at_accel<M: Metrics>(
        &self,
        hay: &[u8],
        from: usize,
        blocks: &mut Blocks,
        m: &mut M,
    ) -> Option<MultiMatch> {
        let lmin = self.lmin;
        if from >= hay.len() || hay.len() - from < lmin {
            return None;
        }
        // Last position where even the shortest pattern still fits.
        let last_start = hay.len() - lmin;
        if self.first_hit {
            return self.first_hit_walk(hay, from, last_start, blocks, m);
        }
        let mut limit = last_start;
        let mut cursor = from;
        let mut best: Option<MultiMatch> = None;
        while cursor <= limit {
            let Some(s) = self.filter.next_candidate(hay, cursor, limit, blocks) else {
                if best.is_none() {
                    m.scanned((hay.len() - cursor) as u64);
                    m.shift((last_start + 1 - cursor) as u64);
                } else {
                    m.scanned((limit + 1 - cursor) as u64);
                }
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
                let end = s + self.patterns[idx].len();
                if best.is_none_or(|bst| (end, idx) < (bst.end, bst.pattern)) {
                    best = Some(MultiMatch { pattern: idx, start: s, end });
                    limit = limit.min(end - lmin);
                }
            }
            cursor = s + 1;
        }
        best
    }

    /// [`find_at_accel`](Self::find_at_accel) under the first-hit exit:
    /// the first candidate where a pattern occurs is the answer.
    #[inline(always)]
    fn first_hit_walk<M: Metrics>(
        &self,
        hay: &[u8],
        mut cursor: usize,
        last_start: usize,
        blocks: &mut Blocks,
        m: &mut M,
    ) -> Option<MultiMatch> {
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
        m.shift((last_start + 1 - cursor) as u64);
        None
    }

    /// The verification rows of candidate `s` (`s + lmin <= hay.len()`):
    /// the patterns holding the candidate's two filter bytes, shortest
    /// first.
    #[inline]
    fn rows_at(&self, hay: &[u8], s: usize) -> &[(u16, u32)] {
        let (o1, o2) = self.filter.offsets();
        let key = u16::from_be_bytes([hay[s + o1], hay[s + o2]]);
        let lo = self.verify.partition_point(|&(k, _)| k < key);
        let n = self.verify[lo..].iter().take_while(|&&(k, _)| k == key).count();
        &self.verify[lo..lo + n]
    }

    /// Does the pattern of verification row `row` occur at `s`? Books the
    /// bytes compared.
    #[inline]
    fn occurs_at<M: Metrics>(&self, hay: &[u8], s: usize, row: &(u16, u32), m: &mut M) -> bool {
        memscan::occurs_at(hay, s, &self.patterns[row.1 as usize], m)
    }

    /// What the candidate filter decided for this pattern set against
    /// `universe`, the one the searcher was built with.
    #[doc(hidden)]
    pub fn filter_choice(&self, universe: &TagUniverse) -> FilterChoice {
        self.filter.choice(&self.patterns, universe)
    }

    /// The pure Commentz–Walter windowed loop without the vectorized
    /// prefix fast path (`SMPX_NO_SIMD=1` fallback and ablation baseline);
    /// result-identical to [`find_at`](Self::find_at).
    pub fn find_at_scalar<M: Metrics>(
        &self,
        hay: &[u8],
        from: usize,
        m: &mut M,
    ) -> Option<MultiMatch> {
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

    /// All matches, sorted by (end, pattern index). Rides the candidate
    /// walk of [`find_at`](Self::find_at) unless `SMPX_NO_SIMD=1` forces
    /// the windowed loop.
    pub fn find_iter<'h>(&'h self, hay: &'h [u8]) -> impl Iterator<Item = MultiMatch> + 'h {
        let lmin = self.lmin;
        let accel = memscan::accel_enabled();
        let mut pos = 0usize;
        // Matches found but not yet reported, sorted by descending (end,
        // pattern). The windowed loop reports a window's batch whole; the
        // candidate walk holds a match back until no later start can end
        // before it: `horizon` is the smallest end still to come.
        let mut pending: Vec<MultiMatch> = Vec::new();
        let mut horizon = if accel { 0 } else { usize::MAX };
        std::iter::from_fn(move || loop {
            if pending.last().is_some_and(|mm| mm.end < horizon) {
                return pending.pop();
            }
            if hay.len() < lmin || pos > hay.len() - lmin {
                if horizon == usize::MAX {
                    return None;
                }
                horizon = usize::MAX;
                continue;
            }
            if accel {
                // A whole-haystack scan has no near phase to pay for: it
                // goes from candidate to candidate in the vector kernel.
                let Some(s) = memscan::find_fingerprint(hay, pos, &self.filter) else {
                    pos = hay.len();
                    continue;
                };
                horizon = s + lmin;
                for row in self.rows_at(hay, s) {
                    if self.occurs_at(hay, s, row, &mut NoMetrics) {
                        let idx = row.1 as usize;
                        let end = s + self.patterns[idx].len();
                        pending.push(MultiMatch { pattern: idx, start: s, end });
                    }
                }
                pos = s + 1;
            } else {
                let e = pos + lmin - 1;
                let (all, shift) = self.scan_window_all(hay, e);
                pending = all;
                pos += shift;
            }
            if pending.len() > 1 {
                pending.sort_by_key(|mm| std::cmp::Reverse((mm.end, mm.pattern)));
            }
        })
    }

    /// Exact heap bytes owned by the compiled searcher: the trie node
    /// vector plus every node's edge/out vectors, the pattern copies and
    /// the verification table.
    /// The fixed-size `d1` and filter tables live inline in the struct and are not
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
        let verify = self.verify.capacity() * std::mem::size_of::<(u16, u32)>();
        nodes + patterns + verify
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
    fn mixed_first_bytes_use_multi_needle_fast_path() {
        // Two and three distinct first bytes: no shared byte for the near
        // phase to probe for, so it states the filter at every alignment.
        // The accelerated path must agree with the windowed loop and the
        // naive oracle.
        let cases: Vec<(&[u8], Vec<&[u8]>)> = vec![
            (b"ushers say hershey", vec![b"he", b"she", b"hers"]),
            (b"abracadabra", vec![b"abra", b"cad"]),
            (b"<a>text</a><b/>", vec![b"<a", b"text", b"/b"]),
            (b"mississippi", vec![b"ssi", b"ppi", b"iss"]),
        ];
        for (hay, pats) in cases {
            let cw = CommentzWalter::new(&pats);
            for from in 0..=hay.len() {
                assert_eq!(
                    cw.find_at(hay, from, &mut NoMetrics),
                    cw.find_at_scalar(hay, from, &mut NoMetrics),
                    "hay={:?} pats={pats:?} from={from}",
                    String::from_utf8_lossy(hay)
                );
            }
            check_all(hay, &pats);
        }
    }

    #[test]
    fn four_distinct_first_bytes_take_the_filter_too() {
        // The filter looks at two offsets of the whole set, not at first
        // bytes: any number of distinct ones takes the same path.
        let pats: Vec<&[u8]> = vec![b"ab", b"cd", b"ef", b"gh"];
        let hay = b"xxefxxabxxghxxcd";
        let cw = CommentzWalter::new(&pats);
        for from in 0..=hay.len() {
            assert_eq!(
                cw.find_at(hay, from, &mut NoMetrics),
                cw.find_at_scalar(hay, from, &mut NoMetrics),
                "from={from}"
            );
        }
        check_all(hay, &pats);
    }

    #[test]
    fn filter_looks_past_the_shared_first_byte() {
        let pats: Vec<&[u8]> = vec![b"<Abstract", b"</Abstract"];
        let choice = CommentzWalter::new(&pats).filter_choice(&TagUniverse::default());
        assert_eq!((choice.keywords, choice.lmin, choice.anchor), (2, 9, Some(b'<')));
        // `Ab` and `/A`: the capitals are the rare bytes of these tags.
        assert_eq!(choice.offsets, (1, 2));
        assert_eq!(choice.bytes, vec![(b'A', b'b'), (b'/', b'A')]);
        // A single-byte pattern leaves one offset to look at.
        let pats: Vec<&[u8]> = vec![b"<", b"ab"];
        let choice = CommentzWalter::new(&pats).filter_choice(&TagUniverse::default());
        assert_eq!(choice.offsets, (0, 0));
    }

    #[test]
    fn nested_and_overlapping_occurrences_keep_first_by_end() {
        // `bcd` and `cd` end inside `abcdef`, before it and together: the
        // walk must go on past the first verified candidate while a later
        // start can end sooner, and the tie on the end goes to the index.
        let pats: Vec<&[u8]> = vec![b"abcdef", b"cd", b"bcd"];
        let hay = b"xxabcdefxx";
        let cw = CommentzWalter::new(&pats);
        for from in 0..=hay.len() {
            assert_eq!(
                cw.find_at(hay, from, &mut NoMetrics),
                cw.find_at_scalar(hay, from, &mut NoMetrics),
                "from={from}"
            );
        }
        assert_eq!(cw.find(hay), Some(MultiMatch { pattern: 1, start: 4, end: 6 }));
        check_all(hay, &pats);
    }

    #[test]
    fn candidate_walk_books_scanned_bytes_once() {
        // 4 KiB of text, one keyword near the end: the filter passes every
        // byte up to the candidate once, compares only the keyword, and
        // stops once.
        let mut hay = vec![b't'; 4096];
        hay.extend_from_slice(b"<name>");
        let pats: Vec<&[u8]> = vec![b"<description", b"<name", b"</item"];
        let cw = CommentzWalter::new(&pats);
        let mut c = Counters::default();
        let hit = cw.find_at_accel(&hay, 0, &mut Blocks::new(), &mut c).unwrap();
        assert_eq!((hit.pattern, hit.start), (1, 4096));
        assert_eq!(c.scanned, 4097);
        assert_eq!(c.comparisons, 5);
        assert_eq!((c.shifts, c.shift_total), (1, 4096));
    }

    #[test]
    fn first_hit_exit_equals_the_full_walk_on_smp_vocabularies() {
        // Prefix pairs, open and close tokens of one name, and a text full
        // of lookalikes: the exit returns what the full walk returns, from
        // every start, and books exactly `len - lmin` fewer scanned bytes
        // per hit — the fruitless continuation — and nothing else less.
        let vocabularies: [&[&[u8]]; 3] = [
            &[b"<Abstract", b"<AbstractText", b"</Abstract", b"</AbstractText"],
            &[b"<a", b"<ab", b"<abc", b"</a", b"</ab"],
            &[b"<item", b"</item", b"<name", b"<description", b"</site"],
        ];
        let hay = b"<site><AbstractText a='<x>'>x</AbstractText><Abstract/><abx><abc b=\"q>\">\
                    <ab/><a></a><items><item id='i'><name>n</name><description>d</description>\
                    </item></items></site>";
        for pats in vocabularies {
            let exit = CommentzWalter::new(pats);
            assert!(exit.first_hit, "{pats:?}");
            let full = CommentzWalter { first_hit: false, ..exit.clone() };
            for from in 0..=hay.len() {
                let (mut a, mut b) = (Counters::default(), Counters::default());
                let got = exit.find_at_accel(hay, from, &mut Blocks::new(), &mut a);
                let want = full.find_at_accel(hay, from, &mut Blocks::new(), &mut b);
                assert_eq!(got, want, "{pats:?} from {from}");
                let saved = got.map_or(0, |mm| mm.end - mm.start - exit.lmin) as u64;
                assert_eq!(b.scanned - a.scanned, saved, "{pats:?} from {from}");
                assert_eq!(
                    (a.comparisons, a.shifts, a.shift_total),
                    (b.comparisons, b.shifts, b.shift_total),
                    "{pats:?} from {from}"
                );
            }
        }
        // A second `<` in a pattern, or a pattern not starting with one,
        // leaves the full walk on.
        assert!(!CommentzWalter::new(&[&b"<a<b"[..], b"<c"]).first_hit);
        assert!(!CommentzWalter::new(&[&b"ab"[..], b"<c"]).first_hit);
    }

    #[test]
    fn single_byte_patterns_in_mixed_vocabulary() {
        // Patterns of length 1: both fingerprint offsets are 0.
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
