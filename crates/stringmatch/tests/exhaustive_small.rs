//! Exhaustive small-space verification: every searcher against the naive
//! oracle over *all* binary strings up to a length bound and *all* small
//! pattern (sets). Shift-table bugs cannot hide in a space this dense —
//! any unsafe Boyer–Moore/Commentz–Walter shift shows up as a missed
//! occurrence here.

use smpx_stringmatch::{naive, AhoCorasick, BoyerMoore, CommentzWalter, Kmp, MultiMatch};

/// All strings over {a, b} of length 0..=max.
fn all_strings(max: usize) -> Vec<Vec<u8>> {
    let mut out = vec![Vec::new()];
    let mut frontier = vec![Vec::new()];
    for _ in 0..max {
        let mut next = Vec::new();
        for s in &frontier {
            for &c in b"ab" {
                let mut t = s.clone();
                t.push(c);
                next.push(t);
            }
        }
        out.extend(next.iter().cloned());
        frontier = next;
    }
    out
}

#[test]
fn single_pattern_exhaustive() {
    let patterns: Vec<Vec<u8>> = all_strings(3).into_iter().filter(|p| !p.is_empty()).collect();
    let haystacks = all_strings(8);
    for pat in &patterns {
        let bm = BoyerMoore::new(pat);
        let km = Kmp::new(pat);
        for hay in &haystacks {
            let want = naive::find(hay, pat);
            assert_eq!(bm.find(hay), want, "BM pat={pat:?} hay={hay:?}");
            assert_eq!(km.find(hay), want, "KMP pat={pat:?} hay={hay:?}");
        }
    }
}

#[test]
fn single_pattern_all_occurrences_exhaustive() {
    let patterns: Vec<Vec<u8>> = all_strings(3).into_iter().filter(|p| !p.is_empty()).collect();
    let haystacks = all_strings(7);
    for pat in &patterns {
        let bm = BoyerMoore::new(pat);
        for hay in &haystacks {
            let got: Vec<usize> = bm.find_iter(hay).collect();
            assert_eq!(got, naive::find_all(hay, pat), "pat={pat:?} hay={hay:?}");
        }
    }
}

#[test]
fn pattern_pairs_exhaustive() {
    // Every ordered pair of distinct patterns from {a,b}^{1..=3}: 14·13
    // pattern sets, against all haystacks up to length 7.
    let patterns: Vec<Vec<u8>> = all_strings(3).into_iter().filter(|p| !p.is_empty()).collect();
    let haystacks = all_strings(7);
    for p1 in &patterns {
        for p2 in &patterns {
            if p1 == p2 {
                continue;
            }
            let set: Vec<&[u8]> = vec![p1, p2];
            let cw = CommentzWalter::new(&set);
            let ac = AhoCorasick::new(&set);
            for hay in &haystacks {
                let want = naive::find_all_multi(hay, &set);
                let got_cw: Vec<MultiMatch> = cw.find_iter(hay).collect();
                assert_eq!(got_cw, want, "CW p1={p1:?} p2={p2:?} hay={hay:?}");
                let got_ac: Vec<MultiMatch> = ac.find_iter(hay).collect();
                assert_eq!(got_ac, want, "AC p1={p1:?} p2={p2:?} hay={hay:?}");
            }
        }
    }
}

#[test]
fn pattern_triples_spot_exhaustive() {
    // All unordered triples of patterns of length ≤ 2 (6 patterns → 20
    // triples) against all haystacks up to length 8.
    let patterns: Vec<Vec<u8>> = all_strings(2).into_iter().filter(|p| !p.is_empty()).collect();
    let haystacks = all_strings(8);
    for i in 0..patterns.len() {
        for j in (i + 1)..patterns.len() {
            for k in (j + 1)..patterns.len() {
                let set: Vec<&[u8]> = vec![&patterns[i], &patterns[j], &patterns[k]];
                let cw = CommentzWalter::new(&set);
                for hay in &haystacks {
                    let want = naive::find_all_multi(hay, &set);
                    let got: Vec<MultiMatch> = cw.find_iter(hay).collect();
                    assert_eq!(got, want, "set={set:?} hay={hay:?}");
                }
            }
        }
    }
}
