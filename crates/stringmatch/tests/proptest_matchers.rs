//! Property-based differential tests: every searcher in the crate must agree
//! with the naive oracle on arbitrary inputs, including adversarial small
//! alphabets that maximize pattern self-overlap, and the candidate walk
//! (`TagWalk`) with its specification — Boyer–Moore for one keyword,
//! Commentz–Walter for several — on every SMP-shaped vocabulary.

use proptest::prelude::*;
use smpx_stringmatch::memscan::{self, Blocks, ScanKind, TagUniverse};
use smpx_stringmatch::{
    naive, AhoCorasick, BoyerMoore, CommentzWalter, Kmp, MultiMatch, NoMetrics, TagWalk,
};

/// Can `TagWalk` search `pats`: does every keyword start with `<` and hold
/// no other?
fn smp_shaped(pats: &[Vec<u8>]) -> bool {
    pats.iter().all(|p| p.first() == Some(&b'<') && !p[1..].contains(&b'<'))
}

/// Tag names built to share prefixes (`ab` / `abc` / `abcd`), nibbles
/// (`a`, `q` = 0x61, 0x71) and whole fingerprints, next to two real ones.
const NAMES: [&str; 10] =
    ["a", "ab", "abc", "abcd", "b", "q", "ba", "Abstract", "AbstractText", "i"];

/// `<name` or `</name` for the `sel`-th (`< 20`) of the SMP keywords over
/// `NAMES`.
fn smp_keyword(sel: usize) -> Vec<u8> {
    let name = NAMES[sel % NAMES.len()];
    let open = if sel < NAMES.len() { "<" } else { "</" };
    format!("{open}{name}").into_bytes()
}

/// An XML-looking haystack: tags over `NAMES` (all 20 keywords occur, so
/// does every prefix-sharing neighbour of a chosen vocabulary) separated
/// by text runs of 0..40 bytes, which walks the tags across the lane edges.
fn smp_haystack() -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec((0usize..20, 0usize..40, any::<bool>()), 0..14).prop_map(|tags| {
        let mut hay = Vec::new();
        for (sel, text, bachelor) in tags {
            hay.extend_from_slice(&smp_keyword(sel));
            hay.extend_from_slice(if bachelor { b"/>" } else { b" x='<'>" });
            hay.extend(std::iter::repeat_n(b't', text));
        }
        hay
    })
}

/// `find ≡` Aho–Corasick and `find_iter ≡` the naive occurrence set for
/// Commentz–Walter; and on an SMP-shaped vocabulary, the walk on `kind`
/// fitted to each universe `≡` Commentz–Walter's `find_at` from every
/// position.
fn check_against_oracles(hay: &[u8], pats: &[Vec<u8>], kind: ScanKind) -> Result<(), String> {
    let refs: Vec<&[u8]> = pats.iter().map(|p| p.as_slice()).collect();
    let cw = CommentzWalter::new(&refs);
    prop_assert_eq!(cw.find(hay), AhoCorasick::new(&refs).find(hay));
    let got: Vec<MultiMatch> = cw.find_iter(hay).collect();
    let mut want = naive::find_all_multi(hay, &refs);
    want.sort_by_key(|m| (m.end, m.pattern));
    prop_assert_eq!(got, want, "hay={:?} pats={:?}", String::from_utf8_lossy(hay), pats);
    if !smp_shaped(pats) {
        return Ok(());
    }
    for (u, universe) in universes().iter().enumerate() {
        let walk = TagWalk::with_universe(&refs, universe);
        for from in 0..=hay.len() + 1 {
            prop_assert_eq!(
                walk.find_at(hay, from, &mut Blocks::with_kind(kind), &mut NoMetrics),
                cw.find_at(hay, from, &mut NoMetrics),
                "universe {} from={} hay={:?} pats={:?}",
                u,
                from,
                String::from_utf8_lossy(hay),
                pats
            );
        }
    }
    Ok(())
}

/// Elements whose names extend one another: `</item` must stop at
/// `</itemref` (the runtime's boundary check rejects it, no filter can),
/// `</MedlineCitationSet` is told from `</MedlineCitation` only past the
/// shorter name's end.
const PREFIX_RELATED: [&str; 8] =
    ["item", "itemref", "MedlineCitation", "MedlineCitationSet", "name", "namerica", "a", "ab"];

/// The universes a walk is built against: none, the
/// elements of [`smp_haystack`], and [`PREFIX_RELATED`].
fn universes() -> [TagUniverse; 3] {
    [
        TagUniverse::default(),
        TagUniverse::of_elements(&NAMES),
        TagUniverse::of_elements(&PREFIX_RELATED),
    ]
}

/// Boyer–Moore over `pat` `≡` naive from every position; and on an
/// SMP-shaped keyword, the walk on `kind` fitted to each universe too.
fn check_single_keyword(hay: &[u8], pat: &[u8], kind: ScanKind) -> Result<(), String> {
    let bm = BoyerMoore::new(pat);
    let walks: Vec<TagWalk> = if smp_shaped(&[pat.to_vec()]) {
        universes().iter().map(|u| TagWalk::with_universe(&[pat], u)).collect()
    } else {
        Vec::new()
    };
    for from in 0..=hay.len() + 1 {
        let want = naive::find_at(hay, pat, from, &mut NoMetrics);
        let at = format!(
            "from={from} hay={:?} pat={:?}",
            String::from_utf8_lossy(hay),
            String::from_utf8_lossy(pat)
        );
        prop_assert_eq!(bm.find_at(hay, from, &mut NoMetrics), want, "bm {}", at);
        for (u, walk) in walks.iter().enumerate() {
            let got = walk.find_at(hay, from, &mut Blocks::with_kind(kind), &mut NoMetrics);
            prop_assert_eq!(got.map(|mm| mm.start), want, "walk, universe {} {}", u, at);
        }
    }
    Ok(())
}

/// Small alphabets provoke overlapping occurrences and shift-table edge
/// cases far more often than random bytes do.
fn small_alpha_string(max_len: usize) -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(prop_oneof![Just(b'a'), Just(b'b'), Just(b'c')], 0..max_len)
}

fn small_alpha_pattern(max_len: usize) -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(prop_oneof![Just(b'a'), Just(b'b'), Just(b'c')], 1..max_len)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn boyer_moore_agrees_with_naive(
        hay in small_alpha_string(200),
        pat in small_alpha_pattern(8),
        from in 0usize..64,
    ) {
        let bm = BoyerMoore::new(&pat);
        let mut sink = smpx_stringmatch::NoMetrics;
        prop_assert_eq!(
            bm.find_at(&hay, from, &mut sink),
            naive::find_at(&hay, &pat, from, &mut sink)
        );
    }

    #[test]
    fn kmp_agrees_with_naive(
        hay in small_alpha_string(200),
        pat in small_alpha_pattern(8),
    ) {
        let k = Kmp::new(&pat);
        prop_assert_eq!(k.find(&hay), naive::find(&hay, &pat));
    }

    #[test]
    fn boyer_moore_find_iter_is_all_occurrences(
        hay in small_alpha_string(120),
        pat in small_alpha_pattern(6),
    ) {
        let bm = BoyerMoore::new(&pat);
        let got: Vec<usize> = bm.find_iter(&hay).collect();
        prop_assert_eq!(got, naive::find_all(&hay, &pat));
    }

    #[test]
    fn commentz_walter_finds_every_occurrence(
        hay in small_alpha_string(160),
        pats in proptest::collection::vec(small_alpha_pattern(6), 1..5),
    ) {
        let refs: Vec<&[u8]> = pats.iter().map(|p| p.as_slice()).collect();
        let cw = CommentzWalter::new(&refs);
        let got: Vec<MultiMatch> = cw.find_iter(&hay).collect();
        let mut want = naive::find_all_multi(&hay, &refs);
        // Duplicate patterns in the random set produce duplicate oracle
        // entries with distinct indices; both sides keep them, so plain
        // equality is the right check.
        want.sort_by_key(|m| (m.end, m.pattern));
        prop_assert_eq!(got, want);
    }

    #[test]
    fn aho_corasick_finds_every_occurrence(
        hay in small_alpha_string(160),
        pats in proptest::collection::vec(small_alpha_pattern(6), 1..5),
    ) {
        let refs: Vec<&[u8]> = pats.iter().map(|p| p.as_slice()).collect();
        let ac = AhoCorasick::new(&refs);
        let got: Vec<MultiMatch> = ac.find_iter(&hay).collect();
        prop_assert_eq!(got, naive::find_all_multi(&hay, &refs));
    }

    #[test]
    fn commentz_walter_agrees_with_aho_corasick_on_first_match(
        hay in small_alpha_string(160),
        pats in proptest::collection::vec(small_alpha_pattern(6), 1..5),
    ) {
        let refs: Vec<&[u8]> = pats.iter().map(|p| p.as_slice()).collect();
        let cw = CommentzWalter::new(&refs);
        let ac = AhoCorasick::new(&refs);
        prop_assert_eq!(cw.find(&hay), ac.find(&hay));
    }

    #[test]
    fn smp_vocabularies_agree_with_scalar_and_oracles(
        hay in smp_haystack(),
        sels in proptest::collection::vec(0usize..20, 2..13),
    ) {
        // K = 2..=12 keywords over ten names: open/close pairs of one
        // name, `<ab` / `<abc` / `<abcd` chains, `lmin` 2 (`<a`) and 3,
        // and past eight distinct fingerprints the buckets are shared.
        let pats: Vec<Vec<u8>> = sels.iter().map(|&s| smp_keyword(s)).collect();
        check_against_oracles(&hay, &pats, memscan::kind())?;
    }

    #[test]
    fn smp_single_keywords_agree_with_scalar_and_naive(
        hay in smp_haystack(),
        sel in 0usize..20,
    ) {
        // One keyword over a haystack in which it, the tags that extend
        // it (`<ab` for `<a`) and the tags it extends all occur.
        check_single_keyword(&hay, &smp_keyword(sel), memscan::kind())?;
    }

    #[test]
    fn arbitrary_single_patterns_agree_with_scalar_and_naive(
        shape in 0usize..4,
        bytes in proptest::collection::vec(0usize..5, 1..7),
        hay_sel in proptest::collection::vec(0usize..5, 0..160),
    ) {
        // Length 1 (both filter offsets are 0), length 2 (one offset past
        // the anchor), a repeated byte (every alignment of a run is a
        // candidate) and free patterns, over a five-letter alphabet.
        let alphabet = [b'<', b'a', b'/', 0x00, 0xf1];
        let pat: Vec<u8> = match shape {
            0 => vec![alphabet[bytes[0]]],
            1 => vec![alphabet[bytes[0]], alphabet[bytes[bytes.len() - 1]]],
            2 => vec![alphabet[bytes[0]]; bytes.len()],
            _ => bytes.iter().map(|&b| alphabet[b]).collect(),
        };
        let hay: Vec<u8> = hay_sel.iter().map(|&i| alphabet[i]).collect();
        check_single_keyword(&hay, &pat, memscan::kind())?;
    }

    #[test]
    fn arbitrary_patterns_agree_with_scalar_and_oracles(
        firsts in 1usize..6,
        shapes in proptest::collection::vec(
            (0usize..5, proptest::collection::vec(0usize..4, 0..5), any::<u8>()),
            1..9,
        ),
        hay_sel in proptest::collection::vec(0usize..9, 0..200),
    ) {
        // 1..=5 distinct first bytes; tails over a four-letter alphabet
        // (self-overlap, nested and suffix patterns) with, now and then,
        // an arbitrary byte in last place.
        let first = [b'<', b'a', b'/', 0x00, 0xf1];
        let tail = [b'a', b'b', b'<', b'/'];
        let pats: Vec<Vec<u8>> = shapes
            .iter()
            .map(|(f, rest, wild)| {
                let mut p = vec![first[f % firsts]];
                p.extend(rest.iter().map(|&t| tail[t]));
                if wild.is_multiple_of(4) {
                    p.push(*wild);
                }
                p
            })
            .collect();
        let alphabet = [b'<', b'a', b'/', 0x00, 0xf1, b'b', b'<', b'a', pats[0][pats[0].len() - 1]];
        let hay: Vec<u8> = hay_sel.iter().map(|&i| alphabet[i]).collect();
        check_against_oracles(&hay, &pats, memscan::kind())?;
    }

    #[test]
    fn xmlish_keywords_over_xmlish_haystacks(
        reps in 1usize..12,
        pats_sel in proptest::collection::vec(0usize..6, 1..4),
    ) {
        // Build an XML-looking haystack and search for tag-prefix keywords,
        // mirroring how the SMP runtime drives the searchers.
        let vocab: [&[u8]; 6] = [b"<item", b"</item", b"<name", b"</name", b"<desc", b"</desc"];
        let mut hay = Vec::new();
        for i in 0..reps {
            hay.extend_from_slice(b"<item id=\"x\"><name>n</name><desc>d</desc></item>");
            if i % 3 == 0 {
                hay.extend_from_slice(b"  text between items <");
            }
        }
        let pats: Vec<&[u8]> = pats_sel.iter().map(|&i| vocab[i]).collect();
        let cw = CommentzWalter::new(&pats);
        let got: Vec<MultiMatch> = cw.find_iter(&hay).collect();
        prop_assert_eq!(got, naive::find_all_multi(&hay, &pats));
    }
}

/// A fixed corpus of vocabularies and haystacks, from a SplitMix64 stream.
fn fixed_corpus() -> Vec<(Vec<u8>, Vec<Vec<u8>>)> {
    let mut state = 0x5eed_u64;
    let mut next = move |n: usize| {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        ((z ^ (z >> 31)) % n as u64) as usize
    };
    (0..60u32)
        .map(|case| {
            let k = 2 + next(11);
            let pats: Vec<Vec<u8>> = (0..k)
                .map(|_| {
                    if case.is_multiple_of(2) {
                        smp_keyword(next(20))
                    } else {
                        (0..1 + next(4)).map(|_| b"ab</"[next(4)]).collect()
                    }
                })
                .collect();
            let mut hay = Vec::new();
            for _ in 0..next(12) {
                hay.extend_from_slice(&pats[next(k)]);
                hay.extend_from_slice(&smp_keyword(next(20)));
                hay.extend(std::iter::repeat_n(b'.', next(40)));
            }
            (hay, pats)
        })
        .collect()
}

/// Every tag over [`PREFIX_RELATED`], in an order that puts each name next
/// to the one extending it, with text runs that walk them over the lane
/// edges.
fn prefix_related_haystack() -> Vec<u8> {
    let mut hay = Vec::new();
    for (i, name) in PREFIX_RELATED.iter().chain(PREFIX_RELATED.iter().rev()).enumerate() {
        hay.extend_from_slice(format!("<{name} id='{i}'>").as_bytes());
        hay.extend(std::iter::repeat_n(b't', i * 5 % 37));
        hay.extend_from_slice(format!("</{name}>").as_bytes());
    }
    hay
}

/// The candidate walk on each [`ScanKind`] in turn — SWAR words, 16-,
/// 32- and 64-byte vectors, each a block cache of its own kind: the
/// multi-keyword walk over the fixed corpus, and the single-keyword walk
/// over its first keywords and over every tag of the prefix-related
/// elements, with and without a universe. A kind the CPU lacks is
/// skipped by name.
#[test]
fn every_scan_kind_agrees_with_the_windowed_loop() {
    for kind in [ScanKind::Swar, ScanKind::Sse2, ScanKind::Avx2, ScanKind::Avx512] {
        if !memscan::supported(kind) {
            eprintln!(
                "every_scan_kind_agrees_with_the_windowed_loop: skipped {kind:?}, not on this CPU"
            );
            continue;
        }
        for (hay, pats) in fixed_corpus() {
            check_against_oracles(&hay, &pats, kind).unwrap_or_else(|e| panic!("{kind:?}: {e}"));
            check_single_keyword(&hay, &pats[0], kind).unwrap_or_else(|e| panic!("{kind:?}: {e}"));
        }
        let hay = prefix_related_haystack();
        for name in PREFIX_RELATED {
            for open in ["<", "</"] {
                check_single_keyword(&hay, format!("{open}{name}").as_bytes(), kind)
                    .unwrap_or_else(|e| panic!("{kind:?}: {e}"));
            }
        }
    }
}
