//! Property tests for the vectorized skip-scan layer: every `memscan`
//! implementation and the candidate walk built on them must agree with
//! the naive oracle on haystacks engineered to straddle the SWAR-word
//! (8-byte) and SSE/AVX-lane (16/32-byte) boundaries.
//!
//! The per-implementation functions are exercised directly (no process
//! globals), so one test run covers scalar, SWAR and — where the CPU has
//! them — SSE2/AVX2 simultaneously; the walk runs the active kind (SWAR
//! on the `SMPX_NO_SIMD=1` CI leg).

use proptest::prelude::*;
use smpx_stringmatch::memscan::{Blocks, Fingerprint};
use smpx_stringmatch::{
    memscan, naive, BoyerMoore, CommentzWalter, MultiMatch, NoMetrics, TagWalk,
};

/// Haystack lengths clustered around 0..64 and the 8/16/32-byte alignment
/// edges, so every vector implementation hits its head, full-lane and tail
/// code paths.
fn edge_len() -> impl Strategy<Value = usize> {
    prop_oneof![
        0usize..=9,
        7usize..=9,
        15usize..=17,
        23usize..=25,
        31usize..=33,
        39usize..=41,
        47usize..=49,
        63usize..=65,
    ]
}

/// Two-symbol alphabet: dense needle collisions plus long needle-free runs.
fn tiny_alpha_hay(len: usize) -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(prop_oneof![Just(b'a'), Just(b'b'), Just(b'<')], len..len + 1)
}

/// Patterns of length 1..=3 over the same alphabet.
fn tiny_pattern() -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(prop_oneof![Just(b'a'), Just(b'b'), Just(b'<')], 1..4)
}

/// `pat` as a keyword the walk takes: `<`, then its bytes with every `<`
/// read as `a`.
fn tag_shaped(pat: &[u8]) -> Vec<u8> {
    std::iter::once(b'<').chain(pat.iter().map(|&b| if b == b'<' { b'a' } else { b })).collect()
}

fn memscan_impls(hay: &[u8], from: usize, needle: u8) -> Vec<(&'static str, Option<usize>)> {
    let mut v = vec![("swar", memscan::find_byte_swar(hay, from, needle))];
    #[cfg(target_arch = "x86_64")]
    {
        v.push(("sse2", memscan::find_byte_sse2(hay, from, needle)));
        if std::arch::is_x86_feature_detected!("avx2") {
            v.push(("avx2", memscan::find_byte_avx2(hay, from, needle)));
        }
    }
    v
}

fn fingerprint_impls(
    hay: &[u8],
    from: usize,
    fp: &Fingerprint,
) -> Vec<(&'static str, Option<usize>)> {
    let mut v = vec![("swar", memscan::find_fingerprint_swar(hay, from, fp))];
    #[cfg(target_arch = "x86_64")]
    {
        v.push(("sse2", memscan::find_fingerprint_sse2(hay, from, fp)));
        if std::arch::is_x86_feature_detected!("avx2") {
            v.push(("avx2", memscan::find_fingerprint_avx2(hay, from, fp)));
        }
    }
    v
}

/// One keyword of a vocabulary at every position of a keyword-free
/// haystack, every haystack ending 0..=40 bytes after it: the keyword, its
/// two fingerprint bytes and the vector loads (`i + 32 + o2 <= len`)
/// straddle every 16/32-byte lane edge, and the tails are shorter than a
/// vector plus the largest offset. Every member of the family must stop
/// exactly where the scalar predicate does, and the searcher built on it
/// must report the keyword. The last four vocabularies take the exact
/// lane test: single keywords with two offsets, one offset past the
/// anchor (`<a`: both are 1) and none (`<`: both are 0), and two keywords
/// that agree below `lmin`.
#[test]
fn fingerprint_candidates_straddle_every_lane_edge() {
    let vocabularies: [&[&[u8]]; 8] = [
        &[b"<Abstract", b"</Abstract"],
        &[b"<ab", b"<abc", b"<abcd", b"</ab"],
        &[b"<a", b"</a"],
        &[b"<DateCompleted", b"</MedlineCitation", b"<MedlineJournalInfo", b"</DateCompleted"],
        &[b"</closed_auction"],
        &[b"<a"],
        &[b"<"],
        &[b"<Abstract", b"<AbstractText"],
    ];
    for pats in vocabularies {
        let fp = Fingerprint::new(pats);
        let walk = TagWalk::new(pats);
        let cw = CommentzWalter::new(pats);
        let longest = *pats.iter().max_by_key(|p| p.len()).unwrap();
        for at in 0..70 {
            for tail in 0..=40 {
                let mut hay = vec![b'.'; at];
                hay.extend_from_slice(longest);
                hay.extend(std::iter::repeat_n(b'.', tail));
                for from in [0, at.saturating_sub(1), at, at + 1] {
                    let want = memscan::find_fingerprint_scalar(&hay, from, &fp);
                    if from <= at {
                        assert_eq!(want, Some(at), "a keyword is always a candidate");
                    }
                    for (name, got) in fingerprint_impls(&hay, from, &fp) {
                        assert_eq!(got, want, "{name} at={at} tail={tail} from={from}");
                    }
                }
                let hit = walk.find_at(&hay, 0, &mut Blocks::new(), &mut NoMetrics);
                assert_eq!(hit, cw.find_at(&hay, 0, &mut NoMetrics));
                assert_eq!(hit.map(|m| m.start), Some(at), "at={at} tail={tail}");
                if let [keyword] = pats {
                    let bm = BoyerMoore::new(keyword);
                    let hit = bm.find_at(&hay, 0, &mut NoMetrics);
                    assert_eq!(hit, Some(at), "bm at={at} tail={tail}");
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn find_byte_impls_agree_at_lane_edges(
        len in edge_len(),
        seed in 0u64..u64::MAX,
    ) {
        // Derive a deterministic haystack from the seed so every length
        // sees many needle placements, including none.
        let hay: Vec<u8> = (0..len)
            .map(|i| {
                let mix = seed.rotate_left((i % 64) as u32) ^ i as u64;
                if mix.is_multiple_of(7) {
                    b'<'
                } else {
                    b'x'
                }
            })
            .collect();
        for from in 0..=len {
            let want = memscan::find_byte_scalar(&hay, from, b'<');
            for (name, got) in memscan_impls(&hay, from, b'<') {
                prop_assert_eq!(got, want, "{} from={} hay={:?}", name, from, &hay);
            }
        }
    }

    #[test]
    fn fingerprint_impls_agree_with_the_scalar_predicate(
        pats in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 1..7), 1..13),
        len in edge_len(),
        extra in 0usize..40,
        seed in 0u64..u64::MAX,
    ) {
        // Random tables: 1..=12 patterns of random bytes (so buckets and
        // nibbles collide freely), over a haystack that draws half its
        // bytes from the patterns and sweeps `from` over every position.
        let fp = Fingerprint::new(&pats);
        let (o1, o2) = fp.offsets();
        let lmin = pats.iter().map(Vec::len).min().unwrap();
        prop_assert!(o1 <= o2 && o2 < lmin);
        let flat: Vec<u8> = pats.concat();
        let hay: Vec<u8> = (0..len + extra)
            .map(|i| {
                let mix = seed.rotate_left((i % 64) as u32) ^ (i as u64).wrapping_mul(0x9e37);
                if mix.is_multiple_of(2) { flat[(mix / 2) as usize % flat.len()] } else { (mix >> 8) as u8 }
            })
            .collect();
        for from in 0..=hay.len() + 1 {
            let want = (from..hay.len()).find(|&i| fp.admits_at(&hay, i));
            prop_assert_eq!(memscan::find_fingerprint_scalar(&hay, from, &fp), want);
            for (name, got) in fingerprint_impls(&hay, from, &fp) {
                prop_assert_eq!(got, want, "{} from={} hay={:?} pats={:?}", name, from, &hay, &pats);
            }
        }
        // No false negatives: wherever a pattern occurs, the filter stops.
        for p in &pats {
            for start in naive::find_all(&hay, p) {
                prop_assert!(fp.admits_at(&hay, start), "pattern {:?} at {}", p, start);
            }
        }
    }

    #[test]
    fn exact_lane_test_impls_agree_with_the_scalar_predicate(
        pat in proptest::collection::vec(0usize..6, 1..7),
        extension in proptest::collection::vec(0usize..6, 0..3),
        len in edge_len(),
        extra in 0usize..40,
        seed in 0u64..u64::MAX,
    ) {
        // A single keyword of 1..=6 bytes (one offset to choose from at
        // lengths 1 and 2, two from 3 on), alone or with a keyword that
        // extends it: the set agrees on the byte at both offsets, so the
        // lane test is the exact one — anchor and two byte compares — and
        // admits an alignment iff it holds those three bytes.
        let alphabet = [b'<', b'/', b'a', b'b', 0x00, 0xe1];
        let pat: Vec<u8> = pat.iter().map(|&b| alphabet[b]).collect();
        let mut longer = pat.clone();
        longer.extend(extension.iter().map(|&b| alphabet[b]));
        let pats = if extension.is_empty() { vec![pat.clone()] } else { vec![pat.clone(), longer] };
        let fp = Fingerprint::new(&pats);
        let (o1, o2) = fp.offsets();
        prop_assert!(o1 <= o2 && o2 < pat.len());
        prop_assert_eq!(o1 == o2, pat.len() <= 2, "offsets {:?} of {:?}", (o1, o2), &pat);
        let hay: Vec<u8> = (0..len + extra)
            .map(|i| {
                let mix = seed.rotate_left((i % 64) as u32) ^ (i as u64).wrapping_mul(0x9e37);
                if mix.is_multiple_of(3) { pat[(mix / 3) as usize % pat.len()] } else { alphabet[(mix >> 8) as usize % 6] }
            })
            .collect();
        for from in 0..=hay.len() + 1 {
            let want = (from..hay.len().saturating_sub(o2))
                .find(|&i| hay[i] == pat[0] && hay[i + o1] == pat[o1] && hay[i + o2] == pat[o2]);
            prop_assert_eq!(memscan::find_fingerprint_scalar(&hay, from, &fp), want);
            for (name, got) in fingerprint_impls(&hay, from, &fp) {
                prop_assert_eq!(got, want, "{} from={} hay={:?} pats={:?}", name, from, &hay, &pats);
            }
        }
    }

    #[test]
    fn tag_scan_window_splits_are_seamless(
        seed in 0u64..u64::MAX,
        len in 1usize..192,
        cut in 0usize..192,
    ) {
        // Random in-tag byte soup (quotes, '>', '/', text) of up to three
        // blocks; the block-mask walk over the whole, and the walk cut
        // into two windows anywhere with its state carried across, must
        // agree with the per-byte oracle below.
        let tag: Vec<u8> = (0..len)
            .map(|i| {
                let mix = seed.rotate_left((i % 64) as u32) ^ (i as u64).wrapping_mul(7);
                b"x> \"'/=xxxxxxxxxxxxxxxxxxxxxxxxx"[(mix % 32) as usize]
            })
            .collect();
        // Naive oracle.
        let mut oracle = None;
        let mut quote: Option<u8> = None;
        let mut prev = 0u8;
        for (i, &c) in tag.iter().enumerate() {
            match quote {
                Some(q) => {
                    if c == q {
                        quote = None;
                        prev = q;
                    }
                }
                None => match c {
                    b'>' => {
                        oracle = Some((i + 1, prev == b'/'));
                        break;
                    }
                    b'"' | b'\'' => quote = Some(c),
                    _ => prev = c,
                },
            }
        }
        // Whole-slice walk.
        prop_assert_eq!(Blocks::new().tag_end(&tag, 0), oracle);
        // Split walk: one state, a fresh block cache per window.
        let cut = cut.min(tag.len());
        let mut st = memscan::TagScan::new();
        let got = match Blocks::new().tag_end_resumed(&tag[..cut], 0, &mut st) {
            Some(hit) => Some(hit),
            None => Blocks::new()
                .tag_end_resumed(&tag[cut..], 0, &mut st)
                .map(|(end, b)| (end + cut, b)),
        };
        prop_assert_eq!(got, oracle, "cut={} tag={:?}", cut, &tag);
    }

    #[test]
    fn accelerated_bm_agrees_with_oracle_at_edges(
        hay in edge_len().prop_flat_map(tiny_alpha_hay),
        pat in tiny_pattern(),
        from in 0usize..70,
    ) {
        // The single-keyword walk over the keyword `pat` shaped into, and
        // Boyer–Moore over `pat` itself.
        let keyword = tag_shaped(&pat);
        let walk = TagWalk::new(&[&keyword]);
        let want = naive::find_at(&hay, &keyword, from, &mut NoMetrics);
        let got = walk.find_at(&hay, from, &mut Blocks::new(), &mut NoMetrics);
        prop_assert_eq!(got.map(|m| m.start), want, "walk hay={:?} pat={:?}", &hay, &keyword);
        let want = naive::find_at(&hay, &pat, from, &mut NoMetrics);
        let bm = BoyerMoore::new(&pat);
        prop_assert_eq!(bm.find_at(&hay, from, &mut NoMetrics), want, "bm hay={:?} pat={:?}", &hay, &pat);
    }

    #[test]
    fn accelerated_cw_agrees_with_scalar_and_oracle_at_edges(
        hay in edge_len().prop_flat_map(tiny_alpha_hay),
        pats in proptest::collection::vec(tiny_pattern(), 1..4),
        from in 0usize..70,
    ) {
        // The walk over the keywords the patterns shape into must find
        // what the windowed loop finds.
        let keywords: Vec<Vec<u8>> = pats.iter().map(|p| tag_shaped(p)).collect();
        let walk = TagWalk::new(&keywords);
        prop_assert_eq!(
            walk.find_at(&hay, from, &mut Blocks::new(), &mut NoMetrics),
            CommentzWalter::new(&keywords).find_at(&hay, from, &mut NoMetrics),
            "hay={:?} keywords={:?}", &hay, &keywords
        );
        // And the full occurrence set of the patterns themselves must
        // match the naive oracle.
        let refs: Vec<&[u8]> = pats.iter().map(|p| p.as_slice()).collect();
        let got: Vec<MultiMatch> = CommentzWalter::new(&refs).find_iter(&hay).collect();
        let mut want = naive::find_all_multi(&hay, &refs);
        want.sort_by_key(|m| (m.end, m.pattern));
        prop_assert_eq!(got, want);
    }

    #[test]
    fn xml_keywords_straddling_lane_edges(
        pad in 0usize..40,
        sel in proptest::collection::vec(0usize..4, 1..4),
    ) {
        // Place an SMP-style keyword so it straddles 8/16/32-byte
        // boundaries of the haystack, padded by tag-free filler.
        let vocab: [&[u8]; 4] = [b"<item", b"</item", b"<a", b"</a"];
        let mut hay = vec![b'.'; pad];
        hay.extend_from_slice(b"<item x='1'>");
        hay.extend(std::iter::repeat_n(b'.', 33 - pad.min(33)));
        hay.extend_from_slice(b"</item>");
        let pats: Vec<&[u8]> = sel.iter().map(|&i| vocab[i]).collect();
        let cw = CommentzWalter::new(&pats);
        let got: Vec<MultiMatch> = cw.find_iter(&hay).collect();
        let mut want = naive::find_all_multi(&hay, &pats);
        want.sort_by_key(|m| (m.end, m.pattern));
        prop_assert_eq!(got, want);
    }
}
