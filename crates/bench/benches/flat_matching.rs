//! Flat-string matching microbenchmarks.
//!
//! The paper's premise: Boyer–Moore/Commentz–Walter style skipping beats
//! one-character-at-a-time algorithms on keyword search. These benches
//! compare the searchers on the same haystacks, plus the naive baseline,
//! for short (tag-like) and long keywords.
//!
//! The `flat/single`, `flat/absent` and `flat/xmark_scan` groups
//! additionally pit the vector candidate walk (`tag_walk*` entries)
//! against the paper's classic loops. The `cw` and `bm` groups hold the
//! regimes of the walk's candidate filter: `cw/sparse` and `cw/dense` for
//! a multi-keyword state, `bm/common_byte` and `bm/rare_byte` for a
//! single-keyword one.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use smpx_bench::measure::bench_doc_bytes;
use smpx_bench::queries::{medline_paths, standing_path_sets, MEDLINE_QUERIES};
use smpx_core::{CompiledTables, Prefilter};
use smpx_datagen::{medline, xmark, GenOptions};
use smpx_dtd::Dtd;
use smpx_stringmatch::memscan::Blocks;
use smpx_stringmatch::memscan::TagUniverse;
use smpx_stringmatch::{
    naive, AhoCorasick, BoyerMoore, CommentzWalter, Kmp, MultiMatch, NoMetrics, TagWalk,
};

fn haystack() -> Vec<u8> {
    xmark::generate(GenOptions::sized(bench_doc_bytes(1 << 20)))
}

fn bench_single_keyword(c: &mut Criterion) {
    let hay = haystack();
    // A keyword that occurs late: forces a long scan.
    let pat: &[u8] = b"<closed_auctions";
    let mut g = c.benchmark_group("flat/single");
    g.throughput(Throughput::Bytes(hay.len() as u64));
    g.bench_function(BenchmarkId::new("boyer_moore", pat.len()), |b| {
        let m = BoyerMoore::new(pat);
        b.iter(|| m.find(&hay).expect("present"))
    });
    g.bench_function(BenchmarkId::new("tag_walk", pat.len()), |b| {
        let m = TagWalk::new(&[pat]);
        b.iter(|| m.find(&hay).expect("present"))
    });
    g.bench_function(BenchmarkId::new("kmp", pat.len()), |b| {
        let m = Kmp::new(pat);
        b.iter(|| m.find(&hay).expect("present"))
    });
    g.bench_function(BenchmarkId::new("naive", pat.len()), |b| {
        b.iter(|| naive::find(&hay, pat).expect("present"))
    });
    g.finish();
}

fn bench_multi_keyword(c: &mut Criterion) {
    let hay = haystack();
    let pats: Vec<&[u8]> = vec![b"<description", b"<annotation", b"<emailaddress"];
    let mut g = c.benchmark_group("flat/multi");
    g.throughput(Throughput::Bytes(hay.len() as u64));
    g.bench_function("commentz_walter_scan_all", |b| {
        let m = CommentzWalter::new(&pats);
        b.iter(|| m.find_iter(&hay).count())
    });
    g.bench_function("aho_corasick_scan_all", |b| {
        let m = AhoCorasick::new(&pats);
        b.iter(|| m.find_iter(&hay).count())
    });
    g.finish();
}

fn bench_absent_alphabet(c: &mut Criterion) {
    // The skip-scan's best case: no haystack byte occurs in the keyword,
    // so the vector scan consumes the whole input without a single
    // candidate. Boyer–Moore runs its classic shift loop on the same input
    // for an in-process ablation.
    let hay = vec![b'x'; bench_doc_bytes(1 << 20)];
    let pat: &[u8] = b"<keyword";
    let mut g = c.benchmark_group("flat/absent");
    g.throughput(Throughput::Bytes(hay.len() as u64));
    g.bench_function("tag_walk", |b| {
        let m = TagWalk::new(&[pat]);
        b.iter(|| m.find(&hay).is_none())
    });
    g.bench_function("boyer_moore", |b| {
        let m = BoyerMoore::new(pat);
        b.iter(|| m.find(&hay).is_none())
    });
    g.finish();
}

/// Count every occurrence by repeated searches from one past the last,
/// the way the SMP runtime drives a searcher between tokens.
fn count(mut find_at: impl FnMut(usize) -> Option<MultiMatch>) -> usize {
    let mut n = 0;
    let mut from = 0;
    while let Some(mm) = find_at(from) {
        n += 1;
        from = mm.start + 1;
    }
    n
}

/// [`count`] for the walk, one block cache across the searches.
fn count_walk(m: &TagWalk, hay: &[u8]) -> usize {
    let mut blocks = Blocks::default();
    count(|from| m.find_at(hay, from, &mut blocks, &mut NoMetrics))
}

fn bench_xmark_scan(c: &mut Criterion) {
    // A realistic frontier vocabulary over generated XMark: candidate
    // density is set by the document's tag mix, not an adversarial input.
    let hay = haystack();
    let pats: Vec<&[u8]> = vec![b"<description", b"<annotation", b"<emailaddress"];
    let mut g = c.benchmark_group("flat/xmark_scan");
    g.throughput(Throughput::Bytes(hay.len() as u64));
    g.bench_function("tag_walk", |b| {
        let m = TagWalk::new(&pats);
        b.iter(|| count_walk(&m, &hay))
    });
    g.bench_function("commentz_walter", |b| {
        let m = CommentzWalter::new(&pats);
        b.iter(|| count(|from| m.find_at(&hay, from, &mut NoMetrics)))
    });
    let single: &[u8] = b"<closed_auctions";
    g.bench_function("tag_walk_single", |b| {
        let m = TagWalk::new(&[single]);
        b.iter(|| m.find(&hay).expect("present"))
    });
    g.bench_function("boyer_moore", |b| {
        let m = BoyerMoore::new(single);
        b.iter(|| m.find(&hay).expect("present"))
    });
    g.finish();
}

/// The walk of the largest frontier vocabulary of a compiled automaton
/// (ties: the first state).
fn widest_vocabulary(tables: &CompiledTables) -> TagWalk {
    let state = tables.states.iter().rev().max_by_key(|s| s.keywords.len()).expect("states");
    TagWalk::new(&state.keywords)
}

fn bench_cw_regimes(c: &mut Criterion) {
    // The two regimes of the candidate filter, driven as the runtime
    // drives a state. Sparse: M1's vocabulary over MEDLINE, which two
    // tokens of the document belong to — the far phase does all the work.
    // Dense: the widest state of the N = 100 standing-query union over
    // XMark, where the next token is a few dozen bytes away — the near
    // phase's regime.
    let mut g = c.benchmark_group("cw");
    let dtd = Dtd::parse(medline::MEDLINE_DTD.as_bytes()).expect("MEDLINE DTD");
    let m1 = Prefilter::compile(&dtd, &medline_paths(&MEDLINE_QUERIES[0])).expect("M1 compiles");
    let hay = medline::generate(GenOptions::sized(bench_doc_bytes(1 << 20)));
    g.throughput(Throughput::Bytes(hay.len() as u64));
    g.bench_function("sparse", |b| {
        let m = widest_vocabulary(m1.tables());
        b.iter(|| count_walk(&m, &hay))
    });
    let dtd = Dtd::parse(xmark::XMARK_DTD.as_bytes()).expect("XMark DTD");
    let union = Prefilter::compile_multi(&dtd, &standing_path_sets(&dtd, 100)).expect("compiles");
    let hay = haystack();
    g.throughput(Throughput::Bytes(hay.len() as u64));
    g.bench_function("dense", |b| {
        let m = widest_vocabulary(union.tables());
        b.iter(|| count_walk(&m, &hay))
    });
    g.finish();
}

fn bench_bm_regimes(c: &mut Criterion) {
    // The walk of a single-keyword state over XMark, built against the
    // DTD's tags as the runtime builds it. Common byte: `</site` — every byte of it
    // occurs in most tags of the document, which is what a scan for one
    // rare byte stops at. Rare byte: `<closed_auctions` — its `_` alone
    // skips nearly everything, the case a byte scan was already good at.
    let dtd = Dtd::parse(xmark::XMARK_DTD.as_bytes()).expect("XMark DTD");
    let universe = TagUniverse::of_elements(dtd.elem_names().iter());
    let hay = haystack();
    let mut g = c.benchmark_group("bm");
    g.throughput(Throughput::Bytes(hay.len() as u64));
    for (regime, pat) in [("common_byte", &b"</site"[..]), ("rare_byte", b"<closed_auctions")] {
        g.bench_function(regime, |b| {
            let m = TagWalk::with_universe(&[pat], &universe);
            b.iter(|| m.find(&hay).expect("present"))
        });
    }
    g.finish();
}

fn bench_keyword_length_sweep(c: &mut Criterion) {
    // Skipping pays off more with longer keywords: ∅ shift grows with the
    // pattern (the paper's MEDLINE-vs-XMark observation).
    let hay = vec![b'x'; bench_doc_bytes(1 << 20)];
    let mut g = c.benchmark_group("flat/length_sweep");
    g.throughput(Throughput::Bytes(hay.len() as u64));
    for len in [4usize, 8, 16, 32] {
        let pat: Vec<u8> = (0..len).map(|i| b'a' + (i % 26) as u8).collect();
        g.bench_function(BenchmarkId::new("boyer_moore_miss", len), |b| {
            let m = BoyerMoore::new(&pat);
            b.iter(|| m.find(&hay).is_none())
        });
        g.bench_function(BenchmarkId::new("kmp_miss", len), |b| {
            let m = Kmp::new(&pat);
            b.iter(|| m.find(&hay).is_none())
        });
    }
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(15);
    targets = bench_single_keyword, bench_multi_keyword, bench_absent_alphabet,
        bench_xmark_scan, bench_cw_regimes, bench_bm_regimes, bench_keyword_length_sweep
}
criterion_main!(benches);
