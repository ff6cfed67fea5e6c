//! Tokenization throughput (the Fig. 7(c) comparison, Criterion-tracked):
//! strict and lenient SAX parsing vs SMP prefiltering on both datasets,
//! plus the tag-end scan microbench (`tokenize/tag_end`): the per-byte
//! quote-aware loop — the pre-vectorization runtime's hot spot, and the
//! `SMPX_NO_SIMD=1` runtime's — against the block-mask walk
//! `memscan::Blocks::tag_end` that the vectorized runtime runs.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use smpx_baselines::sax;
use smpx_bench::queries::{medline_paths, xmark_paths, MEDLINE_QUERIES, XMARK_QUERIES};
use smpx_core::Prefilter;
use smpx_datagen::{medline, xmark, GenOptions};
use smpx_dtd::Dtd;
use smpx_stringmatch::memscan::Blocks;

fn doc_bytes() -> usize {
    smpx_bench::measure::bench_doc_bytes(2 << 20)
}

fn bench_dataset(
    c: &mut Criterion,
    name: &str,
    doc: Vec<u8>,
    dtd_text: &str,
    smp_query: (&str, smpx_paths::PathSet),
) {
    let dtd = Dtd::parse(dtd_text.as_bytes()).unwrap();
    let mut g = c.benchmark_group(format!("tokenize/{name}"));
    g.throughput(Throughput::Bytes(doc.len() as u64));
    g.bench_function("sax_strict", |b| b.iter(|| sax::parse_strict(&doc).unwrap()));
    g.bench_function("sax_lenient", |b| b.iter(|| sax::parse_lenient(&doc).unwrap().0));
    let (qid, paths) = smp_query;
    g.bench_function(BenchmarkId::new("smp_prefilter", qid), |b| {
        let mut pf = Prefilter::compile(&dtd, &paths).unwrap();
        b.iter(|| pf.filter_to_vec(&doc).unwrap().0.len())
    });
    g.finish();
}

fn bench_xmark(c: &mut Criterion) {
    let q = XMARK_QUERIES.iter().find(|q| q.id == "XM13").unwrap();
    bench_dataset(
        c,
        "xmark",
        xmark::generate(GenOptions::sized(doc_bytes())),
        xmark::XMARK_DTD,
        (q.id, xmark_paths(q)),
    );
}

fn bench_medline(c: &mut Criterion) {
    let q = &MEDLINE_QUERIES[0]; // M1: scans everything, outputs nothing
    bench_dataset(
        c,
        "medline",
        medline::generate(GenOptions::sized(doc_bytes())),
        medline::MEDLINE_DTD,
        (q.id, medline_paths(q)),
    );
}

/// The classic per-byte quote-aware tag-end loop (the shape the runtime
/// uses under `SMPX_NO_SIMD=1`), as the microbench baseline.
fn scalar_tag_end(tag: &[u8], pos: usize) -> Option<(usize, bool)> {
    let mut i = pos;
    let mut prev = 0u8;
    loop {
        match tag.get(i).copied() {
            None => return None,
            Some(b'>') => return Some((i + 1, prev == b'/')),
            Some(q @ (b'"' | b'\'')) => {
                i += 1;
                loop {
                    match tag.get(i).copied() {
                        None => return None,
                        Some(c) if c == q => break,
                        Some(_) => i += 1,
                    }
                }
                prev = q;
                i += 1;
            }
            Some(c) => {
                prev = c;
                i += 1;
            }
        }
    }
}

fn bench_tag_end(c: &mut Criterion) {
    let n = doc_bytes().max(4096);
    // One tag whose quoted attribute value spans the whole buffer: the
    // walk crosses every block of it.
    let mut long_tag = Vec::with_capacity(n);
    long_tag.extend_from_slice(b" id=\"");
    while long_tag.len() < n - 2 {
        long_tag.extend_from_slice(b"v>alue/7 ");
    }
    long_tag.extend_from_slice(b"\">");
    // Dense markup: many short attribute-bearing tags, scanned back to
    // back from each tag-name end (offsets precomputed outside the timer).
    let unit: &[u8] = b" id=\"a>b\" class='c/d'>some text between the tags....";
    let reps = (n / unit.len()).max(1);
    let mut dense = Vec::with_capacity(reps * unit.len());
    let mut starts = Vec::with_capacity(reps);
    for _ in 0..reps {
        starts.push(dense.len());
        dense.extend_from_slice(unit);
    }
    let mut g = c.benchmark_group("tokenize/tag_end");
    g.throughput(Throughput::Bytes(long_tag.len() as u64));
    g.bench_function("scalar_loop/long_attr", |b| {
        b.iter(|| scalar_tag_end(&long_tag, 0).expect("closed"))
    });
    g.bench_function("block_masks/long_attr", |b| {
        b.iter(|| Blocks::new().tag_end(&long_tag, 0).expect("closed"))
    });
    g.throughput(Throughput::Bytes(dense.len() as u64));
    g.bench_function("scalar_loop/dense_tags", |b| {
        b.iter(|| {
            let mut ends = 0usize;
            for &s in &starts {
                ends += scalar_tag_end(&dense, s).expect("closed").0;
            }
            ends
        })
    });
    g.bench_function("block_masks/dense_tags", |b| {
        b.iter(|| {
            // One cache over the buffer, as a run keeps one: each tag's
            // end is read from the block its name ended in.
            let mut blocks = Blocks::new();
            let mut ends = 0usize;
            for &s in &starts {
                ends += blocks.tag_end(&dense, s).expect("closed").0;
            }
            ends
        })
    });
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_xmark, bench_medline, bench_tag_end
}
criterion_main!(benches);
