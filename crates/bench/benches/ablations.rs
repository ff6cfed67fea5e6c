//! Ablation benchmarks for the design choices DESIGN.md calls out:
//!
//! * **skipping vs every-character scanning** — Commentz–Walter frontier
//!   search vs an Aho–Corasick all-tags scan over the same vocabulary,
//! * **lazy vs eager matcher-table construction** (paper Sec. V builds
//!   tables lazily on first state entry),
//! * **initial jump offsets on/off** — measured via a path set where jumps
//!   matter (XM13-like, jumping over mandatory item prefixes).

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use smpx_baselines::ac_scan::AcTagScanner;
use smpx_bench::queries::{xmark_paths, XMARK_QUERIES};
use smpx_core::Prefilter;
use smpx_datagen::{xmark, GenOptions};
use smpx_dtd::Dtd;
use smpx_stringmatch::CommentzWalter;

fn doc_bytes() -> usize {
    smpx_bench::measure::bench_doc_bytes(2 << 20)
}

fn bench_skip_vs_scan(c: &mut Criterion) {
    let doc = xmark::generate(GenOptions::sized(doc_bytes()));
    let vocab = ["description", "annotation", "emailaddress"];
    let mut g = c.benchmark_group("ablation/skip_vs_scan");
    g.throughput(Throughput::Bytes(doc.len() as u64));
    g.bench_function("commentz_walter", |b| {
        let pats: Vec<Vec<u8>> = vocab.iter().map(|v| format!("<{v}").into_bytes()).collect();
        let refs: Vec<&[u8]> = pats.iter().map(|p| p.as_slice()).collect();
        let cw = CommentzWalter::new(&refs);
        b.iter(|| cw.find_iter(&doc).count())
    });
    g.bench_function("aho_corasick", |b| {
        let sc = AcTagScanner::new(&vocab);
        b.iter(|| sc.count_tags(&doc))
    });
    g.finish();
}

fn bench_lazy_vs_eager_tables(c: &mut Criterion) {
    let doc = xmark::generate(GenOptions::sized(doc_bytes()));
    let dtd = Dtd::parse(xmark::XMARK_DTD.as_bytes()).unwrap();
    let q = XMARK_QUERIES.iter().find(|q| q.id == "XM10").unwrap(); // most states
    let paths = xmark_paths(q);
    let mut g = c.benchmark_group("ablation/table_construction");
    g.bench_function("lazy_compile_and_run", |b| {
        b.iter(|| {
            let mut pf = Prefilter::compile(&dtd, &paths).unwrap();
            pf.filter_to_vec(&doc).unwrap().0.len()
        })
    });
    g.bench_function("eager_compile_and_run", |b| {
        b.iter(|| {
            let mut pf = Prefilter::compile(&dtd, &paths).unwrap();
            pf.precompile_matchers();
            pf.filter_to_vec(&doc).unwrap().0.len()
        })
    });
    g.finish();
}

fn bench_initial_jumps(c: &mut Criterion) {
    // XM13 profits from jumping over the mandatory item prefix
    // (location, quantity, name, payment) when scanning for <description>.
    // "Off" is simulated by zeroing the jump table.
    let doc = xmark::generate(GenOptions::sized(doc_bytes()));
    let dtd = Dtd::parse(xmark::XMARK_DTD.as_bytes()).unwrap();
    let q = XMARK_QUERIES.iter().find(|q| q.id == "XM13").unwrap();
    let paths = xmark_paths(q);
    let mut g = c.benchmark_group("ablation/initial_jumps");
    g.throughput(Throughput::Bytes(doc.len() as u64));
    g.bench_function("jumps_on", |b| {
        let mut pf = Prefilter::compile(&dtd, &paths).unwrap();
        b.iter(|| pf.filter_to_vec(&doc).unwrap().0.len())
    });
    g.bench_function("jumps_off", |b| {
        let mut tables = smpx_core::compile::compile(&dtd, &paths).unwrap();
        for s in &mut tables.states {
            s.jump = 0;
        }
        let mut pf = Prefilter::from_tables(tables);
        b.iter(|| pf.filter_to_vec(&doc).unwrap().0.len())
    });
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_skip_vs_scan, bench_lazy_vs_eager_tables, bench_initial_jumps
}
criterion_main!(benches);
