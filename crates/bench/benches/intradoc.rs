//! Intra-document parallelism: one XMark document, mapped zero-copy,
//! prefiltered sequentially (`filter_source`) and through the
//! speculative shard path (`run_sharded`) at 1/2/4/8 workers.
//!
//! This is the single-huge-document complement of the `parallel` bench
//! (which scales across a multi-document corpus): the document is
//! sharded *within* at top-level record boundaries, the pool speculates
//! from each boundary, and the stitched projection is byte-identical to
//! the sequential run — the setup asserts that once per width; the full
//! equivalence matrix lives in `tests/shard_equiv.rs`.
//!
//! Default document size is 64 MiB (`SMPX_BENCH_KB` overrides; the CI
//! bench-smoke job runs tiny sizes). The committed `BENCH_intradoc.json`
//! carries the quiet-machine medians; speedup beyond 1× naturally needs
//! as many hardware threads as pool workers — the JSON notes the host's
//! available parallelism via the `threads_avail` bench id, so a flat
//! curve from a core-starved machine is self-describing.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use smpx_bench::measure::TempDocFile;
use smpx_bench::queries::{xmark_paths, XMARK_QUERIES};
use smpx_core::runtime::source::MmapSource;
use smpx_core::Prefilter;
use smpx_datagen::{xmark, GenOptions};
use smpx_dtd::Dtd;

const THREADS: &[usize] = &[1, 2, 4, 8];

fn doc_bytes() -> usize {
    smpx_bench::measure::bench_doc_bytes(64 << 20)
}

fn bench_intradoc(c: &mut Criterion) {
    let doc = xmark::generate(GenOptions::sized(doc_bytes()));
    let total = doc.len() as u64;
    let file = TempDocFile::new("intradoc", &doc);
    let dtd = Dtd::parse(xmark::XMARK_DTD.as_bytes()).unwrap();
    // XM13: the typical projection query of the Fig. 7(a) pipeline.
    let q = XMARK_QUERIES.iter().find(|q| q.id == "XM13").unwrap();
    let paths = xmark_paths(q);
    let mut pf = Prefilter::compile(&dtd, &paths).unwrap();
    let open = || MmapSource::open(file.path()).unwrap();

    // One-time pin: stitched output (any width) ≡ sequential output, and
    // widths above 1 really split the document.
    let mut seq_ref = Vec::new();
    pf.filter_source(open(), &mut seq_ref).unwrap();
    for &t in THREADS {
        let (out, stats) = pf.run_sharded(open(), Vec::new(), t, 0).unwrap();
        assert_eq!(out, seq_ref, "sharded (t={t}) must be byte-identical to sequential");
        if smpx_core::Pool::new(t).threads() > 1 {
            assert!(stats.shards >= 2, "t={t}: document must actually split: {stats:?}");
        }
    }

    let mut g = c.benchmark_group("intradoc/mmap_xmark");
    g.throughput(Throughput::Bytes(total));
    g.bench_function(BenchmarkId::new("seq_filter", q.id), |b| {
        b.iter(|| {
            let mut out = Vec::new();
            pf.filter_source(open(), &mut out).unwrap();
            out.len()
        })
    });
    for &t in THREADS {
        g.bench_function(BenchmarkId::new(&format!("threads_{t}"), q.id), |b| {
            b.iter(|| pf.run_sharded(open(), Vec::new(), t, 0).unwrap().0.len())
        });
    }
    g.finish();

    // Not a measurement: records the host's available parallelism in the
    // JSON artifact (its own group, no byte throughput), so a flat
    // scaling curve from a core-starved machine is self-describing.
    let avail = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut host = c.benchmark_group("intradoc/mmap_host");
    host.bench_function(BenchmarkId::new("threads_avail", avail), |b| b.iter(|| avail));
    host.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_intradoc
}
criterion_main!(benches);
