//! Parallel batch-executor scaling: the same 4-shard on-disk XMark
//! corpus, mapped zero-copy and prefiltered through one shared automaton,
//! sequentially (`run_batch`) and across the pool
//! (`run_batch_parallel`) at 1/2/4/8 workers.
//!
//! Every iteration opens the shards through the real `MmapSource` backend
//! (same protocol as the `sources` bench), so the measured difference is
//! executor scheduling + parallel speedup and nothing else. The setup
//! asserts once that the pooled output is byte-identical to the
//! sequential one — the full equivalence matrix lives in
//! `tests/parallel_equiv.rs`.
//!
//! Default corpus size is 64 MiB total (`SMPX_BENCH_KB` overrides; the CI
//! bench-smoke job runs tiny sizes). The committed `BENCH_parallel.json`
//! carries the quiet-machine medians; scaling beyond 1× naturally needs
//! as many hardware threads as pool workers — the JSON notes the host's
//! available parallelism via the `threads_avail` bench id.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use smpx_bench::measure::TempDocFile;
use smpx_bench::queries::{xmark_paths, XMARK_QUERIES};
use smpx_core::runtime::source::MmapSource;
use smpx_core::Prefilter;
use smpx_datagen::{xmark, GenOptions};
use smpx_dtd::Dtd;

const SHARDS: usize = 4;
const THREADS: &[usize] = &[1, 2, 4, 8];

fn doc_bytes() -> usize {
    smpx_bench::measure::bench_doc_bytes(64 << 20)
}

fn bench_parallel(c: &mut Criterion) {
    let shard_bytes = (doc_bytes() / SHARDS).max(4 * 1024);
    let mut files = Vec::new();
    let mut total = 0u64;
    for i in 0..SHARDS {
        let doc = xmark::generate(GenOptions::sized(shard_bytes).with_seed(i as u64));
        total += doc.len() as u64;
        files.push(TempDocFile::new(&format!("parallel-shard{i}"), &doc));
    }
    let dtd = Dtd::parse(xmark::XMARK_DTD.as_bytes()).unwrap();
    // XM13: the typical projection query of the Fig. 7(a) pipeline.
    let q = XMARK_QUERIES.iter().find(|q| q.id == "XM13").unwrap();
    let paths = xmark_paths(q);
    let mut pf = Prefilter::compile(&dtd, &paths).unwrap();
    let open = |files: &[TempDocFile]| -> Vec<(MmapSource, Vec<u8>)> {
        files.iter().map(|f| (MmapSource::open(f.path()).unwrap(), Vec::new())).collect()
    };

    // One-time pin: pooled output (any width) ≡ sequential output.
    let seq_ref: Vec<Vec<u8>> =
        pf.run_batch(open(&files)).unwrap().into_iter().map(|(out, _)| out).collect();
    for &t in THREADS {
        let par: Vec<Vec<u8>> = pf
            .run_batch_parallel(open(&files), t)
            .unwrap()
            .into_iter()
            .map(|(out, _)| out)
            .collect();
        assert_eq!(par, seq_ref, "pooled batch (t={t}) must be byte-identical to sequential");
    }

    let mut g = c.benchmark_group("parallel/mmap_xmark_shards");
    g.throughput(Throughput::Bytes(total));
    g.bench_function(BenchmarkId::new("seq_run_batch", q.id), |b| {
        b.iter(|| pf.run_batch(open(&files)).unwrap().len())
    });
    for &t in THREADS {
        g.bench_function(BenchmarkId::new(&format!("threads_{t}"), q.id), |b| {
            let frozen = pf.freeze();
            b.iter(|| frozen.run_batch_parallel(open(&files), t).unwrap().len())
        });
    }
    g.finish();

    // Not a measurement: records the host's available parallelism in the
    // JSON artifact (its own group, no byte throughput), so a flat
    // scaling curve from a core-starved machine is self-describing.
    let avail = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut host = c.benchmark_group("parallel/mmap_host");
    host.bench_function(BenchmarkId::new("threads_avail", avail), |b| b.iter(|| avail));
    host.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_parallel
}
criterion_main!(benches);
