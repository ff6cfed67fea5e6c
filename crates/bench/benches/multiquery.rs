//! Multi-query registry scaling: one shared attributed automaton
//! answering N standing queries per document in a single SMP pass,
//! against the baseline of N independently compiled single-query
//! prefilters run in a loop — the publish/subscribe scenario of the
//! paper's introduction, swept from N = 1 to N = 1000.
//!
//! The workload cycles the Table I XMark projection path sets; the
//! registry registers N of them (duplicates allowed, each with its own
//! `QueryId`), the baseline compiles one `Prefilter` per distinct path
//! set and replays it per query. Setup asserts once per N that both
//! sides agree on every per-query verdict. Throughput is reported in
//! document bytes per second for both sides — the whole point is that
//! the one-pass side holds its per-document throughput as N grows while
//! the N-pass loop's falls off linearly.
//!
//! `registry/compile/N={1,10,100}` times the static analysis itself —
//! `QueryRegistry::compile` over N distinct root-to-element standing
//! queries (the draw of `benchmark/`'s `xmark-multiquery` workload) — which
//! the rows above keep out of their timed loops: a publish/subscribe
//! registry recompiles on every subscription edit, so compile time per PR
//! belongs in the same artifact.
//!
//! Default document size is 2 MiB (`SMPX_BENCH_KB` overrides; the CI
//! bench-smoke job runs tiny sizes). Quiet-machine medians are committed
//! as `BENCH_multiquery.json`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use smpx_bench::queries::{standing_path_sets, xmark_paths, XMARK_QUERIES};
use smpx_core::{Prefilter, QueryId, QueryRegistry};
use smpx_datagen::{xmark, GenOptions};
use smpx_dtd::Dtd;

const WORKLOADS: &[usize] = &[1, 10, 100, 1000];

fn doc_bytes() -> usize {
    smpx_bench::measure::bench_doc_bytes(2 << 20)
}

fn bench_multiquery(c: &mut Criterion) {
    let doc = xmark::generate(GenOptions::sized(doc_bytes()));
    let dtd = Dtd::parse(xmark::XMARK_DTD.as_bytes()).unwrap();
    let pool: Vec<_> = XMARK_QUERIES.iter().map(xmark_paths).collect();

    let mut g = c.benchmark_group("multiquery/xmark");
    g.throughput(Throughput::Bytes(doc.len() as u64));
    for &n in WORKLOADS {
        let mut reg = QueryRegistry::new(dtd.clone());
        for i in 0..n {
            reg.add_paths(pool[i % pool.len()].clone());
        }
        let mut mpf = reg.compile().unwrap();

        // The N-pass baseline compiles each distinct path set once and
        // replays it per registered query — charitable to the baseline
        // (no repeated compiles in the measured loop), so the gap below
        // is pure scan work.
        let mut singles: Vec<Prefilter> = pool
            .iter()
            .take(n.min(pool.len()))
            .map(|p| Prefilter::compile(&dtd, p).unwrap())
            .collect();

        // Pin once: the registry's verdict equals the N single runs.
        let (_, verdict, _) = mpf.filter_to_vec(&doc).unwrap();
        assert_eq!(verdict.n_queries as usize, n);
        let cycle = singles.len();
        for i in 0..n {
            let (_, stats) = singles[i % cycle].filter_to_vec(&doc).unwrap();
            assert_eq!(
                verdict.is_matched(QueryId(i as u32)),
                stats.match_events > 0,
                "registry verdict for query {i} must equal its single-query run"
            );
        }

        g.bench_function(BenchmarkId::new("one_pass_registry", n), |b| {
            b.iter(|| {
                let (out, v, _) = mpf.filter_to_vec(&doc).unwrap();
                (out.len(), v.matched_ids().len())
            })
        });
        g.bench_function(BenchmarkId::new("n_pass_singles", n), |b| {
            b.iter(|| {
                let mut matched = 0usize;
                for i in 0..n {
                    let (_, stats) = singles[i % cycle].filter_to_vec(&doc).unwrap();
                    matched += (stats.match_events > 0) as usize;
                }
                matched
            })
        });
    }
    g.finish();
}

fn bench_registry_compile(c: &mut Criterion) {
    let dtd = Dtd::parse(xmark::XMARK_DTD.as_bytes()).unwrap();
    let standing = standing_path_sets(&dtd, 100);
    let mut g = c.benchmark_group("registry/compile");
    for n in [1, 10, 100] {
        let mut reg = QueryRegistry::new(dtd.clone());
        for paths in &standing[..n] {
            reg.add_paths(paths.clone());
        }
        g.bench_function(format!("N={n}"), |b| {
            b.iter(|| reg.compile().unwrap().prefilter().tables().state_count())
        });
    }
    g.finish();
}

/// What a process start pays: the DTD parsed from its text, the queries
/// registered and compiled (the DTD's analysis included).
fn bench_registry_setup(c: &mut Criterion) {
    let text = xmark::XMARK_DTD.as_bytes();
    let standing = standing_path_sets(&Dtd::parse(text).unwrap(), 100);
    let mut g = c.benchmark_group("registry/setup");
    for n in [1, 10, 100] {
        g.bench_function(format!("N={n}"), |b| {
            b.iter(|| {
                let mut reg = QueryRegistry::new(Dtd::parse(text).unwrap());
                for paths in &standing[..n] {
                    reg.add_paths(paths.clone());
                }
                reg.compile().unwrap().prefilter().tables().state_count()
            })
        });
    }
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_multiquery, bench_registry_compile, bench_registry_setup
}
criterion_main!(benches);
