//! Multi-query prefiltering: one SMP pass serving a whole query workload
//! (the publish/subscribe scenario of the paper's introduction — systems
//! like XFilter/YFilter evaluate many queries at once; SMP supports this
//! by projecting for the union of the queries' path sets).
//!
//! The registry equivalence suite is the contract of `QueryRegistry`:
//! for every document,
//!
//! * the registry's per-query **verdict** equals what N independently
//!   compiled single-query `Prefilter`s report (their `match_events`
//!   counter), and
//! * the registry's per-query **projection** (`project_query`) is
//!   byte-equal to the independent single-query run's output,
//!
//! across delivery backends {slice, mmap, reader} × threads {0, 1, 4} ×
//! SIMD/scalar modes, and independent of query registration order.

mod common;

use common::{
    assert_rows_flatten_the_keywords, both_modes, random_doc, random_dtd, random_paths, Rand,
    TempDoc,
};
use smpx_core::runtime::source::{MmapSource, ReaderSource, SliceSource};
use smpx_core::{MultiVerdict, Prefilter, QueryId, QueryRegistry, RunStats};
use smpx_datagen::{xmark, GenOptions};
use smpx_dtd::Dtd;
use smpx_engine::InMemEngine;
use smpx_paths::extract::extract_paths;
use smpx_paths::xpath::XPath;
use smpx_paths::PathSet;
use smpx_stringmatch::memscan::ScanMode;

const QUERIES: &[&str] = &[
    "/site/regions/australia/item/description",
    "/site/people/person/name",
    "/site/closed_auctions/closed_auction[price >= 40]/price",
    "/site/open_auctions/open_auction/bidder[1]/increase/text()",
    "/site/open_auctions/open_auction/bidder[last()]/increase/text()",
];

const THREADS: &[usize] = &[0, 1, 4];
const CHUNK: usize = 64;

/// One registry fixture: a DTD, a query workload, a batch of documents.
struct MultiFixture {
    dtd: Dtd,
    queries: Vec<PathSet>,
    docs: Vec<Vec<u8>>,
}

fn random_multi_fixture(seed: u64) -> MultiFixture {
    let mut r = Rand::new(seed);
    let dtd = random_dtd(&mut r);
    let queries = (0..5).map(|_| random_paths(&dtd, &mut r)).collect();
    let docs = (0..7).map(|_| random_doc(&dtd, &mut r)).collect();
    MultiFixture { dtd, queries, docs }
}

fn xmark_fixture() -> MultiFixture {
    let dtd = Dtd::parse(xmark::XMARK_DTD.as_bytes()).expect("xmark DTD");
    let queries =
        QUERIES.iter().map(|q| extract_paths(&XPath::parse(q).expect("query parses"))).collect();
    let docs = vec![
        xmark::generate(GenOptions::sized(64 * 1024)),
        xmark::generate(GenOptions::sized(160 * 1024)),
    ];
    MultiFixture { dtd, queries, docs }
}

/// The N-independent-single-`Prefilter`s reference: per document, the
/// per-query verdicts and the per-query projected bytes, in `mode`.
fn single_query_reference(fx: &MultiFixture, mode: ScanMode) -> Vec<(Vec<bool>, Vec<Vec<u8>>)> {
    let mut singles: Vec<Prefilter> = fx
        .queries
        .iter()
        .map(|p| Prefilter::compile(&fx.dtd, p).expect("single-query compile").with_mode(mode))
        .collect();
    fx.docs
        .iter()
        .map(|doc| {
            let mut verdicts = Vec::new();
            let mut outs = Vec::new();
            for pf in &mut singles {
                let (out, stats) = pf.filter_to_vec(doc).expect("single-query run");
                verdicts.push(stats.match_events > 0);
                outs.push(out);
            }
            (verdicts, outs)
        })
        .collect()
}

fn compile_registry(fx: &MultiFixture) -> smpx_core::MultiPrefilter {
    let mut reg = QueryRegistry::new(fx.dtd.clone());
    for paths in &fx.queries {
        reg.add_paths(paths.clone());
    }
    reg.compile().expect("registry compile")
}

fn assert_verdict(label: &str, doc_idx: usize, got: &MultiVerdict, want: &[bool]) {
    assert_eq!(got.n_queries as usize, want.len(), "{label} doc {doc_idx}: query count");
    for (qi, &w) in want.iter().enumerate() {
        assert_eq!(
            got.is_matched(QueryId(qi as u32)),
            w,
            "{label} doc {doc_idx} query {qi}: verdict diverged from the \
             independently compiled single-query run"
        );
    }
}

/// The full matrix for one fixture in `mode`: registry verdict ≡ N
/// single-query runs, per-query projection byte-equality, and parallel ≡
/// sequential for the multi batch across backends × threads.
fn sweep_multi_fixture(fx: &MultiFixture, mode: ScanMode, label: &str) {
    let want = single_query_reference(fx, mode);
    let mut mpf = compile_registry(fx).with_mode(mode);

    // Sequential shared pass (slice): verdicts against the reference; the
    // outputs double as the parallel slice reference below.
    let seq: Vec<(Vec<u8>, MultiVerdict, RunStats)> =
        fx.docs.iter().map(|d| mpf.filter_to_vec(d).expect("registry run")).collect();
    for (di, (_, verdict, _)) in seq.iter().enumerate() {
        assert_verdict(&format!("{label}/slice"), di, verdict, &want[di].0);
    }

    // Per-query projections: byte-equal to the independent single runs.
    for qi in 0..fx.queries.len() {
        let mut proj = mpf.project_query(QueryId(qi as u32)).expect("project_query");
        for (di, doc) in fx.docs.iter().enumerate() {
            let (out, stats) = proj.filter_to_vec(doc).expect("projected run");
            assert_eq!(out, want[di].1[qi], "{label} doc {di} query {qi}: projection bytes");
            assert_eq!(
                stats.match_events > 0,
                want[di].0[qi],
                "{label} doc {di} query {qi}: projected verdict"
            );
        }
    }

    // Parallel multi batches: per-document (bytes, verdict, stats) equal
    // the sequential shared pass, in input order, for every backend and
    // thread count.
    let check = |label: &str,
                 threads: usize,
                 got: Vec<(Vec<u8>, MultiVerdict, RunStats)>,
                 seq: &[(Vec<u8>, MultiVerdict, RunStats)]| {
        assert_eq!(got.len(), seq.len(), "{label} t={threads}: result count");
        for (di, ((go, gv, gs), (wo, wv, ws))) in got.iter().zip(seq).enumerate() {
            assert_eq!(go, wo, "{label} t={threads} doc {di}: sink bytes diverged");
            assert_eq!(gv, wv, "{label} t={threads} doc {di}: verdict diverged");
            assert_eq!(gs, ws, "{label} t={threads} doc {di}: stats diverged");
            assert_verdict(&format!("{label} t={threads}"), di, gv, &want[di].0);
        }
    };

    for &t in THREADS {
        let got = mpf
            .run_batch_parallel(fx.docs.iter().map(|d| (SliceSource::new(d), Vec::new())), t)
            .expect("parallel slice batch");
        check(&format!("{label}/slice"), t, got, &seq);
    }

    // Mmap delivery over real temp files.
    let tmps: Vec<TempDoc> = fx.docs.iter().map(|d| TempDoc::new(d)).collect();
    let seq_mmap: Vec<(Vec<u8>, MultiVerdict, RunStats)> = tmps
        .iter()
        .map(|tmp| {
            mpf.run_multi(MmapSource::open(tmp.path()).expect("map doc"), Vec::new())
                .expect("sequential mmap run")
        })
        .collect();
    for &t in THREADS {
        let got = mpf
            .run_batch_parallel(
                tmps.iter().map(|tmp| (MmapSource::open(tmp.path()).expect("map doc"), Vec::new())),
                t,
            )
            .expect("parallel mmap batch");
        check(&format!("{label}/mmap"), t, got, &seq_mmap);
    }

    // Reader delivery (same chunk on both sides).
    let seq_reader: Vec<(Vec<u8>, MultiVerdict, RunStats)> = fx
        .docs
        .iter()
        .map(|d| {
            mpf.run_multi(ReaderSource::new(std::io::Cursor::new(d.clone()), CHUNK), Vec::new())
                .expect("sequential reader run")
        })
        .collect();
    for &t in THREADS {
        let got = mpf
            .run_batch_parallel(
                fx.docs.iter().map(|d| {
                    (ReaderSource::new(std::io::Cursor::new(d.clone()), CHUNK), Vec::new())
                }),
                t,
            )
            .expect("parallel reader batch");
        check(&format!("{label}/reader"), t, got, &seq_reader);
    }
}

#[test]
fn registry_equals_single_queries_across_backends_threads_and_modes() {
    for seed in [5u64, 23, 71] {
        let fx = random_multi_fixture(seed);
        for mode in both_modes() {
            sweep_multi_fixture(&fx, mode, &format!("seed {seed} {mode:?}"));
        }
    }
}

#[test]
fn registry_equals_single_queries_on_xmark() {
    let fx = xmark_fixture();
    for mode in both_modes() {
        sweep_multi_fixture(&fx, mode, &format!("xmark {mode:?}"));
    }
}

#[test]
fn registration_order_does_not_change_verdicts() {
    // Shuffled registration must yield identical per-query verdicts once
    // ids are mapped back through the permutation.
    for seed in [9u64, 40] {
        let fx = random_multi_fixture(seed);
        let base = compile_registry(&fx);
        let mut base_runs: Vec<MultiVerdict> = Vec::new();
        {
            let mut mpf = base;
            for d in &fx.docs {
                base_runs.push(mpf.filter_to_vec(d).expect("base run").1);
            }
        }
        // Two non-trivial permutations: reversal and a rotation.
        let n = fx.queries.len();
        let perms: Vec<Vec<usize>> =
            vec![(0..n).rev().collect(), (0..n).map(|i| (i + 2) % n).collect()];
        for perm in perms {
            let mut reg = QueryRegistry::new(fx.dtd.clone());
            for &orig in &perm {
                reg.add_paths(fx.queries[orig].clone());
            }
            let mut mpf = reg.compile().expect("shuffled registry compile");
            for (di, d) in fx.docs.iter().enumerate() {
                let (_, verdict, _) = mpf.filter_to_vec(d).expect("shuffled run");
                for (new_id, &orig) in perm.iter().enumerate() {
                    assert_eq!(
                        verdict.is_matched(QueryId(new_id as u32)),
                        base_runs[di].is_matched(QueryId(orig as u32)),
                        "seed {seed} doc {di}: query {orig} verdict changed under \
                         registration order {perm:?}"
                    );
                }
            }
        }
    }
}

#[test]
fn duplicate_registrations_get_identical_verdicts() {
    let fx = random_multi_fixture(13);
    let mut reg = QueryRegistry::new(fx.dtd.clone());
    let a = reg.add_paths(fx.queries[0].clone());
    let b = reg.add_paths(fx.queries[1].clone());
    let a2 = reg.add_paths(fx.queries[0].clone());
    assert_ne!(a, a2, "duplicates keep distinct ids");
    let mut mpf = reg.compile().expect("registry with duplicates");
    for d in &fx.docs {
        let (_, verdict, _) = mpf.filter_to_vec(d).expect("run");
        assert_eq!(verdict.is_matched(a), verdict.is_matched(a2), "duplicate queries agree");
        let _ = verdict.is_matched(b);
    }
}

#[test]
fn registry_union_projection_serves_all_queries() {
    // The shared pass's projection answers every registered query like
    // the original document (the paper's union-projection guarantee,
    // carried over to the registry automaton).
    let doc = xmark::generate(GenOptions::sized(256 * 1024));
    let dtd = Dtd::parse(xmark::XMARK_DTD.as_bytes()).unwrap();
    let parsed: Vec<XPath> = QUERIES.iter().map(|q| XPath::parse(q).unwrap()).collect();
    let mut reg = QueryRegistry::new(dtd);
    for q in &parsed {
        reg.add_paths(extract_paths(q));
    }
    let mut mpf = reg.compile().unwrap();
    let (projected, verdict, stats) = mpf.filter_to_vec(&doc).unwrap();
    assert!(projected.len() < doc.len());
    assert!(stats.char_comp_pct() < 65.0, "still skipping: {:.1}%", stats.char_comp_pct());
    assert_eq!(verdict.n_queries as usize, QUERIES.len());

    let engine = InMemEngine::unlimited();
    let orig = engine.load(&doc).unwrap();
    let proj = engine.load(&projected).unwrap();
    for (qi, (text, q)) in QUERIES.iter().zip(&parsed).enumerate() {
        let on_orig = orig.eval(q);
        assert_eq!(on_orig, proj.eval(q), "query {text}");
        // Verdict soundness: a query with answers must be attributed.
        if !on_orig.is_empty() {
            assert!(verdict.is_matched(QueryId(qi as u32)), "under-attributed {text}");
        }
    }
}

#[test]
fn one_projection_serves_all_queries() {
    let doc = xmark::generate(GenOptions::sized(256 * 1024));
    let dtd = Dtd::parse(xmark::XMARK_DTD.as_bytes()).unwrap();

    // Union of all extracted path sets.
    let mut union = PathSet::new(vec![]);
    let parsed: Vec<XPath> = QUERIES.iter().map(|q| XPath::parse(q).unwrap()).collect();
    for q in &parsed {
        union = union.union(&extract_paths(q));
    }
    let mut pf = Prefilter::compile(&dtd, &union).unwrap();
    let (projected, stats) = pf.filter_to_vec(&doc).unwrap();
    assert!(projected.len() < doc.len());
    assert!(stats.char_comp_pct() < 65.0, "still skipping: {:.1}%", stats.char_comp_pct());

    // Every query of the workload answers identically on the projection.
    let engine = InMemEngine::unlimited();
    let orig = engine.load(&doc).unwrap();
    let proj = engine.load(&projected).unwrap();
    for (text, q) in QUERIES.iter().zip(&parsed) {
        assert_eq!(orig.eval(q), proj.eval(q), "query {text}");
    }
}

#[test]
fn union_is_monotone() {
    // The union projection is a superset of each individual projection.
    let doc = xmark::generate(GenOptions::sized(128 * 1024));
    let dtd = Dtd::parse(xmark::XMARK_DTD.as_bytes()).unwrap();
    let a = extract_paths(&XPath::parse(QUERIES[0]).unwrap());
    let b = extract_paths(&XPath::parse(QUERIES[1]).unwrap());
    let union = a.union(&b);

    let size = |paths: &PathSet| {
        let mut pf = Prefilter::compile(&dtd, paths).unwrap();
        pf.filter_to_vec(&doc).unwrap().0.len()
    };
    let (sa, sb, su) = (size(&a), size(&b), size(&union));
    assert!(su >= sa && su >= sb, "union {su} >= {sa}, {sb}");
    assert!(su <= sa + sb, "union shares the structural skeleton");
}

#[test]
fn union_dedups_paths() {
    let a = PathSet::parse(&["/*", "/site/people/person/name#"]).unwrap();
    let b = PathSet::parse(&["/*", "/site/people/person/name#", "//description"]).unwrap();
    let u = a.union(&b);
    assert_eq!(u.paths().len(), 3);
}

/// The flat token rows of the registry and the single-query automatons
/// this suite runs: every row repeats its keyword, and every open
/// keyword's close target is the one the per-token linear search found.
#[test]
fn registry_and_single_query_rows_flatten_the_keywords() {
    let fixtures = [("xmark", xmark_fixture())]
        .into_iter()
        .chain([5u64, 9, 13, 23, 40, 71].map(|seed| ("random", random_multi_fixture(seed))));
    for (name, fx) in fixtures {
        let registry = compile_registry(&fx);
        assert_rows_flatten_the_keywords(
            registry.prefilter().tables(),
            &format!("{name} registry"),
        );
        for (qi, paths) in fx.queries.iter().enumerate() {
            let single = Prefilter::compile(&fx.dtd, paths).expect("single-query compile");
            assert_rows_flatten_the_keywords(single.tables(), &format!("{name} query {qi}"));
        }
    }
}
