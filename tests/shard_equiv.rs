//! Shard ≡ sequential equivalence suite for intra-document parallelism
//! (`Prefilter::run_sharded`): one document split speculatively across
//! the pool must reproduce the sequential run exactly.
//!
//! What is pinned, per cell of the matrix — shard widths {1, 2, 3, 8} ×
//! split thresholds (auto plus several forced sizes) × delivery backends
//! {slice, mmap, reader} × SIMD/scalar modes × single/multi-query:
//!
//! * **byte-identical projection output** — the stitched sink equals the
//!   sequential sink, byte for byte;
//! * **exact verdict counters** — `tokens_matched`, `match_events`,
//!   `output_bytes` and the multi-query verdict sets are equal (the
//!   stitched segments partition the sequential token sequence; only the
//!   search-effort counters may differ at segment boundaries, the same
//!   way `ReaderSource` stats are chunk-size-dependent);
//! * **engagement** — small forced shard sizes actually split
//!   (`RunStats::shards ≥ 2`), so the matrix never passes vacuously via
//!   the sequential fallback.
//!
//! Plus the adversarial split-point cases: record-open lookalikes inside
//! quoted attribute values at the split, shard boundaries landing inside
//! record tags and prefix-sharing sibling names, and documents with zero
//! safe splits (one giant record) falling back byte-identically.
//!
//! The SIMD/scalar toggle (`memscan::force_accel`) is process-global, so
//! every test in this binary serializes on [`mode_lock`].

mod common;

use common::{random_doc, random_dtd, random_paths, Rand, TempDoc};
use smpx_core::runtime::source::{MmapSource, ReaderSource, SliceSource};
use smpx_core::{MultiVerdict, Prefilter, RunStats};
use smpx_dtd::Dtd;
use smpx_paths::PathSet;
use smpx_stringmatch::memscan;
use std::sync::{Mutex, OnceLock};

const THREADS: &[usize] = &[1, 2, 3, 8];
/// Forced split thresholds in bytes; 0 = the auto-sizing rule.
const SHARD_BYTES: &[usize] = &[0, 48, 131, 400];
const CHUNK: usize = 64;

fn mode_lock() -> &'static Mutex<()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
}

/// Run `f` once with the vectorized paths forced on and once forced off,
/// restoring the environment-selected mode afterwards.
fn with_both_modes(mut f: impl FnMut(bool)) {
    let _guard = mode_lock().lock().unwrap();
    let env_accel = std::env::var_os("SMPX_NO_SIMD").is_none_or(|v| v != "1");
    memscan::force_accel(true);
    f(true);
    memscan::force_accel(false);
    f(false);
    memscan::force_accel(env_accel);
}

/// The record-loop schema of the paper's Example 2, plus queries.
struct Fixture {
    dtd: Dtd,
    paths: PathSet,
    doc: Vec<u8>,
}

fn ex2_fixture(doc: Vec<u8>) -> Fixture {
    let dtd = Dtd::parse(b"<!ELEMENT a (b|c)*> <!ELEMENT b (#PCDATA)> <!ELEMENT c (b,b?)>")
        .expect("EX2 DTD parses");
    let paths = PathSet::parse(&["/*", "/a/b#"]).expect("paths parse");
    Fixture { dtd, paths, doc }
}

fn record_doc(n: usize) -> Vec<u8> {
    let mut d = b"<a>".to_vec();
    for j in 0..n {
        d.extend_from_slice(format!("<c><b>x{j}</b></c><b>keep-{j}</b>").as_bytes());
    }
    d.extend_from_slice(b"</a>");
    d
}

fn compile(fx: &Fixture) -> Prefilter {
    Prefilter::compile(&fx.dtd, &fx.paths).expect("compile")
}

/// The exact observables: output bytes plus the counters the shard
/// protocol guarantees byte-for-byte. `input_bytes` is normalized to the
/// document length first — a hint-less reader's sequential run reports 0
/// where the sharded run (which materialized the document) knows the
/// real length; both normalize to the same value.
fn assert_exact(label: &str, doc_len: usize, got: (&[u8], &RunStats), want: (&[u8], &RunStats)) {
    let (go, gs) = got;
    let (wo, ws) = want;
    assert_eq!(go, wo, "{label}: projected bytes diverged");
    assert_eq!(gs.output_bytes, ws.output_bytes, "{label}: output_bytes");
    assert_eq!(gs.tokens_matched, ws.tokens_matched, "{label}: tokens_matched");
    assert_eq!(gs.match_events, ws.match_events, "{label}: match_events");
    let norm = |b: u64| if b == 0 { doc_len as u64 } else { b };
    assert_eq!(norm(gs.input_bytes), norm(ws.input_bytes), "{label}: input_bytes");
}

/// The full backend × threads × shard-size matrix for one fixture in the
/// current SIMD/scalar mode. `expect_split` additionally demands that
/// the forced small shard sizes really engaged the shard path.
fn sweep_fixture(fx: &Fixture, label: &str, expect_split: bool) {
    let doc = &fx.doc;

    // Slice delivery.
    let (want_out, want) = compile(fx).filter_to_vec(doc).expect("sequential slice");
    for &t in THREADS {
        for &sb in SHARD_BYTES {
            let (out, stats) = compile(fx)
                .run_sharded(SliceSource::new(doc), Vec::new(), t, sb)
                .expect("sharded slice");
            let cell = format!("{label}/slice t={t} sb={sb}");
            assert_exact(&cell, doc.len(), (&out, &stats), (&want_out, &want));
            if expect_split && smpx_core::Pool::new(t).threads() > 1 && sb != 0 {
                assert!(stats.shards >= 2, "{cell}: expected a real split, got {stats:?}");
            }
        }
    }

    // Mmap delivery over a real temp file.
    let tmp = TempDoc::new(doc);
    let want = {
        let mut out = Vec::new();
        let stats = compile(fx)
            .filter_source(MmapSource::open(tmp.path()).expect("map doc"), &mut out)
            .expect("sequential mmap");
        (out, stats)
    };
    for &t in THREADS {
        for &sb in SHARD_BYTES {
            let (out, stats) = compile(fx)
                .run_sharded(MmapSource::open(tmp.path()).expect("map doc"), Vec::new(), t, sb)
                .expect("sharded mmap");
            let cell = format!("{label}/mmap t={t} sb={sb}");
            assert_exact(&cell, doc.len(), (&out, &stats), (&want.0, &want.1));
        }
    }

    // Reader delivery (chunked window): the sharded run slurps the
    // stream to one resident buffer first, so the projection must still
    // be byte-identical to the chunked sequential pass.
    let want = {
        let mut out = Vec::new();
        let stats = compile(fx)
            .filter_source(ReaderSource::new(std::io::Cursor::new(doc.clone()), CHUNK), &mut out)
            .expect("sequential reader");
        (out, stats)
    };
    for &t in THREADS {
        for &sb in SHARD_BYTES {
            let (out, stats) = compile(fx)
                .run_sharded(
                    ReaderSource::new(std::io::Cursor::new(doc.clone()), CHUNK),
                    Vec::new(),
                    t,
                    sb,
                )
                .expect("sharded reader");
            let cell = format!("{label}/reader t={t} sb={sb}");
            assert_exact(&cell, doc.len(), (&out, &stats), (&want.0, &want.1));
        }
    }
}

#[test]
fn sharded_equals_sequential_across_backends_threads_and_modes() {
    let fx = ex2_fixture(record_doc(60));
    with_both_modes(|mode| sweep_fixture(&fx, &format!("records accel={mode}"), true));
}

#[test]
fn random_schemas_shard_equivalence() {
    // Random schemas need not have a record loop at all — the point is
    // that sharding is *always* equivalent, whether it engages, repairs
    // everything, or falls back.
    for seed in [7u64, 23, 51] {
        let mut r = Rand::new(seed);
        let dtd = random_dtd(&mut r);
        let paths = random_paths(&dtd, &mut r);
        // One larger document per schema: concatenating random bodies is
        // not valid against the schema, so grow via the generator's own
        // document and let small shard sizes force many candidates.
        let doc = random_doc(&dtd, &mut r);
        let fx = Fixture { dtd, paths, doc };
        with_both_modes(|mode| sweep_fixture(&fx, &format!("seed {seed} accel={mode}"), false));
    }
}

#[test]
fn multi_query_sharded_verdicts_match() {
    let dtd = Dtd::parse(b"<!ELEMENT a (b|c)*> <!ELEMENT b (#PCDATA)> <!ELEMENT c (b,b?)>")
        .expect("EX2 DTD parses");
    let queries: Vec<PathSet> = [vec!["/*", "/a/b#"], vec!["/*", "/a/c/b#"], vec!["/*", "/a/c#"]]
        .iter()
        .map(|texts| PathSet::parse(texts).expect("query parses"))
        .collect();
    let doc = record_doc(48);
    let compile = || Prefilter::compile_multi(&dtd, &queries).expect("compile multi");

    let (want_out, want_verdict, want_stats): (Vec<u8>, MultiVerdict, RunStats) =
        compile().run_multi(SliceSource::new(&doc), Vec::new()).expect("sequential multi");
    assert!(want_verdict.matched_ids().len() >= 2, "fixture matches several queries");

    with_both_modes(|mode| {
        for &t in THREADS {
            for &sb in SHARD_BYTES {
                let (out, verdict, stats) = compile()
                    .run_sharded_multi(SliceSource::new(&doc), Vec::new(), t, sb)
                    .expect("sharded multi");
                let cell = format!("multi accel={mode} t={t} sb={sb}");
                assert_eq!(out, want_out, "{cell}: projected bytes diverged");
                assert_eq!(verdict, want_verdict, "{cell}: verdict diverged");
                assert_eq!(stats.tokens_matched, want_stats.tokens_matched, "{cell}");
                assert_eq!(stats.match_events, want_stats.match_events, "{cell}");
            }
        }
    });
}

#[test]
fn lookalike_split_candidates_are_repaired() {
    // Record-open lookalikes inside quoted attribute values: textual
    // split candidates the sequential frontier never crosses. Shard
    // entries landing on them must fail confirmation and be repaired.
    let mut doc = b"<a>".to_vec();
    for j in 0..32 {
        doc.extend_from_slice(
            format!("<b id=\"<b>fake{j}</b><c>\">real-{j}</b><c><b>y{j}</b></c>").as_bytes(),
        );
    }
    doc.extend_from_slice(b"</a>");
    let fx = ex2_fixture(doc);
    with_both_modes(|mode| {
        let (want_out, want) = compile(&fx).filter_to_vec(&fx.doc).expect("sequential");
        for &sb in &[16usize, 33, 64, 100, 257] {
            let (out, stats) = compile(&fx)
                .run_sharded(SliceSource::new(&fx.doc), Vec::new(), 4, sb)
                .expect("sharded");
            let cell = format!("lookalike accel={mode} sb={sb}");
            assert_exact(&cell, fx.doc.len(), (&out, &stats), (&want_out, &want));
        }
    });
}

#[test]
fn prefix_sharing_record_names_split_cleanly() {
    // `<b>` vs `<br>`: the candidate scan must not take a `<br` tag for
    // a `<b` record (tag-name boundary check), and boundaries landing
    // mid-tag must resynchronize at the next real record.
    let dtd = Dtd::parse(b"<!ELEMENT a (b|br)*> <!ELEMENT b (#PCDATA)> <!ELEMENT br (#PCDATA)>")
        .expect("prefix DTD parses");
    let paths = PathSet::parse(&["/*", "/a/b#"]).expect("paths parse");
    let mut doc = b"<a>".to_vec();
    for j in 0..40 {
        doc.extend_from_slice(format!("<br>noise-{j}</br><b>keep-{j}</b>").as_bytes());
    }
    doc.extend_from_slice(b"</a>");
    let fx = Fixture { dtd, paths, doc };
    with_both_modes(|mode| {
        let (want_out, want) = compile(&fx).filter_to_vec(&fx.doc).expect("sequential");
        for &t in THREADS {
            // 37 lands shard boundaries inside tags and text alike.
            for &sb in &[0usize, 37, 96] {
                let (out, stats) = compile(&fx)
                    .run_sharded(SliceSource::new(&fx.doc), Vec::new(), t, sb)
                    .expect("sharded");
                let cell = format!("prefix accel={mode} t={t} sb={sb}");
                assert_exact(&cell, fx.doc.len(), (&out, &stats), (&want_out, &want));
            }
        }
    });
}

#[test]
fn one_doc_batch_stays_unsplit_and_the_explicit_route_splits() {
    // Sharding happens when asked for and never by itself: a batch of one
    // document, however large and however wide the pool, is one worker's
    // sequential run, and `run_sharded` on the same document splits it —
    // same bytes either way.
    let fx = ex2_fixture(record_doc((1 << 20) / 28 + 1));
    assert!(fx.doc.len() >= 1 << 20);
    let (want_out, want) = compile(&fx).filter_to_vec(&fx.doc).expect("sequential");

    let got = compile(&fx)
        .run_batch_parallel(vec![(SliceSource::new(&fx.doc), Vec::new())], 4)
        .expect("one-doc parallel batch");
    let (out, stats) = &got[0];
    assert_exact("one-doc batch", fx.doc.len(), (out, stats), (&want_out, &want));
    assert_eq!(stats.shards, 0, "no batch entry shards by itself: {stats:?}");

    let (out, stats) = compile(&fx)
        .run_sharded(SliceSource::new(&fx.doc), Vec::new(), 4, 0)
        .expect("explicitly sharded");
    assert_exact("explicit", fx.doc.len(), (&out, &stats), (&want_out, &want));
    if smpx_core::Pool::new(4).threads() > 1 {
        assert!(stats.shards >= 2, "the explicit route must split: {stats:?}");
    }
}

#[test]
fn zero_safe_split_documents_fall_back_byte_identically() {
    // One giant record: no crossing state ever repeats, so calibration
    // runs to completion and the "sharded" run *is* the sequential run.
    let mut doc = b"<a><b>".to_vec();
    doc.extend_from_slice(&vec![b'x'; 64 * 1024]);
    doc.extend_from_slice(b"</b></a>");
    let fx = ex2_fixture(doc);
    with_both_modes(|mode| {
        let (want_out, want) = compile(&fx).filter_to_vec(&fx.doc).expect("sequential");
        for &t in THREADS {
            let (out, stats) = compile(&fx)
                .run_sharded(SliceSource::new(&fx.doc), Vec::new(), t, 1024)
                .expect("sharded");
            assert_eq!(out, want_out, "giant accel={mode} t={t}");
            assert_eq!(stats, want, "giant accel={mode} t={t}: fallback stats must be exact");
            assert_eq!(stats.shards, 0, "giant accel={mode} t={t}: ran unsplit");
        }
    });
}
