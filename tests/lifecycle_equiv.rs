//! Dynamic query lifecycle: the generation-swap equivalence suite.
//!
//! The contract of `smpx_core::lifecycle` is that dynamism is *free* of
//! semantic cost: after any sequence of `add_query`/`remove_query`
//! edits, the settled generation behaves exactly like a fresh
//! `QueryRegistry` compile of the surviving query set —
//!
//! * the union projection is **byte-identical**, per document, across
//!   delivery backends {slice, mmap, reader} × threads {0, 1, 4} ×
//!   SIMD/scalar modes, sequential and pooled;
//! * per-query verdicts agree once the fresh registry's dense ids are
//!   mapped through the generation's external-id table, and every
//!   removed (tombstoned) id reports unmatched at full verdict width;
//! * run statistics are identical (same automaton, same Fig. 4 loop).
//!
//! On top of the settled-state equivalence, the concurrent-swap stress
//! tests pin the serving guarantees: documents in flight while
//! generations publish always produce the output of *some* published
//! generation (never a torn mix), and edits complete with compile
//! latency off the hot path — the whole churn loop is wall-clock
//! bounded.

mod common;

use common::{both_modes, random_doc, random_dtd, random_paths, Rand, TempDoc};
use smpx_core::lifecycle::{Generation, SharedPrefilter};
use smpx_core::runtime::source::{MmapSource, ReaderSource, SliceSource};
use smpx_core::{MultiVerdict, QueryId, QueryRegistry, RunStats};
use smpx_dtd::Dtd;
use smpx_paths::PathSet;
use smpx_stringmatch::memscan::ScanMode;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const THREADS: &[usize] = &[0, 1, 4];
const CHUNK: usize = 64;

/// One scripted edit against the shared handle *and* a slot model the
/// test keeps in parallel, so the expected live set is always known.
enum Edit {
    Add(PathSet),
    Remove(u32),
}

/// A lifecycle fixture: a DTD, the seed workload, a batch of documents,
/// and an edit script exercising add, remove, and re-add.
struct LifecycleFixture {
    dtd: Dtd,
    initial: Vec<PathSet>,
    edits: Vec<Edit>,
    docs: Vec<Vec<u8>>,
}

fn random_lifecycle_fixture(seed: u64) -> LifecycleFixture {
    let mut r = Rand::new(seed);
    let dtd = random_dtd(&mut r);
    let initial: Vec<PathSet> = (0..4).map(|_| random_paths(&dtd, &mut r)).collect();
    let edits = vec![
        Edit::Add(random_paths(&dtd, &mut r)),
        Edit::Remove(1),
        Edit::Add(random_paths(&dtd, &mut r)),
        Edit::Remove(4),
        Edit::Remove(0),
        Edit::Add(initial[1].clone()), // re-add a removed query under a fresh id
    ];
    let docs = (0..5).map(|_| random_doc(&dtd, &mut r)).collect();
    LifecycleFixture { dtd, initial, edits, docs }
}

/// Apply the fixture's edits to `shared`, mirroring them in a slot model;
/// returns the model (external id -> live path set or tombstone).
fn apply_edits(fx: &LifecycleFixture, shared: &SharedPrefilter) -> Vec<Option<PathSet>> {
    let mut slots: Vec<Option<PathSet>> = fx.initial.iter().cloned().map(Some).collect();
    for edit in &fx.edits {
        match edit {
            Edit::Add(paths) => {
                let id = shared.add_paths(paths.clone()).expect("add under script");
                assert_eq!(id.0 as usize, slots.len(), "ids allocate densely, never reused");
                slots.push(Some(paths.clone()));
            }
            Edit::Remove(n) => {
                shared.remove_query(QueryId(*n)).expect("remove under script");
                slots[*n as usize] = None;
            }
        }
    }
    slots
}

/// A fresh `QueryRegistry` compile of the model's live set in `mode`, plus
/// the positional map from the fresh registry's dense ids to external ids.
fn fresh_of_model(
    dtd: &Dtd,
    slots: &[Option<PathSet>],
    mode: ScanMode,
) -> (smpx_core::MultiPrefilter, Vec<u32>) {
    let mut reg = QueryRegistry::new(dtd.clone());
    let mut extern_of = Vec::new();
    for (i, slot) in slots.iter().enumerate() {
        if let Some(paths) = slot {
            reg.add_paths(paths.clone());
            extern_of.push(i as u32);
        }
    }
    (reg.compile().expect("fresh compile of the live set").with_mode(mode), extern_of)
}

/// Shared verdict (external ids, full width) vs fresh verdict (dense
/// ids): surviving ids agree positionally, tombstoned ids are unmatched.
fn assert_verdict_equiv(
    label: &str,
    got: &MultiVerdict,
    fresh: &MultiVerdict,
    extern_of: &[u32],
    width: u32,
) {
    assert_eq!(got.n_queries, width, "{label}: verdict width covers every allocated id");
    assert_eq!(fresh.n_queries as usize, extern_of.len(), "{label}: fresh width");
    let mut live = vec![false; width as usize];
    for (dense, &ext) in extern_of.iter().enumerate() {
        live[ext as usize] = true;
        assert_eq!(
            got.is_matched(QueryId(ext)),
            fresh.is_matched(QueryId(dense as u32)),
            "{label}: external q{ext} diverged from fresh dense q{dense}"
        );
    }
    for (ext, &is_live) in live.iter().enumerate() {
        if !is_live {
            assert!(
                !got.is_matched(QueryId(ext as u32)),
                "{label}: tombstoned q{ext} must report unmatched"
            );
        }
    }
}

/// The settled generation against the fresh registry across backends ×
/// threads, both in one scan mode: byte-identical projection,
/// equal stats, equivalent verdicts — sequential and pooled.
fn sweep_equivalence(
    label: &str,
    fx: &LifecycleFixture,
    shared: &SharedPrefilter,
    generation: &Generation,
    fresh: &mut smpx_core::MultiPrefilter,
    extern_of: &[u32],
) {
    let width = generation.id_width();
    assert_eq!(generation.live_queries(), extern_of.len(), "{label}: live count");

    // Sequential reference per backend, shared vs fresh.
    let tmps: Vec<TempDoc> = fx.docs.iter().map(|d| TempDoc::new(d)).collect();
    type Run = (Vec<u8>, MultiVerdict, RunStats);
    let seq_pairs: Vec<(&str, Vec<Run>, Vec<Run>)> = vec![
        (
            "slice",
            fx.docs
                .iter()
                .map(|d| generation.run_multi(SliceSource::new(d), Vec::new()).expect("shared run"))
                .collect(),
            fx.docs
                .iter()
                .map(|d| fresh.run_multi(SliceSource::new(d), Vec::new()).expect("fresh run"))
                .collect(),
        ),
        (
            "mmap",
            tmps.iter()
                .map(|t| {
                    generation
                        .run_multi(MmapSource::open(t.path()).expect("map doc"), Vec::new())
                        .expect("shared run")
                })
                .collect(),
            tmps.iter()
                .map(|t| {
                    fresh
                        .run_multi(MmapSource::open(t.path()).expect("map doc"), Vec::new())
                        .expect("fresh run")
                })
                .collect(),
        ),
        (
            "reader",
            fx.docs
                .iter()
                .map(|d| {
                    generation
                        .run_multi(
                            ReaderSource::new(std::io::Cursor::new(d.clone()), CHUNK),
                            Vec::new(),
                        )
                        .expect("shared run")
                })
                .collect(),
            fx.docs
                .iter()
                .map(|d| {
                    fresh
                        .run_multi(
                            ReaderSource::new(std::io::Cursor::new(d.clone()), CHUNK),
                            Vec::new(),
                        )
                        .expect("fresh run")
                })
                .collect(),
        ),
    ];
    for (backend, shared_runs, fresh_runs) in &seq_pairs {
        for (di, ((so, sv, ss), (fo, fv, fs))) in shared_runs.iter().zip(fresh_runs).enumerate() {
            let l = format!("{label}/{backend} doc {di}");
            assert_eq!(so, fo, "{l}: projection bytes diverged from the fresh compile");
            assert_eq!(ss, fs, "{l}: stats diverged");
            assert_verdict_equiv(&l, sv, fv, extern_of, width);
        }
    }

    // Pooled batches resolve the generation per document and must match
    // the sequential shared runs exactly, for every backend and width.
    for &t in THREADS {
        let got = shared
            .run_multi_batch_parallel(fx.docs.iter().map(|d| (SliceSource::new(d), Vec::new())), t)
            .expect("pooled slice batch");
        assert_eq!(got, seq_pairs[0].1, "{label}/slice pooled t={t}");
        let got = shared
            .run_multi_batch_parallel(
                tmps.iter().map(|t| (MmapSource::open(t.path()).expect("map doc"), Vec::new())),
                t,
            )
            .expect("pooled mmap batch");
        assert_eq!(got, seq_pairs[1].1, "{label}/mmap pooled t={t}");
        let got = shared
            .run_multi_batch_parallel(
                fx.docs.iter().map(|d| {
                    (ReaderSource::new(std::io::Cursor::new(d.clone()), CHUNK), Vec::new())
                }),
                t,
            )
            .expect("pooled reader batch");
        assert_eq!(got, seq_pairs[2].1, "{label}/reader pooled t={t}");
    }
}

#[test]
fn edited_generation_equals_fresh_registry_across_backends_threads_and_modes() {
    for seed in [3u64, 17, 59] {
        let fx = random_lifecycle_fixture(seed);
        for mode in both_modes() {
            let shared = SharedPrefilter::new(fx.dtd.clone(), fx.initial.clone())
                .expect("seed compile")
                .with_mode(mode);
            let g0 = shared.generation();
            assert_eq!((g0.gen_no(), g0.frozen().mode()), (0, mode));

            let slots = apply_edits(&fx, &shared);
            let generation = shared.settle().expect("settle after script");
            assert!(generation.gen_no() >= 1, "edits must publish a new generation");
            assert_eq!(generation.frozen().mode(), mode, "a recompile keeps the mode");
            assert_eq!(generation.id_width() as usize, slots.len());

            let (mut fresh, extern_of) = fresh_of_model(&fx.dtd, &slots, mode);
            let label = format!("seed {seed} {mode:?}");
            sweep_equivalence(&label, &fx, &shared, &generation, &mut fresh, &extern_of);

            // The pre-edit generation is still whole: in-flight holders of
            // its Arc keep producing generation-0 output after the swap.
            let initial: Vec<_> = fx.initial.iter().cloned().map(Some).collect();
            let (mut pre, pre_ids) = fresh_of_model(&fx.dtd, &initial, mode);
            assert_eq!(pre_ids.len(), fx.initial.len());
            for (di, d) in fx.docs.iter().enumerate() {
                let (got, gv, gs) = g0.run_multi(SliceSource::new(d), Vec::new()).expect("old gen");
                let (want, wv, ws) = pre.run_multi(SliceSource::new(d), Vec::new()).expect("fresh");
                assert_eq!(got, want, "{label} doc {di}: old generation bytes changed");
                assert_eq!((gv, gs), (wv, ws), "{label} doc {di}: old generation run changed");
            }
        }
    }
}

#[test]
fn generation_numbers_strictly_increase_and_settle_is_idempotent() {
    let fx = random_lifecycle_fixture(29);
    let shared = SharedPrefilter::new(fx.dtd.clone(), fx.initial.clone()).expect("seed compile");
    let mut last = shared.generation().gen_no();
    assert_eq!(last, 0);
    for _ in 0..4 {
        shared.add_paths(fx.initial[0].clone()).expect("add");
        let g = shared.settle().expect("settle");
        assert!(g.gen_no() > last, "gen {} after {}", g.gen_no(), last);
        last = g.gen_no();
        // Settling with nothing pending republishes nothing.
        assert_eq!(shared.settle().expect("idempotent settle").gen_no(), last);
    }
}

/// Documents in flight while generations publish: every observed run
/// matches the expected output of the generation it resolved — no torn
/// automatons, no cross-generation mixes — and the whole churn loop
/// completes inside a generous wall-clock bound (compile latency stays
/// off the document path; a serial compile-per-edit-per-document
/// schedule would blow well past it if edits blocked traffic).
#[test]
fn concurrent_swaps_serve_whole_generations_within_bound() {
    let started = Instant::now();
    let fx = random_lifecycle_fixture(47);
    let shared =
        Arc::new(SharedPrefilter::new(fx.dtd.clone(), fx.initial.clone()).expect("seed compile"));
    let mode = shared.generation().frozen().mode();

    // Precompute, per generation the single-edit/settle schedule below
    // will publish, the expected (projection, verdict) of every document.
    // One edit then one settle => generation k is the seed set plus the
    // first k edits applied.
    let mut slots: Vec<Option<PathSet>> = fx.initial.iter().cloned().map(Some).collect();
    let mut expected: Vec<Vec<(Vec<u8>, MultiVerdict)>> = Vec::new();
    let expect_for = |slots: &[Option<PathSet>]| {
        let (mut fresh, extern_of) = fresh_of_model(&fx.dtd, slots, mode);
        let width = slots.len() as u32;
        fx.docs
            .iter()
            .map(|d| {
                let (out, v, _) =
                    fresh.run_multi(SliceSource::new(d), Vec::new()).expect("reference run");
                let mut matched = smpx_core::QueryIdSet::new();
                for q in v.matched_ids() {
                    matched.insert(QueryId(extern_of[q.0 as usize]));
                }
                (out, MultiVerdict { matched, n_queries: width })
            })
            .collect::<Vec<_>>()
    };
    expected.push(expect_for(&slots));
    for edit in &fx.edits {
        match edit {
            Edit::Add(paths) => slots.push(Some(paths.clone())),
            Edit::Remove(n) => slots[*n as usize] = None,
        }
        expected.push(expect_for(&slots));
    }

    let stop = Arc::new(AtomicBool::new(false));
    let runs = Arc::new(AtomicUsize::new(0));
    let traffic: Vec<_> = (0..2)
        .map(|worker| {
            let shared = Arc::clone(&shared);
            let stop = Arc::clone(&stop);
            let runs = Arc::clone(&runs);
            let docs = fx.docs.clone();
            let expected = expected.clone();
            std::thread::spawn(move || {
                let mut di = worker;
                while !stop.load(Ordering::Relaxed) {
                    di = (di + 1) % docs.len();
                    // Resolve once, run to completion on that snapshot —
                    // exactly what a serving worker does.
                    let generation = shared.generation();
                    let (out, v, _) = generation
                        .run_multi(SliceSource::new(&docs[di]), Vec::new())
                        .expect("in-flight run");
                    let (want_out, want_v) = &expected[generation.gen_no() as usize][di];
                    assert_eq!(
                        &out,
                        want_out,
                        "doc {di} on generation {}: torn output",
                        generation.gen_no()
                    );
                    assert_eq!(&v, want_v, "doc {di} on generation {}", generation.gen_no());
                    runs.fetch_add(1, Ordering::Relaxed);
                }
            })
        })
        .collect();

    // Churn: one edit, one settle — each publish lands while traffic is
    // in flight.
    for edit in &fx.edits {
        match edit {
            Edit::Add(paths) => {
                shared.add_paths(paths.clone()).expect("add under traffic");
            }
            Edit::Remove(n) => shared.remove_query(QueryId(*n)).expect("remove under traffic"),
        }
        let g = shared.settle().expect("settle under traffic");
        assert!(g.gen_no() >= 1);
    }
    // Let traffic keep running on the final generation briefly.
    std::thread::sleep(Duration::from_millis(50));
    stop.store(true, Ordering::Relaxed);
    for t in traffic {
        t.join().expect("traffic thread");
    }
    assert_eq!(shared.generation().gen_no() as usize, fx.edits.len());
    assert!(runs.load(Ordering::Relaxed) > 0, "traffic must have run during the churn");
    let elapsed = started.elapsed();
    assert!(
        elapsed < Duration::from_secs(120),
        "edit churn under traffic took {elapsed:?} — compile latency is leaking onto the hot path"
    );
}

/// A pooled batch racing a single swap: every per-document result is the
/// complete output of the pre-edit or the post-edit generation.
#[test]
fn pooled_batch_racing_a_swap_yields_whole_generation_results() {
    let fx = random_lifecycle_fixture(61);
    let shared =
        Arc::new(SharedPrefilter::new(fx.dtd.clone(), fx.initial.clone()).expect("seed compile"));
    let mode = shared.generation().frozen().mode();
    let slots_pre: Vec<Option<PathSet>> = fx.initial.iter().cloned().map(Some).collect();
    let mut slots_post = slots_pre.clone();
    let added = random_paths(&fx.dtd, &mut Rand::new(62));
    slots_post.push(Some(added.clone()));

    let outs_for = |slots: &[Option<PathSet>]| {
        let (mut fresh, _) = fresh_of_model(&fx.dtd, slots, mode);
        fx.docs
            .iter()
            .map(|d| fresh.run_multi(SliceSource::new(d), Vec::new()).expect("reference").0)
            .collect::<Vec<_>>()
    };
    let pre = outs_for(&slots_pre);
    let post = outs_for(&slots_post);

    for round in 0..8 {
        let batch: Vec<(SliceSource<'_>, Vec<u8>)> = fx
            .docs
            .iter()
            .cycle()
            .take(fx.docs.len() * 4)
            .map(|d| (SliceSource::new(d), Vec::new()))
            .collect();
        let editor = {
            let shared = Arc::clone(&shared);
            let added = added.clone();
            std::thread::spawn(move || {
                // Publish one swap mid-batch (add on even rounds, undo on
                // odd), leaving the set back where the round found it.
                if round % 2 == 0 {
                    shared.add_paths(added).expect("racing add");
                } else {
                    let width = shared.id_width();
                    shared.remove_query(QueryId(width - 1)).expect("racing remove");
                }
            })
        };
        let results = shared.run_multi_batch_parallel(batch, 4).expect("racing batch");
        editor.join().expect("editor thread");
        for (i, (out, _, _)) in results.iter().enumerate() {
            let di = i % fx.docs.len();
            assert!(
                out == &pre[di] || out == &post[di],
                "round {round} doc {di}: output is neither adjacent generation's \
                 ({} bytes; pre {} / post {})",
                out.len(),
                pre[di].len(),
                post[di].len()
            );
        }
        shared.settle().expect("settle between rounds");
    }
}

/// Edit-rejection semantics, end to end through the public API.
#[test]
fn lifecycle_edit_errors_are_precise() {
    let fx = random_lifecycle_fixture(83);
    let shared = SharedPrefilter::new(fx.dtd.clone(), fx.initial.clone()).expect("seed compile");
    let width = shared.id_width();
    let err = shared.remove_query(QueryId(width + 7)).unwrap_err();
    assert!(err.to_string().contains("never registered"), "{err}");
    shared.remove_query(QueryId(0)).expect("first remove");
    let err = shared.remove_query(QueryId(0)).unwrap_err();
    assert!(err.to_string().contains("already removed"), "{err}");
    for id in 1..width - 1 {
        shared.remove_query(QueryId(id)).expect("drain");
    }
    let err = shared.remove_query(QueryId(width - 1)).unwrap_err();
    assert!(err.to_string().contains("last live query"), "{err}");
    assert!(shared.add_query("/broken[").is_err(), "malformed XPath rejected at add time");
    // Every rejected edit left the set serveable.
    assert_eq!(shared.settle().expect("still serving").live_queries(), 1);
}
