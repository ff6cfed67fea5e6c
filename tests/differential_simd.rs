//! Differential source-matrix suite: the vectorized prefilter vs the
//! scalar specification (`ScanMode::Spec`, the `SMPX_NO_SIMD=1`
//! default), crossed with every `DocSource`
//! backend — `SliceSource`, `MmapSource` over a temp file, and
//! `ReaderSource` swept across streaming chunk sizes.
//!
//! For identical documents every cell of the matrix must produce
//! **byte-identical output** and the **same match set** (`tokens_matched`,
//! `false_matches`, `initial_jump_chars`) — the fully-resident backends
//! exactly, and the reader at every chunk size around the SWAR-word (8),
//! SSE-lane (16) and AVX-lane (32) boundaries, so every window() split
//! point is exercised: a window ending one byte into a tag, inside a
//! quoted attribute value, between a `<` and its second byte, and so on.
//!
//! The benchmark's own queries (XM5, XM7, XM13, XM14, `xmark-copy`'s two
//! path sets, M1–M5, the N = 10 registry) run the same matrix at chunks
//! {64, 65, 4096} on every counter no scan mode may move; M1 over MEDLINE
//! and XM13 over XMark carry the engagement guards of the candidate
//! filter, multi-keyword and single-keyword.
//!
//! On `Char Comp.` accounting: the *scan layer* contributes identically
//! in both modes — tag-end traversal is routed through `bytes_scanned`,
//! pinned byte-exactly by the `tag_scan_oracle` unit tests in
//! `crates/core`. The *searchers*, the balanced scan's included,
//! intentionally do not: the
//! accelerated Boyer–Moore/Commentz–Walter report scan hops plus
//! verification comparisons at candidates while the scalar loops report
//! the classic per-alignment counts (see CHANGES.md, PRs 2, 17 and 18),
//! so whole-run
//! `chars_compared` equality across modes is not a meaningful invariant
//! and is not asserted here.
//!
//! Each comparison builds one prefilter per mode, side by side.

mod common;

use common::{
    analysis_cases, assert_valid, both_modes, copy_cases, random_doc, random_dtd, random_paths,
    AnalysisCase, Rand, TempDoc,
};
use smpx_core::runtime::source::{DocSource, MmapSource, ReaderSource};
use smpx_core::runtime::RELEASE_STEP;
use smpx_core::{Prefilter, RunStats, SliceSource};
use smpx_dtd::Dtd;
use smpx_paths::PathSet;
use smpx_stringmatch::memscan::{self, ScanMode};

/// Chunk sizes around every lane boundary: 1, 2, word±1, lane±1, page.
const CHUNKS: &[usize] = &[1, 2, 7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 64, 65, 4096];

/// The observable a differential run pins: exact output bytes plus the
/// chunk- and mode-independent slice of the statistics.
#[derive(Debug, Clone, PartialEq)]
struct Observed {
    out: Vec<u8>,
    tokens_matched: u64,
    false_matches: u64,
    initial_jump_chars: u64,
    output_bytes: u64,
}

impl Observed {
    fn new(out: Vec<u8>, stats: &RunStats) -> Observed {
        Observed {
            out,
            tokens_matched: stats.tokens_matched,
            false_matches: stats.false_matches,
            initial_jump_chars: stats.initial_jump_chars,
            output_bytes: stats.output_bytes,
        }
    }
}

/// Full source-matrix sweep for one (dtd, paths, doc) in the current
/// mode: slice baseline, mmap over a temp file, reader over the same
/// file once, and the in-memory reader at every chunk size. Asserts
/// every backend ≡ slice inside, returns the slice observation.
fn sweep(pf: &mut Prefilter, doc: &[u8], label: &str) -> (Observed, RunStats) {
    let (slice_out, slice_stats) = pf.filter_to_vec(doc).expect("slice filter");
    let slice_obs = Observed::new(slice_out, &slice_stats);

    // MmapSource over a real file must be indistinguishable from the
    // borrowed slice (both fully resident, base 0).
    let tmp = TempDoc::new(doc);
    let mut out = Vec::new();
    let stats = pf
        .filter_source(MmapSource::open(tmp.path()).expect("map temp doc"), &mut out)
        .expect("mmap filter");
    assert_eq!(
        Observed::new(out, &stats),
        slice_obs,
        "{label}: mmap diverged from slice\ndoc: {}",
        String::from_utf8_lossy(doc)
    );

    // ReaderSource over the same file through the public filter_source
    // entry point (the chunk sweep below covers the boundary space with
    // in-memory readers).
    let file = std::fs::File::open(tmp.path()).expect("open temp doc");
    let mut out = Vec::new();
    let stats =
        pf.filter_source(ReaderSource::new(file, 64), &mut out).expect("file reader filter");
    assert_eq!(
        Observed::new(out, &stats),
        slice_obs,
        "{label}: file reader diverged from slice\ndoc: {}",
        String::from_utf8_lossy(doc)
    );

    for &chunk in CHUNKS {
        let mut out = Vec::new();
        let stats = pf.filter_stream(doc, &mut out, chunk).expect("stream filter");
        let stream_obs = Observed::new(out, &stats);
        assert_eq!(
            stream_obs,
            slice_obs,
            "{label}: reader(chunk={chunk}) diverged from slice\ndoc: {}",
            String::from_utf8_lossy(doc)
        );
    }
    (slice_obs, slice_stats)
}

#[test]
fn random_documents_agree_across_modes_and_chunks() {
    for seed in 0..100u64 {
        let mut r = Rand::new(seed);
        let dtd = random_dtd(&mut r);
        let doc = random_doc(&dtd, &mut r);
        assert_valid(&dtd, &doc);
        let paths = random_paths(&dtd, &mut r);
        let [accel, scalar] = both_modes().map(|mode| {
            let mut pf = Prefilter::compile(&dtd, &paths).expect("compile").with_mode(mode);
            sweep(&mut pf, &doc, &format!("seed {seed} {mode:?}")).0
        });
        assert_eq!(
            accel,
            scalar,
            "seed {seed}: vectorized and scalar modes diverged\npaths: {paths}\ndoc: {}",
            String::from_utf8_lossy(&doc)
        );
    }
}

// --------------------------------------------------------------------------
// Recursive documents: the balanced scan crossing window boundaries.
// --------------------------------------------------------------------------

const REC_DTD: &[u8] =
    b"<!ELEMENT r (x|t)*> <!ELEMENT x (x?) > <!ELEMENT t (#PCDATA)> <!ATTLIST x a CDATA #IMPLIED>";

/// A nested `x` subtree whose tags are full of quote/slash/gt traps for
/// the tag-end walk, plus bachelor forms.
fn push_x(doc: &mut Vec<u8>, r: &mut Rand, depth: usize) {
    match r.below(5) {
        0 | 1 if depth < 6 => {
            let attr = match r.below(5) {
                0 => " a=\"x>y\"",
                1 => " a='//>'",
                2 => " a=\"q\" b='>'",
                3 => " a='it\"s'",
                _ => "",
            };
            doc.extend_from_slice(format!("<x{attr}>").as_bytes());
            if r.chance(70) {
                push_x(doc, r, depth + 1);
            }
            doc.extend_from_slice(b"</x>");
        }
        2 => doc.extend_from_slice(b"<x/>"),
        3 => doc.extend_from_slice(b"<x a=\"/\" />"),
        _ => doc.extend_from_slice(b"<x></x>"),
    }
}

fn rec_doc(seed: u64) -> Vec<u8> {
    let mut r = Rand::new(seed);
    let mut doc = Vec::from(&b"<r>"[..]);
    for i in 0..2 + r.below(4) {
        push_x(&mut doc, &mut r, 0);
        doc.extend_from_slice(format!("<t>keep{i}</t>").as_bytes());
    }
    doc.extend_from_slice(b"</r>");
    doc
}

#[test]
fn recursive_documents_agree_across_modes_and_chunks() {
    let dtd = Dtd::parse(REC_DTD).expect("recursive DTD parses");
    for paths in [&["/*", "/r/t#"][..], &["/*", "//t#"], &["/*", "/r/x"]] {
        let paths = PathSet::parse(paths).expect("paths parse");
        for seed in 0..40u64 {
            let doc = rec_doc(seed);
            let [accel, scalar] = both_modes().map(|mode| {
                let mut pf = Prefilter::compile(&dtd, &paths).expect("compile").with_mode(mode);
                sweep(&mut pf, &doc, &format!("rec seed {seed} {mode:?}")).0
            });
            assert_eq!(
                accel,
                scalar,
                "rec seed {seed}: modes diverged\npaths: {paths}\ndoc: {}",
                String::from_utf8_lossy(&doc)
            );
        }
    }
}

#[test]
fn deep_recursion_streams_at_tiny_chunks() {
    // 120 levels with attribute traps: the balanced scan must keep its
    // depth across hundreds of window refills.
    let dtd = Dtd::parse(REC_DTD).expect("recursive DTD parses");
    let paths = PathSet::parse(&["/*", "/r/t#"]).expect("paths parse");
    let mut doc = Vec::from(&b"<r>"[..]);
    for i in 0..120 {
        doc.extend_from_slice(if i % 3 == 0 { b"<x a=\"d>e\">" } else { b"<x>" });
    }
    doc.extend_from_slice(b"<x/>");
    for _ in 0..120 {
        doc.extend_from_slice(b"</x>");
    }
    doc.extend_from_slice(b"<t>payload</t></r>");
    let [accel, scalar] = both_modes().map(|mode| {
        let mut pf = Prefilter::compile(&dtd, &paths).expect("compile").with_mode(mode);
        sweep(&mut pf, &doc, &format!("deep {mode:?}")).0
    });
    assert_eq!(String::from_utf8_lossy(&accel.out), "<r><t>payload</t></r>");
    assert_eq!(accel, scalar);
}

// --------------------------------------------------------------------------
// Scan accounting: traversal bytes belong to Scan%, not Char Comp.
// --------------------------------------------------------------------------

#[test]
fn tag_traversal_bytes_are_scanned_not_compared_in_both_modes() {
    // One giant attribute (with '>' and '/' traps) dominates the document:
    // the tag-end scan must charge it to `bytes_scanned` in the vectorized
    // AND the scalar mode, leaving `Char Comp.` to genuine pattern
    // comparisons. Together Scan% + Char Comp. cover every byte the run
    // consumed; the attribute's share may never migrate into Char Comp.
    let dtd = Dtd::parse(REC_DTD).expect("recursive DTD parses");
    let paths = PathSet::parse(&["/*", "/r/t#"]).expect("paths parse");
    let attr: String = "ab>cd/e ".repeat(2048); // 16 KiB inside quotes
    let doc = format!("<r><x a=\"{attr}\"><x/></x><t>k</t></r>").into_bytes();
    let attr_len = attr.len() as u64;
    let [(accel_obs, accel_stats), (scalar_obs, scalar_stats)] = both_modes().map(|mode| {
        let mut pf = Prefilter::compile(&dtd, &paths).expect("compile").with_mode(mode);
        sweep(&mut pf, &doc, &format!("bigattr {mode:?}"))
    });
    assert_eq!(accel_obs, scalar_obs);
    for (mode, stats) in [("accel", &accel_stats), ("scalar", &scalar_stats)] {
        assert!(
            stats.bytes_scanned >= attr_len,
            "{mode}: the quoted attribute must be scan-consumed \
             (bytes_scanned={} < attr={attr_len})",
            stats.bytes_scanned
        );
        assert!(
            stats.chars_compared < attr_len / 4,
            "{mode}: attribute bytes leaked into Char Comp. \
             (chars_compared={})",
            stats.chars_compared
        );
        // The consumed-byte budget is conserved: what the run inspected
        // (scan + comparisons) is bounded by the input, and covers at
        // least the dominant tag.
        assert!(stats.bytes_scanned + stats.chars_compared <= 2 * doc.len() as u64);
    }
}

// --------------------------------------------------------------------------
// Source backends: mmap parity on a realistic document, batch ≡ sequential.
// --------------------------------------------------------------------------

#[test]
fn mmap_equals_slice_on_xmark_tempfile() {
    // A realistic XMark document of several release steps on disk: the
    // mapped run must be indistinguishable from the in-memory slice run,
    // stats included — both are addressable whole at base 0 and both are
    // searched in the same step-sized cuts, so even the comparison and
    // scan counters must agree byte-for-byte, although the mapping hands
    // its pages back behind the guard as it goes.
    let doc = smpx_datagen::xmark::generate(smpx_datagen::GenOptions::sized(7 * RELEASE_STEP / 2));
    assert!(doc.len() > 3 * RELEASE_STEP);
    let dtd = Dtd::parse(smpx_datagen::xmark::XMARK_DTD.as_bytes()).expect("XMark DTD");
    let paths = PathSet::parse(&[
        "/*",
        "/site/regions/australia/item/name#",
        "/site/regions/australia/item/description#",
    ])
    .expect("paths");
    let tmp = TempDoc::new(&doc);

    let mut pf = Prefilter::compile(&dtd, &paths).expect("compile");
    let (slice_out, slice_stats) = pf.filter_to_vec(&doc).expect("slice filter");

    let src = MmapSource::open(tmp.path()).expect("map XMark doc");
    if cfg!(all(unix, target_pointer_width = "64")) {
        assert!(src.is_mapped(), "expected a real mapping on 64-bit unix");
    }
    let mut mmap_out = Vec::new();
    let mmap_stats = pf.filter_source(src, &mut mmap_out).expect("mmap filter");

    assert_eq!(mmap_out, slice_out, "mmap output must be byte-identical to slice");
    assert_eq!(mmap_stats, slice_stats, "mmap stats must equal slice stats");
    assert!(slice_out.len() < doc.len(), "projection must actually shrink the doc");
}

#[test]
fn run_batch_equals_sequential_runs() {
    // One compiled automaton over a batch of documents must produce
    // exactly what one-at-a-time runs produce, for in-memory and for
    // mapped delivery alike.
    let dtd = Dtd::parse(REC_DTD).expect("recursive DTD parses");
    let paths = PathSet::parse(&["/*", "/r/t#"]).expect("paths parse");
    let docs: Vec<Vec<u8>> = (0..6u64).map(rec_doc).collect();

    // Sequential reference: a fresh prefilter, one run per document.
    let mut seq_pf = Prefilter::compile(&dtd, &paths).expect("compile");
    let sequential: Vec<Observed> = docs
        .iter()
        .map(|d| {
            let (out, stats) = seq_pf.filter_to_vec(d).expect("sequential filter");
            Observed::new(out, &stats)
        })
        .collect();

    // Batch over slices.
    let mut batch_pf = Prefilter::compile(&dtd, &paths).expect("compile");
    let results = batch_pf
        .run_batch(docs.iter().map(|d| (smpx_core::SliceSource::new(d), Vec::new())))
        .expect("batch filter");
    assert_eq!(results.len(), docs.len());
    for (i, ((out, stats), want)) in results.into_iter().zip(&sequential).enumerate() {
        assert_eq!(&Observed::new(out, &stats), want, "slice batch doc {i} diverged");
    }

    // Batch over mapped temp files (matchers already warm — must not
    // change anything observable).
    let tmps: Vec<TempDoc> = docs.iter().map(|d| TempDoc::new(d)).collect();
    let results = batch_pf
        .run_batch(tmps.iter().map(|t| (MmapSource::open(t.path()).expect("map doc"), Vec::new())))
        .expect("mmap batch filter");
    for (i, ((out, stats), want)) in results.into_iter().zip(&sequential).enumerate() {
        assert_eq!(&Observed::new(out, &stats), want, "mmap batch doc {i} diverged");
    }
}

// --------------------------------------------------------------------------
// The benchmark's queries: every mode-independent counter, per source.
// --------------------------------------------------------------------------

/// Output, verdict and the six counters that no scan mode may move, one
/// source's `io_window_bytes` included.
#[derive(Debug, PartialEq)]
struct Pinned {
    out: Vec<u8>,
    matched: Vec<u32>,
    tokens_matched: u64,
    false_matches: u64,
    match_events: u64,
    output_bytes: u64,
    initial_jump_chars: u64,
    io_window_bytes: u64,
}

fn pinned_run<S: DocSource>(pf: &mut Prefilter, src: S) -> (Pinned, RunStats) {
    let (out, verdict, stats) = pf.run_multi(src, Vec::new()).expect("run");
    let pinned = Pinned {
        out,
        matched: verdict.matched_ids().iter().map(|q| q.0).collect(),
        tokens_matched: stats.tokens_matched,
        false_matches: stats.false_matches,
        match_events: stats.match_events,
        output_bytes: stats.output_bytes,
        initial_jump_chars: stats.initial_jump_chars,
        io_window_bytes: stats.io_window_bytes,
    };
    (pinned, stats)
}

fn compile_case(case: &AnalysisCase) -> Prefilter {
    if case.queries.len() > 1 {
        Prefilter::compile_multi(&case.dtd, &case.queries).expect("compile multi")
    } else {
        Prefilter::compile(&case.dtd, &case.queries[0]).expect("compile")
    }
}

fn generated(case: &AnalysisCase, bytes: usize) -> Vec<u8> {
    let opts = smpx_datagen::GenOptions::sized(bytes);
    if case.name.starts_with("medline") {
        smpx_datagen::medline::generate(opts)
    } else {
        smpx_datagen::xmark::generate(opts)
    }
}

#[test]
fn benchmark_queries_agree_across_modes_on_every_source() {
    // XM5, XM13 and the copy queries spend their bytes in single-keyword
    // states, XM7 and XM14 in Commentz–Walter states, M1–M5 search long
    // MEDLINE names, the N = 10 registry unions vocabularies. Chunks 64
    // and 65 slide the refill edge through every tag of the document — a
    // fingerprint byte on one side, the keyword's `<` on the other; 4096
    // is a page.
    let wanted = ["xmark/XM5", "xmark/XM13", "xmark/XM7", "xmark/XM14", "xmark/standing-10"];
    for case in analysis_cases().into_iter().chain(copy_cases()) {
        let benchmarked = wanted.contains(&case.name.as_str())
            || case.name.starts_with("medline/")
            || case.name.starts_with("copy/");
        if !benchmarked {
            continue;
        }
        let doc = generated(&case, 192 << 10);
        let tmp = TempDoc::new(&doc);
        let [accel, scalar] = both_modes().map(|mode| {
            let mut pf = compile_case(&case).with_mode(mode);
            let mut cells = vec![
                ("slice", pinned_run(&mut pf, SliceSource::new(&doc)).0),
                ("mmap", pinned_run(&mut pf, MmapSource::open(tmp.path()).expect("map")).0),
            ];
            for chunk in [64, 65, 4096] {
                cells.push(("reader", pinned_run(&mut pf, ReaderSource::new(&doc[..], chunk)).0));
            }
            cells
        });
        assert!(accel[0].1.tokens_matched > 0, "{}: the run must find tokens", case.name);
        for (i, (a, s)) in accel.iter().zip(&scalar).enumerate() {
            assert!(a == s, "{} cell {i} ({}): accelerated and scalar diverged", case.name, a.0);
        }
    }
}

/// Slice and streamed runs of `case` over `bytes` of its generated
/// corpus in the walk: the stats of each, with the refills the streamed
/// one took.
fn engagement_runs(case_name: &str, bytes: usize) -> (u64, u64, [(RunStats, u64); 2]) {
    let case = analysis_cases().into_iter().find(|c| c.name == case_name).expect("case");
    let doc = generated(&case, bytes);
    let input = doc.len() as u64;
    let mut pf = compile_case(&case).with_mode(ScanMode::Walk(memscan::kind()));
    let overlap = pf.tables().max_kw_len as u64;
    let (_, slice) = pinned_run(&mut pf, SliceSource::new(&doc));
    let chunk = 4096;
    let (_, streamed) = pinned_run(&mut pf, ReaderSource::new(&doc[..], chunk));
    (input, overlap, [(slice, 0), (streamed, input / chunk as u64 + 2)])
}

#[test]
fn candidate_filter_engages_on_medline() {
    // The engagement guard: M1 enters one dominant state whose vocabulary
    // almost no MEDLINE tag belongs to. If the accelerated search stopped
    // at every tag again, `chars_compared` would read 9 % of the input, as
    // it did before the filter; it must stay under 1 %. And every byte the
    // filter passes is booked once: `bytes_scanned` exceeds the input only
    // by the overlap a streamed search re-reads after each refill.
    let (input, overlap, runs) = engagement_runs("medline/M1", 1 << 20);
    for (stats, refills) in runs {
        assert!(
            stats.chars_compared * 100 < input,
            "chars_compared {} is 1 % of {input} or more: the filter is not engaged",
            stats.chars_compared
        );
        assert!(
            stats.bytes_scanned <= input + refills * overlap,
            "bytes_scanned {} books bytes twice (input {input}, {refills} refills)",
            stats.bytes_scanned
        );
        assert!(stats.bytes_scanned * 10 >= input * 9, "the filter passes the whole input");
    }
}

#[test]
fn candidate_filter_engages_on_single_keyword_states() {
    // XM13 spends the document in three single-keyword searches — `</site`,
    // `</regions`, `<australia` — whose bytes (`/`, `s`, `u`) every other
    // tag holds somewhere. A byte scan for the rarest of them confirmed in
    // scalar code stopped once per 27 bytes and read `chars_compared` at
    // 3.7 % of the input; the filter fitted to the DTD's tags stops at the
    // keywords, under 1 %.
    let (input, overlap, runs) = engagement_runs("xmark/XM13", 1 << 20);
    for (stats, refills) in runs {
        assert!(stats.tokens_matched > 0, "XM13 must find its tokens");
        assert!(
            stats.chars_compared * 100 < input,
            "chars_compared {} is 1 % of {input} or more: the filter is not engaged",
            stats.chars_compared
        );
        assert!(
            stats.bytes_scanned <= input + refills * overlap,
            "bytes_scanned {} books bytes twice (input {input}, {refills} refills)",
            stats.bytes_scanned
        );
    }
}
