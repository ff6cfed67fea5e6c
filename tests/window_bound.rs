//! The streamed window stays a window (ARCHITECTURE invariant 12): on the
//! reader and the prefetch route, `io_window_bytes` is bounded by the chunk
//! size, the vocabulary and the longest tag — never by the document
//! length, the distance a search skips, or the size of a copied or opaque
//! subtree — and the projection equals the `SliceSource` run.
//!
//! The window never holds more than twice the longest span the runtime
//! kept live across a refill, and such a span is at most one chunk, the
//! runtime's look-back (`max_kw_len + 8`) and one tag:
//!
//! ```text
//! io_window_bytes <= 2 * (chunk + max_kw_len + 8 + longest tag)   (+ 2 * chunk of prefetch slots)
//! ```
//!
//! The mapped route owns no window (`io_window_bytes` stays 0) and is held
//! to the same standard in mapped pages: a step behind the guard that has
//! not been handed back yet, a step of search ahead of it, the look-back
//! and one tag, whatever the step:
//!
//! ```text
//! resident mapped bytes <= 2 * step + max_kw_len + 8 + longest tag
//! ```
//!
//! `MmapSource::peak_resident_bytes` is the source's own account of the
//! first term — what lay behind its guard whenever pages went back — and
//! must be positive (pages did go back) and inside the whole bound;
//! `tests/mapped_residency.rs` asks the kernel.

#[allow(dead_code)] // only `TempDoc`
mod common;

use common::TempDoc;
use smpx_core::runtime::source::{DocSource, MmapSource, PrefetchSource, ReaderSource};
use smpx_core::runtime::RELEASE_STEP;
use smpx_core::{Prefilter, RunStats};
use smpx_datagen::{xmark, GenOptions};
use smpx_dtd::Dtd;
use smpx_paths::PathSet;
use smpx_stringmatch::memscan::{self, ScanMode};
use std::io::Cursor;

const CHUNKS: &[usize] = &[64, 4096, 32768];
/// One page, two chunks, and what production runs with.
const STEPS: &[usize] = &[4096, 65536, RELEASE_STEP];
/// Pages go back whole: 4 KiB on x86-64, up to 64 KiB elsewhere.
const PAGE: usize = if cfg!(target_arch = "x86_64") { 4096 } else { 65536 };

/// The longest `<…>` in `doc` (no attribute value here contains `>`).
fn longest_tag(doc: &[u8]) -> usize {
    let mut longest = 0;
    let mut open = None;
    for (i, &b) in doc.iter().enumerate() {
        match b {
            b'<' => open = Some(i),
            b'>' => longest = longest.max(open.take().map_or(0, |o| i + 1 - o)),
            _ => {}
        }
    }
    longest
}

fn run<S: DocSource>(pf: &mut Prefilter, src: S) -> (Vec<u8>, RunStats) {
    let mut out = Vec::new();
    let stats = pf.filter_source(src, &mut out).expect("streamed run");
    (out, stats)
}

/// Every route × chunk (or step) over `doc` in `mode` (the scalar
/// balanced scan reaches the guard step through `find`).
fn assert_bounded(mode: ScanMode, label: &str, dtd: &str, paths: &[&str], doc: &[u8]) {
    let dtd = Dtd::parse(dtd.as_bytes()).expect("dtd");
    let paths = PathSet::parse(paths).expect("paths");
    let compile = || Prefilter::compile(&dtd, &paths).expect("compile").with_mode(mode);
    let file = TempDoc::new(doc);
    let mut pf = compile();
    let span = pf.tables().max_kw_len + 8 + longest_tag(doc);
    let (want, _) = pf.filter_to_vec(doc).expect("slice run");
    assert!(!want.is_empty(), "{label}: the path set must select something");
    for &chunk in CHUNKS {
        let bound = (2 * (chunk + span)) as u64;
        let (out, stats) = run(&mut pf, ReaderSource::new(doc, chunk));
        assert!(out == want, "{label} {mode:?} reader/{chunk}: output diverged");
        assert!(
            stats.io_window_bytes <= bound,
            "{label} {mode:?} reader/{chunk}: window {} > {bound}",
            stats.io_window_bytes
        );
        let (out, stats) = run(&mut pf, PrefetchSource::new(Cursor::new(doc.to_vec()), chunk));
        assert!(out == want, "{label} {mode:?} prefetch/{chunk}: output diverged");
        let bound = bound + 2 * chunk as u64;
        assert!(
            stats.io_window_bytes <= bound,
            "{label} {mode:?} prefetch/{chunk}: window {} > {bound}",
            stats.io_window_bytes
        );
    }
    for &step in STEPS {
        let mut cut = compile().with_release_step(step);
        let mut src = MmapSource::map_with_step(file.path(), step).expect("map");
        let (out, stats) = run(&mut cut, &mut src);
        assert!(out == want, "{label} {mode:?} mmap/{step}: output diverged");
        if src.is_mapped() {
            assert_eq!(stats.io_window_bytes, 0, "a mapping owns no buffer");
            let (resident, bound) = (src.peak_resident_bytes(), 2 * step.max(PAGE) + span);
            // Not zero: pages did go back (the account is sampled then).
            assert!(
                0 < resident && resident <= bound,
                "{label} {mode:?} mmap/{step}: {resident} bytes resident, bound {bound}"
            );
        }
    }
}

#[test]
fn window_is_bounded_whatever_the_document_skip_or_copy_length() {
    bounded_in(ScanMode::Walk(memscan::kind()));
}

#[test]
fn window_is_bounded_in_the_specification_too() {
    bounded_in(ScanMode::Spec);
}

/// The four documents of the bound, in `mode`: one test per mode, so the
/// two run side by side.
fn bounded_in(mode: ScanMode) {
    let doc = xmark::generate(GenOptions::sized(4 << 20).with_seed(12));
    assert!(doc.len() >= 4 << 20);
    // XM5: nearly the whole document is one skip after another.
    let xm5 = ["/*", "/site/closed_auctions/closed_auction/price#"];
    assert_bounded(mode, "skip-heavy", xmark::XMARK_DTD, &xm5, &doc);
    // Copied subtrees of many windows each.
    assert_bounded(mode, "copy-heavy", xmark::XMARK_DTD, &["/*", "/site/regions//item#"], &doc);

    // A recursive element is opaque: its subtree is crossed by the balanced
    // scan, here over `<`-free text of ten and more windows, once skipped
    // and once inside an active copy range.
    let rec_dtd = "<!DOCTYPE r [ <!ELEMENT r (x|t)*> <!ELEMENT x (#PCDATA|x)*> \
                   <!ELEMENT t (#PCDATA)> ]>";
    let text = "no markup for a long while ".repeat(14_000);
    let mut rec = String::from("<r>");
    for i in 0..3 {
        rec += &format!("<x>{text}<x>{text}</x>{text}</x><t>keep {i}</t>");
    }
    rec += "</r>";
    assert!(text.len() >= 10 * 32768);
    assert_bounded(mode, "opaque-skip", rec_dtd, &["/*", "/r/t#"], rec.as_bytes());
    assert_bounded(mode, "opaque-copy", rec_dtd, &["/*", "/r/x#"], rec.as_bytes());
}
