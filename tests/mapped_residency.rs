//! A mapped run costs a step of resident pages, not the document
//! (ARCHITECTURE invariant 12, mapped route), as the kernel counts them:
//! after one 64 MiB skip through the production `MmapSource`, with the
//! mapping still alive, the process's file-backed resident set has grown
//! by a couple of steps — not by the 64 MiB every touched page used to
//! stay resident for until `munmap`. `tests/window_bound.rs` holds the
//! source's own account (`peak_resident_bytes`) to the formula on every
//! document shape; this is the end-to-end check that `madvise` does what
//! that account assumes.

#![cfg(target_os = "linux")]

#[allow(dead_code)] // only `TempDoc`
mod common;

use common::TempDoc;
use smpx_core::runtime::source::MmapSource;
use smpx_core::runtime::RELEASE_STEP;
use smpx_core::Prefilter;
use smpx_dtd::Dtd;
use smpx_paths::PathSet;

/// Resident file-backed bytes of this process (`RssShmem` too: that is
/// where a mapping of a tmpfs file is booked).
fn rss_file() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status");
    let kib = |key: &str| -> usize {
        let line = status.lines().find(|l| l.starts_with(key)).expect(key);
        line.split_whitespace().nth(1).expect("value").parse().expect("KiB")
    };
    (kib("RssFile:") + kib("RssShmem:")) << 10
}

#[test]
fn a_64_mib_skip_leaves_a_few_steps_resident() {
    const DOC: usize = 64 << 20;
    const LIMIT: usize = 8 << 20;
    let dtd = Dtd::parse(
        b"<!DOCTYPE r [ <!ELEMENT r (a*, b)> <!ELEMENT a (#PCDATA)> \
                           <!ELEMENT b (#PCDATA)> ]>",
    )
    .expect("dtd");
    let paths = PathSet::parse(&["/*", "/r/b#"]).expect("paths");
    let mut pf = Prefilter::compile(&dtd, &paths).expect("compile");

    // Nothing of interest before the last element: one search crosses it all.
    let mut doc = Vec::with_capacity(DOC + 64);
    doc.extend_from_slice(b"<r>");
    while doc.len() < DOC {
        doc.extend_from_slice(b"<a>padding padding</a>");
    }
    doc.extend_from_slice(b"<b>x</b></r>");
    let file = TempDoc::new(&doc);
    drop(doc);

    let before = rss_file();
    let mut src = MmapSource::open(file.path()).expect("map");
    assert!(src.is_mapped());
    let mut out = Vec::new();
    let stats = pf.filter_source(&mut src, &mut out).expect("mapped run");
    let after = rss_file();
    assert_eq!(out, b"<r><b>x</b></r>");
    assert_eq!(stats.io_window_bytes, 0, "a mapping owns no buffer");
    assert!(src.peak_resident_bytes() <= 2 * RELEASE_STEP + 64, "{}", src.peak_resident_bytes());
    let grown = after.saturating_sub(before);
    assert!(
        grown < LIMIT,
        "the mapping holds {} KiB of a {} KiB document (limit {} KiB)",
        grown >> 10,
        DOC >> 10,
        LIMIT >> 10
    );
    drop(src);
}
