//! Prefetch ≡ sync-reader equivalence suite for the double-buffered
//! `PrefetchSource`: the overlapped delivery against the synchronous
//! `ReaderSource` across chunk sizes {1, 2, 7, 64, 65, 4096} ×
//! SIMD/scalar modes × executor widths {0, 1, 4} × single/multi-query
//! workloads.
//!
//! What is pinned, per cell of that matrix:
//!
//! * **byte-identical output** — the projected bytes equal the sync
//!   reader's at every chunk size (delivery boundaries never leak into
//!   the projection);
//! * **equal verdicts and match sets** — multi-query verdicts and the
//!   full `RunStats` agree (same chunk on both sides, so even the
//!   chunk-dependent stream counters must match; only `io_window_bytes`
//!   is normalized out, since prefetch honestly reports both slot
//!   buffers on top of the window);
//! * **error propagation** — an injected mid-stream read error surfaces
//!   with the same `CoreError` wording from the `smpx-io` thread as from
//!   the sync path;
//! * **shutdown** — dropping the source early (consumer stops before
//!   EOF) joins the I/O thread promptly: no deadlock, no thread leak.

mod common;

use common::{both_modes, random_doc, random_dtd, random_paths, Rand, TempDoc};
use smpx_core::runtime::source::{PrefetchSource, ReaderSource};
use smpx_core::{CoreError, Prefilter, RunStats};
use smpx_dtd::Dtd;
use smpx_paths::PathSet;
use std::io::{Cursor, Read};

/// The issue's chunk sweep: 1/2 (degenerate windows), 7 (odd, straddles
/// everything), 64/65 (lane ± 1), 4096 (page-ish).
const CHUNKS: &[usize] = &[1, 2, 7, 64, 65, 4096];
const THREADS: &[usize] = &[0, 1, 4];
const BATCH: usize = 6;

/// Stats with the delivery-owned buffer accounting masked: prefetch
/// reports the window *plus both slot buffers* by design, so that one
/// field is the only legitimate difference from the sync reader.
fn normalized(stats: &RunStats) -> RunStats {
    let mut s = *stats;
    s.io_window_bytes = 0;
    s
}

fn assert_same_run(
    label: &str,
    (sync_out, sync_stats): &(Vec<u8>, RunStats),
    (pre_out, pre_stats): &(Vec<u8>, RunStats),
) {
    assert_eq!(pre_out, sync_out, "{label}: sink bytes diverged");
    assert_eq!(
        normalized(pre_stats),
        normalized(sync_stats),
        "{label}: stats diverged (match sets / counters)"
    );
}

struct Fixture {
    dtd: Dtd,
    paths: PathSet,
    doc: Vec<u8>,
}

fn random_fixture(seed: u64) -> Fixture {
    let mut r = Rand::new(seed);
    let dtd = random_dtd(&mut r);
    let paths = random_paths(&dtd, &mut r);
    // Keep the largest of several generated documents so the doc spans
    // plenty of chunks even at the 4096 end of the sweep.
    let mut doc = random_doc(&dtd, &mut r);
    for _ in 0..6 {
        let d2 = random_doc(&dtd, &mut r);
        if d2.len() > doc.len() {
            doc = d2;
        }
    }
    Fixture { dtd, paths, doc }
}

fn run_sync(pf: &mut Prefilter, doc: &[u8], chunk: usize) -> (Vec<u8>, RunStats) {
    let mut out = Vec::new();
    let stats = pf
        .filter_source(ReaderSource::new(Cursor::new(doc.to_vec()), chunk), &mut out)
        .expect("sync reader filter");
    (out, stats)
}

fn run_prefetch(pf: &mut Prefilter, doc: &[u8], chunk: usize) -> (Vec<u8>, RunStats) {
    let mut out = Vec::new();
    let stats = pf
        .filter_source(PrefetchSource::new(Cursor::new(doc.to_vec()), chunk), &mut out)
        .expect("prefetch filter");
    (out, stats)
}

/// File-backed prefetch: `PrefetchSource::open` takes the vectored
/// `readv` refill path on 64-bit unix.
fn run_prefetch_file(pf: &mut Prefilter, tmp: &TempDoc, chunk: usize) -> (Vec<u8>, RunStats) {
    let mut out = Vec::new();
    let stats = pf
        .filter_source(PrefetchSource::open(tmp.path(), chunk).expect("open doc"), &mut out)
        .expect("prefetch file filter");
    (out, stats)
}

#[test]
fn prefetch_matches_sync_reader_across_chunks() {
    for seed in [3, 17, 92] {
        let fx = random_fixture(seed);
        let tmp = TempDoc::new(&fx.doc);
        for mode in both_modes() {
            let mut pf = Prefilter::compile(&fx.dtd, &fx.paths).expect("compile").with_mode(mode);
            for &chunk in CHUNKS {
                let label = format!("seed {seed} {mode:?} chunk {chunk}");
                let want = run_sync(&mut pf, &fx.doc, chunk);
                let got = run_prefetch(&mut pf, &fx.doc, chunk);
                assert_same_run(&format!("{label} pipe"), &want, &got);
                let got = run_prefetch_file(&mut pf, &tmp, chunk);
                assert_same_run(&format!("{label} readv"), &want, &got);
            }
        }
    }
}

#[test]
fn pooled_prefetch_matches_sequential_sync() {
    let mut r = Rand::new(41);
    let dtd = random_dtd(&mut r);
    let paths = random_paths(&dtd, &mut r);
    let docs: Vec<Vec<u8>> = (0..BATCH).map(|_| random_doc(&dtd, &mut r)).collect();
    const CHUNK: usize = 64;
    for mode in both_modes() {
        let mut seq = Prefilter::compile(&dtd, &paths).expect("compile").with_mode(mode);
        let want: Vec<(Vec<u8>, RunStats)> =
            docs.iter().map(|d| run_sync(&mut seq, d, CHUNK)).collect();
        let pf = Prefilter::compile(&dtd, &paths).expect("compile").with_mode(mode);
        for &t in THREADS {
            let got = pf
                .run_batch_parallel(
                    docs.iter()
                        .map(|d| (PrefetchSource::new(Cursor::new(d.clone()), CHUNK), Vec::new())),
                    t,
                )
                .expect("pooled prefetch batch");
            assert_eq!(got.len(), want.len());
            for (i, (g, w)) in got.iter().zip(&want).enumerate() {
                assert_same_run(&format!("{mode:?} t={t} doc {i}"), w, g);
            }
        }
    }
}

#[test]
fn multi_query_prefetch_matches_sync() {
    let mut r = Rand::new(7);
    let dtd = random_dtd(&mut r);
    let queries: Vec<PathSet> = (0..3).map(|_| random_paths(&dtd, &mut r)).collect();
    let doc = random_doc(&dtd, &mut r);
    for mode in both_modes() {
        let mut mpf =
            Prefilter::compile_multi(&dtd, &queries).expect("compile multi").with_mode(mode);
        for &chunk in CHUNKS {
            let label = format!("{mode:?} chunk {chunk}");
            let (want_out, want_v, want_s) = mpf
                .run_multi(ReaderSource::new(Cursor::new(doc.clone()), chunk), Vec::new())
                .expect("sync multi");
            let (got_out, got_v, got_s) = mpf
                .run_multi(PrefetchSource::new(Cursor::new(doc.clone()), chunk), Vec::new())
                .expect("prefetch multi");
            assert_eq!(got_out, want_out, "{label}: union projection diverged");
            assert_eq!(got_v, want_v, "{label}: verdict diverged");
            assert_eq!(normalized(&got_s), normalized(&want_s), "{label}: stats diverged");
        }
        // Pooled multi-query batch over prefetch sources.
        for &t in THREADS {
            let (want_out, want_v, _) = mpf
                .run_multi(ReaderSource::new(Cursor::new(doc.clone()), 64), Vec::new())
                .expect("sync multi");
            let got = mpf
                .run_multi_batch_parallel(
                    vec![(PrefetchSource::new(Cursor::new(doc.clone()), 64), Vec::new())],
                    t,
                )
                .expect("pooled prefetch multi");
            let (got_out, got_v, _) = &got[0];
            assert_eq!(got_out, &want_out, "{mode:?} t={t}: pooled union diverged");
            assert_eq!(got_v, &want_v, "{mode:?} t={t}: pooled verdict diverged");
        }
    }
}

/// A reader that yields a prefix, then fails with a fixed message.
struct FailAfter {
    left: usize,
    msg: &'static str,
}

impl Read for FailAfter {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        if self.left == 0 {
            return Err(std::io::Error::other(self.msg));
        }
        let n = self.left.min(buf.len());
        // A benign prefix the prefilter will happily scan past.
        buf[..n].fill(b' ');
        self.left -= n;
        Ok(n)
    }
}

#[test]
fn mid_stream_error_same_wording_as_sync() {
    let dtd = Dtd::parse(b"<!ELEMENT r (#PCDATA)>").expect("dtd");
    let paths = PathSet::parse(&["/*"]).expect("paths");
    let mut pf = Prefilter::compile(&dtd, &paths).expect("compile");
    const MSG: &str = "injected mid-stream failure";
    let sync_err = pf
        .filter_source(ReaderSource::new(FailAfter { left: 96, msg: MSG }, 32), std::io::sink())
        .expect_err("sync path must fail");
    let pre_err = pf
        .filter_source(PrefetchSource::new(FailAfter { left: 96, msg: MSG }, 32), std::io::sink())
        .expect_err("prefetch path must fail");
    assert!(matches!(sync_err, CoreError::Io(_)), "sync error kind: {sync_err}");
    assert!(matches!(pre_err, CoreError::Io(_)), "prefetch error kind: {pre_err}");
    assert_eq!(
        pre_err.to_string(),
        sync_err.to_string(),
        "the I/O thread must surface the same CoreError wording as the sync path"
    );
    assert!(pre_err.to_string().contains(MSG));
}

/// `Threads:` from /proc/self/status (linux); `None` elsewhere.
fn thread_count() -> Option<usize> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status.lines().find_map(|l| l.strip_prefix("Threads:")).and_then(|v| v.trim().parse().ok())
}

#[test]
fn early_drop_joins_io_thread_no_leak_no_deadlock() {
    // A document far larger than the window, consumed only a little:
    // dropping the source while the producer is parked (both slots
    // filled) must join the smpx-io thread, not deadlock or leak it.
    let doc: Vec<u8> = b"<r>".iter().chain(b"x".repeat(1 << 16).iter()).copied().collect();
    let before = thread_count();
    for _ in 0..64 {
        let mut src = PrefetchSource::new(Cursor::new(doc.clone()), 64);
        use smpx_core::DocSource as _;
        assert!(src.ensure(16).unwrap());
        drop(src); // mid-stream: producer holds/filled both slots
    }
    if let (Some(b), Some(a)) = (before, thread_count()) {
        // Drop joins, so no smpx-io thread survives; allow slack for
        // unrelated test-harness threads starting or stopping.
        assert!(a <= b + 8, "smpx-io threads leaked: {b} threads before, {a} after 64 early drops");
    }
}
