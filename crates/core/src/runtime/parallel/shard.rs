//! Intra-document parallelism: speculative sharding of one document
//! across the pool.
//!
//! The pool parallelizes across documents; this module splits *one*
//! document. The protocol keeps the one-sided-error contract and makes
//! the stitched output byte-identical to the sequential run:
//!
//! 1. **Calibration** (main thread). Run the ordinary Fig. 4 loop from
//!    the document start, watching for *record crossings*: a found (not
//!    yet consumed) element-open token ([`split::open_masks`]) with no
//!    copy range active. The run stops at the first crossing whose state
//!    repeats an earlier crossing's state — that state `q_rec` is the
//!    record-loop state (at whatever depth the document's repeating
//!    records sit: XMark's `<item>` lists are three levels down), and
//!    the stop position is a *confirmed* configuration `(pos, q_rec,
//!    copy off)`. A document that never repeats a crossing state (one
//!    giant record, no repetition at all) simply runs to completion: the
//!    fallback *is* the sequential run, byte for byte.
//! 2. **Speculation** (pool). Shard entries are textual candidates — the
//!    next record-open pattern at or after each `shard_bytes` step
//!    ([`split::plan_entries`]). Each shard runs the same loop from
//!    `(entry, q_rec)` with the first initial jump suppressed, verifies
//!    that its first found token really is a record crossing at exactly
//!    its entry (else it aborts immediately — the candidate was inside a
//!    quoted value, a comment lookalike, or a nested record), and stops
//!    at its first crossing at or after the next shard's entry, again
//!    *before* consuming that token.
//! 3. **Stitching** (main thread). Walk the shards in input order with
//!    the confirmed frontier `p` (initially the calibration stop). A
//!    shard is spliced iff its entry equals `p` exactly: two runs at the
//!    same `(position, state, copy-off)` configuration behave
//!    identically from there on, so the shard's whole output, hit set
//!    and token counters are the sequential run's own. On a miss (the
//!    entry was a lookalike, or the previous segment overran it) the
//!    main thread *repairs*: it re-runs sequentially from `p` to the
//!    next spliceable entry and tries again. A shard that errored is
//!    never spliced — the repair run reproduces a real error exactly,
//!    and silently absorbs a speculative one (e.g. a garbage prefix
//!    running off EOF).
//!
//! Output bytes, match verdicts, `tokens_matched` / `match_events` are
//! exact under this protocol — the segments partition the sequential
//! run's token sequence. Search-effort counters (`chars_compared`,
//! `bytes_scanned`, `shifts`, `initial_jump_chars`) are approximate at
//! segment boundaries (each segment restarts its search at its entry
//! instead of arriving with the predecessor's shift state), the same
//! way `ReaderSource` stats are chunk-size-dependent.

use super::split;
use super::Pool;
use crate::error::CoreError;
use crate::idset::QueryIdSet;
use crate::runtime::source::{DocSource, SliceSource};
use crate::runtime::{Prefilter, RunEntry};
use crate::stats::{MultiVerdict, RunStats};
use std::io::Write;
use std::ops::ControlFlow;
use std::sync::Arc;

/// Observer the Fig. 4 loop reports every found-but-unconsumed token to
/// (see `Prefilter::run`). Decides when a calibration or shard run
/// stops, leaving the stop position's token for the successor segment.
pub(crate) struct ShardTrace {
    /// Per-state open-keyword bitmasks ([`split::open_masks`]).
    masks: Arc<Vec<u64>>,
    mode: Mode,
    /// Set when the run stopped at a crossing: position and state of the
    /// first *unconsumed* token. `None` = ran to natural completion.
    pub(crate) stopped: Option<(usize, u32)>,
    /// Speculation only: the entry token failed to verify as a record
    /// crossing — the candidate was not what it looked like.
    pub(crate) entry_failed: bool,
}

enum Mode {
    /// Find the record-loop state: stop at the first crossing whose
    /// state was already crossed in.
    Calibrate { seen: Vec<u32> },
    /// Speculative shard / repair run: entered at `entry` in
    /// `loop_state`; stop at the first `loop_state` crossing at or after
    /// `stop_at`. `pending_entry` validates the entry token first.
    Speculate { loop_state: u32, entry: usize, stop_at: usize, pending_entry: bool },
}

impl ShardTrace {
    pub(crate) fn calibrate(masks: Arc<Vec<u64>>) -> ShardTrace {
        ShardTrace {
            masks,
            mode: Mode::Calibrate { seen: Vec::new() },
            stopped: None,
            entry_failed: false,
        }
    }

    pub(crate) fn speculate(
        masks: Arc<Vec<u64>>,
        loop_state: u32,
        entry: usize,
        stop_at: usize,
        check_entry: bool,
    ) -> ShardTrace {
        ShardTrace {
            masks,
            mode: Mode::Speculate { loop_state, entry, stop_at, pending_entry: check_entry },
            stopped: None,
            entry_failed: false,
        }
    }

    /// Observe the token found (not yet consumed) at `start` in state
    /// `q`. `clean` = no copy range active and zero multi-mode copy
    /// depth — only clean configurations are legal splice points.
    /// `Break` stops the run with the token unconsumed.
    #[inline]
    pub(crate) fn on_token(
        &mut self,
        q: u32,
        kw_idx: usize,
        start: usize,
        clean: bool,
    ) -> ControlFlow<()> {
        let record = clean && kw_idx < 64 && self.masks[q as usize] & (1u64 << kw_idx) != 0;
        match &mut self.mode {
            Mode::Calibrate { seen } => {
                if record {
                    if seen.contains(&q) {
                        self.stopped = Some((start, q));
                        return ControlFlow::Break(());
                    }
                    seen.push(q);
                }
                ControlFlow::Continue(())
            }
            Mode::Speculate { loop_state, entry, stop_at, pending_entry } => {
                let crossing = record && q == *loop_state;
                if *pending_entry {
                    *pending_entry = false;
                    if !crossing || start != *entry {
                        self.entry_failed = true;
                        return ControlFlow::Break(());
                    }
                    return ControlFlow::Continue(());
                }
                if crossing && start >= *stop_at {
                    self.stopped = Some((start, q));
                    return ControlFlow::Break(());
                }
                ControlFlow::Continue(())
            }
        }
    }
}

/// One pool shard's assignment.
struct Task {
    entry: usize,
    stop_at: usize,
    check_entry: bool,
}

/// One segment's result, speculative until stitched.
struct ShardOut {
    entry: usize,
    out: Vec<u8>,
    stats: RunStats,
    hits: QueryIdSet,
    stopped: Option<usize>,
    entry_failed: bool,
    err: Option<CoreError>,
}

/// The sharded run: materialize, calibrate, speculate, stitch. Returns
/// the writer, the (multi-)verdict and the stitched stats; single-query
/// callers drop the verdict.
pub(crate) fn run_sharded_impl<S: DocSource, W: Write>(
    pf: &mut Prefilter,
    mut src: S,
    mut writer: W,
    threads: usize,
    shard_bytes: usize,
) -> Result<(W, MultiVerdict, RunStats), CoreError> {
    let pool = Pool::new(threads);
    let masks = split::open_masks(&pf.tables);
    if pool.threads() <= 1 || !split::any_candidates(&masks) {
        // No parallelism to win, or nothing to split at: the plain
        // sequential path, streaming semantics and all. (`filter_one`
        // folds the run into the process counters itself.)
        crate::obs::add(crate::obs::CounterId::ShardFallbacks, 1);
        let (w, stats) = pf.filter_one(src, writer)?;
        let verdict = pf.take_verdict(&stats);
        return Ok((w, verdict, stats));
    }
    // Random access over the whole document: zero-copy for slice/mmap
    // (already fully resident), a grow-to-EOF slurp for readers (the
    // window cost is reported honestly in `io_window_bytes`).
    while src.grow()? {}
    debug_assert_eq!(src.base(), 0, "no guard was raised: nothing may have been dropped");
    let doc: &[u8] = src.resident();
    let masks = Arc::new(masks);

    // Phase 1: calibration — sequential until the record loop is found.
    let mut trace = ShardTrace::calibrate(masks.clone());
    let (cal_out, cal_stats) = pf.filter_one_traced(
        SliceSource::new(doc),
        Vec::new(),
        RunEntry::default(),
        Some(&mut trace),
    )?;
    let cal_hits = std::mem::take(&mut pf.hits);
    let Some((p0, q_rec)) = trace.stopped else {
        // No safe split found: the calibration run already was the full
        // sequential run. It went through `filter_one_traced`, so fold it
        // into the process counters here.
        writer.write_all(&cal_out)?;
        let mut stats = cal_stats;
        stats.io_window_bytes = stats.io_window_bytes.max(src.peak_io_bytes() as u64);
        crate::obs::add(crate::obs::CounterId::ShardFallbacks, 1);
        crate::obs::record_run(&stats);
        pf.hits = cal_hits;
        let verdict = pf.take_verdict(&stats);
        return Ok((writer, verdict, stats));
    };

    // Phase 2: speculative shards through the pool.
    let patterns = split::entry_patterns(&pf.tables, &masks, q_rec);
    let entries = split::plan_entries(doc, p0, shard_bytes, pool.threads(), &patterns);
    let tasks: Vec<Task> = entries
        .iter()
        .enumerate()
        .map(|(i, &entry)| Task {
            entry,
            stop_at: entries.get(i + 1).copied().unwrap_or(usize::MAX),
            // Shard 0 continues from the calibration stop — a confirmed
            // configuration, no speculation to validate.
            check_entry: i > 0,
        })
        .collect();
    let frozen = pf.freeze();
    let run_one = |wk: &mut Prefilter, task: Task| -> Result<ShardOut, CoreError> {
        let mut tr =
            ShardTrace::speculate(masks.clone(), q_rec, task.entry, task.stop_at, task.check_entry);
        let entry = RunEntry { state: q_rec, cursor: task.entry, suppress_jump: true };
        let res = wk.filter_one_traced(SliceSource::new(doc), Vec::new(), entry, Some(&mut tr));
        let (out, stats, err) = match res {
            Ok((out, stats)) => (out, stats, None),
            // A speculative error is not (yet) a document error: it is
            // only real if the stitcher confirms this shard's entry, and
            // then the repair run reproduces it exactly.
            Err(e) => (Vec::new(), RunStats::default(), Some(e)),
        };
        Ok(ShardOut {
            entry: task.entry,
            out,
            stats,
            hits: std::mem::take(&mut wk.hits),
            stopped: tr.stopped.map(|(pos, _)| pos),
            entry_failed: tr.entry_failed,
            err,
        })
    };
    let mut results: Vec<ShardOut> = match pool.run(tasks, |_| frozen.worker(), run_one) {
        Ok(r) => r,
        Err((_, e)) => return Err(e), // unreachable: jobs capture their errors
    };

    // Phase 3: stitch — splice confirmed shards, repair around misses.
    let stitch_span = crate::obs::stage(crate::obs::StageId::Stitch);
    let mut segs: Vec<(Vec<u8>, RunStats, QueryIdSet)> = vec![(cal_out, cal_stats, cal_hits)];
    let mut p = p0;
    let mut idx = 0;
    let mut done = false;
    while !done {
        while idx < results.len() && results[idx].entry < p {
            idx += 1; // overrun entries: provably not sequential crossings
        }
        if idx < results.len() && results[idx].entry == p {
            let sh = &mut results[idx];
            idx += 1;
            if !sh.entry_failed && sh.err.is_none() {
                crate::obs::add(crate::obs::CounterId::ShardSpeculationHits, 1);
                segs.push((std::mem::take(&mut sh.out), sh.stats, std::mem::take(&mut sh.hits)));
                match sh.stopped {
                    Some(s) => p = s,
                    None => done = true,
                }
                continue;
            }
        }
        // Repair: sequential from the confirmed frontier up to the next
        // entry that could still be spliced. A real document error
        // surfaces here, attributed exactly as the sequential run would.
        let target = results[idx..].iter().map(|r| r.entry).find(|&e| e > p).unwrap_or(usize::MAX);
        let mut tr = ShardTrace::speculate(masks.clone(), q_rec, p, target, false);
        let entry = RunEntry { state: q_rec, cursor: p, suppress_jump: true };
        crate::obs::add(crate::obs::CounterId::ShardRepairs, 1);
        let repair_span = crate::obs::stage(crate::obs::StageId::Repair);
        let (out, stats) =
            pf.filter_one_traced(SliceSource::new(doc), Vec::new(), entry, Some(&mut tr))?;
        drop(repair_span);
        let hits = std::mem::take(&mut pf.hits);
        segs.push((out, stats, hits));
        match tr.stopped {
            Some((s, _)) => p = s,
            None => done = true,
        }
    }

    // Finalize: concatenate in order; exact counters sum, per-document
    // quantities are set from the document itself.
    let mut total = RunStats::default();
    let mut union = QueryIdSet::new();
    let n_segs = segs.len() as u64;
    for (out, mut stats, hits) in segs {
        writer.write_all(&out)?;
        stats.input_bytes = 0;
        stats.io_window_bytes = 0;
        total.accumulate(&stats);
        union.union_with(&hits);
    }
    total.input_bytes = doc.len() as u64;
    total.io_window_bytes = src.peak_io_bytes() as u64;
    total.shards = n_segs;
    drop(stitch_span);
    crate::obs::add(crate::obs::CounterId::ShardRuns, 1);
    crate::obs::observe(crate::obs::HistId::ShardSegments, n_segs);
    crate::obs::record_run(&total);
    pf.hits = union;
    let verdict = pf.take_verdict(&total);
    Ok((writer, verdict, total))
}

#[cfg(test)]
mod tests {
    use super::*;
    use smpx_dtd::Dtd;
    use smpx_paths::PathSet;

    const EX2: &[u8] =
        br#"<!DOCTYPE a [ <!ELEMENT a (b|c)*> <!ELEMENT b (#PCDATA)> <!ELEMENT c (b,b?)> ]>"#;

    fn pf() -> Prefilter {
        let dtd = Dtd::parse(EX2).unwrap();
        let paths = PathSet::parse(&["/*", "/a/b#"]).unwrap();
        Prefilter::compile(&dtd, &paths).unwrap()
    }

    fn record_doc(n: usize) -> Vec<u8> {
        let mut d = b"<a>".to_vec();
        for j in 0..n {
            d.extend_from_slice(format!("<c><b>x{j}</b></c><b>keep-{j}</b>").as_bytes());
        }
        d.extend_from_slice(b"</a>");
        d
    }

    #[test]
    fn sharded_matches_sequential_across_sizes_and_threads() {
        let doc = record_doc(40);
        let (want_out, want_stats) = pf().filter_to_vec(&doc).unwrap();
        for threads in [1usize, 2, 3, 8] {
            for shard_bytes in [0usize, 48, 131, 400] {
                let mut p = pf();
                let (out, stats) = p
                    .run_sharded(SliceSource::new(&doc), Vec::new(), threads, shard_bytes)
                    .unwrap();
                assert_eq!(
                    out, want_out,
                    "threads={threads} shard_bytes={shard_bytes}: output diverged"
                );
                assert_eq!(stats.output_bytes, want_stats.output_bytes);
                assert_eq!(stats.input_bytes, want_stats.input_bytes);
                assert_eq!(stats.match_events, want_stats.match_events);
                assert_eq!(stats.tokens_matched, want_stats.tokens_matched);
                if Pool::new(threads).threads() > 1 && shard_bytes != 0 {
                    assert!(stats.shards >= 2, "threads={threads} sb={shard_bytes}: {stats:?}");
                }
            }
        }
    }

    #[test]
    fn single_thread_falls_back_sequential() {
        let doc = record_doc(10);
        let (want, ws) = pf().filter_to_vec(&doc).unwrap();
        let (out, stats) = pf().run_sharded(SliceSource::new(&doc), Vec::new(), 1, 64).unwrap();
        assert_eq!(out, want);
        assert_eq!(stats, ws, "fallback must be the plain sequential run");
        assert_eq!(stats.shards, 0);
    }

    #[test]
    fn no_repeating_record_state_falls_back() {
        // One giant <b> record: the crossing state never repeats, so
        // calibration runs the document to completion.
        let mut doc = b"<a><b>".to_vec();
        doc.extend_from_slice(&vec![b'x'; 4096]);
        doc.extend_from_slice(b"</b></a>");
        let (want, _) = pf().filter_to_vec(&doc).unwrap();
        let (out, stats) = pf().run_sharded(SliceSource::new(&doc), Vec::new(), 4, 64).unwrap();
        assert_eq!(out, want);
        assert_eq!(stats.shards, 0, "no safe split: ran unsplit");
    }

    #[test]
    fn lookalike_candidates_are_repaired() {
        // Record-open lookalikes inside quoted attribute values: textual
        // candidates that the sequential frontier never crosses.
        let mut doc = b"<a>".to_vec();
        for j in 0..24 {
            doc.extend_from_slice(
                format!("<b id=\"<b>fake{j}</b><c>\">real-{j}</b><c><b>y{j}</b></c>").as_bytes(),
            );
        }
        doc.extend_from_slice(b"</a>");
        let (want, _) = pf().filter_to_vec(&doc).unwrap();
        for shard_bytes in [16usize, 33, 64, 100] {
            let (out, _) =
                pf().run_sharded(SliceSource::new(&doc), Vec::new(), 4, shard_bytes).unwrap();
            assert_eq!(out, want, "shard_bytes={shard_bytes}");
        }
    }

    #[test]
    fn truncated_document_reports_the_real_error() {
        let mut doc = record_doc(30);
        doc.truncate(doc.len() - 10); // cut inside the last records
        let want = pf().filter_to_vec(&doc).expect_err("truncated");
        let got =
            pf().run_sharded(SliceSource::new(&doc), Vec::new(), 4, 64).expect_err("truncated");
        assert_eq!(format!("{got}"), format!("{want}"));
    }
}
