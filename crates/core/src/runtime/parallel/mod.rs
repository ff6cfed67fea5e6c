//! Parallel prefiltering: a batch executor over one shared automaton.
//!
//! Prefiltering a corpus is embarrassingly parallel at the document
//! level, and everything the documents need to share — the compiled
//! `A`/`V`/`J`/`T` tables — is read-only after construction. This module
//! splits the [`Prefilter`] accordingly:
//!
//! * [`FrozenPrefilter`] holds the compiled tables behind an `Arc` and is
//!   `Sync`: one frozen handle serves any number of threads.
//! * [`FrozenPrefilter::worker`] mints a per-worker [`Prefilter`] that
//!   *shares* the tables but *owns* its matcher caches (the lazily built
//!   Boyer–Moore / Commentz–Walter structures) and scratch buffers, so
//!   workers never synchronize on the hot path — the paper's lazy
//!   matcher construction simply happens once per worker instead of once
//!   per process, and stays warm across every document that worker
//!   draws.
//! * [`Pool`] schedules the documents: tickets claimed in input order,
//!   results delivered in input order with a bounded run-ahead,
//!   first-error cancellation with a clean drain.
//!
//! The unit of parallel work is one whole document: each is one Fig. 4
//! pass on one worker, whose memory does not depend on the document's
//! length. A one-document batch is a width-1 run.
//!
//! Equivalence with the sequential [`Prefilter::run_batch`] is exact:
//! each document is processed by the same single-threaded Fig. 4 loop
//! against the same tables, so per-document output bytes and `RunStats`
//! are byte-identical whatever the thread count, and accumulated totals
//! are identical because [`RunStats::accumulate`] is commutative in every
//! counter (sums and a max). The integration suite pins this across
//! thread counts, backends and SIMD/scalar modes.

mod pool;

pub use pool::Pool;

use super::source::DocSource;
use super::Prefilter;
use crate::compile::CompiledTables;
use crate::error::CoreError;
use crate::stats::{MultiVerdict, RunStats};
use smpx_stringmatch::memscan::ScanMode;
use std::io::Write;
use std::sync::Arc;

/// An immutably shared compiled automaton, ready to serve many workers.
///
/// Create one with [`Prefilter::freeze`]. Cloning is cheap (one `Arc`
/// bump); every clone and every [`worker`](Self::worker) reads the same
/// tables and searches in the frozen prefilter's [`ScanMode`].
#[derive(Clone)]
pub struct FrozenPrefilter {
    tables: Arc<CompiledTables>,
    mode: ScanMode,
}

impl FrozenPrefilter {
    pub(crate) fn new(tables: Arc<CompiledTables>, mode: ScanMode) -> FrozenPrefilter {
        FrozenPrefilter { tables, mode }
    }

    /// The shared compiled tables.
    pub fn tables(&self) -> &CompiledTables {
        &self.tables
    }

    /// How every worker searches.
    pub fn mode(&self) -> ScanMode {
        self.mode
    }

    /// A worker prefilter: shares this automaton, owns its matcher
    /// caches. Building one allocates only the empty cache vectors; the
    /// matchers themselves warm lazily as states are first entered.
    pub fn worker(&self) -> Prefilter {
        Prefilter::from_shared(self.tables.clone(), self.mode)
    }

    /// Prefilter many documents concurrently through `threads` workers
    /// (`0` = available parallelism), returning each document's
    /// `(sink, stats)` pair **in input order** regardless of completion
    /// order.
    ///
    /// The batch is collected up front (sources are typically cheap
    /// handles — open the expensive ones lazily inside a custom
    /// [`Pool::run`] job if fd pressure matters, as the CLI does). On the
    /// first failing document the pool cancels: in-flight documents drain
    /// cleanly, queued ones are abandoned, and the returned
    /// [`BatchError`] names the failing input by its batch index with the
    /// underlying [`CoreError`]. Nothing is poisoned — the frozen handle
    /// can run further batches immediately.
    pub fn run_batch_parallel<S, W, I>(
        &self,
        batch: I,
        threads: usize,
    ) -> Result<Vec<(W, RunStats)>, BatchError>
    where
        S: DocSource + Send,
        W: Write + Send,
        I: IntoIterator<Item = (S, W)>,
    {
        Pool::new(threads)
            .run(
                batch.into_iter().collect(),
                |_| self.worker(),
                |pf, (src, sink)| pf.filter_one(src, sink),
            )
            .map_err(|(index, error)| BatchError { index, error })
    }

    /// [`run_batch_parallel`](Self::run_batch_parallel) for multi-query
    /// (registry) automatons: each document's result additionally carries
    /// its [`MultiVerdict`] — which registered queries might match it —
    /// still **in input order**. The verdict is extracted from the worker
    /// that ran the document before it draws the next one, so worker
    /// reuse never mixes documents' hits. Execution and error semantics
    /// are identical to the plain batch entry.
    pub fn run_multi_batch_parallel<S, W, I>(
        &self,
        batch: I,
        threads: usize,
    ) -> Result<Vec<(W, MultiVerdict, RunStats)>, BatchError>
    where
        S: DocSource + Send,
        W: Write + Send,
        I: IntoIterator<Item = (S, W)>,
    {
        Pool::new(threads)
            .run(
                batch.into_iter().collect(),
                |_| self.worker(),
                |pf, (src, sink)| {
                    let (out, stats) = pf.filter_one(src, sink)?;
                    let verdict = pf.take_verdict(&stats);
                    Ok((out, verdict, stats))
                },
            )
            .map_err(|(index, error)| BatchError { index, error })
    }
}

/// A batch failure: which input failed, and how.
///
/// `index` is the 0-based position in the submitted batch — callers that
/// know their inputs' names (the CLI's file list) use it to name the
/// failing document. With several failing documents the reported one is
/// the lowest-indexed error *observed* before cancellation took effect
/// (deterministic when a single input is at fault).
#[derive(Debug)]
pub struct BatchError {
    /// 0-based index of the failing input in the batch.
    pub index: usize,
    /// What went wrong with that input.
    pub error: CoreError,
}

impl std::fmt::Display for BatchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "batch input #{}: {}", self.index, self.error)
    }
}

impl std::error::Error for BatchError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.error)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::source::SliceSource;
    use smpx_dtd::Dtd;
    use smpx_paths::PathSet;

    const EX2: &[u8] =
        br#"<!DOCTYPE a [ <!ELEMENT a (b|c)*> <!ELEMENT b (#PCDATA)> <!ELEMENT c (b,b?)> ]>"#;

    fn pf() -> Prefilter {
        let dtd = Dtd::parse(EX2).unwrap();
        let paths = PathSet::parse(&["/*", "/a/b#"]).unwrap();
        Prefilter::compile(&dtd, &paths).unwrap()
    }

    fn docs() -> Vec<Vec<u8>> {
        (0..12)
            .map(|i| {
                let mut d = b"<a>".to_vec();
                for j in 0..=i {
                    d.extend_from_slice(format!("<c><b>x{j}</b></c><b>keep{i}-{j}</b>").as_bytes());
                }
                d.extend_from_slice(b"</a>");
                d
            })
            .collect()
    }

    #[test]
    fn parallel_batch_matches_sequential_in_order() {
        let docs = docs();
        let mut seq = pf();
        let want: Vec<(Vec<u8>, RunStats)> =
            docs.iter().map(|d| seq.filter_to_vec(d).unwrap()).collect();
        for threads in [0usize, 1, 2, 8] {
            let got = pf()
                .run_batch_parallel(docs.iter().map(|d| (SliceSource::new(d), Vec::new())), threads)
                .unwrap();
            assert_eq!(got.len(), want.len());
            for (i, ((go, gs), (wo, ws))) in got.iter().zip(&want).enumerate() {
                assert_eq!(go, wo, "threads={threads} doc={i}: output diverged");
                assert_eq!(gs, ws, "threads={threads} doc={i}: stats diverged");
            }
        }
    }

    #[test]
    fn frozen_handle_is_reusable_and_shares_tables() {
        let base = pf();
        let frozen = base.freeze();
        assert_eq!(frozen.tables().state_count(), base.tables().state_count());
        let docs = docs();
        for _ in 0..2 {
            let out = frozen
                .run_batch_parallel(docs.iter().map(|d| (SliceSource::new(d), Vec::new())), 2)
                .unwrap();
            assert_eq!(out.len(), docs.len());
        }
        // Worker prefilters start with cold caches and warm independently.
        let mut w = frozen.worker();
        let (out, _) = w.filter_to_vec(b"<a><b>k</b></a>").unwrap();
        assert_eq!(out, b"<a><b>k</b></a>".to_vec());
    }

    #[test]
    fn batch_error_names_the_failing_input() {
        let docs = docs();
        let mut batch: Vec<Vec<u8>> = docs.clone();
        batch[5] = b"<a><b>never closed".to_vec();
        let err = pf()
            .run_batch_parallel(batch.iter().map(|d| (SliceSource::new(d), Vec::new())), 4)
            .expect_err("doc 5 is truncated");
        assert_eq!(err.index, 5);
        assert!(matches!(err.error, CoreError::UnexpectedEof { .. }));
        assert!(err.to_string().contains("#5"), "display: {err}");
    }
}
