//! The multi-query registry: N standing queries, one shared automaton,
//! per-document "which queries match" verdicts.
//!
//! The paper's introduction frames prefiltering for publish/subscribe —
//! many standing queries, every incoming document filtered once. A
//! [`QueryRegistry`] collects the workload (XPath text or pre-extracted
//! path sets, each receiving a dense [`QueryId`]), and
//! [`compile`](QueryRegistry::compile) builds **one** automaton for the
//! union of the extracted path sets whose states carry query-id
//! attribution ([`crate::compile::Attribution`]): a single SMP pass over
//! a document then yields the union projection *and* the per-query
//! verdict, where N independent [`Prefilter`]s would each rescan the
//! document.
//!
//! The verdict contract is per query exactly what the single-query
//! prefilter's `match_events` counter gives: one-sided error, never a
//! false negative. The equivalence suite (`tests/multi_query.rs`) pins
//! registry verdicts against N independently compiled single-query runs
//! across delivery backends, thread counts and SIMD/scalar modes.

use crate::error::CoreError;
use crate::idset::QueryId;
use crate::runtime::parallel::{BatchError, FrozenPrefilter};
use crate::runtime::source::DocSource;
use crate::runtime::Prefilter;
use crate::stats::{MultiVerdict, RunStats};
use smpx_dtd::Dtd;
use smpx_paths::extract::extract_from_text;
use smpx_paths::PathSet;
use smpx_stringmatch::memscan::ScanMode;
use std::io::Write;
use std::sync::Arc;

/// A workload of standing queries against one DTD, prior to compilation.
///
/// The DTD and the path sets are shared, not copied, with every
/// [`MultiPrefilter`] and [`SharedPrefilter`](crate::lifecycle::SharedPrefilter)
/// compiled from the registry: all of them read the DTD's one
/// [analysis](Dtd::analysis), built by the first compile.
#[derive(Debug, Clone)]
pub struct QueryRegistry {
    dtd: Arc<Dtd>,
    /// Copied on the first registration after a compile shared it.
    queries: Arc<Vec<PathSet>>,
}

impl QueryRegistry {
    /// An empty registry for documents valid w.r.t. `dtd`.
    pub fn new(dtd: Dtd) -> QueryRegistry {
        QueryRegistry { dtd: Arc::new(dtd), queries: Arc::default() }
    }

    /// Register an XPath query; its projection path set is extracted as
    /// for a single-query compile. Ids are handed out densely in
    /// registration order, starting at 0.
    pub fn add_query(&mut self, text: &str) -> Result<QueryId, CoreError> {
        let paths = extract_from_text(text).map_err(CoreError::Query)?;
        Ok(self.add_paths(paths))
    }

    /// Register a pre-extracted projection path set as one query.
    pub fn add_paths(&mut self, paths: PathSet) -> QueryId {
        Arc::make_mut(&mut self.queries).push(paths);
        QueryId(self.queries.len() as u32 - 1)
    }

    /// Number of registered queries.
    pub fn len(&self) -> usize {
        self.queries.len()
    }

    /// No queries registered yet?
    pub fn is_empty(&self) -> bool {
        self.queries.is_empty()
    }

    /// The registered path set of `q`.
    pub fn paths(&self, q: QueryId) -> Option<&PathSet> {
        self.queries.get(q.0 as usize)
    }

    /// Compile the whole workload into one shared attributed automaton.
    ///
    /// Errors if the registry is empty, if any query's path set is empty,
    /// or if the DTD fails automaton construction — the same conditions a
    /// single-query [`Prefilter::compile`] would report.
    pub fn compile(&self) -> Result<MultiPrefilter, CoreError> {
        let shared = Prefilter::compile_multi(&self.dtd, &self.queries)?;
        Ok(MultiPrefilter {
            shared,
            dtd: Arc::clone(&self.dtd),
            queries: Arc::clone(&self.queries),
        })
    }

    /// Compile the workload into a [`SharedPrefilter`] — the dynamic
    /// lifecycle handle whose query set stays mutable under traffic. The
    /// registered queries become generation 0 with their registry ids as
    /// the stable external ids; see [`crate::lifecycle`] for the
    /// generation-swap contract. Errors as [`compile`](Self::compile)
    /// would (the registry must be non-empty).
    pub fn compile_shared(&self) -> Result<crate::lifecycle::SharedPrefilter, CoreError> {
        crate::lifecycle::SharedPrefilter::with_shared_dtd(
            Arc::clone(&self.dtd),
            self.queries.to_vec(),
        )
    }
}

/// A compiled multi-query prefilter: one pass per document answers the
/// whole registered workload.
pub struct MultiPrefilter {
    shared: Prefilter,
    dtd: Arc<Dtd>,
    queries: Arc<Vec<PathSet>>,
}

impl MultiPrefilter {
    /// Number of queries this automaton answers for.
    pub fn query_count(&self) -> usize {
        self.queries.len()
    }

    /// The shared attributed automaton (for memory/state accounting).
    pub fn prefilter(&self) -> &Prefilter {
        &self.shared
    }

    /// Search in `mode` from now on ([`Prefilter::with_mode`]); the
    /// projections of [`project_query`](Self::project_query) inherit it.
    #[doc(hidden)]
    pub fn with_mode(mut self, mode: ScanMode) -> MultiPrefilter {
        self.shared = self.shared.with_mode(mode);
        self
    }

    /// One pass over an in-memory document: the union projection, the
    /// per-query verdict, and the run statistics.
    pub fn filter_to_vec(
        &mut self,
        doc: &[u8],
    ) -> Result<(Vec<u8>, MultiVerdict, RunStats), CoreError> {
        self.shared.run_multi(crate::runtime::source::SliceSource::new(doc), Vec::new())
    }

    /// One pass over a document from any delivery backend into `writer`.
    pub fn run_multi<S: DocSource, W: Write>(
        &mut self,
        src: S,
        writer: W,
    ) -> Result<(W, MultiVerdict, RunStats), CoreError> {
        self.shared.run_multi(src, writer)
    }

    /// Freeze the shared automaton for parallel execution; the frozen
    /// handle's `run_multi_batch_parallel` returns per-document verdicts
    /// in input order.
    pub fn freeze(&self) -> FrozenPrefilter {
        self.shared.freeze()
    }

    /// Batch entry through the pool: per-document
    /// `(sink, verdict, stats)` in input order; `threads == 0` uses the
    /// machine's available parallelism.
    pub fn run_batch_parallel<S, W, I>(
        &self,
        batch: I,
        threads: usize,
    ) -> Result<Vec<(W, MultiVerdict, RunStats)>, BatchError>
    where
        S: DocSource + Send,
        W: Write + Send,
        I: IntoIterator<Item = (S, W)>,
    {
        self.shared.run_multi_batch_parallel(batch, threads)
    }

    /// A single-query prefilter for one registered query, compiled from
    /// its own path set — identical, automaton and output bytes, to an
    /// independently compiled `Prefilter::compile(dtd, paths_q)`. Serves
    /// subscribers that want `q`'s exact projection rather than the union
    /// projection the shared pass emits. Compiled on demand: the registry
    /// pass itself never pays for N single-query compiles.
    pub fn project_query(&self, q: QueryId) -> Result<Prefilter, CoreError> {
        let paths = self.queries.get(q.0 as usize).ok_or(CoreError::NoPaths)?;
        Ok(Prefilter::compile(&self.dtd, paths)?.with_mode(self.shared.mode()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const EX2: &[u8] =
        br#"<!DOCTYPE a [ <!ELEMENT a (b|c)*> <!ELEMENT b (#PCDATA)> <!ELEMENT c (b,b?)> ]>"#;

    fn registry() -> QueryRegistry {
        QueryRegistry::new(Dtd::parse(EX2).unwrap())
    }

    #[test]
    fn ids_are_dense_registration_order() {
        let mut r = registry();
        assert!(r.is_empty());
        assert_eq!(r.add_query("/a/b").unwrap(), QueryId(0));
        assert_eq!(r.add_query("//c").unwrap(), QueryId(1));
        assert_eq!(r.len(), 2);
        assert!(r.paths(QueryId(1)).is_some());
        assert!(r.paths(QueryId(2)).is_none());
    }

    #[test]
    fn bad_query_reports_parse_error() {
        let mut r = registry();
        let err = r.add_query("/a[").unwrap_err();
        assert!(matches!(err, CoreError::Query(_)), "got {err}");
        assert!(err.to_string().contains("query error"));
    }

    #[test]
    fn empty_registry_refuses_to_compile() {
        let r = registry();
        assert!(matches!(r.compile(), Err(CoreError::NoPaths)));
    }

    #[test]
    fn one_pass_attributes_to_the_matching_queries() {
        let mut r = registry();
        let qb = r.add_query("/a/b").unwrap();
        let qc = r.add_query("//c").unwrap();
        let mut mpf = r.compile().unwrap();
        assert_eq!(mpf.query_count(), 2);

        let (_, verdict, _) = mpf.filter_to_vec(b"<a><b>x</b></a>").unwrap();
        assert!(verdict.is_matched(qb));
        assert!(!verdict.is_matched(qc));
        assert_eq!(verdict.n_queries, 2);

        let (_, verdict, _) = mpf.filter_to_vec(b"<a><c><b>y</b></c></a>").unwrap();
        assert!(verdict.is_matched(qc));
        assert_eq!(verdict.matched_ids(), vec![qc], "b-under-c is not /a/b");

        let (_, verdict, _) = mpf.filter_to_vec(b"<a></a>").unwrap();
        assert!(verdict.matched_ids().is_empty());
    }

    #[test]
    fn project_query_equals_independent_single_compile() {
        let mut r = registry();
        let qb = r.add_query("/a/b").unwrap();
        let mpf = r.compile().unwrap();
        let doc = b"<a><c><b>n</b></c><b>keep</b></a>";
        let (want, _) = Prefilter::compile(&Dtd::parse(EX2).unwrap(), r.paths(qb).unwrap())
            .unwrap()
            .filter_to_vec(doc)
            .unwrap();
        let (got, _) = mpf.project_query(qb).unwrap().filter_to_vec(doc).unwrap();
        assert_eq!(got, want);
    }
}
