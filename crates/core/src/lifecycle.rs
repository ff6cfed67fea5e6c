//! Dynamic query lifecycle: a registry that stays mutable under traffic.
//!
//! [`QueryRegistry`](crate::QueryRegistry) (PR 6) is build-then-compile:
//! changing the standing query set means recompiling and handing every
//! caller a new automaton. The paper's prefilter, however, is meant to
//! sit in front of *long-lived* query workloads — publish/subscribe
//! filtering where thousands of profiles churn while documents keep
//! arriving. This module supplies the serving-side half:
//!
//! * [`SharedPrefilter`] owns a **generation-swapped**
//!   `Arc<`[`Generation`]`>`. Every document run resolves the current
//!   generation once, up front, and runs to completion on that immutable
//!   snapshot — an in-flight document (or pooled batch task) is never
//!   migrated, so its output is byte-identical to a run against a freshly
//!   compiled registry of that generation's query set.
//! * [`add_query`](SharedPrefilter::add_query) /
//!   [`remove_query`](SharedPrefilter::remove_query) mutate the *live
//!   set* and enqueue a recompile. The recompile runs on a dedicated
//!   compiler thread — **off the hot path**: document workers never wait
//!   on compilation, they simply keep reading the published generation
//!   until the next one lands. Bursts of edits coalesce into one
//!   recompile of the final set.
//! * Query-id attribution is **stable across generations**: external
//!   [`QueryId`]s are allocated once, never reused, and verdicts are
//!   always reported in external-id space ([`Generation::id_width`]
//!   wide). A removed query's id simply reports unmatched from the first
//!   generation that excludes it — the tombstone semantics; it is an
//!   error to re-remove it.
//!
//! Failure containment: a query is validated (parsed and compiled
//! single-query against the DTD) *synchronously* inside `add_query`, so
//! the caller that submitted a bad query gets the error and the shared
//! automaton is never poisoned. Should a workload recompile fail anyway,
//! the previous generation keeps serving and the error surfaces on the
//! next [`settle`](SharedPrefilter::settle).

use crate::error::CoreError;
use crate::idset::{QueryId, QueryIdSet};
use crate::runtime::parallel::{BatchError, FrozenPrefilter, Pool};
use crate::runtime::source::DocSource;
use crate::runtime::Prefilter;
use crate::stats::{MultiVerdict, RunStats};
use smpx_dtd::Dtd;
use smpx_paths::extract::extract_from_text;
use smpx_paths::PathSet;
use smpx_stringmatch::memscan::ScanMode;
use std::io::Write;
use std::sync::{Arc, Condvar, Mutex, RwLock};

/// One published compilation of the live query set — an immutable
/// snapshot a document run holds onto from first byte to last.
///
/// Internally the automaton is an ordinary multi-query compile of the
/// live path sets in ascending external-id order; the generation carries
/// the map from those dense *compiled* ids back to the stable *external*
/// ids, so verdicts keep meaning the same thing while the set churns. A
/// recompile searches in its predecessor's [`ScanMode`].
pub struct Generation {
    gen_no: u64,
    frozen: FrozenPrefilter,
    /// Compiled (dense) id → external (stable) id, ascending.
    extern_of: Vec<QueryId>,
    /// Width of the external id space: every id ever allocated, removed
    /// ones included. Verdicts are reported over this width.
    id_width: u32,
}

impl Generation {
    /// The generation number: `0` for the initial compile, incremented by
    /// every published recompile. Strictly increasing, never reused.
    pub fn gen_no(&self) -> u64 {
        self.gen_no
    }

    /// The generation's frozen automaton (for workers, memory accounting,
    /// or hand-rolled pool runs).
    pub fn frozen(&self) -> &FrozenPrefilter {
        &self.frozen
    }

    /// Number of live queries this generation answers for.
    pub fn live_queries(&self) -> usize {
        self.extern_of.len()
    }

    /// Width of the external id space (live + tombstoned ids). Equals
    /// `n_queries` of every verdict this generation produces.
    pub fn id_width(&self) -> u32 {
        self.id_width
    }

    /// The stable external id of the generation's `compiled`-th query
    /// (`None` past the live count).
    pub fn external_id(&self, compiled: QueryId) -> Option<QueryId> {
        self.extern_of.get(compiled.0 as usize).copied()
    }

    /// Translate a verdict from the compiled automaton's dense id space
    /// into stable external ids over the full allocated width. Removed
    /// ids are never inserted, so they report unmatched.
    pub fn remap_verdict(&self, compiled: &MultiVerdict) -> MultiVerdict {
        debug_assert_eq!(compiled.n_queries as usize, self.extern_of.len());
        let mut matched = QueryIdSet::new();
        for q in compiled.matched.iter() {
            matched.insert(self.extern_of[q.0 as usize]);
        }
        MultiVerdict { matched, n_queries: self.id_width }
    }

    /// One pass over a document on *this* generation: union projection
    /// into `writer`, verdict in stable external ids, run statistics.
    /// Mints a fresh worker; callers processing many documents on one
    /// generation should mint a [`worker`](FrozenPrefilter::worker) once
    /// and remap verdicts themselves, as the pooled entry does.
    pub fn run_multi<S: DocSource, W: Write>(
        &self,
        src: S,
        writer: W,
    ) -> Result<(W, MultiVerdict, RunStats), CoreError> {
        let mut pf = self.frozen.worker();
        let (out, verdict, stats) = pf.run_multi(src, writer)?;
        Ok((out, self.remap_verdict(&verdict), stats))
    }
}

/// The mutable half: the live query table plus compiler bookkeeping.
struct LifecycleState {
    /// Slot per allocated external id: `Some` = live, `None` = removed
    /// (tombstone — ids are never reused).
    slots: Vec<Option<PathSet>>,
    /// Edits published into `slots` but not yet compiled.
    dirty: bool,
    /// Edits accumulated since the compiler last snapshotted — the
    /// coalesced-burst size the observability layer reports.
    pending_edits: usize,
    /// A recompile is running off-lock right now.
    compiling: bool,
    /// Tells the compiler thread to exit (set on handle drop).
    shutdown: bool,
    /// Number the *next* published generation will carry.
    next_gen: u64,
    /// Error of the most recent failed recompile; the previous generation
    /// keeps serving. Taken (and cleared) by `settle`.
    last_error: Option<CoreError>,
}

impl LifecycleState {
    fn live(&self) -> usize {
        self.slots.iter().flatten().count()
    }
}

/// Everything the handle and the compiler thread share.
struct Inner {
    /// Every compile — generation 0, each validation, each recompile —
    /// reads this DTD's one analysis.
    dtd: Arc<Dtd>,
    state: Mutex<LifecycleState>,
    /// Wakes the compiler on edits/shutdown and `settle` waiters on
    /// publish — one condvar, both directions re-check their predicates.
    signal: Condvar,
    /// The published generation. Readers clone the `Arc` (one read-lock
    /// bump per document); the compiler swaps in a new one atomically.
    current: RwLock<Arc<Generation>>,
}

/// A multi-query prefilter whose query set is mutable **while documents
/// are being served** — the router-style dynamic lifecycle (module docs).
///
/// The handle is `Sync`: share it by reference (or wrap it in an `Arc`)
/// between any number of submitting and document-processing threads. It
/// is deliberately not `Clone` — the owning handle joins the compiler
/// thread on drop.
pub struct SharedPrefilter {
    inner: Arc<Inner>,
    compiler: Option<std::thread::JoinHandle<()>>,
}

impl SharedPrefilter {
    /// Compile `initial` (one path set per query, external ids `0..n` in
    /// order) into generation 0 and start the lifecycle compiler thread.
    ///
    /// Errors exactly as [`Prefilter::compile_multi`] would: the registry
    /// must start non-empty — a prefilter with no queries has no
    /// automaton to run (and [`remove_query`](Self::remove_query) refuses
    /// to remove the last live query for the same reason).
    pub fn new(dtd: Dtd, initial: Vec<PathSet>) -> Result<SharedPrefilter, CoreError> {
        SharedPrefilter::with_shared_dtd(Arc::new(dtd), initial)
    }

    /// [`new`](Self::new) over a DTD shared with the caller (the
    /// registry's), so the handle reads the analysis already built for it.
    pub(crate) fn with_shared_dtd(
        dtd: Arc<Dtd>,
        initial: Vec<PathSet>,
    ) -> Result<SharedPrefilter, CoreError> {
        if initial.is_empty() {
            return Err(CoreError::NoPaths);
        }
        let pf = Prefilter::compile_multi(&dtd, &initial)?;
        let generation = Arc::new(Generation {
            gen_no: 0,
            frozen: pf.freeze(),
            extern_of: (0..initial.len() as u32).map(QueryId).collect(),
            id_width: initial.len() as u32,
        });
        let inner = Arc::new(Inner {
            dtd,
            state: Mutex::new(LifecycleState {
                slots: initial.into_iter().map(Some).collect(),
                dirty: false,
                pending_edits: 0,
                compiling: false,
                shutdown: false,
                next_gen: 1,
                last_error: None,
            }),
            signal: Condvar::new(),
            current: RwLock::new(generation),
        });
        let thread_inner = Arc::clone(&inner);
        let compiler = std::thread::Builder::new()
            .name("smpx-lifecycle".into())
            .spawn(move || compiler_loop(&thread_inner))
            .map_err(CoreError::Io)?;
        Ok(SharedPrefilter { inner, compiler: Some(compiler) })
    }

    /// The DTD every registered query is compiled against.
    pub fn dtd(&self) -> &Dtd {
        &self.inner.dtd
    }

    /// Search in `mode` from now on: settle every pending edit, then
    /// republish the current generation in `mode`; every later recompile
    /// inherits it.
    #[doc(hidden)]
    pub fn with_mode(self, mode: ScanMode) -> SharedPrefilter {
        let mut st = self.inner.state.lock().expect("lifecycle state");
        while st.dirty || st.compiling {
            st = self.inner.signal.wait(st).expect("lifecycle state");
        }
        let mut current = self.inner.current.write().expect("lifecycle generation");
        *current = Arc::new(Generation {
            gen_no: current.gen_no,
            frozen: current.frozen.worker().with_mode(mode).freeze(),
            extern_of: current.extern_of.clone(),
            id_width: current.id_width,
        });
        drop((current, st));
        self
    }

    /// Register an XPath query. The id is allocated and returned
    /// immediately; the generation that *answers* for it publishes
    /// asynchronously (await it with [`settle`](Self::settle)).
    ///
    /// The query is validated here, synchronously — parse errors and
    /// compile errors against the DTD are the submitting caller's to
    /// handle, and a rejected query leaves the registry untouched.
    pub fn add_query(&self, text: &str) -> Result<QueryId, CoreError> {
        let paths = extract_from_text(text).map_err(CoreError::Query)?;
        self.add_paths(paths)
    }

    /// [`add_query`](Self::add_query) for a pre-extracted path set.
    pub fn add_paths(&self, paths: PathSet) -> Result<QueryId, CoreError> {
        // Single-query validation compile: proportional to one query (the
        // DTD's analysis is the one every generation already reads), so
        // the control plane stays cheap while still catching DTD
        // mismatches before they could fail the whole workload recompile.
        Prefilter::compile(&self.inner.dtd, &paths)?;
        let mut st = self.inner.state.lock().expect("lifecycle state");
        let id = QueryId(st.slots.len() as u32);
        st.slots.push(Some(paths));
        st.dirty = true;
        st.pending_edits += 1;
        drop(st);
        self.inner.signal.notify_all();
        Ok(id)
    }

    /// Tombstone a live query: from the next published generation on,
    /// its id reports unmatched in every verdict (ids are never reused).
    /// Rejects ids that were never allocated or are already removed, and
    /// refuses to remove the last live query — an empty registry has no
    /// automaton to serve (start over with [`new`](Self::new) instead).
    pub fn remove_query(&self, id: QueryId) -> Result<(), CoreError> {
        let mut st = self.inner.state.lock().expect("lifecycle state");
        let live = st.live();
        let reason = match st.slots.get_mut(id.0 as usize) {
            None => "never registered",
            Some(None) => "already removed",
            Some(slot) => {
                if live == 1 {
                    "the last live query cannot be removed (the registry must stay non-empty)"
                } else {
                    *slot = None;
                    st.dirty = true;
                    st.pending_edits += 1;
                    drop(st);
                    self.inner.signal.notify_all();
                    return Ok(());
                }
            }
        };
        Err(CoreError::LifecycleEdit { id, reason })
    }

    /// The current published generation — the per-document resolve.
    /// Cheap (one `RwLock` read + `Arc` bump); hold the returned `Arc`
    /// for the whole document so the run cannot be migrated mid-flight.
    pub fn generation(&self) -> Arc<Generation> {
        Arc::clone(&self.inner.current.read().expect("lifecycle generation"))
    }

    /// Number of live (non-removed) queries in the *edit* state — may run
    /// ahead of [`generation`](Self::generation) until the compiler
    /// catches up.
    pub fn live_queries(&self) -> usize {
        self.inner.state.lock().expect("lifecycle state").live()
    }

    /// External ids allocated so far (live + tombstoned).
    pub fn id_width(&self) -> u32 {
        self.inner.state.lock().expect("lifecycle state").slots.len() as u32
    }

    /// Block until every enqueued edit has been compiled and published,
    /// then return the settled generation. If the latest recompile failed
    /// (the previous generation kept serving), the stored error is taken
    /// and returned instead. Never called on the document hot path — this
    /// is for control-plane callers (and tests) that need the
    /// edit-visible point.
    pub fn settle(&self) -> Result<Arc<Generation>, CoreError> {
        let mut st = self.inner.state.lock().expect("lifecycle state");
        while st.dirty || st.compiling {
            st = self.inner.signal.wait(st).expect("lifecycle state");
        }
        if let Some(e) = st.last_error.take() {
            return Err(e);
        }
        drop(st);
        Ok(self.generation())
    }

    /// Batch entry through the pool, resolving the
    /// generation **once per document**: per-document `(sink, verdict,
    /// stats)` in input order, verdicts in stable external ids.
    ///
    /// A generation published mid-batch applies to documents that *start*
    /// after it; documents already running finish byte-identically on the
    /// generation they resolved (each task holds its generation's `Arc`).
    /// Workers keep their matcher caches warm while their generation is
    /// unchanged and re-mint on the first document after a swap. Error
    /// semantics are the pool's: first failure cancels, [`BatchError`]
    /// names the input.
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
                |_| None::<(Arc<Generation>, Prefilter)>,
                |cache, (src, sink)| {
                    let generation = self.generation();
                    if cache.as_ref().is_none_or(|(g, _)| g.gen_no != generation.gen_no) {
                        let worker = generation.frozen().worker();
                        *cache = Some((generation, worker));
                    }
                    let (generation, pf) = cache.as_mut().expect("cache just primed");
                    let (out, verdict, stats) = pf.run_multi(src, sink)?;
                    Ok((out, generation.remap_verdict(&verdict), stats))
                },
            )
            .map_err(|(index, error)| BatchError { index, error })
    }
}

impl Drop for SharedPrefilter {
    fn drop(&mut self) {
        if let Some(handle) = self.compiler.take() {
            self.inner.state.lock().expect("lifecycle state").shutdown = true;
            self.inner.signal.notify_all();
            let _ = handle.join();
        }
    }
}

/// The compiler thread: sleep until edits arrive, snapshot the live set,
/// compile **off-lock** (documents keep resolving the old generation the
/// whole time), publish, wake `settle` waiters. Edits arriving during a
/// compile re-mark `dirty` and trigger the next round — a burst of edits
/// costs one or two recompiles, not one each.
fn compiler_loop(inner: &Inner) {
    let mut st = inner.state.lock().expect("lifecycle state");
    loop {
        if st.shutdown {
            return;
        }
        if !st.dirty {
            st = inner.signal.wait(st).expect("lifecycle state");
            continue;
        }
        st.dirty = false;
        st.compiling = true;
        let burst = std::mem::take(&mut st.pending_edits) as u64;
        let id_width = st.slots.len() as u32;
        let mut extern_of = Vec::new();
        let mut sets = Vec::new();
        for (i, slot) in st.slots.iter().enumerate() {
            if let Some(paths) = slot {
                extern_of.push(QueryId(i as u32));
                sets.push(paths.clone());
            }
        }
        // Read under the state lock, which `with_mode` republishes under.
        let mode = inner.current.read().expect("lifecycle generation").frozen.mode();
        drop(st);
        crate::obs::add(crate::obs::CounterId::LifecycleBurstEdits, burst);
        crate::obs::observe(crate::obs::HistId::LifecycleBurstSize, burst);
        // The expensive part — no lock held, the hot path is untouched.
        let t0 = crate::obs::enabled().then(std::time::Instant::now);
        let compiled =
            Prefilter::compile_multi(&inner.dtd, &sets).map(|pf| pf.with_mode(mode).freeze());
        if let Some(t0) = t0 {
            let nanos = t0.elapsed().as_nanos();
            crate::obs::add_nanos(crate::obs::CounterId::LifecycleCompileNanos, nanos);
            crate::obs::observe(
                crate::obs::HistId::LifecycleCompileLatency,
                nanos.min(u64::MAX as u128) as u64,
            );
        }
        crate::obs::add(crate::obs::CounterId::LifecycleCompiles, 1);
        st = inner.state.lock().expect("lifecycle state");
        match compiled {
            Ok(frozen) => {
                let gen_no = st.next_gen;
                st.next_gen += 1;
                let generation = Arc::new(Generation { gen_no, frozen, extern_of, id_width });
                let swap_span = crate::obs::stage(crate::obs::StageId::Swap);
                *inner.current.write().expect("lifecycle generation") = generation;
                drop(swap_span);
                crate::obs::gauge_set(crate::obs::GaugeId::LifecycleGeneration, gen_no);
                st.last_error = None;
            }
            // Defense in depth: adds are validated up front, so a failing
            // workload recompile is unexpected — keep serving the old
            // generation and surface the error on the next settle().
            Err(e) => {
                crate::obs::add(crate::obs::CounterId::LifecycleFailedPublishes, 1);
                st.last_error = Some(e);
            }
        }
        st.compiling = false;
        inner.signal.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::QueryRegistry;

    const EX2: &[u8] =
        br#"<!DOCTYPE a [ <!ELEMENT a (b|c)*> <!ELEMENT b (#PCDATA)> <!ELEMENT c (b,b?)> ]>"#;

    fn shared() -> SharedPrefilter {
        let mut reg = QueryRegistry::new(Dtd::parse(EX2).unwrap());
        reg.add_query("/a/b").unwrap();
        reg.add_query("//c").unwrap();
        reg.compile_shared().unwrap()
    }

    #[test]
    fn starts_at_generation_zero_with_registered_ids() {
        let s = shared();
        let g = s.generation();
        assert_eq!(g.gen_no(), 0);
        assert_eq!(g.live_queries(), 2);
        assert_eq!(g.id_width(), 2);
        assert_eq!(g.external_id(QueryId(1)), Some(QueryId(1)));
        let (_, v, _) =
            g.run_multi(crate::SliceSource::new(b"<a><b>x</b></a>"), Vec::new()).unwrap();
        assert!(v.is_matched(QueryId(0)));
        assert!(!v.is_matched(QueryId(1)));
    }

    #[test]
    fn add_publishes_a_new_generation_and_keeps_old_ids() {
        let s = shared();
        let id = s.add_query("/a/c/b").unwrap();
        assert_eq!(id, QueryId(2));
        let g = s.settle().unwrap();
        assert!(g.gen_no() >= 1);
        assert_eq!((g.live_queries(), g.id_width()), (3, 3));
        let (_, v, _) =
            g.run_multi(crate::SliceSource::new(b"<a><c><b>y</b></c></a>"), Vec::new()).unwrap();
        assert!(v.is_matched(QueryId(1)), "//c still attributed");
        assert!(v.is_matched(id), "new query attributed");
        assert!(!v.is_matched(QueryId(0)), "/a/b unmatched under c");
    }

    #[test]
    fn removed_id_reports_unmatched_and_stays_tombstoned() {
        let s = shared();
        s.remove_query(QueryId(0)).unwrap();
        let g = s.settle().unwrap();
        assert_eq!((g.live_queries(), g.id_width()), (1, 2));
        let (_, v, _) =
            g.run_multi(crate::SliceSource::new(b"<a><b>x</b></a>"), Vec::new()).unwrap();
        assert_eq!(v.n_queries, 2, "verdict width covers tombstoned ids");
        assert!(!v.is_matched(QueryId(0)), "removed id reports unmatched");
        // The id is not reused by the next add.
        assert_eq!(s.add_query("/a/b").unwrap(), QueryId(2));
        let err = s.remove_query(QueryId(0)).unwrap_err();
        assert!(err.to_string().contains("already removed"), "got {err}");
    }

    #[test]
    fn edit_rejections_name_the_reason() {
        let s = shared();
        let err = s.remove_query(QueryId(9)).unwrap_err();
        assert!(err.to_string().contains("never registered"), "got {err}");
        s.remove_query(QueryId(1)).unwrap();
        let err = s.remove_query(QueryId(0)).unwrap_err();
        assert!(err.to_string().contains("last live query"), "got {err}");
        // Malformed XPath: rejected at add time, registry untouched.
        // (Unknown elements are *not* an error — as in single-query
        // compiles they yield a vacuously never-matching automaton.)
        assert!(matches!(s.add_query("/a["), Err(CoreError::Query(_))));
        assert_eq!(s.id_width(), 2);
        assert_eq!(s.settle().unwrap().live_queries(), 1);
    }

    #[test]
    fn empty_initial_set_is_refused() {
        let dtd = Dtd::parse(EX2).unwrap();
        assert!(matches!(SharedPrefilter::new(dtd, Vec::new()), Err(CoreError::NoPaths)));
    }

    #[test]
    fn burst_of_edits_coalesces_and_settles_once() {
        let s = shared();
        for _ in 0..8 {
            s.add_query("/a/c/b").unwrap();
        }
        s.remove_query(QueryId(0)).unwrap();
        let g = s.settle().unwrap();
        assert_eq!((g.live_queries(), g.id_width() as usize), (9, 10));
        // Far fewer generations than edits: the compiler drains bursts.
        assert!(g.gen_no() <= 9, "gen {} for 9 edits", g.gen_no());
    }
}
