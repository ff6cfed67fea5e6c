//! The SMP runtime algorithm (paper Fig. 4).
//!
//! ```text
//! q := q0; c := 0;
//! while c ≤ end-of-file and q is not final do
//!     c := c + J[q];                        // initial jump offset
//!     search for the closest token in V[q]  // BM or CW
//!     shift c right until '>' or '/>'       // (†) prefix-tag check here
//!     q := A[q, token]; perform T[q];       // bachelor tags: open + close
//! ```
//!
//! The only addition over the paper's pseudocode is the explicit
//! *verification* step around keyword hits: a match `<name` is a real tag
//! only if the next byte ends the tag name (`>`, `/` or whitespace) — this
//! is the paper's `Abstract` vs `AbstractText` special case (†). On a
//! false hit the runtime re-checks the remaining keywords at the same
//! position (prefix keywords may overlap) and otherwise resumes the scan
//! one byte further.

mod matchers;
pub mod parallel;
pub mod source;

use crate::compile::{compile, compile_multi, Action, CompiledTables, Entry, TokenRow, NO_CLOSE};
use crate::error::CoreError;
use crate::idset::QueryIdSet;
use crate::stats::{MultiVerdict, RunStats};
use matchers::StateMatcher;
use smpx_dtd::Dtd;
use smpx_paths::PathSet;
use smpx_stringmatch::memscan::{self, Fingerprint, ScanMode};
use smpx_stringmatch::{Counters, Metrics};
use source::{DocSource, ReaderSource, SliceSource, SourceInput};
use std::io::{Read, Write};
use std::sync::Arc;

/// Default streaming chunk: eight times a 4 KiB page, as in the paper's
/// prototype ("a pre-allocated buffer … in fixed-size chunks, which we set
/// to eight times the system page size", Sec. V).
pub const DEFAULT_CHUNK: usize = 8 * 4096;

/// The release step: no loop of the runtime crosses more than this many
/// bytes without raising the discard guard — a keyword search, the
/// balanced scan's too, is cut at absolute multiples of it ([`source`]) — and
/// a mapped source hands the pages behind the guard back once this many
/// have accumulated ([`MmapSource`](source::MmapSource)). A power of two;
/// 32 streaming chunks, so the `madvise` calls of a mapped run cost less
/// than the one `munmap` of the whole document did.
pub const RELEASE_STEP: usize = 32 * DEFAULT_CHUNK;

/// A compiled, reusable XML prefilter.
///
/// The compiled tables are held behind an [`Arc`] and are immutable after
/// construction; only the lazily built matcher caches are per-instance
/// mutable state. [`freeze`](Self::freeze) hands the shared tables to the
/// [`parallel`] executor, where every worker owns its own caches.
///
/// How it searches is its [`ScanMode`], fixed when it is built
/// ([`ScanMode::from_env`]; [`with_mode`](Self::with_mode)) and inherited
/// by everything built from it: frozen handles and their workers,
/// registry and lifecycle generations.
pub struct Prefilter {
    tables: Arc<CompiledTables>,
    /// The walk on one kernel tier, or the specification.
    mode: ScanMode,
    /// Lazily filled matcher of every state: built once per vocabulary
    /// (in the slot of its first state, [`CompiledTables::vocab`]) and
    /// shared by the other states that search for the same keywords.
    matchers: Vec<Option<StateMatcher>>,
    /// Lazily built `{<e, </e}` searchers for the balanced scan of
    /// recursive-element states, indexed like `matchers`.
    balanced_matchers: Vec<Option<StateMatcher>>,
    matchers_built: usize,
    /// Per-run scratch: ids of the queries attributed so far (registry
    /// runs only; reset per document).
    hits: QueryIdSet,
    /// Per-run scratch: one bit per state, set once the run has ORed the
    /// state's id-set into `hits` — the union is idempotent, so a state
    /// entered again has nothing to add (reset per document; only
    /// registry runs set bits).
    entered: Vec<u64>,
    /// Per-run scratch: nesting depth of active copy-on instances. A
    /// single-query run only moves it between 0 and 1; the forced hit
    /// states of a registry automaton let copy-on regions nest deeper.
    copy_depth: usize,
    /// [`RELEASE_STEP`], but for [`with_release_step`](Self::with_release_step).
    step: usize,
}

impl Prefilter {
    /// Run the static analysis and wrap the tables in a runtime.
    pub fn compile(dtd: &Dtd, paths: &PathSet) -> Result<Prefilter, CoreError> {
        let _span = crate::obs::stage(crate::obs::StageId::Compile);
        Ok(Prefilter::from_tables(compile(dtd, paths)?))
    }

    /// Compile a whole query workload — one path set per query — into a
    /// single shared automaton whose runs additionally answer *which*
    /// queries might match each document ([`run_multi`](Self::run_multi)).
    /// The projection it emits is the union projection of the workload;
    /// the higher-level registry front door is
    /// [`QueryRegistry`](crate::QueryRegistry).
    pub fn compile_multi(dtd: &Dtd, queries: &[PathSet]) -> Result<Prefilter, CoreError> {
        let _span = crate::obs::stage(crate::obs::StageId::Compile);
        Ok(Prefilter::from_tables(compile_multi(dtd, queries)?))
    }

    /// Wrap precompiled tables, in the default mode.
    pub fn from_tables(tables: CompiledTables) -> Prefilter {
        Prefilter::from_shared(Arc::new(tables), ScanMode::from_env())
    }

    /// Wrap tables already shared with other prefilter instances (the
    /// [`parallel::FrozenPrefilter`] worker path): the automaton and the
    /// mode are common, the matcher caches are this instance's own.
    pub(crate) fn from_shared(tables: Arc<CompiledTables>, mode: ScanMode) -> Prefilter {
        let n = tables.states.len();
        Prefilter {
            tables,
            mode,
            matchers: vec![None; n],
            balanced_matchers: vec![None; n],
            matchers_built: 0,
            hits: QueryIdSet::new(),
            entered: vec![0; n.div_ceil(64)],
            copy_depth: 0,
            step: RELEASE_STEP,
        }
    }

    /// Cut searches at absolute multiples of `step` (a power of two)
    /// instead of [`RELEASE_STEP`]: what the step-boundary and residency
    /// tests shrink to one page, paired with
    /// [`MmapSource::map_with_step`](source::MmapSource::map_with_step).
    /// Not a tuning knob — production runs take the constant.
    #[doc(hidden)]
    pub fn with_release_step(mut self, step: usize) -> Prefilter {
        assert!(step.is_power_of_two(), "the release step is a power of two");
        self.step = step;
        self
    }

    /// Search in `mode` from now on — the walk on another kernel tier, or
    /// the specification, whose counters are the paper's accounting —
    /// dropping the matchers built so far. A run in a kind this CPU does
    /// not run panics ([`memscan::Blocks::with_kind`]).
    pub fn with_mode(self, mode: ScanMode) -> Prefilter {
        Prefilter { step: self.step, ..Prefilter::from_shared(self.tables, mode) }
    }

    /// How this prefilter searches.
    pub fn mode(&self) -> ScanMode {
        self.mode
    }

    /// Share the compiled automaton immutably for parallel execution.
    ///
    /// The frozen handle can mint any number of worker prefilters, each
    /// with its own (lazily warmed) matcher caches and scratch state, all
    /// reading the same tables and searching in this prefilter's mode —
    /// see [`parallel`].
    pub fn freeze(&self) -> parallel::FrozenPrefilter {
        parallel::FrozenPrefilter::new(self.tables.clone(), self.mode)
    }

    /// Prefilter many documents concurrently through `threads` workers
    /// sharing this compiled automaton, returning each document's
    /// `(sink, stats)` pair **in input order** regardless of completion
    /// order. `threads == 0` uses the machine's available parallelism.
    /// Shorthand for [`freeze`](Self::freeze) +
    /// [`FrozenPrefilter::run_batch_parallel`]
    /// (`parallel::FrozenPrefilter::run_batch_parallel`), which documents
    /// the execution and error semantics.
    pub fn run_batch_parallel<S, W, I>(
        &self,
        batch: I,
        threads: usize,
    ) -> Result<Vec<(W, RunStats)>, parallel::BatchError>
    where
        S: DocSource + Send,
        W: Write + Send,
        I: IntoIterator<Item = (S, W)>,
    {
        self.freeze().run_batch_parallel(batch, threads)
    }

    /// Multi-query batch: like
    /// [`run_batch_parallel`](Self::run_batch_parallel), with each
    /// document's per-query [`MultiVerdict`] alongside its sink and
    /// stats, in input order. Shorthand for [`freeze`](Self::freeze) +
    /// [`FrozenPrefilter::run_multi_batch_parallel`]
    /// (`parallel::FrozenPrefilter::run_multi_batch_parallel`).
    pub fn run_multi_batch_parallel<S, W, I>(
        &self,
        batch: I,
        threads: usize,
    ) -> Result<Vec<(W, MultiVerdict, RunStats)>, parallel::BatchError>
    where
        S: DocSource + Send,
        W: Write + Send,
        I: IntoIterator<Item = (S, W)>,
    {
        self.freeze().run_multi_batch_parallel(batch, threads)
    }

    /// One sequential Fig. 4 run over `src`: the same run as
    /// [`filter_source`](Self::filter_source), returning the writer too.
    /// `threads` and `shard_bytes` are ignored: a document is never split
    /// across the pool. Kept only because the benchmark harness calls it;
    /// it goes with the harness's sharded library route.
    pub fn run_sharded<S: DocSource, W: Write>(
        &mut self,
        src: S,
        writer: W,
        _threads: usize,
        _shard_bytes: usize,
    ) -> Result<(W, RunStats), CoreError> {
        self.filter_one(src, writer)
    }

    /// The compiled tables.
    pub fn tables(&self) -> &CompiledTables {
        &self.tables
    }

    /// Build every matcher now instead of lazily (ablation switch): one
    /// per distinct vocabulary.
    pub fn precompile_matchers(&mut self) {
        for q in 0..self.tables.states.len() as u32 {
            self.matcher(q);
        }
    }

    /// Matchers built so far: one per distinct vocabulary searched.
    #[doc(hidden)]
    pub fn matchers_built(&self) -> usize {
        self.matchers_built
    }

    /// What the candidate filter of state `q`'s walk decides — the same
    /// in both scan modes, whichever matcher the run builds (`None`: the
    /// state searches nothing).
    #[doc(hidden)]
    pub fn filter_choice(&self, q: u32) -> Option<smpx_stringmatch::FilterChoice> {
        let (keywords, universe) =
            (&self.tables.states[q as usize].keywords, &self.tables.universe);
        (!keywords.is_empty())
            .then(|| Fingerprint::with_universe(keywords, universe).choice(keywords, universe))
    }

    /// Approximate heap bytes of tables plus all matchers built so far
    /// (the paper's `Mem` column, minus the I/O window).
    pub fn memory_bytes(&self) -> usize {
        // A shared matcher counts once, in its vocabulary's slot.
        let own = (0..self.matchers.len()).filter(|&q| self.tables.vocab(q as u32) as usize == q);
        self.tables.table_bytes()
            + own
                .filter_map(|q| self.matchers[q].as_ref())
                .map(StateMatcher::memory_bytes)
                .sum::<usize>()
    }

    /// Prefilter an in-memory document, returning the projected bytes and
    /// the run statistics.
    pub fn filter_to_vec(&mut self, doc: &[u8]) -> Result<(Vec<u8>, RunStats), CoreError> {
        self.filter_one(SliceSource::new(doc), Vec::new())
    }

    /// One multi-query pass: prefilter the document into `writer` (the
    /// union projection) and report the per-document verdict — which of
    /// the registered queries might match. On a single-query automaton
    /// the verdict is over one query, served by the `match_events`
    /// counter.
    pub fn run_multi<S: DocSource, W: Write>(
        &mut self,
        src: S,
        writer: W,
    ) -> Result<(W, MultiVerdict, RunStats), CoreError> {
        let (out, stats) = self.filter_one(src, writer)?;
        Ok((out, self.take_verdict(&stats), stats))
    }

    /// The verdict of the run that produced `stats`, consuming the hit
    /// accumulator. For single-query tables (no attribution) the one
    /// query's id is 0 and its verdict is `match_events > 0`.
    pub(crate) fn take_verdict(&mut self, stats: &RunStats) -> MultiVerdict {
        match self.tables.attribution.as_ref() {
            Some(att) => {
                MultiVerdict { matched: std::mem::take(&mut self.hits), n_queries: att.n_queries }
            }
            None => {
                let mut matched = QueryIdSet::new();
                if stats.match_events > 0 {
                    matched.insert(crate::idset::QueryId(0));
                }
                MultiVerdict { matched, n_queries: 1 }
            }
        }
    }

    /// Prefilter a stream in a single pass with a bounded window.
    pub fn filter_stream<R: Read, W: Write>(
        &mut self,
        reader: R,
        writer: W,
        chunk: usize,
    ) -> Result<RunStats, CoreError> {
        self.filter_source(ReaderSource::new(reader, chunk), writer)
    }

    /// Prefilter one document delivered by any [`DocSource`] backend into
    /// `writer` — the general entry point [`filter_to_vec`] and
    /// [`filter_stream`] are shorthands for.
    ///
    /// [`filter_to_vec`]: Self::filter_to_vec
    /// [`filter_stream`]: Self::filter_stream
    pub fn filter_source<S: DocSource, W: Write>(
        &mut self,
        src: S,
        writer: W,
    ) -> Result<RunStats, CoreError> {
        let (_, stats) = self.filter_one(src, writer)?;
        Ok(stats)
    }

    /// Prefilter many documents through this one compiled automaton,
    /// returning each document's (sink, stats) pair in input order.
    ///
    /// The per-state matchers are built lazily on the first document and
    /// reused for every following one — batching over one `Prefilter`
    /// amortizes the whole static analysis and matcher construction
    /// across the corpus, where a per-document
    /// [`compile`](Self::compile) would pay both every time. Processing
    /// stops at the first document that fails.
    pub fn run_batch<S, W, I>(&mut self, batch: I) -> Result<Vec<(W, RunStats)>, CoreError>
    where
        S: DocSource,
        W: Write,
        I: IntoIterator<Item = (S, W)>,
    {
        let mut results = Vec::new();
        for (src, writer) in batch {
            results.push(self.filter_one(src, writer)?);
        }
        Ok(results)
    }

    /// One full Fig. 4 run over `src`, wiring the counters into the
    /// returned stats.
    fn filter_one<S: DocSource, W: Write>(
        &mut self,
        src: S,
        writer: W,
    ) -> Result<(W, RunStats), CoreError> {
        let span = crate::obs::stage(crate::obs::StageId::Scan);
        let mut counters = Counters::default();
        let mut stats =
            RunStats { input_bytes: src.len_hint().unwrap_or(0), ..RunStats::default() };
        self.hits.clear();
        self.entered.fill(0);
        self.copy_depth = 0;
        let mut input = SourceInput::with_step(src, writer, self.step, self.mode.blocks());
        self.run(&mut input, &mut counters, &mut stats)?;
        stats.chars_compared += counters.comparisons;
        stats.bytes_scanned = counters.scanned;
        stats.shifts = counters.shifts;
        stats.shift_total = counters.shift_total;
        stats.output_bytes = input.emitted();
        let (src, out, _) = input.finish()?;
        stats.io_window_bytes = src.peak_io_bytes() as u64;
        drop(span);
        crate::obs::record_run(&stats);
        Ok((out, stats))
    }

    #[inline]
    fn matcher(&mut self, q: u32) -> &StateMatcher {
        if self.matchers[q as usize].is_none() {
            self.fill_matcher(q);
        }
        self.matchers[q as usize].as_ref().expect("just built")
    }

    /// Fill state `q`'s slot with its vocabulary's matcher, building that
    /// once per vocabulary and worker: out of the token step's way (a
    /// searcher under construction holds its shift tables on the stack).
    #[cold]
    #[inline(never)]
    fn fill_matcher(&mut self, q: u32) {
        let v = self.tables.vocab(q) as usize;
        if self.matchers[v].is_none() {
            let tables = &self.tables;
            self.matchers[v] =
                Some(StateMatcher::build(&tables.states[v].keywords, &tables.universe, self.mode));
            self.matchers_built += 1;
        }
        self.matchers[q as usize] = self.matchers[v].clone();
    }

    /// The Fig. 4 loop, from the paper's `q := q0; c := 0`.
    fn run<S: DocSource, W: Write, M: Metrics>(
        &mut self,
        input: &mut SourceInput<S, W>,
        m: &mut M,
        stats: &mut RunStats,
    ) -> Result<(), CoreError> {
        let tables = self.tables.clone();
        let lookback = tables.max_kw_len + 8;
        let mut q: u32 = 0;
        let mut cursor: usize = 0;
        loop {
            let rows = tables.rows(q);
            if rows.is_empty() {
                break; // final state: nothing further to scan for
            }
            // Initial jump offset J[q].
            let jump = tables.jump(q) as usize;
            if jump > 0 {
                cursor += jump;
                stats.initial_jump_chars += jump as u64;
            }
            // Search for the closest verified token of V[q].
            let Some((kw_idx, start)) = self.find_token(q, rows, input, cursor, m, stats)? else {
                break; // input exhausted: remaining tokens are irrelevant
            };
            let row = &rows[kw_idx];
            // Scan right for the end of the tag.
            let (end, bachelor) = scan_tag_end(self.mode, input, start + row.len as usize, m)?;
            stats.tokens_matched += 1;

            if bachelor && !row.close {
                // Bachelor tag: perform the opening and the closing
                // transition one after the other (paper Fig. 4).
                let close_target = close_target(&tables, row, start)?;
                self.enter(row.target, &row.on, stats);
                self.enter(close_target, &row.on_close, stats);
                let (open, close) = ((row.target, row.on.action), row.on_close.action);
                self.apply_bachelor(input, open, close, start, end)?;
                q = close_target;
                cursor = end;
            } else if !row.close && row.on.balanced {
                (q, cursor) = self.cross_opaque(&tables, row, input, start, end, m, stats)?;
            } else {
                self.enter(row.target, &row.on, stats);
                self.apply_action(input, (row.target, row.on.action), start, end)?;
                q = row.target;
                cursor = end;
            }
            input.advance(cursor.saturating_sub(lookback))?;
        }
        if input.copy_active() {
            return Err(CoreError::UnexpectedEof { context: "copying a subtree" });
        }
        Ok(())
    }

    /// Recursion extension: the open tag `[start, end)` of `row` enters an
    /// opaque (recursive-element) state. Fire it, cross the subtree with a
    /// balanced depth-counting scan for `<e` / `</e`, fire the close tag it
    /// ends at, and return the state and cursor past it. Out of line: the
    /// token step of every other token does not carry it.
    #[allow(clippy::too_many_arguments)]
    #[inline(never)]
    fn cross_opaque<S: DocSource, W: Write, M: Metrics>(
        &mut self,
        tables: &CompiledTables,
        row: &TokenRow,
        input: &mut SourceInput<S, W>,
        start: usize,
        end: usize,
        m: &mut M,
        stats: &mut RunStats,
    ) -> Result<(u32, usize), CoreError> {
        self.enter(row.target, &row.on, stats);
        self.apply_action(input, (row.target, row.on.action), start, end)?;
        let (close_start, close_end) = self.balanced_scan(row.target, input, end, m, stats)?;
        let close_target = close_target(tables, row, close_start)?;
        self.enter(close_target, &row.on_close, stats);
        self.apply_action(input, (close_target, row.on_close.action), close_start, close_end)?;
        Ok((close_target, close_end))
    }

    /// Account one state entry, right where a verified token fires its
    /// transition: count the match event if the state's action indicates
    /// one, and for a registry automaton OR the state's query-id set into
    /// the run's hit accumulator — the first time the run enters the
    /// state; later entries have nothing to add. Single-query tables
    /// attribute nothing, so their runs pay one branch here.
    #[inline]
    fn enter(&mut self, state: u32, e: &Entry, stats: &mut RunStats) {
        stats.match_events += e.event as u64;
        if e.attributed && self.entered[state as usize / 64] & (1 << (state % 64)) == 0 {
            self.attribute(state);
        }
    }

    /// The run enters attributed state `state` for the first time: OR its
    /// query-id set into the verdict.
    #[cold]
    #[inline(never)]
    fn attribute(&mut self, state: u32) {
        self.entered[state as usize / 64] |= 1 << (state % 64);
        let att = self.tables.attribution.as_ref().expect("attributed rows are registry rows");
        self.hits.union_with(&att.state_hits[state as usize]);
    }

    /// Balanced depth-counting scan across an opaque (recursive-element)
    /// subtree: starting just past the opening tag (depth 1), find
    /// verified `<e` / `</e` tokens, counting depth up and down, until the
    /// matching close tag; returns its (start, end).
    ///
    /// One loop in both modes: the `{<e, </e}` matcher is built like every
    /// state's ([`StateMatcher::build`]) — the candidate walk, or
    /// Commentz–Walter in the specification — and searched through
    /// `SourceInput::find`, which cuts it at the release steps; the tag
    /// ends are [`scan_tag_end`]'s.
    fn balanced_scan<S: DocSource, W: Write, M: Metrics>(
        &mut self,
        open_state: u32,
        input: &mut SourceInput<S, W>,
        from: usize,
        m: &mut M,
        stats: &mut RunStats,
    ) -> Result<(usize, usize), CoreError> {
        let name: &str =
            &self.tables.states[open_state as usize].label.as_ref().expect("labeled state").0;
        let lookback = self.tables.max_kw_len.max(name.len() + 2) + 8;
        if self.balanced_matchers[open_state as usize].is_none() {
            let open_pat = format!("<{name}").into_bytes();
            let close_pat = format!("</{name}").into_bytes();
            self.balanced_matchers[open_state as usize] =
                Some(StateMatcher::build(&[open_pat, close_pat], &self.tables.universe, self.mode));
        }
        let mut cursor = from;
        let mut depth = 1u32;
        loop {
            let hit = {
                let matcher =
                    self.balanced_matchers[open_state as usize].as_ref().expect("just built");
                input.find(matcher, cursor, m)?
            };
            let Some((kw, start)) = hit else {
                return Err(CoreError::UnexpectedEof {
                    context: "balanced scan for a recursive element",
                });
            };
            let plen = if kw == 0 { name.len() + 1 } else { name.len() + 2 };
            m.cmp(1);
            match input.byte(start + plen)? {
                Some(c) if is_tag_name_end(c) => {
                    let (end, bachelor) = scan_tag_end(self.mode, input, start + plen, m)?;
                    stats.tokens_matched += 1;
                    if kw == 1 {
                        depth -= 1;
                        if depth == 0 {
                            return Ok((start, end));
                        }
                    } else if !bachelor {
                        depth += 1;
                    }
                    cursor = end;
                }
                _ => {
                    stats.false_matches += 1;
                    cursor = start + 1;
                }
            }
            input.advance(cursor.saturating_sub(lookback))?;
        }
    }

    /// Search from `from` for the closest keyword occurrence that is a real
    /// tag token (boundary-verified); handles prefix-keyword overlaps.
    fn find_token<S: DocSource, W: Write, M: Metrics>(
        &mut self,
        q: u32,
        rows: &[TokenRow],
        input: &mut SourceInput<S, W>,
        from: usize,
        m: &mut M,
        stats: &mut RunStats,
    ) -> Result<Option<(usize, usize)>, CoreError> {
        let mut from = from;
        loop {
            let hit = {
                let matcher = self.matcher(q);
                // Split borrow: matcher borrows self.matchers, input is
                // independent.
                input.find(matcher, from, m)?
            };
            let Some((kw_idx, start)) = hit else {
                return Ok(None);
            };
            let kw_len = rows[kw_idx].len as usize;
            m.cmp(1);
            match input.byte(start + kw_len)? {
                Some(c) if is_tag_name_end(c) => return Ok(Some((kw_idx, start))),
                _ => {
                    stats.false_matches += 1;
                    // Another (longer) keyword may still match here, e.g.
                    // "<AbstractText" when "<Abstract" just failed.
                    if let Some(other) = self.keyword_at(q, input, start, kw_idx, m)? {
                        return Ok(Some((other, start)));
                    }
                    from = start + 1;
                }
            }
        }
    }

    /// Check the remaining keywords of `V[q]` directly at `start` (longest
    /// first), with boundary verification. After a false match only.
    #[cold]
    #[inline(never)]
    fn keyword_at<S: DocSource, W: Write, M: Metrics>(
        &self,
        q: u32,
        input: &mut SourceInput<S, W>,
        start: usize,
        except: usize,
        m: &mut M,
    ) -> Result<Option<usize>, CoreError> {
        let kws = &self.tables.states[q as usize].keywords;
        let matcher = self.matchers[q as usize].as_ref().expect("built by the search");
        for &i in matcher.longest_first() {
            let i = i as usize;
            if i != except && input.matches_at(start, &kws[i].bytes, m)? {
                m.cmp(1);
                if let Some(c) = input.byte(start + kws[i].bytes.len())? {
                    if is_tag_name_end(c) {
                        return Ok(Some(i));
                    }
                }
            }
        }
        Ok(None)
    }

    /// Execute `T[target]` for a non-bachelor token spanning `[start, end)`;
    /// `target` is the entered state and its action.
    ///
    /// In a registry automaton copy-on instances can nest: the multi-query
    /// selection keeps one query's hit states alive inside another query's
    /// raw-copied instance, so an inner `copy on`/`copy off` pair can fire
    /// while a copy range is already active. The nesting depth makes those
    /// inner pairs output-neutral — only the 0→1 edge opens the range and
    /// only the 1→0 edge flushes it, which is exactly what the single-query
    /// union automaton (with the interior pruned) emits. A single-query
    /// automaton never nests, so its depth only moves between 0 and 1.
    fn apply_action<S: DocSource, W: Write>(
        &mut self,
        input: &mut SourceInput<S, W>,
        (target, action): (u32, Action),
        start: usize,
        end: usize,
    ) -> Result<(), CoreError> {
        // Inside an active copy range every byte is already covered by the
        // raw copy; only the copy-off that closes it has work to do.
        if self.copy_depth > 0 {
            match action {
                Action::CopyOn => {
                    self.copy_depth += 1;
                    debug_assert!(
                        self.copy_depth <= 1 || self.tables.attribution.is_some(),
                        "a single-query automaton nested copy-on instances"
                    );
                }
                Action::CopyOff => {
                    self.copy_depth -= 1;
                    if self.copy_depth == 0 {
                        input.copy_off(end)?;
                    }
                }
                Action::Nop | Action::CopyTag { .. } => {}
            }
            return Ok(());
        }
        match action {
            Action::Nop => {}
            Action::CopyOn => {
                self.copy_depth = 1;
                input.copy_on(start);
            }
            Action::CopyOff => {
                // No active range (merged-state conservatism): fall back to
                // emitting the closing tag.
                input.emit_range(start, end)?;
            }
            Action::CopyTag { with_atts } => {
                if with_atts {
                    input.emit_range(start, end)?;
                } else {
                    input.emit_bytes(self.tables.bare_tag(target))?;
                }
            }
        }
        Ok(())
    }

    /// Execute the open + close actions of a bachelor tag `<name …/>`:
    /// the open state and its action, and the close state's action.
    fn apply_bachelor<S: DocSource, W: Write>(
        &mut self,
        input: &mut SourceInput<S, W>,
        (open_target, open_act): (u32, Action),
        close_act: Action,
        start: usize,
        end: usize,
    ) -> Result<(), CoreError> {
        if self.copy_depth > 0 {
            // Covered by the enclosing raw copy. A bachelor instance opens
            // and closes within one token, so its net depth change is zero;
            // the one depth-relevant case is a merged close-side `copy off`
            // that belongs to an *enclosing* instance (no paired `copy on`),
            // which steps the nesting down like a non-bachelor close does.
            if close_act == Action::CopyOff && open_act != Action::CopyOn {
                self.copy_depth -= 1;
                if self.copy_depth == 0 {
                    input.copy_off(end)?;
                }
            }
            return Ok(());
        }
        let raw = matches!(open_act, Action::CopyOn)
            || matches!(close_act, Action::CopyOff)
            || matches!(open_act, Action::CopyTag { with_atts: true });
        if raw {
            input.emit_range(start, end)?;
            return Ok(());
        }
        if matches!(open_act, Action::CopyTag { .. }) || matches!(close_act, Action::CopyTag { .. })
        {
            // `<name>` less its bracket, then the bachelor's `/>`.
            let open = self.tables.bare_tag(open_target);
            input.emit_bytes(&open[..open.len() - 1])?;
            input.emit_bytes(b"/>")?;
        }
        Ok(())
    }
}

/// The state a row's closing transition leads to when the runtime takes
/// it without searching — after a bachelor tag, or at the end of a
/// balanced scan at `pos`: the row's compile-time close target, or the
/// [`UnexpectedToken`](CoreError::UnexpectedToken) the target's vocabulary
/// makes of it.
#[inline]
fn close_target(tables: &CompiledTables, row: &TokenRow, pos: usize) -> Result<u32, CoreError> {
    match row.close_target {
        NO_CLOSE => Err(unexpected_close(tables, row.target, pos)),
        close => Ok(close),
    }
}

/// The [`UnexpectedToken`](CoreError::UnexpectedToken) of taking the close
/// transition of open state `open` at `pos`, whose vocabulary has none.
#[cold]
#[inline(never)]
fn unexpected_close(tables: &CompiledTables, open: u32, pos: usize) -> CoreError {
    let name = tables.states[open as usize].label.as_ref().expect("labeled state").0.clone();
    CoreError::UnexpectedToken { name, close: true, pos }
}

/// May `c` follow a tag name inside a tag?
#[inline]
fn is_tag_name_end(c: u8) -> bool {
    matches!(c, b'>' | b'/' | b' ' | b'\t' | b'\r' | b'\n')
}

/// Scan right from `pos` for the closing `>` of a tag, respecting quoted
/// attribute values (which may contain `>`). Returns (position one past
/// `>`, bachelor?).
///
/// Every byte the scan consumes is routed through [`Metrics::scanned`]
/// (never `cmp`), in the walk *and* the specification, so the paper's
/// `Char Comp.` column counts only genuine pattern comparisons and the
/// `Scan%` column owns the tag traversal — identically in both modes.
///
/// In the walk, the tag is read off the structural masks
/// ([`memscan::Blocks::tag_end`]) of the resident bytes, from the block the
/// search left cached (`SourceInput::tag_end_masked`); only a tag running
/// past the resident bytes goes on in the cold [`scan_tag_end_windowed`].
#[inline(always)]
fn scan_tag_end<S: DocSource, W: Write, M: Metrics>(
    mode: ScanMode,
    input: &mut SourceInput<S, W>,
    pos: usize,
    m: &mut M,
) -> Result<(usize, bool), CoreError> {
    if mode == ScanMode::Spec {
        return scan_tag_end_scalar(input, pos, m);
    }
    if let Some((end, bachelor)) = input.tag_end_masked(pos) {
        m.scanned((end - pos) as u64);
        return Ok((end, bachelor));
    }
    scan_tag_end_windowed(mode, input, pos, m)
}

/// The tag end of a tag running past the resident bytes: the same
/// block-mask walk ([`memscan::Blocks::tag_end_resumed`], on the kind of
/// the walk `mode`) over one `SourceInput::window` view after another, its
/// [`memscan::TagScan`] state carrying an open quote and the last byte
/// across each refill.
#[cold]
#[inline(never)]
fn scan_tag_end_windowed<S: DocSource, W: Write, M: Metrics>(
    mode: ScanMode,
    input: &mut SourceInput<S, W>,
    pos: usize,
    m: &mut M,
) -> Result<(usize, bool), CoreError> {
    let mut st = memscan::TagScan::new();
    let mut blocks = mode.blocks();
    let mut abs = pos;
    loop {
        let consumed = {
            let Some(win) = input.window(abs)? else {
                m.scanned((abs - pos) as u64);
                return Err(CoreError::UnexpectedEof {
                    context: if st.in_quote() {
                        "scanning a quoted attribute value"
                    } else {
                        "scanning for tag end"
                    },
                });
            };
            // Each window is a haystack of its own, starting at `abs`.
            blocks.rebase(abs);
            if let Some((rel_end, bachelor)) = blocks.tag_end_resumed(win, 0, &mut st) {
                let end = abs + rel_end;
                m.scanned((end - pos) as u64);
                return Ok((end, bachelor));
            }
            win.len()
        };
        abs += consumed;
    }
}

/// The classic per-byte tag-end loop: the specification the block-mask
/// walk is pinned against (tokenizer edge-case tests), and the
/// specification mode's runtime path.
fn scan_tag_end_scalar<S: DocSource, W: Write, M: Metrics>(
    input: &mut SourceInput<S, W>,
    pos: usize,
    m: &mut M,
) -> Result<(usize, bool), CoreError> {
    let mut i = pos;
    let mut prev = 0u8;
    loop {
        match input.byte(i)? {
            None => {
                m.scanned((i - pos) as u64);
                return Err(CoreError::UnexpectedEof { context: "scanning for tag end" });
            }
            Some(b'>') => {
                m.scanned((i + 1 - pos) as u64);
                return Ok((i + 1, prev == b'/'));
            }
            Some(q @ (b'"' | b'\'')) => {
                // Skip the quoted attribute value.
                i += 1;
                loop {
                    match input.byte(i)? {
                        None => {
                            m.scanned((i - pos) as u64);
                            return Err(CoreError::UnexpectedEof {
                                context: "scanning a quoted attribute value",
                            });
                        }
                        Some(c) if c == q => break,
                        Some(_) => i += 1,
                    }
                }
                prev = q;
                i += 1;
            }
            Some(c) => {
                prev = c;
                i += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const EX2: &[u8] =
        br#"<!DOCTYPE a [ <!ELEMENT a (b|c)*> <!ELEMENT b (#PCDATA)> <!ELEMENT c (b,b?)> ]>"#;

    fn pf(dtd: &[u8], paths: &[&str]) -> Prefilter {
        let dtd = Dtd::parse(dtd).unwrap();
        let paths = PathSet::parse(paths).unwrap();
        Prefilter::compile(&dtd, &paths).unwrap()
    }

    #[test]
    fn example2_end_to_end() {
        let mut p = pf(EX2, &["/*", "/a/b#"]);
        let doc = b"<a><c><b>x</b></c><b>keep</b><c><b>y</b><b>z</b></c></a>";
        let (out, stats) = p.filter_to_vec(doc).unwrap();
        assert_eq!(out, b"<a><b>keep</b></a>".to_vec());
        assert!(stats.tokens_matched >= 6);
        assert_eq!(stats.output_bytes, 18);
    }

    #[test]
    fn copy_on_off_preserves_subtrees_raw() {
        let mut p = pf(EX2, &["/*", "//c#"]);
        let doc = b"<a><b>drop</b><c><b>in c</b></c><b>drop2</b><c><b>q</b><b>r</b></c></a>";
        let (out, _) = p.filter_to_vec(doc).unwrap();
        assert_eq!(out, b"<a><c><b>in c</b></c><c><b>q</b><b>r</b></c></a>".to_vec());
    }

    #[test]
    fn attributes_and_whitespace_in_tags() {
        let mut p = pf(EX2, &["/*", "/a/b#"]);
        // The paper: "<t >" is valid; attributes may contain '>'.
        let doc = b"<a ><c><b>n</b></c><b  id=\"x>y\" >keep</b></a>";
        let (out, _) = p.filter_to_vec(doc).unwrap();
        assert_eq!(out, b"<a><b  id=\"x>y\" >keep</b></a>".to_vec());
    }

    #[test]
    fn bachelor_tags_fire_both_transitions() {
        let mut p = pf(EX2, &["/*", "/a/b#"]);
        let doc = b"<a><b/><c><b/></c><b>t</b></a>";
        let (out, _) = p.filter_to_vec(doc).unwrap();
        assert_eq!(out, b"<a><b/><b>t</b></a>".to_vec());
    }

    #[test]
    fn empty_document_root_only() {
        let mut p = pf(EX2, &["/*", "/a/b#"]);
        let (out, _) = p.filter_to_vec(b"<a></a>").unwrap();
        assert_eq!(out, b"<a></a>".to_vec());
        let (out, _) = p.filter_to_vec(b"<a/>").unwrap();
        assert_eq!(out, b"<a/>".to_vec());
    }

    #[test]
    fn prolog_is_skipped() {
        let mut p = pf(EX2, &["/*", "/a/b#"]);
        let doc = b"<?xml version=\"1.0\"?>\n<a><b>k</b></a>";
        let (out, _) = p.filter_to_vec(doc).unwrap();
        assert_eq!(out, b"<a><b>k</b></a>".to_vec());
    }

    #[test]
    fn stats_reflect_skipping() {
        let mut p = pf(EX2, &["/*", "/a/b#"]);
        // Long text inside b-subtrees is raw-copied without inspection
        // beyond the search; text in c-subtrees is skipped.
        let filler = "ccccccccccccccccccccccccccccccccccccccc";
        let doc = format!("<a><c><b>{filler}{filler}</b></c><b>k</b></a>");
        let (_, stats) = p.filter_to_vec(doc.as_bytes()).unwrap();
        assert!(stats.chars_compared < doc.len() as u64);
        assert!(stats.avg_shift() > 1.0);
    }

    #[test]
    fn stream_equals_slice_for_all_chunk_sizes() {
        let doc = b"<a><c><b>x</b><b>y</b></c><b id=\"1\">keep me</b><c><b>zz</b></c></a>";
        let mut p = pf(EX2, &["/*", "/a/b#"]);
        let (slice_out, _) = p.filter_to_vec(doc).unwrap();
        for chunk in [1usize, 2, 3, 5, 8, 16, 64, 4096] {
            let mut out = Vec::new();
            let stats = p.filter_stream(&doc[..], &mut out, chunk).unwrap();
            assert_eq!(out, slice_out, "chunk={chunk}");
            assert_eq!(stats.output_bytes as usize, slice_out.len());
        }
    }

    #[test]
    fn prefix_tagnames_disambiguated() {
        // Abstract vs AbstractText (the paper's Medline case).
        let dtd = br#"<!DOCTYPE r [
            <!ELEMENT r (AbstractText | Abstract)*>
            <!ELEMENT Abstract (#PCDATA)>
            <!ELEMENT AbstractText (#PCDATA)>
        ]>"#;
        let mut p = pf(dtd, &["/*", "/r/Abstract#"]);
        let doc = b"<r><AbstractText>no</AbstractText><Abstract>yes</Abstract></r>";
        let (out, stats) = p.filter_to_vec(doc).unwrap();
        assert_eq!(out, b"<r><Abstract>yes</Abstract></r>".to_vec());
        assert!(stats.false_matches > 0, "must have rejected <AbstractText");
    }

    #[test]
    fn prefix_tagnames_other_direction() {
        let dtd = br#"<!DOCTYPE r [
            <!ELEMENT r (AbstractText | Abstract)*>
            <!ELEMENT Abstract (#PCDATA)>
            <!ELEMENT AbstractText (#PCDATA)>
        ]>"#;
        let mut p = pf(dtd, &["/*", "/r/AbstractText#"]);
        let doc = b"<r><Abstract>no</Abstract><AbstractText>yes</AbstractText></r>";
        let (out, _) = p.filter_to_vec(doc).unwrap();
        assert_eq!(out, b"<r><AbstractText>yes</AbstractText></r>".to_vec());
    }

    #[test]
    fn keyword_inside_text_is_rejected() {
        // Text containing "<b"-lookalikes cannot occur in valid XML (must
        // be escaped), but "<brand" shares the "<b" prefix — the boundary
        // check must reject it.
        let dtd = br#"<!DOCTYPE a [
            <!ELEMENT a (brand | b)*>
            <!ELEMENT brand (#PCDATA)>
            <!ELEMENT b (#PCDATA)>
        ]>"#;
        let mut p = pf(dtd, &["/*", "/a/b#"]);
        let doc = b"<a><brand>n</brand><b>y</b></a>";
        let (out, _) = p.filter_to_vec(doc).unwrap();
        assert_eq!(out, b"<a><b>y</b></a>".to_vec());
    }

    #[test]
    fn initial_jumps_are_applied_and_safe() {
        // Example 3: inside c we jump 4 before scanning for </c>.
        let mut p = pf(EX2, &["/*", "/a/b#"]);
        let doc = b"<a><c><b>x</b></c><b>k</b></a>";
        let (out, stats) = p.filter_to_vec(doc).unwrap();
        assert_eq!(out, b"<a><b>k</b></a>".to_vec());
        assert!(stats.initial_jump_chars >= 4);
    }

    #[test]
    fn memory_accounting_grows_with_lazy_matchers() {
        let mut p = pf(EX2, &["/*", "/a/b#"]);
        let before = p.memory_bytes();
        let _ = p.filter_to_vec(b"<a><b>k</b></a>").unwrap();
        let after_run = p.memory_bytes();
        assert!(after_run > before, "lazy matchers must add memory");
        let mut q = pf(EX2, &["/*", "/a/b#"]);
        q.precompile_matchers();
        assert!(q.memory_bytes() >= after_run);
    }

    #[test]
    fn bachelor_without_a_close_keyword_is_an_unexpected_token() {
        // An `e` holds a `c` first: after `<e` the vocabulary has no `</e`,
        // so the row carries no close target, and the bachelor `<e/>`
        // (invalid against the DTD) is reported where it starts.
        let dtd = br#"<!DOCTYPE r [ <!ELEMENT r (e | x)*> <!ELEMENT e (c)> <!ELEMENT x (c)>
                      <!ELEMENT c (#PCDATA)> ]>"#;
        let mut p = pf(dtd, &["/*", "/r/e/c#"]);
        let rows = p.tables().rows(p.tables().rows(0)[0].target);
        let e_open = rows.iter().find(|r| !r.close && r.len == 2).expect("an <e keyword");
        assert_eq!(e_open.close_target, NO_CLOSE);
        match p.filter_to_vec(b"<r><x><c>n</c></x><e/></r>") {
            Err(CoreError::UnexpectedToken { name, close: true, pos: 18 }) => assert_eq!(name, "e"),
            other => panic!("expected an unexpected </e at 18, got {other:?}"),
        }
        let (out, _) = p.filter_to_vec(b"<r><x><c>n</c></x><e><c>y</c></e></r>").unwrap();
        assert_eq!(out, b"<r><e><c>y</c></e></r>".to_vec());
    }

    #[test]
    fn invalid_document_reports_unexpected_eof() {
        let mut p = pf(EX2, &["/*", "//b#"]);
        // Opening <b> without a closing tag: copy range never ends.
        let res = p.filter_to_vec(b"<a><b>never closed");
        assert!(matches!(res, Err(CoreError::UnexpectedEof { .. })));
    }

    /// Tokenizer edge cases: the windowed block-mask walk pinned against
    /// the scalar per-byte loop as the reference oracle, over whole slices
    /// and over streams split at every lane-relevant chunk size.
    mod tag_scan_oracle {
        use super::super::{scan_tag_end_scalar, scan_tag_end_windowed};
        use super::*;
        use crate::runtime::source::{ReaderSource, SliceSource, SourceInput};
        use smpx_stringmatch::Counters;

        /// The walk on the widest kind this CPU runs.
        fn walk() -> ScanMode {
            ScanMode::Walk(memscan::kind())
        }

        /// Scan documents that start mid-tag at `pos = 0`, exactly as the
        /// runtime scans from just past a keyword.
        const EDGE_TAGS: &[&str] = &[
            // Quoted '>' inside double- and single-quoted attribute values.
            " a=\"x>y\">after",
            " a='x>y'>after",
            " a=\"x>y\" b='p>q' c=\"r//>s\">t",
            // Quote character of the other kind inside a value.
            " a=\"it's>fine\">x",
            " a='she said \"go>\"'>x",
            // Comment- and CDATA-lookalike bytes inside the tag (the scan
            // has no comment syntax: the first unquoted '>' ends it).
            "!-- a > b </x -->after",
            "![CDATA[ x</y> ]]>after",
            // Bachelor corpus.
            "/>",
            " />",
            " a=\"1\"/>after",
            " a='1' />x",
            " //>x",
            // Not bachelors: '/' not directly before '>'.
            " a='/'>x",
            "/ >x",
            // Degenerate: '>' first, empty remainder after.
            ">",
            ">x",
        ];

        /// Unterminated inputs: both scans must report EOF.
        const EOF_TAGS: &[&str] =
            &[" a=\"never closed", " a='also open", " no gt at all", "", "/", " a=\"x>y\" trail"];

        fn windowed_on_slice(doc: &[u8]) -> (Result<(usize, bool), CoreError>, Counters) {
            let mut c = Counters::default();
            let mut input = SourceInput::new(SliceSource::new(doc), Vec::new());
            (scan_tag_end_windowed(walk(), &mut input, 0, &mut c), c)
        }

        fn scalar_on_slice(doc: &[u8]) -> (Result<(usize, bool), CoreError>, Counters) {
            let mut c = Counters::default();
            let mut input = SourceInput::new(SliceSource::new(doc), Vec::new());
            (scan_tag_end_scalar(&mut input, 0, &mut c), c)
        }

        #[test]
        fn windowed_matches_scalar_oracle_on_slices() {
            for tag in EDGE_TAGS {
                let (got, gc) = windowed_on_slice(tag.as_bytes());
                let (want, wc) = scalar_on_slice(tag.as_bytes());
                let got = got.unwrap_or_else(|e| panic!("windowed failed on {tag:?}: {e}"));
                let want = want.unwrap_or_else(|e| panic!("scalar failed on {tag:?}: {e}"));
                assert_eq!(got, want, "tag={tag:?}");
                // Both modes attribute exactly the consumed bytes to the
                // scan counter and none to Char Comp.
                assert_eq!(gc.scanned, got.0 as u64, "windowed scanned, tag={tag:?}");
                assert_eq!(wc.scanned, got.0 as u64, "scalar scanned, tag={tag:?}");
                assert_eq!(gc.comparisons, 0, "tag={tag:?}");
                assert_eq!(wc.comparisons, 0, "tag={tag:?}");
            }
        }

        #[test]
        fn windowed_matches_scalar_oracle_on_eof() {
            for tag in EOF_TAGS {
                let (got, gc) = windowed_on_slice(tag.as_bytes());
                let (want, wc) = scalar_on_slice(tag.as_bytes());
                assert!(
                    matches!(got, Err(CoreError::UnexpectedEof { .. })),
                    "windowed must EOF on {tag:?}"
                );
                assert!(
                    matches!(want, Err(CoreError::UnexpectedEof { .. })),
                    "scalar must EOF on {tag:?}"
                );
                // Both consumed the whole input as scan bytes.
                assert_eq!(gc.scanned, tag.len() as u64, "tag={tag:?}");
                assert_eq!(wc.scanned, tag.len() as u64, "tag={tag:?}");
            }
        }

        #[test]
        fn windowed_scan_is_chunk_size_independent() {
            // Lane-relevant chunk sizes: 1, 2, SWAR word ±1, SSE lane ±1,
            // AVX lane ±1, and a page-like chunk.
            let chunks = [1usize, 2, 7, 8, 9, 15, 16, 17, 31, 32, 33, 4096];
            for tag in EDGE_TAGS {
                let (want, wc) = scalar_on_slice(tag.as_bytes());
                let want = want.unwrap();
                for chunk in chunks {
                    let mut c = Counters::default();
                    let mut out = Vec::new();
                    let mut input =
                        SourceInput::new(ReaderSource::new(tag.as_bytes(), chunk), &mut out);
                    let got = scan_tag_end_windowed(walk(), &mut input, 0, &mut c)
                        .unwrap_or_else(|e| panic!("tag={tag:?} chunk={chunk}: {e}"));
                    assert_eq!(got, want, "tag={tag:?} chunk={chunk}");
                    assert_eq!(c.scanned, wc.scanned, "tag={tag:?} chunk={chunk}");
                    assert_eq!(c.comparisons, 0, "tag={tag:?} chunk={chunk}");
                }
            }
            for tag in EOF_TAGS {
                for chunk in chunks {
                    let mut c = Counters::default();
                    let mut out = Vec::new();
                    let mut input =
                        SourceInput::new(ReaderSource::new(tag.as_bytes(), chunk), &mut out);
                    let got = scan_tag_end_windowed(walk(), &mut input, 0, &mut c);
                    assert!(
                        matches!(got, Err(CoreError::UnexpectedEof { .. })),
                        "tag={tag:?} chunk={chunk}"
                    );
                    assert_eq!(c.scanned, tag.len() as u64, "tag={tag:?} chunk={chunk}");
                }
            }
        }

        #[test]
        fn scan_positions_mid_document() {
            // Non-zero `pos`: the scan starts after a keyword, offsets are
            // absolute.
            let doc = b"<a><b  id=\"x>y\" >keep</b></a>";
            for pos in [2usize, 6, 7] {
                let mut cw = Counters::default();
                let mut iw = SourceInput::new(SliceSource::new(doc), Vec::new());
                let got = scan_tag_end_windowed(walk(), &mut iw, pos, &mut cw).unwrap();
                let mut cs = Counters::default();
                let mut is = SourceInput::new(SliceSource::new(doc), Vec::new());
                let want = scan_tag_end_scalar(&mut is, pos, &mut cs).unwrap();
                assert_eq!(got, want, "pos={pos}");
                assert_eq!(cw.scanned, (got.0 - pos) as u64);
                assert_eq!(cs.scanned, (got.0 - pos) as u64);
            }
        }
    }
}
