//! Table/figure runners.
//!
//! Each `run_*` function regenerates one artifact of the paper's Sec. V
//! and prints rows in the same shape the paper reports. Absolute numbers
//! differ from a 2006 disk-bound laptop; the *relationships* (who wins, by
//! what rough factor, where the crossovers fall) are the reproduction
//! target — see EXPERIMENTS.md.

use crate::measure::{
    env_mb, env_queries, env_threads, fmt_mb, source_chunk, time, SourceMode, TempDocFile, Timed,
};
use crate::queries::{
    medline_paths, xmark_paths, MEDLINE_QUERIES, PAPER_TABLE1, PAPER_TABLE2, PROTEIN_QUERIES,
    TABLE3_QUERIES, XMARK_QUERIES,
};
use smpx_baselines::{sax, TokenProjector};
use smpx_core::runtime::source::{
    MmapSource, PrefetchSource, ReaderSource, SliceSource, SourceKind,
};
use smpx_core::{MultiPrefilter, MultiVerdict, Prefilter, RunStats};
use smpx_datagen::{medline, xmark, GenOptions};
use smpx_dtd::Dtd;
use smpx_engine::{InMemEngine, StreamEngine};
use smpx_paths::xpath::XPath;
use smpx_paths::PathSet;
use smpx_stringmatch::memscan::ScanMode;

/// One dataset delivered through the `SMPX_SOURCE`-selected `DocSource`
/// backend. For `mmap` and `reader` the generated document is written to
/// a temp file once (removed on drop) and every measured run opens it
/// through the real backend, so the timing includes genuine delivery.
///
/// `SMPX_THREADS` additionally selects the *executor*: at the default of
/// 1 the run takes the classic sequential `filter_source` path; above 1
/// it goes through the pool (`smpx_core::runtime::parallel`) as a
/// one-document batch against the frozen automaton — one worker's work,
/// as for any one-document batch, since a document is never split across
/// the pool. The observables are pinned byte-identical across executors.
pub struct Delivery<'a> {
    doc: &'a [u8],
    mode: SourceMode,
    chunk: usize,
    threads: usize,
    queries: usize,
    file: Option<TempDocFile>,
    /// Peak worker `memory_bytes()` of the last pooled run (`None` after
    /// sequential runs): the pool's workers own the matcher caches, so
    /// the caller's `Prefilter` cannot report them — the `Mem` column
    /// reads this instead to stay executor-honest.
    pooled_mem: std::cell::Cell<Option<usize>>,
}

impl<'a> Delivery<'a> {
    /// Wrap `doc` with the backend `SMPX_SOURCE` selects; `tag` keeps
    /// concurrent temp files apart.
    pub fn from_env(doc: &'a [u8], tag: &str) -> Delivery<'a> {
        let mode = SourceMode::from_env();
        let file = match mode {
            SourceMode::Slice => None,
            SourceMode::Mmap | SourceMode::Reader | SourceMode::Prefetch => {
                Some(TempDocFile::new(tag, doc))
            }
        };
        Delivery {
            doc,
            mode,
            chunk: source_chunk(),
            threads: env_threads(),
            queries: env_queries(),
            file,
            pooled_mem: std::cell::Cell::new(None),
        }
    }

    /// The raw document bytes (for baselines that only take slices).
    pub fn doc(&self) -> &'a [u8] {
        self.doc
    }

    /// Self-describing backend tag for rows and JSON records
    /// (`slice` / `mmap` / `reader/32KiB`).
    pub fn label(&self) -> String {
        match self.mode {
            SourceMode::Slice => SourceKind::Slice.as_str().to_string(),
            SourceMode::Mmap => SourceKind::Mmap.as_str().to_string(),
            SourceMode::Reader => format!("{}/{}KiB", SourceKind::Reader, self.chunk / 1024),
            SourceMode::Prefetch => {
                format!("{}/{}KiB", SourceKind::Prefetch, self.chunk / 1024)
            }
        }
    }

    /// Is this the double-buffered prefetching delivery? Rows carry it as
    /// the `Pf` column / `prefetch` JSON field so sync-vs-overlapped runs
    /// stay distinguishable even when labels get truncated.
    pub fn prefetch(&self) -> bool {
        self.mode == SourceMode::Prefetch
    }

    /// The `SMPX_THREADS`-selected pool width (1 = sequential executor).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Override the executor width (tests and benches that must not
    /// depend on the process environment). `0` resolves like everywhere
    /// else: `Pool::new`'s available-parallelism rule.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = smpx_core::Pool::new(threads).threads();
        self
    }

    /// The `SMPX_QUERIES`-selected multi-query workload width
    /// (1 = classic single-query automaton).
    pub fn queries(&self) -> usize {
        self.queries
    }

    /// Override the workload width (env-free replay of multi-query
    /// table runs, mirroring [`with_threads`](Self::with_threads)).
    /// `0` is clamped to 1 like `SMPX_QUERIES=0`.
    pub fn with_queries(mut self, queries: usize) -> Self {
        self.queries = queries.max(1);
        self
    }

    /// One prefilter run through the selected backend and executor.
    pub fn filter(&self, pf: &mut Prefilter) -> (Vec<u8>, RunStats) {
        let (out, mut stats) = if self.threads > 1 {
            self.filter_pooled(pf)
        } else {
            self.pooled_mem.set(None);
            self.filter_sequential(pf)
        };
        // Streams do not know their length up front; fill it in so the
        // percentage columns stay meaningful.
        if stats.input_bytes == 0 {
            stats.input_bytes = self.doc.len() as u64;
        }
        (out, stats)
    }

    fn filter_sequential(&self, pf: &mut Prefilter) -> (Vec<u8>, RunStats) {
        match self.mode {
            SourceMode::Slice => pf.filter_to_vec(self.doc).expect("filter"),
            SourceMode::Mmap => {
                let path = self.file.as_ref().expect("mmap delivery has a file").path();
                let src = MmapSource::open(path).expect("map bench doc");
                let mut out = Vec::new();
                let stats = pf.filter_source(src, &mut out).expect("filter");
                (out, stats)
            }
            SourceMode::Reader => {
                let path = self.file.as_ref().expect("reader delivery has a file").path();
                let file = std::fs::File::open(path).expect("open bench doc");
                let src = ReaderSource::new(std::io::BufReader::new(file), self.chunk);
                let mut out = Vec::new();
                let stats = pf.filter_source(src, &mut out).expect("filter");
                (out, stats)
            }
            SourceMode::Prefetch => {
                let path = self.file.as_ref().expect("prefetch delivery has a file").path();
                let src = PrefetchSource::open(path, self.chunk).expect("open bench doc");
                let mut out = Vec::new();
                let stats = pf.filter_source(src, &mut out).expect("filter");
                (out, stats)
            }
        }
    }

    /// Peak worker memory of the last [`filter`](Self::filter) call when
    /// it ran pooled (`None` after sequential runs). For a one-document
    /// batch exactly one worker builds matchers, so this equals the
    /// sequential `Prefilter::memory_bytes` for the same document.
    pub fn pooled_memory_bytes(&self) -> Option<usize> {
        self.pooled_mem.get()
    }

    /// The document through the selected backend, type-erased for the
    /// pooled entries (the sequential path keeps concrete sources so its
    /// per-token calls inline).
    fn open(&self) -> Box<dyn smpx_core::DocSource + Send + '_> {
        let path = || self.file.as_ref().expect("file-backed delivery has a file").path();
        match self.mode {
            SourceMode::Slice => Box::new(SliceSource::new(self.doc)),
            SourceMode::Mmap => Box::new(MmapSource::open(path()).expect("map bench doc")),
            SourceMode::Reader => {
                let file = std::fs::File::open(path()).expect("open bench doc");
                Box::new(ReaderSource::new(std::io::BufReader::new(file), self.chunk))
            }
            SourceMode::Prefetch => {
                Box::new(PrefetchSource::open(path(), self.chunk).expect("open bench doc"))
            }
        }
    }

    /// The same delivery as a one-document batch on the pool. Per-document
    /// output and stats are byte-identical to the sequential path (the
    /// parallel equivalence suite pins this); the peak worker memory is
    /// recorded for the `Mem` column, since the workers — not the caller's
    /// `Prefilter` — own the matcher caches.
    fn filter_pooled(&self, pf: &mut Prefilter) -> (Vec<u8>, RunStats) {
        let frozen = pf.freeze();
        let mut results = smpx_core::Pool::new(self.threads)
            .run(
                vec![self.open()],
                |_| frozen.worker(),
                |wpf, src| -> Result<_, smpx_core::CoreError> {
                    let mut out = Vec::new();
                    let stats = wpf.filter_source(src, &mut out)?;
                    Ok((out, stats, wpf.memory_bytes()))
                },
            )
            .map_err(|(_, e)| e)
            .expect("pooled filter");
        let (out, stats, mem) = results.pop().expect("one document in, one result out");
        self.pooled_mem.set(Some(mem));
        (out, stats)
    }

    /// One multi-query registry pass through the selected backend and
    /// executor: union projection, per-query verdict, run statistics.
    /// The benches' one-pass side of the one-pass-vs-N-passes comparison.
    pub fn filter_multi(&self, mpf: &mut MultiPrefilter) -> (Vec<u8>, MultiVerdict, RunStats) {
        self.pooled_mem.set(None);
        let (out, verdict, mut stats) = if self.threads > 1 {
            mpf.run_batch_parallel(vec![(self.open(), Vec::new())], self.threads)
                .expect("pooled multi filter")
                .pop()
                .expect("one document in, one result out")
        } else {
            mpf.run_multi(self.open(), Vec::new()).expect("multi filter")
        };
        if stats.input_bytes == 0 {
            stats.input_bytes = self.doc.len() as u64;
        }
        (out, verdict, stats)
    }

    /// [`filter_multi`](Self::filter_multi) against a dynamic-lifecycle
    /// handle: one pass on the handle's *current* generation through the
    /// selected backend and executor, verdict in stable external ids.
    /// Callers that just edited the handle should `settle()` first if
    /// they mean to measure the post-edit generation.
    pub fn filter_shared(
        &self,
        shared: &smpx_core::SharedPrefilter,
    ) -> (Vec<u8>, MultiVerdict, RunStats) {
        self.pooled_mem.set(None);
        let (out, verdict, mut stats) = if self.threads > 1 {
            shared
                .run_multi_batch_parallel(vec![(self.open(), Vec::new())], self.threads)
                .expect("pooled shared filter")
                .pop()
                .expect("one document in, one result out")
        } else {
            shared.generation().run_multi(self.open(), Vec::new()).expect("shared filter")
        };
        if stats.input_bytes == 0 {
            stats.input_bytes = self.doc.len() as u64;
        }
        (out, verdict, stats)
    }
}

/// One Table I/II row.
#[derive(Debug)]
pub struct SmpRow {
    pub id: String,
    pub proj_size: u64,
    pub mem_bytes: usize,
    pub timed: Timed,
    pub states: usize,
    pub cw: usize,
    pub bm: usize,
    /// The timed run: the default (vector) search, whose effort counters
    /// are the candidate walk's.
    pub stats: RunStats,
    /// The same bytes searched by the paper's Boyer–Moore and
    /// Commentz–Walter (a scalar run in-process): the run the paper's
    /// `∅ Shift`, `Jump%` and `Char%` columns are read from.
    pub paper: RunStats,
    /// Which `DocSource` backend produced the row (`Delivery::label`).
    pub source: String,
    /// Which executor produced the row: the `SMPX_THREADS` pool width
    /// (1 = the classic sequential path).
    pub threads: usize,
    /// Multi-query workload width (`SMPX_QUERIES` / `with_queries`): how
    /// many standing queries the row's one pass answered (1 = classic
    /// single-query automaton).
    pub queries: usize,
    /// Whether the delivery was the double-buffered prefetching reader
    /// (`Delivery::prefetch`).
    pub prefetch: bool,
    /// Prefetch stall seconds (producer stall + consumer wait) this row's
    /// run added to the process counters; `None` when observability is
    /// off (`SMPX_METRICS` unset) — the table prints `-`.
    pub stall_s: Option<f64>,
}

/// The prefetch stall counter before or after one timed run, read from
/// the process-wide registry — only when observability is on, so the
/// default bench path stays untouched.
fn stall_nanos() -> Option<u64> {
    use smpx_core::obs::{self, CounterId};
    obs::enabled().then(|| {
        let g = obs::global();
        g.counter(CounterId::PrefetchProducerStallNanos)
            + g.counter(CounterId::PrefetchConsumerWaitNanos)
    })
}

/// Run SMP once over a delivered document for `paths`, collecting a
/// table row, then once more on a prefilter of the same automaton in the
/// scalar specification ([`ScanMode::Spec`], the effect of
/// `SMPX_NO_SIMD=1`), whose Boyer–Moore and Commentz–Walter counters are
/// the paper's columns. A `Delivery` with `queries() > 1` replays the row's path
/// set as an N-query workload on one shared attributed automaton
/// (`Prefilter::compile_multi`) — same pass, same projection, now also
/// answering "which queries match" — so the whole experiment suite can
/// exercise the registry runtime via `SMPX_QUERIES` without new binaries.
pub fn smp_row(id: &str, dtd: &Dtd, paths: &PathSet, doc: &Delivery<'_>) -> SmpRow {
    let queries = doc.queries();
    let compile = || {
        if queries > 1 {
            let workload = vec![paths.clone(); queries];
            Prefilter::compile_multi(dtd, &workload).expect("compile multi")
        } else {
            Prefilter::compile(dtd, paths).expect("compile")
        }
    };
    let mut pf = compile();
    let before = stall_nanos();
    let ((out, stats), timed) = time(|| doc.filter(&mut pf));
    let stall_s = before.zip(stall_nanos()).map(|(n0, n1)| n1.saturating_sub(n0) as f64 / 1e9);
    let (paper_out, paper) = doc.filter(&mut compile().with_mode(ScanMode::Spec));
    assert!(paper_out == out, "{id}: the scalar specification projected other bytes");
    SmpRow {
        id: id.to_string(),
        proj_size: out.len() as u64,
        // Tables + matchers + the I/O window this delivery actually
        // allocated (zero for zero-copy slice/mmap backends). A pooled
        // run's matcher caches live in its workers, not in `pf` — the
        // delivery reports their peak instead, so `Mem` stays honest
        // under `SMPX_THREADS` too.
        mem_bytes: doc.pooled_memory_bytes().unwrap_or_else(|| pf.memory_bytes())
            + stats.io_window_bytes as usize,
        timed,
        states: pf.tables().state_count(),
        cw: pf.tables().cw_states(),
        bm: pf.tables().bm_states(),
        stats,
        paper,
        source: doc.label(),
        threads: doc.threads(),
        queries,
        prefetch: doc.prefetch(),
        stall_s,
    }
}

/// The paper's columns (`∅Shift`, `Jump%`, `Char%` beside the published
/// value, and `Scan%`) come from the scalar specification's run; the
/// `walk` columns are the default search's own effort: the mean distance
/// between its candidates, the bytes it verified and the bytes its
/// vector scans passed, per input byte.
fn print_smp_header() {
    println!(
        "{:<6} {:>10} {:>9} {:>9} {:>9} {:>14} {:>8}({:>6}) {:>8}({:>6}) {:>8}({:>6}) {:>7} {:>9} {:>8} {:>8} {:>13} {:>4} {:>4} {:>3} {:>8}",
        "query",
        "Proj.Size",
        "Mem",
        "Time[s]",
        "U+S[s]",
        "States(CW+BM)",
        "∅Shift",
        "paper",
        "Jump%",
        "paper",
        "Char%",
        "paper",
        "Scan%",
        "walk∅Sh",
        "walkCh%",
        "walkSc%",
        "Source",
        "Thr",
        "Qrys",
        "Pf",
        "Stall[s]",
    );
}

fn print_smp_row(r: &SmpRow, paper: Option<&(&str, f64, f64, f64)>) {
    let (p_shift, p_jump, p_char) =
        paper.map_or((f64::NAN, f64::NAN, f64::NAN), |p| (p.1, p.2, p.3));
    println!(
        "{:<6} {:>10} {:>9} {:>9.3} {:>9.3} {:>7} ({:>2}+{:>3}) {:>8.2}({:>6.2}) {:>8.2}({:>6.2}) {:>8.2}({:>6.2}) {:>7.2} {:>9.2} {:>8.2} {:>8.2} {:>13} {:>4} {:>4} {:>3} {:>8}",
        r.id,
        fmt_mb(r.proj_size),
        fmt_mb(r.mem_bytes as u64),
        r.timed.wall.as_secs_f64(),
        r.timed.cpu.as_secs_f64(),
        r.states,
        r.cw,
        r.bm,
        r.paper.avg_shift(),
        p_shift,
        r.paper.initial_jumps_pct(),
        p_jump,
        r.paper.char_comp_pct(),
        p_char,
        r.paper.scanned_pct(),
        r.stats.avg_shift(),
        r.stats.char_comp_pct(),
        r.stats.scanned_pct(),
        r.source,
        r.threads,
        r.queries,
        if r.prefetch { "yes" } else { "no" },
        r.stall_s.map_or_else(|| "-".to_string(), |s| format!("{s:.3}")),
    );
}

/// Table I: SMP characteristics on the XMark-like dataset.
pub fn run_table1() -> Vec<SmpRow> {
    let bytes = env_mb("SMPX_XMARK_MB", 32);
    println!("== Table I: SMP prefiltering, XMark-like document ({}) ==", fmt_mb(bytes as u64));
    println!("   (paper columns in parentheses: 5GB XMark on 2006 hardware)");
    let doc = xmark::generate(GenOptions::sized(bytes));
    let dtd = Dtd::parse(xmark::XMARK_DTD.as_bytes()).expect("XMark DTD");
    let delivery = Delivery::from_env(&doc, "table1");
    println!("   generated {} bytes, delivered via {}", doc.len(), delivery.label());
    print_smp_header();
    let mut rows = Vec::new();
    for q in XMARK_QUERIES {
        let row = smp_row(q.id, &dtd, &xmark_paths(q), &delivery);
        print_smp_row(&row, PAPER_TABLE1.iter().find(|(id, ..)| *id == q.id));
        rows.push(row);
    }
    rows
}

/// Table II: SMP characteristics on the MEDLINE-like dataset.
pub fn run_table2() -> Vec<SmpRow> {
    let bytes = env_mb("SMPX_MEDLINE_MB", 32);
    println!("== Table II: SMP prefiltering, MEDLINE-like document ({}) ==", fmt_mb(bytes as u64));
    println!("   (paper columns in parentheses: 656MB MEDLINE on 2006 hardware)");
    let doc = medline::generate(GenOptions::sized(bytes));
    let dtd = Dtd::parse(medline::MEDLINE_DTD.as_bytes()).expect("MEDLINE DTD");
    let delivery = Delivery::from_env(&doc, "table2");
    println!("   generated {} bytes, delivered via {}", doc.len(), delivery.label());
    print_smp_header();
    let mut rows = Vec::new();
    for q in MEDLINE_QUERIES {
        let row = smp_row(q.id, &dtd, &medline_paths(q), &delivery);
        print_smp_row(&row, PAPER_TABLE2.iter().find(|(id, ..)| *id == q.id));
        rows.push(row);
    }
    rows
}

/// Protein-Sequence characteristics (the paper refers to its technical
/// report \[27\] for these; we regenerate them in Table I format).
pub fn run_table_protein() -> Vec<SmpRow> {
    use smpx_datagen::protein;
    let bytes = env_mb("SMPX_PROTEIN_MB", 32);
    println!(
        "== Protein Sequence dataset (paper's [27]), SMP characteristics ({}) ==",
        fmt_mb(bytes as u64)
    );
    let doc = protein::generate(GenOptions::sized(bytes));
    let dtd = Dtd::parse(protein::PROTEIN_DTD.as_bytes()).expect("Protein DTD");
    let delivery = Delivery::from_env(&doc, "protein");
    println!("   generated {} bytes, delivered via {}", doc.len(), delivery.label());
    print_smp_header();
    let mut rows = Vec::new();
    for (id, texts) in PROTEIN_QUERIES {
        let paths = PathSet::parse(texts).expect("curated paths");
        let row = smp_row(id, &dtd, &paths, &delivery);
        print_smp_row(&row, None);
        rows.push(row);
    }
    rows
}

/// One Table III row: tokenizing projector vs SMP.
#[derive(Debug)]
pub struct Table3Row {
    pub id: String,
    pub tbp_cpu: f64,
    pub tbp_size: u64,
    pub smp_cpu: f64,
    pub smp_size: u64,
    pub speedup: f64,
    /// Backend that delivered the SMP run (the tokenizing projector
    /// always reads the in-memory slice).
    pub source: String,
}

/// Table III: the tokenizing schema-aware projector (TBP stand-in) against
/// SMP on the Table III query subset.
pub fn run_table3() -> Vec<Table3Row> {
    let bytes = env_mb("SMPX_XMARK_MB", 32);
    println!(
        "== Table III: tokenizing projector (TBP stand-in) vs SMP, XMark-like ({}) ==",
        fmt_mb(bytes as u64)
    );
    println!("   (paper: OCaml TBP ≥90x slower than C++ SMP; both ours are Rust,");
    println!("    so expect the language-independent share of the gap)");
    let doc = xmark::generate(GenOptions::sized(bytes));
    let dtd = Dtd::parse(xmark::XMARK_DTD.as_bytes()).expect("XMark DTD");
    let delivery = Delivery::from_env(&doc, "table3");
    println!("   SMP delivered via {}", delivery.label());
    println!(
        "{:<6} {:>12} {:>12} {:>12} {:>12} {:>9}",
        "query", "TBP U+S[s]", "TBP size", "SMP U+S[s]", "SMP size", "speedup"
    );
    let mut rows = Vec::new();
    for id in TABLE3_QUERIES {
        let q = XMARK_QUERIES.iter().find(|q| q.id == *id).expect("query");
        let paths = xmark_paths(q);

        let projector = TokenProjector::new(&paths);
        let (tbp_out, tbp_t) = time(|| projector.project(delivery.doc()).expect("project"));

        let mut pf = Prefilter::compile(&dtd, &paths).expect("compile");
        let ((smp_out, _), smp_t) = time(|| delivery.filter(&mut pf));

        let speedup = tbp_t.cpu.as_secs_f64() / smp_t.cpu.as_secs_f64().max(1e-9);
        println!(
            "{:<6} {:>12.3} {:>12} {:>12.3} {:>12} {:>8.1}x",
            id,
            tbp_t.cpu.as_secs_f64(),
            fmt_mb(tbp_out.len() as u64),
            smp_t.cpu.as_secs_f64(),
            fmt_mb(smp_out.len() as u64),
            speedup,
        );
        rows.push(Table3Row {
            id: id.to_string(),
            tbp_cpu: tbp_t.cpu.as_secs_f64(),
            tbp_size: tbp_out.len() as u64,
            smp_cpu: smp_t.cpu.as_secs_f64(),
            smp_size: smp_out.len() as u64,
            speedup,
            source: delivery.label(),
        });
    }
    rows
}

/// One Fig. 7(a) data point.
#[derive(Debug)]
pub struct Fig7aPoint {
    pub query: String,
    pub size: usize,
    /// Engine alone: seconds, or None when the memory budget failed (the
    /// paper's "fails on 1GB/5GB").
    pub engine_alone: Option<f64>,
    /// SMP + engine in sequence: prefilter + load + eval seconds; None if
    /// even the projected document exceeds the budget.
    pub smp_then_engine: Option<f64>,
    pub prefilter_secs: f64,
}

/// Fig. 7(a): in-memory engine with and without prefiltering across
/// document sizes, with a DOM memory budget producing the OOM cliff.
pub fn run_fig7a() -> Vec<Fig7aPoint> {
    let max = env_mb("SMPX_SWEEP_MAX_MB", 64);
    let budget = env_mb("SMPX_ENGINE_BUDGET_MB", 64);
    println!(
        "== Fig. 7(a): in-memory engine (QizX stand-in, {} DOM budget) ==",
        fmt_mb(budget as u64)
    );
    let dtd = Dtd::parse(xmark::XMARK_DTD.as_bytes()).expect("XMark DTD");
    let engine = InMemEngine::with_budget(budget);
    // Representative queries, as in the paper's plot (all queries shown
    // there; we pick a cheap, a mid and the heavy XM14).
    let queries = ["XM13", "XM5", "XM14"];
    println!(
        "{:<6} {:>9} {:>16} {:>18} {:>14}",
        "query", "size", "engine alone[s]", "SMP+engine[s]", "prefilter[s]"
    );
    let mut points = Vec::new();
    let mut size = 1024 * 1024;
    while size <= max {
        let doc = xmark::generate(GenOptions::sized(size));
        for id in queries {
            let q = XMARK_QUERIES.iter().find(|q| q.id == id).expect("query");
            let xq = fig7a_xpath(id);
            // Engine alone: load (budget-checked) + evaluate.
            let (alone_res, alone_t) = time(|| engine.load(&doc).map(|l| l.eval(&xq)));
            let engine_alone = alone_res.ok().map(|_| alone_t.wall.as_secs_f64());

            // SMP then engine.
            let mut pf = Prefilter::compile(&dtd, &xmark_paths(q)).expect("compile");
            let ((projected, _), pf_t) = time(|| pf.filter_to_vec(&doc).expect("filter"));
            let (res, total) = time(|| engine.load(&projected).map(|l| l.eval(&xq)));
            let smp_then_engine =
                res.ok().map(|_| pf_t.wall.as_secs_f64() + total.wall.as_secs_f64());

            println!(
                "{:<6} {:>9} {:>16} {:>18} {:>14.3}",
                id,
                fmt_mb(doc.len() as u64),
                engine_alone.map_or("OOM".into(), |s| format!("{s:.3}")),
                smp_then_engine.map_or("OOM".into(), |s| format!("{s:.3}")),
                pf_t.wall.as_secs_f64(),
            );
            points.push(Fig7aPoint {
                query: id.to_string(),
                size: doc.len(),
                engine_alone,
                smp_then_engine,
                prefilter_secs: pf_t.wall.as_secs_f64(),
            });
        }
        size *= 2;
    }
    points
}

/// The XPath used to *evaluate* a Fig. 7(a) query (the projection paths
/// cover its needs).
fn fig7a_xpath(id: &str) -> XPath {
    let text = match id {
        "XM13" => "/site/regions/australia/item/description",
        "XM5" => "/site/closed_auctions/closed_auction[price >= 40]/price",
        "XM14" => r#"/site//item[contains(description,"gold")]/name"#,
        other => panic!("no XPath for {other}"),
    };
    XPath::parse(text).expect("static query")
}

/// One Fig. 7(b) row.
#[derive(Debug)]
pub struct Fig7bRow {
    pub id: String,
    pub alone_secs: f64,
    pub alone_mbs: f64,
    pub pipelined_secs: f64,
    pub pipelined_mbs: f64,
    pub results_agree: bool,
}

/// Fig. 7(b): streaming engine stand-alone vs pipelined behind SMP.
pub fn run_fig7b() -> Vec<Fig7bRow> {
    let bytes = env_mb("SMPX_MEDLINE_MB", 32);
    println!(
        "== Fig. 7(b): streaming engine (SPEX stand-in), MEDLINE-like ({}) ==",
        fmt_mb(bytes as u64)
    );
    let doc = medline::generate(GenOptions::sized(bytes));
    let dtd = Dtd::parse(medline::MEDLINE_DTD.as_bytes()).expect("MEDLINE DTD");
    println!(
        "{:<4} {:>12} {:>12} {:>14} {:>14} {:>8}",
        "q", "alone[s]", "alone MB/s", "pipelined[s]", "ppl. MB/s", "agree"
    );
    let mut rows = Vec::new();
    for q in MEDLINE_QUERIES {
        let xq = XPath::parse(q.xpath).expect("Table II query");
        let eng = StreamEngine::new(xq);

        let (alone, alone_t) = time(|| eng.eval(&doc).expect("eval"));

        let mut pf = Prefilter::compile(&dtd, &medline_paths(q)).expect("compile");
        let ((projected, _), pf_t) = time(|| pf.filter_to_vec(&doc).expect("filter"));
        let (piped, eval_t) = time(|| eng.eval(&projected).expect("eval"));
        let pipelined_secs = pf_t.wall.as_secs_f64() + eval_t.wall.as_secs_f64();

        let agree = alone.items == piped.items;
        let alone_mbs = alone_t.throughput_mbs(doc.len() as u64);
        let pipelined_mbs = if pipelined_secs > 0.0 {
            doc.len() as f64 / (1024.0 * 1024.0) / pipelined_secs
        } else {
            0.0
        };
        println!(
            "{:<4} {:>12.3} {:>12.1} {:>14.3} {:>14.1} {:>8}",
            q.id,
            alone_t.wall.as_secs_f64(),
            alone_mbs,
            pipelined_secs,
            pipelined_mbs,
            agree,
        );
        rows.push(Fig7bRow {
            id: q.id.to_string(),
            alone_secs: alone_t.wall.as_secs_f64(),
            alone_mbs,
            pipelined_secs,
            pipelined_mbs,
            results_agree: agree,
        });
    }
    rows
}

/// One Fig. 7(c) bar.
#[derive(Debug)]
pub struct Fig7cBar {
    pub label: String,
    pub mbs: f64,
}

/// Fig. 7(c): SAX tokenizing throughput vs average SMP prefiltering
/// throughput, on both datasets.
pub fn run_fig7c() -> Vec<Fig7cBar> {
    let bytes = env_mb("SMPX_FIG7C_MB", 16);
    println!("== Fig. 7(c): SAX tokenization vs SMP throughput ({} each) ==", fmt_mb(bytes as u64));
    let mut bars = Vec::new();
    for (name, doc, dtd_text, queries) in [
        ("XMARK", xmark::generate(GenOptions::sized(bytes)), xmark::XMARK_DTD, None),
        ("MEDLINE", medline::generate(GenOptions::sized(bytes)), medline::MEDLINE_DTD, Some(())),
    ] {
        let dtd = Dtd::parse(dtd_text.as_bytes()).expect("DTD");

        let (n1, strict_t) = time(|| sax::parse_strict(&doc).expect("wf"));
        let (n2, lenient_t) = time(|| sax::parse_lenient(&doc).expect("tokenize"));
        assert!(n1 > 0 && n2.0 > 0);

        // Average SMP throughput over the dataset's full query workload.
        let mut total_secs = 0.0;
        let mut runs = 0u32;
        if queries.is_none() {
            for q in XMARK_QUERIES {
                let mut pf = Prefilter::compile(&dtd, &xmark_paths(q)).expect("compile");
                let (_, t) = time(|| pf.filter_to_vec(&doc).expect("filter"));
                total_secs += t.wall.as_secs_f64();
                runs += 1;
            }
        } else {
            for q in MEDLINE_QUERIES {
                let mut pf = Prefilter::compile(&dtd, &medline_paths(q)).expect("compile");
                let (_, t) = time(|| pf.filter_to_vec(&doc).expect("filter"));
                total_secs += t.wall.as_secs_f64();
                runs += 1;
            }
        }
        let avg_secs = total_secs / runs as f64;
        let mb = doc.len() as f64 / (1024.0 * 1024.0);
        let strict_mbs = strict_t.throughput_mbs(doc.len() as u64);
        let lenient_mbs = lenient_t.throughput_mbs(doc.len() as u64);
        let smp_mbs = mb / avg_secs;
        println!(
            "{name:<8}  SAX strict {strict_mbs:>8.1} MB/s   SAX lenient {lenient_mbs:>8.1} MB/s   avg SMP {smp_mbs:>8.1} MB/s   (SMP/SAX = {:.1}x)",
            smp_mbs / strict_mbs.max(1e-9)
        );
        bars.push(Fig7cBar { label: format!("{name}/sax-strict"), mbs: strict_mbs });
        bars.push(Fig7cBar { label: format!("{name}/sax-lenient"), mbs: lenient_mbs });
        bars.push(Fig7cBar { label: format!("{name}/avg-smp"), mbs: smp_mbs });
    }
    bars
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Smoke-test every runner on tiny inputs so the bench binaries cannot
    /// rot. Sizes come from the env overrides.
    #[test]
    fn runners_smoke() {
        std::env::set_var("SMPX_XMARK_MB", "1");
        std::env::set_var("SMPX_MEDLINE_MB", "1");
        std::env::set_var("SMPX_SWEEP_MAX_MB", "1");
        std::env::set_var("SMPX_ENGINE_BUDGET_MB", "16");
        std::env::set_var("SMPX_FIG7C_MB", "1");
        let t1 = run_table1();
        assert_eq!(t1.len(), XMARK_QUERIES.len());
        for row in &t1 {
            assert!(row.paper.char_comp_pct() < 100.0, "{} must skip input", row.id);
            assert!(row.stats.char_comp_pct() < 100.0, "{} must skip input", row.id);
            // What the run found is the same in both accountings.
            let found = |s: &RunStats| (s.tokens_matched, s.false_matches, s.initial_jump_chars);
            assert_eq!(found(&row.paper), found(&row.stats), "{}", row.id);
        }
        let t2 = run_table2();
        assert_eq!(t2.len(), MEDLINE_QUERIES.len());
        let m1 = &t2[0];
        assert!(
            m1.proj_size < 100,
            "M1 output must be near-empty (absent element), got {}",
            m1.proj_size
        );
        std::env::set_var("SMPX_PROTEIN_MB", "1");
        let tp = run_table_protein();
        assert_eq!(tp.len(), 5);
        let t3 = run_table3();
        assert!(t3.iter().all(|r| r.speedup > 1.0), "SMP must beat the tokenizing projector");
        let a = run_fig7a();
        assert!(!a.is_empty());
        let b = run_fig7b();
        assert!(b.iter().all(|r| r.results_agree), "pipelined results must agree");
        let c = run_fig7c();
        assert_eq!(c.len(), 6);
    }

    /// The pooled executor path behind `SMPX_THREADS` must be observably
    /// identical to the sequential one, per backend. (Set directly via
    /// `with_threads`, not the env var, so this test cannot race the
    /// smoke test's environment.)
    #[test]
    fn pooled_delivery_matches_sequential() {
        use smpx_datagen::{xmark, GenOptions};
        let doc = xmark::generate(GenOptions::sized(256 * 1024));
        let dtd = Dtd::parse(xmark::XMARK_DTD.as_bytes()).expect("DTD");
        let q = XMARK_QUERIES.iter().find(|q| q.id == "XM13").expect("query");
        let paths = xmark_paths(q);
        let seq = Delivery::from_env(&doc, "pooled-eq-seq").with_threads(1);
        let par = Delivery::from_env(&doc, "pooled-eq-par").with_threads(4);
        // The pool is at most as wide as the machine; one CPU leaves the
        // "pooled" delivery on the sequential path.
        assert_eq!(par.threads(), smpx_core::Pool::new(4).threads());
        let mut pf_a = Prefilter::compile(&dtd, &paths).expect("compile");
        let mut pf_b = Prefilter::compile(&dtd, &paths).expect("compile");
        let (out_a, stats_a) = seq.filter(&mut pf_a);
        let (out_b, stats_b) = par.filter(&mut pf_b);
        assert_eq!(out_a, out_b, "pooled output must be byte-identical");
        assert_eq!(stats_a, stats_b, "pooled stats must equal sequential");
        // Mem honesty: the pooled worker built exactly the matchers the
        // sequential run built, and the column must say so.
        assert_eq!(seq.pooled_memory_bytes(), None);
        assert_eq!(
            par.pooled_memory_bytes(),
            (par.threads() > 1).then(|| pf_a.memory_bytes()),
            "peak worker memory must equal the sequential prefilter's"
        );
    }

    /// `with_queries(N)` (the env-free `SMPX_QUERIES` override) swaps the
    /// row's automaton for an N-query registry: the union projection must
    /// stay byte-identical, the row must record the workload width, and
    /// `filter_multi` must attribute every duplicate alike — sequential
    /// and pooled.
    #[test]
    fn multi_query_delivery_matches_single() {
        use smpx_datagen::{xmark, GenOptions};
        let doc = xmark::generate(GenOptions::sized(256 * 1024));
        let dtd = Dtd::parse(xmark::XMARK_DTD.as_bytes()).expect("DTD");
        let q = XMARK_QUERIES.iter().find(|q| q.id == "XM13").expect("query");
        let paths = xmark_paths(q);

        let single = Delivery::from_env(&doc, "mq-single").with_threads(1).with_queries(1);
        let multi = Delivery::from_env(&doc, "mq-multi").with_threads(1).with_queries(8);
        let row_s = smp_row("XM13", &dtd, &paths, &single);
        let row_m = smp_row("XM13", &dtd, &paths, &multi);
        assert_eq!((row_s.queries, row_m.queries), (1, 8));
        assert_eq!(row_m.proj_size, row_s.proj_size, "union projection unchanged by registry");

        let mut reg = smpx_core::QueryRegistry::new(dtd.clone());
        for _ in 0..8 {
            reg.add_paths(paths.clone());
        }
        let mut mpf = reg.compile().expect("registry compile");
        let (out, verdict, stats) = multi.filter_multi(&mut mpf);
        assert_eq!(out.len() as u64, row_s.proj_size);
        assert_eq!(verdict.n_queries, 8);
        let expect_all = row_s.stats.match_events > 0;
        assert_eq!(
            verdict.matched_ids().len(),
            if expect_all { 8 } else { 0 },
            "identical queries must share one verdict"
        );
        assert_eq!(stats.input_bytes, doc.len() as u64);

        let pooled = Delivery::from_env(&doc, "mq-pooled").with_threads(4).with_queries(8);
        let (out_p, verdict_p, stats_p) = pooled.filter_multi(&mut mpf);
        assert_eq!(out_p, out, "pooled multi pass must be byte-identical");
        assert_eq!(verdict_p, verdict);
        assert_eq!(stats_p, stats);
    }

    /// `filter_shared` (the dynamic-lifecycle delivery) must match
    /// `filter_multi` against a fresh registry of the same live set —
    /// both before and after add/remove edits, sequential and pooled.
    #[test]
    fn shared_delivery_matches_fresh_registry() {
        use smpx_datagen::{xmark, GenOptions};
        let doc = xmark::generate(GenOptions::sized(256 * 1024));
        let dtd = Dtd::parse(xmark::XMARK_DTD.as_bytes()).expect("DTD");
        let q13 = xmark_paths(XMARK_QUERIES.iter().find(|q| q.id == "XM13").expect("query"));
        let q1 = xmark_paths(XMARK_QUERIES.iter().find(|q| q.id == "XM1").expect("query"));

        let mut reg = smpx_core::QueryRegistry::new(dtd.clone());
        reg.add_paths(q13.clone());
        reg.add_paths(q1.clone());
        let shared = reg.compile_shared().expect("lifecycle compile");
        let mut mpf = reg.compile().expect("registry compile");

        for threads in [1usize, 4] {
            let d = Delivery::from_env(&doc, &format!("shared-eq-{threads}"))
                .with_threads(threads)
                .with_queries(2);
            let (out_s, v_s, stats_s) = d.filter_shared(&shared);
            let (out_m, v_m, stats_m) = d.filter_multi(&mut mpf);
            assert_eq!(out_s, out_m, "threads={threads}: generation 0 output diverged");
            assert_eq!((v_s, stats_s), (v_m, stats_m), "threads={threads}");
        }

        // Edit: drop XM1, add XM13 again. The settled generation must
        // equal a fresh registry of the live set {XM13, XM13'}, with the
        // fresh ids mapped positionally to the surviving external ids.
        shared.remove_query(smpx_core::QueryId(1)).expect("remove q1");
        let added = shared.add_paths(q13.clone()).expect("re-add XM13");
        let generation = shared.settle().expect("settle");
        assert_eq!(added, smpx_core::QueryId(2), "ids are never reused");
        assert_eq!(generation.live_queries(), 2);

        let mut fresh = smpx_core::QueryRegistry::new(dtd);
        fresh.add_paths(q13.clone());
        fresh.add_paths(q13);
        let mut fresh_mpf = fresh.compile().expect("fresh compile");
        let d = Delivery::from_env(&doc, "shared-eq-post").with_threads(1).with_queries(2);
        let (out_s, v_s, stats_s) = d.filter_shared(&shared);
        let (out_f, v_f, stats_f) = d.filter_multi(&mut fresh_mpf);
        assert_eq!(out_s, out_f, "post-edit output must equal a fresh compile");
        assert_eq!(stats_s, stats_f);
        assert_eq!(v_s.n_queries, 3, "verdict spans all allocated ids");
        assert!(!v_s.is_matched(smpx_core::QueryId(1)), "removed id reports unmatched");
        assert_eq!(
            v_s.is_matched(smpx_core::QueryId(0)),
            v_f.is_matched(smpx_core::QueryId(0)),
            "surviving id attribution matches the fresh registry"
        );
        assert_eq!(v_s.is_matched(added), v_f.is_matched(smpx_core::QueryId(1)));
    }
}
