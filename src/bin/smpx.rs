//! `smpx` — command-line XML prefilter.
//!
//! ```text
//! USAGE:
//!   smpx --dtd SCHEMA.dtd (--paths P1,P2,… | --query XPATH [--query XPATH ...])
//!        [INPUT.xml | - ...] [-o OUT.xml] [--mmap] [--prefetch] [--chunk-kb N]
//!        [--threads N] [--add-query XPATH] [--remove-query ID]
//!        [--stats] [--stats-json PATH|-] [--metrics PATH|-]
//!
//! EXAMPLES:
//!   smpx --dtd site.dtd --query '//australia//description' big.xml -o small.xml --stats
//!   smpx --dtd site.dtd --query '//name' --query '//price' shard*.xml > union.xml
//!   smpx --dtd site.dtd --paths '/*,//name#' --mmap --threads 0 shard*.xml > all.xml
//!   cat big.xml | smpx --dtd site.dtd --paths '/*,/site/people/person/name#' > small.xml
//!   smpx --dtd site.dtd --paths '/*,//name#' head.xml - tail.xml > all.xml
//! ```
//!
//! `--query` is repeatable. With several queries the whole workload is
//! compiled into one shared multi-query automaton
//! (`smpx_core::QueryRegistry`): each document is scanned **once**, the
//! union projection is written to the output, and a per-file verdict
//! line on stderr names the queries the document matched (`q0`, `q1`, …
//! in flag order). Verdicts carry the single-query false-positive
//! contract: a flagged query may turn out to have no answers once
//! predicates are evaluated, but a query with answers is always flagged.
//!
//! Document delivery is pluggable (`smpx_core::runtime::source`): files
//! stream through the paper's chunked window by default (`--chunk-kb`
//! sizes it), `--mmap` maps them zero-copy instead — handing the pages
//! behind the scan back a step (1 MiB) at a time, so a mapped run costs
//! about the reader's memory, not the document; files under 64 KiB are
//! read rather than mapped and their `--stats` row says
//! `mmap/read-fallback` — and stdin — either implicitly (no inputs) or as
//! the explicit non-seekable `-` operand anywhere in the input list —
//! always streams through a reader backend, even under `--mmap`. Several
//! inputs are prefiltered as one
//! batch through a single compiled automaton; their projected outputs are
//! concatenated in argument order. Each input is opened when the batch
//! reaches it and not before: nothing looks at the paths up front, so a
//! missing or unreadable input fails (`cannot open P`) when its turn
//! comes, with the projections of the inputs before it already in the
//! output — whatever `--threads` says.
//!
//! Streamed deliveries *prefetch* only where a read can block: stdin/`-`
//! routes through the double-buffered `PrefetchSource` (a dedicated
//! `smpx-io` thread reads the next chunk while the automaton scans the
//! current one). File operands take the synchronous reader — a `read`
//! from the page cache returns without waiting, and the handoff lost to
//! it on every regular file measured (CHANGES, PR 12) — unless
//! `--prefetch` asks for the prefetching reader (vectored `readv` refills
//! on 64-bit unix; the flag for a FIFO or a slow device named as a file).
//! `SMPX_PREFETCH=0` is the kill switch that forces every delivery back
//! to the synchronous reader (output is byte-identical either way). In
//! pooled batches each worker opens its own source, so at most
//! `--threads` prefetch threads (and fds) exist at any time — the I/O
//! thread budget is bounded by the pool width.
//!
//! `--threads N` runs the batch through the pool
//! (`smpx_core::runtime::parallel`): `min(N, inputs, available
//! parallelism)` workers (`0` = the machine's available parallelism)
//! share the one frozen automaton, and `--stats` prints that effective
//! width. Width 1 — every single-input run included — is the sequential
//! loop writing straight into the output. Otherwise each worker claims
//! the next input in argument order, opens it (at most one fd or mapping
//! per worker) and projects it into a buffer taken from a free list —
//! until its input is the next one to be written, from when on it writes
//! straight into the output — and the worker that completes the oldest
//! outstanding input writes what the ready buffers still hold to the
//! output in argument order and hands them back; no worker starts an input
//! more than twice the width past the last one written. A pooled batch
//! therefore buffers fewer than `2 * width` projections, however long it
//! is, and its output is byte-identical to `--threads 1`. A failing input
//! behaves as in the sequential loop at every width: the inputs before it
//! are projected and written, then the part of its own projection made
//! before it failed, nothing after it, and the message names it (exit
//! 1). Per-file `--stats` rows stay tagged with their backend, and the
//! total row is accumulated on the main thread from the ordered rows.
//!
//! `--add-query XPATH` / `--remove-query ID` put the run in **dynamic
//! lifecycle mode** (`smpx_core::lifecycle`): the `--query` flags seed
//! generation 0 of a [`SharedPrefilter`], and the edits apply *between*
//! input files in argument order —
//!
//! ```text
//! smpx --dtd site.dtd --query '//name' a.xml \
//!      --add-query '//price' b.xml --remove-query 0 c.xml --stats
//! ```
//!
//! filters `a.xml` with `q0` alone, `b.xml` with `q0`+`q1`, and `c.xml`
//! with `q1` alone. Each edit's recompile runs on the lifecycle's
//! background compiler thread; the CLI settles (waits for the publish)
//! before the next batch so the demonstration is deterministic, and
//! `--stats` prints the generation number each batch ran on. Query ids
//! are stable across generations — a removed id keeps its slot and
//! reports unmatched; ids are never reused.
//!
//! `--stats-json PATH|-` writes the `--stats` rows (per file + total)
//! as JSON-lines; `--metrics PATH|-` (or `SMPX_METRICS`, flag wins)
//! enables the process-wide observability registry (`smpx_core::obs`)
//! and dumps one snapshot at exit — Prometheus text, or JSON-lines for
//! a `.json`/`.jsonl` path. `-` targets stderr in both cases, because
//! stdout carries the projected XML.

use smpx::bench::json::{JsonSink, Value};
use smpx::core::obs::{self, MetricsTarget};
use smpx::core::runtime::source::{
    DocSource, MmapSource, PrefetchSource, ReaderSource, SourceKind,
};
use smpx::core::runtime::DEFAULT_CHUNK;
use smpx::core::{
    CoreError, FrozenPrefilter, Generation, MultiVerdict, Pool, Prefilter, QueryId, QueryRegistry,
    RunStats, SharedPrefilter,
};
use std::fs::File;
use std::io::{BufWriter, Stdin, Write};
use std::process::ExitCode;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard};
use std::time::{Duration, Instant};

use smpx::dtd::Dtd;
use smpx::paths::{extract, PathSet};

struct Args {
    dtd: String,
    paths: Option<String>,
    queries: Vec<String>,
    inputs: Vec<String>,
    output: Option<String>,
    stats: bool,
    mmap: bool,
    /// Use the prefetching reader for file inputs, which take the sync
    /// reader otherwise (stdin always prefetches; `SMPX_PREFETCH=0` overrides
    /// everything back to the sync reader).
    prefetch: bool,
    chunk: usize,
    /// The `reader/32KiB` and `prefetch/32KiB` row tags, built once the
    /// chunk size is known.
    reader_tag: String,
    prefetch_tag: String,
    threads: usize,
    /// `--metrics <path|->`: enable the process-wide observability
    /// registry and dump a snapshot at exit — `-` writes Prometheus text
    /// to stderr, a `.json`/`.jsonl` path the JSON-lines snapshot, any
    /// other path the Prometheus exposition. `SMPX_METRICS` is the
    /// env-var twin; the flag wins when both are present.
    metrics: Option<String>,
    /// `--stats-json <path|->`: machine-readable twin of `--stats` —
    /// the per-file and total rows as JSON-lines (appended to the path,
    /// or stderr for `-`).
    stats_json: Option<String>,
    /// Inputs and lifecycle edits in argument order. Only consulted when
    /// an `--add-query`/`--remove-query` flag put the run in lifecycle
    /// mode; plain runs keep using `inputs`.
    ops: Vec<LifeOp>,
}

/// One argument-order step of a lifecycle run: prefilter an input, or
/// edit the live query set between inputs.
enum LifeOp {
    Input(String),
    Add(String),
    Remove(u32),
}

fn usage() -> ! {
    eprintln!(
        "usage: smpx --dtd SCHEMA.dtd (--paths 'P1,P2,…' | --query XPATH [--query XPATH ...]) \
         [INPUT.xml | - ...] [-o OUT.xml] [--mmap] [--prefetch] [--chunk-kb N] [--threads N] \
         [--add-query XPATH] [--remove-query ID] [--stats] \
         [--stats-json PATH|-] [--metrics PATH|-]"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        dtd: String::new(),
        paths: None,
        queries: Vec::new(),
        inputs: Vec::new(),
        output: None,
        stats: false,
        mmap: false,
        prefetch: false,
        chunk: DEFAULT_CHUNK,
        reader_tag: String::new(),
        prefetch_tag: String::new(),
        threads: 1,
        metrics: None,
        stats_json: None,
        ops: Vec::new(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--dtd" => args.dtd = it.next().unwrap_or_else(|| usage()),
            "--paths" => args.paths = Some(it.next().unwrap_or_else(|| usage())),
            "--query" => args.queries.push(it.next().unwrap_or_else(|| usage())),
            "-o" | "--output" => args.output = Some(it.next().unwrap_or_else(|| usage())),
            "--stats" => args.stats = true,
            "--stats-json" => args.stats_json = Some(it.next().unwrap_or_else(|| usage())),
            "--metrics" => args.metrics = Some(it.next().unwrap_or_else(|| usage())),
            "--mmap" => args.mmap = true,
            "--prefetch" => args.prefetch = true,
            "--chunk-kb" => {
                let kb: usize = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&kb| kb > 0)
                    .unwrap_or_else(|| usage());
                // KiB -> bytes can overflow usize; an absurd chunk size is
                // an operator error, not something to wrap silently.
                args.chunk = kb.checked_mul(1024).unwrap_or_else(|| usage());
            }
            "--threads" => {
                // 0 is meaningful: available parallelism.
                args.threads = it.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| usage());
            }
            "--add-query" => {
                args.ops.push(LifeOp::Add(it.next().unwrap_or_else(|| usage())));
            }
            "--remove-query" => {
                // Accept the verdict-line spelling ("q3") as well as the
                // bare number.
                let id: u32 = it
                    .next()
                    .and_then(|v| v.trim().trim_start_matches('q').parse().ok())
                    .unwrap_or_else(|| usage());
                args.ops.push(LifeOp::Remove(id));
            }
            "-h" | "--help" => usage(),
            "-" => {
                args.inputs.push("-".to_string());
                args.ops.push(LifeOp::Input("-".to_string()));
            }
            other if !other.starts_with('-') => {
                args.inputs.push(other.to_string());
                args.ops.push(LifeOp::Input(other.to_string()));
            }
            _ => usage(),
        }
    }
    if args.dtd.is_empty() || (args.paths.is_none() && args.queries.is_empty()) {
        usage();
    }
    if args.mmap && args.inputs.iter().all(|p| p == "-") {
        eprintln!("smpx: --mmap requires file inputs (stdin cannot be mapped)");
        std::process::exit(2);
    }
    if args.mmap && args.prefetch {
        eprintln!("smpx: --mmap and --prefetch are mutually exclusive (mmap does not refill)");
        std::process::exit(2);
    }
    if args.inputs.iter().filter(|p| *p == "-").count() > 1 {
        eprintln!("smpx: the stdin operand '-' may appear at most once");
        std::process::exit(2);
    }
    let chunk_kb = args.chunk / 1024;
    args.reader_tag = format!("{}/{}KiB", SourceKind::Reader, chunk_kb);
    args.prefetch_tag = format!("{}/{}KiB", SourceKind::Prefetch, chunk_kb);
    args
}

/// `SMPX_PREFETCH=0` is the kill switch for the prefetching reader: every
/// delivery that would prefetch (default-on stdin, `--prefetch`) falls
/// back to the synchronous [`ReaderSource`]. Output
/// is byte-identical either way — the switch exists so the sync path
/// stays reachable in production and CI.
fn prefetch_allowed() -> bool {
    std::env::var("SMPX_PREFETCH").map_or(true, |v| v != "0")
}

/// Every delivery backend the flags can select, as one type: `DocSource`
/// by `match`, so the runtime is compiled once against a concrete source
/// and its per-token calls into it (`ensure`, `resident`, `set_guard`)
/// inline — behind a `Box<dyn DocSource>` none of them did.
enum Source {
    Mapped(MmapSource),
    File(ReaderSource<File>),
    Stdin(ReaderSource<Stdin>),
    FilePrefetch(PrefetchSource<File>),
    StdinPrefetch(PrefetchSource<Stdin>),
}

macro_rules! each_source {
    ($self:expr, $s:ident => $e:expr) => {
        match $self {
            Source::Mapped($s) => $e,
            Source::File($s) => $e,
            Source::Stdin($s) => $e,
            Source::FilePrefetch($s) => $e,
            Source::StdinPrefetch($s) => $e,
        }
    };
}

impl DocSource for Source {
    #[inline]
    fn base(&self) -> usize {
        each_source!(self, s => s.base())
    }
    #[inline]
    fn resident(&self) -> &[u8] {
        each_source!(self, s => s.resident())
    }
    #[inline]
    fn ensure(&mut self, pos: usize) -> Result<bool, CoreError> {
        each_source!(self, s => s.ensure(pos))
    }
    fn grow(&mut self) -> Result<bool, CoreError> {
        each_source!(self, s => s.grow())
    }
    #[inline]
    fn set_guard(&mut self, pos: usize) {
        each_source!(self, s => s.set_guard(pos))
    }
    fn len_hint(&self) -> Option<u64> {
        each_source!(self, s => s.len_hint())
    }
    fn peak_io_bytes(&self) -> usize {
        each_source!(self, s => s.peak_io_bytes())
    }
    fn kind(&self) -> SourceKind {
        each_source!(self, s => s.kind())
    }
}

/// How an input was delivered: the source tag of its `--stats` row.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Route {
    Mmap,
    /// `--mmap` on a file the backend reads instead: small, empty or
    /// non-regular. The row says so.
    MmapRead,
    Reader,
    Prefetch,
}

impl Args {
    fn tag(&self, route: Route) -> &str {
        match route {
            Route::Mmap => SourceKind::Mmap.as_str(),
            Route::MmapRead => "mmap/read-fallback",
            Route::Reader => &self.reader_tag,
            Route::Prefetch => &self.prefetch_tag,
        }
    }

    /// What rows and messages call the input `path`: itself, or `<stdin>`
    /// in pure pipe mode (no operand at all).
    fn label<'a>(&self, path: &'a str) -> &'a str {
        if self.inputs.is_empty() {
            "<stdin>"
        } else {
            path
        }
    }
}

/// Open one input through the backend the flags select, into the buffers
/// of `spare` (the worker's previous source) where the backend has any: a
/// reader keeps its window, a mapped source the buffer its small files are
/// read into. The non-seekable `-` operand always takes a reader backend
/// over stdin — `--mmap` and slice paths cannot apply to a pipe, so it
/// routes instead of erroring. At most one input is open per worker at any
/// time (sources open right before their run), which also bounds the
/// prefetch I/O threads by the pool width.
///
/// The third value is the file's length where the source cannot tell it
/// (the reader routes), from the descriptor just opened.
fn open_source(
    path: &str,
    args: &Args,
    spare: Option<Source>,
) -> Result<(Source, Route, Option<u64>), CoreError> {
    if path == "-" {
        // `Stdin` handles chunked reads itself; workers never share one.
        // Pipes are exactly where overlapping read latency with scan time
        // pays, so stdin prefetches unless the kill switch says otherwise.
        let stdin = std::io::stdin();
        return Ok(if prefetch_allowed() {
            (Source::StdinPrefetch(PrefetchSource::new(stdin, args.chunk)), Route::Prefetch, None)
        } else {
            (Source::Stdin(ReaderSource::new(stdin, args.chunk)), Route::Reader, None)
        });
    }
    if args.mmap {
        let m = match spare {
            Some(Source::Mapped(mut m)) => {
                m.reopen(path)?;
                m
            }
            _ => MmapSource::open(path)?,
        };
        let route = if m.is_mapped() { Route::Mmap } else { Route::MmapRead };
        return Ok((Source::Mapped(m), route, None));
    }
    // The window reads whole chunks itself: no `BufReader` in between.
    let f = File::open(path)?;
    let len = f.metadata().ok().filter(|m| m.is_file()).map(|m| m.len());
    Ok(if args.prefetch && prefetch_allowed() {
        (Source::FilePrefetch(PrefetchSource::from_file(f, args.chunk)), Route::Prefetch, len)
    } else {
        let r = match spare {
            Some(Source::File(mut r)) => {
                r.reset(f);
                r
            }
            _ => ReaderSource::new(f, args.chunk),
        };
        (Source::File(r), Route::Reader, len)
    })
}

/// The automaton a batch runs on.
struct Engine<'a> {
    frozen: &'a FrozenPrefilter,
    /// A registry automaton: rows carry a per-document verdict.
    multi: bool,
    /// Lifecycle mode: verdicts go out in this generation's stable
    /// external ids.
    generation: Option<&'a Generation>,
}

/// What one batch worker owns: its prefilter (matcher caches warm across
/// the documents it draws) and its last source, for the buffers.
struct Worker {
    pf: Prefilter,
    spare: Option<Source>,
}

/// One input's `--stats` row.
struct Row {
    label: String,
    route: Route,
    stats: RunStats,
    verdict: Option<MultiVerdict>,
}

/// One input through `wk` into `out`: its row, or the message naming it.
fn run_one<W: Write>(
    wk: &mut Worker,
    eng: &Engine,
    args: &Args,
    path: &str,
    out: W,
) -> Result<Row, String> {
    let label = args.label(path);
    let (mut src, route, len) = open_source(path, args, wk.spare.take())
        .map_err(|e| format!("cannot open {label}: {e}"))?;
    let (_, verdict, mut stats) =
        wk.pf.run_multi(&mut src, out).map_err(|e| format!("{label}: {e}"))?;
    // Reader-delivered runs cannot know their length up front.
    if stats.input_bytes == 0 {
        stats.input_bytes = len.unwrap_or(0);
    }
    // A window or a read buffer serves the next document; a mapping or a
    // pipe is done with.
    wk.spare = match src {
        Source::File(_) => Some(src),
        Source::Mapped(ref m) if !m.is_mapped() => Some(src),
        _ => None,
    };
    let verdict = eng.multi.then(|| match eng.generation {
        Some(g) => g.remap_verdict(&verdict),
        None => verdict,
    });
    Ok(Row { label: label.to_string(), route, stats, verdict })
}

/// Capacity of the output buffer. A copied subtree range is hundreds of
/// bytes to a few KiB, so the default 8 KiB went to the kernel every
/// dozen ranges; this holds a hundred or more of them per `write`.
const SINK_BUFFER: usize = 64 << 10;

/// The run's one output writer. The buffer is the concrete outer type, so
/// an emit is a copy into it; only a full buffer goes through the `dyn`.
type Sink = BufWriter<Box<dyn Write + Send>>;

/// Open the sink — `-o FILE`, else stdout — reporting a file that cannot
/// be created.
fn open_sink(output: Option<&str>) -> Option<Sink> {
    let inner: Box<dyn Write + Send> = match output {
        None => Box::new(std::io::stdout()),
        Some(path) => match File::create(path) {
            Ok(f) => Box::new(f),
            Err(e) => {
                eprintln!("smpx: cannot create {path}: {e}");
                return None;
            }
        },
    };
    Some(BufWriter::with_capacity(SINK_BUFFER, inner))
}

/// The sink as the library sees it. A run flushes its sink when the
/// document ends, which on one sink shared by a batch is a `write(2)` per
/// input; the CLI owns the sink and flushes it once, checked, at exit.
struct Unflushed<'a>(&'a mut Sink);

/// Where a pooled job writes its projection. While its input is not yet
/// the next one to be written (`head`, which delivery advances), the relay
/// appends to the job's buffer; the first write after the head reaches it
/// moves the buffer into the sink, and from then on the relay writes
/// straight into the sink, holding the sink's lock until the document
/// ends. The head therefore streams instead of buffering, and delivery
/// writes only what is still buffered. The lock is released when the
/// relay is dropped, before the job returns, so a job never holds it
/// while the pool's lock is taken. Delivery stores `head` (`Release`)
/// after its write to the sink; the relay that loads its own index
/// (`Acquire`) therefore writes after every input before it.
struct Relay<'a, 's> {
    index: usize,
    head: &'a AtomicUsize,
    sink: &'a Mutex<&'s mut Sink>,
    buf: &'a mut Vec<u8>,
    streaming: Option<MutexGuard<'a, &'s mut Sink>>,
}

impl Write for Relay<'_, '_> {
    fn write(&mut self, data: &[u8]) -> std::io::Result<usize> {
        self.write_all(data)?;
        Ok(data.len())
    }

    fn write_all(&mut self, data: &[u8]) -> std::io::Result<()> {
        if self.streaming.is_none() && self.head.load(Ordering::Acquire) == self.index {
            let mut sink = self.sink.lock().expect("sink lock");
            sink.write_all(self.buf)?;
            self.buf.clear();
            self.streaming = Some(sink);
        }
        match &mut self.streaming {
            Some(sink) => sink.write_all(data),
            None => {
                self.buf.extend_from_slice(data);
                Ok(())
            }
        }
    }

    /// The sink is flushed once, at exit (see [`Unflushed`]).
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

impl Write for Unflushed<'_> {
    #[inline]
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.write(buf)
    }
    #[inline]
    fn write_all(&mut self, buf: &[u8]) -> std::io::Result<()> {
        self.0.write_all(buf)
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// One `--stats-json` record: the machine-readable twin of a
/// `print_stats` line (same per-file and total rows, JSON-lines shape).
fn stats_json_row(sink: &mut JsonSink, label: &str, source: &str, stats: &RunStats) {
    sink.push(&[
        ("file", Value::S(label.into())),
        ("source", Value::S(source.into())),
        ("input_bytes", Value::U(stats.input_bytes)),
        ("output_bytes", Value::U(stats.output_bytes)),
        ("chars_compared", Value::U(stats.chars_compared)),
        ("bytes_scanned", Value::U(stats.bytes_scanned)),
        ("avg_shift", Value::F(stats.avg_shift())),
        ("jump_pct", Value::F(stats.initial_jumps_pct())),
        ("char_pct", Value::F(stats.char_comp_pct())),
        ("scan_pct", Value::F(stats.scanned_pct())),
        ("tokens_matched", Value::U(stats.tokens_matched)),
        ("false_matches", Value::U(stats.false_matches)),
        ("io_window_bytes", Value::U(stats.io_window_bytes)),
    ]);
}

/// The total row's tag comes from the rows themselves: a `-` operand
/// inside an `--mmap` batch (or a small file among mapped ones) makes
/// delivery mixed, and the total must say so rather than claim one backend.
fn total_tag<'a>(args: &'a Args, rows: &[Row]) -> &'a str {
    let first = rows[0].route;
    if rows.iter().all(|r| r.route == first) {
        args.tag(first)
    } else {
        "mixed"
    }
}

/// The whole set-up as one `--stats` line: the DTD parse, the compile
/// (the automaton's size — its states by vocabulary size, whichever
/// matcher the mode builds for them — the static analysis's wall time and
/// work counts), and the scan mode the runs take (`scalar` under
/// `SMPX_NO_SIMD=1`).
fn compile_line(frozen: &FrozenPrefilter, parse: Duration, wall: Duration) -> String {
    let t = frozen.tables();
    let c = t.compile_counts();
    format!(
        "DTD parsed in {:.2} ms, {} states ({} multi-keyword + {} single-keyword), compiled in {:.2} ms: \
         {} relevance steps, {} gap-search nodes, {} hazard-scan visits; scan {}",
        parse.as_secs_f64() * 1e3,
        t.state_count(),
        t.cw_states(),
        t.bm_states(),
        wall.as_secs_f64() * 1e3,
        c.relevance_steps,
        c.gap_nodes,
        c.hazard_visits,
        frozen.mode().name()
    )
}

fn print_stats(label: &str, source: &str, stats: &RunStats) {
    let pct = if stats.input_bytes > 0 {
        format!(
            " ({:.1}% of {} input bytes)",
            100.0 * stats.output_bytes as f64 / stats.input_bytes as f64,
            stats.input_bytes
        )
    } else {
        String::new()
    };
    eprintln!(
        "smpx: {label} [{source}]: wrote {} bytes{pct}; inspected {} chars; \
         vector-scanned {} bytes; avg shift {:.2}; initial jumps {} chars; \
         {} tokens; {} false matches",
        stats.output_bytes,
        stats.chars_compared,
        stats.bytes_scanned,
        stats.avg_shift(),
        stats.initial_jump_chars,
        stats.tokens_matched,
        stats.false_matches,
    );
}

/// Prefilter `inputs` into `out` in argument order on `eng`'s automaton —
/// the one batch driver, for plain and lifecycle runs alike. The effective
/// width is `min(--threads, inputs, available parallelism)`:
///
/// * width 1 (every single-input run included) is the sequential loop
///   writing straight into `out`;
/// * otherwise each pool worker opens its input itself and projects it
///   through a [`Relay`]: into a buffer from the free list, and into `out`
///   itself once the input is the next to be written. The pool's ordered
///   delivery writes what the buffers still hold to `out` in argument
///   order and hands them back — at most `2 * width` projections exist at
///   any time, and the one being written is not among them.
///
/// Either way a failing input leaves the projections of the inputs before
/// it in `out`, followed by the partial projection of the failing input
/// itself, and is named on stderr (`Err(())`: already reported).
fn run_inputs(
    eng: &Engine,
    inputs: &[String],
    args: &Args,
    out: &mut Sink,
) -> Result<Vec<Row>, ()> {
    let pool = Pool::new(args.threads);
    let width = pool.width(inputs.len());
    let worker = |_| Worker { pf: eng.frozen.worker(), spare: None };
    let failed = |msg: String| eprintln!("smpx: {msg}");
    let mut rows = Vec::with_capacity(inputs.len());
    if width == 1 {
        let mut wk = worker(0);
        for path in inputs {
            let row = run_one(&mut wk, eng, args, path, Unflushed(out)).map_err(failed)?;
            rows.push(row);
        }
    } else {
        let free = Mutex::new(Vec::<Vec<u8>>::new());
        let head = AtomicUsize::new(0);
        let sink = Mutex::new(&mut *out);
        let ran = pool.run_ordered(
            inputs.iter().enumerate().collect(),
            worker,
            |wk, (index, path): (usize, &String)| {
                let mut buf = free.lock().expect("free list").pop().unwrap_or_default();
                let relay =
                    Relay { index, head: &head, sink: &sink, buf: &mut buf, streaming: None };
                match run_one(wk, eng, args, path, relay) {
                    Ok(row) => Ok((row, buf)),
                    // The partial projection goes out with the message, as
                    // the sequential loop writes it before it stops.
                    Err(msg) => Err((msg, buf)),
                }
            },
            |at, (row, mut buf): (Row, Vec<u8>)| {
                let written = sink.lock().expect("sink lock").write_all(&buf);
                written.map_err(|e| (format!("{}: {e}", row.label), Vec::new()))?;
                head.store(at + 1, Ordering::Release);
                rows.push(row);
                buf.clear();
                free.lock().expect("free list").push(buf);
                Ok(())
            },
        );
        if let Err((_, (msg, partial))) = ran {
            // Every input before the failing one has been delivered. The
            // run fails with `msg` whatever this write does, as the
            // sequential loop's would.
            let _ = sink.into_inner().expect("sink lock").write_all(&partial);
            failed(msg);
            return Err(());
        }
    }
    if args.stats && width > 1 {
        eprintln!("smpx: batch of {} inputs over {width} pool workers", inputs.len());
    }
    Ok(rows)
}

/// The verdict line of one input: which registered queries it matched.
/// Stderr like the stats rows, so piped projection output stays clean.
fn print_verdict(row: &Row, suffix: &str) {
    if let Some(v) = &row.verdict {
        let ids: Vec<String> = v.matched_ids().iter().map(|q| q.to_string()).collect();
        eprintln!(
            "smpx: {}: matched {}/{} queries [{}]{suffix}",
            row.label,
            ids.len(),
            v.n_queries,
            ids.join(" ")
        );
    }
}

/// What a lifecycle run accumulates across its batches.
struct Tally {
    total: RunStats,
    rows: usize,
    json: Option<JsonSink>,
}

/// Prefilter the inputs queued in `pending` as one batch on the *settled*
/// generation (every preceding edit compiled and published — the CLI
/// demonstrates the edit-visible points; servers would keep running on
/// the current generation instead). Writes projections to `out` in
/// argument order, prints a per-file verdict line in stable external ids,
/// and accumulates stats rows. `Err(())` means the failure was already
/// reported.
fn lifecycle_flush(
    shared: &SharedPrefilter,
    pending: &mut Vec<String>,
    args: &Args,
    out: &mut Sink,
    tally: &mut Tally,
) -> Result<(), ()> {
    if pending.is_empty() {
        return Ok(());
    }
    let generation = shared.settle().map_err(|e| eprintln!("smpx: lifecycle: {e}"))?;
    if args.stats {
        eprintln!(
            "smpx: generation {} ({} live / {} allocated queries)",
            generation.gen_no(),
            generation.live_queries(),
            generation.id_width()
        );
    }
    let eng = Engine { frozen: generation.frozen(), multi: true, generation: Some(&generation) };
    let suffix = format!(" (generation {})", generation.gen_no());
    for row in run_inputs(&eng, pending, args, out)? {
        print_verdict(&row, &suffix);
        if args.stats {
            print_stats(&row.label, args.tag(row.route), &row.stats);
        }
        if let Some(json) = &mut tally.json {
            stats_json_row(json, &row.label, args.tag(row.route), &row.stats);
        }
        tally.total.accumulate(&row.stats);
        tally.rows += 1;
    }
    pending.clear();
    Ok(())
}

/// The dynamic-lifecycle run: seed the registry from `--query` flags,
/// then walk inputs and `--add-query`/`--remove-query` edits in argument
/// order — contiguous inputs form one batch, each edit is applied (and,
/// before the next batch, compiled and published) between batches.
fn run_lifecycle(args: &Args, dtd: Dtd, parse: Duration, query_sets: Vec<PathSet>) -> ExitCode {
    let mut reg = QueryRegistry::new(dtd);
    for q in query_sets {
        reg.add_paths(q);
    }
    let start = Instant::now();
    let shared = match reg.compile_shared() {
        Ok(s) => s,
        Err(e) => {
            eprintln!("smpx: compile error: {e}");
            return ExitCode::FAILURE;
        }
    };
    if args.stats {
        let g = shared.generation();
        eprintln!(
            "smpx: lifecycle mode: {} seed queries, {}",
            g.live_queries(),
            compile_line(g.frozen(), parse, start.elapsed())
        );
    }
    let Some(mut out) = open_sink(args.output.as_deref()) else {
        return ExitCode::FAILURE;
    };
    let mut tally = Tally {
        total: RunStats::default(),
        rows: 0,
        json: args.stats_json.as_ref().map(|p| JsonSink::to_path(p.clone())),
    };
    let mut pending: Vec<String> = Vec::new();
    let mut walk = || -> Result<(), ()> {
        for op in &args.ops {
            match op {
                LifeOp::Input(p) => pending.push(p.clone()),
                LifeOp::Add(text) => {
                    lifecycle_flush(&shared, &mut pending, args, &mut out, &mut tally)?;
                    let id = shared
                        .add_query(text)
                        .map_err(|e| eprintln!("smpx: --add-query {text}: {e}"))?;
                    eprintln!("smpx: added query {id}: {text}");
                }
                LifeOp::Remove(n) => {
                    lifecycle_flush(&shared, &mut pending, args, &mut out, &mut tally)?;
                    shared
                        .remove_query(QueryId(*n))
                        .map_err(|e| eprintln!("smpx: --remove-query {n}: {e}"))?;
                    eprintln!("smpx: removed query q{n}");
                }
            }
        }
        lifecycle_flush(&shared, &mut pending, args, &mut out, &mut tally)
    };
    if walk().is_err() {
        return ExitCode::FAILURE;
    }
    // Trailing edits with no input after them still compile — surface
    // their errors rather than dropping them at exit.
    let last = match shared.settle() {
        Ok(g) => g,
        Err(e) => {
            eprintln!("smpx: lifecycle: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Err(e) = out.flush() {
        eprintln!("smpx: {e}");
        return ExitCode::FAILURE;
    }
    if args.stats {
        if tally.rows > 1 {
            print_stats("total", "lifecycle", &tally.total);
        }
        eprintln!(
            "smpx: final generation {} ({} live / {} allocated queries)",
            last.gen_no(),
            last.live_queries(),
            last.id_width()
        );
    }
    if let Some(json) = &mut tally.json {
        if tally.rows > 1 {
            stats_json_row(json, "total", "lifecycle", &tally.total);
        }
        if let Err(e) = json.flush() {
            eprintln!("smpx: --stats-json: {e}");
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}

/// `--metrics` beats `SMPX_METRICS`; a flag value that names no
/// destination is a usage error (the env path merely warns, because env
/// vars travel further from the invocation than flags do).
fn resolve_metrics(args: &Args) -> MetricsTarget {
    match &args.metrics {
        Some(v) => match obs::parse_metrics_value(v) {
            Ok(t) => t,
            Err(()) => {
                eprintln!(
                    "smpx: --metrics {v:?} names no destination; \
                     use a file path or `-` for stderr"
                );
                std::process::exit(2);
            }
        },
        None => obs::metrics_target_from_env(),
    }
}

fn main() -> ExitCode {
    let args = parse_args();
    let metrics = resolve_metrics(&args);
    if !matches!(metrics, MetricsTarget::Disabled) {
        obs::enable();
    }
    let code = run(args);
    // The snapshot covers the whole run, success or failure — a failed
    // run's counters are exactly what a postmortem wants.
    if let Err(e) = obs::emit(&metrics) {
        eprintln!("smpx: cannot write metrics snapshot: {e}");
        return ExitCode::FAILURE;
    }
    code
}

fn run(args: Args) -> ExitCode {
    let dtd_text = match std::fs::read(&args.dtd) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("smpx: cannot read DTD {}: {e}", args.dtd);
            return ExitCode::FAILURE;
        }
    };
    let parse_start = Instant::now();
    let dtd = match Dtd::parse(&dtd_text) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("smpx: DTD error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let parse_wall = parse_start.elapsed();

    // Per-query path sets (`--query`, repeatable). One query compiles the
    // classic single-query automaton; several compile one shared
    // multi-query automaton whose verdicts attribute each document to the
    // queries it matches.
    let mut query_sets: Vec<PathSet> = Vec::with_capacity(args.queries.len());
    for q in &args.queries {
        match extract::extract_from_text(q) {
            Ok(p) => query_sets.push(p),
            Err(e) => {
                eprintln!("smpx: query {q}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    // Any --add-query/--remove-query flag makes the run *dynamic*: the
    // --query workload seeds generation 0 of a lifecycle handle, and the
    // edits apply between input files in argument order.
    if args.ops.iter().any(|op| !matches!(op, LifeOp::Input(_))) {
        if args.paths.is_some() || query_sets.is_empty() {
            eprintln!(
                "smpx: --add-query/--remove-query need a --query seed workload \
                 (--paths has no query ids to edit)"
            );
            std::process::exit(2);
        }
        return run_lifecycle(&args, dtd, parse_wall, query_sets);
    }

    let multi = query_sets.len() > 1;

    let paths: PathSet = if multi {
        // Union for display and state accounting; the compiled automaton
        // additionally carries per-query attribution.
        PathSet::union_of(&query_sets)
    } else if let Some(p) = query_sets.pop() {
        p
    } else {
        let texts: Vec<&str> = args.paths.as_deref().unwrap_or("").split(',').collect();
        match PathSet::parse(&texts) {
            Ok(p) => p,
            Err(e) => {
                eprintln!("smpx: path error: {e}");
                return ExitCode::FAILURE;
            }
        }
    };

    // A `--paths` or single-`--query` run is a one-query workload for the
    // total-row accounting.
    let query_count = if multi { query_sets.len() } else { 1 };

    let start = Instant::now();
    let compiled = if multi {
        Prefilter::compile_multi(&dtd, &query_sets)
    } else {
        Prefilter::compile(&dtd, &paths)
    };
    let compile_wall = start.elapsed();
    // The batch driver mints its own workers from the shared tables; the
    // compiling prefilter (and its matcher slots) is done with.
    let frozen = match compiled {
        Ok(p) => p.freeze(),
        Err(e) => {
            eprintln!("smpx: compile error: {e}");
            return ExitCode::FAILURE;
        }
    };
    if args.stats {
        let line = compile_line(&frozen, parse_wall, compile_wall);
        eprintln!("smpx: projection paths: {paths}\nsmpx: {line}");
        if multi {
            eprintln!("smpx: {} registered queries on one shared automaton", query_sets.len());
        }
    }

    // One output writer; inputs concatenate into it in order. No operand
    // at all is pure pipe mode: stdin through the streaming window
    // (`open_source` owns the prefetch policy).
    let Some(mut out) = open_sink(args.output.as_deref()) else {
        return ExitCode::FAILURE;
    };
    let eng = Engine { frozen: &frozen, multi, generation: None };
    let stdin = ["-".to_string()];
    let inputs = if args.inputs.is_empty() { &stdin[..] } else { &args.inputs[..] };
    let Ok(results) = run_inputs(&eng, inputs, &args, &mut out) else {
        return ExitCode::FAILURE;
    };
    if let Err(e) = out.flush() {
        eprintln!("smpx: {e}");
        return ExitCode::FAILURE;
    }

    // Per-file verdict column (multi-query mode), in input order.
    results.iter().for_each(|row| print_verdict(row, ""));

    if args.stats {
        // Totals accumulate on this thread from the input-ordered rows —
        // per-file attribution and the sums are identical whatever the
        // completion order was.
        let mut total = RunStats::default();
        for row in &results {
            print_stats(&row.label, args.tag(row.route), &row.stats);
            total.accumulate(&row.stats);
        }
        if results.len() > 1 {
            print_stats("total", total_tag(&args, &results), &total);
            // The workload size belongs on the total row: one shared pass
            // answered this many queries per document.
            eprintln!(
                "smpx: total: {} quer{} per document in one pass",
                query_count,
                if query_count == 1 { "y" } else { "ies" }
            );
        }
    }

    // Machine-readable twin of the `--stats` rows: one JSON object per
    // input plus a total row, same fields, same tag semantics.
    if let Some(path) = &args.stats_json {
        let mut sink = JsonSink::to_path(path.clone());
        let mut total = RunStats::default();
        for row in &results {
            stats_json_row(&mut sink, &row.label, args.tag(row.route), &row.stats);
            total.accumulate(&row.stats);
        }
        if results.len() > 1 {
            stats_json_row(&mut sink, "total", total_tag(&args, &results), &total);
        }
        if let Err(e) = sink.flush() {
            eprintln!("smpx: --stats-json: {e}");
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}
