//! The end-to-end section: the release `smpx` binary exec to exit, and the
//! same bytes and query through the library in-process, one command at a
//! time (closed loop, one client), every output checked against the
//! oracle after its timer stopped.

use crate::child;
use crate::corpus::{Corpus, Doc, Pin, DTD_FILE};
use crate::oracle::{verdict_line, Expected, ExpectedCmd};
use crate::stats::{geomean, median, GIB, MIB};
use crate::trace::{read_child_metrics, Tracer};
use crate::workloads::{Command, LibRoute, Workload};
use smpx_core::runtime::source::{DocSource, MmapSource, ReaderSource};
use smpx_core::runtime::DEFAULT_CHUNK;
use smpx_core::{CoreError, MultiPrefilter, MultiVerdict, Prefilter, QueryRegistry, RunStats};
use smpx_dtd::Dtd;
use std::cell::{Cell, RefCell};
use std::io::{Read, Write};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Operations attempted and failed. An operation is one CLI invocation or
/// one library run; it fails on a non-zero exit, a panic message on
/// stderr, an output that is not byte-identical to the oracle's, or a
/// verdict that differs from the single-query runs.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub messages: Vec<String>,
}

impl Tally {
    fn record(&mut self, problems: Vec<String>) {
        self.attempted += 1;
        if !problems.is_empty() {
            self.failed += 1;
            if self.messages.len() < 8 {
                self.messages.push(problems.join("; "));
            }
        }
    }

    pub fn fail_share(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// A compiled command, ready to run through the library.
pub enum Engine {
    Single(Prefilter),
    Multi(MultiPrefilter),
}

impl Engine {
    pub fn prefilter(&self) -> &Prefilter {
        match self {
            Engine::Single(pf) => pf,
            Engine::Multi(mp) => mp.prefilter(),
        }
    }

    /// One document through this engine, whichever kind it is.
    pub fn run<S: DocSource, W: Write>(&mut self, src: S, out: W) -> Result<RunStats, CoreError> {
        match self {
            Engine::Single(pf) => pf.filter_source(src, out),
            Engine::Multi(mp) => mp.run_multi(src, out).map(|(_, _, stats)| stats),
        }
    }
}

/// From DTD text and query text to a ready automaton: exactly the work
/// `setup_s` times, `lib_mibs` excludes and `cli_mibs` includes. The
/// registry hides its matcher caches, so for a multi-query command the
/// matchers of every state are built on a worker minted from the same
/// tables.
pub fn setup(dtd_text: &str, cmd: &Command, tr: &mut Tracer) -> Result<Engine, String> {
    let dtd =
        tr.span("dtd.parse", |_| Dtd::parse(dtd_text.as_bytes())).map_err(|e| e.to_string())?;
    let mut sets = tr.span("paths.parse", |_| cmd.query.path_sets())?;
    if cmd.lib == LibRoute::Multi {
        let mp = tr
            .span("compile.tables", |_| {
                let mut registry = QueryRegistry::new(dtd);
                for set in sets {
                    registry.add_paths(set);
                }
                registry.compile()
            })
            .map_err(|e| e.to_string())?;
        tr.span("compile.matchers", |_| mp.freeze().worker().precompile_matchers());
        Ok(Engine::Multi(mp))
    } else {
        let paths = sets.pop().ok_or("a command needs a query")?;
        let mut pf = tr
            .span("compile.tables", |_| Prefilter::compile(&dtd, &paths))
            .map_err(|e| e.to_string())?;
        tr.span("compile.matchers", |_| pf.precompile_matchers());
        Ok(Engine::Single(pf))
    }
}

/// Seconds one full set-up of every command of the workload takes.
pub fn setup_once(w: &Workload, corpus: &Corpus) -> Result<f64, String> {
    let mut tr = Tracer::new(false);
    let start = Instant::now();
    for cmd in &w.commands {
        std::hint::black_box(setup(corpus.dtd_text, cmd, &mut tr)?);
    }
    Ok(start.elapsed().as_secs_f64())
}

/// Output buffers of the library runs, reused across passes so that after
/// the warm-up pass they are sized and no run pays for growth.
#[derive(Default)]
pub struct Buffers {
    pub out: Vec<u8>,
    parts: Vec<Vec<u8>>,
}

/// Appends to one shared buffer: the sink of every document of a
/// sequential batch.
struct Appender<'a>(&'a RefCell<Vec<u8>>);

impl Write for Appender<'_> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.borrow_mut().extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

pub struct LibOutcome {
    pub wall_s: f64,
    pub stats: RunStats,
    pub verdict: Option<String>,
}

fn render_verdict(v: &MultiVerdict) -> String {
    let ids: Vec<u32> = v.matched_ids().iter().map(|q| q.0).collect();
    verdict_line(&ids, v.n_queries)
}

fn open_reader(path: &Path) -> Result<ReaderSource<std::fs::File>, CoreError> {
    Ok(ReaderSource::new(std::fs::File::open(path)?, DEFAULT_CHUNK))
}

/// `run_batch` over sources opened one at a time inside the timer.
fn run_batch<S: DocSource>(
    pf: &mut Prefilter,
    docs: &[Doc],
    corpus: &Corpus,
    out: &mut Vec<u8>,
    open: impl Fn(&Path) -> Result<S, CoreError>,
) -> Result<(f64, RunStats), String> {
    let sink = RefCell::new(std::mem::take(out));
    let open_error = Cell::new(None);
    let start = Instant::now();
    let batch = docs.iter().map_while(|d| match open(&corpus.abs(d)) {
        Ok(src) => Some((src, Appender(&sink))),
        Err(e) => {
            open_error.set(Some(format!("{}: {e}", d.rel)));
            None
        }
    });
    let done = pf.run_batch(batch);
    let wall_s = start.elapsed().as_secs_f64();
    let mut total = RunStats::default();
    let done = done.map(|rows| rows.iter().for_each(|(_, stats)| total.accumulate(stats)));
    *out = sink.into_inner();
    if let Some(e) = open_error.take() {
        return Err(e);
    }
    done.map_err(|e| e.to_string())?;
    Ok((wall_s, total))
}

/// Open one source and run over it, both inside the timer, each in its
/// span.
fn timed_run<S, R>(
    tr: &mut Tracer,
    open: impl FnOnce() -> Result<S, CoreError>,
    run: impl FnOnce(S) -> Result<R, CoreError>,
) -> Result<(f64, R), String> {
    let start = Instant::now();
    let src = tr.span("source.open", |_| open()).map_err(|e| e.to_string())?;
    let r = tr.span("runtime.filter", |_| run(src)).map_err(|e| e.to_string())?;
    Ok((start.elapsed().as_secs_f64(), r))
}

/// One library run of `cmd`: the source is opened inside the timer, the
/// projection lands in `bufs.out`.
pub fn lib_run(
    engine: &mut Engine,
    cmd: &Command,
    corpus: &Corpus,
    bufs: &mut Buffers,
    tr: &mut Tracer,
) -> Result<LibOutcome, String> {
    let docs = corpus.inputs(cmd.input);
    let first = corpus.abs(&docs[0]);
    let out = &mut bufs.out;
    out.clear();
    let mut verdict = None;
    let (wall_s, mut stats) = match (engine, cmd.lib) {
        (Engine::Single(pf), LibRoute::Mmap) => {
            timed_run(tr, || MmapSource::open(&first), |src| pf.filter_source(src, out))?
        }
        (Engine::Single(pf), LibRoute::Reader) => {
            timed_run(tr, || open_reader(&first), |src| pf.filter_source(src, out))?
        }
        (Engine::Single(pf), LibRoute::BatchReader) => {
            tr.span("runtime.filter", |_| run_batch(pf, docs, corpus, out, open_reader))?
        }
        (Engine::Single(pf), LibRoute::BatchMmap) => tr.span("runtime.filter", |_| {
            run_batch(pf, docs, corpus, out, |p| MmapSource::open(p))
        })?,
        (Engine::Multi(mp), LibRoute::Multi) => {
            let run = |src| mp.run_multi(src, out).map(|(_, v, stats)| (v, stats));
            let (wall_s, (v, stats)) = timed_run(tr, || MmapSource::open(&first), run)?;
            verdict = Some(render_verdict(&v));
            (wall_s, stats)
        }
        (Engine::Single(pf), LibRoute::Sharded) => {
            let run = |src| pf.run_sharded(src, out, 2, 0).map(|(_, stats)| stats);
            timed_run(tr, || MmapSource::open(&first), run)?
        }
        (Engine::Single(pf), LibRoute::PoolBatch) => {
            bufs.parts.resize_with(docs.len(), Vec::new);
            bufs.parts.iter_mut().for_each(Vec::clear);
            let parts = &mut bufs.parts;
            let start = Instant::now();
            let srcs = tr
                .span("source.open", |_| {
                    docs.iter()
                        .map(|d| MmapSource::open(corpus.abs(d)))
                        .collect::<Result<Vec<_>, _>>()
                })
                .map_err(|e| e.to_string())?;
            let done = tr
                .span("runtime.filter", |_| {
                    pf.run_batch_parallel(srcs.into_iter().zip(parts.iter_mut()), 2)
                })
                .map_err(|e| e.to_string())?;
            let wall_s = start.elapsed().as_secs_f64();
            let mut total = RunStats::default();
            done.iter().for_each(|(_, stats)| total.accumulate(stats));
            drop(done);
            parts.iter().for_each(|p| out.extend_from_slice(p));
            (wall_s, total)
        }
        (Engine::Single(_), LibRoute::Multi) | (Engine::Multi(_), _) => {
            return Err(format!("{}: engine and library route disagree", cmd.name))
        }
    };
    // Reader-delivered runs cannot know their length up front.
    if stats.input_bytes == 0 {
        stats.input_bytes = corpus.input_bytes(cmd.input);
    }
    Ok(LibOutcome { wall_s, stats, verdict })
}

/// What a checked operation produced, against what it had to produce.
fn problems(
    what: &str,
    got: Pin,
    verdict: Option<&str>,
    expected: &ExpectedCmd,
    check_verdict: bool,
) -> Vec<String> {
    let mut out = Vec::new();
    if got != expected.out {
        out.push(format!(
            "{what}: output differs from the oracle ({} bytes, hash {:016x}; expected {} bytes, hash {:016x})",
            got.len, got.hash, expected.out.len, expected.out.hash
        ));
    }
    if check_verdict && verdict != expected.verdict.as_deref() {
        out.push(format!(
            "{what}: verdict {:?} differs from the single-query runs {:?}",
            verdict, expected.verdict
        ));
    }
    out
}

pub struct Cli {
    pub smpx: PathBuf,
    /// Spawns the timed children, so that their peak resident set is
    /// their own (see `child`).
    pub spawner: RefCell<child::Spawner>,
}

/// The verdict lines of a multi-query run, as `K/N queries […]` per file.
fn cli_verdict(stderr: &str) -> Option<String> {
    let lines: Vec<&str> =
        stderr.lines().filter_map(|l| l.split_once(": matched ").map(|(_, v)| v)).collect();
    (!lines.is_empty()).then(|| lines.join("\n"))
}

impl Cli {
    /// `--dtd` and the query of `cmd`: the start of every command line.
    pub fn query_args(cmd: &Command) -> Vec<String> {
        let mut args = vec!["--dtd".to_string(), DTD_FILE.to_string()];
        args.extend(cmd.query.cli_args());
        args
    }

    /// The `smpx` command line of `cmd`, relative to the work directory so
    /// that thousands of inputs stay a short argument list.
    pub fn args(
        cmd: &Command,
        corpus: &Corpus,
        out_rel: &str,
        metrics: Option<&str>,
    ) -> Vec<String> {
        let mut args = Cli::query_args(cmd);
        args.extend(cmd.flags.iter().cloned());
        args.extend(corpus.inputs(cmd.input).iter().map(|d| d.rel.clone()));
        args.extend(["-o".to_string(), out_rel.to_string()]);
        if let Some(m) = metrics {
            args.extend(["--metrics".to_string(), m.to_string()]);
        }
        args
    }

    /// Spawn to exit, then read the projection back and check it. The
    /// output file is removed once checked, so its dirty pages never
    /// reach the disk and writeback does not disturb later runs.
    pub fn run(
        &self,
        cmd: &Command,
        corpus: &Corpus,
        expected: &ExpectedCmd,
        scratch: &mut Vec<u8>,
        tally: &mut Tally,
        tr: &mut Tracer,
    ) -> Result<child::Exit, String> {
        let out_rel = format!("out/{}.xml", cmd.name);
        let metrics_rel = tr.is_on().then(|| format!("out/{}.metrics.json", cmd.name));
        let args = Cli::args(cmd, corpus, &out_rel, metrics_rel.as_deref());
        let exit = tr.span("cli.exec", |tr| {
            let exit = self.spawner.borrow_mut().run(&self.smpx, &args, &corpus.dir, cmd.cpus);
            if let Some(m) = metrics_rel {
                tr.attach(read_child_metrics(&corpus.dir.join(m)));
            }
            exit
        });
        let exit = exit.map_err(|e| format!("cannot run {}: {e}", self.smpx.display()))?;
        let what = format!("cli {}", cmd.name);
        let found = tr.span("verify", |_| {
            let mut found = Vec::new();
            if !exit.success {
                found.push(format!("{what}: non-zero exit: {}", exit.stderr.trim()));
            }
            if exit.stderr.contains("panicked") {
                found.push(format!("{what}: panic on stderr: {}", exit.stderr.trim()));
            }
            scratch.clear();
            let out_path = corpus.dir.join(&out_rel);
            match std::fs::File::open(&out_path).and_then(|mut f| f.read_to_end(scratch)) {
                Ok(_) => found.extend(problems(
                    &what,
                    Pin::of(scratch),
                    cli_verdict(&exit.stderr).as_deref(),
                    expected,
                    // A single query prints no verdict line.
                    cmd.query.is_multi(),
                )),
                Err(e) => found.push(format!("{what}: no output file: {e}")),
            }
            let _ = std::fs::remove_file(&out_path);
            found
        });
        tally.record(found);
        Ok(exit)
    }
}

/// Per-pass samples of one command, as measured.
#[derive(Default)]
pub struct CmdSamples {
    pub cli_wall_s: Vec<f64>,
    pub cli_cpu_s: Vec<f64>,
    pub cli_rss_kib: Vec<f64>,
    pub lib_wall_s: Vec<f64>,
    pub stats: RunStats,
    pub input_bytes: u64,
    pub output_bytes: u64,
}

/// Everything the pass loop sampled.
pub struct Passes {
    pub commands: Vec<CmdSamples>,
    /// Seconds of one full set-up of every command, per pass.
    pub setup_s: Vec<f64>,
}

/// How long the pass loop runs.
#[derive(Clone, Copy)]
pub enum Budget {
    Passes(usize),
    Seconds(f64),
}

/// Everything the pass loop works on.
pub struct Bench<'a> {
    pub cli: &'a Cli,
    pub w: &'a Workload,
    pub corpus: &'a Corpus,
    pub expected: &'a Expected,
    pub engines: Vec<Engine>,
    pub bufs: Buffers,
    pub scratch: Vec<u8>,
    pub tally: Tally,
}

impl<'a> Bench<'a> {
    pub fn new(
        cli: &'a Cli,
        w: &'a Workload,
        corpus: &'a Corpus,
        expected: &'a Expected,
    ) -> Result<Bench<'a>, String> {
        let mut tr = Tracer::new(false);
        let engines = w
            .commands
            .iter()
            .map(|c| setup(corpus.dtd_text, c, &mut tr))
            .collect::<Result<_, _>>()?;
        Ok(Bench {
            cli,
            w,
            corpus,
            expected,
            engines,
            bufs: Buffers::default(),
            scratch: Vec::new(),
            tally: Tally::default(),
        })
    }

    fn expected_cmd(&self, i: usize) -> Result<&'a ExpectedCmd, String> {
        let name = &self.w.commands[i].name;
        self.expected.command(name).ok_or_else(|| format!("no expectation for command {name}"))
    }

    /// One checked library run of command `i`.
    pub fn lib_op(&mut self, i: usize, tr: &mut Tracer) -> Result<LibOutcome, String> {
        let cmd = &self.w.commands[i];
        let expected = self.expected_cmd(i)?;
        let run = lib_run(&mut self.engines[i], cmd, self.corpus, &mut self.bufs, tr);
        let what = format!("lib {}", cmd.name);
        match run {
            Ok(outcome) => {
                let found = tr.span("verify", |_| {
                    problems(
                        &what,
                        Pin::of(&self.bufs.out),
                        outcome.verdict.as_deref(),
                        expected,
                        cmd.lib == LibRoute::Multi,
                    )
                });
                self.tally.record(found);
                Ok(outcome)
            }
            Err(e) => {
                // The run itself failed: a failed operation with no
                // timing. The caller decides whether it can go on.
                self.tally.record(vec![format!("{what}: {e}")]);
                Err(format!("{what}: {e}"))
            }
        }
    }

    /// One checked CLI invocation of command `i`.
    pub fn cli_op(&mut self, i: usize, tr: &mut Tracer) -> Result<child::Exit, String> {
        let expected = self.expected_cmd(i)?;
        self.cli.run(
            &self.w.commands[i],
            self.corpus,
            expected,
            &mut self.scratch,
            &mut self.tally,
            tr,
        )
    }

    /// The pass loop. A pass runs every command once through the CLI and
    /// once through the library, in order, then sets every command up
    /// once; passes repeat round-robin so drift hits all commands alike
    /// and the set-up repetitions spread over the whole run. The first
    /// pass warms caches and sizes buffers and is not sampled.
    /// `after_pass` runs at the end of every sampled pass.
    pub fn measure(
        &mut self,
        budget: Budget,
        mut after_pass: impl FnMut() -> Result<(), String>,
    ) -> Result<Passes, String> {
        let mut tr = Tracer::new(false);
        let n = self.w.commands.len();
        let mut samples: Vec<CmdSamples> = (0..n).map(|_| CmdSamples::default()).collect();
        let mut setup_s = Vec::new();
        let mut start = Instant::now();
        let mut pass = 0;
        loop {
            for (i, s) in samples.iter_mut().enumerate() {
                let cli = self.cli_op(i, &mut tr)?;
                if pass > 0 {
                    s.cli_wall_s.push(cli.wall_s);
                    s.cli_cpu_s.push(cli.cpu_s);
                    s.cli_rss_kib.push(cli.max_rss_kib as f64);
                }
            }
            for (i, s) in samples.iter_mut().enumerate() {
                let lib = self.lib_op(i, &mut tr)?;
                if pass > 0 {
                    s.lib_wall_s.push(lib.wall_s);
                }
                s.stats = lib.stats;
                s.input_bytes = self.corpus.input_bytes(self.w.commands[i].input);
                s.output_bytes = self.bufs.out.len() as u64;
            }
            let seconds = setup_once(self.w, self.corpus)?;
            if pass > 0 {
                setup_s.push(seconds);
                after_pass()?;
            }
            if pass == 0 {
                // The budget covers sampled passes only.
                start = Instant::now();
            }
            pass += 1;
            let done = match budget {
                Budget::Passes(p) => pass > p,
                Budget::Seconds(s) => pass > 3 && start.elapsed().as_secs_f64() >= s,
            };
            if done {
                return Ok(Passes { commands: samples, setup_s });
            }
        }
    }
}

/// The per-pass and final values of the end-to-end metrics.
pub struct EndToEnd {
    pub cli_mibs: f64,
    pub lib_mibs: f64,
    pub cpu_s_per_gib: f64,
    pub peak_rss_mib: f64,
    pub setup_s: f64,
    /// Per-pass values of each, for `compare`'s spread.
    pub per_pass: Vec<(&'static str, Vec<f64>)>,
}

/// Per command the value is the median over passes; per workload a
/// throughput is the geometric mean of its commands' medians. CPU time
/// sums and resident set peaks over the children of a pass; set-up is the
/// median over passes.
pub fn summarize(measured: &Passes) -> EndToEnd {
    let samples = &measured.commands[..];
    let passes = samples.iter().map(|s| s.cli_wall_s.len()).min().unwrap_or(0);
    let mib = |s: &CmdSamples| s.input_bytes as f64 / MIB;
    let gib: f64 = samples.iter().map(|s| s.input_bytes as f64 / GIB).sum();
    let throughput = |times: &dyn Fn(&CmdSamples) -> &[f64]| {
        geomean(&samples.iter().map(|s| mib(s) / median(times(s))).collect::<Vec<_>>())
    };
    let per_pass = |f: &dyn Fn(usize) -> f64| (0..passes).map(f).collect::<Vec<f64>>();
    let pass_throughput = |times: &dyn Fn(&CmdSamples) -> &[f64], p: usize| {
        geomean(&samples.iter().map(|s| mib(s) / times(s)[p]).collect::<Vec<_>>())
    };
    let cli = per_pass(&|p| pass_throughput(&|s| &s.cli_wall_s, p));
    let lib = per_pass(&|p| pass_throughput(&|s| &s.lib_wall_s, p));
    let cpu = per_pass(&|p| samples.iter().map(|s| s.cli_cpu_s[p]).sum::<f64>() / gib);
    let rss = per_pass(&|p| samples.iter().map(|s| s.cli_rss_kib[p]).fold(0.0, f64::max) / 1024.0);
    EndToEnd {
        cli_mibs: throughput(&|s| &s.cli_wall_s),
        lib_mibs: throughput(&|s| &s.lib_wall_s),
        cpu_s_per_gib: median(&cpu),
        peak_rss_mib: median(&rss),
        setup_s: median(&measured.setup_s),
        per_pass: vec![
            ("cli_mibs", cli),
            ("lib_mibs", lib),
            ("cpu_s_per_gib", cpu),
            ("peak_rss_mib", rss),
            ("setup_s", measured.setup_s.clone()),
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cli_verdict_lines_are_cut_from_stderr() {
        let stderr = "smpx: doc.xml: matched 2/10 queries [q0 q3]\nsmpx: other noise\n";
        assert_eq!(cli_verdict(stderr).as_deref(), Some("2/10 queries [q0 q3]"));
        assert_eq!(cli_verdict("smpx: nothing here\n"), None);
    }

    #[test]
    fn a_wrong_hash_or_verdict_is_a_problem() {
        let want =
            ExpectedCmd { out: Pin { len: 3, hash: 9 }, verdict: Some("1/1 queries [q0]".into()) };
        assert!(problems("x", want.out, Some("1/1 queries [q0]"), &want, true).is_empty());
        assert_eq!(problems("x", Pin { len: 3, hash: 8 }, None, &want, false).len(), 1);
        assert_eq!(problems("x", want.out, Some("0/1 queries []"), &want, true).len(), 1);
        assert_eq!(problems("x", want.out, None, &want, true).len(), 1);
    }

    #[test]
    fn the_tally_counts_failed_operations() {
        let mut t = Tally::default();
        t.record(vec![]);
        t.record(vec!["bad".into()]);
        assert_eq!((t.attempted, t.failed), (2, 1));
        assert_eq!(t.fail_share(), 0.5);
        assert_eq!(t.messages, ["bad"]);
    }

    #[test]
    fn summaries_take_medians_per_command_then_the_geometric_mean() {
        let cmd = |wall: &[f64]| CmdSamples {
            cli_wall_s: wall.to_vec(),
            cli_cpu_s: vec![0.5; wall.len()],
            cli_rss_kib: vec![2048.0, 4096.0, 2048.0],
            lib_wall_s: wall.iter().map(|w| w / 2.0).collect(),
            input_bytes: 1 << 30,
            ..CmdSamples::default()
        };
        let e = summarize(&Passes {
            commands: vec![cmd(&[1.0, 2.0, 3.0]), cmd(&[4.0, 8.0, 100.0])],
            setup_s: vec![0.4, 0.2, 0.9],
        });
        // Medians 2 s and 8 s over 1024 MiB: 512 and 128 MiB/s.
        assert!((e.cli_mibs - 256.0).abs() < 1e-9);
        assert!((e.lib_mibs - 512.0).abs() < 1e-9);
        assert!((e.cpu_s_per_gib - 0.5).abs() < 1e-9);
        assert!((e.peak_rss_mib - 2.0).abs() < 1e-9);
        assert!((e.setup_s - 0.4).abs() < 1e-9);
        assert_eq!(e.per_pass[0].1.len(), 3);
    }
}
