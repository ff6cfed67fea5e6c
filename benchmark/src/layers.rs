//! The per-layer probes. Layers are this repository's modules; each is
//! measured from outside, by timing calls into its public functions over
//! the workload's own DTD, queries and documents, and by reading counters
//! the program already exports. The rows that need the program's `obs`
//! switch on come from the traced passes at the end.

use crate::child;
use crate::corpus::{Corpus, Doc};
use crate::e2e::{setup, Bench, Cli, CmdSamples, Engine};
use crate::stats::{geomean, median, percentile_with_ten_beyond, GIB, MIB};
use crate::trace::{counter_sum, Span, Tracer};
use crate::workloads::{standing_queries, Command, Dataset, LibRoute, Workload};
use smpx_baselines::sax;
use smpx_core::compile::compile_counted;
use smpx_core::runtime::source::{
    DocSource, MmapSource, PrefetchSource, ReaderSource, SliceSource,
};
use smpx_core::runtime::DEFAULT_CHUNK;
use smpx_core::{CoreError, MultiVerdict, Prefilter, QueryRegistry, RunStats, SharedPrefilter};
use smpx_dtd::Dtd;
use smpx_paths::PathSet;
use smpx_stringmatch::{memscan, BoyerMoore, CommentzWalter, Kmp, NoMetrics};
use std::borrow::Cow;
use std::io::Write;
use std::time::Instant;

/// Repetitions of a probe over the corpus, and of one that takes
/// microseconds.
const REPS: usize = 3;
const SMALL_REPS: usize = 31;
/// Repetitions of each side of a ratio row, the two sides alternating.
const PAIR_REPS: usize = 5;
/// The drift gauges run code no change should touch, once per pass; an
/// 8 MiB prefix keeps them to a twentieth of a pass.
const GAUGE_BYTES: usize = 8 << 20;

pub type Rows = Vec<(&'static str, f64)>;

fn seconds<R>(f: impl FnOnce() -> R) -> (f64, R) {
    let start = Instant::now();
    let r = f();
    (start.elapsed().as_secs_f64(), r)
}

/// Median seconds of `reps` runs of `f`, and its last result.
fn timed<R>(reps: usize, mut f: impl FnMut() -> Result<R, String>) -> Result<(f64, R), String> {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps {
        let (t, r) = seconds(&mut f);
        times.push(t);
        last = Some(r?);
    }
    Ok((median(&times), last.expect("at least one repetition")))
}

/// The two sides of a comparison, run alternately so that host drift hits
/// both alike: median seconds of each and the last result of each.
/// `f` is called with the side, 0 or 1.
fn timed_sides<R>(
    reps: usize,
    mut f: impl FnMut(usize) -> Result<R, String>,
) -> Result<([f64; 2], [R; 2]), String> {
    let mut times = [Vec::with_capacity(reps), Vec::with_capacity(reps)];
    let mut last = [None, None];
    for _ in 0..reps {
        for side in 0..2 {
            let (t, r) = seconds(|| f(side));
            times[side].push(t);
            last[side] = Some(r?);
        }
    }
    let [a, b] = last.map(|r| r.expect("at least one repetition"));
    Ok(([median(&times[0]), median(&times[1])], [a, b]))
}

fn core_err(e: CoreError) -> String {
    e.to_string()
}

/// Every document of `docs` through `engine` from memory, projections
/// appended to `out`.
fn slice_run(engine: &mut Engine, docs: &[Doc], mut out: impl Write) -> Result<RunStats, String> {
    let mut total = RunStats::default();
    for d in docs {
        total.accumulate(&engine.run(SliceSource::new(&d.bytes), &mut out).map_err(core_err)?);
    }
    Ok(total)
}

/// The bytes the flat string-matching probes scan: the big document, or
/// the batch end to end.
fn haystack(corpus: &Corpus) -> Cow<'_, [u8]> {
    match &corpus.doc {
        Some(d) => Cow::Borrowed(&d.bytes),
        None => Cow::Owned(corpus.batch.iter().flat_map(|d| d.bytes.iter().copied()).collect()),
    }
}

/// `hay` cut after the last tag that ends within `max` bytes.
fn prefix(hay: &[u8], max: usize) -> &[u8] {
    let cut = &hay[..hay.len().min(max)];
    &cut[..cut.iter().rposition(|&b| b == b'>').map_or(0, |i| i + 1)]
}

/// The distinct keywords of the commands' automatons, most frequent first
/// (counted over the first 4 MiB).
fn keywords(bench: &Bench, hay: &[u8]) -> Vec<Vec<u8>> {
    let mut all: Vec<Vec<u8>> = bench
        .engines
        .iter()
        .flat_map(|e| e.prefilter().tables().states.iter())
        .flat_map(|s| s.keywords.iter().map(|k| k.bytes.clone()))
        .collect();
    all.sort();
    all.dedup();
    let sample = &hay[..hay.len().min(4 << 20)];
    let mut counted: Vec<(usize, Vec<u8>)> =
        all.into_iter().map(|k| (BoyerMoore::new(&k).find_iter(sample).count(), k)).collect();
    counted.sort_by(|a, b| b.0.cmp(&a.0).then_with(|| a.1.cmp(&b.1)));
    counted.into_iter().map(|(_, k)| k).collect()
}

/// The two host-drift gauges: `Kmp` for the commands' most frequent keyword
/// and the SAX baseline, over a prefix of the workload's corpus. They are
/// sampled once per pass, beside the operations they are read against, so
/// that `compare` can tell a moved host from moved code: a reading taken
/// once, after the passes, sits in whatever state the host is in that
/// second.
pub struct Gauges {
    hay: Vec<u8>,
    kmp: Kmp,
    kmp_s: Vec<f64>,
    sax_s: Vec<f64>,
}

impl Gauges {
    pub fn new(bench: &Bench) -> Result<Gauges, String> {
        let hay = haystack(bench.corpus);
        let kws = keywords(bench, &hay);
        let frequent = kws.first().ok_or("the workload's automatons have no keyword")?;
        Ok(Gauges {
            hay: prefix(&hay, GAUGE_BYTES).to_vec(),
            kmp: Kmp::new(frequent),
            kmp_s: Vec::new(),
            sax_s: Vec::new(),
        })
    }

    /// One reading of each gauge.
    pub fn sample(&mut self) -> Result<(), String> {
        let (t, _) = seconds(|| {
            let (mut from, mut hits) = (0, 0u64);
            while let Some(at) = self.kmp.find_at(&self.hay, from, &mut NoMetrics) {
                hits += 1;
                from = at + 1;
            }
            std::hint::black_box(hits)
        });
        self.kmp_s.push(t);
        let (t, parsed) = seconds(|| sax::parse_lenient(&self.hay));
        parsed.map_err(|e| format!("sax baseline: {e}"))?;
        self.sax_s.push(t);
        Ok(())
    }

    /// Medians over the passes, as throughput.
    pub fn rows(&self) -> Rows {
        let mib = self.hay.len() as f64 / MIB;
        vec![
            ("stringmatch.kmp_mibs", mib / median(&self.kmp_s)),
            ("baselines.sax_mibs", mib / median(&self.sax_s)),
        ]
    }
}

fn setup_rows(w: &Workload, corpus: &Corpus, reps: usize) -> Result<Rows, String> {
    let text = corpus.dtd_text.as_bytes();
    let dtd = Dtd::parse(text).map_err(|e| e.to_string())?;
    let (dtd_s, _) = timed(SMALL_REPS, || Dtd::parse(text).map_err(|e| e.to_string()))?;
    let (paths_s, sets) = timed(SMALL_REPS, || {
        w.commands.iter().map(|c| c.query.path_sets()).collect::<Result<Vec<_>, _>>()
    })?;
    let (mut tables_s, mut matchers_s) = (Vec::new(), Vec::new());
    let (mut states, mut cw, mut bm, mut memory) = (0, 0, 0, 0);
    for rep in 0..reps {
        let (mut t_tables, mut t_matchers) = (0.0, 0.0);
        for (c, sets) in w.commands.iter().zip(&sets) {
            let (t, pf) = seconds(|| match c.lib {
                LibRoute::Multi => Prefilter::compile_multi(&dtd, sets),
                _ => compile_counted(&dtd, &sets[0]).map(|(t, _)| Prefilter::from_tables(t)),
            });
            let mut pf = pf.map_err(core_err)?;
            t_tables += t;
            t_matchers += seconds(|| pf.precompile_matchers()).0;
            if rep == 0 {
                states += pf.tables().state_count();
                cw += pf.tables().cw_states();
                bm += pf.tables().bm_states();
                memory += pf.memory_bytes();
            }
        }
        tables_s.push(t_tables);
        matchers_s.push(t_matchers);
    }
    Ok(vec![
        ("dtd.parse_us", dtd_s * 1e6),
        ("paths.parse_us", paths_s * 1e6),
        ("compile.tables_ms", median(&tables_s) * 1e3),
        ("compile.matchers_ms", median(&matchers_s) * 1e3),
        ("compile.states", states as f64),
        ("compile.cw_states", cw as f64),
        ("compile.bm_states", bm as f64),
        ("compile.memory_kib", memory as f64 / 1024.0),
    ])
}

fn stringmatch_rows(hay: &[u8], kws: &[Vec<u8>]) -> Result<Rows, String> {
    let mib = hay.len() as f64 / MIB;
    // A NUL byte occurs in no XML document: the scan reads every byte.
    let (ceiling, _) = timed(REPS, || Ok(std::hint::black_box(memscan::find_byte(hay, 0, 0))))?;
    let bm = BoyerMoore::new(&kws[0]);
    let (t_bm, _) = timed(REPS, || Ok(std::hint::black_box(bm.find_iter(hay).count())))?;
    let cw = CommentzWalter::new(kws);
    let (t_cw, _) = timed(REPS, || Ok(std::hint::black_box(cw.find_iter(hay).count())))?;
    Ok(vec![
        ("stringmatch.ceiling_mibs", mib / ceiling),
        ("stringmatch.bm_mibs", mib / t_bm),
        ("stringmatch.cw_mibs", mib / t_cw),
    ])
}

/// Search, tag end and transition with no delivery and no emit (`sink()`),
/// then the same into a reused buffer: the difference is emit. Returns the
/// two run alternately.
fn runtime_rows(bench: &mut Bench) -> Result<Rows, String> {
    let (mut emit_s, mut mibs) = (0.0, Vec::new());
    let mut total = RunStats::default();
    let mut buf = std::mem::take(&mut bench.bufs.out);
    for (c, engine) in bench.w.commands.iter().zip(&mut bench.engines) {
        let docs = bench.corpus.inputs(c.input);
        let ([t_sink, t_buf], [stats, _]) = timed_sides(PAIR_REPS, |side| {
            if side == 0 {
                return slice_run(engine, docs, std::io::sink());
            }
            buf.clear();
            slice_run(engine, docs, &mut buf)
        })?;
        mibs.push(bench.corpus.input_bytes(c.input) as f64 / MIB / t_sink);
        emit_s += t_buf - t_sink;
        total.accumulate(&RunStats { input_bytes: bench.corpus.input_bytes(c.input), ..stats });
    }
    bench.bufs.out = buf;
    let input = total.input_bytes as f64;
    let matched = (total.tokens_matched + total.false_matches).max(1) as f64;
    let rows = vec![
        ("runtime.scan_mibs", geomean(&mibs)),
        ("runtime.emit_ms_per_gib", emit_s * 1e3 / (input / GIB)),
        ("runtime.char_comp_pct", total.char_comp_pct()),
        ("runtime.scanned_pct", total.scanned_pct()),
        ("runtime.initial_jump_pct", total.initial_jumps_pct()),
        ("runtime.avg_shift", total.avg_shift()),
        ("runtime.tokens_per_mib", total.tokens_matched as f64 / (input / MIB)),
        ("runtime.false_match_share", total.false_matches as f64 / matched),
        ("runtime.output_pct", 100.0 * total.projection_ratio()),
    ];
    Ok(rows)
}

/// Throughput of every command over the corpus files through one kind of
/// source at `DEFAULT_CHUNK`, into `sink()`; a kind's delivery cost is its
/// time minus `runtime.scan_mibs`' time.
fn source_mibs<S: DocSource>(
    bench: &mut Bench,
    open: impl Fn(&std::path::Path) -> Result<S, CoreError>,
) -> Result<f64, String> {
    let mut mibs = Vec::new();
    for (c, engine) in bench.w.commands.iter().zip(&mut bench.engines) {
        let (t, _) = timed(REPS, || {
            for d in bench.corpus.inputs(c.input) {
                let src = open(&bench.corpus.abs(d)).map_err(core_err)?;
                engine.run(src, std::io::sink()).map_err(core_err)?;
            }
            Ok(())
        })?;
        mibs.push(bench.corpus.input_bytes(c.input) as f64 / MIB / t);
    }
    Ok(geomean(&mibs))
}

/// `smpx` reading the primary document from a real pipe. Two threads of
/// the child and the feeding harness share two cores, so this row is
/// noisy; that is why a pipe is a layer row and no workload.
fn stdin_mibs(bench: &mut Bench) -> Result<f64, String> {
    let cmd = &bench.w.commands[0];
    let doc = bench.corpus.primary();
    let mut want = Vec::new();
    bench.engines[0].run(SliceSource::new(&doc.bytes), &mut want).map_err(core_err)?;
    let mut args = Cli::query_args(cmd);
    args.extend(["-o".to_string(), "out/stdin.xml".to_string()]);
    let out_path = bench.corpus.dir.join("out/stdin.xml");
    let (t, _) = timed(REPS, || {
        let exit = child::run(&bench.cli.smpx, &args, &bench.corpus.dir, Some(&doc.bytes))
            .map_err(|e| e.to_string())?;
        let got = std::fs::read(&out_path).map_err(|e| format!("stdin run: {e}"))?;
        let _ = std::fs::remove_file(&out_path);
        if !exit.success || got != want {
            return Err(format!(
                "stdin run of {} differs from the library: {}",
                cmd.name, exit.stderr
            ));
        }
        Ok(())
    })?;
    Ok(doc.pin.len as f64 / MIB / t)
}

fn source_rows(bench: &mut Bench, samples: &[CmdSamples]) -> Result<Rows, String> {
    let window = samples.iter().map(|s| s.stats.io_window_bytes).max().unwrap_or(0);
    Ok(vec![
        ("source.mmap_mibs", source_mibs(bench, |p| MmapSource::open(p))?),
        (
            "source.reader_mibs",
            source_mibs(bench, |p| Ok(ReaderSource::new(std::fs::File::open(p)?, DEFAULT_CHUNK)))?,
        ),
        ("source.prefetch_mibs", source_mibs(bench, |p| PrefetchSource::open(p, DEFAULT_CHUNK))?),
        ("source.io_window_kib", window as f64 / 1024.0),
        ("source.stdin_mibs", stdin_mibs(bench)?),
    ])
}

/// Width-2 library runs against sequential ones on the same inputs: the
/// pooled batch entry over the batch (or over the one document, which the
/// library then shards by itself), and `run_sharded` over the primary
/// document.
fn parallel_rows(bench: &mut Bench) -> Result<Rows, String> {
    let corpus = bench.corpus;
    let batch: &[Doc] = if corpus.batch.is_empty() { corpus.doc.as_slice() } else { &corpus.batch };
    let primary = corpus.primary();
    let (mut batch_x, mut shard_x, mut shards) = (Vec::new(), Vec::new(), 0);
    for engine in &bench.engines {
        let frozen = engine.prefilter().freeze();
        let mut pf = frozen.worker();
        pf.precompile_matchers();
        let sources = || batch.iter().map(|d| (SliceSource::new(&d.bytes), std::io::sink()));
        let ([seq, par], _) = timed_sides(PAIR_REPS, |side| {
            if side == 0 {
                return pf.run_batch(sources()).map(drop).map_err(core_err);
            }
            frozen.run_batch_parallel(sources(), 2).map(drop).map_err(|e| e.to_string())
        })?;
        batch_x.push(seq / par);
        let doc = || SliceSource::new(&primary.bytes);
        let ([seq, par], [_, stats]) = timed_sides(PAIR_REPS, |side| {
            if side == 0 {
                return pf.filter_source(doc(), std::io::sink()).map_err(core_err);
            }
            pf.run_sharded(doc(), std::io::sink(), 2, 0).map(|(_, stats)| stats).map_err(core_err)
        })?;
        shard_x.push(seq / par);
        shards += stats.shards;
    }
    let avail = std::thread::available_parallelism().map_or(1, |n| n.get());
    Ok(vec![
        ("parallel.batch_speedup", geomean(&batch_x)),
        ("parallel.shard_speedup", geomean(&shard_x)),
        ("parallel.shards", shards as f64),
        ("parallel.threads_avail", avail as f64),
    ])
}

/// One automaton for N distinct standing queries over the workload's DTD,
/// and the same set behind the live-edit handle.
fn registry_rows(dataset: Dataset, corpus: &Corpus) -> Result<Rows, String> {
    let dtd = Dtd::parse(corpus.dtd_text.as_bytes()).map_err(|e| e.to_string())?;
    let sets: Vec<PathSet> = standing_queries(dataset, 100)
        .iter()
        .map(|q| smpx_paths::extract::extract_from_text(q).map_err(|e| format!("{q}: {e}")))
        .collect::<Result<_, _>>()?;
    let doc = || SliceSource::new(&corpus.primary().bytes);
    let mib = corpus.primary().pin.len as f64 / MIB;
    let registry = |n: usize| {
        let mut r = QueryRegistry::new(dtd.clone());
        sets.iter().take(n).for_each(|s| {
            r.add_paths(s.clone());
        });
        r
    };
    let matched = |r: Result<(_, MultiVerdict, _), CoreError>| {
        r.map(|(_, verdict, _)| verdict.matched_ids().len()).map_err(core_err)
    };

    // N = 1 against the plain prefilter for the same path set. Here and
    // below one repetition more than elsewhere: the first builds the
    // matchers, and the median drops it.
    let mut one = registry(1).compile().map_err(core_err)?;
    let mut plain = Prefilter::compile(&dtd, &sets[0]).map_err(core_err)?;
    let ([n1_s, plain_s], _) = timed_sides(PAIR_REPS + 1, |side| {
        if side == 0 {
            return matched(one.run_multi(doc(), std::io::sink()));
        }
        plain.filter_source(doc(), std::io::sink()).map(|_| 0).map_err(core_err)
    })?;
    let mut ten = registry(10).compile().map_err(core_err)?;
    let (n10_s, _) = timed(REPS + 1, || matched(ten.run_multi(doc(), std::io::sink())))?;

    // N = 100, and the same set behind the live-edit handle.
    let all = registry(100);
    let (compile_s, mut hundred) = timed(REPS, || all.compile().map_err(core_err))?;
    let last = sets.len() - 1;
    let shared = SharedPrefilter::new(dtd.clone(), sets[..last].to_vec()).map_err(core_err)?;
    let mut settle_s = Vec::new();
    for rep in 0..REPS {
        let (t, id) = seconds(|| {
            shared.add_paths(sets[last].clone()).and_then(|id| shared.settle().map(|_| id))
        });
        settle_s.push(t);
        let id = id.map_err(core_err)?;
        if rep + 1 < REPS {
            // Back to N - 1 queries for the next repetition, outside the
            // timer; the last one stays for the run below.
            shared.remove_query(id).map_err(core_err)?;
            shared.settle().map_err(core_err)?;
        }
    }
    let generation = shared.settle().map_err(core_err)?;
    let ([n100_s, gen_s], [matched_queries, _]) = timed_sides(PAIR_REPS + 1, |side| {
        if side == 0 {
            return matched(hundred.run_multi(doc(), std::io::sink()));
        }
        matched(generation.run_multi(doc(), std::io::sink()))
    })?;
    Ok(vec![
        ("registry.n1_mibs", mib / n1_s),
        ("registry.n10_mibs", mib / n10_s),
        ("registry.n100_mibs", mib / n100_s),
        ("registry.n1_overhead_pct", 100.0 * (n1_s - plain_s) / plain_s),
        ("registry.compile_ms", compile_s * 1e3),
        ("registry.states", hundred.prefilter().tables().state_count() as f64),
        ("registry.matched_queries", matched_queries as f64),
        ("lifecycle.add_settle_ms", median(&settle_s) * 1e3),
        ("lifecycle.run_overhead_pct", 100.0 * (gen_s - n100_s) / n100_s),
    ])
}

/// Spawn to exit on a one-record document, the price of a process beyond
/// set-up and library time, and the spread of the CLI wall over passes.
fn smpx_rows(bench: &mut Bench, samples: &[CmdSamples]) -> Result<Rows, String> {
    let cmd = &bench.w.commands[0];
    let tiny = bench.w.corpus.dataset.generate(1, 1);
    std::fs::write(bench.corpus.dir.join("tiny.xml"), &tiny).map_err(|e| e.to_string())?;
    let mut args = Cli::query_args(cmd);
    args.extend(cmd.flags.iter().cloned());
    args.extend(["tiny.xml".to_string(), "-o".to_string(), "out/tiny.xml".to_string()]);
    let (startup_s, _) = timed(11, || {
        let exit = child::run(&bench.cli.smpx, &args, &bench.corpus.dir, None)
            .map_err(|e| e.to_string())?;
        if exit.success {
            Ok(())
        } else {
            Err(format!("one-record run failed: {}", exit.stderr))
        }
    })?;
    let (setup_s, _) = timed(REPS, || setup(bench.corpus.dtd_text, cmd, &mut Tracer::new(false)))?;
    let overhead_s = median(&samples[0].cli_wall_s) - setup_s - median(&samples[0].lib_wall_s);
    let passes = samples.iter().map(|s| s.cli_wall_s.len()).min().unwrap_or(0);
    let per_pass: Vec<f64> =
        (0..passes).map(|p| samples.iter().map(|s| s.cli_wall_s[p]).sum::<f64>() * 1e3).collect();
    let (_, hi) = percentile_with_ten_beyond(&per_pass);
    Ok(vec![
        ("smpx.startup_ms", startup_s * 1e3),
        ("smpx.process_overhead_ms", overhead_s * 1e3),
        ("smpx.wall_ms_p50", median(&per_pass)),
        ("smpx.wall_ms_hi", hi),
        ("smpx.samples", per_pass.len() as f64),
    ])
}

/// Every untraced layer row of the workload but the two drift gauges.
pub fn probe(bench: &mut Bench, samples: &[CmdSamples], quick: bool) -> Result<Rows, String> {
    let corpus = bench.corpus;
    let hay = haystack(corpus);
    let kws = keywords(bench, &hay);
    if kws.is_empty() {
        return Err("the workload's automatons have no keyword".into());
    }
    let mut rows = setup_rows(bench.w, corpus, if quick { 5 } else { 15 })?;
    rows.extend(stringmatch_rows(&hay, &kws)?);
    rows.extend(runtime_rows(bench)?);
    rows.extend(source_rows(bench, samples)?);
    rows.extend(parallel_rows(bench)?);
    rows.extend(registry_rows(bench.w.corpus.dataset, corpus)?);
    rows.extend(smpx_rows(bench, samples)?);
    rows.push(("datagen.gen_s", corpus.gen_s));
    rows.push(("datagen.corpus_mib", corpus.total_bytes() as f64 / MIB));
    Ok(rows)
}

/// The traced passes: the program's `obs` switch is on, every call into a
/// layer sits in a span, and each child runs under `--metrics` so its own
/// counters are collected. Fills the rows only a traced run can.
pub fn traced_passes(
    bench: &mut Bench,
    samples: &[CmdSamples],
    tr: &mut Tracer,
    passes: usize,
) -> Result<Rows, String> {
    let w = bench.w;
    let mut lib_wall = Vec::new();
    // The tracer is shared by every workload of the process; the rows
    // below are computed over this workload's spans only.
    let first = tr.spans.len();
    tr.context(w.name, "", 0);
    tr.span("workload", |tr| -> Result<(), String> {
        for pass in 1..=passes {
            let mut pass_wall = 0.0;
            for (i, cmd) in w.commands.iter().enumerate() {
                tr.context(w.name, &cmd.name, pass);
                pass_wall += tr.span("lib", |tr| -> Result<f64, String> {
                    // Set-up runs for its spans; the run keeps the warm
                    // engine so that it is comparable to the untraced one.
                    std::hint::black_box(setup(bench.corpus.dtd_text, cmd, tr)?);
                    Ok(bench.lib_op(i, tr)?.wall_s)
                })?;
                tr.span("cli", |tr| bench.cli_op(i, tr))?;
            }
            lib_wall.push(pass_wall);
        }
        Ok(())
    })?;

    let untraced: f64 = samples.iter().map(|s| median(&s.lib_wall_s)).sum();
    let spans = &tr.spans[first..];
    let threaded: Vec<&Command> = w.commands.iter().filter(|c| c.lib.threads() > 1).collect();
    let leaf = |s: &&Span| s.name == "runtime.filter" || s.name == "cli.exec";
    let wall: f64 = spans.iter().filter(leaf).map(|s| s.seconds()).sum();
    let pooled_wall: f64 = spans
        .iter()
        .filter(leaf)
        .filter(|s| threaded.iter().any(|c| c.name == s.command))
        .map(|s| s.seconds())
        .sum();
    let sum = |counter: &str| {
        counter_sum(spans, "runtime.filter", counter) + counter_sum(spans, "cli.exec", counter)
    };
    let stall = sum("smpx_prefetch_producer_stall_seconds_total")
        + sum("smpx_prefetch_consumer_wait_seconds_total");
    let hits = sum("smpx_shard_speculation_hits_total");
    let repairs = sum("smpx_shard_repairs_total");
    let share = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    Ok(vec![
        // PR 10's `Scan` stage wraps `IoWait`; only the inner one is used.
        ("source.io_wait_share", share(sum("smpx_stage_io_wait_seconds_total"), wall)),
        ("source.prefetch_stall_share", share(stall, wall)),
        ("parallel.shard_hit_share", share(hits, hits + repairs)),
        ("parallel.steals", sum("smpx_pool_steals_total")),
        ("parallel.busy_share", share(sum("smpx_pool_busy_seconds_total"), 2.0 * pooled_wall)),
        ("obs.enabled_overhead_pct", 100.0 * (median(&lib_wall) - untraced) / untraced),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prefixes_end_after_a_tag() {
        assert_eq!(prefix(b"<a><b>text</b><c", 100), b"<a><b>text</b>");
        assert_eq!(prefix(b"<a><b>text</b>", 8), b"<a><b>");
        assert_eq!(prefix(b"no tag", 100), b"");
    }

    #[test]
    fn timed_takes_the_median_and_stops_at_an_error() {
        let mut n = 0;
        let (t, last) = timed(3, || {
            n += 1;
            Ok(n)
        })
        .expect("three runs");
        assert!(t >= 0.0);
        assert_eq!(last, 3);
        assert_eq!(timed(3, || Err::<(), _>("boom".to_string())).unwrap_err(), "boom");
    }
}
