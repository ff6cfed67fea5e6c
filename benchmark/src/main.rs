//! The benchmark of this repository: drives the release `smpx` binary exec
//! to exit and the library entry points in-process over seeded, generated
//! corpora, checks every output against an independent oracle, and prints
//! every metric by name with its unit. See `benchmark/README.md`.
//!
//! `unsafe` is denied package-wide and allowed back in exactly one place,
//! the libc shim module in `child`.
#![deny(unsafe_code)]

mod child;
mod compare;
mod corpus;
mod e2e;
mod json;
mod layers;
mod oracle;
mod report;
mod spec;
mod stats;
mod trace;
mod workloads;

use corpus::Corpus;
use e2e::{Bench, Budget, Cli, CmdSamples};
use json::Json;
use oracle::{Expected, Source};
use report::WorkloadResult;
use std::path::{Path, PathBuf};
use trace::Tracer;
use workloads::{Sizes, Workload};

/// The seed of a run that names none, and the seed `expected.json` pins.
const DEFAULT_SEED: u64 = 20_080_407;
/// Seconds the pass loop of a workload measures for, as `run_seconds` in
/// `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 8.0;
const USAGE: &str = "usage: benchmark/run.sh [--seed N] [--workload NAME]... [--seconds S] \
[--trace [0|1]] [--quick] [--out FILE] [--work-dir PARENT] [--expected FILE]
       benchmark/run.sh compare A.json B.json
       benchmark/run.sh oracle --write
       benchmark/run.sh test";

struct Options {
    smpx: PathBuf,
    seed: u64,
    workloads: Vec<String>,
    seconds: f64,
    trace: bool,
    quick: bool,
    out: Option<PathBuf>,
    /// Always a directory of the harness's own making, `WORK_SUBDIR` under
    /// the `--work-dir` the operator named: it is emptied before and
    /// removed after a run, and nothing else ever is.
    work_dir: PathBuf,
    expected: PathBuf,
}

const WORK_SUBDIR: &str = "smpx-benchmark-work";

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut o = Options {
        // `run.sh` passes the path for the target directory it built into.
        smpx: "target/release/smpx".into(),
        seed: DEFAULT_SEED,
        workloads: Vec::new(),
        seconds: DEFAULT_SECONDS,
        trace: false,
        quick: false,
        out: None,
        work_dir: Path::new("benchmark/out").join(WORK_SUBDIR),
        expected: "benchmark/expected.json".into(),
    };
    let mut it = args.iter().peekable();
    while let Some(a) = it.next() {
        let mut value = |name: &str| it.next().cloned().ok_or(format!("{name} needs a value"));
        match a.as_str() {
            "--smpx" => o.smpx = value("--smpx")?.into(),
            "--seed" => {
                o.seed = value("--seed")?.parse().map_err(|_| "--seed takes a whole number")?
            }
            "--workload" => o.workloads.push(value("--workload")?),
            "--seconds" => {
                o.seconds = value("--seconds")?.parse().map_err(|_| "--seconds takes a number")?;
                if o.seconds.is_nan() || o.seconds <= 0.0 {
                    return Err("--seconds must be positive".into());
                }
            }
            "--out" => o.out = Some(value("--out")?.into()),
            "--work-dir" => o.work_dir = Path::new(&value("--work-dir")?).join(WORK_SUBDIR),
            "--expected" => o.expected = value("--expected")?.into(),
            "--quick" => o.quick = true,
            // A driver passes `--trace 0|1`; by hand a bare `--trace` is 1.
            "--trace" => {
                o.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") | Some("1") => it.next().is_some_and(|v| v == "1"),
                    _ => true,
                }
            }
            other => return Err(format!("unknown argument {other}\n{USAGE}")),
        }
    }
    for w in &o.workloads {
        if !spec::WORKLOADS.contains(&w.as_str()) {
            return Err(format!(
                "unknown workload {w}; the workloads are {}",
                spec::WORKLOADS.join(", ")
            ));
        }
    }
    // Always in the declared order, whatever order they were named in.
    let named = std::mem::take(&mut o.workloads);
    o.workloads = spec::WORKLOADS
        .iter()
        .filter(|w| named.is_empty() || named.iter().any(|n| n == *w))
        .map(|w| w.to_string())
        .collect();
    Ok(o)
}

/// Refuse to measure with a knob of the program set in the harness's own
/// environment, or without the binary, or without room for the corpora.
/// Returns the work directory's filesystem, for the stamp.
fn preflight(o: &Options, sizes: Sizes) -> Result<String, String> {
    let knobs = child::smpx_vars(std::env::vars_os());
    if !knobs.is_empty() {
        return Err(format!(
            "refusing to run with {} set: unset every SMPX_* variable so no knob leaks into a run",
            knobs.join(", ")
        ));
    }
    if !o.smpx.is_file() {
        return Err(format!(
            "{} is missing: build it with `cargo build --release --offline --bin smpx` at the \
             repository root, or run benchmark/run.sh, which does",
            o.smpx.display()
        ));
    }
    std::fs::create_dir_all(&o.work_dir).map_err(|e| format!("{}: {e}", o.work_dir.display()))?;
    let needed = o
        .workloads
        .iter()
        .filter_map(|w| workloads::workload(w, sizes))
        .map(|w| corpus::bytes_needed(&w.corpus))
        .max()
        .unwrap_or(0);
    match corpus::filesystem(&o.work_dir) {
        Some((fs, free)) => {
            corpus::check_free_space(&o.work_dir, free, needed)?;
            Ok(fs)
        }
        None => Ok("unknown".into()),
    }
}

fn command_output(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or("unknown".into(), |o| String::from_utf8_lossy(&o.stdout).trim().to_string())
}

fn header(o: &Options, fs: &str) -> Vec<(&'static str, Json)> {
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let host = Json::obj(vec![
        ("git_revision", Json::str(command_output("git", &["rev-parse", "HEAD"]))),
        ("threads_avail", Json::Num(threads as f64)),
        // `xmark-threads` asks for two program threads.
        ("oversubscribed", Json::Bool(threads < 2)),
        ("memscan", Json::str(format!("{:?}", smpx_stringmatch::memscan::kind()))),
        ("rustc", Json::str(command_output("rustc", &["--version"]))),
        ("work_dir", Json::str(o.work_dir.display().to_string())),
        ("work_dir_filesystem", Json::str(fs)),
        ("profile", Json::str(spec::release_profile(include_str!("../Cargo.toml")).join(","))),
    ]);
    vec![
        ("benchmark", Json::str("smpx")),
        ("mode", Json::str(if o.trace { "traced" } else { "end_to_end" })),
        ("quick", Json::Bool(o.quick)),
        ("seed", Json::Num(o.seed as f64)),
        ("seconds", Json::Num(o.seconds)),
        ("host", host),
    ]
}

/// Where the harness's own time goes, on stderr: a run has 21 s on average
/// under the driver's cap, and the oracle is the largest part of it.
struct Phases {
    workload: String,
    last: std::time::Instant,
}

impl Phases {
    fn new(workload: &str) -> Phases {
        Phases { workload: workload.to_string(), last: std::time::Instant::now() }
    }

    fn done(&mut self, phase: &str) {
        eprintln!(
            "[smpx-benchmark] {}: {phase} took {:.2} s",
            self.workload,
            self.last.elapsed().as_secs_f64()
        );
        self.last = std::time::Instant::now();
    }
}

/// A workload after its untraced part, with what the traced passes need.
struct Measured {
    w: Workload,
    result: WorkloadResult,
    expected: Expected,
    samples: Vec<CmdSamples>,
}

/// Corpus, oracle, set-up repetitions, the pass loop and the probes that
/// need no `obs` switch: everything measured with tracing off.
fn untraced(name: &str, o: &Options, cli: &Cli, sizes: Sizes) -> Result<Measured, String> {
    let w = workloads::workload(name, sizes).ok_or(format!("unknown workload {name}"))?;
    let mut phase = Phases::new(name);
    let corpus =
        Corpus::generate(&w.corpus, o.seed, &o.work_dir).map_err(|e| format!("corpus: {e}"))?;
    phase.done("corpus");
    let cache = Path::new("benchmark/out/cache");
    let (expected, source) = oracle::resolve(&w, &corpus, o.seed, o.quick, &o.expected, cache)?;
    phase.done("oracle");
    let mut bench = Bench::new(cli, &w, &corpus, &expected)?;

    let budget = match (o.quick, o.trace) {
        (true, _) => Budget::Passes(3),
        // A traced run spends the rest of its time on probes and spans.
        (false, true) => Budget::Seconds(o.seconds / 3.0),
        (false, false) => Budget::Seconds(o.seconds),
    };
    let mut gauges = layers::Gauges::new(&bench)?;
    let passes = bench.measure(budget, || gauges.sample())?;
    phase.done("passes");
    let e = e2e::summarize(&passes);
    let samples = passes.commands;
    let mut layers = gauges.rows();
    if o.trace {
        layers.extend(layers::probe(&mut bench, &samples, o.quick)?);
        phase.done("probes");
    }
    let result = WorkloadResult {
        name: w.name,
        end_to_end: vec![
            ("cli_mibs", e.cli_mibs),
            ("lib_mibs", e.lib_mibs),
            ("cpu_s_per_gib", e.cpu_s_per_gib),
            ("peak_rss_mib", e.peak_rss_mib),
            ("setup_s", e.setup_s),
        ],
        samples: e.per_pass,
        layers,
        commands: report::command_rows(&w, &samples),
        oracle: match source {
            Source::Pinned => "pinned",
            Source::Cached => "cached",
            Source::Computed => "computed",
        },
        tally: bench.tally,
    };
    Ok(Measured { w, result, expected, samples })
}

/// The traced passes of a workload. The corpus is generated again: the
/// work directory holds one workload at a time.
fn traced(m: &mut Measured, o: &Options, cli: &Cli, tr: &mut Tracer) -> Result<(), String> {
    let corpus =
        Corpus::generate(&m.w.corpus, o.seed, &o.work_dir).map_err(|e| format!("corpus: {e}"))?;
    let mut bench = Bench::new(cli, &m.w, &corpus, &m.expected)?;
    // Warm the fresh engines outside any span.
    for i in 0..m.w.commands.len() {
        bench.lib_op(i, &mut Tracer::new(false))?;
    }
    let mut phase = Phases::new(m.w.name);
    let rows = layers::traced_passes(&mut bench, &m.samples, tr, 3)?;
    phase.done("traced passes");
    m.result.layers.extend(rows);
    m.result.tally.attempted += bench.tally.attempted;
    m.result.tally.failed += bench.tally.failed;
    m.result.tally.messages.extend(bench.tally.messages);
    // Report the layer rows in their declared order.
    let order = |name: &str| spec::PER_LAYER.iter().position(|l| l.name == name);
    m.result.layers.sort_by_key(|(name, _)| order(name));
    Ok(())
}

fn run(o: &Options) -> Result<i32, String> {
    let sizes = Sizes::new(o.quick);
    let fs = preflight(o, sizes)?;
    // Before any corpus is allocated: see `child::Spawner`.
    let spawner = std::env::current_exe()
        .and_then(|exe| child::Spawner::start(&exe))
        .map_err(|e| format!("cannot start the spawn server: {e}"))?;
    let cli = Cli {
        smpx: std::fs::canonicalize(&o.smpx).map_err(|e| e.to_string())?,
        spawner: std::cell::RefCell::new(spawner),
    };
    let mut measured = Vec::new();
    for name in &o.workloads {
        eprintln!("[smpx-benchmark] {name}: seed {}, {}", o.seed, oracle::mode_key(o.quick));
        measured.push(untraced(name, o, &cli, sizes)?);
    }
    let mut tracer = None;
    if o.trace {
        // The program's `obs` switch is one-way, so every untraced number
        // of this process was taken before this point.
        let tr = tracer.insert(Tracer::new(false));
        tr.enable();
        for m in &mut measured {
            traced(m, o, &cli, tr)?;
        }
    }
    let _ = std::fs::remove_dir_all(&o.work_dir);

    let results: Vec<WorkloadResult> = measured.into_iter().map(|m| m.result).collect();
    let default_out = if o.trace { "results-trace.json" } else { "results.json" };
    let out = o.out.clone().unwrap_or_else(|| Path::new("benchmark/out").join(default_out));
    report::write_results(&out, header(o, &fs), &results)?;
    if let Some(tr) = &tracer {
        // Beside the result file.
        let path = out.with_file_name("trace.jsonl");
        tr.write(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    }
    let mut failed = 0;
    for r in &results {
        for message in &r.tally.messages {
            eprintln!("[smpx-benchmark] FAILED {}: {message}", r.name);
        }
        failed += r.tally.failed;
        r.print_lines();
        println!("{}", r.result_line(o.trace));
    }
    Ok(i32::from(failed > 0))
}

/// `oracle --write`: run `TokenProjector` over every workload of the
/// default seed, in both sizes, and pin the answers in `expected.json`.
fn write_pins(o: &Options) -> Result<i32, String> {
    let mut modes = Vec::new();
    for quick in [false, true] {
        let mut entries = Vec::new();
        for name in spec::WORKLOADS {
            eprintln!("[smpx-benchmark] oracle: {name} ({})", oracle::mode_key(quick));
            let w = workloads::workload(name, Sizes::new(quick)).expect("declared workload");
            let corpus = Corpus::generate(&w.corpus, DEFAULT_SEED, &o.work_dir)
                .map_err(|e| format!("corpus: {e}"))?;
            entries.push((name, oracle::compute(&w, &corpus)?.to_json()));
        }
        modes.push((oracle::mode_key(quick), Json::obj(entries)));
    }
    let _ = std::fs::remove_dir_all(&o.work_dir);
    let mut fields = vec![("seed", Json::Num(DEFAULT_SEED as f64))];
    fields.extend(modes);
    std::fs::write(&o.expected, Json::obj(fields).pretty())
        .map_err(|e| format!("{}: {e}", o.expected.display()))?;
    println!("wrote {}", o.expected.display());
    Ok(0)
}

fn dispatch(args: &[String]) -> Result<i32, String> {
    match args.first().map(String::as_str) {
        Some("compare") => match &args[1..] {
            [a, b] => compare::main(Path::new(a), Path::new(b)),
            _ => Err(format!("compare takes two result files\n{USAGE}")),
        },
        Some("oracle") => {
            let rest: Vec<String> = args[1..].iter().filter(|a| *a != "--write").cloned().collect();
            if rest.len() + 1 == args.len() {
                return Err(format!("oracle does nothing without --write\n{USAGE}"));
            }
            write_pins(&parse_options(&rest)?)
        }
        // The harness's own helper process; see `child::Spawner`.
        Some("spawn-server") => child::serve(std::io::stdin().lock(), std::io::stdout().lock())
            .map(|()| 0)
            .map_err(|e| format!("spawn server: {e}")),
        Some("-h" | "--help") => {
            println!("{USAGE}");
            Ok(0)
        }
        _ => run(&parse_options(args)?),
    }
}

fn main() -> std::process::ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(code) => std::process::ExitCode::from(code as u8),
        Err(e) => {
            eprintln!("smpx-benchmark: {e}");
            std::process::ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_work_directory_is_always_a_subdirectory_of_the_harness_s_own() {
        let args = |xs: &[&str]| xs.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        let named = parse_options(&args(&["--work-dir", "/dev/shm"])).expect("options");
        assert_eq!(named.work_dir, Path::new("/dev/shm").join(WORK_SUBDIR));
        let default = parse_options(&[]).expect("options");
        assert_eq!(default.work_dir, Path::new("benchmark/out").join(WORK_SUBDIR));
    }

    #[test]
    fn workloads_run_in_the_declared_order_with_the_pinned_one_last() {
        let args = |xs: &[&str]| xs.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        let named = ["--workload", "xmark-stream", "--workload", "xmark-threads"];
        let o = parse_options(&args(&named)).expect("options");
        assert_eq!(o.workloads, ["xmark-threads", "xmark-stream"]);
        assert_eq!(parse_options(&[]).expect("options").workloads, spec::WORKLOADS);
        assert!(parse_options(&args(&["--workload", "nope"])).is_err());
    }
}
