//! Process-level tests of the harness: it can fail, it refuses a dirty
//! environment, and what it prints is what `BENCHMARK.json` declares.
//!
//! They drive the built harness in `--quick` mode against the release
//! `smpx` binary of the repository root; `benchmark/run.sh test` builds
//! that first.

#[allow(dead_code)]
#[path = "../src/json.rs"]
mod json;

use json::Json;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("benchmark/ sits in the repository")
        .into()
}

fn smpx() -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR").map_or("target".into(), PathBuf::from);
    let path = repo_root().join(target).join("release/smpx");
    assert!(
        path.is_file(),
        "{} is missing: run `benchmark/run.sh test`, which builds it",
        path.display()
    );
    path
}

/// A scratch directory under the system temp dir, unique per test.
fn scratch(test: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("smpx-bench-{test}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch directory");
    dir
}

fn harness(args: &[&str], dir: &Path) -> Output {
    Command::new(env!("CARGO_BIN_EXE_smpx-benchmark"))
        .current_dir(repo_root())
        .args(["--smpx", smpx().to_str().expect("utf-8 path")])
        .args(["--work-dir", dir.join("work").to_str().expect("utf-8 path")])
        .args(["--out", dir.join("results.json").to_str().expect("utf-8 path")])
        .args(args)
        .env_remove("SMPX_PREFETCH")
        .output()
        .expect("the harness runs")
}

fn text(bytes: &[u8]) -> String {
    String::from_utf8_lossy(bytes).into_owned()
}

/// The last line of stdout, which must be one JSON object.
fn result_line(stdout: &str) -> Json {
    Json::parse(stdout.lines().last().expect("a result line")).expect("one JSON object")
}

fn keys(v: &Json) -> Vec<String> {
    v.as_obj().expect("an object").iter().map(|(k, _)| k.clone()).collect()
}

/// The names `BENCHMARK.json` declares under `section`, in order.
fn declared(section: &str) -> Vec<String> {
    let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json")).expect("BENCHMARK.json");
    let file = Json::parse(&text).expect("BENCHMARK.json parses");
    let list = file.get(section).and_then(Json::as_arr).expect("section").to_vec();
    list.iter().map(|m| m.get("name").and_then(Json::as_str).expect("name").to_string()).collect()
}

#[test]
fn a_quick_run_prints_exactly_the_declared_end_to_end_metrics() {
    let dir = scratch("quick");
    // `--work-dir` names a directory that is not the harness's own: what
    // it holds must survive the run.
    std::fs::create_dir_all(dir.join("work")).expect("work parent");
    std::fs::write(dir.join("work/precious.txt"), "not the harness's").expect("a file");
    let out = harness(&["--quick", "--workload", "xmark-copy", "--trace", "0"], &dir);
    assert!(out.status.success(), "{}", text(&out.stderr));
    let left: Vec<_> = std::fs::read_dir(dir.join("work"))
        .expect("work parent")
        .map(|e| e.expect("entry").file_name())
        .collect();
    assert_eq!(left, ["precious.txt"], "the harness removes its own subdirectory and nothing else");
    let stdout = text(&out.stdout);
    let line = result_line(&stdout);
    assert_eq!(keys(&line), ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(line.get("correct"), Some(&Json::Bool(true)));
    assert_eq!(line.get("failed").and_then(Json::as_f64), Some(0.0));
    assert!(line.get("attempted").and_then(Json::as_f64).expect("a count") >= 1.0);
    assert_eq!(keys(line.get("metrics").expect("metrics")), declared("end_to_end"));
    // Every metric also appears as `name workload value unit`.
    for name in declared("end_to_end") {
        assert!(stdout.lines().any(|l| l.starts_with(&format!("{name} xmark-copy "))), "{name}");
    }
    let results = std::fs::read_to_string(dir.join("results.json")).expect("result file");
    assert!(results.contains("\"quick\": true") && results.contains("\"oracle\": \"pinned\""));

    // A quick result measures too little to be compared.
    let compare = Command::new(env!("CARGO_BIN_EXE_smpx-benchmark"))
        .args(["compare"])
        .args([dir.join("results.json"), dir.join("results.json")])
        .output()
        .expect("compare runs");
    assert_eq!(compare.status.code(), Some(2));
    assert!(text(&compare.stderr).contains("--quick"));
    std::fs::remove_dir_all(&dir).expect("clean up");
}

#[test]
fn a_traced_run_prints_exactly_the_declared_layer_metrics_and_links_its_spans() {
    let dir = scratch("traced");
    let out = harness(&["--quick", "--workload", "small-docs", "--trace", "1"], &dir);
    assert!(out.status.success(), "{}", text(&out.stderr));
    let stdout = text(&out.stdout);
    let line = result_line(&stdout);
    assert_eq!(line.get("correct"), Some(&Json::Bool(true)));
    assert_eq!(keys(line.get("metrics").expect("metrics")), declared("per_layer"));

    // The trace lands beside the result file.
    let trace = std::fs::read_to_string(dir.join("trace.jsonl")).expect("trace");
    let spans: Vec<Json> = trace.lines().map(|l| Json::parse(l).expect("a span")).collect();
    let name = |s: &Json| s.get("name").and_then(Json::as_str).expect("name").to_string();
    assert_eq!((name(&spans[0]), spans[0].get("parent")), ("workload".into(), Some(&Json::Null)));
    for layer in [
        "dtd.parse",
        "paths.parse",
        "compile.tables",
        "compile.matchers",
        "runtime.filter",
        "verify",
        "cli.exec",
    ] {
        assert!(spans.iter().any(|s| name(s) == layer), "{layer}");
    }
    for span in &spans[1..] {
        let parent = span.get("parent").and_then(Json::as_f64).expect("every other span has one");
        let id = span.get("id").and_then(Json::as_f64).expect("id");
        assert!(parent < id, "a parent opens before its child");
        assert_eq!(span.get("workload").and_then(Json::as_str), Some("small-docs"));
    }
    // The child ran under --metrics: its own counters ride on cli.exec.
    let exec = spans.iter().find(|s| name(s) == "cli.exec").expect("cli.exec");
    assert!(exec.at(&["counters", "smpx_run_runs_total"]).is_some());
    std::fs::remove_dir_all(&dir).expect("clean up");
}

/// The value of the `name workload value unit` line of `stdout`.
fn printed(stdout: &str, name: &str, workload: &str) -> f64 {
    let start = format!("{name} {workload} ");
    let line = stdout.lines().find(|l| l.starts_with(&start)).unwrap_or_else(|| panic!("{start}"));
    line.split(' ').nth(2).expect("value").parse().expect("a number")
}

/// One tracer serves every workload of a traced process; each workload's
/// rows must come from its own spans. `xmark-stream` runs the prefetching
/// route, `xmark-copy` after it is `--mmap` only and has no prefetch thread
/// to stall.
#[test]
fn traced_rows_do_not_leak_from_one_workload_into_the_next() {
    let dir = scratch("leak");
    let out = harness(
        &["--quick", "--workload", "xmark-stream", "--workload", "xmark-copy", "--trace", "1"],
        &dir,
    );
    assert!(out.status.success(), "{}", text(&out.stderr));
    let stdout = text(&out.stdout);
    assert!(printed(&stdout, "source.prefetch_stall_share", "xmark-stream") > 0.0);
    assert_eq!(printed(&stdout, "source.prefetch_stall_share", "xmark-copy"), 0.0);
    assert_eq!(printed(&stdout, "parallel.busy_share", "xmark-copy"), 0.0);
    let trace = std::fs::read_to_string(dir.join("trace.jsonl")).expect("trace");
    for w in ["xmark-stream", "xmark-copy"] {
        assert!(trace.contains(&format!("\"name\":\"workload\",\"workload\":\"{w}\"")), "{w}");
    }
    std::fs::remove_dir_all(&dir).expect("clean up");
}

/// `expected.json` with one digit flipped in the first pinned hash after
/// the keys of `path` (searched in order), written under `dir`.
fn flipped_pins(dir: &Path, path: &[&str]) -> PathBuf {
    let pins = std::fs::read_to_string(repo_root().join("benchmark/expected.json")).expect("pins");
    let mut at = 0;
    for key in path.iter().copied().chain(["hash\": "]) {
        let key = format!("\"{key}");
        at += pins[at..].find(&key).unwrap_or_else(|| panic!("{key} in the pins")) + key.len();
    }
    let mut flipped = pins.into_bytes();
    flipped[at + 1] = if flipped[at + 1] == b'0' { b'1' } else { b'0' };
    let file = dir.join("expected.json");
    std::fs::write(&file, flipped).expect("flipped pins");
    file
}

/// A benchmark that cannot fail checks nothing: with one digit of one
/// pinned output hash flipped, the run must report failed operations and
/// exit non-zero.
#[test]
fn a_flipped_pin_fails_the_run() {
    let dir = scratch("negative");
    let file = flipped_pins(&dir, &["quick\"", "xmark-copy\"", "items\""]);
    let out = harness(
        &["--quick", "--workload", "xmark-copy", "--expected", file.to_str().expect("utf-8 path")],
        &dir,
    );
    assert_eq!(out.status.code(), Some(1), "{}", text(&out.stderr));
    let stdout = text(&out.stdout);
    let line = result_line(&stdout);
    assert_eq!(line.get("correct"), Some(&Json::Bool(false)));
    assert!(line.get("failed").and_then(Json::as_f64).expect("a count") > 0.0);
    assert!(printed(&stdout, "fail_share", "xmark-copy") > 0.0);
    assert!(text(&out.stderr).contains("output differs from the oracle"));
    std::fs::remove_dir_all(&dir).expect("clean up");
}

#[test]
fn changed_inputs_abort_the_run() {
    let dir = scratch("inputs");
    // The first hash of a workload's entry is its corpus's.
    let file = flipped_pins(&dir, &["quick\"", "xmark-copy\""]);
    let out = harness(
        &["--quick", "--workload", "xmark-copy", "--expected", file.to_str().expect("utf-8 path")],
        &dir,
    );
    assert_eq!(out.status.code(), Some(2));
    assert!(text(&out.stderr).contains("inputs changed"), "{}", text(&out.stderr));
    assert!(out.stdout.is_empty(), "no result is printed");
    std::fs::remove_dir_all(&dir).expect("clean up");
}

#[test]
fn a_knob_in_the_environment_or_a_missing_binary_stops_the_harness() {
    let dir = scratch("hygiene");
    let knob = Command::new(env!("CARGO_BIN_EXE_smpx-benchmark"))
        .current_dir(repo_root())
        .args(["--quick", "--workload", "xmark-copy", "--smpx", smpx().to_str().expect("utf-8")])
        .env("SMPX_PREFETCH", "0")
        .output()
        .expect("the harness runs");
    assert_eq!(knob.status.code(), Some(2));
    assert!(text(&knob.stderr).contains("refusing to run with SMPX_PREFETCH set"));
    assert!(knob.stdout.is_empty());

    let missing = Command::new(env!("CARGO_BIN_EXE_smpx-benchmark"))
        .current_dir(repo_root())
        .args(["--quick", "--workload", "xmark-copy", "--smpx", "no/such/smpx"])
        .env_remove("SMPX_PREFETCH")
        .output()
        .expect("the harness runs");
    assert_eq!(missing.status.code(), Some(2));
    assert!(text(&missing.stderr).contains("no/such/smpx is missing"));

    let unknown = harness(&["--workload", "no-such-workload"], &dir);
    assert_eq!(unknown.status.code(), Some(2));
    assert!(text(&unknown.stderr).contains("unknown workload"));
    std::fs::remove_dir_all(&dir).expect("clean up");
}
