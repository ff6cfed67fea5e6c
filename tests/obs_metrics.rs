//! The observability layer, end to end: every acceptance counter of the
//! metrics registry populates from the subsystem that owns it, the
//! snapshot stays coherent under concurrent hammering, and both
//! exposition formats hold their documented shape.
//!
//! The process-wide registry is enabled once for this whole test binary
//! (`obs::enable` is one-way); tests therefore assert *deltas* between
//! two snapshots rather than absolute values, and only ever assert
//! growth — counters are monotone, so concurrently running tests in
//! this binary can only help, never break, a `>` assertion.

use std::io::Read;
use std::time::Duration;

use smpx_core::obs::{self, CounterId, GaugeId, MetricsRegistry, Snapshot};
use smpx_core::{Pool, PrefetchSource, Prefilter, SharedPrefilter};
use smpx_dtd::Dtd;
use smpx_paths::PathSet;

const EX2: &[u8] =
    br#"<!DOCTYPE a [ <!ELEMENT a (b|c)*> <!ELEMENT b (#PCDATA)> <!ELEMENT c (b,b?)> ]>"#;

fn pf() -> Prefilter {
    let dtd = Dtd::parse(EX2).unwrap();
    let paths = PathSet::parse(&["/*", "/a/b#"]).unwrap();
    Prefilter::compile(&dtd, &paths).unwrap()
}

fn counter(name: &str) -> u64 {
    obs::global().snapshot().scalar(name).unwrap_or_else(|| panic!("no series named {name}"))
}

/// Pool work: tasks execute, busy time accrues, a worker that reaches the
/// run-ahead bound behind a slow head waits (a park) and is woken by the
/// delivery, the pending high-water is recorded — and nothing is ever
/// stolen: the ticket pool has no queues to steal from.
#[test]
fn pool_counters_populate() {
    obs::enable();
    let tasks0 = counter("smpx_pool_tasks_total");
    let parks0 = counter("smpx_pool_parks_total");
    let wakes0 = counter("smpx_pool_wakes_total");

    // 2 workers, bound 4: task 0 ends only after tasks 1..=3 have, so its
    // sibling completes all three, finds ticket 4 out of bounds and waits
    // for the delivery of 0.
    let (done_tx, done_rx) = std::sync::mpsc::channel::<()>();
    let done_rx = std::sync::Mutex::new(done_rx);
    let mut delivered = 0;
    Pool::exact(2)
        .run_ordered(
            (0..8u64).collect::<Vec<_>>(),
            |_| done_tx.clone(),
            |tx, t| -> Result<(), std::convert::Infallible> {
                match t {
                    0 => {
                        let rx = done_rx.lock().unwrap();
                        (1..=3).for_each(|_| rx.recv().unwrap());
                        // The sibling's wait is one lock away.
                        while counter("smpx_pool_parks_total") == parks0 {
                            std::thread::yield_now();
                        }
                    }
                    1..=3 => tx.send(()).unwrap(),
                    _ => {}
                }
                Ok(())
            },
            |_, ()| {
                delivered += 1;
                Ok(())
            },
        )
        .unwrap();

    assert_eq!(delivered, 8);
    assert!(counter("smpx_pool_tasks_total") >= tasks0 + 8, "tasks must count");
    assert!(counter("smpx_pool_parks_total") > parks0, "the run-ahead wait must count");
    assert!(counter("smpx_pool_wakes_total") > wakes0, "the delivery that made room must count");
    assert_eq!(counter("smpx_pool_steals_total"), 0, "nothing to steal");
    assert!(counter("smpx_pool_busy_seconds_total") > 0, "busy nanos must accrue");
    assert!(obs::global().gauge(GaugeId::PoolWorkers) >= 2);
    assert!(obs::global().gauge(GaugeId::PoolQueueDepthPeak) >= 3, "tasks 1..=3 were pending");
}

/// A reader that trickles: every chunk costs a sleep, so the consumer
/// demonstrably waits on the producer.
struct SlowReader {
    doc: Vec<u8>,
    pos: usize,
}

impl Read for SlowReader {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        std::thread::sleep(Duration::from_millis(2));
        let n = buf.len().min(64).min(self.doc.len() - self.pos);
        buf[..n].copy_from_slice(&self.doc[self.pos..self.pos + n]);
        self.pos += n;
        Ok(n)
    }
}

#[test]
fn prefetch_wait_time_populates() {
    obs::enable();
    let chunks0 = counter("smpx_prefetch_chunks_total");
    let wait0 = counter("smpx_prefetch_consumer_wait_seconds_total")
        + counter("smpx_prefetch_producer_stall_seconds_total");

    let mut doc = b"<a>".to_vec();
    for j in 0..64 {
        doc.extend_from_slice(format!("<c><b>x{j}</b></c><b>keep-{j}</b>").as_bytes());
    }
    doc.extend_from_slice(b"</a>");
    let src = PrefetchSource::new(SlowReader { doc, pos: 0 }, 128);
    pf().filter_source(src, std::io::sink()).unwrap();

    assert!(counter("smpx_prefetch_chunks_total") > chunks0, "chunks must count");
    assert!(counter("smpx_prefetch_bytes_total") > 0, "delivered bytes must count");
    let waited = counter("smpx_prefetch_consumer_wait_seconds_total")
        + counter("smpx_prefetch_producer_stall_seconds_total");
    assert!(waited > wait0, "a trickling producer must make the consumer wait");
}

#[test]
fn lifecycle_compile_latency_populates() {
    obs::enable();
    let compiles0 = counter("smpx_lifecycle_compiles_total");
    let hist_count0 =
        hist_count(&obs::global().snapshot(), "smpx_lifecycle_compile_latency_seconds");

    let dtd = Dtd::parse(EX2).unwrap();
    let shared = SharedPrefilter::new(dtd, vec![PathSet::parse(&["/a/b#"]).unwrap()]).unwrap();
    shared.add_query("/a/c").unwrap();
    let generation = shared.settle().unwrap();

    assert!(counter("smpx_lifecycle_compiles_total") > compiles0, "compiles must count");
    assert!(counter("smpx_lifecycle_compile_seconds_total") > 0, "compile latency must accrue");
    assert!(counter("smpx_lifecycle_burst_edits_total") > 0, "the edit burst must count");
    let hist_count1 =
        hist_count(&obs::global().snapshot(), "smpx_lifecycle_compile_latency_seconds");
    assert!(hist_count1 > hist_count0, "every compile lands one latency observation");
    assert!(
        obs::global().gauge(GaugeId::LifecycleGeneration) >= generation.gen_no(),
        "the generation gauge trails no published generation"
    );
}

/// Plain sequential runs fold their `RunStats` into the process counters
/// and the scan stage timer brackets them.
#[test]
fn run_stats_fold_into_process_counters() {
    obs::enable();
    let runs0 = counter("smpx_run_runs_total");
    let out0 = counter("smpx_run_output_bytes_total");
    let scans0 = counter("smpx_stage_scan_events_total");

    let doc = b"<a><c><b>x</b></c><b>keep</b></a>";
    let (out, stats) = pf().filter_to_vec(doc).unwrap();
    assert!(!out.is_empty());

    assert!(counter("smpx_run_runs_total") > runs0);
    assert!(counter("smpx_run_output_bytes_total") >= out0 + stats.output_bytes);
    assert!(counter("smpx_stage_scan_events_total") > scans0);
    assert!(counter("smpx_stage_scan_seconds_total") > 0);
}

fn hist_count(snap: &Snapshot, name: &str) -> u64 {
    snap.histograms
        .iter()
        .find(|h| h.def.name == name)
        .unwrap_or_else(|| panic!("no histogram named {name}"))
        .count()
}

/// Concurrent hammer on a *local* registry: snapshots taken mid-flight
/// are coherent (monotone counters, histogram count == Σ buckets), and
/// the final totals are exact.
#[test]
fn snapshot_stays_consistent_under_hammer() {
    use smpx_core::obs::HistId;
    use std::sync::atomic::{AtomicBool, Ordering};

    static REG: MetricsRegistry = MetricsRegistry::new();
    static STOP: AtomicBool = AtomicBool::new(false);

    const WRITERS: usize = 4;
    const PER_WRITER: u64 = 20_000;

    std::thread::scope(|scope| {
        for _ in 0..WRITERS {
            scope.spawn(|| {
                for i in 0..PER_WRITER {
                    REG.add(CounterId::RunRuns, 1);
                    REG.add(CounterId::RunInputBytes, 3);
                    REG.observe(HistId::LifecycleBurstSize, i % 200);
                }
            });
        }
        for _ in 0..2 {
            scope.spawn(|| {
                let mut last_runs = 0u64;
                while !STOP.load(Ordering::Relaxed) {
                    let snap = REG.snapshot();
                    let runs = snap.scalar("smpx_run_runs_total").unwrap();
                    assert!(runs >= last_runs, "counter went backwards: {last_runs} -> {runs}");
                    last_runs = runs;
                    for h in &snap.histograms {
                        assert_eq!(
                            h.count(),
                            h.buckets.iter().sum::<u64>(),
                            "count is derived from the buckets, so it cannot disagree"
                        );
                    }
                }
            });
        }
        scope.spawn(|| {
            std::thread::sleep(Duration::from_millis(50));
            STOP.store(true, Ordering::Relaxed);
        });
    });
    STOP.store(true, Ordering::Relaxed);

    let snap = REG.snapshot();
    let n = WRITERS as u64 * PER_WRITER;
    assert_eq!(snap.scalar("smpx_run_runs_total"), Some(n));
    assert_eq!(snap.scalar("smpx_run_input_bytes_total"), Some(3 * n));
    assert_eq!(hist_count(&snap, "smpx_lifecycle_burst_edits"), n);
}

/// Prometheus exposition: every line is either a well-formed comment or
/// `name{labels} value`, every series carries HELP + TYPE, and bucket
/// counts are cumulative.
#[test]
fn prometheus_exposition_parses() {
    let reg = MetricsRegistry::new();
    reg.add(CounterId::RunRuns, 7);
    reg.add(CounterId::PoolBusyNanos, 1_500_000_000); // 1.5 s
    reg.observe(smpx_core::obs::HistId::LifecycleBurstSize, 3);
    reg.observe(smpx_core::obs::HistId::LifecycleBurstSize, 999);
    let text = obs::render_prometheus(&reg.snapshot());

    let mut helped = std::collections::HashSet::new();
    let mut typed = std::collections::HashSet::new();
    for line in text.lines() {
        if let Some(rest) = line.strip_prefix("# HELP ") {
            helped.insert(rest.split(' ').next().unwrap().to_string());
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut it = rest.split(' ');
            typed.insert(it.next().unwrap().to_string());
            let kind = it.next().unwrap();
            assert!(matches!(kind, "counter" | "gauge" | "histogram"), "unknown TYPE {kind:?}");
            continue;
        }
        // Sample line: `name value` or `name{le="..."} value`.
        let (name_and_labels, value) = line.rsplit_once(' ').unwrap_or_else(|| {
            panic!("sample line without a value: {line:?}");
        });
        value.parse::<f64>().unwrap_or_else(|e| panic!("bad value in {line:?}: {e}"));
        let base = name_and_labels.split('{').next().unwrap();
        assert!(
            base.chars().all(|c| c.is_ascii_alphanumeric() || c == '_'),
            "bad metric name {base:?}"
        );
        assert!(base.starts_with("smpx_"), "foreign series {base:?}");
    }
    // Seconds scaling: 1.5e9 ns render as 1.5 s.
    assert!(text.contains("smpx_pool_busy_seconds_total 1.5"), "nanos must scale:\n{text}");
    // Every sampled family is documented; `_bucket`/`_sum`/`_count`
    // roll up to their histogram family name.
    for fam in &helped {
        assert!(typed.contains(fam), "{fam} has HELP but no TYPE");
    }
    // Cumulative buckets: the +Inf bucket equals the family count (2).
    assert!(
        text.contains("smpx_lifecycle_burst_edits_bucket{le=\"+Inf\"} 2"),
        "+Inf bucket must equal the observation count:\n{text}"
    );
    assert!(text.contains("smpx_lifecycle_burst_edits_count 2"));
}

/// JSON-lines exposition: every line is a structurally valid flat JSON
/// object (checked by a small quote/brace scanner — no parser crate in
/// the tree) and names round-trip against the registry's series list.
#[test]
fn json_exposition_round_trips() {
    let reg = MetricsRegistry::new();
    reg.add(CounterId::RunRuns, 7);
    reg.observe(smpx_core::obs::HistId::LifecycleBurstSize, 5);
    let snap = reg.snapshot();
    let text = obs::render_json(&snap);

    let mut seen = Vec::new();
    for line in text.lines() {
        assert!(line.starts_with('{') && line.ends_with('}'), "not an object: {line:?}");
        // Structural scan: quotes balance, braces/brackets nest, and the
        // object is flat except for the histogram `buckets` array.
        let mut depth = 0i32;
        let mut in_str = false;
        let mut esc = false;
        for c in line.chars() {
            if esc {
                esc = false;
                continue;
            }
            match c {
                '\\' if in_str => esc = true,
                '"' => in_str = !in_str,
                '{' | '[' if !in_str => depth += 1,
                '}' | ']' if !in_str => depth -= 1,
                _ => {}
            }
            assert!(depth >= 0, "unbalanced nesting in {line:?}");
        }
        assert_eq!(depth, 0, "unbalanced nesting in {line:?}");
        assert!(!in_str, "unterminated string in {line:?}");
        let name = line
            .split("\"metric\":\"")
            .nth(1)
            .and_then(|r| r.split('"').next())
            .unwrap_or_else(|| panic!("no metric field in {line:?}"));
        seen.push(name.to_string());
    }
    // Round-trip: exactly the snapshot's series, in order.
    let want: Vec<String> = snap
        .counters
        .iter()
        .chain(snap.gauges.iter())
        .map(|s| s.def.name.to_string())
        .chain(snap.histograms.iter().map(|h| h.def.name.to_string()))
        .collect();
    assert_eq!(seen, want, "JSON lines must cover every series exactly once");
}
