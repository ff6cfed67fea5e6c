//! Spans around every call into a layer, kept in memory and written to
//! `trace.jsonl` when the run ends. A span is `{id, parent, name,
//! workload, command, pass, start_ns, end_ns}` plus the delta of the
//! program's own counters (`obs::global()`) between its two ends; a
//! layer's self time is its span's duration minus its children's.
//!
//! End-to-end metrics are measured with the tracer off: `span` then only
//! calls its body.

use crate::json::Json;
use smpx_core::obs;
use std::path::Path;
use std::time::Instant;

pub struct Span {
    pub id: usize,
    pub parent: Option<usize>,
    pub name: &'static str,
    pub workload: String,
    pub command: String,
    pub pass: usize,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Non-zero counter deltas of the harness process, plus whatever a
    /// child reported through `--metrics` (`attach`).
    pub counters: Vec<(String, f64)>,
}

impl Span {
    pub fn seconds(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }
}

pub struct Tracer {
    on: bool,
    epoch: Instant,
    pub spans: Vec<Span>,
    open: Vec<usize>,
    workload: String,
    command: String,
    pass: usize,
}

/// Scalar series of the process-wide registry, seconds for timers.
fn counters_now() -> Vec<(&'static str, f64)> {
    let snap = obs::global().snapshot();
    snap.counters.iter().map(|s| (s.def.name, s.def.unit.scale(s.value))).collect()
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            workload: String::new(),
            command: String::new(),
            pass: 0,
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Turn recording on. Also flips the program's one-way `obs` switch,
    /// which is why a traced run is a process of its own.
    pub fn enable(&mut self) {
        obs::enable();
        self.on = true;
    }

    pub fn context(&mut self, workload: &str, command: &str, pass: usize) {
        if self.on {
            self.workload = workload.to_string();
            self.command = command.to_string();
            self.pass = pass;
        }
    }

    /// Run `body` inside a span named `name`, a child of the span open
    /// around it.
    pub fn span<R>(&mut self, name: &'static str, body: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.on {
            return body(self);
        }
        let id = self.spans.len();
        let before = counters_now();
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            name,
            workload: self.workload.clone(),
            command: self.command.clone(),
            pass: self.pass,
            start_ns: self.epoch.elapsed().as_nanos() as u64,
            end_ns: 0,
            counters: Vec::new(),
        });
        self.open.push(id);
        let r = body(self);
        self.open.pop();
        let span = &mut self.spans[id];
        span.end_ns = self.epoch.elapsed().as_nanos() as u64;
        span.counters.extend(
            counters_now()
                .into_iter()
                .zip(before)
                .filter(|((_, after), (_, before))| after != before)
                .map(|((name, after), (_, before))| (name.to_string(), after - before)),
        );
        r
    }

    /// Add a child process's own counters to the innermost open span.
    pub fn attach(&mut self, counters: Vec<(String, f64)>) {
        if let Some(&id) = self.open.last() {
            self.spans[id].counters.extend(counters);
        }
    }

    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut text = String::new();
        for s in &self.spans {
            let counters =
                Json::Obj(s.counters.iter().map(|(k, v)| (k.clone(), Json::Num(*v))).collect());
            let line = Json::obj(vec![
                ("id", Json::Num(s.id as f64)),
                ("parent", s.parent.map_or(Json::Null, |p| Json::Num(p as f64))),
                ("name", Json::str(s.name)),
                ("workload", Json::str(s.workload.as_str())),
                ("command", Json::str(s.command.as_str())),
                ("pass", Json::Num(s.pass as f64)),
                ("start_ns", Json::Num(s.start_ns as f64)),
                ("end_ns", Json::Num(s.end_ns as f64)),
                ("counters", counters),
            ]);
            text.push_str(&line.compact());
            text.push('\n');
        }
        std::fs::write(path, text)
    }
}

/// Sum of `counter` over those of `spans` that are named `span`.
pub fn counter_sum(spans: &[Span], span: &str, counter: &str) -> f64 {
    spans
        .iter()
        .filter(|s| s.name == span)
        .flat_map(|s| s.counters.iter())
        .filter(|(name, _)| name == counter)
        .map(|(_, v)| v)
        // An empty sum of floats is -0.0.
        .sum::<f64>()
        + 0.0
}

/// The scalar series of a child's `--metrics FILE.json` snapshot that are
/// not zero.
pub fn read_child_metrics(path: &Path) -> Vec<(String, f64)> {
    let Ok(text) = std::fs::read_to_string(path) else { return Vec::new() };
    text.lines()
        .filter_map(|line| {
            let v = Json::parse(line).ok()?;
            let value = v.get("value")?.as_f64().filter(|&x| x != 0.0)?;
            Some((v.get("metric")?.as_str()?.to_string(), value))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_tracer_that_is_off_records_nothing() {
        let mut t = Tracer::new(false);
        assert_eq!(t.span("a", |t| t.span("b", |_| 7)), 7);
        assert!(t.spans.is_empty());
    }

    #[test]
    fn spans_link_to_their_parents_and_nest_in_time() {
        // `Tracer::new(true)` records without flipping the process-wide
        // obs switch, which other tests of this binary must see off.
        let mut t = Tracer::new(true);
        t.context("w", "c", 2);
        t.span("outer", |t| {
            t.span("first", |_| ());
            t.span("second", |t| t.attach(vec![("child_counter".into(), 3.0)]));
        });
        let names: Vec<_> = t.spans.iter().map(|s| (s.name, s.parent)).collect();
        assert_eq!(names, [("outer", None), ("first", Some(0)), ("second", Some(0))]);
        let (outer, first, second) = (&t.spans[0], &t.spans[1], &t.spans[2]);
        assert!(outer.start_ns <= first.start_ns && first.end_ns <= second.start_ns);
        assert!(second.end_ns <= outer.end_ns);
        assert_eq!((outer.workload.as_str(), outer.command.as_str(), outer.pass), ("w", "c", 2));
        assert_eq!(counter_sum(&t.spans, "second", "child_counter"), 3.0);
        // A later workload sums over its own spans only.
        assert_eq!(counter_sum(&t.spans[3..], "second", "child_counter"), 0.0);

        let path =
            std::env::temp_dir().join(format!("smpx-bench-trace-{}.jsonl", std::process::id()));
        t.write(&path).expect("trace file");
        let text = std::fs::read_to_string(&path).expect("trace file");
        let rows: Vec<Json> = text.lines().map(|l| Json::parse(l).expect("span row")).collect();
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[1].get("parent").and_then(Json::as_f64), Some(0.0));
        assert_eq!(rows[0].get("parent"), Some(&Json::Null));
        std::fs::remove_file(&path).expect("clean up");
    }

    #[test]
    fn child_snapshots_keep_their_non_zero_scalars() {
        let path = std::env::temp_dir().join(format!("smpx-bench-m-{}.json", std::process::id()));
        std::fs::write(
            &path,
            "{\"metric\":\"a_total\",\"type\":\"counter\",\"unit\":\"count\",\"help\":\"\",\"value\":4}\n\
             {\"metric\":\"b_total\",\"type\":\"counter\",\"unit\":\"count\",\"help\":\"\",\"value\":0}\n\
             {\"metric\":\"h\",\"type\":\"histogram\",\"unit\":\"count\",\"help\":\"\",\"count\":1,\"sum\":3,\"buckets\":[]}\n",
        )
        .expect("snapshot");
        assert_eq!(read_child_metrics(&path), [("a_total".to_string(), 4.0)]);
        std::fs::remove_file(&path).expect("clean up");
    }
}
