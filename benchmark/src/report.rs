//! What a run leaves behind: the result file, the `name workload value
//! unit` lines, and the one-line JSON object a driver reads last.

use crate::e2e::{CmdSamples, Tally};
use crate::json::Json;
use crate::layers::Rows;
use crate::spec::{Metric, END_TO_END, PER_LAYER};
use crate::workloads::Workload;
use smpx_core::RunStats;
use std::path::Path;

/// Everything measured on one workload.
pub struct WorkloadResult {
    pub name: &'static str,
    /// The five timed end-to-end values, by declared name.
    pub end_to_end: Rows,
    /// Per-pass values of the end-to-end metrics (`setup_s`: per repetition).
    pub samples: Vec<(&'static str, Vec<f64>)>,
    /// The drift gauges, or every layer row in a traced run.
    pub layers: Rows,
    pub tally: Tally,
    pub oracle: &'static str,
    pub commands: Vec<Json>,
}

fn unit_of(metrics: &[Metric], name: &str) -> &'static str {
    metrics.iter().find(|m| m.name == name).map_or("", |m| m.unit)
}

fn metric_obj(rows: &Rows, metrics: &[Metric]) -> Json {
    Json::Obj(
        rows.iter()
            .map(|(name, value)| {
                let fields =
                    vec![("value", Json::Num(*value)), ("unit", Json::str(unit_of(metrics, name)))];
                (name.to_string(), Json::obj(fields))
            })
            .collect(),
    )
}

fn run_stats_json(s: &RunStats) -> Json {
    let RunStats {
        input_bytes,
        output_bytes,
        chars_compared,
        bytes_scanned,
        shifts,
        shift_total,
        initial_jump_chars,
        tokens_matched,
        false_matches,
        io_window_bytes,
        match_events,
        shards,
    } = *s;
    let n = |x: u64| Json::Num(x as f64);
    Json::obj(vec![
        ("input_bytes", n(input_bytes)),
        ("output_bytes", n(output_bytes)),
        ("chars_compared", n(chars_compared)),
        ("bytes_scanned", n(bytes_scanned)),
        ("shifts", n(shifts)),
        ("shift_total", n(shift_total)),
        ("initial_jump_chars", n(initial_jump_chars)),
        ("tokens_matched", n(tokens_matched)),
        ("false_matches", n(false_matches)),
        ("io_window_bytes", n(io_window_bytes)),
        ("match_events", n(match_events)),
        ("shards", n(shards)),
    ])
}

/// One row per command: its flags, raw per-pass samples, the `RunStats`
/// of its library run and its output size. Per-query detail lives here,
/// not in more metric names.
pub fn command_rows(w: &Workload, samples: &[CmdSamples]) -> Vec<Json> {
    w.commands
        .iter()
        .zip(samples)
        .map(|(c, s)| {
            Json::obj(vec![
                ("name", Json::str(c.name.as_str())),
                ("flags", Json::str(c.flags.join(" "))),
                ("cpus", Json::str(c.cpus.as_str())),
                ("queries", Json::Num(c.query.path_sets().map_or(0, |q| q.len()) as f64)),
                ("input_bytes", Json::Num(s.input_bytes as f64)),
                ("output_bytes", Json::Num(s.output_bytes as f64)),
                ("cli_wall_s", Json::nums(&s.cli_wall_s)),
                ("cli_cpu_s", Json::nums(&s.cli_cpu_s)),
                ("cli_rss_kib", Json::nums(&s.cli_rss_kib)),
                ("lib_wall_s", Json::nums(&s.lib_wall_s)),
                ("run_stats", run_stats_json(&s.stats)),
            ])
        })
        .collect()
}

impl WorkloadResult {
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("end_to_end", metric_obj(&self.end_to_end, &END_TO_END)),
            ("fail_share", Json::Num(self.tally.fail_share())),
            ("ops", Json::Num(self.tally.attempted as f64)),
            ("failed", Json::Num(self.tally.failed as f64)),
            ("failures", Json::Arr(self.tally.messages.iter().map(Json::str).collect())),
            ("oracle", Json::str(self.oracle)),
            (
                "samples",
                Json::Obj(
                    self.samples.iter().map(|(k, v)| (k.to_string(), Json::nums(v))).collect(),
                ),
            ),
            ("layers", metric_obj(&self.layers, &PER_LAYER)),
            ("commands", Json::Arr(self.commands.clone())),
        ])
    }

    /// `name workload value unit`, one metric per line.
    pub fn print_lines(&self) {
        for (rows, metrics) in [(&self.end_to_end, &END_TO_END[..]), (&self.layers, &PER_LAYER[..])]
        {
            for (name, value) in rows {
                println!("{name} {} {value} {}", self.name, unit_of(metrics, name));
            }
        }
        println!("fail_share {} {} share", self.name, self.tally.fail_share());
    }

    /// The object a driver reads from the last line of stdout: the
    /// end-to-end metrics of an untraced run, the per-layer metrics of a
    /// traced one.
    pub fn result_line(&self, traced: bool) -> String {
        let metrics = if traced {
            metric_obj(&self.layers, &PER_LAYER)
        } else {
            metric_obj(&self.end_to_end, &END_TO_END)
        };
        Json::obj(vec![
            ("correct", Json::Bool(self.tally.failed == 0)),
            ("attempted", Json::Num(self.tally.attempted as f64)),
            ("failed", Json::Num(self.tally.failed as f64)),
            ("metrics", metrics),
        ])
        .compact()
    }
}

pub fn write_results(
    path: &Path,
    header: Vec<(&'static str, Json)>,
    results: &[WorkloadResult],
) -> Result<(), String> {
    let mut fields = header;
    fields.push((
        "workloads",
        Json::Obj(results.iter().map(|r| (r.name.to_string(), r.to_json())).collect()),
    ));
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, Json::obj(fields).pretty()).map_err(|e| format!("{}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result(failed: u64) -> WorkloadResult {
        let mut tally = Tally { attempted: 10, failed, ..Tally::default() };
        if failed > 0 {
            tally.messages.push("cli XM5: output differs".into());
        }
        WorkloadResult {
            name: "xmark-mmap",
            end_to_end: END_TO_END.iter().map(|m| (m.name, 1.5)).collect(),
            samples: vec![("cli_mibs", vec![1.0, 2.0])],
            layers: PER_LAYER.iter().map(|m| (m.name, 2.5)).collect(),
            tally,
            oracle: "pinned",
            commands: vec![],
        }
    }

    #[test]
    fn the_result_line_has_exactly_the_contract_keys_and_declared_metrics() {
        for (traced, declared) in [(false, &END_TO_END[..]), (true, &PER_LAYER[..])] {
            let line = Json::parse(&result(0).result_line(traced)).expect("one JSON object");
            let keys: Vec<&str> =
                line.as_obj().expect("object").iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(line.get("correct"), Some(&Json::Bool(true)));
            let metrics = line.get("metrics").and_then(Json::as_obj).expect("metrics");
            let names: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(names, declared.iter().map(|m| m.name).collect::<Vec<_>>());
            for ((_, v), m) in metrics.iter().zip(declared) {
                assert_eq!(v.get("unit").and_then(Json::as_str), Some(m.unit));
                assert!(v.get("value").and_then(Json::as_f64).is_some());
            }
        }
    }

    #[test]
    fn a_failed_operation_makes_the_run_incorrect() {
        let r = result(2);
        let line = Json::parse(&r.result_line(false)).expect("one JSON object");
        assert_eq!(line.get("correct"), Some(&Json::Bool(false)));
        assert_eq!(line.get("failed").and_then(Json::as_f64), Some(2.0));
        assert_eq!(r.to_json().get("fail_share").and_then(Json::as_f64), Some(0.2));
    }
}
