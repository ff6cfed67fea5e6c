//! Self-describing JSON-lines snapshot export.
//!
//! Mirrors the bench harness' `bench::json` shape: one compact JSON
//! object per line, keys in fixed order, no external serializer. Each
//! line describes one series — name, kind, unit, help, and the folded
//! value(s) — so a consumer needs no side-channel schema. Time series
//! are scaled to seconds (six decimals) like the Prometheus exposition.

use super::registry::Unit;
use super::snapshot::{HistSample, Sample, Snapshot};
use std::fmt::Write;

fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

fn unit_name(unit: Unit) -> &'static str {
    match unit {
        Unit::Count => "count",
        Unit::Bytes => "bytes",
        Unit::Nanos => "seconds",
    }
}

fn value_json(unit: Unit, raw: u64) -> String {
    match unit {
        Unit::Count | Unit::Bytes => raw.to_string(),
        Unit::Nanos => format!("{:.6}", unit.scale(raw)),
    }
}

fn scalar_line(s: &Sample, kind: &str) -> String {
    format!(
        "{{\"metric\":\"{}\",\"type\":\"{}\",\"unit\":\"{}\",\"help\":\"{}\",\"value\":{}}}",
        s.def.name,
        kind,
        unit_name(s.def.unit),
        esc(s.def.help),
        value_json(s.def.unit, s.value)
    )
}

fn hist_line(h: &HistSample) -> String {
    let mut buckets = String::from("[");
    for (i, &count) in h.buckets.iter().enumerate() {
        if i > 0 {
            buckets.push(',');
        }
        let le = match h.bounds.get(i) {
            Some(&b) => match h.def.unit {
                Unit::Count | Unit::Bytes => b.to_string(),
                Unit::Nanos => format!("{:.6}", h.def.unit.scale(b)),
            },
            None => "\"+Inf\"".to_string(),
        };
        let _ = write!(buckets, "{{\"le\":{le},\"count\":{count}}}");
    }
    buckets.push(']');
    format!(
        "{{\"metric\":\"{}\",\"type\":\"histogram\",\"unit\":\"{}\",\"help\":\"{}\",\
         \"count\":{},\"sum\":{},\"buckets\":{}}}",
        h.def.name,
        unit_name(h.def.unit),
        esc(h.def.help),
        h.count(),
        value_json(h.def.unit, h.sum),
        buckets
    )
}

/// Render a snapshot as JSON-lines, one series per line.
pub fn render(snap: &Snapshot) -> String {
    let mut out = String::new();
    for c in &snap.counters {
        out.push_str(&scalar_line(c, "counter"));
        out.push('\n');
    }
    for g in &snap.gauges {
        out.push_str(&scalar_line(g, "gauge"));
        out.push('\n');
    }
    for h in &snap.histograms {
        out.push_str(&hist_line(h));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::super::registry::{CounterId, HistId, MetricsRegistry};
    use super::*;

    #[test]
    fn scalar_lines_are_compact_objects() {
        let r = MetricsRegistry::new();
        r.add(CounterId::PoolSteals, 11);
        let text = render(&r.snapshot());
        let line = text.lines().find(|l| l.contains("smpx_pool_steals_total")).unwrap();
        assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
        assert!(line.contains("\"type\":\"counter\""), "{line}");
        assert!(line.contains("\"unit\":\"count\""), "{line}");
        assert!(line.contains("\"value\":11"), "{line}");
    }

    #[test]
    fn histogram_line_carries_buckets_and_inf() {
        let r = MetricsRegistry::new();
        r.observe(HistId::LifecycleBurstSize, 3);
        let text = render(&r.snapshot());
        let line =
            text.lines().find(|l| l.contains("\"metric\":\"smpx_lifecycle_burst_edits\"")).unwrap();
        assert!(
            line.contains(
                "\"buckets\":[{\"le\":1,\"count\":0},{\"le\":2,\"count\":0},{\"le\":4,\"count\":1}"
            ),
            "{line}"
        );
        assert!(line.contains("{\"le\":\"+Inf\",\"count\":0}"), "{line}");
        assert!(line.contains("\"count\":1,\"sum\":3"), "{line}");
    }

    #[test]
    fn time_series_scale_to_seconds() {
        let r = MetricsRegistry::new();
        r.add(CounterId::StageCompileNanos, 1_500_000);
        let text = render(&r.snapshot());
        let line = text.lines().find(|l| l.contains("smpx_stage_compile_seconds_total")).unwrap();
        assert!(line.contains("\"value\":0.001500"), "{line}");
    }
}
