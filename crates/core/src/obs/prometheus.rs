//! Prometheus text exposition (version 0.0.4) of a [`Snapshot`].
//!
//! Hand-rolled: the format is line-oriented and needs no escaping for
//! our static names/helps (enforced by the registry's naming tests).
//! Time series stored in nanoseconds are scaled to seconds here, and
//! histogram buckets are emitted cumulatively with `le` labels as the
//! format requires.

use super::registry::Unit;
use super::snapshot::{HistSample, Sample, Snapshot};
use std::fmt::Write;

fn scaled(unit: Unit, raw: u64) -> String {
    match unit {
        Unit::Count | Unit::Bytes => raw.to_string(),
        Unit::Nanos => format!("{}", unit.scale(raw)),
    }
}

fn write_scalar(out: &mut String, s: &Sample, kind: &str) {
    let _ = writeln!(out, "# HELP {} {}", s.def.name, s.def.help);
    let _ = writeln!(out, "# TYPE {} {}", s.def.name, kind);
    let _ = writeln!(out, "{} {}", s.def.name, scaled(s.def.unit, s.value));
}

fn write_histogram(out: &mut String, h: &HistSample) {
    let _ = writeln!(out, "# HELP {} {}", h.def.name, h.def.help);
    let _ = writeln!(out, "# TYPE {} histogram", h.def.name);
    let mut cumulative = 0u64;
    for (i, &bucket) in h.buckets.iter().enumerate() {
        cumulative += bucket;
        let le = match h.bounds.get(i) {
            Some(&b) => format!("{}", h.def.unit.scale(b)),
            None => "+Inf".to_string(),
        };
        let _ = writeln!(out, "{}_bucket{{le=\"{}\"}} {}", h.def.name, le, cumulative);
    }
    let _ = writeln!(out, "{}_sum {}", h.def.name, scaled(h.def.unit, h.sum));
    let _ = writeln!(out, "{}_count {}", h.def.name, cumulative);
}

/// Render a snapshot as Prometheus text exposition.
pub fn render(snap: &Snapshot) -> String {
    let mut out = String::new();
    for c in &snap.counters {
        write_scalar(&mut out, c, "counter");
    }
    for g in &snap.gauges {
        write_scalar(&mut out, g, "gauge");
    }
    for h in &snap.histograms {
        write_histogram(&mut out, h);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::super::registry::{CounterId, HistId, MetricsRegistry};
    use super::*;

    #[test]
    fn scalar_lines_scale_time_to_seconds() {
        let r = MetricsRegistry::new();
        r.add(CounterId::PoolBusyNanos, 2_500_000_000);
        let text = render(&r.snapshot());
        assert!(text.contains("smpx_pool_busy_seconds_total 2.5\n"), "{text}");
    }

    #[test]
    fn histogram_buckets_are_cumulative_and_end_with_inf() {
        let r = MetricsRegistry::new();
        for v in [1, 1, 3, 500] {
            r.observe(HistId::LifecycleBurstSize, v);
        }
        let text = render(&r.snapshot());
        assert!(text.contains("smpx_lifecycle_burst_edits_bucket{le=\"1\"} 2\n"), "{text}");
        assert!(text.contains("smpx_lifecycle_burst_edits_bucket{le=\"4\"} 3\n"), "{text}");
        assert!(text.contains("smpx_lifecycle_burst_edits_bucket{le=\"+Inf\"} 4\n"), "{text}");
        assert!(text.contains("smpx_lifecycle_burst_edits_count 4\n"), "{text}");
        assert!(text.contains("smpx_lifecycle_burst_edits_sum 505\n"), "{text}");
    }
}
