//! `SMPX_METRICS` environment plumbing.
//!
//! `SMPX_METRICS=<path|->` enables process-wide recording and names the
//! exit-snapshot destination: `-` writes Prometheus text to stderr
//! (stdout stays reserved for projected documents), a path ending in
//! `.json`/`.jsonl` receives the JSON-lines snapshot, any other path the
//! Prometheus exposition. Explicit off-values (`0`, `off`, `false`,
//! `no`, empty) disable silently; bare on-values (`1`, `on`, `true`,
//! `yes`) name no destination and are **rejected with one stderr
//! warning** before falling back to disabled: an operator typo is never
//! dropped silently.

use std::io::Write;

/// Where (and whether) the exit snapshot goes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MetricsTarget {
    /// Observability stays off.
    Disabled,
    /// Prometheus text to stderr.
    Stderr,
    /// Snapshot to a file; format chosen by extension.
    File(String),
}

/// Parse one `SMPX_METRICS` value. `Err(())` means the value looks like
/// a destination-less enable switch — the caller warns and disables.
/// The unit error is deliberate: there is exactly one failure mode and
/// the two callers attach their own (env-warn vs. flag-usage) wording.
#[allow(clippy::result_unit_err)]
pub fn parse_metrics_value(raw: &str) -> Result<MetricsTarget, ()> {
    match raw.trim() {
        "" | "0" | "off" | "false" | "no" => Ok(MetricsTarget::Disabled),
        "-" => Ok(MetricsTarget::Stderr),
        "1" | "on" | "true" | "yes" => Err(()),
        path => Ok(MetricsTarget::File(path.to_string())),
    }
}

/// Read `SMPX_METRICS`, warning once per process about a
/// destination-less value before treating it as disabled.
pub fn metrics_target_from_env() -> MetricsTarget {
    match std::env::var("SMPX_METRICS") {
        Ok(v) => parse_metrics_value(&v).unwrap_or_else(|()| {
            static WARN: std::sync::Once = std::sync::Once::new();
            WARN.call_once(|| {
                eprintln!(
                    "smpx: warning: SMPX_METRICS={v:?} names no destination; \
                     use a file path or `-` for stderr — metrics stay disabled"
                );
            });
            MetricsTarget::Disabled
        }),
        Err(_) => MetricsTarget::Disabled,
    }
}

/// [`metrics_target_from_env`], additionally flipping the process-wide
/// enable switch when a destination was named. Call once at startup;
/// pass the returned target to [`emit`] at exit.
pub fn init_from_env() -> MetricsTarget {
    let target = metrics_target_from_env();
    if target != MetricsTarget::Disabled {
        super::enable();
    }
    target
}

/// Snapshot the global registry and write it to `target` — Prometheus
/// text everywhere except paths ending in `.json`/`.jsonl`, which get
/// the JSON-lines snapshot. [`MetricsTarget::Disabled`] writes nothing.
pub fn emit(target: &MetricsTarget) -> std::io::Result<()> {
    let path = match target {
        MetricsTarget::Disabled => return Ok(()),
        MetricsTarget::Stderr => None,
        MetricsTarget::File(p) => Some(p.as_str()),
    };
    let snap = super::global().snapshot();
    let json = path.is_some_and(|p| p.ends_with(".json") || p.ends_with(".jsonl"));
    let text = if json { super::render_json(&snap) } else { super::render_prometheus(&snap) };
    match path {
        None => std::io::stderr().write_all(text.as_bytes()),
        Some(p) => std::fs::write(p, text),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_values_disable_silently() {
        for v in ["", "0", "off", "false", "no", "  off  "] {
            assert_eq!(parse_metrics_value(v), Ok(MetricsTarget::Disabled), "{v:?}");
        }
    }

    #[test]
    fn dash_means_stderr_and_paths_stay_paths() {
        assert_eq!(parse_metrics_value("-"), Ok(MetricsTarget::Stderr));
        assert_eq!(
            parse_metrics_value("/tmp/m.prom"),
            Ok(MetricsTarget::File("/tmp/m.prom".into()))
        );
        assert_eq!(
            parse_metrics_value("metrics.json"),
            Ok(MetricsTarget::File("metrics.json".into()))
        );
    }

    #[test]
    fn destination_less_switches_are_rejected_not_dropped() {
        for v in ["1", "on", "true", "yes"] {
            assert_eq!(parse_metrics_value(v), Err(()), "{v:?} must warn, not silently drop");
        }
    }
}
