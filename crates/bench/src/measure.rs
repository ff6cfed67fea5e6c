//! Wall-clock and CPU-time measurement.
//!
//! The paper reports `Usr` + `Sys` (process CPU seconds) separately from
//! real time, because its prototype was disk-bound. We read the same
//! numbers from `/proc/self/stat` on Linux (USER_HZ = 100) and fall back to
//! wall time elsewhere.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// A document written to a unique temp file, removed on drop — the disk
/// half of every file-backed delivery in the bench crate (table-runner
/// deliveries and the `sources` bench both map/stream real files).
pub struct TempDocFile {
    path: PathBuf,
}

impl TempDocFile {
    /// Write `doc` to a fresh pid- and tag-unique temp file.
    pub fn new(tag: &str, doc: &[u8]) -> TempDocFile {
        let path =
            std::env::temp_dir().join(format!("smpx-bench-{}-{tag}.xml", std::process::id()));
        std::fs::write(&path, doc).expect("write bench temp file");
        TempDocFile { path }
    }

    /// Where the document lives.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for TempDocFile {
    fn drop(&mut self) {
        std::fs::remove_file(&self.path).ok();
    }
}

/// A wall + CPU duration pair.
#[derive(Debug, Clone, Copy, Default)]
pub struct Timed {
    /// Elapsed real time.
    pub wall: Duration,
    /// Process CPU time (user + system), best effort.
    pub cpu: Duration,
}

impl Timed {
    /// Throughput in MB/s given `bytes` processed (wall-clock based).
    pub fn throughput_mbs(&self, bytes: u64) -> f64 {
        let secs = self.wall.as_secs_f64();
        if secs <= 0.0 {
            0.0
        } else {
            bytes as f64 / (1024.0 * 1024.0) / secs
        }
    }
}

/// Process CPU time (utime + stime) on Linux; `None` elsewhere.
pub fn process_cpu_time() -> Option<Duration> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // Field 2 (comm) may contain spaces; it is parenthesized — skip past it.
    let after = stat.rsplit_once(')')?.1;
    let fields: Vec<&str> = after.split_whitespace().collect();
    // After the comm field: state is field 0, utime is field 11, stime 12.
    let utime: u64 = fields.get(11)?.parse().ok()?;
    let stime: u64 = fields.get(12)?.parse().ok()?;
    // USER_HZ is 100 on all mainstream Linux configurations.
    Some(Duration::from_millis((utime + stime) * 10))
}

/// Time a closure, returning its result and the measurement.
pub fn time<T>(f: impl FnOnce() -> T) -> (T, Timed) {
    let cpu0 = process_cpu_time();
    let t0 = Instant::now();
    let out = f();
    let wall = t0.elapsed();
    let cpu = match (cpu0, process_cpu_time()) {
        (Some(a), Some(b)) => b.saturating_sub(a),
        _ => wall,
    };
    (out, Timed { wall, cpu })
}

/// Format a byte count as `x.xx MB`.
pub fn fmt_mb(bytes: u64) -> String {
    format!("{:.2}MB", bytes as f64 / (1024.0 * 1024.0))
}

/// Environment-variable override in MiB with a default.
pub fn env_mb(var: &str, default_mb: usize) -> usize {
    std::env::var(var).ok().and_then(|v| v.parse::<usize>().ok()).unwrap_or(default_mb)
        * 1024
        * 1024
}

/// Which `DocSource` backend the table runners deliver documents through,
/// selected by the `SMPX_SOURCE` environment variable (`slice` default,
/// `mmap`, `reader`, `prefetch`) so the same experiment binaries can
/// measure every backend — the nightly paper-scale CI job runs them over
/// `mmap`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SourceMode {
    /// In-memory slice (the generated document, no file round-trip).
    Slice,
    /// Memory-mapped temp file.
    Mmap,
    /// Chunked streaming read of a temp file.
    Reader,
    /// Chunked streaming read prefetched by the `smpx-io` thread.
    Prefetch,
}

impl SourceMode {
    /// Parse one `SMPX_SOURCE` value; `Err(())` = unrecognized (the
    /// caller decides how loudly to fall back).
    pub(crate) fn parse(raw: &str) -> Result<SourceMode, ()> {
        match raw.trim() {
            "" | "slice" => Ok(SourceMode::Slice),
            "mmap" => Ok(SourceMode::Mmap),
            "reader" => Ok(SourceMode::Reader),
            "prefetch" => Ok(SourceMode::Prefetch),
            _ => Err(()),
        }
    }

    /// Read `SMPX_SOURCE`. An unrecognized value falls back to `Slice`
    /// **after one stderr warning** — a typo like `SMPX_SOURCE=mmpa`
    /// must not silently benchmark the wrong backend (same policy as
    /// `SMPX_METRICS`).
    pub fn from_env() -> SourceMode {
        match std::env::var("SMPX_SOURCE") {
            Ok(v) => SourceMode::parse(&v).unwrap_or_else(|()| {
                static WARN: std::sync::Once = std::sync::Once::new();
                WARN.call_once(|| {
                    eprintln!(
                        "smpx: warning: SMPX_SOURCE={v:?} is not one of \
                         slice|mmap|reader|prefetch; using slice"
                    );
                });
                SourceMode::Slice
            }),
            Err(_) => SourceMode::Slice,
        }
    }
}

/// Worker count for the parallel batch driver, from `SMPX_THREADS`:
/// unset or `1` means the classic sequential path, `0` means the
/// machine's available parallelism, anything else is the pool width.
/// `runners::Delivery` routes its runs through the pool
/// when this exceeds 1 (and the tables grow a `Thr` column), so the CI
/// leg that exports `SMPX_THREADS=4` drives the whole experiment suite —
/// and the tier-1 tests that go through `Delivery` — over the pool.
pub fn env_threads() -> usize {
    match std::env::var("SMPX_THREADS").ok().and_then(|v| v.parse::<usize>().ok()) {
        // Pool::new owns the 0-means-available-parallelism resolution.
        Some(n) => smpx_core::Pool::new(n).threads(),
        None => 1,
    }
}

/// Multi-query workload width from `SMPX_QUERIES`: unset or `1` means the
/// classic single-query automaton, `N > 1` makes `runners::Delivery`-based
/// table runs compile the row's path set into an N-query shared automaton
/// (`Prefilter::compile_multi`) — one pass answering N standing queries —
/// and the tables grow a `Qrys` column. `0` is clamped to 1.
pub fn env_queries() -> usize {
    std::env::var("SMPX_QUERIES").ok().and_then(|v| v.parse::<usize>().ok()).map_or(1, |n| n.max(1))
}

/// Streaming chunk for [`SourceMode::Reader`] deliveries: `SMPX_CHUNK_KB`
/// (KiB) or the paper's default window.
pub fn source_chunk() -> usize {
    std::env::var("SMPX_CHUNK_KB")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .map_or(smpx_core::runtime::DEFAULT_CHUNK, |kb| kb.max(1) * 1024)
}

/// Document size for the criterion bench targets: `SMPX_BENCH_KB` (in KiB)
/// overrides `default_bytes`. The CI bench-smoke job sets a tiny size so
/// every per-PR run stays fast while still exercising the full bench
/// matrix and emitting the JSON perf artifact.
pub fn bench_doc_bytes(default_bytes: usize) -> usize {
    std::env::var("SMPX_BENCH_KB")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .map_or(default_bytes, |kb| kb.max(1) * 1024)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_time_available_on_linux() {
        if cfg!(target_os = "linux") {
            assert!(process_cpu_time().is_some());
        }
    }

    #[test]
    fn time_measures_work() {
        let (sum, t) = time(|| (0..2_000_000u64).sum::<u64>());
        assert_eq!(sum, 1_999_999_000_000);
        assert!(t.wall.as_nanos() > 0);
    }

    #[test]
    fn throughput_math() {
        let t = Timed { wall: Duration::from_secs(2), cpu: Duration::from_secs(1) };
        let mbs = t.throughput_mbs(4 * 1024 * 1024);
        assert!((mbs - 2.0).abs() < 1e-9);
    }

    #[test]
    fn fmt_and_env() {
        assert_eq!(fmt_mb(1024 * 1024), "1.00MB");
        std::env::remove_var("SMPX_TEST_MB_XYZ");
        assert_eq!(env_mb("SMPX_TEST_MB_XYZ", 3), 3 * 1024 * 1024);
    }

    #[test]
    fn source_mode_parses_every_backend() {
        assert_eq!(SourceMode::parse("slice"), Ok(SourceMode::Slice));
        assert_eq!(SourceMode::parse(""), Ok(SourceMode::Slice));
        assert_eq!(SourceMode::parse("mmap"), Ok(SourceMode::Mmap));
        assert_eq!(SourceMode::parse("reader"), Ok(SourceMode::Reader));
        assert_eq!(SourceMode::parse(" prefetch "), Ok(SourceMode::Prefetch));
    }

    #[test]
    fn source_mode_rejects_typos_for_the_caller_to_warn() {
        assert_eq!(SourceMode::parse("mmpa"), Err(()));
        assert_eq!(SourceMode::parse("MMAP"), Err(()), "modes are case-sensitive");
        assert_eq!(SourceMode::parse("file"), Err(()));
    }
}
