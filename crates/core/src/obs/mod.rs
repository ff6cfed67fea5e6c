//! Process-wide observability: metric registry, stage timers, and
//! snapshot/exposition surfaces.
//!
//! # Design
//!
//! Every series is declared statically ([`registry`]); the process
//! holds one const-initialized global [`MetricsRegistry`] plus an
//! `enabled` flag that is **off by default**. The free functions in
//! this module are the hot-path API: each checks the flag with one
//! relaxed load and branches away when observability is off, so the
//! disabled cost is a couple of instructions — no atomics written, no
//! clock reads, no allocation. When enabled, counters land on
//! per-thread cache-line stripes (folded only at snapshot time) and
//! stage timers read the monotonic clock exactly twice per span.
//!
//! [`MetricsRegistry`]'s *instance* methods are deliberately ungated:
//! an owned registry (unit tests, a future `smpxd` with per-listener
//! stores) always records. The global enable switch is one-way — flip
//! it on at startup via [`enable`], snapshot at exit via [`global`].
//!
//! # Fold rules
//!
//! Counters are monotone sums (across threads and across runs); gauges
//! are either last-write-wins ([`gauge_set`]) or running maxima
//! ([`gauge_max`]); histograms accumulate per-bucket counts. The fold
//! rule for each `RunStats` field mirrored into the registry matches
//! `RunStats::accumulate` — summed, except `io_window_bytes` which is
//! max-folded into [`GaugeId::RunIoWindowBytesPeak`].

mod env;
mod hist;
mod json;
mod prometheus;
mod registry;
mod snapshot;
mod timer;

pub use env::{emit, init_from_env, metrics_target_from_env, parse_metrics_value, MetricsTarget};
pub use registry::{
    CounterId, GaugeId, HistId, MetricsRegistry, SeriesDef, ShardedU64, Unit, ALL_COUNTERS,
    ALL_GAUGES, ALL_HISTS,
};
pub use snapshot::{HistSample, Sample, Snapshot};
pub use timer::{StageId, StageTimer};

use crate::stats::RunStats;
use std::sync::atomic::{AtomicBool, Ordering};

static ENABLED: AtomicBool = AtomicBool::new(false);
static GLOBAL: MetricsRegistry = MetricsRegistry::new();

/// Turn on process-wide metric recording (one-way; idempotent).
pub fn enable() {
    ENABLED.store(true, Ordering::Release);
}

/// Whether process-wide recording is on.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// The process-wide registry. Always readable; only written through
/// the gated free functions below (or directly, if a caller wants to
/// record regardless of the enable flag).
pub fn global() -> &'static MetricsRegistry {
    &GLOBAL
}

/// Bump a global counter by `n` (no-op while disabled).
#[inline]
pub fn add(id: CounterId, n: u64) {
    if enabled() {
        GLOBAL.add(id, n);
    }
}

/// Add a duration to a nanosecond-unit global counter (no-op while
/// disabled).
#[inline]
pub fn add_nanos(id: CounterId, nanos: u128) {
    if enabled() {
        GLOBAL.add(id, nanos.min(u64::MAX as u128) as u64);
    }
}

/// Set a global gauge (no-op while disabled).
#[inline]
pub fn gauge_set(id: GaugeId, v: u64) {
    if enabled() {
        GLOBAL.gauge_set(id, v);
    }
}

/// Raise a global gauge to at least `v` (no-op while disabled).
#[inline]
pub fn gauge_max(id: GaugeId, v: u64) {
    if enabled() {
        GLOBAL.gauge_max(id, v);
    }
}

/// Record an observation into a global histogram (no-op while
/// disabled).
#[inline]
pub fn observe(id: HistId, v: u64) {
    if enabled() {
        GLOBAL.observe(id, v);
    }
}

/// Open a stage span; armed (clock read) only while enabled.
#[inline]
pub fn stage(id: StageId) -> StageTimer {
    if enabled() {
        StageTimer::armed(id)
    } else {
        StageTimer::disarmed(id)
    }
}

/// Fold one finished run's [`RunStats`] into the process counters.
///
/// Every field is summed except `io_window_bytes`, which max-folds into
/// [`GaugeId::RunIoWindowBytesPeak`] — the same fold rules as
/// `RunStats::accumulate` — and `shards`, which is always 0. The
/// exhaustive destructuring makes adding a `RunStats` field without
/// stating its process-level fold rule a compile error.
pub fn record_run(stats: &RunStats) {
    if !enabled() {
        return;
    }
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
        shards: _,
    } = *stats;
    GLOBAL.add(CounterId::RunRuns, 1);
    GLOBAL.add(CounterId::RunInputBytes, input_bytes);
    GLOBAL.add(CounterId::RunOutputBytes, output_bytes);
    GLOBAL.add(CounterId::RunCharsCompared, chars_compared);
    GLOBAL.add(CounterId::RunBytesScanned, bytes_scanned);
    GLOBAL.add(CounterId::RunShifts, shifts);
    GLOBAL.add(CounterId::RunShiftChars, shift_total);
    GLOBAL.add(CounterId::RunInitialJumpChars, initial_jump_chars);
    GLOBAL.add(CounterId::RunTokensMatched, tokens_matched);
    GLOBAL.add(CounterId::RunFalseMatches, false_matches);
    GLOBAL.add(CounterId::RunMatchEvents, match_events);
    GLOBAL.gauge_max(GaugeId::RunIoWindowBytesPeak, io_window_bytes);
}

/// Render a snapshot as Prometheus text exposition.
pub fn render_prometheus(snap: &Snapshot) -> String {
    prometheus::render(snap)
}

/// Render a snapshot as self-describing JSON-lines.
pub fn render_json(snap: &Snapshot) -> String {
    json::render(snap)
}
