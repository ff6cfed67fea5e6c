//! Stage timers: drop-guard spans that charge wall-clock time to a
//! fixed set of pipeline phases.
//!
//! A [`StageTimer`] is armed only when observability is enabled, so the
//! disabled hot path never calls [`Instant::now`] — the entire cost is
//! one relaxed load and a branch. On drop an armed timer folds its
//! elapsed nanoseconds into the stage's `_seconds_total` counter and
//! bumps the matching `_events_total` counter.

use super::registry::CounterId;
use std::time::Instant;

/// The pipeline phases the process accounts wall-clock time against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StageId {
    /// Automaton compilation (`Prefilter::compile`, `compile_multi`).
    Compile,
    /// Sequential document scan (one `filter_one` run).
    Scan,
    /// Synchronous read waits in the chunked reader source.
    IoWait,
    /// Lifecycle generation publish (write-lock swap).
    Swap,
}

impl StageId {
    /// The `(nanos, events)` counter pair this stage folds into.
    pub const fn counters(self) -> (CounterId, CounterId) {
        match self {
            StageId::Compile => (CounterId::StageCompileNanos, CounterId::StageCompileEvents),
            StageId::Scan => (CounterId::StageScanNanos, CounterId::StageScanEvents),
            StageId::IoWait => (CounterId::StageIoWaitNanos, CounterId::StageIoWaitEvents),
            StageId::Swap => (CounterId::StageSwapNanos, CounterId::StageSwapEvents),
        }
    }
}

/// A drop-guard span charging its lifetime to one [`StageId`].
///
/// Construct through [`crate::obs::stage`]; when observability is
/// disabled the guard is unarmed (`start == None`) and drop is free.
#[must_use = "a stage timer measures until dropped"]
pub struct StageTimer {
    stage: StageId,
    start: Option<Instant>,
}

impl StageTimer {
    /// An armed timer: starts counting now.
    pub(super) fn armed(stage: StageId) -> StageTimer {
        StageTimer { stage, start: Some(Instant::now()) }
    }

    /// An unarmed timer: records nothing on drop.
    pub(super) fn disarmed(stage: StageId) -> StageTimer {
        StageTimer { stage, start: None }
    }

    /// Whether this timer will record on drop.
    pub fn is_armed(&self) -> bool {
        self.start.is_some()
    }
}

impl Drop for StageTimer {
    fn drop(&mut self) {
        if let Some(start) = self.start.take() {
            let (nanos, events) = self.stage.counters();
            let elapsed = start.elapsed().as_nanos().min(u64::MAX as u128) as u64;
            super::add(nanos, elapsed);
            super::add(events, 1);
        }
    }
}
