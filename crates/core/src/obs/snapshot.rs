//! Point-in-time materialization of a [`MetricsRegistry`].
//!
//! A snapshot folds counter stripes, copies gauge values, and derives
//! histogram counts from their buckets. Taken under concurrent writes it
//! is *internally coherent* (every histogram satisfies
//! `count == Σ buckets` by construction) and *monotone*: a later
//! snapshot of the same registry never shows a smaller counter value.

use super::registry::{MetricsRegistry, SeriesDef, ALL_COUNTERS, ALL_GAUGES, ALL_HISTS};

/// One scalar series (counter or gauge) with its folded value.
#[derive(Debug, Clone)]
pub struct Sample {
    /// The series' static definition.
    pub def: SeriesDef,
    /// Raw value in the series' storage unit.
    pub value: u64,
}

/// One histogram series with its per-bucket counts.
#[derive(Debug, Clone)]
pub struct HistSample {
    /// The series' static definition.
    pub def: SeriesDef,
    /// Ascending upper bucket bounds (storage unit).
    pub bounds: &'static [u64],
    /// Non-cumulative bucket counts; last entry is the `+Inf` bucket,
    /// so `buckets.len() == bounds.len() + 1`.
    pub buckets: Vec<u64>,
    /// Approximate sum of observed raw values.
    pub sum: u64,
}

impl HistSample {
    /// Total observation count, derived from the buckets (coherent with
    /// them by construction).
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }
}

/// A materialized view of every series in a registry.
#[derive(Debug, Clone)]
pub struct Snapshot {
    /// All counter series, exposition order.
    pub counters: Vec<Sample>,
    /// All gauge series, exposition order.
    pub gauges: Vec<Sample>,
    /// All histogram series, exposition order.
    pub histograms: Vec<HistSample>,
}

impl Snapshot {
    /// Look up a scalar series (counter or gauge) by exposition name.
    pub fn scalar(&self, name: &str) -> Option<u64> {
        self.counters.iter().chain(self.gauges.iter()).find(|s| s.def.name == name).map(|s| s.value)
    }
}

impl MetricsRegistry {
    /// Materialize every series into a [`Snapshot`].
    pub fn snapshot(&self) -> Snapshot {
        Snapshot {
            counters: ALL_COUNTERS
                .iter()
                .map(|&id| Sample { def: id.def(), value: self.counter(id) })
                .collect(),
            gauges: ALL_GAUGES
                .iter()
                .map(|&id| Sample { def: id.def(), value: self.gauge(id) })
                .collect(),
            histograms: ALL_HISTS
                .iter()
                .map(|&id| {
                    let h = self.histogram(id);
                    HistSample {
                        def: id.def(),
                        bounds: id.bounds(),
                        buckets: h.bucket_counts(id.bounds()),
                        sum: h.value_sum(),
                    }
                })
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::registry::{CounterId, GaugeId, HistId};
    use super::*;

    #[test]
    fn snapshot_covers_every_series() {
        let snap = MetricsRegistry::new().snapshot();
        assert_eq!(snap.counters.len(), CounterId::COUNT);
        assert_eq!(snap.gauges.len(), GaugeId::COUNT);
        assert_eq!(snap.histograms.len(), HistId::COUNT);
    }

    #[test]
    fn scalar_lookup_by_name() {
        let r = MetricsRegistry::new();
        r.add(CounterId::PoolSteals, 3);
        r.gauge_set(GaugeId::PoolWorkers, 7);
        let snap = r.snapshot();
        assert_eq!(snap.scalar("smpx_pool_steals_total"), Some(3));
        assert_eq!(snap.scalar("smpx_pool_workers"), Some(7));
        assert_eq!(snap.scalar("smpx_no_such_series"), None);
    }

    #[test]
    fn histogram_count_matches_buckets() {
        let r = MetricsRegistry::new();
        for v in [1, 3, 9, 200] {
            r.observe(HistId::LifecycleBurstSize, v);
        }
        let snap = r.snapshot();
        let h =
            snap.histograms.iter().find(|h| h.def.name == "smpx_lifecycle_burst_edits").unwrap();
        assert_eq!(h.count(), 4);
        assert_eq!(h.buckets.len(), h.bounds.len() + 1);
        assert_eq!(h.sum, 213);
    }
}
