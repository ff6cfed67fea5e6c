//! Per-run statistics matching the paper's Table I/II rows, plus the
//! per-document verdict of a multi-query run.

use crate::idset::{QueryId, QueryIdSet};

/// Statistics collected by an instrumented prefilter run.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RunStats {
    /// Input size in bytes.
    pub input_bytes: u64,
    /// Output (projected document) size in bytes.
    pub output_bytes: u64,
    /// Characters inspected by genuine pattern comparisons: matcher
    /// comparisons plus match verification (the paper's `Char Comp.`,
    /// reported as a percentage of the input).
    pub chars_compared: u64,
    /// Bytes consumed by scanning: the vectorized skip-scan (`memscan`)
    /// plus the tag-end and balanced-scan traversal — the latter in the
    /// `SMPX_NO_SIMD=1` mode too, so this split means the same thing in
    /// both modes. Counted separately from `chars_compared` so the
    /// paper's characters-inspected accounting stays honest: these bytes
    /// were inspected, but by a scan rather than pattern comparisons.
    pub bytes_scanned: u64,
    /// Number of forward shifts performed by the matchers.
    pub shifts: u64,
    /// Sum of shift sizes (`∅ Shift Size` = shift_total / shifts).
    pub shift_total: u64,
    /// Characters skipped by initial jump offsets alone (the paper's
    /// `Initial Jumps`, reported as a percentage of the input).
    pub initial_jump_chars: u64,
    /// Number of tokens matched and processed.
    pub tokens_matched: u64,
    /// Number of keyword matches rejected by the tag-name boundary check
    /// (the paper's prefix-tag special case, e.g. `<Abstract` vs
    /// `<AbstractText`).
    pub false_matches: u64,
    /// Peak owned I/O-buffer bytes the document source allocated (the
    /// paper's `Mem` window share): the window capacity for the reader
    /// backend, zero for zero-copy slice/mmap delivery.
    pub io_window_bytes: u64,
    /// Transitions into states whose action indicates a potential query
    /// match (`copy on`/`copy off`/`copy tag + atts`). Zero means the
    /// document provably selects nothing; non-zero is the single-query
    /// side of the prefilter verdict, with the same false-positive
    /// contract as the projection itself (conservative, never a false
    /// negative).
    pub match_events: u64,
    /// Always 0: every document runs as one sequential pass. Kept only
    /// because the benchmark harness destructures `RunStats`
    /// exhaustively; it goes with the harness's sharded library route.
    pub shards: u64,
}

impl RunStats {
    /// `Char Comp. [%]` of Table I/II.
    pub fn char_comp_pct(&self) -> f64 {
        pct(self.chars_compared, self.input_bytes)
    }

    /// `Initial Jumps [%]` of Table I/II.
    pub fn initial_jumps_pct(&self) -> f64 {
        pct(self.initial_jump_chars, self.input_bytes)
    }

    /// Vector-scanned bytes as a percentage of the input (the skip-scan
    /// companion column to [`char_comp_pct`](Self::char_comp_pct)).
    pub fn scanned_pct(&self) -> f64 {
        pct(self.bytes_scanned, self.input_bytes)
    }

    /// `∅ Shift Size [char]` of Table I/II.
    pub fn avg_shift(&self) -> f64 {
        if self.shifts == 0 {
            0.0
        } else {
            self.shift_total as f64 / self.shifts as f64
        }
    }

    /// Fold another run's counters into this one (a per-batch total row):
    /// counters add up; the I/O window takes the maximum, since batch
    /// documents are processed one at a time.
    pub fn accumulate(&mut self, other: &RunStats) {
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
        } = *other;
        self.input_bytes += input_bytes;
        self.output_bytes += output_bytes;
        self.chars_compared += chars_compared;
        self.bytes_scanned += bytes_scanned;
        self.shifts += shifts;
        self.shift_total += shift_total;
        self.initial_jump_chars += initial_jump_chars;
        self.tokens_matched += tokens_matched;
        self.false_matches += false_matches;
        self.io_window_bytes = self.io_window_bytes.max(io_window_bytes);
        self.match_events += match_events;
        self.shards += shards;
    }

    /// Output size relative to input.
    pub fn projection_ratio(&self) -> f64 {
        if self.input_bytes == 0 {
            0.0
        } else {
            self.output_bytes as f64 / self.input_bytes as f64
        }
    }
}

/// The per-document answer of a multi-query run: *which* of the
/// registered queries might match this document.
///
/// The verdict inherits the prefilter's one-sided error: a listed query
/// may still evaluate to the empty answer on the document (false
/// positive, e.g. a value predicate the prefilter cannot check), but a
/// query missing from the verdict is *guaranteed* to have an empty
/// answer — exactly the contract of each query's own single-query
/// [`RunStats::match_events`] counter, query by query.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MultiVerdict {
    /// Ids of the queries with at least one match event this document.
    pub matched: QueryIdSet,
    /// How many queries the registry answered for (ids are `0..n_queries`).
    pub n_queries: u32,
}

impl MultiVerdict {
    /// Might query `q` match this document?
    pub fn is_matched(&self, q: QueryId) -> bool {
        self.matched.contains(q)
    }

    /// The matched query ids in ascending order.
    pub fn matched_ids(&self) -> Vec<QueryId> {
        self.matched.to_vec()
    }
}

fn pct(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        100.0 * num as f64 / den as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentages() {
        let s = RunStats {
            input_bytes: 200,
            output_bytes: 50,
            chars_compared: 40,
            bytes_scanned: 100,
            shifts: 10,
            shift_total: 57,
            initial_jump_chars: 4,
            tokens_matched: 3,
            false_matches: 0,
            io_window_bytes: 0,
            match_events: 1,
            shards: 0,
        };
        assert!((s.char_comp_pct() - 20.0).abs() < 1e-9);
        assert!((s.scanned_pct() - 50.0).abs() < 1e-9);
        assert!((s.initial_jumps_pct() - 2.0).abs() < 1e-9);
        assert!((s.avg_shift() - 5.7).abs() < 1e-9);
        assert!((s.projection_ratio() - 0.25).abs() < 1e-9);
    }

    #[test]
    fn accumulate_sums_counters_and_maxes_window() {
        let a = RunStats {
            input_bytes: 100,
            output_bytes: 10,
            chars_compared: 5,
            io_window_bytes: 64,
            ..RunStats::default()
        };
        let b = RunStats {
            input_bytes: 50,
            output_bytes: 20,
            chars_compared: 7,
            io_window_bytes: 32,
            ..RunStats::default()
        };
        let mut total = RunStats::default();
        total.accumulate(&a);
        total.accumulate(&b);
        assert_eq!(total.input_bytes, 150);
        assert_eq!(total.output_bytes, 30);
        assert_eq!(total.chars_compared, 12);
        assert_eq!(total.io_window_bytes, 64, "windows are sequential, not additive");
    }

    /// Pins the fold rule of **every** field: all counters sum, the
    /// `io_window_bytes` peak max-folds. The exhaustive destructuring
    /// makes this test fail to compile when a field is added without
    /// stating its fold rule here (and mirroring it in `obs::record_run`).
    #[test]
    fn accumulate_fold_rule_per_field() {
        let a = RunStats {
            input_bytes: 1,
            output_bytes: 2,
            chars_compared: 3,
            bytes_scanned: 4,
            shifts: 5,
            shift_total: 6,
            initial_jump_chars: 7,
            tokens_matched: 8,
            false_matches: 9,
            io_window_bytes: 100,
            match_events: 11,
            shards: 12,
        };
        let b = RunStats {
            input_bytes: 10,
            output_bytes: 20,
            chars_compared: 30,
            bytes_scanned: 40,
            shifts: 50,
            shift_total: 60,
            initial_jump_chars: 70,
            tokens_matched: 80,
            false_matches: 90,
            io_window_bytes: 99,
            match_events: 110,
            shards: 120,
        };
        let mut total = RunStats::default();
        total.accumulate(&a);
        total.accumulate(&b);
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
        } = total;
        assert_eq!(input_bytes, 11, "sum");
        assert_eq!(output_bytes, 22, "sum");
        assert_eq!(chars_compared, 33, "sum");
        assert_eq!(bytes_scanned, 44, "sum");
        assert_eq!(shifts, 55, "sum");
        assert_eq!(shift_total, 66, "sum");
        assert_eq!(initial_jump_chars, 77, "sum");
        assert_eq!(tokens_matched, 88, "sum");
        assert_eq!(false_matches, 99, "sum");
        assert_eq!(io_window_bytes, 100, "max: windows are sequential, not additive");
        assert_eq!(match_events, 121, "sum");
        assert_eq!(shards, 132, "sum");
    }

    #[test]
    fn zero_safe() {
        let s = RunStats::default();
        assert_eq!(s.char_comp_pct(), 0.0);
        assert_eq!(s.avg_shift(), 0.0);
        assert_eq!(s.projection_ratio(), 0.0);
    }
}
