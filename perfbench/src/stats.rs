//! Summary helpers: medians, percentiles with a sample floor, geometric
//! means, failure accounting and open-loop latency.

use std::time::Duration;

/// A reported percentile needs at least this many samples beyond it; with
/// fewer, the value rests on a handful of outliers and does not repeat.
pub const TAIL_FLOOR: usize = 10;

/// Median of `values` (mean of the middle pair for an even count); 0 for
/// an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// A tail percentile as reported: which percentile, its value, and the
/// sample count it came from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile reported (the one asked for when the samples allow it).
    pub percentile: f64,
    /// Its value.
    pub value: f64,
    /// Samples the percentile was taken over.
    pub samples: usize,
    /// Samples strictly beyond the reported rank.
    pub beyond: usize,
}

/// The `highest` percentile (99 or 90, say) when at least [`TAIL_FLOOR`]
/// samples lie beyond it; otherwise the highest percentile that has
/// [`TAIL_FLOOR`] beyond it. With no more than [`TAIL_FLOOR`] samples no
/// percentile qualifies, and the maximum is reported with `beyond == 0`.
pub fn tail(samples: &[f64], highest: f64) -> Tail {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n <= TAIL_FLOOR {
        return Tail {
            percentile: 100.0,
            value: sorted.last().copied().unwrap_or(0.0),
            samples: n,
            beyond: 0,
        };
    }
    let wanted = ((highest / 100.0 * n as f64).ceil() as usize).clamp(1, n);
    let rank = wanted.min(n - TAIL_FLOOR);
    Tail {
        percentile: if rank == wanted {
            highest
        } else {
            100.0 * rank as f64 / n as f64
        },
        value: sorted[rank - 1],
        samples: n,
        beyond: n - rank,
    }
}

/// Geometric mean of positive values; 0 for an empty slice.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let log_sum: f64 = values.iter().map(|v| v.max(f64::MIN_POSITIVE).ln()).sum();
    (log_sum / values.len() as f64).exp()
}

/// Why an attempted operation failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Failure {
    /// The compiled program disagreed with simulation of its source.
    Verify,
    /// The service answered with an error (the request was refused).
    Refused,
    /// The output differs from the offline pipeline's bytes, or a repeat
    /// of the same compile produced different bytes.
    Mismatch,
    /// No response arrived before the connection closed.
    Missing,
    /// No response arrived before the deadline.
    Timeout,
}

/// Attempted and failed operation counts of one run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Outcomes {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed for any [`Failure`] reason.
    pub failed: u64,
}

impl Outcomes {
    /// Records one operation: `None` for success, the reason otherwise.
    pub fn record(&mut self, failure: Option<Failure>) {
        self.attempted += 1;
        if failure.is_some() {
            self.failed += 1;
        }
    }

    /// Marks an already-counted operation as failed (a check made after
    /// the timed phase). Never counts one operation twice.
    pub fn fail_counted(&mut self) {
        self.failed = (self.failed + 1).min(self.attempted);
    }

    /// `failed / attempted`; 0 when nothing was attempted.
    pub fn error_share(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// Timing of one open-loop request, as offsets from the start of the
/// schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpenLoopSample {
    /// When the schedule said to send it.
    pub due: Duration,
    /// When it was actually written.
    pub sent: Duration,
    /// When its response was read.
    pub done: Duration,
}

impl OpenLoopSample {
    /// Latency as the user sees it: from the scheduled send time, so a
    /// stall that delays later sends is charged to those requests too.
    pub fn latency(&self) -> Duration {
        self.done.saturating_sub(self.due)
    }

    /// How late the generator sent the request.
    pub fn lateness(&self) -> Duration {
        self.sent.saturating_sub(self.due)
    }
}

/// Milliseconds of a duration, with all digits.
pub fn ms(duration: Duration) -> f64 {
    duration.as_secs_f64() * 1e3
}
