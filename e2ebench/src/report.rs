//! What a workload hands back to the command: figures, operation counts
//! and human-readable lines.

use std::time::Instant;

use crate::stats::{median, Samples};

/// One named figure with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// Operation accounting shared by every workload.
///
/// Attempts are requests sent plus events extracted plus comparisons
/// made; failures are `Error` responses, shed / late-dropped / rejected
/// deliveries, quarantined events, failed tasks, swallowed diagnosis
/// errors, and correctness mismatches (which alone make a run incorrect).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Failed correctness comparisons (counted in `failed` too).
    pub mismatches: u64,
}

impl Tally {
    /// Count one comparison; the first few failures name their check site
    /// on standard error.
    #[track_caller]
    pub fn check(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            if self.mismatches < 5 {
                eprintln!(
                    "e2ebench: check failed at {}",
                    std::panic::Location::caller()
                );
            }
            self.failed += 1;
            self.mismatches += 1;
        }
    }

    /// Add `n` attempted operations of which `bad` failed.
    pub fn ops(&mut self, n: u64, bad: u64) {
        self.attempted += n;
        self.failed += bad;
    }

    /// Merge another tally.
    pub fn merge(&mut self, o: Tally) {
        self.attempted += o.attempted;
        self.failed += o.failed;
        self.mismatches += o.mismatches;
    }
}

/// End-to-end result of one untraced workload run.
#[derive(Debug)]
pub struct EndToEnd {
    /// Median set-up time over the repeated set-ups, seconds.
    pub setup_s: f64,
    /// Work completed per second (the workload's own unit).
    pub throughput: f64,
    /// Per-operation latencies, ms.
    pub latency_ms: Samples,
    /// Operation accounting.
    pub tally: Tally,
    /// Human-readable lines, each naming a metric and its unit.
    pub lines: Vec<String>,
}

/// How many times each workload repeats its set-up; `setup_s` is the
/// median, so one slow set-up does not move it.
pub const SETUPS: usize = 7;

/// Run `build` [`SETUPS`] times and return the last result with the
/// median wall time in seconds.
pub fn repeated_setup<T>(mut build: impl FnMut() -> T) -> (T, f64) {
    let mut times = Vec::with_capacity(SETUPS);
    let mut last = None;
    for _ in 0..SETUPS {
        drop(last.take());
        let t = Instant::now();
        last = Some(build());
        times.push(t.elapsed().as_secs_f64());
    }
    (
        last.expect("SETUPS > 0"),
        median(&times).expect("SETUPS > 0"),
    )
}

/// Median of `values`, or 0 when there are none (per-layer summaries
/// only; end-to-end figures go through the percentile rule).
pub fn med(values: &[f64]) -> f64 {
    median(values).unwrap_or(0.0)
}
