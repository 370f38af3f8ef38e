//! The open-loop send schedule: tick `i` is due at `t0 + i / rate`,
//! computed from the origin every time so rounding never accumulates, and
//! every tick is timed from its due time — a stall that delays later sends
//! is charged to them, not hidden by a generator that fell behind.

use std::time::{Duration, Instant};

/// Fixed-rate due times from one origin.
#[derive(Debug, Clone, Copy)]
pub struct Schedule {
    t0: Instant,
    rate: f64,
}

impl Schedule {
    /// Ticks at `rate` per second, the first due at `t0`.
    pub fn new(t0: Instant, rate: f64) -> Schedule {
        assert!(
            rate > 0.0 && rate.is_finite(),
            "rate must be positive, got {rate}"
        );
        Schedule { t0, rate }
    }

    /// Offset of tick `i` from the origin.
    pub fn offset(&self, i: usize) -> Duration {
        Duration::from_secs_f64(i as f64 / self.rate)
    }

    /// When tick `i` is due.
    pub fn due(&self, i: usize) -> Instant {
        self.t0 + self.offset(i)
    }

    /// Sleep until tick `i` is due (returning at once if it already is)
    /// and return how late the generator is for it.
    pub fn wait(&self, i: usize) -> Duration {
        let due = self.due(i);
        let now = Instant::now();
        if now < due {
            std::thread::sleep(due - now);
        }
        Instant::now().saturating_duration_since(due)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn due_times_start_at_the_origin_and_are_evenly_spaced() {
        let t0 = Instant::now();
        let s = Schedule::new(t0, 200.0);
        assert_eq!(s.due(0), t0);
        assert_eq!(s.offset(1), Duration::from_millis(5));
        assert_eq!(s.offset(200), Duration::from_secs(1));
        for i in 1..1000 {
            assert!(s.due(i) > s.due(i - 1));
        }
    }

    #[test]
    fn rounding_does_not_accumulate() {
        let s = Schedule::new(Instant::now(), 3.0);
        // 1/3 s is not representable; the 3000th tick is still exactly 1000 s out.
        assert_eq!(s.offset(3000), Duration::from_secs(1000));
        let drift = s.offset(2999).as_secs_f64() - 2999.0 / 3.0;
        assert!(drift.abs() < 1e-9, "drift {drift}");
    }

    #[test]
    fn wait_returns_lateness_against_the_due_time() {
        let t0 = Instant::now() - Duration::from_millis(50);
        let s = Schedule::new(t0, 1000.0);
        // Tick 10 was due 40 ms ago: no sleep, lateness ≥ 40 ms.
        assert!(s.wait(10) >= Duration::from_millis(40));
        // A tick in the future is waited for: lateness is small.
        let s = Schedule::new(Instant::now(), 1000.0);
        assert!(s.wait(5) < Duration::from_millis(40));
    }

    #[test]
    #[should_panic(expected = "rate must be positive")]
    fn zero_rate_is_rejected() {
        let _ = Schedule::new(Instant::now(), 0.0);
    }
}
