//! Order statistics under the benchmark's reporting rule: a percentile is
//! reported only when at least [`MIN_BEYOND`] samples lie beyond it, so a
//! tail figure always rests on more than a handful of observations.

/// Samples that must lie strictly above a percentile before it is reported.
pub const MIN_BEYOND: usize = 10;

/// Cap of the end-to-end tail figure. On a 2-vCPU virtual machine,
/// hypervisor steal stalls every thread for tens of milliseconds about 1%
/// of the time, and in noisy spells for up to 5–10% of a run, so a p99 or
/// p95 lands on those stalls and reads the host rather than the program;
/// p90 is clear of them. The p99 is still printed wherever the sample
/// supports it.
pub const TAIL_CAP: f64 = 0.90;

/// The nearest-rank `p`-quantile of `sorted` (ascending), or `None` when
/// fewer than [`MIN_BEYOND`] samples lie above it.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    let n = sorted.len();
    if n == 0 || !(0.0..1.0).contains(&p) {
        return None;
    }
    // Nearest rank: the smallest value with at least p·n samples at or
    // below it.
    let rank = ((p * n as f64).ceil() as usize).clamp(1, n);
    if n - rank < MIN_BEYOND {
        return None;
    }
    Some(sorted[rank - 1])
}

/// The tail figure: the `cap` percentile when at least [`MIN_BEYOND`]
/// samples lie beyond it, otherwise the highest percentile that still has
/// [`MIN_BEYOND`] samples beyond it (the 11th-largest value), as
/// `(p, value)`. The percentile moves smoothly with the sample count, so
/// runs of slightly different length report comparable tails.
pub fn tail(sorted: &[f64], cap: f64) -> Option<(f64, f64)> {
    let n = sorted.len();
    if n <= MIN_BEYOND || !(0.0..1.0).contains(&cap) {
        return None;
    }
    let rank_cap = ((cap * n as f64).ceil() as usize).clamp(1, n);
    if rank_cap <= n - MIN_BEYOND {
        return Some((cap, sorted[rank_cap - 1]));
    }
    let rank = n - MIN_BEYOND;
    Some((rank as f64 / n as f64, sorted[rank - 1]))
}

/// The median of `values` (any order; averaging the middle pair), or
/// `None` for an empty slice. Used for small repeated measurements such as
/// set-up time, where the percentile rule does not apply.
pub fn median(values: &[f64]) -> Option<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// A latency sample set, summarised by median and supported tail.
#[derive(Debug, Default, Clone)]
pub struct Samples(Vec<f64>);

impl Samples {
    /// Record one observation.
    pub fn push(&mut self, v: f64) {
        self.0.push(v);
    }

    /// Number of observations.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Ascending copy of the observations.
    pub fn sorted(&self) -> Vec<f64> {
        let mut v = self.0.clone();
        v.sort_by(f64::total_cmp);
        v
    }

    /// Median under the reporting rule.
    pub fn p50(&self) -> Option<f64> {
        percentile(&self.sorted(), 0.5)
    }

    /// The tail figure capped at `cap`, as `(p, value)`.
    pub fn tail(&self, cap: f64) -> Option<(f64, f64)> {
        tail(&self.sorted(), cap)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn p99_needs_a_thousand_samples() {
        assert_eq!(percentile(&ramp(999), 0.99), None);
        assert_eq!(percentile(&ramp(1000), 0.99), Some(990.0));
        assert_eq!(percentile(&ramp(2000), 0.99), Some(1980.0));
    }

    #[test]
    fn median_needs_twenty_samples() {
        assert_eq!(percentile(&ramp(19), 0.5), None);
        assert_eq!(percentile(&ramp(20), 0.5), Some(10.0));
    }

    #[test]
    fn tail_is_the_cap_or_the_eleventh_largest() {
        assert_eq!(tail(&ramp(1000), 0.99), Some((0.99, 990.0)));
        assert_eq!(tail(&ramp(2000), 0.99), Some((0.99, 1980.0)));
        assert_eq!(tail(&ramp(999), 0.99), Some((989.0 / 999.0, 989.0)));
        assert_eq!(tail(&ramp(1000), 0.95), Some((0.95, 950.0)));
        assert_eq!(tail(&ramp(100), 0.95), Some((0.9, 90.0)));
        assert_eq!(tail(&ramp(11), 0.95), Some((1.0 / 11.0, 1.0)));
        assert_eq!(tail(&ramp(10), 0.95), None);
        assert_eq!(tail(&[], 0.95), None);
    }

    #[test]
    fn every_reported_percentile_has_ten_samples_beyond() {
        for n in 1..1500 {
            let v = ramp(n);
            for p in [0.5, 0.8, 0.9, 0.95, 0.99] {
                if let Some(x) = percentile(&v, p) {
                    let beyond = v.iter().filter(|&&y| y > x).count();
                    assert!(beyond >= MIN_BEYOND, "n={n} p={p} beyond={beyond}");
                }
            }
            for cap in [TAIL_CAP, 0.99] {
                if let Some((p, x)) = tail(&v, cap) {
                    let beyond = v.iter().filter(|&&y| y > x).count();
                    assert!(
                        beyond >= MIN_BEYOND && p <= cap,
                        "n={n} p={p} beyond={beyond}"
                    );
                }
            }
        }
    }

    #[test]
    fn plain_median_handles_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }
}
