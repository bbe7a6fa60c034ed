//! The benchmark's own statistics: order statistics over timing samples,
//! ratios that carry their base, and CPU utilisation.

use std::fmt;

/// Samples that must lie strictly beyond a reported tail percentile, so
/// the tail is not set by one or two outliers.
pub const MIN_BEYOND: usize = 10;

/// Linear-interpolated quantile `q` in `[0, 1]` of `samples` (the
/// "inclusive" definition: `q = 0` is the minimum, `q = 1` the maximum).
/// `None` for an empty sample set.
pub fn quantile(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * frac)
}

/// Median of `samples`; `None` when empty.
pub fn median(samples: &[f64]) -> Option<f64> {
    quantile(samples, 0.5)
}

/// The `q` tail percentile, but only when at least [`MIN_BEYOND`]
/// samples lie strictly above it; `None` otherwise, so a caller can never
/// report a p90 that two samples decide.
pub fn tail_quantile(samples: &[f64], q: f64) -> Option<f64> {
    let value = quantile(samples, q)?;
    let beyond = samples.iter().filter(|&&s| s > value).count();
    (beyond >= MIN_BEYOND).then_some(value)
}

/// A ratio that keeps its numerator and base, so a report can state what
/// it is a share of.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Ratio {
    /// Numerator.
    pub part: f64,
    /// Denominator.
    pub base: f64,
}

impl Ratio {
    /// `part / base`.
    pub fn new(part: f64, base: f64) -> Ratio {
        Ratio { part, base }
    }

    /// The ratio's value; `0` over an empty base (nothing attempted means
    /// nothing achieved, never a NaN in the output).
    pub fn value(&self) -> f64 {
        if self.base > 0.0 {
            self.part / self.base
        } else {
            0.0
        }
    }
}

impl fmt::Display for Ratio {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.4} ({} of {})", self.value(), self.part, self.base)
    }
}

/// Process CPU time over the capacity of `workers` threads for `wall_s`:
/// `cpu_s / (wall_s * workers)`.
pub fn cpu_util(cpu_s: f64, wall_s: f64, workers: usize) -> Ratio {
    Ratio::new(cpu_s, wall_s * workers.max(1) as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_interpolates_between_order_statistics() {
        let s = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&s, 0.0), Some(1.0));
        assert_eq!(quantile(&s, 1.0), Some(4.0));
        assert_eq!(median(&s), Some(2.5));
        assert_eq!(quantile(&[], 0.5), None);
    }

    #[test]
    fn tail_quantile_needs_ten_samples_beyond_it() {
        // 100 distinct samples: p90 sits at 90.1, with 10 samples above.
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        let p90 = tail_quantile(&s, 0.9).expect("100 samples carry a p90");
        assert!((p90 - 90.1).abs() < 1e-9, "p90 = {p90}");
        assert_eq!(s.iter().filter(|&&x| x > p90).count(), 10);
        // 91 samples leave only 9 beyond p90: refused.
        assert_eq!(tail_quantile(&s[..91], 0.9), None);
        assert!(tail_quantile(&s[..92], 0.9).is_some());
        // Ties at the tail do not count as beyond.
        let flat = vec![5.0; 200];
        assert_eq!(tail_quantile(&flat, 0.9), None);
    }

    #[test]
    fn ratio_keeps_its_base() {
        let r = Ratio::new(2.0, 3.0);
        assert!((r.value() - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(r.to_string(), "0.6667 (2 of 3)");
        assert_eq!(Ratio::new(5.0, 0.0).value(), 0.0, "empty base is zero");
    }

    #[test]
    fn cpu_util_divides_by_worker_capacity() {
        // 3 CPU-seconds over 2 s of wall on 2 workers: 75 % busy.
        let u = cpu_util(3.0, 2.0, 2);
        assert!((u.value() - 0.75).abs() < 1e-12);
        assert_eq!(u.base, 4.0);
        // Zero workers is treated as one, never a division by zero.
        assert!((cpu_util(1.0, 2.0, 0).value() - 0.5).abs() < 1e-12);
    }
}
