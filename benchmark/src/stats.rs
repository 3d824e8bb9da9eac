//! The benchmark's arithmetic: medians, the tail-percentile rule,
//! quartile spread, and the simulated-outcome digest.

use std::fmt::{self, Debug, Write};

use sim_core::{Fnv1a64, Percentiles};

/// Median of `values` (mean of the two middle values for an even count).
///
/// # Panics
///
/// Panics on an empty slice: every caller measures at least one sample.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Nearest-rank percentile (`p` in 0..=100) of `values`, by the repo's own
/// [`sim_core::Percentiles`].
///
/// # Panics
///
/// Panics on an empty slice.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let mut sample: Percentiles = values.iter().copied().collect();
    sample.percentile(p).expect("percentile of no samples")
}

/// The tail percentile a sample of `n` timings supports: the highest of
/// 90 / 95 / 99 / 99.9 that still has at least ten samples beyond it
/// (`None` below 100 samples, where only the median is reported).
pub fn tail_percentile(n: usize) -> Option<f64> {
    // In per mille, so the sample count beyond is exact.
    [999, 990, 950, 900]
        .into_iter()
        .find(|per_mille| n * (1000 - per_mille) / 1000 >= 10)
        .map(|per_mille| per_mille as f64 / 10.0)
}

/// First and third quartile, as Python's `statistics.quantiles(v, n=4)`
/// (the exclusive method) gives them — the spread rule the acceptance
/// driver applies. Needs at least two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    if values.len() < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let at = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    Some((at(1), at(3)))
}

/// Interquartile distance as a share of the median (0 with one value).
pub fn spread(values: &[f64]) -> f64 {
    match quartiles(values) {
        Some((q1, q3)) if median(values) != 0.0 => (q3 - q1) / median(values).abs(),
        _ => 0.0,
    }
}

/// FNV-1a over the `Debug` rendering of everything fed to it — the
/// comparison `tests/determinism.rs` makes, without building the strings.
pub struct SimDigest(Fnv1a64);

impl SimDigest {
    pub fn new() -> Self {
        SimDigest(Fnv1a64::new())
    }

    pub fn update(&mut self, value: &impl Debug) {
        write!(self, "{value:?};").expect("hashing cannot fail");
    }

    pub fn finish(&self) -> u64 {
        self.0.finish()
    }
}

impl Write for SimDigest {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.0.write(s.as_bytes());
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 95.0), 95.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[7.0], 95.0), 7.0);
    }

    #[test]
    fn tail_rule_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(99), None);
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(199), Some(90.0));
        assert_eq!(tail_percentile(200), Some(95.0));
        assert_eq!(tail_percentile(1_000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v).unwrap();
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]: the
        // exclusive method extrapolates past the ends.
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 2.25)));
        assert!(quartiles(&[5.0]).is_none());
        assert!((spread(&v) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn digest_follows_debug_rendering() {
        let mut a = SimDigest::new();
        a.update(&(1u8, "x"));
        let mut b = SimDigest::new();
        b.update(&(1u8, "x"));
        let mut c = SimDigest::new();
        c.update(&(2u8, "x"));
        assert_eq!(a.finish(), b.finish());
        assert_ne!(a.finish(), c.finish());
        assert_eq!(a.finish(), sim_core::fnv1a64(b"(1, \"x\");"));
    }
}
