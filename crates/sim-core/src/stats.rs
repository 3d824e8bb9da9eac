//! Statistics utilities for the benchmark harness.
//!
//! Every figure subcommand reports means, geometric means (the paper's
//! "3.7× on average" speedup is a geometric mean across functions),
//! percentiles, and occasionally distributions; this module provides
//! those without external dependencies.

use std::fmt;

use serde::{Deserialize, Serialize};

/// Single-pass mean/variance/min/max accumulator (Welford's algorithm).
///
/// # Example
///
/// ```
/// use sim_core::OnlineStats;
///
/// let mut s = OnlineStats::new();
/// for v in [1.0, 2.0, 3.0] {
///     s.add(v);
/// }
/// assert_eq!(s.mean(), 2.0);
/// assert_eq!(s.count(), 3);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct OnlineStats {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl OnlineStats {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        OnlineStats {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds one observation.
    pub fn add(&mut self, value: f64) {
        self.count += 1;
        let delta = value - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (value - self.mean);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Arithmetic mean (0 if empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population variance (0 if fewer than 2 observations).
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / self.count as f64
        }
    }

    /// Smallest observation (`None` if empty).
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest observation (`None` if empty).
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }

    /// Merges another accumulator into this one (parallel Welford merge).
    pub fn merge(&mut self, other: &OnlineStats) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = other.clone();
            return;
        }
        let n1 = self.count as f64;
        let n2 = other.count as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.count += other.count;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

impl Extend<f64> for OnlineStats {
    fn extend<I: IntoIterator<Item = f64>>(&mut self, iter: I) {
        for v in iter {
            self.add(v);
        }
    }
}

impl FromIterator<f64> for OnlineStats {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        let mut s = OnlineStats::new();
        s.extend(iter);
        s
    }
}

/// Geometric mean of strictly positive values; `None` if empty or any value
/// is non-positive.
///
/// The paper reports REAP's average speedup of 3.7× as a geometric mean
/// across the ten studied functions (§6.3).
pub fn geo_mean(values: &[f64]) -> Option<f64> {
    if values.is_empty() || values.iter().any(|&v| v <= 0.0) {
        return None;
    }
    let log_sum: f64 = values.iter().map(|v| v.ln()).sum();
    Some((log_sum / values.len() as f64).exp())
}

/// Exact percentiles over a stored sample.
///
/// # Example
///
/// ```
/// use sim_core::Percentiles;
///
/// let mut p: Percentiles = (1..=100).map(f64::from).collect();
/// assert_eq!(p.percentile(50.0), Some(50.0));
/// assert_eq!(p.percentile(99.0), Some(99.0));
/// ```
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Percentiles {
    sorted: Vec<f64>,
    dirty: bool,
}

impl Percentiles {
    /// Creates an empty sample.
    pub fn new() -> Self {
        Percentiles {
            sorted: Vec::new(),
            dirty: false,
        }
    }

    /// Adds one observation.
    pub fn add(&mut self, value: f64) {
        self.sorted.push(value);
        self.dirty = true;
    }

    fn ensure_sorted(&mut self) {
        if self.dirty {
            self.sorted
                .sort_by(|a, b| a.partial_cmp(b).expect("NaN in percentile sample"));
            self.dirty = false;
        }
    }

    /// The `p`-th percentile (nearest-rank), `None` if empty.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 100]` or any stored value is NaN.
    pub fn percentile(&mut self, p: f64) -> Option<f64> {
        assert!((0.0..=100.0).contains(&p), "percentile {p} out of range");
        if self.sorted.is_empty() {
            return None;
        }
        self.ensure_sorted();
        let n = self.sorted.len();
        let rank = ((p / 100.0) * n as f64).ceil().max(1.0) as usize;
        Some(self.sorted[rank.min(n) - 1])
    }

    /// Median shorthand.
    pub fn median(&mut self) -> Option<f64> {
        self.percentile(50.0)
    }

    /// Number of observations.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// True if no observations were added.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }
}

impl Extend<f64> for Percentiles {
    fn extend<I: IntoIterator<Item = f64>>(&mut self, iter: I) {
        for v in iter {
            self.add(v);
        }
    }
}

impl FromIterator<f64> for Percentiles {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        let mut p = Percentiles::new();
        p.extend(iter);
        p
    }
}

/// Fixed-bucket histogram over `u64` values (e.g. contiguity run lengths for
/// Fig 3: buckets 1, 2, 3, ... pages).
///
/// # Example
///
/// ```
/// use sim_core::Histogram;
///
/// let mut h = Histogram::new(4); // buckets 0..=3, overflow in the last
/// h.record(0);
/// h.record(2);
/// h.record(99); // clamped into bucket 3
/// assert_eq!(h.count(2), 1);
/// assert_eq!(h.count(3), 1);
/// assert_eq!(h.total(), 3);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Histogram {
    buckets: Vec<u64>,
    total: u64,
    sum: u64,
}

impl Histogram {
    /// Creates a histogram with `buckets` buckets; values >= `buckets - 1`
    /// land in the final (overflow) bucket.
    ///
    /// # Panics
    ///
    /// Panics if `buckets == 0`.
    pub fn new(buckets: usize) -> Self {
        assert!(buckets > 0, "histogram needs at least one bucket");
        Histogram {
            buckets: vec![0; buckets],
            total: 0,
            sum: 0,
        }
    }

    /// Records one observation.
    pub fn record(&mut self, value: u64) {
        let idx = (value as usize).min(self.buckets.len() - 1);
        self.buckets[idx] += 1;
        self.total += 1;
        self.sum += value;
    }

    /// Count in bucket `idx` (0 if out of range).
    pub fn count(&self, idx: usize) -> u64 {
        self.buckets.get(idx).copied().unwrap_or(0)
    }

    /// Total observations.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Mean of the recorded raw values (not bucket indices).
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum as f64 / self.total as f64
        }
    }

    /// Fraction of observations in bucket `idx`.
    pub fn fraction(&self, idx: usize) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.count(idx) as f64 / self.total as f64
        }
    }

    /// Iterates over `(bucket_index, count)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (usize, u64)> + '_ {
        self.buckets.iter().copied().enumerate()
    }
}

impl fmt::Display for Histogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "hist[n={}, mean={:.2}]", self.total, self.mean())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn online_stats_basics() {
        let s: OnlineStats = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0].into_iter().collect();
        assert_eq!(s.count(), 8);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert!((s.variance() - 4.0).abs() < 1e-9);
        assert_eq!(s.min(), Some(2.0));
        assert_eq!(s.max(), Some(9.0));
    }

    #[test]
    fn online_stats_empty() {
        let s = OnlineStats::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.variance(), 0.0);
        assert_eq!(s.min(), None);
        assert_eq!(s.max(), None);
    }

    #[test]
    fn merge_equals_sequential() {
        let data: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0).collect();
        let all: OnlineStats = data.iter().copied().collect();
        let left: OnlineStats = data[..37].iter().copied().collect();
        let mut merged = left;
        let right: OnlineStats = data[37..].iter().copied().collect();
        merged.merge(&right);
        assert_eq!(merged.count(), all.count());
        assert!((merged.mean() - all.mean()).abs() < 1e-9);
        assert!((merged.variance() - all.variance()).abs() < 1e-9);
        assert_eq!(merged.min(), all.min());
        assert_eq!(merged.max(), all.max());
    }

    #[test]
    fn merge_with_empty() {
        let mut a = OnlineStats::new();
        let b: OnlineStats = [1.0, 2.0].into_iter().collect();
        a.merge(&b);
        assert_eq!(a.count(), 2);
        let mut c: OnlineStats = [3.0].into_iter().collect();
        c.merge(&OnlineStats::new());
        assert_eq!(c.count(), 1);
    }

    #[test]
    fn geo_mean_matches_paper_speedup_style() {
        // Per-function speedups as in Fig 8 should geo-mean near 3.7x.
        let speedups = [3.87, 4.51, 5.62, 2.87, 4.21, 9.80, 6.01, 6.13, 1.32, 1.04];
        let g = geo_mean(&speedups).unwrap();
        assert!((3.5..4.0).contains(&g), "geo mean {g}");
        assert_eq!(geo_mean(&[]), None);
        assert_eq!(geo_mean(&[1.0, 0.0]), None);
        assert_eq!(geo_mean(&[2.0, 8.0]), Some(4.0));
    }

    #[test]
    fn percentiles_nearest_rank() {
        let mut p: Percentiles = (1..=10).map(f64::from).collect();
        assert_eq!(p.percentile(0.0), Some(1.0));
        assert_eq!(p.percentile(10.0), Some(1.0));
        assert_eq!(p.percentile(50.0), Some(5.0));
        assert_eq!(p.median(), Some(5.0));
        assert_eq!(p.percentile(100.0), Some(10.0));
        assert_eq!(p.len(), 10);
        assert!(!p.is_empty());
    }

    #[test]
    fn percentiles_interleave_add_query() {
        let mut p = Percentiles::new();
        assert_eq!(p.percentile(50.0), None);
        p.add(5.0);
        assert_eq!(p.median(), Some(5.0));
        p.add(1.0);
        p.add(9.0);
        assert_eq!(p.median(), Some(5.0));
        assert_eq!(p.percentile(100.0), Some(9.0));
    }

    #[test]
    fn histogram_clamps_overflow() {
        let mut h = Histogram::new(3);
        h.record(0);
        h.record(1);
        h.record(2);
        h.record(50);
        assert_eq!(h.count(0), 1);
        assert_eq!(h.count(1), 1);
        assert_eq!(h.count(2), 2);
        assert_eq!(h.count(99), 0);
        assert_eq!(h.total(), 4);
        assert!((h.mean() - 53.0 / 4.0).abs() < 1e-12);
        assert!((h.fraction(2) - 0.5).abs() < 1e-12);
        let collected: Vec<_> = h.iter().collect();
        assert_eq!(collected, vec![(0, 1), (1, 1), (2, 2)]);
        assert_eq!(format!("{h}"), "hist[n=4, mean=13.25]");
    }
}
