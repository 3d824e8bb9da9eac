//! Working-set analysis: the measurements behind Figures 3 and 5 and the
//! misprediction/fallback machinery of §7.1–7.2.
//!
//! Every page set here is a [`PageBitmap`]: overlaps are one AND plus
//! popcount per word, and contiguity reads the set's maximal runs.

use guest_mem::PageBitmap;
use sim_core::Histogram;

/// Overlap between two working sets (Fig 5's same/unique split).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OverlapStats {
    /// Pages present in both sets.
    pub same: u64,
    /// Pages only in the first set.
    pub only_a: u64,
    /// Pages only in the second set.
    pub only_b: u64,
}

impl OverlapStats {
    /// Fraction of the first set shared with the second (Fig 5's
    /// "same across invocations" metric).
    pub fn reuse_fraction(&self) -> f64 {
        let a = self.same + self.only_a;
        if a == 0 {
            0.0
        } else {
            self.same as f64 / a as f64
        }
    }
}

/// Computes the overlap between two page sets ([`PageBitmap::count_common`]
/// for the shared pages; member counts, not range sizes, for the rest).
pub fn working_set_overlap(a: &PageBitmap, b: &PageBitmap) -> OverlapStats {
    let same = a.count_common(b);
    OverlapStats {
        same,
        only_a: a.count() - same,
        only_b: b.count() - same,
    }
}

/// Guest-physical contiguity of a working set (Fig 3).
#[derive(Debug, Clone)]
pub struct ContiguityStats {
    /// Mean length of maximal contiguous page regions.
    pub mean_run: f64,
    /// Number of regions.
    pub regions: u64,
    /// Total pages.
    pub pages: u64,
    /// Region-length histogram (index = length in pages; last bucket
    /// collects overflow).
    pub histogram: Histogram,
}

/// Computes contiguous-region statistics over a set of faulted pages, as
/// the paper does for Fig 3: the maximal runs of consecutive guest-physical
/// pages, which [`PageBitmap::runs`] yields in ascending order.
pub fn contiguity(pages: &PageBitmap) -> ContiguityStats {
    let mut histogram = Histogram::new(33); // runs of 32+ collapse
    let runs = pages.runs();
    for run in &runs {
        histogram.record(run.len);
    }
    let regions = runs.len() as u64;
    let pages_total = pages.count();
    ContiguityStats {
        mean_run: if regions == 0 {
            0.0
        } else {
            pages_total as f64 / regions as f64
        },
        regions,
        pages: pages_total,
        histogram,
    }
}

/// Prefetch accuracy of one REAP invocation (§7.1): pages fetched from the
/// WS file vs pages the invocation actually touched.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MispredictionReport {
    /// Pages in the recorded working set (fetched eagerly).
    pub fetched: u64,
    /// Fetched pages that were actually touched.
    pub used: u64,
    /// Fetched pages never touched (wasted SSD bandwidth, §7.1).
    pub wasted: u64,
    /// Faults the prefetch failed to cover (served on demand).
    pub residual_faults: u64,
}

impl MispredictionReport {
    /// Builds the report from the recorded set, the touched set, and the
    /// residual fault count; `used` is their
    /// [`count_common`](PageBitmap::count_common).
    pub fn compute(recorded: &PageBitmap, touched: &PageBitmap, residual_faults: u64) -> Self {
        let used = recorded.count_common(touched);
        MispredictionReport {
            fetched: recorded.count(),
            used,
            wasted: recorded.count() - used,
            residual_faults,
        }
    }

    /// Fraction of fetched pages that were wasted.
    pub fn waste_fraction(&self) -> f64 {
        if self.fetched == 0 {
            0.0
        } else {
            self.wasted as f64 / self.fetched as f64
        }
    }

    /// §7.2's fallback signal: a working set is considered stale when the
    /// instance faulted on a large fraction of pages *despite* the
    /// prefetch. The paper suggests comparing post-install fault counts to
    /// the working-set size.
    pub fn should_rerecord(&self, threshold: f64) -> bool {
        if self.fetched == 0 {
            return self.residual_faults > 0;
        }
        self.residual_faults as f64 / self.fetched as f64 > threshold
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(pages: &[u64]) -> PageBitmap {
        let mut set = PageBitmap::new(256);
        pages.iter().for_each(|&p| assert!(set.set(guest_mem::PageIdx::new(p))));
        set
    }

    #[test]
    fn overlap_counts() {
        let a = set(&[1, 2, 3, 10]);
        let b = set(&[2, 3, 4]);
        let o = working_set_overlap(&a, &b);
        assert_eq!(o.same, 2);
        assert_eq!(o.only_a, 2);
        assert_eq!(o.only_b, 1);
        assert!((o.reuse_fraction() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn overlap_with_empty() {
        let a = set(&[]);
        let b = set(&[1]);
        let o = working_set_overlap(&a, &b);
        assert_eq!(o.same, 0);
        assert_eq!(o.reuse_fraction(), 0.0);
    }

    #[test]
    fn contiguity_of_scattered_runs() {
        // Regions: [1,2,3], [10,11], [20] -> mean 2.
        let s = set(&[1, 2, 3, 10, 11, 20]);
        let c = contiguity(&s);
        assert_eq!(c.regions, 3);
        assert_eq!(c.pages, 6);
        assert!((c.mean_run - 2.0).abs() < 1e-12);
        assert_eq!(c.histogram.count(3), 1);
        assert_eq!(c.histogram.count(2), 1);
        assert_eq!(c.histogram.count(1), 1);
    }

    #[test]
    fn contiguity_of_one_big_run() {
        let s = set(&(100..200).collect::<Vec<u64>>());
        let c = contiguity(&s);
        assert_eq!(c.regions, 1);
        assert!((c.mean_run - 100.0).abs() < 1e-12);
    }

    #[test]
    fn contiguity_of_empty_set() {
        let c = contiguity(&set(&[]));
        assert_eq!(c.regions, 0);
        assert_eq!(c.mean_run, 0.0);
    }

    #[test]
    fn misprediction_report() {
        let recorded = set(&[1, 2, 3, 4]);
        let touched = set(&[1, 2, 9]);
        let m = MispredictionReport::compute(&recorded, &touched, 1);
        assert_eq!(m.fetched, 4);
        assert_eq!(m.used, 2);
        assert_eq!(m.wasted, 2);
        assert_eq!(m.residual_faults, 1);
        assert!((m.waste_fraction() - 0.5).abs() < 1e-12);
        assert!(!m.should_rerecord(0.5));
        assert!(m.should_rerecord(0.2));
    }

    #[test]
    fn rerecord_on_empty_ws() {
        let m = MispredictionReport {
            fetched: 0,
            used: 0,
            wasted: 0,
            residual_faults: 3,
        };
        assert!(m.should_rerecord(0.5));
        assert_eq!(m.waste_fraction(), 0.0);
    }
}
