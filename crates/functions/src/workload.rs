//! Invocation arrivals.
//!
//! The paper motivates snapshotting with production behaviour from the
//! Azure Functions study (§2.1): 90% of functions are invoked less than
//! once per minute, >96% at least once per week, and providers deallocate
//! idle instances after 8–20 minutes. [`WorkloadGenerator`] samples a
//! per-function invocation rate with that shape for the colocation
//! experiment; [`InvocationEvent`] is one scheduled invocation, the unit a
//! request replay consumes.

use sim_core::{DetRng, SimDuration, SimTime};

use crate::spec::FunctionId;

/// One scheduled invocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InvocationEvent {
    /// Arrival instant.
    pub at: SimTime,
    /// Target function.
    pub function: FunctionId,
    /// Invocation sequence number within the function.
    pub seq: u64,
}

/// Deterministic sampler of Azure-like invocation rates.
///
/// # Example
///
/// ```
/// use functionbench::WorkloadGenerator;
/// use sim_core::SimDuration;
///
/// let gen = WorkloadGenerator::new(42);
/// let gap = gen.azure_like_gap(3);
/// // Every sampled mean gap lies between 100 ms and a day, and the same
/// // seed and index always give the same one.
/// assert!(gap >= SimDuration::from_millis(100) && gap <= SimDuration::from_secs(86_400));
/// assert_eq!(gap, WorkloadGenerator::new(42).azure_like_gap(3));
/// ```
#[derive(Debug, Clone)]
pub struct WorkloadGenerator {
    seed: u64,
}

impl WorkloadGenerator {
    /// Creates a generator with the given seed.
    pub fn new(seed: u64) -> Self {
        WorkloadGenerator { seed }
    }

    /// Samples an Azure-like per-function invocation rate (§2.1): 90% of
    /// functions see less than one invocation per minute; the tail is
    /// busier. Returns the mean inter-arrival gap.
    pub fn azure_like_gap(&self, function_index: u64) -> SimDuration {
        let mut rng = DetRng::new(self.seed).fork(function_index);
        if rng.gen_bool(0.9) {
            // Rare: mean gap between 1 minute and ~1 day, log-uniform.
            let log_lo = (60.0f64).ln();
            let log_hi = (86_400.0f64).ln();
            let g = (log_lo + rng.next_f64() * (log_hi - log_lo)).exp();
            SimDuration::from_secs_f64(g)
        } else {
            // Busy: mean gap between 100 ms and 1 minute.
            let log_lo = (0.1f64).ln();
            let log_hi = (60.0f64).ln();
            let g = (log_lo + rng.next_f64() * (log_hi - log_lo)).exp();
            SimDuration::from_secs_f64(g)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn azure_distribution_shape() {
        let gen = WorkloadGenerator::new(4);
        let n = 2000u64;
        let rare = (0..n)
            .filter(|&i| gen.azure_like_gap(i) > SimDuration::from_secs(60))
            .count() as f64
            / n as f64;
        // §2.1: ~90% of functions are invoked less than once per minute.
        // Gaps are sampled log-uniform above/below the 1-minute split, so
        // the rare bucket lands at ~90% minus boundary mass.
        assert!(
            (0.8..0.95).contains(&rare),
            "rare fraction {rare:.2} should be near 0.9"
        );
    }
}
