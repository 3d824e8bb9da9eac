//! Reporting helpers shared by the figure subcommands.

use sim_core::stats::geo_mean;
use sim_core::SimDuration;

use crate::orchestrator::InvocationOutcome;

/// Formats a duration as milliseconds with one decimal.
pub fn fmt_ms(d: SimDuration) -> String {
    format!("{:.1}", d.as_millis_f64())
}

/// Formats a duration as whole milliseconds (the paper's figure style).
pub fn fmt_ms0(d: SimDuration) -> String {
    format!("{:.0}", d.as_millis_f64())
}

/// Speedup of `b` relative to `a` (a/b).
pub fn speedup(a: SimDuration, b: SimDuration) -> f64 {
    a.as_secs_f64() / b.as_secs_f64().max(1e-12)
}

/// Geometric-mean speedup across function pairs, the paper's "3.7× on
/// average" metric (§6.3).
pub fn geo_mean_speedup(pairs: &[(SimDuration, SimDuration)]) -> Option<f64> {
    let speedups: Vec<f64> = pairs.iter().map(|&(a, b)| speedup(a, b)).collect();
    geo_mean(&speedups)
}

/// Percentage of faults a prefetch eliminated (the paper's "REAP
/// eliminates 97% of the page faults" headline).
pub fn faults_eliminated_pct(outcome: &InvocationOutcome) -> f64 {
    let total = outcome.prefetched_pages + outcome.residual_faults;
    if total == 0 {
        return 0.0;
    }
    100.0 * outcome.prefetched_pages as f64 / total as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(n: u64) -> SimDuration {
        SimDuration::from_millis(n)
    }

    #[test]
    fn formatting() {
        assert_eq!(fmt_ms(SimDuration::from_micros(1500)), "1.5");
        assert_eq!(fmt_ms0(ms(232)), "232");
    }

    #[test]
    fn speedup_math() {
        assert!((speedup(ms(232), ms(60)) - 3.8667).abs() < 1e-3);
        let pairs = [(ms(232), ms(60)), (ms(437), ms(97))];
        let g = geo_mean_speedup(&pairs).unwrap();
        assert!((g - (3.8667f64 * 4.5052).sqrt()).abs() < 1e-3);
        assert_eq!(geo_mean_speedup(&[]), None);
    }
}
