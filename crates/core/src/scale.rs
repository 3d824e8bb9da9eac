//! Concurrency experiments (Fig 9, §6.5) and the warm-background check
//! (§6.3).
//!
//! Fig 9 measures the average cold-start latency of up to 64 *independent*
//! functions arriving simultaneously. Independence matters: each function
//! has its own snapshot/WS files, so instances share the disk but not the
//! page cache. We run the functional pass once (instances are behaviourally
//! identical) and give each timed instance shadow file identities.

use functionbench::FunctionId;
use sim_core::{OnlineStats, SimDuration, SimTime};

use crate::invocation::ColdPolicy;
use crate::monitor::MonitorMode;
use crate::orchestrator::Orchestrator;

/// One point of the Fig 9 sweep.
#[derive(Debug, Clone)]
pub struct ScalePoint {
    /// Number of concurrently-arriving functions.
    pub concurrency: usize,
    /// Restore policy.
    pub policy: ColdPolicy,
    /// Mean per-instance cold-start latency.
    pub mean_latency: SimDuration,
    /// Makespan (all instances done).
    pub makespan: SimDuration,
    /// Aggregate *useful* disk throughput in MB/s (the §6.5 metric:
    /// working-set bytes divided by loading time).
    pub useful_mbps: f64,
    /// Raw device throughput in MB/s (includes readahead waste).
    pub device_mbps: f64,
}

/// Runs one concurrency level.
///
/// # Panics
///
/// Panics if the function is unregistered, or if a prefetch policy is used
/// without a recorded working set.
pub fn run_concurrent(orch: &mut Orchestrator, f: FunctionId, policy: ColdPolicy, n: usize) -> ScalePoint {
    assert!(n > 0, "concurrency must be positive");
    let mode = if policy.uses_ws() {
        MonitorMode::Prefetch
    } else {
        MonitorMode::OnDemand
    };
    // One functional pass: instances are clones of the same recorded
    // function and behave identically.
    let run = orch.functional_cold(f, mode);

    let programs: Vec<_> = (0..n)
        .map(|_| {
            let (files, reap) = orch.shadow_files(f);
            orch.cold_program(f, policy, false, &run, files, reap, SimTime::ZERO)
        })
        .collect();
    let (results, disk) = orch.run_timed(programs);

    let mut stats = OnlineStats::new();
    let mut makespan = SimDuration::ZERO;
    for r in &results {
        let l = r.latency();
        stats.add(l.as_secs_f64());
        makespan = makespan.max(r.end - SimTime::ZERO);
    }
    let secs = makespan.as_secs_f64().max(1e-9);
    ScalePoint {
        concurrency: n,
        policy,
        mean_latency: SimDuration::from_secs_f64(stats.mean()),
        makespan,
        useful_mbps: disk.useful_bytes_read as f64 / secs / 1e6,
        device_mbps: disk.device_bytes_read as f64 / secs / 1e6,
    }
}

/// The full Fig 9 sweep over concurrency levels for one policy.
pub fn concurrency_sweep(orch: &mut Orchestrator, f: FunctionId, policy: ColdPolicy, levels: &[usize]) -> Vec<ScalePoint> {
    levels
        .iter()
        .map(|&n| run_concurrent(orch, f, policy, n))
        .collect()
}

/// §6.3's robustness check: a cold invocation while `n_warm` warm,
/// memory-resident functions process invocations on the same worker.
/// Returns `(solo, with_background)` mean latencies; the paper measures
/// <5% difference.
pub fn with_warm_background(orch: &mut Orchestrator, f: FunctionId, policy: ColdPolicy, n_warm: usize) -> (SimDuration, SimDuration) {
    let mode = if policy.uses_ws() {
        MonitorMode::Prefetch
    } else {
        MonitorMode::OnDemand
    };
    let run = orch.functional_cold(f, mode);
    let files = orch.instance_files(f);
    let reap = if policy.uses_ws() {
        orch.shadow_files(f).1
    } else {
        None
    };

    // Solo run.
    let solo_prog = orch.cold_program(f, policy, false, &run, files, reap, SimTime::ZERO);
    let (solo_res, _) = orch.run_timed(vec![solo_prog.clone()]);
    let solo = solo_res[0].latency();

    // Warm background: n_warm compute-only instances (warm instances
    // don't touch the disk) spread over the cold start's duration.
    let mut programs = vec![solo_prog];
    let warm_compute = SimDuration::from_millis(2);
    for i in 0..n_warm {
        let arrival = SimTime::ZERO + SimDuration::from_millis((i as u64 * 7) % 50);
        programs.push(crate::invocation::InstanceProgram {
            arrival,
            steps: vec![
                crate::invocation::TimedStep::Phase(crate::invocation::Phase::Processing),
                crate::invocation::TimedStep::Cpu(warm_compute),
            ],
        });
    }
    let (bg_res, _) = orch.run_timed(programs);
    (solo, bg_res[0].latency())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn prepared(f: FunctionId) -> Orchestrator {
        let mut o = Orchestrator::new(11);
        o.register(f);
        o.invoke_record(f);
        o
    }

    #[test]
    fn baseline_latency_grows_steeply_with_concurrency() {
        let f = FunctionId::helloworld;
        let mut o = prepared(f);
        let points = concurrency_sweep(&mut o, f, ColdPolicy::Vanilla, &[1, 8, 64]);
        let l1 = points[0].mean_latency.as_secs_f64();
        let l64 = points[2].mean_latency.as_secs_f64();
        // Fig 9: near-linear growth for the baseline.
        assert!(
            l64 > 6.0 * l1,
            "baseline should degrade steeply: {l1:.3}s -> {l64:.3}s"
        );
    }

    #[test]
    fn reap_stays_low_until_disk_bound() {
        let f = FunctionId::helloworld;
        let mut o = prepared(f);
        let reap = concurrency_sweep(&mut o, f, ColdPolicy::Reap, &[1, 8, 64]);
        let vanilla = concurrency_sweep(&mut o, f, ColdPolicy::Vanilla, &[64]);
        // REAP at 64 is still far better than the baseline at 64 (Fig 9).
        assert!(
            vanilla[0].mean_latency.as_secs_f64() > 3.0 * reap[2].mean_latency.as_secs_f64(),
            "vanilla@64 {:.3}s vs reap@64 {:.3}s",
            vanilla[0].mean_latency.as_secs_f64(),
            reap[2].mean_latency.as_secs_f64()
        );
        // REAP's useful throughput far exceeds the baseline's (§6.5:
        // 118-493 MB/s vs 32-81 MB/s).
        assert!(reap[2].useful_mbps > 90.0, "reap {:.0} MB/s", reap[2].useful_mbps);
    }

    #[test]
    fn baseline_useful_bandwidth_saturates_low() {
        let f = FunctionId::helloworld;
        let mut o = prepared(f);
        let p = run_concurrent(&mut o, f, ColdPolicy::Vanilla, 64);
        // §6.5: the baseline extracts only ~81 MB/s at 64 instances; the
        // device moves far more raw bytes than useful ones (readahead
        // waste).
        assert!(
            (30.0..140.0).contains(&p.useful_mbps),
            "baseline useful bandwidth {:.0} MB/s",
            p.useful_mbps
        );
        assert!(p.device_mbps > 1.5 * p.useful_mbps);
    }

    #[test]
    fn warm_background_perturbs_little() {
        let f = FunctionId::helloworld;
        let mut o = prepared(f);
        let (solo, bg) = with_warm_background(&mut o, f, ColdPolicy::Reap, 20);
        let delta = (bg.as_secs_f64() - solo.as_secs_f64()).abs() / solo.as_secs_f64();
        // §6.3: within 5%.
        assert!(delta < 0.05, "warm background delta {delta:.3}");
    }

    #[test]
    #[should_panic(expected = "concurrency must be positive")]
    fn zero_concurrency_rejected() {
        let f = FunctionId::helloworld;
        let mut o = prepared(f);
        let _ = run_concurrent(&mut o, f, ColdPolicy::Vanilla, 0);
    }
}
