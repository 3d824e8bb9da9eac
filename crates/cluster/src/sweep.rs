//! Concurrency sweeps through the sharded control plane: each point is
//! one batch of independent cold requests (§6.5's methodology), swept
//! over concurrency for Fig 9 and over the shard count for Fig 9c.
//!
//! Shards change only where control-plane work runs, so *simulated*
//! latency is invariant (one shared disk either way — pinned by
//! proptests) while the *wall-clock* serving time drops with available
//! cores ([`ClusterScalePoint::serve_wall`]).

use std::time::Duration;

use functionbench::FunctionId;
use sim_core::{OnlineStats, SimDuration};
use vhive_core::ColdPolicy;

use crate::{ClusterOrchestrator, ColdRequest};

/// One point of the cluster sweep.
#[derive(Debug, Clone)]
pub struct ClusterScalePoint {
    /// Shard count of the cluster that served the batch.
    pub shards: usize,
    /// Number of concurrently-arriving instances.
    pub concurrency: usize,
    /// Restore policy.
    pub policy: ColdPolicy,
    /// Mean per-instance cold-start latency (simulated).
    pub mean_latency: SimDuration,
    /// Simulated makespan (all instances done).
    pub makespan: SimDuration,
    /// Aggregate useful disk throughput in MB/s (§6.5's metric).
    pub useful_mbps: f64,
    /// Raw device throughput in MB/s (includes readahead waste).
    pub device_mbps: f64,
    /// Wall-clock time the control plane took to serve the batch.
    pub serve_wall: Duration,
}

/// Runs one concurrent batch of `n` *independent* cold instances drawn
/// round-robin from `funcs` (shadow identities — separate snapshots, no
/// page-cache sharing, as Fig 9 requires) and aggregates it into a
/// [`ClusterScalePoint`].
///
/// # Panics
///
/// Panics if `funcs` is empty, `n` is zero, or any function is missing
/// its registration/working set on the cluster.
pub fn cluster_concurrent(
    cluster: &mut ClusterOrchestrator,
    funcs: &[FunctionId],
    policy: ColdPolicy,
    n: usize,
) -> ClusterScalePoint {
    assert!(!funcs.is_empty(), "need at least one function");
    assert!(n > 0, "concurrency must be positive");
    let reqs: Vec<ColdRequest> = (0..n)
        .map(|i| ColdRequest::independent(funcs[i % funcs.len()], policy))
        .collect();
    let batch = cluster.invoke_concurrent(&reqs);

    let mut stats = OnlineStats::new();
    for out in &batch.outcomes {
        stats.add(out.latency.as_secs_f64());
    }
    let secs = batch.makespan.as_secs_f64().max(1e-9);
    ClusterScalePoint {
        shards: cluster.num_shards(),
        concurrency: n,
        policy,
        mean_latency: SimDuration::from_secs_f64(stats.mean()),
        makespan: batch.makespan,
        useful_mbps: batch.disk_stats.useful_bytes_read as f64 / secs / 1e6,
        device_mbps: batch.disk_stats.device_bytes_read as f64 / secs / 1e6,
        serve_wall: batch.serve_wall,
    }
}

/// The full shard sweep: for every shard count a fresh cluster is built
/// (same seed, same functions, working sets recorded) and serves one
/// concurrent batch of `n` instances. Points come back in `shard_counts`
/// order.
///
/// # Panics
///
/// As [`cluster_concurrent`]; additionally if `shard_counts` contains
/// zero.
pub fn shard_sweep(
    seed: u64,
    funcs: &[FunctionId],
    policy: ColdPolicy,
    shard_counts: &[usize],
    n: usize,
) -> Vec<ClusterScalePoint> {
    shard_counts
        .iter()
        .map(|&shards| {
            let mut cluster = ClusterOrchestrator::new(seed, shards);
            for &f in funcs {
                cluster.register(f);
                if policy.uses_ws() {
                    cluster.invoke_record(f);
                }
            }
            cluster_concurrent(&mut cluster, funcs, policy, n)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cluster_point_carries_geometry_and_sane_metrics() {
        let mut c = ClusterOrchestrator::new(11, 2);
        let funcs = [FunctionId::helloworld, FunctionId::pyaes];
        for f in funcs {
            c.register(f);
            c.invoke_record(f);
        }
        let p = cluster_concurrent(&mut c, &funcs, ColdPolicy::Reap, 8);
        assert_eq!((p.shards, p.concurrency), (2, 8));
        assert!(p.mean_latency > SimDuration::ZERO);
        assert!(p.makespan >= p.mean_latency);
        assert!(p.useful_mbps > 0.0);
    }

    #[test]
    fn simulated_results_are_shard_invariant() {
        // The core contract of the sweep: across shard counts the
        // simulated point is identical.
        let funcs = [FunctionId::helloworld];
        let pts = shard_sweep(5, &funcs, ColdPolicy::Reap, &[1, 2, 4], 4);
        assert_eq!(pts.len(), 3);
        let key = |p: &ClusterScalePoint| {
            (
                p.mean_latency,
                p.makespan,
                p.useful_mbps.to_bits(),
                p.device_mbps.to_bits(),
            )
        };
        for p in &pts[1..] {
            assert_eq!(key(&pts[0]), key(p), "1-shard vs {}-shard", p.shards);
        }
    }

    #[test]
    #[should_panic(expected = "concurrency must be positive")]
    fn zero_concurrency_rejected() {
        let mut c = ClusterOrchestrator::new(1, 1);
        c.register(FunctionId::helloworld);
        let _ = cluster_concurrent(&mut c, &[FunctionId::helloworld], ColdPolicy::Vanilla, 0);
    }
}
