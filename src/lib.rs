//! # reap-repro
//!
//! Umbrella crate for the REAP reproduction (Ustiugov et al., ASPLOS
//! 2021: *Benchmarking, analysis, and optimization of serverless
//! function snapshots*).
//!
//! The actual machinery lives in the workspace crates; this crate
//! re-exports them under one roof so the repo-root integration tests
//! (`tests/`) and examples (`examples/`) have a single dependency
//! surface, and so downstream users can depend on one crate. Its
//! `scale` tests hold §6.5's Fig 9 anchors on the cluster request path.
//!
//! * [`sim_core`] — discrete-event simulation substrate (virtual time,
//!   event queue, queueing resources, deterministic RNG, stats).
//! * [`sim_storage`] — in-memory file store plus calibrated SSD/HDD
//!   timing models and a Linux-style page cache with readahead.
//! * [`guest_mem`] — guest physical memory with `userfaultfd`-style
//!   lazy paging.
//! * [`guest_os`] — buddy allocator, guest-physical layout, and kernel
//!   touch plans (the determinism engine behind stable working sets).
//! * [`microvm`] — Firecracker-style microVM: boot, pause, snapshot,
//!   restore.
//! * [`functionbench`] — behaviour models of the paper's ten functions.
//! * [`vhive_core`] — the vHive-CRI orchestrator and REAP itself.
//! * [`vhive_cluster`] — the sharded control plane: per-shard
//!   orchestrators and stores, concurrent invocation serving over one
//!   shared modeled disk, shard × lane concurrency sweeps.

pub use functionbench;
pub use guest_mem;
pub use guest_os;
pub use microvm;
pub use sim_core;
pub use sim_storage;
pub use vhive_cluster;
pub use vhive_core;

/// §6.5's Fig 9 anchors for helloworld, each level one batch of
/// independent cold requests through
/// [`vhive_cluster::cluster_concurrent`].
#[cfg(test)]
mod scale {
    mod tests {
        use functionbench::FunctionId;
        use vhive_cluster::{cluster_concurrent, ClusterOrchestrator};
        use vhive_core::ColdPolicy;

        fn prepared(f: FunctionId) -> ClusterOrchestrator {
            let mut c = ClusterOrchestrator::new(11, 1);
            c.register(f);
            c.invoke_record(f);
            c
        }

        #[test]
        fn baseline_latency_grows_steeply_with_concurrency() {
            let f = FunctionId::helloworld;
            let mut c = prepared(f);
            let points =
                [1, 8, 64].map(|n| cluster_concurrent(&mut c, &[f], ColdPolicy::Vanilla, n));
            let l1 = points[0].mean_latency.as_secs_f64();
            let l64 = points[2].mean_latency.as_secs_f64();
            // Fig 9: near-linear growth for the baseline.
            assert!(l64 > 6.0 * l1, "baseline should degrade steeply: {l1:.3}s -> {l64:.3}s");
            assert!(points[1].mean_latency < points[2].mean_latency);
        }

        #[test]
        fn reap_stays_low_until_disk_bound() {
            let f = FunctionId::helloworld;
            let mut c = prepared(f);
            let reap = cluster_concurrent(&mut c, &[f], ColdPolicy::Reap, 64);
            let vanilla = cluster_concurrent(&mut c, &[f], ColdPolicy::Vanilla, 64);
            // REAP at 64 is still far better than the baseline at 64 (Fig 9).
            assert!(
                vanilla.mean_latency.as_secs_f64() > 3.0 * reap.mean_latency.as_secs_f64(),
                "vanilla@64 {:.3}s vs reap@64 {:.3}s",
                vanilla.mean_latency.as_secs_f64(),
                reap.mean_latency.as_secs_f64()
            );
            // REAP's useful throughput far exceeds the baseline's (§6.5:
            // 118-493 MB/s vs 32-81 MB/s).
            assert!(reap.useful_mbps > 90.0, "reap {:.0} MB/s", reap.useful_mbps);
        }

        #[test]
        fn baseline_useful_bandwidth_saturates_low() {
            let f = FunctionId::helloworld;
            let mut c = prepared(f);
            let p = cluster_concurrent(&mut c, &[f], ColdPolicy::Vanilla, 64);
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
    }
}
