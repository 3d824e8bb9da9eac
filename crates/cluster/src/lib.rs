#![warn(missing_docs)]
//! # vhive-cluster
//!
//! The sharded control plane on top of [`vhive_core`]: a
//! [`ClusterOrchestrator`] that spreads function state across N shards,
//! each owning its own [`Orchestrator`](vhive_core::Orchestrator) — its
//! own snapshot [`FileStore`](sim_storage::FileStore), monitor state and
//! re-record bookkeeping — so thousands of registered functions and
//! concurrent invocations stop serializing on one registry and one store
//! lock (the regime §6.5 / Fig 9 probes, and what "How Low Can You Go?"
//! and SeBS identify as the production-distinguishing workload).
//!
//! ## Design
//!
//! * **Sharding** — a function's home shard is a pure hash of its
//!   [`FunctionId`] ([`shard_for`]), independent of seed and shard
//!   count-stable per configuration. All single-function operations
//!   (`register`, `invoke_record`, `invoke_warm`, `pad_working_set`, …)
//!   delegate to the shard holding the function, and `invoke_cold` is a
//!   batch of one served there, so a **1-shard cluster is bit-for-bit
//!   today's single `Orchestrator`**.
//! * **One holder per function** — one map records, for every placed
//!   function, the one shard holding its state; a function is placed at
//!   its home unless brownout steering picks a healthy neighbour
//!   ([`ClusterOrchestrator::route_of`]). It stays there while that
//!   shard lives. When the holder dies, the function's next use rebuilds
//!   it on a survivor from the holder's in-memory registry (same seed ⇒
//!   bit-identical snapshot, the record replayed at its pinned seq, the
//!   input sequence resumed), and the dead holder drops its copy. No
//!   stale copy is left to serve after a revival, so a re-routed request
//!   completes exactly as its fault-free run would.
//! * **Per-shard stores** — each shard's `FileStore` draws its
//!   [`FileId`](sim_storage::FileId)s from a disjoint namespace
//!   ([`FileStore::with_namespace`](sim_storage::FileStore::with_namespace)),
//!   so file identities from different shards never collide as cache keys
//!   when their timed programs meet on the shared disk.
//! * **Concurrent serving** — [`ClusterOrchestrator::invoke_concurrent`]
//!   fans a batch's *functional* passes across scoped threads, one lane
//!   per shard group, gated on the host's `available_parallelism`
//!   ([`sim_core::effective_lanes`]).
//!   Shard state never crosses threads, so outcomes are deterministic and
//!   **shard-count invariant** (pinned by this crate's proptests).
//! * **One shared disk** — the *timed* pass of a batch merges every
//!   shard's compiled programs onto a single
//!   [`Timeline`](vhive_core::Timeline) over one modeled
//!   [`Disk`](sim_storage::Disk): sharding the control plane buys
//!   wall-clock parallelism, but the instances still contend for the same
//!   device bandwidth — simulated latencies honestly stay what the disk
//!   allows (Fig 9's saturation around 16 concurrent loads does not
//!   disappear by adding shards).
//!
//! ## Example
//!
//! ```
//! use functionbench::FunctionId;
//! use vhive_cluster::{ClusterOrchestrator, ColdRequest};
//! use vhive_core::ColdPolicy;
//!
//! let mut cluster = ClusterOrchestrator::new(42, 4);
//! cluster.register(FunctionId::helloworld);
//! cluster.invoke_record(FunctionId::helloworld);
//! // Eight independent REAP cold starts, served concurrently on one
//! // shared disk.
//! let reqs: Vec<ColdRequest> = (0..8)
//!     .map(|_| ColdRequest::independent(FunctionId::helloworld, ColdPolicy::Reap))
//!     .collect();
//! let batch = cluster.invoke_concurrent(&reqs);
//! assert_eq!(batch.outcomes.len(), 8);
//! assert!(batch.makespan >= batch.outcomes[0].latency);
//! ```

pub mod admission;
pub mod orchestrator;
pub mod sweep;

pub use admission::{AdmissionConfig, RateLimit, ShedPolicy};
pub use orchestrator::{ClusterBatch, ClusterOrchestrator, ShardHealth};
pub use sweep::{cluster_concurrent, shard_sweep, ClusterScalePoint};
pub use vhive_core::{ColdRequest, Disposition, ShedReason};

use functionbench::FunctionId;

// SplitMix64 finalizer: the shard hash. Pure arithmetic over the function
// id — identical on every host, independent of seed, so a function's home
// shard is a stable property of the cluster geometry.
use sim_core::hash::splitmix64;

/// Home shard of `f` in a cluster of `shards` shards.
///
/// # Panics
///
/// Panics if `shards` is zero.
pub fn shard_for(f: FunctionId, shards: usize) -> usize {
    assert!(shards > 0, "cluster needs at least one shard");
    (splitmix64(f as u64) % shards as u64) as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_hash_is_stable_and_in_range() {
        for f in FunctionId::ALL {
            assert_eq!(shard_for(f, 1), 0);
            for n in [2usize, 3, 4, 8] {
                let s = shard_for(f, n);
                assert!(s < n);
                assert_eq!(s, shard_for(f, n), "hash must be pure");
            }
        }
    }

    #[test]
    fn suite_spreads_across_shards() {
        // The 10-function suite must not collapse onto one shard at the
        // geometries the benches sweep.
        for n in [2usize, 4] {
            let used: std::collections::BTreeSet<usize> =
                FunctionId::ALL.iter().map(|&f| shard_for(f, n)).collect();
            assert_eq!(used.len(), n, "suite covers all {n} shards");
        }
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_rejected() {
        let _ = shard_for(FunctionId::helloworld, 0);
    }
}
