//! Keep-warm policy: the provider-side economics that motivate
//! snapshotting (§1, §2.1).
//!
//! Providers keep an instance warm for 8–20 minutes after its last
//! invocation, then deallocate; the next invocation is a cold start.
//! [`crate::router`] replays an arrival stream against that policy and
//! reports the warm-memory cost and the cold-start rate — the two
//! quantities snapshots/REAP trade against each other.

use sim_core::SimDuration;

/// The keep-alive policy: how long an idle instance stays warm.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KeepWarmPolicy {
    /// Idle window after the last invocation (§2.1: 8–20 minutes in
    /// production).
    pub idle_timeout: SimDuration,
}

impl Default for KeepWarmPolicy {
    /// A 10-minute keep-alive, the middle of the paper's 8–20 min range.
    fn default() -> Self {
        KeepWarmPolicy {
            idle_timeout: SimDuration::from_secs(600),
        }
    }
}

/// Per-function costs the router replay needs (obtained from real
/// [`crate::Orchestrator`] measurements or the spec table).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FunctionCosts {
    /// Cold-start latency under the chosen restore policy.
    pub cold_latency: SimDuration,
    /// Warm invocation latency.
    pub warm_latency: SimDuration,
    /// Memory a warm instance pins (booted footprint).
    pub warm_bytes: u64,
}
