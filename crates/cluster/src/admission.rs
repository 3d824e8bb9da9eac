//! Cluster admission control: bounded per-shard queues, per-function
//! rate limiting, and brownout-aware shedding.
//!
//! [`ClusterOrchestrator::invoke_concurrent`] normally serves every
//! request it is handed — under a 10× overload storm that means every
//! request burns a functional pass and a slice of the shared disk, and
//! *goodput* (requests completing inside their deadline) collapses even
//! though throughput looks busy. With an [`AdmissionConfig`] attached,
//! the batch runs a pure admission pre-pass over the request stream in
//! input order, **before any seq is consumed or any work done**:
//!
//! 1. **Rate limiting** — each function's [`TokenBucket`] is advanced to
//!    the request's arrival instant; an empty bucket sheds the request
//!    as [`ShedReason::RateLimited`] with an exact refill-time retry
//!    hint.
//! 2. **Bounded queues** — each shard models an admission queue of
//!    [`AdmissionConfig::max_queue_depth`] slots per batch. Overflow
//!    sheds by [`ShedPolicy`]: reject the newcomer, or evict the queued
//!    request closest to its deadline (the one most likely to be wasted
//!    work anyway).
//! 3. **Brownout** — a [`ShardHealth::Degraded`] shard advertises only
//!    half its queue depth, so proportionally less new work lands on it;
//!    requests it sheds carry [`ShedReason::Brownout`] and a retry hint
//!    of their own budget (by then the degraded backlog has drained or
//!    the shard has been declared dead).
//!
//! The pre-pass never touches shard state, so the *admitted* subset is
//! served byte-identically to a run submitted with exactly that subset
//! and no admission layer (pinned by this crate's proptests), and the
//! shed set is a pure function of `(stream, config, health)` —
//! deterministic across shard geometries.
//!
//! [`ClusterOrchestrator::invoke_concurrent`]: crate::ClusterOrchestrator::invoke_concurrent
//! [`ShardHealth::Degraded`]: crate::ShardHealth::Degraded

use std::collections::HashMap;

use functionbench::FunctionId;
use sim_core::{SimTime, TokenBucket};
use vhive_core::{ColdRequest, Disposition, ShedReason};

use crate::orchestrator::ShardHealth;

/// What to do when a shard's admission queue is full.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ShedPolicy {
    /// Shed the arriving request (classic tail-drop).
    #[default]
    RejectNewest,
    /// Evict the queued request with the *earliest* deadline expiry if
    /// it expires before the newcomer would — it is the request most
    /// likely to be served past its deadline anyway — and admit the
    /// newcomer in its place. Falls back to tail-drop when no queued
    /// request is closer to expiry (or none carries a deadline).
    RejectOverDeadline,
}

/// Per-function token-bucket rate limit (see [`TokenBucket`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RateLimit {
    /// Bucket capacity (max burst admitted at one instant), ≥ 1.
    pub burst: f64,
    /// Refill rate, tokens per virtual second.
    pub per_sec: f64,
}

/// Admission-control configuration for concurrent batches.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct AdmissionConfig {
    /// Per-shard admission-queue bound per batch; `None` = unbounded
    /// (queue shedding off).
    pub max_queue_depth: Option<usize>,
    /// Overflow policy for the bounded queue.
    pub shed_policy: ShedPolicy,
    /// Per-function token-bucket rate limiter; `None` = off.
    pub rate_limit: Option<RateLimit>,
}

/// One queued entry during the pre-pass: request index + absolute
/// deadline expiry (None = no deadline, never evicted).
type Slot = (usize, Option<SimTime>);

/// Runs the admission pre-pass over `reqs` in input order.
///
/// `routes[i]` is the shard request `i` would be served on and
/// `health` the per-shard health; `buckets` is the cluster's persistent
/// per-function rate-limiter state (advanced by this call). Returns one
/// entry per request: `None` = admitted, `Some(shed disposition)` =
/// rejected before any work.
pub(crate) fn admit_batch(
    cfg: &AdmissionConfig,
    reqs: &[ColdRequest],
    routes: &[usize],
    health: &[ShardHealth],
    buckets: &mut HashMap<FunctionId, TokenBucket>,
) -> Vec<Option<Disposition>> {
    let mut decisions: Vec<Option<Disposition>> = vec![None; reqs.len()];
    let mut queues: Vec<Vec<Slot>> = vec![Vec::new(); health.len()];
    for (i, r) in reqs.iter().enumerate() {
        // 1. The function's token bucket (front door: a rate-limited
        // request never competes for a queue slot).
        if let Some(rl) = cfg.rate_limit {
            let bucket = buckets
                .entry(r.function)
                .or_insert_with(|| TokenBucket::new(rl.burst, rl.per_sec));
            if !bucket.try_take(r.arrival) {
                decisions[i] = Some(Disposition::Shed {
                    reason: ShedReason::RateLimited,
                    retry_after: Some(bucket.eta_next()),
                });
                continue;
            }
        }
        // 2. The routed shard's bounded queue, browned out when the
        // shard is Degraded.
        let Some(depth) = cfg.max_queue_depth else {
            continue;
        };
        let shard = routes[i];
        let degraded = health[shard] == ShardHealth::Degraded;
        let effective = if degraded { (depth / 2).max(1) } else { depth };
        let queue = &mut queues[shard];
        let expiry = r.deadline.map(|b| r.arrival + b);
        if queue.len() < effective {
            queue.push((i, expiry));
            continue;
        }
        // Overflow. Under RejectOverDeadline, evict the queued request
        // whose expiry comes soonest if it is strictly sooner than the
        // newcomer's (no deadline = never evicted).
        let mut shed_idx = i;
        if cfg.shed_policy == ShedPolicy::RejectOverDeadline {
            let victim = queue
                .iter()
                .enumerate()
                .filter_map(|(k, &(_, e))| e.map(|e| (k, e)))
                .min_by_key(|&(_, e)| e);
            if let Some((k, e)) = victim {
                if expiry.is_none_or(|mine| e < mine) {
                    shed_idx = queue[k].0;
                    queue[k] = (i, expiry);
                }
            }
        }
        let (reason, retry_after) = if degraded {
            (ShedReason::Brownout, reqs[shed_idx].deadline)
        } else {
            (ShedReason::QueueFull, None)
        };
        decisions[shed_idx] = Some(Disposition::Shed { reason, retry_after });
    }
    decisions
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_core::{SimDuration, SimTime};
    use vhive_core::ColdPolicy;

    fn req(ms: u64, deadline_ms: Option<u64>) -> ColdRequest {
        let mut r = ColdRequest::shared(FunctionId::helloworld, ColdPolicy::Reap);
        r.arrival = SimTime::ZERO + SimDuration::from_millis(ms);
        r.deadline = deadline_ms.map(SimDuration::from_millis);
        r
    }

    #[test]
    fn unbounded_config_admits_everything() {
        let reqs: Vec<ColdRequest> = (0..8).map(|i| req(i, None)).collect();
        let routes = vec![0; 8];
        let decisions = admit_batch(
            &AdmissionConfig::default(),
            &reqs,
            &routes,
            &[ShardHealth::Healthy],
            &mut HashMap::new(),
        );
        assert!(decisions.iter().all(Option::is_none));
    }

    #[test]
    fn queue_overflow_rejects_newest() {
        let cfg = AdmissionConfig {
            max_queue_depth: Some(2),
            ..AdmissionConfig::default()
        };
        let reqs: Vec<ColdRequest> = (0..4).map(|i| req(i, None)).collect();
        let decisions = admit_batch(
            &cfg,
            &reqs,
            &[0, 0, 0, 0],
            &[ShardHealth::Healthy],
            &mut HashMap::new(),
        );
        assert_eq!(decisions[0], None);
        assert_eq!(decisions[1], None);
        for d in &decisions[2..] {
            assert_eq!(
                *d,
                Some(Disposition::Shed {
                    reason: ShedReason::QueueFull,
                    retry_after: None
                })
            );
        }
    }

    #[test]
    fn reject_over_deadline_evicts_the_tightest_budget() {
        let cfg = AdmissionConfig {
            max_queue_depth: Some(2),
            shed_policy: ShedPolicy::RejectOverDeadline,
            ..AdmissionConfig::default()
        };
        // Queue fills with a tight 5 ms budget and a loose 500 ms one;
        // a 100 ms newcomer evicts the 5 ms entry.
        let reqs = vec![req(0, Some(5)), req(0, Some(500)), req(1, Some(100))];
        let decisions = admit_batch(
            &cfg,
            &reqs,
            &[0, 0, 0],
            &[ShardHealth::Healthy],
            &mut HashMap::new(),
        );
        assert!(decisions[0].is_some(), "tightest deadline evicted");
        assert_eq!(decisions[1], None);
        assert_eq!(decisions[2], None, "newcomer took the evicted slot");
    }

    #[test]
    fn degraded_shard_browns_out_at_half_depth() {
        let cfg = AdmissionConfig {
            max_queue_depth: Some(4),
            ..AdmissionConfig::default()
        };
        let reqs: Vec<ColdRequest> = (0..4).map(|i| req(i, Some(50))).collect();
        let decisions = admit_batch(
            &cfg,
            &reqs,
            &[0, 0, 0, 0],
            &[ShardHealth::Degraded],
            &mut HashMap::new(),
        );
        // Half of depth 4 = 2 slots; the rest shed as Brownout with the
        // budget as the retry hint.
        assert_eq!(decisions.iter().filter(|d| d.is_none()).count(), 2);
        for d in decisions.iter().flatten() {
            assert_eq!(
                *d,
                Disposition::Shed {
                    reason: ShedReason::Brownout,
                    retry_after: Some(SimDuration::from_millis(50)),
                }
            );
        }
    }

    #[test]
    fn rate_limit_sheds_with_refill_hint() {
        let cfg = AdmissionConfig {
            rate_limit: Some(RateLimit {
                burst: 1.0,
                per_sec: 10.0,
            }),
            ..AdmissionConfig::default()
        };
        // Two simultaneous arrivals, burst 1: the second is limited and
        // told to come back when the bucket refills (~100 ms).
        let reqs = vec![req(0, None), req(0, None)];
        let mut buckets = HashMap::new();
        let decisions = admit_batch(
            &cfg,
            &reqs,
            &[0, 0],
            &[ShardHealth::Healthy],
            &mut buckets,
        );
        assert_eq!(decisions[0], None);
        let Some(Disposition::Shed {
            reason: ShedReason::RateLimited,
            retry_after: Some(hint),
        }) = decisions[1]
        else {
            panic!("expected a rate-limited shed, got {:?}", decisions[1]);
        };
        assert!(hint > SimDuration::from_millis(99) && hint <= SimDuration::from_millis(100));
        // Bucket state persists across batches.
        assert!(buckets[&FunctionId::helloworld].level() < 1.0);
    }

    #[test]
    fn shed_set_is_a_pure_function_of_the_stream() {
        let cfg = AdmissionConfig {
            max_queue_depth: Some(3),
            rate_limit: Some(RateLimit {
                burst: 4.0,
                per_sec: 100.0,
            }),
            ..AdmissionConfig::default()
        };
        let reqs: Vec<ColdRequest> = (0..16).map(|i| req(i / 2, Some(20))).collect();
        let run = || {
            admit_batch(
                &cfg,
                &reqs,
                &[0; 16],
                &[ShardHealth::Healthy],
                &mut HashMap::new(),
            )
        };
        assert_eq!(run(), run());
    }
}
