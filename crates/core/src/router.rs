//! Data-plane router + autoscaler-lite: the worker-level behaviour of
//! §3.2.
//!
//! vHive follows the AWS Lambda model: one function instance processes one
//! invocation at a time. When a request arrives and no idle instance
//! exists, the control plane starts a new instance (a cold start — vanilla
//! or REAP-accelerated); if the per-function instance cap is reached the
//! request queues (the Knative queue-proxy role). Idle instances are
//! reclaimed after a keep-alive window.
//!
//! The router works at the timing level: it takes per-function costs
//! ([`crate::policy::FunctionCosts`]) measured by the real
//! [`crate::Orchestrator`] and replays an arrival stream, so queueing
//! delay, scaling behaviour, and memory cost can be studied over hours of
//! virtual time.

use std::collections::{HashMap, VecDeque};

use functionbench::{FunctionId, InvocationEvent};
use sim_core::{EventQueue, OnlineStats, SimDuration, SimTime};

use crate::policy::{FunctionCosts, KeepWarmPolicy};

/// Router configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RouterConfig {
    /// Maximum concurrent instances per function (the autoscaler cap).
    pub max_instances: usize,
    /// Idle-instance reclamation policy.
    pub keep_warm: KeepWarmPolicy,
    /// Per-function admission-queue bound. An arrival that finds the pool
    /// saturated *and* the queue at this depth is shed (reject-newest)
    /// instead of queued. `None` (the default) keeps the historical
    /// unbounded queue.
    pub max_queue_depth: Option<usize>,
    /// Per-request latency budget. A queued request whose wait already
    /// exceeds the budget when an instance frees up is dropped as
    /// expired rather than dispatched (reject-over-deadline). `None`
    /// disables expiry.
    pub deadline: Option<SimDuration>,
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig {
            max_instances: 8,
            keep_warm: KeepWarmPolicy::default(),
            max_queue_depth: None,
            deadline: None,
        }
    }
}

/// Aggregate routing results.
#[derive(Debug, Clone, Default)]
pub struct RouterReport {
    /// Invocations processed.
    pub invocations: u64,
    /// Requests that cold-started a new instance.
    pub cold_starts: u64,
    /// Requests dispatched to an idle warm instance immediately.
    pub warm_dispatches: u64,
    /// Requests that had to queue for a busy pool.
    pub queued: u64,
    /// End-to-end latency stats (seconds), including queueing.
    pub latency: OnlineStats,
    /// Queueing-delay stats (seconds) over queued requests only.
    pub queue_delay: OnlineStats,
    /// Peak concurrently-alive instances (warm + busy), across functions.
    pub peak_instances: u64,
    /// Peak pinned instance memory, bytes.
    pub peak_memory_bytes: u64,
    /// Requests shed on arrival because the admission queue was full
    /// (only with [`RouterConfig::max_queue_depth`]).
    pub shed: u64,
    /// Queued requests dropped at dispatch because their wait exceeded
    /// the deadline (only with [`RouterConfig::deadline`]).
    pub expired: u64,
    /// Deepest any per-function admission queue got.
    pub queue_depth_hwm: u64,
}

impl RouterReport {
    /// Requests that actually completed — the report's goodput. Every
    /// input event resolves to exactly one of goodput, `shed`, or
    /// `expired`; nothing hangs in a queue forever.
    pub fn goodput(&self) -> u64 {
        self.invocations
    }
}

#[derive(Debug, Default)]
struct Pool {
    /// Idle instances: time they became idle.
    idle: VecDeque<SimTime>,
    busy: usize,
    queue: VecDeque<SimTime>,
}

impl Pool {
    fn alive(&self) -> usize {
        self.idle.len() + self.busy
    }
}

#[derive(Debug, Clone, Copy)]
enum Ev {
    Arrival(FunctionId, SimTime),
    Completion(FunctionId),
}

/// Routes `events` through per-function instance pools.
///
/// # Panics
///
/// Panics if an event references a function missing from `costs`, or if
/// `config.max_instances == 0`.
pub fn route_workload(events: &[InvocationEvent], config: RouterConfig, costs: &HashMap<FunctionId, FunctionCosts>) -> RouterReport {
    assert!(config.max_instances > 0, "need at least one instance");
    let mut queue: EventQueue<Ev> = EventQueue::new();
    for e in events {
        queue.push(e.at, Ev::Arrival(e.function, e.at));
    }
    let mut pools: HashMap<FunctionId, Pool> = HashMap::new();
    let mut report = RouterReport::default();
    // Instances alive across all pools and the memory they pin: each
    // instance counts its own function's footprint from cold start to
    // reclamation.
    let (mut alive, mut mem) = (0u64, 0u64);

    // Helper to account one dispatch.
    fn dispatch(now: SimTime, arrived: SimTime, exec: SimDuration, f: FunctionId, queue: &mut EventQueue<Ev>, report: &mut RouterReport) {
        let done = now + exec;
        queue.push(done, Ev::Completion(f));
        let latency = (done - arrived).as_secs_f64();
        report.latency.add(latency);
        report.invocations += 1;
    }

    while let Some((now, ev)) = queue.pop() {
        match ev {
            Ev::Arrival(f, arrived) => {
                let cost = *costs.get(&f).unwrap_or_else(|| panic!("no costs for {f}"));
                let pool = pools.entry(f).or_default();
                // Reclaim idle instances that outlived the keep-alive.
                while let Some(&idle_since) = pool.idle.front() {
                    if now - idle_since > config.keep_warm.idle_timeout {
                        pool.idle.pop_front();
                        alive -= 1;
                        mem -= cost.warm_bytes;
                    } else {
                        break;
                    }
                }
                if pool.idle.pop_back().is_some() {
                    // Freshest idle instance serves the request (LIFO keeps
                    // the rest aging toward reclamation).
                    pool.busy += 1;
                    report.warm_dispatches += 1;
                    dispatch(now, arrived, cost.warm_latency, f, &mut queue, &mut report);
                } else if pool.alive() < config.max_instances {
                    pool.busy += 1;
                    alive += 1;
                    mem += cost.warm_bytes;
                    report.cold_starts += 1;
                    dispatch(now, arrived, cost.cold_latency, f, &mut queue, &mut report);
                } else if config.max_queue_depth.is_some_and(|d| pool.queue.len() >= d) {
                    // Admission queue full: reject-newest.
                    report.shed += 1;
                } else {
                    pool.queue.push_back(arrived);
                    report.queued += 1;
                    report.queue_depth_hwm = report.queue_depth_hwm.max(pool.queue.len() as u64);
                }
                report.peak_instances = report.peak_instances.max(alive);
                report.peak_memory_bytes = report.peak_memory_bytes.max(mem);
            }
            Ev::Completion(f) => {
                let cost = *costs.get(&f).expect("completed function has costs");
                let pool = pools.get_mut(&f).expect("completion for known pool");
                pool.busy -= 1;
                // Reject-over-deadline: drop queue entries whose wait
                // already blew the budget before handing out the instance.
                if let Some(budget) = config.deadline {
                    while pool.queue.front().is_some_and(|&arrived| now - arrived > budget) {
                        pool.queue.pop_front();
                        report.expired += 1;
                    }
                }
                if let Some(arrived) = pool.queue.pop_front() {
                    // Hand the freed instance to the queue head.
                    pool.busy += 1;
                    report.queue_delay.add((now - arrived).as_secs_f64());
                    dispatch(now, arrived, cost.warm_latency, f, &mut queue, &mut report);
                } else {
                    pool.idle.push_back(now);
                }
            }
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn costs() -> HashMap<FunctionId, FunctionCosts> {
        let mut m = HashMap::new();
        m.insert(
            FunctionId::helloworld,
            FunctionCosts {
                cold_latency: SimDuration::from_millis(232),
                warm_latency: SimDuration::from_millis(10),
                warm_bytes: 150 * 1024 * 1024,
            },
        );
        m
    }

    fn ev(ms: u64) -> InvocationEvent {
        InvocationEvent {
            at: SimTime::ZERO + SimDuration::from_millis(ms),
            function: FunctionId::helloworld,
            seq: 0,
        }
    }

    #[test]
    fn sequential_requests_reuse_one_instance() {
        let events: Vec<_> = (0..5).map(|i| ev(i * 1000)).collect();
        let r = route_workload(&events, RouterConfig::default(), &costs());
        assert_eq!(r.invocations, 5);
        assert_eq!(r.cold_starts, 1);
        assert_eq!(r.warm_dispatches, 4);
        assert_eq!(r.queued, 0);
        assert_eq!(r.peak_instances, 1);
    }

    #[test]
    fn burst_scales_out_to_cap_then_queues() {
        // 12 simultaneous arrivals, cap 8: 8 cold starts, 4 queued.
        let events: Vec<_> = (0..12).map(|_| ev(0)).collect();
        let r = route_workload(&events, RouterConfig::default(), &costs());
        assert_eq!(r.invocations, 12);
        assert_eq!(r.cold_starts, 8);
        assert_eq!(r.queued, 4);
        assert_eq!(r.peak_instances, 8);
        // Queued requests waited for a cold start to finish.
        assert!(r.queue_delay.mean() >= 0.232);
        assert_eq!(r.peak_memory_bytes, 8 * 150 * 1024 * 1024);
    }

    #[test]
    fn expired_instances_cold_start_again() {
        let config = RouterConfig {
            max_instances: 4,
            keep_warm: KeepWarmPolicy {
                idle_timeout: SimDuration::from_secs(60),
            },
            ..RouterConfig::default()
        };
        // Second request arrives 2 minutes later: the instance was
        // reclaimed.
        let events = vec![ev(0), ev(120_000)];
        let r = route_workload(&events, config, &costs());
        assert_eq!(r.cold_starts, 2);
        assert_eq!(r.warm_dispatches, 0);
    }

    #[test]
    fn faster_cold_starts_cut_tail_latency() {
        // The REAP argument at the router level: same workload, REAP-class
        // cold starts vs vanilla-class ones.
        let events: Vec<_> = (0..16).map(|i| ev(i % 4 * 5)).collect(); // bursty
        let mut vanilla_costs = costs();
        let mut reap_costs = costs();
        vanilla_costs.get_mut(&FunctionId::helloworld).unwrap().cold_latency =
            SimDuration::from_millis(232);
        reap_costs.get_mut(&FunctionId::helloworld).unwrap().cold_latency =
            SimDuration::from_millis(55);
        let rv = route_workload(&events, RouterConfig::default(), &vanilla_costs);
        let rr = route_workload(&events, RouterConfig::default(), &reap_costs);
        assert!(rr.latency.max().unwrap() < rv.latency.max().unwrap());
        assert!(rr.latency.mean() < rv.latency.mean());
    }

    #[test]
    fn queue_drains_in_fifo_order() {
        // Cap 1: all requests serialize through one instance.
        let config = RouterConfig {
            max_instances: 1,
            ..RouterConfig::default()
        };
        let events: Vec<_> = (0..4).map(|_| ev(0)).collect();
        let r = route_workload(&events, config, &costs());
        assert_eq!(r.cold_starts, 1);
        assert_eq!(r.queued, 3);
        assert_eq!(r.invocations, 4);
        // Total time: 232 + 3*10 ms of service; last queue delay ~252 ms.
        let max_delay = r.queue_delay.max().unwrap();
        assert!((0.25..0.27).contains(&max_delay), "got {max_delay}");
    }

    #[test]
    fn defaults_never_shed_and_track_hwm() {
        // The burst scenario from above: with the historical unbounded
        // queue nothing is shed or expired, and the high-water mark
        // reports how deep the backlog got.
        let events: Vec<_> = (0..12).map(|_| ev(0)).collect();
        let r = route_workload(&events, RouterConfig::default(), &costs());
        assert_eq!(r.shed, 0);
        assert_eq!(r.expired, 0);
        assert_eq!(r.queue_depth_hwm, 4);
        assert_eq!(r.goodput(), 12);
    }

    #[test]
    fn bounded_queue_sheds_newest() {
        // Cap 1 instance, queue depth 2: of 5 simultaneous arrivals one
        // dispatches, two queue, two shed.
        let config = RouterConfig {
            max_instances: 1,
            max_queue_depth: Some(2),
            ..RouterConfig::default()
        };
        let events: Vec<_> = (0..5).map(|_| ev(0)).collect();
        let r = route_workload(&events, config, &costs());
        assert_eq!(r.invocations, 3);
        assert_eq!(r.queued, 2);
        assert_eq!(r.shed, 2);
        assert_eq!(r.expired, 0);
        assert_eq!(r.queue_depth_hwm, 2);
        assert_eq!(r.invocations + r.shed + r.expired, 5);
    }

    #[test]
    fn stale_queue_entries_expire_at_dispatch() {
        // Cap 1, 100 ms budget: the cold start takes 232 ms, so every
        // queued request is over-deadline by the time the instance
        // frees up.
        let config = RouterConfig {
            max_instances: 1,
            deadline: Some(SimDuration::from_millis(100)),
            ..RouterConfig::default()
        };
        let events: Vec<_> = (0..4).map(|_| ev(0)).collect();
        let r = route_workload(&events, config, &costs());
        assert_eq!(r.invocations, 1);
        assert_eq!(r.expired, 3);
        assert_eq!(r.shed, 0);
        assert_eq!(r.invocations + r.shed + r.expired, 4);
    }

    #[test]
    fn within_deadline_queue_entries_still_dispatch() {
        // Budget comfortably above the cold start: identical to the
        // unbounded run.
        let config = RouterConfig {
            max_instances: 1,
            deadline: Some(SimDuration::from_secs(5)),
            ..RouterConfig::default()
        };
        let events: Vec<_> = (0..4).map(|_| ev(0)).collect();
        let r = route_workload(&events, config, &costs());
        assert_eq!(r.invocations, 4);
        assert_eq!(r.expired, 0);
    }

    #[test]
    fn each_pool_pins_its_own_functions_memory() {
        let cost = |warm_bytes| FunctionCosts {
            cold_latency: SimDuration::from_secs(10),
            warm_latency: SimDuration::from_secs(10),
            warm_bytes,
        };
        let costs = HashMap::from([(FunctionId::helloworld, cost(100)), (FunctionId::pyaes, cost(1))]);
        let at = |ms, function| InvocationEvent {
            at: SimTime::ZERO + SimDuration::from_millis(ms),
            function,
            seq: 0,
        };
        // Two long-running instances overlap; an hour later the first
        // function's idle instance is reclaimed before its next cold start.
        let events = [
            at(0, FunctionId::helloworld),
            at(1, FunctionId::pyaes),
            at(3_600_000, FunctionId::helloworld),
        ];
        let r = route_workload(&events, RouterConfig::default(), &costs);
        assert_eq!(r.cold_starts, 3);
        assert_eq!(r.peak_instances, 2);
        assert_eq!(r.peak_memory_bytes, 101);
    }

    #[test]
    #[should_panic(expected = "at least one instance")]
    fn zero_cap_rejected() {
        let _ = route_workload(
            &[ev(0)],
            RouterConfig {
                max_instances: 0,
                ..RouterConfig::default()
            },
            &costs(),
        );
    }
}
