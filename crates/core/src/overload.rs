//! The cold-start request ([`ColdRequest`]) and its overload
//! dispositions: what finally happened to it.
//!
//! PR 7's recovery machinery guarantees no request is *dropped*; this
//! module guarantees none is *silently hung* either. Every request
//! resolves to exactly one [`Disposition`]:
//!
//! * [`Completed`](Disposition::Completed) — served within its deadline
//!   (or with no deadline set);
//! * [`Shed`](Disposition::Shed) — rejected before any work: the
//!   admission queue was full, the function's token bucket was empty,
//!   or its home shard was browning out.
//!   No input seq is consumed — a later run admitting the request
//!   serves it with the seq it would have had;
//! * [`DeadlineExceeded`](Disposition::DeadlineExceeded) — the
//!   virtual-time budget ran out, either mid-recovery (retry backoff /
//!   injected delays exhausted it before the functional pass finished;
//!   the consumed seq is rolled back exactly like `ShardUnavailable`)
//!   or at completion (the simulated finish landed past the expiry
//!   instant; the outcome exists but counts against goodput).

use std::fmt;

use functionbench::FunctionId;
use sim_core::{SimDuration, SimTime};

use crate::invocation::ColdPolicy;
use crate::recovery::ShardUnavailable;

/// One cold invocation, as [`Orchestrator::prepare`](crate::Orchestrator::prepare)
/// and the cluster's `invoke_concurrent` take it.
#[derive(Debug, Clone, Copy)]
pub struct ColdRequest {
    /// The function to invoke (also selects the home shard).
    pub function: FunctionId,
    /// Restore policy.
    pub policy: ColdPolicy,
    /// When `true`, the instance models an *independent* function with
    /// its own snapshot identity (shadow files, §6.5's concurrency
    /// methodology) and the misprediction / auto-re-record bookkeeping
    /// is skipped — it stands in for a different function than the one
    /// whose behaviour it borrows. `false` runs against the function's
    /// real snapshot files, sharing page-cache state with its siblings.
    /// Recovery (retries, quarantine fallback, failover, deadlines) is
    /// the same either way.
    pub independent: bool,
    /// Arrival time on the timeline the request is served on.
    pub arrival: SimTime,
    /// Optional virtual-time latency budget, relative to `arrival`. A
    /// request carrying one resolves to an explicit [`Disposition`]: it
    /// can be shed at admission, aborted mid-recovery once
    /// retries/injected delays exhaust the budget (its seq rolled
    /// back), or served and classified
    /// [`Disposition::DeadlineExceeded`] if its simulated completion
    /// lands past the expiry instant. `None` = no deadline.
    pub deadline: Option<SimDuration>,
}

impl ColdRequest {
    /// A request against the function's real snapshot files, arriving at
    /// time zero.
    pub fn shared(function: FunctionId, policy: ColdPolicy) -> Self {
        ColdRequest {
            function,
            policy,
            independent: false,
            arrival: SimTime::ZERO,
            deadline: None,
        }
    }

    /// A request modeling an independent function (fresh shadow
    /// identity), arriving at time zero.
    pub fn independent(function: FunctionId, policy: ColdPolicy) -> Self {
        ColdRequest {
            independent: true,
            ..ColdRequest::shared(function, policy)
        }
    }

    /// Attaches a virtual-time latency budget (relative to arrival).
    pub fn with_deadline(mut self, budget: SimDuration) -> Self {
        self.deadline = Some(budget);
        self
    }
}

/// Why a request was shed before any work was done on it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ShedReason {
    /// The bounded admission queue was at capacity.
    QueueFull,
    /// The function's token-bucket rate limiter was empty.
    RateLimited,
    /// The home shard is Degraded and the request's remaining budget
    /// could not absorb a degraded-path cold start.
    Brownout,
}

impl ShedReason {
    /// Stable lowercase label (telemetry spans, metrics series, CSV).
    pub fn label(self) -> &'static str {
        match self {
            ShedReason::QueueFull => "queue_full",
            ShedReason::RateLimited => "rate_limited",
            ShedReason::Brownout => "brownout",
        }
    }
}

impl fmt::Display for ShedReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// The explicit final state of one request under overload-aware
/// serving. Exactly one per request; no fourth, implicit "still
/// pending" state exists.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Disposition {
    /// Served, and (if a deadline was set) finished within it.
    Completed,
    /// Rejected up front, with an optional virtual-time retry hint
    /// (token-bucket refill, brownout backoff).
    Shed {
        /// Why admission rejected the request.
        reason: ShedReason,
        /// When the caller should try again, if the shedder knows.
        retry_after: Option<SimDuration>,
    },
    /// The virtual-time budget expired before (or at) completion.
    DeadlineExceeded,
}

impl Disposition {
    /// True only for [`Disposition::Completed`] — the goodput predicate.
    pub fn is_goodput(self) -> bool {
        matches!(self, Disposition::Completed)
    }

    /// Stable lowercase label (telemetry spans, metrics series, CSV).
    pub fn label(self) -> &'static str {
        match self {
            Disposition::Completed => "completed",
            Disposition::Shed {
                reason: ShedReason::QueueFull,
                ..
            } => "shed_queue_full",
            Disposition::Shed {
                reason: ShedReason::RateLimited,
                ..
            } => "shed_rate_limited",
            Disposition::Shed {
                reason: ShedReason::Brownout,
                ..
            } => "shed_brownout",
            Disposition::DeadlineExceeded => "deadline_exceeded",
        }
    }
}

impl fmt::Display for Disposition {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// The request's virtual-time budget ran out mid-recovery: retry
/// backoff and injected delays exhausted it before the functional pass
/// could finish. The consumed input seq was rolled back (exactly like
/// [`ShardUnavailable`]), so a later request completes with the seq
/// this one surrendered.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeadlineExpired {
    /// The function whose cold start timed out.
    pub function: FunctionId,
    /// Virtual recovery time spent before giving up.
    pub spent: SimDuration,
    /// The budget the request arrived with.
    pub budget: SimDuration,
}

impl fmt::Display for DeadlineExpired {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: deadline exceeded mid-recovery ({} spent of {} budget)",
            self.function, self.spent, self.budget
        )
    }
}

impl std::error::Error for DeadlineExpired {}

/// Why [`Orchestrator::prepare`](crate::Orchestrator::prepare) did not
/// produce a `PreparedCold`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ColdAbort {
    /// The shard's snapshot store is unreachable — re-route (seq rolled
    /// back).
    Shard(ShardUnavailable),
    /// The virtual-time budget ran out mid-recovery (seq rolled back).
    Deadline(DeadlineExpired),
}

impl fmt::Display for ColdAbort {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ColdAbort::Shard(e) => e.fmt(f),
            ColdAbort::Deadline(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for ColdAbort {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_are_stable() {
        assert_eq!(Disposition::Completed.label(), "completed");
        assert_eq!(
            Disposition::Shed {
                reason: ShedReason::QueueFull,
                retry_after: None
            }
            .label(),
            "shed_queue_full"
        );
        assert_eq!(Disposition::DeadlineExceeded.label(), "deadline_exceeded");
        assert_eq!(ShedReason::Brownout.to_string(), "brownout");
    }

    #[test]
    fn only_completed_counts_as_goodput() {
        assert!(Disposition::Completed.is_goodput());
        assert!(!Disposition::DeadlineExceeded.is_goodput());
        assert!(!Disposition::Shed {
            reason: ShedReason::RateLimited,
            retry_after: None
        }
        .is_goodput());
    }

    #[test]
    fn abort_renders_its_cause() {
        let e = ColdAbort::Deadline(DeadlineExpired {
            function: FunctionId::helloworld,
            spent: SimDuration::from_millis(3),
            budget: SimDuration::from_millis(2),
        });
        let s = e.to_string();
        assert!(s.contains("deadline exceeded"), "{s}");
    }
}
