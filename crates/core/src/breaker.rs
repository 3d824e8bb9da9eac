//! Per-function circuit breakers.
//!
//! A corrupt-artifact storm makes every cold start of the affected
//! function quarantine, fall back to Vanilla and flag a re-record —
//! correct, but each request still burns a full restore before failing
//! over. The breaker cuts that loss off: after
//! [`BreakerPolicy::failure_threshold`] *consecutive* failures the
//! function trips `Closed → Open` and new requests shed immediately
//! with a retry hint. After a virtual-time
//! [`cooldown`](BreakerPolicy::cooldown) the breaker admits a single
//! `HalfOpen` probe: a success closes it, another failure re-opens it
//! for a fresh cooldown.
//!
//! All breaker time is *virtual* (request arrival instants), so trip
//! and recovery points are a pure function of the workload — two runs
//! over the same arrival stream shed the same set.

use sim_core::{SimDuration, SimTime};

/// Breaker state machine position.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Healthy: requests flow, consecutive failures are counted.
    Closed,
    /// Tripped: requests shed until the cooldown elapses.
    Open,
    /// Cooldown elapsed: one probe request is in flight; its result
    /// decides between `Closed` and another `Open` period.
    HalfOpen,
}

/// When a function's breaker trips and how long it stays open.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BreakerPolicy {
    /// Consecutive failures that trip `Closed → Open`.
    pub failure_threshold: u32,
    /// Virtual time the breaker stays `Open` before admitting a probe.
    pub cooldown: SimDuration,
}

impl Default for BreakerPolicy {
    fn default() -> Self {
        BreakerPolicy {
            failure_threshold: 3,
            cooldown: SimDuration::from_secs(1),
        }
    }
}

/// One function's breaker. Driven by
/// [`Orchestrator::prepare`](crate::Orchestrator::prepare):
/// [`admit`](Self::admit) before work,
/// [`record_success`](Self::record_success) /
/// [`record_failure`](Self::record_failure) after.
#[derive(Debug, Clone)]
pub struct CircuitBreaker {
    policy: BreakerPolicy,
    state: BreakerState,
    consecutive_failures: u32,
    /// Instant of the failure that (re-)opened the breaker.
    opened_at: SimTime,
    trips: u64,
}

impl CircuitBreaker {
    /// A closed breaker under `policy`.
    pub fn new(policy: BreakerPolicy) -> Self {
        CircuitBreaker {
            policy,
            state: BreakerState::Closed,
            consecutive_failures: 0,
            opened_at: SimTime::ZERO,
            trips: 0,
        }
    }

    /// Asks the breaker whether a request arriving at `now` may proceed.
    /// `Err(retry_after)` sheds the request with the remaining cooldown
    /// as its retry hint; an elapsed cooldown moves `Open → HalfOpen`
    /// and admits the request as the probe.
    pub fn admit(&mut self, now: SimTime) -> Result<(), SimDuration> {
        match self.state {
            BreakerState::Closed | BreakerState::HalfOpen => Ok(()),
            BreakerState::Open => {
                let reopens = self.opened_at + self.policy.cooldown;
                if now >= reopens {
                    self.state = BreakerState::HalfOpen;
                    Ok(())
                } else {
                    Err(reopens.duration_since(now))
                }
            }
        }
    }

    /// Records a completed request: resets the failure run and closes a
    /// half-open breaker.
    pub fn record_success(&mut self) {
        self.consecutive_failures = 0;
        self.state = BreakerState::Closed;
    }

    /// Records a failed request at `now`. Returns true if this failure
    /// tripped the breaker open (callers bump their trip counters on
    /// that edge, not per failure).
    pub fn record_failure(&mut self, now: SimTime) -> bool {
        self.consecutive_failures = self.consecutive_failures.saturating_add(1);
        let trip = match self.state {
            BreakerState::Closed => self.consecutive_failures >= self.policy.failure_threshold,
            // The probe failed: straight back to Open for a new cooldown.
            BreakerState::HalfOpen => true,
            BreakerState::Open => false,
        };
        if trip {
            self.state = BreakerState::Open;
            self.opened_at = now;
            self.trips += 1;
        }
        trip
    }

    /// Current state (without the time-based Open → HalfOpen promotion —
    /// that happens in [`admit`](Self::admit)).
    pub fn state(&self) -> BreakerState {
        self.state
    }

    /// How many times this breaker has tripped open.
    pub fn trips(&self) -> u64 {
        self.trips
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn policy() -> BreakerPolicy {
        BreakerPolicy {
            failure_threshold: 3,
            cooldown: SimDuration::from_millis(10),
        }
    }

    #[test]
    fn trips_after_k_consecutive_failures() {
        let mut b = CircuitBreaker::new(policy());
        let t = SimTime::ZERO;
        assert!(!b.record_failure(t));
        assert!(!b.record_failure(t));
        assert_eq!(b.state(), BreakerState::Closed);
        assert!(b.record_failure(t), "third failure trips");
        assert_eq!(b.state(), BreakerState::Open);
        assert_eq!(b.trips(), 1);
        let hint = b.admit(t).unwrap_err();
        assert_eq!(hint, SimDuration::from_millis(10));
    }

    #[test]
    fn success_resets_the_failure_run() {
        let mut b = CircuitBreaker::new(policy());
        let t = SimTime::ZERO;
        b.record_failure(t);
        b.record_failure(t);
        b.record_success();
        b.record_failure(t);
        b.record_failure(t);
        assert_eq!(b.state(), BreakerState::Closed, "run was reset");
    }

    #[test]
    fn half_open_probe_closes_on_success() {
        let mut b = CircuitBreaker::new(policy());
        let t = SimTime::ZERO;
        for _ in 0..3 {
            b.record_failure(t);
        }
        let after = t + SimDuration::from_millis(10);
        assert!(b.admit(after).is_ok(), "cooldown elapsed admits the probe");
        assert_eq!(b.state(), BreakerState::HalfOpen);
        b.record_success();
        assert_eq!(b.state(), BreakerState::Closed);
    }

    #[test]
    fn half_open_probe_failure_reopens_with_fresh_cooldown() {
        let mut b = CircuitBreaker::new(policy());
        let t = SimTime::ZERO;
        for _ in 0..3 {
            b.record_failure(t);
        }
        let probe_at = t + SimDuration::from_millis(10);
        assert!(b.admit(probe_at).is_ok());
        assert!(b.record_failure(probe_at), "probe failure re-trips");
        assert_eq!(b.trips(), 2);
        // The cooldown restarts at the probe failure instant.
        let hint = b.admit(probe_at).unwrap_err();
        assert_eq!(hint, SimDuration::from_millis(10));
        assert!(b.admit(probe_at + SimDuration::from_millis(10)).is_ok());
    }

    #[test]
    fn open_breaker_reports_remaining_cooldown() {
        let mut b = CircuitBreaker::new(policy());
        let t = SimTime::ZERO + SimDuration::from_millis(5);
        for _ in 0..3 {
            b.record_failure(t);
        }
        let hint = b.admit(t + SimDuration::from_millis(4)).unwrap_err();
        assert_eq!(hint, SimDuration::from_millis(6));
    }
}
