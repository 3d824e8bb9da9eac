//! Virtual-time deadlines.
//!
//! Under overload the cold-start floor only matters if the request
//! completes inside its latency budget — a request served after its
//! deadline is wasted work twice over (it burned a lane *and* the
//! caller already gave up). A [`Deadline`] is the virtual-time budget a
//! request arrives with: an arrival instant plus a relative budget,
//! giving an absolute expiry instant on the simulation clock.
//!
//! Deadlines compose with every source of virtual latency in the
//! reproduction: simulated cold-start work, injected
//! `FaultKind::Delay` spikes, and exponential retry backoff all consume
//! the same budget, so a transient fault storm can legitimately push a
//! request past its deadline (see `core/tests/failure_injection.rs`).

use serde::{Deserialize, Serialize};

use crate::time::{SimDuration, SimTime};

/// A virtual-time latency budget attached to one request.
///
/// # Example
///
/// ```
/// use sim_core::{Deadline, SimDuration, SimTime};
///
/// let d = Deadline::new(SimTime::ZERO, SimDuration::from_millis(100));
/// assert!(!d.expired_at(SimTime::from_nanos(99_000_000)));
/// assert!(d.expired_at(SimTime::from_nanos(100_000_001)));
/// assert_eq!(d.remaining(SimTime::ZERO), SimDuration::from_millis(100));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Deadline {
    /// Instant the request arrived (budget starts ticking here).
    pub arrival: SimTime,
    /// Relative virtual-time budget.
    pub budget: SimDuration,
}

impl Deadline {
    /// Creates a deadline for a request arriving at `arrival` with the
    /// given relative budget.
    pub const fn new(arrival: SimTime, budget: SimDuration) -> Self {
        Deadline { arrival, budget }
    }

    /// Absolute expiry instant (saturating).
    pub fn expires_at(self) -> SimTime {
        self.arrival + self.budget
    }

    /// Budget left at `now`; zero once expired.
    pub fn remaining(self, now: SimTime) -> SimDuration {
        self.expires_at().duration_since(now)
    }

    /// True if the deadline has passed at `now` (completing *exactly*
    /// at the expiry instant still counts as on time).
    pub fn expired_at(self, now: SimTime) -> bool {
        now > self.expires_at()
    }
}

/// A virtual-time token bucket: the admission-control rate limiter.
///
/// The bucket holds up to `burst` tokens and refills continuously at
/// `rate_per_sec` as virtual time advances. Each admitted request takes
/// one token; a request arriving at an empty bucket is rate-limited.
/// All state advances on request *arrival* instants, so admission
/// decisions are a pure function of the arrival stream — two runs over
/// the same stream shed the same set.
///
/// # Example
///
/// ```
/// use sim_core::{SimDuration, SimTime, TokenBucket};
///
/// let mut b = TokenBucket::new(2.0, 1000.0); // burst 2, 1000 req/s
/// let t0 = SimTime::ZERO;
/// assert!(b.try_take(t0));
/// assert!(b.try_take(t0));
/// assert!(!b.try_take(t0), "burst exhausted");
/// // 1 ms later one token has refilled.
/// assert!(b.try_take(t0 + SimDuration::from_millis(1)));
/// ```
#[derive(Debug, Clone)]
pub struct TokenBucket {
    /// Maximum tokens the bucket holds.
    burst: f64,
    /// Refill rate in tokens per virtual second.
    rate_per_sec: f64,
    /// Tokens available at `updated`.
    tokens: f64,
    /// Instant of the last refill.
    updated: SimTime,
}

impl TokenBucket {
    /// Creates a full bucket.
    ///
    /// # Panics
    ///
    /// Panics unless `burst >= 1` and `rate_per_sec > 0` (both finite).
    pub fn new(burst: f64, rate_per_sec: f64) -> Self {
        assert!(
            burst.is_finite() && burst >= 1.0,
            "token bucket burst must be >= 1, got {burst}"
        );
        assert!(
            rate_per_sec.is_finite() && rate_per_sec > 0.0,
            "token bucket rate must be positive, got {rate_per_sec}"
        );
        TokenBucket {
            burst,
            rate_per_sec,
            tokens: burst,
            updated: SimTime::ZERO,
        }
    }

    /// Refills for the elapsed virtual time and takes one token if
    /// available. Returns false (rate-limited) on an empty bucket.
    ///
    /// Arrivals must be fed in non-decreasing time order; an
    /// out-of-order arrival refills nothing (saturating elapsed time)
    /// rather than running the clock backwards.
    pub fn try_take(&mut self, now: SimTime) -> bool {
        let elapsed = now.duration_since(self.updated);
        self.updated = self.updated.max(now);
        self.tokens = (self.tokens + elapsed.as_secs_f64() * self.rate_per_sec).min(self.burst);
        // An f64 epsilon below 1.0 must not admit: compare with a small
        // slack so "exactly refilled to 1 token" admits deterministically.
        if self.tokens + 1e-9 >= 1.0 {
            self.tokens -= 1.0;
            true
        } else {
            false
        }
    }

    /// Tokens available at the last arrival (for reports).
    pub fn level(&self) -> f64 {
        self.tokens
    }

    /// Virtual time until the bucket next holds a full token at the
    /// current refill rate — the `retry_after` hint handed to a
    /// rate-limited request. Zero if a token is already available.
    pub fn eta_next(&self) -> SimDuration {
        if self.tokens + 1e-9 >= 1.0 {
            SimDuration::ZERO
        } else {
            SimDuration::from_secs_f64((1.0 - self.tokens) / self.rate_per_sec)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expiry_is_exclusive_of_the_boundary() {
        let d = Deadline::new(SimTime::from_nanos(10), SimDuration::from_nanos(5));
        assert_eq!(d.expires_at(), SimTime::from_nanos(15));
        assert!(!d.expired_at(SimTime::from_nanos(15)), "on time at expiry");
        assert!(d.expired_at(SimTime::from_nanos(16)));
    }

    #[test]
    fn remaining_saturates_to_zero() {
        let d = Deadline::new(SimTime::ZERO, SimDuration::from_micros(1));
        assert_eq!(d.remaining(SimTime::from_nanos(500)).as_nanos(), 500);
        assert_eq!(d.remaining(SimTime::from_nanos(2_000)), SimDuration::ZERO);
    }

    #[test]
    fn zero_budget_expires_immediately_after_arrival() {
        let d = Deadline::new(SimTime::from_nanos(7), SimDuration::ZERO);
        assert!(!d.expired_at(SimTime::from_nanos(7)));
        assert!(d.expired_at(SimTime::from_nanos(8)));
    }

    #[test]
    fn bucket_refills_with_virtual_time() {
        let mut b = TokenBucket::new(1.0, 10.0); // one token per 100 ms
        let t0 = SimTime::ZERO;
        assert!(b.try_take(t0));
        assert!(!b.try_take(t0 + SimDuration::from_millis(50)));
        assert!(b.try_take(t0 + SimDuration::from_millis(150)));
        assert!(b.level() < 1.0);
    }

    #[test]
    fn bucket_caps_at_burst() {
        let mut b = TokenBucket::new(3.0, 1000.0);
        // A long idle gap refills to burst, not beyond.
        let late = SimTime::ZERO + SimDuration::from_secs(60);
        assert!(b.try_take(late));
        assert!(b.try_take(late));
        assert!(b.try_take(late));
        assert!(!b.try_take(late), "burst is the hard cap");
    }

    #[test]
    fn out_of_order_arrival_does_not_refill() {
        let mut b = TokenBucket::new(1.0, 1000.0);
        assert!(b.try_take(SimTime::from_nanos(1_000_000)));
        // Earlier instant: elapsed saturates to zero, no refill.
        assert!(!b.try_take(SimTime::ZERO));
    }

    #[test]
    fn eta_next_predicts_the_refill() {
        let mut b = TokenBucket::new(1.0, 10.0); // one token per 100 ms
        assert_eq!(b.eta_next(), SimDuration::ZERO, "full bucket: no wait");
        assert!(b.try_take(SimTime::ZERO));
        let eta = b.eta_next();
        assert!(eta > SimDuration::from_millis(99) && eta <= SimDuration::from_millis(100));
        // Waiting exactly the hinted time admits the retry.
        assert!(b.try_take(SimTime::ZERO + eta));
    }

    #[test]
    #[should_panic(expected = "burst must be >= 1")]
    fn zero_burst_rejected() {
        let _ = TokenBucket::new(0.0, 1.0);
    }
}
