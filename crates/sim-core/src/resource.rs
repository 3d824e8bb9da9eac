//! Multi-server FIFO queueing resources.
//!
//! The reproduction models two kinds of contended hardware:
//!
//! * the SSD/HDD — a device with `k` internal channels (the paper's SSD
//!   reaches 360 MB/s with 16 outstanding 4 KB requests because of internal
//!   parallelism, §5.2.3), and
//! * the host CPU pool — 48 logical cores on the paper's testbed (§6.1).
//!
//! Both are [`MultiServer`]s: `k` servers, one FIFO queue. Work is submitted
//! at the current simulation time with a service duration and the resource
//! answers *when* that work completes.
//! [`TokenPool`] is the same machinery exposed as acquire/release for
//! bounded-concurrency sections (e.g. the 16-goroutine Parallel-PF fetcher).

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::time::{SimDuration, SimTime};

/// A `k`-server FIFO queueing resource.
///
/// # Example
///
/// ```
/// use sim_core::{MultiServer, SimDuration, SimTime};
///
/// let mut disk = MultiServer::new("ssd", 2);
/// let t0 = SimTime::ZERO;
/// let d = SimDuration::from_micros(100);
/// let c1 = disk.submit(t0, d);
/// let c2 = disk.submit(t0, d);
/// let c3 = disk.submit(t0, d); // queues behind the first two
/// assert_eq!(c1, t0 + d);
/// assert_eq!(c2, t0 + d);
/// assert_eq!(c3, t0 + d + d);
/// ```
#[derive(Debug, Clone)]
pub struct MultiServer {
    name: &'static str,
    /// Earliest instant each server becomes free.
    free_at: BinaryHeap<Reverse<SimTime>>,
    last_submit: SimTime,
}

impl MultiServer {
    /// Creates a resource with `servers` parallel servers.
    ///
    /// # Panics
    ///
    /// Panics if `servers == 0`.
    pub fn new(name: &'static str, servers: usize) -> Self {
        assert!(servers > 0, "resource {name} needs at least one server");
        let mut free_at = BinaryHeap::with_capacity(servers);
        for _ in 0..servers {
            free_at.push(Reverse(SimTime::ZERO));
        }
        MultiServer {
            name,
            free_at,
            last_submit: SimTime::ZERO,
        }
    }

    /// Submits one unit of work at `now` with the given service time and
    /// returns its completion instant.
    ///
    /// Submissions must be made in non-decreasing `now` order (the global
    /// event loop guarantees this); violating it would break FIFO fairness,
    /// so it is checked with a debug assertion.
    pub fn submit(&mut self, now: SimTime, service: SimDuration) -> SimTime {
        debug_assert!(
            now >= self.last_submit,
            "{}: submissions must be time-ordered ({now} < {})",
            self.name,
            self.last_submit,
        );
        self.last_submit = now;
        let Reverse(free) = self.free_at.pop().expect("at least one server");
        let done = free.max(now) + service;
        self.free_at.push(Reverse(done));
        done
    }
}

/// Bounded-concurrency token pool with event-time semantics.
///
/// Unlike [`MultiServer`], the hold duration is not known at acquisition:
/// the caller first asks when a token becomes available, then releases it at
/// an instant it computes (e.g. when a dependent disk read completes).
///
/// # Example
///
/// ```
/// use sim_core::{SimDuration, SimTime, TokenPool};
///
/// let mut pool = TokenPool::new(1);
/// let t0 = SimTime::ZERO;
/// let start1 = pool.acquire(t0);
/// pool.release(start1 + SimDuration::from_micros(10));
/// let start2 = pool.acquire(t0);
/// assert_eq!(start2, t0 + SimDuration::from_micros(10));
/// ```
#[derive(Debug, Clone)]
pub struct TokenPool {
    free_at: BinaryHeap<Reverse<SimTime>>,
    capacity: usize,
}

impl TokenPool {
    /// Creates a pool with `capacity` tokens, all free at time zero.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "token pool needs at least one token");
        let mut free_at = BinaryHeap::with_capacity(capacity);
        for _ in 0..capacity {
            free_at.push(Reverse(SimTime::ZERO));
        }
        TokenPool { free_at, capacity }
    }

    /// Takes the earliest-available token; returns the instant the caller
    /// holds it (>= `now`). Must be paired with [`release`](Self::release).
    pub fn acquire(&mut self, now: SimTime) -> SimTime {
        let Reverse(free) = self.free_at.pop().expect("pool never empty on acquire");
        free.max(now)
    }

    /// Returns a token to the pool at instant `at`.
    ///
    /// # Panics
    ///
    /// Panics if more tokens are released than were acquired.
    pub fn release(&mut self, at: SimTime) {
        assert!(
            self.free_at.len() < self.capacity,
            "token released without matching acquire"
        );
        self.free_at.push(Reverse(at));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn us(n: u64) -> SimDuration {
        SimDuration::from_micros(n)
    }

    #[test]
    fn single_server_serializes() {
        let mut r = MultiServer::new("d", 1);
        let t0 = SimTime::ZERO;
        let c1 = r.submit(t0, us(10));
        let c2 = r.submit(t0, us(10));
        let c3 = r.submit(c2, us(10));
        assert_eq!(c1, t0 + us(10));
        assert_eq!(c2, t0 + us(20));
        assert_eq!(c3, t0 + us(30));
    }

    #[test]
    fn k_servers_run_in_parallel() {
        let mut r = MultiServer::new("d", 4);
        let t0 = SimTime::ZERO;
        let completions: Vec<SimTime> = (0..8).map(|_| r.submit(t0, us(100))).collect();
        assert!(completions[..4].iter().all(|&c| c == t0 + us(100)));
        assert!(completions[4..].iter().all(|&c| c == t0 + us(200)));
    }

    #[test]
    fn idle_gap_resets_queue() {
        let mut r = MultiServer::new("d", 1);
        let c1 = r.submit(SimTime::ZERO, us(10));
        // Submit long after the first finished: no queueing.
        let late = c1 + us(100);
        let c2 = r.submit(late, us(10));
        assert_eq!(c2, late + us(10));
    }

    #[test]
    fn token_pool_bounds_concurrency() {
        let mut p = TokenPool::new(2);
        let t0 = SimTime::ZERO;
        let a = p.acquire(t0);
        let b = p.acquire(t0);
        assert_eq!(a, t0);
        assert_eq!(b, t0);
        p.release(t0 + us(10));
        p.release(t0 + us(20));
        let c = p.acquire(t0);
        assert_eq!(c, t0 + us(10), "third waits for earliest release");
    }

    #[test]
    #[should_panic(expected = "without matching acquire")]
    fn token_pool_overrelease_panics() {
        let mut p = TokenPool::new(1);
        p.release(SimTime::ZERO);
    }

    #[test]
    #[should_panic(expected = "at least one server")]
    fn zero_servers_rejected() {
        let _ = MultiServer::new("bad", 0);
    }
}
