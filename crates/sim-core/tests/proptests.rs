//! Property-based tests for the DES substrate invariants.

use proptest::prelude::*;
use sim_core::hash::{fill_deterministic, fill_pages};
use sim_core::{DetRng, EventQueue, MultiServer, OnlineStats, Percentiles, SimDuration, SimTime};

proptest! {
    /// Events always pop in non-decreasing time order, FIFO among ties.
    #[test]
    fn event_queue_is_time_then_fifo_ordered(times in proptest::collection::vec(0u64..1000, 1..200)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.push(SimTime::from_nanos(t), (t, i));
        }
        let mut prev: Option<(SimTime, usize)> = None;
        while let Some((t, (orig, seq))) = q.pop() {
            prop_assert_eq!(t.as_nanos(), orig);
            if let Some((pt, pseq)) = prev {
                prop_assert!(t >= pt);
                if t == pt {
                    prop_assert!(seq > pseq, "FIFO violated among equal timestamps");
                }
            }
            prev = Some((t, seq));
        }
        prop_assert!(q.is_empty());
    }

    /// A k-server resource finishes no job before its service time and no
    /// batch faster than its total work spread over every server.
    #[test]
    fn multiserver_conserves_work(
        servers in 1usize..8,
        jobs in proptest::collection::vec((0u64..500, 1u64..200), 1..100),
    ) {
        let mut r = MultiServer::new("r", servers);
        // Submit in non-decreasing time order as the engine would.
        let mut jobs = jobs;
        jobs.sort_by_key(|&(t, _)| t);
        let mut total_service = SimDuration::ZERO;
        let mut completions = Vec::new();
        for &(t, s) in &jobs {
            let now = SimTime::from_nanos(t);
            let service = SimDuration::from_micros(s);
            total_service += service;
            let done = r.submit(now, service);
            prop_assert!(done >= now + service, "completion before service finished");
            completions.push(done);
        }
        let last = completions.iter().max().copied().unwrap();
        // Makespan lower bound: total work cannot finish faster than
        // total_service spread over `servers` servers.
        let first_submit = SimTime::from_nanos(jobs[0].0);
        let lower = first_submit + total_service / servers as u64;
        // Allow rounding of integer division.
        prop_assert!(last + SimDuration::from_nanos(1) >= lower);
    }

    /// With one server, completions are strictly FIFO.
    #[test]
    fn single_server_fifo(jobs in proptest::collection::vec((0u64..500, 1u64..100), 2..50)) {
        let mut jobs = jobs;
        jobs.sort_by_key(|&(t, _)| t);
        let mut r = MultiServer::new("r", 1);
        let mut prev_done: Option<SimTime> = None;
        for &(t, s) in &jobs {
            let done = r.submit(SimTime::from_nanos(t), SimDuration::from_micros(s));
            if let Some(p) = prev_done {
                prop_assert!(done > p, "single server must serialize");
            }
            prev_done = Some(done);
        }
    }

    /// Percentiles are monotone in p and bounded by min/max.
    #[test]
    fn percentiles_monotone(values in proptest::collection::vec(-1e6f64..1e6, 1..300)) {
        let mut p: Percentiles = values.iter().copied().collect();
        let lo = p.percentile(0.0).unwrap();
        let hi = p.percentile(100.0).unwrap();
        let min = values.iter().copied().fold(f64::INFINITY, f64::min);
        let max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        prop_assert_eq!(lo, min);
        prop_assert_eq!(hi, max);
        let mut prev = lo;
        for q in [10.0, 25.0, 50.0, 75.0, 90.0, 99.0] {
            let v = p.percentile(q).unwrap();
            prop_assert!(v >= prev);
            prev = v;
        }
    }

    /// Welford merge is equivalent to sequential accumulation.
    #[test]
    fn online_stats_merge_consistent(
        a in proptest::collection::vec(-1e3f64..1e3, 0..100),
        b in proptest::collection::vec(-1e3f64..1e3, 0..100),
    ) {
        let seq: OnlineStats = a.iter().chain(b.iter()).copied().collect();
        let mut merged: OnlineStats = a.iter().copied().collect();
        merged.merge(&b.iter().copied().collect());
        prop_assert_eq!(merged.count(), seq.count());
        if seq.count() > 0 {
            prop_assert!((merged.mean() - seq.mean()).abs() < 1e-6);
            prop_assert!((merged.variance() - seq.variance()).abs() < 1e-4);
        }
    }

    /// RNG bounded generation respects bounds for arbitrary seeds.
    #[test]
    fn rng_bounds(seed in any::<u64>(), bound in 1u64..1_000_000) {
        let mut r = DetRng::new(seed);
        for _ in 0..100 {
            prop_assert!(r.gen_range(bound) < bound);
        }
    }

    /// Shuffle always yields a permutation.
    #[test]
    fn shuffle_permutes(seed in any::<u64>(), n in 0usize..200) {
        let mut r = DetRng::new(seed);
        let mut v: Vec<usize> = (0..n).collect();
        r.shuffle(&mut v);
        let mut s = v.clone();
        s.sort_unstable();
        prop_assert_eq!(s, (0..n).collect::<Vec<_>>());
    }

    /// The page-batched fill appends exactly the per-page fill's bytes —
    /// across the four-page groups and the tail — whether the `Vec` grows
    /// from empty or writes over poisoned spare capacity, and leaves what
    /// the `Vec` already held alone.
    #[test]
    fn fill_pages_matches_per_page_fill(
        label in any::<u64>(),
        first in any::<u64>(),
        pages in 0usize..10,
        kept in 0usize..64,
    ) {
        const PAGE: usize = 4096;
        let mut want = Vec::with_capacity(pages * PAGE);
        for i in 0..pages {
            let mut page = [0u8; PAGE];
            fill_deterministic(&mut page, label, first.wrapping_add(i as u64));
            want.extend_from_slice(&page);
        }
        let mut fresh = Vec::new();
        fill_pages(&mut fresh, PAGE, label, first, pages);
        prop_assert!(fresh == want);
        // A recycled buffer: every byte of its capacity poisoned, `kept`
        // of them still live.
        let mut poisoned = vec![0xEEu8; kept + pages * PAGE + 13];
        poisoned.truncate(kept);
        fill_pages(&mut poisoned, PAGE, label, first, pages);
        prop_assert!(poisoned[..kept].iter().all(|&b| b == 0xEE));
        prop_assert!(poisoned[kept..] == want[..]);
    }
}
