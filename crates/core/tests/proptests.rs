//! Property tests for REAP's file formats and the timeline invariants.

use guest_mem::{PageIdx, PAGE_SIZE};
use proptest::prelude::*;
use sim_core::{SimDuration, SimTime};
use sim_storage::{Disk, FileStore};
use vhive_core::{
    read_trace_file, read_trace_runs, read_ws_file, write_reap_files,
    InstanceProgram, Phase, TimedStep, Timeline,
};

proptest! {
    /// Trace/WS files round-trip arbitrary fault orders: order and
    /// contents are preserved exactly. A fault trace never names a page
    /// twice (a page faults once), and the v2 extent format *enforces*
    /// disjointness — so the generated sequences are deduplicated,
    /// keeping first-occurrence order.
    #[test]
    fn reap_files_round_trip(raw in proptest::collection::vec(0u64..65536, 0..200)) {
        let mut seen = std::collections::HashSet::new();
        let pages: Vec<u64> = raw.into_iter().filter(|&p| seen.insert(p)).collect();
        let fs = FileStore::new();
        let mem = fs.create("mem");
        // Give every referenced page distinctive contents.
        for &p in &pages {
            let mut data = vec![0u8; PAGE_SIZE];
            guest_mem::checksum::fill_deterministic(&mut data, 99, p);
            fs.write_at(mem, p * PAGE_SIZE as u64, &data).unwrap();
        }
        let trace: Vec<PageIdx> = pages.iter().map(|&p| PageIdx::new(p)).collect();
        let files = write_reap_files(&fs, "t", mem, &trace);
        prop_assert_eq!(files.pages, trace.len() as u64);
        prop_assert!(files.extents <= files.pages, "coalescing never grows");

        let trace_back = read_trace_file(&fs, files.trace_file).unwrap();
        prop_assert_eq!(&trace_back, &trace);
        // The run view expands to the same fault order.
        let runs = read_trace_runs(&fs, files.trace_file).unwrap();
        let expanded: Vec<PageIdx> = runs.iter().flat_map(|r| r.iter()).collect();
        prop_assert_eq!(&expanded, &trace);

        let ws = read_ws_file(&fs, files.ws_file).unwrap();
        prop_assert_eq!(ws.len(), trace.len());
        for (i, (page, data)) in ws.iter().enumerate() {
            prop_assert_eq!(*page, trace[i]);
            let expect = fs.read(mem, page.file_offset(), PAGE_SIZE as u64, <[u8]>::to_vec).unwrap();
            prop_assert_eq!(data, &expect);
        }
    }

    /// Corrupting any single byte of the WS header is always detected.
    #[test]
    fn ws_header_corruption_detected(byte in 0usize..8, value in 0u8..255) {
        let fs = FileStore::new();
        let mem = fs.create("mem");
        let files = write_reap_files(&fs, "t", mem, &[PageIdx::new(1)]);
        let original = fs.read(files.ws_file, byte as u64, 1, |b| b[0]).unwrap();
        prop_assume!(original != value);
        fs.write_at(files.ws_file, byte as u64, &[value]).unwrap();
        prop_assert!(read_ws_file(&fs, files.ws_file).is_err());
    }

    /// Timeline: total latency always equals the sum of phase durations,
    /// and serial CPU-only programs take exactly their compute time.
    #[test]
    fn breakdown_sums_to_latency(durations in proptest::collection::vec(1u64..10_000, 1..50)) {
        let mut steps = vec![TimedStep::Phase(Phase::Processing)];
        let mut total = SimDuration::ZERO;
        for (i, &us) in durations.iter().enumerate() {
            if i % 3 == 0 {
                steps.push(TimedStep::Phase(if i % 2 == 0 {
                    Phase::ConnRestore
                } else {
                    Phase::Processing
                }));
            }
            let d = SimDuration::from_micros(us);
            total += d;
            steps.push(TimedStep::Cpu(d));
        }
        let mut tl = Timeline::new(Disk::ssd(), 4);
        let r = tl
            .run(vec![InstanceProgram { arrival: SimTime::ZERO, steps }])
            .remove(0);
        prop_assert_eq!(r.latency(), total);
        prop_assert_eq!(r.breakdown.total(), total);
    }

    /// Timeline with N identical disk-free programs on C cores finishes in
    /// ceil(N/C) * T — the CPU pool is work-conserving.
    #[test]
    fn cpu_pool_is_work_conserving(n in 1usize..20, cores in 1usize..8, work_us in 100u64..5000) {
        let d = SimDuration::from_micros(work_us);
        let programs: Vec<InstanceProgram> = (0..n)
            .map(|_| InstanceProgram {
                arrival: SimTime::ZERO,
                steps: vec![TimedStep::Phase(Phase::Processing), TimedStep::Cpu(d)],
            })
            .collect();
        let mut tl = Timeline::new(Disk::ssd(), cores);
        let results = tl.run(programs);
        let makespan = results.iter().map(|r| r.end).max().unwrap();
        let waves = n.div_ceil(cores) as u64;
        prop_assert_eq!(makespan, SimTime::ZERO + d * waves);
    }

    /// Fault reads through the timeline are monotone: a later-arriving
    /// instance doing equivalent *independent* work (distinct pages, so no
    /// page-cache sharing) never finishes before an earlier one.
    #[test]
    fn arrival_order_preserved_for_identical_work(gap_us in 0u64..10_000) {
        let fs = FileStore::new();
        let file = fs.create("mem");
        let mk = |arrival: SimTime, page: u64| InstanceProgram {
            arrival,
            steps: vec![
                TimedStep::Phase(Phase::Processing),
                TimedStep::FaultRead { file, page, file_pages: 65536 },
                TimedStep::Cpu(SimDuration::from_micros(100)),
            ],
        };
        let mut tl = Timeline::new(Disk::ssd(), 2);
        let results = tl.run(vec![
            mk(SimTime::ZERO, 0),
            mk(SimTime::ZERO + SimDuration::from_micros(gap_us), 10_000),
        ]);
        prop_assert!(results[1].end >= results[0].end);
    }
}

use functionbench::FunctionId;
use vhive_core::{ColdPolicy, Orchestrator};

proptest! {
    #![proptest_config(proptest::test_runner::ProptestConfig { cases: 3 })]

    /// The snapshot frame cache only removes host-side byte copies: with
    /// the cache on (default), off, and on-but-budget-starved, record +
    /// every `ColdPolicy` variant + a repeat REAP cold start render
    /// byte-identical `InvocationOutcome`s — latencies, breakdowns,
    /// fault/prefetch/EEXIST counters, verified pages, touched sets,
    /// disk stats, all of it.
    #[test]
    fn frame_cache_never_changes_outcomes(seed in 0u64..10_000) {
        let f = FunctionId::helloworld;
        let run_with = |cache_on: bool, budget: Option<u64>| {
            let mut o = Orchestrator::new(seed);
            o.set_frame_cache_enabled(cache_on);
            o.set_frame_cache_budget(budget);
            o.register(f);
            let mut out = format!("{:?}", o.invoke_record(f));
            for policy in ColdPolicy::ALL {
                out.push_str(&format!("\n{:?}", o.invoke_cold(f, policy)));
            }
            // Repeat REAP cold start: the all-hits path must still match.
            out.push_str(&format!("\n{:?}", o.invoke_cold(f, ColdPolicy::Reap)));
            let st = o.frame_cache_stats();
            if cache_on && budget.is_none() {
                assert!(st.hits > 0, "repeat invocations must hit the cache");
            }
            if let Some(b) = budget {
                assert!(st.bytes <= b, "cache must respect its byte budget");
                if cache_on {
                    assert!(st.evicted > 0, "a starved budget must evict");
                }
            }
            out
        };
        let reference = run_with(false, None);
        prop_assert_eq!(run_with(true, None), reference.clone());
        // A budget far below the working set forces constant eviction;
        // outcomes must still be byte-identical.
        prop_assert_eq!(run_with(true, Some(64 * 1024)), reference);
    }
}

proptest! {
    #![proptest_config(proptest::test_runner::ProptestConfig { cases: 3 })]

    /// The deadline layer is invisible when off: `invoke_cold_within`
    /// with no deadline — and with a generous one that can never expire —
    /// renders byte-identical to the legacy `invoke_cold` path for every
    /// policy, and always classifies `Completed`.
    #[test]
    fn deadline_off_never_changes_outcomes(seed in 0u64..10_000) {
        use sim_core::Deadline;
        use vhive_core::Disposition;
        let f = FunctionId::helloworld;
        let run = |deadline: Option<SimDuration>| {
            let mut o = Orchestrator::new(seed);
            o.register(f);
            o.invoke_record(f);
            let mut out = String::new();
            for policy in ColdPolicy::ALL {
                let (disposition, outcome) =
                    o.invoke_cold_within(f, policy, deadline.map(|b| Deadline::new(SimTime::ZERO, b)));
                assert_eq!(disposition, Disposition::Completed);
                out.push_str(&format!("\n{:?}", outcome.expect("completed")));
            }
            out
        };
        let mut legacy = Orchestrator::new(seed);
        legacy.register(f);
        legacy.invoke_record(f);
        let mut reference = String::new();
        for policy in ColdPolicy::ALL {
            reference.push_str(&format!("\n{:?}", legacy.invoke_cold(f, policy)));
        }
        prop_assert_eq!(run(None), reference.clone());
        prop_assert_eq!(run(Some(SimDuration::from_secs(3600))), reference);
    }
}
