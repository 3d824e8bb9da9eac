//! The fleet-metrics invariance and equivalence suite:
//!
//! * **on/off invariance** — attaching a [`MetricsRegistry`] must never
//!   move a simulated outcome: `InvocationOutcome` debug renderings are
//!   byte-identical metrics on vs. off, across all four [`ColdPolicy`]
//!   variants (plus record, warm and concurrent passes) and shard counts
//!   1/2/3 — and with metrics on, the registry actually observed the
//!   fleet (counters nonzero, exposition populated);
//! * **rollup/exact equivalence** — windowed percentiles merged from
//!   log-bucketed rollup histograms match the exact nearest-rank
//!   percentiles of the raw spans within the pinned bucket error bound
//!   (`exact <= est <= exact + exact/32`), for real invocations across
//!   every cold policy and shard counts 1/2/3, and for synthetic streams
//!   over arbitrary sub-ranges of windows;
//! * **no-rescan acceptance** — a P99-over-window query against a
//!   1M-span store is answered from rollup batches alone, pinned by
//!   read accounting on the backing store.

use std::collections::BTreeMap;

use functionbench::FunctionId;
use proptest::prelude::*;
use sim_core::MetricsRegistry;
use sim_storage::FileStore;
use vhive_cluster::{ClusterOrchestrator, ColdRequest};
use vhive_core::ColdPolicy;
use vhive_telemetry::{
    build_rollups, latency_report, scan, synthesize, window_report, TelemetrySink,
    DEFAULT_WINDOW_NS,
};

const FUNCS: [FunctionId; 2] = [FunctionId::helloworld, FunctionId::pyaes];

fn prepared_cluster(
    seed: u64,
    shards: usize,
    metrics: bool,
) -> (ClusterOrchestrator, Option<MetricsRegistry>) {
    let mut c = ClusterOrchestrator::new(seed, shards);
    let registry = metrics.then(MetricsRegistry::new);
    c.set_metrics(registry.clone());
    for f in FUNCS {
        c.register(f);
        c.invoke_record(f);
    }
    (c, registry)
}

/// The full invocation mix: record (in setup), every cold policy, a warm
/// pass, and a concurrent batch over all policies.
fn run_mix(c: &mut ClusterOrchestrator) -> String {
    let mut dump = String::new();
    for f in FUNCS {
        for policy in ColdPolicy::ALL {
            dump.push_str(&format!("{:?}\n", c.invoke_cold(f, policy)));
        }
        dump.push_str(&format!("{:?}\n", c.invoke_warm(f)));
    }
    let reqs: Vec<ColdRequest> = FUNCS
        .iter()
        .flat_map(|&f| ColdPolicy::ALL.into_iter().map(move |p| ColdRequest::shared(f, p)))
        .collect();
    dump.push_str(&format!("{:?}\n", c.invoke_concurrent(&reqs).outcomes));
    dump
}

/// The pinned merged-percentile error bound: a log-bucketed estimate
/// reports its bucket's upper bound, at most 1/32 above the exact value.
fn assert_within_bucket_bound(exact: u64, est: u64, what: &str) {
    assert!(
        est >= exact && est <= exact + exact / 32,
        "{what}: estimate {est} outside [exact, exact + exact/32] for exact {exact}"
    );
}

proptest! {
    #![proptest_config(proptest::test_runner::ProptestConfig { cases: 3 })]

    /// Metrics on vs. off: byte-identical outcome renderings at shard
    /// counts 1, 2 and 3 — the registry-off path is provably free of
    /// behavioural cost, and the registry-on path actually measured the
    /// fleet.
    #[test]
    fn outcomes_invariant_metrics_on_off(seed in 0u64..10_000) {
        for shards in [1usize, 2, 3] {
            let off = {
                let (mut c, _) = prepared_cluster(seed, shards, false);
                run_mix(&mut c)
            };
            let (mut c, registry) = prepared_cluster(seed, shards, true);
            let on = run_mix(&mut c);
            prop_assert_eq!(&on, &off, "metrics must not move outcomes (shards={})", shards);
            let registry = registry.unwrap();
            // 2 records + 2x(4 cold + 1 warm) + 8 concurrent = 20.
            let exposed = registry.expose();
            for series in [
                "invocation_latency_ns_count{policy=\"Record\"}",
                "invocation_latency_ns_count{policy=\"Reap\"}",
                "invocation_latency_ns_count{policy=\"Warm\"}",
                "phase_ns_count{phase=\"processing\",policy=\"Vanilla\"}",
                "guest_uffd_fault_serves_total",
                "storage_read_bytes_total",
                "storage_write_bytes_total",
                "frame_cache_request_misses_total",
            ] {
                prop_assert!(
                    exposed.contains(series),
                    "series {} missing from exposition (shards={}):\n{}",
                    series, shards, exposed
                );
            }
            prop_assert!(registry.counter("guest_uffd_fault_serves_total") > 0);
            prop_assert!(registry.counter("storage_read_bytes_total") > 0);
        }
    }

    /// Rollup/exact equivalence on the simulator's own spans: real
    /// invocations across all four cold policies at shard counts 1, 2
    /// and 3; the merged windowed report agrees with the exact raw-span
    /// report — count/min/max exactly, percentiles within the pinned
    /// bucket bound.
    #[test]
    fn rollup_percentiles_match_exact_report(seed in 0u64..10_000) {
        for shards in [1usize, 2, 3] {
            let (mut c, _) = prepared_cluster(seed, shards, false);
            let store = FileStore::new();
            let sink = TelemetrySink::with_batch_rows(store.clone(), 8);
            c.set_telemetry(Some(sink.clone()));
            run_mix(&mut c);
            sink.flush();

            let exact = latency_report(&store);
            build_rollups(&store, DEFAULT_WINDOW_NS);
            let windowed = window_report(&store, 0, u64::MAX);
            prop_assert_eq!(
                windowed.groups.len(), exact.groups.len(),
                "group sets diverge (shards={})", shards
            );
            for (key, e) in &exact.groups {
                let w = windowed
                    .group(&key.function, &key.policy, key.shard)
                    .unwrap_or_else(|| panic!("group {key:?} missing from windowed report"));
                prop_assert_eq!(w.count, e.count, "{:?}", key);
                prop_assert_eq!(w.min_ns, e.min_ns, "{:?}", key);
                prop_assert_eq!(w.max_ns, e.max_ns, "{:?}", key);
                assert_within_bucket_bound(e.p50_ns, w.p50_ns, &format!("{key:?} p50"));
                assert_within_bucket_bound(e.p95_ns, w.p95_ns, &format!("{key:?} p95"));
                assert_within_bucket_bound(e.p99_ns, w.p99_ns, &format!("{key:?} p99"));
            }
        }
    }

    /// Same equivalence over a *sub-range* of windows on a synthetic
    /// stream: the merged report over `[lo, hi)` matches nearest-rank
    /// percentiles recomputed from only the raw spans whose virtual
    /// completion time falls in those windows.
    #[test]
    fn windowed_subrange_matches_exact_nearest_rank(
        seed in 0u64..10_000,
        n in 500u64..2_000,
        lo in 0u64..4,
        span in 1u64..4,
    ) {
        let window_ns = 250_000_000; // 250 ms: a 2 ms mean gap spreads
        let hi = lo + span;          // n spans over many windows
        let store = FileStore::new();
        let sink = TelemetrySink::new(store.clone());
        synthesize(&sink, seed, n, 3, &["helloworld", "pyaes"]);

        // Exact nearest-rank per group over the selected windows only.
        let (spans, _) = scan(&store);
        let mut exact: BTreeMap<(String, String, u32), Vec<u64>> = BTreeMap::new();
        for s in &spans {
            let w = s.vt_ns / window_ns;
            if w >= lo && w < hi {
                exact
                    .entry((s.function.clone(), s.policy.clone(), s.shard))
                    .or_default()
                    .push(s.latency_ns);
            }
        }
        for lat in exact.values_mut() {
            lat.sort_unstable();
        }
        let nearest = |lat: &[u64], p: f64| -> u64 {
            let rank = ((p / 100.0) * lat.len() as f64).ceil() as usize;
            lat[rank.clamp(1, lat.len()) - 1]
        };

        build_rollups(&store, window_ns);
        let windowed = window_report(&store, lo, hi);
        prop_assert_eq!(
            windowed.groups.len(), exact.len(),
            "group sets diverge over windows [{}..{})", lo, hi
        );
        for ((function, policy, shard), lat) in &exact {
            let w = windowed
                .group(function, policy, *shard)
                .unwrap_or_else(|| panic!("{function}/{policy}/{shard} missing"));
            prop_assert_eq!(w.count, lat.len() as u64);
            prop_assert_eq!(w.min_ns, lat[0]);
            prop_assert_eq!(w.max_ns, *lat.last().unwrap());
            for (p, est) in [(50.0, w.p50_ns), (95.0, w.p95_ns), (99.0, w.p99_ns)] {
                assert_within_bucket_bound(
                    nearest(lat, p),
                    est,
                    &format!("{function}/{policy}/{shard} p{p} over [{lo}..{hi})"),
                );
            }
        }
    }
}

/// The acceptance gate: a P99-over-window query against a 1M-span store
/// is answered by merging rollup batches alone — the raw span batches
/// are never rescanned, pinned by read accounting on the backing store.
#[test]
fn million_span_window_query_never_rescans_raw_spans() {
    let store = FileStore::new();
    let sink = TelemetrySink::new(store.clone());
    synthesize(&sink, 42, 1_000_000, 3, &["helloworld", "chameleon", "pyaes", "json_serdes"]);

    let (built, scan_stats) = build_rollups(&store, DEFAULT_WINDOW_NS);
    assert_eq!(scan_stats.batches_dropped, 0);
    assert_eq!(built.spans, 1_000_000);
    assert!(built.batches > 0);

    // Query a mid-stream window range; every read during the query must
    // be a rollup batch (there are exactly `built.batches` of those).
    let reads_before = store.read_calls();
    let report = window_report(&store, 100, 200);
    let query_reads = store.read_calls() - reads_before;
    assert!(
        query_reads <= built.batches,
        "query read {query_reads} files but only {} rollup batches exist",
        built.batches
    );
    assert!(query_reads > 0, "query must have read the rollup batches");
    assert_eq!(report.scan.batches_dropped, 0);
    assert!(report.total_count() > 0, "mid-stream windows must hold spans");
    for (key, stats) in &report.groups {
        assert!(stats.p99_ns >= stats.p50_ns, "{key:?}");
        assert!(stats.p99_ns <= stats.max_ns, "{key:?}");
    }
}
