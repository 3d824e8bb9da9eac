//! The telemetry invariance suite (the archetype deliverable of the
//! telemetry pipeline): attaching a [`TelemetrySink`] must never move a
//! simulated outcome.
//!
//! * **on/off invariance** — `InvocationOutcome` debug renderings are
//!   byte-identical with telemetry on and off, across all four
//!   [`ColdPolicy`] variants (plus record and warm passes) and shard
//!   counts 1/2/3;
//! * **concurrent multiset invariance** — `invoke_concurrent` across
//!   shards 1/2/4 produces the same multiset of span records regardless
//!   of shard geometry and lane interleaving (sorted-dump comparison,
//!   shard column masked);
//! * **span fidelity** — spans mirror their outcomes field-for-field on
//!   the single-orchestrator path;
//! * **write faults stay out of serving** — a transient fault on the
//!   telemetry store heals inside the sink, a blackout costs batches
//!   (counted), and neither moves or fails a cold start.

use functionbench::FunctionId;
use proptest::prelude::*;
use sim_storage::{FaultInjector, FaultKind, FaultPlan, FaultRule, FaultScope, FileStore};
use std::sync::Arc;
use vhive_cluster::{ClusterOrchestrator, ColdRequest};
use vhive_core::{ColdPolicy, Orchestrator};
use vhive_telemetry::{scan, SpanRecord, TelemetrySink};

const FUNCS: [FunctionId; 2] = [FunctionId::helloworld, FunctionId::pyaes];

/// Registers + records `FUNCS`; optionally with a telemetry sink (over
/// its own store) attached from the very first invocation.
fn prepared_cluster(
    seed: u64,
    shards: usize,
    telemetry: bool,
) -> (ClusterOrchestrator, Option<TelemetrySink>) {
    let mut c = ClusterOrchestrator::new(seed, shards);
    let sink = telemetry.then(|| TelemetrySink::with_batch_rows(FileStore::new(), 8));
    c.set_telemetry(sink.clone());
    for f in FUNCS {
        c.register(f);
        c.invoke_record(f);
    }
    (c, sink)
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

proptest! {
    #![proptest_config(proptest::test_runner::ProptestConfig { cases: 3 })]

    /// Telemetry on vs. off: byte-identical outcome renderings at shard
    /// counts 1, 2 and 3 — and with telemetry on, the sink actually
    /// captured every invocation.
    #[test]
    fn outcomes_invariant_telemetry_on_off(seed in 0u64..10_000) {
        for shards in [1usize, 2, 3] {
            let off = {
                let (mut c, _) = prepared_cluster(seed, shards, false);
                run_mix(&mut c)
            };
            let (mut c, sink) = prepared_cluster(seed, shards, true);
            let on = run_mix(&mut c);
            prop_assert_eq!(&on, &off, "telemetry must not move outcomes (shards={})", shards);
            // 2 records + 2×(4 cold + 1 warm) + 8 concurrent = 20 spans.
            let sink = sink.unwrap();
            sink.flush();
            let (spans, stats) = scan(sink.store());
            prop_assert_eq!(stats.batches_dropped, 0);
            prop_assert_eq!(spans.len(), 20);
        }
    }

    /// The span stream of a concurrent batch is a shard-count-invariant
    /// multiset: sorted dumps (shard masked — the one column geometry is
    /// allowed to move) are byte-identical for shards 1, 2 and 4.
    #[test]
    fn concurrent_span_multiset_invariant_across_shards(seed in 0u64..10_000) {
        let run = |shards: usize| -> String {
            // Sink attached only for the batch itself: setup records are
            // not part of the compared stream.
            let (mut c, _) = prepared_cluster(seed, shards, false);
            let tstore = FileStore::new();
            let sink = TelemetrySink::with_batch_rows(tstore.clone(), 4);
            c.set_telemetry(Some(sink.clone()));
            let reqs: Vec<ColdRequest> = (0..12)
                .map(|i| {
                    let f = FUNCS[i % FUNCS.len()];
                    let p = ColdPolicy::ALL[i % 4];
                    if i % 3 == 0 {
                        ColdRequest::independent(f, p)
                    } else {
                        ColdRequest::shared(f, p)
                    }
                })
                .collect();
            let batch = c.invoke_concurrent(&reqs);
            sink.flush();
            let (mut spans, stats) = scan(&tstore);
            assert_eq!(stats.batches_dropped, 0);
            assert_eq!(spans.len(), batch.outcomes.len());
            for s in &mut spans {
                s.shard = 0;
            }
            spans.sort();
            format!("{spans:#?}")
        };
        let one = run(1);
        for shards in [2usize, 4] {
            prop_assert_eq!(&run(shards), &one, "shards={}", shards);
        }
    }
}

/// Single-orchestrator path: spans mirror their outcomes exactly, the
/// policy labels distinguish record/cold/warm, and outcomes stay
/// byte-identical with telemetry on.
#[test]
fn spans_mirror_outcomes_field_for_field() {
    let f = FunctionId::helloworld;
    let seed = 0xBEE;

    let reference: Vec<String> = {
        let mut o = Orchestrator::new(seed);
        o.register(f);
        let mut v = vec![format!("{:?}", o.invoke_record(f))];
        for p in ColdPolicy::ALL {
            v.push(format!("{:?}", o.invoke_cold(f, p)));
        }
        v.push(format!("{:?}", o.invoke_warm(f)));
        v
    };

    let mut o = Orchestrator::new(seed);
    o.register(f);
    let tstore = FileStore::new();
    let sink = TelemetrySink::new(tstore.clone());
    o.set_telemetry(Some(sink.clone()));
    let mut outcomes = vec![o.invoke_record(f)];
    let mut rendered = vec![format!("{:?}", outcomes[0])];
    for p in ColdPolicy::ALL {
        let out = o.invoke_cold(f, p);
        rendered.push(format!("{out:?}"));
        outcomes.push(out);
    }
    let warm = o.invoke_warm(f);
    rendered.push(format!("{warm:?}"));
    outcomes.push(warm);
    assert_eq!(rendered, reference, "telemetry on must not move outcomes");

    sink.flush();
    let (spans, stats) = scan(&tstore);
    assert_eq!(stats.batches_dropped, 0);
    assert_eq!(spans.len(), outcomes.len());

    let expected_policies = ["Record", "Vanilla", "ParallelPF", "WsFileCached", "Reap", "Warm"];
    for ((span, outcome), want_policy) in spans.iter().zip(&outcomes).zip(expected_policies) {
        assert_eq!(span.policy, want_policy);
        assert_eq!(span.function, outcome.function.to_string());
        assert_eq!(span.shard, 0);
        assert_eq!(span.seq, outcome.seq);
        assert_eq!(span.cold, outcome.policy.is_some());
        assert_eq!(span.recorded, outcome.recorded);
        assert_eq!(span.latency_ns, outcome.latency.as_nanos());
        assert_eq!(span.load_vmm_ns, outcome.breakdown.load_vmm.as_nanos());
        assert_eq!(span.fetch_ws_ns, outcome.breakdown.fetch_ws.as_nanos());
        assert_eq!(span.install_ws_ns, outcome.breakdown.install_ws.as_nanos());
        assert_eq!(span.conn_restore_ns, outcome.breakdown.conn_restore.as_nanos());
        assert_eq!(span.processing_ns, outcome.breakdown.processing.as_nanos());
        assert_eq!(span.record_finish_ns, outcome.breakdown.record_finish.as_nanos());
        assert_eq!(span.transient_retries, outcome.recovery.transient_retries);
        assert_eq!(span.corrupt_reloads, outcome.recovery.corrupt_reloads);
        assert_eq!(span.retry_delay_ns, outcome.recovery.retry_delay.as_nanos());
        assert_eq!(span.quarantined, outcome.recovery.quarantined);
        assert_eq!(span.fallback_vanilla, outcome.recovery.fallback_vanilla);
        assert_eq!(span.rebuilt, outcome.recovery.rebuilt);
        assert_eq!(span.rerouted, outcome.recovery.rerouted);
    }
    // Cold spans under prefetch policies consult the shared frame cache;
    // the REAP span's lookups must be charged to it.
    let reap_span: &SpanRecord = &spans[4];
    assert!(
        reap_span.cache_hits + reap_span.cache_misses + reap_span.cache_raced > 0,
        "REAP cold start must touch the frame cache"
    );
    // Warm invocations never touch it.
    assert_eq!(spans[5].cache_hits + spans[5].cache_misses + spans[5].cache_raced, 0);
}

/// Concurrent batches carry *real* per-request frame-cache attribution:
/// every cold span's hit/miss/raced columns are its own lookups against
/// the shared cache, threaded through `PreparedCold` — not the zeroed
/// columns the emit path used to stamp. Also pins the virtual completion
/// time column: spans complete at their timeline end, never at zero.
#[test]
fn concurrent_spans_carry_nonzero_cache_deltas() {
    let (mut c, _) = prepared_cluster(0xCAFE, 2, false);
    let tstore = FileStore::new();
    let sink = TelemetrySink::with_batch_rows(tstore.clone(), 4);
    c.set_telemetry(Some(sink.clone()));
    let reqs: Vec<ColdRequest> = FUNCS
        .iter()
        .flat_map(|&f| ColdPolicy::ALL.into_iter().map(move |p| ColdRequest::shared(f, p)))
        .collect();
    let batch = c.invoke_concurrent(&reqs);
    sink.flush();
    let (spans, stats) = scan(&tstore);
    assert_eq!(stats.batches_dropped, 0);
    assert_eq!(spans.len(), batch.outcomes.len());
    // Spans emit in request order; every request in this batch is cold
    // and consults the shared frame cache at least for restore
    // verification — zero attribution means the fix regressed.
    for (span, req) in spans.iter().zip(&reqs) {
        assert_eq!(span.function, req.function.to_string());
        let delta = span.cache_hits + span.cache_misses + span.cache_raced;
        assert!(
            delta > 0,
            "concurrent {} span of {} has zeroed cache columns",
            span.policy,
            span.function
        );
        assert_eq!(span.vt_ns, span.latency_ns, "batch arrives at virtual zero");
        assert!(span.vt_ns > 0);
    }
    // REAP spans specifically: prefetch makes them the heaviest cache
    // users in the batch.
    let reap_total: u64 = spans
        .iter()
        .filter(|s| s.policy == "Reap")
        .map(|s| s.cache_hits + s.cache_misses + s.cache_raced)
        .sum();
    assert!(reap_total > 0, "REAP spans must carry cache deltas");
}

/// The telemetry store may fail; serving may not notice. One transient
/// write fault heals inside the sink's retried write (same outcomes,
/// every span on disk, nothing dropped); a blacked-out store drops every
/// batch and counts it, and both cold starts still complete and verify.
#[test]
fn telemetry_write_fault_never_reaches_serving() {
    let f = FunctionId::helloworld;
    let run = |rule: Option<FaultRule>| {
        let mut o = Orchestrator::new(0xFA17);
        o.register(f);
        o.invoke_record(f);
        let tstore = FileStore::new();
        if let Some(rule) = rule {
            tstore.attach_injector(Arc::new(FaultInjector::new(FaultPlan::new().rule(rule))));
        }
        let sink = TelemetrySink::with_batch_rows(tstore, 1);
        o.set_telemetry(Some(sink.clone()));
        let outcomes = [ColdPolicy::Reap, ColdPolicy::Vanilla].map(|p| o.invoke_cold(f, p));
        assert!(outcomes.iter().all(|out| out.verified_pages > 0));
        (format!("{outcomes:?}"), sink)
    };
    let (clean, _) = run(None);

    let (healed, sink) =
        run(Some(FaultRule::new(FaultScope::Any, FaultKind::TransientError).count(1)));
    assert_eq!(healed, clean);
    assert_eq!(sink.dropped_batches(), 0);
    let (spans, stats) = scan(sink.store());
    assert_eq!((spans.len(), stats.batches_dropped), (2, 0));

    let (dark, sink) = run(Some(FaultRule::new(FaultScope::Any, FaultKind::Blackout)));
    assert_eq!(dark, clean);
    assert_eq!((sink.dropped_batches(), sink.flushed_spans()), (2, 0));
}
