//! Chaos proptests: seeded, budgeted fault plans — transient storage
//! faults, injected latency, stored artifact corruption, whole-shard
//! blackouts — thrown at concurrent batches. The pinned invariant:
//! **every request completes, and every outcome is byte-identical to
//! the fault-free run of its effective policy** — recovery work shows
//! up only in the [`InvocationOutcome::recovery`] ledger and in the
//! per-shard health report.
#![recursion_limit = "512"]

use std::sync::Arc;

use functionbench::FunctionId;
use proptest::prelude::*;
use sim_core::{DetRng, SimDuration};
use sim_storage::{FaultInjector, FaultKind, FaultPlan, FaultRule, FaultScope, FileStore};
use vhive_cluster::{ClusterOrchestrator, ColdRequest, ShardHealth};
use vhive_core::{ColdPolicy, InvocationOutcome, RecoveryReport};
use vhive_telemetry::{scan, TelemetrySink};

/// Light two-function workload. Distinct functions per request keep
/// batch outcomes placement-independent: same-function shared requests
/// alias page-cache state (their FileIds), which re-routing would split.
const FUNCS: [FunctionId; 2] = [FunctionId::helloworld, FunctionId::pyaes];

/// Registers + records `FUNCS` on a fresh cluster.
fn prepared_cluster(seed: u64, shards: usize) -> ClusterOrchestrator {
    let mut c = ClusterOrchestrator::new(seed, shards);
    for f in FUNCS {
        c.register(f);
        c.invoke_record(f);
    }
    c
}

/// Debug rendering with the recovery ledger normalised away — the
/// equality the chaos invariant is stated over.
fn normalized(outcome: &InvocationOutcome) -> String {
    let mut o = outcome.clone();
    o.recovery = RecoveryReport::default();
    format!("{o:?}")
}

fn reap_batch() -> Vec<ColdRequest> {
    FUNCS
        .iter()
        .map(|&f| ColdRequest::shared(f, ColdPolicy::Reap))
        .collect()
}

/// One chaos case. A seeded plan draws from every fault family at once —
/// bounded transient faults on a randomly chosen artifact, an injected
/// latency spike, optional stored WS corruption of one function, and
/// optionally a whole shard killed before the batch. The batch must
/// complete every request, and each outcome must equal the fault-free
/// run of its *effective* policy (Vanilla where corruption forced a
/// quarantine fallback, the requested policy everywhere else).
fn chaos_case(seed: u64) {
    let shards = 3usize;
    let mut rng = DetRng::new(seed ^ 0xC0FF_EE00);
    let kill = rng.gen_bool(0.5).then(|| rng.usize_in(0, shards));
    let corrupt = rng.gen_bool(0.5).then(|| FUNCS[rng.usize_in(0, FUNCS.len())]);
    // The transient budget stays within one retry loop's bound (3
    // retries), so a single fault site always heals locally; shard death
    // comes from the blackout arm, not retry exhaustion.
    let transient_target =
        ["vmm_state", "ws_pages", "ws_trace", "guest_mem"][rng.usize_in(0, 4)];
    let transients = rng.gen_range(4);
    let delay_us = rng.gen_range(2_000);
    let fault_shard = rng.usize_in(0, shards);

    let mut c = prepared_cluster(seed, shards);
    if let Some(f) = corrupt {
        // Stored corruption: scribble the WS header magic in place.
        let fs = c.shard(c.route_of(f)).fs();
        let ws = fs.open(&format!("snapshots/{f}/ws_pages")).unwrap();
        fs.write_at(ws, 0, &[0xA5, 0x5A, 0xA5, 0x5A]).unwrap();
    }
    let mut plan = FaultPlan::new();
    if transients > 0 {
        plan = plan.rule(
            FaultRule::new(
                FaultScope::NameContains(transient_target.into()),
                FaultKind::TransientError,
            )
            .count(transients),
        );
    }
    if delay_us > 0 {
        plan = plan.rule(
            FaultRule::new(
                FaultScope::NameContains("vmm_state".into()),
                FaultKind::Delay(SimDuration::from_micros(delay_us)),
            )
            .count(1),
        );
    }
    c.shard(fault_shard)
        .fs()
        .attach_injector(Arc::new(FaultInjector::new(plan)));
    if let Some(k) = kill {
        c.fail_shard(k);
    }

    let reqs = reap_batch();
    let batch = c.invoke_concurrent(&reqs);
    prop_assert_eq!(batch.outcomes.len(), reqs.len(), "no request dropped");
    if let Some(k) = kill {
        prop_assert_eq!(batch.shard_health[k], ShardHealth::Dead);
    }

    // Fault-free reference at each request's *effective* policy.
    let ref_reqs: Vec<ColdRequest> = batch
        .outcomes
        .iter()
        .map(|o| ColdRequest::shared(o.function, o.policy.expect("cold outcome")))
        .collect();
    let reference = prepared_cluster(seed, shards).invoke_concurrent(&ref_reqs);
    for (out, rout) in batch.outcomes.iter().zip(&reference.outcomes) {
        prop_assert_eq!(normalized(out), normalized(rout), "f={}", out.function);
    }
}

/// The chaos telemetry arm: under the same seeded fault families as
/// [`chaos_case`], every span record emitted for the batch carries
/// `transient_retries` / `corrupt_reloads` / `retry_delay` /
/// `quarantined` / `fallback_vanilla` / `rebuilt` / `rerouted` exactly
/// equal to its outcome's [`RecoveryReport`] — the telemetry stream is a
/// faithful copy of the recovery ledger, not a recomputation.
fn chaos_telemetry_case(seed: u64) {
    let shards = 3usize;
    let mut rng = DetRng::new(seed ^ 0xC0FF_EE00);
    let kill = rng.gen_bool(0.5).then(|| rng.usize_in(0, shards));
    let corrupt = rng.gen_bool(0.5).then(|| FUNCS[rng.usize_in(0, FUNCS.len())]);
    let transient_target =
        ["vmm_state", "ws_pages", "ws_trace", "guest_mem"][rng.usize_in(0, 4)];
    let transients = rng.gen_range(4);
    let fault_shard = rng.usize_in(0, shards);

    let mut c = prepared_cluster(seed, shards);
    if let Some(f) = corrupt {
        let fs = c.shard(c.route_of(f)).fs();
        let ws = fs.open(&format!("snapshots/{f}/ws_pages")).unwrap();
        fs.write_at(ws, 0, &[0xA5, 0x5A, 0xA5, 0x5A]).unwrap();
    }
    let mut plan = FaultPlan::new();
    if transients > 0 {
        plan = plan.rule(
            FaultRule::new(
                FaultScope::NameContains(transient_target.into()),
                FaultKind::TransientError,
            )
            .count(transients),
        );
    }
    c.shard(fault_shard)
        .fs()
        .attach_injector(Arc::new(FaultInjector::new(plan)));
    if let Some(k) = kill {
        c.fail_shard(k);
    }

    // Attach the sink only now: setup records stay out of the stream,
    // so spans line up 1:1 with the batch outcomes in request order.
    let sink = TelemetrySink::new(FileStore::new());
    c.set_telemetry(Some(sink.clone()));
    let batch = c.invoke_concurrent(&reap_batch());
    sink.flush();
    let (spans, stats) = scan(sink.store());
    prop_assert_eq!(stats.batches_dropped, 0);
    prop_assert_eq!(spans.len(), batch.outcomes.len());
    for (span, out) in spans.iter().zip(&batch.outcomes) {
        let ledger = &out.recovery;
        prop_assert_eq!(&span.function, &out.function.to_string());
        prop_assert_eq!(span.transient_retries, ledger.transient_retries, "f={}", out.function);
        prop_assert_eq!(span.corrupt_reloads, ledger.corrupt_reloads, "f={}", out.function);
        prop_assert_eq!(span.retry_delay_ns, ledger.retry_delay.as_nanos(), "f={}", out.function);
        prop_assert_eq!(span.quarantined, ledger.quarantined, "f={}", out.function);
        prop_assert_eq!(span.fallback_vanilla, ledger.fallback_vanilla, "f={}", out.function);
        prop_assert_eq!(span.rebuilt, ledger.rebuilt, "f={}", out.function);
        prop_assert_eq!(span.rerouted, ledger.rerouted, "f={}", out.function);
    }
    // And the arm is not vacuous: a killed shard must surface as at
    // least one rerouted span whenever it owned one of the functions.
    if let Some(k) = kill {
        let rerouted_expected = batch.outcomes.iter().any(|o| o.recovery.rerouted);
        prop_assert_eq!(spans.iter().any(|s| s.rerouted), rerouted_expected);
        prop_assert_eq!(batch.shard_health[k], ShardHealth::Dead);
    }
}

/// One corrupted-artifact case: a garbage magic, or a valid header whose
/// extent count promises far more bytes than the file holds — fed through
/// concurrent batches quarantine the working set and fall back to
/// Vanilla identically at shard counts 1, 2 and 3.
fn corrupted_v1_case(seed: u64, bad_magic: bool, hit_trace: bool) {
    let run = |shards: usize| -> String {
        let mut c = prepared_cluster(seed, shards);
        for f in FUNCS {
            let fs = c.shard(c.route_of(f)).fs();
            let name = if hit_trace { "ws_trace" } else { "ws_pages" };
            let id = fs.open(&format!("snapshots/{f}/{name}")).unwrap();
            let mut hdr = Vec::new();
            if bad_magic {
                hdr.extend_from_slice(b"NOTREAP!");
                hdr.extend_from_slice(&0u64.to_le_bytes());
            } else {
                // Valid magic, absurd count: parses, then fails the
                // length validation (truncated artifact).
                hdr.extend_from_slice(if hit_trace { b"REAPTRC2" } else { b"REAPWSF2" });
                hdr.extend_from_slice(&(1u64 << 32).to_le_bytes());
            }
            fs.write_at(id, 0, &hdr).unwrap();
        }
        let batch = c.invoke_concurrent(&reap_batch());
        for out in &batch.outcomes {
            assert_eq!(out.policy, Some(ColdPolicy::Vanilla), "stored corruption falls back");
            assert!(out.recovery.quarantined);
            assert!(out.recovery.fallback_vanilla);
            assert_eq!(out.recovery.corrupt_reloads, 1, "one reload attempted");
            assert!(c.needs_rerecord(out.function));
        }
        // Recovery ledgers are identical too (same stored corruption in
        // every world), so compare the full debug rendering.
        format!("{:?}", batch.outcomes)
    };
    let one = run(1);
    for shards in [2usize, 3] {
        prop_assert_eq!(&run(shards), &one, "shards={}", shards);
    }
}

proptest! {
    #![proptest_config(proptest::test_runner::ProptestConfig { cases: 3 })]

    #[test]
    fn chaos_plans_never_drop_requests_or_change_outcomes(seed in 0u64..10_000) {
        chaos_case(seed);
    }

    #[test]
    fn chaos_spans_copy_the_recovery_ledger_exactly(seed in 0u64..10_000) {
        chaos_telemetry_case(seed);
    }

    #[test]
    fn corrupted_v1_artifacts_fall_back_identically_across_shard_counts(
        seed in 0u64..10_000,
        bad_magic in any::<bool>(),
        hit_trace in any::<bool>(),
    ) {
        corrupted_v1_case(seed, bad_magic, hit_trace);
    }
}
