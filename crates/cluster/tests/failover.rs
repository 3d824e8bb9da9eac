//! Cluster failover and degraded-mode tests: shard blackouts, vanishing
//! artifacts and transient storage faults must never drop a request.
//! Every completed invocation's simulated outcome stays byte-identical
//! to the fault-free run of its *effective* policy — recovery work is
//! visible only in the [`InvocationOutcome::recovery`] ledger and in the
//! per-shard health report.

use std::sync::Arc;

use functionbench::FunctionId;
use sim_core::{Deadline, SimDuration, SimTime};
use sim_storage::{FaultInjector, FaultKind, FaultPlan, FaultRule, FaultScope, FileStore};
use vhive_cluster::{ClusterOrchestrator, ColdRequest, Disposition, ShardHealth};
use vhive_core::{ColdPolicy, InvocationOutcome, Orchestrator, RecoveryReport};
use vhive_telemetry::{scan, TelemetrySink};

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

/// One shared REAP request per function. Distinct functions keep batch
/// outcomes placement-independent: same-function shared requests alias
/// page-cache state (their FileIds), which re-routing would split.
fn reap_batch() -> Vec<ColdRequest> {
    FUNCS
        .iter()
        .map(|&f| ColdRequest::shared(f, ColdPolicy::Reap))
        .collect()
}

fn attach(c: &ClusterOrchestrator, shard: usize, rule: FaultRule) {
    c.shard(shard)
        .fs()
        .attach_injector(Arc::new(FaultInjector::new(FaultPlan::new().rule(rule))));
}

#[test]
fn dead_shard_reroutes_and_rebuilds_without_dropping_requests() {
    let seed = 21;
    let shards = 3;
    let mut r = prepared_cluster(seed, shards);
    let reference = r.invoke_concurrent(&reap_batch());

    let mut c = prepared_cluster(seed, shards);
    let dead = c.shard_of(FUNCS[0]);
    c.fail_shard(dead);
    let batch = c.invoke_concurrent(&reap_batch());

    assert_eq!(batch.outcomes.len(), FUNCS.len(), "no request dropped");
    assert_eq!(batch.shard_health[dead], ShardHealth::Dead);
    for ((out, rout), &f) in batch.outcomes.iter().zip(&reference.outcomes).zip(&FUNCS) {
        let was_homed_on_dead = c.shard_of(f) == dead;
        assert_eq!(out.recovery.rerouted, was_homed_on_dead, "{f}");
        assert_eq!(out.recovery.rebuilt, was_homed_on_dead, "{f}");
        assert_eq!(out.policy, Some(ColdPolicy::Reap), "no fallback needed");
        assert_eq!(normalized(out), normalized(rout), "{f}");
    }

    // The rebuilt function stays on the survivor: later delegated
    // singles route there and serve cleanly, matching the fault-free
    // world.
    assert_ne!(c.route_of(FUNCS[0]), dead);
    let single = c.invoke_cold(FUNCS[0], ColdPolicy::Reap);
    assert!(single.recovery.is_clean());
    assert_eq!(
        normalized(&single),
        normalized(&r.invoke_cold(FUNCS[0], ColdPolicy::Reap))
    );
}

#[test]
fn revived_shard_keeps_failover_placement() {
    let mut c = prepared_cluster(22, 3);
    let dead = c.shard_of(FUNCS[0]);
    c.fail_shard(dead);
    let _ = c.invoke_concurrent(&reap_batch());
    let survivor = c.route_of(FUNCS[0]);
    assert_ne!(survivor, dead);

    c.revive_shard(dead);
    assert_eq!(c.shard_health(dead), ShardHealth::Healthy);
    // The function's live state (registry, artifacts, seq counters) moved
    // to the survivor; routing must not snap back to the revived home.
    assert_eq!(c.route_of(FUNCS[0]), survivor);
    assert!(c.invoke_cold(FUNCS[0], ColdPolicy::Reap).recovery.is_clean());
}

/// Moved off a dead home, a function's state must not be served again
/// from the copy the home held before it died: once the survivor dies
/// too, the revived home rebuilds from the survivor, and the input
/// sequence runs on as in the fault-free run.
#[test]
fn second_failover_rebuilds_from_the_survivor_not_the_revived_home() {
    let f = FUNCS[0];
    let mut r = prepared_cluster(30, 3);
    let reference: Vec<_> = (0..3).map(|_| r.invoke_cold(f, ColdPolicy::Reap)).collect();

    let mut c = prepared_cluster(30, 3);
    let home = c.shard_of(f);
    let mut outs = vec![c.invoke_cold(f, ColdPolicy::Reap)];
    c.fail_shard(home);
    outs.push(c.invoke_cold(f, ColdPolicy::Reap));
    let survivor = c.route_of(f);
    assert_ne!(survivor, home);
    c.revive_shard(home);
    c.fail_shard(survivor);
    outs.push(c.invoke_cold(f, ColdPolicy::Reap));

    let seqs: Vec<u64> = outs.iter().map(|o| o.seq).collect();
    assert_eq!(seqs, [1, 2, 3]);
    assert!(outs[2].recovery.rebuilt);
    for (out, rout) in outs.iter().zip(&reference) {
        assert_eq!(normalized(out), normalized(rout));
    }
}

/// A redeploy on the shard a function failed over to resets its state
/// there; when that shard dies, the rebuild starts from the redeployed
/// state, not from the dead home's older copy.
#[test]
fn redeploy_after_failover_rebuilds_from_the_new_holder() {
    let f = FUNCS[0];
    let redeploy = |c: &mut ClusterOrchestrator| {
        c.register(f);
        c.invoke_record(f);
    };
    let mut r = prepared_cluster(31, 3);
    for _ in 0..2 {
        r.invoke_cold(f, ColdPolicy::Reap);
    }
    redeploy(&mut r);
    let reference = r.invoke_cold(f, ColdPolicy::Reap);

    let mut c = prepared_cluster(31, 3);
    let home = c.shard_of(f);
    c.invoke_cold(f, ColdPolicy::Reap);
    c.fail_shard(home);
    c.invoke_cold(f, ColdPolicy::Reap);
    redeploy(&mut c);
    let holder = c.route_of(f);
    assert_ne!(holder, home);
    c.fail_shard(holder);
    let out = c.invoke_cold(f, ColdPolicy::Reap);

    assert_eq!(out.seq, reference.seq);
    assert!(out.recovery.rebuilt);
    assert_eq!(normalized(&out), normalized(&reference));
}

/// Redeploying a function whose holder died replaces its state: the
/// survivor boots and captures it once, as a first deploy would, without
/// first rebuilding the state the redeploy overwrites.
#[test]
fn redeploy_onto_a_dead_holder_registers_without_rebuilding() {
    let f = FUNCS[0];
    let plain_register_writes = {
        let mut fresh = ClusterOrchestrator::new(32, 3);
        let shard = fresh.route_of(f);
        let before = fresh.shard(shard).fs().write_calls();
        fresh.register(f);
        fresh.shard(shard).fs().write_calls() - before
    };

    let mut c = prepared_cluster(32, 3);
    let holder = c.route_of(f);
    c.fail_shard(holder);
    let survivor = c.route_of(f);
    assert_ne!(survivor, holder);
    let before = c.shard(survivor).fs().write_calls();
    c.register(f);
    assert_eq!(
        c.shard(survivor).fs().write_calls() - before,
        plain_register_writes
    );
    assert_eq!(c.route_of(f), survivor);
    assert!(!c.has_ws(f), "a redeploy starts without a working set");
}

#[test]
fn delegated_single_survives_home_shard_death() {
    let mut r = prepared_cluster(26, 3);
    let mut c = prepared_cluster(26, 3);
    let dead = c.shard_of(FUNCS[0]);
    c.fail_shard(dead);
    // No batch in between: the delegation path itself must rebuild the
    // function on the survivor before serving.
    let out = c.invoke_cold(FUNCS[0], ColdPolicy::Reap);
    assert_eq!(
        normalized(&out),
        normalized(&r.invoke_cold(FUNCS[0], ColdPolicy::Reap))
    );
    assert_ne!(c.route_of(FUNCS[0]), dead);
}

#[test]
fn delegated_single_fails_over_when_its_home_store_goes_dark() {
    let mut r = prepared_cluster(27, 3);
    let mut c = prepared_cluster(27, 3);
    let home = c.shard_of(FUNCS[0]);
    // The store dies under the shard; nobody calls `fail_shard`. The
    // single cold call must discover it, mark the shard dead and serve
    // from a survivor, as a batch does.
    attach(
        &c,
        home,
        FaultRule::new(FaultScope::Namespace(home as u32), FaultKind::Blackout),
    );
    let out = c.invoke_cold(FUNCS[0], ColdPolicy::Reap);
    assert!(out.recovery.rerouted && out.recovery.rebuilt);
    assert_eq!(
        normalized(&out),
        normalized(&r.invoke_cold(FUNCS[0], ColdPolicy::Reap))
    );
    assert_eq!(c.shard_health(home), ShardHealth::Dead);
    assert_ne!(c.route_of(FUNCS[0]), home);
}

#[test]
fn transient_faults_mark_the_shard_degraded_not_dead() {
    let seed = 23;
    let mut r = prepared_cluster(seed, 2);
    let reference = r.invoke_concurrent(&reap_batch());

    let mut c = prepared_cluster(seed, 2);
    let idx = c.route_of(FUNCS[0]);
    attach(
        &c,
        idx,
        FaultRule::new(
            FaultScope::NameContains(format!("snapshots/{}/vmm_state", FUNCS[0])),
            FaultKind::TransientError,
        )
        .count(2),
    );
    let batch = c.invoke_concurrent(&reap_batch());

    assert_eq!(batch.shard_health[idx], ShardHealth::Degraded);
    assert!(!batch.shard_health.contains(&ShardHealth::Dead));
    assert_eq!(batch.outcomes[0].recovery.transient_retries, 2);
    assert!(!batch.outcomes[0].recovery.rerouted, "retries stay local");
    for (out, rout) in batch.outcomes.iter().zip(&reference.outcomes) {
        assert_eq!(normalized(out), normalized(rout));
    }
}

/// The unregister race, made deterministic: a function's REAP artifacts
/// disappear from the store after the batch is accepted but before its
/// prefetch runs — exactly what racing `unregister` against an in-flight
/// concurrent batch produces. A true thread race would be flaky by
/// construction; deleting the stored artifacts up front drives the
/// identical code path (frame-cache load finds the file gone, the
/// checked fallback read reports a dead file, the prepare loop
/// quarantines and falls back to Vanilla) deterministically.
#[test]
fn ws_artifacts_vanishing_under_a_batch_fall_back_to_vanilla() {
    let seed = 24;
    let mut r = prepared_cluster(seed, 2);
    let mut ref_reqs = reap_batch();
    ref_reqs[0].policy = ColdPolicy::Vanilla;
    let reference = r.invoke_concurrent(&ref_reqs);

    let mut c = prepared_cluster(seed, 2);
    let idx = c.route_of(FUNCS[0]);
    for name in ["ws_trace", "ws_pages"] {
        let id = c
            .shard(idx)
            .fs()
            .open(&format!("snapshots/{}/{name}", FUNCS[0]))
            .expect("recorded artifact exists");
        assert!(c.shard(idx).fs().delete(id));
    }
    let batch = c.invoke_concurrent(&reap_batch());

    let out = &batch.outcomes[0];
    assert_eq!(out.policy, Some(ColdPolicy::Vanilla), "fell back");
    assert!(out.recovery.quarantined);
    assert!(out.recovery.fallback_vanilla);
    assert!(!out.recovery.rerouted, "store is up; only the artifacts died");
    assert_eq!(batch.shard_health[idx], ShardHealth::Healthy);
    assert!(c.needs_rerecord(FUNCS[0]), "fallback schedules a re-record");

    let clean = &batch.outcomes[1];
    assert_eq!(clean.policy, Some(ColdPolicy::Reap));
    assert!(clean.recovery.is_clean(), "siblings unaffected");
    for (out, rout) in batch.outcomes.iter().zip(&reference.outcomes) {
        assert_eq!(normalized(out), normalized(rout));
    }
}

/// Partial storage loss: a blackout scoped to one function's REAP
/// artifacts (the store keeps serving everything else). The affected
/// request falls back to Vanilla on its home shard — scoped loss must
/// not be escalated to whole-shard death.
#[test]
fn ws_scoped_blackout_falls_back_without_killing_the_shard() {
    let seed = 25;
    let mut r = prepared_cluster(seed, 2);
    let mut ref_reqs = reap_batch();
    ref_reqs[0].policy = ColdPolicy::Vanilla;
    let reference = r.invoke_concurrent(&ref_reqs);

    let mut c = prepared_cluster(seed, 2);
    let idx = c.route_of(FUNCS[0]);
    attach(
        &c,
        idx,
        FaultRule::new(
            FaultScope::NameContains(format!("snapshots/{}/ws_", FUNCS[0])),
            FaultKind::Blackout,
        ),
    );
    let batch = c.invoke_concurrent(&reap_batch());

    let out = &batch.outcomes[0];
    assert_eq!(out.policy, Some(ColdPolicy::Vanilla));
    assert!(out.recovery.quarantined);
    assert!(out.recovery.fallback_vanilla);
    assert_eq!(
        batch.shard_health[idx],
        ShardHealth::Healthy,
        "scoped artifact loss is not shard death"
    );
    for (out, rout) in batch.outcomes.iter().zip(&reference.outcomes) {
        assert_eq!(normalized(out), normalized(rout));
    }
}

/// Two independent REAP requests per function (§6.5's methodology:
/// every instance its own snapshot identity).
fn independent_batch() -> Vec<ColdRequest> {
    FUNCS
        .iter()
        .flat_map(|&f| [ColdRequest::independent(f, ColdPolicy::Reap); 2])
        .collect()
}

/// Independent requests recover like shared ones: a transient fault is
/// retried *and reported* — in the ledger and in the shard's health.
#[test]
fn independent_requests_report_their_transient_retries() {
    let seed = 27;
    let mut r = prepared_cluster(seed, 2);
    let reference = r.invoke_concurrent(&independent_batch());

    let mut c = prepared_cluster(seed, 2);
    let idx = c.route_of(FUNCS[0]);
    attach(
        &c,
        idx,
        FaultRule::new(
            FaultScope::NameContains(format!("snapshots/{}/vmm_state", FUNCS[0])),
            FaultKind::TransientError,
        )
        .count(2),
    );
    let batch = c.invoke_concurrent(&independent_batch());

    assert_eq!(batch.outcomes[0].recovery.transient_retries, 2);
    assert_eq!(batch.outcomes[0].recovery.retry_delay, SimDuration::from_micros(300));
    assert_eq!(batch.shard_health[idx], ShardHealth::Degraded);
    assert!(!batch.shard_health.contains(&ShardHealth::Dead));
    assert_eq!(batch.outcomes.len(), reference.outcomes.len());
    for (out, rout) in batch.outcomes.iter().zip(&reference.outcomes) {
        assert_eq!(normalized(out), normalized(rout));
    }
}

/// A store that blacks out under independent requests — the batch is
/// what discovers it — fails them over like any other request instead
/// of panicking the shard lane.
#[test]
fn independent_requests_fail_over_off_a_blacked_out_home() {
    let seed = 28;
    let mut r = prepared_cluster(seed, 3);
    let reference = r.invoke_concurrent(&independent_batch());

    let mut c = prepared_cluster(seed, 3);
    let dead = c.shard_of(FUNCS[0]);
    attach(&c, dead, FaultRule::new(FaultScope::Any, FaultKind::Blackout));
    let reqs = independent_batch();
    let batch = c.invoke_concurrent(&reqs);

    assert_eq!(batch.shard_health[dead], ShardHealth::Dead);
    assert_eq!(batch.dispositions.len(), reqs.len(), "every request resolved");
    assert!(batch.dispositions.iter().all(|d| *d == Disposition::Completed));
    assert_eq!(batch.served, (0..reqs.len()).collect::<Vec<_>>());
    // Both requests of the dead shard's function were handed back; the
    // first to re-route rebuilds it on the survivor.
    assert!(batch.outcomes[0].recovery.rerouted && batch.outcomes[0].recovery.rebuilt);
    assert!(batch.outcomes[1].recovery.rerouted && !batch.outcomes[1].recovery.rebuilt);
    for (out, rout) in batch.outcomes.iter().zip(&reference.outcomes) {
        assert_eq!(normalized(out), normalized(rout));
    }
}

/// One answer for the same event: a deadline that runs out mid-recovery
/// yields the same unserved span — stamped at the expiry instant — from
/// a single node and from a 1-shard cluster. The plan is the Delay →
/// Transient pair of `crates/core/tests/failure_injection.rs`.
#[test]
fn mid_recovery_expiry_spans_agree_between_node_and_cluster() {
    let f = FUNCS[0];
    let budget = SimDuration::from_millis(1);
    let plan = || {
        let rule = |file: &str, kind| FaultRule::new(FaultScope::NameContains(file.into()), kind).count(1);
        Arc::new(FaultInjector::new(
            FaultPlan::new()
                .rule(rule("vmm_state", FaultKind::Delay(SimDuration::from_millis(2))))
                .rule(rule("ws_pages", FaultKind::TransientError)),
        ))
    };

    let node_sink = TelemetrySink::new(FileStore::new());
    let mut node = Orchestrator::new(29);
    node.register(f);
    node.invoke_record(f);
    node.fs().attach_injector(plan());
    node.set_telemetry(Some(node_sink.clone()));
    let deadline = Deadline::new(SimTime::ZERO, budget);
    let (disposition, outcome) = node.invoke_cold_within(f, ColdPolicy::Reap, Some(deadline));
    assert_eq!(disposition, Disposition::DeadlineExceeded);
    assert!(outcome.is_none());

    let cluster_sink = TelemetrySink::new(FileStore::new());
    let mut cluster = ClusterOrchestrator::new(29, 1);
    cluster.register(f);
    cluster.invoke_record(f);
    cluster.shard(0).fs().attach_injector(plan());
    cluster.set_telemetry(Some(cluster_sink.clone()));
    let batch = cluster.invoke_concurrent(&[ColdRequest::shared(f, ColdPolicy::Reap).with_deadline(budget)]);
    assert_eq!(batch.dispositions, [Disposition::DeadlineExceeded]);
    assert!(batch.outcomes.is_empty());

    node_sink.flush();
    cluster_sink.flush();
    let (node_spans, _) = scan(node_sink.store());
    let (cluster_spans, _) = scan(cluster_sink.store());
    assert_eq!(node_spans.len(), 1);
    assert_eq!(node_spans[0].vt_ns, budget.as_nanos(), "stamped at the expiry instant");
    assert_eq!(node_spans, cluster_spans);
}
