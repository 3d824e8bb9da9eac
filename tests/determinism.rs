//! Reproducibility: identical seeds must regenerate identical experiments,
//! bit for bit — the property every figure subcommand relies on.

use functionbench::FunctionId;
use vhive_core::{ColdPolicy, Orchestrator};

#[test]
fn same_seed_same_latencies() {
    let f = FunctionId::pyaes;
    let run = |seed: u64| {
        let mut orch = Orchestrator::new(seed);
        orch.register(f);
        let vanilla = orch.invoke_cold(f, ColdPolicy::Vanilla);
        orch.invoke_record(f);
        let reap = orch.invoke_cold(f, ColdPolicy::Reap);
        (
            vanilla.latency,
            vanilla.uffd_faults,
            reap.latency,
            reap.prefetched_pages,
            reap.residual_faults,
        )
    };
    assert_eq!(run(99), run(99), "same seed must reproduce exactly");
}

#[test]
fn different_seeds_change_inputs_not_shape() {
    let f = FunctionId::helloworld;
    let mut a = Orchestrator::new(1);
    let mut b = Orchestrator::new(2);
    a.register(f);
    b.register(f);
    let out_a = a.invoke_cold(f, ColdPolicy::Vanilla);
    let out_b = b.invoke_cold(f, ColdPolicy::Vanilla);
    // Latency shape is stable across seeds (same function, same platform).
    let ratio = out_a.latency.as_secs_f64() / out_b.latency.as_secs_f64();
    assert!(
        (0.9..1.1).contains(&ratio),
        "seeds should not change the latency regime: {ratio:.3}"
    );
}

#[test]
fn snapshot_contents_are_deterministic_per_seed() {
    let f = FunctionId::helloworld;
    let mut a = Orchestrator::new(5);
    let mut b = Orchestrator::new(5);
    a.register(f);
    b.register(f);
    // Both orchestrators wrote a snapshot; their memory files must be
    // byte-identical (same boot, same contents).
    let fa = a.fs().open(&format!("snapshots/{f}/guest_mem")).unwrap();
    let fb = b.fs().open(&format!("snapshots/{f}/guest_mem")).unwrap();
    assert_eq!(a.fs().len(fa), b.fs().len(fb));
    // Spot-check a few pages.
    for page in [0u64, 1000, 30000, 65535] {
        let pa = a.fs().read_at(fa, page * 4096, 4096);
        let pb = b.fs().read_at(fb, page * 4096, 4096);
        assert_eq!(pa, pb, "page {page} differs between identical seeds");
    }
}

/// Two orchestrators built from the same `sim_core` RNG seed must
/// produce *byte-identical* timeline reports — the complete
/// `InvocationOutcome` (latency, breakdown phases, fault/prefetch/verify
/// counters, touched-page set, disk counters), compared via its full
/// debug rendering — for every cold policy. This is the contract that
/// lets any figure regenerate bit-for-bit from a seed.
#[test]
fn timeline_reports_byte_identical_across_policies() {
    let f = FunctionId::pyaes;
    let policies = [
        ColdPolicy::Vanilla,
        ColdPolicy::ParallelPF,
        ColdPolicy::WsFileCached,
        ColdPolicy::Reap,
    ];
    let run = |seed: u64| -> Vec<String> {
        let mut orch = Orchestrator::new(seed);
        orch.register(f);
        orch.invoke_record(f);
        policies
            .iter()
            .map(|&p| format!("{:?}", orch.invoke_cold(f, p)))
            .collect()
    };
    let a = run(0xDE7E12);
    let b = run(0xDE7E12);
    for (policy, (ra, rb)) in policies.iter().zip(a.iter().zip(&b)) {
        assert_eq!(
            ra, rb,
            "{policy:?}: reports must be byte-identical for equal seeds"
        );
    }
    // And a different seed must actually change something (the inputs),
    // proving the equality above isn't vacuous.
    let c = run(0xBEEF);
    assert_ne!(a, c, "different seeds must produce different reports");
}

#[test]
fn fault_traces_replay_identically() {
    let f = FunctionId::chameleon;
    let run = |seed: u64| {
        let mut orch = Orchestrator::new(seed);
        orch.register(f);
        let out = orch.invoke_cold(f, ColdPolicy::Vanilla);
        out.touched
    };
    let t1 = run(7);
    let t2 = run(7);
    assert_eq!(t1, t2, "working sets must be identical for equal seeds");
}
