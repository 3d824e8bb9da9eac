//! `chaos`: concurrent cold-start batches served through a seeded,
//! *healing* fault plan — transient restore faults, one wire-corrupted
//! WS read, an injected latency spike, and a whole shard killed before
//! the first batch. The pinned invariant (same one the chaos proptests
//! assert): **simulated outcomes are fault-invariant** — running with
//! `--faults on` and `--faults off` must print byte-identical CSV
//! columns, because every injected fault either retries, reloads, or
//! re-routes without touching the timed pass. CI's `golden-smoke` job
//! diffs exactly that. Recovery work and shard health go to stderr as
//! machine-parseable CSV blocks (see below) so CI can assert on recovery
//! counts; wall-clock stays in parenthesized comment lines that no
//! parser should touch. stdout stays deterministic.
//!
//! stderr format — two CSV blocks, each `header → rows → end marker`:
//!
//! ```text
//! round,function,seq,transient_retries,corrupt_reloads,quarantined,fallback_vanilla,rebuilt,rerouted
//! 0,pyaes,4,2,0,false,false,false,false
//! --- end recovery csv ---
//! round,shard,health
//! 0,0,Dead
//! 0,1,Healthy
//! --- end health csv ---
//! ```
//!
//! Headers print even when a block has no rows, so `--faults off` yields
//! an empty-but-well-formed recovery block (CI asserts zero rows there).
//!
//! Flags: `--quick` (fewer functions/rounds for CI smoke), `--seed N`
//! (cluster seed, default `0xC0FFEE`), `--faults on|off` (default on).

use std::sync::Arc;

use functionbench::FunctionId;
use sim_core::{SimDuration, Table};
use sim_storage::{FaultInjector, FaultKind, FaultPlan, FaultRule, FaultScope};
use vhive_cluster::{ClusterOrchestrator, ColdRequest};
use vhive_core::ColdPolicy;

use crate::cli::Args;

/// `chaos [--quick] [--seed N] [--faults on|off]`.
pub fn run(a: &Args) -> Result<(), String> {
    let (quick, faults_on) = (a.quick, a.faults);
    let seed = a.seed.unwrap_or(0xC0_FFEE);

    // One shared request per function, distinct functions per batch:
    // same-function shared requests alias page-cache state (FileIds),
    // which re-routing would split — distinct functions keep outcomes
    // placement-independent under failover.
    let funcs: &[FunctionId] = if quick {
        &[FunctionId::helloworld, FunctionId::pyaes]
    } else {
        &[
            FunctionId::helloworld,
            FunctionId::chameleon,
            FunctionId::pyaes,
            FunctionId::json_serdes,
        ]
    };
    let shards = 2;
    let mut c = ClusterOrchestrator::new(seed, shards);
    for &f in funcs {
        c.register(f);
        c.invoke_record(f);
    }

    if faults_on {
        // Healing faults only — every arm recovers to the identical
        // simulated outcome. Kill first: `fail_shard` replaces any
        // injector on the dead shard, so the scoped plan goes on a
        // survivor afterwards.
        let dead = c.shard_of(funcs[0]);
        c.fail_shard(dead);
        let hurt = c.route_of(funcs[funcs.len() - 1]);
        let plan = FaultPlan::new()
            .rule(
                FaultRule::new(
                    FaultScope::NameContains("vmm_state".into()),
                    FaultKind::TransientError,
                )
                .count(2),
            )
            .rule(
                FaultRule::new(
                    FaultScope::NameContains("ws_pages".into()),
                    FaultKind::CorruptRead,
                )
                .count(1),
            )
            .rule(
                FaultRule::new(
                    FaultScope::NameContains("vmm_state".into()),
                    FaultKind::Delay(SimDuration::from_micros(500)),
                )
                .count(1),
            );
        c.shard(hurt)
            .fs()
            .attach_injector(Arc::new(FaultInjector::new(plan)));
        eprintln!(
            "(fault plan: shard {dead} dead; shard {hurt} injecting 2 transient \
             vmm reads + 1 corrupt WS read + 500us delay)"
        );
    }

    let rounds = if quick { 2 } else { 4 };
    let mut recovery_rows: Vec<String> = Vec::new();
    let mut health_rows: Vec<String> = Vec::new();
    let mut t = Table::new(&[
        "function",
        "policy",
        "seq",
        "latency_us",
        "uffd_faults",
        "prefetched_pages",
        "residual_faults",
        "ws_pages",
        "recorded",
    ]);
    t.numeric();
    for round in 0..rounds {
        let reqs: Vec<ColdRequest> = funcs
            .iter()
            .map(|&f| ColdRequest::shared(f, ColdPolicy::Reap))
            .collect();
        let batch = c.invoke_concurrent(&reqs);
        for o in &batch.outcomes {
            t.row(&[
                &o.function.to_string(),
                &format!("{:?}", o.policy.expect("cold outcome")),
                &o.seq.to_string(),
                &format!("{:.0}", o.latency.as_micros_f64()),
                &o.uffd_faults.to_string(),
                &o.prefetched_pages.to_string(),
                &o.residual_faults.to_string(),
                &o.ws_pages.to_string(),
                &o.recorded.to_string(),
            ]);
            if !o.recovery.is_clean() {
                let r = &o.recovery;
                recovery_rows.push(format!(
                    "{round},{},{},{},{},{},{},{},{}",
                    o.function,
                    o.seq,
                    r.transient_retries,
                    r.corrupt_reloads,
                    r.quarantined,
                    r.fallback_vanilla,
                    r.rebuilt,
                    r.rerouted,
                ));
            }
        }
        for (shard, health) in batch.shard_health.iter().enumerate() {
            health_rows.push(format!("{round},{shard},{health:?}"));
        }
        eprintln!(
            "(round {round}: makespan {:.1} ms, served in {:.1} ms wall)",
            batch.makespan.as_millis_f64(),
            batch.serve_wall.as_secs_f64() * 1e3,
        );
    }

    // The machine-parseable stderr blocks (format in the module docs).
    eprintln!(
        "round,function,seq,transient_retries,corrupt_reloads,quarantined,\
         fallback_vanilla,rebuilt,rerouted"
    );
    for row in &recovery_rows {
        eprintln!("{row}");
    }
    eprintln!("--- end recovery csv ---");
    eprintln!("round,shard,health");
    for row in &health_rows {
        eprintln!("{row}");
    }
    eprintln!("--- end health csv ---");

    crate::emit(
        &format!("Chaos sweep: {rounds} REAP batches, {shards} shards, seed {seed:#x}"),
        "Simulated columns are fault-invariant: rerun with --faults off and\n\
         the CSV block below is byte-identical (recovery retries, reloads\n\
         and shard failover cost virtual retry time and wall-clock only —\n\
         never the timed pass). Recovery + health details are on stderr.",
        &t,
    );
    Ok(())
}
