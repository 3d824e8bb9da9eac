//! `overload`: goodput vs offered load, with the admission layer on
//! and off. Each load point offers `base × load` deadline-carrying REAP
//! cold starts in one concurrent burst; the shared timed disk makes the
//! un-shed storm contend itself past its deadlines, while the admission
//! layer (bounded per-shard queues + per-function token buckets) sheds
//! early so the survivors finish inside budget. The pinned claims the
//! `golden-smoke` CI job asserts on this stdout:
//!
//! * **no hangs** — every offered request resolves to an explicit
//!   disposition (`completed + shed_* + deadline_exceeded == offered`,
//!   asserted per row before printing);
//! * **goodput** — at the 10× point, goodput with admission on is at
//!   least 1.5× goodput with admission off (asserted here);
//! * **determinism** — stdout is byte-stable for a fixed seed (CI diffs
//!   a golden).
//!
//! Flags: `--quick` (fewer functions/loads for CI smoke), `--seed N`
//! (cluster seed, default `0xC0FFEE`). Every load point prints a paired
//! on/off row, and the last one checks the goodput ratio.

use functionbench::FunctionId;
use sim_core::{SimDuration, SimTime, Table};
use vhive_cluster::{
    AdmissionConfig, ClusterOrchestrator, ColdRequest, Disposition, RateLimit, ShedPolicy,
    ShedReason,
};
use vhive_core::ColdPolicy;

use crate::cli::Args;

/// Deadline budget carried by every request. Generous for an uncontended
/// cold start, hopeless for a request queued behind a 10× storm on the
/// shared disk.
const BUDGET: SimDuration = SimDuration::from_millis(250);

/// Inter-arrival spacing inside a burst (the storm arrives hot).
const SPACING: SimDuration = SimDuration::from_micros(100);

struct RowCounts {
    completed: usize,
    shed_queue_full: usize,
    shed_rate_limited: usize,
    shed_brownout: usize,
    deadline_exceeded: usize,
}

fn tally(dispositions: &[Disposition]) -> RowCounts {
    let mut c = RowCounts {
        completed: 0,
        shed_queue_full: 0,
        shed_rate_limited: 0,
        shed_brownout: 0,
        deadline_exceeded: 0,
    };
    for d in dispositions {
        match d {
            Disposition::Completed => c.completed += 1,
            Disposition::DeadlineExceeded => c.deadline_exceeded += 1,
            Disposition::Shed { reason, .. } => match reason {
                ShedReason::QueueFull => c.shed_queue_full += 1,
                ShedReason::RateLimited => c.shed_rate_limited += 1,
                ShedReason::Brownout => c.shed_brownout += 1,
            },
        }
    }
    c
}

fn burst(funcs: &[FunctionId], load: usize) -> Vec<ColdRequest> {
    (0..funcs.len() * load)
        .map(|i| {
            let mut r = ColdRequest::shared(funcs[i % funcs.len()], ColdPolicy::Reap);
            r.arrival = SimTime::ZERO + SPACING * i as u64;
            r.deadline = Some(BUDGET);
            r
        })
        .collect()
}

/// `overload [--quick] [--seed N]`.
pub fn run(a: &Args) -> Result<(), String> {
    let seed = a.seed.unwrap_or(0xC0_FFEE);

    let funcs: &[FunctionId] = if a.quick {
        &[FunctionId::helloworld, FunctionId::pyaes]
    } else {
        &[
            FunctionId::helloworld,
            FunctionId::chameleon,
            FunctionId::pyaes,
            FunctionId::json_serdes,
        ]
    };
    let loads: &[usize] = if a.quick { &[1, 10] } else { &[1, 2, 4, 10] };
    let shards = 2;
    // Queue depth sized to what the shared disk serves inside BUDGET;
    // the token bucket caps any single function's share of a burst.
    let admission = AdmissionConfig {
        max_queue_depth: Some(funcs.len()),
        shed_policy: ShedPolicy::RejectNewest,
        rate_limit: Some(RateLimit {
            burst: 4.0,
            per_sec: 200.0,
        }),
    };

    let mut t = Table::new(&[
        "load",
        "admission",
        "offered",
        "goodput",
        "completed",
        "shed_queue_full",
        "shed_rate_limited",
        "shed_brownout",
        "deadline_exceeded",
        "makespan_ms",
    ]);
    t.numeric();

    let mut goodput_at = |on: bool, load: usize| -> u64 {
        let mut c = ClusterOrchestrator::new(seed, shards);
        for &f in funcs {
            c.register(f);
            c.invoke_record(f);
        }
        c.set_admission(on.then_some(admission));
        let reqs = burst(funcs, load);
        let batch = c.invoke_concurrent(&reqs);
        assert_eq!(
            batch.dispositions.len(),
            reqs.len(),
            "every request must resolve to an explicit disposition"
        );
        let counts = tally(&batch.dispositions);
        assert_eq!(
            counts.completed
                + counts.shed_queue_full
                + counts.shed_rate_limited
                + counts.shed_brownout
                + counts.deadline_exceeded,
            reqs.len(),
            "disposition table must account for every request"
        );
        assert_eq!(batch.served.len(), batch.outcomes.len());
        t.row(&[
            &load.to_string(),
            if on { "on" } else { "off" },
            &reqs.len().to_string(),
            &batch.goodput().to_string(),
            &counts.completed.to_string(),
            &counts.shed_queue_full.to_string(),
            &counts.shed_rate_limited.to_string(),
            &counts.shed_brownout.to_string(),
            &counts.deadline_exceeded.to_string(),
            &format!("{:.1}", batch.makespan.as_millis_f64()),
        ]);
        batch.goodput()
    };

    let (mut on, mut off) = (0, 0);
    for &load in loads {
        on = goodput_at(true, load);
        off = goodput_at(false, load);
    }
    let load = loads[loads.len() - 1];
    assert!(
        on as f64 >= 1.5 * off as f64,
        "goodput with admission on ({on}) must be at least 1.5x \
         admission off ({off}) at {load}x load"
    );
    let ratio_line =
        format!("At {load}x load admission lifts goodput {on} vs {off} (>= 1.5x, asserted).");

    crate::emit(
        &format!(
            "Overload sweep: {} functions, {shards} shards, {:.0} ms budget, seed {seed:#x}",
            funcs.len(),
            BUDGET.as_millis_f64(),
        ),
        &format!(
            "Every offered request resolves to an explicit disposition \
             (asserted per row: completed + shed + expired == offered; no\n\
             request ever hangs). Shedding early keeps the shared disk \
             inside the deadline budget for the survivors. {ratio_line}"
        ),
        &t,
    );
    Ok(())
}
