//! The five serving workloads, the rig they run on, and the checks every
//! op's output must pass.
//!
//! Load shape, all workloads: a closed loop with one client — the next
//! op is issued when the previous one returned. One op is one
//! `ClusterOrchestrator::invoke_concurrent` batch (`deploy_churn` first
//! redeploys a function). Two shards, so the cluster's own lane fan-out
//! stays within the two cores this box reports.

use std::time::{Duration, Instant};

use functionbench::FunctionId;
use sim_core::{DetRng, MetricsRegistry, SimDuration, SimTime};
use sim_storage::FileStore;
use vhive_cluster::{AdmissionConfig, ClusterBatch, ClusterOrchestrator, ColdRequest, ShedPolicy};
use vhive_core::{ColdPolicy, Disposition, InvocationOutcome};
use vhive_telemetry::TelemetrySink;

use crate::stats::SimDigest;
use crate::trace::Tracer;

/// The serving set: `bench-json`'s four light functions (8-20 MB working
/// sets, spread over both shards).
pub const F4: [FunctionId; 4] = [
    FunctionId::helloworld,
    FunctionId::chameleon,
    FunctionId::pyaes,
    FunctionId::json_serdes,
];

pub const SHARDS: usize = 2;

/// Seed of every cluster the benchmark builds: the figure binaries' seed.
///
/// `--seed` does not reach the cluster. It chooses what the cluster is
/// asked (function order, arrival jitter); what the cluster *holds* —
/// snapshot contents, page layout, per-function input streams — stays
/// fixed, because it decides how much host work a cold start is: with the
/// cluster seeded from `--seed`, `requests_per_s` spread 7 % across ten
/// seeds against 2.3 % across ten runs of one seed.
pub const CLUSTER_SEED: u64 = 0xA5_1405;

#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    /// Why the workload exists: which layers it stresses, and what it
    /// holds still.
    pub why: &'static str,
    pub policy: ColdPolicy,
    /// Requests per op, cycling through the run's function order.
    pub batch: usize,
    /// Shadow snapshot identities (§6.5's independent functions) or the
    /// function's real files, sharing page-cache state on the timed disk.
    pub independent: bool,
    /// Each op first re-registers and re-records one function.
    pub redeploy: bool,
    /// Virtual-time latency budget per request; arrivals are then spaced
    /// 100 µs apart.
    pub deadline: Option<SimDuration>,
    pub admission: AdmissionConfig,
    /// Frame-cache budget; `None` = unbounded.
    pub cache_budget: Option<u64>,
    /// Untimed ops between set-up and the timed loop. One warm-up op fills
    /// the frame cache, but op walls keep falling for about this many more
    /// (allocator arenas and per-input cache entries settling); timing them
    /// would fold a start-up ramp into every median.
    pub ramp_ops: u64,
    /// Ops from the start of the timed loop whose simulated outcomes make
    /// up `sim_*` and `sim_digest`. The loop is timed, so the op count
    /// varies with the host; this prefix does not.
    pub sim_ops: u64,
}

pub const OPEN_ADMISSION: AdmissionConfig = AdmissionConfig {
    max_queue_depth: None,
    shed_policy: ShedPolicy::RejectNewest,
    rate_limit: None,
};

const fn serve(
    name: &'static str,
    why: &'static str,
    policy: ColdPolicy,
    batch: usize,
    ramp_ops: u64,
    sim_ops: u64,
) -> Workload {
    Workload {
        name,
        why,
        policy,
        batch,
        independent: true,
        redeploy: false,
        deadline: None,
        admission: OPEN_ADMISSION,
        cache_budget: None,
        ramp_ops,
        sim_ops,
    }
}

pub const WORKLOADS: [Workload; 5] = [
    serve(
        "reap_hot",
        "REAP cold starts with every snapshot frame cached: restore_shell, alias install, verify and cluster plumbing do the work; storage copies almost none.",
        ColdPolicy::Reap,
        16,
        12,
        20,
    ),
    Workload {
        cache_budget: Some(32 << 20),
        ..serve(
            "reap_thrash",
            "The same requests with the frame cache capped at half its footprint: misses, evictions and storage-to-guest copies do the work; must stay flat when only reap_hot is tuned.",
            ColdPolicy::Reap,
            8,
            2,
            4,
        )
    },
    serve(
        "vanilla_fault",
        "The paper's baseline: thousands of on-demand fault runs and FaultRead timeline steps per request instead of one prefetch, through the same monitor, uffd and timeline.",
        ColdPolicy::Vanilla,
        16,
        6,
        12,
    ),
    Workload {
        independent: false,
        redeploy: true,
        ..serve(
            "deploy_churn",
            "Writes beside reads: each round re-registers and re-records a function (boot, capture, WS-file build, store writes, cache invalidation), then serves first-touch misses.",
            ColdPolicy::Reap,
            4,
            4,
            4,
        )
    },
    Workload {
        independent: false,
        // The served requests of a burst complete in two clusters, 239-253
        // and 267-321 virtual ms after arrival; 260 ms sits in the gap, so
        // which side of the deadline a request lands on does not hinge on
        // arrival jitter.
        deadline: Some(SimDuration::from_millis(260)),
        admission: AdmissionConfig {
            max_queue_depth: Some(6),
            shed_policy: ShedPolicy::RejectOverDeadline,
            rate_limit: None,
        },
        ..serve(
            "storm_shed",
            "Overload: 2048-request bursts against a 6-deep queue per shard; admission, shedding, deadline classification and 2k unserved spans per burst, which no other workload enters.",
            ColdPolicy::Reap,
            2048,
            12,
            20,
        )
    },
];

impl Workload {
    /// The workload with its fixed op counts scaled by `--scale` (rounded
    /// up, at least one). Runs at different scales are not comparable:
    /// the simulated prefix differs.
    pub fn scaled(&self, scale: f64) -> Workload {
        let n = |ops: u64| ((ops as f64 * scale).ceil() as u64).max(1);
        Workload {
            ramp_ops: n(self.ramp_ops),
            sim_ops: n(self.sim_ops),
            ..*self
        }
    }

    /// Whether a timed loop that has spent `busy` on `ops` ops goes on:
    /// until the budget is spent *and* the simulated prefix is served —
    /// and, since a redeploy round costs what its function costs, only
    /// ever stopping on a whole cycle through the functions.
    pub fn goes_on(&self, busy: Duration, budget: Duration, ops: u64) -> bool {
        busy < budget
            || ops < self.sim_ops
            || (self.redeploy && !ops.is_multiple_of(F4.len() as u64))
    }
}

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Which observers are attached. `Off` is the baseline
/// `observability.overhead_pct` is measured against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layers {
    /// Telemetry sink, metrics registry and admission layer attached.
    On,
    /// No sink, no registry; admission only where the workload bounds
    /// its queue (without it `storm_shed` would be a different workload).
    Off,
}

/// A cluster serving one workload, with the observers it reports into.
pub struct Rig {
    pub cluster: ClusterOrchestrator,
    pub sink: TelemetrySink,
    pub registry: MetricsRegistry,
    workload: Workload,
    seed: u64,
    /// Per op served so far, the indices of the requests that were served
    /// (all of them, except under a bounded queue). The traced run's twin
    /// repeats exactly those.
    pub served: Vec<Vec<usize>>,
}

impl Rig {
    /// Deploys `F4` on a fresh two-shard cluster: register + record.
    pub fn deploy(w: &Workload, seed: u64, layers: Layers) -> Rig {
        let mut cluster = ClusterOrchestrator::new(CLUSTER_SEED, SHARDS);
        let sink = TelemetrySink::new(FileStore::new());
        let registry = MetricsRegistry::new();
        if layers == Layers::On {
            cluster.set_telemetry(Some(sink.clone()));
            cluster.set_metrics(Some(registry.clone()));
        }
        if layers == Layers::On || w.admission.max_queue_depth.is_some() {
            cluster.set_admission(Some(w.admission));
        }
        cluster.set_frame_cache_budget(w.cache_budget);
        for f in F4 {
            cluster.register(f);
            cluster.invoke_record(f);
        }
        Rig {
            cluster,
            sink,
            registry,
            workload: *w,
            seed,
            served: Vec::new(),
        }
    }

    /// What `setup_s` times: [`deploy`](Self::deploy) plus one warm-up op,
    /// which fills the frame cache.
    pub fn build(w: &Workload, seed: u64, layers: Layers) -> Rig {
        let mut rig = Rig::deploy(w, seed, layers);
        rig.next_op(&mut Tracer::off());
        rig
    }

    /// Serves the workload's untimed ramp ops.
    pub fn ramp(&mut self) {
        for _ in 0..self.workload.ramp_ops {
            self.next_op(&mut Tracer::off());
        }
    }

    /// Runs the next op. The spans are the opaque pass of the traced run:
    /// one root per op, one child per public cluster call.
    pub fn next_op(&mut self, tracer: &mut Tracer) -> OpResult {
        let op = self.served.len() as u64;
        let reqs = requests(&self.workload, self.seed, op);
        let started = Instant::now();
        let root = tracer.begin("op", op, None);
        // The warm-up op never redeploys: `deploy` has just done so for
        // every function, and a redeploy there would make `setup_s` depend
        // on which function the seed's order starts with.
        let record = (self.workload.redeploy && op > 0).then(|| {
            let f = reqs[0].function;
            let span = tracer.begin("cluster.register", op, root);
            self.cluster.register(f);
            tracer.end(span);
            let span = tracer.begin("cluster.invoke_record", op, root);
            let outcome = self.cluster.invoke_record(f);
            tracer.end(span);
            outcome
        });
        let span = tracer.begin("cluster.invoke_concurrent", op, root);
        let batch = self.cluster.invoke_concurrent(&reqs);
        tracer.end(span);
        tracer.end(root);
        let wall = started.elapsed();
        self.served.push(batch.served.clone());
        OpResult {
            wall,
            reqs,
            batch,
            record,
        }
    }
}

/// The function order of a run: `F4` permuted by the seed.
fn mix(seed: u64) -> [FunctionId; 4] {
    let mut order = F4;
    DetRng::new(seed).shuffle(&mut order);
    order
}

/// The requests of op `op` (counted from the warm-up op, op 0): the
/// seed's function order, cycled through the batch; a redeploy round
/// serves the one function it redeployed, taking the order's functions in
/// turn.
/// Arrivals are jittered by up to 100 µs from `(seed, op)`, on top of the
/// 100 µs spacing of a deadline workload's burst.
///
/// The order is fixed per run, not per op, so that every op of a run
/// offers the same mix in the same sequence: under a tight cache budget
/// or a bounded queue, which function follows which decides how much
/// work an op is, and a per-op shuffle would make op walls incomparable.
pub fn requests(w: &Workload, seed: u64, op: u64) -> Vec<ColdRequest> {
    let order = mix(seed);
    let mut jitter = DetRng::new(seed).fork(op);
    let spacing = if w.deadline.is_some() { 100_000 } else { 0 };
    (0..w.batch)
        .map(|i| {
            let f = order[if w.redeploy && op > 0 { op as usize } else { i } % order.len()];
            ColdRequest {
                independent: w.independent,
                arrival: SimTime::ZERO
                    + SimDuration::from_nanos(spacing * i as u64 + jitter.gen_range(100_000)),
                deadline: w.deadline,
                ..ColdRequest::shared(f, w.policy)
            }
        })
        .collect()
}

/// What one op produced.
pub struct OpResult {
    /// Host wall-clock of the whole op.
    pub wall: Duration,
    pub reqs: Vec<ColdRequest>,
    pub batch: ClusterBatch,
    /// `deploy_churn`: the round's record invocation.
    pub record: Option<InvocationOutcome>,
}

impl OpResult {
    /// Requests the op offered (a redeploy round counts its record).
    pub fn offered(&self) -> u64 {
        self.reqs.len() as u64 + u64::from(self.record.is_some())
    }
}

/// Operation counts and the simulated-outcome summary of a run.
pub struct Tally {
    /// Requests offered.
    pub attempted: u64,
    /// Requests without an explicit disposition, served outcomes that
    /// verified no page, and — where the workload sets no deadline and
    /// bounds no queue — anything not completed.
    pub failed: u64,
    pub completed: u64,
    pub shed: u64,
    pub deadline_exceeded: u64,
    /// Over the first `sim_ops` ops only.
    sim: SimSummary,
}

#[derive(Default)]
struct SimSummary {
    ops: u64,
    offered: u64,
    goodput: u64,
    served: u64,
    latency_ms_sum: f64,
}

impl Tally {
    pub fn new() -> Self {
        Tally {
            attempted: 0,
            failed: 0,
            completed: 0,
            shed: 0,
            deadline_exceeded: 0,
            sim: SimSummary::default(),
        }
    }

    /// Checks the output of timed op `op` and folds it in; ops inside the
    /// simulated prefix also feed `digest`.
    pub fn absorb(&mut self, w: &Workload, op: u64, r: &OpResult, digest: &mut SimDigest) {
        let b = &r.batch;
        self.attempted += r.offered();
        // Every offered request resolves to exactly one disposition, and
        // every served one maps back to a request.
        let covered = b.dispositions.len() == r.reqs.len()
            && b.outcomes.len() == b.served.len()
            && b.served.iter().all(|&i| i < r.reqs.len());
        if !covered {
            self.failed += r.reqs.len() as u64;
            return;
        }
        let by_design = w.deadline.is_some() || w.admission.max_queue_depth.is_some();
        for d in &b.dispositions {
            match d {
                Disposition::Completed => self.completed += 1,
                Disposition::Shed { .. } => self.shed += 1,
                Disposition::DeadlineExceeded => self.deadline_exceeded += 1,
            }
            if !by_design && !d.is_goodput() {
                self.failed += 1;
            }
        }
        let unverified = |o: &InvocationOutcome| o.verified_pages == 0;
        self.failed += b.outcomes.iter().filter(|o| unverified(o)).count() as u64;
        if let Some(rec) = &r.record {
            self.completed += 1;
            self.failed += u64::from(unverified(rec) || !rec.recorded);
        }

        if op < w.sim_ops {
            let s = &mut self.sim;
            s.ops += 1;
            s.offered += r.offered();
            s.goodput += b.goodput() + u64::from(r.record.is_some());
            for o in r.record.iter().chain(&b.outcomes) {
                s.served += 1;
                s.latency_ms_sum += o.latency.as_millis_f64();
                digest.update(o);
            }
            digest.update(&b.dispositions);
            digest.update(&b.makespan);
        }
    }

    /// Ops folded into the simulated prefix so far.
    pub fn sim_ops(&self) -> u64 {
        self.sim.ops
    }

    /// Mean virtual end-to-end latency of served requests, ms.
    pub fn sim_latency_ms_mean(&self) -> f64 {
        self.sim.latency_ms_sum / self.sim.served.max(1) as f64
    }

    /// Completed within deadline / offered.
    pub fn sim_goodput_share(&self) -> f64 {
        self.sim.goodput as f64 / self.sim.offered.max(1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_are_a_pure_function_of_the_seed() {
        let w = workload("storm_shed").unwrap();
        let key =
            |rs: &[ColdRequest]| -> Vec<FunctionId> { rs.iter().map(|r| r.function).collect() };
        let arrivals =
            |rs: &[ColdRequest]| -> Vec<SimTime> { rs.iter().map(|r| r.arrival).collect() };
        let a = requests(w, 7, 3);
        assert_eq!(
            (key(&a), arrivals(&a)),
            (key(&requests(w, 7, 3)), arrivals(&requests(w, 7, 3)))
        );
        assert_eq!(key(&a), key(&requests(w, 7, 4)), "one order per run");
        assert_ne!(arrivals(&a), arrivals(&requests(w, 7, 4)), "jitter per op");
        assert_ne!(
            arrivals(&a),
            arrivals(&requests(w, 8, 3)),
            "jitter per seed"
        );
        assert!(
            (8..40).any(|seed| key(&requests(w, seed, 3)) != key(&a)),
            "the seed picks the order"
        );
        assert_eq!(a.len(), 2048);
        assert!(a.iter().all(|r| r.deadline == w.deadline && !r.independent));
        assert!(a.windows(2).all(|p| p[0].arrival <= p[1].arrival));
        for f in F4 {
            assert_eq!(a.iter().filter(|r| r.function == f).count(), 512);
        }
    }

    #[test]
    fn deploy_rounds_take_the_functions_in_turn() {
        let w = workload("deploy_churn").unwrap();
        let mut seen = std::collections::BTreeSet::new();
        let warm_up = requests(w, 1, 0);
        assert_eq!(
            warm_up
                .iter()
                .map(|r| r.function.name())
                .collect::<std::collections::BTreeSet<_>>()
                .len(),
            4
        );
        for op in 1..5 {
            let rs = requests(w, 1, op);
            assert_eq!(rs.len(), 4);
            assert!(rs.iter().all(|r| r.function == rs[0].function));
            assert_eq!(rs[0].function, requests(w, 1, op + 4)[0].function);
            seen.insert(rs[0].function.name());
        }
        assert_eq!(seen.len(), 4);
    }
}
