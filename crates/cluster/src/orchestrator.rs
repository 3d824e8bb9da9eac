//! The sharded orchestrator and its concurrent serving path.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use functionbench::FunctionId;
use sim_core::metrics::labeled;
use sim_core::{MetricsRegistry, SimDuration, SimTime, TokenBucket};
use sim_storage::{
    DeviceProfile, DiskStats, FaultInjector, FaultKind, FaultPlan, FaultRule, FaultScope,
    FileStore, FrameCacheStats, SnapshotFrameCache,
};
use vhive_core::{
    ColdAbort, ColdPolicy, ColdRequest, Disposition, InstanceFiles,
    InvocationOutcome, Orchestrator, PreparedCold, RegisterInfo, ReapFiles,
};
use vhive_telemetry::TelemetrySink;

use crate::admission::{self, AdmissionConfig};
use crate::shard_for;

/// One busy shard's slice of a concurrent batch: the shard's index, the
/// shard itself, and its `(request index, request)` work list.
type ShardWork<'a> = (usize, &'a mut Orchestrator, Vec<(usize, ColdRequest)>);

/// Health of one shard, exposed in batch stats and steered around by the
/// router.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardHealth {
    /// Serving normally.
    Healthy,
    /// Served at least one invocation only after transient-fault retries.
    Degraded,
    /// Storage unreachable; requests are routed past it and its functions
    /// rebuilt on survivors.
    Dead,
}

/// Result of one concurrent batch: per-request outcomes plus the shared
/// disk's counters and the batch-level timings.
#[derive(Debug)]
pub struct ClusterBatch {
    /// Outcomes of the **served** requests, in request order. Each
    /// carries the **batch's** disk statistics (instances share one
    /// disk; per-instance attribution does not exist on real hardware
    /// either). Without an admission layer or deadlines this is every
    /// request; otherwise `served[j]` maps `outcomes[j]` back to its
    /// request index and `dispositions` covers the rest.
    pub outcomes: Vec<InvocationOutcome>,
    /// Explicit final state of **every** request, in request order —
    /// nothing is silently dropped or hung. All `Completed` when the
    /// overload layer is off.
    pub dispositions: Vec<Disposition>,
    /// Request indices of `outcomes` (ascending). `served.len() ==
    /// outcomes.len()`; a request absent here was shed or aborted
    /// mid-recovery and has no outcome.
    pub served: Vec<usize>,
    /// Counters of the shared timed disk for the whole batch.
    pub disk_stats: DiskStats,
    /// Simulated time until the last instance finished.
    pub makespan: SimDuration,
    /// Wall-clock time the control plane spent serving the batch
    /// (functional passes + program compilation + the merged timed pass).
    /// This is the axis sharding improves; simulated time is not affected
    /// by shard count (pinned by proptests).
    pub serve_wall: Duration,
    /// Per-shard health after the batch (index = shard index).
    pub shard_health: Vec<ShardHealth>,
}

impl ClusterBatch {
    /// Requests that completed within their deadline (all served
    /// requests when no deadlines were set) — the batch's goodput.
    pub fn goodput(&self) -> u64 {
        self.dispositions.iter().filter(|d| d.is_goodput()).count() as u64
    }
}

/// The sharded control plane: N shards, each a full
/// [`Orchestrator`] over its own namespaced snapshot store, fronted by
/// one dispatch surface. See the crate docs for the design.
#[derive(Debug)]
pub struct ClusterOrchestrator {
    shards: Vec<Orchestrator>,
    seed: u64,
    health: Vec<ShardHealth>,
    /// Every placed function and the one shard that holds its state.
    placed: HashMap<FunctionId, usize>,
    /// Cluster-level metrics (health transitions, reroutes); off by
    /// default, broadcast to shards by [`Self::set_metrics`].
    metrics: Option<MetricsRegistry>,
    /// Admission control for concurrent batches; off by default.
    admission: Option<AdmissionConfig>,
    /// Persistent per-function rate-limiter state (advances across
    /// batches on request arrival instants).
    rate_buckets: HashMap<FunctionId, TokenBucket>,
}

impl ClusterOrchestrator {
    /// Creates a cluster of `shards` shards over the paper's default
    /// platform. Every shard gets the same seed, so a function's state
    /// depends only on `(seed, function)` — never on the shard geometry.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero.
    pub fn new(seed: u64, shards: usize) -> Self {
        ClusterOrchestrator::with_device(seed, DeviceProfile::ssd_sata3(), shards)
    }

    /// Same, with a different (shared) snapshot storage device.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero.
    pub fn with_device(seed: u64, device: DeviceProfile, shards: usize) -> Self {
        assert!(shards > 0, "cluster needs at least one shard");
        // ONE frame cache for the whole cluster: per-shard store
        // namespacing keeps `(FileId, extent)` keys disjoint, so
        // concurrent batches of the same function hit it from every lane
        // regardless of which shard owns the function.
        let frame_cache = Arc::new(SnapshotFrameCache::new());
        let shards = (0..shards)
            .map(|k| {
                Orchestrator::with_shared_cache(
                    seed,
                    device.clone(),
                    FileStore::with_namespace(k as u32),
                    frame_cache.clone(),
                )
            })
            .collect::<Vec<_>>();
        let health = vec![ShardHealth::Healthy; shards.len()];
        ClusterOrchestrator {
            shards,
            seed,
            health,
            placed: HashMap::new(),
            metrics: None,
            admission: None,
            rate_buckets: HashMap::new(),
        }
    }

    /// Attaches (or detaches, with `None`) admission control for
    /// concurrent batches: bounded per-shard admission queues, the
    /// per-function token-bucket rate limiter, and brownout shedding on
    /// [`ShardHealth::Degraded`] shards (see [`crate::admission`]).
    /// Re-attaching resets the rate-limiter buckets. Off by default —
    /// and the *admitted* subset of any batch is served byte-identically
    /// to a run submitted with exactly that subset and no admission
    /// layer (pinned by this crate's proptests).
    pub fn set_admission(&mut self, config: Option<AdmissionConfig>) {
        self.admission = config;
        self.rate_buckets.clear();
    }

    /// The attached admission configuration, if any.
    pub fn admission(&self) -> Option<AdmissionConfig> {
        self.admission
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// The cluster seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Home shard index of `f` (the hash placement, health-blind).
    pub fn shard_of(&self, f: FunctionId) -> usize {
        shard_for(f, self.shards.len())
    }

    /// The shard `f` is served from: the shard holding its state while
    /// that shard is alive. Otherwise — a new placement, or a dead
    /// holder's rebuild — the first **healthy** shard probing forward
    /// from its hash home (brownout steering: Degraded shards receive no
    /// new work while a healthy alternative exists), else the first live
    /// shard. Probes wrap around. A Degraded holder keeps serving its
    /// functions: moving state is failover's job.
    ///
    /// # Panics
    ///
    /// Panics if every shard is dead.
    pub fn route_of(&self, f: FunctionId) -> usize {
        if let Some(&s) = self.placed.get(&f) {
            if self.health[s] != ShardHealth::Dead {
                return s;
            }
        }
        let home = self.shard_of(f);
        let n = self.shards.len();
        let probe = |ok: fn(ShardHealth) -> bool| {
            (0..n).map(|k| (home + k) % n).find(|&i| ok(self.health[i]))
        };
        probe(|h| h == ShardHealth::Healthy)
            .or_else(|| probe(|h| h != ShardHealth::Dead))
            .unwrap_or_else(|| panic!("all {n} shards are dead; nowhere to route {f}"))
    }

    /// The shard orchestrator at `index` (read-only).
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn shard(&self, index: usize) -> &Orchestrator {
        &self.shards[index]
    }

    /// The shard currently serving `f` (read-only; routes past dead
    /// shards).
    pub fn shard_for_fn(&self, f: FunctionId) -> &Orchestrator {
        &self.shards[self.route_of(f)]
    }

    /// Routes `f` ([`route_of`](Self::route_of)), records the shard as
    /// its holder, and returns it with whether `f`'s state was rebuilt
    /// there. State moves only off a dead holder: the new shard rebuilds
    /// from the holder's in-memory registry (same seed ⇒ bit-identical
    /// snapshot; the record replays at its pinned seq), and the dead
    /// holder then drops `f`, so at most one shard ever holds a
    /// function's state.
    fn place(&mut self, f: FunctionId) -> (usize, bool) {
        let idx = self.route_of(f);
        let mut rebuilt = false;
        if let Some(src) = self.placed.insert(f, idx).filter(|&src| src != idx) {
            if let Some(meta) = self.shards[src].export_rebuild_meta(f) {
                self.shards[idx].rebuild_from(f, meta);
                self.shards[src].unregister(f);
                rebuilt = true;
            }
        }
        (idx, rebuilt)
    }

    fn holder_mut(&mut self, f: FunctionId) -> &mut Orchestrator {
        let (idx, _) = self.place(f);
        &mut self.shards[idx]
    }

    /// Health of shard `index`.
    pub fn shard_health(&self, index: usize) -> ShardHealth {
        self.health[index]
    }

    /// Per-shard health, index = shard index.
    pub fn health(&self) -> &[ShardHealth] {
        &self.health
    }

    /// Records a shard health transition (counter keyed by the new state,
    /// plus the `shards_healthy` gauge). No-op without a registry.
    fn note_health_transition(&self, to: &str) {
        if let Some(m) = &self.metrics {
            m.inc(&labeled("shard_health_transitions_total", &[("to", to)]));
            let healthy = self
                .health
                .iter()
                .filter(|&&h| h == ShardHealth::Healthy)
                .count();
            m.set_gauge("shards_healthy", healthy as i64);
        }
    }

    /// Kills shard `index`: marks it [`ShardHealth::Dead`] and blacks out
    /// its snapshot store (every fault-aware access fails, files present
    /// as gone), exactly the signature of a worker losing its disk. Any
    /// injector previously attached to that store is replaced. The
    /// shard keeps its in-memory registry, which directs each of its
    /// functions' rebuild on a survivor at the function's next use;
    /// queued requests re-route.
    pub fn fail_shard(&mut self, index: usize) {
        self.health[index] = ShardHealth::Dead;
        self.note_health_transition("dead");
        let blackout = FaultInjector::new(FaultPlan::new().rule(FaultRule::new(
            FaultScope::Namespace(index as u32),
            FaultKind::Blackout,
        )));
        self.shards[index].fs().attach_injector(Arc::new(blackout));
    }

    /// Revives shard `index`: detaches the blackout and marks it healthy
    /// again. It serves the functions it still holds (those not used
    /// while it was dead); the ones rebuilt elsewhere stay where their
    /// state now lives.
    pub fn revive_shard(&mut self, index: usize) {
        self.shards[index].fs().detach_injector();
        self.health[index] = ShardHealth::Healthy;
        self.note_health_transition("healthy");
    }

    /// The cluster-wide snapshot frame cache (all shards share one
    /// instance; see [`Orchestrator::frame_cache`]).
    pub fn frame_cache(&self) -> &Arc<SnapshotFrameCache> {
        self.shards[0].frame_cache()
    }

    /// Hit/miss/size counters of the shared frame cache.
    pub fn frame_cache_stats(&self) -> FrameCacheStats {
        self.frame_cache().stats()
    }

    /// Enables/disables the shared frame cache on every shard (see
    /// [`Orchestrator::set_frame_cache_enabled`]; simulated outcomes are
    /// identical either way, pinned by this crate's proptests).
    pub fn set_frame_cache_enabled(&mut self, enabled: bool) {
        for shard in &mut self.shards {
            shard.set_frame_cache_enabled(enabled);
        }
    }

    /// Caps the **cluster-wide** cache's deduplicated content bytes —
    /// one budget for all shards, since they share one cache (see
    /// [`Orchestrator::set_frame_cache_budget`]). `None` = unbounded.
    /// Simulated outcomes are byte-identical at any budget (pinned by
    /// this crate's proptests); only resident cache bytes and wall-clock
    /// change.
    pub fn set_frame_cache_budget(&self, budget_bytes: Option<u64>) {
        self.frame_cache().set_budget(budget_bytes);
    }

    /// Drops every cached snapshot frame cluster-wide (the functional
    /// analogue of the paper's `drop_caches` methodology, §4.1).
    pub fn drop_caches(&mut self) {
        self.frame_cache().clear();
    }

    /// Attaches (or detaches, with `None`) one telemetry sink to every
    /// shard; each shard's spans carry its index (its store's
    /// namespace). Delegated invocations emit from their serving shard;
    /// cold batches emit in request order after the shared timed pass,
    /// tagged with the shard that actually served each request
    /// (failover included).
    /// Simulated outcomes are byte-identical with telemetry on or off
    /// (pinned by the invariance proptests).
    pub fn set_telemetry(&mut self, sink: Option<TelemetrySink>) {
        for shard in &mut self.shards {
            shard.set_telemetry(sink.clone());
        }
    }

    /// Attaches (or detaches, with `None`) one metrics registry to every
    /// shard — per-invocation and storage metrics aggregate fleet-wide
    /// into the shared registry — plus the cluster-level series (shard
    /// health transitions, reroutes, the `shards_healthy` gauge). Off by
    /// default; simulated outcomes are byte-identical with metrics on or
    /// off (pinned by the invariance proptests).
    pub fn set_metrics(&mut self, metrics: Option<MetricsRegistry>) {
        for shard in &mut self.shards {
            shard.set_metrics(metrics.clone());
        }
        self.metrics = metrics;
        if let Some(m) = &self.metrics {
            let healthy = self
                .health
                .iter()
                .filter(|&&h| h == ShardHealth::Healthy)
                .count();
            m.set_gauge("shards_healthy", healthy as i64);
        }
    }

    /// The attached metrics registry, if any.
    pub fn metrics(&self) -> Option<&MetricsRegistry> {
        self.metrics.as_ref()
    }

    /// Registers `f` on the shard [`route_of`](Self::route_of) picks
    /// (boot + snapshot capture). A redeploy replaces `f`'s state, so a
    /// dead holder's copy is dropped, not rebuilt on the new shard first.
    pub fn register(&mut self, f: FunctionId) -> RegisterInfo {
        let idx = self.route_of(f);
        if let Some(src) = self.placed.insert(f, idx).filter(|&src| src != idx) {
            self.shards[src].unregister(f);
        }
        self.shards[idx].register(f)
    }

    /// Removes `f` from the shard holding it, deleting its files.
    pub fn unregister(&mut self, f: FunctionId) {
        if let Some(idx) = self.placed.remove(&f) {
            self.shards[idx].unregister(f);
        }
    }

    /// True if `f` has a recorded working set on its home shard.
    pub fn has_ws(&self, f: FunctionId) -> bool {
        self.shard_for_fn(f).has_ws(f)
    }

    /// True if `f`'s working set was flagged stale (§7.2).
    pub fn needs_rerecord(&self, f: FunctionId) -> bool {
        self.shard_for_fn(f).needs_rerecord(f)
    }

    /// Record-mode cold invocation on the home shard (§5.2.1).
    pub fn invoke_record(&mut self, f: FunctionId) -> InvocationOutcome {
        self.holder_mut(f).invoke_record(f)
    }

    /// One cold invocation: a batch of one through
    /// [`invoke_concurrent`](Self::invoke_concurrent), so a home shard
    /// whose store is lost fails over exactly as in a batch.
    ///
    /// # Panics
    ///
    /// As [`invoke_concurrent`](Self::invoke_concurrent), or if attached
    /// admission control sheds the request — there is no outcome to
    /// return.
    pub fn invoke_cold(&mut self, f: FunctionId, policy: ColdPolicy) -> InvocationOutcome {
        let mut batch = self.invoke_concurrent(&[ColdRequest::shared(f, policy)]);
        batch.outcomes.pop().unwrap_or_else(|| panic!("{f}: {}", batch.dispositions[0]))
    }

    /// One warm invocation on the home shard.
    pub fn invoke_warm(&mut self, f: FunctionId) -> InvocationOutcome {
        self.holder_mut(f).invoke_warm(f)
    }

    /// §8.2's working-set padding ablation, on the home shard.
    ///
    /// # Panics
    ///
    /// As [`Orchestrator::pad_working_set`].
    pub fn pad_working_set(&mut self, f: FunctionId, extra_pages: u64) -> ReapFiles {
        self.holder_mut(f).pad_working_set(f, extra_pages)
    }

    /// Fresh shadow identities for `f` from its home shard's namespaced
    /// allocator — globally collision-free across shards.
    pub fn shadow_files(&mut self, f: FunctionId) -> (InstanceFiles, Option<ReapFiles>) {
        self.holder_mut(f).shadow_files(f)
    }

    /// Serves a batch of cold invocations concurrently.
    ///
    /// The *functional* passes fan out across scoped threads — shards are
    /// dealt into contiguous, request-count-balanced lanes
    /// ([`sim_core::partition_by_weight`]) and the lane count is gated on
    /// the host's parallelism ([`sim_core::effective_lanes`]). Each
    /// thread touches only its own shards' state, so results are
    /// deterministic and shard-count invariant.
    ///
    /// The *timed* passes are then merged onto **one** timeline over one
    /// shared disk (and one shared CPU pool): simulated queueing under
    /// concurrency emerges across shard boundaries, exactly as instances
    /// on one worker share the device in §6.5.
    ///
    /// ## Failover
    ///
    /// A shard whose snapshot store is unreachable (blackout, persistent
    /// faults) fails its requests with
    /// [`ShardUnavailable`](vhive_core::ShardUnavailable); the batch
    /// marks the shard [`ShardHealth::Dead`], rebuilds the affected
    /// functions on the next live shard (same seed ⇒ bit-identical
    /// snapshot; the record invocation replays at its pinned seq), and
    /// re-queues the failed requests there in their original order — no
    /// request is ever dropped, and re-routed requests complete with the
    /// same simulated outcome the fault-free run would have produced
    /// (only [`InvocationOutcome::recovery`] differs). Shards that needed
    /// transient-fault retries are marked [`ShardHealth::Degraded`].
    ///
    /// # Panics
    ///
    /// Panics if a request's function is unregistered or uses a prefetch
    /// policy before [`invoke_record`](Self::invoke_record), or if every
    /// shard dies before the batch can be placed.
    pub fn invoke_concurrent(&mut self, reqs: &[ColdRequest]) -> ClusterBatch {
        let started = Instant::now();
        if reqs.is_empty() {
            return ClusterBatch {
                outcomes: Vec::new(),
                dispositions: Vec::new(),
                served: Vec::new(),
                disk_stats: DiskStats::default(),
                makespan: SimDuration::ZERO,
                serve_wall: started.elapsed(),
                shard_health: self.health.clone(),
            };
        }
        let n = reqs.len();
        let overload_aware = self.admission.is_some() || reqs.iter().any(|r| r.deadline.is_some());
        let mut dispositions: Vec<Disposition> = vec![Disposition::Completed; n];
        let mut slots: Vec<Option<PreparedCold>> = (0..n).map(|_| None).collect();
        let mut rerouted = vec![false; n];
        let mut rebuilt = vec![false; n];
        let mut served_by = vec![0usize; n];
        // Every request starts pending; failed ones re-queue for the next
        // round. Each extra round kills at least one shard, so the round
        // count is bounded by the shard count.
        let mut pending: Vec<usize> = (0..n).collect();
        // Admission pre-pass: a pure function of (stream, config,
        // health) run before any seq is consumed or work done, so the
        // admitted subset is served byte-identically to a layer-off run
        // over exactly that subset.
        if let Some(cfg) = self.admission {
            let routes: Vec<usize> = reqs.iter().map(|r| self.route_of(r.function)).collect();
            let decisions =
                admission::admit_batch(&cfg, reqs, &routes, &self.health, &mut self.rate_buckets);
            pending = Vec::new();
            for (i, d) in decisions.into_iter().enumerate() {
                match d {
                    None => pending.push(i),
                    Some(shed) => {
                        dispositions[i] = shed;
                        self.shards[routes[i]].emit_unserved(
                            reqs[i].function,
                            reqs[i].policy,
                            reqs[i].arrival,
                            shed,
                        );
                    }
                }
            }
        }
        let mut rounds = 0usize;
        while !pending.is_empty() {
            assert!(
                rounds <= self.shards.len(),
                "cold batch undeliverable: no live shard can serve it"
            );
            rounds += 1;
            // Group pending requests by routed shard, preserving input
            // order per shard.
            let num_shards = self.shards.len();
            let mut per_shard: Vec<Vec<(usize, ColdRequest)>> = vec![Vec::new(); num_shards];
            for &i in &pending {
                let (dst, moved) = self.place(reqs[i].function);
                rebuilt[i] |= moved;
                rerouted[i] |= moved;
                per_shard[dst].push((i, reqs[i]));
            }
            // Pair every busy shard with its work list, in shard order.
            let mut work: Vec<ShardWork<'_>> = self
                .shards
                .iter_mut()
                .enumerate()
                .zip(per_shard)
                .filter(|(_, w)| !w.is_empty())
                .map(|((k, shard), w)| (k, shard, w))
                .collect();

            let lanes = sim_core::effective_lanes(work.len());
            let results: Vec<(usize, usize, Result<PreparedCold, ColdAbort>)> =
                if lanes <= 1 || work.len() <= 1 {
                    prepare_lane(work)
                } else {
                    let weights: Vec<u64> = work.iter().map(|(_, _, w)| w.len() as u64).collect();
                    let ranges = sim_core::partition_by_weight(&weights, lanes);
                    std::thread::scope(|s| {
                        let mut handles = Vec::with_capacity(ranges.len());
                        // Peel lane groups off the tail so each thread owns
                        // a disjoint, contiguous slice of the busy shards.
                        for &(start, end) in ranges.iter().rev() {
                            let lane_work = work.split_off(start);
                            debug_assert_eq!(lane_work.len(), end - start);
                            handles.push(s.spawn(move || prepare_lane(lane_work)));
                        }
                        debug_assert!(work.is_empty());
                        handles
                            .into_iter()
                            .rev()
                            .flat_map(|h| h.join().expect("shard lane panicked"))
                            .collect()
                    })
                };

            let mut requeue: Vec<usize> = Vec::new();
            for (i, shard_idx, res) in results {
                match res {
                    Ok(mut p) => {
                        // Failover happened (if at all) before this
                        // shard's prepare: the flags are final.
                        p.recovery_mut().rerouted = rerouted[i];
                        p.recovery_mut().rebuilt = rebuilt[i];
                        if p.recovery().transient_retries > 0
                            && self.health[shard_idx] == ShardHealth::Healthy
                        {
                            self.health[shard_idx] = ShardHealth::Degraded;
                            self.note_health_transition("degraded");
                        }
                        served_by[i] = shard_idx;
                        slots[i] = Some(p);
                    }
                    Err(abort) => match self.shards[shard_idx].finish_unserved(&reqs[i], abort) {
                        // Out of budget mid-recovery: the seq was rolled
                        // back, the request resolves here (no requeue).
                        Ok(unserved) => dispositions[i] = unserved,
                        Err(_) => {
                            // The shard's store is unreachable: declare it
                            // dead (replacing any scoped injector with a
                            // full blackout) and re-queue the request.
                            if self.health[shard_idx] != ShardHealth::Dead {
                                self.fail_shard(shard_idx);
                            }
                            rerouted[i] = true;
                            requeue.push(i);
                        }
                    },
                }
            }
            // Failed requests go back in input order; the next round's
            // routing pass re-homes them (and rebuilds their functions)
            // on the surviving shards.
            requeue.sort_unstable();
            pending = requeue;
        }

        // Gather the served requests — all of them when the overload
        // layer is off; the admitted-and-prepared subset otherwise — in
        // request order.
        let mut served: Vec<usize> = Vec::new();
        let mut prepared: Vec<PreparedCold> = Vec::new();
        for (i, slot) in slots.into_iter().enumerate() {
            match slot {
                Some(p) => {
                    served.push(i);
                    prepared.push(p);
                }
                None => assert!(
                    !dispositions[i].is_goodput(),
                    "request {i} neither prepared nor resolved"
                ),
            }
        }
        if let Some(m) = &self.metrics {
            m.add(
                "reroutes_total",
                served.iter().filter(|&&i| rerouted[i]).count() as u64,
            );
        }

        // One shared disk + CPU pool for the whole batch.
        let programs = prepared.iter_mut().map(|p| p.take_program()).collect();
        let mut tl = self.shards[0].timeline();
        let results = tl.run(programs);
        let disk_stats = tl.disk_stats();

        // Finish in request order on the shard that actually served each
        // request, so its span carries that shard's tag.
        let mut makespan = SimDuration::ZERO;
        let mut outcomes: Vec<InvocationOutcome> = Vec::with_capacity(prepared.len());
        for ((p, r), &i) in prepared.into_iter().zip(results).zip(&served) {
            makespan = makespan.max(r.end - SimTime::ZERO);
            let (disposition, outcome) = self.shards[served_by[i]].finish(p, r, disk_stats);
            dispositions[i] = disposition;
            outcomes.push(outcome);
        }
        if overload_aware {
            if let Some(m) = &self.metrics {
                let goodput = dispositions.iter().filter(|d| d.is_goodput()).count();
                m.set_gauge("cluster_goodput", goodput as i64);
            }
        }
        ClusterBatch {
            outcomes,
            dispositions,
            served,
            disk_stats,
            makespan,
            serve_wall: started.elapsed(),
            shard_health: self.health.clone(),
        }
    }
}

/// Runs one lane's shards sequentially: every request's
/// [`Orchestrator::prepare`], in input order per shard. Returns
/// `(request index, shard index, prepared-or-aborted)` — a shard that
/// cannot serve (storage blackout, persistent faults) yields
/// [`ColdAbort::Shard`] for the caller's failover round instead of
/// panicking the lane; a request whose deadline budget runs out
/// mid-recovery yields [`ColdAbort::Deadline`] and resolves without a
/// retry.
fn prepare_lane(work: Vec<ShardWork<'_>>) -> Vec<(usize, usize, Result<PreparedCold, ColdAbort>)> {
    let mut out = Vec::with_capacity(work.iter().map(|(_, _, w)| w.len()).sum());
    for (shard_idx, shard, reqs) in work {
        for (i, r) in reqs {
            out.push((i, shard_idx, shard.prepare(&r)));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delegation_matches_single_orchestrator_behaviour() {
        let f = FunctionId::helloworld;
        let mut c = ClusterOrchestrator::new(7, 3);
        let info = c.register(f);
        assert!(info.boot_footprint_bytes > 0);
        assert!(!c.has_ws(f));
        let rec = c.invoke_record(f);
        assert!(rec.recorded);
        assert!(c.has_ws(f));
        let reap = c.invoke_cold(f, ColdPolicy::Reap);
        assert!(reap.latency < rec.latency);
        let warm = c.invoke_warm(f);
        assert!(warm.latency < reap.latency);
        c.unregister(f);
        assert!(!c.has_ws(f));
    }

    #[test]
    fn concurrent_batch_serves_all_requests_in_order() {
        let mut c = ClusterOrchestrator::new(7, 4);
        let funcs = [FunctionId::helloworld, FunctionId::chameleon, FunctionId::pyaes];
        for f in funcs {
            c.register(f);
            c.invoke_record(f);
        }
        let reqs: Vec<ColdRequest> = (0..9)
            .map(|i| ColdRequest::independent(funcs[i % funcs.len()], ColdPolicy::Reap))
            .collect();
        let batch = c.invoke_concurrent(&reqs);
        assert_eq!(batch.outcomes.len(), 9);
        for (req, out) in reqs.iter().zip(&batch.outcomes) {
            assert_eq!(out.function, req.function, "request order preserved");
            assert_eq!(out.policy, Some(ColdPolicy::Reap));
        }
        assert!(batch.makespan >= batch.outcomes.iter().map(|o| o.latency).max().unwrap());
        assert!(batch.disk_stats.useful_bytes_read > 0);
    }

    #[test]
    fn empty_batch_is_a_noop() {
        let mut c = ClusterOrchestrator::new(7, 2);
        let batch = c.invoke_concurrent(&[]);
        assert!(batch.outcomes.is_empty());
        assert_eq!(batch.makespan, SimDuration::ZERO);
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shard_cluster_rejected() {
        let _ = ClusterOrchestrator::new(1, 0);
    }
}
