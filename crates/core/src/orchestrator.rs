//! The vHive-CRI orchestrator (§3.2, §4.1).
//!
//! Acts as AWS Lambda's MicroManager: the control plane (function
//! registry, snapshot and working-set bookkeeping, instance lifecycle) and
//! the data-plane router that forwards invocations to instances over
//! persistent gRPC connections. Every cold invocation runs a *functional*
//! pass (real bytes through the monitor, §5.2, verified against the
//! snapshot) followed by a *timed* pass (the [`Timeline`] DES), exactly as
//! described in the crate docs.

use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;

use functionbench::{FunctionId, GuestOp, InputGenerator};
use guest_mem::{PageBitmap, PageIdx, PageRun};
use sim_core::hash::fnv1a64_words;
use microvm::{
    run_lazy, run_resident, verify_restored_tracked, BootCostModel, ExecutionTrace, FaultHandler,
    MicroVm, RestoreError, Snapshot, VmConfig,
};
use sim_core::metrics::labeled;
use sim_core::{Deadline, MetricsRegistry, SimDuration, SimTime};
use sim_storage::{
    DeviceProfile, Disk, DiskStats, FaultClass, FileStore, FrameCacheDelta, FrameCacheStats,
    SnapshotFrameCache,
};

use crate::breaker::{BreakerPolicy, BreakerState, CircuitBreaker};
use crate::costs::HostCostModel;
use crate::detect::MispredictionReport;
use crate::invocation::{
    build_cold_program, build_warm_program, Breakdown, ColdPolicy, ColdRunSpec, InstanceFiles,
    InstanceProgram,
};
use crate::monitor::{Monitor, MonitorMode, MonitorStats, PrefetchError};
use crate::overload::{ColdAbort, ColdRequest, DeadlineExpired, Disposition, ShedReason};
use crate::recovery::{AttemptError, RebuildMeta, RecoveryReport, RetryPolicy, ShardUnavailable};
use crate::timeline::Timeline;
use crate::ws_file::{read_trace_file, read_trace_runs, ReapFiles};
use vhive_telemetry::{SpanRecord, TelemetrySink};

/// What `register` produced for a function.
#[derive(Debug, Clone, Copy)]
pub struct RegisterInfo {
    /// The registered function.
    pub function: FunctionId,
    /// Booted-VM footprint in bytes (Fig 4, blue bars).
    pub boot_footprint_bytes: u64,
    /// End-to-end cold-boot latency (§2.2 model).
    pub boot_latency: SimDuration,
}

/// The functional half of one cold invocation: real traces + correctness
/// evidence. Produced by [`Orchestrator::functional_cold`].
#[derive(Debug)]
pub struct FunctionalRun {
    /// Connection-restoration phase trace.
    pub conn_trace: ExecutionTrace,
    /// Function-processing phase trace.
    pub proc_trace: ExecutionTrace,
    /// Distinct pages the invocation touched (its working set, Fig 4 red).
    pub touched: BTreeSet<PageIdx>,
    /// Monitor counters.
    pub monitor_stats: MonitorStats,
    /// Pages verified byte-identical to the snapshot.
    pub verified_pages: u64,
    /// Instance footprint after the invocation, bytes.
    pub footprint_bytes: u64,
    /// Input sequence number used.
    pub input_seq: u64,
    /// Frame-cache lookups this invocation resolved (monitor prefetch +
    /// demand serves + restore verification), attributed per request.
    /// Zero with the cache disabled.
    pub cache_delta: FrameCacheDelta,
}

/// A cold invocation after its functional pass, ready for the timed
/// pass. Produced by [`Orchestrator::prepare`]; completed by
/// [`Orchestrator::finish`] once the timed result is known.
///
/// Splitting prepare from finish lets a caller run the timed pass on a
/// timeline of its choosing — in particular the cluster layer merges the
/// programs of many shards onto **one shared disk** before finishing each
/// invocation, so shards contend for the device honestly.
#[derive(Debug)]
pub struct PreparedCold {
    program: InstanceProgram,
    function: FunctionId,
    policy: ColdPolicy,
    recorded: bool,
    run: FunctionalRun,
    misprediction: Option<MispredictionReport>,
    recovery: RecoveryReport,
    /// The request's deadline, for [`Orchestrator::finish`] to classify
    /// the completion against.
    deadline: Option<Deadline>,
}

impl PreparedCold {
    /// Recovery work done so far for this invocation.
    pub fn recovery(&self) -> &RecoveryReport {
        &self.recovery
    }

    /// Mutable recovery report — the cluster layer stamps re-route and
    /// rebuild flags here after failover.
    pub fn recovery_mut(&mut self) -> &mut RecoveryReport {
        &mut self.recovery
    }

    /// Moves the compiled program out (leaving an empty stand-in), so
    /// callers can feed [`crate::Timeline::run`] — which consumes
    /// programs — without deep-copying the step list.
    pub fn take_program(&mut self) -> InstanceProgram {
        std::mem::replace(
            &mut self.program,
            InstanceProgram {
                arrival: SimTime::ZERO,
                steps: Vec::new(),
            },
        )
    }

    /// Completes the invocation with the timed result of its program and
    /// the disk counters of the timeline it ran on — the outcome alone;
    /// [`Orchestrator::finish`] also classifies it and emits its span.
    pub fn into_outcome(
        self,
        result: crate::timeline::InstanceResult,
        disk_stats: DiskStats,
    ) -> InvocationOutcome {
        outcome_of(
            self.function,
            Some(self.policy),
            self.recorded,
            self.run,
            result,
            disk_stats,
            self.misprediction,
            self.recovery,
        )
    }
}

/// Result of one invocation (functional + timed).
#[derive(Debug, Clone)]
pub struct InvocationOutcome {
    /// The invoked function.
    pub function: FunctionId,
    /// Cold policy, or `None` for a warm invocation.
    pub policy: Option<ColdPolicy>,
    /// Input sequence number.
    pub seq: u64,
    /// Latency breakdown.
    pub breakdown: Breakdown,
    /// End-to-end latency.
    pub latency: SimDuration,
    /// userfaultfd faults served on the critical path.
    pub uffd_faults: u64,
    /// Pages installed eagerly by prefetch.
    pub prefetched_pages: u64,
    /// Faults after prefetch (working-set misses).
    pub residual_faults: u64,
    /// Distinct pages touched by the invocation.
    pub ws_pages: u64,
    /// Pages verified byte-identical to the snapshot (functional pass).
    pub verified_pages: u64,
    /// Instance memory footprint after the invocation, bytes (Fig 4 red).
    pub footprint_bytes: u64,
    /// The invocation's touched-page set (for Fig 3/5 analysis).
    pub touched: BTreeSet<PageIdx>,
    /// True if this run recorded (or re-recorded) the working set.
    pub recorded: bool,
    /// Prefetch accuracy (prefetch policies only).
    pub misprediction: Option<MispredictionReport>,
    /// Disk counters of the timed pass.
    pub disk_stats: DiskStats,
    /// Recovery work needed to complete this invocation (all-default on
    /// the fault-free path; see [`RecoveryReport`]).
    pub recovery: RecoveryReport,
}

#[derive(Debug)]
struct FunctionState {
    /// Shared, immutable snapshot metadata: every cold invocation borrows
    /// this via a refcount bump instead of deep-copying it.
    snapshot: Arc<Snapshot>,
    reap: Option<ReapFiles>,
    inputs: InputGenerator,
    next_seq: u64,
    needs_rerecord: bool,
    warm: Option<MicroVm>,
    /// Snapshot generation (bumped by §7.3's periodic re-generation).
    generation: u64,
    /// FNV-1a digests of the (trace, ws) artifact bytes at record time,
    /// for silent-corruption detection (see `set_verify_artifacts`).
    artifact_digest: Option<(u64, u64)>,
    /// The REAP artifacts were found corrupt and must not be prefetched
    /// until re-recorded; prefetch policies fall back to Vanilla.
    quarantined: bool,
    /// Input seq of the latest record invocation (replayed to rebuild
    /// artifacts on a surviving shard after failover).
    recorded_seq: Option<u64>,
}

/// Why the budgeted recovery loop stopped: a fault it could not retry
/// (handed up unchanged), or a virtual-time budget it could not respect.
#[derive(Debug)]
enum RecoverAbort {
    /// The final attempt's error, for the caller's quarantine/failover
    /// decision.
    Attempt(AttemptError),
    /// Committing to the next retry (or absorbing an injected delay)
    /// would exceed the request's deadline budget.
    DeadlineExhausted,
}

impl std::fmt::Display for RecoverAbort {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecoverAbort::Attempt(e) => e.fmt(f),
            RecoverAbort::DeadlineExhausted => f.write_str("deadline exhausted mid-recovery"),
        }
    }
}

/// The orchestrator: control plane + data-plane router of one worker.
#[derive(Debug)]
pub struct Orchestrator {
    fs: FileStore,
    device: DeviceProfile,
    costs: HostCostModel,
    seed: u64,
    auto_rerecord: bool,
    rerecord_threshold: f64,
    /// Monotonic shadow-identity allocator (see
    /// [`shadow_files`](Self::shadow_files)): every shadow set minted by
    /// this orchestrator gets a fresh tag, so concurrent experiments can
    /// never hand two instances the same cache identity.
    next_shadow_tag: u64,
    /// The shared snapshot frame cache behind zero-copy cold starts
    /// (cluster shards all point at one instance). Functional-pass only;
    /// the timed pass models its own page cache.
    frame_cache: Arc<SnapshotFrameCache>,
    /// When false, monitors copy from the store as they did before the
    /// cache existed (the equivalence proptests pin both paths).
    frame_cache_enabled: bool,
    /// When true, prefetch invocations digest-check the REAP artifacts
    /// against their record-time digests before use (catches *silent*
    /// corruption of the stored bytes; off by default).
    verify_artifacts: bool,
    /// Per-invocation span sink (off by default; see
    /// [`set_telemetry`](Self::set_telemetry)). Recording reads completed
    /// outcomes only — simulated results are byte-identical with
    /// telemetry on or off.
    telemetry: Option<TelemetrySink>,
    /// Shard index stamped on emitted spans (0 standalone; the cluster
    /// layer sets each shard's index).
    telemetry_shard: u32,
    /// Fleet metrics registry (off by default; see
    /// [`set_metrics`](Self::set_metrics)). Recording reads completed
    /// outcomes and per-instance counters only — simulated results are
    /// byte-identical with metrics on or off.
    metrics: Option<MetricsRegistry>,
    /// Circuit-breaker policy (off by default; see
    /// [`set_breaker`](Self::set_breaker)).
    breaker_policy: Option<BreakerPolicy>,
    /// Per-function breakers, created lazily under `breaker_policy`.
    breakers: HashMap<FunctionId, CircuitBreaker>,
    functions: HashMap<FunctionId, FunctionState>,
}

impl Orchestrator {
    /// Creates an orchestrator over the paper's default platform (local
    /// SSD, 48 cores).
    pub fn new(seed: u64) -> Self {
        Orchestrator::with_store(seed, DeviceProfile::ssd_sata3(), FileStore::new())
    }

    /// Same, with a different snapshot storage device (§6.3's HDD run,
    /// §7.1's remote storage).
    pub fn with_device(seed: u64, device: DeviceProfile) -> Self {
        Orchestrator::with_store(seed, device, FileStore::new())
    }

    /// Creates an orchestrator over an externally supplied snapshot store
    /// (the cluster layer passes one namespaced
    /// [`FileStore`] per shard so file identities stay globally distinct
    /// on the shared timed disk).
    pub fn with_store(seed: u64, device: DeviceProfile, fs: FileStore) -> Self {
        Orchestrator::with_shared_cache(seed, device, fs, Arc::new(SnapshotFrameCache::new()))
    }

    /// Creates an orchestrator over an externally supplied store *and* an
    /// externally owned [`SnapshotFrameCache`]: the cluster layer hands
    /// every shard one cache, so concurrent cold starts of the same
    /// function hit it from every lane (per-shard store namespacing keeps
    /// the `(FileId, extent)` keys disjoint across shards).
    pub fn with_shared_cache(
        seed: u64,
        device: DeviceProfile,
        fs: FileStore,
        frame_cache: Arc<SnapshotFrameCache>,
    ) -> Self {
        Orchestrator {
            fs,
            device,
            costs: HostCostModel::default(),
            seed,
            auto_rerecord: false,
            rerecord_threshold: 0.5,
            next_shadow_tag: 0,
            frame_cache,
            frame_cache_enabled: true,
            verify_artifacts: false,
            telemetry: None,
            telemetry_shard: 0,
            metrics: None,
            breaker_policy: None,
            breakers: HashMap::new(),
            functions: HashMap::new(),
        }
    }

    /// Arms (or disarms, with `None`) per-function circuit breakers in
    /// [`prepare`](Self::prepare): after `failure_threshold` consecutive
    /// failures — quarantine fallbacks, shard blackouts, mid-recovery
    /// deadline aborts — the function trips open and sheds until the
    /// virtual-time cooldown admits a half-open probe. Off by default.
    pub fn set_breaker(&mut self, policy: Option<BreakerPolicy>) {
        self.breaker_policy = policy;
        self.breakers.clear();
    }

    /// `f`'s breaker state, if breakers are armed and `f` has been
    /// requested since.
    pub fn breaker_state(&self, f: FunctionId) -> Option<BreakerState> {
        self.breakers.get(&f).map(|b| b.state())
    }

    /// Times `f`'s breaker has tripped open (0 if never seen).
    pub fn breaker_trips(&self, f: FunctionId) -> u64 {
        self.breakers.get(&f).map_or(0, |b| b.trips())
    }

    /// Enables digest verification of REAP artifacts before every
    /// prefetch invocation: the trace/WS bytes are re-hashed and compared
    /// against their record-time digests; a mismatch (silent corruption
    /// of the stored bytes) quarantines the artifacts, serves the request
    /// as a Vanilla cold start, and flags the function for re-record.
    /// Off by default — verification reads both artifacts in full.
    pub fn set_verify_artifacts(&mut self, on: bool) {
        self.verify_artifacts = on;
    }

    /// Enables §7.2's automatic re-record fallback: when a prefetch
    /// invocation misses more than `threshold` of its working set, the next
    /// REAP invocation records afresh.
    pub fn set_auto_rerecord(&mut self, enabled: bool, threshold: f64) {
        self.auto_rerecord = enabled;
        self.rerecord_threshold = threshold;
    }

    // Pinned by benchmark/src/layers.rs:569 (the replay twin's lane count);
    // leaves with the next `benchmark/`-only PR.
    #[doc(hidden)]
    pub fn prefetch_lanes(&self) -> usize {
        1
    }

    /// Enables/disables the snapshot frame cache on the functional paths
    /// (on by default). With the cache off, every install copies from the
    /// store exactly as the pre-cache pipeline did; outcomes are
    /// byte-identical either way (pinned by the cache-equivalence
    /// proptests) — only host-side copies and wall-clock change.
    pub fn set_frame_cache_enabled(&mut self, enabled: bool) {
        self.frame_cache_enabled = enabled;
    }

    /// Caps the frame cache's deduplicated content bytes (`None` =
    /// unbounded, the default). Over-budget content entries are evicted
    /// (bimodal insertion) immediately and on later admissions, and misses
    /// the cache would evict next bypass it; evicted and bypassed
    /// extents simply re-read the store on their next cold start, so simulated
    /// outcomes are byte-identical at any budget (pinned by the
    /// cache-equivalence proptests) — only resident cache bytes and
    /// wall-clock change.
    pub fn set_frame_cache_budget(&self, budget_bytes: Option<u64>) {
        self.frame_cache.set_budget(budget_bytes);
    }

    /// The shared snapshot frame cache (for stats and cross-orchestrator
    /// sharing).
    pub fn frame_cache(&self) -> &Arc<SnapshotFrameCache> {
        &self.frame_cache
    }

    /// Frame-cache hit/miss/size counters.
    pub fn frame_cache_stats(&self) -> FrameCacheStats {
        self.frame_cache.stats()
    }

    /// Drops every cached snapshot frame — the functional-pass analogue
    /// of the paper's `echo 3 > /proc/sys/vm/drop_caches` methodology
    /// (§4.1): the next cold start of every function pays its store reads
    /// again.
    pub fn drop_caches(&mut self) {
        self.frame_cache.clear();
    }

    /// Attaches (or detaches, with `None`) a telemetry sink: every
    /// completed invocation emits one [`SpanRecord`] into it. Off by
    /// default. Recording reads finished outcomes only, so simulated
    /// results are byte-identical with telemetry on or off (pinned by
    /// the invariance proptests in `tests/telemetry.rs`). Point the sink
    /// at its own `FileStore`, not this orchestrator's snapshot store.
    pub fn set_telemetry(&mut self, sink: Option<TelemetrySink>) {
        self.telemetry = sink;
    }

    /// The attached telemetry sink, if any.
    pub fn telemetry(&self) -> Option<&TelemetrySink> {
        self.telemetry.as_ref()
    }

    /// Sets the shard index stamped on emitted spans (the cluster layer
    /// tags each shard; standalone orchestrators stay at 0).
    pub fn set_telemetry_shard(&mut self, shard: u32) {
        self.telemetry_shard = shard;
    }

    /// Attaches (or detaches, with `None`) a fleet metrics registry: every
    /// completed invocation then records per-phase latency histograms,
    /// recovery-event counters and frame-cache attribution, and the
    /// backing [`FileStore`] feeds its byte counters. Off by default;
    /// recording reads finished outcomes and per-instance counters only,
    /// so simulated results are byte-identical with metrics on or off
    /// (pinned by the invariance proptests in `tests/metrics.rs`).
    pub fn set_metrics(&mut self, metrics: Option<MetricsRegistry>) {
        self.fs.set_metrics(metrics.clone());
        self.metrics = metrics;
    }

    /// The attached metrics registry, if any.
    pub fn metrics(&self) -> Option<&MetricsRegistry> {
        self.metrics.as_ref()
    }

    /// The label spans and metrics use for an outcome's policy.
    fn policy_label(outcome: &InvocationOutcome) -> String {
        match outcome.policy {
            None => "Warm".to_string(),
            Some(_) if outcome.recorded => "Record".to_string(),
            Some(p) => format!("{p:?}"),
        }
    }

    /// Emits the span of a completed invocation into the attached sink
    /// and records its metrics (no-ops when both are off). For callers
    /// without per-request attribution: frame-cache columns are zero and
    /// the span's virtual completion time falls back to the outcome's
    /// latency (an arrival at virtual zero).
    pub fn emit_telemetry(&self, outcome: &InvocationOutcome) {
        let served = Some((outcome, FrameCacheDelta::default()));
        self.emit(outcome.function, Self::policy_label(outcome), served, SimTime::ZERO + outcome.latency, Disposition::Completed);
    }

    /// Emits the span + metrics of a request that produced **no**
    /// outcome: shed at admission or expired mid-recovery. The span
    /// carries identity and the disposition label with zero phase and
    /// latency columns (no work was billed), so the disposition table is
    /// complete — every request appears exactly once in telemetry.
    pub fn emit_unserved(&self, f: FunctionId, requested: ColdPolicy, vt: SimTime, disposition: Disposition) {
        self.emit(f, format!("{requested:?}"), None, vt, disposition);
    }

    /// Records the metrics and the span of one resolved request, stamped
    /// at virtual time `vt` — the only place a [`SpanRecord`] is built.
    /// `served` carries the outcome and the frame-cache lookups charged
    /// to it; an unserved request has neither.
    fn emit(
        &self,
        f: FunctionId,
        policy: String,
        served: Option<(&InvocationOutcome, FrameCacheDelta)>,
        vt: SimTime,
        disposition: Disposition,
    ) {
        if let Some(m) = &self.metrics {
            if let Some((outcome, delta)) = served {
                Self::record_invocation_metrics(m, &policy, outcome, delta);
            }
            match disposition {
                Disposition::Shed { reason, .. } => {
                    m.inc(&labeled("overload_shed_total", &[("reason", reason.label())]));
                }
                Disposition::DeadlineExceeded => m.inc("deadline_exceeded_total"),
                Disposition::Completed => {}
            }
        }
        let Some(sink) = &self.telemetry else {
            return;
        };
        let span = SpanRecord {
            function: f.to_string(),
            policy,
            shard: self.telemetry_shard,
            cold: true,
            vt_ns: vt.as_nanos(),
            disposition: disposition.label().to_string(),
            ..SpanRecord::default()
        };
        sink.record(match served {
            None => span,
            Some((outcome, delta)) => SpanRecord {
                seq: outcome.seq,
                cold: outcome.policy.is_some(),
                recorded: outcome.recorded,
                load_vmm_ns: outcome.breakdown.load_vmm.as_nanos(),
                fetch_ws_ns: outcome.breakdown.fetch_ws.as_nanos(),
                install_ws_ns: outcome.breakdown.install_ws.as_nanos(),
                conn_restore_ns: outcome.breakdown.conn_restore.as_nanos(),
                processing_ns: outcome.breakdown.processing.as_nanos(),
                record_finish_ns: outcome.breakdown.record_finish.as_nanos(),
                latency_ns: outcome.latency.as_nanos(),
                cache_hits: delta.hits,
                cache_misses: delta.misses,
                cache_raced: delta.raced,
                transient_retries: outcome.recovery.transient_retries,
                corrupt_reloads: outcome.recovery.corrupt_reloads,
                retry_delay_ns: outcome.recovery.retry_delay.as_nanos(),
                quarantined: outcome.recovery.quarantined,
                fallback_vanilla: outcome.recovery.fallback_vanilla,
                rebuilt: outcome.recovery.rebuilt,
                rerouted: outcome.recovery.rerouted,
                ..span
            },
        });
    }

    /// Records a completed invocation into the metrics registry:
    /// end-to-end and per-phase latency histograms keyed by policy,
    /// recovery-event counters, and the request's frame-cache
    /// attribution.
    fn record_invocation_metrics(m: &MetricsRegistry, policy: &str, outcome: &InvocationOutcome, delta: FrameCacheDelta) {
        let by_policy = [("policy", policy)];
        m.observe(
            &labeled("invocation_latency_ns", &by_policy),
            outcome.latency.as_nanos(),
        );
        let b = &outcome.breakdown;
        for (phase, d) in [
            ("load_vmm", b.load_vmm),
            ("fetch_ws", b.fetch_ws),
            ("install_ws", b.install_ws),
            ("conn_restore", b.conn_restore),
            ("processing", b.processing),
            ("record_finish", b.record_finish),
        ] {
            if !d.is_zero() {
                m.observe(
                    &labeled("phase_ns", &[("phase", phase), ("policy", policy)]),
                    d.as_nanos(),
                );
            }
        }
        m.add("frame_cache_request_hits_total", delta.hits);
        m.add("frame_cache_request_misses_total", delta.misses);
        m.add("frame_cache_request_raced_total", delta.raced);
        let r = &outcome.recovery;
        m.add("recovery_transient_retries_total", r.transient_retries);
        m.add("recovery_corrupt_reloads_total", r.corrupt_reloads);
        for (flag, name) in [
            (r.quarantined, "recovery_quarantined_total"),
            (r.fallback_vanilla, "recovery_fallback_vanilla_total"),
            (r.rebuilt, "recovery_rebuilt_total"),
            (r.rerouted, "recovery_rerouted_total"),
        ] {
            if flag {
                m.inc(name);
            }
        }
    }

    /// The host cost model.
    pub fn costs(&self) -> &HostCostModel {
        &self.costs
    }

    /// The backing file store.
    pub fn fs(&self) -> &FileStore {
        &self.fs
    }

    /// The storage device profile in use.
    pub fn device(&self) -> &DeviceProfile {
        &self.device
    }

    /// True if `f` has a recorded working set.
    pub fn has_ws(&self, f: FunctionId) -> bool {
        self.functions.get(&f).is_some_and(|s| s.reap.is_some())
    }

    /// True if `f`'s working set was flagged stale (§7.2).
    pub fn needs_rerecord(&self, f: FunctionId) -> bool {
        self.functions
            .get(&f)
            .is_some_and(|s| s.needs_rerecord)
    }

    fn vm_config(&self, f: FunctionId, generation: u64) -> VmConfig {
        VmConfig {
            mem_mib: 256,
            vcpus: 1,
            seed: self.seed ^ ((f as u64) << 8) ^ generation.wrapping_mul(0x9E37_79B9),
        }
    }

    fn state(&self, f: FunctionId) -> &FunctionState {
        self.functions
            .get(&f)
            .unwrap_or_else(|| panic!("{f} is not registered"))
    }

    fn state_mut(&mut self, f: FunctionId) -> &mut FunctionState {
        self.functions
            .get_mut(&f)
            .unwrap_or_else(|| panic!("{f} is not registered"))
    }

    /// Registers a function: boots it once, pauses, and captures its
    /// snapshot (the deployment path of §3.1).
    pub fn register(&mut self, f: FunctionId) -> RegisterInfo {
        self.register_generation(f, 0)
    }

    fn register_generation(&mut self, f: FunctionId, generation: u64) -> RegisterInfo {
        let config = self.vm_config(f, generation);
        let (mut vm, boot_trace) = MicroVm::boot(f, config);
        let boot_latency = BootCostModel::default().total_latency(&boot_trace);
        let boot_footprint_bytes = vm.footprint_bytes();
        vm.pause();
        let snapshot = Snapshot::capture(&vm, &self.fs, &format!("snapshots/{f}"));
        drop(vm); // booted state lives on disk now; free the memory
        // Re-registering rewrites the snapshot files in place: any frames
        // cached from a previous generation must go.
        self.frame_cache.invalidate_file(snapshot.mem_file);
        self.frame_cache.invalidate_file(snapshot.vmm_file);
        self.functions.insert(
            f,
            FunctionState {
                snapshot: Arc::new(snapshot),
                reap: None,
                inputs: InputGenerator::new(f, self.seed),
                next_seq: 0,
                needs_rerecord: false,
                warm: None,
                generation,
                artifact_digest: None,
                quarantined: false,
                recorded_seq: None,
            },
        );
        RegisterInfo {
            function: f,
            boot_footprint_bytes,
            boot_latency,
        }
    }

    /// §7.3's security mitigation: periodically re-generate a function's
    /// snapshot so VM clones stop sharing guest-physical layout and RNG
    /// state. The new boot produces different page contents and placements;
    /// stale REAP files are dropped (they describe the old layout) and must
    /// be re-recorded.
    pub fn regenerate_snapshot(&mut self, f: FunctionId) -> RegisterInfo {
        let (generation, old_reap, next_seq) = {
            let st = self.state(f);
            (st.generation + 1, st.reap, st.next_seq)
        };
        if let Some(reap) = old_reap {
            self.fs.delete(reap.trace_file);
            self.fs.delete(reap.ws_file);
            self.frame_cache.invalidate_file(reap.trace_file);
            self.frame_cache.invalidate_file(reap.ws_file);
        }
        let info = self.register_generation(f, generation);
        // Input sequence continues: the function's clients don't restart.
        self.state_mut(f).next_seq = next_seq;
        info
    }

    /// Removes a function, deleting its snapshot and REAP files (bounds
    /// the memory the in-RAM file store holds across a long experiment).
    pub fn unregister(&mut self, f: FunctionId) {
        if let Some(st) = self.functions.remove(&f) {
            self.fs.delete(st.snapshot.mem_file);
            self.fs.delete(st.snapshot.vmm_file);
            self.frame_cache.invalidate_file(st.snapshot.mem_file);
            self.frame_cache.invalidate_file(st.snapshot.vmm_file);
            if let Some(reap) = st.reap {
                self.fs.delete(reap.trace_file);
                self.fs.delete(reap.ws_file);
                self.frame_cache.invalidate_file(reap.trace_file);
                self.frame_cache.invalidate_file(reap.ws_file);
            }
        }
    }

    /// Drops `f`'s cached warm instance, releasing its memory.
    pub fn release_warm(&mut self, f: FunctionId) {
        self.state_mut(f).warm = None;
    }

    /// Runs the functional pass of one cold invocation in the given
    /// monitor mode through the recovery loop — transient faults retry,
    /// but there is no budget and no quarantine fallback
    /// ([`prepare`](Self::prepare) is the fallible path). Record mode
    /// writes the REAP files and stores them.
    ///
    /// # Panics
    ///
    /// Panics if `f` is unregistered, if prefetch mode is requested
    /// without recorded files, if restoration fails verification, or on
    /// an unrecoverable storage fault.
    pub fn functional_cold(&mut self, f: FunctionId, mode: MonitorMode) -> FunctionalRun {
        let seq = self.acquire_seq(f);
        self.recover(f, mode, seq, &mut RecoveryReport::default(), None)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Claims the next input sequence number of `f`.
    fn acquire_seq(&mut self, f: FunctionId) -> u64 {
        let st = self.state_mut(f);
        let seq = st.next_seq;
        st.next_seq += 1;
        seq
    }

    /// Returns `f`'s consumed seq when its request leaves this shard
    /// unserved (failover, or a deadline that ran out mid-recovery): the
    /// next admitted request of `f` — here or on the shard it re-routes
    /// to — completes with the seq it would have had fault-free.
    fn surrender_seq(&mut self, f: FunctionId, seq: u64) {
        let st = self.state_mut(f);
        if st.next_seq == seq + 1 {
            st.next_seq = seq;
        }
    }

    /// The recovery loop around
    /// [`functional_attempt`](Self::functional_attempt): transient faults
    /// back off (virtual time, accumulated in `recovery.retry_delay`) up
    /// to [`RetryPolicy`]'s bound; a corrupt read — of the WS artifacts
    /// or of the VMM state — gets one reload per invocation (wire
    /// corruption heals on a re-read, stored corruption persists into the
    /// caller's quarantine or shard-surrender path); everything else
    /// returns immediately for the caller to handle.
    ///
    /// With a virtual-time `budget`, injected device delays are drained
    /// after every failed attempt (so `FaultKind::Delay` spikes consume
    /// the same budget backoff does), and once committing to the next
    /// retry would exceed it the loop aborts with
    /// [`RecoverAbort::DeadlineExhausted`] instead of backing off.
    /// Without one, delays drain only at completion.
    fn recover(
        &mut self,
        f: FunctionId,
        mode: MonitorMode,
        seq: u64,
        recovery: &mut RecoveryReport,
        budget: Option<SimDuration>,
    ) -> Result<FunctionalRun, RecoverAbort> {
        let retry = RetryPolicy::default();
        let mut transient_attempts = 0u32;
        let mut corrupt_retried = false;
        loop {
            let err = match self.functional_attempt(f, mode, seq) {
                Ok(run) => return Ok(run),
                Err(e) => e,
            };
            if let Some(b) = budget {
                // Charge injected delays as they land so they consume
                // deadline budget; a spike alone can exhaust it.
                self.drain_injected_delay(f, recovery);
                if recovery.retry_delay > b {
                    return Err(RecoverAbort::DeadlineExhausted);
                }
            }
            let transient = matches!(
                &err,
                AttemptError::Restore(RestoreError::Storage(se))
                | AttemptError::Prefetch(PrefetchError::Storage(se))
                    if se.class() == FaultClass::Transient
            );
            if transient {
                if transient_attempts < retry.max_retries {
                    let backoff = retry.delay_for(transient_attempts);
                    if budget.is_some_and(|b| recovery.retry_delay + backoff > b) {
                        return Err(RecoverAbort::DeadlineExhausted);
                    }
                    recovery.transient_retries += 1;
                    recovery.retry_delay += backoff;
                    transient_attempts += 1;
                    continue;
                }
                return Err(RecoverAbort::Attempt(err));
            }
            let corrupt = matches!(
                &err,
                AttemptError::Restore(RestoreError::Corrupt(_))
                    | AttemptError::Prefetch(PrefetchError::Artifact(_))
            );
            if corrupt && !corrupt_retried {
                // One reload: corruption injected on the wire heals on a
                // re-read (its fault budget is spent); corruption in the
                // stored bytes persists and falls through (artifacts are
                // quarantined, a corrupt snapshot surrenders the shard).
                corrupt_retried = true;
                recovery.corrupt_reloads += 1;
                continue;
            }
            return Err(RecoverAbort::Attempt(err));
        }
    }

    /// One attempt at the functional pass, with the input seq pinned by
    /// the caller (retries and fallbacks replay the same seq, so the
    /// completed invocation is indistinguishable from a fault-free run).
    fn functional_attempt(
        &mut self,
        f: FunctionId,
        mode: MonitorMode,
        seq: u64,
    ) -> Result<FunctionalRun, AttemptError> {
        let fs = self.fs.clone();
        let cache = self.frame_cache_enabled.then(|| self.frame_cache.clone());
        let (snapshot, reap, input) = {
            let st = self.state(f);
            // Arc bump, not a deep copy: snapshot metadata is shared with
            // the registry for the whole invocation.
            (Arc::clone(&st.snapshot), st.reap, st.inputs.input(seq))
        };
        let mut vm = snapshot.restore_shell(&fs).map_err(AttemptError::Restore)?;
        let mut monitor = Monitor::with_cache(&snapshot, &fs, mode, cache.as_deref());

        // §5.2.1: the hypervisor injects the first fault at byte zero so
        // the monitor learns the region base.
        let first = vm.uffd_mut().inject_first_fault();
        let polled = vm.uffd_mut().poll().expect("injected fault queued");
        debug_assert_eq!(polled, first);
        monitor
            .handle_fault(vm.uffd_mut(), first)
            .expect("first-fault handshake");
        vm.uffd_mut().wake();

        if mode == MonitorMode::Prefetch {
            let files = reap.expect("prefetch mode requires recorded REAP files");
            monitor
                .prefetch(vm.uffd_mut(), &files)
                .map_err(AttemptError::Prefetch)?;
            // The trace artifact feeds misprediction detection (and
            // ParallelPF's timed program) through infallible readers
            // downstream: validate it here, on the fault-aware path, so a
            // corrupt or vanished trace quarantines + falls back instead
            // of crashing mid-invocation.
            read_trace_runs(&self.fs, files.trace_file)
                .map_err(|e| AttemptError::Prefetch(PrefetchError::from_ws(e)))?;
        }

        // Connection restoration: gRPC re-connect touches the TCP/accept
        // path in the guest (§4.2).
        let conn_ops: Vec<GuestOp> = vm
            .kernel()
            .conn_plan()
            .into_iter()
            .map(GuestOp::Touch)
            .collect();
        let conn_trace = run_lazy(&conn_ops, vm.uffd_mut(), &mut monitor);

        // Function processing.
        let ops = vm.invocation_ops(&input);
        let proc_trace = run_lazy(&ops, vm.uffd_mut(), &mut monitor);

        // Correctness gate: every resident page equals the snapshot.
        let mut verify_delta = FrameCacheDelta::default();
        let verified =
            verify_restored_tracked(&vm, &snapshot, &fs, cache.as_deref(), &mut verify_delta)
                .expect("lossless restoration");

        let touched = functionbench::behavior::touched_pages(conn_ops.iter().chain(&ops));

        if mode == MonitorMode::Record {
            let files = monitor.finish_record(&format!("snapshots/{f}"));
            // (Re-)recording rewrites the WS artifacts in place (same
            // FileIds): release any extents cached from the previous
            // recording. Generation validation already made them
            // unservable; this frees the memory eagerly.
            self.frame_cache.invalidate_file(files.trace_file);
            self.frame_cache.invalidate_file(files.ws_file);
            let digest = self.artifact_digests(files);
            let st = self.state_mut(f);
            st.reap = Some(files);
            st.needs_rerecord = false;
            // Fresh artifacts lift any quarantine, and their record seq is
            // pinned so a surviving shard can replay this exact recording.
            st.quarantined = false;
            st.recorded_seq = Some(seq);
            st.artifact_digest = digest;
        }

        if let Some(m) = &self.metrics {
            // Cold instances use a fresh VM, so the instance counters are
            // exactly this invocation's fault-serve and CoW work.
            let u = vm.uffd().stats();
            m.add("guest_uffd_fault_serves_total", u.faults);
            m.add("guest_uffd_copied_pages_total", u.copies);
            m.add("guest_uffd_zero_pages_total", u.zero_pages);
            m.add("guest_cow_breaks_total", vm.memory().cow_breaks());
        }

        Ok(FunctionalRun {
            conn_trace,
            proc_trace,
            touched,
            monitor_stats: monitor.stats(),
            verified_pages: verified,
            footprint_bytes: vm.footprint_bytes(),
            input_seq: seq,
            cache_delta: monitor.cache_delta() + verify_delta,
        })
    }

    /// Digests of the (trace, ws) artifact bytes, hashed where they lie
    /// through [`FileStore::read`], which never corrupts the wire — these
    /// hash what is *stored*, so injected wire faults never poison the
    /// reference digests. `None` if either artifact is unreadable (dead or
    /// blacked out). They never leave the process and are only ever
    /// compared with a recomputation by this function, so the word-wise
    /// feed does.
    fn artifact_digests(&self, reap: ReapFiles) -> Option<(u64, u64)> {
        let digest = |file| self.fs.read(file, 0, self.fs.len(file), fnv1a64_words).ok();
        Some((digest(reap.trace_file)?, digest(reap.ws_file)?))
    }

    /// True if `f`'s stored artifacts still hash to their record-time
    /// digests (vacuously true with nothing recorded). An unreadable
    /// artifact counts as intact: the prefetch that reads it next reports
    /// the typed storage error.
    fn artifacts_intact(&self, f: FunctionId) -> bool {
        let st = self.state(f);
        match (st.reap, st.artifact_digest) {
            (Some(reap), Some(digest)) => self.artifact_digests(reap).is_none_or(|d| d == digest),
            _ => true,
        }
    }

    /// Quarantines `f`'s REAP artifacts: prefetch policies fall back to
    /// Vanilla until the flagged re-record replaces them.
    fn quarantine(&mut self, f: FunctionId) {
        let st = self.state_mut(f);
        st.quarantined = true;
        st.needs_rerecord = true;
        let reap = st.reap;
        if let Some(reap) = reap {
            // Cached extents may have been decoded from the corrupt bytes.
            self.frame_cache.invalidate_file(reap.trace_file);
            self.frame_cache.invalidate_file(reap.ws_file);
        }
    }

    /// True if `f`'s REAP artifacts are quarantined (corrupt until
    /// re-recorded).
    pub fn is_quarantined(&self, f: FunctionId) -> bool {
        self.functions.get(&f).is_some_and(|s| s.quarantined)
    }

    /// True if `f` is registered on this orchestrator.
    pub fn is_registered(&self, f: FunctionId) -> bool {
        self.functions.contains_key(&f)
    }

    /// Drains any injected device delays charged against `f`'s files into
    /// the recovery ledger (virtual time; simulated outcomes unchanged).
    fn drain_injected_delay(&self, f: FunctionId, recovery: &mut RecoveryReport) {
        let Some(inj) = self.fs.injector() else {
            return;
        };
        let st = self.state(f);
        recovery.retry_delay += inj.take_delay(st.snapshot.mem_file);
        recovery.retry_delay += inj.take_delay(st.snapshot.vmm_file);
        if let Some(reap) = st.reap {
            recovery.retry_delay += inj.take_delay(reap.trace_file);
            recovery.retry_delay += inj.take_delay(reap.ws_file);
        }
    }

    /// Everything a surviving shard needs to rebuild `f` after this
    /// shard's storage is lost (`None` if `f` is not registered here).
    /// The registry itself is in memory, so it survives a storage
    /// blackout and can direct the rebuild.
    pub fn export_rebuild_meta(&self, f: FunctionId) -> Option<RebuildMeta> {
        self.functions.get(&f).map(|st| RebuildMeta {
            generation: st.generation,
            next_seq: st.next_seq,
            recorded_seq: st.recorded_seq,
        })
    }

    /// Rebuilds `f` from another shard's exported metadata: re-registers
    /// at the same snapshot generation (shards share one seed, so the
    /// snapshot is bit-identical), replays the original record invocation
    /// at its pinned seq to reproduce the REAP artifacts, and resumes the
    /// input sequence where the lost shard left off.
    pub fn rebuild_from(&mut self, f: FunctionId, meta: RebuildMeta) -> RegisterInfo {
        let info = self.register_generation(f, meta.generation);
        if let Some(recorded_seq) = meta.recorded_seq {
            self.state_mut(f).next_seq = recorded_seq;
            let _ = self.functional_cold(f, MonitorMode::Record);
        }
        self.state_mut(f).next_seq = meta.next_seq;
        info
    }

    /// Snapshot file handles of `f` for the timed pass.
    pub fn instance_files(&self, f: FunctionId) -> InstanceFiles {
        let snap = &self.state(f).snapshot;
        InstanceFiles {
            vmm_file: snap.vmm_file,
            vmm_bytes: self.fs.len(snap.vmm_file),
            mem_file: snap.mem_file,
            mem_pages: snap.mem_pages(),
        }
    }

    /// Shadow file handles: distinct cache identities with the same sizes,
    /// for concurrency experiments where each instance models an
    /// *independent* function with its own snapshot (§6.5). The timed pass
    /// never dereferences file contents, only cache keys.
    ///
    /// Identities come from a per-orchestrator monotonic allocator (tags
    /// are never reused), and the backing store's id namespace keeps them
    /// distinct across cluster shards — callers can no longer mint two
    /// instances with a colliding shadow identity.
    ///
    /// Shadow entries are *identity reservations*, not data: the handles
    /// carry real sizes but the store entries are dropped again before
    /// returning (ids are never reused), so long concurrency experiments
    /// and the bench loops don't grow the store without bound.
    pub fn shadow_files(&mut self, f: FunctionId) -> (InstanceFiles, Option<ReapFiles>) {
        let tag = self.next_shadow_tag;
        self.next_shadow_tag += 1;
        let real = self.instance_files(f);
        let shadow_mem = self.fs.create(&format!("shadow/{f}/{tag}/mem"));
        let shadow_vmm = self.fs.create(&format!("shadow/{f}/{tag}/vmm"));
        let files = InstanceFiles {
            vmm_file: shadow_vmm,
            vmm_bytes: real.vmm_bytes,
            mem_file: shadow_mem,
            mem_pages: real.mem_pages,
        };
        let reap = self.state(f).reap.map(|r| ReapFiles {
            trace_file: self.fs.create(&format!("shadow/{f}/{tag}/trace")),
            ws_file: self.fs.create(&format!("shadow/{f}/{tag}/ws")),
            pages: r.pages,
            extents: r.extents,
        });
        // The timed pass uses these ids only as cache keys and the sizes
        // above travel in the returned structs, so the store entries can
        // go immediately.
        self.fs.delete(shadow_mem);
        self.fs.delete(shadow_vmm);
        if let Some(r) = &reap {
            self.fs.delete(r.trace_file);
            self.fs.delete(r.ws_file);
        }
        (files, reap)
    }

    /// Compiles a cold invocation into a timed program.
    #[allow(clippy::too_many_arguments)]
    pub fn cold_program(&self, f: FunctionId, policy: ColdPolicy, record: bool, run: &FunctionalRun, files: InstanceFiles, reap: Option<ReapFiles>, arrival: SimTime) -> InstanceProgram {
        let pf_pages = if policy == ColdPolicy::ParallelPF {
            let real = self.state(f).reap.expect("ParallelPF needs a trace");
            read_trace_file(&self.fs, real.trace_file)
                .expect("trace file readable")
                .into_iter()
                .map(|p| p.as_u64())
                .collect()
        } else {
            Vec::new()
        };
        build_cold_program(&ColdRunSpec {
            policy,
            record,
            costs: &self.costs,
            files,
            reap,
            conn_trace: &run.conn_trace,
            proc_trace: &run.proc_trace,
            pf_pages,
            arrival,
        })
    }

    /// A fresh (cold-cache) host timeline over this orchestrator's device
    /// and CPU pool — the page cache starts cold, matching the paper's
    /// flush-before-measure methodology (§4.1). The cluster layer builds
    /// **one** such timeline for a whole concurrent batch so every shard's
    /// programs share the same modeled disk.
    pub fn timeline(&self) -> Timeline {
        Timeline::new(Disk::new(self.device.clone()), self.costs.cores)
    }

    /// Runs timed programs on a fresh (cold-cache) host timeline and
    /// returns results plus disk statistics.
    pub fn run_timed(&self, programs: Vec<InstanceProgram>) -> (Vec<crate::timeline::InstanceResult>, DiskStats) {
        let mut tl = self.timeline();
        let results = tl.run(programs);
        let stats = tl.disk_stats();
        (results, stats)
    }

    /// §8.2 ablation: emulates profiling-based working-set estimation
    /// that captures guest *background* activity beyond the invocation
    /// window — the approach the paper argues against ("extensive
    /// profiling may significantly bloat the captured working set, hence
    /// slowing down loading"). Appends `extra_pages` boot-touched pages
    /// that the invocation never uses to the recorded trace/WS files.
    ///
    /// # Panics
    ///
    /// Panics if no working set was recorded yet.
    pub fn pad_working_set(&mut self, f: FunctionId, extra_pages: u64) -> ReapFiles {
        let (reap, mem_file, total_pages) = {
            let st = self.state(f);
            let reap = st.reap.expect("record a working set before padding");
            (reap, st.snapshot.mem_file, st.snapshot.mem_pages())
        };
        let mut runs =
            read_trace_runs(&self.fs, reap.trace_file).expect("trace file readable");
        // Pad with top-of-memory pages: boot-time filler (guest page
        // cache) that background profiling would observe but invocations
        // never touch. Walk the *gaps* between recorded extents from the
        // top of memory down, appending whole free runs — no per-page
        // scan of the 65k-page address space and, downstream, a single
        // bulk write per artifact instead of one per padded page.
        let mut recorded = PageBitmap::new(total_pages);
        for run in &runs {
            recorded.set_run(*run);
        }
        let mut remaining = extra_pages;
        let mut end = total_pages; // exclusive upper bound of the next gap
        while remaining > 0 && end > 0 {
            // The free run ending just below `end`.
            let gap_end = end;
            let mut gap_start = gap_end;
            while gap_start > 0 && !recorded.get(PageIdx::new(gap_start - 1)) {
                gap_start -= 1;
                if gap_end - gap_start == remaining {
                    break;
                }
            }
            if gap_end > gap_start {
                let len = gap_end - gap_start;
                runs.push(PageRun::new(PageIdx::new(gap_start), len));
                remaining -= len;
                end = gap_start;
            }
            // Skip over the recorded extent below the gap.
            while end > 0 && recorded.get(PageIdx::new(end - 1)) {
                end -= 1;
            }
        }
        let files = crate::ws_file::write_reap_files_runs(
            &self.fs,
            &format!("snapshots/{f}"),
            mem_file,
            &runs,
        );
        // Padding rewrites the WS artifacts in place: any extents cached
        // from the unpadded recording are stale (generation validation
        // makes them unservable; dropping them releases the memory).
        self.frame_cache.invalidate_file(files.trace_file);
        self.frame_cache.invalidate_file(files.ws_file);
        let digest = self.artifact_digests(files);
        let st = self.state_mut(f);
        st.reap = Some(files);
        // The padded artifacts are freshly written: re-baseline the
        // corruption digests and lift any quarantine.
        st.artifact_digest = digest;
        st.quarantined = false;
        files
    }

    /// Prepares one cold invocation — the functional pass under the full
    /// recovery policy, then the compiled program — without running the
    /// timed pass (see [`PreparedCold`]). Every cold start takes this
    /// path:
    ///
    /// * `req.function`'s circuit breaker (if [armed](Self::set_breaker))
    ///   is consulted before any work, and told afterwards how it went;
    /// * transient storage faults retry with bounded virtual-time backoff
    ///   ([`RetryPolicy`]); backoff and injected delays consume
    ///   `req.deadline`;
    /// * corrupt or unreachable REAP artifacts are quarantined and the
    ///   request falls back to a Vanilla cold start off the intact
    ///   snapshot, reusing its input seq (the function is flagged for
    ///   re-record, which §7.2's auto-re-record serves next).
    ///
    /// `req.independent` changes what the program runs against (fresh
    /// [`shadow_files`](Self::shadow_files) identities) and skips the
    /// misprediction / auto-re-record bookkeeping; it does not change
    /// recovery. The completed invocation's simulated outcome is
    /// byte-identical to a fault-free run of its effective policy —
    /// recovery work shows up only in [`InvocationOutcome::recovery`].
    ///
    /// # Errors
    ///
    /// [`ColdAbort::Shed`] when the breaker was open (no seq consumed);
    /// [`ColdAbort::Deadline`] when the budget ran out mid-recovery;
    /// [`ColdAbort::Shard`] when the snapshot store itself is unreachable
    /// (shard blackout), for the cluster layer to re-route. The last two
    /// roll the consumed seq back.
    ///
    /// # Panics
    ///
    /// Panics if the function is unregistered or a prefetch policy is
    /// used before [`invoke_record`](Self::invoke_record).
    pub fn prepare(&mut self, req: &ColdRequest) -> Result<PreparedCold, ColdAbort> {
        let f = req.function;
        if let Some(bp) = self.breaker_policy {
            let breaker = self
                .breakers
                .entry(f)
                .or_insert_with(|| CircuitBreaker::new(bp));
            if let Err(retry_after) = breaker.admit(req.arrival) {
                return Err(ColdAbort::Shed {
                    reason: ShedReason::BreakerOpen,
                    retry_after: Some(retry_after),
                });
            }
        }
        let res = self.prepare_admitted(req, false);
        // `breakers` holds `f` exactly when a policy is armed.
        if let Some(breaker) = self.breakers.get_mut(&f) {
            // Quarantine fallbacks, shard blackouts and deadline aborts
            // all count as failures; a clean (or merely retried) cold
            // start resets the run.
            let failure = match &res {
                Ok(p) => p.recovery.fallback_vanilla || p.recovery.quarantined,
                Err(ColdAbort::Shard(_) | ColdAbort::Deadline(_)) => true,
                Err(ColdAbort::Shed { .. }) => false,
            };
            if !failure {
                breaker.record_success();
            } else if breaker.record_failure(req.arrival) {
                // Tripped open on this failure.
                if let Some(m) = &self.metrics {
                    let fname = f.to_string();
                    m.inc(&labeled("breaker_trips_total", &[("function", &fname)]));
                }
            }
        }
        res
    }

    /// [`prepare`](Self::prepare) past the breaker: the recovery state
    /// machine and the one place a [`PreparedCold`] is built. `record`
    /// makes it a record pass — faults served on demand *and* the REAP
    /// files written (§5.2.1), compiled as a Vanilla program plus the
    /// record epilogue.
    fn prepare_admitted(&mut self, req: &ColdRequest, record: bool) -> Result<PreparedCold, ColdAbort> {
        let &ColdRequest { function: f, policy, independent, arrival, deadline } = req;
        // §7.2 fallback: a stale working set is refreshed by the next
        // prefetch request of the function itself.
        let record = record
            || (policy.uses_ws() && !independent && self.auto_rerecord && self.needs_rerecord(f));
        let mut effective = if record { ColdPolicy::Vanilla } else { policy };
        // A record pass runs unbudgeted — its cost is the artifact
        // refresh, not this request's latency; `finish` still classifies
        // a late completion against the deadline.
        let budget = if record { None } else { deadline };
        let mut recovery = RecoveryReport::default();
        if effective.uses_ws() {
            assert!(
                self.has_ws(f),
                "{f}: record a working set first (invoke_record)"
            );
            // Silent corruption of the stored bytes is quarantined here,
            // before the corrupt artifacts reach the prefetch path at all.
            if !self.state(f).quarantined && self.verify_artifacts && !self.artifacts_intact(f) {
                self.quarantine(f);
            }
        }
        let seq = self.acquire_seq(f);
        let run = loop {
            if effective.uses_ws() && self.state(f).quarantined {
                // Quarantined — just now, or by an earlier request still
                // awaiting re-record: serve this one Vanilla off the
                // intact snapshot, same seq.
                effective = ColdPolicy::Vanilla;
                recovery.quarantined = true;
                recovery.fallback_vanilla = true;
            }
            let mode = if record {
                MonitorMode::Record
            } else if effective.uses_ws() {
                MonitorMode::Prefetch
            } else {
                MonitorMode::OnDemand
            };
            match self.recover(f, mode, seq, &mut recovery, budget) {
                Ok(run) => break run,
                Err(RecoverAbort::DeadlineExhausted) => {
                    self.surrender_seq(f, seq);
                    return Err(ColdAbort::Deadline(DeadlineExpired {
                        function: f,
                        spent: recovery.retry_delay,
                        budget: budget.expect("budget set when exhausted"),
                    }));
                }
                Err(RecoverAbort::Attempt(e @ AttemptError::Restore(..))) => {
                    // The snapshot itself is unreachable or corrupt: nothing
                    // this shard can serve. Hand the request back for failover.
                    self.surrender_seq(f, seq);
                    return Err(ColdAbort::Shard(ShardUnavailable {
                        function: f,
                        detail: e.to_string(),
                    }));
                }
                Err(RecoverAbort::Attempt(AttemptError::Prefetch(e))) => {
                    // Artifact trouble (corrupt bytes survived the reload,
                    // artifact storage gone, retries exhausted).
                    assert!(
                        effective.uses_ws(),
                        "prefetch fault without a prefetch policy: {e}"
                    );
                    self.quarantine(f);
                }
            }
        };
        self.drain_injected_delay(f, &mut recovery);
        let (files, reap) = if independent {
            self.shadow_files(f)
        } else {
            (self.instance_files(f), self.state(f).reap)
        };
        let misprediction = if effective.uses_ws() && !independent {
            let recorded_pages: BTreeSet<PageIdx> = read_trace_file(
                &self.fs,
                reap.expect("ws present").trace_file,
            )
            .expect("trace file readable")
            .into_iter()
            .collect();
            let report = MispredictionReport::compute(
                &recorded_pages,
                &run.touched,
                run.monitor_stats.residual_after_prefetch,
            );
            if report.should_rerecord(self.rerecord_threshold) {
                self.state_mut(f).needs_rerecord = true;
            }
            Some(report)
        } else {
            None
        };
        let program = self.cold_program(f, effective, record, &run, files, reap, arrival);
        Ok(PreparedCold {
            program,
            function: f,
            policy: effective,
            recorded: record,
            run,
            misprediction,
            recovery,
            deadline: deadline.map(|b| Deadline::new(arrival, b)),
        })
    }

    /// [`prepare`](Self::prepare) for a shared request whose deadline is
    /// given as an absolute [`Deadline`].
    pub fn try_prepare_cold_within(&mut self, f: FunctionId, policy: ColdPolicy, arrival: SimTime, deadline: Option<Deadline>) -> Result<PreparedCold, ColdAbort> {
        let deadline = deadline.map(|d| d.remaining(arrival));
        self.prepare(&ColdRequest { arrival, deadline, ..ColdRequest::shared(f, policy) })
    }

    /// [`prepare`](Self::prepare) for an independent request without a
    /// deadline (§6.5's concurrency methodology); panics where
    /// [`invoke_cold`](Self::invoke_cold) does.
    pub fn prepare_cold_shadow(&mut self, f: FunctionId, policy: ColdPolicy, arrival: SimTime) -> PreparedCold {
        let req = ColdRequest { arrival, ..ColdRequest::independent(f, policy) };
        self.prepare(&req).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Completes a prepared invocation with the timed result of its
    /// program and the disk counters of the timeline it ran on: builds
    /// the outcome, classifies it against the request's deadline and
    /// emits its span on this orchestrator's sink and registry.
    ///
    /// The true virtual completion is the timed finish plus the recovery
    /// time spent off-timeline (retry backoff, injected delays); past the
    /// expiry instant the outcome is kept — byte-identical to the
    /// deadline-off run — but is not goodput.
    pub fn finish(&self, prepared: PreparedCold, result: crate::timeline::InstanceResult, disk_stats: DiskStats) -> (Disposition, InvocationOutcome) {
        let (delta, deadline) = (prepared.run.cache_delta, prepared.deadline);
        let outcome = prepared.into_outcome(result, disk_stats);
        let completion = result.end + outcome.recovery.retry_delay;
        let disposition = match deadline {
            Some(d) if d.expired_at(completion) => Disposition::DeadlineExceeded,
            _ => Disposition::Completed,
        };
        self.emit(outcome.function, Self::policy_label(&outcome), Some((&outcome, delta)), result.end, disposition);
        (disposition, outcome)
    }

    /// Resolves a request [`prepare`](Self::prepare) refused: its
    /// explicit disposition and its unserved span — stamped at arrival
    /// when shed, at the expiry instant when the deadline ran out
    /// mid-recovery.
    ///
    /// # Errors
    ///
    /// [`ShardUnavailable`] is not a resolution: the caller re-routes
    /// the request (or, with nowhere to route, gives up).
    pub fn finish_unserved(&self, req: &ColdRequest, abort: ColdAbort) -> Result<Disposition, ShardUnavailable> {
        let (vt, disposition) = match abort {
            ColdAbort::Shard(e) => return Err(e),
            ColdAbort::Deadline(e) => (req.arrival + e.budget, Disposition::DeadlineExceeded),
            ColdAbort::Shed { reason, retry_after } => (req.arrival, Disposition::Shed { reason, retry_after }),
        };
        self.emit_unserved(req.function, req.policy, vt, disposition);
        Ok(disposition)
    }

    /// The single-node serving sequence: a refused request resolves
    /// through [`finish_unserved`](Self::finish_unserved); a prepared one
    /// runs alone on a fresh timeline and finishes. An explicit `record`
    /// pass skips the breaker — it is what repairs a quarantined function.
    fn serve(&mut self, req: &ColdRequest, record: bool) -> (Disposition, Option<InvocationOutcome>) {
        let prepared = if record { self.prepare_admitted(req, true) } else { self.prepare(req) };
        let mut prepared = match prepared {
            Ok(p) => p,
            // A single node has nowhere to re-route an unreachable store.
            Err(abort) => return (self.finish_unserved(req, abort).unwrap_or_else(|e| panic!("{e}")), None),
        };
        let (results, disk) = self.run_timed(vec![prepared.take_program()]);
        let (disposition, outcome) = self.finish(prepared, results[0], disk);
        (disposition, Some(outcome))
    }

    /// First cold invocation of a function under REAP: serves faults on
    /// demand *and* records the working set (§5.2.1). Subsequent
    /// [`invoke_cold`](Self::invoke_cold) calls with prefetch policies use
    /// the recorded files.
    pub fn invoke_record(&mut self, f: FunctionId) -> InvocationOutcome {
        let (_, outcome) = self.serve(&ColdRequest::shared(f, ColdPolicy::Vanilla), true);
        outcome.expect("a record pass is never shed and carries no deadline")
    }

    /// One cold invocation under `policy`.
    ///
    /// # Panics
    ///
    /// Panics if the function is unregistered, a prefetch policy is used
    /// before [`invoke_record`](Self::invoke_record), the snapshot store
    /// is unreachable (use the cluster layer for failover), or an armed
    /// circuit breaker sheds the request — there is no outcome to return;
    /// [`invoke_cold_within`](Self::invoke_cold_within) reports it.
    pub fn invoke_cold(&mut self, f: FunctionId, policy: ColdPolicy) -> InvocationOutcome {
        let (disposition, outcome) = self.invoke_cold_within(f, policy, None);
        outcome.unwrap_or_else(|| panic!("{f}: {disposition}"))
    }

    /// One cold invocation under `policy` with an optional virtual-time
    /// deadline. Always resolves to an explicit [`Disposition`]; there is
    /// no outcome when the breaker shed the request or the budget ran out
    /// mid-recovery, and a late completion keeps its outcome but is
    /// `DeadlineExceeded`, not goodput.
    ///
    /// # Panics
    ///
    /// As [`invoke_cold`](Self::invoke_cold), shedding aside.
    pub fn invoke_cold_within(&mut self, f: FunctionId, policy: ColdPolicy, deadline: Option<Deadline>) -> (Disposition, Option<InvocationOutcome>) {
        let arrival = deadline.map_or(SimTime::ZERO, |d| d.arrival);
        let req = ColdRequest { arrival, deadline: deadline.map(|d| d.budget), ..ColdRequest::shared(f, policy) };
        self.serve(&req, false)
    }

    /// One warm invocation: the instance is memory-resident; no VMM load,
    /// no connection restoration, no uffd faults (Fig 2's warm bars).
    pub fn invoke_warm(&mut self, f: FunctionId) -> InvocationOutcome {
        let config = self.vm_config(f, self.state(f).generation);
        let seq = self.acquire_seq(f);
        let input = self.state(f).inputs.input(seq);
        // Boot (or reuse) the warm instance.
        if self.state(f).warm.is_none() {
            let (vm, _) = MicroVm::boot(f, config);
            self.state_mut(f).warm = Some(vm);
        }
        let st = self.state_mut(f);
        let vm = st.warm.as_mut().expect("warm instance cached");
        let ops = vm.invocation_ops(&input);
        let label = vm.content_label();
        let trace = run_resident(&ops, vm.uffd_mut().memory_mut(), label);
        let touched = functionbench::behavior::touched_pages(&ops);
        let footprint = vm.footprint_bytes();

        let program = build_warm_program(&self.costs, &trace, SimTime::ZERO);
        let (results, disk) = self.run_timed(vec![program]);
        let run = FunctionalRun {
            conn_trace: ExecutionTrace::default(),
            proc_trace: trace,
            touched,
            monitor_stats: MonitorStats::default(),
            verified_pages: 0,
            footprint_bytes: footprint,
            input_seq: seq,
            cache_delta: FrameCacheDelta::default(),
        };
        let outcome =
            outcome_of(f, None, false, run, results[0], disk, None, RecoveryReport::default());
        let served = Some((&outcome, FrameCacheDelta::default()));
        self.emit(f, Self::policy_label(&outcome), served, results[0].end, Disposition::Completed);
        outcome
    }
}

/// Assembles an [`InvocationOutcome`] from a functional run and its timed
/// result.
#[allow(clippy::too_many_arguments)]
fn outcome_of(f: FunctionId, policy: Option<ColdPolicy>, recorded: bool, run: FunctionalRun, result: crate::timeline::InstanceResult, disk_stats: DiskStats, misprediction: Option<MispredictionReport>, recovery: RecoveryReport) -> InvocationOutcome {
    InvocationOutcome {
        function: f,
        policy,
        seq: run.input_seq,
        breakdown: result.breakdown,
        latency: result.latency(),
        uffd_faults: run.conn_trace.uffd_faults + run.proc_trace.uffd_faults,
        prefetched_pages: run.monitor_stats.prefetched,
        residual_faults: run.monitor_stats.residual_after_prefetch,
        ws_pages: run.touched.len() as u64,
        verified_pages: run.verified_pages,
        footprint_bytes: run.footprint_bytes,
        touched: run.touched,
        recorded,
        misprediction,
        disk_stats,
        recovery,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn orch_with(f: FunctionId) -> Orchestrator {
        let mut o = Orchestrator::new(7);
        o.register(f);
        o
    }

    #[test]
    fn register_reports_boot_footprint() {
        let mut o = Orchestrator::new(1);
        let info = o.register(FunctionId::helloworld);
        let mb = info.boot_footprint_bytes as f64 / (1024.0 * 1024.0);
        assert!((135.0..160.0).contains(&mb), "got {mb:.0} MB");
        assert!(info.boot_latency > SimDuration::from_millis(1000));
    }

    #[test]
    fn vanilla_cold_matches_paper_shape() {
        let mut o = orch_with(FunctionId::helloworld);
        let out = o.invoke_cold(FunctionId::helloworld, ColdPolicy::Vanilla);
        let ms = out.latency.as_millis_f64();
        // Paper Fig 2: helloworld vanilla cold ~232 ms.
        assert!((170.0..300.0).contains(&ms), "vanilla cold {ms:.0} ms");
        assert!(out.uffd_faults > 1800, "faults {}", out.uffd_faults);
        assert_eq!(out.verified_pages, out.uffd_faults + 1 /* injected */);
        assert!(out.breakdown.load_vmm > SimDuration::from_millis(20));
        assert!(out.breakdown.conn_restore > SimDuration::from_millis(50));
    }

    #[test]
    fn record_then_reap_speeds_up() {
        let mut o = orch_with(FunctionId::helloworld);
        let vanilla = o.invoke_cold(FunctionId::helloworld, ColdPolicy::Vanilla);
        let record = o.invoke_record(FunctionId::helloworld);
        assert!(record.recorded);
        assert!(o.has_ws(FunctionId::helloworld));
        // §6.4: record costs more than a plain cold start.
        assert!(record.latency > vanilla.latency);
        let reap = o.invoke_cold(FunctionId::helloworld, ColdPolicy::Reap);
        let speedup = vanilla.latency.as_secs_f64() / reap.latency.as_secs_f64();
        assert!(
            speedup > 2.5,
            "REAP should be >2.5x faster on helloworld, got {speedup:.2}"
        );
        // Nearly all faults eliminated (97% on average, §6).
        assert!(reap.residual_faults * 10 < reap.prefetched_pages);
        // Connection restoration collapses (45x, §6.3).
        assert!(reap.breakdown.conn_restore < SimDuration::from_millis(10));
    }

    #[test]
    #[should_panic(expected = "record a working set first")]
    fn prefetch_without_record_panics() {
        let mut o = orch_with(FunctionId::helloworld);
        let _ = o.invoke_cold(FunctionId::helloworld, ColdPolicy::Reap);
    }

    #[test]
    fn warm_is_orders_of_magnitude_faster() {
        let mut o = orch_with(FunctionId::helloworld);
        let cold = o.invoke_cold(FunctionId::helloworld, ColdPolicy::Vanilla);
        let warm = o.invoke_warm(FunctionId::helloworld);
        assert!(warm.latency.as_millis_f64() < 3.0);
        assert!(cold.latency.as_secs_f64() > 50.0 * warm.latency.as_secs_f64());
        assert_eq!(warm.uffd_faults, 0);
        o.release_warm(FunctionId::helloworld);
    }

    #[test]
    fn footprints_match_fig4_shape() {
        let mut o = orch_with(FunctionId::helloworld);
        let info = o.register(FunctionId::helloworld);
        let cold = o.invoke_cold(FunctionId::helloworld, ColdPolicy::Vanilla);
        // Restored footprint is a few percent of the booted one.
        assert!(cold.footprint_bytes * 5 < info.boot_footprint_bytes);
        let ws_mb = cold.footprint_bytes as f64 / 1e6;
        assert!((6.0..12.0).contains(&ws_mb), "helloworld ws {ws_mb:.1} MB");
    }

    #[test]
    fn unregister_removes_files() {
        let mut o = orch_with(FunctionId::helloworld);
        o.invoke_record(FunctionId::helloworld);
        let files_before = o.fs().list().len();
        o.unregister(FunctionId::helloworld);
        assert!(o.fs().list().len() < files_before);
        assert!(!o.has_ws(FunctionId::helloworld));
    }

    #[test]
    fn regenerate_snapshot_rotates_layout_and_drops_ws() {
        // §7.3: periodic snapshot re-generation as a mitigation for
        // cloned-VM state. Contents and layout change; REAP files are
        // invalidated and must be re-recorded.
        let f = FunctionId::helloworld;
        let mut o = orch_with(f);
        o.invoke_record(f);
        assert!(o.has_ws(f));
        let mem_old = o.fs().open(&format!("snapshots/{f}/guest_mem")).unwrap();
        let page_old = o.fs().read(mem_old, 0, 4096, <[u8]>::to_vec).unwrap();

        o.regenerate_snapshot(f);
        assert!(!o.has_ws(f), "stale WS files must be dropped");
        let mem_new = o.fs().open(&format!("snapshots/{f}/guest_mem")).unwrap();
        let page_new = o.fs().read(mem_new, 0, 4096, <[u8]>::to_vec).unwrap();
        assert_ne!(page_old, page_new, "regeneration must change contents");

        // The pipeline still works end-to-end on the new generation.
        let vanilla = o.invoke_cold(f, ColdPolicy::Vanilla);
        assert!(vanilla.verified_pages > 0);
        o.invoke_record(f);
        let reap = o.invoke_cold(f, ColdPolicy::Reap);
        assert!(reap.latency < vanilla.latency);
    }

    #[test]
    fn regenerated_memory_file_holds_nothing_of_the_previous_generation() {
        // Capture lays the image down by extension over the capacity the
        // store kept from generation 0; where generation 1 has a gap,
        // generation 0's bytes must not show through.
        let f = FunctionId::helloworld;
        let mut o = orch_with(f);
        o.regenerate_snapshot(f);
        let (mut vm, _) = MicroVm::boot(f, o.vm_config(f, 1));
        vm.pause();
        let fresh_fs = FileStore::new();
        let fresh = Snapshot::capture(&vm, &fresh_fs, "fresh");
        let reused = o.state(f).snapshot.mem_file;
        assert_eq!(o.fs().len(reused), fresh.mem_bytes);
        let same = o
            .fs()
            .read(reused, 0, fresh.mem_bytes, |got| {
                fresh_fs.read(fresh.mem_file, 0, fresh.mem_bytes, |want| got == want).unwrap()
            })
            .unwrap();
        assert!(same, "re-capture must equal a capture into an empty store");
    }

    #[test]
    fn regenerated_and_rebuilt_snapshots_carry_a_fresh_boot_shell() {
        // Restores clone the shell their snapshot captured, so every
        // path that replaces a snapshot must leave one that matches a
        // boot at the new generation.
        fn assert_fresh_boot_shell(o: &Orchestrator, f: FunctionId, generation: u64) {
            let config = o.vm_config(f, generation);
            let snapshot = &o.state(f).snapshot;
            assert_eq!(snapshot.config, config);
            let mut restored = snapshot.restore_shell(o.fs()).unwrap();
            let mut oracle = MicroVm::restore_shell(f, config);
            assert_eq!(restored.content_label(), oracle.content_label());
            let (got, want) = (restored.guest_shell(), oracle.guest_shell());
            assert_eq!(got.space.regions(), want.space.regions());
            assert_eq!(
                got.space.heap().state_fingerprint(),
                want.space.heap().state_fingerprint()
            );
            let input = InputGenerator::new(f, 3).input(0);
            assert_eq!(restored.invocation_ops(&input), oracle.invocation_ops(&input));
        }

        let f = FunctionId::pyaes;
        let mut o = orch_with(f);
        o.invoke_record(f);
        o.invoke_cold(f, ColdPolicy::Reap);
        o.regenerate_snapshot(f);
        assert_fresh_boot_shell(&o, f, 1);

        // Failover: a survivor sharing the seed rebuilds from the lost
        // shard's exported registry state.
        o.invoke_record(f);
        let meta = o.export_rebuild_meta(f).unwrap();
        let mut survivor = Orchestrator::new(7);
        survivor.rebuild_from(f, meta);
        assert_fresh_boot_shell(&survivor, f, 1);
        assert!(survivor.invoke_cold(f, ColdPolicy::Reap).verified_pages > 0);
    }

    #[test]
    fn pad_working_set_issues_constant_write_count() {
        // Regression guard for the bulk pad path: padding N pages must
        // cost exactly two store writes (one per artifact), not O(N).
        let f = FunctionId::helloworld;
        let mut o = orch_with(f);
        o.invoke_record(f);
        let trace_file = o.fs().open(&format!("snapshots/{f}/ws_trace")).unwrap();
        let before_pages = read_trace_file(o.fs(), trace_file).unwrap().len() as u64;
        let writes_before = o.fs().write_calls();
        let padded = o.pad_working_set(f, 500);
        assert_eq!(
            o.fs().write_calls() - writes_before,
            3,
            "trace table + WS header + one gather, regardless of pad size"
        );
        assert_eq!(padded.pages, before_pages + 500);
    }

    #[test]
    fn pad_working_set_adds_top_of_memory_pages_once() {
        let f = FunctionId::helloworld;
        let mut o = orch_with(f);
        o.invoke_record(f);
        let total = o.state(f).snapshot.mem_pages();
        let padded = o.pad_working_set(f, 64);
        let trace = read_trace_file(&o.fs().clone(), padded.trace_file).unwrap();
        assert_eq!(trace.len() as u64, padded.pages);
        // No duplicates (the v2 format would reject overlaps anyway).
        let unique: BTreeSet<PageIdx> = trace.iter().copied().collect();
        assert_eq!(unique.len(), trace.len());
        // The padding is the topmost free pages: with nothing recorded up
        // there, that is exactly the last 64 pages of guest memory.
        for p in total - 64..total {
            assert!(unique.contains(&PageIdx::new(p)), "page {p} not padded");
        }
        // Padded artifacts still drive a working prefetch. Page 0 is
        // already resident from the first-fault handshake, so the eager
        // install covers everything but it (a benign EEXIST race).
        let out = o.invoke_cold(f, ColdPolicy::Reap);
        assert_eq!(out.prefetched_pages, padded.pages - 1);
    }

    #[test]
    fn shadow_files_have_distinct_ids_same_sizes() {
        let mut o = orch_with(FunctionId::helloworld);
        o.invoke_record(FunctionId::helloworld);
        let real = o.instance_files(FunctionId::helloworld);
        let (s1, r1) = o.shadow_files(FunctionId::helloworld);
        let (s2, _) = o.shadow_files(FunctionId::helloworld);
        assert_ne!(s1.mem_file, real.mem_file);
        assert_ne!(s1.mem_file, s2.mem_file);
        assert_eq!(s1.mem_pages, real.mem_pages);
        assert!(r1.is_some());
    }

    #[test]
    fn shadow_files_do_not_grow_the_store() {
        // Shadow identities are reservations: minting thousands of them
        // (bench loops, concurrency sweeps) must leave the store's file
        // census unchanged.
        let mut o = orch_with(FunctionId::helloworld);
        o.invoke_record(FunctionId::helloworld);
        let census = o.fs().list().len();
        for _ in 0..100 {
            let _ = o.shadow_files(FunctionId::helloworld);
        }
        assert_eq!(o.fs().list().len(), census);
    }

    #[test]
    fn shadow_tags_never_repeat_across_calls_or_functions() {
        // The allocator is per-orchestrator, not per-call: identities stay
        // unique across repeated experiments and across functions.
        let mut o = Orchestrator::new(3);
        o.register(FunctionId::helloworld);
        o.register(FunctionId::pyaes);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..3 {
            for f in [FunctionId::helloworld, FunctionId::pyaes] {
                let (files, _) = o.shadow_files(f);
                assert!(seen.insert(files.mem_file), "duplicate shadow identity");
                assert!(seen.insert(files.vmm_file), "duplicate shadow identity");
            }
        }
    }

    #[test]
    fn repeat_cold_starts_alias_instead_of_rereading() {
        // The tentpole property: a repeat REAP cold start must be served
        // by frame aliasing — cache hits, a fraction of the store reads
        // the uncached pipeline pays, and not one extra store write.
        let f = FunctionId::helloworld;
        let run_second_cold = |cache_on: bool| {
            let mut o = orch_with(f);
            o.set_frame_cache_enabled(cache_on);
            o.invoke_record(f);
            let _first = o.invoke_cold(f, ColdPolicy::Reap);
            let reads_before = o.fs().read_calls();
            let writes_before = o.fs().write_calls();
            let hits_before = o.frame_cache_stats().hits;
            let _second = o.invoke_cold(f, ColdPolicy::Reap);
            (
                o.fs().read_calls() - reads_before,
                o.fs().write_calls() - writes_before,
                o.frame_cache_stats().hits - hits_before,
            )
        };
        let (cached_reads, cached_writes, hits) = run_second_cold(true);
        let (uncached_reads, uncached_writes, no_hits) = run_second_cold(false);
        assert_eq!(no_hits, 0);
        assert!(hits > 10, "repeat cold start must alias ({hits} hits)");
        assert_eq!(cached_writes, uncached_writes, "a cold start writes nothing new");
        assert!(
            cached_reads * 5 < uncached_reads,
            "aliasing must eliminate the bulk of store reads \
             ({cached_reads} cached vs {uncached_reads} uncached)"
        );
    }

    #[test]
    fn pad_working_set_invalidates_stale_cache_entries() {
        // Padding rewrites the WS artifacts in place (same FileIds). A
        // stale cache would alias the old extent bytes at the new
        // layout's offsets — verify_restored inside the cold start would
        // blow up, and the prefetched count would miss the padding.
        let f = FunctionId::helloworld;
        let mut o = orch_with(f);
        o.invoke_record(f);
        let _warm_cache = o.invoke_cold(f, ColdPolicy::Reap);
        assert!(o.frame_cache_stats().entries > 0);
        let inval_before = o.frame_cache_stats().invalidated;
        let padded = o.pad_working_set(f, 64);
        assert!(
            o.frame_cache_stats().invalidated > inval_before,
            "padding must drop the stale WS extents"
        );
        // The repeat cold start serves the *padded* layout (page 0 is
        // resident from the first-fault handshake, a benign EEXIST).
        let out = o.invoke_cold(f, ColdPolicy::Reap);
        assert_eq!(out.prefetched_pages, padded.pages - 1);
        assert!(out.verified_pages > 0, "no stale byte survived verification");
    }

    #[test]
    fn rerecord_invalidates_stale_cache_entries() {
        let f = FunctionId::helloworld;
        let mut o = orch_with(f);
        o.invoke_record(f);
        let _warm_cache = o.invoke_cold(f, ColdPolicy::Reap);
        let inval_before = o.frame_cache_stats().invalidated;
        // Re-recording rewrites trace + WS files under the same ids.
        o.invoke_record(f);
        assert!(
            o.frame_cache_stats().invalidated > inval_before,
            "re-record must drop the previous recording's extents"
        );
        let out = o.invoke_cold(f, ColdPolicy::Reap);
        assert!(out.verified_pages > 0);
        assert!(out.prefetched_pages > 0);
    }

    #[test]
    fn drop_caches_forces_store_reads_again() {
        let f = FunctionId::helloworld;
        let mut o = orch_with(f);
        o.invoke_record(f);
        let _warm_cache = o.invoke_cold(f, ColdPolicy::Reap);
        assert!(o.frame_cache_stats().entries > 0);
        o.drop_caches();
        assert_eq!(o.frame_cache_stats().entries, 0);
        let misses_before = o.frame_cache_stats().misses;
        let _cold_cache = o.invoke_cold(f, ColdPolicy::Reap);
        assert!(
            o.frame_cache_stats().misses > misses_before,
            "after drop_caches the next cold start repopulates"
        );
    }

    #[test]
    fn prepare_then_finish_matches_invoke_cold_exactly() {
        // The prepare/finish split must be invisible: same seed, same
        // sequence, byte-identical outcome rendering.
        let f = FunctionId::helloworld;
        let mut a = orch_with(f);
        let mut b = orch_with(f);
        a.invoke_record(f);
        b.invoke_record(f);
        let via_invoke = a.invoke_cold(f, ColdPolicy::Reap);
        let mut prepared = b.prepare(&ColdRequest::shared(f, ColdPolicy::Reap)).unwrap();
        let (results, disk) = b.run_timed(vec![prepared.take_program()]);
        let (disposition, via_prepare) = b.finish(prepared, results[0], disk);
        assert_eq!(disposition, Disposition::Completed);
        assert_eq!(format!("{via_invoke:?}"), format!("{via_prepare:?}"));
    }
}
