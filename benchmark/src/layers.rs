//! The traced run: where an op's host time goes, layer by layer.
//!
//! Nothing under `crates/` is instrumented. The benchmark times its own
//! calls into each layer's public functions and diffs public counters,
//! in four passes over the workload's ops:
//!
//! * **opaque** — the cluster serves each op three times over, on three
//!   identical rigs: observers on and untraced, observers on and traced
//!   (root span + counter deltas), observers off. Same seed, same ops,
//!   so all three must produce one `sim_digest`; their wall-clock
//!   medians give `trace.overhead_pct` and `observability.overhead_pct`.
//! * **twin** — a single `Orchestrator` (same seed, functions, cache
//!   budget, lane count) serves the same requests stage by stage:
//!   `prepare_cold -> take_program -> run_timed -> into_outcome ->
//!   emit_telemetry`.
//! * **replay** — the functional pass `prepare_cold` hides, rebuilt from
//!   public functions on the benchmark's own boot, snapshot and REAP
//!   files: `restore_shell`, first-fault handshake, `prefetch_lanes` or
//!   on-demand `run_lazy`, `verify_restored_cached`, drop.
//!   `orchestrator.self_ms` is what these children cannot explain.
//! * **probes** — fixed-size calls into single functions (guest-memory
//!   set-up, extent install, range reads, warm cache lookups, router
//!   replay) that do not depend on the workload.

use std::collections::HashMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use functionbench::{FunctionId, GuestOp, InputGenerator, InvocationEvent};
use guest_mem::{GuestMemory, Uffd};
use microvm::{run_lazy, verify_restored_cached, FaultHandler, MicroVm, Snapshot, VmConfig};
use sim_core::{Deadline, SimDuration, SimTime};
use sim_storage::{FileStore, FrameCacheStats, SnapshotFrameCache};
use vhive_cluster::ColdRequest;
use vhive_core::ws_file::{read_trace_runs, read_ws_layout, ReapFiles};
use vhive_core::{route_workload, FunctionCosts, Monitor, MonitorMode, Orchestrator, RouterConfig};
use vhive_telemetry::{build_rollups, latency_report, window_report, TelemetrySink};

use crate::json::Json;
use crate::measure::{RunConfig, RunResult};
use crate::stats::{median, percentile, SimDigest};
use crate::trace::Tracer;
use crate::workloads::{requests, Layers, Rig, Tally, Workload, CLUSTER_SEED, F4, OPEN_ADMISSION};

const MB: f64 = (1u64 << 20) as f64;

/// How `--seconds` is split over the passes: half to the opaque pass
/// (all its rigs together), a fifth each to the twin and the replay. The
/// rest of a traced run is set-up: three or four rigs, the twin, the
/// replay's own boots.
const OPAQUE_SHARE: f64 = 0.5;
const STAGED_SHARE: f64 = 0.2;

/// Timed ops the twin and the replay serve whatever the budget.
const MIN_STAGED_OPS: u64 = 2;

/// Median of the spans called `name`, in ms; 0 when the workload never
/// enters that call (no prefetch under Vanilla).
fn span_ms(tracer: &Tracer, name: &str) -> f64 {
    let d = tracer.durations_ms(name);
    if d.is_empty() {
        0.0
    } else {
        median(&d)
    }
}

/// Median wall-clock of `f` over `reps` calls, in ns.
fn probe_ns<R>(reps: usize, mut f: impl FnMut() -> R) -> f64 {
    probe_with_ns(reps, || (), |()| f())
}

/// [`probe_ns`] with an untimed `setup` before each call.
fn probe_with_ns<S, R>(
    reps: usize,
    mut setup: impl FnMut() -> S,
    mut f: impl FnMut(S) -> R,
) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let input = setup();
            let started = Instant::now();
            let output = std::hint::black_box(f(input));
            let elapsed = started.elapsed();
            drop(output);
            elapsed.as_nanos() as f64
        })
        .collect();
    median(&samples)
}

/// The public counters the opaque pass diffs around its ops.
#[derive(Clone, Copy)]
struct Counters {
    cache: FrameCacheStats,
    read_calls: u64,
    read_bytes: u64,
    write_bytes: u64,
    uffd_faults: u64,
    copied_pages: u64,
    zero_pages: u64,
}

impl Counters {
    fn read(rig: &Rig) -> Counters {
        let c = &rig.cluster;
        Counters {
            cache: c.frame_cache_stats(),
            read_calls: (0..c.num_shards())
                .map(|k| c.shard(k).fs().read_calls())
                .sum(),
            read_bytes: rig.registry.counter("storage_read_bytes_total"),
            write_bytes: rig.registry.counter("storage_write_bytes_total"),
            uffd_faults: rig.registry.counter("guest_uffd_fault_serves_total"),
            copied_pages: rig.registry.counter("guest_uffd_copied_pages_total"),
            zero_pages: rig.registry.counter("guest_uffd_zero_pages_total"),
        }
    }
}

/// What the opaque pass hands the later passes and the metric table.
struct Opaque {
    /// Timed ops served per rig.
    ops: u64,
    /// Index (counted from the warm-up op) of the first timed op.
    first_timed: usize,
    tally: Tally,
    digests: [u64; 3],
    plain_ms: Vec<f64>,
    traced_ms: Vec<f64>,
    off_ms: Vec<f64>,
    /// Storm only: the admitted subset served with admission off.
    subset_ms: Vec<f64>,
    serve_wall: Duration,
    served_requests: u64,
    residual_faults: u64,
    prefetched_pages: u64,
    disk_reads: u64,
    flush_us: Vec<f64>,
    before: Counters,
    after: Counters,
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Returns the pass's numbers and the traced rig: its `served` log drives
/// the twin and the replay, its sink and registry the operator-side
/// probes.
fn opaque_pass(w: &Workload, cfg: &RunConfig, tracer: &mut Tracer) -> (Opaque, Rig) {
    let ready = |layers| {
        let mut rig = Rig::build(w, cfg.seed, layers);
        rig.ramp();
        rig
    };
    let (mut plain, mut traced, mut off) =
        (ready(Layers::On), ready(Layers::On), ready(Layers::Off));
    // `cluster.shed_us_per_req` prices shedding as the burst's wall minus
    // the wall of its admitted subset served with no admission layer —
    // well-defined because the admitted subset is served byte-identically
    // either way. The subset rig follows the traced rig op for op.
    let admitted = |op: usize, served: &[usize]| served_requests(w, cfg.seed, op as u64, served);
    let mut subset_rig = w.admission.max_queue_depth.is_some().then(|| {
        let mut rig = Rig::deploy(
            &Workload {
                admission: OPEN_ADMISSION,
                ..*w
            },
            cfg.seed,
            Layers::On,
        );
        for (op, served) in traced.served.iter().enumerate() {
            rig.cluster.invoke_concurrent(&admitted(op, served));
        }
        rig
    });

    let before = Counters::read(&traced);
    let mut out = Opaque {
        ops: 0,
        first_timed: traced.served.len(),
        tally: Tally::new(),
        digests: [0; 3],
        plain_ms: Vec::new(),
        traced_ms: Vec::new(),
        off_ms: Vec::new(),
        subset_ms: Vec::new(),
        serve_wall: Duration::ZERO,
        served_requests: 0,
        residual_faults: 0,
        prefetched_pages: 0,
        disk_reads: 0,
        flush_us: Vec::new(),
        before,
        after: before,
    };
    // The rigs alternate op by op, so drift on a shared box lands on all
    // of them alike.
    let (mut tally_plain, mut tally_off) = (Tally::new(), Tally::new());
    let mut digest = [SimDigest::new(), SimDigest::new(), SimDigest::new()];
    let budget = Duration::from_secs_f64(cfg.seconds * OPAQUE_SHARE);
    let mut busy = Duration::ZERO;
    let mut op = 0u64;
    while w.goes_on(busy, budget, op) {
        let r = plain.next_op(&mut Tracer::off());
        busy += r.wall;
        out.plain_ms.push(ms(r.wall));
        tally_plain.absorb(w, op, &r, &mut digest[0]);

        let r = traced.next_op(tracer);
        busy += r.wall;
        out.traced_ms.push(ms(r.wall));
        out.tally.absorb(w, op, &r, &mut digest[1]);
        out.serve_wall += r.batch.serve_wall;
        out.served_requests += r.batch.outcomes.len() as u64 + u64::from(r.record.is_some());
        for o in r.record.iter().chain(&r.batch.outcomes) {
            out.residual_faults += o.residual_faults;
            out.prefetched_pages += o.prefetched_pages;
        }
        out.disk_reads += r.batch.disk_stats.device_reads;
        let span = tracer.begin("telemetry.flush", op, None);
        let started = Instant::now();
        traced.sink.flush();
        out.flush_us.push(started.elapsed().as_secs_f64() * 1e6);
        tracer.end(span);

        if let Some(rig) = &mut subset_rig {
            let subset: Vec<ColdRequest> = r.batch.served.iter().map(|&i| r.reqs[i]).collect();
            let started = Instant::now();
            let b = rig.cluster.invoke_concurrent(&subset);
            let wall = started.elapsed();
            busy += wall;
            out.subset_ms.push(ms(wall));
            assert_eq!(
                b.outcomes.len(),
                subset.len(),
                "the admitted subset is served whole"
            );
        }

        let r = off.next_op(&mut Tracer::off());
        busy += r.wall;
        out.off_ms.push(ms(r.wall));
        tally_off.absorb(w, op, &r, &mut digest[2]);
        op += 1;
    }
    out.ops = op;
    out.after = Counters::read(&traced);
    out.digests = [digest[0].finish(), digest[1].finish(), digest[2].finish()];
    (out, traced)
}

/// Drives a staged pass (twin, replay) over the ops the cluster served,
/// `serve(op, served, timed)`: warm-up and ramp ops first, untimed — they
/// only bring the pass's state to where the cluster's was — then as many
/// of the timed ops as `--seconds` allows, at least [`MIN_STAGED_OPS`].
/// Returns the number of timed ops served.
fn staged_ops(
    cfg: &RunConfig,
    o: &Opaque,
    served: &[Vec<usize>],
    mut serve: impl FnMut(u64, &[usize], bool),
) -> u64 {
    let budget = Duration::from_secs_f64(cfg.seconds * STAGED_SHARE);
    let mut started = Instant::now();
    let mut timed_ops = 0;
    for (op, served) in served.iter().enumerate() {
        if op < o.first_timed {
            serve(op as u64, served, false);
            started = Instant::now();
        } else if timed_ops < MIN_STAGED_OPS || started.elapsed() < budget {
            serve(op as u64, served, true);
            timed_ops += 1;
        }
    }
    timed_ops
}

/// The requests of `op` the cluster actually served.
fn served_requests(w: &Workload, seed: u64, op: u64, served: &[usize]) -> Vec<ColdRequest> {
    let reqs = requests(w, seed, op);
    served.iter().map(|&i| reqs[i]).collect()
}

#[derive(Default)]
struct Twin {
    ops: u64,
    steps: u64,
    requests: u64,
    run_timed_ns: u64,
    compile_us: f64,
}

/// One op on the twin, stage by stage.
fn twin_op(
    w: &Workload,
    twin: &mut Orchestrator,
    op: u64,
    reqs: &[ColdRequest],
    tracer: &mut Tracer,
    t: &mut Twin,
) {
    let root = tracer.begin("twin.op", op, None);
    if w.redeploy {
        let f = reqs[0].function;
        let span = tracer.begin("orchestrator.register", op, root);
        twin.register(f);
        tracer.end(span);
        let span = tracer.begin("orchestrator.invoke_record", op, root);
        twin.invoke_record(f);
        tracer.end(span);
    }
    let mut prepared = Vec::with_capacity(reqs.len());
    for r in reqs {
        let span = tracer.begin("orchestrator.prepare_cold", op, root);
        let p = if r.independent {
            twin.prepare_cold_shadow(r.function, r.policy, r.arrival)
        } else {
            let deadline = r.deadline.map(|b| Deadline::new(r.arrival, b));
            twin.try_prepare_cold_within(r.function, r.policy, r.arrival, deadline)
                .expect("the twin serves what the cluster served")
        };
        tracer.end(span);
        prepared.push(p);
    }
    let span = tracer.begin("orchestrator.take_program", op, root);
    let programs: Vec<_> = prepared.iter_mut().map(|p| p.take_program()).collect();
    tracer.end(span);
    t.steps += programs.iter().map(|p| p.steps.len() as u64).sum::<u64>();
    t.requests += programs.len() as u64;
    let span = tracer.begin("timeline.run_timed", op, root);
    let started = Instant::now();
    let (results, disk) = twin.run_timed(programs);
    t.run_timed_ns += started.elapsed().as_nanos() as u64;
    tracer.end(span);
    for (p, result) in prepared.into_iter().zip(results) {
        let span = tracer.begin("orchestrator.into_outcome", op, root);
        let outcome = p.into_outcome(result, disk);
        tracer.end(span);
        let span = tracer.begin("telemetry.emit", op, root);
        twin.emit_telemetry(&outcome);
        tracer.end(span);
    }
    tracer.end(root);
    t.ops += 1;
}

fn twin_pass(
    w: &Workload,
    cfg: &RunConfig,
    o: &Opaque,
    served: &[Vec<usize>],
    tracer: &mut Tracer,
) -> Twin {
    let mut twin = Orchestrator::new(CLUSTER_SEED);
    twin.set_telemetry(Some(TelemetrySink::new(FileStore::new())));
    twin.set_metrics(Some(sim_core::MetricsRegistry::new()));
    twin.set_frame_cache_budget(w.cache_budget);
    for f in F4 {
        let span = tracer.begin("orchestrator.register", 0, None);
        twin.register(f);
        tracer.end(span);
        let span = tracer.begin("orchestrator.invoke_record", 0, None);
        twin.invoke_record(f);
        tracer.end(span);
    }
    let mut t = Twin::default();
    staged_ops(cfg, o, served, |op, served, timed| {
        let reqs = served_requests(w, cfg.seed, op, served);
        if timed {
            twin_op(w, &mut twin, op, &reqs, tracer, &mut t);
        } else {
            twin_op(
                w,
                &mut twin,
                op,
                &reqs,
                &mut Tracer::off(),
                &mut Twin::default(),
            );
        }
    });
    // `cold_program` alone: the functional run comes from the public
    // functional pass, the compile is what is timed.
    let mut compile_ns = Vec::new();
    for f in F4 {
        let mode = if w.policy.uses_ws() {
            MonitorMode::Prefetch
        } else {
            MonitorMode::OnDemand
        };
        let run = twin.functional_cold(f, mode);
        let (files, reap) = twin.shadow_files(f);
        compile_ns.push(probe_ns(5, || {
            twin.cold_program(f, w.policy, false, &run, files, reap, SimTime::ZERO)
        }));
    }
    t.compile_us = median(&compile_ns) / 1e3;
    t
}

/// One function deployed by the benchmark itself, for the replay pass.
struct Deployed {
    function: FunctionId,
    snapshot: Snapshot,
    reap: ReapFiles,
    inputs: InputGenerator,
    next_seq: u64,
}

struct Replay {
    fs: FileStore,
    cache: SnapshotFrameCache,
    lanes: usize,
    functions: Vec<Deployed>,
    replay_ns: u64,
    demand_faults: u64,
}

/// The functional pass of one cold start, as `Orchestrator`'s private
/// `functional_attempt` runs it, from public functions only. Record mode
/// returns the REAP files it wrote.
#[allow(clippy::too_many_arguments)]
fn functional_pass(
    rp: &mut Replay,
    snapshot: &Snapshot,
    reap: Option<&ReapFiles>,
    mode: MonitorMode,
    seq: u64,
    inputs: &InputGenerator,
    request: u64,
    tracer: &mut Tracer,
) -> Option<ReapFiles> {
    // A record pass is `invoke_record`'s work, not `prepare_cold`'s: its
    // stages get their own names, so they stay out of the serve medians.
    let stage = |serve: &'static str, record: &'static str| {
        if mode == MonitorMode::Record {
            record
        } else {
            serve
        }
    };
    let root = tracer.begin(stage("replay.request", "replay.record"), request, None);
    let span = tracer.begin(
        stage("vm.restore_shell", "record.restore_shell"),
        request,
        root,
    );
    let mut vm = snapshot.restore_shell(&rp.fs).expect("snapshot restores");
    tracer.end(span);
    let mut monitor = Monitor::with_cache(snapshot, &rp.fs, mode, Some(&rp.cache));

    let span = tracer.begin(
        stage("monitor.handshake", "record.handshake"),
        request,
        root,
    );
    let first = vm.uffd_mut().inject_first_fault();
    let polled = vm.uffd_mut().poll().expect("injected fault queued");
    assert_eq!(polled, first);
    monitor
        .handle_fault(vm.uffd_mut(), first)
        .expect("first-fault handshake");
    vm.uffd_mut().wake();
    tracer.end(span);

    if mode == MonitorMode::Prefetch {
        let files = reap.expect("prefetch needs recorded files");
        let span = tracer.begin("monitor.prefetch", request, root);
        monitor
            .prefetch_lanes(vm.uffd_mut(), files, rp.lanes)
            .expect("prefetch");
        tracer.end(span);
        let span = tracer.begin("ws_file.read_trace", request, root);
        read_trace_runs(&rp.fs, files.trace_file).expect("trace readable");
        tracer.end(span);
    }

    let span = tracer.begin(stage("vm.replay", "record.replay"), request, root);
    let started = Instant::now();
    let conn_ops: Vec<GuestOp> = vm
        .kernel()
        .conn_plan()
        .into_iter()
        .map(GuestOp::Touch)
        .collect();
    let conn = run_lazy(&conn_ops, vm.uffd_mut(), &mut monitor);
    let ops = vm.invocation_ops(&inputs.input(seq));
    let proc = run_lazy(&ops, vm.uffd_mut(), &mut monitor);
    rp.replay_ns += started.elapsed().as_nanos() as u64;
    rp.demand_faults += conn.uffd_faults + proc.uffd_faults;
    tracer.end(span);

    let span = tracer.begin(stage("vm.verify", "record.verify"), request, root);
    let verified = verify_restored_cached(&vm, snapshot, &rp.fs, Some(&rp.cache))
        .expect("lossless restoration");
    assert!(verified > 0);
    tracer.end(span);

    let recorded = (mode == MonitorMode::Record).then(|| {
        let span = tracer.begin("ws_file.build", request, root);
        let files = monitor.finish_record(&format!("snapshots/{}", snapshot.function));
        tracer.end(span);
        files
    });
    let span = tracer.begin(stage("vm.teardown", "record.teardown"), request, root);
    drop(monitor);
    drop(vm);
    tracer.end(span);
    tracer.end(root);
    recorded
}

/// Deploys `f` the way `Orchestrator::register` + `invoke_record` do:
/// boot, pause, capture, drop the cached frames of the rewritten files,
/// one record-mode pass.
fn deploy(rp: &mut Replay, f: FunctionId, request: u64, tracer: &mut Tracer) -> Deployed {
    let config = VmConfig {
        mem_mib: 256,
        vcpus: 1,
        seed: CLUSTER_SEED ^ ((f as u64) << 8),
    };
    let span = tracer.begin("vm.boot", request, None);
    let (mut vm, _) = MicroVm::boot(f, config);
    tracer.end(span);
    vm.pause();
    let span = tracer.begin("vm.capture", request, None);
    let snapshot = Snapshot::capture(&vm, &rp.fs, &format!("snapshots/{f}"));
    tracer.end(span);
    drop(vm);
    rp.cache.invalidate_file(snapshot.mem_file);
    rp.cache.invalidate_file(snapshot.vmm_file);
    let inputs = InputGenerator::new(f, CLUSTER_SEED);
    let reap = functional_pass(
        rp,
        &snapshot,
        None,
        MonitorMode::Record,
        0,
        &inputs,
        request,
        tracer,
    )
    .expect("record mode writes REAP files");
    rp.cache.invalidate_file(reap.trace_file);
    rp.cache.invalidate_file(reap.ws_file);
    Deployed {
        function: f,
        snapshot,
        reap,
        inputs,
        next_seq: 1,
    }
}

fn replay_pass(
    w: &Workload,
    cfg: &RunConfig,
    o: &Opaque,
    served: &[Vec<usize>],
    tracer: &mut Tracer,
) -> Replay {
    let cache = SnapshotFrameCache::new();
    cache.set_budget(w.cache_budget);
    let mut rp = Replay {
        fs: FileStore::new(),
        cache,
        lanes: Orchestrator::new(CLUSTER_SEED).prefetch_lanes(),
        functions: Vec::new(),
        replay_ns: 0,
        demand_faults: 0,
    };
    for f in F4 {
        let deployed = deploy(&mut rp, f, 0, tracer);
        rp.functions.push(deployed);
    }
    let mode = if w.policy.uses_ws() {
        MonitorMode::Prefetch
    } else {
        MonitorMode::OnDemand
    };
    let serve = |rp: &mut Replay, op: u64, served: &[usize], tracer: &mut Tracer| {
        let reqs = served_requests(w, cfg.seed, op, served);
        if w.redeploy {
            let f = reqs[0].function;
            let k = rp
                .functions
                .iter()
                .position(|d| d.function == f)
                .expect("deployed");
            let redeployed = deploy(rp, f, op, tracer);
            rp.functions[k] = redeployed;
        }
        for r in reqs {
            let k = rp
                .functions
                .iter()
                .position(|d| d.function == r.function)
                .expect("deployed");
            let d = &mut rp.functions[k];
            let seq = d.next_seq;
            d.next_seq += 1;
            let (snapshot, reap, inputs) = (d.snapshot.clone(), d.reap, d.inputs.clone());
            functional_pass(rp, &snapshot, Some(&reap), mode, seq, &inputs, op, tracer);
        }
    };
    staged_ops(cfg, o, served, |op, served, timed| {
        if timed {
            serve(&mut rp, op, served, tracer);
        } else {
            serve(&mut rp, op, served, &mut Tracer::off());
            // Only the timed ops count.
            (rp.replay_ns, rp.demand_faults) = (0, 0);
        }
    });
    rp
}

/// Fixed-size probes of single public functions.
struct Probes {
    guest_mem_new_ms: f64,
    install_gbps: f64,
    range_read_gbps: f64,
    cache_lookup_ns: f64,
    ws_parse_us: f64,
    router_ns_per_event: f64,
}

fn probes(rp: &Replay) -> Probes {
    let d = &rp.functions[0];
    let layout = read_ws_layout(&rp.fs, d.reap.ws_file).expect("WS file readable");
    let ws_bytes: u64 = layout.extents.iter().map(|(run, _)| run.byte_len()).sum();
    let fresh_uffd = || Uffd::register(GuestMemory::new(256 << 20), 0x7f00_0000_0000);

    let guest_mem_new_ms = probe_ns(9, fresh_uffd) / 1e6;
    let install_ns = probe_with_ns(9, fresh_uffd, |mut uffd| {
        for &(run, at) in &layout.extents {
            rp.fs
                .with_range(d.reap.ws_file, at, run.byte_len(), |src| {
                    uffd.copy_run(run, src)
                })
                .expect("extent installs");
        }
        uffd
    });
    let mut bufs: Vec<Vec<u8>> = layout
        .extents
        .iter()
        .map(|(run, _)| vec![0u8; run.byte_len() as usize])
        .collect();
    let range_ns = probe_ns(9, || {
        let jobs: Vec<(u64, &mut [u8])> = layout
            .extents
            .iter()
            .zip(bufs.iter_mut())
            .map(|(&(_, at), b)| (at, b.as_mut_slice()))
            .collect();
        rp.fs.read_ranges_into(d.reap.ws_file, jobs, 1);
    });
    let cache = SnapshotFrameCache::new();
    let lookups = |cache: &SnapshotFrameCache| {
        for &(run, at) in &layout.extents {
            cache
                .get_or_load(&rp.fs, d.reap.ws_file, at, run.byte_len())
                .expect("live file");
        }
    };
    lookups(&cache);
    let cache_lookup_ns = probe_ns(21, || lookups(&cache)) / layout.extents.len() as f64;
    let ws_parse_us = probe_ns(21, || read_ws_layout(&rp.fs, d.reap.ws_file)) / 1e3;

    // As `bench-json`'s `router/replay_shed_1m`, at a fifth of the size.
    const EVENTS: u64 = 200_000;
    let costs: HashMap<FunctionId, FunctionCosts> = F4
        .into_iter()
        .map(|f| {
            let costs = FunctionCosts {
                cold_latency: SimDuration::from_millis(232),
                warm_latency: SimDuration::from_millis(10),
                warm_bytes: 150 << 20,
            };
            (f, costs)
        })
        .collect();
    let events: Vec<InvocationEvent> = (0..EVENTS)
        .map(|i| InvocationEvent {
            at: SimTime::ZERO + SimDuration::from_micros(50 * i),
            function: F4[(i % 4) as usize],
            seq: i,
        })
        .collect();
    let config = RouterConfig {
        max_queue_depth: Some(64),
        deadline: Some(SimDuration::from_secs(1)),
        ..RouterConfig::default()
    };
    let router_ns = probe_ns(3, || {
        let report = route_workload(&events, config, &costs);
        assert_eq!(report.goodput() + report.shed + report.expired, EVENTS);
    });
    Probes {
        guest_mem_new_ms,
        install_gbps: ws_bytes as f64 / install_ns,
        range_read_gbps: ws_bytes as f64 / range_ns,
        cache_lookup_ns,
        ws_parse_us,
        router_ns_per_event: router_ns / EVENTS as f64,
    }
}

/// Where traces are written: `out/` beside the package manifest.
pub fn out_dir() -> PathBuf {
    let manifest = std::env::var("CARGO_MANIFEST_DIR")
        .unwrap_or_else(|_| env!("CARGO_MANIFEST_DIR").to_string());
    PathBuf::from(manifest).join("out")
}

/// Runs `w` traced and reports the per-layer metrics.
pub fn traced_run(w: &Workload, cfg: &RunConfig) -> RunResult {
    let mut tracer = Tracer::on();
    let (o, rig) = opaque_pass(w, cfg, &mut tracer);
    let twin = twin_pass(w, cfg, &o, &rig.served, &mut tracer);
    let rp = replay_pass(w, cfg, &o, &rig.served, &mut tracer);
    let pr = probes(&rp);

    // Operator-side queries over the run's own spans.
    let store = rig.sink.store();
    let report_scan_ms = probe_ns(3, || latency_report(store)) / 1e6;
    let rollup_build_ms = probe_ns(3, || build_rollups(store, 1_000_000_000)) / 1e6;
    let window_query_ms = probe_ns(3, || window_report(store, 0, u64::MAX)) / 1e6;
    let spans = rig.sink.flushed_spans();
    let span_bytes: u64 = store
        .list()
        .iter()
        .filter(|n| n.starts_with(vhive_telemetry::BATCH_PREFIX))
        .filter_map(|n| store.open(n))
        .map(|id| store.len(id))
        .sum();
    let exposed = rig.registry.expose();
    let expose_ms = probe_ns(5, || rig.registry.expose()) / 1e6;
    let series = exposed
        .lines()
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .count();

    let served = o.served_requests.max(1) as f64;
    let (b, a) = (&o.before, &o.after);
    let lookups = (a.cache.hits - b.cache.hits) + (a.cache.misses - b.cache.misses);
    let sheds_per_op = o.tally.shed as f64 / o.ops as f64;
    // Rig against rig, op by op: the same op index is the same requests
    // on both, so the median of paired ratios survives both the op-to-op
    // differences of a redeploy cycle and a stalled op.
    let paired = |xs: &[f64], bases: &[f64]| {
        median(
            &xs.iter()
                .zip(bases)
                .map(|(x, base)| x / base)
                .collect::<Vec<_>>(),
        )
    };

    let prepare_ms = span_ms(&tracer, "orchestrator.prepare_cold");
    let children_ms: f64 = [
        "vm.restore_shell",
        "monitor.handshake",
        "monitor.prefetch",
        "ws_file.read_trace",
        "vm.replay",
        "vm.verify",
        "vm.teardown",
    ]
    .iter()
    .map(|n| span_ms(&tracer, n))
    .sum::<f64>()
        + twin.compile_us / 1e3;
    let twin_op_ms = tracer.durations_ms("twin.op");

    let metrics: Vec<(&'static str, f64)> = vec![
        ("cluster.batch_wall_ms_p95", percentile(&o.traced_ms, 95.0)),
        (
            "cluster.serve_wall_share",
            o.serve_wall.as_secs_f64() * 1e3 / o.traced_ms.iter().sum::<f64>(),
        ),
        ("cluster.lane_speedup", paired(&twin_op_ms, &o.traced_ms)),
        (
            "cluster.shed_us_per_req",
            if o.subset_ms.is_empty() || sheds_per_op == 0.0 {
                0.0
            } else {
                1e3 * (median(&o.traced_ms) - median(&o.subset_ms)) / sheds_per_op
            },
        ),
        ("orchestrator.prepare_ms", prepare_ms),
        ("orchestrator.self_ms", prepare_ms - children_ms),
        (
            "orchestrator.outcome_us",
            1e3 * span_ms(&tracer, "orchestrator.into_outcome"),
        ),
        (
            "orchestrator.record_ms",
            span_ms(&tracer, "orchestrator.invoke_record"),
        ),
        ("vm.restore_shell_ms", span_ms(&tracer, "vm.restore_shell")),
        ("vm.replay_ms", span_ms(&tracer, "vm.replay")),
        ("vm.verify_ms", span_ms(&tracer, "vm.verify")),
        ("vm.teardown_ms", span_ms(&tracer, "vm.teardown")),
        (
            "vm.boot_capture_ms",
            span_ms(&tracer, "orchestrator.register"),
        ),
        ("monitor.prefetch_ms", span_ms(&tracer, "monitor.prefetch")),
        (
            "monitor.fault_serve_us",
            rp.replay_ns as f64 / 1e3 / rp.demand_faults.max(1) as f64,
        ),
        (
            "monitor.residual_faults_per_req",
            o.residual_faults as f64 / served,
        ),
        (
            "monitor.prefetched_pages_per_req",
            o.prefetched_pages as f64 / served,
        ),
        ("ws_file.build_ms", span_ms(&tracer, "ws_file.build")),
        ("ws_file.parse_us", pr.ws_parse_us),
        ("invocation.compile_us", twin.compile_us),
        (
            "invocation.steps_per_req",
            twin.steps as f64 / twin.requests.max(1) as f64,
        ),
        (
            "timeline.run_ms_per_batch",
            span_ms(&tracer, "timeline.run_timed"),
        ),
        (
            "timeline.host_ns_per_step",
            twin.run_timed_ns as f64 / twin.steps.max(1) as f64,
        ),
        ("timeline.disk_reads_per_req", o.disk_reads as f64 / served),
        ("guest_mem.new_ms", pr.guest_mem_new_ms),
        ("guest_mem.install_gbps", pr.install_gbps),
        (
            "guest_mem.uffd_faults_per_req",
            (a.uffd_faults - b.uffd_faults) as f64 / served,
        ),
        (
            "guest_mem.copied_pages_per_req",
            (a.copied_pages - b.copied_pages) as f64 / served,
        ),
        (
            "guest_mem.zero_pages_per_req",
            (a.zero_pages - b.zero_pages) as f64 / served,
        ),
        (
            "storage.read_mb_per_req",
            (a.read_bytes - b.read_bytes) as f64 / MB / served,
        ),
        (
            "storage.read_calls_per_req",
            (a.read_calls - b.read_calls) as f64 / served,
        ),
        (
            "storage.write_mb_per_op",
            (a.write_bytes - b.write_bytes) as f64 / MB / o.ops as f64,
        ),
        ("storage.range_read_gbps", pr.range_read_gbps),
        (
            "storage.frame_cache_hit_ratio",
            (a.cache.hits - b.cache.hits) as f64 / lookups.max(1) as f64,
        ),
        ("storage.frame_cache_lookup_ns", pr.cache_lookup_ns),
        ("storage.frame_cache_mb", a.cache.bytes as f64 / MB),
        (
            "storage.frame_cache_evictions_per_req",
            (a.cache.evicted - b.cache.evicted) as f64 / served,
        ),
        (
            "telemetry.emit_us_per_span",
            1e3 * span_ms(&tracer, "telemetry.emit"),
        ),
        ("telemetry.flush_us_per_batch", median(&o.flush_us)),
        (
            "telemetry.bytes_per_span",
            span_bytes as f64 / spans.max(1) as f64,
        ),
        ("telemetry.report_scan_ms", report_scan_ms),
        ("telemetry.rollup_build_ms", rollup_build_ms),
        ("telemetry.window_query_ms", window_query_ms),
        ("metrics.expose_ms", expose_ms),
        ("metrics.series", series as f64),
        (
            "observability.overhead_pct",
            100.0 * (paired(&o.plain_ms, &o.off_ms) - 1.0),
        ),
        ("router.replay_ns_per_event", pr.router_ns_per_event),
        (
            "trace.overhead_pct",
            100.0 * (paired(&o.traced_ms, &o.plain_ms) - 1.0),
        ),
    ];

    let mut problems: Vec<String> = Vec::new();
    if o.tally.failed > 0 {
        problems.push(format!(
            "{} of {} operations failed",
            o.tally.failed, o.tally.attempted
        ));
    }
    if o.digests[0] != o.digests[1] {
        problems.push("sim_digest differs between the traced and the untraced rig".to_string());
    }
    if o.digests[0] != o.digests[2] {
        problems.push("sim_digest differs with the observers detached".to_string());
    }
    if let Some((name, _)) = metrics.iter().find(|(_, v)| !v.is_finite()) {
        problems.push(format!("{name} is not a finite number"));
    }
    let trace_file = out_dir().join(format!("trace-{}.jsonl", w.name));
    if let Err(e) = tracer.write_jsonl(&trace_file) {
        problems.push(format!("cannot write {}: {e}", trace_file.display()));
    }

    let detail = Json::obj([
        ("workload", Json::str(w.name)),
        ("seed", Json::Num(cfg.seed as f64)),
        ("traced", Json::Bool(true)),
        ("sim_digest", Json::str(format!("{:016x}", o.digests[1]))),
        ("sim_ops", Json::Num(o.tally.sim_ops() as f64)),
        ("ops", Json::Num(o.ops as f64)),
        ("batch_wall_samples", Json::Num(o.traced_ms.len() as f64)),
        ("twin_ops", Json::Num(twin.ops as f64)),
        (
            "replay_requests",
            Json::Num(tracer.durations_ms("replay.request").len() as f64),
        ),
        ("spans", Json::Num(tracer.spans().len() as f64)),
        ("trace_file", Json::str(trace_file.display().to_string())),
        ("staged_children_ms", Json::Num(children_ms)),
        // Self time of the root spans: what the stages under them leave
        // uncovered (the benchmark's own loop, mostly).
        (
            "root_self_ms",
            Json::obj(
                ["op", "twin.op", "replay.request"]
                    .map(|name| (name, Json::Num(median(&tracer.self_ms(name))))),
            ),
        ),
        (
            "problems",
            Json::Arr(problems.iter().map(Json::str).collect()),
        ),
    ]);
    RunResult {
        correct: problems.is_empty(),
        attempted: o.tally.attempted,
        failed: o.tally.failed,
        metrics,
        detail,
    }
}
