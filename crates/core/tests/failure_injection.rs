//! End-to-end recovery tests: deterministic storage faults injected at
//! the `FileStore` boundary must never drop a request, and every
//! completed invocation's simulated outcome must be byte-identical to
//! the fault-free run of its effective policy — recovery work shows up
//! only in [`InvocationOutcome::recovery`].

use std::sync::Arc;

use functionbench::FunctionId;
use guest_mem::{MemError, PageIdx, TouchOutcome, Uffd};
use microvm::{verify_restored_cached, FaultHandler, MicroVm, Snapshot, VmConfig};
use sim_core::{Deadline, SimDuration, SimTime};
use sim_storage::{
    FaultInjector, FaultKind, FaultPlan, FaultRule, FaultScope, FileId, FileStore,
    SnapshotFrameCache, StorageError,
};
use vhive_core::{
    ColdAbort, ColdPolicy, ColdRequest, Disposition, InvocationOutcome, Monitor, MonitorMode,
    Orchestrator, PrefetchError, ReapFiles, RecoveryReport,
};
use vhive_telemetry::{scan, TelemetrySink};

const F: FunctionId = FunctionId::helloworld;

/// Registers + records `F` on a fresh orchestrator (record consumes
/// seq 0, so the first cold invocation under test runs at seq 1 — in
/// both the faulty and the reference world).
fn prepared(seed: u64) -> Orchestrator {
    let mut o = Orchestrator::new(seed);
    o.register(F);
    o.invoke_record(F);
    o
}

/// Debug rendering with the recovery ledger normalised away — the
/// equality the chaos invariant is stated over.
fn normalized(outcome: &InvocationOutcome) -> String {
    let mut o = outcome.clone();
    o.recovery = RecoveryReport::default();
    format!("{o:?}")
}

fn attach(o: &Orchestrator, rule: FaultRule) {
    o.fs()
        .attach_injector(Arc::new(FaultInjector::new(FaultPlan::new().rule(rule))));
}

#[test]
fn transient_restore_faults_retry_to_identical_outcome() {
    let baseline = prepared(11).invoke_cold(F, ColdPolicy::Reap);

    let mut o = prepared(11);
    attach(
        &o,
        FaultRule::new(
            FaultScope::NameContains("vmm_state".into()),
            FaultKind::TransientError,
        )
        .count(2),
    );
    let faulted = o.invoke_cold(F, ColdPolicy::Reap);

    assert_eq!(faulted.recovery.transient_retries, 2);
    // Exponential virtual-time backoff: 100µs + 200µs.
    assert_eq!(faulted.recovery.retry_delay, SimDuration::from_micros(300));
    assert!(!faulted.recovery.fallback_vanilla);
    assert_eq!(faulted.policy, Some(ColdPolicy::Reap));
    assert_eq!(normalized(&faulted), normalized(&baseline));
}

#[test]
fn wire_corruption_of_ws_metadata_heals_with_one_reload() {
    let baseline = prepared(12).invoke_cold(F, ColdPolicy::Reap);

    let mut o = prepared(12);
    // Corrupt exactly one payload read of the WS file: the header parse
    // fails, the reload re-reads pristine stored bytes (budget spent).
    attach(
        &o,
        FaultRule::new(
            FaultScope::NameContains("ws_pages".into()),
            FaultKind::CorruptRead,
        )
        .count(1),
    );
    let faulted = o.invoke_cold(F, ColdPolicy::Reap);

    assert_eq!(faulted.recovery.corrupt_reloads, 1);
    assert!(!faulted.recovery.quarantined, "wire corruption must heal");
    assert_eq!(faulted.policy, Some(ColdPolicy::Reap));
    assert!(!o.is_quarantined(F));
    assert_eq!(normalized(&faulted), normalized(&baseline));
}

#[test]
fn wire_corruption_of_vmm_state_heals_with_one_reload() {
    let baseline = prepared(12).invoke_cold(F, ColdPolicy::Reap);

    let mut o = prepared(12);
    // Corrupt exactly one read of the VMM state file: the checksum
    // mismatches, the reload re-reads pristine stored bytes (budget spent).
    attach(
        &o,
        FaultRule::new(
            FaultScope::NameContains("vmm_state".into()),
            FaultKind::CorruptRead,
        )
        .count(1),
    );
    let faulted = o.invoke_cold(F, ColdPolicy::Reap);

    assert_eq!(faulted.recovery.corrupt_reloads, 1);
    assert!(!faulted.recovery.quarantined, "wire corruption must heal");
    assert_eq!(faulted.policy, Some(ColdPolicy::Reap));
    assert!(!o.is_quarantined(F));
    assert_eq!(normalized(&faulted), normalized(&baseline));
}

#[test]
fn stored_corruption_of_vmm_state_surrenders_the_shard() {
    let baseline = prepared(13).invoke_cold(F, ColdPolicy::Reap);

    // A scribble on the stored VMM state persists across the reload: the
    // snapshot itself is bad, so there is nothing to fall back to here.
    let mut o = prepared(13);
    let vmm = o.fs().open(&format!("snapshots/{F}/vmm_state")).unwrap();
    let byte = o.fs().read(vmm, 32, 1, |b| b[0]).unwrap();
    o.fs().write_at(vmm, 32, &[byte ^ 0xFF]).unwrap();
    let err = o
        .prepare(&ColdRequest::shared(F, ColdPolicy::Reap))
        .expect_err("a corrupt snapshot cannot restore");
    assert!(
        matches!(&err, ColdAbort::Shard(e) if e.function == F && e.detail.contains("checksum mismatch")),
        "{err}"
    );
    assert!(!o.is_quarantined(F), "the REAP artifacts are not at fault");

    // The seq was surrendered: the function's next request (here after the
    // file is repaired; in a cluster, on the shard it was rebuilt on) runs
    // with it and matches the fault-free run.
    o.fs().write_at(vmm, 32, &[byte]).unwrap();
    let replayed = o.invoke_cold(F, ColdPolicy::Reap);
    assert_eq!(replayed.seq, baseline.seq);
    assert_eq!(normalized(&replayed), normalized(&baseline));
}

#[test]
fn stored_corruption_quarantines_and_falls_back_to_vanilla() {
    let baseline = prepared(13).invoke_cold(F, ColdPolicy::Vanilla);

    // Scribbles on the stored WS header magic: corruption that persists
    // across reloads (unlike wire corruption). The second turns the
    // version digit into the retired v1 format's — also just a bad magic.
    let scribbles: [(u64, &[u8]); 2] = [(0, &[0xA5, 0x5A, 0xA5, 0x5A]), (7, b"1")];
    let faulted = scribbles.map(|(at, bytes)| {
        let mut o = prepared(13);
        let ws = o.fs().open(&format!("snapshots/{F}/ws_pages")).unwrap();
        o.fs().write_at(ws, at, bytes).unwrap();
        let faulted = o.invoke_cold(F, ColdPolicy::Reap);

        assert_eq!(faulted.recovery.corrupt_reloads, 1, "one reload attempted");
        assert!(faulted.recovery.quarantined);
        assert!(faulted.recovery.fallback_vanilla);
        assert_eq!(faulted.policy, Some(ColdPolicy::Vanilla));
        assert!(o.is_quarantined(F));
        assert!(o.needs_rerecord(F), "quarantine schedules a re-record");
        // The fallback reuses the seq and is byte-identical to a fault-free
        // Vanilla cold start.
        assert_eq!(normalized(&faulted), normalized(&baseline));
        format!("{faulted:?}")
    });
    assert_eq!(faulted[0], faulted[1], "recovery ledgers included");
}

#[test]
fn digest_verification_catches_silent_payload_corruption() {
    let baseline = prepared(14).invoke_cold(F, ColdPolicy::Vanilla);

    let mut o = prepared(14);
    o.set_verify_artifacts(true);
    // Flip one byte deep in the WS *payload* region: headers and extents
    // still parse, so only the digest check can notice before installing
    // poisoned pages into guest memory.
    let ws = o.fs().open(&format!("snapshots/{F}/ws_pages")).unwrap();
    let tail = o.fs().len(ws) - 1;
    let byte = o.fs().read(ws, tail, 1, |b| b[0]).unwrap();
    o.fs().write_at(ws, tail, &[byte ^ 0xFF]).unwrap();
    let faulted = o.invoke_cold(F, ColdPolicy::Reap);

    assert!(faulted.recovery.quarantined);
    assert!(faulted.recovery.fallback_vanilla);
    assert_eq!(faulted.recovery.corrupt_reloads, 0, "caught before prefetch");
    assert_eq!(faulted.policy, Some(ColdPolicy::Vanilla));
    assert!(o.needs_rerecord(F));
    assert_eq!(normalized(&faulted), normalized(&baseline));
}

#[test]
#[should_panic(expected = "lossless restoration")]
fn unverified_silent_payload_corruption_fails_stop() {
    // Without digest verification, silently corrupt WS payload bytes
    // reach guest memory — and the page-for-page restoration gate panics
    // rather than let a wrong-byte invocation complete.
    let mut o = prepared(15);
    let ws = o.fs().open(&format!("snapshots/{F}/ws_pages")).unwrap();
    let tail = o.fs().len(ws) - 1;
    let byte = o.fs().read(ws, tail, 1, |b| b[0]).unwrap();
    o.fs().write_at(ws, tail, &[byte ^ 0xFF]).unwrap();
    let _ = o.invoke_cold(F, ColdPolicy::Reap);
}

#[test]
fn auto_rerecord_heals_a_quarantined_working_set() {
    // Reference world: record, a Vanilla cold start, a fresh record,
    // then a REAP cold start off the fresh artifacts.
    let mut b = prepared(16);
    let b1 = b.invoke_cold(F, ColdPolicy::Vanilla);
    let b2 = b.invoke_record(F);
    let b3 = b.invoke_cold(F, ColdPolicy::Reap);

    // Faulty world: stored corruption quarantines; §7.2's auto-re-record
    // then refreshes the artifacts on the next REAP request.
    let mut o = prepared(16);
    o.set_auto_rerecord(true, 0.5);
    let ws = o.fs().open(&format!("snapshots/{F}/ws_pages")).unwrap();
    o.fs().write_at(ws, 0, &[0xA5, 0x5A, 0xA5, 0x5A]).unwrap();

    let fell_back = o.invoke_cold(F, ColdPolicy::Reap);
    assert!(fell_back.recovery.fallback_vanilla);
    let rerecorded = o.invoke_cold(F, ColdPolicy::Reap);
    assert!(rerecorded.recorded, "flagged re-record runs next");
    assert!(!o.is_quarantined(F), "fresh artifacts lift the quarantine");
    let healed = o.invoke_cold(F, ColdPolicy::Reap);
    assert!(healed.recovery.is_clean());

    assert_eq!(normalized(&fell_back), normalized(&b1));
    assert_eq!(normalized(&rerecorded), normalized(&b2));
    assert_eq!(normalized(&healed), normalized(&b3));
}

#[test]
fn restore_blackout_surrenders_the_request_and_rolls_back_seq() {
    let baseline = prepared(17).invoke_cold(F, ColdPolicy::Reap);

    let mut o = prepared(17);
    attach(
        &o,
        FaultRule::new(FaultScope::Any, FaultKind::Blackout),
    );
    let err = o
        .prepare(&ColdRequest::shared(F, ColdPolicy::Reap))
        .expect_err("blacked-out store cannot restore");
    assert!(matches!(err, ColdAbort::Shard(e) if e.function == F));

    // The store comes back (elsewhere this is the surviving shard): the
    // surrendered request completes with the seq it would have had.
    o.fs().detach_injector();
    let replayed = o.invoke_cold(F, ColdPolicy::Reap);
    assert_eq!(replayed.seq, baseline.seq);
    assert_eq!(normalized(&replayed), normalized(&baseline));
}

/// Blacks out the trace file from its `skip`-th operation on, for every
/// `skip` until a request gets through: whether the blackout lands on the
/// prefetch's own read of the trace or on a read after the pass, the
/// request resolves — quarantined and served Vanilla at its own seq —
/// instead of panicking.
#[test]
fn trace_blackout_anywhere_in_prepare_falls_back_to_vanilla() {
    let vanilla = normalized(&prepared(11).invoke_cold(F, ColdPolicy::Vanilla));
    for policy in [ColdPolicy::Reap, ColdPolicy::ParallelPF, ColdPolicy::WsFileCached] {
        let clean = normalized(&prepared(11).invoke_cold(F, policy));
        for skip in 0.. {
            assert!(skip < 64, "{policy}: still blacked out after {skip} operations");
            let mut o = prepared(11);
            attach(
                &o,
                FaultRule::new(FaultScope::NameContains("ws_trace".into()), FaultKind::Blackout)
                    .skip(skip),
            );
            let (disposition, outcome) = o.invoke_cold_within(F, policy, None);
            assert_eq!(disposition, Disposition::Completed, "{policy} skip {skip}");
            let outcome = outcome.expect("completed with an outcome");
            if !outcome.recovery.fallback_vanilla {
                assert_eq!(normalized(&outcome), clean, "{policy} skip {skip}");
                break;
            }
            assert!(outcome.recovery.quarantined && o.is_quarantined(F));
            assert!(o.needs_rerecord(F), "quarantine schedules a re-record");
            assert_eq!(normalized(&outcome), vanilla, "{policy} skip {skip}");
        }
    }
}

#[test]
fn injected_delays_charge_virtual_time_only() {
    let baseline = prepared(18).invoke_cold(F, ColdPolicy::Reap);

    let mut o = prepared(18);
    attach(
        &o,
        FaultRule::new(
            FaultScope::NameContains("vmm_state".into()),
            FaultKind::Delay(SimDuration::from_millis(2)),
        )
        .count(1),
    );
    let delayed = o.invoke_cold(F, ColdPolicy::Reap);

    assert_eq!(delayed.recovery.retry_delay, SimDuration::from_millis(2));
    assert_eq!(delayed.latency, baseline.latency, "timed pass unaffected");
    assert_eq!(normalized(&delayed), normalized(&baseline));
}

#[test]
fn transient_retry_backoff_pushes_a_request_past_its_deadline() {
    let baseline = prepared(20).invoke_cold(F, ColdPolicy::Reap);

    let mut o = prepared(20);
    // Two transient faults cost 100µs + 200µs of backoff; a 250µs budget
    // survives the first retry but cannot commit to the second.
    attach(
        &o,
        FaultRule::new(
            FaultScope::NameContains("vmm_state".into()),
            FaultKind::TransientError,
        )
        .count(2),
    );
    let deadline = Deadline::new(SimTime::ZERO, SimDuration::from_micros(250));
    let (disposition, outcome) = o.invoke_cold_within(F, ColdPolicy::Reap, Some(deadline));
    assert_eq!(disposition, Disposition::DeadlineExceeded);
    assert!(outcome.is_none(), "aborted mid-recovery: no outcome");

    // The consumed seq was rolled back exactly like a shard failover:
    // with the fault budget spent, the replay completes with the seq —
    // and bytes — the fault-free run would have had.
    let replayed = o.invoke_cold(F, ColdPolicy::Reap);
    assert_eq!(replayed.seq, baseline.seq);
    assert_eq!(normalized(&replayed), normalized(&baseline));
}

#[test]
fn injected_delay_consumes_the_same_budget_as_backoff() {
    // A 2 ms device delay on the VMM state read (op succeeds, latency
    // charged) plus one transient fault on the WS prefetch in the same
    // attempt: when the attempt fails, the drained delay alone exhausts
    // a 1 ms budget — the 100µs retry backoff never even gets committed.
    let plan = || {
        FaultPlan::new()
            .rule(
                FaultRule::new(
                    FaultScope::NameContains("vmm_state".into()),
                    FaultKind::Delay(SimDuration::from_millis(2)),
                )
                .count(1),
            )
            .rule(
                FaultRule::new(
                    FaultScope::NameContains("ws_pages".into()),
                    FaultKind::TransientError,
                )
                .count(1),
            )
    };
    let mut o = prepared(21);
    o.fs().attach_injector(Arc::new(FaultInjector::new(plan())));
    let sink = TelemetrySink::new(FileStore::new());
    o.set_telemetry(Some(sink.clone()));
    let deadline = Deadline::new(SimTime::ZERO, SimDuration::from_millis(1));
    let (disposition, outcome) = o.invoke_cold_within(F, ColdPolicy::Reap, Some(deadline));
    assert_eq!(disposition, Disposition::DeadlineExceeded);
    assert!(outcome.is_none(), "budget exhausted mid-recovery");
    // The unserved span is stamped at the expiry instant — the same rule
    // the cluster applies (crates/cluster/tests/failover.rs pins that the
    // two agree).
    sink.flush();
    let (spans, _) = scan(sink.store());
    assert_eq!(spans.len(), 1);
    assert_eq!(spans[0].disposition, "deadline_exceeded");
    assert_eq!(spans[0].vt_ns, deadline.expires_at().as_nanos());

    // Without the deadline, the identical fault schedule recovers and
    // bills delay + backoff to the recovery ledger.
    let mut o = prepared(21);
    o.fs().attach_injector(Arc::new(FaultInjector::new(plan())));
    let (disposition, outcome) = o.invoke_cold_within(F, ColdPolicy::Reap, None);
    assert_eq!(disposition, Disposition::Completed);
    let recovery = outcome.unwrap().recovery;
    assert_eq!(recovery.transient_retries, 1);
    assert!(recovery.retry_delay >= SimDuration::from_millis(2) + SimDuration::from_micros(100));
}

#[test]
fn late_completion_keeps_its_outcome_but_misses_goodput() {
    let baseline = prepared(22).invoke_cold(F, ColdPolicy::Reap);

    // A 2 ms injected delay on a clean run drains at completion: the
    // preparation succeeds, but the virtual completion (timed finish +
    // recovery delay) lands past a 1 ms budget.
    let mut o = prepared(22);
    attach(
        &o,
        FaultRule::new(
            FaultScope::NameContains("vmm_state".into()),
            FaultKind::Delay(SimDuration::from_millis(2)),
        )
        .count(1),
    );
    let deadline = Deadline::new(SimTime::ZERO, SimDuration::from_millis(1));
    let (disposition, outcome) = o.invoke_cold_within(F, ColdPolicy::Reap, Some(deadline));
    assert_eq!(disposition, Disposition::DeadlineExceeded);
    let outcome = outcome.expect("late completion still served");
    // The simulated outcome is byte-identical to the deadline-off run —
    // the disposition, not the bytes, records the miss.
    assert_eq!(normalized(&outcome), normalized(&baseline));
}

#[test]
fn deadline_off_invoke_matches_the_legacy_path() {
    let baseline = prepared(23).invoke_cold(F, ColdPolicy::Reap);
    let (disposition, outcome) = prepared(23).invoke_cold_within(F, ColdPolicy::Reap, None);
    assert_eq!(disposition, Disposition::Completed);
    assert_eq!(format!("{:?}", outcome.unwrap()), format!("{baseline:?}"));
}

#[test]
fn generous_budget_completes_with_identical_bytes() {
    let baseline = prepared(24).invoke_cold(F, ColdPolicy::Reap);
    let deadline = Deadline::new(SimTime::ZERO, SimDuration::from_secs(10));
    let (disposition, outcome) = prepared(24).invoke_cold_within(F, ColdPolicy::Reap, Some(deadline));
    assert_eq!(disposition, Disposition::Completed);
    assert_eq!(format!("{:?}", outcome.unwrap()), format!("{baseline:?}"));
}

#[test]
#[should_panic(expected = "snapshot restore failed")]
fn vmm_checksum_mismatch_stays_fatal() {
    // A VMM state file corrupt in the store surrenders the shard; the
    // infallible single-node form has nowhere to hand the request and
    // fails loudly.
    let mut o = prepared(19);
    let vmm = o.fs().open(&format!("snapshots/{F}/vmm_state")).unwrap();
    let byte = o.fs().read(vmm, 32, 1, |b| b[0]).unwrap();
    o.fs().write_at(vmm, 32, &[byte ^ 0xFF]).unwrap();
    let _ = o.invoke_cold(F, ColdPolicy::Reap);
}

/// Faults `page` in and hands the event to `m`.
fn fault(m: &mut Monitor<'_>, uffd: &mut Uffd, page: u64) -> Result<(), MemError> {
    let TouchOutcome::Faulted(ev) = uffd.touch_page(PageIdx::new(page)) else {
        panic!("page {page} already resident");
    };
    assert_eq!(uffd.poll(), Some(ev));
    m.handle_fault(uffd, ev)
}

/// Blacks out `file` from its `skip`-th store operation on, for every
/// `skip` until `op` gets through, on a cache whose zero budget bypasses
/// every miss. Each failure must be `typed`; at least one must come after
/// a bypass, i.e. from the bypass's own borrow of the store.
fn blackout_sweep<T, E: std::fmt::Debug>(
    fs: &FileStore,
    file: FileId,
    mut op: impl FnMut(&SnapshotFrameCache) -> Result<T, E>,
    typed: impl Fn(&E) -> bool,
) {
    let mut bypass_failed = false;
    for skip in 0.. {
        assert!(skip < 64, "still blacked out after {skip} operations");
        let cache = SnapshotFrameCache::new();
        cache.set_budget(Some(0));
        let rule = FaultRule::new(FaultScope::Files(vec![file]), FaultKind::Blackout).skip(skip);
        fs.attach_injector(Arc::new(FaultInjector::new(FaultPlan::new().rule(rule))));
        let result = op(&cache);
        fs.detach_injector();
        match result {
            Ok(_) => break,
            Err(e) => {
                assert!(typed(&e), "skip {skip}: {e:?}");
                bypass_failed |= cache.stats().bypassed > 0;
            }
        }
    }
    assert!(bypass_failed, "no blackout landed on a bypassed read");
}

/// The cache-off twin of [`blackout_sweep`]: blacks out `file` from its
/// `skip`-th store operation on, for every `skip` until `op` (on a fresh
/// restore of `snap`) gets through. Each failure must be `typed`, and `op`
/// may get through only once the blackout lets through at least as many
/// operations as a clean run reads: every read of `file` honours it.
fn blackout_sweep_uncached<T, E: std::fmt::Debug>(
    fs: &FileStore,
    snap: &Snapshot,
    file: FileId,
    mut op: impl FnMut(&mut MicroVm) -> Result<T, E>,
    typed: impl Fn(&E) -> bool,
) {
    let mut vm = snap.restore_shell(fs).unwrap();
    let before = fs.read_calls();
    op(&mut vm).expect("a clean run gets through");
    let reads = fs.read_calls() - before;
    for skip in 0.. {
        assert!(skip < 64, "still blacked out after {skip} operations");
        let mut vm = snap.restore_shell(fs).unwrap();
        let rule = FaultRule::new(FaultScope::Files(vec![file]), FaultKind::Blackout).skip(skip);
        fs.attach_injector(Arc::new(FaultInjector::new(FaultPlan::new().rule(rule))));
        let result = op(&mut vm);
        fs.detach_injector();
        match result {
            Ok(_) => {
                assert!(
                    skip >= reads,
                    "{reads} reads, but a blackout from operation {skip} let them through"
                );
                break;
            }
            Err(e) => assert!(typed(&e), "skip {skip}: {e:?}"),
        }
    }
}

/// A captured snapshot of `F` and its WS recording: the first-fault
/// handshake plus pages 10, 11, 50 and 200, four extents.
fn recorded() -> (FileStore, Snapshot, ReapFiles) {
    let fs = FileStore::new();
    let (mut vm, _) = MicroVm::boot(F, VmConfig::default());
    vm.pause();
    let snap = Snapshot::capture(&vm, &fs, "snap");
    let mut vm = snap.restore_shell(&fs).unwrap();
    let mut m = Monitor::new(&snap, &fs, MonitorMode::Record);
    handshake(&mut m, &mut vm).unwrap();
    for page in [10, 11, 50, 200] {
        fault(&mut m, vm.uffd_mut(), page).unwrap();
    }
    let files = m.finish_record("snap");
    (fs, snap, files)
}

/// The hypervisor's first-fault injection, served by `m`.
fn handshake(m: &mut Monitor<'_>, vm: &mut MicroVm) -> Result<(), MemError> {
    let first = vm.uffd_mut().inject_first_fault();
    vm.uffd_mut().poll().expect("injected fault queued");
    m.handle_fault(vm.uffd_mut(), first)
}

#[test]
fn bypassed_reads_surface_blackouts_as_typed_errors() {
    let (fs, snap, files) = recorded();
    let unavailable = |e: &StorageError| matches!(e, StorageError::Unavailable { .. });

    // Prefetch: the WS file's layout reads, then each extent's lookup and
    // its bypassed borrow.
    blackout_sweep(
        &fs,
        files.ws_file,
        |cache| {
            let mut vm = snap.restore_shell(&fs).unwrap();
            Monitor::with_cache(&snap, &fs, MonitorMode::Prefetch, Some(cache))
                .prefetch(vm.uffd_mut(), &files)
        },
        |e| matches!(e, PrefetchError::Storage(se) if unavailable(se)),
    );

    // Demand serves from the memory file (the first-fault handshake, then
    // page 100): the run stays missing.
    blackout_sweep(
        &fs,
        snap.mem_file,
        |cache| {
            let mut vm = snap.restore_shell(&fs).unwrap();
            let mut m = Monitor::with_cache(&snap, &fs, MonitorMode::OnDemand, Some(cache));
            handshake(&mut m, &mut vm)?;
            fault(&mut m, vm.uffd_mut(), 100)
        },
        |e| matches!(e, MemError::NotResident(_)),
    );

    // Verify: every resident page compared against a borrow of the
    // memory file.
    let mut restored = snap.restore_shell(&fs).unwrap();
    let cache = SnapshotFrameCache::new();
    cache.set_budget(Some(0));
    let mut m = Monitor::with_cache(&snap, &fs, MonitorMode::Prefetch, Some(&cache));
    m.prefetch(restored.uffd_mut(), &files).unwrap();
    blackout_sweep(
        &fs,
        snap.mem_file,
        |cache| verify_restored_cached(&restored, &snap, &fs, Some(cache)),
        |e| e.starts_with("verify source vanished"),
    );
}

#[test]
fn cache_off_reads_surface_dead_files_and_blackouts_as_typed_errors() {
    // With no frame cache every read goes to the store, so the store's
    // typed errors must reach the caller exactly as on the cached path's
    // bypass arm (`bypassed_reads_surface_blackouts_as_typed_errors`).
    let (fs, snap, files) = recorded();
    let unavailable = |e: &StorageError| matches!(e, StorageError::Unavailable { .. });

    // Prefetch: the WS file's layout reads, then one read per extent.
    blackout_sweep_uncached(
        &fs,
        &snap,
        files.ws_file,
        |vm| Monitor::new(&snap, &fs, MonitorMode::Prefetch).prefetch(vm.uffd_mut(), &files),
        |e| matches!(e, PrefetchError::Storage(se) if unavailable(se)),
    );

    // Demand serves from the memory file (the first-fault handshake, then
    // page 100): the run stays missing.
    let demand = |vm: &mut MicroVm| {
        let mut m = Monitor::new(&snap, &fs, MonitorMode::OnDemand);
        handshake(&mut m, vm)?;
        fault(&mut m, vm.uffd_mut(), 100)
    };
    blackout_sweep_uncached(&fs, &snap, snap.mem_file, demand, |e| {
        matches!(e, MemError::NotResident(_))
    });

    // Verify: every resident run compared against a read of the memory
    // file.
    let mut restored = snap.restore_shell(&fs).unwrap();
    Monitor::new(&snap, &fs, MonitorMode::Prefetch)
        .prefetch(restored.uffd_mut(), &files)
        .unwrap();
    blackout_sweep_uncached(
        &fs,
        &snap,
        snap.mem_file,
        |_| verify_restored_cached(&restored, &snap, &fs, None),
        |e| e.starts_with("verify source vanished"),
    );

    // A deleted memory file: the demand serve fails cleanly, no panic.
    fs.delete(snap.mem_file);
    let mut vm = snap.restore_shell(&fs).unwrap();
    assert!(matches!(demand(&mut vm), Err(MemError::NotResident(_))));
}
