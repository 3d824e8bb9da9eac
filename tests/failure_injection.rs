//! Failure injection: corrupt or missing artifacts must be detected, never
//! silently served.

use functionbench::FunctionId;
use guest_mem::PAGE_SIZE;
use microvm::{MicroVm, Snapshot, VmConfig};
use vhive_core::{
    read_trace_runs, read_ws_layout, ColdPolicy, Monitor, MonitorMode, Orchestrator, PrefetchError,
    ReapFiles, WsError,
};

#[test]
fn corrupt_ws_file_is_rejected() {
    let f = FunctionId::helloworld;
    let mut orch = Orchestrator::new(31);
    orch.register(f);
    orch.invoke_record(f);
    let fs = orch.fs();
    let ws = fs.open(&format!("snapshots/{f}/ws_pages")).unwrap();
    let (mut vm, _) = MicroVm::boot(f, VmConfig::default());
    vm.pause();
    let snap = Snapshot::capture(&vm, fs, "probe");
    // A clobbered magic, then a table that is well-formed except that its
    // two extents, [10, 14) and [12, 13), overlap.
    let mut overlapping = b"REAPWSF2".to_vec();
    for word in [2, 10 * PAGE_SIZE as u64, 4, 12 * PAGE_SIZE as u64, 1] {
        overlapping.extend_from_slice(&word.to_le_bytes());
    }
    let overlap = WsError::OverlappingExtents(10 * PAGE_SIZE as u64, 12 * PAGE_SIZE as u64);
    for (bytes, expect) in [(b"GARBAGE!".to_vec(), WsError::BadMagic), (overlapping, overlap)] {
        fs.write_at(ws, 0, &bytes).unwrap();
        assert_eq!(read_ws_layout(fs, ws), Err(expect.clone()));
        // Prefetch refuses it before any install.
        let files = ReapFiles { trace_file: ws, ws_file: ws, pages: 0, extents: 0 };
        let mut vm = snap.restore_shell(fs).unwrap();
        let mut m = Monitor::new(&snap, fs, MonitorMode::Prefetch);
        let got = m.prefetch(vm.uffd_mut(), &files);
        assert_eq!(got, Err(PrefetchError::Artifact(expect)));
        assert_eq!(vm.memory().resident_pages(), 0);
    }
}

#[test]
fn truncated_trace_file_is_rejected() {
    let f = FunctionId::helloworld;
    let mut orch = Orchestrator::new(32);
    orch.register(f);
    orch.invoke_record(f);
    let trace = orch.fs().open(&format!("snapshots/{f}/ws_trace")).unwrap();
    orch.fs().set_len(trace, 20).unwrap();
    assert!(matches!(
        read_trace_runs(orch.fs(), trace),
        Err(WsError::Truncated { .. })
    ));
}

/// The trace parser bounds extents, not the guest: a well-formed trace
/// that names pages past the guest (here one extent straddling its end and
/// one wholly beyond it) counts them as fetched and wasted, never used, and
/// the request completes.
#[test]
fn trace_pages_past_the_guest_are_fetched_never_used() {
    let f = FunctionId::helloworld;
    let serve = |extra: bool| {
        let mut orch = Orchestrator::new(34);
        orch.register(f);
        let guest = orch.invoke_record(f).touched.len();
        if extra {
            let fs = orch.fs();
            let trace = fs.open(&format!("snapshots/{f}/ws_trace")).unwrap();
            let n = read_trace_runs(fs, trace).unwrap().len() as u64;
            fs.write_at(trace, 8, &(n + 2).to_le_bytes()).unwrap();
            let mut table = Vec::new();
            for (first, len) in [(guest - 1, 2u64), (guest + 10, 3)] {
                table.extend_from_slice(&(first * PAGE_SIZE as u64).to_le_bytes());
                table.extend_from_slice(&len.to_le_bytes());
            }
            fs.write_at(trace, 16 + 16 * n, &table).unwrap();
        }
        orch.invoke_cold(f, ColdPolicy::Reap).misprediction.expect("REAP reports")
    };
    let (plain, extended) = (serve(false), serve(true));
    assert_eq!(extended.fetched, plain.fetched + 5);
    assert_eq!(extended.used, plain.used);
    assert_eq!(extended.wasted, plain.wasted + 5);
}

#[test]
fn prefetch_with_corrupt_ws_file_quarantines_and_falls_back() {
    let f = FunctionId::helloworld;
    let mut orch = Orchestrator::new(33);
    orch.register(f);
    orch.invoke_record(f);
    let ws = orch.fs().open(&format!("snapshots/{f}/ws_pages")).unwrap();
    orch.fs().write_at(ws, 0, b"GARBAGE!").unwrap();
    // Stored corruption never crashes an in-flight request: the load is
    // validated, reloaded once, then the function is quarantined and the
    // request completes as Vanilla at the same seq (see
    // crates/core/tests/failure_injection.rs for the full ledger).
    let out = orch.invoke_cold(f, ColdPolicy::Reap);
    assert_eq!(out.policy, Some(ColdPolicy::Vanilla));
    assert!(out.recovery.quarantined);
    assert!(out.recovery.fallback_vanilla);
    assert!(orch.needs_rerecord(f), "fallback schedules a re-record");
}

#[test]
fn rerecord_replaces_corrupt_working_set() {
    // Operator remedy for a bad WS file: record again (§7.2's fallback
    // path); the fresh files must parse and serve prefetches again.
    let f = FunctionId::helloworld;
    let mut orch = Orchestrator::new(34);
    orch.register(f);
    orch.invoke_record(f);
    let ws = orch.fs().open(&format!("snapshots/{f}/ws_pages")).unwrap();
    orch.fs().write_at(ws, 0, b"GARBAGE!").unwrap();
    // Re-record overwrites both files in place.
    orch.invoke_record(f);
    let layout = read_ws_layout(orch.fs(), ws).expect("fresh WS file parses");
    assert!(layout.pages > 1000);
    let reap = orch.invoke_cold(f, ColdPolicy::Reap);
    assert!(reap.prefetched_pages > 1000);
}

#[test]
fn corrupt_vmm_state_fails_restore() {
    let f = FunctionId::helloworld;
    let mut orch = Orchestrator::new(35);
    orch.register(f);
    let vmm = orch.fs().open(&format!("snapshots/{f}/vmm_state")).unwrap();
    orch.fs().write_at(vmm, 100, b"flipped bits").unwrap();
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        orch.invoke_cold(f, ColdPolicy::Vanilla)
    }));
    assert!(result.is_err(), "corrupt VMM state must abort the restore");
}

#[test]
fn zero_length_ws_file_is_detected() {
    let f = FunctionId::helloworld;
    let mut orch = Orchestrator::new(36);
    orch.register(f);
    orch.invoke_record(f);
    let ws = orch.fs().open(&format!("snapshots/{f}/ws_pages")).unwrap();
    orch.fs().set_len(ws, 0).unwrap();
    assert!(matches!(
        read_ws_layout(orch.fs(), ws),
        Err(WsError::Truncated { .. })
    ));
}
