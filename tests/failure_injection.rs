//! Failure injection: corrupt or missing artifacts must be detected, never
//! silently served.

use functionbench::FunctionId;
use guest_mem::PAGE_SIZE;
use microvm::{MicroVm, Snapshot, VmConfig};
use vhive_core::{
    read_trace_file, read_ws_file, ColdPolicy, Monitor, MonitorMode, Orchestrator, PrefetchError,
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
        assert_eq!(read_ws_file(fs, ws), Err(expect.clone()));
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
        read_trace_file(orch.fs(), trace),
        Err(WsError::Truncated { .. })
    ));
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
    let entries = read_ws_file(orch.fs(), ws).expect("fresh WS file parses");
    assert!(entries.len() > 1000);
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
        read_ws_file(orch.fs(), ws),
        Err(WsError::Truncated { .. })
    ));
}
