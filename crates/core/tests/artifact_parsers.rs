//! Parser robustness for the on-disk artifacts a cold start reads back:
//! REAP's trace and working-set files and the snapshot's VMM-state file.
//! Every truncation, and every single-bit flip of a REAP file's header
//! and extent table, must end in `Ok` or a typed error — never a panic.

use std::panic::{catch_unwind, AssertUnwindSafe};

use functionbench::FunctionId;
use guest_mem::{PageIdx, PageRun, PAGE_SIZE};
use microvm::{MicroVm, RestoreError, Snapshot, VmConfig};
use sim_storage::{FileId, FileStore};
use vhive_core::{read_trace_runs, read_ws_layout, write_reap_files_runs, WsError};

const PAGE: u64 = PAGE_SIZE as u64;

/// Header (magic + extent count) plus one 16-byte entry per extent.
fn table_bytes(extents: usize) -> usize {
    16 + 16 * extents
}

/// Three extents in fault order (not offset order) over a 16-page
/// memory file whose pages each carry a distinct byte.
fn recorded() -> (FileStore, FileId, FileId, Vec<PageRun>) {
    let fs = FileStore::new();
    let mem = fs.create("mem");
    let image: Vec<u8> = (0..16 * PAGE).map(|i| (i / PAGE) as u8 + 1).collect();
    fs.write_at(mem, 0, &image).unwrap();
    let runs = vec![
        PageRun::new(PageIdx::new(9), 2),
        PageRun::new(PageIdx::new(1), 3),
        PageRun::new(PageIdx::new(14), 1),
    ];
    let files = write_reap_files_runs(&fs, "f", mem, &runs);
    (fs, files.trace_file, files.ws_file, runs)
}

/// Runs `parse`, turning a panic into a test failure that names `case`.
fn no_panic<T>(case: impl FnOnce() -> String, parse: impl FnOnce() -> T) -> T {
    catch_unwind(AssertUnwindSafe(parse)).unwrap_or_else(|_| panic!("parser panicked on {}", case()))
}

/// Shrinks `file` one byte at a time from its full length down to empty,
/// calling `check` at every shorter length.
fn every_truncation(fs: &FileStore, file: FileId, mut check: impl FnMut(u64)) {
    for len in (0..fs.len(file)).rev() {
        fs.set_len(file, len).unwrap();
        check(len);
    }
}

/// Flips every bit of the first `bytes` bytes of `file` in turn (and back),
/// calling `check` with the byte index while the bit is flipped.
fn every_bit_flip(fs: &FileStore, file: FileId, bytes: usize, mut check: impl FnMut(usize, u8)) {
    for at in 0..bytes {
        let orig = fs.read(file, at as u64, 1, |b| b[0]).unwrap();
        for bit in 0..8 {
            fs.write_at(file, at as u64, &[orig ^ (1 << bit)]).unwrap();
            check(at, bit);
        }
        fs.write_at(file, at as u64, &[orig]).unwrap();
    }
}

/// What an `Ok` parse promises: non-empty extents that do not overlap.
fn assert_valid_table(runs: &[PageRun], case: &str) {
    assert!(runs.iter().all(|r| r.len > 0), "{case}: empty extent");
    let mut sorted: Vec<&PageRun> = runs.iter().collect();
    sorted.sort_by_key(|r| r.first);
    for pair in sorted.windows(2) {
        assert!(pair[0].end() <= pair[1].first, "{case}: overlapping extents");
    }
}

#[test]
fn every_truncation_of_a_trace_file_is_an_error() {
    let (fs, trace, _, runs) = recorded();
    assert_eq!(read_trace_runs(&fs, trace).unwrap(), runs);
    every_truncation(&fs, trace, |len| {
        let parsed = no_panic(|| format!("trace truncated to {len} bytes"), || read_trace_runs(&fs, trace));
        assert!(matches!(parsed, Err(WsError::Truncated { .. })), "{len} bytes: {parsed:?}");
    });
}

#[test]
fn every_truncation_of_a_ws_file_is_an_error() {
    let (fs, _, ws, runs) = recorded();
    let full = read_ws_layout(&fs, ws).unwrap();
    assert_eq!(full.pages, runs.iter().map(|r| r.len).sum::<u64>());
    every_truncation(&fs, ws, |len| {
        let parsed = no_panic(|| format!("WS file truncated to {len} bytes"), || read_ws_layout(&fs, ws));
        assert!(matches!(parsed, Err(WsError::Truncated { .. })), "{len} bytes: {parsed:?}");
    });
}

#[test]
fn every_bit_flip_in_a_trace_table_parses_or_is_an_error() {
    let (fs, trace, _, runs) = recorded();
    every_bit_flip(&fs, trace, table_bytes(runs.len()), |at, bit| {
        let case = format!("trace byte {at} bit {bit}");
        match no_panic(|| case.clone(), || read_trace_runs(&fs, trace)) {
            Ok(parsed) => {
                assert!(at >= 8, "{case}: a corrupt magic parsed");
                assert_valid_table(&parsed, &case);
            }
            Err(e) => assert!(at >= 8 || e == WsError::BadMagic, "{case}: {e}"),
        }
    });
    assert_eq!(read_trace_runs(&fs, trace).unwrap(), runs, "every flip was undone");
}

#[test]
fn every_bit_flip_in_a_ws_table_parses_or_is_an_error() {
    let (fs, _, ws, runs) = recorded();
    let full = read_ws_layout(&fs, ws).unwrap();
    every_bit_flip(&fs, ws, table_bytes(runs.len()), |at, bit| {
        let case = format!("WS byte {at} bit {bit}");
        match no_panic(|| case.clone(), || read_ws_layout(&fs, ws)) {
            Ok(layout) => {
                assert!(at >= 8, "{case}: a corrupt magic parsed");
                let parsed: Vec<PageRun> = layout.extents.iter().map(|&(run, _)| run).collect();
                assert_valid_table(&parsed, &case);
                for &(run, data_at) in &layout.extents {
                    assert!(data_at + run.len * PAGE <= fs.len(ws), "{case}: extent data past EOF");
                }
            }
            Err(e) => assert!(at >= 8 || e == WsError::BadMagic, "{case}: {e}"),
        }
    });
    assert_eq!(read_ws_layout(&fs, ws).unwrap(), full, "every flip was undone");
}

#[test]
fn every_truncation_of_a_vmm_state_file_is_corrupt() {
    let fs = FileStore::new();
    let (mut vm, _) = MicroVm::boot(FunctionId::helloworld, VmConfig::default());
    vm.pause();
    let snap = Snapshot::capture(&vm, &fs, "snapshots/helloworld");
    assert!(snap.load_vmm_state(&fs).is_ok());
    every_truncation(&fs, snap.vmm_file, |len| {
        let loaded = no_panic(|| format!("VMM state truncated to {len} bytes"), || snap.load_vmm_state(&fs));
        assert!(matches!(loaded, Err(RestoreError::Corrupt(_))), "{len} bytes: {loaded:?}");
    });
}
