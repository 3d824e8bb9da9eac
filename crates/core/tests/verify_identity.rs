//! Verify-by-identity, where the monitor, the WS file and the frame cache
//! meet: a cached verify may skip the bytes of a guest stretch only when
//! that stretch *is* the buffer the cache resolves for the same extent of
//! the memory file — so it must never accept what a byte compare refuses,
//! and the cache must end up holding each working set once.

use functionbench::{FunctionId, GuestOp, InputGenerator};
use guest_mem::{FrameBytes, PageIdx, PageRun, PAGE_SIZE};
use microvm::{run_lazy, verify_restored_cached, FaultHandler, MicroVm, Snapshot, VmConfig};
use sim_storage::{FileId, FileStore, SnapshotFrameCache};
use vhive_core::{read_ws_layout, Monitor, MonitorMode, ReapFiles};

/// helloworld plus one heavier, input-dependent function (its cold starts
/// leave residual faults behind the prefetch).
const FUNCTIONS: [FunctionId; 2] = [FunctionId::helloworld, FunctionId::image_rotate];

/// One function deployed on its own store: booted, captured, recorded.
struct Deployed {
    fs: FileStore,
    snap: Snapshot,
    reap: ReapFiles,
    inputs: InputGenerator,
}

/// The functional pass of one cold start as the orchestrator runs it, up
/// to (not including) the verify. Record mode also writes the REAP files.
fn functional_pass(
    fs: &FileStore,
    snap: &Snapshot,
    reap: Option<&ReapFiles>,
    inputs: &InputGenerator,
    seq: u64,
    cache: Option<&SnapshotFrameCache>,
) -> (MicroVm, Option<ReapFiles>) {
    let mode = if reap.is_some() {
        MonitorMode::Prefetch
    } else {
        MonitorMode::Record
    };
    let mut vm = snap.restore_shell(fs).expect("snapshot restores");
    let mut monitor = Monitor::with_cache(snap, fs, mode, cache);
    let first = vm.uffd_mut().inject_first_fault();
    vm.uffd_mut().poll().expect("injected fault queued");
    monitor
        .handle_fault(vm.uffd_mut(), first)
        .expect("first-fault handshake");
    vm.uffd_mut().wake();
    if let Some(files) = reap {
        monitor.prefetch(vm.uffd_mut(), files).expect("prefetch");
    }
    let conn_ops: Vec<GuestOp> = vm
        .kernel()
        .conn_plan()
        .into_iter()
        .map(GuestOp::Touch)
        .collect();
    run_lazy(&conn_ops, vm.uffd_mut(), &mut monitor);
    let ops = vm.invocation_ops(&inputs.input(seq));
    run_lazy(&ops, vm.uffd_mut(), &mut monitor);
    let recorded = (mode == MonitorMode::Record)
        .then(|| monitor.finish_record(&format!("snapshots/{}", snap.function)));
    (vm, recorded)
}

fn deploy(f: FunctionId) -> Deployed {
    let fs = FileStore::new();
    let config = VmConfig::default();
    let (mut vm, _) = MicroVm::boot(f, config);
    vm.pause();
    let snap = Snapshot::capture(&vm, &fs, &format!("snapshots/{f}"));
    let inputs = InputGenerator::new(f, config.seed);
    let (_, reap) = functional_pass(&fs, &snap, None, &inputs, 0, None);
    Deployed {
        fs,
        snap,
        reap: reap.expect("record pass writes the REAP files"),
        inputs,
    }
}

impl Deployed {
    fn reap_cold_start(&self, seq: u64, cache: &SnapshotFrameCache) -> MicroVm {
        functional_pass(&self.fs, &self.snap, Some(&self.reap), &self.inputs, seq, Some(cache)).0
    }

    /// The largest recorded extent behind the first (which the first-fault
    /// handshake splits) and its data offset in the WS file.
    fn big_extent(&self) -> (PageRun, u64) {
        let layout = read_ws_layout(&self.fs, self.reap.ws_file).expect("WS file parses");
        let big = layout.extents[1..].iter().max_by_key(|(run, _)| run.len);
        *big.filter(|(run, _)| run.len >= 3).expect("a multi-page extent")
    }

    /// A page in the middle of [`big_extent`](Self::big_extent) whose
    /// snapshot bytes are not all zero, and its data offset in the WS file.
    fn victim(&self) -> (PageIdx, u64) {
        let (run, data_at) = self.big_extent();
        run.iter()
            .enumerate()
            .skip(1)
            .map(|(i, page)| (page, data_at + (i * PAGE_SIZE) as u64))
            .find(|&(page, _)| {
                let nonzero = |bytes: &[u8]| bytes.iter().any(|&b| b != 0);
                let at = page.file_offset();
                self.fs.read(self.snap.mem_file, at, PAGE_SIZE as u64, nonzero).unwrap()
            })
            .expect("a non-zero page inside the extent")
    }

    fn flip_stored_byte(&self, file: FileId, at: u64) {
        let byte = self.fs.read(file, at, 1, |b| b[0]).unwrap();
        self.fs.write_at(file, at, &[byte ^ 0xFF]).unwrap();
    }
}

/// One way the bytes a verify sees can differ from an intact restore.
struct Case {
    name: &'static str,
    /// Applied to the stored artifacts before the cold start under test.
    before: fn(&Deployed),
    /// Applied between the cold start's replay and its verify.
    after: fn(&Deployed),
    /// Whether a byte-for-byte verify refuses the result.
    refused: bool,
}

const CASES: [Case; 5] = [
    Case {
        name: "intact restore",
        before: |_| {},
        after: |_| {},
        refused: false,
    },
    // The WS parser does not checksum page data, so the wrong bytes are
    // aliased straight in; the memory file is right.
    Case {
        name: "byte flipped in a WS extent's data",
        before: |d| d.flip_stored_byte(d.reap.ws_file, d.victim().1 + 17),
        after: |_| {},
        refused: true,
    },
    // A generation bump under an aliased extent: the cached expectation
    // is stale and must be re-resolved from the file.
    Case {
        name: "memory file rewritten between prefetch and verify",
        before: |_| {},
        after: |d| d.flip_stored_byte(d.snap.mem_file, d.victim().0.file_offset() + 5),
        refused: true,
    },
    Case {
        name: "memory file rewritten with the same bytes",
        before: |_| {},
        after: |d| {
            let (run, _) = d.big_extent();
            let (at, len) = (run.file_offset(), run.byte_len());
            let same = d.fs.read(d.snap.mem_file, at, len, <[u8]>::to_vec).unwrap();
            d.fs.write_at(d.snap.mem_file, at, &same).unwrap();
        },
        refused: false,
    },
    // Reads past EOF are zeros, in every arm.
    Case {
        name: "memory file truncated mid-run",
        before: |_| {},
        after: |d| {
            d.fs.set_len(d.snap.mem_file, d.victim().0.file_offset()).unwrap();
        },
        refused: true,
    },
];

#[test]
fn identity_never_grants_what_bytes_would_refuse() {
    for f in FUNCTIONS {
        for case in &CASES {
            // Cases rewrite stored files: each gets a fresh deployment.
            let d = deploy(f);
            // A serving cache: one earlier cold start, verified through it.
            let cache = SnapshotFrameCache::new();
            let earlier = d.reap_cold_start(1, &cache);
            let resident = earlier.memory().resident_pages();
            assert_eq!(
                verify_restored_cached(&earlier, &d.snap, &d.fs, Some(&cache)),
                Ok(resident),
                "{f}"
            );

            (case.before)(&d);
            let vm = d.reap_cold_start(2, &cache);
            (case.after)(&d);

            let uncached = verify_restored_cached(&vm, &d.snap, &d.fs, None);
            let cold = SnapshotFrameCache::new();
            let on_cold_cache = verify_restored_cached(&vm, &d.snap, &d.fs, Some(&cold));
            let on_warm_cache = verify_restored_cached(&vm, &d.snap, &d.fs, Some(&cache));
            let what = format!("{f}: {}", case.name);
            assert_eq!(on_cold_cache, uncached, "{what} (cold cache)");
            assert_eq!(on_warm_cache, uncached, "{what} (warm cache)");
            match (&uncached, case.refused) {
                (Ok(pages), false) => assert_eq!(*pages, vm.memory().resident_pages(), "{what}"),
                (Err(e), true) => assert!(e.contains("differs from snapshot"), "{what}: {e}"),
                (got, _) => panic!("{what}: {got:?}"),
            }
            // Whatever the verdict, a second look through the now
            // re-resolved cache agrees with the first.
            assert_eq!(
                verify_restored_cached(&vm, &d.snap, &d.fs, Some(&cache)),
                uncached,
                "{what} (again)"
            );
        }
    }
}

#[test]
fn hot_cold_start_holds_each_working_set_once() {
    let cache = SnapshotFrameCache::new();
    let mut distinct_resident_bytes = 0;
    for f in FUNCTIONS {
        let d = deploy(f);
        let mut resident = std::collections::BTreeSet::new();
        for seq in [1, 2] {
            let vm = d.reap_cold_start(seq, &cache);
            let mem = vm.memory();
            assert_eq!(
                verify_restored_cached(&vm, &d.snap, &d.fs, Some(&cache)),
                Ok(mem.resident_pages()),
                "{f}"
            );
            resident.extend(mem.resident_iter());
            // Every stretch of guest memory that aliases a buffer from its
            // first page is the one allocation the cache holds for that
            // extent of the memory file; the only stretch that starts
            // mid-buffer is the first extent's tail behind the page the
            // first-fault handshake had already installed.
            let mut mid_buffer = 0;
            for run in mem.resident_runs() {
                for chunk in mem.run_chunks(run) {
                    let (src, off) = chunk.source.expect("cached installs alias");
                    if off != 0 {
                        mid_buffer += 1;
                        continue;
                    }
                    let held = cache
                        .peek(d.snap.mem_file, chunk.run.file_offset(), chunk.run.byte_len())
                        .unwrap_or_else(|| panic!("{f}: {} not cached", chunk.run));
                    assert!(FrameBytes::ptr_eq(&held, src), "{f}: {} held twice", chunk.run);
                    assert!(mem
                        .aliased_source(chunk.run.first)
                        .is_some_and(|s| FrameBytes::ptr_eq(&s, &held)));
                }
            }
            assert!(mid_buffer <= 1, "{f}: {mid_buffer} stretches start mid-buffer");
        }
        distinct_resident_bytes += resident.len() as u64 * PAGE_SIZE as u64;
    }
    // The slack is that tail, held a second time under its own key.
    let held = cache.stats().bytes;
    assert!(
        held as f64 <= 1.15 * distinct_resident_bytes as f64,
        "cache holds {held} bytes for {distinct_resident_bytes} distinct resident bytes"
    );
}
