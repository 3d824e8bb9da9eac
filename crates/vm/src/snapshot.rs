//! Snapshot capture and restore (Firecracker's two-file layout, §2.3).
//!
//! Capture writes the VMM state file and a *plain guest memory file* whose
//! byte at offset `o` is the guest-physical byte at address `o` (zero for
//! never-touched pages). The file is sparse, as Firecracker's is: the image
//! is laid down in one ascending pass over the resident runs, the gaps
//! between runs stay holes, and one final `set_len` extends the file to
//! the guest's size with a hole for the tail, so the store holds only the
//! resident pages.
//!
//! The deployment path *moves* guest memory instead of copying it:
//! [`Snapshot::capture_into`] consumes the paused VM, hands its frame
//! arena to the memory file as the file's own arena
//! ([`FileStore::swap_arena`]) and claims each resident run in place
//! ([`FileStore::adopt_at`]), so a booted guest's bytes are never copied.
//! The arena comes back the same way: a redeploy takes the previous memory
//! file's arena out of the store and boots into it
//! ([`crate::MicroVm::boot_into`]), so it fills memory that is already
//! faulted in. [`Snapshot::capture`] borrows the VM and writes each run
//! from its arena ([`guest_mem::GuestMemory::run_chunks`]); it is the
//! reference the moving capture must match — same bytes, extents, store
//! writes, metered bytes and fault-plan operations.
//!
//! Restore loads the VMM state, then maps guest memory
//! *lazily*: no page content moves until a fault or a REAP prefetch asks
//! for it.
//!
//! The guest's own structures (address space with its heap free lists,
//! kernel model, installed program — a [`GuestShell`]) are captured too and
//! handed back on restore: a restored guest is the one that was paused,
//! not a re-boot. They travel in memory beside the file handles; the VMM
//! state file stays the on-disk artifact whose read and checksum every
//! restore pays and every injected storage fault can hit.

use std::fmt;
use std::sync::Arc;

use functionbench::FunctionId;
use guest_mem::{PageRun, PAGE_SIZE};
use sim_storage::fault::retry_idempotent;
use sim_storage::{FaultClass, FileId, FileStore, FrameLookup, StorageError};

use crate::vm::{GuestShell, MicroVm, VmConfig};
use crate::vmm::VmmState;

/// A captured VM snapshot: handles to its two files plus metadata.
#[derive(Debug, Clone)]
pub struct Snapshot {
    /// Function the snapshot holds.
    pub function: FunctionId,
    /// Config the VM was created with (restore must match).
    pub config: VmConfig,
    /// Guest memory file.
    pub mem_file: FileId,
    /// VMM state file.
    pub vmm_file: FileId,
    /// Guest memory size in bytes.
    pub mem_bytes: u64,
    /// Pages that were resident at capture time.
    pub resident_at_capture: u64,
    /// Fingerprint of the VMM state for restore validation.
    pub vmm_checksum: u64,
    /// The paused guest's structures; every restore starts from a clone.
    pub shell: Arc<GuestShell>,
}

/// Why a snapshot's VMM state could not be restored — typed so recovery
/// can tell a store that failed (retry, or route elsewhere) from bytes
/// that arrived wrong (reload once, then give the shard up).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RestoreError {
    /// The store failed while reading the state file.
    Storage(StorageError),
    /// The bytes read are not the state captured: wrong length, or a
    /// checksum mismatch. Either corruption injected on the read path,
    /// which a reload heals, or corruption of the stored file.
    Corrupt(String),
}

impl fmt::Display for RestoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RestoreError::Storage(e) => e.fmt(f),
            RestoreError::Corrupt(why) => f.write_str(why),
        }
    }
}

impl std::error::Error for RestoreError {}

/// One idempotent capture operation (fixed offset, fixed length) under
/// [`retry_idempotent`]; panics on a fault that cannot heal (dead file,
/// blackout) or that outlasted the helper's three attempts.
fn capture_op(op: impl FnMut() -> Result<(), StorageError>) {
    if let Err(e) = retry_idempotent(op) {
        match e.class() {
            FaultClass::Transient => panic!("snapshot capture failed after 3 attempts: {e}"),
            _ => panic!("snapshot capture failed: {e}"),
        }
    }
}

impl Snapshot {
    /// Captures `vm` into two files under `prefix` in `fs`, copying its
    /// guest memory: the VM stays usable. [`capture_into`](Self::capture_into)
    /// is the deployment path; this is its reference.
    ///
    /// The VM must be paused (Firecracker refuses to snapshot a running
    /// VM).
    ///
    /// # Panics
    ///
    /// Panics if the VM is not paused.
    pub fn capture(vm: &MicroVm, fs: &FileStore, prefix: &str) -> Snapshot {
        let snapshot = Snapshot::begin(vm, fs, prefix);
        let mem = vm.memory();
        // Ascending, so each write lands at or past EOF: the store appends
        // the run, borrowed from the arena, and leaves the gap before it a
        // hole — no staging copy, no zero stored.
        for run in mem.resident_runs() {
            for chunk in mem.run_chunks(run) {
                capture_op(|| fs.write_at(snapshot.mem_file, chunk.run.file_offset(), chunk.bytes));
            }
        }
        capture_op(|| fs.set_len(snapshot.mem_file, snapshot.mem_bytes));
        snapshot
    }

    /// Captures `vm` like [`capture`](Self::capture), but consumes it and
    /// *moves* its guest memory: the frame arena becomes the memory file's
    /// arena as it stands ([`FileStore::swap_arena`]), and each chunk
    /// `capture` would write is claimed in place instead
    /// ([`FileStore::adopt_at`]). For a booted VM each resident run is one
    /// stretch of the arena, so no guest byte is copied; any other run is
    /// first copied onto the arena's tail
    /// ([`guest_mem::GuestMemory::into_slab`]). The file ends up with the
    /// bytes, extents, store-write count, metered bytes and fault-plan
    /// operations of `capture`'s.
    ///
    /// # Panics
    ///
    /// Panics if the VM is not paused.
    pub fn capture_into(vm: MicroVm, fs: &FileStore, prefix: &str) -> Snapshot {
        let snapshot = Snapshot::begin(&vm, fs, prefix);
        let (slab, chunks) = vm.into_memory().into_slab();
        fs.swap_arena(snapshot.mem_file, slab);
        for (run, at) in chunks {
            let bytes = at..at + run.byte_len() as usize;
            capture_op(|| fs.adopt_at(snapshot.mem_file, run.file_offset(), bytes.clone()));
        }
        capture_op(|| fs.set_len(snapshot.mem_file, snapshot.mem_bytes));
        snapshot
    }

    /// A capture's common part: the VMM state file written, the memory
    /// file created empty, the metadata taken from the paused VM.
    fn begin(vm: &MicroVm, fs: &FileStore, prefix: &str) -> Snapshot {
        assert!(vm.is_paused(), "snapshot requires a paused VM");
        let vmm = vm.vmm_state();
        let vmm_file = fs.create(&format!("{prefix}/vmm_state"));
        capture_op(|| fs.write_at(vmm_file, 0, vmm.as_bytes()));
        let mem = vm.memory();
        Snapshot {
            function: vm.function(),
            config: vm.config(),
            mem_file: fs.create(&format!("{prefix}/guest_mem")),
            vmm_file,
            mem_bytes: mem.size_bytes(),
            resident_at_capture: mem.resident_pages(),
            vmm_checksum: vmm.checksum(),
            shell: Arc::new(vm.guest_shell().clone()),
        }
    }

    /// Number of guest pages in the memory file.
    pub fn mem_pages(&self) -> u64 {
        self.mem_bytes / PAGE_SIZE as u64
    }

    /// Loads and validates the VMM state file.
    ///
    /// # Errors
    ///
    /// [`RestoreError::Storage`] if the file cannot be read,
    /// [`RestoreError::Corrupt`] if it is not a state blob or does not
    /// match the checksum recorded at capture.
    pub fn load_vmm_state(&self, fs: &FileStore) -> Result<VmmState, RestoreError> {
        let len = fs.checked_len(self.vmm_file).map_err(RestoreError::Storage)?;
        let bytes = fs
            .checked_read_at(self.vmm_file, 0, len as usize)
            .map_err(RestoreError::Storage)?;
        let state = VmmState::from_bytes(bytes).map_err(RestoreError::Corrupt)?;
        if state.checksum() != self.vmm_checksum {
            return Err(RestoreError::Corrupt("VMM state checksum mismatch".to_string()));
        }
        Ok(state)
    }

    /// Builds the restored VM shell: VMM state read and validated, the
    /// captured guest structures cloned, guest memory mapped empty for
    /// lazy paging.
    ///
    /// # Errors
    ///
    /// Fails if the VMM state file is corrupt or unreadable.
    pub fn restore_shell(&self, fs: &FileStore) -> Result<MicroVm, RestoreError> {
        let _vmm = self.load_vmm_state(fs)?;
        let shell = GuestShell::clone(&self.shell);
        Ok(MicroVm::from_shell(self.function, self.config, shell))
    }
}

/// Verifies that every resident page of a restored VM is byte-identical to
/// the snapshot's memory file — the functional-correctness check behind
/// every experiment. Returns the number of pages verified.
///
/// With a shared [`sim_storage::SnapshotFrameCache`], the expected bytes
/// are served through it: repeat cold starts of the same function verify
/// the same extents, so the snapshot-file reads collapse to refcount bumps
/// after the first pass — and a stretch of guest pages that aliases, from
/// its first page on, the very buffer the cache resolves for that extent
/// of the *memory file* is verified by identity, without reading a byte.
/// Everything else (a copied page, an alias that starts mid-buffer,
/// content that did not deduplicate) is compared page by page. Without a
/// cache, every page is compared against a read of the memory file.
///
/// # Errors
///
/// Returns a description of the first mismatching page.
pub fn verify_restored_cached(
    vm: &MicroVm,
    snapshot: &Snapshot,
    fs: &FileStore,
    cache: Option<&sim_storage::SnapshotFrameCache>,
) -> Result<u64, String> {
    let mut scratch = sim_storage::FrameCacheDelta::default();
    verify_restored_tracked(vm, snapshot, fs, cache, &mut scratch)
}

/// [`verify_restored_cached`] that additionally attributes its cache
/// lookups (hit / miss / raced) to the caller's
/// [`sim_storage::FrameCacheDelta`], so per-invocation telemetry can
/// report the verify pass's share of frame-cache activity. Without a
/// cache, `delta` is untouched.
///
/// # Errors
///
/// As [`verify_restored_cached`].
pub fn verify_restored_tracked(
    vm: &MicroVm,
    snapshot: &Snapshot,
    fs: &FileStore,
    cache: Option<&sim_storage::SnapshotFrameCache>,
    delta: &mut sim_storage::FrameCacheDelta,
) -> Result<u64, String> {
    let mem = vm.memory();
    // The comparison is per page so the error names the exact mismatching
    // frame. `expect` is always exactly the run's bytes: store reads and
    // the cache's loads both zero-fill past EOF.
    let compare = |run: PageRun, expect: &[u8]| -> Result<u64, String> {
        debug_assert_eq!(expect.len() as u64, run.byte_len());
        for (page, want) in run.iter().zip(expect.chunks(PAGE_SIZE)) {
            let got = mem.page_bytes(page).expect("resident page");
            if got != want {
                return Err(format!(
                    "page {page} differs from snapshot (restored checksum {:x}, file {:x})",
                    guest_mem::fnv1a64(got),
                    guest_mem::fnv1a64(want),
                ));
            }
        }
        Ok(run.len)
    };
    // Compares `run` against a borrow of the memory file, if it is still
    // there (not deleted, not blacked out).
    let from_store = |run: PageRun| -> Result<u64, String> {
        let (at, len) = (run.file_offset(), run.byte_len());
        fs.read(snapshot.mem_file, at, len, |expect| compare(run, expect))
            .map_err(|e| format!("verify source vanished: {e}"))?
    };
    let mut verified = 0;
    for run in mem.resident_runs() {
        let Some(cache) = cache else {
            // One file read per maximal resident run.
            verified += from_store(run)?;
            continue;
        };
        // One lookup per chunk, keyed like the install that produced it, so
        // the expected bytes of an aliased extent are the buffer it
        // aliases. Identity never trusts the WS file: the cache resolves
        // this key from the *memory file* at its current generation, and
        // two keys share an allocation only because `attach` byte-compared
        // them when it deduplicated. A chunk aliasing a buffer from its
        // first page is never bypassed, so at the budget its key still
        // attaches to that buffer and later verifies stay identity checks.
        for chunk in mem.run_chunks(run) {
            let (at, len) = (chunk.run.file_offset(), chunk.run.byte_len());
            let aliased = matches!(chunk.source, Some((_, 0)));
            let lookup = cache.get_or_load_tracked(fs, snapshot.mem_file, at, len, aliased, delta);
            verified += match lookup {
                Ok(FrameLookup::Frames(expected)) => match chunk.source {
                    Some((src, 0)) if Arc::ptr_eq(src, &expected) => chunk.run.len,
                    _ => compare(chunk.run, &expected)?,
                },
                // Bypassed, or the memory file died mid-pass.
                _ => from_store(chunk.run)?,
            };
        }
    }
    Ok(verified)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vcpu::{run_lazy, FaultHandler};
    use functionbench::{FunctionId, InputGenerator};
    use guest_mem::{FaultEvent, MemError, PageIdx, Uffd};
    use sim_storage::{FaultInjector, FaultKind, FaultPlan, FaultRule, FaultScope};

    /// A minimal baseline monitor: serves each fault from the memory file.
    struct FileBacked<'a> {
        snapshot: &'a Snapshot,
        fs: &'a FileStore,
    }
    impl FaultHandler for FileBacked<'_> {
        fn handle_fault(&mut self, uffd: &mut Uffd, ev: FaultEvent) -> Result<(), MemError> {
            let page = uffd.page_of_fault(ev);
            let at = page.file_offset();
            self.fs
                .read(self.snapshot.mem_file, at, PAGE_SIZE as u64, |bytes| uffd.copy(page, bytes))
                .expect("memory file is live")
        }
    }

    fn booted_snapshot(f: FunctionId) -> (Snapshot, FileStore) {
        let fs = FileStore::new();
        let vm = paused(f, VmConfig::default().seed);
        let snap = Snapshot::capture(&vm, &fs, &format!("snapshots/{f}"));
        (snap, fs)
    }

    fn paused(f: FunctionId, seed: u64) -> MicroVm {
        let config = VmConfig {
            seed,
            ..VmConfig::default()
        };
        let (mut vm, _) = MicroVm::boot(f, config);
        vm.pause();
        vm
    }

    #[test]
    fn capture_writes_both_files() {
        let (snap, fs) = booted_snapshot(FunctionId::helloworld);
        assert_eq!(fs.len(snap.mem_file), 256 * 1024 * 1024);
        assert!(fs.len(snap.vmm_file) > 0);
        assert!(snap.resident_at_capture > 30_000);
        assert_eq!(snap.mem_pages(), 65536);
        snap.load_vmm_state(&fs).expect("vmm state round-trips");
    }

    #[test]
    #[should_panic(expected = "requires a paused VM")]
    fn capture_requires_pause() {
        let fs = FileStore::new();
        let (vm, _) = MicroVm::boot(FunctionId::helloworld, VmConfig::default());
        let _ = Snapshot::capture(&vm, &fs, "s");
    }

    #[test]
    fn untouched_pages_read_as_zeros() {
        let (snap, fs) = booted_snapshot(FunctionId::helloworld);
        // helloworld boots to ~148 MB of 256 MB: tens of thousands of pages
        // (e.g. the never-touched middle of the heap) must be zeros.
        let total = snap.mem_pages();
        let mut found_zero = false;
        for p in (0..total).step_by(97) {
            let at = PageIdx::new(p).file_offset();
            let bytes = fs.read(snap.mem_file, at, PAGE_SIZE as u64, <[u8]>::to_vec).unwrap();
            if bytes.iter().all(|&b| b == 0) {
                found_zero = true;
                break;
            }
        }
        assert!(found_zero, "some pages should be untouched zeros");
    }

    /// True if the two stores hold byte-identical memory files.
    fn same_image((a, a_fs): (&Snapshot, &FileStore), (b, b_fs): (&Snapshot, &FileStore)) -> bool {
        a_fs.read(a.mem_file, 0, a.mem_bytes, |x| {
            b_fs.read(b.mem_file, 0, b.mem_bytes, |y| x == y).unwrap()
        })
        .unwrap()
    }

    #[test]
    fn capture_lays_down_the_exact_image_one_write_per_chunk() {
        let light = [
            FunctionId::helloworld,
            FunctionId::chameleon,
            FunctionId::pyaes,
            FunctionId::json_serdes,
        ];
        for f in FunctionId::ALL {
            for seed in [1, 0xC0FFEE] {
                let vm = paused(f, seed);
                let mem = vm.memory();
                let fs = FileStore::new();
                let snap = Snapshot::capture(&vm, &fs, "s");
                assert_eq!(fs.len(snap.mem_file), mem.size_bytes());
                fs.read(snap.mem_file, 0, mem.size_bytes(), |image| {
                    for (p, got) in image.chunks(PAGE_SIZE).enumerate() {
                        let want = mem.page_bytes(PageIdx::new(p as u64));
                        assert!(
                            got == want.unwrap_or(&[0; PAGE_SIZE]),
                            "{f} seed {seed}: page {p} (resident: {})",
                            want.is_some()
                        );
                    }
                })
                .unwrap();
                // The file is sparse: the store holds the resident pages
                // and the VMM state, not one stored zero.
                assert_eq!(
                    fs.total_bytes(),
                    snap.resident_at_capture * PAGE_SIZE as u64 + fs.len(snap.vmm_file),
                    "{f} seed {seed}"
                );
                // One store write for the VMM state and one per arena
                // chunk — for a fresh boot, one per resident run, so a
                // fault plan's skip/count window over the memory file
                // addresses runs.
                let runs = mem.resident_runs();
                let chunks: usize = runs.iter().map(|&r| mem.run_chunks(r).count()).sum();
                assert_eq!(fs.write_calls(), 1 + chunks as u64, "{f} seed {seed}");
                if light.contains(&f) {
                    assert_eq!(chunks, runs.len(), "{f} seed {seed}");
                }
            }
        }
    }

    /// Runs `capture` against a fresh store whose plan injects `count`
    /// faults of `kind` into memory-file operations after `skip` of them.
    fn capture_under(
        kind: FaultKind,
        skip: u64,
        count: u64,
        capture: impl FnOnce(&FileStore) -> Snapshot,
    ) -> (Snapshot, FileStore) {
        let fs = FileStore::new();
        let rule = FaultRule::new(FaultScope::NameContains("guest_mem".into()), kind);
        let plan = FaultPlan::new().rule(rule.skip(skip).count(count));
        fs.attach_injector(Arc::new(FaultInjector::new(plan)));
        let snap = capture(&fs);
        assert_eq!(fs.injector().unwrap().stats().total(), count);
        (snap, fs)
    }

    #[test]
    fn capture_heals_torn_and_transient_faults() {
        let f = FunctionId::helloworld;
        let vm = paused(f, 1);
        let clean_fs = FileStore::new();
        let clean = Snapshot::capture(&vm, &clean_fs, "s");
        let last = vm.memory().resident_runs().len() as u64;
        for (kind, skip, count) in [
            // A torn *extending* write: the prefix is appended past the
            // hole, the retry overwrites it and appends the rest. A torn
            // claim of a moved run claims a prefix, the retry all of it.
            (FaultKind::ShortWrite, 3, 1),
            (FaultKind::TransientError, 3, 2),
            // The final `set_len` is under the same retry policy.
            (FaultKind::TransientError, last, 2),
        ] {
            for moved in [false, true] {
                let (snap, fs) = capture_under(kind.clone(), skip, count, |fs| match moved {
                    false => Snapshot::capture(&vm, fs, "s"),
                    true => Snapshot::capture_into(paused(f, 1), fs, "s"),
                });
                assert!(
                    same_image((&snap, &fs), (&clean, &clean_fs)),
                    "{kind:?} at op {skip}, moved: {moved}"
                );
                assert_eq!(fs.extents(snap.mem_file), clean_fs.extents(clean.mem_file));
                assert_eq!(
                    verify_restored_cached(&vm, &snap, &fs, None),
                    Ok(snap.resident_at_capture)
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "snapshot capture failed after 3 attempts")]
    fn capture_gives_up_after_the_retry_budget() {
        let vm = paused(FunctionId::helloworld, 1);
        capture_under(FaultKind::TransientError, 3, 3, |fs| {
            Snapshot::capture(&vm, fs, "s")
        });
    }

    #[test]
    #[should_panic(expected = "snapshot capture failed after 3 attempts")]
    fn capture_gives_up_on_a_set_len_that_never_heals() {
        let vm = paused(FunctionId::helloworld, 1);
        let last = vm.memory().resident_runs().len() as u64;
        capture_under(FaultKind::TransientError, last, 3, |fs| {
            Snapshot::capture_into(vm, fs, "s")
        });
    }

    #[test]
    fn a_boot_into_a_recycled_slab_matches_a_fresh_boot() {
        // Every function boots into the slab the memory file of the one
        // before it gave back: a different function's, so a stale byte
        // would show.
        let (fs, config) = (FileStore::new(), VmConfig::default());
        let give_back = |vm: MicroVm| {
            let snap = Snapshot::capture_into(vm, &fs, "s");
            fs.swap_arena(snap.mem_file, Vec::new())
        };
        let mut slab = give_back(paused(FunctionId::video_processing, 7));
        for f in FunctionId::ALL {
            let (fresh, fresh_trace) = MicroVm::boot(f, config);
            let (mut recycled, trace) = MicroVm::boot_into(f, config, slab);
            assert_eq!(trace.minor_faults, fresh_trace.minor_faults, "{f}");
            let (want, got) = (fresh.memory(), recycled.memory());
            let runs = want.resident_runs();
            assert_eq!(got.resident_runs(), runs, "{f}");
            for page in runs.iter().flat_map(|r| r.iter()) {
                assert!(got.page_bytes(page) == want.page_bytes(page), "{f}: {page}");
            }
            recycled.pause();
            slab = give_back(recycled);
        }
        // A redeploy of the same function fits the slab it gave back, so
        // the boot grows no fresh allocation.
        let ptr = slab.as_ptr();
        let last = FunctionId::ALL[FunctionId::ALL.len() - 1];
        let (mut vm, _) = MicroVm::boot_into(last, config, slab);
        vm.pause();
        let slab = give_back(vm);
        assert_eq!(slab.as_ptr(), ptr);
    }

    #[test]
    fn lazy_restore_then_invoke_is_lossless() {
        let f = FunctionId::pyaes;
        let (snap, fs) = booted_snapshot(f);
        let mut vm = snap.restore_shell(&fs).unwrap();
        assert_eq!(vm.footprint_bytes(), 0);
        let input = InputGenerator::new(f, 1).input(1);
        let ops = vm.invocation_ops(&input);
        let (uffd, handler_fs) = (vm.uffd_mut(), fs.clone());
        let mut handler = FileBacked {
            snapshot: &snap,
            fs: &handler_fs,
        };
        let trace = run_lazy(&ops, uffd, &mut handler);
        assert!(trace.uffd_faults > 2000, "pyaes ws ~2800 pages");
        assert_eq!(trace.uffd_faults, vm.memory().resident_pages());
        // Every installed page matches the snapshot exactly.
        let verified = verify_restored_cached(&vm, &snap, &fs, None).expect("contents must match");
        assert_eq!(verified, trace.uffd_faults);
    }

    /// Everything of a VM's guest structures that later behaviour depends
    /// on, in comparable form.
    fn shell_signature(vm: &MicroVm) -> (u64, Vec<guest_os::RegionDesc>, Vec<PageRun>, Vec<PageRun>) {
        let shell = vm.guest_shell();
        (
            shell.space.heap().state_fingerprint(),
            shell.space.regions().to_vec(),
            shell.kernel.conn_plan(),
            shell.kernel.rpc_plan(),
        )
    }

    #[test]
    fn restore_equals_reboot_for_every_function() {
        for f in FunctionId::ALL {
            for seed in [1, 0xC0FFEE] {
                let config = VmConfig {
                    seed,
                    ..VmConfig::default()
                };
                let fs = FileStore::new();
                let (mut booted, _) = MicroVm::boot(f, config);
                booted.pause();
                let snap = Snapshot::capture(&booted, &fs, "s");
                drop(booted);
                let mut restored = snap.restore_shell(&fs).unwrap();
                let mut oracle = MicroVm::restore_shell(f, config);
                assert!(restored.is_lazy());
                assert_eq!(restored.footprint_bytes(), 0);
                assert_eq!(restored.content_label(), oracle.content_label());
                assert_eq!(restored.uffd().region_base(), oracle.uffd().region_base());
                let at_snapshot = shell_signature(&restored);
                assert_eq!(at_snapshot, shell_signature(&oracle), "{f} seed {seed}");
                let inputs = InputGenerator::new(f, seed);
                for seq in 0..8 {
                    let input = inputs.input(seq);
                    assert_eq!(
                        restored.invocation_ops(&input),
                        oracle.invocation_ops(&input),
                        "{f} seed {seed} input {seq}"
                    );
                    // §4.4: transient allocations (video_processing's mats
                    // included) are freed, so the free lists are back at
                    // the snapshot state for the next invocation.
                    assert_eq!(shell_signature(&restored).0, at_snapshot.0);
                }
            }
        }
    }

    #[test]
    fn capture_after_invocations_carries_the_boot_shell() {
        // The clone-on-restore design relies on this: a VM that has
        // served requests pauses with the same guest structures it
        // booted with.
        for f in [FunctionId::helloworld, FunctionId::video_processing] {
            let fs = FileStore::new();
            let (mut vm, _) = MicroVm::boot(f, VmConfig::default());
            let at_boot = shell_signature(&vm);
            let inputs = InputGenerator::new(f, 9);
            for seq in 0..3 {
                let ops = vm.invocation_ops(&inputs.input(seq));
                let label = vm.content_label();
                crate::vcpu::run_resident(&ops, vm.uffd_mut().memory_mut(), label);
            }
            vm.pause();
            let snap = Snapshot::capture(&vm, &fs, "s");
            let restored = snap.restore_shell(&fs).unwrap();
            assert_eq!(shell_signature(&restored), at_boot, "{f}");
        }
    }

    #[test]
    fn uncached_verify_reads_zeros_past_a_truncated_memory_file() {
        let f = FunctionId::helloworld;
        let (snap, fs) = booted_snapshot(f);
        let mut vm = snap.restore_shell(&fs).unwrap();
        let ops = vm.invocation_ops(&InputGenerator::new(f, 1).input(1));
        let mut handler = FileBacked {
            snapshot: &snap,
            fs: &fs,
        };
        run_lazy(&ops, vm.uffd_mut(), &mut handler);
        let runs = vm.memory().resident_runs();

        let reads_before = fs.read_calls();
        let uncached = verify_restored_cached(&vm, &snap, &fs, None).unwrap();
        assert_eq!(fs.read_calls() - reads_before, runs.len() as u64, "one read per resident run");
        let cache = sim_storage::SnapshotFrameCache::new();
        assert_eq!(verify_restored_cached(&vm, &snap, &fs, Some(&cache)), Ok(uncached));
        assert_eq!(uncached, vm.memory().resident_pages());

        // Cut the file in the middle of a resident run: the borrow clamps
        // there, and the pages past it must still compare against zeros.
        let run = *runs.iter().find(|r| r.len >= 2).expect("a multi-page run");
        let cut = PageIdx::new(run.first.as_u64() + run.len / 2);
        assert!(vm.memory().page_bytes(cut).unwrap().iter().any(|&b| b != 0));
        fs.set_len(snap.mem_file, cut.file_offset()).unwrap();
        let err = verify_restored_cached(&vm, &snap, &fs, None).unwrap_err();
        let zero_page = guest_mem::fnv1a64(&[0u8; PAGE_SIZE]);
        assert!(err.starts_with(&format!("page {cut} differs from snapshot")), "{err}");
        assert!(err.ends_with(&format!("file {zero_page:x})")), "{err}");
        // The frames here are private copies, so the cache verifies them by
        // bytes too: its stale extents are re-resolved against the cut file,
        // and it refuses with exactly the uncached error.
        assert_eq!(
            verify_restored_cached(&vm, &snap, &fs, Some(&cache)),
            Err(err)
        );
    }

    #[test]
    fn corrupt_vmm_state_detected() {
        let (snap, fs) = booted_snapshot(FunctionId::helloworld);
        fs.write_at(snap.vmm_file, 10, b"corruption").unwrap();
        let err = snap.load_vmm_state(&fs).unwrap_err();
        assert_eq!(err, RestoreError::Corrupt("VMM state checksum mismatch".to_string()));
        assert_eq!(snap.restore_shell(&fs).unwrap_err(), err);
    }

    #[test]
    fn footprint_after_restore_invoke_is_much_smaller_than_boot() {
        // The Fig 4 comparison: booted ~148 MB vs restored+invoked ~8 MB.
        let f = FunctionId::helloworld;
        let (snap, fs) = booted_snapshot(f);
        let boot_mb = snap.resident_at_capture * 4096 / (1024 * 1024);
        let mut vm = snap.restore_shell(&fs).unwrap();
        let input = InputGenerator::new(f, 1).input(1);
        let ops = vm.invocation_ops(&input);
        let mut handler = FileBacked {
            snapshot: &snap,
            fs: &fs,
        };
        run_lazy(&ops, vm.uffd_mut(), &mut handler);
        let restored_mb = vm.footprint_bytes() / (1024 * 1024);
        assert!(
            restored_mb * 10 < boot_mb,
            "restored ({restored_mb} MB) should be ~5% of booted ({boot_mb} MB)"
        );
    }
}
