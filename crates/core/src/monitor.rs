//! The per-instance REAP monitor (§5.2).
//!
//! The vHive-CRI orchestrator spawns one monitor per function instance
//! (lightweight goroutines in the paper; plain structs driven by the
//! functional pass here). The monitor owns the instance's user-fault
//! channel and runs in one of three modes:
//!
//! * **OnDemand** — the baseline: serve each fault from the snapshot's
//!   guest memory file;
//! * **Record** — OnDemand plus a trace of every fault's file offset; when
//!   the invocation completes, [`Monitor::finish_record`] emits the trace
//!   and WS files (§5.2.1);
//! * **Prefetch** — before the instance resumes, eagerly install the
//!   entire WS file, then serve only residual faults on demand (§5.2.2).
//!
//! Offset translation uses the paper's first-fault trick: the hypervisor
//! injects a fault at the first byte of guest memory, the monitor learns
//! the region base from it, and every later fault's file offset is a
//! subtraction.
//!
//! Serving is run-length batched end-to-end: a run of consecutive faults
//! is one snapshot-file read installed straight into the guest frames
//! ([`guest_mem::Uffd::copy_run`]), the trace is recorded as
//! coalesced [`PageRun`]s, and prefetch installs one WS-file extent at a
//! time.
//!
//! When a [`SnapshotFrameCache`] is attached
//! ([`Monitor::with_cache`] — the orchestrator's default), both the
//! prefetch and the demand-fault paths consult it *before* touching the
//! [`FileStore`]: a hit aliases the cached extent's refcounted bytes
//! straight into guest memory ([`Uffd::alias_run`], zero copies, no
//! store read), a miss reads the store once and populates the cache for
//! every later cold start of the same function — on any shard. A miss the
//! cache bypasses at its budget, like one whose file died mid-pass, is
//! copied in from a borrow of the store ([`FileStore::read`]), as is
//! every run when no cache is attached.
//! [`MonitorStats`] and [`guest_mem::UffdStats`] are arithmetically
//! identical with and without the cache (pinned by proptests).

use std::fmt;

use guest_mem::{push_coalesced, FaultEvent, MemError, PageIdx, PageRun, Uffd, PAGE_SIZE};
use microvm::{FaultHandler, Snapshot};
use sim_storage::{FileStore, FrameCacheDelta, FrameLookup, SnapshotFrameCache, StorageError};

use crate::ws_file::{read_ws_layout, write_reap_files_runs, ReapFiles, WsError};

/// Why a working-set prefetch failed — typed so the orchestrator's
/// recovery policy can tell *retry* (transient storage fault) from
/// *quarantine-and-fall-back* (corrupt artifact) from *route-elsewhere*
/// (shard blackout).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PrefetchError {
    /// The store failed while reading the artifact (transient fault,
    /// blackout, dead file). Says nothing about the artifact's contents.
    Storage(StorageError),
    /// The artifact's bytes are malformed (bad magic, truncation,
    /// invalid extents). Either stored corruption — quarantine — or
    /// corruption injected on the read path, which one retry heals.
    Artifact(WsError),
    /// Installing prefetched pages into guest memory failed (monitor
    /// invariant violation — not recoverable by policy).
    Install(MemError),
}

impl PrefetchError {
    pub(crate) fn from_ws(e: WsError) -> Self {
        // Hoist storage faults out of the parse error so class-based
        // recovery never mistakes an unreadable artifact for a corrupt
        // one.
        match e {
            WsError::Io(se) => PrefetchError::Storage(se),
            other => PrefetchError::Artifact(other),
        }
    }
}

impl fmt::Display for PrefetchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PrefetchError::Storage(e) => write!(f, "prefetch storage fault: {e}"),
            PrefetchError::Artifact(e) => write!(f, "corrupt REAP artifact: {e}"),
            PrefetchError::Install(e) => write!(f, "prefetch install failed: {e}"),
        }
    }
}

impl std::error::Error for PrefetchError {}

/// Monitor operating mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MonitorMode {
    /// Baseline lazy paging.
    OnDemand,
    /// Lazy paging + working-set recording.
    Record,
    /// Eager prefetch of a recorded working set, residuals on demand.
    Prefetch,
}

/// Counters the evaluation reports.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MonitorStats {
    /// Faults served from the memory file.
    pub demand_served: u64,
    /// Pages installed eagerly from the WS file.
    pub prefetched: u64,
    /// Faults served *after* a prefetch (working-set misses, §7.1/§7.2).
    pub residual_after_prefetch: u64,
    /// Eager installs that found the page already resident (EEXIST —
    /// benign race in the kernel API, §5.2).
    pub eexist_races: u64,
}

/// A per-instance monitor thread.
#[derive(Debug)]
pub struct Monitor<'a> {
    snapshot: &'a Snapshot,
    fs: &'a FileStore,
    /// Shared frame cache consulted before the store (None = always copy
    /// from the store, the pre-cache behaviour).
    cache: Option<&'a SnapshotFrameCache>,
    mode: MonitorMode,
    /// Region base learned from the injected first fault (§5.2.1).
    region_base: Option<u64>,
    /// Recorded fault order as coalesced runs (record mode).
    trace: Vec<PageRun>,
    prefetch_done: bool,
    stats: MonitorStats,
    /// Frame-cache lookups this instance resolved, attributed per request
    /// (kept out of [`MonitorStats`]: those counters are pinned identical
    /// cached vs uncached, while this delta only exists with a cache).
    cache_delta: FrameCacheDelta,
}

impl<'a> Monitor<'a> {
    /// Creates a monitor for one instance of `snapshot`'s function,
    /// serving every install by copying from the store.
    pub fn new(snapshot: &'a Snapshot, fs: &'a FileStore, mode: MonitorMode) -> Self {
        Monitor::with_cache(snapshot, fs, mode, None)
    }

    /// Same, optionally consulting a shared [`SnapshotFrameCache`] before
    /// the store on the prefetch and demand-fault paths (see the module
    /// docs). Guest memory contents and all counters are identical either
    /// way; only host-side byte copies disappear.
    pub fn with_cache(
        snapshot: &'a Snapshot,
        fs: &'a FileStore,
        mode: MonitorMode,
        cache: Option<&'a SnapshotFrameCache>,
    ) -> Self {
        Monitor {
            snapshot,
            fs,
            cache,
            mode,
            region_base: None,
            trace: Vec::new(),
            prefetch_done: false,
            stats: MonitorStats::default(),
            cache_delta: FrameCacheDelta::default(),
        }
    }

    /// Mode this monitor runs in.
    pub fn mode(&self) -> MonitorMode {
        self.mode
    }

    /// Counters so far.
    pub fn stats(&self) -> MonitorStats {
        self.stats
    }

    /// Frame-cache activity (hits / misses / raced) this instance's
    /// lookups resolved so far — zero when no cache is attached.
    pub fn cache_delta(&self) -> FrameCacheDelta {
        self.cache_delta
    }

    /// Translates a fault's host virtual address to a guest page using the
    /// base learned from the first (injected) fault.
    fn translate(&mut self, ev: FaultEvent) -> PageIdx {
        let base = *self.region_base.get_or_insert(ev.host_vaddr);
        debug_assert!(
            ev.host_vaddr >= base,
            "fault below the learned region base — first-fault injection missing"
        );
        PageIdx::new((ev.host_vaddr - base) / PAGE_SIZE as u64)
    }

    /// Eagerly installs the recorded working set from `files` into the
    /// instance (§5.2.2): one logical read of the WS file, then one
    /// install per extent, then a single wake. Returns pages installed.
    ///
    /// # Errors
    ///
    /// Returns a typed [`PrefetchError`]: [`PrefetchError::Artifact`] for
    /// corrupt WS bytes, [`PrefetchError::Storage`] when the store cannot
    /// serve the artifact (dead file, injected fault, blackout).
    pub fn prefetch(&mut self, uffd: &mut Uffd, files: &ReapFiles) -> Result<u64, PrefetchError> {
        let layout = read_ws_layout(self.fs, files.ws_file).map_err(PrefetchError::from_ws)?;
        let file = files.ws_file;
        for (run, at) in layout.extents {
            let len = run.byte_len();
            let lookup = self.cache.map(|cache| {
                cache.get_or_load_tracked(self.fs, file, at, len, false, &mut self.cache_delta)
            });
            let install = match lookup {
                // Frame-cache path: first cold start of this WS file loads
                // the extent once; every later one aliases the cached bytes
                // into the guest — zero copies, no store read.
                Some(Ok(FrameLookup::Frames(src))) => uffd.alias_run(run, src, 0),
                // No cache, a bypass (the cache is at its budget), or a WS
                // file that died mid-pass (an unregister racing this cold
                // start, or a blackout): install straight from the WS
                // file's bytes, one copy per extent. If the file is gone,
                // fail the prefetch cleanly — with the *typed* storage
                // fault — instead of poisoning the serving thread.
                _ => self
                    .fs
                    .read(file, at, len, |src| uffd.copy_run(run, src))
                    .map_err(PrefetchError::Storage)?,
            }
            .map_err(PrefetchError::Install)?;
            self.stats.prefetched += install.installed;
            self.stats.eexist_races += install.eexist;
        }
        uffd.wake();
        self.prefetch_done = true;
        Ok(self.stats.prefetched)
    }

    // Pinned by benchmark/src/layers.rs:472 (`monitor.prefetch` span); leaves
    // with the next `benchmark/`-only PR.
    #[doc(hidden)]
    pub fn prefetch_lanes(
        &mut self,
        uffd: &mut Uffd,
        files: &ReapFiles,
        _lanes: usize,
    ) -> Result<u64, PrefetchError> {
        self.prefetch(uffd, files)
    }

    /// Finishes a record-mode invocation: writes the trace + WS files next
    /// to the snapshot (§5.2.1) and returns their handles.
    ///
    /// # Panics
    ///
    /// Panics if the monitor is not in record mode.
    pub fn finish_record(&mut self, prefix: &str) -> ReapFiles {
        assert_eq!(self.mode, MonitorMode::Record, "not recording");
        write_reap_files_runs(self.fs, prefix, self.snapshot.mem_file, &self.trace)
    }
}

impl Monitor<'_> {
    /// Serves `run` (already translated to guest pages) from the memory
    /// file: install straight from the file's bytes under the store's
    /// read lock — one copy, no per-page buffers on the serve path.
    fn serve_run(&mut self, uffd: &mut Uffd, run: PageRun) -> Result<(), MemError> {
        let (file, at, len) = (self.snapshot.mem_file, run.file_offset(), run.byte_len());
        let lookup = self.cache.map(|cache| {
            cache.get_or_load_tracked(self.fs, file, at, len, false, &mut self.cache_delta)
        });
        let install = match lookup {
            // Demand faults repeat across cold starts of the same function
            // (deterministic replay): alias the cached run.
            Some(Ok(FrameLookup::Frames(src))) => uffd.alias_run(run, src, 0)?,
            // No cache, a bypass, or a snapshot file that was unregistered
            // (or blacked out) mid-serve: read the store directly; if the
            // file is gone, the run stays missing and the serve fails
            // cleanly instead of poisoning the serving thread.
            _ => self
                .fs
                .read(file, at, len, |src| uffd.copy_run(run, src))
                .unwrap_or(Err(MemError::NotResident(run.first)))?,
        };
        if install.eexist > 0 {
            // A faulted run must have been missing; surface the monitor
            // bug exactly as the per-page path did.
            return Err(MemError::AlreadyResident(run.first));
        }
        self.stats.demand_served += run.len;
        if self.prefetch_done {
            self.stats.residual_after_prefetch += run.len;
        }
        if self.mode == MonitorMode::Record {
            push_coalesced(&mut self.trace, run);
        }
        Ok(())
    }
}

impl FaultHandler for Monitor<'_> {
    fn handle_fault(&mut self, uffd: &mut Uffd, ev: FaultEvent) -> Result<(), MemError> {
        let page = self.translate(ev);
        self.serve_run(uffd, PageRun::single(page))
    }

    fn handle_fault_run(
        &mut self,
        uffd: &mut Uffd,
        ev: FaultEvent,
        run: PageRun,
    ) -> Result<(), MemError> {
        // The monitor only trusts host addresses: the run's position is
        // re-derived from the event, its length from the caller.
        let first = self.translate(ev);
        self.serve_run(uffd, PageRun::new(first, run.len))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ws_file::read_trace_runs;
    use functionbench::FunctionId;
    use guest_mem::TouchOutcome;
    use microvm::{MicroVm, VmConfig};

    fn snapshot_fixture() -> (Snapshot, FileStore) {
        let fs = FileStore::new();
        let (mut vm, _) = MicroVm::boot(FunctionId::helloworld, VmConfig::default());
        vm.pause();
        let snap = Snapshot::capture(&vm, &fs, "snap/hw");
        (snap, fs)
    }

    fn fault_on(uffd: &mut Uffd, page: u64) -> FaultEvent {
        match uffd.touch_page(PageIdx::new(page)) {
            TouchOutcome::Faulted(ev) => {
                let polled = uffd.poll().unwrap();
                assert_eq!(polled, ev);
                ev
            }
            TouchOutcome::Resident => panic!("page {page} unexpectedly resident"),
        }
    }

    #[test]
    fn record_mode_captures_fault_order() {
        let (snap, fs) = snapshot_fixture();
        let mut vm = snap.restore_shell(&fs).unwrap();
        let mut m = Monitor::new(&snap, &fs, MonitorMode::Record);
        // First-fault injection teaches the monitor the base.
        let first = vm.uffd_mut().inject_first_fault();
        vm.uffd_mut().poll().unwrap();
        m.handle_fault(vm.uffd_mut(), first).unwrap();
        for p in [7u64, 3, 42] {
            let ev = fault_on(vm.uffd_mut(), p);
            m.handle_fault(vm.uffd_mut(), ev).unwrap();
        }
        let expect: Vec<PageRun> = [0u64, 7, 3, 42]
            .iter()
            .map(|&p| PageRun::single(PageIdx::new(p)))
            .collect();
        assert_eq!(m.stats().demand_served, 4);

        let files = m.finish_record("snap/hw");
        assert_eq!(files.pages, 4);
        assert_eq!(files.extents, 4, "non-adjacent fault order");
        assert_eq!(read_trace_runs(&fs, files.trace_file).unwrap(), expect);
    }

    #[test]
    fn batched_faults_record_coalesced_runs() {
        let (snap, fs) = snapshot_fixture();
        let mut vm = snap.restore_shell(&fs).unwrap();
        let mut m = Monitor::new(&snap, &fs, MonitorMode::Record);
        let first = vm.uffd_mut().inject_first_fault();
        vm.uffd_mut().poll().unwrap();
        m.handle_fault(vm.uffd_mut(), first).unwrap();
        // A batched run of 4 faults starting at page 1: contiguous with
        // the injected page 0, so the trace coalesces to one extent.
        let window = PageRun::new(PageIdx::new(1), 4);
        let run = vm.uffd_mut().next_missing_run(PageIdx::new(1), window).unwrap();
        assert_eq!(run, window);
        let ev = vm.uffd_mut().raise_run(run);
        m.handle_fault_run(vm.uffd_mut(), ev, run).unwrap();
        vm.uffd_mut().wake_run(run.len);
        assert_eq!(m.stats().demand_served, 5);
        let files = m.finish_record("snap/hw");
        assert_eq!((files.pages, files.extents), (5, 1));
        assert_eq!(
            read_trace_runs(&fs, files.trace_file).unwrap(),
            vec![PageRun::new(PageIdx::new(0), 5)]
        );
        // Installed bytes match the snapshot exactly.
        microvm::verify_restored_cached(&vm, &snap, &fs, None).unwrap();
    }

    #[test]
    fn served_pages_match_snapshot_contents() {
        let (snap, fs) = snapshot_fixture();
        let mut vm = snap.restore_shell(&fs).unwrap();
        let mut m = Monitor::new(&snap, &fs, MonitorMode::OnDemand);
        let first = vm.uffd_mut().inject_first_fault();
        vm.uffd_mut().poll().unwrap();
        m.handle_fault(vm.uffd_mut(), first).unwrap();
        let ev = fault_on(vm.uffd_mut(), 100);
        m.handle_fault(vm.uffd_mut(), ev).unwrap();
        let verified = microvm::verify_restored_cached(&vm, &snap, &fs, None).unwrap();
        assert_eq!(verified, 2);
    }

    #[test]
    fn prefetch_then_residual_counting() {
        let (snap, fs) = snapshot_fixture();
        // Record a small working set first.
        let files = {
            let mut vm = snap.restore_shell(&fs).unwrap();
            let mut m = Monitor::new(&snap, &fs, MonitorMode::Record);
            let first = vm.uffd_mut().inject_first_fault();
            vm.uffd_mut().poll().unwrap();
            m.handle_fault(vm.uffd_mut(), first).unwrap();
            for p in [10u64, 11, 50] {
                let ev = fault_on(vm.uffd_mut(), p);
                m.handle_fault(vm.uffd_mut(), ev).unwrap();
            }
            m.finish_record("snap/hw")
        };
        assert_eq!(files.extents, 3, "pages 10,11 coalesced");
        // Prefetch into a fresh instance.
        let mut vm = snap.restore_shell(&fs).unwrap();
        let mut m = Monitor::new(&snap, &fs, MonitorMode::Prefetch);
        let installed = m.prefetch(vm.uffd_mut(), &files).unwrap();
        assert_eq!(installed, 4);
        // Recorded pages are resident; no faults.
        assert_eq!(
            vm.uffd_mut().touch_page(PageIdx::new(10)),
            TouchOutcome::Resident
        );
        // A page outside the working set faults and counts as residual.
        let ev = fault_on(vm.uffd_mut(), 999);
        // Monitor must learn the base from this first *observed* fault...
        // which is NOT byte zero. Prefetch mode relies on the injected
        // first fault; emulate it being observed first in real flows.
        // Here page 0 is already installed by prefetch (it was recorded),
        // so translation uses the residual fault's address relative to the
        // true base; feed the monitor the true base via a synthetic event.
        let base_ev = FaultEvent {
            host_vaddr: vm.uffd().region_base(),
            seq: 0,
        };
        let _ = m.translate(base_ev);
        m.handle_fault(vm.uffd_mut(), ev).unwrap();
        let st = m.stats();
        assert_eq!(st.residual_after_prefetch, 1);
        assert_eq!(st.prefetched, 4);
        assert_eq!(st.eexist_races, 0);
        microvm::verify_restored_cached(&vm, &snap, &fs, None).unwrap();
    }

    #[test]
    fn prefetch_race_counts_eexist() {
        let (snap, fs) = snapshot_fixture();
        let files = {
            let mut vm = snap.restore_shell(&fs).unwrap();
            let mut m = Monitor::new(&snap, &fs, MonitorMode::Record);
            let first = vm.uffd_mut().inject_first_fault();
            vm.uffd_mut().poll().unwrap();
            m.handle_fault(vm.uffd_mut(), first).unwrap();
            m.finish_record("snap/hw")
        };
        let mut vm = snap.restore_shell(&fs).unwrap();
        // Racing fault installs page 0 before the prefetch arrives.
        let mut m = Monitor::new(&snap, &fs, MonitorMode::Prefetch);
        let first = vm.uffd_mut().inject_first_fault();
        vm.uffd_mut().poll().unwrap();
        m.handle_fault(vm.uffd_mut(), first).unwrap();
        m.prefetch(vm.uffd_mut(), &files).unwrap();
        assert_eq!(m.stats().eexist_races, 1);
        assert_eq!(m.stats().prefetched, 0);
    }

    #[test]
    fn cached_prefetch_matches_uncached() {
        use sim_storage::SnapshotFrameCache;

        let (snap, fs) = snapshot_fixture();
        let files = {
            let mut vm = snap.restore_shell(&fs).unwrap();
            let mut m = Monitor::new(&snap, &fs, MonitorMode::Record);
            let first = vm.uffd_mut().inject_first_fault();
            vm.uffd_mut().poll().unwrap();
            m.handle_fault(vm.uffd_mut(), first).unwrap();
            for p in [10u64, 11, 12, 50, 51, 200] {
                let ev = fault_on(vm.uffd_mut(), p);
                m.handle_fault(vm.uffd_mut(), ev).unwrap();
            }
            m.finish_record("snap/hw")
        };

        let run_prefetch = |cache: Option<&SnapshotFrameCache>| {
            let mut vm = snap.restore_shell(&fs).unwrap();
            let mut m = Monitor::with_cache(&snap, &fs, MonitorMode::Prefetch, cache);
            let installed = m.prefetch(vm.uffd_mut(), &files).unwrap();
            let verified = microvm::verify_restored_cached(&vm, &snap, &fs, None).unwrap();
            (installed, m.stats(), vm.uffd().stats(), verified)
        };

        let reference = run_prefetch(None);
        let cache = SnapshotFrameCache::new();
        // The cold cached pass populates...
        assert_eq!(run_prefetch(Some(&cache)), reference);
        let populated = cache.stats();
        assert!(populated.entries > 0 && populated.misses > 0);
        // ...and the warm pass aliases what it cached.
        assert_eq!(run_prefetch(Some(&cache)), reference);
        let warm = cache.stats();
        assert_eq!(warm.misses, populated.misses, "warm pass reads nothing");
        assert!(warm.hits > populated.hits, "warm pass aliases cached extents");
    }

    #[test]
    #[should_panic(expected = "not recording")]
    fn finish_record_requires_record_mode() {
        let (snap, fs) = snapshot_fixture();
        let mut m = Monitor::new(&snap, &fs, MonitorMode::OnDemand);
        let _ = m.finish_record("x");
    }
}
