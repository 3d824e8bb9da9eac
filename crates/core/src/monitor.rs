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
//! every later cold start of the same function — on any shard.
//! [`MonitorStats`] and [`guest_mem::UffdStats`] are arithmetically
//! identical with and without the cache (pinned by proptests).

use std::fmt;

use guest_mem::{push_coalesced, FaultEvent, MemError, PageIdx, PageRun, Uffd, PAGE_SIZE};
use microvm::{FaultHandler, Snapshot};
use sim_storage::{FileStore, FrameCacheDelta, SnapshotFrameCache, StorageError};

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
    Install(String),
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
            PrefetchError::Install(s) => write!(f, "prefetch install failed: {s}"),
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

    /// Recorded trace as coalesced runs (fault order) — empty unless in
    /// record mode.
    pub fn trace_runs(&self) -> &[PageRun] {
        &self.trace
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
        for (run, data_at) in layout.extents {
            let install = if let Some(cache) = self.cache {
                // Frame-cache path: first cold start of this WS file
                // loads the extent once; every later one aliases the
                // cached bytes into the guest — zero copies, no store
                // read.
                match cache.get_or_load_tracked(
                    self.fs,
                    files.ws_file,
                    data_at,
                    run.byte_len(),
                    &mut self.cache_delta,
                ) {
                    Ok(src) => uffd.alias_run(run, &src, 0),
                    // The WS file died mid-pass (an unregister racing
                    // this cold start, or a blackout): degrade to a plain
                    // store read; if that is gone too, fail the prefetch
                    // cleanly — with the *typed* storage fault — instead
                    // of poisoning the serving thread.
                    Err(_gone) => {
                        match self.fs.checked_read_at(files.ws_file, data_at, run.byte_len() as usize) {
                            Ok(src) => uffd.copy_run(run, &src),
                            Err(e) => return Err(PrefetchError::Storage(e)),
                        }
                    }
                }
            } else {
                // Install straight from the WS file's bytes: one copy per
                // extent, no staging buffer.
                self.fs
                    .with_range(files.ws_file, data_at, run.byte_len(), |src| {
                        uffd.copy_run(run, src)
                    })
            }
            .map_err(|e| PrefetchError::Install(e.to_string()))?;
            self.stats.prefetched += install.installed;
            self.stats.eexist_races += install.eexist;
        }
        uffd.wake();
        self.prefetch_done = true;
        Ok(self.stats.prefetched)
    }

    /// Lane-parallel prefetch (the ROADMAP's "parallel prefetch lanes"):
    /// behaves exactly like [`prefetch`](Self::prefetch) — byte-identical
    /// guest memory, identical [`MonitorStats`]/[`guest_mem::UffdStats`] —
    /// but serves the WS file's extents across up to `lanes` concurrent
    /// fetch lanes, the way REAP's monitor goroutines overlap working-set
    /// I/O with execution (§5.2).
    ///
    /// Each lane *fuses* fetch and install: frames for every missing
    /// extent are reserved up front ([`Uffd::copy_runs_with`]), then the
    /// lanes copy file bytes straight into the frames under one store
    /// read lock ([`FileStore::read_ranges_into`]) — a single scatter
    /// copy instead of a fetch-all-then-install-all double pass. Lane
    /// count is gated on the host's `available_parallelism`, so results
    /// never depend on it; only wall-clock time does.
    ///
    /// A layout that names pages outside the guest region (possible only
    /// in a corrupt artifact; overlapping extents never parse) falls back
    /// to the sequential path wholesale, preserving its error semantics
    /// exactly.
    ///
    /// With a frame cache attached, a *warm* cache routes to the cached
    /// sequential path (hits are refcount bumps — no copies left for the
    /// lanes to overlap), while a cold or invalidated cache keeps the
    /// laned fusion for the real reads it still pays.
    ///
    /// # Errors
    ///
    /// As [`prefetch`](Self::prefetch).
    pub fn prefetch_lanes(
        &mut self,
        uffd: &mut Uffd,
        files: &ReapFiles,
        lanes: usize,
    ) -> Result<u64, PrefetchError> {
        if lanes <= 1 {
            return self.prefetch(uffd, files);
        }
        if let Some(cache) = self.cache {
            let layout = read_ws_layout(self.fs, files.ws_file).map_err(PrefetchError::from_ws)?;
            if layout
                .extents
                .iter()
                .all(|&(run, at)| cache.contains_current(self.fs, files.ws_file, at, run.byte_len()))
            {
                // Warm cache: every install is a refcount bump — there
                // are no copies for the lanes to parallelize, so the
                // cached sequential path is the fast path.
                return self.prefetch(uffd, files);
            }
            // Cold (or stale) cache: the extents still pay real reads and
            // copies, so keep the laned fetch+install fusion below. The
            // cache stays unpopulated this pass and fills on the next
            // sequential serve — stats are identical on every route
            // (pinned by the lane- and cache-equivalence proptests).
        }
        let layout = read_ws_layout(self.fs, files.ws_file).map_err(PrefetchError::from_ws)?;

        // Split every extent into its missing sub-runs (bulk-installed by
        // the lanes) and its already-resident pages (served per page so
        // EEXIST races are counted exactly as the sequential path counts
        // them). Residency is static during prefetch — the vCPU is halted
        // — so this split is deterministic.
        let mut jobs: Vec<(PageRun, u64)> = Vec::with_capacity(layout.extents.len());
        let mut resident: Vec<(PageIdx, u64)> = Vec::new();
        for &(run, data_at) in &layout.extents {
            if !uffd.memory().contains_run(run) {
                // Out-of-bounds layout: replay the sequential semantics
                // verbatim.
                return self.prefetch(uffd, files);
            }
            let mut cursor = run.first;
            while let Some(missing) = uffd.next_missing_run(cursor, run) {
                for page in PageRun::new(cursor, missing.first.as_u64() - cursor.as_u64()).iter() {
                    resident.push((page, data_at + (page.as_u64() - run.first.as_u64()) * PAGE_SIZE as u64));
                }
                jobs.push((missing, data_at + (missing.first.as_u64() - run.first.as_u64()) * PAGE_SIZE as u64));
                cursor = missing.end();
            }
            for page in PageRun::new(cursor, run.end().as_u64() - cursor.as_u64()).iter() {
                resident.push((page, data_at + (page.as_u64() - run.first.as_u64()) * PAGE_SIZE as u64));
            }
        }

        let runs: Vec<PageRun> = jobs.iter().map(|&(run, _)| run).collect();
        let fs = self.fs;
        let ws_file = files.ws_file;
        let installed = uffd
            .copy_runs_with(&runs, |bufs| {
                let lane_jobs: Vec<(u64, &mut [u8])> = bufs
                    .into_iter()
                    .map(|(i, buf)| (jobs[i].1, buf))
                    .collect();
                fs.read_ranges_into(ws_file, lane_jobs, lanes);
            })
            .map_err(|e| PrefetchError::Install(e.to_string()))?;
        self.stats.prefetched += installed;

        // Attempt the resident pages exactly as the sequential per-page
        // fallback would: the kernel answers EEXIST, contents survive.
        for &(page, data_at) in &resident {
            let data = self.fs.read_at(ws_file, data_at, PAGE_SIZE);
            match uffd.copy(page, &data) {
                Err(MemError::AlreadyResident(_)) => self.stats.eexist_races += 1,
                Ok(()) => unreachable!("page {page} was resident during the split"),
                Err(e) => return Err(PrefetchError::Install(e.to_string())),
            }
        }
        uffd.wake();
        self.prefetch_done = true;
        Ok(self.stats.prefetched)
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
        let install = if let Some(cache) = self.cache {
            // Demand faults repeat across cold starts of the same
            // function (deterministic replay): alias the cached run.
            match cache.get_or_load_tracked(
                self.fs,
                self.snapshot.mem_file,
                run.file_offset(),
                run.byte_len(),
                &mut self.cache_delta,
            ) {
                Ok(src) => uffd.alias_run(run, &src, 0)?,
                // Snapshot file unregistered mid-serve: degrade to a
                // plain store read; if the file is truly gone, the run
                // stays missing and the serve fails cleanly instead of
                // poisoning the serving thread.
                Err(_gone) => match self.fs.try_read_at(
                    self.snapshot.mem_file,
                    run.file_offset(),
                    run.byte_len() as usize,
                ) {
                    Some(src) => uffd.copy_run(run, &src)?,
                    None => return Err(MemError::NotResident(run.first)),
                },
            }
        } else {
            self.fs
                .with_range(self.snapshot.mem_file, run.file_offset(), run.byte_len(), |src| {
                    uffd.copy_run(run, src)
                })?
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
    use crate::ws_file::read_trace_file;
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
        let expect: Vec<PageIdx> = [0u64, 7, 3, 42].iter().map(|&p| PageIdx::new(p)).collect();
        assert_eq!(m.stats().demand_served, 4);

        let files = m.finish_record("snap/hw");
        assert_eq!(files.pages, 4);
        assert_eq!(files.extents, 4, "non-adjacent fault order");
        assert_eq!(read_trace_file(&fs, files.trace_file).unwrap(), expect);
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
        assert_eq!(m.trace_runs(), &[PageRun::new(PageIdx::new(0), 5)]);
        assert_eq!(m.stats().demand_served, 5);
        let files = m.finish_record("snap/hw");
        assert_eq!((files.pages, files.extents), (5, 1));
        // Installed bytes match the snapshot exactly.
        microvm::verify_restored(&vm, &snap, &fs).unwrap();
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
        let verified = microvm::verify_restored(&vm, &snap, &fs).unwrap();
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
        microvm::verify_restored(&vm, &snap, &fs).unwrap();
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
    fn laned_prefetch_matches_sequential_exactly() {
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

        // Reference: the sequential path, with page 50 pre-faulted so a
        // mixed extent exercises the EEXIST split.
        let run_with = |lanes: usize| {
            let mut vm = snap.restore_shell(&fs).unwrap();
            let first = vm.uffd_mut().inject_first_fault();
            vm.uffd_mut().poll().unwrap();
            let mut warmup = Monitor::new(&snap, &fs, MonitorMode::OnDemand);
            warmup.handle_fault(vm.uffd_mut(), first).unwrap();
            let ev = fault_on(vm.uffd_mut(), 50);
            warmup.handle_fault(vm.uffd_mut(), ev).unwrap();
            let mut m = Monitor::new(&snap, &fs, MonitorMode::Prefetch);
            let installed = m.prefetch_lanes(vm.uffd_mut(), &files, lanes).unwrap();
            let verified = microvm::verify_restored(&vm, &snap, &fs).unwrap();
            (installed, m.stats(), vm.uffd().stats(), verified)
        };

        let baseline = run_with(1);
        assert_eq!(baseline.1.eexist_races, 2, "pages 0 and 50 were resident");
        for lanes in 2..=4 {
            assert_eq!(run_with(lanes), baseline, "lanes={lanes}");
        }
    }

    #[test]
    fn cached_prefetch_matches_uncached_and_lanes_keep_cold_path() {
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

        let run_prefetch = |cache: Option<&SnapshotFrameCache>, lanes: usize| {
            let mut vm = snap.restore_shell(&fs).unwrap();
            let mut m = Monitor::with_cache(&snap, &fs, MonitorMode::Prefetch, cache);
            let installed = m.prefetch_lanes(vm.uffd_mut(), &files, lanes).unwrap();
            let verified = microvm::verify_restored(&vm, &snap, &fs).unwrap();
            (installed, m.stats(), vm.uffd().stats(), verified)
        };

        let reference = run_prefetch(None, 1);
        let cache = SnapshotFrameCache::new();
        // Cold cache + lanes > 1 takes the laned pipeline: identical
        // result, and nothing populated (the lanes copy, not the cache).
        assert_eq!(run_prefetch(Some(&cache), 3), reference);
        assert_eq!(cache.stats().entries, 0, "laned cold pass does not populate");
        // Sequential cached pass populates...
        assert_eq!(run_prefetch(Some(&cache), 1), reference);
        let populated = cache.stats();
        assert!(populated.entries > 0 && populated.misses > 0);
        // ...and a warm cache routes lanes>1 to the aliasing hit path.
        assert_eq!(run_prefetch(Some(&cache), 3), reference);
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
