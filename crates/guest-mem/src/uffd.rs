//! `userfaultfd` simulation.
//!
//! Reproduces the Linux user-level page-fault handling mechanism the paper
//! builds REAP on (§5.2):
//!
//! * the hypervisor registers the guest memory region (a range of *host
//!   virtual addresses*) and hands the fault channel to a monitor;
//! * first-touch accesses raise [`FaultEvent`]s carrying the faulting host
//!   virtual address;
//! * the monitor resolves the address to an offset in the guest memory
//!   file, retrieves the page from any source (local file, WS file, remote
//!   store) and installs it with [`Uffd::copy`] (`UFFDIO_COPY` semantics,
//!   including EEXIST on double-install), then wakes the faulting vCPU.
//!
//! The paper's Firecracker patch injects the *first* fault at the first
//! byte of guest memory so the monitor can learn the region base and derive
//! every later file offset by subtraction (§5.2.1); [`Uffd::inject_first_fault`]
//! models exactly that handshake.
//!
//! Besides the per-page API ([`Uffd::touch_page`], [`Uffd::poll`],
//! [`Uffd::copy`], [`Uffd::wake`]), which the tests keep as the reference,
//! the channel exposes a *run-length batched* path
//! ([`Uffd::next_missing_run`], [`Uffd::raise_run`], [`Uffd::copy_run`],
//! [`Uffd::wake_run`]) that serves a whole [`PageRun`] of consecutive
//! faults with one residency scan and one install, while keeping
//! [`UffdStats`] arithmetically identical to the per-page path.

use std::collections::VecDeque;

use crate::memory::{FrameBytes, GuestMemory, MemError};
use crate::page::{GuestAddr, PageIdx, PAGE_SIZE};
use crate::run::PageRun;

/// A pending page-fault event as read from the user-fault file descriptor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultEvent {
    /// Faulting *host* virtual address (region base + guest-physical
    /// offset), as the kernel reports it.
    pub host_vaddr: u64,
    /// Monotone sequence number of the fault.
    pub seq: u64,
}

/// Outcome of a VM-side access attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TouchOutcome {
    /// The page was resident; no fault.
    Resident,
    /// A fault was raised and queued for the monitor; the vCPU blocks.
    Faulted(FaultEvent),
}

/// Result of a bulk install ([`Uffd::copy_run`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RunInstall {
    /// Pages newly installed.
    pub installed: u64,
    /// Pages skipped because they were already resident (EEXIST).
    pub eexist: u64,
}

/// Counters the REAP evaluation reports (faults eliminated, §6).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct UffdStats {
    /// Faults raised by the VM.
    pub faults: u64,
    /// Successful `UFFDIO_COPY` installs.
    pub copies: u64,
    /// Installs that hit an already-resident page (EEXIST).
    pub copy_eexist: u64,
    /// vCPU wake-ups.
    pub wakes: u64,
}

/// A guest memory region registered with the (simulated) userfaultfd.
///
/// # Example
///
/// ```
/// use guest_mem::{GuestMemory, PageIdx, TouchOutcome, Uffd, PAGE_SIZE};
///
/// let mem = GuestMemory::new(4 * 4096);
/// let mut uffd = Uffd::register(mem, 0x7f00_0000_0000);
/// // VM touches page 2 -> fault.
/// let TouchOutcome::Faulted(ev) = uffd.touch_page(PageIdx::new(2)) else {
///     panic!("expected fault");
/// };
/// // Monitor resolves the host address to a page and installs it.
/// let page = uffd.page_of_fault(ev);
/// uffd.copy(page, &[5u8; PAGE_SIZE]).unwrap();
/// uffd.wake();
/// assert_eq!(uffd.touch_page(PageIdx::new(2)), TouchOutcome::Resident);
/// ```
#[derive(Debug)]
pub struct Uffd {
    mem: GuestMemory,
    /// Host virtual address where the guest memory region is mapped.
    region_base: u64,
    pending: VecDeque<FaultEvent>,
    next_seq: u64,
    stats: UffdStats,
}

impl Uffd {
    /// Registers `mem` at the given host virtual base address and returns
    /// the fault channel.
    pub fn register(mem: GuestMemory, region_base: u64) -> Self {
        Uffd {
            mem,
            region_base,
            pending: VecDeque::new(),
            next_seq: 0,
            stats: UffdStats::default(),
        }
    }

    /// Host virtual base address of the registered region.
    pub fn region_base(&self) -> u64 {
        self.region_base
    }

    /// Shared view of the guest memory.
    pub fn memory(&self) -> &GuestMemory {
        &self.mem
    }

    /// Mutable view of the guest memory (hypervisor-internal use).
    pub fn memory_mut(&mut self) -> &mut GuestMemory {
        &mut self.mem
    }

    /// Unregisters the region, handing back its memory.
    pub fn into_memory(self) -> GuestMemory {
        self.mem
    }

    /// Fault counters.
    pub fn stats(&self) -> UffdStats {
        self.stats
    }

    fn raise(&mut self, page: PageIdx) -> FaultEvent {
        let ev = FaultEvent {
            host_vaddr: self.region_base + page.file_offset(),
            seq: self.next_seq,
        };
        self.next_seq += 1;
        self.stats.faults += 1;
        self.pending.push_back(ev);
        ev
    }

    /// VM-side: attempts to access `page`. If non-resident, raises a fault
    /// (the vCPU halts until the monitor installs the page and wakes it).
    pub fn touch_page(&mut self, page: PageIdx) -> TouchOutcome {
        if self.mem.is_resident(page) {
            TouchOutcome::Resident
        } else {
            TouchOutcome::Faulted(self.raise(page))
        }
    }

    /// VM-side, batched: the maximal run of missing pages inside `window`
    /// starting at or after `from` — a pure residency query, no fault is
    /// raised yet.
    pub fn next_missing_run(&self, from: PageIdx, window: PageRun) -> Option<PageRun> {
        self.mem.next_missing_run(from, window)
    }

    /// VM-side, batched: raises one fault per page of `run` in a single
    /// operation. The faults are accounted exactly as `run.len` calls to
    /// [`touch_page`](Self::touch_page) on missing pages would be, but the
    /// events are *not* queued: the caller serves the run synchronously
    /// (the vCPU is halted on the first page anyway). Returns the event of
    /// the run's first page; per-page events are reconstructible as
    /// `host_vaddr + i * PAGE_SIZE` / `seq + i`.
    ///
    /// # Panics
    ///
    /// Panics if any page of the run is already resident (a replay bug).
    pub fn raise_run(&mut self, run: PageRun) -> FaultEvent {
        debug_assert!(
            !run.is_empty() && self.mem.next_missing_run(run.first, run) == Some(run),
            "raise_run requires a maximal missing run"
        );
        let ev = FaultEvent {
            host_vaddr: self.region_base + run.first.file_offset(),
            seq: self.next_seq,
        };
        self.next_seq += run.len;
        self.stats.faults += run.len;
        ev
    }

    /// The paper's Firecracker patch: before resuming vCPUs, inject a fault
    /// at the *first byte* of guest memory so the monitor learns the region
    /// base address (§5.2.1).
    pub fn inject_first_fault(&mut self) -> FaultEvent {
        self.raise(PageIdx::new(0))
    }

    /// Monitor-side: next pending fault, if any (the `epoll` read).
    pub fn poll(&mut self) -> Option<FaultEvent> {
        self.pending.pop_front()
    }

    /// Monitor-side: translates a fault's host virtual address into the
    /// guest page, given the region base learned from the injected first
    /// fault.
    ///
    /// # Panics
    ///
    /// Panics if the address lies below the region base (a monitor bug).
    pub fn page_of_fault(&self, ev: FaultEvent) -> PageIdx {
        assert!(
            ev.host_vaddr >= self.region_base,
            "fault below region base"
        );
        GuestAddr::new(ev.host_vaddr - self.region_base).page()
    }

    /// Monitor-side `UFFDIO_COPY`: installs one page of content.
    ///
    /// # Errors
    ///
    /// [`MemError::AlreadyResident`] (EEXIST) if the page is mapped —
    /// callers treat this as benign during prefetch races, as the kernel
    /// API does — or [`MemError::OutOfBounds`].
    pub fn copy(&mut self, page: PageIdx, data: &[u8]) -> Result<(), MemError> {
        match self.mem.install_page(page, data) {
            Ok(()) => {
                self.stats.copies += 1;
                Ok(())
            }
            Err(e @ MemError::AlreadyResident(_)) => {
                self.stats.copy_eexist += 1;
                Err(e)
            }
            Err(e) => Err(e),
        }
    }

    /// Monitor-side bulk `UFFDIO_COPY`: installs a whole run in one
    /// operation. A fully-missing run is one residency scan plus one copy;
    /// runs with resident holes fall back to per-page installs so EEXIST
    /// races stay benign and exactly counted, as the kernel API behaves
    /// under concurrent prefetch (§5.2).
    ///
    /// # Errors
    ///
    /// [`MemError::OutOfBounds`] if the run leaves the region; EEXIST is
    /// *not* an error here, it is reported in the returned counts.
    ///
    /// # Panics
    ///
    /// Panics if `data` is not exactly `run.len` pages.
    pub fn copy_run(&mut self, run: PageRun, data: &[u8]) -> Result<RunInstall, MemError> {
        assert_eq!(
            data.len() as u64,
            run.byte_len(),
            "copy_run needs exactly the run's bytes"
        );
        match self.mem.install_run(run, data) {
            Ok(()) => {
                self.stats.copies += run.len;
                Ok(RunInstall {
                    installed: run.len,
                    eexist: 0,
                })
            }
            Err(MemError::AlreadyResident(_)) => {
                let mut result = RunInstall::default();
                for (i, page) in run.iter().enumerate() {
                    match self.copy(page, &data[i * PAGE_SIZE..(i + 1) * PAGE_SIZE]) {
                        Ok(()) => result.installed += 1,
                        Err(MemError::AlreadyResident(_)) => result.eexist += 1,
                        Err(e) => return Err(e),
                    }
                }
                Ok(result)
            }
            Err(e) => Err(e),
        }
    }

    /// Monitor-side zero-copy bulk install: like
    /// [`copy_run`](Self::copy_run), but the run's frames become shared
    /// aliases of the refcounted `src` buffer (starting at page
    /// `src_page_offset`) instead of copies — the snapshot-frame-cache
    /// serve path. A fully-missing run is one alias install that moves
    /// `src` in; a run with resident holes aliases each missing stretch,
    /// one refcount apiece. Accounting is **arithmetically identical** to
    /// `copy_run`: every installed page counts one copy and every
    /// resident page one EEXIST.
    ///
    /// # Errors
    ///
    /// [`MemError::OutOfBounds`] if the run leaves the region; EEXIST is
    /// *not* an error here, it is reported in the returned counts.
    ///
    /// # Panics
    ///
    /// Panics if `src` does not cover a range it aliases.
    pub fn alias_run(
        &mut self,
        run: PageRun,
        src: FrameBytes,
        src_page_offset: u64,
    ) -> Result<RunInstall, MemError> {
        let holes = !run.is_empty()
            && self.mem.contains_run(run)
            && self.mem.next_missing_run(run.first, run) != Some(run);
        let mut installed = 0;
        if holes {
            let mut from = run.first;
            while let Some(gap) = self.mem.next_missing_run(from, run) {
                let at = src_page_offset + (gap.first.as_u64() - run.first.as_u64());
                self.mem.alias_run(gap, src.clone(), at)?;
                installed += gap.len;
                from = gap.end();
            }
        } else {
            // Wholly missing, empty, or out of bounds (which errs).
            self.mem.alias_run(run, src, src_page_offset)?;
            installed = run.len;
        }
        let result = RunInstall {
            installed,
            eexist: run.len - installed,
        };
        self.stats.copies += result.installed;
        self.stats.copy_eexist += result.eexist;
        Ok(result)
    }

    /// Monitor-side: wakes the faulting vCPU (`UFFDIO_WAKE`). The monitor
    /// may install any number of pages before waking (§5.2 — REAP installs
    /// the whole working set, then wakes once).
    pub fn wake(&mut self) {
        self.stats.wakes += 1;
    }

    /// Monitor-side, batched: accounts `pages` wake-ups at once — the
    /// run path's equivalent of one [`wake`](Self::wake) per served fault.
    pub fn wake_run(&mut self, pages: u64) {
        self.stats.wakes += pages;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::page::PAGE_SIZE;

    fn setup() -> Uffd {
        Uffd::register(GuestMemory::new(16 * 4096), 0x7f00_0000_0000)
    }

    #[test]
    fn fault_carries_host_vaddr() {
        let mut u = setup();
        let TouchOutcome::Faulted(ev) = u.touch_page(PageIdx::new(3)) else {
            panic!("expected fault");
        };
        assert_eq!(ev.host_vaddr, 0x7f00_0000_0000 + 3 * 4096);
        assert_eq!(u.page_of_fault(ev), PageIdx::new(3));
        assert_eq!(u.poll(), Some(ev), "exactly one fault queued");
        assert_eq!(u.poll(), None);
    }

    #[test]
    fn first_fault_injection_names_byte_zero() {
        let mut u = setup();
        let ev = u.inject_first_fault();
        assert_eq!(ev.host_vaddr, u.region_base());
        assert_eq!(u.page_of_fault(ev), PageIdx::new(0));
        assert_eq!(ev.seq, 0, "injected fault is the very first event");
    }

    #[test]
    fn copy_resolves_fault() {
        let mut u = setup();
        let TouchOutcome::Faulted(ev) = u.touch_page(PageIdx::new(1)) else {
            panic!()
        };
        let page = u.page_of_fault(ev);
        u.copy(page, &[9u8; PAGE_SIZE]).unwrap();
        u.wake();
        assert_eq!(u.touch_page(PageIdx::new(1)), TouchOutcome::Resident);
        let st = u.stats();
        assert_eq!(st.faults, 1);
        assert_eq!(st.copies, 1);
        assert_eq!(st.wakes, 1);
    }

    #[test]
    fn double_copy_is_eexist_and_counted() {
        let mut u = setup();
        u.copy(PageIdx::new(2), &[1u8; PAGE_SIZE]).unwrap();
        let err = u.copy(PageIdx::new(2), &[2u8; PAGE_SIZE]).unwrap_err();
        assert_eq!(err, MemError::AlreadyResident(PageIdx::new(2)));
        assert_eq!(u.stats().copy_eexist, 1);
        // Contents from the first copy survive.
        assert_eq!(u.memory().page_bytes(PageIdx::new(2)).unwrap()[0], 1);
    }

    #[test]
    fn faults_queue_in_order() {
        let mut u = setup();
        u.touch_page(PageIdx::new(5));
        u.touch_page(PageIdx::new(2));
        u.touch_page(PageIdx::new(9));
        let order: Vec<u64> = std::iter::from_fn(|| u.poll())
            .map(|ev| (ev.host_vaddr - 0x7f00_0000_0000) / 4096)
            .collect();
        assert_eq!(order, vec![5, 2, 9]);
    }

    #[test]
    fn resident_touch_raises_nothing() {
        let mut u = setup();
        u.copy(PageIdx::new(0), &[0u8; PAGE_SIZE]).unwrap();
        assert_eq!(u.touch_page(PageIdx::new(0)), TouchOutcome::Resident);
        assert_eq!(u.stats().faults, 0);
        assert_eq!(u.poll(), None);
    }

    #[test]
    fn run_path_counts_match_per_page_semantics() {
        // Serve pages 2..=5 via the batched path; stats must equal four
        // per-page fault/copy/wake round trips.
        let mut u = setup();
        let window = PageRun::new(PageIdx::new(2), 4);
        let run = u.next_missing_run(PageIdx::new(2), window).unwrap();
        assert_eq!(run, window, "fresh memory: whole window missing");
        let ev = u.raise_run(run);
        assert_eq!(ev.seq, 0);
        assert_eq!(u.page_of_fault(ev), PageIdx::new(2));
        let data = vec![7u8; run.byte_len() as usize];
        let install = u.copy_run(run, &data).unwrap();
        assert_eq!(install, RunInstall { installed: 4, eexist: 0 });
        u.wake_run(run.len);
        let st = u.stats();
        assert_eq!((st.faults, st.copies, st.wakes, st.copy_eexist), (4, 4, 4, 0));
        assert_eq!(u.poll(), None, "batched path queues nothing");
        // Sequence numbers advanced per page: the next fault is seq 4.
        let TouchOutcome::Faulted(next) = u.touch_page(PageIdx::new(9)) else {
            panic!("page 9 missing");
        };
        assert_eq!(next.seq, 4);
    }

    #[test]
    fn copy_run_with_resident_holes_counts_eexist() {
        let mut u = setup();
        u.copy(PageIdx::new(3), &[1u8; PAGE_SIZE]).unwrap();
        let run = PageRun::new(PageIdx::new(2), 3); // page 3 resident
        let data = vec![9u8; run.byte_len() as usize];
        let install = u.copy_run(run, &data).unwrap();
        assert_eq!(install, RunInstall { installed: 2, eexist: 1 });
        assert_eq!(u.stats().copies, 3);
        assert_eq!(u.stats().copy_eexist, 1);
        // The resident page kept its original contents.
        assert_eq!(u.memory().page_bytes(PageIdx::new(3)).unwrap()[0], 1);
        assert_eq!(u.memory().page_bytes(PageIdx::new(2)).unwrap()[0], 9);
    }

    #[test]
    fn alias_run_counts_exactly_like_copy_run() {
        // Two channels served the same shape — one by copy, one by alias —
        // must end with identical stats and identical bytes.
        let mut by_copy = setup();
        let mut by_alias = setup();
        // Page 3 resident in both, so the run has an EEXIST hole.
        by_copy.copy(PageIdx::new(3), &[0xEE; PAGE_SIZE]).unwrap();
        by_alias.copy(PageIdx::new(3), &[0xEE; PAGE_SIZE]).unwrap();
        let run = PageRun::new(PageIdx::new(2), 3);
        let data = vec![0x55u8; run.byte_len() as usize];
        let src: FrameBytes = std::sync::Arc::new(data.clone());
        let a = by_copy.copy_run(run, &data).unwrap();
        let b = by_alias.alias_run(run, src, 0).unwrap();
        assert_eq!(a, b);
        assert_eq!(a, RunInstall { installed: 2, eexist: 1 });
        assert_eq!(by_copy.stats(), by_alias.stats());
        for p in 2..5u64 {
            assert_eq!(
                by_copy.memory().page_bytes(PageIdx::new(p)),
                by_alias.memory().page_bytes(PageIdx::new(p)),
                "page {p}"
            );
        }
        // A fully-missing aliased run is zero-copy and counted as copies.
        let run2 = PageRun::new(PageIdx::new(8), 2);
        let src2: FrameBytes = std::sync::Arc::new(vec![1u8; run2.byte_len() as usize]);
        assert_eq!(
            by_alias.alias_run(run2, src2, 0).unwrap(),
            RunInstall { installed: 2, eexist: 0 }
        );
        assert_eq!(by_alias.memory().aliased_pages(), 4);
    }

    #[test]
    fn alias_run_out_of_bounds() {
        let mut u = setup();
        let run = PageRun::new(PageIdx::new(15), 4);
        let src: FrameBytes = std::sync::Arc::new(vec![0u8; run.byte_len() as usize]);
        assert!(matches!(
            u.alias_run(run, src, 0),
            Err(MemError::OutOfBounds(_))
        ));
        assert_eq!(u.stats().copies, 0);
    }

    #[test]
    fn copy_run_out_of_bounds() {
        let mut u = setup();
        let run = PageRun::new(PageIdx::new(15), 4);
        let data = vec![0u8; run.byte_len() as usize];
        assert!(matches!(
            u.copy_run(run, &data),
            Err(MemError::OutOfBounds(_))
        ));
    }
}
