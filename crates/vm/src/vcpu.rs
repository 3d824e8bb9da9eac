//! vCPU replay engine.
//!
//! Executes a function's [`GuestOp`] stream against guest memory and
//! produces the **timed op trace** the latency simulation replays:
//! compute segments, userfaultfd faults (restored VMs), and minor faults
//! (freshly booted VMs populating anonymous memory).
//!
//! Faults are handled *synchronously* by a [`FaultHandler`] — the monitor
//! role of §5.2 — because a single-vCPU guest halts until the missing page
//! is installed, which is exactly why serial page faults dominate cold
//! invocations (§4.2).
//!
//! The replay is run-length batched: a touch is itself a [`PageRun`], and
//! the consecutive missing pages inside it are found with one bitmap scan
//! and served as one run
//! (one fault record, one bulk install, one wake batch) instead of
//! thousands of per-page round trips — the optimization REAP itself makes
//! on the host (§5.2.2). The per-page *accounting* (fault, copy and wake
//! counters; per-page fault costs in the timed pass) is unchanged.

use functionbench::GuestOp;
use guest_mem::{FaultEvent, GuestMemory, MemError, PageRun, Uffd, PAGE_SIZE};
use sim_core::SimDuration;

/// One entry of the timed trace consumed by the latency simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TimedOp {
    /// Guest computes for this long.
    Compute(SimDuration),
    /// A run of consecutive userfaultfd faults was raised and served on
    /// the critical path (baseline lazy paging / REAP residual faults).
    /// The timed pass charges each page of the run individually.
    Fault {
        /// The faulted run of guest pages, in fault order.
        run: PageRun,
    },
    /// `pages` anonymous pages were populated by the guest kernel (minor
    /// faults; no disk involved).
    MinorFaults {
        /// Number of pages populated.
        pages: u64,
    },
}

/// Result of replaying an op stream.
#[derive(Debug, Clone, Default)]
pub struct ExecutionTrace {
    /// Timed ops in execution order.
    pub ops: Vec<TimedOp>,
    /// userfaultfd faults served on the critical path.
    pub uffd_faults: u64,
    /// Anonymous-memory minor faults.
    pub minor_faults: u64,
    /// Total guest compute in the stream.
    pub compute: SimDuration,
}

impl ExecutionTrace {
    /// The faulted runs, in fault order (the REAP *trace* of §5.1).
    pub fn faulted_runs(&self) -> Vec<PageRun> {
        self.ops
            .iter()
            .filter_map(|op| match op {
                TimedOp::Fault { run } => Some(*run),
                _ => None,
            })
            .collect()
    }
}

/// The monitor role: serves userfaultfd faults raised during lazy replay.
pub trait FaultHandler {
    /// Installs the faulted page into `uffd` (via [`Uffd::copy`]) and
    /// performs any bookkeeping (e.g. REAP's trace recording).
    ///
    /// # Errors
    ///
    /// Propagates [`MemError`] if installation fails; the replay aborts by
    /// panicking, as a real guest would wedge.
    fn handle_fault(&mut self, uffd: &mut Uffd, ev: FaultEvent) -> Result<(), MemError>;

    /// Installs a whole run of consecutively-faulted pages. `ev` is the
    /// event of the run's first page; per-page events follow at
    /// `host_vaddr + i * PAGE_SIZE`, `seq + i`.
    ///
    /// The default implementation loops [`handle_fault`](Self::handle_fault)
    /// per page; bulk monitors override it with one read + one install.
    ///
    /// # Errors
    ///
    /// Propagates [`MemError`] from the first failing install.
    fn handle_fault_run(
        &mut self,
        uffd: &mut Uffd,
        ev: FaultEvent,
        run: PageRun,
    ) -> Result<(), MemError> {
        for i in 0..run.len {
            let page_ev = FaultEvent {
                host_vaddr: ev.host_vaddr + i * PAGE_SIZE as u64,
                seq: ev.seq + i,
            };
            self.handle_fault(uffd, page_ev)?;
        }
        Ok(())
    }
}

/// Replays `ops` on a *memory-resident* VM (freshly booted or warm).
/// Missing pages are populated directly by the guest kernel with
/// deterministic contents derived from `content_label` — minor faults, no
/// host I/O. Each maximal missing run of a touch is one
/// [`GuestMemory::install_run_generated`]: the page-batched generator
/// writes its bytes once, straight into the frame arena.
pub fn run_resident(ops: &[GuestOp], memory: &mut GuestMemory, content_label: u64) -> ExecutionTrace {
    let mut trace = ExecutionTrace::default();
    for op in ops {
        match op {
            GuestOp::Compute(d) => {
                trace.ops.push(TimedOp::Compute(*d));
                trace.compute += *d;
            }
            &GuestOp::Touch(window) => {
                let mut installed = 0u64;
                let mut cursor = window.first;
                while let Some(missing) = memory.next_missing_run(cursor, window) {
                    memory
                        .install_run_generated(missing, content_label)
                        .expect("resident install cannot fail on a missing run");
                    installed += missing.len;
                    cursor = missing.end();
                }
                if installed > 0 {
                    trace.minor_faults += installed;
                    trace.ops.push(TimedOp::MinorFaults { pages: installed });
                }
            }
        }
    }
    trace
}

/// Replays `ops` on a *lazily restored* VM: every first touch raises a
/// userfaultfd fault that `handler` must serve before the vCPU continues.
/// Consecutive missing pages are served as one batched run.
///
/// # Panics
///
/// Panics if the handler fails to install a faulted page — the guest would
/// hang forever on real hardware.
pub fn run_lazy(ops: &[GuestOp], uffd: &mut Uffd, handler: &mut dyn FaultHandler) -> ExecutionTrace {
    let mut trace = ExecutionTrace::default();
    for op in ops {
        match op {
            GuestOp::Compute(d) => {
                trace.ops.push(TimedOp::Compute(*d));
                trace.compute += *d;
            }
            &GuestOp::Touch(window) => {
                let mut cursor = window.first;
                while let Some(missing) = uffd.next_missing_run(cursor, window) {
                    let ev = uffd.raise_run(missing);
                    handler
                        .handle_fault_run(uffd, ev, missing)
                        .unwrap_or_else(|e| panic!("monitor failed to serve {missing}: {e}"));
                    assert!(
                        uffd.memory().is_run_resident(missing),
                        "handler returned without installing {missing}"
                    );
                    uffd.wake_run(missing.len);
                    trace.uffd_faults += missing.len;
                    trace.ops.push(TimedOp::Fault { run: missing });
                    cursor = missing.end();
                }
            }
        }
    }
    trace
}

#[cfg(test)]
mod tests {
    use super::*;
    use guest_mem::PageIdx;

    struct ZeroFill;
    impl FaultHandler for ZeroFill {
        fn handle_fault(&mut self, uffd: &mut Uffd, ev: FaultEvent) -> Result<(), MemError> {
            let page = uffd.page_of_fault(ev);
            uffd.copy(page, &[0u8; PAGE_SIZE])
        }
    }

    fn ops() -> Vec<GuestOp> {
        vec![
            GuestOp::Touch(PageRun::new(PageIdx::new(0), 3)),
            GuestOp::Compute(SimDuration::from_millis(2)),
            GuestOp::Touch(PageRun::new(PageIdx::new(1), 3)), // overlaps pages 1,2
            GuestOp::Compute(SimDuration::from_millis(1)),
        ]
    }

    #[test]
    fn resident_replay_counts_minor_faults_once() {
        let mut mem = GuestMemory::new(16 * 4096);
        let trace = run_resident(&ops(), &mut mem, 99);
        assert_eq!(trace.minor_faults, 4, "pages 0..=3 populated once");
        assert_eq!(trace.uffd_faults, 0);
        assert_eq!(trace.compute, SimDuration::from_millis(3));
        assert_eq!(mem.resident_pages(), 4);
    }

    #[test]
    fn resident_contents_are_deterministic() {
        let mut m1 = GuestMemory::new(16 * 4096);
        let mut m2 = GuestMemory::new(16 * 4096);
        run_resident(&ops(), &mut m1, 7);
        run_resident(&ops(), &mut m2, 7);
        for p in 0..4 {
            assert_eq!(
                m1.page_checksum(PageIdx::new(p)),
                m2.page_checksum(PageIdx::new(p))
            );
        }
        let mut m3 = GuestMemory::new(16 * 4096);
        run_resident(&ops(), &mut m3, 8);
        assert_ne!(
            m1.page_checksum(PageIdx::new(0)),
            m3.page_checksum(PageIdx::new(0)),
            "different labels give different contents"
        );
    }

    #[test]
    fn lazy_replay_faults_once_per_page() {
        let mem = GuestMemory::new(16 * 4096);
        let mut uffd = Uffd::register(mem, 0x7000_0000_0000);
        let trace = run_lazy(&ops(), &mut uffd, &mut ZeroFill);
        assert_eq!(trace.uffd_faults, 4);
        assert_eq!(trace.minor_faults, 0);
        assert_eq!(uffd.stats().wakes, 4);
        // The two touches produced one coalesced run each: [0..3) and [3..4).
        assert_eq!(
            trace.faulted_runs(),
            vec![
                PageRun::new(PageIdx::new(0), 3),
                PageRun::new(PageIdx::new(3), 1)
            ]
        );
    }

    #[test]
    fn prefetched_pages_do_not_fault() {
        let mem = GuestMemory::new(16 * 4096);
        let mut uffd = Uffd::register(mem, 0);
        // Prefetch pages 0-2 as REAP would.
        for p in 0..3 {
            uffd.copy(PageIdx::new(p), &[1u8; 4096]).unwrap();
        }
        let trace = run_lazy(&ops(), &mut uffd, &mut ZeroFill);
        assert_eq!(trace.uffd_faults, 1, "only page 3 faults");
        assert_eq!(trace.faulted_runs(), vec![PageRun::single(PageIdx::new(3))]);
    }

    #[test]
    fn resident_holes_split_fault_runs() {
        let mem = GuestMemory::new(16 * 4096);
        let mut uffd = Uffd::register(mem, 0);
        // Page 2 resident: touching [0, 5) must fault [0,2) and [3,5).
        uffd.copy(PageIdx::new(2), &[1u8; 4096]).unwrap();
        let touch = vec![GuestOp::Touch(PageRun::new(PageIdx::new(0), 5))];
        let trace = run_lazy(&touch, &mut uffd, &mut ZeroFill);
        assert_eq!(trace.uffd_faults, 4);
        assert_eq!(
            trace.faulted_runs(),
            vec![
                PageRun::new(PageIdx::new(0), 2),
                PageRun::new(PageIdx::new(3), 2)
            ]
        );
    }

    #[test]
    fn trace_ops_preserve_order() {
        let mut mem = GuestMemory::new(16 * 4096);
        let trace = run_resident(&ops(), &mut mem, 1);
        // MinorFaults, Compute, MinorFaults(1 page), Compute.
        assert!(matches!(trace.ops[0], TimedOp::MinorFaults { pages: 3 }));
        assert!(matches!(trace.ops[1], TimedOp::Compute(_)));
        assert!(matches!(trace.ops[2], TimedOp::MinorFaults { pages: 1 }));
        assert!(matches!(trace.ops[3], TimedOp::Compute(_)));
    }

    #[test]
    fn default_run_handler_synthesizes_per_page_events() {
        // A handler that only implements the per-page hook still works
        // under the batched replay, seeing one event per page.
        struct Recorder(Vec<(u64, u64)>);
        impl FaultHandler for Recorder {
            fn handle_fault(&mut self, uffd: &mut Uffd, ev: FaultEvent) -> Result<(), MemError> {
                self.0.push((ev.host_vaddr, ev.seq));
                uffd.copy(uffd.page_of_fault(ev), &[0u8; PAGE_SIZE])
            }
        }
        let mem = GuestMemory::new(16 * 4096);
        let mut uffd = Uffd::register(mem, 0x1000_0000);
        let mut rec = Recorder(Vec::new());
        let touch = vec![GuestOp::Touch(PageRun::new(PageIdx::new(4), 3))];
        run_lazy(&touch, &mut uffd, &mut rec);
        assert_eq!(
            rec.0,
            vec![
                (0x1000_0000 + 4 * 4096, 0),
                (0x1000_0000 + 5 * 4096, 1),
                (0x1000_0000 + 6 * 4096, 2)
            ]
        );
    }
}
