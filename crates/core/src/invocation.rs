//! Timed invocation programs: what happens on the host, in order, for one
//! function invocation under each restore policy.
//!
//! The functional pass (monitor + vCPU replay) produces execution traces;
//! this module compiles them — together with the policy's restore prelude
//! — into a flat list of [`TimedStep`]s that the [`crate::Timeline`]
//! replays against shared disk/CPU resources. Phase markers reproduce the
//! paper's latency breakdown (Fig 2: Load VMM / Connection restoration /
//! Function processing; Fig 7 additionally splits fetch/install).

use guest_mem::PAGE_SIZE;
use microvm::{ExecutionTrace, TimedOp};
use serde::{Deserialize, Serialize};
use sim_core::{SimDuration, SimTime};
use sim_storage::FileId;

use crate::costs::HostCostModel;
use crate::ws_file::ReapFiles;

/// The four cold-start designs of Fig 7 (§6.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ColdPolicy {
    /// Baseline Firecracker snapshots: serial lazy paging.
    Vanilla,
    /// Trace-guided parallel page fetches (16 concurrent in the paper).
    ParallelPF,
    /// Single *buffered* read of the WS file, then eager install.
    WsFileCached,
    /// REAP: single `O_DIRECT` WS-file read, then eager install.
    Reap,
}

impl ColdPolicy {
    /// All policies in Fig 7 order.
    pub const ALL: [ColdPolicy; 4] = [
        ColdPolicy::Vanilla,
        ColdPolicy::ParallelPF,
        ColdPolicy::WsFileCached,
        ColdPolicy::Reap,
    ];

    /// Label as used in Fig 7.
    pub fn name(self) -> &'static str {
        match self {
            ColdPolicy::Vanilla => "vanilla",
            ColdPolicy::ParallelPF => "parallel-pfs",
            ColdPolicy::WsFileCached => "ws-file",
            ColdPolicy::Reap => "reap",
        }
    }

    /// True if this policy prefetches a recorded working set.
    pub fn uses_ws(self) -> bool {
        !matches!(self, ColdPolicy::Vanilla)
    }
}

impl std::fmt::Display for ColdPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Latency-breakdown phases.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Phase {
    /// Spawning Firecracker + loading/deserializing VMM & device state.
    LoadVmm,
    /// Reading the trace + WS files from disk (prefetch policies).
    FetchWs,
    /// Eagerly installing working-set pages (prefetch policies).
    InstallWs,
    /// Re-establishing the persistent gRPC connection.
    ConnRestore,
    /// Actual function processing.
    Processing,
    /// Record-mode epilogue: building + writing the trace/WS files.
    RecordFinish,
}

/// Per-phase latency breakdown of one invocation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct Breakdown {
    /// Load VMM (Fig 2's first component).
    pub load_vmm: SimDuration,
    /// WS fetch (Fig 7).
    pub fetch_ws: SimDuration,
    /// WS install (Fig 7).
    pub install_ws: SimDuration,
    /// Connection restoration (Fig 2's second component).
    pub conn_restore: SimDuration,
    /// Function processing (Fig 2's third component).
    pub processing: SimDuration,
    /// Record epilogue (§6.4 overhead).
    pub record_finish: SimDuration,
}

impl Breakdown {
    /// Accumulates `dur` into the slot for `phase`.
    pub fn add(&mut self, phase: Phase, dur: SimDuration) {
        let slot = match phase {
            Phase::LoadVmm => &mut self.load_vmm,
            Phase::FetchWs => &mut self.fetch_ws,
            Phase::InstallWs => &mut self.install_ws,
            Phase::ConnRestore => &mut self.conn_restore,
            Phase::Processing => &mut self.processing,
            Phase::RecordFinish => &mut self.record_finish,
        };
        *slot += dur;
    }

    /// End-to-end latency.
    pub fn total(&self) -> SimDuration {
        self.load_vmm
            + self.fetch_ws
            + self.install_ws
            + self.conn_restore
            + self.processing
            + self.record_finish
    }
}

/// File handles + sizes the timed pass needs (may be shadow ids in
/// concurrency experiments — the storage model keys its cache on ids and
/// never dereferences contents).
#[derive(Debug, Clone, Copy)]
pub struct InstanceFiles {
    /// VMM state file.
    pub vmm_file: FileId,
    /// VMM state file length in bytes.
    pub vmm_bytes: u64,
    /// Guest memory file.
    pub mem_file: FileId,
    /// Guest memory size in pages (readahead bound).
    pub mem_pages: u64,
}

/// One step of host activity.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TimedStep {
    /// Enter a breakdown phase.
    Phase(Phase),
    /// Occupy a core for the duration.
    Cpu(SimDuration),
    /// Buffered single-page fault read (baseline lazy paging path).
    FaultRead {
        /// File to read from.
        file: FileId,
        /// Page index within the file.
        page: u64,
        /// File length in pages (bounds readahead).
        file_pages: u64,
    },
    /// `O_DIRECT` read.
    DirectRead {
        /// File to read from.
        file: FileId,
        /// Byte offset.
        offset: u64,
        /// Length in bytes.
        len: u64,
        /// Sequential continuation (HDD seek elision).
        sequential: bool,
    },
    /// Buffered (page-cache) read.
    BufferedRead {
        /// File to read from.
        file: FileId,
        /// Byte offset.
        offset: u64,
        /// Length in bytes.
        len: u64,
    },
    /// Write-back write.
    Write {
        /// File to write.
        file: FileId,
        /// Byte offset.
        offset: u64,
        /// Length in bytes.
        len: u64,
    },
    /// The Parallel-PFs fetch engine: `pages` 4 KB `O_DIRECT` reads with
    /// bounded concurrency, installs serialized at `per_item_cpu` each.
    ParallelPageReads {
        /// File to read from.
        file: FileId,
        /// Page indices to fetch.
        pages: Vec<u64>,
        /// Maximum reads in flight (16 in §6.2).
        concurrency: usize,
        /// Serialized per-page install cost.
        per_item_cpu: SimDuration,
    },
}

/// A complete timed program for one instance.
#[derive(Debug, Clone)]
pub struct InstanceProgram {
    /// Arrival time of the invocation.
    pub arrival: SimTime,
    /// Steps in order.
    pub steps: Vec<TimedStep>,
}

/// Everything needed to compile a cold invocation into a timed program.
#[derive(Debug)]
pub struct ColdRunSpec<'a> {
    /// Restore policy.
    pub policy: ColdPolicy,
    /// True if this run records the working set (§5.2.1).
    pub record: bool,
    /// Host cost model.
    pub costs: &'a HostCostModel,
    /// Snapshot file handles.
    pub files: InstanceFiles,
    /// REAP artifacts (required unless `policy == Vanilla`).
    pub reap: Option<ReapFiles>,
    /// Execution trace of the connection-restoration phase.
    pub conn_trace: &'a ExecutionTrace,
    /// Execution trace of the processing phase.
    pub proc_trace: &'a ExecutionTrace,
    /// Page indices for the Parallel-PFs fan-out (from the trace file);
    /// ignored by other policies.
    pub pf_pages: Vec<u64>,
    /// Arrival time.
    pub arrival: SimTime,
}

fn push_trace(steps: &mut Vec<TimedStep>, trace: &ExecutionTrace, costs: &HostCostModel, files: &InstanceFiles, recording: bool) {
    for op in &trace.ops {
        match op {
            TimedOp::Compute(d) => steps.push(TimedStep::Cpu(*d)),
            TimedOp::MinorFaults { pages } => {
                steps.push(TimedStep::Cpu(costs.minor_fault * *pages));
            }
            TimedOp::Fault { run } => {
                // The functional pass batches consecutive faults into one
                // run; the *timed* baseline still pays per page — on real
                // hardware each page of the run is a separate serial
                // userfaultfd round trip (§4.2).
                steps.reserve(2 * run.len as usize);
                for page in run.iter() {
                    steps.push(TimedStep::Cpu(costs.fault_cost(recording)));
                    steps.push(TimedStep::FaultRead {
                        file: files.mem_file,
                        page: page.as_u64(),
                        file_pages: files.mem_pages,
                    });
                }
            }
        }
    }
}

/// Compiles a cold invocation into its timed program.
///
/// # Panics
///
/// Panics if a prefetch policy is requested without REAP files.
pub fn build_cold_program(spec: &ColdRunSpec<'_>) -> InstanceProgram {
    let costs = spec.costs;
    let files = &spec.files;
    // Phase 1: spawn Firecracker, read + deserialize VMM state (§2.3).
    let mut steps = vec![
        TimedStep::Phase(Phase::LoadVmm),
        TimedStep::Cpu(costs.process_spawn),
        TimedStep::BufferedRead {
            file: files.vmm_file,
            offset: 0,
            len: files.vmm_bytes,
        },
        TimedStep::Cpu(costs.load_vmm_fixed),
    ];

    // Phase 2: policy prelude.
    match spec.policy {
        ColdPolicy::Vanilla => {}
        ColdPolicy::ParallelPF => {
            let reap = spec.reap.expect("ParallelPF needs a recorded trace");
            steps.push(TimedStep::Phase(Phase::FetchWs));
            // Read the trace file, then fan out 4 KB fetches from the
            // *guest memory file* (this design point has no WS file).
            steps.push(TimedStep::BufferedRead {
                file: reap.trace_file,
                offset: 0,
                len: reap.trace_bytes(),
            });
            steps.push(TimedStep::ParallelPageReads {
                file: files.mem_file,
                pages: spec.pf_pages.clone(),
                concurrency: 16,
                per_item_cpu: costs.install_serial_per_page,
            });
        }
        ColdPolicy::WsFileCached | ColdPolicy::Reap => {
            let reap = spec.reap.expect("prefetch policies need a WS file");
            steps.push(TimedStep::Phase(Phase::FetchWs));
            steps.push(TimedStep::BufferedRead {
                file: reap.trace_file,
                offset: 0,
                len: reap.trace_bytes(),
            });
            if spec.policy == ColdPolicy::Reap {
                // §5.2.3: one big O_DIRECT read, bypassing the page cache.
                steps.push(TimedStep::DirectRead {
                    file: reap.ws_file,
                    offset: 0,
                    len: reap.ws_bytes(),
                    sequential: true,
                });
            } else {
                steps.push(TimedStep::BufferedRead {
                    file: reap.ws_file,
                    offset: 0,
                    len: reap.ws_bytes(),
                });
            }
            steps.push(TimedStep::Phase(Phase::InstallWs));
            steps.push(TimedStep::Cpu(costs.install_batch_per_page * reap.pages));
        }
    }

    // Phase 3: connection restoration = gRPC handshake + whatever
    // infrastructure pages still fault (§4.2; ~zero after prefetch).
    steps.push(TimedStep::Phase(Phase::ConnRestore));
    steps.push(TimedStep::Cpu(costs.grpc_handshake));
    push_trace(&mut steps, spec.conn_trace, costs, files, spec.record);

    // Phase 4: function processing.
    steps.push(TimedStep::Phase(Phase::Processing));
    push_trace(&mut steps, spec.proc_trace, costs, files, spec.record);

    // Phase 5 (record only): build + persist the trace/WS files (§5.2.1).
    if spec.record {
        let recorded = spec.conn_trace.uffd_faults + spec.proc_trace.uffd_faults;
        steps.push(TimedStep::Phase(Phase::RecordFinish));
        steps.push(TimedStep::Cpu(costs.ws_build_per_page * recorded));
        if let Some(reap) = spec.reap {
            steps.push(TimedStep::Write {
                file: reap.ws_file,
                offset: 0,
                len: reap.ws_bytes(),
            });
            steps.push(TimedStep::Write {
                file: reap.trace_file,
                offset: 0,
                len: reap.trace_bytes(),
            });
        } else {
            // File ids unknown yet (created after the functional pass):
            // approximate with CPU-side cost only; the orchestrator always
            // passes ids in practice.
            let bytes = recorded * (PAGE_SIZE as u64 + 8) + 32;
            steps.push(TimedStep::Cpu(SimDuration::from_secs_f64(
                bytes as f64 / 520e6,
            )));
        }
    }

    InstanceProgram {
        arrival: spec.arrival,
        steps,
    }
}

/// Compiles a warm invocation (memory-resident instance): processing only.
pub fn build_warm_program(costs: &HostCostModel, proc_trace: &ExecutionTrace, arrival: SimTime) -> InstanceProgram {
    let mut steps = vec![TimedStep::Phase(Phase::Processing)];
    for op in &proc_trace.ops {
        match op {
            TimedOp::Compute(d) => steps.push(TimedStep::Cpu(*d)),
            TimedOp::MinorFaults { pages } => {
                steps.push(TimedStep::Cpu(costs.minor_fault * *pages));
            }
            TimedOp::Fault { .. } => {
                unreachable!("warm instances never take uffd faults")
            }
        }
    }
    InstanceProgram { arrival, steps }
}

#[cfg(test)]
mod tests {
    use super::*;
    use guest_mem::{PageIdx, PageRun};
    use sim_storage::FileStore;

    fn fixture() -> (InstanceFiles, ExecutionTrace, ExecutionTrace, ReapFiles) {
        let fs = FileStore::new();
        let vmm = fs.create("vmm");
        let mem = fs.create("mem");
        let trace_f = fs.create("trace");
        let ws_f = fs.create("ws");
        let files = InstanceFiles {
            vmm_file: vmm,
            vmm_bytes: 256 * 1024,
            mem_file: mem,
            mem_pages: 65536,
        };
        let conn = ExecutionTrace {
            ops: vec![
                TimedOp::Fault {
                    run: PageRun::single(PageIdx::new(1)),
                },
                TimedOp::Compute(SimDuration::from_micros(100)),
            ],
            uffd_faults: 1,
            minor_faults: 0,
            compute: SimDuration::from_micros(100),
        };
        let proc = ExecutionTrace {
            ops: vec![
                TimedOp::Fault {
                    run: PageRun::single(PageIdx::new(2)),
                },
                TimedOp::MinorFaults { pages: 3 },
                TimedOp::Compute(SimDuration::from_millis(1)),
            ],
            uffd_faults: 1,
            minor_faults: 3,
            compute: SimDuration::from_millis(1),
        };
        let reap = ReapFiles {
            trace_file: trace_f,
            ws_file: ws_f,
            pages: 2,
            extents: 1,
        };
        (files, conn, proc, reap)
    }

    fn spec_for(policy: ColdPolicy, record: bool) -> (ColdRunSpec<'static>, &'static HostCostModel) {
        // Leak fixtures for test brevity: static lifetimes keep the
        // builder signature honest without cloning machinery.
        let (files, conn, proc, reap) = fixture();
        let costs: &'static HostCostModel = Box::leak(Box::new(HostCostModel::default()));
        let conn: &'static ExecutionTrace = Box::leak(Box::new(conn));
        let proc: &'static ExecutionTrace = Box::leak(Box::new(proc));
        (
            ColdRunSpec {
                policy,
                record,
                costs,
                files,
                reap: Some(reap),
                conn_trace: conn,
                proc_trace: proc,
                pf_pages: vec![1, 2],
                arrival: SimTime::ZERO,
            },
            costs,
        )
    }

    #[test]
    fn vanilla_program_has_no_prefetch_phases() {
        let (spec, _) = spec_for(ColdPolicy::Vanilla, false);
        let prog = build_cold_program(&spec);
        assert!(!prog
            .steps
            .iter()
            .any(|s| matches!(s, TimedStep::Phase(Phase::FetchWs | Phase::InstallWs))));
        // Faults appear as Cpu + FaultRead pairs.
        let fault_reads = prog
            .steps
            .iter()
            .filter(|s| matches!(s, TimedStep::FaultRead { .. }))
            .count();
        assert_eq!(fault_reads, 2);
    }

    #[test]
    fn reap_program_reads_ws_direct() {
        let (spec, _) = spec_for(ColdPolicy::Reap, false);
        let prog = build_cold_program(&spec);
        assert!(prog
            .steps
            .iter()
            .any(|s| matches!(s, TimedStep::DirectRead { sequential: true, .. })));
        assert!(prog
            .steps
            .iter()
            .any(|s| matches!(s, TimedStep::Phase(Phase::InstallWs))));
    }

    #[test]
    fn ws_file_policy_reads_buffered() {
        let (spec, _) = spec_for(ColdPolicy::WsFileCached, false);
        let prog = build_cold_program(&spec);
        let has_big_buffered = prog.steps.iter().any(|s| {
            matches!(s, TimedStep::BufferedRead { len, .. } if *len > 4096)
        });
        assert!(has_big_buffered);
        assert!(!prog
            .steps
            .iter()
            .any(|s| matches!(s, TimedStep::DirectRead { .. })));
    }

    #[test]
    fn parallel_pf_program_has_fanout_step() {
        let (spec, _) = spec_for(ColdPolicy::ParallelPF, false);
        let prog = build_cold_program(&spec);
        assert!(prog.steps.iter().any(|s| matches!(
            s,
            TimedStep::ParallelPageReads { concurrency: 16, .. }
        )));
    }

    #[test]
    fn record_adds_epilogue_and_per_fault_surcharge() {
        let (spec, costs) = spec_for(ColdPolicy::Vanilla, true);
        let prog = build_cold_program(&spec);
        assert!(prog
            .steps
            .iter()
            .any(|s| matches!(s, TimedStep::Phase(Phase::RecordFinish))));
        assert!(prog
            .steps
            .iter()
            .any(|s| matches!(s, TimedStep::Write { .. })));
        // The per-fault CPU cost includes the record surcharge.
        let has_record_cost = prog
            .steps
            .iter()
            .any(|s| matches!(s, TimedStep::Cpu(d) if *d == costs.fault_cost(true)));
        assert!(has_record_cost);
    }

    #[test]
    fn warm_program_is_processing_only() {
        let costs = HostCostModel::default();
        let proc = ExecutionTrace {
            ops: vec![
                TimedOp::MinorFaults { pages: 10 },
                TimedOp::Compute(SimDuration::from_millis(5)),
            ],
            uffd_faults: 0,
            minor_faults: 10,
            compute: SimDuration::from_millis(5),
        };
        let prog = build_warm_program(&costs, &proc, SimTime::ZERO);
        assert!(matches!(prog.steps[0], TimedStep::Phase(Phase::Processing)));
        assert_eq!(prog.steps.len(), 3);
    }

    #[test]
    fn breakdown_accumulates_and_totals() {
        let mut b = Breakdown::default();
        b.add(Phase::LoadVmm, SimDuration::from_millis(30));
        b.add(Phase::ConnRestore, SimDuration::from_millis(10));
        b.add(Phase::ConnRestore, SimDuration::from_millis(5));
        b.add(Phase::Processing, SimDuration::from_millis(100));
        assert_eq!(b.conn_restore, SimDuration::from_millis(15));
        assert_eq!(b.total(), SimDuration::from_millis(145));
    }

    #[test]
    fn policy_names_and_flags() {
        assert_eq!(ColdPolicy::Vanilla.name(), "vanilla");
        assert_eq!(ColdPolicy::Reap.to_string(), "reap");
        assert!(!ColdPolicy::Vanilla.uses_ws());
        assert!(ColdPolicy::ParallelPF.uses_ws());
        assert_eq!(ColdPolicy::ALL.len(), 4);
    }

    #[test]
    #[should_panic(expected = "need a WS file")]
    fn prefetch_without_files_panics() {
        let (mut spec, _) = spec_for(ColdPolicy::Reap, false);
        spec.reap = None;
        let _ = build_cold_program(&spec);
    }
}
