//! # vhive-core
//!
//! The paper's primary contribution: the **vHive-CRI orchestrator** and
//! **REAP** (Record-and-Prefetch), a userspace mechanism that slashes
//! serverless cold-start latency by prefetching a function's recorded
//! guest-memory working set (Ustiugov et al., ASPLOS 2021).
//!
//! ## How an invocation flows
//!
//! The [`Orchestrator`] plays the role of §4.1's augmented vHive-CRI
//! service: control plane (function registry, snapshot + working-set file
//! bookkeeping, instance lifecycle) *and* data-plane router holding a
//! persistent gRPC connection to every function instance. A cold
//! invocation runs in two coupled passes:
//!
//! 1. a **functional pass** — real bytes move: the VM shell is rebuilt
//!    from the snapshot, its guest memory registered with the simulated
//!    `userfaultfd`, and a per-instance [`Monitor`] serves every fault
//!    from the snapshot's guest-memory file (recording a trace, or
//!    prefetching a working-set file, depending on mode). Every run is
//!    verified page-for-page against the snapshot;
//! 2. a **timed pass** — the execution trace is replayed through the
//!    [`Timeline`] discrete-event simulator against a calibrated disk and
//!    CPU pool, yielding the latency breakdown of Fig 2/7/8 (Load VMM /
//!    fetch / install / connection restoration / function processing).
//!
//! ## Restore policies
//!
//! [`ColdPolicy`] covers the four design points of Fig 7: `Vanilla`
//! Firecracker snapshots (serial lazy paging), `ParallelPF` (trace-guided
//! parallel page fetches), `WsFileCached` (single buffered working-set
//! read), and `Reap` (the full design: one `O_DIRECT` read + eager
//! install).
//!
//! ## Example
//!
//! ```
//! use functionbench::FunctionId;
//! use vhive_core::{ColdPolicy, Orchestrator};
//!
//! let mut orch = Orchestrator::new(42);
//! orch.register(FunctionId::helloworld);
//! // First cold invocation records the working set...
//! let record = orch.invoke_record(FunctionId::helloworld);
//! // ...and every later cold invocation prefetches it.
//! let reap = orch.invoke_cold(FunctionId::helloworld, ColdPolicy::Reap);
//! let vanilla = orch.invoke_cold(FunctionId::helloworld, ColdPolicy::Vanilla);
//! assert!(reap.latency < vanilla.latency);
//! assert!(record.verified_pages > 0);
//! ```

pub mod costs;
pub mod detect;
pub mod invocation;
pub mod monitor;
pub mod orchestrator;
pub mod overload;
pub mod policy;
pub mod recovery;
pub mod report;
pub mod router;
pub mod timeline;
pub mod ws_file;

pub use costs::HostCostModel;
pub use detect::{contiguity, working_set_overlap, ContiguityStats, MispredictionReport, OverlapStats};
pub use invocation::{Breakdown, ColdPolicy, InstanceFiles, InstanceProgram, Phase, TimedStep};
pub use monitor::{Monitor, MonitorMode, MonitorStats, PrefetchError};
pub use orchestrator::{InvocationOutcome, Orchestrator, PreparedCold, RegisterInfo};
pub use overload::{ColdAbort, ColdRequest, DeadlineExpired, Disposition, ShedReason};
pub use policy::{FunctionCosts, KeepWarmPolicy};
pub use recovery::{AttemptError, RebuildMeta, RecoveryReport, ShardUnavailable};
pub use router::{route_workload, RouterConfig, RouterReport};
pub use timeline::{InstanceResult, Timeline};
pub use ws_file::{
    read_trace_runs, read_ws_layout, write_reap_files_runs, ReapFiles, WsError, WsLayout,
};
