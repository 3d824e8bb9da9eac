//! # microvm
//!
//! A Firecracker-style microVM simulator: boot, pause, snapshot, and
//! restore — the hypervisor substrate under the paper's entire evaluation.
//!
//! Snapshots follow Firecracker's two-file layout (§2.3): a small **VMM
//! state file** (device + vCPU state, loaded and deserialized first) and a
//! plain **guest memory file** that restoration maps for *lazy paging* —
//! no page content is loaded until first touch. The restored VM's guest
//! memory is registered with the simulated `userfaultfd`
//! ([`guest_mem::Uffd`]), and every first touch raises a fault some monitor
//! must serve; `vhive-core` provides the monitors (baseline lazy loading
//! and REAP).
//!
//! The functional layer is real: booted pages hold deterministic,
//! checksummable contents; snapshot files capture those exact bytes;
//! [`snapshot::verify_restored_cached`] proves restoration is lossless.

pub mod boot;
pub mod snapshot;
pub mod vcpu;
pub mod vm;
pub mod vmm;

pub use boot::BootCostModel;
pub use snapshot::{verify_restored_cached, verify_restored_tracked, RestoreError, Snapshot};
pub use vcpu::{run_lazy, run_resident, ExecutionTrace, FaultHandler, TimedOp};
pub use vm::{GuestShell, MicroVm, VmConfig};
pub use vmm::VmmState;
