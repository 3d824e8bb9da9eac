//! # guest-os
//!
//! A minimal guest-OS model: the pieces of Linux whose behaviour the
//! paper's analysis depends on.
//!
//! §4.4 of the paper explains *why* serverless working sets are stable
//! across invocations: "even when a function's code performs a dynamic
//! allocation, the guest OS buddy allocator is likely to make the same or
//! similar allocation decisions. These decisions are based on the state of
//! its internal structures … which is the same across invocations being
//! loaded from the same VM snapshot." We therefore implement a real
//! [`BuddyAllocator`]: restoring a snapshot restores its free lists, so a
//! deterministic function re-runs the same allocation sequence and lands on
//! the same guest-physical pages — working-set stability is *emergent*, not
//! hard-coded.
//!
//! The crate also provides:
//!
//! * [`AddressSpace`] — the guest-physical layout (kernel text/data,
//!   network stack, in-VM Containerd agents, language runtime, function
//!   code, and a buddy-managed heap);
//! * [`GuestKernel`] — boot-time and per-RPC touch plans (the ~8 MB
//!   "infrastructure" set §4.4 attributes to gRPC + the guest network
//!   stack, which REAP prefetching shrinks connection restoration by 45×).

pub mod buddy;
pub mod kernel;
pub mod layout;

pub use buddy::{BuddyAllocator, BuddyError};
pub use kernel::GuestKernel;
pub use layout::{AddressSpace, LayoutSpec, RegionDesc, RegionKind};
