//! # functionbench
//!
//! Behaviour models of the ten serverless functions the paper studies
//! (Table 1): nine Python functions adopted from the FunctionBench suite
//! plus `helloworld`.
//!
//! We cannot run CPython/TensorFlow inside a simulated guest, so each
//! function is modelled by the observable behaviour the paper's analysis
//! depends on:
//!
//! * a **boot/init phase** — pages touched while the guest boots, the
//!   runtime imports libraries, and the function initializes (Fig 4's
//!   148–256 MB booted footprints);
//! * an **invocation phase** — the pages touched while serving one request
//!   (Fig 4's 8–99 MB restored working sets) interleaved with compute
//!   segments summing to the function's warm latency (Fig 2);
//! * **input-dependent allocations** — fresh buffers sized by the request
//!   input, which produce the unique-page fractions of Fig 5 and REAP's
//!   mispredictions (§7.1);
//! * short touch runs (mean 2–3 pages, 5 for `lr_training`) reproducing
//!   the contiguity distribution of Fig 3.
//!
//! Dynamic allocations go through the guest's buddy allocator
//! ([`guest_os::BuddyAllocator`]), so working-set stability across
//! invocations *emerges* from snapshot-restored allocator state, exactly
//! as §4.4 argues.

pub mod behavior;
pub mod input;
pub mod spec;
pub mod workload;

pub use behavior::{FunctionProgram, GuestOp};
pub use input::{InputGenerator, InvocationInput};
pub use spec::{FunctionId, FunctionSpec, PaperTargets, INFRA_PAGES};
pub use workload::{InvocationEvent, WorkloadGenerator};
