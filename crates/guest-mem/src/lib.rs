#![warn(missing_docs)]
//! # guest-mem
//!
//! Guest physical memory with `userfaultfd`-style lazy paging.
//!
//! In the paper, a Firecracker VM restored from a snapshot maps its guest
//! memory file as an *anonymous* region registered with Linux
//! `userfaultfd` (§5.2): the first access to each page raises a fault that
//! a userspace **monitor** serves by `ioctl(UFFDIO_COPY)`-ing the page
//! contents in. This crate reproduces that machinery:
//!
//! * [`GuestMemory`] — a sparse array of 4 KB frames holding real bytes;
//!   non-resident accesses report which page is missing.
//! * [`Uffd`] — the fault channel: the VM side *touches* addresses, the
//!   monitor side *polls* fault events and *copies* pages in (with the same
//!   `EEXIST`-on-double-install semantics as the kernel API).
//! * [`checksum`] — page fingerprints used by the test suite to prove that
//!   REAP installs exactly the bytes the snapshot captured.

pub mod checksum;
pub mod memory;
pub mod page;
pub mod run;
pub mod uffd;

pub use checksum::fnv1a64;
pub use memory::{FrameBytes, GuestMemory, MemError, RunChunk};
pub use page::{GuestAddr, PageIdx, PAGE_SIZE};
pub use run::{push_coalesced, PageBitmap, PageRun};
pub use uffd::{FaultEvent, RunInstall, TouchOutcome, Uffd, UffdStats};
