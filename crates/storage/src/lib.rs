#![warn(missing_docs)]
//! # sim-storage
//!
//! Storage substrate for the vHive/REAP reproduction: an in-memory file
//! store holding *real bytes* (snapshot guest-memory files, VMM state files,
//! REAP working-set and trace files) plus calibrated timing models for the
//! devices the paper evaluates.
//!
//! ## Device model
//!
//! The paper's SSD (§5.2.3) delivers:
//!
//! * 32 MB/s for a single outstanding 4 KB read (≈125 µs end-to-end),
//! * 360 MB/s with 16 outstanding 4 KB reads (internal parallelism),
//! * 850 MB/s peak for large sequential reads.
//!
//! We reproduce all three with a **tandem queue**: a per-request *latency
//! stage* with `k` parallel channels (amortizes the fixed cost under
//! concurrency) followed by a shared single-server *bus/flash stage* that
//! moves bytes at the device's peak bandwidth. A 4 KB read at queue depth 1
//! pays 120 µs + 4.8 µs ≈ 125 µs; sixteen concurrent 4 KB reads overlap in
//! the 11 channels (≈ 375 MB/s); an 8 MB `O_DIRECT` read is bus-bound at
//! ≈ 840 MB/s.
//!
//! ## Host page cache
//!
//! Buffered reads go through [`PageCache`] with Linux-style readahead: a
//! miss drags a readahead *cluster* (default 32 pages = 128 KB) across the
//! bus even though the faulting guest only needs ~2–3 contiguous pages
//! (Fig 3). This waste is exactly why the paper's baseline extracts only
//! ~43 MB/s of *useful* bandwidth at QD 1 and saturates near ~81 MB/s with
//! 64 concurrent instances (Fig 9), and why REAP's single `O_DIRECT`
//! working-set read wins.

pub mod device;
pub mod disk;
pub mod fault;
pub mod file_store;
pub mod fio;
pub mod frame_cache;
pub mod page_cache;

pub use device::{DeviceProfile, DiskKind};
pub use disk::{Access, Disk, DiskStats, ReadOutcome};
pub use fault::{
    FaultClass, FaultInjector, FaultKind, FaultPlan, FaultRule, FaultScope, InjectorStats,
    StorageError,
};
pub use file_store::{FileId, FileStore};
pub use frame_cache::{
    FrameCacheDelta, FrameCacheGone, FrameCacheStats, FrameLookup, SnapshotFrameCache,
};
pub use page_cache::PageCache;

/// Page size used throughout the reproduction (x86-64 base pages).
pub const PAGE_SIZE: u64 = 4096;
