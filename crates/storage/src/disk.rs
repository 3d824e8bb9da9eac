//! The timed I/O front end: device + host page cache + readahead.
//!
//! A [`Disk`] answers "when is this read ready?" for the three I/O paths the
//! paper exercises:
//!
//! * [`Disk::fault_read_page`] — the baseline snapshot path: a lazy guest
//!   page fault turns into a *buffered* single-page read. On a cache miss
//!   the host issues a readahead **cluster** (default 128 KB); only the
//!   faulting page is waited for, the rest streams in asynchronously but
//!   still occupies device bandwidth — the waste that caps the baseline's
//!   useful throughput (§4.2, Fig 9).
//! * [`Disk::read_buffered`] — a synchronous buffered read (the "WS file"
//!   design point of Fig 7 that reads through the page cache at
//!   ≈275 MB/s).
//! * [`Disk::read_direct`] — an `O_DIRECT` read that bypasses the page
//!   cache (REAP's working-set fetch, ≈533–850 MB/s, §5.2.3).
//!
//! All methods must be called in non-decreasing `now` order, which the
//! event loop in `vhive-core` guarantees.

use sim_core::{MultiServer, SimDuration, SimTime};

use crate::device::DeviceProfile;
use crate::file_store::FileId;
use crate::page_cache::PageCache;
use crate::PAGE_SIZE;

/// Whether a request continues the previous one on the platter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Access {
    /// Unrelated position: pays seek/flash-lookup latency.
    Random,
    /// Continues the previous request: HDDs skip the seek.
    Sequential,
}

/// Result of a timed read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReadOutcome {
    /// Instant the requested bytes are available to the caller.
    pub ready: SimTime,
    /// True if the request was served entirely from the page cache.
    pub cache_hit: bool,
    /// Bytes actually moved from the device (includes readahead waste).
    pub device_bytes: u64,
}

/// Cumulative disk counters used by the figure harnesses.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DiskStats {
    /// Bytes moved from the device by reads (incl. readahead waste).
    pub device_bytes_read: u64,
    /// Bytes moved to the device by writes.
    pub device_bytes_written: u64,
    /// Bytes the callers actually asked for.
    pub useful_bytes_read: u64,
    /// Read requests issued to the device (cache hits excluded).
    pub device_reads: u64,
    /// Reads served fully from the page cache.
    pub cache_hits: u64,
}

/// A storage device with a host page cache in front of it.
#[derive(Debug, Clone)]
pub struct Disk {
    profile: DeviceProfile,
    latency_stage: MultiServer,
    bus: MultiServer,
    cache: PageCache,
    readahead_pages: u64,
    /// Per-page CPU cost of the buffered read path (page-cache allocation +
    /// copy-to-user); calibrated so a buffered 8 MB read lands at the
    /// paper's ≈275 MB/s.
    page_path_cost: SimDuration,
    /// Cost of reading one already-cached page (copy only).
    hit_cost: SimDuration,
    /// Fixed syscall/setup cost of an `O_DIRECT` read.
    direct_setup_cost: SimDuration,
    stats: DiskStats,
}

impl Disk {
    /// Creates a disk from a device profile with a host-default page cache
    /// and a device-appropriate readahead window.
    pub fn new(profile: DeviceProfile) -> Self {
        Disk {
            latency_stage: MultiServer::new("disk-latency", profile.channels),
            bus: MultiServer::new("disk-bus", 1),
            cache: PageCache::host_default(),
            readahead_pages: Self::readahead_for(profile.kind),
            page_path_cost: SimDuration::from_nanos(9_200),
            hit_cost: SimDuration::from_micros(2),
            direct_setup_cost: SimDuration::from_micros(5),
            profile,
            stats: DiskStats::default(),
        }
    }

    /// The paper's default platform disk (local SATA3 SSD).
    pub fn ssd() -> Self {
        Disk::new(DeviceProfile::ssd_sata3())
    }

    /// The §6.3 HDD platform.
    pub fn hdd() -> Self {
        Disk::new(DeviceProfile::hdd_7200rpm())
    }

    /// Creates a disk with the device-appropriate readahead window.
    fn readahead_for(kind: crate::device::DiskKind) -> u64 {
        match kind {
            // 128 KB, the Linux default.
            crate::device::DiskKind::Ssd | crate::device::DiskKind::Remote => 32,
            // Rotational media amortize the seek over much larger
            // transfers (readahead ramp-up + I/O scheduler merging):
            // effectively ~1 MB per miss. Without this, serial lazy
            // paging on an HDD would cost a full seek per 128 KB and the
            // baseline would be ~5x slower than the paper measured.
            crate::device::DiskKind::Hdd => 256,
        }
    }

    /// Device profile in use.
    pub fn profile(&self) -> &DeviceProfile {
        &self.profile
    }

    /// Overrides the readahead window (in pages). `0` disables readahead.
    pub fn set_readahead_pages(&mut self, pages: u64) {
        self.readahead_pages = pages;
    }

    /// Current readahead window in pages.
    pub fn readahead_pages(&self) -> u64 {
        self.readahead_pages
    }

    fn latency_of(&self, access: Access) -> SimDuration {
        match access {
            Access::Random => self.profile.random_latency,
            Access::Sequential => self.profile.sequential_latency,
        }
    }

    /// Serves a lazy-paging fault for `page` of `file` through the buffered
    /// path, with asynchronous readahead up to `file_pages`.
    ///
    /// Returns when the *faulting page* is ready; the rest of the readahead
    /// cluster continues to occupy the device afterwards (its bandwidth is
    /// charged, its completion is not awaited).
    pub fn fault_read_page(&mut self, now: SimTime, file: FileId, page: u64, file_pages: u64) -> ReadOutcome {
        self.stats.useful_bytes_read += PAGE_SIZE;
        if self.cache.probe(file, page) {
            self.stats.cache_hits += 1;
            let ready = now + self.hit_cost;
            return ReadOutcome {
                ready,
                cache_hit: true,
                device_bytes: 0,
            };
        }
        let cluster_end = (page + self.readahead_pages.max(1)).min(file_pages.max(page + 1));
        let cluster_pages = cluster_end - page;
        let cluster_bytes = cluster_pages * PAGE_SIZE;

        let t_latency = self.latency_stage.submit(now, self.latency_of(Access::Random));
        // Faulting page first on the bus; the readahead remainder follows
        // FIFO behind it and is not awaited.
        let t_page = self.bus.submit(t_latency, self.profile.read_transfer(PAGE_SIZE));
        if cluster_pages > 1 {
            let rest = cluster_bytes - PAGE_SIZE;
            let _async_done = self.bus.submit(t_latency, self.profile.read_transfer(rest));
        }
        self.cache.insert_run(file, page, cluster_pages);
        self.stats.device_bytes_read += cluster_bytes;
        self.stats.device_reads += 1;
        let ready = t_page + self.page_path_cost;
        ReadOutcome {
            ready,
            cache_hit: false,
            device_bytes: cluster_bytes,
        }
    }

    /// Synchronous buffered read of `[offset, offset + len)` (the Fig 7
    /// "WS file" design point). Populates the page cache; pays the per-page
    /// buffered-path cost for every page.
    pub fn read_buffered(&mut self, now: SimTime, file: FileId, offset: u64, len: u64) -> ReadOutcome {
        assert!(len > 0, "zero-length read");
        self.stats.useful_bytes_read += len;
        let first = offset / PAGE_SIZE;
        let last = (offset + len - 1) / PAGE_SIZE;
        let total_pages = last - first + 1;
        let uncached: u64 = (first..=last)
            .filter(|&p| !self.cache.probe(file, p))
            .count() as u64;
        let path_cost = self.page_path_cost * total_pages;
        if uncached == 0 {
            self.stats.cache_hits += 1;
            let ready = now + self.hit_cost * total_pages;
            return ReadOutcome {
                ready,
                cache_hit: true,
                device_bytes: 0,
            };
        }
        let bytes = uncached * PAGE_SIZE;
        let t_latency = self.latency_stage.submit(now, self.latency_of(Access::Random));
        let t_bus = self.bus.submit(t_latency, self.profile.read_transfer(bytes));
        self.cache.insert_run(file, first, total_pages);
        self.stats.device_bytes_read += bytes;
        self.stats.device_reads += 1;
        let ready = t_bus + path_cost;
        ReadOutcome {
            ready,
            cache_hit: false,
            device_bytes: bytes,
        }
    }

    /// `O_DIRECT` read: bypasses the page cache entirely (REAP's prefetch
    /// fetch, §5.2.3). Does not populate the cache.
    pub fn read_direct(&mut self, now: SimTime, _file: FileId, _offset: u64, len: u64, access: Access) -> ReadOutcome {
        assert!(len > 0, "zero-length read");
        self.stats.useful_bytes_read += len;
        let t_latency = self.latency_stage.submit(now, self.latency_of(access));
        let t_bus = self.bus.submit(t_latency, self.profile.read_transfer(len));
        self.stats.device_bytes_read += len;
        self.stats.device_reads += 1;
        let ready = t_bus + self.direct_setup_cost;
        ReadOutcome {
            ready,
            cache_hit: false,
            device_bytes: len,
        }
    }

    /// Writes `len` bytes at `offset` (snapshot/WS-file creation). The data
    /// lands in the page cache (write-back) and is charged to the device at
    /// write bandwidth.
    pub fn write(&mut self, now: SimTime, file: FileId, offset: u64, len: u64) -> SimTime {
        assert!(len > 0, "zero-length write");
        let t_latency = self.latency_stage.submit(now, self.latency_of(Access::Sequential));
        let t_bus = self.bus.submit(t_latency, self.profile.write_transfer(len));
        let first = offset / PAGE_SIZE;
        let pages = (offset + len - 1) / PAGE_SIZE - first + 1;
        self.cache.insert_run(file, first, pages);
        self.stats.device_bytes_written += len;
        t_bus
    }

    /// Flushes the host page cache (the paper's per-cold-invocation
    /// methodology step, §4.1).
    pub fn drop_caches(&mut self) {
        self.cache.drop_caches();
    }

    /// Cumulative counters.
    pub fn stats(&self) -> DiskStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::file_store::FileStore;

    fn setup() -> (Disk, FileId) {
        let fs = FileStore::new();
        let f = fs.create("mem");
        fs.set_len(f, 64 * 1024 * 1024).unwrap();
        (Disk::ssd(), f)
    }

    #[test]
    fn qd1_fault_read_is_about_125us_plus_path() {
        let (mut d, f) = setup();
        let out = d.fault_read_page(SimTime::ZERO, f, 100, 16384);
        assert!(!out.cache_hit);
        let us = out.ready.as_micros_f64();
        assert!(
            (125.0..145.0).contains(&us),
            "QD1 fault should be ~134us, got {us:.1}"
        );
        // Full 128KB cluster charged to the device.
        assert_eq!(out.device_bytes, 32 * PAGE_SIZE);
    }

    #[test]
    fn faulting_adjacent_page_hits_readahead() {
        let (mut d, f) = setup();
        let first = d.fault_read_page(SimTime::ZERO, f, 100, 16384);
        let second = d.fault_read_page(first.ready, f, 101, 16384);
        assert!(second.cache_hit, "readahead covered page 101");
        assert_eq!(second.device_bytes, 0);
        assert_eq!(
            (second.ready - first.ready).as_micros(),
            2,
            "hit costs ~2us"
        );
    }

    #[test]
    fn readahead_respects_file_end() {
        let (mut d, f) = setup();
        // Fault the last page of a 10-page file: cluster must not extend past EOF.
        let out = d.fault_read_page(SimTime::ZERO, f, 9, 10);
        assert_eq!(out.device_bytes, PAGE_SIZE);
    }

    #[test]
    fn readahead_disabled_reads_single_page() {
        let (mut d, f) = setup();
        d.set_readahead_pages(0);
        let out = d.fault_read_page(SimTime::ZERO, f, 5, 1000);
        assert_eq!(out.device_bytes, PAGE_SIZE);
        let next = d.fault_read_page(out.ready, f, 6, 1000);
        assert!(!next.cache_hit, "no readahead, adjacent page misses");
    }

    #[test]
    fn direct_large_read_near_peak_bandwidth() {
        let (mut d, f) = setup();
        let len = 8 * 1024 * 1024u64;
        let out = d.read_direct(SimTime::ZERO, f, 0, len, Access::Random);
        let mbps = len as f64 / out.ready.as_secs_f64() / 1e6;
        assert!(
            (780.0..860.0).contains(&mbps),
            "O_DIRECT 8MB should run near 850 MB/s, got {mbps:.0}"
        );
        // Direct reads do not populate the cache.
        let fault = d.fault_read_page(out.ready, f, 0, 2048);
        assert!(!fault.cache_hit);
    }

    #[test]
    fn buffered_large_read_slower_than_direct() {
        let (mut d, f) = setup();
        let len = 8 * 1024 * 1024u64;
        let buffered = d.read_buffered(SimTime::ZERO, f, 0, len);
        let mbps = len as f64 / buffered.ready.as_secs_f64() / 1e6;
        assert!(
            (230.0..320.0).contains(&mbps),
            "buffered 8MB should land near 275 MB/s, got {mbps:.0}"
        );
        // Second buffered read is a pure cache hit and much faster.
        let again = d.read_buffered(buffered.ready, f, 0, len);
        assert!(again.cache_hit);
        assert!(again.ready - buffered.ready < SimDuration::from_millis(5));
    }

    #[test]
    fn drop_caches_forces_device_reads() {
        let (mut d, f) = setup();
        let a = d.read_buffered(SimTime::ZERO, f, 0, 4096);
        d.drop_caches();
        let b = d.read_buffered(a.ready, f, 0, 4096);
        assert!(!b.cache_hit);
        assert_eq!(d.stats().device_reads, 2);
    }

    #[test]
    fn hdd_random_faults_are_milliseconds() {
        let fs = FileStore::new();
        let f = fs.create("mem");
        let mut d = Disk::hdd();
        let out = d.fault_read_page(SimTime::ZERO, f, 1000, 65536);
        assert!(
            out.ready.as_millis_f64() > 10.0,
            "HDD fault should take >10ms, got {:.2}ms",
            out.ready.as_millis_f64()
        );
        // Sequential direct read avoids the seek.
        let mut d2 = Disk::hdd();
        let seq = d2.read_direct(SimTime::ZERO, f, 0, 8 * 1024 * 1024, Access::Sequential);
        assert!(seq.ready.as_millis_f64() < 50.0);
    }

    #[test]
    fn stats_accumulate() {
        let (mut d, f) = setup();
        let a = d.fault_read_page(SimTime::ZERO, f, 0, 16384);
        let b = d.fault_read_page(a.ready, f, 1, 16384); // readahead hit
        let _ = b;
        let st = d.stats();
        assert_eq!(st.useful_bytes_read, 2 * PAGE_SIZE);
        assert_eq!(st.device_bytes_read, 32 * PAGE_SIZE);
        assert_eq!(st.cache_hits, 1);
        assert_eq!(st.device_reads, 1);
    }

    #[test]
    fn write_populates_cache_and_charges_device() {
        let (mut d, f) = setup();
        let done = d.write(SimTime::ZERO, f, 0, 8 * PAGE_SIZE);
        assert!(done > SimTime::ZERO);
        assert_eq!(d.stats().device_bytes_written, 8 * PAGE_SIZE);
        let read = d.read_buffered(done, f, 0, 8 * PAGE_SIZE);
        assert!(read.cache_hit, "freshly written data is cached");
    }

    #[test]
    fn concurrent_faults_overlap_in_channels() {
        let (mut d, f) = setup();
        d.set_readahead_pages(0);
        // Eleven concurrent single-page faults: all finish ~at the same time.
        let outs: Vec<ReadOutcome> = (0..11)
            .map(|i| d.fault_read_page(SimTime::ZERO, f, i * 1000, 16384))
            .collect();
        let first = outs[0].ready;
        let last = outs.last().unwrap().ready;
        assert!(
            (last - first) < SimDuration::from_micros(60),
            "channel parallelism should overlap requests: spread {}",
            last - first
        );
    }
}
