//! A `fio`-style microbenchmark rig (§5.2.3 of the paper).
//!
//! The paper calibrates its SSD with the standard Linux `fio` tool:
//! a single 4 KB read achieves 32 MB/s, sixteen concurrent 4 KB reads reach
//! 360 MB/s, and the peak (large sequential) is 850 MB/s. These routines
//! reproduce that experiment against a [`Disk`] and are used both by the
//! `vhive-bench fio` subcommand and by calibration tests.

use sim_core::{DetRng, SimTime, TokenPool};

use crate::disk::{Access, Disk};
use crate::fault::StorageError;
use crate::file_store::{FileId, FileStore};
use crate::PAGE_SIZE;

/// Result of one fio-style run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FioResult {
    /// Bytes delivered to the "application".
    pub bytes: u64,
    /// Virtual elapsed time in seconds.
    pub elapsed_secs: f64,
}

impl FioResult {
    /// Throughput in MB/s (decimal megabytes, as the paper quotes).
    pub fn mbps(&self) -> f64 {
        if self.elapsed_secs == 0.0 {
            0.0
        } else {
            self.bytes as f64 / self.elapsed_secs / 1e6
        }
    }
}

/// Creates a scratch file of `bytes` for I/O benchmarking.
///
/// # Errors
///
/// The store's error if it cannot size the file (an injected fault).
pub fn make_test_file(fs: &FileStore, bytes: u64) -> Result<FileId, StorageError> {
    let f = fs.create("fio/testfile");
    fs.set_len(f, bytes)?;
    Ok(f)
}

/// Closed-loop random 4 KB `O_DIRECT` reads at the given queue depth.
///
/// Queue depth 1 reproduces the paper's 32 MB/s; depth 16 its 360 MB/s.
///
/// # Panics
///
/// Panics if `queue_depth == 0` or `requests == 0`.
pub fn random_4k_reads(disk: &mut Disk, file: FileId, file_bytes: u64, requests: u64, queue_depth: usize, seed: u64) -> FioResult {
    assert!(queue_depth > 0 && requests > 0);
    let mut rng = DetRng::new(seed);
    let pages = file_bytes / PAGE_SIZE;
    let mut pool = TokenPool::new(queue_depth);
    let t0 = SimTime::ZERO;
    let mut last_done = t0;
    for _ in 0..requests {
        let start = pool.acquire(t0);
        let page = rng.gen_range(pages);
        let out = disk.read_direct(start, file, page * PAGE_SIZE, PAGE_SIZE, Access::Random);
        pool.release(out.ready);
        last_done = last_done.max(out.ready);
    }
    FioResult {
        bytes: requests * PAGE_SIZE,
        elapsed_secs: (last_done - t0).as_secs_f64(),
    }
}

/// One large sequential read, optionally `O_DIRECT`.
///
/// Buffered mode models the Fig 7 "WS file" design point (≈275 MB/s);
/// direct mode models REAP's fetch (device-bound, ≈850 MB/s raw).
pub fn large_sequential_read(disk: &mut Disk, file: FileId, bytes: u64, direct: bool) -> FioResult {
    let t0 = SimTime::ZERO;
    let ready = if direct {
        disk.read_direct(t0, file, 0, bytes, Access::Sequential).ready
    } else {
        disk.read_buffered(t0, file, 0, bytes).ready
    };
    FioResult {
        bytes,
        elapsed_secs: (ready - t0).as_secs_f64(),
    }
}

/// Sparse buffered 4 KB reads mimicking the baseline's lazy-paging pattern:
/// short contiguous runs (mean `run_mean` pages, per Fig 3) scattered
/// randomly. Reports *useful* throughput, i.e. what the faulting guest
/// observes; the readahead waste is visible in `Disk::stats`.
pub fn sparse_fault_pattern(disk: &mut Disk, file: FileId, file_bytes: u64, useful_pages: u64, run_mean: f64, seed: u64) -> FioResult {
    let mut rng = DetRng::new(seed);
    let pages = file_bytes / PAGE_SIZE;
    let mut now = SimTime::ZERO;
    let mut remaining = useful_pages;
    while remaining > 0 {
        let run = rng.run_length(run_mean, 16).min(remaining);
        let base = rng.gen_range(pages.saturating_sub(run).max(1));
        for i in 0..run {
            let out = disk.fault_read_page(now, file, base + i, pages);
            now = out.ready;
        }
        remaining -= run;
    }
    FioResult {
        bytes: useful_pages * PAGE_SIZE,
        elapsed_secs: now.as_secs_f64(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rig() -> (Disk, FileId, u64) {
        let fs = FileStore::new();
        let bytes = 256 * 1024 * 1024u64;
        let f = make_test_file(&fs, bytes).unwrap();
        (Disk::ssd(), f, bytes)
    }

    #[test]
    fn qd1_matches_paper_32_mbps() {
        let (mut d, f, len) = rig();
        let r = random_4k_reads(&mut d, f, len, 2000, 1, 1);
        let mbps = r.mbps();
        assert!(
            (28.0..36.0).contains(&mbps),
            "QD1 should be ~32 MB/s, got {mbps:.1}"
        );
    }

    #[test]
    fn qd16_matches_paper_360_mbps() {
        let (mut d, f, len) = rig();
        let r = random_4k_reads(&mut d, f, len, 8000, 16, 2);
        let mbps = r.mbps();
        assert!(
            (320.0..400.0).contains(&mbps),
            "QD16 should be ~360 MB/s, got {mbps:.1}"
        );
    }

    #[test]
    fn throughput_monotone_in_queue_depth() {
        let (_, f, len) = rig();
        let mut prev = 0.0;
        for qd in [1usize, 2, 4, 8, 16] {
            // Fresh disk per run: each run restarts the virtual clock.
            let mut d = Disk::ssd();
            let r = random_4k_reads(&mut d, f, len, 4000, qd, 3);
            assert!(
                r.mbps() >= prev * 0.98,
                "throughput should not collapse as QD grows: qd={qd} {:.1} < {prev:.1}",
                r.mbps()
            );
            prev = r.mbps();
        }
    }

    #[test]
    fn large_direct_read_near_peak() {
        let (mut d, f, _) = rig();
        let r = large_sequential_read(&mut d, f, 64 * 1024 * 1024, true);
        assert!(
            (800.0..860.0).contains(&r.mbps()),
            "direct read near 850 MB/s, got {:.0}",
            r.mbps()
        );
    }

    #[test]
    fn large_buffered_read_near_275_mbps() {
        let (mut d, f, _) = rig();
        let r = large_sequential_read(&mut d, f, 64 * 1024 * 1024, false);
        assert!(
            (230.0..320.0).contains(&r.mbps()),
            "buffered read near 275 MB/s, got {:.0}",
            r.mbps()
        );
    }

    #[test]
    fn sparse_faults_land_near_baseline_useful_bandwidth() {
        let (mut d, f, len) = rig();
        // 2048 useful pages (a helloworld-sized working set), runs of ~2.5.
        let r = sparse_fault_pattern(&mut d, f, len, 2048, 2.5, 4);
        let mbps = r.mbps();
        // The paper infers ~43 MB/s for vanilla snapshot loading (§6.2);
        // without the uffd software overhead (charged in vhive-core) the
        // raw path lands somewhat higher.
        assert!(
            (40.0..110.0).contains(&mbps),
            "sparse faults should see far below QD16 bandwidth, got {mbps:.1}"
        );
        // And the device moved far more than the useful bytes.
        let st = d.stats();
        assert!(st.device_bytes_read > 4 * st.useful_bytes_read);
    }

    #[test]
    fn fio_result_zero_elapsed() {
        let r = FioResult {
            bytes: 100,
            elapsed_secs: 0.0,
        };
        assert_eq!(r.mbps(), 0.0);
    }

    #[test]
    fn hdd_sequential_far_faster_than_random() {
        let fs = FileStore::new();
        let f = make_test_file(&fs, 64 * 1024 * 1024).unwrap();
        let mut d = Disk::hdd();
        let seq = large_sequential_read(&mut d, f, 8 * 1024 * 1024, true);
        let mut d2 = Disk::hdd();
        let rnd = random_4k_reads(&mut d2, f, 64 * 1024 * 1024, 200, 1, 5);
        assert!(
            seq.mbps() > 40.0 * rnd.mbps(),
            "HDD sequential ({:.1} MB/s) should dwarf random ({:.2} MB/s)",
            seq.mbps(),
            rnd.mbps()
        );
    }
}
