//! `bench-json` — the repo's perf-regression harness.
//!
//! Runs the microbench groups (buddy, vm, parcopy, uffd, ws_file,
//! prefetch, prefetch_lanes, timeline) plus the end-to-end `fault_path`
//! group and the `cluster` concurrent-serving group, and emits one JSON object
//! with the median wall-clock ns per operation of each benchmark. CI runs this binary with
//! `--check BENCH_fault_path.json` and fails when any group regresses
//! more than [`REGRESSION_FACTOR`]x *and* by more than
//! [`NOISE_FLOOR_NS`] absolute against the checked-in baseline; `--out`
//! writes a fresh baseline (see README § "Performance" for when to
//! refresh it).
//!
//! All working-set shaped groups operate on 64 MB (16384 pages) — the
//! scale at which the paper's per-page fault overhead dominates cold
//! starts. Two layouts model the two shapes REAP serves:
//!
//! * `uffd` — 8 contiguous segments of 2048 pages, the shape of the
//!   infrastructure working set connection restoration touches (§4.4);
//! * `ws_file`/`prefetch`/`fault_path` — 512 runs of 32 pages with equal
//!   gaps, a fragmented function working set.
//!
//! Instance memory is drawn from a recycled arena pool
//! ([`GuestMemory::recycle`]), as a warm orchestrator reuses mappings
//! between restores instead of re-faulting 64 MB from the OS every time.

use std::time::Instant;

use functionbench::FunctionId;
use guest_mem::{GuestMemory, PageIdx, PageRun, Uffd, PAGE_SIZE};
use guest_os::BuddyAllocator;
use microvm::{MicroVm, Snapshot, VmConfig};
use sim_core::{SimDuration, SimTime};
use sim_storage::{Disk, FileStore, SnapshotFrameCache};
use vhive_core::{
    read_ws_layout, write_reap_files, InstanceProgram, Phase, TimedStep, Timeline,
};

/// 64 MB working set: 16384 pages.
const WS_PAGES: u64 = 16_384;
/// Fragmented layout: runs of 32 pages, one equal gap between them.
const RUN_LEN: u64 = 32;
const STRIDE: u64 = 64;
/// Contiguous layout: 8 segments of 2048 pages (8 MB each).
const SEG_LEN: u64 = 2048;
const GUEST_BYTES: u64 = 256 * 1024 * 1024;
const REGION_BASE: u64 = 0x7f00_0000_0000;
/// The serving set of the cluster, router, recovery and Vanilla
/// timed-pass groups: light functions that spread over the shard space
/// (8-20 MB working set each).
const SERVING_SET: [FunctionId; 4] = [
    FunctionId::helloworld,
    FunctionId::chameleon,
    FunctionId::pyaes,
    FunctionId::json_serdes,
];

/// Fragmented working set (fault-order page list).
fn ws_layout() -> Vec<PageIdx> {
    let mut pages = Vec::with_capacity(WS_PAGES as usize);
    let mut first = 0u64;
    while (pages.len() as u64) < WS_PAGES {
        for p in first..first + RUN_LEN {
            pages.push(PageIdx::new(p));
            if pages.len() as u64 == WS_PAGES {
                break;
            }
        }
        first += STRIDE;
    }
    pages
}

/// Contiguous-segment working set (touch windows).
fn segment_layout() -> Vec<PageRun> {
    (0..WS_PAGES / SEG_LEN)
        .map(|i| PageRun::new(PageIdx::new(i * SEG_LEN * 2), SEG_LEN))
        .collect()
}

/// Measures `op` until ~600 ms of samples (5..=60 runs) and returns the
/// median ns per run. The window is deliberately wide: these benches run
/// on shared machines and the median over a longer span rides out noise
/// phases.
fn measure<F: FnMut()>(mut op: F) -> (u64, u32) {
    op(); // warm-up, untimed
    let mut samples: Vec<u64> = Vec::new();
    let budget = std::time::Duration::from_millis(600);
    let started = Instant::now();
    while samples.len() < 60 && (samples.len() < 5 || started.elapsed() < budget) {
        let t = Instant::now();
        op();
        samples.push(t.elapsed().as_nanos() as u64);
    }
    samples.sort_unstable();
    (samples[samples.len() / 2], samples.len() as u32)
}

struct Report {
    entries: Vec<(&'static str, u64, u32)>,
    /// `--filter <substr>`: only groups whose name contains the substring
    /// run (and only matching baseline groups are checked), so a refresh
    /// can rerun e.g. just the ~25 s-per-sample cluster groups.
    filter: Option<String>,
}

impl Report {
    /// True if `name` passes the `--filter` (benches should skip their
    /// setup work entirely when none of their groups is wanted).
    fn wants(&self, name: &str) -> bool {
        self.filter.as_ref().is_none_or(|f| name.contains(f.as_str()))
    }

    fn add<F: FnMut()>(&mut self, name: &'static str, op: F) {
        if !self.wants(name) {
            return;
        }
        let (median, n) = measure(op);
        eprintln!("  {name}: {median} ns/op ({n} samples)");
        self.entries.push((name, median, n));
    }

    fn to_json(&self) -> String {
        let entries: Vec<(String, u64, u32)> = self
            .entries
            .iter()
            .map(|&(name, median, n)| (name.to_string(), median, n))
            .collect();
        entries_to_json(&entries)
    }
}

fn entries_to_json(entries: &[(String, u64, u32)]) -> String {
    let mut out = String::from("{\n  \"schema\": 1,\n  \"groups\": {\n");
    for (i, (name, median, n)) in entries.iter().enumerate() {
        let comma = if i + 1 == entries.len() { "" } else { "," };
        out.push_str(&format!(
            "    \"{name}\": {{\"median_ns\": {median}, \"samples\": {n}}}{comma}\n"
        ));
    }
    out.push_str("  }\n}\n");
    out
}

/// A file-store file holding deterministic contents for every WS page.
fn mem_fixture(fs: &FileStore, name: &str, pages: impl Iterator<Item = PageIdx>) -> sim_storage::FileId {
    let mem = fs.create(name);
    fs.set_len(mem, GUEST_BYTES);
    let mut buf = vec![0u8; PAGE_SIZE];
    for p in pages {
        guest_mem::checksum::fill_deterministic(&mut buf, 0xBE9C, p.as_u64());
        fs.write_at(mem, p.file_offset(), &buf);
    }
    mem
}

fn bench_buddy(r: &mut Report) {
    if !r.wants("buddy/alloc_free_cycle_64p") {
        return;
    }
    r.add("buddy/alloc_free_cycle_64p", || {
        let mut buddy = BuddyAllocator::new(PageIdx::new(0), 65536);
        let mut blocks = Vec::with_capacity(64);
        for _ in 0..64 {
            blocks.push(buddy.alloc_pages(64).unwrap());
        }
        for p in blocks {
            buddy.free(p).unwrap();
        }
    });
}

/// What every cold start pays before a byte of guest memory moves: the
/// checked VMM-state read + checksum, a clone of the captured guest
/// shell, and an empty 256 MB guest memory registered with uffd. A
/// restore that went back to re-booting the guest would land at ~7x.
fn bench_restore_shell(r: &mut Report) {
    if !r.wants("vm/restore_shell") {
        return;
    }
    let fs = FileStore::new();
    let (mut vm, _) = MicroVm::boot(FunctionId::helloworld, VmConfig::default());
    vm.pause();
    let snapshot = Snapshot::capture(&vm, &fs, "bench/restore");
    drop(vm);
    r.add("vm/restore_shell", || {
        let vm = snapshot.restore_shell(&fs).expect("snapshot restores");
        assert!(vm.is_lazy());
    });
}

/// A re-deploy: boot, pause and capture into a store that already holds
/// the previous capture of the same function — what every `deploy_churn`
/// round and every §7.3 snapshot regeneration pays. Boot is ~135 ms of it
/// (first-touch faults on the fresh arena + the deterministic fill);
/// capture should be one write per file byte into retained capacity.
fn bench_boot_capture_redeploy(r: &mut Report) {
    if !r.wants("vm/boot_capture_redeploy") {
        return;
    }
    let fs = FileStore::new();
    r.add("vm/boot_capture_redeploy", || {
        let (mut vm, _) = MicroVm::boot(FunctionId::helloworld, VmConfig::default());
        vm.pause();
        let snapshot = Snapshot::capture(&vm, &fs, "bench/redeploy");
        assert_eq!(fs.len(snapshot.mem_file), GUEST_BYTES);
    });
}

/// The copy every `FileStore::read_at` and contiguous `install_run`
/// makes: one page appended to a reused buffer. One op is 2048 of them
/// (8 MB — a cache-thrashing cold start's worth), so that a thread spawn
/// per call (~35 µs each) reads as ~70 ms against the gate's 1 ms floor.
fn bench_parcopy(r: &mut Report) {
    let page = vec![0xA5u8; PAGE_SIZE];
    let mut buf = Vec::new();
    r.add("parcopy/extend_4k", || {
        buf.clear();
        for _ in 0..2048 {
            sim_core::extend_par(&mut buf, std::hint::black_box(&page));
        }
        assert_eq!(buf.len(), 2048 * PAGE_SIZE);
    });
}

/// Serves every missing run of `window`, installing contents straight
/// from `mem` — the batched monitor serve path (one borrow + one install
/// per run of consecutive faults).
fn serve_window(uffd: &mut Uffd, fs: &FileStore, mem: sim_storage::FileId, window: PageRun) -> u64 {
    let mut served = 0;
    let mut cursor = window.first;
    while let Some(missing) = uffd.next_missing_run(cursor, window) {
        let _ev = uffd.raise_run(missing);
        fs.with_range(mem, missing.file_offset(), missing.byte_len(), |src| {
            uffd.copy_run(missing, src).unwrap()
        });
        uffd.wake_run(missing.len);
        served += missing.len;
        cursor = missing.end();
    }
    served
}

/// The serial fault path: every page of the 64 MB working set faults and
/// is served from the guest memory file — the §4.2 critical path.
fn bench_uffd(r: &mut Report, fs: &FileStore) {
    if !r.wants("uffd/fault_serve_64mb") {
        return;
    }
    let windows = segment_layout();
    let mem = mem_fixture(fs, "bench/uffd-mem", windows.iter().flat_map(|w| w.iter()));
    let mut pool = Some(GuestMemory::new(GUEST_BYTES));
    r.add("uffd/fault_serve_64mb", || {
        let mut instance = pool.take().expect("pooled instance");
        instance.recycle();
        let mut uffd = Uffd::register(instance, REGION_BASE);
        let mut served = 0;
        for window in &windows {
            served += serve_window(&mut uffd, fs, mem, *window);
        }
        assert_eq!(served, WS_PAGES);
        assert_eq!(uffd.memory().resident_pages(), WS_PAGES);
        assert_eq!(uffd.stats().faults, WS_PAGES, "per-page accounting intact");
        pool = Some(uffd.into_memory());
    });
}

fn bench_ws_file(r: &mut Report, fs: &FileStore, pages: &[PageIdx]) {
    if !r.wants("ws_file/build_64mb") && !r.wants("ws_file/parse_64mb") {
        return;
    }
    let mem = mem_fixture(fs, "bench/ws-mem", pages.iter().copied());
    r.add("ws_file/build_64mb", || {
        let files = write_reap_files(fs, "bench/ws", mem, pages);
        assert_eq!(files.pages, WS_PAGES);
    });
    let files = write_reap_files(fs, "bench/ws", mem, pages);
    r.add("ws_file/parse_64mb", || {
        // Parsing = decoding + validating the extent table; page data is
        // installed zero-copy from the mapped WS file afterwards.
        let layout = read_ws_layout(fs, files.ws_file).unwrap();
        assert_eq!(layout.pages, WS_PAGES);
        assert_eq!(layout.extents.len() as u64, WS_PAGES / RUN_LEN);
    });
}

/// REAP's eager install: WS file fetched, install into a fresh instance
/// (§5.2.2) straight from its bytes.
fn bench_prefetch(r: &mut Report, fs: &FileStore, pages: &[PageIdx]) {
    if !r.wants("prefetch/eager_install_64mb") {
        return;
    }
    let mem = mem_fixture(fs, "bench/pf-mem", pages.iter().copied());
    let files = write_reap_files(fs, "bench/pf", mem, pages);
    let layout = read_ws_layout(fs, files.ws_file).unwrap();
    let mut pool = Some(GuestMemory::new(GUEST_BYTES));
    r.add("prefetch/eager_install_64mb", || {
        let mut instance = pool.take().expect("pooled instance");
        instance.recycle();
        let mut uffd = Uffd::register(instance, REGION_BASE);
        for &(run, data_at) in &layout.extents {
            let install = fs.with_range(files.ws_file, data_at, run.byte_len(), |src| {
                uffd.copy_run(run, src).unwrap()
            });
            assert_eq!(install.eexist, 0);
        }
        uffd.wake();
        assert_eq!(uffd.memory().resident_pages(), WS_PAGES);
        pool = Some(uffd.into_memory());
    });
}

/// The prefetch-lane comparison: the same 64 MB eager install done (a) the
/// sequential fetch-all-then-install-all way — one buffered read of the WS
/// file's data region into a staging buffer, then per-extent installs out
/// of it — and (b) through the lane engine, which reserves every extent's
/// frames up front ([`Uffd::copy_runs_with`]) and lets up to
/// [`sim_core::MAX_PREFETCH_LANES`] lanes copy file bytes straight into
/// them ([`FileStore::read_ranges_into`]): half the copies, and the lanes
/// run concurrently on multi-core hosts.
fn bench_prefetch_lanes(r: &mut Report, fs: &FileStore, pages: &[PageIdx]) {
    if !r.wants("prefetch_lanes/fetch_then_install_64mb") && !r.wants("prefetch_lanes/pipelined_64mb") {
        return;
    }
    let mem = mem_fixture(fs, "bench/lanes-mem", pages.iter().copied());
    let files = write_reap_files(fs, "bench/lanes", mem, pages);
    let layout = read_ws_layout(fs, files.ws_file).unwrap();
    let lanes = sim_core::effective_lanes(sim_core::MAX_PREFETCH_LANES);
    eprintln!("  (prefetch_lanes runs {lanes} lane(s) on this host)");
    let data_base = layout.extents.first().map(|&(_, at)| at).unwrap();
    let data_len: u64 = layout.extents.iter().map(|&(run, _)| run.byte_len()).sum();

    let mut pool = Some(GuestMemory::new(GUEST_BYTES));
    r.add("prefetch_lanes/fetch_then_install_64mb", || {
        let mut instance = pool.take().expect("pooled instance");
        instance.recycle();
        let mut uffd = Uffd::register(instance, REGION_BASE);
        let staged = fs.read_at(files.ws_file, data_base, data_len as usize);
        for &(run, data_at) in &layout.extents {
            let off = (data_at - data_base) as usize;
            uffd.copy_run(run, &staged[off..off + run.byte_len() as usize])
                .unwrap();
        }
        uffd.wake();
        assert_eq!(uffd.memory().resident_pages(), WS_PAGES);
        pool = Some(uffd.into_memory());
    });

    let runs: Vec<PageRun> = layout.extents.iter().map(|&(run, _)| run).collect();
    let mut pool = Some(GuestMemory::new(GUEST_BYTES));
    r.add("prefetch_lanes/pipelined_64mb", || {
        let mut instance = pool.take().expect("pooled instance");
        instance.recycle();
        let mut uffd = Uffd::register(instance, REGION_BASE);
        let installed = uffd
            .copy_runs_with(&runs, |bufs| {
                let jobs: Vec<(u64, &mut [u8])> = bufs
                    .into_iter()
                    .map(|(i, buf)| (layout.extents[i].1, buf))
                    .collect();
                fs.read_ranges_into(files.ws_file, jobs, lanes);
            })
            .unwrap();
        assert_eq!(installed, WS_PAGES);
        uffd.wake();
        assert_eq!(uffd.memory().resident_pages(), WS_PAGES);
        pool = Some(uffd.into_memory());
    });
}

/// End-to-end fault path: record a 64 MB working set (serving every fault
/// from the memory file), persist the REAP artifacts, then restore a
/// second instance by prefetching them — one full §5.2 cycle.
fn bench_fault_path(r: &mut Report, fs: &FileStore, pages: &[PageIdx]) {
    if !r.wants("fault_path/record_then_prefetch_64mb")
        && !r.wants("fault_path/record_then_prefetch_laned_64mb")
    {
        return;
    }
    let mem = mem_fixture(fs, "bench/e2e-mem", pages.iter().copied());
    let windows = guest_mem::coalesce_ordered(pages.iter().copied());
    let mut pool = Some((GuestMemory::new(GUEST_BYTES), GuestMemory::new(GUEST_BYTES)));
    r.add("fault_path/record_then_prefetch_64mb", || {
        let (mut rec_mem, mut pf_mem) = pool.take().expect("pooled instances");
        rec_mem.recycle();
        pf_mem.recycle();
        // Record pass: serve every missing run and record it.
        let mut uffd = Uffd::register(rec_mem, REGION_BASE);
        let mut trace: Vec<PageRun> = Vec::new();
        for window in &windows {
            let mut cursor = window.first;
            while let Some(missing) = uffd.next_missing_run(cursor, *window) {
                let _ev = uffd.raise_run(missing);
                fs.with_range(mem, missing.file_offset(), missing.byte_len(), |src| {
                    uffd.copy_run(missing, src).unwrap()
                });
                uffd.wake_run(missing.len);
                guest_mem::push_coalesced(&mut trace, missing);
                cursor = missing.end();
            }
        }
        let files = vhive_core::write_reap_files_runs(fs, "bench/e2e", mem, &trace);
        // Prefetch pass into a fresh instance.
        let layout = read_ws_layout(fs, files.ws_file).unwrap();
        let mut fresh = Uffd::register(pf_mem, REGION_BASE);
        for &(run, data_at) in &layout.extents {
            fs.with_range(files.ws_file, data_at, run.byte_len(), |src| {
                fresh.copy_run(run, src).unwrap()
            });
        }
        fresh.wake();
        assert_eq!(fresh.memory().resident_pages(), WS_PAGES);
        pool = Some((uffd.into_memory(), fresh.into_memory()));
    });

    // Same §5.2 cycle with the prefetch pass on the lane engine: the
    // before/after of the lane pipeline at end-to-end scale.
    let lanes = sim_core::effective_lanes(sim_core::MAX_PREFETCH_LANES);
    let mut pool = Some((GuestMemory::new(GUEST_BYTES), GuestMemory::new(GUEST_BYTES)));
    r.add("fault_path/record_then_prefetch_laned_64mb", || {
        let (mut rec_mem, mut pf_mem) = pool.take().expect("pooled instances");
        rec_mem.recycle();
        pf_mem.recycle();
        let mut uffd = Uffd::register(rec_mem, REGION_BASE);
        let mut trace: Vec<PageRun> = Vec::new();
        for window in &windows {
            let mut cursor = window.first;
            while let Some(missing) = uffd.next_missing_run(cursor, *window) {
                let _ev = uffd.raise_run(missing);
                fs.with_range(mem, missing.file_offset(), missing.byte_len(), |src| {
                    uffd.copy_run(missing, src).unwrap()
                });
                uffd.wake_run(missing.len);
                guest_mem::push_coalesced(&mut trace, missing);
                cursor = missing.end();
            }
        }
        let files = vhive_core::write_reap_files_runs(fs, "bench/e2e-laned", mem, &trace);
        let layout = read_ws_layout(fs, files.ws_file).unwrap();
        let mut fresh = Uffd::register(pf_mem, REGION_BASE);
        let runs: Vec<PageRun> = layout.extents.iter().map(|&(run, _)| run).collect();
        fresh
            .copy_runs_with(&runs, |bufs| {
                let jobs: Vec<(u64, &mut [u8])> = bufs
                    .into_iter()
                    .map(|(i, buf)| (layout.extents[i].1, buf))
                    .collect();
                fs.read_ranges_into(files.ws_file, jobs, lanes);
            })
            .unwrap();
        fresh.wake();
        assert_eq!(fresh.memory().resident_pages(), WS_PAGES);
        pool = Some((uffd.into_memory(), fresh.into_memory()));
    });
}

/// The cluster serving hot path: 64 concurrent, independent REAP cold
/// starts (16 instances of each of four light functions, shadow
/// identities — the §6.5 independent-function model) served through a
/// `ClusterOrchestrator`, measured at 1 shard and at 4 shards.
///
/// Each op runs every request's full functional pass (shell restore +
/// WS prefetch + replay + verification) plus the merged shared-disk
/// timed pass. Shard fan-out is gated on the host's cores
/// ([`sim_core::effective_lanes`]): on a 1-CPU machine both geometries
/// serve serially and the medians meet; with cores available the 4-shard
/// group's functional passes run genuinely concurrently.
///
/// The plain groups measure the orchestrator's default configuration —
/// which now includes the shared [`SnapshotFrameCache`], the reuse layer
/// that dropped these medians severalfold. The `_cached` twins measure
/// the steady hot-cache state explicitly and *assert* that repeat cold
/// starts are served by frame aliasing (cache hits must grow every
/// batch, and extent installs must stop reading the store).
fn bench_cluster(r: &mut Report) {
    use vhive_cluster::{ClusterOrchestrator, ColdRequest};
    use vhive_core::ColdPolicy;

    let funcs = SERVING_SET;
    let reqs: Vec<ColdRequest> = (0..64)
        .map(|i| ColdRequest::independent(funcs[i % funcs.len()], ColdPolicy::Reap))
        .collect();
    for (name, cached_name, shards) in [
        ("cluster/invoke_cold_64fn_1shard", "cluster/invoke_cold_64fn_1shard_cached", 1usize),
        ("cluster/invoke_cold_64fn_4shard", "cluster/invoke_cold_64fn_4shard_cached", 4usize),
    ] {
        if !r.wants(name) && !r.wants(cached_name) {
            continue;
        }
        let mut cluster = ClusterOrchestrator::new(0xC10_5732, shards);
        for f in funcs {
            cluster.register(f);
            cluster.invoke_record(f);
        }
        r.add(name, || {
            let batch = cluster.invoke_concurrent(&reqs);
            assert_eq!(batch.outcomes.len(), 64);
        });
        // Steady state: run one explicit warm-up batch first — when
        // `--filter` skips the plain group, nothing else has populated
        // the cache yet, and the aliasing assertion below must never see
        // the cold first batch (measure()'s untimed warm-up runs the
        // closure, assertion included).
        if r.wants(cached_name) {
            let warm = cluster.invoke_concurrent(&reqs);
            assert_eq!(warm.outcomes.len(), 64);
        }
        r.add(cached_name, || {
            let before = cluster.frame_cache_stats();
            let batch = cluster.invoke_concurrent(&reqs);
            assert_eq!(batch.outcomes.len(), 64);
            let after = cluster.frame_cache_stats();
            let (hits, misses) = (after.hits - before.hits, after.misses - before.misses);
            assert!(
                hits > 64 && hits > 100 * misses,
                "repeat cold starts must be served by frame aliasing \
                 ({hits} hits vs {misses} misses this batch)"
            );
        });

        // Registry-off overhead must be provably zero on this hot path:
        // the gated groups above ran with no registry attached (the
        // record path is behind an `Option` that stays `None`), and a
        // steady-state back-to-back comparison pins it — the off median
        // may not be measurably slower than the same batch with a live
        // registry observing every invocation.
        if name == "cluster/invoke_cold_64fn_1shard" {
            assert!(cluster.metrics().is_none(), "gated groups measure the registry-off path");
            let (off_ns, _) = measure(|| {
                assert_eq!(cluster.invoke_concurrent(&reqs).outcomes.len(), 64);
            });
            cluster.set_metrics(Some(sim_core::MetricsRegistry::new()));
            let (on_ns, _) = measure(|| {
                assert_eq!(cluster.invoke_concurrent(&reqs).outcomes.len(), 64);
            });
            cluster.set_metrics(None);
            eprintln!(
                "  (steady-state {name}: metrics-off {off_ns} ns vs metrics-on {on_ns} ns)"
            );
            assert!(
                off_ns <= on_ns + on_ns / 4,
                "registry-off path must not cost more than registry-on \
                 (off {off_ns} ns vs on {on_ns} ns)"
            );
        }
    }

    // Budget-starved twin: the cache is warmed to its natural working
    // set, then capped at half of it. Every measured batch must stay
    // within the budget (the cache evicts under pressure — asserted) while
    // the simulated outcomes stay untouched; the median shows what cold
    // starts cost when the reuse layer can only hold half the fleet.
    let budget_name = "cluster/invoke_cold_64fn_budgeted";
    if r.wants(budget_name) {
        let mut cluster = ClusterOrchestrator::new(0xC10_5732, 4);
        for f in funcs {
            cluster.register(f);
            cluster.invoke_record(f);
        }
        let warm = cluster.invoke_concurrent(&reqs);
        assert_eq!(warm.outcomes.len(), 64);
        let full = cluster.frame_cache_stats().bytes;
        assert!(full > 0, "warm batch must populate the cache");
        let budget = full / 2;
        cluster.set_frame_cache_budget(Some(budget));
        let evicted_at_start = cluster.frame_cache_stats().evicted;
        assert!(evicted_at_start > 0, "halving the budget evicts immediately");
        r.add(budget_name, || {
            let batch = cluster.invoke_concurrent(&reqs);
            assert_eq!(batch.outcomes.len(), 64);
            let st = cluster.frame_cache_stats();
            assert!(
                st.bytes <= budget,
                "budget overrun: {} cached bytes > {budget} budget",
                st.bytes
            );
        });
        let st = cluster.frame_cache_stats();
        assert!(
            st.evicted > evicted_at_start,
            "half-budget batches must keep evicting under pressure"
        );
    }

    // Overload twin: the same 64-request fan-out, but every request
    // carries a deadline and the admission layer runs its bounded-queue
    // pre-pass. The median prices what overload protection costs on the
    // hot path: a shed request resolves in the pre-pass without touching
    // a shard, so the group should sit well *below* the plain 4-shard
    // group. Queue-only admission (no token bucket) keeps every measured
    // batch identical — admission queues are per-batch state.
    let overload_name = "cluster/invoke_cold_64fn_overload";
    if r.wants(overload_name) {
        use sim_core::SimDuration;
        use vhive_cluster::AdmissionConfig;
        let mut cluster = ClusterOrchestrator::new(0xC10_5732, 4);
        for f in funcs {
            cluster.register(f);
            cluster.invoke_record(f);
        }
        cluster.set_admission(Some(AdmissionConfig {
            max_queue_depth: Some(4),
            ..AdmissionConfig::default()
        }));
        let overload_reqs: Vec<ColdRequest> = reqs
            .iter()
            .map(|&q| q.with_deadline(SimDuration::from_millis(250)))
            .collect();
        r.add(overload_name, || {
            let batch = cluster.invoke_concurrent(&overload_reqs);
            assert_eq!(
                batch.dispositions.len(),
                64,
                "every request must resolve to an explicit disposition"
            );
            assert_eq!(batch.outcomes.len(), batch.served.len());
            assert!(
                batch.outcomes.len() < 64,
                "a 16-deep cluster admission window must shed a 64-burst"
            );
        });
    }
}

/// Router replay under overload: one million arrivals pushed through a
/// bounded admission queue with a latency budget. Offered load is ~25×
/// what the 8-instance pool serves, so the vast majority of events
/// resolve in the shed fast-path — the group prices the router's
/// per-event bookkeeping at fleet replay scale, and asserts the no-hang
/// invariant (`goodput + shed + expired == offered`) on every measured
/// pass.
fn bench_router(r: &mut Report) {
    use functionbench::InvocationEvent;
    use sim_core::SimDuration;
    use vhive_core::{route_workload, FunctionCosts, RouterConfig};

    let name = "router/replay_shed_1m";
    if !r.wants(name) {
        return;
    }
    let funcs = SERVING_SET;
    let mut costs = std::collections::HashMap::new();
    for f in funcs {
        costs.insert(
            f,
            FunctionCosts {
                cold_latency: SimDuration::from_millis(232),
                warm_latency: SimDuration::from_millis(10),
                warm_bytes: 150 * 1024 * 1024,
            },
        );
    }
    let events: Vec<InvocationEvent> = (0..1_000_000u64)
        .map(|i| InvocationEvent {
            at: sim_core::SimTime::ZERO + SimDuration::from_micros(50 * i),
            function: funcs[(i % 4) as usize],
            seq: i,
        })
        .collect();
    let config = RouterConfig {
        max_queue_depth: Some(64),
        deadline: Some(SimDuration::from_secs(1)),
        ..RouterConfig::default()
    };
    r.add(name, || {
        let report = route_workload(&events, config, &costs);
        assert_eq!(
            report.goodput() + report.shed + report.expired,
            1_000_000,
            "every replayed event must resolve to goodput, shed, or expired"
        );
        assert!(report.shed > 500_000, "25x overload must shed most arrivals");
    });
}

/// Pure alias-install throughput: the 64 MB fragmented working set
/// installed from a warm [`SnapshotFrameCache`] — the zero-copy twin of
/// `prefetch/eager_install_64mb`. After the first (untimed) pass loads
/// the cache, every op is 512 extent lookups + refcount bumps + slot
/// bookkeeping; the store is never read again (asserted).
fn bench_frame_cache(r: &mut Report, fs: &FileStore, pages: &[PageIdx]) {
    bench_frame_cache_dedup(r, fs, pages);
    if !r.wants("frame_cache/alias_install_64mb") {
        return;
    }
    let mem = mem_fixture(fs, "bench/fc-mem", pages.iter().copied());
    let files = write_reap_files(fs, "bench/fc", mem, pages);
    let layout = read_ws_layout(fs, files.ws_file).unwrap();
    let cache = SnapshotFrameCache::new();
    let mut pool = Some(GuestMemory::new(GUEST_BYTES));
    r.add("frame_cache/alias_install_64mb", || {
        let mut instance = pool.take().expect("pooled instance");
        instance.recycle();
        let mut uffd = Uffd::register(instance, REGION_BASE);
        for &(run, data_at) in &layout.extents {
            let src = cache
                .get_or_load(fs, files.ws_file, data_at, run.byte_len())
                .expect("bench WS file stays live");
            uffd.alias_run(run, &src, 0).unwrap();
        }
        uffd.wake();
        assert_eq!(uffd.memory().resident_pages(), WS_PAGES);
        assert_eq!(uffd.memory().aliased_pages(), WS_PAGES, "all installs aliased");
        pool = Some(uffd.into_memory());
    });
    let st = cache.stats();
    assert_eq!(
        st.misses,
        layout.extents.len() as u64,
        "only the first pass reads the store; every later install aliases"
    );
    assert!(st.hits >= st.misses, "steady state is hit-only");
}

/// Cross-function dedup: `FNS` functions whose snapshots were cut from
/// the *same* runtime image (byte-identical WS files under distinct
/// `FileId`s) all install through one content-addressed cache. The
/// content store holds the shared pages once fleet-wide — `bytes` stays
/// at one working set, not `FNS` of them — while the per-function extent
/// index keeps every `(file, extent)` independently invalidatable.
fn bench_frame_cache_dedup(r: &mut Report, fs: &FileStore, pages: &[PageIdx]) {
    if !r.wants("frame_cache/dedup_cross_fn") {
        return;
    }
    const FNS: usize = 4;
    let mem = mem_fixture(fs, "bench/fc-dedup-mem", pages.iter().copied());
    let fn_files: Vec<_> = (0..FNS)
        .map(|i| write_reap_files(fs, &format!("bench/fc-dedup{i}"), mem, pages))
        .collect();
    let layouts: Vec<_> = fn_files
        .iter()
        .map(|f| read_ws_layout(fs, f.ws_file).unwrap())
        .collect();
    let cache = SnapshotFrameCache::new();
    let mut pool: Vec<Option<GuestMemory>> =
        (0..FNS).map(|_| Some(GuestMemory::new(GUEST_BYTES))).collect();
    r.add("frame_cache/dedup_cross_fn", || {
        for (i, (files, layout)) in fn_files.iter().zip(&layouts).enumerate() {
            let mut instance = pool[i].take().expect("pooled instance");
            instance.recycle();
            let mut uffd = Uffd::register(instance, REGION_BASE);
            for &(run, data_at) in &layout.extents {
                let src = cache
                    .get_or_load(fs, files.ws_file, data_at, run.byte_len())
                    .expect("bench WS file stays live");
                uffd.alias_run(run, &src, 0).unwrap();
            }
            uffd.wake();
            assert_eq!(uffd.memory().resident_pages(), WS_PAGES);
            pool[i] = Some(uffd.into_memory());
        }
    });
    let st = cache.stats();
    let extents = layouts[0].extents.len() as u64;
    assert_eq!(st.entries, FNS as u64 * extents, "one index entry per (fn, extent)");
    assert_eq!(st.content_entries, extents, "shared pages held once fleet-wide");
    assert_eq!(
        st.bytes,
        WS_PAGES * PAGE_SIZE as u64,
        "content bytes are one working set, not {FNS} of them"
    );
    assert_eq!(
        st.deduped,
        (FNS as u64 - 1) * extents,
        "every function after the first dedups onto the shared content"
    );
}

/// Recovery-path costs under injected faults — what the failure
/// semantics added on top of the clean paths actually cost end to end:
///
/// * `fault/retry_transient_64mb` — one REAP cold start healing two
///   transient restore faults on its VMM state file, with the working
///   set padded to the 64 MB scale the other groups use. Each op
///   attaches a fresh budgeted injector (the budget burns within one
///   retry loop), so every sample pays the full retry-with-backoff
///   path and must report exactly two retries.
/// * `cluster/invoke_cold_64fn_1shard_dead` — the §6.5 64-request
///   concurrent batch served with one of four shards dead: requests
///   homed on the dead shard re-route to survivors (the warm-up batch
///   pays the one-time state rebuild; measured batches ride the sticky
///   failover table).
fn bench_fault_recovery(r: &mut Report) {
    use std::sync::Arc;

    use sim_storage::{FaultInjector, FaultKind, FaultPlan, FaultRule, FaultScope};
    use vhive_cluster::{ClusterOrchestrator, ColdRequest};
    use vhive_core::{ColdPolicy, Orchestrator};

    let retry_name = "fault/retry_transient_64mb";
    if r.wants(retry_name) {
        let f = FunctionId::helloworld;
        let mut o = Orchestrator::new(0xFA_017);
        o.register(f);
        o.invoke_record(f);
        // Pad the recorded working set up to the 64 MB scale shared by
        // the other `*_64mb` groups.
        let recorded = o.invoke_cold(f, ColdPolicy::Reap).ws_pages;
        o.pad_working_set(f, WS_PAGES.saturating_sub(recorded));
        r.add(retry_name, || {
            let plan = FaultPlan::new().rule(
                FaultRule::new(
                    FaultScope::NameContains("vmm_state".into()),
                    FaultKind::TransientError,
                )
                .count(2),
            );
            o.fs().attach_injector(Arc::new(FaultInjector::new(plan)));
            let out = o.invoke_cold(f, ColdPolicy::Reap);
            assert_eq!(out.recovery.transient_retries, 2, "both faults retried");
            assert_eq!(out.policy, Some(ColdPolicy::Reap), "no fallback");
        });
    }

    let dead_name = "cluster/invoke_cold_64fn_1shard_dead";
    if r.wants(dead_name) {
        let funcs = SERVING_SET;
        let mut cluster = ClusterOrchestrator::new(0xC10_5732, 4);
        for f in funcs {
            cluster.register(f);
            cluster.invoke_record(f);
        }
        cluster.fail_shard(cluster.shard_of(funcs[0]));
        // Shared identities: failover routing re-homes a *function*, and
        // the shadow identities of independent requests never re-route.
        let reqs: Vec<ColdRequest> = (0..64)
            .map(|i| ColdRequest::shared(funcs[i % funcs.len()], ColdPolicy::Reap))
            .collect();
        r.add(dead_name, || {
            let batch = cluster.invoke_concurrent(&reqs);
            assert_eq!(batch.outcomes.len(), 64, "no request dropped");
        });
    }
}

/// The telemetry pipeline's hot paths:
///
/// * `telemetry/record_flush_64fn` — one reporting interval: 64 spans
///   (the §6.5 batch width, spread over 64 function names) recorded into
///   a fresh sink and flushed as checksummed columnar batches. This is
///   the overhead an orchestrator pays per 64-invocation batch when
///   telemetry is on.
/// * `telemetry/report_scan_1m` — the query side: a full percentile
///   report (decode + checksum-verify every batch, group, sort, exact
///   nearest-rank) over a store holding one million synthetic spans.
/// * `telemetry/rollup_64fn` — the metrics layer's build side: stream a
///   4096-span store (64 function names, the fleet shape) into windowed
///   rollup batches with mergeable histograms.
/// * `telemetry/window_query_1m` — the metrics layer's query side: a
///   P99-over-window-range query against a 1M-span store, answered by
///   merging rollup batches alone (read accounting asserts the raw span
///   batches are never rescanned).
fn bench_telemetry(r: &mut Report) {
    use vhive_telemetry::{
        build_rollups, latency_report, synthesize, window_report, TelemetrySink,
        DEFAULT_WINDOW_NS,
    };

    let record_name = "telemetry/record_flush_64fn";
    if r.wants(record_name) {
        let names: Vec<String> = (0..64).map(|i| format!("fn-{i:02}")).collect();
        let name_refs: Vec<&str> = names.iter().map(String::as_str).collect();
        r.add(record_name, || {
            let sink = TelemetrySink::new(FileStore::new());
            synthesize(&sink, 0xBEAC0, 64, 4, &name_refs);
            assert_eq!(sink.flushed_spans(), 64);
        });
    }

    let scan_name = "telemetry/report_scan_1m";
    if r.wants(scan_name) {
        let store = FileStore::new();
        synthesize(
            &TelemetrySink::new(store.clone()),
            42,
            1_000_000,
            3,
            &["helloworld", "chameleon", "pyaes", "json_serdes"],
        );
        r.add(scan_name, || {
            let report = latency_report(&store);
            assert_eq!(report.total_count(), 1_000_000);
            assert_eq!(report.scan.batches_dropped, 0);
        });
    }

    let rollup_name = "telemetry/rollup_64fn";
    if r.wants(rollup_name) {
        let names: Vec<String> = (0..64).map(|i| format!("fn-{i:02}")).collect();
        let name_refs: Vec<&str> = names.iter().map(String::as_str).collect();
        let store = FileStore::new();
        synthesize(&TelemetrySink::new(store.clone()), 0xBEAC0, 4096, 4, &name_refs);
        r.add(rollup_name, || {
            let (built, scan) = build_rollups(&store, DEFAULT_WINDOW_NS);
            assert_eq!(built.spans, 4096);
            assert_eq!(scan.batches_dropped, 0);
            assert!(built.cells > 0 && built.batches > 0);
        });
    }

    let query_name = "telemetry/window_query_1m";
    if r.wants(query_name) {
        let store = FileStore::new();
        synthesize(
            &TelemetrySink::new(store.clone()),
            42,
            1_000_000,
            3,
            &["helloworld", "chameleon", "pyaes", "json_serdes"],
        );
        let (built, _) = build_rollups(&store, DEFAULT_WINDOW_NS);
        r.add(query_name, || {
            let reads_before = store.read_calls();
            let report = window_report(&store, 100, 200);
            let query_reads = store.read_calls() - reads_before;
            assert!(
                query_reads <= built.batches,
                "window query must touch rollup batches only \
                 ({query_reads} reads vs {} rollup batches)",
                built.batches
            );
            assert!(report.total_count() > 0);
            assert_eq!(report.scan.batches_dropped, 0);
        });
    }
}

fn bench_timeline(r: &mut Report, fs: &FileStore) {
    if !r.wants("timeline/2000_serial_faults") {
        return;
    }
    let file = fs.create("bench/timeline-mem");
    fs.set_len(file, 65536 * PAGE_SIZE as u64);
    let steps: Vec<TimedStep> = std::iter::once(TimedStep::Phase(Phase::Processing))
        .chain((0..2000u64).flat_map(|i| {
            [
                TimedStep::Cpu(SimDuration::from_micros(50)),
                TimedStep::FaultRead {
                    file,
                    page: i * 13,
                    file_pages: 65536,
                },
            ]
        }))
        .collect();
    r.add("timeline/2000_serial_faults", || {
        let mut tl = Timeline::new(Disk::ssd(), 48);
        let results = tl.run(vec![InstanceProgram {
            arrival: SimTime::ZERO,
            steps: steps.clone(),
        }]);
        assert_eq!(results.len(), 1);
    });
}

/// The timed pass of one `vanilla_fault` benchmark op: 16 independent
/// Vanilla cold starts (~57k `FaultRead` steps, ~13k of which miss and
/// admit a 32-page readahead cluster) merged onto one fresh timeline.
fn bench_timeline_vanilla_batch(r: &mut Report) {
    use vhive_core::{ColdPolicy, ColdRequest, Orchestrator};

    let name = "timeline/vanilla_batch_16fn";
    if !r.wants(name) {
        return;
    }
    let mut orch = Orchestrator::new(0xC10_5732);
    for f in SERVING_SET {
        orch.register(f);
    }
    let programs: Vec<InstanceProgram> = (0..16)
        .map(|i| {
            orch.prepare(&ColdRequest::independent(SERVING_SET[i % SERVING_SET.len()], ColdPolicy::Vanilla))
                .expect("no faults injected")
                .take_program()
        })
        .collect();
    r.add(name, || {
        let results = orch.timeline().run(programs.clone());
        assert_eq!(results.len(), 16);
    });
}

/// Pulls `"name": {"median_ns": N, "samples": M}` triples out of a
/// baseline JSON emitted by this binary (hand-rolled: the build container
/// has no serde_json).
fn parse_baseline(text: &str) -> Vec<(String, u64, u32)> {
    let field_after = |line: &str, field: &str| -> Option<u64> {
        let pos = line.find(field)?;
        let digits: String = line[pos + field.len()..]
            .chars()
            .skip_while(|c| c.is_whitespace())
            .take_while(|c| c.is_ascii_digit())
            .collect();
        digits.parse().ok()
    };
    let mut out = Vec::new();
    for line in text.lines() {
        if !line.contains("\"median_ns\":") {
            continue;
        }
        let name = match line.trim().strip_prefix('"').and_then(|r| r.split('"').next()) {
            Some(n) => n.to_string(),
            None => continue,
        };
        if let Some(median) = field_after(line, "\"median_ns\":") {
            let samples = field_after(line, "\"samples\":").unwrap_or(0) as u32;
            out.push((name, median, samples));
        }
    }
    out
}

/// Relative slowdown a group must exceed to fail the gate. Medians are
/// machine-dependent, so the checked-in baseline is only an absolute
/// reference for roughly comparable hardware; 3x headroom absorbs that
/// spread while still catching algorithmic regressions (the batching
/// work this gate protects won 2.6–1200x).
const REGRESSION_FACTOR: f64 = 3.0;

/// A regression must also exceed this absolute slowdown (1 ms) to fail
/// the gate: microsecond-scale groups on shared CI runners can easily
/// move 3x on scheduler noise alone, and a sub-millisecond delta is
/// never the regression this gate exists to catch.
const NOISE_FLOOR_NS: u64 = 1_000_000;

/// Compares fresh numbers to a baseline; returns the failing groups,
/// each carrying its per-group delta factor (`now / baseline`) so a
/// failing CI log is triage-ready without rerunning anything. Baseline
/// groups excluded by `--filter` are skipped, not reported missing.
fn regressions(baseline: &[(String, u64, u32)], fresh: &Report, factor: f64) -> Vec<String> {
    let mut failed = Vec::new();
    for (name, old_ns, _) in baseline {
        if !fresh.wants(name) {
            continue;
        }
        let Some((_, new_ns, _)) = fresh.entries.iter().find(|(n, _, _)| n == name) else {
            failed.push(format!("{name}: missing from this run"));
            continue;
        };
        let ratio = *new_ns as f64 / (*old_ns).max(1) as f64;
        let regressed = ratio > factor && new_ns.saturating_sub(*old_ns) > NOISE_FLOOR_NS;
        let verdict = if regressed { "REGRESSED" } else { "ok" };
        eprintln!("  {name}: baseline {old_ns} ns, now {new_ns} ns (delta factor {ratio:.2}x) {verdict}");
        if regressed {
            failed.push(format!(
                "{name}: delta factor {ratio:.2}x (baseline {old_ns} ns -> {new_ns} ns; \
                 threshold {factor}x and > {} ms absolute)",
                NOISE_FLOOR_NS / 1_000_000
            ));
        }
    }
    failed
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let flag_value = |flag: &str| -> Option<String> {
        args.iter()
            .position(|a| a == flag)
            .map(|i| args.get(i + 1).unwrap_or_else(|| panic!("{flag} needs a path")).clone())
    };
    let out_path = flag_value("--out");
    let check_path = flag_value("--check");
    let filter = flag_value("--filter");

    let fs = FileStore::new();
    let pages = ws_layout();
    let mut report = Report { entries: Vec::new(), filter };
    match &report.filter {
        Some(f) => eprintln!("running microbench groups matching \"{f}\"..."),
        None => eprintln!("running microbench groups (64 MB working set, {WS_PAGES} pages)..."),
    }
    bench_buddy(&mut report);
    bench_restore_shell(&mut report);
    bench_parcopy(&mut report);
    bench_uffd(&mut report, &fs);
    bench_ws_file(&mut report, &fs, &pages);
    bench_prefetch(&mut report, &fs, &pages);
    bench_prefetch_lanes(&mut report, &fs, &pages);
    bench_frame_cache(&mut report, &fs, &pages);
    bench_fault_path(&mut report, &fs, &pages);
    bench_timeline(&mut report, &fs);
    bench_timeline_vanilla_batch(&mut report);
    bench_cluster(&mut report);
    bench_router(&mut report);
    bench_fault_recovery(&mut report);
    bench_telemetry(&mut report);
    // Last, so every group above still runs after the allocation history
    // it was baselined under (this one frees six boots' worth of
    // 150-256 MB allocations).
    bench_boot_capture_redeploy(&mut report);
    assert!(
        !report.entries.is_empty(),
        "--filter matched no benchmark group"
    );

    let json = report.to_json();
    print!("{json}");
    if let Some(path) = &out_path {
        // A filtered refresh merges into the existing baseline: only the
        // re-measured groups change, everything else is carried over, so
        // `--filter cluster --out BENCH_fault_path.json` never drops the
        // unmatched groups' entries.
        let to_write = if report.filter.is_some() && std::path::Path::new(path).exists() {
            let old = std::fs::read_to_string(path)
                .unwrap_or_else(|e| panic!("reading {path} for merge: {e}"));
            let mut merged = parse_baseline(&old);
            for &(name, median, n) in &report.entries {
                match merged.iter_mut().find(|(m, _, _)| m == name) {
                    Some(entry) => *entry = (name.to_string(), median, n),
                    None => merged.push((name.to_string(), median, n)),
                }
            }
            entries_to_json(&merged)
        } else {
            json.clone()
        };
        std::fs::write(path, &to_write).unwrap_or_else(|e| panic!("writing {path}: {e}"));
        eprintln!("wrote {path}");
    }
    if let Some(path) = &check_path {
        let text =
            std::fs::read_to_string(path).unwrap_or_else(|e| panic!("reading {path}: {e}"));
        let baseline = parse_baseline(&text);
        assert!(!baseline.is_empty(), "no groups parsed from {path}");
        eprintln!(
            "checking against {path} (fail threshold: {REGRESSION_FACTOR}x and > {} ms absolute):",
            NOISE_FLOOR_NS / 1_000_000
        );
        let failed = regressions(&baseline, &report, REGRESSION_FACTOR);
        if !failed.is_empty() {
            eprintln!("PERF REGRESSION vs {path}:");
            for f in &failed {
                eprintln!("  {f}");
            }
            eprintln!(
                "if this slowdown is intentional, refresh the baseline with:\n  \
                 cargo run -p vhive-bench --release --bin bench-json -- --out {path}"
            );
            std::process::exit(1);
        }
        eprintln!("all groups within {REGRESSION_FACTOR}x of baseline");
    }
}
