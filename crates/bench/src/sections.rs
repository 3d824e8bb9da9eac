//! The paper's in-text results (§2.2, §5.2.3, §6.3-6.4, §7-8): one
//! subcommand each.

use functionbench::FunctionId;
use sim_core::{OnlineStats, Table};
use sim_storage::fio::{large_sequential_read, make_test_file, random_4k_reads, sparse_fault_pattern};
use sim_storage::{DeviceProfile, Disk, FileStore};
use vhive_core::report::{fmt_ms0, geo_mean_speedup, speedup};
use vhive_core::scale::with_warm_background;
use vhive_core::{ColdPolicy, Orchestrator};

use crate::cli::Args;
use crate::{emit, orchestrator};

/// §2.2 context: why snapshots exist at all — full cold boot vs snapshot
/// restore vs REAP.
///
/// Firecracker alone boots in ~125 ms, but inside a production stack the
/// paper measures 700-1300 ms of orchestration plus up to several seconds
/// of in-VM runtime/function bootstrap.
pub fn boot_vs_snapshot(a: &Args) -> Result<(), String> {
    let mut orch = orchestrator();
    let mut t = Table::new(&[
        "function",
        "full boot (ms)",
        "vanilla snapshot (ms)",
        "REAP (ms)",
        "boot/REAP",
    ]);
    t.numeric();
    for f in a.suite() {
        let info = orch.register(f);
        let vanilla = orch.invoke_cold(f, ColdPolicy::Vanilla);
        orch.invoke_record(f);
        let reap = orch.invoke_cold(f, ColdPolicy::Reap);
        t.row(&[
            f.name(),
            &format!("{:.0}", info.boot_latency.as_millis_f64()),
            &fmt_ms0(vanilla.latency),
            &fmt_ms0(reap.latency),
            &format!(
                "{:.0}x",
                info.boot_latency.as_secs_f64() / reap.latency.as_secs_f64()
            ),
        ]);
        orch.unregister(f);
    }
    emit(
        "§2.2: Booting from scratch vs snapshot restoration vs REAP",
        "Boot latency = Firecracker spawn + Containerd pod/rootfs setup +\n\
         guest kernel boot + runtime imports + function init.",
        &t,
    );
    Ok(())
}

/// §5.2.3: the fio-style disk microbenchmark that calibrates the platform.
///
/// The paper's numbers on its Intel SATA3 SSD: 32 MB/s for one outstanding
/// 4 KB read; 360 MB/s for 16 outstanding; 850 MB/s peak; buffered large
/// reads ~275 MB/s effective; REAP's O_DIRECT fetch achieves 533 MB/s
/// end-to-end.
pub fn fio(_: &Args) -> Result<(), String> {
    let fs = FileStore::new();
    let bytes = 512 * 1024 * 1024u64;
    let file = make_test_file(&fs, bytes).map_err(|e| e.to_string())?;

    let mut t = Table::new(&["workload", "throughput (MB/s)", "paper (MB/s)"]);
    t.numeric();

    let r = random_4k_reads(&mut Disk::ssd(), file, bytes, 4000, 1, 1);
    t.row(&["4KB random, QD1, O_DIRECT", &format!("{:.0}", r.mbps()), "32"]);

    let r = random_4k_reads(&mut Disk::ssd(), file, bytes, 16000, 16, 2);
    t.row(&["4KB random, QD16, O_DIRECT", &format!("{:.0}", r.mbps()), "360"]);

    let r = large_sequential_read(&mut Disk::ssd(), file, 64 * 1024 * 1024, true);
    t.row(&["64MB sequential, O_DIRECT", &format!("{:.0}", r.mbps()), "850 (peak)"]);

    let r = large_sequential_read(&mut Disk::ssd(), file, 64 * 1024 * 1024, false);
    t.row(&["64MB sequential, buffered", &format!("{:.0}", r.mbps()), "~275"]);

    let mut d = Disk::ssd();
    let r = sparse_fault_pattern(&mut d, file, bytes, 2048, 2.5, 3);
    let st = d.stats();
    t.row(&[
        "sparse faults (lazy-paging pattern)",
        &format!("{:.0}", r.mbps()),
        "~43 (useful, §6.2)",
    ]);
    let waste = st.device_bytes_read as f64 / st.useful_bytes_read.max(1) as f64;

    emit(
        "§5.2.3: Disk microbenchmark (fio-style)",
        "The tandem-queue SSD model is calibrated so the first three rows\n\
         match the paper's fio results; the rest follow from the model.",
        &t,
    );
    println!("sparse-fault readahead waste: {waste:.1}x raw bytes per useful byte");
    Ok(())
}

/// §6.3 (HDD): REAP's speedup when snapshots live on a 7200 rpm HDD
/// instead of the SSD.
///
/// The paper measures a 5.4x average speedup (vs 3.7x on the SSD): the
/// baseline's seek-dominated serial faults hurt far more on spinning
/// rust, while REAP's single sequential read barely cares.
pub fn hdd(a: &Args) -> Result<(), String> {
    let mut orch = Orchestrator::with_device(0xA5_1405, DeviceProfile::hdd_7200rpm());
    let mut t = Table::new(&[
        "function",
        "baseline HDD (ms)",
        "REAP HDD (ms)",
        "speedup",
    ]);
    t.numeric();
    let mut pairs = Vec::new();
    for f in a.suite() {
        orch.register(f);
        let vanilla = orch.invoke_cold(f, ColdPolicy::Vanilla);
        orch.invoke_record(f);
        let reap = orch.invoke_cold(f, ColdPolicy::Reap);
        t.row(&[
            f.name(),
            &fmt_ms0(vanilla.latency),
            &fmt_ms0(reap.latency),
            &format!("{:.2}x", speedup(vanilla.latency, reap.latency)),
        ]);
        pairs.push((vanilla.latency, reap.latency));
        orch.unregister(f);
    }
    emit(
        "§6.3: Baseline vs REAP with snapshots on a 7200rpm HDD",
        "Same methodology as Fig 8; only the snapshot storage device changes\n\
         (WD2000F9YZ-class SATA3 HDD).",
        &t,
    );
    if let Some(g) = geo_mean_speedup(&pairs) {
        println!("geometric-mean speedup on HDD: {g:.2}x (paper: 5.4x average)");
    }
    Ok(())
}

/// §6.3 robustness check: cold-start latency while 20 warm functions
/// process invocations on the same worker.
///
/// The paper repeats the Fig 8 experiment with background traffic to 20
/// memory-resident functions and finds results within 5%.
pub fn warm_background(_: &Args) -> Result<(), String> {
    let f = FunctionId::helloworld;
    let mut orch = orchestrator();
    orch.register(f);
    orch.invoke_record(f);

    let mut t = Table::new(&["policy", "solo (ms)", "with 20 warm (ms)", "delta"]);
    t.numeric();
    for policy in [ColdPolicy::Vanilla, ColdPolicy::Reap] {
        let (solo, bg) = with_warm_background(&mut orch, f, policy, 20);
        let delta = (bg.as_secs_f64() / solo.as_secs_f64() - 1.0) * 100.0;
        t.row(&[
            policy.name(),
            &format!("{:.1}", solo.as_millis_f64()),
            &format!("{:.1}", bg.as_millis_f64()),
            &format!("{delta:+.1}%"),
        ]);
    }
    emit(
        "§6.3: Cold starts amid invocation traffic to 20 warm functions",
        "Warm instances are memory-resident and contend only for CPU; the\n\
         paper observes <5% perturbation.",
        &t,
    );
    Ok(())
}

/// §6.4: the one-time cost of REAP's record phase.
///
/// The paper: recording increases the first invocation's end-to-end time
/// by 15-87% (28% average) over a vanilla cold start — amortized by every
/// later prefetched invocation.
pub fn record_overhead(a: &Args) -> Result<(), String> {
    let mut orch = orchestrator();
    let mut t = Table::new(&[
        "function",
        "vanilla cold (ms)",
        "record (ms)",
        "overhead",
        "record epilogue (ms)",
    ]);
    t.numeric();
    let mut overheads = Vec::new();
    for f in a.suite() {
        orch.register(f);
        let vanilla = orch.invoke_cold(f, ColdPolicy::Vanilla);
        let record = orch.invoke_record(f);
        let overhead = record.latency.as_secs_f64() / vanilla.latency.as_secs_f64() - 1.0;
        overheads.push(overhead);
        t.row(&[
            f.name(),
            &fmt_ms0(vanilla.latency),
            &fmt_ms0(record.latency),
            &format!("{:.0}%", overhead * 100.0),
            &fmt_ms0(record.breakdown.record_finish),
        ]);
        orch.unregister(f);
    }
    emit(
        "§6.4: REAP record-phase overhead over a vanilla cold start",
        "Record serves every fault through userspace (trace append + offset\n\
         translation) and writes the WS/trace files after the response.",
        &t,
    );
    let mean = overheads.iter().sum::<f64>() / overheads.len().max(1) as f64;
    println!(
        "mean record overhead: {:.0}% (paper: 28% average, 15-87% range)",
        mean * 100.0
    );
    Ok(())
}

/// §7.1: REAP's misprediction cost.
///
/// The fraction of prefetched-but-unused pages tracks the unique-page
/// fraction of Fig 5 (3-39%); mispredictions never affect correctness —
/// they only cost proportionate SSD bandwidth.
pub fn mispredict(a: &Args) -> Result<(), String> {
    let mut orch = orchestrator();
    let mut t = Table::new(&[
        "function",
        "prefetched",
        "used",
        "wasted",
        "waste %",
        "residual faults",
        "verified pages",
    ]);
    t.numeric();
    for f in a.suite() {
        orch.register(f);
        orch.invoke_record(f);
        let out = orch.invoke_cold(f, ColdPolicy::Reap);
        let m = out.misprediction.expect("prefetch reports accuracy");
        t.row(&[
            f.name(),
            &m.fetched.to_string(),
            &m.used.to_string(),
            &m.wasted.to_string(),
            &format!("{:.1}%", m.waste_fraction() * 100.0),
            &m.residual_faults.to_string(),
            &out.verified_pages.to_string(),
        ]);
        orch.unregister(f);
    }
    emit(
        "§7.1: Prefetch accuracy (mispredicted pages per REAP invocation)",
        "Recorded working set vs the pages a later invocation (different\n\
         input) actually touches. Every installed page is verified against\n\
         the snapshot, so mispredictions cannot corrupt state.",
        &t,
    );
    Ok(())
}

/// §7.1: snapshots on disaggregated (S3-like) storage.
///
/// The paper discusses remote snapshot storage: REAP helps even more
/// because it moves a minimal amount of state in one request, while the
/// baseline pays a network round trip per faulted page.
pub fn ablation_remote(_: &Args) -> Result<(), String> {
    let mut t = Table::new(&[
        "function",
        "device",
        "baseline (ms)",
        "REAP (ms)",
        "speedup",
    ]);
    t.numeric();
    let mut pairs_remote = Vec::new();
    for (name, device) in [
        ("local ssd", DeviceProfile::ssd_sata3()),
        ("remote s3-like", DeviceProfile::remote_s3like()),
    ] {
        for f in crate::quick_suite() {
            let mut orch = Orchestrator::with_device(0xA5_1405, device.clone());
            orch.register(f);
            let vanilla = orch.invoke_cold(f, ColdPolicy::Vanilla);
            orch.invoke_record(f);
            let reap = orch.invoke_cold(f, ColdPolicy::Reap);
            t.row(&[
                f.name(),
                name,
                &fmt_ms0(vanilla.latency),
                &fmt_ms0(reap.latency),
                &format!("{:.2}x", speedup(vanilla.latency, reap.latency)),
            ]);
            if name == "remote s3-like" {
                pairs_remote.push((vanilla.latency, reap.latency));
            }
            orch.unregister(f);
        }
    }
    emit(
        "§7.1: Snapshot storage locality — local SSD vs remote object store",
        "Remote profile: ~2 ms request latency, 32-way parallel, 10 GbE\n\
         bandwidth. The per-fault round trip devastates lazy paging; REAP's\n\
         single working-set read mostly hides the distance.",
        &t,
    );
    if let Some(g) = geo_mean_speedup(&pairs_remote) {
        println!("geometric-mean REAP speedup on remote storage: {g:.1}x");
    }
    Ok(())
}

/// Ten REAP invocations of video_processing, the re-record fallback on
/// or off: mean latency, mean residual faults, re-record count.
fn fallback_stream(auto: bool) -> (OnlineStats, u32, OnlineStats) {
    let f = FunctionId::video_processing;
    let mut orch = Orchestrator::new(0xA5_1405);
    if auto {
        orch.set_auto_rerecord(true, 0.10);
    }
    orch.register(f);
    orch.invoke_record(f);
    let mut latencies = OnlineStats::new();
    let mut residuals = OnlineStats::new();
    let mut rerecords = 0;
    for _ in 0..10 {
        let out = orch.invoke_cold(f, ColdPolicy::Reap);
        if out.recorded {
            rerecords += 1;
        }
        latencies.add(out.latency.as_millis_f64());
        residuals.add(out.residual_faults as f64);
    }
    (latencies, rerecords, residuals)
}

/// §7.2: the re-record fallback on a pathological workload.
///
/// video_processing's aspect-ratio-dependent layout defeats a stale
/// recorded working set. With the detector enabled, the orchestrator
/// re-records when residual faults exceed a threshold; this ablation
/// compares REAP with the fallback off vs on over a stream of mixed
/// inputs.
pub fn ablation_fallback(_: &Args) -> Result<(), String> {
    let (off, _, resid_off) = fallback_stream(false);
    let (on, rerecords, resid_on) = fallback_stream(true);

    let mut t = Table::new(&[
        "fallback",
        "mean REAP latency (ms)",
        "mean residual faults",
        "re-records",
    ]);
    t.numeric();
    t.row(&[
        "off",
        &format!("{:.0}", off.mean()),
        &format!("{:.0}", resid_off.mean()),
        "0",
    ]);
    t.row(&[
        "on (threshold 10%)",
        &format!("{:.0}", on.mean()),
        &format!("{:.0}", resid_on.mean()),
        &rerecords.to_string(),
    ]);
    emit(
        "§7.2: Re-record fallback on video_processing's shifting layout",
        "Ten REAP invocations with mixed aspect-ratio inputs. The detector\n\
         compares post-prefetch fault counts to the working-set size and\n\
         refreshes the recording when they exceed the threshold.",
        &t,
    );
    Ok(())
}

/// §8.2 ablation: REAP's invocation-window recording vs profiling-style
/// working-set estimation.
///
/// Prior VM-cloning work estimates working sets by profiling memory
/// accesses after the checkpoint — which also captures guest background
/// activity. The paper argues this bloats the captured set and slows
/// loading; REAP records *exactly* the invocation window. This ablation
/// pads the recorded working set with boot-touched background pages and
/// measures the prefetch-latency penalty.
pub fn ablation_record_window(_: &Args) -> Result<(), String> {
    let f = FunctionId::helloworld;
    let mut orch = orchestrator();
    orch.register(f);
    orch.invoke_record(f);
    let base = orch.invoke_cold(f, ColdPolicy::Reap);
    let ws = base.prefetched_pages;

    let mut t = Table::new(&[
        "recorded set",
        "pages",
        "REAP cold (ms)",
        "fetch ws (ms)",
        "wasted pages",
    ]);
    t.numeric();
    t.row(&[
        "invocation window (REAP)",
        &ws.to_string(),
        &format!("{:.0}", base.latency.as_millis_f64()),
        &format!("{:.1}", base.breakdown.fetch_ws.as_millis_f64()),
        &base.misprediction.map(|m| m.wasted).unwrap_or(0).to_string(),
    ]);

    for pad_pct in [25u64, 100, 400] {
        // Re-record to reset, then pad.
        orch.invoke_record(f);
        let extra = ws * pad_pct / 100;
        orch.pad_working_set(f, extra);
        let out = orch.invoke_cold(f, ColdPolicy::Reap);
        t.row(&[
            &format!("profiled (+{pad_pct}% background)"),
            &out.prefetched_pages.to_string(),
            &format!("{:.0}", out.latency.as_millis_f64()),
            &format!("{:.1}", out.breakdown.fetch_ws.as_millis_f64()),
            &out.misprediction.map(|m| m.wasted).unwrap_or(0).to_string(),
        ]);
    }
    emit(
        "§8.2 ablation: invocation-window recording vs profiling bloat",
        "Padding emulates working-set estimators that profile beyond the\n\
         invocation (SnowFlock-style); every padded page is fetched and\n\
         installed for nothing.",
        &t,
    );
    Ok(())
}
