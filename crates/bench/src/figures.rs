//! Table 1 and the paper's figures (§4, §6): one subcommand each.

use functionbench::FunctionId;
use sim_core::Table;
use vhive_core::detect::contiguity;
use vhive_core::report::{faults_eliminated_pct, fmt_ms0, geo_mean_speedup, speedup};
use vhive_cluster::{cluster_concurrent, ClusterOrchestrator, ClusterScalePoint};
use vhive_core::{working_set_overlap, ColdPolicy};

use crate::cli::Args;
use crate::{emit, orchestrator};

/// Table 1: the serverless functions adopted from FunctionBench.
pub fn table1(_: &Args) -> Result<(), String> {
    let mut t = Table::new(&["name", "description", "input (KB)", "warm (ms)"]);
    for f in crate::suite() {
        let s = f.spec();
        t.row(&[
            s.name,
            s.description,
            &format!("{}-{}", s.input_kb.0, s.input_kb.1),
            &format!("{:.0}", s.warm_ms),
        ]);
    }
    emit(
        "Table 1: Serverless functions adopted from FunctionBench",
        "Nine FunctionBench Python workloads plus helloworld (§6.1).",
        &t,
    );
    Ok(())
}

/// Fig 2: cold-start latency breakdown for Firecracker's snapshot load
/// mechanism, compared to the warm latency of the same functions.
///
/// Columns mirror the paper's stacked bars: Load VMM, Connection
/// restoration, Function processing; the paper's measured totals are shown
/// for comparison.
pub fn fig2(a: &Args) -> Result<(), String> {
    let mut orch = orchestrator();
    let mut t = Table::new(&[
        "function",
        "warm (ms)",
        "cold (ms)",
        "load VMM",
        "conn restore",
        "processing",
        "paper warm",
        "paper cold",
    ]);
    t.numeric();
    for f in a.suite() {
        orch.register(f);
        let warm = orch.invoke_warm(f);
        orch.release_warm(f);
        let cold = orch.invoke_cold(f, ColdPolicy::Vanilla);
        let paper = &f.spec().paper;
        t.row(&[
            f.name(),
            &fmt_ms0(warm.latency),
            &fmt_ms0(cold.latency),
            &fmt_ms0(cold.breakdown.load_vmm),
            &fmt_ms0(cold.breakdown.conn_restore),
            &fmt_ms0(cold.breakdown.processing),
            &format!("{:.0}", paper.warm_ms),
            &format!("{:.0}", paper.cold_ms),
        ]);
        orch.unregister(f);
    }
    emit(
        "Fig 2: Cold-start latency breakdown (vanilla snapshots) vs warm",
        "Methodology per §4.1: page cache flushed before each cold invocation;\n\
         latency from invocation arrival at the worker to response readiness.",
        &t,
    );
    Ok(())
}

/// Fig 3: guest memory pages contiguity.
///
/// Mean length of the contiguous guest-physical regions a cold invocation
/// faults on — the paper finds 2-3 pages for all functions except
/// lr_training (~5), which is why the host's readahead cannot help the
/// baseline (§4.2).
pub fn fig3(a: &Args) -> Result<(), String> {
    let mut orch = orchestrator();
    let mut t = Table::new(&[
        "function",
        "mean region (pages)",
        "regions",
        "ws pages",
        "1-page",
        "2-3 pages",
        "4+ pages",
        "paper",
    ]);
    t.numeric();
    for f in a.suite() {
        orch.register(f);
        let out = orch.invoke_cold(f, ColdPolicy::Vanilla);
        let stats = contiguity(&out.touched);
        let one = stats.histogram.fraction(1);
        let two_three = stats.histogram.fraction(2) + stats.histogram.fraction(3);
        let four_plus: f64 = (4..33).map(|i| stats.histogram.fraction(i)).sum();
        let paper = if f == FunctionId::lr_training {
            "~5"
        } else {
            "2-3"
        };
        t.row(&[
            f.name(),
            &format!("{:.2}", stats.mean_run),
            &stats.regions.to_string(),
            &stats.pages.to_string(),
            &format!("{:.0}%", one * 100.0),
            &format!("{:.0}%", two_three * 100.0),
            &format!("{:.0}%", four_plus * 100.0),
            paper,
        ]);
        orch.unregister(f);
    }
    emit(
        "Fig 3: Guest memory pages contiguity",
        "Contiguous-region statistics over the pages faulted during one cold\n\
         invocation (region = maximal run of consecutive guest-physical pages).",
        &t,
    );
    Ok(())
}

/// Fig 4: memory footprint of function instances after one invocation —
/// freshly booted vs restored from a snapshot.
///
/// The paper: booted instances occupy 148-256 MB; snapshot-restored ones
/// touch only their working set, 8-99 MB (24 MB average) — a 61-96%
/// reduction, because boot-time logic (guest OS bring-up, imports,
/// initialization) is never re-executed.
pub fn fig4(a: &Args) -> Result<(), String> {
    let mut orch = orchestrator();
    let mut t = Table::new(&[
        "function",
        "booted (MB)",
        "restored ws (MB)",
        "reduction",
        "paper booted",
    ]);
    t.numeric();
    let mut ws_sum = 0.0;
    let mut n = 0u32;
    for f in a.suite() {
        let info = orch.register(f);
        let out = orch.invoke_cold(f, ColdPolicy::Vanilla);
        let booted = info.boot_footprint_bytes as f64 / 1e6;
        let ws = out.footprint_bytes as f64 / 1e6;
        ws_sum += ws;
        n += 1;
        t.row(&[
            f.name(),
            &format!("{booted:.0}"),
            &format!("{ws:.1}"),
            &format!("{:.0}%", (1.0 - ws / booted) * 100.0),
            &format!("{} MB", f.spec().boot_footprint_mb),
        ]);
        orch.unregister(f);
    }
    emit(
        "Fig 4: Memory footprint after one invocation (booted vs restored)",
        "Booted footprint measured ps-style on the instance; restored footprint\n\
         is the set of pages actually faulted in while serving the invocation.",
        &t,
    );
    println!(
        "mean restored working set: {:.1} MB (paper: 24 MB average, 8-99 MB range)",
        ws_sum / n as f64
    );
    Ok(())
}

/// Fig 5: number of pages that are unique or the same across invocations
/// with different inputs.
///
/// The paper: for 7 of 10 functions >97% of pages recur; the large-input
/// functions (image_rotate, json_serdes, lr_training, video_processing)
/// reuse less but still >76% — the stability REAP exploits.
pub fn fig5(a: &Args) -> Result<(), String> {
    let mut orch = orchestrator();
    let mut t = Table::new(&[
        "function",
        "ws pages",
        "same",
        "unique",
        "reuse",
        "paper reuse",
    ]);
    t.numeric();
    for f in a.suite() {
        orch.register(f);
        // Two cold invocations with different inputs (§4.4 methodology).
        let first = orch.invoke_cold(f, ColdPolicy::Vanilla);
        let second = orch.invoke_cold(f, ColdPolicy::Vanilla);
        let o = working_set_overlap(&first.touched, &second.touched);
        let paper = match f.name() {
            "image_rotate" | "json_serdes" | "lr_training" | "video_processing" => ">76%",
            _ => ">97%",
        };
        t.row(&[
            f.name(),
            &(o.same + o.only_a).to_string(),
            &o.same.to_string(),
            &o.only_a.to_string(),
            &format!("{:.1}%", o.reuse_fraction() * 100.0),
            paper,
        ]);
        orch.unregister(f);
    }
    emit(
        "Fig 5: Pages same vs unique across invocations with different inputs",
        "Guest-physical page sets of two cold invocations of each function,\n\
         different inputs; 'same' pages recur thanks to the restored buddy-\n\
         allocator state (§4.4).",
        &t,
    );
    Ok(())
}

/// Fig 7: REAP optimization steps on helloworld.
///
/// The four design points of §6.2: vanilla snapshots (232 ms in the
/// paper), parallel page-fault handling (118 ms), the WS file read through
/// the page cache (71 ms), and full REAP with O_DIRECT (60 ms).
pub fn fig7(_: &Args) -> Result<(), String> {
    let f = FunctionId::helloworld;
    let mut orch = orchestrator();
    orch.register(f);
    orch.invoke_record(f);

    let paper_ms = [232.0, 118.0, 71.0, 60.0];
    let mut t = Table::new(&[
        "design point",
        "total (ms)",
        "load VMM",
        "fetch ws",
        "install ws",
        "conn restore",
        "processing",
        "paper (ms)",
    ]);
    t.numeric();
    for (i, policy) in ColdPolicy::ALL.into_iter().enumerate() {
        let out = orch.invoke_cold(f, policy);
        t.row(&[
            policy.name(),
            &fmt_ms0(out.latency),
            &fmt_ms0(out.breakdown.load_vmm),
            &fmt_ms0(out.breakdown.fetch_ws),
            &fmt_ms0(out.breakdown.install_ws),
            &fmt_ms0(out.breakdown.conn_restore),
            &fmt_ms0(out.breakdown.processing),
            &format!("{:.0}", paper_ms[i]),
        ]);
    }
    emit(
        "Fig 7: REAP optimization steps (helloworld)",
        "Each design point changes only how working-set pages reach guest\n\
         memory; §6.2 explains why each step wins: parallelism, then one big\n\
         read, then bypassing the page cache.",
        &t,
    );
    Ok(())
}

/// Fig 8: cold-start delay with baseline snapshots vs REAP, all functions.
///
/// The paper: REAP makes invocations 1.04-9.7x faster, 3.7x geometric
/// mean; connection restoration shrinks ~45x; 97% of faults eliminated.
pub fn fig8(a: &Args) -> Result<(), String> {
    let mut orch = orchestrator();
    let mut t = Table::new(&[
        "function",
        "baseline (ms)",
        "REAP (ms)",
        "speedup",
        "faults gone",
        "paper base",
        "paper REAP",
        "paper speedup",
    ]);
    t.numeric();
    let mut pairs = Vec::new();
    let mut elim = Vec::new();
    for f in a.suite() {
        orch.register(f);
        let vanilla = orch.invoke_cold(f, ColdPolicy::Vanilla);
        orch.invoke_record(f);
        let reap = orch.invoke_cold(f, ColdPolicy::Reap);
        let paper = &f.spec().paper;
        t.row(&[
            f.name(),
            &fmt_ms0(vanilla.latency),
            &fmt_ms0(reap.latency),
            &format!("{:.2}x", speedup(vanilla.latency, reap.latency)),
            &format!("{:.1}%", faults_eliminated_pct(&reap)),
            &format!("{:.0}", paper.cold_ms),
            &format!("{:.0}", paper.reap_ms),
            &format!("{:.2}x", paper.cold_ms / paper.reap_ms),
        ]);
        pairs.push((vanilla.latency, reap.latency));
        elim.push(faults_eliminated_pct(&reap));
        orch.unregister(f);
    }
    emit(
        "Fig 8: Cold-start delay, baseline snapshots vs REAP",
        "Record once (first invocation), then prefetch; different inputs per\n\
         invocation, page cache flushed before each cold start (§4.1).",
        &t,
    );
    if let Some(g) = geo_mean_speedup(&pairs) {
        println!("geometric-mean speedup: {g:.2}x (paper: 3.7x)");
    }
    let mean_elim = elim.iter().sum::<f64>() / elim.len().max(1) as f64;
    println!("mean faults eliminated: {mean_elim:.1}% (paper: 97%)");
    Ok(())
}

/// Fig 9: average instance cold-start delay while sweeping the number of
/// concurrently-loading instances (independent helloworld-class
/// functions), both through the cluster's request path:
///
/// * **Fig 9** — the paper's sweep: baseline vs REAP over concurrency,
///   each level one batch of independent cold requests, each with its own
///   input, on one cluster of `--shards` shards (1 by default);
/// * **Fig 9c** — the cluster sweep over shard counts (all of them, or
///   the one `--shards` names). Shards move only the control plane's
///   *wall-clock* serving time — all shards' timed programs merge onto
///   one shared disk, so simulated numbers are shard-invariant by design
///   (pinned by the vhive-cluster proptests).
///
/// The paper: the baseline grows near-linearly (its useful SSD bandwidth
/// saturates at ~81 MB/s because readahead drags in mostly-unused
/// clusters), while REAP stays low until it becomes disk-bandwidth-bound
/// around 16 concurrent loads (118-493 MB/s useful).
pub fn fig9(a: &Args) -> Result<(), String> {
    let quick = a.quick;
    let f = FunctionId::helloworld;
    let mut cluster = ClusterOrchestrator::new(0xA5_1405, a.shards.unwrap_or(1) as usize);
    cluster.register(f);
    cluster.invoke_record(f);

    let levels: &[usize] = if quick { &[1, 8, 16] } else { &[1, 2, 4, 8, 16, 32, 64] };
    let mut sweep = |policy| -> Vec<ClusterScalePoint> {
        levels
            .iter()
            .map(|&n| cluster_concurrent(&mut cluster, &[f], policy, n))
            .collect()
    };
    let vanilla = sweep(ColdPolicy::Vanilla);
    let reap = sweep(ColdPolicy::Reap);

    let mut t = Table::new(&[
        "concurrency",
        "baseline avg (ms)",
        "REAP avg (ms)",
        "baseline useful MB/s",
        "REAP useful MB/s",
        "baseline raw MB/s",
    ]);
    t.numeric();
    for (v, r) in vanilla.iter().zip(&reap) {
        t.row(&[
            &v.concurrency.to_string(),
            &format!("{:.0}", v.mean_latency.as_millis_f64()),
            &format!("{:.0}", r.mean_latency.as_millis_f64()),
            &format!("{:.0}", v.useful_mbps),
            &format!("{:.0}", r.useful_mbps),
            &format!("{:.0}", v.device_mbps),
        ]);
    }
    emit(
        "Fig 9: Cold-start delay vs number of concurrently loading instances",
        "Independent functions (separate snapshots, no page-cache sharing);\n\
         useful MB/s = working-set bytes / makespan, the paper's §6.5 metric.\n\
         Paper anchors: baseline 32->81 MB/s useful; REAP 118-493 MB/s,\n\
         disk-bound from concurrency ~16.",
        &t,
    );

    let shard_counts: Vec<usize> = match a.shards {
        Some(n) => vec![n as usize],
        None if quick => vec![1, 2],
        None => vec![1, 2, 4],
    };
    let funcs = [FunctionId::helloworld, FunctionId::chameleon, FunctionId::pyaes];
    let n = if quick { 12 } else { 24 };
    let points = vhive_cluster::shard_sweep(0xA5_1405, &funcs, ColdPolicy::Reap, &shard_counts, n);
    let mut t = Table::new(&["shards", "REAP avg (ms)", "makespan (ms)", "useful MB/s"]);
    t.numeric();
    for p in &points {
        t.row(&[
            &p.shards.to_string(),
            &format!("{:.0}", p.mean_latency.as_millis_f64()),
            &format!("{:.0}", p.makespan.as_millis_f64()),
            &format!("{:.0}", p.useful_mbps),
        ]);
    }
    emit(
        &format!("Fig 9c: cluster shard sweep ({n} concurrent REAP instances)"),
        "Per-shard stores + scoped-thread serving; all timed programs merge\n\
         onto ONE shared disk, so shards are simulated-invariant (same\n\
         device either way) and move only the control plane's wall-clock\n\
         serving time, printed on stderr below (stdout stays deterministic;\n\
         thread fan-out is gated on the host's cores, so 1-CPU machines\n\
         serve serially).",
        &t,
    );
    // Wall-clock is inherently nondeterministic, so it goes to stderr —
    // figure stdout must stay byte-identical across runs.
    for p in vanilla.iter().chain(&reap).chain(&points) {
        eprintln!(
            "(wall-clock: shards={} served {} {} instances in {:.1} ms)",
            p.shards,
            p.concurrency,
            p.policy.name(),
            p.serve_wall.as_secs_f64() * 1e3,
        );
    }
    Ok(())
}
