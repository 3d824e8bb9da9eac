//! `metrics`: the telemetry and fleet-metrics query surface, in four
//! modes:
//!
//! * **Windowed rollup query** (default) — synthesize a span store, build
//!   the windowed rollup (`telemetry/rollup-` batches), and answer a
//!   percentile query over a window range by merging histogram buckets —
//!   the raw span batches are never rescanned (asserted with read
//!   accounting). Prints the windowed percentile table and the
//!   per-policy virtual-time attribution table.
//! * **`--exact`** — the `startled`-style report stage: scan the columnar
//!   span batches, group by function × policy × shard, and print
//!   Min/P50/P95/P99/Max (exact nearest-rank, never interpolated). The
//!   spans are the seeded synthetic stream (`--synth N`, scales to
//!   millions in seconds; `golden-smoke` byte-diffs this output) or
//!   `--invoke N` real cold invocations per policy round-robined through
//!   a telemetry-attached [`ClusterOrchestrator`] — slower, but the
//!   percentiles are the simulator's own.
//! * **`--expose`** — run a small deterministic cluster workload with a
//!   [`MetricsRegistry`] attached and print its Prometheus-style text
//!   exposition (`golden-smoke` byte-diffs this output too).
//! * **`--diff baseline.txt current.txt`** — compare two saved report
//!   files group by group and flag P99 trend regressions (exit code 1 if
//!   any; `--factor F` tunes the gate, default 1.25).
//!
//! Flags: `--synth N` (default 10000), `--seed S` (default 42),
//! `--shards K` (default 3), `--functions a,b,c`, `--window-ms W`
//! (default 1000), `--window A..B` (window-index range, default all),
//! `--exact`, `--invoke N` (with `--exact`, instead of `--synth`),
//! `--expose`, `--diff A B`, `--factor F`.

use functionbench::FunctionId;
use sim_core::MetricsRegistry;
use sim_storage::FileStore;
use vhive_cluster::ClusterOrchestrator;
use vhive_core::ColdPolicy;
use vhive_telemetry::{
    attribution_report, build_rollups, latency_report, synthesize, window_report, TelemetrySink,
};

use crate::cli::{Args, Mode};
use crate::diff::{diff_reports, parse_report_groups};

const SEED: u64 = 42;
const SHARDS: u32 = 3;

/// `metrics [--exact [--invoke N] | --expose | --diff A B [--factor F]] [flags]`.
pub fn run(a: &Args) -> Result<(), String> {
    match &a.mode {
        Mode::Window => run_window_query(a),
        Mode::Exact => run_exact(a),
        Mode::Expose => run_expose(a),
        Mode::Diff(baseline, current) => return run_diff(baseline, current, a.factor),
    }
    Ok(())
}

/// The seeded synthetic span stream, flushed into a fresh store, and its
/// length.
fn synth_store(a: &Args) -> (FileStore, u64) {
    let store = FileStore::new();
    let names: Vec<&str> = a.span_functions.split(',').filter(|s| !s.is_empty()).collect();
    let n = a.synth.unwrap_or(10_000);
    let (seed, shards) = (a.seed.unwrap_or(SEED), a.shards.unwrap_or(SHARDS));
    synthesize(&TelemetrySink::new(store.clone()), seed, n, shards, &names);
    (store, n)
}

/// `--diff baseline current [--factor F]`: trend regression between two
/// saved reports.
fn run_diff(baseline_path: &str, current_path: &str, factor: f64) -> Result<(), String> {
    let read = |path: &str| {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        let groups = parse_report_groups(&text);
        if groups.is_empty() {
            return Err(format!("{path}: no report CSV found"));
        }
        Ok(groups)
    };
    let baseline = read(baseline_path)?;
    let current = read(current_path)?;
    let out = diff_reports(&baseline, &current, factor);
    println!(
        "== Metrics diff: {} baseline groups vs {} current, factor {factor} ==",
        baseline.len(),
        current.len()
    );
    if out.lines.is_empty() {
        println!("no changes beyond the gate");
    }
    for line in &out.lines {
        println!("{line}");
    }
    if out.regressions > 0 {
        println!("{} P99 regression(s) beyond x{factor}", out.regressions);
        std::process::exit(1);
    }
    Ok(())
}

/// `--expose`: deterministic cluster workload → Prometheus exposition.
fn run_expose(a: &Args) {
    let shards = a.shards.unwrap_or(SHARDS) as usize;
    let registry = MetricsRegistry::new();
    let mut c = ClusterOrchestrator::new(a.seed.unwrap_or(SEED), shards);
    c.set_metrics(Some(registry.clone()));
    let funcs = [FunctionId::helloworld, FunctionId::pyaes];
    for f in funcs {
        c.register(f);
        c.invoke_record(f);
    }
    for (i, &policy) in ColdPolicy::ALL.iter().enumerate() {
        c.invoke_cold(funcs[i % funcs.len()], policy);
    }
    c.invoke_warm(funcs[0]);
    // Exercise the cluster-level series: one failover round trip.
    if shards > 1 {
        c.fail_shard(shards - 1);
        c.revive_shard(shards - 1);
    }
    print!("{}", registry.expose());
}

/// `--exact`: exact percentiles straight from the span batches.
fn run_exact(a: &Args) {
    let (seed, shards) = (a.seed.unwrap_or(SEED), a.shards.unwrap_or(SHARDS));
    let (store, source, n) = if let Some(n) = a.invoke {
        // Real invocations: every function recorded once, then N cold
        // starts round-robined over the four policies (plus a warm hit
        // each round so the warm floor shows up in the table).
        let store = FileStore::new();
        let sink = TelemetrySink::new(store.clone());
        let funcs = [FunctionId::helloworld, FunctionId::pyaes];
        let mut c = ClusterOrchestrator::new(seed, shards as usize);
        c.set_telemetry(Some(sink.clone()));
        for f in funcs {
            c.register(f);
            c.invoke_record(f);
        }
        for i in 0..n {
            let f = funcs[(i % funcs.len() as u64) as usize];
            c.invoke_cold(f, ColdPolicy::ALL[(i % 4) as usize]);
            c.invoke_warm(f);
        }
        sink.flush();
        (store, "invoked", n)
    } else {
        let (store, n) = synth_store(a);
        (store, "synthetic", n)
    };

    let report = latency_report(&store);
    eprintln!(
        "(scanned {} spans across {} batches, {} dropped)",
        report.scan.rows, report.scan.batches_ok, report.scan.batches_dropped
    );
    if let Some(warn) = report.scan.drop_warning() {
        println!("{warn}");
    }
    crate::emit(
        &format!(
            "Telemetry report: {n} {source} spans, {shards} shards, seed {seed}, \
             {} groups, {} batches ok, {} dropped",
            report.groups.len(),
            report.scan.batches_ok,
            report.scan.batches_dropped
        ),
        "Exact nearest-rank percentiles per function x policy x shard,\n\
         scanned from checksummed columnar batches (corrupt or truncated\n\
         batches are dropped, never parsed). Same API as\n\
         vhive_telemetry::latency_report.",
        &report.table(),
    );
}

/// Default mode: windowed rollup query + attribution, no raw rescan.
fn run_window_query(a: &Args) {
    let (seed, window_ms, (lo, hi)) = (a.seed.unwrap_or(SEED), a.window_ms, a.window);
    let (store, synth) = synth_store(a);

    let (built, scan) = build_rollups(&store, window_ms * 1_000_000);
    if let Some(warn) = scan.drop_warning() {
        println!("{warn}");
    }
    let reads_before = store.read_calls();
    let report = window_report(&store, lo, hi);
    let query_reads = store.read_calls() - reads_before;
    if let Some(warn) = report.scan.drop_warning() {
        println!("{warn}");
    }
    assert!(
        query_reads <= built.batches,
        "window query read {query_reads} files but only {} rollup batches exist — \
         it must never rescan raw span batches",
        built.batches
    );
    eprintln!(
        "(rollup: {} spans -> {} cells in {} batches; query read {query_reads} \
         rollup batches, no span rescan)",
        built.spans, built.cells, built.batches
    );
    let window_label = if hi == u64::MAX {
        format!("[{lo}..)")
    } else {
        format!("[{lo}..{hi})")
    };
    crate::emit(
        &format!(
            "Windowed metrics: {synth} spans, {window_ms} ms windows, range {window_label}, \
             {} of {} spans covered, seed {seed}",
            report.total_count(),
            built.spans
        ),
        "P50/P95/P99 merged from log-bucketed rollup histograms (error bound\n\
         <= 1/32 of the exact nearest-rank value; count/min/max exact). The\n\
         query touches rollup batches only — raw span batches are never\n\
         rescanned, asserted above via read accounting.",
        &report.table(),
    );
    println!();
    let mut cells = Vec::new();
    vhive_telemetry::for_each_rollup_row(&store, |k, c| {
        if k.window >= lo && k.window < hi {
            cells.push((k.clone(), c.clone()));
        }
    });
    let attribution = attribution_report(cells.iter().map(|(k, c)| (k, c)));
    crate::emit(
        &format!(
            "Virtual-time attribution, range {window_label}: where each policy's \
             latency goes"
        ),
        "Mean virtual milliseconds per invocation and phase. disk_ms =\n\
         load_vmm + fetch_ws (the REAP-serialized phases); overlap_ms =\n\
         serial phase sum minus observed latency (time won back by\n\
         pipelining).",
        &attribution.table(),
    );
}
