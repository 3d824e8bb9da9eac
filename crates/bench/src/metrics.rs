//! `metrics`: the telemetry and fleet-metrics query surface, in three
//! modes:
//!
//! * **Windowed rollup query** (default) — synthesize a span store, build
//!   the windowed rollup (`telemetry/rollup-` batches, one per
//!   [`DEFAULT_WINDOW_NS`]), and answer a percentile query over every
//!   window by merging histogram buckets —
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
//!
//! Flags: `--synth N` (default 10000), `--seed S` (default 42),
//! `--shards K` (default 3), `--exact`, `--invoke N` (with `--exact`,
//! instead of `--synth`), `--expose`. The synthetic spans always name
//! the same four functions; a query over a narrower window range is
//! [`window_report`]'s `lo..hi`.

use functionbench::FunctionId;
use sim_core::MetricsRegistry;
use sim_storage::FileStore;
use vhive_cluster::ClusterOrchestrator;
use vhive_core::ColdPolicy;
use vhive_telemetry::{
    attribution_report, build_rollups, latency_report, synthesize, window_report, TelemetrySink,
    DEFAULT_WINDOW_NS,
};

use crate::cli::{Args, Mode};

const SEED: u64 = 42;
const SHARDS: u32 = 3;

/// The function names the synthetic spans carry.
const SPAN_FUNCTIONS: &[&str] = &["helloworld", "chameleon", "pyaes", "json_serdes"];

/// `metrics [--exact [--invoke N] | --expose] [flags]`.
pub fn run(a: &Args) -> Result<(), String> {
    match a.mode {
        Mode::Window => run_window_query(a),
        Mode::Exact => run_exact(a),
        Mode::Expose => run_expose(a),
    }
    Ok(())
}

/// The seeded synthetic span stream, flushed into a fresh store, and its
/// length.
fn synth_store(a: &Args) -> (FileStore, u64) {
    let store = FileStore::new();
    let n = a.synth.unwrap_or(10_000);
    let (seed, shards) = (a.seed.unwrap_or(SEED), a.shards.unwrap_or(SHARDS));
    synthesize(&TelemetrySink::new(store.clone()), seed, n, shards, SPAN_FUNCTIONS);
    (store, n)
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

/// Default mode: windowed rollup query + attribution over every window,
/// no raw rescan.
fn run_window_query(a: &Args) {
    let seed = a.seed.unwrap_or(SEED);
    let (store, synth) = synth_store(a);

    let (built, scan) = build_rollups(&store, DEFAULT_WINDOW_NS);
    if let Some(warn) = scan.drop_warning() {
        println!("{warn}");
    }
    let reads_before = store.read_calls();
    let report = window_report(&store, 0, u64::MAX);
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
    crate::emit(
        &format!(
            "Windowed metrics: {synth} spans, {} ms windows, range [0..), \
             {} of {} spans covered, seed {seed}",
            DEFAULT_WINDOW_NS / 1_000_000,
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
    vhive_telemetry::for_each_rollup_row(&store, |k, c| cells.push((k.clone(), c.clone())));
    let attribution = attribution_report(cells.iter().map(|(k, c)| (k, c)));
    crate::emit(
        "Virtual-time attribution, range [0..): where each policy's latency goes",
        "Mean virtual milliseconds per invocation and phase. disk_ms =\n\
         load_vmm + fetch_ws (the REAP-serialized phases); overlap_ms =\n\
         serial phase sum minus observed latency (time won back by\n\
         pipelining).",
        &attribution.table(),
    );
}
