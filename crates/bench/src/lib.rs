//! # vhive-bench
//!
//! The benchmark harness: one binary per table/figure of the paper's
//! evaluation, plus ablations, the golden-file reports and the host-time
//! micro gate. Every figure binary prints the regenerated figure as a
//! text table with the paper's reported numbers alongside, and a CSV
//! block for post-processing.
//!
//! | binary | reproduces |
//! |---|---|
//! | `table1` | Table 1 — the function suite |
//! | `fig2` | Fig 2 — cold vs warm latency breakdown |
//! | `fig3` | Fig 3 — guest-memory contiguity |
//! | `fig4` | Fig 4 — booted vs restored footprints |
//! | `fig5` | Fig 5 — pages same/unique across invocations |
//! | `fig7` | Fig 7 — REAP optimization steps |
//! | `fig8` | Fig 8 — baseline vs REAP, all functions |
//! | `fig9` | Fig 9 — concurrency sweep |
//! | `fio` | §5.2.3 — disk microbenchmark |
//! | `hdd` | §6.3 — REAP speedup on an HDD |
//! | `record_overhead` | §6.4 — record-phase overhead |
//! | `warm_background` | §6.3 — cold starts amid 20 warm functions |
//! | `mispredict` | §7.1 — prefetch accuracy per function |
//! | `boot_vs_snapshot` | §2.2 — full boot vs snapshot restore |
//! | `ablation_readahead` | readahead-window sensitivity (design ablation) |
//! | `ablation_install` | REAP install batching ablation |
//! | `ablation_remote` | §7.1 — snapshots on remote storage |
//! | `ablation_fallback` | §7.2 — re-record fallback on/off |
//! | `ablation_record_window` | §8.2 — invocation-window recording vs profiling-style estimation |
//! | `chaos_sweep` | fault-invariance witness: seeded batches through a healing fault plan, CSV byte-identical faults on/off |
//! | `overload_sweep` | goodput vs offered load with admission on/off (`OVERLOAD_golden.txt`) |
//! | `metrics_report` | windowed rollup queries, `--exact` percentile tables over a telemetry store, registry exposition, report `--diff` (`TELEMETRY_golden.txt`, `METRICS*_golden.txt`) |
//! | `wsdump` | developer tool: dump a function's REAP trace / WS file structure |
//! | `bench-json` | host-time micro gate: the three groups the `benchmark/` package cannot reach (4-shard steady state, transient-fault retry, dead-shard failover) |

pub mod diff;

use functionbench::FunctionId;
use sim_core::Table;
use vhive_core::Orchestrator;

/// Functions used by "all functions" experiments, in the paper's order.
pub fn suite() -> Vec<FunctionId> {
    FunctionId::ALL.to_vec()
}

/// A smaller suite for quick runs (`--quick`).
pub fn quick_suite() -> Vec<FunctionId> {
    vec![
        FunctionId::helloworld,
        FunctionId::pyaes,
        FunctionId::image_rotate,
        FunctionId::cnn_serving,
    ]
}

/// Parses harness CLI flags: `--quick` limits the function suite; any
/// other args name functions explicitly.
pub fn functions_from_args() -> Vec<FunctionId> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Some(flag) = args.iter().find(|a| a.starts_with("--") && *a != "--quick") {
        panic!("unknown flag {flag}; supported: --quick, or explicit function names");
    }
    if args.iter().any(|a| a == "--quick") {
        return quick_suite();
    }
    let named: Vec<FunctionId> = args
        .iter()
        .map(|a| a.parse().unwrap_or_else(|e| panic!("{e}")))
        .collect();
    if named.is_empty() {
        suite()
    } else {
        named
    }
}

/// Standard experiment preamble: seeded orchestrator.
pub fn orchestrator() -> Orchestrator {
    Orchestrator::new(0xA5_1405)
}

/// Prints a finished table plus its CSV twin under a marker, the format
/// every figure binary uses.
pub fn emit(title: &str, note: &str, table: &Table) {
    println!("== {title} ==");
    if !note.is_empty() {
        println!("{note}");
    }
    println!();
    println!("{table}");
    println!("--- csv ---");
    print!("{}", table.to_csv());
    println!("--- end csv ---");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suites_are_well_formed() {
        assert_eq!(suite().len(), 10);
        let q = quick_suite();
        assert!(q.len() >= 3);
        assert!(q.iter().all(|f| suite().contains(f)));
    }

    #[test]
    fn orchestrator_builds() {
        let o = orchestrator();
        assert_eq!(o.costs().cores, 48);
    }
}
