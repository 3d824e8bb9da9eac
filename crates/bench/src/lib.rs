//! # vhive-bench
//!
//! The benchmark harness: one `vhive-bench <subcommand>` binary whose
//! subcommands regenerate the paper's tables and figures, the
//! golden-file reports and a developer tool, plus the `bench-json`
//! host-time micro gate. Every figure subcommand prints the regenerated
//! figure as a text table with the paper's reported numbers alongside,
//! and a CSV block for post-processing. `vhive-bench paper --quick`
//! prints every paper-facing one in paper order; its stdout is checked in
//! as `PAPER_golden.txt`.
//!
//! | subcommand | reproduces |
//! |---|---|
//! | `paper` | all of the below from `boot_vs_snapshot` to `ablation_record_window`, in this order |
//! | `boot_vs_snapshot` | §2.2 — full boot vs snapshot restore |
//! | `fig2` | Fig 2 — cold vs warm latency breakdown |
//! | `fig3` | Fig 3 — guest-memory contiguity |
//! | `fig4` | Fig 4 — booted vs restored footprints |
//! | `fig5` | Fig 5 — pages same/unique across invocations |
//! | `fio` | §5.2.3 — disk microbenchmark |
//! | `table1` | Table 1 — the function suite |
//! | `fig7` | Fig 7 — REAP optimization steps |
//! | `fig8` | Fig 8 — baseline vs REAP, all functions |
//! | `hdd` | §6.3 — REAP speedup on an HDD |
//! | `warm_background` | §6.3 — cold starts amid 20 warm functions |
//! | `record_overhead` | §6.4 — record-phase overhead |
//! | `fig9` | Fig 9 — concurrency sweep, and the cluster's shard sweep |
//! | `mispredict` | §7.1 — prefetch accuracy per function |
//! | `ablation_remote` | §7.1 — snapshots on remote storage |
//! | `ablation_fallback` | §7.2 — re-record fallback on/off |
//! | `ablation_record_window` | §8.2 — invocation-window recording vs profiling-style estimation |
//! | `chaos` | fault-invariance witness: seeded batches through a healing fault plan, CSV byte-identical faults on/off |
//! | `overload` | goodput vs offered load with admission on/off (`OVERLOAD_golden.txt`) |
//! | `metrics` | windowed rollup queries, `--exact` percentile tables over a telemetry store, registry exposition (`TELEMETRY_golden.txt`, `METRICS*_golden.txt`) |
//! | `wsdump` | developer tool: dump a function's REAP trace / WS file structure |
//!
//! `bench-json` is a separate binary: the host-time micro gate for the
//! three groups the `benchmark/` package cannot reach (4-shard steady
//! state, transient-fault retry, dead-shard failover).

pub mod chaos;
pub mod cli;
pub mod figures;
pub mod metrics;
pub mod overload;
pub mod sections;
pub mod wsdump;

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

/// Standard experiment preamble: seeded orchestrator.
pub fn orchestrator() -> Orchestrator {
    Orchestrator::new(0xA5_1405)
}

/// Prints a finished table plus its CSV twin under a marker, the format
/// every figure subcommand uses.
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
