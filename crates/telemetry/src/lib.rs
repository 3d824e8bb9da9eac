#![warn(missing_docs)]
//! # vhive-telemetry
//!
//! Per-invocation telemetry for the REAP reproduction: structured
//! [`SpanRecord`]s → append-only columnar batches in the
//! [`FileStore`](sim_storage::FileStore) → percentile reports.
//!
//! The pipeline, end to end:
//!
//! 1. **Record** — `Orchestrator`/`ClusterOrchestrator` build one
//!    [`SpanRecord`] per completed invocation (identity, per-phase
//!    virtual-time durations, frame-cache deltas, the recovery ledger)
//!    and hand it to a [`TelemetrySink`] — off by default, attached with
//!    `set_telemetry(...)`. Recording reads finished outcomes only, so
//!    simulated results are byte-identical telemetry on or off (pinned
//!    by the invariance proptests).
//! 2. **Flush** — the sink buffers spans and writes them as columnar
//!    batch files named `telemetry/batch-NNNNNNNN` (schema: [`codec`]).
//!    A write the store refuses is retried, then the batch is dropped
//!    and counted ([`TelemetrySink::dropped_batches`]) — never a panic
//!    on the serving path.
//! 3. **Query** — [`scan`]/[`for_each_span`] stream the spans back
//!    (dropping corrupt or truncated batches, never panicking), and
//!    [`latency_report`] aggregates exact Min/P50/P95/P99/Max latency
//!    per `(function, policy, shard)` — `vhive-bench metrics --exact` prints
//!    that table; the programmatic [`LatencyReport`] is what a fleet
//!    router would consume.
//!
//! [`synthesize`] generates deterministic synthetic span streams so
//! reports over millions of invocations stay cheap to produce and
//! byte-stable across runs.
//!
//! The aggregation layer on top:
//!
//! * [`rollup`] — streaming rollup of spans into fixed virtual-time
//!   windows per `(function, policy, shard)`, persisted as
//!   `telemetry/rollup-` batches whose log-bucketed histograms
//!   **merge**: P50/P95/P99 over any window range is a bucket merge, no
//!   raw span rescan ([`window_report`]).
//! * [`attribution`] — the per-policy virtual-time attribution table
//!   (phase means, disk-bound share, overlap won back).
//!
//! Both batch formats are one checksummed columnar frame (private module
//! `frame`: leading magic, fixed header, `kind u8 | len u32 | payload`
//! columns, FNV-1a 64 footer + trailing magic, verified before anything
//! is parsed) under different magics and schemas, read by one scan loop
//! ([`reader`]) and written by one retried file write.

pub mod attribution;
pub mod codec;
mod frame;
pub mod reader;
pub mod report;
pub mod rollup;
pub mod sink;
pub mod span;
pub mod synth;

pub use attribution::{attribution_report, AttributionReport, AttributionRow};
pub use codec::{decode_batch, encode_batch, BatchError};
pub use reader::{for_each_span, scan, ScanStats};
pub use report::{latency_report, GroupKey, GroupStats, LatencyReport};
pub use rollup::{
    build_rollups, decode_rollup_batch, encode_rollup_batch, for_each_rollup_row, window_report,
    PhaseSums, RollupBuildStats, RollupBuilder, RollupCell, RollupKey, WindowReport,
    DEFAULT_WINDOW_NS, ROLLUP_PREFIX,
};
pub use sink::{TelemetrySink, BATCH_PREFIX, DEFAULT_BATCH_ROWS};
pub use span::SpanRecord;
pub use synth::synthesize;
