//! The per-invocation span record.

/// One invocation's telemetry span: identity, per-phase virtual-time
/// durations, frame-cache activity and the recovery ledger, flattened to
/// plain columns so batches encode contiguously.
///
/// All durations are virtual nanoseconds
/// ([`sim_core::SimDuration::as_nanos`]); telemetry never records
/// wall-clock, so span contents are as deterministic as the outcomes
/// they mirror.
#[derive(Debug, Clone, Default, PartialEq, Eq, PartialOrd, Ord)]
pub struct SpanRecord {
    /// Function name (`FunctionId` rendering).
    pub function: String,
    /// Policy label: `Vanilla` / `ParallelPF` / `WsFileCached` / `Reap`
    /// for plain cold starts, `Record` for record-mode runs, `Warm` for
    /// warm invocations.
    pub policy: String,
    /// Shard that served the invocation (0 on a single orchestrator).
    pub shard: u32,
    /// Input sequence number.
    pub seq: u64,
    /// True for cold invocations (including record mode).
    pub cold: bool,
    /// True if this run recorded (or re-recorded) the working set.
    pub recorded: bool,
    /// Virtual completion time of the invocation on its orchestrator's
    /// timeline, ns since simulation start. Windowed rollups bucket spans
    /// by this instant.
    pub vt_ns: u64,
    /// `LoadVmm` phase, virtual ns.
    pub load_vmm_ns: u64,
    /// `FetchWs` phase, virtual ns.
    pub fetch_ws_ns: u64,
    /// `InstallWs` phase, virtual ns.
    pub install_ws_ns: u64,
    /// `ConnRestore` phase, virtual ns.
    pub conn_restore_ns: u64,
    /// `Processing` phase, virtual ns.
    pub processing_ns: u64,
    /// `RecordFinish` epilogue, virtual ns.
    pub record_finish_ns: u64,
    /// End-to-end latency, virtual ns.
    pub latency_ns: u64,
    /// Frame-cache hits this invocation contributed.
    pub cache_hits: u64,
    /// Frame-cache populating misses this invocation contributed.
    pub cache_misses: u64,
    /// Frame-cache raced (coalesced / rewrite-raced) lookups.
    pub cache_raced: u64,
    /// Transient-fault retries (recovery ledger).
    pub transient_retries: u64,
    /// Artifact reloads after a corrupt parse (recovery ledger).
    pub corrupt_reloads: u64,
    /// Virtual time spent in retry backoff and injected delays, ns.
    pub retry_delay_ns: u64,
    /// The function's REAP artifacts were quarantined.
    pub quarantined: bool,
    /// The request completed as Vanilla instead of its prefetch policy.
    pub fallback_vanilla: bool,
    /// The function was rebuilt on a surviving shard.
    pub rebuilt: bool,
    /// The request was re-routed off its home shard.
    pub rerouted: bool,
    /// Overload disposition label: `completed`, `shed_queue_full`,
    /// `shed_rate_limited`, `shed_brownout`, or
    /// `deadline_exceeded` (`vhive_core::Disposition::label`). Shed and
    /// mid-recovery-expired requests emit zero-phase spans carrying only
    /// identity + this label. Empty on spans written before the column
    /// existed.
    pub disposition: String,
}

/// A fixed span stream exercising every column, for the codec tests (the
/// golden-bytes tests pin its first eight spans' encoding).
#[cfg(test)]
pub(crate) fn sample(n: u64) -> Vec<SpanRecord> {
    (0..n)
        .map(|i| SpanRecord {
            function: format!("fn-{}", i % 5),
            policy: if i % 2 == 0 { "Reap" } else { "Vanilla" }.to_string(),
            shard: (i % 3) as u32,
            seq: i,
            cold: i % 4 != 0,
            recorded: i % 7 == 0,
            vt_ns: i * 1_000_003,
            load_vmm_ns: i * 11,
            fetch_ws_ns: i * 13,
            install_ws_ns: i * 17,
            conn_restore_ns: i * 19,
            processing_ns: i * 23,
            record_finish_ns: i * 29,
            latency_ns: i * 31,
            cache_hits: i % 9,
            cache_misses: i % 4,
            cache_raced: i % 2,
            transient_retries: i % 3,
            corrupt_reloads: i % 2,
            retry_delay_ns: i * 37,
            quarantined: i % 11 == 0,
            fallback_vanilla: i % 13 == 0,
            rebuilt: i % 17 == 0,
            rerouted: i % 19 == 0,
            disposition: if i % 6 == 0 {
                "deadline_exceeded".to_string()
            } else {
                "completed".to_string()
            },
        })
        .collect()
}
