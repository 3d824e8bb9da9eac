//! Deterministic synthetic span generation.
//!
//! `vhive-bench metrics --exact` and the report-scan bench need *millions*
//! of spans; running that many real functional passes would take hours.
//! This generator emits a [`DetRng`]-driven stream whose shape mirrors
//! the reproduction (the Fig 7 policy ladder as per-policy base
//! latencies, hash-homed shards, rare recovery events) and is a pure
//! function of its seed — the CI golden file pins its output forever.

use sim_core::hash::fnv1a64;
use sim_core::DetRng;

use crate::sink::TelemetrySink;
use crate::span::SpanRecord;

/// Policy labels and their base cold-start latency in milliseconds (the
/// helloworld Fig 7 ladder, plus record overhead and the warm floor).
const POLICIES: &[(&str, f64)] = &[
    ("Vanilla", 236.0),
    ("ParallelPF", 116.0),
    ("WsFileCached", 75.0),
    ("Reap", 56.0),
    ("Record", 290.0),
    ("Warm", 1.2),
];

/// Mean virtual inter-arrival gap of the synthetic stream, ns. 2 ms per
/// span puts ~500 spans in each one-second rollup window.
const MEAN_GAP_NS: f64 = 2_000_000.0;

/// Generates `n` deterministic spans into `sink` and flushes the tail.
///
/// Functions are drawn uniformly from `functions`, each hash-homed onto
/// one of `shards` shards (mirroring `shard_for`); latency is the
/// policy's base with multiplicative jitter plus an exponential tail;
/// ~1% of cold spans carry transient retries and ~0.2% a Vanilla
/// fallback, so recovery columns are exercised. Spans complete along a
/// cumulative virtual clock (exponential inter-arrival gaps, mean
/// `MEAN_GAP_NS` = 2 ms), so `vt_ns` advances monotonically and windowed
/// rollups see a realistic multi-window stream.
///
/// # Panics
///
/// Panics if `functions` is empty or `shards` is zero.
pub fn synthesize(sink: &TelemetrySink, seed: u64, n: u64, shards: u32, functions: &[&str]) {
    assert!(!functions.is_empty(), "need at least one function name");
    assert!(shards > 0, "need at least one shard");
    let mut rng = DetRng::new(seed);
    let mut seqs = vec![0u64; functions.len()];
    let mut vt_ns = 0u64;
    for _ in 0..n {
        let fi = rng.gen_range(functions.len() as u64) as usize;
        let function = functions[fi];
        let shard = (fnv1a64(function.as_bytes()) % shards as u64) as u32;
        let (policy, base_ms) = POLICIES[rng.gen_range(POLICIES.len() as u64) as usize];
        let cold = policy != "Warm";
        let recorded = policy == "Record";
        // Multiplicative jitter around the base plus an exponential tail.
        let latency_ms = base_ms * (0.85 + 0.3 * rng.next_f64()) + rng.exp_f64(base_ms * 0.04);
        let latency_ns = (latency_ms * 1e6) as u64;
        let seq = seqs[fi];
        seqs[fi] += 1;
        vt_ns += rng.exp_f64(MEAN_GAP_NS) as u64;

        let mut span = SpanRecord {
            function: function.to_string(),
            policy: policy.to_string(),
            shard,
            seq,
            cold,
            recorded,
            vt_ns: vt_ns + latency_ns,
            latency_ns,
            // Stamped without an RNG draw so the seeded stream (and the
            // CI golden pinned to it) is unchanged by the column.
            disposition: "completed".to_string(),
            ..SpanRecord::default()
        };
        if cold {
            // Phase split: fixed fractions per span keep the breakdown
            // columns populated and internally consistent.
            span.load_vmm_ns = latency_ns / 5;
            span.conn_restore_ns = latency_ns / 4;
            span.processing_ns = latency_ns / 3;
            if policy != "Vanilla" && policy != "Record" {
                span.fetch_ws_ns = latency_ns / 8;
                span.install_ws_ns = latency_ns / 10;
                span.cache_hits = rng.gen_range(48);
                span.cache_misses = rng.gen_range(4);
            }
            if recorded {
                span.record_finish_ns = latency_ns / 6;
            }
            if rng.gen_bool(0.01) {
                span.transient_retries = 1 + rng.gen_range(3);
                span.retry_delay_ns = span.transient_retries * 100_000;
            }
            if rng.gen_bool(0.002) {
                span.quarantined = true;
                span.fallback_vanilla = true;
                span.corrupt_reloads = 1;
            }
        }
        sink.record(span);
    }
    sink.flush();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::latency_report;
    use sim_storage::FileStore;

    #[test]
    fn same_seed_same_bytes_different_seed_differs() {
        let mk = |seed| {
            let store = FileStore::new();
            synthesize(
                &TelemetrySink::new(store.clone()),
                seed,
                2000,
                3,
                &["helloworld", "pyaes"],
            );
            let report = latency_report(&store);
            assert_eq!(report.total_count(), 2000);
            report.table().to_csv()
        };
        assert_eq!(mk(42), mk(42));
        assert_ne!(mk(42), mk(43));
    }

    #[test]
    fn ladder_orders_policy_medians() {
        let store = FileStore::new();
        synthesize(&TelemetrySink::new(store.clone()), 7, 6000, 1, &["helloworld"]);
        let report = latency_report(&store);
        let p50 = |policy: &str| report.group("helloworld", policy, 0).unwrap().p50_ns;
        assert!(p50("Warm") < p50("Reap"));
        assert!(p50("Reap") < p50("WsFileCached"));
        assert!(p50("WsFileCached") < p50("ParallelPF"));
        assert!(p50("ParallelPF") < p50("Vanilla"));
        assert!(p50("Vanilla") < p50("Record"));
    }
}
