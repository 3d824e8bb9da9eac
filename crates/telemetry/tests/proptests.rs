//! Property tests over the columnar batch codecs:
//!
//! * **round trip** — encode→decode is the identity for arbitrary span
//!   batches (all columns, including empty strings and zero rows) and
//!   for the rollup rows built from them at arbitrary window widths;
//! * **truncated tail** — every proper prefix of a batch fails to decode
//!   with a typed error, never a panic;
//! * **corrupt batch** — any single byte flip is rejected, and at the
//!   store level the bad batch is dropped while every other batch's
//!   spans survive.

use proptest::prelude::*;
use sim_core::DetRng;
use sim_storage::FileStore;
use vhive_telemetry::{
    decode_batch, decode_rollup_batch, encode_batch, encode_rollup_batch, scan, RollupBuilder,
    SpanRecord, TelemetrySink,
};

/// Deterministic pseudo-arbitrary spans: every column exercised, string
/// lengths 0..24, counters spanning the u64 range.
fn gen_spans(seed: u64, n: usize) -> Vec<SpanRecord> {
    let mut rng = DetRng::new(seed);
    (0..n)
        .map(|i| {
            let mut name = String::new();
            for _ in 0..rng.gen_range(24) {
                name.push((b'a' + rng.gen_range(26) as u8) as char);
            }
            SpanRecord {
                function: name,
                policy: ["Vanilla", "ParallelPF", "WsFileCached", "Reap", "Record", "Warm", ""]
                    [rng.gen_range(7) as usize]
                    .to_string(),
                shard: rng.gen_range(1 << 32) as u32,
                seq: i as u64 ^ rng.next_u64(),
                cold: rng.gen_bool(0.5),
                recorded: rng.gen_bool(0.2),
                vt_ns: rng.next_u64(),
                load_vmm_ns: rng.next_u64(),
                fetch_ws_ns: rng.next_u64(),
                install_ws_ns: rng.next_u64(),
                conn_restore_ns: rng.next_u64(),
                processing_ns: rng.next_u64(),
                record_finish_ns: rng.next_u64(),
                latency_ns: rng.next_u64(),
                cache_hits: rng.gen_range(1000),
                cache_misses: rng.gen_range(1000),
                cache_raced: rng.gen_range(10),
                transient_retries: rng.gen_range(5),
                corrupt_reloads: rng.gen_range(3),
                retry_delay_ns: rng.next_u64(),
                quarantined: rng.gen_bool(0.1),
                fallback_vanilla: rng.gen_bool(0.1),
                rebuilt: rng.gen_bool(0.1),
                rerouted: rng.gen_bool(0.1),
                disposition: [
                    "completed",
                    "shed_queue_full",
                    "shed_rate_limited",
                    "shed_brownout",
                    "deadline_exceeded",
                    "",
                ][rng.gen_range(6) as usize]
                    .to_string(),
            }
        })
        .collect()
}

proptest! {
    /// encode → decode is the identity.
    #[test]
    fn codec_round_trip_identity(seed in 0u64..1_000_000, n in 0usize..96) {
        let spans = gen_spans(seed, n);
        let blob = encode_batch(&spans);
        prop_assert_eq!(decode_batch(&blob).unwrap(), spans);
    }

    /// Rollup rows survive encode → decode, window width included.
    #[test]
    fn rollup_round_trip_identity(seed in 0u64..1_000_000, n in 0usize..96, window_ns in 1u64..u64::MAX) {
        let mut builder = RollupBuilder::new(window_ns);
        gen_spans(seed, n).iter().for_each(|s| builder.add(s));
        let rows = builder.finish();
        let blob = encode_rollup_batch(window_ns, &rows);
        prop_assert_eq!(decode_rollup_batch(&blob).unwrap(), (window_ns, rows));
    }

    /// Every truncation point yields a typed error — never a panic,
    /// never a silently short batch.
    #[test]
    fn truncated_tail_always_rejected(seed in 0u64..1_000_000, n in 1usize..48) {
        let blob = encode_batch(&gen_spans(seed, n));
        let mut rng = DetRng::new(seed ^ 0xDEAD);
        // Every short length near the ends plus random cuts in between.
        let mut cuts: Vec<usize> = (0..16.min(blob.len())).collect();
        cuts.extend((blob.len().saturating_sub(16)..blob.len()).collect::<Vec<_>>());
        for _ in 0..32 {
            cuts.push(rng.gen_range(blob.len() as u64) as usize);
        }
        for cut in cuts {
            prop_assert!(decode_batch(&blob[..cut]).is_err(), "cut at {}", cut);
        }
    }

    /// Any single byte flip anywhere in the blob is rejected.
    #[test]
    fn corrupt_byte_always_rejected(seed in 0u64..1_000_000, n in 1usize..48) {
        let spans = gen_spans(seed, n);
        let blob = encode_batch(&spans);
        let mut rng = DetRng::new(seed ^ 0xBEEF);
        for _ in 0..48 {
            let pos = rng.gen_range(blob.len() as u64) as usize;
            let mut bad = blob.clone();
            bad[pos] ^= 1 << rng.gen_range(8);
            prop_assert!(decode_batch(&bad).is_err(), "flip at {}", pos);
        }
    }

    /// Store-level recovery: with one batch corrupted (or its tail cut),
    /// a scan drops exactly that batch, keeps every other span, and
    /// never panics.
    #[test]
    fn scan_drops_only_the_bad_batch(seed in 0u64..1_000_000, corrupt_not_truncate in any::<bool>()) {
        let store = FileStore::new();
        let sink = TelemetrySink::with_batch_rows(store.clone(), 8);
        let spans = gen_spans(seed, 40); // five batches of eight
        for s in &spans {
            sink.record(s.clone());
        }
        let mut rng = DetRng::new(seed ^ 0xF00D);
        let victim = rng.gen_range(5) as usize;
        let name = format!("telemetry/batch-{victim:08}");
        let id = store.open(&name).unwrap();
        let len = store.len(id);
        if corrupt_not_truncate {
            let pos = rng.gen_range(len);
            let byte = store.read(id, pos, 1, |b| b[0]).unwrap();
            store.write_at(id, pos, &[byte ^ 0xA5]).unwrap();
        } else {
            store.set_len(id, rng.gen_range(len)).unwrap();
        }
        let (survivors, stats) = scan(&store);
        prop_assert_eq!(stats.batches_ok, 4);
        prop_assert_eq!(stats.batches_dropped, 1);
        let expected: Vec<SpanRecord> = spans
            .iter()
            .enumerate()
            .filter(|(i, _)| i / 8 != victim)
            .map(|(_, s)| s.clone())
            .collect();
        prop_assert_eq!(survivors, expected);
    }
}
