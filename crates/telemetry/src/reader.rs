//! Scanning flushed batch files back out of a [`FileStore`]: the one
//! list / open / read / decode loop behind span scans and rollup scans.

use sim_storage::FileStore;

use crate::codec::decode_batch;
use crate::sink::BATCH_PREFIX;
use crate::span::SpanRecord;

/// What a scan saw: how many batches decoded, how many were dropped
/// (truncated tail, corrupt bytes, unreadable file — for rollups also a
/// window width disagreeing with the first good batch), how many rows
/// (spans or rollup cells) came back.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScanStats {
    /// Batches that decoded cleanly.
    pub batches_ok: u64,
    /// Batches dropped after a checksum/layout/read failure.
    pub batches_dropped: u64,
    /// Rows yielded.
    pub rows: u64,
}

impl ScanStats {
    /// A warning line when any batch was dropped, for CLIs to surface —
    /// `None` on a clean scan. Dropped batches mean the report silently
    /// covers fewer spans than were recorded; every reader should say so.
    pub fn drop_warning(&self) -> Option<String> {
        (self.batches_dropped > 0).then(|| {
            format!(
                "WARNING: dropped {} of {} telemetry batches (corrupt or truncated); \
                 report covers surviving spans only",
                self.batches_dropped,
                self.batches_dropped + self.batches_ok
            )
        })
    }
}

/// Reads every file named `prefix…` whole, in name order, and hands it
/// to `decode`, which visits the batch's rows and returns how many there
/// were — or `None` to drop the batch. Unreadable files are dropped too;
/// the scan never panics and never stops early.
pub(crate) fn for_each_batch_file(
    store: &FileStore,
    prefix: &str,
    mut decode: impl FnMut(&[u8]) -> Option<u64>,
) -> ScanStats {
    let mut stats = ScanStats::default();
    for name in store.list() {
        if !name.starts_with(prefix) {
            continue;
        }
        let rows = store
            .open(&name)
            .and_then(|id| store.try_read_at(id, 0, store.len(id) as usize))
            .and_then(|blob| decode(&blob));
        match rows {
            Some(n) => {
                stats.batches_ok += 1;
                stats.rows += n;
            }
            None => stats.batches_dropped += 1,
        }
    }
    stats
}

/// Streams every span in the store's telemetry batches, in batch order,
/// to `visit`. Bad batches (checksum mismatch, truncation, unreadable
/// file) are dropped and counted.
pub fn for_each_span(store: &FileStore, mut visit: impl FnMut(&SpanRecord)) -> ScanStats {
    for_each_batch_file(store, BATCH_PREFIX, |blob| {
        let spans = decode_batch(blob).ok()?;
        spans.iter().for_each(&mut visit);
        Some(spans.len() as u64)
    })
}

/// Collects every span in the store's telemetry batches (batch order).
/// Bad batches are dropped, never fatal — see [`for_each_span`].
pub fn scan(store: &FileStore) -> (Vec<SpanRecord>, ScanStats) {
    let mut out = Vec::new();
    let stats = for_each_span(store, |s| out.push(s.clone()));
    (out, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::TelemetrySink;

    /// A store of `spans` default spans (`seq` 0, 1, …) in batches of two.
    fn two_span_batches(spans: u64) -> FileStore {
        let store = FileStore::new();
        let sink = TelemetrySink::with_batch_rows(store.clone(), 2);
        for seq in 0..spans {
            sink.record(SpanRecord {
                seq,
                ..SpanRecord::default()
            });
        }
        store
    }

    #[test]
    fn corrupt_batch_is_dropped_rest_survive() {
        let store = two_span_batches(6);
        // Corrupt the middle batch in place.
        let id = store.open("telemetry/batch-00000001").unwrap();
        store.write_at(id, 9, &[0xA5]);
        let (spans, stats) = scan(&store);
        assert_eq!(stats.batches_ok, 2);
        assert_eq!(stats.batches_dropped, 1);
        assert_eq!(spans.iter().map(|s| s.seq).collect::<Vec<_>>(), vec![0, 1, 4, 5]);
    }

    #[test]
    fn poisoned_batch_surfaces_a_drop_warning() {
        let store = two_span_batches(6);
        let (_, clean) = scan(&store);
        assert_eq!(clean.drop_warning(), None, "clean scans stay quiet");
        // Poison one batch: its checksum no longer matches.
        let id = store.open("telemetry/batch-00000001").unwrap();
        store.write_at(id, 13, &[0xFF]);
        let (_, stats) = scan(&store);
        assert_eq!(stats.batches_dropped, 1);
        let warn = stats.drop_warning().expect("drop must warn");
        assert!(warn.contains("dropped 1 of 3"), "{warn}");
    }

    #[test]
    fn truncated_tail_batch_is_dropped_rest_survive() {
        let store = two_span_batches(4);
        // A writer died mid-flush: the last batch lost its footer.
        let id = store.open("telemetry/batch-00000001").unwrap();
        let len = store.len(id);
        store.set_len(id, len - 7);
        let (spans, stats) = scan(&store);
        assert_eq!(stats.batches_ok, 1);
        assert_eq!(stats.batches_dropped, 1);
        assert_eq!(spans.iter().map(|s| s.seq).collect::<Vec<_>>(), vec![0, 1]);
    }
}
