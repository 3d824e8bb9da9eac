//! The telemetry sink: buffered span recording, flushed as columnar
//! batches into a [`FileStore`].

use std::sync::{Arc, Mutex, MutexGuard};

use sim_storage::fault::retry_idempotent;
use sim_storage::{FileStore, StorageError};

use crate::codec::encode_batch;
use crate::span::SpanRecord;

/// Store-name prefix of every flushed batch file.
pub const BATCH_PREFIX: &str = "telemetry/batch-";

/// Default rows per flushed batch.
pub const DEFAULT_BATCH_ROWS: usize = 4096;

#[derive(Debug, Default)]
struct State {
    buf: Vec<SpanRecord>,
    next_batch: u64,
    flushed_spans: u64,
    dropped_batches: u64,
}

/// Writes one batch as the file `{prefix}{index:08}` — the one write
/// behind span flushes and rollup builds. A fixed-offset write of a
/// freshly created file, so reissuing it heals a transient fault or a
/// torn write; an `Err` means the retry budget ran out (or the store is
/// unavailable) and the caller drops the batch — telemetry never takes
/// the serving path down with it.
pub(crate) fn write_batch_file(
    store: &FileStore,
    prefix: &str,
    index: u64,
    blob: &[u8],
) -> Result<(), StorageError> {
    let id = store.create(&format!("{prefix}{index:08}"));
    retry_idempotent(|| store.try_write_at(id, 0, blob))
}

#[derive(Debug)]
struct Inner {
    store: FileStore,
    batch_rows: usize,
    state: Mutex<State>,
}

/// A cloneable handle to one telemetry stream: spans recorded through any
/// clone buffer in shared memory and flush as append-only columnar batch
/// files (`telemetry/batch-00000000`, `-00000001`, …) into the backing
/// [`FileStore`]. One batch = one file, so a corrupt or truncated batch
/// is naturally isolated: readers drop that file and keep the rest.
///
/// Orchestrators hold the sink behind an `Option` and it is off by
/// default; recording reads completed outcomes only, so simulated results
/// are byte-identical with telemetry on or off (pinned by the invariance
/// proptests in `tests/telemetry.rs`).
#[derive(Debug, Clone)]
pub struct TelemetrySink {
    inner: Arc<Inner>,
}

impl TelemetrySink {
    /// Creates a sink flushing [`DEFAULT_BATCH_ROWS`]-row batches into
    /// `store`.
    pub fn new(store: FileStore) -> Self {
        TelemetrySink::with_batch_rows(store, DEFAULT_BATCH_ROWS)
    }

    /// Creates a sink with an explicit batch size (clamped to ≥ 1).
    pub fn with_batch_rows(store: FileStore, batch_rows: usize) -> Self {
        TelemetrySink {
            inner: Arc::new(Inner {
                store,
                batch_rows: batch_rows.max(1),
                state: Mutex::new(State::default()),
            }),
        }
    }

    /// The store batches are flushed into.
    pub fn store(&self) -> &FileStore {
        &self.inner.store
    }

    fn state(&self) -> MutexGuard<'_, State> {
        self.inner.state.lock().expect("telemetry sink poisoned")
    }

    /// Records one span, flushing a batch if the buffer filled up.
    pub fn record(&self, span: SpanRecord) {
        let mut st = self.state();
        st.buf.push(span);
        if st.buf.len() >= self.inner.batch_rows {
            self.flush_locked(&mut st);
        }
    }

    /// Flushes any buffered spans as one final (possibly short) batch.
    /// Returns the number of spans flushed by this call.
    pub fn flush(&self) -> u64 {
        let mut st = self.state();
        let n = st.buf.len() as u64;
        if n > 0 {
            self.flush_locked(&mut st);
        }
        n
    }

    /// A batch the store refuses is dropped and counted; its file name is
    /// reused by the next flush.
    fn flush_locked(&self, st: &mut State) {
        let blob = encode_batch(&st.buf);
        match write_batch_file(&self.inner.store, BATCH_PREFIX, st.next_batch, &blob) {
            Ok(()) => {
                st.next_batch += 1;
                st.flushed_spans += st.buf.len() as u64;
            }
            Err(_) => st.dropped_batches += 1,
        }
        st.buf.clear();
    }

    /// Spans buffered but not yet flushed.
    pub fn buffered(&self) -> usize {
        self.state().buf.len()
    }

    /// Spans written to the store so far.
    pub fn flushed_spans(&self) -> u64 {
        self.state().flushed_spans
    }

    /// Batches dropped because the store would not take them (a write
    /// fault that outlasted the retry budget, or a blackout).
    pub fn dropped_batches(&self) -> u64 {
        self.state().dropped_batches
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reader::scan;

    fn span(seq: u64) -> SpanRecord {
        SpanRecord {
            function: "helloworld".into(),
            policy: "Reap".into(),
            seq,
            latency_ns: 56_000_000,
            ..SpanRecord::default()
        }
    }

    #[test]
    fn records_flush_at_batch_boundary_and_on_demand() {
        let store = FileStore::new();
        let sink = TelemetrySink::with_batch_rows(store.clone(), 4);
        for i in 0..10 {
            sink.record(span(i));
        }
        // Two full batches flushed automatically, two spans buffered.
        assert_eq!(sink.flushed_spans(), 8);
        assert_eq!(sink.buffered(), 2);
        assert_eq!(sink.flush(), 2);
        assert_eq!(sink.flush(), 0);
        let names: Vec<String> = store
            .list()
            .into_iter()
            .filter(|n| n.starts_with(BATCH_PREFIX))
            .collect();
        assert_eq!(names.len(), 3);
        let (spans, stats) = scan(&store);
        assert_eq!(stats.batches_ok, 3);
        assert_eq!(stats.batches_dropped, 0);
        assert_eq!(spans.len(), 10);
        assert_eq!(spans.iter().map(|s| s.seq).collect::<Vec<_>>(), (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn clones_share_one_stream() {
        let store = FileStore::new();
        let sink = TelemetrySink::with_batch_rows(store.clone(), 64);
        let other = sink.clone();
        sink.record(span(0));
        other.record(span(1));
        assert_eq!(sink.buffered(), 2);
        sink.flush();
        let (spans, _) = scan(&store);
        assert_eq!(spans.len(), 2);
    }
}
