//! Windowed, mergeable rollups over flushed span batches.
//!
//! A rollup turns the raw span stream into fixed virtual-time windows per
//! `(window, function, policy, shard)` cell: each cell carries a
//! [`LogHistogram`] of end-to-end latency plus per-phase virtual-time
//! sums. Because log-bucketed histograms merge by bucket-wise addition,
//! any percentile over any *range* of windows is answered by merging the
//! covered cells — no raw span rescan, ever (the acceptance test pins
//! this with read accounting on a 1M-span store).
//!
//! Rollup batches persist beside span batches as
//! `telemetry/rollup-NNNNNNNN` files, in the same checksummed frame
//! (`frame.rs`) under their own magics and schema:
//!
//! ```text
//! magic "VTR1" │ window_ns u64 (the width the batch was built with)
//!              │ rows u32 │ cols u32 (= 15, the fixed rollup schema)
//! 15 columns: window u64, function str, policy str, shard u32,
//!   count, sum, min, max u64, six phase sums u64 (span-column order),
//!   hist (kind 4) payload: per row u32 pairs + (u16 bucket, u64 n) pairs
//! checksum u64 │ magic "VTRE"
//! ```
//!
//! [`decode_rollup_batch`] fails with a typed [`BatchError`] on any
//! truncation or byte flip, and scans drop the bad batch and keep the
//! rest — exactly like span batches.

use std::collections::BTreeMap;

use sim_core::metrics::{LogHistogram, NUM_BUCKETS};
use sim_storage::FileStore;

use crate::codec::BatchError;
use crate::frame::{rd_u16, rd_u32, rd_u64, Format, FrameReader, FrameWriter, Put, Take};
use crate::reader::{for_each_batch_file, for_each_span, ScanStats};
use crate::report::{GroupKey, GroupStats};
use crate::sink::write_batch_file;
use crate::span::SpanRecord;

/// Store-name prefix of every rollup batch file.
pub const ROLLUP_PREFIX: &str = "telemetry/rollup-";

/// Default rollup window width: one virtual second.
pub const DEFAULT_WINDOW_NS: u64 = 1_000_000_000;

/// Default rows per rollup batch file.
pub const DEFAULT_ROLLUP_ROWS: usize = 4096;

/// Leading magic of a rollup batch.
pub const ROLLUP_MAGIC: &[u8; 4] = b"VTR1";
/// Trailing magic, after the footer checksum.
pub const ROLLUP_FOOTER_MAGIC: &[u8; 4] = b"VTRE";

/// Number of columns in a rollup batch.
pub const COLUMNS: usize = 15;

const FORMAT: Format = Format {
    magic: ROLLUP_MAGIC,
    footer_magic: ROLLUP_FOOTER_MAGIC,
    header: 8,
    cols: COLUMNS,
    row_bytes: 128,
};

/// Per-phase virtual-time sums of one rollup cell, in span-column order.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseSums {
    /// Σ `load_vmm_ns`.
    pub load_vmm_ns: u64,
    /// Σ `fetch_ws_ns`.
    pub fetch_ws_ns: u64,
    /// Σ `install_ws_ns`.
    pub install_ws_ns: u64,
    /// Σ `conn_restore_ns` (fault-serve work).
    pub conn_restore_ns: u64,
    /// Σ `processing_ns` (compute).
    pub processing_ns: u64,
    /// Σ `record_finish_ns`.
    pub record_finish_ns: u64,
}

impl PhaseSums {
    /// Phase sums of one span.
    pub fn of(s: &SpanRecord) -> Self {
        PhaseSums {
            load_vmm_ns: s.load_vmm_ns,
            fetch_ws_ns: s.fetch_ws_ns,
            install_ws_ns: s.install_ws_ns,
            conn_restore_ns: s.conn_restore_ns,
            processing_ns: s.processing_ns,
            record_finish_ns: s.record_finish_ns,
        }
    }

    /// Sum of every phase (the serial, no-overlap total).
    pub fn serial_ns(&self) -> u64 {
        self.load_vmm_ns
            + self.fetch_ws_ns
            + self.install_ws_ns
            + self.conn_restore_ns
            + self.processing_ns
            + self.record_finish_ns
    }
}

impl std::ops::AddAssign for PhaseSums {
    fn add_assign(&mut self, rhs: PhaseSums) {
        self.load_vmm_ns += rhs.load_vmm_ns;
        self.fetch_ws_ns += rhs.fetch_ws_ns;
        self.install_ws_ns += rhs.install_ws_ns;
        self.conn_restore_ns += rhs.conn_restore_ns;
        self.processing_ns += rhs.processing_ns;
        self.record_finish_ns += rhs.record_finish_ns;
    }
}

/// Identity of one rollup cell.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct RollupKey {
    /// Window index (`vt_ns / window_ns` of the spans it covers).
    pub window: u64,
    /// Function name.
    pub function: String,
    /// Policy label.
    pub policy: String,
    /// Serving shard.
    pub shard: u32,
}

/// Aggregated contents of one rollup cell.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RollupCell {
    /// Mergeable end-to-end latency histogram (also carries exact count,
    /// sum, min and max).
    pub latency: LogHistogram,
    /// Per-phase virtual-time sums.
    pub phases: PhaseSums,
}

/// Streaming span → windowed-cell aggregator. Feed spans in any order;
/// cells key on `(window, function, policy, shard)` and merge as they
/// come, so memory scales with distinct cells — never with span count.
#[derive(Debug)]
pub struct RollupBuilder {
    window_ns: u64,
    cells: BTreeMap<RollupKey, RollupCell>,
}

impl RollupBuilder {
    /// A builder over fixed windows of `window_ns` (clamped to ≥ 1).
    pub fn new(window_ns: u64) -> Self {
        RollupBuilder {
            window_ns: window_ns.max(1),
            cells: BTreeMap::new(),
        }
    }

    /// The window width this builder buckets by, ns.
    pub fn window_ns(&self) -> u64 {
        self.window_ns
    }

    /// Folds one span into its cell.
    pub fn add(&mut self, s: &SpanRecord) {
        let key = RollupKey {
            window: s.vt_ns / self.window_ns,
            function: s.function.clone(),
            policy: s.policy.clone(),
            shard: s.shard,
        };
        let cell = self.cells.entry(key).or_insert_with(|| RollupCell {
            latency: LogHistogram::new(),
            phases: PhaseSums::default(),
        });
        cell.latency.record(s.latency_ns);
        cell.phases += PhaseSums::of(s);
    }

    /// Number of distinct cells so far.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// True if no span was added yet.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// The aggregated cells, ordered by key.
    pub fn finish(self) -> Vec<(RollupKey, RollupCell)> {
        self.cells.into_iter().collect()
    }
}

/// The histogram column: a cell's sparse `(bucket, count)` pairs.
impl Put for Vec<(u16, u64)> {
    const KIND: u8 = 4;
    fn put(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&(self.len() as u32).to_le_bytes());
        for (idx, n) in self {
            out.extend_from_slice(&idx.to_le_bytes());
            out.extend_from_slice(&n.to_le_bytes());
        }
    }
}

impl Take for Vec<(u16, u64)> {
    const SIZE: &'static str = "histogram column tail";
    fn take(payload: &mut &[u8]) -> Result<Self, BatchError> {
        let pairs = rd_u32(payload).ok_or(BatchError::BadLayout("histogram length"))? as usize;
        if pairs > NUM_BUCKETS {
            return Err(BatchError::BadLayout("histogram pair count"));
        }
        (0..pairs)
            .map(|_| rd_u16(payload).zip(rd_u64(payload)))
            .collect::<Option<_>>()
            .ok_or(BatchError::BadLayout("histogram pair"))
    }
}

/// Encodes rollup rows into one columnar batch blob.
pub fn encode_rollup_batch(window_ns: u64, rows: &[(RollupKey, RollupCell)]) -> Vec<u8> {
    let mut w = FrameWriter::new(&FORMAT, &window_ns.to_le_bytes(), rows.len());
    w.column(rows.iter().map(|(k, _)| &k.window));
    w.column(rows.iter().map(|(k, _)| &k.function));
    w.column(rows.iter().map(|(k, _)| &k.policy));
    w.column(rows.iter().map(|(k, _)| &k.shard));
    w.column(rows.iter().map(|(_, c)| c.latency.count()));
    w.column(rows.iter().map(|(_, c)| c.latency.sum()));
    w.column(rows.iter().map(|(_, c)| c.latency.min().unwrap_or(0)));
    w.column(rows.iter().map(|(_, c)| c.latency.max().unwrap_or(0)));
    w.column(rows.iter().map(|(_, c)| &c.phases.load_vmm_ns));
    w.column(rows.iter().map(|(_, c)| &c.phases.fetch_ws_ns));
    w.column(rows.iter().map(|(_, c)| &c.phases.install_ws_ns));
    w.column(rows.iter().map(|(_, c)| &c.phases.conn_restore_ns));
    w.column(rows.iter().map(|(_, c)| &c.phases.processing_ns));
    w.column(rows.iter().map(|(_, c)| &c.phases.record_finish_ns));
    w.column(rows.iter().map(|(_, c)| c.latency.to_sparse()));
    w.finish()
}

/// One decoded row before its histogram is rebuilt and cross-checked.
#[derive(Clone, Default)]
struct RawRow {
    window: u64,
    function: String,
    policy: String,
    shard: u32,
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
    phases: PhaseSums,
    buckets: Vec<(u16, u64)>,
}

/// Decodes one rollup batch, verifying footer magic and checksum first.
/// Returns the window width the batch was built with plus its rows.
/// Never panics: truncation, bit flips and layout disagreements all come
/// back as a typed [`BatchError`].
#[allow(clippy::type_complexity)]
pub fn decode_rollup_batch(data: &[u8]) -> Result<(u64, Vec<(RollupKey, RollupCell)>), BatchError> {
    let (mut cols, mut header) = FrameReader::open(&FORMAT, data)?;
    let window_ns = rd_u64(&mut header).ok_or(BatchError::TooShort)?;
    if window_ns == 0 {
        return Err(BatchError::BadLayout("zero window width"));
    }
    let mut rows = vec![RawRow::default(); cols.rows];
    cols.column(&mut rows, |r, v| r.window = v)?;
    cols.column(&mut rows, |r, v| r.function = v)?;
    cols.column(&mut rows, |r, v| r.policy = v)?;
    cols.column(&mut rows, |r, v| r.shard = v)?;
    cols.column(&mut rows, |r, v| r.count = v)?;
    cols.column(&mut rows, |r, v| r.sum = v)?;
    cols.column(&mut rows, |r, v| r.min = v)?;
    cols.column(&mut rows, |r, v| r.max = v)?;
    cols.column(&mut rows, |r, v| r.phases.load_vmm_ns = v)?;
    cols.column(&mut rows, |r, v| r.phases.fetch_ws_ns = v)?;
    cols.column(&mut rows, |r, v| r.phases.install_ws_ns = v)?;
    cols.column(&mut rows, |r, v| r.phases.conn_restore_ns = v)?;
    cols.column(&mut rows, |r, v| r.phases.processing_ns = v)?;
    cols.column(&mut rows, |r, v| r.phases.record_finish_ns = v)?;
    cols.column(&mut rows, |r, v| r.buckets = v)?;
    cols.finish()?;
    let rows = rows.into_iter().map(|r| {
        let latency = LogHistogram::from_sparse(&r.buckets, r.sum, r.min, r.max)
            .ok_or(BatchError::BadLayout("inconsistent histogram"))?;
        if latency.count() != r.count {
            return Err(BatchError::BadLayout("count / histogram mismatch"));
        }
        let key = RollupKey {
            window: r.window,
            function: r.function,
            policy: r.policy,
            shard: r.shard,
        };
        let phases = r.phases;
        Ok((key, RollupCell { latency, phases }))
    });
    Ok((window_ns, rows.collect::<Result<_, _>>()?))
}

/// What a rollup build wrote.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RollupBuildStats {
    /// Distinct `(window, function, policy, shard)` cells produced.
    pub cells: u64,
    /// Rollup batch files written.
    pub batches: u64,
    /// Rollup batches dropped because the store would not take them; the
    /// rollup then covers fewer cells than `cells`.
    pub dropped_batches: u64,
    /// Spans folded in.
    pub spans: u64,
}

/// Scans the store's span batches once and persists their windowed
/// rollup as `telemetry/rollup-` batches (replacing any previous
/// rollup). Returns what was written plus the underlying span-scan
/// stats — corrupt span batches are dropped from the rollup exactly as
/// they are from reports.
pub fn build_rollups(store: &FileStore, window_ns: u64) -> (RollupBuildStats, ScanStats) {
    let mut builder = RollupBuilder::new(window_ns);
    let scan = for_each_span(store, |s| builder.add(s));
    for name in store.list() {
        if name.starts_with(ROLLUP_PREFIX) {
            if let Some(id) = store.open(&name) {
                store.delete(id);
            }
        }
    }
    let rows = builder.finish();
    let mut stats = RollupBuildStats {
        cells: rows.len() as u64,
        spans: scan.rows,
        ..RollupBuildStats::default()
    };
    for chunk in rows.chunks(DEFAULT_ROLLUP_ROWS) {
        let blob = encode_rollup_batch(window_ns, chunk);
        match write_batch_file(store, ROLLUP_PREFIX, stats.batches, &blob) {
            Ok(()) => stats.batches += 1,
            Err(_) => stats.dropped_batches += 1,
        }
    }
    (stats, scan)
}

/// Streams every rollup row in the store, in batch order. Returns the
/// window width (of the first good batch; later batches with a different
/// width are dropped and counted) alongside the scan stats.
pub fn for_each_rollup_row(
    store: &FileStore,
    mut visit: impl FnMut(&RollupKey, &RollupCell),
) -> (Option<u64>, ScanStats) {
    let mut window_ns: Option<u64> = None;
    let stats = for_each_batch_file(store, ROLLUP_PREFIX, |blob| {
        let (w, rows) = decode_rollup_batch(blob).ok()?;
        if *window_ns.get_or_insert(w) != w {
            return None;
        }
        rows.iter().for_each(|(k, c)| visit(k, c));
        Some(rows.len() as u64)
    });
    (window_ns, stats)
}

/// A windowed percentile report, answered from rollup batches alone.
#[derive(Debug, Clone)]
pub struct WindowReport {
    /// Window width of the underlying rollup, ns (`None` if the store
    /// holds no rollup).
    pub window_ns: Option<u64>,
    /// Queried half-open window range `[lo, hi)`.
    pub windows: (u64, u64),
    /// Per-group estimates over the range (from merged histogram
    /// buckets), ordered by group key.
    pub groups: Vec<(GroupKey, GroupStats)>,
    /// Rollup batch counters of the underlying scan.
    pub scan: ScanStats,
}

/// Answers a percentile query over windows `[lo_window, hi_window)` by
/// merging rollup cells per `(function, policy, shard)` — reads rollup
/// batches only, never the raw span batches.
pub fn window_report(store: &FileStore, lo_window: u64, hi_window: u64) -> WindowReport {
    let mut merged: BTreeMap<GroupKey, LogHistogram> = BTreeMap::new();
    let (window_ns, scan) = for_each_rollup_row(store, |k, c| {
        if k.window < lo_window || k.window >= hi_window {
            return;
        }
        let key = GroupKey {
            function: k.function.clone(),
            policy: k.policy.clone(),
            shard: k.shard,
        };
        merged.entry(key).or_default().merge(&c.latency);
    });
    let groups = merged
        .into_iter()
        .filter(|(_, h)| h.count() > 0)
        .map(|(key, h)| {
            let stats = GroupStats {
                count: h.count(),
                min_ns: h.min().unwrap_or(0),
                p50_ns: h.value_at_percentile(50.0).unwrap_or(0),
                p95_ns: h.value_at_percentile(95.0).unwrap_or(0),
                p99_ns: h.value_at_percentile(99.0).unwrap_or(0),
                max_ns: h.max().unwrap_or(0),
            };
            (key, stats)
        })
        .collect();
    WindowReport {
        window_ns,
        windows: (lo_window, hi_window),
        groups,
        scan,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::{assert_every_flip_caught, assert_every_truncation_rejected};
    use crate::sink::TelemetrySink;
    use crate::span::sample;
    use crate::synth::synthesize;
    use sim_core::hash::fnv1a64;

    fn seeded_store(n: u64) -> FileStore {
        let store = FileStore::new();
        synthesize(
            &TelemetrySink::new(store.clone()),
            42,
            n,
            3,
            &["helloworld", "pyaes", "chameleon", "json"],
        );
        store
    }

    /// Rollup rows of the fixed span sample, in 2 ms windows.
    fn sample_rows() -> Vec<(RollupKey, RollupCell)> {
        let mut builder = RollupBuilder::new(2_000_000);
        sample(8).iter().for_each(|s| builder.add(s));
        builder.finish()
    }

    #[test]
    fn rollup_codec_round_trip() {
        let store = seeded_store(3000);
        let mut builder = RollupBuilder::new(DEFAULT_WINDOW_NS);
        for_each_span(&store, |s| builder.add(s));
        let rows = builder.finish();
        assert!(!rows.is_empty());
        let blob = encode_rollup_batch(DEFAULT_WINDOW_NS, &rows);
        let (w, decoded) = decode_rollup_batch(&blob).unwrap();
        assert_eq!(w, DEFAULT_WINDOW_NS);
        assert_eq!(decoded, rows);
    }

    /// The format did not move: constants from the encoder at 7af3f74.
    #[test]
    fn golden_bytes() {
        let blob = encode_rollup_batch(2_000_000, &sample_rows());
        assert_eq!(blob.len(), 1095);
        assert_eq!(fnv1a64(&blob), 0xf90e_6d79_c3c3_9ddc);
    }

    #[test]
    fn rollup_truncation_and_flips_are_errors_not_panics() {
        let original = (2_000_000, sample_rows());
        let blob = encode_rollup_batch(original.0, &original.1);
        assert_every_truncation_rejected(&blob, decode_rollup_batch);
        assert_every_flip_caught(&blob, &original, decode_rollup_batch);
    }

    #[test]
    fn build_then_query_covers_all_spans_without_raw_rescan() {
        let store = seeded_store(10_000);
        let (built, scan) = build_rollups(&store, DEFAULT_WINDOW_NS);
        assert_eq!(built.spans, 10_000);
        assert_eq!(scan.batches_dropped, 0);
        assert!(built.batches >= 1);

        let reads_before = store.read_calls();
        let report = window_report(&store, 0, u64::MAX);
        let reads = store.read_calls() - reads_before;
        assert_eq!(report.total_count(), 10_000);
        assert_eq!(report.window_ns, Some(DEFAULT_WINDOW_NS));
        assert_eq!(
            reads, built.batches,
            "window query must read rollup batches only"
        );
        // The stream spans multiple windows, and a narrow range covers
        // strictly fewer spans than the full range.
        let narrow = window_report(&store, 0, 3);
        assert!(narrow.total_count() > 0);
        assert!(narrow.total_count() < report.total_count());
    }

    #[test]
    fn rebuilding_replaces_the_previous_rollup() {
        let store = seeded_store(2000);
        let (first, _) = build_rollups(&store, DEFAULT_WINDOW_NS);
        // A coarser window produces fewer cells; stale batches must not
        // linger or double-count.
        let (second, _) = build_rollups(&store, 60 * DEFAULT_WINDOW_NS);
        assert!(second.cells < first.cells);
        let report = window_report(&store, 0, u64::MAX);
        assert_eq!(report.total_count(), 2000);
        assert_eq!(report.scan.batches_ok, second.batches);
    }

    #[test]
    fn corrupt_rollup_batch_is_dropped_rest_survive() {
        let store = seeded_store(4000);
        // Tiny batches so the rollup spans several files.
        let mut builder = RollupBuilder::new(DEFAULT_WINDOW_NS);
        for_each_span(&store, |s| builder.add(s));
        let rows = builder.finish();
        assert!(rows.len() >= 6);
        let total: u64 = rows.iter().map(|(_, c)| c.latency.count()).sum();
        for (i, chunk) in rows.chunks(rows.len() / 3).enumerate() {
            let blob = encode_rollup_batch(DEFAULT_WINDOW_NS, chunk);
            write_batch_file(&store, ROLLUP_PREFIX, i as u64, &blob).unwrap();
        }
        let id = store.open(&format!("{ROLLUP_PREFIX}{:08}", 1)).unwrap();
        store.write_at(id, 30, &[0x5A]);
        let dropped_count: u64 = rows[rows.len() / 3..2 * (rows.len() / 3)]
            .iter()
            .map(|(_, c)| c.latency.count())
            .sum();
        let report = window_report(&store, 0, u64::MAX);
        assert_eq!(report.scan.batches_dropped, 1);
        assert_eq!(report.total_count(), total - dropped_count);
    }
}
