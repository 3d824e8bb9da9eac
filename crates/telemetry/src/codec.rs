//! The span-batch codec: N spans in per-column contiguous encoding (the
//! otlp2parquet OTLP→column-batch shape) inside the crate's shared
//! checksummed frame (magics, column headers and footer: `frame.rs`).
//!
//! ```text
//! magic "VTB1" │ rows u32 │ cols u32 (= 25, the fixed span schema)
//! 25 columns, one per `SpanRecord` field in declaration order:
//!   str  payload: per row u32 len + bytes     u32  payload: rows × 4 B LE
//!   u64  payload: rows × 8 B LE               bool payload: rows × 1 B (0/1)
//! checksum u64 │ magic "VTBE"
//! ```
//!
//! [`decode_batch`] verifies the trailing magic and the checksum
//! **before** parsing anything, so a truncated tail or flipped byte
//! anywhere in the blob surfaces as a typed [`BatchError`] — never a
//! panic, never silently wrong columns. Readers drop the bad batch and
//! keep the rest of the store.

use crate::frame::{Format, FrameReader, FrameWriter};
use crate::span::SpanRecord;

/// Leading magic of a columnar batch.
pub const BATCH_MAGIC: &[u8; 4] = b"VTB1";
/// Trailing magic, after the footer checksum.
pub const FOOTER_MAGIC: &[u8; 4] = b"VTBE";

const FORMAT: Format = Format {
    magic: BATCH_MAGIC,
    footer_magic: FOOTER_MAGIC,
    header: 0,
    cols: COLUMNS,
    row_bytes: 192,
};

/// Why a batch failed to decode. Every variant means the whole batch is
/// untrustworthy; readers drop it and continue with the next one.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BatchError {
    /// Shorter than the fixed header + footer.
    TooShort,
    /// Leading magic is not the format's (`VTB1` / `VTR1`).
    BadMagic,
    /// Trailing magic is not the format's (`VTBE` / `VTRE`; the classic
    /// truncated-tail signature).
    BadFooterMagic,
    /// Footer checksum does not match the batch bytes.
    ChecksumMismatch {
        /// Checksum stored in the footer.
        stored: u64,
        /// Checksum recomputed over the batch bytes.
        computed: u64,
    },
    /// Column count or a column payload disagrees with the schema.
    BadLayout(&'static str),
}

impl std::fmt::Display for BatchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BatchError::TooShort => write!(f, "batch shorter than header + footer"),
            BatchError::BadMagic => write!(f, "bad batch magic"),
            BatchError::BadFooterMagic => write!(f, "bad footer magic (truncated tail?)"),
            BatchError::ChecksumMismatch { stored, computed } => write!(
                f,
                "footer checksum mismatch: stored {stored:#018x}, computed {computed:#018x}"
            ),
            BatchError::BadLayout(what) => write!(f, "bad column layout: {what}"),
        }
    }
}

impl std::error::Error for BatchError {}

/// The span schema: one column per listed field, in encoding order; a
/// column's kind is its field's type.
macro_rules! span_schema {
    ($($field:ident),*) => {
        /// Number of columns in a span batch.
        pub const COLUMNS: usize = [$(stringify!($field)),*].len();

        /// Encodes spans into one columnar batch blob.
        pub fn encode_batch(spans: &[SpanRecord]) -> Vec<u8> {
            let mut w = FrameWriter::new(&FORMAT, &[], spans.len());
            $(w.column(spans.iter().map(|r| &r.$field));)*
            w.finish()
        }

        /// Decodes one batch blob, verifying the footer checksum first.
        ///
        /// Never panics: any truncation, bit flip or layout disagreement
        /// returns a [`BatchError`].
        pub fn decode_batch(data: &[u8]) -> Result<Vec<SpanRecord>, BatchError> {
            let (mut r, _) = FrameReader::open(&FORMAT, data)?;
            let mut spans = vec![SpanRecord::default(); r.rows];
            $(r.column(&mut spans, |s, v| s.$field = v)?;)*
            r.finish()?;
            Ok(spans)
        }
    };
}

span_schema!(
    function,
    policy,
    shard,
    seq,
    cold,
    recorded,
    vt_ns,
    load_vmm_ns,
    fetch_ws_ns,
    install_ws_ns,
    conn_restore_ns,
    processing_ns,
    record_finish_ns,
    latency_ns,
    cache_hits,
    cache_misses,
    cache_raced,
    transient_retries,
    corrupt_reloads,
    retry_delay_ns,
    quarantined,
    fallback_vanilla,
    rebuilt,
    rerouted,
    disposition
);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::{assert_every_flip_caught, assert_every_truncation_rejected};
    use crate::span::sample;
    use sim_core::hash::fnv1a64;

    #[test]
    fn round_trip_identity() {
        for n in [0u64, 1, 2, 100] {
            let spans = sample(n);
            let blob = encode_batch(&spans);
            assert_eq!(decode_batch(&blob).unwrap(), spans, "n = {n}");
        }
    }

    /// The format did not move: constants from the encoder at 7af3f74.
    #[test]
    fn golden_bytes() {
        let blob = encode_batch(&sample(8));
        assert_eq!(blob.len(), 1449);
        assert_eq!(fnv1a64(&blob), 0x8555_863b_a64c_2357);
    }

    #[test]
    fn truncation_at_every_length_is_an_error_not_a_panic() {
        assert_every_truncation_rejected(&encode_batch(&sample(8)), decode_batch);
    }

    #[test]
    fn every_single_byte_flip_is_caught() {
        assert_every_flip_caught(&encode_batch(&sample(4)), &sample(4), decode_batch);
    }

    #[test]
    fn checksum_mismatch_is_reported_as_such() {
        let blob = encode_batch(&sample(3));
        let mut bad = blob.clone();
        bad[20] ^= 0xFF; // inside a column payload
        match decode_batch(&bad) {
            Err(BatchError::ChecksumMismatch { .. }) => {}
            other => panic!("expected checksum mismatch, got {other:?}"),
        }
    }
}
