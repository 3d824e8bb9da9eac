//! The checksummed columnar container both batch formats share.
//!
//! ```text
//! magic [4] │ format's own fixed header │ rows u32 │ cols u32
//! cols × column:  kind u8 │ payload_len u32 │ payload (one value per row)
//! checksum u64 │ footer magic [4]
//! ```
//!
//! All integers are little-endian; the FNV-1a 64 checksum covers every
//! byte above it. [`FrameReader::open`] checks both magics and the
//! checksum **before** parsing anything, so a truncated tail or a flipped
//! byte anywhere in a blob is a typed [`BatchError`] — never a panic,
//! never silently wrong columns. A column's kind follows from the Rust
//! type of its values ([`Put::KIND`]).

use sim_core::hash::fnv1a64;

use crate::codec::BatchError;

/// Checksum + trailing magic.
const FOOTER: usize = 12;

/// What tells one batch format from the other.
pub(crate) struct Format {
    pub magic: &'static [u8; 4],
    pub footer_magic: &'static [u8; 4],
    /// Bytes of format-specific header between the magic and `rows`.
    pub header: usize,
    pub cols: usize,
    /// Typical encoded bytes per row, to size the writer's buffer.
    pub row_bytes: usize,
}

/// Splits `N` bytes off the front of `b`.
fn rd<const N: usize>(b: &mut &[u8]) -> Option<[u8; N]> {
    let (head, rest) = b.split_first_chunk::<N>()?;
    *b = rest;
    Some(*head)
}

/// Splits a little-endian `u16` off the front of `b`.
pub(crate) fn rd_u16(b: &mut &[u8]) -> Option<u16> {
    rd(b).map(u16::from_le_bytes)
}

/// Splits a little-endian `u32` off the front of `b`.
pub(crate) fn rd_u32(b: &mut &[u8]) -> Option<u32> {
    rd(b).map(u32::from_le_bytes)
}

/// Splits a little-endian `u64` off the front of `b`.
pub(crate) fn rd_u64(b: &mut &[u8]) -> Option<u64> {
    rd(b).map(u64::from_le_bytes)
}

/// A value a column can hold, as written. Kinds 0-3 are the primitives
/// below; 4 is the rollup format's histogram column (`rollup.rs`).
pub(crate) trait Put {
    /// The column's kind byte.
    const KIND: u8;
    fn put(&self, out: &mut Vec<u8>);
}

/// A value a column can hold, as read back.
pub(crate) trait Take: Put + Sized {
    /// `BadLayout` label of a payload shorter or longer than its rows.
    const SIZE: &'static str;
    /// Splits one value off the front of `payload`.
    fn take(payload: &mut &[u8]) -> Result<Self, BatchError>;
}

impl<T: Put> Put for &T {
    const KIND: u8 = T::KIND;
    fn put(&self, out: &mut Vec<u8>) {
        T::put(self, out)
    }
}

impl Put for String {
    const KIND: u8 = 0;
    fn put(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&(self.len() as u32).to_le_bytes());
        out.extend_from_slice(self.as_bytes());
    }
}

impl Take for String {
    const SIZE: &'static str = "string column tail";
    #[inline]
    fn take(payload: &mut &[u8]) -> Result<Self, BatchError> {
        let len = rd_u32(payload).ok_or(BatchError::BadLayout("string length"))? as usize;
        if len > payload.len() {
            return Err(BatchError::BadLayout("string bytes"));
        }
        let (bytes, rest) = payload.split_at(len);
        *payload = rest;
        String::from_utf8(bytes.to_vec()).map_err(|_| BatchError::BadLayout("string utf-8"))
    }
}

impl Put for u32 {
    const KIND: u8 = 1;
    fn put(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_le_bytes());
    }
}

impl Take for u32 {
    const SIZE: &'static str = "u32 column size";
    #[inline]
    fn take(payload: &mut &[u8]) -> Result<Self, BatchError> {
        rd_u32(payload).ok_or(BatchError::BadLayout(Self::SIZE))
    }
}

impl Put for u64 {
    const KIND: u8 = 2;
    fn put(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_le_bytes());
    }
}

impl Take for u64 {
    const SIZE: &'static str = "u64 column size";
    #[inline]
    fn take(payload: &mut &[u8]) -> Result<Self, BatchError> {
        rd_u64(payload).ok_or(BatchError::BadLayout(Self::SIZE))
    }
}

impl Put for bool {
    const KIND: u8 = 3;
    fn put(&self, out: &mut Vec<u8>) {
        out.push(*self as u8);
    }
}

impl Take for bool {
    const SIZE: &'static str = "bool column size";
    #[inline]
    fn take(payload: &mut &[u8]) -> Result<Self, BatchError> {
        match rd::<1>(payload).ok_or(BatchError::BadLayout(Self::SIZE))? {
            [0] => Ok(false),
            [1] => Ok(true),
            _ => Err(BatchError::BadLayout("bool value")),
        }
    }
}

/// Writes one batch: header, columns in order, footer.
pub(crate) struct FrameWriter {
    out: Vec<u8>,
    footer_magic: &'static [u8; 4],
}

impl FrameWriter {
    /// Starts a batch of `rows` rows; `header` is the format's own fixed
    /// header bytes.
    pub fn new(f: &Format, header: &[u8], rows: usize) -> Self {
        debug_assert_eq!(header.len(), f.header);
        let mut out = Vec::with_capacity(64 + 5 * f.cols + rows * f.row_bytes);
        out.extend_from_slice(f.magic);
        out.extend_from_slice(header);
        out.extend_from_slice(&(rows as u32).to_le_bytes());
        out.extend_from_slice(&(f.cols as u32).to_le_bytes());
        FrameWriter {
            out,
            footer_magic: f.footer_magic,
        }
    }

    /// Appends one column, one value per row: the payload is written in
    /// place and its length patched in behind it.
    pub fn column<T: Put>(&mut self, values: impl Iterator<Item = T>) {
        self.out.push(T::KIND);
        let len_at = self.out.len();
        self.out.extend_from_slice(&[0; 4]);
        for v in values {
            v.put(&mut self.out);
        }
        let len = (self.out.len() - len_at - 4) as u32;
        self.out[len_at..len_at + 4].copy_from_slice(&len.to_le_bytes());
    }

    /// Closes the batch with its checksum and trailing magic.
    pub fn finish(mut self) -> Vec<u8> {
        let checksum = fnv1a64(&self.out);
        self.out.extend_from_slice(&checksum.to_le_bytes());
        self.out.extend_from_slice(self.footer_magic);
        self.out
    }
}

/// Reads one batch back, column by column, in schema order.
pub(crate) struct FrameReader<'a> {
    /// The columns not read yet, up to the footer.
    rest: &'a [u8],
    /// Rows every column of this batch holds.
    pub rows: usize,
}

impl<'a> FrameReader<'a> {
    /// Verifies length, both magics, the checksum and the column count,
    /// in that order, and returns the reader positioned at column 0 plus
    /// the format's own header bytes.
    pub fn open(f: &Format, data: &'a [u8]) -> Result<(Self, &'a [u8]), BatchError> {
        if data.len() < 4 + f.header + 8 + FOOTER {
            return Err(BatchError::TooShort);
        }
        let (body, mut footer) = data.split_at(data.len() - FOOTER);
        if &body[..4] != f.magic {
            return Err(BatchError::BadMagic);
        }
        let stored = rd_u64(&mut footer).ok_or(BatchError::TooShort)?;
        if footer != f.footer_magic {
            return Err(BatchError::BadFooterMagic);
        }
        let computed = fnv1a64(body);
        if stored != computed {
            return Err(BatchError::ChecksumMismatch { stored, computed });
        }
        let (header, mut rest) = body[4..].split_at(f.header);
        let rows = rd_u32(&mut rest).ok_or(BatchError::TooShort)? as usize;
        let cols = rd_u32(&mut rest).ok_or(BatchError::TooShort)? as usize;
        if cols != f.cols {
            return Err(BatchError::BadLayout("column count"));
        }
        Ok((FrameReader { rest, rows }, header))
    }

    /// Reads the next column into `rows` (one value each) through `set`,
    /// after checking its kind byte and that its payload lies inside the
    /// batch and holds exactly one value per row.
    pub fn column<R, T: Take>(
        &mut self,
        rows: &mut [R],
        set: impl Fn(&mut R, T),
    ) -> Result<(), BatchError> {
        let header = || BatchError::BadLayout("column header");
        if rd::<1>(&mut self.rest).ok_or_else(header)? != [T::KIND] {
            return Err(BatchError::BadLayout("column kind"));
        }
        let len = rd_u32(&mut self.rest).ok_or_else(header)? as usize;
        if len > self.rest.len() {
            return Err(BatchError::BadLayout("column payload"));
        }
        let (mut payload, rest) = self.rest.split_at(len);
        self.rest = rest;
        for row in rows {
            set(row, T::take(&mut payload)?);
        }
        if !payload.is_empty() {
            return Err(BatchError::BadLayout(T::SIZE));
        }
        Ok(())
    }

    /// Checks that the last column ended exactly at the footer.
    pub fn finish(self) -> Result<(), BatchError> {
        if !self.rest.is_empty() {
            return Err(BatchError::BadLayout("trailing bytes before footer"));
        }
        Ok(())
    }
}

/// Every proper prefix of `blob` must fail to decode — never panic,
/// never come back as a silently short batch.
#[cfg(test)]
pub(crate) fn assert_every_truncation_rejected<T>(
    blob: &[u8],
    decode: impl Fn(&[u8]) -> Result<T, BatchError>,
) {
    for cut in 0..blob.len() {
        assert!(decode(&blob[..cut]).is_err(), "cut at {cut}");
    }
}

/// No single flipped byte anywhere in `blob` may decode to `original`.
#[cfg(test)]
pub(crate) fn assert_every_flip_caught<T: PartialEq + std::fmt::Debug>(
    blob: &[u8],
    original: &T,
    decode: impl Fn(&[u8]) -> Result<T, BatchError>,
) {
    let mut bad = blob.to_vec();
    for pos in 0..blob.len() {
        bad[pos] ^= 0xA5;
        assert_ne!(decode(&bad).as_ref(), Ok(original), "flip at {pos}");
        bad[pos] ^= 0xA5;
    }
}
