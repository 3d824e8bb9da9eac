//! REAP's two on-disk artifacts (§5.1):
//!
//! * the **trace file** — the recorded working-set pages inside the guest
//!   memory file, in fault order;
//! * the **working-set (WS) file** — a compact, contiguous copy of those
//!   pages, fetchable with a *single* read.
//!
//! Both are real byte formats with magic numbers and validation, stored in
//! the [`FileStore`] next to the snapshot.
//!
//! The format (`REAPTRC2`/`REAPWSF2`) is *extent-coalesced*: consecutive
//! pages of the fault order are stored as `(offset, len)` extents, so
//! building and parsing do one copy per extent instead of per page. Any
//! other magic — the retired one-offset-per-page format included — is
//! [`WsError::BadMagic`].

use guest_mem::{coalesce_ordered, PageIdx, PageRun, PAGE_SIZE};
use sim_storage::fault::retry_idempotent;
use sim_storage::{FileId, FileStore, StorageError};
use std::fmt;

const TRACE_MAGIC: &[u8; 8] = b"REAPTRC2";
const WS_MAGIC: &[u8; 8] = b"REAPWSF2";

/// Fixed header: 8 bytes of magic + extent count.
const HEADER_BYTES: u64 = 16;
/// Bytes per extent table entry: offset + length-in-pages.
const EXTENT_BYTES: u64 = 16;

/// Errors from parsing REAP files.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WsError {
    /// File does not start with the expected magic.
    BadMagic,
    /// File shorter than its header claims.
    Truncated {
        /// Bytes expected from the header.
        expected: u64,
        /// Bytes actually present.
        actual: u64,
    },
    /// An offset is not page-aligned.
    MisalignedOffset(u64),
    /// An extent covers zero pages (names its offset).
    EmptyExtent(u64),
    /// Two extents overlap (names both offsets).
    OverlappingExtents(u64, u64),
    /// The underlying store failed while reading the artifact (dead file,
    /// injected transient fault, shard blackout). Unlike the format
    /// errors above, this says nothing about the artifact's *contents* —
    /// recovery code checks [`WsError::storage`] before quarantining.
    Io(StorageError),
}

impl WsError {
    /// The storage fault behind this error, if it is [`WsError::Io`].
    pub fn storage(&self) -> Option<&StorageError> {
        match self {
            WsError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<StorageError> for WsError {
    fn from(e: StorageError) -> Self {
        WsError::Io(e)
    }
}

impl fmt::Display for WsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WsError::BadMagic => write!(f, "bad magic in REAP file"),
            WsError::Truncated { expected, actual } => {
                write!(f, "truncated REAP file: expected {expected} bytes, found {actual}")
            }
            WsError::MisalignedOffset(o) => write!(f, "misaligned page offset {o:#x}"),
            WsError::EmptyExtent(o) => write!(f, "zero-length extent at offset {o:#x}"),
            WsError::OverlappingExtents(a, b) => {
                write!(f, "overlapping extents at offsets {a:#x} and {b:#x}")
            }
            WsError::Io(e) => write!(f, "storage fault reading REAP file: {e}"),
        }
    }
}

impl std::error::Error for WsError {}

/// Handles + metadata of one function's recorded REAP artifacts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReapFiles {
    /// The trace file (extents in fault order).
    pub trace_file: FileId,
    /// The working-set file (extents + page contents).
    pub ws_file: FileId,
    /// Number of recorded pages.
    pub pages: u64,
    /// Number of coalesced extents the pages are stored as.
    pub extents: u64,
}

impl ReapFiles {
    /// Size in bytes of the WS file.
    pub fn ws_bytes(&self) -> u64 {
        HEADER_BYTES + self.extents * EXTENT_BYTES + self.pages * PAGE_SIZE as u64
    }

    /// Size in bytes of the trace file.
    pub fn trace_bytes(&self) -> u64 {
        HEADER_BYTES + self.extents * EXTENT_BYTES
    }
}

fn put_u64(buf: &mut [u8], at: usize, v: u64) {
    buf[at..at + 8].copy_from_slice(&v.to_le_bytes());
}

fn extent_table(magic: &[u8; 8], runs: &[PageRun], total_bytes: u64) -> Vec<u8> {
    let mut buf = vec![0u8; total_bytes as usize];
    buf[..8].copy_from_slice(magic);
    put_u64(&mut buf, 8, runs.len() as u64);
    for (i, run) in runs.iter().enumerate() {
        let at = (HEADER_BYTES + i as u64 * EXTENT_BYTES) as usize;
        put_u64(&mut buf, at, run.file_offset());
        put_u64(&mut buf, at + 8, run.len);
    }
    buf
}

/// Writes the trace + WS files for `runs` (recorded fault order, already
/// coalesced). The page data lands via one scatter-gather store operation
/// ([`FileStore::gather_into`]) straight from the guest memory file — a
/// single destination copy, no intermediate buffer and no per-page reads.
///
/// Returns the stored file handles. Existing files under the same prefix
/// are replaced (re-record, §7.2).
pub fn write_reap_files_runs(
    fs: &FileStore,
    prefix: &str,
    mem_file: FileId,
    runs: &[PageRun],
) -> ReapFiles {
    try_write_reap_files_runs(fs, prefix, mem_file, runs).unwrap_or_else(|e| panic!("{e}"))
}

/// Fallible twin of [`write_reap_files_runs`]: surfaces storage faults as
/// typed errors instead of panicking. Transient and torn writes are
/// reissued ([`retry_idempotent`]: every artifact write is idempotent —
/// fixed offsets, gather rewrites its whole tail); with no injected
/// faults the store-op counts are one `write_at` per table and one gather.
fn try_write_reap_files_runs(
    fs: &FileStore,
    prefix: &str,
    mem_file: FileId,
    runs: &[PageRun],
) -> Result<ReapFiles, StorageError> {
    let pages: u64 = runs.iter().map(|r| r.len).sum();
    let extents = runs.len() as u64;
    let files = ReapFiles {
        trace_file: fs.create(&format!("{prefix}/ws_trace")),
        ws_file: fs.create(&format!("{prefix}/ws_pages")),
        pages,
        extents,
    };

    let trace_buf = extent_table(TRACE_MAGIC, runs, files.trace_bytes());
    retry_idempotent(|| fs.write_at(files.trace_file, 0, &trace_buf))?;

    // WS file: same header + extent table, then the page data gathered
    // from the memory file in one store operation.
    let header = extent_table(WS_MAGIC, runs, files.trace_bytes());
    retry_idempotent(|| fs.write_at(files.ws_file, 0, &header))?;
    let parts: Vec<(FileId, u64, u64)> = runs
        .iter()
        .map(|r| (mem_file, r.file_offset(), r.byte_len()))
        .collect();
    retry_idempotent(|| fs.gather_into(files.ws_file, header.len() as u64, &parts))?;
    Ok(files)
}

/// Writes the trace + WS files for `trace` (recorded fault order),
/// coalescing adjacent pages into extents first.
pub fn write_reap_files(fs: &FileStore, prefix: &str, mem_file: FileId, trace: &[PageIdx]) -> ReapFiles {
    write_reap_files_runs(fs, prefix, mem_file, &coalesce_ordered(trace.iter().copied()))
}

/// Validates the fixed header against `magic`; returns the extent count.
fn parse_header(
    fs: &FileStore,
    file: FileId,
    magic: &[u8; 8],
) -> Result<u64, WsError> {
    let len = fs.checked_len(file)?;
    if len < HEADER_BYTES {
        return Err(WsError::Truncated {
            expected: HEADER_BYTES,
            actual: len,
        });
    }
    let head = fs.checked_read_at(file, 0, HEADER_BYTES as usize)?;
    if &head[..8] != magic {
        return Err(WsError::BadMagic);
    }
    Ok(u64::from_le_bytes(head[8..16].try_into().expect("8 bytes")))
}

/// Reads and validates an extent table: aligned offsets, no zero-length
/// extents, byte ranges that fit in u64 arithmetic, no overlaps.
fn read_extents(fs: &FileStore, file: FileId, extents: u64) -> Result<Vec<PageRun>, WsError> {
    let actual = fs.checked_len(file)?;
    let expected = HEADER_BYTES as u128 + extents as u128 * EXTENT_BYTES as u128;
    if (actual as u128) < expected {
        return Err(WsError::Truncated {
            expected: expected.min(u64::MAX as u128) as u64,
            actual,
        });
    }
    // Bound every extent inside a generous absolute page space (2^44
    // pages = 64 PiB of guest memory) so a corrupt offset/length can
    // never wrap the downstream `first + len` / `len * PAGE_SIZE`
    // arithmetic. Real guests are orders of magnitude below this; a
    // table that exceeds it is lying about its size.
    const MAX_EXTENT_PAGES: u64 = 1 << 44;
    let bytes = fs.checked_read_at(file, HEADER_BYTES, (extents * EXTENT_BYTES) as usize)?;
    let mut runs = Vec::with_capacity(extents as usize);
    for chunk in bytes.chunks_exact(EXTENT_BYTES as usize) {
        let off = u64::from_le_bytes(chunk[..8].try_into().expect("8 bytes"));
        let len = u64::from_le_bytes(chunk[8..].try_into().expect("8 bytes"));
        if off % PAGE_SIZE as u64 != 0 {
            return Err(WsError::MisalignedOffset(off));
        }
        if len == 0 {
            return Err(WsError::EmptyExtent(off));
        }
        if (off / PAGE_SIZE as u64) as u128 + len as u128 > MAX_EXTENT_PAGES as u128 {
            return Err(WsError::Truncated {
                expected: u64::MAX,
                actual,
            });
        }
        runs.push(PageRun::new(PageIdx::new(off / PAGE_SIZE as u64), len));
    }
    // Overlap check over the offset-sorted view (the table itself is in
    // fault order).
    let mut sorted: Vec<&PageRun> = runs.iter().collect();
    sorted.sort_by_key(|r| r.first);
    for pair in sorted.windows(2) {
        if pair[0].end() > pair[1].first {
            return Err(WsError::OverlappingExtents(
                pair[0].file_offset(),
                pair[1].file_offset(),
            ));
        }
    }
    Ok(runs)
}

/// Parses a trace file into extents in fault order.
///
/// # Errors
///
/// Returns [`WsError`] on magic/length/alignment/extent violations.
pub fn read_trace_runs(fs: &FileStore, trace_file: FileId) -> Result<Vec<PageRun>, WsError> {
    let count = parse_header(fs, trace_file, TRACE_MAGIC)?;
    read_extents(fs, trace_file, count)
}

/// Parses a trace file into page indices (fault order).
///
/// # Errors
///
/// Returns [`WsError`] on magic/length/alignment violations.
pub fn read_trace_file(fs: &FileStore, trace_file: FileId) -> Result<Vec<PageIdx>, WsError> {
    Ok(read_trace_runs(fs, trace_file)?
        .into_iter()
        .flat_map(|r| r.iter())
        .collect())
}

/// The decoded *layout* of a WS file: each extent plus the byte offset
/// of its page data inside the WS file itself. Fully validated; carries
/// no page data — consumers read (or borrow) exactly the ranges they
/// install, which is how the batched prefetch stays single-copy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WsLayout {
    /// `(extent, data offset in the WS file)`, in fault order.
    pub extents: Vec<(PageRun, u64)>,
    /// Total recorded pages.
    pub pages: u64,
}

/// Parses and validates a WS file's header and extent table
/// without touching the page data — the zero-copy parse.
///
/// # Errors
///
/// Returns [`WsError`] on magic/length/alignment/extent violations.
pub fn read_ws_layout(fs: &FileStore, ws_file: FileId) -> Result<WsLayout, WsError> {
    let count = parse_header(fs, ws_file, WS_MAGIC)?;
    let runs = read_extents(fs, ws_file, count)?;
    let pages: u128 = runs.iter().map(|r| r.len as u128).sum();
    let expected = HEADER_BYTES as u128
        + count as u128 * EXTENT_BYTES as u128
        + pages * PAGE_SIZE as u128;
    let actual = fs.checked_len(ws_file)?;
    if (actual as u128) < expected {
        return Err(WsError::Truncated {
            expected: expected.min(u64::MAX as u128) as u64,
            actual,
        });
    }
    let pages = pages as u64;
    let mut data_at = HEADER_BYTES + count * EXTENT_BYTES;
    let extents = runs
        .into_iter()
        .map(|run| {
            let at = data_at;
            data_at += run.byte_len();
            (run, at)
        })
        .collect();
    Ok(WsLayout { extents, pages })
}

/// Parses a WS file into `(extent, contents)` pairs — one
/// buffer per extent.
///
/// # Errors
///
/// Returns [`WsError`] on magic/length/alignment/extent violations, and
/// [`WsError::Io`] when an extent cannot be read.
fn read_ws_extents(fs: &FileStore, ws_file: FileId) -> Result<Vec<(PageRun, Vec<u8>)>, WsError> {
    let layout = read_ws_layout(fs, ws_file)?;
    layout
        .extents
        .into_iter()
        .map(|(run, at)| Ok((run, fs.read(ws_file, at, run.byte_len(), <[u8]>::to_vec)?)))
        .collect()
}

/// Parses a WS file into per-page `(page, contents)` pairs.
///
/// # Errors
///
/// Returns [`WsError`] on magic/length/alignment violations.
pub fn read_ws_file(fs: &FileStore, ws_file: FileId) -> Result<Vec<(PageIdx, Vec<u8>)>, WsError> {
    let mut out = Vec::new();
    for (run, data) in read_ws_extents(fs, ws_file)? {
        for (i, page) in run.iter().enumerate() {
            out.push((page, data[i * PAGE_SIZE..(i + 1) * PAGE_SIZE].to_vec()));
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mem_with_pages(fs: &FileStore, pages: &[u64]) -> FileId {
        let mem = fs.create("snap/mem");
        for &p in pages {
            let mut data = vec![0u8; PAGE_SIZE];
            guest_mem::checksum::fill_deterministic(&mut data, 11, p);
            fs.write_at(mem, p * PAGE_SIZE as u64, &data).unwrap();
        }
        mem
    }

    #[test]
    fn round_trip_preserves_order_and_contents() {
        let fs = FileStore::new();
        let pages = [5u64, 2, 9, 100, 3];
        let mem = mem_with_pages(&fs, &pages);
        let trace: Vec<PageIdx> = pages.iter().map(|&p| PageIdx::new(p)).collect();
        let files = write_reap_files(&fs, "snap", mem, &trace);
        assert_eq!(files.pages, 5);
        assert_eq!(files.extents, 5, "no adjacent pages in this order");

        let trace_back = read_trace_file(&fs, files.trace_file).unwrap();
        assert_eq!(trace_back, trace, "fault order preserved");

        let ws = read_ws_file(&fs, files.ws_file).unwrap();
        assert_eq!(ws.len(), 5);
        for (i, (page, data)) in ws.iter().enumerate() {
            assert_eq!(*page, trace[i]);
            let expect = fs
                .read(mem, page.file_offset(), PAGE_SIZE as u64, <[u8]>::to_vec)
                .unwrap();
            assert_eq!(data, &expect, "page {page} contents");
        }
    }

    #[test]
    fn adjacent_pages_coalesce_into_extents() {
        let fs = FileStore::new();
        let pages = [10u64, 11, 12, 40, 41, 7];
        let mem = mem_with_pages(&fs, &pages);
        let trace: Vec<PageIdx> = pages.iter().map(|&p| PageIdx::new(p)).collect();
        let files = write_reap_files(&fs, "snap", mem, &trace);
        assert_eq!(files.pages, 6);
        assert_eq!(files.extents, 3, "10-12, 40-41, 7");
        assert_eq!(
            read_trace_runs(&fs, files.trace_file).unwrap(),
            vec![
                PageRun::new(PageIdx::new(10), 3),
                PageRun::new(PageIdx::new(40), 2),
                PageRun::new(PageIdx::new(7), 1)
            ]
        );
        // Expanded view matches the original fault order.
        assert_eq!(read_trace_file(&fs, files.trace_file).unwrap(), trace);
        // Extent-shaped WS parse hands back one buffer per extent with the
        // right contents.
        let extents = read_ws_extents(&fs, files.ws_file).unwrap();
        assert_eq!(extents.len(), 3);
        for (run, data) in &extents {
            assert_eq!(data.len() as u64, run.byte_len());
            for (i, page) in run.iter().enumerate() {
                let expect = fs
                    .read(mem, page.file_offset(), PAGE_SIZE as u64, <[u8]>::to_vec)
                    .unwrap();
                assert_eq!(&data[i * PAGE_SIZE..(i + 1) * PAGE_SIZE], &expect[..]);
            }
        }
    }

    #[test]
    fn sizes_are_exact() {
        let fs = FileStore::new();
        let mem = mem_with_pages(&fs, &[1, 2]);
        let trace = vec![PageIdx::new(1), PageIdx::new(2)];
        let files = write_reap_files(&fs, "s", mem, &trace);
        assert_eq!(fs.len(files.ws_file), files.ws_bytes());
        assert_eq!(fs.len(files.trace_file), files.trace_bytes());
        assert_eq!(files.extents, 1);
        assert_eq!(files.ws_bytes(), 16 + 16 + 2 * 4096);
    }

    #[test]
    fn empty_trace_round_trips() {
        let fs = FileStore::new();
        let mem = fs.create("m");
        let files = write_reap_files(&fs, "s", mem, &[]);
        assert_eq!(read_trace_file(&fs, files.trace_file).unwrap(), vec![]);
        assert!(read_ws_file(&fs, files.ws_file).unwrap().is_empty());
    }

    #[test]
    fn v1_magic_is_rejected() {
        // The retired per-page format differed in the magic's version
        // digit; a file carrying it is not parsed, whatever follows.
        let fs = FileStore::new();
        let mem = mem_with_pages(&fs, &[8, 9, 3]);
        let trace = vec![PageIdx::new(8), PageIdx::new(9), PageIdx::new(3)];
        let files = write_reap_files(&fs, "s", mem, &trace);
        fs.write_at(files.trace_file, 7, b"1").unwrap();
        fs.write_at(files.ws_file, 7, b"1").unwrap();
        assert_eq!(read_trace_runs(&fs, files.trace_file), Err(WsError::BadMagic));
        assert_eq!(read_ws_layout(&fs, files.ws_file), Err(WsError::BadMagic));
    }

    #[test]
    fn bad_magic_detected() {
        let fs = FileStore::new();
        let f = fs.create("junk");
        fs.write_at(f, 0, b"NOTMAGIC\0\0\0\0\0\0\0\0").unwrap();
        assert_eq!(read_trace_file(&fs, f), Err(WsError::BadMagic));
        assert_eq!(read_ws_file(&fs, f), Err(WsError::BadMagic));
    }

    #[test]
    fn truncation_detected() {
        let fs = FileStore::new();
        let mem = mem_with_pages(&fs, &[1]);
        let files = write_reap_files(&fs, "s", mem, &[PageIdx::new(1)]);
        fs.set_len(files.ws_file, 100).unwrap();
        assert!(matches!(
            read_ws_file(&fs, files.ws_file),
            Err(WsError::Truncated { .. })
        ));
        fs.set_len(files.trace_file, 17).unwrap();
        assert!(matches!(
            read_trace_file(&fs, files.trace_file),
            Err(WsError::Truncated { .. })
        ));
        let tiny = fs.create("tiny");
        fs.write_at(tiny, 0, b"ab").unwrap();
        assert!(matches!(
            read_trace_file(&fs, tiny),
            Err(WsError::Truncated { .. })
        ));
    }

    #[test]
    fn v2_ws_data_truncation_detected() {
        let fs = FileStore::new();
        let mem = mem_with_pages(&fs, &[1, 2, 3]);
        let trace = vec![PageIdx::new(1), PageIdx::new(2), PageIdx::new(3)];
        let files = write_reap_files(&fs, "s", mem, &trace);
        // Keep the extent table intact but drop half the page data.
        fs.set_len(files.ws_file, files.ws_bytes() - 2 * PAGE_SIZE as u64).unwrap();
        assert!(matches!(
            read_ws_extents(&fs, files.ws_file),
            Err(WsError::Truncated { .. })
        ));
    }

    #[test]
    fn misaligned_offset_detected() {
        let fs = FileStore::new();
        let f = fs.create("bad");
        let mut buf = vec![0u8; 32];
        buf[..8].copy_from_slice(TRACE_MAGIC);
        put_u64(&mut buf, 8, 1);
        put_u64(&mut buf, 16, 123); // not page aligned
        put_u64(&mut buf, 24, 1);
        fs.write_at(f, 0, &buf).unwrap();
        assert_eq!(read_trace_file(&fs, f), Err(WsError::MisalignedOffset(123)));
    }

    #[test]
    fn zero_length_extent_rejected() {
        let fs = FileStore::new();
        let f = fs.create("bad");
        let mut buf = vec![0u8; 32];
        buf[..8].copy_from_slice(TRACE_MAGIC);
        put_u64(&mut buf, 8, 1);
        put_u64(&mut buf, 16, 5 * PAGE_SIZE as u64);
        put_u64(&mut buf, 24, 0); // empty extent
        fs.write_at(f, 0, &buf).unwrap();
        assert_eq!(
            read_trace_runs(&fs, f),
            Err(WsError::EmptyExtent(5 * PAGE_SIZE as u64))
        );
        // Same rule guards WS files.
        let w = fs.create("badws");
        buf[..8].copy_from_slice(WS_MAGIC);
        fs.write_at(w, 0, &buf).unwrap();
        assert_eq!(
            read_ws_extents(&fs, w),
            Err(WsError::EmptyExtent(5 * PAGE_SIZE as u64))
        );
    }

    #[test]
    fn absurd_extent_length_is_rejected_not_overflowed() {
        // A corrupt v2 table claiming a near-u64::MAX extent must come
        // back as a typed error, not wrap the size arithmetic (or panic
        // on overflow in debug builds).
        let fs = FileStore::new();
        let f = fs.create("bad");
        let mut buf = vec![0u8; 32];
        buf[..8].copy_from_slice(TRACE_MAGIC);
        put_u64(&mut buf, 8, 1);
        put_u64(&mut buf, 16, 0);
        put_u64(&mut buf, 24, u64::MAX / 2);
        fs.write_at(f, 0, &buf).unwrap();
        assert!(matches!(
            read_trace_runs(&fs, f),
            Err(WsError::Truncated { .. })
        ));
        let w = fs.create("badws");
        buf[..8].copy_from_slice(WS_MAGIC);
        fs.write_at(w, 0, &buf).unwrap();
        assert!(matches!(
            read_ws_layout(&fs, w),
            Err(WsError::Truncated { .. })
        ));
    }

    #[test]
    fn overlapping_extents_rejected() {
        let fs = FileStore::new();
        let f = fs.create("bad");
        let mut buf = vec![0u8; 48];
        buf[..8].copy_from_slice(TRACE_MAGIC);
        put_u64(&mut buf, 8, 2);
        // [10, 14) then [12, 13): overlap.
        put_u64(&mut buf, 16, 10 * PAGE_SIZE as u64);
        put_u64(&mut buf, 24, 4);
        put_u64(&mut buf, 32, 12 * PAGE_SIZE as u64);
        put_u64(&mut buf, 40, 1);
        fs.write_at(f, 0, &buf).unwrap();
        assert_eq!(
            read_trace_runs(&fs, f),
            Err(WsError::OverlappingExtents(
                10 * PAGE_SIZE as u64,
                12 * PAGE_SIZE as u64
            ))
        );
        // Abutting extents are fine (e.g. a re-coalesced trace).
        put_u64(&mut buf, 32, 14 * PAGE_SIZE as u64);
        fs.write_at(f, 0, &buf).unwrap();
        assert_eq!(
            read_trace_runs(&fs, f).unwrap(),
            vec![
                PageRun::new(PageIdx::new(10), 4),
                PageRun::new(PageIdx::new(14), 1)
            ]
        );
    }

    #[test]
    fn rerecord_replaces_files() {
        let fs = FileStore::new();
        let mem = mem_with_pages(&fs, &[1, 2, 3]);
        let first = write_reap_files(&fs, "s", mem, &[PageIdx::new(1)]);
        let second = write_reap_files(
            &fs,
            "s",
            mem,
            &[PageIdx::new(2), PageIdx::new(3)],
        );
        assert_eq!(first.trace_file, second.trace_file, "same path, same id");
        assert_eq!(read_trace_file(&fs, second.trace_file).unwrap().len(), 2);
    }

    #[test]
    fn error_display() {
        assert_eq!(WsError::BadMagic.to_string(), "bad magic in REAP file");
        assert!(WsError::Truncated { expected: 10, actual: 2 }
            .to_string()
            .contains("truncated"));
        assert!(WsError::MisalignedOffset(3).to_string().contains("misaligned"));
        assert!(WsError::EmptyExtent(0x1000).to_string().contains("zero-length"));
        assert!(WsError::OverlappingExtents(0, 4096)
            .to_string()
            .contains("overlapping"));
    }
}
