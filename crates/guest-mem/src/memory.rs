//! Sparse guest physical memory.
//!
//! Frames are allocated on install, so a freshly "restored" VM occupies no
//! memory until pages are faulted or prefetched in — exactly the property
//! the paper measures in Fig 4 (snapshot-restored instances touch 8–99 MB
//! of their 256 MB guest memory).
//!
//! Residency is a word-packed bitmap and frame bytes live
//! in a single slab arena (one growing allocation, no per-page boxes), so
//! the batched fault path of §5.2 can install a whole [`PageRun`] with one
//! bounds check and one copy.
//!
//! Frames come in two flavours:
//!
//! * **private** — bytes owned by this instance's slab arena (every
//!   `install_*` API);
//! * **shared** — refcounted aliases of a [`FrameBytes`] buffer owned
//!   elsewhere (the snapshot frame cache), installed by
//!   [`GuestMemory::alias_run`] with *zero* byte copies.

use std::fmt;
use std::sync::Arc;

use crate::checksum::fnv1a64;
use crate::page::{GuestAddr, PageIdx, PAGE_SIZE};
use crate::run::{PageBitmap, PageRun};

/// Errors raised by guest memory accesses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemError {
    /// Access touched a page that is not resident (would page-fault).
    NotResident(PageIdx),
    /// Access fell outside the guest memory region.
    OutOfBounds(GuestAddr),
    /// `UFFDIO_COPY` target page is already mapped (kernel returns EEXIST).
    AlreadyResident(PageIdx),
}

impl fmt::Display for MemError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MemError::NotResident(p) => write!(f, "page {p} is not resident"),
            MemError::OutOfBounds(a) => write!(f, "address {a} is out of bounds"),
            MemError::AlreadyResident(p) => write!(f, "page {p} is already resident"),
        }
    }
}

impl std::error::Error for MemError {}

/// Page has no frame slot assigned.
const NO_SLOT: u32 = u32::MAX;

/// Slot values with this bit set index the alias table instead of the
/// private arena ([`NO_SLOT`] is checked first and never aliases).
const SHARED_BIT: u32 = 1 << 31;

/// One [`GuestMemory::alias_run`] install: every page of the run holds
/// `SHARED_BIT | its index` in the alias table, and page `first + i`
/// aliases page `src_page + i` of `src`.
#[derive(Debug)]
struct Alias {
    src: FrameBytes,
    src_page: u64,
    first: u64,
}

impl Alias {
    /// The page of `src` that guest page `page` of the run aliases.
    fn src_page_of(&self, page: u64) -> u64 {
        self.src_page + (page - self.first)
    }
}

/// A refcounted, immutable buffer whose pages can back guest frames in
/// many [`GuestMemory`] instances at once (the snapshot frame cache hands
/// these out). Cloning is a refcount bump; the bytes are never copied.
pub type FrameBytes = Arc<Vec<u8>>;

/// One stretch of a resident run as [`GuestMemory::run_chunks`] yields it.
#[derive(Debug, Clone, Copy)]
pub struct RunChunk<'a> {
    /// The pages the chunk covers.
    pub run: PageRun,
    /// Their bytes, borrowed where they lie.
    pub bytes: &'a [u8],
    /// For a stretch of shared aliases: the buffer every page of the chunk
    /// aliases and the page offset within it of the chunk's first page
    /// (`None` for private arena frames).
    pub source: Option<(&'a FrameBytes, u32)>,
}

/// Guest physical memory: a fixed-size region of lazily-populated 4 KB
/// frames.
///
/// A frame's bytes never change after install: the guest only touches
/// pages, and state reaches guest memory only through the monitor's
/// `UFFDIO_COPY` installs (§5.2). So no method hands out `&mut` access to
/// a resident frame, and a shared alias stays an alias until the memory
/// is dropped.
///
/// # Example
///
/// ```
/// use guest_mem::{GuestAddr, GuestMemory, MemError, PageIdx};
///
/// let mut mem = GuestMemory::new(16 * 4096);
/// assert_eq!(
///     mem.read(GuestAddr::new(0), 4).unwrap_err(),
///     MemError::NotResident(PageIdx::new(0))
/// );
/// mem.install_page(PageIdx::new(0), &[7u8; 4096]).unwrap();
/// assert_eq!(mem.read(GuestAddr::new(0), 2).unwrap(), vec![7, 7]);
/// ```
#[derive(Debug)]
pub struct GuestMemory {
    /// page -> frame slot in `arena`, or [`NO_SLOT`].
    slots: Vec<u32>,
    /// Frame bytes; slot `s` occupies `[s * PAGE_SIZE, (s + 1) * PAGE_SIZE)`.
    arena: Vec<u8>,
    /// Alias table: entry `s` backs every page whose slot is
    /// `SHARED_BIT | s` — one entry, and one refcount, per aliased run.
    aliases: Vec<Alias>,
    /// Pages the alias table backs.
    aliased: u64,
    resident: PageBitmap,
}

impl GuestMemory {
    /// Creates a region of `bytes` (rounded up to whole pages), fully
    /// non-resident.
    ///
    /// # Panics
    ///
    /// Panics if `bytes == 0`.
    pub fn new(bytes: u64) -> Self {
        GuestMemory::with_slab(bytes, Vec::new())
    }

    /// [`new`](Self::new), with the frame arena grown in `slab`'s
    /// allocation: a redeploy boots into the memory its previous snapshot
    /// held, already faulted in, instead of faulting a fresh one. Only
    /// `slab`'s capacity is kept: the arena starts empty, and every install
    /// appends a frame's bytes whole — copied or generated — so no byte of
    /// the old slab is ever readable.
    ///
    /// # Panics
    ///
    /// Panics if `bytes == 0`.
    pub fn with_slab(bytes: u64, mut slab: Vec<u8>) -> Self {
        assert!(bytes > 0, "guest memory must be non-empty");
        let pages = bytes.div_ceil(PAGE_SIZE as u64);
        slab.clear();
        GuestMemory {
            slots: vec![NO_SLOT; pages as usize],
            arena: slab,
            aliases: Vec::new(),
            aliased: 0,
            resident: PageBitmap::new(pages),
        }
    }

    /// Region size in pages.
    pub fn num_pages(&self) -> u64 {
        self.slots.len() as u64
    }

    /// Region size in bytes.
    pub fn size_bytes(&self) -> u64 {
        self.num_pages() * PAGE_SIZE as u64
    }

    /// Number of resident pages.
    pub fn resident_pages(&self) -> u64 {
        self.resident.count()
    }

    /// Resident set size in bytes — the `ps`-style footprint the paper
    /// reports in Fig 4.
    pub fn footprint_bytes(&self) -> u64 {
        self.resident.count() * PAGE_SIZE as u64
    }

    /// True if `page` is resident.
    pub fn is_resident(&self, page: PageIdx) -> bool {
        self.resident.get(page)
    }

    /// True if every page of `run` is resident.
    pub fn is_run_resident(&self, run: PageRun) -> bool {
        self.resident.all_set_in(run)
    }

    /// True if `run` lies entirely within the region.
    pub fn contains_run(&self, run: PageRun) -> bool {
        run.first.as_u64() + run.len <= self.num_pages()
    }

    fn check_range(&self, addr: GuestAddr, len: u64) -> Result<(), MemError> {
        if addr.as_u64() + len > self.size_bytes() {
            return Err(MemError::OutOfBounds(addr));
        }
        Ok(())
    }

    fn frame(&self, page: PageIdx) -> Option<&[u8]> {
        let slot = *self.slots.get(page.as_u64() as usize)?;
        if slot == NO_SLOT {
            return None;
        }
        if slot & SHARED_BIT != 0 {
            let alias = &self.aliases[(slot & !SHARED_BIT) as usize];
            let base = alias.src_page_of(page.as_u64()) as usize * PAGE_SIZE;
            return Some(&alias.src[base..base + PAGE_SIZE]);
        }
        let base = slot as usize * PAGE_SIZE;
        Some(&self.arena[base..base + PAGE_SIZE])
    }

    fn check_installable(&self, run: PageRun) -> Result<(), MemError> {
        if !self.contains_run(run) {
            return Err(MemError::OutOfBounds(run.first.base_addr()));
        }
        if self.resident.any_set_in(run) {
            let taken = run
                .iter()
                .find(|&p| self.resident.get(p))
                .expect("any_set_in found one");
            return Err(MemError::AlreadyResident(taken));
        }
        Ok(())
    }

    /// Installs page contents (the `UFFDIO_COPY` destination operation).
    ///
    /// # Errors
    ///
    /// Returns [`MemError::AlreadyResident`] if the page is mapped (kernel
    /// EEXIST) and [`MemError::OutOfBounds`] if outside the region.
    ///
    /// # Panics
    ///
    /// Panics if `data` is not exactly one page.
    pub fn install_page(&mut self, page: PageIdx, data: &[u8]) -> Result<(), MemError> {
        assert_eq!(data.len(), PAGE_SIZE, "install needs exactly one page");
        self.install_appended(PageRun::single(page), |arena| arena.extend_from_slice(data))
    }

    /// Installs `run` as fresh private frames at the arena tail: checks
    /// the run, lets `append` write exactly its bytes onto the arena, then
    /// maps its pages to the new slots in page order. Nothing is appended
    /// or installed on error.
    fn install_appended(
        &mut self,
        run: PageRun,
        append: impl FnOnce(&mut Vec<u8>),
    ) -> Result<(), MemError> {
        if run.is_empty() {
            return Ok(());
        }
        self.check_installable(run)?;
        let first_slot = (self.arena.len() / PAGE_SIZE) as u32;
        append(&mut self.arena);
        debug_assert_eq!(
            self.arena.len(),
            (first_slot as u64 + run.len) as usize * PAGE_SIZE
        );
        for (i, page) in run.iter().enumerate() {
            self.slots[page.as_u64() as usize] = first_slot + i as u32;
        }
        self.resident.set_run(run);
        Ok(())
    }

    /// Bulk `UFFDIO_COPY`: installs `run.len` pages of contents in one
    /// operation — one residency check, one (parallel for multi-MB runs)
    /// copy straight into the frame arena, no per-page allocation and no
    /// intermediate zero-fill.
    ///
    /// Nothing is installed unless the *entire* run is installable.
    ///
    /// # Errors
    ///
    /// [`MemError::AlreadyResident`] names the first mapped page;
    /// [`MemError::OutOfBounds`] if the run leaves the region.
    ///
    /// # Panics
    ///
    /// Panics if `data` is not exactly `run.len` pages.
    pub fn install_run(&mut self, run: PageRun, data: &[u8]) -> Result<(), MemError> {
        assert_eq!(
            data.len() as u64,
            run.byte_len(),
            "install_run needs exactly the run's bytes"
        );
        // The run's frames extend the arena contiguously; the install is
        // exactly one copy from `data`.
        self.install_appended(run, |arena| sim_core::extend_par(arena, data))
    }

    /// Bulk install of generated contents: each page `p` of `run` holds
    /// what [`fill_deterministic`](crate::checksum::fill_deterministic)
    /// writes for `(label, p)`, appended to the arena by
    /// [`sim_core::hash::fill_pages`] — each byte written once, with no
    /// zero-fill first. This is how a booting guest's kernel populates the
    /// memory it touches.
    ///
    /// # Errors
    ///
    /// Same as [`install_run`](Self::install_run); nothing is installed on
    /// error.
    pub fn install_run_generated(&mut self, run: PageRun, label: u64) -> Result<(), MemError> {
        self.install_appended(run, |arena| {
            sim_core::hash::fill_pages(
                arena,
                PAGE_SIZE,
                label,
                run.first.as_u64(),
                run.len as usize,
            )
        })
    }

    /// Zero-copy alias install: maps `run.len` pages straight onto the
    /// refcounted buffer `src` starting at byte
    /// `src_page_offset * PAGE_SIZE`, without copying a single frame byte.
    /// The pages become resident exactly like
    /// [`install_run`](Self::install_run)'s. This is how repeat cold
    /// starts share one cached snapshot extent across instances and
    /// shards. The run holds `src` once, however many pages it has: the
    /// install moves the caller's reference in (dropped on error).
    ///
    /// Nothing is installed unless the *entire* run is installable.
    ///
    /// # Errors
    ///
    /// Same as [`install_run`](Self::install_run).
    ///
    /// # Panics
    ///
    /// Panics if `src` does not cover the aliased range.
    pub fn alias_run(
        &mut self,
        run: PageRun,
        src: FrameBytes,
        src_page_offset: u64,
    ) -> Result<(), MemError> {
        assert!(
            (src_page_offset + run.len) as usize * PAGE_SIZE <= src.len(),
            "alias_run source buffer too short for {run}"
        );
        if run.is_empty() {
            return Ok(());
        }
        self.check_installable(run)?;
        let first = run.first.as_u64();
        let slot = SHARED_BIT | self.aliases.len() as u32;
        self.slots[first as usize..(first + run.len) as usize].fill(slot);
        self.aliases.push(Alias {
            src,
            src_page: src_page_offset,
            first,
        });
        self.aliased += run.len;
        self.resident.set_run(run);
        Ok(())
    }

    /// Number of resident pages currently backed by shared (aliased)
    /// frames rather than private arena bytes.
    pub fn aliased_pages(&self) -> u64 {
        self.aliased
    }

    /// The refcounted buffer `page` currently aliases, if it is backed by
    /// a shared frame (`None` for non-resident or private pages). Lets
    /// dedup tests and benches observe that instances of *different*
    /// functions cloned from one runtime image really share a single
    /// allocation — and that a cache eviction leaves the alias intact.
    pub fn aliased_source(&self, page: PageIdx) -> Option<FrameBytes> {
        if !self.resident.get(page) {
            return None;
        }
        let slot = self.slots[page.as_u64() as usize];
        if slot & SHARED_BIT == 0 {
            return None;
        }
        Some(self.aliases[(slot & !SHARED_BIT) as usize].src.clone())
    }

    /// Reads `len` bytes at `addr`.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::NotResident`] naming the *first* missing page —
    /// the fault the VM would take — or [`MemError::OutOfBounds`].
    pub fn read(&self, addr: GuestAddr, len: u64) -> Result<Vec<u8>, MemError> {
        self.check_range(addr, len)?;
        let mut out = Vec::with_capacity(len as usize);
        let mut cur = addr;
        let mut remaining = len;
        while remaining > 0 {
            let page = cur.page();
            let frame = self.frame(page).ok_or(MemError::NotResident(page))?;
            let off = cur.page_offset();
            let take = ((PAGE_SIZE - off) as u64).min(remaining) as usize;
            out.extend_from_slice(&frame[off..off + take]);
            cur = cur.add(take as u64);
            remaining -= take as u64;
        }
        Ok(out)
    }

    /// Borrows a resident run's bytes where they lie: one [`RunChunk`] per
    /// maximal stretch of the run whose frames are adjacent in their
    /// backing store, in ascending page order. A bulk install is one chunk
    /// of the arena; consecutive pages aliasing consecutive pages of *one*
    /// shared buffer are one chunk carrying that buffer (so a reader can
    /// recognise a whole cached extent by identity instead of by bytes); a
    /// frame installed page by page out of order, a switch between arena
    /// and shared frames, or a change of shared buffer or offset starts a
    /// new chunk. The chunks tile `run` exactly — snapshot capture writes
    /// each straight to the memory file, so no frame byte is staged on the
    /// way.
    ///
    /// # Panics
    ///
    /// Panics if `run` leaves the region or any of its pages is not
    /// resident: a hole must never read as zeros.
    pub fn run_chunks(&self, run: PageRun) -> impl Iterator<Item = RunChunk<'_>> + '_ {
        assert!(self.contains_run(run), "{run} leaves the region");
        assert!(self.resident.all_set_in(run), "{run} is not fully resident");
        let first = run.first.as_u64();
        let slots = &self.slots[first as usize..(first + run.len) as usize];
        // The buffer an aliased page at `at` in `slots` aliases, and the
        // page of it.
        let source_at = move |slot: u32, at: usize| {
            let alias = &self.aliases[(slot & !SHARED_BIT) as usize];
            (&alias.src, alias.src_page_of(first + at as u64) as u32)
        };
        let mut at = 0;
        std::iter::from_fn(move || {
            // Every slot here is resident (checked above), so none is
            // `NO_SLOT` and `SHARED_BIT` alone tells the flavours apart.
            let slot = *slots.get(at)?;
            let start = at;
            at += 1;
            let (backing, base, source) = if slot & SHARED_BIT != 0 {
                let (src, off) = source_at(slot, start);
                // A page of the same install continues the chunk; so does
                // one of an adjacent install that goes on where it ended
                // in the same buffer.
                while slots.get(at).is_some_and(|&next| {
                    next == slot
                        || next & SHARED_BIT != 0 && {
                            let (next_src, next_off) = source_at(next, at);
                            Arc::ptr_eq(src, next_src) && next_off == off + (at - start) as u32
                        }
                }) {
                    at += 1;
                }
                (&src[..], off, Some((src, off)))
            } else {
                // Private slots stay below SHARED_BIT, so `slot + n` can
                // only equal another private slot.
                while slots.get(at) == Some(&(slot + (at - start) as u32)) {
                    at += 1;
                }
                (&self.arena[..], slot, None)
            };
            let base = base as usize * PAGE_SIZE;
            Some(RunChunk {
                run: PageRun::new(PageIdx::new(first + start as u64), (at - start) as u64),
                bytes: &backing[base..base + (at - start) * PAGE_SIZE],
                source,
            })
        })
    }

    /// Consumes the memory for its frame arena, laid out so that each
    /// resident run's bytes are one contiguous stretch of it — the move
    /// half of snapshot capture. Returns the arena and, in ascending page
    /// order, every chunk [`run_chunks`](Self::run_chunks) yields, each
    /// with the arena offset its bytes now start at. A run that is one
    /// private chunk keeps its place, so a booted VM's slab moves without
    /// a byte copied; any other run (frames installed out of order, or
    /// shared aliases) is copied chunk by chunk onto the arena's tail,
    /// where its chunks end up adjacent.
    pub fn into_slab(mut self) -> (Vec<u8>, Vec<(PageRun, usize)>) {
        enum Source {
            Arena(usize),
            Shared(FrameBytes, usize),
        }
        let mut plan = Vec::new();
        for run in self.resident_runs() {
            let chunks: Vec<RunChunk<'_>> = self.run_chunks(run).collect();
            let in_place = matches!(chunks[..], [RunChunk { source: None, .. }]);
            for chunk in chunks {
                let from = match chunk.source {
                    Some((src, off)) => Source::Shared(src.clone(), off as usize * PAGE_SIZE),
                    None => Source::Arena(
                        self.slots[chunk.run.first.as_u64() as usize] as usize * PAGE_SIZE,
                    ),
                };
                plan.push((chunk.run, from, in_place));
            }
        }
        let mut arena = std::mem::take(&mut self.arena);
        let chunks = plan
            .into_iter()
            .map(|(run, from, in_place)| {
                let (tail, len) = (arena.len(), run.byte_len() as usize);
                match from {
                    Source::Arena(at) if in_place => return (run, at),
                    Source::Arena(at) => arena.extend_from_within(at..at + len),
                    Source::Shared(src, at) => arena.extend_from_slice(&src[at..at + len]),
                }
                (run, tail)
            })
            .collect();
        (arena, chunks)
    }

    /// Borrow of a resident page's bytes.
    pub fn page_bytes(&self, page: PageIdx) -> Option<&[u8]> {
        self.frame(page)
    }

    /// FNV-1a fingerprint of a resident page.
    pub fn page_checksum(&self, page: PageIdx) -> Option<u64> {
        self.page_bytes(page).map(fnv1a64)
    }

    /// Iterates over resident page indices in ascending order.
    pub fn resident_iter(&self) -> impl Iterator<Item = PageIdx> + '_ {
        self.resident.iter()
    }

    /// Maximal runs of resident pages in ascending order — the shape
    /// snapshot capture and verification iterate by.
    pub fn resident_runs(&self) -> Vec<PageRun> {
        self.resident.runs()
    }

    /// First non-resident page inside `window` at or after `from` together
    /// with the length of the maximal missing run there — the batched
    /// fault-path query.
    pub fn next_missing_run(&self, from: PageIdx, window: PageRun) -> Option<PageRun> {
        self.resident.next_clear_run_in(from, window)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn page_of(byte: u8) -> Vec<u8> {
        vec![byte; PAGE_SIZE]
    }

    #[test]
    fn fresh_memory_is_empty() {
        let mem = GuestMemory::new(256 * 1024 * 1024);
        assert_eq!(mem.num_pages(), 65536);
        assert_eq!(mem.resident_pages(), 0);
        assert_eq!(mem.footprint_bytes(), 0);
        assert!(!mem.is_resident(PageIdx::new(0)));
    }

    #[test]
    fn size_rounds_up_to_pages() {
        let mem = GuestMemory::new(4097);
        assert_eq!(mem.num_pages(), 2);
        assert_eq!(mem.size_bytes(), 8192);
    }

    #[test]
    fn install_then_read() {
        let mut mem = GuestMemory::new(8 * 4096);
        mem.install_page(PageIdx::new(3), &page_of(0xAB)).unwrap();
        assert_eq!(mem.resident_pages(), 1);
        assert_eq!(mem.footprint_bytes(), 4096);
        let got = mem.read(PageIdx::new(3).base_addr(), 8).unwrap();
        assert_eq!(got, vec![0xAB; 8]);
    }

    #[test]
    fn double_install_is_eexist() {
        let mut mem = GuestMemory::new(8 * 4096);
        mem.install_page(PageIdx::new(0), &page_of(1)).unwrap();
        assert_eq!(
            mem.install_page(PageIdx::new(0), &page_of(2)),
            Err(MemError::AlreadyResident(PageIdx::new(0)))
        );
        // Original contents preserved.
        assert_eq!(mem.read(GuestAddr::new(0), 1).unwrap(), vec![1]);
    }

    #[test]
    fn read_unmapped_reports_first_missing_page() {
        let mut mem = GuestMemory::new(8 * 4096);
        mem.install_page(PageIdx::new(0), &page_of(9)).unwrap();
        // Crossing from resident page 0 into missing page 1.
        let err = mem.read(GuestAddr::new(4090), 10).unwrap_err();
        assert_eq!(err, MemError::NotResident(PageIdx::new(1)));
    }

    #[test]
    fn out_of_bounds_detected() {
        let mem = GuestMemory::new(2 * 4096);
        let err = mem.read(GuestAddr::new(2 * 4096 - 1), 2).unwrap_err();
        assert!(matches!(err, MemError::OutOfBounds(_)));
        assert!(!mem.contains_run(PageRun::single(PageIdx::new(2))));
        assert!(mem.contains_run(PageRun::single(PageIdx::new(1))));
    }

    #[test]
    fn install_out_of_bounds() {
        let mut mem = GuestMemory::new(4096);
        let err = mem.install_page(PageIdx::new(5), &page_of(0)).unwrap_err();
        assert!(matches!(err, MemError::OutOfBounds(_)));
    }

    #[test]
    fn zero_page_and_checksum() {
        let mut mem = GuestMemory::new(2 * 4096);
        mem.install_run(PageRun::single(PageIdx::new(1)), &page_of(0))
            .unwrap();
        assert_eq!(mem.read(GuestAddr::new(4096), 3).unwrap(), vec![0, 0, 0]);
        let zeros = mem.page_checksum(PageIdx::new(1)).unwrap();
        assert_eq!(zeros, fnv1a64(&[0u8; PAGE_SIZE]));
        assert_eq!(mem.page_checksum(PageIdx::new(0)), None);
    }

    #[test]
    fn resident_iter_ascends() {
        let mut mem = GuestMemory::new(8 * 4096);
        for i in [1u64, 4, 6] {
            mem.install_page(PageIdx::new(i), &page_of(i as u8)).unwrap();
        }
        let resident: Vec<u64> = mem.resident_iter().map(|p| p.as_u64()).collect();
        assert_eq!(resident, vec![1, 4, 6]);
    }

    #[test]
    fn install_run_bulk_and_eexist() {
        let mut mem = GuestMemory::new(16 * 4096);
        let data: Vec<u8> = (0..4 * PAGE_SIZE).map(|i| (i / PAGE_SIZE) as u8).collect();
        mem.install_run(PageRun::new(PageIdx::new(2), 4), &data).unwrap();
        assert_eq!(mem.resident_pages(), 4);
        for i in 0..4u64 {
            assert_eq!(
                mem.read(PageIdx::new(2 + i).base_addr(), 1).unwrap(),
                vec![i as u8]
            );
        }
        // A read across frame boundaries stitches the frames together.
        let span = PageIdx::new(2).base_addr().add(PAGE_SIZE as u64 - 3);
        let got = mem.read(span, PAGE_SIZE as u64 + 6).unwrap();
        assert_eq!(got, data[PAGE_SIZE - 3..2 * PAGE_SIZE + 3]);
        // Overlapping run fails atomically, naming the first taken page.
        let err = mem
            .install_run(PageRun::new(PageIdx::new(4), 4), &data)
            .unwrap_err();
        assert_eq!(err, MemError::AlreadyResident(PageIdx::new(4)));
        assert_eq!(mem.resident_pages(), 4, "nothing installed on error");
        // Out-of-bounds run fails before filling.
        let err = mem
            .install_run(PageRun::new(PageIdx::new(14), 4), &data)
            .unwrap_err();
        assert!(matches!(err, MemError::OutOfBounds(_)));
        // Empty run is a no-op.
        mem.install_run(PageRun::new(PageIdx::new(0), 0), &[]).unwrap();
    }

    /// `fill_deterministic`'s bytes for `label` over `run`, page by page.
    fn generated(run: PageRun, label: u64) -> Vec<u8> {
        let mut bytes = vec![0u8; run.byte_len() as usize];
        for (page, frame) in run.iter().zip(bytes.chunks_mut(PAGE_SIZE)) {
            crate::checksum::fill_deterministic(frame, label, page.as_u64());
        }
        bytes
    }

    #[test]
    fn install_run_generated_fills_in_place() {
        let mut mem = GuestMemory::new(16 * 4096);
        let run = PageRun::new(PageIdx::new(1), 6);
        mem.install_run_generated(run, 0xF00D).unwrap();
        assert_eq!(mem.resident_pages(), 6);
        assert_eq!(chunk_pages(&mem, run), vec![6]);
        assert!(mem.run_chunks(run).next().unwrap().bytes == generated(run, 0xF00D));
        // Errors match `install_run`'s, and install nothing.
        assert_eq!(
            mem.install_run_generated(PageRun::new(PageIdx::new(0), 2), 1),
            Err(MemError::AlreadyResident(PageIdx::new(1)))
        );
        assert!(matches!(
            mem.install_run_generated(PageRun::new(PageIdx::new(14), 4), 1),
            Err(MemError::OutOfBounds(_))
        ));
        mem.install_run_generated(PageRun::new(PageIdx::new(0), 0), 1)
            .unwrap();
        assert_eq!((mem.resident_pages(), mem.arena.len()), (6, 6 * PAGE_SIZE));
    }

    /// The chunks of `run`, checked to tile it exactly and to concatenate
    /// to the per-page bytes; returns each chunk's length in pages.
    fn chunk_pages(mem: &GuestMemory, run: PageRun) -> Vec<u64> {
        let mut next = run.first.as_u64();
        let mut lens = Vec::new();
        for RunChunk { run: pages, bytes, source } in mem.run_chunks(run) {
            assert_eq!(pages.first.as_u64(), next, "chunks ascend without gap or overlap");
            assert!(!pages.is_empty() && bytes.len() as u64 == pages.byte_len());
            for (i, frame) in bytes.chunks(PAGE_SIZE).enumerate() {
                let page = PageIdx::new(next + i as u64);
                assert_eq!(Some(frame), mem.page_bytes(page));
                // Every page of a chunk shares the chunk's source.
                let aliased = mem.aliased_source(page);
                assert_eq!(aliased.is_some(), source.is_some());
                assert!(aliased.iter().all(|a| Arc::ptr_eq(a, source.unwrap().0)));
            }
            lens.push(pages.len);
            next += pages.len;
        }
        assert_eq!(next, run.end().as_u64(), "chunks cover the whole run");
        lens
    }

    #[test]
    fn run_chunks_of_a_bulk_install_is_one_borrowed_chunk() {
        let mut mem = GuestMemory::new(16 * 4096);
        let zeros = PageRun::new(PageIdx::new(9), 2);
        mem.install_run(zeros, &[0; 2 * PAGE_SIZE]).unwrap();
        let chunk = mem.run_chunks(zeros).next().unwrap();
        assert_eq!(chunk.bytes, &[0u8; 2 * PAGE_SIZE][..]);
        let data: Vec<u8> = (0..4 * PAGE_SIZE).map(|i| (i / PAGE_SIZE + 1) as u8).collect();
        let run = PageRun::new(PageIdx::new(2), 4);
        mem.install_run(run, &data).unwrap();
        assert_eq!(chunk_pages(&mem, run), vec![4]);
        let chunk = mem.run_chunks(run).next().unwrap();
        assert_eq!((chunk.run, chunk.bytes), (run, &data[..]));
        assert!(chunk.source.is_none(), "arena frames have no shared source");
        // A sub-run borrows just its stretch; an empty run yields nothing.
        assert_eq!(chunk_pages(&mem, PageRun::new(PageIdx::new(3), 2)), vec![2]);
        assert_eq!(mem.run_chunks(PageRun::new(PageIdx::new(3), 0)).count(), 0);
        // Two installs that happen to be adjacent in pages *and* arena merge.
        mem.install_run(PageRun::new(PageIdx::new(6), 2), &[0; 2 * PAGE_SIZE])
            .unwrap();
        assert_eq!(chunk_pages(&mem, PageRun::new(PageIdx::new(2), 6)), vec![6]);
    }

    #[test]
    fn run_chunks_tile_scattered_and_aliased_frames() {
        let mut mem = GuestMemory::new(16 * 4096);
        // Per-page installs take arena slots in call order, so pages 2 and
        // 5 land in each other's slots.
        for i in [0u64, 1, 5, 3, 4, 2, 7] {
            mem.install_page(PageIdx::new(i), &page_of(i as u8 + 1)).unwrap();
        }
        // An alias in the middle.
        let src = shared_buf(2, 0xAA);
        mem.alias_run(PageRun::new(PageIdx::new(6), 1), src.clone(), 1).unwrap();
        let run = PageRun::new(PageIdx::new(0), 8);
        assert_eq!(chunk_pages(&mem, run), vec![2, 1, 2, 1, 1, 1]);
        // Adjacent aliases of consecutive pages of one buffer are one chunk.
        mem.alias_run(PageRun::new(PageIdx::new(8), 2), src.clone(), 0).unwrap();
        assert_eq!(chunk_pages(&mem, PageRun::new(PageIdx::new(7), 3)), vec![1, 2]);
    }

    #[test]
    fn run_chunks_coalesce_an_aliased_run_and_split_where_identity_breaks() {
        let mut mem = GuestMemory::new(32 * 4096);
        let (a, b) = (shared_buf(6, 0xA1), shared_buf(6, 0xB2));
        let whole = PageRun::new(PageIdx::new(4), 6);
        mem.alias_run(whole, a.clone(), 0).unwrap();
        // Each chunk as (first page, pages, source: (is it `a`?, offset)).
        let sources = |mem: &GuestMemory, run| {
            chunk_pages(mem, run);
            let chunks = mem.run_chunks(run).map(|c| {
                let src = c.source.map(|(s, off)| (Arc::ptr_eq(s, &a), off));
                (c.run.first.as_u64(), c.run.len, src)
            });
            chunks.collect::<Vec<_>>()
        };
        // One alias install is one chunk, carrying its buffer at offset 0.
        assert_eq!(sources(&mem, whole), vec![(4, 6, Some((true, 0)))]);
        // A sub-run starts mid-buffer and says so.
        assert_eq!(
            sources(&mem, PageRun::new(PageIdx::new(6), 3)),
            vec![(6, 3, Some((true, 2)))]
        );
        // A change of buffer splits, and so does a jump in the offset
        // within one buffer — even where the bytes are equal.
        mem.alias_run(PageRun::new(PageIdx::new(10), 2), b.clone(), 0).unwrap();
        mem.alias_run(PageRun::new(PageIdx::new(12), 2), b.clone(), 3).unwrap();
        mem.alias_run(PageRun::new(PageIdx::new(14), 1), b.clone(), 5).unwrap();
        assert_eq!(
            sources(&mem, PageRun::new(PageIdx::new(8), 7)),
            vec![
                (8, 2, Some((true, 4))),
                (10, 2, Some((false, 0))),
                (12, 3, Some((false, 3)))
            ]
        );
    }

    #[test]
    fn into_slab_keeps_whole_runs_in_place_and_moves_the_rest_to_the_tail() {
        let mut mem = GuestMemory::new(32 * 4096);
        // Run 0..2 is one bulk install; run 4..8 is installed out of
        // order (two chunks); run 10..12 aliases a shared buffer.
        mem.install_run(
            PageRun::new(PageIdx::new(0), 2),
            &[page_of(1), page_of(2)].concat(),
        )
        .unwrap();
        mem.install_run(
            PageRun::new(PageIdx::new(6), 2),
            &[page_of(6), page_of(7)].concat(),
        )
        .unwrap();
        mem.install_run(
            PageRun::new(PageIdx::new(4), 2),
            &[page_of(4), page_of(5)].concat(),
        )
        .unwrap();
        let src = shared_buf(3, 0xAA);
        mem.alias_run(PageRun::new(PageIdx::new(10), 2), src.clone(), 1)
            .unwrap();
        let image: Vec<(PageRun, Vec<u8>)> = mem
            .resident_runs()
            .into_iter()
            .flat_map(|run| {
                mem.run_chunks(run)
                    .map(|c| (c.run, c.bytes.to_vec()))
                    .collect::<Vec<_>>()
            })
            .collect();
        let (slab, chunks) = mem.into_slab();
        let run = |first, len| PageRun::new(PageIdx::new(first), len);
        let p = PAGE_SIZE;
        // The whole run stays put; the split and aliased runs land on the
        // tail with their chunks adjacent, in page order.
        assert_eq!(
            chunks,
            vec![
                (run(0, 2), 0),
                (run(4, 2), 6 * p),
                (run(6, 2), 8 * p),
                (run(10, 2), 10 * p)
            ]
        );
        assert_eq!(slab.len(), 12 * p);
        for ((pages, bytes), (chunk, at)) in image.iter().zip(&chunks) {
            assert_eq!(*pages, *chunk);
            assert!(slab[*at..*at + bytes.len()] == bytes[..], "{chunk}");
        }
        assert_eq!(
            Arc::strong_count(&src),
            1,
            "the aliases went with the memory"
        );
    }

    #[test]
    fn a_recycled_slab_never_shows_an_old_byte() {
        let mut old = GuestMemory::new(8 * 4096);
        old.install_run(PageRun::new(PageIdx::new(0), 4), &[0xEE; 4 * PAGE_SIZE])
            .unwrap();
        let (slab, _) = old.into_slab();
        let ptr = slab.as_ptr();
        let mut mem = GuestMemory::with_slab(8 * 4096, slab);
        assert_eq!(mem.resident_pages(), 0);
        // A generated install over the 0xEE bytes reads exactly the
        // generator's bytes, written where the old ones lay.
        let run = PageRun::new(PageIdx::new(5), 3);
        mem.install_run_generated(run, 0xA5).unwrap();
        assert!(mem.run_chunks(run).next().unwrap().bytes == generated(run, 0xA5));
        let (slab, chunks) = mem.into_slab();
        assert_eq!((slab.as_ptr(), slab.len()), (ptr, 3 * PAGE_SIZE));
        assert_eq!(chunks, vec![(run, 0)]);
    }

    #[test]
    #[should_panic(expected = "not fully resident")]
    fn run_chunks_refuses_a_hole() {
        let mut mem = GuestMemory::new(8 * 4096);
        mem.install_run(PageRun::new(PageIdx::new(2), 3), &[0; 3 * PAGE_SIZE])
            .unwrap();
        let _ = mem.run_chunks(PageRun::new(PageIdx::new(4), 2));
    }

    #[test]
    #[should_panic(expected = "leaves the region")]
    fn run_chunks_refuses_out_of_bounds() {
        let mem = GuestMemory::new(8 * 4096);
        let _ = mem.run_chunks(PageRun::new(PageIdx::new(7), 2));
    }

    #[test]
    fn resident_runs_and_missing_runs() {
        let mut mem = GuestMemory::new(16 * 4096);
        mem.install_run(PageRun::new(PageIdx::new(0), 2), &[0; 2 * PAGE_SIZE])
            .unwrap();
        mem.install_run(PageRun::new(PageIdx::new(5), 3), &[0; 3 * PAGE_SIZE])
            .unwrap();
        assert_eq!(
            mem.resident_runs(),
            vec![
                PageRun::new(PageIdx::new(0), 2),
                PageRun::new(PageIdx::new(5), 3)
            ]
        );
        let window = PageRun::new(PageIdx::new(0), 16);
        assert_eq!(
            mem.next_missing_run(PageIdx::new(0), window),
            Some(PageRun::new(PageIdx::new(2), 3))
        );
        assert_eq!(
            mem.next_missing_run(PageIdx::new(5), window),
            Some(PageRun::new(PageIdx::new(8), 8))
        );
        assert!(mem.is_run_resident(PageRun::new(PageIdx::new(5), 3)));
        assert!(!mem.is_run_resident(PageRun::new(PageIdx::new(4), 2)));
    }

    fn shared_buf(pages: usize, byte: u8) -> FrameBytes {
        Arc::new(vec![byte; pages * PAGE_SIZE])
    }

    #[test]
    fn alias_run_shares_without_copying() {
        let mut mem = GuestMemory::new(16 * 4096);
        let src = shared_buf(4, 0xA5);
        mem.alias_run(PageRun::new(PageIdx::new(3), 4), src.clone(), 0).unwrap();
        assert_eq!(mem.resident_pages(), 4);
        assert_eq!(mem.aliased_pages(), 4);
        assert_eq!(mem.arena.len(), 0, "no private frame bytes allocated");
        assert_eq!(Arc::strong_count(&src), 2, "one refcount per aliased run");
        assert_eq!(mem.aliases.len(), 1, "one alias-table entry per run");
        assert_eq!(mem.read(PageIdx::new(4).base_addr(), 2).unwrap(), vec![0xA5, 0xA5]);
        // Aliased pages behave as resident everywhere.
        assert!(mem.is_run_resident(PageRun::new(PageIdx::new(3), 4)));
        assert_eq!(
            mem.page_checksum(PageIdx::new(3)),
            Some(fnv1a64(&[0xA5u8; PAGE_SIZE]))
        );
    }

    #[test]
    fn alias_run_with_page_offset_maps_the_right_bytes() {
        let mut mem = GuestMemory::new(16 * 4096);
        let mut bytes = vec![0u8; 3 * PAGE_SIZE];
        for (i, chunk) in bytes.chunks_mut(PAGE_SIZE).enumerate() {
            chunk.fill(i as u8 + 1);
        }
        let src = Arc::new(bytes);
        mem.alias_run(PageRun::new(PageIdx::new(8), 2), src.clone(), 1).unwrap();
        assert_eq!(mem.read(PageIdx::new(8).base_addr(), 1).unwrap(), vec![2]);
        assert_eq!(mem.read(PageIdx::new(9).base_addr(), 1).unwrap(), vec![3]);
    }

    #[test]
    fn a_page_inside_an_aliased_run_finds_its_own_offset() {
        let mut mem = GuestMemory::new(32 * 4096);
        let mut bytes = vec![0u8; 8 * PAGE_SIZE];
        for (i, page) in bytes.chunks_mut(PAGE_SIZE).enumerate() {
            page.fill(i as u8 + 1);
        }
        let src = Arc::new(bytes);
        // Pages 10..15 alias buffer pages 2..7; page 12 is buffer page 4.
        let run = PageRun::new(PageIdx::new(10), 5);
        mem.alias_run(run, src.clone(), 2).unwrap();
        let mid = PageIdx::new(12);
        assert_eq!(mem.page_bytes(mid), Some(&src[4 * PAGE_SIZE..5 * PAGE_SIZE]));
        assert!(Arc::ptr_eq(&mem.aliased_source(mid).unwrap(), &src));
        let chunk = mem.run_chunks(PageRun::new(mid, 2)).next().unwrap();
        assert_eq!((chunk.run, chunk.source.unwrap().1), (PageRun::new(mid, 2), 4));
        assert_eq!(chunk.bytes, &src[4 * PAGE_SIZE..6 * PAGE_SIZE]);
        // A second run aliasing where the first ended in the same buffer
        // continues its chunk: verify's identity check sees one extent.
        mem.alias_run(PageRun::new(PageIdx::new(15), 1), src.clone(), 7)
            .unwrap();
        let whole = PageRun::new(PageIdx::new(10), 6);
        let chunks: Vec<_> = mem.run_chunks(whole).collect();
        assert_eq!(chunks.len(), 1);
        assert_eq!((chunks[0].run, chunks[0].source.unwrap().1), (whole, 2));
        assert_eq!(chunks[0].bytes, &src[2 * PAGE_SIZE..]);
        assert_eq!((mem.aliased_pages(), Arc::strong_count(&src)), (6, 3));
    }

    #[test]
    fn alias_run_errors_match_install_run() {
        let mut mem = GuestMemory::new(8 * 4096);
        let src = shared_buf(4, 1);
        mem.install_page(PageIdx::new(2), &page_of(9)).unwrap();
        let err = mem.alias_run(PageRun::new(PageIdx::new(1), 3), src.clone(), 0).unwrap_err();
        assert_eq!(err, MemError::AlreadyResident(PageIdx::new(2)));
        assert_eq!(mem.aliased_pages(), 0, "nothing aliased on error");
        let err = mem.alias_run(PageRun::new(PageIdx::new(6), 4), src.clone(), 0).unwrap_err();
        assert!(matches!(err, MemError::OutOfBounds(_)));
        // Empty run is a no-op.
        mem.alias_run(PageRun::new(PageIdx::new(0), 0), src.clone(), 0).unwrap();
    }

    #[test]
    #[should_panic(expected = "source buffer too short")]
    fn alias_run_rejects_short_source() {
        let mut mem = GuestMemory::new(8 * 4096);
        let src = shared_buf(2, 0);
        let _ = mem.alias_run(PageRun::new(PageIdx::new(0), 3), src.clone(), 0);
    }

    #[test]
    fn dropping_the_memory_drops_every_alias() {
        let mut mem = GuestMemory::new(8 * 4096);
        let src = shared_buf(2, 7);
        mem.alias_run(PageRun::new(PageIdx::new(0), 2), src.clone(), 0).unwrap();
        mem.alias_run(PageRun::new(PageIdx::new(4), 1), src.clone(), 1).unwrap();
        assert_eq!(Arc::strong_count(&src), 3, "one refcount per aliased run");
        assert_eq!(mem.aliased_pages(), 3);
        drop(mem);
        assert_eq!(Arc::strong_count(&src), 1, "dropping the memory drops every alias");
    }

    #[test]
    fn error_display() {
        assert_eq!(
            MemError::NotResident(PageIdx::new(3)).to_string(),
            "page pfn:3 is not resident"
        );
        assert_eq!(
            MemError::AlreadyResident(PageIdx::new(1)).to_string(),
            "page pfn:1 is already resident"
        );
        assert!(MemError::OutOfBounds(GuestAddr::new(16))
            .to_string()
            .contains("out of bounds"));
    }
}
