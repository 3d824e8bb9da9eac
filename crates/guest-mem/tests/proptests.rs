//! Property tests for guest memory + uffd invariants, including the
//! equivalence suite that pins the run-length-batched fault path to the
//! original per-page semantics.

use guest_mem::{
    fnv1a64, GuestMemory, MemError, PageBitmap, PageIdx, PageRun, TouchOutcome, Uffd, PAGE_SIZE,
};
use proptest::prelude::*;

/// Reference model of the pre-run-length `GuestMemory`: one boxed frame
/// per page, per-page installs only.
struct RefMemory {
    frames: Vec<Option<Box<[u8]>>>,
}

impl RefMemory {
    fn new(pages: u64) -> Self {
        RefMemory {
            frames: (0..pages).map(|_| None).collect(),
        }
    }

    fn install(&mut self, page: u64, data: &[u8]) -> Result<(), MemError> {
        if page >= self.frames.len() as u64 {
            return Err(MemError::OutOfBounds(PageIdx::new(page).base_addr()));
        }
        if self.frames[page as usize].is_some() {
            return Err(MemError::AlreadyResident(PageIdx::new(page)));
        }
        self.frames[page as usize] = Some(data.to_vec().into_boxed_slice());
        Ok(())
    }

    /// Old-semantics bulk install: page-by-page, all-or-nothing checked
    /// up front (matches `GuestMemory::install_run`'s contract).
    fn install_run(&mut self, first: u64, data: &[u8]) -> Result<(), MemError> {
        let len = data.len() as u64 / PAGE_SIZE as u64;
        if first + len > self.frames.len() as u64 {
            return Err(MemError::OutOfBounds(PageIdx::new(first).base_addr()));
        }
        for p in first..first + len {
            if self.frames[p as usize].is_some() {
                return Err(MemError::AlreadyResident(PageIdx::new(p)));
            }
        }
        for (i, p) in (first..first + len).enumerate() {
            self.install(p, &data[i * PAGE_SIZE..(i + 1) * PAGE_SIZE])
                .expect("checked missing");
        }
        Ok(())
    }

    fn resident(&self) -> Vec<u64> {
        self.frames
            .iter()
            .enumerate()
            .filter(|(_, f)| f.is_some())
            .map(|(i, _)| i as u64)
            .collect()
    }
}

fn page_content(label: u64, page: u64) -> Vec<u8> {
    let mut data = vec![0u8; PAGE_SIZE];
    guest_mem::checksum::fill_deterministic(&mut data, label, page);
    data
}

/// Clip a raw (start, len) pair into a touch window over `pages` pages.
fn window(pages: u64, start: u64, len: u64) -> PageRun {
    let first = start % pages;
    let len = len.clamp(1, pages - first);
    PageRun::new(PageIdx::new(first), len)
}

/// A `PageBitmap` and its per-bit model, both holding the pages of
/// `runs` (each clipped to `pages`).
fn bitmap_and_model(pages: u64, runs: &[(u64, u64)]) -> (PageBitmap, Vec<bool>) {
    let mut bitmap = PageBitmap::new(pages);
    let mut model = vec![false; pages as usize];
    for &(first, len) in runs {
        let first = first.min(pages);
        let len = len.min(pages - first);
        bitmap.set_run(PageRun::new(PageIdx::new(first), len));
        model[first as usize..(first + len) as usize].fill(true);
    }
    (bitmap, model)
}

/// A query window over `pages` pages, shaped by `kind`: empty, ending at
/// `len()`, straddling a word boundary, running past `len()` (the scans
/// clip it), or anywhere inside the range.
fn query_window(pages: u64, kind: u8, a: u64, b: u64) -> PageRun {
    let first = a % (pages + 1);
    match kind {
        0 => PageRun::new(PageIdx::new(first), 0),
        1 => PageRun::new(PageIdx::new(first), pages - first),
        2 if pages > 64 => {
            let boundary = 64 * (1 + a % ((pages - 1) / 64));
            let first = boundary - 1 - b % 8;
            PageRun::new(PageIdx::new(first), (2 + b % 90).min(pages - first))
        }
        3 => PageRun::new(PageIdx::new(first), pages - first + 1 + b % 70),
        _ => PageRun::new(PageIdx::new(first), b % (pages - first + 1)),
    }
}

/// Checks `next_clear_run_in`, `next_set`, `iter` and `runs` against a
/// page-by-page walk of `model`.
fn assert_scans_match_model(bitmap: &PageBitmap, model: &[bool], queries: &[(u64, u8, u64, u64)]) {
    let pages = model.len() as u64;
    let member = |p: u64| model[p as usize];
    for &(from, kind, a, b) in queries {
        let w = query_window(pages, kind, a, b);
        // Mostly just before, inside or just past the window; past `len()`
        // when the window ends there.
        let from = w.first.as_u64().saturating_sub(3) + from % (w.len + 8);
        let hi = w.end().as_u64().min(pages);
        let want_run = (from.max(w.first.as_u64())..hi)
            .find(|&p| !member(p))
            .map(|start| {
                let end = (start..hi).find(|&p| member(p)).unwrap_or(hi);
                PageRun::new(PageIdx::new(start), end - start)
            });
        assert_eq!(
            bitmap.next_clear_run_in(PageIdx::new(from), w),
            want_run,
            "from {from} in {w}"
        );
        for at in [from, a % (pages + 70)] {
            let want = (at..pages).find(|&p| member(p)).map(PageIdx::new);
            assert_eq!(bitmap.next_set(PageIdx::new(at)), want, "next_set({at})");
        }
    }
    let members: Vec<u64> = (0..pages).filter(|&p| member(p)).collect();
    assert_eq!(
        bitmap.iter().map(|p| p.as_u64()).collect::<Vec<_>>(),
        members
    );
    let mut want_runs = Vec::new();
    for &p in &members {
        guest_mem::push_coalesced(&mut want_runs, PageRun::single(PageIdx::new(p)));
    }
    assert_eq!(bitmap.runs(), want_runs);
}

proptest! {
    /// Residency count always equals the number of distinct installed pages,
    /// and installed contents round-trip exactly.
    #[test]
    fn install_read_round_trip(pages in proptest::collection::btree_set(0u64..64, 1..32)) {
        let mut mem = GuestMemory::new(64 * PAGE_SIZE as u64);
        for &p in &pages {
            let mut data = vec![0u8; PAGE_SIZE];
            guest_mem::checksum::fill_deterministic(&mut data, 1, p);
            mem.install_page(PageIdx::new(p), &data).unwrap();
        }
        prop_assert_eq!(mem.resident_pages(), pages.len() as u64);
        for &p in &pages {
            let mut expect = vec![0u8; PAGE_SIZE];
            guest_mem::checksum::fill_deterministic(&mut expect, 1, p);
            prop_assert_eq!(mem.page_bytes(PageIdx::new(p)).unwrap(), &expect[..]);
            prop_assert_eq!(mem.page_checksum(PageIdx::new(p)).unwrap(), fnv1a64(&expect));
        }
    }

    /// The uffd fault/copy protocol always converges: touching any page
    /// sequence, serving each fault with a copy, ends with all touched
    /// pages resident and fault count == distinct missing pages touched.
    #[test]
    fn uffd_protocol_converges(touches in proptest::collection::vec(0u64..128, 1..256)) {
        let mem = GuestMemory::new(128 * PAGE_SIZE as u64);
        let mut uffd = Uffd::register(mem, 0x7000_0000);
        let mut distinct = std::collections::BTreeSet::new();
        for &t in &touches {
            let page = PageIdx::new(t);
            match uffd.touch_page(page) {
                TouchOutcome::Resident => {
                    prop_assert!(distinct.contains(&t), "resident page never installed");
                }
                TouchOutcome::Faulted(ev) => {
                    prop_assert!(distinct.insert(t), "double fault on same page");
                    let p = uffd.page_of_fault(ev);
                    prop_assert_eq!(p, page);
                    uffd.copy(p, &[t as u8; PAGE_SIZE]).unwrap();
                    uffd.wake();
                }
            }
        }
        let st = uffd.stats();
        prop_assert_eq!(st.faults, distinct.len() as u64);
        prop_assert_eq!(st.copies, distinct.len() as u64);
        prop_assert_eq!(uffd.memory().resident_pages(), distinct.len() as u64);
    }

    /// Prefetch-then-touch: pages installed eagerly never fault afterwards,
    /// and EEXIST from racing installs never corrupts contents.
    #[test]
    fn prefetch_prevents_faults(
        prefetch in proptest::collection::btree_set(0u64..64, 1..64),
        touches in proptest::collection::vec(0u64..64, 1..128),
    ) {
        let mem = GuestMemory::new(64 * PAGE_SIZE as u64);
        let mut uffd = Uffd::register(mem, 0);
        for &p in &prefetch {
            uffd.copy(PageIdx::new(p), &[0xAA; PAGE_SIZE]).unwrap();
        }
        // Racing re-install: EEXIST, contents unchanged.
        for &p in prefetch.iter().take(3) {
            let err = uffd.copy(PageIdx::new(p), &[0xBB; PAGE_SIZE]);
            prop_assert_eq!(err, Err(MemError::AlreadyResident(PageIdx::new(p))));
        }
        let mut faulted = 0u64;
        for &t in &touches {
            match uffd.touch_page(PageIdx::new(t)) {
                TouchOutcome::Resident => {
                    if prefetch.contains(&t) {
                        prop_assert_eq!(uffd.memory().page_bytes(PageIdx::new(t)).unwrap()[0], 0xAA);
                    }
                }
                TouchOutcome::Faulted(ev) => {
                    prop_assert!(!prefetch.contains(&t), "prefetched page faulted");
                    faulted += 1;
                    let p = uffd.page_of_fault(ev);
                    uffd.copy(p, &[0xCC; PAGE_SIZE]).unwrap();
                }
            }
        }
        prop_assert!(faulted <= touches.len() as u64);
        prop_assert_eq!(uffd.stats().faults, faulted);
    }

    /// Equivalence: the bitmap/slab `GuestMemory` behaves exactly like the
    /// per-page boxed-frame model under arbitrary interleavings of
    /// single-page installs and bulk run installs — same success/error
    /// results, same resident set, same bytes.
    #[test]
    fn memory_matches_per_page_reference(
        ops in proptest::collection::vec((0u8..2, 0u64..96, 1u64..9), 1..120)
    ) {
        const PAGES: u64 = 80;
        let mut mem = GuestMemory::new(PAGES * PAGE_SIZE as u64);
        let mut reference = RefMemory::new(PAGES);
        for (i, &(kind, raw_page, raw_len)) in ops.iter().enumerate() {
            match kind {
                0 => {
                    // Single-page install (may go out of bounds on purpose).
                    let page = raw_page;
                    let data = page_content(i as u64, page);
                    let got = mem.install_page(PageIdx::new(page), &data);
                    let want = reference.install(page, &data);
                    prop_assert_eq!(got, want, "install_page({})", page);
                }
                _ => {
                    // Bulk install; may overlap residents or leave bounds.
                    let first = raw_page % PAGES;
                    let len = raw_len; // may extend past the region
                    let mut data = Vec::with_capacity((len * PAGE_SIZE as u64) as usize);
                    for p in first..first + len {
                        data.extend_from_slice(&page_content(i as u64, p));
                    }
                    let got = mem.install_run(PageRun::new(PageIdx::new(first), len), &data);
                    let want = reference.install_run(first, &data);
                    prop_assert_eq!(got, want, "install_run({}, {})", first, len);
                }
            }
        }
        let resident: Vec<u64> = mem.resident_iter().map(|p| p.as_u64()).collect();
        prop_assert_eq!(&resident, &reference.resident());
        prop_assert_eq!(mem.resident_pages(), resident.len() as u64);
        for &p in &resident {
            let want = reference.frames[p as usize].as_deref().unwrap();
            prop_assert_eq!(mem.page_bytes(PageIdx::new(p)).unwrap(), want, "page {}", p);
        }
        // The run view expands to the same resident set.
        let from_runs: Vec<u64> = mem
            .resident_runs()
            .iter()
            .flat_map(|r| r.iter())
            .map(|p| p.as_u64())
            .collect();
        prop_assert_eq!(&from_runs, &resident);
    }

    /// Equivalence: serving random touch-run sequences through the
    /// batched path (`next_missing_run`/`raise_run`/`copy_run`/
    /// `wake_run`, what `Monitor::serve_run` calls) produces *identical*
    /// `UffdStats`, resident sets and page contents to the per-page
    /// protocol (`touch_page`/`poll`/`copy`/`wake`) the old replay used.
    #[test]
    fn run_path_matches_per_page_uffd(
        touches in proptest::collection::vec((0u64..128, 1u64..24), 1..60)
    ) {
        const PAGES: u64 = 128;
        const LABEL: u64 = 0x51AB;
        let region = 0x7f00_0000_0000u64;

        // Per-page reference protocol.
        let mut per_page = Uffd::register(GuestMemory::new(PAGES * PAGE_SIZE as u64), region);
        for &(start, len) in &touches {
            let w = window(PAGES, start, len);
            for page in w.iter() {
                if let TouchOutcome::Faulted(ev) = per_page.touch_page(page) {
                    let polled = per_page.poll().unwrap();
                    prop_assert_eq!(polled, ev);
                    let p = per_page.page_of_fault(ev);
                    per_page.copy(p, &page_content(LABEL, p.as_u64())).unwrap();
                    per_page.wake();
                }
            }
        }

        // Batched run protocol.
        let mut batched = Uffd::register(GuestMemory::new(PAGES * PAGE_SIZE as u64), region);
        for &(start, len) in &touches {
            let w = window(PAGES, start, len);
            let mut cursor = w.first;
            while let Some(missing) = batched.next_missing_run(cursor, w) {
                let ev = batched.raise_run(missing);
                let first = batched.page_of_fault(ev);
                prop_assert_eq!(first, missing.first);
                let data: Vec<u8> = missing
                    .iter()
                    .flat_map(|page| page_content(LABEL, page.as_u64()))
                    .collect();
                let install = batched.copy_run(missing, &data).unwrap();
                prop_assert_eq!(install.eexist, 0, "a missing run installs whole");
                batched.wake_run(missing.len);
                cursor = missing.end();
            }
        }

        prop_assert_eq!(per_page.stats(), batched.stats(), "UffdStats must be identical");
        let ref_resident: Vec<u64> = per_page.memory().resident_iter().map(|p| p.as_u64()).collect();
        let run_resident: Vec<u64> = batched.memory().resident_iter().map(|p| p.as_u64()).collect();
        prop_assert_eq!(&ref_resident, &run_resident, "resident sets must be identical");
        for &p in &ref_resident {
            prop_assert_eq!(
                per_page.memory().page_checksum(PageIdx::new(p)),
                batched.memory().page_checksum(PageIdx::new(p)),
                "page {} contents must be identical", p
            );
        }
    }

    /// `PageBitmap`'s scans against a per-bit model on small sets whose
    /// size need not be a multiple of 64: window queries (empty, crossing
    /// a word boundary, ending at `len()`) from any start, `next_set`,
    /// `iter` and `runs`.
    #[test]
    fn bitmap_scans_match_per_bit_model(
        pages in 0u64..201,
        runs in proptest::collection::vec((0u64..200, 0u64..70), 0..12),
        queries in proptest::collection::vec((0u64..280, 0u8..5, 0u64..400, 0u64..400), 1..16),
    ) {
        let (bitmap, model) = bitmap_and_model(pages, &runs);
        assert_scans_match_model(&bitmap, &model, &queries);
    }

    /// The same scans on a sparse guest-sized (65,536-page) set, where a
    /// window's end is far from the end of the set.
    #[test]
    fn sparse_guest_bitmap_scans_match_per_bit_model(
        runs in proptest::collection::vec((0u64..65_536, 1u64..300), 0..8),
        queries in proptest::collection::vec((0u64..65_536, 0u8..5, 0u64..65_536, 0u64..600), 1..16),
    ) {
        let (bitmap, model) = bitmap_and_model(65_536, &runs);
        assert_scans_match_model(&bitmap, &model, &queries);
    }
}
