//! Run-length page primitives.
//!
//! The paper's central observation (§5.2) is that cold-start cost is set
//! by *per-page* round trips: thousands of userfaultfd faults, installs
//! and file reads that could be one bulk operation each. [`PageRun`] is
//! the vocabulary type for that batching — a contiguous range of guest
//! pages, and a guest touch — and [`PageBitmap`] is the one page set, which
//! every layer queries word-at-a-time, never through per-page structures.

use std::fmt;

use crate::page::{PageIdx, PAGE_SIZE};

/// A contiguous run of guest pages `[first, first + len)`.
///
/// # Example
///
/// ```
/// use guest_mem::{PageIdx, PageRun};
///
/// let run = PageRun::new(PageIdx::new(4), 3);
/// assert_eq!(run.end(), PageIdx::new(7));
/// assert_eq!(run.byte_len(), 3 * 4096);
/// assert!(run.contains(PageIdx::new(6)));
/// assert_eq!(run.iter().count(), 3);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PageRun {
    /// First page of the run.
    pub first: PageIdx,
    /// Number of pages.
    pub len: u64,
}

impl PageRun {
    /// Creates a run of `len` pages starting at `first`.
    pub const fn new(first: PageIdx, len: u64) -> Self {
        PageRun { first, len }
    }

    /// A single-page run.
    pub const fn single(page: PageIdx) -> Self {
        PageRun { first: page, len: 1 }
    }

    /// True if the run covers no pages.
    pub const fn is_empty(self) -> bool {
        self.len == 0
    }

    /// One past the last page.
    pub const fn end(self) -> PageIdx {
        PageIdx::new(self.first.as_u64() + self.len)
    }

    /// Byte offset of the run inside the guest memory file.
    pub const fn file_offset(self) -> u64 {
        self.first.file_offset()
    }

    /// Length of the run in bytes.
    pub const fn byte_len(self) -> u64 {
        self.len * PAGE_SIZE as u64
    }

    /// True if `page` lies inside the run.
    pub const fn contains(self, page: PageIdx) -> bool {
        page.as_u64() >= self.first.as_u64() && page.as_u64() < self.first.as_u64() + self.len
    }

    /// True if `other` directly continues this run (`other.first == end`).
    pub const fn abuts(self, other: PageRun) -> bool {
        self.first.as_u64() + self.len == other.first.as_u64()
    }

    /// Iterates the run's pages in ascending order.
    pub fn iter(self) -> impl Iterator<Item = PageIdx> {
        (self.first.as_u64()..self.first.as_u64() + self.len).map(PageIdx::new)
    }
}

impl fmt::Display for PageRun {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "run:[{}+{}]", self.first.as_u64(), self.len)
    }
}

/// Appends `run` to `runs`, merging with the tail when contiguous, so the
/// original ordering (e.g. REAP fault order) survives: pushing `5+3, 8+1,
/// 2+2` leaves `[5+4, 2+2]`. Trace recording builds its run list this way.
pub fn push_coalesced(runs: &mut Vec<PageRun>, run: PageRun) {
    if run.is_empty() {
        return;
    }
    match runs.last_mut() {
        Some(last) if last.abuts(run) => last.len += run.len,
        _ => runs.push(run),
    }
}

const WORD_BITS: u64 = 64;

/// A word-packed page set over a fixed range `[0, pages)`: residency, the
/// touched, boot and recorded sets. Membership, bulk marking, intersection
/// counts and maximal-run queries are word-at-a-time; nothing allocates
/// per page. `Debug` prints the members as a sorted set does: `{p, q}`.
#[derive(Clone, Default, PartialEq, Eq)]
pub struct PageBitmap {
    words: Vec<u64>,
    pages: u64,
    ones: u64,
}

impl PageBitmap {
    /// Creates an empty set over `pages` pages.
    pub fn new(pages: u64) -> Self {
        PageBitmap {
            words: vec![0; pages.div_ceil(WORD_BITS) as usize],
            pages,
            ones: 0,
        }
    }

    /// Number of pages the set ranges over.
    pub fn len(&self) -> u64 {
        self.pages
    }

    /// True if the range is empty.
    pub fn is_empty(&self) -> bool {
        self.pages == 0
    }

    /// Number of member pages.
    pub fn count(&self) -> u64 {
        self.ones
    }

    /// Number of pages that are members of both `self` and `other`: one
    /// AND plus popcount per word over the shorter range.
    pub fn count_common(&self, other: &PageBitmap) -> u64 {
        self.words
            .iter()
            .zip(&other.words)
            .map(|(a, b)| (a & b).count_ones() as u64)
            .sum()
    }

    /// True if `page` is in the set (false when out of range).
    pub fn get(&self, page: PageIdx) -> bool {
        let p = page.as_u64();
        p < self.pages && self.words[(p / WORD_BITS) as usize] & (1 << (p % WORD_BITS)) != 0
    }

    /// Inserts `page`; returns true if it was newly inserted.
    ///
    /// # Panics
    ///
    /// Panics if `page` is out of range.
    pub fn set(&mut self, page: PageIdx) -> bool {
        let p = page.as_u64();
        assert!(p < self.pages, "page {page} out of bitmap range");
        let word = &mut self.words[(p / WORD_BITS) as usize];
        let bit = 1u64 << (p % WORD_BITS);
        let fresh = *word & bit == 0;
        *word |= bit;
        self.ones += fresh as u64;
        fresh
    }

    /// Removes `page`; returns true if it was present.
    pub fn clear(&mut self, page: PageIdx) -> bool {
        let p = page.as_u64();
        if p >= self.pages {
            return false;
        }
        let word = &mut self.words[(p / WORD_BITS) as usize];
        let bit = 1u64 << (p % WORD_BITS);
        let present = *word & bit != 0;
        *word &= !bit;
        self.ones -= present as u64;
        present
    }

    /// For each word index that `run` touches, the mask of run bits in it.
    fn run_words(run: PageRun) -> impl Iterator<Item = (usize, u64)> {
        let start = run.first.as_u64();
        let end = start + run.len;
        let first_word = start / WORD_BITS;
        let last_word = (end.max(1) - 1) / WORD_BITS;
        (first_word..=last_word).filter_map(move |w| {
            if run.is_empty() {
                return None;
            }
            let word_start = w * WORD_BITS;
            let lo = start.max(word_start) - word_start;
            let hi = end.min(word_start + WORD_BITS) - word_start;
            let mask = if hi - lo == WORD_BITS {
                u64::MAX
            } else {
                ((1u64 << (hi - lo)) - 1) << lo
            };
            Some((w as usize, mask))
        })
    }

    /// Inserts every page of `run`; returns how many were newly inserted.
    ///
    /// # Panics
    ///
    /// Panics if the run extends past the range.
    pub fn set_run(&mut self, run: PageRun) -> u64 {
        assert!(
            run.first.as_u64() + run.len <= self.pages,
            "{run} out of bitmap range"
        );
        let mut fresh = 0;
        for (w, mask) in Self::run_words(run) {
            fresh += (mask & !self.words[w]).count_ones() as u64;
            self.words[w] |= mask;
        }
        self.ones += fresh;
        fresh
    }

    /// True if every page of `run` is a member.
    pub fn all_set_in(&self, run: PageRun) -> bool {
        run.first.as_u64() + run.len <= self.pages
            && Self::run_words(run).all(|(w, mask)| self.words[w] & mask == mask)
    }

    /// True if any page of `run` is a member.
    pub fn any_set_in(&self, run: PageRun) -> bool {
        assert!(
            run.first.as_u64() + run.len <= self.pages,
            "{run} out of bitmap range"
        );
        Self::run_words(run).any(|(w, mask)| self.words[w] & mask != 0)
    }

    /// First member page at or after `from`, if any.
    pub fn next_set(&self, from: PageIdx) -> Option<PageIdx> {
        self.scan(from.as_u64(), self.pages, false)
    }

    /// First page in `[p, limit)` that is a member (or, with
    /// `want_clear`, a non-member). Reads only the words that range
    /// covers; `limit` must not exceed `len()`.
    fn scan(&self, mut p: u64, limit: u64, want_clear: bool) -> Option<PageIdx> {
        debug_assert!(limit <= self.pages);
        while p < limit {
            let w = (p / WORD_BITS) as usize;
            let mut word = if want_clear { !self.words[w] } else { self.words[w] };
            word &= u64::MAX << (p % WORD_BITS);
            if word != 0 {
                let hit = w as u64 * WORD_BITS + word.trailing_zeros() as u64;
                return (hit < limit).then_some(PageIdx::new(hit));
            }
            p = (w as u64 + 1) * WORD_BITS;
        }
        None
    }

    /// The maximal run of *non-member* pages inside `window` starting at
    /// or after `from` — the core query of the batched fault path.
    ///
    /// Both of its scans stop at the window's end, so a query reads only
    /// the words `window` covers, however large and empty the set behind it.
    pub fn next_clear_run_in(&self, from: PageIdx, window: PageRun) -> Option<PageRun> {
        let lo = from.as_u64().max(window.first.as_u64());
        let hi = (window.first.as_u64() + window.len).min(self.pages);
        let start = self.scan(lo, hi, true)?.as_u64();
        let end = self.scan(start, hi, false).map_or(hi, |p| p.as_u64());
        Some(PageRun::new(PageIdx::new(start), end - start))
    }

    /// Member pages in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = PageIdx> + '_ {
        let mut next = self.next_set(PageIdx::new(0));
        std::iter::from_fn(move || {
            let cur = next?;
            next = self.next_set(cur.next());
            Some(cur)
        })
    }

    /// Maximal member runs in ascending order.
    pub fn runs(&self) -> Vec<PageRun> {
        let mut out = Vec::new();
        let mut cursor = 0u64;
        while let Some(start) = self.scan(cursor, self.pages, false) {
            let end = self
                .scan(start.as_u64(), self.pages, true)
                .map_or(self.pages, |p| p.as_u64());
            out.push(PageRun::new(start, end - start.as_u64()));
            cursor = end;
        }
        out
    }
}

impl fmt::Debug for PageBitmap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_geometry() {
        let r = PageRun::new(PageIdx::new(10), 4);
        assert_eq!(r.end(), PageIdx::new(14));
        assert_eq!(r.file_offset(), 10 * 4096);
        assert_eq!(r.byte_len(), 4 * 4096);
        assert!(r.contains(PageIdx::new(13)));
        assert!(!r.contains(PageIdx::new(14)));
        assert!(!r.is_empty());
        assert!(PageRun::new(PageIdx::new(0), 0).is_empty());
        let pages: Vec<u64> = r.iter().map(|p| p.as_u64()).collect();
        assert_eq!(pages, vec![10, 11, 12, 13]);
        assert_eq!(PageRun::single(PageIdx::new(3)).len, 1);
        assert_eq!(format!("{r}"), "run:[10+4]");
    }

    #[test]
    fn coalesce_merges_adjacent_in_order_only() {
        let mut runs = Vec::new();
        for p in [5u64, 6, 7, 2, 3, 9, 8] {
            push_coalesced(&mut runs, PageRun::single(PageIdx::new(p)));
        }
        assert_eq!(
            runs,
            vec![
                PageRun::new(PageIdx::new(5), 3),
                PageRun::new(PageIdx::new(2), 2),
                PageRun::new(PageIdx::new(9), 1),
                // 8 comes after 9: descending, not coalescible in order.
                PageRun::new(PageIdx::new(8), 1),
            ]
        );
    }

    #[test]
    fn push_coalesced_merges_tail() {
        let mut runs = vec![PageRun::new(PageIdx::new(0), 2)];
        push_coalesced(&mut runs, PageRun::new(PageIdx::new(2), 3));
        assert_eq!(runs, vec![PageRun::new(PageIdx::new(0), 5)]);
        push_coalesced(&mut runs, PageRun::new(PageIdx::new(9), 1));
        assert_eq!(runs.len(), 2);
        push_coalesced(&mut runs, PageRun::new(PageIdx::new(20), 0));
        assert_eq!(runs.len(), 2, "empty runs are dropped");
    }

    #[test]
    fn bitmap_set_get_clear() {
        let mut b = PageBitmap::new(130);
        assert_eq!(b.len(), 130);
        assert!(!b.is_empty());
        assert!(b.set(PageIdx::new(0)));
        assert!(!b.set(PageIdx::new(0)), "double set is not fresh");
        assert!(b.set(PageIdx::new(129)));
        assert_eq!(b.count(), 2);
        assert!(b.get(PageIdx::new(129)));
        assert!(!b.get(PageIdx::new(128)));
        assert!(!b.get(PageIdx::new(500)), "out of range reads false");
        assert!(b.clear(PageIdx::new(0)));
        assert!(!b.clear(PageIdx::new(0)));
        assert_eq!(b.count(), 1);
    }

    #[test]
    fn bitmap_run_ops_cross_word_boundaries() {
        let mut b = PageBitmap::new(256);
        let run = PageRun::new(PageIdx::new(60), 10); // spans words 0 and 1
        assert_eq!(b.set_run(run), 10);
        assert_eq!(b.set_run(run), 0, "second set adds nothing");
        assert_eq!(b.count(), 10);
        assert!(b.all_set_in(run));
        assert!(b.any_set_in(PageRun::new(PageIdx::new(0), 64)));
        assert!(!b.all_set_in(PageRun::new(PageIdx::new(59), 2)));
    }

    #[test]
    fn count_common_is_an_and_popcount() {
        // 150 pages: two full words and a 22-bit tail word.
        let (mut a, mut b, empty) = (PageBitmap::new(150), PageBitmap::new(150), PageBitmap::new(150));
        a.set_run(PageRun::new(PageIdx::new(60), 10)); // crosses word 0 -> 1
        a.set_run(PageRun::new(PageIdx::new(140), 10)); // tail word, to the end
        b.set_run(PageRun::new(PageIdx::new(62), 70)); // 62..132, words 0-2
        b.set_run(PageRun::new(PageIdx::new(145), 5));
        assert_eq!((a.count_common(&b), b.count_common(&a)), (8 + 5, 8 + 5));
        assert_eq!((a.count_common(&a), b.count_common(&b)), (a.count(), b.count()));
        assert_eq!((a.count_common(&empty), empty.count_common(&empty)), (0, 0));
        assert_eq!(PageBitmap::default().count_common(&a), 0, "empty range");
    }

    #[test]
    fn bitmap_full_word_run() {
        let mut b = PageBitmap::new(192);
        assert_eq!(b.set_run(PageRun::new(PageIdx::new(64), 64)), 64);
        assert!(b.all_set_in(PageRun::new(PageIdx::new(64), 64)));
        assert_eq!(b.count(), 64);
    }

    #[test]
    fn bitmap_scans() {
        let mut b = PageBitmap::new(200);
        b.set_run(PageRun::new(PageIdx::new(10), 5));
        b.set_run(PageRun::new(PageIdx::new(100), 3));
        assert_eq!(b.next_set(PageIdx::new(0)), Some(PageIdx::new(10)));
        assert_eq!(b.next_set(PageIdx::new(15)), Some(PageIdx::new(100)));
        assert_eq!(b.next_set(PageIdx::new(103)), None);
        let all: Vec<u64> = b.iter().map(|p| p.as_u64()).collect();
        assert_eq!(all, vec![10, 11, 12, 13, 14, 100, 101, 102]);
        assert_eq!(
            b.runs(),
            vec![
                PageRun::new(PageIdx::new(10), 5),
                PageRun::new(PageIdx::new(100), 3)
            ]
        );
    }

    #[test]
    fn bitmap_clear_run_queries() {
        let mut b = PageBitmap::new(128);
        b.set_run(PageRun::new(PageIdx::new(4), 2));
        let window = PageRun::new(PageIdx::new(0), 10);
        // [0,4) clear, [4,6) set, [6,10) clear.
        assert_eq!(
            b.next_clear_run_in(PageIdx::new(0), window),
            Some(PageRun::new(PageIdx::new(0), 4))
        );
        assert_eq!(
            b.next_clear_run_in(PageIdx::new(4), window),
            Some(PageRun::new(PageIdx::new(6), 4))
        );
        assert_eq!(b.next_clear_run_in(PageIdx::new(10), window), None);
        // Fully-set window has no clear runs.
        b.set_run(window);
        assert_eq!(b.next_clear_run_in(PageIdx::new(0), window), None);
    }

    /// A window query's cost is set by its window, not by the empty
    /// memory behind it: 4,096 three-page queries over a 2^28-page set
    /// (32 MiB of words, lazily zeroed) read a few words each. Scanning on
    /// to the end of the set instead reads ~2 M words per query — seconds.
    #[test]
    fn window_queries_read_only_their_window() {
        let b = PageBitmap::new(1 << 28);
        let stride = b.len() / 4096;
        let t = std::time::Instant::now();
        for i in 0..4096 {
            let window = PageRun::new(PageIdx::new(i * stride), 3);
            assert_eq!(b.next_clear_run_in(window.first, window), Some(window));
        }
        let took = t.elapsed();
        assert!(
            took < std::time::Duration::from_millis(200),
            "4,096 window queries took {took:?}"
        );
    }

    #[test]
    fn bitmap_tail_word_is_bounded() {
        let mut b = PageBitmap::new(70); // tail word has 6 valid bits
        assert_eq!(b.set_run(PageRun::new(PageIdx::new(64), 6)), 6);
        assert_eq!(b.next_set(PageIdx::new(70)), None);
        let window = PageRun::new(PageIdx::new(0), 70);
        assert_eq!(b.next_clear_run_in(PageIdx::new(64), window), None, "tail fully set");
        assert_eq!(
            b.next_clear_run_in(PageIdx::new(60), window),
            Some(PageRun::new(PageIdx::new(60), 4))
        );
    }
}
