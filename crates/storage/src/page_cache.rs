//! Host OS page cache model with LRU eviction.
//!
//! The paper's methodology flushes the host page cache before every cold
//! invocation (§4.1) — [`PageCache::drop_caches`] — so capacity rarely
//! binds, but we model LRU anyway so cache-pressure experiments are
//! possible. Granularity is one 4 KB page of a given file.
//!
//! **Index.** Pages live in chunked dense tables: 512-page leaves,
//! allocated on first touch, whose `u32` slots hold the page's last-touch
//! stamp (0: not resident). A probe resolves its leaf with one FNV hash
//! of ([`FileId`], leaf number), then indexes. A run admission — the
//! 32-page readahead cluster behind every Vanilla fault miss — resolves
//! the leaf once per 512 pages: no per-page hashing.
//!
//! **Recency** is a clock and a touch log. Every touch takes the next
//! stamp, writes it into the page's slot and appends `(first slot, first
//! stamp, count)` to the log, or extends the last record when the slot
//! follows it. A hit therefore costs one slot write and, mostly, one
//! record; a run admission that cannot evict writes its leaf slice of
//! consecutive stamps in one loop and appends one record. The log is in
//! stamp order, so eviction pops its front and skips entries whose slot
//! has been touched since (or evicted): the first entry whose slot still
//! holds its stamp is the least recently used page, the exact victim of a
//! linked LRU list. When the log outgrows twice the resident pages (plus
//! a small slack), or the clock nears `u32::MAX`, it is compacted in
//! place: live entries keep their order and are renumbered from 1.
//!
//! **Memory** is bounded by what was touched, not by page numbers: 4
//! bytes per slot of a leaf touched since the last
//! [`PageCache::drop_caches`] (2 KB a leaf) plus 12 bytes per log record,
//! with no per-page node — page `1 << 40` costs one leaf. A fully touched
//! 256 MB guest-memory file is 128 leaves, 256 KB; a 32-page readahead
//! cluster is one record.

use std::collections::{HashMap, VecDeque};
use std::hash::BuildHasherDefault;

use sim_core::hash::Fnv1a64;

use crate::file_store::FileId;

/// Pages per index leaf (2 KB of `u32` slots).
const LEAF_PAGES: u64 = 512;

/// Records the touch log may hold beyond twice the resident pages before
/// it is compacted.
const LOG_SLACK: usize = 64;

/// Highest clock value an operation may start from: one leaf slice of
/// stamps, and the end of its record, must still fit in a `u32`.
const STAMP_LIMIT: u32 = u32::MAX - 2 * LEAF_PAGES as u32;

/// Touches of `count` consecutive slots from `slot`, stamped `stamp`,
/// `stamp + 1`, … in that order. Entry `i` is live while slot `slot + i`
/// still holds `stamp + i`.
#[derive(Debug, Clone, Copy)]
struct Touch {
    slot: u32,
    stamp: u32,
    count: u32,
}

impl Touch {
    /// True if the touch of slot `slot` stamped `stamp` extends this one.
    fn continues_at(&self, slot: u32, stamp: u32) -> bool {
        self.slot + self.count == slot && self.stamp + self.count == stamp
    }
}

/// An LRU page cache over (file, page) pairs.
///
/// # Example
///
/// ```
/// use sim_storage::{FileStore, PageCache};
///
/// let fs = FileStore::new();
/// let f = fs.create("x");
/// let mut cache = PageCache::new(2);
/// cache.insert(f, 0);
/// cache.insert(f, 1);
/// cache.insert(f, 2); // evicts page 0 (LRU)
/// assert!(!cache.contains(f, 0));
/// assert!(cache.contains(f, 2));
/// ```
#[derive(Debug, Clone)]
pub struct PageCache {
    capacity_pages: usize,
    /// (file, leaf number `page / LEAF_PAGES`) -> first slot of that leaf
    /// in `slots`.
    leaves: HashMap<(FileId, u64), u32, BuildHasherDefault<Fnv1a64>>,
    /// The leaves, back to back: page slot -> its last-touch stamp, or 0
    /// when the page is not resident.
    slots: Vec<u32>,
    /// Every touch since the last compaction, oldest first.
    log: VecDeque<Touch>,
    /// Last stamp handed out.
    clock: u32,
    resident: usize,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl PageCache {
    /// Creates a cache holding up to `capacity_pages` pages.
    ///
    /// # Panics
    ///
    /// Panics if `capacity_pages == 0`.
    pub fn new(capacity_pages: usize) -> Self {
        assert!(capacity_pages > 0, "page cache needs nonzero capacity");
        PageCache {
            capacity_pages,
            leaves: HashMap::default(),
            slots: Vec::new(),
            log: VecDeque::new(),
            clock: 0,
            resident: 0,
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    /// A host-sized default: 4 GiB of page cache (1 Mi pages).
    pub fn host_default() -> Self {
        PageCache::new(1 << 20)
    }

    /// First slot of `file`'s leaf number `leaf`, allocated on first
    /// touch.
    fn leaf_of(&mut self, file: FileId, leaf: u64) -> usize {
        let slots = &mut self.slots;
        *self.leaves.entry((file, leaf)).or_insert_with(|| {
            let base = u32::try_from(slots.len()).expect("page-cache index exceeds 2^32 slots");
            slots.resize(slots.len() + LEAF_PAGES as usize, 0);
            base
        }) as usize
    }

    /// Slot of the page, if it is resident.
    fn slot_of(&self, file: FileId, page: u64) -> Option<usize> {
        let base = *self.leaves.get(&(file, page / LEAF_PAGES))?;
        let slot = base as usize + (page % LEAF_PAGES) as usize;
        (self.slots[slot] != 0).then_some(slot)
    }

    /// Renumbers the log if the clock has no room for one leaf slice.
    fn make_stamp_room(&mut self) {
        if self.clock > STAMP_LIMIT {
            self.compact();
        }
    }

    /// Appends the touch of `count` slots from `slot`, stamped from
    /// `stamp`, extending the last record when it continues it; compacts
    /// the log once it outgrows the resident set.
    fn log_touch(&mut self, slot: usize, stamp: u32, count: u32) {
        let slot = slot as u32;
        match self.log.back_mut() {
            Some(last) if last.continues_at(slot, stamp) => last.count += count,
            _ => self.log.push_back(Touch { slot, stamp, count }),
        }
        if self.log.len() > 2 * self.resident + LOG_SLACK {
            self.compact();
        }
    }

    /// Drops dead entries from the log and renumbers the live ones from 1,
    /// in order. The log is rotated through itself: each old record is
    /// popped from the front and its live pieces pushed at the back.
    fn compact(&mut self) {
        let mut clock = 0;
        let mut open: Option<Touch> = None;
        for _ in 0..self.log.len() {
            let old = self.log.pop_front().expect("counted above");
            for i in 0..old.count {
                let slot = old.slot + i;
                let cell = &mut self.slots[slot as usize];
                if *cell != old.stamp + i {
                    continue;
                }
                clock += 1;
                *cell = clock;
                match &mut open {
                    Some(run) if run.continues_at(slot, clock) => run.count += 1,
                    _ => {
                        let fresh = Touch {
                            slot,
                            stamp: clock,
                            count: 1,
                        };
                        self.log.extend(open.replace(fresh));
                    }
                }
            }
        }
        self.log.extend(open);
        self.clock = clock;
    }

    /// Touches the page at `slot`: a new stamp, admitted if not resident.
    /// Does not evict.
    fn touch(&mut self, slot: usize) {
        self.clock += 1;
        let cell = &mut self.slots[slot];
        self.resident += usize::from(*cell == 0);
        *cell = self.clock;
        self.log_touch(slot, self.clock, 1);
    }

    /// Touches `len` consecutive slots from `slot` (one leaf slice), in
    /// ascending order, evicting as each admission overflows capacity.
    fn touch_slice(&mut self, slot: usize, len: usize) {
        self.make_stamp_room();
        if self.resident + len <= self.capacity_pages {
            // Nothing can be evicted: one loop of consecutive stamps.
            let first = self.clock + 1;
            for (cell, stamp) in self.slots[slot..slot + len].iter_mut().zip(first..) {
                self.resident += usize::from(*cell == 0);
                *cell = stamp;
            }
            self.clock += len as u32;
            self.log_touch(slot, first, len as u32);
            return;
        }
        for s in slot..slot + len {
            self.touch(s);
            if self.resident > self.capacity_pages {
                self.evict_lru();
            }
        }
    }

    /// Evicts the least recently used page: the first live log entry.
    fn evict_lru(&mut self) {
        loop {
            let oldest = self.log.front_mut().expect("every resident page is logged");
            let (slot, stamp) = (oldest.slot as usize, oldest.stamp);
            if oldest.count == 1 {
                self.log.pop_front();
            } else {
                oldest.slot += 1;
                oldest.stamp += 1;
                oldest.count -= 1;
            }
            if self.slots[slot] == stamp {
                self.slots[slot] = 0;
                self.resident -= 1;
                self.evictions += 1;
                return;
            }
        }
    }

    /// True if the page is cached; updates recency and hit/miss counters.
    pub fn probe(&mut self, file: FileId, page: u64) -> bool {
        match self.slot_of(file, page) {
            Some(slot) => {
                self.make_stamp_room();
                self.touch(slot);
                self.hits += 1;
                true
            }
            None => {
                self.misses += 1;
                false
            }
        }
    }

    /// True if the page is cached, without touching recency or counters.
    pub fn contains(&self, file: FileId, page: u64) -> bool {
        self.slot_of(file, page).is_some()
    }

    /// Inserts one page (refreshes recency if present).
    pub fn insert(&mut self, file: FileId, page: u64) {
        self.insert_run(file, page, 1);
    }

    /// Inserts a contiguous run `[first, first + count)` of pages, most
    /// recent last — the bulk admission the readahead and buffered-read
    /// paths use. Each leaf the run crosses is resolved once; pages are
    /// then admitted (and, at capacity, evicted) in ascending order,
    /// exactly as `count` single inserts would.
    pub fn insert_run(&mut self, file: FileId, first: u64, count: u64) {
        let end = first + count;
        let mut page = first;
        while page < end {
            let leaf = page / LEAF_PAGES;
            let stop = end.min((leaf + 1) * LEAF_PAGES);
            let slot = self.leaf_of(file, leaf) + (page % LEAF_PAGES) as usize;
            self.touch_slice(slot, (stop - page) as usize);
            page = stop;
        }
    }

    /// Drops every cached page — the `echo 3 > /proc/sys/vm/drop_caches`
    /// step in the paper's methodology (§4.1). All structural state
    /// (leaf index, leaves, touch log, clock) is reset so a drop→refill
    /// cycle starts from a pristine cache; counters survive.
    pub fn drop_caches(&mut self) {
        self.leaves.clear();
        self.slots.clear();
        self.log.clear();
        self.clock = 0;
        self.resident = 0;
    }

    /// Number of cached pages.
    pub fn resident_pages(&self) -> usize {
        self.resident
    }

    /// Probe hits so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Probe misses so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Evictions so far.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }
}

impl Default for PageCache {
    fn default() -> Self {
        PageCache::host_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::file_store::FileStore;
    use sim_core::hash::splitmix64_next;

    fn two_files() -> (FileId, FileId) {
        let fs = FileStore::new();
        (fs.create("a"), fs.create("b"))
    }

    #[test]
    fn probe_miss_then_hit() {
        let (a, _) = two_files();
        let mut c = PageCache::new(16);
        assert!(!c.probe(a, 3));
        c.insert(a, 3);
        assert!(c.probe(a, 3));
        assert_eq!(c.hits(), 1);
        assert_eq!(c.misses(), 1);
    }

    #[test]
    fn files_are_distinct() {
        let (a, b) = two_files();
        let mut c = PageCache::new(16);
        c.insert(a, 0);
        assert!(c.contains(a, 0));
        assert!(!c.contains(b, 0));
    }

    #[test]
    fn lru_evicts_oldest() {
        let (a, _) = two_files();
        let mut c = PageCache::new(3);
        c.insert(a, 0);
        c.insert(a, 1);
        c.insert(a, 2);
        // Touch page 0 so page 1 becomes LRU.
        assert!(c.probe(a, 0));
        c.insert(a, 3);
        assert!(c.contains(a, 0));
        assert!(!c.contains(a, 1), "page 1 was LRU");
        assert_eq!(c.evictions(), 1);
    }

    #[test]
    fn insert_run_and_capacity() {
        let (a, _) = two_files();
        let mut c = PageCache::new(8);
        c.insert_run(a, 0, 12);
        assert_eq!(c.resident_pages(), 8);
        // The *last* 8 pages of the range survive.
        for p in 4..12 {
            assert!(c.contains(a, p), "page {p} should be cached");
        }
        for p in 0..4 {
            assert!(!c.contains(a, p), "page {p} should be evicted");
        }
    }

    #[test]
    fn drop_caches_clears_everything() {
        let (a, b) = two_files();
        let mut c = PageCache::new(16);
        c.insert(a, 0);
        c.insert(b, 1);
        c.drop_caches();
        assert_eq!(c.resident_pages(), 0);
        assert!(!c.contains(a, 0));
    }

    #[test]
    fn drop_then_refill_cycles_stay_consistent() {
        // Regression guard for the drop_caches reset: repeated drop→refill
        // cycles must leave no stale recency state behind — the refilled
        // cache behaves exactly like a fresh one (same LRU victims, no
        // phantom residents, bounded occupancy).
        let (a, _) = two_files();
        let mut c = PageCache::new(4);
        for cycle in 0..5u64 {
            c.drop_caches();
            assert_eq!(c.resident_pages(), 0, "cycle {cycle}: drop left pages");
            c.insert_run(a, 0, 6); // overflow: pages 2..6 survive
            assert_eq!(c.resident_pages(), 4);
            for p in 2..6 {
                assert!(c.contains(a, p), "cycle {cycle}: page {p} missing");
            }
            assert!(!c.contains(a, 0), "cycle {cycle}: page 0 must be evicted");
            // Recency inside the refill is fresh, not inherited: touching
            // page 2 must protect it from the next insert.
            assert!(c.probe(a, 2));
            c.insert(a, 9);
            assert!(c.contains(a, 2), "cycle {cycle}: refreshed page evicted");
            assert!(!c.contains(a, 3), "cycle {cycle}: stale-LRU page kept");
        }
    }

    #[test]
    fn sparse_pages_cost_a_leaf_each() {
        let (a, _) = two_files();
        let mut c = PageCache::new(4);
        c.insert(a, 1 << 40);
        c.insert(a, 0);
        assert!(c.probe(a, 1 << 40));
        assert!(c.probe(a, 0));
        assert!(!c.probe(a, (1 << 40) + 1), "same leaf, never admitted");
        assert_eq!(c.slots.len(), 2 * LEAF_PAGES as usize, "two leaves");
        // Evict through both.
        c.insert_run(a, 100_000, 4);
        assert!(!c.contains(a, 0));
        assert!(!c.contains(a, 1 << 40));
        assert_eq!((c.resident_pages(), c.evictions()), (4, 2));
    }

    #[test]
    fn reinsert_refreshes_recency() {
        let (a, _) = two_files();
        let mut c = PageCache::new(2);
        c.insert(a, 0);
        c.insert(a, 1);
        c.insert(a, 0); // refresh page 0
        c.insert(a, 2); // evicts page 1, not 0
        assert!(c.contains(a, 0));
        assert!(!c.contains(a, 1));
    }

    #[test]
    fn heavy_churn_stays_consistent() {
        // Regression guard for the eviction path: index and touch log must
        // stay in lockstep under sustained overflow.
        let (a, _) = two_files();
        let mut c = PageCache::new(64);
        for p in 0..10_000u64 {
            c.insert(a, p % 512);
            assert!(c.resident_pages() <= 64);
        }
        assert!(c.evictions() > 0);
        // Every resident page must be findable through probe.
        let resident = c.resident_pages();
        let mut found = 0;
        for p in 0..512 {
            if c.contains(a, p) {
                found += 1;
            }
        }
        assert_eq!(found, resident);
    }

    #[test]
    fn stamps_renumber_before_they_wrap() {
        // The clock starts just below the renumbering limit, so within a
        // few operations the log is renumbered; without that the clock
        // would pass `u32::MAX` after ~100 of them. Every operation is
        // checked against a naive recency list, across the renumbering.
        let (a, b) = two_files();
        let mut c = PageCache::new(64);
        c.clock = STAMP_LIMIT - 50;
        let mut naive: Vec<(FileId, u64)> = Vec::new(); // LRU first
        let touch = |naive: &mut Vec<(FileId, u64)>, key| {
            naive.retain(|&k| k != key);
            naive.push(key);
            if naive.len() > 64 {
                naive.remove(0);
            }
        };
        let mut state = 11u64;
        let mut stamps = 0u64;
        for _ in 0..2_000 {
            let r = splitmix64_next(&mut state);
            let f = if r & 1 == 0 { a } else { b };
            let page = (r >> 8) % 700; // straddles the 512-page leaf edge
            if r & 2 == 0 {
                let hit = naive.contains(&(f, page));
                assert_eq!(c.probe(f, page), hit);
                if hit {
                    touch(&mut naive, (f, page));
                    stamps += 1;
                }
            } else {
                let len = (r >> 40) % 40 + 1;
                c.insert_run(f, page, len);
                (page..page + len).for_each(|p| touch(&mut naive, (f, p)));
                stamps += len;
            }
            assert_eq!(c.resident_pages(), naive.len());
            assert!(
                naive.iter().all(|&(f, p)| c.contains(f, p)),
                "LRU victims diverged"
            );
        }
        assert!(stamps > 2 * LEAF_PAGES, "the run must cross the limit");
        assert!(
            c.clock < STAMP_LIMIT / 2,
            "clock {} never renumbered",
            c.clock
        );
    }

    #[test]
    fn touch_log_stays_within_twice_resident() {
        // Random hits on 8 resident pages append a record each; compaction
        // keeps the log at most twice the resident set plus the slack,
        // and the recency it keeps still picks the true LRU victim.
        let (a, _) = two_files();
        let mut c = PageCache::new(8);
        c.insert_run(a, 0, 8);
        let mut last_touch = [0u64; 8];
        let mut state = 5u64;
        for i in 1..=100_000u64 {
            let p = splitmix64_next(&mut state) % 8;
            assert!(c.probe(a, p));
            last_touch[p as usize] = i;
            assert!(
                c.log.len() <= 2 * 8 + LOG_SLACK,
                "log {} records",
                c.log.len()
            );
        }
        let lru = (0..8).min_by_key(|&p| last_touch[p as usize]).unwrap();
        c.insert(a, 8);
        assert!(!c.contains(a, lru), "page {lru} was the LRU");
        assert_eq!((c.resident_pages(), c.evictions()), (8, 1));
    }
}
