//! Host OS page cache model with LRU eviction.
//!
//! The paper's methodology flushes the host page cache before every cold
//! invocation (§4.1) — [`PageCache::drop_caches`] — so capacity rarely
//! binds, but we model LRU anyway so cache-pressure experiments are
//! possible. Granularity is one 4 KB page of a given file.
//!
//! **Index.** Each file owns a chunked dense table: an ordered directory
//! of 512-page leaves, allocated on first touch, whose `u32` slots hold
//! the page's LRU node (or a null marker). A probe resolves the
//! file (one hash of the [`FileId`]), then the leaf (one ordered lookup
//! among the file's touched leaves), then indexes. A run admission —
//! the 32-page readahead cluster behind every Vanilla fault miss —
//! resolves the file once per call and the leaf once per 512 pages, so
//! an admitted page costs one slot load, one node write and one list
//! link: no per-page hashing.
//!
//! **Recency** is an intrusive doubly-linked list threaded through a
//! node slab: probe, insert and evict are O(1) per page, and a node
//! remembers its table slot so eviction never consults the directory.
//!
//! **Memory** is bounded by what was touched, not by page numbers: 2 KB
//! per leaf touched since the last [`PageCache::drop_caches`] plus 12
//! bytes per resident page — page `1 << 40` costs one leaf. A fully
//! touched 256 MB guest-memory file is 128 leaves, 256 KB.

use std::collections::{BTreeMap, HashMap};

use crate::file_store::FileId;

/// Null link in the LRU list; also "not resident" in an index slot.
const NIL: u32 = u32::MAX;

/// Pages per index leaf (2 KB of `u32` slots).
const LEAF_PAGES: u64 = 512;

/// One LRU node: the index slot that points at it plus prev/next links
/// (MRU towards `head`).
#[derive(Debug, Clone, Copy)]
struct Node {
    slot: u32,
    prev: u32,
    next: u32,
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
    /// file -> its leaf directory in `dirs`.
    files: HashMap<FileId, u32>,
    /// Per file: leaf number (`page / LEAF_PAGES`) -> first slot of that
    /// leaf in `slots`.
    dirs: Vec<BTreeMap<u64, u32>>,
    /// The leaves, back to back: page slot -> node index in `nodes`, or
    /// NIL when the page is not resident.
    slots: Vec<u32>,
    nodes: Vec<Node>,
    /// Recycled node indices.
    free: Vec<u32>,
    /// Most recently used node, or NIL.
    head: u32,
    /// Least recently used node (eviction victim), or NIL.
    tail: u32,
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
            files: HashMap::new(),
            dirs: Vec::new(),
            slots: Vec::new(),
            nodes: Vec::new(),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    /// A host-sized default: 4 GiB of page cache (1 Mi pages).
    pub fn host_default() -> Self {
        PageCache::new(1 << 20)
    }

    /// Unlinks node `n` from the list (it must be linked).
    fn unlink(&mut self, n: u32) {
        let Node { prev, next, .. } = self.nodes[n as usize];
        if prev != NIL {
            self.nodes[prev as usize].next = next;
        } else {
            self.head = next;
        }
        if next != NIL {
            self.nodes[next as usize].prev = prev;
        } else {
            self.tail = prev;
        }
    }

    /// Links node `n` at the MRU end.
    fn link_front(&mut self, n: u32) {
        self.nodes[n as usize].prev = NIL;
        self.nodes[n as usize].next = self.head;
        if self.head != NIL {
            self.nodes[self.head as usize].prev = n;
        } else {
            self.tail = n;
        }
        self.head = n;
    }

    /// Makes resident node `n` the most recently used.
    fn refresh(&mut self, n: u32) {
        if self.head != n {
            self.unlink(n);
            self.link_front(n);
        }
    }

    /// Index of `file`'s leaf directory, created on first touch.
    fn dir_of(&mut self, file: FileId) -> usize {
        let dirs = &mut self.dirs;
        *self.files.entry(file).or_insert_with(|| {
            dirs.push(BTreeMap::new());
            (dirs.len() - 1) as u32
        }) as usize
    }

    /// First slot of leaf number `leaf` in directory `dir`, allocated on
    /// first touch.
    fn leaf_of(&mut self, dir: usize, leaf: u64) -> usize {
        let slots = &mut self.slots;
        *self.dirs[dir].entry(leaf).or_insert_with(|| {
            let base = u32::try_from(slots.len()).expect("page-cache index exceeds 2^32 slots");
            slots.resize(slots.len() + LEAF_PAGES as usize, NIL);
            base
        }) as usize
    }

    /// LRU node of the page, if it is resident.
    fn node_of(&self, file: FileId, page: u64) -> Option<u32> {
        let dir = &self.dirs[*self.files.get(&file)? as usize];
        let base = *dir.get(&(page / LEAF_PAGES))?;
        let n = self.slots[base as usize + (page % LEAF_PAGES) as usize];
        (n != NIL).then_some(n)
    }

    /// Refreshes recency of the page at `slot` or admits it.
    fn touch(&mut self, slot: usize) {
        let n = self.slots[slot];
        if n != NIL {
            self.refresh(n);
            return;
        }
        let node = Node {
            slot: slot as u32,
            prev: NIL,
            next: NIL,
        };
        let n = match self.free.pop() {
            Some(n) => {
                self.nodes[n as usize] = node;
                n
            }
            None => {
                self.nodes.push(node);
                (self.nodes.len() - 1) as u32
            }
        };
        self.slots[slot] = n;
        self.link_front(n);
        self.evict_if_needed();
    }

    /// True if the page is cached; updates recency and hit/miss counters.
    pub fn probe(&mut self, file: FileId, page: u64) -> bool {
        match self.node_of(file, page) {
            Some(n) => {
                self.refresh(n);
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
        self.node_of(file, page).is_some()
    }

    /// Inserts one page (refreshes recency if present).
    pub fn insert(&mut self, file: FileId, page: u64) {
        self.insert_run(file, page, 1);
    }

    /// Inserts a contiguous run `[first, first + count)` of pages, most
    /// recent last — the bulk admission the readahead and buffered-read
    /// paths use. The file is resolved once, each leaf the run crosses
    /// once; pages are then admitted (and, at capacity, evicted) one by
    /// one in ascending order, exactly as `count` single inserts would.
    pub fn insert_run(&mut self, file: FileId, first: u64, count: u64) {
        let dir = self.dir_of(file);
        let room = self.capacity_pages.saturating_sub(self.resident_pages());
        self.nodes.reserve(room.min(count as usize));
        let end = first + count;
        let mut page = first;
        while page < end {
            let leaf = page / LEAF_PAGES;
            let stop = end.min((leaf + 1) * LEAF_PAGES);
            let slot = self.leaf_of(dir, leaf) + (page % LEAF_PAGES) as usize;
            for s in slot..slot + (stop - page) as usize {
                self.touch(s);
            }
            page = stop;
        }
    }

    fn evict_if_needed(&mut self) {
        while self.resident_pages() > self.capacity_pages {
            let victim = self.tail;
            debug_assert_ne!(victim, NIL, "nonempty cache over capacity");
            self.unlink(victim);
            self.slots[self.nodes[victim as usize].slot as usize] = NIL;
            self.free.push(victim);
            self.evictions += 1;
        }
    }

    /// Drops every cached page — the `echo 3 > /proc/sys/vm/drop_caches`
    /// step in the paper's methodology (§4.1). All structural state
    /// (directories, leaves, node slab, free list, LRU links) is reset so
    /// a drop→refill cycle starts from a pristine cache; counters survive.
    pub fn drop_caches(&mut self) {
        self.files.clear();
        self.dirs.clear();
        self.slots.clear();
        self.nodes.clear();
        self.free.clear();
        self.head = NIL;
        self.tail = NIL;
    }

    /// Number of cached pages.
    pub fn resident_pages(&self) -> usize {
        self.nodes.len() - self.free.len()
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
        // Regression guard for the O(1) eviction path: index and list must
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
}
