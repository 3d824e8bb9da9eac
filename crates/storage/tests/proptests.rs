//! Property tests for the storage substrate.

use std::collections::VecDeque;

use proptest::prelude::*;
use sim_core::hash::{splitmix64_next, Fnv1a64};
use sim_core::SimTime;
use sim_storage::{
    Access, Disk, DiskStats, FileId, FileStore, PageCache, ReadOutcome, SnapshotFrameCache,
    PAGE_SIZE,
};

/// The reference [`PageCache`] is checked against: residency as a plain
/// deque in recency order (front = LRU), every operation a linear search.
struct NaiveLru {
    capacity: usize,
    order: VecDeque<(FileId, u64)>,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl NaiveLru {
    fn insert(&mut self, key: (FileId, u64)) {
        self.order.retain(|&k| k != key);
        self.order.push_back(key);
        if self.order.len() > self.capacity {
            self.order.pop_front();
            self.evictions += 1;
        }
    }

    fn probe(&mut self, key: (FileId, u64)) -> bool {
        let hit = self.order.contains(&key);
        if hit {
            self.insert(key);
            self.hits += 1;
        } else {
            self.misses += 1;
        }
        hit
    }
}

/// An extent in the model's terms: `(file index, offset, len)`.
type ModelKey = (usize, u64, u64);

/// One deduplicated byte string of [`NaiveBimodal`].
struct NaiveContent {
    bytes: Vec<u8>,
    /// Extents mapped onto the bytes, each with the file version it was
    /// loaded at.
    keys: Vec<(ModelKey, u64)>,
    referenced: bool,
}

/// The reference [`SnapshotFrameCache`] is checked against: bimodal
/// insertion with bypass over a deque of live content in eviction order
/// (front = evict-first end, back = protected end), every lookup, dedup
/// and byte count a linear scan. Content dropped by invalidation leaves
/// the deque at once, where the cache leaves a stale slot to skip.
#[derive(Default)]
struct NaiveBimodal {
    queue: VecDeque<NaiveContent>,
    /// Admissions plus bypasses; every 32nd is protected.
    turns: u64,
    budget: Option<u64>,
    hits: u64,
    misses: u64,
    bypassed: u64,
    evicted: u64,
}

impl NaiveBimodal {
    fn bytes(&self) -> u64 {
        self.queue.iter().map(|c| c.bytes.len() as u64).sum()
    }

    fn keys(&self) -> Vec<ModelKey> {
        self.queue
            .iter()
            .flat_map(|c| c.keys.iter().map(|&(k, _)| k))
            .collect()
    }

    fn detach(&mut self, key: ModelKey) {
        for c in &mut self.queue {
            c.keys.retain(|&(k, _)| k != key);
        }
        self.queue.retain(|c| !c.keys.is_empty());
    }

    /// One `get_or_load` of `key`, whose file is at `version` and holds
    /// `content` there.
    fn lookup(&mut self, key: ModelKey, version: u64, content: &[u8]) {
        if let Some(hit) = self
            .queue
            .iter_mut()
            .find(|c| c.keys.contains(&(key, version)))
        {
            hit.referenced = true;
            self.hits += 1;
            return;
        }
        self.misses += 1;
        // A key with no entry, stale or live, whose bytes would push the
        // cache over its budget bypasses on an unprotected turn.
        let over = self
            .budget
            .is_some_and(|b| self.bytes() + content.len() as u64 > b);
        if over && !self.keys().contains(&key) && !(self.turns + 1).is_multiple_of(32) {
            self.turns += 1;
            self.bypassed += 1;
            return;
        }
        self.detach(key);
        match self.queue.iter_mut().find(|c| c.bytes == content) {
            // A dedup maps one more extent onto live bytes; it neither
            // sets the reference bit nor moves the content.
            Some(same) => same.keys.push((key, version)),
            None => {
                let fresh = NaiveContent {
                    bytes: content.to_vec(),
                    keys: vec![(key, version)],
                    referenced: false,
                };
                self.turns += 1;
                if self.turns.is_multiple_of(32) {
                    self.queue.push_back(fresh);
                } else {
                    self.queue.push_front(fresh);
                }
            }
        }
        self.evict();
    }

    fn evict(&mut self) {
        while self.budget.is_some_and(|b| self.bytes() > b) {
            let mut c = self.queue.pop_front().unwrap();
            if c.referenced {
                c.referenced = false;
                self.queue.push_back(c);
            } else {
                self.evicted += 1;
            }
        }
    }

    fn invalidate_file(&mut self, file: usize) {
        for c in &mut self.queue {
            c.keys.retain(|&(k, _)| k.0 != file);
        }
        self.queue.retain(|c| !c.keys.is_empty());
    }
}

/// The timed front end over the new index reads exactly as it did over
/// the hash-map index: every number below was recorded from the parent
/// commit's `Disk` with this same sequence.
#[test]
fn disk_sequence_matches_the_parent_commit() {
    let fs = FileStore::new();
    let (mem, ws) = (fs.create("mem"), fs.create("ws"));
    let mut d = Disk::ssd();
    let mut now = SimTime::ZERO;
    let mut hits = 0;
    // Strided faults wrapping over 400 pages: misses that admit 32-page
    // clusters over partly resident pages, and readahead hits.
    for i in 0..96u64 {
        let out = d.fault_read_page(now, mem, (i * 13) % 400, 65_536);
        hits += u64::from(out.cache_hit);
        now = out.ready;
    }
    assert_eq!((hits, now.as_nanos()), (75, 3_271_895));
    // A buffered read half inside what the faults left resident.
    let partial = d.read_buffered(now, mem, 380 * PAGE_SIZE, 100 * PAGE_SIZE);
    let miss = |ready_ns, device_bytes| ReadOutcome {
        ready: SimTime::from_nanos(ready_ns),
        cache_hit: false,
        device_bytes,
    };
    assert_eq!(partial, miss(4_603_571, 237_568));
    // Write-back populates the cache; the read behind it is a pure hit.
    let written = d.write(partial.ready, ws, 3 * PAGE_SIZE + 17, 64 * PAGE_SIZE);
    let reread = d.read_buffered(written, ws, 4 * PAGE_SIZE, 60 * PAGE_SIZE);
    assert_eq!(written.as_nanos(), 5_227_694);
    assert_eq!(
        (reread.cache_hit, reread.ready.as_nanos()),
        (true, 5_347_694)
    );
    // After a flush the first page misses again and readahead stops at EOF.
    d.drop_caches();
    let cold = d.fault_read_page(reread.ready, mem, 390, 400);
    assert_eq!(cold, miss(5_481_713, 10 * PAGE_SIZE));
    assert_eq!(
        d.stats(),
        DiskStats {
            device_bytes_read: 3_031_040,
            device_bytes_written: 262_144,
            useful_bytes_read: 1_052_672,
            device_reads: 23,
            cache_hits: 76,
        }
    );
}

/// At host capacity the page cache evicts through the timed front end:
/// 48 files of 32-42k pages (1.7 Mi pages against the 1 Mi-page host
/// cache) take 200k bursts of one to six sequential faults at random
/// offsets. The ~103k misses admit ~3.3 Mi pages, so the cache fills
/// and evicts ~1.2 Mi of them. The stats and a fold of every outcome
/// were recorded from the parent commit's linked-list LRU with this same
/// stream.
#[test]
fn disk_eviction_at_host_capacity_matches_the_parent_commit() {
    let fs = FileStore::new();
    let files: Vec<(FileId, u64)> = (0..48u64)
        .map(|i| (fs.create(&format!("mem{i}")), 32_000 + 211 * i))
        .collect();
    let mut d = Disk::ssd();
    let mut now = SimTime::ZERO;
    let mut fold = Fnv1a64::new();
    let mut state = 0x5eed_u64;
    for _ in 0..200_000 {
        let r = splitmix64_next(&mut state);
        let (file, pages) = files[(r % 48) as usize];
        let start = (r >> 8) % pages;
        for page in start..pages.min(start + (r >> 40) % 6 + 1) {
            let out = d.fault_read_page(now, file, page, pages);
            fold.write_u64_word(out.ready.as_nanos());
            fold.write_u64_word(u64::from(out.cache_hit) << 32 | out.device_bytes);
            now = out.ready;
        }
    }
    assert_eq!(
        (fold.finish(), now.as_nanos()),
        (0xfd5a_b77b_5940_30b8, 16_060_207_777)
    );
    assert_eq!(
        d.stats(),
        DiskStats {
            device_bytes_read: 13_479_960_576,
            device_bytes_written: 0,
            useful_bytes_read: 2_867_597_312,
            device_reads: 102_879,
            cache_hits: 597_218,
        }
    );
}

proptest! {
    /// The store is observably a dense byte vector per file: after every
    /// mutation — overlapping, hole-spanning and past-EOF `write_at`s,
    /// truncating and extending `set_len`s, gathers from sources with
    /// holes and past-EOF ranges, re-`create` truncation — each file's
    /// length and every read entry point (`read`, `checked_read_at`,
    /// `read_ranges_into`) match the model over random ranges: inside a
    /// written range, across several, in a hole and past EOF.
    #[test]
    fn file_store_read_after_write(
        ops in proptest::collection::vec((0u8..10, 0usize..3, 0u64..4096, 1usize..2048, any::<u8>()), 1..60),
        probes in proptest::collection::vec((0u64..4700, 0u64..700), 1..6)
    ) {
        let fs = FileStore::new();
        let names = ["a", "b", "c"];
        let files = names.map(|n| fs.create(n));
        let mut model: [Vec<u8>; 3] = Default::default();
        // `[offset, offset + len)` of model `m`, zeros past its end.
        let range = |m: &[u8], offset: u64, len: u64| -> Vec<u8> {
            (offset..offset + len).map(|p| m.get(p as usize).copied().unwrap_or(0)).collect()
        };
        for (kind, i, off, len, seed) in ops {
            let f = files[i];
            match kind {
                0..=4 => {
                    // Never-zero bytes, so a hole read as data shows.
                    let bytes: Vec<u8> = (0..len).map(|j| seed.wrapping_add(j as u8) | 1).collect();
                    fs.write_at(f, off, &bytes).unwrap();
                    let end = off as usize + len;
                    if model[i].len() < end {
                        model[i].resize(end, 0);
                    }
                    model[i][off as usize..end].copy_from_slice(&bytes);
                }
                5 | 6 => {
                    let new_len = (off + len as u64) % 4700;
                    fs.set_len(f, new_len).unwrap();
                    model[i].resize(new_len as usize, 0);
                }
                7 | 8 => {
                    let dst_offset = off % (model[i].len() as u64 + 1);
                    let (s1, s2) = ((i + 1) % 3, (i + 2) % 3);
                    let parts = [
                        (s1, off, len as u64),
                        (s2, seed as u64 * 16, len as u64 / 2 + 1),
                        (s1, dst_offset, 64),
                    ];
                    let mut want = model[i][..dst_offset as usize].to_vec();
                    for &(s, o, l) in &parts {
                        want.extend(range(&model[s], o, l));
                    }
                    let parts = parts.map(|(s, o, l)| (files[s], o, l));
                    fs.gather_into(f, dst_offset, &parts).unwrap();
                    model[i] = want;
                }
                _ => {
                    prop_assert_eq!(fs.create(names[i]), f);
                    model[i].clear();
                }
            }
            for (&f, m) in files.iter().zip(&model) {
                prop_assert_eq!(fs.len(f), m.len() as u64);
                let mut ranges = probes.clone();
                ranges.extend([(off, len as u64), (off + len as u64 / 4, len as u64 / 2), (0, m.len() as u64 + 8)]);
                let mut bufs: Vec<Vec<u8>> = ranges.iter().map(|&(_, l)| vec![0xEE; l as usize]).collect();
                let jobs = ranges.iter().zip(bufs.iter_mut()).map(|(&(o, _), b)| (o, b.as_mut_slice())).collect();
                fs.read_ranges_into(f, jobs, 1);
                for (&(o, l), buf) in ranges.iter().zip(&bufs) {
                    let want = range(m, o, l);
                    prop_assert_eq!(&fs.read(f, o, l, <[u8]>::to_vec).unwrap(), &want, "read at {}+{}", o, l);
                    prop_assert_eq!(&fs.checked_read_at(f, o, l as usize).unwrap(), &want, "checked_read_at at {}+{}", o, l);
                    prop_assert_eq!(buf, &want, "read_ranges_into at {}+{}", o, l);
                }
            }
        }
    }

    /// Writes at EOF never overlap: each one's bytes are recoverable at
    /// the length the file had before it.
    #[test]
    fn file_store_appends_are_disjoint(
        chunks in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 1..64), 1..30)
    ) {
        let fs = FileStore::new();
        let f = fs.create("t");
        let mut placed = Vec::new();
        for c in &chunks {
            let off = fs.len(f);
            fs.write_at(f, off, c).unwrap();
            placed.push((off, c.clone()));
        }
        for (off, c) in placed {
            prop_assert_eq!(fs.read(f, off, c.len() as u64, <[u8]>::to_vec).unwrap(), c);
        }
    }

    /// The page cache never exceeds its capacity and keeps the most
    /// recently inserted pages.
    #[test]
    fn page_cache_capacity_invariant(
        cap in 1usize..64,
        ops in proptest::collection::vec((0u64..128, any::<bool>()), 1..200)
    ) {
        let fs = FileStore::new();
        let f = fs.create("x");
        let mut c = PageCache::new(cap);
        let mut last_inserted = None;
        for (page, probe) in ops {
            if probe {
                let _ = c.probe(f, page);
            } else {
                c.insert(f, page);
                last_inserted = Some(page);
            }
            prop_assert!(c.resident_pages() <= cap);
        }
        if let Some(p) = last_inserted {
            prop_assert!(c.contains(f, p), "most recent insert must survive");
        }
    }

    /// The dense run-admitting index is observably the naive LRU: same
    /// probe answers, counters and residency after every operation. Runs
    /// overlap resident pages and outgrow small capacities; the page
    /// window straddles the index's 512-page leaf boundary.
    #[test]
    fn page_cache_matches_naive_lru(
        cap in 1usize..64,
        ops in proptest::collection::vec((0u8..16, 0usize..3, 0u64..256, 1u64..41), 1..300)
    ) {
        const BASE: u64 = 384;
        let fs = FileStore::new();
        let files = [fs.create("a"), fs.create("b"), fs.create("c")];
        let mut cache = PageCache::new(cap);
        let mut naive = NaiveLru { capacity: cap, order: VecDeque::new(), hits: 0, misses: 0, evictions: 0 };
        for (kind, file, page, len) in ops {
            let (f, page) = (files[file], BASE + page);
            match kind {
                0..=5 => prop_assert_eq!(cache.probe(f, page), naive.probe((f, page))),
                6..=9 => {
                    cache.insert(f, page);
                    naive.insert((f, page));
                }
                10..=14 => {
                    cache.insert_run(f, page, len);
                    (page..page + len).for_each(|p| naive.insert((f, p)));
                }
                _ => {
                    cache.drop_caches();
                    naive.order.clear();
                }
            }
            prop_assert_eq!(cache.resident_pages(), naive.order.len());
            prop_assert_eq!(
                (cache.hits(), cache.misses(), cache.evictions()),
                (naive.hits, naive.misses, naive.evictions)
            );
            for &f in &files {
                for p in BASE..BASE + 256 + 40 {
                    prop_assert_eq!(cache.contains(f, p), naive.order.contains(&(f, p)), "page {}", p);
                }
            }
        }
    }

    /// The reader-writer-locked, stamp-queued frame cache is observably
    /// the naive bimodal insertion with bypass: same resident extents,
    /// bytes, bypasses, evictions and counters after every lookup, in-place
    /// rewrite, invalidation and budget change. Fill bytes come from a
    /// pool of four and lengths from two, so content deduplicates across
    /// extents and files; a rewrite makes every cached extent of its file
    /// stale at once.
    #[test]
    fn frame_cache_matches_naive_bimodal(
        ops in proptest::collection::vec((0u8..16, 0usize..3, 0u64..6, 0u8..4, any::<bool>()), 1..250)
    ) {
        const SLOT: u64 = 32;
        const SLOTS: u64 = 6;
        let fs = FileStore::new();
        let files = [fs.create("a"), fs.create("b"), fs.create("c")];
        // What each file holds, and how many times it has been rewritten.
        let mut contents = vec![vec![0u8; (SLOT * SLOTS) as usize]; files.len()];
        let mut versions = [0u64; 3];
        for &f in &files {
            fs.set_len(f, SLOT * SLOTS).unwrap();
        }
        let cache = SnapshotFrameCache::new();
        let mut naive = NaiveBimodal::default();
        let mut lookups = 0;
        for (kind, file, slot, fill, long) in ops {
            let len = if long { SLOT } else { SLOT / 2 };
            match kind {
                0..=8 => {
                    let at = (slot * SLOT) as usize;
                    let want = &contents[file][at..at + len as usize];
                    let got = cache.get_or_load(&fs, files[file], slot * SLOT, len).unwrap();
                    prop_assert_eq!(&got[..], want);
                    naive.lookup((file, slot * SLOT, len), versions[file], want);
                    lookups += 1;
                }
                9..=11 => {
                    let at = (slot * SLOT) as usize;
                    contents[file][at..at + len as usize].fill(fill);
                    fs.write_at(files[file], slot * SLOT, &vec![fill; len as usize]).unwrap();
                    versions[file] += 1;
                }
                12 => {
                    let dropped = naive.keys().iter().filter(|k| k.0 == file).count();
                    prop_assert_eq!(cache.invalidate_file(files[file]), dropped as u64);
                    naive.invalidate_file(file);
                }
                _ => {
                    // A budget of 0..=5 half-slots, or none.
                    naive.budget = (kind < 15).then_some(slot * SLOT / 2);
                    cache.set_budget(naive.budget);
                    naive.evict();
                }
            }
            let st = cache.stats();
            prop_assert_eq!((st.hits, st.misses, st.raced), (naive.hits, naive.misses, 0));
            prop_assert_eq!(st.bypassed, naive.bypassed);
            prop_assert_eq!(st.admitted + st.deduped + st.bypassed, st.misses);
            prop_assert_eq!(st.hits + st.misses + st.raced, lookups);
            prop_assert_eq!((st.bytes, st.evicted), (naive.bytes(), naive.evicted));
            prop_assert_eq!(st.content_entries as usize, naive.queue.len());
            let resident = naive.keys();
            prop_assert_eq!(st.entries as usize, resident.len());
            for (i, &f) in files.iter().enumerate() {
                for slot in 0..SLOTS {
                    for len in [SLOT / 2, SLOT] {
                        prop_assert_eq!(
                            cache.peek(f, slot * SLOT, len).is_some(),
                            resident.contains(&(i, slot * SLOT, len)),
                            "file {} slot {} len {}", i, slot, len
                        );
                    }
                }
            }
        }
    }

    /// Disk completions move forward in time and device bytes are at least
    /// the useful bytes for direct reads.
    #[test]
    fn disk_time_is_monotone(
        pages in proptest::collection::vec(0u64..4096, 1..100),
        direct in any::<bool>(),
    ) {
        let fs = FileStore::new();
        let f = fs.create("mem");
        let file_bytes = 4096 * PAGE_SIZE;
        fs.set_len(f, file_bytes).unwrap();
        let mut d = Disk::ssd();
        let mut now = SimTime::ZERO;
        for p in pages {
            let ready = if direct {
                d.read_direct(now, f, p * PAGE_SIZE, PAGE_SIZE, Access::Random).ready
            } else {
                d.fault_read_page(now, f, p, 4096).ready
            };
            prop_assert!(ready > now, "I/O must take positive time");
            now = ready;
        }
        let st = d.stats();
        prop_assert!(st.device_bytes_read + st.cache_hits * PAGE_SIZE >= st.useful_bytes_read
            || st.device_bytes_read >= st.useful_bytes_read - st.cache_hits * PAGE_SIZE);
    }

    /// Faulting the same page twice without flushing is always a cache hit
    /// the second time.
    #[test]
    fn repeated_fault_hits_cache(page in 0u64..1000) {
        let fs = FileStore::new();
        let f = fs.create("mem");
        fs.set_len(f, 1000 * PAGE_SIZE).unwrap();
        let mut d = Disk::ssd();
        let a = d.fault_read_page(SimTime::ZERO, f, page, 1000);
        prop_assert!(!a.cache_hit);
        let b = d.fault_read_page(a.ready, f, page, 1000);
        prop_assert!(b.cache_hit);
        // After drop_caches it misses again.
        d.drop_caches();
        let c = d.fault_read_page(b.ready, f, page, 1000);
        prop_assert!(!c.cache_hit);
    }

    /// Buffered reads of any aligned range terminate and cache the range.
    #[test]
    fn buffered_read_caches_range(first in 0u64..512, count in 1u64..64) {
        let fs = FileStore::new();
        let f = fs.create("mem");
        fs.set_len(f, 1024 * PAGE_SIZE).unwrap();
        let mut d = Disk::ssd();
        let out = d.read_buffered(SimTime::ZERO, f, first * PAGE_SIZE, count * PAGE_SIZE);
        prop_assert!(!out.cache_hit);
        let again = d.read_buffered(out.ready, f, first * PAGE_SIZE, count * PAGE_SIZE);
        prop_assert!(again.cache_hit);
    }

    /// Frame-cache eviction is purely structural: no matter what budget
    /// churn (including zero) hits the cache, pages a live guest memory
    /// aliased out of it are never freed or mutated, and whenever a
    /// budget is in force the cache's accounted bytes respect it.
    #[test]
    fn frame_cache_eviction_never_corrupts_live_aliases(
        selectors in proptest::collection::vec(0usize..4, 2..6),
        budget_pages in proptest::collection::vec(0u64..7, 1..8),
    ) {
        use guest_mem::{GuestMemory, PageIdx, PageRun, PAGE_SIZE};
        let fs = FileStore::new();
        let cache = SnapshotFrameCache::new();
        // A small pool of page images; files picking the same selector
        // carry identical bytes and dedup to one content entry.
        let pool: Vec<Vec<u8>> = (0..4u64)
            .map(|i| {
                let mut img = vec![0u8; PAGE_SIZE];
                guest_mem::checksum::fill_deterministic(&mut img, 0xD00D + i, 0);
                img
            })
            .collect();
        let mut mem = GuestMemory::new(selectors.len() as u64 * PAGE_SIZE as u64);
        let mut files = Vec::new();
        for (i, &sel) in selectors.iter().enumerate() {
            let f = fs.create(&format!("fn{i}/mem"));
            fs.write_at(f, 0, &pool[sel]).unwrap();
            let src = cache.get_or_load(&fs, f, 0, PAGE_SIZE as u64).unwrap();
            mem.alias_run(PageRun::new(PageIdx::new(i as u64), 1), src, 0)
                .unwrap();
            files.push(f);
        }
        // Deduped content is counted once up front.
        let distinct: std::collections::HashSet<usize> = selectors.iter().copied().collect();
        let st = cache.stats();
        prop_assert_eq!(st.entries as usize, selectors.len());
        prop_assert_eq!(st.content_entries as usize, distinct.len());
        prop_assert_eq!(st.bytes as usize, distinct.len() * PAGE_SIZE);
        // Churn the budget, forcing arbitrary eviction waves, and reload
        // extents between waves so evict -> repopulate cycles happen.
        for pages in budget_pages {
            // 6 is the sentinel for "no budget" (unbounded).
            let budget = (pages < 6).then(|| pages * PAGE_SIZE as u64);
            cache.set_budget(budget);
            for &f in &files {
                let _ = cache.get_or_load(&fs, f, 0, PAGE_SIZE as u64).unwrap();
            }
            let st = cache.stats();
            if let Some(b) = budget {
                prop_assert!(st.bytes <= b, "budget overrun: {:?}", st);
            }
            // Live aliases never move: every guest page still matches
            // the image it was installed from, byte for byte.
            for (i, &sel) in selectors.iter().enumerate() {
                prop_assert_eq!(
                    mem.page_bytes(PageIdx::new(i as u64)).unwrap(),
                    &pool[sel][..],
                    "guest page {} corrupted by eviction", i
                );
            }
        }
    }

    /// `stats().bytes` charges deduplicated content exactly once: with
    /// arbitrary byte images assigned to arbitrary files, the accounted
    /// bytes equal the sum of *distinct* image lengths while the extent
    /// index keeps one entry per file.
    #[test]
    fn frame_cache_bytes_count_deduped_content_once(
        images in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 1..128), 3),
        assignment in proptest::collection::vec(0usize..3, 1..10),
    ) {
        let fs = FileStore::new();
        let cache = SnapshotFrameCache::new();
        for (i, &sel) in assignment.iter().enumerate() {
            let f = fs.create(&format!("f{i}"));
            fs.write_at(f, 0, &images[sel]).unwrap();
            cache.get_or_load(&fs, f, 0, images[sel].len() as u64).unwrap();
        }
        // Random images may coincide byte-for-byte, so count distinct
        // *content*, not distinct selectors.
        let distinct: std::collections::HashSet<&[u8]> = assignment
            .iter()
            .map(|&sel| images[sel].as_slice())
            .collect();
        let expected: usize = distinct.iter().map(|img| img.len()).sum();
        let st = cache.stats();
        prop_assert_eq!(st.entries as usize, assignment.len());
        prop_assert_eq!(st.bytes as usize, expected, "deduped content charged more than once");
        prop_assert_eq!(st.admitted + st.deduped, st.misses);
    }
}
