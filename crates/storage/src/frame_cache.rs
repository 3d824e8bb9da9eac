//! The shared snapshot frame cache behind zero-copy cold starts.
//!
//! The paper's core observation is that cold starts repeatedly pay for
//! the *same* guest-memory pages; "How Low Can You Go?" (Tan et al.)
//! shows page-cache residency and cross-start reuse set the practical
//! cold-start floor. This module is that reuse layer for the *functional*
//! pipeline, and it is **content-addressed**: extents whose bytes are
//! identical — the runtime/libc/interpreter pages that every function
//! cloned from one runtime image shares — are held **once fleet-wide**,
//! no matter how many snapshot files they appear in.
//!
//! ## Two-level structure
//!
//! * The **extent index** maps `(FileId, byte offset, byte len)` to a
//!   refcounted *content entry*, remembering the backing file's content
//!   [`generation`](FileStore::generation) at load time.
//! * The **content store** holds each distinct byte string once, as a
//!   [`guest_mem::FrameBytes`] (`Arc<Vec<u8>>`) buffer keyed by a 64-bit
//!   hash of the bytes (FNV-1a fed a word at a time; in-memory only, and
//!   verified byte-for-byte on every match, so a hash collision can never
//!   alias two different extents). A content entry lives exactly as long
//!   as index entries reference it.
//!
//! * The **first** cold start of a function misses: the extent is read
//!   from the [`FileStore`] once. If an identical extent is already
//!   cached — any file, any cluster shard — the index entry attaches to
//!   it and no new bytes are held ([`FrameCacheStats::deduped`]).
//! * **Every subsequent** cold start of the same function — from any
//!   invocation lane of any cluster shard — hits: the install is a
//!   refcount bump, zero byte copies, no store read.
//!
//! ## Bounded growth
//!
//! The content store is capacity-budgeted
//! ([`SnapshotFrameCache::set_budget`]) by **bimodal insertion** with
//! **bypass** (BIP, Qureshi et al., ISCA 2007) over an admission-order
//! queue. Every admission and every bypass takes a *turn*, and every 32nd
//! turn (a counter, not a coin) is protected. A new content entry goes in
//! at the queue's evict-first end, or at its protected end on a protected
//! turn. When deduped bytes exceed the budget, eviction pops the
//! evict-first end: an entry hit since it was queued loses its reference
//! bit and moves to the protected end, any other entry goes.
//!
//! A miss whose bytes would push the cache over its budget is
//! *bypassed* ([`FrameLookup::Bypass`]) unless its turn is protected:
//! admitted at the evict-first end, it would be evicted by the very next
//! admission without serving a hit. A bypass reads, hashes, locks
//! exclusively, queues and evicts nothing; the caller reads the store
//! itself ([`FileStore::read`]). So the ε counter counts
//! over-budget misses, not just admissions; counting admissions alone, the
//! protected admission would never arrive. Below the budget, and on an
//! unbounded cache, nothing is bypassed. Two misses always load: a key
//! whose entry went stale (the reload replaces its old bytes), and an
//! `aliased` lookup, whose caller's frames already alias a buffer of this
//! cache: its content is resident under another key, so the load
//! deduplicates instead of growing the cache. That is how the verify
//! pass's memory-file key attaches to the content the prefetch aliased
//! from the WS file, keeping later verifies of it identity checks.
//!
//! Why: every invocation of a function touches the same working set (the
//! paper's §4), so a budget below the footprint sees a *loop* over working
//! sets, on which any recency order evicts each function's extents just
//! before its next turn. Under BIP a streaming miss passes through and the
//! resident working sets stay, keeping about budget / footprint of a
//! loop, as Belady's MIN does (`tests/belady.rs`); the protected
//! admissions are what let a *new* loop displace a stale resident set.
//!
//! Eviction only drops the *cache's* reference: guest memories aliasing
//! the buffer keep it alive through their own `Arc` clones, so an evicted
//! extent can never free or mutate live guest frames — the next cold
//! start simply re-reads the store. The default budget is unbounded.
//! Queue slots left by invalidation are skipped when popped, and the
//! queue is compacted once it holds more than twice the live entries, so
//! invalidate/reload churn under an unbounded budget (which never pops)
//! cannot grow it.
//!
//! Only a lookup that *finds its key* sets the bit. A populating miss
//! never does, not even one that deduplicates onto live content: within a
//! cold start the verify pass deduplicates onto exactly what its own
//! prefetch admitted a moment earlier, and that correlated reference says
//! nothing about reuse. Counted, it would move every extent streaming
//! through a tight budget to the protected end, ahead of the working sets
//! that are actually reused.
//!
//! ## A hit takes only its own partition's lock
//!
//! The extent index is split into `PARTITIONS` (16) partitions by the key's
//! [`FileId::namespace`], so cluster shard `k`'s keys live in partition
//! `k % PARTITIONS`. Each partition has its own reader-writer lock and
//! its own hit counter, padded to a cache line of its own, and each of
//! its entries holds everything a hit needs: the generation the extent
//! was loaded at and a handle on the content entry's buffer and
//! reference bit. A hit — the only thing a steady-state cold start does
//! here, ~1.4k times per request — takes its partition's *shared* lock,
//! validates the generation, sets the reference bit (one relaxed store,
//! skipped when already set), bumps its partition's counter and clones
//! the `Arc`. Two lanes serving different shards write no common cache
//! line on a hit; they meet only on a buffer whose bytes both shards
//! share, whose refcount each clone bumps.
//!
//! The content store (slab, dedup buckets, eviction queue, budget and
//! turns) is one structure behind its own reader-writer lock, taken only
//! off the hit path: shared for a bypass check (its turn is an atomic),
//! exclusive for a populating miss, a dedup, an eviction, an
//! invalidation, a `clear` or a budget change. Every index mutation holds
//! the content lock exclusively and then the partition's lock
//! exclusively — always content first, then one partition at a time,
//! never the reverse — so an index entry exists exactly while its content
//! entry lists the key, and a hit never waits on anything but a writer to
//! its own partition.
//!
//! ## Staleness is structurally impossible
//!
//! Every index entry records the backing file's content generation at
//! load time and re-validates it on each lookup: a rewritten file
//! (re-register, re-record, `pad_working_set` — anything that mutates
//! bytes) makes all of its cached extents misses automatically,
//! so a stale byte can never be served even if a
//! caller forgets to invalidate. The load path re-checks the generation
//! *after* reading the store too, so a rewrite landing mid-read can
//! never publish freshly-written bytes under the pre-write generation
//! (the loser serves its bytes uncached and counts
//! [`raced`](FrameCacheStats::raced), not a miss). Explicit
//! [`invalidate_file`](SnapshotFrameCache::invalidate_file) /
//! [`clear`](SnapshotFrameCache::clear) calls exist to release the
//! memory eagerly (the orchestrator issues them on re-record,
//! `pad_working_set` and `drop_caches`).
//!
//! ## One cache is shared across all shards
//!
//! Per-shard [`FileStore`] namespacing guarantees `(FileId, extent)` keys
//! from different shards never collide, and the partitions follow the
//! namespaces; the content store does not. Identical bytes from
//! *different* shards still collapse onto one content entry, the budget
//! bounds the whole cluster's bytes, and [`FrameCacheStats`] sums the
//! partitions.

use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use guest_mem::FrameBytes;
use parking_lot::RwLock;

use crate::file_store::{FileId, FileStore};

/// Counters for the cache's effectiveness (asserted by the perf
/// regression harness: repeat cold starts must be served by aliasing).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FrameCacheStats {
    /// Lookups served from a live cached extent (zero-copy).
    pub hits: u64,
    /// Lookups that missed: those that read the backing store and
    /// populated an index entry (including generation-mismatch reloads),
    /// plus the [`bypassed`](Self::bypassed) ones.
    /// `admitted + deduped + bypassed == misses`.
    pub misses: u64,
    /// Misses the budget bypassed: the cache read nothing and the caller
    /// read the store itself.
    pub bypassed: u64,
    /// Lookups that read the store but did **not** populate: the load
    /// lost either to a concurrent identical load (coalesced onto the
    /// winner's entry) or to a concurrent rewrite of the backing file
    /// (the bytes are served uncached — publishing them under the
    /// pre-rewrite generation would cache stale bytes).
    pub raced: u64,
    /// Index entries dropped by explicit invalidation
    /// (`invalidate_file`, `clear`).
    pub invalidated: u64,
    /// Content entries created (a populating miss whose bytes were not
    /// already cached).
    pub admitted: u64,
    /// Populating misses whose bytes were already cached under another
    /// extent — the index entry attached to the existing content entry
    /// instead of holding a second copy.
    pub deduped: u64,
    /// Content entries evicted by the capacity budget (each drops all of
    /// its extent mappings; bytes still aliased by guest memory stay
    /// alive through their own refcounts).
    pub evicted: u64,
    /// Live extent-index entries.
    pub entries: u64,
    /// Live content entries (deduplicated byte strings).
    pub content_entries: u64,
    /// Bytes held by live content entries — deduplicated content is
    /// counted **once**, however many extents map onto it (cache copies
    /// only; aliased guest frames share these same allocations).
    pub bytes: u64,
}

/// Per-request attribution of frame-cache activity: how many lookups
/// *one* invocation resolved as hits, populating misses, and raced
/// loads. The cache's global [`FrameCacheStats`] aggregate the fleet;
/// this delta is threaded through the lookup paths
/// ([`SnapshotFrameCache::get_or_load_tracked`]) so each telemetry span
/// carries the counts of its own invocation, even when many invocations
/// share the cache concurrently.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FrameCacheDelta {
    /// Lookups this request served from a live cached extent.
    pub hits: u64,
    /// Lookups this request resolved by reading the store and populating,
    /// or by a bypass.
    pub misses: u64,
    /// Lookups this request resolved by a raced (coalesced or
    /// rewrite-raced) store read.
    pub raced: u64,
}

impl FrameCacheDelta {
    /// Total lookups attributed to the request.
    pub fn total(&self) -> u64 {
        self.hits + self.misses + self.raced
    }
}

impl std::ops::AddAssign for FrameCacheDelta {
    fn add_assign(&mut self, rhs: FrameCacheDelta) {
        self.hits += rhs.hits;
        self.misses += rhs.misses;
        self.raced += rhs.raced;
    }
}

impl std::ops::Add for FrameCacheDelta {
    type Output = FrameCacheDelta;
    fn add(mut self, rhs: FrameCacheDelta) -> FrameCacheDelta {
        self += rhs;
        self
    }
}

/// The backing file of a cached extent vanished mid-load: an unregister
/// raced a concurrent cold start. Callers degrade to a plain store read
/// (or surface a clean serve failure) instead of panicking.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameCacheGone(pub FileId);

impl fmt::Display for FrameCacheGone {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "frame-cache load from dead {}", self.0)
    }
}

impl std::error::Error for FrameCacheGone {}

/// An owned copy of `[offset, offset + len)` of `file`, zeros in holes and
/// past EOF: one store read, copied out of the borrow at memory bandwidth.
fn load(fs: &FileStore, file: FileId, offset: u64, len: u64) -> Result<Vec<u8>, FrameCacheGone> {
    fs.read(file, offset, len, |src| {
        let mut out = Vec::new();
        sim_core::extend_par(&mut out, src);
        out
    })
    .map_err(|_| FrameCacheGone(file))
}

/// How [`SnapshotFrameCache::get_or_load_tracked`] resolved a lookup.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameLookup {
    /// The extent's bytes, refcounted and immutable: alias them into guest
    /// memory (`Uffd::alias_run`) instead of copying.
    Frames(FrameBytes),
    /// Bypassed: the cache is at its budget and would have evicted this
    /// extent next, so it read nothing. Read the store directly.
    Bypass,
}

/// An extent's identity: `(file, byte offset, byte len)`.
type ExtentKey = (FileId, u64, u64);

/// One turn in this many is protected (BIP's ε = 1/32): its admission goes
/// in at the protected end of the eviction queue and it is never
/// bypassed. The rest go in at the evict-first end, or bypass.
const PROTECTED_EVERY: u64 = 32;

fn protected_turn(turn: u64) -> bool {
    (turn + 1).is_multiple_of(PROTECTED_EVERY)
}

/// Extent-index partitions: a key lives in partition
/// `namespace % PARTITIONS` (module docs, "A hit takes only its own
/// partition's lock"). More than a host has lanes, so concurrent shards
/// rarely share one.
const PARTITIONS: usize = 16;

fn partition_of(file: FileId) -> usize {
    file.namespace() as usize % PARTITIONS
}

/// The half of a content entry that every index entry mapping onto it
/// holds too, so a hit reaches it without the content store's lock.
#[derive(Debug)]
struct Shared {
    bytes: FrameBytes,
    /// Set by every hit on an extent mapped here, cleared when eviction
    /// pops the entry and moves it to the protected end. Only ever a hint
    /// to eviction — it publishes no data — so hits set it `Relaxed`
    /// under their partition's shared lock.
    referenced: AtomicBool,
}

impl Shared {
    /// Serves the content to a lookup that found its key: marks it
    /// referenced and hands out its buffer. The load skips the store when
    /// the bit is already set, so lanes hitting one entry share its cache
    /// line read-only.
    fn reference(&self) -> FrameBytes {
        if !self.referenced.load(Ordering::Relaxed) {
            self.referenced.store(true, Ordering::Relaxed);
        }
        self.bytes.clone()
    }
}

/// One deduplicated byte string: its shared bytes and reference bit, and
/// the extents mapping onto it (the refcount is `keys.len()`).
#[derive(Debug)]
struct ContentEntry {
    hash: u64,
    shared: Arc<Shared>,
    keys: Vec<ExtentKey>,
    /// The entry's admission number: its queue slot is `(slab index,
    /// stamp)`, so a slot left behind by a dropped entry never matches
    /// the entry that later reuses its slab index.
    stamp: u64,
}

/// An extent's index entry: what a hit needs, and the content slab index
/// its removal detaches from.
#[derive(Debug)]
struct IndexEntry {
    /// The backing file's content generation at load time.
    generation: u64,
    slot: u32,
    shared: Arc<Shared>,
}

type Index = HashMap<ExtentKey, IndexEntry>;

/// One partition of the extent index. Aligned to a cache-line pair, so
/// its lock word and hit counter share no line with another partition's.
#[derive(Debug, Default)]
#[repr(align(128))]
struct Partition {
    index: RwLock<Index>,
    /// Lookups served from this partition.
    hits: AtomicU64,
}

impl Partition {
    /// Counts a hit on `entry` and serves it.
    fn serve(&self, entry: &IndexEntry) -> FrameBytes {
        self.hits.fetch_add(1, Ordering::Relaxed);
        entry.shared.reference()
    }
}

/// The content store and every counter but the hit and bypass ones,
/// behind its own reader-writer lock: a bypass check only reads it.
#[derive(Debug)]
struct Content {
    /// Content slab; freed slots are recycled via `free`.
    slab: Vec<Option<ContentEntry>>,
    /// (bytes hash, bytes len) -> slab indices (collision bucket; bytes
    /// are compared on every match, so len > 1 only on a real FNV
    /// collision).
    by_hash: HashMap<(u64, u64), Vec<u32>>,
    free: Vec<u32>,
    /// Eviction order, `(slab index, stamp)`: front = evict-first end,
    /// back = protected end. Every live entry is queued exactly once;
    /// slots of dropped entries linger until popped or compacted.
    queue: VecDeque<(u32, u64)>,
    /// Bytes held by live content entries (deduped content once).
    bytes: u64,
    /// Capacity budget in bytes; `u64::MAX` = unbounded.
    budget: u64,
    /// Admissions plus bypasses so far (module docs, "Bounded growth").
    /// Atomic because a bypass takes its turn under the shared lock; it
    /// only orders eviction and publishes no data, hence `Relaxed`.
    turns: AtomicU64,
    /// Populating misses (a bypass counts in the cache's `bypassed`).
    misses: u64,
    raced: u64,
    invalidated: u64,
    admitted: u64,
    deduped: u64,
    evicted: u64,
}

impl Content {
    fn entry(&self, n: u32) -> &ContentEntry {
        self.slab[n as usize].as_ref().expect("live entry")
    }

    /// Live content entries: every slab slot is live or on the free list.
    fn live(&self) -> u64 {
        (self.slab.len() - self.free.len()) as u64
    }

    /// Whether a miss of `len` new bytes bypasses: they would push the
    /// bytes over the budget and its turn is not protected. A bypass takes
    /// its turn; a protected miss leaves it to the admission it loads.
    fn bypass(&self, len: u64) -> bool {
        self.bytes.saturating_add(len) > self.budget
            && self
                .turns
                .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |turn| {
                    (!protected_turn(turn)).then_some(turn + 1)
                })
                .is_ok()
    }

    /// Drops `key`'s entry from `index`, its partition (if any); the
    /// content entry goes with it when its last extent mapping
    /// disappears. Returns true if an index entry was removed.
    fn detach(&mut self, index: &mut Index, key: ExtentKey) -> bool {
        let Some(IndexEntry { slot, .. }) = index.remove(&key) else {
            return false;
        };
        let entry = self.slab[slot as usize].as_mut().expect("live entry");
        let pos = entry
            .keys
            .iter()
            .position(|k| *k == key)
            .expect("index entry has a back-reference");
        entry.keys.swap_remove(pos);
        if entry.keys.is_empty() {
            self.drop_content(slot);
        }
        true
    }

    /// Frees content entry `idx` (which must have no extent mappings
    /// left): drops its hash-bucket slot, releases the bytes accounting
    /// and recycles the slab slot. Guest memories still aliasing the
    /// buffer keep it alive through their own `Arc` clones. Its queue slot
    /// goes stale; the queue is compacted once it exceeds twice the live
    /// entries (amortised O(1): half of them must drop before the next).
    fn drop_content(&mut self, idx: u32) {
        let entry = self.slab[idx as usize].take().expect("live entry");
        debug_assert!(entry.keys.is_empty(), "content freed while mapped");
        let len = entry.shared.bytes.len() as u64;
        let bucket_key = (entry.hash, len);
        let bucket = self.by_hash.get_mut(&bucket_key).expect("hash bucket");
        bucket.retain(|&i| i != idx);
        if bucket.is_empty() {
            self.by_hash.remove(&bucket_key);
        }
        self.bytes -= len;
        self.free.push(idx);
        if self.queue.len() as u64 > 2 * self.live() {
            let slab = &self.slab;
            self.queue
                .retain(|&(i, stamp)| slab[i as usize].as_ref().is_some_and(|e| e.stamp == stamp));
        }
    }

    /// Maps `key` (valid at `generation`) onto `bytes` in `index`, its
    /// partition, deduplicating against identical live content. Returns
    /// the canonical buffer (the already-cached one on a dedup). The
    /// caller enforces the budget once it has released the partition.
    fn attach(
        &mut self,
        index: &mut Index,
        key: ExtentKey,
        generation: u64,
        bytes: FrameBytes,
        hash: u64,
    ) -> FrameBytes {
        // A stale mapping for this extent (old generation) dies first.
        self.detach(index, key);
        let bucket_key = (hash, bytes.len() as u64);
        let existing = self.by_hash.get(&bucket_key).and_then(|bucket| {
            bucket
                .iter()
                .copied()
                .find(|&i| self.entry(i).shared.bytes[..] == bytes[..])
        });
        let slot = match existing {
            Some(idx) => {
                // Neither the reference bit nor the queue moves: only a
                // lookup that finds its key earns anything (module docs,
                // "Bounded growth").
                self.deduped += 1;
                idx
            }
            None => {
                self.bytes += bytes.len() as u64;
                // Admitted unreferenced, for the same reason.
                let stamp = self.admitted;
                let entry = ContentEntry {
                    hash,
                    shared: Arc::new(Shared {
                        bytes,
                        referenced: AtomicBool::new(false),
                    }),
                    keys: Vec::new(),
                    stamp,
                };
                let idx = match self.free.pop() {
                    Some(i) => {
                        self.slab[i as usize] = Some(entry);
                        i
                    }
                    None => {
                        self.slab.push(Some(entry));
                        (self.slab.len() - 1) as u32
                    }
                };
                self.by_hash.entry(bucket_key).or_default().push(idx);
                let turn = self.turns.get_mut();
                if protected_turn(*turn) {
                    self.queue.push_back((idx, stamp));
                } else {
                    self.queue.push_front((idx, stamp));
                }
                *turn += 1;
                self.admitted += 1;
                idx
            }
        };
        let entry = self.slab[slot as usize].as_mut().expect("live entry");
        entry.keys.push(key);
        let shared = entry.shared.clone();
        let out = shared.bytes.clone();
        index.insert(
            key,
            IndexEntry {
                generation,
                slot,
                shared,
            },
        );
        out
    }

    /// Pops the evict-first end until the deduped bytes fit the budget:
    /// stale slots are dropped, an entry looked up since it was queued
    /// loses its reference bit and moves to the protected end, and any
    /// other entry is evicted with all of its extent mappings, each
    /// removed under its own partition's lock. The entry just returned to
    /// a caller may evict itself — the caller holds its own `Arc`, so that
    /// is a pass-through serve, not a correctness hazard.
    fn evict_to_budget(&mut self, parts: &[Partition]) {
        // `bytes > budget >= 0` means a live entry exists, every live
        // entry is queued once, and one lap clears every reference bit,
        // so this ends within two laps.
        while self.bytes > self.budget {
            let (idx, stamp) = self.queue.pop_front().expect("live entries are queued");
            let Some(entry) = self.slab[idx as usize]
                .as_mut()
                .filter(|e| e.stamp == stamp)
            else {
                continue;
            };
            if entry.shared.referenced.swap(false, Ordering::Relaxed) {
                self.queue.push_back((idx, stamp));
                continue;
            }
            for k in std::mem::take(&mut entry.keys) {
                parts[partition_of(k.0)].index.write().remove(&k);
            }
            self.drop_content(idx);
            self.evicted += 1;
        }
    }
}

/// A content-addressed, generation-validated, capacity-budgeted cache of
/// snapshot-file extents, shared by every monitor (and every cluster
/// shard) that serves cold starts from one logical snapshot store. See
/// the module docs for the design; thread-safe, cheap to share behind an
/// `Arc`.
#[derive(Debug)]
pub struct SnapshotFrameCache {
    /// Locked before any partition, never after one.
    content: RwLock<Content>,
    parts: [Partition; PARTITIONS],
    /// Misses bypassed; outside the lock so a bypass never needs it
    /// exclusively.
    bypassed: AtomicU64,
}

impl Default for SnapshotFrameCache {
    fn default() -> Self {
        SnapshotFrameCache {
            content: RwLock::new(Content {
                slab: Vec::new(),
                by_hash: HashMap::new(),
                free: Vec::new(),
                queue: VecDeque::new(),
                bytes: 0,
                budget: u64::MAX,
                turns: AtomicU64::new(0),
                misses: 0,
                raced: 0,
                invalidated: 0,
                admitted: 0,
                deduped: 0,
                evicted: 0,
            }),
            parts: Default::default(),
            bypassed: AtomicU64::new(0),
        }
    }
}

impl SnapshotFrameCache {
    /// Creates an empty, unbounded cache (cap it with
    /// [`set_budget`](Self::set_budget)).
    pub fn new() -> Self {
        SnapshotFrameCache::default()
    }

    /// Caps the deduplicated content bytes the cache may hold; `None`
    /// restores the unbounded default. Shrinking below the current
    /// occupancy evicts content entries immediately.
    pub fn set_budget(&self, budget_bytes: Option<u64>) {
        let mut content = self.content.write();
        content.budget = budget_bytes.unwrap_or(u64::MAX);
        content.evict_to_budget(&self.parts);
    }

    /// The current budget (`None` = unbounded).
    pub fn budget(&self) -> Option<u64> {
        let budget = self.content.read().budget;
        (budget != u64::MAX).then_some(budget)
    }

    /// Returns the extent `[offset, offset + len)` of `file`, serving it
    /// from the cache when a live entry exists and its recorded content
    /// generation still matches the store's. On a miss the bytes are read
    /// from `fs` once (zeros in holes and past EOF, like
    /// [`FileStore::read`]); identical bytes already cached under any
    /// other extent are shared instead of duplicated. A miss the budget
    /// bypasses (module docs, "Bounded growth") is served by an uncached
    /// store read.
    ///
    /// The returned buffer is refcounted and immutable: callers alias it
    /// into guest memory (`Uffd::alias_run`) instead of copying.
    ///
    /// # Errors
    ///
    /// [`FrameCacheGone`] if `file` is dead (deleted — e.g. an
    /// unregister racing this cold start), including mid-load: the
    /// caller falls back to a plain store read or fails its serve
    /// cleanly. The cache itself never panics on a dead file.
    pub fn get_or_load(
        &self,
        fs: &FileStore,
        file: FileId,
        offset: u64,
        len: u64,
    ) -> Result<FrameBytes, FrameCacheGone> {
        let mut scratch = FrameCacheDelta::default();
        match self.get_or_load_tracked(fs, file, offset, len, false, &mut scratch)? {
            FrameLookup::Frames(bytes) => Ok(bytes),
            FrameLookup::Bypass => load(fs, file, offset, len).map(Arc::new),
        }
    }

    /// The lookup behind [`get_or_load`](SnapshotFrameCache::get_or_load):
    /// a bypassed miss is returned as [`FrameLookup::Bypass`] for the
    /// caller to read the store itself, borrowing instead of copying.
    /// `aliased` says the caller's guest frames for this extent already
    /// alias a buffer of this cache, so a miss loads (and deduplicates)
    /// even at the budget. The lookup's resolution (hit / miss / raced) is
    /// attributed to the caller's [`FrameCacheDelta`], so per-invocation
    /// telemetry spans report real counts even when the cache is shared by
    /// concurrent requests.
    ///
    /// # Errors
    ///
    /// As [`get_or_load`](SnapshotFrameCache::get_or_load).
    pub fn get_or_load_tracked(
        &self,
        fs: &FileStore,
        file: FileId,
        offset: u64,
        len: u64,
        aliased: bool,
        delta: &mut FrameCacheDelta,
    ) -> Result<FrameLookup, FrameCacheGone> {
        let key = (file, offset, len);
        let generation = fs.generation(file).ok_or(FrameCacheGone(file))?;
        let part = &self.parts[partition_of(file)];
        // The hit path: this partition's shared lock and nothing else.
        if let Some(entry) = part.index.read().get(&key) {
            if entry.generation == generation {
                delta.hits += 1;
                return Ok(FrameLookup::Frames(part.serve(entry)));
            }
        }
        {
            // The bypass path: the content store's shared lock, then the
            // partition's again, since another lane may have populated
            // the key in between.
            let content = self.content.read();
            let index = part.index.read();
            match index.get(&key) {
                Some(entry) if entry.generation == generation => {
                    delta.hits += 1;
                    return Ok(FrameLookup::Frames(part.serve(entry)));
                }
                None if !aliased && content.bypass(len) => {
                    self.bypassed.fetch_add(1, Ordering::Relaxed);
                    delta.misses += 1;
                    return Ok(FrameLookup::Bypass);
                }
                // A stale entry reloads in place, replacing its old bytes.
                _ => {}
            }
        }
        // Miss (or stale generation): read and hash outside the cache
        // locks, then re-validate before publishing.
        let raw = load(fs, file, offset, len)?;
        // Dedup key: in-process only and byte-compared on every match, so
        // the cheap word feed does — every missed extent is hashed.
        let hash = sim_core::hash::fnv1a64_words(&raw);
        let bytes: FrameBytes = Arc::new(raw);
        if fs.generation(file) != Some(generation) {
            // A rewrite landed between the generation check and the read:
            // publishing would pin possibly-new bytes under the old
            // generation. Serve what we read, cache nothing; the next
            // lookup reloads under the new generation.
            self.content.write().raced += 1;
            delta.raced += 1;
            return Ok(FrameLookup::Frames(bytes));
        }
        let mut content = self.content.write();
        let mut index = part.index.write();
        if let Some(entry) = index.get(&key) {
            if entry.generation == generation {
                // A concurrent identical load won the publish; coalesce
                // onto its entry so both lanes serve one allocation.
                content.raced += 1;
                delta.raced += 1;
                return Ok(FrameLookup::Frames(entry.shared.reference()));
            }
        }
        content.misses += 1;
        delta.misses += 1;
        let out = content.attach(&mut index, key, generation, bytes, hash);
        // Eviction may detach keys of this partition too.
        drop(index);
        content.evict_to_budget(&self.parts);
        Ok(FrameLookup::Frames(out))
    }

    /// Looks up an extent without loading on miss (tests/introspection);
    /// reference bits and counters are untouched.
    pub fn peek(&self, file: FileId, offset: u64, len: u64) -> Option<FrameBytes> {
        self.parts[partition_of(file)]
            .index
            .read()
            .get(&(file, offset, len))
            .map(|entry| entry.shared.bytes.clone())
    }

    /// Drops every cached extent of `file` (re-register, re-record and
    /// padding rewrite snapshot files and artifacts in place; generation
    /// validation already makes the old bytes unservable — this releases
    /// their memory too). Content shared with other files' extents stays
    /// as long as those mappings live. Returns the number of index
    /// entries dropped.
    pub fn invalidate_file(&self, file: FileId) -> u64 {
        let mut content = self.content.write();
        let mut index = self.parts[partition_of(file)].index.write();
        // Hash-map order is fine: eviction follows the queue's admission
        // order, so nothing observable depends on which slots free first.
        let keys: Vec<ExtentKey> = index
            .keys()
            .filter(|&&(f, _, _)| f == file)
            .copied()
            .collect();
        for &k in &keys {
            content.detach(&mut index, k);
        }
        content.invalidated += keys.len() as u64;
        keys.len() as u64
    }

    /// Drops everything — the frame-cache analogue of
    /// `echo 3 > /proc/sys/vm/drop_caches` (the paper's flush-before-
    /// measure methodology, §4.1). All structural state (index, content
    /// slab, hash buckets, eviction queue) is reset; counters and the
    /// budget survive.
    pub fn clear(&self) {
        let mut content = self.content.write();
        for part in &self.parts {
            let mut index = part.index.write();
            content.invalidated += index.len() as u64;
            index.clear();
        }
        content.slab.clear();
        content.by_hash.clear();
        content.free.clear();
        content.queue.clear();
        content.bytes = 0;
    }

    /// Current counters, summed over the partitions.
    pub fn stats(&self) -> FrameCacheStats {
        let content = self.content.read();
        let bypassed = self.bypassed.load(Ordering::Relaxed);
        let (mut hits, mut entries) = (0, 0);
        for part in &self.parts {
            hits += part.hits.load(Ordering::Relaxed);
            entries += part.index.read().len() as u64;
        }
        FrameCacheStats {
            hits,
            misses: content.misses + bypassed,
            bypassed,
            raced: content.raced,
            invalidated: content.invalidated,
            admitted: content.admitted,
            deduped: content.deduped,
            evicted: content.evicted,
            entries,
            content_entries: content.live(),
            bytes: content.bytes,
        }
    }

    /// Eviction-queue slots, live and stale.
    #[cfg(test)]
    fn queue_len(&self) -> usize {
        self.content.read().queue.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn miss_then_hit_serves_the_same_buffer() {
        let fs = FileStore::new();
        let cache = SnapshotFrameCache::new();
        let f = fs.create("snap/mem");
        fs.write_at(f, 0, b"0123456789").unwrap();
        let reads_before = fs.read_calls();
        let a = cache.get_or_load(&fs, f, 2, 4).unwrap();
        assert_eq!(&a[..], b"2345");
        assert_eq!(fs.read_calls() - reads_before, 1);
        let b = cache.get_or_load(&fs, f, 2, 4).unwrap();
        assert!(FrameBytes::ptr_eq(&a, &b), "hit returns the same allocation");
        assert_eq!(fs.read_calls() - reads_before, 1, "hit reads nothing");
        let st = cache.stats();
        assert_eq!((st.hits, st.misses, st.entries, st.bytes), (1, 1, 1, 4));
        assert_eq!((st.admitted, st.deduped, st.content_entries), (1, 0, 1));
    }

    #[test]
    fn tracked_lookups_attribute_per_request() {
        let fs = FileStore::new();
        let cache = SnapshotFrameCache::new();
        let f = fs.create("snap/mem");
        fs.write_at(f, 0, b"0123456789").unwrap();
        // Request A populates, request B is served zero-copy; each sees
        // only its own resolution while the global stats see both.
        let mut a = FrameCacheDelta::default();
        let mut b = FrameCacheDelta::default();
        cache.get_or_load_tracked(&fs, f, 0, 8, false, &mut a).unwrap();
        cache.get_or_load_tracked(&fs, f, 0, 8, false, &mut b).unwrap();
        assert_eq!(a, FrameCacheDelta { hits: 0, misses: 1, raced: 0 });
        assert_eq!(b, FrameCacheDelta { hits: 1, misses: 0, raced: 0 });
        assert_eq!(a.total(), 1);
        let st = cache.stats();
        assert_eq!((st.hits, st.misses, st.raced), (1, 1, 0));
        // Deltas add up.
        let sum = a + b;
        assert_eq!(sum, FrameCacheDelta { hits: 1, misses: 1, raced: 0 });
    }

    #[test]
    fn rewritten_file_is_never_served_stale() {
        let fs = FileStore::new();
        let cache = SnapshotFrameCache::new();
        let f = fs.create("snap/ws");
        fs.write_at(f, 0, b"old bytes!").unwrap();
        let stale = cache.get_or_load(&fs, f, 0, 9).unwrap();
        assert_eq!(&stale[..], b"old bytes");
        // Rewrite in place (what re-record / pad_working_set do).
        fs.write_at(f, 0, b"new bytes!").unwrap();
        let fresh = cache.get_or_load(&fs, f, 0, 9).unwrap();
        assert_eq!(&fresh[..], b"new bytes", "generation mismatch reloads");
        assert!(!FrameBytes::ptr_eq(&stale, &fresh));
        assert_eq!(cache.stats().misses, 2);
        // The stale mapping is gone with its content (no other extent
        // shares those bytes).
        assert_eq!(cache.stats().content_entries, 1);
        assert_eq!(cache.stats().bytes, 9);
        // Truncating re-create is a rewrite too.
        fs.create("snap/ws");
        let empty = cache.get_or_load(&fs, f, 0, 9).unwrap();
        assert!(empty.iter().all(|&b| b == 0), "truncated file reads zeros");
    }

    #[test]
    fn identical_extents_across_files_share_one_content_entry() {
        let fs = FileStore::new();
        let cache = SnapshotFrameCache::new();
        // N functions cloned from one runtime image: same bytes, distinct
        // snapshot files.
        let image = b"shared runtime image page bytes!";
        let files: Vec<_> = (0..4)
            .map(|i| {
                let f = fs.create(&format!("snap/fn{i}"));
                fs.write_at(f, 0, image).unwrap();
                f
            })
            .collect();
        let bufs: Vec<FrameBytes> = files
            .iter()
            .map(|&f| cache.get_or_load(&fs, f, 0, image.len() as u64).unwrap())
            .collect();
        for b in &bufs[1..] {
            assert!(
                FrameBytes::ptr_eq(&bufs[0], b),
                "identical content is one allocation fleet-wide"
            );
        }
        let st = cache.stats();
        assert_eq!(st.entries, 4, "one index entry per extent");
        assert_eq!(st.content_entries, 1, "one content entry for shared bytes");
        assert_eq!(st.bytes, image.len() as u64, "deduped content counted once");
        assert_eq!((st.admitted, st.deduped, st.misses), (1, 3, 4));
        // Dropping one mapping keeps the shared content alive…
        assert_eq!(cache.invalidate_file(files[0]), 1);
        let st = cache.stats();
        assert_eq!((st.entries, st.content_entries, st.bytes), (3, 1, 32));
        // …and dropping the rest releases it.
        for &f in &files[1..] {
            cache.invalidate_file(f);
        }
        let st = cache.stats();
        assert_eq!((st.entries, st.content_entries, st.bytes), (0, 0, 0));
    }

    #[test]
    fn extents_differing_in_the_unaligned_tail_do_not_dedup() {
        // 13 bytes: one whole hash word plus a 5-byte tail.
        let fs = FileStore::new();
        let cache = SnapshotFrameCache::new();
        let (a, b) = (fs.create("a"), fs.create("b"));
        fs.write_at(a, 0, b"same prefix 0").unwrap();
        fs.write_at(b, 0, b"same prefix 1").unwrap();
        let got_a = cache.get_or_load(&fs, a, 0, 13).unwrap();
        let got_b = cache.get_or_load(&fs, b, 0, 13).unwrap();
        assert_eq!(&got_a[..], b"same prefix 0");
        assert_eq!(&got_b[..], b"same prefix 1");
        let st = cache.stats();
        assert_eq!((st.content_entries, st.admitted, st.deduped), (2, 2, 0));
        use sim_core::hash::fnv1a64_words as key;
        assert_ne!(key(&got_a), key(&got_b), "distinct dedup keys, not just a byte compare");
    }

    #[test]
    fn budget_evicts_the_newest_unreferenced_entry_first() {
        let fs = FileStore::new();
        let cache = SnapshotFrameCache::new();
        let f = fs.create("f");
        // Five 16-byte extents with distinct contents.
        for i in 0..5u8 {
            fs.write_at(f, i as u64 * 16, &[i + 1; 16]).unwrap();
        }
        let resident = |e: u64| cache.peek(f, e * 16, 16).is_some();
        cache.set_budget(Some(32));
        let a = cache.get_or_load(&fs, f, 0, 16).unwrap();
        cache.get_or_load(&fs, f, 16, 16).unwrap();
        // The cache is full: admitted, the next miss would go in at the
        // evict-first end and, never hit, be the next victim. It bypasses
        // instead, served by one uncached read — a stream passes through
        // without displacing what is resident.
        let reads = fs.read_calls();
        assert_eq!(&cache.get_or_load(&fs, f, 32, 16).unwrap()[..], &[3u8; 16]);
        assert_eq!(fs.read_calls() - reads, 1);
        let st = cache.stats();
        assert_eq!((st.misses, st.bypassed, st.evicted), (3, 1, 0));
        assert!(st.bytes <= 32, "budget bounds deduped bytes");
        assert!(resident(0) && resident(1) && !resident(2));
        // Extent 1, the newer, is at the evict-first end; hit it and
        // shrink: it loses its bit and moves to the protected end, and
        // extent 0 goes.
        cache.get_or_load(&fs, f, 16, 16).unwrap();
        cache.set_budget(Some(16));
        assert_eq!(cache.stats().evicted, 1);
        assert!(resident(1) && !resident(0));
        // The evicted extent reloads as a fresh miss once it fits; the
        // caller's old buffer was never freed or mutated (it holds its own
        // Arc).
        assert_eq!(&a[..], &[1u8; 16]);
        let misses = cache.stats().misses;
        cache.set_budget(Some(32));
        cache.get_or_load(&fs, f, 0, 16).unwrap();
        assert_eq!(cache.stats().misses, misses + 1);
        assert!(resident(0));
        // Lifting the budget stops eviction and bypass.
        cache.set_budget(None);
        cache.get_or_load(&fs, f, 48, 16).unwrap();
        let st = cache.stats();
        assert_eq!((st.evicted, st.bypassed), (1, 1), "unbounded again");
        assert!(resident(3));
    }

    #[test]
    fn every_32nd_admission_goes_in_at_the_protected_end() {
        let fs = FileStore::new();
        let cache = SnapshotFrameCache::new();
        let f = fs.create("f");
        for e in 0..32u64 {
            fs.write_at(f, e * 8, &e.to_le_bytes()).unwrap();
        }
        let resident = |e: u64| cache.peek(f, e * 8, 8).is_some();
        cache.set_budget(Some(2 * 8));
        // Turns 1-31 are unprotected: two admissions fill the cache, and
        // the other 29 misses bypass it.
        for e in 0..31 {
            cache.get_or_load(&fs, f, e * 8, 8).unwrap();
        }
        assert!(resident(0) && resident(1));
        let st = cache.stats();
        assert_eq!((st.admitted, st.bypassed, st.evicted), (2, 29, 0));
        // The 32nd turn is protected — bypasses count as turns, or it would
        // never come. Its miss goes in at the protected end and displaces
        // the resident entry at the evict-first end (the newer of the two):
        // this is how a new loop takes the cache from a stale one.
        cache.get_or_load(&fs, f, 31 * 8, 8).unwrap();
        assert!(resident(31) && resident(0) && !resident(1));
        assert_eq!(cache.stats().evicted, 1);
    }

    #[test]
    fn an_aliased_miss_at_the_budget_deduplicates_instead_of_bypassing() {
        let fs = FileStore::new();
        let cache = SnapshotFrameCache::new();
        // One cold start's view of an extent: the WS file's copy, which
        // the prefetch aliased, and the memory file's, which verify reads.
        let (ws, mem) = (fs.create("ws"), fs.create("mem"));
        fs.write_at(ws, 0, &[1u8; 16]).unwrap();
        fs.write_at(mem, 0, &[1u8; 16]).unwrap();
        cache.set_budget(Some(16));
        let mut delta = FrameCacheDelta::default();
        let mut lookup = |file, aliased| {
            cache
                .get_or_load_tracked(&fs, file, 0, 16, aliased, &mut delta)
                .unwrap()
        };
        let FrameLookup::Frames(prefetched) = lookup(ws, false) else {
            panic!("a miss that fits the budget is admitted");
        };
        // The cache is full: a plain miss of the memory-file key bypasses
        // without reading, while an aliased one loads and attaches to the
        // content it aliases, holding no new bytes.
        let reads = fs.read_calls();
        assert_eq!(lookup(mem, false), FrameLookup::Bypass);
        assert_eq!(fs.read_calls(), reads, "a bypass reads nothing");
        assert_eq!(lookup(mem, true), FrameLookup::Frames(prefetched.clone()));
        assert_eq!(lookup(mem, false), FrameLookup::Frames(prefetched));
        assert_eq!(delta, FrameCacheDelta { hits: 1, misses: 3, raced: 0 });
        let st = cache.stats();
        assert_eq!((st.admitted, st.deduped, st.bypassed, st.misses), (1, 1, 1, 3));
        assert_eq!((st.bytes, st.evicted), (16, 0));
    }

    #[test]
    fn a_dedup_does_not_earn_the_second_chance() {
        let fs = FileStore::new();
        let cache = SnapshotFrameCache::new();
        // One cold start's view of an extent: the WS file's copy and the
        // memory file's, byte-identical.
        let (ws, mem) = (fs.create("ws"), fs.create("mem"));
        fs.write_at(ws, 0, &[1u8; 16]).unwrap();
        fs.write_at(mem, 0, &[1u8; 16]).unwrap();
        fs.write_at(mem, 16, &[2u8; 16]).unwrap();
        // Prefetch admits, verify deduplicates onto it: two keys, one
        // content entry, and no hit. Then an entry admitted later, and hit.
        cache.get_or_load(&fs, ws, 0, 16).unwrap();
        cache.get_or_load(&fs, mem, 0, 16).unwrap();
        cache.get_or_load(&fs, mem, 16, 16).unwrap();
        cache.get_or_load(&fs, mem, 16, 16).unwrap();
        let st = cache.stats();
        assert_eq!(
            (st.hits, st.deduped, st.content_entries, st.bytes),
            (1, 1, 2, 32)
        );
        // Shrinking to one entry moves the hit entry from the evict-first
        // end to the protected end and finds the shared entry
        // unreferenced: it goes, with both of its keys. Had the dedup set
        // the bit, both would have been spared once and the hit entry,
        // first in line again, would have gone.
        cache.set_budget(Some(16));
        assert_eq!(cache.stats().evicted, 1);
        assert!(cache.peek(ws, 0, 16).is_none() && cache.peek(mem, 0, 16).is_none());
        assert!(cache.peek(mem, 16, 16).is_some());
    }

    #[test]
    fn invalidate_and_reload_churn_keeps_the_queue_bounded() {
        let fs = FileStore::new();
        let cache = SnapshotFrameCache::new();
        let (churned, kept) = (fs.create("churned"), fs.create("kept"));
        fs.write_at(kept, 0, &[7u8; 16]).unwrap();
        cache.get_or_load(&fs, kept, 0, 16).unwrap();
        // `deploy_churn`'s shape under an unbounded budget, which never
        // pops the queue: a re-record drops a file's extents, and the next
        // cold start reloads them as new content.
        for round in 0..10_000u64 {
            let words: Vec<u8> = (0..8).flat_map(|w| (round * 8 + w).to_le_bytes()).collect();
            fs.write_at(churned, 0, &words).unwrap();
            cache.invalidate_file(churned);
            for e in 0..4 {
                cache.get_or_load(&fs, churned, e * 16, 16).unwrap();
            }
            let live = cache.stats().content_entries as usize;
            assert_eq!(live, 5);
            assert!(
                cache.queue_len() <= 2 * live + 1,
                "round {round}: {} slots",
                cache.queue_len()
            );
        }
    }

    #[test]
    fn shrinking_the_budget_evicts_immediately() {
        let fs = FileStore::new();
        let cache = SnapshotFrameCache::new();
        let f = fs.create("f");
        fs.write_at(f, 0, &[8u8; 32]).unwrap();
        fs.write_at(f, 32, &[9u8; 32]).unwrap();
        cache.get_or_load(&fs, f, 0, 32).unwrap();
        cache.get_or_load(&fs, f, 32, 32).unwrap();
        assert_eq!(cache.stats().bytes, 64);
        cache.set_budget(Some(40));
        let st = cache.stats();
        assert!(st.bytes <= 40);
        assert_eq!(st.evicted, 1);
        assert_eq!(cache.budget(), Some(40));
    }

    #[test]
    fn eviction_never_frees_or_mutates_aliased_guest_frames() {
        use guest_mem::{GuestMemory, PageRun, PAGE_SIZE};
        let fs = FileStore::new();
        let cache = SnapshotFrameCache::new();
        let f = fs.create("snap/mem");
        let mut page = vec![0u8; 2 * PAGE_SIZE];
        guest_mem::checksum::fill_deterministic(&mut page, 0xA11A5, 0);
        fs.write_at(f, 0, &page).unwrap();
        let src = cache
            .get_or_load(&fs, f, 0, 2 * PAGE_SIZE as u64)
            .unwrap();
        // A live guest memory aliases the cached extent.
        let mut mem = GuestMemory::new(16 * PAGE_SIZE as u64);
        mem.alias_run(PageRun::new(guest_mem::PageIdx::new(0), 2), src.clone(), 0)
            .unwrap();
        let refs_before = FrameBytes::strong_count(&src);
        // Evict it (budget 0 keeps nothing).
        cache.set_budget(Some(0));
        assert_eq!(cache.stats().evicted, 1);
        assert_eq!(cache.stats().bytes, 0);
        assert!(cache.peek(f, 0, 2 * PAGE_SIZE as u64).is_none());
        // Only the cache's reference dropped; the guest's aliases and the
        // bytes behind them are untouched.
        assert_eq!(FrameBytes::strong_count(&src), refs_before - 1);
        for p in 0..2u64 {
            assert_eq!(
                mem.page_bytes(guest_mem::PageIdx::new(p)).unwrap(),
                &page[p as usize * PAGE_SIZE..(p as usize + 1) * PAGE_SIZE],
                "aliased frame survives eviction byte-for-byte"
            );
        }
    }

    #[test]
    fn invalidate_file_drops_only_that_file() {
        let fs = FileStore::new();
        let cache = SnapshotFrameCache::new();
        let a = fs.create("a");
        let b = fs.create("b");
        fs.write_at(a, 0, b"aaaa").unwrap();
        fs.write_at(b, 0, b"bbbb").unwrap();
        cache.get_or_load(&fs, a, 0, 2).unwrap();
        cache.get_or_load(&fs, a, 2, 2).unwrap();
        cache.get_or_load(&fs, b, 0, 4).unwrap();
        assert_eq!(cache.invalidate_file(a), 2);
        let st = cache.stats();
        assert_eq!((st.entries, st.invalidated), (1, 2));
        assert!(cache.peek(b, 0, 4).is_some());
        assert!(cache.peek(a, 0, 2).is_none());
        cache.clear();
        assert_eq!(cache.stats().entries, 0);
        assert_eq!(cache.stats().invalidated, 3);
    }

    #[test]
    fn distinct_extents_are_distinct_entries() {
        let fs = FileStore::new();
        let cache = SnapshotFrameCache::new();
        let f = fs.create("f");
        fs.write_at(f, 0, &[7u8; 64]).unwrap();
        let whole = cache.get_or_load(&fs, f, 0, 64).unwrap();
        let head = cache.get_or_load(&fs, f, 0, 32).unwrap();
        assert!(!FrameBytes::ptr_eq(&whole, &head));
        assert_eq!(cache.stats().entries, 2);
        assert_eq!(cache.stats().content_entries, 2, "different lengths never dedup");
        assert_eq!(cache.stats().misses, 2);
    }

    #[test]
    fn past_eof_reads_cache_zeros() {
        let fs = FileStore::new();
        let cache = SnapshotFrameCache::new();
        let f = fs.create("f");
        fs.write_at(f, 0, b"xy").unwrap();
        let got = cache.get_or_load(&fs, f, 1, 4).unwrap();
        assert_eq!(&got[..], &[b'y', 0, 0, 0]);
    }

    #[test]
    fn load_from_dead_file_errs_instead_of_panicking() {
        let fs = FileStore::new();
        let cache = SnapshotFrameCache::new();
        let f = fs.create("f");
        fs.write_at(f, 0, b"abcd").unwrap();
        cache.get_or_load(&fs, f, 0, 4).unwrap();
        fs.delete(f);
        // An unregister racing a cold start degrades to a clean error the
        // caller can turn into a plain store read / serve failure.
        assert_eq!(cache.get_or_load(&fs, f, 0, 4), Err(FrameCacheGone(f)));
        let st = cache.stats();
        assert_eq!(st.misses, 1, "failed load is not a populating miss");
    }

    #[test]
    fn concurrent_identical_loads_coalesce_and_count_once() {
        use std::sync::Arc;
        let fs = Arc::new(FileStore::new());
        let cache = Arc::new(SnapshotFrameCache::new());
        let f = fs.create("f");
        fs.write_at(f, 0, &[42u8; 4096]).unwrap();
        const THREADS: u64 = 8;
        const ITERS: u64 = 50;
        std::thread::scope(|s| {
            for _ in 0..THREADS {
                let (fs, cache) = (fs.clone(), cache.clone());
                s.spawn(move || {
                    for _ in 0..ITERS {
                        let b = cache.get_or_load(&fs, f, 0, 4096).unwrap();
                        assert_eq!(b[0], 42);
                    }
                });
            }
        });
        let st = cache.stats();
        // Every lookup is accounted exactly once; duplicate loads that
        // lost the publish race are `raced`, not extra misses.
        assert_eq!(st.hits + st.misses + st.raced, THREADS * ITERS);
        assert_eq!(st.misses, 1, "one extent, one populating miss");
        assert_eq!((st.entries, st.content_entries, st.bytes), (1, 1, 4096));
    }

    /// One scripted sequence over two shards' namespaces: prefetch-like
    /// loads that deduplicate across shards, verify-like aliased loads,
    /// hits, a stale rewrite, an invalidation, and budgets that bypass,
    /// evict across namespaces and reach a protected turn. Its counters
    /// are a known answer: partitioning the index must not move one.
    #[test]
    fn a_scripted_two_namespace_sequence_gives_known_stats() {
        let shards = [FileStore::with_namespace(0), FileStore::with_namespace(1)];
        let cache = SnapshotFrameCache::new();
        // Per shard a memory file and a WS file of eight 16-byte extents;
        // the first four hold runtime bytes common to both shards.
        let files: Vec<(FileId, FileId)> = shards
            .iter()
            .enumerate()
            .map(|(s, fs)| {
                let (mem, ws) = (fs.create("mem"), fs.create("ws"));
                for e in 0..8u8 {
                    let byte = if e < 4 { e + 1 } else { 0x10 * (s as u8 + 1) + e };
                    fs.write_at(mem, e as u64 * 16, &[byte; 16]).unwrap();
                    fs.write_at(ws, e as u64 * 16, &[byte; 16]).unwrap();
                }
                (mem, ws)
            })
            .collect();
        let mut delta = FrameCacheDelta::default();
        // Extent `e` of shard `s`'s WS file (`ws`) or memory file.
        let mut look = |s: usize, ws: bool, e: u64, aliased: bool| {
            let file = if ws { files[s].1 } else { files[s].0 };
            let got = cache.get_or_load_tracked(&shards[s], file, e * 16, 16, aliased, &mut delta);
            drop(got.unwrap());
        };
        for s in 0..2 {
            (0..8).for_each(|e| look(s, true, e, false));
            (0..8).for_each(|e| look(s, false, e, true));
        }
        for _ in 0..2 {
            for s in 0..2 {
                (0..8).for_each(|e| look(s, true, e, false));
            }
        }
        shards[1].write_at(files[1].1, 5 * 16, &[0x77; 16]).unwrap();
        look(1, true, 5, false);
        assert_eq!(cache.invalidate_file(files[0].0), 8);
        cache.set_budget(Some(6 * 16));
        for s in 0..2 {
            (0..8).for_each(|e| look(s, false, e, false));
            (0..8).for_each(|e| look(s, true, e, false));
        }
        cache.set_budget(Some(2 * 16));
        for round in 0..40 {
            look(round % 2, false, round as u64 % 8, false);
            look(round % 2, true, round as u64 % 3, false);
        }
        cache.set_budget(None);
        for s in 0..2 {
            (0..8).for_each(|e| look(s, false, e, s == 1));
        }
        // The counters one unpartitioned index gives for this sequence.
        let known = FrameCacheStats {
            hits: 81,
            misses: 112,
            bypassed: 59,
            raced: 0,
            invalidated: 8,
            admitted: 25,
            deduped: 28,
            evicted: 13,
            entries: 20,
            content_entries: 12,
            bytes: 192,
        };
        assert_eq!(cache.stats(), known);
        assert_eq!(delta, FrameCacheDelta { hits: 81, misses: 112, raced: 0 });
        cache.clear();
        let cleared = FrameCacheStats {
            invalidated: 28,
            entries: 0,
            content_entries: 0,
            bytes: 0,
            ..known
        };
        assert_eq!(cache.stats(), cleared);
    }

    #[test]
    fn frame_cache_stress() {
        stress(true, 1);
    }

    #[test]
    fn frame_cache_stress_budgeted() {
        stress(false, 1);
    }

    /// Lanes over two shards' stores at once under the tiny budget: most
    /// lookups go to a few hot extents that fit it, so a miss in one
    /// namespace evicts and detaches keys of the other's partition while
    /// that partition serves hits, and equal versions deduplicate across
    /// the two.
    #[test]
    fn frame_cache_stress_namespaces() {
        stress(false, 2);
    }

    /// Lanes doing everything at once to one cache: lookups, in-place
    /// rewrites, invalidations, budget changes — flipped between tiny and
    /// none, or (`flip_budget` false) held tiny throughout so bypass and
    /// eviction run beside every other operation. Seeded per thread; the
    /// interleaving is whatever the scheduler makes of it, which is why CI
    /// runs these ten times. Each extent holds its file's version counter
    /// at its last rewrite, repeated as `u64` words, and a writer
    /// publishes that version only once the write has landed — so any
    /// lookup begun after the publish must serve it or something newer.
    /// With more than one namespace, file `f` lives in store
    /// `f % namespaces` and three lookups in four go to a hot set of two
    /// extents per file.
    fn stress(flip_budget: bool, namespaces: u32) {
        use std::sync::{Barrier, Mutex};
        const THREADS: u64 = 4;
        const OPS: u64 = 4000;
        let files_n = if namespaces > 1 { 4 } else { 3 };
        const HOT: u64 = 2;
        const EXTENTS: u64 = 64;
        const LEN: u64 = 64;
        const TINY_BUDGET: u64 = 8 * LEN;

        let fill = |version: u64| version.to_le_bytes().repeat(LEN as usize / 8);
        let stores: Vec<FileStore> = (0..namespaces).map(FileStore::with_namespace).collect();
        let store = |f: usize| &stores[f % namespaces as usize];
        let cache = SnapshotFrameCache::new();
        if !flip_budget {
            cache.set_budget(Some(TINY_BUDGET));
        }
        let files: Vec<FileId> = (0..files_n).map(|i| store(i).create(&format!("f{i}"))).collect();
        for (i, &f) in files.iter().enumerate() {
            store(i).write_at(f, 0, &fill(0).repeat(EXTENTS as usize)).unwrap();
        }
        // Per file: the writers' version counter, and per extent the last
        // version whose write has completed.
        let versions: Vec<Mutex<u64>> = (0..files_n).map(|_| Mutex::new(0)).collect();
        let published: Vec<Vec<AtomicU64>> = (0..files_n)
            .map(|_| (0..EXTENTS).map(|_| AtomicU64::new(0)).collect())
            .collect();
        // The uniform version an extent's bytes carry.
        let version_of = |bytes: &[u8]| {
            let word = u64::from_le_bytes(bytes[..8].try_into().unwrap());
            assert!(
                bytes.len() as u64 == LEN && bytes.chunks(8).all(|w| w == word.to_le_bytes()),
                "torn extent: {bytes:?}"
            );
            word
        };

        let start = Barrier::new(THREADS as usize);
        let lookups: u64 = std::thread::scope(|s| {
            let lanes: Vec<_> = (0..THREADS)
                .map(|t| {
                    let (cache, files, start) = (&cache, &files, &start);
                    let (versions, published) = (&versions, &published);
                    s.spawn(move || {
                        let mut rng = sim_core::DetRng::new(0x57E55).fork(t);
                        let mut lookups = 0;
                        start.wait();
                        for _ in 0..OPS {
                            let f = rng.gen_range(files_n as u64) as usize;
                            let fs = store(f);
                            let e = if namespaces > 1 && rng.gen_range(4) != 0 {
                                rng.gen_range(HOT)
                            } else {
                                rng.gen_range(EXTENTS)
                            };
                            match rng.gen_range(128) {
                                0..=1 => {
                                    let mut version = versions[f].lock().unwrap();
                                    *version += 1;
                                    fs.write_at(files[f], e * LEN, &fill(*version)).unwrap();
                                    published[f][e as usize].store(*version, Ordering::SeqCst);
                                }
                                2 => {
                                    cache.invalidate_file(files[f]);
                                }
                                3 => cache.set_budget(
                                    (rng.gen_bool(0.5) || !flip_budget).then_some(TINY_BUDGET),
                                ),
                                _ => {
                                    let floor = published[f][e as usize].load(Ordering::SeqCst);
                                    // One lookup in eight says its caller
                                    // aliases the extent, so it never
                                    // bypasses; a bypass reads the store.
                                    let aliased = rng.gen_range(8) == 0;
                                    let (file, at) = (files[f], e * LEN);
                                    let mut delta = FrameCacheDelta::default();
                                    let got = match cache
                                        .get_or_load_tracked(fs, file, at, LEN, aliased, &mut delta)
                                        .unwrap()
                                    {
                                        FrameLookup::Frames(bytes) => bytes.to_vec(),
                                        FrameLookup::Bypass => {
                                            assert!(!aliased, "an aliased lookup bypassed");
                                            fs.read(file, at, LEN, <[u8]>::to_vec).unwrap()
                                        }
                                    };
                                    let served = version_of(&got);
                                    assert!(served >= floor, "stale: served {served}, floor {floor}");
                                    lookups += 1;
                                }
                            }
                        }
                        lookups
                    })
                })
                .collect();
            lanes.into_iter().map(|lane| lane.join().expect("lane panicked")).sum()
        });

        let st = cache.stats();
        assert_eq!(st.hits + st.misses + st.raced, lookups, "{st:?}");
        assert_eq!(st.admitted + st.deduped + st.bypassed, st.misses, "{st:?}");
        assert!(
            flip_budget || (st.bytes <= TINY_BUDGET && st.evicted > 0 && st.bypassed > 0),
            "{st:?}"
        );
        assert!(namespaces == 1 || (st.hits > 0 && st.deduped > 0), "{st:?}");
        // Quiescent: the budget binds, the structure is consistent, and
        // every extent serves exactly what its file now holds.
        cache.set_budget(Some(TINY_BUDGET));
        let st = cache.stats();
        assert!(st.bytes <= TINY_BUDGET && st.content_entries <= st.entries, "{st:?}");
        cache.set_budget(None);
        for (f, &file) in files.iter().enumerate() {
            for e in 0..EXTENTS {
                let got = cache.get_or_load(store(f), file, e * LEN, LEN).unwrap();
                assert_eq!(version_of(&got), published[f][e as usize].load(Ordering::SeqCst));
            }
        }
        let st = cache.stats();
        assert_eq!(st.entries, files_n as u64 * EXTENTS);
        assert_eq!(st.bytes, st.content_entries * LEN);
    }
}
