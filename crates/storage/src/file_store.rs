//! In-memory file store holding real bytes.
//!
//! Snapshots, working-set files, and trace files hold their real bytes so
//! the functional layer can verify that REAP installs exactly the contents
//! the snapshot captured. Files are sparse, as Firecracker's guest-memory
//! file is on a real filesystem: each stores only the byte ranges written
//! to it, packed into one arena, and every range below its length that was
//! never written (or was cut by a truncation) is a hole that reads as
//! zeros. Timing is *not* modelled here — that is [`crate::disk::Disk`]'s
//! job; the store is the "platter".

use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::RwLock;
use sim_core::MetricsRegistry;

use crate::fault::{FaultInjector, ReadFault, StorageError};

/// Identifier of a file inside a [`FileStore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FileId(u64);

impl FileId {
    /// The store namespace this id was allocated from (see
    /// [`FileStore::with_namespace`]) — the fault layer scopes whole-shard
    /// blackouts by this.
    pub fn namespace(self) -> u32 {
        (self.0 >> NAMESPACE_SHIFT) as u32
    }
}

impl fmt::Display for FileId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "file#{}", self.0)
    }
}

/// One file: a packed byte arena plus a sorted extent index. Every byte
/// below `len` that no extent covers is a hole and reads as zeros, so a
/// snapshot's memory file stores only the pages the guest touched.
#[derive(Debug, Default)]
struct FileData {
    name: String,
    len: u64,
    /// The stored bytes. Extents point into it; bytes no extent points at
    /// are dead until a compaction repacks the arena.
    arena: Vec<u8>,
    /// File offset -> (arena offset, length): disjoint, non-empty, all
    /// below `len`.
    extents: BTreeMap<u64, (usize, usize)>,
    /// Bumped on every content mutation (write, truncate, gather). The
    /// snapshot frame cache validates this at lookup, so a rewritten file
    /// can never be served from stale cached bytes.
    generation: u64,
}

/// Dead arena bytes tolerated beyond the live ones before a cut repacks
/// the arena (one page), so small files never repack on every overwrite.
const COMPACT_SLACK: usize = 4096;

impl FileData {
    /// Bytes the extents hold (holes excluded).
    fn stored(&self) -> usize {
        self.extents.values().map(|&(_, n)| n).sum()
    }

    /// Extents overlapping `[start, end)`, ascending, as
    /// `(file offset, arena offset, length)`.
    fn overlapping(&self, start: u64, end: u64) -> impl Iterator<Item = (u64, usize, usize)> + '_ {
        let first = self
            .extents
            .range(..start)
            .next_back()
            .filter(|&(&k, &(_, n))| k + n as u64 > start);
        first
            .into_iter()
            .chain(self.extents.range(start..end))
            .map(|(&k, &(at, n))| (k, at, n))
    }

    /// Where `[offset, offset + len)` starts in the arena, if one extent
    /// covers all of it.
    fn locate(&self, offset: u64, len: u64) -> Option<usize> {
        let end = offset.checked_add(len)?;
        let (&k, &(at, n)) = self.extents.range(..=offset).next_back()?;
        (end <= k + n as u64).then(|| at + (offset - k) as usize)
    }

    /// Fills `buf` with `[offset, offset + buf.len())`: stored bytes where
    /// an extent covers them, zeros in holes and past EOF.
    fn copy_out(&self, offset: u64, buf: &mut [u8]) {
        let end = offset.saturating_add(buf.len() as u64);
        let mut filled = 0;
        for (k, at, n) in self.overlapping(offset, end) {
            let from = k.max(offset);
            let count = ((k + n as u64).min(end) - from) as usize;
            let dst = (from - offset) as usize;
            buf[filled..dst].fill(0);
            let src = at + (from - k) as usize;
            sim_core::copy_par(&mut buf[dst..dst + count], &self.arena[src..src + count]);
            filled = dst + count;
        }
        buf[filled..].fill(0);
    }

    /// An owned, zero-padded copy of `[offset, offset + len)`.
    fn copy(&self, offset: u64, len: usize) -> Vec<u8> {
        let mut out = vec![0; len];
        self.copy_out(offset, &mut out);
        out
    }

    /// Drops the stored bytes in `[start, end)`, trimming the extents that
    /// straddle its edges. A cut at the arena's end shrinks the arena;
    /// anywhere else its bytes turn dead, and too many dead bytes repack
    /// the arena.
    fn cut(&mut self, start: u64, end: u64) {
        let hit: Vec<(u64, usize, usize)> = self.overlapping(start, end).collect();
        if hit.is_empty() {
            return;
        }
        for &(k, at, n) in hit.iter().rev() {
            self.extents.remove(&k);
            let e_end = k + n as u64;
            let (lo, hi) = (k.max(start), e_end.min(end));
            if k < lo {
                self.extents.insert(k, (at, (lo - k) as usize));
            }
            if hi < e_end {
                self.extents.insert(hi, (at + (hi - k) as usize, (e_end - hi) as usize));
            }
            if at + (hi - k) as usize == self.arena.len() {
                self.arena.truncate(at + (lo - k) as usize);
            }
        }
        let stored = self.stored();
        if self.arena.len() - stored > stored + COMPACT_SLACK {
            self.compact(stored);
        }
    }

    /// Repacks the arena in file order, merging file-adjacent extents.
    fn compact(&mut self, stored: usize) {
        let mut arena = Vec::with_capacity(stored);
        let mut packed: Vec<(u64, usize, usize)> = Vec::new();
        for (&k, &(at, n)) in &self.extents {
            match packed.last_mut() {
                Some((pk, _, pn)) if *pk + *pn as u64 == k => *pn += n,
                _ => packed.push((k, arena.len(), n)),
            }
            arena.extend_from_slice(&self.arena[at..at + n]);
        }
        self.arena = arena;
        self.extents = packed.into_iter().map(|(k, at, n)| (k, (at, n))).collect();
    }

    /// Points the `n > 0` file bytes at `offset`, where no extent lies, at
    /// arena bytes `[at, at + n)`: grows the extent that ends at `offset`
    /// if its bytes end at `at`, else starts one.
    fn record(&mut self, offset: u64, at: usize, n: usize) {
        match self.extents.range_mut(..offset).next_back() {
            Some((&k, (a, len))) if k + *len as u64 == offset && *a + *len == at => *len += n,
            _ => {
                self.extents.insert(offset, (at, n));
            }
        }
    }

    /// Stores the concatenation of `parts` at `offset`, where no extent
    /// lies: appended to the arena, growing the extent that ends at
    /// `offset` if its bytes end the arena.
    fn append(&mut self, offset: u64, parts: &[&[u8]]) {
        let n: usize = parts.iter().map(|p| p.len()).sum();
        if n == 0 {
            return;
        }
        self.record(offset, self.arena.len(), n);
        sim_core::extend_scatter(&mut self.arena, parts);
    }

    /// Claims arena bytes `[at, at + n)` in place as the file's bytes at
    /// `offset` (see [`FileStore::adopt_at`]). The only extent that may
    /// overlap them is a torn earlier claim of the same bytes; it is
    /// trimmed off first.
    fn adopt(&mut self, offset: u64, at: usize, n: usize) {
        assert!(at + n <= self.arena.len(), "adopted bytes leave the arena");
        if let Some((&k, (_, len))) = self.extents.range_mut(..=offset).next_back() {
            if k + *len as u64 > offset {
                *len = (offset - k) as usize;
            }
        }
        if self.extents.get(&offset).is_some_and(|&(_, len)| len == 0) {
            self.extents.remove(&offset);
        }
        if n > 0 {
            self.record(offset, at, n);
        }
        self.len = self.len.max(offset + n as u64);
    }

    /// Writes `bytes` at `offset`: in place inside one extent, else cut
    /// and appended. The file grows to cover the write's end.
    fn write(&mut self, offset: u64, bytes: &[u8]) {
        let end = offset + bytes.len() as u64;
        match self.locate(offset, bytes.len() as u64) {
            Some(at) => sim_core::copy_par(&mut self.arena[at..at + bytes.len()], bytes),
            None => {
                self.cut(offset, end);
                self.append(offset, &[bytes]);
            }
        }
        self.len = self.len.max(end);
    }

    /// Truncates, or extends with a hole, to exactly `len` bytes.
    fn resize(&mut self, len: u64) {
        if len < self.len {
            self.cut(len, self.len);
        }
        self.len = len;
    }
}

#[derive(Debug, Default)]
struct Inner {
    files: HashMap<FileId, FileData>,
    by_name: HashMap<String, FileId>,
    next_id: u64,
}

/// Width of a store namespace in id-space bits: ids of namespace `n` live
/// in `[n << 40, (n + 1) << 40)`. 2^40 files per store is unreachable in
/// practice, so ids from differently-namespaced stores can never collide.
const NAMESPACE_SHIFT: u32 = 40;

/// Operation counters, shared across store handles. Purely observational
/// (used by batching regression tests); timing lives in [`crate::Disk`].
#[derive(Debug, Default)]
struct StoreCounters {
    writes: AtomicU64,
    reads: AtomicU64,
}

/// A shared, in-memory "filesystem".
///
/// Cloning a `FileStore` yields another handle to the same files (the
/// orchestrator and per-instance monitors share one store, like processes
/// sharing a disk).
///
/// # Example
///
/// ```
/// use sim_storage::FileStore;
///
/// let fs = FileStore::new();
/// let f = fs.create("snapshots/helloworld.mem");
/// fs.write_at(f, 0, b"hello")?;
/// assert_eq!(fs.read(f, 0, 5, <[u8]>::to_vec)?, b"hello");
/// assert_eq!(fs.len(f), 5);
/// # Ok::<(), sim_storage::StorageError>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct FileStore {
    inner: Arc<RwLock<Inner>>,
    counters: Arc<StoreCounters>,
    /// Optional fault injector (see [`crate::fault`]). The [`AtomicBool`]
    /// is the hot-path gate: with no injector attached every fault check
    /// is one relaxed load.
    injector: Arc<RwLock<Option<Arc<FaultInjector>>>>,
    injecting: Arc<AtomicBool>,
    /// Optional fleet metrics registry (byte counters, injected-fault
    /// count). Same hot-path shape as the injector: with no registry
    /// attached every check is one relaxed load.
    metrics: Arc<RwLock<Option<MetricsRegistry>>>,
    metered: Arc<AtomicBool>,
    /// The id-space namespace this store allocates from (0 unless built
    /// by [`with_namespace`](Self::with_namespace)).
    namespace: u32,
}

impl FileStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        FileStore::default()
    }

    /// Attaches a fault injector: from now on the mutations and the
    /// `checked_*` entry points consult it, and [`read`](Self::read) and
    /// [`generation`](Self::generation) consult its blackouts. Replaces
    /// any previous injector; all handles to this store (clones) see it.
    pub fn attach_injector(&self, injector: Arc<FaultInjector>) {
        *self.injector.write() = Some(injector);
        self.injecting.store(true, Ordering::Release);
    }

    /// Detaches the injector (injection off, zero per-op cost again).
    pub fn detach_injector(&self) {
        self.injecting.store(false, Ordering::Release);
        *self.injector.write() = None;
    }

    /// The currently attached injector, if any.
    pub fn injector(&self) -> Option<Arc<FaultInjector>> {
        if !self.injecting.load(Ordering::Acquire) {
            return None;
        }
        self.injector.read().clone()
    }

    /// Attaches (or, with `None`, detaches) a fleet metrics registry.
    /// While attached, the store feeds `storage_read_bytes_total` /
    /// `storage_write_bytes_total` counters and counts injected faults
    /// (`storage_faults_injected_total`). All handles (clones) see it;
    /// detached, the per-op cost returns to a single relaxed load.
    pub fn set_metrics(&self, metrics: Option<MetricsRegistry>) {
        self.metered.store(metrics.is_some(), Ordering::Release);
        *self.metrics.write() = metrics;
    }

    /// The currently attached metrics registry, if any.
    pub fn metrics(&self) -> Option<MetricsRegistry> {
        if !self.metered.load(Ordering::Acquire) {
            return None;
        }
        self.metrics.read().clone()
    }

    /// Counts one injected fault into the registry, if attached.
    fn metric_fault(&self) {
        if let Some(m) = self.metrics() {
            m.inc("storage_faults_injected_total");
        }
    }

    /// Counts read bytes into the registry, if attached.
    fn metric_read(&self, bytes: u64) {
        if let Some(m) = self.metrics() {
            m.add("storage_read_bytes_total", bytes);
        }
    }

    /// Counts written bytes into the registry, if attached.
    fn metric_write(&self, bytes: u64) {
        if let Some(m) = self.metrics() {
            m.add("storage_write_bytes_total", bytes);
        }
    }

    /// Asks the injector, if attached, about a write of `requested` bytes
    /// to `id`: `Ok(None)` applies it whole, `Ok(Some(n))` applies only
    /// an `n`-byte prefix (a torn write), an error applies nothing. Every
    /// injected fault is counted.
    fn write_fault(
        &self,
        injector: Option<&FaultInjector>,
        site: &'static str,
        id: FileId,
        name: &str,
        requested: u64,
    ) -> Result<Option<u64>, StorageError> {
        let Some(inj) = injector else {
            return Ok(None);
        };
        let fault = inj.on_write(site, id, name, requested);
        if !matches!(fault, Ok(None)) {
            self.metric_fault();
        }
        fault
    }

    /// Creates an empty store whose [`FileId`]s are drawn from a disjoint
    /// per-namespace range, so handles from stores with *different*
    /// namespaces never compare equal. Cluster shards use one namespace
    /// per shard: their per-shard files (snapshots, WS artifacts, shadow
    /// identities) then stay distinct cache keys when their timed programs
    /// merge onto one shared [`crate::Disk`]. Namespace `0` is identical
    /// to [`FileStore::new`].
    ///
    /// # Panics
    ///
    /// Panics if `namespace` does not fit the id space (≥ 2^24) — a
    /// silently wrapped base would alias another namespace and break the
    /// no-collision guarantee.
    pub fn with_namespace(namespace: u32) -> Self {
        assert!(
            (namespace as u64) < (1 << (u64::BITS - NAMESPACE_SHIFT)),
            "namespace {namespace} exceeds the id space"
        );
        let store = FileStore { namespace, ..FileStore::default() };
        store.inner.write().next_id = (namespace as u64) << NAMESPACE_SHIFT;
        store
    }

    /// The namespace this store's [`FileId`]s are drawn from (see
    /// [`with_namespace`](Self::with_namespace); 0 for
    /// [`FileStore::new`]). Cluster shard `k` is namespace `k`.
    pub fn namespace(&self) -> u32 {
        self.namespace
    }

    /// Creates (or truncates) a file with the given name and returns its id.
    pub fn create(&self, name: &str) -> FileId {
        let mut inner = self.inner.write();
        if let Some(&id) = inner.by_name.get(name) {
            let fd = inner
                .files
                .get_mut(&id)
                .expect("name index points at live file");
            fd.len = 0;
            fd.arena.clear();
            fd.extents.clear();
            fd.generation += 1;
            return id;
        }
        let id = FileId(inner.next_id);
        inner.next_id += 1;
        inner.files.insert(
            id,
            FileData {
                name: name.to_string(),
                ..FileData::default()
            },
        );
        inner.by_name.insert(name.to_string(), id);
        id
    }

    /// Looks up a file by name.
    pub fn open(&self, name: &str) -> Option<FileId> {
        self.inner.read().by_name.get(name).copied()
    }

    /// True if a file with this name exists.
    pub fn exists(&self, name: &str) -> bool {
        self.inner.read().by_name.contains_key(name)
    }

    /// The file's name.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not refer to a live file.
    pub fn name(&self, id: FileId) -> String {
        self.inner.read().files[&id].name.clone()
    }

    /// Current length in bytes.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not refer to a live file.
    pub fn len(&self, id: FileId) -> u64 {
        self.inner.read().files[&id].len
    }

    /// True if the file is empty.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not refer to a live file.
    pub fn is_empty(&self, id: FileId) -> bool {
        self.len(id) == 0
    }

    /// Writes `bytes` at `offset`, extending the file if needed; a gap
    /// between the old EOF and `offset` becomes a hole.
    ///
    /// # Errors
    ///
    /// A typed [`StorageError`] on a dead file or an injected fault. An
    /// injected torn write applies a prefix of `bytes` (and bumps the
    /// generation) before failing; retrying the identical call repairs
    /// the file.
    pub fn write_at(&self, id: FileId, offset: u64, bytes: &[u8]) -> Result<(), StorageError> {
        self.write_with(id, bytes.len() as u64, |fd, n| {
            fd.write(offset, &bytes[..n])
        })
    }

    /// Claims bytes `[arena.start, arena.end)` of the file's own arena, in
    /// place, as its bytes at `offset` — a [`write_at`](Self::write_at)
    /// whose bytes are already in the store, so none is copied. A snapshot
    /// capture hands the guest's frame arena to its memory file with
    /// [`swap_arena`](Self::swap_arena), then claims each resident run
    /// with this. It counts, meters, bumps the generation and meets the
    /// fault plan exactly as a `write_at` of those bytes does, and a
    /// claim that continues the extent before it, in the file and in the
    /// arena, grows that extent.
    ///
    /// The claimed bytes must be ones no extent points at: this moves
    /// bytes into the file, it never shares them between two ranges.
    ///
    /// # Errors
    ///
    /// As [`write_at`](Self::write_at). An injected torn write claims a
    /// prefix before failing; retrying the identical call claims the
    /// rest.
    ///
    /// # Panics
    ///
    /// Panics if the range leaves the file's arena.
    pub fn adopt_at(
        &self,
        id: FileId,
        offset: u64,
        arena: Range<usize>,
    ) -> Result<(), StorageError> {
        self.write_with(id, arena.len() as u64, |fd, n| {
            fd.adopt(offset, arena.start, n)
        })
    }

    /// One counted write of `requested` bytes to `id`: consults the fault
    /// plan, meters the bytes applied, bumps the generation and has
    /// `apply` store the first `n` bytes (all of them unless torn).
    fn write_with(
        &self,
        id: FileId,
        requested: u64,
        apply: impl FnOnce(&mut FileData, usize),
    ) -> Result<(), StorageError> {
        self.counters.writes.fetch_add(1, Ordering::Relaxed);
        let injector = self.injector();
        let mut inner = self.inner.write();
        let fd = inner
            .files
            .get_mut(&id)
            .ok_or(StorageError::DeadFile { op: "write to", id })?;
        let torn = self.write_fault(injector.as_deref(), "write_at", id, &fd.name, requested)?;
        let applied = torn.unwrap_or(requested);
        self.metric_write(applied);
        fd.generation += 1;
        apply(fd, applied as usize);
        torn_result(id, torn, requested)
    }

    /// Empties the file, as re-[`create`](Self::create) does, and swaps
    /// its arena for `arena`, whose bytes the file then holds unclaimed
    /// (see [`adopt_at`](Self::adopt_at)). Returns the old arena emptied,
    /// with its allocation kept, so the caller can reuse memory that is
    /// already faulted in — or, for a dead `id`, `arena` itself.
    pub fn swap_arena(&self, id: FileId, arena: Vec<u8>) -> Vec<u8> {
        let mut inner = self.inner.write();
        let Some(fd) = inner.files.get_mut(&id) else {
            return arena;
        };
        fd.len = 0;
        fd.extents.clear();
        fd.generation += 1;
        let mut old = std::mem::replace(&mut fd.arena, arena);
        old.clear();
        old
    }

    /// Reads `[offset, offset + len)`: `f` sees exactly `len` bytes under
    /// the store's read lock — borrowed in place when one written range
    /// holds them all, else a copy with holes and the part past EOF
    /// reading as zeros (sparse-file semantics) — and must not
    /// call mutating store methods (deadlock). One read is counted. This
    /// is the read for page data: it checks only for a dead file and a
    /// blackout, never the plan's transient, corrupt or delay rules (see
    /// [`checked_read_at`](Self::checked_read_at)).
    ///
    /// # Errors
    ///
    /// [`StorageError::DeadFile`] for a dead file,
    /// [`StorageError::Unavailable`] for a blacked-out one.
    pub fn read<R>(
        &self,
        id: FileId,
        offset: u64,
        len: u64,
        f: impl FnOnce(&[u8]) -> R,
    ) -> Result<R, StorageError> {
        let injector = self.injector();
        let inner = self.inner.read();
        let fd = inner
            .files
            .get(&id)
            .ok_or(StorageError::DeadFile { op: "read from", id })?;
        if let Some(inj) = &injector {
            if inj.blacked_out(id, &fd.name) {
                self.metric_fault();
                return Err(StorageError::Unavailable { id });
            }
        }
        self.counters.reads.fetch_add(1, Ordering::Relaxed);
        self.metric_read(len);
        Ok(match fd.locate(offset, len) {
            Some(at) => f(&fd.arena[at..at + len as usize]),
            None => f(&fd.copy(offset, len as usize)),
        })
    }

    /// Fault-aware owned read: like [`read`](Self::read), but it consults
    /// the whole fault plan — transients, blackouts and delays are typed
    /// [`StorageError`]s or ledger entries, and injected payload
    /// corruption is applied to the returned bytes (the stored bytes stay
    /// pristine — a verify-and-reread heals). Recovery paths (snapshot
    /// restore, REAP artifact loads) read through this.
    pub fn checked_read_at(
        &self,
        id: FileId,
        offset: u64,
        len: usize,
    ) -> Result<Vec<u8>, StorageError> {
        let injector = self.injector();
        let inner = self.inner.read();
        let fd = inner
            .files
            .get(&id)
            .ok_or(StorageError::DeadFile { op: "read from", id })?;
        let mut corrupt = false;
        if let Some(inj) = &injector {
            match inj.on_read("read_at", id, &fd.name) {
                Some(ReadFault::Error(e)) => {
                    self.metric_fault();
                    return Err(e);
                }
                Some(ReadFault::Corrupt) => {
                    self.metric_fault();
                    corrupt = true;
                }
                None => {}
            }
        }
        self.counters.reads.fetch_add(1, Ordering::Relaxed);
        self.metric_read(len as u64);
        let mut out = fd.copy(offset, len);
        if corrupt {
            FaultInjector::corrupt(&mut out);
        }
        Ok(out)
    }

    /// Fault-aware twin of [`len`](Self::len): typed errors for dead
    /// files, injected transients and blackouts.
    pub fn checked_len(&self, id: FileId) -> Result<u64, StorageError> {
        let injector = self.injector();
        let inner = self.inner.read();
        let fd = inner
            .files
            .get(&id)
            .ok_or(StorageError::DeadFile { op: "stat of", id })?;
        if let Some(inj) = &injector {
            if let Some(ReadFault::Error(e)) = inj.on_meta("len", id, &fd.name) {
                return Err(e);
            }
        }
        Ok(fd.len)
    }

    // Pinned by benchmark/src/layers.rs:640 (`guest_mem.install_gbps`);
    // leaves with the next `benchmark/`-only PR.
    #[doc(hidden)]
    pub fn with_range<R>(&self, id: FileId, offset: u64, len: u64, f: impl FnOnce(&[u8]) -> R) -> R {
        self.read(id, offset, len, f).unwrap_or_else(|e| panic!("{e}"))
    }

    // Pinned by benchmark/src/layers.rs:659 (`storage.range_read_gbps`);
    // leaves with the next `benchmark/`-only PR.
    #[doc(hidden)]
    pub fn read_ranges_into(&self, id: FileId, jobs: Vec<(u64, &mut [u8])>, _lanes: usize) {
        self.counters
            .reads
            .fetch_add(jobs.len() as u64, Ordering::Relaxed);
        if jobs.is_empty() {
            return;
        }
        self.metric_read(jobs.iter().map(|(_, b)| b.len() as u64).sum());
        let inner = self.inner.read();
        let fd = &inner.files[&id];
        for (offset, buf) in jobs {
            fd.copy_out(offset, buf);
        }
    }

    /// Scatter-gather write: assembles `parts` (ranges of other files)
    /// contiguously into `dst` starting at `dst_offset`, in one store
    /// operation with a single destination copy — the `writev` of the WS
    /// file builder. The destination is truncated at `dst_offset` first.
    /// Source holes and ranges past EOF are written as zeros (they read as
    /// zeros, as in [`read`](Self::read)), so the assembled bytes are
    /// stored densely.
    ///
    /// # Errors
    ///
    /// Dead handles and injected faults surface as typed errors. An
    /// injected torn gather leaves only a prefix of the assembled bytes in
    /// place; retrying the identical call repairs it (gather always
    /// rewrites everything from `dst_offset`).
    ///
    /// # Panics
    ///
    /// Panics if `dst_offset` is past the destination's EOF or if `dst`
    /// appears among the sources (contract violations, not faults).
    pub fn gather_into(
        &self,
        dst: FileId,
        dst_offset: u64,
        parts: &[(FileId, u64, u64)],
    ) -> Result<(), StorageError> {
        self.counters.writes.fetch_add(1, Ordering::Relaxed);
        let injector = self.injector();
        let mut inner = self.inner.write();
        // Take the destination out so sources can be borrowed freely; every
        // outcome puts it back.
        let mut dst_fd = inner.files.remove(&dst).ok_or(StorageError::DeadFile {
            op: "gather into",
            id: dst,
        })?;
        let gathered = self.gather_locked(injector, &inner.files, &mut dst_fd, dst, dst_offset, parts);
        inner.files.insert(dst, dst_fd);
        gathered
    }

    /// [`gather_into`](Self::gather_into) under the store's write lock,
    /// with the destination taken out of `files`.
    fn gather_locked(
        &self,
        injector: Option<Arc<FaultInjector>>,
        files: &HashMap<FileId, FileData>,
        dst_fd: &mut FileData,
        dst: FileId,
        dst_offset: u64,
        parts: &[(FileId, u64, u64)],
    ) -> Result<(), StorageError> {
        let requested: u64 = parts.iter().map(|&(_, _, len)| len).sum();
        let torn = self.write_fault(
            injector.as_deref(),
            "gather_into",
            dst,
            &dst_fd.name,
            requested,
        )?;
        assert!(
            dst_offset <= dst_fd.len,
            "gather at {dst_offset} past EOF of {dst}"
        );
        // Resolve every source range to stored slices, with holes borrowed
        // from one shared zeros buffer, before any destination mutation, so
        // a dead source leaves `dst` intact.
        let zeros = vec![0u8; parts.iter().map(|&(_, _, len)| len).max().unwrap_or(0) as usize];
        let mut slices: Vec<&[u8]> = Vec::with_capacity(parts.len());
        for &(src, offset, len) in parts {
            assert_ne!(src, dst, "gather source must differ from destination");
            let fd = files.get(&src).ok_or(StorageError::DeadFile {
                op: "gather from",
                id: src,
            })?;
            let (mut at, end) = (offset, offset.saturating_add(len));
            for (k, a, n) in fd.overlapping(offset, end) {
                let from = k.max(offset);
                let to = (k + n as u64).min(end);
                slices.push(&zeros[..(from - at) as usize]);
                let src_at = a + (from - k) as usize;
                slices.push(&fd.arena[src_at..src_at + (to - from) as usize]);
                at = to;
            }
            slices.push(&zeros[..(len - (at - offset)) as usize]);
        }
        // A torn gather keeps only a prefix of the assembled bytes.
        let written = torn.map_or(requested, |w| w.min(requested));
        let mut budget = written as usize;
        for slice in &mut slices {
            *slice = &slice[..slice.len().min(budget)];
            budget -= slice.len();
        }
        dst_fd.resize(dst_offset);
        dst_fd.append(dst_offset, &slices);
        dst_fd.len = dst_offset + written;
        dst_fd.generation += 1;
        self.metric_write(written);
        torn_result(dst, torn.map(|_| written), requested)
    }

    /// Truncates the file, or extends it with a hole, to exactly `len`
    /// bytes.
    ///
    /// # Errors
    ///
    /// A typed [`StorageError`] on a dead file or an injected fault.
    pub fn set_len(&self, id: FileId, len: u64) -> Result<(), StorageError> {
        let injector = self.injector();
        let mut inner = self.inner.write();
        let fd = inner.files.get_mut(&id).ok_or(StorageError::DeadFile {
            op: "set_len on",
            id,
        })?;
        if let Some(inj) = &injector {
            if let Some(ReadFault::Error(e)) = inj.on_meta("set_len", id, &fd.name) {
                return Err(e);
            }
        }
        fd.generation += 1;
        fd.resize(len);
        Ok(())
    }

    /// The file's content generation: bumped on every mutation
    /// ([`write_at`](Self::write_at), [`set_len`](Self::set_len),
    /// [`gather_into`](Self::gather_into) and re-[`create`](Self::create)
    /// truncation). `None` if the file was
    /// deleted — or covered by an injected blackout, so cache layers treat
    /// a blacked-out shard's files exactly like unregistered ones. Cache
    /// layers compare generations at lookup so rewritten contents can
    /// never be served stale.
    pub fn generation(&self, id: FileId) -> Option<u64> {
        let injector = self.injector();
        let inner = self.inner.read();
        let fd = inner.files.get(&id)?;
        if let Some(inj) = &injector {
            if inj.blacked_out(id, &fd.name) {
                return None;
            }
        }
        Some(fd.generation)
    }

    /// Deletes a file. Returns true if it existed.
    pub fn delete(&self, id: FileId) -> bool {
        let mut inner = self.inner.write();
        if let Some(fd) = inner.files.remove(&id) {
            inner.by_name.remove(&fd.name);
            true
        } else {
            false
        }
    }

    /// The file's stored ranges as ascending `(offset, length)` pairs:
    /// everything else below its length is a hole (the store's `FIEMAP`).
    /// Empty for a dead file.
    pub fn extents(&self, id: FileId) -> Vec<(u64, u64)> {
        let inner = self.inner.read();
        inner.files.get(&id).map_or_else(Vec::new, |fd| {
            fd.extents
                .iter()
                .map(|(&k, &(_, n))| (k, n as u64))
                .collect()
        })
    }

    /// All file names, sorted (for reports/debugging).
    pub fn list(&self) -> Vec<String> {
        let inner = self.inner.read();
        let mut names: Vec<String> = inner.by_name.keys().cloned().collect();
        names.sort();
        names
    }

    /// Total bytes stored across all files: written bytes only, holes
    /// excluded.
    pub fn total_bytes(&self) -> u64 {
        let inner = self.inner.read();
        inner.files.values().map(|f| f.stored() as u64).sum()
    }

    /// Write operations ([`write_at`](Self::write_at) +
    /// [`gather_into`](Self::gather_into)) issued so far, across all
    /// handles to this store — a failed write counts too. Batching tests
    /// assert on deltas of this.
    pub fn write_calls(&self) -> u64 {
        self.counters.writes.load(Ordering::Relaxed)
    }

    /// Read operations ([`read`](Self::read) +
    /// [`checked_read_at`](Self::checked_read_at), one per
    /// `read_ranges_into` job) issued so far, across all handles to this
    /// store. A failed read is not counted.
    pub fn read_calls(&self) -> u64 {
        self.counters.reads.load(Ordering::Relaxed)
    }
}

/// A write's result: [`StorageError::ShortWrite`] if it was torn after
/// `written` of its `requested` bytes.
fn torn_result(id: FileId, torn: Option<u64>, requested: u64) -> Result<(), StorageError> {
    match torn {
        Some(written) => Err(StorageError::ShortWrite {
            id,
            written,
            requested,
        }),
        None => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Owned copy of `[offset, offset + len)` of a live file.
    fn bytes(fs: &FileStore, id: FileId, offset: u64, len: u64) -> Vec<u8> {
        fs.read(id, offset, len, <[u8]>::to_vec).unwrap()
    }

    #[test]
    fn metrics_attach_counts_bytes_and_faults() {
        let fs = FileStore::new();
        let id = fs.create("m/file");
        fs.write_at(id, 0, b"before").unwrap(); // unattached: not counted
        let m = MetricsRegistry::new();
        fs.set_metrics(Some(m.clone()));
        fs.write_at(id, 0, b"0123456789").unwrap();
        let _ = fs.checked_read_at(id, 0, 4);
        fs.read(id, 1, 3, |_| ()).unwrap();
        assert_eq!(m.counter("storage_write_bytes_total"), 10);
        assert_eq!(m.counter("storage_read_bytes_total"), 7);
        assert_eq!(m.counter("storage_faults_injected_total"), 0);
        // Detach: counters freeze.
        fs.set_metrics(None);
        assert!(fs.metrics().is_none());
        fs.write_at(id, 0, b"xxxx").unwrap();
        assert_eq!(m.counter("storage_write_bytes_total"), 10);
    }

    #[test]
    fn create_open_round_trip() {
        let fs = FileStore::new();
        let id = fs.create("a/b");
        assert_eq!(fs.open("a/b"), Some(id));
        assert_eq!(fs.open("missing"), None);
        assert!(fs.exists("a/b"));
        assert_eq!(fs.name(id), "a/b");
        assert!(fs.is_empty(id));
    }

    /// The file's arena, as `(stored bytes, arena length, arena capacity,
    /// extent count)`.
    fn arena(fs: &FileStore, id: FileId) -> (usize, usize, usize, usize) {
        let inner = fs.inner.read();
        let fd = &inner.files[&id];
        (fd.stored(), fd.arena.len(), fd.arena.capacity(), fd.extents.len())
    }

    #[test]
    fn create_truncates_existing() {
        let fs = FileStore::new();
        let id = fs.create("f");
        fs.write_at(id, 0, &[7; 1 << 16]).unwrap();
        let capacity = arena(&fs, id).2;
        let id2 = fs.create("f");
        assert_eq!(id, id2, "same name keeps same id");
        assert_eq!(fs.len(id), 0, "recreate truncates");
        assert_eq!(fs.total_bytes(), 0);
        // A redeploy rewrites a snapshot of about the same size: keeping
        // the arena spares it from page-faulting fresh memory.
        assert_eq!(arena(&fs, id), (0, 0, capacity, 0), "recreate keeps the arena's capacity");
    }

    #[test]
    fn swap_arena_hands_the_allocation_over_both_ways() {
        let fs = FileStore::new();
        let id = fs.create("f");
        fs.write_at(id, 0, &[7; 1 << 16]).unwrap();
        let (g, stored) = (fs.generation(id).unwrap(), arena(&fs, id));
        // Taking the arena empties the file, as re-create does, and hands
        // back the allocation itself, emptied.
        let taken = fs.swap_arena(id, Vec::new());
        assert_eq!((taken.len(), taken.capacity()), (0, stored.2));
        assert_eq!(
            (fs.len(id), fs.total_bytes(), arena(&fs, id)),
            (0, 0, (0, 0, 0, 0))
        );
        assert!(fs.generation(id).unwrap() > g);
        // Handing one in stores nothing until its bytes are claimed.
        let ptr = taken.as_ptr();
        let back = fs.swap_arena(id, taken);
        assert_eq!(back.capacity(), 0);
        assert_eq!(
            (fs.total_bytes(), fs.inner.read().files[&id].arena.as_ptr()),
            (0, ptr)
        );
        // A dead file keeps nothing: the arena comes straight back.
        fs.delete(id);
        assert_eq!(fs.swap_arena(id, vec![1, 2, 3]), vec![1, 2, 3]);
    }

    #[test]
    fn adopt_at_claims_arena_bytes_like_a_write() {
        let m = MetricsRegistry::new();
        let (copied, adopted) = (FileStore::new(), FileStore::new());
        adopted.set_metrics(Some(m.clone()));
        let (c, a) = (copied.create("f"), adopted.create("f"));
        // The arena holds two runs, the second one stored ahead of the
        // first, plus bytes no claim takes.
        let slab: Vec<u8> = (0..40u8).collect();
        adopted.swap_arena(a, slab.clone());
        for (offset, bytes) in [(100u64, 20..30), (130, 0..10), (140, 10..15)] {
            copied.write_at(c, offset, &slab[bytes.clone()]).unwrap();
            adopted.adopt_at(a, offset, bytes).unwrap();
        }
        copied.set_len(c, 200).unwrap();
        adopted.set_len(a, 200).unwrap();
        assert_eq!(bytes(&adopted, a, 0, 200), bytes(&copied, c, 0, 200));
        // Same write count, metered bytes and extents: a claim ending where
        // the previous extent ends in the arena grows it.
        assert_eq!(adopted.write_calls(), copied.write_calls());
        assert_eq!(m.counter("storage_write_bytes_total"), 25);
        assert_eq!(adopted.extents(a), vec![(100, 10), (130, 15)]);
        assert_eq!(adopted.extents(a), copied.extents(c));
        assert_eq!(adopted.total_bytes(), 25);
        // Nothing was copied: the arena is the one handed in.
        assert_eq!(arena(&adopted, a).1, 40);
        assert_eq!(adopted.extents(FileId(99)), vec![]);
    }

    #[test]
    fn torn_adopt_claims_a_prefix_and_retry_claims_the_rest() {
        use crate::fault::{FaultKind, FaultPlan, FaultRule, FaultScope};
        let fs = FileStore::new();
        let id = fs.create("f");
        fs.swap_arena(id, (0..64u8).collect());
        fs.adopt_at(id, 0, 0..16).unwrap();
        // A torn claim that continues the extent before it grows it by
        // the prefix; one at a gap starts its own.
        for (offset, range) in [(16, 16..32), (48, 32..40)] {
            fs.attach_injector(Arc::new(FaultInjector::new(FaultPlan::new().rule(
                FaultRule::new(FaultScope::Files(vec![id]), FaultKind::ShortWrite).count(1),
            ))));
            let g = fs.generation(id).unwrap();
            let err = fs.adopt_at(id, offset, range.clone()).unwrap_err();
            assert!(
                matches!(err, StorageError::ShortWrite { written, requested, .. } if 2 * written == requested)
            );
            assert!(fs.generation(id).unwrap() > g);
            fs.adopt_at(id, offset, range).unwrap();
        }
        assert_eq!(fs.extents(id), vec![(0, 32), (48, 8)]);
        let want: Vec<u8> = (0..32).chain([0; 16]).chain(32..40).collect();
        assert_eq!(bytes(&fs, id, 0, 56), want);
        assert_eq!(fs.write_calls(), 5);
        // A blackout or a dead file fails the claim as it fails a write.
        fs.delete(id);
        assert_eq!(
            fs.adopt_at(id, 0, 0..1).unwrap_err().to_string(),
            format!("write to dead {id}")
        );
    }

    #[test]
    fn write_read_with_extension() {
        let fs = FileStore::new();
        let id = fs.create("f");
        fs.write_at(id, 10, b"xyz").unwrap();
        assert_eq!(fs.len(id), 13);
        assert_eq!(bytes(&fs, id, 0, 10), vec![0; 10]);
        assert_eq!(bytes(&fs, id, 10, 3), b"xyz");
    }

    #[test]
    fn read_past_eof_is_zeros() {
        let fs = FileStore::new();
        let id = fs.create("f");
        fs.write_at(id, 0, b"ab").unwrap();
        assert_eq!(bytes(&fs, id, 0, 4), vec![b'a', b'b', 0, 0]);
        assert_eq!(bytes(&fs, id, 100, 2), vec![0, 0]);
        let mut buf = [0xFFu8; 4];
        fs.read_ranges_into(id, vec![(1, &mut buf[..])], 1);
        assert_eq!(buf, [b'b', 0, 0, 0]);
    }

    #[test]
    fn reads_at_absurd_offsets_return_zeros() {
        let fs = FileStore::new();
        let id = fs.create("f");
        fs.write_at(id, 0, b"abcde").unwrap();
        for offset in [u64::MAX, u64::MAX - 3, usize::MAX as u64 - 1] {
            assert_eq!(bytes(&fs, id, offset, 4), vec![0; 4]);
            assert_eq!(fs.checked_read_at(id, offset, 4), Ok(vec![0; 4]));
            fs.with_range(id, offset, 4, |src| assert_eq!(src, [0; 4]));
            let mut buf = [0xFFu8; 4];
            fs.read_ranges_into(id, vec![(offset, &mut buf[..])], 1);
            assert_eq!(buf, [0; 4]);
        }
    }

    #[test]
    fn set_len_truncates_and_extends() {
        let fs = FileStore::new();
        let id = fs.create("f");
        fs.write_at(id, 0, b"abcdef").unwrap();
        fs.set_len(id, 3).unwrap();
        assert_eq!(bytes(&fs, id, 0, 3), b"abc");
        fs.set_len(id, 5).unwrap();
        assert_eq!(bytes(&fs, id, 0, 5), vec![b'a', b'b', b'c', 0, 0]);
        // Extending stores nothing: the new tail is a hole.
        fs.set_len(id, 1 << 20).unwrap();
        assert_eq!((fs.len(id), fs.total_bytes()), (1 << 20, 3));
        // A cut through the middle of a written range keeps its head; a
        // cut at the arena's end gives the bytes back.
        fs.write_at(id, 100, b"ABCDEFGHIJ").unwrap();
        fs.set_len(id, 104).unwrap();
        assert_eq!(bytes(&fs, id, 98, 8), b"\0\0ABCD\0\0");
        let (stored, arena_len, ..) = arena(&fs, id);
        assert_eq!((stored, arena_len), (7, 7));
    }

    #[test]
    fn delete_and_list() {
        let fs = FileStore::new();
        let a = fs.create("a");
        let _b = fs.create("b");
        assert_eq!(fs.list(), vec!["a".to_string(), "b".to_string()]);
        assert!(fs.delete(a));
        assert!(!fs.delete(a));
        assert_eq!(fs.list(), vec!["b".to_string()]);
        assert!(!fs.exists("a"));
    }

    #[test]
    fn shared_handles_see_writes() {
        let fs = FileStore::new();
        let fs2 = fs.clone();
        let id = fs.create("shared");
        fs2.write_at(id, 0, b"via clone").unwrap();
        assert_eq!(bytes(&fs, id, 0, 9), b"via clone");
        assert_eq!(fs.total_bytes(), 9);
    }

    #[test]
    fn read_borrows_and_zero_fills() {
        let fs = FileStore::new();
        let id = fs.create("f");
        fs.write_at(id, 0, b"hello world").unwrap();
        let reads = fs.read_calls();
        assert_eq!(bytes(&fs, id, 6, 5), b"world");
        // A range past EOF is zero-filled to exactly `len` bytes.
        assert_eq!(bytes(&fs, id, 6, 8), b"world\0\0\0");
        assert_eq!(bytes(&fs, id, 100, 5), [0; 5]);
        assert_eq!(fs.read(id, 3, 0, <[u8]>::len), Ok(0));
        assert_eq!(fs.read_calls(), reads + 4, "one read counted per call");
    }

    #[test]
    fn gather_into_assembles_ranges() {
        let fs = FileStore::new();
        let a = fs.create("a");
        let b = fs.create("b");
        let dst = fs.create("dst");
        fs.write_at(a, 0, b"0123456789").unwrap();
        fs.write_at(b, 0, b"abcdef").unwrap();
        fs.write_at(dst, 0, b"HDR:").unwrap();
        let writes_before = fs.write_calls();
        fs.gather_into(dst, 4, &[(a, 2, 3), (b, 0, 2), (a, 0, 1)]).unwrap();
        assert_eq!(fs.write_calls() - writes_before, 1, "one store op");
        assert_eq!(bytes(&fs, dst, 0, 10), b"HDR:234ab0");
        assert_eq!(fs.len(dst), 10);
        // Gather replaces everything from the offset on.
        fs.gather_into(dst, 4, &[(b, 5, 1)]).unwrap();
        assert_eq!(bytes(&fs, dst, 0, 5), b"HDR:f");
        assert_eq!(fs.len(dst), 5);
    }

    #[test]
    fn gather_past_source_eof_reads_zeros() {
        let fs = FileStore::new();
        let a = fs.create("a");
        let dst = fs.create("dst");
        fs.write_at(a, 0, b"xy").unwrap();
        fs.gather_into(dst, 0, &[(a, 0, 4), (a, 10, 2)]).unwrap();
        assert_eq!(bytes(&fs, dst, 0, 6), b"xy\0\0\0\0");
        // A source hole is gathered as zeros too, and the destination
        // after its header stays one written range, readable in place.
        fs.write_at(a, 6, b"z").unwrap();
        fs.write_at(dst, 0, b"HDR").unwrap();
        fs.gather_into(dst, 3, &[(a, 0, 8), (a, 6, 3)]).unwrap();
        assert_eq!(bytes(&fs, dst, 0, 14), b"HDRxy\0\0\0\0z\0z\0\0");
        assert_eq!(arena(&fs, dst).3, 1, "one extent");
    }

    #[test]
    fn write_at_extending_and_gapped() {
        let fs = FileStore::new();
        let id = fs.create("f");
        fs.write_at(id, 0, b"abcdef").unwrap();
        // Overwrite tail + extend in one call.
        fs.write_at(id, 4, b"XYZW").unwrap();
        assert_eq!(bytes(&fs, id, 0, 8), b"abcdXYZW");
        // Write past EOF leaves the gap a hole that reads as zeros.
        fs.write_at(id, 10, b"!!").unwrap();
        assert_eq!(bytes(&fs, id, 0, 12), b"abcdXYZW\0\0!!");
        assert_eq!(fs.total_bytes(), 10, "the gap stores nothing");
        // A write across the hole joins both sides.
        fs.write_at(id, 7, b"1234").unwrap();
        assert_eq!(bytes(&fs, id, 0, 12), b"abcdXYZ1234!");
        assert_eq!(fs.total_bytes(), 12);
    }

    #[test]
    fn write_far_past_eof_stores_only_its_bytes() {
        let fs = FileStore::new();
        let id = fs.create("f");
        fs.write_at(id, 1 << 40, b"xy").unwrap();
        assert_eq!(fs.len(id), (1 << 40) + 2);
        assert_eq!(fs.total_bytes(), 2);
        assert_eq!(bytes(&fs, id, 0, 4), [0; 4]);
        assert_eq!(bytes(&fs, id, (1 << 40) - 1, 4), b"\0xy\0");
    }

    #[test]
    fn overwrites_keep_the_arena_bounded() {
        let fs = FileStore::new();
        let id = fs.create("f");
        let mut model = vec![0u8; 3 * 4096];
        for (off, fill) in [(0, 1), (8192, 2)] {
            fs.write_at(id, off as u64, &[fill; 4096]).unwrap();
            model[off..off + 4096].fill(fill);
        }
        for i in 0..1000 {
            // Overlapping writes across both extents and the hole between.
            let (off, fill) = (i * 37 % 8192, (i % 251) as u8 + 3);
            fs.write_at(id, off as u64, &[fill; 4096]).unwrap();
            model[off..off + 4096].fill(fill);
            let (stored, arena_len, ..) = arena(&fs, id);
            assert!(arena_len <= 2 * stored + COMPACT_SLACK, "write {i}: {arena_len} arena bytes for {stored}");
        }
        assert_eq!(bytes(&fs, id, 0, model.len() as u64), model);
        assert_eq!(fs.total_bytes(), model.len() as u64);
    }

    #[test]
    fn read_ranges_into_matches_sequential_reads() {
        let fs = FileStore::new();
        let id = fs.create("f");
        let data: Vec<u8> = (0..10_000u32).map(|i| (i * 7) as u8).collect();
        fs.write_at(id, 0, &data).unwrap();
        // Mixed in-bounds / cross-EOF / past-EOF ranges.
        let ranges = [(0u64, 100usize), (4096, 4096), (9_990, 100), (20_000, 8)];
        let mut bufs: Vec<Vec<u8>> = ranges.iter().map(|&(_, l)| vec![0xFF; l]).collect();
        let reads_before = fs.read_calls();
        let jobs: Vec<(u64, &mut [u8])> = ranges
            .iter()
            .zip(bufs.iter_mut())
            .map(|(&(off, _), b)| (off, b.as_mut_slice()))
            .collect();
        fs.read_ranges_into(id, jobs, 1);
        assert_eq!(fs.read_calls() - reads_before, ranges.len() as u64);
        for (&(off, len), buf) in ranges.iter().zip(&bufs) {
            assert_eq!(buf, &bytes(&fs, id, off, len as u64), "range at {off}");
        }
        // Empty batch is a no-op.
        fs.read_ranges_into(id, Vec::new(), 1);
    }

    #[test]
    fn namespaced_stores_never_collide() {
        let a = FileStore::with_namespace(0);
        let b = FileStore::with_namespace(1);
        let c = FileStore::with_namespace(2);
        assert_eq!((FileStore::new().namespace(), c.namespace()), (0, 2));
        // Namespace 0 allocates exactly like a plain store.
        assert_eq!(a.create("x"), FileStore::new().create("x"));
        // Same names, different stores: ids must differ pairwise.
        let ids: Vec<FileId> = [&a, &b, &c]
            .iter()
            .flat_map(|fs| (0..10).map(|i| fs.create(&format!("shadow/{i}"))))
            .collect();
        let unique: std::collections::HashSet<FileId> = ids.iter().copied().collect();
        assert_eq!(unique.len(), ids.len());
    }

    #[test]
    #[should_panic(expected = "exceeds the id space")]
    fn oversized_namespace_rejected() {
        let _ = FileStore::with_namespace(1 << 24);
    }

    #[test]
    fn generation_bumps_on_every_mutation() {
        let fs = FileStore::new();
        let id = fs.create("f");
        let g0 = fs.generation(id).unwrap();
        fs.write_at(id, 0, b"abc").unwrap();
        let g1 = fs.generation(id).unwrap();
        assert!(g1 > g0);
        fs.write_at(id, fs.len(id), b"d").unwrap();
        let g2 = fs.generation(id).unwrap();
        assert!(g2 > g1);
        fs.set_len(id, 2).unwrap();
        let g3 = fs.generation(id).unwrap();
        assert!(g3 > g2);
        let src = fs.create("src");
        fs.write_at(src, 0, b"xy").unwrap();
        fs.gather_into(id, 0, &[(src, 0, 2)]).unwrap();
        let g4 = fs.generation(id).unwrap();
        assert!(g4 > g3);
        // Re-creating (truncating) the same name bumps too.
        let same = fs.create("f");
        assert_eq!(same, id);
        assert!(fs.generation(id).unwrap() > g4);
        // Reads never bump.
        let _ = fs.checked_read_at(id, 0, 2);
        let g5 = fs.generation(id).unwrap();
        fs.read(id, 0, 2, |_| ()).unwrap();
        assert_eq!(fs.generation(id), Some(g5));
        fs.delete(id);
        assert_eq!(fs.generation(id), None);
    }

    /// Every fallible operation on `id`, with `live` as its other file
    /// (gather's source, or its destination when `id` is the source).
    fn every_operation(fs: &FileStore, id: FileId, live: FileId) -> Vec<(&'static str, StorageError)> {
        let err = |name, r: Result<(), StorageError>| (name, r.unwrap_err());
        vec![
            err("read", fs.read(id, 0, 1, |_| ())),
            err("checked_read_at", fs.checked_read_at(id, 0, 1).map(drop)),
            err("checked_len", fs.checked_len(id).map(drop)),
            err("write_at", fs.write_at(id, 0, b"x")),
            err("set_len", fs.set_len(id, 4)),
            err("gather_into (dst)", fs.gather_into(id, 0, &[(live, 0, 1)])),
            err("gather_into (src)", fs.gather_into(live, 0, &[(id, 0, 1)])),
        ]
    }

    #[test]
    fn try_variants_report_dead_files_with_legacy_messages() {
        // Each operation names its verb, reproducing the historical panic
        // messages byte-for-byte.
        let fs = FileStore::new();
        let id = fs.create("f");
        let live = fs.create("live");
        fs.write_at(live, 0, b"keep").unwrap();
        fs.delete(id);
        let g = fs.generation(live);
        let verbs = [
            "read from",
            "read from",
            "stat of",
            "write to",
            "set_len on",
            "gather into",
            "gather from",
        ];
        for ((name, err), verb) in every_operation(&fs, id, live).into_iter().zip(verbs) {
            assert_eq!(err.to_string(), format!("{verb} dead {id}"), "{name}");
        }
        // A dead *source* left the destination untouched.
        assert_eq!(bytes(&fs, live, 0, 4), b"keep");
        assert_eq!(fs.generation(live), g);
    }

    #[test]
    fn blackout_presents_files_as_gone() {
        use crate::fault::{FaultKind, FaultPlan, FaultRule, FaultScope};
        // Every operation is `Unavailable` (a namespace blackout covers
        // gather's other file too) and the generation is hidden, so cache
        // layers treat the file as gone.
        let fs = FileStore::with_namespace(3);
        let id = fs.create("snapshots/pyaes/ws_pages");
        let live = fs.create("snapshots/pyaes/trace");
        fs.write_at(id, 0, b"ws").unwrap();
        fs.attach_injector(Arc::new(FaultInjector::new(FaultPlan::new().rule(
            FaultRule::new(FaultScope::Namespace(3), FaultKind::Blackout),
        ))));
        for (name, err) in every_operation(&fs, id, live) {
            assert!(matches!(err, StorageError::Unavailable { .. }), "{name}: {err}");
        }
        assert_eq!(fs.generation(id), None, "blackout hides the generation");
        fs.detach_injector();
        assert_eq!(bytes(&fs, id, 0, 2), b"ws");
        assert!(fs.generation(id).is_some());
    }

    #[test]
    fn injected_transient_fault_heals_on_retry() {
        use crate::fault::{FaultInjector, FaultKind, FaultPlan, FaultRule, FaultScope};
        let fs = FileStore::new();
        let id = fs.create("f");
        fs.write_at(id, 0, b"hello").unwrap();
        fs.attach_injector(Arc::new(FaultInjector::new(FaultPlan::new().rule(
            FaultRule::new(FaultScope::Files(vec![id]), FaultKind::TransientError).count(1),
        ))));
        let err = fs.checked_read_at(id, 0, 5).unwrap_err();
        assert_eq!(err.class(), crate::fault::FaultClass::Transient);
        assert_eq!(fs.checked_read_at(id, 0, 5).unwrap(), b"hello");
        fs.detach_injector();
        assert!(fs.injector().is_none());
    }

    #[test]
    fn injected_corruption_leaves_store_pristine() {
        use crate::fault::{FaultInjector, FaultKind, FaultPlan, FaultRule, FaultScope};
        let fs = FileStore::new();
        let id = fs.create("f");
        fs.write_at(id, 0, b"payload!").unwrap();
        fs.attach_injector(Arc::new(FaultInjector::new(FaultPlan::new().rule(
            FaultRule::new(FaultScope::Files(vec![id]), FaultKind::CorruptRead).count(1),
        ))));
        let bad = fs.checked_read_at(id, 0, 8).unwrap();
        assert_ne!(bad, b"payload!", "first read is corrupted on the wire");
        let good = fs.checked_read_at(id, 0, 8).unwrap();
        assert_eq!(good, b"payload!", "stored bytes were never touched");
    }

    #[test]
    fn torn_write_applies_prefix_and_retry_repairs() {
        use crate::fault::{FaultInjector, FaultKind, FaultPlan, FaultRule, FaultScope};
        let fs = FileStore::new();
        let id = fs.create("f");
        fs.attach_injector(Arc::new(FaultInjector::new(FaultPlan::new().rule(
            FaultRule::new(FaultScope::Files(vec![id]), FaultKind::ShortWrite).count(1),
        ))));
        let err = fs.write_at(id, 0, b"abcdefgh").unwrap_err();
        match err {
            StorageError::ShortWrite {
                written, requested, ..
            } => {
                assert_eq!((written, requested), (4, 8));
                assert_eq!(fs.len(id), 4, "torn prefix landed");
            }
            other => panic!("expected torn write, got {other}"),
        }
        fs.write_at(id, 0, b"abcdefgh").unwrap();
        assert_eq!(bytes(&fs, id, 0, 8), b"abcdefgh");
        assert_eq!(arena(&fs, id).1, 8, "the retry reclaims the torn prefix's bytes");
    }

    #[test]
    fn op_counters_track_all_handles() {
        let fs = FileStore::new();
        let fs2 = fs.clone();
        let id = fs.create("f");
        assert_eq!((fs.write_calls(), fs.read_calls()), (0, 0));
        fs.write_at(id, 0, b"abc").unwrap();
        fs2.write_at(id, 3, b"d").unwrap();
        assert_eq!(fs.write_calls(), 2, "clone's ops are counted too");
        let _ = fs.checked_read_at(id, 0, 4);
        fs2.read(id, 0, 2, |_| ()).unwrap();
        assert_eq!(fs.read_calls(), 2);
    }
}
