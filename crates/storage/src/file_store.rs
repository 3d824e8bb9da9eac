//! In-memory file store holding real bytes.
//!
//! Snapshots, working-set files, and trace files are real byte vectors so
//! the functional layer can verify that REAP installs exactly the contents
//! the snapshot captured. Timing is *not* modelled here — that is
//! [`crate::disk::Disk`]'s job; the store is the "platter".

use std::collections::HashMap;
use std::fmt;
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

#[derive(Debug, Default)]
struct FileData {
    name: String,
    data: Vec<u8>,
    /// Bumped on every content mutation (write, append, truncate,
    /// gather). The snapshot frame cache validates this at lookup, so a
    /// rewritten file can never be served from stale cached bytes.
    generation: u64,
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

/// Owned copy of `[offset, offset + len)` of a file's bytes: the part
/// inside the file is copied and everything past EOF reads as zeros
/// (sparse-file semantics). The arithmetic saturates, so no offset or
/// length can index out of range.
fn read_zero_padded(data: &[u8], offset: u64, len: usize) -> Vec<u8> {
    let offset = usize::try_from(offset).unwrap_or(usize::MAX);
    let start = offset.min(data.len());
    let end = offset.saturating_add(len).min(data.len());
    let mut out = Vec::new();
    sim_core::extend_par(&mut out, &data[start..end]);
    out.resize(len, 0);
    out
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
/// fs.write_at(f, 0, b"hello");
/// assert_eq!(fs.read_at(f, 0, 5), b"hello");
/// assert_eq!(fs.len(f), 5);
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
}

impl FileStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        FileStore::default()
    }

    /// Attaches a fault injector: from now on the `try_*`/`checked_*`
    /// entry points (and the dead-file-aware readers, for blackouts)
    /// consult it. Replaces any previous injector; all handles to this
    /// store (clones) see it.
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
        let store = FileStore::default();
        store.inner.write().next_id = (namespace as u64) << NAMESPACE_SHIFT;
        store
    }

    /// Creates (or truncates) a file with the given name and returns its id.
    pub fn create(&self, name: &str) -> FileId {
        let mut inner = self.inner.write();
        if let Some(&id) = inner.by_name.get(name) {
            let fd = inner
                .files
                .get_mut(&id)
                .expect("name index points at live file");
            fd.data.clear();
            fd.generation += 1;
            return id;
        }
        let id = FileId(inner.next_id);
        inner.next_id += 1;
        inner.files.insert(
            id,
            FileData {
                name: name.to_string(),
                data: Vec::new(),
                generation: 0,
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
        self.inner.read().files[&id].data.len() as u64
    }

    /// True if the file is empty.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not refer to a live file.
    pub fn is_empty(&self, id: FileId) -> bool {
        self.len(id) == 0
    }

    /// Writes `bytes` at `offset`, zero-extending the file if needed.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not refer to a live file.
    pub fn write_at(&self, id: FileId, offset: u64, bytes: &[u8]) {
        self.try_write_at(id, offset, bytes)
            .unwrap_or_else(|e| panic!("{e}"));
    }

    /// Fallible twin of [`write_at`](Self::write_at): returns a typed
    /// [`StorageError`] on a dead file or an injected fault instead of
    /// panicking. An injected torn write applies a prefix of `bytes`
    /// (and bumps the generation) before failing; retrying the identical
    /// call repairs the file.
    pub fn try_write_at(&self, id: FileId, offset: u64, bytes: &[u8]) -> Result<(), StorageError> {
        self.counters.writes.fetch_add(1, Ordering::Relaxed);
        let injector = self.injector();
        let mut inner = self.inner.write();
        let fd = inner
            .files
            .get_mut(&id)
            .ok_or(StorageError::DeadFile { op: "write to", id })?;
        let mut torn: Option<u64> = None;
        if let Some(inj) = &injector {
            torn = match inj.on_write("write_at", id, &fd.name, bytes.len() as u64) {
                Ok(t) => t,
                Err(e) => {
                    self.metric_fault();
                    return Err(e);
                }
            };
            if torn.is_some() {
                self.metric_fault();
            }
        }
        let requested = bytes.len() as u64;
        let applied = torn.map_or(bytes.len(), |n| n as usize);
        self.metric_write(applied as u64);
        fd.generation += 1;
        let data = &mut fd.data;
        let bytes = &bytes[..applied];
        let offset = offset as usize;
        let end = offset + bytes.len();
        if end <= data.len() {
            // In-place overwrite.
            sim_core::copy_par(&mut data[offset..end], bytes);
        } else if offset <= data.len() {
            // Extending write: overwrite the tail in place, append the
            // rest without the intermediate zero-fill `resize` would pay.
            let keep = data.len() - offset;
            sim_core::copy_par(&mut data[offset..], &bytes[..keep]);
            sim_core::extend_par(data, &bytes[keep..]);
        } else {
            // Write past EOF: the gap really is zeros.
            data.resize(offset, 0);
            sim_core::extend_par(data, bytes);
        }
        match torn {
            Some(written) => Err(StorageError::ShortWrite {
                id,
                written,
                requested,
            }),
            None => Ok(()),
        }
    }

    /// Appends `bytes` and returns the offset they were written at.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not refer to a live file.
    pub fn append(&self, id: FileId, bytes: &[u8]) -> u64 {
        self.try_append(id, bytes).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible twin of [`append`](Self::append). Under an injected torn
    /// write a *prefix* of `bytes` is appended before the error — callers
    /// that retry must rewrite at a known offset
    /// ([`try_write_at`](Self::try_write_at)) rather than blindly
    /// re-append.
    pub fn try_append(&self, id: FileId, bytes: &[u8]) -> Result<u64, StorageError> {
        self.counters.writes.fetch_add(1, Ordering::Relaxed);
        let injector = self.injector();
        let mut inner = self.inner.write();
        let fd = inner
            .files
            .get_mut(&id)
            .ok_or(StorageError::DeadFile { op: "append to", id })?;
        let mut torn: Option<u64> = None;
        if let Some(inj) = &injector {
            torn = match inj.on_write("append", id, &fd.name, bytes.len() as u64) {
                Ok(t) => t,
                Err(e) => {
                    self.metric_fault();
                    return Err(e);
                }
            };
            if torn.is_some() {
                self.metric_fault();
            }
        }
        let applied = torn.map_or(bytes.len(), |n| n as usize);
        self.metric_write(applied as u64);
        fd.generation += 1;
        let offset = fd.data.len() as u64;
        fd.data.extend_from_slice(&bytes[..applied]);
        match torn {
            Some(written) => Err(StorageError::ShortWrite {
                id,
                written,
                requested: bytes.len() as u64,
            }),
            None => Ok(offset),
        }
    }

    /// Reads `len` bytes at `offset`. Reads past EOF return zeros, matching
    /// the sparse-file semantics snapshot memory files rely on.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not refer to a live file.
    pub fn read_at(&self, id: FileId, offset: u64, len: usize) -> Vec<u8> {
        self.counters.reads.fetch_add(1, Ordering::Relaxed);
        self.metric_read(len as u64);
        let inner = self.inner.read();
        read_zero_padded(&inner.files[&id].data, offset, len)
    }

    /// Non-panicking twin of [`read_at`](Self::read_at): returns `None`
    /// when `id` is dead (deleted) instead of panicking — the plain-read
    /// fallback for callers racing an unregister (the frame cache's
    /// dead-file path). A file covered by an injected blackout also reads
    /// as `None`: a blacked-out shard's files present exactly like
    /// unregistered ones.
    pub fn try_read_at(&self, id: FileId, offset: u64, len: usize) -> Option<Vec<u8>> {
        self.try_with_range(id, offset, len as u64, |src| read_zero_padded(src, 0, len))
            .ok()
    }

    /// Borrowing twin of [`try_read_at`](Self::try_read_at), with its
    /// checks: a dead file is [`StorageError::DeadFile`], a blacked-out
    /// one [`StorageError::Unavailable`], and one read is counted. `f`
    /// sees exactly `len` bytes under the store's read lock — borrowed in
    /// place, or a zero-padded copy where the range runs past EOF — and
    /// must not call mutating store methods (deadlock).
    pub fn try_with_range<R>(
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
        let in_file = offset
            .checked_add(len)
            .filter(|&end| end <= fd.data.len() as u64);
        Ok(match in_file {
            Some(end) => f(&fd.data[offset as usize..end as usize]),
            None => f(&read_zero_padded(&fd.data, offset, len as usize)),
        })
    }

    /// Fault-aware read: like [`read_at`](Self::read_at) but returns a
    /// typed [`StorageError`] for dead files and injected faults, and
    /// applies injected payload corruption to the returned bytes (the
    /// stored bytes stay pristine — a verify-and-reread heals). Recovery
    /// paths (snapshot restore, REAP artifact loads) read through this.
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
        let mut out = read_zero_padded(&fd.data, offset, len);
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
        Ok(fd.data.len() as u64)
    }

    /// Borrows `[offset, offset + len)` of the file's bytes zero-copy,
    /// clamped to EOF, and passes the slice to `f` under the store's read
    /// lock. `f` must not call mutating store methods (deadlock).
    ///
    /// # Panics
    ///
    /// Panics if `id` does not refer to a live file.
    pub fn with_range<R>(&self, id: FileId, offset: u64, len: u64, f: impl FnOnce(&[u8]) -> R) -> R {
        self.counters.reads.fetch_add(1, Ordering::Relaxed);
        self.metric_read(len);
        let inner = self.inner.read();
        let data = &inner.files[&id].data;
        let start = (offset as usize).min(data.len());
        let end = (offset as usize).saturating_add(len as usize).min(data.len());
        f(&data[start..end])
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
        let data = &inner.files[&id].data;
        for (offset, buf) in jobs {
            let start = (offset as usize).min(data.len());
            let end = (offset as usize)
                .saturating_add(buf.len())
                .min(data.len());
            let covered = end - start;
            buf[..covered].copy_from_slice(&data[start..end]);
            buf[covered..].fill(0);
        }
    }

    /// Scatter-gather write: assembles `parts` (ranges of other files)
    /// contiguously into `dst` starting at `dst_offset`, in one store
    /// operation with a single destination copy — the `writev` of the WS
    /// file builder. The destination is truncated at `dst_offset` first.
    /// Source ranges past EOF read as zeros (sparse-file semantics, as
    /// [`read_at`](Self::read_at)).
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
    pub fn try_gather_into(
        &self,
        dst: FileId,
        dst_offset: u64,
        parts: &[(FileId, u64, u64)],
    ) -> Result<(), StorageError> {
        self.counters.writes.fetch_add(1, Ordering::Relaxed);
        let injector = self.injector();
        let mut inner = self.inner.write();
        // Take the destination out so sources can be borrowed freely.
        let dst_fd = inner.files.get_mut(&dst).ok_or(StorageError::DeadFile {
            op: "gather into",
            id: dst,
        })?;
        let mut torn: Option<u64> = None;
        if let Some(inj) = &injector {
            let total: u64 = parts.iter().map(|&(_, _, len)| len).sum();
            torn = match inj.on_write("gather_into", dst, &dst_fd.name, total) {
                Ok(t) => t,
                Err(e) => {
                    self.metric_fault();
                    return Err(e);
                }
            };
            if torn.is_some() {
                self.metric_fault();
            }
        }
        let mut dst_data = std::mem::take(&mut dst_fd.data);
        assert!(
            dst_offset as usize <= dst_data.len(),
            "gather at {dst_offset} past EOF of {dst}"
        );
        // Validate sources (and size the shared zeros buffer) before any
        // destination mutation, so a dead source leaves `dst` intact.
        let mut max_shortfall = 0usize;
        let mut dead_src: Option<FileId> = None;
        for &(src, offset, len) in parts {
            match inner.files.get(&src) {
                Some(fd) => {
                    let file_len = fd.data.len() as u64;
                    max_shortfall = max_shortfall
                        .max(len.saturating_sub(file_len.saturating_sub(offset)) as usize);
                }
                None => {
                    dead_src = Some(src);
                    break;
                }
            }
        }
        if let Some(src) = dead_src {
            inner
                .files
                .get_mut(&dst)
                .expect("destination checked above")
                .data = dst_data;
            return Err(StorageError::DeadFile {
                op: "gather from",
                id: src,
            });
        }
        dst_data.truncate(dst_offset as usize);
        {
            let inner = &*inner;
            // Past-EOF stretches borrow from one shared zeros buffer.
            let zeros = vec![0u8; max_shortfall];
            let mut slices: Vec<&[u8]> = Vec::with_capacity(parts.len() * 2);
            for &(src, offset, len) in parts {
                assert_ne!(src, dst, "gather source must differ from destination");
                let data = &inner.files[&src].data;
                let start = (offset as usize).min(data.len());
                let end = (offset as usize).saturating_add(len as usize).min(data.len());
                slices.push(&data[start..end]);
                let shortfall = len as usize - (end - start);
                if shortfall > 0 {
                    slices.push(&zeros[..shortfall]);
                }
            }
            sim_core::extend_scatter(&mut dst_data, &slices);
        }
        let mut gathered: Result<(), StorageError> = Ok(());
        if let Some(written) = torn {
            // Torn gather: keep only a prefix of the assembled bytes.
            let requested = (dst_data.len() as u64).saturating_sub(dst_offset);
            dst_data.truncate(dst_offset as usize + written.min(requested) as usize);
            gathered = Err(StorageError::ShortWrite {
                id: dst,
                written: written.min(requested),
                requested,
            });
        }
        self.metric_write((dst_data.len() as u64).saturating_sub(dst_offset));
        let dst_fd = inner
            .files
            .get_mut(&dst)
            .expect("destination checked above");
        dst_fd.generation += 1;
        dst_fd.data = dst_data;
        gathered
    }

    /// Truncates (or zero-extends) the file to exactly `len` bytes.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not refer to a live file.
    pub fn set_len(&self, id: FileId, len: u64) {
        self.try_set_len(id, len).unwrap_or_else(|e| panic!("{e}"));
    }

    /// Fallible twin of [`set_len`](Self::set_len).
    pub fn try_set_len(&self, id: FileId, len: u64) -> Result<(), StorageError> {
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
        fd.data.resize(len as usize, 0);
        Ok(())
    }

    /// The file's content generation: bumped on every mutation
    /// ([`write_at`](Self::write_at), [`append`](Self::append),
    /// [`set_len`](Self::set_len), [`try_gather_into`](Self::try_gather_into) and
    /// re-[`create`](Self::create) truncation). `None` if the file was
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

    /// All file names, sorted (for reports/debugging).
    pub fn list(&self) -> Vec<String> {
        let inner = self.inner.read();
        let mut names: Vec<String> = inner.by_name.keys().cloned().collect();
        names.sort();
        names
    }

    /// Total bytes stored across all files.
    pub fn total_bytes(&self) -> u64 {
        let inner = self.inner.read();
        inner.files.values().map(|f| f.data.len() as u64).sum()
    }

    /// Write operations (`write_at` + `append`) issued so far, across all
    /// handles to this store. Batching tests assert on deltas of this.
    pub fn write_calls(&self) -> u64 {
        self.counters.writes.load(Ordering::Relaxed)
    }

    /// Read operations (`read_at` + `with_range`, one per
    /// `read_ranges_into` job) issued so far, across all handles to this
    /// store.
    pub fn read_calls(&self) -> u64 {
        self.counters.reads.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metrics_attach_counts_bytes_and_faults() {
        let fs = FileStore::new();
        let id = fs.create("m/file");
        fs.write_at(id, 0, b"before"); // unattached: not counted
        let m = MetricsRegistry::new();
        fs.set_metrics(Some(m.clone()));
        fs.write_at(id, 0, b"0123456789");
        let _ = fs.read_at(id, 0, 4);
        fs.with_range(id, 1, 3, |_| ());
        assert_eq!(m.counter("storage_write_bytes_total"), 10);
        assert_eq!(m.counter("storage_read_bytes_total"), 7);
        assert_eq!(m.counter("storage_faults_injected_total"), 0);
        // Detach: counters freeze.
        fs.set_metrics(None);
        assert!(fs.metrics().is_none());
        fs.write_at(id, 0, b"xxxx");
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

    #[test]
    fn create_truncates_existing() {
        let fs = FileStore::new();
        let id = fs.create("f");
        fs.write_at(id, 0, b"data");
        let id2 = fs.create("f");
        assert_eq!(id, id2, "same name keeps same id");
        assert_eq!(fs.len(id), 0, "recreate truncates");
    }

    #[test]
    fn write_read_with_extension() {
        let fs = FileStore::new();
        let id = fs.create("f");
        fs.write_at(id, 10, b"xyz");
        assert_eq!(fs.len(id), 13);
        assert_eq!(fs.read_at(id, 0, 10), vec![0; 10]);
        assert_eq!(fs.read_at(id, 10, 3), b"xyz");
    }

    #[test]
    fn read_past_eof_is_zeros() {
        let fs = FileStore::new();
        let id = fs.create("f");
        fs.write_at(id, 0, b"ab");
        assert_eq!(fs.read_at(id, 0, 4), vec![b'a', b'b', 0, 0]);
        assert_eq!(fs.read_at(id, 100, 2), vec![0, 0]);
        let mut buf = [0xFFu8; 4];
        fs.read_ranges_into(id, vec![(1, &mut buf[..])], 1);
        assert_eq!(buf, [b'b', 0, 0, 0]);
    }

    #[test]
    fn reads_at_absurd_offsets_return_zeros() {
        let fs = FileStore::new();
        let id = fs.create("f");
        fs.write_at(id, 0, b"abcde");
        for offset in [u64::MAX, u64::MAX - 3, usize::MAX as u64 - 1] {
            assert_eq!(fs.read_at(id, offset, 4), vec![0; 4]);
            assert_eq!(fs.try_read_at(id, offset, 4), Some(vec![0; 4]));
            assert_eq!(fs.checked_read_at(id, offset, 4), Ok(vec![0; 4]));
            fs.with_range(id, offset, 4, |src| assert!(src.is_empty()));
            let mut buf = [0xFFu8; 4];
            fs.read_ranges_into(id, vec![(offset, &mut buf[..])], 1);
            assert_eq!(buf, [0; 4]);
        }
        // A length that overflows from inside the file clamps to EOF.
        fs.with_range(id, 3, u64::MAX, |src| assert_eq!(src, b"de"));
    }

    #[test]
    fn append_returns_offsets() {
        let fs = FileStore::new();
        let id = fs.create("f");
        assert_eq!(fs.append(id, b"1234"), 0);
        assert_eq!(fs.append(id, b"56"), 4);
        assert_eq!(fs.len(id), 6);
    }

    #[test]
    fn set_len_truncates_and_extends() {
        let fs = FileStore::new();
        let id = fs.create("f");
        fs.write_at(id, 0, b"abcdef");
        fs.set_len(id, 3);
        assert_eq!(fs.read_at(id, 0, 3), b"abc");
        fs.set_len(id, 5);
        assert_eq!(fs.read_at(id, 0, 5), vec![b'a', b'b', b'c', 0, 0]);
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
        fs2.write_at(id, 0, b"via clone");
        assert_eq!(fs.read_at(id, 0, 9), b"via clone");
        assert_eq!(fs.total_bytes(), 9);
    }

    #[test]
    fn with_range_borrows_and_clamps() {
        let fs = FileStore::new();
        let id = fs.create("f");
        fs.write_at(id, 0, b"hello world");
        let got = fs.with_range(id, 6, 5, |s| s.to_vec());
        assert_eq!(got, b"world");
        // Past-EOF range clamps instead of zero-filling.
        let got = fs.with_range(id, 6, 100, |s| s.len());
        assert_eq!(got, 5);
        let got = fs.with_range(id, 100, 5, |s| s.len());
        assert_eq!(got, 0);
        // The fallible borrow zero-fills instead, counting one read; a dead
        // file is a typed error.
        let reads = fs.read_calls();
        let got = fs.try_with_range(id, 6, 8, |s| s.to_vec());
        assert_eq!(got, Ok(b"world\0\0\0".to_vec()));
        assert_eq!(fs.read_calls(), reads + 1);
        fs.delete(id);
        assert_eq!(
            fs.try_with_range(id, 0, 1, |_| ()),
            Err(StorageError::DeadFile { op: "read from", id })
        );
    }

    #[test]
    fn gather_into_assembles_ranges() {
        let fs = FileStore::new();
        let a = fs.create("a");
        let b = fs.create("b");
        let dst = fs.create("dst");
        fs.write_at(a, 0, b"0123456789");
        fs.write_at(b, 0, b"abcdef");
        fs.write_at(dst, 0, b"HDR:");
        let writes_before = fs.write_calls();
        fs.try_gather_into(dst, 4, &[(a, 2, 3), (b, 0, 2), (a, 0, 1)]).unwrap();
        assert_eq!(fs.write_calls() - writes_before, 1, "one store op");
        assert_eq!(fs.read_at(dst, 0, 10), b"HDR:234ab0");
        assert_eq!(fs.len(dst), 10);
        // Gather replaces everything from the offset on.
        fs.try_gather_into(dst, 4, &[(b, 5, 1)]).unwrap();
        assert_eq!(fs.read_at(dst, 0, 5), b"HDR:f");
        assert_eq!(fs.len(dst), 5);
    }

    #[test]
    fn gather_past_source_eof_reads_zeros() {
        let fs = FileStore::new();
        let a = fs.create("a");
        let dst = fs.create("dst");
        fs.write_at(a, 0, b"xy");
        fs.try_gather_into(dst, 0, &[(a, 0, 4), (a, 10, 2)]).unwrap();
        assert_eq!(fs.read_at(dst, 0, 6), b"xy\0\0\0\0");
    }

    #[test]
    fn write_at_extending_and_gapped() {
        let fs = FileStore::new();
        let id = fs.create("f");
        fs.write_at(id, 0, b"abcdef");
        // Overwrite tail + extend in one call.
        fs.write_at(id, 4, b"XYZW");
        assert_eq!(fs.read_at(id, 0, 8), b"abcdXYZW");
        // Write past EOF zero-fills the gap.
        fs.write_at(id, 10, b"!!");
        assert_eq!(fs.read_at(id, 0, 12), b"abcdXYZW\0\0!!");
    }

    #[test]
    fn read_ranges_into_matches_sequential_reads() {
        let fs = FileStore::new();
        let id = fs.create("f");
        let data: Vec<u8> = (0..10_000u32).map(|i| (i * 7) as u8).collect();
        fs.write_at(id, 0, &data);
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
            assert_eq!(buf, &fs.read_at(id, off, len), "range at {off}");
        }
        // Empty batch is a no-op.
        fs.read_ranges_into(id, Vec::new(), 1);
    }

    #[test]
    fn namespaced_stores_never_collide() {
        let a = FileStore::with_namespace(0);
        let b = FileStore::with_namespace(1);
        let c = FileStore::with_namespace(2);
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
        fs.write_at(id, 0, b"abc");
        let g1 = fs.generation(id).unwrap();
        assert!(g1 > g0);
        fs.append(id, b"d");
        let g2 = fs.generation(id).unwrap();
        assert!(g2 > g1);
        fs.set_len(id, 2);
        let g3 = fs.generation(id).unwrap();
        assert!(g3 > g2);
        let src = fs.create("src");
        fs.write_at(src, 0, b"xy");
        fs.try_gather_into(id, 0, &[(src, 0, 2)]).unwrap();
        let g4 = fs.generation(id).unwrap();
        assert!(g4 > g3);
        // Re-creating (truncating) the same name bumps too.
        let same = fs.create("f");
        assert_eq!(same, id);
        assert!(fs.generation(id).unwrap() > g4);
        // Reads never bump.
        let _ = fs.read_at(id, 0, 2);
        let g5 = fs.generation(id).unwrap();
        fs.with_range(id, 0, 2, |_| ());
        assert_eq!(fs.generation(id), Some(g5));
        fs.delete(id);
        assert_eq!(fs.generation(id), None);
    }

    #[test]
    fn try_variants_report_dead_files_with_legacy_messages() {
        let fs = FileStore::new();
        let id = fs.create("f");
        let src = fs.create("src");
        fs.delete(id);
        assert_eq!(
            fs.try_write_at(id, 0, b"x").unwrap_err().to_string(),
            format!("write to dead {id}")
        );
        assert_eq!(
            fs.try_append(id, b"x").unwrap_err().to_string(),
            format!("append to dead {id}")
        );
        assert_eq!(
            fs.try_gather_into(id, 0, &[(src, 0, 1)])
                .unwrap_err()
                .to_string(),
            format!("gather into dead {id}")
        );
        assert_eq!(
            fs.try_set_len(id, 4).unwrap_err().to_string(),
            format!("set_len on dead {id}")
        );
        assert_eq!(
            fs.checked_read_at(id, 0, 1).unwrap_err().to_string(),
            format!("read from dead {id}")
        );
        assert!(fs.checked_len(id).is_err());
        // Dead *source* leaves the destination untouched.
        let dst = fs.create("dst");
        fs.write_at(dst, 0, b"keep");
        let g = fs.generation(dst).unwrap();
        let err = fs.try_gather_into(dst, 0, &[(id, 0, 1)]).unwrap_err();
        assert_eq!(err.to_string(), format!("gather from dead {id}"));
        assert_eq!(fs.read_at(dst, 0, 4), b"keep");
        assert_eq!(fs.generation(dst), Some(g));
    }

    #[test]
    fn injected_transient_fault_heals_on_retry() {
        use crate::fault::{FaultInjector, FaultKind, FaultPlan, FaultRule, FaultScope};
        let fs = FileStore::new();
        let id = fs.create("f");
        fs.write_at(id, 0, b"hello");
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
        fs.write_at(id, 0, b"payload!");
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
        let err = fs.try_write_at(id, 0, b"abcdefgh").unwrap_err();
        match err {
            StorageError::ShortWrite {
                written, requested, ..
            } => {
                assert_eq!((written, requested), (4, 8));
                assert_eq!(fs.len(id), 4, "torn prefix landed");
            }
            other => panic!("expected torn write, got {other}"),
        }
        fs.try_write_at(id, 0, b"abcdefgh").unwrap();
        assert_eq!(fs.read_at(id, 0, 8), b"abcdefgh");
    }

    #[test]
    fn blackout_presents_files_as_gone() {
        use crate::fault::{FaultInjector, FaultKind, FaultPlan, FaultRule, FaultScope};
        let fs = FileStore::with_namespace(3);
        let id = fs.create("snapshots/pyaes/ws_pages");
        fs.write_at(id, 0, b"ws");
        assert!(fs.try_read_at(id, 0, 2).is_some());
        fs.attach_injector(Arc::new(FaultInjector::new(FaultPlan::new().rule(
            FaultRule::new(FaultScope::Namespace(3), FaultKind::Blackout),
        ))));
        assert!(fs.try_read_at(id, 0, 2).is_none(), "blackout reads as dead");
        assert_eq!(
            fs.try_with_range(id, 0, 2, |_| ()),
            Err(StorageError::Unavailable { id })
        );
        assert_eq!(fs.generation(id), None, "blackout hides the generation");
        assert!(matches!(
            fs.checked_read_at(id, 0, 2),
            Err(StorageError::Unavailable { .. })
        ));
        assert!(fs.try_write_at(id, 0, b"xy").is_err());
        fs.detach_injector();
        assert_eq!(fs.try_read_at(id, 0, 2).unwrap(), b"ws");
        assert!(fs.generation(id).is_some());
    }

    #[test]
    fn op_counters_track_all_handles() {
        let fs = FileStore::new();
        let fs2 = fs.clone();
        let id = fs.create("f");
        assert_eq!((fs.write_calls(), fs.read_calls()), (0, 0));
        fs.write_at(id, 0, b"abc");
        fs2.append(id, b"d");
        assert_eq!(fs.write_calls(), 2, "clone's ops are counted too");
        let _ = fs.read_at(id, 0, 4);
        fs2.with_range(id, 0, 2, |_| ());
        assert_eq!(fs.read_calls(), 2);
    }
}
