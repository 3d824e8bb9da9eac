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
    /// Bumped on every content mutation (write, truncate, gather). The
    /// snapshot frame cache validates this at lookup, so a rewritten file
    /// can never be served from stale cached bytes.
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
    /// # Errors
    ///
    /// A typed [`StorageError`] on a dead file or an injected fault. An
    /// injected torn write applies a prefix of `bytes` (and bumps the
    /// generation) before failing; retrying the identical call repairs
    /// the file.
    pub fn write_at(&self, id: FileId, offset: u64, bytes: &[u8]) -> Result<(), StorageError> {
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

    /// Reads `[offset, offset + len)`: `f` sees exactly `len` bytes under
    /// the store's read lock — borrowed in place, or a zero-padded copy
    /// where the range runs past EOF (sparse-file semantics) — and must not
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
        let in_file = offset
            .checked_add(len)
            .filter(|&end| end <= fd.data.len() as u64);
        Ok(match in_file {
            Some(end) => f(&fd.data[offset as usize..end as usize]),
            None => f(&read_zero_padded(&fd.data, offset, len as usize)),
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
    /// [`read`](Self::read)).
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
        fd.data.resize(len as usize, 0);
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

    #[test]
    fn create_truncates_existing() {
        let fs = FileStore::new();
        let id = fs.create("f");
        fs.write_at(id, 0, b"data").unwrap();
        let id2 = fs.create("f");
        assert_eq!(id, id2, "same name keeps same id");
        assert_eq!(fs.len(id), 0, "recreate truncates");
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
    }

    #[test]
    fn write_at_extending_and_gapped() {
        let fs = FileStore::new();
        let id = fs.create("f");
        fs.write_at(id, 0, b"abcdef").unwrap();
        // Overwrite tail + extend in one call.
        fs.write_at(id, 4, b"XYZW").unwrap();
        assert_eq!(bytes(&fs, id, 0, 8), b"abcdXYZW");
        // Write past EOF zero-fills the gap.
        fs.write_at(id, 10, b"!!").unwrap();
        assert_eq!(bytes(&fs, id, 0, 12), b"abcdXYZW\0\0!!");
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
