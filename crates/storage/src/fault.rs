//! Deterministic, seeded fault injection at the [`FileStore`] boundary.
//!
//! A [`FaultPlan`] is a list of [`FaultRule`]s — each a *scope* (which
//! files), a *kind* (what goes wrong) and a *budget* (skip the first `skip`
//! matching operations, then fire on the next `count`). Plans are plain
//! data: tests build them by hand or derive the skip/count/scope parameters
//! from [`sim_core::DetRng`], so a seed fully determines which operations
//! fault. Budgets count down on **per-rule atomics**, not on a shared RNG
//! stream, so injection is deterministic even when store handles are shared
//! across threads — as long as the operations matching one rule are
//! themselves issued in a deterministic order (scope rules to one file or
//! one lane to guarantee this).
//!
//! The injector intercepts every fallible store operation, in two
//! strengths. The mutations ([`crate::FileStore::write_at`],
//! [`crate::FileStore::set_len`], [`crate::FileStore::gather_into`]) and
//! the checked reads ([`crate::FileStore::checked_read_at`],
//! [`crate::FileStore::checked_len`]) consult the whole plan.
//! [`crate::FileStore::read`] and [`crate::FileStore::generation`] consult
//! only [`FaultKind::Blackout`], so a blacked-out file reads as gone while
//! the demand-paging hot loop pays nothing for transient, corrupt or delay
//! rules.
//!
//! [`FileStore`]: crate::FileStore

use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use parking_lot::Mutex;
use sim_core::SimDuration;

use crate::file_store::FileId;

/// Typed storage failure, as surfaced by the fallible methods of
/// [`crate::FileStore`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StorageError {
    /// The [`FileId`] no longer refers to a live file (deleted /
    /// unregistered). Retrying cannot help; callers fall back or fail.
    DeadFile {
        /// Operation verb, e.g. `"write to"` — chosen so the rendering
        /// reproduces the historical panic messages (`"write to dead
        /// file#7"`) byte-for-byte.
        op: &'static str,
        /// The dead handle.
        id: FileId,
    },
    /// An injected transient fault: the operation failed this time but a
    /// retry is expected to succeed (the stored bytes are intact).
    Transient {
        /// Injection site, e.g. `"read_at"`.
        site: &'static str,
        /// The file the faulting operation targeted.
        id: FileId,
    },
    /// The file's backing store is blacked out (shard failure). Retrying
    /// on the same store cannot help; route elsewhere.
    Unavailable {
        /// The unreachable file.
        id: FileId,
    },
    /// An injected torn write: only `written` of `requested` bytes landed.
    /// The destination file now holds a torn prefix; a full-length retry
    /// repairs it.
    ShortWrite {
        /// The file the torn write targeted.
        id: FileId,
        /// Bytes actually applied.
        written: u64,
        /// Bytes the caller asked for.
        requested: u64,
    },
}

/// Coarse classification of a [`StorageError`]: what a caller can do
/// about it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultClass {
    /// Retry on the same store is expected to succeed.
    Transient,
    /// The store (shard) is gone; route the request elsewhere.
    Unavailable,
    /// The file handle is dead; fall back, don't retry.
    Gone,
}

impl StorageError {
    /// The retry/fallback class of this error.
    pub fn class(&self) -> FaultClass {
        match self {
            StorageError::DeadFile { .. } => FaultClass::Gone,
            StorageError::Transient { .. } | StorageError::ShortWrite { .. } => {
                FaultClass::Transient
            }
            StorageError::Unavailable { .. } => FaultClass::Unavailable,
        }
    }
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageError::DeadFile { op, id } => write!(f, "{op} dead {id}"),
            StorageError::Transient { site, id } => {
                write!(f, "transient storage fault in {site} on {id}")
            }
            StorageError::Unavailable { id } => {
                write!(f, "{id} unavailable (storage blackout)")
            }
            StorageError::ShortWrite {
                id,
                written,
                requested,
            } => write!(f, "torn write on {id}: {written} of {requested} bytes"),
        }
    }
}

impl std::error::Error for StorageError {}

/// Reissues an *idempotent* store write (fixed offset, fixed length, or a
/// gather that rewrites its whole tail) through the faults a reissue heals
/// — [`StorageError::ShortWrite`] and [`StorageError::Transient`] — for up
/// to three attempts. Returns the last error: a healable one means the
/// budget ran out, any other (dead file, blackout) ended the loop at once.
pub fn retry_idempotent(
    mut op: impl FnMut() -> Result<(), StorageError>,
) -> Result<(), StorageError> {
    let mut last = Ok(());
    for _ in 0..3 {
        last = op();
        match &last {
            Err(StorageError::ShortWrite { .. }) | Err(StorageError::Transient { .. }) => {}
            _ => break,
        }
    }
    last
}

/// What an armed [`FaultRule`] does to a matching operation.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultKind {
    /// Fail the operation with [`StorageError::Transient`]; stored bytes
    /// are untouched, so a retry succeeds.
    TransientError,
    /// Let a read succeed but flip bits in the **returned** buffer (the
    /// stored bytes stay pristine — a checksum-verify-and-reread heals).
    /// Models a bad DMA / bit-rot on the wire. Write sites ignore this.
    CorruptRead,
    /// Apply only a prefix of a write, then fail with
    /// [`StorageError::ShortWrite`]. The file holds the torn prefix until a
    /// retry overwrites it.
    ShortWrite,
    /// Charge the operation extra *virtual* latency, recorded in the
    /// injector's delay ledger (drained by [`FaultInjector::take_delay`]).
    /// The operation itself succeeds.
    Delay(SimDuration),
    /// Every matching operation fails with [`StorageError::Unavailable`]
    /// and the dead-file-aware readers report the file as gone — a shard
    /// blackout. Budgets still apply (a `skip` models mid-batch failure;
    /// `count` is usually unlimited).
    Blackout,
}

/// Which operations a [`FaultRule`] applies to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultScope {
    /// Every file.
    Any,
    /// Exactly these files.
    Files(Vec<FileId>),
    /// Files whose store name contains this substring (e.g.
    /// `"snapshots/pyaes/"` scopes one function's artifacts).
    NameContains(String),
    /// Every file of one store namespace — a whole cluster shard.
    Namespace(u32),
}

impl FaultScope {
    fn matches(&self, id: FileId, name: &str) -> bool {
        match self {
            FaultScope::Any => true,
            FaultScope::Files(ids) => ids.contains(&id),
            FaultScope::NameContains(s) => name.contains(s.as_str()),
            FaultScope::Namespace(ns) => id.namespace() == *ns,
        }
    }
}

/// One scoped, budgeted fault.
#[derive(Debug)]
pub struct FaultRule {
    scope: FaultScope,
    kind: FaultKind,
    /// Matching operations to let through before firing.
    skip: u64,
    /// Matching operations to fault once armed (`u64::MAX` = unlimited).
    count: u64,
    /// Operations seen so far (monotone; the skip/fire window is derived
    /// from fetch-and-increment on this, so concurrent matchers still
    /// fire exactly `count` times).
    seen: AtomicU64,
    /// Operations actually faulted (observability).
    fired: AtomicU64,
}

impl FaultRule {
    /// A rule that fires on every matching operation, forever.
    pub fn new(scope: FaultScope, kind: FaultKind) -> Self {
        FaultRule {
            scope,
            kind,
            skip: 0,
            count: u64::MAX,
            seen: AtomicU64::new(0),
            fired: AtomicU64::new(0),
        }
    }

    /// Lets the first `n` matching operations through unfaulted.
    pub fn skip(mut self, n: u64) -> Self {
        self.skip = n;
        self
    }

    /// Faults at most `n` matching operations once armed.
    pub fn count(mut self, n: u64) -> Self {
        self.count = n;
        self
    }

    /// Times this rule has fired.
    pub fn fired(&self) -> u64 {
        self.fired.load(Ordering::Relaxed)
    }

    /// Consumes one slot of the skip/fire window; true if this operation
    /// faults.
    fn admit(&self) -> bool {
        let idx = self.seen.fetch_add(1, Ordering::Relaxed);
        let fire = idx >= self.skip && idx - self.skip < self.count;
        if fire {
            self.fired.fetch_add(1, Ordering::Relaxed);
        }
        fire
    }
}

/// A reusable description of what to break: just a list of rules. Earlier
/// rules win when several match one operation.
#[derive(Debug, Default)]
pub struct FaultPlan {
    rules: Vec<FaultRule>,
}

impl FaultPlan {
    /// An empty plan (injects nothing).
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Adds a rule (builder-style).
    pub fn rule(mut self, rule: FaultRule) -> Self {
        self.rules.push(rule);
        self
    }

    /// Number of rules.
    pub fn len(&self) -> usize {
        self.rules.len()
    }

    /// True if the plan has no rules.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }
}

/// The outcome the injector hands a read site.
#[derive(Debug, PartialEq)]
pub enum ReadFault {
    /// Fail with this error.
    Error(StorageError),
    /// Serve the read, then corrupt the returned bytes with
    /// [`FaultInjector::corrupt`].
    Corrupt,
}

/// Per-site fire counters plus totals, as returned by
/// [`FaultInjector::stats`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct InjectorStats {
    /// Transient errors injected.
    pub transient: u64,
    /// Reads whose returned bytes were corrupted.
    pub corrupted: u64,
    /// Torn writes injected.
    pub short_writes: u64,
    /// Operations charged extra virtual latency.
    pub delayed: u64,
    /// Operations refused with a blackout.
    pub unavailable: u64,
    /// Fire counts keyed by injection site (`"read_at"`, `"write_at"`, …),
    /// sorted by site name.
    pub per_site: Vec<(String, u64)>,
}

impl InjectorStats {
    /// Total injected faults across all kinds.
    pub fn total(&self) -> u64 {
        self.transient + self.corrupted + self.short_writes + self.delayed + self.unavailable
    }
}

/// Active fault state attached to a [`crate::FileStore`]: matches
/// operations against the plan's rules and keeps observability counters
/// and the virtual-latency ledger.
#[derive(Debug)]
pub struct FaultInjector {
    plan: FaultPlan,
    enabled: AtomicBool,
    transient: AtomicU64,
    corrupted: AtomicU64,
    short_writes: AtomicU64,
    delayed: AtomicU64,
    unavailable: AtomicU64,
    per_site: Mutex<HashMap<&'static str, u64>>,
    /// Injected virtual latency, keyed by file — recovery code drains this
    /// into the invocation's retry-delay accounting.
    delay_ledger: Mutex<HashMap<FileId, SimDuration>>,
}

impl FaultInjector {
    /// Wraps a plan into an armed injector.
    pub fn new(plan: FaultPlan) -> Self {
        FaultInjector {
            plan,
            enabled: AtomicBool::new(true),
            transient: AtomicU64::new(0),
            corrupted: AtomicU64::new(0),
            short_writes: AtomicU64::new(0),
            delayed: AtomicU64::new(0),
            unavailable: AtomicU64::new(0),
            per_site: Mutex::new(HashMap::new()),
            delay_ledger: Mutex::new(HashMap::new()),
        }
    }

    /// Master switch (a disarmed injector matches nothing).
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    fn live(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    fn record(&self, site: &'static str, total: &AtomicU64) {
        total.fetch_add(1, Ordering::Relaxed);
        *self.per_site.lock().entry(site).or_insert(0) += 1;
    }

    /// First matching-and-admitted rule's kind for this operation.
    /// `CorruptRead` rules only match (and only spend budget) when the
    /// operation actually transfers readable payload (`allow_corrupt`) —
    /// metadata probes and writes skip them.
    fn fire(&self, id: FileId, name: &str, allow_corrupt: bool) -> Option<&FaultKind> {
        if !self.live() {
            return None;
        }
        for rule in &self.plan.rules {
            if !rule.scope.matches(id, name) {
                continue;
            }
            if !allow_corrupt && rule.kind == FaultKind::CorruptRead {
                continue;
            }
            if rule.admit() {
                return Some(&rule.kind);
            }
        }
        None
    }

    /// Consults the plan for a payload-read operation at `site`.
    pub fn on_read(&self, site: &'static str, id: FileId, name: &str) -> Option<ReadFault> {
        self.read_class(site, id, name, true)
    }

    /// Consults the plan for a metadata operation (`len`, `set_len`) —
    /// like [`on_read`](Self::on_read) but `CorruptRead` rules never
    /// match (there are no payload bytes to corrupt).
    pub fn on_meta(&self, site: &'static str, id: FileId, name: &str) -> Option<ReadFault> {
        self.read_class(site, id, name, false)
    }

    fn read_class(
        &self,
        site: &'static str,
        id: FileId,
        name: &str,
        allow_corrupt: bool,
    ) -> Option<ReadFault> {
        match self.fire(id, name, allow_corrupt)? {
            FaultKind::TransientError => {
                self.record(site, &self.transient);
                Some(ReadFault::Error(StorageError::Transient { site, id }))
            }
            FaultKind::CorruptRead => {
                self.record(site, &self.corrupted);
                Some(ReadFault::Corrupt)
            }
            FaultKind::ShortWrite => None,
            FaultKind::Delay(d) => {
                self.record(site, &self.delayed);
                *self
                    .delay_ledger
                    .lock()
                    .entry(id)
                    .or_insert(SimDuration::ZERO) += *d;
                None
            }
            FaultKind::Blackout => {
                self.record(site, &self.unavailable);
                Some(ReadFault::Error(StorageError::Unavailable { id }))
            }
        }
    }

    /// Consults the plan for a write-class operation of `requested` bytes
    /// at `site`. `Err` means fail the operation; `Ok(Some(n))` means
    /// apply only the first `n` bytes then fail as a torn write.
    #[allow(clippy::type_complexity)]
    pub fn on_write(
        &self,
        site: &'static str,
        id: FileId,
        name: &str,
        requested: u64,
    ) -> Result<Option<u64>, StorageError> {
        match self.fire(id, name, false) {
            None => Ok(None),
            Some(FaultKind::TransientError) => {
                self.record(site, &self.transient);
                Err(StorageError::Transient { site, id })
            }
            Some(FaultKind::ShortWrite) => {
                self.record(site, &self.short_writes);
                Ok(Some(requested / 2))
            }
            Some(FaultKind::Delay(d)) => {
                self.record(site, &self.delayed);
                *self
                    .delay_ledger
                    .lock()
                    .entry(id)
                    .or_insert(SimDuration::ZERO) += *d;
                Ok(None)
            }
            Some(FaultKind::Blackout) => {
                self.record(site, &self.unavailable);
                Err(StorageError::Unavailable { id })
            }
            Some(FaultKind::CorruptRead) => Ok(None),
        }
    }

    /// True if a blackout rule currently covers this file — consulted by
    /// the dead-file-aware readers so a blacked-out file reports as gone
    /// (exactly the signature an unregister leaves behind).
    pub fn blacked_out(&self, id: FileId, name: &str) -> bool {
        if !self.live() {
            return false;
        }
        self.plan
            .rules
            .iter()
            .any(|r| r.kind == FaultKind::Blackout && r.scope.matches(id, name) && r.admit())
    }

    /// Deterministically flips bytes in `buf` (first, middle, last) — the
    /// payload mutation behind [`ReadFault::Corrupt`]. Guaranteed to change
    /// any non-empty buffer, so checksums and magics always notice.
    pub fn corrupt(buf: &mut [u8]) {
        let n = buf.len();
        if n == 0 {
            return;
        }
        buf[0] ^= 0xA5;
        buf[n / 2] ^= 0x5A;
        buf[n - 1] ^= 0xA5;
    }

    /// Drains the virtual latency charged against `id` since the last
    /// call.
    pub fn take_delay(&self, id: FileId) -> SimDuration {
        self.delay_ledger
            .lock()
            .remove(&id)
            .unwrap_or(SimDuration::ZERO)
    }

    /// Snapshot of the injector's counters.
    pub fn stats(&self) -> InjectorStats {
        let mut per_site: Vec<(String, u64)> = self
            .per_site
            .lock()
            .iter()
            .map(|(k, v)| (k.to_string(), *v))
            .collect();
        per_site.sort();
        InjectorStats {
            transient: self.transient.load(Ordering::Relaxed),
            corrupted: self.corrupted.load(Ordering::Relaxed),
            short_writes: self.short_writes.load(Ordering::Relaxed),
            delayed: self.delayed.load(Ordering::Relaxed),
            unavailable: self.unavailable.load(Ordering::Relaxed),
            per_site,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FileStore;

    #[test]
    fn display_renderings_are_stable() {
        let fs = FileStore::new();
        let id = fs.create("f");
        assert_eq!(
            StorageError::DeadFile { op: "write to", id }.to_string(),
            format!("write to dead {id}")
        );
        assert_eq!(
            StorageError::Transient { site: "read_at", id }.to_string(),
            format!("transient storage fault in read_at on {id}")
        );
        assert_eq!(
            StorageError::Unavailable { id }.to_string(),
            format!("{id} unavailable (storage blackout)")
        );
        assert_eq!(
            StorageError::ShortWrite {
                id,
                written: 2,
                requested: 4
            }
            .to_string(),
            format!("torn write on {id}: 2 of 4 bytes")
        );
    }

    #[test]
    fn class_of_every_variant() {
        let fs = FileStore::new();
        let id = fs.create("f");
        for (err, class) in [
            (
                StorageError::Transient { site: "len", id },
                FaultClass::Transient,
            ),
            (
                StorageError::ShortWrite {
                    id,
                    written: 0,
                    requested: 8,
                },
                FaultClass::Transient,
            ),
            (StorageError::Unavailable { id }, FaultClass::Unavailable),
            (
                StorageError::DeadFile { op: "read from", id },
                FaultClass::Gone,
            ),
        ] {
            assert_eq!(err.class(), class, "{err}");
        }
    }

    #[test]
    fn budget_window_skips_then_fires_then_exhausts() {
        let fs = FileStore::new();
        let id = fs.create("f");
        let rule = FaultRule::new(FaultScope::Any, FaultKind::TransientError)
            .skip(2)
            .count(3);
        let inj = FaultInjector::new(FaultPlan::new().rule(rule));
        let mut outcomes = Vec::new();
        for _ in 0..7 {
            outcomes.push(inj.on_read("read_at", id, "f").is_some());
        }
        assert_eq!(
            outcomes,
            [false, false, true, true, true, false, false],
            "skip=2 then fire 3 then exhausted"
        );
        assert_eq!(inj.stats().transient, 3);
        assert_eq!(inj.stats().per_site, vec![("read_at".to_string(), 3)]);
    }

    #[test]
    fn scopes_select_files() {
        let a = FileStore::with_namespace(1);
        let b = FileStore::with_namespace(2);
        let fa = a.create("snapshots/pyaes/ws_pages");
        let fb = b.create("snapshots/pyaes/ws_pages");
        let other = a.create("snapshots/helloworld/mem");

        let by_file = FaultInjector::new(
            FaultPlan::new().rule(FaultRule::new(
                FaultScope::Files(vec![fa]),
                FaultKind::TransientError,
            )),
        );
        assert!(by_file.on_read("read_at", fa, "snapshots/pyaes/ws_pages").is_some());
        assert!(by_file.on_read("read_at", fb, "snapshots/pyaes/ws_pages").is_none());

        let by_name = FaultInjector::new(FaultPlan::new().rule(FaultRule::new(
            FaultScope::NameContains("pyaes".into()),
            FaultKind::TransientError,
        )));
        assert!(by_name.on_read("read_at", fa, "snapshots/pyaes/ws_pages").is_some());
        assert!(by_name
            .on_read("read_at", other, "snapshots/helloworld/mem")
            .is_none());

        let by_ns = FaultInjector::new(FaultPlan::new().rule(FaultRule::new(
            FaultScope::Namespace(2),
            FaultKind::Blackout,
        )));
        assert!(by_ns.on_read("read_at", fb, "x").is_some());
        assert!(by_ns.on_read("read_at", fa, "x").is_none());
        assert!(by_ns.blacked_out(fb, "x"));
        assert!(!by_ns.blacked_out(fa, "x"));
    }

    #[test]
    fn corrupt_always_changes_nonempty_buffers() {
        for n in 1..16usize {
            let orig: Vec<u8> = (0..n as u8).collect();
            let mut buf = orig.clone();
            FaultInjector::corrupt(&mut buf);
            assert_ne!(buf, orig, "len={n}");
        }
        let mut empty: Vec<u8> = Vec::new();
        FaultInjector::corrupt(&mut empty);
    }

    #[test]
    fn delay_accumulates_in_ledger_until_drained() {
        let fs = FileStore::new();
        let id = fs.create("f");
        let inj = FaultInjector::new(FaultPlan::new().rule(FaultRule::new(
            FaultScope::Any,
            FaultKind::Delay(SimDuration::from_micros(150)),
        )));
        assert!(inj.on_read("read_at", id, "f").is_none(), "delay lets the op succeed");
        assert!(inj.on_write("write_at", id, "f", 10).unwrap().is_none());
        assert_eq!(inj.take_delay(id), SimDuration::from_micros(300));
        assert_eq!(inj.take_delay(id), SimDuration::ZERO, "drained");
        assert_eq!(inj.stats().delayed, 2);
    }

    #[test]
    fn disarmed_injector_is_inert() {
        let fs = FileStore::new();
        let id = fs.create("f");
        let inj = FaultInjector::new(
            FaultPlan::new().rule(FaultRule::new(FaultScope::Any, FaultKind::Blackout)),
        );
        inj.set_enabled(false);
        assert!(inj.on_read("read_at", id, "f").is_none());
        assert!(!inj.blacked_out(id, "f"));
        inj.set_enabled(true);
        assert!(inj.on_read("read_at", id, "f").is_some());
    }
}
