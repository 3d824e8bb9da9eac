//! Recovery policy for faulted cold starts (§7-style robustness).
//!
//! The storage layer's [`sim_storage::FaultInjector`] breaks individual
//! operations; this module decides what the orchestrator does about it so
//! that **no request is ever dropped**:
//!
//! * **transient faults** retry with bounded exponential backoff. The
//!   backoff is *virtual* time on the simulated clock — it accumulates in
//!   [`RecoveryReport::retry_delay`], never in the timed program, so a
//!   retried invocation's simulated outcome is byte-identical to the
//!   fault-free run;
//! * **corrupt REAP artifacts** get one reload (corruption injected on
//!   the wire heals on a re-read; corruption in the stored bytes
//!   persists), then the artifact is quarantined, the in-flight request
//!   falls back to a Vanilla cold start off the intact snapshot, and the
//!   function is flagged for automatic re-record;
//! * **a corrupt VMM state read** gets the same single reload; a mismatch
//!   that survives it is stored corruption of the snapshot itself, which
//!   nothing on this shard can serve around;
//! * **an unrestorable snapshot** (storage unavailable at restore time, or
//!   stored corruption) means the shard cannot serve the function — the
//!   request is handed back as [`ShardUnavailable`] so
//!   the cluster layer can re-route it to a surviving shard (the consumed
//!   input sequence number is rolled back first, so the re-routed request
//!   completes with the seq it would have had fault-free).

use std::fmt;

use functionbench::FunctionId;
use microvm::RestoreError;
use sim_core::SimDuration;

use crate::monitor::PrefetchError;

/// What recovery had to do to complete one invocation. Attached to every
/// [`crate::InvocationOutcome`]; all-default (`is_clean`) on the
/// fault-free path. The chaos suites compare outcomes with this field
/// normalised away: faults may only add recovery work, never change the
/// simulated result.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Transient-fault retries of the functional pass.
    pub transient_retries: u64,
    /// Artifact reloads after a corrupt parse (wire corruption heals).
    pub corrupt_reloads: u64,
    /// The function's REAP artifacts were quarantined (either by this
    /// invocation or a previous one still awaiting re-record).
    pub quarantined: bool,
    /// The request completed as a Vanilla cold start instead of its
    /// requested prefetch policy.
    pub fallback_vanilla: bool,
    /// The function was rebuilt on a surviving shard before this request
    /// could complete.
    pub rebuilt: bool,
    /// The request was re-routed off its home shard.
    pub rerouted: bool,
    /// Virtual time spent in retry backoff and injected device delays.
    /// Accounted here, **not** in the timed program: latency/breakdown
    /// stay identical to the fault-free run.
    pub retry_delay: SimDuration,
}

impl RecoveryReport {
    /// True if no recovery work was needed (the fault-free path).
    pub fn is_clean(&self) -> bool {
        *self == RecoveryReport::default()
    }
}

/// Retries of a transient fault after the first failed attempt (so a
/// transient fault site is probed `MAX_RETRIES + 1` times in total).
pub(crate) const MAX_RETRIES: u32 = 3;

/// Backoff before the first retry; doubles each further retry.
const BASE_DELAY: SimDuration = SimDuration::from_micros(100);

/// Backoff charged before retry number `attempt` (0-based), on the
/// simulated clock: `BASE_DELAY * 2^attempt`.
pub(crate) fn retry_delay(attempt: u32) -> SimDuration {
    SimDuration::from_nanos(
        BASE_DELAY
            .as_nanos()
            .saturating_mul(1u64 << attempt.min(20)),
    )
}

/// Why one functional-pass attempt failed. Transient variants are retried
/// with bounded backoff; the rest select a recovery path
/// (quarantine + Vanilla fallback, or shard failover).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AttemptError {
    /// Snapshot restore failed: the store could not serve the VMM state
    /// file, or its bytes arrived corrupt.
    Restore(RestoreError),
    /// Working-set prefetch failed (corrupt artifact bytes, artifact
    /// storage fault, or install error).
    Prefetch(PrefetchError),
}

impl fmt::Display for AttemptError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AttemptError::Restore(e) => write!(f, "snapshot restore failed: {e}"),
            AttemptError::Prefetch(e) => write!(f, "WS file prefetch failed: {e}"),
        }
    }
}

impl std::error::Error for AttemptError {}

/// A cold start could not complete on this shard: its snapshot store is
/// unreachable (blackout), persistently faulting or corrupt. The consumed input
/// seq was rolled back; the cluster layer re-routes the request to a
/// surviving shard.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardUnavailable {
    /// The function whose cold start failed.
    pub function: FunctionId,
    /// Rendered cause (the final [`AttemptError`]).
    pub detail: String,
}

impl fmt::Display for ShardUnavailable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} unavailable on its shard: {}",
            self.function, self.detail
        )
    }
}

impl std::error::Error for ShardUnavailable {}

/// Everything a surviving shard needs to rebuild a lost function. Shards
/// share one seed, so a function's snapshot depends only on
/// `(seed, function)` — re-registering reproduces it bit-for-bit, and
/// replaying the record at `recorded_seq` reproduces the REAP artifacts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RebuildMeta {
    /// Input sequence cursor to resume from.
    pub next_seq: u64,
    /// Input seq of the (latest) record invocation, if the function had
    /// recorded REAP artifacts to rebuild.
    pub recorded_seq: Option<u64>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use guest_mem::MemError;

    #[test]
    fn default_report_is_clean() {
        let mut r = RecoveryReport::default();
        assert!(r.is_clean());
        r.transient_retries = 1;
        assert!(!r.is_clean());
    }

    #[test]
    fn backoff_doubles_per_attempt() {
        assert_eq!(MAX_RETRIES, 3);
        assert_eq!(retry_delay(0), SimDuration::from_micros(100));
        assert_eq!(retry_delay(1), SimDuration::from_micros(200));
        assert_eq!(retry_delay(2), SimDuration::from_micros(400));
    }

    #[test]
    fn attempt_error_messages_keep_legacy_prefixes() {
        let e = AttemptError::Restore(RestoreError::Corrupt("x".into()));
        assert_eq!(e.to_string(), "snapshot restore failed: x");
        let page = guest_mem::PageIdx::new(3);
        let e = AttemptError::Prefetch(PrefetchError::Install(MemError::AlreadyResident(page)));
        assert!(e.to_string().contains("WS file prefetch"));
    }
}
