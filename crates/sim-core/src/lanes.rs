//! Lane scheduling: deterministic partitioning of weighted work across a
//! bounded number of serving threads.
//!
//! The cluster deals a batch's busy shards into serving lanes, one scoped
//! thread each (`vhive-cluster`'s `invoke_concurrent`):
//!
//! * [`effective_lanes`] gates a requested *thread* count on the host's
//!   `available_parallelism` (exactly like [`crate::parcopy`]'s copy
//!   fan-out) — on a 1-vCPU container everything stays serial;
//! * [`partition_by_weight`] deals weighted items (shards keyed by
//!   request count) into contiguous, order-preserving, weight-balanced
//!   lanes.
//!
//! Partitioning is pure arithmetic over the item weights — the same
//! inputs yield the same lanes on every host — so the host's core count
//! can never leak into simulated-time outcomes; only wall-clock speed
//! changes.

/// Upper bound on serving threads. Matches [`crate::parcopy::MAX_LANES`]'s
/// rationale: a handful of threads saturates a small host, and the
/// simulator often runs in small containers.
pub const MAX_SERVING_LANES: usize = 8;

/// Usable parallelism of the host, cached once (queried via
/// `std::thread::available_parallelism`, capped at
/// [`MAX_SERVING_LANES`]).
pub fn host_parallelism() -> usize {
    use std::sync::OnceLock;
    static LANES: OnceLock<usize> = OnceLock::new();
    *LANES.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
            .min(MAX_SERVING_LANES)
    })
}

/// Clamps a requested lane count to `[1, host parallelism]`: asking for 0
/// means 1, and asking for more lanes than the host has cores only adds
/// scheduling overhead, so the excess is dropped.
pub fn effective_lanes(requested: usize) -> usize {
    requested.clamp(1, host_parallelism())
}

/// Splits items `0..weights.len()` into at most `lanes` contiguous,
/// order-preserving groups of roughly equal total weight (greedy: a lane
/// closes once it holds ≥ `total/lanes`). Returns one `(start, end)`
/// index range per non-empty lane.
///
/// Contiguity is deliberate: a lane's items are one slice, so the caller
/// can hand each thread a disjoint `split_off` of its work list without
/// reordering it.
///
/// Zero-weight items ride along with their neighbours; an empty `weights`
/// yields no lanes.
pub fn partition_by_weight(weights: &[u64], lanes: usize) -> Vec<(usize, usize)> {
    if weights.is_empty() {
        return Vec::new();
    }
    let lanes = lanes.max(1).min(weights.len());
    let total: u64 = weights.iter().sum();
    let per_lane = total.div_ceil(lanes as u64).max(1);
    let mut out = Vec::with_capacity(lanes);
    let mut start = 0usize;
    let mut acc = 0u64;
    for (i, &w) in weights.iter().enumerate() {
        acc += w;
        // Close the lane when it is full — unless it is the last allowed
        // lane, which must absorb everything that remains.
        if acc >= per_lane && out.len() + 1 < lanes {
            out.push((start, i + 1));
            start = i + 1;
            acc = 0;
        }
    }
    if start < weights.len() {
        out.push((start, weights.len()));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn effective_lanes_bounds() {
        assert_eq!(effective_lanes(0), 1);
        assert_eq!(effective_lanes(1), 1);
        let host = host_parallelism();
        assert!(effective_lanes(usize::MAX) == host);
        assert!((1..=MAX_SERVING_LANES).contains(&host));
    }

    #[test]
    fn partition_covers_everything_in_order() {
        let weights = [5u64, 1, 1, 1, 8, 2, 2, 4];
        for lanes in 1..=6 {
            let parts = partition_by_weight(&weights, lanes);
            assert!(parts.len() <= lanes);
            // Ranges tile [0, len) exactly, in order.
            let mut cursor = 0;
            for &(s, e) in &parts {
                assert_eq!(s, cursor);
                assert!(e > s);
                cursor = e;
            }
            assert_eq!(cursor, weights.len());
        }
    }

    #[test]
    fn partition_balances_bytes() {
        // 16 equal items over 4 lanes: exactly 4 each.
        let weights = [10u64; 16];
        let parts = partition_by_weight(&weights, 4);
        assert_eq!(parts, vec![(0, 4), (4, 8), (8, 12), (12, 16)]);
    }

    #[test]
    fn partition_single_lane_and_empty() {
        assert_eq!(partition_by_weight(&[3, 4], 1), vec![(0, 2)]);
        assert!(partition_by_weight(&[], 4).is_empty());
        // More lanes than items: one item per lane.
        assert_eq!(
            partition_by_weight(&[7, 7], 5),
            vec![(0, 1), (1, 2)]
        );
    }

    #[test]
    fn partition_handles_zero_weights() {
        let parts = partition_by_weight(&[0, 0, 9, 0, 9], 2);
        let mut cursor = 0;
        for &(s, e) in &parts {
            assert_eq!(s, cursor);
            cursor = e;
        }
        assert_eq!(cursor, 5);
        assert!(parts.len() <= 2);
    }

    #[test]
    fn one_heavy_item_does_not_starve_the_tail() {
        // A huge first item must not swallow the whole list when more
        // lanes are available.
        let parts = partition_by_weight(&[100, 1, 1, 1], 2);
        assert_eq!(parts, vec![(0, 1), (1, 4)]);
    }
}
