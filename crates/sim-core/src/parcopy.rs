//! Bounded-lane parallel byte copies.
//!
//! The functional layer of the reproduction moves real bytes — installing
//! a 64 MB working set is at minimum one large memcpy, and a single core
//! cannot saturate memory bandwidth. The three entry points here
//! ([`copy_par`], [`extend_par`], [`extend_scatter`]) only describe their
//! copy as `(source, destination)` jobs; one private helper, `copy_lanes`,
//! decides whether to spawn. Below [`PAR_THRESHOLD_BYTES`] in total, or on
//! a 1-vCPU host, the jobs run on the caller's thread and no thread is
//! created — most callers move 4-16 KB at a time, where a spawn costs far
//! more than the copy. At or above it the bytes are dealt into equal
//! contiguous shares, one scoped thread each (no pools, no globals,
//! deterministic results).
//!
//! This is a *bandwidth* utility, deliberately dumb: lanes are scoped
//! `std::thread`s that die at the end of the call. Architectural
//! parallelism lives above this layer: see [`crate::lanes`] for the lane
//! arithmetic that deals the cluster's shards into serving threads.

use std::mem::MaybeUninit;

/// Copies below this size stay single-threaded (thread spawn ≈ tens of
/// microseconds; a 2 MB memcpy is ~hundreds).
pub const PAR_THRESHOLD_BYTES: usize = 2 * 1024 * 1024;

/// Maximum copy lanes. Small on purpose: memory bandwidth saturates with
/// a handful of streams, and the simulator often runs in 1–4 vCPU
/// containers.
pub const MAX_LANES: usize = 4;

/// Lanes are additionally capped by the host's usable parallelism: on a
/// 1-vCPU container spawned lanes only add scheduling overhead, so
/// everything stays serial there.
fn host_lanes() -> usize {
    use std::sync::OnceLock;
    static LANES: OnceLock<usize> = OnceLock::new();
    *LANES.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
            .min(MAX_LANES)
    })
}

/// One copy: `src` lands in the equal-length `dst`.
type Job<'a> = (&'a [u8], &'a mut [MaybeUninit<u8>]);

#[cfg(test)]
thread_local! {
    /// Threads `copy_lanes` has spawned on behalf of this thread.
    static LANES_SPAWNED: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

fn write_job((src, dst): Job<'_>) {
    debug_assert_eq!(src.len(), dst.len());
    // SAFETY: `src` and `dst` are distinct borrows of equal length (every
    // caller builds jobs that way), so the regions cannot overlap and the
    // write stays inside `dst`, initializing all of it.
    unsafe { std::ptr::copy_nonoverlapping(src.as_ptr(), dst.as_mut_ptr() as *mut u8, src.len()) };
}

/// Performs every job, `total` bytes in all: on the caller's thread when
/// that is small or the host has one usable core, otherwise as
/// `host_lanes()` contiguous shares of `total / lanes` bytes (a job that
/// straddles a share boundary is split there), one scoped thread each.
/// On return every `dst` is fully initialized.
fn copy_lanes<'a>(total: usize, jobs: impl Iterator<Item = Job<'a>>) {
    let lanes = if total < PAR_THRESHOLD_BYTES { 1 } else { host_lanes() };
    if lanes == 1 {
        jobs.for_each(write_job);
        return;
    }
    let share = total.div_ceil(lanes);
    std::thread::scope(|s| {
        let spawn = |lane: Vec<Job<'a>>| {
            #[cfg(test)]
            LANES_SPAWNED.with(|n| n.set(n.get() + 1));
            s.spawn(move || lane.into_iter().for_each(write_job));
        };
        let mut lane = Vec::new();
        let mut room = share;
        for (mut src, mut dst) in jobs {
            while src.len() >= room {
                let (src_head, src_rest) = src.split_at(room);
                let (dst_head, dst_rest) = dst.split_at_mut(room);
                lane.push((src_head, dst_head));
                spawn(std::mem::take(&mut lane));
                (src, dst, room) = (src_rest, dst_rest, share);
            }
            if !src.is_empty() {
                room -= src.len();
                lane.push((src, dst));
            }
        }
        if !lane.is_empty() {
            spawn(lane);
        }
    });
}

/// Copies `src` into `dst` (equal lengths), splitting across up to
/// [`MAX_LANES`] scoped threads when large enough to pay off.
///
/// # Panics
///
/// Panics if the slice lengths differ.
pub fn copy_par(dst: &mut [u8], src: &[u8]) {
    assert_eq!(dst.len(), src.len(), "copy_par needs equal lengths");
    // SAFETY: `u8` and `MaybeUninit<u8>` share a layout, and `copy_lanes`
    // only writes initialized bytes through this view, so `dst` never
    // holds an uninitialized byte.
    let dst = unsafe { &mut *(dst as *mut [u8] as *mut [MaybeUninit<u8>]) };
    copy_lanes(src.len(), std::iter::once((src, dst)));
}

/// Appends `src` to `vec` with one reservation and a (possibly parallel)
/// copy into the spare capacity — no intermediate zero-fill of the new
/// region, unlike `resize`-then-overwrite.
pub fn extend_par(vec: &mut Vec<u8>, src: &[u8]) {
    extend_scatter(vec, &[src]);
}

/// Appends the concatenation of `parts` to `vec` with one reservation,
/// fanning the bytes across copy lanes (each part lands at its exact
/// offset, so lane order is irrelevant). The scatter-gather core of the
/// WS-file builder.
pub fn extend_scatter(vec: &mut Vec<u8>, parts: &[&[u8]]) {
    let total: usize = parts.iter().map(|p| p.len()).sum();
    vec.reserve(total);
    let start = vec.len();
    // Pair every part with its destination chunk of spare capacity.
    let mut spare = &mut vec.spare_capacity_mut()[..total];
    let jobs = parts.iter().map(|part| {
        let (dst, rest) = std::mem::take(&mut spare).split_at_mut(part.len());
        spare = rest;
        (*part, dst)
    });
    copy_lanes(total, jobs);
    // SAFETY: the jobs covered `spare[..total]` exactly (split_at_mut
    // partitions it), and `copy_lanes` initialized every job's region.
    unsafe { vec.set_len(start + total) };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn copy_par_small_and_large() {
        let small: Vec<u8> = (0..100u8).collect();
        let mut dst = vec![0u8; 100];
        copy_par(&mut dst, &small);
        assert_eq!(dst, small);

        let big: Vec<u8> = (0..(3 * PAR_THRESHOLD_BYTES)).map(|i| i as u8).collect();
        let mut dst = vec![0u8; big.len()];
        copy_par(&mut dst, &big);
        assert_eq!(dst, big);
    }

    #[test]
    #[should_panic(expected = "equal lengths")]
    fn copy_par_length_mismatch() {
        copy_par(&mut [0u8; 3], &[1u8; 4]);
    }

    #[test]
    fn extend_par_appends_exactly() {
        let mut v: Vec<u8> = vec![1, 2, 3];
        let src: Vec<u8> = (0..10_000u32).map(|i| i as u8).collect();
        extend_par(&mut v, &src);
        assert_eq!(v.len(), 3 + src.len());
        assert_eq!(&v[..3], &[1, 2, 3]);
        assert_eq!(&v[3..], &src[..]);

        // Large append crosses the parallel threshold.
        let big: Vec<u8> = (0..(2 * PAR_THRESHOLD_BYTES + 7)).map(|i| (i * 31) as u8).collect();
        let mut v = Vec::new();
        extend_par(&mut v, &big);
        assert_eq!(v, big);
    }

    #[test]
    fn extend_scatter_matches_concatenation() {
        let a: Vec<u8> = (0..100_000usize).map(|i| i as u8).collect();
        let b = vec![7u8; 13];
        let c: Vec<u8> = (0..(2 * PAR_THRESHOLD_BYTES)).map(|i| (i * 17) as u8).collect();
        let parts: Vec<&[u8]> = vec![&a, &b, &c, &[]];
        let mut v = vec![42u8];
        extend_scatter(&mut v, &parts);
        let mut expect = vec![42u8];
        for p in &parts {
            expect.extend_from_slice(p);
        }
        assert_eq!(v, expect);

        // Empty part list is a no-op.
        let mut v2 = vec![1u8, 2];
        extend_scatter(&mut v2, &[]);
        assert_eq!(v2, vec![1, 2]);
    }

    /// Threads spawned on this thread's behalf while `f` ran.
    fn spawned_by(f: impl FnOnce()) -> usize {
        let before = LANES_SPAWNED.with(|n| n.get());
        f();
        LANES_SPAWNED.with(|n| n.get()) - before
    }

    #[test]
    fn small_copies_never_spawn_and_large_ones_use_every_lane() {
        let small = vec![5u8; PAR_THRESHOLD_BYTES - 1];
        let (head, tail) = small.split_at(4096);
        let mut dst = vec![0u8; small.len()];
        let mut v = Vec::new();
        assert_eq!(spawned_by(|| copy_par(&mut dst, &small)), 0);
        assert_eq!(spawned_by(|| extend_par(&mut v, head)), 0);
        assert_eq!(spawned_by(|| extend_par(&mut v, &small)), 0);
        assert_eq!(spawned_by(|| extend_scatter(&mut v, &[head, tail])), 0);
        assert_eq!(spawned_by(|| extend_scatter(&mut v, &[])), 0);

        // One usable core keeps even large copies on the caller's thread.
        let lanes = if host_lanes() == 1 { 0 } else { host_lanes() };
        let big = vec![9u8; PAR_THRESHOLD_BYTES];
        let mut dst = vec![0u8; big.len()];
        assert_eq!(spawned_by(|| copy_par(&mut dst, &big)), lanes);
        assert_eq!(spawned_by(|| extend_par(&mut v, &big)), lanes);
        // Many small parts that only together cross the threshold.
        let parts: Vec<&[u8]> = big.chunks(4096).collect();
        assert_eq!(spawned_by(|| extend_scatter(&mut v, &parts)), lanes);
        assert_eq!(dst, big);
        assert!(v.ends_with(&big));
    }
}
