//! The frame cache's replacement policy scored by its distance from
//! Belady's MIN ("How Low Can You Go?", PAPERS.md), on the access pattern
//! the paper's §4 finding implies: every invocation of a function touches
//! the same working set, so a budget below the fleet's footprint sees a
//! loop over working sets — `reap_thrash`'s shape.

use std::collections::HashMap;

use sim_storage::{FileId, FileStore, FrameCacheDelta, SnapshotFrameCache};

/// Extent lengths are multiples of this.
const UNIT: u64 = 256;
/// Extents every working set shares: the runtime image's pages, cached
/// once however many functions map them.
const SHARED: u64 = 8;

/// A content id's length: one to four units, so evictions free uneven
/// byte counts as real extents do.
fn len_of(content: u64) -> u64 {
    UNIT * (1 + (content * 5) % 4)
}

/// One function's working set: its WS file and its extents, as
/// `(offset, content id)`.
struct WorkingSet {
    file: FileId,
    extents: Vec<(u64, u64)>,
}

/// A store holding one WS file per function: the shared extents, then
/// `private[i]` extents with content no other function has.
fn fleet(fs: &FileStore, private: &[u64]) -> Vec<WorkingSet> {
    let mut next_private = SHARED;
    private
        .iter()
        .enumerate()
        .map(|(i, &n)| {
            let file = fs.create(&format!("fn{i}/ws"));
            let contents = (0..SHARED).chain(next_private..next_private + n);
            next_private += n;
            let mut offset = 0;
            let extents = contents
                .map(|c| {
                    let at = offset;
                    offset += len_of(c);
                    fs.write_at(file, at, &c.to_le_bytes().repeat((len_of(c) / 8) as usize));
                    (at, c)
                })
                .collect();
            WorkingSet { file, extents }
        })
        .collect()
}

/// Distinct content bytes the working sets `sets` touch.
fn footprint(sets: &[&WorkingSet]) -> u64 {
    let mut contents: Vec<u64> = sets
        .iter()
        .flat_map(|ws| ws.extents.iter().map(|e| e.1))
        .collect();
    contents.sort_unstable();
    contents.dedup();
    contents.into_iter().map(len_of).sum()
}

/// One invocation: looks up every extent of `ws`; returns (bytes served
/// by hits, bytes looked up).
fn invoke(fs: &FileStore, cache: &SnapshotFrameCache, ws: &WorkingSet) -> (u64, u64) {
    let mut out = (0, 0);
    for &(offset, content) in &ws.extents {
        let mut delta = FrameCacheDelta::default();
        cache
            .get_or_load_tracked(fs, ws.file, offset, len_of(content), false, &mut delta)
            .unwrap();
        out.0 += delta.hits * len_of(content);
        out.1 += len_of(content);
    }
    out
}

/// Belady's MIN over content ids, bypass allowed: a miss admits the item,
/// then the resident items whose next use lies furthest ahead — the
/// newcomer included — go until the bytes fit. Optimal for equal sizes;
/// with these mixed sizes it is the usual yardstick rather than a proven
/// optimum. Returns the byte-hit ratio.
fn min_byte_hits(trace: &[u64], budget: u64) -> f64 {
    let mut next_use = vec![usize::MAX; trace.len()];
    let mut seen = HashMap::new();
    for (i, &c) in trace.iter().enumerate().rev() {
        next_use[i] = seen.insert(c, i).unwrap_or(usize::MAX);
    }
    let mut resident: HashMap<u64, usize> = HashMap::new();
    let (mut bytes, mut hit, mut total) = (0, 0, 0);
    for (i, &c) in trace.iter().enumerate() {
        total += len_of(c);
        if resident.insert(c, next_use[i]).is_some() {
            hit += len_of(c);
        } else {
            bytes += len_of(c);
        }
        while bytes > budget {
            let (&victim, _) = resident
                .iter()
                .max_by_key(|&(&c, &next)| (next, c))
                .unwrap();
            resident.remove(&victim);
            bytes -= len_of(victim);
        }
    }
    hit as f64 / total as f64
}

/// The second chance (CLOCK) this cache used before bimodal insertion,
/// over content ids: a hit sets the entry's bit; a new entry takes the
/// slot freed last (just behind the hand), then the hand sweeps, clearing
/// and sparing referenced entries and evicting unreferenced ones until
/// the bytes fit. Returns the byte-hit ratio. Counting per content, as
/// MIN does, flatters it: a function's first lookup of content another
/// function loaded is a hit here, where the cache pays a store read to
/// deduplicate — the real CLOCK cache hit 0 % of this test's loop.
fn clock_byte_hits(trace: &[u64], budget: u64) -> f64 {
    let mut slots: Vec<Option<(u64, bool)>> = Vec::new();
    let (mut free, mut hand) = (Vec::new(), 0);
    let (mut bytes, mut hit, mut total) = (0, 0, 0);
    for &c in trace {
        total += len_of(c);
        if let Some(entry) = slots.iter_mut().flatten().find(|e| e.0 == c) {
            entry.1 = true;
            hit += len_of(c);
            continue;
        }
        bytes += len_of(c);
        match free.pop() {
            Some(at) => slots[at] = Some((c, false)),
            None => slots.push(Some((c, false))),
        }
        while bytes > budget {
            let at = hand;
            hand = (hand + 1) % slots.len();
            match &mut slots[at] {
                Some((_, referenced)) if *referenced => *referenced = false,
                Some((victim, _)) => {
                    bytes -= len_of(*victim);
                    slots[at] = None;
                    free.push(at);
                }
                None => {}
            }
        }
    }
    hit as f64 / total as f64
}

/// Every rotation of a loop over four working sets, 40 cycles under a
/// budget of 60 % of their deduplicated footprint: the cache's byte-hit
/// ratio is within a tenth of MIN's (0.603-0.620 against 0.642 with
/// bypass, 0.631 without: a bypassed miss of content another function
/// cached attaches no key), where the CLOCK it replaced keeps less than
/// half of what MIN does.
#[test]
fn bimodal_insertion_is_within_a_tenth_of_belady_on_every_rotation() {
    const CYCLES: usize = 40;
    let fs = FileStore::new();
    let sets = fleet(&fs, &[24, 32, 40, 48]);
    let budget = footprint(&sets.iter().collect::<Vec<_>>()) * 6 / 10;
    for rotation in 0..sets.len() {
        let order: Vec<usize> = (0..sets.len())
            .map(|i| (i + rotation) % sets.len())
            .collect();
        let cache = SnapshotFrameCache::new();
        cache.set_budget(Some(budget));
        let (mut hit, mut total) = (0, 0);
        let mut trace = Vec::new();
        for _ in 0..CYCLES {
            for &f in &order {
                let (h, t) = invoke(&fs, &cache, &sets[f]);
                (hit, total) = (hit + h, total + t);
                trace.extend(sets[f].extents.iter().map(|e| e.1));
            }
        }
        let cache_ratio = hit as f64 / total as f64;
        let (min, clock) = (
            min_byte_hits(&trace, budget),
            clock_byte_hits(&trace, budget),
        );
        assert!(
            cache_ratio >= 0.9 * min && clock < 0.5 * min,
            "order {order:?}: cache {cache_ratio:.3}, MIN {min:.3}, CLOCK {clock:.3}"
        );
    }
}

/// A phase change: after a four-function loop has filled the cache, the
/// loop switches to two new functions whose working sets fit the budget.
/// Each 32nd turn (admission or bypass) admits at the protected end and
/// displaces stale content, so the new loop's byte-hit ratio reaches 0.9
/// within 100 cycles and stays there: the missing share shrinks by about
/// 31/32 a cycle (72 cycles to a tenth; 53 here with bypass, 58 without,
/// as the last stale bytes free up).
/// Evicting the newest entry always would never let the new loop in.
#[test]
fn a_new_loop_displaces_a_stale_one_within_100_cycles() {
    let fs = FileStore::new();
    let sets = fleet(&fs, &[24, 32, 40, 48, 20, 28]);
    let budget = footprint(&sets[..4].iter().collect::<Vec<_>>()) * 6 / 10;
    assert!(footprint(&[&sets[4], &sets[5]]) < budget);
    let cache = SnapshotFrameCache::new();
    cache.set_budget(Some(budget));
    for _ in 0..10 {
        for ws in &sets[..4] {
            invoke(&fs, &cache, ws);
        }
    }
    let cycle = || {
        let ((h4, t4), (h5, t5)) = (invoke(&fs, &cache, &sets[4]), invoke(&fs, &cache, &sets[5]));
        (h4 + h5) as f64 / (t4 + t5) as f64
    };
    let converged = (1..=100).find(|_| cycle() >= 0.9);
    assert!(
        converged.is_some(),
        "byte-hit ratio still below 0.9 after 100 cycles"
    );
    for _ in 0..5 {
        assert!(
            cycle() >= 0.9,
            "converged at cycle {converged:?}, then fell back"
        );
    }
}
