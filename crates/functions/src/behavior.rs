//! Function execution behaviour: the op streams a vCPU replays.
//!
//! Each function runs in three phases, mirroring the lifecycle the paper
//! instruments (§4.1):
//!
//! 1. **boot/init** ([`FunctionProgram::install`]) — guest kernel boot,
//!    runtime imports, function initialization. Everything this phase
//!    touches is captured in the snapshot and inflates the booted footprint
//!    (Fig 4 blue bars) but is mostly *never touched again*;
//! 2. **invocation** ([`FunctionProgram::invocation_ops`]) — the stable
//!    infrastructure set (gRPC/net-stack, §4.4), the exercised runtime
//!    slice, the persistent model buffers, plus *input-dependent* arena
//!    spans and small allocator variance — the sources of Fig 5's unique
//!    pages;
//! 3. **teardown** — transient allocations return to the buddy allocator,
//!    restoring snapshot-identical allocator state (the §4.4 stability
//!    mechanism).
//!
//! Touches are emitted in short interleaved runs whose mean length is the
//! spec's `contiguity_run`, reproducing Fig 3.

use guest_mem::{PageBitmap, PageIdx, PageRun};
use guest_os::{AddressSpace, GuestKernel, RegionKind};
use sim_core::{DetRng, SimDuration};

use crate::input::InvocationInput;
use crate::spec::{FunctionId, FunctionSpec};

/// One step of guest execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GuestOp {
    /// Access a run of guest-physical pages (read or write — both fault
    /// identically on first touch).
    Touch(PageRun),
    /// Execute on the vCPU for the given duration without new page
    /// touches.
    Compute(SimDuration),
}

/// The distinct pages a stream of ops touches, as a set over a guest of
/// `guest_pages` pages: one [`PageBitmap::set_run`] per touch. Panics if a
/// touch reaches past the guest.
pub fn touched_pages<'a>(ops: impl IntoIterator<Item = &'a GuestOp>, guest_pages: u64) -> PageBitmap {
    let mut set = PageBitmap::new(guest_pages);
    for op in ops {
        if let GuestOp::Touch(run) = op {
            set.set_run(*run);
        }
    }
    set
}

/// Total compute across a stream of ops.
pub fn total_compute(ops: &[GuestOp]) -> SimDuration {
    ops.iter()
        .map(|op| match op {
            GuestOp::Compute(d) => *d,
            GuestOp::Touch(_) => SimDuration::ZERO,
        })
        .sum()
}

/// An installed function: resolved page sets inside one VM's address
/// space.
///
/// Created by [`FunctionProgram::install`], which also returns the boot-
/// phase op stream. Subsequent [`invocation_ops`](Self::invocation_ops)
/// calls generate per-request streams.
#[derive(Debug, Clone)]
pub struct FunctionProgram {
    id: FunctionId,
    /// Runtime-code pages exercised on every invocation (stable).
    stable_runtime: Vec<PageRun>,
    /// Persistent heap buffers (loaded models etc.; stable).
    stable_heap: Vec<PageRun>,
    /// Function handler code.
    func_code: Vec<PageRun>,
    /// Base and size (pages) of the input-data arena.
    input_arena: (PageIdx, u64),
    /// Base and size (pages) of the scratch/variance arena.
    scratch_arena: (PageIdx, u64),
    /// Pages the boot phase touched (for footprint assertions).
    boot_touched_pages: u64,
}

/// Splits a chunk list into runs of at most `run` pages.
fn rechunk(chunks: &[PageRun], run: u64) -> Vec<PageRun> {
    let mut out = Vec::new();
    for c in chunks {
        let mut off = 0;
        while off < c.len {
            let len = run.min(c.len - off);
            out.push(PageRun::new(c.first.add(off), len));
            off += len;
        }
    }
    out
}

/// Boot-time compute estimate: kernel boot + runtime imports + function
/// init. Scales with the booted footprint (TensorFlow imports dwarf a
/// helloworld), matching the §2.2 observation that in-VM bootstrap takes
/// up to several seconds.
fn boot_compute_ms(spec: &FunctionSpec) -> f64 {
    500.0 + 8.0 * spec.boot_footprint_mb as f64
}

impl FunctionProgram {
    /// Boots the function inside `space`: returns the installed program and
    /// the boot-phase op stream (to be replayed by a booting VM).
    pub fn install(id: FunctionId, space: &mut AddressSpace, kernel: &GuestKernel) -> (Self, Vec<GuestOp>) {
        let spec = id.spec();
        let mut ops = Vec::new();
        let mut boot_set = PageBitmap::new(space.total_pages());
        let emit = |ops: &mut Vec<GuestOp>, set: &mut PageBitmap, chunk: PageRun| {
            set.set_run(chunk);
            ops.push(GuestOp::Touch(chunk));
        };

        // 1. Guest kernel boot + agents start.
        for c in kernel.boot_plan() {
            emit(&mut ops, &mut boot_set, c);
        }
        // 2. Runtime import sweep: all of the runtime-code region.
        let runtime = space.region(RegionKind::RuntimeCode);
        for c in rechunk(&[PageRun::new(runtime.first, runtime.pages)], 32) {
            emit(&mut ops, &mut boot_set, c);
        }
        // 3. Function handler code.
        let fc = space.region(RegionKind::FunctionCode);
        let func_code = rechunk(&[PageRun::new(fc.first, fc.pages)], 16);
        for c in &func_code {
            emit(&mut ops, &mut boot_set, *c);
        }

        // 4. Persistent init allocations (model weights, caches): 60% of the
        //    stable extra set lives on the heap, 40% is a runtime-code slice.
        //    Buffers grow incrementally (as Python heaps do), so each lands
        //    in a small buddy block; a 1-page spacer between buffers keeps
        //    them from merging into long physical runs — this is what gives
        //    the working set its 2-3 page guest-physical contiguity (Fig 3).
        let heap_stable_pages = spec.stable_extra_pages * 6 / 10;
        let runtime_stable_pages = spec.stable_extra_pages - heap_stable_pages;
        let run = spec.contiguity_run.max(1);
        let mut stable_heap = Vec::new();
        let mut remaining = heap_stable_pages;
        while remaining > 0 {
            let take = run.min(remaining);
            let start = space
                .alloc_heap(take)
                .expect("guest heap exhausted during function init");
            stable_heap.push(PageRun::new(start, take));
            // Non-power-of-two runs leave a natural hole from buddy
            // rounding; power-of-two runs need an explicit spacer so
            // consecutive buffers do not merge into long physical runs.
            if take.is_power_of_two() {
                let _spacer = space
                    .alloc_heap(1)
                    .expect("guest heap exhausted during function init");
            }
            remaining -= take;
        }
        for c in &stable_heap {
            emit(&mut ops, &mut boot_set, *c);
        }

        // Stable runtime slice: stride across the runtime region so the
        // per-invocation set is a scattered subset of the imported code.
        let stable_runtime = stable_runtime_stripe(runtime.first, runtime.pages, runtime_stable_pages, spec.contiguity_run);

        // 5. Arenas for per-invocation data. Input spans relocate inside a
        //    ~3x arena (driving Fig 5 uniqueness); scratch covers the small
        //    allocator variance. Spans are touched in run/skip patterns so
        //    even large inputs keep Fig 3's short physical contiguity.
        let max_input_pages =
            ((spec.input_kb.1 as f64 * spec.input_expansion) / 4.0).max(1.0) as u64;
        let max_span = max_input_pages + max_input_pages / run.max(2);
        let input_arena_pages = (2 * max_span).max(8);
        let input_base = space
            .alloc_heap(input_arena_pages.min(1024))
            .expect("input arena allocation failed");
        // Arenas larger than one buddy block are stitched from blocks; we
        // only need the base + virtual extent to be stable, so allocate the
        // remainder as follow-on blocks (buddy hands them out contiguously
        // from a fresh heap).
        let mut allocated = input_arena_pages.min(1024);
        while allocated < input_arena_pages {
            let block = (input_arena_pages - allocated).min(1024);
            let _ = space.alloc_heap(block).expect("input arena extension");
            allocated += block;
        }
        let scratch_pages = (4 * spec.variance_pages).max(8);
        let scratch_base = space
            .alloc_heap(scratch_pages.min(1024))
            .expect("scratch arena allocation failed");
        let mut allocated = scratch_pages.min(1024);
        while allocated < scratch_pages {
            let block = (scratch_pages - allocated).min(1024);
            let _ = space.alloc_heap(block).expect("scratch arena extension");
            allocated += block;
        }

        // 6. Boot-only filler (page cache, rootfs reads, init-only code
        //    paths): touched from the *top* of the heap so the paper's
        //    booted-footprint targets (Fig 4) are met without occupying the
        //    allocator.
        let footprint_target = spec.boot_footprint_mb * 1024 * 1024 / 4096;
        let heap = space.region(RegionKind::Heap);
        let already = boot_set.count();
        let filler = footprint_target.saturating_sub(already).min(heap.pages);
        if filler > 0 {
            let filler_first = heap.end().as_u64() - filler;
            for c in rechunk(&[PageRun::new(PageIdx::new(filler_first), filler)], 32) {
                emit(&mut ops, &mut boot_set, c);
            }
        }

        // Distribute boot compute across the stream.
        let compute = SimDuration::from_millis_f64(boot_compute_ms(spec));
        intersperse_compute(&mut ops, compute);

        let program = FunctionProgram {
            id,
            stable_runtime,
            stable_heap,
            func_code,
            input_arena: (input_base, input_arena_pages),
            scratch_arena: (scratch_base, scratch_pages),
            boot_touched_pages: boot_set.count(),
        };
        (program, ops)
    }

    /// Which function this program is.
    pub fn id(&self) -> FunctionId {
        self.id
    }

    /// Pages the boot phase touched.
    pub fn boot_touched_pages(&self) -> u64 {
        self.boot_touched_pages
    }

    /// Generates the op stream for serving one invocation.
    ///
    /// Transient allocations (video_processing's OpenCV mats) are freed at
    /// the end, restoring the buddy allocator to its snapshot state — the
    /// §4.4 stability mechanism.
    pub fn invocation_ops(&self, space: &mut AddressSpace, kernel: &GuestKernel, input: &InvocationInput) -> Vec<GuestOp> {
        let spec = self.id.spec();
        let mut rng = DetRng::new(input.content_seed);
        let run = spec.contiguity_run;

        // Source 1: the stable infrastructure set (gRPC + net stack).
        let infra = kernel.rpc_plan();
        // Source 2: exercised runtime code.
        let runtime = self.stable_runtime.clone();
        // Source 3: persistent model/heap buffers.
        let heap = rechunk(&self.stable_heap, run);
        // Source 4: handler code.
        let code = self.func_code.clone();
        // Source 5: input span inside the arena, relocated by content. The
        // span is touched in run/skip strides so its guest-physical
        // contiguity stays short (Fig 3) even for multi-MB inputs.
        let input_chunks = {
            let stride_run = run.max(2);
            let p = input.derived_pages(spec);
            let span = (p + p / stride_run).min(self.input_arena.1);
            let (base, arena) = self.input_arena;
            let slack = arena - span;
            // Quantize the start so overlaps across invocations come in
            // large steps (whole/half/no overlap), as reallocation patterns
            // do in practice.
            let quantum = (span / 2).max(1);
            let start_off = if slack == 0 {
                0
            } else {
                (rng.gen_range(slack + 1) / quantum) * quantum
            };
            let mut chunks = Vec::new();
            let mut touched = 0;
            let mut off = start_off;
            while touched < p && off + stride_run <= arena {
                let take = stride_run.min(p - touched);
                chunks.push(PageRun::new(base.add(off), take));
                touched += take;
                off += stride_run + 1; // skip one page between runs
            }
            chunks
        };
        // Source 6: allocator variance in the scratch arena.
        let scratch_chunks = {
            let (base, arena) = self.scratch_arena;
            let mut chunks = Vec::new();
            let mut left = spec.variance_pages;
            while left > 0 {
                let len = rng.run_length(1.5, 2).min(left);
                let off = rng.gen_range(arena.saturating_sub(len).max(1));
                chunks.push(PageRun::new(base.add(off), len));
                left -= len;
            }
            chunks
        };
        // Source 7 (video_processing): transient OpenCV mats whose
        // allocation order/size depends on the input's aspect ratio,
        // shifting guest-physical layout between invocations (§6.3). Mats
        // are touched in run/skip strides like input spans.
        let mut transient: Vec<(PageIdx, Vec<PageRun>)> = Vec::new();
        if spec.layout_shift {
            // Mats are allocated in <=4 MB chunks (the guest buddy's max
            // order). Different aspect ratios stride the mats with a
            // different row pitch, so a different *phase* of each mat's
            // pages is hot — this is what defeats the recorded working set
            // in §6.3's video_processing anomaly.
            let phase = if input.shape == 0 { 0 } else { 2 };
            for pages in [1024u64, 1024, 1024] {
                match space.alloc_heap(pages) {
                    Ok(start) => {
                        let mut chunks = Vec::new();
                        let mut off = phase;
                        while off + run <= pages {
                            chunks.push(PageRun::new(start.add(off), run));
                            off += run + 1;
                        }
                        transient.push((start, chunks));
                    }
                    Err(e) => panic!("transient mat allocation failed: {e}"),
                }
            }
        }

        // Interleave all sources round-robin, starting from a rotated
        // position: runs from different regions alternate, which is what
        // keeps faulted-page contiguity short (Fig 3).
        let mut sources: Vec<Vec<PageRun>> = vec![infra, runtime, heap, code, input_chunks, scratch_chunks];
        for (_, chunks) in &transient {
            sources.push(chunks.clone());
        }
        let mut ops = Vec::new();
        let rotation = rng.gen_range(sources.len() as u64) as usize;
        sources.rotate_left(rotation);
        let mut cursors = vec![0usize; sources.len()];
        loop {
            let mut emitted = false;
            for (i, source) in sources.iter().enumerate() {
                if cursors[i] < source.len() {
                    ops.push(GuestOp::Touch(source[cursors[i]]));
                    cursors[i] += 1;
                    emitted = true;
                }
            }
            if !emitted {
                break;
            }
        }

        // Free transients: buddy returns to its snapshot state.
        for (start, _) in transient {
            space
                .free_heap(start)
                .expect("transient buffer double-free");
        }

        // Spread the function's warm compute across the stream.
        intersperse_compute(&mut ops, SimDuration::from_millis_f64(spec.warm_ms));
        ops
    }
}

/// Builds the stable runtime-code stripe: `pages` pages across the region
/// in runs of `run`, evenly strided.
fn stable_runtime_stripe(first: PageIdx, region_pages: u64, pages: u64, run: u64) -> Vec<PageRun> {
    if pages == 0 {
        return Vec::new();
    }
    let run = run.max(1);
    let n_runs = pages.div_ceil(run);
    let stride = (region_pages / n_runs).max(run);
    let mut chunks = Vec::new();
    let mut emitted = 0;
    let mut pos = 0;
    while emitted < pages && pos + run <= region_pages {
        let len = run.min(pages - emitted);
        chunks.push(PageRun::new(first.add(pos), len));
        emitted += len;
        pos += stride;
    }
    // If the stride walked off the end before emitting everything, pack the
    // remainder at the end of the region.
    if emitted < pages {
        let len = pages - emitted;
        chunks.push(PageRun::new(first.add(region_pages - len), len));
    }
    chunks
}

/// Inserts compute segments after every touch op, splitting `total`
/// evenly. A trailing segment carries the rounding remainder.
fn intersperse_compute(ops: &mut Vec<GuestOp>, total: SimDuration) {
    if total.is_zero() {
        return;
    }
    let touches = ops
        .iter()
        .filter(|op| matches!(op, GuestOp::Touch(_)))
        .count();
    if touches == 0 {
        ops.push(GuestOp::Compute(total));
        return;
    }
    let per = total / touches as u64;
    let mut out = Vec::with_capacity(ops.len() * 2);
    let mut spent = SimDuration::ZERO;
    for op in ops.drain(..) {
        let is_touch = matches!(op, GuestOp::Touch(_));
        out.push(op);
        if is_touch && !per.is_zero() {
            out.push(GuestOp::Compute(per));
            spent += per;
        }
    }
    let rem = total.saturating_sub(spent);
    if !rem.is_zero() {
        out.push(GuestOp::Compute(rem));
    }
    *ops = out;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::input::InputGenerator;
    use crate::spec::INFRA_PAGES;
    use guest_os::LayoutSpec;

    /// The touched set of one invocation.
    fn ws(space: &mut AddressSpace, kernel: &GuestKernel, program: &FunctionProgram, input: &InvocationInput) -> PageBitmap {
        let ops = program.invocation_ops(space, kernel, input);
        touched_pages(&ops, space.total_pages())
    }

    fn setup(id: FunctionId) -> (AddressSpace, GuestKernel, FunctionProgram, Vec<GuestOp>) {
        let mut space = AddressSpace::new(65536, LayoutSpec::default());
        let kernel = GuestKernel::new(&space);
        let (program, boot_ops) = FunctionProgram::install(id, &mut space, &kernel);
        (space, kernel, program, boot_ops)
    }

    #[test]
    fn boot_footprint_tracks_spec_target() {
        for id in [FunctionId::helloworld, FunctionId::cnn_serving, FunctionId::lr_training] {
            let (_, _, program, _) = setup(id);
            let mb = program.boot_touched_pages() as f64 * 4096.0 / (1024.0 * 1024.0);
            let target = id.spec().boot_footprint_mb as f64;
            assert!(
                (mb - target).abs() / target < 0.08,
                "{id}: boot footprint {mb:.0} MB should be near {target} MB"
            );
        }
    }

    #[test]
    fn invocation_ws_matches_expected_pages() {
        for id in FunctionId::ALL {
            let (mut space, kernel, program, _) = setup(id);
            let input = InputGenerator::new(id, 1).input(1);
            let ops = program.invocation_ops(&mut space, &kernel, &input);
            let ws = touched_pages(&ops, space.total_pages()).count();
            let expect = id.spec().expected_ws_pages();
            let ratio = ws as f64 / expect as f64;
            assert!(
                (0.75..1.35).contains(&ratio),
                "{id}: ws {ws} pages vs expected {expect} (ratio {ratio:.2})"
            );
        }
    }

    #[test]
    fn invocation_ops_are_deterministic_per_input() {
        let (mut space, kernel, program, _) = setup(FunctionId::pyaes);
        let input = InputGenerator::new(FunctionId::pyaes, 5).input(3);
        let a = program.invocation_ops(&mut space, &kernel, &input);
        let b = program.invocation_ops(&mut space, &kernel, &input);
        assert_eq!(a, b);
    }

    #[test]
    fn working_set_is_stable_across_inputs_for_small_input_functions() {
        // Fig 5: >97% of pages identical across invocations for 7/10
        // functions.
        for id in [FunctionId::helloworld, FunctionId::pyaes, FunctionId::cnn_serving] {
            let (mut space, kernel, program, _) = setup(id);
            let gen = InputGenerator::new(id, 2);
            let ws1 = ws(&mut space, &kernel, &program, &gen.input(1));
            let ws2 = ws(&mut space, &kernel, &program, &gen.input(2));
            let same = ws1.count_common(&ws2) as f64;
            let reuse = same / ws1.count() as f64;
            assert!(
                reuse > 0.93,
                "{id}: reuse {reuse:.3} should be high for small-input functions"
            );
        }
    }

    #[test]
    fn large_input_functions_reuse_less_but_above_70pct() {
        for id in [FunctionId::image_rotate, FunctionId::json_serdes, FunctionId::lr_training] {
            let (mut space, kernel, program, _) = setup(id);
            let gen = InputGenerator::new(id, 3);
            let ws1 = ws(&mut space, &kernel, &program, &gen.input(1));
            let ws2 = ws(&mut space, &kernel, &program, &gen.input(2));
            let same = ws1.count_common(&ws2) as f64;
            let reuse = same / ws1.count() as f64;
            assert!(
                (0.70..0.995).contains(&reuse),
                "{id}: reuse {reuse:.3} should be lower but above the paper's 76% floor"
            );
        }
    }

    #[test]
    fn video_processing_shape_shifts_layout() {
        let id = FunctionId::video_processing;
        let (mut space, kernel, program, _) = setup(id);
        let gen = InputGenerator::new(id, 4);
        // Find two inputs with different aspect classes.
        let a = (0..32).map(|s| gen.input(s)).find(|i| i.shape == 0).unwrap();
        let b = (0..32).map(|s| gen.input(s)).find(|i| i.shape == 1).unwrap();
        let ws_a = ws(&mut space, &kernel, &program, &a);
        let ws_b = ws(&mut space, &kernel, &program, &b);
        let same = ws_a.count_common(&ws_b) as f64;
        let reuse = same / ws_a.count().max(ws_b.count()) as f64;
        assert!(
            reuse < 0.92,
            "aspect shift should displace a noticeable page share, reuse {reuse:.3}"
        );
        // Buddy state restored: same input again gives identical set.
        let ws_a2 = ws(&mut space, &kernel, &program, &a);
        assert_eq!(ws_a, ws_a2, "allocator state must recur after free");
    }

    #[test]
    fn compute_total_equals_warm_latency() {
        for id in [FunctionId::helloworld, FunctionId::lr_training] {
            let (mut space, kernel, program, _) = setup(id);
            let input = InputGenerator::new(id, 6).input(1);
            let ops = program.invocation_ops(&mut space, &kernel, &input);
            let compute = total_compute(&ops);
            let warm = id.spec().warm_ms;
            assert!(
                (compute.as_millis_f64() - warm).abs() < 0.01,
                "{id}: compute {:.3} ms != warm {warm} ms",
                compute.as_millis_f64()
            );
        }
    }

    #[test]
    fn touch_runs_are_short() {
        // Fig 3: contiguity of 2-3 pages (5 for lr_training).
        let (mut space, kernel, program, _) = setup(FunctionId::json_serdes);
        let input = InputGenerator::new(FunctionId::json_serdes, 7).input(1);
        let ops = program.invocation_ops(&mut space, &kernel, &input);
        let max_run = ops
            .iter()
            .filter_map(|op| match op {
                GuestOp::Touch(c) => Some(c.len),
                GuestOp::Compute(_) => None,
            })
            .max()
            .unwrap();
        assert!(max_run <= 16, "touch runs stay short, got {max_run}");
    }

    #[test]
    fn infra_set_is_subset_of_every_invocation() {
        let (mut space, kernel, program, _) = setup(FunctionId::chameleon);
        let input = InputGenerator::new(FunctionId::chameleon, 8).input(1);
        let ws = ws(&mut space, &kernel, &program, &input);
        let mut infra_pages = 0u64;
        for c in kernel.rpc_plan() {
            for p in c.iter() {
                assert!(ws.get(p), "infra page {p} missing from ws");
                infra_pages += 1;
            }
        }
        assert_eq!(infra_pages, INFRA_PAGES, "INFRA_PAGES constant drifted");
    }

    #[test]
    fn boot_ops_include_compute() {
        let (_, _, _, boot_ops) = setup(FunctionId::helloworld);
        let compute = total_compute(&boot_ops);
        assert!(
            compute.as_millis_f64() > 400.0,
            "boot compute should be substantial (§2.2), got {compute}"
        );
    }

    #[test]
    fn rechunk_splits_exactly() {
        let chunks = vec![PageRun::new(PageIdx::new(0), 10)];
        let out = rechunk(&chunks, 3);
        let total: u64 = out.iter().map(|c| c.len).sum();
        assert_eq!(total, 10);
        assert!(out.iter().all(|c| c.len <= 3));
        assert_eq!(out.len(), 4);
    }

    #[test]
    fn stripe_emits_exact_page_count() {
        for pages in [1u64, 7, 100, 819] {
            let chunks = stable_runtime_stripe(PageIdx::new(0), 8192, pages, 3);
            let total: u64 = chunks.iter().map(|c| c.len).sum();
            assert_eq!(total, pages, "stripe must emit exactly {pages}");
        }
    }
}
