//! Guest kernel activity model: which pages the kernel touches when.
//!
//! Two plans matter for the paper's analysis:
//!
//! * the **boot plan** — pages the guest kernel and the in-VM agents touch
//!   while booting. These inflate the booted footprint (Fig 4's 148–256 MB
//!   bars) but are *not* re-touched when serving an invocation, which is
//!   why snapshot-restored instances are so much smaller;
//! * the **RPC plan** — the ~8 MB "infrastructure" working set (§4.4):
//!   gRPC server + TCP stack + agent pages touched on *every* invocation.
//!   This set is stable across invocations, so REAP prefetches it and
//!   connection restoration shrinks ~45× (§6.3).
//!
//! A plan is a list of [`PageRun`]s, the run type guest memory uses, so a
//! vCPU replays each entry as one window with no conversion.

use guest_mem::PageRun;

use crate::layout::{AddressSpace, RegionDesc, RegionKind};

/// Selects runs of `run_len` pages every `stride` pages across a region,
/// starting `offset` pages in — a deterministic "striping" used to model
/// partially-touched regions with the short-run contiguity of Fig 3.
///
/// # Panics
///
/// Panics if `run_len == 0` or `stride < run_len`.
pub fn stripe(region: RegionDesc, offset: u64, run_len: u64, stride: u64) -> Vec<PageRun> {
    assert!(run_len > 0, "run length must be positive");
    assert!(stride >= run_len, "stride must cover the run");
    let mut chunks = Vec::new();
    let mut pos = offset;
    while pos < region.pages {
        let len = run_len.min(region.pages - pos);
        chunks.push(PageRun::new(region.first.add(pos), len));
        pos += stride;
    }
    chunks
}

/// The guest kernel's touch-plan generator for one VM.
#[derive(Debug, Clone)]
pub struct GuestKernel {
    kernel_text: RegionDesc,
    kernel_data: RegionDesc,
    net_stack: RegionDesc,
    agents: RegionDesc,
}

impl GuestKernel {
    /// Captures the regions of `space` the kernel owns.
    pub fn new(space: &AddressSpace) -> Self {
        GuestKernel {
            kernel_text: space.region(RegionKind::KernelText),
            kernel_data: space.region(RegionKind::KernelData),
            net_stack: space.region(RegionKind::NetStack),
            agents: space.region(RegionKind::Agents),
        }
    }

    /// Pages touched while booting the guest OS and starting the in-VM
    /// agents (Containerd agents, gRPC server): large, mostly-sequential
    /// sweeps. Touched once at boot; most are never needed again during
    /// invocation processing (§4.3).
    pub fn boot_plan(&self) -> Vec<PageRun> {
        let mut plan = Vec::new();
        // Kernel decompression + init touches ~all of the text sequentially.
        plan.extend(stripe(self.kernel_text, 0, 32, 32));
        // Kernel data structures: ~80%, in bigger strides.
        plan.extend(stripe(self.kernel_data, 0, 26, 32));
        // Network stack init.
        plan.extend(stripe(self.net_stack, 0, 16, 16));
        // Agents fully loaded + relocated at start.
        plan.extend(stripe(self.agents, 0, 32, 32));
        plan
    }

    /// The stable per-invocation infrastructure set (§4.4, ≈8 MB): the
    /// gRPC/agent pages plus the TCP path through the kernel, in short
    /// runs (Fig 3 contiguity) spread *sparsely* across the mapped
    /// regions — the lack of spatial locality that defeats the host's
    /// readahead (§4.2). Identical on every invocation — stability is what
    /// makes REAP's record-once approach work.
    pub fn rpc_plan(&self) -> Vec<PageRun> {
        let mut plan = Vec::new();
        // Agent/gRPC server code+data actually exercised per request:
        // ~9% of the mapped region, in 3-page runs 32 pages apart — far
        // enough apart that one readahead cluster covers a single run.
        plan.extend(stripe(self.agents, 0, 3, 32));
        // Socket buffers + TCP state: ~22% of the net-stack region.
        plan.extend(stripe(self.net_stack, 1, 2, 9));
        // Kernel text on the syscall/network path: ~5%.
        plan.extend(stripe(self.kernel_text, 2, 2, 40));
        // Kernel data (socket structs, sk_buffs): ~3%.
        plan.extend(stripe(self.kernel_data, 4, 2, 64));
        plan
    }

    /// The subset of the RPC plan touched while re-establishing the gRPC
    /// connection to the guest server (the paper's *Connection
    /// restoration* phase, Fig 2): the TCP/socket path plus the accept
    /// path through the agents. The remainder of the infrastructure set
    /// faults later, while the request itself is processed.
    pub fn conn_plan(&self) -> Vec<PageRun> {
        let agents = stripe(self.agents, 0, 3, 32);
        let keep = agents.len() * 6 / 10;
        let mut plan: Vec<PageRun> = agents.into_iter().take(keep).collect();
        plan.extend(stripe(self.net_stack, 1, 2, 9));
        plan
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::LayoutSpec;

    fn plan_pages(plan: &[PageRun]) -> u64 {
        plan.iter().map(|c| c.len).sum()
    }

    fn kernel() -> GuestKernel {
        let space = AddressSpace::new(65536, LayoutSpec::default());
        GuestKernel::new(&space)
    }

    #[test]
    fn stripe_covers_expected_fraction() {
        let space = AddressSpace::new(65536, LayoutSpec::default());
        let agents = space.region(RegionKind::Agents);
        let chunks = stripe(agents, 0, 3, 5);
        let n = plan_pages(&chunks);
        // 3 of every 5 pages = 60%.
        let frac = n as f64 / agents.pages as f64;
        assert!((frac - 0.6).abs() < 0.01, "got {n} pages ({frac:.2})");
        // All chunks inside the region.
        for c in &chunks {
            assert!(agents.contains(c.first));
            assert!(c.end() <= agents.end());
        }
    }

    #[test]
    fn conn_plan_is_strict_subset_of_rpc_plan() {
        let k = kernel();
        let rpc: std::collections::BTreeSet<u64> = k
            .rpc_plan()
            .iter()
            .flat_map(|c| c.iter())
            .map(|p| p.as_u64())
            .collect();
        let conn: std::collections::BTreeSet<u64> = k
            .conn_plan()
            .iter()
            .flat_map(|c| c.iter())
            .map(|p| p.as_u64())
            .collect();
        assert!(conn.is_subset(&rpc), "conn pages must all be infra pages");
        let frac = conn.len() as f64 / rpc.len() as f64;
        assert!(
            (0.4..0.8).contains(&frac),
            "conn phase touches a bit over half the infra set, got {frac:.2}"
        );
    }

    #[test]
    fn stripe_handles_tail() {
        let space = AddressSpace::new(65536, LayoutSpec::default());
        let net = space.region(RegionKind::NetStack); // 512 pages
        let chunks = stripe(net, 510, 4, 8);
        assert_eq!(chunks.len(), 1);
        assert_eq!(chunks[0].len, 2, "tail clipped to the region end");
    }

    #[test]
    fn rpc_plan_is_about_8mb_and_stable() {
        let k = kernel();
        let pages = plan_pages(&k.rpc_plan());
        let mb = pages as f64 * 4096.0 / 1e6;
        // §4.4: "up to 8MB" of infrastructure working set.
        assert!((6.0..9.0).contains(&mb), "rpc set should be ~8 MB, got {mb:.1}");
        // Deterministic: two computations agree chunk-for-chunk.
        assert_eq!(k.rpc_plan(), k.rpc_plan());
    }

    #[test]
    fn rpc_plan_has_short_runs() {
        let k = kernel();
        let max_run = k.rpc_plan().iter().map(|c| c.len).max().unwrap();
        assert!(max_run <= 3, "infra touches come in short runs (Fig 3)");
    }

    #[test]
    fn boot_plan_is_superset_scale_of_rpc_plan() {
        let k = kernel();
        let boot = plan_pages(&k.boot_plan());
        let rpc = plan_pages(&k.rpc_plan());
        assert!(
            boot > 2 * rpc,
            "boot touches far more than an invocation: {boot} vs {rpc}"
        );
    }

    #[test]
    fn chunk_iter_yields_consecutive_pages() {
        let space = AddressSpace::new(65536, LayoutSpec::default());
        let net = space.region(RegionKind::NetStack);
        let c = stripe(net, 10, 3, 8)[0];
        let pages: Vec<u64> = c.iter().map(|p| p.as_u64()).collect();
        let first = net.first.as_u64() + 10;
        assert_eq!(pages, vec![first, first + 1, first + 2]);
    }

    #[test]
    #[should_panic(expected = "stride must cover")]
    fn bad_stride_rejected() {
        let space = AddressSpace::new(65536, LayoutSpec::default());
        let _ = stripe(space.region(RegionKind::NetStack), 0, 4, 2);
    }
}
