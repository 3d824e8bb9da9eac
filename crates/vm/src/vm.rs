//! The microVM itself: configuration, boot, and lifecycle.

use functionbench::{FunctionId, FunctionProgram, GuestOp, InvocationInput};
use guest_mem::{GuestMemory, Uffd};
use guest_os::{AddressSpace, GuestKernel, LayoutSpec};

use crate::vcpu::{run_resident, ExecutionTrace};
use crate::vmm::VmmState;

/// VM configuration (§6.1: single vCPU, 256 MB guest memory — the minimum
/// that boots every studied function).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VmConfig {
    /// Guest memory size in MiB.
    pub mem_mib: u64,
    /// Number of vCPUs.
    pub vcpus: u32,
    /// Determinism seed (flows into content labels and host mapping
    /// addresses).
    pub seed: u64,
}

impl Default for VmConfig {
    fn default() -> Self {
        VmConfig {
            mem_mib: 256,
            vcpus: 1,
            seed: 1,
        }
    }
}

/// The guest-side structures of a booted VM: everything a snapshot holds
/// besides page contents. Booting builds it ([`FunctionProgram::install`]
/// replays the boot-time heap allocations); [`crate::Snapshot::capture`]
/// takes a copy from the paused VM and every restore clones that copy, so
/// a restored guest is the captured one (§2.3) rather than a fresh boot
/// assumed equal to it. §4.4 is why the copy stays valid across
/// invocations: each one returns the heap free lists to this state.
#[derive(Debug, Clone)]
pub struct GuestShell {
    /// Guest-physical layout, including the buddy heap's free lists.
    pub space: AddressSpace,
    /// Guest kernel model (boot, RPC and connection touch plans).
    pub kernel: GuestKernel,
    /// The installed function's resolved page sets.
    pub program: FunctionProgram,
}

/// A Firecracker-style microVM running one serverless function.
///
/// # Example
///
/// ```
/// use functionbench::FunctionId;
/// use microvm::{MicroVm, VmConfig};
///
/// let (vm, boot_trace) = MicroVm::boot(FunctionId::helloworld, VmConfig::default());
/// assert!(vm.footprint_bytes() > 100 * 1024 * 1024, "booted VMs are heavy (Fig 4)");
/// assert!(boot_trace.minor_faults > 30_000);
/// ```
#[derive(Debug)]
pub struct MicroVm {
    function: FunctionId,
    config: VmConfig,
    shell: GuestShell,
    uffd: Uffd,
    lazy: bool,
    content_label: u64,
    paused: bool,
}

/// Deterministic content label for a (function, seed) pair: page contents
/// in two VMs of the same function+seed are identical, as they would be
/// when cloned from one snapshot.
fn content_label(function: FunctionId, seed: u64) -> u64 {
    (function as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ seed
}

/// Host virtual address the guest memory region is mapped at.
fn region_base(function: FunctionId, seed: u64) -> u64 {
    0x7f00_0000_0000 + ((function as u64) << 36) + ((seed & 0xF) << 32)
}

impl MicroVm {
    /// Boots the guest structures (address space, kernel, installed
    /// function program) without touching memory, returning them with the
    /// boot op stream. Deterministic per (function, config).
    fn shell(function: FunctionId, config: VmConfig) -> (GuestShell, Vec<GuestOp>) {
        let pages = config.mem_mib * 1024 * 1024 / 4096;
        let mut space = AddressSpace::new(pages, LayoutSpec::default());
        let kernel = GuestKernel::new(&space);
        let (program, boot_ops) = FunctionProgram::install(function, &mut space, &kernel);
        (GuestShell { space, kernel, program }, boot_ops)
    }

    /// Boots a VM from scratch: builds the guest, then replays the boot op
    /// stream (guest kernel boot, runtime imports, function init),
    /// populating memory with deterministic contents. Returns the booted
    /// VM and the boot execution trace (for boot-latency experiments).
    pub fn boot(function: FunctionId, config: VmConfig) -> (MicroVm, ExecutionTrace) {
        Self::boot_into(function, config, Vec::new())
    }

    /// [`boot`](Self::boot) into a recycled frame slab — the arena a
    /// previous snapshot's memory file gave back
    /// ([`sim_storage::FileStore::swap_arena`]) — so the boot fills memory
    /// that is already faulted in. Only `slab`'s allocation is reused:
    /// the booted VM is byte-for-byte the one [`boot`](Self::boot) makes.
    pub fn boot_into(
        function: FunctionId,
        config: VmConfig,
        slab: Vec<u8>,
    ) -> (MicroVm, ExecutionTrace) {
        let (shell, boot_ops) = Self::shell(function, config);
        let label = content_label(function, config.seed);
        let mem = GuestMemory::with_slab(config.mem_mib * 1024 * 1024, slab);
        let mut uffd = Uffd::register(mem, region_base(function, config.seed));
        let trace = run_resident(&boot_ops, uffd.memory_mut(), label);
        let vm = MicroVm {
            function,
            config,
            shell,
            uffd,
            lazy: false,
            content_label: label,
            paused: false,
        };
        (vm, trace)
    }

    /// Builds a *restored* VM around `shell` and an empty, uffd-registered
    /// guest memory: the Firecracker snapshot-load path (§2.3) — guest
    /// state is deserialized, memory is mapped but unpopulated, every
    /// first touch will fault.
    pub(crate) fn from_shell(function: FunctionId, config: VmConfig, shell: GuestShell) -> MicroVm {
        let mem = GuestMemory::new(config.mem_mib * 1024 * 1024);
        let uffd = Uffd::register(mem, region_base(function, config.seed));
        MicroVm {
            function,
            config,
            shell,
            uffd,
            lazy: true,
            content_label: content_label(function, config.seed),
            paused: false,
        }
    }

    /// A restored VM whose guest structures are *re-booted* rather than
    /// taken from a snapshot. No product path calls this —
    /// [`crate::Snapshot::restore_shell`] clones the captured
    /// [`GuestShell`] — it is the reference the restore-equals-re-boot
    /// tests compare against.
    pub fn restore_shell(function: FunctionId, config: VmConfig) -> MicroVm {
        Self::from_shell(function, config, Self::shell(function, config).0)
    }

    /// The guest structures a snapshot of this VM carries.
    pub fn guest_shell(&self) -> &GuestShell {
        &self.shell
    }

    /// The function this VM runs.
    pub fn function(&self) -> FunctionId {
        self.function
    }

    /// VM configuration.
    pub fn config(&self) -> VmConfig {
        self.config
    }

    /// True if memory is lazily populated (restored from snapshot).
    pub fn is_lazy(&self) -> bool {
        self.lazy
    }

    /// Content label for deterministic page contents.
    pub fn content_label(&self) -> u64 {
        self.content_label
    }

    /// Captures the VMM state (for snapshotting).
    pub fn vmm_state(&self) -> VmmState {
        VmmState::capture(self.content_label)
    }

    /// Generates the guest op stream for serving `input`.
    pub fn invocation_ops(&mut self, input: &InvocationInput) -> Vec<GuestOp> {
        let GuestShell { space, kernel, program } = &mut self.shell;
        program.invocation_ops(space, kernel, input)
    }

    /// The uffd channel (monitor side).
    pub fn uffd_mut(&mut self) -> &mut Uffd {
        &mut self.uffd
    }

    /// The uffd channel, shared.
    pub fn uffd(&self) -> &Uffd {
        &self.uffd
    }

    /// Guest memory, shared.
    pub fn memory(&self) -> &GuestMemory {
        self.uffd.memory()
    }

    /// Tears the VM down for its guest memory.
    pub(crate) fn into_memory(self) -> GuestMemory {
        self.uffd.into_memory()
    }

    /// Resident-set size in bytes (the `ps` footprint of Fig 4).
    pub fn footprint_bytes(&self) -> u64 {
        self.uffd.memory().footprint_bytes()
    }

    /// Pauses the VM (before snapshotting).
    pub fn pause(&mut self) {
        self.paused = true;
    }

    /// Resumes the VM.
    pub fn resume(&mut self) {
        self.paused = false;
    }

    /// True if paused.
    pub fn is_paused(&self) -> bool {
        self.paused
    }

    /// The installed function program (for working-set introspection).
    pub fn program(&self) -> &FunctionProgram {
        &self.shell.program
    }

    /// The guest kernel model.
    pub fn kernel(&self) -> &GuestKernel {
        &self.shell.kernel
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use functionbench::InputGenerator;

    #[test]
    fn boot_populates_expected_footprint() {
        let (vm, trace) = MicroVm::boot(FunctionId::helloworld, VmConfig::default());
        let mb = vm.footprint_bytes() as f64 / (1024.0 * 1024.0);
        assert!(
            (135.0..160.0).contains(&mb),
            "helloworld boots to ~148 MB (Fig 4), got {mb:.0}"
        );
        assert_eq!(trace.uffd_faults, 0, "booting takes no uffd faults");
        assert!(!vm.is_lazy());
    }

    #[test]
    fn restore_shell_is_empty_and_lazy() {
        let vm = MicroVm::restore_shell(FunctionId::pyaes, VmConfig::default());
        assert_eq!(vm.footprint_bytes(), 0);
        assert!(vm.is_lazy());
        assert_eq!(vm.memory().num_pages(), 65536);
    }

    #[test]
    fn same_seed_boots_identical_contents() {
        let cfg = VmConfig::default();
        let (a, _) = MicroVm::boot(FunctionId::chameleon, cfg);
        let (b, _) = MicroVm::boot(FunctionId::chameleon, cfg);
        assert_eq!(a.content_label(), b.content_label());
        for page in a.memory().resident_iter().take(100) {
            assert_eq!(a.memory().page_checksum(page), b.memory().page_checksum(page));
        }
        assert_eq!(a.footprint_bytes(), b.footprint_bytes());
    }

    #[test]
    fn different_functions_map_at_different_bases() {
        let a = MicroVm::restore_shell(FunctionId::helloworld, VmConfig::default());
        let b = MicroVm::restore_shell(FunctionId::pyaes, VmConfig::default());
        assert_ne!(a.uffd().region_base(), b.uffd().region_base());
    }

    #[test]
    fn invocation_ops_work_on_restored_shell() {
        let mut vm = MicroVm::restore_shell(FunctionId::helloworld, VmConfig::default());
        let input = InputGenerator::new(FunctionId::helloworld, 1).input(1);
        let ops = vm.invocation_ops(&input);
        assert!(!ops.is_empty());
        let pages = functionbench::behavior::touched_pages(&ops, vm.memory().num_pages()).count();
        assert!(pages > 1500, "helloworld ws ~2000 pages, got {pages}");
    }

    #[test]
    fn pause_resume() {
        let (mut vm, _) = MicroVm::boot(FunctionId::helloworld, VmConfig::default());
        assert!(!vm.is_paused());
        vm.pause();
        assert!(vm.is_paused());
        vm.resume();
        assert!(!vm.is_paused());
    }

    /// One FNV-1a word digest over a booted VM's resident runs: each run's
    /// first page and length, then its bytes eight at a time.
    fn boot_digest(vm: &MicroVm) -> u64 {
        let mut h = sim_core::Fnv1a64::new();
        for run in vm.memory().resident_runs() {
            h.write_u64_word(run.first.as_u64());
            h.write_u64_word(run.len);
            for chunk in vm.memory().run_chunks(run) {
                for word in chunk.bytes.chunks_exact(8) {
                    h.write_u64_word(u64::from_le_bytes(word.try_into().unwrap()));
                }
            }
        }
        h.finish()
    }

    #[test]
    fn booted_memory_matches_its_known_answers() {
        // Digests of the boot bytes the per-page `fill_deterministic`
        // loop produced, recorded before the page-batched fill replaced
        // it: the generator may get faster, never different.
        let config = VmConfig {
            seed: 0xA5_1405,
            ..VmConfig::default()
        };
        for (f, want) in [
            (FunctionId::helloworld, 0x8843_10be_6c27_5045),
            (FunctionId::chameleon, 0x36ad_cc36_bde4_caef),
            (FunctionId::pyaes, 0xbe69_7b42_ae83_5ec9),
            (FunctionId::json_serdes, 0xcf30_2ec8_d9c0_7a70),
            (FunctionId::cnn_serving, 0x932c_cfd8_9468_de6b),
        ] {
            let (vm, _) = MicroVm::boot(f, config);
            assert_eq!(boot_digest(&vm), want, "{f}");
        }
    }

    #[test]
    fn a_boot_into_a_poisoned_slab_equals_a_fresh_boot() {
        let config = VmConfig::default();
        for f in [FunctionId::helloworld, FunctionId::cnn_serving] {
            let (fresh, fresh_trace) = MicroVm::boot(f, config);
            // Every byte of the slab's capacity is stale, and it holds the
            // whole footprint, so the boot writes over old bytes only.
            let slab = vec![0xEE; fresh.footprint_bytes() as usize];
            let within = slab.as_ptr_range();
            let (booted, trace) = MicroVm::boot_into(f, config, slab);
            assert_eq!(trace.minor_faults, fresh_trace.minor_faults, "{f}");
            let runs = fresh.memory().resident_runs();
            assert_eq!(booted.memory().resident_runs(), runs, "{f}");
            assert_eq!(boot_digest(&booted), boot_digest(&fresh), "{f}");
            for page in runs.iter().flat_map(|r| r.iter()).step_by(61) {
                let bytes = booted.memory().page_bytes(page).unwrap();
                assert!(Some(bytes) == fresh.memory().page_bytes(page), "{f}: {page}");
                assert!(within.contains(&bytes.as_ptr()), "{f}: {page} left the slab");
            }
        }
    }

    #[test]
    fn vmm_state_stable_per_vm() {
        let (vm, _) = MicroVm::boot(FunctionId::helloworld, VmConfig::default());
        assert_eq!(vm.vmm_state(), vm.vmm_state());
    }
}
