//! Property tests for snapshot capture: the moving capture that deploys
//! a function against the copying capture that is its reference.

use functionbench::FunctionId;
use microvm::{MicroVm, Snapshot, VmConfig};
use proptest::prelude::*;
use sim_storage::FileStore;

/// Guest memory size of [`VmConfig::default`].
const MEM_BYTES: u64 = 256 << 20;

proptest! {
    #![proptest_config(proptest::test_runner::ProptestConfig { cases: 2 })]

    /// For every function at two seeds, a memory file that took over the
    /// booted VM's slab reads byte-identical to one the same VM was
    /// copied into, over random (unaligned, hole- and run-straddling)
    /// ranges, and the two stores did the same writes and hold the same
    /// extents.
    #[test]
    fn move_capture_reads_like_copy_capture(
        ranges in proptest::collection::vec((0..MEM_BYTES, 1u64..1 << 20), 48)
    ) {
        for f in FunctionId::ALL {
            for seed in [1, 0xC0FFEE] {
                let config = VmConfig { seed, ..VmConfig::default() };
                let (mut vm, _) = MicroVm::boot(f, config);
                vm.pause();
                let (copied_fs, moved_fs) = (FileStore::new(), FileStore::new());
                let copied = Snapshot::capture(&vm, &copied_fs, "s");
                let moved = Snapshot::capture_into(vm, &moved_fs, "s");
                prop_assert_eq!(moved_fs.write_calls(), copied_fs.write_calls());
                prop_assert_eq!(moved_fs.total_bytes(), copied_fs.total_bytes());
                prop_assert_eq!(moved_fs.extents(moved.mem_file), copied_fs.extents(copied.mem_file));
                prop_assert_eq!(moved_fs.len(moved.mem_file), MEM_BYTES);
                for &(at, len) in &ranges {
                    let read = |fs: &FileStore, s: &Snapshot| fs.read(s.mem_file, at, len, <[u8]>::to_vec).unwrap();
                    prop_assert!(read(&moved_fs, &moved) == read(&copied_fs, &copied), "{f} seed {seed}: {len} bytes at {at}");
                }
            }
        }
    }
}
