//! Property tests for the function behaviour models: the invariants the
//! paper's analysis rests on must hold for *any* seed and input sequence.

use functionbench::behavior::touched_pages;
use functionbench::{FunctionId, FunctionProgram, GuestOp, InputGenerator};
use guest_os::{AddressSpace, GuestKernel, LayoutSpec};
use proptest::prelude::*;

fn setup(id: FunctionId) -> (AddressSpace, GuestKernel, FunctionProgram) {
    let mut space = AddressSpace::new(65536, LayoutSpec::default());
    let kernel = GuestKernel::new(&space);
    let (program, _boot) = FunctionProgram::install(id, &mut space, &kernel);
    (space, kernel, program)
}

fn any_function() -> impl Strategy<Value = FunctionId> {
    (0usize..FunctionId::ALL.len()).prop_map(|i| FunctionId::ALL[i])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// §4.4's core mechanism: serving an invocation leaves the buddy
    /// allocator in exactly its pre-invocation state (transients freed),
    /// so the next invocation sees identical allocator decisions.
    #[test]
    fn allocator_state_recurs_after_any_invocation(
        id in any_function(),
        seed in any::<u64>(),
        seq in 0u64..50,
    ) {
        let (mut space, kernel, program) = setup(id);
        let before = space.heap().state_fingerprint();
        let input = InputGenerator::new(id, seed).input(seq);
        let _ops = program.invocation_ops(&mut space, &kernel, &input);
        prop_assert_eq!(
            space.heap().state_fingerprint(),
            before,
            "buddy state must recur after teardown"
        );
    }

    /// Working sets stay within the envelope the figures rely on,
    /// whatever the input.
    #[test]
    fn working_set_bounded_for_any_input(
        id in any_function(),
        seed in any::<u64>(),
        seq in 0u64..50,
    ) {
        let (mut space, kernel, program) = setup(id);
        let input = InputGenerator::new(id, seed).input(seq);
        let ops = program.invocation_ops(&mut space, &kernel, &input);
        // All touched pages lie inside guest memory.
        for op in &ops {
            if let GuestOp::Touch(run) = op {
                prop_assert!(run.end().as_u64() <= 65536, "{run} past guest memory");
            }
        }
        let ws = touched_pages(&ops, space.total_pages()).count();
        let expect = id.spec().expected_ws_pages();
        let ratio = ws as f64 / expect as f64;
        prop_assert!(
            (0.6..1.6).contains(&ratio),
            "{id}: ws {ws} vs expected {expect}"
        );
    }

    /// Same input -> byte-identical op stream, no matter how many other
    /// invocations ran in between (statelessness across requests).
    #[test]
    fn replay_determinism_is_history_independent(
        id in any_function(),
        seed in any::<u64>(),
        history in proptest::collection::vec(0u64..20, 0..5),
    ) {
        let (mut space, kernel, program) = setup(id);
        let gen = InputGenerator::new(id, seed);
        let target = gen.input(99);
        let fresh = program.invocation_ops(&mut space, &kernel, &target);
        for h in history {
            let _ = program.invocation_ops(&mut space, &kernel, &gen.input(h));
        }
        let after_history = program.invocation_ops(&mut space, &kernel, &target);
        prop_assert_eq!(fresh, after_history);
    }

    /// Two invocations with different inputs still share the entire
    /// infrastructure working set (what REAP's stability rests on).
    #[test]
    fn infra_set_always_shared(id in any_function(), seed in any::<u64>()) {
        let (mut space, kernel, program) = setup(id);
        let gen = InputGenerator::new(id, seed);
        let pages = space.total_pages();
        let a = touched_pages(&program.invocation_ops(&mut space, &kernel, &gen.input(1)), pages);
        let b = touched_pages(&program.invocation_ops(&mut space, &kernel, &gen.input(2)), pages);
        for chunk in kernel.rpc_plan() {
            for p in chunk.iter() {
                prop_assert!(a.get(p) && b.get(p), "infra page {p} missing");
            }
        }
    }
}
