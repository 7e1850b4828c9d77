//! Property test for the central system invariant: random regions with
//! random aliasing, under every backend, must reproduce the in-order
//! reference execution exactly.
//!
//! The region blueprints ([`OpPlan`] and its builders) live in
//! [`nachos::testutil`], shared with the engine's unit tests and the
//! monotonicity property suite.

use nachos::testutil::{build_plan_region, build_plan_region_with_scratchpad, OpPlan};
use nachos::{reference, Backend, EnergyModel, Run, SimConfig};
use nachos_ir::{Binding, Region};
use proptest::prelude::*;

fn arb_op(targets: usize) -> impl Strategy<Value = OpPlan> {
    (any::<bool>(), 0..targets, 0i64..4, any::<bool>()).prop_map(
        |(is_store, target, slot, strided)| OpPlan {
            is_store,
            target,
            slot,
            strided,
        },
    )
}

fn assert_all_backends_match(region: &Region, binding: &Binding, ops: &[OpPlan]) {
    let config = SimConfig::default().with_invocations(6);
    let expected = reference::execute(region, binding, config.invocations);
    let runs = Backend::ALL.map(|backend| {
        Run::new(region, binding, backend)
            .execute(&config, &EnergyModel::default())
            .expect("simulation succeeds")
    });
    for run in &runs {
        assert_eq!(
            &run.sim.mem, &expected.mem,
            "{} diverged from the in-order reference (ops: {:?})",
            run.sim.backend, ops
        );
        assert_eq!(
            run.sim.loads.digest(),
            expected.loads.digest(),
            "{} load values diverged (ops: {:?})",
            run.sim.backend,
            ops
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn random_regions_preserve_sequential_semantics(
        ops in proptest::collection::vec(arb_op(5), 1..14)
    ) {
        let (region, binding) = build_plan_region(&ops);
        let config = SimConfig::default().with_invocations(6);
        let expected = reference::execute(&region, &binding, config.invocations);
        let runs = Backend::ALL.map(|backend| {
                Run::new(&region, &binding, backend)
                    .execute(&config, &EnergyModel::default())
                    .expect("simulation succeeds")
            });
        for run in &runs {
            prop_assert_eq!(
                &run.sim.mem, &expected.mem,
                "{} diverged from the in-order reference (ops: {:?})",
                run.sim.backend, ops
            );
            prop_assert_eq!(
                run.sim.loads.digest(), expected.loads.digest(),
                "{} load values diverged (ops: {:?})",
                run.sim.backend, ops
            );
        }
    }

    /// Same invariant with scratchpad operations in the mix and both
    /// unknown pointers scattering: local (LSQ-free, cache-free) traffic
    /// must interleave correctly with checked global traffic.
    #[test]
    fn scratchpad_and_scatter_regions_preserve_sequential_semantics(
        ops in proptest::collection::vec(arb_op(6), 1..14)
    ) {
        let (region, binding) = build_plan_region_with_scratchpad(&ops);
        assert_all_backends_match(&region, &binding, &ops);
    }
}
