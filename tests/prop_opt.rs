//! Property tests for the `nachos-opt` MDE optimizer: on random regions,
//! optimized and unoptimized compilations must be *observationally
//! equivalent* — every run still matches the in-order reference executor
//! under the differential sweep, and with/without runs of the same MDE
//! backend load identical value streams and leave identical final memory.
//!
//! The optimizer may only ever delete provably redundant ordering, so it
//! must also never *add* runtime work: comparator sites and cycle counts
//! are checked monotone non-increasing per backend.

use nachos::sweep::{run_sweep, SweepConfig, SweepJob, SweepVariant};
use nachos::testutil::{build_plan_region, OpPlan};
use nachos::{Backend, EnergyModel, ExperimentRun, Run, SimConfig};
use nachos_ir::{Binding, Region};
use proptest::prelude::*;

fn arb_op() -> impl Strategy<Value = OpPlan> {
    (any::<bool>(), 0usize..5, 0i64..4, any::<bool>()).prop_map(
        |(is_store, target, slot, strided)| OpPlan {
            is_store,
            target,
            slot,
            strided,
        },
    )
}

fn run(region: &Region, binding: &Binding, backend: Backend, optimize: bool) -> ExperimentRun {
    let cfg = SimConfig::default()
        .with_invocations(6)
        .with_optimize(optimize);
    Run::new(region, binding, backend)
        .execute(&cfg, &EnergyModel::default())
        .expect("simulation succeeds")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The differential sweep accepts optimized compilations of random
    /// regions exactly as it accepts unoptimized ones: every variant
    /// completes and matches the reference executor.
    #[test]
    fn optimized_sweep_matches_reference(
        ops in proptest::collection::vec(arb_op(), 1..10),
    ) {
        let (region, binding) = build_plan_region(&ops);
        let job = SweepJob::new("prop-opt", region, binding);
        for optimize in [false, true] {
            let cfg = SweepConfig::default()
                .with_invocations(6)
                .with_threads(1)
                .with_variants(SweepVariant::bench_matrix())
                .with_optimize(optimize);
            let sweep = run_sweep(std::slice::from_ref(&job), &cfg);
            prop_assert!(
                sweep.all_match(),
                "sweep (optimize: {optimize}) diverged: {:?} (ops: {ops:?})",
                sweep.not_ok()
            );
        }
    }

    /// With/without runs of the same MDE backend are value-equivalent
    /// (identical load digests, identical final memory) and the
    /// optimizer never adds runtime work: comparator sites and cycles
    /// are monotone non-increasing.
    #[test]
    fn optimized_runs_are_value_equivalent_and_no_slower(
        ops in proptest::collection::vec(arb_op(), 1..10),
    ) {
        let (region, binding) = build_plan_region(&ops);
        for backend in [Backend::NachosSw, Backend::Nachos] {
            let plain = run(&region, &binding, backend, false);
            let opt = run(&region, &binding, backend, true);
            prop_assert_eq!(
                plain.sim.loads.digest(),
                opt.sim.loads.digest(),
                "{} load stream changed under the optimizer (ops: {:?})",
                backend,
                &ops
            );
            prop_assert!(
                plain.sim.mem == opt.sim.mem,
                "{backend} final memory changed under the optimizer (ops: {ops:?})"
            );
            prop_assert!(
                opt.sim.comparator_sites <= plain.sim.comparator_sites,
                "{backend} comparator sites grew: {} -> {} (ops: {ops:?})",
                plain.sim.comparator_sites,
                opt.sim.comparator_sites
            );
            prop_assert!(
                opt.sim.cycles <= plain.sim.cycles,
                "{backend} regressed: {} -> {} cycles (ops: {ops:?})",
                plain.sim.cycles,
                opt.sim.cycles
            );
        }
    }
}
