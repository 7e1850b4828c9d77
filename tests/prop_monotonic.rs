//! Property and suite tests for the backend cycle-count ordering:
//!
//! ```text
//! IDEAL  <=  NACHOS  <=  NACHOS-SW
//! ```
//!
//! The IDEAL oracle resolves every MAY edge with perfect knowledge and
//! zero check latency, so it lower-bounds NACHOS; NACHOS only relaxes
//! MAY edges that NACHOS-SW serializes unconditionally, so it never
//! loses to the software scheme on the same compiled region.

use nachos::testutil::{build_plan_region, OpPlan};
use nachos::{Backend, EnergyModel, Run, SimConfig};
use nachos_ir::{Binding, Region};
use proptest::prelude::*;

fn cycles(region: &Region, binding: &Binding, backend: Backend, invocations: u64) -> u64 {
    let cfg = SimConfig::default().with_invocations(invocations);
    Run::new(region, binding, backend)
        .execute(&cfg, &EnergyModel::default())
        .expect("simulation succeeds")
        .sim
        .cycles
}

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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn oracle_bounds_hold_on_random_regions(
        ops in proptest::collection::vec(arb_op(), 1..12)
    ) {
        let (region, binding) = build_plan_region(&ops);
        let ideal = cycles(&region, &binding, Backend::Ideal, 6);
        let hw = cycles(&region, &binding, Backend::Nachos, 6);
        let sw = cycles(&region, &binding, Backend::NachosSw, 6);
        prop_assert!(
            ideal <= hw,
            "IDEAL ({ideal}) must lower-bound NACHOS ({hw}) (ops: {ops:?})"
        );
        prop_assert!(
            hw <= sw,
            "NACHOS ({hw}) must not lose to NACHOS-SW ({sw}) (ops: {ops:?})"
        );
    }
}

/// The acceptance bound on the real workloads: the ordering holds on
/// every Table II sweep workload.
#[test]
fn oracle_bounds_hold_on_every_sweep_workload() {
    for w in nachos_workloads::generate_all() {
        let ideal = cycles(&w.region, &w.binding, Backend::Ideal, 12);
        let hw = cycles(&w.region, &w.binding, Backend::Nachos, 12);
        let sw = cycles(&w.region, &w.binding, Backend::NachosSw, 12);
        assert!(
            ideal <= hw && hw <= sw,
            "{}: expected IDEAL ({ideal}) <= NACHOS ({hw}) <= NACHOS-SW ({sw})",
            w.spec.name
        );
    }
}
