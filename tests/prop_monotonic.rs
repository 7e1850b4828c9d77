//! Property and suite tests for the backend cycle-count ordering:
//!
//! ```text
//! IDEAL  <=  NACHOS  <=  NACHOS-SW
//! ```
//!
//! The IDEAL oracle resolves every MAY edge with perfect knowledge and
//! zero check latency, so it lower-bounds NACHOS when the shared memory
//! resources are unconstrained; NACHOS only relaxes MAY edges that
//! NACHOS-SW serializes unconditionally, so it never loses to the
//! software scheme on the same compiled region. The edge ports and the
//! MSHRs are granted first come, first served, in event-pop order, so
//! under the paper's 4 ports and 16 MSHRs an earlier IDEAL issue can
//! queue where NACHOS's gated issue happens not to (DESIGN §8(d)).

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
    cfg: &SimConfig,
) -> u64 {
    Run::new(region, binding, backend)
        .stages(stages)
        .execute(cfg, &EnergyModel::default())
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
        let cfg = SimConfig::default().with_invocations(6);
        let ideal = cycles(&region, &binding, Backend::Ideal, full, &cfg);
        let hw = cycles(&region, &binding, Backend::Nachos, full, &cfg);
        let sw = cycles(&region, &binding, Backend::NachosSw, full, &cfg);
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

/// IDEAL-above-NACHOS cells of the suite at 12 invocations, each with its
/// measured cause: first-come-first-served arbitration of a shared memory
/// resource, where IDEAL's ungated issue queues and NACHOS's gated issue
/// happens to be staggered past the contention. L1 and LLC hit/miss
/// counts are identical in each pair, and `stage1-only` times exactly as
/// `baseline` does on both workloads. With the ports and MSHRs relaxed
/// together the bound holds on every cell (the second assertion of
/// [`oracle_bounds_hold_on_every_sweep_workload`]).
const KNOWN_IDEAL_ABOVE_NACHOS: [(&str, &str); 4] = [
    // Edge ports: IDEAL 3468 against NACHOS 3458, with 216 against 12
    // `mem_port` stall cycles; 64 ports give 3444 <= 3451.
    ("freqmi.", "baseline"),
    ("freqmi.", "stage1-only"),
    // MSHRs: IDEAL 6804 against NACHOS 6516. 64 ports alone still give
    // 6804 > 6432; 4,096 MSHRs give 4116 <= 4488.
    ("histog.", "baseline"),
    ("histog.", "stage1-only"),
];

/// The acceptance bound on the real workloads: the ordering holds on
/// every Table II sweep workload under every compiler ablation the audit
/// covers, apart from the pinned [`KNOWN_IDEAL_ABOVE_NACHOS`] cells —
/// a new violation, or a pinned one that disappears, fails the test.
/// With the ports and MSHRs unconstrained, the full ordering holds on
/// every cell with no pin.
#[test]
fn oracle_bounds_hold_on_every_sweep_workload() {
    let paper = SimConfig::default().with_invocations(12);
    // The shared memory resources relaxed: 64 edge ports and 4,096 MSHRs
    // against the paper's 4 and 16.
    let mut relaxed = paper.clone();
    (relaxed.mem_ports, relaxed.hierarchy.mshrs) = (64, 4096);
    let mut above = Vec::new();
    for w in nachos_workloads::generate_all() {
        for config in nachos_bench::lint::standard_configs() {
            let name = w.spec.name;
            let run = |backend, cfg| cycles(&w.region, &w.binding, backend, config.stages, cfg);
            let (ideal, hw) = (run(Backend::Ideal, &paper), run(Backend::Nachos, &paper));
            let sw = run(Backend::NachosSw, &paper);
            assert!(
                hw <= sw,
                "{name} under `{}`: NACHOS ({hw}) must not lose to NACHOS-SW ({sw})",
                config.name
            );
            if ideal > hw {
                above.push((name, config.name));
            }
            let (ideal, hw) = (
                run(Backend::Ideal, &relaxed),
                run(Backend::Nachos, &relaxed),
            );
            let sw = run(Backend::NachosSw, &relaxed);
            assert!(
                ideal <= hw && hw <= sw,
                "{name} under `{}` with unconstrained memory: IDEAL ({ideal}) <= \
                 NACHOS ({hw}) <= NACHOS-SW ({sw}) must hold",
                config.name
            );
        }
    }
    assert_eq!(
        above, KNOWN_IDEAL_ABOVE_NACHOS,
        "cells where IDEAL exceeds NACHOS"
    );
}
