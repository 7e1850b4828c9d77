//! Telemetry is observation, never causation: attaching any
//! [`TelemetrySink`] to a run must yield bit-identical results to
//! running without one. These tests pin that contract from two sides —
//! random regions under every backend (proptest), and a real Table II
//! workload with live MAY-edge traffic — and additionally pin the
//! `nachos-stats-v1` stream itself as byte-deterministic across
//! repeated runs. (The sweep-v4 *report* bytes are pinned separately by
//! `tests/golden.rs`, which runs the whole matrix sinkless; together
//! with the identity proven here, report bytes cannot depend on
//! telemetry.)

use nachos::testutil::{build_plan_region, OpPlan};
use nachos::{
    Backend, BackpressureEvent, CycleRecord, EnergyModel, NoopSink, Run, RunSummary, SimArena,
    SimConfig, StatsWriter, TelemetrySink,
};
use nachos_alias::StageConfig;
use nachos_ir::{Binding, Region};
use proptest::prelude::*;

const BACKENDS: [Backend; 4] = [
    Backend::OptLsq,
    Backend::NachosSw,
    Backend::Nachos,
    Backend::Ideal,
];

/// A sink that consumes every hook (so the compiler cannot elide the
/// callbacks) without influencing anything.
#[derive(Default)]
struct CountingSink {
    cycles: u64,
    events: u64,
    backpressure: u64,
    summaries: u64,
}

impl TelemetrySink for CountingSink {
    fn on_cycle(&mut self, rec: &CycleRecord) {
        self.cycles += 1;
        self.events += rec.events;
    }

    fn on_backpressure(&mut self, _ev: &BackpressureEvent) {
        self.backpressure += 1;
    }

    fn on_run_end(&mut self, _summary: &RunSummary) {
        self.summaries += 1;
    }
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

/// Renders every `SimResult` field except the final memory into a
/// comparable byte string. The memory is compared separately with its
/// content-based `Eq` (its `Debug` goes through a `HashMap`, whose
/// iteration order is not part of the result).
fn fingerprint(sim: &nachos::SimResult) -> String {
    format!(
        "{:?}|{}|{}|{:?}|{:?}|{:?}|{:?}|{:?}|{:?}|{:?}|{}|{}|{}|{:?}",
        sim.backend,
        sim.cycles,
        sim.invocations,
        sim.events,
        sim.stalls,
        sim.energy,
        sim.loads,
        sim.l1,
        sim.llc,
        sim.bloom,
        sim.comparator_sites,
        sim.queue_events,
        sim.heap_max_depth,
        sim.injected,
    )
}

/// Runs one backend with and without sinks attached and asserts the
/// results (every `SimResult` field) are bit-identical. Returns the
/// stats stream bytes for determinism checks.
fn assert_observation_only(
    region: &Region,
    binding: &Binding,
    backend: Backend,
    invocations: u64,
) -> Vec<u8> {
    let cfg = SimConfig::default().with_invocations(invocations);
    let energy = EnergyModel::default();
    let stages = StageConfig::full();

    let mut arena = SimArena::new();
    let bare = Run::new(region, binding, backend)
        .stages(stages)
        .arena(&mut arena)
        .execute(&cfg, &energy)
        .expect("unobserved run succeeds");

    let mut noop = NoopSink;
    let with_noop = Run::new(region, binding, backend)
        .stages(stages)
        .arena(&mut arena)
        .sink(&mut noop)
        .execute(&cfg, &energy)
        .expect("noop-observed run succeeds");

    let mut counting = CountingSink::default();
    let with_counting = Run::new(region, binding, backend)
        .stages(stages)
        .arena(&mut arena)
        .sink(&mut counting)
        .execute(&cfg, &energy)
        .expect("counting-observed run succeeds");

    let mut stats = StatsWriter::new(Vec::new(), "prop");
    let with_stats = Run::new(region, binding, backend)
        .stages(stages)
        .arena(&mut arena)
        .sink(&mut stats)
        .execute(&cfg, &energy)
        .expect("stats-observed run succeeds");

    let bare_bytes = fingerprint(&bare.sim);
    for (label, run) in [
        ("NoopSink", &with_noop),
        ("CountingSink", &with_counting),
        ("StatsWriter", &with_stats),
    ] {
        assert_eq!(
            bare_bytes,
            fingerprint(&run.sim),
            "{backend:?}: {label} changed the result"
        );
        assert_eq!(
            bare.sim.mem, run.sim.mem,
            "{backend:?}: {label} changed the final memory"
        );
    }
    assert_eq!(
        counting.summaries, 1,
        "{backend:?}: exactly one run summary per run"
    );
    assert!(
        counting.cycles > 0,
        "{backend:?}: a completed run closes at least one cycle"
    );
    stats.finish().expect("in-memory stream cannot fail")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Any sink, any backend, any region: bit-identical cycles, stall
    /// counters, energy, and queue statistics.
    #[test]
    fn sinks_never_perturb_results(
        ops in proptest::collection::vec(arb_op(), 1..10)
    ) {
        let (region, binding) = build_plan_region(&ops);
        for backend in BACKENDS {
            let first = assert_observation_only(&region, &binding, backend, 4);
            let second = assert_observation_only(&region, &binding, backend, 4);
            prop_assert_eq!(
                &first,
                &second,
                "stats stream must be byte-deterministic across runs"
            );
            prop_assert!(!first.is_empty(), "stats stream carries records");
        }
    }
}

/// The contract holds on a real workload with live MAY-edge traffic
/// (art: comparator checks, conflicts, the works), and the stream
/// carries per-cycle records for it.
#[test]
fn telemetry_identity_on_art() {
    let workloads = nachos_workloads::generate_all();
    let art = workloads
        .iter()
        .find(|w| w.spec.name == "art")
        .expect("art is in the Table II suite");
    for backend in BACKENDS {
        let bytes = assert_observation_only(&art.region, &art.binding, backend, 8);
        let text = String::from_utf8(bytes).expect("stats stream is UTF-8");
        assert!(
            text.lines().any(|l| l.contains("\"t\": \"cycle\"")),
            "{backend:?}: stream carries cycle records"
        );
        assert!(
            text.lines().any(|l| l.contains("\"t\": \"summary\"")),
            "{backend:?}: stream carries the run summary"
        );
    }
}
