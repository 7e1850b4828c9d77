//! Shape invariants from the paper's evaluation, enforced as tests: the
//! qualitative results (who wins, and where) must hold on every build.

use nachos::sweep::{run_sweep, SweepConfig, SweepJob};
use nachos::{Backend, EnergyModel, Run, SimConfig};
use nachos_alias::{analyze, StageConfig};
use nachos_workloads::{by_name, generate, generate_all};

fn cfg() -> SimConfig {
    SimConfig::default().with_invocations(24)
}

fn suite_jobs() -> Vec<SweepJob> {
    generate_all()
        .into_iter()
        .map(|w| SweepJob::new(w.spec.name, w.region, w.binding))
        .collect()
}

#[test]
fn all_workloads_all_backends_match_reference() {
    // The central invariant (DESIGN §5): every backend reproduces the
    // in-order reference executor's memory state and load observations on
    // all 27 Table II workloads. The parallel sweep harness differential-
    // checks each of the 27 x 3 runs.
    let jobs = suite_jobs();
    assert_eq!(jobs.len(), 27, "Table II has 27 workloads");
    let sweep = run_sweep(&jobs, &SweepConfig::default().with_invocations(16));
    assert_eq!(sweep.variants.len(), 3, "OPT-LSQ, NACHOS-SW, NACHOS");
    assert!(
        sweep.all_match(),
        "backend-vs-reference divergence: {:?}",
        sweep.mismatches()
    );
}

#[test]
fn sweep_report_is_thread_count_independent() {
    // Determinism contract of the harness: the JSON report is
    // byte-identical no matter how many workers ran the sweep.
    let jobs: Vec<SweepJob> = suite_jobs().into_iter().take(6).collect();
    let base = SweepConfig::default().with_invocations(8);
    let serial = run_sweep(&jobs, &base.clone().with_threads(1));
    let wide = run_sweep(&jobs, &base.with_threads(8));
    assert_eq!(serial.to_json(), wide.to_json());
}

#[test]
fn nachos_recovers_every_sw_slowdown() {
    // §VIII-A: wherever NACHOS-SW serializes on MAY edges, the hardware
    // checks recover most of the loss. Require NACHOS to stay within 15%
    // of OPT-LSQ on every MAY-heavy workload where NACHOS-SW is >15% slower.
    let energy = EnergyModel::default();
    for name in [
        "art",
        "soplex",
        "453.povray",
        "fft-2d",
        "freqmi.",
        "histog.",
    ] {
        let w = generate(&by_name(name).unwrap());
        let lsq = Run::new(&w.region, &w.binding, Backend::OptLsq)
            .execute(&cfg(), &energy)
            .unwrap();
        let sw = Run::new(&w.region, &w.binding, Backend::NachosSw)
            .execute(&cfg(), &energy)
            .unwrap();
        let hw = Run::new(&w.region, &w.binding, Backend::Nachos)
            .execute(&cfg(), &energy)
            .unwrap();
        let sw_slow = nachos::pct_slowdown(sw.sim.cycles, lsq.sim.cycles);
        let hw_slow = nachos::pct_slowdown(hw.sim.cycles, lsq.sim.cycles);
        assert!(
            sw_slow > 10.0,
            "{name}: expected a NACHOS-SW slowdown, got {sw_slow:+.1}%"
        );
        assert!(
            hw_slow < 15.0,
            "{name}: NACHOS failed to recover ({hw_slow:+.1}% vs LSQ)"
        );
        assert!(
            hw.sim.cycles < sw.sim.cycles,
            "{name}: hardware checks must beat serialization"
        );
    }
}

#[test]
fn fully_resolved_workloads_tie_sw_and_hw() {
    // With no MAY edges, NACHOS and NACHOS-SW are the same machine.
    let energy = EnergyModel::default();
    for name in ["gzip", "183.equake", "lbm", "dwt53", "fluida."] {
        let w = generate(&by_name(name).unwrap());
        let sw = Run::new(&w.region, &w.binding, Backend::NachosSw)
            .execute(&cfg(), &energy)
            .unwrap();
        let hw = Run::new(&w.region, &w.binding, Backend::Nachos)
            .execute(&cfg(), &energy)
            .unwrap();
        assert_eq!(sw.sim.cycles, hw.sim.cycles, "{name}");
        assert_eq!(hw.sim.events.may_checks, 0, "{name}");
    }
}

#[test]
fn nachos_always_saves_energy_vs_lsq() {
    // The pay-as-you-go claim: NACHOS's disambiguation energy (MDE) never
    // exceeds what the LSQ spends, and total energy never regresses, on
    // any of the 27 workloads.
    let energy = EnergyModel::default();
    for w in generate_all() {
        if w.region.num_global_mem_ops() == 0 {
            continue;
        }
        let lsq = Run::new(&w.region, &w.binding, Backend::OptLsq)
            .execute(&cfg(), &energy)
            .unwrap();
        let hw = Run::new(&w.region, &w.binding, Backend::Nachos)
            .execute(&cfg(), &energy)
            .unwrap();
        assert!(
            hw.sim.energy.mde <= lsq.sim.energy.lsq(),
            "{}: MDE energy exceeds the LSQ's",
            w.spec.name
        );
        assert!(
            hw.sim.energy.total() < lsq.sim.energy.total(),
            "{}: NACHOS total energy regressed",
            w.spec.name
        );
    }
}

#[test]
fn appendix_profitability_set_matches_paper() {
    // Exactly seven workloads exceed one enforced MAY alias per memory
    // operation (the appendix's profitability discussion).
    let over: Vec<String> = generate_all()
        .iter()
        .filter_map(|w| {
            let n = w.region.num_global_mem_ops();
            if n == 0 {
                return None;
            }
            let a = analyze(&w.region, StageConfig::full());
            (a.plan.may.len() >= n).then(|| w.spec.name.to_owned())
        })
        .collect();
    assert_eq!(over.len(), 7, "paper: exactly 7; got {over:?}");
}

#[test]
fn baseline_compiler_hurts_stage_beneficiaries() {
    // Figure 12: without stages 2 and 4, the stage beneficiaries slow
    // down dramatically under a software-only scheme.
    let energy = EnergyModel::default();
    for name in ["parser", "183.equake", "lbm", "bodytrack"] {
        let w = generate(&by_name(name).unwrap());
        let full = Run::new(&w.region, &w.binding, Backend::NachosSw)
            .stages(StageConfig::full())
            .execute(&cfg(), &energy)
            .unwrap();
        let base = Run::new(&w.region, &w.binding, Backend::NachosSw)
            .stages(StageConfig::baseline())
            .execute(&cfg(), &energy)
            .unwrap();
        let slow = nachos::pct_slowdown(base.sim.cycles, full.sim.cycles);
        assert!(
            slow > 50.0,
            "{name}: baseline compiler should pay heavily, got {slow:+.1}%"
        );
    }
}

#[test]
fn bloom_zero_class_contains_the_resolved_loadonly_workloads() {
    // Figure 18's table: the 0%-bloom-hit class holds the workloads with
    // disjoint in-flight footprints.
    let energy = EnergyModel::default();
    for name in ["gzip", "181.mcf", "crafty", "sjeng"] {
        let w = generate(&by_name(name).unwrap());
        let lsq = Run::new(&w.region, &w.binding, Backend::OptLsq)
            .execute(&cfg(), &energy)
            .unwrap();
        assert_eq!(
            lsq.sim.bloom.hits, 0,
            "{name}: expected a perfect bloom filter"
        );
    }
}
