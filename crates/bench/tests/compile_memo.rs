//! The audits read their compiles from one shared memo: the soundness
//! audit and the optimizer fed from a `CompileMemo` must report exactly
//! what each reported when it compiled the workload itself, and one
//! (workload, ablation) must cost exactly two compiles.

use nachos::{Backend, CompileMemo, EnergyModel, Run, SimArena, SimConfig};
use nachos_alias::{audit_with, compile, differential_no_collisions, optimize, AuditConfig};
use nachos_bench::lint::{lint_workload, standard_configs, LintConfig, LintRun};
use nachos_bench::opt::{optimize_workload, BackendCycles, OptRun};
use nachos_workloads::{by_name, generate, Workload};

const INVOCATIONS: u64 = 8;

/// The reference: the unoptimized audit on a compile of its own.
fn fresh_lint(w: &Workload, config: LintConfig) -> LintRun {
    let mut region = w.region.clone();
    let analysis = compile(&mut region, config.stages);
    let mut diagnostics = audit_with(&region, &analysis, config.stages, &AuditConfig::default());
    diagnostics.extend(differential_no_collisions(
        &region,
        &analysis.matrix,
        &w.binding,
        INVOCATIONS,
    ));
    LintRun {
        workload: w.spec.name.to_owned(),
        config: config.name.to_owned(),
        diagnostics,
    }
}

/// The reference: the optimizer's static pass on a compile of its own,
/// and timed runs that each compile again.
fn fresh_opt(w: &Workload, config: LintConfig) -> OptRun {
    let mut region = w.region.clone();
    let mut analysis = compile(&mut region, config.stages);
    optimize(&mut region, &mut analysis);
    let outcome = analysis.opt.as_ref().expect("optimizer records an outcome");
    let diagnostics = audit_with(&region, &analysis, config.stages, &AuditConfig::default());
    let base = SimConfig::default().with_invocations(INVOCATIONS);
    let opt = base.clone().with_optimize(true);
    let mut arena = SimArena::new();
    let (mut cycles, mut comparator_sites) = (Vec::new(), (0, 0));
    for backend in [Backend::NachosSw, Backend::Nachos] {
        let mut run = |cfg: &SimConfig| {
            Run::new(&w.region, &w.binding, backend)
                .stages(config.stages)
                .arena(&mut arena)
                .execute(cfg, &EnergyModel::default())
                .expect("suite workloads simulate cleanly")
        };
        let (u, o) = (run(&base), run(&opt));
        comparator_sites = (u.sim.comparator_sites, o.sim.comparator_sites);
        cycles.push(BackendCycles {
            backend,
            unoptimized: u.sim.cycles,
            optimized: o.sim.cycles,
            equivalent: u.sim.loads.digest() == o.sim.loads.digest() && u.sim.mem == o.sim.mem,
        });
    }
    OptRun {
        workload: w.spec.name.to_owned(),
        config: config.name.to_owned(),
        stats: outcome.stats,
        certificates: outcome.certs.len(),
        forward: analysis.plan.forward.len(),
        comparator_sites_before: comparator_sites.0,
        comparator_sites_after: comparator_sites.1,
        diagnostics,
        failures: Vec::new(),
        cycles,
    }
}

#[test]
fn memo_fed_audits_match_fresh_compiles_with_two_compiles_each() {
    let w = generate(&by_name("soplex").expect("a Table II workload"));
    let (mut arena, mut rewrites) = (SimArena::new(), 0);
    for config in standard_configs() {
        let mut memo = CompileMemo::new(&w.region);
        let lint = lint_workload(&mut memo, &w, config, INVOCATIONS);
        let opt = optimize_workload(&mut arena, &mut memo, &w, config, INVOCATIONS);
        assert_eq!(
            memo.compiles(),
            2,
            "{}: one compile per optimizer setting",
            config.name
        );
        let (name, fresh) = (config.name, fresh_lint(&w, config));
        assert_eq!(format!("{lint:?}"), format!("{fresh:?}"), "{name}: lint");
        let fresh = fresh_opt(&w, config);
        assert_eq!(
            format!("{opt:?}"),
            format!("{fresh:?}"),
            "{name}: optimizer"
        );
        rewrites += opt.certificates;
    }
    assert!(
        rewrites > 0,
        "the optimized entries differ from the unoptimized ones"
    );
}
