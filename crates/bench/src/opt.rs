//! The certificate-carrying MDE optimizer's evidence: runs
//! [`nachos_alias::optimize()`] on one Table II workload under one
//! compiler ablation, re-audits the optimized region (the audit's
//! `CertLint` pass re-verifies every rewrite certificate independently),
//! and times the MDE backends with and without the optimizer.
//!
//! `nachos-claims` runs it over every workload × ablation: a certificate
//! error or a run diverging from its unoptimized twin fails the evidence
//! run, and the improvement bars below, the absence of cycle regressions
//! and of avoidable imprecision are claims.

use crate::lint::{audited, avoidable, LintConfig};
use nachos::json::JsonWriter;
use nachos::{Backend, CompileMemo, EnergyModel, Run, SimArena, SimConfig};
use nachos_alias::{Diagnostic, OptStats};
use nachos_workloads::Workload;

/// One MDE backend timed with and without the optimizer.
#[derive(Clone, Copy, Debug)]
pub struct BackendCycles {
    /// The backend simulated (NACHOS-SW or NACHOS).
    pub backend: Backend,
    /// Cycles with the paper's stage-1..4 pipeline alone.
    pub unoptimized: u64,
    /// Cycles after the optimizer rewrote the MDE plan.
    pub optimized: u64,
    /// `true` iff both runs loaded identical value streams and left
    /// identical final memory — the differential equivalence check.
    pub equivalent: bool,
}

impl BackendCycles {
    /// `true` when the optimized run costs more cycles than the baseline.
    #[must_use]
    pub fn regressed(&self) -> bool {
        self.optimized > self.unoptimized
    }

    /// `true` when the optimized run costs fewer cycles than the baseline.
    #[must_use]
    pub fn improved(&self) -> bool {
        self.optimized < self.unoptimized
    }
}

/// The optimizer's outcome on one workload under one ablation.
#[derive(Clone, Debug)]
pub struct OptRun {
    /// Workload name (Table II).
    pub workload: String,
    /// Ablation name.
    pub config: String,
    /// The rewrite ledger (before-counts plus removal counts).
    pub stats: OptStats,
    /// Certificates emitted (one per rewrite).
    pub certificates: usize,
    /// Committed forward (st→ld) edges — the optimizer never touches
    /// these; recorded so the report carries the full MDE census.
    pub forward: usize,
    /// Engine-measured `==?` comparator sites before optimization.
    pub comparator_sites_before: u64,
    /// Engine-measured `==?` comparator sites after optimization.
    pub comparator_sites_after: u64,
    /// Every audit finding on the *optimized* region — an Error means
    /// `CertLint` (or another audit pass) refused a rewrite.
    pub diagnostics: Vec<Diagnostic>,
    /// Simulations that failed, one message each.
    pub failures: Vec<String>,
    /// With/without timings per MDE backend, `[NACHOS-SW, NACHOS]` order
    /// (a backend whose simulation failed is missing; see `failures`).
    pub cycles: Vec<BackendCycles>,
}

/// Improvement bar: the share of MAY edges the `full` pipeline plans that
/// coalescing must delete.
pub const MIN_FULL_MAY_COALESCED_FRACTION: f64 = 0.10;

/// Improvement bar: workloads some MDE backend must run strictly faster
/// under the optimized `full` pipeline.
pub const MIN_FULL_IMPROVED_WORKLOADS: usize = 3;

/// Improvement bar: workloads some MDE backend must run faster under some
/// ablation.
pub const MIN_IMPROVED_WORKLOADS: usize = 5;

/// Distinct workloads among `runs` where some MDE backend got faster.
fn improved_workloads<'a>(runs: impl Iterator<Item = &'a OptRun>) -> usize {
    let mut names: Vec<&str> = runs
        .filter(|r| r.cycles.iter().any(BackendCycles::improved))
        .map(|r| r.workload.as_str())
        .collect();
    names.sort_unstable();
    names.dedup();
    names.len()
}

/// The whole suite's optimization outcomes.
#[derive(Clone, Debug, Default)]
pub struct OptSuiteReport {
    /// One entry per workload × config, in deterministic order.
    pub runs: Vec<OptRun>,
}

impl OptSuiteReport {
    /// Error-severity findings on optimized regions (a refused
    /// certificate or another soundness error) plus simulation failures.
    #[must_use]
    pub fn num_cert_errors(&self) -> usize {
        let errors = self.diagnostics().filter(|d| d.is_error()).count();
        errors + self.runs.iter().map(|r| r.failures.len()).sum::<usize>()
    }

    /// Avoidable-imprecision findings ([`avoidable`]) on optimized
    /// regions.
    #[must_use]
    pub fn num_avoidable(&self) -> usize {
        self.diagnostics().filter(|d| avoidable(d)).count()
    }

    /// Timed runs whose optimized cycle count exceeds the baseline.
    #[must_use]
    pub fn num_regressions(&self) -> usize {
        self.cycle_rows().filter(|c| c.regressed()).count()
    }

    /// Timed runs whose optimized execution diverged from the baseline
    /// (different load values or final memory) — a soundness failure.
    #[must_use]
    pub fn num_divergences(&self) -> usize {
        self.cycle_rows().filter(|c| !c.equivalent).count()
    }

    /// Distinct workloads where some MDE backend got faster under some
    /// ablation.
    #[must_use]
    pub fn improved_workloads(&self) -> usize {
        improved_workloads(self.runs.iter())
    }

    /// Distinct workloads where some MDE backend got strictly faster
    /// under the `full` pipeline.
    #[must_use]
    pub fn full_improved_workloads(&self) -> usize {
        improved_workloads(self.full_runs())
    }

    /// Fraction of the `full` pipeline's MAY edges that coalescing
    /// deleted (0 when the report holds no `full` MAY edges).
    #[must_use]
    pub fn full_may_coalesced_fraction(&self) -> f64 {
        let before: usize = self.full_runs().map(|r| r.stats.may_before).sum();
        let coalesced: usize = self.full_runs().map(|r| r.stats.may_coalesced).sum();
        if before == 0 {
            0.0
        } else {
            coalesced as f64 / before as f64
        }
    }

    /// The runs under the `full` pipeline, in workload order.
    pub fn full_runs(&self) -> impl Iterator<Item = &OptRun> {
        self.runs.iter().filter(|r| r.config == "full")
    }

    fn diagnostics(&self) -> impl Iterator<Item = &Diagnostic> {
        self.runs.iter().flat_map(|r| &r.diagnostics)
    }

    fn cycle_rows(&self) -> impl Iterator<Item = &BackendCycles> {
        self.runs.iter().flat_map(|r| &r.cycles)
    }
}

/// Optimizes one workload under one ablation: rewrites the plan, audits
/// the result, and times both MDE backends with and without the
/// optimizer for `invocations` invocations (differentially comparing
/// their executions). Every compile is `memo`'s, over `w.region`.
#[must_use]
pub fn optimize_workload(
    arena: &mut SimArena,
    memo: &mut CompileMemo<'_>,
    w: &Workload,
    config: LintConfig,
    invocations: u64,
) -> OptRun {
    // Static pass: the memo's quick audit only refuses; the full audit
    // keeps every finding.
    let optimized = SimConfig::default().with_optimize(true);
    let entry = memo.get(Backend::Nachos, &optimized, config.stages);
    let (compiled, diagnostics) = audited(entry, config.stages);
    let (stats, certificates, forward) = compiled.map_or((OptStats::default(), 0, 0), |(_, a)| {
        let outcome = a.opt.as_ref().expect("optimizer records an outcome");
        (outcome.stats, outcome.certs.len(), a.plan.forward.len())
    });

    // Timing pass: both MDE backends, with and without the optimizer.
    let energy = EnergyModel::default();
    let base = SimConfig::default().with_invocations(invocations);
    let opt = base.clone().with_optimize(true);
    let mut cycles = Vec::new();
    let mut failures = Vec::new();
    let mut comparator_sites = (0, 0);
    for backend in [Backend::NachosSw, Backend::Nachos] {
        let mut run = |cfg: &SimConfig| {
            Run::new(&w.region, &w.binding, backend)
                .stages(config.stages)
                .arena(&mut *arena)
                .memo(&mut *memo)
                .execute(cfg, &energy)
        };
        match (run(&base), run(&opt)) {
            (Ok(u), Ok(o)) => {
                comparator_sites = (u.sim.comparator_sites, o.sim.comparator_sites);
                cycles.push(BackendCycles {
                    backend,
                    unoptimized: u.sim.cycles,
                    optimized: o.sim.cycles,
                    equivalent: u.sim.loads.digest() == o.sim.loads.digest()
                        && u.sim.mem == o.sim.mem,
                });
            }
            (Err(e), _) | (_, Err(e)) => {
                failures.push(format!("{}: {backend} simulation failed: {e}", w.spec.name));
            }
        }
    }
    OptRun {
        workload: w.spec.name.to_owned(),
        config: config.name.to_owned(),
        stats,
        certificates,
        forward,
        comparator_sites_before: comparator_sites.0,
        comparator_sites_after: comparator_sites.1,
        diagnostics,
        failures,
        cycles,
    }
}

/// Wall-clock measurement of the full sweep, recorded in the perf
/// artifact so throughput regressions are visible in the committed
/// trajectory (machine-dependent, like `allocs_per_run`).
#[derive(Clone, Copy, Debug)]
pub struct SweepTiming {
    /// Matrix cells executed (jobs × variants).
    pub runs: u64,
    /// Wall-clock seconds for the whole matrix.
    pub wall_seconds: f64,
}

impl SweepTiming {
    /// Cells per wall-clock second (0 for an unmeasurably short sweep).
    #[must_use]
    pub fn runs_per_sec(&self) -> f64 {
        if self.wall_seconds > 0.0 {
            self.runs as f64 / self.wall_seconds
        } else {
            0.0
        }
    }
}

/// Renders the `nachos-bench-v2` perf artifact (`BENCH_sweep.json`): one
/// row per Table II workload combining the 27×5 sweep's cycles per
/// variant, the event-queue shape per variant (events pushed, live-depth
/// high-water mark), the optimized NACHOS/NACHOS-SW cycles, the MDE
/// census before vs. after the optimizer (full-pipeline config), the
/// engine-measured comparator sites, steady-state heap allocations per
/// arena-reset run (when provided) and the sweep's measured throughput. v2 is additions-only over v1: every v1 field is emitted
/// unchanged.
///
/// `allocs` maps workload name → allocations per run; workloads missing
/// from it simply omit the field (the library cannot observe the global
/// allocator — the `nachos-claims` binary measures and passes them in).
#[must_use]
pub fn bench_artifact_json(
    suite: &crate::SuiteRun,
    opt: &OptSuiteReport,
    allocs: &[(String, u64)],
    invocations: u64,
    t: SweepTiming,
) -> String {
    let mut w = JsonWriter::new();
    w.open_obj();
    w.str_field("schema", "nachos-bench-v2");
    w.u64_field("invocations", invocations);
    w.key("sweep");
    w.open_obj();
    w.u64_field("runs", t.runs);
    w.f64_field("wall_seconds", t.wall_seconds);
    w.f64_field("runs_per_sec", t.runs_per_sec());
    w.close_obj();
    w.key("workloads");
    w.open_arr();
    for r in &suite.results {
        let name = r.spec.name;
        w.open_obj();
        w.str_field("name", name);
        w.key("cycles");
        w.open_obj();
        w.u64_field("opt-lsq", r.lsq.sim.cycles);
        w.u64_field("nachos-sw", r.sw.sim.cycles);
        w.u64_field("nachos", r.hw.sim.cycles);
        w.u64_field("nachos-sw-baseline", r.sw_baseline.sim.cycles);
        if let Some(ideal) = &r.ideal {
            w.u64_field("ideal", ideal.sim.cycles);
        }
        w.close_obj();
        // Queue shape per variant: total events pushed and the live-depth
        // high-water mark, so a refactor that changes event volume or
        // queue pressure shows up in the trajectory.
        w.key("queue");
        w.open_obj();
        let mut variant = |label: &str, run: &nachos::ExperimentRun| {
            w.key(label);
            w.open_obj();
            w.u64_field("events", run.sim.queue_events);
            w.u64_field("max_depth", run.sim.heap_max_depth);
            w.close_obj();
        };
        variant("opt-lsq", &r.lsq);
        variant("nachos-sw", &r.sw);
        variant("nachos", &r.hw);
        variant("nachos-sw-baseline", &r.sw_baseline);
        if let Some(ideal) = &r.ideal {
            variant("ideal", ideal);
        }
        w.close_obj();
        // The optimizer's impact under the full pipeline.
        if let Some(o) = opt
            .runs
            .iter()
            .find(|o| o.workload == name && o.config == "full")
        {
            w.key("optimized_cycles");
            w.open_obj();
            for c in &o.cycles {
                w.u64_field(&c.backend.to_string().to_lowercase(), c.optimized);
            }
            w.close_obj();
            let s = o.stats;
            w.key("mdes");
            w.open_obj();
            w.u64_field("order_before", s.order_before as u64);
            w.u64_field("order_after", (s.order_before - s.order_removed) as u64);
            w.u64_field("may_before", s.may_before as u64);
            w.u64_field("may_after", (s.may_before - s.may_coalesced) as u64);
            w.u64_field("forward", o.forward as u64);
            w.close_obj();
            w.key("comparator_sites");
            w.open_obj();
            w.u64_field("before", o.comparator_sites_before);
            w.u64_field("after", o.comparator_sites_after);
            w.close_obj();
        }
        if let Some((_, n)) = allocs.iter().find(|(wname, _)| wname == name) {
            w.u64_field("allocs_per_run", *n);
        }
        w.close_obj();
    }
    w.close_arr();
    w.close_obj();
    w.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn optimized_workload_is_certified_equivalent_and_no_slower() {
        let w = nachos_workloads::generate(&nachos_workloads::by_name("183.equake").unwrap());
        let full = crate::lint::standard_configs()[0];
        let memo = &mut CompileMemo::new(&w.region);
        let run = optimize_workload(&mut SimArena::new(), memo, &w, full, 8);
        let errors: Vec<_> = run.diagnostics.iter().filter(|d| d.is_error()).collect();
        assert!(errors.is_empty() && run.failures.is_empty(), "{errors:?}");
        assert_eq!(run.cycles.len(), 2, "both MDE backends timed");
        let report = OptSuiteReport { runs: vec![run] };
        assert_eq!(report.num_divergences(), 0);
        assert_eq!(report.num_regressions(), 0);
        assert_eq!(report.num_avoidable(), 0, "optimized runs leave no slack");
        // The ledger and the certificates agree one-for-one.
        let run = &report.runs[0];
        assert_eq!(run.certificates, run.stats.may_coalesced);
        assert_eq!(run.stats.order_removed, 0);
    }
}
