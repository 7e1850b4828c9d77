//! The `nachos-opt` suite runner: runs the certificate-carrying MDE
//! optimizer ([`nachos_alias::optimize()`]) over every Table II workload
//! under every compiler ablation, re-audits each optimized region (the
//! audit's `CertLint` pass re-verifies every rewrite certificate
//! independently), times the MDE backends with and without the optimizer,
//! and aggregates everything into the byte-deterministic `nachos-opt-v1`
//! JSON report.
//!
//! The report is the CI `opt-audit` gate: a certificate error, a run
//! diverging from its unoptimized twin, or an optimized cycle count
//! regressing past its unoptimized baseline all exit nonzero through the
//! `nachos-opt` binary.

use crate::lint::{standard_configs, LintConfig};
use nachos::json::JsonWriter;
use nachos::{Backend, EnergyModel, Run, SimArena, SimConfig};
use nachos_alias::OptStats;
use nachos_workloads::{generate_all, Workload};

/// What to optimize and how long to simulate.
#[derive(Clone, Debug)]
pub struct OptOptions {
    /// Restrict to one workload by Table II name (`None` = all 27).
    pub workload: Option<String>,
    /// Restrict to one named ablation (`None` = the full matrix).
    pub config: Option<String>,
    /// Invocations for the with/without timing comparison.
    pub invocations: u64,
}

impl Default for OptOptions {
    fn default() -> Self {
        Self {
            workload: None,
            config: None,
            invocations: crate::DEFAULT_INVOCATIONS,
        }
    }
}

/// One MDE backend timed with and without the optimizer.
#[derive(Clone, Copy, Debug)]
pub struct BackendCycles {
    /// The backend simulated (NACHOS-SW or NACHOS).
    pub backend: Backend,
    /// Cycles with the paper's stage-1..4 pipeline alone.
    pub unoptimized: u64,
    /// Cycles after `nachos-opt` rewrote the MDE plan.
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
    /// Error-severity audit findings on the *optimized* region — any
    /// entry means `CertLint` (or another audit pass) refused a rewrite.
    pub audit_errors: Vec<String>,
    /// With/without timings per MDE backend, `[NACHOS-SW, NACHOS]` order
    /// (empty only when a simulation failed; the failure is recorded in
    /// `audit_errors`).
    pub cycles: Vec<BackendCycles>,
}

/// `--strict` bar: the share of MAY edges the `full` pipeline plans that
/// coalescing must delete.
pub const MIN_FULL_MAY_COALESCED_FRACTION: f64 = 0.10;

/// `--strict` bar: workloads some MDE backend must run strictly faster
/// under the optimized `full` pipeline.
pub const MIN_FULL_IMPROVED_WORKLOADS: usize = 3;

/// `--strict` bar: workloads some MDE backend must run faster under some
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
    /// Invocations each timing run simulated.
    pub invocations: u64,
    /// One entry per workload × config, in deterministic order.
    pub runs: Vec<OptRun>,
}

impl OptSuiteReport {
    /// Audit findings on optimized regions (certificate or soundness
    /// errors) plus simulation failures — always fatal for the gate.
    #[must_use]
    pub fn num_cert_errors(&self) -> usize {
        self.runs.iter().map(|r| r.audit_errors.len()).sum()
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

    /// The `--strict` bars this report misses, one message each (empty
    /// when every bar is met). Only meaningful for the full suite.
    #[must_use]
    pub fn strict_shortfalls(&self) -> Vec<String> {
        let mut missed = Vec::new();
        let fraction = self.full_may_coalesced_fraction();
        if fraction < MIN_FULL_MAY_COALESCED_FRACTION {
            missed.push(format!(
                "coalesced {:.1}% of MAY edges under `full` (< {:.0}%)",
                fraction * 100.0,
                MIN_FULL_MAY_COALESCED_FRACTION * 100.0
            ));
        }
        let full = self.full_improved_workloads();
        if full < MIN_FULL_IMPROVED_WORKLOADS {
            missed.push(format!(
                "cycles improved on only {full} workload(s) under `full` \
                 (< {MIN_FULL_IMPROVED_WORKLOADS})"
            ));
        }
        let any = self.improved_workloads();
        if any < MIN_IMPROVED_WORKLOADS {
            missed.push(format!(
                "cycles improved on only {any} workload(s) across ablations \
                 (< {MIN_IMPROVED_WORKLOADS})"
            ));
        }
        missed
    }

    fn full_runs(&self) -> impl Iterator<Item = &OptRun> {
        self.runs.iter().filter(|r| r.config == "full")
    }

    fn cycle_rows(&self) -> impl Iterator<Item = &BackendCycles> {
        self.runs.iter().flat_map(|r| &r.cycles)
    }

    /// Renders the `nachos-opt-v1` report. Byte-deterministic: depends
    /// only on the optimized regions and the options.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::new();
        w.open_obj();
        w.str_field("schema", "nachos-opt-v1");
        w.u64_field("invocations", self.invocations);
        w.key("runs");
        w.open_arr();
        for run in &self.runs {
            let s = run.stats;
            w.open_obj();
            w.str_field("workload", &run.workload);
            w.str_field("config", &run.config);
            w.key("mdes");
            w.open_obj();
            w.u64_field("order_before", s.order_before as u64);
            w.u64_field("order_after", (s.order_before - s.order_removed) as u64);
            w.u64_field("forward", run.forward as u64);
            w.u64_field("may_before", s.may_before as u64);
            w.u64_field("may_after", (s.may_before - s.may_coalesced) as u64);
            w.close_obj();
            w.key("rewrites");
            w.open_obj();
            w.u64_field("order_removed", s.order_removed as u64);
            w.u64_field("may_coalesced", s.may_coalesced as u64);
            w.u64_field("certificates", run.certificates as u64);
            w.close_obj();
            w.key("comparator_sites");
            w.open_obj();
            w.u64_field("before", run.comparator_sites_before);
            w.u64_field("after", run.comparator_sites_after);
            w.close_obj();
            w.key("cycles");
            w.open_arr();
            for c in &run.cycles {
                w.open_obj();
                w.str_field("backend", &c.backend.to_string());
                w.u64_field("unoptimized", c.unoptimized);
                w.u64_field("optimized", c.optimized);
                w.bool_field("equivalent", c.equivalent);
                w.close_obj();
            }
            w.close_arr();
            w.key("audit_errors");
            w.open_arr();
            for e in &run.audit_errors {
                w.open_obj();
                w.str_field("error", e);
                w.close_obj();
            }
            w.close_arr();
            w.close_obj();
        }
        w.close_arr();
        w.key("totals");
        w.open_obj();
        w.u64_field("runs", self.runs.len() as u64);
        let sum =
            |f: fn(&OptStats) -> usize| self.runs.iter().map(|r| f(&r.stats)).sum::<usize>() as u64;
        w.u64_field("order_before", sum(|s| s.order_before));
        w.u64_field("order_removed", sum(|s| s.order_removed));
        w.u64_field("may_before", sum(|s| s.may_before));
        w.u64_field("may_coalesced", sum(|s| s.may_coalesced));
        w.f64_field(
            "full_may_coalesced_fraction",
            self.full_may_coalesced_fraction(),
        );
        w.u64_field("cert_errors", self.num_cert_errors() as u64);
        w.u64_field("regressions", self.num_regressions() as u64);
        w.u64_field("divergences", self.num_divergences() as u64);
        w.u64_field("improved_workloads", self.improved_workloads() as u64);
        w.u64_field(
            "full_improved_workloads",
            self.full_improved_workloads() as u64,
        );
        w.close_obj();
        w.close_obj();
        w.finish()
    }
}

/// Optimizes one workload under one ablation: rewrites the plan, audits
/// the result, and times both MDE backends with and without the
/// optimizer (differentially comparing their executions).
#[must_use]
pub fn optimize_workload(
    arena: &mut SimArena,
    w: &Workload,
    config: LintConfig,
    options: &OptOptions,
) -> OptRun {
    // Static pass: compile, optimize, and independently re-audit. The
    // timing runs below repeat this inside the driver (whose audit gate
    // refuses bad certificates outright); doing it here as well captures
    // the findings instead of just an error.
    let mut region = w.region.clone();
    let mut analysis = nachos_alias::compile(&mut region, config.stages);
    nachos_alias::optimize(&mut region, &mut analysis);
    let outcome = analysis.opt.as_ref().expect("optimizer records an outcome");
    let stats = outcome.stats;
    let certificates = outcome.certs.len();
    let forward = analysis.plan.forward.len();
    let mut audit_errors: Vec<String> = nachos_alias::audit_with(
        &region,
        &analysis,
        config.stages,
        &nachos_alias::AuditConfig::default(),
    )
    .into_iter()
    .filter(nachos_alias::Diagnostic::is_error)
    .map(|d| {
        format!(
            "[{}] {} at {}: {}",
            d.code.id(),
            d.region,
            d.site,
            d.message
        )
    })
    .collect();

    // Timing pass: both MDE backends, with and without the optimizer,
    // over the *original* region (the driver re-compiles internally).
    let energy = EnergyModel::default();
    let base = SimConfig::default().with_invocations(options.invocations);
    let opt = base.clone().with_optimize(true);
    let mut cycles = Vec::new();
    let mut comparator_sites = (0, 0);
    for backend in [Backend::NachosSw, Backend::Nachos] {
        let mut run = |cfg: &SimConfig| {
            Run::new(&w.region, &w.binding, backend)
                .stages(config.stages)
                .arena(&mut *arena)
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
                audit_errors.push(format!("{}: {backend} simulation failed: {e}", w.spec.name));
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
        audit_errors,
        cycles,
    }
}

/// Runs the optimizer matrix and returns the suite report.
///
/// # Panics
///
/// Panics if `options` names a workload or config that does not exist —
/// the CLI validates names before calling.
#[must_use]
pub fn run_opt_suite(options: &OptOptions) -> OptSuiteReport {
    let configs: Vec<LintConfig> = standard_configs()
        .into_iter()
        .filter(|c| options.config.as_deref().is_none_or(|name| name == c.name))
        .collect();
    assert!(!configs.is_empty(), "unknown config filter");
    let workloads: Vec<Workload> = generate_all()
        .into_iter()
        .filter(|w| {
            options
                .workload
                .as_deref()
                .is_none_or(|name| name == w.spec.name)
        })
        .collect();
    assert!(!workloads.is_empty(), "unknown workload filter");
    let mut arena = SimArena::new();
    let mut runs = Vec::with_capacity(workloads.len() * configs.len());
    for w in &workloads {
        for &config in &configs {
            runs.push(optimize_workload(&mut arena, w, config, options));
        }
    }
    OptSuiteReport {
        invocations: options.invocations,
        runs,
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

/// Renders the `nachos-bench-v2` perf artifact (`BENCH_sweep.json`): one
/// row per Table II workload combining the 27×5 sweep's cycles per
/// variant, the event-queue shape per variant (events pushed, live-depth
/// high-water mark), the optimized NACHOS/NACHOS-SW cycles, the MDE
/// census before vs. after `nachos-opt` (full-pipeline config), the
/// engine-measured comparator sites, and — when provided — steady-state
/// heap allocations per arena-reset run plus the sweep's measured
/// throughput. v2 is additions-only over v1: every v1 field is emitted
/// unchanged.
///
/// `allocs` maps workload name → allocations per run; workloads missing
/// from it simply omit the field (the library cannot observe the global
/// allocator — the `nachos-opt` binary measures and passes them in).
#[must_use]
pub fn bench_artifact_json(
    suite: &crate::SuiteRun,
    opt: &OptSuiteReport,
    allocs: &[(String, u64)],
    invocations: u64,
    timing: Option<SweepTiming>,
) -> String {
    let mut w = JsonWriter::new();
    w.open_obj();
    w.str_field("schema", "nachos-bench-v2");
    w.u64_field("invocations", invocations);
    if let Some(t) = timing {
        w.key("sweep");
        w.open_obj();
        w.u64_field("runs", t.runs);
        w.f64_field("wall_seconds", t.wall_seconds);
        w.f64_field(
            "runs_per_sec",
            if t.wall_seconds > 0.0 {
                t.runs as f64 / t.wall_seconds
            } else {
                0.0
            },
        );
        w.close_obj();
    }
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

    fn equake_options() -> OptOptions {
        OptOptions {
            workload: Some("183.equake".to_owned()),
            config: Some("full".to_owned()),
            invocations: 8,
        }
    }

    #[test]
    fn optimized_workload_is_certified_equivalent_and_no_slower() {
        let report = run_opt_suite(&equake_options());
        assert_eq!(report.runs.len(), 1);
        let run = &report.runs[0];
        assert!(run.audit_errors.is_empty(), "{:?}", run.audit_errors);
        assert_eq!(run.cycles.len(), 2, "both MDE backends timed");
        assert_eq!(report.num_divergences(), 0);
        assert_eq!(report.num_regressions(), 0);
        // The ledger and the certificates agree one-for-one.
        assert_eq!(run.certificates, run.stats.may_coalesced);
        assert_eq!(run.stats.order_removed, 0);
    }

    /// A hand-built run: `may` is `(before, coalesced)`; `faster` makes
    /// NACHOS one cycle quicker with the optimizer.
    fn run(workload: &str, config: &str, may: (usize, usize), faster: bool) -> OptRun {
        OptRun {
            workload: workload.to_owned(),
            config: config.to_owned(),
            stats: OptStats {
                may_before: may.0,
                may_coalesced: may.1,
                ..OptStats::default()
            },
            certificates: may.1,
            forward: 0,
            comparator_sites_before: 0,
            comparator_sites_after: 0,
            audit_errors: Vec::new(),
            cycles: vec![BackendCycles {
                backend: Backend::Nachos,
                unoptimized: 10,
                optimized: 10 - u64::from(faster),
                equivalent: true,
            }],
        }
    }

    #[test]
    fn strict_gate_reads_full_coalescing_and_improvements() {
        // Three faster workloads under `full`, two more only under an
        // ablation, and 10 of 100 `full` MAY edges coalesced: every bar
        // is met exactly. The ablation's coalescing does not count.
        let passing = vec![
            run("a", "full", (40, 4), true),
            run("b", "full", (30, 3), true),
            run("c", "full", (30, 3), true),
            run("d", "baseline", (50, 50), true),
            run("e", "no-prune", (0, 0), true),
        ];
        let report = |runs: Vec<OptRun>| OptSuiteReport {
            invocations: 1,
            runs,
        };
        assert!(report(passing.clone()).strict_shortfalls().is_empty());

        let mut low_coalescing = passing.clone();
        low_coalescing[0].stats.may_coalesced = 3;
        let missed = report(low_coalescing).strict_shortfalls();
        assert_eq!(missed.len(), 1, "{missed:?}");
        assert!(missed[0].contains("9.0% of MAY edges"), "{missed:?}");

        // Losing a `full` win drops both the `full` and the overall count.
        let mut fewer_wins = passing;
        fewer_wins[2] = run("c", "full", (30, 3), false);
        let missed = report(fewer_wins).strict_shortfalls();
        assert_eq!(missed.len(), 2, "{missed:?}");
        assert!(missed[0].contains("2 workload(s) under `full`"));
        assert!(missed[1].contains("4 workload(s) across ablations"));
    }

    #[test]
    fn report_is_byte_deterministic_and_carries_the_gate() {
        let options = equake_options();
        let a = run_opt_suite(&options).to_json();
        let b = run_opt_suite(&options).to_json();
        assert_eq!(a, b);
        assert!(a.contains("\"schema\": \"nachos-opt-v1\""));
        assert!(a.contains("\"cert_errors\": 0"));
        assert!(a.contains("\"divergences\": 0"));
        assert!(a.contains("\"regressions\": 0"));
    }
}
