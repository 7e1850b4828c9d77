//! # nachos-bench — the experiment harness
//!
//! Regenerates every quantitative table and figure of *NACHOS* (HPCA
//! 2018). [`claims`] holds the whole evaluation as one table of figures
//! and claims over one [`claims::Evidence`] run; this library provides
//! the shared runner that compiles and simulates every Table II workload
//! under every backend.
//!
//! The whole matrix goes through the parallel differential-sweep harness
//! ([`nachos::sweep`]): every run is checked against the in-order
//! reference executor, and the 27 workloads are distributed over a scoped
//! worker pool, so the suite regenerates in roughly the time of its
//! slowest workload rather than the sum of all of them.
//!
//! Print every figure with
//! `cargo run --release -p nachos-bench --bin nachos-claims` (or one, e.g.
//! `... --bin nachos-claims -- fig15`), or emit the machine-readable sweep
//! report with `cargo run --release -p nachos-bench --bin sweep`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod claims;
pub mod exitcode;
pub mod lint;
pub mod matrix;
pub mod opt;
pub mod stats;

use nachos::sweep::{run_sweep, JobOutcome, SweepConfig, SweepJob, SweepResult, SweepVariant};
use nachos::{pct_slowdown, ExperimentRun};
use nachos_alias::Analysis;
use nachos_workloads::{BenchSpec, Workload};

/// Default invocation count for the experiment harness: enough to warm
/// the cache and amortize start-up without inflating run times.
pub const DEFAULT_INVOCATIONS: u64 = 64;

/// Everything measured for one benchmark.
#[derive(Clone, Debug)]
pub struct BenchResult {
    /// The Table II row.
    pub spec: BenchSpec,
    /// The generated workload.
    pub workload: Workload,
    /// Full four-stage compiler analysis.
    pub analysis_full: Analysis,
    /// Baseline compiler analysis (Stage 1 + Stage 3 only).
    pub analysis_baseline: Analysis,
    /// OPT-LSQ run.
    pub lsq: ExperimentRun,
    /// NACHOS-SW run (full compiler, MAY serialized).
    pub sw: ExperimentRun,
    /// NACHOS run (full compiler, hardware MAY checks).
    pub hw: ExperimentRun,
    /// NACHOS-SW with the baseline compiler (Figure 12).
    pub sw_baseline: ExperimentRun,
    /// IDEAL oracle run (perfect disambiguation, Figure 9 upper bound);
    /// present only when the suite ran with the `--ideal` column.
    pub ideal: Option<ExperimentRun>,
}

impl BenchResult {
    /// % slowdown of NACHOS-SW vs OPT-LSQ (Figure 11; negative = speedup).
    #[must_use]
    pub fn sw_slowdown_pct(&self) -> f64 {
        pct_slowdown(self.sw.sim.cycles, self.lsq.sim.cycles)
    }

    /// % slowdown of NACHOS vs OPT-LSQ (Figure 15; negative = speedup).
    #[must_use]
    pub fn hw_slowdown_pct(&self) -> f64 {
        pct_slowdown(self.hw.sim.cycles, self.lsq.sim.cycles)
    }

    /// % slowdown of the baseline compiler vs OPT-LSQ (Figure 12).
    #[must_use]
    pub fn baseline_slowdown_pct(&self) -> f64 {
        pct_slowdown(self.sw_baseline.sim.cycles, self.lsq.sim.cycles)
    }
}

/// A suite run: per-workload figure data plus the raw sweep (for the
/// machine-readable report).
#[derive(Clone, Debug)]
pub struct SuiteRun {
    /// One result per Table II workload, in table order.
    pub results: Vec<BenchResult>,
    /// The underlying differential sweep.
    pub sweep: SweepResult,
}

/// The sweep configuration the experiment matrix uses: the paper's three
/// backends plus NACHOS-SW under the baseline compiler. With `ideal`,
/// the IDEAL oracle column is appended last (the `--ideal` flag), leaving
/// the default columns — and the default report — untouched.
#[must_use]
pub fn suite_config(invocations: u64, threads: usize, ideal: bool) -> SweepConfig {
    let cfg = SweepConfig::default()
        .with_invocations(invocations)
        .with_threads(threads)
        .with_variants(SweepVariant::bench_matrix());
    if ideal {
        cfg.with_ideal()
    } else {
        cfg
    }
}

/// Converts one generated workload into a sweep job.
#[must_use]
pub fn job_for(w: &Workload) -> SweepJob {
    SweepJob::new(w.spec.name, w.region.clone(), w.binding.clone())
}

/// The full 27-workload Table II suite as sweep jobs, in table order.
#[must_use]
pub fn suite_jobs() -> Vec<SweepJob> {
    nachos_workloads::generate_all()
        .iter()
        .map(job_for)
        .collect()
}

/// Resolves a report label (`"opt-lsq"`, `"nachos-sw"`, `"nachos"`,
/// `"nachos-sw-baseline"`, `"ideal"`) to its sweep variant — the sweep
/// binary's `--variants` flag.
#[must_use]
pub fn variant_by_label(label: &str) -> Option<SweepVariant> {
    let mut known = SweepVariant::bench_matrix();
    known.push(SweepVariant::ideal());
    known.into_iter().find(|v| v.label == label)
}

/// Builds a [`BenchResult`] from one job's sweep outcome, or a
/// deterministic description of why the outcome is unusable (a diverged
/// or degraded run, or a variant matrix other than
/// [`SweepVariant::bench_matrix`] plus optional ideal).
fn from_outcome(
    spec: BenchSpec,
    workload: Workload,
    outcome: JobOutcome,
) -> Result<BenchResult, String> {
    for r in &outcome.runs {
        if !r.matches_reference() {
            return Err(format!(
                "differential check failed: {} [{}] is {} ({})",
                outcome.name,
                r.variant,
                r.status,
                r.detail.as_deref().unwrap_or("diverged from the reference"),
            ));
        }
    }
    let name = outcome.name;
    let mut runs = outcome.runs;
    // The optional IDEAL oracle column is always appended last.
    let ideal = if runs.len() == 5 { runs.pop() } else { None };
    let [lsq, sw, hw, sw_baseline]: [_; 4] = runs.try_into().map_err(|_| {
        format!("{name}: bench outcomes carry the 4-variant bench matrix (plus optional ideal)")
    })?;
    let (sw, sw_baseline) = (sw.try_run()?.clone(), sw_baseline.try_run()?.clone());
    let analysis = |run: &ExperimentRun, what: &str| {
        let why = || format!("{name}: {what} run carries no analysis");
        run.analysis.clone().ok_or_else(why)
    };
    Ok(BenchResult {
        spec,
        workload,
        analysis_full: analysis(&sw, "NACHOS-SW")?,
        analysis_baseline: analysis(&sw_baseline, "baseline NACHOS-SW")?,
        lsq: lsq.try_run()?.clone(),
        hw: hw.try_run()?.clone(),
        ideal: ideal.map(|r| r.try_run().cloned()).transpose()?,
        sw,
        sw_baseline,
    })
}

/// Runs the full 27-benchmark suite on `threads` workers (`0` = one per
/// available core), with the IDEAL oracle column opt-in (the sweep
/// binary's `--ideal` flag), and returns both the figure data and the raw
/// sweep.
///
/// # Errors
///
/// Returns the failure description when a simulation fails or diverges
/// from the reference executor.
pub fn try_run_suite_opts(
    invocations: u64,
    threads: usize,
    ideal: bool,
) -> Result<SuiteRun, String> {
    let workloads = nachos_workloads::generate_all();
    let jobs: Vec<SweepJob> = workloads.iter().map(job_for).collect();
    let cfg = suite_config(invocations, threads, ideal);
    let sweep = run_sweep(&jobs, &cfg);
    let results = workloads
        .into_iter()
        .zip(sweep.jobs.iter().cloned())
        .map(|(w, outcome)| from_outcome(w.spec, w, outcome))
        .collect::<Result<Vec<_>, String>>()?;
    Ok(SuiteRun { results, sweep })
}

#[cfg(test)]
mod tests {
    use super::*;
    use nachos::Backend;

    /// The suite at 4 invocations, without the IDEAL column.
    fn suite() -> SuiteRun {
        try_run_suite_opts(4, 2, false).expect("every run matches the reference")
    }

    fn by_name<'a>(suite: &'a SuiteRun, name: &str) -> &'a BenchResult {
        suite.results.iter().find(|r| r.spec.name == name).unwrap()
    }

    #[test]
    fn suite_produces_consistent_matrix() {
        let suite = suite();
        let r = by_name(&suite, "gzip");
        assert_eq!(r.lsq.sim.backend, Backend::OptLsq);
        assert_eq!(r.sw.sim.backend, Backend::NachosSw);
        assert_eq!(r.hw.sim.backend, Backend::Nachos);
        assert!(r.lsq.analysis.is_none());
        assert!(r.sw.analysis.is_some());
        // gzip is fully resolved: NACHOS == NACHOS-SW.
        assert_eq!(r.sw.sim.cycles, r.hw.sim.cycles);
    }

    #[test]
    fn slowdown_helpers_are_consistent() {
        let suite = suite();
        let r = by_name(&suite, "parser");
        let direct = pct_slowdown(r.sw.sim.cycles, r.lsq.sim.cycles);
        assert!((r.sw_slowdown_pct() - direct).abs() < 1e-12);
    }

    #[test]
    fn suite_run_carries_matching_sweep() {
        let suite = try_run_suite_opts(2, 2, false).unwrap();
        assert_eq!(suite.results.len(), suite.sweep.jobs.len());
        assert!(suite.sweep.all_match());
        for (r, j) in suite.results.iter().zip(&suite.sweep.jobs) {
            assert_eq!(r.spec.name, j.name);
        }
    }
}
