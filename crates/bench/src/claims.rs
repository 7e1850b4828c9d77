//! The paper's evaluation as one claims table over one evidence run.
//!
//! [`Evidence::build`] runs everything the figures read exactly once.
//! [`figures`] is the table over it: per-row columns plus [`Claim`]s, each
//! with the paper's value as text (its only place in the code), a measured
//! value and a [`Check`]. `nachos-claims` prints it and gates on it
//! ([`verdict`]); EXPERIMENTS.md holds its [`Claim::row`]s, kept in sync
//! by `tests/claims.rs`.

use crate::exitcode::Verdict;
use crate::lint::{lint_workload, standard_configs, LintRun};
use crate::opt::{optimize_workload, OptSuiteReport, MIN_IMPROVED_WORKLOADS};
use crate::opt::{MIN_FULL_IMPROVED_WORKLOADS, MIN_FULL_MAY_COALESCED_FRACTION};
use crate::{job_for, try_run_suite_opts, BenchResult, SuiteRun, DEFAULT_INVOCATIONS};
use nachos::sweep::{run_sweep, SweepConfig, SweepResult, SweepVariant};
use nachos::{compile_for_backend, pct_slowdown, reference, simulate_in, Backend};
use nachos::{CompileMemo, DecentralizedModel, EnergyModel, ExperimentRun, SimArena, SimConfig};
use nachos_alias::{analyze, may_fanin, LabelCounts, PairKind, StageConfig};
use nachos_ir::{EdgeKind, Region};
use nachos_workloads::{by_name, generate, generate_path, Workload};

/// Invocations per ablation run.
const ABLATION_INVOCATIONS: u64 = 32;
/// The stage ablation's NACHOS-SW variants: label and stages 2/3/4.
const STAGE_SUBSETS: [(&str, [bool; 3]); 8] = [
    ("s1", [false, false, false]),
    ("s1+s2", [true, false, false]),
    ("s1+s3", [false, true, false]),
    ("s1+s4", [false, false, true]),
    ("s1+s2+s3", [true, true, false]),
    ("s1+s2+s4", [true, false, true]),
    ("s1+s3+s4", [false, true, true]),
    ("full", [true, true, true]),
];
const STAGE_APPS: [&str; 4] = ["parser", "183.equake", "histog.", "453.povray"];
const COMPARATOR_APPS: [&str; 4] = ["401.bzip2", "sar-pfa.", "453.povray", "fft-2d"];
const COMPARATORS: [u32; 4] = [1, 2, 4, 8];
const LSQ_APPS: [&str; 4] = ["gzip", "464.h264ref", "401.bzip2", "183.equake"];
/// OPT-LSQ geometries: banks and allocations per cycle.
const LSQ_GEOMETRIES: [(usize, u32); 3] = [(2, 1), (4, 2), (8, 4)];
const FORWARD_APPS: [&str; 4] = ["bodytrack", "453.povray", "namd", "freqmi."];
/// `E_lsq / E_MAY` ratios of the energy-ratio ablation.
const ENERGY_RATIOS: [f64; 5] = [2.0, 4.0, 6.0, 8.0, 12.0];

/// One workload's alias counts over its top five paths under stages 1–3
/// (Figures 6, 7, 9): stage-1 labels, stage-2 refinements, MDEs retained,
/// and stage-1 relations needing no MDE.
#[derive(Debug, Default)]
struct PathCounts {
    stage1: LabelCounts,
    refined: usize,
    retained: usize,
    pruned: usize,
}

fn path_counts(w: &Workload) -> PathCounts {
    let mut stages = StageConfig::full();
    stages.stage4 = false;
    let mut c = PathCounts::default();
    for path in 0..5 {
        let r = analyze(&generate_path(&w.spec, path).region, stages).report;
        let s1 = r.after_stage1;
        c.stage1.no += s1.no;
        c.stage1.may += s1.may;
        c.stage1.must += s1.must;
        c.refined += r.stage2_refined;
        c.retained += r.num_mdes();
        c.pruned += (s1.may + s1.must).saturating_sub(r.num_mdes());
    }
    c
}

/// A forwarding-ablation witness: its name, FORWARD edges, and NACHOS
/// cycles with forwarding and with every FORWARD edge downgraded to ORDER.
#[derive(Debug)]
struct ForwardRow(&'static str, usize, u64, u64);

/// Runs the forwarding ablation on `w` under NACHOS, checking both runs
/// against the reference executor (final memory and load digest). The
/// region comes validated and audited, unoptimized, from
/// [`compile_for_backend`].
fn forwarding(w: &Workload, config: &SimConfig) -> Result<ForwardRow, String> {
    let name = w.spec.name;
    let unoptimized = SimConfig {
        optimize: false,
        ..config.clone()
    };
    let (binding, nachos) = (&w.binding, Backend::Nachos);
    let compiled = compile_for_backend(&w.region, nachos, &unoptimized, StageConfig::full());
    let with_fwd = compiled
        .map_err(|e| format!("{name}: compile refused: {e}"))?
        .region;
    let mdes: Vec<_> = with_fwd.dfg.edges().copied().collect();
    let mut without_fwd = with_fwd.clone();
    without_fwd.dfg.clear_mdes();
    for e in mdes.iter().filter(|e| e.kind.is_mde()) {
        let forward = e.kind == EdgeKind::Forward;
        let kind = if forward { EdgeKind::Order } else { e.kind };
        let added = without_fwd.dfg.add_edge(e.src, e.dst, kind);
        added.map_err(|err| format!("{name}: re-inserting a planned edge: {err}"))?;
    }
    let reference = reference::execute(&w.region, &w.binding, config.invocations);
    let (mut arena, energy) = (SimArena::new(), EnergyModel::default());
    let mut cycles = |region: &Region| {
        let sim = simulate_in(&mut arena, region, binding, nachos, config, &energy);
        let sim = sim.map_err(|e| format!("{name}: forwarding ablation failed: {e}"))?;
        let diverged = sim.loads.digest() != reference.loads.digest();
        if diverged || sim.mem != reference.mem {
            return Err(format!("{name}: forwarding diverged from the reference"));
        }
        Ok(sim.cycles)
    };
    let forwards = mdes.iter().filter(|e| e.kind == EdgeKind::Forward).count();
    let (with, without) = (cycles(&with_fwd)?, cycles(&without_fwd)?);
    Ok(ForwardRow(name, forwards, with, without))
}

/// Everything the figures read: the bench-matrix suite with its analyses,
/// the path counts, the ablation sweeps and the optimizer suite over
/// every workload × ablation.
#[derive(Debug)]
pub struct Evidence {
    suite: SuiteRun,
    paths: Vec<PathCounts>,
    stages: SweepResult,
    comparators: Vec<SweepResult>,
    lsq: Vec<SweepResult>,
    forwarding: Vec<ForwardRow>,
    opt: OptSuiteReport,
}

type Sweep = Result<SweepResult, String>;

/// One differential sweep of `apps` under `sim`, refusing any non-ok run.
fn sweep(apps: &[&str], sim: SimConfig, variants: Vec<SweepVariant>) -> Sweep {
    let jobs: Vec<_> = apps.iter().map(|&n| job_for(&workload(n))).collect();
    let mut cfg = SweepConfig::default().with_variants(variants);
    cfg.sim = sim;
    let sweep = run_sweep(&jobs, &cfg);
    let bad = sweep.not_ok();
    let why = format!("ablation runs diverged: {bad:?}");
    bad.is_empty().then_some(sweep).ok_or(why)
}

fn workload(name: &str) -> Workload {
    generate(&by_name(name).expect("witnesses are Table II workloads"))
}

fn variant(label: String, backend: Backend, [s2, s3, s4]: [bool; 3]) -> SweepVariant {
    let mut stages = StageConfig::full();
    (stages.stage2, stages.stage3, stages.stage4) = (s2, s3, s4);
    SweepVariant {
        label,
        backend,
        stages,
    }
}

/// Audits and optimizes every suite workload under every ablation
/// (differential NO-pair replay and timing runs at `invocations`), one
/// thread per ablation, in ablation-major order.
fn audits(suite: &SuiteRun, invocations: u64) -> (Vec<LintRun>, OptSuiteReport) {
    let per_config = |config| {
        let mut arena = SimArena::new();
        let runs = suite.results.iter().map(|r| {
            let w = &r.workload;
            let mut memo = CompileMemo::new(&w.region);
            let lint = lint_workload(&mut memo, w, config, invocations);
            let opt = optimize_workload(&mut arena, &mut memo, w, config, invocations);
            (lint, opt)
        });
        runs.collect::<Vec<_>>()
    };
    let runs = std::thread::scope(|s| {
        let threads: Vec<_> = standard_configs()
            .into_iter()
            .map(|c| s.spawn(move || per_config(c)))
            .collect();
        let joined = threads
            .into_iter()
            .flat_map(|t| t.join().expect("audit thread"));
        joined.collect::<Vec<_>>()
    });
    let (lint, runs) = runs.into_iter().unzip();
    (lint, OptSuiteReport { runs })
}

/// Refuses every soundness finding: an Error diagnostic in either audit
/// (A-E07 NO-pair collisions and A-E08 refused certificates included),
/// an optimizer divergence or a failed optimizer simulation.
fn sound(lint: &[LintRun], opt: &OptSuiteReport) -> Result<(), String> {
    let mut errors = lint.iter().flat_map(|r| {
        let errors = r.diagnostics.iter().filter(|d| d.is_error());
        errors.map(move |d| format!("{} under `{}`: {d}", r.workload, r.config))
    });
    if let Some(first) = errors.next() {
        return Err(format!(
            "audit: {} error(s), first {first}",
            1 + errors.count()
        ));
    }
    let (errors, divergences) = (opt.num_cert_errors(), opt.num_divergences());
    if errors + divergences > 0 {
        let why = format!("{errors} certificate error(s), {divergences} divergence(s)");
        return Err(format!("optimizer: {why}"));
    }
    Ok(())
}

impl Evidence {
    /// Runs every experiment the figures read, and every audit.
    ///
    /// # Errors
    ///
    /// Describes the first run that failed or diverged from the reference
    /// executor, or a soundness finding of the audits or the optimizer.
    pub fn build() -> Result<Self, String> {
        let suite = try_run_suite_opts(DEFAULT_INVOCATIONS, 0, false)?;
        let paths = suite.results.iter().map(|r| path_counts(&r.workload));
        let paths = paths.collect();
        let sim = SimConfig::default().with_invocations(ABLATION_INVOCATIONS);
        let full = [true; 3];
        let subsets = STAGE_SUBSETS.iter();
        let subsets = subsets.map(|&(label, s)| variant(label.into(), Backend::NachosSw, s));
        let stages = sweep(&STAGE_APPS, sim.clone(), subsets.collect())?;
        let comparators = COMPARATORS.iter().map(|&n| {
            let v = variant(format!("nachos-{n}cmp"), Backend::Nachos, full);
            let mut sim = sim.clone();
            sim.comparators_per_site = n;
            sweep(&COMPARATOR_APPS, sim, vec![v])
        });
        let comparators = comparators.collect::<Result<_, _>>()?;
        let lsq = LSQ_GEOMETRIES.iter().map(|&(banks, alloc)| {
            let v = variant(format!("opt-lsq-{banks}bk{alloc}al"), Backend::OptLsq, full);
            let mut sim = sim.clone();
            (sim.lsq.banks, sim.lsq.alloc_per_cycle) = (banks, alloc);
            sweep(&LSQ_APPS, sim, vec![v])
        });
        let lsq = lsq.collect::<Result<_, _>>()?;
        let forwarding = FORWARD_APPS.iter().map(|&n| forwarding(&workload(n), &sim));
        let forwarding = forwarding.collect::<Result<_, _>>()?;
        let (lint, opt) = audits(&suite, DEFAULT_INVOCATIONS);
        sound(&lint, &opt)?;
        Ok(Self {
            suite,
            paths,
            stages,
            comparators,
            lsq,
            forwarding,
            opt,
        })
    }

    /// The optimizer suite over every workload × ablation.
    #[must_use]
    pub fn optimizer(&self) -> &OptSuiteReport {
        &self.opt
    }

    fn results(&self) -> &[BenchResult] {
        &self.suite.results
    }

    fn bench(&self, name: &str) -> (usize, &BenchResult) {
        let mut rs = self.results().iter().enumerate();
        let found = rs.find(|(_, r)| r.spec.name == name);
        found.expect("witnesses are Table II workloads")
    }
}

/// `nachos-claims`' exit verdict: a failed [`Evidence::build`] is a
/// divergence, a claim of `figures` without a deviation note that does
/// not hold is [`Verdict::StrictDegraded`].
#[must_use]
pub fn verdict(evidence: &Result<Evidence, String>, figures: &[Figure]) -> Verdict {
    let Ok(e) = evidence else {
        return Verdict::Divergence;
    };
    let mut claims = figures.iter().flat_map(|f| &f.claims);
    if claims.any(|c| c.verdict(e) == "FAILS") {
        Verdict::StrictDegraded
    } else {
        Verdict::Success
    }
}

/// Run `variant` of job `job` in a checked ablation sweep.
fn run(sweep: &SweepResult, job: usize, variant: usize) -> &ExperimentRun {
    let run = sweep.jobs[job].runs[variant].try_run();
    run.expect("checked sweeps carry live runs")
}

fn cycles(sweep: &SweepResult, job: usize, variant: usize) -> u64 {
    run(sweep, job, variant).sim.cycles
}

fn mdes(sweep: &SweepResult, job: usize, variant: usize) -> usize {
    let analysis = run(sweep, job, variant).analysis.as_ref();
    analysis.map_or(0, |a| a.plan.num_mdes())
}

/// How a claim's measurement is judged.
#[derive(Clone, Copy)]
pub enum Check {
    /// The measured count equals the first integer of the paper text.
    Count(fn(&Evidence) -> usize),
    /// A set, sign, winner or band relation that must hold.
    Holds(fn(&Evidence) -> bool),
    /// A departure explained by this DESIGN §8 paragraph (its letter).
    Deviation(&'static str),
}

/// One claim of the paper and its measurement here.
pub struct Claim {
    /// Stable identifier.
    pub id: &'static str,
    what: &'static str,
    /// The paper's value, as text.
    pub paper: &'static str,
    /// Renders the measured value.
    pub measured: fn(&Evidence) -> String,
    /// How the measurement is judged.
    pub check: Check,
}

impl Claim {
    /// `holds` or `FAILS` for a shape check, else the deviation's DESIGN
    /// paragraph.
    #[must_use]
    pub fn verdict(&self, e: &Evidence) -> String {
        let mut words = self.paper.split(|c: char| !c.is_ascii_alphanumeric());
        let holds = match self.check {
            Check::Count(f) => words.find_map(|w| w.parse().ok()) == Some(f(e)),
            Check::Holds(f) => f(e),
            Check::Deviation(p) => return format!("deviation, DESIGN §8({p})"),
        };
        (if holds { "holds" } else { "FAILS" }).to_owned()
    }

    /// The claim as a row of EXPERIMENTS.md's claim tables.
    #[must_use]
    pub fn row(&self, figure: &str, e: &Evidence) -> String {
        let (what, paper) = (self.what, self.paper);
        let (measured, verdict) = ((self.measured)(e), self.verdict(e));
        format!("| `{figure}` | {what} | {paper} | {measured} | {verdict} |\n")
    }
}

/// One table or figure: per-row columns and claims.
pub struct Figure {
    /// Identifier `nachos-claims` takes (`fig15`, `ablation-stages`, …).
    pub id: &'static str,
    title: &'static str,
    /// The EXPERIMENTS.md section listing its claims.
    pub section: &'static str,
    header: &'static [&'static str],
    rows: fn(&Evidence) -> Vec<Vec<String>>,
    /// Claims.
    pub claims: Vec<Claim>,
}

impl Figure {
    /// Renders the per-row table and the claims as markdown tables.
    #[must_use]
    pub fn render(&self, e: &Evidence) -> String {
        let line = |cells: &[String]| format!("| {} |\n", cells.join(" | "));
        let header: Vec<String> = self.header.iter().map(|h| (*h).to_owned()).collect();
        let mut out = format!("## `{}`: {}\n\n{}", self.id, self.title, line(&header));
        out += &line(&vec!["---".to_owned(); header.len()]);
        for row in (self.rows)(e) {
            out += &line(&row);
        }
        out += "\n| Exp. | Claim | Paper | Measured | Check |\n|---|---|---|---|---|\n";
        for c in &self.claims {
            out += &c.row(self.id, e);
        }
        out + "\n"
    }
}

fn pct(x: f64) -> String {
    format!("{x:.1}%")
}

fn signed(x: f64) -> String {
    format!("{x:+.1}%")
}

fn ratio(part: usize, whole: usize) -> f64 {
    100.0 * part as f64 / whole.max(1) as f64
}

fn avg(xs: impl Iterator<Item = f64>) -> f64 {
    let (sum, n) = xs.fold((0.0, 0), |(s, n), x| (s + x, n + 1));
    sum / f64::from(n)
}

/// One row per workload: its name, then `row`'s cells.
fn each(e: &Evidence, row: fn(&BenchResult, &PathCounts) -> Vec<String>) -> Vec<Vec<String>> {
    let rs = e.results().iter().zip(&e.paths);
    rs.map(|(r, p)| [vec![r.spec.name.to_owned()], row(r, p)].concat())
        .collect()
}

/// One row per `(i, j)`, `i` major.
fn grid(n: usize, m: usize, row: impl Fn(usize, usize) -> Vec<String>) -> Vec<Vec<String>> {
    (0..n * m).map(|k| row(k / m, k % m)).collect()
}

fn workloads(e: &Evidence) -> usize {
    e.results().len()
}

fn count(e: &Evidence, keep: impl Fn(&BenchResult) -> bool) -> usize {
    e.results().iter().filter(|r| keep(r)).count()
}

/// Names of the workloads whose index passes `keep`.
fn names(e: &Evidence, keep: impl Fn(usize) -> bool) -> String {
    let kept = e.results().iter().enumerate().filter(|&(i, _)| keep(i));
    let names: Vec<_> = kept.map(|(_, r)| r.spec.name).collect();
    names.join(", ")
}

/// `min–max` of a per-workload count.
fn span_of(e: &Evidence, value: fn(&BenchResult) -> usize) -> String {
    let values = e.results().iter().map(value);
    let lo = values.clone().min().unwrap_or(0);
    format!("{lo}–{}", values.max().unwrap_or(0))
}

type Ranked = Vec<(&'static str, f64)>;

/// Workloads whose `value` passes `keep`, largest magnitude first.
fn ranked(e: &Evidence, value: impl Fn(usize) -> f64, keep: fn(f64) -> bool) -> Ranked {
    let rs = e.results().iter().enumerate();
    let pairs = rs.map(|(i, r)| (r.spec.name, value(i)));
    let mut v: Ranked = pairs.filter(|&(_, x)| keep(x)).collect();
    v.sort_by(|a, b| b.1.abs().total_cmp(&a.1.abs()));
    v
}

/// The first `cap` entries as `name value`, eliding the rest.
fn top(v: &[(&str, f64)], cap: usize, fmt: fn(f64) -> String) -> String {
    let shown = v.iter().take(cap).map(|&(n, x)| format!("{n} {}", fmt(x)));
    let shown: Vec<_> = shown.collect();
    shown.join(", ") + if v.len() > cap { ", …" } else { "" }
}

/// "N apps, up to X — name x, …" over the workloads whose `value` passes
/// `keep`.
fn apps(e: &Evidence, value: fn(&BenchResult) -> f64, keep: fn(f64) -> bool) -> String {
    let v = ranked(e, |i| value(&e.results()[i]), keep);
    let max = v.first().map_or(0.0, |x| x.1);
    let list = top(&v, 9, |x| format!("{x:+.1}"));
    format!("{} apps, up to {} — {list}", v.len(), signed(max))
}

/// The mean of a per-workload share and its three largest values.
fn share(e: &Evidence, value: fn(&BenchResult) -> f64) -> String {
    let peaks = top(&ranked(e, |i| value(&e.results()[i]), |_| true), 3, pct);
    let mean = pct(avg(e.results().iter().map(value)));
    format!("{mean} (peaks: {peaks})")
}

fn saving(r: &BenchResult) -> f64 {
    let lsq = r.lsq.sim.energy.total();
    100.0 * (lsq - r.hw.sim.energy.total()) / lsq
}

fn mde_share(r: &BenchResult) -> f64 {
    r.hw.sim.energy.pct(r.hw.sim.energy.mde)
}

fn lsq_share(r: &BenchResult) -> f64 {
    r.lsq.sim.energy.pct(r.lsq.sim.energy.lsq())
}

fn mem_ops(r: &BenchResult) -> usize {
    r.workload.region.num_global_mem_ops()
}

fn pct_mem(r: &BenchResult) -> f64 {
    ratio(mem_ops(r), r.workload.region.dfg.num_nodes())
}

/// Share of memory operations in at least one enforced MAY relation.
fn pct_may(r: &BenchResult) -> f64 {
    let a = &r.analysis_full;
    let mut ends: Vec<_> = a.plan.may.iter().flat_map(|&(o, y)| [o, y]).collect();
    ends.sort_unstable();
    ends.dedup();
    ratio(ends.len(), a.matrix.num_ops())
}

/// Mean %MAY over the workloads whose NACHOS-SW slowdown passes `keep`.
fn sw_may(e: &Evidence, keep: fn(f64) -> bool) -> f64 {
    let rs = e.results().iter().filter(|r| keep(r.sw_slowdown_pct()));
    avg(rs.map(pct_may))
}

fn fanin_pct(r: &BenchResult, keep: fn(usize) -> bool) -> String {
    let fanin = may_fanin(&r.analysis_full);
    let n = fanin.iter().filter(|&&f| keep(f)).count();
    format!("{:.0}%", ratio(n, fanin.len()))
}

fn max_fanin(r: &BenchResult) -> usize {
    may_fanin(&r.analysis_full).into_iter().max().unwrap_or(0)
}

/// bzip2's memory operations with at least 30 older MAY parents.
fn hot_sites(e: &Evidence) -> usize {
    let fanin = may_fanin(&e.bench("401.bzip2").1.analysis_full);
    fanin.into_iter().filter(|&f| f >= 30).count()
}

fn must_pairs(r: &BenchResult, kind: PairKind) -> String {
    let pairs = r.analysis_full.matrix.pairs();
    let n = pairs.filter(|&(_, k, l)| k == kind && l.is_must()).count();
    n.to_string()
}

fn stage2_pct(p: &PathCounts) -> f64 {
    ratio(p.refined, p.stage1.may)
}

fn stage3_pct(p: &PathCounts) -> f64 {
    ratio(p.pruned, p.stage1.may + p.stage1.must)
}

/// A bloom-hit rate's class: 0 for 0%, then 0–10%, 10–20% and 20%+.
fn bloom_class(r: &BenchResult) -> usize {
    let hit = r.lsq.sim.bloom.hit_pct();
    usize::from(hit > 0.0) + usize::from(hit >= 10.0) + usize::from(hit >= 20.0)
}

/// MAY edges the full compiler enforces.
fn mays(r: &BenchResult) -> usize {
    r.analysis_full.plan.may.len()
}

fn may_per_op(r: &BenchResult) -> Option<f64> {
    (mem_ops(r) > 0).then(|| mays(r) as f64 / mem_ops(r) as f64)
}

fn stage4_resolves(r: &BenchResult) -> bool {
    let report = &r.analysis_full.report;
    report.stage4_refined > 0 && report.final_labels.may == 0
}

/// NACHOS-SW slowdowns (>4%) NACHOS beats, out of all of them.
fn recovered(e: &Evidence) -> (usize, usize) {
    let slow = |r: &BenchResult| r.sw_slowdown_pct() > 4.0;
    let won = count(e, |r| slow(r) && r.hw.sim.cycles < r.sw.sim.cycles);
    (won, count(e, slow))
}

fn model(ratio: f64) -> DecentralizedModel {
    DecentralizedModel {
        e_may: 500.0,
        e_lsq: 500.0 * ratio,
    }
}

fn unprofitable(e: &Evidence, ratio: f64) -> Vec<&'static str> {
    let m = model(ratio);
    let losing = |r: &BenchResult| !m.profitable(mays(r), mem_ops(r));
    let rs = e.results().iter().filter(|r| mem_ops(r) > 0 && losing(r));
    rs.map(|r| r.spec.name).collect()
}

/// Cost of stage subset `c` on stage witness `j` vs the full pipeline.
fn stage_cost(e: &Evidence, j: usize, c: usize) -> f64 {
    let full = cycles(&e.stages, j, STAGE_SUBSETS.len() - 1);
    pct_slowdown(cycles(&e.stages, j, c), full)
}

/// Cycles of witness `j` over every point of a one-variant ablation.
fn series(points: &[SweepResult], j: usize) -> Vec<u64> {
    points.iter().map(|s| cycles(s, j, 0)).collect()
}

/// `a→b` over a series' first and last points.
fn span(s: &[u64]) -> String {
    format!("{}→{}", s[0], s[s.len() - 1])
}

/// Summed over the `full` optimizer runs: MAY edges, coalesced MAY edges,
/// and comparator sites before and after.
fn opt_totals(e: &Evidence) -> [u64; 4] {
    let sums = e.opt.full_runs().map(|r| {
        let (may, merged) = (r.stats.may_before as u64, r.stats.may_coalesced as u64);
        let sites = (r.comparator_sites_before, r.comparator_sites_after);
        [may, merged, sites.0, sites.1]
    });
    sums.fold([0; 4], |t, r| {
        [t[0] + r[0], t[1] + r[1], t[2] + r[2], t[3] + r[3]]
    })
}

/// Optimized `full` runs slower than their unoptimized twin.
fn full_regressions(e: &Evidence) -> usize {
    let rows = e.opt.full_runs().flat_map(|r| &r.cycles);
    rows.filter(|c| c.regressed()).count()
}

/// Timed optimizer runs: one per MDE backend per workload × ablation.
fn timed_runs(e: &Evidence) -> usize {
    e.opt.runs.iter().map(|r| r.cycles.len()).sum()
}

/// Every figure, in EXPERIMENTS.md order, laid out as a table.
#[must_use]
#[rustfmt::skip]
pub fn figures() -> Vec<Figure> {
    use Check::{Count, Deviation, Holds};
    let fig = |id, title, section, header, rows, claims| {
        Figure { id, title, section, header, rows, claims }
    };
    let claim = |id, what, paper, measured, check| Claim { id, what, paper, measured, check };
    let (headline, pipeline, perf, energy) =
        ("Headline claims", "Compiler pipeline", "Performance", "Energy");
    let ablations = "Ablations (this repo's additions)";
    vec![
        fig("summary", "paper-vs-measured headline results (the abstract, §VI and §VIII)", headline,
            &["App", "q-events", "q-depth"],
            |e| each(e, |r, _| vec![r.hw.sim.queue_events.to_string(), r.hw.sim.heap_max_depth.to_string()]),
            vec![
                claim("sw-slower", "NACHOS-SW slower than OPT-LSQ (>4%)",
                      "6 apps, 18–100% (§VI names 9: bzip2, art, fft, povray, histogram, \
                       soplex, sar-back, sar-pfa, freqmine)",
                      |e| apps(e, BenchResult::sw_slowdown_pct, |x| x > 4.0), Deviation("b")),
                claim("sw-faster", "NACHOS-SW faster than OPT-LSQ (>4%), on 5–9 apps",
                      "~7 apps, 8–62%", |e| apps(e, BenchResult::sw_slowdown_pct, |x| x < -4.0),
                      Holds(|e| (5..=9).contains(&count(e, |r| r.sw_slowdown_pct() < -4.0)))),
                claim("hw-within", "NACHOS within 2.5% of OPT-LSQ", "19 apps", |e| {
                          let within = count(e, |r| r.hw_slowdown_pct().abs() <= 2.5);
                          let band = count(e, |r| (-9.0..-2.5).contains(&r.hw_slowdown_pct()));
                          format!("{within} apps; a further {band} sit in the −9…−2.5% band")
                      }, Deviation("a")),
                claim("hw-faster", "NACHOS faster than OPT-LSQ (>2.5%)", "6 apps, 6–70%",
                      |e| apps(e, BenchResult::hw_slowdown_pct, |x| x < -2.5), Deviation("a")),
                claim("hw-slower", "NACHOS slower than OPT-LSQ (fan-in contention)",
                      "2 apps (bzip2, sar-pfa), ~8%",
                      |e| apps(e, BenchResult::hw_slowdown_pct, |x| x > 2.5), Deviation("b")),
                claim("zero-overhead", "Zero dynamic-check energy overhead", "15 of 27",
                      |e| format!("{} of {}", count(e, |r| r.hw.sim.events.may_checks == 0), workloads(e)),
                      Count(|e| count(e, |r| r.hw.sim.events.may_checks == 0))),
                claim("mde-share", "MDE share of total energy (avg)", "~6%",
                      |e| share(e, mde_share), Deviation("c")),
                claim("lsq-share", "OPT-LSQ share of total energy (avg)", "27% (incl. L1)",
                      |e| share(e, lsq_share), Deviation("c")),
                claim("energy-saving",
                      "Net energy saving of NACHOS vs OPT-LSQ (avg); positive wherever memory \
                       ops run", "~21% (12–40%)", |e| pct(avg(e.results().iter().map(saving))),
                      Holds(|e| count(e, |r| mem_ops(r) > 0 && saving(r) <= 0.0) == 0)),
            ]),
        fig("table2", "acceleration-region characteristics (Table II)", pipeline,
            &["App", "Suite", "#OPs", "#Mem", "MLP", "St-St", "St-Ld", "Ld-St", "%LOC"],
            |e| each(e, |r, _| vec![format!("{:?}", r.spec.suite), r.workload.region.dfg.num_nodes().to_string(),
                                    mem_ops(r).to_string(), r.spec.mlp.to_string(),
                                    must_pairs(r, PairKind::StSt), must_pairs(r, PairKind::StLd),
                                    must_pairs(r, PairKind::LdSt), r.spec.pct_local.to_string()]),
            vec![claim("table2",
                       "Region characteristics (dependence columns: MUST pairs the compiler finds)",
                       "27 regions: #OPs 29–559, #MEM 0–215, MLP 0–128, %LOC 0–64",
                       |e| format!("{} regions: #OPs {}, #MEM {}, MLP {}, %LOC {}", workloads(e),
                                   span_of(e, |r| r.workload.region.dfg.num_nodes()),
                                   span_of(e, mem_ops), span_of(e, |r| r.spec.mlp as usize),
                                   span_of(e, |r| r.spec.pct_local as usize)),
                       Count(workloads))]),
        fig("fig06", "Stage 1 — MAY/MUST pairwise alias relations, top 5 paths (Figure 6 / §V-B)",
            pipeline, &["App", "%MAY", "%MUST", "%NO", "pairs"],
            |e| each(e, |_, p| {
                let (s1, total) = (p.stage1, p.stage1.total());
                vec![pct(ratio(s1.may, total)), pct(ratio(s1.must, total)),
                     pct(ratio(s1.no, total)), total.to_string()]
            }),
            vec![claim("stage1-resolved", "Workloads Stage 1 alone fully resolves",
                       "7 of 27 (gzip, mcf×2, crafty, sjeng, blackscholes + 1)",
                       |e| format!("{} of {}: {}", e.paths.iter().filter(|p| p.stage1.may == 0)
                                   .count(), workloads(e), names(e, |i| e.paths[i].stage1.may == 0)),
                       Count(|e| e.paths.iter().filter(|p| p.stage1.may == 0).count()))]),
        fig("fig07", "Stage 2 — MAY -> NO via provenance, top 5 paths (Figure 7 / §V-C)", pipeline,
            &["App", "MAY(s1)", "MAY(s2)", "refined", "%converted"],
            |e| each(e, |_, p| vec![p.stage1.may.to_string(), (p.stage1.may - p.refined).to_string(),
                                    p.refined.to_string(), pct(stage2_pct(p))]),
            vec![claim("stage2-refined", "Workloads Stage 2 refines; their MAY→NO share",
                       "10 workloads; 20–80% where effective (parser 29%)", |e| {
                           let hit = ranked(e, |i| stage2_pct(&e.paths[i]), |x| x > 0.0);
                           let (hi, lo) = (hit[0].1, hit[hit.len() - 1].1);
                           let parser = stage2_pct(&e.paths[e.bench("parser").0]);
                           format!("{} workloads; {lo:.0}–{hi:.0}% where effective (parser {parser:.0}%)", hit.len())
                       }, Deviation("c"))]),
        fig("fig09", "Stage 3 — relations retained, top 5 paths (Figure 9 / §V-D)", pipeline,
            &["App", "relations", "retained", "pruned", "%pruned"],
            |e| each(e, |_, p| vec![(p.stage1.may + p.stage1.must).to_string(), p.retained.to_string(),
                                    p.pruned.to_string(), pct(stage3_pct(p))]),
            vec![claim("stage3-pruned",
                       "Stage-1 relations needing no edge (mean over workloads with relations)",
                       "~68%; fft-2d 84%, histogram 93%", |e| {
                           let with = e.paths.iter().filter(|p| p.stage1.may + p.stage1.must > 0);
                           let peaks = ranked(e, |i| stage3_pct(&e.paths[i]), |_| true);
                           let peaks = top(&peaks, 4, |x| format!("{x:.0}%"));
                           format!("mean {}; {peaks}", pct(avg(with.map(stage3_pct))))
                       }, Deviation("c"))]),
        fig("fig10", "%MEM vs %MAY per workload (Figure 10 / §VI)", pipeline, &["App", "%MEM", "%MAY"],
            |e| each(e, |r, _| vec![pct(pct_mem(r)), pct(pct_may(r))]),
            vec![claim("mem-vs-may", "NACHOS-SW slowdowns carry more %MAY than its speedups",
                       "slowdowns combine high %MEM with high %MAY; speedups have near-zero %MAY",
                       |e| format!("mean %MAY {} where NACHOS-SW is >4% slower, {} where faster",
                                   pct(sw_may(e, |x| x > 4.0)), pct(sw_may(e, |x| x < -4.0))),
                       Holds(|e| sw_may(e, |x| x > 4.0) > sw_may(e, |x| x < -4.0)))]),
        fig("fig14", "MAY-alias fan-in per memory operation (Figure 14 / §VII)", pipeline,
            &["App", "=0", "=1", "=2", ">2", "max"],
            |e| each(e, |r, _| vec![fanin_pct(r, |f| f == 0), fanin_pct(r, |f| f == 1),
                                    fanin_pct(r, |f| f == 2), fanin_pct(r, |f| f > 2),
                                    max_fanin(r).to_string()]),
            vec![
                claim("fanin-none", "Workloads with no MAY fan-in", "9 workloads",
                      |e| format!("{} workloads", count(e, |r| max_fanin(r) == 0)), Deviation("c")),
                claim("fanin-bzip2", "bzip2's hot fan-in sites (≥ 30 MAY parents)",
                      "3 ops with ~50 parents",
                      |e| format!("{} ops, max {}", hot_sites(e), max_fanin(e.bench("401.bzip2").1)),
                      Count(hot_sites)),
            ]),
        fig("fig16", "MDEs enforced — NACHOS vs baseline compiler (Figure 16 / §VIII-B)", pipeline,
            &["App", "base MDEs", "nachos", "ratio", "MAY", "MUST"],
            |e| each(e, |r, _| {
                let (full, may, base) = (r.analysis_full.plan.num_mdes(), mays(r), r.analysis_baseline.plan.num_mdes());
                let ratio = if base == 0 { f64::from(u8::from(full > 0)) } else { full as f64 / base as f64 };
                vec![base.to_string(), full.to_string(), format!("{ratio:.2}"), may.to_string(), (full - may).to_string()]
            }),
            vec![claim("mdes", "MDEs per workload that needs them",
                       "7–296 where present, average ~54; povray/bzip2/fft-2d >250", |e| {
                           let mdes = |i: usize| e.results()[i].analysis_full.plan.num_mdes() as f64;
                           let v = ranked(e, mdes, |x| x > 0.0);
                           let (hi, lo) = (v[0].1, v[v.len() - 1].1);
                           let avg = avg(v.iter().map(|x| x.1)).floor();
                           format!("{lo}–{hi}, average {avg}; {}", top(&v, 3, |x| x.to_string()))
                       }, Deviation("c"))]),
        fig("fig11", "NACHOS-SW vs OPT-LSQ performance (Figure 11 / §VI)", perf,
            &["App", "LSQ cyc", "SW cyc", "%slowdown"],
            |e| each(e, |r, _| vec![r.lsq.sim.cycles.to_string(), r.sw.sim.cycles.to_string(),
                                    signed(r.sw_slowdown_pct())]),
            vec![claim("sw-within", "NACHOS-SW within ~4% of OPT-LSQ", "21 of 27",
                       |e| format!("{} of {}", count(e, |r| r.sw_slowdown_pct().abs() <= 4.0), workloads(e)),
                       Deviation("a"))]),
        fig("fig12", "baseline compiler (Stage 1+3) vs OPT-LSQ (Figure 12 / §VI)", perf,
            &["App", "base %slow", "full-SW %slow", "s2 gain", "s4 gain"],
            |e| each(e, |r, _| vec![signed(r.baseline_slowdown_pct()), signed(r.sw_slowdown_pct()),
                                    r.analysis_full.report.stage2_refined.to_string(),
                                    r.analysis_full.report.stage4_refined.to_string()]),
            vec![
                claim("baseline-slowdown", "Apps the baseline compiler slows by >10%",
                      "10 apps, max ~4× (lbm 400%)",
                      |e| apps(e, BenchResult::baseline_slowdown_pct, |x| x > 10.0), Deviation("c")),
                claim("stage4", "Workloads where Stage 4 resolves every remaining MAY",
                      "exactly equake, lbm, namd, bodytrack, dwt53",
                      |e| names(e, |i| stage4_resolves(&e.results()[i])),
                      Holds(|e| names(e, |i| stage4_resolves(&e.results()[i]))
                          == "183.equake, namd, lbm, bodytrack, dwt53")),
            ]),
        fig("fig15", "NACHOS vs OPT-LSQ performance, markers NACHOS-SW (Figure 15 / §VIII-A)", perf,
            &["App", "LSQ cyc", "NACHOS cyc", "NACHOS %", "SW %", "may checks"],
            |e| each(e, |r, _| vec![r.lsq.sim.cycles.to_string(), r.hw.sim.cycles.to_string(),
                                    signed(r.hw_slowdown_pct()), signed(r.sw_slowdown_pct()),
                                    r.hw.sim.events.may_checks.to_string()]),
            vec![claim("hw-recovers",
                       "NACHOS beats NACHOS-SW wherever NACHOS-SW is >4% slower than OPT-LSQ",
                       "hardware MAY checks recover the serialization loss", |e| {
                           let worst = ranked(e, |i| e.results()[i].hw_slowdown_pct(), |x| x > 0.0);
                           let (won, slow) = recovered(e);
                           format!("{won} of {slow}; worst residual {}", top(&worst, 1, signed))
                       }, Holds(|e| matches!(recovered(e), (won, slow) if slow > 0 && won == slow)))]),
        fig("fig17", "NACHOS energy breakdown and reduction vs OPT-LSQ (Figure 17 / §VIII-B)", energy,
            &["App", "%COMPUTE", "%MDE", "%L1", "vs LSQ", "%mem-ops"],
            |e| each(e, |r, _| {
                let hw = &r.hw.sim.energy;
                vec![pct(hw.pct(hw.compute)), pct(mde_share(r)), pct(hw.pct(hw.l1)),
                     signed(saving(r)), format!("{:.0}%", pct_mem(r))]
            }),
            vec![]),
        fig("fig18", "OPT-LSQ dynamic energy and bloom-filter behaviour (Figure 18 / §VIII-C)", energy,
            &["App", "%COMPUTE", "%BLOOM", "%CAM", "%L1", "%LSQ", "bloom-hit"],
            |e| each(e, |r, _| {
                let lsq = &r.lsq.sim.energy;
                vec![pct(lsq.pct(lsq.compute)), pct(lsq.pct(lsq.lsq_bloom)), pct(lsq.pct(lsq.lsq_cam)),
                     pct(lsq.pct(lsq.l1)), pct(lsq_share(r)), pct(r.lsq.sim.bloom.hit_pct())]
            }),
            vec![
                claim("bloom-classes", "Workloads per bloom-hit class",
                      "0% (9 apps) / 0–10% (5) / 10–20% (6) / 20%+ (5)", |e| {
                          let n = |class| count(e, |r| bloom_class(r) == class);
                          format!("0% ({}) / 0–10% ({}) / 10–20% ({}) / 20%+ ({})", n(0), n(1), n(2), n(3))
                      }, Deviation("c")),
                claim("bloom-zero", "The 0% class holds the load-only, fully resolved workloads",
                      "high-store workloads hit most",
                      |e| names(e, |i| bloom_class(&e.results()[i]) == 0),
                      Holds(|e| ["gzip", "181.mcf", "crafty", "sjeng"]
                          .iter().all(|&n| bloom_class(e.bench(n).1) == 0))),
            ]),
        fig("appendix", "decentralized-checking energy model (the Appendix equations)", energy,
            &["App", "#MEM", "MAY-MDEs", "MAY/op", "model ratio", "measured"],
            |e| each(e, |r, _| {
                let ratio = |x| [format!("{x:.2}"), format!("{:.3}", model(6.0).energy_ratio(mays(r), mem_ops(r)))];
                let [per_op, ratio] = may_per_op(r).map(ratio).unwrap_or(["-".into(), "-".into()]);
                let lsq = r.lsq.sim.energy.lsq();
                let measured = if lsq > 0.0 { r.hw.sim.energy.mde / lsq } else { 0.0 };
                vec![mem_ops(r).to_string(), mays(r).to_string(), per_op, ratio, format!("{measured:.3}")]
            }),
            vec![
                claim("breakeven", "Break-even MAY parents per memory op", "6 MAY parents/op",
                      |_| format!("{:.1}", DecentralizedModel::default().breakeven_may_per_op()),
                      Count(|_| DecentralizedModel::default().breakeven_may_per_op() as usize)),
                claim("over-one-may", "Workloads with ≥ 1 enforced MAY alias per memory op",
                      "exactly 7 (bzip2, soplex, povray, fft, freqmine, sar, histogram)",
                      |e| names(e, |i| may_per_op(&e.results()[i]).is_some_and(|x| x >= 1.0)),
                      Count(|e| count(e, |r| may_per_op(r).is_some_and(|x| x >= 1.0)))),
            ]),
        fig("ablation-stages", "compiler stage subsets, NACHOS-SW (an extension of Figure 12)",
            ablations, &["App", "config", "cycles", "MDEs", "%vs-full"],
            |e| grid(STAGE_APPS.len(), 8, |j, c| vec![
                STAGE_APPS[j].into(), STAGE_SUBSETS[c].0.into(), cycles(&e.stages, j, c).to_string(),
                mdes(&e.stages, j, c).to_string(), format!("{:+.0}%", stage_cost(e, j, c))]),
            vec![claim("stages", "Which stage each witness needs; stage 3 cuts MDEs at equal cycles",
                       "parser needs stage 2, equake stage 4, histogram stage 2", |e| format!(
                           "without s2: parser {:+.0}%, histog. {:+.0}%; without s4: 183.equake \
                            {:+.0}%; s3 cuts 183.equake {}→{} MDEs",
                           stage_cost(e, 0, 6), stage_cost(e, 2, 6), stage_cost(e, 1, 4),
                           mdes(&e.stages, 1, 5), mdes(&e.stages, 1, 7)),
                       Holds(|e| [(0, 6), (2, 6), (1, 4)].iter().all(|&(j, c)| stage_cost(e, j, c) > 0.0)
                           && mdes(&e.stages, 1, 7) < mdes(&e.stages, 1, 5) && stage_cost(e, 1, 5) == 0.0))]),
        fig("ablation-comparators",
            "comparators per MAY site, NACHOS (§VII 'Why decentralized checking?')", ablations,
            &["App", "max fan-in", "comparators", "cycles"],
            |e| grid(COMPARATOR_APPS.len(), COMPARATORS.len(), |j, p| vec![
                COMPARATOR_APPS[j].into(), max_fanin(e.bench(COMPARATOR_APPS[j]).1).to_string(),
                COMPARATORS[p].to_string(), cycles(&e.comparators[p], j, 0).to_string()]),
            vec![
                claim("comparators-sar-pfa",
                      "sar-pfa's fan-in contention dissolves as sites gain comparators",
                      "one comparator per `==?` site; bzip2 and sar-pfa contend on fan-in",
                      |e| format!("sar-pfa. {} cycles from 1→8", span(&series(&e.comparators, 1))),
                      Holds(|e| series(&e.comparators, 1).windows(2).all(|w| w[1] <= w[0]))),
                claim("comparators-monotone", "More comparators never slow a workload",
                      "extra check bandwidth relieves contention", |e| {
                          let slower = COMPARATOR_APPS.iter().enumerate().map(|(j, app)| (app, series(&e.comparators, j)));
                          let slower = slower.filter(|(_, s)| s[s.len() - 1] > s[0]).map(|(app, s)| format!("{app} {}", span(&s)));
                          format!("slower from 1→8: {}", slower.collect::<Vec<_>>().join(", "))
                      }, Deviation("d")),
            ]),
        fig("ablation-lsq-geometry",
            "OPT-LSQ geometry, banks x allocation bandwidth (§VIII-C Challenge 2)", ablations,
            &["App", "#MEM", "geometry", "cycles", "overflows"],
            |e| grid(LSQ_APPS.len(), LSQ_GEOMETRIES.len(), |j, g| vec![
                LSQ_APPS[j].into(), e.bench(LSQ_APPS[j]).1.spec.mem_ops.to_string(),
                format!("{}bk/{}alloc", LSQ_GEOMETRIES[g].0, LSQ_GEOMETRIES[g].1),
                cycles(&e.lsq[g], j, 0).to_string(), run(&e.lsq[g], j, 0).sim.events.lsq_bank_overflows.to_string()]),
            vec![claim("lsq-geometry", "Small LSQs stall the widest region (equake, 215 memory ops)",
                       "no single LSQ configuration fits every region",
                       |e| format!("183.equake {} cycles from 2bk/1alloc to 8bk/4alloc; {} \
                                    overflows at 2bk", span(&series(&e.lsq, 3)),
                                   run(&e.lsq[0], 3, 0).sim.events.lsq_bank_overflows),
                       Holds(|e| series(&e.lsq, 3).windows(2).all(|w| w[1] < w[0])
                           && run(&e.lsq[0], 3, 0).sim.events.lsq_bank_overflows > 0))]),
        fig("ablation-forwarding",
            "ST->LD forwarding vs ordering-only, NACHOS (§VIII-A, bodytrack's forwarding benefit)",
            ablations, &["App", "forwards", "with (cyc)", "without (cyc)", "benefit"],
            |e| e.forwarding.iter().map(|f| vec![f.0.into(), f.1.to_string(), f.2.to_string(),
                                                  f.3.to_string(), signed(pct_slowdown(f.3, f.2))]).collect(),
            vec![claim("forwarding", "Slowdown with every FORWARD edge downgraded to ORDER",
                       "forwarding pays off on bodytrack", |e| e.forwarding.iter()
                           .map(|f| format!("{} {}", f.0, signed(pct_slowdown(f.3, f.2)))).collect::<Vec<_>>().join(", "),
                       Holds(|e| e.forwarding[0].3 > e.forwarding[0].2 && e.forwarding.iter().all(|f| f.3 >= f.2)))]),
        fig("ablation-energy-ratio",
            "comparator-vs-LSQ energy ratio sweep (the Appendix profitability bound)", ablations,
            &["E_lsq/E_MAY", "break-even", "unprofitable", "workloads"],
            |e| grid(1, ENERGY_RATIOS.len(), |_, i| {
                let (ratio, losers) = (ENERGY_RATIOS[i], unprofitable(e, ENERGY_RATIOS[i]));
                vec![format!("{ratio:.1}"), format!("{:.1}", model(ratio).breakeven_may_per_op()),
                     losers.len().to_string(), losers.join(", ")]
            }),
            vec![claim("energy-ratio",
                       "Decentralized checking stays profitable at the paper's energy gap",
                       "E_lsq = 6 × E_MAY (3000 fJ vs 500 fJ)",
                       |e| format!("{} unprofitable at 6×; at 2×: {}", unprofitable(e, 6.0).len(),
                                   unprofitable(e, 2.0).join(", ")),
                       Holds(|e| unprofitable(e, 6.0).is_empty()))]),
        fig("optimizer", "MDE optimizer, rows under the full pipeline (not in the paper; DESIGN §10)",
            "Optimizer (this repo's addition)",
            &["App", "MAY", "coalesced", "sites", "sites opt", "SW cyc opt", "NACHOS cyc opt"],
            |e| e.opt.full_runs().map(|r| vec![
                r.workload.clone(), r.stats.may_before.to_string(), r.stats.may_coalesced.to_string(),
                r.comparator_sites_before.to_string(), r.comparator_sites_after.to_string(),
                r.cycles[0].optimized.to_string(), r.cycles[1].optimized.to_string()]).collect(),
            vec![
                claim("opt-coalesced", "MAY edges coalesced into shared comparator sites (≥ 10%)",
                      "—", |e| {
                          let [may, merged, ..] = opt_totals(e);
                          let share = pct(100.0 * e.opt.full_may_coalesced_fraction());
                          format!("{merged} of {may} ({share})")
                      }, Holds(|e| e.opt.full_may_coalesced_fraction() >= MIN_FULL_MAY_COALESCED_FRACTION)),
                claim("opt-sites", "Engine-measured comparator sites fall", "—",
                      |e| format!("{} → {}", opt_totals(e)[2], opt_totals(e)[3]),
                      Holds(|e| opt_totals(e)[3] < opt_totals(e)[2])),
                claim("opt-faster",
                      "Workloads an MDE backend runs faster on (≥ 3), with no regression", "—",
                      |e| {
                          let faster = e.opt.full_runs().filter_map(|r| {
                              let best = r.cycles.iter().map(|c| c.optimized as i64 - c.unoptimized as i64);
                              best.min().filter(|&d| d < 0).map(|d| format!("{} {d:+}", r.workload))
                          });
                          let v = faster.collect::<Vec<_>>();
                          format!("{}: {} cycles; {} regressions", v.len(), v.join(", "), full_regressions(e))
                      }, Holds(|e| e.opt.full_improved_workloads() >= MIN_FULL_IMPROVED_WORKLOADS
                          && full_regressions(e) == 0)),
                claim("opt-faster-ablations",
                      "Workloads an MDE backend runs faster on under some ablation (≥ 5)", "—",
                      |e| format!("{} of {}", e.opt.improved_workloads(), workloads(e)),
                      Holds(|e| e.opt.improved_workloads() >= MIN_IMPROVED_WORKLOADS)),
                claim("opt-no-regression", "Optimized runs slower than their unoptimized twin, any \
                       ablation", "—",
                      |e| format!("{} of {} timed runs", e.opt.num_regressions(), timed_runs(e)),
                      Holds(|e| e.opt.num_regressions() == 0)),
                claim("opt-no-slack",
                      "Avoidable imprecision on optimized compilations (redundant MDEs, losses an \
                       enabled stage decides), any ablation", "—",
                      |e| format!("{} findings in {} compilations", e.opt.num_avoidable(), e.opt.runs.len()),
                      Holds(|e| e.opt.num_avoidable() == 0)),
            ]),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lint::audited;
    use crate::opt::{BackendCycles, OptRun};
    use nachos::{FaultKind, FaultPlan, FaultSpec, SimError};
    use nachos_alias::{Code, Diagnostic, OptStats, Site};

    fn diag(code: Code, message: &str) -> Diagnostic {
        Diagnostic {
            severity: code.severity(),
            code,
            region: "r".to_owned(),
            site: Site::Region,
            message: message.to_owned(),
        }
    }

    /// A hand-built optimizer run: `may` is `(before, coalesced)`;
    /// `faster` makes NACHOS one cycle quicker with the optimizer.
    fn opt_run(workload: &str, config: &str, may: (usize, usize), faster: bool) -> OptRun {
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
            comparator_sites_before: 2,
            comparator_sites_after: 1,
            diagnostics: Vec::new(),
            failures: Vec::new(),
            cycles: vec![BackendCycles {
                backend: Backend::Nachos,
                unoptimized: 10,
                optimized: 10 - u64::from(faster),
                equivalent: true,
            }],
        }
    }

    /// `nachos-claims`' verdict on hand-built audit and optimizer
    /// reports, judged by the optimizer figure's claims (the others read
    /// the suite, which is empty here).
    fn verdict_of(lint: &[LintRun], runs: Vec<OptRun>) -> Verdict {
        let opt = OptSuiteReport { runs };
        let empty = SweepResult {
            invocations: 0,
            variants: Vec::new(),
            jobs: Vec::new(),
        };
        let built = sound(lint, &opt).map(|()| Evidence {
            suite: SuiteRun {
                results: Vec::new(),
                sweep: empty.clone(),
            },
            paths: Vec::new(),
            stages: empty,
            comparators: Vec::new(),
            lsq: Vec::new(),
            forwarding: Vec::new(),
            opt,
        });
        let mut optimizer = figures();
        optimizer.retain(|f| f.id == "optimizer");
        verdict(&built, &optimizer)
    }

    #[test]
    fn every_gate_condition_maps_to_its_verdict() {
        // Three faster workloads under `full`, two more only under an
        // ablation, and 10 of 100 `full` MAY edges coalesced: every bar
        // is met exactly. The ablation's coalescing does not count.
        let passing = vec![
            opt_run("a", "full", (40, 4), true),
            opt_run("b", "full", (30, 3), true),
            opt_run("c", "full", (30, 3), true),
            opt_run("d", "baseline", (50, 50), true),
            opt_run("e", "no-prune", (0, 0), true),
        ];
        let clean = LintRun {
            workload: "a".to_owned(),
            config: "full".to_owned(),
            diagnostics: vec![diag(Code::FaninOverBudget, "9 tokens converge")],
        };
        let lint = vec![clean.clone()];
        assert_eq!(verdict_of(&lint, passing.clone()), Verdict::Success);

        // Exit 2: an Error in the unoptimized audit, a NO-pair collision,
        // an Error in the optimized audit (a refused certificate), an
        // optimizer divergence, a failed optimizer simulation and an
        // optimized compile the memo refused.
        for code in [Code::UnsoundNo, Code::DynamicCollision] {
            let mut bad = clean.clone();
            bad.diagnostics.push(diag(code, "finding"));
            assert_eq!(verdict_of(&[bad], passing.clone()), Verdict::Divergence);
        }
        let mut refused = passing.clone();
        refused[3]
            .diagnostics
            .push(diag(Code::BadCertificate, "witness"));
        let mut diverged = passing.clone();
        diverged[4].cycles[0].equivalent = false;
        let mut failed = passing.clone();
        failed[1]
            .failures
            .push("NACHOS simulation failed".to_owned());
        let mut refused_compile = passing.clone();
        refused_compile[0].diagnostics = audited(
            Err(SimError::Audit(vec![diag(Code::BadCertificate, "witness")])),
            StageConfig::full(),
        )
        .1;
        for runs in [refused, diverged, failed, refused_compile] {
            assert_eq!(verdict_of(&lint, runs), Verdict::Divergence);
        }

        // Exit 2 naming the first error: a compile the memo refused
        // leaves its quick audit's errors as the audit's findings.
        let first = diag(Code::MissingChain, "no chain");
        let errors = vec![first.clone(), diag(Code::UnsoundNo, "overlap")];
        let refused_compile = LintRun {
            diagnostics: audited(Err(SimError::Audit(errors)), StageConfig::full()).1,
            ..clean.clone()
        };
        let opt = OptSuiteReport {
            runs: passing.clone(),
        };
        let why = sound(std::slice::from_ref(&refused_compile), &opt).unwrap_err();
        assert_eq!(
            why,
            format!("audit: 2 error(s), first a under `full`: {first}")
        );
        let verdict = verdict_of(&[refused_compile], passing.clone());
        assert_eq!(verdict, Verdict::Divergence);

        // Exit 3: each improvement bar missed, a cycle regression under
        // any ablation, and avoidable imprecision after optimizing.
        let mut low_coalescing = passing.clone();
        low_coalescing[0].stats.may_coalesced = 3;
        let mut fewer_full_wins = passing.clone();
        fewer_full_wins[2].cycles[0].optimized = 10;
        fewer_full_wins.push(opt_run("c", "baseline", (0, 0), true));
        let mut fewer_wins = passing.clone();
        fewer_wins[4].cycles[0].optimized = 10;
        let mut regressed = passing.clone();
        let slower = BackendCycles {
            backend: Backend::NachosSw,
            unoptimized: 10,
            optimized: 11,
            equivalent: true,
        };
        regressed[3].cycles.push(slower);
        let mut slack = passing.clone();
        slack[3]
            .diagnostics
            .push(diag(Code::RedundantMde, "ORDER edge already implied"));
        for runs in [
            low_coalescing,
            fewer_full_wins,
            fewer_wins,
            regressed,
            slack,
        ] {
            assert_eq!(verdict_of(&lint, runs), Verdict::StrictDegraded);
        }

        // Advisories stay advisory: a loss a disabled stage could decide.
        let mut advisory = passing;
        let disabled = "provably NO (decidable by stage 2 (disabled))";
        advisory[3]
            .diagnostics
            .push(diag(Code::PrecisionLoss, disabled));
        assert_eq!(verdict_of(&lint, advisory), Verdict::Success);
    }

    #[test]
    fn forwarding_ablation_is_checked_against_the_reference() {
        let w = workload("bodytrack");
        let sim = SimConfig::default().with_invocations(8);
        let clean = forwarding(&w, &sim).expect("an unfaulted run matches the reference");
        assert!(clean.1 > 0, "bodytrack plans FORWARD edges");
        // A corrupted forwarded value leaves the run well-formed but wrong:
        // only the reference comparison can refuse it.
        let corrupt = FaultSpec::new(FaultKind::CorruptForward { mask: 0xff }, 0);
        let faulted = sim.with_fault(FaultPlan::single(corrupt));
        let err = forwarding(&w, &faulted).expect_err("a corrupted forward must be caught");
        assert!(err.contains("diverged"), "{err}");
    }
}
