//! Parallel differential-sweep harness with crash-recoverable
//! orchestration.
//!
//! Runs a set of jobs (region + binding pairs) through a matrix of
//! simulation variants on a scoped worker pool, differential-checking
//! every run against the in-order [`crate::reference`] executor and
//! aggregating per-run cycle, energy, event and stall statistics into a
//! machine-readable report.
//!
//! Determinism contract: the sweep's output — including the JSON report
//! from [`SweepResult::to_json`] — depends only on the jobs, the variant
//! matrix and the [`SimConfig`], **never** on the worker-thread count or
//! on scheduling. Workers claim job indices from a shared counter and the
//! results are re-assembled in job order; no wall-clock quantity enters
//! the report. The contract holds for degraded runs too: a run that
//! deadlocks, errors or panics yields a deterministic [`RunStatus`] and
//! detail string, byte-identical for any thread count.
//!
//! Degradation contract: every run is isolated, in depth:
//!
//! * a failing run — a structured [`SimError`], a detected injected
//!   fault, even a panic — records its [`RunStatus`] in its slot of the
//!   report and the remaining runs proceed untouched;
//! * transient failures (panic, deadlock, error) are retried up to
//!   [`SweepConfig::max_retries`] times, each attempt under a seed derived
//!   deterministically from the run's content key
//!   ([`journal::derive_seed`] — no wall-clock), with every attempt
//!   recorded in the report;
//! * a run that still panics once its attempt budget is exhausted is
//!   elevated to [`RunStatus::Quarantined`] rather than poisoning the
//!   sweep;
//! * a panic that escapes the per-run boundary (job setup, the reference
//!   executor) is a strike against its job, which the same worker retries
//!   in place on a fresh arena; after [`SweepConfig::quarantine_after`]
//!   strikes the job is quarantined wholesale.
//!
//! Crash-recovery contract: when a durable [`journal::Journal`] is
//! attached ([`run_sweep_journaled`]), every completed cell is fsynced to
//! an append-only JSONL file keyed by a content hash of its inputs. After
//! a crash — or a [`crate::CancelToken`] stop — re-running with the
//! resumed journal replays completed cells and re-executes only the rest,
//! and the final report is **byte-identical** to an uninterrupted run.
//!
//! ```
//! use nachos::sweep::{run_sweep, SweepConfig, SweepJob, SweepVariant};
//! use nachos_ir::{AffineExpr, Binding, MemRef, RegionBuilder};
//!
//! let mut b = RegionBuilder::new("demo");
//! let g = b.global("g", 64, 0);
//! let m = MemRef::affine(g, AffineExpr::zero());
//! let x = b.input();
//! b.store(m.clone(), &[x]);
//! b.load(m, &[]);
//! let job = SweepJob::new(
//!     "demo",
//!     b.finish(),
//!     Binding { base_addrs: vec![0x1_0000], ..Binding::default() },
//! );
//! let cfg = SweepConfig::default().with_invocations(4);
//! let sweep = run_sweep(&[job], &cfg);
//! assert!(sweep.all_match());
//! ```

pub mod cache;
pub mod daemon;
pub mod journal;
pub mod shard;

use crate::config::{Backend, CancelToken, SimConfig};
use crate::driver::{CompileMemo, ExperimentRun, Run};
use crate::energy::EnergyModel;
use crate::engine::SimArena;
use crate::error::SimError;
use crate::fault::FaultPlan;
use crate::json::JsonWriter;
use crate::reference::{self, ReferenceResult};
use journal::{Attempt, Journal, OutcomeRecord, RunKey, RunMetrics, RunRecord};
use nachos_alias::StageConfig;
use nachos_ir::{Binding, Region};
use nachos_mem::DataMemory;
use shard::Cell;
use std::convert::Infallible;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::{fmt, thread};

/// One unit of sweep work: a compiled-from region with its address binding.
#[derive(Clone, Debug)]
pub struct SweepJob {
    /// Job name (workload name in the standard suite).
    pub name: String,
    /// The region to compile and simulate.
    pub region: Region,
    /// Address binding for the region's symbols.
    pub binding: Binding,
    /// Per-job fault-injection plan, appended to the sweep-wide plan in
    /// [`SweepConfig`]'s base [`SimConfig`] (empty by default).
    pub fault: FaultPlan,
}

impl SweepJob {
    /// A job with no fault injection.
    #[must_use]
    pub fn new(name: impl Into<String>, region: Region, binding: Binding) -> Self {
        Self {
            name: name.into(),
            region,
            binding,
            fault: FaultPlan::default(),
        }
    }

    /// Sets the job's fault plan, builder-style.
    #[must_use]
    pub fn with_fault(mut self, fault: FaultPlan) -> Self {
        self.fault = fault;
        self
    }

    /// The job's effective simulator configuration under `cfg`: the
    /// sweep-wide base with this job's fault plan appended. The merge
    /// defines the job's fingerprint, so every process that keys its
    /// cells calls this one method.
    #[must_use]
    pub fn sim_config(&self, cfg: &SweepConfig) -> SimConfig {
        let mut sim = cfg.sim.clone();
        sim.fault.faults.extend(self.fault.faults.iter().copied());
        sim
    }
}

/// One column of the sweep matrix: a backend plus its compiler staging.
#[derive(Clone, Debug)]
pub struct SweepVariant {
    /// Stable label used in reports (e.g. `"nachos-sw"`).
    pub label: String,
    /// Simulated backend.
    pub backend: Backend,
    /// Compiler stage configuration (ignored by [`Backend::OptLsq`]).
    pub stages: StageConfig,
}

impl SweepVariant {
    /// The paper's three-backend comparison matrix, in comparison order.
    #[must_use]
    pub fn paper_matrix() -> Vec<SweepVariant> {
        vec![
            SweepVariant {
                label: "opt-lsq".into(),
                backend: Backend::OptLsq,
                stages: StageConfig::full(),
            },
            SweepVariant {
                label: "nachos-sw".into(),
                backend: Backend::NachosSw,
                stages: StageConfig::full(),
            },
            SweepVariant {
                label: "nachos".into(),
                backend: Backend::Nachos,
                stages: StageConfig::full(),
            },
        ]
    }

    /// The experiment-harness matrix: the paper's three backends plus
    /// NACHOS-SW under the baseline compiler (Figures 12 and 16).
    #[must_use]
    pub fn bench_matrix() -> Vec<SweepVariant> {
        let mut v = Self::paper_matrix();
        v.push(SweepVariant {
            label: "nachos-sw-baseline".into(),
            backend: Backend::NachosSw,
            stages: StageConfig::baseline(),
        });
        v
    }

    /// The IDEAL oracle variant (perfect-disambiguation upper bound,
    /// paper Figure 9). Opt-in: never part of the default matrices, so
    /// default reports are unchanged; append it last (see
    /// [`SweepConfig::with_ideal`]) to keep the shared columns in the
    /// standard order.
    #[must_use]
    pub fn ideal() -> SweepVariant {
        SweepVariant {
            label: "ideal".into(),
            backend: Backend::Ideal,
            stages: StageConfig::full(),
        }
    }
}

/// Sweep-wide configuration.
#[derive(Clone, Debug)]
pub struct SweepConfig {
    /// Base simulator configuration (shared by every run).
    pub sim: SimConfig,
    /// Energy model (shared by every run).
    pub energy: EnergyModel,
    /// The variant matrix; every job runs every variant.
    pub variants: Vec<SweepVariant>,
    /// Worker threads; `0` uses the machine's available parallelism.
    pub threads: usize,
    /// Extra attempts after the first for a transient per-run failure
    /// ([`RunStatus::is_transient`]; default `0`: no retries). Attempt
    /// `n` runs under [`journal::derive_seed`]`(key, n)` — never the wall
    /// clock — so the attempt log in the report is byte-deterministic.
    pub max_retries: u32,
    /// Strikes before a job is quarantined wholesale: a panic that
    /// escapes the per-run boundary is a strike, and the job is retried
    /// in place on a fresh arena until it succeeds or reaches this many
    /// (`0` is treated as `1`). Default `3`.
    pub quarantine_after: u32,
}

impl Default for SweepConfig {
    fn default() -> Self {
        Self {
            sim: SimConfig::default(),
            energy: EnergyModel::default(),
            variants: SweepVariant::paper_matrix(),
            threads: 0,
            max_retries: 0,
            quarantine_after: 3,
        }
    }
}

impl SweepConfig {
    /// Sets the per-run invocation count, builder-style.
    #[must_use]
    pub fn with_invocations(mut self, invocations: u64) -> Self {
        self.sim.invocations = invocations;
        self
    }

    /// Sets the worker-thread count, builder-style (`0` = auto).
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Sets the variant matrix, builder-style.
    #[must_use]
    pub fn with_variants(mut self, variants: Vec<SweepVariant>) -> Self {
        self.variants = variants;
        self
    }

    /// Sets the transient-failure retry budget, builder-style.
    #[must_use]
    pub fn with_retries(mut self, max_retries: u32) -> Self {
        self.max_retries = max_retries;
        self
    }

    /// Appends the [`SweepVariant::ideal`] oracle column to the matrix
    /// (the sweep binary's `--ideal` flag). Appending keeps the existing
    /// columns — and therefore the default report prefix — untouched.
    #[must_use]
    pub fn with_ideal(mut self) -> Self {
        self.variants.push(SweepVariant::ideal());
        self
    }

    /// Runs the certificate-carrying MDE optimizer (`nachos-opt`) on every
    /// MDE-backend cell, builder-style (the sweep binary's `--optimize`
    /// flag). Each run then reports its `opt` rewrite counters.
    #[must_use]
    pub fn with_optimize(mut self, optimize: bool) -> Self {
        self.sim.optimize = optimize;
        self
    }
}

/// Per-run verdict of the sweep harness.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RunStatus {
    /// Completed and matched the reference executor.
    Ok,
    /// Completed but diverged from the reference with no fault injected —
    /// a genuine correctness bug in the simulated backend.
    Mismatch,
    /// The engine watchdog diagnosed a deadlock ([`SimError::Deadlock`]).
    Deadlock,
    /// A fault-injection run in which the harness caught the injected
    /// perturbation: either a structured engine error under an active
    /// plan, or a divergence after an injected fault fired.
    FaultDetected,
    /// The run panicked; the panic was contained to this run.
    Panic,
    /// Any other structured [`SimError`] outside fault injection.
    Error,
    /// The run (or its whole job) kept panicking: it panicked on every
    /// attempt of an exhausted retry budget, or its job-level setup
    /// panicked [`SweepConfig::quarantine_after`] times. The run is
    /// parked so the rest of the sweep completes.
    Quarantined,
    /// The run was stopped through its [`crate::CancelToken`]. Cancelled
    /// runs are never journaled: resuming re-executes them.
    Cancelled,
}

impl RunStatus {
    /// Stable lowercase label used in the JSON report and the journal.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            RunStatus::Ok => "ok",
            RunStatus::Mismatch => "mismatch",
            RunStatus::Deadlock => "deadlock",
            RunStatus::FaultDetected => "fault_detected",
            RunStatus::Panic => "panic",
            RunStatus::Error => "error",
            RunStatus::Quarantined => "quarantined",
            RunStatus::Cancelled => "cancelled",
        }
    }

    /// Parses the stable label back (journal replay).
    #[must_use]
    pub fn from_label(s: &str) -> Option<RunStatus> {
        Some(match s {
            "ok" => RunStatus::Ok,
            "mismatch" => RunStatus::Mismatch,
            "deadlock" => RunStatus::Deadlock,
            "fault_detected" => RunStatus::FaultDetected,
            "panic" => RunStatus::Panic,
            "error" => RunStatus::Error,
            "quarantined" => RunStatus::Quarantined,
            "cancelled" => RunStatus::Cancelled,
            _ => return None,
        })
    }

    /// `true` for statuses retried under [`SweepConfig::max_retries`].
    /// Differential verdicts (`ok`/`mismatch`/`fault_detected`) are
    /// deterministic conclusions, quarantine is final, and cancellation
    /// is a user decision — none of those are retried.
    #[must_use]
    pub fn is_transient(self) -> bool {
        matches!(
            self,
            RunStatus::Panic | RunStatus::Deadlock | RunStatus::Error
        )
    }
}

impl fmt::Display for RunStatus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One variant's run within a job, with its differential verdict.
#[derive(Clone, Debug)]
pub struct VariantOutcome {
    /// The variant's label.
    pub variant: String,
    /// The simulated backend.
    pub backend: Backend,
    /// The harness verdict for this run.
    pub status: RunStatus,
    /// The compiled-and-simulated run. Present only for runs executed
    /// live in this process *and* completed; absent for degraded runs and
    /// for cells replayed from a journal (which carry [`Self::metrics`]
    /// instead).
    pub run: Option<ExperimentRun>,
    /// The structured engine error, when the run returned one live.
    pub error: Option<SimError>,
    /// Deterministic human-readable failure detail (error display or
    /// panic message); absent for [`RunStatus::Ok`].
    pub detail: Option<String>,
    /// Deterministic descriptions of injected faults that fired, in
    /// firing order.
    pub injected: Vec<String>,
    /// Every supervised attempt in attempt order (length ≥ 1), with its
    /// derived seed.
    pub attempts: Vec<Attempt>,
    /// The reportable metrics, present whenever the simulation produced a
    /// result (even a diverging one) — live or replayed.
    pub metrics: Option<RunMetrics>,
}

impl VariantOutcome {
    /// `true` iff the run completed and matched the reference executor.
    #[must_use]
    pub fn matches_reference(&self) -> bool {
        self.status == RunStatus::Ok
    }

    /// The completed live run, or a deterministic description of why it
    /// is unavailable (degraded status, or a journal-replayed cell that
    /// carries metrics but no live run).
    ///
    /// # Errors
    ///
    /// Returns the run's status and detail when no live run is present.
    pub fn try_run(&self) -> Result<&ExperimentRun, String> {
        self.run.as_ref().ok_or_else(|| {
            format!(
                "sweep run [{}] has no live result: {} ({})",
                self.variant,
                self.status,
                self.detail.as_deref().unwrap_or("no detail"),
            )
        })
    }

    /// Deterministic descriptions of injected faults that fired in this
    /// run (from the completed result, the deadlock dump, or the journal).
    #[must_use]
    pub fn injected(&self) -> &[String] {
        &self.injected
    }

    /// The journal form of this outcome: what a journal or a cache entry
    /// records for it, and what replays to identical report bytes.
    #[must_use]
    pub fn to_record(&self) -> OutcomeRecord {
        OutcomeRecord {
            status: self.status,
            detail: self.detail.clone(),
            injected: self.injected.clone(),
            attempts: self.attempts.clone(),
            metrics: self.metrics,
        }
    }

    /// Reconstructs an outcome from a journal record; the report bytes it
    /// produces are identical to the live run's.
    fn from_record(v: &SweepVariant, rec: OutcomeRecord) -> VariantOutcome {
        VariantOutcome {
            variant: v.label.clone(),
            backend: v.backend,
            status: rec.status,
            run: None,
            error: None,
            detail: rec.detail,
            injected: rec.injected,
            attempts: rec.attempts,
            metrics: rec.metrics,
        }
    }
}

/// All of one job's runs plus the shared reference execution.
#[derive(Clone, Debug)]
pub struct JobOutcome {
    /// The job's name.
    pub name: String,
    /// Ground truth from the in-order reference executor (empty for a
    /// quarantined job, whose setup never completed).
    pub reference: ReferenceResult,
    /// One outcome per configured variant, in variant order.
    pub runs: Vec<VariantOutcome>,
}

/// The assembled sweep: job outcomes in job order.
#[derive(Clone, Debug)]
pub struct SweepResult {
    /// Invocations simulated per run.
    pub invocations: u64,
    /// Variant labels, in matrix order.
    pub variants: Vec<String>,
    /// Per-job outcomes, in input-job order.
    pub jobs: Vec<JobOutcome>,
}

/// Orchestration counters from a journaled sweep — how much work the
/// journal saved. Diagnostics only: none of this enters the report.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SweepStats {
    /// Cells replayed from the journal without re-execution.
    pub replayed: usize,
    /// Cells executed live in this process.
    pub executed: usize,
    /// Journal appends that failed (the sweep continues; those cells are
    /// simply re-run on the next resume).
    pub journal_errors: usize,
}

/// Runs every job through every variant on a scoped worker pool.
///
/// Results are identical for any worker-thread count; see the module
/// documentation for the determinism contract. Runs degrade gracefully:
/// a run that errors, deadlocks or panics records its [`RunStatus`] and
/// the sweep continues — this function never fails. Equivalent to
/// [`run_sweep_journaled`] without a journal.
#[must_use]
pub fn run_sweep(jobs: &[SweepJob], cfg: &SweepConfig) -> SweepResult {
    run_sweep_journaled(jobs, cfg, None).0
}

/// Job `index`'s cells, one per variant in matrix order, each with its
/// [`RunKey`]. The one place a job is fingerprinted: the in-process pool,
/// the shard supervisor and the shard worker all key cells through it.
fn job_cells(index: usize, job: &SweepJob, cfg: &SweepConfig) -> Vec<Cell> {
    let fp = journal::job_fingerprint(&job.region, &job.binding, &job.sim_config(cfg));
    cfg.variants
        .iter()
        .enumerate()
        .map(|(variant, v)| Cell {
            job: index,
            variant,
            key: journal::run_key(fp, v),
        })
        .collect()
}

/// The journal form of a cell that never produced a result (cancelled,
/// or quarantined by either executor): `status` with `detail`, and one
/// attempt under the cell's first derived seed. Nothing in it depends on
/// the wall clock, so a resume rebuilds it byte for byte.
fn unrun_record(key: RunKey, status: RunStatus, detail: &str) -> OutcomeRecord {
    OutcomeRecord {
        status,
        detail: Some(detail.to_owned()),
        injected: Vec::new(),
        attempts: vec![Attempt {
            status,
            seed: journal::derive_seed(key, 0),
        }],
        metrics: None,
    }
}

/// [`run_sweep`] with an optional durable journal attached.
///
/// With a journal, every completed cell is appended (and fsynced) as it
/// finishes, and cells whose content key is already recorded are replayed
/// instead of re-executed — so a sweep interrupted by a crash, a kill or
/// a [`crate::CancelToken`] resumes where it left off and still produces
/// a report byte-identical to an uninterrupted run.
#[must_use]
pub fn run_sweep_journaled(
    jobs: &[SweepJob],
    cfg: &SweepConfig,
    journal: Option<&Journal>,
) -> (SweepResult, SweepStats) {
    run_sweep_keyed(jobs, cfg, None, journal)
}

/// [`run_sweep_journaled`] over cells already keyed by
/// [`shard::enumerate_cells`], when the caller has them; without them
/// each pool thread keys its own jobs.
fn run_sweep_keyed(
    jobs: &[SweepJob],
    cfg: &SweepConfig,
    keyed: Option<&[Cell]>,
    journal: Option<&Journal>,
) -> (SweepResult, SweepStats) {
    let threads = effective_threads(cfg.threads, jobs.len());
    let next = &AtomicUsize::new(0);
    let mut slots: Vec<(usize, JobOutcome)> = Vec::with_capacity(jobs.len());
    let mut stats = SweepStats::default();
    thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|_| s.spawn(move || worker(jobs, cfg, keyed, journal, next)))
            .collect();
        for h in handles {
            match h.join() {
                Ok((part, st)) => {
                    slots.extend(part);
                    stats.replayed += st.replayed;
                    stats.executed += st.executed;
                    stats.journal_errors += st.journal_errors;
                }
                // Unreachable in practice (workers catch job-level
                // panics), kept as a backstop.
                Err(panic) => std::panic::resume_unwind(panic),
            }
        }
    });
    slots.sort_by_key(|(i, _)| *i);
    let result = SweepResult {
        invocations: cfg.sim.invocations,
        variants: cfg.variants.iter().map(|v| v.label.clone()).collect(),
        jobs: slots.into_iter().map(|(_, j)| j).collect(),
    };
    (result, stats)
}

fn effective_threads(requested: usize, jobs: usize) -> usize {
    let auto = thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let n = if requested == 0 { auto } else { requested };
    n.clamp(1, jobs.max(1))
}

/// One worker thread: claims job indices from the shared counter until
/// none remain. Claim order does not affect the report (results are
/// reassembled in job order and every outcome is deterministic).
fn worker(
    jobs: &[SweepJob],
    cfg: &SweepConfig,
    keyed: Option<&[Cell]>,
    journal: Option<&Journal>,
    next: &AtomicUsize,
) -> (Vec<(usize, JobOutcome)>, SweepStats) {
    let mut done = Vec::new();
    let mut stats = SweepStats::default();
    // One arena per worker: simulation state is built once and reset
    // between runs instead of reallocated.
    let mut arena = SimArena::new();
    loop {
        let i = next.fetch_add(1, Ordering::Relaxed);
        let Some(job) = jobs.get(i) else { break };
        let n = cfg.variants.len();
        let own;
        let cells = match keyed {
            Some(all) => &all[i * n..(i + 1) * n],
            None => {
                own = job_cells(i, job, cfg);
                &own
            }
        };
        let mut strikes = 0;
        let outcome = loop {
            let caught = catch_unwind(AssertUnwindSafe(|| {
                run_job(job, cfg, cells, journal, &mut arena, &mut stats)
            }));
            match caught {
                Ok(outcome) => break outcome,
                Err(payload) => {
                    // A panic escaped the per-run boundary (job setup or
                    // the reference executor), perhaps mid-way through
                    // the arena's buffers: that is a strike, and the job
                    // is retried on a fresh arena until it succeeds or
                    // strikes out.
                    arena = SimArena::new();
                    strikes += 1;
                    if strikes >= cfg.quarantine_after.max(1) {
                        let msg = panic_message(payload.as_ref());
                        let detail =
                            format!("quarantined after {strikes} job-level panics; last: {msg}");
                        let status = RunStatus::Quarantined;
                        break unreferenced_job(job, cfg, cells, |_| None, status, &detail);
                    }
                }
            }
        };
        done.push((i, outcome));
    }
    (done, stats)
}

/// The in-process caller of [`run_cells`]: replays the cells `journal`
/// already holds and journals every other cell that settles, counting
/// both into `stats`.
fn run_job(
    job: &SweepJob,
    cfg: &SweepConfig,
    cells: &[Cell],
    journal: Option<&Journal>,
    arena: &mut SimArena,
    stats: &mut SweepStats,
) -> JobOutcome {
    let lookup = |c: Cell| {
        let rec = journal?.lookup(c.key)?.clone();
        stats.replayed += 1;
        Some(rec)
    };
    let record = |_, rec: Option<RunRecord>| {
        stats.executed += 1;
        if let (Some(j), Some(rec)) = (journal, rec) {
            if j.append(&rec).is_err() {
                stats.journal_errors += 1;
            }
        }
        Ok::<(), Infallible>(())
    };
    let Ok(outcome) = run_cells(job, cfg, cells, arena, lookup, |_| {}, record);
    outcome
}

/// Runs `cells` (any of one job's, in any order) against one reference
/// execution, each through [`run_cell`]'s retry/quarantine machinery,
/// compiling once per distinct compilation. Both executors run jobs
/// through here; what differs between them comes in as closures:
///
/// * `lookup` settles a cell from a journal instead of running it;
/// * `before` is told each cell about to run;
/// * `record` receives each cell that ran, with its journal record —
///   `None` for a cancelled cell, which is never journaled.
///
/// The first cancellation (a tripped token before a cell, or a cell that
/// comes back [`RunStatus::Cancelled`]) ends the job: each remaining cell
/// is settled by `lookup` or reported cancelled, and none of them runs.
///
/// # Errors
///
/// The first error `record` returns; no later cell runs.
fn run_cells<E>(
    job: &SweepJob,
    cfg: &SweepConfig,
    cells: &[Cell],
    arena: &mut SimArena,
    mut lookup: impl FnMut(Cell) -> Option<OutcomeRecord>,
    mut before: impl FnMut(Cell),
    mut record: impl FnMut(Cell, Option<RunRecord>) -> Result<(), E>,
) -> Result<JobOutcome, E> {
    let cancel = cfg.sim.cancel.as_ref();
    // A tripped cancel token stops even the reference pass: a sweep under
    // a wall-clock deadline must not hide in the in-order executor while
    // the engine (which polls per event) would have yielded long ago.
    let Some(reference) =
        reference::execute_cancellable(&job.region, &job.binding, cfg.sim.invocations, cancel)
    else {
        let detail = "cancelled before the reference execution completed";
        return Ok(unreferenced_job(
            job,
            cfg,
            cells,
            lookup,
            RunStatus::Cancelled,
            detail,
        ));
    };
    let sim_cfg = job.sim_config(cfg);
    // Variants sharing a compile key reuse one compile: the bench matrix
    // compiles full and baseline stages plus one MDE-free rewire.
    let mut compiles = CompileMemo::new(&job.region);
    let mut cancelled = false;
    let mut runs = Vec::with_capacity(cells.len());
    for &c in cells {
        let v = &cfg.variants[c.variant];
        if let Some(rec) = lookup(c) {
            runs.push(VariantOutcome::from_record(v, rec));
            continue;
        }
        cancelled = cancelled || cancel.is_some_and(CancelToken::is_cancelled);
        if cancelled {
            let rec = unrun_record(
                c.key,
                RunStatus::Cancelled,
                "cancelled before the cell started",
            );
            runs.push(VariantOutcome::from_record(v, rec));
            continue;
        }
        before(c);
        let out = run_cell(
            job,
            v,
            &sim_cfg,
            &cfg.energy,
            &reference,
            arena,
            &mut compiles,
            c.key,
            cfg.max_retries,
        );
        cancelled = out.status == RunStatus::Cancelled;
        let rec = (!cancelled).then(|| RunRecord {
            key: c.key,
            job: job.name.clone(),
            variant: v.label.clone(),
            outcome: out.to_record(),
        });
        record(c, rec)?;
        runs.push(out);
    }
    Ok(JobOutcome {
        name: job.name.clone(),
        reference,
        runs,
    })
}

/// The outcome of a job whose reference never completed: each cell is
/// settled by `lookup` or gets `status` and `detail`. The reference is
/// empty and nothing is journaled.
///
/// A cancelled job looks its cells up in its journal, so a resume
/// re-executes only the cancelled cells. A job whose setup panicked too
/// often is quarantined without a lookup: if its panic is deterministic
/// a resume reproduces the identical outcome, and if it was
/// environmental the resume gets a fresh chance at a real run.
fn unreferenced_job(
    job: &SweepJob,
    cfg: &SweepConfig,
    cells: &[Cell],
    mut lookup: impl FnMut(Cell) -> Option<OutcomeRecord>,
    status: RunStatus,
    detail: &str,
) -> JobOutcome {
    let runs = cells
        .iter()
        .map(|&c| {
            let rec = lookup(c).unwrap_or_else(|| unrun_record(c.key, status, detail));
            VariantOutcome::from_record(&cfg.variants[c.variant], rec)
        })
        .collect();
    JobOutcome {
        name: job.name.clone(),
        reference: ReferenceResult {
            mem: DataMemory::new(),
            loads: crate::value::LoadObserver::new(),
        },
        runs,
    }
}

/// Runs one (job, variant) cell under the retry policy: transient
/// failures are re-attempted under fresh derived seeds until they resolve
/// or the budget runs out, and a run that panicked on every allowed
/// attempt is elevated to [`RunStatus::Quarantined`].
#[allow(clippy::too_many_arguments)]
fn run_cell(
    job: &SweepJob,
    v: &SweepVariant,
    sim_cfg: &SimConfig,
    energy: &EnergyModel,
    reference: &ReferenceResult,
    arena: &mut SimArena,
    compiles: &mut CompileMemo<'_>,
    key: RunKey,
    max_retries: u32,
) -> VariantOutcome {
    let budget = max_retries.saturating_add(1);
    let mut attempts: Vec<Attempt> = Vec::new();
    loop {
        let seed = journal::derive_seed(key, attempts.len() as u32);
        let mut out = run_variant(job, v, sim_cfg, energy, reference, arena, compiles);
        attempts.push(Attempt {
            status: out.status,
            seed,
        });
        if out.status.is_transient() && (attempts.len() as u32) < budget {
            continue;
        }
        if out.status == RunStatus::Panic && attempts.len() > 1 {
            out.status = RunStatus::Quarantined;
            out.detail = Some(format!(
                "quarantined after {} panicking attempts; last: {}",
                attempts.len(),
                out.detail.as_deref().unwrap_or("no detail"),
            ));
        }
        out.attempts = attempts;
        return out;
    }
}

/// Runs one attempt of a (job, variant) cell and classifies the outcome.
/// This is the per-run isolation boundary: a panic inside the engine is
/// caught here and recorded as [`RunStatus::Panic`] instead of poisoning
/// the sweep.
fn run_variant(
    job: &SweepJob,
    v: &SweepVariant,
    sim_cfg: &SimConfig,
    energy: &EnergyModel,
    reference: &ReferenceResult,
    arena: &mut SimArena,
    compiles: &mut CompileMemo<'_>,
) -> VariantOutcome {
    let fault_active = sim_cfg.fault.applies_to(v.backend);
    let caught = catch_unwind(AssertUnwindSafe(|| {
        Run::new(&job.region, &job.binding, v.backend)
            .stages(v.stages)
            .arena(&mut *arena)
            .memo(&mut *compiles)
            .execute(sim_cfg, energy)
    }));
    let (status, run, error, detail) = match caught {
        Err(payload) => {
            // The engine unwound while holding the arena's buffers; drop
            // whatever is left and start the next run from a fresh pool.
            *arena = SimArena::new();
            (
                RunStatus::Panic,
                None,
                None,
                Some(panic_message(payload.as_ref())),
            )
        }
        Ok(Err(e)) => {
            let status = match &e {
                SimError::Cancelled { .. } => RunStatus::Cancelled,
                SimError::Deadlock(_) => RunStatus::Deadlock,
                _ if fault_active => RunStatus::FaultDetected,
                _ => RunStatus::Error,
            };
            let detail = e.to_string();
            (status, None, Some(e), Some(detail))
        }
        Ok(Ok(run)) => {
            let diverged =
                run.sim.mem != reference.mem || run.sim.loads.digest() != reference.loads.digest();
            if !diverged {
                (RunStatus::Ok, Some(run), None, None)
            } else if run.sim.injected.is_empty() {
                (
                    RunStatus::Mismatch,
                    Some(run),
                    None,
                    Some("diverged from the in-order reference executor".into()),
                )
            } else {
                let detail = format!(
                    "diverged from the reference after injected faults: {}",
                    run.sim.injected.join(", ")
                );
                (RunStatus::FaultDetected, Some(run), None, Some(detail))
            }
        }
    };
    let injected = if let Some(run) = &run {
        run.sim.injected.clone()
    } else if let Some(SimError::Deadlock(info)) = &error {
        info.injected.clone()
    } else {
        Vec::new()
    };
    let metrics = run.as_ref().map(RunMetrics::from_run);
    VariantOutcome {
        variant: v.label.clone(),
        backend: v.backend,
        status,
        run,
        error,
        detail,
        injected,
        attempts: Vec::new(),
        metrics,
    }
}

/// Extracts the deterministic message from a caught panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic with non-string payload".into()
    }
}

impl SweepResult {
    /// `true` iff every run of every job completed and matched the
    /// reference executor.
    #[must_use]
    pub fn all_match(&self) -> bool {
        self.jobs
            .iter()
            .all(|j| j.runs.iter().all(|r| r.status == RunStatus::Ok))
    }

    /// `(job, variant)` labels of every non-[`RunStatus::Ok`] run, in
    /// sweep order.
    #[must_use]
    pub fn not_ok(&self) -> Vec<(String, String)> {
        self.labels(|s| s != RunStatus::Ok)
    }

    /// `(job, variant)` labels of every [`RunStatus::Mismatch`] run — a
    /// divergence from the reference executor — in sweep order.
    /// Degraded runs (quarantined, cancelled, ...) are not divergences.
    #[must_use]
    pub fn mismatches(&self) -> Vec<(String, String)> {
        self.labels(|s| s == RunStatus::Mismatch)
    }

    fn labels(&self, keep: impl Fn(RunStatus) -> bool) -> Vec<(String, String)> {
        let runs = self
            .jobs
            .iter()
            .flat_map(|j| j.runs.iter().map(move |r| (j, r)));
        runs.filter(|(_, r)| keep(r.status))
            .map(|(j, r)| (j.name.clone(), r.variant.clone()))
            .collect()
    }

    /// Counts the mismatched cells and the degraded (neither ok nor
    /// mismatched) ones — the two inputs of every exit verdict.
    #[must_use]
    pub fn mismatched_and_degraded(&self) -> (u64, u64) {
        let runs = self.jobs.iter().flat_map(|j| &j.runs);
        runs.fold((0, 0), |(m, d), r| match r.status {
            RunStatus::Ok => (m, d),
            RunStatus::Mismatch => (m + 1, d),
            _ => (m, d + 1),
        })
    }

    /// Every run's `(job, variant, status)` triple, in sweep order.
    #[must_use]
    pub fn statuses(&self) -> Vec<(String, String, RunStatus)> {
        let mut out = Vec::new();
        for j in &self.jobs {
            for r in &j.runs {
                out.push((j.name.clone(), r.variant.clone(), r.status));
            }
        }
        out
    }

    /// Serializes the sweep to JSON (schema `nachos-sweep-v5`).
    ///
    /// The writer is hand-rolled (the workspace takes no serialization
    /// dependency) and emits keys in a fixed order; the output is
    /// byte-identical across runs, worker-thread counts and
    /// journal-resume boundaries — including for degraded runs, whose
    /// `status`, `detail` and `attempt_log` fields are deterministic.
    ///
    /// Changes from `nachos-sweep-v4`: the `opt` object keeps only
    /// `order_before`, `may_before` and `may_coalesced` (the README lists
    /// the four keys it lost), and a job quarantined for job-level panics
    /// reads `quarantined after N job-level panics; last: …`. Every other
    /// field is unchanged.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::new();
        w.open_obj();
        w.str_field("schema", "nachos-sweep-v5");
        w.u64_field("invocations", self.invocations);
        w.key("variants");
        w.open_arr();
        for v in &self.variants {
            w.str_item(v);
        }
        w.close_arr();
        w.key("jobs");
        w.open_arr();
        for j in &self.jobs {
            j.write_json(&mut w);
        }
        w.close_arr();
        w.close_obj();
        w.finish()
    }
}

impl JobOutcome {
    fn write_json(&self, w: &mut JsonWriter) {
        w.open_obj();
        w.str_field("name", &self.name);
        w.key("reference");
        {
            let (hash, count) = self.reference.loads.digest();
            w.open_obj();
            w.u64_field("load_digest", hash);
            w.u64_field("load_count", count);
            w.u64_field("mem_footprint", self.reference.mem.footprint() as u64);
            w.close_obj();
        }
        w.key("runs");
        w.open_arr();
        for r in &self.runs {
            r.write_json(w);
        }
        w.close_arr();
        w.close_obj();
    }
}

impl VariantOutcome {
    fn write_json(&self, w: &mut JsonWriter) {
        w.open_obj();
        w.str_field("variant", &self.variant);
        w.str_field("backend", &self.backend.to_string());
        w.str_field("status", self.status.as_str());
        w.bool_field("matches_reference", self.status == RunStatus::Ok);
        w.u64_field("attempts", self.attempts.len().max(1) as u64);
        if self.attempts.len() > 1 {
            w.key("attempt_log");
            w.open_arr();
            for a in &self.attempts {
                w.open_obj();
                w.str_field("status", a.status.as_str());
                w.u64_field("seed", a.seed);
                w.close_obj();
            }
            w.close_arr();
        }
        if let Some(detail) = &self.detail {
            w.str_field("detail", detail);
        }
        if !self.injected.is_empty() {
            w.key("injected");
            w.open_arr();
            for f in &self.injected {
                w.str_item(f);
            }
            w.close_arr();
        }
        if let Some(m) = &self.metrics {
            m.write_fields(w);
        }
        w.close_obj();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultKind, FaultSpec};
    use crate::testutil::store_load_region;

    fn demo_job(name: &str) -> SweepJob {
        let (region, binding) = store_load_region(name);
        SweepJob::new(name, region, binding)
    }

    #[test]
    fn sweep_runs_and_matches_reference() {
        let jobs = [demo_job("a"), demo_job("b")];
        let cfg = SweepConfig::default().with_invocations(4);
        let sweep = run_sweep(&jobs, &cfg);
        assert_eq!(sweep.jobs.len(), 2);
        assert_eq!(sweep.variants, ["opt-lsq", "nachos-sw", "nachos"]);
        assert!(sweep.all_match());
        assert!(sweep.not_ok().is_empty());
        for (_, _, status) in sweep.statuses() {
            assert_eq!(status, RunStatus::Ok);
        }
        for j in &sweep.jobs {
            for r in &j.runs {
                assert_eq!(r.attempts.len(), 1, "clean runs take one attempt");
                assert!(r.metrics.is_some());
            }
        }
    }

    #[test]
    fn ideal_variant_is_appended_and_matches_reference() {
        let jobs = [demo_job("a")];
        let base = SweepConfig::default().with_invocations(4);
        let plain = run_sweep(&jobs, &base.clone());
        let with_ideal = run_sweep(&jobs, &base.with_ideal());
        assert_eq!(
            with_ideal.variants,
            ["opt-lsq", "nachos-sw", "nachos", "ideal"],
            "the oracle column is appended last"
        );
        assert!(with_ideal.all_match(), "IDEAL matches the reference too");
        // Opt-in contract: the shared columns are byte-identical to the
        // default report.
        let plain_json = plain.to_json();
        let ideal_json = with_ideal.to_json();
        for v in &plain.variants {
            assert!(ideal_json.contains(&format!("\"variant\": \"{v}\"")));
        }
        assert!(!plain_json.contains("\"variant\": \"ideal\""));
    }

    #[test]
    fn report_is_thread_count_independent() {
        let jobs: Vec<SweepJob> = (0..5).map(|i| demo_job(&format!("j{i}"))).collect();
        let base = SweepConfig::default().with_invocations(3);
        let serial = run_sweep(&jobs, &base.clone().with_threads(1));
        let wide = run_sweep(&jobs, &base.with_threads(4));
        assert_eq!(serial.to_json(), wide.to_json());
    }

    #[test]
    fn json_report_has_schema_and_balanced_structure() {
        let jobs = [demo_job("a")];
        let cfg = SweepConfig::default()
            .with_invocations(2)
            .with_variants(SweepVariant::bench_matrix());
        let sweep = run_sweep(&jobs, &cfg);
        let json = sweep.to_json();
        assert!(json.starts_with("{\n"));
        assert!(json.contains("\"schema\": \"nachos-sweep-v5\""));
        assert!(json.contains("\"nachos-sw-baseline\""));
        assert!(json.contains("\"status\": \"ok\""));
        assert!(json.contains("\"matches_reference\": true"));
        assert!(json.contains("\"attempts\": 1"));
        assert!(
            !json.contains("\"attempt_log\""),
            "single attempts stay terse"
        );
        assert!(json.contains("\"stalls\""));
        let opens = json.matches(['{', '[']).count();
        let closes = json.matches(['}', ']']).count();
        assert_eq!(opens, closes);
    }

    #[test]
    fn degraded_runs_are_isolated_and_reported() {
        // Job "b" panics while handling its very first engine event under
        // the NACHOS variant only; every other run must stay ok.
        let jobs = [
            demo_job("a"),
            demo_job("b").with_fault(FaultPlan::single(
                FaultSpec::new(FaultKind::PanicOnEvent, 0).on_backend(Backend::Nachos),
            )),
            demo_job("c"),
        ];
        let cfg = SweepConfig::default().with_invocations(2);
        let sweep = run_sweep(&jobs, &cfg);
        assert!(!sweep.all_match());
        assert_eq!(sweep.not_ok(), [("b".to_string(), "nachos".to_string())]);
        assert!(sweep.mismatches().is_empty(), "a panic is no divergence");
        let bad = &sweep.jobs[1].runs[2];
        assert_eq!(bad.status, RunStatus::Panic, "no retries by default");
        assert!(bad.run.is_none());
        assert_eq!(bad.attempts.len(), 1);
        assert!(
            bad.detail
                .as_deref()
                .unwrap_or("")
                .contains("injected fault"),
            "panic detail carries the deterministic message"
        );
        let ok_runs = sweep
            .statuses()
            .iter()
            .filter(|(_, _, s)| *s == RunStatus::Ok)
            .count();
        assert_eq!(ok_runs, 8, "8 of 9 runs unaffected");
        let json = sweep.to_json();
        assert!(json.contains("\"status\": \"panic\""));
    }

    #[test]
    fn degraded_report_is_thread_count_independent() {
        let mut jobs: Vec<SweepJob> = (0..6).map(|i| demo_job(&format!("j{i}"))).collect();
        // A panic, a deadlock and a detected corruption sprinkled across
        // the matrix must not disturb byte-determinism.
        jobs[1].fault = FaultPlan::single(
            FaultSpec::new(FaultKind::PanicOnEvent, 3).on_backend(Backend::OptLsq),
        );
        jobs[3].fault = FaultPlan::single(
            FaultSpec::new(FaultKind::DropToken, 0).on_backend(Backend::NachosSw),
        );
        jobs[4].fault = FaultPlan::single(
            FaultSpec::new(FaultKind::CorruptForward { mask: 0xff }, 0).on_backend(Backend::Nachos),
        );
        let base = SweepConfig::default().with_invocations(3);
        let serial = run_sweep(&jobs, &base.clone().with_threads(1));
        let wide = run_sweep(&jobs, &base.clone().with_threads(4));
        let wider = run_sweep(&jobs, &base.with_threads(8));
        assert_eq!(serial.to_json(), wide.to_json());
        assert_eq!(serial.to_json(), wider.to_json());
        assert!(!serial.all_match());
    }

    #[test]
    fn persistent_panic_exhausts_retries_and_is_quarantined() {
        // Fault opportunity counters reset per attempt, so PanicOnEvent
        // fires on every retry: the cell burns its whole budget and is
        // parked as quarantined, with the attempt log telling the story.
        let jobs = [
            demo_job("a"),
            demo_job("poison").with_fault(FaultPlan::single(
                FaultSpec::new(FaultKind::PanicOnEvent, 0).on_backend(Backend::Nachos),
            )),
        ];
        let cfg = SweepConfig::default().with_invocations(2).with_retries(2);
        let sweep = run_sweep(&jobs, &cfg);
        let bad = &sweep.jobs[1].runs[2];
        assert_eq!(bad.status, RunStatus::Quarantined);
        assert_eq!(bad.attempts.len(), 3, "1 attempt + 2 retries");
        assert!(bad.attempts.iter().all(|a| a.status == RunStatus::Panic));
        // Seeds are derived, distinct per attempt, and deterministic.
        let seeds: Vec<u64> = bad.attempts.iter().map(|a| a.seed).collect();
        assert_ne!(seeds[0], seeds[1]);
        assert_ne!(seeds[1], seeds[2]);
        let again = run_sweep(&jobs, &cfg);
        assert_eq!(sweep.to_json(), again.to_json());
        let json = sweep.to_json();
        assert!(json.contains("\"status\": \"quarantined\""));
        assert!(json.contains("\"attempt_log\""));
        // Everything else still completed.
        let ok_runs = sweep
            .statuses()
            .iter()
            .filter(|(_, _, s)| *s == RunStatus::Ok)
            .count();
        assert_eq!(ok_runs, 5);
    }

    #[test]
    fn job_level_panic_is_retried_in_place_and_quarantines_the_job() {
        // An empty binding makes the reference executor itself panic —
        // outside the per-run boundary — so the job is retried until it
        // strikes out and is quarantined wholesale while its neighbours
        // finish.
        let mut poison = demo_job("poison");
        poison.binding.base_addrs.clear();
        let jobs = [demo_job("a"), poison, demo_job("b")];
        let cfg = SweepConfig::default().with_invocations(2);
        for threads in [1, 4] {
            let sweep = run_sweep(&jobs, &cfg.clone().with_threads(threads));
            assert_eq!(sweep.jobs.len(), 3, "every job reports");
            let q = &sweep.jobs[1];
            assert_eq!(q.name, "poison");
            assert!(q.runs.iter().all(|r| r.status == RunStatus::Quarantined));
            assert!(q.runs[0]
                .detail
                .as_deref()
                .unwrap_or("")
                .starts_with("quarantined after 3 job-level panics; last: "));
            assert_eq!(q.reference.loads.digest(), (0, 0), "empty reference");
            let ok_runs = sweep
                .statuses()
                .iter()
                .filter(|(_, _, s)| *s == RunStatus::Ok)
                .count();
            assert_eq!(ok_runs, 6, "both healthy jobs fully complete");
        }
        // Byte-determinism holds across thread counts here too.
        let serial = run_sweep(&jobs, &cfg.clone().with_threads(1));
        let wide = run_sweep(&jobs, &cfg.clone().with_threads(4));
        assert_eq!(serial.to_json(), wide.to_json());
    }

    #[test]
    fn cancelled_sweep_reports_cancelled_and_skips_journaling() {
        let token = crate::CancelToken::new();
        token.cancel();
        let mut cfg = SweepConfig::default().with_invocations(2);
        cfg.sim = cfg.sim.with_cancel(token);
        let dir = std::env::temp_dir().join("nachos-sweep-cancel-unit");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("j.jsonl");
        let jrn = Journal::create(&path).unwrap();
        let jobs = [demo_job("a")];
        let (sweep, stats) = run_sweep_journaled(&jobs, &cfg, Some(&jrn));
        assert!(sweep
            .statuses()
            .iter()
            .all(|(_, _, s)| *s == RunStatus::Cancelled));
        assert_eq!(
            stats.executed, 0,
            "a pre-tripped token stops the job before its reference pass, \
             so no cell executes"
        );
        drop(jrn);
        let resumed = Journal::resume(&path).unwrap();
        assert_eq!(
            resumed.replay_len(),
            0,
            "cancelled cells are never journaled"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn first_cancellation_ends_the_job() {
        let token = crate::CancelToken::new();
        let mut cfg = SweepConfig::default().with_invocations(2);
        cfg.sim = cfg.sim.with_cancel(token.clone());
        let job = demo_job("a");
        let cells = job_cells(0, &job, &cfg);
        let mut ran = Vec::new();
        // The token trips as soon as the first cell has run.
        let record = |c, rec: Option<RunRecord>| {
            token.cancel();
            ran.push((c, rec.is_some()));
            Ok::<(), Infallible>(())
        };
        let Ok(out) = run_cells(
            &job,
            &cfg,
            &cells,
            &mut SimArena::new(),
            |_| None,
            |_| {},
            record,
        );
        assert_eq!(ran, [(cells[0], true)], "no cell runs after the cancel");
        assert_eq!(out.runs[0].status, RunStatus::Ok);
        for r in &out.runs[1..] {
            assert_eq!(r.status, RunStatus::Cancelled);
            assert_eq!(
                r.detail.as_deref(),
                Some("cancelled before the cell started")
            );
        }
    }

    #[test]
    fn journaled_sweep_resumes_byte_identically() {
        let jobs = [
            demo_job("a"),
            demo_job("b").with_fault(FaultPlan::single(
                FaultSpec::new(FaultKind::DropToken, 0).on_backend(Backend::NachosSw),
            )),
            demo_job("c"),
        ];
        let dir = std::env::temp_dir().join("nachos-sweep-journal-unit");
        std::fs::create_dir_all(&dir).unwrap();
        // Optimized runs carry an `opt` block, so it round-trips too.
        for optimize in [false, true] {
            let cfg = SweepConfig::default()
                .with_invocations(3)
                .with_optimize(optimize);
            let clean = run_sweep(&jobs, &cfg).to_json();
            assert_eq!(clean.contains("\"opt\""), optimize);
            let path = dir.join(format!("j-{optimize}.jsonl"));
            // First pass journals everything (simulating a completed
            // shard of an interrupted campaign: only jobs a and b ran).
            {
                let jrn = Journal::create(&path).unwrap();
                let (_, stats) = run_sweep_journaled(&jobs[..2], &cfg, Some(&jrn));
                assert_eq!(stats.executed, 6);
                assert_eq!(stats.replayed, 0);
            }
            // Resume over the full job list: a and b replay, c runs live,
            // and the report matches an uninterrupted sweep byte for byte.
            let jrn = Journal::resume(&path).unwrap();
            assert_eq!(jrn.replay_len(), 6);
            let (resumed, stats) = run_sweep_journaled(&jobs, &cfg, Some(&jrn));
            assert_eq!(stats.replayed, 6);
            assert_eq!(stats.executed, 3);
            assert_eq!(resumed.to_json(), clean);
            // A second resume replays everything.
            drop(jrn);
            let jrn = Journal::resume(&path).unwrap();
            let (replayed, stats) = run_sweep_journaled(&jobs, &cfg, Some(&jrn));
            assert_eq!(stats.replayed, 9);
            assert_eq!(stats.executed, 0);
            assert_eq!(replayed.to_json(), clean);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
