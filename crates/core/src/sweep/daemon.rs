//! The crash-safe sweep job service behind `nachos-sweepd`.
//!
//! A resident process that accepts sweep matrices over a Unix domain
//! socket, runs them one job at a time through the journaled harness and
//! hands reports back — surviving `kill -9`, enforcing deadlines and
//! shedding load instead of buffering it.
//!
//! # Protocol (`nachos-jobs-v1`)
//!
//! Line-delimited JSON over a Unix domain socket. Every request is one
//! line; every response is one line (except `watch`, which streams one
//! status line per observed state change until the job is terminal):
//!
//! ```text
//! {"jobs": "nachos-jobs-v1", "cmd": "submit", "spec": {...}}
//! {"jobs": "nachos-jobs-v1", "cmd": "status", "job": 1}
//! {"jobs": "nachos-jobs-v1", "cmd": "watch",  "job": 1}
//! {"jobs": "nachos-jobs-v1", "cmd": "fetch",  "job": 1}
//! {"jobs": "nachos-jobs-v1", "cmd": "cancel", "job": 1}
//! {"jobs": "nachos-jobs-v1", "cmd": "list"}
//! {"jobs": "nachos-jobs-v1", "cmd": "ping"}
//! {"jobs": "nachos-jobs-v1", "cmd": "drain"}
//! {"jobs": "nachos-jobs-v1", "cmd": "shutdown"}
//! ```
//!
//! Responses always carry `"ok": true|false`; failures carry a stable
//! `"error"` tag (`queue_full`, `draining`, `bad_spec`, `bad_request`,
//! `unknown_job`, `not_settled`, `already_terminal`,
//! `oversized_request`). A `queue_full` rejection includes
//! `"retry_after_ms"` — the backpressure contract is an explicit
//! structured rejection, never unbounded buffering and never a blocked
//! accept loop.
//!
//! # Job state machine
//!
//! ```text
//!             ┌────────────────────────────┐ (crash / shutdown requeue)
//!             v                            │
//! submit → queued ──→ running ──→ settled  │
//!             │          │ ├───→ cancelled │
//!             │          │ ├───→ quarantined
//!             │          │ └───→ deadline_exceeded
//!             │          └──────────────────┘
//!             └────→ cancelled
//! ```
//!
//! # Core and shell
//!
//! The job table, the admission flags and every decision over them live
//! in an I/O-free core: it holds no file, socket, lock or thread, and it
//! is handed the time. Its one `apply` path checks that an event is
//! legal, appends it (checksum-framed, fsynced) to the job journal, and
//! only then changes the table; replaying the journal at open takes the
//! same path. The shell — socket, threads, condvar, run journals and
//! reports — takes the lock, asks the core, and wakes waiters.
//!
//! Each job's cells run under its own run [`Journal`], so `kill -9` of
//! the daemon loses nothing: on restart the job journal replays, every
//! job caught `running` is requeued, its run journal replays the
//! completed cells, and the report is byte-identical to an
//! uninterrupted run. No wall-clock value is ever journaled; deadlines
//! live only in memory and reduce to deterministic *statuses*.
//!
//! # Drain vs. shutdown
//!
//! `drain` closes admission and lets every already-admitted job run to
//! completion (its cells checkpoint continuously), then the daemon
//! exits 0. `shutdown` also closes admission but cancels the in-flight
//! job cooperatively and *requeues it durably* — the daemon exits 0
//! immediately with a journal a future restart resumes from.

use super::journal::{read_bounded_line, resume_log, BoundedLine, Journal};
use super::{run_sweep_journaled, SweepConfig, SweepJob};
use crate::config::CancelToken;
use crate::json::{checksum_frame, checksum_unframe, parse_json, write_atomic, Json, JsonWriter};
use std::fs;
use std::io::{self, BufReader, Write as _};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread;
use std::time::{Duration, Instant};

/// Wire-protocol schema tag, present in every response.
pub const JOBS_SCHEMA: &str = "nachos-jobs-v1";

/// Job-journal schema tag (the daemon's durable state-machine log).
pub const JOBD_SCHEMA: &str = "nachos-jobd-v1";

/// Upper bound on one client request line. A half-written or hostile
/// request beyond this is answered with `oversized_request` and the
/// connection dropped — the server never buffers an unbounded line.
pub const MAX_REQUEST_LEN: usize = 64 * 1024;

/// The most work — jobs × variants × invocations, in cell-invocations —
/// a job without a `deadline_secs` is admitted with. The daemon has one
/// executor, so an unbounded job would hold it forever; past this bound a
/// client must say how long its job may run. 2²² is 15× the largest
/// matrix CI submits (the 27 × 5 × 2,048 daemon soak).
pub const MAX_UNBOUNDED_WORK: u64 = 1 << 22;

/// How long the accept loop backs off after a failed `accept` (for
/// example, out of file descriptors) — the daemon's only sleep. Every
/// other wait wakes on the state change it waits for.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(10);

// ---------------------------------------------------------------------
// The submitted matrix
// ---------------------------------------------------------------------

/// A sweep matrix as submitted over the wire: the data form of the
/// `sweep` CLI's matrix-defining flags. The daemon itself does not know
/// how to turn a spec into jobs — the embedding binary supplies a
/// [`MatrixResolver`] (the `nachos-bench` suite for `nachos-sweepd`),
/// which keeps this module free of workload-crate dependencies and
/// guarantees the daemon and the one-shot CLI resolve *identically*
/// when they share the resolver.
#[derive(Clone, Debug, PartialEq)]
pub struct MatrixSpec {
    /// Accelerator invocations per run.
    pub invocations: u64,
    /// Worker threads for the in-process harness (`0` = auto).
    pub threads: usize,
    /// Append the IDEAL oracle column.
    pub ideal: bool,
    /// Run the certificate-carrying MDE optimizer per MDE cell.
    pub optimize: bool,
    /// Retry budget for transient per-run failures.
    pub max_retries: u32,
    /// Keep only workloads whose name contains this substring.
    pub filter: Option<String>,
    /// Explicit variant labels (`None` = the default matrix).
    pub variants: Option<Vec<String>>,
    /// Inject a deterministic panic into the named workload.
    pub poison: Option<String>,
    /// Per-job wall-clock budget in seconds (`0` = none). Enforced by
    /// the daemon through the job's [`CancelToken`]; never part of the
    /// matrix content, so it does not perturb run fingerprints.
    pub deadline_secs: u64,
}

impl Default for MatrixSpec {
    fn default() -> Self {
        Self {
            invocations: 64,
            threads: 0,
            ideal: false,
            optimize: false,
            max_retries: 0,
            filter: None,
            variants: None,
            poison: None,
            deadline_secs: 0,
        }
    }
}

impl MatrixSpec {
    /// Serializes the spec as one compact JSON object (wire and journal
    /// form; fixed key order, so identical specs are identical bytes).
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::compact();
        self.write(&mut w);
        let mut s = w.finish();
        s.pop(); // compact object, no trailing newline
        s
    }

    fn write(&self, w: &mut JsonWriter) {
        w.open_obj();
        w.u64_field("invocations", self.invocations);
        w.u64_field("threads", self.threads as u64);
        w.bool_field("ideal", self.ideal);
        w.bool_field("optimize", self.optimize);
        w.u64_field("max_retries", u64::from(self.max_retries));
        w.u64_field("deadline_secs", self.deadline_secs);
        if let Some(f) = &self.filter {
            w.str_field("filter", f);
        }
        if let Some(labels) = &self.variants {
            w.key("variants");
            w.open_arr();
            for l in labels {
                w.str_item(l);
            }
            w.close_arr();
        }
        if let Some(p) = &self.poison {
            w.str_field("poison", p);
        }
        w.close_obj();
    }

    /// Parses a spec from its JSON object form. Absent optional fields
    /// take their defaults; present fields of the wrong type fail.
    #[must_use]
    pub fn from_json(v: &Json) -> Option<MatrixSpec> {
        if !matches!(v, Json::Obj(_)) {
            return None;
        }
        let mut spec = MatrixSpec::default();
        if let Some(n) = v.get("invocations") {
            spec.invocations = n.as_u64()?;
        }
        if let Some(n) = v.get("threads") {
            spec.threads = usize::try_from(n.as_u64()?).ok()?;
        }
        if let Some(b) = v.get("ideal") {
            spec.ideal = b.as_bool()?;
        }
        if let Some(b) = v.get("optimize") {
            spec.optimize = b.as_bool()?;
        }
        if let Some(n) = v.get("max_retries") {
            spec.max_retries = u32::try_from(n.as_u64()?).ok()?;
        }
        if let Some(n) = v.get("deadline_secs") {
            spec.deadline_secs = n.as_u64()?;
        }
        if let Some(f) = v.get("filter") {
            spec.filter = Some(f.as_str()?.to_owned());
        }
        if let Some(arr) = v.get("variants") {
            let mut labels = Vec::new();
            for item in arr.as_arr()? {
                labels.push(item.as_str()?.to_owned());
            }
            spec.variants = Some(labels);
        }
        if let Some(p) = v.get("poison") {
            spec.poison = Some(p.as_str()?.to_owned());
        }
        Some(spec)
    }
}

/// Maps a [`MatrixSpec`] to the jobs and configuration the harness
/// runs. Supplied by the embedding binary; resolution errors are
/// reported to the submitting client as `bad_spec` and never admit the
/// job.
pub type MatrixResolver =
    Arc<dyn Fn(&MatrixSpec) -> Result<(Vec<SweepJob>, SweepConfig), String> + Send + Sync>;

// ---------------------------------------------------------------------
// Job state machine
// ---------------------------------------------------------------------

/// A job's position in the durable state machine. `Queued` and
/// `Running` are live; everything else is terminal and absorbing.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JobStatus {
    /// Admitted and waiting for the executor.
    Queued,
    /// The executor is running (or resuming) the job's cells.
    Running,
    /// Every cell reached a verdict; the report exists on disk.
    Settled,
    /// Cancelled by a client (while queued or mid-run).
    Cancelled,
    /// The job itself could not execute (spec resolution or journal
    /// I/O failed) — parked with a detail, like a quarantined cell.
    Quarantined,
    /// The per-job wall-clock deadline expired mid-run; remaining cells
    /// were cooperatively cancelled. A structured outcome, not a hang.
    DeadlineExceeded,
}

impl JobStatus {
    /// Stable lowercase label (wire protocol and job journal).
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            JobStatus::Queued => "queued",
            JobStatus::Running => "running",
            JobStatus::Settled => "settled",
            JobStatus::Cancelled => "cancelled",
            JobStatus::Quarantined => "quarantined",
            JobStatus::DeadlineExceeded => "deadline_exceeded",
        }
    }

    /// Parses the stable label back (journal replay).
    #[must_use]
    pub fn from_label(s: &str) -> Option<JobStatus> {
        Some(match s {
            "queued" => JobStatus::Queued,
            "running" => JobStatus::Running,
            "settled" => JobStatus::Settled,
            "cancelled" => JobStatus::Cancelled,
            "quarantined" => JobStatus::Quarantined,
            "deadline_exceeded" => JobStatus::DeadlineExceeded,
            _ => return None,
        })
    }

    /// `true` once a job can never change state again.
    #[must_use]
    pub fn is_terminal(self) -> bool {
        !matches!(self, JobStatus::Queued | JobStatus::Running)
    }

    /// The legal state-machine edges. Everything the daemon does —
    /// executor progress, client cancels, crash recovery, shutdown
    /// requeues — must be one of these; [`Daemon`] refuses (and the
    /// journal replay skips) anything else, so concurrent clients can
    /// never corrupt a job's lifecycle.
    #[must_use]
    pub fn can_transition(from: JobStatus, to: JobStatus) -> bool {
        matches!(
            (from, to),
            (JobStatus::Queued, JobStatus::Running)
                | (JobStatus::Queued, JobStatus::Cancelled)
                | (JobStatus::Running, JobStatus::Settled)
                | (JobStatus::Running, JobStatus::Cancelled)
                | (JobStatus::Running, JobStatus::Quarantined)
                | (JobStatus::Running, JobStatus::DeadlineExceeded)
                | (JobStatus::Running, JobStatus::Queued)
        )
    }
}

impl std::fmt::Display for JobStatus {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One durable line of the job journal.
#[derive(Clone, Debug, PartialEq)]
pub enum JobEvent {
    /// A job was admitted with this spec.
    Submitted {
        /// The job id (sequential from 1).
        job: u64,
        /// The submitted matrix.
        spec: MatrixSpec,
    },
    /// A job moved to `to`. `mismatches`/`degraded` summarize the
    /// report for `settled` transitions (deterministic — derived from
    /// the byte-deterministic report) so restarted daemons can answer
    /// verdict queries without re-parsing reports.
    Transition {
        /// The job id.
        job: u64,
        /// The new status.
        to: JobStatus,
        /// Optional deterministic detail (quarantine cause, deadline
        /// budget, recovery note).
        detail: Option<String>,
        /// Cells that mismatched the reference (settled only).
        mismatches: u64,
        /// Cells that degraded without mismatching (settled only).
        degraded: u64,
    },
}

impl JobEvent {
    /// The checksum-framed, newline-terminated journal line.
    #[must_use]
    pub fn to_line(&self) -> String {
        let mut w = JsonWriter::compact();
        w.open_obj();
        w.str_field("jobd", JOBD_SCHEMA);
        match self {
            JobEvent::Submitted { job, spec } => {
                w.u64_field("job", *job);
                w.str_field("event", "submit");
                w.key("spec");
                spec.write(&mut w);
            }
            JobEvent::Transition {
                job,
                to,
                detail,
                mismatches,
                degraded,
            } => {
                w.u64_field("job", *job);
                w.str_field("event", "state");
                w.str_field("to", to.as_str());
                if let Some(d) = detail {
                    w.str_field("detail", d);
                }
                w.u64_field("mismatches", *mismatches);
                w.u64_field("degraded", *degraded);
            }
        }
        w.close_obj();
        let mut payload = w.finish();
        payload.pop();
        let mut line = checksum_frame(&payload);
        line.push('\n');
        line
    }

    /// Parses the unframed JSON payload of a journal line.
    #[must_use]
    pub fn from_payload(v: &Json) -> Option<JobEvent> {
        if v.get("jobd")?.as_str()? != JOBD_SCHEMA {
            return None;
        }
        let job = v.get("job")?.as_u64()?;
        match v.get("event")?.as_str()? {
            "submit" => Some(JobEvent::Submitted {
                job,
                spec: MatrixSpec::from_json(v.get("spec")?)?,
            }),
            "state" => Some(JobEvent::Transition {
                job,
                to: JobStatus::from_label(v.get("to")?.as_str()?)?,
                detail: v.get("detail").and_then(Json::as_str).map(str::to_owned),
                mismatches: v.get("mismatches")?.as_u64()?,
                degraded: v.get("degraded")?.as_u64()?,
            }),
            _ => None,
        }
    }

    /// Parses one framed journal line; `None` for any damage.
    fn from_line(line: &str) -> Option<JobEvent> {
        checksum_unframe(line.trim())
            .ok()
            .and_then(parse_json)
            .as_ref()
            .and_then(JobEvent::from_payload)
    }
}

// ---------------------------------------------------------------------
// The core: job table, admission flags and every decision over them
// ---------------------------------------------------------------------

/// Why a submitted job was cancelled mid-run. Runtime control only —
/// never journaled; the classification reduces to a terminal
/// [`JobStatus`] (or a durable requeue) when the run is settled.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum CancelReason {
    Client,
    Deadline,
    Shutdown,
}

/// Daemon configuration.
#[derive(Clone, Debug)]
pub struct DaemonConfig {
    /// State directory: job journal, per-job run journals, reports.
    pub root: PathBuf,
    /// Unix-domain socket path to serve on.
    pub socket: PathBuf,
    /// Admission bound: the most jobs that may sit `queued` at once.
    /// Submissions past the bound are rejected with `queue_full` and a
    /// `retry_after_ms` hint — the queue never grows without limit.
    pub capacity: usize,
    /// The backpressure hint returned with `queue_full` rejections.
    pub retry_after_ms: u64,
}

impl DaemonConfig {
    /// A config with the default capacity (16) and retry hint (500 ms).
    /// The daemon has no poll cadence to configure: its executor, watch
    /// streams and deadline thread wake on the state changes they wait
    /// for.
    pub fn new(root: impl Into<PathBuf>, socket: impl Into<PathBuf>) -> Self {
        Self {
            root: root.into(),
            socket: socket.into(),
            capacity: 16,
            retry_after_ms: 500,
        }
    }
}

/// One job's bookkeeping: its spec, what clients see of it, and its
/// runtime control. Only the view's status, detail and verdict counts
/// are journaled.
#[derive(Debug)]
struct JobEntry {
    spec: MatrixSpec,
    view: JobSnapshot,
    cancel: CancelToken,
    cancel_reason: Option<CancelReason>,
    deadline: Option<Instant>,
}

impl JobEntry {
    /// Trips the job's token; the first reason given is the one kept.
    fn trip(&mut self, reason: CancelReason) {
        self.cancel_reason.get_or_insert(reason);
        self.cancel.cancel();
    }
}

/// A point-in-time copy of one job's observable state.
#[derive(Clone, Debug, PartialEq)]
pub struct JobSnapshot {
    /// The job id (sequential from 1).
    pub id: u64,
    /// Current status.
    pub status: JobStatus,
    /// Deterministic detail, when the status carries one.
    pub detail: Option<String>,
    /// Mismatched cells (settled jobs).
    pub mismatches: u64,
    /// Degraded (non-ok, non-mismatch) cells (settled jobs).
    pub degraded: u64,
    /// Cells replayed from the job's run journal (diagnostics).
    pub replayed: u64,
    /// Cells executed fresh (diagnostics).
    pub executed: u64,
}

/// Why a submission was refused.
#[derive(Clone, Debug, PartialEq)]
pub enum SubmitError {
    /// Admission is closed (drain or shutdown in progress).
    Draining,
    /// The bounded admission queue is full; retry after the hint.
    QueueFull {
        /// Jobs currently queued.
        queued: usize,
        /// Suggested client backoff.
        retry_after_ms: u64,
    },
    /// The spec does not resolve to a runnable matrix.
    BadSpec(String),
}

/// Why a cancel was refused.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CancelError {
    /// No such job id.
    Unknown,
    /// The job is already terminal (the state is attached).
    AlreadyTerminal(JobStatus),
}

/// What the executor does next; see [`State::claim`].
enum Claim {
    /// Run job `id`'s spec under its freshly armed token.
    Run(u64, MatrixSpec, CancelToken),
    /// Nothing is queued and admission is open: wait for a change.
    Wait,
    /// Drained, or shut down: the executor exits.
    Park,
}

/// How a claimed job's run ended, as the executor saw it.
enum RunEnd {
    /// The sweep returned (and, unless its token was tripped, its
    /// report is on disk).
    Swept {
        mismatches: u64,
        degraded: u64,
        replayed: u64,
        executed: u64,
    },
    /// The job could not run, or its report could not be written.
    Failed(String),
}

/// The daemon's I/O-free core: the job table, the admission flags, and
/// every decision over them. It holds no file, socket, lock or thread
/// and never reads the clock — callers pass `now` in. Every durable
/// change goes through [`State::apply`], whose only output is the
/// `journal` sink: the fsyncing job-journal writer in a live daemon, a
/// no-op during replay, a recorder in tests.
struct State {
    jobs: Vec<JobEntry>,
    /// Unreadable or inconsistent job-journal lines skipped at open.
    log_skipped: usize,
    /// Admission closed (drain or shutdown).
    draining: bool,
    /// Shutdown: the in-flight job is requeued and nothing more runs.
    stopping: bool,
    /// Shell bookkeeping, kept under the same lock: the executor has
    /// parked, so serving stops.
    executor_done: bool,
    /// Shell bookkeeping: `drain`/`shutdown` acknowledgements not yet
    /// written. The executor may park the moment admission closes;
    /// `serve` waits for these so the client that asked is answered
    /// before the daemon exits.
    acks_unsent: usize,
    /// Receives each legal event before it takes effect.
    journal: Box<dyn FnMut(&JobEvent) + Send>,
}

impl State {
    fn new(journal: Box<dyn FnMut(&JobEvent) + Send>) -> State {
        State {
            jobs: Vec::new(),
            log_skipped: 0,
            draining: false,
            stopping: false,
            executor_done: false,
            acks_unsent: 0,
            journal,
        }
    }

    fn entry(&self, id: u64) -> Option<&JobEntry> {
        self.jobs.get(usize::try_from(id.checked_sub(1)?).ok()?)
    }

    fn entry_mut(&mut self, id: u64) -> Option<&mut JobEntry> {
        self.jobs.get_mut(usize::try_from(id.checked_sub(1)?).ok()?)
    }

    fn queued(&self) -> usize {
        self.jobs
            .iter()
            .filter(|e| e.view.status == JobStatus::Queued)
            .count()
    }

    /// The one path by which a job is admitted or changes status, for
    /// replay and live requests alike. An event is legal when it
    /// submits the next sequential id or moves a known job along a
    /// [`JobStatus::can_transition`] edge. A legal event goes to the
    /// journal sink first and only then changes the table — durability
    /// before visibility. Returns `false`, touching nothing, for an
    /// illegal event.
    fn apply(&mut self, ev: JobEvent) -> bool {
        let legal = match &ev {
            JobEvent::Submitted { job, .. } => *job == self.jobs.len() as u64 + 1,
            JobEvent::Transition { job, to, .. } => self
                .entry(*job)
                .is_some_and(|e| JobStatus::can_transition(e.view.status, *to)),
        };
        if !legal {
            return false;
        }
        (self.journal)(&ev);
        match ev {
            JobEvent::Submitted { job, spec } => self.jobs.push(JobEntry {
                spec,
                view: JobSnapshot {
                    id: job,
                    status: JobStatus::Queued,
                    detail: None,
                    mismatches: 0,
                    degraded: 0,
                    replayed: 0,
                    executed: 0,
                },
                cancel: CancelToken::new(),
                cancel_reason: None,
                deadline: None,
            }),
            JobEvent::Transition {
                job,
                to,
                detail,
                mismatches,
                degraded,
            } => {
                let v = &mut self
                    .entry_mut(job)
                    .expect("a legal edge names a known job")
                    .view;
                v.status = to;
                v.detail = detail;
                v.mismatches = mismatches;
                v.degraded = degraded;
            }
        }
        true
    }

    fn transition(&mut self, id: u64, to: JobStatus, detail: Option<String>, verdicts: (u64, u64)) {
        self.apply(JobEvent::Transition {
            job: id,
            to,
            detail,
            mismatches: verdicts.0,
            degraded: verdicts.1,
        });
    }

    /// Admits `spec`, whose matrix is `work` cell-invocations, or
    /// refuses it under `cfg`'s admission bound.
    fn admit(
        &mut self,
        spec: MatrixSpec,
        work: u64,
        cfg: &DaemonConfig,
    ) -> Result<u64, SubmitError> {
        if work > MAX_UNBOUNDED_WORK && spec.deadline_secs == 0 {
            return Err(SubmitError::BadSpec(format!(
                "the matrix is {work} cell-invocations, over the {MAX_UNBOUNDED_WORK} a job \
                 may run without a deadline: set deadline_secs"
            )));
        }
        if self.draining {
            return Err(SubmitError::Draining);
        }
        let queued = self.queued();
        if queued >= cfg.capacity {
            return Err(SubmitError::QueueFull {
                queued,
                retry_after_ms: cfg.retry_after_ms,
            });
        }
        let id = self.jobs.len() as u64 + 1;
        self.apply(JobEvent::Submitted { job: id, spec });
        Ok(id)
    }

    /// Cancels a queued job at once; trips a running job's token so its
    /// run settles as `cancelled`.
    fn cancel(&mut self, id: u64) -> Result<JobStatus, CancelError> {
        let entry = self.entry_mut(id).ok_or(CancelError::Unknown)?;
        match entry.view.status {
            JobStatus::Queued => {
                self.transition(id, JobStatus::Cancelled, None, (0, 0));
                Ok(JobStatus::Cancelled)
            }
            JobStatus::Running => {
                entry.trip(CancelReason::Client);
                Ok(JobStatus::Running)
            }
            terminal => Err(CancelError::AlreadyTerminal(terminal)),
        }
    }

    fn drain(&mut self) {
        self.draining = true;
    }

    /// Closes admission and trips the in-flight job's token: unless a
    /// cancel or deadline tripped it first, its run settles as a requeue.
    fn shutdown(&mut self) {
        self.draining = true;
        self.stopping = true;
        for e in self
            .jobs
            .iter_mut()
            .filter(|e| e.view.status == JobStatus::Running)
        {
            e.trip(CancelReason::Shutdown);
        }
    }

    /// The executor's next step at `now`: claims the oldest queued job
    /// — arming a fresh token and its wall-clock deadline — unless a
    /// shutdown stops the executor, or a drain has emptied the queue.
    fn claim(&mut self, now: Instant) -> Claim {
        let queued = |e: &JobEntry| e.view.status == JobStatus::Queued;
        let i = match self.jobs.iter().position(queued) {
            _ if self.stopping => return Claim::Park,
            Some(i) => i,
            None if self.draining => return Claim::Park,
            None => return Claim::Wait,
        };
        let e = &mut self.jobs[i];
        e.cancel = CancelToken::new();
        e.cancel_reason = None;
        e.deadline =
            (e.spec.deadline_secs > 0).then(|| now + Duration::from_secs(e.spec.deadline_secs));
        let claim = Claim::Run(i as u64 + 1, e.spec.clone(), e.cancel.clone());
        self.transition(i as u64 + 1, JobStatus::Running, None, (0, 0));
        claim
    }

    /// Settles job `id`'s run. A tripped token decides by its reason —
    /// a shutdown requeues, a deadline or a client cancel is terminal —
    /// whatever the run returned; otherwise a failure quarantines and a
    /// finished sweep settles with its verdict counts.
    fn settle(&mut self, id: u64, end: RunEnd) {
        let Some(e) = self.entry_mut(id) else {
            return;
        };
        e.deadline = None;
        if let RunEnd::Swept {
            replayed, executed, ..
        } = end
        {
            e.view.replayed = replayed;
            e.view.executed = executed;
        }
        let reason = e
            .cancel
            .is_cancelled()
            .then(|| e.cancel_reason.unwrap_or(CancelReason::Client));
        let (to, detail, verdicts) = match (reason, end) {
            (Some(CancelReason::Shutdown), _) => (
                JobStatus::Queued,
                Some("requeued by shutdown".to_owned()),
                (0, 0),
            ),
            (Some(CancelReason::Deadline), _) => (
                JobStatus::DeadlineExceeded,
                Some(format!(
                    "wall-clock budget of {}s exhausted",
                    e.spec.deadline_secs
                )),
                (0, 0),
            ),
            (Some(CancelReason::Client), _) => (JobStatus::Cancelled, None, (0, 0)),
            (None, RunEnd::Failed(detail)) => (JobStatus::Quarantined, Some(detail), (0, 0)),
            (
                None,
                RunEnd::Swept {
                    mismatches,
                    degraded,
                    ..
                },
            ) => (JobStatus::Settled, None, (mismatches, degraded)),
        };
        self.transition(id, to, detail, verdicts);
    }

    /// Trips the token of every running job whose deadline has passed
    /// at `now`; returns the earliest deadline still armed.
    fn tick(&mut self, now: Instant) -> Option<Instant> {
        let mut next: Option<Instant> = None;
        for e in self
            .jobs
            .iter_mut()
            .filter(|e| e.view.status == JobStatus::Running && !e.cancel.is_cancelled())
        {
            match e.deadline {
                Some(d) if now >= d => e.trip(CancelReason::Deadline),
                Some(d) => next = Some(next.map_or(d, |n| n.min(d))),
                None => {}
            }
        }
        next
    }

    /// Durably requeues every job a previous process left running; each
    /// resumes from its own run journal. Running → queued is the only
    /// edge into `queued`, so `apply` refuses the event for every other
    /// job.
    fn recover(&mut self) {
        for id in 1..=self.jobs.len() as u64 {
            let detail = Some("recovered after restart".to_owned());
            self.transition(id, JobStatus::Queued, detail, (0, 0));
        }
    }
}

// ---------------------------------------------------------------------
// The shell: lock, call the core, notify
// ---------------------------------------------------------------------

struct Shared {
    cfg: DaemonConfig,
    resolver: MatrixResolver,
    state: Mutex<State>,
    /// Notified after every change a waiter looks at. The executor,
    /// `watch` streams and the deadline thread all wait on it instead
    /// of sleeping.
    changed: Condvar,
}

/// The job service. See the module docs for the protocol and the
/// durability contract. Every request takes one lock and makes one
/// decision over the job table; every durable change is one validated
/// event, journaled before it is visible — the same path journal replay
/// takes — so concurrent clients (or a client racing the executor) can
/// never produce an illegal state-machine edge.
pub struct Daemon {
    shared: Arc<Shared>,
}

impl Shared {
    fn lock(&self) -> MutexGuard<'_, State> {
        // A poisoned lock means a panic mid-decision; the table is still
        // consistent (each event applies atomically under the guard), so
        // recover the guard rather than wedging every client thread.
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Releases the guard until [`Shared::changed`] is notified.
    fn wait<'a>(&self, st: MutexGuard<'a, State>) -> MutexGuard<'a, State> {
        self.changed
            .wait(st)
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// Runs one core decision under the lock, then wakes every waiter.
    fn update<T>(&self, decide: impl FnOnce(&mut State) -> T) -> T {
        let out = decide(&mut self.lock());
        self.changed.notify_all();
        out
    }

    fn runs_path(&self, id: u64) -> PathBuf {
        self.cfg.root.join(format!("job-{id:04}.runs.jsonl"))
    }

    fn report_path(&self, id: u64) -> PathBuf {
        self.cfg.root.join(format!("job-{id:04}.report.json"))
    }
}

impl Daemon {
    /// Opens (or recovers) the daemon state under `cfg.root`: replays
    /// the job journal, rebuilds the job table, and durably requeues
    /// every job the previous process left `running`. Does not bind the
    /// socket — call [`Daemon::serve`] for that.
    ///
    /// # Errors
    ///
    /// Propagates state-directory and journal I/O errors.
    pub fn open(cfg: DaemonConfig, resolver: MatrixResolver) -> io::Result<Daemon> {
        fs::create_dir_all(&cfg.root)?;
        // Replay applies each event through the same path as a live
        // request, with nothing to journal; a line that is damaged or
        // not a legal event (an id gap or repeat, an illegal edge) is
        // skipped and counted.
        let mut st = State::new(Box::new(|_: &JobEvent| {}));
        let (mut file, dropped) = resume_log(&cfg.root.join("jobs.jsonl"), |line| {
            if !JobEvent::from_line(line).is_some_and(|ev| st.apply(ev)) {
                st.log_skipped += 1;
            }
        })?;
        st.log_skipped += dropped;
        st.journal = Box::new(move |ev: &JobEvent| {
            let appended = file
                .write_all(ev.to_line().as_bytes())
                .and_then(|()| file.flush())
                .and_then(|()| file.sync_data());
            // A daemon that cannot write its journal keeps serving; it
            // just recovers less after the next crash.
            if let Err(e) = appended {
                eprintln!("job journal append failed: {e}");
            }
        });
        st.recover();
        Ok(Daemon {
            shared: Arc::new(Shared {
                cfg,
                resolver,
                state: Mutex::new(st),
                changed: Condvar::new(),
            }),
        })
    }

    /// Admits one job (resolving the spec first so a bad spec never
    /// occupies a queue slot), or rejects it with the structured
    /// backpressure contract.
    ///
    /// # Errors
    ///
    /// [`SubmitError`] on a closed queue, a full queue, a spec that does
    /// not resolve, or one whose work exceeds [`MAX_UNBOUNDED_WORK`]
    /// without a `deadline_secs`.
    pub fn submit(&self, spec: MatrixSpec) -> Result<u64, SubmitError> {
        let (jobs, cfg) = (self.shared.resolver)(&spec).map_err(SubmitError::BadSpec)?;
        let work = (jobs.len() as u64)
            .saturating_mul(cfg.variants.len() as u64)
            .saturating_mul(cfg.sim.invocations);
        self.shared
            .update(|st| st.admit(spec, work, &self.shared.cfg))
    }

    /// A point-in-time view of one job.
    #[must_use]
    pub fn snapshot(&self, id: u64) -> Option<JobSnapshot> {
        self.shared.lock().entry(id).map(|e| e.view.clone())
    }

    /// Snapshots of every job, in submission order.
    #[must_use]
    pub fn list(&self) -> Vec<JobSnapshot> {
        let st = self.shared.lock();
        st.jobs.iter().map(|e| e.view.clone()).collect()
    }

    /// Jobs currently waiting in the admission queue.
    #[must_use]
    pub fn queued(&self) -> usize {
        self.shared.lock().queued()
    }

    /// Unreadable or inconsistent job-journal lines skipped at open.
    #[must_use]
    pub fn log_skipped(&self) -> usize {
        self.shared.lock().log_skipped
    }

    /// Cancels a job: queued jobs transition immediately; running jobs
    /// get their token tripped and settle as `cancelled` when the
    /// executor observes it. Returns the status at the time of the
    /// request.
    ///
    /// # Errors
    ///
    /// [`CancelError`] for unknown ids and already-terminal jobs.
    pub fn cancel(&self, id: u64) -> Result<JobStatus, CancelError> {
        self.shared.update(|st| st.cancel(id))
    }

    /// Closes admission and lets every admitted job finish; the serve
    /// loop exits 0 once the queue is empty and nothing is running.
    pub fn drain(&self) {
        self.shared.update(State::drain);
    }

    /// Closes admission, cooperatively cancels the in-flight job (it is
    /// requeued durably — a restart resumes it from its run journal)
    /// and stops the serve loop as soon as the executor parks.
    pub fn shutdown(&self) {
        self.shared.update(State::shutdown);
    }

    /// Reads a settled job's report from disk.
    ///
    /// # Errors
    ///
    /// Propagates the read error (a missing report means the job has
    /// not settled).
    pub fn report(&self, id: u64) -> io::Result<String> {
        fs::read_to_string(self.shared.report_path(id))
    }

    /// Binds the socket and serves until drained or shut down: spawns
    /// the executor and deadline threads, accepts clients with a
    /// blocking `accept` (one handler thread per connection), and
    /// returns once the executor has parked — the parking executor
    /// connects once to the socket to wake the accept loop. A stale
    /// socket file from a killed predecessor is replaced.
    ///
    /// # Errors
    ///
    /// Propagates socket binding errors; serving errors on individual
    /// connections are contained to their handler.
    pub fn serve(&self) -> io::Result<()> {
        let _ = fs::remove_file(&self.shared.cfg.socket);
        let listener = UnixListener::bind(&self.shared.cfg.socket)?;
        let spawn = |run: fn(&Shared)| {
            let shared = Arc::clone(&self.shared);
            thread::spawn(move || run(&shared))
        };
        let (exec, watch) = (spawn(executor), spawn(deadline_watch));
        loop {
            let failed = match listener.accept() {
                Ok((stream, _)) => {
                    let shared = Arc::clone(&self.shared);
                    thread::spawn(move || handle_client(&shared, stream));
                    false
                }
                Err(_) => true,
            };
            if self.shared.lock().executor_done {
                break;
            }
            if failed {
                thread::sleep(ACCEPT_BACKOFF);
            }
        }
        let _ = exec.join();
        let _ = watch.join();
        let acked = self
            .shared
            .changed
            .wait_while(self.shared.lock(), |st| st.acks_unsent > 0);
        drop(acked.unwrap_or_else(PoisonError::into_inner));
        let _ = fs::remove_file(&self.shared.cfg.socket);
        Ok(())
    }
}

// ---------------------------------------------------------------------
// Executor and deadline watch
// ---------------------------------------------------------------------

fn executor(shared: &Shared) {
    let mut st = shared.lock();
    loop {
        match st.claim(Instant::now()) {
            Claim::Run(id, spec, token) => {
                drop(st);
                shared.changed.notify_all();
                let end = run_job(shared, id, &spec, token);
                st = shared.lock();
                st.settle(id, end);
                shared.changed.notify_all();
            }
            Claim::Wait => st = shared.wait(st),
            Claim::Park => break,
        }
    }
    st.executor_done = true;
    drop(st);
    shared.changed.notify_all();
    // Wake the accept loop blocked in `accept`; it sees `executor_done`.
    let _ = UnixStream::connect(&shared.cfg.socket);
}

/// Resolves and runs one claimed job. The per-job run journal makes the
/// work itself crash-recoverable: `Journal::resume` replays any cells a
/// previous incarnation completed. Report bytes land on disk
/// (atomically) before the run is settled — a crash between the two
/// replays the journal-complete job cheaply and rewrites the identical
/// report.
fn run_job(shared: &Shared, id: u64, spec: &MatrixSpec, token: CancelToken) -> RunEnd {
    let (jobs, mut cfg) = match (shared.resolver)(spec) {
        Ok(r) => r,
        Err(e) => return RunEnd::Failed(format!("spec failed to resolve: {e}")),
    };
    cfg.sim.cancel = Some(token.clone());
    let journal = match Journal::resume(shared.runs_path(id)) {
        Ok(j) => j,
        Err(e) => return RunEnd::Failed(format!("run journal unavailable: {e}")),
    };
    let (sweep, stats) = run_sweep_journaled(&jobs, &cfg, Some(&journal));
    if !token.is_cancelled() {
        if let Err(e) = write_atomic(&shared.report_path(id), &sweep.to_json()) {
            return RunEnd::Failed(format!("report write failed: {e}"));
        }
    }
    let (mismatches, degraded) = sweep.mismatched_and_degraded();
    RunEnd::Swept {
        mismatches,
        degraded,
        replayed: stats.replayed as u64,
        executed: stats.executed as u64,
    }
}

/// Trips each running job's token when its deadline passes. Sleeps on
/// [`Shared::changed`] until the earliest armed deadline (or without a
/// timeout when none is armed); a job starting to run, and the
/// executor parking, wake it.
fn deadline_watch(shared: &Shared) {
    let mut st = shared.lock();
    while !st.executor_done {
        let now = Instant::now();
        st = match st.tick(now) {
            Some(d) => {
                shared
                    .changed
                    .wait_timeout(st, d - now)
                    .unwrap_or_else(PoisonError::into_inner)
                    .0
            }
            None => shared.wait(st),
        };
    }
}

// ---------------------------------------------------------------------
// Wire protocol
// ---------------------------------------------------------------------

struct Response {
    w: JsonWriter,
}

impl Response {
    fn new(ok: bool) -> Response {
        let mut w = JsonWriter::compact();
        w.open_obj();
        w.str_field("jobs", JOBS_SCHEMA);
        w.bool_field("ok", ok);
        Response { w }
    }

    fn err(tag: &str) -> Response {
        let mut r = Response::new(false);
        r.w.str_field("error", tag);
        r
    }

    fn err_detail(tag: &str, detail: &str) -> Response {
        let mut r = Response::err(tag);
        r.w.str_field("detail", detail);
        r
    }

    fn send(mut self, out: &mut UnixStream) -> io::Result<()> {
        self.w.close_obj();
        out.write_all(self.w.finish().as_bytes())?;
        out.flush()
    }
}

fn snapshot_fields(r: &mut Response, snap: &JobSnapshot) {
    r.w.u64_field("job", snap.id);
    r.w.str_field("state", snap.status.as_str());
    if let Some(d) = &snap.detail {
        r.w.str_field("detail", d);
    }
    r.w.u64_field("mismatches", snap.mismatches);
    r.w.u64_field("degraded", snap.degraded);
    r.w.u64_field("replayed", snap.replayed);
    r.w.u64_field("executed", snap.executed);
}

/// Serves one client connection: a loop of bounded request lines. Any
/// damage — a half-written line at EOF, malformed JSON, an unknown
/// command, a vanished peer mid-response — is contained to this
/// connection; job state only ever changes through [`State::apply`].
fn handle_client(shared: &Arc<Shared>, stream: UnixStream) {
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(read_half);
    let mut out = stream;
    let mut buf = Vec::new();
    loop {
        match read_bounded_line(&mut reader, &mut buf, MAX_REQUEST_LEN) {
            Ok(BoundedLine::Eof) | Err(_) => return,
            Ok(BoundedLine::Oversized { .. }) => {
                let _ = Response::err("oversized_request").send(&mut out);
                return;
            }
            Ok(BoundedLine::Line) => {}
        }
        let line = match std::str::from_utf8(&buf) {
            Ok(l) => l.trim().to_owned(),
            Err(_) => {
                let _ = Response::err("bad_request").send(&mut out);
                continue;
            }
        };
        if line.is_empty() {
            continue;
        }
        let Some(req) = parse_json(&line) else {
            // Covers torn request lines (client died mid-write): the
            // fragment fails to parse and is answered, not executed.
            let r = Response::err_detail("bad_request", "request is not a JSON object");
            if r.send(&mut out).is_err() {
                return;
            }
            continue;
        };
        if dispatch(shared, &req, &mut out).is_err() {
            return; // peer gone mid-response; nothing to unwind
        }
    }
}

fn dispatch(shared: &Arc<Shared>, req: &Json, out: &mut UnixStream) -> io::Result<()> {
    let daemon = Daemon {
        shared: Arc::clone(shared),
    };
    let Some(cmd) = req.get("cmd").and_then(Json::as_str) else {
        return Response::err_detail("bad_request", "missing cmd").send(out);
    };
    let job_id = req.get("job").and_then(Json::as_u64);
    if job_id.is_none() && matches!(cmd, "status" | "watch" | "fetch" | "cancel") {
        return Response::err_detail("bad_request", "missing job id").send(out);
    }
    let id = job_id.unwrap_or_default();
    match cmd {
        "submit" => {
            let Some(spec) = req.get("spec").and_then(MatrixSpec::from_json) else {
                return Response::err_detail("bad_request", "submit requires a spec object")
                    .send(out);
            };
            match daemon.submit(spec) {
                Ok(id) => {
                    let mut r = Response::new(true);
                    r.w.u64_field("job", id);
                    r.w.str_field("state", JobStatus::Queued.as_str());
                    r.send(out)
                }
                Err(SubmitError::Draining) => Response::err("draining").send(out),
                Err(SubmitError::QueueFull {
                    queued,
                    retry_after_ms,
                }) => {
                    let mut r = Response::err("queue_full");
                    r.w.u64_field("queued", queued as u64);
                    r.w.u64_field("retry_after_ms", retry_after_ms);
                    r.send(out)
                }
                Err(SubmitError::BadSpec(detail)) => {
                    Response::err_detail("bad_spec", &detail).send(out)
                }
            }
        }
        "status" => match daemon.snapshot(id) {
            Some(snap) => {
                let mut r = Response::new(true);
                snapshot_fields(&mut r, &snap);
                r.send(out)
            }
            None => unknown_job(id, out),
        },
        "watch" => {
            // One line per observed change: after each line, wait
            // until the job's status differs from the one sent
            // (intermediate states may be skipped).
            let mut last = None;
            loop {
                let snap = shared
                    .changed
                    .wait_while(shared.lock(), |st| {
                        st.entry(id).is_some_and(|e| last == Some(e.view.status))
                    })
                    .unwrap_or_else(PoisonError::into_inner)
                    .entry(id)
                    .map(|e| e.view.clone());
                let Some(snap) = snap else {
                    return unknown_job(id, out);
                };
                last = Some(snap.status);
                let mut r = Response::new(true);
                snapshot_fields(&mut r, &snap);
                r.send(out)?;
                if snap.status.is_terminal() {
                    return Ok(());
                }
            }
        }
        "fetch" => {
            let Some(snap) = daemon.snapshot(id) else {
                return unknown_job(id, out);
            };
            if snap.status != JobStatus::Settled {
                let mut r = Response::err("not_settled");
                r.w.u64_field("job", id);
                r.w.str_field("state", snap.status.as_str());
                return r.send(out);
            }
            match daemon.report(id) {
                Ok(report) => {
                    let mut r = Response::new(true);
                    snapshot_fields(&mut r, &snap);
                    r.w.str_field("report", &report);
                    r.send(out)
                }
                Err(e) => Response::err_detail("report_unavailable", &e.to_string()).send(out),
            }
        }
        "cancel" => match daemon.cancel(id) {
            Ok(state) => {
                let mut r = Response::new(true);
                r.w.u64_field("job", id);
                r.w.str_field("state", state.as_str());
                r.w.bool_field("cancelling", state == JobStatus::Running);
                r.send(out)
            }
            Err(CancelError::Unknown) => unknown_job(id, out),
            Err(CancelError::AlreadyTerminal(state)) => {
                let mut r = Response::err("already_terminal");
                r.w.u64_field("job", id);
                r.w.str_field("state", state.as_str());
                r.send(out)
            }
        },
        "list" => {
            let mut r = Response::new(true);
            {
                let st = shared.lock();
                let count = |s| st.jobs.iter().filter(|e| e.view.status == s).count() as u64;
                r.w.u64_field("queued", count(JobStatus::Queued));
                r.w.u64_field("running", count(JobStatus::Running));
                r.w.u64_field("log_skipped", st.log_skipped as u64);
                r.w.key("entries");
                r.w.open_arr();
                for e in &st.jobs {
                    r.w.open_obj();
                    r.w.u64_field("job", e.view.id);
                    r.w.str_field("state", e.view.status.as_str());
                    r.w.close_obj();
                }
            }
            r.w.close_arr();
            r.send(out)
        }
        "ping" => {
            let mut r = Response::new(true);
            r.w.bool_field("pong", true);
            r.w.u64_field("queued", daemon.queued() as u64);
            r.w.bool_field("draining", shared.lock().draining);
            r.send(out)
        }
        "drain" | "shutdown" => {
            shared.lock().acks_unsent += 1;
            let mut r = Response::new(true);
            if cmd == "drain" {
                daemon.drain();
                r.w.bool_field("draining", true);
                r.w.u64_field("queued", daemon.queued() as u64);
            } else {
                daemon.shutdown();
                r.w.bool_field("stopping", true);
            }
            let sent = r.send(out);
            shared.lock().acks_unsent -= 1;
            shared.changed.notify_all();
            sent
        }
        other => Response::err_detail("bad_request", &format!("unknown cmd {other:?}")).send(out),
    }
}

fn unknown_job(id: u64, out: &mut UnixStream) -> io::Result<()> {
    let mut r = Response::err("unknown_job");
    r.w.u64_field("job", id);
    r.send(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::store_load_region;
    use std::collections::HashMap;

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("nachos-daemon-unit").join(name);
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).expect("scratch dir");
        dir
    }

    fn tiny_resolver() -> MatrixResolver {
        Arc::new(|spec: &MatrixSpec| {
            if spec.filter.as_deref() == Some("no-such-workload") {
                return Err("filter matches no workload".to_owned());
            }
            let (region, binding) = store_load_region("unit");
            let jobs = vec![SweepJob::new("unit", region, binding)];
            let cfg = SweepConfig::default()
                .with_invocations(spec.invocations)
                .with_threads(1)
                .with_retries(spec.max_retries);
            Ok((jobs, cfg))
        })
    }

    fn full_spec() -> MatrixSpec {
        MatrixSpec {
            invocations: 7,
            threads: 2,
            ideal: true,
            optimize: true,
            max_retries: 3,
            filter: Some("mc".to_owned()),
            variants: Some(vec!["opt-lsq".to_owned(), "nachos".to_owned()]),
            poison: Some("gzip".to_owned()),
            deadline_secs: 30,
        }
    }

    #[test]
    fn spec_roundtrips_through_json() {
        for spec in [MatrixSpec::default(), full_spec()] {
            let json = spec.to_json();
            let back = MatrixSpec::from_json(&parse_json(&json).expect("parses")).expect("spec");
            assert_eq!(back, spec);
            assert_eq!(back.to_json(), json, "stable bytes");
        }
        assert!(MatrixSpec::from_json(&Json::Null).is_none());
        for wrong in [
            "{\"invocations\": \"x\"}",
            "{\"ideal\": \"true\"}",
            "{\"ideal\": 1}",
            "{\"optimize\": null}",
            "{\"optimize\": \"false\"}",
        ] {
            let v = parse_json(wrong).unwrap();
            assert!(MatrixSpec::from_json(&v).is_none(), "{wrong} is rejected");
        }
    }

    #[test]
    fn status_labels_roundtrip_and_edges_are_exact() {
        use JobStatus::*;
        let all = [
            Queued,
            Running,
            Settled,
            Cancelled,
            Quarantined,
            DeadlineExceeded,
        ];
        for s in all {
            assert_eq!(JobStatus::from_label(s.as_str()), Some(s));
            assert_eq!(s.is_terminal(), !matches!(s, Queued | Running));
        }
        assert_eq!(JobStatus::from_label("nope"), None);
        // The legal edge set, exhaustively: exactly these seven.
        let legal = [
            (Queued, Running),
            (Queued, Cancelled),
            (Running, Settled),
            (Running, Cancelled),
            (Running, Quarantined),
            (Running, DeadlineExceeded),
            (Running, Queued),
        ];
        for from in all {
            for to in all {
                assert_eq!(
                    JobStatus::can_transition(from, to),
                    legal.contains(&(from, to)),
                    "edge {from} -> {to}"
                );
            }
        }
    }

    #[test]
    fn job_events_roundtrip_and_survive_log_damage() {
        let dir = scratch("joblog");
        let path = dir.join("jobs.jsonl");
        let events = vec![
            JobEvent::Submitted {
                job: 1,
                spec: full_spec(),
            },
            JobEvent::Transition {
                job: 1,
                to: JobStatus::Running,
                detail: None,
                mismatches: 0,
                degraded: 0,
            },
            JobEvent::Transition {
                job: 1,
                to: JobStatus::Settled,
                detail: Some("line\nbreak".to_owned()),
                mismatches: 2,
                degraded: 1,
            },
        ];
        {
            let (mut log, loaded, skipped) = load(&path);
            assert!(loaded.is_empty());
            assert_eq!(skipped, 0);
            for ev in &events {
                log.write_all(ev.to_line().as_bytes()).unwrap();
            }
        }
        // Damage: a foreign line, then a torn tail.
        {
            let mut f = fs::OpenOptions::new().append(true).open(&path).unwrap();
            f.write_all(b"garbage line\n").unwrap();
            f.write_all(b"ffffffffffffffff {\"jobd\": \"nachos-jobd")
                .unwrap();
        }
        let (mut log, loaded, skipped) = load(&path);
        assert_eq!(loaded, events);
        assert_eq!(skipped, 2, "foreign line and torn tail both counted");
        // The torn tail was newline-repaired: a post-crash append parses.
        log.write_all(events[0].to_line().as_bytes()).unwrap();
        drop(log);
        let (_, loaded, _) = load(&path);
        assert_eq!(loaded.len(), events.len() + 1);
    }

    /// Loads a job journal through the shared framed-log reader: the
    /// append handle, the events that parse and the skipped-line count.
    fn load(path: &std::path::Path) -> (fs::File, Vec<JobEvent>, usize) {
        let mut events = Vec::new();
        let mut bad = 0;
        let (file, dropped) = resume_log(path, |line| match JobEvent::from_line(line) {
            Some(ev) => events.push(ev),
            None => bad += 1,
        })
        .unwrap();
        (file, events, bad + dropped)
    }

    /// Events that parse but do not fit the table are journal damage:
    /// open skips and counts each, and applies every legal event around
    /// them.
    #[test]
    fn inconsistent_journal_events_are_skipped_and_counted() {
        use JobStatus::*;
        let dir = scratch("replay-damage");
        let cfg = DaemonConfig::new(dir.join("state"), dir.join("d.sock"));
        let submit = |job| JobEvent::Submitted {
            job,
            spec: MatrixSpec::default(),
        };
        let to = |job, to, mismatches| JobEvent::Transition {
            job,
            to,
            detail: None,
            mismatches,
            degraded: 0,
        };
        let events = [
            submit(1),
            submit(2),
            to(1, Running, 0),
            submit(4),         // a gap in the ids
            submit(2),         // a repeated id
            to(2, Settled, 0), // queued -> settled is not an edge
            to(9, Running, 0), // no such job
            to(1, Settled, 3),
            submit(3),
        ];
        fs::create_dir_all(&cfg.root).unwrap();
        let text: String = events.iter().map(JobEvent::to_line).collect();
        fs::write(cfg.root.join("jobs.jsonl"), text).unwrap();
        let daemon = Daemon::open(cfg, tiny_resolver()).unwrap();
        assert_eq!(daemon.log_skipped(), 4);
        let jobs: Vec<_> = daemon
            .list()
            .iter()
            .map(|s| (s.id, s.status, s.mismatches))
            .collect();
        assert_eq!(jobs, [(1, Settled, 3), (2, Queued, 0), (3, Queued, 0)]);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn admission_is_bounded_and_rejections_are_structured() {
        let dir = scratch("admission");
        let mut cfg = DaemonConfig::new(dir.join("state"), dir.join("d.sock"));
        cfg.capacity = 2;
        cfg.retry_after_ms = 123;
        let daemon = Daemon::open(cfg, tiny_resolver()).unwrap();
        assert_eq!(daemon.submit(MatrixSpec::default()), Ok(1));
        assert_eq!(daemon.submit(MatrixSpec::default()), Ok(2));
        // No executor is running, so both jobs stay queued: the third
        // submission must be refused with the backpressure contract.
        assert_eq!(
            daemon.submit(MatrixSpec::default()),
            Err(SubmitError::QueueFull {
                queued: 2,
                retry_after_ms: 123
            })
        );
        // A bad spec is refused without occupying a slot.
        let bad = MatrixSpec {
            filter: Some("no-such-workload".to_owned()),
            ..MatrixSpec::default()
        };
        assert!(matches!(daemon.submit(bad), Err(SubmitError::BadSpec(_))));
        // Draining closes admission entirely.
        daemon.drain();
        assert_eq!(
            daemon.submit(MatrixSpec::default()),
            Err(SubmitError::Draining)
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn unbounded_work_needs_a_deadline() {
        let dir = scratch("work-bound");
        let cfg = DaemonConfig::new(dir.join("state"), dir.join("d.sock"));
        let daemon = Daemon::open(cfg, tiny_resolver()).unwrap();
        // 1 job × 3 variants × 10¹² invocations, no deadline: refused
        // without occupying a slot.
        let huge = MatrixSpec {
            invocations: 1_000_000_000_000,
            ..MatrixSpec::default()
        };
        let Err(SubmitError::BadSpec(why)) = daemon.submit(huge.clone()) else {
            panic!("unbounded work must be refused");
        };
        assert!(why.contains("3000000000000 cell-invocations"), "{why}");
        assert!(why.contains(&MAX_UNBOUNDED_WORK.to_string()), "{why}");
        assert!(why.contains("deadline_secs"), "{why}");
        assert_eq!(daemon.queued(), 0);
        // A deadline makes the same matrix admissible.
        let bounded = MatrixSpec {
            deadline_secs: 1,
            ..huge
        };
        assert_eq!(daemon.submit(bounded), Ok(1));
        assert_eq!(daemon.queued(), 1);
        assert_eq!(daemon.cancel(1), Ok(JobStatus::Cancelled));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn queued_jobs_cancel_and_recover_across_restart() {
        let dir = scratch("recover");
        let cfg = DaemonConfig::new(dir.join("state"), dir.join("d.sock"));
        {
            let daemon = Daemon::open(cfg.clone(), tiny_resolver()).unwrap();
            assert_eq!(daemon.submit(MatrixSpec::default()), Ok(1));
            assert_eq!(daemon.submit(full_spec()), Ok(2));
            assert_eq!(daemon.cancel(1), Ok(JobStatus::Cancelled));
            assert_eq!(
                daemon.cancel(1),
                Err(CancelError::AlreadyTerminal(JobStatus::Cancelled)),
                "terminal jobs are absorbing"
            );
            assert_eq!(daemon.cancel(99), Err(CancelError::Unknown));
        }
        // A new process over the same root replays the journal.
        let daemon = Daemon::open(cfg, tiny_resolver()).unwrap();
        assert_eq!(daemon.log_skipped(), 0);
        let snaps = daemon.list();
        assert_eq!(snaps.len(), 2);
        assert_eq!(snaps[0].status, JobStatus::Cancelled);
        assert_eq!(snaps[1].status, JobStatus::Queued);
        assert_eq!(snaps[1].id, 2);
        let _ = fs::remove_dir_all(&dir);
    }

    /// Serves `daemon` on a background thread and waits for its socket.
    fn serve_in_background(daemon: &Arc<Daemon>) -> thread::JoinHandle<io::Result<()>> {
        let server = {
            let daemon = Arc::clone(daemon);
            thread::spawn(move || daemon.serve())
        };
        let deadline = Instant::now() + Duration::from_secs(10);
        while UnixStream::connect(&daemon.shared.cfg.socket).is_err() {
            assert!(Instant::now() < deadline, "daemon socket never appeared");
            thread::sleep(Duration::from_millis(10));
        }
        server
    }

    /// Event-driven waits end to end: a deadline trips a job that would
    /// run for hours, a later job starts without polling, and
    /// `shutdown` requeues it and stops `serve`.
    #[test]
    fn deadlines_trip_and_shutdown_requeues_the_running_job() {
        use std::io::BufRead as _;
        let dir = scratch("deadline");
        let cfg = DaemonConfig::new(dir.join("state"), dir.join("d.sock"));
        let daemon = Arc::new(Daemon::open(cfg.clone(), tiny_resolver()).unwrap());
        let server = serve_in_background(&daemon);
        let endless = |deadline_secs| MatrixSpec {
            invocations: 1_000_000_000_000,
            deadline_secs,
            ..MatrixSpec::default()
        };
        assert_eq!(daemon.submit(endless(1)), Ok(1));
        let mut stream = UnixStream::connect(&cfg.socket).unwrap();
        stream
            .write_all(b"{\"cmd\": \"watch\", \"job\": 1}\n")
            .unwrap();
        stream.shutdown(std::net::Shutdown::Write).unwrap();
        let last = BufReader::new(stream)
            .lines()
            .map(|l| parse_json(&l.unwrap()).expect("watch line parses"))
            .last()
            .expect("watch answers");
        assert_eq!(
            last.get("state").and_then(Json::as_str),
            Some("deadline_exceeded"),
            "{last:?}"
        );

        assert_eq!(daemon.submit(endless(600)), Ok(2));
        let started = Instant::now() + Duration::from_secs(10);
        while daemon.snapshot(2).unwrap().status != JobStatus::Running {
            assert!(Instant::now() < started, "job 2 never started");
            thread::sleep(Duration::from_millis(1));
        }
        daemon.shutdown();
        server.join().unwrap().unwrap();
        let snap = daemon.snapshot(2).unwrap();
        assert_eq!(snap.status, JobStatus::Queued);
        assert_eq!(snap.detail.as_deref(), Some("requeued by shutdown"));
        let _ = fs::remove_dir_all(&dir);
    }

    /// End-to-end over a real socket: serve, submit, watch to settled,
    /// fetch, drain — the in-process client half of the protocol.
    #[test]
    fn serve_runs_a_job_to_settled_and_drains() {
        use std::io::BufRead as _;
        let dir = scratch("serve");
        let sock = dir.join("d.sock");
        let cfg = DaemonConfig::new(dir.join("state"), &sock);
        let daemon = Arc::new(Daemon::open(cfg, tiny_resolver()).unwrap());
        let server = serve_in_background(&daemon);
        let stream = UnixStream::connect(&sock).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut out = stream;
        fn request(line: &str, out: &mut UnixStream, reader: &mut BufReader<UnixStream>) -> Json {
            use std::io::BufRead as _;
            out.write_all(line.as_bytes()).unwrap();
            out.write_all(b"\n").unwrap();
            let mut resp = String::new();
            reader.read_line(&mut resp).unwrap();
            parse_json(resp.trim()).expect("response parses")
        }
        let spec = MatrixSpec {
            invocations: 2,
            ..MatrixSpec::default()
        };
        let resp = request(
            &format!(
                "{{\"jobs\": \"nachos-jobs-v1\", \"cmd\": \"submit\", \"spec\": {}}}",
                spec.to_json()
            ),
            &mut out,
            &mut reader,
        );
        assert_eq!(resp.get("ok"), Some(&Json::Bool(true)), "{resp:?}");
        assert_eq!(resp.get("job").and_then(Json::as_u64), Some(1));
        // Watch streams until terminal; the last line must be settled.
        out.write_all(b"{\"cmd\": \"watch\", \"job\": 1}\n")
            .unwrap();
        let last_state = loop {
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            let v = parse_json(line.trim()).expect("watch line parses");
            let state = v.get("state").unwrap().as_str().unwrap().to_owned();
            if JobStatus::from_label(&state).unwrap().is_terminal() {
                break state;
            }
        };
        assert_eq!(last_state, "settled");
        let resp = request("{\"cmd\": \"fetch\", \"job\": 1}", &mut out, &mut reader);
        let report = resp.get("report").unwrap().as_str().unwrap();
        assert!(report.contains("nachos-sweep-v5"));
        // Malformed and unknown requests are answered, not fatal.
        let resp = request("{\"cmd\": \"status\", \"job\": 42}", &mut out, &mut reader);
        assert_eq!(
            resp.get("error").and_then(Json::as_str),
            Some("unknown_job")
        );
        let resp = request("not json", &mut out, &mut reader);
        assert_eq!(
            resp.get("error").and_then(Json::as_str),
            Some("bad_request")
        );
        // Drain: admission closes, the serve loop exits cleanly.
        let resp = request("{\"cmd\": \"drain\"}", &mut out, &mut reader);
        assert_eq!(resp.get("draining"), Some(&Json::Bool(true)));
        server.join().unwrap().unwrap();
        assert!(!sock.exists(), "the socket file is removed on exit");
        let _ = fs::remove_dir_all(&dir);
    }

    // -----------------------------------------------------------------
    // The explorer: the core under every interleaving of requests,
    // executor steps and crashes, within a bound
    // -----------------------------------------------------------------

    /// What the explorer's executor thread is doing.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    enum Exec {
        Idle,
        Running(u64),
        Parked,
    }

    #[derive(Clone, Copy, Debug)]
    enum Input {
        Submit,
        Claim,
        /// The claimed job's sweep returns.
        Finish,
        /// The claimed job fails to run.
        Quarantine,
        Cancel(u64),
        /// The clock passes every armed deadline.
        Tick,
        Drain,
        Shutdown,
        /// The process dies: a fresh core replays the recorded events
        /// and recovers.
        Crash,
    }

    const INPUTS: [Input; 11] = [
        Input::Submit,
        Input::Claim,
        Input::Finish,
        Input::Quarantine,
        Input::Cancel(1),
        Input::Cancel(2),
        Input::Cancel(3),
        Input::Tick,
        Input::Drain,
        Input::Shutdown,
        Input::Crash,
    ];

    /// The explored bound: at most this many jobs and inputs.
    const MAX_JOBS: u64 = 3;
    const MAX_INPUTS: usize = 10;

    /// The seven edges, stated apart from `JobStatus::can_transition`.
    const EDGES: [(JobStatus, JobStatus); 7] = [
        (JobStatus::Queued, JobStatus::Running),
        (JobStatus::Queued, JobStatus::Cancelled),
        (JobStatus::Running, JobStatus::Settled),
        (JobStatus::Running, JobStatus::Cancelled),
        (JobStatus::Running, JobStatus::Quarantined),
        (JobStatus::Running, JobStatus::DeadlineExceeded),
        (JobStatus::Running, JobStatus::Queued),
    ];

    /// One job's durable state: what the journal must reproduce.
    type Durable = (JobStatus, Option<String>, u64, u64);

    fn durable(st: &State) -> Vec<Durable> {
        st.jobs
            .iter()
            .map(|e| {
                (
                    e.view.status,
                    e.view.detail.clone(),
                    e.view.mismatches,
                    e.view.degraded,
                )
            })
            .collect()
    }

    /// Replays recorded events by the test's own rules: ids in
    /// sequence, and every transition one of [`EDGES`].
    fn model(events: &[JobEvent]) -> Vec<Durable> {
        let mut jobs: Vec<Durable> = Vec::new();
        for ev in events {
            match ev {
                JobEvent::Submitted { job, .. } => {
                    assert_eq!(*job, jobs.len() as u64 + 1, "journaled id out of sequence");
                    jobs.push((JobStatus::Queued, None, 0, 0));
                }
                JobEvent::Transition {
                    job,
                    to,
                    detail,
                    mismatches,
                    degraded,
                } => {
                    let j = &mut jobs[*job as usize - 1];
                    assert!(EDGES.contains(&(j.0, *to)), "journaled {} -> {to}", j.0);
                    *j = (*to, detail.clone(), *mismatches, *degraded);
                }
            }
        }
        jobs
    }

    type Log = Arc<Mutex<Vec<JobEvent>>>;

    fn recorder(log: &Log) -> Box<dyn FnMut(&JobEvent) + Send> {
        let log = Arc::clone(log);
        Box::new(move |ev| log.lock().unwrap().push(ev.clone()))
    }

    /// One explored world: the core, the events its sink recorded, and
    /// the executor.
    struct World {
        st: State,
        log: Log,
        exec: Exec,
        /// A shutdown tripped the in-flight job first, so its run must
        /// requeue it. A client cancel or a deadline that tripped it
        /// earlier still decides: that outcome was already promised.
        requeue: bool,
    }

    impl World {
        fn events(&self) -> Vec<JobEvent> {
            self.log.lock().unwrap().clone()
        }

        /// A deep copy: tokens are copied by state, not shared, so the
        /// two worlds evolve apart.
        fn fork(&self) -> World {
            let log = Arc::new(Mutex::new(self.events()));
            let mut st = State::new(recorder(&log));
            st.draining = self.st.draining;
            st.stopping = self.st.stopping;
            st.jobs = self
                .st
                .jobs
                .iter()
                .map(|e| {
                    let cancel = CancelToken::new();
                    if e.cancel.is_cancelled() {
                        cancel.cancel();
                    }
                    JobEntry {
                        spec: e.spec.clone(),
                        view: e.view.clone(),
                        cancel,
                        ..*e
                    }
                })
                .collect();
            World {
                st,
                log,
                exec: self.exec,
                requeue: self.requeue,
            }
        }

        /// Everything a later input can tell apart.
        fn key(&self) -> String {
            let jobs: Vec<_> = self
                .st
                .jobs
                .iter()
                .map(|e| {
                    let control = (
                        e.cancel.is_cancelled(),
                        e.cancel_reason,
                        e.deadline.is_some(),
                    );
                    (&e.view, control)
                })
                .collect();
            let flags = (self.st.draining, self.st.stopping, self.exec, self.requeue);
            format!("{jobs:?} {flags:?}")
        }

        /// Applies `input` as the shell would, asserting what the input
        /// itself decides. Returns `false` when the input is not enabled.
        fn step(&mut self, input: Input, t0: Instant) -> bool {
            let mut cfg = DaemonConfig::new("root", "socket");
            cfg.capacity = 2;
            let st = &mut self.st;
            match input {
                Input::Submit => {
                    let id = st.jobs.len() as u64 + 1;
                    if id > MAX_JOBS {
                        return false;
                    }
                    let draining = st.draining;
                    let spec = MatrixSpec {
                        deadline_secs: id % 2,
                        ..MatrixSpec::default()
                    };
                    let admitted = st.admit(spec, 1, &cfg);
                    if draining {
                        assert_eq!(admitted, Err(SubmitError::Draining), "submit after drain");
                    }
                }
                Input::Claim => {
                    if self.exec != Exec::Idle {
                        return false;
                    }
                    let (draining, stopping, queued) = (st.draining, st.stopping, st.queued());
                    match st.claim(t0) {
                        Claim::Run(id, ..) => {
                            assert!(!stopping, "job {id} claimed after shutdown");
                            self.exec = Exec::Running(id);
                        }
                        Claim::Wait => return false,
                        Claim::Park => {
                            assert!(draining, "parked with admission open");
                            assert!(stopping || queued == 0, "drain parked with {queued} queued");
                            self.exec = Exec::Parked;
                        }
                    }
                }
                Input::Finish | Input::Quarantine => {
                    let Exec::Running(id) = self.exec else {
                        return false;
                    };
                    let end = match input {
                        Input::Finish => RunEnd::Swept {
                            mismatches: 1,
                            degraded: 2,
                            replayed: 0,
                            executed: 3,
                        },
                        _ => RunEnd::Failed("boom".to_owned()),
                    };
                    st.settle(id, end);
                    self.exec = Exec::Idle;
                    if std::mem::take(&mut self.requeue) {
                        let e = st.entry(id).unwrap();
                        assert_eq!(
                            (e.view.status, e.view.detail.as_deref()),
                            (JobStatus::Queued, Some("requeued by shutdown")),
                            "shutdown's in-flight job"
                        );
                    }
                }
                Input::Cancel(id) => {
                    let Some(before) = st.entry(id).map(|e| e.view.status) else {
                        return false;
                    };
                    let want = match before {
                        JobStatus::Queued => Ok(JobStatus::Cancelled),
                        JobStatus::Running => Ok(JobStatus::Running),
                        terminal => Err(CancelError::AlreadyTerminal(terminal)),
                    };
                    assert_eq!(st.cancel(id), want);
                }
                Input::Tick => {
                    st.tick(t0 + Duration::from_secs(3600));
                }
                Input::Drain => {
                    if st.draining {
                        return false;
                    }
                    st.drain();
                }
                Input::Shutdown => {
                    if st.stopping {
                        return false;
                    }
                    self.requeue = match self.exec {
                        Exec::Running(id) => !st.entry(id).unwrap().cancel.is_cancelled(),
                        Exec::Idle | Exec::Parked => false,
                    };
                    st.shutdown();
                }
                Input::Crash => {
                    let mut fresh = State::new(Box::new(|_: &JobEvent| {}));
                    let events = self.log.lock().unwrap().clone();
                    for ev in events {
                        assert!(fresh.apply(ev), "a recorded event replays");
                    }
                    fresh.journal = recorder(&self.log);
                    fresh.recover();
                    let want: Vec<Durable> = durable(st)
                        .into_iter()
                        .map(|d| match d.0 {
                            JobStatus::Running => {
                                let detail = Some("recovered after restart".to_owned());
                                (JobStatus::Queued, detail, 0, 0)
                            }
                            _ => d,
                        })
                        .collect();
                    assert_eq!(durable(&fresh), want, "replay plus recovery");
                    self.st = fresh;
                    self.exec = Exec::Idle;
                    self.requeue = false;
                }
            }
            true
        }
    }

    /// The invariants that hold after every input, whatever it was.
    fn check(before: &[Durable], w: &World) {
        let now = durable(&w.st);
        assert_eq!(model(&w.events()), now, "in-memory state = journal replay");
        assert!(now.len() >= before.len());
        for (b, a) in before.iter().zip(&now) {
            if b.0.is_terminal() {
                assert_eq!(a, b, "a terminal job changed");
            }
        }
        let running: Vec<u64> = (1..=now.len() as u64)
            .filter(|&id| now[id as usize - 1].0 == JobStatus::Running)
            .collect();
        match w.exec {
            Exec::Running(id) => assert_eq!(running, [id], "only the claimed job runs"),
            Exec::Idle | Exec::Parked => assert!(running.is_empty(), "{running:?} run unclaimed"),
        }
    }

    /// Depth-first over every input order, memoized on the reached
    /// state and the inputs left to spend from it.
    fn explore(w: &World, left: usize, t0: Instant, seen: &mut HashMap<String, usize>) -> usize {
        let mut steps = 0;
        for input in INPUTS {
            let mut next = w.fork();
            let before = durable(&next.st);
            if !next.step(input, t0) {
                continue;
            }
            steps += 1;
            check(&before, &next);
            let key = next.key();
            if left == 1 || seen.get(&key).is_some_and(|&l| l >= left - 1) {
                continue;
            }
            seen.insert(key, left - 1);
            steps += explore(&next, left - 1, t0, seen);
        }
        steps
    }

    /// Every interleaving of up to ten submits, claims, finishes,
    /// quarantines, cancels, deadline ticks, drains, shutdowns and
    /// crashes over up to three jobs keeps the core's invariants: the
    /// table equals the replay of what was journaled, only the seven
    /// edges are journaled, a crash recovers the durable state with
    /// `running` requeued, terminal jobs never change, a drain refuses
    /// submits and parks only on an empty queue, and a shutdown claims
    /// nothing more and requeues its in-flight job.
    #[test]
    fn core_keeps_its_invariants_over_every_interleaving() {
        let t0 = Instant::now();
        let log = Log::default();
        let root = World {
            st: State::new(recorder(&log)),
            log,
            exec: Exec::Idle,
            requeue: false,
        };
        let mut seen = HashMap::new();
        let steps = explore(&root, MAX_INPUTS, t0, &mut seen);
        for reached in [
            "Settled",
            "Cancelled",
            "Quarantined",
            "DeadlineExceeded",
            "requeued by shutdown",
            "recovered after restart",
        ] {
            assert!(
                seen.keys().any(|k| k.contains(reached)),
                "{reached} never reached"
            );
        }
        eprintln!("explored {} states over {steps} steps", seen.len());
    }
}
