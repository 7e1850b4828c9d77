//! The crash-safe sweep job service behind `nachos-sweepd`.
//!
//! One-shot sweeps (journaled, sharded, cached) already survive kills;
//! this module promotes that discipline to a *resident* process: a
//! long-running daemon that accepts sweep matrices over a Unix domain
//! socket, runs them through the same journaled harness, and hands
//! reports back — while surviving `kill -9`, enforcing deadlines and
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
//! Every transition is appended (checksum-framed, fsynced) to a durable
//! job journal before it is visible, and each job's cells run under its
//! own run [`Journal`] — so `kill -9` of the daemon loses nothing: on
//! restart the job journal replays, every job caught `running` is
//! requeued, its run journal replays the completed cells, and the
//! eventual report is byte-identical to an uninterrupted run. No
//! wall-clock value is ever journaled; deadlines live only in memory
//! and reduce to deterministic *statuses*.
//!
//! # Drain vs. shutdown
//!
//! `drain` closes admission and lets every already-admitted job run to
//! completion (its cells checkpoint continuously), then the daemon
//! exits 0. `shutdown` also closes admission but cancels the in-flight
//! job cooperatively and *requeues it durably* — the daemon exits 0
//! immediately with a journal a future restart resumes from.

use super::journal::{
    file_lacks_final_newline, read_bounded_line, BoundedLine, Journal, MAX_RECORD_LEN,
};
use super::{run_sweep_journaled, RunStatus, SweepConfig, SweepJob};
use crate::config::CancelToken;
use crate::json::{checksum_frame, checksum_unframe, parse_json, write_atomic, Json, JsonWriter};
use std::fs::{self, File, OpenOptions};
use std::io::{self, BufReader, Write as _};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
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
    /// Per-cell cycle-budget override as `(base_cycles,
    /// cycles_per_node)` for the engine watchdog (`None` = defaults).
    /// Unlike the deadline this *is* matrix content: it changes
    /// simulated behavior and therefore run fingerprints.
    pub watchdog: Option<(u64, u64)>,
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
            watchdog: None,
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
        if let Some((base, per_node)) = self.watchdog {
            w.key("watchdog");
            w.open_obj();
            w.u64_field("base_cycles", base);
            w.u64_field("cycles_per_node", per_node);
            w.close_obj();
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
        if let Some(wd) = v.get("watchdog") {
            spec.watchdog = Some((
                wd.get("base_cycles")?.as_u64()?,
                wd.get("cycles_per_node")?.as_u64()?,
            ));
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
}

/// Append handle for the durable job journal: one framed line per
/// event, flushed and fsynced before a transition becomes visible.
#[derive(Debug)]
struct JobLog {
    file: File,
}

impl JobLog {
    fn append(&mut self, ev: &JobEvent) -> io::Result<()> {
        self.file.write_all(ev.to_line().as_bytes())?;
        self.file.flush()?;
        self.file.sync_data()
    }
}

/// Loads the job journal (bounded reads, checksum verification, skip +
/// count on any damage) and reopens it for appending, repairing a torn
/// tail exactly like [`Journal::resume`].
fn load_job_log(path: &Path) -> io::Result<(JobLog, Vec<JobEvent>, usize)> {
    let mut events = Vec::new();
    let mut skipped = 0usize;
    let mut torn_tail = false;
    match File::open(path) {
        Ok(f) => {
            let mut reader = BufReader::new(f);
            let mut buf = Vec::new();
            loop {
                match read_bounded_line(&mut reader, &mut buf, MAX_RECORD_LEN)? {
                    BoundedLine::Eof => break,
                    BoundedLine::Oversized { .. } => {
                        skipped += 1;
                        continue;
                    }
                    BoundedLine::Line => {}
                }
                let Ok(line) = std::str::from_utf8(&buf) else {
                    skipped += 1;
                    continue;
                };
                let line = line.trim();
                if line.is_empty() {
                    continue;
                }
                let parsed = checksum_unframe(line)
                    .ok()
                    .and_then(parse_json)
                    .as_ref()
                    .and_then(JobEvent::from_payload);
                match parsed {
                    Some(ev) => events.push(ev),
                    None => skipped += 1,
                }
            }
            torn_tail = file_lacks_final_newline(path)?;
        }
        Err(e) if e.kind() == io::ErrorKind::NotFound => {}
        Err(e) => return Err(e),
    }
    let mut file = OpenOptions::new().create(true).append(true).open(path)?;
    if torn_tail {
        file.write_all(b"\n")?;
        file.flush()?;
    }
    Ok((JobLog { file }, events, skipped))
}

// ---------------------------------------------------------------------
// The daemon
// ---------------------------------------------------------------------

/// Why a submitted job was cancelled mid-run. Runtime control only —
/// never journaled; the classification reduces to a terminal
/// [`JobStatus`] (or a durable requeue) when the executor observes it.
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
    /// Internal poll cadence (accept loop, deadline checks, watch
    /// streams). Liveness only; never observable in journaled bytes.
    pub poll: Duration,
}

impl DaemonConfig {
    /// A config with the default capacity (16), retry hint (500 ms)
    /// and poll cadence (25 ms).
    pub fn new(root: impl Into<PathBuf>, socket: impl Into<PathBuf>) -> Self {
        Self {
            root: root.into(),
            socket: socket.into(),
            capacity: 16,
            retry_after_ms: 500,
            poll: Duration::from_millis(25),
        }
    }
}

/// One job's bookkeeping. `cancel`, `cancel_reason` and `deadline` are
/// runtime control; `replayed`/`executed` are diagnostics — none of
/// them are journaled.
#[derive(Debug)]
struct JobEntry {
    spec: MatrixSpec,
    status: JobStatus,
    detail: Option<String>,
    mismatches: u64,
    degraded: u64,
    replayed: u64,
    executed: u64,
    cancel: CancelToken,
    cancel_reason: Option<CancelReason>,
    deadline: Option<Instant>,
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

struct State {
    log: JobLog,
    jobs: Vec<JobEntry>,
    log_skipped: usize,
    /// Admission closed (drain or shutdown).
    draining: bool,
    /// Executor must stop after requeueing the in-flight job.
    stopping: bool,
}

struct Shared {
    cfg: DaemonConfig,
    resolver: MatrixResolver,
    state: Mutex<State>,
    executor_done: AtomicBool,
    threads_done: AtomicBool,
}

/// The job service. See the module docs for the protocol and the
/// durability contract. All state-mutating paths funnel through one
/// validated transition function under one lock, so concurrent clients
/// (or a client racing the executor) can never produce an illegal
/// state-machine edge.
pub struct Daemon {
    shared: Arc<Shared>,
}

impl Shared {
    fn lock(&self) -> MutexGuard<'_, State> {
        // A poisoned lock means a panic mid-transition; the in-memory
        // state is still consistent (transitions apply atomically under
        // the guard), so recover the guard rather than wedging every
        // client thread.
        match self.state.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    fn runs_path(&self, id: u64) -> PathBuf {
        self.cfg.root.join(format!("job-{id:04}.runs.jsonl"))
    }

    fn report_path(&self, id: u64) -> PathBuf {
        self.cfg.root.join(format!("job-{id:04}.report.json"))
    }
}

/// Applies (and journals) one state-machine edge. Returns `false` —
/// changing nothing — when the edge is illegal or the job unknown.
fn transition(
    st: &mut State,
    id: u64,
    to: JobStatus,
    detail: Option<String>,
    mismatches: u64,
    degraded: u64,
) -> bool {
    let Some(entry) = job_index(id).and_then(|i| st.jobs.get_mut(i)) else {
        return false;
    };
    if !JobStatus::can_transition(entry.status, to) {
        return false;
    }
    let ev = JobEvent::Transition {
        job: id,
        to,
        detail: detail.clone(),
        mismatches,
        degraded,
    };
    // Durability before visibility: the journal line lands (fsynced)
    // before the in-memory state changes. If the append fails we still
    // apply the edge — a daemon that cannot write its journal keeps
    // serving, it just recovers less after the next crash.
    if let Err(e) = st.log.append(&ev) {
        eprintln!("job journal append failed: {e}");
    }
    entry.status = to;
    entry.detail = detail;
    entry.mismatches = mismatches;
    entry.degraded = degraded;
    true
}

fn job_index(id: u64) -> Option<usize> {
    (id >= 1).then(|| (id - 1) as usize)
}

fn snapshot_entry(id: u64, e: &JobEntry) -> JobSnapshot {
    JobSnapshot {
        id,
        status: e.status,
        detail: e.detail.clone(),
        mismatches: e.mismatches,
        degraded: e.degraded,
        replayed: e.replayed,
        executed: e.executed,
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
        let (log, events, log_skipped) = load_job_log(&cfg.root.join("jobs.jsonl"))?;
        let mut st = State {
            log,
            jobs: Vec::new(),
            log_skipped,
            draining: false,
            stopping: false,
        };
        for ev in events {
            match ev {
                JobEvent::Submitted { job, spec } => {
                    // Ids are assigned sequentially; a gap or repeat is
                    // journal damage — skip and count, like a bad line.
                    if job == st.jobs.len() as u64 + 1 {
                        st.jobs.push(JobEntry {
                            spec,
                            status: JobStatus::Queued,
                            detail: None,
                            mismatches: 0,
                            degraded: 0,
                            replayed: 0,
                            executed: 0,
                            cancel: CancelToken::new(),
                            cancel_reason: None,
                            deadline: None,
                        });
                    } else {
                        st.log_skipped += 1;
                    }
                }
                JobEvent::Transition {
                    job,
                    to,
                    detail,
                    mismatches,
                    degraded,
                } => {
                    let applied = job_index(job)
                        .and_then(|i| st.jobs.get_mut(i))
                        .filter(|e| JobStatus::can_transition(e.status, to))
                        .map(|e| {
                            e.status = to;
                            e.detail = detail;
                            e.mismatches = mismatches;
                            e.degraded = degraded;
                        });
                    if applied.is_none() {
                        st.log_skipped += 1;
                    }
                }
            }
        }
        // Jobs the dead process left mid-run resume from their own run
        // journals; the requeue edge is journaled like any other.
        let running: Vec<u64> = st
            .jobs
            .iter()
            .enumerate()
            .filter(|(_, e)| e.status == JobStatus::Running)
            .map(|(i, _)| i as u64 + 1)
            .collect();
        for id in running {
            transition(
                &mut st,
                id,
                JobStatus::Queued,
                Some("recovered after restart".to_owned()),
                0,
                0,
            );
        }
        Ok(Daemon {
            shared: Arc::new(Shared {
                cfg,
                resolver,
                state: Mutex::new(st),
                executor_done: AtomicBool::new(false),
                threads_done: AtomicBool::new(false),
            }),
        })
    }

    /// Admits one job (resolving the spec first so a bad spec never
    /// occupies a queue slot), or rejects it with the structured
    /// backpressure contract.
    ///
    /// # Errors
    ///
    /// [`SubmitError`] on a closed queue, a full queue, or a spec that
    /// does not resolve.
    pub fn submit(&self, spec: MatrixSpec) -> Result<u64, SubmitError> {
        if let Err(e) = (self.shared.resolver)(&spec) {
            return Err(SubmitError::BadSpec(e));
        }
        let mut st = self.shared.lock();
        if st.draining {
            return Err(SubmitError::Draining);
        }
        let queued = st
            .jobs
            .iter()
            .filter(|e| e.status == JobStatus::Queued)
            .count();
        if queued >= self.shared.cfg.capacity {
            return Err(SubmitError::QueueFull {
                queued,
                retry_after_ms: self.shared.cfg.retry_after_ms,
            });
        }
        let id = st.jobs.len() as u64 + 1;
        let ev = JobEvent::Submitted {
            job: id,
            spec: spec.clone(),
        };
        if let Err(e) = st.log.append(&ev) {
            eprintln!("job journal append failed: {e}");
        }
        st.jobs.push(JobEntry {
            spec,
            status: JobStatus::Queued,
            detail: None,
            mismatches: 0,
            degraded: 0,
            replayed: 0,
            executed: 0,
            cancel: CancelToken::new(),
            cancel_reason: None,
            deadline: None,
        });
        Ok(id)
    }

    /// A point-in-time view of one job.
    #[must_use]
    pub fn snapshot(&self, id: u64) -> Option<JobSnapshot> {
        let st = self.shared.lock();
        job_index(id)
            .and_then(|i| st.jobs.get(i))
            .map(|e| snapshot_entry(id, e))
    }

    /// Snapshots of every job, in submission order.
    #[must_use]
    pub fn list(&self) -> Vec<JobSnapshot> {
        let st = self.shared.lock();
        st.jobs
            .iter()
            .enumerate()
            .map(|(i, e)| snapshot_entry(i as u64 + 1, e))
            .collect()
    }

    /// Jobs currently waiting in the admission queue.
    #[must_use]
    pub fn queued(&self) -> usize {
        self.shared
            .lock()
            .jobs
            .iter()
            .filter(|e| e.status == JobStatus::Queued)
            .count()
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
        let mut st = self.shared.lock();
        let entry = job_index(id)
            .and_then(|i| st.jobs.get_mut(i))
            .ok_or(CancelError::Unknown)?;
        match entry.status {
            JobStatus::Queued => {
                transition(&mut st, id, JobStatus::Cancelled, None, 0, 0);
                Ok(JobStatus::Cancelled)
            }
            JobStatus::Running => {
                if entry.cancel_reason.is_none() {
                    entry.cancel_reason = Some(CancelReason::Client);
                }
                entry.cancel.cancel();
                Ok(JobStatus::Running)
            }
            terminal => Err(CancelError::AlreadyTerminal(terminal)),
        }
    }

    /// Closes admission and lets every admitted job finish; the serve
    /// loop exits 0 once the queue is empty and nothing is running.
    pub fn drain(&self) {
        self.shared.lock().draining = true;
    }

    /// Closes admission, cooperatively cancels the in-flight job (it is
    /// requeued durably — a restart resumes it from its run journal)
    /// and stops the serve loop as soon as the executor parks.
    pub fn shutdown(&self) {
        let mut st = self.shared.lock();
        st.draining = true;
        st.stopping = true;
        for e in st
            .jobs
            .iter_mut()
            .filter(|e| e.status == JobStatus::Running)
        {
            if e.cancel_reason.is_none() {
                e.cancel_reason = Some(CancelReason::Shutdown);
            }
            e.cancel.cancel();
        }
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
    /// the executor and deadline-watch threads, accepts clients on a
    /// non-blocking listener (one handler thread per connection), and
    /// returns once the executor has parked. A stale socket file from a
    /// killed predecessor is replaced.
    ///
    /// # Errors
    ///
    /// Propagates socket binding errors; serving errors on individual
    /// connections are contained to their handler.
    pub fn serve(&self) -> io::Result<()> {
        let _ = fs::remove_file(&self.shared.cfg.socket);
        let listener = UnixListener::bind(&self.shared.cfg.socket)?;
        listener.set_nonblocking(true)?;
        let exec = {
            let shared = Arc::clone(&self.shared);
            thread::spawn(move || executor(&shared))
        };
        let watch = {
            let shared = Arc::clone(&self.shared);
            thread::spawn(move || deadline_watch(&shared))
        };
        loop {
            match listener.accept() {
                Ok((stream, _)) => {
                    let shared = Arc::clone(&self.shared);
                    thread::spawn(move || handle_client(&shared, stream));
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    if self.shared.executor_done.load(Ordering::SeqCst) {
                        break;
                    }
                    thread::sleep(self.shared.cfg.poll);
                }
                Err(_) => thread::sleep(self.shared.cfg.poll),
            }
        }
        self.shared.threads_done.store(true, Ordering::SeqCst);
        let _ = exec.join();
        let _ = watch.join();
        let _ = fs::remove_file(&self.shared.cfg.socket);
        Ok(())
    }
}

// ---------------------------------------------------------------------
// Executor and deadline watch
// ---------------------------------------------------------------------

fn executor(shared: &Arc<Shared>) {
    enum Next {
        Run(u64),
        Sleep,
        Exit,
    }
    loop {
        let next = {
            let st = shared.lock();
            if st.stopping {
                Next::Exit
            } else if let Some(id) = st
                .jobs
                .iter()
                .position(|e| e.status == JobStatus::Queued)
                .map(|i| i as u64 + 1)
            {
                Next::Run(id)
            } else if st.draining {
                // Drained: admission is closed and the queue is empty.
                Next::Exit
            } else {
                Next::Sleep
            }
        };
        match next {
            Next::Exit => break,
            Next::Sleep => thread::sleep(shared.cfg.poll),
            Next::Run(id) => run_job(shared, id),
        }
    }
    shared.executor_done.store(true, Ordering::SeqCst);
}

fn run_job(shared: &Arc<Shared>, id: u64) {
    // Phase 1 (under the lock): claim the job, arm a fresh token and
    // the wall-clock deadline.
    let (spec, token) = {
        let mut st = shared.lock();
        let Some(entry) = job_index(id).and_then(|i| st.jobs.get_mut(i)) else {
            return;
        };
        if entry.status != JobStatus::Queued {
            return; // cancelled between scheduling and claiming
        }
        entry.cancel = CancelToken::new();
        entry.cancel_reason = None;
        entry.deadline = (entry.spec.deadline_secs > 0)
            .then(|| Instant::now() + Duration::from_secs(entry.spec.deadline_secs));
        let spec = entry.spec.clone();
        let token = entry.cancel.clone();
        transition(&mut st, id, JobStatus::Running, None, 0, 0);
        (spec, token)
    };

    let quarantine = |detail: String| {
        let mut st = shared.lock();
        if let Some(e) = job_index(id).and_then(|i| st.jobs.get_mut(i)) {
            e.deadline = None;
        }
        transition(&mut st, id, JobStatus::Quarantined, Some(detail), 0, 0);
    };

    // Phase 2 (no lock): resolve and run. The per-job run journal makes
    // the work itself crash-recoverable; `Journal::resume` replays any
    // cells a previous incarnation completed.
    let (jobs, mut cfg) = match (shared.resolver)(&spec) {
        Ok(r) => r,
        Err(e) => return quarantine(format!("spec failed to resolve: {e}")),
    };
    cfg.sim.cancel = Some(token.clone());
    let journal = match Journal::resume(shared.runs_path(id)) {
        Ok(j) => j,
        Err(e) => return quarantine(format!("run journal unavailable: {e}")),
    };
    let (sweep, stats) = run_sweep_journaled(&jobs, &cfg, Some(&journal));

    // Phase 3: classify. Report bytes land on disk (atomically) before
    // the settle edge is journaled — a crash between the two replays
    // the journal-complete job cheaply and rewrites the identical
    // report.
    let cancelled = token.is_cancelled();
    let mut report = None;
    let (to, detail, mismatches, degraded) = if cancelled {
        let reason = {
            let st = shared.lock();
            job_index(id)
                .and_then(|i| st.jobs.get(i))
                .and_then(|e| e.cancel_reason)
                .unwrap_or(CancelReason::Client)
        };
        match reason {
            CancelReason::Shutdown => (
                JobStatus::Queued,
                Some("requeued by shutdown".to_owned()),
                0,
                0,
            ),
            CancelReason::Deadline => (
                JobStatus::DeadlineExceeded,
                Some(format!(
                    "wall-clock budget of {}s exhausted",
                    spec.deadline_secs
                )),
                0,
                0,
            ),
            CancelReason::Client => (JobStatus::Cancelled, None, 0, 0),
        }
    } else {
        let statuses = sweep.statuses();
        let mismatches = statuses
            .iter()
            .filter(|(_, _, s)| *s == RunStatus::Mismatch)
            .count() as u64;
        let degraded = statuses
            .iter()
            .filter(|(_, _, s)| !matches!(*s, RunStatus::Ok | RunStatus::Mismatch))
            .count() as u64;
        report = Some(sweep.to_json());
        (JobStatus::Settled, None, mismatches, degraded)
    };
    if let Some(json) = &report {
        if let Err(e) = write_atomic(&shared.report_path(id), json) {
            return quarantine(format!("report write failed: {e}"));
        }
    }
    let mut st = shared.lock();
    if let Some(e) = job_index(id).and_then(|i| st.jobs.get_mut(i)) {
        e.deadline = None;
        e.replayed = stats.replayed as u64;
        e.executed = stats.executed as u64;
    }
    transition(&mut st, id, to, detail, mismatches, degraded);
}

fn deadline_watch(shared: &Arc<Shared>) {
    while !shared.threads_done.load(Ordering::SeqCst) {
        thread::sleep(shared.cfg.poll);
        let now = Instant::now();
        let mut st = shared.lock();
        for e in st
            .jobs
            .iter_mut()
            .filter(|e| e.status == JobStatus::Running)
        {
            if e.deadline.is_some_and(|d| now >= d) && !e.cancel.is_cancelled() {
                if e.cancel_reason.is_none() {
                    e.cancel_reason = Some(CancelReason::Deadline);
                }
                e.cancel.cancel();
            }
        }
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
/// connection; job state only ever changes through the validated
/// transition path.
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
            let mut r = Response::err("bad_request");
            r.w.str_field("detail", "request is not a JSON object");
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
        let mut r = Response::err("bad_request");
        r.w.str_field("detail", "missing cmd");
        return r.send(out);
    };
    let job_id = req.get("job").and_then(Json::as_u64);
    match cmd {
        "submit" => {
            let Some(spec) = req.get("spec").and_then(MatrixSpec::from_json) else {
                let mut r = Response::err("bad_request");
                r.w.str_field("detail", "submit requires a spec object");
                return r.send(out);
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
                    let mut r = Response::err("bad_spec");
                    r.w.str_field("detail", &detail);
                    r.send(out)
                }
            }
        }
        "status" | "watch" | "fetch" | "cancel" => {
            let Some(id) = job_id else {
                let mut r = Response::err("bad_request");
                r.w.str_field("detail", "missing job id");
                return r.send(out);
            };
            match cmd {
                "status" => match daemon.snapshot(id) {
                    Some(snap) => {
                        let mut r = Response::new(true);
                        snapshot_fields(&mut r, &snap);
                        r.send(out)
                    }
                    None => unknown_job(id, out),
                },
                "watch" => {
                    let mut last = None;
                    loop {
                        let Some(snap) = daemon.snapshot(id) else {
                            return unknown_job(id, out);
                        };
                        if last.as_ref() != Some(&snap.status) {
                            last = Some(snap.status);
                            let mut r = Response::new(true);
                            snapshot_fields(&mut r, &snap);
                            r.send(out)?;
                        }
                        if snap.status.is_terminal() {
                            return Ok(());
                        }
                        thread::sleep(shared.cfg.poll);
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
                        Err(e) => {
                            let mut r = Response::err("report_unavailable");
                            r.w.str_field("detail", &e.to_string());
                            r.send(out)
                        }
                    }
                }
                _ => match daemon.cancel(id) {
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
            }
        }
        "list" => {
            let snaps = daemon.list();
            let queued = snaps
                .iter()
                .filter(|s| s.status == JobStatus::Queued)
                .count();
            let running = snaps
                .iter()
                .filter(|s| s.status == JobStatus::Running)
                .count();
            let mut r = Response::new(true);
            r.w.u64_field("queued", queued as u64);
            r.w.u64_field("running", running as u64);
            r.w.u64_field("log_skipped", daemon.log_skipped() as u64);
            r.w.key("entries");
            r.w.open_arr();
            for snap in &snaps {
                r.w.open_obj();
                r.w.u64_field("job", snap.id);
                r.w.str_field("state", snap.status.as_str());
                r.w.close_obj();
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
        "drain" => {
            daemon.drain();
            let mut r = Response::new(true);
            r.w.bool_field("draining", true);
            r.w.u64_field("queued", daemon.queued() as u64);
            r.send(out)
        }
        "shutdown" => {
            daemon.shutdown();
            let mut r = Response::new(true);
            r.w.bool_field("stopping", true);
            r.send(out)
        }
        other => {
            let mut r = Response::err("bad_request");
            r.w.str_field("detail", &format!("unknown cmd {other:?}"));
            r.send(out)
        }
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
            watchdog: Some((5_000, 700)),
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
            let (mut log, loaded, skipped) = load_job_log(&path).unwrap();
            assert!(loaded.is_empty());
            assert_eq!(skipped, 0);
            for ev in &events {
                log.append(ev).unwrap();
            }
        }
        // Damage: a foreign line, then a torn tail.
        {
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            f.write_all(b"garbage line\n").unwrap();
            f.write_all(b"ffffffffffffffff {\"jobd\": \"nachos-jobd")
                .unwrap();
        }
        let (mut log, loaded, skipped) = load_job_log(&path).unwrap();
        assert_eq!(loaded, events);
        assert_eq!(skipped, 2, "foreign line and torn tail both counted");
        // The torn tail was newline-repaired: a post-crash append parses.
        log.append(&events[0]).unwrap();
        drop(log);
        let (_, loaded, _) = load_job_log(&path).unwrap();
        assert_eq!(loaded.len(), events.len() + 1);
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

    /// End-to-end over a real socket: serve, submit, watch to settled,
    /// fetch, drain — the in-process client half of the protocol.
    #[test]
    fn serve_runs_a_job_to_settled_and_drains() {
        use std::io::BufRead as _;
        let dir = scratch("serve");
        let sock = dir.join("d.sock");
        let cfg = DaemonConfig::new(dir.join("state"), &sock);
        let daemon = Arc::new(Daemon::open(cfg, tiny_resolver()).unwrap());
        let server = {
            let daemon = Arc::clone(&daemon);
            thread::spawn(move || daemon.serve())
        };
        // Wait for the socket to appear.
        let deadline = Instant::now() + Duration::from_secs(10);
        let stream = loop {
            match UnixStream::connect(&sock) {
                Ok(s) => break s,
                Err(_) if Instant::now() < deadline => thread::sleep(Duration::from_millis(10)),
                Err(e) => panic!("daemon socket never appeared: {e}"),
            }
        };
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
        assert!(report.contains("nachos-sweep-v4"));
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
}
