//! Process-isolated sharded sweep execution.
//!
//! [`super::run_sweep_journaled`] survives any failure the in-process
//! `catch_unwind` boundary can contain — but an abort, an OOM kill, a
//! stack overflow or a segfault in any one cell still takes down the
//! whole orchestrator. This module promotes the journaled sweep into a
//! supervisor/worker architecture where each failure domain is an OS
//! process:
//!
//! * the **supervisor** ([`run_sweep_sharded`]) partitions the
//!   job×variant cell matrix into `N` shards by [`RunKey`] and spawns
//!   one **worker process** per shard (the `sweep` bin re-invoked with
//!   `--shard-exec`); cells are streamed to the worker over stdin as
//!   JSON lines and results land in a per-shard journal;
//! * the **worker** ([`run_shard_worker`]) rebuilds the identical job
//!   list from its own CLI flags, checks every dispatched [`Cell`] against
//!   its own cell list (a mismatch is a protocol error, not silent wrong
//!   work), executes cells through the same job runner as the in-process
//!   sweep, and interleaves checksum-framed [`Heartbeat`] lines with its
//!   records so the journal doubles as a liveness channel;
//! * a worker that **dies** (SIGKILL, abort, OOM) or goes **silent**
//!   past the silence budget is killed and respawned under a bounded,
//!   deterministically-seeded backoff schedule ([`backoff_delay`]); the
//!   cell in flight at the time of death — identified from the last
//!   `start` heartbeat without a matching record — is charged a strike,
//!   and a cell that keeps killing workers is quarantined by the
//!   supervisor instead of wedging the campaign.
//!
//! # Determinism contract
//!
//! Wall-clock time drives **liveness decisions only** — silence kills,
//! backoff delays, cancellation grace. Nothing time-derived is ever
//! written to a journal record or a report byte. After all shards
//! settle, the supervisor absorbs every recovered record into the
//! single merged journal and runs the ordinary in-process
//! [`super::run_sweep_journaled`] over it: recorded cells replay
//! byte-exactly and any cell no worker completed (respawn budget
//! exhausted, hostile cell) executes inline. The final `nachos-sweep-v5`
//! report is therefore **byte-identical** to a single-process run of
//! the same matrix, for any shard count, worker death or resume
//! history.
//!
//! # Cancellation
//!
//! The workspace is std-only, so workers install no signal handlers;
//! cooperative cancellation travels over the same stdin pipe as the
//! cells (a `{"cancel":true}` line), and a worker treats stdin EOF as
//! cancel — a supervisor that dies takes its pipe with it, so orphaned
//! workers wind down instead of running unsupervised. The supervisor
//! escalates to SIGKILL (`Child::kill`) after a grace period, and its
//! worker slots kill their children on drop, so no exit path leaks
//! processes.

use super::cache::{CacheCounters, CacheLookup, ResultCache};
use super::heartbeat::{Heartbeat, HeartbeatPhase, Pulse};
use super::journal::{self, read_bounded_line, BoundedLine, Journal, LineError};
use super::journal::{RunKey, RunRecord, MAX_RECORD_LEN};
use super::{job_cells, run_cells, unrun_record};
use super::{RunStatus, SweepConfig, SweepJob, SweepResult, SweepStats};
use crate::engine::SimArena;
use crate::json::{parse_json, Json, JsonWriter};
use std::collections::{BTreeMap, HashMap};
use std::fs::{self, File};
use std::io::{self, BufReader, Read, Write as _};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::mpsc::{self, Sender};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Dispatch header schema tag; bump when the stdin wire format changes
/// so a mismatched supervisor/worker pair fails loudly instead of
/// misreading cells.
pub const SHARD_SCHEMA: &str = "nachos-shard-v1";

const END_LINE: &str = "{\"end\":true}\n";
const CANCEL_LINE: &str = "{\"cancel\":true}\n";

/// Monitor tick while a worker has closed its stdout but cannot be
/// reaped yet: the kernel closes a dying process's files a moment before
/// it becomes waitable.
const REAP_TICK: Duration = Duration::from_millis(1);

/// How long a cancelled worker gets to wind down cooperatively before
/// SIGKILL.
const GRACE: Duration = Duration::from_millis(500);

// ---------------------------------------------------------------------
// Cells and partitioning
// ---------------------------------------------------------------------

/// One dispatchable unit: a `(job, variant)` coordinate plus its content
/// key. The indexes address the supervisor's and the worker's *identical*
/// job/variant lists; the key lets the worker verify that identity.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Cell {
    /// Index into the job list.
    pub job: usize,
    /// Index into [`SweepConfig::variants`].
    pub variant: usize,
    /// Content hash of the cell's inputs.
    pub key: RunKey,
}

/// Enumerates every cell of the job×variant matrix with its [`RunKey`],
/// in (job, variant) order — exactly the keys [`super::run_sweep`] would
/// compute for the same inputs.
#[must_use]
pub fn enumerate_cells(jobs: &[SweepJob], cfg: &SweepConfig) -> Vec<Cell> {
    let per_job = jobs
        .iter()
        .enumerate()
        .map(|(i, job)| job_cells(i, job, cfg));
    per_job.flatten().collect()
}

/// The shard a key belongs to, for a given shard count. Pure key
/// arithmetic: the same key lands in a stable shard for a fixed count,
/// and resuming with a *different* count is safe because completed work
/// is matched by key, never by shard.
#[must_use]
pub fn shard_of(key: RunKey, shards: usize) -> usize {
    (key.0 % shards.max(1) as u64) as usize
}

/// The directory holding per-shard journals for a merged journal at
/// `journal_path`: the sibling `<file-name>.d`.
#[must_use]
pub fn shard_dir(journal_path: &Path) -> PathBuf {
    let mut name = journal_path
        .file_name()
        .map_or_else(|| std::ffi::OsString::from("journal"), ToOwned::to_owned);
    name.push(".d");
    journal_path.with_file_name(name)
}

/// The journal path for shard `index` inside `dir`.
#[must_use]
pub fn shard_journal_path(dir: &Path, index: usize) -> PathBuf {
    dir.join(format!("shard-{index:04}.jsonl"))
}

/// The deterministic delay before respawn attempt `respawn` (1-based) of
/// shard `shard`: bounded exponential growth plus a splitmix64-seeded
/// jitter so simultaneous shard deaths don't respawn in lockstep. Pure
/// function of its arguments — the *schedule* is deterministic even
/// though the deaths it answers are not. Liveness only; never reported.
#[must_use]
pub fn backoff_delay(shard: usize, respawn: u32) -> Duration {
    let base_ms = 25u64 << respawn.min(6);
    let jitter = journal::splitmix64(((shard as u64) << 32) ^ u64::from(respawn)) % (base_ms / 4);
    Duration::from_millis(base_ms + jitter)
}

// ---------------------------------------------------------------------
// Wire format (supervisor → worker, over stdin)
// ---------------------------------------------------------------------

/// The parsed dispatch header a worker receives as its first stdin line.
#[derive(Clone, Debug, PartialEq, Eq)]
struct Dispatch {
    index: usize,
    journal: PathBuf,
    heartbeat_ms: u64,
}

fn header_line(index: usize, journal: &Path, heartbeat_ms: u64) -> String {
    let mut w = JsonWriter::compact();
    w.open_obj();
    w.str_field("shard", SHARD_SCHEMA);
    w.u64_field("index", index as u64);
    w.str_field("journal", &journal.display().to_string());
    w.u64_field("heartbeat_ms", heartbeat_ms);
    w.close_obj();
    let mut line = w.finish().trim_end_matches('\n').to_owned();
    line.push('\n');
    line
}

fn parse_header(line: &str) -> Option<Dispatch> {
    let v = parse_json(line.trim())?;
    if v.get("shard")?.as_str()? != SHARD_SCHEMA {
        return None;
    }
    Some(Dispatch {
        index: usize::try_from(v.get("index")?.as_u64()?).ok()?,
        journal: PathBuf::from(v.get("journal")?.as_str()?),
        heartbeat_ms: v.get("heartbeat_ms")?.as_u64()?,
    })
}

fn cell_line(cell: &Cell) -> String {
    let mut w = JsonWriter::compact();
    w.open_obj();
    w.key("cell");
    w.open_obj();
    w.u64_field("job", cell.job as u64);
    w.u64_field("variant", cell.variant as u64);
    w.str_field("key", &cell.key.to_string());
    w.close_obj();
    w.close_obj();
    let mut line = w.finish().trim_end_matches('\n').to_owned();
    line.push('\n');
    line
}

fn parse_cell(v: &Json) -> Option<Cell> {
    let c = v.get("cell")?;
    Some(Cell {
        job: usize::try_from(c.get("job")?.as_u64()?).ok()?,
        variant: usize::try_from(c.get("variant")?.as_u64()?).ok()?,
        key: RunKey::parse(c.get("key")?.as_str()?)?,
    })
}

// ---------------------------------------------------------------------
// Shard journal scanning (supervisor side)
// ---------------------------------------------------------------------

/// Everything one pass over a shard journal recovers: the intact
/// records, the cell in flight when the writer stopped (per the
/// heartbeat trail), and how many lines failed their checksum frame.
#[derive(Debug, Default)]
struct ShardScan {
    records: Vec<RunRecord>,
    in_flight: Option<RunKey>,
    corrupt: usize,
}

fn scan_shard_journal(path: &Path) -> io::Result<ShardScan> {
    let mut scan = ShardScan::default();
    let file = match File::open(path) {
        Ok(f) => f,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(scan),
        Err(e) => return Err(e),
    };
    let dropped = journal::read_log_lines(BufReader::new(file), |line| {
        match RunRecord::parse_line(line) {
            Ok(rec) => {
                if scan.in_flight == Some(rec.key) {
                    scan.in_flight = None;
                }
                scan.records.push(rec);
            }
            Err(LineError::Corrupt) => scan.corrupt += 1,
            Err(LineError::Unusable) => {
                // Heartbeats share the file; anything else unusable is
                // a torn tail and costs nothing (the record it would
                // have been was never acknowledged).
                if let Some(hb) = Heartbeat::from_line(line) {
                    match hb.phase {
                        HeartbeatPhase::Start => scan.in_flight = hb.cell,
                        HeartbeatPhase::Done => {
                            if scan.in_flight == hb.cell {
                                scan.in_flight = None;
                            }
                        }
                        HeartbeatPhase::Alive => {}
                    }
                }
            }
        }
    })?;
    scan.corrupt += dropped;
    Ok(scan)
}

// ---------------------------------------------------------------------
// The supervisor
// ---------------------------------------------------------------------

/// Configuration for [`run_sweep_sharded`].
#[derive(Clone, Debug)]
pub struct ShardConfig {
    /// Number of worker processes to partition the matrix across
    /// (clamped to ≥ 1).
    pub shards: usize,
    /// The worker process argv: `worker_cmd[0]` is the program (usually
    /// the current `sweep` binary with `--shard-exec`), the rest its
    /// arguments. The worker must rebuild the identical job list and
    /// [`SweepConfig`] from those arguments.
    pub worker_cmd: Vec<String>,
    /// The merged campaign journal. Per-shard journals live in the
    /// sibling [`shard_dir`].
    pub journal_path: PathBuf,
    /// Resume from an existing merged journal (and any leftover shard
    /// journals) instead of truncating.
    pub resume: bool,
    /// Optional cross-campaign result cache, probed before dispatch and
    /// repopulated after the merge.
    pub cache: Option<ResultCache>,
    /// Worker heartbeat interval (zero disables the worker pulse
    /// thread; `start`/`done` beats still flow).
    pub heartbeat: Duration,
    /// Kill a live worker whose shard journal has not grown for this
    /// long (zero disables silence kills — exit status still covers
    /// death).
    pub silence_budget: Duration,
    /// Respawn budget per shard; a shard that exhausts it hands its
    /// remaining cells to the inline final pass.
    pub max_respawns: u32,
    /// Fallback tick of the supervisor's monitor loop. The loop wakes at
    /// once when a worker exits (its stdout reaches EOF) and when a
    /// respawn falls due; the tick bounds how late the silence, backoff
    /// and cancel checks run, and covers a worker whose stdout outlives
    /// it (a grandchild holding the pipe).
    pub poll: Duration,
}

impl ShardConfig {
    /// A config with conventional liveness settings: 200 ms heartbeats,
    /// a 10 s silence budget and 4 respawns per shard.
    #[must_use]
    pub fn new(shards: usize, worker_cmd: Vec<String>, journal_path: impl Into<PathBuf>) -> Self {
        Self {
            shards,
            worker_cmd,
            journal_path: journal_path.into(),
            resume: false,
            cache: None,
            heartbeat: Duration::from_millis(200),
            silence_budget: Duration::from_secs(10),
            max_respawns: 4,
            poll: Duration::from_millis(20),
        }
    }
}

/// Orchestration counters from a sharded campaign. Diagnostics only —
/// none of this enters report bytes.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ShardStats {
    /// Shards the matrix was partitioned into.
    pub shards: usize,
    /// Worker processes spawned, including respawns.
    pub workers_spawned: usize,
    /// Respawns after a worker death or silence kill.
    pub respawns: usize,
    /// Cells streamed to workers (a respawned shard re-dispatches its
    /// remaining cells, so this can exceed the matrix size).
    pub dispatched: usize,
    /// Records recovered from shard journals into the merged journal.
    pub recovered: usize,
    /// Journal lines (records or heartbeats, any shard) dropped for
    /// failing their checksum frame.
    pub corrupt_lines: usize,
    /// Workers killed for journal silence.
    pub silent_kills: usize,
    /// Cells quarantined by the supervisor after repeatedly killing
    /// workers.
    pub quarantined: usize,
    /// Cells abandoned to the inline final pass after a shard's respawn
    /// budget ran out.
    pub abandoned: usize,
    /// Result-cache traffic.
    pub cache: CacheCounters,
}

/// One shard's slot in the supervisor: its pending work, its live child
/// (if any) and its liveness bookkeeping. Dropping the slot kills the
/// child, so no supervisor exit path — including panics and early `?`
/// returns — leaks a worker process.
struct WorkerSlot {
    shard: usize,
    journal_path: PathBuf,
    pending: Vec<Cell>,
    child: Option<(Child, Option<ChildStdin>)>,
    respawns: u32,
    respawn_at: Option<Instant>,
    last_len: u64,
    last_growth: Instant,
    finished: bool,
    /// When the live child's stdout reached EOF: it is exiting. (A late
    /// EOF from a reaped predecessor can only shorten ticks for a poll.)
    closed_at: Option<Instant>,
}

impl Drop for WorkerSlot {
    fn drop(&mut self) {
        if let Some((mut child, stdin)) = self.child.take() {
            drop(stdin);
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

impl WorkerSlot {
    fn spawn(
        &mut self,
        scfg: &ShardConfig,
        stats: &mut ShardStats,
        exits: &Sender<usize>,
    ) -> io::Result<()> {
        let mut cmd = Command::new(&scfg.worker_cmd[0]);
        cmd.args(&scfg.worker_cmd[1..])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit());
        let mut child = cmd.spawn()?;
        // The worker writes nothing to stdout; the pipe exists so that
        // its EOF — the worker's exit — wakes the monitor loop. Should
        // the drain thread fail to start, the fallback tick still reaps.
        if let Some(mut out) = child.stdout.take() {
            let (exits, shard) = (exits.clone(), self.shard);
            let _ = std::thread::Builder::new()
                .name(format!("shard-{}-stdout", self.shard))
                .spawn(move || {
                    let _ = io::copy(&mut out, &mut io::sink());
                    let _ = exits.send(shard);
                });
        }
        let mut stdin = child.stdin.take();
        if let Some(w) = stdin.as_mut() {
            // A worker that dies instantly closes the pipe; dispatch
            // errors are the monitor loop's problem, not ours.
            let _ = write_dispatch(w, self.shard, &self.journal_path, scfg, &self.pending);
        }
        stats.workers_spawned += 1;
        stats.dispatched += self.pending.len();
        self.child = Some((child, stdin));
        self.respawn_at = None;
        self.closed_at = None;
        self.last_len = fs::metadata(&self.journal_path).map_or(0, |m| m.len());
        self.last_growth = Instant::now();
        Ok(())
    }
}

fn write_dispatch(
    w: &mut ChildStdin,
    shard: usize,
    journal: &Path,
    scfg: &ShardConfig,
    cells: &[Cell],
) -> io::Result<()> {
    w.write_all(header_line(shard, journal, scfg.heartbeat.as_millis() as u64).as_bytes())?;
    for cell in cells {
        w.write_all(cell_line(cell).as_bytes())?;
    }
    w.write_all(END_LINE.as_bytes())?;
    w.flush()
}

/// Runs the sweep matrix across `shards` worker OS processes and returns
/// a report **byte-identical** to [`super::run_sweep_journaled`] on the
/// same inputs — see the module docs for the architecture and the
/// determinism contract.
///
/// # Errors
///
/// Propagates I/O errors from journal and cache management and from
/// spawning worker processes. Worker *deaths* are not errors — they are
/// the failure domain this exists to absorb.
///
/// # Panics
///
/// Panics only if a worker-slot invariant is violated (a slot claiming
/// work for a cell outside the matrix), which would be a bug here, not
/// an input condition.
pub fn run_sweep_sharded(
    jobs: &[SweepJob],
    cfg: &SweepConfig,
    scfg: &ShardConfig,
) -> io::Result<(SweepResult, SweepStats, ShardStats)> {
    if scfg.worker_cmd.is_empty() {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            "shard worker command is empty",
        ));
    }
    let shards = scfg.shards.max(1);
    let mut stats = ShardStats {
        shards,
        ..ShardStats::default()
    };
    let cells = enumerate_cells(jobs, cfg);
    let mut merged = if scfg.resume {
        Journal::resume(&scfg.journal_path)?
    } else {
        Journal::create(&scfg.journal_path)?
    };
    stats.corrupt_lines += merged.corrupt();

    let dir = shard_dir(&scfg.journal_path);
    fs::create_dir_all(&dir)?;
    // Per-file corruption counts: shard journals are re-scanned on every
    // worker exit, so the latest scan per file wins (counts in one file
    // only grow).
    let mut corrupt_by_file: HashMap<PathBuf, usize> = HashMap::new();

    // A resumed campaign may find shard journals from a crashed
    // supervisor — possibly from a different shard count. Absorb every
    // record they hold before partitioning; matching is by key, so the
    // old partition is irrelevant.
    if scfg.resume {
        let mut leftovers: Vec<PathBuf> = fs::read_dir(&dir)?
            .filter_map(Result::ok)
            .map(|e| e.path())
            .filter(|p| p.extension().is_some_and(|e| e == "jsonl"))
            .collect();
        leftovers.sort();
        for path in leftovers {
            let scan = scan_shard_journal(&path)?;
            corrupt_by_file.insert(path, scan.corrupt);
            stats.recovered += merged.absorb_all(&scan.records)?;
        }
    }

    // Cross-campaign cache: serve every still-missing cell we can, in
    // one group commit.
    if let Some(cache) = &scfg.cache {
        let mut hits = Vec::new();
        for cell in &cells {
            if merged.lookup(cell.key).is_some() {
                continue;
            }
            match cache.lookup(cell.key) {
                CacheLookup::Hit(rec) => hits.push(*rec),
                CacheLookup::Miss => stats.cache.misses += 1,
                CacheLookup::Corrupt => stats.cache.corrupt += 1,
            }
        }
        stats.cache.hits += hits.len();
        merged.absorb_all(&hits)?;
    }

    // Partition the remaining work and spawn.
    let mut slots: Vec<WorkerSlot> = (0..shards)
        .map(|s| WorkerSlot {
            shard: s,
            journal_path: shard_journal_path(&dir, s),
            pending: cells
                .iter()
                .filter(|c| shard_of(c.key, shards) == s && merged.lookup(c.key).is_none())
                .copied()
                .collect(),
            child: None,
            respawns: 0,
            respawn_at: None,
            last_len: 0,
            last_growth: Instant::now(),
            finished: false,
            closed_at: None,
        })
        .collect();
    let mut strikes: HashMap<u64, u32> = HashMap::new();
    let (exits, exited) = mpsc::channel();
    for slot in &mut slots {
        if slot.pending.is_empty() {
            slot.finished = true;
        } else {
            slot.spawn(scfg, &mut stats, &exits)?;
        }
    }

    // Monitor loop: reap exits, absorb results, charge strikes, respawn
    // under backoff, kill the silent, propagate cancellation. It sleeps
    // until a worker exits, a respawn falls due or the fallback tick.
    let cancel = cfg.sim.cancel.clone();
    let mut cancel_sent: Option<Instant> = None;
    loop {
        if let Some(token) = &cancel {
            if token.is_cancelled() && cancel_sent.is_none() {
                for slot in &mut slots {
                    if let Some((_, Some(w))) = slot.child.as_mut() {
                        let _ = w.write_all(CANCEL_LINE.as_bytes());
                        let _ = w.flush();
                    }
                }
                cancel_sent = Some(Instant::now());
            }
        }
        if let Some(sent) = cancel_sent {
            if sent.elapsed() >= GRACE {
                for slot in &mut slots {
                    if let Some((child, _)) = slot.child.as_mut() {
                        let _ = child.kill();
                    }
                }
            }
        }

        for slot in &mut slots {
            if slot.finished {
                continue;
            }
            if let Some((child, _)) = slot.child.as_mut() {
                match child.try_wait()? {
                    Some(_status) => {
                        // Reap: the exit status is deliberately not
                        // trusted for success — only the journal is.
                        slot.child = None;
                        let scan = scan_shard_journal(&slot.journal_path)?;
                        corrupt_by_file.insert(slot.journal_path.clone(), scan.corrupt);
                        stats.recovered += merged.absorb_all(&scan.records)?;
                        slot.pending.retain(|c| merged.lookup(c.key).is_none());
                        if let Some(k) = scan.in_flight {
                            if let Some(cell) = slot.pending.iter().copied().find(|c| c.key == k) {
                                let n = strikes.entry(k.0).or_insert(0);
                                *n += 1;
                                if *n >= cfg.quarantine_after.max(1) {
                                    // Deterministic, so resumes reproduce
                                    // it byte for byte.
                                    let detail = format!(
                                        "quarantined: cell killed or stalled {n} worker processes"
                                    );
                                    let rec = RunRecord {
                                        key: k,
                                        job: jobs[cell.job].name.clone(),
                                        variant: cfg.variants[cell.variant].label.clone(),
                                        outcome: unrun_record(k, RunStatus::Quarantined, &detail),
                                    };
                                    merged.absorb(&rec)?;
                                    stats.quarantined += 1;
                                    slot.pending.retain(|c| c.key != k);
                                }
                            }
                        }
                        if slot.pending.is_empty() || cancel_sent.is_some() {
                            slot.finished = true;
                        } else if slot.respawns >= scfg.max_respawns {
                            stats.abandoned += slot.pending.len();
                            slot.finished = true;
                        } else {
                            slot.respawns += 1;
                            stats.respawns += 1;
                            slot.respawn_at =
                                Some(Instant::now() + backoff_delay(slot.shard, slot.respawns));
                        }
                    }
                    None => {
                        // Alive: journal growth is the liveness signal.
                        let len = fs::metadata(&slot.journal_path).map_or(0, |m| m.len());
                        if len != slot.last_len {
                            slot.last_len = len;
                            slot.last_growth = Instant::now();
                        } else if !scfg.silence_budget.is_zero()
                            && slot.last_growth.elapsed() > scfg.silence_budget
                        {
                            // A killed child may not be waitable at the
                            // next tick: restart the clock so the kill is
                            // counted (and sent) once.
                            stats.silent_kills += 1;
                            slot.last_growth = Instant::now();
                            let _ = child.kill();
                        }
                    }
                }
            } else if cancel_sent.is_some() {
                slot.finished = true;
            } else if slot.respawn_at.is_some_and(|t| Instant::now() >= t) {
                slot.spawn(scfg, &mut stats, &exits)?;
            }
        }
        if slots.iter().all(|s| s.finished) {
            break;
        }
        // Sleep until the next event: a worker's stdout EOF, the next
        // respawn, or the fallback tick — which shrinks to REAP_TICK for
        // a worker that closed its stdout but is not waitable yet.
        let now = Instant::now();
        let mut wait = scfg.poll;
        for slot in &slots {
            if let Some(t) = slot.respawn_at {
                wait = wait.min(t.saturating_duration_since(now));
            }
            if slot.child.is_some()
                && slot
                    .closed_at
                    .is_some_and(|t| now.saturating_duration_since(t) < scfg.poll)
            {
                wait = wait.min(REAP_TICK);
            }
        }
        for shard in exited
            .recv_timeout(wait)
            .ok()
            .into_iter()
            .chain(exited.try_iter())
        {
            let slot = &mut slots[shard];
            if slot.child.is_some() {
                slot.closed_at = Some(Instant::now());
            }
        }
    }
    drop(slots);
    stats.corrupt_lines += corrupt_by_file.values().sum::<usize>();

    // Final pass: replay everything recovered, execute anything left
    // inline, and assemble the report exactly as a single-process run
    // would. This is what makes byte-identity a structural property
    // instead of a merge-ordering accident.
    let (result, sweep_stats) = super::run_sweep_journaled(jobs, cfg, Some(&merged));

    // Promote settled outcomes into the cross-campaign cache.
    if let Some(cache) = &scfg.cache {
        for c in &cells {
            let job = &result.jobs[c.job];
            let run = &job.runs[c.variant];
            let rec = RunRecord {
                key: c.key,
                job: job.name.clone(),
                variant: run.variant.clone(),
                outcome: run.to_record(),
            };
            if matches!(cache.store(&rec), Ok(true)) {
                stats.cache.stored += 1;
            }
        }
    }
    Ok((result, sweep_stats, stats))
}

// ---------------------------------------------------------------------
// The worker
// ---------------------------------------------------------------------

/// What one worker invocation did, for the bin's diagnostics and exit
/// code.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WorkerSummary {
    /// The shard index from the dispatch header.
    pub shard: usize,
    /// Cells executed and journaled this invocation.
    pub executed: usize,
    /// Dispatched cells already present in the shard journal (a
    /// respawned worker resuming its predecessor's work).
    pub replayed: usize,
    /// Dispatched cells refused: a cell that is not one of the worker's
    /// own for its job (an unknown job or variant index, or a [`RunKey`]
    /// that differs — supervisor and worker disagree about the matrix).
    pub protocol_errors: usize,
    /// The worker stopped early on a cancel line, stdin EOF, or a
    /// cancelled cell.
    pub cancelled: bool,
}

/// Executes one shard: reads the dispatch header and cell list from
/// `input` (the worker's stdin), runs each job's cells through the same
/// job runner as the in-process sweep, journals results to the shard
/// journal named in the header, and interleaves heartbeats. See the
/// module docs for the protocol and the cancellation contract; `jobs`
/// and `cfg` must be rebuilt identically to the supervisor's (every
/// dispatched cell is checked against the worker's own).
///
/// # Errors
///
/// Returns `InvalidData` for a missing or malformed dispatch header and
/// propagates journal I/O errors — a worker that cannot record results
/// durably must die (and be respawned) rather than burn work.
pub fn run_shard_worker<R>(
    jobs: &[SweepJob],
    cfg: &SweepConfig,
    input: R,
) -> io::Result<WorkerSummary>
where
    R: Read + Send + 'static,
{
    let mut reader = BufReader::new(input);
    let mut buf = Vec::new();
    // The header is bounded like every cell line: an oversized or
    // non-UTF-8 header is as malformed as a missing one.
    let header = match read_bounded_line(&mut reader, &mut buf, MAX_RECORD_LEN)? {
        BoundedLine::Line => std::str::from_utf8(&buf).ok(),
        BoundedLine::Oversized { .. } | BoundedLine::Eof => None,
    };
    let header = header.and_then(parse_header).ok_or_else(|| {
        let line = String::from_utf8_lossy(&buf);
        let why = format!(
            "shard worker: missing or bad dispatch header: {}",
            line.trim()
        );
        io::Error::new(io::ErrorKind::InvalidData, why)
    })?;
    let mut summary = WorkerSummary {
        shard: header.index,
        ..WorkerSummary::default()
    };

    // Read the cell list up to the end marker. EOF first means the
    // supervisor died mid-dispatch: wind down, run nothing. An oversized
    // or non-UTF-8 line is one protocol error, like an unparsable one.
    let mut cells: Vec<Cell> = Vec::new();
    let mut end_seen = false;
    loop {
        let line = match read_bounded_line(&mut reader, &mut buf, MAX_RECORD_LEN)? {
            BoundedLine::Eof => break,
            BoundedLine::Oversized { .. } => None,
            BoundedLine::Line => std::str::from_utf8(&buf).ok(),
        };
        let Some(line) = line else {
            summary.protocol_errors += 1;
            continue;
        };
        let trimmed = line.trim();
        if trimmed.is_empty() {
            continue;
        }
        let Some(v) = parse_json(trimmed) else {
            summary.protocol_errors += 1;
            continue;
        };
        if v.get("end").is_some() {
            end_seen = true;
            break;
        }
        if v.get("cancel").is_some() {
            summary.cancelled = true;
            return Ok(summary);
        }
        if let Some(c) = parse_cell(&v) {
            cells.push(c);
        } else {
            summary.protocol_errors += 1;
        }
    }
    if !end_seen {
        summary.cancelled = true;
        return Ok(summary);
    }

    // Resume (never truncate) the shard journal: a respawned worker
    // inherits its predecessor's completed records and skips them.
    let shard_journal = Arc::new(Journal::resume(&header.journal)?);

    // Cooperative cancellation: the caller's token if one is installed,
    // else our own; a watcher thread trips it on a cancel line or on
    // stdin EOF (dead supervisor), so workers never outlive supervision.
    let token = cfg.sim.cancel.clone().unwrap_or_default();
    {
        let token = token.clone();
        std::thread::spawn(move || {
            let mut buf = Vec::new();
            while let Ok(BoundedLine::Line | BoundedLine::Oversized { .. }) =
                read_bounded_line(&mut reader, &mut buf, MAX_RECORD_LEN)
            {
                let line = std::str::from_utf8(&buf).unwrap_or_default();
                if parse_json(line.trim()).is_some_and(|v| v.get("cancel").is_some()) {
                    break;
                }
            }
            token.cancel();
        });
    }

    let sink = {
        let j = Arc::clone(&shard_journal);
        Arc::new(move |hb: &Heartbeat| {
            let _ = j.append_raw(&hb.to_line());
        }) as Arc<dyn Fn(&Heartbeat) + Send + Sync>
    };
    let pulse = Pulse::start(sink, Duration::from_millis(header.heartbeat_ms));

    // Group cells by job so the reference executes once per job, exactly
    // like the in-process sweep. Within-shard order is irrelevant to the
    // report (records are keyed), so BTreeMap order is fine.
    let mut by_job: BTreeMap<usize, Vec<Cell>> = BTreeMap::new();
    for c in cells {
        by_job.entry(c.job).or_default().push(c);
    }
    let mut cfg = cfg.clone();
    cfg.sim.cancel = Some(token);
    let mut arena = SimArena::new();
    for (ji, mut group) in by_job {
        // Only cells identical to one of the worker's own — job, variant
        // and key — run; the rest are protocol errors.
        let Some(job) = jobs.get(ji) else {
            summary.protocol_errors += group.len();
            continue;
        };
        let own = job_cells(ji, job, &cfg);
        let dispatched = group.len();
        group.retain(|c| own.contains(c));
        summary.protocol_errors += dispatched - group.len();
        let lookup = |c: Cell| {
            let rec = shard_journal.lookup(c.key)?.clone();
            summary.replayed += 1;
            Some(rec)
        };
        let before = |c: Cell| pulse.cell_start(c.key);
        let record = |c: Cell, rec: Option<RunRecord>| {
            if let Some(rec) = rec {
                shard_journal.append(&rec)?;
                summary.executed += 1;
            }
            pulse.cell_done(c.key);
            Ok::<(), io::Error>(())
        };
        let out = run_cells(job, &cfg, &group, &mut arena, lookup, before, record)?;
        if out.runs.iter().any(|r| r.status == RunStatus::Cancelled) {
            summary.cancelled = true;
            break;
        }
    }
    Ok(summary)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::store_load_region;

    fn demo_jobs(n: usize) -> Vec<SweepJob> {
        (0..n)
            .map(|i| {
                let (region, binding) = store_load_region(&format!("job-{i}"));
                SweepJob::new(format!("job-{i}"), region, binding)
            })
            .collect()
    }

    fn demo_cfg() -> SweepConfig {
        SweepConfig::default().with_invocations(2)
    }

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("nachos-shard-unit").join(name);
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// A reader that never returns — the test stand-in for a supervisor
    /// keeping the stdin pipe open. Without it, `Cursor` EOF reads as
    /// "supervisor died" and the worker correctly cancels itself.
    struct HoldOpen;

    impl Read for HoldOpen {
        fn read(&mut self, _buf: &mut [u8]) -> io::Result<usize> {
            loop {
                std::thread::park();
            }
        }
    }

    fn held_open(input: String) -> impl Read + Send + 'static {
        io::Cursor::new(input).chain(HoldOpen)
    }

    #[test]
    fn wire_lines_roundtrip() {
        let cell = Cell {
            job: 3,
            variant: 1,
            key: RunKey(0xfeed_face_cafe_0001),
        };
        let parsed = parse_cell(&parse_json(cell_line(&cell).trim()).unwrap()).unwrap();
        assert_eq!(parsed, cell);
        let header = header_line(7, Path::new("/tmp/x/shard-0007.jsonl"), 250);
        assert_eq!(
            parse_header(&header),
            Some(Dispatch {
                index: 7,
                journal: PathBuf::from("/tmp/x/shard-0007.jsonl"),
                heartbeat_ms: 250,
            })
        );
        assert!(parse_header("{\"shard\":\"nachos-shard-v9\"}").is_none());
        assert!(parse_json(END_LINE.trim()).unwrap().get("end").is_some());
        assert!(parse_json(CANCEL_LINE.trim())
            .unwrap()
            .get("cancel")
            .is_some());
    }

    #[test]
    fn partition_is_stable_and_total() {
        let jobs = demo_jobs(4);
        let cfg = demo_cfg();
        let cells = enumerate_cells(&jobs, &cfg);
        assert_eq!(cells.len(), jobs.len() * cfg.variants.len());
        for shards in [1usize, 2, 3, 7] {
            let mut seen = 0usize;
            for s in 0..shards {
                seen += cells
                    .iter()
                    .filter(|c| shard_of(c.key, shards) == s)
                    .count();
            }
            assert_eq!(seen, cells.len(), "every cell lands in exactly one shard");
        }
        // Keys (and so shards) are stable across recomputation.
        assert_eq!(cells, enumerate_cells(&jobs, &cfg));
    }

    #[test]
    fn backoff_is_deterministic_and_bounded() {
        for shard in 0..4usize {
            for respawn in 1..10u32 {
                let d = backoff_delay(shard, respawn);
                assert_eq!(d, backoff_delay(shard, respawn));
                assert!(d >= Duration::from_millis(25));
                assert!(d <= Duration::from_millis(2000));
            }
        }
        // Different shards jitter apart (at least somewhere).
        assert!((0..4).any(|s| backoff_delay(s, 1) != backoff_delay(s + 4, 1)));
    }

    #[test]
    fn worker_executes_dispatched_cells_and_respawn_replays_them() {
        let dir = scratch("worker-exec");
        let jobs = demo_jobs(2);
        let cfg = demo_cfg();
        let cells = enumerate_cells(&jobs, &cfg);
        let journal_path = dir.join("shard-0000.jsonl");
        let mut input = header_line(0, &journal_path, 0);
        for c in &cells {
            input.push_str(&cell_line(c));
        }
        input.push_str(END_LINE);
        let summary = run_shard_worker(&jobs, &cfg, held_open(input.clone())).unwrap();
        assert_eq!(summary.executed, cells.len());
        assert_eq!(summary.protocol_errors, 0);
        assert!(!summary.cancelled);
        let j = Journal::resume(&journal_path).unwrap();
        assert_eq!(j.replay_len(), cells.len());
        // A respawned worker re-dispatched the same cells replays, not
        // re-executes.
        let again = run_shard_worker(&jobs, &cfg, held_open(input)).unwrap();
        assert_eq!(again.executed, 0);
        assert_eq!(again.replayed, cells.len());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn worker_rejects_mismatched_keys_and_unknown_indexes() {
        let dir = scratch("worker-proto");
        let jobs = demo_jobs(1);
        let cfg = demo_cfg();
        let cells = enumerate_cells(&jobs, &cfg);
        let journal_path = dir.join("shard-0000.jsonl");
        let mut input = header_line(0, &journal_path, 0);
        // Wrong key, unknown job, unknown variant: all refused.
        input.push_str(&cell_line(&Cell {
            key: RunKey(cells[0].key.0 ^ 1),
            ..cells[0]
        }));
        input.push_str(&cell_line(&Cell {
            job: 99,
            ..cells[0]
        }));
        input.push_str(&cell_line(&Cell {
            variant: 99,
            ..cells[0]
        }));
        input.push_str(END_LINE);
        let summary = run_shard_worker(&jobs, &cfg, held_open(input)).unwrap();
        assert_eq!(summary.executed, 0);
        assert_eq!(summary.protocol_errors, 3);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn worker_bounds_every_stdin_line() {
        let dir = scratch("worker-bounded");
        let jobs = demo_jobs(1);
        let cfg = demo_cfg();
        let cells = enumerate_cells(&jobs, &cfg);
        let journal_path = dir.join("shard-0000.jsonl");
        let huge = "x".repeat(MAX_RECORD_LEN + 1);
        // An oversized or non-UTF-8 header is refused outright.
        for header in [format!("{huge}\n").into_bytes(), vec![0xff, b'\n']] {
            let err = run_shard_worker(&jobs, &cfg, io::Cursor::new(header)).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        }
        // An oversized or non-UTF-8 cell line is one protocol error each;
        // the rest run.
        let mut input = header_line(0, &journal_path, 0).into_bytes();
        input.extend(format!("{huge}\n").bytes().chain([0xff, b'\n']));
        for c in &cells {
            input.extend(cell_line(c).bytes());
        }
        input.extend(END_LINE.bytes());
        let input = io::Cursor::new(input).chain(HoldOpen);
        let summary = run_shard_worker(&jobs, &cfg, input).unwrap();
        assert_eq!(summary.protocol_errors, 2);
        assert_eq!(summary.executed, cells.len());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn worker_treats_eof_before_end_as_cancel() {
        let jobs = demo_jobs(1);
        let cfg = demo_cfg();
        let cells = enumerate_cells(&jobs, &cfg);
        let dir = scratch("worker-eof");
        let mut input = header_line(0, &dir.join("s.jsonl"), 0);
        input.push_str(&cell_line(&cells[0]));
        // No end marker: the supervisor died mid-dispatch.
        let summary = run_shard_worker(&jobs, &cfg, io::Cursor::new(input)).unwrap();
        assert!(summary.cancelled);
        assert_eq!(summary.executed, 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn sharded_report_matches_single_process_even_when_workers_never_run() {
        // Workers are `true`: they exit without reading a single cell,
        // the respawn budget burns out, and every cell lands in the
        // inline final pass — the degenerate worst case, which must
        // still be byte-identical to the single-process report.
        let dir = scratch("supervisor-inline");
        let jobs = demo_jobs(3);
        let cfg = demo_cfg();
        let mut scfg = ShardConfig::new(2, vec!["true".into()], dir.join("campaign.jsonl"));
        scfg.max_respawns = 1;
        scfg.poll = Duration::from_millis(2);
        scfg.silence_budget = Duration::ZERO;
        let (sharded, _, stats) = run_sweep_sharded(&jobs, &cfg, &scfg).unwrap();
        assert_eq!(stats.abandoned, jobs.len() * cfg.variants.len());
        assert!(stats.workers_spawned >= 2);
        let single = super::super::run_sweep(&jobs, &cfg);
        assert_eq!(sharded.to_json(), single.to_json());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn supervisor_wakes_on_worker_exit_not_on_its_poll() {
        // Workers that live briefly, then exit without doing any work,
        // and a respawn each. Every wait is an exit or a backoff, never
        // a poll: a 60 s tick that was slept through even once would
        // blow the budget.
        let dir = scratch("supervisor-wake");
        let jobs = demo_jobs(2);
        let cfg = demo_cfg();
        let worker = ["sh", "-c", "sleep 0.05"].map(String::from).to_vec();
        let mut scfg = ShardConfig::new(2, worker, dir.join("campaign.jsonl"));
        scfg.max_respawns = 1;
        scfg.poll = Duration::from_secs(60);
        scfg.silence_budget = Duration::ZERO;
        let t0 = Instant::now();
        let (sharded, _, stats) = run_sweep_sharded(&jobs, &cfg, &scfg).unwrap();
        assert!(
            t0.elapsed() < Duration::from_secs(10),
            "campaign took {:?} against a 60 s poll",
            t0.elapsed()
        );
        assert_eq!(stats.workers_spawned, 4, "two spawns and two respawns");
        assert_eq!(stats.abandoned, jobs.len() * cfg.variants.len());
        assert_eq!(
            sharded.to_json(),
            super::super::run_sweep(&jobs, &cfg).to_json()
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn supervisor_absorbs_prefilled_shard_journals_without_spawning_real_work() {
        // Simulate recovery: a previous campaign's workers completed
        // every cell into shard journals, then the supervisor crashed
        // before merging. Resume must absorb them and spawn no work.
        let dir = scratch("supervisor-absorb");
        let jobs = demo_jobs(2);
        let cfg = demo_cfg();
        let journal_path = dir.join("campaign.jsonl");
        // Run single-process with a journal to get authentic records.
        let donor = Journal::create(dir.join("donor.jsonl")).unwrap();
        let (single, _) = super::super::run_sweep_journaled(&jobs, &cfg, Some(&donor));
        drop(donor);
        let sdir = shard_dir(&journal_path);
        fs::create_dir_all(&sdir).unwrap();
        // Scatter the donor lines across three shard journals (a
        // different count than we resume with).
        let donor_lines = fs::read_to_string(dir.join("donor.jsonl")).unwrap();
        let mut writers: Vec<String> = vec![String::new(); 3];
        for (i, l) in donor_lines.lines().enumerate() {
            writers[i % 3].push_str(l);
            writers[i % 3].push('\n');
        }
        for (i, content) in writers.iter().enumerate() {
            fs::write(shard_journal_path(&sdir, i), content).unwrap();
        }
        let mut scfg = ShardConfig::new(2, vec!["true".into()], &journal_path);
        scfg.resume = true;
        scfg.max_respawns = 0;
        scfg.poll = Duration::from_millis(2);
        let (sharded, sweep_stats, stats) = run_sweep_sharded(&jobs, &cfg, &scfg).unwrap();
        assert_eq!(stats.recovered, jobs.len() * cfg.variants.len());
        assert_eq!(stats.workers_spawned, 0, "nothing left to dispatch");
        assert_eq!(sweep_stats.executed, 0);
        assert_eq!(sharded.to_json(), single.to_json());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn cache_round_trips_a_campaign() {
        let dir = scratch("supervisor-cache");
        let jobs = demo_jobs(2);
        let cfg = demo_cfg();
        let cache = ResultCache::open(dir.join("cache")).unwrap();
        let total = jobs.len() * cfg.variants.len();
        // First campaign: all misses, everything stored.
        let mut scfg = ShardConfig::new(1, vec!["true".into()], dir.join("c1.jsonl"));
        scfg.cache = Some(cache.clone());
        scfg.max_respawns = 0;
        scfg.poll = Duration::from_millis(2);
        let (first, _, stats1) = run_sweep_sharded(&jobs, &cfg, &scfg).unwrap();
        assert_eq!(stats1.cache.misses, total);
        assert_eq!(stats1.cache.stored, total);
        // Second campaign, fresh journal: served entirely from cache.
        let mut scfg2 = ShardConfig::new(1, vec!["true".into()], dir.join("c2.jsonl"));
        scfg2.cache = Some(cache);
        scfg2.max_respawns = 0;
        scfg2.poll = Duration::from_millis(2);
        let (second, sweep_stats2, stats2) = run_sweep_sharded(&jobs, &cfg, &scfg2).unwrap();
        assert_eq!(stats2.cache.hits, total);
        assert_eq!(stats2.workers_spawned, 0);
        assert_eq!(sweep_stats2.executed, 0);
        assert_eq!(second.to_json(), first.to_json());
        let _ = fs::remove_dir_all(&dir);
    }
}
