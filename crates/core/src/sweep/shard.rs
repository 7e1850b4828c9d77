//! Process-isolated sharded sweep execution (DESIGN §5).
//!
//! `catch_unwind` cannot contain an abort, an OOM kill, a stack overflow
//! or a segfault, so here each failure domain is an OS process. The
//! **supervisor** ([`run_sweep_sharded`]) queues the uncached cells as
//! job groups (all of one job's cells, in job order) for up to `N`
//! **workers** ([`run_shard_worker`], the `sweep` bin with
//! `--shard-exec`). Dispatch is pull-based: a worker holds one group and
//! gets the next when it acks the last, so no worker idles while jobs
//! remain and each job's reference and compiles run once. Each ack's
//! records are merged and promoted into the result cache while the
//! workers keep computing. A worker that dies or stays silent is
//! respawned under [`backoff_delay`] and first re-runs its predecessor's
//! unrecorded cells; the cell in flight at a death is charged a strike,
//! and a cell that keeps killing workers is quarantined.
//!
//! # Wire format (`nachos-shard-v3`)
//!
//! ```text
//! stdin:  {"shard": "nachos-shard-v3", "index": 0, "journal": "<path>"}
//!         {"batch": [{"job": 3, "variant": 0, "key": "<16 hex>"}, ...]}
//!         {"end":true}  or  {"cancel":true}
//! stdout: {"start": "<16 hex>"}  {"done": "<16 hex>"}  {"alive": true}
//!         {"ack": N}
//! ```
//!
//! The header comes first, then one batch per ack, then `end`. A worker
//! brackets each cell it runs with `start` and `done`, writes `alive`
//! every 200 ms from a pulse thread, acks its `N`-th batch once the
//! batch's records are fsynced, and takes stdin EOF as cancel. Its shard
//! journal holds run records only. Every stdout line restarts the
//! worker's silence clock, and the last `start` with neither a `done`
//! nor a record after it names the cell in flight when it died. Lines are
//! bounded both ways ([`MAX_RECORD_LEN`], [`read_worker_line`]); a worker
//! whose stdout line is none of these shapes, or an ack it does not owe,
//! is killed. Time and the race for jobs decide liveness and placement
//! only: the report comes from [`super::run_sweep_journaled`] over the
//! merged journal, so it is **byte-identical** to a single-process run
//! for any shard count, death or resume history.

use super::cache::{CacheCounters, CacheLookup, ResultCache};
use super::journal::{self, read_bounded_line, BoundedLine, Journal, LineError};
use super::journal::{RunKey, RunRecord, MAX_RECORD_LEN};
use super::{job_cells, run_cells, unrun_record};
use super::{RunStatus, SweepConfig, SweepJob, SweepResult, SweepStats};
use crate::engine::SimArena;
use crate::json::{parse_json, Json, JsonWriter};
use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};
use std::fs::{self, File};
use std::io::{self, BufRead, BufReader, Read, Seek as _, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, SyncSender};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Dispatch header schema tag; bumped with the pipe protocol so that a
/// mismatched supervisor/worker pair fails loudly.
pub const SHARD_SCHEMA: &str = "nachos-shard-v3";

/// Longest stdout line a supervisor reads from a worker. The longest
/// line a worker writes, a `start` or `done`, is 30 bytes; a longer line
/// is a protocol error and is never buffered.
pub const MAX_WORKER_LINE_LEN: usize = 64;

/// How often a worker writes an `alive` line, so that a long cell still
/// restarts the supervisor's silence clock.
const PULSE: Duration = Duration::from_millis(200);

const END_LINE: &str = "{\"end\":true}\n";
const CANCEL_LINE: &str = "{\"cancel\":true}\n";

/// Monitor tick while a worker has closed its stdout but cannot be
/// reaped yet: a dying process closes its files just before it is.
const REAP_TICK: Duration = Duration::from_millis(1);

/// How long a cancelled worker gets to wind down before SIGKILL.
const GRACE: Duration = Duration::from_millis(500);

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
    let per_job = jobs.iter().enumerate();
    per_job
        .flat_map(|(i, job)| job_cells(i, job, cfg))
        .collect()
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
/// shard `shard`: bounded exponential growth plus splitmix64 jitter, so
/// simultaneous deaths don't respawn in lockstep. A pure function: the
/// *schedule* is deterministic even though the deaths are not.
#[must_use]
pub fn backoff_delay(shard: usize, respawn: u32) -> Duration {
    let base_ms = 25u64 << respawn.min(6);
    let jitter = journal::splitmix64(((shard as u64) << 32) ^ u64::from(respawn)) % (base_ms / 4);
    Duration::from_millis(base_ms + jitter)
}

/// What a worker's death leaves its slot to do: quarantine the in-flight
/// cell (after `n` strikes), respawn, or give cells to the inline pass.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct Death {
    quarantined: Option<(Cell, u32)>,
    respawn: Option<u32>,
    abandoned: usize,
}

/// The supervisor's dispatch decisions, free of I/O: one queue of job
/// groups in job order, and per slot the group its worker holds, the
/// cell in flight and the respawns it has used. A group leaves the queue
/// for one slot and never moves to another, so a job's cells never split
/// across live workers.
#[derive(Debug)]
struct Dispatcher {
    queue: VecDeque<Vec<Cell>>,
    held: Vec<Vec<Cell>>,
    /// Per slot and across respawns, the last `start` with no `done`
    /// after it. A record after it is checked at death: a recorded cell
    /// is no longer held.
    in_flight: Vec<Option<RunKey>>,
    respawns: Vec<u32>,
    strikes: HashMap<u64, u32>,
    max_respawns: u32,
    quarantine_after: u32,
}

impl Dispatcher {
    /// Queues `pending` (in job order) as one group per job.
    fn new(pending: &[Cell], slots: usize, max_respawns: u32, quarantine_after: u32) -> Self {
        let groups = pending.chunk_by(|a, b| a.job == b.job);
        Dispatcher {
            queue: groups.map(<[Cell]>::to_vec).collect(),
            held: vec![Vec::new(); slots],
            in_flight: vec![None; slots],
            respawns: vec![0; slots],
            strikes: HashMap::new(),
            max_respawns,
            quarantine_after: quarantine_after.max(1),
        }
    }

    /// The group `slot`'s worker runs next: the one it holds (so a respawn
    /// runs its predecessor's unrecorded cells first), else the next job.
    fn next(&mut self, slot: usize) -> Option<&[Cell]> {
        if self.held[slot].is_empty() {
            self.held[slot] = self.queue.pop_front()?;
        }
        Some(&self.held[slot])
    }

    /// `slot`'s worker acked its group. Returns how many cells it left
    /// unrecorded (refused): they fall to the inline pass.
    fn ack(&mut self, slot: usize, recorded: impl Fn(RunKey) -> bool) -> usize {
        let group = std::mem::take(&mut self.held[slot]);
        group.iter().filter(|c| !recorded(c.key)).count()
    }

    /// `slot`'s worker wrote `start` for `key`.
    fn started(&mut self, slot: usize, key: RunKey) {
        self.in_flight[slot] = Some(key);
    }

    /// `slot`'s worker wrote `done` for `key`.
    fn done(&mut self, slot: usize, key: RunKey) {
        if self.in_flight[slot] == Some(key) {
            self.in_flight[slot] = None;
        }
    }

    /// `slot`'s worker died; its unrecorded in-flight cell, if any, is
    /// charged a strike. Its unrecorded cells stay held for a respawn; a
    /// slot out of respawns abandons them while the other slots drain
    /// the queue.
    fn died(&mut self, slot: usize, recorded: impl Fn(RunKey) -> bool) -> Death {
        let held = &mut self.held[slot];
        held.retain(|c| !recorded(c.key));
        let mut death = Death::default();
        let in_flight = self.in_flight[slot];
        if let Some(i) = in_flight.and_then(|k| held.iter().position(|c| c.key == k)) {
            let n = self.strikes.entry(held[i].key.0).or_insert(0);
            *n += 1;
            if *n >= self.quarantine_after {
                death.quarantined = Some((held.remove(i), *n));
            }
        }
        if held.is_empty() && self.queue.is_empty() {
            return death;
        }
        if self.respawns[slot] < self.max_respawns {
            self.respawns[slot] += 1;
            death.respawn = Some(self.respawns[slot]);
        } else {
            death.abandoned = std::mem::take(held).len();
        }
        death
    }

    /// Empties the queue once no slot is live; returns the cells it
    /// held, which fall to the inline pass.
    fn abandon_rest(&mut self) -> usize {
        self.queue.drain(..).map(|g| g.len()).sum()
    }
}

fn header_line(index: usize, journal: &Path) -> String {
    let mut w = JsonWriter::compact();
    w.open_obj();
    w.str_field("shard", SHARD_SCHEMA);
    w.u64_field("index", index as u64);
    w.str_field("journal", &journal.display().to_string());
    w.close_obj();
    w.finish().trim_end_matches('\n').to_owned() + "\n"
}

/// The dispatch header's shard index and journal path.
fn parse_header(line: &str) -> Option<(usize, PathBuf)> {
    let v = parse_json(line.trim())?;
    if v.get("shard")?.as_str()? != SHARD_SCHEMA {
        return None;
    }
    let index = usize::try_from(v.get("index")?.as_u64()?).ok()?;
    Some((index, PathBuf::from(v.get("journal")?.as_str()?)))
}

fn batch_line(cells: &[Cell]) -> String {
    let cell = |c: &Cell| {
        let (job, variant, key) = (c.job, c.variant, c.key);
        format!(r#"{{"job": {job}, "variant": {variant}, "key": "{key}"}}"#)
    };
    let cells: Vec<String> = cells.iter().map(cell).collect();
    format!("{{\"batch\": [{}]}}\n", cells.join(", "))
}

fn parse_cell(c: &Json) -> Option<Cell> {
    Some(Cell {
        job: usize::try_from(c.get("job")?.as_u64()?).ok()?,
        variant: usize::try_from(c.get("variant")?.as_u64()?).ok()?,
        key: RunKey::parse(c.get("key")?.as_str()?)?,
    })
}

/// One stdin message as a worker reads it.
#[derive(Debug)]
enum Inbound {
    /// A batch: its well-formed cells, and how many entries were not. A
    /// line that is no message at all (oversized, not UTF-8, not JSON,
    /// of no known kind) is a batch of one refused entry, still acked.
    Batch(Vec<Cell>, usize),
    End,
    /// A cancel line, EOF or a read error.
    Stop,
}

fn read_inbound(reader: &mut impl BufRead, buf: &mut Vec<u8>) -> Inbound {
    loop {
        let line = match read_bounded_line(reader, buf, MAX_RECORD_LEN) {
            Ok(BoundedLine::Line) => std::str::from_utf8(buf).ok().map(str::trim),
            Ok(BoundedLine::Oversized { .. }) => None,
            Ok(BoundedLine::Eof) | Err(_) => return Inbound::Stop,
        };
        if line == Some("") {
            continue;
        }
        let v = line.and_then(parse_json);
        let field = |name: &str| v.as_ref().and_then(|v| v.get(name));
        return if field("end").is_some() {
            Inbound::End
        } else if field("cancel").is_some() {
            Inbound::Stop
        } else if let Some(entries) = field("batch").and_then(Json::as_arr) {
            let cells: Vec<Cell> = entries.iter().filter_map(parse_cell).collect();
            let refused = entries.len() - cells.len();
            Inbound::Batch(cells, refused)
        } else {
            Inbound::Batch(Vec::new(), 1)
        };
    }
}

/// One line a worker wrote to its stdout, as the supervisor reads it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WorkerLine {
    /// `{"ack": N}`: batch `N` is settled, its records on disk.
    Ack(u64),
    /// `{"start": "<key>"}`: the worker is about to run the cell.
    Start(RunKey),
    /// `{"done": "<key>"}`: the worker finished (and journaled) the cell.
    Done(RunKey),
    /// `{"alive": true}`: the pulse thread's periodic line.
    Alive,
    /// Anything else: oversized, not UTF-8, none of the shapes above.
    Malformed,
    /// EOF or a read error: the worker is exiting.
    Closed,
}

/// Reads one line of a worker's stdout into `buf`, never buffering more
/// than [`MAX_WORKER_LINE_LEN`] bytes of it and never allocating once
/// `buf` holds that many.
#[must_use]
pub fn read_worker_line(reader: &mut impl BufRead, buf: &mut Vec<u8>) -> WorkerLine {
    match read_bounded_line(reader, buf, MAX_WORKER_LINE_LEN) {
        Ok(BoundedLine::Line) => parse_worker_line(buf).unwrap_or(WorkerLine::Malformed),
        Ok(BoundedLine::Oversized { .. }) => WorkerLine::Malformed,
        Ok(BoundedLine::Eof) | Err(_) => WorkerLine::Closed,
    }
}

/// Matches one of the fixed stdout shapes, a one-field JSON object with
/// JSON whitespace allowed around its tokens, byte by byte.
fn parse_worker_line(line: &[u8]) -> Option<WorkerLine> {
    /// `t` after optional whitespace, and the rest after whitespace.
    fn token<'a>(s: &'a [u8], t: &[u8]) -> Option<&'a [u8]> {
        let ws = |s: &'a [u8]| {
            let n = s.iter().take_while(|b| b" \t\n\r".contains(b)).count();
            &s[n..]
        };
        ws(s).strip_prefix(t).map(ws)
    }
    let rest = token(line, b"{")?.strip_prefix(b"\"")?;
    let end = rest.iter().position(|&b| b == b'"')?;
    let (name, rest) = (&rest[..end], token(&rest[end + 1..], b":")?);
    let (parsed, rest) = match name {
        b"ack" => {
            let n = rest.iter().take_while(|b| b.is_ascii_digit()).count();
            let count = std::str::from_utf8(&rest[..n]).ok()?.parse().ok()?;
            (WorkerLine::Ack(count), &rest[n..])
        }
        b"start" | b"done" => {
            let quoted = rest.strip_prefix(b"\"")?;
            let (hex, rest) = (quoted.get(..16)?, quoted[16..].strip_prefix(b"\"")?);
            let hex = std::str::from_utf8(hex).ok()?;
            // `RunKey::parse` alone would take a leading `+`.
            let key = RunKey::parse(hex).filter(|_| hex.bytes().all(|b| b.is_ascii_hexdigit()))?;
            let beat = if name == b"start" {
                WorkerLine::Start(key)
            } else {
                WorkerLine::Done(key)
            };
            (beat, rest)
        }
        b"alive" => (WorkerLine::Alive, rest.strip_prefix(b"true")?),
        _ => return None,
    };
    token(rest, b"}")?.is_empty().then_some(parsed)
}

/// An incremental reader of one shard journal: a scan reads the complete
/// lines after a kept offset, so a line still being written is never
/// counted as corrupt.
#[derive(Debug, Default)]
struct ShardTail {
    path: PathBuf,
    offset: u64,
    corrupt: usize,
}

impl ShardTail {
    fn new(path: PathBuf) -> Self {
        ShardTail {
            path,
            ..ShardTail::default()
        }
    }

    /// The records completed since the last scan.
    fn scan(&mut self) -> io::Result<Vec<RunRecord>> {
        let mut records = Vec::new();
        let mut reader = match File::open(&self.path) {
            Ok(f) => BufReader::new(f),
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(records),
            Err(e) => return Err(e),
        };
        reader.seek(SeekFrom::Start(self.offset))?;
        let mut buf = Vec::new();
        loop {
            let line = match read_bounded_line(&mut reader, &mut buf, MAX_RECORD_LEN)? {
                BoundedLine::Line if buf.ends_with(b"\n") => std::str::from_utf8(&buf).ok(),
                // An unterminated tail is still being written.
                BoundedLine::Line | BoundedLine::Eof => return Ok(records),
                BoundedLine::Oversized { .. } => None,
            };
            self.offset = reader.stream_position()?;
            match line.map(RunRecord::parse_line) {
                Some(Ok(rec)) => records.push(rec),
                // Torn or foreign lines (the heartbeats an older worker
                // interleaved among them) cost nothing.
                Some(Err(LineError::Unusable)) => {}
                // Oversized, not UTF-8, or failing its checksum frame.
                Some(Err(LineError::Corrupt)) | None => self.corrupt += 1,
            }
        }
    }
}

// ---------------------------------------------------------------------
// The supervisor
// ---------------------------------------------------------------------

/// Configuration for [`run_sweep_sharded`].
#[derive(Clone, Debug)]
pub struct ShardConfig {
    /// Worker processes to dispatch the matrix across (clamped to ≥ 1).
    pub shards: usize,
    /// The worker argv, which must rebuild the identical job list and
    /// [`SweepConfig`] (usually this `sweep` binary with `--shard-exec`).
    pub worker_cmd: Vec<String>,
    /// The merged campaign journal; shard journals live in the sibling
    /// [`shard_dir`].
    pub journal_path: PathBuf,
    /// Resume from the merged journal and leftover shard journals.
    pub resume: bool,
    /// Optional cross-campaign result cache, probed before dispatch and
    /// fed each worker's records as they are acknowledged.
    pub cache: Option<ResultCache>,
    /// Kill a worker that has written no stdout line for this long (zero
    /// disables silence kills; exit status still covers death).
    pub silence_budget: Duration,
    /// Respawn budget per worker slot; a slot that exhausts it gives the
    /// group it holds to the inline final pass.
    pub max_respawns: u32,
    /// Fallback tick of the monitor loop, which wakes at once on a
    /// worker's ack or exit and when a respawn falls due; the tick bounds
    /// the silence and cancel checks.
    pub poll: Duration,
}

impl ShardConfig {
    /// A config with conventional liveness settings: a 10 s silence
    /// budget and 4 respawns per shard.
    #[must_use]
    pub fn new(shards: usize, worker_cmd: Vec<String>, journal_path: impl Into<PathBuf>) -> Self {
        Self {
            shards,
            worker_cmd,
            journal_path: journal_path.into(),
            resume: false,
            cache: None,
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
    /// Worker slots the campaign ran with.
    pub shards: usize,
    /// Worker processes spawned, including respawns.
    pub workers_spawned: usize,
    /// Respawns after a worker death or silence kill.
    pub respawns: usize,
    /// Cells sent to workers, respawns' re-sends included.
    pub dispatched: usize,
    /// Records recovered from shard journals into the merged journal.
    pub recovered: usize,
    /// Journal lines (any shard) dropped as corrupt.
    pub corrupt_lines: usize,
    /// Workers killed for stdout silence.
    pub silent_kills: usize,
    /// Cells the supervisor quarantined for repeatedly killing workers.
    pub quarantined: usize,
    /// Cells left to the inline final pass: groups of slots out of
    /// respawns, refused cells, and the queue once no worker was left.
    pub abandoned: usize,
    /// Result-cache traffic.
    pub cache: CacheCounters,
}

/// A live worker process. Dropping it kills the child, so no supervisor
/// exit path leaks a worker.
struct Worker {
    child: Child,
    stdin: Option<ChildStdin>,
    /// Spawn number: stdout events of a reaped predecessor carry an
    /// older one and are ignored.
    id: usize,
    /// Batches sent, and so the ack the worker owes next.
    sent: u64,
    /// When the worker last wrote a line: its silence clock.
    last_line: Instant,
    /// When the worker's stdout reached EOF: every line it wrote has
    /// been handled, and it is exiting.
    closed_at: Option<Instant>,
    /// When the worker was first seen exited.
    exited_at: Option<Instant>,
}

impl Worker {
    /// Best effort: a dead worker is reaped by the monitor loop.
    fn send(&mut self, line: &str) {
        if let Some(w) = self.stdin.as_mut() {
            let _ = w.write_all(line.as_bytes()).and_then(|()| w.flush());
        }
    }

    fn send_batch(&mut self, group: &[Cell], stats: &mut ShardStats) {
        self.send(&batch_line(group));
        self.sent += 1;
        stats.dispatched += group.len();
    }
}

impl Drop for Worker {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// A worker slot: its shard journal, live worker and next spawn time.
struct WorkerSlot {
    index: usize,
    tail: ShardTail,
    worker: Option<Worker>,
    spawn_at: Option<Instant>,
}

impl WorkerSlot {
    fn spawn(
        &mut self,
        scfg: &ShardConfig,
        group: &[Cell],
        stats: &mut ShardStats,
        events: &SyncSender<(usize, usize, WorkerLine)>,
    ) -> io::Result<()> {
        let mut child = Command::new(&scfg.worker_cmd[0])
            .args(&scfg.worker_cmd[1..])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()?;
        let id = stats.workers_spawned;
        stats.workers_spawned += 1;
        // Acks and beats arrive on stdout, and its EOF (the worker's exit)
        // wakes the monitor. This thread never allocates (its buffers come
        // from here, the channel is preallocated), so it costs no malloc
        // arena.
        if let Some(out) = child.stdout.take() {
            let (events, slot) = (events.clone(), self.index);
            let mut out = BufReader::with_capacity(MAX_WORKER_LINE_LEN, out);
            let mut buf = Vec::with_capacity(MAX_WORKER_LINE_LEN);
            let _ = std::thread::Builder::new().spawn(move || loop {
                let line = read_worker_line(&mut out, &mut buf);
                if events.send((slot, id, line)).is_err() || line == WorkerLine::Closed {
                    break;
                }
            });
        }
        let mut worker = Worker {
            stdin: child.stdin.take(),
            child,
            id,
            sent: 0,
            last_line: Instant::now(),
            closed_at: None,
            exited_at: None,
        };
        worker.send(&header_line(self.index, &self.tail.path));
        worker.send_batch(group, stats);
        self.worker = Some(worker);
        Ok(())
    }
}

/// The merged journal plus cache promotion. While workers run it lives on
/// its own thread, so that its fsyncs never hold up the answer to an ack.
struct Merge {
    journal: Journal,
    cache: Option<ResultCache>,
    /// Keys cached before or promoted during the campaign.
    promoted: HashSet<u64>,
    recovered: usize,
    stored: usize,
}

impl Merge {
    /// Absorbs `records` from a shard journal in one group commit, then
    /// promotes the newly absorbed ones into the cache.
    fn absorb(&mut self, mut records: Vec<RunRecord>) -> io::Result<()> {
        records.retain(|r| self.journal.lookup(r.key).is_none());
        self.recovered += self.journal.absorb_all(&records)?;
        if let Some(cache) = &self.cache {
            for rec in &records {
                if self.promoted.insert(rec.key.0) && matches!(cache.store(rec), Ok(true)) {
                    self.stored += 1;
                }
            }
        }
        Ok(())
    }
}

/// Runs the sweep matrix across `shards` worker OS processes and returns
/// a report **byte-identical** to [`super::run_sweep_journaled`] on the
/// same inputs.
///
/// # Errors
///
/// Propagates journal, cache and spawn I/O errors. Worker *deaths* are
/// not errors: they are the failure domain this exists to absorb.
pub fn run_sweep_sharded(
    jobs: &[SweepJob],
    cfg: &SweepConfig,
    scfg: &ShardConfig,
) -> io::Result<(SweepResult, SweepStats, ShardStats)> {
    if scfg.worker_cmd.is_empty() {
        let why = "shard worker command is empty";
        return Err(io::Error::new(io::ErrorKind::InvalidInput, why));
    }
    let shards = scfg.shards.max(1);
    let mut stats = ShardStats {
        shards,
        ..ShardStats::default()
    };
    let cells = enumerate_cells(jobs, cfg);
    let journal = if scfg.resume {
        Journal::resume(&scfg.journal_path)?
    } else {
        Journal::create(&scfg.journal_path)?
    };
    stats.corrupt_lines += journal.corrupt();
    let mut merge = Merge {
        journal,
        cache: scfg.cache.clone(),
        promoted: HashSet::new(),
        recovered: 0,
        stored: 0,
    };

    // Every slot's first worker is due at once.
    let dir = shard_dir(&scfg.journal_path);
    fs::create_dir_all(&dir)?;
    let mut slots: Vec<WorkerSlot> = (0..shards)
        .map(|s| WorkerSlot {
            index: s,
            tail: ShardTail::new(shard_journal_path(&dir, s)),
            worker: None,
            spawn_at: Some(Instant::now()),
        })
        .collect();

    // A resumed campaign may find shard journals from a crashed
    // supervisor, perhaps under another shard count. Absorb every record
    // they hold before dispatching: matching is by key, not by shard.
    if scfg.resume {
        let mut leftovers: Vec<PathBuf> = fs::read_dir(&dir)?
            .filter_map(Result::ok)
            .map(|e| e.path())
            .filter(|p| p.extension().is_some_and(|e| e == "jsonl"))
            .collect();
        leftovers.sort();
        for path in leftovers {
            let mut tail = ShardTail::new(path);
            merge.absorb(tail.scan()?)?;
            match slots.iter_mut().find(|s| s.tail.path == tail.path) {
                Some(slot) => slot.tail = tail,
                None => stats.corrupt_lines += tail.corrupt,
            }
        }
    }

    // Cross-campaign cache: serve every still-missing cell we can, in
    // one group commit.
    if let Some(cache) = &scfg.cache {
        let mut hits = Vec::new();
        let missing = cells
            .iter()
            .filter(|c| merge.journal.lookup(c.key).is_none());
        for cell in missing {
            match cache.lookup(cell.key) {
                CacheLookup::Hit(rec) => hits.push(*rec),
                CacheLookup::Miss => stats.cache.misses += 1,
                CacheLookup::Corrupt => stats.cache.corrupt += 1,
            }
        }
        stats.cache.hits += hits.len();
        merge.promoted.extend(hits.iter().map(|r| r.key.0));
        merge.journal.absorb_all(&hits)?;
    }

    // From here on the merge runs on its own thread; `recorded` is the
    // monitor's view of which keys it holds or is about to.
    let (done, pending): (Vec<Cell>, Vec<Cell>) = cells
        .iter()
        .partition(|c| merge.journal.lookup(c.key).is_some());
    let mut recorded: HashSet<u64> = done.iter().map(|c| c.key.0).collect();
    let (to_merge, merging) = mpsc::channel::<Vec<RunRecord>>();
    let merger = std::thread::spawn(move || {
        for records in merging {
            merge.absorb(records)?;
        }
        Ok::<_, io::Error>(merge)
    });
    let mut quarantined = Vec::new();
    let mut dispatch = Dispatcher::new(&pending, shards, scfg.max_respawns, cfg.quarantine_after);
    let (events_tx, events) = mpsc::sync_channel(4 * shards);

    // Monitor loop: spawn due workers, answer acks with the next batch,
    // reap and respawn the dead, kill the silent, forward cancellation.
    let cancel = cfg.sim.cancel.clone();
    let mut cancel_sent: Option<Instant> = None;
    loop {
        if cancel_sent.is_none() && cancel.as_ref().is_some_and(|t| t.is_cancelled()) {
            for worker in slots.iter_mut().filter_map(|s| s.worker.as_mut()) {
                worker.send(CANCEL_LINE);
            }
            cancel_sent = Some(Instant::now());
        }
        if cancel_sent.is_some_and(|sent| sent.elapsed() >= GRACE) {
            for worker in slots.iter_mut().filter_map(|s| s.worker.as_mut()) {
                let _ = worker.child.kill();
            }
        }

        for slot in &mut slots {
            let Some(worker) = slot.worker.as_mut() else {
                let due = slot.spawn_at.is_some_and(|t| Instant::now() >= t);
                if due || cancel_sent.is_some() {
                    slot.spawn_at = None;
                }
                // A due worker takes the slot's next group; a slot that
                // gets none is finished.
                if due && cancel_sent.is_none() {
                    if let Some(group) = dispatch.next(slot.index) {
                        slot.spawn(scfg, group, &mut stats, &events_tx)?;
                    }
                }
                continue;
            };
            if worker.exited_at.is_none() && worker.child.try_wait()?.is_some() {
                worker.exited_at = Some(Instant::now());
            }
            let Some(exited) = worker.exited_at else {
                if !scfg.silence_budget.is_zero()
                    && worker.last_line.elapsed() > scfg.silence_budget
                {
                    // A killed child may not be waitable at the next
                    // tick: restart the clock so the kill is counted
                    // (and sent) once.
                    stats.silent_kills += 1;
                    worker.last_line = Instant::now();
                    let _ = worker.child.kill();
                }
                continue;
            };
            // A death is attributed from every line the worker wrote, so
            // its stdout is read to EOF first — unless another process
            // (a grandchild) holds the pipe open past the grace period.
            if worker.closed_at.is_none() && exited.elapsed() < GRACE {
                continue;
            }
            // Reaped: the exit status is deliberately not trusted for
            // success — only the journal is.
            slot.worker = None;
            let records = slot.tail.scan()?;
            recorded.extend(records.iter().map(|r| r.key.0));
            let _ = to_merge.send(records);
            let death = dispatch.died(slot.index, |k| recorded.contains(&k.0));
            if let Some((cell, n)) = death.quarantined {
                // Deterministic, so resumes reproduce it byte for byte.
                let detail = format!("quarantined: cell killed or stalled {n} worker processes");
                quarantined.push(RunRecord {
                    key: cell.key,
                    job: jobs[cell.job].name.clone(),
                    variant: cfg.variants[cell.variant].label.clone(),
                    outcome: unrun_record(cell.key, RunStatus::Quarantined, &detail),
                });
                recorded.insert(cell.key.0);
            }
            stats.abandoned += death.abandoned;
            if let Some(n) = death.respawn.filter(|_| cancel_sent.is_none()) {
                stats.respawns += 1;
                slot.spawn_at = Some(Instant::now() + backoff_delay(slot.index, n));
            }
        }
        if slots
            .iter()
            .all(|s| s.worker.is_none() && s.spawn_at.is_none())
        {
            break;
        }

        // Sleep until the next event: a worker's line or stdout EOF, the
        // next spawn, or the fallback tick — which shrinks to REAP_TICK
        // for a worker that closed its stdout but is not waitable yet.
        let now = Instant::now();
        let mut wait = scfg.poll;
        for slot in &slots {
            if let Some(t) = slot.spawn_at {
                wait = wait.min(t.saturating_duration_since(now));
            }
            let closed = slot.worker.as_ref().and_then(|w| w.closed_at);
            if closed.is_some_and(|t| now.saturating_duration_since(t) < scfg.poll) {
                wait = wait.min(REAP_TICK);
            }
        }
        let first = events.recv_timeout(wait).ok();
        for (index, id, line) in first.into_iter().chain(events.try_iter()) {
            let slot = &mut slots[index];
            let Some(worker) = slot.worker.as_mut().filter(|w| w.id == id) else {
                continue;
            };
            worker.last_line = Instant::now();
            match line {
                WorkerLine::Closed => worker.closed_at = Some(Instant::now()),
                WorkerLine::Alive => {}
                WorkerLine::Start(key) => dispatch.started(index, key),
                WorkerLine::Done(key) => dispatch.done(index, key),
                WorkerLine::Ack(_) if cancel_sent.is_some() => {}
                WorkerLine::Ack(n) if n == worker.sent => {
                    let records = slot.tail.scan()?;
                    recorded.extend(records.iter().map(|r| r.key.0));
                    let _ = to_merge.send(records);
                    stats.abandoned += dispatch.ack(slot.index, |k| recorded.contains(&k.0));
                    match dispatch.next(slot.index) {
                        Some(group) => worker.send_batch(group, &mut stats),
                        None => worker.send(END_LINE),
                    }
                }
                // A worker out of step with the protocol is killed, and
                // its slot's death handling takes over.
                WorkerLine::Ack(_) | WorkerLine::Malformed => {
                    let _ = worker.child.kill();
                }
            }
        }
    }
    if cancel_sent.is_none() {
        stats.abandoned += dispatch.abandon_rest();
    }
    stats.corrupt_lines += slots.iter().map(|s| s.tail.corrupt).sum::<usize>();
    drop((slots, to_merge));
    let mut merge = merger
        .join()
        .unwrap_or_else(|p| std::panic::resume_unwind(p))?;
    stats.quarantined = quarantined.len();
    merge.journal.absorb_all(&quarantined)?;
    (stats.recovered, stats.cache.stored) = (merge.recovered, merge.stored);

    // Final pass: replay everything recovered and execute anything left
    // inline, exactly as a single-process run would: byte-identity is
    // structural, not a merge-ordering accident.
    let (result, sweep_stats) = super::run_sweep_journaled(jobs, cfg, Some(&merge.journal));

    // Promote what the workers did not: cells run inline by the final
    // pass, and records the merged journal already held on resume.
    if let Some(cache) = &merge.cache {
        for c in cells.iter().filter(|c| !merge.promoted.contains(&c.key.0)) {
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
    /// Dispatched cells already in the shard journal.
    pub replayed: usize,
    /// Refused lines and cells: a malformed line, or a cell not among
    /// the worker's own (the two sides disagree on the matrix).
    pub protocol_errors: usize,
    /// Stopped early: a cancel line, stdin EOF, a cancelled cell, or an
    /// ack the supervisor could no longer read.
    pub cancelled: bool,
}

/// Executes one shard worker: reads the dispatch header from `input`
/// (stdin), runs each batch that follows through the in-process job
/// runner into the header's shard journal, and writes to `out` (stdout)
/// a `start` and a `done` line around each cell it runs, an `alive` line
/// every 200 ms and one ack per settled batch. `jobs` and `cfg` must
/// match the supervisor's: every dispatched cell is checked against them.
///
/// # Errors
///
/// Returns `InvalidData` for a missing or malformed dispatch header and
/// propagates journal I/O errors — a worker that cannot record results
/// durably must die (and be respawned) rather than burn work.
pub fn run_shard_worker<R, W>(
    jobs: &[SweepJob],
    cfg: &SweepConfig,
    input: R,
    out: W,
) -> io::Result<WorkerSummary>
where
    R: Read + Send + 'static,
    W: Write + Send,
{
    let mut reader = BufReader::new(input);
    let mut buf = Vec::new();
    // The header is bounded like every other line: an oversized or
    // non-UTF-8 header is as malformed as a missing one.
    let header = match read_bounded_line(&mut reader, &mut buf, MAX_RECORD_LEN)? {
        BoundedLine::Line => std::str::from_utf8(&buf).ok(),
        BoundedLine::Oversized { .. } | BoundedLine::Eof => None,
    };
    let (shard, journal_path) = header.and_then(parse_header).ok_or_else(|| {
        let line = String::from_utf8_lossy(&buf);
        let why = format!(
            "shard worker: missing or bad dispatch header: {}",
            line.trim()
        );
        io::Error::new(io::ErrorKind::InvalidData, why)
    })?;
    let mut summary = WorkerSummary {
        shard,
        ..WorkerSummary::default()
    };

    // One bounded reader thread owns stdin from here on. It forwards each
    // message and trips the cancel token itself on a cancel line or EOF
    // (a dead supervisor), so that a running cell stops too.
    let token = cfg.sim.cancel.clone().unwrap_or_default();
    let (inbox, inbound) = mpsc::channel();
    let stop = token.clone();
    std::thread::spawn(move || loop {
        let msg = read_inbound(&mut reader, &mut buf);
        let last = !matches!(msg, Inbound::Batch(..));
        if matches!(msg, Inbound::Stop) {
            stop.cancel();
        }
        if inbox.send(msg).is_err() || last {
            break;
        }
    });

    // Resume (never truncate) the shard journal: a respawned worker
    // inherits its predecessor's completed records and skips them.
    let shard_journal = Journal::resume(&journal_path)?;
    let mut cfg = cfg.clone();
    cfg.sim.cancel = Some(token);
    let out = &Mutex::new(out);
    std::thread::scope(|scope| {
        // `_stop_pulse` drops on every way out of this closure, which ends
        // the pulse thread at once.
        let (_stop_pulse, stopped) = mpsc::channel::<()>();
        scope.spawn(move || pulse(out, PULSE, stopped));
        let mut arena = SimArena::new();
        let mut batches = 0u64;
        'batches: loop {
            let (cells, refused) = match inbound.recv() {
                Ok(Inbound::Batch(cells, refused)) => (cells, refused),
                Ok(Inbound::End) => break,
                Ok(Inbound::Stop) | Err(_) => {
                    summary.cancelled = true;
                    break;
                }
            };
            summary.protocol_errors += refused;
            // One reference execution per job, as in the in-process sweep.
            let mut by_job: BTreeMap<usize, Vec<Cell>> = BTreeMap::new();
            for c in cells {
                by_job.entry(c.job).or_default().push(c);
            }
            for (ji, mut group) in by_job {
                // Only cells identical to one of the worker's own — job,
                // variant and key — run; the rest are protocol errors.
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
                // A beat the supervisor can no longer read is no error
                // here: stdin EOF cancels the worker.
                let before = |c: Cell| {
                    let _ = say(out, format_args!("{{\"start\": \"{}\"}}", c.key));
                };
                let record = |c: Cell, rec: Option<RunRecord>| {
                    if let Some(rec) = rec {
                        shard_journal.append_raw(&rec.to_line())?;
                        summary.executed += 1;
                    }
                    let _ = say(out, format_args!("{{\"done\": \"{}\"}}", c.key));
                    Ok::<(), io::Error>(())
                };
                let outcome = run_cells(job, &cfg, &group, &mut arena, lookup, before, record)?;
                if outcome
                    .runs
                    .iter()
                    .any(|r| r.status == RunStatus::Cancelled)
                {
                    summary.cancelled = true;
                    break 'batches;
                }
            }
            // Durability before the ack: one fsync per batch.
            shard_journal.sync()?;
            batches += 1;
            if say(out, format_args!("{{\"ack\": {batches}}}")).is_err() {
                summary.cancelled = true;
                break;
            }
        }
        Ok::<_, io::Error>(())
    })?;
    Ok(summary)
}

/// Writes one line to a worker's stdout and flushes it, under the lock
/// that keeps the pulse thread's lines from splitting the main thread's.
fn say<W: Write>(out: &Mutex<W>, line: std::fmt::Arguments<'_>) -> io::Result<()> {
    let mut out = out
        .lock()
        .map_err(|_| io::Error::other("worker stdout lock poisoned"))?;
    writeln!(out, "{line}")?;
    out.flush()
}

/// Writes an `alive` line every `period` until `stop` disconnects. It
/// waits on the channel, not on a sleep, so a worker's exit never waits
/// out a period.
fn pulse<W: Write>(out: &Mutex<W>, period: Duration, stop: Receiver<()>) {
    while let Err(RecvTimeoutError::Timeout) = stop.recv_timeout(period) {
        let _ = say(out, format_args!("{{\"alive\": true}}"));
    }
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

    fn held_open(input: impl Into<Vec<u8>>) -> impl Read + Send + 'static {
        io::Cursor::new(input.into()).chain(HoldOpen)
    }

    /// The lines a worker wrote but its timed `alive` beats, parsed back
    /// the way the supervisor reads them.
    fn lines(out: &[u8]) -> Vec<WorkerLine> {
        let (mut reader, mut buf) = (out, Vec::new());
        std::iter::from_fn(|| {
            let line = read_worker_line(&mut reader, &mut buf);
            (line != WorkerLine::Closed).then_some(line)
        })
        .filter(|line| *line != WorkerLine::Alive)
        .collect()
    }

    /// The acks among a worker's lines.
    fn acks(out: &[u8]) -> Vec<WorkerLine> {
        let mut lines = lines(out);
        lines.retain(|line| matches!(line, WorkerLine::Ack(_)));
        lines
    }

    /// `n` pending cells per job for `jobs` jobs, in job order.
    fn pending(jobs: usize, n: usize) -> Vec<Cell> {
        (0..jobs * n)
            .map(|i| Cell {
                job: i / n,
                variant: i % n,
                key: RunKey(i as u64),
            })
            .collect()
    }

    #[test]
    fn wire_lines_roundtrip() {
        let cells = [3, 4].map(|job| Cell {
            job,
            variant: 1,
            key: RunKey(0xfeed_face_cafe_0001 + job as u64),
        });
        let line = batch_line(&cells);
        match read_inbound(&mut line.as_bytes(), &mut Vec::new()) {
            Inbound::Batch(parsed, 0) => assert_eq!(parsed, cells),
            other => panic!("{other:?}"),
        }
        let header = header_line(7, Path::new("/tmp/x/shard-0007.jsonl"));
        assert_eq!(
            parse_header(&header),
            Some((7, PathBuf::from("/tmp/x/shard-0007.jsonl")))
        );
        let v2 = r#"{"shard": "nachos-shard-v2", "index": 0, "journal": "j", "heartbeat_ms": 200}"#;
        assert!(parse_header(v2).is_none());
        let mut stdin = format!("\n{END_LINE}{CANCEL_LINE}{{\"cell\":{{}}}}\n").into_bytes();
        stdin.extend([0xff, b'\n']);
        let mut reader = stdin.as_slice();
        let mut buf = Vec::new();
        let mut next = || read_inbound(&mut reader, &mut buf);
        assert!(matches!(next(), Inbound::End));
        assert!(matches!(next(), Inbound::Stop));
        // A line that is no message is a batch of one refused entry.
        assert!(matches!(next(), Inbound::Batch(c, 1) if c.is_empty()));
        assert!(matches!(next(), Inbound::Batch(c, 1) if c.is_empty()));
        assert!(matches!(next(), Inbound::Stop), "EOF");
    }

    #[test]
    fn worker_lines_are_acks_beats_or_protocol_errors() {
        let long = format!("{{\"ack\":{}}}\n", "1".repeat(MAX_WORKER_LINE_LEN));
        let key = RunKey(0x0123_4567_89ab_cdef);
        let out = format!(
            "{{\"ack\":1}}\n{long}{{\"ack\":-1}}\nack\n{{\"start\": \"{key}\"}}\n\
             \t{{ \"done\" :\"{key}\" }}\r\n{{\"alive\": true}}\n{{\"alive\": false}}\n\
             {{\"start\": \"{key}0\"}}\n{{\"ack\": 1, \"ack\": 2}}\n{{\"ack\":2}}"
        );
        let (mut reader, mut buf) = (out.as_bytes(), Vec::new());
        let read: Vec<WorkerLine> = std::iter::from_fn(|| {
            let line = read_worker_line(&mut reader, &mut buf);
            (line != WorkerLine::Closed).then_some(line)
        })
        .collect();
        assert_eq!(
            read,
            [
                WorkerLine::Ack(1),
                WorkerLine::Malformed,
                WorkerLine::Malformed,
                WorkerLine::Malformed,
                WorkerLine::Start(key),
                WorkerLine::Done(key),
                WorkerLine::Alive,
                WorkerLine::Malformed,
                WorkerLine::Malformed,
                WorkerLine::Malformed,
                WorkerLine::Ack(2),
            ]
        );
    }

    #[test]
    fn partition_is_stable_and_total() {
        let jobs = demo_jobs(4);
        let cfg = demo_cfg();
        let cells = enumerate_cells(&jobs, &cfg);
        assert_eq!(cells.len(), jobs.len() * cfg.variants.len());
        for shards in [1usize, 2, 3, 7] {
            let mut d = Dispatcher::new(&cells, shards, 0, 1);
            let mut seen = Vec::new();
            while let Some(slot) = (0..shards).find(|&s| d.next(s).is_some()) {
                seen.extend_from_slice(d.next(slot).unwrap());
                assert_eq!(d.ack(slot, |_| true), 0);
            }
            assert_eq!(seen, cells, "every cell lands in exactly one group");
        }
        // Keys (and so groups) are stable across recomputation.
        assert_eq!(cells, enumerate_cells(&jobs, &cfg));
    }

    /// Drives a dispatcher through a seeded interleaving of acks and
    /// deaths (each death recording a random prefix of the held group)
    /// and checks the two partition invariants at every step.
    #[test]
    fn dispatch_sends_every_cell_and_never_splits_a_job() {
        for seed in 0..200u64 {
            let cells = pending(7, 3);
            let slots = 1 + (seed % 4) as usize;
            let mut d = Dispatcher::new(&cells, slots, 2, 3);
            let mut owner: HashMap<usize, usize> = HashMap::new();
            let mut recorded: HashSet<u64> = HashSet::new();
            let (mut abandoned, mut rng) = (0, seed);
            let mut live: Vec<usize> = (0..slots).collect();
            while !live.is_empty() {
                rng = journal::splitmix64(rng);
                let slot = live[(rng % live.len() as u64) as usize];
                let Some(group) = d.next(slot).map(<[Cell]>::to_vec) else {
                    live.retain(|&s| s != slot);
                    continue;
                };
                for c in &group {
                    let first = *owner.entry(c.job).or_insert(slot);
                    assert_eq!(first, slot, "seed {seed}: job {} split", c.job);
                }
                if rng % 3 == 0 {
                    let done = (rng >> 8) as usize % (group.len() + 1);
                    recorded.extend(group[..done].iter().map(|c| c.key.0));
                    let death = d.died(slot, |k| recorded.contains(&k.0));
                    abandoned += death.abandoned;
                    if death.respawn.is_none() {
                        live.retain(|&s| s != slot);
                    }
                } else {
                    recorded.extend(group.iter().map(|c| c.key.0));
                    assert_eq!(d.ack(slot, |k| recorded.contains(&k.0)), 0);
                }
            }
            abandoned += d.abandon_rest();
            assert_eq!(recorded.len() + abandoned, cells.len(), "seed {seed}");
        }
    }

    #[test]
    fn a_dead_workers_unrecorded_cells_go_to_its_respawn_first() {
        let cells = pending(3, 3);
        let mut d = Dispatcher::new(&cells, 2, 1, 3);
        assert_eq!(d.next(0), Some(&cells[0..3]));
        assert_eq!(d.next(1), Some(&cells[3..6]));
        d.started(0, cells[1].key);
        let death = d.died(0, |k| k == cells[0].key);
        assert_eq!(death.respawn, Some(1));
        assert_eq!(death.quarantined, None, "one strike of three");
        assert_eq!(d.next(0), Some(&cells[1..3]), "not the queued job 2");
        assert_eq!(d.ack(0, |_| true), 0);
        assert_eq!(d.next(0), Some(&cells[6..9]));
    }

    #[test]
    fn a_slot_out_of_respawns_abandons_only_its_group() {
        let cells = pending(4, 2);
        let mut d = Dispatcher::new(&cells, 2, 0, 3);
        d.next(0);
        d.next(1);
        let death = d.died(0, |_| false);
        assert_eq!((death.respawn, death.abandoned), (None, 2));
        // The surviving slot drains the rest of the queue.
        for group in [&cells[4..6], &cells[6..8]] {
            assert_eq!(d.ack(1, |_| true), 0);
            assert_eq!(d.next(1), Some(group));
        }
        assert_eq!(d.ack(1, |_| true), 0);
        assert_eq!(d.next(1), None);
        assert_eq!(d.abandon_rest(), 0);
    }

    #[test]
    fn the_queue_left_when_no_slot_is_live_falls_to_the_inline_pass() {
        let cells = pending(5, 2);
        let mut d = Dispatcher::new(&cells, 2, 0, 3);
        d.next(0);
        d.next(1);
        // Worker 1 recorded one cell before dying.
        assert_eq!(d.died(0, |_| false).abandoned, 2);
        assert_eq!(d.died(1, |k| k == cells[2].key).abandoned, 1);
        assert_eq!(d.abandon_rest(), 6, "jobs 2..5 were never dispatched");
        assert_eq!(d.next(0), None);
    }

    /// The in-flight cell is the last `start` with neither a `done` nor
    /// a record after it, and it stays in flight across respawns: a
    /// respawn that dies before its first `start` is charged to it too.
    #[test]
    fn an_in_flight_cell_strikes_out_into_quarantine() {
        let cells = pending(1, 3);
        let mut d = Dispatcher::new(&cells, 1, 4, 2);
        d.next(0);
        d.started(0, cells[0].key);
        d.done(0, cells[0].key);
        d.started(0, cells[2].key);
        // A record after the `start`: a cell that finished is not charged.
        let death = d.died(0, |k| k == cells[2].key);
        assert_eq!(death.quarantined, None);
        d.started(0, cells[1].key);
        d.done(0, cells[0].key);
        assert_eq!(d.died(0, |k| k == cells[2].key).quarantined, None);
        let death = d.died(0, |k| k == cells[2].key);
        assert_eq!(death.quarantined, Some((cells[1], 2)));
        assert_eq!(
            death.respawn,
            Some(3),
            "the other cell still needs a worker"
        );
        assert_eq!(d.next(0), Some(&cells[..1]));
        d.started(0, cells[0].key);
        d.done(0, cells[0].key);
        let death = d.died(0, |_| false);
        assert_eq!(death.quarantined, None, "a `done` ends the flight");
        assert_eq!(d.strikes.get(&cells[0].key.0), None);
    }

    #[test]
    fn a_live_journals_unterminated_line_is_never_read() {
        let dir = scratch("tail");
        let path = dir.join("shard-0000.jsonl");
        let jobs = demo_jobs(1);
        let cfg = demo_cfg();
        let donor = Journal::create(dir.join("donor.jsonl")).unwrap();
        let _ = super::super::run_sweep_journaled(&jobs, &cfg, Some(&donor));
        let lines = fs::read_to_string(donor.path()).unwrap();
        let (first, rest) = lines.split_at(lines.find('\n').unwrap() + 1);
        let second = rest.lines().next().unwrap();
        let mut tail = ShardTail::new(path.clone());
        // A worker mid-way through its second record.
        let half = &second[..second.len() / 2];
        fs::write(&path, format!("{first}{half}")).unwrap();
        assert_eq!(tail.scan().unwrap().len(), 1);
        assert_eq!(tail.corrupt, 0);
        // The write completes: exactly the new lines are read, once.
        fs::write(&path, format!("{first}{rest}")).unwrap();
        assert_eq!(tail.scan().unwrap().len(), cfg.variants.len() - 1);
        assert_eq!(tail.corrupt, 0);
        assert!(tail.scan().unwrap().is_empty());
        let _ = fs::remove_dir_all(&dir);
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
        let mut input = header_line(0, &journal_path);
        for group in cells.chunk_by(|a, b| a.job == b.job) {
            input.push_str(&batch_line(group));
        }
        input.push_str(END_LINE);
        let mut out = Vec::new();
        let summary = run_shard_worker(&jobs, &cfg, held_open(input.clone()), &mut out).unwrap();
        assert_eq!(summary.executed, cells.len());
        assert_eq!(summary.protocol_errors, 0);
        assert!(!summary.cancelled);
        // Each cell bracketed by its beats, each batch by its ack.
        let mut want = Vec::new();
        for (n, group) in cells.chunk_by(|a, b| a.job == b.job).enumerate() {
            for c in group {
                want.extend([WorkerLine::Start(c.key), WorkerLine::Done(c.key)]);
            }
            want.push(WorkerLine::Ack(n as u64 + 1));
        }
        assert_eq!(lines(&out), want);
        let j = Journal::resume(&journal_path).unwrap();
        assert_eq!(j.replay_len(), cells.len());
        let text = fs::read_to_string(&journal_path).unwrap();
        assert!(
            text.lines().all(|l| RunRecord::parse_line(l).is_ok()),
            "a shard journal holds run records only"
        );
        // A respawned worker re-dispatched the same cells replays, not
        // re-executes, and so brackets no cell with beats.
        let mut out = Vec::new();
        let again = run_shard_worker(&jobs, &cfg, held_open(input), &mut out).unwrap();
        assert_eq!(again.executed, 0);
        assert_eq!(again.replayed, cells.len());
        assert_eq!(lines(&out), [WorkerLine::Ack(1), WorkerLine::Ack(2)]);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn pulse_writes_alive_lines_until_stopped() {
        let out = Mutex::new(Vec::new());
        let (stop, stopped) = mpsc::channel::<()>();
        let beat = b"{\"alive\": true}\n";
        std::thread::scope(|s| {
            let beats = &out;
            s.spawn(move || pulse(beats, Duration::from_millis(5), stopped));
            let t0 = Instant::now();
            while out.lock().unwrap().len() < 2 * beat.len() {
                assert!(t0.elapsed() < Duration::from_secs(10), "no beats");
                std::thread::sleep(Duration::from_millis(1));
            }
            drop(stop);
        });
        let out = out.into_inner().unwrap();
        assert!(
            out.chunks(beat.len()).all(|line| line == beat),
            "whole lines"
        );
        assert!(out.len() >= 2 * beat.len());
    }

    #[test]
    fn stopping_a_pulse_does_not_wait_out_its_period() {
        let out = Mutex::new(io::sink());
        let (stop, stopped) = mpsc::channel::<()>();
        let mut stopped_at = Instant::now();
        std::thread::scope(|s| {
            let out = &out;
            s.spawn(move || pulse(out, Duration::from_secs(60), stopped));
            // Let the thread reach its wait before stopping it.
            std::thread::sleep(Duration::from_millis(20));
            stopped_at = Instant::now();
            drop(stop);
        });
        assert!(
            stopped_at.elapsed() < Duration::from_secs(1),
            "the pulse took {:?} to stop against a 60 s period",
            stopped_at.elapsed()
        );
    }

    #[test]
    fn worker_rejects_mismatched_keys_and_unknown_indexes() {
        let dir = scratch("worker-proto");
        let jobs = demo_jobs(1);
        let cfg = demo_cfg();
        let cells = enumerate_cells(&jobs, &cfg);
        let journal_path = dir.join("shard-0000.jsonl");
        let mut input = header_line(0, &journal_path);
        // Wrong key, unknown job, unknown variant: all refused.
        input.push_str(&batch_line(&[
            Cell {
                key: RunKey(cells[0].key.0 ^ 1),
                ..cells[0]
            },
            Cell {
                job: 99,
                ..cells[0]
            },
            Cell {
                variant: 99,
                ..cells[0]
            },
        ]));
        input.push_str(END_LINE);
        let mut out = Vec::new();
        let summary = run_shard_worker(&jobs, &cfg, held_open(input), &mut out).unwrap();
        assert_eq!(summary.executed, 0);
        assert_eq!(summary.protocol_errors, 3);
        assert_eq!(acks(&out), [WorkerLine::Ack(1)], "the batch is still acked");
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
            let input = io::Cursor::new(header);
            let err = run_shard_worker(&jobs, &cfg, input, io::sink()).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        }
        // An oversized or non-UTF-8 batch line is one protocol error
        // each, acked like a batch; the rest run.
        let mut input = header_line(0, &journal_path).into_bytes();
        input.extend(format!("{huge}\n").bytes().chain([0xff, b'\n']));
        input.extend(batch_line(&cells).bytes());
        input.extend(END_LINE.bytes());
        let mut out = Vec::new();
        let summary = run_shard_worker(&jobs, &cfg, held_open(input), &mut out).unwrap();
        assert_eq!(summary.protocol_errors, 2);
        assert_eq!(summary.executed, cells.len());
        assert_eq!(acks(&out).len(), 3);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn worker_treats_eof_before_end_as_cancel() {
        let jobs = demo_jobs(1);
        let cfg = demo_cfg();
        let cells = enumerate_cells(&jobs, &cfg);
        let dir = scratch("worker-eof");
        let path = dir.join("s.jsonl");
        // The supervisor died before its first batch: nothing runs.
        let input = io::Cursor::new(header_line(0, &path));
        let summary = run_shard_worker(&jobs, &cfg, input, io::sink()).unwrap();
        assert!(summary.cancelled);
        assert_eq!(summary.executed, 0);
        // It died after one: the worker winds down, and whatever ran
        // before the cancel landed is journaled and nothing more.
        let input = io::Cursor::new(header_line(0, &path) + &batch_line(&cells));
        let summary = run_shard_worker(&jobs, &cfg, input, io::sink()).unwrap();
        assert!(summary.cancelled);
        assert_eq!(
            Journal::resume(&path).unwrap().replay_len(),
            summary.executed
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn sharded_report_matches_single_process_even_when_workers_never_run() {
        // Workers are `true`: they exit without reading a single cell,
        // the respawn budget burns out, and every cell lands in the
        // inline final pass — the degenerate worst case, which must
        // still be byte-identical to the single-process report. The
        // third job never leaves the queue.
        let dir = scratch("supervisor-inline");
        let jobs = demo_jobs(3);
        let cfg = demo_cfg();
        let mut scfg = ShardConfig::new(2, vec!["true".into()], dir.join("campaign.jsonl"));
        scfg.max_respawns = 1;
        scfg.poll = Duration::from_millis(2);
        scfg.silence_budget = Duration::ZERO;
        let (sharded, _, stats) = run_sweep_sharded(&jobs, &cfg, &scfg).unwrap();
        assert_eq!(stats.abandoned, jobs.len() * cfg.variants.len());
        assert_eq!(stats.workers_spawned, 4, "two spawns and two respawns");
        assert_eq!(stats.dispatched, 4 * cfg.variants.len());
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
