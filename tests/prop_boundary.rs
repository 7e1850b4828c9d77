//! Property: every parser at a trust boundary survives arbitrary bytes.
//!
//! Journal lines, job-journal lines and daemon request specs arrive from
//! disk or from a socket client, so their parsers see whatever a torn
//! write, a flipped bit or a hostile peer hands them. Each case decodes
//! a byte vector lossily (as the line readers do) and feeds it to
//! `parse_json`, `RunRecord::parse_line`/`from_payload`,
//! `JobEvent::from_payload` and `MatrixSpec::from_json`. The corpus also
//! holds a heartbeat line of the kind older shard workers wrote into
//! their journals, which every reader must skip.
//! None may panic, and every value they accept must re-serialize to text
//! that parses back to an equal value.
//!
//! The same bytes, unmodified, are also written to disk as a whole
//! journal file, as a daemon's job journal and as a result-cache entry,
//! then read back through `Journal::resume`, `Daemon::open` and
//! `ResultCache::lookup`: each must return a structured result (counted
//! skips, `Corrupt`, or a verified record), never panic, and a reopened
//! daemon must rebuild the same job table.
//!
//! Purely random bytes almost never reach past the first syntax check,
//! so most cases start from a valid line of each kind and apply random
//! byte edits to it; one seed in the corpus is empty, which makes that
//! case purely random.
//!
//! The shard pipe is the last boundary here, in both directions. Random
//! and mutated dispatch headers, and valid headers followed by mutated
//! batch lines, are fed to `run_shard_worker` over a two-job matrix. It
//! must return its counters or `InvalidData`, execute only cells whose
//! key it verified, leave exactly those records in its shard journal,
//! bracket each cell it runs with `start` and `done` lines and ack its
//! batches in order. Mutated and oversized worker lines are fed to the
//! supervisor's `read_worker_line`, which must classify each one as the
//! ack or beat it really is, or as a protocol error.
//!
//! The daemon's request handler is fed the same way, over its socket: an
//! in-process daemon with one settled job receives random, oversized,
//! non-UTF-8, deeply nested and mutated request lines, one case per
//! connection. Every response must be a JSON object with an `error` tag
//! whenever `ok` is false; no handler may panic; the settled job must
//! not change; every job may only move along the state machine; and the
//! daemon must still answer `ping`.

use std::io::{BufRead as _, BufReader, Read, Write as _};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

use nachos::json::{checksum_frame, checksum_unframe, escape, parse_json, Json};
use nachos::sweep::cache::{CacheLookup, ResultCache};
use nachos::sweep::daemon::{
    Daemon, DaemonConfig, JobEvent, JobSnapshot, JobStatus, MatrixSpec, MAX_REQUEST_LEN,
};
use nachos::sweep::journal::{Journal, RunKey, RunRecord};
use nachos::sweep::shard::{
    enumerate_cells, read_worker_line, run_shard_worker, WorkerLine, MAX_WORKER_LINE_LEN,
    SHARD_SCHEMA,
};
use nachos::sweep::{run_sweep_journaled, SweepConfig, SweepJob};
use nachos::testutil::store_load_region;
use proptest::prelude::*;

/// Valid lines of every kind the boundaries accept, plus an empty seed.
fn corpus() -> &'static [String] {
    static CORPUS: OnceLock<Vec<String>> = OnceLock::new();
    CORPUS.get_or_init(|| {
        let (region, binding) = store_load_region("boundary");
        let jobs = [SweepJob::new("boundary", region, binding)];
        let cfg = SweepConfig::default().with_invocations(2).with_threads(1);
        let records = journal_lines(&jobs, &cfg);
        let optimized = journal_lines(&jobs, &cfg.with_optimize(true));
        // One `--optimize` record, so its persisted `opt` block is fuzzed.
        let opt_line = optimized
            .lines()
            .find(|l| l.contains("\"opt\""))
            .expect("an MDE-backend record carries an opt block");

        let mut corpus = vec![String::new()];
        for line in records.lines().take(2).chain([opt_line]) {
            corpus.push(format!("{line}\n"));
            corpus.push(checksum_unframe(line).expect("framed").to_owned());
        }
        let beat = format!(
            "{{\"journal\": \"nachos-heartbeat-v2\", \"phase\": \"start\", \"cell\": \"{}\"}}",
            RunKey(0x0123_4567_89ab_cdef)
        );
        corpus.push(checksum_frame(&beat) + "\n");
        corpus.push(beat);
        let spec = MatrixSpec {
            filter: Some("gzip".to_owned()),
            variants: Some(vec!["nachos".to_owned()]),
            ideal: true,
            ..MatrixSpec::default()
        };
        corpus.push(spec.to_json());
        corpus.push(
            JobEvent::Submitted {
                job: 1,
                spec: spec.clone(),
            }
            .to_line(),
        );
        corpus.push(
            JobEvent::Transition {
                job: 1,
                to: JobStatus::Settled,
                detail: Some("a \"quoted\" detail".to_owned()),
                mismatches: 2,
                degraded: 1,
            }
            .to_line(),
        );
        corpus.push("[1, -2.5e3, \"a\\u00e9\\n\", {\"k\": [true, null, {}]}]".to_owned());
        corpus
    })
}

/// Runs `jobs` under `cfg` into a fresh journal and returns its text.
fn journal_lines(jobs: &[SweepJob], cfg: &SweepConfig) -> String {
    let dir = scratch_dir("corpus");
    let path = dir.join("journal.jsonl");
    let journal = Journal::create(&path).expect("create journal");
    let _ = run_sweep_journaled(jobs, cfg, Some(&journal));
    drop(journal);
    let records = std::fs::read_to_string(&path).expect("read journal");
    std::fs::remove_dir_all(&dir).ok();
    records
}

/// A fresh, empty per-process directory under the system temp dir.
fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join(format!("nachos-prop-boundary-{}", std::process::id()))
        .join(name);
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

/// One byte edit: overwrite, insert or delete at a position taken
/// modulo the current length.
type Edit = (u16, u8, u8);

fn mutate(seed: &str, edits: &[Edit], tail: &[u8]) -> String {
    String::from_utf8_lossy(&mutate_bytes(seed, edits, tail)).into_owned()
}

fn mutate_bytes(seed: &str, edits: &[Edit], tail: &[u8]) -> Vec<u8> {
    let mut bytes = seed.as_bytes().to_vec();
    for &(pos, byte, op) in edits {
        let at = usize::from(pos) % (bytes.len() + 1);
        match op % 3 {
            0 if at < bytes.len() => bytes[at] = byte,
            1 if at < bytes.len() => {
                bytes.remove(at);
            }
            _ => bytes.insert(at, byte),
        }
    }
    bytes.extend_from_slice(tail);
    bytes
}

/// Serializes a parsed value back to JSON text.
fn to_text(v: &Json) -> String {
    match v {
        Json::Obj(fields) => {
            let fields: Vec<String> = fields
                .iter()
                .map(|(k, v)| format!("\"{}\":{}", escape(k), to_text(v)))
                .collect();
            format!("{{{}}}", fields.join(","))
        }
        Json::Arr(items) => {
            let items: Vec<String> = items.iter().map(to_text).collect();
            format!("[{}]", items.join(","))
        }
        Json::Str(s) => format!("\"{}\"", escape(s)),
        Json::Num(raw) => raw.clone(),
        Json::Bool(b) => b.to_string(),
        Json::Null => "null".to_owned(),
    }
}

/// Parses a framed job-journal line the way `Daemon::open` does.
fn job_event_line(line: &str) -> Option<JobEvent> {
    let payload = checksum_unframe(line.trim()).ok()?;
    JobEvent::from_payload(&parse_json(payload)?)
}

/// Feeds `text` to every boundary parser and checks each accepted value
/// round-trips.
fn check_boundaries(text: &str) {
    if let Some(v) = parse_json(text) {
        prop_assert_eq!(parse_json(&to_text(&v)), Some(v.clone()), "{:?}", text);
        if let Some(spec) = MatrixSpec::from_json(&v) {
            let back = parse_json(&spec.to_json()).and_then(|v| MatrixSpec::from_json(&v));
            prop_assert_eq!(back, Some(spec), "{:?}", text);
        }
    }
    let payload = parse_json(text).and_then(|v| JobEvent::from_payload(&v));
    for ev in [payload, job_event_line(text)].into_iter().flatten() {
        prop_assert_eq!(job_event_line(&ev.to_line()), Some(ev), "{:?}", text);
    }
    for rec in [
        RunRecord::parse_line(text).ok(),
        RunRecord::from_payload(text),
    ]
    .into_iter()
    .flatten()
    {
        prop_assert_eq!(
            RunRecord::parse_line(&rec.to_line()).ok(),
            Some(rec),
            "{:?}",
            text
        );
    }
}

/// Writes `bytes` as a whole journal file and resumes it: the load must
/// succeed, every line it can parse must be replayed, and its counters
/// must account for no more lines than the file holds.
fn check_journal_file(dir: &Path, bytes: &[u8]) {
    let path = dir.join("journal.jsonl");
    std::fs::write(&path, bytes).expect("write journal");
    let journal = Journal::resume(&path).expect("a readable journal always resumes");
    let lines: Vec<&[u8]> = bytes
        .split(|&b| b == b'\n')
        .filter(|l| std::str::from_utf8(l).map_or(true, |s| !s.trim().is_empty()))
        .collect();
    prop_assert!(journal.corrupt() <= journal.skipped());
    prop_assert!(journal.replay_len() + journal.skipped() <= lines.len());
    for line in &lines {
        if let Some(rec) = std::str::from_utf8(line)
            .ok()
            .and_then(|l| RunRecord::parse_line(l).ok())
        {
            prop_assert!(journal.lookup(rec.key).is_some(), "{:?}", rec.key);
        }
    }
}

/// Writes `bytes` as a daemon's whole job journal and opens the daemon
/// over it: the open must succeed, skip no more lines than the file
/// holds, leave no job running, and a second open must rebuild the same
/// table from what the first one left.
fn check_job_journal(dir: &Path, bytes: &[u8]) {
    let root = dir.join("daemon");
    std::fs::create_dir_all(&root).expect("daemon root");
    std::fs::write(root.join("jobs.jsonl"), bytes).expect("write job journal");
    let open = || {
        let cfg = DaemonConfig::new(&root, dir.join("unused.sock"));
        let resolver = Arc::new(|_: &MatrixSpec| Err("never resolved".to_owned()));
        Daemon::open(cfg, resolver).expect("a readable job journal always opens")
    };
    let lines = bytes
        .split(|&b| b == b'\n')
        .filter(|l| std::str::from_utf8(l).map_or(true, |s| !s.trim().is_empty()))
        .count();
    let daemon = open();
    prop_assert!(
        daemon.log_skipped() <= lines,
        "{} > {}",
        daemon.log_skipped(),
        lines
    );
    let jobs = daemon.list();
    prop_assert!(
        jobs.iter().all(|j| j.status != JobStatus::Running),
        "{:?}",
        jobs
    );
    drop(daemon);
    prop_assert_eq!(open().list(), jobs);
}

/// Overwrites a stored cache entry with `bytes` and probes it: a hit
/// must be the probed key's record, anything else must be reported
/// `Corrupt` with the entry removed.
fn check_cache_entry(dir: &Path, bytes: &[u8]) {
    let cache = ResultCache::open(dir.join("cache")).expect("open cache");
    let rec = opt_record();
    cache.store(&rec).expect("store entry");
    let entry = std::fs::read_dir(cache.root())
        .expect("cache root")
        .flat_map(|shard| std::fs::read_dir(shard.expect("shard").path()).expect("shard dir"))
        .map(|e| e.expect("entry").path())
        .next()
        .expect("one stored entry");
    std::fs::write(&entry, bytes).expect("overwrite entry");
    match cache.lookup(rec.key) {
        CacheLookup::Hit(hit) => prop_assert_eq!(hit.key, rec.key),
        CacheLookup::Corrupt => prop_assert!(!entry.exists(), "corrupt entry kept"),
        CacheLookup::Miss => panic!("an existing entry probed as a miss"),
    }
    std::fs::remove_dir_all(dir.join("cache")).ok();
}

/// The corpus's `--optimize` record, parsed.
fn opt_record() -> RunRecord {
    corpus()
        .iter()
        .filter_map(|l| RunRecord::parse_line(l).ok())
        .find(|r| r.outcome.metrics.as_ref().is_some_and(|m| m.opt.is_some()))
        .expect("an optimized record")
}

#[test]
fn corpus_lines_are_accepted_by_their_parsers() {
    let c = corpus();
    assert!(c.iter().any(|l| RunRecord::parse_line(l).is_ok()));
    assert!(c
        .iter()
        .any(|l| RunRecord::from_payload(l).is_some_and(|r| r
            .outcome
            .metrics
            .as_ref()
            .is_some_and(|m| m.opt.is_some()))));
    assert!(c.iter().any(|l| RunRecord::from_payload(l).is_some()));
    assert!(c.iter().any(|l| parse_json(l)
        .and_then(|v| MatrixSpec::from_json(&v))
        .is_some()));
    assert!(c
        .iter()
        .any(|l| matches!(job_event_line(l), Some(JobEvent::Submitted { .. }))));
    assert!(c
        .iter()
        .any(|l| matches!(job_event_line(l), Some(JobEvent::Transition { .. }))));
    for line in c {
        check_boundaries(line);
    }
}

#[test]
fn non_finite_numbers_never_reach_the_writer() {
    // A record whose energy overflows `f64`, or whose derived stall or
    // energy total overflows, must be rejected on read: the writer
    // refuses non-finite numbers and derives both totals, so accepting
    // it would turn a corrupt journal line into a panic at write time.
    let payload = corpus()
        .iter()
        .find(|l| RunRecord::from_payload(l).is_some_and(|r| r.outcome.metrics.is_some()))
        .expect("a record with metrics");
    // Sets each `"key":` value that follows `block` in the payload.
    let set = |block: &str, fields: &[(&str, &str)]| {
        let mut out = payload.clone();
        let from = out.find(block).expect("block");
        for (key, value) in fields {
            let key = format!("\"{key}\":");
            let at = from + out[from..].find(&key).expect("field") + key.len();
            let end = at + out[at..].find([',', '}']).expect("number end");
            out.replace_range(at..end, value);
        }
        out
    };
    let max = u64::MAX.to_string();
    for overflowing in [
        set("\"energy_fj\"", &[("compute", "1e999")]),
        set("\"energy_fj\"", &[("compute", "1e308"), ("mde", "1e308")]),
        set("\"stalls\"", &[("lsq_alloc", &max), ("token", "1")]),
    ] {
        assert!(parse_json(&overflowing).is_some(), "still well-formed JSON");
        assert!(RunRecord::from_payload(&overflowing).is_none());
        check_boundaries(&overflowing);
    }
}

/// The two-job matrix the shard-worker cases dispatch from.
fn shard_matrix() -> (Vec<SweepJob>, SweepConfig) {
    let jobs = ["shard-a", "shard-b"].map(|name| {
        let (region, binding) = store_load_region(name);
        SweepJob::new(name, region, binding)
    });
    (
        jobs.to_vec(),
        SweepConfig::default().with_invocations(2).with_threads(1),
    )
}

/// A valid dispatch header naming `journal`.
fn shard_header(journal: &Path) -> String {
    let journal = escape(&journal.display().to_string());
    format!("{{\"shard\":\"{SHARD_SCHEMA}\",\"index\":0,\"journal\":\"{journal}\"}}\n")
}

/// The journal a dispatch header line names, if the line is a valid
/// header.
fn named_journal(line: &[u8]) -> Option<PathBuf> {
    let v = parse_json(std::str::from_utf8(line).ok()?.trim())?;
    v.get("index")?.as_u64()?;
    (v.get("shard")?.as_str()? == SHARD_SCHEMA).then_some(())?;
    Some(PathBuf::from(v.get("journal")?.as_str()?))
}

/// Every cell of the matrix as batch lines, one per job, then the end
/// marker.
fn shard_body(jobs: &[SweepJob], cfg: &SweepConfig) -> String {
    let mut body = String::new();
    let cells = enumerate_cells(jobs, cfg);
    for group in cells.chunk_by(|a, b| a.job == b.job) {
        let entries: Vec<String> = group
            .iter()
            .map(|c| {
                let (job, variant, key) = (c.job, c.variant, c.key);
                format!("{{\"job\":{job},\"variant\":{variant},\"key\":\"{key}\"}}")
            })
            .collect();
        body += &format!("{{\"batch\":[{}]}}\n", entries.join(","));
    }
    body + "{\"end\":true}\n"
}

/// Every line a worker wrote to its stdout, as the supervisor reads it.
fn worker_lines(mut out: &[u8]) -> Vec<WorkerLine> {
    let mut buf = Vec::new();
    std::iter::from_fn(|| match read_worker_line(&mut out, &mut buf) {
        WorkerLine::Closed => None,
        line => Some(line),
    })
    .collect()
}

/// Stands in for a supervisor that keeps the pipe open: without it the
/// worker reads EOF after the cell list as a dead supervisor and cancels.
struct HoldOpen;

impl Read for HoldOpen {
    fn read(&mut self, _buf: &mut [u8]) -> std::io::Result<usize> {
        loop {
            std::thread::park();
        }
    }
}

/// Feeds `stdin` to a shard worker whose journal is `journal` and checks
/// its outcome against the matrix's verified cell keys. Behind a valid
/// header, no cell line can fail the worker: each bad one is a counted
/// protocol error.
fn check_shard_worker(
    jobs: &[SweepJob],
    cfg: &SweepConfig,
    journal: &Path,
    stdin: Vec<u8>,
    valid_header: bool,
) {
    // Hold the pipe open only when the end marker survived intact: a
    // worker still waiting for it must see EOF, not block forever.
    let intact = stdin.split(|&b| b == b'\n').any(|l| l == b"{\"end\":true}");
    let lines = stdin.split(|&b| b == b'\n').count();
    let header = stdin
        .split(|&b| b == b'\n')
        .next()
        .unwrap_or_default()
        .to_vec();
    let input = std::io::Cursor::new(stdin);
    let mut out = Vec::new();
    let outcome = if intact {
        run_shard_worker(jobs, cfg, input.chain(HoldOpen), &mut out)
    } else {
        run_shard_worker(jobs, cfg, input, &mut out)
    };
    // Every line is an ack or a beat. Acks count the worker's batches in
    // order, one line each, and each cell run is a `start` then its
    // `done`.
    let read = worker_lines(&out);
    prop_assert!(!read.contains(&WorkerLine::Malformed), "{:?}", read);
    let acks: Vec<_> = read
        .iter()
        .filter(|l| matches!(l, WorkerLine::Ack(_)))
        .collect();
    prop_assert!(
        acks.len() < lines,
        "{} acks for {} lines",
        acks.len(),
        lines
    );
    for (i, ack) in acks.iter().enumerate() {
        prop_assert_eq!(**ack, WorkerLine::Ack(i as u64 + 1));
    }
    let beats: Vec<_> = read
        .iter()
        .filter(|l| matches!(l, WorkerLine::Start(_) | WorkerLine::Done(_)))
        .collect();
    for pair in beats.chunks(2) {
        match pair {
            [WorkerLine::Start(a), WorkerLine::Done(b)] => prop_assert_eq!(a, b),
            _ => panic!("unbracketed beats {pair:?}"),
        }
    }
    let started = beats.len() / 2;
    match outcome {
        Err(e) => {
            prop_assert!(!valid_header, "a valid header's worker failed: {}", e);
            // A mutated header is refused, unless it still parses and
            // names a journal in a directory that does not exist.
            if e.kind() != std::io::ErrorKind::InvalidData {
                let named = named_journal(&header);
                prop_assert!(
                    named.is_some_and(|p| !p.parent().is_some_and(Path::is_dir)),
                    "{}",
                    e
                );
            }
            prop_assert!(!journal.exists(), "a refused header opened the journal");
        }
        Ok(summary) => {
            let cells = enumerate_cells(jobs, cfg);
            prop_assert!(summary.executed + summary.replayed <= cells.len() * 2);
            prop_assert!(summary.executed <= started);
            if !journal.exists() {
                prop_assert_eq!(summary.executed, 0);
                return;
            }
            let recorded = Journal::resume(journal).expect("the worker's journal resumes");
            let verified = cells
                .iter()
                .filter(|c| recorded.lookup(c.key).is_some())
                .count();
            prop_assert_eq!(
                recorded.replay_len(),
                verified,
                "a record for an unverified key"
            );
            prop_assert_eq!(recorded.replay_len(), summary.executed);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn boundary_parsers_survive_arbitrary_bytes(
        pick in 0usize..64,
        edits in proptest::collection::vec((any::<u16>(), any::<u8>(), any::<u8>()), 0..6),
        tail in proptest::collection::vec(any::<u8>(), 0..24),
    ) {
        let c = corpus();
        let text = mutate(&c[pick % c.len()], &edits, &tail);
        check_boundaries(&text);
    }

    #[test]
    fn persisted_files_survive_arbitrary_bytes(
        pick in 0usize..64,
        edits in proptest::collection::vec((any::<u16>(), any::<u8>(), any::<u8>()), 0..6),
        tail in proptest::collection::vec(any::<u8>(), 0..24),
    ) {
        let c = corpus();
        let bytes = mutate_bytes(&c[pick % c.len()], &edits, &tail);
        let dir = scratch_dir("files");
        check_journal_file(&dir, &bytes);
        check_job_journal(&dir, &bytes);
        check_cache_entry(&dir, &bytes);
        std::fs::remove_dir_all(&dir).ok();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn shard_worker_survives_arbitrary_stdin(
        mutate_header in any::<bool>(),
        edits in proptest::collection::vec((any::<u16>(), any::<u8>(), any::<u8>()), 0..6),
        tail in proptest::collection::vec(any::<u8>(), 0..24),
    ) {
        let (jobs, cfg) = shard_matrix();
        let dir = scratch_dir("shard");
        let journal = dir.join("shard-0.jsonl");
        let header = shard_header(&journal);
        // A mutated header ends the input: whatever journal it may name,
        // the worker reads no batch and so executes nothing.
        let stdin = if mutate_header {
            let seed = if edits.len() % 2 == 0 { header } else { String::new() };
            mutate_bytes(&seed, &edits, &tail)
        } else {
            let mut stdin = header.into_bytes();
            stdin.extend(mutate_bytes(&shard_body(&jobs, &cfg), &edits, &tail));
            stdin
        };
        check_shard_worker(&jobs, &cfg, &journal, stdin, !mutate_header);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A worker's stdout as the supervisor sees it: valid acks and beats
    /// with random edits, plus a line over the length cap. Each line
    /// reads as the ack or beat it is by the JSON parser's account;
    /// everything else is a protocol error.
    #[test]
    fn supervisor_reads_any_worker_stdout_as_acks_or_protocol_errors(
        edits in proptest::collection::vec((any::<u16>(), any::<u8>(), any::<u8>()), 0..6),
        tail in proptest::collection::vec(any::<u8>(), 0..24),
        oversized in 0usize..4,
    ) {
        let key = RunKey(0x0123_4567_89ab_cdef);
        let mut seed = format!("{{\"start\": \"{key}\"}}\n{{\"alive\": true}}\n{{\"done\": \"{key}\"}}\n");
        seed.extend((1..=3).map(|n| format!("{{\"ack\": {n}}}\n")));
        seed.insert_str(seed.len() * oversized / 4, &format!("{{\"ack\": {}}}\n", "7".repeat(MAX_WORKER_LINE_LEN)));
        let bytes = mutate_bytes(&seed, &edits, &tail);
        let lines: Vec<&[u8]> = bytes.split_inclusive(|&b| b == b'\n').collect();
        let read = worker_lines(&bytes);
        prop_assert_eq!(read.len(), lines.len());
        for (line, got) in lines.iter().zip(read) {
            prop_assert_eq!(got, expected_worker_line(line), "{:?}", String::from_utf8_lossy(line));
        }
    }
}

/// What a worker's stdout line is by `parse_json`'s account: a one-field
/// object holding an ack count, a `start` or `done` key, or `alive:
/// true`, within the length cap. Worker lines carry no escapes.
fn expected_worker_line(line: &[u8]) -> WorkerLine {
    let field = std::str::from_utf8(line)
        .ok()
        .filter(|l| line.len() <= MAX_WORKER_LINE_LEN && !l.contains('\\'))
        .and_then(parse_json)
        .and_then(|v| match v {
            Json::Obj(mut fields) if fields.len() == 1 => fields.pop(),
            _ => None,
        });
    let Some((name, value)) = field else {
        return WorkerLine::Malformed;
    };
    let key = value
        .as_str()
        .filter(|k| k.bytes().all(|b| b.is_ascii_hexdigit()))
        .and_then(RunKey::parse);
    let line = match (name.as_str(), &value) {
        ("ack", Json::Num(raw)) if raw.bytes().all(|b| b.is_ascii_digit()) => {
            raw.parse().ok().map(WorkerLine::Ack)
        }
        ("start", _) => key.map(WorkerLine::Start),
        ("done", _) => key.map(WorkerLine::Done),
        ("alive", Json::Bool(true)) => Some(WorkerLine::Alive),
        _ => None,
    };
    line.unwrap_or(WorkerLine::Malformed)
}

/// Panics on any thread since the daemon fixture started. Handler
/// threads are detached, so a panic there would otherwise only show as
/// a closed connection.
static PANICS: AtomicUsize = AtomicUsize::new(0);

/// An in-process daemon serving on a socket, with job 1 settled.
struct Served {
    daemon: Arc<Daemon>,
    socket: PathBuf,
    settled: JobSnapshot,
}

/// The shared daemon fixture: a one-region resolver capped at two
/// invocations (a mutated submit must not start a long job) and a
/// small admission bound.
fn served() -> &'static Served {
    static SERVED: OnceLock<Served> = OnceLock::new();
    SERVED.get_or_init(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            PANICS.fetch_add(1, Ordering::SeqCst);
            prev(info);
        }));
        let dir = scratch_dir("daemon");
        let mut cfg = DaemonConfig::new(dir.join("state"), dir.join("d.sock"));
        cfg.capacity = 4;
        let resolver = Arc::new(|spec: &MatrixSpec| {
            let (region, binding) = store_load_region("handler");
            let cfg = SweepConfig::default()
                .with_invocations(spec.invocations.min(2))
                .with_threads(1);
            Ok((vec![SweepJob::new("handler", region, binding)], cfg))
        });
        let daemon = Arc::new(Daemon::open(cfg.clone(), resolver).expect("open daemon"));
        {
            let daemon = Arc::clone(&daemon);
            std::thread::spawn(move || daemon.serve());
        }
        let socket = cfg.socket;
        let job = daemon.submit(MatrixSpec::default()).expect("admit job 1");
        let lines = exchange(&socket, format!("{}\n", request_corpus()[2]).as_bytes());
        let last = lines.last().expect("watch answers");
        assert_eq!(last.get("state").and_then(Json::as_str), Some("settled"));
        let settled = daemon.snapshot(job).expect("job 1");
        Served {
            daemon,
            socket,
            settled,
        }
    })
}

/// Valid request lines: submit, then status, watch, fetch and cancel of
/// the settled job 1.
fn request_corpus() -> [String; 5] {
    let spec = MatrixSpec {
        invocations: 2,
        ..MatrixSpec::default()
    };
    let head = "{\"jobs\": \"nachos-jobs-v1\", \"cmd\": ";
    [
        format!("{head}\"submit\", \"spec\": {}}}", spec.to_json()),
        format!("{head}\"status\", \"job\": 1}}"),
        format!("{head}\"watch\", \"job\": 1}}"),
        format!("{head}\"fetch\", \"job\": 1}}"),
        format!("{head}\"cancel\", \"job\": 1}}"),
    ]
}

/// Sends `bytes` on a fresh connection, closes the write half and reads
/// every response line until the daemon closes the connection. Each
/// line must be a structured `nachos-jobs-v1` response.
fn exchange(socket: &Path, bytes: &[u8]) -> Vec<Json> {
    let mut conn = UnixStream::connect(socket).expect("connect to the daemon");
    conn.set_read_timeout(Some(Duration::from_secs(60)))
        .expect("read timeout");
    // The daemon may answer and hang up before reading everything (an
    // oversized line): a failed write is part of the contract.
    let _ = conn.write_all(bytes);
    let _ = conn.shutdown(std::net::Shutdown::Write);
    let mut responses = Vec::new();
    for line in BufReader::new(conn).lines() {
        let line = line.expect("a response line within the read timeout");
        let v = parse_json(&line).unwrap_or_else(|| panic!("unparsable response {line:?}"));
        prop_assert!(matches!(v, Json::Obj(_)), "{}", line);
        prop_assert_eq!(v.get("jobs").and_then(Json::as_str), Some("nachos-jobs-v1"));
        match v.get("ok") {
            Some(Json::Bool(true)) => {}
            Some(Json::Bool(false)) => prop_assert!(
                v.get("error").and_then(Json::as_str).is_some(),
                "a failure without an error tag: {}",
                line
            ),
            _ => panic!("a response without ok: {line}"),
        }
        responses.push(v);
    }
    responses
}

/// `true` if `to` is reachable from `from` along the legal edges.
fn reachable(from: JobStatus, to: JobStatus) -> bool {
    let all = [
        JobStatus::Queued,
        JobStatus::Running,
        JobStatus::Settled,
        JobStatus::Cancelled,
        JobStatus::Quarantined,
        JobStatus::DeadlineExceeded,
    ];
    let mut seen = vec![from];
    let mut i = 0;
    while let Some(&s) = seen.get(i) {
        for next in all {
            if JobStatus::can_transition(s, next) && !seen.contains(&next) {
                seen.push(next);
            }
        }
        i += 1;
    }
    seen.contains(&to)
}

/// One handler case: request bytes of the kind `pick` selects.
fn request_bytes(pick: usize, edits: &[Edit], tail: &[u8]) -> Vec<u8> {
    let corpus = request_corpus();
    match pick % 8 {
        // The tail goes on a line of its own, so an intact or lightly
        // edited request still reaches its command.
        k @ 0..=4 => mutate_bytes(&format!("{}\n", corpus[k]), edits, tail),
        // Random bytes, often not UTF-8.
        5 => tail.to_vec(),
        // One byte past the request bound.
        6 => {
            let mut line = corpus[1].clone().into_bytes();
            line.resize(MAX_REQUEST_LEN + 1 + tail.len(), b' ');
            line.push(b'\n');
            line
        }
        // Nested arrays and objects, up to the depth the bound allows.
        _ => {
            let depth = 1 + edits.len() * 10_000 + tail.len() * 100;
            let open = if pick < 32 { "[" } else { "{\"k\":" };
            let mut line = open.repeat(depth / open.len()).into_bytes();
            line.push(b'\n');
            line
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn daemon_handler_survives_arbitrary_requests(
        pick in 0usize..64,
        edits in proptest::collection::vec((any::<u16>(), any::<u8>(), any::<u8>()), 0..6),
        tail in proptest::collection::vec(any::<u8>(), 0..24),
    ) {
        let s = served();
        let before = s.daemon.list();
        exchange(&s.socket, &request_bytes(pick, &edits, &tail));
        prop_assert_eq!(PANICS.load(Ordering::SeqCst), 0, "a handler panicked");
        prop_assert_eq!(s.daemon.snapshot(1).as_ref(), Some(&s.settled));
        let after = s.daemon.list();
        for (b, a) in before.iter().zip(&after) {
            prop_assert!(
                reachable(b.status, a.status),
                "job {} moved {} -> {}",
                b.id,
                b.status,
                a.status
            );
        }
        let pong = exchange(&s.socket, b"{\"cmd\": \"ping\"}\n");
        prop_assert_eq!(pong.len(), 1);
        prop_assert_eq!(pong[0].get("pong"), Some(&Json::Bool(true)));
    }
}
