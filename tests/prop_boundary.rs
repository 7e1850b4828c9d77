//! Property: every parser at a trust boundary survives arbitrary bytes.
//!
//! Journal lines, heartbeat lines, job-journal lines and daemon request
//! specs arrive from disk or from a socket client, so their parsers see
//! whatever a torn write, a flipped bit or a hostile peer hands them.
//! Each case decodes a byte vector lossily (as the line readers do) and
//! feeds it to `parse_json`, `RunRecord::parse_line`/`from_payload`,
//! `Heartbeat::from_line`/`from_payload`, `JobEvent::from_payload` and
//! `MatrixSpec::from_json`.
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
//! The shard worker's stdin is the last boundary here: random and mutated
//! dispatch headers, and valid headers followed by mutated cell lists,
//! are fed to `run_shard_worker` over a two-job matrix. It must return
//! its counters or `InvalidData`, execute only cells whose key it
//! verified, and leave exactly those records in its shard journal.
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

use nachos::json::{checksum_unframe, escape, parse_json, Json};
use nachos::sweep::cache::{CacheLookup, ResultCache};
use nachos::sweep::daemon::{
    Daemon, DaemonConfig, JobEvent, JobSnapshot, JobStatus, MatrixSpec, MAX_REQUEST_LEN,
};
use nachos::sweep::heartbeat::{Heartbeat, HeartbeatPhase};
use nachos::sweep::journal::{Journal, RunKey, RunRecord};
use nachos::sweep::shard::{enumerate_cells, run_shard_worker, SHARD_SCHEMA};
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
        let beat = Heartbeat {
            seq: 7,
            phase: HeartbeatPhase::Start,
            cell: Some(RunKey(0x0123_4567_89ab_cdef)),
        };
        let line = beat.to_line();
        corpus.push(
            checksum_unframe(line.trim_end())
                .expect("framed")
                .to_owned(),
        );
        corpus.push(line);
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
    for beat in [Heartbeat::from_line(text), Heartbeat::from_payload(text)]
        .into_iter()
        .flatten()
    {
        prop_assert_eq!(
            Heartbeat::from_line(&beat.to_line()),
            Some(beat),
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
    assert!(c.iter().any(|l| Heartbeat::from_line(l).is_some()));
    assert!(c.iter().any(|l| Heartbeat::from_payload(l).is_some()));
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
    // A record whose energy overflows `f64` must be rejected on read:
    // the writer refuses non-finite numbers, so accepting it would turn
    // a corrupt journal line into a panic at report time.
    let payload = corpus()
        .iter()
        .find(|l| RunRecord::from_payload(l).is_some_and(|r| r.outcome.metrics.is_some()))
        .expect("a record with metrics");
    let at = payload.find("\"compute\":").expect("energy field") + "\"compute\":".len();
    let end = at + payload[at..].find([',', '}']).expect("number end");
    let overflowing = format!("{}1e999{}", &payload[..at], &payload[end..]);
    assert!(parse_json(&overflowing).is_some(), "still well-formed JSON");
    assert!(RunRecord::from_payload(&overflowing).is_none());
    check_boundaries(&overflowing);
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
    format!("{{\"shard\":\"{SHARD_SCHEMA}\",\"index\":0,\"journal\":\"{journal}\",\"heartbeat_ms\":1000}}\n")
}

/// Every cell of the matrix as dispatch lines, then the end marker.
fn shard_body(jobs: &[SweepJob], cfg: &SweepConfig) -> String {
    let mut body = String::new();
    for c in enumerate_cells(jobs, cfg) {
        let (job, variant, key) = (c.job, c.variant, c.key);
        body +=
            &format!("{{\"cell\":{{\"job\":{job},\"variant\":{variant},\"key\":\"{key}\"}}}}\n");
    }
    body + "{\"end\":true}\n"
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
    let input = std::io::Cursor::new(stdin);
    let outcome = if intact {
        run_shard_worker(jobs, cfg, input.chain(HoldOpen))
    } else {
        run_shard_worker(jobs, cfg, input)
    };
    match outcome {
        Err(e) => {
            prop_assert!(!valid_header, "a valid header's worker failed: {}", e);
            prop_assert_eq!(e.kind(), std::io::ErrorKind::InvalidData, "{}", e);
            prop_assert!(!journal.exists(), "a refused header opened the journal");
        }
        Ok(summary) => {
            let cells = enumerate_cells(jobs, cfg);
            prop_assert!(summary.executed + summary.replayed <= cells.len() * 2);
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
        // A mutated header ends the input: whatever path it might name,
        // the worker reads no end marker and so never opens a journal.
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
