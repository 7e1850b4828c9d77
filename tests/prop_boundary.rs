//! Property: every parser at a trust boundary survives arbitrary bytes.
//!
//! Journal lines, heartbeat lines and daemon request specs arrive from
//! disk or from a socket client, so their parsers see whatever a torn
//! write, a flipped bit or a hostile peer hands them. Each case decodes a
//! byte vector lossily (as the line readers do) and feeds it to
//! `parse_json`, `RunRecord::parse_line`/`from_payload`,
//! `Heartbeat::from_line`/`from_payload` and `MatrixSpec::from_json`.
//! None may panic, and every value they accept must re-serialize to text
//! that parses back to an equal value.
//!
//! The same bytes, unmodified, are also written to disk as a whole
//! journal file and as a result-cache entry, then read back through
//! `Journal::resume` and `ResultCache::lookup`: both must return a
//! structured result (counted skips, `Corrupt`, or a verified record),
//! never panic.
//!
//! Purely random bytes almost never reach past the first syntax check,
//! so most cases start from a valid line of each kind and apply random
//! byte edits to it; one seed in the corpus is empty, which makes that
//! case purely random.

use std::path::{Path, PathBuf};
use std::sync::OnceLock;

use nachos::json::{checksum_unframe, escape, parse_json, Json};
use nachos::sweep::cache::{CacheLookup, ResultCache};
use nachos::sweep::daemon::MatrixSpec;
use nachos::sweep::heartbeat::{Heartbeat, HeartbeatPhase};
use nachos::sweep::journal::{Journal, RunKey, RunRecord};
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
            watchdog: Some((5_000, 700)),
            ideal: true,
            ..MatrixSpec::default()
        };
        corpus.push(spec.to_json());
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
        check_cache_entry(&dir, &bytes);
        std::fs::remove_dir_all(&dir).ok();
    }
}
