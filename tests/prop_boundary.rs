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
//! Purely random bytes almost never reach past the first syntax check,
//! so most cases start from a valid line of each kind and apply random
//! byte edits to it; one seed in the corpus is empty, which makes that
//! case purely random.

use std::sync::OnceLock;

use nachos::json::{checksum_unframe, escape, parse_json, Json};
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
        let dir = std::env::temp_dir().join("nachos-prop-boundary");
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("journal.jsonl");
        let journal = Journal::create(&path).expect("create journal");
        let _ = run_sweep_journaled(&jobs, &cfg, Some(&journal));
        drop(journal);
        let records = std::fs::read_to_string(&path).expect("read journal");
        std::fs::remove_file(&path).ok();

        let mut corpus = vec![String::new()];
        for line in records.lines().take(2) {
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

/// One byte edit: overwrite, insert or delete at a position taken
/// modulo the current length.
type Edit = (u16, u8, u8);

fn mutate(seed: &str, edits: &[Edit], tail: &[u8]) -> String {
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
    String::from_utf8_lossy(&bytes).into_owned()
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

#[test]
fn corpus_lines_are_accepted_by_their_parsers() {
    let c = corpus();
    assert!(c.iter().any(|l| RunRecord::parse_line(l).is_ok()));
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
}
