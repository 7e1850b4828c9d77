//! Crash-recovery acceptance suite (DESIGN §Failure model).
//!
//! A sweep interrupted at any point — process kill, torn journal write,
//! cancellation — must resume from its durable journal and emit a report
//! **byte-identical** to an uninterrupted run, retry attempt logs
//! included. A job that repeatedly kills its workers must be quarantined
//! without poisoning the rest of the matrix.

use std::fs::OpenOptions;
use std::io::Write as _;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use nachos::json::{checksum_frame, checksum_unframe, parse_json, Json};
use nachos::sweep::cache::{CacheLookup, ResultCache};
use nachos::sweep::journal::{Journal, RunRecord};
use nachos::sweep::shard::{enumerate_cells, run_sweep_sharded, shard_dir, Cell, ShardConfig};
use nachos::sweep::{run_sweep, run_sweep_journaled, RunStatus, SweepConfig, SweepJob};
use nachos::CancelToken;
use nachos::{Backend, FaultKind, FaultPlan, FaultSpec};
use nachos_ir::{AffineExpr, Binding, IntOp, MemRef, RegionBuilder};
use nachos_workloads::{by_name, generate, generate_all};

fn tmp_path(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("nachos-resume-suite");
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir.join(name)
}

fn job(name: &str) -> SweepJob {
    let w = generate(&by_name(name).unwrap_or_else(|| panic!("unknown workload {name}")));
    SweepJob::new(w.spec.name, w.region, w.binding)
}

/// Two stores to one address: an ORDER token flows under the MDE
/// backends, so a `DropToken` fault deterministically deadlocks the
/// NACHOS-SW run (and a retry deadlocks again — a multi-attempt cell).
fn token_job(name: &str) -> SweepJob {
    let mut b = RegionBuilder::new(name);
    let g = b.global("g", 64, 0);
    let m = MemRef::affine(g, AffineExpr::zero());
    let x = b.input();
    b.store(m.clone(), &[x]);
    let y = b.int_op(IntOp::Add, &[x]);
    b.store(m, &[y]);
    SweepJob::new(
        name,
        b.finish(),
        Binding {
            base_addrs: vec![0x1_0000],
            ..Binding::default()
        },
    )
    .with_fault(FaultPlan::single(
        FaultSpec::new(FaultKind::DropToken, 0).on_backend(Backend::NachosSw),
    ))
}

/// The interrupt-and-resume contract, end to end: a journaled sweep dies
/// after finishing only a prefix of its jobs — with a torn half-written
/// record at the journal's tail, as a real `kill -9` mid-append leaves —
/// and the resumed sweep replays the survivors, re-executes the rest, and
/// reproduces the uninterrupted report byte for byte. The job list
/// includes a deadlock-injected run under a retry budget, so the replayed
/// cells carry multi-attempt logs, not just terminal statuses.
#[test]
fn interrupted_sweep_resumes_byte_identically() {
    let jobs = vec![job("gzip"), token_job("drop-token"), job("fft-2d")];
    let cfg = SweepConfig::default()
        .with_invocations(6)
        .with_retries(1)
        .with_threads(2);
    let variants = cfg.variants.len();

    // The reference: one uninterrupted, unjournaled run.
    let clean = run_sweep(&jobs, &cfg).to_json();

    // "Crash" after two of three jobs, then tear the journal's tail the
    // way an interrupted append would.
    let path = tmp_path("interrupt.jsonl");
    {
        let journal = Journal::create(&path).expect("create journal");
        let (_, stats) = run_sweep_journaled(&jobs[..2], &cfg, Some(&journal));
        assert_eq!(stats.executed, 2 * variants);
        assert_eq!(stats.journal_errors, 0);
    }
    let mut f = OpenOptions::new().append(true).open(&path).expect("open");
    write!(f, "{{\"journal\": \"nachos-journal-v1\", \"key\": \"dead").expect("torn write");
    drop(f);

    // Resume over the full job list: the two finished jobs replay, the
    // torn record is skipped, the third job runs live.
    let journal = Journal::resume(&path).expect("resume journal");
    assert_eq!(journal.replay_len(), 2 * variants);
    assert_eq!(journal.skipped(), 1, "the torn tail record is skipped");
    let (resumed, stats) = run_sweep_journaled(&jobs, &cfg, Some(&journal));
    assert_eq!(stats.replayed, 2 * variants);
    assert_eq!(stats.executed, variants);
    assert_eq!(
        resumed.to_json(),
        clean,
        "resumed report diverges from the uninterrupted run"
    );
    // The deadlock cell retried once under the budget, and the attempt
    // log survives the report round-trip.
    assert!(resumed.to_json().contains("\"attempts\": 2"));

    // A second resume finds everything journaled and executes nothing.
    let journal = Journal::resume(&path).expect("resume journal");
    assert_eq!(journal.replay_len(), 3 * variants);
    let (replayed, stats) = run_sweep_journaled(&jobs, &cfg, Some(&journal));
    assert_eq!(stats.executed, 0);
    assert_eq!(stats.replayed, 3 * variants);
    assert_eq!(replayed.to_json(), clean);
    std::fs::remove_file(&path).ok();
}

/// The `nachos-sweep-v4` → `v5` migration. A `nachos-journal-v2` record
/// line, as the v4 code wrote it for gzip's `nachos` cell under
/// `--optimize` (dead `opt` keys included), sits in a journal beside
/// current records of the other cells. Resume skips it as a foreign
/// schema, not as corruption; its cell re-executes; and the report is
/// byte-identical to an uninterrupted run. The same bytes as a v4 cache
/// entry, at the v4 entry path, are a miss and stay on disk.
#[test]
fn v4_journal_lines_rerun_and_v4_cache_entries_miss() {
    const V4_LINE: &str = r#"8a1dc31dec38f50e {"journal": "nachos-journal-v2", "key": "96c41a1939177271", "job": "gzip", "variant": "nachos", "status": "ok", "attempts": [{"status": "ok", "seed": 1354152592518245887}], "metrics": {"cycles": 1076, "stalls": {"lsq_alloc": 0, "lsq_search": 0, "token": 0, "may_gate": 0, "comparator": 0, "mem_port": 0}, "events": {"int_ops": 248, "fp_ops": 0, "data_links": 248, "mem_links": 32, "may_checks": 0, "must_tokens": 0, "l1_accesses": 16, "lsq_allocs": 0, "lsq_bank_overflows": 0, "lsq_bloom_queries": 0, "lsq_bloom_hits": 0, "lsq_cam_loads": 0, "lsq_cam_stores": 0, "forwards": 0}, "energy_fj": {"compute": 272800.0, "mde": 0.0, "lsq_bloom": 0.0, "lsq_cam": 0.0, "l1": 83200.0}, "l1": {"hits": 0, "misses": 16, "writebacks": 0}, "llc": {"hits": 0, "misses": 16, "writebacks": 0}, "comparator_sites": 0, "opt": {"order_before": 0, "may_before": 0, "order_removed": 0, "may_coalesced": 0, "may_upgraded": 0, "may_upgraded_edges": 0}}}"#;
    let jobs = vec![job("gzip")];
    let cfg = SweepConfig::default()
        .with_invocations(4)
        .with_optimize(true)
        .with_threads(1);
    let cells = enumerate_cells(&jobs, &cfg);
    let key = cells[2].key;
    // The v4 line names the cell by its v4 key, which v5 did not change;
    // re-keying keeps the check meaningful if a later change moves the
    // fingerprint.
    let payload = checksum_unframe(V4_LINE).expect("the captured frame verifies");
    let v4_key = parse_json(payload)
        .expect("JSON")
        .get("key")
        .and_then(Json::as_str)
        .map(str::to_owned)
        .expect("key");
    let v4_line = checksum_frame(&payload.replace(&v4_key, &key.to_string()));
    let clean = run_sweep(&jobs, &cfg).to_json();

    let path = tmp_path("v4-migration.jsonl");
    {
        let journal = Journal::create(&path).expect("create journal");
        let (_, stats) = run_sweep_journaled(&jobs, &cfg, Some(&journal));
        assert_eq!(stats.executed, cells.len());
    }
    let current = std::fs::read_to_string(&path).expect("read journal");
    let mut mixed = format!("{v4_line}\n");
    for line in current.lines() {
        if !line.contains(&format!("\"key\": \"{key}\"")) {
            mixed += &format!("{line}\n");
        }
    }
    std::fs::write(&path, mixed).expect("write mixed journal");

    let journal = Journal::resume(&path).expect("resume journal");
    assert_eq!(journal.skipped(), 1, "the v4 line is skipped");
    assert_eq!(journal.corrupt(), 0, "a foreign schema is not corruption");
    assert_eq!(journal.replay_len(), cells.len() - 1);
    assert!(journal.lookup(key).is_none());
    let (resumed, stats) = run_sweep_journaled(&jobs, &cfg, Some(&journal));
    assert_eq!(stats.replayed, cells.len() - 1);
    assert_eq!(stats.executed, 1, "the v4 line's cell re-executes");
    assert_eq!(resumed.to_json(), clean);
    std::fs::remove_file(&path).ok();

    let root = tmp_path("v4-cache");
    std::fs::remove_dir_all(&root).ok();
    let cache = ResultCache::open(&root).expect("open cache");
    let hex = key.to_string();
    let v4_entry = root.join(&hex[..2]).join(format!("{hex}.rec"));
    std::fs::create_dir_all(v4_entry.parent().expect("fan-out dir")).expect("mkdir");
    std::fs::write(&v4_entry, format!("{v4_line}\n")).expect("write v4 entry");
    assert_eq!(cache.lookup(key), CacheLookup::Miss);
    assert!(v4_entry.exists(), "a v4 entry is left on disk");
    std::fs::remove_dir_all(&root).ok();
}

/// The quarantine acceptance bar: the full 27-workload Table II matrix
/// under five variants (the bench matrix plus the IDEAL oracle) with one
/// job injected to panic on every attempt. The poison job's cells exhaust
/// their retry budget and land as `quarantined`; the other 130 runs
/// complete and match the reference; and the whole report — quarantine
/// details and per-attempt seeds included — is byte-identical across
/// worker-thread counts.
#[test]
fn quarantined_poison_job_leaves_the_rest_of_the_sweep_intact() {
    let mut jobs: Vec<SweepJob> = generate_all()
        .into_iter()
        .map(|w| SweepJob::new(w.spec.name, w.region, w.binding))
        .collect();
    assert_eq!(jobs.len(), 27, "Table II has 27 workloads");
    let victim = 11;
    let victim_name = jobs[victim].name.clone();
    jobs[victim].fault = FaultPlan::single(FaultSpec::new(FaultKind::PanicOnEvent, 0));

    let cfg = SweepConfig::default()
        .with_invocations(4)
        .with_variants(nachos::sweep::SweepVariant::bench_matrix())
        .with_ideal()
        .with_retries(2)
        .with_threads(4);
    assert_eq!(cfg.variants.len(), 5);

    let sweep = run_sweep(&jobs, &cfg);
    let statuses = sweep.statuses();
    assert_eq!(statuses.len(), 27 * 5);

    let quarantined: Vec<_> = statuses
        .iter()
        .filter(|(_, _, s)| *s == RunStatus::Quarantined)
        .collect();
    assert!(
        !quarantined.is_empty(),
        "the poison job must exhaust its retries into quarantine"
    );
    assert!(
        quarantined.iter().all(|(job, _, _)| *job == victim_name),
        "quarantine must not leak beyond the poison job: {quarantined:?}"
    );
    for (j, v, s) in &statuses {
        if *j != victim_name {
            assert_eq!(
                *s,
                RunStatus::Ok,
                "{j} [{v}]: poison job corrupted an unrelated run"
            );
        }
    }
    let ok = statuses
        .iter()
        .filter(|(_, _, s)| *s == RunStatus::Ok)
        .count();
    assert!(ok >= 130, "only {ok} of 135 runs completed");

    // Quarantined cells are reported — with their attempt history — not
    // silently dropped.
    let json = sweep.to_json();
    assert!(json.contains("\"status\": \"quarantined\""));
    assert!(json.contains("\"attempts\": 3"));
    assert!(json.contains("quarantined after 3 panicking attempts"));

    // Determinism: the same matrix on one thread reproduces the report
    // byte for byte, per-attempt seeds and all.
    let single = run_sweep(&jobs, &cfg.clone().with_threads(1));
    assert_eq!(single.to_json(), json);
}

/// The process-isolation acceptance bar: a sharded campaign whose worker
/// processes all die by SIGKILL, resumed over a merged journal that holds
/// a completed prefix and the torn record a supervisor killed mid-merge
/// leaves, must exhaust its respawn budget, hand the unfinished cells to
/// the inline pass, and still emit the uninterrupted single-process
/// report byte for byte. A `nachos-shard-v3` shard directory beside the
/// journal is removed, and the cells it held re-run.
#[test]
fn sigkilled_workers_resume_byte_identically() {
    let jobs = vec![job("gzip"), token_job("drop-token"), job("fft-2d")];
    let cfg = SweepConfig::default()
        .with_invocations(6)
        .with_retries(1)
        .with_threads(2);
    let cells = enumerate_cells(&jobs, &cfg);
    let clean = run_sweep(&jobs, &cfg).to_json();

    // A donor run supplies authentic journal records; the "crashed"
    // campaign merged only a prefix of them, then tore the next.
    let dir = tmp_path("sigkill-shard");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let donor_path = dir.join("donor.jsonl");
    {
        let donor = Journal::create(&donor_path).expect("create donor");
        let _ = run_sweep_journaled(&jobs, &cfg, Some(&donor));
    }
    let donor_lines: Vec<String> = std::fs::read_to_string(&donor_path)
        .expect("read donor")
        .lines()
        .map(str::to_owned)
        .collect();
    assert_eq!(donor_lines.len(), cells.len());
    let done = cells.len() / 2;
    let campaign = dir.join("campaign.jsonl");
    let torn = &donor_lines[done][..donor_lines[done].len() / 2];
    let merged = donor_lines[..done].join("\n") + "\n" + torn;
    std::fs::write(&campaign, merged).expect("write merged journal");
    let leftovers = shard_dir(&campaign);
    std::fs::create_dir_all(&leftovers).expect("shard dir");
    let shard_journal = leftovers.join("shard-0000.jsonl");
    std::fs::write(&shard_journal, donor_lines[done..].join("\n")).expect("v3 shard journal");

    // Every respawned worker dies by SIGKILL before reading its header.
    let mut scfg = ShardConfig::new(
        2,
        vec!["/bin/sh".into(), "-c".into(), "kill -9 $$".into()],
        &campaign,
    );
    scfg.resume = true;
    scfg.max_respawns = 1;
    scfg.poll = Duration::from_millis(2);
    scfg.silence_budget = Duration::ZERO;
    let (sharded, sweep_stats, stats) =
        run_sweep_sharded(&jobs, &cfg, &scfg).expect("sharded sweep");
    assert!(!leftovers.exists(), "the v3 shard directory is removed");
    assert_eq!(stats.received, 0, "no worker wrote a record");
    assert_eq!(stats.corrupt_lines, 1, "the torn record fails its frame");
    assert!(stats.respawns >= 1, "dead workers are respawned");
    assert_eq!(
        stats.quarantined, 0,
        "strikes stay under the default budget"
    );
    assert_eq!(stats.abandoned, cells.len() - done);
    assert_eq!(sweep_stats.replayed, done, "the completed prefix replays");
    assert_eq!(sweep_stats.executed, cells.len() - done);
    assert_eq!(
        sharded.to_json(),
        clean,
        "SIGKILL'd workers must not change a single report byte"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// A hostile cell that kills every worker that touches it is quarantined
/// *by the supervisor* — attributed through the `start` line its worker
/// wrote, charged a strike per dead worker, and parked with a
/// deterministic record — while every other cell completes normally.
#[test]
fn cell_that_kills_workers_is_quarantined_by_the_supervisor() {
    let jobs = vec![job("gzip"), job("fft-2d")];
    let mut cfg = SweepConfig::default().with_invocations(2);
    cfg.quarantine_after = 1;
    let cells = enumerate_cells(&jobs, &cfg);
    let dir = tmp_path("supervisor-quarantine");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");

    // Every worker writes the hostile cell's `start` line and exits
    // without a record: it died executing that cell. The victim's job is
    // the first in the queue, so slot 0 — the first spawned — holds it;
    // slot 1's worker names a cell its slot does not hold, which costs
    // nothing.
    let victim = cells[0];
    assert_eq!(victim.job, 0);
    let worker = sh(format!("{}; exit 0", echo_start(victim)));
    let mut scfg = ShardConfig::new(2, worker, dir.join("campaign.jsonl"));
    scfg.max_respawns = 0;
    scfg.poll = Duration::from_millis(2);
    scfg.silence_budget = Duration::ZERO;
    let (sharded, _, stats) = run_sweep_sharded(&jobs, &cfg, &scfg).expect("sharded sweep");
    assert_eq!(stats.quarantined, 1);
    assert_eq!(stats.abandoned, cells.len() - 1);

    let victim_job = jobs[victim.job].name.clone();
    let victim_variant = cfg.variants[victim.variant].label.clone();
    for (j, v, s) in sharded.statuses() {
        if j == victim_job && v == victim_variant {
            assert_eq!(s, RunStatus::Quarantined, "{j} [{v}]");
        } else {
            assert_eq!(s, RunStatus::Ok, "{j} [{v}]: quarantine must not leak");
        }
    }
    assert!(sharded
        .to_json()
        .contains("quarantined: cell killed or stalled 1 worker processes"));
    std::fs::remove_dir_all(&dir).ok();
}

/// A cancelled campaign charges no strike: a worker that ignores the
/// cancel line is SIGKILLed after the grace period, and the cell it was
/// running is reported cancelled, never quarantined, so a resume re-runs
/// it instead of replaying a quarantine.
#[test]
fn a_cancelled_cell_is_never_quarantined() {
    let jobs = vec![job("gzip")];
    let mut cfg = SweepConfig::default().with_invocations(2);
    cfg.quarantine_after = 1;
    let token = CancelToken::new();
    cfg.sim.cancel = Some(token.clone());
    let cells = enumerate_cells(&jobs, &cfg);
    let victim = cells[0];
    let dir = tmp_path("cancel-no-strike");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let campaign = dir.join("campaign.jsonl");
    let worker = sh(format!("{}; exec sleep 30", echo_start(victim)));
    let mut scfg = ShardConfig::new(1, worker, &campaign);
    scfg.max_respawns = 0;
    scfg.poll = Duration::from_millis(10);
    scfg.silence_budget = Duration::ZERO;
    let trip = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(300));
        token.cancel();
    });
    let t0 = Instant::now();
    let (sharded, _, stats) = run_sweep_sharded(&jobs, &cfg, &scfg).expect("sharded sweep");
    trip.join().expect("trip thread");
    assert!(t0.elapsed() < Duration::from_secs(10), "{:?}", t0.elapsed());
    assert_eq!(stats.quarantined, 0);
    let victim_variant = cfg.variants[victim.variant].label.clone();
    for (_, v, s) in sharded.statuses() {
        assert_ne!(s, RunStatus::Quarantined, "[{v}]");
        if v == victim_variant {
            assert_eq!(s, RunStatus::Cancelled);
        }
    }
    let journal = Journal::resume(&campaign).expect("resume merged journal");
    assert!(
        journal.lookup(victim.key).is_none(),
        "a cancelled cell is never journaled"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// The record trust boundary: a worker's record is accepted only for an
/// unrecorded cell of the group its slot holds. A record for a queued
/// job's cell (a valid frame around a doctored cycle count), a second
/// copy of a record already accepted, and a record with a flipped byte
/// each kill the worker as a protocol error. None of them reaches the
/// merged journal or the result cache, and the report equals
/// `run_sweep`'s.
#[test]
fn records_a_slot_does_not_hold_are_protocol_errors() {
    let jobs = vec![job("gzip"), job("fft-2d")];
    let cfg = SweepConfig::default().with_invocations(2).with_threads(1);
    let cells = enumerate_cells(&jobs, &cfg);
    let clean = run_sweep(&jobs, &cfg).to_json();
    let dir = tmp_path("record-trust");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let donor_path = dir.join("donor.jsonl");
    {
        let donor = Journal::create(&donor_path).expect("create donor");
        let _ = run_sweep_journaled(&jobs, &cfg, Some(&donor));
    }
    let donor = std::fs::read_to_string(&donor_path).expect("read donor");
    let line_of = |cell: Cell| -> String {
        let key = format!("\"key\": \"{}\"", cell.key);
        donor
            .lines()
            .find(|l| l.contains(&key))
            .expect("a donor record")
            .to_owned()
    };
    // One slot holds job 0 while job 1 waits in the queue.
    let (held, queued) = (cells[0], cells[cfg.variants.len()]);
    assert_eq!(queued.job, 1);
    let payload = checksum_unframe(&line_of(queued))
        .expect("framed")
        .to_owned();
    let doctored = checksum_frame(&payload.replacen("\"cycles\": ", "\"cycles\": 999", 1));
    assert!(RunRecord::from_line(&doctored).is_some(), "a valid record");
    let mut flipped = line_of(held).into_bytes();
    flipped[40] ^= 0x01;
    let flipped = String::from_utf8(flipped).expect("ASCII stays ASCII");
    let cases = [
        ("foreign", vec![doctored.clone()], 0),
        ("duplicate", vec![line_of(held), line_of(held)], 1),
        ("flipped", vec![flipped.clone()], 0),
    ];
    for (name, lines, received) in cases {
        let case = dir.join(name);
        std::fs::create_dir_all(&case).expect("case dir");
        let out = case.join("stdout");
        std::fs::write(&out, lines.join("\n") + "\n").expect("worker stdout");
        let worker = sh(format!("cat '{}'; exec sleep 30", out.display()));
        let campaign = case.join("campaign.jsonl");
        let mut scfg = ShardConfig::new(1, worker, &campaign);
        scfg.cache = Some(ResultCache::open(case.join("cache")).expect("open cache"));
        scfg.max_respawns = 0;
        scfg.poll = Duration::from_millis(2);
        scfg.silence_budget = Duration::ZERO;
        let t0 = Instant::now();
        let (sharded, _, stats) = run_sweep_sharded(&jobs, &cfg, &scfg).expect("sharded sweep");
        assert!(t0.elapsed() < Duration::from_secs(10), "{name}: not killed");
        assert_eq!(stats.protocol_kills, 1, "{name}");
        assert_eq!(stats.received, received, "{name}");
        assert_eq!(sharded.to_json(), clean, "{name}");
        let merged = std::fs::read_to_string(&campaign).expect("merged journal");
        assert_eq!(
            merged.lines().count(),
            cells.len(),
            "{name}: one record per cell"
        );
        let mut persisted = vec![merged];
        for fan in std::fs::read_dir(case.join("cache")).expect("cache root") {
            for entry in std::fs::read_dir(fan.expect("fan-out").path()).expect("fan-out dir") {
                persisted
                    .push(std::fs::read_to_string(entry.expect("entry").path()).expect("entry"));
            }
        }
        assert_eq!(
            persisted.len(),
            1 + cells.len(),
            "{name}: every cell cached"
        );
        for text in &persisted {
            assert!(
                !text.contains(&doctored) && !text.contains(&flipped),
                "{name}"
            );
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// A worker SIGKILLed part-way through a line leaves an unterminated
/// tail at the end of its stdout. That is the worker's death, not a
/// protocol error: no protocol kill is counted against it, its cells
/// re-run, and the report equals `run_sweep`'s.
#[test]
fn a_worker_killed_mid_line_dies_without_a_protocol_error() {
    let jobs = vec![job("gzip")];
    let cfg = SweepConfig::default().with_invocations(2);
    let cells = enumerate_cells(&jobs, &cfg);
    let record = checksum_frame(&format!("{{\"key\": \"{}\"}}", cells[0].key));
    let half = &record[..record.len() / 2];
    let worker = sh(format!(
        "{}; printf '%s' '{half}'; kill -9 $$",
        echo_start(cells[0])
    ));
    let dir = tmp_path("killed-mid-line");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let mut scfg = ShardConfig::new(1, worker, dir.join("campaign.jsonl"));
    scfg.max_respawns = 0;
    scfg.poll = Duration::from_millis(2);
    scfg.silence_budget = Duration::ZERO;
    let (sharded, _, stats) = run_sweep_sharded(&jobs, &cfg, &scfg).expect("sharded sweep");
    assert_eq!(stats.protocol_kills, 0, "a death is not a protocol error");
    assert_eq!(stats.received, 0);
    assert_eq!(stats.abandoned, cells.len(), "every cell re-runs");
    assert_eq!(stats.quarantined, 0);
    assert_eq!(sharded.to_json(), run_sweep(&jobs, &cfg).to_json());
    std::fs::remove_dir_all(&dir).ok();
}

/// A worker that runs `script` in `/bin/sh`.
fn sh(script: String) -> Vec<String> {
    vec!["/bin/sh".into(), "-c".into(), script]
}

/// The shell command that writes `cell`'s `start` line on stdout.
fn echo_start(cell: Cell) -> String {
    format!("echo '{{\"start\": \"{}\"}}'", cell.key)
}

/// A `start` written just before an abort is never lost: a death is
/// attributed only once the dead worker's stdout has been read to EOF.
/// Each worker writes a burst of `alive` lines, its victim's `start`,
/// and SIGKILLs itself at once, so the supervisor sees the exit long
/// before it has read the `start` behind the burst.
#[test]
fn a_start_written_just_before_an_abort_is_never_lost() {
    let (region, binding) = nachos::testutil::store_load_region("abort");
    let jobs = vec![SweepJob::new("abort", region, binding)];
    let mut cfg = SweepConfig::default().with_invocations(2);
    cfg.quarantine_after = 1;
    let cells = enumerate_cells(&jobs, &cfg);
    let victim = cells[1];
    let burst = "printf '{\"alive\": true}\\n%.0s' $(seq 300)";
    let worker = sh(format!("{burst}; {}; kill -9 $$", echo_start(victim)));
    let dir = tmp_path("start-before-abort");
    for attempt in 0..20 {
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("scratch dir");
        let mut scfg = ShardConfig::new(1, worker.clone(), dir.join("campaign.jsonl"));
        scfg.max_respawns = 0;
        scfg.poll = Duration::from_millis(2);
        scfg.silence_budget = Duration::ZERO;
        let (sharded, _, stats) = run_sweep_sharded(&jobs, &cfg, &scfg).expect("sharded sweep");
        assert_eq!(
            stats.quarantined, 1,
            "attempt {attempt}: the start was lost"
        );
        assert_eq!(stats.abandoned, cells.len() - 1);
        let quarantined: Vec<_> = sharded
            .statuses()
            .into_iter()
            .filter(|(_, _, s)| *s == RunStatus::Quarantined)
            .map(|(_, v, _)| v)
            .collect();
        assert_eq!(quarantined, [cfg.variants[victim.variant].label.clone()]);
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// A worker that stays alive but never writes a stdout line is killed
/// once it has been silent past the budget, and its cells fall to the
/// inline pass without changing a report byte.
#[test]
fn silent_workers_are_killed_and_their_cells_run_inline() {
    let jobs = vec![job("gzip"), job("fft-2d")];
    let cfg = SweepConfig::default().with_invocations(2);
    let cells = enumerate_cells(&jobs, &cfg);
    let shards = 2usize;
    assert!(
        jobs.len() >= shards,
        "every slot takes a job, so every slot spawns a worker"
    );

    let dir = tmp_path("silence-kill");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    // `exec` makes the silent process the child itself, so the kill
    // lands on the process the supervisor watches.
    let worker = ["/bin/sh", "-c", "exec sleep 60"]
        .map(String::from)
        .to_vec();
    let mut scfg = ShardConfig::new(shards, worker, dir.join("campaign.jsonl"));
    scfg.silence_budget = Duration::from_millis(300);
    scfg.poll = Duration::from_millis(10);
    scfg.max_respawns = 0;
    let t0 = Instant::now();
    let (sharded, _, stats) = run_sweep_sharded(&jobs, &cfg, &scfg).expect("sharded sweep");
    assert!(
        t0.elapsed() < Duration::from_secs(10),
        "the campaign took {:?} against 60 s workers",
        t0.elapsed()
    );
    assert_eq!(stats.silent_kills, shards, "one kill per silent worker");
    assert_eq!(stats.abandoned, cells.len());
    assert_eq!(
        sharded.to_json(),
        run_sweep(&jobs, &cfg).to_json(),
        "silence kills must not change a single report byte"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// Pull dispatch under skew: job 0 costs more than all the other jobs
/// together, so while the worker that drew it is busy, the other worker
/// takes every remaining job. The workers are a shell script speaking
/// the wire protocol: it logs each batch it receives and acks without
/// writing a record, so every cell falls to the inline pass and the report
/// stays byte-identical. Job 0 holds its worker until the other worker
/// has logged three batches (or 10 s pass), which makes it the costlier
/// job by construction rather than by a timing guess.
#[test]
fn the_idle_worker_takes_every_job_behind_a_heavy_one() {
    let jobs = vec![job("gzip"), job("fft-2d"), job("parser"), job("lbm")];
    let cfg = SweepConfig::default().with_invocations(2);
    let cells = enumerate_cells(&jobs, &cfg);
    let dir = tmp_path("heavy-job");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let script = format!(
        r#"read -r header
case "$header" in *'"index": 0}}'*) log={dir}/slot-0 ;; *) log={dir}/slot-1 ;; esac
n=0
while read -r line; do
  case "$line" in
    *'"batch"'*) n=$((n+1)); echo "$line" >> "$log"
      case "$line" in *'"job": 0,'*)
        for _ in $(seq 1000); do
          [ "$(cat {dir}/slot-1 2>/dev/null | wc -l)" -ge 3 ] && break; sleep 0.01
        done ;;
      esac
      echo "{{\"ack\":$n}}" ;;
    *) exit 0 ;;
  esac
done"#,
        dir = dir.display()
    );
    let worker = vec!["/bin/sh".into(), "-c".into(), script];
    let mut scfg = ShardConfig::new(2, worker, dir.join("campaign.jsonl"));
    scfg.silence_budget = Duration::ZERO;
    scfg.poll = Duration::from_millis(10);
    let (sharded, _, stats) = run_sweep_sharded(&jobs, &cfg, &scfg).expect("sharded sweep");
    let batches = |slot: &str| -> Vec<usize> {
        std::fs::read_to_string(dir.join(slot))
            .unwrap_or_default()
            .lines()
            .map(|l| {
                let v = parse_json(l).expect("a batch line");
                let cells = v.get("batch").and_then(Json::as_arr).expect("batch");
                let job = cells[0].get("job").and_then(Json::as_u64).expect("job");
                assert!(cells
                    .iter()
                    .all(|c| c.get("job").and_then(Json::as_u64) == Some(job)));
                assert_eq!(cells.len(), cfg.variants.len(), "a batch is a whole job");
                job as usize
            })
            .collect()
    };
    assert_eq!(batches("slot-0"), [0], "the heavy job holds its worker");
    assert_eq!(
        batches("slot-1"),
        [1, 2, 3],
        "the other worker takes every remaining job"
    );
    assert_eq!(stats.workers_spawned, 2);
    assert_eq!(stats.dispatched, cells.len());
    assert_eq!(stats.abandoned, cells.len(), "no record was written");
    assert_eq!(sharded.to_json(), run_sweep(&jobs, &cfg).to_json());
    std::fs::remove_dir_all(&dir).ok();
}
