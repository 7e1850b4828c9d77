//! End-to-end acceptance for the sharded sweep binary: real supervisor
//! and worker OS processes, real SIGKILLs, real cache files.
//!
//! Everything here drives the compiled `sweep` bin (via
//! `CARGO_BIN_EXE_sweep`) exactly as CI and a user would, and holds it
//! to the documented contract: the sharded report is byte-identical to
//! the single-process report through worker death, supervisor death,
//! resume under a different shard count, and cache corruption; exit
//! codes follow the `--help` table. One case runs the supervisor in
//! process, with the bin as its worker, to inspect the cache it fills.

use nachos::sweep::cache::ResultCache;
use nachos::sweep::daemon::MatrixSpec;
use nachos::sweep::journal::{RunRecord, JOURNAL_SCHEMA};
use nachos::sweep::shard::{enumerate_cells, run_sweep_sharded, shard_dir, ShardConfig};
use std::path::{Path, PathBuf};
use std::process::{Command, Output};
use std::time::Duration;

fn sweep() -> Command {
    Command::new(env!("CARGO_BIN_EXE_sweep"))
}

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("nachos-shard-exec").join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

fn run(args: &[&str]) -> Output {
    sweep()
        .args(args)
        .output()
        .unwrap_or_else(|e| panic!("sweep {args:?}: {e}"))
}

fn assert_success(out: &Output, what: &str) {
    assert!(
        out.status.success(),
        "{what} failed ({:?}):\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
}

fn read(path: &Path) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

/// The headline contract on the full 27×5 Table II matrix (the bench
/// matrix plus the IDEAL oracle): `--shards 4` reproduces the
/// single-process report byte for byte.
#[test]
fn full_matrix_sharded_report_is_byte_identical() {
    let dir = scratch("full-matrix");
    let clean = dir.join("clean.json");
    let sharded = dir.join("sharded.json");
    assert_success(
        &run(&[
            "--invocations",
            "1",
            "--ideal",
            "--out",
            clean.to_str().unwrap(),
        ]),
        "single-process sweep",
    );
    assert_success(
        &run(&[
            "--invocations",
            "1",
            "--ideal",
            "--shards",
            "4",
            "--journal",
            dir.join("j.jsonl").to_str().unwrap(),
            "--out",
            sharded.to_str().unwrap(),
        ]),
        "sharded sweep",
    );
    assert_eq!(
        read(&sharded),
        read(&clean),
        "sharded report diverges from single-process"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// The cross-campaign cache: a second campaign with a fresh journal is
/// served from cache and stays byte-identical; a flipped byte in a cache
/// entry is detected, healed, and the entry restored by re-execution.
#[test]
fn cache_serves_campaigns_and_heals_corrupt_entries() {
    let dir = scratch("cache");
    let cache = dir.join("cache");
    let base = |journal: &Path, out: &Path| {
        vec![
            "--filter".to_owned(),
            "mcf".to_owned(),
            "--invocations".to_owned(),
            "2".to_owned(),
            "--shards".to_owned(),
            "2".to_owned(),
            "--cache".to_owned(),
            cache.display().to_string(),
            "--journal".to_owned(),
            journal.display().to_string(),
            "--out".to_owned(),
            out.display().to_string(),
        ]
    };
    let first = dir.join("first.json");
    let out = sweep()
        .args(base(&dir.join("j1.jsonl"), &first))
        .output()
        .expect("first campaign");
    assert_success(&out, "first campaign");

    // Every settled record landed as one .rec file under <hh>/.
    let entries: Vec<PathBuf> = std::fs::read_dir(&cache)
        .expect("cache root")
        .flat_map(|d| std::fs::read_dir(d.expect("dir").path()).expect("fan-out dir"))
        .map(|e| e.expect("entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == "rec"))
        .collect();
    assert!(!entries.is_empty(), "the campaign populated the cache");

    let second = dir.join("second.json");
    let out = sweep()
        .args(base(&dir.join("j2.jsonl"), &second))
        .output()
        .expect("second campaign");
    assert_success(&out, "second campaign");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("0 misses"),
        "second campaign must be served from cache:\n{stderr}"
    );
    assert_eq!(read(&second), read(&first));

    // Flip one byte mid-entry: the third campaign must notice, heal,
    // re-execute, and still match byte for byte.
    let victim = &entries[0];
    let mut bytes = std::fs::read(victim).expect("read entry");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x01;
    std::fs::write(victim, &bytes).expect("corrupt entry");
    let third = dir.join("third.json");
    let out = sweep()
        .args(base(&dir.join("j3.jsonl"), &third))
        .output()
        .expect("third campaign");
    assert_success(&out, "third campaign");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("1 corrupt entries healed"),
        "the flipped entry must be detected:\n{stderr}"
    );
    assert_eq!(read(&third), read(&first));
    assert!(
        victim.exists(),
        "the healed cell was promoted back into the cache"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// Results reach the cache while the workers run. With nothing left
/// for the inline pass, every cacheable cell's entry was promoted from a
/// worker's acknowledged record, and its bytes are exactly the record
/// the final report gives for that cell.
#[test]
fn cache_entries_promoted_mid_campaign_match_the_report() {
    let dir = scratch("mid-campaign-cache");
    let spec = MatrixSpec {
        invocations: 2,
        filter: Some("mcf".to_owned()),
        ..MatrixSpec::default()
    };
    let (jobs, cfg) = nachos_bench::matrix::resolve(&spec).expect("matrix");
    let worker = [
        env!("CARGO_BIN_EXE_sweep"),
        "--shard-exec",
        "--invocations",
        "2",
        "--filter",
        "mcf",
    ]
    .map(str::to_owned)
    .to_vec();
    let root = dir.join("cache");
    let mut scfg = ShardConfig::new(2, worker, dir.join("j.jsonl"));
    scfg.cache = Some(ResultCache::open(&root).expect("cache"));
    let (report, sweep_stats, stats) = run_sweep_sharded(&jobs, &cfg, &scfg).expect("campaign");
    assert_eq!(sweep_stats.executed, 0, "every cell came from a worker");
    let mut cacheable = 0;
    for c in enumerate_cells(&jobs, &cfg) {
        let (job, hex) = (&report.jobs[c.job], c.key.to_string());
        let run = &job.runs[c.variant];
        let entry = root
            .join(&hex[..2])
            .join(format!("{hex}.{JOURNAL_SCHEMA}.rec"));
        if !ResultCache::cacheable(run.status) {
            assert!(
                !entry.exists(),
                "{} [{}] is not cacheable",
                job.name,
                run.variant
            );
            continue;
        }
        cacheable += 1;
        let rec = RunRecord {
            key: c.key,
            job: job.name.clone(),
            variant: run.variant.clone(),
            outcome: run.to_record(),
        };
        assert_eq!(
            read(&entry),
            rec.to_line(),
            "{} [{}]",
            job.name,
            run.variant
        );
    }
    assert!(cacheable > 0);
    assert_eq!(stats.cache.stored, cacheable);
    std::fs::remove_dir_all(&dir).ok();
}

/// A quarantined cell is degraded, not divergent: a poisoned campaign
/// names no cell on a `DIVERGENCE` line.
#[test]
fn quarantined_cells_are_not_reported_as_divergence() {
    let out = run(&[
        "--filter",
        "parser",
        "--poison",
        "parser",
        "--invocations",
        "4",
        "--max-retries",
        "1",
        "--out",
        "/dev/null",
    ]);
    assert_success(&out, "poisoned sweep");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("DIVERGENCE"), "{stderr}");
}

/// The exit-code table from `--help`: a quarantined poison workload is
/// exit 0 without `--strict` and exit 3 with it, through the whole
/// supervisor/worker path.
#[test]
fn strict_flag_gates_degraded_exit_codes() {
    let dir = scratch("strict");
    let args = |journal: &str, strict: bool| {
        let mut v = vec![
            "--filter".to_owned(),
            "gzip".to_owned(),
            "--poison".to_owned(),
            "gzip".to_owned(),
            "--invocations".to_owned(),
            "1".to_owned(),
            "--shards".to_owned(),
            "2".to_owned(),
            "--journal".to_owned(),
            dir.join(journal).display().to_string(),
            "--out".to_owned(),
            dir.join("out.json").display().to_string(),
        ];
        if strict {
            v.push("--strict".to_owned());
        }
        v
    };
    let lax = sweep()
        .args(args("lax.jsonl", false))
        .output()
        .expect("lax");
    assert_success(&lax, "non-strict poison campaign");
    let strict = sweep()
        .args(args("strict.jsonl", true))
        .output()
        .expect("strict");
    assert_eq!(
        strict.status.code(),
        Some(3),
        "--strict must fail a degraded campaign:\n{}",
        String::from_utf8_lossy(&strict.stderr)
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// Supervisor death: SIGKILL the whole orchestrator mid-campaign, then
/// resume the same journal under a *different* shard count. The resumed
/// report must match an uninterrupted single-process run byte for byte.
#[test]
fn killed_supervisor_resumes_under_a_different_shard_count() {
    let dir = scratch("kill-supervisor");
    let journal = dir.join("j.jsonl");
    let out = dir.join("out.json");
    let mut child = sweep()
        .args([
            "--filter",
            "sar",
            "--invocations",
            "800",
            "--shards",
            "4",
            "--journal",
            journal.to_str().unwrap(),
            "--out",
            out.to_str().unwrap(),
        ])
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("spawn supervisor");
    std::thread::sleep(Duration::from_millis(300));
    let _ = child.kill();
    let _ = child.wait();
    // Orphaned workers see stdin EOF and wind down; give them a beat so
    // the resume below has the shard journals to itself.
    std::thread::sleep(Duration::from_millis(1000));

    assert_success(
        &run(&[
            "--filter",
            "sar",
            "--invocations",
            "800",
            "--shards",
            "3",
            "--resume",
            "--journal",
            journal.to_str().unwrap(),
            "--out",
            out.to_str().unwrap(),
        ]),
        "resumed supervisor",
    );
    let clean = dir.join("clean.json");
    assert_success(
        &run(&[
            "--filter",
            "sar",
            "--invocations",
            "800",
            "--out",
            clean.to_str().unwrap(),
        ]),
        "clean single-process sweep",
    );
    assert_eq!(
        read(&out),
        read(&clean),
        "a killed-and-resumed campaign changed report bytes"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// Beats ride the worker's stdout, so a clean `--shards 2` campaign
/// leaves shard journals that hold run records only, and its report
/// matches the single-process run byte for byte. The pulse period is
/// fixed: `--heartbeat-interval` is an unknown argument.
#[test]
fn shard_journals_hold_only_run_records() {
    let dir = scratch("records-only");
    let (clean, sharded) = (dir.join("clean.json"), dir.join("sharded.json"));
    let matrix = ["--filter", "gzip", "--invocations", "2"];
    assert_success(
        &run(&[&matrix[..], &["--out", clean.to_str().unwrap()]].concat()),
        "single-process sweep",
    );
    let journal = dir.join("j.jsonl");
    let sharded_args = [
        "--shards",
        "2",
        "--journal",
        journal.to_str().unwrap(),
        "--out",
        sharded.to_str().unwrap(),
    ];
    assert_success(
        &run(&[&matrix[..], &sharded_args].concat()),
        "sharded sweep",
    );
    assert_eq!(read(&sharded), read(&clean));
    let shard_files: Vec<PathBuf> = std::fs::read_dir(shard_dir(&journal))
        .expect("shard dir")
        .map(|e| e.expect("entry").path())
        .collect();
    assert!(!shard_files.is_empty());
    let mut records = 0;
    for path in &shard_files {
        for line in read(path).lines() {
            assert!(
                RunRecord::parse_line(line).is_ok(),
                "{}: not a run record: {line}",
                path.display()
            );
            records += 1;
        }
    }
    assert!(records > 0, "the workers journaled their cells");

    let flag = ["--heartbeat-interval", "30000"];
    let out = run(&[&matrix[..], &flag, &sharded_args].concat());
    assert_eq!(
        out.status.code(),
        Some(1),
        "an unknown argument is a usage error"
    );
    std::fs::remove_dir_all(&dir).ok();
}
