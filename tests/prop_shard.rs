//! Property: shard-merge is invariant to how records reached the shards.
//!
//! A sharded campaign's shard journals are a scheduling accident: which
//! worker completed a cell, in what order, under which shard count, and
//! whether a crash-respawn left benign duplicate records are all
//! invisible to the final report. Resuming a supervisor over *any*
//! scattering of the same records — across any number of shard journal
//! files, in any order, with a `nachos-shard-v2` worker's heartbeats
//! interleaved and records duplicated — must absorb every cell and
//! reproduce the single-process report byte for byte. And a flipped byte
//! in any shard journal must never panic or corrupt the report: the
//! damaged record is dropped, counted, and its cell re-executed.

use std::path::PathBuf;
use std::sync::OnceLock;
use std::time::Duration;

use nachos::json::checksum_frame;
use nachos::sweep::journal::{Journal, RunRecord};
use nachos::sweep::shard::{run_sweep_sharded, shard_dir, shard_journal_path, ShardConfig};
use nachos::sweep::{run_sweep, run_sweep_journaled, SweepConfig, SweepJob};
use nachos::{Backend, FaultKind, FaultPlan, FaultSpec};
use nachos_ir::{AffineExpr, Binding, IntOp, MemRef, RegionBuilder};
use nachos_workloads::{by_name, generate};
use proptest::prelude::*;

/// Shared fixture: the jobs, the uninterrupted report, and the journal
/// record lines a complete run leaves behind. Built once — every case
/// only re-scatters the lines and resumes a supervisor over them.
struct Fixture {
    jobs: Vec<SweepJob>,
    cfg: SweepConfig,
    clean_json: String,
    lines: Vec<String>,
}

fn fixture() -> &'static Fixture {
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let mut jobs = Vec::new();
        for name in ["gzip", "fft-2d"] {
            let w = generate(&by_name(name).expect("workload"));
            jobs.push(SweepJob::new(w.spec.name, w.region, w.binding));
        }
        // One transient cell (a retried deadlock) so multi-attempt logs
        // are part of what the scattering must preserve.
        let mut b = RegionBuilder::new("drop-token");
        let g = b.global("g", 64, 0);
        let m = MemRef::affine(g, AffineExpr::zero());
        let x = b.input();
        b.store(m.clone(), &[x]);
        let y = b.int_op(IntOp::Add, &[x]);
        b.store(m, &[y]);
        jobs.push(
            SweepJob::new(
                "drop-token",
                b.finish(),
                Binding {
                    base_addrs: vec![0x1_0000],
                    ..Binding::default()
                },
            )
            .with_fault(FaultPlan::single(
                FaultSpec::new(FaultKind::DropToken, 0).on_backend(Backend::NachosSw),
            )),
        );
        let cfg = SweepConfig::default()
            .with_invocations(4)
            .with_retries(1)
            .with_threads(1);
        let clean_json = run_sweep(&jobs, &cfg).to_json();

        let path = scratch("seed").join("donor.jsonl");
        let journal = Journal::create(&path).expect("create journal");
        let _ = run_sweep_journaled(&jobs, &cfg, Some(&journal));
        drop(journal);
        let lines: Vec<String> = std::fs::read_to_string(&path)
            .expect("read journal")
            .lines()
            .map(str::to_owned)
            .collect();
        assert_eq!(lines.len(), 3 * cfg.variants.len());
        Fixture {
            jobs,
            cfg,
            clean_json,
            lines,
        }
    })
}

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("nachos-prop-shard").join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

/// Fisher–Yates driven by a splitmix64 stream from the case's seed.
fn shuffle<T>(items: &mut [T], mut seed: u64) {
    let mut next = || {
        seed = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = seed;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    for i in (1..items.len()).rev() {
        let j = (next() % (i as u64 + 1)) as usize;
        items.swap(i, j);
    }
}

/// Scatters `lines` round-robin across `files` shard journals under the
/// campaign's shard dir, interleaving an `alive` heartbeat before every
/// record, as a journal a `nachos-shard-v2` worker left holds them.
fn scatter(campaign: &std::path::Path, lines: &[String], files: usize) {
    let dir = shard_dir(campaign);
    std::fs::create_dir_all(&dir).expect("shard dir");
    let beat = checksum_frame("{\"journal\": \"nachos-heartbeat-v2\", \"phase\": \"alive\"}");
    let mut contents: Vec<String> = vec![String::new(); files.max(1)];
    for (i, line) in lines.iter().enumerate() {
        let slot = &mut contents[i % files.max(1)];
        slot.push_str(&beat);
        slot.push('\n');
        slot.push_str(line);
        slot.push('\n');
    }
    for (i, content) in contents.iter().enumerate() {
        std::fs::write(shard_journal_path(&dir, i), content).expect("write shard journal");
    }
}

/// A supervisor config whose workers can never do real work (`true`
/// exits without reading a cell), so everything the report contains
/// came from the scattered records or the inline final pass.
fn inert_supervisor(shards: usize, campaign: &std::path::Path) -> ShardConfig {
    let mut scfg = ShardConfig::new(shards, vec!["true".into()], campaign);
    scfg.resume = true;
    scfg.max_respawns = 0;
    scfg.poll = Duration::from_millis(2);
    scfg.silence_budget = Duration::ZERO;
    scfg
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Any scattering of the campaign's records — across any file count,
    /// in any order, with one record duplicated as a crash-respawn can
    /// leave — resumes to the uninterrupted report without dispatching
    /// a single cell. The supervisor absorbs each shard journal as one
    /// group commit, and that batch writes the same bytes as absorbing
    /// the records one at a time.
    #[test]
    fn merge_is_invariant_to_shard_count_order_and_duplicates(
        seed in any::<u64>(),
        scatter_files in 1usize..6,
        resume_shards in 1usize..6,
        dup in 0usize..32,
    ) {
        let fx = fixture();
        let mut lines = fx.lines.clone();
        let dup_line = lines[dup % lines.len()].clone();
        lines.push(dup_line);
        shuffle(&mut lines, seed);

        let dir = scratch(&format!("merge-{seed:016x}-{scatter_files}-{resume_shards}-{dup}"));
        let campaign = dir.join("campaign.jsonl");
        scatter(&campaign, &lines, scatter_files);

        let scfg = inert_supervisor(resume_shards, &campaign);
        let (sharded, sweep_stats, stats) =
            run_sweep_sharded(&fx.jobs, &fx.cfg, &scfg).expect("sharded sweep");
        prop_assert_eq!(stats.recovered, fx.lines.len(), "duplicates absorb once");
        prop_assert_eq!(stats.workers_spawned, 0, "nothing left to dispatch");
        prop_assert_eq!(stats.corrupt_lines, 0);
        prop_assert_eq!(sweep_stats.executed, 0);
        prop_assert_eq!(sharded.to_json(), fx.clean_json.clone());

        let records: Vec<RunRecord> = lines.iter().filter_map(|l| RunRecord::from_line(l)).collect();
        let (single_path, batch_path) = (dir.join("single.jsonl"), dir.join("batch.jsonl"));
        let mut single = Journal::create(&single_path).expect("single journal");
        for rec in &records {
            single.absorb(rec).expect("absorb");
        }
        let mut batch = Journal::create(&batch_path).expect("batch journal");
        prop_assert_eq!(batch.absorb_all(&records).expect("absorb_all"), fx.lines.len());
        drop((single, batch));
        prop_assert_eq!(std::fs::read(&single_path).ok(), std::fs::read(&batch_path).ok());
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A flipped byte in any record of any shard journal never panics
    /// and never reaches the report: the record fails its checksum
    /// frame, is dropped and counted, and the orphaned cell re-executes
    /// in the inline pass — the report stays byte-identical.
    #[test]
    fn flipped_byte_in_a_shard_journal_drops_one_record_and_reexecutes(
        seed in any::<u64>(),
        scatter_files in 1usize..4,
        victim in 0usize..32,
        pos_seed in 0usize..1024,
    ) {
        let fx = fixture();
        let mut lines = fx.lines.clone();
        shuffle(&mut lines, seed);
        // Flip one byte inside the victim record's payload (past the
        // 16-hex checksum + space frame prefix). XOR 0x01 on printable
        // JSON never produces a newline, so exactly one line is hit.
        let victim = victim % lines.len();
        let mut bytes = std::mem::take(&mut lines[victim]).into_bytes();
        let pos = 20 + pos_seed % (bytes.len() - 20);
        bytes[pos] ^= 0x01;
        lines[victim] = String::from_utf8(bytes).expect("ASCII stays ASCII");

        let dir = scratch(&format!("flip-{seed:016x}-{scatter_files}-{victim}-{pos_seed}"));
        let campaign = dir.join("campaign.jsonl");
        scatter(&campaign, &lines, scatter_files);

        let scfg = inert_supervisor(scatter_files, &campaign);
        let (sharded, sweep_stats, stats) =
            run_sweep_sharded(&fx.jobs, &fx.cfg, &scfg).expect("sharded sweep");
        prop_assert_eq!(stats.corrupt_lines, 1, "the flipped record is counted");
        prop_assert_eq!(stats.recovered, fx.lines.len() - 1);
        prop_assert_eq!(stats.abandoned, 1, "inert workers hand the cell to the inline pass");
        prop_assert_eq!(sweep_stats.executed, 1, "the damaged cell re-executes");
        prop_assert_eq!(sharded.to_json(), fx.clean_json.clone());
        std::fs::remove_dir_all(&dir).ok();
    }
}
