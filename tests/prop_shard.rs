//! Property: a sharded report is invariant to how records reached the
//! supervisor.
//!
//! Which worker ran a cell, under which shard count, and in what order a
//! worker wrote its batch's records are scheduling accidents, invisible
//! to the final report. The workers here are shell scripts that replay a
//! donor run's records for the cells of each batch they are sent, in a
//! shuffled order, so every case drives the real supervisor and pipe
//! without simulating a cell. Every record must be accepted, merged
//! byte for byte, and the single-process report reproduced. And a
//! flipped byte in a record on the pipe must never panic or reach the
//! journal, the cache or the report: the line fails its checksum frame,
//! the worker is killed as a protocol error, and the cell re-runs in the
//! inline pass.

use std::collections::HashSet;
use std::path::{Path, PathBuf};
use std::sync::OnceLock;
use std::time::Duration;

use nachos::sweep::journal::{Journal, RunKey, RunRecord};
use nachos::sweep::shard::{run_sweep_sharded, ShardConfig, ShardStats};
use nachos::sweep::{run_sweep, run_sweep_journaled, SweepConfig, SweepJob, SweepStats};
use nachos::{Backend, FaultKind, FaultPlan, FaultSpec};
use nachos_ir::{AffineExpr, Binding, IntOp, MemRef, RegionBuilder};
use nachos_workloads::{by_name, generate};
use proptest::prelude::*;

/// Shared fixture: the jobs, the uninterrupted report, and the journal
/// record lines a complete run leaves behind. Built once — every case
/// only re-orders the lines and runs a supervisor over workers that
/// replay them.
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

/// A worker that, for each batch, writes the records of `records` (a
/// file of `<key> <record line>` lines) whose key the batch names, in
/// the file's order, then acks the batch.
fn replaying_worker(records: &Path) -> Vec<String> {
    let script = format!(
        r#"read -r header
n=0
while read -r line; do
  case "$line" in
    *'"batch"'*) n=$((n+1))
      while read -r key rec; do
        case "$line" in *"\"$key\""*) printf '%s\n' "$rec" ;; esac
      done < '{}'
      echo "{{\"ack\":$n}}" ;;
    *) exit 0 ;;
  esac
done"#,
        records.display()
    );
    vec!["/bin/sh".into(), "-c".into(), script]
}

/// The fixture's record lines, each with its cell's key, in an order
/// shuffled by `seed`.
fn keyed_lines(seed: u64) -> Vec<(RunKey, String)> {
    let mut lines: Vec<(RunKey, String)> = fixture()
        .lines
        .iter()
        .map(|l| {
            (
                RunRecord::from_line(l).expect("a donor record").key,
                l.clone(),
            )
        })
        .collect();
    shuffle(&mut lines, seed);
    lines
}

/// Writes `lines` in order as a [`replaying_worker`]'s record file under
/// `dir`, runs a campaign over such workers, and returns its report, its
/// stats and the merged journal's lines.
fn replay(dir: &Path, lines: &[(RunKey, String)], shards: usize) -> Replayed {
    let fx = fixture();
    let records = dir.join("records");
    let keyed: String = lines
        .iter()
        .map(|(key, l)| format!("{key} {l}\n"))
        .collect();
    std::fs::write(&records, keyed).expect("write record file");
    let campaign = dir.join("campaign.jsonl");
    let mut scfg = ShardConfig::new(shards, replaying_worker(&records), &campaign);
    scfg.max_respawns = 1;
    scfg.poll = Duration::from_millis(2);
    scfg.silence_budget = Duration::ZERO;
    let (sharded, sweep_stats, stats) =
        run_sweep_sharded(&fx.jobs, &fx.cfg, &scfg).expect("sharded sweep");
    let merged = std::fs::read_to_string(&campaign).expect("read merged journal");
    let merged = merged.lines().map(str::to_owned).collect();
    (sharded.to_json(), sweep_stats, stats, merged)
}

/// A campaign's report, stats and merged journal lines.
type Replayed = (String, SweepStats, ShardStats, Vec<String>);

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Any shard count and any order of each batch's records reproduce
    /// the uninterrupted report with every cell received from a worker,
    /// and the merged journal holds the donor's record lines byte for
    /// byte. The journal's group commit writes the same bytes as
    /// absorbing the records one at a time, a duplicate included.
    #[test]
    fn report_is_invariant_to_shard_count_and_record_order(
        seed in any::<u64>(),
        shards in 1usize..6,
        dup in 0usize..32,
    ) {
        let fx = fixture();
        let lines = keyed_lines(seed);
        let dir = scratch(&format!("order-{seed:016x}-{shards}-{dup}"));
        let (report, sweep_stats, stats, merged) = replay(&dir, &lines, shards);
        prop_assert_eq!(stats.received, fx.lines.len());
        prop_assert_eq!(stats.protocol_kills, 0);
        prop_assert_eq!(stats.abandoned, 0);
        prop_assert_eq!(sweep_stats.executed, 0);
        prop_assert_eq!(report, fx.clean_json.clone());
        let donor: HashSet<&String> = fx.lines.iter().collect();
        prop_assert_eq!(merged.iter().collect::<HashSet<_>>(), donor);
        prop_assert_eq!(merged.len(), fx.lines.len());

        let mut records: Vec<RunRecord> = lines.iter().filter_map(|(_, l)| RunRecord::from_line(l)).collect();
        records.push(records[dup % records.len()].clone());
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

    /// A flipped byte in any record a worker writes never panics and
    /// never reaches the merged journal or the report: the line fails
    /// its checksum frame, the worker (and its respawn, which writes the
    /// same line) is killed as a protocol error, and the cell re-runs in
    /// the inline pass — the report stays byte-identical.
    #[test]
    fn flipped_byte_on_the_pipe_is_a_protocol_error_and_its_cell_reruns(
        seed in any::<u64>(),
        shards in 1usize..4,
        victim in 0usize..32,
        pos_seed in 0usize..1024,
    ) {
        let fx = fixture();
        let mut lines = keyed_lines(seed);
        // Flip one byte of the victim record (its frame included). XOR
        // 0x01 on printable ASCII never produces a newline, so exactly
        // one line is hit.
        let victim = victim % lines.len();
        let mut bytes = lines[victim].1.clone().into_bytes();
        let pos = pos_seed % bytes.len();
        bytes[pos] ^= 0x01;
        let flipped = String::from_utf8(bytes).expect("ASCII stays ASCII");
        lines[victim].1 = flipped.clone();
        let dir = scratch(&format!("flip-{seed:016x}-{shards}-{victim}-{pos_seed}"));
        let (report, sweep_stats, stats, merged) = replay(&dir, &lines, shards);
        prop_assert_eq!(stats.protocol_kills, 2, "the worker and its respawn");
        prop_assert_eq!(stats.quarantined, 0, "no `start`, so no cell was in flight");
        prop_assert!(stats.abandoned >= 1);
        prop_assert_eq!(stats.received + stats.abandoned, fx.lines.len());
        prop_assert_eq!(sweep_stats.executed, stats.abandoned, "the refused cells re-run");
        prop_assert_eq!(report, fx.clean_json.clone());
        prop_assert!(!merged.contains(&flipped), "the flipped line was merged");
        let donor: HashSet<&String> = fx.lines.iter().collect();
        prop_assert_eq!(merged.iter().collect::<HashSet<_>>(), donor);
        std::fs::remove_dir_all(&dir).ok();
    }
}
