//! sharded-cached: successive `--shards 2 --cache` campaigns over the
//! 27 × `bench_matrix()` suite. The cache starts empty, so the first
//! campaign runs cold; before every later one, the cache holds a seeded
//! half of the cells, as settled by an earlier campaign.
//!
//! The supervisor runs in this process through `run_sweep_sharded`;
//! its workers are the repository's `sweep` binary in `--shard-exec`
//! mode, built from source beside this benchmark.

use crate::gen::{self, Workload};
use crate::inproc::{self, ms};
use crate::metrics::Outcome;
use crate::stats::median;
use crate::trace::Tracer;
use nachos::sweep::cache::{CacheLookup, ResultCache};
use nachos::sweep::daemon::MatrixSpec;
use nachos::sweep::journal::{Journal, RunRecord};
use nachos::sweep::shard::{enumerate_cells, run_sweep_sharded, ShardConfig, ShardStats};
use nachos::sweep::{run_sweep, SweepConfig, SweepJob, SweepResult};
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Campaigns per untraced run, at least: enough that the latency tail
/// (ten samples beyond it) sits above the median.
const MIN_CAMPAIGNS: usize = 31;

fn spec() -> MatrixSpec {
    MatrixSpec {
        invocations: Workload::ShardedCached.invocations(),
        ..MatrixSpec::default()
    }
}

/// The campaign state: the matrix, the worker command and the
/// directories a campaign writes.
struct Campaigns {
    jobs: Vec<SweepJob>,
    cfg: SweepConfig,
    worker: Vec<String>,
    dir: PathBuf,
    cache_root: PathBuf,
    seed: u64,
    /// Every cell's record, from the first campaign's journal.
    records: Vec<RunRecord>,
    next: u64,
}

/// One campaign's observations.
struct Campaign {
    /// Cache hits the standalone probe saw before the campaign.
    probe_hits: usize,
    /// Wall time of `run_sweep_sharded` alone.
    wall: Duration,
    /// Wall time of the whole campaign span: probe, campaign, resume.
    total: Duration,
    result: SweepResult,
    stats: ShardStats,
    replayed: usize,
}

impl Campaigns {
    fn new(sweep_exe: &Path, dir: &Path, seed: u64) -> io::Result<Campaigns> {
        let (jobs, cfg) = nachos_bench::matrix::resolve(&spec()).map_err(io::Error::other)?;
        let cache_root = dir.join("cache");
        fs::create_dir_all(&cache_root)?;
        let worker = vec![
            sweep_exe.display().to_string(),
            "--shard-exec".to_owned(),
            "--invocations".to_owned(),
            spec().invocations.to_string(),
            "--max-retries".to_owned(),
            "0".to_owned(),
        ];
        Ok(Campaigns {
            jobs,
            cfg,
            worker,
            dir: dir.to_owned(),
            cache_root,
            seed,
            records: Vec::new(),
            next: 0,
        })
    }

    /// Leaves exactly the seeded half of the cells in the cache (none
    /// before the first campaign).
    fn prepare_cache(&self) -> io::Result<()> {
        let _ = fs::remove_dir_all(&self.cache_root);
        let cache = ResultCache::open(&self.cache_root)?;
        if self.next > 0 {
            let keep = gen::cached_cells(
                self.seed,
                self.next,
                self.jobs.len(),
                self.cfg.variants.len(),
            );
            for (rec, _) in self.records.iter().zip(keep).filter(|(_, k)| *k) {
                cache.store(rec)?;
            }
        }
        Ok(())
    }

    fn journal_path(&self) -> PathBuf {
        self.dir.join(format!("campaign-{}.jsonl", self.next))
    }

    /// Runs the next campaign, timing only `run_sweep_sharded`.
    fn run(&mut self, tr: &mut Tracer) -> io::Result<Campaign> {
        self.prepare_cache()?;
        let id = self.next;
        let begin = Instant::now();
        let root = tr.open("campaign", id);
        let cache = ResultCache::open(&self.cache_root)?;
        let cells = enumerate_cells(&self.jobs, &self.cfg);
        // A standalone probe of every cell: the campaign makes the same
        // lookups itself, inside its own span.
        let probe = tr.open_standalone("cache.lookup", id);
        let hits = cells
            .iter()
            .filter(|c| matches!(cache.lookup(c.key), CacheLookup::Hit(_)))
            .count();
        tr.close(probe);
        let mut scfg = ShardConfig::new(crate::shards(), self.worker.clone(), self.journal_path());
        scfg.cache = Some(cache);
        let span = tr.open("shard.campaign", id);
        let t0 = Instant::now();
        let (result, _, stats) = run_sweep_sharded(&self.jobs, &self.cfg, &scfg)?;
        let wall = t0.elapsed();
        tr.close(span);
        let span = tr.open("journal.resume", id);
        let journal = Journal::resume(self.journal_path())?;
        tr.close(span);
        if self.records.is_empty() {
            self.records = cells
                .iter()
                .filter_map(|c| {
                    let outcome = journal.lookup(c.key)?.clone();
                    Some(RunRecord {
                        key: c.key,
                        job: self.jobs[c.job].name.clone(),
                        variant: self.cfg.variants[c.variant].label.clone(),
                        outcome,
                    })
                })
                .collect();
        }
        tr.close(root);
        let total = begin.elapsed();
        let _ = fs::remove_file(self.journal_path());
        let _ = fs::remove_dir_all(nachos::sweep::shard::shard_dir(&self.journal_path()));
        self.next += 1;
        Ok(Campaign {
            probe_hits: hits,
            wall,
            total,
            result,
            stats,
            replayed: journal.replay_len(),
        })
    }
}

/// Counts a campaign's cells into `out` and returns their number: a
/// cell fails unless it matched the reference, and every cell fails
/// when the report is not byte for byte the in-process `run_sweep`
/// report. The campaign must also have served from the cache exactly
/// the cells the probe found there.
fn check(c: &Campaign, want: &str, out: &mut Outcome) -> u64 {
    let runs = c.result.jobs.iter().flat_map(|j| &j.runs);
    let cells = runs.clone().count() as u64;
    if c.result.to_json() != want {
        eprintln!("perfbench: FAILED sharded report differs from run_sweep");
        out.count(cells, cells);
    } else {
        let bad = runs.filter(|r| !r.matches_reference()).count();
        out.count(cells, bad as u64);
    }
    let served = c.stats.cache.hits;
    if served != c.probe_hits {
        eprintln!(
            "perfbench: FAILED the probe found {} cached cells, the campaign served {served}",
            c.probe_hits
        );
    }
    out.count(1, u64::from(served != c.probe_hits));
    cells
}

fn nachos_cycles(r: &SweepResult) -> u64 {
    r.jobs
        .iter()
        .flat_map(|j| &j.runs)
        .filter(|run| run.variant == "nachos")
        .filter_map(|run| run.metrics.map(|m| m.cycles))
        .sum()
}

/// Untraced run: end-to-end metrics.
pub fn measure(
    sweep_exe: &Path,
    work: &Path,
    seed: u64,
    seconds: f64,
    out: &mut Outcome,
) -> io::Result<()> {
    let mut n = 0;
    let (mut setup, mut campaigns) = crate::Setup::start(|| {
        n += 1;
        Campaigns::new(sweep_exe, &work.join(format!("s{n}")), seed)
    })?;
    let want = run_sweep(&campaigns.jobs, &campaigns.cfg).to_json();
    let budget = Duration::from_secs_f64(seconds);
    let start = Instant::now();
    let (mut rounds, mut lat, mut cycles) = (Vec::new(), Vec::new(), Vec::new());
    while lat.len() < MIN_CAMPAIGNS || start.elapsed() < budget {
        setup.tick()?;
        let c = campaigns.run(&mut Tracer::new(false))?;
        rounds.push((check(&c, &want, out), c.wall.as_secs_f64()));
        lat.push(ms(c.wall));
        cycles.push(nachos_cycles(&c.result));
    }
    if cycles.iter().any(|&c| c != cycles[0]) {
        eprintln!("perfbench: FAILED campaigns disagree on simulated cycles");
        out.count(1, 1);
    }
    out.set("setup_s", setup.median_s());
    out.set("cells_per_s", crate::median_rate(&rounds));
    crate::set_latencies(out, &lat);
    out.set("peak_rss_mb", crate::peak_rss_mb(None));
    out.set("nachos_cycles", cycles[0] as f64);
    Ok(())
}

/// Traced run: campaigns with cache, shard and journal spans, then the
/// cell pass over the same matrix for the engine and compiler metrics.
pub fn trace(
    sweep_exe: &Path,
    work: &Path,
    seed: u64,
    seconds: f64,
    out: &mut Outcome,
) -> io::Result<Tracer> {
    let mut gen_tr = Tracer::new(true);
    let campaigns = gen_tr.time("workloads.generate", 0, || {
        Campaigns::new(sweep_exe, &work.join("plain"), seed)
    });
    let mut plain = campaigns?;
    let generate_ms = ms(gen_tr.total("workloads.generate"));
    inproc::layer_reps(
        &plain.jobs,
        &plain.cfg.clone().with_threads(1),
        seconds / 2.0,
        out,
    );
    out.set("workloads.generate_ms", generate_ms);

    const CAMPAIGNS: usize = 4;
    let want = run_sweep(&plain.jobs, &plain.cfg).to_json();
    let mut untraced = Duration::ZERO;
    for _ in 0..CAMPAIGNS {
        let c = plain.run(&mut Tracer::new(false))?;
        check(&c, &want, out);
        untraced += c.total;
    }
    let mut traced = Campaigns::new(sweep_exe, &work.join("traced"), seed)?;
    let mut tr = Tracer::new(true);
    let mut done = Vec::new();
    for _ in 0..CAMPAIGNS {
        done.push(traced.run(&mut tr)?);
    }
    let traced_wall: Duration = done.iter().map(|c| c.total).sum();
    for c in &done {
        check(c, &want, out);
    }
    let per_campaign = |name: &str| {
        let xs: Vec<f64> = tr
            .spans()
            .iter()
            .filter(|s| s.name == name)
            .map(|s| ms(s.duration()))
            .collect();
        median(&xs).unwrap_or(0.0)
    };
    let (hits, probes) = done.iter().fold((0, 0), |(h, p), c| {
        (
            h + c.stats.cache.hits,
            p + c.stats.cache.hits + c.stats.cache.misses,
        )
    });
    out.set("cache.lookup_ms", per_campaign("cache.lookup"));
    out.set("cache.hit_ratio", hits as f64 / probes.max(1) as f64);
    out.set("journal.resume_ms", per_campaign("journal.resume"));
    let replayed: Vec<f64> = done.iter().map(|c| c.replayed as f64).collect();
    out.set("journal.replayed", median(&replayed).unwrap_or(0.0));
    out.set(
        "shard.respawns",
        done.iter().map(|c| c.stats.respawns).sum::<usize>() as f64,
    );
    crate::set_service_zero(out, &["daemon"]);
    out.set("journal.append_ms", 0.0);
    out.set("sweep.self_ms", ms(tr.self_time("campaign")));
    out.set(
        "trace.coverage",
        tr.covered("campaign").as_secs_f64() / untraced.as_secs_f64(),
    );
    out.set(
        "trace.overhead",
        traced_wall.as_secs_f64() / untraced.as_secs_f64() - 1.0,
    );
    Ok(tr)
}
