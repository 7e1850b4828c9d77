//! Seeded workload generation.
//!
//! Every input the benchmark feeds the program comes from here and
//! depends only on the workload and `--seed`: the same seed gives a
//! byte-identical job list, another seed a different mix of the same
//! character (another job order, daemon job sequence or cache overlap)
//! with the same total work, so throughput and the simulated cycle sum
//! stay comparable across seeds.

use nachos::sweep::{SweepConfig, SweepJob, SweepVariant};
use nachos_workloads::BenchSpec;

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// The paper's matrix at a long invocation count: engine-bound.
    SuiteLong,
    /// Every top-5 path at one invocation with the optimizer:
    /// compiler-, audit- and placement-bound.
    PathsCompile,
    /// A closed-loop client against `nachos-sweepd`: the service layer.
    DaemonJobs,
    /// Successive sharded campaigns over a half-warm result cache.
    ShardedCached,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::SuiteLong,
        Workload::PathsCompile,
        Workload::DaemonJobs,
        Workload::ShardedCached,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::SuiteLong => "suite-long",
            Workload::PathsCompile => "paths-compile",
            Workload::DaemonJobs => "daemon-jobs",
            Workload::ShardedCached => "sharded-cached",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Accelerator invocations per run.
    pub fn invocations(self) -> u64 {
        match self {
            Workload::SuiteLong => 512,
            Workload::PathsCompile => 1,
            Workload::DaemonJobs => 64,
            Workload::ShardedCached => 16,
        }
    }

    /// Regions per job: one for suite-long; for paths-compile the five
    /// top paths of one benchmark, the unit the paper's per-path
    /// studies use.
    pub fn job_size(self) -> usize {
        match self {
            Workload::PathsCompile => 5,
            _ => 1,
        }
    }

    /// The sweep configuration of every cell: `bench_matrix()` (plus
    /// IDEAL on suite-long), one worker thread per call.
    pub fn config(self) -> SweepConfig {
        let cfg = SweepConfig::default()
            .with_invocations(self.invocations())
            .with_threads(1)
            .with_variants(SweepVariant::bench_matrix());
        match self {
            Workload::SuiteLong => cfg.with_ideal(),
            Workload::PathsCompile => cfg.with_optimize(true),
            Workload::DaemonJobs | Workload::ShardedCached => cfg,
        }
    }
}

/// splitmix64: a small seeded generator, so the inputs depend on no
/// crate outside this package.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xd1b5_4a32_d192_ed03));
        r.next();
        r
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = (self.next() % (i as u64 + 1)) as usize;
            xs.swap(i, j);
        }
    }
}

/// One region to run: a Table II row and one of its top-5 paths.
pub type RegionRef = (BenchSpec, u32);

/// The regions of an in-process workload, in seeded order: the 27
/// hottest paths for suite-long; all 135 top-5 paths for
/// paths-compile, each benchmark's five together (benchmarks and the
/// paths within each in seeded order); and the 27 hottest paths (in
/// table order, as the resolver builds them) for the service workloads.
pub fn regions(w: Workload, seed: u64) -> Vec<RegionRef> {
    let specs = nachos_workloads::all();
    match w {
        Workload::SuiteLong => {
            let mut v: Vec<RegionRef> = specs.into_iter().map(|s| (s, 0)).collect();
            Rng::new(seed, 1).shuffle(&mut v);
            v
        }
        Workload::PathsCompile => {
            let mut rng = Rng::new(seed, 2);
            let mut specs = specs;
            rng.shuffle(&mut specs);
            let mut v = Vec::with_capacity(specs.len() * 5);
            for s in specs {
                let mut paths: Vec<RegionRef> = (0..5).map(|p| (s, p)).collect();
                rng.shuffle(&mut paths);
                v.extend(paths);
            }
            v
        }
        Workload::DaemonJobs | Workload::ShardedCached => {
            specs.into_iter().map(|s| (s, 0)).collect()
        }
    }
}

/// Generates the regions into sweep jobs (`generate_path` per region).
pub fn jobs(regions: &[RegionRef]) -> Vec<SweepJob> {
    regions
        .iter()
        .map(|(spec, path)| {
            let w = nachos_workloads::generate_path(spec, *path);
            let name = if *path == 0 {
                spec.name.to_owned()
            } else {
                format!("{}#{path}", spec.name)
            };
            SweepJob::new(name, w.region, w.binding)
        })
        .collect()
}

/// The daemon's job sequence, round `round`: every Table II workload
/// once, in a seeded order (one single-workload spec per entry).
pub fn daemon_round(seed: u64, round: u64) -> Vec<&'static str> {
    let mut names: Vec<&'static str> = nachos_workloads::all().iter().map(|s| s.name).collect();
    Rng::new(seed, 3 + (round << 8)).shuffle(&mut names);
    names
}

/// The client's think time before each job of daemon round `round`:
/// uniform in [0, 25) ms, one daemon poll period, so job arrivals fall
/// at every phase of the daemon's poll loops instead of locking onto
/// one.
pub fn think_times(seed: u64, round: u64, jobs: usize) -> Vec<std::time::Duration> {
    let mut rng = Rng::new(seed, 5 + (round << 8));
    (0..jobs)
        .map(|_| std::time::Duration::from_micros(rng.next() % 25_000))
        .collect()
}

/// Which cells of a campaign over `jobs` × `variants` (in job, variant
/// order) an earlier campaign already settled: for every job a seeded
/// half of its variants, drawn afresh for every campaign, so each
/// campaign executes the same amount of every job's work.
pub fn cached_cells(seed: u64, campaign: u64, jobs: usize, variants: usize) -> Vec<bool> {
    let mut rng = Rng::new(seed, 4 + (campaign << 8));
    let mut cached = Vec::with_capacity(jobs * variants);
    for _ in 0..jobs {
        let mut row: Vec<bool> = (0..variants).map(|v| v < variants / 2).collect();
        rng.shuffle(&mut row);
        cached.extend(row);
    }
    cached
}

/// The generated job list in text form, for the seed contract: region
/// order, the first rounds of daemon jobs, the first campaigns' cache
/// overlap.
pub fn job_list(w: Workload, seed: u64) -> String {
    let mut out = format!("{} seed={seed} invocations={}\n", w.name(), w.invocations());
    match w {
        Workload::SuiteLong | Workload::PathsCompile => {
            for (spec, path) in regions(w, seed) {
                out.push_str(&format!("{} path={path}\n", spec.name));
            }
        }
        Workload::DaemonJobs => {
            for round in 0..4 {
                let names = daemon_round(seed, round);
                let think = think_times(seed, round, names.len());
                out.push_str(&format!("round {round}:"));
                for (name, t) in names.iter().zip(think) {
                    out.push_str(&format!(" {name}+{}us", t.as_micros()));
                }
                out.push('\n');
            }
        }
        Workload::ShardedCached => {
            let (jobs, variants) = (regions(w, seed).len(), w.config().variants.len());
            out.push_str("campaign 0: cold\n");
            for c in 1..8 {
                let bits: String = cached_cells(seed, c, jobs, variants)
                    .iter()
                    .map(|&b| if b { '1' } else { '0' })
                    .collect();
                out.push_str(&format!("campaign {c}: {bits}\n"));
            }
        }
    }
    out
}

/// FNV-1a digest of a job list, printed with every result.
pub fn digest(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_job_list() {
        for w in Workload::ALL {
            assert_eq!(job_list(w, 7), job_list(w, 7), "{}", w.name());
        }
    }

    #[test]
    fn another_seed_another_mix_of_the_same_work() {
        for w in [Workload::SuiteLong, Workload::PathsCompile] {
            assert_ne!(job_list(w, 1), job_list(w, 2), "{}", w.name());
            let mut a = regions(w, 1);
            let mut b = regions(w, 2);
            let key = |r: &RegionRef| (r.0.name, r.1);
            a.sort_by_key(key);
            b.sort_by_key(key);
            assert!(
                a.iter().map(key).eq(b.iter().map(key)),
                "same regions, new order"
            );
        }
        assert_eq!(regions(Workload::PathsCompile, 0).len(), 135);
        assert_ne!(daemon_round(1, 0), daemon_round(2, 0));
        assert_ne!(daemon_round(1, 0), daemon_round(1, 1));
        let mut round = daemon_round(5, 3);
        round.sort_unstable();
        round.dedup();
        assert_eq!(round.len(), 27, "every workload once per round");
        assert_ne!(cached_cells(1, 1, 27, 4), cached_cells(2, 1, 27, 4));
        assert_ne!(cached_cells(1, 1, 27, 4), cached_cells(1, 2, 27, 4));
        let cached = cached_cells(9, 4, 27, 4);
        assert!(cached
            .chunks(4)
            .all(|job| job.iter().filter(|&&b| b).count() == 2));
    }
}
