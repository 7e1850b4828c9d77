//! `nachos-claims [FIGURE] [--bench FILE]` — regenerate the paper's
//! evaluation and gate the compiler and the optimizer on it.
//!
//! Builds the [`nachos_bench::claims::Evidence`] once: the bench-matrix
//! suite, the path analyses and the ablations, every run
//! differential-checked, plus the soundness audit (with the differential
//! NO-pair replay) and the MDE optimizer over every workload × ablation.
//! Prints every figure's per-row table and claims, or only the figure
//! named by id (`fig15`, `ablation-stages`, …); every claim is judged
//! either way. Exit codes follow [`nachos_bench::exitcode`]:
//!
//! - 0: every claim holds or names its DESIGN §8 deviation;
//! - 1: an unknown argument or figure id;
//! - 2: a run diverged from the reference executor, either audit found
//!   an Error (A-E07 NO-pair collisions and A-E08 refused certificates
//!   included), or an optimized run diverged or failed to simulate;
//! - 3: a claim without a deviation note fails — among them the
//!   optimizer's improvement bars, its zero cycle regressions and its
//!   zero avoidable imprecision;
//! - 5: the `--bench` artifact could not be written.
//!
//! With `--bench FILE`, additionally runs the full 27×5 sweep (the four
//! bench variants plus the IDEAL oracle), measures its wall-clock
//! throughput and steady-state heap allocations per arena-reset engine
//! run through a counting global allocator, and writes the combined
//! `nachos-bench-v2` perf artifact (the committed `BENCH_sweep.json`
//! trajectory).

use std::alloc::{GlobalAlloc, Layout, System};
use std::process::ExitCode;
use std::sync::atomic::{AtomicU64, Ordering};

use nachos::{compile_for_backend, simulate_in, Backend, EnergyModel, SimArena, SimConfig};
use nachos_alias::StageConfig;
use nachos_bench::claims::{figures, verdict, Evidence};
use nachos_bench::exitcode::Verdict;
use nachos_bench::opt::{bench_artifact_json, SweepTiming};
use nachos_bench::{try_run_suite_opts, DEFAULT_INVOCATIONS};

/// Counts every heap allocation for the `--bench` artifact's allocs/run
/// column. Only the binary carries this; the workspace libraries keep
/// `forbid(unsafe_code)`.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: both methods forward their arguments unchanged to `System`, so
// `System`'s guarantees are this allocator's. The counter publishes no
// other data, so `Relaxed` is enough.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract for
        // `layout`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `alloc` above, that is from `System`,
        // with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Steady-state heap allocations of one arena-reset NACHOS engine run:
/// the first run warms the arena, the second is measured.
fn allocs_per_run(w: &nachos_workloads::Workload) -> u64 {
    let config = SimConfig::default().with_invocations(DEFAULT_INVOCATIONS);
    let compiled = compile_for_backend(&w.region, Backend::Nachos, &config, StageConfig::full());
    let region = compiled.expect("suite workloads compile cleanly").region;
    let energy = EnergyModel::default();
    let mut arena = SimArena::new();
    let mut run = || {
        simulate_in(
            &mut arena,
            &region,
            &w.binding,
            Backend::Nachos,
            &config,
            &energy,
        )
        .expect("suite workloads simulate cleanly")
    };
    let _ = run();
    let before = ALLOCS.load(Ordering::Relaxed);
    let _ = run();
    ALLOCS.load(Ordering::Relaxed) - before
}

/// Times the 27×5 sweep, counts allocations and writes the perf artifact
/// to `path`.
fn bench(path: &str, evidence: &Evidence) -> Result<(), Verdict> {
    let t0 = std::time::Instant::now();
    let suite = try_run_suite_opts(DEFAULT_INVOCATIONS, 0, true).map_err(|why| {
        eprintln!("error: bench sweep failed: {why}");
        Verdict::Divergence
    })?;
    let timing = SweepTiming {
        runs: (suite.results.len() * suite.sweep.variants.len()) as u64,
        wall_seconds: t0.elapsed().as_secs_f64(),
    };
    eprintln!(
        "bench sweep: {} runs in {:.3}s ({:.1} runs/sec)",
        timing.runs,
        timing.wall_seconds,
        timing.runs_per_sec(),
    );
    let allocs: Vec<(String, u64)> = suite
        .results
        .iter()
        .map(|r| (r.spec.name.to_owned(), allocs_per_run(&r.workload)))
        .collect();
    let opt = evidence.optimizer();
    let artifact = bench_artifact_json(&suite, opt, &allocs, DEFAULT_INVOCATIONS, timing);
    if let Err(e) = nachos::json::write_atomic(std::path::Path::new(path), &artifact) {
        eprintln!("error: cannot write {path}: {e}");
        return Err(Verdict::Environment);
    }
    eprintln!("perf artifact written to {path}");
    Ok(())
}

fn main() -> ExitCode {
    let all = figures();
    let usage = || {
        let ids: Vec<_> = all.iter().map(|f| f.id).collect();
        let ids = ids.join(", ");
        eprintln!("usage: nachos-claims [FIGURE] [--bench FILE]; figures: {ids}");
        Verdict::Usage.exit()
    };
    let (mut shown, mut bench_path) = (None, None);
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--bench" if bench_path.is_none() => match args.next() {
                Some(path) => bench_path = Some(path),
                None => return usage(),
            },
            id if shown.is_none() && all.iter().any(|f| f.id == id) => shown = Some(arg),
            _ => return usage(),
        }
    }
    let evidence = Evidence::build();
    let verdict = verdict(&evidence, &all);
    let evidence = match evidence {
        Ok(e) => e,
        Err(why) => {
            eprintln!("error: {why}");
            return verdict.exit();
        }
    };
    for f in &all {
        if shown.as_deref().is_none_or(|id| f.id == id) {
            print!("{}", f.render(&evidence));
        }
        for c in f.claims.iter().filter(|c| c.verdict(&evidence) == "FAILS") {
            eprintln!("nachos-claims: claim `{}` of `{}` FAILS", c.id, f.id);
        }
    }
    if let Some(path) = bench_path {
        if let Err(v) = bench(&path, &evidence) {
            return v.exit();
        }
    }
    verdict.exit()
}
