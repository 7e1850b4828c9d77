//! `nachos-opt` — run the certificate-carrying MDE optimizer over the
//! Table II workloads, re-audit every rewrite, and gate on the results.
//!
//! For each workload × ablation the binary compiles the region, runs
//! [`nachos_alias::optimize()`] (comparator-site coalescing of congruent
//! MAY edges), has the audit's `CertLint` pass re-verify every rewrite
//! certificate independently, and
//! times NACHOS-SW and NACHOS with and without the optimizer under the
//! differential equivalence check. Prints the byte-deterministic
//! `nachos-opt-v1` JSON report and exits nonzero on any certificate
//! error, divergence, or cycle regression — the CI `opt-audit` gate.
//!
//! With `--bench FILE`, additionally runs the full 27×5 sweep (the four
//! bench variants plus the IDEAL oracle), measures its wall-clock
//! throughput and steady-state heap allocations per arena-reset engine
//! run through a counting global allocator, and writes the combined
//! `nachos-bench-v2` perf artifact (the committed `BENCH_sweep.json`
//! trajectory). `--stats FILE` streams the matrix's cycle-level
//! `nachos-stats-v1` telemetry alongside.

use std::alloc::{GlobalAlloc, Layout, System};
use std::process::ExitCode;
use std::sync::atomic::{AtomicU64, Ordering};

use nachos::{simulate_in, Backend, EnergyModel, SimArena, SimConfig};
use nachos_alias::StageConfig;
use nachos_bench::lint::standard_configs;
use nachos_bench::opt::{bench_artifact_json, run_opt_suite, OptOptions, SweepTiming};

/// Counts every heap allocation for the `--bench` artifact's allocs/run
/// column. Only the binary carries this; the workspace libraries keep
/// `forbid(unsafe_code)`.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const USAGE: &str = "\
nachos-opt: certificate-carrying MDE optimization over the workload suite

USAGE:
    nachos-opt [OPTIONS]

OPTIONS:
    --workload NAME      Optimize a single Table II workload (default: all)
    --config NAME        Optimize under a single ablation: full | baseline |
                         stage1-only | no-prune (default: all)
    --invocations N      Invocations per timing run (default: 64)
    --threads N          Worker threads for the --bench sweep (0 = auto)
    --out FILE           Write the nachos-opt-v1 report to FILE
                         instead of stdout
    --bench FILE         Also run the 27x5 sweep + throughput/allocation
                         census and write the nachos-bench-v2 perf
                         artifact to FILE
    --stats FILE         With --bench: stream the matrix's cycle-level
                         nachos-stats-v1 telemetry (stats.jsonl) to FILE
    --strict             Additionally require the improvement bars (full
                         suite only): >=10% of MAY edges coalesced under
                         `full`, faster cycles on >=3 workloads under
                         `full` and on >=5 workloads across ablations
    -h, --help           Show this help

EXIT CODES:
    0  every rewrite certified, no divergence, no regression
    1  usage or I/O error
    2  certificate/audit error, or an optimized run diverged from its
       unoptimized twin
    3  an optimized run regressed in cycles, or --strict thresholds unmet
";

fn usage_error(msg: &str) -> ExitCode {
    eprintln!("error: {msg}\n\n{USAGE}");
    ExitCode::FAILURE
}

/// Steady-state heap allocations of one arena-reset NACHOS engine run:
/// the first run warms the arena, the second is measured.
fn allocs_per_run(w: &nachos_workloads::Workload, invocations: u64) -> u64 {
    let mut region = w.region.clone();
    let _ = nachos_alias::compile(&mut region, StageConfig::full());
    let config = SimConfig::default().with_invocations(invocations);
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

fn write_or_print(json: &str, path: Option<&str>, what: &str) -> Result<(), ExitCode> {
    match path {
        Some(p) => {
            if let Err(e) = nachos::json::write_atomic(std::path::Path::new(p), json) {
                eprintln!("error: cannot write {p}: {e}");
                return Err(ExitCode::FAILURE);
            }
            eprintln!("{what} written to {p}");
        }
        None => print!("{json}"),
    }
    Ok(())
}

fn main() -> ExitCode {
    let mut options = OptOptions::default();
    let mut threads = 0usize;
    let mut out_path: Option<String> = None;
    let mut bench_path: Option<String> = None;
    let mut stats_path: Option<String> = None;
    let mut strict = false;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--workload" => {
                let Some(v) = args.next() else {
                    return usage_error("--workload requires a name");
                };
                if nachos_workloads::by_name(&v).is_none() {
                    return usage_error(&format!("unknown workload `{v}`"));
                }
                options.workload = Some(v);
            }
            "--config" => {
                let Some(v) = args.next() else {
                    return usage_error("--config requires a name");
                };
                if !standard_configs().iter().any(|c| c.name == v) {
                    return usage_error(&format!("unknown config `{v}`"));
                }
                options.config = Some(v);
            }
            "--invocations" => {
                let Some(v) = args.next() else {
                    return usage_error("--invocations requires a count");
                };
                match v.parse::<u64>() {
                    Ok(n) if n > 0 => options.invocations = n,
                    _ => return usage_error(&format!("bad invocation count `{v}`")),
                }
            }
            "--threads" => {
                let Some(v) = args.next() else {
                    return usage_error("--threads requires a count");
                };
                match v.parse::<usize>() {
                    Ok(n) => threads = n,
                    Err(_) => return usage_error(&format!("bad thread count `{v}`")),
                }
            }
            "--out" => {
                let Some(v) = args.next() else {
                    return usage_error("--out requires a path");
                };
                out_path = Some(v);
            }
            "--bench" => {
                let Some(v) = args.next() else {
                    return usage_error("--bench requires a path");
                };
                bench_path = Some(v);
            }
            "--stats" => {
                let Some(v) = args.next() else {
                    return usage_error("--stats requires a path");
                };
                stats_path = Some(v);
            }
            "--strict" => strict = true,
            "-h" | "--help" => {
                print!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other => return usage_error(&format!("unknown argument `{other}`")),
        }
    }
    if bench_path.is_some() && (options.workload.is_some() || options.config.is_some()) {
        return usage_error("--bench covers the full suite; it takes no --workload/--config");
    }
    if strict && (options.workload.is_some() || options.config.is_some()) {
        return usage_error("--strict gates the full suite; it takes no --workload/--config");
    }
    if stats_path.is_some() && bench_path.is_none() {
        return usage_error("--stats requires --bench (it streams the bench matrix)");
    }

    let report = run_opt_suite(&options);
    if let Err(code) = write_or_print(&report.to_json(), out_path.as_deref(), "report") {
        return code;
    }

    if let Some(path) = &bench_path {
        let t0 = std::time::Instant::now();
        let suite = match nachos_bench::try_run_suite_opts(options.invocations, threads, true) {
            Ok(s) => s,
            Err(why) => {
                eprintln!("error: bench sweep failed: {why}");
                return ExitCode::FAILURE;
            }
        };
        let wall = t0.elapsed().as_secs_f64();
        let runs = suite
            .results
            .len()
            .saturating_mul(suite.sweep.variants.len()) as u64;
        let timing = SweepTiming {
            runs,
            wall_seconds: wall,
        };
        eprintln!(
            "bench sweep: {runs} runs in {wall:.3}s ({:.1} runs/sec)",
            if wall > 0.0 { runs as f64 / wall } else { 0.0 },
        );
        let allocs: Vec<(String, u64)> = suite
            .results
            .iter()
            .map(|r| {
                (
                    r.spec.name.to_owned(),
                    allocs_per_run(&r.workload, options.invocations),
                )
            })
            .collect();
        let artifact =
            bench_artifact_json(&suite, &report, &allocs, options.invocations, Some(timing));
        if let Err(code) = write_or_print(&artifact, Some(path.as_str()), "perf artifact") {
            return code;
        }
        if let Some(stats) = &stats_path {
            let jobs = nachos_bench::suite_jobs();
            let cfg = nachos_bench::suite_config(options.invocations, 1, true);
            match nachos_bench::stats::write_stats_stream(stats, &jobs, &cfg) {
                Ok(n) => eprintln!("stats stream: {n} runs written to {stats}"),
                Err(e) => {
                    eprintln!("error: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
    }

    let cert_errors = report.num_cert_errors();
    let divergences = report.num_divergences();
    if cert_errors + divergences > 0 {
        eprintln!("nachos-opt: {cert_errors} certificate error(s), {divergences} divergence(s)");
        return ExitCode::from(2);
    }
    let regressions = report.num_regressions();
    if regressions > 0 {
        eprintln!("nachos-opt: {regressions} cycle regression(s)");
        return ExitCode::from(3);
    }
    if strict {
        let missed = report.strict_shortfalls();
        if !missed.is_empty() {
            eprintln!("nachos-opt: --strict: {}", missed.join("; "));
            return ExitCode::from(3);
        }
        eprintln!(
            "nachos-opt: coalesced {:.1}% of MAY edges under `full`, improved {} workloads \
             under `full` and {} across ablations",
            report.full_may_coalesced_fraction() * 100.0,
            report.full_improved_workloads(),
            report.improved_workloads(),
        );
    }
    ExitCode::SUCCESS
}
