//! `perfbench` — the repository benchmark.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1
//! perfbench spread --workload NAME [--runs 10] [--first-seed 1] [--seconds S] [--trace 0|1]
//! ```
//!
//! A run generates its workload from `--seed`, measures it for about
//! `--seconds`, checks every output, and prints as its last line one
//! JSON object: `correct`, `attempted`, `failed` and the metrics —
//! end-to-end ones untraced (`--trace 0`), per-layer ones from the
//! traced serial pass (`--trace 1`, spans written to
//! `.perfbench/traces/`). `spread` runs the benchmark once per seed and
//! prints each metric's median, quartiles and quartile spread. See
//! README.md beside this file.

mod cells;
mod check;
mod daemon;
mod gen;
mod inproc;
mod metrics;
mod sharded;
mod stats;
mod trace;

use gen::Workload;
use metrics::{Outcome, END_TO_END, PER_LAYER};
use std::io;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::Instant;

const USAGE: &str = "usage: perfbench --workload suite-long|paths-compile|daemon-jobs|sharded-cached \
                     --seed N --seconds S --trace 0|1\n       \
                     perfbench spread --workload NAME [--runs N] [--first-seed N] [--seconds S] [--trace 0|1]";

/// How often the set-up is repeated through a run.
const SETUP_EVERY: std::time::Duration = std::time::Duration::from_secs(1);

/// Everything the benchmark writes lives under this directory of the
/// working directory (the checkout root).
const STATE_DIR: &str = ".perfbench";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    runs: u64,
}

fn parse(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut a = Args {
        workload: Workload::SuiteLong,
        seed: 1,
        seconds: 10.0,
        trace: false,
        runs: 10,
    };
    let mut workload = None;
    while let Some(flag) = args.next() {
        let value = args
            .next()
            .ok_or_else(|| format!("{flag} requires a value"))?;
        let bad = |what: &str| format!("{flag} takes {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::from_name(&value).ok_or_else(|| bad("a workload name"))?);
            }
            "--seed" | "--first-seed" => a.seed = value.parse().map_err(|_| bad("an integer"))?,
            "--seconds" => {
                a.seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0 && *s <= 600.0)
                    .ok_or_else(|| bad("seconds in (0, 600]"))?;
            }
            "--trace" => {
                a.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                };
            }
            "--runs" => a.runs = value.parse().map_err(|_| bad("a count"))?,
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    a.workload = workload.ok_or("--workload is required")?;
    Ok(a)
}

fn main() -> ExitCode {
    let mut argv = std::env::args().skip(1).peekable();
    let spread = argv.next_if(|a| a == "spread").is_some();
    let args = match parse(argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = if spread {
        run_spread(&args)
    } else {
        run(&args)
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Shard processes (and the threads of the untimed artifact check):
/// two, never more than the machine's parallelism.
pub fn shards() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(2))
}

/// A binary built beside this one (`sweep`, `nachos-sweepd`).
fn sibling(name: &str) -> io::Result<PathBuf> {
    let exe = std::env::current_exe()?;
    let path = exe.with_file_name(name);
    if path.is_file() {
        Ok(path)
    } else {
        Err(io::Error::other(format!("{} is not built", path.display())))
    }
}

/// The run's scratch directory, removed when the run ends.
struct WorkDir(PathBuf);

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn run(a: &Args) -> io::Result<()> {
    let w = a.workload;
    let work = WorkDir(Path::new(STATE_DIR).join(format!("run-{}", std::process::id())));
    let _ = std::fs::remove_dir_all(&work.0);
    std::fs::create_dir_all(&work.0)?;
    println!(
        "{{\"perfbench\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"shards\": {}, \"job_list_fnv1a\": \"{:016x}\"}}",
        w.name(),
        a.seed,
        a.seconds,
        u8::from(a.trace),
        shards(),
        gen::digest(&gen::job_list(w, a.seed)),
    );
    let mut out = Outcome::default();
    let spans = match (w, a.trace) {
        (Workload::SuiteLong | Workload::PathsCompile, false) => {
            inproc::measure(w, a.seed, a.seconds, &mut out);
            None
        }
        (Workload::SuiteLong | Workload::PathsCompile, true) => {
            Some(inproc::trace(w, a.seed, a.seconds, &mut out))
        }
        (Workload::DaemonJobs, false) => {
            daemon::measure(
                &sibling("nachos-sweepd")?,
                &work.0,
                a.seed,
                a.seconds,
                &mut out,
            )?;
            None
        }
        (Workload::DaemonJobs, true) => Some(daemon::trace(
            &sibling("nachos-sweepd")?,
            &work.0,
            a.seed,
            a.seconds,
            &mut out,
        )?),
        (Workload::ShardedCached, false) => {
            sharded::measure(&sibling("sweep")?, &work.0, a.seed, a.seconds, &mut out)?;
            None
        }
        (Workload::ShardedCached, true) => Some(sharded::trace(
            &sibling("sweep")?,
            &work.0,
            a.seed,
            a.seconds,
            &mut out,
        )?),
    };
    check::artifact(Path::new("BENCH_sweep.json"), &mut out);
    if let Some(tr) = spans {
        let dir = Path::new(STATE_DIR).join("traces");
        std::fs::create_dir_all(&dir)?;
        let path = dir.join(format!("{}-seed{}.jsonl", w.name(), a.seed));
        std::fs::write(&path, tr.to_jsonl())?;
        eprintln!(
            "perfbench: {} spans written to {}",
            tr.spans().len(),
            path.display()
        );
    }
    eprintln!(
        "perfbench: {} operations, {} failed (failed_frac {})",
        out.attempted,
        out.failed,
        out.failed as f64 / out.attempted.max(1) as f64
    );
    let line = out
        .result_line(if a.trace { PER_LAYER } else { END_TO_END })
        .map_err(io::Error::other)?;
    println!("{line}");
    Ok(())
}

/// The workload's set-up, timed once before the run and then again
/// about every [`SETUP_EVERY`] through it, between jobs: the median
/// samples the machine over the whole run, not only its first
/// milliseconds.
pub struct Setup<F> {
    f: F,
    times: Vec<f64>,
    last: Instant,
}

impl<T, F: FnMut() -> io::Result<T>> Setup<F> {
    /// Runs the set-up once, timed, and returns its value.
    pub fn start(mut f: F) -> io::Result<(Self, T)> {
        let t0 = Instant::now();
        let value = f()?;
        let times = vec![t0.elapsed().as_secs_f64()];
        let last = Instant::now();
        Ok((Setup { f, times, last }, value))
    }

    /// Repeats the set-up, timed, if [`SETUP_EVERY`] has passed since
    /// the last one; the value is dropped after the clock stops.
    pub fn tick(&mut self) -> io::Result<()> {
        if self.last.elapsed() >= SETUP_EVERY {
            let t0 = Instant::now();
            let value = (self.f)()?;
            self.times.push(t0.elapsed().as_secs_f64());
            drop(value);
            self.last = Instant::now();
        }
        Ok(())
    }

    /// Median set-up time in seconds.
    pub fn median_s(&self) -> f64 {
        stats::median(&self.times).unwrap_or(0.0)
    }
}

/// Throughput: the median over rounds of cells per second of job
/// time, from each round's (cells, summed job seconds).
pub fn median_rate(rounds: &[(u64, f64)]) -> f64 {
    let rates: Vec<f64> = rounds.iter().map(|&(cells, s)| cells as f64 / s).collect();
    stats::median(&rates).unwrap_or(f64::NAN)
}

/// Sets the job-latency pair from per-job samples. Every loop takes at
/// least eleven samples, so the tail percentile exists.
pub fn set_latencies(out: &mut Outcome, samples_ms: &[f64]) {
    out.set(
        "job_latency_p50_ms",
        stats::median(samples_ms).unwrap_or(f64::NAN),
    );
    out.set(
        "job_latency_tail_ms",
        stats::tail(samples_ms).unwrap_or(f64::NAN),
    );
}

/// Peak resident set of this process, plus that of `child` if given,
/// in MiB (`VmHWM` from `/proc`).
pub fn peak_rss_mb(child: Option<u32>) -> f64 {
    let hwm = |pid: &str| {
        std::fs::read_to_string(format!("/proc/{pid}/status"))
            .ok()
            .and_then(|s| {
                s.lines()
                    .find_map(|l| l.strip_prefix("VmHWM:"))
                    .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            })
            .unwrap_or(f64::NAN)
    };
    let kb = hwm("self") + child.map_or(0.0, |pid| hwm(&pid.to_string()));
    kb / 1024.0
}

/// Sets every per-layer metric of the given modules to zero: the
/// workload does not use that layer.
pub fn set_service_zero(out: &mut Outcome, modules: &[&str]) {
    for (name, _) in PER_LAYER {
        if modules.iter().any(|m| name.split('.').next() == Some(m)) {
            out.set(name, 0.0);
        }
    }
}

/// `spread`: runs the benchmark once per seed and prints, per metric,
/// the median, the quartiles and the quartile distance as a share of
/// the median.
fn run_spread(a: &Args) -> io::Result<()> {
    let exe = std::env::current_exe()?;
    let mut values: Vec<(String, Vec<f64>)> = Vec::new();
    for seed in a.seed..a.seed + a.runs {
        let out = Command::new(&exe)
            .args(["--workload", a.workload.name()])
            .args(["--seed", &seed.to_string()])
            .args(["--seconds", &a.seconds.to_string()])
            .args(["--trace", if a.trace { "1" } else { "0" }])
            .output()?;
        let text = String::from_utf8_lossy(&out.stdout);
        let last = text.lines().last().unwrap_or("");
        let doc = nachos::sweep::journal::parse_json(last)
            .filter(|_| out.status.success())
            .ok_or_else(|| io::Error::other(format!("seed {seed}: no result line")))?;
        let correct = matches!(
            doc.get("correct"),
            Some(nachos::sweep::journal::Json::Bool(true))
        );
        let mut row = format!("seed {seed}: correct {correct}");
        let table = if a.trace { PER_LAYER } else { END_TO_END };
        for (name, _) in table {
            let v = doc
                .get("metrics")
                .and_then(|m| m.get(name))
                .and_then(|m| m.get("value"))
                .and_then(nachos::sweep::journal::Json::as_f64)
                .unwrap_or(f64::NAN);
            row.push_str(&format!(" {v:.6}"));
            match values.iter_mut().find(|(n, _)| n == name) {
                Some((_, xs)) => xs.push(v),
                None => values.push(((*name).to_owned(), vec![v])),
            }
        }
        println!("{row}");
    }
    for (name, xs) in &values {
        let (q1, q3) = stats::quartiles(xs).unwrap_or((f64::NAN, f64::NAN));
        println!(
            "{name:40} median {:>14.6} q1 {:>14.6} q3 {:>14.6} spread {:.4}",
            stats::median(xs).unwrap_or(f64::NAN),
            q1,
            q3,
            stats::spread(xs).unwrap_or(f64::NAN),
        );
    }
    Ok(())
}
