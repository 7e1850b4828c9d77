//! The machine-readable sweep: runs the full 27-workload × 4-variant
//! differential matrix on the parallel harness and emits the JSON report
//! (schema `nachos-sweep-v5`).
//!
//! Crash-recoverable orchestration: with `--journal FILE` every completed
//! run is fsynced to an append-only JSONL journal as it finishes, and
//! `--resume` replays completed runs from that journal instead of
//! re-executing them — after a crash or a kill, the resumed sweep
//! produces a report byte-identical to an uninterrupted one. `--max-retries N`
//! retries transient per-run failures (panic/deadlock/error) under
//! deterministically derived seeds before giving up (a run panicking
//! through its whole budget is reported as `quarantined`).
//!
//! Process isolation: `--shards N` runs the matrix in up to N worker OS
//! processes (this binary re-invoked with `--shard-exec`) that take whole
//! jobs on demand, so an abort, OOM kill or segfault in one cell costs
//! one worker, not the campaign. Each worker reports its acks and its
//! `start`/`done`/`alive` beats on stdout; the supervisor respawns dead
//! or silent workers under deterministic backoff, merges each
//! acknowledged job into the `--journal` file as it lands and emits a
//! report byte-identical to a single-process run. `--cache PATH` adds a
//! persistent cross-campaign result cache keyed by the same content
//! hashes (`default` picks `$XDG_CACHE_HOME/nachos/sweep`).
//!
//! `--deadline-secs N` puts the whole invocation under a wall-clock
//! budget: when it expires, the sweep is cancelled cooperatively through
//! the shared [`CancelToken`] (workers included), cancelled cells are
//! *not* journaled (a later `--resume` re-executes them), and the
//! process exits with the dedicated code 4 — so CI soak jobs can bound a
//! sweep without ever hanging or corrupting its journal.
//!
//! `--connect PATH` turns this binary into a thin client of a running
//! `nachos-sweepd`: the matrix-defining flags become a `nachos-jobs-v1`
//! submission, the job is watched to a terminal state (transparently
//! reconnecting if the daemon restarts mid-job), and the fetched report
//! — byte-identical to a local run of the same matrix — lands at
//! `--out`. Backpressure is honored: a `queue_full` rejection waits the
//! daemon's `retry_after_ms` hint and resubmits.
//!
//! `--filter SUBSTR` keeps only workloads whose name contains the
//! substring; `--variants a,b,c` selects report columns by label from
//! {opt-lsq, nachos-sw, nachos, nachos-sw-baseline, ideal}.
//!
//! `--poison NAME` injects a deterministic panic-on-event fault into the
//! named workload — every one of its runs panics on every attempt, so
//! with a retry budget it exercises the whole worker-supervision path
//! (retry, respawn, quarantine) while the other workloads complete
//! untouched. The CI soak-resume job kills exactly such a sweep
//! mid-flight and diffs the resumed report against a clean one.
//!
//! With `--ideal`, the IDEAL oracle (perfect disambiguation, the paper's
//! Figure 9 upper bound) is appended as a fifth variant column; without
//! it the report is byte-identical to the default four-variant matrix.
//!
//! With `--optimize`, every MDE run compiles through the
//! certificate-carrying `nachos-opt` optimizer (audit-gated by
//! `CertLint`) and reports its rewrite ledger per run; the flag is part
//! of the run fingerprint, so journals and caches never mix optimized
//! and unoptimized results.
//!
//! Reports land atomically (`<out>.tmp` + rename): a crash mid-write
//! never leaves a truncated report behind. Run `sweep --help` for the
//! exit-code contract.

use nachos::json::write_atomic;
use nachos::json::{parse_json, Json};
use nachos::sweep::cache::ResultCache;
use nachos::sweep::daemon::{JobStatus, MatrixSpec};
use nachos::sweep::shard::{run_shard_worker, run_sweep_sharded, ShardConfig};
use nachos::sweep::{journal::Journal, run_sweep_journaled, SweepResult};
use nachos::CancelToken;
use nachos_bench::exitcode::{self, Verdict};
use nachos_bench::matrix;
use std::io::{BufRead as _, BufReader, Write as _};
use std::os::unix::net::UnixStream;
use std::path::Path;
use std::process::ExitCode;
use std::time::{Duration, Instant};

const USAGE: &str = "usage: sweep [--threads N] [--invocations N] [--out FILE] [--ideal] \
                     [--optimize] [--journal FILE] [--resume] [--max-retries N] \
                     [--filter SUBSTR] [--variants LIST] [--poison NAME] [--shards N] \
                     [--cache PATH|default] [--deadline-secs N] [--connect PATH] \
                     [--stats FILE] [--strict] [--shard-exec] [--help]";

const HELP: &str = "\
The NACHOS differential sweep harness.

Flags:
  --threads N             worker threads for in-process execution (0 = auto)
  --invocations N         accelerator invocations simulated per run
  --out FILE              write the JSON report atomically (default: stdout)
  --ideal                 append the IDEAL oracle as a fifth variant column
  --optimize              run the certificate-carrying MDE optimizer
                          (nachos-opt) after compilation in every MDE
                          run; each run then reports its rewrite ledger
  --journal FILE          fsync each completed run to an append-only journal
  --resume                replay completed runs from --journal FILE
  --max-retries N         retry budget for transient per-run failures
  --filter SUBSTR         keep only workloads whose name contains SUBSTR
  --variants LIST         comma-separated variant labels to run
  --poison NAME           inject a deterministic panic into workload NAME
  --shards N              run the matrix across N worker OS processes,
                          each taking one whole job at a time as it
                          finishes the last (requires --journal; report
                          stays byte-identical to a single-process run);
                          a worker that writes nothing on stdout for 10 s
                          (it beats every 200 ms) is killed and respawned
  --cache PATH            promote settled runs into a persistent
                          content-addressed cache at PATH and serve future
                          campaigns from it; the literal 'default' means
                          $XDG_CACHE_HOME/nachos/sweep (requires --shards)
  --deadline-secs N       wall-clock budget for the whole sweep: on
                          expiry the remaining cells are cancelled
                          cooperatively (shard workers included), the
                          journal stays clean and resumable (cancelled
                          cells are never journaled), and the process
                          exits 4
  --connect PATH          run as a client of the nachos-sweepd listening
                          on the Unix socket PATH: submit this matrix,
                          watch the job to a terminal state (reconnecting
                          across daemon restarts), fetch the report to
                          --out; incompatible with the local
                          orchestration flags (--journal/--resume/
                          --shards/--cache/--stats)
  --stats FILE            after the sweep, re-run the matrix serially with
                          cycle-level telemetry attached and stream the
                          nachos-stats-v1 JSONL (one run block per cell,
                          deterministic matrix order) to FILE; telemetry
                          is observation-only, so the report, journal and
                          cache fingerprints are unchanged
  --strict                degraded cells (quarantined, cancelled, panic,
                          deadlock, error, fault_detected) fail the run
  --shard-exec            internal: run as a shard worker, reading the
                          dispatch header and job batches from stdin and
                          acking each batch on stdout
  --help                  this text

Exit codes — each reachable by exactly one condition:
  0  every run completed; without --strict, degraded-but-deterministic
     cells (e.g. a quarantined poison workload) also exit 0
  1  usage error: the invocation itself is wrong (unknown flag, bad
     value, a matrix spec that resolves to nothing)
  2  divergence: at least one run mismatched the reference executor
  3  strict degradation (--strict only): no mismatch, but at least one
     degraded cell
  4  deadline exceeded: the --deadline-secs (or daemon-side) wall-clock
     budget cancelled the sweep before it settled
  5  environment failure: journal/report/cache I/O, a worker protocol
     error, or an unreachable daemon socket

Cache layout and invalidation: entries live at
<root>/<hh>/<key>.nachos-journal-v3.rec, one checksum-framed record per
file, where <key> is the 16-hex FNV-1a content hash of (region, binding,
variant, fault plan, simulator config) and <hh> its first byte. Any
input change changes the key, and a new record schema changes the file
name, so stale entries are never served — they are merely unreachable.
Only settled statuses (ok, mismatch, fault_detected) are cached; corrupt
entries are detected by checksum, removed, and re-executed.
";

fn usage_error(msg: &str) -> ExitCode {
    eprintln!("{msg}");
    eprintln!("{USAGE}");
    Verdict::Usage.exit()
}

fn environment_error(msg: &str) -> ExitCode {
    eprintln!("{msg}");
    Verdict::Environment.exit()
}

/// Maps a finished sweep to the documented exit contract.
fn verdict(sweep: &SweepResult, strict: bool, deadline_hit: bool) -> ExitCode {
    let (mismatches, degraded) = sweep.mismatched_and_degraded();
    exitcode::classify(mismatches, degraded, strict, deadline_hit).exit()
}

#[allow(clippy::too_many_lines)]
fn main() -> ExitCode {
    let mut threads = 0usize;
    let mut invocations = nachos_bench::DEFAULT_INVOCATIONS;
    let mut out: Option<String> = None;
    let mut ideal = false;
    let mut optimize = false;
    let mut journal_path: Option<String> = None;
    let mut resume = false;
    let mut max_retries = 0u32;
    let mut filter: Option<String> = None;
    let mut variant_list: Option<String> = None;
    let mut poison: Option<String> = None;
    let mut shards = 0usize;
    let mut shard_exec = false;
    let mut cache_arg: Option<String> = None;
    let mut deadline_secs = 0u64;
    let mut connect: Option<String> = None;
    let mut stats_path: Option<String> = None;
    let mut strict = false;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--help" => {
                print!("{HELP}");
                return ExitCode::SUCCESS;
            }
            "--ideal" => {
                ideal = true;
                continue;
            }
            "--optimize" => {
                optimize = true;
                continue;
            }
            "--resume" => {
                resume = true;
                continue;
            }
            "--shard-exec" => {
                shard_exec = true;
                continue;
            }
            "--strict" => {
                strict = true;
                continue;
            }
            _ => {}
        }
        let Some(value) = (match a.as_str() {
            "--threads" | "--invocations" | "--out" | "--journal" | "--max-retries"
            | "--filter" | "--variants" | "--poison" | "--shards" | "--cache"
            | "--deadline-secs" | "--connect" | "--stats" => args.next(),
            other => return usage_error(&format!("unknown argument: {other}")),
        }) else {
            return usage_error(&format!("{a} requires a value"));
        };
        match a.as_str() {
            "--threads" => match value.parse() {
                Ok(n) => threads = n,
                Err(_) => return usage_error(&format!("--threads takes a count, got {value:?}")),
            },
            "--invocations" => match value.parse() {
                Ok(n) => invocations = n,
                Err(_) => {
                    return usage_error(&format!("--invocations takes a count, got {value:?}"))
                }
            },
            "--max-retries" => match value.parse() {
                Ok(n) => max_retries = n,
                Err(_) => {
                    return usage_error(&format!("--max-retries takes a count, got {value:?}"))
                }
            },
            "--shards" => match value.parse() {
                Ok(n) => shards = n,
                Err(_) => return usage_error(&format!("--shards takes a count, got {value:?}")),
            },
            "--deadline-secs" => match value.parse() {
                Ok(s) => deadline_secs = s,
                Err(_) => {
                    return usage_error(&format!("--deadline-secs takes seconds, got {value:?}"))
                }
            },
            "--journal" => journal_path = Some(value),
            "--filter" => filter = Some(value),
            "--variants" => variant_list = Some(value),
            "--poison" => poison = Some(value),
            "--cache" => cache_arg = Some(value),
            "--connect" => connect = Some(value),
            "--stats" => stats_path = Some(value),
            _ => out = Some(value),
        }
    }
    if resume && journal_path.is_none() {
        return usage_error("--resume requires --journal FILE");
    }
    if shards > 0 && journal_path.is_none() {
        return usage_error("--shards requires --journal FILE (the merge target)");
    }
    if cache_arg.is_some() && shards == 0 && !shard_exec {
        return usage_error("--cache requires --shards N");
    }
    if shard_exec && (shards > 0 || journal_path.is_some() || out.is_some()) {
        return usage_error(
            "--shard-exec is the worker side: it takes its journal from the dispatch \
             header, not from --shards/--journal/--out",
        );
    }
    if stats_path.is_some() && shard_exec {
        return usage_error("--stats applies to the standard sweep");
    }
    if connect.is_some()
        && (journal_path.is_some()
            || resume
            || shards > 0
            || cache_arg.is_some()
            || stats_path.is_some()
            || shard_exec)
    {
        return usage_error(
            "--connect is the client side: orchestration (--journal/--resume/--shards/\
             --cache/--stats/--shard-exec) lives in the daemon",
        );
    }

    // The submitted (or locally-run) matrix, as data. One resolver —
    // `nachos_bench::matrix::resolve` — interprets it on both sides of
    // the socket, which is what keeps daemon-fetched reports
    // byte-identical to local runs.
    let spec = MatrixSpec {
        invocations,
        threads,
        ideal,
        optimize,
        max_retries,
        filter: filter.clone(),
        variants: matrix::parse_variants(variant_list.as_deref()),
        poison: poison.clone(),
        deadline_secs,
    };

    if let Some(sock) = connect {
        return run_client(&sock, &spec, out.as_deref(), strict);
    }

    // The wall-clock deadline: one shared token, cancelled by a
    // detached timer thread. `run_sweep_sharded` forwards the token to
    // every worker, so the budget binds in both execution modes.
    let deadline_token = (deadline_secs > 0 && !shard_exec).then(|| {
        let token = CancelToken::new();
        let timer = token.clone();
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_secs(deadline_secs));
            timer.cancel();
        });
        token
    });

    let (jobs, mut cfg) = match matrix::resolve(&spec) {
        Ok(r) => r,
        Err(e) => return usage_error(&e),
    };
    if let Some(token) = &deadline_token {
        cfg.sim.cancel = Some(token.clone());
    }

    // Worker mode: execute the shard streamed over stdin and
    // exit — no report of its own.
    if shard_exec {
        return match run_shard_worker(&jobs, &cfg, std::io::stdin(), std::io::stdout()) {
            Ok(s) => {
                eprintln!(
                    "shard {}: {} executed, {} replayed, {} protocol errors{}",
                    s.shard,
                    s.executed,
                    s.replayed,
                    s.protocol_errors,
                    if s.cancelled { ", cancelled" } else { "" },
                );
                if s.protocol_errors > 0 {
                    Verdict::Environment.exit()
                } else {
                    Verdict::Success.exit()
                }
            }
            Err(e) => environment_error(&format!("shard worker failed: {e}")),
        };
    }

    let sweep = if shards > 0 {
        // Supervisor mode: the journal is the merge target; the
        // workers are this binary re-invoked with --shard-exec
        // and the matrix-defining flags forwarded verbatim.
        let journal = journal_path.clone().unwrap_or_default();
        let exe = match std::env::current_exe() {
            Ok(p) => p.display().to_string(),
            Err(e) => {
                return environment_error(&format!("cannot locate own executable for workers: {e}"))
            }
        };
        let mut worker_cmd = vec![
            exe,
            "--shard-exec".into(),
            "--invocations".into(),
            invocations.to_string(),
            "--max-retries".into(),
            max_retries.to_string(),
        ];
        if ideal {
            worker_cmd.push("--ideal".into());
        }
        // The optimizer changes the compiled MDE graph, so it is
        // part of the matrix definition: workers must agree with
        // the supervisor or every fingerprint misses.
        if optimize {
            worker_cmd.push("--optimize".into());
        }
        for (flag, v) in [
            ("--filter", &filter),
            ("--variants", &variant_list),
            ("--poison", &poison),
        ] {
            if let Some(v) = v {
                worker_cmd.push(flag.into());
                worker_cmd.push(v.clone());
            }
        }
        let mut scfg = ShardConfig::new(shards, worker_cmd, &journal);
        scfg.resume = resume;
        if let Some(arg) = &cache_arg {
            let root = if arg == "default" {
                ResultCache::default_root()
            } else {
                arg.clone().into()
            };
            match ResultCache::open(root) {
                Ok(c) => scfg.cache = Some(c),
                Err(e) => return environment_error(&format!("cannot open result cache: {e}")),
            }
        }
        let (sweep, stats, sstats) = match run_sweep_sharded(&jobs, &cfg, &scfg) {
            Ok(r) => r,
            Err(e) => return environment_error(&format!("sharded sweep failed: {e}")),
        };
        eprintln!(
            "orchestration: {} shards, {} workers spawned ({} respawns, {} silent kills), \
             {} cells dispatched, {} recovered from shard journals, {} corrupt lines \
             dropped, {} quarantined by the supervisor, {} abandoned to the inline pass",
            sstats.shards,
            sstats.workers_spawned,
            sstats.respawns,
            sstats.silent_kills,
            sstats.dispatched,
            sstats.recovered,
            sstats.corrupt_lines,
            sstats.quarantined,
            sstats.abandoned,
        );
        if scfg.cache.is_some() {
            eprintln!(
                "cache: {} hits, {} misses, {} corrupt entries healed, {} stored",
                sstats.cache.hits, sstats.cache.misses, sstats.cache.corrupt, sstats.cache.stored,
            );
        }
        eprintln!(
            "merge: {} runs replayed, {} executed inline, {} journal errors",
            stats.replayed, stats.executed, stats.journal_errors,
        );
        sweep
    } else {
        let journal = match &journal_path {
            Some(p) => {
                let opened = if resume {
                    Journal::resume(p)
                } else {
                    Journal::create(p)
                };
                match opened {
                    Ok(j) => Some(j),
                    Err(e) => return environment_error(&format!("cannot open journal {p}: {e}")),
                }
            }
            None => None,
        };
        if let Some(j) = &journal {
            if j.replay_len() > 0 || j.skipped() > 0 {
                eprintln!(
                    "journal {}: {} completed runs loaded, {} unreadable lines skipped \
                     ({} corrupt)",
                    j.path().display(),
                    j.replay_len(),
                    j.skipped(),
                    j.corrupt(),
                );
            }
        }
        let (sweep, stats) = run_sweep_journaled(&jobs, &cfg, journal.as_ref());
        if journal.is_some() {
            eprintln!(
                "orchestration: {} runs replayed from the journal, {} executed, {} journal errors",
                stats.replayed, stats.executed, stats.journal_errors,
            );
        }
        sweep
    };
    let diverged = sweep.mismatches();
    if !diverged.is_empty() {
        eprintln!("DIVERGENCE: {diverged:?}");
    }
    let summary = format!(
        "{} jobs x {} variants",
        sweep.jobs.len(),
        sweep.variants.len()
    );
    let deadline_hit = deadline_token
        .as_ref()
        .is_some_and(CancelToken::is_cancelled);
    if deadline_hit {
        eprintln!("DEADLINE: wall-clock budget of {deadline_secs}s exhausted");
    }
    let json = sweep.to_json();
    let code = verdict(&sweep, strict, deadline_hit);

    if let Some(path) = &stats_path {
        // The telemetry pass re-executes the matrix serially so the
        // stream order is deterministic; the sweep report above is
        // untouched (telemetry is observation-only).
        let serial = MatrixSpec {
            threads: 1,
            ..spec.clone()
        };
        let Ok((jobs, cfg)) = matrix::resolve(&serial) else {
            return usage_error("--stats could not re-resolve the matrix");
        };
        match nachos_bench::stats::write_stats_stream(path, &jobs, &cfg) {
            Ok(n) => eprintln!("stats stream: {n} runs written to {path}"),
            Err(e) => return environment_error(&e.to_string()),
        }
    }

    match out {
        Some(path) => {
            if let Err(e) = write_atomic(Path::new(&path), &json) {
                return environment_error(&format!("cannot write report {path}: {e}"));
            }
            eprintln!("wrote {summary} to {path}");
        }
        None => {
            print!("{json}");
            eprintln!("{summary}");
        }
    }
    code
}

// ---------------------------------------------------------------------
// Client mode (--connect)
// ---------------------------------------------------------------------

fn env_ms(name: &str, default: u64) -> Duration {
    Duration::from_millis(
        std::env::var(name)
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(default),
    )
}

/// Connects within a wall-clock budget, retrying while the socket is
/// absent or refusing (a daemon restart leaves both windows open).
fn connect_within(sock: &str, budget: Duration) -> std::io::Result<UnixStream> {
    let deadline = Instant::now() + budget;
    loop {
        match UnixStream::connect(sock) {
            Ok(s) => return Ok(s),
            Err(e) if Instant::now() >= deadline => return Err(e),
            Err(_) => std::thread::sleep(Duration::from_millis(100)),
        }
    }
}

/// One request, one response line, on a fresh connection.
fn roundtrip(sock: &str, request: &str, budget: Duration) -> std::io::Result<Json> {
    let stream = connect_within(sock, budget)?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut out = stream;
    out.write_all(request.as_bytes())?;
    out.write_all(b"\n")?;
    let mut line = String::new();
    reader.read_line(&mut line)?;
    parse_json(line.trim()).ok_or_else(|| {
        std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            "daemon sent an unparseable response",
        )
    })
}

/// The `--connect` client: submit (honoring backpressure), watch to a
/// terminal state across daemon restarts, fetch the report, and map the
/// terminal state onto the exit-code contract.
#[allow(clippy::too_many_lines)]
fn run_client(sock: &str, spec: &MatrixSpec, out: Option<&str>, strict: bool) -> ExitCode {
    // Budgets are env-overridable so soak jobs can bound the client
    // without patching it: NACHOS_CONNECT_TIMEOUT_MS gates the first
    // contact, NACHOS_RECONNECT_TIMEOUT_MS every later reconnect (the
    // daemon may be mid-restart after a kill).
    let connect_budget = env_ms("NACHOS_CONNECT_TIMEOUT_MS", 15_000);
    let reconnect_budget = env_ms("NACHOS_RECONNECT_TIMEOUT_MS", 120_000);

    // Submit, resubmitting on queue_full after the daemon's own hint.
    let submit = format!(
        "{{\"jobs\": \"nachos-jobs-v1\", \"cmd\": \"submit\", \"spec\": {}}}",
        spec.to_json()
    );
    let mut budget = connect_budget;
    let job = loop {
        let resp = match roundtrip(sock, &submit, budget) {
            Ok(r) => r,
            Err(e) => return environment_error(&format!("cannot reach daemon at {sock}: {e}")),
        };
        if resp.get("ok") == Some(&Json::Bool(true)) {
            match resp.get("job").and_then(Json::as_u64) {
                Some(id) => break id,
                None => return environment_error("daemon accepted the job but sent no id"),
            }
        }
        match resp.get("error").and_then(Json::as_str) {
            Some("queue_full") => {
                let hint = resp
                    .get("retry_after_ms")
                    .and_then(Json::as_u64)
                    .unwrap_or(500);
                eprintln!("daemon queue full; retrying in {hint}ms");
                std::thread::sleep(Duration::from_millis(hint.min(5_000)));
                budget = reconnect_budget;
            }
            Some("bad_spec") => {
                return usage_error(
                    resp.get("detail")
                        .and_then(Json::as_str)
                        .unwrap_or("daemon rejected the matrix spec"),
                )
            }
            Some(other) => return environment_error(&format!("daemon refused the job: {other}")),
            None => return environment_error("daemon sent a malformed rejection"),
        }
    };
    eprintln!("submitted as job {job} on {sock}");

    // Watch until terminal. A dropped connection (daemon killed or
    // restarting) is survivable: reconnect and re-watch — the job's
    // durable journal means its id and state outlive the process.
    let watch = format!("{{\"jobs\": \"nachos-jobs-v1\", \"cmd\": \"watch\", \"job\": {job}}}");
    let mut last_state: Option<String> = None;
    let terminal = 'outer: loop {
        let stream = match connect_within(sock, reconnect_budget) {
            Ok(s) => s,
            Err(e) => return environment_error(&format!("daemon never came back: {e}")),
        };
        let Ok(read_half) = stream.try_clone() else {
            continue;
        };
        let mut reader = BufReader::new(read_half);
        let mut w = stream;
        if w.write_all(watch.as_bytes()).is_err() || w.write_all(b"\n").is_err() {
            continue;
        }
        loop {
            let mut line = String::new();
            match reader.read_line(&mut line) {
                Ok(0) | Err(_) => {
                    eprintln!("daemon connection lost; reconnecting");
                    break;
                }
                Ok(_) => {}
            }
            let Some(resp) = parse_json(line.trim()) else {
                continue;
            };
            if resp.get("ok") != Some(&Json::Bool(true)) {
                return environment_error(&format!("watch failed: {}", line.trim()));
            }
            let Some(state) = resp.get("state").and_then(Json::as_str) else {
                continue;
            };
            if last_state.as_deref() != Some(state) {
                eprintln!("job {job}: {state}");
                last_state = Some(state.to_owned());
            }
            let Some(status) = JobStatus::from_label(state) else {
                continue;
            };
            if status.is_terminal() {
                break 'outer (status, resp);
            }
        }
    };

    let (status, snap) = terminal;
    let detail = snap
        .get("detail")
        .and_then(Json::as_str)
        .unwrap_or("")
        .to_owned();
    match status {
        JobStatus::Settled => {}
        JobStatus::DeadlineExceeded => {
            eprintln!("job {job} exceeded its deadline: {detail}");
            return Verdict::DeadlineExceeded.exit();
        }
        other => {
            return environment_error(&format!("job {job} ended {other}: {detail}"));
        }
    }

    // Fetch the report — byte-identical to a local run of the same
    // matrix, because both sides resolve the same spec through the same
    // resolver and the same journaled harness.
    let fetch = format!("{{\"jobs\": \"nachos-jobs-v1\", \"cmd\": \"fetch\", \"job\": {job}}}");
    let resp = match roundtrip(sock, &fetch, reconnect_budget) {
        Ok(r) => r,
        Err(e) => return environment_error(&format!("cannot fetch report: {e}")),
    };
    if resp.get("ok") != Some(&Json::Bool(true)) {
        return environment_error(&format!("daemon would not serve the report: {resp:?}"));
    }
    let Some(report) = resp.get("report").and_then(Json::as_str) else {
        return environment_error("fetch response carries no report");
    };
    let mismatches = resp.get("mismatches").and_then(Json::as_u64).unwrap_or(0);
    let degraded = resp.get("degraded").and_then(Json::as_u64).unwrap_or(0);
    match out {
        Some(path) => {
            if let Err(e) = write_atomic(Path::new(&path), report) {
                return environment_error(&format!("cannot write report {path}: {e}"));
            }
            eprintln!("wrote job {job} report to {path}");
        }
        None => print!("{report}"),
    }
    if mismatches > 0 {
        eprintln!("DIVERGENCE: {mismatches} mismatched cells");
    }
    exitcode::classify(mismatches, degraded, strict, false).exit()
}
