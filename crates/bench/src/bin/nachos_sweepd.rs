//! `nachos-sweepd` — the resident sweep job service.
//!
//! Server mode binds a Unix domain socket and serves the
//! `nachos-jobs-v1` protocol (see `DESIGN.md §12`): clients submit
//! sweep matrices, watch job state, and fetch `nachos-sweep-v4`
//! reports. Every job transition is journaled durably under `--root`,
//! so `kill -9` + restart resumes every in-flight job and reproduces
//! its report byte-for-byte.
//!
//! ```text
//! nachos-sweepd --socket /tmp/nachos.sock --root /tmp/nachos-jobs
//! ```
//!
//! Control mode (`--ctl CMD`) is a one-shot client for scripts and CI:
//! it sends one request, prints the raw JSON response line to stdout,
//! and exits 0 iff the daemon answered `"ok": true`.
//!
//! ```text
//! nachos-sweepd --ctl ping   --socket /tmp/nachos.sock
//! nachos-sweepd --ctl submit --socket /tmp/nachos.sock --spec '{"invocations": 8}'
//! nachos-sweepd --ctl status --socket /tmp/nachos.sock --job 1
//! nachos-sweepd --ctl drain  --socket /tmp/nachos.sock
//! ```
//!
//! Exit codes follow the sweep contract: 0 success, 1 usage error,
//! 5 environment failure (socket, state directory, journal I/O).

use nachos::json::{parse_json, Json};
use nachos::sweep::daemon::{Daemon, DaemonConfig, JobStatus, MatrixSpec};
use nachos_bench::exitcode::Verdict;
use std::io::{BufRead as _, BufReader, Write as _};
use std::os::unix::net::UnixStream;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

const USAGE: &str = "usage: nachos-sweepd --socket PATH --root DIR [--capacity N] \
                     [--retry-after-ms MS] [--poll-ms MS]\n\
       nachos-sweepd --ctl CMD --socket PATH [--job N] [--spec JSON]";

const HELP: &str = "\
The resident NACHOS sweep job service (protocol nachos-jobs-v1).

Server mode:
  --socket PATH        Unix domain socket to serve on (required)
  --root DIR           durable state directory: job journal, per-job
                       run journals, reports (required)
  --capacity N         admission bound: at most N jobs queued at once;
                       submissions past it get a structured queue_full
                       rejection with a retry_after_ms hint (default 16)
  --retry-after-ms MS  the backoff hint in queue_full rejections
                       (default 500)
  --poll-ms MS         internal poll cadence; liveness only, never
                       observable in journaled bytes (default 25)

The server runs until a client sends drain (finish every admitted job,
then exit 0) or shutdown (requeue the in-flight job durably, then exit
0). kill -9 is always safe: restarting over the same --root resumes
every job from its journal.

Control mode (one-shot client):
  --ctl CMD            one of: ping, list, status, watch, fetch,
                       cancel, submit, drain, shutdown
  --job N              job id (status/watch/fetch/cancel)
  --spec JSON          matrix spec object for submit (default: the
                       full 27-workload default matrix)

Prints the raw response line(s) to stdout. Exit codes: 0 the daemon
answered ok (for watch: the job settled), 1 usage error, 4 watch ended
in deadline_exceeded, 5 environment or daemon-side failure.
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

#[allow(clippy::too_many_lines)]
fn main() -> ExitCode {
    let mut socket: Option<String> = None;
    let mut root: Option<String> = None;
    let mut capacity = 16usize;
    let mut retry_after_ms = 500u64;
    let mut poll_ms = 25u64;
    let mut ctl: Option<String> = None;
    let mut job: Option<u64> = None;
    let mut spec_json: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        if a == "--help" {
            print!("{HELP}");
            return ExitCode::SUCCESS;
        }
        let Some(value) = args.next() else {
            return usage_error(&format!("{a} requires a value"));
        };
        match a.as_str() {
            "--socket" => socket = Some(value),
            "--root" => root = Some(value),
            "--capacity" => match value.parse() {
                Ok(n) => capacity = n,
                Err(_) => return usage_error(&format!("--capacity takes a count, got {value:?}")),
            },
            "--retry-after-ms" => match value.parse() {
                Ok(ms) => retry_after_ms = ms,
                Err(_) => {
                    return usage_error(&format!(
                        "--retry-after-ms takes milliseconds, got {value:?}"
                    ))
                }
            },
            "--poll-ms" => match value.parse() {
                Ok(ms) => poll_ms = ms,
                Err(_) => {
                    return usage_error(&format!("--poll-ms takes milliseconds, got {value:?}"))
                }
            },
            "--ctl" => ctl = Some(value),
            "--job" => match value.parse() {
                Ok(n) => job = Some(n),
                Err(_) => return usage_error(&format!("--job takes a job id, got {value:?}")),
            },
            "--spec" => spec_json = Some(value),
            other => return usage_error(&format!("unknown argument: {other}")),
        }
    }
    let Some(socket) = socket else {
        return usage_error("--socket PATH is required");
    };

    if let Some(cmd) = ctl {
        return run_ctl(&socket, &cmd, job, spec_json.as_deref());
    }

    let Some(root) = root else {
        return usage_error("server mode requires --root DIR");
    };
    let mut cfg = DaemonConfig::new(root, &socket);
    cfg.capacity = capacity;
    cfg.retry_after_ms = retry_after_ms;
    cfg.poll = Duration::from_millis(poll_ms.max(1));
    let daemon = match Daemon::open(cfg, Arc::new(nachos_bench::matrix::resolve)) {
        Ok(d) => d,
        Err(e) => return environment_error(&format!("cannot open daemon state: {e}")),
    };
    let snaps = daemon.list();
    let queued = snaps
        .iter()
        .filter(|s| s.status == JobStatus::Queued)
        .count();
    eprintln!(
        "nachos-sweepd: {} jobs recovered ({} queued, {} unreadable journal lines), serving on {}",
        snaps.len(),
        queued,
        daemon.log_skipped(),
        socket,
    );
    match daemon.serve() {
        Ok(()) => {
            eprintln!("nachos-sweepd: drained, exiting");
            ExitCode::SUCCESS
        }
        Err(e) => environment_error(&format!("cannot serve on {socket}: {e}")),
    }
}

/// One-shot control client: send one request line, relay the response.
fn run_ctl(socket: &str, cmd: &str, job: Option<u64>, spec_json: Option<&str>) -> ExitCode {
    let needs_job = matches!(cmd, "status" | "watch" | "fetch" | "cancel");
    if !needs_job && !matches!(cmd, "ping" | "list" | "submit" | "drain" | "shutdown") {
        return usage_error(&format!("--ctl knows no command {cmd:?}"));
    }
    if needs_job && job.is_none() {
        return usage_error(&format!("--ctl {cmd} requires --job N"));
    }
    let spec = match spec_json {
        Some(text) => match parse_json(text).as_ref().and_then(MatrixSpec::from_json) {
            Some(s) => Some(s),
            None => return usage_error("--spec is not a valid matrix spec object"),
        },
        None => None,
    };
    let mut request = format!("{{\"jobs\": \"nachos-jobs-v1\", \"cmd\": \"{cmd}\"");
    if let Some(id) = job {
        request.push_str(&format!(", \"job\": {id}"));
    }
    if cmd == "submit" {
        let spec = spec.unwrap_or_default();
        request.push_str(&format!(", \"spec\": {}", spec.to_json()));
    }
    request.push_str("}\n");

    let stream = match UnixStream::connect(socket) {
        Ok(s) => s,
        Err(e) => return environment_error(&format!("cannot connect to {socket}: {e}")),
    };
    let Ok(read_half) = stream.try_clone() else {
        return environment_error("cannot clone socket stream");
    };
    let mut reader = BufReader::new(read_half);
    let mut out = stream;
    if let Err(e) = out.write_all(request.as_bytes()) {
        return environment_error(&format!("cannot send request: {e}"));
    }
    // `watch` streams one line per state change; everything else
    // answers exactly once. Either way: relay every line, judge the
    // last one.
    let mut last = String::new();
    loop {
        let mut line = String::new();
        match reader.read_line(&mut line) {
            Ok(0) => break,
            Ok(_) => {
                print!("{line}");
                last = line;
                if cmd != "watch" {
                    break;
                }
            }
            Err(e) => return environment_error(&format!("connection lost: {e}")),
        }
    }
    let Some(resp) = parse_json(last.trim()) else {
        return environment_error("daemon sent no parseable response");
    };
    let ok = resp
        .get("ok")
        .is_some_and(|v| matches!(v, Json::Bool(true)));
    if cmd == "watch" && ok {
        // The stream's last state is the job's terminal state.
        match resp.get("state").and_then(Json::as_str) {
            Some("settled") => return ExitCode::SUCCESS,
            Some("deadline_exceeded") => return Verdict::DeadlineExceeded.exit(),
            _ => return Verdict::Environment.exit(),
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        Verdict::Environment.exit()
    }
}
