//! End-to-end acceptance for the sweep job service: a real
//! `nachos-sweepd` process on a real Unix socket, a real `sweep
//! --connect` client, real SIGKILLs.
//!
//! The headline contract mirrors `shard_exec.rs`'s: through daemon
//! death and restart, the fetched report stays byte-identical to an
//! uninterrupted one-shot run of the same matrix. The rest pins the
//! robustness surface — bounded admission with structured backpressure,
//! deadline exit codes, the drain path exiting 0, and the exit-code
//! table each code reachable by exactly one condition.

use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

fn sweep() -> Command {
    Command::new(env!("CARGO_BIN_EXE_sweep"))
}

fn sweepd() -> Command {
    Command::new(env!("CARGO_BIN_EXE_nachos-sweepd"))
}

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("nachos-daemon-accept").join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

fn read(path: &Path) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

fn spawn_daemon(sock: &Path, root: &Path, extra: &[&str]) -> Child {
    sweepd()
        .args([
            "--socket",
            sock.to_str().unwrap(),
            "--root",
            root.to_str().unwrap(),
        ])
        .args(extra)
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn nachos-sweepd")
}

/// Polls `--ctl ping` until the daemon answers, within a hard budget.
fn wait_ready(sock: &Path) {
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let out = sweepd()
            .args(["--ctl", "ping", "--socket", sock.to_str().unwrap()])
            .output()
            .expect("run ctl ping");
        if out.status.success() {
            return;
        }
        assert!(Instant::now() < deadline, "daemon never became ready");
        std::thread::sleep(Duration::from_millis(100));
    }
}

/// Waits on a child with a manual budget, so a regression hangs the
/// test harness for minutes, not forever.
fn wait_within(child: &mut Child, budget: Duration, what: &str) -> std::process::ExitStatus {
    let deadline = Instant::now() + budget;
    loop {
        if let Some(status) = child.try_wait().expect("try_wait") {
            return status;
        }
        if Instant::now() >= deadline {
            let _ = child.kill();
            panic!("{what} did not finish within {budget:?}");
        }
        std::thread::sleep(Duration::from_millis(100));
    }
}

/// The headline: submit the full 27×5 matrix through the daemon,
/// SIGKILL the daemon mid-job, restart it over the same state root, and
/// the client — reconnecting on its own — fetches a report
/// byte-identical to an uninterrupted one-shot run.
#[test]
fn kill_dash_nine_then_restart_yields_byte_identical_report() {
    let dir = scratch("kill-restart");
    let sock = dir.join("d.sock");
    let root = dir.join("state");
    let daemon_json = dir.join("daemon.json");

    let mut daemon = spawn_daemon(&sock, &root, &[]);
    wait_ready(&sock);

    let mut client = sweep()
        .args([
            "--connect",
            sock.to_str().unwrap(),
            "--invocations",
            "4",
            "--ideal",
            "--out",
            daemon_json.to_str().unwrap(),
        ])
        .env("NACHOS_CONNECT_TIMEOUT_MS", "60000")
        .env("NACHOS_RECONNECT_TIMEOUT_MS", "180000")
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn sweep client");

    // Let the job get properly into its cells, then kill the daemon
    // without ceremony. Child::kill is SIGKILL: no drain, no fsync
    // beyond what already happened per completed cell.
    std::thread::sleep(Duration::from_millis(1500));
    daemon.kill().expect("SIGKILL daemon");
    let _ = daemon.wait();

    let mut daemon = spawn_daemon(&sock, &root, &[]);
    let status = wait_within(&mut client, Duration::from_secs(300), "sweep client");
    assert!(
        status.success(),
        "client must ride out the daemon restart, got {status:?}"
    );

    let clean = dir.join("clean.json");
    let out = sweep()
        .args([
            "--invocations",
            "4",
            "--ideal",
            "--out",
            clean.to_str().unwrap(),
        ])
        .output()
        .expect("clean sweep");
    assert!(out.status.success(), "clean one-shot sweep failed");
    assert_eq!(
        read(&daemon_json),
        read(&clean),
        "a crash-recovered job changed report bytes"
    );

    // Drain: admission closes, the queue is already empty, the daemon
    // exits 0 — the graceful half of the lifecycle.
    let out = sweepd()
        .args(["--ctl", "drain", "--socket", sock.to_str().unwrap()])
        .output()
        .expect("ctl drain");
    assert!(out.status.success(), "drain must be acknowledged");
    let status = wait_within(&mut daemon, Duration::from_secs(60), "drained daemon");
    assert_eq!(status.code(), Some(0), "drain exits 0");
    std::fs::remove_dir_all(&dir).ok();
}

/// Admission is bounded: a `--capacity 0` daemon rejects every submit
/// with the structured `queue_full` record carrying the `retry_after_ms`
/// hint — it never buffers, never blocks the accept loop.
#[test]
fn full_queue_rejects_with_a_structured_retry_hint() {
    let dir = scratch("backpressure");
    let sock = dir.join("d.sock");
    let mut daemon = spawn_daemon(
        &sock,
        &dir.join("state"),
        &["--capacity", "0", "--retry-after-ms", "321"],
    );
    wait_ready(&sock);

    let out = sweepd()
        .args([
            "--ctl",
            "submit",
            "--socket",
            sock.to_str().unwrap(),
            "--spec",
            "{\"invocations\": 2, \"filter\": \"gzip\"}",
        ])
        .output()
        .expect("ctl submit");
    assert_eq!(out.status.code(), Some(5), "a refused submit is exit 5");
    let resp = String::from_utf8_lossy(&out.stdout);
    assert!(resp.contains("\"queue_full\""), "structured tag: {resp}");
    assert!(resp.contains("\"retry_after_ms\": 321"), "hint: {resp}");

    // The daemon is still fully live after shedding load.
    let out = sweepd()
        .args(["--ctl", "drain", "--socket", sock.to_str().unwrap()])
        .output()
        .expect("ctl drain");
    assert!(out.status.success());
    let status = wait_within(&mut daemon, Duration::from_secs(60), "drained daemon");
    assert_eq!(status.code(), Some(0));
    std::fs::remove_dir_all(&dir).ok();
}

/// `--deadline-secs` on the one-shot binary: the wall-clock budget
/// cancels the sweep cooperatively and exits with the dedicated code 4;
/// the report still lands (cancelled cells and all) and the journal
/// stays resumable — a follow-up `--resume` run without the deadline
/// settles the matrix for real.
#[test]
fn one_shot_deadline_exits_4_and_leaves_a_resumable_journal() {
    let dir = scratch("deadline");
    let journal = dir.join("j.jsonl");
    let out_path = dir.join("out.json");
    let out = sweep()
        .args([
            "--filter",
            "gzip",
            "--invocations",
            "200000000",
            "--deadline-secs",
            "1",
            "--journal",
            journal.to_str().unwrap(),
            "--out",
            out_path.to_str().unwrap(),
        ])
        .output()
        .expect("deadlined sweep");
    assert_eq!(
        out.status.code(),
        Some(4),
        "deadline exhaustion is exit 4, stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        read(&out_path).contains("\"cancelled\""),
        "the report records the cancelled cells"
    );

    // The journal the deadline left behind resumes cleanly at a sane
    // invocation count and settles everything.
    let out = sweep()
        .args([
            "--filter",
            "gzip",
            "--invocations",
            "2",
            "--resume",
            "--journal",
            journal.to_str().unwrap(),
            "--out",
            out_path.to_str().unwrap(),
        ])
        .output()
        .expect("resumed sweep");
    assert_eq!(out.status.code(), Some(0), "resume after deadline settles");
    std::fs::remove_dir_all(&dir).ok();
}

/// The exit-code table: each documented code, reached by exactly its
/// one documented condition (0 and 2–3 are pinned by `shard_exec.rs`
/// and the smoke suite; 4 above).
#[test]
fn usage_and_environment_failures_use_distinct_codes() {
    // 1: the invocation itself is wrong.
    let out = sweep().args(["--no-such-flag"]).output().unwrap();
    assert_eq!(out.status.code(), Some(1), "unknown flag is a usage error");
    let out = sweep()
        .args(["--filter", "no-such-workload", "--out", "/dev/null"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1), "empty matrix is a usage error");

    // 5: the environment fails — an unwritable journal...
    let out = sweep()
        .args([
            "--journal",
            "/nonexistent-dir/j.jsonl",
            "--filter",
            "gzip",
            "--invocations",
            "1",
        ])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(5), "journal I/O is environmental");

    // ...or a daemon socket nobody serves.
    let out = sweep()
        .args(["--connect", "/nonexistent-dir/d.sock", "--invocations", "1"])
        .env("NACHOS_CONNECT_TIMEOUT_MS", "300")
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(5), "dead socket is environmental");

    // Client mode rejects local orchestration flags as usage errors.
    let out = sweep()
        .args(["--connect", "/tmp/x.sock", "--journal", "/tmp/j.jsonl"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1), "--connect + --journal is usage");
}

/// A request line of 60,000 `[` used to overflow the parser's stack and
/// abort the whole daemon. It is now a structured `bad_request` on that
/// one connection, and the daemon keeps answering.
#[test]
fn deeply_nested_request_is_a_bad_request_not_a_crash() {
    use std::io::{BufRead as _, BufReader, Write as _};
    use std::os::unix::net::UnixStream;

    let dir = scratch("nested");
    let sock = dir.join("d.sock");
    let mut daemon = spawn_daemon(&sock, &dir.join("state"), &[]);
    wait_ready(&sock);

    let mut conn = UnixStream::connect(&sock).expect("connect");
    conn.set_read_timeout(Some(Duration::from_secs(30)))
        .expect("read timeout");
    let mut line = "[".repeat(60_000);
    line.push('\n');
    conn.write_all(line.as_bytes()).expect("send nested line");
    let mut resp = String::new();
    BufReader::new(&conn)
        .read_line(&mut resp)
        .expect("read response");
    assert!(resp.contains("\"bad_request\""), "structured error: {resp}");
    drop(conn);

    let out = sweepd()
        .args(["--ctl", "ping", "--socket", sock.to_str().unwrap()])
        .output()
        .expect("ctl ping");
    assert!(out.status.success(), "the daemon still answers ping");
    let out = sweepd()
        .args(["--ctl", "drain", "--socket", sock.to_str().unwrap()])
        .output()
        .expect("ctl drain");
    assert!(out.status.success());
    let status = wait_within(&mut daemon, Duration::from_secs(60), "drained daemon");
    assert_eq!(status.code(), Some(0));
    std::fs::remove_dir_all(&dir).ok();
}

/// `--ctl watch` relays one line per state change and exits at the
/// job's terminal state with the documented code. It used to read until
/// EOF while the daemon waited for the next request on the same
/// connection, so both sides waited forever.
#[test]
fn ctl_watch_exits_at_the_terminal_state() {
    let dir = scratch("watch");
    let sock = dir.join("d.sock");
    let mut daemon = spawn_daemon(&sock, &dir.join("state"), &[]);
    wait_ready(&sock);
    let socket = sock.to_str().unwrap();

    let out = sweepd()
        .args(["--ctl", "submit", "--socket", socket])
        .args(["--spec", "{\"invocations\": 2, \"filter\": \"gzip\"}"])
        .output()
        .expect("ctl submit");
    assert!(out.status.success(), "submit is accepted");
    let mut watch = sweepd()
        .args(["--ctl", "watch", "--socket", socket, "--job", "1"])
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn ctl watch");
    let status = wait_within(&mut watch, Duration::from_secs(60), "ctl watch");
    let mut lines = String::new();
    std::io::Read::read_to_string(&mut watch.stdout.take().unwrap(), &mut lines).unwrap();
    assert_eq!(status.code(), Some(0), "a settled job is exit 0: {lines}");
    let last = lines.lines().last().unwrap_or_default();
    assert!(last.contains("\"state\": \"settled\""), "last line: {last}");

    let out = sweepd()
        .args(["--ctl", "drain", "--socket", socket])
        .output()
        .expect("ctl drain");
    assert!(out.status.success());
    let status = wait_within(&mut daemon, Duration::from_secs(60), "drained daemon");
    assert_eq!(status.code(), Some(0));
    std::fs::remove_dir_all(&dir).ok();
}
