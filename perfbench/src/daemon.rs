//! daemon-jobs: one closed-loop client against `nachos-sweepd` on its
//! default configuration, over a single connection: submit → watch →
//! fetch, one single-workload job at a time.

use crate::gen::{self, Workload};
use crate::inproc::{self, ms};
use crate::metrics::Outcome;
use crate::stats::median;
use crate::trace::Tracer;
use nachos::sweep::daemon::MatrixSpec;
use nachos::sweep::journal::{self, parse_json, Journal, Json, OutcomeRecord, RunRecord};
use nachos::sweep::run_sweep;
use std::collections::BTreeMap;
use std::fs;
use std::io::{self, BufRead as _, BufReader, Write as _};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// A running `nachos-sweepd`; dropping it kills and reaps the process.
pub struct Daemon {
    child: Child,
    socket: PathBuf,
}

impl Daemon {
    /// Starts the daemon over a fresh state directory `dir` and waits
    /// until it answers `ping`.
    pub fn start(exe: &Path, dir: &Path) -> io::Result<Daemon> {
        fs::create_dir_all(dir)?;
        let socket = dir.join("d.sock");
        let log = fs::File::create(dir.join("daemon.log"))?;
        let child = Command::new(exe)
            .arg("--socket")
            .arg(&socket)
            .arg("--root")
            .arg(dir.join("root"))
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(log)
            .spawn()?;
        let d = Daemon { child, socket };
        let deadline = Instant::now() + Duration::from_secs(20);
        loop {
            if let Ok(mut c) = d.connect() {
                if c.request("{\"jobs\": \"nachos-jobs-v1\", \"cmd\": \"ping\"}")
                    .is_ok_and(|r| ok(&r))
                {
                    return Ok(d);
                }
            }
            if Instant::now() >= deadline {
                return Err(io::Error::other(
                    "nachos-sweepd did not answer ping within 20 s",
                ));
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    pub fn connect(&self) -> io::Result<Client> {
        let out = UnixStream::connect(&self.socket)?;
        out.set_read_timeout(Some(Duration::from_secs(120)))?;
        Ok(Client {
            reader: BufReader::new(out.try_clone()?),
            out,
        })
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Drains the daemon (no jobs are queued) and waits for it to exit.
    pub fn stop(mut self) -> io::Result<()> {
        let mut c = self.connect()?;
        c.request("{\"jobs\": \"nachos-jobs-v1\", \"cmd\": \"drain\"}")?;
        let deadline = Instant::now() + Duration::from_secs(20);
        while self.child.try_wait()?.is_none() {
            if Instant::now() >= deadline {
                return Err(io::Error::other("nachos-sweepd did not exit after drain"));
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        Ok(())
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// One `nachos-jobs-v1` connection.
pub struct Client {
    reader: BufReader<UnixStream>,
    out: UnixStream,
}

impl Client {
    pub fn send(&mut self, line: &str) -> io::Result<()> {
        self.out.write_all(line.as_bytes())?;
        self.out.write_all(b"\n")?;
        self.out.flush()
    }

    pub fn read(&mut self) -> io::Result<Json> {
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(io::Error::other("nachos-sweepd closed the connection"));
        }
        parse_json(line.trim())
            .ok_or_else(|| io::Error::other(format!("unparsable response: {line}")))
    }

    pub fn request(&mut self, line: &str) -> io::Result<Json> {
        self.send(line)?;
        self.read()
    }
}

fn ok(r: &Json) -> bool {
    matches!(r.get("ok"), Some(Json::Bool(true)))
}

fn field<'a>(r: &'a Json, key: &str) -> Option<&'a str> {
    r.get(key).and_then(Json::as_str)
}

/// The spec of one single-workload job.
pub fn spec(name: &str) -> MatrixSpec {
    MatrixSpec {
        invocations: Workload::DaemonJobs.invocations(),
        filter: Some(name.to_owned()),
        ..MatrixSpec::default()
    }
}

/// One job's observations, client side.
pub struct Job {
    pub name: &'static str,
    pub submit: Duration,
    pub queue_wait: Duration,
    pub run: Duration,
    pub fetch: Duration,
    pub latency: Duration,
    pub rejected: u64,
    /// The fetched report, or why there is none.
    pub report: Result<String, String>,
}

/// Runs one job: submit (retrying `queue_full` after its hint), watch
/// until terminal, fetch. Phase spans go into `tr`.
pub fn run_job(c: &mut Client, name: &'static str, id: u64, tr: &mut Tracer) -> io::Result<Job> {
    let submit = format!(
        "{{\"jobs\": \"nachos-jobs-v1\", \"cmd\": \"submit\", \"spec\": {}}}",
        spec(name).to_json()
    );
    let t0 = Instant::now();
    let mut rejected = 0;
    let job = loop {
        let r = c.request(&submit)?;
        if ok(&r) {
            break r.get("job").and_then(Json::as_u64).unwrap_or(0);
        }
        if field(&r, "error") != Some("queue_full") {
            return Err(io::Error::other(format!(
                "submit refused: {:?}",
                field(&r, "error")
            )));
        }
        rejected += 1;
        let wait = r.get("retry_after_ms").and_then(Json::as_u64).unwrap_or(25);
        std::thread::sleep(Duration::from_millis(wait));
    };
    let t_sub = Instant::now();
    tr.record("daemon.submit", id, t0, t_sub);

    c.send(&format!(
        "{{\"jobs\": \"nachos-jobs-v1\", \"cmd\": \"watch\", \"job\": {job}}}"
    ))?;
    let mut t_run = None;
    let (state, t_end) = loop {
        let r = c.read()?;
        let state = field(&r, "state").unwrap_or("").to_owned();
        let now = Instant::now();
        if state != "queued" && t_run.is_none() {
            t_run = Some(now);
        }
        if !matches!(state.as_str(), "queued" | "running") {
            break (state, now);
        }
    };
    // The watch stream reports state changes at the daemon's poll
    // cadence; a job that ran between two polls shows no `running`
    // line and its whole wait is counted as queue wait.
    let t_run = t_run.unwrap_or(t_end);
    tr.record("daemon.queue_wait", id, t_sub, t_run);
    tr.record("daemon.run", id, t_run, t_end);

    let r = c.request(&format!(
        "{{\"jobs\": \"nachos-jobs-v1\", \"cmd\": \"fetch\", \"job\": {job}}}"
    ))?;
    let t_fetch = Instant::now();
    tr.record("daemon.fetch", id, t_end, t_fetch);
    let report = if state != "settled" {
        Err(format!("job {job} ({name}) ended {state}"))
    } else if !ok(&r) {
        Err(format!(
            "fetch of job {job} failed: {:?}",
            field(&r, "error")
        ))
    } else if r.get("mismatches").and_then(Json::as_u64) != Some(0)
        || r.get("degraded").and_then(Json::as_u64) != Some(0)
    {
        Err(format!(
            "job {job} ({name}) has mismatched or degraded cells"
        ))
    } else {
        field(&r, "report")
            .map(str::to_owned)
            .ok_or_else(|| format!("job {job} fetched without a report"))
    };
    Ok(Job {
        name,
        submit: t_sub - t0,
        queue_wait: t_run - t_sub,
        run: t_end - t_run,
        fetch: t_fetch - t_end,
        latency: t_fetch - t0,
        rejected,
        report,
    })
}

/// What a job of one workload must return: the in-process `run_sweep`
/// report of the same matrix, which the fetched report must equal byte
/// for byte, and the journal records of its cells.
struct Expected {
    report: String,
    cells: u64,
    nachos_cycles: u64,
    records: Vec<RunRecord>,
}

fn expected(name: &str) -> Result<Expected, String> {
    let (jobs, cfg) = nachos_bench::matrix::resolve(&spec(name))?;
    let result = run_sweep(&jobs, &cfg);
    let mut records = Vec::new();
    for (job, outcome) in jobs.iter().zip(&result.jobs) {
        let fp = journal::job_fingerprint(&job.region, &job.binding, &cfg.sim);
        for (v, run) in cfg.variants.iter().zip(&outcome.runs) {
            records.push(RunRecord {
                key: journal::run_key(fp, v),
                job: job.name.clone(),
                variant: v.label.clone(),
                outcome: OutcomeRecord {
                    status: run.status,
                    detail: run.detail.clone(),
                    injected: run.injected.clone(),
                    attempts: run.attempts.clone(),
                    metrics: run.metrics,
                },
            });
        }
    }
    Ok(Expected {
        report: result.to_json(),
        cells: records.len() as u64,
        nachos_cycles: records
            .iter()
            .filter(|r| r.variant == "nachos")
            .filter_map(|r| r.outcome.metrics.map(|m| m.cycles))
            .sum(),
        records,
    })
}

type Want = BTreeMap<&'static str, Result<Expected, String>>;

/// Checks every fetched report and counts its cells into `out`.
fn check_reports(jobs: &[Job], want: &mut Want, out: &mut Outcome) {
    let cells = Workload::DaemonJobs.config().variants.len() as u64;
    for job in jobs {
        let expect = want.entry(job.name).or_insert_with(|| expected(job.name));
        match (&job.report, &*expect) {
            (Ok(got), Ok(e)) if *got == e.report => out.count(e.cells, 0),
            (got, expect) => {
                let why = match (got, expect) {
                    (Err(e), _) | (_, Err(e)) => e.clone(),
                    _ => format!("job {}: fetched report differs from run_sweep", job.name),
                };
                eprintln!("perfbench: FAILED {why}");
                out.count(cells, cells);
            }
        }
        out.count(job.rejected, job.rejected);
    }
}

/// Simulated NACHOS cycles of one round: every workload once.
fn round_cycles(want: &Want) -> u64 {
    want.values().flatten().map(|e| e.nachos_cycles).sum()
}

/// Untraced run: end-to-end metrics. Throughput is over the time the
/// client waited on jobs, its think time excluded, per round; set-up is starting
/// the daemon until it answers `ping` (the job sequence itself is
/// generated per round).
pub fn measure(
    exe: &Path,
    work: &Path,
    seed: u64,
    seconds: f64,
    out: &mut Outcome,
) -> io::Result<()> {
    let mut starts = 0;
    let (mut setup, daemon) = crate::Setup::start(|| {
        starts += 1;
        Daemon::start(exe, &work.join(format!("d{starts}")))
    })?;
    let mut c = daemon.connect()?;
    let budget = Duration::from_secs_f64(seconds);
    let start = Instant::now();
    let mut jobs = Vec::new();
    let mut round = 0;
    let mut rounds = Vec::new();
    let cells_per_job = Workload::DaemonJobs.config().variants.len() as u64;
    while jobs.is_empty() || start.elapsed() < budget {
        let names = gen::daemon_round(seed, round);
        let think = gen::think_times(seed, round, names.len());
        let (mut busy, cells) = (0.0, names.len() as u64 * cells_per_job);
        for (i, (name, pause)) in names.into_iter().zip(think).enumerate() {
            setup.tick()?;
            std::thread::sleep(pause);
            let job = run_job(&mut c, name, i as u64, &mut Tracer::new(false))?;
            busy += job.latency.as_secs_f64();
            jobs.push(job);
        }
        rounds.push((cells, busy));
        round += 1;
    }
    out.set("setup_s", setup.median_s());
    let rss = crate::peak_rss_mb(Some(daemon.pid()));
    drop(c);
    daemon.stop()?;

    let mut want = Want::new();
    check_reports(&jobs, &mut want, out);
    out.set("cells_per_s", crate::median_rate(&rounds));
    let lat: Vec<f64> = jobs.iter().map(|j| ms(j.latency)).collect();
    crate::set_latencies(out, &lat);
    out.set("peak_rss_mb", rss);
    out.set("nachos_cycles", round_cycles(&want) as f64);
    Ok(())
}

/// Traced run: the cell pass over the daemon's matrix for the engine
/// and compiler metrics, then one untraced and one traced round of jobs
/// for the service metrics.
pub fn trace(
    exe: &Path,
    work: &Path,
    seed: u64,
    seconds: f64,
    out: &mut Outcome,
) -> io::Result<Tracer> {
    let mut gen_tr = Tracer::new(true);
    let (jobs, cfg) = gen_tr
        .time("workloads.generate", 0, || {
            nachos_bench::matrix::resolve(&MatrixSpec {
                invocations: Workload::DaemonJobs.invocations(),
                ..MatrixSpec::default()
            })
        })
        .map_err(io::Error::other)?;
    inproc::layer_reps(&jobs, &cfg, seconds / 2.0, out);
    out.set(
        "workloads.generate_ms",
        ms(gen_tr.total("workloads.generate")),
    );

    let daemon = Daemon::start(exe, &work.join("d"))?;
    let mut c = daemon.connect()?;
    let names = gen::daemon_round(seed, 0);
    let think = gen::think_times(seed, 0, names.len());
    let mut plain = Vec::new();
    for (i, (name, pause)) in names.iter().zip(&think).enumerate() {
        std::thread::sleep(*pause);
        plain.push(run_job(&mut c, name, i as u64, &mut Tracer::new(false))?);
    }
    let untraced: Duration = plain.iter().map(|j| j.latency).sum();

    let mut tr = Tracer::new(true);
    let mut traced = Vec::new();
    let root = tr.open("round", 0);
    for (i, (name, pause)) in names.iter().zip(&think).enumerate() {
        std::thread::sleep(*pause);
        let id = i as u64;
        let span = tr.open("job", id);
        traced.push(run_job(&mut c, name, id, &mut tr)?);
        tr.close(span);
    }
    tr.close(root);
    drop(c);
    daemon.stop()?;
    let mut want = Want::new();
    check_reports(&plain, &mut want, out);
    check_reports(&traced, &mut want, out);

    // The daemon journals every cell of a job into the job's run
    // journal, one fsynced line each; time the same appends from
    // outside, as standalone spans.
    let mut appends = Vec::new();
    for (i, name) in names.iter().enumerate() {
        let Some(Ok(e)) = want.get(name) else {
            continue;
        };
        let j = Journal::create(work.join(format!("append-{i}.runs.jsonl")))?;
        let span = tr.open_standalone("journal.append", i as u64);
        let t0 = Instant::now();
        for rec in &e.records {
            j.append(rec)?;
        }
        appends.push(ms(t0.elapsed()));
        tr.close(span);
    }

    let per_job = |f: fn(&Job) -> Duration| {
        median(&traced.iter().map(|j| ms(f(j))).collect::<Vec<_>>()).unwrap_or(0.0)
    };
    out.set("daemon.submit_ms", per_job(|j| j.submit));
    out.set("daemon.queue_wait_ms", per_job(|j| j.queue_wait));
    out.set("daemon.run_ms", per_job(|j| j.run));
    out.set("daemon.fetch_ms", per_job(|j| j.fetch));
    out.set(
        "daemon.rejected",
        plain.iter().chain(&traced).map(|j| j.rejected).sum::<u64>() as f64,
    );
    out.set("journal.append_ms", median(&appends).unwrap_or(0.0));
    crate::set_service_zero(out, &["cache", "shard"]);
    out.set("journal.resume_ms", 0.0);
    out.set("journal.replayed", 0.0);
    let traced_wall: Duration = tr
        .spans()
        .iter()
        .filter(|s| s.name == "job")
        .map(|s| s.duration())
        .sum();
    out.set("sweep.self_ms", ms(tr.self_time("job")));
    out.set(
        "trace.coverage",
        tr.covered("round").as_secs_f64() / untraced.as_secs_f64(),
    );
    out.set(
        "trace.overhead",
        traced_wall.as_secs_f64() / untraced.as_secs_f64() - 1.0,
    );
    Ok(tr)
}
