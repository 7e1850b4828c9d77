//! Opt-in cycle-level telemetry for the scheduler core.
//!
//! A [`TelemetrySink`] observes a run without participating in it: the
//! core calls the sink at cycle boundaries (one [`CycleRecord`] per
//! simulated cycle that handled events), whenever a stall-attribution
//! window closes (one [`BackpressureEvent`] per blocked→released memory
//! op), and once at the end of the run ([`RunSummary`]). Telemetry is
//! observation, never causation: attaching any sink yields bit-identical
//! cycles, stall counters and reports to running without one (pinned by
//! `tests/prop_telemetry.rs`), and runs without a sink pay a single
//! branch per event (asserted allocation-free by `tests/arena.rs`).
//!
//! [`StatsWriter`] is the stock sink: it streams `nachos-stats-v1` JSON
//! lines (cyclotron-style `stats.jsonl`) suitable for offline stall
//! analysis; the sweep and bench binaries expose it as `--stats PATH`.
//! The stream deliberately lives *outside* [`crate::config::SimConfig`],
//! so journal and cache RunKeys — content hashes over the run's inputs —
//! are byte-identical with and without telemetry.

use std::io::{self, Write};

use crate::config::Backend;
use crate::json::JsonWriter;

use super::state::StallCause;
use super::StallCounts;

/// One simulated cycle's census, emitted when the scheduler's clock
/// leaves the cycle. Counter fields (`stalls`, `may_checks`) are
/// cumulative over the run so far — consumers diff consecutive records
/// for per-cycle rates.
#[derive(Clone, Copy, Debug)]
pub struct CycleRecord {
    /// The cycle being closed.
    pub cycle: u64,
    /// Invocation the cycle belonged to.
    pub invocation: u64,
    /// Events handled at this cycle.
    pub events: u64,
    /// Queue depth (events pending) when the cycle closed.
    pub queue_depth: u64,
    /// Cumulative stall-attribution counters.
    pub stalls: StallCounts,
    /// Cumulative `==?` comparator checks.
    pub may_checks: u64,
}

/// One closed backpressure window: a ready memory op sat blocked from
/// `from` until `until`, charged to `cause`.
#[derive(Clone, Copy, Debug)]
pub struct BackpressureEvent {
    /// Invocation the window closed in.
    pub invocation: u64,
    /// The blocked node.
    pub node: usize,
    /// The ordering mechanism that held it.
    pub cause: StallCause,
    /// First cycle the op was observed blocked.
    pub from: u64,
    /// Cycle the op was released (retried successfully).
    pub until: u64,
}

/// End-of-run aggregates, mirroring what lands in the perf artifact.
#[derive(Clone, Copy, Debug)]
pub struct RunSummary {
    /// Backend simulated.
    pub backend: Backend,
    /// Total cycles across all invocations.
    pub cycles: u64,
    /// Invocations executed.
    pub invocations: u64,
    /// Total events pushed through the calendar queue.
    pub queue_events: u64,
    /// High-water mark of the queue's live depth.
    pub heap_max_depth: u64,
    /// Final stall-attribution counters.
    pub stalls: StallCounts,
}

/// A passive observer of one simulation run. All hooks default to no-ops
/// so sinks implement only what they consume.
pub trait TelemetrySink {
    /// A simulated cycle closed.
    fn on_cycle(&mut self, _rec: &CycleRecord) {}

    /// A blocked memory op was released.
    fn on_backpressure(&mut self, _ev: &BackpressureEvent) {}

    /// The run finished.
    fn on_run_end(&mut self, _summary: &RunSummary) {}
}

/// The do-nothing sink: attaching it must be indistinguishable from
/// attaching none (beyond the per-event dispatch).
#[derive(Clone, Copy, Debug, Default)]
pub struct NoopSink;

impl TelemetrySink for NoopSink {}

fn stall_fields(w: &mut JsonWriter, s: &StallCounts) {
    w.key("stalls");
    w.open_obj();
    w.u64_field("lsq_alloc", s.lsq_alloc);
    w.u64_field("lsq_search", s.lsq_search);
    w.u64_field("token", s.token);
    w.u64_field("may_gate", s.may_gate);
    w.u64_field("comparator", s.comparator);
    w.u64_field("mem_port", s.mem_port);
    w.close_obj();
}

/// Streams `nachos-stats-v1` JSON lines to a writer.
///
/// Line vocabulary (`"t"` tags the record type):
///
/// * `{"schema":"nachos-stats-v1","run":…,"backend":…}` — run header,
///   written on construction / [`StatsWriter::begin_run`];
/// * `{"t":"cycle","cycle":…,"invocation":…,"events":…,"queue_depth":…,
///   "stalls":{…},"may_checks":…}` — per-cycle census (cumulative
///   counters);
/// * `{"t":"backpressure","invocation":…,"node":…,"cause":…,"from":…,
///   "until":…}` — one closed stall window;
/// * `{"t":"summary","backend":…,"cycles":…,"queue_events":…,
///   "heap_max_depth":…,"stalls":{…}}` — end of run.
///
/// Write errors are recorded (see [`StatsWriter::io_error`]) and silence
/// the stream rather than panicking mid-simulation.
pub struct StatsWriter<W: Write> {
    out: W,
    run: String,
    error: Option<io::Error>,
}

impl<W: Write> StatsWriter<W> {
    /// Creates a writer labelled `run` and emits the header line.
    pub fn new(out: W, run: &str) -> Self {
        let mut s = Self {
            out,
            run: String::new(),
            error: None,
        };
        s.begin_run(run, None);
        s
    }

    /// Starts a new run block (the stream can carry several runs, e.g.
    /// one per sweep cell): emits a fresh header line.
    pub fn begin_run(&mut self, run: &str, backend: Option<Backend>) {
        self.run = run.to_owned();
        let mut w = JsonWriter::compact();
        w.open_obj();
        w.str_field("schema", "nachos-stats-v1");
        w.str_field("run", run);
        if let Some(b) = backend {
            w.str_field("backend", &b.to_string());
        }
        w.close_obj();
        self.line(w.finish());
    }

    /// The first write error, if the stream went silent.
    pub fn io_error(&self) -> Option<&io::Error> {
        self.error.as_ref()
    }

    /// Flushes and returns the underlying writer.
    ///
    /// # Errors
    ///
    /// Returns the first error the stream encountered (including the
    /// final flush).
    pub fn finish(mut self) -> io::Result<W> {
        match self.error {
            Some(e) => Err(e),
            None => {
                self.out.flush()?;
                Ok(self.out)
            }
        }
    }

    fn line(&mut self, json: String) {
        if self.error.is_some() {
            return;
        }
        // `JsonWriter::finish` already terminates the line.
        debug_assert!(json.ends_with('\n'), "JSON lines are newline-terminated");
        if let Err(e) = self.out.write_all(json.as_bytes()) {
            self.error = Some(e);
        }
    }
}

impl<W: Write> TelemetrySink for StatsWriter<W> {
    fn on_cycle(&mut self, rec: &CycleRecord) {
        let mut w = JsonWriter::compact();
        w.open_obj();
        w.str_field("t", "cycle");
        w.u64_field("cycle", rec.cycle);
        w.u64_field("invocation", rec.invocation);
        w.u64_field("events", rec.events);
        w.u64_field("queue_depth", rec.queue_depth);
        stall_fields(&mut w, &rec.stalls);
        w.u64_field("may_checks", rec.may_checks);
        w.close_obj();
        self.line(w.finish());
    }

    fn on_backpressure(&mut self, ev: &BackpressureEvent) {
        let mut w = JsonWriter::compact();
        w.open_obj();
        w.str_field("t", "backpressure");
        w.u64_field("invocation", ev.invocation);
        w.u64_field("node", ev.node as u64);
        w.str_field("cause", ev.cause.label());
        w.u64_field("from", ev.from);
        w.u64_field("until", ev.until);
        w.close_obj();
        self.line(w.finish());
    }

    fn on_run_end(&mut self, summary: &RunSummary) {
        let mut w = JsonWriter::compact();
        w.open_obj();
        w.str_field("t", "summary");
        w.str_field("run", &self.run.clone());
        w.str_field("backend", &summary.backend.to_string());
        w.u64_field("cycles", summary.cycles);
        w.u64_field("invocations", summary.invocations);
        w.u64_field("queue_events", summary.queue_events);
        w.u64_field("heap_max_depth", summary.heap_max_depth);
        stall_fields(&mut w, &summary.stalls);
        w.close_obj();
        self.line(w.finish());
    }
}
