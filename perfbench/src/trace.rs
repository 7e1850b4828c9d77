//! In-memory span recorder for the traced pass.
//!
//! Spans are recorded from the benchmark's own code around calls into
//! each layer's public function. Every span has a name, a start and end
//! (relative to the tracer's origin), its parent span and an id shared
//! by the spans of one cell or job. A span opened *standalone* measures
//! a call the measured pipeline does not make itself (the extra
//! placement call next to the engine, which already places once per
//! run): it is reported but never counted as coverage, so no layer's
//! time is counted twice.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// One recorded span.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: String,
    pub id: u64,
    pub parent: Option<usize>,
    pub start: Duration,
    pub end: Duration,
    pub standalone: bool,
}

impl Span {
    pub fn duration(&self) -> Duration {
        self.end.saturating_sub(self.start)
    }
}

/// Records spans when on; when off every call is a no-op, so the same
/// code runs traced and untraced and the difference between the two
/// runs is the tracing overhead.
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Handle of an open span, closed with [`Tracer::close`].
#[must_use]
pub struct Open(Option<usize>);

impl Tracer {
    pub fn new(on: bool) -> Self {
        Self {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Opens a span as a child of the innermost open span.
    pub fn open(&mut self, name: &str, id: u64) -> Open {
        self.open_as(name, id, false)
    }

    /// Opens a span that is reported but never counted as coverage.
    pub fn open_standalone(&mut self, name: &str, id: u64) -> Open {
        self.open_as(name, id, true)
    }

    fn open_as(&mut self, name: &str, id: u64, standalone: bool) -> Open {
        if !self.on {
            return Open(None);
        }
        let at = self.origin.elapsed();
        self.spans.push(Span {
            name: name.to_owned(),
            id,
            parent: self.open.last().copied(),
            start: at,
            end: at,
            standalone,
        });
        let i = self.spans.len() - 1;
        self.open.push(i);
        Open(Some(i))
    }

    /// Closes `span`, which must be the innermost open one.
    pub fn close(&mut self, span: Open) {
        if let Some(i) = span.0 {
            self.spans[i].end = self.origin.elapsed();
            let top = self.open.pop();
            debug_assert_eq!(top, Some(i), "spans close innermost first");
        }
    }

    /// Records an already-finished span between two instants observed
    /// by the caller, as a child of the innermost open span.
    pub fn record(&mut self, name: &str, id: u64, start: Instant, end: Instant) {
        if self.on {
            self.spans.push(Span {
                name: name.to_owned(),
                id,
                parent: self.open.last().copied(),
                start: start.saturating_duration_since(self.origin),
                end: end.saturating_duration_since(self.origin),
                standalone: false,
            });
        }
    }

    /// Times `f` as a span named `name`.
    pub fn time<T>(&mut self, name: &str, id: u64, f: impl FnOnce() -> T) -> T {
        let s = self.open(name, id);
        let out = f();
        self.close(s);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Summed duration of every span named `name`.
    pub fn total(&self, name: &str) -> Duration {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::duration)
            .sum()
    }

    /// Summed duration of the layer spans under spans named `root`:
    /// counted spans with no counted child, i.e. the time the layers
    /// account for. Standalone spans never count.
    pub fn covered(&self, root: &str) -> Duration {
        let mut has_counted_child = vec![false; self.spans.len()];
        for s in self.spans.iter().filter(|s| !s.standalone) {
            if let Some(p) = s.parent {
                has_counted_child[p] = true;
            }
        }
        self.spans
            .iter()
            .enumerate()
            .filter(|&(i, s)| !s.standalone && !has_counted_child[i] && s.name != root)
            .filter(|(_, s)| s.parent.is_some_and(|p| self.under(p, root)))
            .map(|(_, s)| s.duration())
            .sum()
    }

    /// Self time of the spans named `name`: their duration minus the
    /// part their direct children cover.
    pub fn self_time(&self, name: &str) -> Duration {
        let mut child = vec![Duration::ZERO; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.duration();
            }
        }
        self.spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == name)
            .map(|(i, s)| s.duration().saturating_sub(child[i]))
            .sum()
    }

    /// Whether span `i` is, or descends from, a span named `root`.
    fn under(&self, mut i: usize, root: &str) -> bool {
        loop {
            if self.spans[i].name == root {
                return true;
            }
            match self.spans[i].parent {
                Some(p) => i = p,
                None => return false,
            }
        }
    }

    /// The spans as JSON lines (`nachos-perf-trace-v1`).
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for s in &self.spans {
            let _ = writeln!(
                out,
                "{{\"trace\": \"nachos-perf-trace-v1\", \"name\": \"{}\", \"id\": {}, \"parent\": {}, \
                 \"start_ns\": {}, \"end_ns\": {}, \"standalone\": {}}}",
                s.name,
                s.id,
                s.parent.map_or("null".to_owned(), |p| p.to_string()),
                s.start.as_nanos(),
                s.end.as_nanos(),
                s.standalone,
            );
        }
        out
    }
}
