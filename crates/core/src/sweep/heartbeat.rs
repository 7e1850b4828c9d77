//! Worker liveness records for process-isolated sharded sweeps.
//!
//! A shard worker interleaves [`Heartbeat`] lines with its completed
//! [`super::journal::RunRecord`]s in the same shard journal file. The
//! supervisor never trusts heartbeats for *results* — only for
//! liveness ("is the worker still making progress?") and attribution
//! ("which cell was in flight when the worker died?"). Heartbeats
//! therefore carry a sequence number and the in-flight cell key, but
//! **no wall-clock timestamp**: the supervisor measures silence with
//! its own clock by watching the journal grow, and nothing from a
//! heartbeat ever reaches report bytes.
//!
//! Like every journal line, heartbeats are checksum-framed
//! ([`crate::json::checksum_frame`]): a torn or corrupted beat is
//! dropped by readers, never misattributed.

use super::journal::RunKey;
use crate::json::{checksum_frame, checksum_unframe, parse_json, JsonWriter};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

/// Heartbeat line schema tag (the `journal` field, so readers dispatch
/// on the same key as run records).
pub const HEARTBEAT_SCHEMA: &str = "nachos-heartbeat-v1";

/// Where in a cell's life a heartbeat was emitted.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HeartbeatPhase {
    /// The worker is about to execute the named cell.
    Start,
    /// The worker finished (and journaled) the named cell.
    Done,
    /// Periodic pulse: the worker is alive, possibly mid-cell.
    Alive,
}

impl HeartbeatPhase {
    /// Stable lowercase label used on the wire.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            HeartbeatPhase::Start => "start",
            HeartbeatPhase::Done => "done",
            HeartbeatPhase::Alive => "alive",
        }
    }

    /// Parses the stable label back.
    #[must_use]
    pub fn from_label(s: &str) -> Option<HeartbeatPhase> {
        Some(match s {
            "start" => HeartbeatPhase::Start,
            "done" => HeartbeatPhase::Done,
            "alive" => HeartbeatPhase::Alive,
            _ => return None,
        })
    }
}

/// One worker liveness record.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Heartbeat {
    /// Monotonic per-worker sequence number (restarts from the next
    /// value after a respawn; gaps are meaningless).
    pub seq: u64,
    /// Phase of the beat.
    pub phase: HeartbeatPhase,
    /// The cell in flight, when one is (`Start`/`Done` always name it;
    /// `Alive` names it only mid-cell).
    pub cell: Option<RunKey>,
}

impl Heartbeat {
    /// Serializes the beat to its checksum-framed, newline-terminated
    /// journal line.
    #[must_use]
    pub fn to_line(&self) -> String {
        let mut w = JsonWriter::compact();
        w.open_obj();
        w.str_field("journal", HEARTBEAT_SCHEMA);
        w.u64_field("seq", self.seq);
        w.str_field("phase", self.phase.as_str());
        if let Some(cell) = self.cell {
            w.str_field("cell", &cell.to_string());
        }
        w.close_obj();
        let payload = w.finish();
        let mut framed = checksum_frame(payload.trim_end_matches('\n'));
        framed.push('\n');
        framed
    }

    /// Parses one framed journal line as a heartbeat. Returns `None`
    /// for anything else — run records, corrupt or torn lines — so
    /// journal readers can probe cheaply.
    #[must_use]
    pub fn from_line(line: &str) -> Option<Heartbeat> {
        let payload = checksum_unframe(line.trim_end_matches(['\n', '\r'])).ok()?;
        Self::from_payload(payload)
    }

    /// Parses the JSON payload of an already-unframed heartbeat line.
    #[must_use]
    pub fn from_payload(payload: &str) -> Option<Heartbeat> {
        let v = parse_json(payload)?;
        if v.get("journal")?.as_str()? != HEARTBEAT_SCHEMA {
            return None;
        }
        let cell = match v.get("cell") {
            Some(c) => Some(RunKey::parse(c.as_str()?)?),
            None => None,
        };
        Some(Heartbeat {
            seq: v.get("seq")?.as_u64()?,
            phase: HeartbeatPhase::from_label(v.get("phase")?.as_str()?)?,
            cell,
        })
    }
}

/// Shared state between a worker's main loop and its pulse thread.
#[derive(Default)]
struct PulseState {
    seq: AtomicU64,
    /// Set once, by drop; `wake` tells the pulse thread at once instead
    /// of at its next beat.
    stop: Mutex<bool>,
    wake: Condvar,
    /// The cell currently executing, for mid-cell `Alive` beats.
    in_flight: Mutex<Option<RunKey>>,
}

/// Emits heartbeats for one worker process: explicit `Start`/`Done`
/// beats around each cell from the worker's own thread, plus periodic
/// `Alive` beats from a background pulse thread so that a long-running
/// cell still grows the journal and the supervisor can tell "slow" from
/// "dead". Dropping the pulse stops the thread and returns promptly: the
/// thread waits on a condition variable, not a sleep, so a worker's exit
/// never waits out the rest of a heartbeat interval.
pub struct Pulse {
    sink: Arc<dyn Fn(&Heartbeat) + Send + Sync>,
    state: Arc<PulseState>,
    thread: Option<JoinHandle<()>>,
}

impl std::fmt::Debug for PulseState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PulseState")
            .field("seq", &self.seq.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

impl Pulse {
    /// Starts a pulse emitting through `sink` (typically
    /// [`super::journal::Journal::append_raw`]) every `interval`. A
    /// zero interval disables the background thread; `Start`/`Done`
    /// beats still flow.
    #[must_use]
    pub fn start(sink: Arc<dyn Fn(&Heartbeat) + Send + Sync>, interval: Duration) -> Pulse {
        let state = Arc::new(PulseState::default());
        let thread = if interval.is_zero() {
            None
        } else {
            let state = Arc::clone(&state);
            let sink = Arc::clone(&sink);
            Some(std::thread::spawn(move || loop {
                // `wait_timeout_while` re-waits the remaining time after a
                // spurious wake-up, so `Alive` beats keep their period.
                let stop = state.stop.lock().unwrap_or_else(PoisonError::into_inner);
                let (stop, _) = state
                    .wake
                    .wait_timeout_while(stop, interval, |stop| !*stop)
                    .unwrap_or_else(PoisonError::into_inner);
                if *stop {
                    break;
                }
                drop(stop);
                let cell = state.in_flight.lock().ok().and_then(|g| *g);
                sink(&Heartbeat {
                    seq: state.seq.fetch_add(1, Ordering::Relaxed),
                    phase: HeartbeatPhase::Alive,
                    cell,
                });
            }))
        };
        Pulse {
            sink,
            state,
            thread,
        }
    }

    fn beat(&self, phase: HeartbeatPhase, cell: Option<RunKey>) {
        (self.sink)(&Heartbeat {
            seq: self.state.seq.fetch_add(1, Ordering::Relaxed),
            phase,
            cell,
        });
    }

    /// Marks `cell` in flight and emits its `Start` beat.
    pub fn cell_start(&self, cell: RunKey) {
        if let Ok(mut g) = self.state.in_flight.lock() {
            *g = Some(cell);
        }
        self.beat(HeartbeatPhase::Start, Some(cell));
    }

    /// Clears the in-flight cell and emits its `Done` beat.
    pub fn cell_done(&self, cell: RunKey) {
        if let Ok(mut g) = self.state.in_flight.lock() {
            *g = None;
        }
        self.beat(HeartbeatPhase::Done, Some(cell));
    }
}

impl Drop for Pulse {
    fn drop(&mut self) {
        *self
            .state
            .stop
            .lock()
            .unwrap_or_else(PoisonError::into_inner) = true;
        self.state.wake.notify_all();
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

impl std::fmt::Debug for Pulse {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Pulse")
            .field("state", &self.state)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn heartbeat_roundtrips_and_rejects_corruption() {
        for hb in [
            Heartbeat {
                seq: 0,
                phase: HeartbeatPhase::Start,
                cell: Some(RunKey(0xdead_beef_0000_0001)),
            },
            Heartbeat {
                seq: u64::MAX,
                phase: HeartbeatPhase::Alive,
                cell: None,
            },
        ] {
            let line = hb.to_line();
            assert_eq!(line.matches('\n').count(), 1);
            assert_eq!(Heartbeat::from_line(&line), Some(hb));
            // A flipped byte kills the frame.
            let mut corrupted = line.clone().into_bytes();
            corrupted[20] ^= 0x04;
            let corrupted = String::from_utf8(corrupted).unwrap();
            assert_eq!(Heartbeat::from_line(&corrupted), None);
        }
        // A run-record line is not a heartbeat.
        assert_eq!(
            Heartbeat::from_line(&crate::json::checksum_frame(
                "{\"journal\": \"nachos-journal-v1\"}"
            )),
            None
        );
    }

    #[test]
    fn pulse_emits_start_done_and_periodic_alive_beats() {
        let beats: Arc<Mutex<Vec<Heartbeat>>> = Arc::new(Mutex::new(Vec::new()));
        let sink = {
            let beats = Arc::clone(&beats);
            Arc::new(move |hb: &Heartbeat| beats.lock().unwrap().push(*hb))
                as Arc<dyn Fn(&Heartbeat) + Send + Sync>
        };
        let key = RunKey(42);
        {
            let pulse = Pulse::start(sink, Duration::from_millis(5));
            pulse.cell_start(key);
            std::thread::sleep(Duration::from_millis(40));
            pulse.cell_done(key);
        }
        let beats = beats.lock().unwrap();
        assert_eq!(beats.first().map(|b| b.phase), Some(HeartbeatPhase::Start));
        assert_eq!(beats.last().map(|b| b.phase), Some(HeartbeatPhase::Done));
        let alive: Vec<_> = beats
            .iter()
            .filter(|b| b.phase == HeartbeatPhase::Alive)
            .collect();
        assert!(!alive.is_empty(), "the pulse thread beat while mid-cell");
        assert!(
            alive.iter().all(|b| b.cell == Some(key)),
            "mid-cell pulses name the in-flight cell"
        );
        // Sequence numbers are unique (the pulse thread and the worker
        // thread share one counter; observation order may race).
        let mut seqs: Vec<u64> = beats.iter().map(|b| b.seq).collect();
        seqs.sort_unstable();
        seqs.dedup();
        assert_eq!(seqs.len(), beats.len());
    }

    #[test]
    fn dropping_a_pulse_does_not_wait_out_its_interval() {
        let sink = Arc::new(|_: &Heartbeat| {}) as Arc<dyn Fn(&Heartbeat) + Send + Sync>;
        let pulse = Pulse::start(sink, Duration::from_secs(60));
        // Let the thread reach its wait before stopping it.
        std::thread::sleep(Duration::from_millis(20));
        let t0 = std::time::Instant::now();
        drop(pulse);
        assert!(
            t0.elapsed() < Duration::from_secs(1),
            "drop took {:?} against a 60 s interval",
            t0.elapsed()
        );
    }
}
