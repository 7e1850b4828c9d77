//! Worker liveness records for process-isolated sharded sweeps.
//!
//! A shard worker interleaves [`Heartbeat`] lines with its completed
//! [`super::journal::RunRecord`]s in the same shard journal file. The
//! supervisor never trusts heartbeats for *results* — only for
//! liveness ("is the worker still making progress?") and attribution
//! ("which cell was in flight when the worker died?"). A beat therefore
//! carries only its phase and, for `start` and `done`, the cell's key:
//! liveness is the journal growing, which the supervisor watches with
//! its own clock, and attribution is the last `start` without its
//! `done` or record. There is no sequence number and **no wall-clock
//! timestamp**, and nothing from a heartbeat ever reaches report
//! bytes.
//!
//! Like every journal line, heartbeats are checksum-framed
//! ([`crate::json::checksum_frame`]): a torn or corrupted beat is
//! dropped by readers, never misattributed.

use super::journal::RunKey;
use crate::json::{checksum_frame, checksum_unframe, parse_json, JsonWriter};
use std::sync::mpsc::{self, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Heartbeat line schema tag (the `journal` field, so readers dispatch
/// on the same key as run records).
pub const HEARTBEAT_SCHEMA: &str = "nachos-heartbeat-v2";

/// Where in a cell's life a heartbeat was emitted.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HeartbeatPhase {
    /// The worker is about to execute the named cell.
    Start,
    /// The worker finished (and journaled) the named cell.
    Done,
    /// Periodic pulse: the worker is alive, possibly mid-cell. Names no
    /// cell.
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
    /// Phase of the beat.
    pub phase: HeartbeatPhase,
    /// The cell starting or done (`None` for `Alive`).
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
        w.str_field("phase", self.phase.as_str());
        if let Some(cell) = self.cell {
            w.str_field("cell", &cell.to_string());
        }
        w.close_obj();
        checksum_frame(w.finish().trim_end_matches('\n')) + "\n"
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
            phase: HeartbeatPhase::from_label(v.get("phase")?.as_str()?)?,
            cell,
        })
    }
}

/// Emits heartbeats for one worker process: explicit `Start`/`Done`
/// beats around each cell from the worker's own thread, plus periodic
/// `Alive` beats from a background pulse thread so that a long-running
/// cell still grows the journal and the supervisor can tell "slow" from
/// "dead". Dropping the pulse stops the thread and returns promptly: the
/// thread waits on a channel whose sender the drop closes, not on a
/// sleep, so a worker's exit never waits out a heartbeat interval.
pub struct Pulse {
    sink: Arc<dyn Fn(&Heartbeat) + Send + Sync>,
    stop: Option<Sender<()>>,
    thread: Option<JoinHandle<()>>,
}

impl Pulse {
    /// Starts a pulse emitting through `sink` (typically
    /// [`super::journal::Journal::append_raw`]) every `interval`. A
    /// zero interval disables the background thread; `Start`/`Done`
    /// beats still flow.
    #[must_use]
    pub fn start(sink: Arc<dyn Fn(&Heartbeat) + Send + Sync>, interval: Duration) -> Pulse {
        let (stop, stopped) = mpsc::channel::<()>();
        let thread = (!interval.is_zero()).then(|| {
            let sink = Arc::clone(&sink);
            std::thread::spawn(move || {
                while let Err(RecvTimeoutError::Timeout) = stopped.recv_timeout(interval) {
                    sink(&Heartbeat {
                        phase: HeartbeatPhase::Alive,
                        cell: None,
                    });
                }
            })
        });
        Pulse {
            sink,
            stop: Some(stop),
            thread,
        }
    }

    fn beat(&self, phase: HeartbeatPhase, cell: RunKey) {
        (self.sink)(&Heartbeat {
            phase,
            cell: Some(cell),
        });
    }

    /// Emits `cell`'s `Start` beat.
    pub fn cell_start(&self, cell: RunKey) {
        self.beat(HeartbeatPhase::Start, cell);
    }

    /// Emits `cell`'s `Done` beat.
    pub fn cell_done(&self, cell: RunKey) {
        self.beat(HeartbeatPhase::Done, cell);
    }
}

impl Drop for Pulse {
    fn drop(&mut self) {
        drop(self.stop.take());
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

impl std::fmt::Debug for Pulse {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Pulse")
            .field("running", &self.thread.is_some())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    #[test]
    fn heartbeat_roundtrips_and_rejects_corruption() {
        for hb in [
            Heartbeat {
                phase: HeartbeatPhase::Start,
                cell: Some(RunKey(0xdead_beef_0000_0001)),
            },
            Heartbeat {
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
            alive.iter().all(|b| b.cell.is_none()),
            "pulses name no cell"
        );
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
