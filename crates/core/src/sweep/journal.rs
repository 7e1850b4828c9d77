//! The durable run journal behind crash-recoverable sweeps.
//!
//! A long evaluation campaign (27 workloads × 5 variants, or a generated
//! matrix orders of magnitude larger) must survive a panic, an OOM-kill
//! or a plain SIGKILL without discarding hours of completed work. The
//! journal makes the sweep resumable *to the byte*:
//!
//! * every completed `(job, variant)` cell is appended to a JSONL file as
//!   one self-contained [`RunRecord`] — written with a single `write`,
//!   flushed and fsynced before the supervisor moves on, so a crash can
//!   lose at most the in-flight line (and a torn line is skipped on
//!   replay, never misparsed);
//! * every line is wrapped in a `<16-hex FNV-1a> <payload>` checksum
//!   frame ([`crate::json::checksum_frame`]), so corruption *anywhere*
//!   in the file — flipped bytes in an old record, a partial overwrite,
//!   mid-file truncation — is detected on replay, counted
//!   ([`Journal::corrupt`]), and dropped; the affected cells re-execute
//!   and every other record (before and after) is kept;
//! * records are keyed by a **content hash** of (region, binding,
//!   variant, fault plan, simulator config) — not by position or name —
//!   so resuming with a reordered, filtered or extended job list replays
//!   exactly the cells whose inputs are unchanged and re-runs the rest;
//! * on restart, [`Journal::resume`] loads the replay map and
//!   `run_sweep` skips completed keys; the final `nachos-sweep-v5`
//!   report is byte-identical to an uninterrupted run because the record
//!   carries every reported field (status, retry attempts, metrics)
//!   round-tripped losslessly — including `f64` energy values, which use
//!   Rust's shortest-roundtrip formatting both ways.
//!
//! The journal has no serialization dependency: lines are written by the
//! compact [`JsonWriter`] and read back by the small recursive-descent
//! [`parse_json`] beside it in [`crate::json`] (re-exported here for
//! existing importers). Numbers are kept as raw text during parsing so
//! `u64` seeds survive without an `f64` detour.

use super::{RunStatus, SweepVariant};
use crate::config::SimConfig;
use crate::energy::{EnergyBreakdown, EventCounts};
use crate::engine::{SimResult, StallCounts};
use crate::json::{checksum_frame, checksum_unframe, FrameError, JsonWriter};
use crate::json::{FNV_OFFSET, FNV_PRIME};
use nachos_mem::CacheStats;

pub use crate::json::{fnv1a, parse_json, Json, MAX_JSON_DEPTH};
use std::collections::HashMap;
use std::fmt::{self, Write as _};
use std::fs::{File, OpenOptions};
use std::io::{self, BufReader, Read as _, Seek as _, SeekFrom, Write as _};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// Journal line schema tag; bump when the record layout changes so stale
/// journal lines are skipped (and re-run) instead of misread. Result-cache
/// entry paths carry it too, so stale cache entries miss.
pub const JOURNAL_SCHEMA: &str = "nachos-journal-v3";

// ---------------------------------------------------------------------
// Content hashing
// ---------------------------------------------------------------------

/// A `fmt::Write` sink that FNV-hashes everything written into it, so
/// large structures can be fingerprinted through their `Debug` form
/// without materializing the string.
struct FnvWrite(u64);

impl fmt::Write for FnvWrite {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        for &b in s.as_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
        Ok(())
    }
}

/// SplitMix64 — the standard finalizer used to derive per-attempt seeds
/// from a run key. Bijective, so distinct (key, attempt) pairs map to
/// distinct seeds.
#[must_use]
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// The content hash identifying one `(job, variant)` cell. Displayed and
/// stored as 16 lowercase hex digits.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct RunKey(pub u64);

impl fmt::Display for RunKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

impl RunKey {
    /// Parses the 16-hex-digit journal form.
    #[must_use]
    pub fn parse(s: &str) -> Option<RunKey> {
        if s.len() != 16 {
            return None;
        }
        u64::from_str_radix(s, 16).ok().map(RunKey)
    }
}

/// Fingerprints everything a job shares across its variant cells: the
/// region, the binding and the *effective* simulator configuration (the
/// sweep-wide config with the job's fault plan already merged in).
///
/// The [`crate::CancelToken`] is runtime control, not configuration, and
/// is deliberately excluded; the job *name* is excluded too — keys are
/// content hashes, so renaming a workload keeps its journal entries
/// valid while any change to its region, binding, faults or config
/// invalidates them.
#[must_use]
pub fn job_fingerprint(
    region: &nachos_ir::Region,
    binding: &nachos_ir::Binding,
    sim: &SimConfig,
) -> u64 {
    let mut h = FnvWrite(FNV_OFFSET);
    let _ = write!(h, "{region:?}|{binding:?}|");
    let _ = write!(
        h,
        "{:?}|{:?}|{:?}|{:?}|{}|{}|{}|{:?}|{:?}",
        sim.grid,
        sim.latency,
        sim.hierarchy,
        sim.lsq,
        sim.mem_ports,
        sim.comparators_per_site,
        sim.invocations,
        sim.watchdog,
        sim.fault,
    );
    // The optimizer changes the compiled MDE graph, so it is content.
    let _ = write!(h, "|opt={}", sim.optimize);
    h.0
}

/// Extends a job fingerprint with one variant column (label, backend and
/// compiler staging) into the cell's [`RunKey`].
#[must_use]
pub fn run_key(job_fingerprint: u64, variant: &SweepVariant) -> RunKey {
    let mut h = FnvWrite(job_fingerprint);
    let _ = write!(
        h,
        "|{}|{:?}|{:?}",
        variant.label, variant.backend, variant.stages
    );
    RunKey(h.0)
}

/// Derives the deterministic seed for retry attempt `attempt` (0-based)
/// of the run identified by `key`. No wall-clock, no global state: the
/// same key and attempt index always yield the same seed, on any thread
/// count, which keeps retried reports byte-deterministic.
#[must_use]
pub fn derive_seed(key: RunKey, attempt: u32) -> u64 {
    splitmix64(key.0 ^ u64::from(attempt).wrapping_mul(0x9e37_79b9_7f4a_7c15))
}

// ---------------------------------------------------------------------
// Records
// ---------------------------------------------------------------------

/// One supervised attempt of a run: the status it ended with and the
/// deterministic seed it ran under (see [`derive_seed`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Attempt {
    /// The attempt's verdict.
    pub status: RunStatus,
    /// The attempt's derived seed.
    pub seed: u64,
}

/// Per-run counters of the certificate-carrying MDE optimizer, from
/// [`nachos_alias::OptStats`] in the fixed-width form the report emits.
/// Present only when the run compiled with [`SimConfig::optimize`] on an
/// MDE backend. The optimizer rewrites only MAY edges, by coalescing
/// comparator sites, so `may_coalesced` is also every edge it removed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OptMetrics {
    /// ORDER/token edges planned before optimization.
    pub order_before: u64,
    /// MAY edges planned before optimization.
    pub may_before: u64,
    /// MAY edges deleted by comparator-site coalescing.
    pub may_coalesced: u64,
}

impl OptMetrics {
    fn from_stats(s: &nachos_alias::OptStats) -> Self {
        Self {
            order_before: s.order_before as u64,
            may_before: s.may_before as u64,
            may_coalesced: s.may_coalesced as u64,
        }
    }
}

/// The reportable metrics of a completed run — exactly the fields
/// `nachos-sweep-v5` emits per run, so a journaled cell reproduces its
/// report bytes without re-simulation. `RunMetrics::write_fields` is
/// their one encoding: the report writes it flattened into each run and
/// a journal or cache record nests it under `"metrics"`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RunMetrics {
    /// Total simulated cycles.
    pub cycles: u64,
    /// Cycle-weighted stall attribution.
    pub stalls: StallCounts,
    /// Raw event counts.
    pub events: EventCounts,
    /// Energy by component (femtojoules).
    pub energy: EnergyBreakdown,
    /// L1 statistics.
    pub l1: CacheStats,
    /// LLC statistics.
    pub llc: CacheStats,
    /// Distinct `==?` comparator sites in the simulated DFG.
    pub comparator_sites: u64,
    /// Optimizer counters (`None` when `nachos-opt` did not run).
    pub opt: Option<OptMetrics>,
}

impl RunMetrics {
    /// Extracts the reportable metrics from a live simulation result.
    #[must_use]
    pub fn from_sim(sim: &SimResult) -> Self {
        Self {
            cycles: sim.cycles,
            stalls: sim.stalls,
            events: sim.events,
            energy: sim.energy,
            l1: sim.l1,
            llc: sim.llc,
            comparator_sites: sim.comparator_sites,
            opt: None,
        }
    }

    /// Extracts the reportable metrics from a completed experiment,
    /// including the optimizer ledger when the compile carried one.
    #[must_use]
    pub fn from_run(run: &crate::driver::ExperimentRun) -> Self {
        let mut m = Self::from_sim(&run.sim);
        m.opt = run
            .analysis
            .as_ref()
            .and_then(|a| a.opt.as_ref())
            .map(|o| OptMetrics::from_stats(&o.stats));
        m
    }

    /// Writes the metrics as fields of the object open in `w`, in report
    /// order. The stall and energy blocks end in a derived `total`, which
    /// [`Self::from_json`] ignores.
    pub(crate) fn write_fields(&self, w: &mut JsonWriter) {
        w.u64_field("cycles", self.cycles);
        w.key("stalls");
        w.open_obj();
        stall_fields(w, &self.stalls);
        w.u64_field("total", self.stalls.total());
        w.close_obj();
        let e = &self.events;
        w.key("events");
        w.open_obj();
        w.u64_field("int_ops", e.int_ops);
        w.u64_field("fp_ops", e.fp_ops);
        w.u64_field("data_links", e.data_links);
        w.u64_field("mem_links", e.mem_links);
        w.u64_field("may_checks", e.may_checks);
        w.u64_field("must_tokens", e.must_tokens);
        w.u64_field("l1_accesses", e.l1_accesses);
        w.u64_field("lsq_allocs", e.lsq_allocs);
        w.u64_field("lsq_bank_overflows", e.lsq_bank_overflows);
        w.u64_field("lsq_bloom_queries", e.lsq_bloom_queries);
        w.u64_field("lsq_bloom_hits", e.lsq_bloom_hits);
        w.u64_field("lsq_cam_loads", e.lsq_cam_loads);
        w.u64_field("lsq_cam_stores", e.lsq_cam_stores);
        w.u64_field("forwards", e.forwards);
        w.close_obj();
        let en = &self.energy;
        w.key("energy_fj");
        w.open_obj();
        w.f64_field("compute", en.compute);
        w.f64_field("mde", en.mde);
        w.f64_field("lsq_bloom", en.lsq_bloom);
        w.f64_field("lsq_cam", en.lsq_cam);
        w.f64_field("l1", en.l1);
        w.f64_field("total", en.total());
        w.close_obj();
        for (key, c) in [("l1", self.l1), ("llc", self.llc)] {
            w.key(key);
            w.open_obj();
            w.u64_field("hits", c.hits);
            w.u64_field("misses", c.misses);
            w.u64_field("writebacks", c.writebacks);
            w.close_obj();
        }
        w.u64_field("comparator_sites", self.comparator_sites);
        if let Some(o) = &self.opt {
            w.key("opt");
            w.open_obj();
            w.u64_field("order_before", o.order_before);
            w.u64_field("may_before", o.may_before);
            w.u64_field("may_coalesced", o.may_coalesced);
            w.close_obj();
        }
    }

    /// Reads the fields [`Self::write_fields`] wrote into `v`. A record
    /// whose derived totals would overflow is refused, since writing it
    /// back would panic.
    fn from_json(v: &Json) -> Option<RunMetrics> {
        let s = v.get("stalls")?;
        let e = v.get("events")?;
        let en = v.get("energy_fj")?;
        let cache = |key| {
            let c = v.get(key)?;
            Some(CacheStats {
                hits: c.get("hits")?.as_u64()?,
                misses: c.get("misses")?.as_u64()?,
                writebacks: c.get("writebacks")?.as_u64()?,
            })
        };
        let stalls = StallCounts {
            lsq_alloc: s.get("lsq_alloc")?.as_u64()?,
            lsq_search: s.get("lsq_search")?.as_u64()?,
            token: s.get("token")?.as_u64()?,
            may_gate: s.get("may_gate")?.as_u64()?,
            comparator: s.get("comparator")?.as_u64()?,
            mem_port: s.get("mem_port")?.as_u64()?,
        };
        let energy = EnergyBreakdown {
            compute: en.get("compute")?.as_f64()?,
            mde: en.get("mde")?.as_f64()?,
            lsq_bloom: en.get("lsq_bloom")?.as_f64()?,
            lsq_cam: en.get("lsq_cam")?.as_f64()?,
            l1: en.get("l1")?.as_f64()?,
        };
        let causes = [
            stalls.lsq_alloc,
            stalls.lsq_search,
            stalls.token,
            stalls.may_gate,
            stalls.comparator,
            stalls.mem_port,
        ];
        if causes.into_iter().try_fold(0, u64::checked_add).is_none() || !energy.total().is_finite()
        {
            return None;
        }
        Some(RunMetrics {
            cycles: v.get("cycles")?.as_u64()?,
            stalls,
            events: EventCounts {
                int_ops: e.get("int_ops")?.as_u64()?,
                fp_ops: e.get("fp_ops")?.as_u64()?,
                data_links: e.get("data_links")?.as_u64()?,
                mem_links: e.get("mem_links")?.as_u64()?,
                may_checks: e.get("may_checks")?.as_u64()?,
                must_tokens: e.get("must_tokens")?.as_u64()?,
                l1_accesses: e.get("l1_accesses")?.as_u64()?,
                lsq_allocs: e.get("lsq_allocs")?.as_u64()?,
                lsq_bank_overflows: e.get("lsq_bank_overflows")?.as_u64()?,
                lsq_bloom_queries: e.get("lsq_bloom_queries")?.as_u64()?,
                lsq_bloom_hits: e.get("lsq_bloom_hits")?.as_u64()?,
                lsq_cam_loads: e.get("lsq_cam_loads")?.as_u64()?,
                lsq_cam_stores: e.get("lsq_cam_stores")?.as_u64()?,
                forwards: e.get("forwards")?.as_u64()?,
            },
            energy,
            l1: cache("l1")?,
            llc: cache("llc")?,
            comparator_sites: v.get("comparator_sites")?.as_u64()?,
            opt: match v.get("opt") {
                Some(o) => Some(OptMetrics {
                    order_before: o.get("order_before")?.as_u64()?,
                    may_before: o.get("may_before")?.as_u64()?,
                    may_coalesced: o.get("may_coalesced")?.as_u64()?,
                }),
                None => None,
            },
        })
    }
}

/// Everything the report needs about one completed cell; the journaled
/// form of a [`super::VariantOutcome`].
#[derive(Clone, Debug, PartialEq)]
pub struct OutcomeRecord {
    /// Final harness verdict.
    pub status: RunStatus,
    /// Deterministic failure detail (absent for clean runs).
    pub detail: Option<String>,
    /// Injected faults that fired, in firing order.
    pub injected: Vec<String>,
    /// Every supervised attempt, in attempt order (length ≥ 1).
    pub attempts: Vec<Attempt>,
    /// Reportable metrics (absent when the run never completed).
    pub metrics: Option<RunMetrics>,
}

/// One journal line: a completed cell with its content key plus the
/// human-readable job/variant labels (diagnostics only — replay matches
/// on the key, never on the labels).
#[derive(Clone, Debug, PartialEq)]
pub struct RunRecord {
    /// Content hash of the cell's inputs.
    pub key: RunKey,
    /// Job name at record time.
    pub job: String,
    /// Variant label at record time.
    pub variant: String,
    /// The recorded outcome.
    pub outcome: OutcomeRecord,
}

/// Why a journal line failed to parse as a [`RunRecord`] — the split
/// drives the journal's corruption accounting: [`LineError::Corrupt`]
/// lines carried a checksum frame that no longer matches their bytes
/// (flipped bits, partial overwrite), while [`LineError::Unusable`]
/// covers everything else (torn tails, foreign schemas, hand-edited
/// junk). Both are dropped — and their cells
/// re-executed — rather than trusted.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LineError {
    /// Framed line whose checksum disagrees with its payload.
    Corrupt,
    /// Anything else unusable: unframed, unparsable, or a different
    /// record schema.
    Unusable,
}

impl RunRecord {
    /// Serializes the record to its single-line JSONL form: a compact
    /// JSON payload wrapped in the `<16-hex FNV-1a> <payload>` checksum
    /// frame ([`crate::json::checksum_frame`]), newline terminated.
    /// The checksum makes corruption anywhere in the record — not just
    /// a torn tail — detectable on replay.
    #[must_use]
    pub fn to_line(&self) -> String {
        let mut framed = checksum_frame(self.payload().trim_end_matches('\n'));
        framed.push('\n');
        framed
    }

    /// The record's compact JSON payload (the framed part of
    /// [`Self::to_line`]), newline terminated.
    fn payload(&self) -> String {
        let mut w = JsonWriter::compact();
        w.open_obj();
        w.str_field("journal", JOURNAL_SCHEMA);
        w.str_field("key", &self.key.to_string());
        w.str_field("job", &self.job);
        w.str_field("variant", &self.variant);
        w.str_field("status", self.outcome.status.as_str());
        w.key("attempts");
        w.open_arr();
        for a in &self.outcome.attempts {
            w.open_obj();
            w.str_field("status", a.status.as_str());
            w.u64_field("seed", a.seed);
            w.close_obj();
        }
        w.close_arr();
        if let Some(detail) = &self.outcome.detail {
            w.str_field("detail", detail);
        }
        if !self.outcome.injected.is_empty() {
            w.key("injected");
            w.open_arr();
            for s in &self.outcome.injected {
                w.str_item(s);
            }
            w.close_arr();
        }
        if let Some(m) = &self.outcome.metrics {
            w.key("metrics");
            w.open_obj();
            m.write_fields(&mut w);
            w.close_obj();
        }
        w.close_obj();
        w.finish()
    }

    /// Parses one journal line. Returns `None` for anything unusable —
    /// torn tail lines from a crash, checksum-failing corrupt records,
    /// foreign schemas, hand-edited junk — so replay degrades to
    /// re-running those cells instead of failing. Use
    /// [`Self::parse_line`] when corrupt records must be counted apart.
    #[must_use]
    pub fn from_line(line: &str) -> Option<RunRecord> {
        Self::parse_line(line).ok()
    }

    /// [`Self::from_line`] with corruption classified: a framed line
    /// whose checksum fails is [`LineError::Corrupt`]; everything else
    /// unusable is [`LineError::Unusable`].
    ///
    /// # Errors
    ///
    /// Returns the classification of why the line is not a valid
    /// record.
    pub fn parse_line(line: &str) -> Result<RunRecord, LineError> {
        match checksum_unframe(line.trim_end_matches(['\n', '\r'])) {
            Ok(payload) => Self::from_payload(payload).ok_or(LineError::Unusable),
            Err(FrameError::Corrupt) => Err(LineError::Corrupt),
            Err(FrameError::Unframed) => Err(LineError::Unusable),
        }
    }

    /// Parses the JSON payload of an already-unframed record line.
    #[must_use]
    pub fn from_payload(line: &str) -> Option<RunRecord> {
        let v = parse_json(line)?;
        if v.get("journal")?.as_str()? != JOURNAL_SCHEMA {
            return None;
        }
        let key = RunKey::parse(v.get("key")?.as_str()?)?;
        let job = v.get("job")?.as_str()?.to_owned();
        let variant = v.get("variant")?.as_str()?.to_owned();
        let status = RunStatus::from_label(v.get("status")?.as_str()?)?;
        let mut attempts = Vec::new();
        for a in v.get("attempts")?.as_arr()? {
            attempts.push(Attempt {
                status: RunStatus::from_label(a.get("status")?.as_str()?)?,
                seed: a.get("seed")?.as_u64()?,
            });
        }
        if attempts.is_empty() {
            return None;
        }
        let detail = match v.get("detail") {
            Some(d) => Some(d.as_str()?.to_owned()),
            None => None,
        };
        let injected = match v.get("injected") {
            Some(arr) => {
                let mut out = Vec::new();
                for s in arr.as_arr()? {
                    out.push(s.as_str()?.to_owned());
                }
                out
            }
            None => Vec::new(),
        };
        let metrics = match v.get("metrics") {
            Some(m) => Some(RunMetrics::from_json(m)?),
            None => None,
        };
        Some(RunRecord {
            key,
            job,
            variant,
            outcome: OutcomeRecord {
                status,
                detail,
                injected,
                attempts,
                metrics,
            },
        })
    }
}

/// Writes the six stall causes as fields of the object open in `w`: the
/// one encoding of their keys, shared by [`RunMetrics::write_fields`] and
/// the per-cycle stats stream.
pub(crate) fn stall_fields(w: &mut JsonWriter, s: &StallCounts) {
    w.u64_field("lsq_alloc", s.lsq_alloc);
    w.u64_field("lsq_search", s.lsq_search);
    w.u64_field("token", s.token);
    w.u64_field("may_gate", s.may_gate);
    w.u64_field("comparator", s.comparator);
    w.u64_field("mem_port", s.mem_port);
}

// ---------------------------------------------------------------------
// The journal file
// ---------------------------------------------------------------------

/// The durable append-only journal. Opened once per sweep; workers
/// append completed cells through a mutex (one line per append, flushed
/// and fsynced before the lock drops), and the preloaded replay map
/// serves `lookup` without touching the file again.
#[derive(Debug)]
pub struct Journal {
    path: PathBuf,
    file: Mutex<File>,
    replay: HashMap<u64, OutcomeRecord>,
    skipped: usize,
    corrupt: usize,
}

impl Journal {
    /// Starts a fresh journal at `path`, truncating any previous file —
    /// the non-`--resume` mode, where stale entries must not leak into a
    /// new campaign.
    ///
    /// # Errors
    ///
    /// Propagates file creation errors.
    pub fn create(path: impl Into<PathBuf>) -> io::Result<Journal> {
        let path = path.into();
        let file = File::create(&path)?;
        Ok(Journal {
            path,
            file: Mutex::new(file),
            replay: HashMap::new(),
            skipped: 0,
            corrupt: 0,
        })
    }

    /// Opens `path` for resumption: parses every intact line into the
    /// replay map (later duplicates of a key win), then reopens the
    /// file for appending. A missing file is an empty journal, so
    /// `--resume` on a first run degrades to a fresh start.
    ///
    /// Replay is hardened against corruption *anywhere* in the file,
    /// not just the torn tail a crash mid-append leaves: lines are read
    /// as raw bytes (invalid UTF-8 cannot abort the load), and a line
    /// whose checksum frame fails, whose JSON is malformed, or whose
    /// schema is foreign is counted ([`Journal::skipped`], with
    /// checksum failures also in [`Journal::corrupt`]) and dropped —
    /// every valid record before *and after* it is kept, and the
    /// dropped cells simply re-execute. Record length is capped at
    /// [`MAX_RECORD_LEN`] during recovery: a corrupt frame header that
    /// claims (or simply is) a multi-GiB "line" is streamed past and
    /// counted, never buffered, so a hostile or trashed journal cannot
    /// OOM the resume path.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors other than the file not existing.
    pub fn resume(path: impl Into<PathBuf>) -> io::Result<Journal> {
        let path = path.into();
        let mut replay = HashMap::new();
        let mut skipped = 0usize;
        let mut corrupt = 0usize;
        // An oversized or non-UTF-8 line (`dropped`) can only be
        // corruption: no legitimate record is near the cap.
        let (file, dropped) = resume_log(&path, |line| match RunRecord::parse_line(line) {
            Ok(rec) => {
                replay.insert(rec.key.0, rec.outcome);
            }
            Err(LineError::Corrupt) => {
                skipped += 1;
                corrupt += 1;
            }
            Err(LineError::Unusable) => skipped += 1,
        })?;
        Ok(Journal {
            path,
            file: Mutex::new(file),
            replay,
            skipped: skipped + dropped,
            corrupt: corrupt + dropped,
        })
    }

    /// The journal's file path.
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Completed cells loaded for replay.
    #[must_use]
    pub fn replay_len(&self) -> usize {
        self.replay.len()
    }

    /// Malformed lines skipped while loading (a torn tail line after a
    /// crash is normal and costs exactly one re-run).
    #[must_use]
    pub fn skipped(&self) -> usize {
        self.skipped
    }

    /// The subset of [`Journal::skipped`] that carried a checksum frame
    /// failing verification — records corrupted on disk after they were
    /// written, as opposed to torn or foreign lines.
    #[must_use]
    pub fn corrupt(&self) -> usize {
        self.corrupt
    }

    /// The recorded outcome for `key`, when the journal has one.
    #[must_use]
    pub fn lookup(&self, key: RunKey) -> Option<&OutcomeRecord> {
        self.replay.get(&key.0)
    }

    /// Durably appends one completed cell: a single `write` of the JSONL
    /// line, flushed and fsynced before returning, so the record either
    /// exists completely or (after a crash mid-write) fails to parse and
    /// is re-run — never half-trusted.
    ///
    /// # Errors
    ///
    /// Propagates write/fsync errors (and a poisoned append lock as
    /// [`io::ErrorKind::Other`]).
    pub fn append(&self, record: &RunRecord) -> io::Result<()> {
        self.append_synced(&record.to_line())
    }

    /// Writes `lines` in one `write`, flushed and fsynced before
    /// returning.
    fn append_synced(&self, lines: &str) -> io::Result<()> {
        let mut file = self
            .file
            .lock()
            .map_err(|_| io::Error::other("journal append lock poisoned"))?;
        file.write_all(lines.as_bytes())?;
        file.flush()?;
        file.sync_data()
    }

    /// Appends one pre-framed single-line record. Flushed but **not**
    /// fsynced: a shard worker appends its records this way and makes a
    /// whole batch durable with one [`Journal::sync`].
    ///
    /// # Errors
    ///
    /// Propagates write errors (and a poisoned append lock as
    /// [`io::ErrorKind::Other`]).
    pub fn append_raw(&self, line: &str) -> io::Result<()> {
        let mut file = self
            .file
            .lock()
            .map_err(|_| io::Error::other("journal append lock poisoned"))?;
        file.write_all(line.as_bytes())?;
        if !line.ends_with('\n') {
            file.write_all(b"\n")?;
        }
        file.flush()
    }

    /// Fsyncs everything appended so far: the group commit behind
    /// [`Journal::append_raw`].
    ///
    /// # Errors
    ///
    /// Propagates fsync errors (and a poisoned append lock as
    /// [`io::ErrorKind::Other`]).
    pub fn sync(&self) -> io::Result<()> {
        self.file
            .lock()
            .map_err(|_| io::Error::other("journal append lock poisoned"))?
            .sync_data()
    }

    /// Merges one record recovered from elsewhere (a shard journal, the
    /// result cache) into this journal: appends it durably *and* makes
    /// it immediately replayable through [`Journal::lookup`]. A key the
    /// replay map already holds is left untouched (first absorption
    /// wins; within one merge pass every source of a key records the
    /// identical outcome).
    ///
    /// # Errors
    ///
    /// Propagates append I/O errors.
    pub fn absorb(&mut self, record: &RunRecord) -> io::Result<bool> {
        Ok(self.absorb_all(std::slice::from_ref(record))? == 1)
    }

    /// Group-commit form of [`Journal::absorb`]: appends every record
    /// whose key is new — to the replay map and to earlier records of
    /// the batch — in one write, fsyncs once, and only then makes them
    /// replayable. Durability still precedes visibility, per batch; a
    /// crash mid-write leaves a clean prefix plus at most one torn line,
    /// which [`Journal::resume`] skips. The bytes written equal those of
    /// absorbing the records one at a time, in order. Returns how many
    /// records were new.
    ///
    /// # Errors
    ///
    /// Propagates append I/O errors; on error nothing becomes
    /// replayable.
    pub fn absorb_all(&mut self, records: &[RunRecord]) -> io::Result<usize> {
        let mut fresh: HashMap<u64, &RunRecord> = HashMap::new();
        let mut lines = String::new();
        for rec in records {
            if self.replay.contains_key(&rec.key.0) || fresh.contains_key(&rec.key.0) {
                continue;
            }
            fresh.insert(rec.key.0, rec);
            lines.push_str(&rec.to_line());
        }
        if fresh.is_empty() {
            return Ok(0);
        }
        self.append_synced(&lines)?;
        let n = fresh.len();
        for (key, rec) in fresh {
            self.replay.insert(key, rec.outcome.clone());
        }
        Ok(n)
    }
}

/// Upper bound on one recovered record line, in bytes. Real journal
/// records are a few KiB; the margin is ~1000×. Anything longer is by
/// definition corruption (e.g. a frame header whose newline was
/// overwritten, fusing it onto gigabytes of foreign bytes) and is
/// skipped without ever being buffered.
pub const MAX_RECORD_LEN: usize = 4 << 20;

/// Outcome of one [`read_bounded_line`] call.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BoundedLine {
    /// A line of at most the cap landed in the buffer (trailing `\n`
    /// included when present; the final line of a file may lack one).
    Line,
    /// The line exceeded the cap: the buffer is empty and every byte up
    /// to (and including) the next newline was read and discarded.
    Oversized {
        /// Total length of the discarded line, in bytes.
        discarded: u64,
    },
    /// End of input with no pending bytes.
    Eof,
}

/// Reads one newline-terminated line into `buf`, refusing to buffer
/// more than `cap` bytes: an oversized line is consumed to its newline
/// in streaming fashion (constant memory) and reported as
/// [`BoundedLine::Oversized`] so recovery paths can count-and-skip a
/// multi-GiB corrupt record instead of allocating for it. The daemon's
/// request reader shares this guard — a hostile client line cannot OOM
/// the server either.
///
/// # Errors
///
/// Propagates underlying read errors.
pub fn read_bounded_line<R: io::BufRead + ?Sized>(
    reader: &mut R,
    buf: &mut Vec<u8>,
    cap: usize,
) -> io::Result<BoundedLine> {
    buf.clear();
    let mut discarded: u64 = 0;
    let mut oversized = false;
    loop {
        let chunk = reader.fill_buf()?;
        if chunk.is_empty() {
            return Ok(if oversized {
                BoundedLine::Oversized { discarded }
            } else if buf.is_empty() {
                BoundedLine::Eof
            } else {
                BoundedLine::Line
            });
        }
        let (terminated, n) = match chunk.iter().position(|&b| b == b'\n') {
            Some(pos) => (true, pos + 1),
            None => (false, chunk.len()),
        };
        if oversized {
            discarded += n as u64;
        } else if buf.len() + n > cap {
            // Crossing the cap: drop what we buffered and switch to
            // streaming-discard until the newline.
            oversized = true;
            discarded = (buf.len() + n) as u64;
            buf.clear();
        } else {
            buf.extend_from_slice(&chunk[..n]);
        }
        reader.consume(n);
        if terminated {
            return Ok(if oversized {
                BoundedLine::Oversized { discarded }
            } else {
                BoundedLine::Line
            });
        }
    }
}

/// Reads a line-framed log with [`read_bounded_line`], handing each
/// non-blank line (its trailing newline included) to `each`. Lines that
/// are oversized or not UTF-8 never reach `each`; they are streamed past
/// and counted, and the count is returned. Every file reader that
/// recovers records shares this loop: the run journal, the shard
/// journals and the daemon's job journal.
///
/// # Errors
///
/// Propagates read errors.
pub(crate) fn read_log_lines(
    mut reader: impl io::BufRead,
    mut each: impl FnMut(&str),
) -> io::Result<usize> {
    let mut buf = Vec::new();
    let mut dropped = 0usize;
    loop {
        match read_bounded_line(&mut reader, &mut buf, MAX_RECORD_LEN)? {
            BoundedLine::Eof => return Ok(dropped),
            BoundedLine::Oversized { .. } => dropped += 1,
            BoundedLine::Line => match std::str::from_utf8(&buf) {
                Ok(line) if line.trim().is_empty() => {}
                Ok(line) => each(line),
                Err(_) => dropped += 1,
            },
        }
    }
}

/// Opens the log at `path` for appending, creating it when missing,
/// after passing every line to `each` through [`read_log_lines`].
/// Returns the append handle and the count of dropped lines.
///
/// A crash mid-append leaves a final line with no newline. New appends
/// must not fuse onto it — that would corrupt the *next* record too —
/// so such a torn tail is terminated first.
///
/// # Errors
///
/// Propagates open, read and repair errors.
pub(crate) fn resume_log(path: &Path, each: impl FnMut(&str)) -> io::Result<(File, usize)> {
    let mut file = OpenOptions::new()
        .read(true)
        .append(true)
        .create(true)
        .open(path)?;
    let dropped = read_log_lines(BufReader::new(&file), each)?;
    if file.seek(SeekFrom::End(0))? > 0 {
        file.seek(SeekFrom::End(-1))?;
        let mut last = [0u8; 1];
        file.read_exact(&mut last)?;
        if last[0] != b'\n' {
            file.write_all(b"\n")?;
            file.flush()?;
        }
    }
    Ok((file, dropped))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Backend;
    use crate::sweep::SweepJob;
    use crate::testutil::store_load_region;

    fn demo_record(seed: u64) -> RunRecord {
        RunRecord {
            key: RunKey(0x0123_4567_89ab_cdef),
            job: "demo \"quoted\"".into(),
            variant: "nachos".into(),
            outcome: OutcomeRecord {
                status: RunStatus::Ok,
                detail: None,
                injected: vec!["drop-token at cycle 3 (token to node 4)".into()],
                attempts: vec![
                    Attempt {
                        status: RunStatus::Panic,
                        seed,
                    },
                    Attempt {
                        status: RunStatus::Ok,
                        seed: seed.wrapping_add(1),
                    },
                ],
                metrics: Some(RunMetrics {
                    cycles: 123,
                    stalls: StallCounts {
                        token: 7,
                        ..StallCounts::default()
                    },
                    events: EventCounts {
                        int_ops: 42,
                        forwards: 3,
                        ..EventCounts::default()
                    },
                    energy: EnergyBreakdown {
                        compute: 1.5,
                        mde: 0.125,
                        lsq_bloom: 0.0,
                        lsq_cam: 0.1 + 0.2, // a classic non-round f64
                        l1: 9.75,
                    },
                    l1: CacheStats {
                        hits: 10,
                        misses: 2,
                        writebacks: 1,
                    },
                    llc: CacheStats {
                        hits: 1,
                        misses: 1,
                        writebacks: 0,
                    },
                    comparator_sites: 2,
                    opt: Some(OptMetrics {
                        order_before: 6,
                        may_before: 4,
                        may_coalesced: 2,
                    }),
                }),
            },
        }
    }

    #[test]
    fn record_roundtrips_bit_exactly() {
        // Full-range u64 seeds must survive (beyond f64's 2^53).
        let rec = demo_record(u64::MAX - 7);
        let line = rec.to_line();
        assert_eq!(line.matches('\n').count(), 1, "one line, one record");
        let back = RunRecord::from_line(&line).expect("parses");
        assert_eq!(back, rec);
        // And the re-serialized line is identical (stable bytes).
        assert_eq!(back.to_line(), line);
    }

    #[test]
    fn torn_and_foreign_lines_are_skipped() {
        let rec = demo_record(1);
        let line = rec.to_line();
        assert!(RunRecord::from_line(&line[..line.len() / 2]).is_none());
        assert!(RunRecord::from_line("").is_none());
        assert!(RunRecord::from_line("{\"journal\": \"other-v9\"}").is_none());
        assert!(RunRecord::from_line("not json at all").is_none());
    }

    #[test]
    fn keys_are_content_hashes() {
        let (region, binding) = store_load_region("a");
        let sim = SimConfig::default();
        let fp = job_fingerprint(&region, &binding, &sim);
        // Stable under recomputation.
        assert_eq!(fp, job_fingerprint(&region, &binding, &sim));
        // Any config change invalidates the key.
        let mut other = sim.clone();
        other.invocations += 1;
        assert_ne!(fp, job_fingerprint(&region, &binding, &other));
        // The optimizer changes the compiled graph: content, not control.
        let optimized = sim.clone().with_optimize(true);
        assert_ne!(fp, job_fingerprint(&region, &binding, &optimized));
        // The cancel token does NOT (runtime control, not content).
        let cancelled = sim.clone().with_cancel(crate::CancelToken::new());
        assert_eq!(fp, job_fingerprint(&region, &binding, &cancelled));
        // Variants split the key.
        let variants = SweepVariant::paper_matrix();
        let k0 = run_key(fp, &variants[0]);
        let k1 = run_key(fp, &variants[1]);
        assert_ne!(k0, k1);
        assert_eq!(k0, run_key(fp, &variants[0]));
    }

    #[test]
    fn fault_plan_enters_the_fingerprint() {
        use crate::fault::{FaultKind, FaultSpec};
        let (region, binding) = store_load_region("f");
        let job = SweepJob::new("f", region.clone(), binding.clone());
        let sim = SimConfig::default();
        let mut faulted = sim.clone();
        faulted
            .fault
            .faults
            .push(FaultSpec::new(FaultKind::DropToken, 0).on_backend(Backend::NachosSw));
        assert_ne!(
            job_fingerprint(&job.region, &job.binding, &sim),
            job_fingerprint(&job.region, &job.binding, &faulted),
        );
    }

    #[test]
    fn seed_derivation_is_deterministic_and_attempt_sensitive() {
        let k = RunKey(42);
        assert_eq!(derive_seed(k, 0), derive_seed(k, 0));
        assert_ne!(derive_seed(k, 0), derive_seed(k, 1));
        assert_ne!(derive_seed(k, 0), derive_seed(RunKey(43), 0));
    }

    #[test]
    fn run_key_hex_roundtrip() {
        let k = RunKey(0x00ff_0000_0000_00aa);
        assert_eq!(k.to_string(), "00ff0000000000aa");
        assert_eq!(RunKey::parse(&k.to_string()), Some(k));
        assert_eq!(RunKey::parse("xyz"), None);
        assert_eq!(RunKey::parse("00ff"), None);
    }

    #[test]
    fn journal_create_resume_and_replay() {
        let dir = std::env::temp_dir().join("nachos-journal-unit");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("j.jsonl");
        let rec_a = demo_record(7);
        let mut rec_b = demo_record(9);
        rec_b.key = RunKey(0xbbbb);
        {
            let j = Journal::create(&path).unwrap();
            j.append(&rec_a).unwrap();
            j.append(&rec_b).unwrap();
        }
        // Simulate a crash mid-append: a torn half line at the tail.
        {
            use std::io::Write as _;
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            let torn = demo_record(11).to_line();
            f.write_all(&torn.as_bytes()[..torn.len() / 3]).unwrap();
        }
        let j = Journal::resume(&path).unwrap();
        assert_eq!(j.replay_len(), 2);
        assert_eq!(j.skipped(), 1, "the torn tail is skipped, not fatal");
        assert_eq!(j.lookup(rec_a.key), Some(&rec_a.outcome));
        assert_eq!(j.lookup(rec_b.key), Some(&rec_b.outcome));
        assert_eq!(j.lookup(RunKey(0xdead)), None);
        // Resume newline-terminates the torn tail, so a record appended
        // after the crash does not concatenate onto it and get lost.
        let mut rec_c = demo_record(11);
        rec_c.key = RunKey(0xcccc);
        j.append(&rec_c).unwrap();
        drop(j);
        let j = Journal::resume(&path).unwrap();
        assert_eq!(
            j.replay_len(),
            3,
            "post-crash append survives the torn tail"
        );
        assert_eq!(j.lookup(rec_c.key), Some(&rec_c.outcome));
        // `create` truncates: a fresh campaign sees nothing stale.
        let fresh = Journal::create(&path).unwrap();
        assert_eq!(fresh.replay_len(), 0);
        drop(fresh);
        assert_eq!(Journal::resume(&path).unwrap().replay_len(), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_mid_file_record_is_counted_and_later_records_survive() {
        let dir = std::env::temp_dir().join("nachos-journal-corrupt-unit");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("j.jsonl");
        let mut recs = Vec::new();
        for i in 0..4u64 {
            let mut r = demo_record(i);
            r.key = RunKey(0x1000 + i);
            recs.push(r);
        }
        {
            let j = Journal::create(&path).unwrap();
            for r in &recs {
                j.append(r).unwrap();
            }
        }
        // Flip one byte inside the *second* record — mid-file, not the
        // tail — deep enough to land in the JSON payload.
        let mut bytes = std::fs::read(&path).unwrap();
        let line_starts: Vec<usize> = std::iter::once(0)
            .chain(
                bytes
                    .iter()
                    .enumerate()
                    .filter(|(_, b)| **b == b'\n')
                    .map(|(i, _)| i + 1),
            )
            .collect();
        bytes[line_starts[1] + 40] ^= 0x20;
        std::fs::write(&path, &bytes).unwrap();

        let j = Journal::resume(&path).unwrap();
        assert_eq!(j.corrupt(), 1, "the flipped record is detected");
        assert_eq!(j.skipped(), 1);
        assert_eq!(j.replay_len(), 3, "records after the corruption survive");
        assert_eq!(j.lookup(recs[1].key), None, "the corrupt cell re-executes");
        for r in [&recs[0], &recs[2], &recs[3]] {
            assert_eq!(j.lookup(r.key), Some(&r.outcome));
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn invalid_utf8_line_never_aborts_the_load() {
        let dir = std::env::temp_dir().join("nachos-journal-utf8-unit");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("j.jsonl");
        let rec = demo_record(3);
        {
            let j = Journal::create(&path).unwrap();
            j.append(&rec).unwrap();
        }
        let mut bytes = b"\xff\xfe garbage \xff\n".to_vec();
        bytes.extend_from_slice(&std::fs::read(&path).unwrap());
        std::fs::write(&path, &bytes).unwrap();
        let j = Journal::resume(&path).unwrap();
        assert_eq!(j.replay_len(), 1);
        assert_eq!(j.skipped(), 1);
        assert_eq!(j.corrupt(), 1);
        assert_eq!(j.lookup(rec.key), Some(&rec.outcome));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn absorb_appends_once_and_serves_lookups() {
        let dir = std::env::temp_dir().join("nachos-journal-absorb-unit");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("j.jsonl");
        let rec = demo_record(5);
        let mut j = Journal::create(&path).unwrap();
        assert!(j.absorb(&rec).unwrap());
        assert!(!j.absorb(&rec).unwrap(), "second absorption is a no-op");
        assert_eq!(j.lookup(rec.key), Some(&rec.outcome));
        drop(j);
        let j = Journal::resume(&path).unwrap();
        assert_eq!(j.replay_len(), 1, "absorb wrote exactly one line");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Four distinct records plus a repeat of the second, in that order.
    fn batch_with_duplicate() -> Vec<RunRecord> {
        let mut recs: Vec<RunRecord> = (0..4u64)
            .map(|i| {
                let mut r = demo_record(100 + i);
                r.key = RunKey(0x2000 + i);
                r
            })
            .collect();
        let mut dup = recs[1].clone();
        dup.outcome.status = RunStatus::Mismatch; // a later copy never wins
        recs.push(dup);
        recs
    }

    #[test]
    fn absorb_all_matches_one_at_a_time_byte_for_byte() {
        let dir = std::env::temp_dir().join("nachos-journal-absorb-all-unit");
        std::fs::create_dir_all(&dir).unwrap();
        let recs = batch_with_duplicate();
        let (single_path, batch_path) = (dir.join("single.jsonl"), dir.join("batch.jsonl"));
        let mut single = Journal::create(&single_path).unwrap();
        let mut new_single = 0;
        for r in &recs {
            new_single += usize::from(single.absorb(r).unwrap());
        }
        let mut batch = Journal::create(&batch_path).unwrap();
        // One record is already present: the batch skips it too.
        assert!(batch.absorb(&recs[0]).unwrap());
        assert_eq!(batch.absorb_all(&recs).unwrap(), 3);
        assert_eq!(new_single, 4);
        assert_eq!(
            batch.absorb_all(&recs).unwrap(),
            0,
            "a replayed batch is a no-op"
        );
        assert_eq!(
            std::fs::read(&single_path).unwrap(),
            std::fs::read(&batch_path).unwrap()
        );
        assert_eq!(single.replay, batch.replay);
        assert_eq!(
            batch.lookup(recs[1].key),
            Some(&recs[1].outcome),
            "the first copy of a duplicated key wins"
        );
        drop(batch);
        let lines = std::fs::read_to_string(&batch_path).unwrap();
        assert_eq!(lines.lines().count(), 4, "the duplicate is written once");
        let resumed = Journal::resume(&batch_path).unwrap();
        assert_eq!(resumed.replay, single.replay);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn batch_torn_mid_write_resumes_a_clean_prefix() {
        let dir = std::env::temp_dir().join("nachos-journal-absorb-torn-unit");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("j.jsonl");
        let recs = batch_with_duplicate();
        Journal::create(&path).unwrap().absorb_all(&recs).unwrap();
        // Cut the file inside the third line, as a crash mid-write would.
        let bytes = std::fs::read(&path).unwrap();
        let third = bytes
            .iter()
            .enumerate()
            .filter(|(_, b)| **b == b'\n')
            .nth(1)
            .map(|(i, _)| i + 1)
            .unwrap();
        std::fs::write(&path, &bytes[..third + 30]).unwrap();
        let mut j = Journal::resume(&path).unwrap();
        assert_eq!(j.replay_len(), 2, "the intact prefix replays");
        assert_eq!(j.skipped(), 1, "the torn line is skipped");
        for r in &recs[..2] {
            assert_eq!(j.lookup(r.key), Some(&r.outcome));
        }
        // Re-absorbing the batch after the crash completes it.
        assert_eq!(j.absorb_all(&recs).unwrap(), 2);
        drop(j);
        let j = Journal::resume(&path).unwrap();
        assert_eq!(j.replay_len(), 4);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn bounded_line_reader_streams_past_oversized_lines() {
        use std::io::Cursor;
        let mut input = Vec::new();
        input.extend_from_slice(b"short\n");
        input.extend_from_slice(&[b'x'; 100]);
        input.push(b'\n');
        input.extend_from_slice(b"after\n");
        input.extend_from_slice(b"tail-no-newline");
        let mut r = Cursor::new(input);
        let mut buf = Vec::new();
        assert_eq!(
            read_bounded_line(&mut r, &mut buf, 16).unwrap(),
            BoundedLine::Line
        );
        assert_eq!(buf, b"short\n");
        assert_eq!(
            read_bounded_line(&mut r, &mut buf, 16).unwrap(),
            BoundedLine::Oversized { discarded: 101 },
        );
        assert!(buf.is_empty(), "oversized bytes are never buffered");
        assert_eq!(
            read_bounded_line(&mut r, &mut buf, 16).unwrap(),
            BoundedLine::Line
        );
        assert_eq!(buf, b"after\n");
        assert_eq!(
            read_bounded_line(&mut r, &mut buf, 16).unwrap(),
            BoundedLine::Line,
            "a final unterminated line is still delivered"
        );
        assert_eq!(buf, b"tail-no-newline");
        assert_eq!(
            read_bounded_line(&mut r, &mut buf, 16).unwrap(),
            BoundedLine::Eof
        );
        // An unterminated oversized tail is reported, not buffered.
        let mut r = Cursor::new(vec![b'y'; 64]);
        assert_eq!(
            read_bounded_line(&mut r, &mut buf, 16).unwrap(),
            BoundedLine::Oversized { discarded: 64 },
        );
    }

    /// The satellite regression for corrupt oversized records: a frame
    /// header fused onto a payload far beyond [`MAX_RECORD_LEN`] (the
    /// on-disk shape a multi-GiB corruption takes — the discard path is
    /// constant-memory, so only the cap-crossing needs exercising) is
    /// skipped and counted, and every record on either side survives.
    #[test]
    fn resume_skips_and_counts_an_oversized_corrupt_record() {
        let dir = std::env::temp_dir().join("nachos-journal-oversize-unit");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("j.jsonl");
        let rec_a = demo_record(21);
        let mut rec_b = demo_record(23);
        rec_b.key = RunKey(0xbeef);
        {
            let j = Journal::create(&path).unwrap();
            j.append(&rec_a).unwrap();
        }
        {
            use std::io::Write as _;
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            // A plausible-looking frame header whose record body claims
            // gigabytes: 16 hex digits, a space, then an endless line.
            f.write_all(b"ffffffffffffffff ").unwrap();
            let chunk = vec![b'x'; 1 << 20];
            for _ in 0..(MAX_RECORD_LEN / (1 << 20) + 3) {
                f.write_all(&chunk).unwrap();
            }
            f.write_all(b"\n").unwrap();
        }
        {
            let j = Journal::resume(&path).unwrap();
            j.append(&rec_b).unwrap();
        }
        let j = Journal::resume(&path).unwrap();
        assert_eq!(j.replay_len(), 2, "records on both sides survive");
        assert_eq!(j.skipped(), 1, "the oversized line is skipped once");
        assert_eq!(j.corrupt(), 1, "and counted as corruption");
        assert_eq!(j.lookup(rec_a.key), Some(&rec_a.outcome));
        assert_eq!(j.lookup(rec_b.key), Some(&rec_b.outcome));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
