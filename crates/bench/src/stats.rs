//! The `--stats PATH` telemetry pass shared by the sweep and bench
//! binaries: streams `nachos-stats-v1` JSON lines for a whole experiment
//! matrix.
//!
//! Telemetry observes, it never orchestrates: the parallel sweep runs
//! exactly as it always has, and this pass re-executes the matrix
//! *serially* — one deterministic `(job, variant)` cell after another,
//! all into a single [`StatsWriter`] — so the stream's run-block order
//! never depends on worker-thread scheduling. Re-execution is sound
//! because simulation is deterministic and a `TelemetrySink` is proven
//! observation-only (`tests/prop_telemetry.rs`): the observed runs
//! produce bit-identical results to the sweep's own.

use std::fs::File;
use std::io::BufWriter;

use nachos::sweep::{SweepConfig, SweepJob};
use nachos::{Run, SimArena, StatsWriter};

/// Runs every `(job, variant)` cell of the matrix serially with a
/// [`StatsWriter`] attached and writes the combined `nachos-stats-v1`
/// stream to `path`. One run block per cell, labelled `job/variant`, in
/// matrix order; returns the number of runs streamed.
///
/// # Errors
///
/// Returns a deterministic description of the first I/O failure or
/// simulation error. Faulting cells are skipped rather than streamed:
/// the sweep proper already reports them, and a half-written run block
/// would be misleading.
pub fn write_stats_stream(path: &str, jobs: &[SweepJob], cfg: &SweepConfig) -> Result<u64, String> {
    let file = File::create(path).map_err(|e| format!("cannot create stats stream {path}: {e}"))?;
    let mut writer = StatsWriter::new(BufWriter::new(file), path);
    let mut arena = SimArena::new();
    let mut runs = 0u64;
    for job in jobs {
        let config = job.sim_config(cfg);
        for v in &cfg.variants {
            let label = format!("{}/{}", job.name, v.label);
            writer.begin_run(&label, Some(v.backend));
            match Run::new(&job.region, &job.binding, v.backend)
                .stages(v.stages)
                .arena(&mut arena)
                .sink(&mut writer)
                .execute(&config, &cfg.energy)
            {
                Ok(_) => runs += 1,
                Err(e) => eprintln!("stats pass: skipping {label}: {e}"),
            }
        }
    }
    writer
        .finish()
        .map_err(|e| format!("stats stream {path} write failed: {e}"))?;
    Ok(runs)
}
