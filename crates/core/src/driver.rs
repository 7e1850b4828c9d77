//! High-level driver: compile a region for a backend and simulate it.

use crate::config::{Backend, SimConfig};
use crate::energy::EnergyModel;
use crate::engine::{simulate_observed, SimArena, SimResult, TelemetrySink};
use crate::error::SimError;
use nachos_alias::{compile, Analysis, StageConfig};
use nachos_ir::{Binding, Region};

/// The outcome of compiling and simulating one region under one backend.
#[derive(Clone, Debug)]
pub struct ExperimentRun {
    /// Compiler analysis (absent for OPT-LSQ, which needs no MDEs).
    pub analysis: Option<Analysis>,
    /// Simulation result.
    pub sim: SimResult,
}

/// A region prepared for simulation under one backend class: MDEs
/// compiled (and audited) for the NACHOS backends, or stripped and
/// rewired for OPT-LSQ. Compilation is deterministic in `(region,
/// stages, optimize, uses_mdes)`, so a `CompiledRegion` can be reused
/// across backends that share those inputs — the sweep harness compiles
/// each workload once per distinct stage configuration instead of once
/// per cell.
#[derive(Clone, Debug)]
pub struct CompiledRegion {
    /// The compiled (or de-MDE'd) region, ready for
    /// [`simulate_in`](crate::simulate_in).
    pub region: Region,
    /// Compiler analysis (absent for OPT-LSQ, which needs no MDEs).
    pub analysis: Option<Analysis>,
}

/// Compiles `region` as `backend` requires: the full MDE pipeline plus
/// post-compile audit for the NACHOS backends (honouring
/// `config.optimize`), or MDE stripping + scratchpad dependency wiring
/// for OPT-LSQ.
///
/// # Errors
///
/// Returns [`SimError::Validation`] for malformed input graphs and
/// [`SimError::Audit`] when the independent post-compile audit rejects
/// the analysis.
pub fn compile_for_backend(
    region: &Region,
    backend: Backend,
    config: &SimConfig,
    stages: StageConfig,
) -> Result<CompiledRegion, SimError> {
    // Fail fast on malformed input graphs before spending compile and
    // placement work; `simulate_in` re-validates the compiled region.
    nachos_ir::validate_region(region).map_err(SimError::Validation)?;
    let mut compiled = region.clone();
    let analysis = if backend.uses_mdes() {
        let mut analysis = compile(&mut compiled, stages);
        if config.optimize {
            nachos_alias::optimize(&mut compiled, &mut analysis);
        }
        // Post-compile audit: independently re-verify every alias verdict
        // and ordering chain — and, when the optimizer ran, every rewrite
        // certificate (`CertLint`) — before trusting the MDEs with
        // correctness. The quick configuration skips the enumeration
        // oracle, so this costs a small fraction of the compile itself.
        let errors: Vec<_> = nachos_alias::audit_with(
            &compiled,
            &analysis,
            stages,
            &nachos_alias::AuditConfig::quick(),
        )
        .into_iter()
        .filter(nachos_alias::Diagnostic::is_error)
        .collect();
        if !errors.is_empty() {
            return Err(SimError::Audit(errors));
        }
        Some(analysis)
    } else {
        // OPT-LSQ needs no MDEs for main memory, but scratchpad data
        // bypasses the LSQ in every scheme, so its compiler-known
        // dependencies must still be wired into the dataflow graph.
        compiled.dfg.clear_mdes();
        nachos_alias::wire_local_deps(&mut compiled);
        None
    };
    Ok(CompiledRegion {
        region: compiled,
        analysis,
    })
}

/// One region run on one backend: [compile](compile_for_backend) its
/// MDEs as the backend requires, then simulate it. The only way to run
/// a raw region; [`simulate_in`](crate::simulate_in) times a region that
/// is already compiled.
///
/// ```
/// # use nachos::{Backend, EnergyModel, Run, SimArena, SimConfig};
/// # use nachos_alias::StageConfig;
/// # let (region, binding) = nachos::testutil::store_load_region("demo");
/// # let config = SimConfig::default();
/// let mut arena = SimArena::new();
/// let run = Run::new(&region, &binding, Backend::NachosSw)
///     .stages(StageConfig::baseline()) // default: `StageConfig::full()`
///     .arena(&mut arena) // default: a fresh arena
///     .execute(&config, &EnergyModel::default())?;
/// # assert!(run.sim.cycles > 0);
/// # Ok::<(), nachos::SimError>(())
/// ```
#[must_use = "a `Run` does nothing until `execute`"]
pub struct Run<'a> {
    region: &'a Region,
    binding: &'a Binding,
    backend: Backend,
    stages: StageConfig,
    arena: Option<&'a mut SimArena>,
    sink: Option<&'a mut dyn TelemetrySink>,
}

impl<'a> Run<'a> {
    /// A run of `region` under `binding` on `backend`, with the full
    /// compiler pipeline, a fresh arena and no telemetry.
    pub fn new(region: &'a Region, binding: &'a Binding, backend: Backend) -> Self {
        Self {
            region,
            binding,
            backend,
            stages: StageConfig::full(),
            arena: None,
            sink: None,
        }
    }

    /// Compiles with `stages` instead of the full pipeline (the
    /// baseline-compiler experiments of Figures 12 and 16).
    pub fn stages(mut self, stages: StageConfig) -> Self {
        self.stages = stages;
        self
    }

    /// Reuses the simulation state pooled in `arena` (see [`SimArena`]);
    /// results are identical for any arena history.
    pub fn arena(mut self, arena: &'a mut SimArena) -> Self {
        self.arena = Some(arena);
        self
    }

    /// Streams the simulation to `sink`. Observation only: cycles, stall
    /// counters and report bytes are bit-identical to the unobserved run.
    pub fn sink(mut self, sink: &'a mut dyn TelemetrySink) -> Self {
        self.sink = Some(sink);
        self
    }

    /// Compiles and simulates the region.
    ///
    /// # Errors
    ///
    /// Propagates [`SimError`] from [`compile_for_backend`] and from the
    /// simulator.
    pub fn execute(
        self,
        config: &SimConfig,
        energy: &EnergyModel,
    ) -> Result<ExperimentRun, SimError> {
        let compiled = compile_for_backend(self.region, self.backend, config, self.stages)?;
        let mut fresh = None;
        let arena = match self.arena {
            Some(arena) => arena,
            None => fresh.insert(SimArena::new()),
        };
        let sim = simulate_observed(
            arena,
            &compiled.region,
            self.binding,
            self.backend,
            config,
            energy,
            // Shorten the sink's trait-object lifetime to this call's.
            self.sink.map(|sink| sink as &mut dyn TelemetrySink),
        )?;
        Ok(ExperimentRun {
            analysis: compiled.analysis,
            sim,
        })
    }
}

/// Percent slowdown of `test` relative to `baseline` cycle counts
/// (negative = speedup), the normalization of Figures 11, 12 and 15.
#[must_use]
pub fn pct_slowdown(test_cycles: u64, baseline_cycles: u64) -> f64 {
    if baseline_cycles == 0 {
        0.0
    } else {
        100.0 * (test_cycles as f64 - baseline_cycles as f64) / baseline_cycles as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slowdown_sign_convention() {
        assert_eq!(pct_slowdown(110, 100), 10.0);
        assert_eq!(pct_slowdown(90, 100), -10.0);
        assert_eq!(pct_slowdown(100, 0), 0.0);
    }
}
