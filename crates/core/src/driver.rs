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
/// rewired for OPT-LSQ. A [`CompileMemo`] keeps one per compile key.
#[derive(Clone, Debug)]
pub struct CompiledRegion {
    /// The compiled (or de-MDE'd) region, ready for
    /// [`simulate_in`](crate::simulate_in).
    pub region: Region,
    /// Compiler analysis (absent for OPT-LSQ, which needs no MDEs).
    pub analysis: Option<Analysis>,
}

/// Compiles `region` as `backend` requires: the full MDE pipeline plus
/// the post-compile soundness gate ([`AuditConfig::quick`]) for the
/// NACHOS backends (honouring `config.optimize`), or MDE stripping +
/// scratchpad dependency wiring for OPT-LSQ.
///
/// The gate runs only the audit arms that can emit an Error.
///
/// [`AuditConfig::quick`]: nachos_alias::AuditConfig::quick
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
        // Post-compile soundness gate: independently re-verify every NO
        // and MUST verdict and every ordering chain — and, when the
        // optimizer ran, every rewrite certificate (`CertLint`) — before
        // trusting the MDEs with correctness.
        let errors = nachos_alias::audit_with(
            &compiled,
            &analysis,
            stages,
            &nachos_alias::AuditConfig::quick(),
        );
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

/// The one compile memo: the [`compile_for_backend`] result for one
/// region per `(backend.uses_mdes(), stages, config.optimize)` key, all
/// that compilation reads, built on the key's first request and kept,
/// a refusal included. It borrows the single region it compiles.
pub struct CompileMemo<'r> {
    region: &'r Region,
    entries: Vec<(CompileKey, Result<CompiledRegion, SimError>)>,
}

/// `(backend.uses_mdes(), stages, config.optimize)`.
type CompileKey = (bool, StageConfig, bool);

impl<'r> CompileMemo<'r> {
    /// An empty memo over `region`.
    #[must_use]
    pub fn new(region: &'r Region) -> Self {
        Self {
            region,
            entries: Vec::new(),
        }
    }

    /// The compiles made so far: one per distinct key requested.
    #[must_use]
    pub fn compiles(&self) -> usize {
        self.entries.len()
    }

    /// The region compiled as `backend` requires under `config` and
    /// `stages`, or the key's [`compile_for_backend`] error.
    ///
    /// # Errors
    ///
    /// The key's compile was refused.
    pub fn get(
        &mut self,
        backend: Backend,
        config: &SimConfig,
        stages: StageConfig,
    ) -> Result<&CompiledRegion, SimError> {
        let key = (backend.uses_mdes(), stages, config.optimize);
        let i = match self.entries.iter().position(|(k, _)| *k == key) {
            Some(i) => i,
            None => {
                let compiled = compile_for_backend(self.region, backend, config, stages);
                self.entries.push((key, compiled));
                self.entries.len() - 1
            }
        };
        self.entries[i].1.as_ref().map_err(Clone::clone)
    }
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
pub struct Run<'a, 'r> {
    region: &'a Region,
    binding: &'a Binding,
    backend: Backend,
    stages: StageConfig,
    arena: Option<&'a mut SimArena>,
    memo: Option<&'a mut CompileMemo<'r>>,
    sink: Option<&'a mut dyn TelemetrySink>,
}

impl<'a, 'r> Run<'a, 'r> {
    /// A run of `region` under `binding` on `backend`, with the full
    /// compiler pipeline, a fresh compile, a fresh arena and no
    /// telemetry.
    pub fn new(region: &'a Region, binding: &'a Binding, backend: Backend) -> Self {
        Self {
            region,
            binding,
            backend,
            stages: StageConfig::full(),
            arena: None,
            memo: None,
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

    /// Reads the compiled region from `memo` instead of compiling the
    /// region given to [`Run::new`]; `memo` must compile that region.
    pub fn memo(mut self, memo: &'a mut CompileMemo<'r>) -> Self {
        self.memo = Some(memo);
        self
    }

    /// Streams the simulation to `sink`. Observation only: cycles, stall
    /// counters and report bytes are bit-identical to the unobserved run.
    pub fn sink(mut self, sink: &'a mut dyn TelemetrySink) -> Self {
        self.sink = Some(sink);
        self
    }

    /// Compiles the region (or reads it from the memo) and simulates it.
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
        let fresh;
        let compiled = match self.memo {
            Some(memo) => memo.get(self.backend, config, self.stages)?,
            None => {
                fresh = compile_for_backend(self.region, self.backend, config, self.stages)?;
                &fresh
            }
        };
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
            analysis: compiled.analysis.clone(),
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
    use crate::testutil::store_load_region;

    fn optimized(optimize: bool) -> SimConfig {
        SimConfig::default().with_optimize(optimize)
    }

    #[test]
    fn the_memo_compiles_once_per_key() {
        let (region, binding) = store_load_region("memo");
        let mut memo = CompileMemo::new(&region);
        let (full, base) = (StageConfig::full(), StageConfig::baseline());
        // NACHOS-SW, NACHOS and IDEAL share the MDE compile of a stage set.
        for backend in [Backend::NachosSw, Backend::Nachos, Backend::Ideal] {
            memo.get(backend, &optimized(false), full).unwrap();
            memo.get(backend, &optimized(false), full).unwrap();
        }
        assert_eq!(memo.compiles(), 1);
        memo.get(Backend::NachosSw, &optimized(false), base)
            .unwrap();
        memo.get(Backend::OptLsq, &optimized(false), full).unwrap();
        assert_eq!(memo.compiles(), 3);
        // A run given the memo reads the entry instead of compiling.
        let config = optimized(false).with_invocations(2);
        for backend in [Backend::Nachos, Backend::OptLsq] {
            Run::new(&region, &binding, backend)
                .memo(&mut memo)
                .execute(&config, &EnergyModel::default())
                .unwrap();
        }
        assert_eq!(memo.compiles(), 3);
    }

    #[test]
    fn optimize_on_and_off_are_separate_entries() {
        let (region, _) = store_load_region("memo");
        let mut memo = CompileMemo::new(&region);
        for optimize in [false, true, false, true] {
            let entry = memo.get(Backend::Nachos, &optimized(optimize), StageConfig::full());
            let analysis = entry.unwrap().analysis.as_ref().unwrap();
            assert_eq!(analysis.opt.is_some(), optimize);
        }
        assert_eq!(memo.compiles(), 2);
    }

    #[test]
    fn each_entry_equals_a_fresh_compile() {
        let (region, _) = store_load_region("memo");
        let mut memo = CompileMemo::new(&region);
        for backend in [Backend::OptLsq, Backend::NachosSw, Backend::Nachos] {
            for stages in [StageConfig::full(), StageConfig::baseline()] {
                for config in [optimized(false), optimized(true)] {
                    let fresh = compile_for_backend(&region, backend, &config, stages).unwrap();
                    let entry = memo.get(backend, &config, stages).unwrap();
                    assert_eq!(format!("{entry:?}"), format!("{fresh:?}"));
                }
            }
        }
    }

    #[test]
    fn slowdown_sign_convention() {
        assert_eq!(pct_slowdown(110, 100), 10.0);
        assert_eq!(pct_slowdown(90, 100), -10.0);
        assert_eq!(pct_slowdown(100, 0), 0.0);
    }
}
