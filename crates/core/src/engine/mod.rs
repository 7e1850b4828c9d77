//! The cycle-level accelerator simulator, layered as a backend-agnostic
//! scheduler core plus pluggable disambiguation policies.
//!
//! Executes a (compiled) region on the CGRA model for a configured number
//! of invocations under one of four disambiguation backends
//! ([`Backend`]): OPT-LSQ, NACHOS-SW, NACHOS or the IDEAL oracle.
//! Invocations are block-atomic (the paper's accelerated paths restrict
//! the execution window); the cache hierarchy stays warm across
//! invocations.
//!
//! The module tree mirrors the layering:
//!
//! * [`core`] — the scheduler core: event calendar, operand readiness,
//!   functional execution, memory-port arbitration and the watchdog. It
//!   knows nothing about disambiguation and never branches on the
//!   backend. Its shared vocabulary lives beside it: [`plan`] (the
//!   per-run plan: CSR routes, operand lists, the store list and the gate
//!   template, derived once instead of in every invocation), [`queue`]
//!   (the slab-backed calendar event queue), [`calendar`] (the per-cycle
//!   bandwidth calendar) and [`state`] (events, per-node scheduler state,
//!   stall causes).
//! * [`policy`] — the [`policy::DisambiguationPolicy`] trait: hooks for
//!   op-issue gating, memory-request admission, completion/release and
//!   stall attribution, and [`policy::Gating`], which says whether a
//!   policy's gates can be decided once per run. One implementation per
//!   backend lives under `policy/`.
//! * [`arena`] — [`SimArena`], the reusable per-worker allocation arena:
//!   repeated runs reset the engine's heap, node table, calendars and
//!   policy state instead of reallocating them.
//!
//! The engine is event-driven with resource calendars for the structural
//! hazards that matter: cache ports at the grid edge, LSQ
//! allocation/retirement bandwidth and bank capacity, and the one-per-cycle
//! `==?` comparator arbitration at each MAY site (paper §VII).
//!
//! Alongside timing, the engine performs *functional* execution against a
//! [`DataMemory`] with the shared value semantics of [`crate::value`], so
//! every run can be checked against the in-order reference executor.

use crate::config::{Backend, SimConfig};
use crate::energy::{EnergyBreakdown, EnergyModel, EventCounts};
use crate::error::SimError;
use crate::value::LoadObserver;
use nachos_cgra::Placement;
use nachos_ir::{Binding, Region};
use nachos_lsq::BloomStats;
use nachos_mem::{CacheStats, DataMemory};

pub(crate) mod arena;
pub(crate) mod calendar;
pub(crate) mod core;
pub(crate) mod plan;
pub(crate) mod policy;
pub(crate) mod queue;
pub(crate) mod state;
pub mod telemetry;

#[cfg(test)]
mod tests;

pub use arena::SimArena;
pub use state::StallCause;
pub use telemetry::{
    BackpressureEvent, CycleRecord, NoopSink, RunSummary, StatsWriter, TelemetrySink,
};

use self::arena::PolicyMut;
use self::core::SchedCore;
use self::policy::DisambiguationPolicy;

/// Cycle-weighted stall attribution: how long memory operations sat ready
/// but unable to proceed, bucketed by the resource or ordering mechanism
/// that held them. The differential-sweep harness aggregates these per
/// region so perf work can see *where* each backend loses cycles.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StallCounts {
    /// Cycles memory ops waited for their in-order LSQ allocation slot
    /// (OPT-LSQ only: address ready before the port-limited allocator
    /// reached the op's age).
    pub lsq_alloc: u64,
    /// Cycles memory ops spent blocked on an LSQ disambiguation search
    /// (ambiguous older address, or overlapping older op incomplete).
    pub lsq_search: u64,
    /// Cycles fired memory ops waited on MUST/order completion tokens
    /// (includes MAY edges serialized by NACHOS-SW).
    pub token: u64,
    /// Cycles fired memory ops waited on unresolved MAY gates
    /// (NACHOS hardware-check releases; true conflicts under IDEAL).
    pub may_gate: u64,
    /// Cycles `==?` checks waited on the per-site comparator arbiter.
    pub comparator: u64,
    /// Cycles accesses waited for a free cache port at the grid edge.
    pub mem_port: u64,
}

impl StallCounts {
    /// Total attributed stall cycles across all buckets.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.lsq_alloc
            + self.lsq_search
            + self.token
            + self.may_gate
            + self.comparator
            + self.mem_port
    }
}

/// The outcome of a simulation.
#[derive(Clone, Debug)]
pub struct SimResult {
    /// Backend simulated.
    pub backend: Backend,
    /// Total cycles across all invocations.
    pub cycles: u64,
    /// Invocations executed.
    pub invocations: u64,
    /// Raw event counts.
    pub events: EventCounts,
    /// Cycle-weighted stall attribution.
    pub stalls: StallCounts,
    /// Energy by component.
    pub energy: EnergyBreakdown,
    /// Final functional memory state.
    pub mem: DataMemory,
    /// Digest of every load's observed value.
    pub loads: LoadObserver,
    /// L1 statistics.
    pub l1: CacheStats,
    /// LLC statistics.
    pub llc: CacheStats,
    /// LSQ bloom statistics (OPT-LSQ backend only; zero otherwise).
    pub bloom: BloomStats,
    /// Distinct younger operations hosting a `==?` comparator site (MAY
    /// fan-in destinations, scratchpad-local edges excluded). The figure
    /// `nachos-opt` coalescing shrinks; zero for MDE-free backends.
    pub comparator_sites: u64,
    /// Total events pushed through the calendar queue over the run.
    pub queue_events: u64,
    /// High-water mark of the queue's live depth over the run.
    pub heap_max_depth: u64,
    /// Deterministic descriptions of every injected fault that fired
    /// during the run (empty outside fault-injection runs).
    pub injected: Vec<String>,
}

impl SimResult {
    /// Cycles per invocation.
    #[must_use]
    pub fn cycles_per_invocation(&self) -> f64 {
        if self.invocations == 0 {
            0.0
        } else {
            self.cycles as f64 / self.invocations as f64
        }
    }
}

/// Simulates an already-compiled `region` under `backend`, reusing the
/// heaps, calendars, node tables and policy state pooled in `arena`
/// instead of reallocating them — the sweep harness holds one arena per
/// worker thread across the whole matrix. Results are identical for any
/// arena history, including a fresh [`SimArena::new`].
///
/// For [`Backend::OptLsq`] the region's MDEs are ignored (the LSQ is the
/// ordering mechanism); for the NACHOS backends (and the IDEAL oracle)
/// the region must already carry its MDEs (see
/// [`compile_for_backend`](crate::compile_for_backend)). To compile and
/// simulate in one step, or to attach a [`TelemetrySink`], use
/// [`Run`](crate::Run).
///
/// # Errors
///
/// Returns [`SimError`] when the region is invalid, does not fit the grid,
/// the binding is incomplete, the configuration is structurally unusable,
/// or the run deadlocks / violates the token protocol (reachable only
/// under fault injection or on graphs that bypassed validation).
pub fn simulate_in(
    arena: &mut SimArena,
    region: &Region,
    binding: &Binding,
    backend: Backend,
    config: &SimConfig,
    energy: &EnergyModel,
) -> Result<SimResult, SimError> {
    simulate_observed(arena, region, binding, backend, config, energy, None)
}

/// [`simulate_in`] with an optional [`TelemetrySink`] observing cycle
/// boundaries, backpressure windows and the run summary. Telemetry is
/// observation only: the [`SimResult`] is bit-identical with or without
/// a sink (`tests/prop_telemetry.rs` pins this).
#[allow(clippy::too_many_arguments)]
pub(crate) fn simulate_observed<'a>(
    arena: &mut SimArena,
    region: &'a Region,
    binding: &'a Binding,
    backend: Backend,
    config: &'a SimConfig,
    energy: &EnergyModel,
    sink: Option<&'a mut dyn TelemetrySink>,
) -> Result<SimResult, SimError> {
    nachos_ir::validate_region(region).map_err(SimError::Validation)?;
    if config.mem_ports == 0 {
        return Err(SimError::BadConfig("mem_ports must be positive".into()));
    }
    if config.comparators_per_site == 0 {
        return Err(SimError::BadConfig(
            "comparators_per_site must be positive".into(),
        ));
    }
    if config.lsq.alloc_per_cycle == 0 {
        return Err(SimError::BadConfig(
            "lsq.alloc_per_cycle must be positive".into(),
        ));
    }
    if binding.base_addrs.len() < region.bases.len() {
        return Err(SimError::IncompleteBinding(format!(
            "{} base addresses for {} bases",
            binding.base_addrs.len(),
            region.bases.len()
        )));
    }
    if binding.params.len() < region.params.len() {
        return Err(SimError::IncompleteBinding(
            "missing parameter values".into(),
        ));
    }
    if binding.unknowns.len() < region.num_unknowns {
        return Err(SimError::IncompleteBinding(
            "missing unknown-pointer patterns".into(),
        ));
    }
    let placement = Placement::compute(&region.dfg, config.grid)?;
    let (bufs, policy) = arena.split(backend, config);
    let mut core = SchedCore::new(region, binding, backend, config, placement, bufs, sink);
    // Drive a monomorphized event loop per backend: the policy hooks sit
    // on the engine's hottest path, and concrete dispatch lets them
    // inline where a `dyn` call could not.
    let result = match policy {
        PolicyMut::OptLsq(p) => drive(&mut core, p, config, energy),
        PolicyMut::NachosSw(p) => drive(&mut core, p, config, energy),
        PolicyMut::Nachos(p) => drive(&mut core, p, config, energy),
        PolicyMut::Ideal(p) => drive(&mut core, p, config, energy),
    };
    core.reclaim(bufs);
    result
}

/// Completes the run's plan for one concrete policy type, runs every
/// invocation and finalizes the result.
fn drive<P: DisambiguationPolicy>(
    core: &mut SchedCore,
    policy: &mut P,
    config: &SimConfig,
    energy: &EnergyModel,
) -> Result<SimResult, SimError> {
    debug_assert_eq!(policy.backend(), core.backend, "arena pooled wrong policy");
    core.plan_gates(policy);
    policy.prepare_run(core);
    for inv in 0..config.invocations {
        core.run_invocation(policy, inv)?;
    }
    Ok(core.finish(policy, energy))
}
