//! Simulator configuration: backend selection and structural parameters.

use crate::fault::FaultPlan;
use nachos_cgra::{GridConfig, LatencyModel};
use nachos_lsq::LsqConfig;
use nachos_mem::HierarchyConfig;
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Which memory-disambiguation scheme the accelerator uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Backend {
    /// The optimized LSQ baseline (§VIII-C): program-order allocation,
    /// banked CAM with bloom filtering, fixed load-to-use penalty.
    OptLsq,
    /// NACHOS-SW (§V): compiler MDEs only; MAY edges serialize like MUST.
    NachosSw,
    /// NACHOS (§VII): compiler MDEs plus per-site hardware comparators
    /// that disambiguate MAY edges at run time.
    Nachos,
    /// The perfect-disambiguation oracle (Fig. 9's upper bound): every
    /// false MAY edge costs nothing and every true conflict releases the
    /// moment the older op completes. Not a buildable scheme — an
    /// analysis backend, excluded from [`Backend::ALL`] and opt-in in the
    /// report emitters (`--ideal`).
    Ideal,
}

impl Backend {
    /// The three *paper* backends, in the paper's comparison order.
    /// [`Backend::Ideal`] is an opt-in oracle, not part of the matrix.
    pub const ALL: [Backend; 3] = [Backend::OptLsq, Backend::NachosSw, Backend::Nachos];

    /// `true` for the backends that rely on compiler-inserted MDEs (the
    /// IDEAL oracle resolves the same MDE set, just perfectly).
    #[must_use]
    pub fn uses_mdes(self) -> bool {
        !matches!(self, Backend::OptLsq)
    }
}

impl fmt::Display for Backend {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Backend::OptLsq => "OPT-LSQ",
            Backend::NachosSw => "NACHOS-SW",
            Backend::Nachos => "NACHOS",
            Backend::Ideal => "IDEAL",
        };
        f.write_str(s)
    }
}

/// A shared cooperative-cancellation flag for in-flight simulations.
///
/// The supervisor (or any external controller) holds one clone and the
/// engine polls another: [`CancelToken::cancel`] makes every run carrying
/// the token return [`crate::SimError::Cancelled`] at its next event —
/// cycle granularity, checked alongside the watchdog — so wall-clock
/// deadlines can be enforced without killing worker threads. Cancellation
/// is sticky: a cancelled token never un-cancels.
#[derive(Clone, Debug, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    /// A fresh, un-cancelled token.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Requests cancellation of every run holding a clone of this token.
    pub fn cancel(&self) {
        self.0.store(true, Ordering::Relaxed);
    }

    /// `true` once [`CancelToken::cancel`] has been called.
    #[must_use]
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::Relaxed)
    }
}

/// Tokens compare by identity (the shared flag), not by state: a clone
/// equals its source, two independently created tokens do not.
impl PartialEq for CancelToken {
    fn eq(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.0, &other.0)
    }
}

/// Full structural configuration of one simulation.
#[derive(Clone, Debug, PartialEq)]
pub struct SimConfig {
    /// CGRA grid geometry.
    pub grid: GridConfig,
    /// FU and network latencies.
    pub latency: LatencyModel,
    /// Cache hierarchy parameters.
    pub hierarchy: HierarchyConfig,
    /// OPT-LSQ parameters (used by [`Backend::OptLsq`] only).
    pub lsq: LsqConfig,
    /// Cache requests accepted per cycle at the grid edge.
    pub mem_ports: u32,
    /// `==?` comparators per younger-operation site (paper: 1; the
    /// arbiter serializes checks when several parents are ready at once).
    pub comparators_per_site: u32,
    /// Region invocations to simulate.
    pub invocations: u64,
    /// Run the certificate-carrying MDE optimizer (`nachos-opt`) after
    /// compilation: comparator-site coalescing of congruent MAY edges,
    /// each rewrite re-verified by the audit's `CertLint` before the
    /// region is trusted. Off by default — the paper's pipeline stops at
    /// stage 4.
    pub optimize: bool,
    /// Engine watchdog parameters (cycle budget, liveness checks).
    pub watchdog: WatchdogConfig,
    /// Deterministic fault-injection plan (empty by default).
    pub fault: FaultPlan,
    /// Cooperative cancellation hook (`None` by default — zero cost).
    /// When set, the engine polls the token once per handled event and
    /// aborts the run with [`crate::SimError::Cancelled`] as soon as it
    /// trips. Runtime control, not configuration: excluded from journal
    /// run keys.
    pub cancel: Option<CancelToken>,
}

impl Default for SimConfig {
    fn default() -> Self {
        Self {
            grid: GridConfig::paper(),
            latency: LatencyModel::default(),
            hierarchy: HierarchyConfig::default(),
            lsq: LsqConfig::default(),
            mem_ports: 4,
            comparators_per_site: 1,
            invocations: 64,
            optimize: false,
            watchdog: WatchdogConfig::default(),
            fault: FaultPlan::default(),
            cancel: None,
        }
    }
}

impl SimConfig {
    /// Sets the number of invocations, builder-style.
    #[must_use]
    pub fn with_invocations(mut self, invocations: u64) -> Self {
        self.invocations = invocations;
        self
    }

    /// Enables or disables the post-compile MDE optimizer, builder-style.
    #[must_use]
    pub fn with_optimize(mut self, optimize: bool) -> Self {
        self.optimize = optimize;
        self
    }

    /// Sets the fault-injection plan, builder-style.
    #[must_use]
    pub fn with_fault(mut self, fault: FaultPlan) -> Self {
        self.fault = fault;
        self
    }

    /// Attaches a cooperative cancellation token, builder-style.
    #[must_use]
    pub fn with_cancel(mut self, cancel: CancelToken) -> Self {
        self.cancel = Some(cancel);
        self
    }
}

/// Engine watchdog parameters. The per-invocation cycle budget scales
/// with region size: `base_cycles + cycles_per_node * num_nodes`. The
/// defaults are generous — hundreds of times any legitimate
/// per-invocation latency observed in the sweep — so the watchdog only
/// fires on genuine zero-progress hangs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WatchdogConfig {
    /// Flat per-invocation budget component, in cycles.
    pub base_cycles: u64,
    /// Per-node budget component, in cycles.
    pub cycles_per_node: u64,
}

impl Default for WatchdogConfig {
    fn default() -> Self {
        Self {
            base_cycles: 10_000,
            cycles_per_node: 1_000,
        }
    }
}

impl WatchdogConfig {
    /// The per-invocation cycle budget for a region of `nodes` nodes.
    #[must_use]
    pub fn budget(&self, nodes: usize) -> u64 {
        self.base_cycles
            .saturating_add(self.cycles_per_node.saturating_mul(nodes as u64))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backend_display_and_mde_use() {
        assert_eq!(Backend::OptLsq.to_string(), "OPT-LSQ");
        assert_eq!(Backend::Nachos.to_string(), "NACHOS");
        assert_eq!(Backend::Ideal.to_string(), "IDEAL");
        assert!(!Backend::OptLsq.uses_mdes());
        assert!(Backend::NachosSw.uses_mdes());
        assert!(Backend::Nachos.uses_mdes());
        assert!(Backend::Ideal.uses_mdes());
        assert_eq!(Backend::ALL.len(), 3);
        assert!(!Backend::ALL.contains(&Backend::Ideal));
    }

    #[test]
    fn default_config_matches_paper() {
        let c = SimConfig::default();
        assert_eq!(c.grid.capacity(), 1024);
        assert_eq!(c.hierarchy.mem_latency, 200);
        assert_eq!(c.lsq.entries_per_bank, 48);
        assert_eq!(c.comparators_per_site, 1);
        assert!(c.fault.is_empty());
        assert_eq!(c.with_invocations(10).invocations, 10);
    }

    #[test]
    fn cancel_token_is_sticky_and_shared() {
        let t = CancelToken::new();
        let clone = t.clone();
        assert!(!t.is_cancelled());
        clone.cancel();
        assert!(t.is_cancelled(), "cancellation is visible through clones");
        assert_eq!(t, clone, "clones compare equal (same flag)");
        assert_ne!(t, CancelToken::new(), "independent tokens are distinct");
        // Default config carries no token — the hot path stays free.
        assert!(SimConfig::default().cancel.is_none());
        let cfg = SimConfig::default().with_cancel(t.clone());
        assert!(cfg.cancel.as_ref().is_some_and(CancelToken::is_cancelled));
    }

    #[test]
    fn watchdog_budget_scales_with_region_size() {
        let w = WatchdogConfig::default();
        assert_eq!(w.budget(0), 10_000);
        assert_eq!(w.budget(12), 10_000 + 12_000);
        // Saturates instead of overflowing on absurd inputs.
        let huge = WatchdogConfig {
            base_cycles: u64::MAX,
            cycles_per_node: u64::MAX,
        };
        assert_eq!(huge.budget(usize::MAX), u64::MAX);
    }
}
