//! Structured simulation errors and the deadlock diagnostic dump.
//!
//! The token/MDE protocol's safety argument (paper §IV–V) rests on the
//! engine never admitting an unsafe reordering *and never deadlocking*.
//! The failure half of that argument lives here: instead of panicking or
//! spinning, the engine returns a [`SimError`] whose [`DeadlockInfo`]
//! carries enough state — stalled nodes, the wait-for edges over their
//! outstanding token counts, the per-cause stall counters — to diagnose a
//! dropped token or a protocol bug from the report alone.

use crate::config::Backend;
use crate::engine::StallCounts;
use nachos_cgra::PlaceError;
use nachos_ir::ValidateError;
use std::fmt;

/// Simulation failure.
#[derive(Clone, Debug)]
pub enum SimError {
    /// The region failed the legacy symbol validation.
    InvalidRegion(String),
    /// The region failed structural validation (see
    /// [`nachos_ir::validate_region`]); every diagnostic is carried.
    Validation(Vec<ValidateError>),
    /// The DFG does not fit on the grid.
    Placement(PlaceError),
    /// The binding lacks entries the region references.
    IncompleteBinding(String),
    /// A structural parameter is unusable (e.g. a zero-width calendar).
    BadConfig(String),
    /// The watchdog stopped a run that made no forward progress; the
    /// boxed dump names the stalled nodes and what they wait for.
    Deadlock(Box<DeadlockInfo>),
    /// The post-compile audit found Error-severity diagnostics: the
    /// compiled region carries an unsound alias verdict, a missing
    /// ordering chain, or drifted bookkeeping (see
    /// [`nachos_alias::audit()`]). Running it would risk silently wrong
    /// results, so the driver refuses.
    Audit(Vec<nachos_alias::audit::Diagnostic>),
    /// The run was cooperatively cancelled through its
    /// [`crate::CancelToken`] (checked once per handled event, alongside
    /// the watchdog). Lets an external controller stop in-flight sweep
    /// work promptly without killing worker threads; cancelled runs are
    /// never journaled, so a resumed sweep re-executes them.
    Cancelled {
        /// Backend that was running when the token tripped.
        backend: Backend,
        /// Invocation index (0-based) at which the run stopped.
        invocation: u64,
        /// Simulated cycle at which the cancellation was observed.
        cycle: u64,
    },
    /// The token protocol was violated at run time (e.g. a completion
    /// token arrived at a node with no outstanding token count). Only
    /// reachable under fault injection or a genuine engine bug.
    ProtocolViolation {
        /// Backend that observed the violation.
        backend: Backend,
        /// Node index at which the violation was observed.
        node: usize,
        /// What went wrong.
        message: String,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::InvalidRegion(m) => write!(f, "invalid region: {m}"),
            SimError::Validation(diags) => {
                write!(f, "region failed validation ({} finding", diags.len())?;
                if diags.len() != 1 {
                    write!(f, "s")?;
                }
                write!(f, ")")?;
                for d in diags {
                    write!(f, "; {d}")?;
                }
                Ok(())
            }
            SimError::Placement(e) => write!(f, "placement failed: {e}"),
            SimError::IncompleteBinding(m) => write!(f, "incomplete binding: {m}"),
            SimError::BadConfig(m) => write!(f, "bad configuration: {m}"),
            SimError::Deadlock(info) => write!(f, "{info}"),
            SimError::Cancelled {
                backend,
                invocation,
                cycle,
            } => {
                write!(
                    f,
                    "cancelled under {backend} at invocation {invocation} cycle {cycle}"
                )
            }
            SimError::Audit(diags) => {
                write!(f, "compile audit failed ({} error", diags.len())?;
                if diags.len() != 1 {
                    write!(f, "s")?;
                }
                write!(f, ")")?;
                for d in diags {
                    write!(f, "; {d}")?;
                }
                Ok(())
            }
            SimError::ProtocolViolation {
                backend,
                node,
                message,
            } => {
                write!(
                    f,
                    "protocol violation at node {node} under {backend}: {message}"
                )
            }
        }
    }
}

impl std::error::Error for SimError {}

impl From<PlaceError> for SimError {
    fn from(e: PlaceError) -> Self {
        SimError::Placement(e)
    }
}

/// Why the watchdog declared a deadlock.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DeadlockCause {
    /// The event heap drained with nodes still incomplete: some
    /// dependency token was never produced (e.g. a dropped token).
    Starved,
    /// Events were still pending past the cycle budget: the run was live
    /// but made no architectural progress within the allotted window.
    BudgetExhausted,
}

impl fmt::Display for DeadlockCause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeadlockCause::Starved => f.write_str("starved (event heap drained early)"),
            DeadlockCause::BudgetExhausted => f.write_str("cycle budget exhausted"),
        }
    }
}

/// One incomplete node in a deadlock dump, with its outstanding gate
/// counts — which of the data/token/MAY gates never opened.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StalledNode {
    /// Node index in the region's DFG.
    pub node: usize,
    /// Data/forward operands still outstanding.
    pub data_pending: u32,
    /// Ordering tokens still outstanding.
    pub token_pending: u32,
    /// MAY-gate releases still outstanding.
    pub may_pending: u32,
    /// Whether the node had fired (all data operands arrived).
    pub fired: bool,
    /// Whether the node had issued its memory stage.
    pub issued: bool,
}

/// One wait-for edge between two incomplete nodes: `to` cannot proceed
/// until `from` completes, but `from` is itself incomplete.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WaitForEdge {
    /// The incomplete producer.
    pub from: usize,
    /// The blocked consumer.
    pub to: usize,
    /// The edge kind holding the consumer (`data`/`order`/`forward`/`may`).
    pub kind: String,
}

/// Diagnostic dump attached to [`SimError::Deadlock`].
#[derive(Clone, Debug)]
pub struct DeadlockInfo {
    /// Backend that deadlocked.
    pub backend: Backend,
    /// Invocation index (0-based) in which progress stopped.
    pub invocation: u64,
    /// Simulated cycle at which the watchdog fired.
    pub cycle: u64,
    /// The cycle budget derived from the region size.
    pub budget: u64,
    /// Why the watchdog fired.
    pub cause: DeadlockCause,
    /// Every node that never completed, with its outstanding gates.
    pub stalled: Vec<StalledNode>,
    /// Wait-for edges among the stalled nodes.
    pub wait_for: Vec<WaitForEdge>,
    /// Cycle-weighted stall attribution up to the point of death.
    pub stalls: StallCounts,
    /// Faults the injector had fired before the deadlock (deterministic
    /// descriptions; empty outside fault-injection runs).
    pub injected: Vec<String>,
}

impl fmt::Display for DeadlockInfo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "deadlock under {} at invocation {} cycle {} (budget {}): {}; {} stalled node",
            self.backend,
            self.invocation,
            self.cycle,
            self.budget,
            self.cause,
            self.stalled.len()
        )?;
        if self.stalled.len() != 1 {
            write!(f, "s")?;
        }
        for s in self.stalled.iter().take(8) {
            write!(
                f,
                "; n{} (data={}, token={}, may={}{}{})",
                s.node,
                s.data_pending,
                s.token_pending,
                s.may_pending,
                if s.fired { ", fired" } else { "" },
                if s.issued { ", issued" } else { "" },
            )?;
        }
        if self.stalled.len() > 8 {
            write!(f, "; ... {} more", self.stalled.len() - 8)?;
        }
        if !self.injected.is_empty() {
            write!(f, "; injected faults: {}", self.injected.join(", "))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dummy_info() -> DeadlockInfo {
        DeadlockInfo {
            backend: Backend::NachosSw,
            invocation: 3,
            cycle: 120,
            budget: 11_000,
            cause: DeadlockCause::Starved,
            stalled: vec![StalledNode {
                node: 5,
                data_pending: 0,
                token_pending: 1,
                may_pending: 0,
                fired: true,
                issued: false,
            }],
            wait_for: vec![WaitForEdge {
                from: 2,
                to: 5,
                kind: "order".into(),
            }],
            stalls: StallCounts::default(),
            injected: vec!["drop-token #0".into()],
        }
    }

    #[test]
    fn deadlock_display_names_the_evidence() {
        let e = SimError::Deadlock(Box::new(dummy_info()));
        let s = e.to_string();
        assert!(s.contains("deadlock under NACHOS-SW"));
        assert!(s.contains("invocation 3"));
        assert!(s.contains("n5"));
        assert!(s.contains("token=1"));
        assert!(s.contains("drop-token #0"));
    }

    #[test]
    fn validation_display_joins_diagnostics() {
        let region = {
            let mut r = nachos_ir::Region::new("bad");
            let m =
                nachos_ir::MemRef::affine(nachos_ir::BaseId::new(9), nachos_ir::AffineExpr::zero());
            r.dfg.add_node(nachos_ir::OpKind::Load(m)).unwrap();
            r
        };
        let diags = nachos_ir::validate_region(&region).unwrap_err();
        let e = SimError::Validation(diags);
        assert!(e.to_string().contains("failed validation"));
        assert!(e.to_string().contains("symbol error"));
    }

    #[test]
    fn cancelled_display_names_the_cut_point() {
        let e = SimError::Cancelled {
            backend: Backend::OptLsq,
            invocation: 9,
            cycle: 512,
        };
        let s = e.to_string();
        assert!(s.contains("cancelled under OPT-LSQ"));
        assert!(s.contains("invocation 9"));
        assert!(s.contains("cycle 512"));
    }

    #[test]
    fn protocol_violation_display() {
        let e = SimError::ProtocolViolation {
            backend: Backend::Nachos,
            node: 7,
            message: "an extra completion token arrived".into(),
        };
        assert!(e.to_string().contains("node 7"));
        assert!(e.to_string().contains("NACHOS"));
    }
}
