//! Machine-checkable certificates for MDE-optimizer rewrites.
//!
//! Every MAY edge the optimizer coalesces away carries a [`Certificate`]:
//! the kept edge that subsumes it and the witness path that justifies the
//! merge. Certificates are *self-contained enough to re-verify
//! independently* — the audit's `CertLint` pass re-derives each one from
//! the region and the final analysis without trusting any optimizer
//! state, mirroring how the rest of `nachos-lint` re-derives the
//! compiler's alias verdicts.

use nachos_ir::NodeId;

/// One coalescing rewrite with its justification: the MAY edge `removed`
/// was merged into the congruent MAY edge `kept`. The two edges share an
/// endpoint, the non-shared endpoints have syntactically identical memory
/// references (so the two pairs conflict for exactly the same iteration
/// vectors), and `witness` is a guaranteed path ordering the removed pair
/// through the kept one — `removed.src ⇝ kept.src` when the destination
/// is shared, or `kept.dst ⇝ removed.dst` when the source is shared.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Certificate {
    /// The deleted MAY edge `(older, younger)`.
    pub removed: (NodeId, NodeId),
    /// The surviving MAY edge that subsumes it.
    pub kept: (NodeId, NodeId),
    /// Node sequence over guaranteed edges in the final DFG.
    pub witness: Vec<NodeId>,
}

/// Aggregate rewrite counters, reported per run in sweeps and lint suites.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OptStats {
    /// ORDER/token edges in the plan before optimization.
    pub order_before: usize,
    /// MAY edges in the plan before optimization.
    pub may_before: usize,
    /// ORDER edges deleted by the optimizer: always 0 (it rewrites only
    /// MAY edges). Kept because the benchmark's `alias.order_removed`
    /// metric still reads it.
    pub order_removed: usize,
    /// MAY edges deleted by comparator-site coalescing.
    pub may_coalesced: usize,
}

/// The optimizer's product: every rewrite's certificate plus counters.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct OptOutcome {
    /// One certificate per coalesced MAY edge, in rewrite order.
    pub certs: Vec<Certificate>,
    /// Aggregate counters.
    pub stats: OptStats,
}

impl OptOutcome {
    /// `true` when some certificate coalesces exactly the MAY pair
    /// `(src, dst)` — the audit's race lint exempts such pairs from the
    /// ordering-chain requirement (the kept congruent edge orders them;
    /// `CertLint` verifies that claim independently).
    #[must_use]
    pub fn coalesced_pair(&self, src: NodeId, dst: NodeId) -> bool {
        self.certs.iter().any(|c| c.removed == (src, dst))
    }
}
