//! The per-run [`Plan`]: everything the scheduler core derives from the
//! region, the placement and the latency model, derived once per run.
//!
//! Invocations are block-atomic executions of one DFG, so the operand
//! routes, the scratchpad-locality of each edge, each node's operand
//! sources, the store list and — for policies whose edge verdicts read
//! only the edge — the gate counts are the same in every invocation. The
//! plan lays them out as flat arrays: the core reads an out-edge's
//! destination, kind, route latency and locality in one step instead of
//! resolving an `EdgeId`, recomputing hops and probing both endpoints'
//! memory references on every event. The plan's vectors are pooled in
//! [`CoreBufs`](super::arena::CoreBufs) and rebuilt (capacity kept) at
//! the start of every run, so nothing of one run's region can reach the
//! next.

use nachos_cgra::{LatencyModel, Placement};
use nachos_ir::{Edge, EdgeKind, MemSpace, NodeId, Region};

use super::policy::EdgeGate;

/// One out-edge as the core's fan-out reads it.
#[derive(Clone, Copy, Debug)]
pub(crate) struct OutEdge {
    pub(crate) dst: NodeId,
    pub(crate) kind: EdgeKind,
    /// Both endpoints are scratchpad accesses: the dependence is register
    /// dataflow the compiler wired, gated identically under every backend.
    pub(crate) local: bool,
    /// Operand-network latency from the source's FU to the destination's.
    pub(crate) route: u64,
}

/// Per-node gate counts, one column per [`EdgeGate`] that gates: the
/// plan's template, and the node table's live counters.
#[derive(Default)]
pub(crate) struct Gates {
    pub(crate) data: Vec<u32>,
    pub(crate) token: Vec<u32>,
    pub(crate) may: Vec<u32>,
}

impl Gates {
    /// Counts one more `gate` on node `i`.
    pub(crate) fn add(&mut self, i: usize, gate: EdgeGate) {
        match gate {
            EdgeGate::Data => self.data[i] += 1,
            EdgeGate::Token => self.token[i] += 1,
            EdgeGate::May => self.may[i] += 1,
            EdgeGate::Ignore => {}
        }
    }
}

/// The run's invariants, indexed by `NodeId`.
#[derive(Default)]
pub(crate) struct Plan {
    /// Node `i`'s out-edges are `out[out_start[i]..out_start[i + 1]]`, in
    /// the graph's out-edge order.
    out_start: Vec<u32>,
    out: Vec<OutEdge>,
    /// Node `i`'s DATA-operand sources are
    /// `operands[operand_start[i]..operand_start[i + 1]]`, in in-edge
    /// order (the order `apply` reads operands).
    operand_start: Vec<u32>,
    operands: Vec<NodeId>,
    /// Source of each node's first FORWARD in-edge, if any.
    pub(crate) forward_src: Vec<Option<NodeId>>,
    /// Whether each node is a scratchpad access.
    pub(crate) scratch: Vec<bool>,
    /// Store nodes in program order.
    pub(crate) stores: Vec<NodeId>,
    /// Gate counts every invocation starts from: DATA edges and
    /// scratchpad-local MDEs, plus — for a
    /// [`Gating::PerRun`](super::policy::Gating::PerRun) policy — the
    /// policy's verdict on every non-local MDE.
    pub(crate) gates: Gates,
    /// The non-local MDEs (FORWARD, ORDER, MAY) the policy classifies,
    /// destination-major in in-edge order: the order the policy sees them.
    pub(crate) policy_edges: Vec<Edge>,
}

impl Plan {
    /// Rebuilds the plan for `region` placed by `placement`, reusing the
    /// pooled capacity. The gate template holds only the
    /// policy-independent gates until the core adds the policy's.
    pub(crate) fn build(&mut self, region: &Region, placement: &Placement, latency: &LatencyModel) {
        let dfg = &region.dfg;
        let n = dfg.num_nodes();
        self.scratch.clear();
        self.scratch.extend(dfg.node_ids().map(|id| {
            dfg.node(id)
                .kind
                .mem_ref()
                .is_some_and(|m| m.space == MemSpace::Scratchpad)
        }));
        let local = |e: &Edge| self.scratch[e.src.index()] && self.scratch[e.dst.index()];

        self.out_start.clear();
        self.out.clear();
        self.operand_start.clear();
        self.operands.clear();
        self.forward_src.clear();
        self.policy_edges.clear();
        for g in [
            &mut self.gates.data,
            &mut self.gates.token,
            &mut self.gates.may,
        ] {
            g.clear();
            g.resize(n, 0);
        }
        for id in dfg.node_ids() {
            self.out_start.push(csr_offset(self.out.len()));
            for e in dfg.out_edges(id) {
                self.out.push(OutEdge {
                    dst: e.dst,
                    kind: e.kind,
                    local: local(e),
                    route: latency.route_latency(placement.hops(e.src, e.dst)),
                });
            }
            self.operand_start.push(csr_offset(self.operands.len()));
            let mut forward = None;
            for e in dfg.in_edges(id) {
                let gate = match e.kind {
                    EdgeKind::Data => {
                        self.operands.push(e.src);
                        EdgeGate::Data
                    }
                    EdgeKind::Forward if local(e) => EdgeGate::Data,
                    EdgeKind::Order | EdgeKind::May if local(e) => EdgeGate::Token,
                    _ => {
                        self.policy_edges.push(*e);
                        EdgeGate::Ignore
                    }
                };
                if e.kind == EdgeKind::Forward && forward.is_none() {
                    forward = Some(e.src);
                }
                self.gates.add(id.index(), gate);
            }
            self.forward_src.push(forward);
        }
        self.out_start.push(csr_offset(self.out.len()));
        self.operand_start.push(csr_offset(self.operands.len()));

        self.stores.clear();
        self.stores.extend(
            dfg.mem_ops()
                .iter()
                .copied()
                .filter(|&id| dfg.node(id).kind.is_store()),
        );
    }

    /// The indices of node `i`'s out-edges, read with [`Plan::out_edge`].
    #[inline]
    pub(crate) fn out_range(&self, i: usize) -> std::ops::Range<usize> {
        self.out_start[i] as usize..self.out_start[i + 1] as usize
    }

    #[inline]
    pub(crate) fn out_edge(&self, k: usize) -> OutEdge {
        self.out[k]
    }

    /// Node `i`'s DATA-operand sources in operand order.
    #[inline]
    pub(crate) fn operands(&self, i: usize) -> &[NodeId] {
        &self.operands[self.operand_start[i] as usize..self.operand_start[i + 1] as usize]
    }
}

fn csr_offset(len: usize) -> u32 {
    u32::try_from(len).expect("edge count fits u32")
}
