//! The IDEAL oracle policy: perfect, zero-cost memory disambiguation —
//! the upper bound of Fig. 9. The oracle evaluates both endpoints of
//! every MAY edge against the invocation's binding at gating time:
//! non-conflicting MAY edges vanish entirely (no gate, no check, no
//! energy), and true conflicts hold the younger op exactly until the
//! older op completes (plus routing) — the minimum any sound mechanism
//! could achieve. ORDER and FORWARD edges are real dependencies and are
//! honoured as under NACHOS. Because the MAY verdict reads the
//! invocation's addresses, this is the one policy whose gates cannot come
//! from the run's gate template ([`Gating::PerInvocation`]).

use crate::config::Backend;
use nachos_ir::{Edge, EdgeKind, NodeId};

use super::super::core::SchedCore;
use super::super::state::Ev;
use super::{dataflow_admit, DisambiguationPolicy, EdgeGate, Gating};

#[derive(Default)]
pub(crate) struct IdealPolicy {
    /// Younger ops gated by a true conflict, indexed by the older node.
    waiters: Vec<Vec<(NodeId, u32)>>,
}

impl IdealPolicy {
    /// Oracle verdict for one MAY edge: do the two accesses *actually*
    /// overlap this invocation? Uses the same byte-overlap test as the
    /// NACHOS comparator, but with perfect knowledge and zero cost.
    fn conflicts(core: &SchedCore, a: NodeId, b: NodeId) -> bool {
        let (a0, asz) = core.eval_mem_ref(a);
        let (b0, bsz) = core.eval_mem_ref(b);
        a0 < b0 + u64::from(bsz) && b0 < a0 + u64::from(asz)
    }
}

impl DisambiguationPolicy for IdealPolicy {
    fn backend(&self) -> Backend {
        Backend::Ideal
    }

    const GATING: Gating = Gating::PerInvocation;

    fn prepare_run(&mut self, _core: &SchedCore) {
        self.waiters.clear();
    }

    fn begin_invocation(&mut self, core: &mut SchedCore, _t0: u64) {
        let n = core.region.dfg.num_nodes();
        if self.waiters.len() < n {
            self.waiters.resize(n, Vec::new());
        }
        for w in &mut self.waiters {
            w.clear();
        }
    }

    fn edge_gate(&mut self, core: &SchedCore, e: &Edge) -> EdgeGate {
        match e.kind {
            EdgeKind::Forward => EdgeGate::Data,
            EdgeKind::Order => EdgeGate::Token,
            EdgeKind::May => {
                if Self::conflicts(core, e.src, e.dst) {
                    // A true dependence: the younger op must wait for the
                    // older op's completion (plus routing), and no less.
                    let hops = core.placement.hops(e.src, e.dst);
                    self.waiters[e.src.index()].push((e.dst, hops));
                    EdgeGate::May
                } else {
                    // Perfect disambiguation: the false MAY costs nothing.
                    EdgeGate::Ignore
                }
            }
            EdgeKind::Data => EdgeGate::Data,
        }
    }

    fn on_forward_edge(&mut self, core: &mut SchedCore, at: u64, dst: NodeId) {
        core.counts.must_tokens += 1;
        core.push(at, Ev::Data(dst));
    }

    fn admit_mem(&mut self, core: &mut SchedCore, t: u64, n: NodeId, fired: bool) {
        dataflow_admit(core, t, n, fired);
    }

    /// ORDER completes as a token; true-conflict MAY releases happen in
    /// `on_complete`.
    fn on_completion_edge(&mut self, core: &mut SchedCore, at: u64, dst: NodeId, kind: EdgeKind) {
        if kind == EdgeKind::Order {
            core.counts.must_tokens += 1;
            core.push_token(at, dst);
        }
    }

    /// Release every younger op whose true conflict this completion
    /// resolves — at completion + route, the earliest sound release.
    fn on_complete(&mut self, core: &mut SchedCore, t: u64, n: NodeId) {
        if self.waiters.len() <= n.index() {
            return;
        }
        let waiters = std::mem::take(&mut self.waiters[n.index()]);
        for (younger, hops) in waiters {
            let route = core.config.latency.route_latency(hops);
            core.push(t + route, Ev::Release(younger));
        }
    }
}
