//! Stage 3 — redundancy removal and MDE planning.
//!
//! Not every MUST/MAY alias relation needs an explicit memory dependency
//! edge: when a (transitive) data dependence already orders the pair, the
//! dataflow fabric enforces the ordering for free (paper §V-D, Figure 8).
//! Stage 3 walks the alias relations and keeps only the non-redundant
//! ones, checking reachability in the DFG incrementally as edges are
//! committed. MUST relations are enforced before MAY relations, and ST→LD
//! MUST relations are never pruned so that store-to-load forwarding
//! remains possible.

use crate::matrix::{AliasLabel, AliasMatrix, Pair, PairKind};
use crate::reach::Reachability;
use nachos_ir::{EdgeKind, NodeId, Region};

/// The set of memory dependency edges the compiler decided to enforce.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MdePlan {
    /// 1-bit ordering edges (MUST LD→ST / ST→ST, and non-forwardable
    /// ST→LD MUST pairs).
    pub order: Vec<(NodeId, NodeId)>,
    /// 64-bit store-to-load forwarding edges (exact ST→LD MUST pairs).
    pub forward: Vec<(NodeId, NodeId)>,
    /// Compiler-uncertain pairs: serialized by NACHOS-SW, checked in
    /// hardware by NACHOS.
    pub may: Vec<(NodeId, NodeId)>,
    /// MUST relations dropped as redundant.
    pub pruned_must: usize,
    /// MAY relations dropped as redundant.
    pub pruned_may: usize,
}

impl MdePlan {
    /// Total number of enforced MDEs.
    #[must_use]
    pub fn num_mdes(&self) -> usize {
        self.order.len() + self.forward.len() + self.may.len()
    }

    /// Total number of relations dropped as redundant.
    #[must_use]
    pub fn num_pruned(&self) -> usize {
        self.pruned_must + self.pruned_may
    }

    /// Inserts the planned edges into the region's DFG as one checked
    /// batch (forward, then order, then may edges).
    ///
    /// # Panics
    ///
    /// Panics if an edge is rejected by the graph (which would indicate a
    /// planner bug: the plan is constructed acyclic and in program order).
    pub fn apply(&self, region: &mut Region) {
        let kinds = [
            (&self.forward, EdgeKind::Forward),
            (&self.order, EdgeKind::Order),
            (&self.may, EdgeKind::May),
        ];
        let batch: Vec<_> = kinds
            .into_iter()
            .flat_map(|(edges, kind)| edges.iter().map(move |&(s, d)| (s, d, kind)))
            .collect();
        region
            .dfg
            .add_edges(&batch)
            .unwrap_or_else(|e| panic!("MDE plan inconsistent: {e}"));
    }
}

/// Plans the MDEs for a labeled region.
///
/// With `prune` set (Stage 3 enabled), relations already implied by
/// transitive dataflow (or previously committed MDEs) are dropped; without
/// it, every MUST/MAY relation becomes an edge (the behaviour figures 12
/// and 16 call the "baseline compiler" keeps pruning *on* — stage 3 is part
/// of the baseline — so `prune = false` exists mainly for ablation).
#[must_use]
pub fn plan_mdes(region: &Region, matrix: &AliasMatrix, prune: bool) -> MdePlan {
    let mut plan = MdePlan::default();
    let mut reach = Reachability::of_dfg(&region.dfg, &[EdgeKind::Data]);

    // Pass 1: exact ST→LD MUST pairs become forwarding edges. For each
    // load, only the youngest exact-matching older store forwards; other
    // ST→LD MUST pairs are enforced as ordering edges (partial overlap or
    // superseded forwarders). Forwarding is only safe when no store
    // *between* the forwarder and the load can intervene (a MAY or
    // partial-MUST store younger than the forwarder); the paper handles
    // these uncommon cases by downgrading to an ordering edge and stalling
    // the load until the stores complete.
    let mut st_ld_order: Vec<Pair> = Vec::new();
    let num = matrix.num_ops();
    for younger in 0..num {
        if matrix.is_store(younger) {
            continue;
        }
        let mut forwarder: Option<usize> = None;
        let mut uncertain_stores: Vec<usize> = Vec::new();
        for older in 0..younger {
            let pair = Pair { older, younger };
            if matrix.kind(pair) != PairKind::StLd {
                continue;
            }
            match matrix.get(pair) {
                Some(AliasLabel::MustExact) => {
                    if let Some(prev) = forwarder.replace(older) {
                        st_ld_order.push(Pair {
                            older: prev,
                            younger,
                        });
                    }
                }
                Some(AliasLabel::MustPartial) => {
                    st_ld_order.push(pair);
                    uncertain_stores.push(older);
                }
                Some(AliasLabel::May) => uncertain_stores.push(older),
                _ => {}
            }
        }
        if let Some(older) = forwarder {
            let safe = !uncertain_stores.iter().any(|&s| s > older);
            if safe {
                let (s, d) = (matrix.node(older), matrix.node(younger));
                plan.forward.push((s, d));
                reach.add_edge(s, d);
            } else {
                st_ld_order.push(Pair { older, younger });
            }
        }
    }
    // ST→LD MUST relations are never pruned (forwarding must stay
    // possible), so commit them unconditionally.
    for pair in st_ld_order {
        let (s, d) = (matrix.node(pair.older), matrix.node(pair.younger));
        plan.order.push((s, d));
        reach.add_edge(s, d);
    }

    // Shortest-span relations first, so that a committed chain
    // (e.g. 1→3, 3→5) prunes the long relation it implies (1→5), as in
    // the paper's Figure 8.
    let by_span = |pairs: &mut Vec<Pair>| {
        pairs.sort_by_key(|p| (p.younger - p.older, p.younger));
    };

    // Pass 2: remaining MUST relations (LD→ST, ST→ST).
    let mut musts: Vec<Pair> = matrix
        .pairs()
        .filter(|&(_, kind, label)| label.is_must() && kind != PairKind::StLd)
        .map(|(p, _, _)| p)
        .collect();
    by_span(&mut musts);
    for pair in musts {
        let (s, d) = (matrix.node(pair.older), matrix.node(pair.younger));
        if prune && reach.reaches(s, d) {
            plan.pruned_must += 1;
        } else {
            plan.order.push((s, d));
            reach.add_edge(s, d);
        }
    }

    // Pass 3: MAY relations, after all MUSTs are in place. Committed MAY
    // edges are deliberately *not* added to the closure: in NACHOS
    // hardware mode a MAY edge does not guarantee ordering (the runtime
    // check releases the younger operation when the addresses differ), so
    // MAY-through-MAY transitivity would be unsound.
    let mut mays: Vec<Pair> = matrix
        .pairs()
        .filter(|&(_, _, label)| label.is_may())
        .map(|(p, _, _)| p)
        .collect();
    by_span(&mut mays);
    for pair in mays {
        let (s, d) = (matrix.node(pair.older), matrix.node(pair.younger));
        if prune && reach.reaches(s, d) {
            plan.pruned_may += 1;
        } else {
            plan.may.push((s, d));
        }
    }
    plan
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stage1;
    use nachos_ir::{AffineExpr, MemRef, Provenance, RegionBuilder};

    /// st g[0]; ld g[0] (data-dependent on st? no); st g[0] again.
    #[test]
    fn forwarding_chosen_from_youngest_exact_store() {
        let mut b = RegionBuilder::new("t");
        let g = b.global("g", 64, 0);
        let m = MemRef::affine(g, AffineExpr::zero());
        let s0 = b.store(m.clone(), &[]);
        let s1 = b.store(m.clone(), &[]);
        let ld = b.load(m, &[]);
        let r = b.finish();
        let mut matrix = AliasMatrix::new(&r);
        stage1::run(&r, &mut matrix);
        let plan = plan_mdes(&r, &matrix, true);
        assert_eq!(plan.forward, vec![(s1, ld)]);
        // s0→ld superseded: enforced as order; s0→s1 must-order.
        assert!(plan.order.contains(&(s0, ld)));
        assert!(plan.order.contains(&(s0, s1)));
    }

    #[test]
    fn transitive_data_dependence_prunes_order() {
        // ld A; compute; st A — the data chain already orders them.
        let mut b = RegionBuilder::new("t");
        let g = b.global("g", 64, 0);
        let m = MemRef::affine(g, AffineExpr::zero());
        let ld = b.load(m.clone(), &[]);
        let add = b.int_op(nachos_ir::IntOp::Add, &[ld]);
        let _st = b.store(m, &[add]);
        let r = b.finish();
        let mut matrix = AliasMatrix::new(&r);
        stage1::run(&r, &mut matrix);
        let plan = plan_mdes(&r, &matrix, true);
        assert_eq!(plan.pruned_must, 1);
        assert!(plan.order.is_empty());
        assert_eq!(plan.num_mdes(), 0);
    }

    #[test]
    fn without_prune_everything_is_enforced() {
        let mut b = RegionBuilder::new("t");
        let g = b.global("g", 64, 0);
        let m = MemRef::affine(g, AffineExpr::zero());
        let ld = b.load(m.clone(), &[]);
        let add = b.int_op(nachos_ir::IntOp::Add, &[ld]);
        let _st = b.store(m, &[add]);
        let r = b.finish();
        let mut matrix = AliasMatrix::new(&r);
        stage1::run(&r, &mut matrix);
        let plan = plan_mdes(&r, &matrix, false);
        assert_eq!(plan.pruned_must, 0);
        assert_eq!(plan.order.len(), 1);
    }

    #[test]
    fn chain_of_musts_is_transitively_pruned() {
        // Figure 8: st1 -> st3 -> st5 chain makes 1->5 redundant.
        let mut b = RegionBuilder::new("t");
        let g = b.global("g", 64, 0);
        let m = MemRef::affine(g, AffineExpr::zero());
        let _s1 = b.store(m.clone(), &[]);
        let _s3 = b.store(m.clone(), &[]);
        let _s5 = b.store(m, &[]);
        let r = b.finish();
        let mut matrix = AliasMatrix::new(&r);
        stage1::run(&r, &mut matrix);
        let plan = plan_mdes(&r, &matrix, true);
        // Three MUST relations (1-3, 3-5, 1-5); 1-5 pruned via the chain.
        assert_eq!(plan.order.len(), 2);
        assert_eq!(plan.pruned_must, 1);
    }

    #[test]
    fn may_pruned_by_committed_must() {
        // old store MUST-orders to a middle store; a MAY from old to a
        // younger op reachable through the middle is pruned.
        let mut b = RegionBuilder::new("t");
        let g = b.global("g", 64, 0);
        let a0 = b.arg(0, Provenance::Unknown);
        let m = MemRef::affine(g, AffineExpr::zero());
        let s_old = b.store(m.clone(), &[]);
        let s_mid = b.store(m, &[]);
        // Younger store via unknown arg: MAY with both older stores.
        let s_arg = b.store(MemRef::affine(a0, AffineExpr::zero()), &[s_mid]);
        let r = b.finish();
        let mut matrix = AliasMatrix::new(&r);
        stage1::run(&r, &mut matrix);
        let plan = plan_mdes(&r, &matrix, true);
        // MUST s_old->s_mid committed; MAY s_mid->s_arg committed? s_arg
        // data-depends on s_mid, so that MAY is pruned; MAY s_old->s_arg
        // pruned transitively.
        assert!(plan.order.contains(&(s_old, s_mid)));
        assert_eq!(plan.may.len(), 0);
        assert_eq!(plan.pruned_may, 2);
        assert!(!plan.order.contains(&(s_mid, s_arg)));
    }

    #[test]
    fn apply_inserts_edges() {
        let mut b = RegionBuilder::new("t");
        let g = b.global("g", 64, 0);
        let m = MemRef::affine(g, AffineExpr::zero());
        b.store(m.clone(), &[]);
        b.load(m, &[]);
        let mut r = b.finish();
        let mut matrix = AliasMatrix::new(&r);
        stage1::run(&r, &mut matrix);
        let plan = plan_mdes(&r, &matrix, true);
        assert_eq!(plan.forward.len(), 1);
        plan.apply(&mut r);
        assert_eq!(r.dfg.count_edges(EdgeKind::Forward), 1);
    }
}
