//! Pre-simulation region validation with structured diagnostics.
//!
//! [`Dfg::add_edge`](crate::Dfg::add_edge) enforces the graph invariants
//! at construction time, but regions can also arrive from adversarial
//! sources — fault-injection tests that mutate a compiled region through
//! [`Dfg::add_edge_unchecked`](crate::Dfg::add_edge_unchecked), or future
//! deserialization paths. [`validate_region`] re-checks every invariant
//! the simulator's safety argument rests on and reports *all* violations
//! as structured [`ValidateError`] diagnostics instead of panicking deep
//! inside the engine:
//!
//! * edge endpoints name existing nodes (no dangling ids);
//! * the memory-slot table is consistent with the node table;
//! * MDEs connect memory operations in program order, FORWARD edges go
//!   store → load;
//! * the graph is acyclic overall, and specifically there is no cycle
//!   through the ordering-token edges (ORDER/MAY/FORWARD) — a token-edge
//!   cycle is a guaranteed deadlock: every operation on the cycle waits
//!   for a completion token that can never be produced.

use crate::edge::{Edge, EdgeKind};
use crate::ids::NodeId;
use crate::region::Region;
use std::fmt;

/// One structural violation found by [`validate_region`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ValidateError {
    /// An edge endpoint does not name an existing node.
    DanglingEndpoint {
        /// The offending edge.
        edge: Edge,
    },
    /// The memory-slot table and the node table disagree.
    InconsistentMemSlot {
        /// The node whose recorded slot does not match the table.
        node: NodeId,
    },
    /// An MDE connects nodes that are not both memory operations.
    MdeBetweenNonMem {
        /// The offending edge.
        edge: Edge,
    },
    /// An MDE points from a younger to an older memory operation.
    MdeAgainstProgramOrder {
        /// The offending edge.
        edge: Edge,
    },
    /// A FORWARD edge whose endpoints are not store → load.
    BadForwardEndpoints {
        /// The offending edge.
        edge: Edge,
    },
    /// A cycle through ordering-token edges (ORDER/MAY/FORWARD): every
    /// node on it waits for a token that can never be produced.
    TokenCycle {
        /// The nodes on the cycle, in edge order.
        nodes: Vec<NodeId>,
    },
    /// A cycle in the full graph (data edges included); the DFG must be a
    /// DAG for placement and event scheduling.
    GraphCycle {
        /// The nodes on the cycle, in edge order.
        nodes: Vec<NodeId>,
    },
    /// A pointer expression names a base object outside the region's
    /// base table.
    BaseOutOfRange {
        /// The memory operation with the bad reference.
        node: NodeId,
        /// The out-of-range base id.
        base: crate::ids::BaseId,
    },
    /// An affine term references a loop outside the region's nest.
    LoopOutOfRange {
        /// The memory operation with the bad reference.
        node: NodeId,
        /// The out-of-range loop id.
        loop_id: crate::ids::LoopId,
    },
    /// A stride or extent references a parameter outside the region's
    /// parameter table.
    ParamOutOfRange {
        /// The memory operation with the bad reference.
        node: NodeId,
        /// The out-of-range parameter id.
        param: crate::ids::ParamId,
    },
    /// An unknown-pointer access names a source outside the region's
    /// unknown table.
    UnknownOutOfRange {
        /// The memory operation with the bad reference.
        node: NodeId,
        /// The out-of-range unknown-source id.
        source: crate::ids::UnknownId,
    },
    /// A multidimensional access with an empty subscript list.
    EmptySubscripts {
        /// The memory operation with the malformed access.
        node: NodeId,
    },
}

impl fmt::Display for ValidateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValidateError::DanglingEndpoint { edge } => {
                write!(f, "edge {edge} references a non-existent node")
            }
            ValidateError::InconsistentMemSlot { node } => {
                write!(f, "memory-slot table inconsistent at node {node}")
            }
            ValidateError::MdeBetweenNonMem { edge } => {
                write!(f, "MDE {edge} between non-memory operations")
            }
            ValidateError::MdeAgainstProgramOrder { edge } => {
                write!(f, "MDE {edge} violates program order")
            }
            ValidateError::BadForwardEndpoints { edge } => {
                write!(f, "forward edge {edge} must go store -> load")
            }
            ValidateError::TokenCycle { nodes } => {
                write!(f, "token-edge cycle through {}", fmt_nodes(nodes))
            }
            ValidateError::GraphCycle { nodes } => {
                write!(f, "graph cycle through {}", fmt_nodes(nodes))
            }
            ValidateError::BaseOutOfRange { node, base } => {
                write!(f, "symbol error: {node}: base {base} out of range")
            }
            ValidateError::LoopOutOfRange { node, loop_id } => {
                write!(f, "symbol error: {node}: loop {loop_id} out of range")
            }
            ValidateError::ParamOutOfRange { node, param } => {
                write!(f, "symbol error: {node}: param {param} out of range")
            }
            ValidateError::UnknownOutOfRange { node, source } => {
                write!(
                    f,
                    "symbol error: {node}: unknown source {source} out of range"
                )
            }
            ValidateError::EmptySubscripts { node } => {
                write!(
                    f,
                    "symbol error: {node}: multidim access with no subscripts"
                )
            }
        }
    }
}

impl std::error::Error for ValidateError {}

fn fmt_nodes(nodes: &[NodeId]) -> String {
    let mut s = String::new();
    for (i, n) in nodes.iter().enumerate() {
        if i > 0 {
            s.push_str(" -> ");
        }
        s.push_str(&n.to_string());
    }
    s
}

/// Checks every structural invariant the simulator relies on, returning
/// all violations found (never just the first).
///
/// # Errors
///
/// Returns the non-empty list of [`ValidateError`] diagnostics when the
/// region is not safe to place and simulate.
pub fn validate_region(region: &Region) -> Result<(), Vec<ValidateError>> {
    let dfg = &region.dfg;
    let n = dfg.num_nodes();
    let mut errors = Vec::new();

    // Memory-slot table consistency.
    for (i, &node) in dfg.mem_ops().iter().enumerate() {
        let consistent = node.index() < n
            && dfg
                .node(node)
                .mem_slot
                .is_some_and(|slot| slot.index() == i);
        if !consistent {
            errors.push(ValidateError::InconsistentMemSlot { node });
        }
    }

    // Per-edge checks. Dangling edges are excluded from adjacency by
    // `add_edge_unchecked`, so the cycle checks below stay in bounds.
    for &edge in dfg.edges() {
        if edge.src.index() >= n || edge.dst.index() >= n {
            errors.push(ValidateError::DanglingEndpoint { edge });
            continue;
        }
        if edge.kind.is_mde() {
            let (sn, dn) = (dfg.node(edge.src), dfg.node(edge.dst));
            let (Some(s_slot), Some(d_slot)) = (sn.mem_slot, dn.mem_slot) else {
                errors.push(ValidateError::MdeBetweenNonMem { edge });
                continue;
            };
            if s_slot >= d_slot {
                errors.push(ValidateError::MdeAgainstProgramOrder { edge });
            }
            if edge.kind == EdgeKind::Forward && !(sn.kind.is_store() && dn.kind.is_load()) {
                errors.push(ValidateError::BadForwardEndpoints { edge });
            }
        }
    }

    // Cycle checks: token-edge subgraph first (the sharper diagnostic),
    // then the full graph.
    let token_kinds = [EdgeKind::Order, EdgeKind::May, EdgeKind::Forward];
    if let Some(nodes) = find_cycle(region, &token_kinds) {
        errors.push(ValidateError::TokenCycle { nodes });
    } else if let Some(nodes) = find_cycle(
        region,
        &[
            EdgeKind::Data,
            EdgeKind::Order,
            EdgeKind::May,
            EdgeKind::Forward,
        ],
    ) {
        // A token cycle is also a graph cycle; only report the general
        // form when the token subgraph is clean.
        errors.push(ValidateError::GraphCycle { nodes });
    }

    // Symbol-table checks (base/loop/param/unknown ids in range).
    check_symbols(region, &mut errors);

    if errors.is_empty() {
        Ok(())
    } else {
        Err(errors)
    }
}

/// Checks that every pointer expression references valid base, loop,
/// param and unknown ids, collecting *all* violations.
fn check_symbols(region: &Region, errors: &mut Vec<ValidateError>) {
    use crate::memref::PtrExpr;
    let dfg = &region.dfg;
    for node in dfg.node_ids() {
        let Some(mem) = dfg.node(node).kind.mem_ref() else {
            continue;
        };
        let check_base = |base: crate::ids::BaseId, errors: &mut Vec<ValidateError>| {
            if base.index() >= region.bases.len() {
                errors.push(ValidateError::BaseOutOfRange { node, base });
            }
        };
        let check_loops = |expr: &crate::expr::AffineExpr, errors: &mut Vec<ValidateError>| {
            for (loop_id, _) in expr.terms() {
                if region.loops.get(loop_id).is_none() {
                    errors.push(ValidateError::LoopOutOfRange { node, loop_id });
                }
            }
        };
        match &mem.ptr {
            PtrExpr::Affine { base, offset } => {
                check_base(*base, errors);
                check_loops(offset, errors);
            }
            PtrExpr::MultiDim { base, subs, .. } => {
                check_base(*base, errors);
                if subs.is_empty() {
                    errors.push(ValidateError::EmptySubscripts { node });
                }
                for sub in subs {
                    check_loops(&sub.index, errors);
                    for param in [sub.stride.param, sub.extent.and_then(|e| e.param)]
                        .into_iter()
                        .flatten()
                    {
                        if param.index() >= region.params.len() {
                            errors.push(ValidateError::ParamOutOfRange { node, param });
                        }
                    }
                }
            }
            PtrExpr::Unknown { source, .. } => {
                if source.index() >= region.num_unknowns {
                    errors.push(ValidateError::UnknownOutOfRange {
                        node,
                        source: *source,
                    });
                }
            }
        }
    }
}

/// Finds one cycle restricted to the given edge kinds, returning its
/// nodes in edge order, or `None` when that subgraph is acyclic.
fn find_cycle(region: &Region, kinds: &[EdgeKind]) -> Option<Vec<NodeId>> {
    let dfg = &region.dfg;
    let n = dfg.num_nodes();
    // 0 = unvisited, 1 = on the current DFS path, 2 = done.
    let mut color = vec![0u8; n];
    let mut parent = vec![usize::MAX; n];
    for start in 0..n {
        if color[start] != 0 {
            continue;
        }
        // Iterative DFS; each frame is (node, position of the next
        // out-edge to try), so a step allocates nothing.
        let mut stack: Vec<(usize, usize)> = vec![(start, 0)];
        color[start] = 1;
        while let Some(&(node, next)) = stack.last() {
            let succ = dfg
                .out_edges(NodeId::new(node))
                .enumerate()
                .skip(next)
                .find(|(_, e)| kinds.contains(&e.kind) && e.dst.index() < n);
            if let Some((pos, e)) = succ {
                stack.last_mut().expect("frame just read").1 = pos + 1;
                let d = e.dst.index();
                match color[d] {
                    0 => {
                        color[d] = 1;
                        parent[d] = node;
                        stack.push((d, 0));
                    }
                    1 => {
                        // Back edge node -> d with d an ancestor on the DFS
                        // path: unwind the parent chain node -> ... -> d and
                        // reverse it into edge order d -> ... -> node.
                        let mut cycle = Vec::new();
                        let mut cur = node;
                        loop {
                            cycle.push(NodeId::new(cur));
                            if cur == d {
                                break;
                            }
                            cur = parent[cur];
                        }
                        cycle.reverse();
                        return Some(cycle);
                    }
                    _ => {}
                }
            } else {
                color[node] = 2;
                stack.pop();
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::RegionBuilder;
    use crate::expr::AffineExpr;
    use crate::memref::MemRef;

    fn two_store_region() -> Region {
        let mut b = RegionBuilder::new("v");
        let g = b.global("g", 64, 0);
        let m = MemRef::affine(g, AffineExpr::zero());
        let x = b.input();
        b.store(m.clone(), &[x]);
        b.store(m.clone(), &[x]);
        b.load(m, &[]);
        b.finish()
    }

    #[test]
    fn clean_region_validates() {
        let region = two_store_region();
        assert_eq!(validate_region(&region), Ok(()));
    }

    #[test]
    fn dangling_endpoint_is_reported() {
        let mut region = two_store_region();
        let a = NodeId::new(0);
        region
            .dfg
            .add_edge_unchecked(a, NodeId::new(99), EdgeKind::Data);
        let errs = validate_region(&region).unwrap_err();
        assert!(errs
            .iter()
            .any(|e| matches!(e, ValidateError::DanglingEndpoint { .. })));
    }

    #[test]
    fn token_cycle_is_reported_with_its_nodes() {
        let mut region = two_store_region();
        // Stores are nodes 1 and 2 (input is 0); wire order tokens both ways.
        let (s1, s2) = (NodeId::new(1), NodeId::new(2));
        region.dfg.add_edge(s1, s2, EdgeKind::Order).unwrap();
        region.dfg.add_edge_unchecked(s2, s1, EdgeKind::Order);
        let errs = validate_region(&region).unwrap_err();
        let cycle = errs
            .iter()
            .find_map(|e| match e {
                ValidateError::TokenCycle { nodes } => Some(nodes.clone()),
                _ => None,
            })
            .expect("token cycle reported");
        assert_eq!(cycle.len(), 2);
        assert!(cycle.contains(&s1) && cycle.contains(&s2));
    }

    #[test]
    fn data_cycle_reports_graph_cycle() {
        let mut region = two_store_region();
        // input (0) -> store (1) exists as data; close a data cycle.
        region
            .dfg
            .add_edge_unchecked(NodeId::new(1), NodeId::new(0), EdgeKind::Data);
        let errs = validate_region(&region).unwrap_err();
        assert!(errs
            .iter()
            .any(|e| matches!(e, ValidateError::GraphCycle { .. })));
        assert!(
            !errs
                .iter()
                .any(|e| matches!(e, ValidateError::TokenCycle { .. })),
            "a pure data cycle is not a token cycle"
        );
    }

    #[test]
    fn backwards_mde_and_bad_forward_are_reported() {
        let mut region = two_store_region();
        let (s2, ld) = (NodeId::new(2), NodeId::new(3));
        // Load (slot 2) -> store (slot 1): against program order.
        region.dfg.add_edge_unchecked(ld, s2, EdgeKind::Order);
        // Forward ending at a store: bad endpoints (and in program order,
        // store slot 0 -> store slot 1, so only the endpoint check fires).
        region
            .dfg
            .add_edge_unchecked(NodeId::new(1), s2, EdgeKind::Forward);
        let errs = validate_region(&region).unwrap_err();
        assert!(errs
            .iter()
            .any(|e| matches!(e, ValidateError::MdeAgainstProgramOrder { .. })));
        assert!(errs
            .iter()
            .any(|e| matches!(e, ValidateError::BadForwardEndpoints { .. })));
    }

    #[test]
    fn mde_between_non_mem_is_reported() {
        let mut region = two_store_region();
        // Input node 0 is not a memory op.
        region
            .dfg
            .add_edge_unchecked(NodeId::new(0), NodeId::new(1), EdgeKind::Order);
        let errs = validate_region(&region).unwrap_err();
        assert!(errs
            .iter()
            .any(|e| matches!(e, ValidateError::MdeBetweenNonMem { .. })));
    }

    #[test]
    fn symbol_errors_surface_through_validate_region() {
        let mut region = Region::new("sym");
        let m = MemRef::affine(crate::ids::BaseId::new(7), AffineExpr::zero());
        region.dfg.add_node(crate::op::OpKind::Load(m)).unwrap();
        let errs = validate_region(&region).unwrap_err();
        assert!(errs
            .iter()
            .any(|e| matches!(e, ValidateError::BaseOutOfRange { .. })));
        assert!(errs[0].to_string().starts_with("symbol error: "));
    }

    #[test]
    fn bad_loop_reference_is_reported() {
        let mut region = Region::new("badloop");
        let b = region.add_base(crate::memref::BaseObject::global("g", 64, 0));
        let m = MemRef::affine(b, AffineExpr::var(crate::ids::LoopId::new(3)));
        region.dfg.add_node(crate::op::OpKind::Load(m)).unwrap();
        let errs = validate_region(&region).unwrap_err();
        assert!(errs
            .iter()
            .any(|e| matches!(e, ValidateError::LoopOutOfRange { .. })));
        // Pushing one loop is not enough: loop 3 is still out of range.
        region.loops.push(crate::loops::LoopInfo::range("i", 0, 4));
        assert!(validate_region(&region).is_err(), "loop 3 still missing");
    }

    #[test]
    fn consistent_symbols_validate() {
        let mut region = Region::new("ok");
        let b = region.add_base(crate::memref::BaseObject::global("g", 64, 0));
        let i = region.loops.push(crate::loops::LoopInfo::range("i", 0, 4));
        let m = MemRef::affine(b, AffineExpr::var(i).scaled(8));
        region.dfg.add_node(crate::op::OpKind::Load(m)).unwrap();
        assert_eq!(validate_region(&region), Ok(()));
    }

    #[test]
    fn all_symbol_violations_are_collected() {
        let mut region = Region::new("multi");
        let bad_base = MemRef::affine(crate::ids::BaseId::new(7), AffineExpr::zero());
        let bad_unknown = MemRef::unknown(crate::ids::UnknownId::new(2), 0);
        region
            .dfg
            .add_node(crate::op::OpKind::Load(bad_base))
            .unwrap();
        region
            .dfg
            .add_node(crate::op::OpKind::Load(bad_unknown))
            .unwrap();
        let errs = validate_region(&region).unwrap_err();
        assert!(errs
            .iter()
            .any(|e| matches!(e, ValidateError::BaseOutOfRange { .. })));
        assert!(errs
            .iter()
            .any(|e| matches!(e, ValidateError::UnknownOutOfRange { .. })));
    }

    #[test]
    fn diagnostics_have_readable_display() {
        let mut region = two_store_region();
        region
            .dfg
            .add_edge_unchecked(NodeId::new(2), NodeId::new(1), EdgeKind::Order);
        let errs = validate_region(&region).unwrap_err();
        for e in &errs {
            assert!(!e.to_string().is_empty());
        }
    }
}
