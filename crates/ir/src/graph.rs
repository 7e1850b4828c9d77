//! The dataflow graph (DFG) of an acceleration region.

use crate::edge::{Edge, EdgeKind};
use crate::ids::{EdgeId, MemSlot, NodeId, MAX_MEM_OPS};
use crate::op::OpKind;
use std::fmt;

/// A node of the DFG: an operation plus bookkeeping.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Node {
    /// What the node computes.
    pub kind: OpKind,
    /// For memory operations, the program-order slot; `None` otherwise.
    pub mem_slot: Option<MemSlot>,
}

/// Errors reported by [`Dfg`] mutation and validation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum GraphError {
    /// An edge endpoint does not name an existing node.
    UnknownNode(NodeId),
    /// The same directed edge of the same kind was inserted twice.
    DuplicateEdge(Edge),
    /// Adding this edge would create a cycle; acceleration-region DFGs are
    /// DAGs.
    WouldCycle(Edge),
    /// The region exceeds the 8-bit memory-operation id space (max 256).
    TooManyMemOps,
    /// An MDE connects two nodes that are not both memory operations.
    MdeBetweenNonMem(Edge),
    /// An MDE points from a younger to an older memory operation.
    MdeAgainstProgramOrder(Edge),
    /// A forward edge does not go from a store to a load.
    BadForwardEndpoints(Edge),
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::UnknownNode(n) => write!(f, "unknown node {n}"),
            GraphError::DuplicateEdge(e) => write!(f, "duplicate edge {e}"),
            GraphError::WouldCycle(e) => write!(f, "edge {e} would create a cycle"),
            GraphError::TooManyMemOps => {
                write!(f, "more than {MAX_MEM_OPS} memory operations in region")
            }
            GraphError::MdeBetweenNonMem(e) => {
                write!(f, "MDE {e} between non-memory operations")
            }
            GraphError::MdeAgainstProgramOrder(e) => {
                write!(f, "MDE {e} violates program order")
            }
            GraphError::BadForwardEndpoints(e) => {
                write!(f, "forward edge {e} must go store -> load")
            }
        }
    }
}

impl std::error::Error for GraphError {}

/// A directed acyclic dataflow graph.
///
/// Nodes are operations; edges are data dependences or memory dependency
/// edges (MDEs). Memory operations additionally carry a program-order slot
/// ([`MemSlot`]), assigned in insertion order, which is the explicit age the
/// compiler communicates to the hardware (8 bits, like TRIPS).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Dfg {
    nodes: Vec<Node>,
    edges: Vec<Edge>,
    /// Outgoing edge ids per node.
    succs: Vec<Vec<EdgeId>>,
    /// Incoming edge ids per node.
    preds: Vec<Vec<EdgeId>>,
    /// Memory operations in program order.
    mem_ops: Vec<NodeId>,
}

impl Dfg {
    /// An empty graph.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a node and returns its id.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::TooManyMemOps`] if the node is a memory
    /// operation and the region already has [`MAX_MEM_OPS`] of them.
    pub fn add_node(&mut self, kind: OpKind) -> Result<NodeId, GraphError> {
        let id = NodeId::new(self.nodes.len());
        let mem_slot = if kind.is_mem() {
            if self.mem_ops.len() >= MAX_MEM_OPS {
                return Err(GraphError::TooManyMemOps);
            }
            let slot = MemSlot::new(self.mem_ops.len());
            self.mem_ops.push(id);
            Some(slot)
        } else {
            None
        };
        self.nodes.push(Node { kind, mem_slot });
        self.succs.push(Vec::new());
        self.preds.push(Vec::new());
        Ok(id)
    }

    /// Adds an edge after checking endpoints, uniqueness, acyclicity and —
    /// for MDEs — that both endpoints are memory operations ordered
    /// old→young (forward edges additionally store→load).
    ///
    /// # Errors
    ///
    /// See [`GraphError`] variants for each rejected shape.
    pub fn add_edge(
        &mut self,
        src: NodeId,
        dst: NodeId,
        kind: EdgeKind,
    ) -> Result<EdgeId, GraphError> {
        let edge = Edge::new(src, dst, kind);
        self.check_shape(edge)?;
        if self.reaches(dst, src) {
            return Err(GraphError::WouldCycle(edge));
        }
        Ok(self.push_edge(edge))
    }

    /// Adds a batch of edges in order with every check of
    /// [`add_edge`](Self::add_edge), but searches for a cycle once over
    /// the result instead of once per edge: a plan of `E` edges costs
    /// `O(E·deg + V + E)`, not `O(E·(V + E))`.
    ///
    /// The batch is all or nothing, and it behaves exactly like calling
    /// [`add_edge`](Self::add_edge) per edge and undoing them all on the
    /// first error: edge ids and adjacency order are the same.
    ///
    /// # Errors
    ///
    /// The error [`add_edge`](Self::add_edge) gives for the first
    /// offending edge (duplicates inside the batch included); the graph
    /// is then left unchanged.
    pub fn add_edges(&mut self, batch: &[(NodeId, NodeId, EdgeKind)]) -> Result<(), GraphError> {
        let mark = self.edges.len();
        let mut shaped = true;
        for &(src, dst, kind) in batch {
            let edge = Edge::new(src, dst, kind);
            if self.check_shape(edge).is_err() {
                shaped = false;
                break;
            }
            self.push_edge(edge);
        }
        if shaped && self.topo_prefix().len() == self.nodes.len() {
            return Ok(());
        }
        // Rare failure path: replay one edge at a time for the exact
        // error `add_edge` would give, then undo the whole batch.
        self.truncate_edges(mark);
        for &(src, dst, kind) in batch {
            if let Err(e) = self.add_edge(src, dst, kind) {
                self.truncate_edges(mark);
                return Err(e);
            }
        }
        Ok(())
    }

    /// Every per-edge check of [`add_edge`](Self::add_edge) except the
    /// reachability search: endpoint range, uniqueness, MDE endpoint kind
    /// and program order, forward shape, and self-loops.
    fn check_shape(&self, edge: Edge) -> Result<(), GraphError> {
        let (src, dst, kind) = (edge.src, edge.dst, edge.kind);
        if src.index() >= self.nodes.len() {
            return Err(GraphError::UnknownNode(src));
        }
        if dst.index() >= self.nodes.len() {
            return Err(GraphError::UnknownNode(dst));
        }
        if self.succs[src.index()]
            .iter()
            .any(|&e| self.edges[e.index()] == edge)
        {
            return Err(GraphError::DuplicateEdge(edge));
        }
        if kind.is_mde() {
            let (sn, dn) = (&self.nodes[src.index()], &self.nodes[dst.index()]);
            let (Some(s_slot), Some(d_slot)) = (sn.mem_slot, dn.mem_slot) else {
                return Err(GraphError::MdeBetweenNonMem(edge));
            };
            if s_slot >= d_slot {
                return Err(GraphError::MdeAgainstProgramOrder(edge));
            }
            if kind == EdgeKind::Forward && !(sn.kind.is_store() && dn.kind.is_load()) {
                return Err(GraphError::BadForwardEndpoints(edge));
            }
        }
        if src == dst {
            return Err(GraphError::WouldCycle(edge));
        }
        Ok(())
    }

    /// Appends an in-range edge to the edge table and adjacency lists.
    fn push_edge(&mut self, edge: Edge) -> EdgeId {
        let id = EdgeId::new(self.edges.len());
        self.edges.push(edge);
        self.succs[edge.src.index()].push(id);
        self.preds[edge.dst.index()].push(id);
        id
    }

    /// Drops every edge from index `len` on.
    fn truncate_edges(&mut self, len: usize) {
        self.edges.truncate(len);
        self.rebuild_adjacency();
    }

    /// Adds an edge **without** any invariant checking: no duplicate,
    /// cycle, program-order or endpoint-kind enforcement, and endpoints
    /// may even be out of range (dangling edges are recorded in the edge
    /// table but excluded from the adjacency lists so traversals stay in
    /// bounds).
    ///
    /// This is the escape hatch for building *adversarial* graphs —
    /// fault-injection and validator tests that need regions
    /// [`add_edge`](Self::add_edge) would rightly reject. Production code
    /// must use [`add_edge`](Self::add_edge); anything built through this
    /// method must pass `nachos_ir::validate_region` before it is placed
    /// or simulated.
    pub fn add_edge_unchecked(&mut self, src: NodeId, dst: NodeId, kind: EdgeKind) -> EdgeId {
        let id = EdgeId::new(self.edges.len());
        self.edges.push(Edge::new(src, dst, kind));
        if src.index() < self.nodes.len() && dst.index() < self.nodes.len() {
            self.succs[src.index()].push(id);
            self.preds[dst.index()].push(id);
        }
        id
    }

    /// Removes the edge at `index` (in [`edges`](Self::edges) order) and
    /// returns it, rebuilding the adjacency lists; edge ids after `index`
    /// shift down by one.
    ///
    /// Like [`add_edge_unchecked`](Self::add_edge_unchecked) this is an
    /// escape hatch for building *adversarial* graphs (e.g. a compiled
    /// region with one ordering token withheld); anything mutated through
    /// it must pass `nachos_ir::validate_region` before it is placed or
    /// simulated.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn remove_edge_unchecked(&mut self, index: usize) -> Edge {
        let removed = self.edges.remove(index);
        self.rebuild_adjacency();
        removed
    }

    /// Keeps only the edges for which `keep` returns `true` (in their
    /// original order) and rebuilds the adjacency lists once; surviving
    /// edge ids shift down past every removed edge.
    ///
    /// A checked mutation for production transformation passes (the MDE
    /// optimizer batches its deletions here): removing edges can never
    /// break the graph invariants [`add_edge`](Self::add_edge) enforces
    /// (acyclicity, uniqueness and endpoint shape are preserved by
    /// deletion).
    pub fn retain_edges(&mut self, keep: impl FnMut(&Edge) -> bool) {
        self.edges.retain(keep);
        self.rebuild_adjacency();
    }

    /// Rebuilds `succs`/`preds` from the edge table, leaving dangling
    /// edges (see [`add_edge_unchecked`](Self::add_edge_unchecked)) out of
    /// the adjacency lists.
    fn rebuild_adjacency(&mut self) {
        for list in self.succs.iter_mut().chain(self.preds.iter_mut()) {
            list.clear();
        }
        for (i, e) in self.edges.iter().enumerate() {
            if e.src.index() < self.nodes.len() && e.dst.index() < self.nodes.len() {
                self.succs[e.src.index()].push(EdgeId::new(i));
                self.preds[e.dst.index()].push(EdgeId::new(i));
            }
        }
    }

    /// `true` if `to` is reachable from `from` along any edges.
    #[must_use]
    pub fn reaches(&self, from: NodeId, to: NodeId) -> bool {
        if from == to {
            return true;
        }
        let mut seen = vec![false; self.nodes.len()];
        let mut stack = vec![from];
        seen[from.index()] = true;
        while let Some(n) = stack.pop() {
            for &e in &self.succs[n.index()] {
                let d = self.edges[e.index()].dst;
                if d == to {
                    return true;
                }
                if !seen[d.index()] {
                    seen[d.index()] = true;
                    stack.push(d);
                }
            }
        }
        false
    }

    /// Number of nodes.
    #[must_use]
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Number of edges.
    #[must_use]
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// The node with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    #[must_use]
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.index()]
    }

    /// The edge with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    #[must_use]
    pub fn edge(&self, id: EdgeId) -> &Edge {
        &self.edges[id.index()]
    }

    /// Iterates over all node ids.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> {
        (0..self.nodes.len()).map(NodeId::new)
    }

    /// Iterates over all edges.
    pub fn edges(&self) -> impl Iterator<Item = &Edge> {
        self.edges.iter()
    }

    /// Outgoing edges of a node.
    pub fn out_edges(&self, id: NodeId) -> impl Iterator<Item = &Edge> {
        self.succs[id.index()]
            .iter()
            .map(|&e| &self.edges[e.index()])
    }

    /// Incoming edges of a node.
    pub fn in_edges(&self, id: NodeId) -> impl Iterator<Item = &Edge> {
        self.preds[id.index()]
            .iter()
            .map(|&e| &self.edges[e.index()])
    }

    /// The memory operations of the region, oldest first.
    #[must_use]
    pub fn mem_ops(&self) -> &[NodeId] {
        &self.mem_ops
    }

    /// The node occupying a given program-order memory slot.
    ///
    /// # Panics
    ///
    /// Panics if `slot` is out of range.
    #[must_use]
    pub fn mem_op(&self, slot: MemSlot) -> NodeId {
        self.mem_ops[slot.index()]
    }

    /// Number of memory operations.
    #[must_use]
    pub fn num_mem_ops(&self) -> usize {
        self.mem_ops.len()
    }

    /// Counts edges of the given kind.
    #[must_use]
    pub fn count_edges(&self, kind: EdgeKind) -> usize {
        self.edges.iter().filter(|e| e.kind == kind).count()
    }

    /// A topological order of all nodes (sources first).
    ///
    /// The graph is maintained acyclic by [`Dfg::add_edge`], so this always
    /// succeeds and covers every node.
    #[must_use]
    pub fn topo_order(&self) -> Vec<NodeId> {
        let order = self.topo_prefix();
        debug_assert_eq!(order.len(), self.nodes.len(), "graph must be acyclic");
        order
    }

    /// Kahn's algorithm over the adjacency lists: a topological order of
    /// every node not on or behind a cycle, so it covers all nodes iff
    /// the graph is acyclic.
    fn topo_prefix(&self) -> Vec<NodeId> {
        let mut indeg: Vec<usize> = self.preds.iter().map(Vec::len).collect();
        let mut order = Vec::with_capacity(self.nodes.len());
        let mut ready: Vec<NodeId> = indeg
            .iter()
            .enumerate()
            .filter(|&(_, &d)| d == 0)
            .map(|(i, _)| NodeId::new(i))
            .collect();
        while let Some(n) = ready.pop() {
            order.push(n);
            for &e in &self.succs[n.index()] {
                let d = self.edges[e.index()].dst;
                indeg[d.index()] -= 1;
                if indeg[d.index()] == 0 {
                    ready.push(d);
                }
            }
        }
        order
    }

    /// Length (in nodes) of the longest path through the graph following
    /// only the given edge kinds — the dataflow critical path.
    #[must_use]
    pub fn critical_path_len(&self, kinds: &[EdgeKind]) -> usize {
        let order = self.topo_order();
        let mut depth = vec![1usize; self.nodes.len()];
        let mut max = if self.nodes.is_empty() { 0 } else { 1 };
        for n in order {
            for e in self.out_edges(n) {
                if kinds.contains(&e.kind) {
                    let d = depth[n.index()] + 1;
                    if d > depth[e.dst.index()] {
                        depth[e.dst.index()] = d;
                        max = max.max(d);
                    }
                }
            }
        }
        max
    }

    /// Removes every MDE (order/forward/may edge), keeping data edges.
    /// Used by the compiler driver to re-run MDE insertion with a different
    /// configuration on the same region.
    pub fn clear_mdes(&mut self) {
        self.retain_edges(|e| !e.kind.is_mde());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::AffineExpr;
    use crate::ids::BaseId;
    use crate::memref::MemRef;
    use crate::op::IntOp;
    use proptest::prelude::*;

    fn mem() -> MemRef {
        MemRef::affine(BaseId::new(0), AffineExpr::zero())
    }

    fn small_graph() -> (Dfg, NodeId, NodeId, NodeId) {
        let mut g = Dfg::new();
        let a = g.add_node(OpKind::Load(mem())).unwrap();
        let b = g.add_node(OpKind::Int(IntOp::Add)).unwrap();
        let c = g.add_node(OpKind::Store(mem())).unwrap();
        g.add_edge(a, b, EdgeKind::Data).unwrap();
        g.add_edge(b, c, EdgeKind::Data).unwrap();
        (g, a, b, c)
    }

    #[test]
    fn mem_slots_follow_insertion_order() {
        let (g, a, _, c) = small_graph();
        assert_eq!(g.num_mem_ops(), 2);
        assert_eq!(g.mem_ops(), &[a, c]);
        assert_eq!(g.node(a).mem_slot, Some(MemSlot::new(0)));
        assert_eq!(g.node(c).mem_slot, Some(MemSlot::new(1)));
        assert_eq!(g.mem_op(MemSlot::new(1)), c);
    }

    #[test]
    fn remove_edge_unchecked_rebuilds_adjacency() {
        let (mut g, a, b, c) = small_graph();
        let removed = g.remove_edge_unchecked(0);
        assert_eq!(removed, Edge::new(a, b, EdgeKind::Data));
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.out_edges(a).count(), 0);
        assert_eq!(g.in_edges(b).count(), 0);
        // The surviving edge keeps working through the rebuilt lists.
        assert_eq!(
            g.out_edges(b).next(),
            Some(&Edge::new(b, c, EdgeKind::Data))
        );
        assert_eq!(g.in_edges(c).count(), 1);
    }

    #[test]
    fn retain_edges_keeps_order_and_rebuilds_adjacency() {
        let (mut g, a, b, c) = small_graph();
        g.add_edge(a, c, EdgeKind::Order).unwrap();
        g.add_edge(a, c, EdgeKind::May).unwrap();
        g.retain_edges(|e| e.kind != EdgeKind::Order);
        // Survivors keep their relative order (and so their new ids).
        let kept: Vec<_> = g.edges().copied().collect();
        assert_eq!(
            kept,
            [
                Edge::new(a, b, EdgeKind::Data),
                Edge::new(b, c, EdgeKind::Data),
                Edge::new(a, c, EdgeKind::May),
            ]
        );
        assert_eq!(g.count_edges(EdgeKind::Order), 0);
        // Adjacency points at the shifted ids, not the stale ones.
        let out_a: Vec<_> = g.out_edges(a).copied().collect();
        assert_eq!(
            out_a,
            [
                Edge::new(a, b, EdgeKind::Data),
                Edge::new(a, c, EdgeKind::May)
            ]
        );
        let in_c: Vec<_> = g.in_edges(c).map(|e| e.kind).collect();
        assert_eq!(in_c, [EdgeKind::Data, EdgeKind::May]);
        // Keeping everything is a no-op.
        g.retain_edges(|_| true);
        assert_eq!(g.num_edges(), 3);
    }

    #[test]
    fn rejects_duplicate_edges() {
        let (mut g, a, b, _) = small_graph();
        assert!(matches!(
            g.add_edge(a, b, EdgeKind::Data),
            Err(GraphError::DuplicateEdge(_))
        ));
        // Same endpoints, different kind is allowed for mem pairs only;
        // for data+data it is a duplicate, but data+order between a load
        // and an add is an MDE error:
        assert!(matches!(
            g.add_edge(a, b, EdgeKind::Order),
            Err(GraphError::MdeBetweenNonMem(_))
        ));
    }

    #[test]
    fn rejects_cycles_and_self_edges() {
        let (mut g, a, _, c) = small_graph();
        assert!(matches!(
            g.add_edge(c, a, EdgeKind::Data),
            Err(GraphError::WouldCycle(_))
        ));
        assert!(matches!(
            g.add_edge(a, a, EdgeKind::Data),
            Err(GraphError::WouldCycle(_))
        ));
    }

    #[test]
    fn rejects_unknown_nodes() {
        let (mut g, a, _, _) = small_graph();
        assert!(matches!(
            g.add_edge(a, NodeId::new(99), EdgeKind::Data),
            Err(GraphError::UnknownNode(_))
        ));
    }

    #[test]
    fn mde_program_order_enforced() {
        let (mut g, a, _, c) = small_graph();
        // a is older than c: ok (load->store order edge).
        g.add_edge(a, c, EdgeKind::Order).unwrap();
        // store->load backwards in program order: rejected.
        assert!(matches!(
            g.add_edge(c, a, EdgeKind::Forward),
            Err(GraphError::MdeAgainstProgramOrder(_))
        ));
    }

    #[test]
    fn forward_requires_store_to_load() {
        let mut g = Dfg::new();
        let ld = g.add_node(OpKind::Load(mem())).unwrap();
        let ld2 = g.add_node(OpKind::Load(mem())).unwrap();
        let st = g.add_node(OpKind::Store(mem())).unwrap();
        assert!(matches!(
            g.add_edge(ld, ld2, EdgeKind::Forward),
            Err(GraphError::BadForwardEndpoints(_))
        ));
        assert!(matches!(
            g.add_edge(ld, st, EdgeKind::Forward),
            Err(GraphError::BadForwardEndpoints(_))
        ));
        let mut g2 = Dfg::new();
        let st2 = g2.add_node(OpKind::Store(mem())).unwrap();
        let ld3 = g2.add_node(OpKind::Load(mem())).unwrap();
        assert!(g2.add_edge(st2, ld3, EdgeKind::Forward).is_ok());
    }

    #[test]
    fn topo_order_is_valid() {
        let (g, _, _, _) = small_graph();
        let order = g.topo_order();
        assert_eq!(order.len(), 3);
        let pos: Vec<usize> = g
            .node_ids()
            .map(|n| order.iter().position(|&o| o == n).unwrap())
            .collect();
        for e in g.edges() {
            assert!(pos[e.src.index()] < pos[e.dst.index()]);
        }
    }

    #[test]
    fn critical_path_follows_selected_kinds() {
        let (mut g, a, _, c) = small_graph();
        assert_eq!(g.critical_path_len(&[EdgeKind::Data]), 3);
        g.add_edge(a, c, EdgeKind::Order).unwrap();
        // Order edge a->c does not lengthen data-only path.
        assert_eq!(g.critical_path_len(&[EdgeKind::Data]), 3);
        assert_eq!(g.critical_path_len(&[EdgeKind::Order]), 2);
    }

    #[test]
    fn clear_mdes_keeps_data_edges() {
        let (mut g, a, _, c) = small_graph();
        g.add_edge(a, c, EdgeKind::Order).unwrap();
        assert_eq!(g.num_edges(), 3);
        g.clear_mdes();
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.count_edges(EdgeKind::Order), 0);
        assert_eq!(g.count_edges(EdgeKind::Data), 2);
        // Adjacency stays consistent.
        assert_eq!(g.out_edges(a).count(), 1);
        assert_eq!(g.in_edges(c).count(), 1);
    }

    #[test]
    fn mem_op_limit_enforced() {
        let mut g = Dfg::new();
        for _ in 0..MAX_MEM_OPS {
            g.add_node(OpKind::Load(mem())).unwrap();
        }
        assert!(matches!(
            g.add_node(OpKind::Load(mem())),
            Err(GraphError::TooManyMemOps)
        ));
        // Non-memory nodes are still fine.
        assert!(g.add_node(OpKind::Int(IntOp::Add)).is_ok());
    }

    #[test]
    fn add_edges_is_all_or_nothing() {
        let (mut g, a, b, c) = small_graph();
        let before = g.clone();
        // An in-batch duplicate fails like the second `add_edge` would.
        let dup = [(a, c, EdgeKind::Order), (a, c, EdgeKind::Order)];
        assert_eq!(
            g.add_edges(&dup),
            Err(GraphError::DuplicateEdge(Edge::new(a, c, EdgeKind::Order)))
        );
        assert_eq!(g, before);
        // A cycle closed by a later edge of the batch is found too.
        let cyc = [(a, c, EdgeKind::Order), (c, b, EdgeKind::Data)];
        assert_eq!(
            g.add_edges(&cyc),
            Err(GraphError::WouldCycle(Edge::new(c, b, EdgeKind::Data)))
        );
        assert_eq!(g, before);
        g.add_edges(&dup[..1]).unwrap();
        assert_eq!(g.count_edges(EdgeKind::Order), 1);
    }

    fn op(kind: u8) -> OpKind {
        match kind {
            0 => OpKind::Int(IntOp::Add),
            1 => OpKind::Load(mem()),
            _ => OpKind::Store(mem()),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// `add_edges` equals sequential `add_edge` on random DAGs and
        /// random batches: the same graph on `Ok`, the same first error
        /// and an unchanged graph on `Err`.
        #[test]
        fn add_edges_matches_sequential_add_edge(
            kinds in proptest::collection::vec(0u8..3, 2..10),
            base in proptest::collection::vec((0usize..10, 0usize..10), 0..12),
            batch in proptest::collection::vec(
                (0usize..11, 0usize..11, 0usize..6, any::<bool>()),
                0..8,
            ),
        ) {
            let mut g = Dfg::new();
            for &k in &kinds {
                g.add_node(op(k)).unwrap();
            }
            let n = kinds.len();
            for (a, b) in base {
                let (a, b) = (a % n, b % n);
                if a < b {
                    let _ = g.add_edge(NodeId::new(a), NodeId::new(b), EdgeKind::Data);
                }
            }
            // Indices reach one past the last node, so `UnknownNode` is
            // drawn too; `forward` pairs follow node order and the rest
            // run against it. Data edges, which fit any endpoints, are
            // drawn most often, so batches that pass every shape check
            // and then close a cycle occur.
            let all = [
                EdgeKind::Data,
                EdgeKind::Data,
                EdgeKind::Data,
                EdgeKind::Order,
                EdgeKind::May,
                EdgeKind::Forward,
            ];
            let batch: Vec<_> = batch
                .into_iter()
                .map(|(a, b, k, forward)| {
                    let (a, b) = (a % (n + 1), b % (n + 1));
                    let (a, b) = if forward { (a.min(b), a.max(b)) } else { (a.max(b), a.min(b)) };
                    (NodeId::new(a), NodeId::new(b), all[k])
                })
                .collect();
            let mut seq = g.clone();
            let want = batch
                .iter()
                .try_for_each(|&(s, d, k)| seq.add_edge(s, d, k).map(drop));
            let mut got = g.clone();
            let res = got.add_edges(&batch);
            match want {
                Ok(()) => {
                    prop_assert_eq!(res, Ok(()));
                    prop_assert_eq!(got, seq);
                }
                Err(e) => {
                    prop_assert_eq!(res, Err(e));
                    prop_assert_eq!(got, g);
                }
            }
        }
    }

    #[test]
    fn reaches_is_transitive() {
        let (g, a, b, c) = small_graph();
        assert!(g.reaches(a, c));
        assert!(g.reaches(a, b));
        assert!(!g.reaches(c, a));
        assert!(g.reaches(b, b));
    }
}
