//! Witness-path search over guaranteed ordering edges.

use nachos_ir::{Dfg, EdgeKind, NodeId};

/// `true` for the edge kinds that enforce ordering transitively: data
/// flow, ORDER tokens and FORWARD values. MAY edges order only their own
/// endpoints (the runtime check may release the younger op early), so
/// witness paths never traverse them — mirroring the audit's closure.
pub(super) fn guaranteed(kind: EdgeKind) -> bool {
    matches!(kind, EdgeKind::Data | EdgeKind::Order | EdgeKind::Forward)
}

/// Shortest path `from ⇝ to` over guaranteed edges, as the full node
/// sequence `[from, …, to]`, or `None` when unreachable. Paths of length
/// zero are not paths: `from == to` returns `None`.
pub(super) fn find_path(dfg: &Dfg, from: NodeId, to: NodeId) -> Option<Vec<NodeId>> {
    if from == to {
        return None;
    }
    let mut parent: Vec<Option<NodeId>> = vec![None; dfg.num_nodes()];
    let mut queue = std::collections::VecDeque::new();
    queue.push_back(from);
    while let Some(n) = queue.pop_front() {
        for e in dfg.out_edges(n) {
            if !guaranteed(e.kind) {
                continue;
            }
            if e.dst != from && parent[e.dst.index()].is_none() {
                parent[e.dst.index()] = Some(n);
                if e.dst == to {
                    let mut path = vec![to];
                    let mut cur = to;
                    while let Some(p) = parent[cur.index()] {
                        path.push(p);
                        if p == from {
                            break;
                        }
                        cur = p;
                    }
                    path.reverse();
                    return Some(path);
                }
                queue.push_back(e.dst);
            }
        }
    }
    None
}

/// `true` when every consecutive hop of `witness` is a guaranteed edge of
/// `dfg` and the endpoints match — the re-verification `CertLint` runs.
pub(crate) fn path_valid(dfg: &Dfg, witness: &[NodeId], from: NodeId, to: NodeId) -> bool {
    if witness.len() < 2 || witness[0] != from || *witness.last().expect("non-empty") != to {
        return false;
    }
    witness.windows(2).all(|hop| {
        hop[0].index() < dfg.num_nodes()
            && dfg
                .out_edges(hop[0])
                .any(|e| e.dst == hop[1] && guaranteed(e.kind))
    })
}
