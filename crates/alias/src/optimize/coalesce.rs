//! Comparator-site coalescing of congruent MAY edges.
//!
//! Two MAY edges that share an endpoint and whose non-shared endpoints
//! carry *syntactically identical* memory references test the same
//! address predicate every invocation: the two pairs conflict for exactly
//! the same iteration vectors. When a guaranteed path additionally orders
//! the removed pair *through* the kept one, one comparator check subsumes
//! the other:
//!
//! * **Shared destination** (rule A): edges `o → y` and `k → y` with
//!   `mem(o) == mem(k)` and a guaranteed path `o ⇝ k`. If the (common)
//!   address conflicts with `y`, the kept check holds `y` until `k`
//!   completes, and `k` completes after `o` — so `y` is ordered after `o`
//!   exactly when it must be.
//! * **Shared source** (rule B): edges `s → y1` and `s → y2` with
//!   `mem(y1) == mem(y2)` and a guaranteed path `y1 ⇝ y2`. If `s`
//!   conflicts with the (common) destination address, the kept check
//!   holds `y1` until `s` completes, and `y2` starts after `y1`.
//!
//! Under NACHOS-SW, where MAY edges serialize as tokens, both arguments
//! strengthen (the kept edge orders unconditionally). An edge recorded as
//! `kept` by one certificate is never itself removed by a later rewrite,
//! so every certificate's kept edge is present in the final plan.

use super::cert::Certificate;
use super::witness;
use crate::reach::Reachability;
use crate::stage3::MdePlan;
use nachos_ir::{EdgeKind, MemRef, NodeId, Region};
use std::collections::HashSet;

fn mem_of(region: &Region, n: NodeId) -> Option<&MemRef> {
    region.dfg.node(n).kind.mem_ref()
}

/// Groups `edges` by the endpoint selected by `key`, preserving first-seen
/// order for determinism.
fn group_by(
    edges: &[(NodeId, NodeId)],
    key: impl Fn(&(NodeId, NodeId)) -> NodeId,
) -> Vec<(NodeId, Vec<(NodeId, NodeId)>)> {
    let mut groups: Vec<(NodeId, Vec<(NodeId, NodeId)>)> = Vec::new();
    for &e in edges {
        let k = key(&e);
        match groups.iter_mut().find(|(g, _)| *g == k) {
            Some((_, v)) => v.push(e),
            None => groups.push((k, vec![e])),
        }
    }
    groups
}

/// Partitions a group's edges into congruence classes by the [`MemRef`]
/// of the endpoint selected by `key` (first-seen order).
fn congruence_classes(
    region: &Region,
    edges: &[(NodeId, NodeId)],
    key: impl Fn(&(NodeId, NodeId)) -> NodeId,
) -> Vec<Vec<(NodeId, NodeId)>> {
    let mut classes: Vec<(MemRef, Vec<(NodeId, NodeId)>)> = Vec::new();
    for &e in edges {
        let Some(m) = mem_of(region, key(&e)) else {
            continue;
        };
        match classes.iter_mut().find(|(cm, _)| cm == m) {
            Some((_, v)) => v.push(e),
            None => classes.push((m.clone(), vec![e])),
        }
    }
    classes.into_iter().map(|(_, v)| v).collect()
}

fn slot(region: &Region, n: NodeId) -> usize {
    region
        .dfg
        .node(n)
        .mem_slot
        .map_or(usize::MAX, nachos_ir::MemSlot::index)
}

/// Coalesces congruent MAY edges (rules A then B), recording one
/// [`Certificate`] per deletion. Returns the number of edges removed.
///
/// Deletions are batched: the plan drops each rule's removals in one
/// `retain`, and the DFG drops them all in one
/// [`retain_edges`](nachos_ir::Dfg::retain_edges) at the end. Deferring
/// them cannot change a witness, because witness paths run over
/// guaranteed edges only, which coalescing never touches.
pub(super) fn run(region: &mut Region, plan: &mut MdePlan, certs: &mut Vec<Certificate>) -> usize {
    let closure = Reachability::of_dfg(
        &region.dfg,
        &[EdgeKind::Data, EdgeKind::Order, EdgeKind::Forward],
    );
    let mut kept_edges: HashSet<(NodeId, NodeId)> = HashSet::new();
    let mut removed: HashSet<(NodeId, NodeId)> = HashSet::new();

    // Rule A: shared destination, congruent sources. Keep the youngest
    // source (deepest into the guaranteed chain), coalesce the rest into
    // it.
    for (_, edges) in group_by(&plan.may, |e| e.1) {
        for class in congruence_classes(region, &edges, |e| e.0) {
            if class.len() < 2 {
                continue;
            }
            let kept = *class
                .iter()
                .max_by_key(|e| slot(region, e.0))
                .expect("class is non-empty");
            for &cand in class.iter().filter(|&&e| e != kept) {
                if !closure.reaches(cand.0, kept.0) {
                    continue;
                }
                let path = witness::find_path(&region.dfg, cand.0, kept.0)
                    .expect("closure reachability implies a concrete path");
                removed.insert(cand);
                kept_edges.insert(kept);
                certs.push(Certificate {
                    removed: cand,
                    kept,
                    witness: path,
                });
            }
        }
    }
    plan.may.retain(|e| !removed.contains(e));

    // Rule B: shared source, congruent destinations. Keep the oldest
    // destination (first to execute), coalesce younger congruent ones.
    for (_, edges) in group_by(&plan.may, |e| e.0) {
        for class in congruence_classes(region, &edges, |e| e.1) {
            if class.len() < 2 {
                continue;
            }
            let kept = *class
                .iter()
                .min_by_key(|e| slot(region, e.1))
                .expect("class is non-empty");
            for &cand in class.iter().filter(|&&e| e != kept) {
                if kept_edges.contains(&cand) || !closure.reaches(kept.1, cand.1) {
                    continue;
                }
                let path = witness::find_path(&region.dfg, kept.1, cand.1)
                    .expect("closure reachability implies a concrete path");
                removed.insert(cand);
                kept_edges.insert(kept);
                certs.push(Certificate {
                    removed: cand,
                    kept,
                    witness: path,
                });
            }
        }
    }
    plan.may.retain(|e| !removed.contains(e));
    region
        .dfg
        .retain_edges(|e| e.kind != EdgeKind::May || !removed.contains(&(e.src, e.dst)));
    removed.len()
}
