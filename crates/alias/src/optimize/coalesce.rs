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
use crate::hash::{FoldMap, FoldSet};
use crate::reach::Reachability;
use crate::stage3::MdePlan;
use nachos_ir::{EdgeKind, MemRef, NodeId, Region};
use std::hash::Hash;

/// Numbers each node's memory reference, so that two nodes share a
/// number exactly when their [`MemRef`]s are equal: each reference is
/// hashed once, not once per edge that touches it.
fn mem_numbers(region: &Region) -> Vec<Option<usize>> {
    let mut index: FoldMap<&MemRef, usize> = FoldMap::default();
    region
        .dfg
        .node_ids()
        .map(|n| {
            let m = region.dfg.node(n).kind.mem_ref()?;
            let next = index.len();
            Some(*index.entry(m).or_insert(next))
        })
        .collect()
}

/// Partitions `edges` by `key`, dropping the edges it maps to `None`.
/// Classes, and the edges within each, keep first-seen order for
/// determinism.
fn partition<K: Hash + Eq>(
    edges: &[(NodeId, NodeId)],
    key: impl Fn(&(NodeId, NodeId)) -> Option<K>,
) -> Vec<Vec<(NodeId, NodeId)>> {
    let mut index: FoldMap<K, usize> = FoldMap::default();
    let mut classes: Vec<Vec<(NodeId, NodeId)>> = Vec::new();
    for &e in edges {
        let Some(k) = key(&e) else {
            continue;
        };
        let i = *index.entry(k).or_insert_with(|| {
            classes.push(Vec::new());
            classes.len() - 1
        });
        classes[i].push(e);
    }
    classes
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
    let mem = mem_numbers(region);
    let mut kept_edges: FoldSet<(NodeId, NodeId)> = FoldSet::default();
    let mut removed: FoldSet<(NodeId, NodeId)> = FoldSet::default();

    // Rule A: shared destination, congruent sources. Keep the youngest
    // source (deepest into the guaranteed chain), coalesce the rest into
    // it.
    for edges in partition(&plan.may, |e| Some(e.1)) {
        for class in partition(&edges, |e| mem[e.0.index()]) {
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
    for edges in partition(&plan.may, |e| Some(e.0)) {
        for class in partition(&edges, |e| mem[e.1.index()]) {
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
