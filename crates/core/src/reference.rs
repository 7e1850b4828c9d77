//! In-order reference executor — the ground truth for memory ordering.
//!
//! Executes the region sequentially (memory operations in strict program
//! order) with the shared value semantics of [`crate::value`]. Every
//! backend of the cycle simulator must reproduce this executor's final
//! memory state and load observations exactly; the integration and
//! property tests enforce that.

use crate::config::CancelToken;
use crate::value::{apply, sequential_order, LoadObserver};
use nachos_ir::{Binding, EdgeKind, NodeId, OpKind, Region};
use nachos_mem::DataMemory;

/// Output of a reference execution.
#[derive(Clone, Debug, PartialEq)]
pub struct ReferenceResult {
    /// Final memory contents.
    pub mem: DataMemory,
    /// Digest of every load's observed value.
    pub loads: LoadObserver,
}

/// Runs `invocations` sequential executions of the region.
///
/// Iteration vectors follow the enclosing loop nest in lexicographic
/// order, wrapping around if `invocations` exceeds the nest's trip count.
///
/// # Panics
///
/// Panics if the region is not a valid sequential trace (cyclic once the
/// program-order memory chain is added) or the binding is incomplete.
#[must_use]
pub fn execute(region: &Region, binding: &Binding, invocations: u64) -> ReferenceResult {
    execute_cancellable(region, binding, invocations, None).expect("no token to cancel on")
}

/// Like [`execute`], but polling `cancel` once per invocation: a tripped
/// token stops the walk and returns `None`, so a wall-clock deadline can
/// bound even the reference pass of a huge-invocation sweep (the cycle
/// engine polls its own token per event; this closes the other half).
#[must_use]
pub fn execute_cancellable(
    region: &Region,
    binding: &Binding,
    invocations: u64,
    cancel: Option<&CancelToken>,
) -> Option<ReferenceResult> {
    let order = sequential_order(region).expect("region must be a sequential trace");
    let nest_total = region.loops.total_invocations().max(1);
    let mut mem = DataMemory::new();
    let mut loads = LoadObserver::new();
    let mut values = vec![0u64; region.dfg.num_nodes()];
    let (mut iv, mut unknown_vals) = (Vec::new(), Vec::new());

    for inv in 0..invocations {
        if cancel.is_some_and(CancelToken::is_cancelled) {
            return None;
        }
        iv.clear();
        if !region.loops.is_empty() {
            region
                .loops
                .iteration_vector_into(inv % nest_total, &mut iv);
        }
        binding.unknown_values_into(inv, &mut unknown_vals);
        let ctx = binding.eval_ctx(&iv, &unknown_vals);
        for &node in &order {
            let kind = &region.dfg.node(node).kind;
            let v = match kind {
                OpKind::Load(mref) => {
                    let addr = mref.eval(&ctx);
                    let v = mem.read(addr, mref.size);
                    let slot = region.dfg.node(node).mem_slot.expect("load has slot");
                    loads.record(inv, slot.index(), v);
                    v
                }
                OpKind::Store(mref) => {
                    let addr = mref.eval(&ctx);
                    let v = apply(kind, operand_values(region, node, &values), inv);
                    mem.write(addr, mref.size, v);
                    v
                }
                other => apply(other, operand_values(region, node, &values), inv),
            };
            values[node.index()] = v;
        }
    }
    Some(ReferenceResult { mem, loads })
}

/// A node's data-operand values in deterministic (edge-insertion) order.
/// Forward edges are compiler artifacts and do not contribute operands
/// in the reference semantics.
fn operand_values<'a>(
    region: &'a Region,
    node: NodeId,
    values: &'a [u64],
) -> impl Iterator<Item = u64> + 'a {
    region
        .dfg
        .in_edges(node)
        .filter(|e| e.kind == EdgeKind::Data)
        .map(|e| values[e.src.index()])
}

#[cfg(test)]
mod tests {
    use super::*;
    use nachos_ir::{AffineExpr, IntOp, LoopInfo, MemRef, RegionBuilder};

    fn simple_binding(bases: usize) -> Binding {
        Binding {
            base_addrs: (0..bases)
                .map(|i| 0x1_0000 + (i as u64) * 0x1_0000)
                .collect(),
            params: Vec::new(),
            unknowns: Vec::new(),
        }
    }

    #[test]
    fn store_then_load_sees_value() {
        let mut b = RegionBuilder::new("t");
        let g = b.global("g", 64, 0);
        let m = MemRef::affine(g, AffineExpr::zero());
        let x = b.input();
        let st = b.store(m.clone(), &[x]);
        b.load(m, &[]);
        let r = b.finish();
        let res = execute(&r, &simple_binding(1), 1);
        // The load must observe exactly the stored value.
        let stored = res.mem.read(0x1_0000, 8);
        assert_ne!(stored, 0);
        let mut expected = LoadObserver::new();
        expected.record(0, 1, stored);
        assert_eq!(res.loads.digest(), expected.digest());
        let _ = st;
    }

    #[test]
    fn program_order_respected_between_unrelated_ops() {
        // st g[0] <- f(input); ld g[0]: no data edge between them, but
        // program order makes the load see the store.
        let mut b = RegionBuilder::new("t");
        let g = b.global("g", 64, 0);
        let m = MemRef::affine(g, AffineExpr::zero());
        let c = b.constant(7);
        b.store(m.clone(), &[c]);
        b.load(m, &[]);
        let r = b.finish();
        let res = execute(&r, &simple_binding(1), 1);
        assert_ne!(res.mem.read(0x1_0000, 8), 0);
        assert_eq!(res.loads.digest().1, 1);
    }

    #[test]
    fn loop_iterations_walk_addresses() {
        let mut b = RegionBuilder::new("t");
        let i = b.enclosing_loop(LoopInfo::range("i", 0, 4));
        let g = b.global("g", 64, 0);
        let c = b.constant(1);
        let v = b.int_op(IntOp::Add, &[c]);
        b.store(MemRef::affine(g, AffineExpr::var(i).scaled(8)), &[v]);
        let r = b.finish();
        let res = execute(&r, &simple_binding(1), 4);
        for k in 0..4u64 {
            assert_ne!(res.mem.read(0x1_0000 + k * 8, 8), 0, "slot {k} written");
        }
        assert_eq!(res.mem.footprint(), 32);
    }

    #[test]
    fn invocations_wrap_the_nest() {
        let mut b = RegionBuilder::new("t");
        let i = b.enclosing_loop(LoopInfo::range("i", 0, 2));
        let g = b.global("g", 64, 0);
        let c = b.constant(9);
        b.store(MemRef::affine(g, AffineExpr::var(i).scaled(8)), &[c]);
        let r = b.finish();
        // 5 invocations over a 2-trip nest: wraps cleanly.
        let res = execute(&r, &simple_binding(1), 5);
        assert_eq!(res.mem.footprint(), 16);
    }

    #[test]
    fn cancellation_stops_the_reference_walk() {
        let mut b = RegionBuilder::new("t");
        let g = b.global("g", 64, 0);
        let m = MemRef::affine(g, AffineExpr::zero());
        let x = b.input();
        b.store(m.clone(), &[x]);
        b.load(m, &[]);
        let r = b.finish();
        let tripped = CancelToken::new();
        tripped.cancel();
        assert_eq!(
            execute_cancellable(&r, &simple_binding(1), 8, Some(&tripped)),
            None
        );
        // An inert token changes nothing.
        let inert = CancelToken::new();
        let cancellable = execute_cancellable(&r, &simple_binding(1), 8, Some(&inert)).unwrap();
        let plain = execute(&r, &simple_binding(1), 8);
        assert_eq!(cancellable.mem, plain.mem);
        assert_eq!(cancellable.loads.digest(), plain.loads.digest());
    }

    #[test]
    fn deterministic() {
        let mut b = RegionBuilder::new("t");
        let g = b.global("g", 64, 0);
        let m = MemRef::affine(g, AffineExpr::zero());
        let x = b.input();
        b.store(m.clone(), &[x]);
        b.load(m, &[]);
        let r = b.finish();
        let a = execute(&r, &simple_binding(1), 3);
        let b2 = execute(&r, &simple_binding(1), 3);
        assert_eq!(a.mem, b2.mem);
        assert_eq!(a.loads.digest(), b2.loads.digest());
    }
}
