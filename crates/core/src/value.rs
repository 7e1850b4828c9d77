//! Deterministic value semantics shared by the cycle simulator and the
//! in-order reference executor.
//!
//! The reproduction checks *memory-ordering correctness*, not numerics, so
//! compute nodes evaluate a fixed pseudo-function of their operands: any
//! deterministic, operand-order-sensitive fold works, because both the
//! timing engine and the reference executor use the same one — a
//! discrepancy in any load's observed value or in the final memory state
//! then pinpoints an ordering violation.

use nachos_ir::{OpKind, Region};

/// Mixes one operand into an accumulator (order-sensitive).
#[must_use]
pub fn fold(acc: u64, operand: u64) -> u64 {
    acc.rotate_left(7)
        .wrapping_mul(0x100_0000_01b3)
        .wrapping_add(operand ^ 0x9e37_79b9_7f4a_7c15)
}

/// The value an [`OpKind::Input`] node produces at a given invocation.
#[must_use]
pub fn input_value(index: u32, invocation: u64) -> u64 {
    fold(
        fold(0xcbf2_9ce4_8422_2325, u64::from(index) + 1),
        invocation,
    )
}

/// Evaluates a non-memory node from its operand values (in operand order).
/// Loads take their value from memory/forwarding and are not handled here.
///
/// # Panics
///
/// Panics when called with a load node.
#[must_use]
pub fn apply(kind: &OpKind, operands: impl IntoIterator<Item = u64>, invocation: u64) -> u64 {
    match kind {
        OpKind::Input { index } => input_value(*index, invocation),
        OpKind::Const { value } => *value,
        OpKind::Int(_) | OpKind::Fp(_) | OpKind::Store(_) | OpKind::Output => {
            operands.into_iter().fold(0x8422_2325, fold)
        }
        OpKind::Load(_) => panic!("loads take their value from memory"),
    }
}

/// The order in which nodes must be evaluated so that memory operations
/// execute in program order: a topological sort over data edges with the
/// memory-slot chain added as virtual edges. Returns `None` if the region
/// is not a valid sequential trace (i.e. the combined order is cyclic).
#[must_use]
pub fn sequential_order(region: &Region) -> Option<Vec<nachos_ir::NodeId>> {
    use nachos_ir::EdgeKind;
    let dfg = &region.dfg;
    let n = dfg.num_nodes();
    let mut indeg = vec![0usize; n];
    let mut succ: Vec<Vec<usize>> = vec![Vec::new(); n];
    for e in dfg.edges() {
        if e.kind == EdgeKind::Data {
            succ[e.src.index()].push(e.dst.index());
            indeg[e.dst.index()] += 1;
        }
    }
    for w in dfg.mem_ops().windows(2) {
        succ[w[0].index()].push(w[1].index());
        indeg[w[1].index()] += 1;
    }
    let mut ready: Vec<usize> = (0..n).filter(|&i| indeg[i] == 0).collect();
    // Deterministic: lowest node id first.
    ready.sort_unstable_by(|a, b| b.cmp(a));
    let mut order = Vec::with_capacity(n);
    while let Some(i) = ready.pop() {
        order.push(nachos_ir::NodeId::new(i));
        for &s in &succ[i] {
            indeg[s] -= 1;
            if indeg[s] == 0 {
                let pos = ready.binary_search_by(|&x| s.cmp(&x)).unwrap_or_else(|p| p);
                ready.insert(pos, s);
            }
        }
    }
    (order.len() == n).then_some(order)
}

/// An order-insensitive-in-time but content-sensitive accumulator for load
/// observations: both executors record `(invocation, slot, value)` triples
/// keyed deterministically, so equal hashes mean equal observed values.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LoadObserver {
    hash: u64,
    count: u64,
}

impl LoadObserver {
    /// A fresh observer.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one load observation.
    pub fn record(&mut self, invocation: u64, slot: usize, value: u64) {
        // Commutative combine (sum of per-triple hashes) because the two
        // executors observe loads in different time orders.
        let h = fold(fold(fold(0x1234_5678, invocation), slot as u64), value);
        self.hash = self.hash.wrapping_add(h.wrapping_mul(0x9e37_79b9));
        self.count += 1;
    }

    /// The digest of all observations.
    #[must_use]
    pub fn digest(&self) -> (u64, u64) {
        (self.hash, self.count)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nachos_ir::{AffineExpr, IntOp, MemRef, RegionBuilder};

    #[test]
    fn fold_is_order_sensitive() {
        assert_ne!(fold(fold(0, 1), 2), fold(fold(0, 2), 1));
    }

    #[test]
    fn input_values_vary_by_index_and_invocation() {
        assert_ne!(input_value(0, 0), input_value(1, 0));
        assert_ne!(input_value(0, 0), input_value(0, 1));
        assert_eq!(input_value(3, 7), input_value(3, 7));
    }

    #[test]
    fn apply_consts_and_compute() {
        assert_eq!(apply(&OpKind::Const { value: 42 }, [], 0), 42);
        let a = apply(&OpKind::Int(IntOp::Add), [1, 2], 0);
        let b = apply(&OpKind::Int(IntOp::Add), [2, 1], 0);
        assert_ne!(a, b);
        // Same inputs, same value regardless of invocation for compute.
        assert_eq!(a, apply(&OpKind::Int(IntOp::Add), [1, 2], 9));
    }

    #[test]
    #[should_panic(expected = "memory")]
    fn apply_rejects_loads() {
        let mem = MemRef::affine(nachos_ir::BaseId::new(0), AffineExpr::zero());
        let _ = apply(&OpKind::Load(mem), [], 0);
    }

    #[test]
    fn sequential_order_interleaves_mem_chain() {
        let mut b = RegionBuilder::new("t");
        let g = b.global("g", 64, 0);
        let m = MemRef::affine(g, AffineExpr::zero());
        let st = b.store(m.clone(), &[]);
        let ld = b.load(m, &[]);
        let r = b.finish();
        let order = sequential_order(&r).unwrap();
        let pos = |n: nachos_ir::NodeId| order.iter().position(|&x| x == n).unwrap();
        assert!(pos(st) < pos(ld), "mem ops follow program order");
    }

    #[test]
    fn load_observer_is_time_order_insensitive() {
        let mut a = LoadObserver::new();
        a.record(0, 1, 99);
        a.record(1, 0, 7);
        let mut b = LoadObserver::new();
        b.record(1, 0, 7);
        b.record(0, 1, 99);
        assert_eq!(a.digest(), b.digest());
        let mut c = LoadObserver::new();
        c.record(0, 1, 98);
        c.record(1, 0, 7);
        assert_ne!(a.digest(), c.digest(), "value change must show");
    }
}
