//! Property tests for engine robustness under *structural* perturbation:
//! take a valid region, compile its memory-dependency edges, then mutate
//! the graph — withhold an ordering-token edge or splice in a spurious
//! one — and require the system to stay composed. Every mutated region
//! must either be rejected by `nachos_ir::validate_region` (and the
//! simulator must return the same structured error), or simulate to
//! completion under the engine watchdog: correct results, a diagnosed
//! [`SimError::Deadlock`], or another structured error — never a hang,
//! never a panic.

use std::panic::{catch_unwind, AssertUnwindSafe};

use nachos::{reference, simulate_in, Backend, EnergyModel, SimArena, SimConfig, SimError};
use nachos_alias::{compile, StageConfig};
use nachos_ir::{
    AffineExpr, Binding, EdgeKind, IntOp, LoopInfo, MemRef, NodeId, Region, RegionBuilder,
    UnknownPattern,
};
use proptest::prelude::*;

/// Blueprint for one random memory operation (as in `prop_ordering`).
#[derive(Clone, Debug)]
struct OpPlan {
    is_store: bool,
    /// 0..2 = globals, 2..4 = unknown pointers.
    target: usize,
    /// Slot within the object (small, so MUST and MAY pairs are common).
    slot: i64,
    strided: bool,
}

fn arb_op() -> impl Strategy<Value = OpPlan> {
    (any::<bool>(), 0usize..4, 0i64..3, any::<bool>()).prop_map(
        |(is_store, target, slot, strided)| OpPlan {
            is_store,
            target,
            slot,
            strided,
        },
    )
}

/// One structural mutation of a compiled region.
#[derive(Clone, Debug)]
enum Mutation {
    /// Remove the `pick`-th token edge (ORDER/MAY/FORWARD, modulo count):
    /// a consumer waits for an ordering token that is never produced, or
    /// an ordering constraint silently disappears.
    DropTokenEdge { pick: usize },
    /// Splice in an arbitrary extra edge (endpoints and kind modulo the
    /// region's tables). May be rejected by the validator (cycle,
    /// program-order violation) or survive as a redundant constraint.
    AddEdge { src: usize, dst: usize, kind: usize },
}

fn arb_mutation() -> impl Strategy<Value = Mutation> {
    (0usize..2, 0usize..64, 0usize..64, 0usize..3).prop_map(|(which, a, b, kind)| {
        if which == 0 {
            Mutation::DropTokenEdge { pick: a }
        } else {
            Mutation::AddEdge {
                src: a,
                dst: b,
                kind,
            }
        }
    })
}

fn build(ops: &[OpPlan]) -> (Region, Binding) {
    let mut b = RegionBuilder::new("prop-fault");
    let i = b.enclosing_loop(LoopInfo::range("i", 0, 4));
    let g0 = b.global("g0", 4096, 0);
    let g1 = b.global("g1", 4096, 1);
    let u0 = b.unknown_ptr();
    let u1 = b.unknown_ptr();
    let x = b.input();
    let mut carried = x;
    for plan in ops {
        let node = if plan.target < 2 {
            let base = if plan.target == 0 { g0 } else { g1 };
            let mut off = AffineExpr::constant_expr(plan.slot * 8);
            if plan.strided {
                off = off.add(&AffineExpr::var(i).scaled(8));
            }
            let mref = MemRef::affine(base, off);
            if plan.is_store {
                b.store(mref, &[carried])
            } else {
                b.load(mref, &[])
            }
        } else {
            let u = if plan.target == 2 { u0 } else { u1 };
            let mref = MemRef::unknown(u, plan.slot * 8);
            if plan.is_store {
                b.store(mref, &[carried])
            } else {
                b.load(mref, &[])
            }
        };
        if !plan.is_store {
            carried = b.int_op(IntOp::Add, &[node, carried]);
        }
    }
    b.output(carried);
    let region = b.finish();
    let binding = Binding {
        base_addrs: vec![0x1000, 0x2000],
        params: Vec::new(),
        unknowns: vec![
            UnknownPattern::Scatter {
                seed: 5,
                lo: 0x1000,
                hi: 0x1020,
                align: 8,
            },
            UnknownPattern::Stride {
                base: 0x1000,
                step: 8,
            },
        ],
    };
    (region, binding)
}

/// Applies the mutation; returns `false` when it degenerates to a no-op
/// (no token edge to drop, or the spliced edge already exists).
fn apply_mutation(region: &mut Region, m: &Mutation) -> bool {
    match *m {
        Mutation::DropTokenEdge { pick } => {
            let token_indices: Vec<usize> = region
                .dfg
                .edges()
                .enumerate()
                .filter(|(_, e)| e.kind.is_mde())
                .map(|(i, _)| i)
                .collect();
            if token_indices.is_empty() {
                return false;
            }
            let index = token_indices[pick % token_indices.len()];
            region.dfg.remove_edge_unchecked(index);
            true
        }
        Mutation::AddEdge { src, dst, kind } => {
            let n = region.dfg.num_nodes();
            if n == 0 {
                return false;
            }
            let (src, dst) = (NodeId::new(src % n), NodeId::new(dst % n));
            // FORWARD is excluded: a spurious forward between
            // *non-aliasing* operations legitimately changes the value a
            // load observes without any structural invariant breaking,
            // so it belongs to the value-fault injector (CorruptForward),
            // not the structural mutator.
            let kind = [EdgeKind::Data, EdgeKind::Order, EdgeKind::May][kind % 3];
            if src == dst
                || region
                    .dfg
                    .out_edges(src)
                    .any(|e| e.dst == dst && e.kind == kind)
            {
                return false;
            }
            region.dfg.add_edge_unchecked(src, dst, kind);
            true
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The robustness contract: a structurally-mutated region either
    /// fails validation with structured diagnostics (mirrored by the
    /// simulator), or every MDE backend terminates within the watchdog
    /// budget — matching the reference, or reporting a structured error.
    /// The engine never panics and never hangs.
    #[test]
    fn mutated_regions_never_hang_or_panic(
        ops in proptest::collection::vec(arb_op(), 1..12),
        mutation in arb_mutation(),
    ) {
        let (mut region, binding) = build(&ops);
        compile(&mut region, StageConfig::full());
        let mutated = apply_mutation(&mut region, &mutation);
        let config = SimConfig::default().with_invocations(4);
        let energy = EnergyModel::default();

        match nachos_ir::validate_region(&region) {
            Err(errors) => {
                prop_assert!(!errors.is_empty());
                // The simulator must refuse the same region with the
                // same structured diagnostics instead of crashing.
                let res = simulate_in(&mut SimArena::new(), &region, &binding, Backend::NachosSw, &config, &energy);
                match res {
                    Err(SimError::Validation(from_sim)) => prop_assert_eq!(from_sim, errors),
                    other => prop_assert!(
                        false,
                        "validator rejected but simulate returned {:?} (mutation {:?})",
                        other.map(|r| r.cycles), mutation
                    ),
                }
            }
            Ok(()) => {
                let expected = reference::execute(&region, &binding, config.invocations);
                for backend in [Backend::NachosSw, Backend::Nachos] {
                    let caught = catch_unwind(AssertUnwindSafe(|| {
                        simulate_in(&mut SimArena::new(), &region, &binding, backend, &config, &energy)
                    }));
                    let Ok(res) = caught else {
                        panic!(
                            "{backend} panicked on a validator-approved region \
                             (ops {ops:?}, mutation {mutation:?})"
                        );
                    };
                    match res {
                        Ok(sim) => {
                            // A surviving *added* edge only constrains the
                            // schedule (or feeds another deterministic
                            // operand), so results must stay correct. A
                            // *dropped* edge may legitimately reorder, so
                            // only termination is required of it.
                            if !mutated || matches!(mutation, Mutation::AddEdge { .. }) {
                                prop_assert_eq!(
                                    &sim.mem, &expected.mem,
                                    "{} diverged (ops {:?}, mutation {:?})",
                                    backend, ops, mutation
                                );
                                prop_assert_eq!(
                                    sim.loads.digest(), expected.loads.digest(),
                                    "{} load values diverged (ops {:?}, mutation {:?})",
                                    backend, ops, mutation
                                );
                            }
                        }
                        Err(SimError::Deadlock(info)) => {
                            prop_assert!(
                                !info.stalled.is_empty(),
                                "deadlock dump names no stalled nodes ({:?})",
                                mutation
                            );
                        }
                        // Any other structured error is an acceptable
                        // refusal; panics and hangs are not.
                        Err(_) => {}
                    }
                }
            }
        }
    }
}
