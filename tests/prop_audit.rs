//! Property tests for the soundness auditor (`nachos_alias::audit`).
//!
//! Two directions, both required for the auditor to be trustworthy:
//!
//! * **No false alarms** — `compile()` on randomly generated regions
//!   followed by `audit()` must yield zero Error-severity diagnostics
//!   for every seed and every stage configuration. This is the standing
//!   regression net: any future pipeline change that emits an unsound
//!   NO, drops an ordering chain or drifts its bookkeeping fails here.
//! * **No missed bugs** — seeding a known bug into the compiled result
//!   (a hand-broken NO label, a hand-deleted ORDER edge) must produce an
//!   Error diagnostic, proving the net actually catches what it claims.
//!
//! The `nachos-opt` optimizer extends both directions: optimized random
//! regions must still audit clean (its `CertLint` pass re-verifying every
//! rewrite certificate) with their ORDER plan untouched, and any
//! corruption of the certificate ledger must be rejected as `A-E08`.

use nachos_alias::{
    audit, compile, differential_no_collisions, optimize, AliasLabel, Code, StageConfig,
};
use nachos_ir::{
    AffineExpr, Binding, EdgeKind, IntOp, LoopInfo, MemRef, Region, RegionBuilder, UnknownPattern,
};
use proptest::prelude::*;

/// Blueprint for one random memory operation (as in `prop_fault`).
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

fn build(ops: &[OpPlan]) -> (Region, Binding) {
    let mut b = RegionBuilder::new("prop-audit");
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
                lo: 0x3000,
                hi: 0x3020,
                align: 8,
            },
            UnknownPattern::Stride {
                base: 0x3000,
                step: 8,
            },
        ],
    };
    (region, binding)
}

fn all_configs() -> [StageConfig; 4] {
    [
        StageConfig::full(),
        StageConfig::baseline(),
        StageConfig::stage1_only(),
        StageConfig {
            stage2: true,
            stage3: false,
            stage4: true,
        },
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The standing soundness net: the unmodified pipeline never earns an
    /// Error diagnostic, under any stage configuration, and its NO pairs
    /// never collide in a dynamic replay.
    #[test]
    fn compiled_regions_audit_clean(
        ops in proptest::collection::vec(arb_op(), 1..12),
    ) {
        for stages in all_configs() {
            let (mut region, binding) = build(&ops);
            let analysis = compile(&mut region, stages);
            let errors: Vec<_> = audit(&region, &analysis, stages)
                .into_iter()
                .filter(|d| d.is_error())
                .collect();
            prop_assert!(
                errors.is_empty(),
                "unmodified pipeline earned errors under {:?}: {:?}",
                stages,
                errors
            );
            let collisions =
                differential_no_collisions(&region, &analysis.matrix, &binding, 8);
            prop_assert!(
                collisions.is_empty(),
                "NO pair collided dynamically: {:?}",
                collisions
            );
        }
    }

    /// Seeded bug, direction 1: flipping any MUST verdict to NO must be
    /// flagged as an unsound NO (every pipeline MUST comes from decidable
    /// reasoning the auditor re-derives exactly).
    #[test]
    fn broken_no_label_is_always_caught(
        ops in proptest::collection::vec(arb_op(), 2..12),
    ) {
        let (mut region, _) = build(&ops);
        let mut analysis = compile(&mut region, StageConfig::full());
        let must_pair = analysis
            .matrix
            .pairs()
            .find(|(_, _, label)| label.is_must())
            .map(|(pair, _, _)| pair);
        // Not every random region has a MUST pair; skip those cases (the
        // vendored proptest has no prop_assume).
        let Some(pair) = must_pair else { continue };
        analysis.matrix.set(pair, AliasLabel::No);
        let diags = audit(&region, &analysis, StageConfig::full());
        prop_assert!(
            diags.iter().any(|d| d.code == Code::UnsoundNo),
            "hand-broken NO survived the audit: {:?}",
            diags
        );
    }

    /// Seeded bug, direction 2: deleting any planned ORDER edge from the
    /// final DFG must be flagged (as a hardware race, or as plan/DFG
    /// drift when the chain survives through other edges).
    #[test]
    fn deleted_order_edge_is_always_caught(
        ops in proptest::collection::vec(arb_op(), 2..12),
        pick in 0usize..64,
    ) {
        let (mut region, _) = build(&ops);
        let analysis = compile(&mut region, StageConfig::full());
        let order_indices: Vec<usize> = region
            .dfg
            .edges()
            .enumerate()
            .filter(|(_, e)| e.kind == EdgeKind::Order)
            .map(|(i, _)| i)
            .collect();
        if order_indices.is_empty() {
            continue;
        }
        region
            .dfg
            .remove_edge_unchecked(order_indices[pick % order_indices.len()]);
        let errors: Vec<_> = audit(&region, &analysis, StageConfig::full())
            .into_iter()
            .filter(|d| d.is_error())
            .collect();
        prop_assert!(
            errors
                .iter()
                .any(|d| d.code == Code::MissingChain || d.code == Code::PlanDrift),
            "deleted ORDER edge survived the audit"
        );
    }

    /// The optimizer's soundness net: rewriting random regions never
    /// earns an Error diagnostic under any ablation — `CertLint` accepts
    /// every certificate the optimizer emits — the surviving NO pairs
    /// never collide dynamically, and the ORDER plan is left untouched.
    #[test]
    fn optimized_regions_audit_clean(
        ops in proptest::collection::vec(arb_op(), 1..12),
    ) {
        for stages in all_configs() {
            let (mut region, binding) = build(&ops);
            let mut analysis = compile(&mut region, stages);
            let order = analysis.plan.order.clone();
            optimize(&mut region, &mut analysis);
            prop_assert_eq!(
                &analysis.plan.order,
                &order,
                "optimizer rewrote ORDER edges under {:?}",
                stages
            );
            let errors: Vec<_> = audit(&region, &analysis, stages)
                .into_iter()
                .filter(|d| d.is_error())
                .collect();
            prop_assert!(
                errors.is_empty(),
                "optimized pipeline earned errors under {:?}: {:?}",
                stages,
                errors
            );
            let collisions =
                differential_no_collisions(&region, &analysis.matrix, &binding, 8);
            prop_assert!(
                collisions.is_empty(),
                "optimized NO pair collided dynamically: {:?}",
                collisions
            );
        }
    }

    /// Seeded corruption: dropping any certificate, or inflating any
    /// ledger count, must be rejected by `CertLint` as `A-E08` — for
    /// every seed that produces at least one rewrite.
    #[test]
    fn corrupted_certificates_are_always_rejected(
        ops in proptest::collection::vec(arb_op(), 2..12),
        tamper in 0usize..3,
    ) {
        let (mut region, _) = build(&ops);
        let mut analysis = compile(&mut region, StageConfig::full());
        optimize(&mut region, &mut analysis);
        {
            let opt = analysis.opt.as_mut().expect("optimizer records an outcome");
            if opt.certs.is_empty() {
                continue;
            }
            match tamper {
                0 => drop(opt.certs.pop()),
                1 => opt.stats.order_removed += 1,
                _ => opt.stats.may_coalesced += 1,
            }
        }
        let diags = audit(&region, &analysis, StageConfig::full());
        prop_assert!(
            diags.iter().any(|d| d.code == Code::BadCertificate),
            "tampered certificate ledger (mode {tamper}) survived: {diags:?}"
        );
    }
}
