//! Shared test scaffolding: reference-parity assertions and the random
//! region blueprints used by the unit, integration and property suites.
//!
//! Everything here is deterministic and allocation-light; it lives in the
//! library (rather than a `tests/` helper) so the engine's unit tests,
//! the sweep's self-tests, the bench crate and the repository-level
//! integration/property suites all build the same regions the same way
//! instead of carrying copy-pasted builders.

use crate::config::{Backend, SimConfig};
use crate::driver::Run;
use crate::energy::EnergyModel;
use crate::reference;
use nachos_ir::{
    AffineExpr, Binding, IntOp, LoopInfo, MemRef, MemSpace, Provenance, Region, RegionBuilder,
    UnknownPattern,
};

/// The default configuration with a test-sized invocation count.
#[must_use]
pub fn sim_config(invocations: u64) -> SimConfig {
    SimConfig::default().with_invocations(invocations)
}

/// Runs every paper backend on `region` and asserts the final memory
/// state and per-load observations match the in-order reference executor.
///
/// # Panics
///
/// Panics when a backend fails to simulate or diverges from the
/// reference.
pub fn check_against_reference(region: &Region, binding: &Binding, invocations: u64) {
    let expected = reference::execute(region, binding, invocations);
    for backend in Backend::ALL {
        let run = Run::new(region, binding, backend)
            .execute(&sim_config(invocations), &EnergyModel::default())
            .expect("simulation succeeds");
        assert_eq!(
            run.sim.mem, expected.mem,
            "{}: final memory state diverged",
            run.sim.backend
        );
        assert_eq!(
            run.sim.loads.digest(),
            expected.loads.digest(),
            "{}: load observations diverged",
            run.sim.backend
        );
    }
}

/// The canonical two-op demo region (`st g[0]; ld g[0]` on one 64-byte
/// global bound at `0x1_0000`) used by sweep and bench smoke tests.
#[must_use]
pub fn store_load_region(name: &str) -> (Region, Binding) {
    let mut b = RegionBuilder::new(name);
    let g = b.global("g", 64, 0);
    let m = MemRef::affine(g, AffineExpr::zero());
    let x = b.input();
    b.store(m.clone(), &[x]);
    b.load(m, &[]);
    let region = b.finish();
    let binding = Binding {
        base_addrs: vec![0x1_0000],
        ..Binding::default()
    };
    (region, binding)
}

/// Blueprint for one random memory operation in a generated region.
#[derive(Clone, Debug)]
pub struct OpPlan {
    /// `true` = store, `false` = load.
    pub is_store: bool,
    /// Which object it targets: `0..3` = globals/args, `3..5` = unknown
    /// pointers, `5` = the scratchpad object (only meaningful with
    /// [`build_plan_region_with_scratchpad`]).
    pub target: usize,
    /// Slot within the object (small so collisions are common).
    pub slot: i64,
    /// Whether the op is strided by the loop IV.
    pub strided: bool,
}

fn push_plan_op(
    b: &mut RegionBuilder,
    plan: &OpPlan,
    mref: MemRef,
    carried: nachos_ir::NodeId,
) -> nachos_ir::NodeId {
    if plan.is_store {
        b.store(mref, &[carried])
    } else {
        b.load(mref, &[])
    }
}

/// Builds the property-test region: a 4-iteration loop over two 4KiB
/// globals, a provenance-resolvable arg and two unknown pointers whose
/// windows overlap the globals (so real conflicts occur). Targets `>= 5`
/// are clamped into the unknown-pointer range.
#[must_use]
pub fn build_plan_region(ops: &[OpPlan]) -> (Region, Binding) {
    let mut b = RegionBuilder::new("prop");
    let i = b.enclosing_loop(LoopInfo::range("i", 0, 4));
    let g0 = b.global("g0", 4096, 0);
    let g1 = b.global("g1", 4096, 1);
    let a0 = b.arg(0, Provenance::Object(7));
    let u0 = b.unknown_ptr();
    let u1 = b.unknown_ptr();
    let bases = [g0, g1, a0];
    let x = b.input();
    let mut carried = x;
    for plan in ops {
        let mref = if plan.target < 3 {
            let mut off = AffineExpr::constant_expr(plan.slot * 8);
            if plan.strided {
                off = off.add(&AffineExpr::var(i).scaled(8));
            }
            MemRef::affine(bases[plan.target], off)
        } else {
            let u = if plan.target == 3 { u0 } else { u1 };
            MemRef::unknown(u, plan.slot * 8)
        };
        let node = push_plan_op(&mut b, plan, mref, carried);
        if !plan.is_store {
            carried = b.int_op(IntOp::Add, &[node, carried]);
        }
    }
    b.output(carried);
    let region = b.finish();
    let binding = Binding {
        base_addrs: vec![0x1000, 0x2000, 0x3000],
        params: Vec::new(),
        // Overlapping windows covering the globals: real conflicts occur.
        unknowns: vec![
            UnknownPattern::Scatter {
                seed: 11,
                lo: 0x1000,
                hi: 0x1040,
                align: 8,
            },
            UnknownPattern::Stride {
                base: 0x2000,
                step: 8,
            },
        ],
    };
    (region, binding)
}

/// Like [`build_plan_region`], but target 5 is a scratchpad object
/// (bypasses the LSQ and the cache in every scheme) and the unknown
/// windows scatter across the global footprint, so LSQ-tracked,
/// MAY-checked and local traffic interleave in one region.
#[must_use]
pub fn build_plan_region_with_scratchpad(ops: &[OpPlan]) -> (Region, Binding) {
    let mut b = RegionBuilder::new("prop-sp");
    let i = b.enclosing_loop(LoopInfo::range("i", 0, 4));
    let g0 = b.global("g0", 4096, 0);
    let g1 = b.global("g1", 4096, 1);
    let a0 = b.arg(0, Provenance::Object(7));
    let sp = b.global("sp", 256, 3);
    let u0 = b.unknown_ptr();
    let u1 = b.unknown_ptr();
    let bases = [g0, g1, a0];
    let x = b.input();
    let mut carried = x;
    for plan in ops {
        let mref = if plan.target < 3 {
            let mut off = AffineExpr::constant_expr(plan.slot * 8);
            if plan.strided {
                off = off.add(&AffineExpr::var(i).scaled(8));
            }
            MemRef::affine(bases[plan.target], off)
        } else if plan.target < 5 {
            let u = if plan.target == 3 { u0 } else { u1 };
            MemRef::unknown(u, plan.slot * 8)
        } else {
            let mut off = AffineExpr::constant_expr(plan.slot * 8);
            if plan.strided {
                off = off.add(&AffineExpr::var(i).scaled(8));
            }
            MemRef::affine(sp, off).with_space(MemSpace::Scratchpad)
        };
        let node = push_plan_op(&mut b, plan, mref, carried);
        if !plan.is_store {
            carried = b.int_op(IntOp::Add, &[node, carried]);
        }
    }
    b.output(carried);
    let region = b.finish();
    let binding = Binding {
        base_addrs: vec![0x1000, 0x2000, 0x3000, 0x2_0000],
        params: Vec::new(),
        unknowns: vec![
            UnknownPattern::Scatter {
                seed: 21,
                lo: 0x1000,
                hi: 0x1040,
                align: 8,
            },
            UnknownPattern::Scatter {
                seed: 22,
                lo: 0x2000,
                hi: 0x2040,
                align: 8,
            },
        ],
    };
    (region, binding)
}
