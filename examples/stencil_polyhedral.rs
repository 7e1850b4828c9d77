//! The equake/lbm scenario: a multidimensional stencil whose array extents
//! are only known at run time. LLVM-style analyses (stage 1) cannot
//! linearize symbolic strides and leave every pair MAY; the polyhedral
//! stage 4 proves the row accesses independent — turning a fully
//! serialized NACHOS-SW schedule into a parallel one with zero runtime
//! checks.
//!
//! Run with `cargo run --release --example stencil_polyhedral`.

use nachos::{pct_slowdown, Backend, EnergyModel, Run, SimConfig};
use nachos_alias::{analyze, StageConfig};
use nachos_ir::{
    AffineExpr, Binding, FpOp, LoopInfo, MemRef, ParamInfo, RegionBuilder, ScaledParam, Subscript,
};

fn main() {
    // w[i][lane] += w[i+1][lane] * c   over a `double w[rows][n]` array
    // with run-time extent `n` — one lane per column, eight lanes.
    let mut b = RegionBuilder::new("stencil");
    let i = b.enclosing_loop(LoopInfo::range("i", 0, 128));
    let n = b.param(ParamInfo::at_least("n", 8));
    let w = b.global("w", 1 << 22, 0);
    let c = b.constant(0x3fe0_0000_0000_0000);

    let cell = |row: AffineExpr, lane: i64| {
        MemRef::multi_dim(
            w,
            vec![
                Subscript {
                    index: row,
                    stride: ScaledParam::symbolic(8, n),
                    extent: None,
                },
                Subscript {
                    index: AffineExpr::constant_expr(lane),
                    stride: ScaledParam::constant(8),
                    extent: Some(ScaledParam::symbolic(1, n)),
                },
            ],
        )
    };

    for lane in 0..8 {
        let below = b.load(cell(AffineExpr::var(i).plus(1), lane), &[]);
        let cur = b.load(cell(AffineExpr::var(i), lane), &[]);
        let scaled = b.fp_op(FpOp::Mul, &[below, c]);
        let sum = b.fp_op(FpOp::Add, &[cur, scaled]);
        b.store(cell(AffineExpr::var(i), lane), &[sum]);
    }
    let region = b.finish();

    // Compare the compiler with and without the polyhedral stage.
    let without = analyze(
        &region,
        StageConfig {
            stage2: true,
            stage3: true,
            stage4: false,
        },
    );
    let with = analyze(&region, StageConfig::full());
    println!("stencil over w[..][n] with symbolic n:");
    println!(
        "  stages 1-3 only:  {} MAY pairs survive -> NACHOS-SW serializes",
        without.report.final_labels.may
    );
    println!(
        "  with stage 4:     {} MAY pairs, {} refined to NO by the dependence test",
        with.report.final_labels.may, with.report.stage4_refined
    );

    // And measure what that buys at run time.
    let binding = Binding {
        base_addrs: vec![0x100_0000],
        params: vec![64],
        unknowns: Vec::new(),
    };
    let config = SimConfig::default().with_invocations(64);
    let energy = EnergyModel::default();
    let sw_without = Run::new(&region, &binding, Backend::NachosSw)
        .stages(StageConfig {
            stage2: true,
            stage3: true,
            stage4: false,
        })
        .execute(&config, &energy)
        .expect("simulate");
    let sw_with = Run::new(&region, &binding, Backend::NachosSw)
        .execute(&config, &energy)
        .expect("simulate");
    println!();
    println!(
        "  NACHOS-SW cycles without stage 4: {}",
        sw_without.sim.cycles
    );
    println!("  NACHOS-SW cycles with stage 4:    {}", sw_with.sim.cycles);
    println!(
        "  polyhedral analysis speeds the software-only schedule up by {:.0}%",
        -pct_slowdown(sw_with.sim.cycles, sw_without.sim.cycles)
    );
}
