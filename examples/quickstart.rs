//! Quickstart: build an acceleration region, compile it with NACHOS-SW,
//! and simulate it under all three disambiguation backends.
//!
//! Run with `cargo run --release --example quickstart`.

use nachos::{Backend, EnergyModel, Run, SimConfig};
use nachos_alias::{analyze, StageConfig};
use nachos_ir::{AffineExpr, Binding, IntOp, LoopInfo, MemRef, Provenance, RegionBuilder};

fn main() {
    // ------------------------------------------------------------------
    // 1. Describe an acceleration region: the body of
    //        for i in 0..64 { b[i] = f(a[i]); *p += g(a[i]); }
    //    where `a` and `b` are distinct caller objects passed as pointer
    //    arguments and `p` is a pointer the compiler cannot trace.
    // ------------------------------------------------------------------
    let mut b = RegionBuilder::new("quickstart");
    let i = b.enclosing_loop(LoopInfo::range("i", 0, 64));
    let arr_a = b.arg(0, Provenance::Object(1));
    let arr_b = b.arg(1, Provenance::Object(2));
    let p = b.unknown_ptr();

    let elem = |arr, iv: AffineExpr| MemRef::affine(arr, iv.scaled(8));
    let ld = b.load(elem(arr_a, AffineExpr::var(i)), &[]);
    let f = b.int_op(IntOp::Mul, &[ld]);
    b.store(elem(arr_b, AffineExpr::var(i)), &[f]);
    let g = b.int_op(IntOp::Add, &[ld]);
    b.store(MemRef::unknown(p, 0), &[g]);
    let region = b.finish();

    // ------------------------------------------------------------------
    // 2. Ask the compiler what it can prove.
    // ------------------------------------------------------------------
    let analysis = analyze(&region, StageConfig::full());
    println!("region `{}`:", region.name);
    println!(
        "  {} memory operations, {} tracked pairs",
        analysis.report.num_mem_ops, analysis.report.num_pairs
    );
    println!(
        "  after stage 1:  {} NO / {} MAY / {} MUST",
        analysis.report.after_stage1.no,
        analysis.report.after_stage1.may,
        analysis.report.after_stage1.must
    );
    println!(
        "  after stage 2:  {} NO / {} MAY / {} MUST  (provenance traced)",
        analysis.report.after_stage2.no,
        analysis.report.after_stage2.may,
        analysis.report.after_stage2.must
    );
    println!(
        "  enforced MDEs: {} order, {} forward, {} may",
        analysis.plan.order.len(),
        analysis.plan.forward.len(),
        analysis.plan.may.len()
    );

    // ------------------------------------------------------------------
    // 3. Bind concrete addresses and simulate.
    // ------------------------------------------------------------------
    let binding = Binding {
        base_addrs: vec![0x10_0000, 0x20_0000],
        params: Vec::new(),
        unknowns: vec![nachos_ir::UnknownPattern::Fixed(0x30_0000)],
    };
    let config = SimConfig::default().with_invocations(64);
    let energy = EnergyModel::default();
    let runs = Backend::ALL.map(|backend| {
        Run::new(&region, &binding, backend)
            .execute(&config, &energy)
            .expect("region fits the paper's 32x32 grid")
    });

    println!();
    println!(
        "{:<10} {:>10} {:>14} {:>12}",
        "backend", "cycles", "energy (nJ)", "MAY checks"
    );
    for run in &runs {
        println!(
            "{:<10} {:>10} {:>14.1} {:>12}",
            run.sim.backend.to_string(),
            run.sim.cycles,
            run.sim.energy.total() / 1e6,
            run.sim.events.may_checks
        );
    }
    println!();
    println!(
        "NACHOS resolves the two array streams at compile time (stage 2) and \
         checks only the untraceable store at run time — the pay-as-you-go \
         approach of the paper."
    );
}
