//! The pathological case the paper motivates NACHOS with: one ambiguous
//! store near the top of a region serializes every younger memory
//! operation under a software-only scheme, even though it almost never
//! actually conflicts. The hardware `==?` check releases the parallelism.
//!
//! Run with `cargo run --release --example irregular_pointers`.

use nachos::{pct_slowdown, Backend, EnergyModel, Run, SimConfig};
use nachos_ir::{AffineExpr, Binding, IntOp, LoopInfo, MemRef, RegionBuilder, UnknownPattern};

fn main() {
    // One store through an untraceable pointer, then eight independent
    // array streams the compiler proves disjoint from each other — but
    // not from the store.
    let mut b = RegionBuilder::new("irregular");
    let i = b.enclosing_loop(LoopInfo::range("i", 0, 64));
    let p = b.unknown_ptr();
    let x = b.input();
    b.store(MemRef::unknown(p, 0), &[x]);
    for lane in 0..8u32 {
        let g = b.global(&format!("a{lane}"), 1 << 16, lane);
        let ld = b.load(MemRef::affine(g, AffineExpr::var(i).scaled(64)), &[]);
        b.int_op(IntOp::Mul, &[ld]);
    }
    let region = b.finish();

    // The untraceable pointer lands in its own arena and never actually
    // collides with the arrays.
    let binding = Binding {
        base_addrs: (0..8).map(|k| 0x10_0000 + k * 0x2_0000).collect(),
        params: Vec::new(),
        unknowns: vec![UnknownPattern::Scatter {
            seed: 7,
            lo: 0x4000_0000,
            hi: 0x4000_2000,
            align: 8,
        }],
    };
    let config = SimConfig::default().with_invocations(64);
    let [lsq, sw, hw] = Backend::ALL.map(|backend| {
        Run::new(&region, &binding, backend)
            .execute(&config, &EnergyModel::default())
            .expect("simulate")
    });

    println!("one MAY store above eight independent loads:");
    println!(
        "  OPT-LSQ   : {:>7} cycles (dynamic checks in the CAM)",
        lsq.sim.cycles
    );
    println!(
        "  NACHOS-SW : {:>7} cycles ({:+.0}% vs OPT-LSQ — every load waits)",
        sw.sim.cycles,
        pct_slowdown(sw.sim.cycles, lsq.sim.cycles)
    );
    println!(
        "  NACHOS    : {:>7} cycles ({:+.0}% vs OPT-LSQ, {} `==?` checks)",
        hw.sim.cycles,
        pct_slowdown(hw.sim.cycles, lsq.sim.cycles),
        hw.sim.events.may_checks
    );
    println!();
    println!(
        "NACHOS-SW must serialize on compiler uncertainty; NACHOS checks the \
         addresses in hardware and lets the independent loads proceed."
    );
    assert!(
        sw.sim.cycles > hw.sim.cycles,
        "the checks must pay off here"
    );
}
