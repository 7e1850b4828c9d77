//! Design-space exploration: how NACHOS's comparator provisioning and the
//! OPT-LSQ's geometry trade off on a fan-in-heavy workload (the sar-pfa
//! pattern of Figure 14 and §VIII-A's contention discussion).
//!
//! Run with `cargo run --release --example design_space`.

use nachos::{Backend, EnergyModel, Run, SimConfig};
use nachos_workloads::{by_name, generate};

fn main() {
    let spec = by_name("sar-pfa.").expect("Table II row");
    let w = generate(&spec);
    let energy = EnergyModel::default();

    println!(
        "benchmark: {} ({} memory operations)",
        spec.name, spec.mem_ops
    );
    println!();

    // 1. Sweep comparators per `==?` site: the arbiter serializes checks,
    //    so fan-in-heavy sites benefit from extra comparators.
    println!("comparators/site sweep (NACHOS):");
    println!(
        "{:>18} {:>12} {:>14}",
        "comparators", "cycles", "MAY checks"
    );
    for comparators in [1u32, 2, 4, 8] {
        let config = SimConfig {
            comparators_per_site: comparators,
            ..SimConfig::default()
        }
        .with_invocations(32);
        let run = Run::new(&w.region, &w.binding, Backend::Nachos)
            .execute(&config, &energy)
            .expect("simulate");
        println!(
            "{comparators:>18} {:>12} {:>14}",
            run.sim.cycles, run.sim.events.may_checks
        );
    }

    // 2. Sweep LSQ allocation bandwidth: the in-order front end is the
    //    baseline's scaling limit (§VIII-C Challenge 2).
    println!();
    println!("LSQ allocation-bandwidth sweep (OPT-LSQ):");
    println!(
        "{:>18} {:>12} {:>14}",
        "allocs/cycle", "cycles", "CAM searches"
    );
    for apc in [1u32, 2, 4, 8] {
        let mut config = SimConfig::default().with_invocations(32);
        config.lsq.alloc_per_cycle = apc;
        let run = Run::new(&w.region, &w.binding, Backend::OptLsq)
            .execute(&config, &energy)
            .expect("simulate");
        println!(
            "{apc:>18} {:>12} {:>14}",
            run.sim.cycles,
            run.sim.events.lsq_cam_loads + run.sim.events.lsq_cam_stores
        );
    }

    println!();
    println!(
        "NACHOS scales by adding cheap comparators exactly where fan-in \
         concentrates; the LSQ must widen its entire in-order front end."
    );
}
