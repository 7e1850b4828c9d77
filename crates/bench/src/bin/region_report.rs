//! Region inspector: prints the full compiler story for one benchmark —
//! region shape, per-stage label movement, the enforced MDEs, fan-in, and
//! the three backends' timing/energy — plus an optional DOT dump.
//!
//! Usage: `cargo run --release -p nachos-bench --bin region_report -- <name> [--dot]`
//! (e.g. `183.equake`, `401.bzip2`; run without arguments to list names).

use nachos::{Backend, CompileMemo, EnergyModel, Run, SimConfig};
use nachos_alias::{may_fanin, StageConfig};
use nachos_workloads::{by_name, generate};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(name) = args.first().filter(|a| !a.starts_with("--")) else {
        eprintln!("available benchmarks:");
        for s in nachos_workloads::all() {
            eprintln!("  {}", s.name);
        }
        std::process::exit(2);
    };
    let Some(spec) = by_name(name) else {
        eprintln!("unknown benchmark `{name}` — run without arguments for the list");
        std::process::exit(2);
    };
    let w = generate(&spec);
    println!("=== {} ===", spec.name);
    println!(
        "region: {} ops ({} mem, {} scratchpad), MLP target {}, {:?} cache class",
        w.region.dfg.num_nodes(),
        w.region.num_global_mem_ops(),
        w.region.num_scratchpad_ops(),
        spec.mlp,
        spec.miss,
    );

    // One memo serves the compiler story, the three runs and `--dot`:
    // NACHOS-SW and NACHOS share its full-stage entry.
    let config = SimConfig::default().with_invocations(64);
    let mut memo = CompileMemo::new(&w.region);
    let full = memo.get(Backend::Nachos, &config, StageConfig::full());
    let a = full
        .expect("compiled")
        .analysis
        .clone()
        .expect("MDE analysis");
    let r = &a.report;
    println!();
    println!("compiler ({} tracked pairs):", r.num_pairs);
    println!(
        "  stage 1: {:>5} NO {:>5} MAY {:>5} MUST",
        r.after_stage1.no, r.after_stage1.may, r.after_stage1.must
    );
    println!(
        "  stage 2: {:>5} NO {:>5} MAY {:>5} MUST   ({} refined)",
        r.after_stage2.no, r.after_stage2.may, r.after_stage2.must, r.stage2_refined
    );
    println!(
        "  stage 4: {:>5} NO {:>5} MAY {:>5} MUST   ({} refined)",
        r.final_labels.no, r.final_labels.may, r.final_labels.must, r.stage4_refined
    );
    println!(
        "  stage 3 pruned {} relations; enforced MDEs: {} order, {} forward, {} may",
        r.pruned, r.mdes.0, r.mdes.1, r.mdes.2
    );
    let fanin = may_fanin(&a);
    if let Some(max) = fanin.iter().copied().max().filter(|&m| m > 0) {
        let hot = fanin.iter().filter(|&&f| f > 2).count();
        println!("  MAY fan-in: max {max} parents; {hot} ops with >2 parents");
    } else {
        println!("  MAY fan-in: none (fully resolved at compile time)");
    }

    let runs = Backend::ALL.map(|backend| {
        Run::new(&w.region, &w.binding, backend)
            .memo(&mut memo)
            .execute(&config, &EnergyModel::default())
            .expect("simulate")
    });
    println!();
    println!(
        "{:<10} {:>10} {:>12} {:>10} {:>10} {:>10}",
        "backend", "cycles", "energy (nJ)", "L1 miss%", "forwards", "checks"
    );
    for run in &runs {
        println!(
            "{:<10} {:>10} {:>12.1} {:>9.1}% {:>10} {:>10}",
            run.sim.backend.to_string(),
            run.sim.cycles,
            run.sim.energy.total() / 1e6,
            100.0 * run.sim.l1.miss_ratio(),
            run.sim.events.forwards,
            run.sim.events.may_checks,
        );
    }

    if args.iter().any(|a| a == "--dot") {
        let compiled = memo.get(Backend::Nachos, &config, StageConfig::full());
        println!();
        println!("{}", nachos_ir::to_dot(&compiled.expect("compiled").region));
    }
}
