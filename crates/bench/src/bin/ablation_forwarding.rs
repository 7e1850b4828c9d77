//! Ablation: store-to-load forwarding. Downgrades every FORWARD edge to a
//! plain ORDER edge (the load stalls until the store commits instead of
//! consuming the value directly) to measure what forwarding buys —
//! bodytrack is the paper's headline case (§VIII-A).

use nachos::{pct_slowdown, simulate_in, Backend, EnergyModel, SimArena, SimConfig};
use nachos_alias::{compile, StageConfig};
use nachos_ir::EdgeKind;
use nachos_workloads::{by_name, generate};

fn main() {
    nachos_bench::banner(
        "Ablation: ST->LD forwarding vs ordering-only",
        "§VIII-A (bodytrack's forwarding benefit)",
    );
    let config = SimConfig::default().with_invocations(32);
    let energy = EnergyModel::default();
    println!(
        "{:<14} {:>9} {:>12} {:>14} {:>10}",
        "App", "forwards", "with (cyc)", "without (cyc)", "benefit"
    );
    for name in ["bodytrack", "453.povray", "namd", "freqmi."] {
        let w = generate(&by_name(name).expect("spec"));

        let mut with_fwd = w.region.clone();
        compile(&mut with_fwd, StageConfig::full());

        // Downgrade: rebuild the region with every forward edge replaced
        // by an order edge.
        let mut without_fwd = with_fwd.clone();
        let forwards: Vec<_> = without_fwd
            .dfg
            .edges()
            .filter(|e| e.kind == EdgeKind::Forward)
            .copied()
            .collect();
        let all_mdes: Vec<_> = without_fwd
            .dfg
            .edges()
            .filter(|e| e.kind.is_mde())
            .copied()
            .collect();
        without_fwd.dfg.clear_mdes();
        for e in &all_mdes {
            let kind = if e.kind == EdgeKind::Forward {
                EdgeKind::Order
            } else {
                e.kind
            };
            without_fwd
                .dfg
                .add_edge(e.src, e.dst, kind)
                .expect("re-inserting planned edges");
        }

        let base = simulate_in(
            &mut SimArena::new(),
            &with_fwd,
            &w.binding,
            Backend::Nachos,
            &config,
            &energy,
        )
        .expect("simulate");
        let degraded = simulate_in(
            &mut SimArena::new(),
            &without_fwd,
            &w.binding,
            Backend::Nachos,
            &config,
            &energy,
        )
        .expect("simulate");
        println!(
            "{:<14} {:>9} {:>12} {:>14} {:>+9.1}%",
            name,
            forwards.len(),
            base.cycles,
            degraded.cycles,
            pct_slowdown(degraded.cycles, base.cycles),
        );
    }
    println!();
    println!("Forwarding converts a memory dependence into a data dependence; the");
    println!("benefit column is the slowdown suffered when it is disabled.");
}
