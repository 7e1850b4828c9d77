//! The central correctness property of the whole system: for every
//! Table II workload and every disambiguation backend, the final memory
//! state and every load's observed value equal those of a sequential
//! in-order execution.

use nachos::{reference, Backend, EnergyModel, Run, SimConfig};
use nachos_workloads::generate_all;

#[test]
fn all_workloads_all_backends_match_reference() {
    let config = SimConfig::default().with_invocations(12);
    let energy = EnergyModel::default();
    for w in generate_all() {
        let expected = reference::execute(&w.region, &w.binding, config.invocations);
        let runs = Backend::ALL.map(|backend| {
            Run::new(&w.region, &w.binding, backend)
                .execute(&config, &energy)
                .unwrap_or_else(|e| panic!("{}: {e}", w.spec.name))
        });
        for run in &runs {
            assert_eq!(
                run.sim.mem, expected.mem,
                "{} under {}: final memory state diverged",
                w.spec.name, run.sim.backend
            );
            assert_eq!(
                run.sim.loads.digest(),
                expected.loads.digest(),
                "{} under {}: load observations diverged",
                w.spec.name,
                run.sim.backend
            );
        }
    }
}

#[test]
fn secondary_paths_also_preserve_ordering() {
    let config = SimConfig::default().with_invocations(6);
    let energy = EnergyModel::default();
    for spec in nachos_workloads::all() {
        for path in [1u32, 3] {
            let w = nachos_workloads::generate_path(&spec, path);
            let expected = reference::execute(&w.region, &w.binding, config.invocations);
            let runs = Backend::ALL.map(|backend| {
                Run::new(&w.region, &w.binding, backend)
                    .execute(&config, &energy)
                    .unwrap_or_else(|e| panic!("{}.p{path}: {e}", spec.name))
            });
            for run in &runs {
                assert_eq!(
                    run.sim.loads.digest(),
                    expected.loads.digest(),
                    "{}.p{path} under {}: load observations diverged",
                    spec.name,
                    run.sim.backend
                );
            }
        }
    }
}
