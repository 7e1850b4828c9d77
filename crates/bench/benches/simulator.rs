//! Criterion micro-benchmarks: cycle-simulator throughput per backend.

use criterion::{criterion_group, criterion_main, Criterion};
use nachos::{Backend, EnergyModel, Run, SimConfig};
use nachos_workloads::{by_name, generate};
use std::hint::black_box;

fn bench_simulator(c: &mut Criterion) {
    let w = generate(&by_name("453.povray").expect("spec"));
    let config = SimConfig::default().with_invocations(8);
    let energy = EnergyModel::default();
    let mut group = c.benchmark_group("simulator_povray_8inv");
    for backend in Backend::ALL {
        group.bench_function(backend.to_string(), |b| {
            b.iter(|| {
                Run::new(black_box(&w.region), black_box(&w.binding), backend)
                    .execute(&config, &energy)
                    .expect("simulate")
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_simulator);
criterion_main!(benches);
