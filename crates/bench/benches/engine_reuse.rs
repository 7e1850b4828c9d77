//! Fresh-state vs arena-reset engine runs (`simulate_in` on a new
//! [`SimArena`] per run vs one pooled arena).
//!
//! Times one simulation of a Table II workload per backend with (a) all
//! engine state rebuilt from scratch and (b) a pooled [`SimArena`] reset
//! between runs. The allocation contracts of the same two paths (arena
//! reset allocates strictly less than fresh state, a `NoopSink` run no
//! more than a sinkless one) are asserted by the tier-1 test
//! `tests/arena.rs`, which counts allocations per thread.

use criterion::{criterion_group, criterion_main, Criterion};
use nachos::{simulate_in, Backend, EnergyModel, SimArena, SimConfig};
use nachos_alias::StageConfig;
use nachos_ir::{Binding, Region};
use nachos_workloads::{by_name, generate};
use std::hint::black_box;

/// The workload's region compiled once the way the driver would for the
/// MDE backends (the timed columns isolate the engine, not the compiler).
fn workload() -> (Region, Binding) {
    let w = generate(&by_name("453.povray").expect("spec"));
    let mut region = w.region;
    let _ = nachos_alias::compile(&mut region, StageConfig::full());
    (region, w.binding)
}

fn bench_engine_reuse(c: &mut Criterion) {
    let (region, binding) = workload();
    let config = SimConfig::default().with_invocations(8);
    let energy = EnergyModel::default();
    let mut group = c.benchmark_group("engine_reuse_povray_8inv");
    for backend in [Backend::Nachos, Backend::OptLsq] {
        group.bench_function(format!("{backend}/fresh"), |b| {
            b.iter(|| {
                simulate_in(
                    &mut SimArena::new(),
                    black_box(&region),
                    black_box(&binding),
                    backend,
                    &config,
                    &energy,
                )
                .expect("simulate")
            })
        });
        group.bench_function(format!("{backend}/arena-reset"), |b| {
            let mut arena = SimArena::new();
            b.iter(|| {
                simulate_in(
                    &mut arena,
                    black_box(&region),
                    black_box(&binding),
                    backend,
                    &config,
                    &energy,
                )
                .expect("simulate")
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_engine_reuse);
criterion_main!(benches);
