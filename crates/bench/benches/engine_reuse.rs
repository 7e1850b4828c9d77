//! Fresh-state vs arena-reset engine runs (`simulate_in` on a new
//! [`SimArena`] per run vs one pooled arena).
//!
//! Times one simulation of a Table II workload per backend with (a) all
//! engine state rebuilt from scratch and (b) a pooled [`SimArena`] reset
//! between runs, and counts heap allocations per run through a counting
//! global allocator. In steady state the arena path allocates no
//! engine-owned state — the remaining allocations come from the per-run
//! placement pass and the returned result — so the allocs/run gap
//! between the two columns is the state the arena pools.

use criterion::{criterion_group, criterion_main, Criterion};
use nachos::{simulate_in, Backend, EnergyModel, NoopSink, Run, SimArena, SimConfig};
use nachos_alias::StageConfig;
use nachos_ir::{Binding, Region};
use nachos_workloads::{by_name, generate};
use std::alloc::{GlobalAlloc, Layout, System};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};

/// Counts every heap allocation; benches are separate crates, so the
/// workspace libraries' `forbid(unsafe_code)` is not weakened.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocs() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

/// The raw workload and its region compiled once the way the driver
/// would for the MDE backends (the timed columns isolate the engine, not
/// the compiler).
fn workload() -> (Region, Region, Binding) {
    let w = generate(&by_name("453.povray").expect("spec"));
    let mut region = w.region.clone();
    let _ = nachos_alias::compile(&mut region, StageConfig::full());
    (w.region, region, w.binding)
}

fn bench_engine_reuse(c: &mut Criterion) {
    let (raw, region, binding) = workload();
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

        // Steady-state allocation counts (not timed): run once to warm
        // the pool, then measure the next run on each path.
        let fresh_allocs = {
            let fresh = || {
                simulate_in(
                    &mut SimArena::new(),
                    &region,
                    &binding,
                    backend,
                    &config,
                    &energy,
                )
            };
            let _ = fresh();
            let before = allocs();
            let _ = black_box(fresh());
            allocs() - before
        };
        let reuse_allocs = {
            let mut arena = SimArena::new();
            let _ = simulate_in(&mut arena, &region, &binding, backend, &config, &energy);
            let before = allocs();
            let _ = black_box(simulate_in(
                &mut arena, &region, &binding, backend, &config, &energy,
            ));
            allocs() - before
        };
        // Telemetry off must be free: a run with no sink attached pays
        // one branch per event and zero allocations beyond the sinkless
        // baseline. A `Run` with a `NoopSink` bounds it from the other
        // side — attaching the no-op sink allocates nothing either. Both
        // sides of this comparison go through `Run`, so both pay the same
        // compile.
        let (run_allocs, noop_allocs) = {
            let mut arena = SimArena::new();
            let mut sink = NoopSink;
            let _ = Run::new(&raw, &binding, backend)
                .arena(&mut arena)
                .sink(&mut sink)
                .execute(&config, &energy);
            let before = allocs();
            let _ = black_box(
                Run::new(&raw, &binding, backend)
                    .arena(&mut arena)
                    .execute(&config, &energy),
            );
            let run_allocs = allocs() - before;
            let before = allocs();
            let _ = black_box(
                Run::new(&raw, &binding, backend)
                    .arena(&mut arena)
                    .sink(&mut sink)
                    .execute(&config, &energy),
            );
            (run_allocs, allocs() - before)
        };
        println!(
            "engine_reuse_povray_8inv/{backend}: {fresh_allocs} allocs/run fresh, \
             {reuse_allocs} allocs/run arena-reset, {noop_allocs} with NoopSink \
             ({run_allocs} compiled without one)"
        );
        assert!(
            reuse_allocs < fresh_allocs,
            "arena reuse must allocate strictly less than fresh state \
             ({reuse_allocs} vs {fresh_allocs})"
        );
        assert!(
            noop_allocs <= run_allocs,
            "telemetry off must cost nothing: NoopSink runs allocate no more \
             than sinkless runs ({noop_allocs} vs {run_allocs})"
        );
    }
    group.finish();
}

criterion_group!(benches, bench_engine_reuse);
criterion_main!(benches);
