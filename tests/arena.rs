//! `SimArena` reuse is behaviour-invisible and allocation-cheap.
//!
//! Two contracts of the pooled engine state, pinned where tier-1 runs
//! them:
//!
//! * **No stale plan.** Each run rebuilds the engine's per-run plan
//!   (routes, operand lists, store list, gate template) and every
//!   policy's per-run tables in pooled buffers. A run on an arena that
//!   just simulated the *same nodes* with different ORDER and MAY edges
//!   must still equal a run on a fresh arena. The golden sweep never
//!   runs two compilations of one region back to back on one arena, so
//!   it cannot catch a template that leaks from one run into the next.
//! * **Allocation.** Counted per thread by a counting global allocator:
//!   a steady-state run on a warmed arena allocates strictly less than a
//!   run on fresh state, each no more than its committed ceiling, and
//!   attaching a `NoopSink` allocates nothing extra (telemetry off is
//!   free). The shard supervisor's stdout reader allocates nothing per
//!   worker line, record lines included, so its per-worker threads cost
//!   no malloc arena.

use nachos::json::checksum_frame;
use nachos::sweep::journal::{RunKey, MAX_RECORD_LEN};
use nachos::sweep::shard::{read_worker_line, WorkerLine};
use nachos::{simulate_in, Backend, EnergyModel, NoopSink, Run, SimArena, SimConfig, SimResult};
use nachos_alias::StageConfig;
use nachos_ir::{Binding, EdgeKind, Region};
use nachos_workloads::{by_name, generate};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Counts heap allocations made by the current thread, so tests running
/// in parallel in this binary do not see each other's.
struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: every call forwards to `System` unchanged; the counter is a
// const-initialized thread-local without a destructor, so touching it
// never allocates and never re-enters the allocator.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Heap allocations `f` makes on this thread.
fn allocs_of<T>(f: impl FnOnce() -> T) -> u64 {
    let before = ALLOCS.with(Cell::get);
    let _ = std::hint::black_box(f());
    ALLOCS.with(Cell::get) - before
}

const BACKENDS: [Backend; 4] = [
    Backend::NachosSw,
    Backend::OptLsq,
    Backend::Nachos,
    Backend::Ideal,
];

/// Every `SimResult` field but the final memory, as comparable text (the
/// memory is compared with its content-based `Eq`).
fn fingerprint(sim: &SimResult) -> String {
    format!(
        "{:?}|{}|{}|{:?}|{:?}|{:?}|{:?}|{:?}|{:?}|{:?}|{}|{}|{}|{:?}",
        sim.backend,
        sim.cycles,
        sim.invocations,
        sim.events,
        sim.stalls,
        sim.energy,
        sim.loads,
        sim.l1,
        sim.llc,
        sim.bloom,
        sim.comparator_sites,
        sim.queue_events,
        sim.heap_max_depth,
        sim.injected,
    )
}

fn compiled(raw: &Region, stages: StageConfig) -> Region {
    let mut region = raw.clone();
    let _ = nachos_alias::compile(&mut region, stages);
    region
}

#[test]
fn reused_arena_never_runs_a_stale_plan() {
    let w = generate(&by_name("464.h264ref").expect("spec"));
    let full = compiled(&w.region, StageConfig::full());
    let baseline = compiled(&w.region, StageConfig::baseline());
    let edges = |r: &Region| {
        (
            r.dfg.count_edges(EdgeKind::Order),
            r.dfg.count_edges(EdgeKind::May),
        )
    };
    assert_eq!(full.dfg.num_nodes(), baseline.dfg.num_nodes());
    assert_ne!(
        edges(&full),
        edges(&baseline),
        "the two compilations must differ in their ORDER/MAY edges"
    );
    let config = SimConfig::default().with_invocations(16);
    let energy = EnergyModel::default();
    let run = |arena: &mut SimArena, region: &Region, backend: Backend| {
        simulate_in(arena, region, &w.binding, backend, &config, &energy).expect("simulate")
    };
    // One arena across every backend (NACHOS-SW first), each backend
    // alternating between the two compilations of the same nodes.
    let mut shared = SimArena::new();
    for backend in BACKENDS {
        for (name, region) in [("full", &full), ("baseline", &baseline), ("full", &full)] {
            let reused = run(&mut shared, region, backend);
            let fresh = run(&mut SimArena::new(), region, backend);
            assert_eq!(
                fingerprint(&reused),
                fingerprint(&fresh),
                "{backend} on the {name} compilation: a reused arena diverged"
            );
            assert!(
                reused.mem == fresh.mem,
                "{backend} on the {name} compilation: final memory diverged"
            );
        }
    }
}

/// Steady-state allocations of one arena-reset run of the workload
/// below, measured the same on every backend (debug and release agree).
/// What still allocates is the per-run placement pass and what the
/// result owns (final memory, load digest, fault log); a change that
/// allocates more per run fails here.
const REUSE_CEILING: u64 = 259;

/// Allocations of one run of the same workload on a fresh arena, at
/// most: NACHOS takes 650, the other backends 342–370. A fresh arena
/// builds each cache's tag store in one allocation; a store of one
/// vector per set would add 4,352 (the LLC's 4,096 sets and the L1's
/// 256) and fail here.
const FRESH_CEILING: u64 = 650;

fn povray() -> (Region, Region, Binding) {
    let w = generate(&by_name("453.povray").expect("spec"));
    let region = compiled(&w.region, StageConfig::full());
    (w.region, region, w.binding)
}

#[test]
fn arena_reuse_and_telemetry_off_allocate_less() {
    let (raw, region, binding) = povray();
    let config = SimConfig::default().with_invocations(8);
    let energy = EnergyModel::default();
    for backend in BACKENDS {
        let sim = |arena: &mut SimArena| {
            simulate_in(arena, &region, &binding, backend, &config, &energy).expect("simulate")
        };
        // Warm each path once, then measure the next run.
        let _ = sim(&mut SimArena::new());
        let fresh = allocs_of(|| sim(&mut SimArena::new()));
        let mut arena = SimArena::new();
        let _ = sim(&mut arena);
        let reused = allocs_of(|| sim(&mut arena));
        println!("{backend}: {fresh} allocs/run fresh, {reused} arena-reset");
        assert!(
            reused < fresh,
            "{backend}: arena reuse must allocate strictly less than fresh state \
             ({reused} vs {fresh})"
        );
        assert!(
            fresh <= FRESH_CEILING,
            "{backend}: a fresh-arena run allocates {fresh}, above the committed {FRESH_CEILING}"
        );
        assert!(
            reused <= REUSE_CEILING,
            "{backend}: a reused-arena run allocates {reused}, above the committed {REUSE_CEILING}"
        );

        // Telemetry off must be free: a `Run` with a `NoopSink` allocates
        // no more than the same `Run` without a sink. Both sides go
        // through `Run`, so both pay the same compile.
        let mut arena = SimArena::new();
        let mut sink = NoopSink;
        let _ = Run::new(&raw, &binding, backend)
            .arena(&mut arena)
            .sink(&mut sink)
            .execute(&config, &energy);
        let sinkless = allocs_of(|| {
            Run::new(&raw, &binding, backend)
                .arena(&mut arena)
                .execute(&config, &energy)
        });
        let noop = allocs_of(|| {
            Run::new(&raw, &binding, backend)
                .arena(&mut arena)
                .sink(&mut sink)
                .execute(&config, &energy)
        });
        assert!(
            noop <= sinkless,
            "{backend}: telemetry off must cost nothing: NoopSink runs allocate no more \
             than sinkless runs ({noop} vs {sinkless})"
        );
    }
}

/// Every line shape a worker writes (and a malformed, a flipped and an
/// oversized one) is read without a heap allocation: a control line
/// into the reader's buffer, and a record line into a buffer that then
/// leaves for the monitor while the next line is read into a spare from
/// a preallocated pool, as the supervisor's reader threads do.
#[test]
fn worker_lines_are_read_without_allocating() {
    let key = RunKey(0x0123_4567_89ab_cdef);
    let record = checksum_frame(&format!("{{\"journal\": \"any\", \"key\": \"{key}\"}}")) + "\n";
    let lines = [
        "{\"ack\": 12}\n".to_owned(),
        format!("{{\"start\": \"{key}\"}}\n"),
        record.clone(),
        "{\"alive\": true}\n".to_owned(),
        "{\"ack\": \"12\"}\n".to_owned(),
        record.replace("any", "anz"),
        format!("{}\n", "x".repeat(MAX_RECORD_LEN)),
        record,
    ];
    let stdout = lines.concat();
    let (pool, spares) = std::sync::mpsc::sync_channel(2);
    pool.send(Vec::with_capacity(MAX_RECORD_LEN)).unwrap();
    let mut buf = Vec::with_capacity(MAX_RECORD_LEN);
    let mut reader = stdout.as_bytes();
    let mut read = Vec::with_capacity(lines.len());
    let allocs = allocs_of(|| {
        for _ in &lines {
            let line = read_worker_line(&mut reader, &mut buf);
            if line == WorkerLine::Record {
                // The record leaves in its buffer, and the monitor hands
                // the buffer back once it has parsed it.
                let full = std::mem::replace(&mut buf, spares.recv().unwrap());
                pool.send(full).unwrap();
            }
            read.push(line);
        }
    });
    assert_eq!(allocs, 0, "{read:?}");
    assert_eq!(
        read,
        [
            WorkerLine::Ack(12),
            WorkerLine::Start(key),
            WorkerLine::Record,
            WorkerLine::Alive,
            WorkerLine::Malformed,
            WorkerLine::Malformed,
            WorkerLine::Malformed,
            WorkerLine::Record,
        ]
    );
}
