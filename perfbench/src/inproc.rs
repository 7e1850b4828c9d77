//! The in-process workloads, suite-long and paths-compile: one
//! closed-loop client submitting one job at a time to `run_sweep`. A
//! single client keeps each job's latency free of whichever job would
//! share the machine with it.

use crate::cells::{self, PassCounts, STALL_NAMES};
use crate::gen::{self, Workload};
use crate::metrics::Outcome;
use crate::stats::median;
use crate::trace::Tracer;
use nachos::sweep::{run_sweep, SweepConfig, SweepJob};
use std::time::{Duration, Instant};

/// Untraced run: end-to-end metrics.
pub fn measure(w: Workload, seed: u64, seconds: f64, out: &mut Outcome) {
    let regions = gen::regions(w, seed);
    let (mut setup, jobs) =
        crate::Setup::start(|| Ok(gen::jobs(&regions))).expect("generation does not fail");
    let lp = closed_loop(
        &jobs,
        w.job_size(),
        &w.config(),
        Duration::from_secs_f64(seconds),
        &mut || setup.tick().expect("generation does not fail"),
    );
    out.set("setup_s", setup.median_s());
    out.count(lp.cells, lp.failed);
    out.set("cells_per_s", crate::median_rate(&lp.rounds));
    crate::set_latencies(out, &lp.latencies_ms);
    out.set("peak_rss_mb", crate::peak_rss_mb(None));
    out.set("nachos_cycles", lp.nachos_cycles as f64);
}

/// Outcome of one closed-loop measurement.
pub struct Loop {
    pub cells: u64,
    pub failed: u64,
    pub latencies_ms: Vec<f64>,
    /// Per round: cells and summed job seconds.
    pub rounds: Vec<(u64, f64)>,
    /// Simulated cycles of the NACHOS cells over one pass of the jobs.
    pub nachos_cycles: u64,
}

/// Runs whole rounds over `jobs` until `budget` has passed: every
/// round submits each consecutive group of `size` regions once, in
/// order, as one job, and calls `between` before each job. A region
/// that reports other cycles than in its first round is a failure: the
/// simulator is deterministic.
pub fn closed_loop(
    jobs: &[SweepJob],
    size: usize,
    cfg: &SweepConfig,
    budget: Duration,
    between: &mut dyn FnMut(),
) -> Loop {
    let groups: Vec<&[SweepJob]> = jobs.chunks(size.max(1)).collect();
    let n = groups.len();
    let mut first: Vec<Option<u64>> = vec![None; jobs.len()];
    let mut lp = Loop {
        cells: 0,
        failed: 0,
        latencies_ms: Vec::new(),
        rounds: Vec::new(),
        nachos_cycles: 0,
    };
    let start = Instant::now();
    let mut i = 0;
    while i == 0 || i % n != 0 || start.elapsed() < budget {
        let g = i % n;
        i += 1;
        between();
        let t0 = Instant::now();
        let r = run_sweep(groups[g], cfg);
        let took = t0.elapsed().as_secs_f64();
        lp.latencies_ms.push(took * 1e3);
        if g == 0 {
            lp.rounds.push((0, 0.0));
        }
        let round = lp
            .rounds
            .last_mut()
            .expect("a round opens at its first job");
        round.0 += r.jobs.iter().map(|j| j.runs.len() as u64).sum::<u64>();
        round.1 += took;
        for (k, job) in r.jobs.iter().enumerate() {
            for run in &job.runs {
                lp.cells += 1;
                lp.failed += u64::from(!run.matches_reference());
                if run.variant == "nachos" {
                    let cycles = run.metrics.map(|m| m.cycles);
                    let seen = first[g * size + k].get_or_insert(cycles.unwrap_or(0));
                    lp.failed += u64::from(cycles != Some(*seen));
                }
            }
        }
    }
    lp.nachos_cycles = first.iter().flatten().sum();
    lp
}

/// Traced run: per-layer metrics from the decomposed cell pass.
pub fn trace(w: Workload, seed: u64, seconds: f64, out: &mut Outcome) -> Tracer {
    let regions = gen::regions(w, seed);
    let mut gen_tr = Tracer::new(true);
    let jobs = gen_tr.time("workloads.generate", 0, || gen::jobs(&regions));
    out.set(
        "workloads.generate_ms",
        ms(gen_tr.total("workloads.generate")),
    );
    let cfg = w.config();
    let layers = layer_reps(&jobs, &cfg, seconds, out);
    crate::set_service_zero(out, &["daemon", "journal", "cache", "shard"]);
    layers
}

/// Per-layer time metrics and the span each one sums.
const LAYER_TIMES: [(&str, &str); 6] = [
    ("reference.execute_ms", "reference.execute"),
    ("alias.compile_ms", "alias.compile"),
    ("alias.optimize_ms", "alias.optimize"),
    ("alias.audit_ms", "alias.audit"),
    ("ir.validate_ms", "ir.validate"),
    ("cgra.place_ms", "cgra.place"),
];

/// Variant labels with an `engine.simulate_ms.<label>` metric.
const VARIANTS: [&str; 5] = [
    "opt-lsq",
    "nachos-sw",
    "nachos",
    "nachos-sw-baseline",
    "ideal",
];

/// One traced pass's layer times in milliseconds: `LAYER_TIMES`, then
/// the engine time per variant of `VARIANTS`.
fn layer_times(tr: &Tracer) -> Vec<f64> {
    let spans = LAYER_TIMES.iter().map(|(_, span)| (*span).to_owned());
    let engine = VARIANTS.iter().map(|label| cells::engine_span(label));
    spans.chain(engine).map(|s| ms(tr.total(&s))).collect()
}

/// Repeats (untraced pass, traced pass, serial `run_sweep`) until
/// `seconds` have passed, at least twice, and sets every engine,
/// compiler and sweep metric from the medians over repetitions. The
/// coverage is the share of the serial `run_sweep` wall time the layer
/// spans account for; the rest is `sweep.self_ms`. Returns the first
/// traced pass's spans.
pub fn layer_reps(jobs: &[SweepJob], cfg: &SweepConfig, seconds: f64, out: &mut Outcome) -> Tracer {
    let serial = cfg.clone().with_threads(1);
    let start = Instant::now();
    let (mut plain, mut traced, mut sweep, mut covered) = (vec![], vec![], vec![], vec![]);
    let mut times: Vec<Vec<f64>> = Vec::new();
    let mut kept: Option<Tracer> = None;
    let mut counts = PassCounts::default();
    while plain.len() < 2 || start.elapsed().as_secs_f64() < seconds {
        // Alternate which pass runs first, so warm-up lands on each.
        let plain_first = plain.len() % 2 == 0;
        let mut run_plain = |out: &mut Outcome| {
            let t0 = Instant::now();
            let c = cells::pass(jobs, &serial, &mut Tracer::new(false));
            plain.push(ms(t0.elapsed()));
            out.count(c.cells, c.failed);
        };
        if plain_first {
            run_plain(out);
        }
        let mut tr = Tracer::new(true);
        let t0 = Instant::now();
        counts = cells::pass(jobs, &serial, &mut tr);
        traced.push(ms(t0.elapsed()));
        out.count(counts.cells, counts.failed);
        covered.push(ms(tr.covered(cells::ROOT)));
        times.push(layer_times(&tr));
        kept.get_or_insert(tr);
        if !plain_first {
            run_plain(out);
        }

        let t0 = Instant::now();
        let r = run_sweep(jobs, &serial);
        sweep.push(ms(t0.elapsed()));
        let runs = r.jobs.iter().flat_map(|j| &j.runs);
        let bad = runs.clone().filter(|r| !r.matches_reference()).count();
        out.count(runs.count() as u64, bad as u64);
    }
    let med = |xs: &[f64]| median(xs).unwrap_or(0.0);
    let column = |i: usize| med(&times.iter().map(|t| t[i]).collect::<Vec<_>>());
    for (i, (metric, _)) in LAYER_TIMES.iter().enumerate() {
        out.set(metric, column(i));
    }
    for (i, label) in VARIANTS.iter().enumerate() {
        out.set(
            &format!("engine.simulate_ms.{label}"),
            column(LAYER_TIMES.len() + i),
        );
    }
    let engine_ms = med(&times
        .iter()
        .map(|t| t[LAYER_TIMES.len()..].iter().sum())
        .collect::<Vec<_>>());
    set_counts(out, &counts, engine_ms);
    out.set("sweep.self_ms", med(&sweep) - med(&covered));
    out.set("trace.coverage", med(&covered) / med(&sweep));
    out.set("trace.overhead", med(&traced) / med(&plain) - 1.0);
    kept.unwrap_or_else(|| Tracer::new(false))
}

/// The counted (not timed) per-layer metrics of one pass.
pub fn set_counts(out: &mut Outcome, c: &PassCounts, engine_ms: f64) {
    out.set("engine.events", c.events as f64);
    out.set(
        "engine.ns_per_event",
        if c.events == 0 {
            0.0
        } else {
            engine_ms * 1e6 / c.events as f64
        },
    );
    out.set("engine.queue_max_depth", c.queue_max_depth as f64);
    out.set(
        "mem.l1_hit_ratio",
        if c.l1_accesses == 0 {
            0.0
        } else {
            c.l1_hits as f64 / c.l1_accesses as f64
        },
    );
    for (name, v) in STALL_NAMES.iter().zip(c.stalls) {
        out.set(&format!("engine.stall_cycles.{name}"), v as f64);
    }
    out.set("alias.may_pairs", c.may_pairs as f64);
    out.set("alias.mdes", c.mdes as f64);
    out.set("alias.order_removed", c.order_removed as f64);
    out.set("alias.may_coalesced", c.may_coalesced as f64);
    out.set("alias.audit_errors", c.audit_errors as f64);
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}
