//! The traced serial cell pass: the work `run_sweep` does for each
//! (job, variant) cell, decomposed into calls to each layer's public
//! function so every call can be timed from outside.
//!
//! Per job it runs the reference executor once, compiles once per
//! distinct `(uses MDEs, stages)` pair as the sweep's compile cache
//! does (validate, compile, optimize, quick audit — or the MDE-free
//! rewiring for OPT-LSQ), places the compiled graph once more as a
//! standalone call, and simulates every variant against the reference.

use crate::trace::Tracer;
use nachos::sweep::{SweepConfig, SweepJob};
use nachos::{reference, SimArena};
use nachos_alias::{AuditConfig, Diagnostic, StageConfig};
use nachos_cgra::Placement;
use nachos_ir::Region;

/// Root span name of the cell pass.
pub const ROOT: &str = "sweep";

/// Counts gathered by one cell pass; times live in the tracer.
#[derive(Clone, Debug, Default)]
pub struct PassCounts {
    pub cells: u64,
    pub failed: u64,
    pub nachos_cycles: u64,
    pub events: u64,
    pub queue_max_depth: u64,
    pub l1_hits: u64,
    pub l1_accesses: u64,
    /// lsq_alloc, lsq_search, token, may_gate, comparator, mem_port.
    pub stalls: [u64; 6],
    pub may_pairs: u64,
    pub mdes: u64,
    pub order_removed: u64,
    pub may_coalesced: u64,
    pub audit_errors: u64,
}

pub const STALL_NAMES: [&str; 6] = [
    "lsq_alloc",
    "lsq_search",
    "token",
    "may_gate",
    "comparator",
    "mem_port",
];

/// Span name of the engine call for one variant label.
pub fn engine_span(label: &str) -> String {
    format!("engine.simulate.{label}")
}

/// Runs every cell of `jobs` × `cfg.variants` serially, recording
/// spans into `tr` (a no-op when the tracer is off).
pub fn pass(jobs: &[SweepJob], cfg: &SweepConfig, tr: &mut Tracer) -> PassCounts {
    let mut c = PassCounts::default();
    let mut arena = SimArena::new();
    let root = tr.open(ROOT, 0);
    for (ji, job) in jobs.iter().enumerate() {
        let id = ji as u64;
        let span = tr.open("job", id);
        let reference = tr.time("reference.execute", id, || {
            reference::execute(&job.region, &job.binding, cfg.sim.invocations)
        });
        let mut compiled: Vec<((bool, StageConfig), Option<Region>)> = Vec::new();
        for v in &cfg.variants {
            c.cells += 1;
            let key = (v.backend.uses_mdes(), v.stages);
            let i = match compiled.iter().position(|(k, _)| *k == key) {
                Some(i) => i,
                None => {
                    let r = compile(&job.region, key, cfg, tr, id, &mut c);
                    compiled.push((key, r));
                    compiled.len() - 1
                }
            };
            let Some(region) = &compiled[i].1 else {
                c.failed += 1;
                continue;
            };
            let sim = tr.time(&engine_span(&v.label), id, || {
                nachos::simulate_in(
                    &mut arena,
                    region,
                    &job.binding,
                    v.backend,
                    &cfg.sim,
                    &cfg.energy,
                )
            });
            let Ok(sim) = sim else {
                c.failed += 1;
                continue;
            };
            if sim.mem != reference.mem || sim.loads.digest() != reference.loads.digest() {
                c.failed += 1;
            }
            if v.label == "nachos" {
                c.nachos_cycles += sim.cycles;
            }
            c.events += sim.queue_events;
            c.queue_max_depth = c.queue_max_depth.max(sim.heap_max_depth);
            c.l1_hits += sim.l1.hits;
            c.l1_accesses += sim.l1.accesses();
            let s = sim.stalls;
            for (acc, x) in c.stalls.iter_mut().zip([
                s.lsq_alloc,
                s.lsq_search,
                s.token,
                s.may_gate,
                s.comparator,
                s.mem_port,
            ]) {
                *acc += x;
            }
        }
        tr.close(span);
    }
    tr.close(root);
    c
}

/// Compiles `region` for one `(uses MDEs, stages)` class as
/// `compile_for_backend` does; `None` when validation or the audit
/// rejects it.
fn compile(
    region: &Region,
    (uses_mdes, stages): (bool, StageConfig),
    cfg: &SweepConfig,
    tr: &mut Tracer,
    id: u64,
    c: &mut PassCounts,
) -> Option<Region> {
    tr.time("ir.validate", id, || nachos_ir::validate_region(region))
        .ok()?;
    let mut compiled = region.clone();
    if uses_mdes {
        let mut analysis = tr.time("alias.compile", id, || {
            nachos_alias::compile(&mut compiled, stages)
        });
        if cfg.sim.optimize {
            tr.time("alias.optimize", id, || {
                nachos_alias::optimize(&mut compiled, &mut analysis);
            });
        }
        let errors = tr.time("alias.audit", id, || {
            nachos_alias::audit_with(&compiled, &analysis, stages, &AuditConfig::quick())
                .iter()
                .filter(|d| Diagnostic::is_error(d))
                .count() as u64
        });
        c.audit_errors += errors;
        c.may_pairs += analysis.report.final_labels.may as u64;
        c.mdes += analysis.report.num_mdes() as u64;
        if let Some(opt) = &analysis.opt {
            c.order_removed += opt.stats.order_removed as u64;
            c.may_coalesced += opt.stats.may_coalesced as u64;
        }
        if errors > 0 {
            return None;
        }
    } else {
        tr.time("alias.compile", id, || {
            compiled.dfg.clear_mdes();
            nachos_alias::wire_local_deps(&mut compiled);
        });
    }
    // The engine places the graph itself on every run; this extra call
    // times placement alone and stays out of the coverage sum.
    let span = tr.open_standalone("cgra.place", id);
    let placed = Placement::compute(&compiled.dfg, cfg.sim.grid);
    tr.close(span);
    placed.ok().map(|_| compiled)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{jobs, regions, Workload};

    #[test]
    fn placement_is_timed_but_not_counted_twice() {
        let w = Workload::PathsCompile;
        let js = jobs(&regions(w, 3)[..4]);
        let mut tr = Tracer::new(true);
        let counts = pass(&js, &w.config(), &mut tr);
        assert_eq!(counts.failed, 0);
        assert_eq!(counts.cells, 16);
        let place: Vec<_> = tr
            .spans()
            .iter()
            .filter(|s| s.name == "cgra.place")
            .collect();
        assert_eq!(place.len(), 4 * 3, "one standalone placement per compile");
        assert!(place.iter().all(|s| s.standalone));
        // Coverage is exactly the counted layer spans: dropping the
        // placement spans from the trace leaves it unchanged.
        let counted: std::time::Duration = tr
            .spans()
            .iter()
            .filter(|s| !s.standalone && !matches!(s.name.as_str(), ROOT | "job"))
            .map(|s| s.duration())
            .sum();
        assert_eq!(tr.covered(ROOT), counted);
        assert!(tr.covered(ROOT) <= tr.total(ROOT));
        assert!(tr.total("cgra.place") > std::time::Duration::ZERO);
    }

    #[test]
    fn an_untraced_pass_records_nothing_and_counts_the_same() {
        let w = Workload::SuiteLong;
        let js = jobs(&regions(w, 1)[..2]);
        let mut cfg = w.config();
        cfg.sim.invocations = 4;
        let mut on = Tracer::new(true);
        let mut off = Tracer::new(false);
        let a = pass(&js, &cfg, &mut on);
        let b = pass(&js, &cfg, &mut off);
        assert!(off.spans().is_empty());
        assert_eq!(a.nachos_cycles, b.nachos_cycles);
        assert_eq!(a.events, b.events);
        assert_eq!(a.cells, 10);
    }
}
