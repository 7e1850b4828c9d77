//! Read-only cross-check of the committed perf artifact: outside the
//! timed runs, the path-0, 64-invocation suite with the IDEAL column
//! must reproduce `BENCH_sweep.json`'s per-workload cycles. A mismatch
//! means the program changed its simulated results without re-blessing
//! the artifact, and counts as failed.

use crate::metrics::Outcome;
use nachos::sweep::journal::{parse_json, Json};
use nachos::sweep::run_sweep;
use std::path::Path;

pub fn artifact(path: &Path, out: &mut Outcome) {
    let (jobs, cfg) = (
        nachos_bench::suite_jobs(),
        nachos_bench::suite_config(64, crate::shards(), true),
    );
    let cells = (jobs.len() * cfg.variants.len()) as u64;
    let doc = std::fs::read_to_string(path)
        .ok()
        .and_then(|t| parse_json(&t));
    let Some(doc) = doc else {
        eprintln!("perfbench: FAILED cannot read {}", path.display());
        out.count(cells, cells);
        return;
    };
    let committed = |job: &str, variant: &str| {
        doc.get("workloads")?
            .as_arr()?
            .iter()
            .find(|w| w.get("name").and_then(Json::as_str) == Some(job))?
            .get("cycles")?
            .get(variant)?
            .as_u64()
    };
    let result = run_sweep(&jobs, &cfg);
    let mut stale = 0;
    for job in &result.jobs {
        for run in &job.runs {
            let ours = run.metrics.map(|m| m.cycles);
            let theirs = committed(&job.name, &run.variant);
            if ours.is_none() || ours != theirs {
                stale += 1;
                eprintln!(
                    "perfbench: FAILED {}/{}: {ours:?} cycles, BENCH_sweep.json says {theirs:?}",
                    job.name, run.variant
                );
            }
        }
    }
    out.count(cells, stale);
}
