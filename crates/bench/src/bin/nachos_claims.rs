//! `nachos-claims [FIGURE]` — regenerate the paper's evaluation.
//!
//! Builds the [`nachos_bench::claims::Evidence`] once (the bench-matrix
//! suite, the path analyses, the ablations and the optimizer suite, every
//! run differential-checked) and prints every figure's per-row table and
//! claims, or only the figure named by id (`fig15`, `ablation-stages`,
//! …). Exit codes follow [`nachos_bench::exitcode`]: 0 on success, 1 for
//! an unknown figure id, 2 when a run diverged from the reference
//! executor.

use nachos_bench::claims::{figures, Evidence};
use nachos_bench::exitcode::Verdict;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut figures = figures();
    match args.as_slice() {
        [] => {}
        [id] if figures.iter().any(|f| f.id == id) => figures.retain(|f| f.id == id),
        _ => {
            let ids: Vec<_> = figures.iter().map(|f| f.id).collect();
            eprintln!("usage: nachos-claims [FIGURE]; figures: {}", ids.join(", "));
            return Verdict::Usage.exit();
        }
    }
    let evidence = Evidence::build().map_err(|why| eprintln!("error: {why}"));
    let Ok(evidence) = evidence else {
        return Verdict::Divergence.exit();
    };
    for f in &figures {
        print!("{}", f.render(&evidence));
    }
    Verdict::Success.exit()
}
