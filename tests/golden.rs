//! Golden-snapshot parity suite.
//!
//! The committed fixture (`tests/goldens/sweep-v5.json`) pins the
//! `nachos-sweep-v5` report of the layered scheduler-core + policy-trait
//! engine; any engine or orchestration change must reproduce it
//! **byte-identically** — cycles, stall attribution, event counts,
//! energy, cache statistics, attempt counts and the reference digests,
//! for all three paper backends, across six representative Table II
//! workloads (fully-resolved, MAY-heavy and multi-dimensional mixes).
//!
//! Regenerate with `NACHOS_BLESS_GOLDENS=1 cargo test --test golden` —
//! but only when a *deliberate* behaviour change is being made; diff the
//! fixture before committing.

use nachos::sweep::{run_sweep, SweepConfig, SweepJob};
use nachos_workloads::{by_name, generate};
use std::path::PathBuf;

/// A deliberate mix: fully-resolved affine workloads (`gzip`, `fft-2d`),
/// partially-resolved pointer chasers (`parser`, `183.equake`) and
/// MAY-heavy regions with real dynamic conflicts (`art`, `401.bzip2`).
const GOLDEN_WORKLOADS: [&str; 6] = ["gzip", "parser", "art", "183.equake", "401.bzip2", "fft-2d"];

const GOLDEN_INVOCATIONS: u64 = 12;

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("goldens")
        .join("sweep-v5.json")
}

fn golden_sweep_json() -> String {
    let jobs: Vec<SweepJob> = GOLDEN_WORKLOADS
        .iter()
        .map(|name| {
            let spec = by_name(name).unwrap_or_else(|| panic!("unknown workload {name}"));
            let w = generate(&spec);
            SweepJob::new(w.spec.name, w.region, w.binding)
        })
        .collect();
    let cfg = SweepConfig::default()
        .with_invocations(GOLDEN_INVOCATIONS)
        .with_threads(1);
    run_sweep(&jobs, &cfg).to_json()
}

#[test]
fn engine_reproduces_committed_goldens_byte_identically() {
    let json = golden_sweep_json();
    let path = golden_path();
    if std::env::var_os("NACHOS_BLESS_GOLDENS").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).expect("goldens dir");
        std::fs::write(&path, &json).expect("writing golden fixture");
        eprintln!("blessed {} ({} bytes)", path.display(), json.len());
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden fixture {} ({e}); regenerate with \
             NACHOS_BLESS_GOLDENS=1 cargo test --test golden",
            path.display()
        )
    });
    if json != expected {
        // Point at the first divergent line: a full-report assert_eq dump
        // is unreadable at this size.
        for (i, (got, want)) in json.lines().zip(expected.lines()).enumerate() {
            assert_eq!(
                got,
                want,
                "golden divergence at line {} of {}",
                i + 1,
                path.display()
            );
        }
        panic!(
            "golden length divergence: {} bytes generated vs {} committed",
            json.len(),
            expected.len()
        );
    }
}
