//! The one matrix resolver: turns a [`MatrixSpec`] into the jobs and
//! configuration the sweep harness runs.
//!
//! Both front doors go through this function — the one-shot `sweep`
//! binary resolves its CLI flags here, and `nachos-sweepd` installs it
//! as the daemon's [`MatrixResolver`] — so a spec submitted over the
//! socket resolves to *exactly* the matrix the CLI would run. That
//! shared path is what makes the daemon's byte-identical-report
//! guarantee cheap: identical specs produce identical jobs, identical
//! fingerprints, and therefore identical `nachos-sweep-v4` bytes.
//!
//! Resolution is strict: an unknown variant label, a filter that
//! matches nothing, or a poison target that does not exist is an
//! `Err` with a deterministic message — the CLI maps it to a usage
//! error, the daemon to a `bad_spec` rejection; neither admits the
//! matrix.
//!
//! [`MatrixResolver`]: nachos::sweep::daemon::MatrixResolver

use nachos::sweep::daemon::MatrixSpec;
use nachos::sweep::{SweepConfig, SweepJob};
use nachos::{FaultKind, FaultPlan, FaultSpec, WatchdogConfig};

/// Resolves a submitted spec against the Table II suite.
///
/// # Errors
///
/// A deterministic description of the first unresolvable field: a
/// filter matching no workload, an unknown poison target, an unknown
/// variant label, or an empty variant list.
pub fn resolve(spec: &MatrixSpec) -> Result<(Vec<SweepJob>, SweepConfig), String> {
    let mut jobs = crate::suite_jobs();
    if let Some(f) = &spec.filter {
        jobs.retain(|j| j.name.contains(f.as_str()));
        if jobs.is_empty() {
            return Err(format!("--filter {f:?} matches no workload"));
        }
    }
    if let Some(name) = &spec.poison {
        let Some(job) = jobs.iter_mut().find(|j| &j.name == name) else {
            return Err(format!("--poison knows no workload {name:?}"));
        };
        job.fault = FaultPlan::single(FaultSpec::new(FaultKind::PanicOnEvent, 0));
    }
    let mut cfg = crate::suite_config(spec.invocations, spec.threads, false);
    if let Some(labels) = &spec.variants {
        let mut variants = Vec::new();
        for label in labels.iter().map(|l| l.trim()).filter(|l| !l.is_empty()) {
            match crate::variant_by_label(label) {
                Some(v) => variants.push(v),
                None => return Err(format!("--variants knows no label {label:?}")),
            }
        }
        if variants.is_empty() {
            return Err("--variants requires at least one label".to_owned());
        }
        cfg = cfg.with_variants(variants);
    }
    if spec.ideal && !cfg.variants.iter().any(|v| v.label == "ideal") {
        cfg = cfg.with_ideal();
    }
    if spec.optimize {
        cfg = cfg.with_optimize(true);
    }
    cfg = cfg.with_retries(spec.max_retries);
    if let Some((base_cycles, cycles_per_node)) = spec.watchdog {
        // Unlike the wall-clock deadline, the cycle budget shapes
        // simulated behavior and so legitimately enters the config
        // (and with it every run fingerprint).
        cfg.sim.watchdog = WatchdogConfig {
            base_cycles,
            cycles_per_node,
        };
    }
    Ok((jobs, cfg))
}

/// Splits the raw comma-separated `--variants` value into the spec's
/// label list (trimmed, empties dropped; `None` stays `None`).
#[must_use]
pub fn parse_variants(variant_list: Option<&str>) -> Option<Vec<String>> {
    variant_list.map(|list| {
        list.split(',')
            .map(str::trim)
            .filter(|s| !s.is_empty())
            .map(str::to_owned)
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_spec_resolves_to_the_full_suite() {
        let (jobs, cfg) = resolve(&MatrixSpec::default()).unwrap();
        assert_eq!(jobs.len(), 27);
        assert_eq!(cfg.variants.len(), 4);
        assert_eq!(cfg.sim.invocations, 64);
    }

    #[test]
    fn spec_fields_map_onto_the_config() {
        let spec = MatrixSpec {
            invocations: 3,
            ideal: true,
            optimize: true,
            max_retries: 2,
            filter: Some("gzip".to_owned()),
            poison: Some("gzip".to_owned()),
            watchdog: Some((1234, 56)),
            ..MatrixSpec::default()
        };
        let (jobs, cfg) = resolve(&spec).unwrap();
        assert_eq!(jobs.len(), 1);
        assert!(!jobs[0].fault.is_empty(), "poison attaches a fault plan");
        assert!(cfg.variants.iter().any(|v| v.label == "ideal"));
        assert!(cfg.sim.optimize);
        assert_eq!(cfg.retry.max_retries, 2);
        assert_eq!(cfg.sim.watchdog.base_cycles, 1234);
        assert_eq!(cfg.sim.watchdog.cycles_per_node, 56);
    }

    #[test]
    fn unresolvable_specs_describe_themselves() {
        let bad_filter = MatrixSpec {
            filter: Some("no-such-workload".to_owned()),
            ..MatrixSpec::default()
        };
        assert!(resolve(&bad_filter).unwrap_err().contains("no workload"));
        let bad_poison = MatrixSpec {
            poison: Some("no-such-workload".to_owned()),
            ..MatrixSpec::default()
        };
        assert!(resolve(&bad_poison).unwrap_err().contains("--poison"));
        let bad_variant = MatrixSpec {
            variants: Some(vec!["warp-drive".to_owned()]),
            ..MatrixSpec::default()
        };
        assert!(resolve(&bad_variant).unwrap_err().contains("--variants"));
    }

    #[test]
    fn flag_form_round_trips_variant_lists() {
        let spec = MatrixSpec {
            invocations: 8,
            threads: 2,
            ideal: true,
            max_retries: 1,
            variants: parse_variants(Some("opt-lsq, nachos ,")),
            ..MatrixSpec::default()
        };
        assert_eq!(
            spec.variants,
            Some(vec!["opt-lsq".to_owned(), "nachos".to_owned()])
        );
        assert_eq!(parse_variants(None), None);
        let (_, cfg) = resolve(&spec).unwrap();
        assert_eq!(cfg.variants.len(), 3, "two picked plus appended ideal");
    }
}
