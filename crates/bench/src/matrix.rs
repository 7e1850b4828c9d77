//! The one matrix resolver: turns a [`MatrixSpec`] into the jobs and
//! configuration the sweep harness runs.
//!
//! Both front doors go through this function — the one-shot `sweep`
//! binary resolves its CLI flags here, and `nachos-sweepd` installs it
//! as the daemon's [`MatrixResolver`] — so a spec submitted over the
//! socket resolves to *exactly* the matrix the CLI would run. That
//! shared path is what makes the daemon's byte-identical-report
//! guarantee cheap: identical specs produce identical jobs, identical
//! fingerprints, and therefore identical `nachos-sweep-v5` bytes.
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
use nachos::{FaultKind, FaultPlan, FaultSpec};
use nachos_workloads::BenchSpec;

/// Resolves a submitted spec against the Table II suite.
///
/// # Errors
///
/// A deterministic description of the first unresolvable field: a
/// filter matching no workload, an unknown poison target, an unknown
/// variant label, or an empty variant list.
pub fn resolve(spec: &MatrixSpec) -> Result<(Vec<SweepJob>, SweepConfig), String> {
    Matrix::plan(spec).map(Matrix::into_jobs)
}

/// A resolved matrix whose jobs are generated on demand, so that a
/// shard worker generates only the jobs it is sent.
#[derive(Debug)]
pub struct Matrix {
    /// The workloads the filter kept, in table order: job `i` is
    /// generated from `specs[i]`.
    specs: Vec<BenchSpec>,
    /// The index of the poisoned job.
    poison: Option<usize>,
    /// The sweep configuration every job runs under.
    pub cfg: SweepConfig,
}

impl Matrix {
    /// Resolves every field of `spec` without generating a workload.
    ///
    /// # Errors
    ///
    /// As [`resolve`].
    pub fn plan(spec: &MatrixSpec) -> Result<Matrix, String> {
        // Generation is seeded by name and path alone, so a job
        // generated from its spec alone is the one `suite_jobs` holds.
        let mut specs = nachos_workloads::all();
        if let Some(f) = &spec.filter {
            specs.retain(|s| s.name.contains(f.as_str()));
            if specs.is_empty() {
                return Err(format!("--filter {f:?} matches no workload"));
            }
        }
        let poison = match &spec.poison {
            Some(name) => match specs.iter().position(|s| s.name == name) {
                Some(i) => Some(i),
                None => return Err(format!("--poison knows no workload {name:?}")),
            },
            None => None,
        };
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
        Ok(Matrix {
            specs,
            poison,
            cfg: cfg.with_retries(spec.max_retries),
        })
    }

    /// Generates job `index`, or `None` past the last job.
    #[must_use]
    pub fn job(&self, index: usize) -> Option<SweepJob> {
        let mut job = crate::job_for(&nachos_workloads::generate(self.specs.get(index)?));
        if self.poison == Some(index) {
            job.fault = FaultPlan::single(FaultSpec::new(FaultKind::PanicOnEvent, 0));
        }
        Some(job)
    }

    /// Generates every job.
    #[must_use]
    pub fn into_jobs(self) -> (Vec<SweepJob>, SweepConfig) {
        let jobs = (0..self.specs.len()).filter_map(|i| self.job(i)).collect();
        (jobs, self.cfg)
    }
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
    use nachos::sweep::journal::job_fingerprint;

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
            ..MatrixSpec::default()
        };
        let (jobs, cfg) = resolve(&spec).unwrap();
        assert_eq!(jobs.len(), 1);
        assert!(!jobs[0].fault.is_empty(), "poison attaches a fault plan");
        assert!(cfg.variants.iter().any(|v| v.label == "ideal"));
        assert!(cfg.sim.optimize);
        assert_eq!(cfg.max_retries, 2);
    }

    #[test]
    fn filtered_specs_resolve_to_the_suite_jobs_they_name() {
        let suite = crate::suite_jobs();
        let sim = crate::suite_config(64, 0, false).sim;
        let fingerprint = |j: &SweepJob| job_fingerprint(&j.region, &j.binding, &sim);
        let filters = nachos_workloads::all()
            .iter()
            .map(|s| s.name.to_owned())
            .chain(["a", "4", "sar"].map(str::to_owned))
            .collect::<Vec<_>>();
        for f in filters {
            let spec = MatrixSpec {
                filter: Some(f.clone()),
                ..MatrixSpec::default()
            };
            let (jobs, _) = resolve(&spec).unwrap();
            let want: Vec<_> = suite.iter().filter(|j| j.name.contains(&f)).collect();
            assert_eq!(jobs.len(), want.len(), "filter {f:?}");
            for (got, want) in jobs.iter().zip(want) {
                assert_eq!(got.name, want.name, "filter {f:?}");
                assert_eq!(fingerprint(got), fingerprint(want), "{}", got.name);
            }
        }
        let none = MatrixSpec {
            filter: Some("no-such-workload".to_owned()),
            ..MatrixSpec::default()
        };
        assert_eq!(
            resolve(&none).unwrap_err(),
            "--filter \"no-such-workload\" matches no workload"
        );
    }

    #[test]
    fn a_plan_generates_each_job_on_demand() {
        let spec = MatrixSpec {
            filter: Some("gzip".to_owned()),
            poison: Some("gzip".to_owned()),
            ..MatrixSpec::default()
        };
        let plan = Matrix::plan(&spec).unwrap();
        assert!(plan.job(1).is_none(), "one job past the filter");
        let job = plan.job(0).unwrap();
        assert!(!job.fault.is_empty(), "the poisoned job");
        let (jobs, _) = plan.into_jobs();
        assert_eq!(jobs.len(), 1);
        assert_eq!(jobs[0].name, job.name);
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
