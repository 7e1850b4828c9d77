//! The `nachos-lint` suite runner: audits every Table II workload under
//! every compiler ablation and aggregates the findings into the
//! byte-deterministic `nachos-lint-v1` JSON report.
//!
//! The heavy lifting — re-deriving ground-truth alias verdicts, proving
//! ordering chains, recounting the bookkeeping — lives in
//! [`nachos_alias::audit`]; this module is the workload × [`StageConfig`]
//! product, the report schema, and the optional differential replay of
//! every NO-labelled pair against the reference executor's address walk.
//!
//! [`nachos_alias::audit`]: mod@nachos_alias::audit

use nachos::json::JsonWriter;
use nachos::{Backend, EnergyModel, Run, SimConfig};
use nachos_alias::{
    audit_with, compile, AuditConfig, Code, Diagnostic, OptStats, Severity, StageConfig,
};
use nachos_workloads::{generate_all, Workload};

/// One named compiler ablation the suite audits.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LintConfig {
    /// Stable name used in reports and `--config` filters.
    pub name: &'static str,
    /// The stage selection it denotes.
    pub stages: StageConfig,
}

/// The standard ablation matrix: every `StageConfig` the experiment
/// harness exercises, plus the pruning-off corner (stages 2 and 4 on,
/// stage 3 off) that stresses the race detector with the densest MDE set.
#[must_use]
pub fn standard_configs() -> Vec<LintConfig> {
    vec![
        LintConfig {
            name: "full",
            stages: StageConfig::full(),
        },
        LintConfig {
            name: "baseline",
            stages: StageConfig::baseline(),
        },
        LintConfig {
            name: "stage1-only",
            stages: StageConfig::stage1_only(),
        },
        LintConfig {
            name: "no-prune",
            stages: StageConfig {
                stage2: true,
                stage3: false,
                stage4: true,
            },
        },
    ]
}

/// What to audit and how hard.
#[derive(Clone, Debug)]
pub struct LintOptions {
    /// Restrict to one workload by Table II name (`None` = all 27).
    pub workload: Option<String>,
    /// Restrict to one named config (`None` = the full matrix).
    pub config: Option<String>,
    /// Also replay every NO pair through the reference address walk.
    pub differential: bool,
    /// Invocations for the differential replay.
    pub invocations: u64,
    /// Also run the IDEAL-oracle timing cross-check (the `--ideal` flag);
    /// off by default so the standard report stays byte-identical.
    pub ideal: bool,
    /// Run the certificate-carrying MDE optimizer (`nachos-opt`) after
    /// compilation, so the audit's `CertLint` pass re-verifies real
    /// rewrite certificates instead of vacuously passing. Off by default
    /// so the standard report stays byte-identical.
    pub optimize: bool,
}

impl Default for LintOptions {
    fn default() -> Self {
        Self {
            workload: None,
            config: None,
            differential: false,
            invocations: 64,
            ideal: false,
            optimize: false,
        }
    }
}

/// The audit outcome of one workload under one config.
#[derive(Clone, Debug)]
pub struct LintRun {
    /// Workload name (Table II).
    pub workload: String,
    /// Ablation name.
    pub config: String,
    /// Tracked memory operations.
    pub mem_ops: usize,
    /// Ordering-relevant pairs.
    pub pairs: usize,
    /// Final (no, may, must) label counts.
    pub labels: (usize, usize, usize),
    /// Committed (order, forward, may) MDE counts.
    pub mdes: (usize, usize, usize),
    /// Every diagnostic the audit produced, in report order.
    pub diagnostics: Vec<Diagnostic>,
    /// Dynamic NO-pair collisions (differential mode; `None` when the
    /// replay was not requested).
    pub collisions: Option<usize>,
    /// IDEAL-oracle timing cross-check (`--ideal` mode; `None` when not
    /// requested).
    pub ideal: Option<IdealCheck>,
    /// The optimizer's rewrite ledger (`--optimize` mode; `None` when the
    /// optimizer was not run). Every count is backed by a certificate the
    /// audit's `CertLint` pass re-verified independently.
    pub opt: Option<OptStats>,
}

/// The opt-in IDEAL-oracle cross-check: the oracle must lower-bound
/// NACHOS under the same compiler staging, or the MAY machinery is
/// claiming impossible speedups.
#[derive(Clone, Copy, Debug)]
pub struct IdealCheck {
    /// Cycles under the IDEAL oracle (perfect disambiguation).
    pub ideal_cycles: u64,
    /// Cycles under NACHOS with the same stages.
    pub nachos_cycles: u64,
}

impl IdealCheck {
    /// `true` iff the oracle lower-bounds NACHOS. A violation is counted
    /// as an error by [`LintSuiteReport::num_errors`].
    #[must_use]
    pub fn bound_holds(&self) -> bool {
        self.ideal_cycles <= self.nachos_cycles
    }
}

impl LintRun {
    /// Number of Severity-matching diagnostics in this run.
    fn count(&self, severity: Severity) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == severity)
            .count()
    }
}

/// The whole suite's findings.
#[derive(Clone, Debug, Default)]
pub struct LintSuiteReport {
    /// One entry per workload × config, in deterministic order.
    pub runs: Vec<LintRun>,
}

impl LintSuiteReport {
    /// Total Error-severity diagnostics plus dynamic collisions plus
    /// IDEAL-bound violations — the quantity CI gates on.
    #[must_use]
    pub fn num_errors(&self) -> usize {
        self.runs
            .iter()
            .map(|r| {
                r.count(Severity::Error)
                    + r.collisions.unwrap_or(0)
                    + usize::from(r.ideal.is_some_and(|ic| !ic.bound_holds()))
            })
            .sum()
    }

    /// Total Warning-severity diagnostics (advisory by default).
    #[must_use]
    pub fn num_warnings(&self) -> usize {
        self.runs.iter().map(|r| r.count(Severity::Warning)).sum()
    }

    /// Avoidable-imprecision findings — the `nachos-lint --strict` gate.
    /// Counts redundant-MDE warnings plus precision losses an *enabled*
    /// stage could have decided (or no stage could).
    /// Losses attributed to a deliberately disabled ablation stage stay
    /// advisory, as do hardware-budget advisories (token fan-in): they
    /// describe the workload or the chosen ablation, not a fixable gap
    /// in the pipeline that actually ran.
    #[must_use]
    pub fn num_strict(&self) -> usize {
        self.runs
            .iter()
            .flat_map(|r| &r.diagnostics)
            .filter(|d| match d.code {
                Code::RedundantMde => true,
                Code::PrecisionLoss => !d.message.contains("(disabled)"),
                _ => false,
            })
            .count()
    }

    /// Renders the `nachos-lint-v1` report. Byte-deterministic: depends
    /// only on the audited regions and the options.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::new();
        w.open_obj();
        w.str_field("schema", "nachos-lint-v1");
        w.key("runs");
        w.open_arr();
        for run in &self.runs {
            w.open_obj();
            w.str_field("workload", &run.workload);
            w.str_field("config", &run.config);
            w.u64_field("mem_ops", run.mem_ops as u64);
            w.u64_field("pairs", run.pairs as u64);
            w.key("labels");
            w.open_obj();
            w.u64_field("no", run.labels.0 as u64);
            w.u64_field("may", run.labels.1 as u64);
            w.u64_field("must", run.labels.2 as u64);
            w.close_obj();
            w.key("mdes");
            w.open_obj();
            w.u64_field("order", run.mdes.0 as u64);
            w.u64_field("forward", run.mdes.1 as u64);
            w.u64_field("may", run.mdes.2 as u64);
            w.close_obj();
            if let Some(s) = run.opt {
                w.key("opt");
                w.open_obj();
                w.u64_field("order_before", s.order_before as u64);
                w.u64_field("may_before", s.may_before as u64);
                w.u64_field("order_removed", s.order_removed as u64);
                w.u64_field("may_coalesced", s.may_coalesced as u64);
                // No pass upgrades MAY pairs any more; the keys stay (as
                // 0) so the `nachos-lint-v1` schema is unchanged.
                w.u64_field("may_upgraded", 0);
                w.u64_field("may_upgraded_edges", 0);
                w.close_obj();
            }
            w.key("diagnostics");
            w.open_obj();
            w.u64_field("errors", run.count(Severity::Error) as u64);
            w.u64_field("warnings", run.count(Severity::Warning) as u64);
            w.u64_field("infos", run.count(Severity::Info) as u64);
            w.close_obj();
            w.key("by_code");
            w.open_arr();
            for (code, count) in count_by_code(&run.diagnostics) {
                w.open_obj();
                w.str_field("code", code);
                w.u64_field("count", count as u64);
                w.close_obj();
            }
            w.close_arr();
            w.key("errors");
            w.open_arr();
            for d in run.diagnostics.iter().filter(|d| d.is_error()) {
                w.open_obj();
                w.str_field("code", d.code.id());
                w.str_field("site", &d.site.to_string());
                w.str_field("message", &d.message);
                w.close_obj();
            }
            w.close_arr();
            if let Some(collisions) = run.collisions {
                w.u64_field("collisions", collisions as u64);
            }
            if let Some(ic) = run.ideal {
                w.key("ideal");
                w.open_obj();
                w.u64_field("cycles", ic.ideal_cycles);
                w.u64_field("nachos_cycles", ic.nachos_cycles);
                w.bool_field("bound_holds", ic.bound_holds());
                w.close_obj();
            }
            w.close_obj();
        }
        w.close_arr();
        w.key("totals");
        w.open_obj();
        w.u64_field("runs", self.runs.len() as u64);
        let total = |s: Severity| self.runs.iter().map(|r| r.count(s)).sum::<usize>() as u64;
        w.u64_field("errors", total(Severity::Error));
        w.u64_field("warnings", total(Severity::Warning));
        w.u64_field("infos", total(Severity::Info));
        w.u64_field(
            "collisions",
            self.runs
                .iter()
                .map(|r| r.collisions.unwrap_or(0))
                .sum::<usize>() as u64,
        );
        w.close_obj();
        w.close_obj();
        w.finish()
    }
}

fn count_by_code(diags: &[Diagnostic]) -> Vec<(&'static str, usize)> {
    let mut counts: Vec<(&'static str, usize)> = Vec::new();
    for d in diags {
        let id = d.code.id();
        match counts.iter_mut().find(|(c, _)| *c == id) {
            Some((_, n)) => *n += 1,
            None => counts.push((id, 1)),
        }
    }
    counts.sort_unstable();
    counts
}

/// Audits one workload under one ablation.
#[must_use]
pub fn lint_workload(w: &Workload, config: LintConfig, options: &LintOptions) -> LintRun {
    let mut region = w.region.clone();
    let mut analysis = compile(&mut region, config.stages);
    if options.optimize {
        nachos_alias::optimize(&mut region, &mut analysis);
    }
    let diagnostics = audit_with(&region, &analysis, config.stages, &AuditConfig::default());
    let collisions = options.differential.then(|| {
        nachos_alias::differential_no_collisions(
            &region,
            &analysis.matrix,
            &w.binding,
            options.invocations,
        )
        .len()
    });
    let ideal = options.ideal.then(|| {
        let cfg = SimConfig::default().with_invocations(options.invocations);
        let em = EnergyModel::default();
        let cycles = |backend| {
            Run::new(&w.region, &w.binding, backend)
                .stages(config.stages)
                .execute(&cfg, &em)
                .expect("lint ideal cross-check simulates cleanly")
                .sim
                .cycles
        };
        IdealCheck {
            ideal_cycles: cycles(Backend::Ideal),
            nachos_cycles: cycles(Backend::Nachos),
        }
    });
    let counts = analysis.matrix.label_counts();
    LintRun {
        workload: w.spec.name.to_owned(),
        config: config.name.to_owned(),
        mem_ops: analysis.matrix.num_ops(),
        pairs: analysis.matrix.num_tracked_pairs(),
        labels: (counts.no, counts.may, counts.must),
        mdes: (
            analysis.plan.order.len(),
            analysis.plan.forward.len(),
            analysis.plan.may.len(),
        ),
        diagnostics,
        collisions,
        ideal,
        opt: analysis.opt.as_ref().map(|o| o.stats),
    }
}

/// Runs the audit matrix and returns the suite report.
///
/// # Panics
///
/// Panics if `options` names a workload or config that does not exist —
/// the CLI validates names before calling.
#[must_use]
pub fn run_lint_suite(options: &LintOptions) -> LintSuiteReport {
    let configs: Vec<LintConfig> = standard_configs()
        .into_iter()
        .filter(|c| options.config.as_deref().is_none_or(|name| name == c.name))
        .collect();
    assert!(!configs.is_empty(), "unknown config filter");
    let workloads: Vec<Workload> = generate_all()
        .into_iter()
        .filter(|w| {
            options
                .workload
                .as_deref()
                .is_none_or(|name| name == w.spec.name)
        })
        .collect();
    assert!(!workloads.is_empty(), "unknown workload filter");
    let mut runs = Vec::with_capacity(workloads.len() * configs.len());
    for w in &workloads {
        for &config in &configs {
            runs.push(lint_workload(w, config, options));
        }
    }
    LintSuiteReport { runs }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one_workload_options(name: &str) -> LintOptions {
        LintOptions {
            workload: Some(name.to_owned()),
            ..LintOptions::default()
        }
    }

    #[test]
    fn audited_workload_has_zero_errors_under_every_config() {
        let report = run_lint_suite(&LintOptions {
            differential: true,
            invocations: 8,
            ..one_workload_options("183.equake")
        });
        assert_eq!(report.runs.len(), standard_configs().len());
        assert_eq!(report.num_errors(), 0, "{}", report.to_json());
    }

    #[test]
    fn report_is_byte_deterministic() {
        let options = one_workload_options("art");
        let a = run_lint_suite(&options).to_json();
        let b = run_lint_suite(&options).to_json();
        assert_eq!(a, b);
        assert!(a.contains("\"schema\": \"nachos-lint-v1\""));
    }

    #[test]
    fn optimized_suite_audits_clean_and_reports_ledger() {
        let base = one_workload_options("183.equake");
        let plain = run_lint_suite(&base).to_json();
        assert!(!plain.contains("\"opt\""), "ledger is opt-in");
        let report = run_lint_suite(&LintOptions {
            optimize: true,
            ..base
        });
        assert_eq!(report.runs.len(), standard_configs().len());
        // CertLint re-verified every certificate the optimizer emitted.
        assert_eq!(report.num_errors(), 0, "{}", report.to_json());
        assert!(report.runs.iter().all(|r| r.opt.is_some()));
        assert!(report.to_json().contains("\"order_removed\""));
        assert_eq!(report.num_strict(), 0, "optimized runs leave no slack");
    }

    #[test]
    fn strict_gate_counts_only_avoidable_imprecision() {
        use nachos_alias::Site;
        let diag = |code: Code, message: &str| Diagnostic {
            severity: code.severity(),
            code,
            region: "r".to_owned(),
            site: Site::Region,
            message: message.to_owned(),
        };
        let mut run = LintRun {
            workload: "r".to_owned(),
            config: "full".to_owned(),
            mem_ops: 0,
            pairs: 0,
            labels: (0, 0, 0),
            mdes: (0, 0, 0),
            diagnostics: vec![
                diag(Code::RedundantMde, "ORDER edge already implied"),
                diag(Code::PrecisionLoss, "provably NO (decidable by stage 4)"),
                diag(
                    Code::PrecisionLoss,
                    "provably NO (decidable by stage 2 (disabled))",
                ),
                diag(Code::FaninOverBudget, "9 tokens converge"),
            ],
            collisions: None,
            ideal: None,
            opt: None,
        };
        let report = LintSuiteReport {
            runs: vec![run.clone()],
        };
        // Redundant MDE + enabled-stage loss count; the disabled-stage
        // loss and the budget advisory stay advisory.
        assert_eq!(report.num_strict(), 2);
        assert_eq!(report.num_warnings(), 4);
        assert_eq!(report.num_errors(), 0);
        run.diagnostics.clear();
        assert_eq!(LintSuiteReport { runs: vec![run] }.num_strict(), 0);
    }

    #[test]
    fn ideal_cross_check_is_opt_in_and_holds() {
        let base = LintOptions {
            config: Some("full".to_owned()),
            invocations: 4,
            ..one_workload_options("parser")
        };
        let plain = run_lint_suite(&base).to_json();
        assert!(!plain.contains("\"ideal\""), "off by default");
        let report = run_lint_suite(&LintOptions {
            ideal: true,
            ..base
        });
        let checked = report.runs[0].ideal.expect("cross-check requested");
        assert!(checked.bound_holds(), "IDEAL must lower-bound NACHOS");
        assert_eq!(report.num_errors(), 0);
        assert!(report.to_json().contains("\"bound_holds\": true"));
    }
}
