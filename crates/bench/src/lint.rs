//! The soundness audit of one workload under one compiler ablation, as
//! `nachos-claims`' evidence run uses it.
//!
//! The heavy lifting — re-deriving ground-truth alias verdicts, proving
//! ordering chains, recounting the bookkeeping — lives in
//! [`nachos_alias::audit`]; this module names the ablation matrix, runs
//! the audit plus the differential replay of every NO-labelled pair
//! against the reference executor's address walk, and says which
//! findings are avoidable imprecision.
//!
//! [`nachos_alias::audit`]: mod@nachos_alias::audit

use nachos::{Backend, CompileMemo, CompiledRegion, SimConfig, SimError};
use nachos_alias::{
    audit_with, differential_no_collisions, Attribution, AuditConfig, Code, Diagnostic,
};
use nachos_alias::{Analysis, StageConfig};
use nachos_ir::Region;
use nachos_workloads::Workload;

/// One named compiler ablation the suite audits.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LintConfig {
    /// Stable name used in reports.
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

/// The audit outcome of one workload under one config.
#[derive(Clone, Debug)]
pub struct LintRun {
    /// Workload name (Table II).
    pub workload: String,
    /// Ablation name.
    pub config: String,
    /// Every diagnostic the audit produced, followed by one A-E07 error
    /// per dynamic NO-pair collision.
    pub diagnostics: Vec<Diagnostic>,
}

/// `true` for avoidable imprecision: a redundant MDE, or a precision
/// loss an *enabled* stage could have decided (or no stage could).
/// Losses attributed to a deliberately disabled ablation stage stay
/// advisory, as do hardware-budget advisories (token fan-in): they
/// describe the workload or the chosen ablation, not a fixable gap in
/// the pipeline that actually ran.
#[must_use]
pub fn avoidable(d: &Diagnostic) -> bool {
    match d.code {
        Code::RedundantMde => true,
        Code::PrecisionLoss => !matches!(
            d.attribution,
            Some(Attribution::Stage { enabled: false, .. })
        ),
        _ => false,
    }
}

/// The full audit of one memo entry, an MDE compile under `stages`, with
/// the compile it audited; a compile the memo refused has no compile and
/// the Errors of the driver's soundness gate that refused it.
pub(crate) fn audited(
    entry: Result<&CompiledRegion, SimError>,
    stages: StageConfig,
) -> (Option<(&Region, &Analysis)>, Vec<Diagnostic>) {
    match entry {
        Ok(c) => {
            let analysis = c.analysis.as_ref().expect("MDE compiles carry analyses");
            let audit = AuditConfig::default();
            let findings = audit_with(&c.region, analysis, stages, &audit);
            (Some((&c.region, analysis)), findings)
        }
        Err(SimError::Audit(errors)) => (None, errors),
        Err(e) => panic!("a generated workload failed validation: {e}"),
    }
}

/// Audits one workload's unoptimized compilation, `memo`'s entry for
/// `w.region`, under one ablation and replays its NO pairs through the
/// reference address walk for `invocations` invocations.
#[must_use]
pub fn lint_workload(
    memo: &mut CompileMemo<'_>,
    w: &Workload,
    config: LintConfig,
    invocations: u64,
) -> LintRun {
    let entry = memo.get(Backend::Nachos, &SimConfig::default(), config.stages);
    let (compiled, mut diagnostics) = audited(entry, config.stages);
    if let Some((region, a)) = compiled {
        let no_pairs = differential_no_collisions(region, &a.matrix, &w.binding, invocations);
        diagnostics.extend(no_pairs);
    }
    LintRun {
        workload: w.spec.name.to_owned(),
        config: config.name.to_owned(),
        diagnostics,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nachos_alias::Site;

    #[test]
    fn audited_workload_has_zero_errors_under_every_config() {
        let w = nachos_workloads::generate(&nachos_workloads::by_name("183.equake").unwrap());
        for config in standard_configs() {
            let run = lint_workload(&mut CompileMemo::new(&w.region), &w, config, 8);
            let errors: Vec<_> = run.diagnostics.iter().filter(|d| d.is_error()).collect();
            assert!(errors.is_empty(), "{}: {errors:?}", config.name);
        }
    }

    #[test]
    fn avoidable_counts_only_fixable_imprecision() {
        let diag = |code: Code, message: &str| Diagnostic {
            severity: code.severity(),
            code,
            region: "r".to_owned(),
            site: Site::Region,
            message: message.to_owned(),
            attribution: None,
        };
        let loss = |stage, enabled| Diagnostic {
            attribution: Some(Attribution::Stage { stage, enabled }),
            ..diag(Code::PrecisionLoss, "provably NO")
        };
        let diagnostics = [
            diag(Code::RedundantMde, "ORDER edge already implied"),
            loss(4, true),
            loss(2, false),
            diag(Code::FaninOverBudget, "9 tokens converge"),
        ];
        // Redundant MDE + enabled-stage loss count; the disabled-stage
        // loss and the budget advisory stay advisory.
        let flags: Vec<bool> = diagnostics.iter().map(avoidable).collect();
        assert_eq!(flags, [true, true, false, false]);
    }
}
