//! `nachos-opt` — post-pipeline comparator-site coalescing with
//! certificates.
//!
//! The compiler pipeline (stages 1–4 plus planning) decides *which* pairs
//! need ordering; this pass minimizes the comparator fan-in that enforces
//! the MAY relations, after the plan has been applied to the DFG. MAY
//! edges whose pairs test a syntactically congruent address predicate,
//! and which a guaranteed path orders through a sibling check, are merged
//! into one comparator (`coalesce`). ORDER edges are never touched: stage
//! 3 already prunes every reachability-redundant MDE.
//!
//! Every rewrite emits a [`Certificate`] — the kept edge and the witness
//! path justifying it — and the audit's `CertLint` pass re-verifies each
//! certificate *independently* of this module. An unverifiable
//! certificate is a hard `A-E08` error and the driver refuses the region,
//! exactly like any other audit error.
//!
//! The plan, the per-stage report and the DFG are mutated in lockstep, so
//! the optimized analysis passes the same accounting and drift lints an
//! unoptimized one does.

mod cert;
mod coalesce;
mod witness;

pub use cert::{Certificate, OptOutcome, OptStats};

pub(crate) use witness::path_valid;

use crate::pipeline::Analysis;
use nachos_ir::Region;

/// Runs the optimizer over a compiled region (the MDE plan must already
/// be applied to the DFG — see [`crate::compile`]). Mutates the region's
/// edges and the analysis in lockstep and records the outcome in
/// `analysis.opt`.
pub fn optimize(region: &mut Region, analysis: &mut Analysis) {
    let mut certs = Vec::new();
    let order_before = analysis.plan.order.len();
    let may_before = analysis.plan.may.len();
    let may_coalesced = coalesce::run(region, &mut analysis.plan, &mut certs);

    // Lockstep: the report must keep describing the (now smaller) plan,
    // or the accounting lint drifts.
    analysis.report.mdes.2 = analysis.plan.may.len();

    analysis.opt = Some(OptOutcome {
        certs,
        stats: OptStats {
            order_before,
            may_before,
            order_removed: 0,
            may_coalesced,
        },
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::AliasLabel;
    use crate::pipeline::{compile, StageConfig};
    use nachos_ir::{AffineExpr, EdgeKind, LoopInfo, MemRef, Provenance, Region, RegionBuilder};

    fn compile_opt(region: &mut Region, config: StageConfig) -> Analysis {
        let mut analysis = compile(region, config);
        optimize(region, &mut analysis);
        analysis
    }

    /// One ambiguous store fanning out MAY edges to two congruent loads
    /// ordered by a data chain: rule B coalesces the younger edge.
    #[test]
    fn coalescing_merges_congruent_destinations() {
        let mut b = RegionBuilder::new("coalesce-b");
        let g = b.global("g", 256, 0);
        let a0 = b.arg(0, Provenance::Unknown);
        b.store(MemRef::affine(a0, AffineExpr::zero()), &[]);
        let m = MemRef::affine(g, AffineExpr::constant_expr(8));
        let ld1 = b.load(m.clone(), &[]);
        let t = b.int_op(nachos_ir::IntOp::Add, &[ld1]);
        b.store(m, &[t]);
        let mut r = b.finish();
        let analysis = compile_opt(&mut r, StageConfig::full());
        let opt = analysis.opt.as_ref().expect("optimizer ran");
        assert_eq!(opt.stats.may_coalesced, 1, "certs: {:?}", opt.certs);
        assert_eq!(analysis.plan.may.len(), 1);
        assert_eq!(r.dfg.count_edges(EdgeKind::May), 1);
        let Certificate {
            removed,
            kept,
            witness,
        } = &opt.certs[0];
        // Shared source (the ambiguous store), kept edge targets the load.
        assert_eq!(removed.0, kept.0);
        assert!(path_valid(&r.dfg, witness, kept.1, removed.1));
        // Report stays in lockstep.
        assert_eq!(analysis.report.mdes.2, analysis.plan.may.len());
    }

    /// Two congruent ambiguous stores (same unknown MemRef) both MAY-feed
    /// a younger load: rule A coalesces into the youngest source.
    #[test]
    fn coalescing_merges_congruent_sources() {
        let mut b = RegionBuilder::new("coalesce-a");
        let g = b.global("g", 256, 0);
        let a0 = b.arg(0, Provenance::Unknown);
        let m = MemRef::affine(a0, AffineExpr::zero());
        b.store(m.clone(), &[]);
        b.store(m, &[]);
        b.load(MemRef::affine(g, AffineExpr::zero()), &[]);
        let mut r = b.finish();
        let analysis = compile_opt(&mut r, StageConfig::full());
        let opt = analysis.opt.as_ref().expect("optimizer ran");
        // st0 and st1 are MustExact (same ref) → ORDER edge st0→st1; the
        // load MAY-depends on both stores; rule A keeps st1→ld only.
        assert_eq!(opt.stats.may_coalesced, 1, "certs: {:?}", opt.certs);
        assert_eq!(opt.certs.len(), 1);
        let Certificate {
            removed,
            kept,
            witness,
        } = &opt.certs[0];
        assert_eq!(removed.1, kept.1, "shared destination");
        assert!(path_valid(&r.dfg, witness, removed.0, kept.0));
    }

    /// One ambiguous store fanning MAY edges out to 64 congruent loads
    /// chained by data: rule B keeps the oldest load's edge and coalesces
    /// the other 63, and the batched removal leaves the DFG, the plan and
    /// the audit in agreement.
    #[test]
    fn coalescing_at_scale_removes_in_one_pass() {
        let mut b = RegionBuilder::new("coalesce-64");
        let g = b.global("g", 256, 0);
        let a0 = b.arg(0, Provenance::Unknown);
        b.store(MemRef::affine(a0, AffineExpr::zero()), &[]);
        let m = MemRef::affine(g, AffineExpr::constant_expr(8));
        let mut prev = b.load(m.clone(), &[]);
        for _ in 1..64 {
            let t = b.int_op(nachos_ir::IntOp::Add, &[prev]);
            prev = b.load(m.clone(), &[t]);
        }
        let mut r = b.finish();
        let analysis = compile_opt(&mut r, StageConfig::full());
        let opt = analysis.opt.as_ref().expect("optimizer ran");
        assert_eq!(opt.certs.len(), 63);
        assert_eq!(opt.stats.may_coalesced, 63);
        assert_eq!(analysis.plan.may.len(), opt.stats.may_before - 63);
        assert_eq!(r.dfg.count_edges(EdgeKind::May), analysis.plan.may.len());
        assert!(nachos_ir::validate_region(&r).is_ok());
        let diags = crate::audit::audit_with(
            &r,
            &analysis,
            StageConfig::full(),
            &crate::audit::AuditConfig::default(),
        );
        let errors: Vec<_> = diags.iter().filter(|d| d.is_error()).collect();
        assert!(errors.is_empty(), "{errors:?}");
    }

    /// Pairs the optimizer cannot prove stay put: nothing is removed from
    /// a genuinely ambiguous region.
    #[test]
    fn ambiguous_pairs_are_untouched() {
        let mut b = RegionBuilder::new("ambiguous");
        let a0 = b.arg(0, Provenance::Unknown);
        let a1 = b.arg(1, Provenance::Unknown);
        b.store(MemRef::affine(a0, AffineExpr::zero()), &[]);
        b.load(MemRef::affine(a1, AffineExpr::zero()), &[]);
        let mut r = b.finish();
        let analysis = compile_opt(&mut r, StageConfig::full());
        let opt = analysis.opt.as_ref().expect("optimizer ran");
        assert_eq!(opt.stats.may_coalesced, 0);
        assert!(opt.certs.is_empty());
        assert_eq!(
            analysis.matrix.get(crate::matrix::Pair {
                older: 0,
                younger: 1
            }),
            Some(AliasLabel::May)
        );
    }

    /// The optimized region still passes the full audit (including the
    /// certificate lint) under every stage configuration.
    #[test]
    fn optimized_regions_audit_clean() {
        for config in [
            StageConfig::full(),
            StageConfig::baseline(),
            StageConfig::stage1_only(),
        ] {
            let mut b = RegionBuilder::new("audit-clean");
            let iv = b.enclosing_loop(LoopInfo::range("i", 0, 8));
            let g = b.global("g", 1024, 0);
            let a0 = b.arg(0, Provenance::Unknown);
            b.store(MemRef::affine(a0, AffineExpr::zero()), &[]);
            let m = MemRef::affine(g, AffineExpr::var(iv).scaled(8));
            let ld = b.load(m.clone(), &[]);
            let t = b.int_op(nachos_ir::IntOp::Add, &[ld]);
            b.store(m, &[t]);
            b.load(
                MemRef::affine(g, AffineExpr::var(iv).scaled(8).plus(4096)),
                &[],
            );
            let mut r = b.finish();
            let mut analysis = compile(&mut r, config);
            optimize(&mut r, &mut analysis);
            let diags = crate::audit::audit_with(
                &r,
                &analysis,
                config,
                &crate::audit::AuditConfig::default(),
            );
            let errors: Vec<_> = diags.iter().filter(|d| d.is_error()).collect();
            assert!(errors.is_empty(), "{config:?}: {errors:?}");
        }
    }
}
