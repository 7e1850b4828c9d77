//! Independent soundness audit of a compiled region.
//!
//! The pipeline's correctness rests on one claim: every pair labelled NO
//! is truly disjoint and every surviving MUST/MAY pair is ordered by a
//! memory dependency edge. This module re-checks that claim from first
//! principles, *without* trusting the stage pipeline that produced it:
//!
//! * [`VerdictLint`] re-derives a ground-truth overlap verdict for every
//!   ordering-relevant pair using the exact reachability machinery of
//!   [`crate::exact`] and [`crate::afftest`]. An unsound NO is an Error,
//!   a MUST whose exact/partial flavour is wrong is an Error, and a MAY
//!   that is provably decidable is a precision-loss Warning attributed to
//!   the stage that could have decided it.
//! * [`RaceLint`] proves, with the transitive closure of `crate::reach`,
//!   that every surviving MUST/MAY pair is ordered older→younger in the
//!   final DFG (a missing chain is a hardware race), that FORWARD edges
//!   connect size-matched accesses, and that the committed [`MdePlan`]
//!   agrees with the labels and with the edges actually present.
//! * [`CertLint`] re-verifies every rewrite certificate `nachos-opt`
//!   recorded — witness paths and address congruence — independently of
//!   the optimizer that produced them. An unverifiable certificate is a
//!   hard error.
//! * [`AccountingLint`] recounts the final [`AliasMatrix`] and cross-checks
//!   every total the [`AnalysisReport`](crate::AnalysisReport) claims.
//! * [`ResourceLint`] flags comparator fan-in over budget, token fan-out
//!   over budget, dead value-producing nodes and unreferenced symbols.
//!
//! [`differential_no_collisions`] complements the static passes: it replays
//! the reference executor's address walk under a concrete [`Binding`] and
//! reports any NO pair whose byte intervals ever collide dynamically.
//!
//! Two scopes share this one registry: the full audit
//! ([`AuditConfig::default`]) runs every arm, and the driver's soundness
//! gate ([`AuditConfig::quick`]) only the arms that can emit an Error.
//!
//! Diagnostics are deterministic: passes run in a fixed order and the
//! result is sorted by `(severity, code, site, message)` and deduplicated,
//! so two audits of the same region are byte-identical.

use crate::afftest::{delta_range, iteration_space, overlap_oracle, IvBox, Overlap};
use crate::classify::linearize;
use crate::exact::{window_reachable, ExactBudget};
use crate::hash::FoldSet;
use crate::matrix::{AliasLabel, AliasMatrix, Pair, PairKind};
use crate::pipeline::{may_fanin, Analysis, StageConfig};
use crate::reach::Reachability;
use crate::stage3::MdePlan;
use crate::{stage1, stage2, stage4};
use nachos_ir::{
    AffineExpr, BaseKind, Binding, EdgeKind, MemRef, NodeId, OpKind, Provenance, PtrExpr, Region,
    ScaledParam, Subscript,
};
use std::fmt;

/// How bad a finding is.
///
/// The ordering (`Error < Warning < Info`) is the report ordering: errors
/// sort first.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// A soundness violation: the compiled region can produce wrong
    /// results or race in hardware. Gates CI.
    Error,
    /// A precision or efficiency loss: the region is correct but weaker
    /// or more expensive than necessary.
    Warning,
    /// An observation worth surfacing (dead code, unused symbols).
    Info,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Severity::Error => "error",
            Severity::Warning => "warning",
            Severity::Info => "info",
        })
    }
}

/// Stable diagnostic codes, one per distinct finding class.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Code {
    /// A pair labelled NO whose accesses can overlap.
    UnsoundNo,
    /// A MUST label whose exact/partial flavour contradicts ground truth.
    MustMismatch,
    /// A surviving MUST/MAY pair with no ordering chain in the final DFG.
    MissingChain,
    /// A FORWARD edge between accesses of different sizes.
    ForwardSizeMismatch,
    /// The committed MDE plan disagrees with the labels or the DFG.
    PlanDrift,
    /// The analysis report's bookkeeping disagrees with a recount.
    CountDrift,
    /// A NO pair whose addresses collided during differential replay.
    DynamicCollision,
    /// An optimizer certificate that fails independent re-verification.
    BadCertificate,
    /// A MAY pair that is provably decidable (precision loss).
    PrecisionLoss,
    /// An MDE already implied by other ordering edges (missed pruning).
    RedundantMde,
    /// MAY fan-in at one operation exceeds the comparator budget.
    FaninOverBudget,
    /// Token fan-out at one node exceeds the configured budget.
    TokenFanout,
    /// A value-producing node whose result is never consumed.
    DeadNode,
    /// A symbol-table entry no memory reference uses.
    UnreferencedSymbol,
}

impl Code {
    /// The stable report identifier, e.g. `A-E01`.
    #[must_use]
    pub fn id(self) -> &'static str {
        match self {
            Code::UnsoundNo => "A-E01",
            Code::MustMismatch => "A-E02",
            Code::MissingChain => "A-E03",
            Code::ForwardSizeMismatch => "A-E04",
            Code::PlanDrift => "A-E05",
            Code::CountDrift => "A-E06",
            Code::DynamicCollision => "A-E07",
            Code::BadCertificate => "A-E08",
            Code::PrecisionLoss => "A-W01",
            Code::RedundantMde => "A-W02",
            Code::FaninOverBudget => "A-W03",
            Code::TokenFanout => "A-I01",
            Code::DeadNode => "A-I02",
            Code::UnreferencedSymbol => "A-I03",
        }
    }

    /// The severity this code always carries.
    #[must_use]
    pub fn severity(self) -> Severity {
        match self {
            Code::UnsoundNo
            | Code::MustMismatch
            | Code::MissingChain
            | Code::ForwardSizeMismatch
            | Code::PlanDrift
            | Code::CountDrift
            | Code::DynamicCollision
            | Code::BadCertificate => Severity::Error,
            Code::PrecisionLoss | Code::RedundantMde | Code::FaninOverBudget => Severity::Warning,
            Code::TokenFanout | Code::DeadNode | Code::UnreferencedSymbol => Severity::Info,
        }
    }
}

impl fmt::Display for Code {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.id())
    }
}

/// Where in the region a diagnostic points.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Site {
    /// The region as a whole (accounting, symbol tables).
    Region,
    /// A single DFG node.
    Node(NodeId),
    /// An (older, younger) pair of DFG nodes.
    Pair {
        /// The older operation.
        older: NodeId,
        /// The younger operation.
        younger: NodeId,
    },
}

impl Site {
    fn sort_key(self) -> (u8, usize, usize) {
        match self {
            Site::Region => (0, 0, 0),
            Site::Node(n) => (1, n.index(), 0),
            Site::Pair { older, younger } => (2, older.index(), younger.index()),
        }
    }
}

impl fmt::Display for Site {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Site::Region => f.write_str("region"),
            Site::Node(n) => write!(f, "{n}"),
            Site::Pair { older, younger } => write!(f, "{older}->{younger}"),
        }
    }
}

/// One audit finding.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Diagnostic {
    /// Finding severity (always `code.severity()`).
    pub severity: Severity,
    /// Stable finding class.
    pub code: Code,
    /// Name of the audited region.
    pub region: String,
    /// Where the finding points.
    pub site: Site,
    /// Human-readable explanation with the evidence.
    pub message: String,
    /// Which stage could have decided the pair: set on every
    /// [`Code::PrecisionLoss`] finding, `None` on every other code.
    pub attribution: Option<Attribution>,
}

impl Diagnostic {
    fn new(code: Code, region: &str, site: Site, message: String) -> Self {
        Self {
            severity: code.severity(),
            code,
            region: region.to_owned(),
            site,
            message,
            attribution: None,
        }
    }

    /// `true` for Error severity.
    #[must_use]
    pub fn is_error(&self) -> bool {
        self.severity == Severity::Error
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}[{}] `{}` {}: {}",
            self.severity, self.code, self.region, self.site, self.message
        )
    }
}

/// Which stage could have decided a provably decidable MAY pair.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Attribution {
    /// Stage `stage`'s own rule decides the pair; `enabled` says whether
    /// the compile ran that stage (stage 1 always runs).
    Stage {
        /// The deciding stage: 1, 2 or 4.
        stage: u8,
        /// Whether the audited compile ran it.
        enabled: bool,
    },
    /// No stage's rule decides the pair.
    BeyondAllStages,
}

impl fmt::Display for Attribution {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Attribution::Stage {
                stage,
                enabled: true,
            } => write!(f, "decidable by stage {stage}"),
            Attribution::Stage {
                stage,
                enabled: false,
            } => write!(f, "decidable by stage {stage} (disabled)"),
            Attribution::BeyondAllStages => f.write_str("beyond all stages"),
        }
    }
}

/// Budget knobs for the audit, and its scope.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AuditConfig {
    /// Iteration-point budget for the exhaustive enumeration oracle used
    /// when the bitset reachability test exceeds its own budget. `0`
    /// disables enumeration entirely (the interval+GCD test remains).
    pub oracle_points: u128,
    /// The budgets of the Warning and Info arms, or `None` for the
    /// soundness gate, which skips every arm that cannot emit an Error:
    /// MAY-pair ground truth and A-W01, A-W02, and [`ResourceLint`].
    pub advisories: Option<Advisories>,
}

/// The budgets of the advisory findings [`ResourceLint`] emits.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Advisories {
    /// Comparator fan-in above which [`Code::FaninOverBudget`] fires.
    pub may_fanin_budget: usize,
    /// Per-node MDE fan-out above which [`Code::TokenFanout`] fires.
    pub token_fanout_budget: usize,
}

impl Default for AuditConfig {
    /// The full audit: the enumeration oracle and every advisory arm.
    fn default() -> Self {
        Self {
            oracle_points: 1 << 12,
            advisories: Some(Advisories {
                may_fanin_budget: 8,
                token_fanout_budget: 8,
            }),
        }
    }
}

impl AuditConfig {
    /// The soundness gate the driver runs after every MDE compile: no
    /// enumeration oracle, and only the arms that can emit an Error. A
    /// MAY label is never unsound (the `==?` comparator checks it at run
    /// time), so no MAY pair's ground truth is derived. It returns
    /// exactly the Errors of the full audit at the same `oracle_points`.
    #[must_use]
    pub fn quick() -> Self {
        Self {
            oracle_points: 0,
            advisories: None,
        }
    }
}

/// Shared context handed to every pass.
pub struct AuditCx<'a> {
    /// The compiled region (MDEs present in its DFG).
    pub region: &'a Region,
    /// The analysis `compile` produced for the region.
    pub analysis: &'a Analysis,
    /// Which pipeline stages were enabled.
    pub stages: StageConfig,
    /// Budget knobs.
    pub config: &'a AuditConfig,
    /// The iteration box of the region's loop nest.
    pub bx: IvBox,
}

impl AuditCx<'_> {
    fn mem(&self, node: NodeId) -> &MemRef {
        self.region
            .dfg
            .node(node)
            .kind
            .mem_ref()
            .expect("matrix tracks memory ops")
    }

    fn diag(&self, code: Code, site: Site, message: String) -> Diagnostic {
        Diagnostic::new(code, &self.region.name, site, message)
    }

    fn pair_site(&self, pair: Pair) -> Site {
        Site::Pair {
            older: self.analysis.matrix.node(pair.older),
            younger: self.analysis.matrix.node(pair.younger),
        }
    }
}

/// One audit pass.
pub trait Lint {
    /// Stable pass name (for reports and debugging).
    fn name(&self) -> &'static str;
    /// Runs the pass and returns its findings (any order; the framework
    /// sorts).
    fn run(&self, cx: &AuditCx<'_>) -> Vec<Diagnostic>;
}

/// The default pass registry, in execution order.
#[must_use]
pub fn default_lints() -> Vec<Box<dyn Lint>> {
    vec![
        Box::new(VerdictLint),
        Box::new(RaceLint),
        Box::new(CertLint),
        Box::new(AccountingLint),
        Box::new(ResourceLint),
    ]
}

/// Audits a compiled region with the default configuration.
#[must_use]
pub fn audit(region: &Region, analysis: &Analysis, stages: StageConfig) -> Vec<Diagnostic> {
    audit_with(region, analysis, stages, &AuditConfig::default())
}

/// Audits a compiled region with explicit budgets.
#[must_use]
pub fn audit_with(
    region: &Region,
    analysis: &Analysis,
    stages: StageConfig,
    config: &AuditConfig,
) -> Vec<Diagnostic> {
    let cx = AuditCx {
        region,
        analysis,
        stages,
        config,
        bx: IvBox::from_nest(&region.loops),
    };
    let mut diags = Vec::new();
    for lint in default_lints() {
        diags.extend(lint.run(&cx));
    }
    finish(diags)
}

/// Deterministic report order: severity, then code, then site, then text.
fn finish(mut diags: Vec<Diagnostic>) -> Vec<Diagnostic> {
    diags.sort_by(|a, b| {
        (a.severity, a.code, a.site.sort_key(), &a.message).cmp(&(
            b.severity,
            b.code,
            b.site.sort_key(),
            &b.message,
        ))
    });
    diags.dedup();
    diags
}

// ---------------------------------------------------------------------------
// Ground truth
// ---------------------------------------------------------------------------

/// The audited truth about one pair of accesses, over the same relaxed
/// iteration box the pipeline reasons about.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Truth {
    /// The byte intervals are disjoint for every iteration point.
    Never,
    /// Same address and size at every iteration point.
    AlwaysExact,
    /// Overlapping at every iteration point, but not always exactly.
    AlwaysPartial,
    /// Overlaps at some iteration points and not at others.
    Sometimes,
    /// Overlaps at some iteration point; whether it always does is beyond
    /// budget. Enough to condemn a NO label, not enough to judge a MUST.
    CanOverlap,
    /// The model cannot decide (unknown provenance, symbolic shapes, or
    /// budget exhausted). No verdict is issued.
    Undecidable,
}

impl fmt::Display for Truth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Truth::Never => "never overlaps",
            Truth::AlwaysExact => "always overlaps exactly",
            Truth::AlwaysPartial => "always overlaps partially",
            Truth::Sometimes => "sometimes overlaps",
            Truth::CanOverlap => "can overlap",
            Truth::Undecidable => "undecidable",
        })
    }
}

fn const_truth(delta: i128, size_a: u32, size_b: u32) -> Truth {
    if delta == 0 && size_a == size_b {
        Truth::AlwaysExact
    } else if delta > -i128::from(size_a) && delta < i128::from(size_b) {
        Truth::AlwaysPartial
    } else {
        Truth::Never
    }
}

/// Exact overlap truth of an affine byte-offset difference over the box.
///
/// Primary engine: the bitset sumset DP of [`crate::exact`], queried for
/// the overlap window and for the value ranges outside it. Fallbacks when
/// the DP exceeds its budget: exhaustive enumeration (within
/// `oracle_points`), then the sound-but-incomplete interval+GCD test.
fn scalar_truth(
    delta: &AffineExpr,
    bx: &IvBox,
    size_a: u32,
    size_b: u32,
    oracle_points: u128,
) -> Truth {
    let window_lo = -i128::from(size_a) + 1;
    let window_hi = i128::from(size_b) - 1;
    let (lo, hi) = delta_range(delta, bx);
    let eb = ExactBudget::default();
    match window_reachable(delta, bx, window_lo, window_hi, eb) {
        Some(false) => Truth::Never,
        Some(true) => {
            let below = if lo < window_lo {
                window_reachable(delta, bx, lo, window_lo - 1, eb)
            } else {
                Some(false)
            };
            let above = if hi > window_hi {
                window_reachable(delta, bx, window_hi + 1, hi, eb)
            } else {
                Some(false)
            };
            match (below, above) {
                (Some(false), Some(false)) => {
                    if lo == 0 && hi == 0 && size_a == size_b {
                        Truth::AlwaysExact
                    } else {
                        Truth::AlwaysPartial
                    }
                }
                (Some(true), _) | (_, Some(true)) => Truth::Sometimes,
                _ => Truth::CanOverlap,
            }
        }
        None => {
            let points: u128 = delta
                .terms()
                .map(|(l, _)| {
                    let (bl, bh) = bx.bound(l.index());
                    (bh - bl + 1) as u128
                })
                .product();
            if oracle_points > 0 && points <= oracle_points && points <= 20_000_000 {
                match overlap_oracle(delta, bx, size_a, size_b) {
                    Overlap::Disjoint => Truth::Never,
                    Overlap::Exact => Truth::AlwaysExact,
                    Overlap::Partial => Truth::AlwaysPartial,
                    // The oracle enumerates every point, so Unknown means
                    // the overlap genuinely varies across the box.
                    Overlap::Unknown => Truth::Sometimes,
                }
            } else {
                match crate::afftest::overlap_test(delta, bx, size_a, size_b) {
                    Overlap::Disjoint => Truth::Never,
                    Overlap::Exact => Truth::AlwaysExact,
                    Overlap::Partial => Truth::AlwaysPartial,
                    // overlap_test's Unknown is *undecided*, not "varies".
                    Overlap::Unknown => Truth::Undecidable,
                }
            }
        }
    }
}

/// How two base objects relate, after merging the stage-1 axioms with the
/// stage-2 provenance tracing (both are inputs to the semantic model, so
/// the audit may assume them — what it refuses to assume is the *stage
/// plumbing* that applies them).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Relation {
    Same,
    Distinct,
    Unknown,
}

fn base_identity(region: &Region, ba: nachos_ir::BaseId, bb: nachos_ir::BaseId) -> Relation {
    #[derive(PartialEq, Eq, Clone, Copy)]
    enum Id {
        Caller(u32),
        Local(nachos_ir::BaseId),
        Opaque,
    }
    let eff = |base: nachos_ir::BaseId| {
        let obj = region.base(base);
        match &obj.kind {
            BaseKind::Global { .. } => match obj.caller_object {
                Some(c) => Id::Caller(c),
                None => Id::Local(base),
            },
            BaseKind::Stack { .. } | BaseKind::Heap { .. } => Id::Local(base),
            BaseKind::Arg { index } => match region.context.provenance(*index) {
                Provenance::Object(c) => Id::Caller(c),
                Provenance::Unknown => Id::Opaque,
            },
        }
    };
    match (eff(ba), eff(bb)) {
        (Id::Opaque, _) | (_, Id::Opaque) => {
            let (ka, kb) = (&region.base(ba).kind, &region.base(bb).kind);
            if ka.is_identified_object() && kb.is_identified_object() {
                return Relation::Distinct;
            }
            if matches!(
                (ka, kb),
                (BaseKind::Arg { .. }, BaseKind::Stack { .. })
                    | (BaseKind::Stack { .. }, BaseKind::Arg { .. })
            ) {
                return Relation::Distinct;
            }
            Relation::Unknown
        }
        (Id::Caller(x), Id::Caller(y)) => {
            if x == y {
                Relation::Same
            } else {
                Relation::Distinct
            }
        }
        (Id::Caller(_), Id::Local(_)) | (Id::Local(_), Id::Caller(_)) => Relation::Distinct,
        (Id::Local(x), Id::Local(y)) => {
            if x == y {
                Relation::Same
            } else {
                Relation::Distinct
            }
        }
    }
}

/// Smallest provable magnitude of a possibly-symbolic stride factor
/// (mirrors the stage-4 precondition; reimplemented so the audit does not
/// depend on stage-4 internals).
fn min_magnitude(factor: ScaledParam, region: &Region) -> Option<i64> {
    match factor.param {
        None => Some(factor.scale.abs()),
        Some(p) => {
            let info = region.params.get(p.index())?;
            if info.min >= 1 {
                factor.scale.abs().checked_mul(info.min)
            } else {
                None
            }
        }
    }
}

fn shapes_compatible(region: &Region, a: &[Subscript], b: &[Subscript]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).enumerate().all(|(d, (sa, sb))| {
            sa.stride == sb.stride
                && sa.extent == sb.extent
                && (d == 0 || sa.extent.is_some())
                && min_magnitude(sa.stride, region).is_some()
        })
}

/// Independent per-dimension truth for two multidimensional views of the
/// same array whose strides are symbolic. Sound only under the in-bounds
/// index-vector/address bijection; `None` when the preconditions fail.
fn multidim_truth(cx: &AuditCx<'_>, a: &MemRef, b: &MemRef) -> Option<Truth> {
    let (
        PtrExpr::MultiDim {
            base: ba,
            subs: sa,
            in_bounds: ia,
        },
        PtrExpr::MultiDim {
            base: bb,
            subs: sb,
            in_bounds: ib,
        },
    ) = (&a.ptr, &b.ptr)
    else {
        return None;
    };
    if ba != bb || !ia || !ib || !shapes_compatible(cx.region, sa, sb) {
        return None;
    }
    let inner_min = min_magnitude(sa.last()?.stride, cx.region)?;
    if i64::from(a.size) > inner_min || i64::from(b.size) > inner_min {
        return None;
    }
    let mut all_exact = true;
    for (da, db) in sa.iter().zip(sb) {
        // Reparameterize to iteration counts: an exact description of the
        // subscript deltas the runtime produces (stepped loops included).
        let (delta, kbx) = iteration_space(&da.index.sub(&db.index), &cx.region.loops);
        match scalar_truth(&delta, &kbx, 1, 1, cx.config.oracle_points) {
            // One dimension's subscripts never coincide: under the
            // bijection the element vectors always differ, so the
            // (element-contained) accesses never touch.
            Truth::Never => return Some(Truth::Never),
            Truth::AlwaysExact => {}
            // "Sometimes equal" does not compose across dimensions (the
            // equal points need not coincide), so stay silent.
            _ => all_exact = false,
        }
    }
    if all_exact {
        Some(if a.size == b.size {
            Truth::AlwaysExact
        } else {
            Truth::AlwaysPartial
        })
    } else {
        None
    }
}

fn same_object_truth(cx: &AuditCx<'_>, a: &MemRef, b: &MemRef) -> Truth {
    if let (Some(la), Some(lb)) = (linearize(a), linearize(b)) {
        // Reparameterize to iteration counts — the *exact* value set the
        // runtime walks (the dense box over-approximates stepped loops).
        let (delta, kbx) = iteration_space(&la.sub(&lb), &cx.region.loops);
        return scalar_truth(
            &delta,
            &kbx,
            u32::from(a.size),
            u32::from(b.size),
            cx.config.oracle_points,
        );
    }
    multidim_truth(cx, a, b).unwrap_or(Truth::Undecidable)
}

fn ground_truth(cx: &AuditCx<'_>, a: &MemRef, b: &MemRef) -> Truth {
    // Contract axioms: `restrict` scopes and TBAA are semantic promises,
    // so they legitimize a NO label regardless of addresses.
    if let (Some(sa), Some(sb)) = (a.noalias_scope, b.noalias_scope) {
        if sa != sb {
            return Truth::Never;
        }
    }
    if !a.ty.compatible(b.ty) {
        return Truth::Never;
    }
    let region = cx.region;
    match (&a.ptr, &b.ptr) {
        (
            PtrExpr::Unknown {
                source: sa,
                offset: oa,
            },
            PtrExpr::Unknown {
                source: sb,
                offset: ob,
            },
        ) => {
            if sa == sb {
                const_truth(
                    i128::from(*oa) - i128::from(*ob),
                    u32::from(a.size),
                    u32::from(b.size),
                )
            } else {
                Truth::Undecidable
            }
        }
        (PtrExpr::Unknown { .. }, _) | (_, PtrExpr::Unknown { .. }) => {
            let known = a.ptr.base().or(b.ptr.base()).expect("one side has a base");
            match region.base(known).kind {
                // An unknown pointer cannot reach a non-escaping stack
                // slot (same axiom the pipeline relies on).
                BaseKind::Stack { .. } => Truth::Never,
                _ => Truth::Undecidable,
            }
        }
        _ => {
            let (ba, bb) = (
                a.ptr.base().expect("affine/multidim has base"),
                b.ptr.base().expect("affine/multidim has base"),
            );
            if ba == bb {
                return same_object_truth(cx, a, b);
            }
            match base_identity(region, ba, bb) {
                Relation::Same => same_object_truth(cx, a, b),
                Relation::Distinct => Truth::Never,
                Relation::Unknown => Truth::Undecidable,
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Pass 1: verdict soundness
// ---------------------------------------------------------------------------

/// Re-derives ground truth for every pair and compares it to the label.
pub struct VerdictLint;

/// Which stage could have decided a provably-decidable MAY pair.
fn attribute_precision_loss(cx: &AuditCx<'_>, a: &MemRef, b: &MemRef) -> Attribution {
    let decides = |l: AliasLabel| l != AliasLabel::May;
    let (stage, enabled) = if decides(stage1::classify_pair(cx.region, &cx.bx, a, b)) {
        (1, true)
    } else if stage2::refine_pair(cx.region, &cx.bx, a, b).is_some_and(decides) {
        (2, cx.stages.stage2)
    } else if stage4::refine_pair(cx.region, &cx.bx, a, b).is_some_and(decides) {
        (4, cx.stages.stage4)
    } else {
        return Attribution::BeyondAllStages;
    };
    Attribution::Stage { stage, enabled }
}

impl Lint for VerdictLint {
    fn name(&self) -> &'static str {
        "verdict-soundness"
    }

    fn run(&self, cx: &AuditCx<'_>) -> Vec<Diagnostic> {
        let matrix = &cx.analysis.matrix;
        let mut diags = Vec::new();
        for (pair, _, label) in matrix.pairs() {
            // A MAY label is never unsound, so the gate does not judge it.
            if label.is_may() && cx.config.advisories.is_none() {
                continue;
            }
            let a = cx.mem(matrix.node(pair.older));
            let b = cx.mem(matrix.node(pair.younger));
            let truth = ground_truth(cx, a, b);
            let site = cx.pair_site(pair);
            match label {
                AliasLabel::No => {
                    if matches!(
                        truth,
                        Truth::AlwaysExact
                            | Truth::AlwaysPartial
                            | Truth::Sometimes
                            | Truth::CanOverlap
                    ) {
                        diags.push(cx.diag(
                            Code::UnsoundNo,
                            site,
                            format!("pair labelled NO but the accesses {truth}"),
                        ));
                    }
                }
                AliasLabel::MustExact => {
                    if matches!(
                        truth,
                        Truth::Never | Truth::AlwaysPartial | Truth::Sometimes
                    ) {
                        diags.push(cx.diag(
                            Code::MustMismatch,
                            site,
                            format!("pair labelled MUST(exact) but the accesses {truth}"),
                        ));
                    }
                }
                AliasLabel::MustPartial => {
                    if matches!(truth, Truth::Never | Truth::AlwaysExact | Truth::Sometimes) {
                        diags.push(cx.diag(
                            Code::MustMismatch,
                            site,
                            format!("pair labelled MUST(partial) but the accesses {truth}"),
                        ));
                    }
                }
                AliasLabel::May => {
                    let provable = match truth {
                        Truth::Never => Some("NO"),
                        Truth::AlwaysExact => Some("MUST(exact)"),
                        Truth::AlwaysPartial => Some("MUST(partial)"),
                        _ => None,
                    };
                    if let Some(better) = provable {
                        let attribution = attribute_precision_loss(cx, a, b);
                        diags.push(Diagnostic {
                            attribution: Some(attribution),
                            ..cx.diag(
                                Code::PrecisionLoss,
                                site,
                                format!(
                                    "pair labelled MAY but is provably {better} ({attribution})"
                                ),
                            )
                        });
                    }
                }
            }
        }
        diags
    }
}

// ---------------------------------------------------------------------------
// Pass 2: MDE race detection
// ---------------------------------------------------------------------------

/// Proves every surviving MUST/MAY pair is ordered in the final DFG, and
/// that the committed plan, the edges and the labels agree.
pub struct RaceLint;

/// `true` when the ordering edge `src → dst` is already implied by the
/// remaining graph: either a parallel ordering edge exists, or some other
/// first hop out of `src` reaches `dst` through the closure. Sound in a
/// DAG: any implying path must leave `src` by one of its out-edges.
fn first_hop_redundant(region: &Region, closure: &Reachability, src: NodeId, dst: NodeId) -> bool {
    let mut direct = 0usize;
    for e in region.dfg.out_edges(src) {
        if !matches!(e.kind, EdgeKind::Data | EdgeKind::Order | EdgeKind::Forward) {
            continue;
        }
        if e.dst == dst {
            direct += 1;
            continue;
        }
        if closure.reaches(e.dst, dst) {
            return true;
        }
    }
    direct > 1
}

impl Lint for RaceLint {
    fn name(&self) -> &'static str {
        "mde-race"
    }

    #[allow(clippy::too_many_lines)]
    fn run(&self, cx: &AuditCx<'_>) -> Vec<Diagnostic> {
        let region = cx.region;
        let matrix = &cx.analysis.matrix;
        let plan: &MdePlan = &cx.analysis.plan;
        let mut diags = Vec::new();
        // Guaranteed ordering: data flow, ORDER tokens and FORWARD values.
        // A MAY edge orders only its own endpoints (the runtime check may
        // release the younger op early, so MAY never participates in
        // transitive chains).
        let closure = Reachability::of_dfg(
            &region.dfg,
            &[EdgeKind::Data, EdgeKind::Order, EdgeKind::Forward],
        );
        let has_edge = |s: NodeId, d: NodeId, kind: EdgeKind| {
            region
                .dfg
                .out_edges(s)
                .any(|e| e.dst == d && e.kind == kind)
        };
        // The MAY pairs the optimizer coalesced, each ordered through its
        // kept congruent sibling.
        let coalesced: FoldSet<(NodeId, NodeId)> = cx
            .analysis
            .opt
            .iter()
            .flat_map(|o| &o.certs)
            .map(|c| c.removed)
            .collect();

        // A-E03: every surviving MUST/MAY pair needs an ordering chain.
        for (pair, _, label) in matrix.pairs() {
            let (s, d) = (matrix.node(pair.older), matrix.node(pair.younger));
            let ordered = match label {
                AliasLabel::No => true,
                // A coalesced MAY pair is ordered *through* its kept
                // sibling comparator; `CertLint` independently re-verifies
                // that claim (kept edge present, congruent address,
                // guaranteed witness path), so accepting it here does not
                // extend trust to the optimizer.
                AliasLabel::May => {
                    has_edge(s, d, EdgeKind::May)
                        || closure.reaches(s, d)
                        || coalesced.contains(&(s, d))
                }
                AliasLabel::MustExact | AliasLabel::MustPartial => closure.reaches(s, d),
            };
            if !ordered {
                diags.push(cx.diag(
                    Code::MissingChain,
                    Site::Pair {
                        older: s,
                        younger: d,
                    },
                    format!(
                        "surviving {label} pair has no ordering chain from older to younger \
                         in the final DFG (hardware race)"
                    ),
                ));
            }
        }

        // A-E04: FORWARD edges must connect size-matched accesses (the
        // forwarded value substitutes for the load's memory read).
        for e in region.dfg.edges() {
            if e.kind != EdgeKind::Forward {
                continue;
            }
            let (src_mem, dst_mem) = (
                region.dfg.node(e.src).kind.mem_ref(),
                region.dfg.node(e.dst).kind.mem_ref(),
            );
            if let (Some(sm), Some(dm)) = (src_mem, dst_mem) {
                if sm.size != dm.size {
                    diags.push(cx.diag(
                        Code::ForwardSizeMismatch,
                        Site::Pair {
                            older: e.src,
                            younger: e.dst,
                        },
                        format!(
                            "FORWARD edge between accesses of different sizes ({} vs {} bytes)",
                            sm.size, dm.size
                        ),
                    ));
                }
            }
        }

        // A-E05: the committed plan must agree with the labels and with
        // the edges actually present in the DFG.
        let mut index_of = vec![None; region.dfg.num_nodes()];
        for (i, &n) in matrix.ops().iter().enumerate() {
            index_of[n.index()] = Some(i);
        }
        let planned_pair = |s: NodeId, d: NodeId| -> Option<(Pair, AliasLabel)> {
            let (i, j) = (index_of[s.index()]?, index_of[d.index()]?);
            if i >= j {
                return None;
            }
            let pair = Pair {
                older: i,
                younger: j,
            };
            matrix.get(pair).map(|l| (pair, l))
        };
        let mut drift = |s: NodeId, d: NodeId, kind: EdgeKind, want: &str, label_ok: bool| {
            let site = Site::Pair {
                older: s,
                younger: d,
            };
            if !label_ok {
                diags.push(cx.diag(
                    Code::PlanDrift,
                    site,
                    format!("planned {want} edge does not match the pair's final label"),
                ));
            }
            if !has_edge(s, d, kind) {
                diags.push(cx.diag(
                    Code::PlanDrift,
                    site,
                    format!("planned {want} edge is missing from the DFG"),
                ));
            }
        };
        for &(s, d) in &plan.forward {
            let ok = planned_pair(s, d).is_some_and(|(pair, l)| {
                l == AliasLabel::MustExact && matrix.kind(pair) == PairKind::StLd
            });
            drift(s, d, EdgeKind::Forward, "FORWARD", ok);
        }
        for &(s, d) in &plan.order {
            let ok = planned_pair(s, d).is_some_and(|(_, l)| l.is_must());
            drift(s, d, EdgeKind::Order, "ORDER", ok);
        }
        for &(s, d) in &plan.may {
            let ok = planned_pair(s, d).is_some_and(|(_, l)| l.is_may());
            drift(s, d, EdgeKind::May, "MAY", ok);
        }

        // A-W02: transitively-redundant MDEs stage 3 should have pruned.
        // ST→LD ORDER edges are committed unconditionally (forwarding must
        // stay possible), and edges with a scratchpad endpoint belong to
        // the local-dependency pass — both are excluded. Advisory only.
        if cx.stages.stage3 && cx.config.advisories.is_some() {
            for e in region.dfg.edges() {
                match e.kind {
                    EdgeKind::Order => {
                        let Some((pair, _)) = planned_pair(e.src, e.dst) else {
                            continue;
                        };
                        if matrix.kind(pair) == PairKind::StLd {
                            continue;
                        }
                        if first_hop_redundant(region, &closure, e.src, e.dst) {
                            diags.push(
                                cx.diag(
                                    Code::RedundantMde,
                                    Site::Pair {
                                        older: e.src,
                                        younger: e.dst,
                                    },
                                    "ORDER edge is implied by other ordering edges \
                                 (missed stage-3 pruning)"
                                        .to_owned(),
                                ),
                            );
                        }
                    }
                    EdgeKind::May
                        if planned_pair(e.src, e.dst).is_some()
                            && closure.reaches(e.src, e.dst) =>
                    {
                        diags.push(
                            cx.diag(
                                Code::RedundantMde,
                                Site::Pair {
                                    older: e.src,
                                    younger: e.dst,
                                },
                                "MAY edge is implied by guaranteed ordering edges \
                             (missed stage-3 pruning)"
                                    .to_owned(),
                            ),
                        );
                    }
                    _ => {}
                }
            }
        }
        diags
    }
}

// ---------------------------------------------------------------------------
// Pass 3: certificate re-verification
// ---------------------------------------------------------------------------

/// Independently re-verifies every rewrite certificate `nachos-opt`
/// recorded, without trusting the optimizer's own search: witness paths
/// are re-walked edge by edge against the final DFG and address
/// congruence is re-compared on the raw [`MemRef`]s.
/// A no-op when the region was not optimized. Any failure is a hard
/// [`Code::BadCertificate`] error — the driver refuses the region.
pub struct CertLint;

impl CertLint {
    /// Checks one certificate against the final DFG and `may`, the final
    /// plan's MAY edges.
    fn check(
        cx: &AuditCx<'_>,
        may: &FoldSet<(NodeId, NodeId)>,
        diags: &mut Vec<Diagnostic>,
        cert: &crate::optimize::Certificate,
    ) {
        let crate::optimize::Certificate {
            removed,
            kept,
            ref witness,
        } = *cert;
        let site = Site::Pair {
            older: removed.0,
            younger: removed.1,
        };
        let dfg = &cx.region.dfg;
        let has_may = |(s, d): (NodeId, NodeId)| {
            dfg.out_edges(s)
                .any(|e| e.dst == d && e.kind == EdgeKind::May)
        };
        if may.contains(&removed) || has_may(removed) {
            diags.push(cx.diag(
                Code::BadCertificate,
                site,
                "coalescing certificate for a MAY edge still present".to_owned(),
            ));
        }
        if !may.contains(&kept) || !has_may(kept) {
            diags.push(cx.diag(
                Code::BadCertificate,
                site,
                format!(
                    "coalescing certificate's kept MAY edge {}->{} is missing \
                     from the final plan",
                    kept.0, kept.1
                ),
            ));
            return;
        }
        let mem = |n: NodeId| dfg.node(n).kind.mem_ref();
        // Re-establish the congruence and the ordering claim from scratch:
        // the non-shared endpoints must carry identical memory references,
        // and the witness must order the removed pair through the kept one.
        let (congruent, from, to) = if removed.1 == kept.1 && removed.0 != kept.0 {
            // Shared destination: the kept source completes after the
            // removed source, so the path runs removed.0 ⇝ kept.0.
            (mem(removed.0) == mem(kept.0), removed.0, kept.0)
        } else if removed.0 == kept.0 && removed.1 != kept.1 {
            // Shared source: the removed destination starts after the kept
            // one, so the path runs kept.1 ⇝ removed.1.
            (mem(removed.1) == mem(kept.1), kept.1, removed.1)
        } else {
            diags.push(cx.diag(
                Code::BadCertificate,
                site,
                format!(
                    "coalescing certificate shares no endpoint with its kept \
                     edge {}->{}",
                    kept.0, kept.1
                ),
            ));
            return;
        };
        if !congruent || mem(from).is_none() {
            diags.push(cx.diag(
                Code::BadCertificate,
                site,
                "coalesced MAY edges do not test a congruent address".to_owned(),
            ));
        }
        if !crate::optimize::path_valid(dfg, witness, from, to) {
            diags.push(cx.diag(
                Code::BadCertificate,
                site,
                format!(
                    "coalescing witness {witness:?} is not a guaranteed path \
                     from {from} to {to} in the final DFG"
                ),
            ));
        }
    }
}

impl Lint for CertLint {
    fn name(&self) -> &'static str {
        "certificates"
    }

    fn run(&self, cx: &AuditCx<'_>) -> Vec<Diagnostic> {
        let Some(opt) = cx.analysis.opt.as_ref() else {
            return Vec::new();
        };
        let plan = &cx.analysis.plan;
        let may: FoldSet<(NodeId, NodeId)> = plan.may.iter().copied().collect();
        let mut diags = Vec::new();
        for cert in &opt.certs {
            Self::check(cx, &may, &mut diags, cert);
        }
        // Every claimed deletion must be certified, and the before/after
        // ledger must reconcile against the surviving plan. The optimizer
        // never rewrites ORDER edges.
        let s = &opt.stats;
        let ledger_ok = s.order_removed == 0
            && s.may_coalesced == opt.certs.len()
            && s.order_before == plan.order.len()
            && s.may_before == plan.may.len() + s.may_coalesced;
        if !ledger_ok {
            diags.push(cx.diag(
                Code::BadCertificate,
                Site::Region,
                format!(
                    "optimizer ledger does not reconcile: {s:?} vs {} certificates \
                     and a plan of {}/{} ORDER/MAY edges",
                    opt.certs.len(),
                    plan.order.len(),
                    plan.may.len()
                ),
            ));
        }
        diags
    }
}

// ---------------------------------------------------------------------------
// Pass 4: accounting
// ---------------------------------------------------------------------------

/// Cross-checks every total in the analysis report against a recount of
/// the final matrix and plan (catches stage bookkeeping drift).
pub struct AccountingLint;

impl Lint for AccountingLint {
    fn name(&self) -> &'static str {
        "accounting"
    }

    fn run(&self, cx: &AuditCx<'_>) -> Vec<Diagnostic> {
        let r = &cx.analysis.report;
        let matrix = &cx.analysis.matrix;
        let plan = &cx.analysis.plan;
        let mut diags = Vec::new();
        let mut check = |ok: bool, message: String| {
            if !ok {
                diags.push(cx.diag(Code::CountDrift, Site::Region, message));
            }
        };
        check(
            r.region == cx.region.name,
            format!(
                "report names region `{}` but the audited region is `{}`",
                r.region, cx.region.name
            ),
        );
        let recount = matrix.label_counts();
        check(
            r.final_labels == recount,
            format!(
                "final label counts {:?} disagree with a recount of the matrix {recount:?}",
                r.final_labels
            ),
        );
        check(
            r.num_pairs == matrix.num_tracked_pairs(),
            format!(
                "report claims {} tracked pairs but the matrix holds {}",
                r.num_pairs,
                matrix.num_tracked_pairs()
            ),
        );
        check(
            r.num_mem_ops == matrix.num_ops(),
            format!(
                "report claims {} memory ops but the matrix tracks {}",
                r.num_mem_ops,
                matrix.num_ops()
            ),
        );
        check(
            r.after_stage1.total() == r.num_pairs,
            format!(
                "stage-1 label counts total {} but {} pairs are tracked",
                r.after_stage1.total(),
                r.num_pairs
            ),
        );
        check(
            r.after_stage2.total() == r.num_pairs,
            format!(
                "stage-2 label counts total {} but {} pairs are tracked",
                r.after_stage2.total(),
                r.num_pairs
            ),
        );
        let mdes = (plan.order.len(), plan.forward.len(), plan.may.len());
        check(
            r.mdes == mdes,
            format!(
                "report claims MDE counts {:?} but the plan holds {mdes:?}",
                r.mdes
            ),
        );
        check(
            r.pruned == plan.num_pruned(),
            format!(
                "report claims {} pruned relations but the plan dropped {}",
                r.pruned,
                plan.num_pruned()
            ),
        );
        diags
    }
}

// ---------------------------------------------------------------------------
// Pass 5: resource lints
// ---------------------------------------------------------------------------

/// Comparator fan-in, token fan-out, dead nodes, unreferenced symbols.
/// Advisory only: the soundness gate skips it.
pub struct ResourceLint;

impl Lint for ResourceLint {
    fn name(&self) -> &'static str {
        "resources"
    }

    fn run(&self, cx: &AuditCx<'_>) -> Vec<Diagnostic> {
        let Some(budgets) = cx.config.advisories else {
            return Vec::new();
        };
        let region = cx.region;
        let matrix = &cx.analysis.matrix;
        let mut diags = Vec::new();

        // A-W03: comparator-site fan-in over budget (Figure 14's tail).
        for (i, fanin) in may_fanin(cx.analysis).into_iter().enumerate() {
            if fanin > budgets.may_fanin_budget {
                diags.push(cx.diag(
                    Code::FaninOverBudget,
                    Site::Node(matrix.node(i)),
                    format!(
                        "MAY fan-in {fanin} exceeds the comparator budget of {}",
                        budgets.may_fanin_budget
                    ),
                ));
            }
        }

        // A-I01: token fan-out over budget.
        for n in region.dfg.node_ids() {
            let fanout = region.dfg.out_edges(n).filter(|e| e.kind.is_mde()).count();
            if fanout > budgets.token_fanout_budget {
                diags.push(cx.diag(
                    Code::TokenFanout,
                    Site::Node(n),
                    format!(
                        "token fan-out {fanout} exceeds the budget of {}",
                        budgets.token_fanout_budget
                    ),
                ));
            }
        }

        // A-I02: value-producing nodes nobody consumes.
        for n in region.dfg.node_ids() {
            let kind = &region.dfg.node(n).kind;
            if kind.is_store() || matches!(kind, OpKind::Output) {
                continue;
            }
            if region.dfg.out_edges(n).all(|e| e.kind != EdgeKind::Data) {
                diags.push(cx.diag(
                    Code::DeadNode,
                    Site::Node(n),
                    format!("{} node produces a value no operation consumes", kind),
                ));
            }
        }

        // A-I03: symbol-table entries no memory reference uses.
        let mut used_bases = vec![false; region.bases.len()];
        let mut used_loops = vec![false; region.loops.len()];
        let mut used_params = vec![false; region.params.len()];
        let mut used_unknowns = vec![false; region.num_unknowns];
        let mark_loop = |expr: &AffineExpr, used_loops: &mut Vec<bool>| {
            for (l, _) in expr.terms() {
                if let Some(slot) = used_loops.get_mut(l.index()) {
                    *slot = true;
                }
            }
        };
        for n in region.dfg.node_ids() {
            let Some(mem) = region.dfg.node(n).kind.mem_ref() else {
                continue;
            };
            match &mem.ptr {
                PtrExpr::Affine { base, offset } => {
                    used_bases[base.index()] = true;
                    mark_loop(offset, &mut used_loops);
                }
                PtrExpr::MultiDim { base, subs, .. } => {
                    used_bases[base.index()] = true;
                    for sub in subs {
                        mark_loop(&sub.index, &mut used_loops);
                        for p in [sub.stride.param, sub.extent.and_then(|e| e.param)]
                            .into_iter()
                            .flatten()
                        {
                            used_params[p.index()] = true;
                        }
                    }
                }
                PtrExpr::Unknown { source, .. } => {
                    used_unknowns[source.index()] = true;
                }
            }
        }
        let mut unused = |what: String| {
            diags.push(cx.diag(Code::UnreferencedSymbol, Site::Region, what));
        };
        for (i, &used) in used_bases.iter().enumerate() {
            if !used {
                unused(format!("base b{i} is never referenced"));
            }
        }
        for (i, &used) in used_loops.iter().enumerate() {
            if !used {
                let (_, info) = region
                    .loops
                    .iter()
                    .nth(i)
                    .expect("index within loop nest length");
                unused(format!(
                    "loop l{i} (`{}`) never appears in an access expression",
                    info.name
                ));
            }
        }
        for (i, &used) in used_params.iter().enumerate() {
            if !used {
                unused(format!("param p{i} is never referenced"));
            }
        }
        for (i, &used) in used_unknowns.iter().enumerate() {
            if !used {
                unused(format!("unknown pointer source u{i} is never referenced"));
            }
        }
        diags
    }
}

// ---------------------------------------------------------------------------
// Differential replay
// ---------------------------------------------------------------------------

/// Replays the reference executor's address walk under `binding` and
/// reports every NO pair whose byte intervals collide at some invocation
/// ([`Code::DynamicCollision`]).
///
/// Contract-justified NO pairs (different `restrict` scopes, incompatible
/// access types) are exempt: they are semantic promises about the program,
/// and a binding may legally place such accesses at overlapping addresses.
#[must_use]
pub fn differential_no_collisions(
    region: &Region,
    matrix: &AliasMatrix,
    binding: &Binding,
    invocations: u64,
) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    // An incomplete binding or a zero-trip nest leaves nothing to replay.
    if binding.base_addrs.len() < region.bases.len()
        || binding.unknowns.len() < region.num_unknowns
        || binding.params.len() < region.params.len()
        || (!region.loops.is_empty() && region.loops.total_invocations() == 0)
    {
        return diags;
    }
    let mem = |idx: usize| -> &MemRef {
        region
            .dfg
            .node(matrix.node(idx))
            .kind
            .mem_ref()
            .expect("matrix tracks memory ops")
    };
    let mut pairs: Vec<Pair> = matrix
        .pairs()
        .filter(|&(pair, _, label)| {
            if !label.is_no() {
                return false;
            }
            let (a, b) = (mem(pair.older), mem(pair.younger));
            // Contract exemptions.
            if let (Some(sa), Some(sb)) = (a.noalias_scope, b.noalias_scope) {
                if sa != sb {
                    return false;
                }
            }
            a.ty.compatible(b.ty)
        })
        .map(|(pair, _, _)| pair)
        .collect();
    if pairs.is_empty() {
        return diags;
    }
    let nest_total = region.loops.total_invocations().max(1);
    for inv in 0..invocations {
        let iv = if region.loops.is_empty() {
            Vec::new()
        } else {
            region.loops.iteration_vector(inv % nest_total)
        };
        let unknown_vals = binding.unknown_values(inv);
        let ctx = binding.eval_ctx(&iv, &unknown_vals);
        let spans: Vec<(u128, u128)> = (0..matrix.num_ops())
            .map(|idx| {
                let m = mem(idx);
                let lo = u128::from(m.eval(&ctx));
                (lo, lo + u128::from(m.size))
            })
            .collect();
        pairs.retain(|&pair| {
            let (a_lo, a_hi) = spans[pair.older];
            let (b_lo, b_hi) = spans[pair.younger];
            if a_lo < b_hi && b_lo < a_hi {
                diags.push(Diagnostic::new(
                    Code::DynamicCollision,
                    &region.name,
                    Site::Pair {
                        older: matrix.node(pair.older),
                        younger: matrix.node(pair.younger),
                    },
                    format!(
                        "NO pair collides dynamically at invocation {inv}: \
                         [{a_lo:#x}, {a_hi:#x}) overlaps [{b_lo:#x}, {b_hi:#x})"
                    ),
                ));
                false // one collision per pair is evidence enough
            } else {
                true
            }
        });
        if pairs.is_empty() {
            break;
        }
    }
    finish(diags)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::compile;
    use nachos_ir::{AffineExpr, IntOp, LoopInfo, MemRef, RegionBuilder, UnknownPattern};

    fn errors(diags: &[Diagnostic]) -> Vec<&Diagnostic> {
        diags.iter().filter(|d| d.is_error()).collect()
    }

    /// Two stores to the same address whose data chains are independent —
    /// the ordering between them exists only as an ORDER MDE.
    fn token_region() -> Region {
        let mut b = RegionBuilder::new("token");
        let g = b.global("g", 64, 0);
        let m = MemRef::affine(g, AffineExpr::zero());
        let x = b.input();
        b.store(m.clone(), &[x]);
        let y = b.int_op(IntOp::Add, &[x]);
        let s2 = b.store(m, &[y]);
        b.output(s2);
        b.finish()
    }

    #[test]
    fn clean_pipeline_audits_clean() {
        let mut r = token_region();
        let analysis = compile(&mut r, StageConfig::full());
        let diags = audit(&r, &analysis, StageConfig::full());
        assert!(
            errors(&diags).is_empty(),
            "unexpected errors: {:?}",
            errors(&diags)
        );
    }

    #[test]
    fn every_stage_config_audits_clean() {
        for stages in [
            StageConfig::full(),
            StageConfig::baseline(),
            StageConfig::stage1_only(),
        ] {
            let mut r = token_region();
            let analysis = compile(&mut r, stages);
            let diags = audit(&r, &analysis, stages);
            assert!(
                errors(&diags).is_empty(),
                "{stages:?}: {:?}",
                errors(&diags)
            );
        }
    }

    #[test]
    fn hand_broken_no_label_is_unsound() {
        let mut r = token_region();
        let mut analysis = compile(&mut r, StageConfig::full());
        let pair = Pair {
            older: 0,
            younger: 1,
        };
        assert_eq!(analysis.matrix.get(pair), Some(AliasLabel::MustExact));
        analysis.matrix.set(pair, AliasLabel::No);
        let diags = audit(&r, &analysis, StageConfig::full());
        assert!(
            diags
                .iter()
                .any(|d| d.code == Code::UnsoundNo && d.is_error()),
            "auditor missed the unsound NO: {diags:?}"
        );
    }

    #[test]
    fn hand_deleted_order_edge_is_a_race() {
        let mut r = token_region();
        let analysis = compile(&mut r, StageConfig::full());
        let order_edges: Vec<usize> = r
            .dfg
            .edges()
            .enumerate()
            .filter(|(_, e)| e.kind == EdgeKind::Order)
            .map(|(i, _)| i)
            .collect();
        assert!(!order_edges.is_empty(), "token region must carry an ORDER");
        r.dfg.remove_edge_unchecked(order_edges[0]);
        let diags = audit(&r, &analysis, StageConfig::full());
        assert!(
            diags
                .iter()
                .any(|d| d.code == Code::MissingChain && d.is_error()),
            "auditor missed the race: {diags:?}"
        );
        assert!(
            diags.iter().any(|d| d.code == Code::PlanDrift),
            "plan/DFG drift should also surface: {diags:?}"
        );
    }

    #[test]
    fn must_flavor_mismatch_is_flagged() {
        let mut r = token_region();
        let mut analysis = compile(&mut r, StageConfig::full());
        let pair = Pair {
            older: 0,
            younger: 1,
        };
        analysis.matrix.set(pair, AliasLabel::MustPartial);
        let diags = audit(&r, &analysis, StageConfig::full());
        assert!(
            diags
                .iter()
                .any(|d| d.code == Code::MustMismatch && d.is_error()),
            "{diags:?}"
        );
    }

    #[test]
    fn report_drift_is_flagged() {
        let mut r = token_region();
        let mut analysis = compile(&mut r, StageConfig::full());
        analysis.report.num_pairs += 1;
        let diags = audit(&r, &analysis, StageConfig::full());
        assert!(
            diags.iter().any(|d| d.code == Code::CountDrift),
            "{diags:?}"
        );
    }

    #[test]
    fn precision_loss_attributes_disabled_stage() {
        // Two arguments traced to distinct caller objects: stage 2 decides
        // NO, so with stage 2 disabled the MAY is attributed there.
        let mut b = RegionBuilder::new("attr");
        let a0 = b.arg(0, Provenance::Object(1));
        let a1 = b.arg(1, Provenance::Object(2));
        b.store(MemRef::affine(a0, AffineExpr::zero()), &[]);
        b.load(MemRef::affine(a1, AffineExpr::zero()), &[]);
        let mut r = b.finish();
        let stages = StageConfig::stage1_only();
        let analysis = compile(&mut r, stages);
        let diags = audit(&r, &analysis, stages);
        let loss: Vec<_> = diags
            .iter()
            .filter(|d| d.code == Code::PrecisionLoss)
            .collect();
        assert_eq!(loss.len(), 1, "{diags:?}");
        assert!(
            loss[0].message.contains("stage 2 (disabled)"),
            "{}",
            loss[0].message
        );
        assert_eq!(
            loss[0].attribution,
            Some(Attribution::Stage {
                stage: 2,
                enabled: false
            })
        );
        assert!(errors(&diags).is_empty(), "{:?}", errors(&diags));
    }

    #[test]
    fn the_gate_skips_every_advisory_arm() {
        // A provable MAY pair, an unused global and a dead input: the full
        // audit warns and informs, the gate says nothing.
        let mut b = RegionBuilder::new("gate");
        let a0 = b.arg(0, Provenance::Object(1));
        let a1 = b.arg(1, Provenance::Object(2));
        let _unused = b.global("spare", 64, 1);
        let _dead = b.input();
        b.store(MemRef::affine(a0, AffineExpr::zero()), &[]);
        b.load(MemRef::affine(a1, AffineExpr::zero()), &[]);
        let mut r = b.finish();
        let stages = StageConfig::stage1_only();
        let mut analysis = compile(&mut r, stages);
        let full = audit(&r, &analysis, stages);
        for code in [
            Code::PrecisionLoss,
            Code::UnreferencedSymbol,
            Code::DeadNode,
        ] {
            assert!(full.iter().any(|d| d.code == code), "{code}: {full:?}");
        }
        let gate = audit_with(&r, &analysis, stages, &AuditConfig::quick());
        assert!(gate.is_empty(), "{gate:?}");
        // Its Errors still surface.
        analysis.report.pruned += 1;
        let gate = audit_with(&r, &analysis, stages, &AuditConfig::quick());
        assert_eq!(gate.len(), 1, "{gate:?}");
        assert_eq!(gate[0].code, Code::CountDrift);
    }

    #[test]
    fn differential_catches_colliding_no() {
        // Two unknown-pointer accesses the binding pins to the same
        // address; force their label to NO and replay.
        let mut b = RegionBuilder::new("diff");
        let u0 = b.unknown_ptr();
        let u1 = b.unknown_ptr();
        let x = b.input();
        b.store(MemRef::unknown(u0, 0), &[x]);
        b.load(MemRef::unknown(u1, 0), &[]);
        let mut r = b.finish();
        let mut analysis = compile(&mut r, StageConfig::full());
        let pair = Pair {
            older: 0,
            younger: 1,
        };
        assert_eq!(analysis.matrix.get(pair), Some(AliasLabel::May));
        analysis.matrix.set(pair, AliasLabel::No);
        let binding = Binding {
            base_addrs: Vec::new(),
            params: Vec::new(),
            unknowns: vec![UnknownPattern::Fixed(0x1000), UnknownPattern::Fixed(0x1000)],
        };
        let diags = differential_no_collisions(&r, &analysis.matrix, &binding, 4);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].code, Code::DynamicCollision);
        assert!(diags[0].is_error());
    }

    #[test]
    fn differential_accepts_sound_no() {
        let mut b = RegionBuilder::new("diff-ok");
        let g = b.global("g", 64, 0);
        b.store(MemRef::affine(g, AffineExpr::zero()), &[]);
        b.load(MemRef::affine(g, AffineExpr::constant_expr(16)), &[]);
        let mut r = b.finish();
        let analysis = compile(&mut r, StageConfig::full());
        let binding = Binding {
            base_addrs: vec![0x1000],
            params: Vec::new(),
            unknowns: Vec::new(),
        };
        let diags = differential_no_collisions(&r, &analysis.matrix, &binding, 8);
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn resource_lints_flag_unreferenced_symbols_and_dead_nodes() {
        let mut b = RegionBuilder::new("resources");
        let g = b.global("g", 64, 0);
        let _unused = b.global("spare", 64, 1);
        let _dead = b.input();
        b.load(MemRef::affine(g, AffineExpr::zero()), &[]);
        let mut r = b.finish();
        let analysis = compile(&mut r, StageConfig::full());
        let diags = audit(&r, &analysis, StageConfig::full());
        assert!(
            diags.iter().any(|d| d.code == Code::UnreferencedSymbol),
            "{diags:?}"
        );
        assert!(diags.iter().any(|d| d.code == Code::DeadNode), "{diags:?}");
        assert!(errors(&diags).is_empty(), "{:?}", errors(&diags));
    }

    #[test]
    fn strided_loop_region_audits_clean() {
        let mut b = RegionBuilder::new("strided");
        let i = b.enclosing_loop(LoopInfo::range("i", 0, 8));
        let g = b.global("g", 4096, 0);
        let x = b.input();
        b.store(MemRef::affine(g, AffineExpr::var(i).scaled(8)), &[x]);
        let ld = b.load(MemRef::affine(g, AffineExpr::var(i).scaled(8).plus(8)), &[]);
        let out = b.int_op(IntOp::Add, &[ld, x]);
        b.output(out);
        let mut r = b.finish();
        let analysis = compile(&mut r, StageConfig::full());
        let diags = audit(&r, &analysis, StageConfig::full());
        assert!(errors(&diags).is_empty(), "{:?}", errors(&diags));
    }

    #[test]
    fn scalar_truth_distinguishes_sometimes_from_undecidable() {
        let bx = IvBox::from_bounds(vec![(0, 9)]);
        // delta = 8i - 36: hits the window sometimes, misses sometimes.
        let delta = AffineExpr::var(nachos_ir::LoopId::new(0))
            .scaled(8)
            .plus(-36);
        assert_eq!(scalar_truth(&delta, &bx, 8, 8, 1 << 12), Truth::Sometimes);
        // Constant 0 difference: always exact.
        assert_eq!(
            scalar_truth(&AffineExpr::zero(), &bx, 8, 8, 0),
            Truth::AlwaysExact
        );
        // Disjoint stride.
        let far = AffineExpr::var(nachos_ir::LoopId::new(0))
            .scaled(8)
            .plus(512);
        assert_eq!(scalar_truth(&far, &bx, 8, 8, 0), Truth::Never);
    }

    /// An ambiguous store MAY-feeding two congruent accesses ordered by a
    /// data chain — the optimizer coalesces one comparator edge.
    fn coalescible_region() -> Region {
        let mut b = RegionBuilder::new("cert-coalesce");
        let g = b.global("g", 256, 0);
        let a0 = b.arg(0, Provenance::Unknown);
        b.store(MemRef::affine(a0, AffineExpr::zero()), &[]);
        let m = MemRef::affine(g, AffineExpr::constant_expr(8));
        let ld = b.load(m.clone(), &[]);
        let t = b.int_op(IntOp::Add, &[ld]);
        b.store(m, &[t]);
        b.finish()
    }

    fn bad_certs(diags: &[Diagnostic]) -> Vec<&Diagnostic> {
        diags
            .iter()
            .filter(|d| d.code == Code::BadCertificate)
            .collect()
    }

    #[test]
    fn corrupted_coalescing_witness_is_rejected() {
        let mut r = coalescible_region();
        let mut analysis = compile(&mut r, StageConfig::full());
        crate::optimize::optimize(&mut r, &mut analysis);
        let opt = analysis.opt.as_mut().expect("optimizer ran");
        assert_eq!(opt.stats.may_coalesced, 1, "{:?}", opt.certs);
        assert!(bad_certs(&audit(&r, &analysis, StageConfig::full())).is_empty());

        let opt = analysis.opt.as_mut().expect("optimizer ran");
        opt.certs[0].witness.reverse();
        let diags = audit(&r, &analysis, StageConfig::full());
        assert!(!bad_certs(&diags).is_empty(), "{diags:?}");
        assert!(bad_certs(&diags)[0].is_error());
    }

    #[test]
    fn unreconciled_ledger_is_rejected() {
        let mut r = coalescible_region();
        let mut analysis = compile(&mut r, StageConfig::full());
        crate::optimize::optimize(&mut r, &mut analysis);
        analysis
            .opt
            .as_mut()
            .expect("optimizer ran")
            .stats
            .order_removed += 1;
        let diags = audit(&r, &analysis, StageConfig::full());
        assert!(!bad_certs(&diags).is_empty(), "{diags:?}");
    }

    #[test]
    fn dropped_certificate_is_rejected() {
        let mut r = coalescible_region();
        let mut analysis = compile(&mut r, StageConfig::full());
        crate::optimize::optimize(&mut r, &mut analysis);
        analysis
            .opt
            .as_mut()
            .expect("optimizer ran")
            .certs
            .pop()
            .expect("one certificate");
        let diags = audit(&r, &analysis, StageConfig::full());
        assert!(!bad_certs(&diags).is_empty(), "{diags:?}");
    }

    #[test]
    fn certificate_about_surviving_edge_is_rejected() {
        let mut r = coalescible_region();
        let mut analysis = compile(&mut r, StageConfig::full());
        crate::optimize::optimize(&mut r, &mut analysis);
        let opt = analysis.opt.as_mut().expect("optimizer ran");
        // Claim the kept edge was itself coalesced into itself: it is
        // still planned and still in the DFG.
        let kept = opt.certs[0].kept;
        opt.certs.push(crate::optimize::Certificate {
            removed: kept,
            kept,
            witness: vec![kept.0, kept.1],
        });
        opt.stats.may_coalesced += 1;
        opt.stats.may_before += 1;
        let diags = audit(&r, &analysis, StageConfig::full());
        assert!(
            bad_certs(&diags)
                .iter()
                .any(|d| d.message.contains("still present")),
            "{diags:?}"
        );
    }

    #[test]
    fn diagnostics_are_sorted_and_displayed() {
        let a = Diagnostic::new(Code::DeadNode, "r", Site::Node(NodeId::new(3)), "x".into());
        let b = Diagnostic::new(
            Code::UnsoundNo,
            "r",
            Site::Pair {
                older: NodeId::new(0),
                younger: NodeId::new(1),
            },
            "y".into(),
        );
        let sorted = finish(vec![a.clone(), b.clone(), a.clone()]);
        assert_eq!(sorted.len(), 2, "dedup collapses the duplicate");
        assert_eq!(sorted[0].code, Code::UnsoundNo, "errors sort first");
        assert_eq!(sorted[0].to_string(), "error[A-E01] `r` n0->n1: y");
        assert_eq!(sorted[1].to_string(), "info[A-I02] `r` n3: x");
    }
}
