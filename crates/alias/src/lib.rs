//! # nachos-alias — the NACHOS-SW compiler
//!
//! Software-only memory disambiguation for acceleration regions, as
//! described in §V of *NACHOS: Software-Driven Hardware-Assisted Memory
//! Disambiguation for Accelerators* (HPCA 2018).
//!
//! For every ordering-relevant pair of memory operations in a region the
//! compiler assigns a label — [`AliasLabel::No`], [`AliasLabel::May`] or
//! MUST — through four refinement stages:
//!
//! 1. **Stage 1** ([`stage1`]): intraprocedural LLVM-style analyses —
//!    base-object disambiguation, TBAA, `restrict` scopes and
//!    single-induction-variable affine (SCEV) reasoning.
//! 2. **Stage 2** ([`stage2`]): inter-procedural provenance tracing of
//!    region arguments back to caller objects (MAY→NO).
//! 3. **Stage 3** ([`stage3`]): pruning of relations already implied by
//!    transitive data dependence; the survivors become memory dependency
//!    edges (MDEs).
//! 4. **Stage 4** ([`stage4`]): polyhedral dependence tests on
//!    multidimensional array subscripts (MAY→NO), the cases where SCEV
//!    gives up because strides are symbolic.
//!
//! The entry points are [`analyze`] (pure) and [`compile`] (inserts the
//! planned MDEs into the region's dataflow graph).
//!
//! ```
//! use nachos_alias::{compile, StageConfig};
//! use nachos_ir::{AffineExpr, EdgeKind, MemRef, RegionBuilder};
//!
//! let mut b = RegionBuilder::new("demo");
//! let g = b.global("g", 64, 0);
//! let m = MemRef::affine(g, AffineExpr::zero());
//! b.store(m.clone(), &[]);
//! b.load(m, &[]);
//! let mut region = b.finish();
//! let analysis = compile(&mut region, StageConfig::full());
//! // The exact store→load dependence became a forwarding edge:
//! assert_eq!(region.dfg.count_edges(EdgeKind::Forward), 1);
//! assert!(analysis.report.fully_resolved());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod afftest;
pub mod audit;
mod classify;
pub mod exact;
mod hash;
mod local;
mod matrix;
pub mod optimize;
mod pipeline;
mod reach;
pub mod stage1;
pub mod stage2;
pub mod stage3;
pub mod stage4;

pub use audit::{
    audit, audit_with, differential_no_collisions, Advisories, Attribution, AuditConfig, Code,
    Diagnostic, Lint, Severity, Site,
};
pub use classify::{classify_same_object, linearize, overlap_to_label};
pub use local::wire_local_deps;
pub use matrix::{AliasLabel, AliasMatrix, LabelCounts, Pair, PairKind};
pub use optimize::{optimize, Certificate, OptOutcome, OptStats};
pub use pipeline::{analyze, compile, may_fanin, Analysis, AnalysisReport, StageConfig};
pub use reach::Reachability;
pub use stage3::MdePlan;
