//! # nachos — software-driven hardware-assisted memory disambiguation
//!
//! The core crate of the reproduction of *NACHOS: Software-Driven
//! Hardware-Assisted Memory Disambiguation for Accelerators* (HPCA 2018).
//! It ties the substrates together:
//!
//! * the NACHOS-SW compiler ([`nachos_alias`]) labels memory-operation
//!   pairs NO/MAY/MUST and inserts memory dependency edges;
//! * the CGRA fabric ([`nachos_cgra`]) places the dataflow graph and
//!   prices the operand network;
//! * the memory substrate ([`nachos_mem`]) provides the L1/LLC/DRAM
//!   hierarchy; the OPT-LSQ baseline comes from [`nachos_lsq`];
//! * this crate's [`Run`] compiles the region and simulates it
//!   cycle-by-cycle under one of the paper's three backends or the IDEAL
//!   oracle ([`Backend`]) with an event-based energy model
//!   ([`EnergyModel`]), and [`reference::execute`] provides the in-order
//!   ground truth every backend must match.
//!
//! ```
//! use nachos::{Backend, EnergyModel, Run, SimConfig};
//! use nachos_ir::{AffineExpr, Binding, MemRef, RegionBuilder};
//!
//! let mut b = RegionBuilder::new("demo");
//! let g = b.global("g", 64, 0);
//! let m = MemRef::affine(g, AffineExpr::zero());
//! let x = b.input();
//! b.store(m.clone(), &[x]);
//! b.load(m, &[]);
//! let region = b.finish();
//! let binding = Binding { base_addrs: vec![0x1_0000], ..Binding::default() };
//! let config = SimConfig::default().with_invocations(4);
//! let run = Run::new(&region, &binding, Backend::Nachos).execute(&config, &EnergyModel::default())?;
//! assert!(run.sim.cycles > 0);
//! # Ok::<(), nachos::SimError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod analytic;
mod config;
mod driver;
mod energy;
mod engine;
mod error;
mod fault;
pub mod json;
pub mod reference;
pub mod sweep;
pub mod testutil;
pub mod value;

pub use analytic::DecentralizedModel;
pub use config::{Backend, CancelToken, SimConfig, WatchdogConfig};
pub use driver::{
    compile_for_backend, pct_slowdown, CompileMemo, CompiledRegion, ExperimentRun, Run,
};
pub use energy::{EnergyBreakdown, EnergyModel, EventCounts};
pub use engine::{
    simulate_in, BackpressureEvent, CycleRecord, NoopSink, RunSummary, SimArena, SimResult,
    StallCause, StallCounts, StatsWriter, TelemetrySink,
};
pub use error::{DeadlockCause, DeadlockInfo, SimError, StalledNode, WaitForEdge};
pub use fault::{FaultClass, FaultKind, FaultPlan, FaultSpec};
