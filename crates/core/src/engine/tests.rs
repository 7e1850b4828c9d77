//! Engine-level unit tests: reference parity, backend-relative timing,
//! energy shape and stall attribution. The port-calendar test lives next
//! to `Calendar` in `core.rs`.

use super::{simulate_in, SimArena};
use crate::config::Backend;
use crate::driver::Run;
use crate::energy::EnergyModel;
use crate::error::SimError;
use crate::testutil::{check_against_reference, sim_config as config};
use nachos_ir::{
    AffineExpr, Binding, IntOp, LoopInfo, MemRef, Provenance, RegionBuilder, UnknownPattern,
};

/// st A; ld A; st A — classic forwarding + ordering chain.
#[test]
fn ordering_chain_matches_reference() {
    let mut b = RegionBuilder::new("chain");
    let g = b.global("g", 64, 0);
    let m = MemRef::affine(g, AffineExpr::zero());
    let x = b.input();
    b.store(m.clone(), &[x]);
    let ld = b.load(m.clone(), &[]);
    let y = b.int_op(IntOp::Add, &[ld]);
    b.store(m, &[y]);
    let region = b.finish();
    let binding = Binding {
        base_addrs: vec![0x1_0000],
        ..Binding::default()
    };
    check_against_reference(&region, &binding, 5);
}

/// MAY aliases through unknown pointers that sometimes truly conflict.
#[test]
fn dynamic_conflicts_match_reference() {
    let mut b = RegionBuilder::new("may");
    let u0 = b.unknown_ptr();
    let u1 = b.unknown_ptr();
    let x = b.input();
    b.store(MemRef::unknown(u0, 0), &[x]);
    b.load(MemRef::unknown(u1, 0), &[]);
    let region = b.finish();
    // Scatter in a tiny window so real conflicts happen across
    // invocations.
    let binding = Binding {
        base_addrs: vec![],
        params: vec![],
        unknowns: vec![
            UnknownPattern::Scatter {
                seed: 1,
                lo: 0x1000,
                hi: 0x1040,
                align: 8,
            },
            UnknownPattern::Scatter {
                seed: 2,
                lo: 0x1000,
                hi: 0x1040,
                align: 8,
            },
        ],
    };
    check_against_reference(&region, &binding, 40);
}

/// Loop-carried walk over two arrays with provenance-resolvable args.
#[test]
fn strided_arrays_match_reference() {
    let mut b = RegionBuilder::new("stride");
    let i = b.enclosing_loop(LoopInfo::range("i", 0, 16));
    let a0 = b.arg(0, Provenance::Object(1));
    let a1 = b.arg(1, Provenance::Object(2));
    let ld = b.load(MemRef::affine(a0, AffineExpr::var(i).scaled(8)), &[]);
    let v = b.int_op(IntOp::Mul, &[ld]);
    b.store(MemRef::affine(a1, AffineExpr::var(i).scaled(8)), &[v]);
    let region = b.finish();
    let binding = Binding {
        base_addrs: vec![0x1_0000, 0x2_0000],
        ..Binding::default()
    };
    check_against_reference(&region, &binding, 16);
}

/// NACHOS must beat NACHOS-SW when MAY edges never truly conflict.
#[test]
fn nachos_recovers_parallelism_from_false_mays() {
    let mut b = RegionBuilder::new("false-may");
    let u0 = b.unknown_ptr();
    let u1 = b.unknown_ptr();
    let x = b.input();
    // Older store through an unknown pointer, then a chain of loads
    // that MAY-alias it but never actually do.
    b.store(MemRef::unknown(u0, 0), &[x]);
    for k in 0..6 {
        let ld = b.load(MemRef::unknown(u1, k * 64), &[]);
        b.int_op(IntOp::Add, &[ld]);
    }
    let region = b.finish();
    let binding = Binding {
        unknowns: vec![
            UnknownPattern::Fixed(0x10_0000),
            UnknownPattern::Fixed(0x20_0000),
        ],
        ..Binding::default()
    };
    let cfg = config(8);
    let em = EnergyModel::default();
    let sw = Run::new(&region, &binding, Backend::NachosSw)
        .execute(&cfg, &em)
        .unwrap();
    let hw = Run::new(&region, &binding, Backend::Nachos)
        .execute(&cfg, &em)
        .unwrap();
    assert!(
        hw.sim.cycles < sw.sim.cycles,
        "NACHOS ({}) should beat NACHOS-SW ({})",
        hw.sim.cycles,
        sw.sim.cycles
    );
    assert!(hw.sim.events.may_checks > 0, "checks actually ran");
    check_against_reference(&region, &binding, 8);
}

/// Independent loads: the LSQ's in-order allocation and load-to-use
/// penalty should cost cycles relative to NACHOS-SW.
#[test]
fn lsq_penalty_on_independent_loads() {
    let mut b = RegionBuilder::new("indep");
    for k in 0..8u32 {
        let g = b.global(&format!("g{k}"), 64, k);
        let ld = b.load(MemRef::affine(g, AffineExpr::zero()), &[]);
        b.int_op(IntOp::Add, &[ld]);
    }
    let region = b.finish();
    let binding = Binding {
        base_addrs: (0..8).map(|k| 0x1_0000 + k * 0x1000).collect(),
        ..Binding::default()
    };
    let cfg = config(8);
    let em = EnergyModel::default();
    let lsq = Run::new(&region, &binding, Backend::OptLsq)
        .execute(&cfg, &em)
        .unwrap();
    let sw = Run::new(&region, &binding, Backend::NachosSw)
        .execute(&cfg, &em)
        .unwrap();
    assert!(
        sw.sim.cycles < lsq.sim.cycles,
        "NACHOS-SW ({}) should beat OPT-LSQ ({}) here",
        sw.sim.cycles,
        lsq.sim.cycles
    );
    check_against_reference(&region, &binding, 8);
}

/// Energy: fully-resolved workloads impose no MDE energy under NACHOS
/// while the LSQ still pays per-op costs.
#[test]
fn energy_shape_for_resolved_region() {
    let mut b = RegionBuilder::new("resolved");
    let g0 = b.global("a", 64, 0);
    let g1 = b.global("b", 64, 1);
    let x = b.input();
    b.store(MemRef::affine(g0, AffineExpr::zero()), &[x]);
    b.load(MemRef::affine(g1, AffineExpr::zero()), &[]);
    let region = b.finish();
    let binding = Binding {
        base_addrs: vec![0x1_0000, 0x2_0000],
        ..Binding::default()
    };
    let cfg = config(4);
    let em = EnergyModel::default();
    let hw = Run::new(&region, &binding, Backend::Nachos)
        .execute(&cfg, &em)
        .unwrap();
    assert_eq!(hw.sim.energy.mde, 0.0, "no MAY/MUST edges survive");
    let lsq = Run::new(&region, &binding, Backend::OptLsq)
        .execute(&cfg, &em)
        .unwrap();
    assert!(lsq.sim.energy.lsq() > 0.0);
    assert_eq!(hw.sim.energy.lsq(), 0.0);
}

/// Scratchpad accesses bypass both the LSQ and the cache.
#[test]
fn scratchpad_bypasses_cache_and_lsq() {
    use nachos_ir::MemSpace;
    let mut b = RegionBuilder::new("scratch");
    let g = b.global("g", 64, 0);
    let m = MemRef::affine(g, AffineExpr::zero()).with_space(MemSpace::Scratchpad);
    let x = b.input();
    b.store(m.clone(), &[x]);
    b.load(m, &[]);
    let region = b.finish();
    let binding = Binding {
        base_addrs: vec![0x1_0000],
        ..Binding::default()
    };
    let cfg = config(2);
    let em = EnergyModel::default();
    for backend in Backend::ALL {
        let run = Run::new(&region, &binding, backend)
            .execute(&cfg, &em)
            .unwrap();
        assert_eq!(run.sim.events.l1_accesses, 0, "{backend}: no cache traffic");
        assert_eq!(run.sim.l1.accesses(), 0);
    }
    check_against_reference(&region, &binding, 2);
}

/// Store-to-load forwarding is used by both schemes and skips the L1.
#[test]
fn forwarding_skips_cache() {
    let mut b = RegionBuilder::new("fwd");
    let g = b.global("g", 64, 0);
    let m = MemRef::affine(g, AffineExpr::zero());
    let x = b.input();
    b.store(m.clone(), &[x]);
    b.load(m, &[]);
    let region = b.finish();
    let binding = Binding {
        base_addrs: vec![0x1_0000],
        ..Binding::default()
    };
    let cfg = config(3);
    let em = EnergyModel::default();
    for backend in Backend::ALL {
        let run = Run::new(&region, &binding, backend)
            .execute(&cfg, &em)
            .unwrap();
        assert_eq!(
            run.sim.events.forwards, 3,
            "{backend}: one forward per invocation"
        );
        // Only the store touches the cache.
        assert_eq!(run.sim.events.l1_accesses, 3, "{backend}");
    }
    check_against_reference(&region, &binding, 3);
}

#[test]
fn incomplete_binding_is_rejected() {
    let mut b = RegionBuilder::new("t");
    let g = b.global("g", 64, 0);
    b.load(MemRef::affine(g, AffineExpr::zero()), &[]);
    let region = b.finish();
    let err = simulate_in(
        &mut SimArena::new(),
        &region,
        &Binding::default(),
        Backend::Nachos,
        &config(1),
        &EnergyModel::default(),
    )
    .unwrap_err();
    assert!(matches!(err, SimError::IncompleteBinding(_)));
    assert!(err.to_string().contains("base"));
}

#[test]
fn cycles_scale_with_invocations() {
    let mut b = RegionBuilder::new("t");
    let g = b.global("g", 64, 0);
    b.load(MemRef::affine(g, AffineExpr::zero()), &[]);
    let region = b.finish();
    let binding = Binding {
        base_addrs: vec![0x1_0000],
        ..Binding::default()
    };
    let em = EnergyModel::default();
    let one = simulate_in(
        &mut SimArena::new(),
        &region,
        &binding,
        Backend::Nachos,
        &config(1),
        &em,
    )
    .unwrap();
    let four = simulate_in(
        &mut SimArena::new(),
        &region,
        &binding,
        Backend::Nachos,
        &config(4),
        &em,
    )
    .unwrap();
    assert!(four.cycles > one.cycles);
    assert_eq!(four.invocations, 4);
    assert!(
        four.cycles_per_invocation() < one.cycles_per_invocation() * 1.5,
        "warm cache should not inflate per-invocation cost"
    );
}

/// Regression guard for `try_may_check`'s byte-overlap test: accesses
/// of different sizes that only *partially* overlap (no shared start
/// address) must still be detected as conflicts and released in order.
#[test]
fn partial_byte_overlap_conflicts_match_reference() {
    let mut b = RegionBuilder::new("overlap");
    let u0 = b.unknown_ptr();
    let u1 = b.unknown_ptr();
    let x = b.input();
    // 8-byte store vs 2-byte load on 2-byte alignment: most dynamic
    // conflicts straddle the store rather than aligning with it.
    b.store(MemRef::unknown(u0, 0), &[x]);
    b.load(MemRef::unknown(u1, 0).with_size(2), &[]);
    let region = b.finish();
    let binding = Binding {
        unknowns: vec![
            UnknownPattern::Scatter {
                seed: 11,
                lo: 0x1000,
                hi: 0x1020,
                align: 8,
            },
            UnknownPattern::Scatter {
                seed: 12,
                lo: 0x1000,
                hi: 0x1020,
                align: 2,
            },
        ],
        ..Binding::default()
    };
    let run = Run::new(&region, &binding, Backend::Nachos)
        .execute(&config(48), &EnergyModel::default())
        .unwrap();
    assert!(run.sim.events.may_checks > 0, "the `==?` path actually ran");
    check_against_reference(&region, &binding, 48);
}

/// Regression guard for the OPT-LSQ store pre-search/data-ready
/// handshake: a store whose address resolves long before its data
/// (behind a deep compute chain) must not issue early, and the younger
/// load must still observe its value (via forwarding).
#[test]
fn store_presearch_waits_for_late_data() {
    let mut b = RegionBuilder::new("late-data");
    let g = b.global("g", 64, 0);
    let m = MemRef::affine(g, AffineExpr::zero());
    let mut v = b.input();
    for _ in 0..12 {
        v = b.int_op(IntOp::Mul, &[v]);
    }
    b.store(m.clone(), &[v]);
    b.load(m, &[]);
    let region = b.finish();
    let binding = Binding {
        base_addrs: vec![0x1_0000],
        ..Binding::default()
    };
    let run = Run::new(&region, &binding, Backend::OptLsq)
        .execute(&config(4), &EnergyModel::default())
        .unwrap();
    assert_eq!(run.sim.events.forwards, 4, "one forward per invocation");
    check_against_reference(&region, &binding, 4);
}

/// Regression guard for `forward_value` timing: with the forwarded
/// store's value arriving late, every backend's load must observe the
/// same (current-invocation) value as the reference.
#[test]
fn forward_value_uses_current_invocation_data() {
    let mut b = RegionBuilder::new("fwd-timing");
    let g = b.global("g", 64, 0);
    let m = MemRef::affine(g, AffineExpr::zero());
    let mut v = b.input();
    for _ in 0..8 {
        v = b.int_op(IntOp::Add, &[v]);
    }
    b.store(m.clone(), &[v]);
    let ld = b.load(m.clone(), &[]);
    let w = b.int_op(IntOp::Add, &[ld]);
    b.store(m, &[w]);
    let region = b.finish();
    let binding = Binding {
        base_addrs: vec![0x1_0000],
        ..Binding::default()
    };
    check_against_reference(&region, &binding, 6);
}

/// Regression test for the OPT-LSQ scratchpad ordering bug: a
/// scratchpad store and load that MAY-alias (same slot on one loop
/// iteration only) get a compiler-wired local ordering edge, and
/// `try_mem_lsq`'s bypass path used to issue the load without
/// honouring it — the load could read the scratchpad before the
/// conflicting store committed.
#[test]
fn optlsq_honours_wired_scratchpad_ordering() {
    use nachos_ir::MemSpace;
    let mut b = RegionBuilder::new("sp-order");
    let i = b.enclosing_loop(LoopInfo::range("i", 0, 4));
    let sp = b.global("sp", 256, 0);
    let x = b.input();
    // st sp[i*8]; ld sp[8]: they collide only when i == 1, so the
    // wired dependence is MAY (a token edge), not FORWARD.
    b.store(
        MemRef::affine(sp, AffineExpr::var(i).scaled(8)).with_space(MemSpace::Scratchpad),
        &[x],
    );
    b.load(
        MemRef::affine(sp, AffineExpr::constant_expr(8)).with_space(MemSpace::Scratchpad),
        &[],
    );
    let region = b.finish();
    let binding = Binding {
        base_addrs: vec![0x2_0000],
        ..Binding::default()
    };
    check_against_reference(&region, &binding, 6);
}

/// Stall attribution: each backend only charges its own mechanisms,
/// and a memory-port-starved region reports mem-port stalls.
#[test]
fn stall_attribution_is_backend_consistent() {
    let mut b = RegionBuilder::new("stalls");
    // Unknown-pointer store + loads => MAY edges (token/may-gate
    // stalls under the MDE backends, search stalls under the LSQ).
    let u0 = b.unknown_ptr();
    let u1 = b.unknown_ptr();
    let x = b.input();
    b.store(MemRef::unknown(u0, 0), &[x]);
    for k in 0..6 {
        b.load(MemRef::unknown(u1, k * 8), &[]);
    }
    let region = b.finish();
    let binding = Binding {
        unknowns: vec![
            UnknownPattern::Scatter {
                seed: 3,
                lo: 0x1000,
                hi: 0x1040,
                align: 8,
            },
            UnknownPattern::Scatter {
                seed: 4,
                lo: 0x1000,
                hi: 0x1040,
                align: 8,
            },
        ],
        ..Binding::default()
    };
    let mut cfg = config(16);
    cfg.mem_ports = 1; // starve the edge ports
    let em = EnergyModel::default();
    let lsq = Run::new(&region, &binding, Backend::OptLsq)
        .execute(&cfg, &em)
        .unwrap();
    assert_eq!(lsq.sim.stalls.token, 0);
    assert_eq!(lsq.sim.stalls.may_gate, 0);
    assert_eq!(lsq.sim.stalls.comparator, 0);
    let sw = Run::new(&region, &binding, Backend::NachosSw)
        .execute(&cfg, &em)
        .unwrap();
    assert_eq!(sw.sim.stalls.lsq_alloc, 0);
    assert_eq!(sw.sim.stalls.lsq_search, 0);
    assert_eq!(sw.sim.stalls.comparator, 0);
    assert!(
        sw.sim.stalls.token > 0,
        "serialized MAY edges stall on tokens"
    );
    let hw = Run::new(&region, &binding, Backend::Nachos)
        .execute(&cfg, &em)
        .unwrap();
    assert_eq!(hw.sim.stalls.lsq_alloc, 0);
    assert_eq!(hw.sim.stalls.lsq_search, 0);
    for run in [&lsq, &sw, &hw] {
        assert!(
            run.sim.stalls.mem_port > 0,
            "{}: one port over 7 memory ops must queue",
            run.sim.backend
        );
        assert_eq!(
            run.sim.stalls.total(),
            run.sim.stalls.lsq_alloc
                + run.sim.stalls.lsq_search
                + run.sim.stalls.token
                + run.sim.stalls.may_gate
                + run.sim.stalls.comparator
                + run.sim.stalls.mem_port
        );
    }
}

/// The IDEAL oracle never runs comparator checks, charges no MDE
/// gating stalls on conflict-free regions, and still matches the
/// reference executor on regions with genuine dynamic conflicts.
#[test]
fn ideal_oracle_is_sound_and_checkless() {
    let mut b = RegionBuilder::new("ideal");
    let u0 = b.unknown_ptr();
    let u1 = b.unknown_ptr();
    let x = b.input();
    b.store(MemRef::unknown(u0, 0), &[x]);
    b.load(MemRef::unknown(u1, 0), &[]);
    let region = b.finish();
    let binding = Binding {
        base_addrs: vec![],
        params: vec![],
        unknowns: vec![
            UnknownPattern::Scatter {
                seed: 1,
                lo: 0x1000,
                hi: 0x1040,
                align: 8,
            },
            UnknownPattern::Scatter {
                seed: 2,
                lo: 0x1000,
                hi: 0x1040,
                align: 8,
            },
        ],
    };
    let inv = 40;
    let expected = crate::reference::execute(&region, &binding, inv);
    let run = Run::new(&region, &binding, Backend::Ideal)
        .execute(&config(inv), &EnergyModel::default())
        .unwrap();
    assert_eq!(run.sim.mem, expected.mem, "IDEAL: memory state diverged");
    assert_eq!(
        run.sim.loads.digest(),
        expected.loads.digest(),
        "IDEAL: load observations diverged"
    );
    assert_eq!(run.sim.events.may_checks, 0, "the oracle never checks");
    assert_eq!(run.sim.stalls.comparator, 0);
    let hw = Run::new(&region, &binding, Backend::Nachos)
        .execute(&config(inv), &EnergyModel::default())
        .unwrap();
    assert!(
        run.sim.cycles <= hw.sim.cycles,
        "IDEAL ({}) is an upper bound on NACHOS ({})",
        run.sim.cycles,
        hw.sim.cycles
    );
}

/// A pre-tripped cancellation token stops the run at its first event with
/// a structured [`SimError::Cancelled`]; a live token leaves the run
/// untouched until it is cancelled.
#[test]
fn cancellation_token_stops_the_run_cooperatively() {
    use crate::config::CancelToken;
    let (region, binding) = crate::testutil::store_load_region("cancel");
    let token = CancelToken::new();
    let cfg = config(8).with_cancel(token.clone());
    // Un-cancelled: the token is inert and the run completes normally.
    let ok = simulate_in(
        &mut SimArena::new(),
        &region,
        &binding,
        Backend::Nachos,
        &cfg,
        &EnergyModel::default(),
    );
    assert!(ok.is_ok(), "inert token must not perturb the run");
    // Cancelled before the run starts: the engine notices at its very
    // first handled event and reports where it stopped.
    token.cancel();
    let err = simulate_in(
        &mut SimArena::new(),
        &region,
        &binding,
        Backend::Nachos,
        &cfg,
        &EnergyModel::default(),
    )
    .unwrap_err();
    match err {
        SimError::Cancelled {
            backend,
            invocation,
            cycle,
        } => {
            assert_eq!(backend, Backend::Nachos);
            assert_eq!(invocation, 0, "cut at the first invocation");
            assert_eq!(cycle, 0, "cut at the first event");
        }
        other => panic!("expected Cancelled, got {other:?}"),
    }
}
