//! Acceptance matrix for the fault-injection subsystem (DESIGN §Failure
//! model): unsafe perturbations of the simulated hardware must be
//! *detected* (differential divergence, protocol violation, or a
//! diagnosed deadlock), benign perturbations must leave architectural
//! results untouched, and a poisoned run must never take down the rest
//! of the sweep.

use nachos::sweep::{run_sweep, RunStatus, SweepConfig, SweepJob};
use nachos::{Backend, DeadlockCause, FaultKind, FaultPlan, FaultSpec, SimError};
use nachos_ir::{AffineExpr, Binding, IntOp, MemRef, RegionBuilder, UnknownPattern};
use nachos_workloads::generate_all;

/// A store feeding a same-address load: the compiler wires a FORWARD
/// edge, so forward-consume faults fire on every backend (OPT-LSQ
/// forwards through its store queue).
fn forward_job(name: &str) -> SweepJob {
    let mut b = RegionBuilder::new(name);
    let g = b.global("g", 64, 0);
    let m = MemRef::affine(g, AffineExpr::zero());
    let x = b.input();
    b.store(m.clone(), &[x]);
    b.load(m, &[]);
    SweepJob::new(
        name,
        b.finish(),
        Binding {
            base_addrs: vec![0x1_0000],
            ..Binding::default()
        },
    )
}

/// Two stores to one address: an ORDER token flows under the MDE
/// backends, giving token-class faults a guaranteed opportunity.
fn token_job(name: &str) -> SweepJob {
    let mut b = RegionBuilder::new(name);
    let g = b.global("g", 64, 0);
    let m = MemRef::affine(g, AffineExpr::zero());
    let x = b.input();
    b.store(m.clone(), &[x]);
    let y = b.int_op(IntOp::Add, &[x]);
    b.store(m, &[y]);
    SweepJob::new(
        name,
        b.finish(),
        Binding {
            base_addrs: vec![0x1_0000],
            ..Binding::default()
        },
    )
}

/// A MAY pair that truly conflicts on every invocation, with the store's
/// data behind a long multiply chain: releasing the load before the
/// conflict resolves lets it read stale memory, so a forced no-conflict
/// verdict must diverge from the reference.
fn conflicting_may_job(name: &str) -> SweepJob {
    let mut b = RegionBuilder::new(name);
    let u0 = b.unknown_ptr();
    let u1 = b.unknown_ptr();
    let mut v = b.input();
    for _ in 0..12 {
        v = b.int_op(IntOp::Mul, &[v]);
    }
    b.store(MemRef::unknown(u0, 0), &[v]);
    b.load(MemRef::unknown(u1, 0), &[]);
    SweepJob::new(
        name,
        b.finish(),
        Binding {
            unknowns: vec![
                UnknownPattern::Fixed(0x10_0000),
                UnknownPattern::Fixed(0x10_0000),
            ],
            ..Binding::default()
        },
    )
}

fn cfg() -> SweepConfig {
    SweepConfig::default().with_invocations(8)
}

fn single(kind: FaultKind) -> FaultPlan {
    FaultPlan::single(FaultSpec::new(kind, 0))
}

#[test]
fn unsafe_faults_are_detected_on_every_applicable_backend() {
    // Corrupting a forwarded value must trip the differential check on
    // all three backends (each forwards the store's value to the load).
    let jobs =
        [forward_job("corrupt").with_fault(single(FaultKind::CorruptForward { mask: 0xff }))];
    let sweep = run_sweep(&jobs, &cfg());
    for r in &sweep.jobs[0].runs {
        assert_eq!(
            r.status,
            RunStatus::FaultDetected,
            "[{}] corrupted forward slipped through undetected",
            r.variant
        );
        assert!(
            !r.injected().is_empty(),
            "[{}] detection must carry the fired-fault log",
            r.variant
        );
    }

    // Forcing a truly-conflicting `==?` check to report no-conflict
    // releases the load early; the stale value must be flagged.
    let jobs = [
        conflicting_may_job("no-conflict").with_fault(FaultPlan::single(
            FaultSpec::new(FaultKind::ForceNoConflict, 0).on_backend(Backend::Nachos),
        )),
    ];
    let sweep = run_sweep(&jobs, &cfg());
    for r in &sweep.jobs[0].runs {
        let expect = if r.backend == Backend::Nachos {
            RunStatus::FaultDetected
        } else {
            RunStatus::Ok
        };
        assert_eq!(r.status, expect, "[{}]", r.variant);
        if expect == RunStatus::FaultDetected {
            assert!(
                !r.injected().is_empty(),
                "[{}] detection must carry the fired-fault log",
                r.variant
            );
        }
    }

    // A duplicated ordering token underflows the receiver's token count:
    // the engine must report a structured protocol violation, not panic.
    let jobs = [token_job("dup").with_fault(FaultPlan::single(
        FaultSpec::new(FaultKind::DuplicateToken, 0).on_backend(Backend::NachosSw),
    ))];
    let sweep = run_sweep(&jobs, &cfg());
    let run = &sweep.jobs[0].runs[1];
    assert_eq!(run.status, RunStatus::FaultDetected);
    assert!(
        matches!(run.error, Some(SimError::ProtocolViolation { .. })),
        "expected a protocol violation, got {:?}",
        run.detail
    );
    // The backends the fault does not target are untouched.
    assert_eq!(sweep.jobs[0].runs[0].status, RunStatus::Ok, "[opt-lsq]");
    assert_eq!(sweep.jobs[0].runs[2].status, RunStatus::Ok, "[nachos]");
}

#[test]
fn benign_faults_leave_results_identical() {
    // Delaying a memory response and forcing a spurious conflict are pure
    // timing perturbations: every run must still match the (fault-free)
    // reference execution bit for bit.
    let jobs = [
        forward_job("delay").with_fault(single(FaultKind::DelayMem { cycles: 9 })),
        conflicting_may_job("force-conflict").with_fault(single(FaultKind::ForceConflict)),
        forward_job("mask0").with_fault(single(FaultKind::CorruptForward { mask: 0 })),
    ];
    let sweep = run_sweep(&jobs, &cfg());
    for job in &sweep.jobs {
        for r in &job.runs {
            assert_eq!(
                r.status,
                RunStatus::Ok,
                "{} [{}]: benign fault changed architectural results: {:?}",
                job.name,
                r.variant,
                r.detail
            );
            let run = r.try_run().expect("ok runs carry their live result");
            assert_eq!(
                run.sim.mem, job.reference.mem,
                "{} [{}]",
                job.name, r.variant
            );
            assert_eq!(
                run.sim.loads.digest(),
                job.reference.loads.digest(),
                "{} [{}]",
                job.name,
                r.variant
            );
        }
    }
}

#[test]
fn dropped_token_is_diagnosed_as_deadlock_within_budget() {
    let jobs = [token_job("drop").with_fault(FaultPlan::single(
        FaultSpec::new(FaultKind::DropToken, 0).on_backend(Backend::NachosSw),
    ))];
    let sweep = run_sweep(&jobs, &cfg());
    let run = &sweep.jobs[0].runs[1];
    assert_eq!(run.status, RunStatus::Deadlock);
    let Some(SimError::Deadlock(info)) = &run.error else {
        panic!("expected a deadlock dump, got {:?}", run.detail);
    };
    assert!(
        !info.stalled.is_empty(),
        "the dump must name the stalled operations"
    );
    assert!(
        info.stalled.iter().any(|s| s.token_pending > 0),
        "a victim must be waiting on the withheld token: {info}"
    );
    assert!(
        matches!(
            info.cause,
            DeadlockCause::Starved | DeadlockCause::BudgetExhausted
        ),
        "cause must be structured"
    );
    assert!(
        info.cycle <= info.budget,
        "the watchdog fired past its budget: cycle {} > budget {}",
        info.cycle,
        info.budget
    );
    assert!(
        info.injected.iter().any(|f| f.contains("drop-token")),
        "the dump must list the injected fault: {:?}",
        info.injected
    );
    // The unaffected backends still complete and match the reference.
    assert_eq!(sweep.jobs[0].runs[0].status, RunStatus::Ok);
    assert_eq!(sweep.jobs[0].runs[2].status, RunStatus::Ok);
}

#[test]
fn full_sweep_survives_a_poisoned_run() {
    // The full 27-workload Table II matrix with one backend of one job
    // forced to panic: the other 80 runs must complete and match.
    let mut jobs: Vec<SweepJob> = generate_all()
        .into_iter()
        .map(|w| SweepJob::new(w.spec.name, w.region, w.binding))
        .collect();
    assert_eq!(jobs.len(), 27, "Table II has 27 workloads");
    let victim = 13;
    let victim_name = jobs[victim].name.clone();
    jobs[victim].fault =
        FaultPlan::single(FaultSpec::new(FaultKind::PanicOnEvent, 0).on_backend(Backend::Nachos));

    let sweep = run_sweep(&jobs, &cfg());
    let statuses = sweep.statuses();
    assert_eq!(statuses.len(), 81, "27 jobs x 3 backends");
    let panicked: Vec<_> = statuses
        .iter()
        .filter(|(_, _, s)| *s == RunStatus::Panic)
        .collect();
    assert_eq!(panicked.len(), 1, "exactly the poisoned run panics");
    assert_eq!(panicked[0].0, victim_name);
    assert_eq!(panicked[0].1, "nachos");
    let ok = statuses
        .iter()
        .filter(|(_, _, s)| *s == RunStatus::Ok)
        .count();
    assert_eq!(ok, 80, "every other run completes and matches");

    // The poisoned cell is reported, not silently absent, in the JSON.
    let json = sweep.to_json();
    assert!(json.contains("\"status\": \"panic\""));
    assert!(json.contains("injected fault: panic-on-event"));
}
