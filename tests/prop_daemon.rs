//! Property: interleaved concurrent clients never observe an invalid
//! job-state transition.
//!
//! Several client threads hammer one in-process [`Daemon`] — submitting,
//! polling status, and cancelling at seed-derived interleavings — while
//! the executor runs jobs underneath them. Every observation is recorded
//! in one global order and checked against the declared state machine:
//! consecutive observations of a job must be connected in the legal
//! transition graph's closure, terminal states must be absorbing, and
//! admission must stay within the configured bound. Afterwards a drain
//! settles everything and a restart over the same root must reproduce
//! every terminal state from the journal alone.

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use nachos::sweep::daemon::{
    CancelError, Daemon, DaemonConfig, JobStatus, MatrixSpec, SubmitError,
};
use nachos::sweep::{SweepConfig, SweepJob};
use nachos_workloads::{by_name, generate};
use proptest::prelude::*;

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn scratch() -> PathBuf {
    static CASE: AtomicUsize = AtomicUsize::new(0);
    let n = CASE.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir()
        .join("nachos-prop-daemon")
        .join(format!("case-{n}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// A tiny but real matrix: one workload, two invocations, serial — the
/// point is lifecycle interleaving, not simulation volume.
fn resolver(spec: &MatrixSpec) -> Result<(Vec<SweepJob>, SweepConfig), String> {
    let w = generate(&by_name("gzip").expect("workload"));
    let jobs = vec![SweepJob::new(w.spec.name, w.region, w.binding)];
    let cfg = SweepConfig::default()
        .with_invocations(spec.invocations)
        .with_threads(1)
        .with_retries(spec.max_retries);
    Ok((jobs, cfg))
}

/// Transitive closure of [`JobStatus::can_transition`]: the set of
/// `(from, to)` pairs a client may legally observe in consecutive
/// snapshots of one job (states can be skipped between two polls, never
/// rewound outside the graph).
fn reachable(from: JobStatus, to: JobStatus) -> bool {
    if from == to {
        return true;
    }
    let all = [
        JobStatus::Queued,
        JobStatus::Running,
        JobStatus::Settled,
        JobStatus::Cancelled,
        JobStatus::Quarantined,
        JobStatus::DeadlineExceeded,
    ];
    // Breadth-first walk over the declared edges.
    let mut seen = vec![from];
    let mut frontier = vec![from];
    while let Some(s) = frontier.pop() {
        for next in all {
            if JobStatus::can_transition(s, next) && !seen.contains(&next) {
                if next == to {
                    return true;
                }
                seen.push(next);
                frontier.push(next);
            }
        }
    }
    false
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn concurrent_clients_never_observe_an_invalid_transition(
        seed in any::<u64>(),
        clients in 2usize..4,
    ) {
        const CAPACITY: usize = 3;
        let dir = scratch();
        let mut cfg = DaemonConfig::new(dir.join("state"), dir.join("d.sock"));
        cfg.capacity = CAPACITY;
        let daemon = Arc::new(Daemon::open(cfg.clone(), Arc::new(resolver)).expect("open"));
        let server = {
            let daemon = Arc::clone(&daemon);
            std::thread::spawn(move || daemon.serve())
        };

        // One global, totally-ordered observation log: (job, status).
        // Lock-acquisition order is the order the invariants are judged
        // in, which is exactly the order clients saw the states.
        let observations: Arc<Mutex<Vec<(u64, JobStatus)>>> = Arc::new(Mutex::new(Vec::new()));
        let workers: Vec<_> = (0..clients)
            .map(|c| {
                let daemon = Arc::clone(&daemon);
                let observations = Arc::clone(&observations);
                let mut rng = seed ^ (c as u64).wrapping_mul(0xdead_beef_cafe_f00d);
                std::thread::spawn(move || {
                    let mut known: Vec<u64> = Vec::new();
                    for _ in 0..12 {
                        match splitmix64(&mut rng) % 4 {
                            0 => match daemon.submit(MatrixSpec {
                                invocations: 2,
                                threads: 1,
                                ..MatrixSpec::default()
                            }) {
                                Ok(id) => {
                                    observations.lock().unwrap().push((id, JobStatus::Queued));
                                    known.push(id);
                                }
                                Err(SubmitError::QueueFull { queued, .. }) => {
                                    assert!(
                                        queued >= CAPACITY,
                                        "rejected below the admission bound"
                                    );
                                }
                                Err(SubmitError::BadSpec(e)) => panic!("spec refused: {e}"),
                                Err(SubmitError::Draining) => panic!("nobody drains yet"),
                            },
                            1 | 2 => {
                                if let Some(&id) = known.get(
                                    (splitmix64(&mut rng) as usize)
                                        .checked_rem(known.len())
                                        .unwrap_or(0),
                                ) {
                                    if let Some(snap) = daemon.snapshot(id) {
                                        observations.lock().unwrap().push((id, snap.status));
                                    }
                                }
                            }
                            _ => {
                                if let Some(&id) = known.get(
                                    (splitmix64(&mut rng) as usize)
                                        .checked_rem(known.len())
                                        .unwrap_or(0),
                                ) {
                                    match daemon.cancel(id) {
                                        Ok(state) => observations
                                            .lock()
                                            .unwrap()
                                            .push((id, state)),
                                        Err(CancelError::AlreadyTerminal(state)) => {
                                            prop_assert!(state.is_terminal());
                                            observations.lock().unwrap().push((id, state));
                                        }
                                        Err(CancelError::Unknown) => {
                                            panic!("job {id} vanished")
                                        }
                                    }
                                }
                            }
                        }
                        std::thread::sleep(Duration::from_millis(u64::from(
                            splitmix64(&mut rng) as u32 % 7,
                        )));
                    }
                })
            })
            .collect();
        for w in workers {
            w.join().expect("client thread");
        }

        // Drain and let the executor settle everything still admitted.
        daemon.drain();
        server.join().expect("serve thread").expect("serve exits cleanly");

        // Invariant 1: every consecutive observation pair per job is
        // connected in the legal transition graph's closure.
        // Invariant 2: terminal states are absorbing.
        let log = observations.lock().unwrap();
        let mut last: std::collections::HashMap<u64, JobStatus> = std::collections::HashMap::new();
        for &(id, status) in log.iter() {
            if let Some(&prev) = last.get(&id) {
                prop_assert!(
                    reachable(prev, status),
                    "job {id} observed illegal move {prev} -> {status}"
                );
                if prev.is_terminal() {
                    prop_assert_eq!(prev, status, "terminal state of job {} changed", id);
                }
            }
            last.insert(id, status);
        }

        // After the drain every admitted job is terminal, and nothing
        // sits in the queue.
        let settled = daemon.list();
        for snap in &settled {
            prop_assert!(
                snap.status.is_terminal(),
                "job {} still {} after drain",
                snap.id,
                snap.status
            );
        }
        prop_assert_eq!(daemon.queued(), 0);
        drop(daemon);

        // Restart over the same root: the journal alone reproduces every
        // terminal state.
        let reopened = Daemon::open(cfg, Arc::new(resolver)).expect("reopen");
        let recovered = reopened.list();
        prop_assert_eq!(recovered.len(), settled.len());
        for (a, b) in settled.iter().zip(&recovered) {
            prop_assert_eq!(a.id, b.id);
            prop_assert_eq!(a.status, b.status, "job {} state lost across restart", a.id);
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
