//! The exit-code contract of `sweep`, `nachos-sweepd` and
//! `nachos-claims`, as data.
//!
//! Earlier revisions documented codes 0–3 but folded usage errors, I/O
//! failures and worker protocol errors into one branch — so two
//! documented conditions shared an exit code and scripts could not tell
//! "you typed the flag wrong" from "the disk is full". This module is
//! the single source of truth: each code is reachable by exactly one
//! condition, asserted by the unit tests below and by the
//! `crates/bench/tests/daemon.rs` end-to-end mapping test.
//!
//! `nachos-claims` reads the same table for its evidence run: 2 for any
//! soundness finding (a run diverging from the reference executor, an
//! audit Error, an optimized run diverging from its unoptimized twin), 3
//! for a claim that does not hold, 5 when the `--bench` artifact cannot
//! be written ([`crate::claims::verdict`]).

use std::process::ExitCode;

/// Every way a `sweep`, `nachos-sweepd` or `nachos-claims` invocation
/// can end, in precedence order. One condition per code:
///
/// | code | verdict            | reachable by                                  |
/// |------|--------------------|-----------------------------------------------|
/// | 0    | `Success`          | every run completed (degraded cells included, without `--strict`) |
/// | 1    | `Usage`            | the invocation itself is wrong (flags, spec)  |
/// | 2    | `Divergence`       | a run mismatched the reference executor (`nachos-claims`: or any soundness finding) |
/// | 3    | `StrictDegraded`   | `--strict` only: no mismatch, ≥1 degraded cell (`nachos-claims`: a claim fails) |
/// | 4    | `DeadlineExceeded` | the wall-clock budget cancelled the sweep     |
/// | 5    | `Environment`      | the environment failed: I/O, sockets, worker protocol |
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Every run completed; without `--strict`, degraded-but-
    /// deterministic cells also land here.
    Success,
    /// The invocation is wrong: unknown flag, bad value, an
    /// unresolvable matrix spec.
    Usage,
    /// At least one run mismatched the reference executor.
    Divergence,
    /// Under `--strict`: no mismatch, but at least one degraded cell.
    StrictDegraded,
    /// A `--deadline-secs` (or daemon-side) wall-clock budget expired
    /// and cancelled the remaining cells.
    DeadlineExceeded,
    /// The environment failed the run: journal/report/cache I/O, a
    /// dead daemon socket, a worker protocol error.
    Environment,
}

impl Verdict {
    /// The numeric process exit code.
    #[must_use]
    pub fn code(self) -> u8 {
        match self {
            Verdict::Success => 0,
            Verdict::Usage => 1,
            Verdict::Divergence => 2,
            Verdict::StrictDegraded => 3,
            Verdict::DeadlineExceeded => 4,
            Verdict::Environment => 5,
        }
    }

    /// The [`ExitCode`] to return from `main`.
    #[must_use]
    pub fn exit(self) -> ExitCode {
        ExitCode::from(self.code())
    }
}

/// Maps a finished sweep to its verdict. Precedence: divergence beats
/// everything (a mismatch is a correctness finding even in a truncated
/// sweep), then the deadline, then strictness.
#[must_use]
pub fn classify(mismatches: u64, degraded: u64, strict: bool, deadline_exceeded: bool) -> Verdict {
    if mismatches > 0 {
        Verdict::Divergence
    } else if deadline_exceeded {
        Verdict::DeadlineExceeded
    } else if strict && degraded > 0 {
        Verdict::StrictDegraded
    } else {
        Verdict::Success
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_code_is_distinct_and_stable() {
        let all = [
            Verdict::Success,
            Verdict::Usage,
            Verdict::Divergence,
            Verdict::StrictDegraded,
            Verdict::DeadlineExceeded,
            Verdict::Environment,
        ];
        for (i, v) in all.iter().enumerate() {
            assert_eq!(v.code() as usize, i, "codes are 0..=5 in declaration order");
        }
    }

    #[test]
    fn each_classified_code_has_exactly_one_condition() {
        // Success: clean, or degraded without --strict.
        assert_eq!(classify(0, 0, false, false), Verdict::Success);
        assert_eq!(classify(0, 3, false, false), Verdict::Success);
        assert_eq!(classify(0, 0, true, false), Verdict::Success);
        // Divergence: any mismatch, regardless of everything else.
        assert_eq!(classify(1, 0, false, false), Verdict::Divergence);
        assert_eq!(classify(1, 9, true, true), Verdict::Divergence);
        // DeadlineExceeded: the budget fired and nothing mismatched.
        assert_eq!(classify(0, 0, false, true), Verdict::DeadlineExceeded);
        assert_eq!(
            classify(0, 5, true, true),
            Verdict::DeadlineExceeded,
            "a truncated sweep's degraded count is an artifact of the cut, \
             so the deadline outranks strictness"
        );
        // StrictDegraded: only with --strict, degraded cells, no
        // mismatch, no deadline.
        assert_eq!(classify(0, 1, true, false), Verdict::StrictDegraded);
        // Usage and Environment are never produced by classify — they
        // are pre-sweep failures, proven distinct by construction.
        for m in [0, 1] {
            for d in [0, 1] {
                for s in [false, true] {
                    for dl in [false, true] {
                        let v = classify(m, d, s, dl);
                        assert!(!matches!(v, Verdict::Usage | Verdict::Environment));
                    }
                }
            }
        }
    }
}
