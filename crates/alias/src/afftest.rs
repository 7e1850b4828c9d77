//! Numeric dependence tests on affine address differences.
//!
//! Both Stage 1 (SCEV-style) and Stage 4 (polyhedral-style) reduce alias
//! questions to: *can the affine difference `Δ(iv)` of two byte addresses
//! fall inside the overlap window for some induction-variable vector inside
//! the iteration box?* Because the iteration domain of an acceleration
//! region is a box (each loop has independent constant bounds), interval
//! (Banerjee) bounds combined with a GCD congruence test decide the
//! question exactly for single-variable differences and soundly for
//! multi-variable ones.

use nachos_ir::{AffineExpr, LoopNest};

/// Inclusive per-loop induction-variable bounds (the iteration box).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct IvBox {
    bounds: Vec<(i64, i64)>,
}

impl IvBox {
    /// Derives the box from a loop nest. A zero-trip loop contributes the
    /// degenerate range `[lower, lower]` (the region then never executes,
    /// so any sound answer is acceptable).
    #[must_use]
    pub fn from_nest(nest: &LoopNest) -> Self {
        let bounds = nest
            .iter()
            .map(|(_, l)| (l.lower, l.max_iv().unwrap_or(l.lower)))
            .collect();
        Self { bounds }
    }

    /// A box given explicitly, for tests.
    #[must_use]
    pub fn from_bounds(bounds: Vec<(i64, i64)>) -> Self {
        Self { bounds }
    }

    /// Bounds of loop `index`, defaulting to a degenerate `[0, 0]` range
    /// for loops outside the recorded nest.
    #[must_use]
    pub fn bound(&self, index: usize) -> (i64, i64) {
        self.bounds.get(index).copied().unwrap_or((0, 0))
    }
}

/// Result of testing whether two accesses overlap.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Overlap {
    /// The accesses can never overlap — NO alias.
    Disjoint,
    /// The accesses always cover exactly the same bytes — MUST (exact).
    Exact,
    /// The accesses always overlap, but not exactly — MUST (partial).
    Partial,
    /// The test cannot decide — MAY alias.
    Unknown,
}

/// Minimum and maximum of an affine expression over the box.
///
/// Computed in `i128` so coefficient·bound products cannot overflow.
#[must_use]
pub fn delta_range(delta: &AffineExpr, bx: &IvBox) -> (i128, i128) {
    let mut lo = i128::from(delta.constant());
    let mut hi = lo;
    for (l, c) in delta.terms() {
        let (bl, bh) = bx.bound(l.index());
        let c = i128::from(c);
        let (a, b) = (c * i128::from(bl), c * i128::from(bh));
        lo += a.min(b);
        hi += a.max(b);
    }
    (lo, hi)
}

/// Greatest common divisor.
#[must_use]
pub fn gcd(mut a: u64, mut b: u64) -> u64 {
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a
}

/// `true` if some value `v ≡ residue (mod modulus)` lies in `[lo, hi]`.
/// A modulus of 0 means the only reachable value is `residue` itself.
pub(crate) fn congruence_hits(lo: i128, hi: i128, residue: i128, modulus: u64) -> bool {
    if lo > hi {
        return false;
    }
    if modulus == 0 {
        return residue >= lo && residue <= hi;
    }
    let m = i128::from(modulus);
    // Smallest value >= lo congruent to residue.
    let first = lo + (residue - lo).rem_euclid(m);
    first <= hi
}

/// Reparameterizes an affine delta from induction-variable space to
/// *iteration-count* space (k-space): for every loop `l` of the nest with
/// `iv_l = lower_l + k_l · step_l`, the term `c_l · iv_l` becomes the
/// constant contribution `c_l · lower_l` plus the term `(c_l · step_l) ·
/// k_l` over the box `k_l ∈ [0, trips_l - 1]`.
///
/// The rewritten pair describes **exactly** the set of values the original
/// delta takes at runtime (`LoopNest::iteration_vector` steps ivs the same
/// way), whereas [`IvBox::from_nest`] is a *dense* over-approximation for
/// non-unit steps: it includes iv values between steps that no iteration
/// reaches. For unit-step loops the two parameterizations have identical
/// value sets. The audit's ground-truth derivation tests in k-space, so
/// it sees stepped loops exactly.
///
/// Terms naming loops outside the nest keep their coefficient: such loops
/// have no runtime iv and every consumer pins them to the degenerate
/// `[0, 0]` box, which the returned box reproduces. A zero-trip loop
/// contributes the degenerate `k ∈ [0, 0]` (the region never executes).
/// If any product would overflow `i64`, the original (dense, sound)
/// parameterization is returned unchanged.
#[must_use]
pub fn iteration_space(delta: &AffineExpr, nest: &LoopNest) -> (AffineExpr, IvBox) {
    let fallback = || (delta.clone(), IvBox::from_nest(nest));
    let mut constant = i128::from(delta.constant());
    let mut terms: Vec<(nachos_ir::LoopId, i64)> = Vec::new();
    let mut bounds = vec![(0i64, 0i64); nest.len()];
    for (id, l) in nest.iter() {
        bounds[id.index()] = (0, l.trip_count().saturating_sub(1) as i64);
    }
    for (l, c) in delta.terms() {
        match nest.get(l) {
            Some(info) => {
                let Some(coeff) = c.checked_mul(info.step) else {
                    return fallback();
                };
                constant += i128::from(c) * i128::from(info.lower);
                terms.push((l, coeff));
            }
            // Out-of-nest loop: consumers pin it to [0, 0], so the term
            // contributes nothing either way; keep it unchanged.
            None => terms.push((l, c)),
        }
    }
    let Ok(constant) = i64::try_from(constant) else {
        return fallback();
    };
    (
        AffineExpr::from_terms(&terms, constant),
        IvBox::from_bounds(bounds),
    )
}

/// Tests whether access A (`size_a` bytes) starting at byte offset
/// `delta(iv)` relative to access B (`size_b` bytes) can overlap B for some
/// `iv` in the box.
///
/// Overlap occurs exactly when `-(size_a-1) <= delta <= size_b-1`. The test
/// combines interval bounds over the box with a GCD congruence argument:
/// every reachable `delta` value is congruent to the constant term modulo
/// the gcd of the coefficients.
///
/// Returned verdicts are *sound*: `Disjoint` / `Exact` / `Partial` are only
/// reported when they hold for **all** iteration vectors in the box.
#[must_use]
pub fn overlap_test(delta: &AffineExpr, bx: &IvBox, size_a: u32, size_b: u32) -> Overlap {
    let window_lo = -i128::from(size_a) + 1;
    let window_hi = i128::from(size_b) - 1;
    if delta.is_constant() {
        let d = i128::from(delta.constant());
        return if d == 0 && size_a == size_b {
            Overlap::Exact
        } else if d >= window_lo && d <= window_hi {
            Overlap::Partial
        } else {
            Overlap::Disjoint
        };
    }
    let (lo, hi) = delta_range(delta, bx);
    if lo == hi {
        // The variable terms are constant over the (possibly degenerate)
        // box — same as the constant case.
        return if lo == 0 && size_a == size_b {
            Overlap::Exact
        } else if lo >= window_lo && lo <= window_hi {
            Overlap::Partial
        } else {
            Overlap::Disjoint
        };
    }
    if hi < window_lo || lo > window_hi {
        return Overlap::Disjoint;
    }
    if lo >= window_lo && hi <= window_hi {
        // Every reachable value overlaps (Banerjee "always" direction).
        return Overlap::Partial;
    }
    // GCD refinement: delta ≡ constant (mod g).
    let g = delta.terms().map(|(_, c)| c.unsigned_abs()).fold(0u64, gcd);
    let clipped_lo = lo.max(window_lo);
    let clipped_hi = hi.min(window_hi);
    if !congruence_hits(clipped_lo, clipped_hi, i128::from(delta.constant()), g) {
        return Overlap::Disjoint;
    }
    // Exact integer reachability (sumset DP) for the cases interval+GCD
    // cannot decide, within a fixed budget.
    if let Some(hit) = crate::exact::window_reachable(
        delta,
        bx,
        window_lo,
        window_hi,
        crate::exact::ExactBudget::default(),
    ) {
        if !hit {
            return Overlap::Disjoint;
        }
    }
    Overlap::Unknown
}

/// Exhaustively evaluates `delta` over every integer point of the box and
/// reports the true overlap relation. Only usable for small boxes; the
/// property tests use it as the ground-truth oracle for [`overlap_test`].
///
/// # Panics
///
/// Panics if the box has more than `20_000_000` points.
#[must_use]
pub fn overlap_oracle(delta: &AffineExpr, bx: &IvBox, size_a: u32, size_b: u32) -> Overlap {
    let dims: Vec<usize> = delta.terms().map(|(l, _)| l.index()).collect();
    let ranges: Vec<(i64, i64)> = dims.iter().map(|&d| bx.bound(d)).collect();
    let total: u128 = ranges.iter().map(|&(l, h)| (h - l + 1) as u128).product();
    assert!(total <= 20_000_000, "oracle box too large: {total}");
    let window_lo = -i128::from(size_a) + 1;
    let window_hi = i128::from(size_b) - 1;
    let mut any_overlap = false;
    let mut all_exact = true;
    let mut all_overlap = true;
    let mut point = vec![0usize; ranges.len()];
    loop {
        let mut d = i128::from(delta.constant());
        for ((&(lo, _), &p), (_, c)) in ranges.iter().zip(&point).zip(delta.terms()) {
            d += i128::from(c) * i128::from(lo + p as i64);
        }
        let overlaps = d >= window_lo && d <= window_hi;
        any_overlap |= overlaps;
        all_overlap &= overlaps;
        all_exact &= d == 0 && size_a == size_b;
        // Advance odometer.
        let mut k = 0;
        loop {
            if k == ranges.len() {
                return if !any_overlap {
                    Overlap::Disjoint
                } else if all_exact {
                    Overlap::Exact
                } else if all_overlap {
                    Overlap::Partial
                } else {
                    Overlap::Unknown
                };
            }
            point[k] += 1;
            if ranges[k].0 + point[k] as i64 <= ranges[k].1 {
                break;
            }
            point[k] = 0;
            k += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nachos_ir::LoopId;

    fn l(i: usize) -> LoopId {
        LoopId::new(i)
    }

    #[test]
    fn gcd_basics() {
        assert_eq!(gcd(12, 18), 6);
        assert_eq!(gcd(0, 5), 5);
        assert_eq!(gcd(7, 0), 7);
        assert_eq!(gcd(1, 999), 1);
    }

    #[test]
    fn constant_deltas() {
        let bx = IvBox::from_bounds(vec![]);
        assert_eq!(
            overlap_test(&AffineExpr::constant_expr(0), &bx, 8, 8),
            Overlap::Exact
        );
        assert_eq!(
            overlap_test(&AffineExpr::constant_expr(8), &bx, 8, 8),
            Overlap::Disjoint
        );
        assert_eq!(
            overlap_test(&AffineExpr::constant_expr(4), &bx, 8, 8),
            Overlap::Partial
        );
        assert_eq!(
            overlap_test(&AffineExpr::constant_expr(-7), &bx, 8, 8),
            Overlap::Partial
        );
        assert_eq!(
            overlap_test(&AffineExpr::constant_expr(-8), &bx, 8, 8),
            Overlap::Disjoint
        );
        assert_eq!(
            overlap_test(&AffineExpr::constant_expr(0), &bx, 4, 8),
            Overlap::Partial,
            "same start, different sizes is partial"
        );
    }

    #[test]
    fn interval_excludes_window() {
        // delta = 8*i + 8, i in [0, 9]: range [8, 80], window [-7, 7].
        let bx = IvBox::from_bounds(vec![(0, 9)]);
        let delta = AffineExpr::var(l(0)).scaled(8).plus(8);
        assert_eq!(overlap_test(&delta, &bx, 8, 8), Overlap::Disjoint);
    }

    #[test]
    fn gcd_excludes_window() {
        // delta = 16*i + 8, i in [-9, 9]: range includes the window
        // [-3, 3] for 4-byte accesses, but all values are ≡ 8 (mod 16),
        // so none fall inside.
        let bx = IvBox::from_bounds(vec![(-9, 9)]);
        let delta = AffineExpr::var(l(0)).scaled(16).plus(8);
        assert_eq!(overlap_test(&delta, &bx, 4, 4), Overlap::Disjoint);
    }

    #[test]
    fn gcd_cannot_exclude_when_residue_hits() {
        // delta = 16*i, window [-3, 3] contains 0 ≡ 0 (mod 16).
        let bx = IvBox::from_bounds(vec![(-2, 2)]);
        let delta = AffineExpr::var(l(0)).scaled(16);
        assert_eq!(overlap_test(&delta, &bx, 4, 4), Overlap::Unknown);
    }

    #[test]
    fn degenerate_box_is_constant() {
        // i pinned to 3: delta = 8*i - 24 = 0.
        let bx = IvBox::from_bounds(vec![(3, 3)]);
        let delta = AffineExpr::var(l(0)).scaled(8).plus(-24);
        assert_eq!(overlap_test(&delta, &bx, 8, 8), Overlap::Exact);
    }

    #[test]
    fn multi_iv_interval() {
        // delta = 64*i - 8*j, i in [1, 4], j in [0, 7]:
        // range [64-56, 256] = [8, 256] — outside window for 8-byte ops.
        let bx = IvBox::from_bounds(vec![(1, 4), (0, 7)]);
        let delta = AffineExpr::from_terms(&[(l(0), 64), (l(1), -8)], 0);
        assert_eq!(overlap_test(&delta, &bx, 8, 8), Overlap::Disjoint);
    }

    #[test]
    fn unreferenced_loops_default_to_zero() {
        let bx = IvBox::from_bounds(vec![]);
        let delta = AffineExpr::var(l(5)).scaled(8).plus(16);
        // loop 5 unknown -> pinned to [0,0] -> delta = 16.
        assert_eq!(overlap_test(&delta, &bx, 8, 8), Overlap::Disjoint);
    }

    #[test]
    fn oracle_agrees_on_examples() {
        let bx = IvBox::from_bounds(vec![(0, 9)]);
        let delta = AffineExpr::var(l(0)).scaled(8).plus(8);
        assert_eq!(overlap_oracle(&delta, &bx, 8, 8), Overlap::Disjoint);

        let delta = AffineExpr::var(l(0)).scaled(8).plus(-36);
        // i in [0,9]: delta in {-36,...,36}; hits window sometimes.
        assert_eq!(overlap_oracle(&delta, &bx, 8, 8), Overlap::Unknown);
    }

    #[test]
    fn from_nest_uses_max_iv() {
        use nachos_ir::{LoopInfo, LoopNest};
        let mut nest = LoopNest::new();
        nest.push(LoopInfo {
            name: "i".into(),
            lower: 2,
            upper: 11,
            step: 3,
        });
        let bx = IvBox::from_nest(&nest);
        assert_eq!(bx.bound(0), (2, 8));
    }

    #[test]
    fn iteration_space_is_identity_for_unit_step_from_zero() {
        use nachos_ir::{LoopInfo, LoopNest};
        let mut nest = LoopNest::new();
        nest.push(LoopInfo::range("i", 0, 10));
        let delta = AffineExpr::var(l(0)).scaled(8).plus(-16);
        let (d2, bx2) = iteration_space(&delta, &nest);
        assert_eq!(d2, delta);
        assert_eq!(bx2, IvBox::from_nest(&nest));
    }

    #[test]
    fn iteration_space_absorbs_lower_and_step() {
        use nachos_ir::{LoopInfo, LoopNest};
        let mut nest = LoopNest::new();
        nest.push(LoopInfo {
            name: "i".into(),
            lower: 2,
            upper: 11,
            step: 3,
        }); // iv ∈ {2, 5, 8}: 3 trips
        let delta = AffineExpr::var(l(0)).scaled(4).plus(1);
        let (d2, bx2) = iteration_space(&delta, &nest);
        // 4·(2 + 3k) + 1 = 12k + 9, k ∈ [0, 2].
        assert_eq!(d2, AffineExpr::var(l(0)).scaled(12).plus(9));
        assert_eq!(bx2.bound(0), (0, 2));
        // Value sets agree: {9, 21, 33}.
        assert_eq!(delta_range(&d2, &bx2), (9, 33));
    }

    #[test]
    fn iteration_space_excludes_between_step_values_dense_box_cannot() {
        use nachos_ir::{LoopInfo, LoopNest};
        // iv ∈ {0, 16, 32, ...}: delta = iv + 8 never hits [-7, 7], but the
        // dense box [0, 144] with gcd(1) = 1 cannot prove it (exact DP can,
        // so compare the interval+gcd layers directly via congruence).
        let mut nest = LoopNest::new();
        nest.push(LoopInfo {
            name: "i".into(),
            lower: 0,
            upper: 145,
            step: 16,
        });
        let delta = AffineExpr::var(l(0)).plus(8);
        let (d2, bx2) = iteration_space(&delta, &nest);
        // k-space: 16k + 8, k ∈ [0, 9] — gcd 16, residue 8: disjoint.
        assert_eq!(d2, AffineExpr::var(l(0)).scaled(16).plus(8));
        assert_eq!(bx2.bound(0), (0, 9));
        assert_eq!(overlap_test(&d2, &bx2, 8, 8), Overlap::Disjoint);
    }

    #[test]
    fn iteration_space_keeps_out_of_nest_terms() {
        use nachos_ir::LoopNest;
        let nest = LoopNest::new();
        let delta = AffineExpr::var(l(5)).scaled(8).plus(16);
        let (d2, bx2) = iteration_space(&delta, &nest);
        assert_eq!(d2, delta);
        assert_eq!(bx2.bound(5), (0, 0));
        assert_eq!(overlap_test(&d2, &bx2, 8, 8), Overlap::Disjoint);
    }

    #[test]
    fn iteration_space_zero_trip_loop_degenerates() {
        use nachos_ir::{LoopInfo, LoopNest};
        let mut nest = LoopNest::new();
        nest.push(LoopInfo {
            name: "i".into(),
            lower: 4,
            upper: 4,
            step: 1,
        });
        let delta = AffineExpr::var(l(0)).scaled(8);
        let (d2, bx2) = iteration_space(&delta, &nest);
        // k pinned to [0, 0]; constant absorbed lower = 32.
        assert_eq!(bx2.bound(0), (0, 0));
        assert_eq!(delta_range(&d2, &bx2), (32, 32));
    }

    #[test]
    fn iteration_space_overflow_falls_back_to_dense() {
        use nachos_ir::{LoopInfo, LoopNest};
        let mut nest = LoopNest::new();
        nest.push(LoopInfo {
            name: "i".into(),
            lower: 0,
            upper: 10,
            step: i64::MAX,
        });
        let delta = AffineExpr::var(l(0)).scaled(8);
        let (d2, bx2) = iteration_space(&delta, &nest);
        assert_eq!(d2, delta);
        assert_eq!(bx2, IvBox::from_nest(&nest));
    }
}
