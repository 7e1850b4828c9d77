//! Order statistics the benchmark reports: medians, the tail percentile
//! and quartiles (the spread check).

/// The median of `xs` (the mean of the middle pair for an even count);
/// `None` when empty.
pub fn median(xs: &[f64]) -> Option<f64> {
    let s = sorted(xs);
    let n = s.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(s[n / 2]),
        _ => Some((s[n / 2 - 1] + s[n / 2]) / 2.0),
    }
}

/// The highest percentile that still has at least ten samples beyond
/// it: the eleventh-largest sample. `None` with fewer than eleven
/// samples, where no such percentile exists.
pub fn tail(xs: &[f64]) -> Option<f64> {
    const BEYOND: usize = 10;
    let s = sorted(xs);
    (s.len() > BEYOND).then(|| s[s.len() - 1 - BEYOND])
}

/// The first and third quartiles by the exclusive method — the values
/// Python's `statistics.quantiles(xs, n=4)` returns; `None` with fewer
/// than two samples.
pub fn quartiles(xs: &[f64]) -> Option<(f64, f64)> {
    let s = sorted(xs);
    let n = s.len();
    if n < 2 {
        return None;
    }
    let m = n as i64 + 1;
    let cut = |i: i64| {
        // Position i*(n+1)/4 (1-based), clamped to the data as Python
        // does; after clamping `delta` may leave 0..=4, which
        // extrapolates exactly as Python does.
        let j = (i * m / 4).clamp(1, n as i64 - 1);
        let delta = (i * m - j * 4) as f64;
        let j = j as usize;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// The quartile distance as a share of the median: the run-to-run
/// spread a metric's bound is compared against.
pub fn spread(xs: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(xs)?;
    let mid = median(xs)?;
    (mid != 0.0).then(|| (q3 - q1) / mid.abs())
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        assert_eq!(tail(&(1..=10).map(f64::from).collect::<Vec<_>>()), None);
        // 11 samples: the smallest is the only one with ten beyond it.
        assert_eq!(
            tail(&(1..=11).map(f64::from).collect::<Vec<_>>()),
            Some(1.0)
        );
        // 100 samples: the 90th value has exactly ten larger ones.
        let xs: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        let t = tail(&xs).unwrap();
        assert_eq!(t, 90.0);
        assert_eq!(xs.iter().filter(|&&x| x > t).count(), 10);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
        assert_eq!(quartiles(&[4.0, 3.0, 2.0, 1.0]), Some((1.25, 3.75)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some((0.75, 2.25)));
        // statistics.quantiles([3,1,4,1,5,9,2,6,5,3], n=4)[::2] == [1.75, 5.25]
        let xs = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0, 5.0, 3.0];
        assert_eq!(quartiles(&xs), Some((1.75, 5.25)));
        // statistics.quantiles([5, 1, 9], n=4) == [1.0, 5.0, 9.0]
        assert_eq!(quartiles(&[5.0, 1.0, 9.0]), Some((1.0, 9.0)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn spread_is_quartile_distance_over_median() {
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((spread(&xs).unwrap() - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        assert_eq!(spread(&[0.0, 0.0, 0.0]), None);
    }
}
