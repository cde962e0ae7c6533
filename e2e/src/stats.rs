//! Order statistics over timing samples.

/// Sorted copy of `v`.
fn sorted(v: &[f64]) -> Vec<f64> {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// Median of a non-empty sample.
pub fn median(v: &[f64]) -> f64 {
    assert!(!v.is_empty(), "median of an empty sample");
    let s = sorted(v);
    let m = s.len() / 2;
    if s.len() % 2 == 1 {
        s[m]
    } else {
        0.5 * (s[m - 1] + s[m])
    }
}

/// `(q1, q3)` exactly as Python's `statistics.quantiles(v, n=4)` gives
/// them (the "exclusive" method), so `--compare` and the acceptance
/// check agree on what a spread is. Needs at least two samples.
pub fn quartiles(v: &[f64]) -> (f64, f64) {
    assert!(v.len() >= 2, "quartiles need two samples");
    let s = sorted(v);
    let m = s.len();
    let cut = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// The first quartile; the sample itself when there is only one.
pub fn lower_quartile(v: &[f64]) -> f64 {
    if v.len() < 2 {
        v[0]
    } else {
        quartiles(v).0
    }
}

/// The highest percentile that still has at least ten samples beyond it,
/// as `(percentile, value)`; `None` below twenty samples, where the
/// median is all the sample supports.
pub fn tail(v: &[f64]) -> Option<(f64, f64)> {
    if v.len() < 20 {
        return None;
    }
    let s = sorted(v);
    let idx = s.len() - 11;
    Some((100.0 * idx as f64 / s.len() as f64, s[idx]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn quartiles_match_python_exclusive() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
    }

    #[test]
    fn tail_needs_ten_beyond() {
        let v: Vec<f64> = (0..42).map(f64::from).collect();
        assert!(tail(&v[..19]).is_none());
        let (p, x) = tail(&v).unwrap();
        assert_eq!(x, 31.0);
        assert!((p - 100.0 * 31.0 / 42.0).abs() < 1e-12);
    }
}
