//! Order statistics. Quartiles follow Python's
//! `statistics.quantiles(values, n=4)` (the exclusive method), the rule
//! the acceptance check applies to the spread between runs.

/// Sorted copy of `values` (a failed run's NaN objective sorts last).
fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// `(q1, q3)`; both equal the single value when there are fewer than two.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let v = sorted(values);
    let m = v.len();
    if m < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return (x, x);
    }
    let q = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (q(1), q(3))
}

/// The `p`-th percentile (nearest rank) of `values`.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let v = sorted(values);
    if v.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        // == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        assert_eq!(median(&v), 5.5);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        assert_eq!(quartiles(&[4.0]), (4.0, 4.0));
        assert_eq!(percentile(&v, 99.0), 10.0);
        assert_eq!(percentile(&v, 50.0), 5.0);
    }
}
