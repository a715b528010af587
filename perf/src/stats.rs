//! Order statistics for small samples.
//!
//! Quartiles follow Python's `statistics.quantiles(values, n=4)` (the
//! exclusive method), so a spread computed here is the number the
//! benchmark pipeline computes from the same values.

/// Sorted copy of the finite values of `values`.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v: Vec<f64> = values.iter().copied().filter(|x| x.is_finite()).collect();
    v.sort_by(|a, b| a.partial_cmp(b).expect("finite values compare"));
    v
}

/// Median of `values` (NaN for an empty sample).
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartile by the exclusive method: the quantile at
/// `p` sits at position `p·(n+1)` (1-based) of the sorted sample,
/// interpolated linearly and clamped to the sample's ends.  A sample of
/// one value is its own quartiles.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let v = sorted(values);
    let n = v.len();
    if n == 0 {
        return (f64::NAN, f64::NAN);
    }
    if n == 1 {
        return (v[0], v[0]);
    }
    let at = |i: usize| -> f64 {
        // Python: j = i*(n+1)//4 clamped to [1, n-1], delta = i*(n+1) - j*4.
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (at(1), at(3))
}

/// The highest percentile of the sample that still has at least ten
/// samples beyond it, as `(percentile, value)`; `None` when the sample
/// has fewer than eleven values and so supports no tail claim.
pub fn tail_with_ten_beyond(values: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(values);
    let n = v.len();
    (n >= 11).then(|| (100.0 * (n - 10) as f64 / n as f64, v[n - 11]))
}

/// Median, quartiles and count of one metric's repetitions.
#[derive(Clone, Copy, Debug)]
pub struct Summary {
    /// Median over the repetitions.
    pub median: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
    /// Repetitions summarised.
    pub n: usize,
}

impl Summary {
    /// Summarise `values` (non-finite values are left out of `n`).
    pub fn of(values: &[f64]) -> Summary {
        let (q1, q3) = quartiles(values);
        Summary { median: median(values), q1, q3, n: sorted(values).len() }
    }

    /// A value measured once.
    pub fn single(value: f64) -> Summary {
        Summary { median: value, q1: value, q3: value, n: 1 }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_known_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
        assert!(median(&[]).is_nan());
        assert_eq!(median(&[1.0, f64::NAN, 3.0]), 2.0, "non-finite values are left out");
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), (1.5, 4.5));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
        // statistics.quantiles([10, 20, 30], n=4) == [10.0, 20.0, 30.0]
        assert_eq!(quartiles(&[10.0, 20.0, 30.0]), (10.0, 30.0));
        assert_eq!(quartiles(&[9.0]), (9.0, 9.0));
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_it() {
        let thousand: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail_with_ten_beyond(&thousand), Some((99.0, 990.0)));
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail_with_ten_beyond(&hundred), Some((90.0, 90.0)));
        let eleven: Vec<f64> = (1..=11).map(f64::from).collect();
        let (p, v) = tail_with_ten_beyond(&eleven).expect("eleven samples support one tail value");
        assert!((p - 100.0 / 11.0).abs() < 1e-12);
        assert_eq!(v, 1.0);
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(tail_with_ten_beyond(&ten), None);
    }

    #[test]
    fn summary_of_a_sample() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = Summary::of(&ten);
        assert_eq!((s.n, s.median, s.q1, s.q3), (10, 5.5, 2.75, 8.25));
    }
}
