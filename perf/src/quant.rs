//! Quantile math and the `{median, p25, p75, n}` summary every timing
//! metric is reported as.

/// Quartiles by the "exclusive" method of Python's
/// `statistics.quantiles(values, n=4)` — the rule the acceptance check
/// uses for run-to-run spread, so `perf compare` agrees with it.
/// Returns `(q1, median, q3)`; a single value is its own three quartiles.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    assert!(!values.is_empty(), "quartiles of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 1 {
        return (v[0], v[0], v[0]);
    }
    let cut = |i: usize| -> f64 {
        // Position (n + 1) · i/4 in 1-based ranks, clamped to the sample.
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        // Python does not clamp the weight, so very small samples
        // extrapolate past their ends; neither do we.
        let delta = (i * (n + 1)) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (cut(1), cut(2), cut(3))
}

/// Median of a sample.
pub fn median(values: &[f64]) -> f64 {
    quartiles(values).1
}

/// The `q`-quantile (0 ≤ q ≤ 1) by linear interpolation between closest
/// ranks; used for the tail percentile of the launch-latency sample.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// A reported number: the median over passes with its quartiles and
/// sample count. Counts and single measurements have `n = 1`.
#[derive(Clone, Debug, PartialEq)]
pub struct Summary {
    pub value: f64,
    pub p25: f64,
    pub p75: f64,
    pub n: usize,
}

impl Summary {
    /// Median and quartiles over per-pass samples.
    pub fn of(samples: &[f64]) -> Summary {
        let (p25, value, p75) = quartiles(samples);
        Summary {
            value,
            p25,
            p75,
            n: samples.len(),
        }
    }

    /// A single measured or counted value.
    pub fn single(value: f64) -> Summary {
        Summary {
            value,
            p25: value,
            p75: value,
            n: 1,
        }
    }

    /// Inter-quartile distance as a share of the median.
    pub fn spread(&self) -> f64 {
        if self.value == 0.0 {
            0.0
        } else {
            (self.p75 - self.p25).abs() / self.value.abs()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (a, b, c) = quartiles(&v);
        assert!((a - 2.75).abs() < 1e-12 && (b - 5.5).abs() < 1e-12 && (c - 8.25).abs() < 1e-12);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 1.5, 2.25));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]), (1.5, 4.0, 12.0));
    }

    #[test]
    fn median_and_quantile_agree_on_order_statistics() {
        assert_eq!(median(&[5.0]), 5.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(quantile(&[1.0, 2.0, 3.0, 4.0, 5.0], 0.5), 3.0);
        assert_eq!(quantile(&[1.0, 2.0, 3.0, 4.0, 5.0], 1.0), 5.0);
        assert_eq!(quantile(&[10.0, 20.0], 0.25), 12.5);
    }

    #[test]
    fn summary_spread_is_iqr_over_median() {
        let s = Summary::of(&[1.0, 2.0, 3.0]);
        assert_eq!((s.value, s.p25, s.p75, s.n), (2.0, 1.0, 3.0, 3));
        assert_eq!(s.spread(), 1.0);
        assert_eq!(Summary::single(7.0).spread(), 0.0);
    }
}
