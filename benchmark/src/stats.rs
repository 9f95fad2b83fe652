//! Order statistics used by the slice medians and by `agree`.

/// Nearest-rank quantile of an ascending slice: the smallest value with at
/// least `q` of the samples at or below it.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(f64::total_cmp);
    values
}

pub fn median(values: &[f64]) -> f64 {
    let s = sorted(values.to_vec());
    let n = s.len();
    assert!(n > 0, "median of no samples");
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// The three quartile cut points as Python's `statistics.quantiles(v, n=4)`
/// gives them (its default, exclusive method) — the rule the acceptance
/// spread is defined with. A single value is its own quartiles.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let s = sorted(values.to_vec());
    let m = s.len();
    assert!(m > 0, "quartiles of no samples");
    if m == 1 {
        return [s[0]; 3];
    }
    [1usize, 2, 3].map(|i| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    })
}

/// A metric as reported: the median over slices (or the one pooled value),
/// the inter-quartile range beside it, and how many samples stand behind
/// each slice value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub value: f64,
    pub spread: f64,
    pub samples: u64,
}

impl Summary {
    pub fn single(value: f64, samples: u64) -> Self {
        Summary { value, spread: 0.0, samples }
    }

    /// Median and inter-quartile range over per-slice values.
    pub fn over_slices(per_slice: &[f64], samples_per_slice: u64) -> Self {
        let [q1, _, q3] = quartiles(per_slice);
        Summary { value: median(per_slice), spread: q3 - q1, samples: samples_per_slice }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 4, 1, 5], n=4)
        assert_eq!(quartiles(&[3.0, 1.0, 4.0, 1.0, 5.0]), [1.0, 3.0, 4.5]);
    }

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(quantile(&v, 1.0), 100.0);
        assert_eq!(quantile(&[7.0], 0.99), 7.0);
    }
}
