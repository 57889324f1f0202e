//! Exact order statistics over raw per-op samples.
//!
//! Percentiles are read off the sorted samples by nearest rank, so every
//! reported value is a latency that some op actually took — never a
//! histogram bucket edge. A percentile is refused unless at least
//! [`MIN_TAIL`] samples lie strictly beyond its rank: with fewer, a "p99"
//! is just the maximum of a short run.

/// Samples that must lie beyond a percentile's rank before it is reported.
pub const MIN_TAIL: usize = 10;

/// One reported percentile, with the evidence behind it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Percentile {
    /// The sample at the nearest rank.
    pub value: f64,
    /// Samples the percentile was taken over.
    pub samples: usize,
    /// Samples ranked strictly above it.
    pub beyond: usize,
}

/// Sorted raw samples.
#[derive(Clone, Debug, Default)]
pub struct Samples {
    sorted: Vec<f64>,
}

impl Samples {
    /// Sorts `raw` (NaN is a caller bug: timings are never NaN).
    pub fn new(mut raw: Vec<f64>) -> Self {
        assert!(raw.iter().all(|x| !x.is_nan()), "NaN sample");
        raw.sort_by(f64::total_cmp);
        Samples { sorted: raw }
    }

    /// The `q`-quantile (`0 < q < 1`) by nearest rank: the smallest
    /// sample with at least `q · n` samples at or below it.
    ///
    /// # Errors
    /// Refuses when fewer than [`MIN_TAIL`] samples lie beyond that rank.
    pub fn percentile(&self, q: f64) -> Result<Percentile, String> {
        assert!(q > 0.0 && q < 1.0, "quantile {q} outside (0, 1)");
        let n = self.sorted.len();
        // Nearest rank, 1-based: ceil(q · n). The epsilon keeps exact
        // products (0.5 · 1000) from rounding up through float error.
        let rank = ((q * n as f64) - 1e-9).ceil().max(1.0) as usize;
        let beyond = n.saturating_sub(rank);
        if n == 0 || beyond < MIN_TAIL {
            return Err(format!(
                "p{} over {n} samples has {beyond} beyond it; need {MIN_TAIL}",
                q * 100.0
            ));
        }
        Ok(Percentile {
            value: self.sorted[rank - 1],
            samples: n,
            beyond,
        })
    }
}

/// Median of a small set of repeated measurements (mean of the middle
/// two for an even count).
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of nothing");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Samples {
        // Reversed, so sorting is exercised.
        Samples::new((1..=n).rev().map(|x| x as f64).collect())
    }

    #[test]
    fn nearest_rank_on_a_ramp() {
        let s = ramp(1000);
        let p50 = s.percentile(0.50).unwrap();
        assert_eq!(p50.value, 500.0);
        assert_eq!(p50.beyond, 500);
        let p99 = s.percentile(0.99).unwrap();
        assert_eq!(p99.value, 990.0);
        assert_eq!(p99.samples, 1000);
        assert_eq!(p99.beyond, 10);
    }

    #[test]
    fn values_are_samples_not_bucket_edges() {
        // Latencies clustered between histogram bounds: the percentile
        // must come back as one of the observed values.
        let raw: Vec<f64> = (0..2000).map(|i| 2.3 + (i % 7) as f64 * 0.011).collect();
        let s = Samples::new(raw.clone());
        for q in [0.5, 0.9, 0.99] {
            let p = s.percentile(q).unwrap();
            assert!(raw.contains(&p.value), "p{q} = {} not a sample", p.value);
        }
    }

    #[test]
    fn refuses_a_thin_tail() {
        // 999 samples leave only 9 beyond the p99 rank.
        assert!(ramp(999).percentile(0.99).is_err());
        assert!(ramp(1000).percentile(0.99).is_ok());
        // 19 samples leave 9 beyond the median.
        assert!(ramp(19).percentile(0.5).is_err());
        assert!(ramp(20).percentile(0.5).is_ok());
        assert!(Samples::new(Vec::new()).percentile(0.5).is_err());
    }

    #[test]
    fn ties_and_order() {
        let mut raw = vec![5.0; 990];
        raw.extend([9.0; 20]);
        let s = Samples::new(raw);
        assert_eq!(s.percentile(0.5).unwrap().value, 5.0);
        assert_eq!(s.percentile(0.99).unwrap().value, 9.0);
    }

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
