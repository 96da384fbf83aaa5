//! Fixed-bucket histograms for the telemetry summaries.

use std::fmt;

/// A histogram over explicit ascending bucket boundaries.
///
/// A value `v` lands in bucket `i` when `bounds[i-1] <= v < bounds[i]`
/// (bucket 0 is the underflow `v < bounds[0]`, the last bucket the overflow
/// `v >= bounds[last]`). Exact min/max/mean are tracked separately, so the
/// bucketing only affects the shape display and percentile estimates.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    bounds: Vec<f64>,
    counts: Vec<u64>,
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl Histogram {
    /// A histogram with the given ascending boundaries (`counts.len() ==
    /// bounds.len() + 1`).
    ///
    /// # Panics
    ///
    /// Panics if `bounds` is empty or not strictly ascending.
    pub(crate) fn with_bounds(bounds: Vec<f64>) -> Self {
        assert!(!bounds.is_empty(), "histogram needs at least one boundary");
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram boundaries must be strictly ascending"
        );
        let n = bounds.len() + 1;
        Histogram {
            bounds,
            counts: vec![0; n],
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// `n` equal-width buckets between `lo` and `hi` (plus under/overflow).
    #[cfg(test)]
    pub(crate) fn linear(lo: f64, hi: f64, n: usize) -> Self {
        assert!(n >= 1 && hi > lo);
        let w = (hi - lo) / n as f64;
        Self::with_bounds((0..=n).map(|i| lo + w * i as f64).collect())
    }

    /// Logarithmic buckets spanning `10^lo_exp .. 10^hi_exp`, `per_decade`
    /// buckets per decade. Suited to step-size distributions.
    pub(crate) fn log10(lo_exp: i32, hi_exp: i32, per_decade: usize) -> Self {
        assert!(hi_exp > lo_exp && per_decade >= 1);
        let steps = (hi_exp - lo_exp) as usize * per_decade;
        let bounds =
            (0..=steps).map(|i| 10f64.powf(lo_exp as f64 + i as f64 / per_decade as f64)).collect();
        Self::with_bounds(bounds)
    }

    /// Unit-width integer buckets `1, 2, ..., max` (plus overflow). Suited
    /// to Newton-iteration counts.
    pub(crate) fn integer(max: usize) -> Self {
        Self::with_bounds((1..=max + 1).map(|i| i as f64).collect())
    }

    /// Records one observation.
    pub(crate) fn observe(&mut self, v: f64) {
        if v.is_nan() {
            return;
        }
        let idx = self.bounds.partition_point(|&b| b <= v);
        self.counts[idx] += 1;
        self.count += 1;
        self.sum += v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Smallest observation (`None` when empty).
    #[cfg(test)]
    pub(crate) fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest observation (`None` when empty).
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }

    /// Mean observation (`None` when empty).
    #[cfg(test)]
    pub(crate) fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum / self.count as f64)
    }

    /// Approximate `q`-quantile (`0 <= q <= 1`) from the bucket counts,
    /// linearly interpolated *within* the bucket containing the quantile
    /// rank.
    ///
    /// The bucket's edges are clamped to the observed min/max before
    /// interpolating, so a population confined to a single bucket reports
    /// quantiles between its actual extremes instead of the raw bucket
    /// boundary (which over-reported p50/p99 whenever the boundary lay
    /// beyond the observations, and collapsed every quantile to one edge).
    pub(crate) fn quantile(&self, q: f64) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        let rank = (q.clamp(0.0, 1.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if seen + c >= rank {
                // Effective bucket edges: the nominal boundaries, tightened
                // to the observed range (the open-ended under/overflow
                // buckets have no finite nominal edge on one side).
                let nominal_lo = if i == 0 { self.min } else { self.bounds[i - 1] };
                let nominal_hi = if i == self.bounds.len() { self.max } else { self.bounds[i] };
                let lo = nominal_lo.clamp(self.min, self.max);
                let hi = nominal_hi.clamp(self.min, self.max);
                // Position of the rank within this bucket's population.
                let frac = (rank - seen) as f64 / c as f64;
                return Some(lo + frac * (hi - lo));
            }
            seen += c;
        }
        Some(self.max)
    }

    /// Total of all observations (0 when empty).
    #[cfg(test)]
    pub(crate) fn sum(&self) -> f64 {
        self.sum
    }

    /// Cumulative `(upper_bound, count_below_or_equal)` pairs in Prometheus
    /// `le` convention; the final pair's bound is `+inf` and its count the
    /// total.
    pub fn cumulative_buckets(&self) -> Vec<(f64, u64)> {
        let mut cum = 0u64;
        self.counts
            .iter()
            .enumerate()
            .map(|(i, &c)| {
                cum += c;
                let le = self.bounds.get(i).copied().unwrap_or(f64::INFINITY);
                (le, cum)
            })
            .collect()
    }

    /// Per-bucket `(lower_bound, count)` pairs for non-empty buckets; the
    /// underflow bucket reports the observed minimum as its bound.
    pub(crate) fn nonzero_buckets(&self) -> Vec<(f64, u64)> {
        self.counts
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c > 0)
            .map(|(i, &c)| {
                let lo = if i == 0 { self.min } else { self.bounds[i - 1] };
                (lo, c)
            })
            .collect()
    }
}

impl fmt::Display for Histogram {
    /// Compact one-bucket-per-line rendering with bar lengths normalised to
    /// the fullest bucket.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.count == 0 {
            return write!(f, "(empty)");
        }
        let peak = *self.counts.iter().max().expect("non-empty counts") as f64;
        for (lo, c) in self.nonzero_buckets() {
            let bar = "#".repeat(((c as f64 / peak) * 40.0).ceil() as usize);
            writeln!(f, "  {lo:>12.3e} | {c:>8} {bar}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn observations_land_in_the_right_buckets() {
        let mut h = Histogram::integer(4); // bounds 1,2,3,4,5
        for v in [0.5, 1.0, 1.9, 2.0, 4.0, 10.0] {
            h.observe(v);
        }
        assert_eq!(h.count(), 6);
        // under(=<1): 0.5 | [1,2): 1.0,1.9 | [2,3): 2.0 | [4,5): 4.0 | over: 10
        assert_eq!(h.nonzero_buckets(), vec![(0.5, 1), (1.0, 2), (2.0, 1), (4.0, 1), (5.0, 1),]);
        assert_eq!(h.min(), Some(0.5));
        assert_eq!(h.max(), Some(10.0));
    }

    #[test]
    fn log_buckets_cover_decades() {
        let mut h = Histogram::log10(-12, -6, 2);
        h.observe(1e-9);
        h.observe(3e-9);
        h.observe(1e-3); // overflow
        assert_eq!(h.count(), 3);
        assert!(h.mean().unwrap() > 0.0);
    }

    #[test]
    fn quantiles_are_monotone_and_bounded() {
        let mut h = Histogram::linear(0.0, 10.0, 10);
        for i in 0..100 {
            h.observe(i as f64 / 10.0);
        }
        let q50 = h.quantile(0.5).unwrap();
        let q90 = h.quantile(0.9).unwrap();
        assert!(q50 <= q90);
        assert!(q90 <= h.max().unwrap());
        assert!(h.quantile(0.0).unwrap() >= h.min().unwrap());
    }

    #[test]
    fn empty_histogram_degrades() {
        let h = Histogram::integer(3);
        assert_eq!(h.count(), 0);
        assert!(h.mean().is_none());
        assert!(h.quantile(0.5).is_none());
        assert_eq!(format!("{h}"), "(empty)");
    }

    #[test]
    fn nan_is_ignored() {
        let mut h = Histogram::linear(0.0, 1.0, 2);
        h.observe(f64::NAN);
        assert_eq!(h.count(), 0);
    }

    #[test]
    fn single_bucket_population_interpolates_between_extremes() {
        // Everything lands in [4, 5): quantiles must stay inside the
        // observed [4.2, 4.8], not report the 4.0 boundary (the old lower
        // bound) or 5.0 (the upper boundary, beyond any observation).
        let mut h = Histogram::linear(0.0, 10.0, 10);
        for v in [4.2, 4.4, 4.6, 4.8] {
            h.observe(v);
        }
        let p50 = h.quantile(0.5).unwrap();
        let p99 = h.quantile(0.99).unwrap();
        assert!((4.2..=4.8).contains(&p50), "p50 = {p50}");
        assert!((4.2..=4.8).contains(&p99), "p99 = {p99}");
        assert!(p50 <= p99);

        // Degenerate single-value population: every quantile is the value.
        let mut one = Histogram::integer(4);
        one.observe(2.5);
        for q in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(one.quantile(q), Some(2.5));
        }
    }

    #[test]
    fn cumulative_buckets_end_at_inf_total() {
        let mut h = Histogram::integer(2); // bounds 1,2,3
        for v in [0.5, 1.5, 2.5, 9.0] {
            h.observe(v);
        }
        let cum = h.cumulative_buckets();
        assert_eq!(cum.len(), 4);
        assert_eq!(cum[0], (1.0, 1));
        assert_eq!(cum[2], (3.0, 3));
        assert!(cum[3].0.is_infinite());
        assert_eq!(cum[3].1, 4);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    /// Strategy: integer-valued observations spread across under/in/overflow
    /// of `linear(0, 32, 8)`.
    fn observations() -> impl Strategy<Value = Vec<f64>> {
        proptest::collection::vec((0usize..56).prop_map(|v| v as f64 - 8.0), 1..64)
    }

    fn filled(vals: &[f64]) -> Histogram {
        let mut h = Histogram::linear(0.0, 32.0, 8);
        for &v in vals {
            h.observe(v);
        }
        h
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn quantiles_are_monotone_in_q(vals in observations()) {
            let h = filled(&vals);
            let qs: Vec<f64> = (0..=20).map(|i| i as f64 / 20.0).collect();
            let mut prev = f64::NEG_INFINITY;
            for q in qs {
                let v = h.quantile(q).expect("non-empty");
                prop_assert!(v >= prev, "quantile({q}) = {v} < previous {prev}");
                prop_assert!(v >= h.min().unwrap() && v <= h.max().unwrap());
                prev = v;
            }
        }
    }
}
