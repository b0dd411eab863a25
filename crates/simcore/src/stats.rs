//! Online statistics for the measurement harness.
//!
//! The paper's protocol (§5.1) reports the mean of eight replications with a
//! 90% confidence interval; [`Accumulator`] implements Welford's online
//! mean/variance plus a small-sample t-based CI.

use serde::{Deserialize, Serialize};

/// Welford online mean/variance accumulator.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Accumulator {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

/// Two-sided t critical values at 90% confidence for df = 1..=30.
/// (df > 30 falls back to the normal approximation 1.645.)
const T90: [f64; 30] = [
    6.314, 2.920, 2.353, 2.132, 2.015, 1.943, 1.895, 1.860, 1.833, 1.812, 1.796, 1.782, 1.771,
    1.761, 1.753, 1.746, 1.740, 1.734, 1.729, 1.725, 1.721, 1.717, 1.714, 1.711, 1.708, 1.706,
    1.703, 1.701, 1.699, 1.697,
];

impl Accumulator {
    /// Create an empty accumulator.
    pub fn new() -> Self {
        Accumulator {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Add one observation.
    pub fn add(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sample mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Sample variance (n-1 denominator; 0 for fewer than two observations).
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / (self.n - 1) as f64
        }
    }

    /// Sample standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Smallest observation (NaN-free input assumed; +inf when empty).
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest observation (-inf when empty).
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Half-width of the two-sided 90% confidence interval of the mean.
    /// Zero for fewer than two observations.
    pub fn ci90_half_width(&self) -> f64 {
        if self.n < 2 {
            return 0.0;
        }
        let df = (self.n - 1) as usize;
        let t = if df <= 30 { T90[df - 1] } else { 1.645 };
        t * self.std_dev() / (self.n as f64).sqrt()
    }

    /// Merge another accumulator into this one (parallel reduction).
    pub fn merge(&mut self, other: &Accumulator) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = other.clone();
            return;
        }
        let n1 = self.n as f64;
        let n2 = other.n as f64;
        let delta = other.mean - self.mean;
        let n = n1 + n2;
        self.mean += delta * n2 / n;
        self.m2 += other.m2 + delta * delta * n1 * n2 / n;
        self.n += other.n;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// A retained sample set with amortized single-sort percentile queries.
///
/// [`Accumulator`] is streaming but cannot answer order statistics;
/// `Samples` keeps the observations and sorts them **once**, lazily, when
/// the first percentile is queried after a mutation — instead of the
/// clone-and-sort-per-query pattern reporting code otherwise falls into.
/// Repeated queries between mutations are O(1). Used by the campaign
/// scheduler's `sched_stats` to summarize per-cell wall-time distributions.
#[derive(Debug, Clone, Default)]
pub struct Samples {
    data: Vec<f64>,
    /// How many of the leading entries of `data` are already sorted.
    sorted_len: usize,
}

impl Samples {
    /// Create an empty sample set.
    pub fn new() -> Self {
        Samples::default()
    }

    /// Create an empty sample set with room for `n` observations.
    pub fn with_capacity(n: usize) -> Self {
        Samples {
            data: Vec::with_capacity(n),
            sorted_len: 0,
        }
    }

    /// Record one observation.
    ///
    /// NaN is rejected with a debug assertion — a NaN (e.g. a 0/0
    /// utilization feeding telemetry) carries no order information, so it
    /// can only corrupt percentile queries. In release builds, where the
    /// assertion is compiled out, a slipped-through NaN still cannot
    /// poison the sort: ordering uses [`f64::total_cmp`], which places
    /// NaN deterministically at the extremes instead of making the
    /// comparator panic or the sort order undefined.
    pub fn add(&mut self, x: f64) {
        debug_assert!(!x.is_nan(), "NaN observation pushed into Samples");
        self.data.push(x);
    }

    /// Number of observations.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether no observations have been recorded.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// The observations in insertion order — only valid before the first
    /// percentile query (which reorders in place rather than cloning).
    pub fn raw(&self) -> &[f64] {
        &self.data
    }

    fn ensure_sorted(&mut self) {
        if self.sorted_len < self.data.len() {
            // Total order, not partial: never panics, and any NaN that
            // reached a release build sorts to the ends deterministically
            // rather than leaving the order (and every later percentile)
            // undefined.
            self.data.sort_unstable_by(f64::total_cmp);
            self.sorted_len = self.data.len();
        }
    }

    /// The `p`-th percentile (`0.0..=100.0`) with linear interpolation
    /// between order statistics; 0 when empty. Sorts at most once per
    /// batch of mutations.
    pub fn percentile(&mut self, p: f64) -> f64 {
        if self.data.is_empty() {
            return 0.0;
        }
        self.ensure_sorted();
        let rank = (p.clamp(0.0, 100.0) / 100.0) * (self.data.len() - 1) as f64;
        let lo = rank.floor() as usize;
        let hi = rank.ceil() as usize;
        let frac = rank - lo as f64;
        self.data[lo] * (1.0 - frac) + self.data[hi] * frac
    }

    /// The median (50th percentile).
    pub fn median(&mut self) -> f64 {
        self.percentile(50.0)
    }

    /// Sum of all observations.
    pub fn sum(&self) -> f64 {
        self.data.iter().sum()
    }

    /// Largest observation (0 when empty).
    pub fn max(&mut self) -> f64 {
        self.percentile(100.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accumulator_basic_moments() {
        let mut a = Accumulator::new();
        for &x in &[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            a.add(x);
        }
        assert_eq!(a.count(), 8);
        assert!((a.mean() - 5.0).abs() < 1e-12);
        // Sample variance of that classic set is 32/7.
        assert!((a.variance() - 32.0 / 7.0).abs() < 1e-9);
        assert_eq!(a.min(), 2.0);
        assert_eq!(a.max(), 9.0);
    }

    #[test]
    fn ci90_matches_hand_computation() {
        let mut a = Accumulator::new();
        for &x in &[10.0, 12.0, 11.0, 13.0, 10.0, 12.0, 11.0, 13.0] {
            a.add(x);
        }
        // df = 7 -> t = 1.895
        let expected = 1.895 * a.std_dev() / (8f64).sqrt();
        assert!((a.ci90_half_width() - expected).abs() < 1e-12);
    }

    #[test]
    fn ci_zero_for_tiny_samples() {
        let mut a = Accumulator::new();
        assert_eq!(a.ci90_half_width(), 0.0);
        a.add(1.0);
        assert_eq!(a.ci90_half_width(), 0.0);
    }

    #[test]
    fn merge_equals_sequential() {
        let xs: Vec<f64> = (0..100).map(|i| (i as f64) * 0.37 % 11.0).collect();
        let mut whole = Accumulator::new();
        for &x in &xs {
            whole.add(x);
        }
        let mut left = Accumulator::new();
        let mut right = Accumulator::new();
        for &x in &xs[..37] {
            left.add(x);
        }
        for &x in &xs[37..] {
            right.add(x);
        }
        left.merge(&right);
        assert_eq!(left.count(), whole.count());
        assert!((left.mean() - whole.mean()).abs() < 1e-9);
        assert!((left.variance() - whole.variance()).abs() < 1e-9);
    }

    #[test]
    fn merge_with_empty() {
        let mut a = Accumulator::new();
        a.add(5.0);
        let b = Accumulator::new();
        a.merge(&b);
        assert_eq!(a.count(), 1);
        let mut c = Accumulator::new();
        c.merge(&a);
        assert_eq!(c.count(), 1);
        assert_eq!(c.mean(), 5.0);
    }

    #[test]
    fn samples_percentiles_interpolate() {
        let mut s = Samples::with_capacity(4);
        assert_eq!(s.percentile(50.0), 0.0);
        // Insert unsorted; queries must see sorted order.
        for x in [4.0, 1.0, 3.0, 2.0] {
            s.add(x);
        }
        assert_eq!(s.len(), 4);
        assert_eq!(s.percentile(0.0), 1.0);
        assert_eq!(s.median(), 2.5);
        assert_eq!(s.percentile(100.0), 4.0);
        assert!((s.percentile(25.0) - 1.75).abs() < 1e-12);
        assert_eq!(s.sum(), 10.0);
    }

    #[test]
    fn samples_resort_after_mutation() {
        let mut s = Samples::new();
        s.add(10.0);
        assert_eq!(s.median(), 10.0);
        // A later, smaller observation must be seen by later queries.
        s.add(0.0);
        assert_eq!(s.median(), 5.0);
        assert_eq!(s.max(), 10.0);
        assert!(!s.is_empty());
        assert_eq!(s.raw().len(), 2);
    }

    /// Regression: a NaN observation is caught at the door in debug
    /// builds instead of silently poisoning later percentile queries.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "NaN observation")]
    fn samples_reject_nan_observations() {
        let mut s = Samples::new();
        s.add(f64::NAN);
    }

    /// Regression (release semantics): if a NaN slips into a build
    /// without debug assertions, sorting must neither panic (the old
    /// `partial_cmp(..).expect` did) nor scramble the real observations —
    /// `total_cmp` sends NaN to the ends and every interior percentile
    /// stays correct.
    #[test]
    #[cfg(not(debug_assertions))]
    fn samples_survive_nan_in_release() {
        let mut s = Samples::new();
        for x in [2.0, f64::NAN, 1.0, 3.0] {
            s.add(x);
        }
        assert_eq!(s.percentile(0.0), 1.0);
        // Positive NaN sorts after every number under total_cmp, so the
        // interior order statistics see [1, 2, 3, NaN].
        assert_eq!(s.median(), 2.5);
        assert!(s.max().is_nan());
    }

    /// `total_cmp` is bit-exact about signed zero: -0.0 sorts before 0.0.
    #[test]
    fn samples_order_signed_zeros_totally() {
        let mut s = Samples::new();
        s.add(0.0);
        s.add(-0.0);
        assert_eq!(s.percentile(0.0).to_bits(), (-0.0f64).to_bits());
        assert_eq!(s.percentile(100.0).to_bits(), 0.0f64.to_bits());
    }
}
