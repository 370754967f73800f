//! The benchmark's reporting arithmetic: percentiles with a sample floor,
//! medians, and ratios that always carry their base.

use std::fmt;

/// A percentile is reported only when at least this many samples lie
/// strictly beyond its rank; below that the tail is a handful of outliers,
/// not a percentile.
pub const MIN_BEYOND: usize = 10;

/// One reported percentile with the sample counts that justify it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    /// The nearest-rank sample at the percentile.
    pub value: f64,
    /// Number of samples the percentile was taken over.
    pub samples: usize,
    /// Samples strictly beyond the percentile's rank.
    pub beyond: usize,
}

/// Nearest-rank `pct`-th percentile (`0 < pct < 100`) of `samples`: the
/// sample at rank `ceil(pct · n / 100)` of the ascending order. `None` when
/// fewer than [`MIN_BEYOND`] samples lie beyond that rank.
pub fn percentile(samples: &[f64], pct: u32) -> Option<Percentile> {
    assert!(
        pct > 0 && pct < 100,
        "percentile must lie strictly inside (0, 100)"
    );
    let n = samples.len();
    if n == 0 {
        return None;
    }
    let rank = (pct as usize * n).div_ceil(100).max(1);
    let beyond = n - rank;
    if beyond < MIN_BEYOND {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(Percentile {
        value: sorted[rank - 1],
        samples: n,
        beyond,
    })
}

/// Median of `values` (mean of the middle pair for an even count); `None`
/// for an empty slice.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    Some(if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    })
}

/// A ratio kept as its two counts, so every report can state its base.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Ratio {
    /// The counted outcomes.
    pub part: u64,
    /// The attempts they are counted against.
    pub base: u64,
}

impl Ratio {
    /// A ratio of `part` out of `base`.
    pub fn new(part: u64, base: u64) -> Self {
        Ratio { part, base }
    }

    /// `part / base`, or `0.0` when the base is zero (nothing attempted
    /// means nothing succeeded or failed; the printed base shows which).
    pub fn value(&self) -> f64 {
        if self.base == 0 {
            0.0
        } else {
            self.part as f64 / self.base as f64
        }
    }
}

impl fmt::Display for Ratio {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.4} ({} of {})", self.value(), self.part, self.base)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // Shuffled on purpose: the percentile must sort.
        (0..n).rev().map(|i| (i + 1) as f64).collect()
    }

    #[test]
    fn p50_needs_twenty_samples() {
        // n = 19: rank 10, 9 beyond -> omitted.
        assert_eq!(percentile(&ramp(19), 50), None);
        // n = 20: rank 10, 10 beyond -> reported.
        let p = percentile(&ramp(20), 50).unwrap();
        assert_eq!(p.value, 10.0);
        assert_eq!(p.samples, 20);
        assert_eq!(p.beyond, 10);
    }

    #[test]
    fn p99_needs_a_thousand_samples() {
        assert_eq!(percentile(&ramp(999), 99), None);
        let p = percentile(&ramp(1000), 99).unwrap();
        assert_eq!(p.value, 990.0);
        assert_eq!(p.beyond, 10);
        // Integer rank arithmetic: no float rounding pushes the rank past
        // 990 at exactly n = 1000.
        let p = percentile(&ramp(1500), 99).unwrap();
        assert_eq!(p.value, 1485.0);
        assert_eq!(p.beyond, 15);
    }

    #[test]
    fn percentile_of_nothing_is_omitted() {
        assert_eq!(percentile(&[], 50), None);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn ratios_carry_their_base() {
        let r = Ratio::new(1, 4);
        assert_eq!(r.value(), 0.25);
        assert_eq!(r.to_string(), "0.2500 (1 of 4)");
        let none = Ratio::new(0, 0);
        assert_eq!(none.value(), 0.0);
        assert_eq!(none.to_string(), "0.0000 (0 of 0)");
    }
}
