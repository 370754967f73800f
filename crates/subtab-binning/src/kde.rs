//! Kernel-density-estimation based cut-point computation.
//!
//! The paper's reference implementation bins continuous columns with a
//! SciPy-based kernel density estimate: cut points are placed at the valleys
//! (local minima) of the estimated density so that each bin corresponds to a
//! "natural" mode of the distribution. This module reimplements that idea:
//! a Gaussian KDE with Silverman's rule-of-thumb bandwidth is evaluated on a
//! uniform grid, local minima of the density are detected, and the deepest
//! `num_bins − 1` valleys become cut points. If the density has fewer valleys
//! than requested (e.g. a unimodal column), the remaining cuts fall back to
//! quantile cuts so the configured bin count is still honoured.
//!
//! The density is evaluated by one windowed evaluator,
//! [`GaussianKde::density_grid`], on a fixed 256-point grid. Samples are
//! sorted once at fit time, the kernel is truncated at 8 bandwidths, and
//! each sample scatters its contribution into its grid window with a
//! two-multiply Gaussian recurrence instead of an `exp` per grid point, so
//! the evaluation costs O(grid × window + n log n). When the grid step
//! exceeds 4 bandwidths, a window covers only a few points and each gets a
//! direct `exp` instead. Per grid point the contributions accumulate in
//! ascending-sample order, as a dense sum over all samples would; the
//! dropped tail is below `exp(−32) ≈ 1.3e−14` of the kernel peak.
//! `tests/kde_golden.rs` checks the grid against such a dense sum on every
//! planted dataset and pins the cuts to `tests/golden/kde_cuts_ref.txt`.

use crate::quantile::quantile_cuts;

/// Number of evaluation points of the density grid.
const GRID_SIZE: usize = 256;

/// Truncation radius of the kernel, in bandwidths.
///
/// Contributions beyond 8 bandwidths are below `exp(−32) ≈ 1.3e−14` of the
/// kernel peak — comparable to the f64 rounding a dense sum accumulates
/// anyway — so cutting there keeps the cuts of a dense sum while skipping
/// far samples entirely.
const CUTOFF_BANDWIDTHS: f64 = 8.0;

/// When the grid step exceeds this many bandwidths, a sample's window covers
/// only a handful of grid points and the recurrence setup (two `exp` calls)
/// would cost more than evaluating those points directly.
const DIRECT_EVAL_STEP_BANDWIDTHS: f64 = 4.0;

/// A fitted one-dimensional Gaussian kernel density estimate.
///
/// Samples are sorted at fit time, so the grid sums contributions in
/// ascending-sample order.
#[derive(Debug, Clone)]
pub struct GaussianKde {
    /// Finite samples, sorted ascending.
    samples: Vec<f64>,
    bandwidth: f64,
}

impl GaussianKde {
    /// Fits a KDE with Silverman's rule-of-thumb bandwidth.
    ///
    /// Returns `None` when there are fewer than two finite samples or the
    /// data has zero spread (no density structure to exploit).
    pub fn fit(values: &[f64]) -> Option<Self> {
        let mut samples: Vec<f64> = values.iter().copied().filter(|v| v.is_finite()).collect();
        if samples.len() < 2 {
            return None;
        }
        samples.sort_by(f64::total_cmp);
        let n = samples.len() as f64;
        let mean = samples.iter().sum::<f64>() / n;
        let var = samples.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / n;
        let std = var.sqrt();
        let q75 = crate::quantile::quantile_of_sorted(&samples, 0.75);
        let q25 = crate::quantile::quantile_of_sorted(&samples, 0.25);
        let iqr = q75 - q25;
        // Silverman's rule: 0.9 * min(std, IQR/1.34) * n^(-1/5).
        let spread = if iqr > 0.0 { std.min(iqr / 1.34) } else { std };
        if spread <= 0.0 {
            return None;
        }
        let bandwidth = 0.9 * spread * n.powf(-0.2);
        Some(GaussianKde { samples, bandwidth })
    }

    /// The bandwidth chosen by Silverman's rule.
    pub fn bandwidth(&self) -> f64 {
        self.bandwidth
    }

    /// The grid point at index `i` of an `n`-point grid over `[lo, hi]`.
    ///
    /// One rounding sequence for every caller, so grids built from the
    /// same bounds are bit-identical.
    fn grid_x(lo: f64, hi: f64, i: usize, n: usize) -> f64 {
        lo + (hi - lo) * i as f64 / (n - 1) as f64
    }

    /// The grid bounds: the sample range padded by one bandwidth per side.
    fn grid_bounds(&self) -> (f64, f64) {
        let lo = self.samples.first().copied().expect("fit requires samples") - self.bandwidth;
        let hi = self.samples.last().copied().expect("fit requires samples") + self.bandwidth;
        (lo, hi)
    }

    /// Evaluates the density on a uniform 256-point grid over the sample
    /// range padded by one bandwidth per side, with the kernel truncated at
    /// 8 bandwidths.
    ///
    /// Each (sorted) sample scatters into the grid points within its cutoff
    /// window; along the window the kernel value follows the recurrence
    /// `g(x + Δ) = g(x)·c(x)` with `c(x + Δ) = c(x)·exp(−(Δ/h)²)`, so only
    /// two `exp` calls are needed per sample instead of one per grid point.
    pub fn density_grid(&self) -> Vec<(f64, f64)> {
        let (lo, hi) = self.grid_bounds();
        let n = GRID_SIZE;
        let h = self.bandwidth;
        let dx = (hi - lo) / (n - 1) as f64;
        let radius = CUTOFF_BANDWIDTHS * h;
        let mut acc = vec![0.0f64; n];
        // Grid step in bandwidth units; `r` is the constant second-order
        // factor of the Gaussian recurrence along the grid.
        let u = dx / h;
        let r = (-u * u).exp();
        let direct = u > DIRECT_EVAL_STEP_BANDWIDTHS;
        for &s in &self.samples {
            // Grid indices whose |x - s| <= radius. Samples are processed in
            // ascending order, so each acc[i] accumulates its window's terms
            // in the order a dense sum over the samples would.
            let a = (((s - radius) - lo) / dx).ceil().max(0.0) as usize;
            let b = ((((s + radius) - lo) / dx).floor() as isize).min(n as isize - 1);
            if b < a as isize {
                continue;
            }
            let b = b as usize;
            if direct {
                // Window of only a few grid points: direct `exp` is cheaper
                // than setting up the recurrence.
                for (i, slot) in acc.iter_mut().enumerate().take(b + 1).skip(a) {
                    let t = (Self::grid_x(lo, hi, i, n) - s) / h;
                    *slot += (-0.5 * t * t).exp();
                }
            } else {
                let t_a = (Self::grid_x(lo, hi, a, n) - s) / h;
                let mut g = (-0.5 * t_a * t_a).exp();
                let mut c = (-(t_a * u + 0.5 * u * u)).exp();
                for slot in acc.iter_mut().take(b + 1).skip(a) {
                    *slot += g;
                    g *= c;
                    c *= r;
                }
            }
        }
        let norm = 1.0 / ((2.0 * std::f64::consts::PI).sqrt() * h * self.samples.len() as f64);
        (0..n)
            .map(|i| (Self::grid_x(lo, hi, i, n), acc[i] * norm))
            .collect()
    }
}

/// Two cut points close enough to describe the same split.
///
/// The tolerance is *relative* to the cuts' magnitude (with an absolute
/// floor of 1e−12 near zero, matching the historic final-dedup epsilon at
/// unit scale): the old absolute `f64::EPSILON` check missed rounding-level
/// coincidences on large-magnitude columns — a valley grid point and an
/// interpolated quantile landing on "the same" point differ by thousands of
/// ULPs there, far more than `f64::EPSILON` in absolute terms — so both
/// survived and produced an empty bin between them. 1e−12 relative (a few
/// thousand ULPs) catches those coincidences; anything wider would start
/// merging genuinely distinct cuts on offset columns such as epoch-second
/// timestamps, whose sub-second structure sits at ~1e−10 relative.
fn cuts_close(a: f64, b: f64) -> bool {
    let scale = a.abs().max(b.abs()).max(1.0);
    (a - b).abs() < 1e-12 * scale
}

/// Merges valley cuts with quantile top-up candidates into at most `want`
/// sorted, deduplicated cut points.
///
/// Quantile candidates that fall within [`cuts_close`] tolerance of an
/// existing cut are skipped rather than creating a duplicate; the final pass
/// collapses any remaining near-identical neighbours with the same relative
/// tolerance.
fn merge_cut_candidates(mut cuts: Vec<f64>, quantile: &[f64], want: usize) -> Vec<f64> {
    if cuts.len() < want {
        for &q in quantile {
            if cuts.len() >= want {
                break;
            }
            if cuts.iter().all(|&c| !cuts_close(c, q)) {
                cuts.push(q);
            }
        }
    }
    cuts.sort_by(f64::total_cmp);
    cuts.dedup_by(|a, b| cuts_close(*a, *b));
    cuts
}

/// Computes cut points at the deepest valleys of the KDE, topping up with
/// quantile cuts when the density is not multi-modal enough.
pub fn kde_cuts(values: &[f64], num_bins: usize) -> Vec<f64> {
    if num_bins < 2 {
        return Vec::new();
    }
    let finite: Vec<f64> = values.iter().copied().filter(|v| v.is_finite()).collect();
    let Some(kde) = GaussianKde::fit(&finite) else {
        return quantile_cuts(&finite, num_bins);
    };
    valley_cuts(&kde.density_grid(), &finite, num_bins)
}

/// The `num_bins − 1` deepest valleys of a density `grid` over `finite`,
/// topped up with `finite`'s quantile cuts.
fn valley_cuts(grid: &[(f64, f64)], finite: &[f64], num_bins: usize) -> Vec<f64> {
    // A valley is a grid point whose density is a local minimum; its depth is
    // the smaller of the two peak-to-valley drops around it. Peaks on each
    // side are looked up in prefix/suffix running maxima.
    let mut prefix_max = Vec::with_capacity(grid.len());
    let mut run = f64::NEG_INFINITY;
    for &(_, d) in grid {
        prefix_max.push(run);
        run = run.max(d);
    }
    let mut suffix_max = vec![f64::NEG_INFINITY; grid.len()];
    run = f64::NEG_INFINITY;
    for i in (0..grid.len()).rev() {
        suffix_max[i] = run;
        run = run.max(grid[i].1);
    }
    let mut valleys: Vec<(f64, f64)> = Vec::new(); // (depth, x)
    for i in 1..grid.len().saturating_sub(1) {
        let (x, d) = grid[i];
        if d <= grid[i - 1].1 && d <= grid[i + 1].1 && (d < grid[i - 1].1 || d < grid[i + 1].1) {
            let depth = (prefix_max[i] - d).min(suffix_max[i] - d);
            if depth > 0.0 {
                valleys.push((depth, x));
            }
        }
    }
    valleys.sort_by(|a, b| b.0.total_cmp(&a.0));
    let cuts: Vec<f64> = valleys
        .into_iter()
        .take(num_bins - 1)
        .map(|(_, x)| x)
        .collect();
    merge_cut_candidates(cuts, &quantile_cuts(finite, num_bins), num_bins - 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The dense sum the windowed grid is checked against: one `exp` per
    /// (grid point, sample) pair, summed over the samples in ascending
    /// order, on the same grid points.
    fn dense_grid(kde: &GaussianKde) -> Vec<(f64, f64)> {
        let (lo, hi) = kde.grid_bounds();
        let h = kde.bandwidth;
        let norm = 1.0 / ((2.0 * std::f64::consts::PI).sqrt() * h * kde.samples.len() as f64);
        (0..GRID_SIZE)
            .map(|i| {
                let x = GaussianKde::grid_x(lo, hi, i, GRID_SIZE);
                let sum: f64 = kde
                    .samples
                    .iter()
                    .map(|&s| (-0.5 * ((x - s) / h).powi(2)).exp())
                    .sum();
                (x, sum * norm)
            })
            .collect()
    }

    #[test]
    fn bimodal_data_cut_between_modes() {
        // Two clear modes around 0 and 100.
        let mut vals: Vec<f64> = (0..100).map(|i| (i % 10) as f64).collect();
        vals.extend((0..100).map(|i| 100.0 + (i % 10) as f64));
        let cuts = kde_cuts(&vals, 2);
        assert_eq!(cuts.len(), 1);
        assert!(cuts[0] > 15.0 && cuts[0] < 95.0, "cut at {}", cuts[0]);
    }

    #[test]
    fn trimodal_data_gets_two_valley_cuts() {
        let mut vals = Vec::new();
        for center in [0.0, 50.0, 100.0] {
            vals.extend((0..60).map(|i| center + (i % 6) as f64));
        }
        let cuts = kde_cuts(&vals, 3);
        assert_eq!(cuts.len(), 2);
        assert!(cuts[0] > 10.0 && cuts[0] < 50.0);
        assert!(cuts[1] > 60.0 && cuts[1] < 100.0);
    }

    #[test]
    fn unimodal_data_falls_back_to_quantiles() {
        let vals: Vec<f64> = (0..200).map(|i| i as f64 * 0.5).collect();
        let cuts = kde_cuts(&vals, 4);
        assert_eq!(cuts.len(), 3);
        // Cuts must be strictly increasing.
        assert!(cuts.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn degenerate_data() {
        assert!(kde_cuts(&[], 5).is_empty());
        assert!(kde_cuts(&[1.0], 5).is_empty());
        assert!(kde_cuts(&[2.0; 30], 5).is_empty());
        assert!(kde_cuts(&[1.0, 2.0, 3.0], 1).is_empty());
    }

    #[test]
    fn kde_density_integrates_roughly_to_one() {
        let vals: Vec<f64> = (0..50).map(|i| i as f64).collect();
        let kde = GaussianKde::fit(&vals).unwrap();
        let grid = kde.density_grid();
        let dx = grid[1].0 - grid[0].0;
        let integral: f64 = grid.iter().map(|&(_, d)| d * dx).sum();
        assert!((integral - 1.0).abs() < 0.1, "integral = {integral}");
        assert!(kde.bandwidth() > 0.0);
    }

    #[test]
    fn kde_fit_requires_spread() {
        assert!(GaussianKde::fit(&[5.0, 5.0, 5.0]).is_none());
        assert!(GaussianKde::fit(&[1.0]).is_none());
        assert!(GaussianKde::fit(&[f64::NAN, f64::NAN]).is_none());
    }

    #[test]
    fn windowed_grid_matches_exact_grid() {
        // Mixed multi-modal data with uneven mode sizes.
        let mut vals: Vec<f64> = (0..400).map(|i| (i % 37) as f64 * 0.7).collect();
        vals.extend((0..150).map(|i| 120.0 + (i % 11) as f64));
        vals.extend((0..80).map(|i| 300.0 + (i % 23) as f64 * 0.3));
        let kde = GaussianKde::fit(&vals).unwrap();
        let exact = dense_grid(&kde);
        let windowed = kde.density_grid();
        assert_eq!(exact.len(), windowed.len());
        let peak = exact.iter().map(|&(_, d)| d).fold(0.0f64, f64::max);
        for (&(xe, de), &(xw, dw)) in exact.iter().zip(&windowed) {
            assert_eq!(xe, xw, "grid positions must be bit-identical");
            assert!(
                (de - dw).abs() <= 1e-12 * peak,
                "density at {xe} drifted: exact {de} vs windowed {dw}"
            );
        }
    }

    #[test]
    fn windowed_cuts_match_exact_cuts() {
        // Same planted shapes as the grid test, exercised end to end.
        for (scale, shift) in [(1.0, 0.0), (1e6, 3e8), (1e-3, -5.0)] {
            let mut vals = Vec::new();
            for center in [0.0, 50.0, 100.0] {
                vals.extend((0..60).map(|i| (center + (i % 6) as f64) * scale + shift));
            }
            let kde = GaussianKde::fit(&vals).unwrap();
            let exact = valley_cuts(&dense_grid(&kde), &vals, 4);
            let windowed = kde_cuts(&vals, 4);
            assert_eq!(exact, windowed, "scale {scale} shift {shift}");
        }
    }

    #[test]
    fn sparse_grid_uses_direct_window_evaluation() {
        // Far outliers around a tight central cluster: the IQR-driven
        // bandwidth is tiny relative to the span, so the grid step exceeds
        // DIRECT_EVAL_STEP_BANDWIDTHS bandwidths and each sample's window
        // covers only a handful of grid points (the direct-`exp` fallback).
        let mut vals: Vec<f64> = vec![-350.0; 25];
        vals.extend((0..150).map(|i| (i % 50) as f64 / 50.0));
        vals.extend(vec![350.0; 25]);
        let kde = GaussianKde::fit(&vals).unwrap();
        let (lo, hi) = kde.grid_bounds();
        let u = (hi - lo) / (GRID_SIZE - 1) as f64 / kde.bandwidth();
        assert!(
            u > DIRECT_EVAL_STEP_BANDWIDTHS,
            "setup must trigger the direct path, step = {u} bandwidths"
        );
        let exact = dense_grid(&kde);
        let windowed = kde.density_grid();
        let peak = exact.iter().map(|&(_, d)| d).fold(0.0f64, f64::max);
        assert!(peak > 0.0);
        for (&(xe, de), &(xw, dw)) in exact.iter().zip(&windowed) {
            assert_eq!(xe, xw);
            assert!(
                (de - dw).abs() <= 1e-11 * peak,
                "density at {xe} drifted: exact {de} vs windowed {dw}"
            );
        }
    }

    #[test]
    fn cut_dedup_uses_relative_tolerance() {
        // On a 1e12-magnitude column, cuts 0.5 apart (a few thousand ULPs —
        // a rounding-level coincidence) are the same split; the old absolute
        // `f64::EPSILON` check kept both.
        assert!(cuts_close(1.0e12, 1.0e12 + 0.5));
        // Wider gaps are genuinely distinct, even at large magnitude.
        assert!(!cuts_close(1.0e12, 1.0e12 + 100_000.0));
        assert!(!cuts_close(1.0, 2.0));
        // Offset columns keep their sub-unit structure: epoch seconds with
        // millisecond cuts must not merge.
        assert!(!cuts_close(1.7e9, 1.7e9 + 0.2));
        // Near zero the floor keeps the tolerance absolute.
        assert!(cuts_close(0.0, 5e-13));
        assert!(!cuts_close(0.0, 1e-3));
    }

    #[test]
    fn top_up_skips_near_identical_quantile_cuts() {
        // A valley cut at 1e12 and a quantile candidate half a unit away
        // (rounding-level at that magnitude): the old `f64::EPSILON`
        // absolute tolerance admitted the near-duplicate and produced an
        // empty bin between them.
        let merged = merge_cut_candidates(vec![1.0e12], &[1.0e12 + 0.5, 2.0e12], 3);
        assert_eq!(merged, vec![1.0e12, 2.0e12]);
        // Distinct candidates still top up to the requested count.
        let merged = merge_cut_candidates(vec![10.0], &[5.0, 20.0], 3);
        assert_eq!(merged, vec![5.0, 10.0, 20.0]);
        // The final pass also collapses near-identical survivors.
        let merged = merge_cut_candidates(vec![1.0e12 + 0.5, 1.0e12], &[], 3);
        assert_eq!(merged.len(), 1);
    }

    #[test]
    fn offset_timestamp_columns_keep_their_cuts() {
        // Epoch-seconds column with millisecond-level structure: the cuts
        // sit ~1e-10 apart in relative terms, hundreds of ULPs each — a
        // coarser relative tolerance would collapse the requested bin count
        // to 2.
        let vals: Vec<f64> = (0..500).map(|i| 1.7e9 + i as f64 * 0.002).collect();
        let cuts = kde_cuts(&vals, 5);
        assert_eq!(cuts.len(), 4, "cuts collapsed: {cuts:?}");
        assert!(cuts.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn large_magnitude_columns_produce_separated_cuts() {
        let mut vals: Vec<f64> = (0..200).map(|i| 1.0e12 + (i % 10) as f64 * 1e8).collect();
        vals.extend((0..200).map(|i| 3.0e12 + (i % 10) as f64 * 1e8));
        for bins in [2, 4, 6] {
            let cuts = kde_cuts(&vals, bins);
            for w in cuts.windows(2) {
                assert!(
                    !cuts_close(w[0], w[1]) && w[0] < w[1],
                    "cuts {} and {} too close for bins={bins}",
                    w[0],
                    w[1]
                );
            }
        }
    }
}
