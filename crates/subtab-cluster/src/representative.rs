//! Mapping cluster centroids back to actual data points.
//!
//! Sub-tables must contain real rows of the input table (Definition 3.1), so
//! after clustering the row/column vectors, SubTab selects for each centroid
//! the *data point nearest to it* (Algorithm 2: "select their centroids as
//! the rows of T_sub", which in practice means the medoid-like nearest
//! member). When two centroids would pick the same point, the later one takes
//! its next-nearest unused point so that exactly `k` distinct indices are
//! returned.

use crate::kmeans::{KMeans, KMeansResult};
use crate::matrix::MatrixView;
use subtab_kernels::PointBlocks;

/// For each centroid of `result`, the index of the nearest point in `points`,
/// with duplicates resolved to the next nearest unused point.
pub fn select_representatives(points: MatrixView, result: &KMeansResult) -> Vec<usize> {
    select_representatives_blocks(&PointBlocks::new(points.data(), points.dim()), result)
}

/// [`select_representatives`] over the point-lane blocks a fit already
/// prepared ([`KMeans::fit_blocks`]): one kernel pass per centroid computes
/// every point's distance to it, then a linear scan picks the nearest unused
/// point.
pub fn select_representatives_blocks(points: &PointBlocks, result: &KMeansResult) -> Vec<usize> {
    let n = points.len();
    let mut chosen: Vec<usize> = Vec::with_capacity(result.centroids.len());
    let mut used = vec![false; n];
    let mut dists = vec![0.0f32; n];
    for centroid in &result.centroids {
        points.distances_to(centroid, &mut dists);
        // Linear argmin over the unused points. The original implementation
        // stably argsorted all points by distance and took the first unused
        // one; a strict `<` scan in index order picks the same point (lowest
        // index among the minimal unused distances) in O(n) instead of
        // O(n log n) with a distance evaluation per comparison.
        let mut best: Option<(usize, f32)> = None;
        for (i, &d) in dists.iter().enumerate() {
            if used[i] {
                continue;
            }
            if best.is_none_or(|(_, bd)| d.total_cmp(&bd).is_lt()) {
                best = Some((i, d));
            }
        }
        if let Some((idx, _)) = best {
            used[idx] = true;
            chosen.push(idx);
        }
    }
    chosen
}

/// Clusters `points` into `k` clusters and returns the indices of the `k`
/// representative points (fewer if there are fewer points than `k`).
pub fn select_k_representatives(points: MatrixView, k: usize, seed: u64) -> Vec<usize> {
    select_k_representatives_threaded(points, k, seed, 1)
}

/// [`select_k_representatives`] with the k-means assignment step fanned out
/// across `threads` scoped workers (`0` = all available cores).
///
/// The assignment step is read-only per point, so the selection is
/// bit-identical at every thread count; the knob only changes wall time.
pub fn select_k_representatives_threaded(
    points: MatrixView,
    k: usize,
    seed: u64,
    threads: usize,
) -> Vec<usize> {
    if k == 0 || points.is_empty() {
        return Vec::new();
    }
    if points.num_rows() <= k {
        return (0..points.num_rows()).collect();
    }
    // One transposed copy serves the fit and the representative search, and
    // is dropped before returning.
    let blocks = PointBlocks::new(points.data(), points.dim());
    let result = KMeans::new(k, seed).threads(threads).fit_blocks(&blocks);
    select_representatives_blocks(&blocks, &result)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distance::squared_euclidean;
    use crate::matrix::Matrix;

    #[test]
    fn representatives_are_distinct_and_one_per_cluster() {
        let mut points = Matrix::with_capacity(30, 2);
        for i in 0..10 {
            points.push_row(&[0.0, i as f32 * 0.01]);
            points.push_row(&[100.0, i as f32 * 0.01]);
            points.push_row(&[-100.0, i as f32 * 0.01]);
        }
        let reps = select_k_representatives(points.view(), 3, 7);
        assert_eq!(reps.len(), 3);
        let mut sorted = reps.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 3, "representatives must be distinct");
        // One representative per blob.
        let blobs: Vec<i32> = reps
            .iter()
            .map(|&i| {
                if points.row(i)[0] > 50.0 {
                    1
                } else if points.row(i)[0] < -50.0 {
                    -1
                } else {
                    0
                }
            })
            .collect();
        let mut blob_set = blobs.clone();
        blob_set.sort_unstable();
        blob_set.dedup();
        assert_eq!(blob_set.len(), 3);
    }

    #[test]
    fn duplicate_centroids_fall_back_to_unused_points() {
        // All points identical: k-means centroids coincide, but the selected
        // representatives must still be distinct indices.
        let points = Matrix::from_rows(&vec![vec![1.0, 1.0]; 6], 2);
        let reps = select_k_representatives(points.view(), 3, 0);
        assert_eq!(reps.len(), 3);
        let mut sorted = reps;
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 3);
    }

    #[test]
    fn fewer_points_than_k_returns_all() {
        let points = Matrix::new(vec![0.0, 1.0], 1);
        let reps = select_k_representatives(points.view(), 10, 0);
        assert_eq!(reps, vec![0, 1]);
    }

    #[test]
    fn degenerate_inputs() {
        let empty = Matrix::with_capacity(0, 1);
        assert!(select_k_representatives(empty.view(), 3, 0).is_empty());
        let one = Matrix::new(vec![1.0], 1);
        assert!(select_k_representatives(one.view(), 0, 0).is_empty());
        assert!(select_k_representatives_threaded(empty.view(), 3, 0, 4).is_empty());
    }

    #[test]
    fn threaded_selection_matches_sequential() {
        let mut points = Matrix::with_capacity(1800, 2);
        for i in 0..1800 {
            let blob = (i % 3) as f32;
            points.push_row(&[blob * 40.0 + (i % 9) as f32 * 0.05, blob]);
        }
        let sequential = select_k_representatives(points.view(), 3, 11);
        for threads in [0, 2, 4] {
            assert_eq!(
                sequential,
                select_k_representatives_threaded(points.view(), 3, 11, threads),
                "threads = {threads}"
            );
        }
    }

    #[test]
    fn representative_is_the_nearest_member() {
        let points = Matrix::new(vec![0.0, 0.9, 10.0, 10.4], 1);
        let result = KMeans::new(2, 3).fit(points.view());
        let reps = select_representatives(points.view(), &result);
        // Each representative must belong to the cluster whose centroid it
        // represents (i.e. be closest to that centroid among all points).
        for (ci, &rep) in reps.iter().enumerate() {
            let d_rep = squared_euclidean(points.row(rep), &result.centroids[ci]);
            for p in points.view().rows() {
                // Allow ties; the representative is at least as close as any
                // unused point.
                assert!(d_rep <= squared_euclidean(p, &result.centroids[ci]) + 1e-6);
            }
        }
    }
}
