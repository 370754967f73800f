//! Lloyd's k-means with k-means++ initialisation.

use crate::matrix::MatrixView;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use subtab_kernels::{Isa, PointBlocks};

/// Below this many points a parallel assignment pass costs more in thread
/// setup than it saves; the sequential path is used regardless of `threads`.
const PARALLEL_MIN_POINTS: usize = 1024;

/// Result of a k-means run.
#[derive(Debug, Clone)]
pub struct KMeansResult {
    /// Final cluster centroids (`k` vectors, possibly fewer if there were
    /// fewer distinct points than clusters).
    pub centroids: Vec<Vec<f32>>,
    /// Cluster assignment of every input point, consistent with `centroids`:
    /// each point is assigned to its nearest final centroid.
    pub assignments: Vec<usize>,
    /// Sum of squared distances of points to their assigned centroid.
    pub inertia: f32,
    /// Number of Lloyd iterations executed.
    pub iterations: usize,
}

/// K-means clustering with deterministic seeding.
///
/// Points are supplied as a contiguous row-major [`MatrixView`] — one flat
/// buffer instead of a heap allocation per point. A fit transposes them once
/// into the point-lane blocks of the best available ISA tier
/// ([`PointBlocks`]); k-means++ seeding, every assignment pass and the
/// update step's accumulation run on those blocks, and the copy is dropped
/// when the fit returns. Every tier is bit-identical to the scalar twins.
/// The assignment step (the O(n·k·dim) hot loop) can fan out across scoped
/// worker threads via [`KMeans::threads`]; every point's nearest centroid is
/// an independent read-only computation, so the result is bit-identical at
/// any thread count.
#[derive(Debug, Clone)]
pub struct KMeans {
    k: usize,
    max_iterations: usize,
    seed: u64,
    threads: usize,
}

impl KMeans {
    /// Creates a clusterer for `k` clusters with the given RNG seed.
    pub fn new(k: usize, seed: u64) -> Self {
        KMeans {
            k,
            max_iterations: 100,
            seed,
            threads: 1,
        }
    }

    /// Overrides the maximum number of Lloyd iterations (default 100).
    pub fn max_iterations(mut self, iters: usize) -> Self {
        self.max_iterations = iters.max(1);
        self
    }

    /// Sets the worker-thread count of the assignment step (`0` = all
    /// available cores, `1` = sequential, the default).
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Runs k-means on the given points.
    ///
    /// Degenerate inputs are handled gracefully: with no points the result is
    /// empty; with `k = 0` every point is assigned to a single implicit
    /// cluster 0 and no centroids are returned; with `k >= n` every point
    /// becomes its own centroid.
    pub fn fit(&self, points: MatrixView) -> KMeansResult {
        self.fit_blocks(&PointBlocks::new(points.data(), points.dim()))
    }

    /// [`fit`](KMeans::fit) on points already prepared as [`PointBlocks`],
    /// so a caller that also searches representatives
    /// ([`select_representatives_blocks`](crate::select_representatives_blocks))
    /// transposes once. The tier of `points` decides the kernels the fit
    /// runs on; every tier gives the same result.
    pub fn fit_blocks(&self, points: &PointBlocks) -> KMeansResult {
        let n = points.len();
        if n == 0 || self.k == 0 {
            return KMeansResult {
                centroids: Vec::new(),
                assignments: vec![0; n],
                inertia: 0.0,
                iterations: 0,
            };
        }
        let k = self.k.min(n);
        let dim = points.dim();
        let threads = subtab_kernels::resolve_threads(self.threads, n);
        let mut rng = StdRng::seed_from_u64(self.seed);

        // Centroids live in one contiguous `k × dim` buffer for the duration
        // of the fit; they are only split into per-centroid vectors for the
        // returned result.
        let mut centroids = kmeanspp_init(points, k, &mut rng);
        let mut assignments = vec![0usize; n];
        let mut dists = vec![0.0f32; n];
        let mut sums = vec![0.0f32; k * dim];
        let mut counts = vec![0usize; k];
        let mut iterations = 0usize;
        let mut stale = true;

        for iter in 0..self.max_iterations {
            iterations = iter + 1;
            // Assignment step.
            let changed = assign_blocks(points, &centroids, &mut assignments, &mut dists, threads);
            // Update step.
            sums.fill(0.0);
            counts.fill(0);
            points.accumulate(&assignments, &mut sums, &mut counts);
            let mut empty = Vec::new();
            for (c, &count) in counts.iter().enumerate() {
                if count > 0 {
                    let inv = 1.0 / count as f32;
                    for (dst, s) in centroids[c * dim..(c + 1) * dim]
                        .iter_mut()
                        .zip(&sums[c * dim..(c + 1) * dim])
                    {
                        *dst = s * inv;
                    }
                } else {
                    empty.push(c);
                }
            }
            if !empty.is_empty() {
                reseed_empty_clusters(points, &mut centroids, &empty);
            }
            // With unchanged assignments and no re-seeding, this update
            // recomputed bit-identical centroids, so `assignments`/`dists`
            // already pair with the final centroids. Iteration 0 is always
            // stale: its update moves the centroids off the k-means++ seeds
            // even when no assignment changed.
            stale = changed || !empty.is_empty() || iter == 0;
            if !changed && iter > 0 {
                break;
            }
        }

        // Final consistency pass: the loop may have exited via the iteration
        // cap (or an empty-cluster re-seed) right after moving the
        // centroids, which would leave `assignments` paired with the
        // *previous* centroids and the inertia mixing the two. Re-assign
        // against the final centroids so the reported triple is
        // self-consistent; at a clean convergent exit the pass is skipped.
        if stale {
            assign_blocks(points, &centroids, &mut assignments, &mut dists, threads);
        }
        let inertia = dists.iter().sum();
        KMeansResult {
            centroids: centroids.chunks(dim.max(1)).map(<[f32]>::to_vec).collect(),
            assignments,
            inertia,
            iterations,
        }
    }
}

/// Assigns every point to its nearest centroid, recording the squared
/// distance, and reports whether any assignment changed.
///
/// Transposes the points into [`PointBlocks`] of the best available ISA tier
/// and runs [`assign_blocks`]; bit-identical to [`assign_points_scalar`],
/// which the `kernel_equivalence` suite pins.
pub fn assign_points(
    points: MatrixView,
    centroids: &[f32],
    dim: usize,
    assignments: &mut [usize],
    dists: &mut [f32],
    threads: usize,
) -> bool {
    let blocks = PointBlocks::new(points.data(), dim);
    assign_blocks(&blocks, centroids, assignments, dists, threads)
}

/// The pinned scalar twin of [`assign_points`]: the 4-way blocked scalar
/// scan ([`nearest_centroid_scalar`](subtab_kernels::nearest_centroid_scalar))
/// per point, with the same chunked threading.
pub fn assign_points_scalar(
    points: MatrixView,
    centroids: &[f32],
    dim: usize,
    assignments: &mut [usize],
    dists: &mut [f32],
    threads: usize,
) -> bool {
    let blocks = PointBlocks::with_isa(Isa::Scalar, points.data(), dim);
    assign_blocks(&blocks, centroids, assignments, dists, threads)
}

/// The assignment pass over prepared [`PointBlocks`]: nearest centroid of
/// every point over the flat `k × dim` buffer `centroids`.
///
/// With `threads > 1` (and enough points to amortise thread setup) the
/// points are split into contiguous runs of whole blocks processed by scoped
/// workers; each point's result is independent of the others, so the outcome
/// is identical to the sequential pass.
pub fn assign_blocks(
    points: &PointBlocks,
    centroids: &[f32],
    assignments: &mut [usize],
    dists: &mut [f32],
    threads: usize,
) -> bool {
    let n = points.len();
    if threads <= 1 || n < PARALLEL_MIN_POINTS {
        return points.assign(centroids, 0, assignments, dists);
    }
    let lanes = points.lanes();
    let chunk = n.div_ceil(threads).div_ceil(lanes) * lanes;
    let changed = std::sync::atomic::AtomicBool::new(false);
    std::thread::scope(|scope| {
        for (t, (asg, ds)) in assignments
            .chunks_mut(chunk)
            .zip(dists.chunks_mut(chunk))
            .enumerate()
        {
            let changed = &changed;
            scope.spawn(move || {
                if points.assign(centroids, t * chunk, asg, ds) {
                    changed.store(true, std::sync::atomic::Ordering::Relaxed);
                }
            });
        }
    });
    changed.load(std::sync::atomic::Ordering::Relaxed)
}

/// Re-seeds each empty cluster at a distinct far-away point.
///
/// Distances of every point to its nearest current centroid are computed
/// once (the previous implementation recomputed them inside a `max_by` per
/// empty cluster, O(n²k)); the empty clusters then claim the farthest points
/// in order, each taking the next unclaimed one, so two clusters emptied in
/// the same iteration can no longer be re-seeded onto the same point (which
/// produced duplicate centroids).
fn reseed_empty_clusters(points: &PointBlocks, centroids: &mut [f32], empty: &[usize]) {
    let (n, dim) = (points.len(), points.dim());
    let mut nearest = vec![0usize; n];
    let mut dists = vec![0.0f32; n];
    points.assign(centroids, 0, &mut nearest, &mut dists);
    let mut order: Vec<usize> = (0..n).collect();
    // Farthest first; the stable sort keeps ties in index order so the
    // re-seeding stays deterministic.
    order.sort_by(|&a, &b| dists[b].total_cmp(&dists[a]));
    let rows = points.rows();
    for (&c, &far) in empty.iter().zip(order.iter()) {
        centroids[c * dim..(c + 1) * dim].copy_from_slice(&rows[far * dim..(far + 1) * dim]);
    }
}

/// k-means++ seeding: the first centroid is uniform, subsequent centroids are
/// drawn with probability proportional to the squared distance to the nearest
/// already-chosen centroid. Returns the seeds as one flat `k × dim` buffer.
fn kmeanspp_init(points: &PointBlocks, k: usize, rng: &mut StdRng) -> Vec<f32> {
    let (n, dim, rows) = (points.len(), points.dim(), points.rows());
    let row = |i: usize| &rows[i * dim..(i + 1) * dim];
    let mut centroids: Vec<f32> = Vec::with_capacity(k * dim);
    centroids.extend_from_slice(row(rng.gen_range(0..n)));
    let mut dists = vec![0.0f32; n];
    points.distances_to(&centroids[..dim], &mut dists);
    let mut latest = vec![0.0f32; n];
    while centroids.len() < k * dim {
        let total: f32 = dists.iter().sum();
        let next = if total <= f32::EPSILON {
            // All remaining points coincide with existing centroids.
            rng.gen_range(0..n)
        } else {
            let mut target = rng.gen::<f32>() * total;
            let mut chosen = n - 1;
            for (i, &d) in dists.iter().enumerate() {
                if target <= d {
                    chosen = i;
                    break;
                }
                target -= d;
            }
            chosen
        };
        centroids.extend_from_slice(row(next));
        // The last seed's distances would feed no further draw.
        if centroids.len() == k * dim {
            break;
        }
        points.distances_to(&centroids[centroids.len() - dim..], &mut latest);
        for (d, &l) in dists.iter_mut().zip(&latest) {
            if l < *d {
                *d = l;
            }
        }
    }
    centroids
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::Matrix;
    use subtab_kernels::{nearest_centroid_scalar, squared_euclidean};

    fn blobs() -> Matrix {
        let mut pts = Matrix::with_capacity(60, 2);
        for i in 0..20 {
            pts.push_row(&[0.0 + (i % 5) as f32 * 0.01, 0.0]);
            pts.push_row(&[10.0 + (i % 5) as f32 * 0.01, 10.0]);
            pts.push_row(&[-10.0, 5.0 + (i % 5) as f32 * 0.01]);
        }
        pts
    }

    #[test]
    fn separates_well_separated_blobs() {
        let pts = blobs();
        let result = KMeans::new(3, 1).fit(pts.view());
        assert_eq!(result.centroids.len(), 3);
        assert_eq!(result.assignments.len(), pts.num_rows());
        // Points in the same blob share an assignment.
        assert_eq!(result.assignments[0], result.assignments[3]);
        assert_eq!(result.assignments[1], result.assignments[4]);
        assert_ne!(result.assignments[0], result.assignments[1]);
        // Inertia should be tiny relative to blob separation.
        assert!(result.inertia < 1.0, "inertia = {}", result.inertia);
    }

    #[test]
    fn deterministic_given_seed() {
        let pts = blobs();
        let a = KMeans::new(3, 9).fit(pts.view());
        let b = KMeans::new(3, 9).fit(pts.view());
        assert_eq!(a.assignments, b.assignments);
        assert_eq!(a.centroids, b.centroids);
    }

    #[test]
    fn k_greater_than_n() {
        let pts = Matrix::new(vec![0.0, 1.0], 1);
        let result = KMeans::new(5, 0).fit(pts.view());
        assert_eq!(result.centroids.len(), 2);
    }

    #[test]
    fn degenerate_inputs() {
        let empty = Matrix::with_capacity(0, 2);
        let r = KMeans::new(3, 0).fit(empty.view());
        assert!(r.centroids.is_empty());
        assert!(r.assignments.is_empty());

        let pts = Matrix::new(vec![1.0, 2.0], 1);
        let r = KMeans::new(0, 0).fit(pts.view());
        assert!(r.centroids.is_empty());
        assert_eq!(r.assignments, vec![0, 0]);
    }

    #[test]
    fn identical_points_do_not_crash() {
        let pts = Matrix::from_rows(&vec![vec![2.0, 2.0]; 12], 2);
        let r = KMeans::new(3, 4).fit(pts.view());
        assert_eq!(r.assignments.len(), 12);
        assert!(r.inertia < 1e-6);
    }

    #[test]
    fn single_cluster_centroid_is_mean() {
        let pts = Matrix::new(vec![0.0, 2.0, 4.0], 1);
        let r = KMeans::new(1, 0).fit(pts.view());
        assert_eq!(r.centroids.len(), 1);
        assert!((r.centroids[0][0] - 2.0).abs() < 1e-6);
    }

    #[test]
    fn max_iterations_is_respected() {
        let pts = blobs();
        let r = KMeans::new(3, 1).max_iterations(1).fit(pts.view());
        assert_eq!(r.iterations, 1);
    }

    #[test]
    fn empty_cluster_reseeding_claims_distinct_points() {
        // One populated cluster at the origin, two empty ones far away.
        // Regression: the old re-seeder picked "the farthest point" once per
        // empty cluster without tracking claims, so both empty clusters
        // landed on the same point and produced duplicate centroids.
        let points = Matrix::from_rows(
            &[
                vec![0.0, 0.0],
                vec![0.1, 0.0],
                vec![0.0, 0.1],
                vec![30.0, 0.0],
                vec![29.0, 0.0],
            ],
            2,
        );
        let mut centroids = vec![0.0, 0.0, 500.0, 500.0, 600.0, 600.0];
        let blocks = PointBlocks::new(points.data(), 2);
        reseed_empty_clusters(&blocks, &mut centroids, &[1, 2]);
        assert_ne!(
            centroids[2..4],
            centroids[4..6],
            "empty clusters were re-seeded onto the same point"
        );
        // They claim the two farthest points, in distance order.
        assert_eq!(&centroids[2..4], &[30.0, 0.0]);
        assert_eq!(&centroids[4..6], &[29.0, 0.0]);
    }

    #[test]
    fn result_is_self_consistent_at_the_iteration_cap() {
        // Regression: when `fit` exits via max_iterations, the assignments
        // must still pair with the *returned* centroids (the old code paired
        // pre-update assignments with post-update centroids, and reported an
        // inertia mixing the two).
        let pts = blobs();
        for seed in 0..20 {
            for cap in [1, 2] {
                let r = KMeans::new(3, seed).max_iterations(cap).fit(pts.view());
                let flat_centroids: Vec<f32> = r.centroids.concat();
                let mut expected_inertia = 0.0f32;
                for (i, p) in pts.view().rows().enumerate() {
                    let (best, d) = nearest_centroid_scalar(p, &flat_centroids, 2);
                    assert_eq!(
                        r.assignments[i], best,
                        "seed {seed} cap {cap}: point {i} not assigned to its nearest centroid"
                    );
                    expected_inertia += d;
                }
                let tol = f32::EPSILON * expected_inertia.max(1.0) * pts.num_rows() as f32;
                assert!(
                    (r.inertia - expected_inertia).abs() <= tol,
                    "seed {seed} cap {cap}: inertia {} != recomputed {expected_inertia}",
                    r.inertia
                );
            }
        }
        // k = 1 at the cap: iteration 0 moves the centroid off its k-means++
        // seed without changing any assignment, so the reported inertia must
        // still be measured against the moved centroid.
        let r = KMeans::new(1, 3).max_iterations(1).fit(pts.view());
        let expected: f32 = pts
            .view()
            .rows()
            .map(|p| squared_euclidean(p, &r.centroids[0]))
            .sum();
        assert!((r.inertia - expected).abs() <= f32::EPSILON * expected * pts.num_rows() as f32);
    }

    #[test]
    fn pruned_nearest_centroid_matches_full_evaluation() {
        // The early-abandon refinement must decide every comparison exactly
        // like an unpruned scan, ties (equal distances) included.
        let dims = [1usize, 3, 4, 7, 16];
        for &dim in &dims {
            let mut centroids = Vec::new();
            for c in 0..6 {
                for j in 0..dim {
                    centroids.push(((c * 7 + j * 3) % 5) as f32 - 2.0);
                }
            }
            // Duplicate centroid 0 as centroid 5 to force an exact tie.
            let dup = centroids[..dim].to_vec();
            let start = 5 * dim;
            centroids[start..start + dim].copy_from_slice(&dup);
            for p in 0..40 {
                let point: Vec<f32> = (0..dim).map(|j| ((p * 5 + j) % 11) as f32 * 0.3).collect();
                let (best, best_d) = nearest_centroid_scalar(&point, &centroids, dim);
                // Reference: full evaluation, first strict improvement wins.
                let mut ref_best = 0usize;
                let mut ref_d = f32::INFINITY;
                for (c, centroid) in centroids.chunks_exact(dim).enumerate() {
                    let d = squared_euclidean(&point, centroid);
                    if d < ref_d {
                        ref_d = d;
                        ref_best = c;
                    }
                }
                assert_eq!(best, ref_best, "dim {dim} point {p}");
                assert_eq!(best_d.to_bits(), ref_d.to_bits(), "dim {dim} point {p}");
            }
        }
    }

    #[test]
    fn simd_assignment_is_bit_identical_to_scalar_twin() {
        // The deterministic SIMD path must agree with the pinned scalar twin
        // on assignments AND on distance bits, across thread counts and
        // centroid counts straddling the vector widths.
        let mut pts = Matrix::with_capacity(PARALLEL_MIN_POINTS + 300, 3);
        for i in 0..PARALLEL_MIN_POINTS + 300 {
            pts.push_row(&[
                ((i * 13) % 101) as f32 * 0.37 - 18.0,
                ((i * 7) % 89) as f32 * 0.51 - 22.0,
                ((i * 29) % 97) as f32 * 0.23 - 11.0,
            ]);
        }
        for k in [1usize, 3, 8, 9, 17] {
            let centroids: Vec<f32> = (0..k * 3).map(|j| ((j * 31) % 53) as f32 - 26.0).collect();
            for threads in [1usize, 2, 4] {
                let n = pts.num_rows();
                let (mut a_simd, mut d_simd) = (vec![0usize; n], vec![0.0f32; n]);
                let (mut a_ref, mut d_ref) = (vec![0usize; n], vec![0.0f32; n]);
                assign_points(pts.view(), &centroids, 3, &mut a_simd, &mut d_simd, threads);
                assign_points_scalar(pts.view(), &centroids, 3, &mut a_ref, &mut d_ref, threads);
                assert_eq!(a_simd, a_ref, "k {k} threads {threads}");
                let bits_simd: Vec<u32> = d_simd.iter().map(|d| d.to_bits()).collect();
                let bits_ref: Vec<u32> = d_ref.iter().map(|d| d.to_bits()).collect();
                assert_eq!(bits_simd, bits_ref, "k {k} threads {threads}");
            }
        }
    }

    #[test]
    fn threaded_fit_is_bit_identical_to_sequential() {
        // Enough points to cross PARALLEL_MIN_POINTS so the chunked path
        // actually runs.
        let mut pts = Matrix::with_capacity(PARALLEL_MIN_POINTS + 500, 2);
        for i in 0..PARALLEL_MIN_POINTS + 500 {
            let blob = (i % 3) as f32;
            pts.push_row(&[
                blob * 25.0 + (i % 7) as f32 * 0.1,
                blob * -10.0 + (i % 11) as f32 * 0.1,
            ]);
        }
        let sequential = KMeans::new(3, 5).fit(pts.view());
        for threads in [0, 2, 4] {
            let parallel = KMeans::new(3, 5).threads(threads).fit(pts.view());
            assert_eq!(sequential.assignments, parallel.assignments);
            assert_eq!(sequential.centroids, parallel.centroids);
            assert_eq!(sequential.inertia, parallel.inertia);
            assert_eq!(sequential.iterations, parallel.iterations);
        }
    }
}
