//! Squared-euclidean distance and the point-lane k-means kernel.
//!
//! [`squared_euclidean`] and [`nearest_centroid_scalar`] are the pinned
//! scalar twins: every distance accumulates `d += (x − c)²` in element order
//! (no reassociation), and the argmin scans centroids in order with a strict
//! `<`. [`PointBlocks`] is the SIMD counterpart. It transposes a point set
//! once into blocks of 8 (AVX2) or 16 (AVX-512) points stored element-major
//! (`block[d][lane]`), so one SIMD lane carries one *point* through the
//! same per-element operation sequence as the scalar twins, and every tier
//! is bit-identical to them. The same blocks serve k-means++ seeding (all
//! points against one centroid), every Lloyd assignment pass (all points
//! against all centroids) and the representative search.

use crate::aligned::AlignedBuf;
use crate::dispatch::{self, Isa};

/// Squared Euclidean distance between two equal-length vectors.
///
/// Panics in debug builds if the lengths differ (callers always compare
/// vectors produced by the same pipeline, so this indicates a logic error).
#[inline]
pub fn squared_euclidean(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    a.iter()
        .zip(b.iter())
        .map(|(x, y)| {
            let d = x - y;
            d * d
        })
        .sum()
}

/// Euclidean distance between two equal-length vectors.
#[inline]
pub fn euclidean(a: &[f32], b: &[f32]) -> f32 {
    squared_euclidean(a, b).sqrt()
}

/// Nearest centroid of `point` over a flat `k × dim` centroid buffer
/// (candidates scanned in centroid order, first strict improvement wins —
/// ties keep the earlier centroid).
///
/// Centroids are processed four at a time with one independent accumulator
/// per centroid: each distance still accumulates its squared differences in
/// element order exactly like [`squared_euclidean`] (no reassociation), and
/// the best-so-far comparisons run in centroid order, so the result is
/// bit-identical to a one-centroid-at-a-time scan — the blocking only lets
/// the CPU overlap the four serial addition chains instead of waiting out
/// one chain's latency per candidate.
pub fn nearest_centroid_scalar(point: &[f32], centroids: &[f32], dim: usize) -> (usize, f32) {
    let mut best = 0usize;
    let mut best_d = f32::INFINITY;
    let mut update = |c: usize, d: f32| {
        if d < best_d {
            best_d = d;
            best = c;
        }
    };
    let mut blocks = centroids.chunks_exact(dim * 4);
    let mut c = 0usize;
    for block in &mut blocks {
        let (c0, rest) = block.split_at(dim);
        let (c1, rest) = rest.split_at(dim);
        let (c2, c3) = rest.split_at(dim);
        let (mut d0, mut d1, mut d2, mut d3) = (0.0f32, 0.0f32, 0.0f32, 0.0f32);
        for ((((&x, y0), y1), y2), y3) in point.iter().zip(c0).zip(c1).zip(c2).zip(c3) {
            let e0 = x - y0;
            d0 += e0 * e0;
            let e1 = x - y1;
            d1 += e1 * e1;
            let e2 = x - y2;
            d2 += e2 * e2;
            let e3 = x - y3;
            d3 += e3 * e3;
        }
        update(c, d0);
        update(c + 1, d1);
        update(c + 2, d2);
        update(c + 3, d3);
        c += 4;
    }
    for centroid in blocks.remainder().chunks_exact(dim) {
        update(c, squared_euclidean(point, centroid));
        c += 1;
    }
    (best, best_d)
}

/// A point set prepared for the k-means kernels of one ISA tier.
///
/// On the vector tiers construction transposes the row-major `n × dim`
/// points once into blocks of [`lanes`](PointBlocks::lanes) points,
/// element-major within a block (`block[d][lane]`), zero-padded to a whole
/// block. Each kernel then loads one element of `lanes` points with a single
/// wide load and computes `d += (x − c) * (x − c)` per lane as a separate
/// subtract, multiply and add in element order — the exact operation
/// sequence of [`squared_euclidean`], with no reassociation and no fused
/// multiply-add — so distances are bit-identical to the scalar twins. The
/// assignment argmin runs in centroid order with a strict `<` per lane, so
/// ties keep the earlier centroid exactly like [`nearest_centroid_scalar`].
///
/// The scalar tier keeps no copy: it runs the scalar twins on the borrowed
/// rows. The transposed copy lives as long as the `PointBlocks` value, so
/// callers drop it when their fit is done.
pub struct PointBlocks<'a> {
    rows: &'a [f32],
    n: usize,
    dim: usize,
    isa: Isa,
    /// Vector tiers: `ceil(n / lanes)` blocks of `dim × lanes` floats.
    /// Scalar tier: empty.
    blocks: AlignedBuf,
}

impl<'a> PointBlocks<'a> {
    /// Prepare `rows` (a row-major buffer of `dim`-dimensional points) for
    /// the best available tier, honouring the `SUBTAB_FORCE_SCALAR_KERNELS`
    /// override.
    pub fn new(rows: &'a [f32], dim: usize) -> Self {
        Self::with_isa(dispatch::detect(), rows, dim)
    }

    /// Prepare `rows` for a specific tier (for equivalence tests); a tier the
    /// CPU cannot run is downgraded to scalar.
    pub fn with_isa(isa: Isa, rows: &'a [f32], dim: usize) -> Self {
        let n = rows.len().checked_div(dim).unwrap_or(0);
        debug_assert_eq!(n * dim, rows.len(), "buffer is not a whole number of rows");
        let isa = if isa.available() { isa } else { Isa::Scalar };
        let lanes = lanes_of(isa);
        let blocks = if isa == Isa::Scalar {
            AlignedBuf::zeroed(0)
        } else {
            let mut buf = AlignedBuf::zeroed(n.div_ceil(lanes) * lanes * dim);
            let out = buf.as_mut_slice();
            for (i, row) in rows.chunks_exact(dim.max(1)).enumerate() {
                let block = &mut out[(i / lanes) * lanes * dim..];
                for (d, &x) in row.iter().enumerate() {
                    block[d * lanes + i % lanes] = x;
                }
            }
            buf
        };
        PointBlocks {
            rows,
            n,
            dim,
            isa,
            blocks,
        }
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the set holds no points.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Dimensionality of each point.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Points per block: 16 (AVX-512), 8 (AVX2) or 1 (scalar). Ranges
    /// handed to [`assign`](PointBlocks::assign) start on a multiple of it.
    pub fn lanes(&self) -> usize {
        lanes_of(self.isa)
    }

    /// The borrowed row-major points.
    pub fn rows(&self) -> &'a [f32] {
        self.rows
    }

    /// Nearest centroid of every point in `start..start + assignments.len()`
    /// over the flat `k × dim` buffer `centroids`: writes each point's index
    /// into `assignments` and its squared distance into `dists`, and reports
    /// whether any assignment changed. Bit-identical to running
    /// [`nearest_centroid_scalar`] on each point; an empty centroid set
    /// yields `(0, f32::INFINITY)` like the twin.
    ///
    /// `start` must be a multiple of [`lanes`](PointBlocks::lanes), so that
    /// callers splitting the points across threads split on block
    /// boundaries.
    pub fn assign(
        &self,
        centroids: &[f32],
        start: usize,
        assignments: &mut [usize],
        dists: &mut [f32],
    ) -> bool {
        let count = assignments.len();
        assert!(
            start.is_multiple_of(self.lanes()),
            "range must start on a block boundary"
        );
        assert!(start + count <= self.n && dists.len() == count);
        let dim = self.dim.max(1);
        debug_assert!(centroids.len().is_multiple_of(dim));
        // The vector tiers carry centroid indices in i32 lanes.
        assert!(centroids.len() / dim <= i32::MAX as usize);
        match self.isa {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: the tier was confirmed by `Isa::available` at
            // construction, and the range lies inside the padded blocks.
            Isa::Avx512 => unsafe {
                simd::assign_avx512(
                    self.blocks.as_slice(),
                    dim,
                    centroids,
                    start,
                    assignments,
                    dists,
                )
            },
            #[cfg(target_arch = "x86_64")]
            // SAFETY: as above.
            Isa::Avx2Fma => unsafe {
                simd::assign_avx2(
                    self.blocks.as_slice(),
                    dim,
                    centroids,
                    start,
                    assignments,
                    dists,
                )
            },
            _ => {
                let rows = self.rows[start * dim..(start + count) * dim].chunks_exact(dim);
                let mut changed = false;
                for ((p, a), d) in rows.zip(assignments.iter_mut()).zip(dists.iter_mut()) {
                    let (best, best_d) = nearest_centroid_scalar(p, centroids, dim);
                    changed |= *a != best;
                    *a = best;
                    *d = best_d;
                }
                changed
            }
        }
    }

    /// Squared distance of every point to `centroid` (length `dim`) into
    /// `out` (length [`len`](PointBlocks::len)), bit-identical to
    /// [`squared_euclidean`] per point.
    pub fn distances_to(&self, centroid: &[f32], out: &mut [f32]) {
        assert_eq!(out.len(), self.n);
        assert_eq!(centroid.len(), self.dim);
        match self.isa {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: the tier was confirmed by `Isa::available` at
            // construction; `out` covers exactly the real points.
            Isa::Avx512 => unsafe {
                simd::distances_avx512(self.blocks.as_slice(), self.dim, centroid, out)
            },
            #[cfg(target_arch = "x86_64")]
            // SAFETY: as above.
            Isa::Avx2Fma => unsafe {
                simd::distances_avx2(self.blocks.as_slice(), self.dim, centroid, out)
            },
            _ => {
                for (o, p) in out.iter_mut().zip(self.rows.chunks_exact(self.dim.max(1))) {
                    *o = squared_euclidean(p, centroid);
                }
            }
        }
    }

    /// The accumulation half of the k-means update step: adds every point
    /// into `sums[assignments[i]]` (a flat `k × dim` buffer) in point order
    /// and counts each cluster's members. Each element's sum runs over the
    /// points in index order on every tier, so the result is bit-identical
    /// to a plain scalar loop; the vector tiers only widen the per-point
    /// row add.
    pub fn accumulate(&self, assignments: &[usize], sums: &mut [f32], counts: &mut [usize]) {
        assert_eq!(assignments.len(), self.n);
        match self.isa {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: the tier was confirmed by `Isa::available` at
            // construction.
            Isa::Avx512 => unsafe {
                simd::accumulate_avx512(self.rows, self.dim, assignments, sums, counts)
            },
            #[cfg(target_arch = "x86_64")]
            // SAFETY: as above.
            Isa::Avx2Fma => unsafe {
                simd::accumulate_avx2(self.rows, self.dim, assignments, sums, counts)
            },
            _ => accumulate_rows(self.rows, self.dim, assignments, sums, counts),
        }
    }
}

fn lanes_of(isa: Isa) -> usize {
    match isa {
        Isa::Avx512 => 16,
        Isa::Avx2Fma => 8,
        Isa::Scalar => 1,
    }
}

#[inline(always)]
fn accumulate_rows(
    rows: &[f32],
    dim: usize,
    assignments: &[usize],
    sums: &mut [f32],
    counts: &mut [usize],
) {
    for (p, &c) in rows.chunks_exact(dim.max(1)).zip(assignments) {
        counts[c] += 1;
        for (s, x) in sums[c * dim..(c + 1) * dim].iter_mut().zip(p) {
            *s += x;
        }
    }
}

/// The vector tiers. One generic body per kernel is instantiated for each
/// tier through the [`simd::Tier`] trait, whose always-inlined primitives
/// compile into the `#[target_feature]` entry points.
#[cfg(target_arch = "x86_64")]
mod simd {
    use std::arch::x86_64::*;

    /// Centroids evaluated together per block in the assignment pass (one
    /// independent accumulator each, so their addition chains overlap).
    const CENTROID_GROUP: usize = 4;
    /// Blocks evaluated together against one centroid in
    /// [`distances`] (one independent accumulator each).
    const BLOCK_GROUP: usize = 4;

    /// The primitive lane operations of one vector tier.
    ///
    /// # Safety
    /// Every method requires the CPU features of its tier. `load`, `store`
    /// and `store_i` also require `LANES` readable (writable) elements at
    /// the pointer.
    pub(super) trait Tier {
        const LANES: usize;
        type F: Copy;
        type I: Copy;
        unsafe fn zero() -> Self::F;
        unsafe fn splat(x: f32) -> Self::F;
        unsafe fn load(p: *const f32) -> Self::F;
        unsafe fn store(p: *mut f32, v: Self::F);
        /// `acc + (x − c) * (x − c)` as three separately rounded operations.
        unsafe fn sq_acc(acc: Self::F, x: Self::F, c: Self::F) -> Self::F;
        unsafe fn splat_i(x: i32) -> Self::I;
        unsafe fn store_i(p: *mut i32, v: Self::I);
        /// Lanes where `d < best_d` (ordered, so NaN never wins) take `d`
        /// and `idx`.
        unsafe fn take_lt(d: Self::F, idx: Self::I, best_d: &mut Self::F, best_i: &mut Self::I);
    }

    pub(super) struct Avx2;
    pub(super) struct Avx512;

    impl Tier for Avx2 {
        const LANES: usize = 8;
        type F = __m256;
        type I = __m256i;
        #[inline(always)]
        unsafe fn zero() -> __m256 {
            _mm256_setzero_ps()
        }
        #[inline(always)]
        unsafe fn splat(x: f32) -> __m256 {
            _mm256_set1_ps(x)
        }
        #[inline(always)]
        unsafe fn load(p: *const f32) -> __m256 {
            _mm256_loadu_ps(p)
        }
        #[inline(always)]
        unsafe fn store(p: *mut f32, v: __m256) {
            _mm256_storeu_ps(p, v)
        }
        #[inline(always)]
        unsafe fn sq_acc(acc: __m256, x: __m256, c: __m256) -> __m256 {
            let e = _mm256_sub_ps(x, c);
            _mm256_add_ps(acc, _mm256_mul_ps(e, e))
        }
        #[inline(always)]
        unsafe fn splat_i(x: i32) -> __m256i {
            _mm256_set1_epi32(x)
        }
        #[inline(always)]
        unsafe fn store_i(p: *mut i32, v: __m256i) {
            _mm256_storeu_si256(p as *mut __m256i, v)
        }
        #[inline(always)]
        unsafe fn take_lt(d: __m256, idx: __m256i, best_d: &mut __m256, best_i: &mut __m256i) {
            let m = _mm256_cmp_ps::<_CMP_LT_OQ>(d, *best_d);
            *best_d = _mm256_blendv_ps(*best_d, d, m);
            *best_i = _mm256_castps_si256(_mm256_blendv_ps(
                _mm256_castsi256_ps(*best_i),
                _mm256_castsi256_ps(idx),
                m,
            ));
        }
    }

    impl Tier for Avx512 {
        const LANES: usize = 16;
        type F = __m512;
        type I = __m512i;
        #[inline(always)]
        unsafe fn zero() -> __m512 {
            _mm512_setzero_ps()
        }
        #[inline(always)]
        unsafe fn splat(x: f32) -> __m512 {
            _mm512_set1_ps(x)
        }
        #[inline(always)]
        unsafe fn load(p: *const f32) -> __m512 {
            _mm512_loadu_ps(p)
        }
        #[inline(always)]
        unsafe fn store(p: *mut f32, v: __m512) {
            _mm512_storeu_ps(p, v)
        }
        #[inline(always)]
        unsafe fn sq_acc(acc: __m512, x: __m512, c: __m512) -> __m512 {
            let e = _mm512_sub_ps(x, c);
            _mm512_add_ps(acc, _mm512_mul_ps(e, e))
        }
        #[inline(always)]
        unsafe fn splat_i(x: i32) -> __m512i {
            _mm512_set1_epi32(x)
        }
        #[inline(always)]
        unsafe fn store_i(p: *mut i32, v: __m512i) {
            _mm512_storeu_si512(p as *mut _, v)
        }
        #[inline(always)]
        unsafe fn take_lt(d: __m512, idx: __m512i, best_d: &mut __m512, best_i: &mut __m512i) {
            let m = _mm512_cmp_ps_mask::<_CMP_LT_OQ>(d, *best_d);
            *best_d = _mm512_mask_blend_ps(m, *best_d, d);
            *best_i = _mm512_mask_blend_epi32(m, *best_i, idx);
        }
    }

    /// Accumulators of `B` consecutive blocks (`stride` floats apart)
    /// against `C` consecutive centroids of the flat buffer at `cents`:
    /// `acc[b][c]` holds the squared distances of block `b`'s lanes to
    /// centroid `c`, each summed in element order.
    ///
    /// # Safety
    /// Requires the tier's CPU features, `B` blocks of `dim × LANES`
    /// readable floats `stride` apart at `blocks`, and `C × dim` readable
    /// floats at `cents`.
    #[inline(always)]
    unsafe fn tile<T: Tier, const B: usize, const C: usize>(
        blocks: *const f32,
        stride: usize,
        cents: *const f32,
        dim: usize,
    ) -> [[T::F; C]; B] {
        let mut acc = [[T::zero(); C]; B];
        for d in 0..dim {
            let mut cs = [T::zero(); C];
            for (j, c) in cs.iter_mut().enumerate() {
                *c = T::splat(*cents.add(j * dim + d));
            }
            for (b, row) in acc.iter_mut().enumerate() {
                let x = T::load(blocks.add(b * stride + d * T::LANES));
                for (a, &c) in row.iter_mut().zip(&cs) {
                    *a = T::sq_acc(*a, x, c);
                }
            }
        }
        acc
    }

    /// Folds a group of `C` centroids starting at index `first` into the
    /// running per-lane argmin, in centroid order.
    ///
    /// # Safety
    /// Requires the tier's CPU features, one whole block at `block`, and
    /// `first + C` centroids in `centroids`.
    #[inline(always)]
    unsafe fn argmin_group<T: Tier, const C: usize>(
        block: *const f32,
        centroids: &[f32],
        first: usize,
        dim: usize,
        best_d: &mut T::F,
        best_i: &mut T::I,
    ) {
        let [acc] = tile::<T, 1, C>(block, 0, centroids.as_ptr().add(first * dim), dim);
        for (j, &d) in acc.iter().enumerate() {
            T::take_lt(d, T::splat_i((first + j) as i32), best_d, best_i);
        }
    }

    /// The assignment pass over the points `start..start + assignments.len()`.
    ///
    /// # Safety
    /// Requires the tier's CPU features; `start` is a multiple of `LANES`
    /// and `blocks` holds the padded blocks covering the range.
    #[inline(always)]
    unsafe fn assign<T: Tier>(
        blocks: &[f32],
        dim: usize,
        centroids: &[f32],
        start: usize,
        assignments: &mut [usize],
        dists: &mut [f32],
    ) -> bool {
        let k = centroids.len() / dim;
        let mut changed = false;
        let mut lane_d = [0.0f32; 16];
        let mut lane_i = [0i32; 16];
        for (b, (asg, ds)) in assignments
            .chunks_mut(T::LANES)
            .zip(dists.chunks_mut(T::LANES))
            .enumerate()
        {
            let block = blocks.as_ptr().add((start / T::LANES + b) * dim * T::LANES);
            let mut best_d = T::splat(f32::INFINITY);
            let mut best_i = T::splat_i(0);
            let mut c = 0usize;
            while c + CENTROID_GROUP <= k {
                argmin_group::<T, CENTROID_GROUP>(
                    block,
                    centroids,
                    c,
                    dim,
                    &mut best_d,
                    &mut best_i,
                );
                c += CENTROID_GROUP;
            }
            match k - c {
                3 => argmin_group::<T, 3>(block, centroids, c, dim, &mut best_d, &mut best_i),
                2 => argmin_group::<T, 2>(block, centroids, c, dim, &mut best_d, &mut best_i),
                1 => argmin_group::<T, 1>(block, centroids, c, dim, &mut best_d, &mut best_i),
                _ => {}
            }
            T::store(lane_d.as_mut_ptr(), best_d);
            T::store_i(lane_i.as_mut_ptr(), best_i);
            for (l, (a, d)) in asg.iter_mut().zip(ds.iter_mut()).enumerate() {
                let best = lane_i[l] as usize;
                changed |= *a != best;
                *a = best;
                *d = lane_d[l];
            }
        }
        changed
    }

    /// Squared distances of the first `out.len()` points to `centroid`.
    ///
    /// # Safety
    /// Requires the tier's CPU features; `blocks` holds the padded blocks
    /// of `out.len()` points and `centroid` has `dim` elements.
    #[inline(always)]
    unsafe fn distances<T: Tier>(blocks: &[f32], dim: usize, centroid: &[f32], out: &mut [f32]) {
        let stride = dim * T::LANES;
        let n = out.len();
        let nblocks = n.div_ceil(T::LANES);
        let full_groups = (n / T::LANES) / BLOCK_GROUP;
        for g in 0..full_groups {
            let first = g * BLOCK_GROUP;
            let acc = tile::<T, BLOCK_GROUP, 1>(
                blocks.as_ptr().add(first * stride),
                stride,
                centroid.as_ptr(),
                dim,
            );
            for (b, [a]) in acc.iter().enumerate() {
                T::store(out.as_mut_ptr().add((first + b) * T::LANES), *a);
            }
        }
        let mut lane_d = [0.0f32; 16];
        for b in full_groups * BLOCK_GROUP..nblocks {
            let [[a]] = tile::<T, 1, 1>(blocks.as_ptr().add(b * stride), 0, centroid.as_ptr(), dim);
            T::store(lane_d.as_mut_ptr(), a);
            let chunk = &mut out[b * T::LANES..n.min((b + 1) * T::LANES)];
            chunk.copy_from_slice(&lane_d[..chunk.len()]);
        }
    }

    /// # Safety
    /// Requires AVX2; `blocks` must hold the padded blocks covering
    /// `start..start + assignments.len()`.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn assign_avx2(
        blocks: &[f32],
        dim: usize,
        centroids: &[f32],
        start: usize,
        assignments: &mut [usize],
        dists: &mut [f32],
    ) -> bool {
        assign::<Avx2>(blocks, dim, centroids, start, assignments, dists)
    }

    /// # Safety
    /// Requires AVX-512F; as [`assign_avx2`] otherwise.
    #[target_feature(enable = "avx512f")]
    pub(super) unsafe fn assign_avx512(
        blocks: &[f32],
        dim: usize,
        centroids: &[f32],
        start: usize,
        assignments: &mut [usize],
        dists: &mut [f32],
    ) -> bool {
        assign::<Avx512>(blocks, dim, centroids, start, assignments, dists)
    }

    /// # Safety
    /// Requires AVX2; `blocks` must hold the padded blocks of `out.len()`
    /// points.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn distances_avx2(
        blocks: &[f32],
        dim: usize,
        centroid: &[f32],
        out: &mut [f32],
    ) {
        distances::<Avx2>(blocks, dim, centroid, out)
    }

    /// # Safety
    /// Requires AVX-512F; as [`distances_avx2`] otherwise.
    #[target_feature(enable = "avx512f")]
    pub(super) unsafe fn distances_avx512(
        blocks: &[f32],
        dim: usize,
        centroid: &[f32],
        out: &mut [f32],
    ) {
        distances::<Avx512>(blocks, dim, centroid, out)
    }

    /// # Safety
    /// Requires AVX2.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn accumulate_avx2(
        rows: &[f32],
        dim: usize,
        assignments: &[usize],
        sums: &mut [f32],
        counts: &mut [usize],
    ) {
        super::accumulate_rows(rows, dim, assignments, sums, counts)
    }

    /// # Safety
    /// Requires AVX-512F.
    #[target_feature(enable = "avx512f")]
    pub(super) unsafe fn accumulate_avx512(
        rows: &[f32],
        dim: usize,
        assignments: &[usize],
        sums: &mut [f32],
        counts: &mut [usize],
    ) {
        super::accumulate_rows(rows, dim, assignments, sums, counts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn rand_f32(state: &mut u64) -> f32 {
        // Uniform-ish in [-4, 4) with plenty of low-bit entropy.
        ((splitmix(state) >> 40) as f32 / (1u64 << 24) as f32) * 8.0 - 4.0
    }

    fn rand_vec(state: &mut u64, len: usize) -> Vec<f32> {
        (0..len).map(|_| rand_f32(state)).collect()
    }

    fn tiers() -> Vec<Isa> {
        [Isa::Avx512, Isa::Avx2Fma, Isa::Scalar]
            .into_iter()
            .filter(|isa| isa.available())
            .collect()
    }

    #[test]
    fn known_distances() {
        assert_eq!(squared_euclidean(&[0.0, 0.0], &[3.0, 4.0]), 25.0);
        assert_eq!(euclidean(&[0.0, 0.0], &[3.0, 4.0]), 5.0);
        assert_eq!(euclidean(&[1.0], &[1.0]), 0.0);
    }

    #[test]
    fn distance_is_symmetric() {
        let a = [1.5, -2.0, 0.25];
        let b = [0.0, 4.0, 1.0];
        assert_eq!(squared_euclidean(&a, &b), squared_euclidean(&b, &a));
    }

    #[test]
    fn scalar_scan_matches_naive_reference() {
        let mut state = 7u64;
        for dim in [1usize, 3, 7, 16, 33] {
            for k in [1usize, 2, 4, 5, 9] {
                let centroids = rand_vec(&mut state, k * dim);
                let point = rand_vec(&mut state, dim);
                let (best, best_d) = nearest_centroid_scalar(&point, &centroids, dim);
                let mut ref_best = 0usize;
                let mut ref_d = f32::INFINITY;
                for (c, cen) in centroids.chunks_exact(dim).enumerate() {
                    let d = squared_euclidean(&point, cen);
                    if d < ref_d {
                        ref_d = d;
                        ref_best = c;
                    }
                }
                assert_eq!(best, ref_best);
                assert_eq!(best_d.to_bits(), ref_d.to_bits());
            }
        }
    }

    #[test]
    fn deterministic_simd_tiers_are_bit_identical_to_scalar() {
        let mut state = 42u64;
        for dim in [1usize, 2, 8, 13, 16, 32, 64] {
            // Point counts straddling both lane widths and the block group;
            // k values straddling the centroid group.
            for n in [1usize, 7, 8, 9, 16, 17, 63, 64, 65, 100] {
                let points = rand_vec(&mut state, n * dim);
                for k in [1usize, 2, 3, 4, 5, 9, 10, 17] {
                    let centroids = rand_vec(&mut state, k * dim);
                    let mut ref_asg = vec![0usize; n];
                    let mut ref_d = vec![0.0f32; n];
                    for (i, p) in points.chunks_exact(dim).enumerate() {
                        (ref_asg[i], ref_d[i]) = nearest_centroid_scalar(p, &centroids, dim);
                    }
                    let ref_to_first: Vec<u32> = points
                        .chunks_exact(dim)
                        .map(|p| squared_euclidean(p, &centroids[..dim]).to_bits())
                        .collect();
                    for isa in tiers() {
                        let blocks = PointBlocks::with_isa(isa, &points, dim);
                        let mut asg = vec![usize::MAX; n];
                        let mut d = vec![f32::NAN; n];
                        assert!(blocks.assign(&centroids, 0, &mut asg, &mut d));
                        let ctx = format!("isa {isa:?} dim {dim} n {n} k {k}");
                        assert_eq!(asg, ref_asg, "{ctx}");
                        let bits: Vec<u32> = d.iter().map(|x| x.to_bits()).collect();
                        let ref_bits: Vec<u32> = ref_d.iter().map(|x| x.to_bits()).collect();
                        assert_eq!(bits, ref_bits, "{ctx}");
                        let mut to_first = vec![f32::NAN; n];
                        blocks.distances_to(&centroids[..dim], &mut to_first);
                        let bits: Vec<u32> = to_first.iter().map(|x| x.to_bits()).collect();
                        assert_eq!(bits, ref_to_first, "{ctx}");
                    }
                }
            }
        }
    }

    #[test]
    fn block_aligned_ranges_match_the_whole_pass() {
        let mut state = 5u64;
        let (n, dim, k) = (70usize, 5usize, 6usize);
        let points = rand_vec(&mut state, n * dim);
        let centroids = rand_vec(&mut state, k * dim);
        for isa in tiers() {
            let blocks = PointBlocks::with_isa(isa, &points, dim);
            let (mut whole, mut whole_d) = (vec![0usize; n], vec![0.0f32; n]);
            blocks.assign(&centroids, 0, &mut whole, &mut whole_d);
            let split = blocks.lanes() * 2;
            let (mut asg, mut d) = (vec![0usize; n], vec![0.0f32; n]);
            let (a0, a1) = asg.split_at_mut(split);
            let (d0, d1) = d.split_at_mut(split);
            blocks.assign(&centroids, 0, a0, d0);
            blocks.assign(&centroids, split, a1, d1);
            assert_eq!(asg, whole, "isa {isa:?}");
            assert_eq!(d, whole_d, "isa {isa:?}");
        }
    }

    #[test]
    fn accumulate_matches_a_plain_scalar_loop() {
        let mut state = 11u64;
        for dim in [1usize, 3, 16, 33] {
            let (n, k) = (50usize, 4usize);
            let points = rand_vec(&mut state, n * dim);
            let assignments: Vec<usize> = (0..n).map(|i| (i * 7) % k).collect();
            let mut ref_sums = vec![0.0f32; k * dim];
            let mut ref_counts = vec![0usize; k];
            for (p, &c) in points.chunks_exact(dim).zip(&assignments) {
                ref_counts[c] += 1;
                for (d, &x) in p.iter().enumerate() {
                    ref_sums[c * dim + d] += x;
                }
            }
            for isa in tiers() {
                let blocks = PointBlocks::with_isa(isa, &points, dim);
                let mut sums = vec![0.0f32; k * dim];
                let mut counts = vec![0usize; k];
                blocks.accumulate(&assignments, &mut sums, &mut counts);
                assert_eq!(counts, ref_counts, "isa {isa:?} dim {dim}");
                let bits: Vec<u32> = sums.iter().map(|x| x.to_bits()).collect();
                let ref_bits: Vec<u32> = ref_sums.iter().map(|x| x.to_bits()).collect();
                assert_eq!(bits, ref_bits, "isa {isa:?} dim {dim}");
            }
        }
    }

    #[test]
    fn ties_keep_the_earlier_centroid_on_every_tier() {
        // Twenty duplicate centroids (every position of the centroid group
        // and its remainder), and duplicate points in every lane.
        let dim = 4usize;
        let proto = [1.0f32, -2.0, 0.5, 3.0];
        let centroids: Vec<f32> = (0..20).flat_map(|_| proto).collect();
        let points: Vec<f32> = (0..40).flat_map(|_| [0.0f32; 4]).collect();
        for isa in tiers() {
            let blocks = PointBlocks::with_isa(isa, &points, dim);
            let (mut asg, mut d) = (vec![7usize; 40], vec![0.0f32; 40]);
            blocks.assign(&centroids, 0, &mut asg, &mut d);
            assert!(asg.iter().all(|&a| a == 0), "isa {isa:?}");
        }
    }

    #[test]
    fn empty_centroid_set_matches_scalar_twin() {
        let points = [0.0f32; 3 * 20];
        for isa in tiers() {
            let blocks = PointBlocks::with_isa(isa, &points, 3);
            let (mut asg, mut d) = (vec![5usize; 20], vec![0.0f32; 20]);
            assert!(blocks.assign(&[], 0, &mut asg, &mut d));
            assert!(asg.iter().all(|&a| a == 0), "isa {isa:?}");
            assert!(d.iter().all(|&x| x == f32::INFINITY), "isa {isa:?}");
        }
        assert_eq!(
            nearest_centroid_scalar(&[0.0; 3], &[], 3),
            (0, f32::INFINITY)
        );
    }
}
