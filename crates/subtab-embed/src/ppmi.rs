//! The count trainer: cell vectors from exact co-occurrence counts.
//!
//! SGNS with `k` negative samples implicitly factorises the shifted PMI
//! matrix `PMI(i, j) − ln k` of its `(center, context)` pairs (Levy &
//! Goldberg, "Neural Word Embedding as Implicit Matrix Factorization",
//! NeurIPS 2014). This trainer computes that matrix instead of sampling it:
//!
//! 1. one pass over the pair stream counts every unordered pair `{i, j}`
//!    into a sparse symmetric matrix `S = C + Cᵀ` (`C` the pair counts), in
//!    contiguous shards read in the trainer's usual chunks and merged as
//!    exact integers in shard order;
//! 2. each stored entry becomes the shifted positive PMI
//!    `max(0, ln(S_ij · D / (S_i · S_j)) − ln k)`, where `S_i` are the row
//!    sums and `D` their total. When the shift `ln k` would clip every
//!    entry of a token that has a positive PMI, the shift is dropped for
//!    the whole matrix (plain PPMI, `k = 1`): SGNS still places such a
//!    weakly associated token, where the clip would leave it a zero vector;
//! 3. the eigenvectors of its `dim` largest positive eigenvalues
//!    ([`crate::eigen`]) are the cell vectors, unscaled: eigenvalue
//!    weighting `p = 0` in the terms of Levy, Goldberg & Dagan, "Improving
//!    Distributional Similarity with Lessons Learned from Word Embeddings"
//!    (TACL 2015), who treat the weight as a tuned constant.
//!
//! The stream is read once, not once per epoch, and the counts are exact
//! whatever the shard count, so the vectors are the same bits at every
//! thread count. Memory is the distinct pairs plus the `V × (dim + 8)`
//! iteration block, never a `V × V` buffer.

use crate::eigen::{top_positive_eigenvectors, SparseSymmetric};
use crate::stream::{for_each_chunk, PairSource};
use std::ops::Range;
use subtab_kernels::map_indexed;

/// The count trainer's weights for a `vocab_size`-token vocabulary: an
/// `vocab_size × dim` row-major matrix. `pairs` is read once, split into at
/// most `threads` contiguous shards of chunks of at most `chunk` pairs; the
/// shift is `ln(negative_samples)` or none ([`shifted_ppmi`]), and `seed`
/// draws the eigensolver's start block. Every id in `pairs` must be below
/// `vocab_size`.
pub(crate) fn train_counts(
    vocab_size: usize,
    pairs: &dyn PairSource,
    chunk: usize,
    threads: usize,
    dim: usize,
    negative_samples: usize,
    seed: u64,
) -> Vec<f32> {
    let shards = shard_ranges(pairs.num_pairs(), threads);
    let counts = map_indexed(threads, shards.len(), |i| {
        count_shard(vocab_size, pairs, shards[i].clone(), chunk)
    });
    let entries = symmetric_entries(&counts);
    drop(counts);
    let m = shifted_ppmi(vocab_size, &entries, negative_samples);
    drop(entries);
    top_positive_eigenvectors(&m, dim, seed)
        .into_iter()
        .map(|x| x as f32)
        .collect()
}

/// Splits pair positions `0..num_pairs` into `threads` contiguous,
/// near-equal shards, or into more when a shard would exceed `u32::MAX`
/// pairs.
fn shard_ranges(num_pairs: usize, threads: usize) -> Vec<Range<usize>> {
    let len = num_pairs
        .div_ceil(threads.max(1))
        .clamp(1, u32::MAX as usize);
    (0..num_pairs)
        .step_by(len)
        .map(|start| start..(start + len).min(num_pairs))
        .collect()
}

/// The pair counts `C` of one shard, read `chunk` pairs at a time: one
/// small table per center token, from context id to count. A center's
/// pairs arrive together in the stream, so its table stays cache-resident
/// while they are counted.
fn count_shard(
    vocab_size: usize,
    pairs: &dyn PairSource,
    shard: Range<usize>,
    chunk: usize,
) -> Vec<RowCounts> {
    let mut rows: Vec<RowCounts> = (0..vocab_size).map(|_| RowCounts::default()).collect();
    for_each_chunk(pairs, shard, chunk, |pairs| {
        for &[center, context] in pairs {
            rows[center as usize].add(context);
        }
    });
    rows
}

/// Slot key of a [`RowCounts`] table that holds no context: no `u32`
/// token id below `u32::MAX` equals it.
const EMPTY: u32 = u32::MAX;

/// The contexts of one center: `(context, count)` slots, a power of two of
/// them (or none), linearly probed. A shard holds at most `u32::MAX` pairs
/// ([`shard_ranges`]), so no count overflows.
#[derive(Debug, Default)]
struct RowCounts {
    slots: Vec<(u32, u32)>,
    len: usize,
}

impl RowCounts {
    #[inline]
    fn add(&mut self, context: u32) {
        if 2 * (self.len + 1) > self.slots.len() {
            self.grow();
        }
        let mask = self.slots.len() - 1;
        let mut slot = home(context, self.slots.len());
        loop {
            let entry = &mut self.slots[slot];
            if entry.0 == context {
                entry.1 += 1;
                return;
            }
            if entry.0 == EMPTY {
                *entry = (context, 1);
                self.len += 1;
                return;
            }
            slot = (slot + 1) & mask;
        }
    }

    fn grow(&mut self) {
        let capacity = (2 * self.slots.len()).max(8);
        let old = std::mem::replace(&mut self.slots, vec![(EMPTY, 0); capacity]);
        let mask = capacity - 1;
        for (key, count) in old.into_iter().filter(|e| e.0 != EMPTY) {
            let mut slot = home(key, capacity);
            while self.slots[slot].0 != EMPTY {
                slot = (slot + 1) & mask;
            }
            self.slots[slot] = (key, count);
        }
    }
}

/// `S = C + Cᵀ` summed over every shard, as `(row << 32 | column, count)`
/// entries in ascending key order: each count enters at `(i, j)` and at
/// `(j, i)`, so the diagonal holds `2 C_ii`. The sums are exact integers,
/// so they do not depend on how the pairs were sharded.
fn symmetric_entries(shards: &[Vec<RowCounts>]) -> Vec<(u64, u64)> {
    let stored: usize = shards.iter().flatten().map(|row| row.len).sum();
    let mut both: Vec<(u64, u64)> = Vec::with_capacity(2 * stored);
    for shard in shards {
        for (i, row) in shard.iter().enumerate() {
            for &(j, count) in row.slots.iter().filter(|e| e.0 != EMPTY) {
                let (i, j, count) = (i as u64, u64::from(j), u64::from(count));
                both.push((i << 32 | j, count));
                both.push((j << 32 | i, count));
            }
        }
    }
    both.sort_unstable_by_key(|e| e.0);
    both.dedup_by(|next, kept| {
        let same = next.0 == kept.0;
        if same {
            kept.1 += next.1;
        }
        same
    });
    both
}

/// First slot to probe for `context` in a table of `capacity` slots, a
/// power of two of at least 2: Fibonacci hashing, the top bits of the id
/// times 2⁶⁴/φ.
#[inline(always)]
fn home(context: u32, capacity: usize) -> usize {
    let bits = capacity.trailing_zeros();
    (u64::from(context).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - bits)) as usize
}

/// The shifted positive PMI of `S` over `n` tokens, given as its entries
/// in ascending `(row << 32 | column)` key order, as a sparse symmetric
/// matrix; zero entries are not stored. The shift is `ln k`, `k =
/// negative_samples` (none below one sample), unless some token whose
/// largest PMI is positive has none above `ln k`; then it is zero, so no
/// token with a positive association loses its whole row.
fn shifted_ppmi(n: usize, entries: &[(u64, u64)], negative_samples: usize) -> SparseSymmetric {
    let mut row_sums = vec![0u64; n];
    for &(key, count) in entries {
        row_sums[(key >> 32) as usize] += count;
    }
    let ln_total = (row_sums.iter().sum::<u64>() as f64).ln();
    let ln_sums: Vec<f64> = row_sums.iter().map(|&s| (s as f64).ln()).collect();
    let pmi = |key: u64, count: u64| {
        let (i, j) = ((key >> 32) as usize, key as u32);
        let v = (count as f64).ln() + ln_total - ln_sums[i] - ln_sums[j as usize];
        (i, j, v)
    };
    // Each row's largest PMI, or zero when none is positive.
    let mut row_max = vec![0.0f64; n];
    for &(key, count) in entries {
        let (i, _, v) = pmi(key, count);
        row_max[i] = row_max[i].max(v);
    }
    let ln_k = (negative_samples.max(1) as f64).ln();
    let shift = if row_max.iter().all(|&m| m == 0.0 || m > ln_k) {
        ln_k
    } else {
        0.0
    };
    let mut offsets = vec![0usize; n + 1];
    let mut cols = Vec::new();
    let mut vals = Vec::new();
    for &(key, count) in entries {
        let (i, j, v) = pmi(key, count);
        if v > shift {
            offsets[i + 1] += 1;
            cols.push(j);
            vals.push(v - shift);
        }
    }
    for r in 0..n {
        offsets[r + 1] += offsets[r];
    }
    SparseSymmetric {
        offsets,
        cols,
        vals,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `S = C + Cᵀ`, whatever the sharding: counts of an asymmetric pair
    /// list, in one shard and in three.
    #[test]
    fn counts_symmetrise_and_merge_exactly() {
        let pairs: &[[u32; 2]] = &[[0, 1], [0, 1], [1, 0], [2, 2], [1, 2], [0, 1]];
        let want = vec![
            (1, 4), // (0, 1): three (0, 1) and one (1, 0)
            (1 << 32, 4),
            (1 << 32 | 2, 1),
            (2 << 32 | 1, 1),
            (2 << 32 | 2, 2),
        ];
        for threads in [1, 3] {
            for chunk in [1, 4] {
                let shards = shard_ranges(pairs.len(), threads);
                let counts: Vec<Vec<RowCounts>> = shards
                    .into_iter()
                    .map(|s| count_shard(3, &pairs, s, chunk))
                    .collect();
                assert_eq!(symmetric_entries(&counts), want, "{threads} shards");
            }
        }
    }

    /// Every stored entry is `ln(S_ij · D / (S_i · S_j)) − shift`, positive.
    #[test]
    fn shifted_ppmi_follows_the_closed_form() {
        // S over three tokens: (0,1) 4, (1,2) 1, (2,2) 2, both triangles.
        let entries = [
            (1u64, 4u64),
            (1 << 32, 4),
            (1 << 32 | 2, 1),
            (2 << 32 | 1, 1),
            (2 << 32 | 2, 2),
        ];
        let (sums, d) = ([4.0f64, 5.0, 3.0], 12.0f64);
        let pmi = |i: usize, j: usize, s: f64| (s * d / (sums[i] * sums[j])).ln();
        let m = shifted_ppmi(3, &entries, 1);
        let mut stored = Vec::new();
        for r in 0..3 {
            for k in m.offsets[r]..m.offsets[r + 1] {
                stored.push((r, m.cols[k] as usize, m.vals[k]));
            }
        }
        // PMI(1, 2) = ln(12 / 15) < 0 is dropped.
        let want = [
            (0, 1, pmi(0, 1, 4.0)),
            (1, 0, pmi(1, 0, 4.0)),
            (2, 2, pmi(2, 2, 2.0)),
        ];
        assert_eq!(stored.len(), want.len());
        for (got, want) in stored.iter().zip(&want) {
            assert_eq!((got.0, got.1), (want.0, want.1));
            assert!((got.2 - want.2).abs() < 1e-12);
        }
        // Two samples shift by ln 2 ≈ 0.69, below every row's largest PMI:
        // PMI(0, 1) = ln 2.4 ≈ 0.88 and PMI(2, 2) = ln(8/3) ≈ 0.98.
        let shifted = shifted_ppmi(3, &entries, 2);
        assert_eq!(shifted.cols, vec![1, 0, 2]);
        assert!((shifted.vals[0] - (pmi(0, 1, 4.0) - 2f64.ln())).abs() < 1e-12);
        assert!((shifted.vals[2] - (pmi(2, 2, 2.0) - 2f64.ln())).abs() < 1e-12);
        // Three samples, ln 3 ≈ 1.10, would clip every row: no shift.
        assert_eq!(shifted_ppmi(3, &entries, 3), m);
        assert_eq!(shifted_ppmi(3, &entries, 0), m);
    }

    /// One weakly associated token is enough to drop the shift: with
    /// (2, 2) counted 6, PMI(2, 2) = ln(96 / 49) ≈ 0.67 is below ln 2 while
    /// PMI(0, 1) = ln 3.2 stays above it, and row 2 keeps its entry.
    #[test]
    fn the_shift_never_empties_a_positively_associated_row() {
        let entries = [
            (1u64, 4u64),
            (1 << 32, 4),
            (1 << 32 | 2, 1),
            (2 << 32 | 1, 1),
            (2 << 32 | 2, 6),
        ];
        let m = shifted_ppmi(3, &entries, 2);
        assert_eq!(m.offsets, vec![0, 1, 2, 3]);
        assert_eq!(m.cols, vec![1, 0, 2]);
        assert!((m.vals[2] - (96f64 / 49.0).ln()).abs() < 1e-12);
        assert!((m.vals[0] - 3.2f64.ln()).abs() < 1e-12);
        // A token whose every PMI is zero has no entry to keep, so it does
        // not hold the shift back: token 0 pairs with every token in
        // proportion to its sum (S_0j = 4, S_j = 16, D = 64, PMI 0), tokens
        // 1 to 3 each with itself (S_jj = 12, PMI ln 3, above ln 2).
        let mut entries = vec![(0u64, 4u64)];
        for j in 1..4u64 {
            entries.extend([(j, 4), (j << 32, 4), (j << 32 | j, 12)]);
        }
        entries.sort_unstable();
        let m = shifted_ppmi(4, &entries, 2);
        assert_eq!(m.offsets, vec![0, 0, 1, 2, 3]);
        assert_eq!(m.cols, vec![1, 2, 3]);
        assert!(m.vals.iter().all(|v| (v - 1.5f64.ln()).abs() < 1e-12));
    }
}
