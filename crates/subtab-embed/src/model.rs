//! The trained cell-embedding model `M : (column, bin) → R^γ`.
//!
//! Storage is one flat row-major `tokens × dim` matrix plus a string index
//! kept only for the *cold* API (`vector`, `cosine`, `cell_vector`). The hot
//! query-time path never touches a string: a [`TokenPlane`] maps every cell
//! of a binned table to its embedding-row id once, after which
//! [`CellEmbedding::row_vector`] / [`CellEmbedding::column_vector`] are pure
//! integer-indexed gathers over the flat matrix.
//!
//! The matrix is always f32. Its rows are (column, bin) tokens, so it stays
//! small: 36 KiB for a 48-column table at the default 32 dimensions, which
//! is why the model keeps no compact (f16 or i8) encoding.

use std::collections::HashMap;
use std::sync::Arc;
use subtab_binning::BinnedTable;

/// Sentinel id for a cell whose (column, bin) token was never embedded
/// (possible only for bins absent from the training corpus).
pub const NO_TOKEN: u32 = u32::MAX;

/// Below this many cell gathers a scoped-thread fan-out costs more in thread
/// setup than it saves; the sequential path is used regardless of `threads`.
const PARALLEL_MIN_CELLS: usize = 4096;

/// A trained embedding: a dense vector for every (column, bin) token that
/// occurred in the training corpus.
#[derive(Debug, Clone)]
pub struct CellEmbedding {
    dim: usize,
    tokens: Vec<Arc<str>>,
    /// Row-major `tokens.len() × dim` vector matrix.
    matrix: Vec<f32>,
    /// Cold string → row-id lookup. The keys share the `Arc<str>` backing of
    /// `tokens`, so each token's character data is stored exactly once.
    index: HashMap<Arc<str>, usize>,
}

impl CellEmbedding {
    /// Assembles a model from parallel token / vector lists.
    pub fn new(dim: usize, tokens: Vec<String>, vectors: Vec<Vec<f32>>) -> Self {
        assert_eq!(tokens.len(), vectors.len());
        let mut flat = Vec::with_capacity(tokens.len() * dim);
        for v in &vectors {
            assert_eq!(v.len(), dim, "vector dimensionality mismatch");
            flat.extend_from_slice(v);
        }
        Self::from_flat(dim, tokens, flat)
    }

    /// Assembles a model from a flat row-major `tokens.len() × dim` matrix,
    /// as produced by the sharded trainer. This is the cheap constructor: the
    /// matrix is stored as-is.
    pub fn from_flat(dim: usize, tokens: Vec<String>, flat: Vec<f32>) -> Self {
        assert_eq!(tokens.len() * dim, flat.len());
        let tokens: Vec<Arc<str>> = tokens.into_iter().map(Arc::from).collect();
        let index = tokens
            .iter()
            .enumerate()
            .map(|(i, t)| (Arc::clone(t), i))
            .collect();
        CellEmbedding {
            dim,
            tokens,
            matrix: flat,
            index,
        }
    }

    /// Vector dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of embedded tokens.
    pub fn len(&self) -> usize {
        self.tokens.len()
    }

    /// Whether the model is empty.
    pub fn is_empty(&self) -> bool {
        self.tokens.is_empty()
    }

    /// All embedded tokens, in embedding-row order.
    pub fn tokens(&self) -> &[Arc<str>] {
        &self.tokens
    }

    /// The flat row-major `len() × dim` vector matrix.
    pub fn matrix(&self) -> &[f32] {
        &self.matrix
    }

    /// The embedding-row id of a token, if the token was seen during
    /// training (cold path: string hash + lookup).
    pub fn token_id(&self, token: &str) -> Option<u32> {
        self.index.get(token).map(|&i| i as u32)
    }

    /// The vector stored at embedding row `id`, or `None` if `id` is not a
    /// row (out of range or [`NO_TOKEN`]).
    pub fn vector_by_id(&self, id: u32) -> Option<&[f32]> {
        let start = (id as usize).checked_mul(self.dim)?;
        self.matrix.get(start..start + self.dim)
    }

    /// The vector of a token, if the token was seen during training (cold
    /// string API).
    pub fn vector(&self, token: &str) -> Option<&[f32]> {
        self.token_id(token).and_then(|id| self.vector_by_id(id))
    }

    /// The vector of the cell at (`row`, `col`) of a binned table (cold
    /// string API — formats and hashes a token per call; the hot path goes
    /// through [`TokenPlane`] ids instead).
    pub fn cell_vector(&self, binned: &BinnedTable, row: usize, col: usize) -> Option<&[f32]> {
        self.vector(&binned.cell_token(row, col))
    }

    /// Cosine similarity between two tokens' vectors.
    pub fn cosine(&self, a: &str, b: &str) -> Option<f32> {
        let va = self.vector(a)?;
        let vb = self.vector(b)?;
        Some(cosine(va, vb))
    }

    /// Precomputes the token-id plane of a binned table: the dense
    /// `num_rows × num_cols` matrix of embedding-row ids every query-time
    /// gather indexes into. Built once per table at preprocess time.
    pub fn token_plane(&self, binned: &BinnedTable) -> TokenPlane {
        TokenPlane::new(self, binned)
    }

    /// The tuple-vector of a row: the component-wise average of the row's
    /// cell vectors over the given columns (lines 8–10 of Algorithm 2), as
    /// an integer-indexed gather over the flat matrix. Sentinel (unembedded)
    /// cells are skipped; if no cell has a vector, a zero vector is
    /// returned.
    pub fn row_vector(&self, plane: &TokenPlane, row: usize, cols: &[usize]) -> Vec<f32> {
        let mut out = vec![0.0f32; self.dim];
        self.row_vector_into(plane, row, cols, &mut out);
        out
    }

    /// [`CellEmbedding::row_vector`] writing into a caller-provided slice
    /// (no allocation on the hot path).
    pub fn row_vector_into(&self, plane: &TokenPlane, row: usize, cols: &[usize], out: &mut [f32]) {
        debug_assert_eq!(out.len(), self.dim);
        out.fill(0.0);
        let ids = plane.row_ids(row);
        let n = self.accumulate(out, cols.iter().map(|&c| ids[c]));
        if n > 0 {
            let inv = 1.0 / n as f32;
            out.iter_mut().for_each(|a| *a *= inv);
        }
    }

    /// Adds the matrix row of every non-sentinel id into `acc` and returns
    /// how many rows contributed.
    fn accumulate(&self, acc: &mut [f32], ids: impl Iterator<Item = u32>) -> usize {
        let dim = self.dim;
        let mut n = 0usize;
        for id in ids.filter(|&id| id != NO_TOKEN) {
            let start = id as usize * dim;
            for (a, x) in acc.iter_mut().zip(&self.matrix[start..start + dim]) {
                *a += x;
            }
            n += 1;
        }
        n
    }

    /// The column-vector of a column: the average of its cell vectors over
    /// the given rows (lines 13–15 of Algorithm 2), as an integer-indexed
    /// gather over the flat matrix.
    pub fn column_vector(&self, plane: &TokenPlane, col: usize, rows: &[usize]) -> Vec<f32> {
        let mut out = vec![0.0f32; self.dim];
        self.column_vector_into(plane, col, rows, &mut out);
        out
    }

    /// [`CellEmbedding::column_vector`] writing into a caller-provided slice.
    pub fn column_vector_into(
        &self,
        plane: &TokenPlane,
        col: usize,
        rows: &[usize],
        out: &mut [f32],
    ) {
        debug_assert_eq!(out.len(), self.dim);
        out.fill(0.0);
        let n = self.accumulate(out, rows.iter().map(|&r| plane.id(r, col)));
        if n > 0 {
            let inv = 1.0 / n as f32;
            out.iter_mut().for_each(|a| *a *= inv);
        }
    }

    /// Row vectors of `rows` over `cols` as one flat row-major
    /// `rows.len() × dim` matrix, with the per-row gathers fanned out across
    /// `threads` scoped workers (`0` = all available cores). Each row's
    /// gather is independent, so the output is bit-identical at every thread
    /// count.
    pub fn row_vectors(
        &self,
        plane: &TokenPlane,
        rows: &[usize],
        cols: &[usize],
        threads: usize,
    ) -> Vec<f32> {
        self.gather_many(rows, cols.len(), threads, |row, out| {
            self.row_vector_into(plane, row, cols, out);
        })
    }

    /// Column vectors of `cols` over the candidate `rows` as one flat
    /// row-major `cols.len() × dim` matrix, with the per-column gathers
    /// fanned out across `threads` scoped workers (`0` = all available
    /// cores; bit-identical at every thread count).
    pub fn column_vectors(
        &self,
        plane: &TokenPlane,
        cols: &[usize],
        rows: &[usize],
        threads: usize,
    ) -> Vec<f32> {
        self.gather_many(cols, rows.len(), threads, |col, out| {
            self.column_vector_into(plane, col, rows, out);
        })
    }

    /// Shared fan-out: one `dim`-sized output chunk per item, items split
    /// into contiguous chunks over scoped workers. `cells_per_item` sizes the
    /// parallelism guard (total gathered cells must amortise thread setup).
    fn gather_many<F>(
        &self,
        items: &[usize],
        cells_per_item: usize,
        threads: usize,
        gather: F,
    ) -> Vec<f32>
    where
        F: Fn(usize, &mut [f32]) + Sync,
    {
        if self.dim == 0 {
            return Vec::new();
        }
        let dim = self.dim;
        let mut out = vec![0.0f32; items.len() * dim];
        let threads = subtab_kernels::resolve_threads(threads, items.len());
        if threads <= 1 || items.len() * cells_per_item < PARALLEL_MIN_CELLS {
            for (&item, chunk) in items.iter().zip(out.chunks_exact_mut(dim)) {
                gather(item, chunk);
            }
            return out;
        }
        let chunk_items = items.len().div_ceil(threads);
        std::thread::scope(|scope| {
            for (item_chunk, out_chunk) in items
                .chunks(chunk_items)
                .zip(out.chunks_mut(chunk_items * dim))
            {
                let gather = &gather;
                scope.spawn(move || {
                    for (&item, o) in item_chunk.iter().zip(out_chunk.chunks_exact_mut(dim)) {
                        gather(item, o);
                    }
                });
            }
        });
        out
    }
}

/// The token-id plane of one binned table: a dense row-major
/// `num_rows × num_cols` matrix of embedding-row ids ([`NO_TOKEN`] for cells
/// whose bin never made it into the training corpus).
///
/// Built once at preprocess time — the per-(column, bin) token strings are
/// formatted and hashed exactly once here, after which every selection over
/// the table (whole-table or query-time) is string-free.
#[derive(Debug, Clone)]
pub struct TokenPlane {
    ids: Vec<u32>,
    num_rows: usize,
    num_cols: usize,
}

impl TokenPlane {
    /// Builds the plane for `binned` against `embedding`.
    pub fn new(embedding: &CellEmbedding, binned: &BinnedTable) -> Self {
        let num_rows = binned.num_rows();
        let num_cols = binned.num_columns();
        let mut ids = vec![NO_TOKEN; num_rows * num_cols];
        for col in 0..num_cols {
            // One string lookup per (column, bin) — the only place tokens
            // are ever formatted after training.
            let bin_to_id: Vec<u32> = (0..binned.num_bins(col))
                .map(|b| {
                    embedding
                        .token_id(&binned.token(col, b as subtab_binning::BinId))
                        .unwrap_or(NO_TOKEN)
                })
                .collect();
            for (row, &code) in binned.codes(col).iter().enumerate() {
                ids[row * num_cols + col] = bin_to_id[code as usize];
            }
        }
        TokenPlane {
            ids,
            num_rows,
            num_cols,
        }
    }

    /// Number of rows.
    pub fn num_rows(&self) -> usize {
        self.num_rows
    }

    /// Number of columns.
    pub fn num_cols(&self) -> usize {
        self.num_cols
    }

    /// Embedding-row id of the cell at (`row`, `col`), or [`NO_TOKEN`].
    #[inline]
    pub fn id(&self, row: usize, col: usize) -> u32 {
        self.ids[row * self.num_cols + col]
    }

    /// The ids of one row, indexed by column.
    #[inline]
    pub fn row_ids(&self, row: usize) -> &[u32] {
        &self.ids[row * self.num_cols..(row + 1) * self.num_cols]
    }
}

/// Cosine similarity of two equal-length vectors (0 when either is zero).
pub fn cosine(a: &[f32], b: &[f32]) -> f32 {
    let dot: f32 = a.iter().zip(b).map(|(x, y)| x * y).sum();
    let na: f32 = a.iter().map(|x| x * x).sum::<f32>().sqrt();
    let nb: f32 = b.iter().map(|x| x * x).sum::<f32>().sqrt();
    if na == 0.0 || nb == 0.0 {
        0.0
    } else {
        dot / (na * nb)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use subtab_binning::{Binner, BinningConfig};
    use subtab_data::Table;

    fn toy_model() -> (CellEmbedding, BinnedTable) {
        let t = Table::builder()
            .column_i64("a", vec![Some(0), Some(1)])
            .column_str("b", vec![Some("x"), Some("y")])
            .build()
            .unwrap();
        let binner = Binner::fit(&t, &BinningConfig::default()).unwrap();
        let bt = binner.apply(&t).unwrap();
        // Hand-crafted vectors so the averages are easy to verify.
        let tokens = vec![
            bt.cell_token(0, 0),
            bt.cell_token(1, 0),
            bt.cell_token(0, 1),
            bt.cell_token(1, 1),
        ];
        let vectors = vec![
            vec![1.0, 0.0],
            vec![0.0, 1.0],
            vec![1.0, 0.0],
            vec![-1.0, 0.0],
        ];
        (CellEmbedding::new(2, tokens, vectors), bt)
    }

    /// A model that deliberately leaves the cell at (1, 1) unembedded, so
    /// its plane id must be the sentinel.
    fn holey_model() -> (CellEmbedding, BinnedTable) {
        let t = Table::builder()
            .column_i64("a", vec![Some(0), Some(1)])
            .column_str("b", vec![Some("x"), Some("y")])
            .build()
            .unwrap();
        let binner = Binner::fit(&t, &BinningConfig::default()).unwrap();
        let bt = binner.apply(&t).unwrap();
        let tokens = vec![
            bt.cell_token(0, 0),
            bt.cell_token(1, 0),
            bt.cell_token(0, 1),
        ];
        let vectors = vec![vec![1.0, 0.0], vec![0.0, 1.0], vec![3.0, 1.0]];
        (CellEmbedding::new(2, tokens, vectors), bt)
    }

    #[test]
    fn lookup_and_dims() {
        let (m, bt) = toy_model();
        assert_eq!(m.dim(), 2);
        assert_eq!(m.len(), 4);
        assert!(!m.is_empty());
        assert!(m.vector(&bt.cell_token(0, 0)).is_some());
        assert!(m.vector("nonexistent").is_none());
        assert!(m.cell_vector(&bt, 1, 1).is_some());
        assert_eq!(m.matrix().len(), 4 * 2);
    }

    #[test]
    fn token_ids_round_trip_through_the_flat_matrix() {
        let (m, bt) = toy_model();
        for (i, token) in m.tokens().iter().enumerate() {
            let id = m.token_id(token).unwrap();
            assert_eq!(id as usize, i);
            assert_eq!(m.vector_by_id(id), m.vector(token));
        }
        assert!(m.token_id("nonexistent").is_none());
        let flat = m.matrix();
        assert_eq!(m.vector_by_id(1), Some(&flat[m.dim()..2 * m.dim()]));
        assert_eq!(m.vector_by_id(m.len() as u32), None);
        assert_eq!(m.vector_by_id(NO_TOKEN), None);
        let _ = bt;
    }

    #[test]
    fn plane_maps_every_cell_to_its_token_row() {
        let (m, bt) = toy_model();
        let plane = m.token_plane(&bt);
        assert_eq!(plane.num_rows(), 2);
        assert_eq!(plane.num_cols(), 2);
        for row in 0..2 {
            for col in 0..2 {
                let id = plane.id(row, col);
                assert_ne!(id, NO_TOKEN);
                assert_eq!(
                    m.vector_by_id(id),
                    m.cell_vector(&bt, row, col),
                    "cell ({row}, {col})"
                );
            }
            assert_eq!(plane.row_ids(row).len(), 2);
        }
    }

    #[test]
    fn unembedded_cells_get_the_sentinel() {
        let (m, bt) = holey_model();
        let plane = m.token_plane(&bt);
        assert_eq!(plane.id(1, 1), NO_TOKEN);
        assert_ne!(plane.id(0, 1), NO_TOKEN);
        // The gather skips the sentinel cell exactly like the string path
        // skips the missing token.
        assert!(m.cell_vector(&bt, 1, 1).is_none());
        let rv = m.row_vector(&plane, 1, &[0, 1]);
        assert_eq!(rv, vec![0.0, 1.0], "only the embedded cell contributes");
        let cv = m.column_vector(&plane, 1, &[0, 1]);
        assert_eq!(cv, vec![3.0, 1.0]);
    }

    #[test]
    fn row_vector_is_mean_of_cell_vectors() {
        let (m, bt) = toy_model();
        let plane = m.token_plane(&bt);
        let rv = m.row_vector(&plane, 0, &[0, 1]);
        assert_eq!(rv, vec![1.0, 0.0]);
        let rv1 = m.row_vector(&plane, 1, &[0, 1]);
        assert_eq!(rv1, vec![-0.5, 0.5]);
    }

    #[test]
    fn column_vector_is_mean_over_rows() {
        let (m, bt) = toy_model();
        let plane = m.token_plane(&bt);
        let cv = m.column_vector(&plane, 1, &[0, 1]);
        assert_eq!(cv, vec![0.0, 0.0]);
        let cv_a = m.column_vector(&plane, 0, &[0, 1]);
        assert_eq!(cv_a, vec![0.5, 0.5]);
    }

    #[test]
    fn missing_vectors_are_skipped_and_zero_when_all_missing() {
        let (m, bt) = toy_model();
        let plane = m.token_plane(&bt);
        let rv = m.row_vector(&plane, 0, &[]);
        assert_eq!(rv, vec![0.0, 0.0]);
        let cv = m.column_vector(&plane, 0, &[]);
        assert_eq!(cv, vec![0.0, 0.0]);
    }

    #[test]
    fn batched_gathers_are_bit_identical_at_every_thread_count() {
        let (m, bt) = holey_model();
        let plane = m.token_plane(&bt);
        let rows = [0, 1, 0];
        let cols = [1, 0];
        let sequential = m.row_vectors(&plane, &rows, &cols, 1);
        assert_eq!(sequential.len(), rows.len() * m.dim());
        for (i, &r) in rows.iter().enumerate() {
            assert_eq!(
                &sequential[i * m.dim()..(i + 1) * m.dim()],
                m.row_vector(&plane, r, &cols).as_slice()
            );
        }
        let col_seq = m.column_vectors(&plane, &cols, &rows, 1);
        for (i, &c) in cols.iter().enumerate() {
            assert_eq!(
                &col_seq[i * m.dim()..(i + 1) * m.dim()],
                m.column_vector(&plane, c, &rows).as_slice()
            );
        }
        for threads in [0, 2, 4] {
            assert_eq!(sequential, m.row_vectors(&plane, &rows, &cols, threads));
            assert_eq!(col_seq, m.column_vectors(&plane, &cols, &rows, threads));
        }
    }

    #[test]
    fn cosine_properties() {
        assert!((cosine(&[1.0, 0.0], &[1.0, 0.0]) - 1.0).abs() < 1e-6);
        assert!((cosine(&[1.0, 0.0], &[0.0, 1.0])).abs() < 1e-6);
        assert!((cosine(&[1.0, 0.0], &[-1.0, 0.0]) + 1.0).abs() < 1e-6);
        assert_eq!(cosine(&[0.0, 0.0], &[1.0, 1.0]), 0.0);
        let (m, bt) = toy_model();
        let c = m
            .cosine(&bt.cell_token(0, 0), &bt.cell_token(0, 1))
            .unwrap();
        assert!((c - 1.0).abs() < 1e-6);
        assert!(m.cosine("missing", "also missing").is_none());
    }
}
