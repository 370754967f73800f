//! The pre-processing phase: normalise, bin, embed (Algorithm 2, lines 1–4).

use crate::config::SubTabConfig;
use crate::Result;
use std::sync::{Arc, PoisonError, RwLock};
use subtab_binning::{BinnedTable, Binner};
use subtab_cluster::Matrix;
use subtab_data::Table;
use subtab_embed::{train_embedding, CellEmbedding, TokenPlane};

/// The output of SubTab's pre-processing phase for one table.
///
/// Pre-processing is executed once, when the table is loaded; every
/// subsequent sub-table selection (for the table itself or for query results
/// over it) reuses the fitted [`Binner`], the binned table, the trained
/// [`CellEmbedding`] and the precomputed [`TokenPlane`] of per-cell
/// embedding-row ids, which is what makes query-time selection interactive
/// (Figure 9 of the paper): after this constructor returns, no selection
/// ever formats or hashes a token string again.
#[derive(Debug)]
pub struct PreprocessedTable {
    table: Table,
    binner: Binner,
    binned: BinnedTable,
    embedding: CellEmbedding,
    /// Dense `num_rows × num_cols` matrix of embedding-row ids (sentinel for
    /// unembedded bins) — the integer plane every query-time gather indexes.
    plane: TokenPlane,
    /// Worker threads used by the cached full-table row-vector computation
    /// (from [`SubTabConfig::threads`] at preprocess time).
    threads: usize,
    /// Lazily computed row vectors of the *full* table over all columns,
    /// shared by selections that operate on the whole table. One flat
    /// row-major matrix behind an `Arc`, so handing the cache to a selection
    /// is a pointer bump, not an O(rows × dim) deep clone.
    full_row_vectors: RwLock<Option<Arc<Matrix>>>,
}

impl PreprocessedTable {
    /// Runs the pre-processing phase on `table`.
    pub fn new(table: Table, config: &SubTabConfig) -> Result<Self> {
        let binner = Binner::fit(&table, &config.binning)?;
        let binned = binner.apply(&table)?;
        let embedding = train_embedding(&binned, &config.embedding);
        let plane = embedding.token_plane(&binned);
        Ok(PreprocessedTable {
            table,
            binner,
            binned,
            embedding,
            plane,
            threads: config.threads,
            full_row_vectors: RwLock::new(None),
        })
    }

    /// The original table.
    pub fn table(&self) -> &Table {
        &self.table
    }

    /// The fitted binning function.
    pub fn binner(&self) -> &Binner {
        &self.binner
    }

    /// The binned view of the full table.
    pub fn binned(&self) -> &BinnedTable {
        &self.binned
    }

    /// The trained cell embedding.
    pub fn embedding(&self) -> &CellEmbedding {
        &self.embedding
    }

    /// The precomputed token-id plane of the full table.
    pub fn plane(&self) -> &TokenPlane {
        &self.plane
    }

    /// Row vectors of the full table over all columns as one flat row-major
    /// `num_rows × dim` matrix, computed on first use and cached. Returns a
    /// shared handle — cloning it is O(1), so every whole-table selection
    /// reuses the same backing storage instead of deep-cloning
    /// O(rows × dim) floats out of the lock.
    ///
    /// A panic during the gather poisons the lock, but the slot is written
    /// only after the gather completes, so it is still empty or complete:
    /// later calls recover the guard and proceed.
    pub fn full_row_vectors(&self) -> Arc<Matrix> {
        if let Some(v) = self
            .full_row_vectors
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .as_ref()
        {
            return Arc::clone(v);
        }
        // Double-checked locking: take the write lock *before* computing and
        // re-check, so two threads racing past the read miss cannot both pay
        // for the O(rows × cols × dim) gather — the loser blocks here and
        // finds the winner's matrix.
        let mut slot = self
            .full_row_vectors
            .write()
            .unwrap_or_else(PoisonError::into_inner);
        if let Some(v) = slot.as_ref() {
            return Arc::clone(v);
        }
        let cols: Vec<usize> = (0..self.binned.num_columns()).collect();
        let rows: Vec<usize> = (0..self.binned.num_rows()).collect();
        let flat = self
            .embedding
            .row_vectors(&self.plane, &rows, &cols, self.threads);
        let vectors = Arc::new(Matrix::new(flat, self.embedding.dim()));
        *slot = Some(Arc::clone(&vectors));
        vectors
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SubTabConfig;

    fn table(rows: usize) -> Table {
        Table::builder()
            .column_f64(
                "distance",
                (0..rows)
                    .map(|i| Some(if i % 2 == 0 { 100.0 } else { 2500.0 } + i as f64))
                    .collect(),
            )
            .column_str(
                "airline",
                (0..rows)
                    .map(|i| Some(if i % 2 == 0 { "WN" } else { "DL" }))
                    .collect(),
            )
            .column_i64(
                "cancelled",
                (0..rows).map(|i| Some(i64::from(i % 5 == 0))).collect(),
            )
            .build()
            .unwrap()
    }

    #[test]
    fn preprocess_builds_all_artifacts() {
        let pre = PreprocessedTable::new(table(60), &SubTabConfig::fast()).unwrap();
        assert_eq!(pre.table().num_rows(), 60);
        assert_eq!(pre.binned().num_rows(), 60);
        assert_eq!(pre.binned().num_columns(), 3);
        assert!(!pre.embedding().is_empty());
        assert!(pre.binner().column("distance").is_some());
        assert_eq!(pre.plane().num_rows(), 60);
        assert_eq!(pre.plane().num_cols(), 3);
    }

    #[test]
    fn full_row_vectors_are_cached_and_consistent() {
        let pre = PreprocessedTable::new(table(30), &SubTabConfig::fast()).unwrap();
        let a = pre.full_row_vectors();
        let b = pre.full_row_vectors();
        assert_eq!(a.num_rows(), 30);
        assert_eq!(a, b);
        assert!(Arc::ptr_eq(&a, &b), "second call must reuse the cache");
        assert_eq!(a.dim(), pre.embedding().dim());
        // The cached matrix matches the per-row gather.
        let cols: Vec<usize> = (0..3).collect();
        for r in 0..30 {
            assert_eq!(
                a.row(r),
                pre.embedding().row_vector(pre.plane(), r, &cols).as_slice()
            );
        }
    }

    #[test]
    fn concurrent_first_use_computes_one_shared_matrix() {
        let pre = PreprocessedTable::new(table(40), &SubTabConfig::fast()).unwrap();
        let handles: Vec<Arc<Matrix>> = std::thread::scope(|scope| {
            let workers: Vec<_> = (0..8)
                .map(|_| scope.spawn(|| pre.full_row_vectors()))
                .collect();
            workers.into_iter().map(|w| w.join().unwrap()).collect()
        });
        for h in &handles[1..] {
            assert!(
                Arc::ptr_eq(&handles[0], h),
                "every racer must share one allocation"
            );
        }
    }

    /// Poison the cache lock from a panicking thread, once before the
    /// matrix exists and once after: whole-table row vectors must still be
    /// served, and match the per-row gather.
    #[test]
    fn a_poisoned_row_vector_cache_keeps_serving() {
        let pre = PreprocessedTable::new(table(30), &SubTabConfig::fast()).unwrap();
        let poison = || {
            let joined = std::thread::scope(|scope| {
                scope
                    .spawn(|| {
                        let _guard = pre.full_row_vectors.write().unwrap();
                        panic!("poisoning the row-vector cache");
                    })
                    .join()
            });
            assert!(joined.is_err());
            assert!(pre.full_row_vectors.is_poisoned());
        };
        let cols: Vec<usize> = (0..3).collect();
        poison();
        let first = pre.full_row_vectors();
        for r in 0..30 {
            assert_eq!(
                first.row(r),
                pre.embedding().row_vector(pre.plane(), r, &cols).as_slice()
            );
        }
        poison();
        assert!(Arc::ptr_eq(&first, &pre.full_row_vectors()));
    }

    #[test]
    fn empty_table_preprocesses_without_panicking() {
        let t = Table::builder()
            .column_i64("x", Vec::new())
            .build()
            .unwrap();
        let pre = PreprocessedTable::new(t, &SubTabConfig::fast()).unwrap();
        assert_eq!(pre.full_row_vectors().num_rows(), 0);
        assert_eq!(pre.embedding().len(), 0);
    }
}
