//! Equivalence suite for the token-ID query engine. On every planted
//! dataset, for every benchmark query, it checks the two layers in which
//! selection ever had a second implementation:
//!
//! * the compiled query rows ([`compiled_selection_rows`]) against the
//!   per-row tree walk ([`Query::selection_rows`]);
//! * the integer-gathered row, column and cached full-row vectors against
//!   the string-keyed gather oracle below (a `"column=label"` token is
//!   formatted and hashed per cell through the public `cell_vector`),
//!   compared as bits at thread counts {1, 2, 4}.
//!
//! The clustering tail is shared, so `tests/golden/selection_ref.txt` pins
//! whole selections end to end.

use subtab_binning::BinnedTable;
use subtab_core::{
    compiled_selection_rows, select_sub_table, PreprocessedTable, SelectionParams, SubTabConfig,
};
use subtab_data::{Query, Table};
use subtab_datasets::{
    benchmark_ast_query, benchmark_deep_nest_query, benchmark_projected_query, DatasetKind,
    DatasetSize,
};
use subtab_embed::{CellEmbedding, NO_TOKEN};

const ALL_KINDS: [DatasetKind; 6] = [
    DatasetKind::Flights,
    DatasetKind::Cyber,
    DatasetKind::Spotify,
    DatasetKind::CreditCard,
    DatasetKind::UsFunds,
    DatasetKind::BankLoans,
];

/// The string-keyed gather oracle: the library's gathers before the
/// token-id plane existed.
trait StrKeyGather {
    fn row_vector_strkey(&self, binned: &BinnedTable, row: usize, cols: &[usize]) -> Vec<f32>;
    fn column_vector_strkey(&self, binned: &BinnedTable, col: usize, rows: &[usize]) -> Vec<f32>;
}

impl StrKeyGather for CellEmbedding {
    /// The pre-refactor string-keyed row gather (a token is formatted and
    /// hashed per cell). Preserved as the reference implementation for the
    /// equivalence suite; production code uses [`CellEmbedding::row_vector`].
    fn row_vector_strkey(&self, binned: &BinnedTable, row: usize, cols: &[usize]) -> Vec<f32> {
        let mut acc = vec![0.0f32; self.dim()];
        let mut n = 0usize;
        for &c in cols {
            if let Some(v) = self.cell_vector(binned, row, c) {
                for (a, x) in acc.iter_mut().zip(v.iter()) {
                    *a += x;
                }
                n += 1;
            }
        }
        if n > 0 {
            let inv = 1.0 / n as f32;
            acc.iter_mut().for_each(|a| *a *= inv);
        }
        acc
    }

    /// The pre-refactor string-keyed column gather; see
    /// [`CellEmbedding::row_vector_strkey`].
    fn column_vector_strkey(&self, binned: &BinnedTable, col: usize, rows: &[usize]) -> Vec<f32> {
        let mut acc = vec![0.0f32; self.dim()];
        let mut n = 0usize;
        for &r in rows {
            if let Some(v) = self.cell_vector(binned, r, col) {
                for (a, x) in acc.iter_mut().zip(v.iter()) {
                    *a += x;
                }
                n += 1;
            }
        }
        if n > 0 {
            let inv = 1.0 / n as f32;
            acc.iter_mut().for_each(|a| *a *= inv);
        }
        acc
    }
}

/// The benchmark queries every dataset is checked on.
fn benchmark_queries(table: &Table) -> [(&'static str, Query); 3] {
    [
        ("projected", benchmark_projected_query(table)),
        ("ast", benchmark_ast_query(table)),
        ("deep-nest", benchmark_deep_nest_query(table)),
    ]
}

/// The column indices a query's projection names, or every column.
fn projected_columns(table: &Table, query: &Query) -> Vec<usize> {
    match &query.projection {
        Some(names) => names
            .iter()
            .map(|n| table.schema().index_of(n).expect("projected column exists"))
            .collect(),
        None => (0..table.num_columns()).collect(),
    }
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// The oracle's flat row-major row vectors.
fn oracle_rows(pre: &PreprocessedTable, rows: &[usize], cols: &[usize]) -> Vec<u32> {
    let embedding = pre.embedding();
    rows.iter()
        .flat_map(|&r| bits(&embedding.row_vector_strkey(pre.binned(), r, cols)))
        .collect()
}

/// The oracle's flat row-major column vectors.
fn oracle_columns(pre: &PreprocessedTable, cols: &[usize], rows: &[usize]) -> Vec<u32> {
    let embedding = pre.embedding();
    cols.iter()
        .flat_map(|&c| bits(&embedding.column_vector_strkey(pre.binned(), c, rows)))
        .collect()
}

#[test]
fn token_id_selections_match_strkey_on_every_planted_dataset() {
    for kind in ALL_KINDS {
        let dataset = kind.build(DatasetSize::Tiny, 7);
        let pre = PreprocessedTable::new(dataset.table, &SubTabConfig::fast()).unwrap();
        let (table, embedding, plane) = (pre.table(), pre.embedding(), pre.plane());

        let all_rows: Vec<usize> = (0..table.num_rows()).collect();
        let all_cols: Vec<usize> = (0..table.num_columns()).collect();
        assert_eq!(
            bits(pre.full_row_vectors().data()),
            oracle_rows(&pre, &all_rows, &all_cols),
            "{kind:?}: cached full row vectors diverge"
        );

        for (label, query) in benchmark_queries(table) {
            let rows = compiled_selection_rows(table, &query).unwrap();
            assert_eq!(
                rows,
                query.selection_rows(table).unwrap(),
                "{kind:?} {label}: compiled rows diverge from the per-row walk"
            );
            assert!(!rows.is_empty(), "{kind:?} {label}: query must match rows");
            let cols = projected_columns(table, &query);
            let want_rows = oracle_rows(&pre, &rows, &cols);
            let want_cols = oracle_columns(&pre, &cols, &rows);
            for threads in [1usize, 2, 4] {
                assert_eq!(
                    bits(&embedding.row_vectors(plane, &rows, &cols, threads)),
                    want_rows,
                    "{kind:?} {label} threads {threads}: row vectors diverge"
                );
                assert_eq!(
                    bits(&embedding.column_vectors(plane, &cols, &rows, threads)),
                    want_cols,
                    "{kind:?} {label} threads {threads}: column vectors diverge"
                );
            }
        }
    }
}

#[test]
fn targeted_query_selections_match_strkey() {
    // A target column joins the candidates even where the projection drops
    // it, and only the remaining free columns are clustered: their column
    // vectors must still match the oracle, and the selection must keep the
    // target at every thread count.
    let dataset = DatasetKind::Flights.build(DatasetSize::Tiny, 7);
    let pre = PreprocessedTable::new(dataset.table, &SubTabConfig::fast()).unwrap();
    let table = pre.table();
    let target_idx = table.num_columns() - 1;
    let target = table
        .schema()
        .field_at(target_idx)
        .expect("index valid")
        .name
        .clone();
    let query = benchmark_projected_query(table);
    let params = SelectionParams::new(6, 5).with_targets(&[target.as_str()]);
    for (q, label) in [(None, "whole"), (Some(&query), "query")] {
        let (rows, cols) = match q {
            None => (
                (0..table.num_rows()).collect::<Vec<_>>(),
                (0..table.num_columns()).collect::<Vec<_>>(),
            ),
            Some(q) => (
                compiled_selection_rows(table, q).unwrap(),
                projected_columns(table, q),
            ),
        };
        let free: Vec<usize> = cols.into_iter().filter(|&c| c != target_idx).collect();
        assert_eq!(
            bits(&pre.embedding().column_vectors(pre.plane(), &free, &rows, 2)),
            oracle_columns(&pre, &free, &rows),
            "{label}: free column vectors diverge"
        );
        for seed in [0u64, 5] {
            let a = select_sub_table(&pre, q, &params, seed, 1).unwrap();
            let b = select_sub_table(&pre, q, &params, seed, 2).unwrap();
            assert_eq!(a.row_indices, b.row_indices, "{label} seed {seed}");
            assert_eq!(a.columns, b.columns, "{label} seed {seed}");
            assert!(a.columns.contains(&target), "{label} seed {seed}");
        }
    }
}

#[test]
fn token_plane_covers_every_cell_of_every_planted_dataset() {
    for kind in ALL_KINDS {
        let dataset = kind.build(DatasetSize::Tiny, 3);
        let pre = PreprocessedTable::new(dataset.table, &SubTabConfig::fast()).unwrap();
        let plane = pre.plane();
        let binned = pre.binned();
        let embedding = pre.embedding();
        assert_eq!(plane.num_rows(), binned.num_rows());
        assert_eq!(plane.num_cols(), binned.num_columns());
        // Spot-check a stratified sample of cells: the plane id must agree
        // with the string lookup, including on sentinel cells.
        for row in (0..binned.num_rows()).step_by(17) {
            for col in 0..binned.num_columns() {
                let id = plane.id(row, col);
                match embedding.cell_vector(binned, row, col) {
                    Some(v) => {
                        assert_ne!(id, NO_TOKEN, "{kind:?} cell ({row}, {col})");
                        assert_eq!(
                            embedding.vector_by_id(id),
                            Some(v),
                            "{kind:?} cell ({row}, {col})"
                        );
                    }
                    None => assert_eq!(id, NO_TOKEN, "{kind:?} cell ({row}, {col})"),
                }
            }
        }
    }
}
