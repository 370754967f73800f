//! Equivalence suite for the token-ID query engine: on every planted
//! dataset, whole-table and query-time selections through the integer-gather
//! path must be bit-identical to the preserved string-keyed reference path,
//! at every thread count.

use subtab_core::select::{select_sub_table, select_sub_table_strkey};
use subtab_core::{PreprocessedTable, SelectionParams, SubTabConfig};
use subtab_data::{Query, Table};
use subtab_datasets::{benchmark_projected_query, DatasetKind, DatasetSize};
use subtab_embed::NO_TOKEN;

const ALL_KINDS: [DatasetKind; 6] = [
    DatasetKind::Flights,
    DatasetKind::Cyber,
    DatasetKind::Spotify,
    DatasetKind::CreditCard,
    DatasetKind::UsFunds,
    DatasetKind::BankLoans,
];

/// The canonical selection–projection query — the same shape the `query`
/// benchmark experiment times, shared via `subtab_datasets::queries` so the
/// bench and this suite can never drift apart.
fn generic_query(table: &Table) -> Query {
    benchmark_projected_query(table)
}

#[test]
fn token_id_selections_match_strkey_on_every_planted_dataset() {
    for kind in ALL_KINDS {
        let dataset = kind.build(DatasetSize::Tiny, 7);
        let pre = PreprocessedTable::new(dataset.table, &SubTabConfig::fast()).unwrap();
        let query = generic_query(pre.table());
        let params = SelectionParams::new(8, 4);
        for seed in [3u64, 11] {
            let whole_ref = select_sub_table_strkey(&pre, None, &params, seed, 1).unwrap();
            let query_ref = select_sub_table_strkey(&pre, Some(&query), &params, seed, 1).unwrap();
            assert!(
                !query_ref.row_indices.is_empty(),
                "{kind:?}: query must match rows"
            );
            for threads in [1usize, 2, 4] {
                let whole = select_sub_table(&pre, None, &params, seed, threads).unwrap();
                assert_eq!(
                    whole.row_indices, whole_ref.row_indices,
                    "{kind:?} seed {seed} threads {threads}: whole-table rows diverge"
                );
                assert_eq!(
                    whole.columns, whole_ref.columns,
                    "{kind:?} seed {seed} threads {threads}: whole-table columns diverge"
                );
                let q = select_sub_table(&pre, Some(&query), &params, seed, threads).unwrap();
                assert_eq!(
                    q.row_indices, query_ref.row_indices,
                    "{kind:?} seed {seed} threads {threads}: query rows diverge"
                );
                assert_eq!(
                    q.columns, query_ref.columns,
                    "{kind:?} seed {seed} threads {threads}: query columns diverge"
                );
            }
        }
    }
}

#[test]
fn targeted_query_selections_match_strkey() {
    // Target columns exercise the projection-augmentation and free-column
    // bookkeeping on both engines.
    let dataset = DatasetKind::Flights.build(DatasetSize::Tiny, 7);
    let pre = PreprocessedTable::new(dataset.table, &SubTabConfig::fast()).unwrap();
    let target = pre
        .table()
        .schema()
        .field_at(pre.table().num_columns() - 1)
        .expect("index valid")
        .name
        .clone();
    let query = generic_query(pre.table());
    let params = SelectionParams::new(6, 5).with_targets(&[target.as_str()]);
    for seed in [0u64, 5] {
        for (q, label) in [(None, "whole"), (Some(&query), "query")] {
            let a = select_sub_table(&pre, q, &params, seed, 2).unwrap();
            let b = select_sub_table_strkey(&pre, q, &params, seed, 1).unwrap();
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
                            &*v,
                            "{kind:?} cell ({row}, {col})"
                        );
                    }
                    None => assert_eq!(id, NO_TOKEN, "{kind:?} cell ({row}, {col})"),
                }
            }
        }
    }
}
