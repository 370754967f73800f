//! Equivalence suite for the columnar storage layer: on every planted
//! dataset, the zero-copy view planes must agree cell-for-cell with the
//! row-wise `Value` shim, columnar binning must match the per-row
//! reference, and selections and mined rule sets must be bit-identical
//! across storage paths and thread counts.

use subtab_binning::{Binner, BinningConfig};
use subtab_core::select::select_sub_table;
use subtab_core::{PreprocessedTable, SelectionParams, SubTabConfig};
use subtab_data::{Column, Table, Value};
use subtab_datasets::{
    benchmark_projected_query, benchmark_target_column, DatasetKind, DatasetSize,
};
use subtab_rules::{MiningConfig, RuleMiner};

const ALL_KINDS: [DatasetKind; 6] = [
    DatasetKind::Flights,
    DatasetKind::Cyber,
    DatasetKind::Spotify,
    DatasetKind::CreditCard,
    DatasetKind::UsFunds,
    DatasetKind::BankLoans,
];

const THREAD_COUNTS: [usize; 3] = [1, 2, 4];

/// Checks one column's planes against its row-wise accessors: the validity
/// bitmap must mirror `is_null`, valid slots must hold the row value, and
/// null slots must hold the documented sentinel.
fn assert_views_match_rows(col: &Column) {
    let n = col.len();
    assert_eq!(col.validity().count(), n - col.null_count());
    if let Some(v) = col.float_view() {
        assert_eq!(v.values.len(), n);
        for row in 0..n {
            assert_eq!(v.validity.get(row), !col.is_null(row));
            match col.get(row) {
                Value::Float(x) => assert_eq!(v.values[row], x),
                Value::Null => assert_eq!(v.values[row], 0.0, "sentinel at {row}"),
                other => panic!("float column yielded {other:?}"),
            }
        }
    }
    if let Some(v) = col.int_view() {
        assert_eq!(v.values.len(), n);
        for row in 0..n {
            assert_eq!(v.validity.get(row), !col.is_null(row));
            match col.get(row) {
                Value::Int(x) => assert_eq!(v.values[row], x),
                Value::Null => assert_eq!(v.values[row], 0, "sentinel at {row}"),
                other => panic!("int column yielded {other:?}"),
            }
        }
    }
    if let Some(v) = col.bool_view() {
        for row in 0..n {
            assert_eq!(v.validity.get(row), !col.is_null(row));
            match col.get(row) {
                Value::Bool(x) => assert_eq!(v.values[row], x),
                Value::Null => assert!(!v.values[row], "sentinel at {row}"),
                other => panic!("bool column yielded {other:?}"),
            }
        }
    }
    if let Some(v) = col.code_view() {
        assert_eq!(v.codes.len(), n);
        for row in 0..n {
            assert_eq!(v.validity.get(row), !col.is_null(row));
            match col.get(row) {
                Value::Str(s) => assert_eq!(v.dict[v.codes[row] as usize], s),
                Value::Null => assert_eq!(v.codes[row], 0, "sentinel at {row}"),
                other => panic!("str column yielded {other:?}"),
            }
        }
    }
    if let Some(v) = col.numeric_view() {
        assert_eq!(v.values.len(), n);
        for row in 0..n {
            match col.get_f64(row) {
                Some(x) => assert_eq!(v.values[row], x),
                None => assert_eq!(v.values[row], 0.0, "sentinel at {row}"),
            }
        }
    }
}

#[test]
fn views_match_the_row_api_on_every_planted_dataset() {
    for kind in ALL_KINDS {
        let dataset = kind.build(DatasetSize::Tiny, 7);
        for col in dataset.table.columns() {
            assert_views_match_rows(col);
        }
    }
}

#[test]
fn columnar_binning_matches_the_per_row_reference() {
    for kind in ALL_KINDS {
        let dataset = kind.build(DatasetSize::Tiny, 7);
        let table = &dataset.table;
        let binner = Binner::fit(table, &BinningConfig::default()).unwrap();
        let binned = binner.apply(table).unwrap();
        for (ci, name) in table.column_names().iter().enumerate() {
            let bi = binned.column_index(name).unwrap();
            for row in 0..table.num_rows() {
                let value = table.value(row, name).unwrap();
                let reference = binner.bin_value(name, &value).unwrap();
                assert_eq!(
                    binned.bin_id(row, bi),
                    reference,
                    "{kind:?} col {ci} ({name}) row {row}: columnar apply \
                     disagrees with the per-row reference"
                );
            }
        }
    }
}

#[test]
fn selections_agree_across_engines_and_thread_counts() {
    for kind in ALL_KINDS {
        let dataset = kind.build(DatasetSize::Tiny, 7);
        let pre = PreprocessedTable::new(dataset.table, &SubTabConfig::fast()).unwrap();
        let query = benchmark_projected_query(pre.table());
        let params = SelectionParams::new(8, 4);
        let seed = 11u64;
        let reference = select_sub_table(&pre, Some(&query), &params, seed, 1).unwrap();
        assert!(
            !reference.row_indices.is_empty(),
            "{kind:?}: empty selection"
        );
        for threads in THREAD_COUNTS {
            let run = select_sub_table(&pre, Some(&query), &params, seed, threads).unwrap();
            assert_eq!(
                run.row_indices, reference.row_indices,
                "{kind:?} {threads}t"
            );
            assert_eq!(run.columns, reference.columns, "{kind:?} {threads}t");
        }
    }
}

#[test]
fn rule_sets_agree_across_engines_and_thread_counts() {
    for kind in ALL_KINDS {
        let dataset = kind.build(DatasetSize::Tiny, 7);
        let binner = Binner::fit(&dataset.table, &BinningConfig::default()).unwrap();
        let binned = binner.apply(&dataset.table).unwrap();
        let target = binned
            .column_index(&benchmark_target_column(&dataset.table))
            .unwrap();
        // Bounded the same way as `subtab-rules/tests/bitmap_equivalence.rs`,
        // which pins these rule sets to an Apriori oracle and a golden file:
        // a higher support floor (and a rule-size cap for the 298-column
        // US-funds schema) keeps debug builds fast. Thread-count invariance
        // must hold at any parameters.
        let config = MiningConfig {
            min_support: 0.2,
            max_rule_size: if kind == DatasetKind::UsFunds {
                3
            } else {
                MiningConfig::default().max_rule_size
            },
            ..Default::default()
        };
        let whole_ref = RuleMiner::new(config.clone()).mine(&binned);
        let target_ref = RuleMiner::new(config.clone()).mine_with_targets(&binned, &[target]);
        for threads in THREAD_COUNTS {
            let miner = RuleMiner::new(config.clone().with_threads(threads));
            assert_eq!(
                miner.mine(&binned),
                whole_ref,
                "{kind:?} whole-table mining at {threads}t"
            );
            assert_eq!(
                miner.mine_with_targets(&binned, &[target]),
                target_ref,
                "{kind:?} target mining at {threads}t"
            );
        }
    }
}

/// Deterministic xorshift generator — enough randomness for a property
/// test without pulling a dependency into the suite.
struct XorShift(u64);

impl XorShift {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }

    fn chance(&mut self, permille: u64) -> bool {
        self.next() % 1000 < permille
    }
}

/// Property test: random columns of every type, at lengths straddling the
/// validity bitmap's 64-bit word boundaries and with null densities from
/// none to almost-all, must keep views and row accessors in agreement —
/// including after growing past the original allocation.
#[test]
fn random_columns_keep_planes_and_rows_consistent() {
    let mut rng = XorShift(0x5DEECE66D);
    for &len in &[0usize, 1, 63, 64, 65, 127, 128, 129, 300] {
        // 0 = no nulls, 1000 = all-null; the extremes exercise the
        // full-word fast paths of the validity bitmap.
        for &null_permille in &[0u64, 10, 500, 950, 1000] {
            let ints: Vec<Option<i64>> = (0..len)
                .map(|_| (!rng.chance(null_permille)).then(|| rng.next() as i64 % 1_000))
                .collect();
            let floats: Vec<Option<f64>> = (0..len)
                .map(|_| (!rng.chance(null_permille)).then(|| (rng.next() % 10_000) as f64 / 7.0))
                .collect();
            let strs: Vec<Option<String>> = (0..len)
                .map(|_| (!rng.chance(null_permille)).then(|| format!("v{}", rng.next() % 23)))
                .collect();
            let bools: Vec<Option<bool>> = (0..len)
                .map(|_| (!rng.chance(null_permille)).then(|| rng.chance(500)))
                .collect();
            let mut columns = vec![
                Column::from_i64("i", ints.clone()),
                Column::from_f64("f", floats.clone()),
                Column::from_str_values("s", strs.clone()),
                Column::from_bool("b", bools.clone()),
            ];
            for col in &columns {
                assert_views_match_rows(col);
            }
            // Round-trip: every original Option must come back via get().
            for (row, x) in ints.iter().enumerate() {
                assert_eq!(columns[0].get(row), x.map_or(Value::Null, Value::Int));
            }
            for (row, x) in strs.iter().enumerate() {
                assert_eq!(
                    columns[2].get(row),
                    x.clone().map_or(Value::Null, Value::Str)
                );
            }
            // Growing past the word boundary must preserve the contract.
            for col in &mut columns {
                for _ in 0..3 {
                    col.push(Value::Null).unwrap();
                }
            }
            for col in &columns {
                assert_eq!(col.len(), len + 3);
                assert_views_match_rows(col);
            }
        }
    }
}

/// Appending rows through a reserved table must be indistinguishable from
/// plain appends — same cells, same validity — across all column types.
#[test]
fn reserved_tables_match_plain_appends() {
    let dataset = DatasetKind::Cyber.build(DatasetSize::Tiny, 7);
    let source = &dataset.table;
    let names: Vec<&str> = source.column_names();
    let schema = source.schema().clone();
    let mut plain = Table::empty(schema.clone());
    let mut reserved = Table::empty(schema);
    reserved.reserve_rows(source.num_rows());
    for row in 0..source.num_rows().min(200) {
        let values = source.row(row).unwrap();
        plain.push_row(values.clone()).unwrap();
        reserved.push_row(values).unwrap();
    }
    assert_eq!(plain.num_rows(), reserved.num_rows());
    for name in names {
        let (p, r) = (plain.column(name).unwrap(), reserved.column(name).unwrap());
        for row in 0..plain.num_rows() {
            assert_eq!(p.get(row), r.get(row));
        }
        assert_views_match_rows(r);
    }
}
