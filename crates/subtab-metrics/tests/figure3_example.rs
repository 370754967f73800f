//! Reproduction of the worked example of Section 3 of the paper (Figures 3
//! and 4): the 8-row flights excerpt, its rule set, and the cell coverage /
//! diversity / combined scores of the three sub-tables discussed in the text.
//!
//! Paper-reported values checked here:
//! * 36 cells of the example table are describable by association rules
//!   (`upcov = 36`),
//! * sub-table T̂(1) (rows 1, 5, 7 over CANCELLED, DEP_TIME, YEAR, DISTANCE)
//!   describes 28 cells → cell coverage 28/36 ≈ 0.78, diversity 0.83,
//!   combined 0.80,
//! * sub-table T̂(2) (… SCHED_DEP instead of DISTANCE) describes 26 cells →
//!   cell coverage 26/36 ≈ 0.72,
//! * sub-table T̂(3) (Figure 4: rows 1, 5, 7 over CANCELLED, DEP_TIME,
//!   SCHED_DEP, DISTANCE) describes 24 cells, diversity 0.92, combined 0.79.

use std::collections::HashSet;
use std::sync::Arc;
use subtab_binning::{BinnedTable, Binner, BinningConfig};
use subtab_data::Table;
use subtab_metrics::{diversity, CoverageIndex, Evaluator};
use subtab_rules::{Item, ItemId, ItemInterner, RuleSet};

/// The example table T̂ of Figure 3. Values are already bin names.
fn example_table() -> Table {
    Table::builder()
        .column_i64(
            "CANCELLED",
            vec![
                Some(1),
                Some(1),
                Some(1),
                Some(1),
                Some(0),
                Some(0),
                Some(0),
                Some(0),
            ],
        )
        .column_str(
            "DEP_TIME",
            vec![
                None,
                None,
                None,
                None,
                Some("morning"),
                Some("morning"),
                Some("evening"),
                Some("evening"),
            ],
        )
        .column_i64(
            "YEAR",
            vec![
                Some(2015),
                Some(2015),
                Some(2015),
                Some(2015),
                Some(2016),
                Some(2015),
                Some(2015),
                Some(2015),
            ],
        )
        .column_str(
            "SCHED_DEP",
            vec![
                Some("afternoon"),
                Some("afternoon"),
                Some("morning"),
                Some("morning"),
                Some("morning"),
                Some("morning"),
                Some("evening"),
                Some("afternoon"),
            ],
        )
        .column_str(
            "DISTANCE",
            vec![
                Some("short"),
                Some("medium"),
                Some("medium"),
                Some("short"),
                Some("medium"),
                Some("medium"),
                Some("long"),
                Some("long"),
            ],
        )
        .build()
        .unwrap()
}

fn binned() -> BinnedTable {
    let t = example_table();
    let binner = Binner::fit(&t, &BinningConfig::default()).unwrap();
    binner.apply(&t).unwrap()
}

/// Enumerates the rule set of the example: "all association rules with column
/// CANCELLED on the right, and at least two columns on the left, that hold
/// for at least two rows".
fn example_rules(bt: &BinnedTable) -> RuleSet {
    let interner = Arc::new(ItemInterner::from_binned(bt));
    let target = bt.column_index("CANCELLED").unwrap();
    let other_cols: Vec<usize> = (0..bt.num_columns()).filter(|&c| c != target).collect();
    let mut rules = RuleSet::new(bt.num_rows(), Arc::clone(&interner));
    let mut seen: HashSet<Vec<ItemId>> = HashSet::new();
    // Enumerate LHS column subsets of size >= 2 via bitmask over other_cols.
    for mask in 1u32..(1 << other_cols.len()) {
        let cols: Vec<usize> = other_cols
            .iter()
            .enumerate()
            .filter(|(i, _)| mask & (1 << i) != 0)
            .map(|(_, &c)| c)
            .collect();
        if cols.len() < 2 {
            continue;
        }
        // For each row, instantiate the rule with that row's bin values.
        for r in 0..bt.num_rows() {
            let items: Vec<Item> = cols
                .iter()
                .chain([&target])
                .map(|&c| Item::new(c, bt.bin_id(r, c)))
                .collect();
            let count = (0..bt.num_rows())
                .filter(|&row| items.iter().all(|i| i.matches(bt, row)))
                .count();
            let ids: Vec<ItemId> = items
                .iter()
                .map(|i| interner.id_of(i.column, i.bin))
                .collect();
            if count >= 2 && seen.insert(ids.clone()) {
                let (antecedent, consequent) = ids.split_at(cols.len());
                let support = count as f64 / bt.num_rows() as f64;
                rules.push(antecedent, consequent, count, support, 1.0, 1.0);
            }
        }
    }
    rules
}

fn col_indices(bt: &BinnedTable, names: &[&str]) -> Vec<usize> {
    names.iter().map(|n| bt.column_index(n).unwrap()).collect()
}

#[test]
fn upcov_is_36_of_40_cells() {
    let bt = binned();
    let rules = example_rules(&bt);
    let index = CoverageIndex::build(&bt, &rules);
    assert_eq!(bt.num_rows() * bt.num_columns(), 40);
    assert_eq!(index.upcov(), 36);
}

#[test]
fn subtable_1_covers_28_cells() {
    let bt = binned();
    let rules = example_rules(&bt);
    let index = CoverageIndex::build(&bt, &rules);
    // Rows 1, 5, 7 of the paper are 0-indexed 0, 4, 6.
    let rows = [0usize, 4, 6];
    let cols = col_indices(&bt, &["CANCELLED", "DEP_TIME", "YEAR", "DISTANCE"]);
    assert_eq!(index.covered_cells(&rows, &cols), 28);
    let cov = index.cell_coverage(&rows, &cols);
    assert!((cov - 28.0 / 36.0).abs() < 1e-12);
}

#[test]
fn subtable_2_covers_26_cells() {
    let bt = binned();
    let rules = example_rules(&bt);
    let index = CoverageIndex::build(&bt, &rules);
    let rows = [0usize, 4, 6];
    let cols = col_indices(&bt, &["CANCELLED", "DEP_TIME", "YEAR", "SCHED_DEP"]);
    assert_eq!(index.covered_cells(&rows, &cols), 26);
}

#[test]
fn subtable_3_covers_24_cells() {
    let bt = binned();
    let rules = example_rules(&bt);
    let index = CoverageIndex::build(&bt, &rules);
    let rows = [0usize, 4, 6];
    let cols = col_indices(&bt, &["CANCELLED", "DEP_TIME", "SCHED_DEP", "DISTANCE"]);
    assert_eq!(index.covered_cells(&rows, &cols), 24);
}

#[test]
fn diversity_of_subtable_1_is_083() {
    let bt = binned();
    let rows = [0usize, 4, 6];
    let cols = col_indices(&bt, &["CANCELLED", "DEP_TIME", "YEAR", "DISTANCE"]);
    let sub = bt.take_rows(&rows).take_columns(&cols);
    let d = diversity(&sub);
    // 1 - avg(0.25, 0, 0.25) = 1 - 1/6 ≈ 0.8333
    assert!((d - (1.0 - 1.0 / 6.0)).abs() < 1e-9, "diversity = {d}");
}

#[test]
fn diversity_of_subtable_3_is_092() {
    let bt = binned();
    let rows = [0usize, 4, 6];
    let cols = col_indices(&bt, &["CANCELLED", "DEP_TIME", "SCHED_DEP", "DISTANCE"]);
    let sub = bt.take_rows(&rows).take_columns(&cols);
    let d = diversity(&sub);
    // 1 - avg(0, 0, 0.25) = 1 - 1/12 ≈ 0.9167
    assert!((d - (1.0 - 1.0 / 12.0)).abs() < 1e-9, "diversity = {d}");
}

#[test]
fn combined_scores_match_example_3_9() {
    let bt = binned();
    let rules = example_rules(&bt);
    let ev = Evaluator::new(bt.clone(), &rules, 0.5);
    let rows = [0usize, 4, 6];
    let cols1 = col_indices(&bt, &["CANCELLED", "DEP_TIME", "YEAR", "DISTANCE"]);
    let cols3 = col_indices(&bt, &["CANCELLED", "DEP_TIME", "SCHED_DEP", "DISTANCE"]);
    let s1 = ev.score(&rows, &cols1);
    let s3 = ev.score(&rows, &cols3);
    // Example 3.9: 0.5·28/36 + 0.5·0.83 = 0.80 and 0.5·24/36 + 0.5·0.92 = 0.79.
    assert!((s1.combined - (0.5 * 28.0 / 36.0 + 0.5 * (1.0 - 1.0 / 6.0))).abs() < 1e-9);
    assert!((s3.combined - (0.5 * 24.0 / 36.0 + 0.5 * (1.0 - 1.0 / 12.0))).abs() < 1e-9);
    // T̂(1) is the better sub-table, as stated in the paper.
    assert!(s1.combined > s3.combined);
    assert!((s1.combined - 0.80).abs() < 0.01);
    assert!((s3.combined - 0.79).abs() < 0.01);
}
