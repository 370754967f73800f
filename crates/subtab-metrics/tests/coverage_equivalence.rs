//! Differential suite for the coverage index: on all six planted datasets,
//! with plain and target-partitioned rule sets, [`CoverageIndex`] (one
//! row bitmap per distinct itemset, built as the AND of its item bitmaps,
//! covered cells counted as per-column ORs of row bitmaps) must agree
//! exactly with the per-rule, per-row-decoding index in `coverage_oracle`,
//! which lists the covered rules and unions their cells in an n·m bitset: the same `upcov`, the same covered-cell counts and the
//! same coverage bits on seeded random sub-tables, plus the empty, the full,
//! row-less, column-less, duplicate-index and out-of-range ones.
//! [`Evaluator::score`]'s diversity, read from the full table's codes, must
//! equal the diversity of the materialised sub-table bit for bit on
//! in-range input.

mod coverage_oracle;

use std::collections::BTreeSet;
use subtab_binning::{BinnedTable, Binner, BinningConfig};
use subtab_data::Table;
use subtab_datasets::{benchmark_target_column, DatasetKind, DatasetSize};
use subtab_metrics::{diversity, CoverageIndex, Evaluator};
use subtab_rules::{ItemId, MiningConfig, RuleMiner, RuleSet};

const KINDS: [DatasetKind; 6] = [
    DatasetKind::Flights,
    DatasetKind::Cyber,
    DatasetKind::Spotify,
    DatasetKind::CreditCard,
    DatasetKind::UsFunds,
    DatasetKind::BankLoans,
];

/// Random sub-tables per rule set.
const DRAWS: usize = 24;

/// Mining parameters as in the rule miner's equivalence suite: the wide
/// US-funds schema gets a rule-size cap so the oracle's per-row decoding
/// stays affordable under the debug test profile.
fn config_for(kind: DatasetKind) -> MiningConfig {
    MiningConfig {
        min_support: 0.2,
        max_rule_size: if kind == DatasetKind::UsFunds { 3 } else { 4 },
        ..Default::default()
    }
}

fn binned_for(kind: DatasetKind) -> (BinnedTable, usize) {
    binned_with_target(&kind.build(DatasetSize::Tiny, 5).table)
}

fn binned_with_target(table: &Table) -> (BinnedTable, usize) {
    let binner = Binner::fit(table, &BinningConfig::default()).expect("binning fits");
    let binned = binner.apply(table).expect("binning applies");
    let target = benchmark_target_column(table);
    let target_idx = binned.column_index(&target).expect("target column exists");
    (binned, target_idx)
}

/// A US-funds table as wide as the paper's (298 columns), so rule column
/// masks span five words: the 60-column stand-in at seeds 5, 6, … side by
/// side, each copy's columns renamed apart, cut to 298 columns.
fn wide_us_funds() -> Table {
    let columns = (5..)
        .flat_map(|seed| {
            let table = DatasetKind::UsFunds.build(DatasetSize::Tiny, seed).table;
            table.columns().to_vec().into_iter().map(move |mut column| {
                column.set_name(format!("{}_s{seed}", column.name()));
                column
            })
        })
        .take(298)
        .collect();
    Table::from_columns(columns).expect("equal-length columns")
}

/// Deterministic xorshift generator.
struct XorShift(u64);

impl XorShift {
    fn below(&mut self, n: usize) -> usize {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        (self.0 % n as u64) as usize
    }
}

/// `(rows, cols, in range)` sub-tables of an `n × m` table: the empty,
/// full, column-less and row-less ones, ones with duplicate indices, ones
/// over the highest mask word's columns, out-of-range ones and seeded random
/// draws of up to 12 rows and up to `m` columns, duplicates allowed in both.
fn subtables(n: usize, m: usize, seed: u64) -> Vec<(Vec<usize>, Vec<usize>, bool)> {
    let all_rows: Vec<usize> = (0..n).collect();
    let all_cols: Vec<usize> = (0..m).collect();
    let top_word_cols: Vec<usize> = ((m - 1) / 64 * 64..m).collect();
    let mut cases = vec![
        (Vec::new(), Vec::new(), true),
        (all_rows.clone(), all_cols.clone(), true),
        (all_rows.clone(), Vec::new(), true),
        (Vec::new(), all_cols.clone(), true),
        (vec![2, 0, 2, 2, 0], vec![1, 0, 1, m - 1, 0, m - 1], true),
        (all_rows.repeat(2), all_cols.repeat(2), true),
        (all_rows.clone(), top_word_cols.clone(), true),
        (
            all_rows.clone(),
            vec![0, m - 1].into_iter().chain(top_word_cols).collect(),
            true,
        ),
        (vec![0, 1, n + 3], all_cols.clone(), false),
        (vec![n, n + 7], all_cols.clone(), false),
        (all_rows, vec![0, m, 1, m + 9], false),
        (vec![0, usize::MAX], vec![usize::MAX, 0, 1], false),
    ];
    let mut rng = XorShift(seed);
    for _ in 0..DRAWS {
        let rows = (0..rng.below(12) + 1).map(|_| rng.below(n)).collect();
        let mut cols: Vec<usize> = (0..m).filter(|_| rng.below(3) == 0).collect();
        cols.push(rng.below(m));
        if rng.below(2) == 0 {
            cols.push(cols[rng.below(cols.len())]);
        }
        cases.push((rows, cols, true));
    }
    cases
}

#[test]
fn flat_index_matches_the_per_row_oracle_on_every_planted_dataset() {
    for kind in KINDS {
        let (binned, target) = binned_for(kind);
        let miner = RuleMiner::new(config_for(kind));
        let plain = miner.mine(&binned);
        let shared = check_against_oracle(&format!("{kind:?} plain"), &binned, &plain);
        if kind == DatasetKind::Flights {
            // The case the per-itemset store is for: rules that split one
            // itemset differently share its row bitmap.
            assert!(shared, "flights rules must share itemsets");
        }
        let partitioned = miner.mine_with_targets(&binned, &[target]);
        check_against_oracle(&format!("{kind:?} target"), &binned, &partitioned);
    }
}

#[test]
fn multi_word_column_masks_match_the_oracle_on_a_298_column_table() {
    let (binned, target) = binned_with_target(&wide_us_funds());
    assert_eq!(binned.num_columns(), 298);
    // At 0.2 support the plain run finds 37 rules and the partitioned one
    // 1.7 M, so each run gets its own threshold: a few hundred rules, with
    // columns in every mask word.
    let config = |min_support| MiningConfig {
        min_support,
        max_rule_size: 3,
        ..Default::default()
    };
    let plain = RuleMiner::new(config(0.15)).mine(&binned);
    let words: BTreeSet<usize> = plain
        .iter()
        .flat_map(|r| r.column_iter())
        .map(|c| c / 64)
        .collect();
    assert_eq!(words.len(), 5, "plain rules must use every mask word");
    check_against_oracle("wide US-funds plain", &binned, &plain);
    let partitioned = RuleMiner::new(config(0.5)).mine_with_targets(&binned, &[target]);
    check_against_oracle("wide US-funds target", &binned, &partitioned);
}

/// Pins the index to the oracle on one rule set over `binned`, on every
/// sub-table of [`subtables`]; returns whether some rules share an itemset.
fn check_against_oracle(label: &str, binned: &BinnedTable, rules: &RuleSet) -> bool {
    let (n, m) = (binned.num_rows(), binned.num_columns());
    assert!(
        !rules.is_empty(),
        "{label}: planted data must produce rules"
    );
    let oracle = coverage_oracle::CoverageIndex::build(binned, rules);
    let index = CoverageIndex::build(binned, rules);
    assert_eq!(index.num_rules(), oracle.num_rules(), "{label}: rules");
    let itemsets: BTreeSet<Vec<ItemId>> = rules
        .iter()
        .map(|rule| {
            let mut items = rule.item_ids().to_vec();
            items.sort_unstable();
            items
        })
        .collect();
    assert_eq!(index.num_itemsets(), itemsets.len(), "{label}: itemsets");
    assert_eq!(index.upcov(), oracle.upcov(), "{label}: upcov");
    let evaluator = Evaluator::new(binned.clone(), rules, 0.5);
    for (rows, cols, in_range) in subtables(n, m, rules.len() as u64) {
        let case = format!("{label}: rows {rows:?} cols {cols:?}");
        let expected = oracle.union_cells(&oracle.covered_rules(&rows, &cols));
        assert_eq!(index.covered_cells(&rows, &cols), expected, "{case}");
        let coverage = index.cell_coverage(&rows, &cols);
        assert_eq!(
            coverage.to_bits(),
            oracle.cell_coverage(&rows, &cols).to_bits(),
            "{case}"
        );
        let score = evaluator.score(&rows, &cols);
        assert_eq!(score.cell_coverage.to_bits(), coverage.to_bits(), "{case}");
        if in_range {
            let sub = binned.take_rows(&rows).take_columns(&cols);
            assert_eq!(
                score.diversity.to_bits(),
                diversity(&sub).to_bits(),
                "{case}: diversity"
            );
        }
    }
    // The full table covers every describable cell.
    let (all_rows, all_cols): (Vec<usize>, Vec<usize>) = ((0..n).collect(), (0..m).collect());
    assert_eq!(
        index.covered_cells(&all_rows, &all_cols),
        index.upcov(),
        "{label}"
    );
    itemsets.len() < rules.len()
}
