//! Differential suite for the coverage index: on all six planted datasets,
//! with plain and target-partitioned rule sets, [`CoverageIndex`] (rule
//! rows built as ANDs of item bitmaps, flat storage) must agree exactly
//! with the per-row-decoding index in `coverage_oracle`: the same `upcov`,
//! the same covered rules, the same cell unions and the same coverage bits
//! on seeded random sub-tables, plus the empty, the full and out-of-range
//! ones. [`Evaluator::score`]'s diversity, read from the full table's
//! codes, must equal the diversity of the materialised sub-table bit for
//! bit on in-range input.

mod coverage_oracle;

use subtab_binning::{BinnedTable, Binner, BinningConfig};
use subtab_datasets::{benchmark_target_column, DatasetKind, DatasetSize};
use subtab_metrics::{diversity, CoverageIndex, Evaluator};
use subtab_rules::{MiningConfig, RuleMiner};

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
    let dataset = kind.build(DatasetSize::Tiny, 5);
    let binner = Binner::fit(&dataset.table, &BinningConfig::default()).expect("binning fits");
    let binned = binner.apply(&dataset.table).expect("binning applies");
    let target = benchmark_target_column(&dataset.table);
    let target_idx = binned.column_index(&target).expect("target column exists");
    (binned, target_idx)
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
/// full, column-less and row-less ones, out-of-range ones and seeded random
/// draws of up to 12 rows (duplicates allowed) and up to `m` columns.
fn subtables(n: usize, m: usize, seed: u64) -> Vec<(Vec<usize>, Vec<usize>, bool)> {
    let all_rows: Vec<usize> = (0..n).collect();
    let all_cols: Vec<usize> = (0..m).collect();
    let mut cases = vec![
        (Vec::new(), Vec::new(), true),
        (all_rows.clone(), all_cols.clone(), true),
        (all_rows.clone(), Vec::new(), true),
        (Vec::new(), all_cols.clone(), true),
        (vec![0, 1, n + 3], all_cols.clone(), false),
        (vec![n, n + 7], all_cols.clone(), false),
        (all_rows, vec![0, m, 1, m + 9], false),
    ];
    let mut rng = XorShift(seed);
    for _ in 0..DRAWS {
        let rows = (0..rng.below(12) + 1).map(|_| rng.below(n)).collect();
        let mut cols: Vec<usize> = (0..m).filter(|_| rng.below(3) == 0).collect();
        if cols.is_empty() {
            cols.push(rng.below(m));
        }
        cases.push((rows, cols, true));
    }
    cases
}

#[test]
fn flat_index_matches_the_per_row_oracle_on_every_planted_dataset() {
    for kind in KINDS {
        let (binned, target) = binned_for(kind);
        let (n, m) = (binned.num_rows(), binned.num_columns());
        let miner = RuleMiner::new(config_for(kind));
        for (mode, rules) in [
            ("plain", miner.mine(&binned)),
            ("target", miner.mine_with_targets(&binned, &[target])),
        ] {
            assert!(
                !rules.is_empty(),
                "{kind:?} {mode}: planted data must produce rules"
            );
            let label = format!("{kind:?} {mode}");
            let oracle = coverage_oracle::CoverageIndex::build(&binned, &rules);
            let index = CoverageIndex::build(&binned, &rules);
            assert_eq!(index.num_rules(), oracle.num_rules(), "{label}: rules");
            assert_eq!(index.upcov(), oracle.upcov(), "{label}: upcov");
            let evaluator = Evaluator::new(binned.clone(), &rules, 0.5);
            for (rows, cols, in_range) in subtables(n, m, rules.len() as u64) {
                let case = format!("{label}: rows {rows:?} cols {cols:?}");
                let covered = index.covered_rules(&rows, &cols);
                assert_eq!(covered, oracle.covered_rules(&rows, &cols), "{case}");
                assert_eq!(
                    index.union_cells(&covered),
                    oracle.union_cells(&covered),
                    "{case}"
                );
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
            // Cell unions of arbitrary rule subsets, beyond the covered ones.
            let mut rng = XorShift(0x5eed ^ rules.len() as u64);
            let picks: Vec<usize> = (0..64).map(|_| rng.below(rules.len())).collect();
            assert_eq!(
                index.union_cells(&picks),
                oracle.union_cells(&picks),
                "{label}"
            );
        }
    }
}
