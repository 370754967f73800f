//! Cell coverage (Definition 3.6).

use subtab_binning::BinnedTable;
use subtab_data::Bitmap;
use subtab_rules::RuleSet;

/// Pre-computed data for evaluating the cell coverage of sub-tables of one
/// table against one rule set.
///
/// For every rule `R` the index stores `U_R` (its columns) and `T_R` (the rows
/// of the *full* table for which it holds), plus the normalisation factor
/// `upcov = |⋃_R cell(R, T)|`. Individual sub-table evaluations then only need
/// to (a) decide which rules are covered and (b) union the pre-computed cell
/// sets of the covered rules.
///
/// `T_R` is a row bitmap (one bit per row of the full table). Mined rules
/// hold on at least a `min_support` share of the rows, so the bitmap is
/// several times smaller than a row-index list at the default support
/// threshold, and the witness-row test of [`covered_rules`] is a word-wise
/// AND.
///
/// [`covered_rules`]: CoverageIndex::covered_rules
#[derive(Debug, Clone)]
pub struct CoverageIndex {
    num_rows: usize,
    num_cols: usize,
    /// Per rule: (columns of the rule, rows of the full table where it holds).
    rules: Vec<(Vec<usize>, Bitmap)>,
    upcov: usize,
}

impl CoverageIndex {
    /// Builds the index by evaluating every rule against the full binned
    /// table.
    pub fn build(binned: &BinnedTable, rules: &RuleSet) -> Self {
        let num_rows = binned.num_rows();
        let num_cols = binned.num_columns();
        let interner = rules.interner();
        let mut infos = Vec::with_capacity(rules.len());
        for rule in rules.iter() {
            let mut rows = Bitmap::zeros(num_rows);
            for r in rule.matching_rows(interner, binned) {
                rows.set(r);
            }
            infos.push((rule.columns(), rows));
        }
        let mut index = CoverageIndex {
            num_rows,
            num_cols,
            rules: infos,
            upcov: 0,
        };
        // upcov = number of cells covered when every rule is covered.
        let all_rules: Vec<usize> = (0..index.rules.len()).collect();
        index.upcov = index.union_cells(&all_rules);
        index
    }

    /// Number of rules in the index.
    pub fn num_rules(&self) -> usize {
        self.rules.len()
    }

    /// The normalisation factor: the number of cells of the full table that
    /// are describable by *any* rule.
    pub fn upcov(&self) -> usize {
        self.upcov
    }

    /// Indices of the rules covered by the sub-table defined by `rows` and
    /// `cols` (row/column indices into the full table).
    ///
    /// A rule is covered when all of its columns are among `cols` and at least
    /// one of `rows` is in its matching-row set (Definition 3.6, d1).
    pub fn covered_rules(&self, rows: &[usize], cols: &[usize]) -> Vec<usize> {
        let mut col_mask = vec![false; self.num_cols];
        for &c in cols {
            if c < self.num_cols {
                col_mask[c] = true;
            }
        }
        let mut row_mask = Bitmap::zeros(self.num_rows);
        for &r in rows {
            if r < self.num_rows {
                row_mask.set(r);
            }
        }
        let row_words = row_mask.as_words();
        self.rules
            .iter()
            .enumerate()
            .filter(|(_, (rcols, rrows))| {
                rcols.iter().all(|&c| col_mask[c])
                    && rrows
                        .as_words()
                        .iter()
                        .zip(row_words)
                        .any(|(a, b)| a & b != 0)
            })
            .map(|(i, _)| i)
            .collect()
    }

    /// Number of distinct cells of the full table described by the given
    /// rules (`|⋃ cell(R, T)|`).
    pub fn union_cells(&self, rule_indices: &[usize]) -> usize {
        if self.num_rows == 0 || self.num_cols == 0 {
            return 0;
        }
        let bits = self.num_rows * self.num_cols;
        let mut bitset = vec![0u64; bits.div_ceil(64)];
        let mut count = 0usize;
        for &ri in rule_indices {
            let (cols, rows) = &self.rules[ri];
            for (wi, &row_word) in rows.as_words().iter().enumerate() {
                let mut w = row_word;
                while w != 0 {
                    let r = wi * 64 + w.trailing_zeros() as usize;
                    w &= w - 1;
                    let base = r * self.num_cols;
                    for &c in cols {
                        let bit = base + c;
                        let (word, off) = (bit / 64, bit % 64);
                        if bitset[word] & (1 << off) == 0 {
                            bitset[word] |= 1 << off;
                            count += 1;
                        }
                    }
                }
            }
        }
        count
    }

    /// Cell coverage of the sub-table defined by `rows`/`cols`
    /// (Definition 3.6, d3). Returns a value in `[0, 1]`; `0` when no rule
    /// exists (`upcov = 0`).
    pub fn cell_coverage(&self, rows: &[usize], cols: &[usize]) -> f64 {
        if self.upcov == 0 {
            return 0.0;
        }
        let covered = self.covered_rules(rows, cols);
        self.union_cells(&covered) as f64 / self.upcov as f64
    }

    /// Raw number of cells described by the covered rules (before
    /// normalisation) — handy for tests and for the greedy baseline's
    /// marginal-gain computations.
    pub fn covered_cells(&self, rows: &[usize], cols: &[usize]) -> usize {
        let covered = self.covered_rules(rows, cols);
        self.union_cells(&covered)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use subtab_binning::{Binner, BinningConfig};
    use subtab_data::Table;
    use subtab_rules::{MiningConfig, RuleMiner};

    fn setup() -> (BinnedTable, RuleSet) {
        let t = Table::builder()
            .column_i64(
                "cancelled",
                vec![Some(1), Some(1), Some(1), Some(0), Some(0), Some(0)],
            )
            .column_str(
                "dep",
                vec![None, None, None, Some("m"), Some("m"), Some("e")],
            )
            .column_i64(
                "year",
                vec![
                    Some(2015),
                    Some(2015),
                    Some(2015),
                    Some(2015),
                    Some(2016),
                    Some(2015),
                ],
            )
            .build()
            .unwrap();
        let binner = Binner::fit(&t, &BinningConfig::default()).unwrap();
        let binned = binner.apply(&t).unwrap();
        let rules = RuleMiner::new(MiningConfig {
            min_rule_size: 2,
            min_support: 0.2,
            min_confidence: 0.6,
            ..Default::default()
        })
        .mine(&binned);
        (binned, rules)
    }

    #[test]
    fn upcov_bounded_by_table_size() {
        let (binned, rules) = setup();
        let idx = CoverageIndex::build(&binned, &rules);
        assert!(idx.num_rules() > 0);
        assert!(idx.upcov() <= binned.num_rows() * binned.num_columns());
        assert!(idx.upcov() > 0);
    }

    #[test]
    fn full_table_has_coverage_one() {
        let (binned, rules) = setup();
        let idx = CoverageIndex::build(&binned, &rules);
        let all_rows: Vec<usize> = (0..binned.num_rows()).collect();
        let all_cols: Vec<usize> = (0..binned.num_columns()).collect();
        let cov = idx.cell_coverage(&all_rows, &all_cols);
        assert!((cov - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_subtable_has_zero_coverage() {
        let (binned, rules) = setup();
        let idx = CoverageIndex::build(&binned, &rules);
        assert_eq!(idx.cell_coverage(&[], &[]), 0.0);
        assert_eq!(idx.cell_coverage(&[0, 1], &[]), 0.0);
        let _ = binned;
    }

    #[test]
    fn coverage_is_monotone_in_rows_and_columns() {
        let (binned, rules) = setup();
        let idx = CoverageIndex::build(&binned, &rules);
        let all_cols: Vec<usize> = (0..binned.num_columns()).collect();
        let c1 = idx.cell_coverage(&[0], &all_cols);
        let c2 = idx.cell_coverage(&[0, 3], &all_cols);
        let c3 = idx.cell_coverage(&[0, 3, 4], &all_cols);
        assert!(c2 >= c1);
        assert!(c3 >= c2);
        let c_fewer_cols = idx.cell_coverage(&[0, 3], &all_cols[..2]);
        assert!(c_fewer_cols <= c2);
    }

    #[test]
    fn rule_covered_requires_all_columns_and_a_witness_row() {
        let (binned, rules) = setup();
        let idx = CoverageIndex::build(&binned, &rules);
        let all_cols: Vec<usize> = (0..binned.num_columns()).collect();
        // A cancelled row covers the cancelled-related rules.
        let with_witness = idx.covered_rules(&[0], &all_cols);
        assert!(!with_witness.is_empty());
        // Omitting rule columns uncovers those rules.
        let no_cols = idx.covered_rules(&[0], &[]);
        assert!(no_cols.is_empty());
        let _ = rules;
    }

    #[test]
    fn no_rules_means_zero_coverage() {
        let (binned, _) = setup();
        let idx = CoverageIndex::build(&binned, &RuleSet::default());
        assert_eq!(idx.upcov(), 0);
        assert_eq!(idx.cell_coverage(&[0], &[0, 1, 2]), 0.0);
    }

    #[test]
    fn out_of_range_indices_are_ignored() {
        let (binned, rules) = setup();
        let idx = CoverageIndex::build(&binned, &rules);
        let cols: Vec<usize> = (0..binned.num_columns()).collect();
        let cov_ok = idx.cell_coverage(&[0, 1], &cols);
        let cov_extra = idx.cell_coverage(&[0, 1, 999], &cols);
        assert!((cov_ok - cov_extra).abs() < 1e-12);
    }

    use subtab_rules::RuleSet;
}
