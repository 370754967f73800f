//! Cell coverage (Definition 3.6). [`CoverageIndex`] builds each rule's
//! matching rows `T_R` the way vertical miners count supports (Zaki, IEEE
//! TKDE 2000), as the AND of its items' row bitmaps from one
//! [`VerticalIndex`] of the table; `tests/coverage_oracle` keeps the
//! per-row-decoding build it replaced.

use subtab_binning::BinnedTable;
use subtab_data::Bitmap;
use subtab_rules::bitmap::VerticalIndex;
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
/// `T_R` is a row bitmap (one bit per row of the full table), and all of
/// them share one word array, as all column lists and column masks share
/// others. Mined rules hold on at least a `min_support` share of the rows,
/// so the bitmap is several times smaller than a row-index list at the
/// default support threshold, and both tests of [`covered_rules`] are
/// word-wise ANDs. Building the index allocates a fixed number of times per
/// table, whatever the number of rules.
///
/// [`covered_rules`]: CoverageIndex::covered_rules
#[derive(Debug, Clone)]
pub struct CoverageIndex {
    num_rows: usize,
    num_cols: usize,
    /// Words per row bitmap, `⌈num_rows / 64⌉`, and per column mask.
    row_words: usize,
    col_words: usize,
    /// Every rule's `T_R`, `row_words` words each, rule after rule.
    rows: Vec<u64>,
    /// Every rule's `U_R` as a column mask, `col_words` words each.
    masks: Vec<u64>,
    /// Every rule's columns `U_R`, ascending, rule after rule.
    columns: Vec<usize>,
    /// Rule `i`'s columns are `columns[column_starts[i]..column_starts[i + 1]]`.
    column_starts: Vec<usize>,
    upcov: usize,
}

impl CoverageIndex {
    /// Builds the index: each rule's `T_R` is the AND of its items' row
    /// bitmaps over the full binned table.
    pub fn build(binned: &BinnedTable, rules: &RuleSet) -> Self {
        let num_rows = binned.num_rows();
        let (num_cols, row_words) = (binned.num_columns(), num_rows.div_ceil(64));
        let col_words = num_cols.div_ceil(64);
        let mut rows = vec![0u64; rules.len() * row_words];
        let mut masks = vec![0u64; rules.len() * col_words];
        let mut columns = Vec::with_capacity(rules.num_items());
        let mut column_starts = Vec::with_capacity(rules.len() + 1);
        column_starts.push(0);
        if !rules.is_empty() {
            let vertical = VerticalIndex::build(binned, rules.interner(), None);
            let mut scratch = Bitmap::zeros(num_rows);
            for (i, rule) in rules.iter().enumerate() {
                // An item absent from the table leaves `T_R` empty.
                let ids = rule.item_ids().iter().copied();
                if vertical.support_count_into(ids, &mut scratch) > Some(0) {
                    rows[i * row_words..(i + 1) * row_words].copy_from_slice(scratch.as_words());
                }
                for c in rule.column_iter() {
                    masks[i * col_words + c / 64] |= 1 << (c % 64);
                    columns.push(c);
                }
                column_starts.push(columns.len());
            }
        }
        let mut index = CoverageIndex {
            num_rows,
            num_cols,
            row_words,
            col_words,
            rows,
            masks,
            columns,
            column_starts,
            upcov: 0,
        };
        index.upcov = index.count_upcov();
        index
    }

    /// The number of cells covered when every rule is covered, i.e.
    /// `union_cells` over all rules, counted column by column: cell
    /// `(r, c)` is covered iff `r` is in `T_R` of some rule `R` using `c`,
    /// so the count is the popcount of each column's OR of those `T_R`.
    fn count_upcov(&self) -> usize {
        let w = self.row_words;
        let mut per_column = vec![0u64; self.num_cols * w];
        for i in 0..self.num_rules() {
            let rows = self.rule_rows(i);
            for &c in self.rule_columns(i) {
                for (acc, word) in per_column[c * w..(c + 1) * w].iter_mut().zip(rows) {
                    *acc |= word;
                }
            }
        }
        per_column.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Number of rules in the index.
    pub fn num_rules(&self) -> usize {
        self.column_starts.len() - 1
    }

    /// The normalisation factor: the number of cells of the full table that
    /// are describable by *any* rule.
    pub fn upcov(&self) -> usize {
        self.upcov
    }

    /// `U_R` of rule `i`, ascending.
    fn rule_columns(&self, i: usize) -> &[usize] {
        &self.columns[self.column_starts[i]..self.column_starts[i + 1]]
    }

    /// The words of `T_R` of rule `i`.
    fn rule_rows(&self, i: usize) -> &[u64] {
        &self.rows[i * self.row_words..(i + 1) * self.row_words]
    }

    /// Indices of the rules covered by the sub-table defined by `rows` and
    /// `cols` (row/column indices into the full table).
    ///
    /// A rule is covered when all of its columns are among `cols` and at least
    /// one of `rows` is in its matching-row set (Definition 3.6, d1).
    pub fn covered_rules(&self, rows: &[usize], cols: &[usize]) -> Vec<usize> {
        let mut col_mask = vec![0u64; self.col_words];
        for &c in cols {
            if c < self.num_cols {
                col_mask[c / 64] |= 1 << (c % 64);
            }
        }
        let mut row_mask = Bitmap::zeros(self.num_rows);
        for &r in rows {
            if r < self.num_rows {
                row_mask.set(r);
            }
        }
        let row_words = row_mask.as_words();
        if row_words.is_empty() || col_mask.is_empty() {
            // A table without rows or columns covers nothing.
            return Vec::new();
        }
        self.masks
            .chunks_exact(self.col_words)
            .zip(self.rows.chunks_exact(self.row_words))
            .enumerate()
            .filter(|(_, (mask, rrows))| {
                mask.iter().zip(&col_mask).all(|(m, s)| m & !s == 0)
                    && rrows.iter().zip(row_words).any(|(a, b)| a & b != 0)
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
            let cols = self.rule_columns(ri);
            for (wi, &row_word) in self.rule_rows(ri).iter().enumerate() {
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
