//! Cell coverage (Definition 3.6). [`CoverageIndex`] builds the matching
//! rows `T_R` of each distinct itemset of the rules the way vertical miners
//! count supports (Zaki, IEEE TKDE 2000), as the AND of its items' row
//! bitmaps from one [`VerticalIndex`] of the table; `tests/coverage_oracle`
//! keeps the per-rule, per-row-decoding build and the cell-bitset union it
//! replaced.

use subtab_binning::BinnedTable;
use subtab_data::Bitmap;
use subtab_rules::bitmap::VerticalIndex;
use subtab_rules::RuleSet;

/// Pre-computed data for evaluating the cell coverage of sub-tables of one
/// table against one rule set.
///
/// For every rule `R` the index stores `U_R` (its columns, as a column mask)
/// and `T_R` (the rows of the *full* table for which it holds, as a row
/// bitmap), plus the normalisation factor `upcov = |⋃_R cell(R, T)|`. Both
/// depend only on the rule's itemset (antecedent ∪ consequent), and rules
/// that split one itemset differently share it: the 5 000-row flights
/// stand-in mines 16 288 rules over 2 761 itemsets at the default mining
/// config. So the index keeps one `T_R` and one `U_R` per distinct itemset;
/// since a covered-cell count is a union, that changes no count. All row
/// bitmaps share one word array and all column masks another, so building
/// the index allocates a fixed number of times per table, whatever the
/// number of rules.
///
/// A sub-table covers `R` when `U_R` lies in its columns and `T_R` meets its
/// rows (Definition 3.6, d1); both tests are word-wise ANDs. The cells of a
/// covered rule are `T_R × U_R`, all in selected columns, so cell `(r, c)` is
/// covered iff `r` is in the `T_R` of some covered rule using `c`. Counting
/// therefore ORs each covered rule's `T_R` into one row-bitmap accumulator
/// per selected column it uses, and sums the popcounts of those accumulators:
/// one pass over the itemsets, `l` row bitmaps for `l` selected columns.
/// `upcov` is the same count over all rows and columns.
#[derive(Debug, Clone)]
pub struct CoverageIndex {
    num_rows: usize,
    num_cols: usize,
    num_rules: usize,
    /// Words per row bitmap, `⌈num_rows / 64⌉`, and per column mask.
    row_words: usize,
    col_words: usize,
    /// Number of distinct itemsets.
    num_itemsets: usize,
    /// Every itemset's `T_R`, `row_words` words each, itemset after itemset.
    rows: Vec<u64>,
    /// Every itemset's `U_R` as a column mask, `col_words` words each.
    masks: Vec<u64>,
    upcov: usize,
}

impl CoverageIndex {
    /// Builds the index: each itemset's `T_R` is the AND of its items' row
    /// bitmaps over the full binned table.
    pub fn build(binned: &BinnedTable, rules: &RuleSet) -> Self {
        let (num_rows, num_cols) = (binned.num_rows(), binned.num_columns());
        let (row_words, col_words) = (num_rows.div_ceil(64), num_cols.div_ceil(64));
        let itemsets = distinct_itemsets(rules);
        let mut rows = vec![0u64; itemsets.len() * row_words];
        let mut masks = vec![0u64; itemsets.len() * col_words];
        if !itemsets.is_empty() {
            let vertical = VerticalIndex::build(binned, rules.interner(), None);
            let mut scratch = Bitmap::zeros(num_rows);
            for (i, rule) in itemsets.iter().map(|&r| rules.rule(r as usize)).enumerate() {
                // An item absent from the table leaves `T_R` empty.
                let ids = rule.item_ids().iter().copied();
                if vertical.support_count_into(ids, &mut scratch) > Some(0) {
                    rows[i * row_words..(i + 1) * row_words].copy_from_slice(scratch.as_words());
                }
                for c in rule.column_iter() {
                    masks[i * col_words + c / 64] |= 1 << (c % 64);
                }
            }
        }
        let mut index = CoverageIndex {
            num_rows,
            num_cols,
            num_rules: rules.len(),
            row_words,
            col_words,
            num_itemsets: itemsets.len(),
            rows,
            masks,
            upcov: 0,
        };
        let all_rows: Vec<usize> = (0..num_rows).collect();
        let all_cols: Vec<usize> = (0..num_cols).collect();
        index.upcov = index.covered_cells(&all_rows, &all_cols);
        index
    }

    /// Number of rules in the index.
    pub fn num_rules(&self) -> usize {
        self.num_rules
    }

    /// Number of distinct itemsets among the rules: the `T_R`/`U_R` pairs
    /// the index stores and a count visits.
    pub fn num_itemsets(&self) -> usize {
        self.num_itemsets
    }

    /// The normalisation factor: the number of cells of the full table that
    /// are describable by *any* rule.
    pub fn upcov(&self) -> usize {
        self.upcov
    }

    /// Cell coverage of the sub-table defined by `rows`/`cols`
    /// (Definition 3.6, d3). Returns a value in `[0, 1]`; `0` when no rule
    /// exists (`upcov = 0`).
    pub fn cell_coverage(&self, rows: &[usize], cols: &[usize]) -> f64 {
        if self.upcov == 0 {
            return 0.0;
        }
        self.covered_cells(rows, cols) as f64 / self.upcov as f64
    }

    /// Raw number of cells described by the covered rules (before
    /// normalisation). `rows` and `cols` index the full table; duplicates
    /// count once and out-of-range indices are ignored.
    pub fn covered_cells(&self, rows: &[usize], cols: &[usize]) -> usize {
        let mut selected_cols = vec![0u64; self.col_words];
        for &c in cols.iter().filter(|&&c| c < self.num_cols) {
            selected_cols[c / 64] |= 1 << (c % 64);
        }
        let mut selected_rows = Bitmap::zeros(self.num_rows);
        for &r in rows.iter().filter(|&&r| r < self.num_rows) {
            selected_rows.set(r);
        }
        let selected_rows = selected_rows.as_words();
        // Selected column `c` owns accumulator slot `rank(c)`, the number of
        // selected columns below it.
        let slots: usize = selected_cols.iter().map(|w| w.count_ones() as usize).sum();
        let w = self.row_words;
        let mut per_column = vec![0u64; slots * w];
        for i in 0..self.num_itemsets {
            let mask = &self.masks[i * self.col_words..(i + 1) * self.col_words];
            let rule_rows = &self.rows[i * w..(i + 1) * w];
            if mask.iter().zip(&selected_cols).any(|(m, s)| m & !s != 0)
                || !rule_rows.iter().zip(selected_rows).any(|(a, b)| a & b != 0)
            {
                continue;
            }
            let mut rank = 0;
            for (&m, &s) in mask.iter().zip(&selected_cols) {
                let mut bits = m;
                while bits != 0 {
                    let below = s & ((1 << bits.trailing_zeros()) - 1);
                    let slot = rank + below.count_ones() as usize;
                    bits &= bits - 1;
                    let acc = &mut per_column[slot * w..(slot + 1) * w];
                    for (a, word) in acc.iter_mut().zip(rule_rows) {
                        *a |= word;
                    }
                }
                rank += s.count_ones() as usize;
            }
        }
        per_column.iter().map(|w| w.count_ones() as usize).sum()
    }
}

/// One rule index per distinct itemset of `rules`, the first of its rules,
/// in rule order. An open-addressing table keys each rule by a sum of
/// per-item hashes, which ignores item order, so rules that split one
/// itemset differently (antecedent then consequent) meet in one chain; a
/// rule holds one item per column, so equal lengths and containment mean
/// equal sets. Two allocations, whatever the number of rules.
fn distinct_itemsets(rules: &RuleSet) -> Vec<u32> {
    const EMPTY: u32 = u32::MAX;
    let bits = (2 * rules.len()).next_power_of_two().trailing_zeros();
    let mut slots = vec![EMPTY; 1 << bits];
    let mask = (1usize << bits) - 1;
    let mut firsts = Vec::with_capacity(rules.len());
    // A rule set's arena offsets are `u32`, so rule indices fit one.
    for (i, rule) in (0u32..).zip(rules.iter()) {
        let items = rule.item_ids();
        let hash = items.iter().fold(0u64, |h, &id| {
            let x = u64::from(id).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            h.wrapping_add(x ^ (x >> 29))
        });
        let mut slot = (hash.wrapping_mul(0xBF58_476D_1CE4_E5B9) >> (64 - bits)) as usize;
        loop {
            let seen = slots[slot];
            if seen == EMPTY {
                slots[slot] = i;
                firsts.push(i);
                break;
            }
            let other = rules.rule(seen as usize).item_ids();
            if other.len() == items.len() && items.iter().all(|id| other.contains(id)) {
                break;
            }
            slot = (slot + 1) & mask;
        }
    }
    firsts
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
        assert!(idx.covered_cells(&[0], &all_cols) > 0);
        // Omitting rule columns uncovers those rules.
        assert_eq!(idx.covered_cells(&[0], &[]), 0);
        // Every rule uses at least two columns, so one column covers none
        // of them, whatever the rows.
        let all_rows: Vec<usize> = (0..binned.num_rows()).collect();
        assert!(rules.iter().all(|r| r.num_columns() >= 2));
        for c in 0..binned.num_columns() {
            assert_eq!(idx.covered_cells(&all_rows, &[c]), 0);
        }
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
