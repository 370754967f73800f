//! The combined informativeness score (Equation 3) and the [`Evaluator`].

use crate::coverage::CoverageIndex;
use crate::diversity::subtable_diversity;
use subtab_binning::BinnedTable;
use subtab_rules::RuleSet;

/// The three quality numbers of one sub-table.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SubTableScore {
    /// Cell coverage in `[0, 1]` (Definition 3.6).
    pub cell_coverage: f64,
    /// Diversity in `[0, 1]` (Definition 3.7).
    pub diversity: f64,
    /// `α · cellCov + (1 − α) · diversity` (Equation 3).
    pub combined: f64,
}

/// Evaluates candidate sub-tables of one table against one rule set.
///
/// The evaluator owns the binned full table, the coverage index and the
/// trade-off parameter `α`; sub-tables are identified by row indices and
/// column indices into the full table, which is exactly the form in which the
/// selection algorithms produce them.
#[derive(Debug, Clone)]
pub struct Evaluator {
    binned: BinnedTable,
    index: CoverageIndex,
    alpha: f64,
}

impl Evaluator {
    /// Creates an evaluator. `alpha` is clamped to `[0, 1]`; the paper's
    /// default is `0.5`.
    pub fn new(binned: BinnedTable, rules: &RuleSet, alpha: f64) -> Self {
        let index = CoverageIndex::build(&binned, rules);
        Evaluator {
            binned,
            index,
            alpha: alpha.clamp(0.0, 1.0),
        }
    }

    /// The trade-off parameter α.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// The underlying coverage index.
    pub fn coverage_index(&self) -> &CoverageIndex {
        &self.index
    }

    /// The binned full table the evaluator was built on.
    pub fn binned(&self) -> &BinnedTable {
        &self.binned
    }

    /// Scores the sub-table given by `rows` (row indices into the full table)
    /// and `cols` (column indices into the full table). Indices out of range
    /// are ignored by both metrics; diversity is read from the full table's
    /// codes, so no sub-table is copied.
    pub fn score(&self, rows: &[usize], cols: &[usize]) -> SubTableScore {
        let cell_coverage = self.index.cell_coverage(rows, cols);
        let diversity = subtable_diversity(&self.binned, rows, cols);
        SubTableScore {
            cell_coverage,
            diversity,
            combined: self.alpha * cell_coverage + (1.0 - self.alpha) * diversity,
        }
    }

    /// Cell coverage only (used by the greedy baseline, which optimises
    /// coverage and ignores diversity, as in Algorithm 1).
    pub fn cell_coverage(&self, rows: &[usize], cols: &[usize]) -> f64 {
        self.index.cell_coverage(rows, cols)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use subtab_binning::{Binner, BinningConfig};
    use subtab_data::Table;
    use subtab_rules::{MiningConfig, RuleMiner};

    fn evaluator(alpha: f64) -> (Evaluator, usize, usize) {
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
            ..Default::default()
        })
        .mine(&binned);
        let (n, m) = (binned.num_rows(), binned.num_columns());
        (Evaluator::new(binned, &rules, alpha), n, m)
    }

    #[test]
    fn score_components_are_in_range_and_combined_matches_formula() {
        let (ev, n, m) = evaluator(0.5);
        let rows = vec![0, 3, 5];
        let cols: Vec<usize> = (0..m).collect();
        let s = ev.score(&rows, &cols);
        assert!((0.0..=1.0).contains(&s.cell_coverage));
        assert!((0.0..=1.0).contains(&s.diversity));
        let expected = 0.5 * s.cell_coverage + 0.5 * s.diversity;
        assert!((s.combined - expected).abs() < 1e-12);
        let _ = n;
    }

    #[test]
    fn alpha_extremes_reduce_to_single_metrics() {
        let (ev_cov, _, m) = evaluator(1.0);
        let (ev_div, _, _) = evaluator(0.0);
        let rows = vec![0, 4];
        let cols: Vec<usize> = (0..m).collect();
        let sc = ev_cov.score(&rows, &cols);
        assert!((sc.combined - sc.cell_coverage).abs() < 1e-12);
        let sd = ev_div.score(&rows, &cols);
        assert!((sd.combined - sd.diversity).abs() < 1e-12);
    }

    #[test]
    fn alpha_is_clamped() {
        let (ev, _, _) = evaluator(7.0);
        assert_eq!(ev.alpha(), 1.0);
        let (ev, _, _) = evaluator(-3.0);
        assert_eq!(ev.alpha(), 0.0);
    }

    #[test]
    fn cell_coverage_shortcut_matches_score() {
        let (ev, _, m) = evaluator(0.5);
        let rows = vec![1, 4];
        let cols: Vec<usize> = (0..m).collect();
        assert!(
            (ev.cell_coverage(&rows, &cols) - ev.score(&rows, &cols).cell_coverage).abs() < 1e-12
        );
    }

    #[test]
    fn out_of_range_indices_are_ignored_by_both_metrics() {
        let (ev, n, m) = evaluator(0.5);
        let inside = ev.score(&[0, 1, 3], &[0, 1, 2]);
        let outside = ev.score(&[0, 1, n + 5, 3], &[0, m + 2, 1, 2]);
        assert_eq!(outside, inside);
        assert_eq!(
            ev.score(&[n, n + 1], &[0, 1]),
            ev.score(&[], &[0, 1]),
            "rows that are all out of range score as the empty sub-table"
        );
    }

    #[test]
    fn score_diversity_equals_the_materialised_subtable() {
        let (ev, n, m) = evaluator(0.5);
        let all_cols: Vec<usize> = (0..m).collect();
        let all_rows: Vec<usize> = (0..n).collect();
        for (rows, cols) in [
            (vec![0, 3, 5], all_cols.clone()),
            (vec![5, 1, 1, 4], vec![2, 0]),
            (all_rows, vec![1]),
            (vec![2, 3], vec![]),
        ] {
            let sub = ev.binned().take_rows(&rows).take_columns(&cols);
            assert_eq!(
                ev.score(&rows, &cols).diversity.to_bits(),
                crate::diversity(&sub).to_bits(),
                "rows {rows:?} cols {cols:?}"
            );
        }
    }

    #[test]
    fn accessors() {
        let (ev, n, m) = evaluator(0.5);
        assert_eq!(ev.binned().num_rows(), n);
        assert_eq!(ev.binned().num_columns(), m);
        assert!(ev.coverage_index().num_rules() > 0);
    }
}
