//! The [`SubTab`] facade: preprocess once, select many times.

use crate::config::{SelectionParams, SubTabConfig};
use crate::highlight::HighlightIndex;
use crate::preprocess::PreprocessedTable;
use crate::result::SubTableResult;
use crate::select::select_sub_table;
use crate::Result;
use subtab_data::{Query, Table};
use subtab_rules::{MiningConfig, RuleMiner, RuleSet};

/// The SubTab system for one loaded table.
///
/// Construction runs the (comparatively expensive) pre-processing phase;
/// [`SubTab::select`] and [`SubTab::select_for_query`] then produce
/// informative sub-tables in interactive time, for the table itself and for
/// every exploratory query issued over it.
#[derive(Debug)]
pub struct SubTab {
    pre: PreprocessedTable,
    config: SubTabConfig,
}

impl SubTab {
    /// Runs pre-processing (normalise, bin, embed) on `table`.
    pub fn preprocess(table: Table, config: SubTabConfig) -> Result<Self> {
        let pre = PreprocessedTable::new(table, &config)?;
        Ok(SubTab { pre, config })
    }

    /// The pre-processed artefacts (binner, binned table, embedding).
    pub fn preprocessed(&self) -> &PreprocessedTable {
        &self.pre
    }

    /// The original table.
    pub fn table(&self) -> &Table {
        self.pre.table()
    }

    /// The configuration used at pre-processing time.
    pub fn config(&self) -> &SubTabConfig {
        &self.config
    }

    /// Selects a `k × l` sub-table of the full table.
    pub fn select(&self, params: &SelectionParams) -> Result<SubTableResult> {
        select_sub_table(
            &self.pre,
            None,
            params,
            self.config.seed,
            self.config.threads,
        )
    }

    /// Selects a `k × l` sub-table of the result of an SP query over the
    /// table, reusing the pre-processed binning and embedding (the cheap
    /// query-time path of Figure 1).
    pub fn select_for_query(
        &self,
        query: &Query,
        params: &SelectionParams,
    ) -> Result<SubTableResult> {
        select_sub_table(
            &self.pre,
            Some(query),
            params,
            self.config.seed,
            self.config.threads,
        )
    }

    /// [`SubTab::select_for_query`] with a per-session
    /// [`LeafBitmapCache`](crate::compile::LeafBitmapCache), so an
    /// exploration session that refines one predicate at a time recompiles
    /// only the changed leaf. Bit-identical to the uncached path.
    pub fn select_for_query_cached(
        &self,
        query: &Query,
        params: &SelectionParams,
        cache: &crate::compile::LeafBitmapCache,
    ) -> Result<SubTableResult> {
        crate::select::select_sub_table_cached(
            &self.pre,
            Some(query),
            params,
            self.config.seed,
            self.config.threads,
            Some(cache),
        )
    }

    /// Mines association rules over the binned table — the load-time step
    /// that feeds [`SubTab::with_highlights`] and the quality metrics. Runs
    /// the vertical bitmap engine with this SubTab's configured thread
    /// budget (the `threads` field of `mining` is overridden).
    pub fn mine_rules(&self, mining: &MiningConfig) -> RuleSet {
        let config = MiningConfig {
            threads: self.config.threads,
            ..mining.clone()
        };
        RuleMiner::new(config).mine(self.pre.binned())
    }

    /// Like [`SubTab::mine_rules`], but partitioned by the binned values of
    /// the given target columns (Section 6.1 of the paper).
    pub fn mine_rules_for_targets(
        &self,
        mining: &MiningConfig,
        target_columns: &[usize],
    ) -> RuleSet {
        let config = MiningConfig {
            threads: self.config.threads,
            ..mining.clone()
        };
        RuleMiner::new(config).mine_with_targets(self.pre.binned(), target_columns)
    }

    /// Attaches per-row rule highlights to a selection result (the optional
    /// coloured-pattern display of the paper's UI). The rules are typically
    /// mined once per table with [`SubTab::mine_rules`].
    ///
    /// Each call makes one pass over the rule set (see
    /// [`HighlightIndex::probe`]); there is no index to build or keep.
    pub fn with_highlights(&self, result: SubTableResult, rules: &RuleSet) -> SubTableResult {
        self.with_highlights_indexed(result, &HighlightIndex::build(rules))
    }

    /// Like [`SubTab::with_highlights`], but probing a [`HighlightIndex`]
    /// view the caller already holds. Both give the same highlights at the
    /// same cost.
    pub fn with_highlights_indexed(
        &self,
        mut result: SubTableResult,
        index: &HighlightIndex<'_>,
    ) -> SubTableResult {
        result.highlights = index.probe(self.pre.binned(), &result.row_indices, &result.columns);
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use subtab_data::{Predicate, Value};
    use subtab_datasets::{flights, DatasetSize};

    fn flights_subtab() -> SubTab {
        let ds = flights(DatasetSize::Tiny, 7);
        SubTab::preprocess(ds.table, SubTabConfig::fast()).unwrap()
    }

    #[test]
    fn end_to_end_selection_on_the_flights_standin() {
        let subtab = flights_subtab();
        let params = SelectionParams::new(10, 10).with_targets(&["CANCELLED"]);
        let r = subtab.select(&params).unwrap();
        assert_eq!(r.sub_table.num_rows(), 10);
        assert_eq!(r.sub_table.num_columns(), 10);
        assert!(r.columns.contains(&"CANCELLED".to_string()));
    }

    #[test]
    fn query_time_selection_reuses_preprocessing() {
        let subtab = flights_subtab();
        let q = Query::new().filter(Predicate::eq("CANCELLED", Value::Int(1)));
        let r = subtab
            .select_for_query(&q, &SelectionParams::new(5, 6))
            .unwrap();
        assert_eq!(r.sub_table.num_rows(), 5);
        for &row in &r.row_indices {
            assert_eq!(
                subtab.table().value(row, "CANCELLED").unwrap(),
                Value::Int(1)
            );
        }
    }

    #[test]
    fn highlights_attach_rules_to_rows() {
        let subtab = flights_subtab();
        let rules = subtab.mine_rules(&MiningConfig {
            min_rule_size: 2,
            ..Default::default()
        });
        let params = SelectionParams::new(8, 10).with_targets(&["CANCELLED"]);
        let r = subtab.select(&params).unwrap();
        let r = subtab.with_highlights(r, &rules);
        assert_eq!(r.highlights.len(), 8);
        // At least one row of a planted dataset should carry a highlight.
        assert!(r.highlights.iter().any(Option::is_some));
        assert!(!r.render_with_highlights().is_empty());
        // Probing through a held view produces the identical result.
        let index = HighlightIndex::build(&rules);
        let again = subtab.select(&params).unwrap();
        let again = subtab.with_highlights_indexed(again, &index);
        assert_eq!(again.highlights, r.highlights);
    }

    #[test]
    fn target_mining_through_the_facade_keeps_target_rules() {
        let subtab = flights_subtab();
        let binned = subtab.preprocessed().binned();
        let c = binned.column_index("CANCELLED").unwrap();
        let rules = subtab.mine_rules_for_targets(
            &MiningConfig {
                min_rule_size: 2,
                ..Default::default()
            },
            &[c],
        );
        assert!(!rules.is_empty());
        assert!(rules.iter().all(|r| r.uses_any_column(&[c])));
    }

    #[test]
    fn accessors() {
        let subtab = flights_subtab();
        assert_eq!(subtab.table().num_columns(), 31);
        assert_eq!(subtab.config().seed, SubTabConfig::fast().seed);
        assert!(!subtab.preprocessed().embedding().is_empty());
    }
}
