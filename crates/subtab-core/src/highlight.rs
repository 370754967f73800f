//! Per-row association-rule highlighting (the optional UI extension of the
//! paper, shown in Figures 1–3: in each displayed row, the cells that
//! participate in one covered rule are coloured).
//!
//! Highlighting is one pass over the rule arena in index order, on integer
//! item ids: a rule whose column mask is not a subset of the selected
//! columns is skipped after a few word ANDs, and a rule is tested against a
//! row only if it would beat the row's best rule so far. Nothing is built,
//! hashed by mask or sorted. The `highlight_equivalence` suite pins the
//! probe to a linear scan over every rule on the six planted datasets.

use std::collections::HashMap;
use subtab_binning::BinnedTable;
use subtab_rules::{ItemId, RuleSet};

/// A rule highlighted for one sub-table row.
#[derive(Debug, Clone, PartialEq)]
pub struct RuleHighlight {
    /// Index of the rule within the [`RuleSet`] it was probed from — the
    /// stable id a UI can use to deduplicate, colour or look the rule up
    /// without re-parsing the description.
    pub rule_index: usize,
    /// Columns participating in the rule (cells to colour).
    pub columns: Vec<String>,
    /// Human-readable rendering of the rule.
    pub description: String,
}

/// A borrowed view of a [`RuleSet`] that highlights selections; it holds
/// no derived state, so building one costs nothing.
#[derive(Debug, Clone, Copy)]
pub struct HighlightIndex<'r> {
    rules: &'r RuleSet,
}

impl<'r> HighlightIndex<'r> {
    /// A view of `rules`.
    pub fn build(rules: &'r RuleSet) -> Self {
        HighlightIndex { rules }
    }

    /// For every probed row, picks at most one rule to highlight: among the
    /// rules whose columns are all in `selected_columns` and which hold for
    /// the row, the largest one (most distinct columns, so most cells
    /// highlighted), ties broken by greater support, then by lower rule
    /// index. This mirrors the paper's "to avoid visual clutter we only
    /// highlight one rule per row". Rows outside `binned_full` get `None`.
    pub fn probe(
        &self,
        binned_full: &BinnedTable,
        row_indices: &[usize],
        selected_columns: &[String],
    ) -> Vec<Option<RuleHighlight>> {
        let mut highlights = vec![None; row_indices.len()];
        let interner = self.rules.interner();
        let num_cols = binned_full.num_columns().min(interner.num_columns());
        let cols: Vec<usize> = selected_columns
            .iter()
            .filter_map(|c| binned_full.column_index(c))
            .filter(|&c| c < num_cols)
            .collect();
        if cols.is_empty() {
            // No rule fits; an empty set's interner has no columns, so this
            // also returns before any id lookup.
            return highlights;
        }
        let mut selected = vec![0u64; interner.num_columns().div_ceil(64)];
        // The probed rows inside the table, each with its item id at every
        // selected column (the only columns a fitting rule reads).
        let probed: Vec<usize> = (0..row_indices.len())
            .filter(|&p| row_indices[p] < binned_full.num_rows())
            .collect();
        let mut row_ids: Vec<ItemId> = vec![0; probed.len() * num_cols];
        for &c in &cols {
            selected[c / 64] |= 1 << (c % 64);
            for (ids, &p) in row_ids.chunks_exact_mut(num_cols).zip(&probed) {
                ids[c] = interner.row_item_id(binned_full, row_indices[p], c);
            }
        }
        // Each probed row's best holding rule so far: (distinct columns,
        // support, index), 0 columns for none. Only a strictly better rule
        // replaces it, so among equal rules the lowest index wins.
        let mut best: Vec<(usize, f64, usize)> = vec![(0, 0.0, 0); probed.len()];
        for (i, rule) in self.rules.iter().enumerate() {
            let mask = rule.mask_words();
            if mask.iter().zip(&selected).any(|(m, s)| m & !s != 0) {
                continue;
            }
            let (size, support, items) = (rule.num_columns(), rule.support, rule.item_ids());
            for (slot, ids) in best.iter_mut().zip(row_ids.chunks_exact(num_cols)) {
                let beats = size > slot.0 || (size == slot.0 && support.total_cmp(&slot.1).is_gt());
                // One item per column: the rule holds iff each of its ids is
                // the row's id at that id's column.
                if beats && items.iter().all(|&id| ids[interner.column_of(id)] == id) {
                    *slot = (size, support, i);
                }
            }
        }
        // A rule highlighted on many rows is decoded to strings once.
        let mut rendered: HashMap<usize, RuleHighlight> = HashMap::new();
        for (&p, (size, _, i)) in probed.iter().zip(best) {
            highlights[p] = (size > 0).then(|| {
                let rule = self.rules.rule(i);
                let render = || RuleHighlight {
                    rule_index: i,
                    columns: rule
                        .column_iter()
                        .map(|c| binned_full.column_names()[c].clone())
                        .collect(),
                    description: rule.render(interner),
                };
                rendered.entry(i).or_insert_with(render).clone()
            });
        }
        highlights
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use subtab_binning::{Binner, BinningConfig};
    use subtab_data::Table;
    use subtab_rules::{MiningConfig, RuleMiner};

    fn highlight_rules(
        binned: &BinnedTable,
        rules: &RuleSet,
        rows: &[usize],
        cols: &[String],
    ) -> Vec<Option<RuleHighlight>> {
        HighlightIndex::build(rules).probe(binned, rows, cols)
    }

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
            ..Default::default()
        })
        .mine(&binned);
        (binned, rules)
    }

    #[test]
    fn highlights_one_rule_per_matching_row() {
        let (binned, rules) = setup();
        let cols: Vec<String> = binned.column_names().to_vec();
        let highlights = highlight_rules(&binned, &rules, &[0, 3], &cols);
        assert_eq!(highlights.len(), 2);
        // Row 0 is a cancelled row with NaN dep — a planted pattern, so a
        // highlight must exist and mention at least two columns.
        let h0 = highlights[0].as_ref().expect("row 0 should be highlighted");
        assert!(h0.columns.len() >= 2);
        assert!(h0.description.contains('→'));
        assert!(h0.rule_index < rules.len());
    }

    #[test]
    fn no_highlight_when_rule_columns_are_not_selected() {
        let (binned, rules) = setup();
        // Only one column selected: no rule of size >= 2 fits.
        let highlights = highlight_rules(&binned, &rules, &[0], &["cancelled".to_string()]);
        assert!(highlights[0].is_none());
    }

    #[test]
    fn empty_rules_give_no_highlights() {
        let (binned, _) = setup();
        let cols: Vec<String> = binned.column_names().to_vec();
        let highlights = highlight_rules(&binned, &RuleSet::default(), &[0, 1], &cols);
        assert!(highlights.iter().all(Option::is_none));
    }

    #[test]
    fn out_of_range_rows_give_no_highlight() {
        let (binned, rules) = setup();
        let cols: Vec<String> = binned.column_names().to_vec();
        let inside = highlight_rules(&binned, &rules, &[0, 3], &cols);
        let mixed = highlight_rules(&binned, &rules, &[0, 6, usize::MAX, 3], &cols);
        assert_eq!(
            mixed,
            vec![inside[0].clone(), None, None, inside[1].clone()]
        );
    }

    /// The item id of each column of `cols` in `row`.
    fn ids(binned: &BinnedTable, rules: &RuleSet, row: usize, cols: &[usize]) -> Vec<ItemId> {
        cols.iter()
            .map(|&c| rules.interner().row_item_id(binned, row, c))
            .collect()
    }

    #[test]
    fn equal_rules_go_to_the_lowest_index() {
        let (binned, mined) = setup();
        let [a, b] = ids(&binned, &mined, 0, &[0, 1])[..] else {
            unreachable!()
        };
        // One itemset, two splits: same columns, same support.
        let mut rules = RuleSet::new(6, mined.interner().clone());
        rules.push(&[b], &[a], 3, 0.5, 1.0, 2.0);
        rules.push(&[a], &[b], 3, 0.5, 1.0, 2.0);
        let cols: Vec<String> = binned.column_names().to_vec();
        let h = highlight_rules(&binned, &rules, &[0], &cols);
        assert_eq!(h[0].as_ref().map(|h| h.rule_index), Some(0));
    }

    #[test]
    fn a_larger_rule_that_fails_on_the_row_yields_to_one_that_holds() {
        let (binned, mined) = setup();
        let [a, b] = ids(&binned, &mined, 0, &[0, 1])[..] else {
            unreachable!()
        };
        // Row 4's year (2016) is not row 0's.
        let year = ids(&binned, &mined, 4, &[2])[0];
        let mut rules = RuleSet::new(6, mined.interner().clone());
        rules.push(&[a], &[b, year], 1, 0.9, 1.0, 2.0);
        rules.push(&[a], &[b], 3, 0.5, 1.0, 2.0);
        let cols: Vec<String> = binned.column_names().to_vec();
        let h = highlight_rules(&binned, &rules, &[0, 4], &cols);
        let h0 = h[0].as_ref().expect("the two-column rule holds on row 0");
        assert_eq!(h0.rule_index, 1);
        assert_eq!(h0.columns, ["cancelled", "dep"]);
        assert!(h[1].is_none(), "neither rule holds on row 4");
    }

    #[test]
    fn no_highlight_when_no_rule_fits_the_selection() {
        let (binned, mined) = setup();
        let [a, b] = ids(&binned, &mined, 0, &[0, 1])[..] else {
            unreachable!()
        };
        let mut rules = RuleSet::new(6, mined.interner().clone());
        rules.push(&[a], &[b], 3, 0.5, 1.0, 2.0);
        let cols = ["cancelled".to_string(), "year".to_string()];
        let h = highlight_rules(&binned, &rules, &[0, 1, 2], &cols);
        assert!(!rules.is_empty());
        assert_eq!(h, vec![None; 3]);
    }
}
