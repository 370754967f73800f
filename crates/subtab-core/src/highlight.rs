//! Per-row association-rule highlighting (the optional UI extension of the
//! paper, shown in Figures 1–3: in each displayed row, the cells that
//! participate in one covered rule are coloured).
//!
//! Highlighting is an indexed probe over integer item ids: rules are
//! bucketed by their column mask, so a row only ever tests rules whose
//! columns are all currently selected, and each test is a merge of the
//! rule's sorted item-id slice against the row's own (column-ordered)
//! item-id list — no string comparison, no per-rule column materialisation.
//! The `highlight_equivalence` suite pins the probe to a linear scan over
//! every rule on the six planted datasets.

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

/// Rules bucketed by column mask, ready to be probed for any selection.
///
/// Build once per rule set (one pass over the rules); probing a selection
/// touches only the buckets whose mask is a subset of the selected columns.
#[derive(Debug)]
pub struct HighlightIndex<'r> {
    rules: &'r RuleSet,
    /// One bucket per distinct column mask (borrowed from the rule set's
    /// arena), with the indices of its rules ascending.
    buckets: Vec<(&'r [u64], Vec<usize>)>,
}

impl<'r> HighlightIndex<'r> {
    /// Buckets the rules of `rules` by their column masks.
    pub fn build(rules: &'r RuleSet) -> Self {
        let mut by_mask: HashMap<&'r [u64], Vec<usize>> = HashMap::new();
        for (i, rule) in rules.iter().enumerate() {
            by_mask.entry(rule.mask_words()).or_default().push(i);
        }
        let mut buckets: Vec<(&'r [u64], Vec<usize>)> = by_mask.into_iter().collect();
        // Deterministic bucket order (probe output is order-independent,
        // but determinism keeps Debug output and iteration stable).
        buckets.sort_by(|a, b| a.1[0].cmp(&b.1[0]));
        HighlightIndex { rules, buckets }
    }

    /// For every probed row, picks at most one rule to highlight: among the
    /// rules whose columns are all in `selected_columns` and which hold for
    /// the row, the largest one (most cells highlighted), ties broken by
    /// support, then by rule index. This mirrors the paper's "to avoid
    /// visual clutter we only highlight one rule per row".
    pub fn probe(
        &self,
        binned_full: &BinnedTable,
        row_indices: &[usize],
        selected_columns: &[String],
    ) -> Vec<Option<RuleHighlight>> {
        let interner = self.rules.interner();
        let mut selected = vec![0u64; binned_full.num_columns().div_ceil(64)];
        for c in selected_columns
            .iter()
            .filter_map(|c| binned_full.column_index(c))
        {
            selected[c / 64] |= 1 << (c % 64);
        }
        // Candidate rules: every rule in a bucket whose mask is a subset of
        // the selection, ordered best-first — the probe stops at the first
        // candidate that holds for the row. Best-first is (size desc,
        // support desc, index asc): the largest holding rule, ties broken
        // by support, then by index.
        let mut candidates: Vec<usize> = self
            .buckets
            .iter()
            .filter(|(mask, _)| mask.iter().zip(&selected).all(|(m, s)| m & !s == 0))
            .flat_map(|(_, idxs)| idxs.iter().copied())
            .collect();
        candidates.sort_by(|&a, &b| {
            let (ra, rb) = (self.rules.rule(a), self.rules.rule(b));
            // Rank by distinct-column count (what the UI colours).
            rb.num_columns()
                .cmp(&ra.num_columns())
                .then_with(|| rb.support.total_cmp(&ra.support))
                .then_with(|| a.cmp(&b))
        });
        if candidates.is_empty() {
            // No eligible rule (possibly an empty set with an empty
            // interner) — nothing to probe, nothing to decode.
            return vec![None; row_indices.len()];
        }
        // Rendered highlights are cached per rule: a rule highlighted on
        // many rows is decoded to strings once.
        let mut rendered: HashMap<usize, RuleHighlight> = HashMap::new();
        let num_cols = binned_full.num_columns();
        let mut row_ids: Vec<ItemId> = vec![0; num_cols];
        row_indices
            .iter()
            .map(|&row| {
                // The row's own item-id list, indexed by column (ids are
                // column-major, so this is also ascending by id).
                for (c, slot) in row_ids.iter_mut().enumerate() {
                    *slot = interner.row_item_id(binned_full, row, c);
                }
                let hit = candidates.iter().find(|&&i| {
                    // A rule holds iff each of its ids equals the row's id
                    // at that id's column — one item per column makes the
                    // jump direct, no per-candidate decoding needed.
                    self.rules
                        .rule(i)
                        .item_ids()
                        .iter()
                        .all(|&id| row_ids[interner.column_of(id)] == id)
                })?;
                let i = *hit;
                Some(
                    rendered
                        .entry(i)
                        .or_insert_with(|| {
                            let rule = self.rules.rule(i);
                            RuleHighlight {
                                rule_index: i,
                                columns: rule
                                    .column_iter()
                                    .map(|c| binned_full.column_names()[c].clone())
                                    .collect(),
                                description: rule.render(interner),
                            }
                        })
                        .clone(),
                )
            })
            .collect()
    }
}

/// Indexed per-row highlighting: builds a [`HighlightIndex`] and probes the
/// given rows. See [`HighlightIndex::probe`] for the selection semantics.
pub fn highlight_rules(
    binned_full: &BinnedTable,
    rules: &RuleSet,
    row_indices: &[usize],
    selected_columns: &[String],
) -> Vec<Option<RuleHighlight>> {
    HighlightIndex::build(rules).probe(binned_full, row_indices, selected_columns)
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
    fn buckets_group_rules_with_identical_masks() {
        let (_, rules) = setup();
        let index = HighlightIndex::build(&rules);
        assert!(!index.buckets.is_empty());
        assert!(index.buckets.len() <= rules.len());
    }
}
