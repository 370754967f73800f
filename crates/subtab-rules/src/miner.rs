//! End-to-end rule mining with the paper's parameters.
//!
//! Two mining engines share one rule-generation step, so their output is
//! identical rule for rule:
//!
//! * the **vertical bitmap engine** ([`crate::bitmap`]) — the production
//!   path: per-item row bitmaps, popcount supports, column-ordered prefix
//!   extension, optional scoped-thread fan-out;
//! * the **Apriori reference twin** ([`crate::apriori`]) — the preserved
//!   seed architecture (level-wise candidates, one row scan per candidate),
//!   kept as the correctness oracle for the equivalence suite and as the
//!   comparator the `rules` benchmark quotes speedups against.

use crate::apriori::{self, FrequentItemset};
use crate::bitmap::{self, VerticalIndex};
use crate::interner::{ItemId, ItemInterner};
use crate::rule::{AssociationRule, ColumnMask, RuleSet};
use serde::{Deserialize, Serialize};
use std::sync::Arc;
use subtab_binning::BinnedTable;
use subtab_kernels::map_indexed;

/// Parameters of the rule-mining step.
///
/// The defaults match the paper's experimental setup (Section 6.1): support
/// threshold 0.1, confidence threshold 0.6, minimum rule size 3.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MiningConfig {
    /// Minimum support (fraction of rows) of a rule.
    pub min_support: f64,
    /// Minimum confidence of a rule.
    pub min_confidence: f64,
    /// Minimum number of items in a rule (antecedent + consequent).
    pub min_rule_size: usize,
    /// Maximum number of items in a rule. Bounds the lattice depth; the
    /// paper's figures use rules of size 3–4.
    pub max_rule_size: usize,
    /// Maximum number of rules kept. `0` = unlimited.
    ///
    /// Truncation is fully deterministic: rules are ordered by support
    /// (descending), then confidence (descending), then ascending
    /// antecedent and consequent item ids. The id tie-break makes the kept
    /// set — and its order — independent of engine, thread count and run,
    /// even when many rules share a support/confidence pair.
    pub max_rules: usize,
    /// Worker threads for the bitmap engine (`0` = all available cores,
    /// `1` = sequential). Plain mining fans out over lattice root subtrees;
    /// target mining fans out over (target column, bin) partitions. The
    /// mined rules are identical at every thread count.
    pub threads: usize,
}

impl Default for MiningConfig {
    fn default() -> Self {
        MiningConfig {
            min_support: 0.1,
            min_confidence: 0.6,
            min_rule_size: 3,
            max_rule_size: 4,
            max_rules: 0,
            threads: 1,
        }
    }
}

impl MiningConfig {
    /// Sets the worker-thread count of the bitmap engine.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }
}

/// Which frequent-itemset engine a mining run uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Engine {
    /// Level-wise reference twin (always sequential).
    Apriori,
    /// Vertical bitmap miner (production path).
    Bitmap,
}

/// Association-rule miner over binned tables.
#[derive(Debug, Clone, Default)]
pub struct RuleMiner {
    config: MiningConfig,
}

impl RuleMiner {
    /// Creates a miner with the given configuration.
    pub fn new(config: MiningConfig) -> Self {
        RuleMiner { config }
    }

    /// The miner's configuration.
    pub fn config(&self) -> &MiningConfig {
        &self.config
    }

    /// Mines association rules over all rows of `binned` with the vertical
    /// bitmap engine.
    pub fn mine(&self, binned: &BinnedTable) -> RuleSet {
        self.mine_with_engine(binned, Engine::Bitmap)
    }

    /// Mines with the preserved Apriori reference twin. Produces the exact
    /// same rule set as [`RuleMiner::mine`] (same rules, supports,
    /// confidences and order); exists as the correctness oracle and the
    /// benchmark comparator.
    pub fn mine_apriori(&self, binned: &BinnedTable) -> RuleSet {
        self.mine_with_engine(binned, Engine::Apriori)
    }

    fn mine_with_engine(&self, binned: &BinnedTable, engine: Engine) -> RuleSet {
        let interner = Arc::new(ItemInterner::from_binned(binned));
        let rules = self.mine_rows(binned, &interner, None, engine, self.config.threads);
        RuleSet::new(rules, binned.num_rows(), interner)
    }

    /// Mines rules separately within each bin of each target column and pools
    /// the results, following Section 6.1 of the paper ("when target columns
    /// are selected by the user, the data is split according to the binned
    /// values of the target columns; the rules are then mined over each subset
    /// separately"). Only rules that actually use a target column are kept.
    /// Partitions fan out across the configured worker threads.
    pub fn mine_with_targets(&self, binned: &BinnedTable, target_columns: &[usize]) -> RuleSet {
        self.mine_with_targets_engine(binned, target_columns, Engine::Bitmap)
    }

    /// Target mining through the Apriori reference twin (sequential); the
    /// oracle counterpart of [`RuleMiner::mine_with_targets`].
    pub fn mine_with_targets_apriori(
        &self,
        binned: &BinnedTable,
        target_columns: &[usize],
    ) -> RuleSet {
        self.mine_with_targets_engine(binned, target_columns, Engine::Apriori)
    }

    fn mine_with_targets_engine(
        &self,
        binned: &BinnedTable,
        target_columns: &[usize],
        engine: Engine,
    ) -> RuleSet {
        if target_columns.is_empty() {
            return self.mine_with_engine(binned, engine);
        }
        let interner = Arc::new(ItemInterner::from_binned(binned));
        // One pass per target column builds every bin's row list at once
        // (the codes slice is scanned exactly once per target, not once per
        // (target, bin) pair).
        let mut partitions: Vec<(usize, usize, Vec<usize>)> = Vec::new();
        for &tc in target_columns {
            let mut bins: Vec<Vec<usize>> = vec![Vec::new(); binned.num_bins(tc)];
            for (r, &code) in binned.codes(tc).iter().enumerate() {
                bins[code as usize].push(r);
            }
            for (bin, rows) in bins.into_iter().enumerate() {
                if !rows.is_empty() {
                    partitions.push((tc, bin, rows));
                }
            }
        }

        // Mine every partition; the bitmap engine fans partitions out across
        // scoped workers, each partition mined sequentially. Results land in
        // the partition's slot, so pooling order — and therefore the final
        // rule set — is independent of scheduling.
        let mine_partition = |(tc, bin, rows): &(usize, usize, Vec<usize>)| {
            let mut rules = self.mine_rows(binned, &interner, Some(rows), engine, 1);
            // Keep only rules mentioning a target column; the split
            // guarantees the target item is constant within the subset, so
            // add it to the consequent when missing.
            let target_id = interner.id_of(*tc, *bin as subtab_binning::BinId);
            for rule in &mut rules {
                if !rule.uses_any_column(target_columns) {
                    rule.consequent.push(target_id);
                    rule.consequent.sort_unstable();
                    rule.column_mask.insert(*tc);
                }
            }
            rules
        };
        let threads = match engine {
            Engine::Apriori => 1,
            Engine::Bitmap => self.config.threads,
        };
        let mut all: Vec<AssociationRule> = map_indexed(threads, partitions.len(), |i| {
            mine_partition(&partitions[i])
        })
        .into_iter()
        .flatten()
        .collect();

        // Deduplicate identical `(antecedent, consequent)` pairs in one hash
        // pass — partitions overlap on rules that don't mention the split
        // column, and the first partition's copy wins, exactly as the old
        // sort-then-dedup kept the first occurrence under a stable sort.
        // Deduplicating *before* the global recompute means each distinct
        // rule is recounted once, and the deterministic output order below
        // needs a single sort (the old pooled path sorted twice).
        let mut seen: std::collections::HashSet<(Vec<ItemId>, Vec<ItemId>)> =
            std::collections::HashSet::with_capacity(all.len());
        all.retain(|r| seen.insert((r.antecedent.clone(), r.consequent.clone())));

        // Recompute global support over the full table for comparability.
        // The bitmap engine ANDs full-table item bitmaps; the twin keeps its
        // per-rule row scans.
        let n = binned.num_rows().max(1) as f64;
        match engine {
            Engine::Bitmap => {
                let vertical = VerticalIndex::build(binned, &interner, None);
                let mut scratch = subtab_data::Bitmap::zeros(binned.num_rows());
                for rule in &mut all {
                    rule.support_count = vertical
                        .support_count_into(rule.item_ids(), &mut scratch)
                        .expect("rules are never empty");
                    rule.support = rule.support_count as f64 / n;
                }
            }
            Engine::Apriori => {
                let full_rows: Vec<usize> = (0..binned.num_rows()).collect();
                for rule in &mut all {
                    let items: Vec<ItemId> = rule.item_ids().collect();
                    rule.support_count =
                        apriori::support_count(binned, &interner, &items, &full_rows);
                    rule.support = rule.support_count as f64 / n;
                }
            }
        }
        let rules = self.cap(all);
        RuleSet::new(rules, binned.num_rows(), interner)
    }

    fn mine_rows(
        &self,
        binned: &BinnedTable,
        interner: &ItemInterner,
        rows: Option<&[usize]>,
        engine: Engine,
        threads: usize,
    ) -> Vec<AssociationRule> {
        let cfg = &self.config;
        let levels = match engine {
            Engine::Apriori => apriori::frequent_itemsets(
                binned,
                interner,
                cfg.min_support,
                cfg.max_rule_size,
                rows,
            ),
            Engine::Bitmap => bitmap::frequent_itemsets_bitmap(
                binned,
                interner,
                cfg.min_support,
                cfg.max_rule_size,
                rows,
                threads,
            ),
        };
        let n = rows.map_or(binned.num_rows(), <[usize]>::len);
        let mut rules = Vec::new();
        // One pair of split buffers for the whole run: candidate splits that
        // fail the confidence threshold allocate nothing.
        let mut scratch = SplitScratch::default();
        for level in levels.iter().skip(cfg.min_rule_size.saturating_sub(1)) {
            for itemset in level {
                if itemset.items.len() < cfg.min_rule_size {
                    continue;
                }
                self.rules_from_itemset(
                    binned,
                    interner,
                    n,
                    rows,
                    itemset,
                    &levels,
                    &mut scratch,
                    &mut rules,
                );
            }
        }
        self.cap(rules)
    }

    /// Sorts by (support desc, confidence desc, antecedent ids, consequent
    /// ids) — a total order over distinct rules, so truncation under
    /// `max_rules` keeps a deterministic set in a deterministic order (see
    /// [`MiningConfig::max_rules`]).
    fn cap(&self, mut rules: Vec<AssociationRule>) -> Vec<AssociationRule> {
        rules.sort_by(|a, b| {
            b.support
                .total_cmp(&a.support)
                .then_with(|| b.confidence.total_cmp(&a.confidence))
                .then_with(|| a.antecedent.cmp(&b.antecedent))
                .then_with(|| a.consequent.cmp(&b.consequent))
        });
        if self.config.max_rules > 0 && rules.len() > self.config.max_rules {
            rules.truncate(self.config.max_rules);
        }
        rules
    }

    /// Generates all rules `A → C` from a frequent itemset with non-empty
    /// antecedent and consequent, meeting the confidence threshold. Shared
    /// by both engines: subset supports come from the (identical) frequent
    /// levels, so the resulting statistics are bit-equal.
    #[allow(clippy::too_many_arguments)]
    fn rules_from_itemset(
        &self,
        binned: &BinnedTable,
        interner: &ItemInterner,
        n: usize,
        rows: Option<&[usize]>,
        itemset: &FrequentItemset,
        levels: &[Vec<FrequentItemset>],
        scratch: &mut SplitScratch,
        out: &mut Vec<AssociationRule>,
    ) {
        let nf = n as f64;
        let items = &itemset.items;
        let k = items.len();
        // Every proper subset of a frequent itemset is frequent
        // (anti-monotonicity), so `lookup_count` almost always hits; the
        // scan fallback only exists for defensive completeness.
        let count_of = |subset: &[ItemId]| {
            lookup_count(levels, subset).unwrap_or_else(|| {
                let all_rows: Vec<usize>;
                let rows = match rows {
                    Some(r) => r,
                    None => {
                        all_rows = (0..binned.num_rows()).collect();
                        &all_rows
                    }
                };
                apriori::support_count(binned, interner, subset, rows)
            })
        };
        // One column mask per itemset: every antecedent/consequent split
        // shares it.
        let column_mask = ColumnMask::from_columns(items.iter().map(|&id| interner.column_of(id)));
        // Enumerate non-empty proper subsets as consequents via bitmasks.
        // Rule sizes are small (≤ max_rule_size ≤ ~5), so this is cheap.
        // Splits land in the reusable scratch buffers; the owned item
        // vectors are only allocated once a split has passed every
        // threshold, so rejected candidates are allocation-free.
        for mask in 1u32..((1u32 << k) - 1) {
            scratch.antecedent.clear();
            scratch.consequent.clear();
            for (i, &item) in items.iter().enumerate() {
                if mask & (1 << i) != 0 {
                    scratch.consequent.push(item);
                } else {
                    scratch.antecedent.push(item);
                }
            }
            let ante_count = count_of(&scratch.antecedent);
            if ante_count == 0 {
                continue;
            }
            let confidence = itemset.count as f64 / ante_count as f64;
            if confidence < self.config.min_confidence {
                continue;
            }
            let cons_count = count_of(&scratch.consequent);
            let cons_support = cons_count as f64 / nf;
            let lift = if cons_support > 0.0 {
                confidence / cons_support
            } else {
                0.0
            };
            out.push(AssociationRule {
                antecedent: scratch.antecedent.clone(),
                consequent: scratch.consequent.clone(),
                column_mask: column_mask.clone(),
                support: itemset.count as f64 / nf,
                support_count: itemset.count,
                confidence,
                lift,
            });
        }
    }
}

/// Reusable antecedent/consequent split buffers for rule generation.
#[derive(Debug, Default)]
struct SplitScratch {
    antecedent: Vec<ItemId>,
    consequent: Vec<ItemId>,
}

fn lookup_count(levels: &[Vec<FrequentItemset>], items: &[ItemId]) -> Option<usize> {
    let level = levels.get(items.len().checked_sub(1)?)?;
    level
        .binary_search_by(|fi| fi.items.as_slice().cmp(items))
        .ok()
        .map(|idx| level[idx].count)
}

#[cfg(test)]
mod tests {
    use super::*;
    use subtab_binning::{Binner, BinningConfig};
    use subtab_data::Table;

    /// Table with a strong 3-column pattern: cancelled flights are in 2015
    /// with NaN departure time; non-cancelled flights have a departure time.
    fn flights_binned() -> BinnedTable {
        let mut cancelled = Vec::new();
        let mut dep = Vec::new();
        let mut year = Vec::new();
        let mut sched = Vec::new();
        for i in 0..40 {
            if i < 16 {
                cancelled.push(Some(1));
                dep.push(None);
                year.push(Some(2015));
                sched.push(Some(if i % 2 == 0 { "afternoon" } else { "morning" }));
            } else {
                cancelled.push(Some(0));
                dep.push(Some(if i % 2 == 0 { "morning" } else { "evening" }));
                year.push(Some(if i % 8 == 0 { 2016 } else { 2015 }));
                sched.push(Some(if i % 2 == 0 { "morning" } else { "evening" }));
            }
        }
        let t = Table::builder()
            .column_i64("cancelled", cancelled)
            .column_str("dep_time", dep)
            .column_i64("year", year)
            .column_str("sched_dep", sched)
            .build()
            .unwrap();
        let binner = Binner::fit(&t, &BinningConfig::default()).unwrap();
        binner.apply(&t).unwrap()
    }

    #[test]
    fn mines_the_planted_pattern() {
        let bt = flights_binned();
        let rules = RuleMiner::new(MiningConfig::default()).mine(&bt);
        assert!(!rules.is_empty());
        let c = bt.column_index("cancelled").unwrap();
        let d = bt.column_index("dep_time").unwrap();
        let y = bt.column_index("year").unwrap();
        // Some rule must connect cancelled, dep_time and year.
        let found = rules.iter().any(|r| {
            let cols = r.columns();
            cols.contains(&c) && cols.contains(&d) && cols.contains(&y)
        });
        assert!(found, "expected the planted 3-column rule to be mined");
    }

    #[test]
    fn thresholds_are_respected() {
        let bt = flights_binned();
        let cfg = MiningConfig::default();
        let rules = RuleMiner::new(cfg.clone()).mine(&bt);
        for r in rules.iter() {
            assert!(r.support >= cfg.min_support - 1e-12);
            assert!(r.confidence >= cfg.min_confidence - 1e-12);
            assert!(r.size() >= cfg.min_rule_size);
            assert!(r.size() <= cfg.max_rule_size);
            assert!(!r.antecedent.is_empty());
            assert!(!r.consequent.is_empty());
            // No column repeated within a rule.
            let cols = r.columns();
            assert_eq!(cols.len(), r.size());
        }
    }

    #[test]
    fn apriori_twin_produces_the_same_rules() {
        let bt = flights_binned();
        for cfg in [
            MiningConfig::default(),
            MiningConfig {
                min_rule_size: 2,
                min_support: 0.2,
                ..Default::default()
            },
        ] {
            let miner = RuleMiner::new(cfg);
            let bitmap = miner.mine(&bt);
            let apriori = miner.mine_apriori(&bt);
            assert_eq!(bitmap.rules, apriori.rules);
        }
    }

    #[test]
    fn higher_support_threshold_yields_fewer_rules() {
        let bt = flights_binned();
        let low = RuleMiner::new(MiningConfig {
            min_support: 0.1,
            ..Default::default()
        })
        .mine(&bt);
        let high = RuleMiner::new(MiningConfig {
            min_support: 0.3,
            ..Default::default()
        })
        .mine(&bt);
        assert!(high.len() <= low.len());
    }

    #[test]
    fn higher_confidence_threshold_yields_fewer_rules() {
        let bt = flights_binned();
        let low = RuleMiner::new(MiningConfig {
            min_confidence: 0.5,
            ..Default::default()
        })
        .mine(&bt);
        let high = RuleMiner::new(MiningConfig {
            min_confidence: 0.9,
            ..Default::default()
        })
        .mine(&bt);
        assert!(high.len() <= low.len());
    }

    #[test]
    fn max_rules_cap() {
        let bt = flights_binned();
        let capped = RuleMiner::new(MiningConfig {
            max_rules: 3,
            min_rule_size: 2,
            ..Default::default()
        })
        .mine(&bt);
        assert!(capped.len() <= 3);
    }

    #[test]
    fn truncation_tie_break_is_deterministic() {
        let bt = flights_binned();
        let cfg = MiningConfig {
            max_rules: 5,
            min_rule_size: 2,
            min_support: 0.15,
            min_confidence: 0.5,
            ..Default::default()
        };
        let reference = RuleMiner::new(cfg.clone()).mine(&bt);
        // Same capped set and order from the twin engine and at any thread
        // count, even with equal-support/equal-confidence rules in play.
        assert_eq!(
            RuleMiner::new(cfg.clone()).mine_apriori(&bt).rules,
            reference.rules
        );
        for threads in [2, 4] {
            let threaded = RuleMiner::new(cfg.clone().with_threads(threads)).mine(&bt);
            assert_eq!(threaded.rules, reference.rules, "threads = {threads}");
        }
        // The documented order: support desc, confidence desc, then ids.
        for pair in reference.rules.windows(2) {
            let ord = pair[1]
                .support
                .total_cmp(&pair[0].support)
                .then_with(|| pair[1].confidence.total_cmp(&pair[0].confidence))
                .then_with(|| pair[0].antecedent.cmp(&pair[1].antecedent))
                .then_with(|| pair[0].consequent.cmp(&pair[1].consequent));
            assert!(ord != std::cmp::Ordering::Greater);
        }
    }

    #[test]
    fn rule_support_matches_manual_count() {
        let bt = flights_binned();
        let rules = RuleMiner::new(MiningConfig {
            min_rule_size: 2,
            ..Default::default()
        })
        .mine(&bt);
        for r in rules.iter().take(10) {
            let manual = r.matching_rows(rules.interner(), &bt).len();
            assert_eq!(manual, r.support_count);
            assert!((r.support - manual as f64 / bt.num_rows() as f64).abs() < 1e-12);
        }
    }

    #[test]
    fn target_mining_only_keeps_rules_with_target() {
        let bt = flights_binned();
        let c = bt.column_index("cancelled").unwrap();
        let rules = RuleMiner::new(MiningConfig {
            min_rule_size: 2,
            ..Default::default()
        })
        .mine_with_targets(&bt, &[c]);
        assert!(!rules.is_empty());
        for r in rules.iter() {
            assert!(r.uses_any_column(&[c]));
        }
    }

    #[test]
    fn target_mining_matches_the_apriori_twin_at_any_thread_count() {
        let bt = flights_binned();
        let c = bt.column_index("cancelled").unwrap();
        let y = bt.column_index("year").unwrap();
        let cfg = MiningConfig {
            min_rule_size: 2,
            ..Default::default()
        };
        let oracle = RuleMiner::new(cfg.clone()).mine_with_targets_apriori(&bt, &[c, y]);
        for threads in [1, 2, 4] {
            let got =
                RuleMiner::new(cfg.clone().with_threads(threads)).mine_with_targets(&bt, &[c, y]);
            assert_eq!(got.rules, oracle.rules, "threads = {threads}");
        }
    }

    #[test]
    fn target_mining_with_empty_targets_equals_plain_mining() {
        let bt = flights_binned();
        let miner = RuleMiner::new(MiningConfig::default());
        let a = miner.mine(&bt);
        let b = miner.mine_with_targets(&bt, &[]);
        assert_eq!(a.len(), b.len());
    }

    #[test]
    fn empty_table_yields_no_rules() {
        let t = Table::builder()
            .column_i64("x", Vec::new())
            .build()
            .unwrap();
        let binner = Binner::fit(&t, &BinningConfig::default()).unwrap();
        let bt = binner.apply(&t).unwrap();
        let rules = RuleMiner::new(MiningConfig::default()).mine(&bt);
        assert!(rules.is_empty());
    }
}
