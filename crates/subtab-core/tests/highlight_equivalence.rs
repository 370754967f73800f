//! Equivalence suite for rule highlighting: on all six planted datasets,
//! the one-pass probe ([`HighlightIndex::probe`]) must pick exactly the rule the
//! linear scan below picks, for every row of real selections and of fixed
//! column sets.
//!
//! Rules are mined with `mine_with_targets` at the benchmark target column.
//! Selections come from `select_sub_table` over the whole table and the
//! benchmark queries, at `8 × 4` and at the served `10 × 10`; the fixed
//! column sets are all columns, the first two, the first and third, and
//! none.

use subtab_binning::BinnedTable;
use subtab_core::{
    select_sub_table, HighlightIndex, PreprocessedTable, RuleHighlight, SelectionParams,
    SubTabConfig,
};
use subtab_datasets::{
    benchmark_ast_query, benchmark_deep_nest_query, benchmark_projected_query,
    benchmark_target_column, DatasetKind, DatasetSize,
};
use subtab_rules::{MiningConfig, RuleMiner, RuleSet};

const ALL_KINDS: [DatasetKind; 6] = [
    DatasetKind::Flights,
    DatasetKind::Cyber,
    DatasetKind::Spotify,
    DatasetKind::CreditCard,
    DatasetKind::UsFunds,
    DatasetKind::BankLoans,
];

/// The pre-refactor linear scan, preserved as the reference twin: for every
/// row, every rule of the set is tested (column containment and per-item
/// match), keeping the largest holding rule with support as the
/// tie-breaker. Output is pinned identical to [`HighlightIndex::probe`].
pub fn highlight_rules_linear(
    binned_full: &BinnedTable,
    rules: &RuleSet,
    row_indices: &[usize],
    selected_columns: &[String],
) -> Vec<Option<RuleHighlight>> {
    let interner = rules.interner();
    let selected_idx: Vec<usize> = selected_columns
        .iter()
        .filter_map(|c| binned_full.column_index(c))
        .collect();
    row_indices
        .iter()
        .map(|&row| {
            let mut best: Option<(usize, usize)> = None;
            for (i, rule) in rules.iter().enumerate() {
                let cols = rule.columns();
                if !cols.iter().all(|c| selected_idx.contains(c)) {
                    continue;
                }
                if !rule
                    .items(interner)
                    .all(|item| item.matches(binned_full, row))
                {
                    continue;
                }
                let better = match best {
                    None => true,
                    Some((b, size)) => {
                        cols.len() > size
                            || (cols.len() == size && rule.support > rules.rule(b).support)
                    }
                };
                if better {
                    best = Some((i, cols.len()));
                }
            }
            best.map(|(i, _)| {
                let rule = rules.rule(i);
                RuleHighlight {
                    rule_index: i,
                    columns: rule
                        .columns()
                        .iter()
                        .map(|&c| binned_full.column_names()[c].clone())
                        .collect(),
                    description: rule.render(interner),
                }
            })
        })
        .collect()
}

/// A support floor, rule-size cap and rule cap that keep the linear scan
/// (every rule per row) affordable under the debug test profile: the
/// paper's defaults pool hundreds of thousands of target rules on the wide
/// schemas.
fn mining_config() -> MiningConfig {
    MiningConfig {
        min_support: 0.2,
        max_rule_size: 3,
        max_rules: 20_000,
        ..Default::default()
    }
}

#[test]
fn probe_matches_the_linear_scan_on_real_selections() {
    for kind in ALL_KINDS {
        let dataset = kind.build(DatasetSize::Tiny, 7);
        let pre = PreprocessedTable::new(dataset.table, &SubTabConfig::fast()).unwrap();
        let binned = pre.binned();
        let target = benchmark_target_column(pre.table());
        let target_idx = binned.column_index(&target).expect("target column exists");
        let rules = RuleMiner::new(mining_config()).mine_with_targets(binned, &[target_idx]);
        assert!(
            !rules.is_empty(),
            "{kind:?}: planted data must produce rules"
        );

        let mut cases: Vec<(String, Vec<usize>, Vec<String>)> = Vec::new();
        let small = SelectionParams::new(8, 4).with_targets(&[target.as_str()]);
        let served = SelectionParams::new(10, 10).with_targets(&[target.as_str()]);
        let queries = [
            ("whole", None),
            ("projected", Some(benchmark_projected_query(pre.table()))),
            ("ast", Some(benchmark_ast_query(pre.table()))),
            ("deep-nest", Some(benchmark_deep_nest_query(pre.table()))),
        ];
        for (shape, params) in [("8x4", &small), ("10x10", &served)] {
            for (label, query) in &queries {
                let r = select_sub_table(&pre, query.as_ref(), params, 3, 1).unwrap();
                cases.push((format!("{label} {shape}"), r.row_indices, r.columns));
            }
        }
        let all_cols: Vec<String> = binned.column_names().to_vec();
        let rows: Vec<usize> = (0..binned.num_rows().min(64)).collect();
        for (label, cols) in [
            ("all columns", all_cols.clone()),
            ("first two", all_cols[..2].to_vec()),
            (
                "first and third",
                vec![all_cols[0].clone(), all_cols[2].clone()],
            ),
            ("no columns", Vec::new()),
        ] {
            cases.push((label.to_string(), rows.clone(), cols));
        }

        let mut highlighted = 0;
        for (label, rows, cols) in &cases {
            let probed = HighlightIndex::build(&rules).probe(binned, rows, cols);
            let linear = highlight_rules_linear(binned, &rules, rows, cols);
            assert_eq!(probed, linear, "{kind:?} {label}: {cols:?}");
            highlighted += probed.iter().flatten().count();
        }
        assert!(highlighted > 0, "{kind:?}: no row was highlighted");
    }
}
