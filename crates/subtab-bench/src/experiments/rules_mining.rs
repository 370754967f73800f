//! Load-time rule-engine scaling: times association-rule mining through the
//! vertical bitmap engine against the preserved Apriori reference twin, and
//! per-row rule highlighting through the column-mask index against the
//! linear scan, emitting machine-readable JSON (`BENCH_rules.json`) for the
//! CI bench-regression gate.
//!
//! Rule mining runs once per loaded table (and once per target-column
//! choice) in the paper's architecture, feeding both the quality metrics
//! and the UI's per-row highlights; highlighting runs on every displayed
//! sub-table. Both are load-path costs the token-ID query engine of PR 4
//! does not cover, which is why they get their own gate.

use crate::experiments::common::ExperimentScale;
use crate::experiments::report::{best_of, format_rows, BenchReport, BenchRow, GatePolicy, Meta};
use subtab_binning::Binner;
use subtab_core::{highlight_rules, highlight_rules_linear};
use subtab_datasets::{benchmark_target_column, DatasetKind};
use subtab_rules::{MiningConfig, RuleMiner};

/// Label of the Apriori reference comparator (the gate's normalisation
/// reference, like `seed-legacy-1t` for the preprocess experiment).
const APRIORI_MODE: &str = "rules-apriori-1t";

/// The rules gate: every mining and highlight mode, normalised to the
/// Apriori twin of the same capture (a fixed algorithm running in the same
/// process on the same data).
pub const POLICY: GatePolicy = GatePolicy {
    reference_mode: APRIORI_MODE,
    wall_threshold: 0.25,
    rss_factor: None,
    rss_ceiling: None,
    ratio_floors: &[],
};

/// The headline ratios, `(key, slow mode, fast mode)`: the wall-time
/// ratio of the slow mode over the fast one.
const SPEEDUPS: &[(&str, &str, &str)] = &[
    // Single-core speedup of the vertical engine on whole-table mining.
    ("speedup_bitmap_vs_apriori", APRIORI_MODE, "rules-bitmap-1t"),
    // The same for the target-partitioned run (smaller: the pooled
    // post-processing is shared by both engines).
    (
        "target_speedup_bitmap_vs_apriori",
        "rules-target-apriori-1t",
        "rules-target-bitmap-1t",
    ),
    (
        "highlight_speedup_indexed_vs_linear",
        "highlight-linear-1t",
        "highlight-indexed-1t",
    ),
];

/// Which rule-engine stage a benchmark mode runs.
#[derive(Clone, Copy)]
enum Workload {
    /// Whole-table mining with the Apriori twin.
    MineApriori,
    /// Whole-table mining with the bitmap engine.
    MineBitmap,
    /// Target-partitioned mining with the Apriori twin.
    TargetApriori,
    /// Target-partitioned mining with the bitmap engine.
    TargetBitmap,
    /// Per-row highlighting via the preserved linear scan.
    HighlightLinear,
    /// Per-row highlighting via the column-mask index.
    HighlightIndexed,
}

/// The benchmark modes: `(label, threads, workload)`. The headline
/// `rules-*` modes time whole-table mining — the pure engine-vs-engine
/// comparison; `rules-target-*` modes time the Section 6.1 per-target-bin
/// run, whose pooled post-processing (global support recompute, dedup,
/// deterministic sort) is shared by both engines and therefore dilutes the
/// ratio; highlight modes time one full-selection highlight pass over the
/// probe rows with the target-mined rules.
const MODES: &[(&str, usize, Workload)] = &[
    (APRIORI_MODE, 1, Workload::MineApriori),
    ("rules-bitmap-1t", 1, Workload::MineBitmap),
    ("rules-bitmap-4t", 4, Workload::MineBitmap),
    ("rules-target-apriori-1t", 1, Workload::TargetApriori),
    ("rules-target-bitmap-1t", 1, Workload::TargetBitmap),
    ("highlight-linear-1t", 1, Workload::HighlightLinear),
    ("highlight-indexed-1t", 1, Workload::HighlightIndexed),
];

/// Runs the scaling benchmark on the Flights stand-in (the paper's largest).
pub fn run(scale: ExperimentScale) -> BenchReport {
    run_on(DatasetKind::Flights, scale, 3)
}

/// Runs the benchmark on an explicit dataset with `reps` repetitions per
/// mode (best-of wall time is reported, damping scheduler noise).
pub fn run_on(kind: DatasetKind, scale: ExperimentScale, reps: usize) -> BenchReport {
    let dataset = kind.build(scale.dataset_size(), 31);
    let config = scale.subtab_config();
    let binner = Binner::fit(&dataset.table, &config.binning).expect("binning fits");
    let binned = binner.apply(&dataset.table).expect("binning applies");
    let target = benchmark_target_column(&dataset.table);
    let target_idx = binned.column_index(&target).expect("target column exists");
    let mining = MiningConfig::default();

    // Rules for the highlight modes and the mode sanity asserts, mined once
    // (engine choice does not matter — outputs are pinned identical).
    let plain_rules = RuleMiner::new(mining.clone()).mine(&binned);
    let rules = RuleMiner::new(mining.clone()).mine_with_targets(&binned, &[target_idx]);
    let all_columns: Vec<String> = binned.column_names().to_vec();
    let probe_rows: Vec<usize> = (0..binned.num_rows().min(512)).collect();

    let mut rows = Vec::new();
    for &(mode, threads, workload) in MODES {
        let wall_ms = best_of(reps, || match workload {
            Workload::MineApriori => {
                let r = RuleMiner::new(mining.clone()).mine_apriori(&binned);
                assert_eq!(r.len(), plain_rules.len());
            }
            Workload::MineBitmap => {
                let r = RuleMiner::new(mining.clone().with_threads(threads)).mine(&binned);
                assert_eq!(r.len(), plain_rules.len());
            }
            Workload::TargetApriori => {
                let r = RuleMiner::new(mining.clone())
                    .mine_with_targets_apriori(&binned, &[target_idx]);
                assert_eq!(r.len(), rules.len());
            }
            Workload::TargetBitmap => {
                let r = RuleMiner::new(mining.clone().with_threads(threads))
                    .mine_with_targets(&binned, &[target_idx]);
                assert_eq!(r.len(), rules.len());
            }
            Workload::HighlightLinear => {
                assert_highlights(highlight_rules_linear(
                    &binned,
                    &rules,
                    &probe_rows,
                    &all_columns,
                ));
            }
            Workload::HighlightIndexed => {
                assert_highlights(highlight_rules(&binned, &rules, &probe_rows, &all_columns));
            }
        });
        rows.push(BenchRow {
            threads: Some(threads),
            ..BenchRow::new(mode, wall_ms)
        });
    }
    let mut report = BenchReport::new(
        "rules_scaling",
        vec![
            ("dataset", Meta::Text(kind.label().to_string())),
            ("rows", Meta::Count(binned.num_rows())),
            ("cols", Meta::Count(binned.num_columns())),
            // Rules mined by one whole-table run (both engines mine the
            // identical set — the equivalence suite pins that).
            ("num_rules", Meta::Count(plain_rules.len())),
            // Rules pooled by the target-partitioned run.
            ("num_target_rules", Meta::Count(rules.len())),
            // Rows highlighted per highlight-mode invocation.
            ("highlight_rows", Meta::Count(probe_rows.len())),
        ],
        rows,
    );
    report.ratios = report.speedups(SPEEDUPS);
    report
}

fn assert_highlights(h: Vec<Option<subtab_core::RuleHighlight>>) {
    assert!(
        h.iter().any(Option::is_some),
        "planted data must produce at least one highlight"
    );
}

/// Renders the report as an aligned text table.
pub fn render(report: &BenchReport) -> String {
    format!(
        "Rule engine on {} ({} rows × {} cols, {} rules / {} target-pooled, {} highlighted rows): \
         bitmap miner {:.2}x over the Apriori twin single-core ({:.2}x on the target-partitioned \
         run incl. shared pooling), highlight index {:.2}x over the linear scan\n{}",
        report.meta("dataset"),
        report.meta("rows"),
        report.meta("cols"),
        report.meta("num_rules"),
        report.meta("num_target_rules"),
        report.meta("highlight_rows"),
        report.ratio("speedup_bitmap_vs_apriori"),
        report.ratio("target_speedup_bitmap_vs_apriori"),
        report.ratio("highlight_speedup_indexed_vs_linear"),
        format_rows(&report.rows)
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::report::tests::{assert_round_trip, assert_wall_gate};
    use std::sync::OnceLock;

    /// The benchmark is slow under the debug test profile, so every test
    /// shares one report.
    fn tiny_report() -> &'static BenchReport {
        static REPORT: OnceLock<BenchReport> = OnceLock::new();
        REPORT.get_or_init(|| run_on(DatasetKind::Spotify, ExperimentScale::Quick, 1))
    }

    #[test]
    fn report_covers_every_mode_with_positive_times() {
        let report = tiny_report();
        assert_eq!(report.rows.len(), MODES.len());
        assert!(report.rows.iter().all(|r| r.wall_ms > 0.0));
        for &(key, ..) in SPEEDUPS {
            assert!(report.ratio(key) > 0.0, "{key}");
        }
        for key in ["num_rules", "num_target_rules", "highlight_rows"] {
            assert_ne!(
                report.meta(key),
                &Meta::Count(0),
                "{key}: planted data must produce rules"
            );
        }
        let rendered = render(report);
        assert!(rendered.contains("wall-ms"));
        assert!(rendered.contains(APRIORI_MODE));
    }

    #[test]
    fn json_round_trips_through_the_shared_parser() {
        assert_round_trip(tiny_report());
    }

    #[test]
    fn gate_passes_against_itself_and_catches_regressions() {
        assert_wall_gate(tiny_report(), &POLICY);
    }

    #[test]
    fn mining_modes_time_identical_rule_sets() {
        // The assert inside the timed loop already pins rule counts; this
        // re-checks the full equality contract once at test scale.
        let dataset = DatasetKind::Cyber.build(subtab_datasets::DatasetSize::Tiny, 31);
        let binner = Binner::fit(
            &dataset.table,
            &ExperimentScale::Quick.subtab_config().binning,
        )
        .unwrap();
        let binned = binner.apply(&dataset.table).unwrap();
        let t = binned
            .column_index(&benchmark_target_column(&dataset.table))
            .unwrap();
        let miner = RuleMiner::new(MiningConfig::default());
        let apriori = miner.mine_with_targets_apriori(&binned, &[t]);
        let bitmap = miner.mine_with_targets(&binned, &[t]);
        assert_eq!(apriori.rules, bitmap.rules);
    }

    #[test]
    fn highlight_modes_agree_on_real_selections() {
        let dataset = DatasetKind::Cyber.build(subtab_datasets::DatasetSize::Tiny, 31);
        let binner = Binner::fit(
            &dataset.table,
            &ExperimentScale::Quick.subtab_config().binning,
        )
        .unwrap();
        let binned = binner.apply(&dataset.table).unwrap();
        let t = binned
            .column_index(&benchmark_target_column(&dataset.table))
            .unwrap();
        let rules = RuleMiner::new(MiningConfig::default()).mine_with_targets(&binned, &[t]);
        let cols: Vec<String> = binned.column_names().to_vec();
        let rows: Vec<usize> = (0..binned.num_rows().min(64)).collect();
        let indexed = highlight_rules(&binned, &rules, &rows, &cols);
        let linear = highlight_rules_linear(&binned, &rules, &rows, &cols);
        assert_eq!(indexed, linear);
    }
}
