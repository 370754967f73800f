//! Load-time rule-engine scaling: times association-rule mining through the
//! vertical bitmap engine, whole-table and target-partitioned, per-row rule
//! highlighting (one pass over the rule arena per selection), the coverage
//! index the quality metrics build over a rule set and the sub-table scores
//! read from it, emitting machine-readable JSON (`BENCH_rules.json`) for
//! the CI bench-regression gate.
//!
//! Rule mining runs once per loaded table (and once per target-column
//! choice) in the paper's architecture, feeding both the quality metrics
//! and the UI's per-row highlights; highlighting runs on every displayed
//! sub-table (timed large and in the server's `10 × 10` shape), and every
//! quality evaluation starts by building the coverage index. The baselines
//! (RAN, MAB, Greedy) then score thousands of candidate sub-tables each. None of these costs is covered by the query
//! gate, which is why they get their own gate.

use crate::experiments::common::ExperimentScale;
use crate::experiments::report::{
    best_of_each_with, format_rows, BenchReport, BenchRow, GatePolicy, Meta,
};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use subtab_binning::Binner;
use subtab_core::HighlightIndex;
use subtab_datasets::{benchmark_target_column, DatasetKind};
use subtab_metrics::Evaluator;
use subtab_rules::{MiningConfig, RuleMiner};

/// The rules gate: normalised wall times of every mining and highlight
/// mode.
pub const POLICY: GatePolicy = GatePolicy::WALL_ONLY;

/// Which rule-engine stage a benchmark mode runs.
#[derive(Clone, Copy)]
enum Workload {
    /// Whole-table mining.
    Mine,
    /// Target-partitioned mining.
    Target,
    /// One highlight pass over 512 rows and every column.
    Highlight,
    /// Highlighting [`SERVED_DRAWS`] served-shape selections.
    HighlightServed,
    /// `Evaluator::new` (the coverage-index build) over the plain rules.
    Coverage,
    /// `Evaluator::score` over seeded random sub-tables, plain rules.
    Score,
}

/// Sub-tables per score-mode run.
const SCORE_DRAWS: usize = 2_000;

/// Selections per served-highlight run.
const SERVED_DRAWS: usize = 200;

/// The benchmark modes: `(label, threads, workload)`. The `rules-*` modes
/// time whole-table mining; `rules-target-*` times the Section 6.1
/// per-target-bin run with its pooled post-processing (global support
/// recompute, dedup, deterministic sort); `highlight-1t` times one
/// full-selection highlight pass over the probe rows with the target-mined
/// rules; `highlight-served-1t` highlights [`SERVED_DRAWS`] seeded `10 × 10`
/// selections (the first score draws, with the target column leading up to
/// 9 of each draw's columns) against target rules mined at the server's
/// `min_support 0.2, max_rule_size 3`; the coverage mode times one
/// `Evaluator::new` over the whole-table rules (the binned table it takes by value is cloned before
/// the clock starts); the score mode sums the combined scores of
/// [`SCORE_DRAWS`] seeded random `10 × 10` sub-tables through one evaluator
/// over the whole-table rules, built and drawn before the clock starts.
const MODES: &[(&str, usize, Workload)] = &[
    ("rules-bitmap-1t", 1, Workload::Mine),
    ("rules-bitmap-4t", 4, Workload::Mine),
    ("rules-target-bitmap-1t", 1, Workload::Target),
    ("highlight-1t", 1, Workload::Highlight),
    ("highlight-served-1t", 1, Workload::HighlightServed),
    ("coverage-index-1t", 1, Workload::Coverage),
    ("score-1t", 1, Workload::Score),
];

/// Runs the scaling benchmark on the Flights stand-in (the paper's largest).
pub fn run(scale: ExperimentScale) -> BenchReport {
    run_on(DatasetKind::Flights, scale, 8)
}

/// Runs the benchmark on an explicit dataset with `reps` repetitions per
/// mode, taken in rounds over all modes (best-of wall time is reported,
/// damping scheduler noise).
pub fn run_on(kind: DatasetKind, scale: ExperimentScale, reps: usize) -> BenchReport {
    let dataset = kind.build(scale.dataset_size(), 31);
    let config = scale.subtab_config();
    let binner = Binner::fit(&dataset.table, &config.binning).expect("binning fits");
    let binned = binner.apply(&dataset.table).expect("binning applies");
    let target = benchmark_target_column(&dataset.table);
    let target_idx = binned.column_index(&target).expect("target column exists");
    let mining = MiningConfig::default();

    // Rules for the highlight mode and the mode sanity asserts, mined once.
    let plain_rules = RuleMiner::new(mining.clone()).mine(&binned);
    let rules = RuleMiner::new(mining.clone()).mine_with_targets(&binned, &[target_idx]);
    let all_columns: Vec<String> = binned.column_names().to_vec();
    let probe_rows: Vec<usize> = (0..binned.num_rows().min(512)).collect();
    let served_rules = RuleMiner::new(MiningConfig {
        min_support: 0.2,
        max_rule_size: 3,
        ..mining.clone()
    })
    .mine_with_targets(&binned, &[target_idx]);
    let draws = random_subtables(binned.num_rows(), binned.num_columns());
    let selections: Vec<(&[usize], Vec<String>)> = draws[..SERVED_DRAWS]
        .iter()
        .map(|(rows, cols)| {
            let others = cols.iter().copied().filter(|&c| c != target_idx);
            let cols = std::iter::once(target_idx).chain(others).take(10);
            (&rows[..], cols.map(|c| all_columns[c].clone()).collect())
        })
        .collect();
    let served_index = HighlightIndex::build(&served_rules);
    let served = || {
        selections
            .iter()
            .map(|(rows, cols)| served_index.probe(&binned, rows, cols))
    };
    let expected_served = served().collect::<Vec<_>>();
    assert!(expected_served.iter().flatten().any(Option::is_some));
    let evaluator = Evaluator::new(binned.clone(), &plain_rules, 0.5);
    let score_sum = || -> f64 {
        draws
            .iter()
            .map(|(rows, cols)| evaluator.score(rows, cols).combined)
            .sum()
    };
    let expected_score_sum = score_sum();

    let miners: Vec<RuleMiner> = MODES
        .iter()
        .map(|&(_, threads, _)| RuleMiner::new(mining.clone().with_threads(threads)))
        .collect();
    let setup = |i: usize| matches!(MODES[i].2, Workload::Coverage).then(|| binned.clone());
    let walls = best_of_each_with(reps, MODES.len(), setup, |i, table| match MODES[i].2 {
        Workload::Mine => assert_eq!(miners[i].mine(&binned).len(), plain_rules.len()),
        Workload::Target => assert_eq!(
            miners[i].mine_with_targets(&binned, &[target_idx]).len(),
            rules.len()
        ),
        Workload::Highlight => {
            let h = HighlightIndex::build(&rules).probe(&binned, &probe_rows, &all_columns);
            assert!(
                h.iter().any(Option::is_some),
                "planted data must produce at least one highlight"
            );
        }
        Workload::HighlightServed => assert!(served().zip(&expected_served).all(|(h, e)| h == *e)),
        Workload::Coverage => {
            let table = table.expect("the coverage mode gets a table");
            let evaluator = Evaluator::new(table, &plain_rules, 0.5);
            assert_eq!(evaluator.coverage_index().num_rules(), plain_rules.len());
        }
        Workload::Score => assert_eq!(score_sum().to_bits(), expected_score_sum.to_bits()),
    });
    let rows = MODES
        .iter()
        .zip(walls)
        .map(|(&(mode, threads, _), wall_ms)| BenchRow {
            threads: Some(threads),
            ..BenchRow::new(mode, wall_ms)
        })
        .collect();
    BenchReport::new(
        "rules_scaling",
        vec![
            ("dataset", Meta::Text(kind.label().to_string())),
            ("rows", Meta::Count(binned.num_rows())),
            ("cols", Meta::Count(binned.num_columns())),
            // Rules mined by one whole-table run.
            ("num_rules", Meta::Count(plain_rules.len())),
            // Rules pooled by the target-partitioned run.
            ("num_target_rules", Meta::Count(rules.len())),
            // Rows highlighted per highlight-mode invocation.
            ("highlight_rows", Meta::Count(probe_rows.len())),
        ],
        rows,
    )
}

/// [`SCORE_DRAWS`] random sub-tables of an `n × m` table, seed 7: up to
/// 10 distinct rows and up to 10 distinct columns each.
fn random_subtables(n: usize, m: usize) -> Vec<(Vec<usize>, Vec<usize>)> {
    let mut rng = StdRng::seed_from_u64(7);
    let (all_rows, all_cols): (Vec<usize>, Vec<usize>) = ((0..n).collect(), (0..m).collect());
    (0..SCORE_DRAWS)
        .map(|_| {
            let rows = all_rows.choose_multiple(&mut rng, 10);
            let cols = all_cols.choose_multiple(&mut rng, 10);
            (rows.copied().collect(), cols.copied().collect())
        })
        .collect()
}

/// Renders the report as an aligned text table.
pub fn render(report: &BenchReport) -> String {
    format!(
        "Rule engine on {} ({} rows × {} cols, {} rules / {} target-pooled, {} highlighted rows)\n{}",
        report.meta("dataset"),
        report.meta("rows"),
        report.meta("cols"),
        report.meta("num_rules"),
        report.meta("num_target_rules"),
        report.meta("highlight_rows"),
        format_rows(&report.rows)
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::report::tests::{assert_round_trip, assert_wall_gate};
    use crate::experiments::report::REFERENCE_MODE;
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
        // Only the gated runner adds the shared reference row.
        assert!(report.row(REFERENCE_MODE).is_none());
        assert_eq!(report.rows.len(), MODES.len());
        assert!(report.rows.iter().all(|r| r.wall_ms > 0.0));
        for key in ["num_rules", "num_target_rules", "highlight_rows"] {
            assert_ne!(
                report.meta(key),
                &Meta::Count(0),
                "{key}: planted data must produce rules"
            );
        }
        let rendered = render(report);
        assert!(rendered.contains("wall-ms"));
        assert!(rendered.contains("highlight-1t"));
        assert!(rendered.contains("highlight-served-1t"));
    }

    #[test]
    fn json_round_trips_through_the_shared_parser() {
        assert_round_trip(tiny_report());
    }

    #[test]
    fn gate_passes_against_itself_and_catches_regressions() {
        assert_wall_gate(tiny_report(), &POLICY);
    }
}
