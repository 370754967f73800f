//! Pre-processing hot-path scaling: times `SubTab::preprocess` under each
//! embedding trainer mode (reference SGNS, count trainer), and
//! `Binner::fit` on one thread and on four, and emits machine-readable JSON
//! (`BENCH_preprocess.json`) for the CI bench-regression gate.
//!
//! The report and gate are the shared ones of [`crate::experiments::report`].

use crate::experiments::common::ExperimentScale;
use crate::experiments::report::{
    best_of_each_with, format_rows, BenchReport, BenchRow, GatePolicy, Meta,
};
use subtab_binning::Binner;
use subtab_core::SubTab;
use subtab_datasets::DatasetKind;
use subtab_embed::train_embedding;

/// The preprocess gate: normalised wall times of every trainer and
/// `Binner::fit` mode.
pub const POLICY: GatePolicy = GatePolicy::WALL_ONLY;

/// The trainer modes `(label, threads, deterministic)`: the bit-exact
/// reference SGNS, and the count trainer on one thread and on four.
const MODES: &[(&str, usize, bool)] = &[
    ("reference-1t", 1, true),
    ("counts-1t", 1, false),
    ("counts-4t", 4, true),
];

/// The `Binner::fit` modes `(label, threads)`: the windowed KDE evaluator
/// alone and with the per-column fan-out.
const BINNING_MODES: &[(&str, usize)] = &[("binning-windowed-1t", 1), ("binning-windowed-4t", 4)];

/// Runs the scaling benchmark on the Flights stand-in (the paper's largest).
pub fn run(scale: ExperimentScale) -> BenchReport {
    run_on(DatasetKind::Flights, scale, 8)
}

/// Runs the benchmark on an explicit dataset with `reps` repetitions per
/// mode, taken in rounds over all modes (best-of wall time is reported,
/// damping scheduler noise).
///
/// Trainer modes report the full pre-processing wall and, as `train_ms`,
/// embedding training alone through `train_embedding`, the trainer
/// `PreprocessedTable::new` calls (binning excluded). The `binning-*` modes
/// time `Binner::fit` alone.
pub fn run_on(kind: DatasetKind, scale: ExperimentScale, reps: usize) -> BenchReport {
    let dataset = kind.build(scale.dataset_size(), 31);
    let base = scale.subtab_config();
    // The binned table every mode trains on, built once for the
    // train-only timings (all modes share identical binning work).
    let binned = Binner::fit(&dataset.table, &base.binning)
        .and_then(|binner| binner.apply(&dataset.table))
        .expect("binning");
    let configs: Vec<_> = MODES
        .iter()
        .map(|&(_, threads, deterministic)| {
            base.clone()
                .with_threads(threads)
                .with_deterministic(deterministic)
        })
        .collect();
    let binning_configs: Vec<_> = BINNING_MODES
        .iter()
        .map(|&(_, threads)| base.binning.clone().threads(threads))
        .collect();
    // Jobs, in rounds: the full preprocess of every trainer mode, then its
    // training alone, then every `Binner::fit` mode (the next fixed cost of
    // preprocess after embedding training). The preprocess jobs' tables are
    // cloned outside the timed region.
    let trainers = MODES.len();
    let walls = best_of_each_with(
        reps,
        2 * trainers + BINNING_MODES.len(),
        |job| (job < trainers).then(|| dataset.table.clone()),
        |job, table| {
            if let Some(table) = table {
                let subtab =
                    SubTab::preprocess(table, configs[job].clone()).expect("pre-processing");
                assert!(!subtab.preprocessed().embedding().is_empty());
            } else if job < 2 * trainers {
                let emb = train_embedding(&binned, &configs[job - trainers].embedding);
                assert!(!emb.is_empty());
            } else {
                let binner = Binner::fit(&dataset.table, &binning_configs[job - 2 * trainers])
                    .expect("binning fit");
                assert_eq!(binner.columns().len(), dataset.table.num_columns());
            }
        },
    );
    let (trainer_walls, binning_walls) = walls.split_at(2 * trainers);
    let mut rows: Vec<BenchRow> = MODES
        .iter()
        .enumerate()
        .map(|(i, &(mode, threads, _))| BenchRow {
            threads: Some(threads),
            train_ms: Some(trainer_walls[trainers + i]),
            ..BenchRow::new(mode, trainer_walls[i])
        })
        .collect();
    rows.extend(
        BINNING_MODES
            .iter()
            .zip(binning_walls)
            .map(|(&(mode, threads), &wall_ms)| BenchRow {
                threads: Some(threads),
                ..BenchRow::new(mode, wall_ms)
            }),
    );
    BenchReport::new(
        "preprocess_scaling",
        vec![
            ("dataset", Meta::Text(kind.label().to_string())),
            ("rows", Meta::Count(dataset.table.num_rows())),
            ("dim", Meta::Count(base.embedding.dim)),
        ],
        rows,
    )
}

/// Renders the report as aligned text tables: trainer modes, then the
/// `Binner::fit` modes.
pub fn render(report: &BenchReport) -> String {
    let (binning, trainer): (Vec<&BenchRow>, Vec<&BenchRow>) = report
        .rows
        .iter()
        .partition(|r| r.mode.starts_with("binning-"));
    format!(
        "Preprocess scaling on {} ({} rows, dim {}) per embedding trainer mode\n{}\
         Binner::fit\n{}",
        report.meta("dataset"),
        report.meta("rows"),
        report.meta("dim"),
        format_rows(trainer),
        format_rows(binning)
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
        assert_eq!(report.rows.len(), MODES.len() + BINNING_MODES.len());
        assert!(report.rows.iter().all(|r| r.wall_ms > 0.0));
        for &(mode, ..) in MODES {
            assert!(report.row(mode).unwrap().train_ms.unwrap() > 0.0);
        }
        for &(mode, ..) in BINNING_MODES {
            assert!(report.row(mode).unwrap().train_ms.is_none());
        }
        let rendered = render(report);
        assert!(rendered.contains("wall-ms"));
        assert!(rendered.contains(BINNING_MODES[0].0));
    }

    #[test]
    fn json_round_trips_through_the_parser() {
        assert_round_trip(tiny_report());
    }

    #[test]
    fn gate_passes_against_itself_and_catches_regressions() {
        assert_wall_gate(tiny_report(), &POLICY);
    }
}
