//! Pre-processing hot-path scaling: times `SubTab::preprocess` under each
//! execution mode of the sharded SGNS trainer and emits machine-readable
//! JSON (`BENCH_preprocess.json`) for the CI bench-regression gate.
//!
//! The report and gate are the shared ones of [`crate::experiments::report`].

use crate::experiments::common::ExperimentScale;
use crate::experiments::report::{
    best_of, best_of_with, format_rows, BenchReport, BenchRow, GatePolicy, Meta,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use subtab_binning::Binner;
use subtab_core::SubTab;
use subtab_datasets::DatasetKind;
use subtab_embed::corpus::CorpusOptions;
use subtab_embed::{build_corpus, CellEmbedding, Corpus, EmbeddingConfig};

/// The preprocess gate: every trainer and `Binner::fit` mode, normalised to
/// the seed-legacy trainer of the same capture.
pub const POLICY: GatePolicy = GatePolicy {
    reference_mode: SEED_MODE,
    wall_threshold: 0.25,
    rss_factor: None,
    rss_ceiling: None,
    ratio_floors: &[],
};

/// The modes the benchmark exercises: the preserved seed implementation
/// (the comparator the speedup is quoted against), the bit-exact reference,
/// the fast single-thread kernels, and the 4-thread replica trainer.
const MODES: &[(&str, usize, bool)] = &[
    (SEED_MODE, 1, true),
    ("reference-1t", 1, true),
    ("fast-1t", 1, false),
    ("deterministic-4t", 4, true),
];

/// Label of the seed-legacy comparator mode.
const SEED_MODE: &str = "seed-legacy-1t";

/// The `Binner::fit` evaluator modes: `(label, threads, exact)`. The exact
/// mode evaluates the dense O(grid × samples) reference (infinite cutoff);
/// the windowed modes use the default truncated-kernel evaluator, alone and
/// with the per-column fan-out.
const BINNING_MODES: &[(&str, usize, bool)] = &[
    (BINNING_EXACT_MODE, 1, true),
    ("binning-windowed-1t", 1, false),
    ("binning-windowed-4t", 4, false),
];

/// Label of the exact-reference binning comparator mode.
const BINNING_EXACT_MODE: &str = "binning-exact-1t";

/// The pre-refactor SGNS trainer, preserved verbatim (nested loops, a heap
/// allocation per pair, exact-`exp` sigmoid, cumulative-table sampling and
/// the original approximate pair count) so the benchmark keeps measuring
/// speedups against the true seed single-thread path rather than against an
/// already-optimised reference.
fn train_seed_legacy(corpus: &Corpus, config: &EmbeddingConfig) -> CellEmbedding {
    fn sigmoid(x: f32) -> f32 {
        1.0 / (1.0 + (-x).exp())
    }
    fn i_slice(m: &[f32], idx: u32, dim: usize) -> &[f32] {
        let start = idx as usize * dim;
        &m[start..start + dim]
    }
    fn m_slice(m: &mut [f32], idx: u32, dim: usize) -> &mut [f32] {
        let start = idx as usize * dim;
        &mut m[start..start + dim]
    }
    let vocab_size = corpus.vocab.len();
    let dim = config.dim.max(1);
    let mut rng = StdRng::seed_from_u64(config.seed);
    if vocab_size == 0 {
        return CellEmbedding::new(dim, Vec::new(), Vec::new());
    }
    let mut w_in: Vec<f32> = (0..vocab_size * dim)
        .map(|_| (rng.gen::<f32>() - 0.5) / dim as f32)
        .collect();
    let mut w_out: Vec<f32> = vec![0.0; vocab_size * dim];
    let count: usize = corpus
        .sentences
        .iter()
        .map(|s| {
            let len = s.len();
            match config.window {
                Some(w) => len * (2 * w).min(len.saturating_sub(1)),
                None => len * len.saturating_sub(1),
            }
        })
        .sum();
    let total_pairs = count * config.epochs.max(1);
    let mut processed = 0usize;
    let lr0 = config.learning_rate;
    let mut grad_in = vec![0.0f32; dim];
    for _epoch in 0..config.epochs.max(1) {
        for sentence in &corpus.sentences {
            let len = sentence.len();
            for (i, &center) in sentence.iter().enumerate() {
                let (lo, hi) = match config.window {
                    Some(w) => (i.saturating_sub(w), (i + w + 1).min(len)),
                    None => (0, len),
                };
                for (j, &context) in sentence.iter().enumerate().take(hi).skip(lo) {
                    if j == i {
                        continue;
                    }
                    let lr = lr0 * (1.0 - processed as f32 / (total_pairs as f32 + 1.0)).max(0.1);
                    processed += 1;
                    grad_in.iter_mut().for_each(|g| *g = 0.0);
                    let center_vec = i_slice(&w_in, center, dim).to_vec();
                    for neg in 0..=config.negative_samples {
                        let (target, label) = if neg == 0 {
                            (context, 1.0f32)
                        } else {
                            (corpus.vocab.sample_negative(&mut rng), 0.0f32)
                        };
                        if label == 0.0 && target == context {
                            continue;
                        }
                        let out = m_slice(&mut w_out, target, dim);
                        let dot: f32 = center_vec.iter().zip(out.iter()).map(|(a, b)| a * b).sum();
                        let pred = sigmoid(dot);
                        let g = (label - pred) * lr;
                        for d in 0..dim {
                            grad_in[d] += g * out[d];
                            out[d] += g * center_vec[d];
                        }
                    }
                    let center_slice = m_slice(&mut w_in, center, dim);
                    for d in 0..dim {
                        center_slice[d] += grad_in[d];
                    }
                }
            }
        }
    }
    let tokens = corpus.vocab.tokens().to_vec();
    let vectors: Vec<Vec<f32>> = (0..vocab_size)
        .map(|i| i_slice(&w_in, i as u32, dim).to_vec())
        .collect();
    CellEmbedding::new(dim, tokens, vectors)
}

/// Builds the corpus exactly as `SubTab::preprocess` does, for the
/// train-only timings.
fn corpus_for(table: &subtab_data::Table, config: &subtab_core::SubTabConfig) -> Corpus {
    let binner = Binner::fit(table, &config.binning).expect("fit");
    let binned = binner.apply(table).expect("apply");
    let e = &config.embedding;
    build_corpus(
        &binned,
        &CorpusOptions {
            max_sentences: e.max_sentences,
            max_column_sentence_len: e.max_column_sentence_len,
            include_column_sentences: e.include_column_sentences,
            seed: e.seed,
        },
    )
}

/// Runs the seed-legacy pre-processing pipeline end to end (fit + apply +
/// corpus + legacy trainer), mirroring what `SubTab::preprocess` composes.
fn seed_legacy_preprocess(table: &subtab_data::Table, config: &subtab_core::SubTabConfig) {
    let corpus = corpus_for(table, config);
    let emb = train_seed_legacy(&corpus, &config.embedding);
    assert!(emb.is_empty() == corpus.vocab.is_empty());
}

/// Runs the scaling benchmark on the Flights stand-in (the paper's largest).
pub fn run(scale: ExperimentScale) -> BenchReport {
    run_on(DatasetKind::Flights, scale, 5)
}

/// Runs the benchmark on an explicit dataset with `reps` repetitions per
/// mode (best-of wall time is reported, damping scheduler noise).
///
/// Trainer modes report the full pre-processing wall and, as `train_ms`,
/// SGNS training alone (binning and corpus construction excluded) — the
/// hot path the sharded trainer parallelises. The `binning-*` modes time
/// `Binner::fit` alone.
pub fn run_on(kind: DatasetKind, scale: ExperimentScale, reps: usize) -> BenchReport {
    let dataset = kind.build(scale.dataset_size(), 31);
    let base = scale.subtab_config();
    // The corpus every mode trains on, built once for the train-only
    // timings (all modes share identical binning + corpus work).
    let corpus = corpus_for(&dataset.table, &base);
    let mut rows = Vec::new();
    for &(mode, threads, deterministic) in MODES {
        let config = base
            .clone()
            .with_threads(threads)
            .with_deterministic(deterministic);
        // The table is cloned outside the timed region (and only where it
        // is consumed): the seed-legacy comparator borrows the table, so
        // timing the clone would skew every other mode against it.
        let wall_ms = best_of_with(
            reps,
            || (mode != SEED_MODE).then(|| dataset.table.clone()),
            |table| match table {
                None => seed_legacy_preprocess(&dataset.table, &config),
                Some(table) => {
                    let subtab = SubTab::preprocess(table, config.clone()).expect("pre-processing");
                    assert!(!subtab.preprocessed().embedding().is_empty());
                }
            },
        );
        let train_ms = best_of(reps, || {
            let emb = if mode == SEED_MODE {
                train_seed_legacy(&corpus, &config.embedding)
            } else {
                subtab_embed::sgns::train_on_corpus(&corpus, &config.embedding)
            };
            assert!(!emb.is_empty());
            emb
        });
        rows.push(BenchRow {
            threads: Some(threads),
            train_ms: Some(train_ms),
            ..BenchRow::new(mode, wall_ms)
        });
    }
    // --- Binning evaluator modes: time `Binner::fit` alone, the next
    //     fixed cost of preprocess after SGNS training.
    for &(mode, threads, exact) in BINNING_MODES {
        let mut cfg = base.binning.clone().threads(threads);
        if exact {
            cfg = cfg.kde_cutoff(f64::INFINITY);
        }
        let wall_ms = best_of(reps, || {
            let binner = Binner::fit(&dataset.table, &cfg).expect("binning fit");
            assert_eq!(binner.columns().len(), dataset.table.num_columns());
            binner
        });
        rows.push(BenchRow {
            threads: Some(threads),
            ..BenchRow::new(mode, wall_ms)
        });
    }
    let (trainer, binning) = rows.split_at(MODES.len());
    let min_wall = |rows: &[BenchRow], wall: fn(&BenchRow) -> f64| {
        rows.iter()
            .map(wall)
            .fold(f64::INFINITY, f64::min)
            .max(1e-9)
    };
    let threaded: Vec<BenchRow> = trainer
        .iter()
        .filter(|r| r.threads > Some(1))
        .cloned()
        .collect();
    let train = |r: &BenchRow| r.train_ms.unwrap_or(f64::INFINITY);
    let ratios = vec![
        // Training-wall ratio seed-legacy / fastest threaded: the headline
        // number for the hot path the trainer parallelises.
        (
            "speedup_threaded_vs_seed",
            train(&trainer[0]) / min_wall(&threaded, train),
        ),
        // Full-preprocess wall ratio (includes the binning fit and corpus
        // construction every mode shares).
        (
            "preprocess_speedup_threaded_vs_seed",
            trainer[0].wall_ms / min_wall(&threaded, |r| r.wall_ms),
        ),
        // `Binner::fit` wall ratio exact / fastest windowed mode.
        (
            "binning_speedup_windowed_vs_exact",
            binning[0].wall_ms / min_wall(&binning[1..], |r| r.wall_ms),
        ),
    ];
    BenchReport {
        ratios,
        ..BenchReport::new(
            "preprocess_scaling",
            vec![
                ("dataset", Meta::Text(kind.label().to_string())),
                ("rows", Meta::Count(dataset.table.num_rows())),
                ("dim", Meta::Count(base.embedding.dim)),
            ],
            rows,
        )
    }
}

/// Renders the report as aligned text tables: trainer modes, then the
/// `Binner::fit` evaluator modes.
pub fn render(report: &BenchReport) -> String {
    let (trainer, binning): (Vec<&BenchRow>, Vec<&BenchRow>) =
        report.rows.iter().partition(|r| r.train_ms.is_some());
    format!(
        "Preprocess scaling on {} ({} rows, dim {}): threaded SGNS speedup {:.2}x \
         over the seed path ({:.2}x on the full preprocess incl. shared binning)\n{}\
         Binner::fit: windowed KDE speedup {:.2}x over the exact dense evaluator\n{}",
        report.meta("dataset"),
        report.meta("rows"),
        report.meta("dim"),
        report.ratio("speedup_threaded_vs_seed"),
        report.ratio("preprocess_speedup_threaded_vs_seed"),
        format_rows(trainer),
        report.ratio("binning_speedup_windowed_vs_exact"),
        format_rows(binning)
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
        assert_eq!(report.rows.len(), MODES.len() + BINNING_MODES.len());
        assert!(report.rows.iter().all(|r| r.wall_ms > 0.0));
        for &(mode, ..) in MODES {
            assert!(report.row(mode).unwrap().train_ms.unwrap() > 0.0);
        }
        for &(mode, ..) in BINNING_MODES {
            assert!(report.row(mode).unwrap().train_ms.is_none());
        }
        assert!(report.ratio("speedup_threaded_vs_seed") > 0.0);
        assert!(report.ratio("preprocess_speedup_threaded_vs_seed") > 0.0);
        assert!(report.ratio("binning_speedup_windowed_vs_exact") > 0.0);
        let rendered = render(report);
        assert!(rendered.contains("wall-ms"));
        assert!(rendered.contains(BINNING_EXACT_MODE));
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
