//! The `--scale large` tier benchmark: per-stage wall time **and resident
//! memory** of the full pipeline — dataset pre-processing, query-scoped
//! selection, rule mining and the serving layer — on the four 100k/1M-row
//! stress shapes of `subtab_datasets::scale`, emitting machine-readable
//! JSON (`BENCH_scale.json`) for the CI bench-regression gate.
//!
//! The six zoo stand-ins cap out at a few thousand rows, so none of the
//! other gates notice when the columnar core starts copying planes or a
//! stage goes accidentally quadratic. This experiment runs every stage at
//! 100 000 rows (the CI quick sub-tier) or 1 000 000 rows (`--scale paper`,
//! the local acceptance tier) and records, per `(shape, stage)` pair, the
//! best-of-reps wall time plus the process resident set sampled right
//! after the stage — the number that actually pages a laptop. Three extra
//! modes ride along: the embed-stage preprocess twins
//! (`scale-preprocess-legacy` vs `scale-preprocess-stream`, the
//! materialized corpus against the streaming builder with pruning,
//! subsampling and f16 storage on) and the CSV spill → reserved-capacity
//! ingest path (`scale-ingest-csv`) that feeds the 1M tier.
//!
//! The gate is [`POLICY`]. Wall times are normalised to a fixed reference
//! mode (`scale-ref-rowscan`, a per-row `Value`-API scan that exercises none
//! of the optimised columnar paths) so CI-runner generations cancel out.
//! Resident memory is machine-independent at a pinned row count, so it is
//! gated on the *absolute* ratio against the baseline with a deliberately
//! generous 2× threshold (allocator and fragmentation noise stay well under
//! that; a forgotten plane copy does not).

use crate::experiments::common::ExperimentScale;
use crate::experiments::report::{
    best_of, best_of_with, format_rows, BenchReport, BenchRow, GatePolicy, Meta, RssCeiling,
};
use std::sync::Arc;
use subtab_binning::Binner;
use subtab_core::{SelectionParams, SubTab, SubTabConfig};
use subtab_data::csv::{read_csv_file, write_csv_file};
use subtab_data::{Query, Table};
use subtab_datasets::{generate, scale_spec, ScaleShape, ScaleTier};
use subtab_embed::{train_embedding, train_embedding_materialized, EmbeddingConfig, Quantization};
use subtab_rules::{MiningConfig, RuleMiner};
use subtab_server::{ExplorationServer, Request, ServerConfig};

/// The gate's normalisation reference: a per-row `Value`-API scan over the
/// wide shape. It touches every cell through the row-wise shim — a fixed
/// workload that bypasses the columnar fast paths under test — so the
/// ratio of any stage to it cancels raw machine speed.
const REF_MODE: &str = "scale-ref-rowscan";

/// Pipeline stages timed per shape, in execution order.
const STAGES: [&str; 4] = ["preprocess", "select", "mine", "serve"];

/// Modes beyond the `(shape, stage)` grid: the two embed-stage preprocess
/// twins on the high-cardinality shape (the materialized-corpus legacy
/// path against the streaming builder with pruning, subsampling and f16
/// storage on) and the CSV spill-to-disk → reserved-capacity ingest path
/// the 1M tier loads through.
const EXTRA_MODES: [&str; 3] = [
    "scale-preprocess-legacy",
    "scale-preprocess-stream",
    "scale-ingest-csv",
];

/// The scale gate: >25% normalised wall regressions and >2x resident
/// memory against the baseline fail. At the pinned 100k CI tier the
/// embed-stage twins (`scale-preprocess-*`) must also stay under 1 GiB
/// resident, baseline or not: blowing that means the embed stage re-grew a
/// materialized corpus or a full-vocabulary weight matrix.
pub const POLICY: GatePolicy = GatePolicy {
    reference_mode: REF_MODE,
    wall_threshold: 0.25,
    rss_factor: Some(2.0),
    rss_ceiling: Some(RssCeiling {
        mode_prefix: "scale-preprocess-",
        rows: 100_000,
        bytes: 1024 * 1024 * 1024,
    }),
    ratio_floors: &[],
};

/// The selection query and its serve-stage refinement for a shape, phrased
/// against the planted archetypes so every query keeps enough matching
/// rows for a `k × l` selection at any tier.
fn shape_queries(shape: ScaleShape) -> (&'static str, &'static str) {
    match shape {
        ScaleShape::Wide => ("cat_00 = 'alpha' AND metric_00 > 500", "metric_01 < 900"),
        ScaleShape::HighCardinality => {
            ("status_class = '5xx' AND latency_ms > 1000", "retries > 1")
        }
        ScaleShape::SparseNulls => ("purchase_total IS NULL AND churned = 1", "seats > 10"),
        ScaleShape::Timestamps => ("job_kind = 'backup' AND hour_of_day = 3", "exit_code = 0"),
    }
}

/// Runs the scale benchmark: the 100k tier under `--quick` (the CI
/// sub-tier), the 1M tier at paper scale (the local acceptance run).
pub fn run(scale: ExperimentScale) -> BenchReport {
    match scale {
        ExperimentScale::Quick => run_on(ScaleTier::Rows100k.num_rows(), 2),
        ExperimentScale::Paper => run_on(ScaleTier::Rows1M.num_rows(), 1),
    }
}

/// Runs the benchmark at an explicit row count with `reps` repetitions per
/// stage (best-of wall time is reported, damping scheduler noise). Each
/// row also records the resident set sampled right after its stage.
pub fn run_on(rows: usize, reps: usize) -> BenchReport {
    let tier = match rows {
        r if r == ScaleTier::Rows100k.num_rows() => ScaleTier::Rows100k.label().to_string(),
        r if r == ScaleTier::Rows1M.num_rows() => ScaleTier::Rows1M.label().to_string(),
        r => r.to_string(),
    };
    let mut results =
        Vec::with_capacity(1 + ScaleShape::ALL.len() * STAGES.len() + EXTRA_MODES.len());

    // Reference scan first: the wide shape has the most columns, so the
    // row-wise shim pays the full fan-out cost the columnar paths avoid.
    let ref_table = generate(&scale_spec(ScaleShape::Wide, rows), 97).table;
    let wall_ms = best_of(reps, || rowscan_checksum(&ref_table));
    results.push(measured(REF_MODE, wall_ms));
    drop(ref_table);

    for shape in ScaleShape::ALL {
        results.extend(run_shape(shape, rows, reps));
    }
    results.extend(run_extra_modes(rows, reps));
    BenchReport::new(
        "scale",
        vec![("rows", Meta::Count(rows)), ("tier", Meta::Text(tier))],
        results,
    )
}

/// A row for a stage that just ran, with the resident set sampled now.
fn measured(mode: impl Into<String>, wall_ms: f64) -> BenchRow {
    BenchRow {
        rss_bytes: Some(resident_bytes()),
        ..BenchRow::new(mode, wall_ms)
    }
}

/// Times the four pipeline stages on one shape.
fn run_shape(shape: ScaleShape, rows: usize, reps: usize) -> Vec<BenchRow> {
    let dataset = generate(&scale_spec(shape, rows), 97);
    let config = SubTabConfig::fast();
    let (base, refine) = shape_queries(shape);
    let query: Query = base.parse().expect("benchmark query parses");
    let params = SelectionParams::new(8, 4);
    let label = |stage: &str| format!("scale-{}-{}", shape.label(), stage);
    let mut out = Vec::with_capacity(STAGES.len());

    // Stage 1: pre-processing (bin + corpus + embedding, the load path).
    // Each run replaces the previous result, which is dropped untimed.
    let mut subtab: Option<SubTab> = None;
    let wall_ms = best_of(reps, || {
        subtab.replace(
            SubTab::preprocess(dataset.table.clone(), config.clone())
                .expect("pre-processing succeeds on generated data"),
        )
    });
    let subtab = Arc::new(subtab.expect("reps >= 1"));
    out.push(measured(label("preprocess"), wall_ms));

    // Stage 2: one query-scoped selection (the interactive display path).
    let wall_ms = best_of(reps, || {
        let view = subtab
            .select_for_query(&query, &params)
            .expect("selection succeeds");
        assert_eq!(view.sub_table.num_rows(), params.k);
        view
    });
    out.push(measured(label("select"), wall_ms));

    // Stage 3: whole-table rule mining over the binned planes.
    let wall_ms = best_of(reps, || {
        RuleMiner::new(MiningConfig::default()).mine(subtab.preprocessed().binned())
    });
    out.push(measured(label("mine"), wall_ms));

    // Stage 4: the serving layer — a session running a three-step
    // refinement chain of text queries (parse, per-session leaf-bitmap
    // cache, result cache on the repeated spelling). The server is built
    // outside the timed region.
    let chain = [
        base.to_string(),
        format!("{base} AND {refine}"),
        base.to_string(),
    ];
    let wall_ms = best_of_with(
        reps,
        || ExplorationServer::from_subtab(Arc::clone(&subtab), ServerConfig::default()),
        |server| {
            let session = server.open_session();
            for q in &chain {
                let outcome = server
                    .execute(
                        session,
                        Request::SelectText {
                            query: q.clone(),
                            params: params.clone(),
                        },
                    )
                    .expect("served selection succeeds");
                std::hint::black_box(outcome.cache_hit);
            }
            server.close_session(session).expect("session closes");
            server
        },
    );
    out.push(measured(label("serve"), wall_ms));
    out
}

/// Times the [`EXTRA_MODES`]: both embed-stage preprocess twins on the
/// high-cardinality shape (the shape whose vocabulary stresses corpus
/// construction hardest) and the CSV spill → reserved-capacity ingest
/// path.
fn run_extra_modes(rows: usize, reps: usize) -> Vec<BenchRow> {
    let mut out = Vec::with_capacity(EXTRA_MODES.len());
    let dataset = generate(&scale_spec(ScaleShape::HighCardinality, rows), 97);
    let config = SubTabConfig::fast();
    let binner = Binner::fit(&dataset.table, &config.binning).expect("binner fits generated data");
    let binned = binner.apply(&dataset.table).expect("binning succeeds");

    // Legacy twin: materialized sentence corpus, full vocabulary, dense
    // f32 weights — the pre-streaming pipeline, kept as the perf anchor.
    let wall_ms = best_of(reps, || {
        train_embedding_materialized(&binned, &config.embedding)
    });
    out.push(measured("scale-preprocess-legacy", wall_ms));

    // Streaming path with the scale knobs on: pairs built straight from
    // the code planes, rare bins pruned, frequent bins subsampled, and
    // the trained matrix stored as f16.
    let stream_config = EmbeddingConfig {
        min_count: 2,
        subsample_t: 1e-3,
        quantize: Quantization::F16,
        ..config.embedding.clone()
    };
    let wall_ms = best_of(reps, || train_embedding(&binned, &stream_config));
    out.push(measured("scale-preprocess-stream", wall_ms));
    drop(binned);

    // CSV spill + ingest: the 1M tier is generated once, spilled to disk
    // (untimed — that is generator territory) and loaded back through the
    // reader plus the reserved-capacity append path.
    let path = std::env::temp_dir().join(format!(
        "subtab-scale-ingest-{}-{rows}.csv",
        std::process::id()
    ));
    write_csv_file(&dataset.table, &path).expect("csv spill succeeds");
    let wall_ms = best_of(reps, || {
        let spilled = read_csv_file(&path).expect("csv ingest succeeds");
        let mut ingested = Table::empty(spilled.schema().clone());
        ingested.reserve_rows(spilled.num_rows());
        for row in 0..spilled.num_rows() {
            ingested
                .push_row(spilled.row(row).expect("row in range"))
                .expect("spilled row round-trips");
        }
        assert_eq!(ingested.num_rows(), dataset.table.num_rows());
        (spilled, ingested)
    });
    let _ = std::fs::remove_file(&path);
    out.push(measured("scale-ingest-csv", wall_ms));
    out
}

/// The reference workload: every cell of every row through the row-wise
/// `Value` shim, folded into a checksum the optimiser cannot discard.
fn rowscan_checksum(table: &Table) -> f64 {
    let mut acc = 0.0f64;
    for row in 0..table.num_rows() {
        for col in table.columns() {
            match col.get_f64(row) {
                Some(x) => acc += x,
                None => acc += col.get(row).is_null() as u8 as f64,
            }
        }
    }
    acc
}

/// Resident set size of the current process in bytes: `VmRSS` from
/// `/proc/self/status` on Linux, 0 elsewhere (the gate skips zero sides).
pub fn resident_bytes() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|l| l.starts_with("VmRSS:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<u64>().ok())
        })
        .map(|kb| kb * 1024)
        .unwrap_or(0)
}

/// Renders the report as an aligned text table.
pub fn render(report: &BenchReport) -> String {
    format!(
        "Scale tier ({} rows per shape, tier {}): wall time and resident memory per pipeline \
         stage on the four stress shapes\n{}",
        report.meta("rows"),
        report.meta("tier"),
        format_rows(&report.rows)
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::report::tests::{
        assert_round_trip, assert_rss_budget, assert_rss_ceiling, assert_wall_gate,
    };
    use std::sync::OnceLock;

    /// The full tiers are release-binary territory; the tests pin the
    /// machinery at a debug-friendly row count and share one report.
    fn tiny_report() -> &'static BenchReport {
        static REPORT: OnceLock<BenchReport> = OnceLock::new();
        REPORT.get_or_init(|| run_on(1_200, 1))
    }

    #[test]
    fn report_covers_every_shape_and_stage() {
        let report = tiny_report();
        assert_eq!(report.meta("rows"), &Meta::Count(1_200));
        assert_eq!(report.meta("tier"), &Meta::Text("1200".into()));
        assert_eq!(
            report.rows.len(),
            1 + ScaleShape::ALL.len() * STAGES.len() + EXTRA_MODES.len()
        );
        assert_eq!(report.rows[0].mode, REF_MODE);
        for shape in ScaleShape::ALL {
            for stage in STAGES {
                let mode = format!("scale-{}-{}", shape.label(), stage);
                assert!(report.row(&mode).is_some(), "missing {mode}");
            }
        }
        for mode in EXTRA_MODES {
            assert!(report.row(mode).is_some(), "missing {mode}");
        }
        assert!(report.rows.iter().all(|r| r.wall_ms > 0.0));
        let rendered = render(report);
        assert!(rendered.contains("rss-MiB"));
        assert!(rendered.contains(REF_MODE));
    }

    #[test]
    #[cfg(target_os = "linux")]
    fn resident_memory_is_captured_on_linux() {
        assert!(resident_bytes() > 0);
        let report = tiny_report();
        assert!(report.rows.iter().all(|r| r.rss_bytes > Some(0)));
    }

    #[test]
    fn json_round_trips_through_both_parsers() {
        assert_round_trip(tiny_report());
    }

    #[test]
    fn gate_passes_against_itself_and_catches_wall_regressions() {
        assert_wall_gate(tiny_report(), &POLICY);
    }

    #[test]
    fn gate_catches_resident_memory_blowups() {
        assert_rss_budget(tiny_report(), &POLICY);
    }

    #[test]
    fn gate_enforces_the_embed_stage_ceiling_at_the_ci_tier() {
        let ceiling = POLICY
            .rss_ceiling
            .expect("scale pins an embed-stage ceiling");
        assert_eq!(ceiling.rows, ScaleTier::Rows100k.num_rows());
        assert_rss_ceiling(tiny_report(), &POLICY);
    }

    #[test]
    fn every_shape_query_parses_and_selects() {
        for shape in ScaleShape::ALL {
            let (base, refine) = shape_queries(shape);
            let _: Query = base.parse().expect("base query parses");
            let _: Query = format!("{base} AND {refine}")
                .parse()
                .expect("refined query parses");
        }
    }
}
