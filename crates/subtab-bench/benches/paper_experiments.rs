//! Criterion benchmarks wrapping the building blocks behind each paper
//! artefact. One benchmark group per table/figure (plus ablations), so that
//! `cargo bench` regenerates timing series for everything the evaluation
//! reports. The quality numbers themselves are produced by the `experiments`
//! binary; these benches track how long each reproduced pipeline takes.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use std::time::Duration;
use subtab_bench::experiments::{
    common::{run_nc, run_ran, run_subtab, ExperimentContext},
    phases, quality, simulation, slow_baselines, tuning, user_study,
};
use subtab_bench::ExperimentScale;
use subtab_core::{SelectionParams, SubTab};
use subtab_datasets::DatasetKind;

fn configure(c: &mut Criterion) -> Criterion {
    let _ = c;
    Criterion::default()
        .sample_size(10)
        .measurement_time(Duration::from_secs(1))
        .warm_up_time(Duration::from_millis(300))
}

/// Table 1 / Figure 5: the simulated user study end to end.
fn bench_user_study(c: &mut Criterion) {
    let mut group = c.benchmark_group("table1_user_study");
    group.sample_size(10);
    group.bench_function("simulated_user_study_quick", |b| {
        b.iter(|| black_box(user_study::run(ExperimentScale::Quick)))
    });
    group.finish();
}

/// Figure 6: session replay with fragment capture.
fn bench_session_replay(c: &mut Criterion) {
    let mut group = c.benchmark_group("figure6_session_replay");
    group.sample_size(10);
    group.bench_function("simulation_quick", |b| {
        b.iter(|| black_box(simulation::run(ExperimentScale::Quick)))
    });
    group.finish();
}

/// Figure 7: slow-baseline comparison.
fn bench_slow_baselines(c: &mut Criterion) {
    let mut group = c.benchmark_group("figure7_slow_baselines");
    group.sample_size(10);
    group.bench_function("slow_baselines_quick", |b| {
        b.iter(|| black_box(slow_baselines::run(ExperimentScale::Quick)))
    });
    group.finish();
}

/// Figure 8: per-method quality metrics (selection + scoring only; the
/// context is built once outside the timed loop).
fn bench_quality_metrics(c: &mut Criterion) {
    let mut group = c.benchmark_group("figure8_quality");
    group.sample_size(10);
    for kind in [DatasetKind::Cyber, DatasetKind::Spotify] {
        let ctx = ExperimentContext::build(kind, ExperimentScale::Quick, 5);
        group.bench_with_input(
            BenchmarkId::new("subtab_select_and_score", kind.label()),
            &ctx,
            |b, ctx| b.iter(|| black_box(run_subtab(ctx, 10, 10, &[]))),
        );
        group.bench_with_input(
            BenchmarkId::new("ran_select_and_score", kind.label()),
            &ctx,
            |b, ctx| b.iter(|| black_box(run_ran(ctx, 10, 10, &[], ExperimentScale::Quick, 3))),
        );
        group.bench_with_input(
            BenchmarkId::new("nc_select_and_score", kind.label()),
            &ctx,
            |b, ctx| b.iter(|| black_box(run_nc(ctx, 10, 10, &[], 3))),
        );
    }
    group.bench_function("full_figure8_quick", |b| {
        b.iter(|| {
            black_box(quality::run_on(
                &[DatasetKind::Cyber],
                ExperimentScale::Quick,
            ))
        })
    });
    group.finish();
}

/// Figure 9: the two phases, benchmarked separately per dataset.
fn bench_phases(c: &mut Criterion) {
    let mut group = c.benchmark_group("figure9_phases");
    group.sample_size(10);
    for kind in [
        DatasetKind::Cyber,
        DatasetKind::Spotify,
        DatasetKind::CreditCard,
    ] {
        let dataset = kind.build(ExperimentScale::Quick.dataset_size(), 31);
        group.bench_with_input(
            BenchmarkId::new("preprocess", kind.label()),
            &dataset.table,
            |b, table| {
                b.iter(|| {
                    black_box(
                        SubTab::preprocess(table.clone(), ExperimentScale::Quick.subtab_config())
                            .expect("preprocess"),
                    )
                })
            },
        );
        let subtab = SubTab::preprocess(
            dataset.table.clone(),
            ExperimentScale::Quick.subtab_config(),
        )
        .expect("preprocess");
        group.bench_with_input(
            BenchmarkId::new("centroid_selection", kind.label()),
            &subtab,
            |b, subtab| {
                b.iter(|| {
                    black_box(
                        subtab
                            .select(&SelectionParams::new(10, 10))
                            .expect("select"),
                    )
                })
            },
        );
    }
    group.bench_function("full_figure9_quick", |b| {
        b.iter(|| {
            black_box(phases::run_on(
                &[DatasetKind::Cyber],
                ExperimentScale::Quick,
            ))
        })
    });
    group.finish();
}

/// Figure 10: rule mining + re-evaluation under varying parameters.
fn bench_parameter_tuning(c: &mut Criterion) {
    let mut group = c.benchmark_group("figure10_tuning");
    group.sample_size(10);
    group.bench_function("tuning_quick", |b| {
        b.iter(|| black_box(tuning::run(ExperimentScale::Quick)))
    });
    group.finish();
}

/// Ablations: binning strategy is the most interesting knob to track over
/// time, so it gets its own measured series.
fn bench_ablation_binning(c: &mut Criterion) {
    use subtab_binning::{Binner, BinningConfig, BinningStrategy};
    let mut group = c.benchmark_group("ablation_binning");
    group.sample_size(10);
    let dataset = DatasetKind::CreditCard.build(ExperimentScale::Quick.dataset_size(), 3);
    for strategy in [
        BinningStrategy::Kde,
        BinningStrategy::Quantile,
        BinningStrategy::EqualWidth,
    ] {
        group.bench_with_input(
            BenchmarkId::new("fit_apply", format!("{strategy:?}")),
            &dataset.table,
            |b, table| {
                b.iter(|| {
                    let binner =
                        Binner::fit(table, &BinningConfig::default().strategy(strategy)).unwrap();
                    black_box(binner.apply(table).unwrap())
                })
            },
        );
    }
    group.finish();
}

/// Rule engine: bitmap vs Apriori mining and indexed vs linear
/// highlighting (the load-path costs gated by the `rules` experiment).
fn bench_rule_engine(c: &mut Criterion) {
    use subtab_binning::Binner;
    use subtab_core::{highlight_rules, highlight_rules_linear};
    use subtab_datasets::benchmark_target_column;
    use subtab_rules::{MiningConfig, RuleMiner};
    let mut group = c.benchmark_group("rule_engine");
    group.sample_size(10);
    let dataset = DatasetKind::Cyber.build(ExperimentScale::Quick.dataset_size(), 31);
    let binner = Binner::fit(
        &dataset.table,
        &ExperimentScale::Quick.subtab_config().binning,
    )
    .expect("binning fits");
    let binned = binner.apply(&dataset.table).expect("binning applies");
    let target = binned
        .column_index(&benchmark_target_column(&dataset.table))
        .expect("target column exists");
    let miner = RuleMiner::new(MiningConfig::default());
    group.bench_function("mine_bitmap", |b| b.iter(|| black_box(miner.mine(&binned))));
    group.bench_function("mine_apriori", |b| {
        b.iter(|| black_box(miner.mine_apriori(&binned)))
    });
    let rules = miner.mine_with_targets(&binned, &[target]);
    let cols: Vec<String> = binned.column_names().to_vec();
    let rows: Vec<usize> = (0..binned.num_rows().min(256)).collect();
    group.bench_function("highlight_indexed", |b| {
        b.iter(|| black_box(highlight_rules(&binned, &rules, &rows, &cols)))
    });
    group.bench_function("highlight_linear", |b| {
        b.iter(|| black_box(highlight_rules_linear(&binned, &rules, &rows, &cols)))
    });
    group.finish();
}

/// Shared SIMD kernel layer: each runtime-dispatched kernel against its
/// pinned scalar twin, on synthetic planes big enough to dwarf dispatch
/// overhead. Tracks the speedups the `select-kernel-*` / `compile-leaf-*`
/// bench-gate modes assert end to end.
fn bench_kernels(c: &mut Criterion) {
    use subtab_kernels::{
        nearest_centroid_scalar, scan_codes, scan_f64, CmpOp, NumericScan, PointBlocks,
    };
    let mut group = c.benchmark_group("kernels");
    group.sample_size(10);

    let dim = 32usize;
    let k = 10usize;
    let n = 4096usize;
    let points: Vec<f32> = (0..n * dim).map(|i| (i % 97) as f32 * 0.125).collect();
    let centroids: Vec<f32> = points[..k * dim].to_vec();
    let blocks = PointBlocks::new(&points, dim);
    let mut assignments = vec![0usize; n];
    let mut dists = vec![0.0f32; n];
    group.bench_function("nearest_centroid_simd", |b| {
        b.iter(|| black_box(blocks.assign(&centroids, 0, &mut assignments, &mut dists)))
    });
    group.bench_function("nearest_centroid_scalar", |b| {
        b.iter(|| {
            for p in points.chunks_exact(dim) {
                black_box(nearest_centroid_scalar(p, &centroids, dim));
            }
        })
    });

    let plane: Vec<f64> = (0..65_536).map(|i| (i % 1009) as f64 * 0.5).collect();
    let range = NumericScan::Cmp {
        op: CmpOp::Lt,
        constant: 250.0,
    };
    group.bench_function("scan_f64_lt", |b| {
        b.iter(|| black_box(scan_f64(black_box(&plane), &range)))
    });
    let codes: Vec<u32> = (0..65_536).map(|i| (i % 7) as u32).collect();
    let table = [false, true, false, false, true, false, false];
    group.bench_function("scan_codes", |b| {
        b.iter(|| black_box(scan_codes(black_box(&codes), &table)))
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = configure(&mut Criterion::default());
    targets =
        bench_user_study,
        bench_session_replay,
        bench_slow_baselines,
        bench_quality_metrics,
        bench_phases,
        bench_parameter_tuning,
        bench_ablation_binning,
        bench_rule_engine,
        bench_kernels
}
criterion_main!(benches);
