//! Query-time selection scaling: times `select` / `select_for_query` through
//! the token-ID engine, plus the SIMD k-means assignment and compiled-leaf
//! scans against their scalar runtime tiers, and emits machine-readable
//! JSON (`BENCH_query.json`) for the CI bench-regression gate.
//!
//! Pre-processing (binning, corpus, SGNS) is paid once outside the timed
//! region — this experiment measures what the paper calls the *interactive*
//! cost: the per-display sub-table selection that runs for the table itself
//! and for every exploratory query issued over it.

use crate::experiments::common::ExperimentScale;
use crate::experiments::report::{
    best_of_each, format_rows, BenchReport, BenchRow, GatePolicy, Meta,
};
use subtab_cluster::{assign_blocks, assign_points_scalar, PointBlocks};
use subtab_core::select::select_sub_table;
use subtab_core::{leaf_bitmap, leaf_bitmap_scalar, PreprocessedTable, SelectionParams};
use subtab_data::Predicate;
use subtab_datasets::{
    benchmark_ast_query, benchmark_deep_nest_query, benchmark_filter_query,
    benchmark_projected_query, DatasetKind,
};

/// The query gate: normalised wall times of every selection and kernel
/// mode.
pub const POLICY: GatePolicy = GatePolicy::WALL_ONLY;

/// Which selection each benchmark mode runs.
#[derive(Clone, Copy)]
enum Workload {
    /// `select_for_query` with a selection-only query (full schema width).
    FilterQuery,
    /// `select_for_query` with a selection–projection query (half the
    /// columns).
    ProjQuery,
    /// `select_for_query` with the depth-3 nested AST query (same row set
    /// as the flat filter, evaluated through the compiled bitmap engine).
    AstQuery,
    /// `select_for_query` with the deeply nested (> 10 levels) AST query.
    DeepNestQuery,
    /// Whole-table `select`.
    WholeTable,
    /// The raw k-means assignment step over the cached row-vector plane:
    /// the runtime-dispatched SIMD centroid scan (`scalar = false`) or its
    /// pinned scalar twin (`scalar = true`), repeated
    /// [`KERNEL_INNER_ITERS`] times so the wall time is measurable at
    /// quick scale.
    KernelAssign {
        /// Time the pinned scalar twin instead of the SIMD scan.
        scalar: bool,
    },
    /// The raw compiled-leaf plane scans of every predicate the benchmark
    /// queries reference: kernel `leaf_bitmap` vs `leaf_bitmap_scalar`,
    /// repeated [`KERNEL_INNER_ITERS`] times.
    CompileLeaf {
        /// Time the pinned scalar twin instead of the SIMD scan.
        scalar: bool,
    },
}

/// Inner repetitions of the raw kernel workloads inside one timed region —
/// a single assignment or leaf scan at quick scale completes in
/// microseconds, below timer noise.
const KERNEL_INNER_ITERS: usize = 24;

/// The selection modes: `(label, threads, workload)`.
///
/// `query-*` modes time `select_for_query` (row/column vectors recomputed
/// per call); `select-tokenid-1t` times the whole-table `select`, which
/// reuses the Arc-cached flat row matrix (primed before timing).
const MODES: &[(&str, usize, Workload)] = &[
    ("query-tokenid-1t", 1, Workload::FilterQuery),
    ("query-tokenid-4t", 4, Workload::FilterQuery),
    ("query-proj-tokenid-1t", 1, Workload::ProjQuery),
    ("query-ast-1t", 1, Workload::AstQuery),
    ("query-ast-deep-nest-1t", 1, Workload::DeepNestQuery),
    ("select-tokenid-1t", 1, Workload::WholeTable),
    (
        "select-kernel-simd-1t",
        1,
        Workload::KernelAssign { scalar: false },
    ),
    (
        "select-kernel-scalar-1t",
        1,
        Workload::KernelAssign { scalar: true },
    ),
    (
        "compile-leaf-simd-1t",
        1,
        Workload::CompileLeaf { scalar: false },
    ),
    (
        "compile-leaf-scalar-1t",
        1,
        Workload::CompileLeaf { scalar: true },
    ),
];

/// The headline ratios, `(key, slow mode, fast mode)`: the wall-time
/// ratio of the slow mode over the fast one.
const SPEEDUPS: &[(&str, &str, &str)] = &[
    // The raw k-means assignment step, scalar twin over SIMD.
    (
        "kernel_assign_speedup",
        "select-kernel-scalar-1t",
        "select-kernel-simd-1t",
    ),
    // Compiled-leaf plane scans over the benchmark queries' predicates.
    (
        "compile_leaf_speedup",
        "compile-leaf-scalar-1t",
        "compile-leaf-simd-1t",
    ),
];

/// Runs the scaling benchmark on the Flights stand-in (the paper's largest).
pub fn run(scale: ExperimentScale) -> BenchReport {
    run_on(DatasetKind::Flights, scale, 40)
}

/// Runs the benchmark on an explicit dataset with `reps` repetitions per
/// mode, taken in rounds over all modes (best-of wall time is reported,
/// damping scheduler noise).
pub fn run_on(kind: DatasetKind, scale: ExperimentScale, reps: usize) -> BenchReport {
    let dataset = kind.build(scale.dataset_size(), 31);
    let config = scale.subtab_config();
    let pre = PreprocessedTable::new(dataset.table, &config).expect("pre-processing");
    // The canonical benchmark queries shared with the token-ID equivalence
    // suite (both live in `subtab_datasets::queries`, so the bench and the
    // tests can never drift onto different query shapes).
    let filter_q = benchmark_filter_query(pre.table());
    let proj_q = benchmark_projected_query(pre.table());
    let ast_q = benchmark_ast_query(pre.table());
    let deep_q = benchmark_deep_nest_query(pre.table());
    let query_rows = filter_q
        .matching_rows(pre.table())
        .expect("benchmark query evaluates")
        .len();
    // The paper's default 10 × 10 selection.
    let params = SelectionParams::default();
    // Prime the whole-table row-vector cache so `select-tokenid-1t` measures
    // the steady-state interactive cost, not the one-off cache fill. The
    // same cached plane doubles as the point set of the raw kernel modes,
    // with the first rows seeding the paper's default k = 10 centroids.
    let points = pre.full_row_vectors();
    let dim = points.dim().max(1);
    let k = 10.min(points.num_rows()).max(1);
    let centroids: Vec<f32> = points.data()[..k * dim].to_vec();
    // The point-lane blocks are prepared once, as one k-means fit does for
    // all of its assignment passes.
    let blocks = PointBlocks::new(points.data(), dim);
    let mut assign_buf = vec![0usize; points.num_rows()];
    let mut dist_buf = vec![0.0f32; points.num_rows()];
    let leaves: Vec<&Predicate> = [&filter_q, &proj_q, &ast_q, &deep_q]
        .into_iter()
        .flat_map(|q| q.leaf_predicates())
        .collect();

    let walls = best_of_each(reps, MODES.len(), |i| {
        let (_, threads, workload) = MODES[i];
        match workload {
            Workload::KernelAssign { scalar } => {
                for _ in 0..KERNEL_INNER_ITERS {
                    if scalar {
                        assign_points_scalar(
                            points.view(),
                            &centroids,
                            dim,
                            &mut assign_buf,
                            &mut dist_buf,
                            threads,
                        );
                    } else {
                        assign_blocks(&blocks, &centroids, &mut assign_buf, &mut dist_buf, threads);
                    }
                }
                assert!(assign_buf.iter().all(|&a| a < k));
            }
            Workload::CompileLeaf { scalar } => {
                for _ in 0..KERNEL_INNER_ITERS {
                    for p in &leaves {
                        let bitmap = if scalar {
                            leaf_bitmap_scalar(pre.table(), p)
                        } else {
                            leaf_bitmap(pre.table(), p)
                        }
                        .expect("leaf compiles");
                        std::hint::black_box(bitmap.count());
                    }
                }
            }
            _ => {
                let q = match workload {
                    Workload::FilterQuery => Some(&filter_q),
                    Workload::ProjQuery => Some(&proj_q),
                    Workload::AstQuery => Some(&ast_q),
                    Workload::DeepNestQuery => Some(&deep_q),
                    _ => None,
                };
                let r = select_sub_table(&pre, q, &params, config.seed, threads)
                    .expect("selection succeeds");
                assert!(!r.row_indices.is_empty());
            }
        }
    });
    let rows = MODES
        .iter()
        .zip(walls)
        .map(|(&(mode, threads, _), wall_ms)| BenchRow {
            threads: Some(threads),
            ..BenchRow::new(mode, wall_ms)
        })
        .collect();
    let mut report = BenchReport::new(
        "query_scaling",
        vec![
            ("dataset", Meta::Text(kind.label().to_string())),
            ("rows", Meta::Count(pre.table().num_rows())),
            ("cols", Meta::Count(pre.table().num_columns())),
            ("query_rows", Meta::Count(query_rows)),
        ],
        rows,
    );
    report.ratios = report.speedups(SPEEDUPS);
    report
}

/// Renders the report as an aligned text table.
pub fn render(report: &BenchReport) -> String {
    format!(
        "Query-time selection on {} ({} rows × {} cols, query matches {} rows): \
         SIMD kernels {:.2}x on the k-means assignment step, {:.2}x on \
         compiled-leaf plane scans\n{}",
        report.meta("dataset"),
        report.meta("rows"),
        report.meta("cols"),
        report.meta("query_rows"),
        report.ratio("kernel_assign_speedup"),
        report.ratio("compile_leaf_speedup"),
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
        for &(key, ..) in SPEEDUPS {
            assert!(report.ratio(key) > 0.0, "{key}");
        }
        assert_ne!(
            report.meta("query_rows"),
            &Meta::Count(0),
            "benchmark query must match rows"
        );
        let rendered = render(report);
        assert!(rendered.contains("wall-ms"));
        assert!(rendered.contains("query-tokenid-1t"));
        for kernel_mode in [
            "select-kernel-simd-1t",
            "select-kernel-scalar-1t",
            "compile-leaf-simd-1t",
            "compile-leaf-scalar-1t",
        ] {
            assert!(
                report.row(kernel_mode).is_some(),
                "kernel mode {kernel_mode} missing"
            );
        }
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
    fn benchmark_queries_are_selective_but_nonempty() {
        let dataset = DatasetKind::Cyber.build(subtab_datasets::DatasetSize::Tiny, 5);
        let fq = benchmark_filter_query(&dataset.table);
        let matched = fq.matching_rows(&dataset.table).unwrap();
        assert!(!matched.is_empty());
        assert!(matched.len() <= dataset.table.num_rows());
        assert!(fq.projection.is_none());
        let pq = benchmark_projected_query(&dataset.table);
        assert_eq!(pq.matching_rows(&dataset.table).unwrap(), matched);
        assert!(pq.projection.is_some());
    }
}
