//! Query-time selection scaling: times `select` / `select_for_query` through
//! the token-ID engine against the preserved string-keyed reference path and
//! emits machine-readable JSON (`BENCH_query.json`) for the CI
//! bench-regression gate.
//!
//! Pre-processing (binning, corpus, SGNS) is paid once outside the timed
//! region — this experiment measures what the paper calls the *interactive*
//! cost: the per-display sub-table selection that runs for the table itself
//! and for every exploratory query issued over it.

use crate::experiments::common::{format_table, ExperimentScale};
use crate::experiments::preprocess_scaling::check_gated_modes;
use std::time::Instant;
use subtab_cluster::{assign_blocks, assign_points_scalar, PointBlocks};
use subtab_core::select::{select_sub_table, select_sub_table_strkey};
use subtab_core::{leaf_bitmap, leaf_bitmap_scalar, PreprocessedTable, SelectionParams};
use subtab_data::Predicate;
use subtab_datasets::{
    benchmark_ast_query, benchmark_deep_nest_query, benchmark_filter_query,
    benchmark_projected_query, DatasetKind,
};

/// Wall time of one selection mode.
#[derive(Debug, Clone)]
pub struct QueryModeResult {
    /// Mode label (also the key the CI gate matches baselines by).
    pub mode: String,
    /// Worker threads used for the vector gathers and k-means assignment.
    pub threads: usize,
    /// Best-of-`reps` wall time of one selection, in ms.
    pub wall_ms: f64,
}

/// The query-time scaling report for one dataset.
#[derive(Debug, Clone)]
pub struct QueryScalingReport {
    /// Dataset label (FL by default — the paper's biggest stand-in).
    pub dataset: String,
    /// Rows of the generated table.
    pub rows: usize,
    /// Columns of the generated table.
    pub cols: usize,
    /// Rows matched by the benchmark queries (both share the filter).
    pub query_rows: usize,
    /// One entry per selection mode.
    pub results: Vec<QueryModeResult>,
    /// Filter-query wall ratio strkey-1t / tokenid-1t — the headline
    /// single-core speedup of the token-ID engine on `select_for_query`
    /// over the full schema width.
    pub speedup_tokenid_vs_strkey: f64,
    /// Same ratio for the selection–projection query (half the columns
    /// projected; clustering makes up a larger share, so the ratio is
    /// smaller).
    pub proj_speedup_tokenid_vs_strkey: f64,
    /// Whole-table wall ratio strkey-1t / tokenid-1t (the token-ID side is
    /// the steady-state cached path a live session actually runs).
    pub table_speedup_tokenid_vs_strkey: f64,
    /// Raw k-means assignment-step wall ratio scalar / SIMD — the headline
    /// speedup of the shared kernel layer's centroid scan.
    pub kernel_assign_speedup: f64,
    /// Compiled-leaf plane-scan wall ratio scalar / SIMD over the benchmark
    /// queries' predicates.
    pub compile_leaf_speedup: f64,
}

/// Label of the string-keyed query comparator (the gate's normalisation
/// reference, like `seed-legacy-1t` for the preprocess experiment).
const STRKEY_QUERY_MODE: &str = "query-strkey-1t";

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

/// The selection modes: `(label, threads, strkey, workload)`.
///
/// `query-*` modes time `select_for_query` (row/column vectors recomputed
/// per call on both engines — the honest apples-to-apples comparison);
/// `select-*` modes time the whole-table `select`, where the token-ID engine
/// reuses the Arc-cached flat row matrix (primed before timing) while the
/// string-keyed comparator re-gathers every vector, which is what the
/// selection would cost without the precomputed plane.
const MODES: &[(&str, usize, bool, Workload)] = &[
    (STRKEY_QUERY_MODE, 1, true, Workload::FilterQuery),
    ("query-tokenid-1t", 1, false, Workload::FilterQuery),
    ("query-tokenid-4t", 4, false, Workload::FilterQuery),
    ("query-proj-strkey-1t", 1, true, Workload::ProjQuery),
    ("query-proj-tokenid-1t", 1, false, Workload::ProjQuery),
    ("query-ast-1t", 1, false, Workload::AstQuery),
    ("query-ast-deep-nest-1t", 1, false, Workload::DeepNestQuery),
    ("select-strkey-1t", 1, true, Workload::WholeTable),
    ("select-tokenid-1t", 1, false, Workload::WholeTable),
    (
        "select-kernel-simd-1t",
        1,
        false,
        Workload::KernelAssign { scalar: false },
    ),
    (
        "select-kernel-scalar-1t",
        1,
        false,
        Workload::KernelAssign { scalar: true },
    ),
    (
        "compile-leaf-simd-1t",
        1,
        false,
        Workload::CompileLeaf { scalar: false },
    ),
    (
        "compile-leaf-scalar-1t",
        1,
        false,
        Workload::CompileLeaf { scalar: true },
    ),
];

/// Runs the scaling benchmark on the Flights stand-in (the paper's largest).
pub fn run(scale: ExperimentScale) -> QueryScalingReport {
    run_on(DatasetKind::Flights, scale, 7)
}

/// Runs the benchmark on an explicit dataset with `reps` repetitions per
/// mode (best-of wall time is reported, damping scheduler noise).
pub fn run_on(kind: DatasetKind, scale: ExperimentScale, reps: usize) -> QueryScalingReport {
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

    let mut results = Vec::new();
    for &(mode, threads, strkey, workload) in MODES {
        let mut best_ms = f64::INFINITY;
        for _ in 0..reps.max(1) {
            let start = Instant::now();
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
                            assign_blocks(
                                &blocks,
                                &centroids,
                                &mut assign_buf,
                                &mut dist_buf,
                                threads,
                            );
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
                    let r = if strkey {
                        select_sub_table_strkey(&pre, q, &params, config.seed, threads)
                    } else {
                        select_sub_table(&pre, q, &params, config.seed, threads)
                    }
                    .expect("selection succeeds");
                    assert!(!r.row_indices.is_empty());
                }
            }
            best_ms = best_ms.min(start.elapsed().as_secs_f64() * 1e3);
        }
        results.push(QueryModeResult {
            mode: mode.to_string(),
            threads,
            wall_ms: best_ms,
        });
    }
    let wall = |m: &str| {
        results
            .iter()
            .find(|r| r.mode == m)
            .map(|r| r.wall_ms)
            .expect("mode present")
    };
    QueryScalingReport {
        dataset: kind.label().to_string(),
        rows: pre.table().num_rows(),
        cols: pre.table().num_columns(),
        query_rows,
        speedup_tokenid_vs_strkey: wall(STRKEY_QUERY_MODE) / wall("query-tokenid-1t").max(1e-9),
        proj_speedup_tokenid_vs_strkey: wall("query-proj-strkey-1t")
            / wall("query-proj-tokenid-1t").max(1e-9),
        table_speedup_tokenid_vs_strkey: wall("select-strkey-1t")
            / wall("select-tokenid-1t").max(1e-9),
        kernel_assign_speedup: wall("select-kernel-scalar-1t")
            / wall("select-kernel-simd-1t").max(1e-9),
        compile_leaf_speedup: wall("compile-leaf-scalar-1t")
            / wall("compile-leaf-simd-1t").max(1e-9),
        results,
    }
}

/// Renders the report as an aligned text table.
pub fn render(report: &QueryScalingReport) -> String {
    let rows: Vec<Vec<String>> = report
        .results
        .iter()
        .map(|r| {
            vec![
                r.mode.clone(),
                r.threads.to_string(),
                format!("{:.3}", r.wall_ms),
            ]
        })
        .collect();
    format!(
        "Query-time selection on {} ({} rows × {} cols, query matches {} rows): \
         token-ID engine {:.2}x over the string-keyed path on select_for_query \
         ({:.2}x with a half-schema projection, {:.2}x on whole-table select); \
         SIMD kernels {:.2}x on the k-means assignment step, {:.2}x on \
         compiled-leaf plane scans\n{}",
        report.dataset,
        report.rows,
        report.cols,
        report.query_rows,
        report.speedup_tokenid_vs_strkey,
        report.proj_speedup_tokenid_vs_strkey,
        report.table_speedup_tokenid_vs_strkey,
        report.kernel_assign_speedup,
        report.compile_leaf_speedup,
        format_table(&["mode", "threads", "wall-ms"], &rows)
    )
}

/// Serialises the report as `BENCH_query.json` (one result per line — the
/// shape `preprocess_scaling::parse_results` expects, so both experiments'
/// gates share one parser and one baseline file).
pub fn to_json(report: &QueryScalingReport) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"experiment\": \"query_scaling\",\n");
    out.push_str(&format!("  \"dataset\": \"{}\",\n", report.dataset));
    out.push_str(&format!("  \"rows\": {},\n", report.rows));
    out.push_str(&format!("  \"cols\": {},\n", report.cols));
    out.push_str(&format!("  \"query_rows\": {},\n", report.query_rows));
    out.push_str("  \"results\": [\n");
    for (i, r) in report.results.iter().enumerate() {
        let comma = if i + 1 < report.results.len() {
            ","
        } else {
            ""
        };
        out.push_str(&format!(
            "    {{\"mode\": \"{}\", \"threads\": {}, \"wall_ms\": {:.3}}}{}\n",
            r.mode, r.threads, r.wall_ms, comma
        ));
    }
    out.push_str("  ],\n");
    out.push_str(&format!(
        "  \"speedup_tokenid_vs_strkey\": {:.3},\n",
        report.speedup_tokenid_vs_strkey
    ));
    out.push_str(&format!(
        "  \"proj_speedup_tokenid_vs_strkey\": {:.3},\n",
        report.proj_speedup_tokenid_vs_strkey
    ));
    out.push_str(&format!(
        "  \"table_speedup_tokenid_vs_strkey\": {:.3},\n",
        report.table_speedup_tokenid_vs_strkey
    ));
    out.push_str(&format!(
        "  \"kernel_assign_speedup\": {:.3},\n",
        report.kernel_assign_speedup
    ));
    out.push_str(&format!(
        "  \"compile_leaf_speedup\": {:.3}\n",
        report.compile_leaf_speedup
    ));
    out.push_str("}\n");
    out
}

/// Compares a fresh report against a checked-in baseline JSON (the same
/// file the preprocess gate reads — baseline entries for other experiments'
/// modes are ignored). Wall times are normalised to `query-strkey-1t` of
/// their own capture, cancelling raw machine speed exactly like the
/// preprocess gate's seed-legacy normalisation.
pub fn check_against_baseline(
    report: &QueryScalingReport,
    baseline_json: &str,
    threshold: f64,
) -> Result<Vec<String>, Vec<String>> {
    let gated: Vec<(String, f64)> = report
        .results
        .iter()
        .map(|r| (r.mode.clone(), r.wall_ms))
        .collect();
    check_gated_modes(&gated, baseline_json, STRKEY_QUERY_MODE, threshold)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::preprocess_scaling::parse_results;
    use std::sync::OnceLock;

    /// The benchmark is slow under the debug test profile, so every test
    /// shares one report.
    fn tiny_report() -> &'static QueryScalingReport {
        static REPORT: OnceLock<QueryScalingReport> = OnceLock::new();
        REPORT.get_or_init(|| run_on(DatasetKind::Spotify, ExperimentScale::Quick, 1))
    }

    #[test]
    fn report_covers_every_mode_with_positive_times() {
        let report = tiny_report();
        assert_eq!(report.results.len(), MODES.len());
        assert!(report.results.iter().all(|r| r.wall_ms > 0.0));
        assert!(report.speedup_tokenid_vs_strkey > 0.0);
        assert!(report.proj_speedup_tokenid_vs_strkey > 0.0);
        assert!(report.table_speedup_tokenid_vs_strkey > 0.0);
        assert!(report.kernel_assign_speedup > 0.0);
        assert!(report.compile_leaf_speedup > 0.0);
        assert!(report.query_rows > 0, "benchmark query must match rows");
        let rendered = render(report);
        assert!(rendered.contains("wall-ms"));
        assert!(rendered.contains(STRKEY_QUERY_MODE));
        for kernel_mode in [
            "select-kernel-simd-1t",
            "select-kernel-scalar-1t",
            "compile-leaf-simd-1t",
            "compile-leaf-scalar-1t",
        ] {
            assert!(
                report.results.iter().any(|r| r.mode == kernel_mode),
                "kernel mode {kernel_mode} missing"
            );
        }
    }

    #[test]
    fn json_round_trips_through_the_shared_parser() {
        let report = tiny_report();
        let json = to_json(report);
        let parsed = parse_results(&json).unwrap();
        assert_eq!(parsed.len(), report.results.len());
        for (r, (pmode, pwall)) in report.results.iter().zip(&parsed) {
            assert_eq!(&r.mode, pmode);
            assert!((r.wall_ms - pwall).abs() < 0.01);
        }
    }

    #[test]
    fn gate_passes_against_itself_and_catches_regressions() {
        let report = tiny_report();
        let json = to_json(report);
        assert!(check_against_baseline(report, &json, 0.25).is_ok());
        // A uniformly faster machine is not a regression — normalisation
        // cancels it.
        let mut faster = report.clone();
        for r in &mut faster.results {
            r.wall_ms /= 10.0;
        }
        assert!(check_against_baseline(report, &to_json(&faster), 0.25).is_ok());
        // A baseline whose token-ID modes are 10x faster relative to the
        // unchanged strkey comparator: every non-reference mode regresses.
        let mut fast = report.clone();
        for r in &mut fast.results {
            if r.mode != STRKEY_QUERY_MODE {
                r.wall_ms /= 10.0;
            }
        }
        let err = check_against_baseline(report, &to_json(&fast), 0.25).unwrap_err();
        assert_eq!(err.len(), report.results.len() - 1);
        assert!(err[0].contains("REGRESSION"));
        assert!(check_against_baseline(report, "not json", 0.25).is_err());
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
