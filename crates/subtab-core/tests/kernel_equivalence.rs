//! Equivalence suite for the shared SIMD kernel layer: on every planted
//! dataset, the vectorised predicate scans behind `leaf_bitmap` must be
//! bit-identical to the pinned scalar twin `leaf_bitmap_scalar` (and to the
//! per-row `Predicate::matches` reference), and the point-lane k-means
//! kernel behind `assign_points` must be bit-identical to
//! `assign_points_scalar` across thread counts and dimensions — distances
//! compared via `to_bits`, not approximately. Whole `KMeans` fits plus
//! representative searches run on every available tier and must match the
//! scalar tier in assignments, centroid bits, inertia bits, iterations and
//! representatives. The suite also pins the explicit-ISA scan entry points
//! against each other and honours the `SUBTAB_FORCE_SCALAR_KERNELS`
//! override used by CI.

use subtab_cluster::{
    assign_points, assign_points_scalar, select_representatives, select_representatives_blocks,
    KMeans, KMeansResult, Matrix, PointBlocks,
};
use subtab_core::select::select_sub_table;
use subtab_core::{
    leaf_bitmap, leaf_bitmap_scalar, PreprocessedTable, SelectionParams, SubTabConfig,
};
use subtab_data::{ColumnType, CompareOp, Predicate, Table, Value};
use subtab_datasets::{benchmark_ast_query, DatasetKind, DatasetSize};
use subtab_kernels::{
    scan_codes_with_isa, scan_f64_with_isa, scan_i64_with_isa, CmpOp, Isa, NumericScan,
};

const ALL_KINDS: [DatasetKind; 6] = [
    DatasetKind::Flights,
    DatasetKind::Cyber,
    DatasetKind::Spotify,
    DatasetKind::CreditCard,
    DatasetKind::UsFunds,
    DatasetKind::BankLoans,
];

const ALL_OPS: [CompareOp; 6] = [
    CompareOp::Eq,
    CompareOp::Ne,
    CompareOp::Lt,
    CompareOp::Le,
    CompareOp::Gt,
    CompareOp::Ge,
];

/// The first non-null value of the named column, searched from the middle
/// of the table so comparisons split the rows non-trivially.
fn probe_value(table: &Table, column: &str) -> Option<Value> {
    let col = table.column(column)?;
    let n = table.num_rows();
    (0..n)
        .map(|i| (i + n / 2) % n)
        .map(|r| col.get(r))
        .find(|v| !v.is_null())
}

fn cmp(column: &str, op: CompareOp, value: Value) -> Predicate {
    Predicate::Compare {
        column: column.to_string(),
        op,
        value,
    }
}

/// A labelled predicate battery covering every plane type, every compare
/// operator, null tests, set membership, ranges, and the cross-type edge
/// cases (string constant against a numeric plane, NaN constant).
fn predicate_suite(table: &Table) -> Vec<(String, Predicate)> {
    let mut out = Vec::new();
    for c in 0..table.num_columns() {
        let field = table.schema().field_at(c).expect("index valid");
        let name = field.name.clone();
        out.push((format!("{name} IS NULL"), Predicate::is_null(&name)));
        out.push((format!("{name} IS NOT NULL"), Predicate::not_null(&name)));
        let Some(v) = probe_value(table, &name) else {
            continue;
        };
        for op in ALL_OPS {
            out.push((format!("{name} {op:?} probe"), cmp(&name, op, v.clone())));
        }
        out.push((
            format!("{name} IN (probe, missing)"),
            Predicate::in_set(
                &name,
                vec![v.clone(), Value::Str("__missing__".to_string())],
            ),
        ));
        match field.ty {
            ColumnType::Float | ColumnType::Int => {
                let x = v.as_f64().expect("numeric probe widens");
                out.push((
                    format!("{name} BETWEEN probe-1 and probe+1"),
                    Predicate::between(&name, x - 1.0, x + 1.0),
                ));
                out.push((
                    format!("{name} BETWEEN empty"),
                    Predicate::between(&name, x, x),
                ));
                // A string constant against a numeric plane is row-independent:
                // the kernel const-folds it, the scalar twin evaluates per row.
                out.push((
                    format!("{name} < 'oops'"),
                    cmp(&name, CompareOp::Lt, Value::Str("oops".to_string())),
                ));
                out.push((
                    format!("{name} = 'oops'"),
                    cmp(&name, CompareOp::Eq, Value::Str("oops".to_string())),
                ));
                // NaN constant: Eq lowers to an is-NaN probe, Ne to its
                // complement, and the ordered compares use total_cmp.
                out.push((
                    format!("{name} = NaN"),
                    cmp(&name, CompareOp::Eq, Value::Float(f64::NAN)),
                ));
                out.push((
                    format!("{name} >= NaN"),
                    cmp(&name, CompareOp::Ge, Value::Float(f64::NAN)),
                ));
            }
            ColumnType::Str => {
                out.push((
                    format!("{name} != absent"),
                    cmp(&name, CompareOp::Ne, Value::Str("__absent__".to_string())),
                ));
            }
            ColumnType::Bool => {
                out.push((
                    format!("{name} != true"),
                    cmp(&name, CompareOp::Ne, Value::Bool(true)),
                ));
            }
        }
    }
    out
}

/// Rows matched by the per-row reference evaluator.
fn brute_rows(table: &Table, p: &Predicate) -> Vec<usize> {
    (0..table.num_rows())
        .filter(|&r| p.matches(table, r).expect("reference evaluation"))
        .collect()
}

#[test]
fn kernel_leaf_bitmaps_match_scalar_twins_on_every_planted_dataset() {
    for kind in ALL_KINDS {
        let dataset = kind.build(DatasetSize::Tiny, 9);
        let table = &dataset.table;
        let suite = predicate_suite(table);
        assert!(
            suite.len() >= 3 * table.num_columns(),
            "{kind:?}: predicate battery too thin"
        );
        for (label, p) in suite {
            let kernel = leaf_bitmap(table, &p).expect("kernel leaf compiles");
            let scalar = leaf_bitmap_scalar(table, &p).expect("scalar leaf compiles");
            assert_eq!(
                kernel.as_words(),
                scalar.as_words(),
                "{kind:?} [{label}]: kernel words diverge from the scalar twin"
            );
            assert_eq!(
                kernel.indices(),
                brute_rows(table, &p),
                "{kind:?} [{label}]: kernel bitmap diverges from per-row matches"
            );
        }
    }
}

/// Deterministic pseudo-random f32 in [-1, 1): a splitmix64 mix of the
/// (seed, index) pair — no RNG state to thread through the loops.
fn mixed_unit(seed: u64, index: u64) -> f32 {
    let mut z = seed ^ index.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^= z >> 31;
    (z >> 40) as f32 / (1u64 << 23) as f32 * 2.0 - 1.0
}

/// A point matrix derived deterministically from a planted table: one point
/// per row (padded past the threading threshold so `threads > 1` actually
/// fans out), features mixed from the dataset seed.
fn planted_points(kind: DatasetKind, table: &Table, dim: usize) -> Matrix {
    let seed = kind.label().bytes().fold(0x243f_6a88_85a3_08d3u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
    });
    let n = table.num_rows().max(1300);
    let data: Vec<f32> = (0..n * dim).map(|i| mixed_unit(seed, i as u64)).collect();
    Matrix::new(data, dim)
}

#[test]
fn simd_assignments_match_the_scalar_twin_across_dims_and_threads() {
    for kind in ALL_KINDS {
        let dataset = kind.build(DatasetSize::Tiny, 9);
        for dim in [8usize, 16, 32, 64] {
            let points = planted_points(kind, &dataset.table, dim);
            let n = points.num_rows();
            let k = 9usize;
            let centroids: Vec<f32> = (0..k * dim)
                .map(|i| points.data()[(i * 31) % (n * dim)])
                .collect();

            let mut ref_assign = vec![0usize; n];
            let mut ref_dists = vec![0.0f32; n];
            assign_points_scalar(
                points.view(),
                &centroids,
                dim,
                &mut ref_assign,
                &mut ref_dists,
                1,
            );

            for threads in [1usize, 2, 4] {
                let mut assign = vec![usize::MAX; n];
                let mut dists = vec![f32::NAN; n];
                assign_points(
                    points.view(),
                    &centroids,
                    dim,
                    &mut assign,
                    &mut dists,
                    threads,
                );
                assert_eq!(
                    assign, ref_assign,
                    "{kind:?} dim {dim} threads {threads}: assignments diverge"
                );
                let bits: Vec<u32> = dists.iter().map(|d| d.to_bits()).collect();
                let ref_bits: Vec<u32> = ref_dists.iter().map(|d| d.to_bits()).collect();
                assert_eq!(
                    bits, ref_bits,
                    "{kind:?} dim {dim} threads {threads}: distances not bit-identical"
                );
            }
        }
    }
}

#[test]
fn explicit_isa_scans_agree_on_every_available_tier() {
    let values: Vec<f64> = (0..257)
        .map(|i| match i % 13 {
            0 => f64::NAN,
            1 => f64::NEG_INFINITY,
            2 => -0.0,
            _ => (i as f64 - 128.0) * 1.75,
        })
        .collect();
    let ints: Vec<i64> = (0..257).map(|i| (i as i64 - 128) * 3).collect();
    let codes: Vec<u32> = (0..257).map(|i| (i % 5) as u32).collect();
    let table = [false, true, false, true, true];
    let scans = [
        NumericScan::Cmp {
            op: CmpOp::Lt,
            constant: 3.5,
        },
        NumericScan::Cmp {
            op: CmpOp::Ge,
            constant: -0.0,
        },
        NumericScan::Between {
            low: -40.0,
            high: 40.0,
        },
        NumericScan::InSet {
            values: vec![0.0, f64::NAN, 21.0],
        },
    ];
    for isa in [Isa::Avx512, Isa::Avx2Fma] {
        if !isa.available() {
            continue;
        }
        for scan in &scans {
            assert_eq!(
                scan_f64_with_isa(isa, &values, scan),
                scan_f64_with_isa(Isa::Scalar, &values, scan),
                "{isa:?} f64 scan diverges from scalar on {scan:?}"
            );
            assert_eq!(
                scan_i64_with_isa(isa, &ints, scan),
                scan_i64_with_isa(Isa::Scalar, &ints, scan),
                "{isa:?} i64 scan diverges from scalar on {scan:?}"
            );
        }
        assert_eq!(
            scan_codes_with_isa(isa, &codes, &table),
            scan_codes_with_isa(Isa::Scalar, &codes, &table),
            "{isa:?} code scan diverges from scalar"
        );
    }
}

/// When CI sets `SUBTAB_FORCE_SCALAR_KERNELS`, every default dispatch must
/// land on the scalar tier; otherwise detection must match the CPU flags.
/// Env handling is latched once per process, so this reads the same state
/// the kernels themselves latched.
#[test]
fn forced_scalar_override_pins_default_dispatch() {
    let forced =
        std::env::var("SUBTAB_FORCE_SCALAR_KERNELS").is_ok_and(|v| !v.is_empty() && v != "0");
    if forced {
        assert_eq!(subtab_kernels::detect(), Isa::Scalar);
        assert!(!subtab_kernels::has_avx512());
        assert!(!subtab_kernels::has_avx2_fma());
    } else {
        let expect = if subtab_kernels::has_avx512() {
            Isa::Avx512
        } else if subtab_kernels::has_avx2_fma() {
            Isa::Avx2Fma
        } else {
            Isa::Scalar
        };
        assert_eq!(subtab_kernels::detect(), expect);
    }
}

/// End-to-end: the full compiled selection pipeline stays bit-identical
/// across thread counts on top of the kernel layer.
#[test]
fn selection_pipeline_stays_deterministic_on_top_of_the_kernels() {
    let dataset = DatasetKind::Spotify.build(DatasetSize::Tiny, 9);
    let pre = PreprocessedTable::new(dataset.table, &SubTabConfig::fast()).unwrap();
    let params = SelectionParams::new(6, 4);
    let query = benchmark_ast_query(pre.table());
    let reference = select_sub_table(&pre, Some(&query), &params, 5, 1).unwrap();
    assert!(!reference.row_indices.is_empty());
    for threads in [2usize, 4] {
        let got = select_sub_table(&pre, Some(&query), &params, 5, threads).unwrap();
        assert_eq!(got.row_indices, reference.row_indices);
        assert_eq!(got.columns, reference.columns);
    }
}

/// The vector tiers the CPU can run (the scalar tier is the reference).
fn vector_tiers() -> Vec<Isa> {
    [Isa::Avx512, Isa::Avx2Fma]
        .into_iter()
        .filter(|isa| isa.available())
        .collect()
}

/// A whole fit plus representative search on one tier.
fn fit_on(
    isa: Isa,
    points: &Matrix,
    k: usize,
    seed: u64,
    threads: usize,
) -> (KMeansResult, Vec<usize>) {
    let blocks = PointBlocks::with_isa(isa, points.data(), points.dim());
    let fit = KMeans::new(k, seed).threads(threads).fit_blocks(&blocks);
    let reps = select_representatives_blocks(&blocks, &fit);
    (fit, reps)
}

fn bits(xs: &[f32]) -> Vec<u32> {
    xs.iter().map(|x| x.to_bits()).collect()
}

/// Fits `points` on every vector tier and at every thread count and
/// requires the scalar tier's single-threaded result, bit for bit.
fn assert_tiers_match_scalar(label: &str, points: &Matrix, k: usize, threads: &[usize]) {
    let seed = 0x5eed ^ (points.num_rows() * 31 + k) as u64;
    let (want, want_reps) = fit_on(Isa::Scalar, points, k, seed, 1);
    let want_centroids: Vec<Vec<u32>> = want.centroids.iter().map(|c| bits(c)).collect();
    for isa in vector_tiers().into_iter().chain([Isa::Scalar]) {
        for &t in threads {
            let ctx = format!("{label} n {} k {k}: {isa:?} threads {t}", points.num_rows());
            let (got, reps) = fit_on(isa, points, k, seed, t);
            assert_eq!(got.assignments, want.assignments, "{ctx}: assignments");
            let centroids: Vec<Vec<u32>> = got.centroids.iter().map(|c| bits(c)).collect();
            assert_eq!(centroids, want_centroids, "{ctx}: centroid bits");
            assert_eq!(
                got.inertia.to_bits(),
                want.inertia.to_bits(),
                "{ctx}: inertia bits"
            );
            assert_eq!(got.iterations, want.iterations, "{ctx}: iterations");
            assert_eq!(reps, want_reps, "{ctx}: representatives");
        }
    }
    // The public entry points (default dispatch, transposing per call) agree
    // too.
    let fit = KMeans::new(k, seed).fit(points.view());
    assert_eq!(
        fit.assignments, want.assignments,
        "{label}: default-dispatch fit"
    );
    assert_eq!(
        select_representatives(points.view(), &fit),
        want_reps,
        "{label}"
    );
}

#[test]
fn fits_on_planted_row_and_column_matrices_match_the_scalar_tier() {
    for kind in ALL_KINDS {
        let dataset = kind.build(DatasetSize::Tiny, 9);
        let pre = PreprocessedTable::new(dataset.table, &SubTabConfig::fast()).unwrap();
        let rows = pre.full_row_vectors();
        let all_rows: Vec<usize> = (0..pre.table().num_rows()).collect();
        let all_cols: Vec<usize> = (0..pre.table().num_columns()).collect();
        let dim = rows.dim();
        let columns = Matrix::new(
            pre.embedding()
                .column_vectors(pre.plane(), &all_cols, &all_rows, 1),
            dim,
        );
        let label = kind.label();
        assert_tiers_match_scalar(&format!("{label} rows"), &rows, 10, &[1, 2, 4]);
        assert_tiers_match_scalar(&format!("{label} columns"), &columns, 10, &[1]);
    }
}

#[test]
fn fits_on_random_matrices_match_the_scalar_tier() {
    let mut matrix_seed = 1u64;
    for n in [1usize, 7, 8, 9, 15, 16, 17, 1023, 1024, 1025, 1500] {
        // Thread counts only change the schedule above the parallel
        // threshold; below it every count runs the sequential pass.
        let threads: &[usize] = if n >= 1023 { &[1, 2, 4] } else { &[1] };
        for dim in [1usize, 3, 8, 13, 32, 64] {
            matrix_seed += 1;
            let data: Vec<f32> = (0..n * dim)
                .map(|i| mixed_unit(matrix_seed, i as u64))
                .collect();
            let points = Matrix::new(data, dim);
            for k in [1usize, 2, 9, 10, 17] {
                assert_tiers_match_scalar("random", &points, k, threads);
            }
        }
    }
}

#[test]
fn fits_with_duplicate_points_and_exact_ties_match_the_scalar_tier() {
    // Points drawn from a handful of integer-valued prototypes: many exact
    // duplicates, exactly tied distances, fewer distinct points than
    // clusters (k-means++ falls back to uniform draws and empty clusters are
    // re-seeded).
    for (n, dim, protos) in [(40usize, 3usize, 3usize), (1100, 8, 5), (1500, 13, 12)] {
        let data: Vec<f32> = (0..n * dim)
            .map(|i| {
                let (p, d) = ((i / dim * 7) % protos, i % dim);
                ((p * 3 + d) % 4) as f32 - 1.5
            })
            .collect();
        let points = Matrix::new(data, dim);
        for k in [1usize, 2, 9, 10, 17] {
            assert_tiers_match_scalar("duplicates", &points, k, &[1, 2, 4]);
        }
    }
}
