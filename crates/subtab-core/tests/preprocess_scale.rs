//! Equivalence suite for the scaled preprocess pipeline: on every planted
//! dataset, pruning must be monotone, and quantized-storage gathers must
//! track an f64 reference gather within the documented tolerances at every
//! thread count. (The streaming pair builder is pinned to the materialized
//! corpus oracle in `subtab-embed`'s `corpus_equivalence` suite.)

use subtab_binning::Binner;
use subtab_core::SubTabConfig;
use subtab_datasets::{DatasetKind, DatasetSize};
use subtab_embed::{sgns, CellEmbedding, EmbeddingConfig, Quantization, TokenPlane, NO_TOKEN};

fn binned(kind: DatasetKind) -> subtab_binning::BinnedTable {
    let dataset = kind.build(DatasetSize::Tiny, 7);
    let config = SubTabConfig::fast();
    let binner = Binner::fit(&dataset.table, &config.binning).unwrap();
    binner.apply(&dataset.table).unwrap()
}

#[test]
fn pruning_is_monotone_and_surfaces_as_no_token() {
    let base_config = SubTabConfig::fast().embedding;
    for kind in [DatasetKind::Spotify, DatasetKind::UsFunds] {
        let bt = binned(kind);
        let full = sgns::train_embedding(&bt, &base_config);
        let mut prev_len = usize::MAX;
        for min_count in [0u64, 2, 8, 64] {
            let config = EmbeddingConfig {
                min_count,
                ..base_config.clone()
            };
            let model = sgns::train_embedding(&bt, &config);
            assert!(
                model.len() <= prev_len,
                "{kind:?}: vocab grew at min_count={min_count}"
            );
            prev_len = model.len();
            // Kept tokens are a subset of the unpruned vocabulary...
            for token in model.tokens() {
                assert!(
                    full.token_id(token).is_some(),
                    "{kind:?}: pruned model invented token {token}"
                );
            }
            // ...and pruned cells resolve to the sentinel the selection
            // layer already skips.
            let plane = model.token_plane(&bt);
            let full_plane = full.token_plane(&bt);
            for row in (0..plane.num_rows()).step_by(7) {
                for col in 0..plane.num_cols() {
                    if plane.id(row, col) == NO_TOKEN {
                        continue;
                    }
                    assert_ne!(
                        full_plane.id(row, col),
                        NO_TOKEN,
                        "{kind:?}: cell embedded after pruning but not before"
                    );
                }
            }
        }
    }
}

/// f64 reference gather over the dense model: accumulate `vector_owned`
/// rows in f64, divide, and compare the quantized model's f32 gather.
fn reference_row_vector(
    model: &CellEmbedding,
    plane: &TokenPlane,
    row: usize,
    cols: &[usize],
) -> Vec<f64> {
    let mut acc = vec![0.0f64; model.dim()];
    let mut n = 0usize;
    for &c in cols {
        let id = plane.id(row, c);
        if id != NO_TOKEN {
            for (a, x) in acc.iter_mut().zip(model.vector_owned(id)) {
                *a += x as f64;
            }
            n += 1;
        }
    }
    if n > 0 {
        acc.iter_mut().for_each(|a| *a /= n as f64);
    }
    acc
}

#[test]
fn quantized_gathers_track_f64_reference_at_every_thread_count() {
    // Documented tolerances, relative to the model's largest magnitude:
    // f16 carries 11 significand bits (≤ 2^-11 relative per weight), i8 a
    // per-row scale of max_abs/127 (≤ 1/254 of the row's largest magnitude
    // after rounding); the gather averages and cannot amplify either bound.
    let config = SubTabConfig::fast().embedding;
    for kind in [DatasetKind::Flights, DatasetKind::CreditCard] {
        let bt = binned(kind);
        let dense = sgns::train_embedding(&bt, &config);
        let max_abs = dense
            .try_matrix()
            .expect("dense storage")
            .iter()
            .fold(0.0f32, |m, &x| m.max(x.abs()))
            .max(1.0) as f64;
        let plane = dense.token_plane(&bt);
        let cols: Vec<usize> = (0..plane.num_cols()).collect();
        let rows: Vec<usize> = (0..plane.num_rows()).step_by(11).collect();
        for (quantize, rel_tol) in [(Quantization::F16, 6e-4), (Quantization::I8, 1.2e-2)] {
            let quant = sgns::train_embedding(
                &bt,
                &EmbeddingConfig {
                    quantize,
                    ..config.clone()
                },
            );
            assert_eq!(quant.quantization(), quantize, "{kind:?}");
            let tol = rel_tol * max_abs;
            let single = quant.row_vectors(&plane, &rows, &cols, 1);
            for (i, &r) in rows.iter().enumerate() {
                let want = reference_row_vector(&dense, &plane, r, &cols);
                for (d, (&got, &want)) in single[i * quant.dim()..(i + 1) * quant.dim()]
                    .iter()
                    .zip(&want)
                    .enumerate()
                {
                    assert!(
                        (got as f64 - want).abs() <= tol,
                        "{kind:?} {quantize:?} row {r} dim {d}: {got} vs {want} (tol {tol})"
                    );
                }
            }
            // The batched gather is bit-identical across thread counts, so
            // the tolerance holds at every parallelism level.
            for threads in [2usize, 4] {
                assert_eq!(
                    single,
                    quant.row_vectors(&plane, &rows, &cols, threads),
                    "{kind:?} {quantize:?}: thread count {threads} diverges"
                );
            }
        }
    }
}
