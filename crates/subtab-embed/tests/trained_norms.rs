//! The fast trainers must not diverge from the reference trainer's scale.
//!
//! A fast kernel that keeps pushing targets whose sigmoid has saturated
//! (instead of leaving them alone once `|dot| ≥ 6`, as gensim's
//! `fast_sentence_sg_neg` does) grows the cell vectors without bound: on
//! the small flights and credit-card stand-ins, row norms of 14–281 where
//! the bit-exact reference trainer stays near 5, and in the tens of
//! thousands on wider tables. Every downstream k-means then clusters over a
//! few runaway directions. Each test here trains one planted dataset with
//! the production defaults, in both fast modes on every kernel tier the CPU
//! can run, and bounds the largest trained row norm by twice the reference
//! trainer's.

use subtab_binning::{Binner, BinningConfig};
use subtab_datasets::{DatasetKind, DatasetSize};
use subtab_embed::{train_embedding, train_embedding_with_isa, CellEmbedding, EmbeddingConfig};
use subtab_kernels::Isa;

/// `(name, threads, deterministic)`: the two-shard replica-averaging mode
/// every `threads > 1` caller runs, and the single-thread fast mode.
const FAST_MODES: [(&str, usize, bool); 2] = [("t2-det", 2, true), ("t1-fast", 1, false)];

fn max_row_norm(emb: &CellEmbedding) -> f32 {
    emb.matrix()
        .chunks(emb.dim())
        .map(|row| row.iter().map(|x| x * x).sum::<f32>().sqrt())
        .fold(0.0, f32::max)
}

fn assert_fast_norms_track_the_reference(kind: DatasetKind) {
    let dataset = kind.build(DatasetSize::Small, 7);
    let binner = Binner::fit(&dataset.table, &BinningConfig::default()).unwrap();
    let bt = binner.apply(&dataset.table).unwrap();
    let reference = max_row_norm(&train_embedding(&bt, &EmbeddingConfig::default()));
    assert!(reference.is_finite() && reference > 0.0, "{kind:?}");
    let mut failures = Vec::new();
    for isa in [Isa::Avx512, Isa::Avx2Fma, Isa::Scalar] {
        if !isa.available() {
            continue;
        }
        for (mode, threads, deterministic) in FAST_MODES {
            let config = EmbeddingConfig {
                threads,
                deterministic,
                ..Default::default()
            };
            let fast = max_row_norm(&train_embedding_with_isa(isa, &bt, &config));
            // A NaN norm fails too.
            if fast.is_nan() || fast > 2.0 * reference {
                failures.push(format!(
                    "{kind:?} {isa:?} {mode}: max row norm {fast} vs reference {reference}"
                ));
            }
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

#[test]
fn flights() {
    assert_fast_norms_track_the_reference(DatasetKind::Flights);
}

#[test]
fn cyber() {
    assert_fast_norms_track_the_reference(DatasetKind::Cyber);
}

#[test]
fn spotify() {
    assert_fast_norms_track_the_reference(DatasetKind::Spotify);
}

#[test]
fn credit_card() {
    assert_fast_norms_track_the_reference(DatasetKind::CreditCard);
}

#[test]
fn us_funds() {
    assert_fast_norms_track_the_reference(DatasetKind::UsFunds);
}

#[test]
fn bank_loans() {
    assert_fast_norms_track_the_reference(DatasetKind::BankLoans);
}
