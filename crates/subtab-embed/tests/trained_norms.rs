//! The count trainer must place every token of a real-shaped table.
//!
//! Its vectors are rows of unit eigenvectors, so they cannot run away in
//! norm the way the per-ISA SGNS kernels it replaced once did (row norms of
//! 14–281 on the small flights and credit-card stand-ins, where the
//! bit-exact reference trainer stays near 5): every row norm is at most 1.
//! What can go wrong is the opposite, a token left with a zero vector when
//! the PMI shift clips its every entry. Each test trains one planted
//! dataset with the production defaults in both count-trainer modes and
//! asserts that every row is finite, at most unit norm and non-zero.

use subtab_binning::{Binner, BinningConfig};
use subtab_datasets::{DatasetKind, DatasetSize};
use subtab_embed::{train_embedding, EmbeddingConfig};

/// `(name, threads, deterministic)`: the two-shard mode every `threads > 1`
/// caller runs, and the single-thread mode `deterministic = false` picks.
const COUNT_MODES: [(&str, usize, bool); 2] = [("t2-det", 2, true), ("t1-fast", 1, false)];

fn assert_every_row_is_placed(kind: DatasetKind) {
    let dataset = kind.build(DatasetSize::Small, 7);
    let binner = Binner::fit(&dataset.table, &BinningConfig::default()).unwrap();
    let bt = binner.apply(&dataset.table).unwrap();
    let mut failures = Vec::new();
    for (mode, threads, deterministic) in COUNT_MODES {
        let config = EmbeddingConfig {
            threads,
            deterministic,
            ..Default::default()
        };
        let emb = train_embedding(&bt, &config);
        assert!(!emb.is_empty(), "{kind:?} {mode}");
        for (token, row) in emb.tokens().iter().zip(emb.matrix().chunks(emb.dim())) {
            let norm = row.iter().map(|x| x * x).sum::<f32>().sqrt();
            // A NaN norm fails too.
            if !(norm > 0.0 && norm <= 1.0 + 1e-5) {
                failures.push(format!("{kind:?} {mode}: token {token} row norm {norm}"));
            }
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

#[test]
fn flights() {
    assert_every_row_is_placed(DatasetKind::Flights);
}

#[test]
fn cyber() {
    assert_every_row_is_placed(DatasetKind::Cyber);
}

#[test]
fn spotify() {
    assert_every_row_is_placed(DatasetKind::Spotify);
}

#[test]
fn credit_card() {
    assert_every_row_is_placed(DatasetKind::CreditCard);
}

#[test]
fn us_funds() {
    assert_every_row_is_placed(DatasetKind::UsFunds);
}

#[test]
fn bank_loans() {
    assert_every_row_is_placed(DatasetKind::BankLoans);
}
