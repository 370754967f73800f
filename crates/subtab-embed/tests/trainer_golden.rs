//! Golden-value tests for the embedding trainers.
//!
//! The fixture in `tests/golden/embedding_ref_seed7.txt` was captured from
//! the pre-refactor single-threaded trainer (hex `f32::to_bits` per
//! component). The `threads = 1` reference path must keep reproducing it
//! byte for byte; the count trainer that every `threads > 1` setting runs
//! must stay run-to-run reproducible, whatever `deterministic` says.

use subtab_binning::{Binner, BinningConfig};
use subtab_data::Table;
use subtab_embed::{train_embedding, CellEmbedding, EmbeddingConfig};

/// The exact table and configuration the fixture was captured with
/// (`window: None` so the corrected pair count leaves the learning-rate
/// schedule untouched).
fn golden_setup() -> (subtab_binning::BinnedTable, EmbeddingConfig) {
    let rows = 50usize;
    let t = Table::builder()
        .column_i64("a", (0..rows).map(|i| Some((i % 2) as i64)).collect())
        .column_str(
            "b",
            (0..rows)
                .map(|i| Some(if i % 2 == 0 { "x" } else { "y" }))
                .collect(),
        )
        .column_i64("c", (0..rows).map(|i| Some((i % 5) as i64)).collect())
        .build()
        .unwrap();
    let binner = Binner::fit(&t, &BinningConfig::default()).unwrap();
    let bt = binner.apply(&t).unwrap();
    let cfg = EmbeddingConfig {
        dim: 8,
        epochs: 3,
        window: None,
        seed: 7,
        max_column_sentence_len: 16,
        threads: 1,
        deterministic: true,
        ..Default::default()
    };
    (bt, cfg)
}

fn render_bits(emb: &CellEmbedding) -> String {
    let mut out = String::new();
    for token in emb.tokens() {
        out.push_str(token);
        for x in emb.vector(token).unwrap().iter() {
            out.push_str(&format!(" {:08x}", x.to_bits()));
        }
        out.push('\n');
    }
    out
}

/// The count trainer fails by collapsing to zero vectors. Every token of
/// these tables has a positive PMI with some token, so each must get a
/// finite, non-zero vector.
fn assert_every_vector_non_zero(emb: &CellEmbedding) {
    assert!(!emb.is_empty());
    for token in emb.tokens() {
        let v = emb.vector(token).unwrap();
        assert!(v.iter().all(|x| x.is_finite()), "token {token}: {v:?}");
        assert!(v.iter().any(|&x| x != 0.0), "token {token}: zero vector");
    }
}

#[test]
fn threads_1_reference_path_is_bit_exact_with_pre_refactor_golden() {
    let (bt, cfg) = golden_setup();
    let emb = train_embedding(&bt, &cfg);
    let golden = include_str!("golden/embedding_ref_seed7.txt");
    assert_eq!(
        render_bits(&emb),
        golden,
        "threads = 1 reference output drifted from the pre-refactor golden embedding"
    );
}

#[test]
fn threads_4_deterministic_mode_is_run_to_run_reproducible() {
    let (bt, cfg) = golden_setup();
    let cfg = EmbeddingConfig {
        threads: 4,
        deterministic: true,
        ..cfg
    };
    let a = train_embedding(&bt, &cfg);
    let b = train_embedding(&bt, &cfg);
    assert_eq!(render_bits(&a), render_bits(&b));
    assert_every_vector_non_zero(&a);
}

#[test]
fn threads_4_give_the_same_bits_for_either_deterministic_flag() {
    let (bt, cfg) = golden_setup();
    let train = |deterministic| {
        train_embedding(
            &bt,
            &EmbeddingConfig {
                threads: 4,
                deterministic,
                ..cfg.clone()
            },
        )
    };
    let fast = train(false);
    assert_every_vector_non_zero(&fast);
    let fast = render_bits(&fast);
    assert_eq!(fast, render_bits(&train(true)));
    assert_eq!(fast, render_bits(&train(false)));
}

#[test]
fn count_trainer_learns_the_planted_co_occurrence() {
    // `threads = 4, deterministic = false` runs the count trainer over four
    // counting shards. The learned structure must hold: a=0 co-occurs with
    // b="p" in every row sentence and never with b="q". A 4-way keyed
    // pattern keeps the embedding space non-degenerate.
    let rows = 200usize;
    let labels = ["p", "q", "r", "s"];
    let t = Table::builder()
        .column_i64("a", (0..rows).map(|i| Some((i % 4) as i64)).collect())
        .column_str("b", (0..rows).map(|i| Some(labels[i % 4])).collect())
        .column_i64("c", (0..rows).map(|i| Some((i % 5) as i64)).collect())
        .build()
        .unwrap();
    let binner = Binner::fit(&t, &BinningConfig::default()).unwrap();
    let bt = binner.apply(&t).unwrap();
    let emb = train_embedding(
        &bt,
        &EmbeddingConfig {
            dim: 8,
            epochs: 12,
            seed: 7,
            window: None,
            include_column_sentences: false,
            threads: 4,
            deterministic: false,
            ..Default::default()
        },
    );
    assert_every_vector_non_zero(&emb);
    let a_col = bt.column_index("a").unwrap();
    let b_col = bt.column_index("b").unwrap();
    let pos = emb
        .cosine(&bt.cell_token(0, a_col), &bt.cell_token(0, b_col))
        .unwrap();
    let neg = emb
        .cosine(&bt.cell_token(0, a_col), &bt.cell_token(1, b_col))
        .unwrap();
    assert!(
        pos > neg,
        "the count trainer lost the planted co-occurrence: cos+ = {pos}, cos- = {neg}"
    );
}
