//! The embedding trainers: skip-gram with negative sampling (SGNS), the
//! Word2Vec variant used by the paper's reference implementation (via
//! gensim), and the count trainer that computes what SGNS approximates.
//!
//! # Trainer architecture
//!
//! Training reads a sequence of `(center, context)` pairs that is never
//! stored whole: every mode reads it in chunks of at most 64 Ki pairs
//! (512 KiB). [`train_embedding`] regenerates them from the binned table's
//! code planes ([`build_pair_stream`]), [`train_on_corpus`] from an explicit
//! sentence corpus through the same prefix-sum reader, and [`train_pairs`]
//! copies them out of a caller's slice. Two trainers cover the
//! fidelity/speed trade-off:
//!
//! | `threads` | `deterministic` | trainer |
//! |---|---|---|
//! | 1 | `true` (default) | **reference SGNS** — bit-exact with the original single-threaded trainer |
//! | 1 | `false` | **count trainer** |
//! | 0 (all cores) or >1 | either | **count trainer**, the same bits as on one thread |
//!
//! The choice reads the configured values only, so it is the same on every
//! host and for every stream size.
//!
//! The reference trainer runs `epochs` passes of SGD over the stream with an
//! exact `exp` sigmoid and cumulative-table negative sampling, one RNG
//! stream continuing from initialisation. It stays the default so the
//! paper-default output, the golden embeddings and every downstream test
//! that depends on exact vector values keep their bits.
//!
//! The count trainer (`ppmi.rs`) reads the stream once, counts every
//! distinct pair exactly, turns the counts into the shifted positive PMI
//! matrix SGNS implicitly factorises (Levy & Goldberg, NeurIPS 2014; no
//! shift when it would clip away a positively associated token), and
//! returns the eigenvectors of its `dim` largest positive eigenvalues
//! (`eigen.rs`). Counting is sharded over `threads` and merged as
//! integers; the eigensolve is scalar `f64` with no kernel dispatch. So its
//! vectors are the same bits at every thread count and on every ISA, and
//! `SUBTAB_FORCE_SCALAR_KERNELS` changes nothing. On the 8 000 × 48 wide
//! table the stream holds 11.28 M pairs per epoch but only 26 790 distinct
//! ordered pairs over 288 tokens, so one counting pass replaces three
//! epochs of per-pair SGD.
//!
//! One deliberate deviation from the pre-refactor trainer applies to the
//! reference: the pair count feeding the learning-rate schedule is *exact*
//! (the stream's pair count, whose closed form is `pairs_for_len` per
//! sentence), where the old trainer overcounted near sentence edges and
//! decayed the learning rate too slowly. Reference output is therefore
//! byte-identical to pre-refactor exactly when the old count was already
//! exact — windowless configs, or windows no shorter than every sentence —
//! which is what the golden-fixture test pins; windowed configs differ by
//! the corrected schedule (and only by it).

use crate::corpus::Corpus;
use crate::model::CellEmbedding;
use crate::ppmi::train_counts;
use crate::stream::{
    build_pair_stream, for_each_chunk, pairs_for_len, PairSource, SentencePairs, StreamOptions,
};
use crate::vocab::Vocab;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use subtab_binning::BinnedTable;
use subtab_kernels::resolve_threads;

/// Hyper-parameters of the embedding step. The reference SGNS trainer reads
/// every field. The count trainer (`threads` other than 1, or
/// `deterministic = false`) reads `dim`, `negative_samples` (as the PMI shift), the stream
/// fields (`window`, `max_sentences`, `max_column_sentence_len`,
/// `include_column_sentences`, `min_count`, `subsample_t`), `seed` and
/// `threads`, and ignores `epochs` and `learning_rate`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EmbeddingConfig {
    /// Dimensionality of the cell vectors (γ in the paper's notation). The
    /// count trainer pads with zero columns past the matrix's positive
    /// eigenvalues (at most the vocabulary size).
    pub dim: usize,
    /// Number of SGNS passes over the corpus. The count trainer reads the
    /// corpus once and ignores it.
    pub epochs: usize,
    /// Initial SGNS learning rate (linearly decayed to 10% over training).
    /// The count trainer has no learning rate and ignores it.
    pub learning_rate: f32,
    /// Number of negative samples per positive pair. The count trainer
    /// subtracts `ln(negative_samples)` from every PMI entry (no shift
    /// below one sample), the shift SGNS with that many samples implies,
    /// unless that shift would clip every entry of a token with a positive
    /// PMI; then it subtracts nothing.
    pub negative_samples: usize,
    /// Context window. `None` uses the whole sentence as context, matching
    /// the paper's `windowSize = max(n, m)`; a small value (e.g. 8) trades a
    /// little fidelity for much faster training on long sentences.
    pub window: Option<usize>,
    /// Maximum number of sentences in the corpus (paper: 100 000).
    pub max_sentences: usize,
    /// Chunk length for column sentences.
    pub max_column_sentence_len: usize,
    /// Whether column sentences are included in the corpus.
    pub include_column_sentences: bool,
    /// RNG seed: the corpus subsample for both trainers; the SGNS
    /// initialisation and negative sampling, or the count trainer's
    /// eigensolver start block.
    pub seed: u64,
    /// Minimum corpus occurrence count for a token to enter the vocabulary
    /// (counted like the materialized corpus: every cell visit, so ×2 when
    /// column sentences are on). Pruned cells resolve to `NO_TOKEN` in the
    /// token plane, which selection already skips. `0` (the default) and
    /// `1` keep everything — and keep preprocess output byte-identical.
    #[serde(default)]
    pub min_count: u64,
    /// Word2Vec frequency-subsampling threshold `t`: an occurrence of a
    /// token with corpus frequency `f` is kept with probability
    /// `min(1, sqrt(t/f) + t/f)` under a deterministic seeded hash.
    /// `0.0` (the default) disables subsampling. Typical: 1e-3 .. 1e-5.
    #[serde(default)]
    pub subsample_t: f64,
    /// Worker threads. `1` (the default) trains on a single thread; `0`
    /// and any value above one select the count trainer, which shards its
    /// counting pass over that many threads (`0`: all available cores).
    pub threads: usize,
    /// Trainer choice at `threads = 1`: `true` selects the bit-exact
    /// reference SGNS trainer, `false` the count trainer. At any other
    /// `threads` the count trainer always runs, so the flag has no effect
    /// there.
    pub deterministic: bool,
}

impl Default for EmbeddingConfig {
    fn default() -> Self {
        EmbeddingConfig {
            dim: 32,
            epochs: 3,
            learning_rate: 0.025,
            negative_samples: 5,
            window: Some(8),
            max_sentences: 100_000,
            max_column_sentence_len: 64,
            include_column_sentences: true,
            seed: 42,
            min_count: 0,
            subsample_t: 0.0,
            threads: 1,
            deterministic: true,
        }
    }
}

impl EmbeddingConfig {
    fn stream_options(&self) -> StreamOptions {
        StreamOptions {
            max_sentences: self.max_sentences,
            max_column_sentence_len: self.max_column_sentence_len,
            include_column_sentences: self.include_column_sentences,
            seed: self.seed,
            window: self.window,
            min_count: self.min_count,
            subsample_t: self.subsample_t,
        }
    }
}

/// Trains cell embeddings for a binned table. This is the expensive half of
/// SubTab's pre-processing phase.
///
/// The pair stream is built directly from the columnar code planes
/// ([`build_pair_stream`]) — no materialized sentence corpus — honouring the
/// config's `min_count` / `subsample_t` pruning knobs. With the knobs at
/// their defaults the trained model is byte-identical to
/// [`train_on_corpus`] over the materialized row/column sentence corpus
/// (the `corpus_equivalence` suite pins this on the planted datasets).
pub fn train_embedding(binned: &BinnedTable, config: &EmbeddingConfig) -> CellEmbedding {
    let stream = build_pair_stream(binned, &config.stream_options());
    train_source(&stream.vocab, &stream, config, CHUNK_PAIRS)
}

/// Trains an embedding on an already-built corpus of explicit sentences
/// (the graph-walk corpus of the EmbDI baseline, for one). The corpus-shape
/// fields of `config` (`max_sentences`, column sentences, `min_count`,
/// `subsample_t`) do not apply: the sentences are taken as given. The
/// trainer reads the sentences' pairs in chunks, like [`train_embedding`].
///
/// # Panics
/// Panics if the vocabulary is not empty and a sentence that yields pairs
/// names a token id outside it.
pub fn train_on_corpus(corpus: &Corpus, config: &EmbeddingConfig) -> CellEmbedding {
    let vocab = &corpus.vocab;
    assert_ids_in_vocab(
        vocab,
        corpus
            .sentences
            .iter()
            .filter(|s| pairs_for_len(s.len(), config.window) > 0)
            .flatten()
            .copied(),
    );
    let source = SentencePairs::new(&corpus.sentences, config.window);
    train_source(vocab, &source, config, CHUNK_PAIRS)
}

/// Trains an embedding over a caller's `(center, context)` pair slice and
/// its vocabulary: the trainer behind [`train_embedding`] and
/// [`train_on_corpus`], fed from one in-memory slice.
///
/// # Panics
/// Panics if `vocab` is not empty and a pair names a token id outside it.
pub fn train_pairs(vocab: &Vocab, pairs: &[[u32; 2]], config: &EmbeddingConfig) -> CellEmbedding {
    assert_ids_in_vocab(vocab, pairs.iter().flatten().copied());
    train_source(vocab, &pairs, config, CHUNK_PAIRS)
}

/// Both trainers index their rows by pair id, so a caller's ids are checked
/// here, before any training, with one message. An empty vocabulary trains
/// nothing, so it accepts any ids.
fn assert_ids_in_vocab(vocab: &Vocab, mut ids: impl Iterator<Item = u32>) {
    assert!(
        vocab.is_empty() || ids.all(|id| (id as usize) < vocab.len()),
        "pair token id outside the vocabulary"
    );
}

/// The shared back half of every entry point: trains the vocabulary's
/// vectors over `pairs`, which both trainers read in chunks of at most
/// `chunk` pairs ([`CHUNK_PAIRS`] outside tests; the bits do not depend on
/// it). Every id in `pairs` must be a vocabulary id.
fn train_source(
    vocab: &Vocab,
    pairs: &dyn PairSource,
    config: &EmbeddingConfig,
    chunk: usize,
) -> CellEmbedding {
    let dim = config.dim.max(1);
    if vocab.is_empty() {
        return CellEmbedding::new(dim, Vec::new(), Vec::new());
    }
    let weights = match (config.threads, config.deterministic) {
        (1, true) => train_reference(vocab, config, pairs, chunk),
        (threads, _) => train_counts(
            vocab.len(),
            pairs,
            chunk,
            resolve_threads(threads, pairs.num_pairs()),
            dim,
            config.negative_samples,
            config.seed,
        ),
    };
    CellEmbedding::from_flat(dim, vocab.tokens().to_vec(), weights)
}

/// Pairs regenerated per read: 64 Ki pairs, 512 KiB of `[u32; 2]`. Large
/// enough that a chunk's one or two cut sentences cost nothing next to it,
/// small enough to stay cache-resident while the trainer reads it.
const CHUNK_PAIRS: usize = 1 << 16;

// ---------------------------------------------------------------------------
// Reference path: bit-exact with the original single-threaded trainer.

/// The original trainer, reproduced computation-for-computation over the
/// pair sequence, read chunk by chunk in order: Word2Vec-style
/// initialisation, exact `exp` sigmoid, cumulative-table negative sampling,
/// one RNG stream continuing from initialisation. Golden embeddings are
/// validated against this path. Returns the input vectors.
fn train_reference(
    vocab: &Vocab,
    config: &EmbeddingConfig,
    pairs: &dyn PairSource,
    chunk: usize,
) -> Vec<f32> {
    let dim = config.dim.max(1);
    let mut rng = StdRng::seed_from_u64(config.seed);
    // Input vectors uniform in [-0.5/dim, 0.5/dim], output vectors zero.
    // The init draws come first in the seed RNG stream, exactly as in the
    // original trainer.
    let mut w_in: Vec<f32> = (0..vocab.len() * dim)
        .map(|_| (rng.gen::<f32>() - 0.5) / dim as f32)
        .collect();
    let mut w_out: Vec<f32> = vec![0.0; vocab.len() * dim];
    sgd_epochs(vocab, config, pairs, chunk, &mut w_in, &mut w_out, &mut rng);
    w_in
}

/// The reference trainer's `epochs` passes of SGD over `pairs`. The weights
/// come in as slices, not as the owning `Vec`s: with the `Vec`s captured by
/// the chunk closure instead, the reference trainer ran about 12% slower
/// (`preprocess` experiment, `reference-1t`).
fn sgd_epochs(
    vocab: &Vocab,
    config: &EmbeddingConfig,
    pairs: &dyn PairSource,
    chunk: usize,
    w_in: &mut [f32],
    w_out: &mut [f32],
    rng: &mut StdRng,
) {
    let dim = config.dim.max(1);
    let epochs = config.epochs.max(1);
    let num_pairs = pairs.num_pairs();
    let total_pairs = num_pairs * epochs;
    let mut processed = 0usize;
    let lr0 = config.learning_rate;
    let mut grad_in = vec![0.0f32; dim];
    let mut center_vec = vec![0.0f32; dim];

    for _epoch in 0..epochs {
        for_each_chunk(pairs, 0..num_pairs, chunk, |pairs| {
            for &[center, context] in pairs {
                let lr = lr0 * (1.0 - processed as f32 / (total_pairs as f32 + 1.0)).max(0.1);
                processed += 1;

                // One positive + `negative_samples` negative updates.
                grad_in.iter_mut().for_each(|g| *g = 0.0);
                center_vec.copy_from_slice(row(w_in, center, dim));
                for neg in 0..=config.negative_samples {
                    let (target, label) = if neg == 0 {
                        (context, 1.0f32)
                    } else {
                        (vocab.sample_negative(rng), 0.0f32)
                    };
                    if label == 0.0 && target == context {
                        continue;
                    }
                    let out = row_mut(w_out, target, dim);
                    let dot: f32 = center_vec.iter().zip(out.iter()).map(|(a, b)| a * b).sum();
                    let pred = sigmoid(dot);
                    let g = (label - pred) * lr;
                    for d in 0..dim {
                        grad_in[d] += g * out[d];
                        out[d] += g * center_vec[d];
                    }
                }
                let center_slice = row_mut(w_in, center, dim);
                for d in 0..dim {
                    center_slice[d] += grad_in[d];
                }
            }
        });
    }
}

#[inline]
fn sigmoid(x: f32) -> f32 {
    1.0 / (1.0 + (-x).exp())
}

#[inline]
fn row(m: &[f32], idx: u32, dim: usize) -> &[f32] {
    let start = idx as usize * dim;
    &m[start..start + dim]
}

#[inline]
fn row_mut(m: &mut [f32], idx: u32, dim: usize) -> &mut [f32] {
    let start = idx as usize * dim;
    &mut m[start..start + dim]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::emit_pairs;
    use subtab_binning::{Binner, BinningConfig};
    use subtab_data::Table;

    /// Table with a strong co-occurrence pattern: a=0 ⇔ b="x", a=1 ⇔ b="y",
    /// while column c is uncorrelated noise.
    fn patterned_binned(rows: usize) -> BinnedTable {
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
        binner.apply(&t).unwrap()
    }

    fn small_config() -> EmbeddingConfig {
        EmbeddingConfig {
            dim: 16,
            epochs: 8,
            seed: 3,
            ..Default::default()
        }
    }

    #[test]
    fn training_is_deterministic_given_seed() {
        let bt = patterned_binned(60);
        let cfg = small_config();
        let a = train_embedding(&bt, &cfg);
        let b = train_embedding(&bt, &cfg);
        for token in a.tokens() {
            assert_eq!(a.vector(token), b.vector(token));
        }
    }

    #[test]
    fn co_occurring_tokens_are_closer_than_unrelated_ones() {
        let bt = patterned_binned(120);
        let emb = train_embedding(&bt, &small_config());
        let a0 = {
            let c = bt.column_index("a").unwrap();
            bt.cell_token(0, c)
        };
        let b_x = {
            let c = bt.column_index("b").unwrap();
            bt.cell_token(0, c)
        };
        let b_y = {
            let c = bt.column_index("b").unwrap();
            bt.cell_token(1, c)
        };
        let sim_pos = emb.cosine(&a0, &b_x).unwrap();
        let sim_neg = emb.cosine(&a0, &b_y).unwrap();
        assert!(
            sim_pos > sim_neg,
            "expected cos(a=0, b=x) = {sim_pos} > cos(a=0, b=y) = {sim_neg}"
        );
    }

    #[test]
    fn every_used_bin_gets_a_vector_of_the_right_dimension() {
        let bt = patterned_binned(40);
        let cfg = small_config();
        let emb = train_embedding(&bt, &cfg);
        for r in 0..bt.num_rows() {
            for c in 0..bt.num_columns() {
                let v = emb.vector(&bt.cell_token(r, c)).expect("vector exists");
                assert_eq!(v.len(), cfg.dim);
                assert!(v.iter().all(|x| x.is_finite()));
            }
        }
    }

    #[test]
    fn empty_corpus_yields_empty_embedding() {
        let t = Table::builder()
            .column_i64("a", Vec::new())
            .build()
            .unwrap();
        let binner = Binner::fit(&t, &BinningConfig::default()).unwrap();
        let bt = binner.apply(&t).unwrap();
        let emb = train_embedding(&bt, &EmbeddingConfig::default());
        assert_eq!(emb.len(), 0);
    }

    #[test]
    fn full_sentence_window_works() {
        let bt = patterned_binned(30);
        let cfg = EmbeddingConfig {
            window: None,
            epochs: 2,
            dim: 8,
            ..Default::default()
        };
        let emb = train_embedding(&bt, &cfg);
        assert!(!emb.is_empty());
    }

    /// The closed-form pair count must agree with brute-force window
    /// enumeration for every window size, including the edge cases the old
    /// `len * min(2w, len - 1)` formula overcounted.
    #[test]
    fn pairs_for_len_is_exact() {
        let brute = |sentences: &[Vec<u32>], window: Option<usize>| -> usize {
            sentences
                .iter()
                .map(|s| {
                    let len = s.len();
                    let mut n = 0usize;
                    for i in 0..len {
                        let (lo, hi) = match window {
                            Some(w) => (i.saturating_sub(w), (i + w + 1).min(len)),
                            None => (0, len),
                        };
                        n += (lo..hi).filter(|&j| j != i).count();
                    }
                    n
                })
                .sum()
        };
        let sentence_sets: Vec<Vec<Vec<u32>>> = vec![
            vec![],
            vec![vec![]],
            vec![vec![1]],
            vec![vec![1, 2]],
            vec![vec![1, 2, 3, 4, 5]],
            vec![(0..17).collect(), (0..3).collect(), vec![9]],
            vec![(0..64).collect()],
        ];
        for sentences in sentence_sets {
            for window in [None, Some(0), Some(1), Some(2), Some(5), Some(8), Some(100)] {
                let closed: usize = sentences
                    .iter()
                    .map(|s| pairs_for_len(s.len(), window))
                    .sum();
                assert_eq!(
                    closed,
                    brute(&sentences, window),
                    "window {window:?} on {sentences:?}"
                );
                let mut pairs = Vec::new();
                for s in &sentences {
                    emit_pairs(s, window, &mut pairs);
                }
                assert_eq!(
                    pairs.len(),
                    brute(&sentences, window),
                    "emitted count, window {window:?}"
                );
            }
        }
    }

    /// Both trainers read their pairs in chunks. The chunk size must not
    /// change a bit: the reference path, and the count trainer at one to
    /// three counting shards and several dimensions, against one chunk
    /// spanning the whole stream.
    #[test]
    fn chunk_size_does_not_change_the_bits() {
        let bt = patterned_binned(120);
        for (threads, deterministic, dim) in [
            (1, true, 16),
            (1, false, 8),
            (1, false, 32),
            (2, true, 16),
            (2, false, 24),
            (3, true, 32),
        ] {
            let cfg = EmbeddingConfig {
                threads,
                deterministic,
                dim,
                epochs: 2,
                ..small_config()
            };
            let stream = build_pair_stream(&bt, &cfg.stream_options());
            let train = |chunk: usize| train_source(&stream.vocab, &stream, &cfg, chunk);
            let bits = |chunk: usize| -> Vec<u32> {
                train(chunk).matrix().iter().map(|x| x.to_bits()).collect()
            };
            assert_every_vector_non_zero(&train(stream.num_pairs()));
            let whole = bits(stream.num_pairs());
            for chunk in [1, 2, 7, 64, 1_000] {
                assert!(
                    bits(chunk) == whole,
                    "threads {threads}, deterministic {deterministic}, dim {dim}: chunk {chunk}"
                );
            }
        }
    }

    /// FNV-1a 64 over every token and the bits of its vector.
    fn digest(emb: &CellEmbedding, mut h: u64) -> u64 {
        let mut fold = |bytes: &[u8]| {
            for &b in bytes {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01B3);
            }
        };
        for token in emb.tokens() {
            fold(token.as_bytes());
            for x in emb.vector(token).unwrap().iter() {
                fold(&x.to_bits().to_le_bytes());
            }
        }
        h
    }

    /// `<dataset> <digest>` lines of the count trainer on the six Tiny
    /// planted datasets (seed 7), each digest folding dims 8 to 64, trained
    /// through `train_source` with `threads`, `deterministic` and `chunk`.
    fn count_trainer_digests(threads: usize, deterministic: bool, chunk: usize) -> Vec<String> {
        use subtab_datasets::{DatasetKind, DatasetSize};
        let kinds = [
            DatasetKind::Flights,
            DatasetKind::Cyber,
            DatasetKind::Spotify,
            DatasetKind::CreditCard,
            DatasetKind::UsFunds,
            DatasetKind::BankLoans,
        ];
        kinds
            .into_iter()
            .map(|kind| {
                let dataset = kind.build(DatasetSize::Tiny, 7);
                let binner = Binner::fit(&dataset.table, &BinningConfig::default()).unwrap();
                let bt = binner.apply(&dataset.table).unwrap();
                let mut h = 0xCBF2_9CE4_8422_2325;
                for dim in [8, 16, 24, 32, 48, 64] {
                    let cfg = EmbeddingConfig {
                        dim,
                        max_sentences: 300,
                        seed: 11,
                        threads,
                        deterministic,
                        ..Default::default()
                    };
                    let stream = build_pair_stream(&bt, &cfg.stream_options());
                    h = digest(&train_source(&stream.vocab, &stream, &cfg, chunk), h);
                }
                format!("{kind:?} {h:016x}")
            })
            .collect()
    }

    const COUNT_FIXTURE: &str = "tests/golden/count_trainer_digests.txt";

    /// The count trainer's bits, pinned once for every ISA: it is scalar
    /// `f64` with no kernel dispatch, so the same lines hold under
    /// `SUBTAB_FORCE_SCALAR_KERNELS=1` and on any CPU. They are also the
    /// bits at one thread (`deterministic = false`), two and four, and at
    /// any chunk size. A deliberate numerics change regenerates the file
    /// with `cargo test -p subtab-embed count_trainer_digests -- --ignored`.
    #[test]
    fn count_trainer_bits_match_the_fixture_at_every_thread_count() {
        let fixture = include_str!("../tests/golden/count_trainer_digests.txt");
        let want: Vec<&str> = fixture.lines().filter(|l| !l.starts_with('#')).collect();
        let got = count_trainer_digests(2, true, CHUNK_PAIRS);
        assert_eq!(got, want, "count trainer bits drifted from {COUNT_FIXTURE}");
        for (threads, deterministic, chunk) in
            [(1, false, CHUNK_PAIRS), (4, true, 4_096), (2, false, 1_000)]
        {
            assert_eq!(
                count_trainer_digests(threads, deterministic, chunk),
                got,
                "threads {threads}, deterministic {deterministic}, chunk {chunk}"
            );
        }
    }

    #[test]
    #[ignore = "regenerates tests/golden/count_trainer_digests.txt"]
    fn regenerate_count_trainer_digests() {
        let mut lines =
            vec!["# <dataset> <FNV-1a 64 of the count trainer's weights, dims 8..64>".to_string()];
        lines.extend(count_trainer_digests(2, true, CHUNK_PAIRS));
        let path = format!("{}/{COUNT_FIXTURE}", env!("CARGO_MANIFEST_DIR"));
        std::fs::write(path, lines.join("\n") + "\n").unwrap();
    }

    fn count_config() -> EmbeddingConfig {
        EmbeddingConfig {
            deterministic: false,
            ..small_config()
        }
    }

    fn assert_all_zero_and_finite(emb: &CellEmbedding) {
        assert!(emb.matrix().iter().all(|&x| x == 0.0), "non-zero vector");
    }

    /// The count trainer fails by collapsing to zero vectors, not by
    /// running away. Every token of the patterned tables has a positive
    /// PMI with some token, so each must get a finite, non-zero vector.
    fn assert_every_vector_non_zero(emb: &CellEmbedding) {
        assert!(!emb.is_empty());
        for token in emb.tokens() {
            let v = emb.vector(token).unwrap();
            assert!(v.iter().all(|x| x.is_finite()), "token {token}: {v:?}");
            assert!(v.iter().any(|&x| x != 0.0), "token {token}: zero vector");
        }
    }

    #[test]
    fn count_trainer_edge_cases_give_finite_vectors() {
        // Empty vocabulary: nothing to train.
        let emb = train_pairs(&Vocab::default(), &[], &count_config());
        assert_eq!(emb.len(), 0);

        // `min_count` pruning every token leaves an empty vocabulary.
        let bt = patterned_binned(40);
        let pruned = EmbeddingConfig {
            min_count: 1_000_000,
            ..count_config()
        };
        assert_eq!(train_embedding(&bt, &pruned).len(), 0);

        // Fewer tokens than dimensions: the columns past the vocabulary's
        // eigenvalues are zero, the rest carry the planted structure.
        let wide = EmbeddingConfig {
            dim: 64,
            ..count_config()
        };
        let emb = train_embedding(&bt, &wide);
        let v = emb.len();
        assert!(v < 64);
        for row in emb.matrix().chunks(64) {
            assert!(row[v..].iter().all(|&x| x == 0.0));
            assert!(row.iter().all(|x| x.is_finite()));
        }
        assert_every_vector_non_zero(&emb);

        // However many negative samples, the shift never clips a token's
        // whole row: the vectors stay non-zero.
        let shifted = EmbeddingConfig {
            negative_samples: 1_000_000,
            ..count_config()
        };
        assert_every_vector_non_zero(&train_embedding(&bt, &shifted));

        // Independent tokens: every pair occurs as often as its tokens'
        // frequencies predict, so every PMI is 0, no entry is positive and
        // the matrix has no positive eigenvalue. Every vector is zero, not
        // NaN.
        let mut vocab = Vocab::from_tokens_and_counts(vec!["a".into(), "b".into()], vec![2, 2]);
        vocab.build_sampling_table();
        let independent = [[0, 0], [0, 1], [1, 0], [1, 1]];
        let emb = train_pairs(&vocab, &independent, &count_config());
        assert_eq!(emb.len(), 2);
        assert_all_zero_and_finite(&emb);

        // Tokens that never pair: zero vectors too.
        let mut vocab = Vocab::from_tokens_and_counts(vec!["a".into(), "b".into()], vec![1, 1]);
        vocab.build_sampling_table();
        let emb = train_pairs(&vocab, &[], &count_config());
        assert_eq!(emb.len(), 2);
        assert_all_zero_and_finite(&emb);
    }

    #[test]
    fn fast_sequential_mode_is_reproducible_and_sane() {
        let bt = patterned_binned(120);
        let cfg = EmbeddingConfig {
            deterministic: false,
            // Full-sentence windows over row sentences only: column
            // sentences link alternating values of the same column, which
            // dilutes the planted cross-column signal this test asserts.
            window: None,
            include_column_sentences: false,
            ..small_config()
        };
        let a = train_embedding(&bt, &cfg);
        let b = train_embedding(&bt, &cfg);
        for token in a.tokens() {
            assert_eq!(a.vector(token), b.vector(token));
        }
        assert_every_vector_non_zero(&a);
        // Same qualitative structure as the reference trainer: the count
        // trainer at one thread.
        let a_col = bt.column_index("a").unwrap();
        let b_col = bt.column_index("b").unwrap();
        let sim_pos = a
            .cosine(&bt.cell_token(0, a_col), &bt.cell_token(0, b_col))
            .unwrap();
        let sim_neg = a
            .cosine(&bt.cell_token(0, a_col), &bt.cell_token(1, b_col))
            .unwrap();
        assert!(sim_pos > sim_neg);
    }

    /// `deterministic = false` at four threads runs the count trainer,
    /// like `true` does.
    #[test]
    fn parallel_fast_flag_trains_finite_vectors() {
        let bt = patterned_binned(60);
        let cfg = EmbeddingConfig {
            threads: 4,
            deterministic: false,
            ..small_config()
        };
        assert_every_vector_non_zero(&train_embedding(&bt, &cfg));
    }

    #[test]
    fn deterministic_parallel_mode_is_run_to_run_reproducible() {
        let bt = patterned_binned(60);
        let cfg = EmbeddingConfig {
            threads: 4,
            deterministic: true,
            ..small_config()
        };
        let a = train_embedding(&bt, &cfg);
        let b = train_embedding(&bt, &cfg);
        for token in a.tokens() {
            assert_eq!(a.vector(token), b.vector(token), "token {token}");
        }
        assert_every_vector_non_zero(&a);
    }

    /// A foreign id must stop the count trainer (the fast tier) before it
    /// counts anything, with the message the reference path's check gives.
    #[test]
    #[should_panic(expected = "outside the vocabulary")]
    fn fast_kernels_reject_pair_ids_outside_the_vocabulary() {
        let mut vocab =
            Vocab::from_tokens_and_counts(vec!["a".to_string(), "b".to_string()], vec![3, 2]);
        vocab.build_sampling_table();
        let cfg = EmbeddingConfig {
            deterministic: false,
            ..small_config()
        };
        train_pairs(&vocab, &[[0, 1], [1, 400_000_000]], &cfg);
    }

    #[test]
    fn threads_zero_resolves_to_available_parallelism() {
        let cfg = EmbeddingConfig {
            threads: 0,
            ..Default::default()
        };
        assert!(resolve_threads(cfg.threads, usize::MAX) >= 1);
        let bt = patterned_binned(30);
        let emb = train_embedding(
            &bt,
            &EmbeddingConfig {
                threads: 0,
                epochs: 2,
                dim: 8,
                ..Default::default()
            },
        );
        assert!(!emb.is_empty());
    }
}
