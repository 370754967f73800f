//! Equivalence suite for the streaming preprocess path: with the pruning
//! knobs off, the pair stream ([`build_pair_stream`]) must reproduce the
//! materialized corpus oracle in `corpus_oracle` exactly (vocabulary order,
//! counts and pair enumeration), on small hand-built tables and on every
//! planted dataset, and [`train_embedding`] must produce the weights
//! [`train_on_corpus`] trains from the oracle's corpus, bit for bit. The
//! stream stores no pairs, so every range the trainer reads through
//! [`PairStream::fill`] (fixed chunks, each shard's halves) must equal the
//! same slice of the oracle's buffer, with the pruning knobs on as well as
//! off. The last tests pin the oracle's own corpus shape (sentence kinds,
//! chunking, the seeded cap, token naming).

mod corpus_oracle;

use corpus_oracle::{build_corpus, CorpusOptions};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::ops::Range;
use subtab_binning::{BinnedTable, Binner, BinningConfig};
use subtab_data::Table;
use subtab_datasets::{DatasetKind, DatasetSize};
use subtab_embed::sgns::train_on_corpus;
use subtab_embed::{
    build_pair_stream, train_embedding, CellEmbedding, Corpus, EmbeddingConfig, PairStream,
    StreamOptions,
};

const ALL_KINDS: [DatasetKind; 6] = [
    DatasetKind::Flights,
    DatasetKind::Cyber,
    DatasetKind::Spotify,
    DatasetKind::CreditCard,
    DatasetKind::UsFunds,
    DatasetKind::BankLoans,
];

/// The embedding settings of `subtab_core::SubTabConfig::fast()`, the
/// config the library's own equivalence suites preprocess with.
fn fast_embedding() -> EmbeddingConfig {
    EmbeddingConfig {
        dim: 16,
        epochs: 2,
        window: Some(6),
        ..Default::default()
    }
}

/// The stream options `train_embedding` derives from an embedding config.
fn stream_options(config: &EmbeddingConfig) -> StreamOptions {
    StreamOptions {
        max_sentences: config.max_sentences,
        max_column_sentence_len: config.max_column_sentence_len,
        include_column_sentences: config.include_column_sentences,
        seed: config.seed,
        window: config.window,
        min_count: config.min_count,
        subsample_t: config.subsample_t,
    }
}

/// Pairs `range` of the stream, read through `fill` in chunks of `chunk`.
fn read_chunked(stream: &PairStream, range: Range<usize>, chunk: usize) -> Vec<[u32; 2]> {
    let mut pairs = Vec::with_capacity(range.len());
    for start in range.clone().step_by(chunk) {
        stream.fill(start..(start + chunk).min(range.end), &mut pairs);
    }
    pairs
}

/// The whole stream, read in one range.
fn read_all(stream: &PairStream) -> Vec<[u32; 2]> {
    let mut pairs = Vec::new();
    stream.fill(0..stream.num_pairs(), &mut pairs);
    pairs
}

/// The oracle's corpus options for an embedding config.
fn corpus_options(config: &EmbeddingConfig) -> CorpusOptions {
    CorpusOptions {
        max_sentences: config.max_sentences,
        max_column_sentence_len: config.max_column_sentence_len,
        include_column_sentences: config.include_column_sentences,
        seed: config.seed,
    }
}

fn planted_binned(kind: DatasetKind) -> BinnedTable {
    let dataset = kind.build(DatasetSize::Tiny, 7);
    let binner = Binner::fit(&dataset.table, &BinningConfig::default()).unwrap();
    binner.apply(&dataset.table).unwrap()
}

fn dense_bits(model: &CellEmbedding) -> Vec<u32> {
    model.matrix().iter().map(|x| x.to_bits()).collect()
}

/// A small three-column table: a 5-valued integer, an alternating string
/// and a distinct float per row.
fn small_binned(rows: usize) -> BinnedTable {
    let t = Table::builder()
        .column_i64("a", (0..rows).map(|i| Some((i % 5) as i64)).collect())
        .column_str(
            "b",
            (0..rows)
                .map(|i| Some(if i % 2 == 0 { "x" } else { "y" }))
                .collect(),
        )
        .column_f64("c", (0..rows).map(|i| Some(i as f64 * 0.25)).collect())
        .build()
        .unwrap();
    let binner = Binner::fit(&t, &BinningConfig::default()).unwrap();
    binner.apply(&t).unwrap()
}

/// A corpus's pair enumeration (sentence order, centers left to right,
/// contexts left to right, center skipped), written out independently of
/// the stream's enumerator that both trainer entry points share.
fn flatten(corpus: &Corpus, window: Option<usize>) -> Vec<[u32; 2]> {
    let mut pairs = Vec::new();
    for sentence in &corpus.sentences {
        let len = sentence.len();
        for (i, &center) in sentence.iter().enumerate() {
            let (lo, hi) = match window {
                Some(w) => (i.saturating_sub(w), (i + w + 1).min(len)),
                None => (0, len),
            };
            for (j, &context) in sentence.iter().enumerate().take(hi).skip(lo) {
                if j != i {
                    pairs.push([center, context]);
                }
            }
        }
    }
    pairs
}

/// The oracle's pair buffer for the same shape options.
fn materialized_pairs(bt: &BinnedTable, options: &StreamOptions) -> (Corpus, Vec<[u32; 2]>) {
    let corpus = build_corpus(
        bt,
        &CorpusOptions {
            max_sentences: options.max_sentences,
            max_column_sentence_len: options.max_column_sentence_len,
            include_column_sentences: options.include_column_sentences,
            seed: options.seed,
        },
    );
    let pairs = flatten(&corpus, options.window);
    (corpus, pairs)
}

#[test]
fn stream_matches_materialized_with_knobs_off() {
    for rows in [0usize, 1, 7, 137] {
        for (window, chunk, cap) in [
            (Some(3), 16, 100_000),
            (None, 64, 100_000),
            (Some(8), 8, 40),
        ] {
            let bt = small_binned(rows);
            let options = StreamOptions {
                window,
                max_column_sentence_len: chunk,
                max_sentences: cap,
                ..Default::default()
            };
            let stream = build_pair_stream(&bt, &options);
            let (corpus, want_pairs) = materialized_pairs(&bt, &options);
            assert_eq!(
                stream.vocab.tokens(),
                corpus.vocab.tokens(),
                "rows={rows} window={window:?} chunk={chunk} cap={cap}"
            );
            for id in 0..stream.vocab.len() as u32 {
                assert_eq!(stream.vocab.count(id), corpus.vocab.count(id), "id {id}");
            }
            assert_eq!(
                read_all(&stream),
                want_pairs,
                "rows={rows} window={window:?}"
            );
            assert_eq!(stream.num_pairs(), want_pairs.len());
        }
    }
}

#[test]
fn stream_matches_materialized_without_column_sentences() {
    let bt = small_binned(60);
    let options = StreamOptions {
        include_column_sentences: false,
        window: Some(2),
        ..Default::default()
    };
    let stream = build_pair_stream(&bt, &options);
    let (corpus, want_pairs) = materialized_pairs(&bt, &options);
    assert_eq!(stream.vocab.tokens(), corpus.vocab.tokens());
    for id in 0..stream.vocab.len() as u32 {
        assert_eq!(stream.vocab.count(id), corpus.vocab.count(id));
    }
    assert_eq!(read_all(&stream), want_pairs);
}

#[test]
fn streaming_pairs_match_materialized_on_every_planted_dataset() {
    let embed = fast_embedding();
    for kind in ALL_KINDS {
        let bt = planted_binned(kind);
        let stream = build_pair_stream(&bt, &stream_options(&embed));
        let corpus = build_corpus(&bt, &corpus_options(&embed));
        assert_eq!(
            stream.vocab.tokens(),
            corpus.vocab.tokens(),
            "{kind:?}: vocabulary order diverges"
        );
        for id in 0..stream.vocab.len() as u32 {
            assert_eq!(
                stream.vocab.count(id),
                corpus.vocab.count(id),
                "{kind:?}: count of token {id} diverges"
            );
        }
        let want = flatten(&corpus, embed.window);
        assert!(
            !want.is_empty(),
            "{kind:?}: planted corpus must yield pairs"
        );
        assert_eq!(read_all(&stream), want, "{kind:?}: pair stream diverges");
    }
}

/// Every range read through `fill` equals the same slice of the oracle's
/// buffer: seeded random ranges (empty ones included), the whole stream in
/// chunks of 1, 7, 4 096 and 65 536 pairs, and each shard's low and high
/// half at 1 to 4 threads, split as the trainer splits them and read in
/// its lockstep chunk size.
#[test]
fn fill_ranges_match_the_oracle_on_every_planted_dataset() {
    let embed = fast_embedding();
    let mut rng = StdRng::seed_from_u64(5);
    for kind in ALL_KINDS {
        let bt = planted_binned(kind);
        let options = stream_options(&embed);
        let stream = build_pair_stream(&bt, &options);
        let (_, want) = materialized_pairs(&bt, &options);
        let n = want.len();
        assert_eq!(stream.num_pairs(), n, "{kind:?}");
        for _ in 0..200 {
            let start = rng.gen_range(0..=n);
            let end = rng.gen_range(start..=n);
            let mut got = Vec::new();
            stream.fill(start..end, &mut got);
            assert_eq!(got, want[start..end], "{kind:?}: range {start}..{end}");
        }
        for chunk in [1, 7, 4_096, 65_536] {
            assert_eq!(
                read_chunked(&stream, 0..n, chunk),
                want,
                "{kind:?}: chunk {chunk}"
            );
        }
        for threads in 1..=4 {
            let len = n.div_ceil(threads);
            for start in (0..n).step_by(len) {
                let end = (start + len).min(n);
                let mid = start + (end - start) / 2;
                for half in [start..mid, mid..end] {
                    assert_eq!(
                        read_chunked(&stream, half.clone(), 32_768),
                        want[half.clone()],
                        "{kind:?}: threads {threads}, half {half:?}"
                    );
                }
            }
        }
    }
}

/// With `min_count` pruning and subsampling on, the lengths come from a
/// counting decode pass: a chunked read must replay the one-shot read
/// exactly, and both must hold `num_pairs()` pairs of kept ids.
#[test]
fn chunked_reads_replay_pruning_and_subsampling() {
    let plain = stream_options(&fast_embedding());
    let options = StreamOptions {
        min_count: 2,
        subsample_t: 1e-3,
        ..plain
    };
    for kind in ALL_KINDS {
        let bt = planted_binned(kind);
        let stream = build_pair_stream(&bt, &options);
        let n = stream.num_pairs();
        assert!(
            n < build_pair_stream(&bt, &plain).num_pairs(),
            "{kind:?}: the knobs must drop pairs"
        );
        let whole = read_all(&stream);
        assert_eq!(whole.len(), n, "{kind:?}");
        assert!(whole
            .iter()
            .flatten()
            .all(|&id| (id as usize) < stream.vocab.len()));
        for chunk in [1, 7, 4_096, 65_536] {
            assert_eq!(
                read_chunked(&stream, 0..n, chunk),
                whole,
                "{kind:?}: chunk {chunk}"
            );
        }
    }
}

#[test]
fn streaming_trainer_is_byte_identical_with_knobs_off() {
    let config = fast_embedding();
    for kind in [DatasetKind::Flights, DatasetKind::Cyber] {
        let bt = planted_binned(kind);
        let streamed = train_embedding(&bt, &config);
        let materialized = train_on_corpus(&build_corpus(&bt, &corpus_options(&config)), &config);
        assert_eq!(streamed.tokens(), materialized.tokens(), "{kind:?}");
        let a: Vec<u32> = dense_bits(&streamed);
        let b: Vec<u32> = dense_bits(&materialized);
        assert_eq!(a, b, "{kind:?}: trained matrices diverge");
    }
}

/// A two-column table: a 3-valued integer and an alternating string.
fn corpus_binned(rows: usize) -> BinnedTable {
    let t = Table::builder()
        .column_i64("a", (0..rows).map(|i| Some((i % 3) as i64)).collect())
        .column_str(
            "b",
            (0..rows)
                .map(|i| Some(if i % 2 == 0 { "x" } else { "y" }))
                .collect(),
        )
        .build()
        .unwrap();
    let binner = Binner::fit(&t, &BinningConfig::default()).unwrap();
    binner.apply(&t).unwrap()
}

#[test]
fn row_and_column_sentences_are_built() {
    let bt = corpus_binned(10);
    let corpus = build_corpus(&bt, &CorpusOptions::default());
    // 10 row sentences + 2 column sentences (10 < chunk size).
    assert_eq!(corpus.sentences.len(), 12);
    // Row sentences have one token per column.
    assert!(corpus.sentences[..10].iter().all(|s| s.len() == 2));
    // Vocabulary: 3 bins of `a` + 2 bins of `b` actually used.
    assert_eq!(corpus.vocab.len(), 5);
    assert!(corpus.sentences.iter().any(|s| !s.is_empty()));
}

#[test]
fn column_sentences_can_be_disabled() {
    let bt = corpus_binned(10);
    let options = CorpusOptions {
        include_column_sentences: false,
        ..Default::default()
    };
    let corpus = build_corpus(&bt, &options);
    assert_eq!(corpus.sentences.len(), 10);
}

#[test]
fn long_columns_are_chunked() {
    let bt = corpus_binned(200);
    let options = CorpusOptions {
        max_column_sentence_len: 50,
        ..Default::default()
    };
    let corpus = build_corpus(&bt, &options);
    // 200 row sentences + 2 columns * 4 chunks of 50.
    assert_eq!(corpus.sentences.len(), 208);
    assert!(corpus.sentences.iter().all(|s| s.len() <= 50));
}

#[test]
fn corpus_cap_is_respected_and_deterministic() {
    let bt = corpus_binned(100);
    let options = CorpusOptions {
        max_sentences: 30,
        seed: 7,
        ..Default::default()
    };
    let a = build_corpus(&bt, &options);
    let b = build_corpus(&bt, &options);
    assert_eq!(a.sentences.len(), 30);
    assert_eq!(a.sentences, b.sentences);
}

#[test]
fn tokens_are_column_qualified() {
    let bt = corpus_binned(4);
    let corpus = build_corpus(&bt, &CorpusOptions::default());
    for token in corpus.vocab.tokens() {
        assert!(token.contains('='), "token {token:?} not column-qualified");
    }
}

#[test]
fn empty_table_gives_empty_corpus() {
    let t = Table::builder()
        .column_i64("a", Vec::new())
        .build()
        .unwrap();
    let binner = Binner::fit(&t, &BinningConfig::default()).unwrap();
    let bt = binner.apply(&t).unwrap();
    let corpus = build_corpus(&bt, &CorpusOptions::default());
    assert_eq!(corpus.sentences.len(), 0);
    assert!(corpus.vocab.is_empty());
}
