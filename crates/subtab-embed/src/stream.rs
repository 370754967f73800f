//! Streaming corpus construction: the `(center, context)` pair stream built
//! directly from the columnar code planes of a [`BinnedTable`].
//!
//! A materialized builder would intern one token id per *cell visit* and
//! store every sentence as its own `Vec<u32>` before the trainer flattens
//! them again into the pair buffer — at the million-row tier that
//! intermediate corpus would be the second-largest preprocess allocation
//! after the pair buffer itself. The streaming builder skips it:
//!
//! 1. one pass per column over its code plane histograms the bins and
//!    records each bin's first row, which is enough to reproduce the
//!    materialized vocabulary *exactly* (ids in first-occurrence row-major
//!    order, counts multiplied by two when column sentences are on);
//! 2. sentences become lightweight *descriptors* (`row r` / `column chunk`)
//!    that are shuffled and capped with the same seeded RNG as the
//!    materialized sentence list — the permutation depends only on the
//!    length, so the surviving sentences are identical;
//! 3. each surviving descriptor is decoded into one reused scratch buffer
//!    and its windowed pairs are emitted straight into the pair buffer, in
//!    the exact enumeration order of materializing the corpus and
//!    flattening its sentences.
//!
//! With pruning and subsampling off the emitted pair stream is
//! byte-identical to that materialized pipeline: the `corpus_equivalence`
//! test suite keeps the materialized builder as an oracle and pins the
//! vocabulary, counts, pairs and trained weights on every planted dataset.
//! The two knobs then cut work where a materialized corpus cannot:
//!
//! * **`min_count`** drops tokens whose corpus count (after the ×2 of
//!   column sentences) is below the threshold. Pruned occurrences vanish
//!   from sentences before windowing, pruned tokens never enter the
//!   vocabulary, and their cells resolve to `NO_TOKEN` in the
//!   [`crate::TokenPlane`] — which selection already skips.
//! * **`subsample_t`** applies Word2Vec frequency subsampling: an
//!   occurrence of a token with corpus frequency `f` survives with
//!   probability `min(1, sqrt(t/f) + t/f)`. The coin is a deterministic
//!   hash of (sentence kind, row, column) and the seed, so the stream is
//!   reproducible at any thread count.

use crate::vocab::Vocab;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use subtab_binning::{BinId, BinnedTable};

/// Sentinel in the per-column bin → token-id maps for bins that were pruned
/// (or never occur). Matches [`crate::NO_TOKEN`].
const PRUNED: u32 = u32::MAX;

/// Parameters of the streaming pair builder: the corpus shape (sentence
/// cap, column-sentence chunking, seed), the window (applied during
/// emission) and the two pruning knobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreamOptions {
    /// Maximum number of sentences kept (uniform random sample over the
    /// sentence descriptors; same permutation as the materialized builder).
    pub max_sentences: usize,
    /// Maximum length of a column-sentence chunk.
    pub max_column_sentence_len: usize,
    /// Whether column sentences are included.
    pub include_column_sentences: bool,
    /// RNG seed (sentence subsample and the subsampling hash).
    pub seed: u64,
    /// Skip-gram context window; `None` spans the whole sentence.
    pub window: Option<usize>,
    /// Minimum corpus occurrence count (counted like the materialized
    /// vocabulary: every cell visit, so ×2 with column sentences on) for a
    /// token to be kept. `0` and `1` keep everything.
    pub min_count: u64,
    /// Word2Vec subsampling threshold `t`; `0.0` disables subsampling.
    /// Typical values are 1e-3 .. 1e-5 — smaller drops more of the most
    /// frequent tokens' occurrences.
    pub subsample_t: f64,
}

impl Default for StreamOptions {
    fn default() -> Self {
        StreamOptions {
            max_sentences: 100_000,
            max_column_sentence_len: 64,
            include_column_sentences: true,
            seed: 42,
            window: Some(8),
            min_count: 0,
            subsample_t: 0.0,
        }
    }
}

/// The output of [`build_pair_stream`]: the (possibly pruned) vocabulary
/// with its sampling tables built, plus the flat `(center, context)` pair
/// buffer ready for the SGNS trainer.
#[derive(Debug, Clone, Default)]
pub struct PairStream {
    /// The vocabulary over the kept tokens, counts preserved from the full
    /// histogram and negative-sampling tables already built.
    pub vocab: Vocab,
    /// The training pairs, in materialized enumeration order.
    pub pairs: Vec<[u32; 2]>,
}

impl PairStream {
    /// Number of training pairs.
    pub fn num_pairs(&self) -> usize {
        self.pairs.len()
    }
}

/// One capped sentence, described instead of stored: decoding happens into
/// a reused scratch buffer at emission time.
#[derive(Clone, Copy)]
enum Desc {
    /// The tuple-sentence of row `r` (one token per column).
    Row(usize),
    /// A column-sentence chunk: `len` consecutive rows of one column.
    Chunk {
        col: usize,
        start: usize,
        len: usize,
    },
}

/// splitmix64, used as the deterministic per-occurrence subsampling coin.
#[inline(always)]
fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Exact number of `(center, context)` pairs a sentence of length `len`
/// contributes under `window`.
///
/// Position `i` contributes `min(i, w) + min(len - 1 - i, w)` pairs; summed
/// in closed form this is `w · (2·len − w − 1)` once `len > w`, and the full
/// `len · (len − 1)` otherwise.
pub(crate) fn pairs_for_len(len: usize, window: Option<usize>) -> usize {
    if len == 0 {
        return 0;
    }
    match window {
        Some(w) => {
            if len <= w + 1 {
                len * (len - 1)
            } else {
                w * (2 * len - w - 1)
            }
        }
        None => len * (len - 1),
    }
}

/// Emits the windowed pairs of one sentence in the trainer's enumeration
/// order (centers left to right, contexts left to right, center skipped).
/// The streaming builder and [`crate::sgns::train_on_corpus`] both emit
/// through it.
pub(crate) fn emit_pairs(sentence: &[u32], window: Option<usize>, out: &mut Vec<[u32; 2]>) {
    let len = sentence.len();
    for (i, &center) in sentence.iter().enumerate() {
        let (lo, hi) = match window {
            Some(w) => (i.saturating_sub(w), (i + w + 1).min(len)),
            None => (0, len),
        };
        for (j, &context) in sentence.iter().enumerate().take(hi).skip(lo) {
            if j != i {
                out.push([center, context]);
            }
        }
    }
}

/// Builds the training pair stream directly from the binned table's code
/// planes. See the module docs for the exact equivalence contract with the
/// materialized corpus pipeline.
pub fn build_pair_stream(binned: &BinnedTable, options: &StreamOptions) -> PairStream {
    let rows = binned.num_rows();
    let cols = binned.num_columns();
    let planes: Vec<&[BinId]> = (0..cols).map(|c| binned.codes(c)).collect();
    let count_factor: u64 = if options.include_column_sentences {
        2
    } else {
        1
    };

    // Pass 1: per-column bin histogram + first row of each bin, straight
    // off the code planes (no strings, no per-cell hashing).
    let mut hists: Vec<Vec<u64>> = Vec::with_capacity(cols);
    let mut firsts: Vec<Vec<usize>> = Vec::with_capacity(cols);
    for (c, plane) in planes.iter().enumerate() {
        let num_bins = binned.num_bins(c);
        let mut hist = vec![0u64; num_bins];
        let mut first = vec![usize::MAX; num_bins];
        for (r, &code) in plane.iter().enumerate() {
            let b = code as usize;
            if hist[b] == 0 {
                first[b] = r;
            }
            hist[b] += 1;
        }
        hists.push(hist);
        firsts.push(first);
    }

    // The materialized vocabulary interns on first sight during the
    // row-major row pass, so its id order is exactly (first_row, col)
    // ascending over the used (col, bin) pairs.
    let mut used: Vec<(usize, usize, usize)> = Vec::new(); // (first_row, col, bin)
    for c in 0..cols {
        for (b, &h) in hists[c].iter().enumerate() {
            if h > 0 {
                used.push((firsts[c][b], c, b));
            }
        }
    }
    used.sort_unstable();

    // Prune while interning: kept tokens keep their relative order and full
    // counts; pruned bins map to the sentinel and never reach the vocab.
    let mut tokens: Vec<String> = Vec::new();
    let mut counts: Vec<u64> = Vec::new();
    let mut bin_to_id: Vec<Vec<u32>> = hists.iter().map(|h| vec![PRUNED; h.len()]).collect();
    for &(_, c, b) in &used {
        let count = hists[c][b] * count_factor;
        if count >= options.min_count {
            bin_to_id[c][b] = tokens.len() as u32;
            tokens.push(binned.token(c, b as BinId));
            counts.push(count);
        }
    }
    let pruned_any = tokens.len() < used.len();

    // Per-id subsampling keep thresholds, as integers against the top 53
    // bits of the occurrence hash: keep iff (hash >> 11) < threshold.
    const HASH_ONE: f64 = 9_007_199_254_740_992.0; // 2^53
    let thresholds: Option<Vec<u64>> = if options.subsample_t > 0.0 && !counts.is_empty() {
        let total: u64 = counts.iter().sum();
        Some(
            counts
                .iter()
                .map(|&c| {
                    let f = c as f64 / total as f64;
                    let keep =
                        ((options.subsample_t / f).sqrt() + options.subsample_t / f).min(1.0);
                    (keep * HASH_ONE) as u64
                })
                .collect(),
        )
    } else {
        None
    };

    let mut vocab = Vocab::from_tokens_and_counts(tokens, counts);
    vocab.build_sampling_table();

    // Sentence descriptors in materialized order: every row sentence, then
    // each column's full chunks and (length > 1) tail.
    let chunk = options.max_column_sentence_len.max(2);
    let mut descs: Vec<Desc> = Vec::new();
    if cols > 0 {
        descs.extend((0..rows).map(Desc::Row));
    }
    if options.include_column_sentences {
        for c in 0..cols {
            let mut start = 0;
            while start + chunk <= rows {
                descs.push(Desc::Chunk {
                    col: c,
                    start,
                    len: chunk,
                });
                start += chunk;
            }
            let tail = rows - start;
            if tail > 1 {
                descs.push(Desc::Chunk {
                    col: c,
                    start,
                    len: tail,
                });
            }
        }
    }

    // Uniform random cap: `shuffle` draws depend only on the length, so the
    // descriptor permutation equals the materialized sentence permutation.
    if descs.len() > options.max_sentences && options.max_sentences > 0 {
        let mut rng = StdRng::seed_from_u64(options.seed);
        descs.shuffle(&mut rng);
        descs.truncate(options.max_sentences);
    }

    // Emission: decode each descriptor into the scratch sentence (dropping
    // pruned / subsampled occurrences) and window it. Without filtering the
    // reservation is the exact final size.
    let mut pairs: Vec<[u32; 2]> = Vec::new();
    if thresholds.is_none() && !pruned_any {
        pairs.reserve(
            descs
                .iter()
                .map(|d| {
                    let len = match *d {
                        Desc::Row(_) => cols,
                        Desc::Chunk { len, .. } => len,
                    };
                    pairs_for_len(len, options.window)
                })
                .sum(),
        );
    }
    let mut sentence: Vec<u32> = Vec::with_capacity(chunk.max(cols));
    let seed = options.seed;
    // The subsampling coin for the cell at (row, col): sentence kind 0 for
    // the row pass, 1 for the column pass, so the two visits of one cell
    // flip independent coins.
    let occurrence_hash = |kind: u64, r: usize, c: usize| -> u64 {
        let key = (r as u64 * cols.max(1) as u64 + c as u64) * 2 + kind;
        splitmix64(seed ^ splitmix64(key))
    };
    for d in &descs {
        sentence.clear();
        match *d {
            Desc::Row(r) => {
                for (c, plane) in planes.iter().enumerate() {
                    let id = bin_to_id[c][plane[r] as usize];
                    if id == PRUNED {
                        continue;
                    }
                    if let Some(th) = &thresholds {
                        if occurrence_hash(0, r, c) >> 11 >= th[id as usize] {
                            continue;
                        }
                    }
                    sentence.push(id);
                }
            }
            Desc::Chunk { col, start, len } => {
                let plane = planes[col];
                let map = &bin_to_id[col];
                for r in start..start + len {
                    let id = map[plane[r] as usize];
                    if id == PRUNED {
                        continue;
                    }
                    if let Some(th) = &thresholds {
                        if occurrence_hash(1, r, col) >> 11 >= th[id as usize] {
                            continue;
                        }
                    }
                    sentence.push(id);
                }
            }
        }
        emit_pairs(&sentence, options.window, &mut pairs);
    }

    PairStream { vocab, pairs }
}

#[cfg(test)]
mod tests {
    use super::*;
    use subtab_binning::{Binner, BinningConfig};
    use subtab_data::Table;

    fn binned(rows: usize) -> BinnedTable {
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

    #[test]
    fn min_count_prunes_rare_tokens_and_is_monotone() {
        // 97 rows: `a` has bins with different frequencies; a large
        // min_count must keep a subset of a small one's vocabulary.
        let bt = binned(97);
        let base = build_pair_stream(&bt, &StreamOptions::default());
        let mut prev_len = usize::MAX;
        for min_count in [0u64, 1, 10, 40, 10_000] {
            let s = build_pair_stream(
                &bt,
                &StreamOptions {
                    min_count,
                    ..Default::default()
                },
            );
            assert!(
                s.vocab.len() <= prev_len,
                "vocab grew at min_count={min_count}"
            );
            prev_len = s.vocab.len();
            // Every kept token exists in the unpruned vocabulary with the
            // same (full-histogram) count, at or above the threshold.
            for id in 0..s.vocab.len() as u32 {
                let token = s.vocab.token(id);
                let full_id = base.vocab.id(token).expect("kept token missing from base");
                assert_eq!(s.vocab.count(id), base.vocab.count(full_id));
                assert!(s.vocab.count(id) >= min_count);
            }
            // Pairs only ever reference kept ids.
            for &[a, b] in &s.pairs {
                assert!((a as usize) < s.vocab.len() && (b as usize) < s.vocab.len());
            }
        }
        // The largest threshold prunes everything here.
        let all_pruned = build_pair_stream(
            &bt,
            &StreamOptions {
                min_count: 10_000,
                ..Default::default()
            },
        );
        assert!(all_pruned.vocab.is_empty());
        assert!(all_pruned.pairs.is_empty());
    }

    #[test]
    fn subsampling_thins_frequent_tokens_deterministically() {
        let bt = binned(200);
        let dense = build_pair_stream(&bt, &StreamOptions::default());
        let thin_options = StreamOptions {
            subsample_t: 1e-3,
            ..Default::default()
        };
        let thin_a = build_pair_stream(&bt, &thin_options);
        let thin_b = build_pair_stream(&bt, &thin_options);
        assert_eq!(
            thin_a.pairs, thin_b.pairs,
            "subsampling must be deterministic"
        );
        assert_eq!(thin_a.vocab.tokens(), dense.vocab.tokens());
        assert!(
            thin_a.num_pairs() < dense.num_pairs(),
            "t=1e-3 should drop occurrences ({} vs {})",
            thin_a.num_pairs(),
            dense.num_pairs()
        );
        assert!(
            !thin_a.pairs.is_empty(),
            "moderate t must not empty the stream"
        );
        // A different seed flips different coins.
        let reseeded = build_pair_stream(
            &bt,
            &StreamOptions {
                seed: 43,
                subsample_t: 1e-3,
                ..Default::default()
            },
        );
        assert_ne!(reseeded.pairs, thin_a.pairs);
    }

    #[test]
    fn empty_table_gives_empty_stream() {
        let t = Table::builder()
            .column_i64("a", Vec::new())
            .build()
            .unwrap();
        let binner = Binner::fit(&t, &BinningConfig::default()).unwrap();
        let bt = binner.apply(&t).unwrap();
        let stream = build_pair_stream(&bt, &StreamOptions::default());
        assert!(stream.vocab.is_empty());
        assert!(stream.pairs.is_empty());
    }
}
