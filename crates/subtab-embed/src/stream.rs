//! Streaming corpus construction: the `(center, context)` pair stream built
//! directly from the columnar code planes of a [`BinnedTable`].
//!
//! A materialized builder would intern one token id per *cell visit* and
//! store every sentence as its own `Vec<u32>` before the trainer flattens
//! them again into a pair buffer of `8 bytes × pairs` (86 MiB for a 48-column
//! table of 8 000 rows). The streaming builder stores neither:
//!
//! 1. one pass per column over its code plane histograms the bins and
//!    records each bin's first row, which is enough to reproduce the
//!    materialized vocabulary *exactly* (ids in first-occurrence row-major
//!    order, counts multiplied by two when column sentences are on);
//! 2. sentences become lightweight *descriptors* (`row r` / `column chunk`)
//!    that are shuffled and capped with the same seeded RNG as the
//!    materialized sentence list — the permutation depends only on the
//!    length, so the surviving sentences are identical;
//! 3. a prefix sum of per-descriptor pair counts maps every pair position
//!    to its sentence, and [`PairStream::fill`] regenerates any range of
//!    pairs on demand: it decodes the descriptors the range touches into a
//!    scratch buffer and emits their windowed pairs, in the exact
//!    enumeration order of materializing the corpus and flattening its
//!    sentences. The trainers read the stream in fixed chunks (the SGNS
//!    reference once per epoch, the count trainer once), so memory is
//!    O(sentences), never O(pairs).
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
use std::ops::Range;
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
/// with its sampling tables built, plus everything needed to regenerate
/// any range of the `(center, context)` pair stream on demand.
///
/// The pairs themselves are never stored. The stream keeps the capped
/// sentence descriptors, the per-column bin → token-id maps, the
/// subsampling thresholds, a borrow of the table's code planes and a
/// prefix sum of per-sentence pair counts; [`PairStream::fill`] decodes the
/// sentences a range touches and emits their pairs. Its memory is
/// O(sentences), not O(pairs).
#[derive(Debug, Clone, Default)]
pub struct PairStream<'a> {
    /// The vocabulary over the kept tokens, counts preserved from the full
    /// histogram and negative-sampling tables already built.
    pub vocab: Vocab,
    /// The binned table's code planes, one per column.
    planes: Vec<&'a [BinId]>,
    /// Per column, bin → token id ([`PRUNED`] for pruned bins).
    bin_to_id: Vec<Vec<u32>>,
    /// Per-id subsampling keep thresholds against the top 53 bits of the
    /// occurrence hash; `None` when subsampling is off.
    thresholds: Option<Vec<u64>>,
    /// The capped sentence descriptors, in stream order.
    descs: Vec<Desc>,
    /// Where each descriptor's pairs start.
    index: PairIndex,
    /// Seed of the subsampling hash.
    seed: u64,
}

impl PairStream<'_> {
    /// Number of training pairs.
    pub fn num_pairs(&self) -> usize {
        self.index.total()
    }

    /// Appends pairs `range` of the stream to `out`, in stream order
    /// (the materialized enumeration order). Only the sentences the range
    /// touches are decoded, so reading the stream in fixed chunks costs one
    /// pass over it plus one partial sentence per chunk edge.
    ///
    /// # Panics
    /// Panics if `range` is decreasing or ends past [`Self::num_pairs`].
    pub fn fill(&self, range: Range<usize>, out: &mut Vec<[u32; 2]>) {
        self.index.fill(range, out, |d, sentence| {
            self.decode(self.descs[d], sentence)
        });
    }

    /// Decodes one descriptor into `sentence`, dropping pruned and
    /// subsampled occurrences.
    fn decode(&self, desc: Desc, sentence: &mut Vec<u32>) {
        sentence.clear();
        let cols = self.planes.len();
        // The subsampling coin for the cell at (row, col): sentence kind 0
        // for the row pass, 1 for the column pass, so the two visits of one
        // cell flip independent coins.
        let keep = |kind: u64, r: usize, c: usize, id: u32| match &self.thresholds {
            None => true,
            Some(th) => {
                let key = (r as u64 * cols.max(1) as u64 + c as u64) * 2 + kind;
                splitmix64(self.seed ^ splitmix64(key)) >> 11 < th[id as usize]
            }
        };
        match desc {
            Desc::Row(r) => {
                for (c, plane) in self.planes.iter().enumerate() {
                    let id = self.bin_to_id[c][plane[r] as usize];
                    if id != PRUNED && keep(0, r, c, id) {
                        sentence.push(id);
                    }
                }
            }
            Desc::Chunk { col, start, len } => {
                let plane = self.planes[col];
                let map = &self.bin_to_id[col];
                for r in start..start + len {
                    let id = map[plane[r] as usize];
                    if id != PRUNED && keep(1, r, col, id) {
                        sentence.push(id);
                    }
                }
            }
        }
    }
}

/// A pair sequence the trainer reads in contiguous chunks, so it never
/// holds the whole sequence: the code-plane [`PairStream`], an explicit
/// sentence list ([`SentencePairs`]) or a pair slice (the unit tests').
pub(crate) trait PairSource: Sync {
    /// Number of pairs in the sequence.
    fn num_pairs(&self) -> usize;
    /// Appends pairs `range` to `out`, in sequence order.
    fn fill(&self, range: Range<usize>, out: &mut Vec<[u32; 2]>);
}

impl PairSource for PairStream<'_> {
    fn num_pairs(&self) -> usize {
        PairStream::num_pairs(self)
    }

    fn fill(&self, range: Range<usize>, out: &mut Vec<[u32; 2]>) {
        PairStream::fill(self, range, out)
    }
}

impl PairSource for &[[u32; 2]] {
    fn num_pairs(&self) -> usize {
        self.len()
    }

    fn fill(&self, range: Range<usize>, out: &mut Vec<[u32; 2]>) {
        out.extend_from_slice(&self[range]);
    }
}

/// Reads pairs `range` of `pairs` into one reused buffer, at most `chunk`
/// at a time, and hands each chunk to `train` in order. Inlined into each
/// trainer so that its per-pair loop, the closure, compiles together with
/// the trainer's locals.
#[inline]
pub(crate) fn for_each_chunk(
    pairs: &dyn PairSource,
    range: Range<usize>,
    chunk: usize,
    mut train: impl FnMut(&[[u32; 2]]),
) {
    let mut buf = Vec::with_capacity(chunk.min(range.len()));
    for start in range.clone().step_by(chunk) {
        buf.clear();
        pairs.fill(start..(start + chunk).min(range.end), &mut buf);
        train(&buf);
    }
}

/// The windowed pairs of an explicit sentence list, read through the same
/// prefix-sum index as [`PairStream`].
pub(crate) struct SentencePairs<'a> {
    sentences: &'a [Vec<u32>],
    index: PairIndex,
}

impl<'a> SentencePairs<'a> {
    pub(crate) fn new(sentences: &'a [Vec<u32>], window: Option<usize>) -> Self {
        let index = PairIndex::new(sentences.iter().map(Vec::len), window);
        SentencePairs { sentences, index }
    }
}

impl PairSource for SentencePairs<'_> {
    fn num_pairs(&self) -> usize {
        self.index.total()
    }

    fn fill(&self, range: Range<usize>, out: &mut Vec<[u32; 2]>) {
        self.index.fill(range, out, |d, sentence| {
            sentence.clear();
            sentence.extend_from_slice(&self.sentences[d]);
        });
    }
}

/// Prefix sum of per-sentence pair counts: sentence `d`'s pairs are stream
/// positions `starts[d]..starts[d + 1]`.
#[derive(Debug, Clone, Default)]
struct PairIndex {
    starts: Vec<usize>,
    window: Option<usize>,
}

impl PairIndex {
    /// The index of sentences with the given lengths (after any pruning).
    fn new(lens: impl Iterator<Item = usize>, window: Option<usize>) -> Self {
        let mut starts = vec![0];
        let mut total = 0;
        starts.extend(lens.map(|len| {
            total += pairs_for_len(len, window);
            total
        }));
        PairIndex { starts, window }
    }

    fn total(&self) -> usize {
        self.starts.last().copied().unwrap_or(0)
    }

    /// Appends pairs `range` to `out`. `decode(d, sentence)` writes
    /// sentence `d` into the scratch buffer. A sentence the range covers
    /// whole is emitted straight into `out`; the one or two it cuts are
    /// emitted into a scratch buffer and sliced.
    fn fill(
        &self,
        range: Range<usize>,
        out: &mut Vec<[u32; 2]>,
        mut decode: impl FnMut(usize, &mut Vec<u32>),
    ) {
        let Range { start, end } = range;
        assert!(
            start <= end && end <= self.total(),
            "pair range {start}..{end} outside 0..{}",
            self.total()
        );
        if start == end {
            return;
        }
        out.reserve(end - start);
        let mut sentence = Vec::new();
        let mut edge = Vec::new();
        // The sentence holding pair `start`: the last one starting at or
        // before it (empty sentences share their successor's start).
        let mut d = self.starts.partition_point(|&p| p <= start) - 1;
        while self.starts[d] < end {
            let (first, last) = (self.starts[d], self.starts[d + 1]);
            if first < last {
                decode(d, &mut sentence);
                if start <= first && last <= end {
                    emit_pairs(&sentence, self.window, out);
                } else {
                    edge.clear();
                    emit_pairs(&sentence, self.window, &mut edge);
                    out.extend_from_slice(&edge[start.max(first) - first..end.min(last) - first]);
                }
            }
            d += 1;
        }
    }
}

/// One capped sentence, described instead of stored: decoding happens into
/// a reused scratch buffer at emission time.
#[derive(Debug, Clone, Copy)]
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
/// Every pair source emits through it.
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
pub fn build_pair_stream<'a>(binned: &'a BinnedTable, options: &StreamOptions) -> PairStream<'a> {
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

    let filtered = thresholds.is_some() || pruned_any;
    let mut stream = PairStream {
        vocab,
        planes,
        bin_to_id,
        thresholds,
        descs,
        index: PairIndex::default(),
        seed: options.seed,
    };
    // Pair counts per sentence: in closed form from the nominal length,
    // or, when pruning or subsampling drops occurrences, from one counting
    // decode pass (the subsampling coin is keyed by cell, so every later
    // decode replays it exactly).
    let mut sentence = Vec::with_capacity(chunk.max(cols));
    stream.index = PairIndex::new(
        stream.descs.iter().map(|&d| match d {
            _ if filtered => {
                stream.decode(d, &mut sentence);
                sentence.len()
            }
            Desc::Row(_) => cols,
            Desc::Chunk { len, .. } => len,
        }),
        options.window,
    );
    stream
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

    /// The whole stream, read in one range.
    fn all_pairs(stream: &PairStream) -> Vec<[u32; 2]> {
        let mut pairs = Vec::new();
        stream.fill(0..stream.num_pairs(), &mut pairs);
        pairs
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
            for [a, b] in all_pairs(&s) {
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
        assert_eq!(all_pruned.num_pairs(), 0);
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
            all_pairs(&thin_a),
            all_pairs(&thin_b),
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
            thin_a.num_pairs() > 0,
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
        assert_ne!(all_pairs(&reseeded), all_pairs(&thin_a));
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
        assert_eq!(stream.num_pairs(), 0);
    }
}
