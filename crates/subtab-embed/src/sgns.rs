//! Skip-gram with negative sampling (SGNS), the Word2Vec variant used by the
//! paper's reference implementation (via gensim).
//!
//! # Trainer architecture
//!
//! Training runs over a sequence of `(center, context)` pairs that is
//! never stored whole: every mode reads it in chunks of at most 64 Ki pairs
//! (512 KiB) per shard, regenerated every epoch. [`train_embedding`]
//! regenerates them from the binned table's code planes
//! ([`build_pair_stream`]), [`train_on_corpus`] from an explicit sentence
//! corpus through the same prefix-sum reader, and [`train_pairs`] copies
//! them out of a caller's slice. Three execution modes cover the
//! speed/reproducibility trade-off:
//!
//! | `threads` | `deterministic` | mode |
//! |---|---|---|
//! | 1 | `true` (default) | **reference** — bit-exact with the original single-threaded trainer |
//! | 1 | `false` | **fast sequential** — sigmoid table + alias sampling, reproducible |
//! | >1 | either | **sharded replica averaging** — the fast kernels in parallel, run-to-run reproducible |
//!
//! The parallel mode splits the pair positions into `threads` contiguous
//! shards. Every epoch, each worker regenerates its shard chunk by chunk and
//! trains a private replica of the weights on it with its own deterministic
//! draw stream, and the replicas are then
//! averaged in shard order. Fast sequential is the one-shard case of the
//! same trainer. No two workers ever share writable memory.
//!
//! The reference path exists so golden embeddings and every downstream test
//! that depends on exact vector values stay valid; the fast paths trade that
//! bit-compatibility for a precomputed 512-entry sigmoid table and
//! alias-method negative sampling. Like gensim's `fast_sentence_sg_neg`, the
//! fast paths leave a target alone once its dot product with the centre
//! reaches ±6, the table's range (`SigmoidTable::gradient`): clamping it
//! to σ(±6) instead kept pushing already-saturated targets, and the vectors
//! grew without bound (largest row norms in the 10⁵ range on an 8 000 × 48
//! table, against 3.7–5.9 for the reference trainer). Pair scratch is one
//! 512 KiB chunk per shard (two half-size chunks for the AVX-512 kernel,
//! which interleaves a shard's halves), whatever the pair count: a flat
//! buffer would take `8 bytes × pairs`, 86 MiB on a 48-column table of
//! 8 000 rows and roughly 0.8 GB at the paper's 100 000-sentence cap. The stream itself costs
//! O(sentences): descriptors plus a prefix sum of their pair counts. Every
//! pair keeps its position in its shard, so the chunk size changes no bit.
//!
//! The fast kernels draw each negative from the alias table with a
//! branch-free select (`cmov`, see [`AliasTable::sample_from_u64`]). On the
//! AVX-512 tier (AVX512F + DQ + VL) the pair step also runs its per-target
//! scalar work across lanes whenever `1 + negative_samples ≤ 8`: an 8-lane
//! splitmix64 and one gather draw every negative one pair ahead, one
//! shuffle/add tree reduces every dot product in `_mm512_reduce_add_ps`'s
//! order, and one gather looks up every sigmoid. Both reproduce the
//! per-target arithmetic bit for bit; `tests/golden/fast_kernel_digests.txt`
//! pins the trained weights per tier.
//!
//! One deliberate deviation from the pre-refactor trainer applies to every
//! mode, the reference included: the pair count feeding the learning-rate
//! schedule is now *exact* (the stream's pair count, whose closed form is
//! `pairs_for_len` per sentence), where the old trainer overcounted near
//! sentence edges and decayed the learning rate too slowly. Reference
//! output is therefore byte-identical to pre-refactor exactly when the old
//! count was already exact — windowless configs, or windows no shorter
//! than every sentence — which is what the golden-fixture test pins;
//! windowed configs differ by the corrected schedule (and only by it).

use crate::corpus::Corpus;
use crate::model::CellEmbedding;
use crate::stream::{build_pair_stream, pairs_for_len, PairSource, SentencePairs, StreamOptions};
use crate::vocab::{AliasTable, Vocab};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::ops::Range;
use subtab_binning::BinnedTable;
use subtab_kernels::{fma_select, map_indexed, resolve_threads, AlignedBuf, Isa};

/// Hyper-parameters of the embedding step.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EmbeddingConfig {
    /// Dimensionality of the cell vectors (γ in the paper's notation).
    pub dim: usize,
    /// Number of passes over the corpus.
    pub epochs: usize,
    /// Initial learning rate (linearly decayed to 10% over training).
    pub learning_rate: f32,
    /// Number of negative samples per positive pair.
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
    /// RNG seed (initialisation, negative sampling, corpus subsample).
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
    /// Worker threads for the sharded trainer. `0` uses all available
    /// cores; `1` (the default) trains on a single thread.
    pub threads: usize,
    /// Trainer choice on one thread: `true` selects the bit-exact reference
    /// trainer, `false` the fast kernels. With several threads training
    /// always runs the fast kernels on private replicas averaged after
    /// every epoch, which is run-to-run reproducible regardless of
    /// scheduling, so the flag has no effect there.
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
    train_embedding_with_isa(subtab_kernels::detect(), binned, config)
}

/// [`train_embedding`] with the fast kernels pinned to a specific tier
/// (downgraded to scalar if the CPU cannot run it), ignoring
/// `SUBTAB_FORCE_SCALAR_KERNELS`: the entry point that pins every tier's
/// trained bits on one machine. The reference trainer has no tiers.
pub fn train_embedding_with_isa(
    isa: Isa,
    binned: &BinnedTable,
    config: &EmbeddingConfig,
) -> CellEmbedding {
    let stream = build_pair_stream(binned, &config.stream_options());
    train_source(isa, &stream.vocab, &stream, config, CHUNK_PAIRS)
}

/// Trains SGNS on an already-built corpus of explicit sentences (the
/// graph-walk corpus of the EmbDI baseline, for one). The corpus-shape
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
    train_source(
        subtab_kernels::detect(),
        vocab,
        &source,
        config,
        CHUNK_PAIRS,
    )
}

/// Trains SGNS over a caller's `(center, context)` pair slice and its
/// vocabulary: the trainer behind [`train_embedding`] and
/// [`train_on_corpus`], fed from one in-memory slice.
///
/// # Panics
/// Panics if `vocab` is not empty and a pair names a token id outside it.
pub fn train_pairs(vocab: &Vocab, pairs: &[[u32; 2]], config: &EmbeddingConfig) -> CellEmbedding {
    assert_ids_in_vocab(vocab, pairs.iter().flatten().copied());
    train_source(subtab_kernels::detect(), vocab, &pairs, config, CHUNK_PAIRS)
}

/// The fast kernels index weight rows unchecked: the alias table draws
/// only vocabulary ids, and a caller's ids are checked here before any
/// kernel runs. An empty vocabulary trains nothing, so it accepts any ids.
fn assert_ids_in_vocab(vocab: &Vocab, mut ids: impl Iterator<Item = u32>) {
    assert!(
        vocab.is_empty() || ids.all(|id| (id as usize) < vocab.len()),
        "pair token id outside the vocabulary"
    );
}

/// The shared back half of every entry point: allocates the weight
/// matrices once, sized from the (possibly pruned) vocabulary, and trains
/// them over `pairs`, which every mode reads in chunks of at most `chunk`
/// pairs ([`CHUNK_PAIRS`] outside tests; the bits do not depend on it),
/// with the fast kernels of tier `isa`. Every id in `pairs` must be a
/// vocabulary id.
fn train_source(
    isa: Isa,
    vocab: &Vocab,
    pairs: &dyn PairSource,
    config: &EmbeddingConfig,
    chunk: usize,
) -> CellEmbedding {
    let vocab_size = vocab.len();
    let dim = config.dim.max(1);
    let mut rng = StdRng::seed_from_u64(config.seed);
    if vocab_size == 0 {
        return CellEmbedding::new(dim, Vec::new(), Vec::new());
    }

    // Word2Vec-style initialisation: input vectors uniform in
    // [-0.5/dim, 0.5/dim], output vectors zero. The init draws come first in
    // the seed RNG stream, exactly as in the original trainer.
    let mut w_in: Vec<f32> = (0..vocab_size * dim)
        .map(|_| (rng.gen::<f32>() - 0.5) / dim as f32)
        .collect();
    let mut w_out: Vec<f32> = vec![0.0; vocab_size * dim];

    let num_pairs = pairs.num_pairs();
    if num_pairs > 0 {
        match (
            resolve_threads(config.threads, num_pairs),
            config.deterministic,
        ) {
            (1, true) => {
                train_reference(vocab, config, pairs, chunk, &mut w_in, &mut w_out, &mut rng)
            }
            (n, _) => {
                let kernel = shard_kernel_for(isa, dim);
                train_sharded_averaged(
                    vocab, config, pairs, chunk, n, kernel, &mut w_in, &mut w_out,
                )
            }
        }
    }

    CellEmbedding::from_flat(dim, vocab.tokens().to_vec(), w_in)
}

/// Pairs regenerated per read: 64 Ki pairs, 512 KiB of `[u32; 2]`. Large
/// enough that a chunk's one or two cut sentences cost nothing next to it,
/// small enough to stay cache-resident while the kernel trains on it.
const CHUNK_PAIRS: usize = 1 << 16;

/// Reads pairs `range` of `pairs` into one reused buffer, at most `chunk`
/// at a time, and hands each chunk to `train` in order.
fn for_each_chunk(
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

// ---------------------------------------------------------------------------
// Reference path: bit-exact with the original single-threaded trainer.

/// The original trainer, reproduced computation-for-computation over the
/// pair sequence, read chunk by chunk in order: exact `exp` sigmoid,
/// cumulative-table negative sampling, one RNG stream continuing from
/// initialisation. Golden embeddings are validated against this path.
fn train_reference(
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

// ---------------------------------------------------------------------------
// Fast kernels: sigmoid table, alias sampling, per-shard RNG streams.

/// Precomputed sigmoid, Word2Vec style: 512 samples of σ over [−6, 6].
/// Outside that range no update uses the table ([`SigmoidTable::gradient`]);
/// lookups there still clamp to the end bins, so every index stays in it.
struct SigmoidTable {
    table: [f32; Self::SIZE],
}

impl SigmoidTable {
    const SIZE: usize = 512;
    const MAX_EXP: f32 = 6.0;

    fn new() -> Self {
        let mut table = [0.0f32; Self::SIZE];
        for (i, slot) in table.iter_mut().enumerate() {
            // Midpoint of bin i over [-MAX_EXP, MAX_EXP).
            let x = ((i as f32 + 0.5) / Self::SIZE as f32 * 2.0 - 1.0) * Self::MAX_EXP;
            *slot = sigmoid(x);
        }
        SigmoidTable { table }
    }

    /// Branchless lookup: the argument is clamped into the table range, so
    /// saturated inputs return σ(±MAX_EXP) (≈ 0.0025 / 0.9975).
    #[inline(always)]
    fn value(&self, x: f32) -> f32 {
        self.table[Self::index(x)]
    }

    /// The SGD gradient scale of one target, `(label − σ(dot)) · lr`, or
    /// `+0.0` when `|dot| ≥ MAX_EXP` (or `dot` is NaN): gensim's
    /// `fast_sentence_sg_neg` skips such a target, whose sigmoid has
    /// saturated. The zero comes from a select, not a branch, and the
    /// update still runs with it; `avx512_gradient_lanes` computes the
    /// same bits across lanes.
    #[inline(always)]
    fn gradient(&self, dot: f32, label: f32, lr: f32) -> f32 {
        let g = (label - self.value(dot)) * lr;
        if dot.abs() < Self::MAX_EXP {
            g
        } else {
            0.0
        }
    }

    /// Table bin of `x`: the clamped argument scaled onto `[0, SIZE]`, then
    /// truncated (NaN lands in bin 0). The scaled value is already in range,
    /// so it converts through `as i32`, a single `cvttss2si` with
    /// branch-free saturation fix-ups, where `as usize` compiled to a
    /// compare-and-branch.
    #[inline(always)]
    fn index(x: f32) -> usize {
        let x = x.clamp(-Self::MAX_EXP, Self::MAX_EXP);
        let idx = ((x + Self::MAX_EXP) * (Self::SIZE as f32 / (2.0 * Self::MAX_EXP))) as i32;
        (idx as usize).min(Self::SIZE - 1)
    }
}

/// Splits pair positions `0..num_pairs` into at most `threads` contiguous,
/// near-equal shards.
fn shard_ranges(num_pairs: usize, threads: usize) -> Vec<Range<usize>> {
    let len = num_pairs.div_ceil(threads).max(1);
    (0..num_pairs)
        .step_by(len)
        .map(|start| start..(start + len).min(num_pairs))
        .collect()
}

/// The read-only inputs every shard kernel shares.
#[derive(Clone, Copy)]
struct KernelParams<'a> {
    alias: &'a AliasTable,
    sig: &'a SigmoidTable,
    negative_samples: usize,
    lr0: f32,
    /// Row width of both weight matrices.
    dim: usize,
}

/// Schedule state of one shard, carried across epochs so the learning-rate
/// schedule and draw stream continue seamlessly.
#[derive(Clone, Copy)]
struct ShardState {
    /// Counter for the counter-based negative-sampling stream: each draw is
    /// `splitmix64(ctr + k)`, so consecutive draws are independent
    /// computations the CPU can overlap (a stateful generator would chain
    /// them), while staying fully deterministic per shard.
    ctr: u64,
    /// Pairs trained so far.
    processed: usize,
    /// The shard's full schedule length (`shard pairs × epochs`), so the
    /// linear decay matches the single-threaded trainer's shape per stream.
    lr_total: usize,
}

impl ShardState {
    fn new(seed: u64, shard: usize, lr_total: usize) -> Self {
        ShardState {
            ctr: seed ^ (shard as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15),
            processed: 0,
            lr_total,
        }
    }
}

/// splitmix64: the standard 2-multiply finaliser, used as a counter-based
/// bit stream for negative sampling.
#[inline(always)]
fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A fast shard kernel: trains one chunk of a shard on the worker's own
/// input and output matrices. The two walks differ in the order a shard's
/// pairs are trained, so [`train_shard`] feeds them different chunks.
///
/// # Safety
/// Both matrices must hold `vocab × params.dim` values, and every token id
/// in the chunk must be a row of them (the alias table draws only such
/// ids). The kernel must be one [`shard_kernel_for`] picked for
/// `params.dim`, so the CPU runs its target features.
#[derive(Clone, Copy)]
enum ShardKernel {
    /// Trains the shard's pairs in order, a chunk at a time, advancing the
    /// state pair by pair.
    InOrder(InOrderKernel),
    /// Trains pair `i` of the shard's low half and pair `i` of its high
    /// half alternately, from lockstep chunks of both halves; the state is
    /// the shard's at the start of the epoch.
    #[cfg(target_arch = "x86_64")]
    Interleaved(InterleavedKernel),
}

/// See [`ShardKernel::InOrder`].
type InOrderKernel = unsafe fn(&[[u32; 2]], &mut [f32], &mut [f32], &KernelParams, &mut ShardState);

/// See [`ShardKernel::Interleaved`].
#[cfg(target_arch = "x86_64")]
type InterleavedKernel = unsafe fn(Halves, &mut [f32], &mut [f32], &KernelParams, &ShardState);

/// One lockstep chunk of a shard's two halves, for
/// [`ShardKernel::Interleaved`]: `low[k]` is the pair at shard position
/// `at + k` and `high[k]` the one at `half + at + k`. The last chunk of an
/// odd shard carries the shard's final pair as one extra `high` entry.
#[cfg(target_arch = "x86_64")]
#[derive(Clone, Copy)]
struct Halves<'a> {
    low: &'a [[u32; 2]],
    high: &'a [[u32; 2]],
    at: usize,
    half: usize,
}

/// Picks the shard kernel of tier `isa` (scalar if the CPU cannot run it)
/// once per training run. The common dimensionalities get a const-generic
/// kernel, so the dot-product and update loops fully unroll and vectorise;
/// other dimensions fall back to the next tier down, and at last to a
/// runtime-length kernel. The default entry points pass
/// `subtab_kernels::detect()`, which honours `SUBTAB_FORCE_SCALAR_KERNELS`.
fn shard_kernel_for(isa: Isa, dim: usize) -> ShardKernel {
    use ShardKernel::InOrder;
    let isa = if isa.available() { isa } else { Isa::Scalar };
    #[cfg(target_arch = "x86_64")]
    {
        if isa == Isa::Avx512 {
            use ShardKernel::Interleaved;
            match dim {
                16 => return Interleaved(shard_kernel_avx512::<1>),
                32 => return Interleaved(shard_kernel_avx512::<2>),
                48 => return Interleaved(shard_kernel_avx512::<3>),
                64 => return Interleaved(shard_kernel_avx512::<4>),
                _ => {}
            }
        }
        if isa != Isa::Scalar && Isa::Avx2Fma.available() {
            match dim {
                8 => return InOrder(shard_kernel_fma::<8>),
                16 => return InOrder(shard_kernel_fma::<16>),
                32 => return InOrder(shard_kernel_fma::<32>),
                64 => return InOrder(shard_kernel_fma::<64>),
                _ => {}
            }
        }
    }
    InOrder(match dim {
        8 => shard_kernel::<8>,
        16 => shard_kernel::<16>,
        32 => shard_kernel::<32>,
        64 => shard_kernel::<64>,
        _ => shard_kernel_dyn,
    })
}

/// Trains shard `shard` of `pairs` for one epoch, regenerating its pairs
/// chunk by chunk: in order for [`ShardKernel::InOrder`], as lockstep
/// chunks of the two halves for [`ShardKernel::Interleaved`]. Either way
/// each pair keeps its shard position, so the bits equal one call over the
/// whole shard. Scratch is at most `chunk` + 1 pairs.
///
/// # Safety
/// As [`ShardKernel`], for every pair of the shard.
#[allow(clippy::too_many_arguments)]
unsafe fn train_shard(
    pairs: &dyn PairSource,
    shard: Range<usize>,
    chunk: usize,
    kernel: ShardKernel,
    w_in: &mut [f32],
    w_out: &mut [f32],
    p: &KernelParams,
    state: &mut ShardState,
) {
    match kernel {
        ShardKernel::InOrder(kernel) => {
            for_each_chunk(pairs, shard, chunk, |pairs| {
                kernel(pairs, w_in, w_out, p, state)
            });
        }
        #[cfg(target_arch = "x86_64")]
        ShardKernel::Interleaved(kernel) => {
            let half = shard.len() / 2;
            let step = chunk.div_ceil(2);
            let mut low = Vec::with_capacity(step.min(half));
            let mut high = Vec::with_capacity(step.min(half) + 1);
            let mut at = 0;
            loop {
                let to = (at + step).min(half);
                let high_end = if to == half {
                    shard.end
                } else {
                    shard.start + half + to
                };
                low.clear();
                high.clear();
                pairs.fill(shard.start + at..shard.start + to, &mut low);
                pairs.fill(shard.start + half + at..high_end, &mut high);
                let halves = Halves {
                    low: &low,
                    high: &high,
                    at,
                    half,
                };
                kernel(halves, w_in, w_out, p, state);
                if to == half {
                    break;
                }
                at = to;
            }
            state.processed += shard.len();
            state.ctr = state.ctr.wrapping_add(shard.len() as u64);
        }
    }
}

/// The fixed-dimension kernel body, shared by the portable and the
/// FMA-enabled entry points. `FUSED` selects `mul_add` (compiled to a real
/// `vfmadd` only under the `fma` target feature — never call it without)
/// versus separate multiply-add.
///
/// # Safety
/// See [`ShardKernel`]; additionally `p.dim` must equal `DIM`.
#[inline(always)]
#[allow(clippy::needless_range_loop)]
unsafe fn kernel_body<const DIM: usize, const FUSED: bool>(
    pairs: &[[u32; 2]],
    w_in: &mut [f32],
    w_out: &mut [f32],
    p: &KernelParams,
    state: &mut ShardState,
) {
    debug_assert_eq!(p.dim, DIM);
    let KernelParams {
        alias,
        sig,
        negative_samples,
        lr0,
        ..
    } = *p;
    let (w_in, w_out) = (w_in.as_mut_ptr(), w_out.as_mut_ptr());
    let inv_total = 1.0 / (state.lr_total as f32 + 1.0);
    let mut center = [0.0f32; DIM];
    for &[center_id, context] in pairs {
        let lr = lr0 * (1.0 - state.processed as f32 * inv_total).max(0.1);
        state.processed += 1;

        let in_row = w_in.add(center_id as usize * DIM);
        for d in 0..DIM {
            center[d] = *in_row.add(d);
        }
        let mut grad = [0.0f32; DIM];
        let ctr = state.ctr;
        state.ctr = ctr.wrapping_add(1);
        let mut draws = [0u64; 32];
        for k in 0..negative_samples.min(32) {
            draws[k] = splitmix64(ctr.wrapping_mul(32).wrapping_add(k as u64));
        }
        for neg in 0..=negative_samples {
            let (target, label) = if neg == 0 {
                (context, 1.0f32)
            } else if neg <= 32 {
                (alias.sample_from_u64(draws[neg - 1]), 0.0f32)
            } else {
                (
                    alias.sample_from_u64(splitmix64(
                        ctr.wrapping_mul(997).wrapping_add(neg as u64),
                    )),
                    0.0f32,
                )
            };
            if label == 0.0 && target == context {
                continue;
            }
            let out = w_out.add(target as usize * DIM);
            // Lane-parallel partial sums: a strict sequential reduction
            // would chain DIM scalar FMAs (FP adds cannot be reordered by
            // the compiler), serialising the whole kernel. Eight
            // accumulators let LLVM emit wide FMAs with a single horizontal
            // reduction at the end; the fast path owns its numerics, so the
            // reassociation is fine.
            let lanes = if DIM >= 8 { 8 } else { DIM };
            let mut acc = [0.0f32; 8];
            let mut d = 0;
            while d + lanes <= DIM {
                for l in 0..lanes {
                    acc[l] = fma_select::<FUSED>(center[d + l], *out.add(d + l), acc[l]);
                }
                d += lanes;
            }
            // Tree reduction: 3 levels instead of 7 chained adds.
            let mut dot = if lanes == 8 {
                ((acc[0] + acc[4]) + (acc[1] + acc[5])) + ((acc[2] + acc[6]) + (acc[3] + acc[7]))
            } else {
                let mut t = 0.0f32;
                for l in 0..lanes {
                    t += acc[l];
                }
                t
            };
            while d < DIM {
                dot = fma_select::<FUSED>(center[d], *out.add(d), dot);
                d += 1;
            }
            let g = sig.gradient(dot, label, lr);
            for d in 0..DIM {
                grad[d] = fma_select::<FUSED>(g, *out.add(d), grad[d]);
                *out.add(d) = fma_select::<FUSED>(g, center[d], *out.add(d));
            }
        }
        for d in 0..DIM {
            *in_row.add(d) += grad[d];
        }
    }
}

/// Portable fixed-dimension kernel: scratch lives in stack arrays, every
/// inner loop has a compile-time trip count.
///
/// # Safety
/// See [`ShardKernel`]; additionally `p.dim` must equal `DIM`.
unsafe fn shard_kernel<const DIM: usize>(
    pairs: &[[u32; 2]],
    w_in: &mut [f32],
    w_out: &mut [f32],
    p: &KernelParams,
    state: &mut ShardState,
) {
    kernel_body::<DIM, false>(pairs, w_in, w_out, p, state)
}

/// AVX2+FMA variant of the kernel, dispatched at runtime: the compile-time
/// trip counts vectorise to 256-bit fused multiply-adds. Fast-path numerics
/// therefore differ between machines with and without FMA, but stay
/// run-to-run reproducible on any one machine.
///
/// # Safety
/// See [`shard_kernel`]; the caller must additionally have verified that the
/// CPU supports AVX2 and FMA.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn shard_kernel_fma<const DIM: usize>(
    pairs: &[[u32; 2]],
    w_in: &mut [f32],
    w_out: &mut [f32],
    p: &KernelParams,
    state: &mut ShardState,
) {
    kernel_body::<DIM, true>(pairs, w_in, w_out, p, state)
}

/// AVX-512 kernel for dimensions that are a multiple of 16 (at most 64): a
/// row is `CHUNKS` zmm registers, so the whole positive/negative update is a
/// handful of fused multiply-adds with no scalar tail at all. The shard is
/// walked as two interleaved halves — consecutive loop iterations then carry
/// no data dependency on each other (far-apart pairs touch unrelated rows),
/// which roughly doubles the instruction-level parallelism of the
/// latency-bound draw→dot→sigmoid→update chain. [`train_shard`] feeds it
/// lockstep chunks of both halves ([`Halves`]). Each pair keeps the
/// learning-rate index and draw counter of its shard position, counted
/// from `state` (the shard's state at the start of the epoch), so the
/// result is deterministic, scheduling-independent and independent of the
/// chunking.
///
/// `CHUNKS` is a compile-time constant and [`avx512_pair_step`] is inlined
/// into this function: the row registers then live in zmm registers across
/// the whole pair, where a runtime chunk count kept the step out of line
/// with a spilled, re-zeroed `[__m512; 4]` frame per pair.
///
/// With at most 8 targets per pair, a pair's negatives are drawn one step
/// ahead by [`avx512_draw_lanes`]: the draw chain (two 64-bit lane
/// multiplies, then a gather) depends only on the counter, so it runs
/// while the previous pair's dots and updates are in flight instead of
/// delaying the pair's first dot. The draw depends only on the pair's
/// position, so the first step of a chunk draws exactly what the previous
/// chunk's last step would have drawn ahead. With the lane step, training
/// on the 8 000 × 48 wide table (`threads = 2`, `deterministic = true`)
/// took 1.29 s against 1.37 s with per-target draws, reductions and lookups
/// (medians of 10 alternated runs, 2-vCPU AVX-512 host; same bits).
///
/// # Safety
/// See [`shard_kernel`]; the caller must have verified the AVX-512 tier
/// (`avx512f`, `avx512dq`, `avx512vl`) and that `p.dim == 16 * CHUNKS`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512dq,avx512vl")]
unsafe fn shard_kernel_avx512<const CHUNKS: usize>(
    halves: Halves,
    w_in: &mut [f32],
    w_out: &mut [f32],
    p: &KernelParams,
    state: &ShardState,
) {
    use core::arch::x86_64::_mm256_setzero_si256;
    debug_assert!((1..=4).contains(&CHUNKS) && p.dim == 16 * CHUNKS);
    // The lane draws gather from the table without bounds checks.
    assert!(
        p.negative_samples == 0 || !p.alias.is_empty(),
        "alias table is empty"
    );
    let Halves {
        low,
        high,
        at,
        half,
    } = halves;
    debug_assert!(high.len() == low.len() || high.len() == low.len() + 1);
    let (w_in, w_out) = (w_in.as_mut_ptr(), w_out.as_mut_ptr());
    let inv_total = 1.0 / (state.lr_total as f32 + 1.0);

    let lane_draws = (1..=7).contains(&p.negative_samples);
    let draw = |idx: usize| {
        if lane_draws {
            let ctr = state.ctr.wrapping_add(idx as u64);
            avx512_draw_lanes(p.alias, ctr.wrapping_mul(0x632B_E5AB))
        } else {
            _mm256_setzero_si256()
        }
    };
    // Step `n` trains `low[n / 2]` for even `n` and `high[n / 2]` for odd
    // `n`; an odd shard's last step is its final pair, `high[low.len()]`.
    // Returns the pair's shard position and the pair.
    let step = |n: usize| {
        let k = n / 2;
        if n.is_multiple_of(2) && k < low.len() {
            (at + k, low[k])
        } else {
            (half + at + k, high[k])
        }
    };
    let steps = low.len() + high.len();
    let mut next = draw(step(0).0);
    for n in 0..steps {
        let (idx, pair) = step(n);
        let drawn = next;
        if n + 1 < steps {
            next = draw(step(n + 1).0);
        }
        let lr = p.lr0 * (1.0 - (state.processed + idx) as f32 * inv_total).max(0.1);
        let ctr = state.ctr.wrapping_add(idx as u64);
        avx512_pair_step::<CHUNKS>(pair, lr, ctr, drawn, w_in, w_out, p);
    }
}

/// One pair's positive + negative updates in the AVX-512 kernel. All
/// targets are drawn and all dot products computed before any update: the
/// reductions are independent dependency chains the CPU overlaps, instead
/// of one serial draw→dot→sigmoid→update chain per sample. A dot therefore
/// reads each out-row as it was before this pair's updates. SGD tolerates
/// that one-pair staleness as it tolerates the replicas' per-epoch
/// averaging, and the result stays deterministic because program order is
/// fixed.
///
/// With `1 + negative_samples ≤ 8` targets the per-target scalar work runs
/// across lanes: `drawn` holds the negatives from [`avx512_draw_lanes`]
/// (lane `k` is target `k`; lane 0 is replaced by the context),
/// [`avx512_reduce_lanes`] reduces every dot product in one shuffle/add
/// tree, and [`avx512_gradient_lanes`] turns every dot into its gradient
/// scale with one gather from the table. Each lane piece reproduces its
/// scalar definition bit for bit, so the weights match the per-target step
/// exactly; the update loop and its accumulation order are unchanged.
/// Larger sample counts keep the per-target step and ignore `drawn`.
///
/// Deliberately `#[inline(always)]` and without a `target_feature` of its
/// own, so it only ever compiles inlined into [`shard_kernel_avx512`] and
/// inherits its `avx512f,avx512dq,avx512vl` context.
///
/// # Safety
/// See [`shard_kernel_avx512`]; only call it from a function with those
/// features. `w_in` and `w_out` point at the worker's matrices.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
#[allow(clippy::needless_range_loop)]
unsafe fn avx512_pair_step<const CHUNKS: usize>(
    [center_id, context]: [u32; 2],
    lr: f32,
    ctr: u64,
    drawn: core::arch::x86_64::__m256i,
    w_in: *mut f32,
    w_out: *mut f32,
    p: &KernelParams,
) {
    use core::arch::x86_64::*;
    let dim = 16 * CHUNKS;
    let mut center = [_mm512_setzero_ps(); CHUNKS];
    let mut grad = [_mm512_setzero_ps(); CHUNKS];
    let in_row = w_in.add(center_id as usize * dim);
    for c in 0..CHUNKS {
        center[c] = _mm512_loadu_ps(in_row.add(c * 16));
    }
    let total = 1 + p.negative_samples;
    if total <= 8 {
        let mut targets = [0u32; 8];
        _mm256_storeu_si256(targets.as_mut_ptr().cast(), drawn);
        targets[0] = context;
        let mut acc = [_mm512_setzero_ps(); 8];
        for k in 0..total {
            acc[k] = avx512_dot_lanes(&center, w_out.add(targets[k] as usize * dim));
        }
        let mut g = [0.0f32; 8];
        _mm256_storeu_ps(
            g.as_mut_ptr(),
            avx512_gradient_lanes(p.sig, avx512_reduce_lanes(acc), lr),
        );
        for k in 0..total {
            let target = targets[k];
            if k > 0 && target == context {
                continue;
            }
            avx512_update(&center, &mut grad, w_out.add(target as usize * dim), g[k]);
        }
    } else {
        for neg in 0..=p.negative_samples {
            let (target, label) = if neg == 0 {
                (context, 1.0f32)
            } else {
                (
                    p.alias.sample_from_u64(splitmix64(
                        ctr.wrapping_mul(0x632B_E5AB).wrapping_add(neg as u64),
                    )),
                    0.0f32,
                )
            };
            if label == 0.0 && target == context {
                continue;
            }
            let out = w_out.add(target as usize * dim);
            let dot = _mm512_reduce_add_ps(avx512_dot_lanes(&center, out));
            let g = p.sig.gradient(dot, label, lr);
            avx512_update(&center, &mut grad, out, g);
        }
    }
    for c in 0..CHUNKS {
        let iv = _mm512_loadu_ps(in_row.add(c * 16));
        _mm512_storeu_ps(in_row.add(c * 16), _mm512_add_ps(iv, grad[c]));
    }
}

/// Eight negative draws at once: lane `k` is
/// `alias.sample_from_u64(splitmix64(base + k))`. The splitmix64 finaliser
/// runs on 8 × 64-bit lanes (`vpmullq`, AVX512DQ), the column is the high
/// half of `(r >> 32) · len`, one gather fetches the columns' packed
/// thresholds and aliases, and an unsigned compare into a mask plus a blend
/// (256-bit, AVX512VL) picks the direct or the redirected outcome — no
/// branch anywhere.
///
/// # Safety
/// Only call it from an `avx512f,avx512dq,avx512vl` context. The table must
/// not be empty (the gather reads column 0 of an empty table otherwise).
#[cfg(target_arch = "x86_64")]
#[inline(always)]
unsafe fn avx512_draw_lanes(alias: &AliasTable, base: u64) -> core::arch::x86_64::__m256i {
    use core::arch::x86_64::*;
    let columns = alias.columns();
    debug_assert!(!columns.is_empty() && columns.len() <= u32::MAX as usize);
    let x = _mm512_add_epi64(
        _mm512_set1_epi64(base as i64),
        _mm512_setr_epi64(0, 1, 2, 3, 4, 5, 6, 7),
    );
    let mut z = _mm512_add_epi64(x, _mm512_set1_epi64(0x9E37_79B9_7F4A_7C15u64 as i64));
    z = _mm512_mullo_epi64(
        _mm512_xor_si512(z, _mm512_srli_epi64::<30>(z)),
        _mm512_set1_epi64(0xBF58_476D_1CE4_E5B9u64 as i64),
    );
    z = _mm512_mullo_epi64(
        _mm512_xor_si512(z, _mm512_srli_epi64::<27>(z)),
        _mm512_set1_epi64(0x94D0_49BB_1331_11EBu64 as i64),
    );
    let r = _mm512_xor_si512(z, _mm512_srli_epi64::<31>(z));
    let col = _mm512_srli_epi64::<32>(_mm512_mul_epu32(
        _mm512_srli_epi64::<32>(r),
        _mm512_set1_epi64(columns.len() as i64),
    ));
    let column = _mm512_i64gather_epi64::<8>(col, columns.as_ptr().cast());
    let threshold = _mm512_cvtepi64_epi32(column);
    let redirect = _mm512_cvtepi64_epi32(_mm512_srli_epi64::<32>(column));
    let take_direct = _mm256_cmplt_epu32_mask(_mm512_cvtepi64_epi32(r), threshold);
    _mm256_mask_blend_epi32(take_direct, redirect, _mm512_cvtepi64_epi32(col))
}

/// Horizontal sums of eight vectors at once, lane `k` of the result being
/// `_mm512_reduce_add_ps(v[k])` bit for bit: the same tree (256-bit halves,
/// then 128-bit halves, then `[2, 3, 0, 1]`, then `[1, 0]`) with the same
/// operand order at every add, run on two or four vectors per instruction.
///
/// # Safety
/// Only call it from an `avx512f` context.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
unsafe fn avx512_reduce_lanes(v: [core::arch::x86_64::__m512; 8]) -> core::arch::x86_64::__m256 {
    use core::arch::x86_64::*;
    // `[a.lo256, b.lo256] + [a.hi256, b.hi256]`: a's 8 partial sums, then b's.
    let halves = |a, b| {
        _mm512_add_ps(
            _mm512_shuffle_f32x4::<0b01_00_01_00>(a, b),
            _mm512_shuffle_f32x4::<0b11_10_11_10>(a, b),
        )
    };
    // Block 0 plus block 1 of each 256-bit sum: four vectors' 4 partial sums.
    let quarters = |a, b| {
        _mm512_add_ps(
            _mm512_shuffle_f32x4::<0b10_00_10_00>(a, b),
            _mm512_shuffle_f32x4::<0b11_01_11_01>(a, b),
        )
    };
    let p = quarters(halves(v[0], v[1]), halves(v[2], v[3]));
    let q = quarters(halves(v[4], v[5]), halves(v[6], v[7]));
    // Per 128-bit block j: `[c_j[0] + c_j[2], c_j[1] + c_j[3]]`, then the
    // same for vector j + 4.
    let d = _mm512_add_ps(
        _mm512_shuffle_ps::<0b01_00_01_00>(p, q),
        _mm512_shuffle_ps::<0b11_10_11_10>(p, q),
    );
    // `d[0] + d[1]`: vector j's sum lands in lane 4j, vector j + 4's in 4j + 2.
    let e = _mm512_add_ps(d, _mm512_permute_ps::<0b10_11_00_01>(d));
    let order = _mm512_setr_epi32(0, 4, 8, 12, 2, 6, 10, 14, 0, 0, 0, 0, 0, 0, 0, 0);
    _mm512_castps512_ps256(_mm512_permutexvar_ps(order, e))
}

/// [`SigmoidTable::gradient`] of eight dot products at once, lane 0 taking
/// label 1 (the context) and the others label 0: one gather looks up every
/// sigmoid, and a compare mask zeroes each lane whose `|dot|` is not below
/// `MAX_EXP`, as the scalar select does.
///
/// # Safety
/// Only call it from an `avx512f,avx512vl` context.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
unsafe fn avx512_gradient_lanes(
    sig: &SigmoidTable,
    dots: core::arch::x86_64::__m256,
    lr: f32,
) -> core::arch::x86_64::__m256 {
    use core::arch::x86_64::*;
    let value = _mm256_i32gather_ps::<4>(sig.table.as_ptr(), avx512_sigmoid_index_lanes(dots));
    let label = _mm256_setr_ps(1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0);
    let g = _mm256_mul_ps(_mm256_sub_ps(label, value), _mm256_set1_ps(lr));
    let abs = _mm256_andnot_ps(_mm256_set1_ps(-0.0), dots);
    let keep = _mm256_cmp_ps_mask::<_CMP_LT_OQ>(abs, _mm256_set1_ps(SigmoidTable::MAX_EXP));
    _mm256_maskz_mov_ps(keep, g)
}

/// [`SigmoidTable::index`] of eight arguments at once: clamp, scale and
/// truncate with the scalar bin's operations, then clamp the index to
/// `[0, SIZE − 1]` (an argument of 6 scales to `SIZE`). A NaN leaves the
/// argument clamp as −6 (`vmaxps` returns its second operand), and would
/// truncate to `i32::MIN` otherwise, so either way it lands in bin 0 like
/// the scalar `as i32`.
///
/// # Safety
/// Only call it from an `avx512f` context.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
unsafe fn avx512_sigmoid_index_lanes(x: core::arch::x86_64::__m256) -> core::arch::x86_64::__m256i {
    use core::arch::x86_64::*;
    let max = SigmoidTable::MAX_EXP;
    let x = _mm256_min_ps(_mm256_max_ps(x, _mm256_set1_ps(-max)), _mm256_set1_ps(max));
    let scaled = _mm256_mul_ps(
        _mm256_add_ps(x, _mm256_set1_ps(max)),
        _mm256_set1_ps(SigmoidTable::SIZE as f32 / (2.0 * max)),
    );
    let idx = _mm256_cvttps_epi32(scaled);
    _mm256_min_epi32(
        _mm256_max_epi32(idx, _mm256_setzero_si256()),
        _mm256_set1_epi32(SigmoidTable::SIZE as i32 - 1),
    )
}

/// `center · out` over one row, before the horizontal sum: a multiply,
/// then `CHUNKS − 1` fused multiply-adds in chunk order.
///
/// # Safety
/// As [`avx512_pair_step`]; `out` must point at a row of `16 * CHUNKS`.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
#[allow(clippy::needless_range_loop)]
unsafe fn avx512_dot_lanes<const CHUNKS: usize>(
    center: &[core::arch::x86_64::__m512; CHUNKS],
    out: *const f32,
) -> core::arch::x86_64::__m512 {
    use core::arch::x86_64::*;
    let mut acc = _mm512_mul_ps(center[0], _mm512_loadu_ps(out));
    for c in 1..CHUNKS {
        acc = _mm512_fmadd_ps(center[c], _mm512_loadu_ps(out.add(c * 16)), acc);
    }
    acc
}

/// One SGD update with gradient scale `g`: accumulates `g · out` into the
/// centre gradient and moves the out-row by `g · center`.
///
/// # Safety
/// As [`avx512_dot_lanes`], with `out` writable.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
unsafe fn avx512_update<const CHUNKS: usize>(
    center: &[core::arch::x86_64::__m512; CHUNKS],
    grad: &mut [core::arch::x86_64::__m512; CHUNKS],
    out: *mut f32,
    g: f32,
) {
    use core::arch::x86_64::*;
    let gv = _mm512_set1_ps(g);
    for c in 0..CHUNKS {
        let ov = _mm512_loadu_ps(out.add(c * 16));
        grad[c] = _mm512_fmadd_ps(gv, ov, grad[c]);
        _mm512_storeu_ps(out.add(c * 16), _mm512_fmadd_ps(gv, center[c], ov));
    }
}

/// Runtime-dimension fallback of [`shard_kernel`]: the same per-target
/// arithmetic over bounds-checked rows, with heap scratch.
#[allow(clippy::needless_range_loop)]
fn shard_kernel_dyn(
    pairs: &[[u32; 2]],
    w_in: &mut [f32],
    w_out: &mut [f32],
    p: &KernelParams,
    state: &mut ShardState,
) {
    let KernelParams {
        alias,
        sig,
        negative_samples,
        lr0,
        dim,
    } = *p;
    let inv_total = 1.0 / (state.lr_total as f32 + 1.0);
    let mut center_vec = vec![0.0f32; dim];
    let mut grad = vec![0.0f32; dim];
    for &[center, context] in pairs {
        let lr = lr0 * (1.0 - state.processed as f32 * inv_total).max(0.1);
        state.processed += 1;

        center_vec.copy_from_slice(row(w_in, center, dim));
        grad.fill(0.0);
        let ctr = state.ctr;
        state.ctr = ctr.wrapping_add(negative_samples as u64);
        for neg in 0..=negative_samples {
            let (target, label) = if neg == 0 {
                (context, 1.0f32)
            } else {
                (
                    alias.sample_from_u64(splitmix64(ctr.wrapping_add(neg as u64 - 1))),
                    0.0f32,
                )
            };
            if label == 0.0 && target == context {
                continue;
            }
            let out = row_mut(w_out, target, dim);
            let mut dot = 0.0f32;
            for d in 0..dim {
                dot += center_vec[d] * out[d];
            }
            let g = sig.gradient(dot, label, lr);
            for d in 0..dim {
                grad[d] += g * out[d];
                out[d] += g * center_vec[d];
            }
        }
        let center_row = row_mut(w_in, center, dim);
        for d in 0..dim {
            center_row[d] += grad[d];
        }
    }
}

/// The fast kernels at any thread count. The pair positions are split into
/// `threads` contiguous shards; every epoch, each worker regenerates its
/// shard's pairs chunk by chunk ([`train_shard`]) and trains a private
/// replica of the weights on them with its own draw stream, and the
/// replicas are then averaged into the master in shard order. A worker's
/// arithmetic depends only on its shard, replica and stream, never on
/// scheduling, so repeated runs are bit-identical at any thread count. One
/// shard is the single-thread fast path: its average is its replica,
/// exactly.
#[allow(clippy::too_many_arguments)]
fn train_sharded_averaged(
    vocab: &Vocab,
    config: &EmbeddingConfig,
    pairs: &dyn PairSource,
    chunk: usize,
    threads: usize,
    kernel: ShardKernel,
    w_in: &mut [f32],
    w_out: &mut [f32],
) {
    let dim = config.dim.max(1);
    let epochs = config.epochs.max(1);
    let sig = SigmoidTable::new();
    let params = KernelParams {
        alias: vocab.alias_table(),
        sig: &sig,
        negative_samples: config.negative_samples,
        lr0: config.learning_rate,
        dim,
    };
    let shards = shard_ranges(pairs.num_pairs(), threads);
    let mut states: Vec<ShardState> = shards
        .iter()
        .enumerate()
        .map(|(i, shard)| ShardState::new(config.seed, i, shard.len() * epochs))
        .collect();

    for _epoch in 0..epochs {
        let replicas = map_indexed(shards.len(), shards.len(), |i| {
            let mut r_in = AlignedBuf::from_slice(w_in);
            let mut r_out = AlignedBuf::from_slice(w_out);
            let mut state = states[i];
            // SAFETY: `train_source` had `shard_kernel_for` pick the kernel
            // for `dim` and this CPU; both replicas are `vocab × dim`, and every pair id is a
            // vocabulary id (the entry points check a caller's ids).
            unsafe {
                train_shard(
                    pairs,
                    shards[i].clone(),
                    chunk,
                    kernel,
                    r_in.as_mut_slice(),
                    r_out.as_mut_slice(),
                    &params,
                    &mut state,
                )
            };
            (r_in, r_out, state)
        });
        average_into(w_in, replicas.iter().map(|r| r.0.as_slice()));
        average_into(w_out, replicas.iter().map(|r| r.1.as_slice()));
        states = replicas.iter().map(|r| r.2).collect();
    }
}

/// Overwrites `master` with the element-wise mean of `sources`, accumulated
/// in iteration order so the result is scheduling-independent.
fn average_into<'a>(master: &mut [f32], sources: impl Iterator<Item = &'a [f32]>) {
    let mut n = 0usize;
    master.iter_mut().for_each(|m| *m = 0.0);
    for src in sources {
        n += 1;
        for (m, s) in master.iter_mut().zip(src) {
            *m += s;
        }
    }
    if n > 0 {
        let inv = 1.0 / n as f32;
        master.iter_mut().for_each(|m| *m *= inv);
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

    /// Every mode reads its pairs in chunks (lockstep chunks of the two
    /// halves for the interleaved AVX-512 kernel). The chunk size must not
    /// change a bit: the reference path, both in-order kernels, the
    /// runtime-dimension kernel and the interleaved kernel, at one to
    /// three shards, against one chunk spanning the whole stream.
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
            let bits = |chunk: usize| -> Vec<u32> {
                let emb = train_source(
                    subtab_kernels::detect(),
                    &stream.vocab,
                    &stream,
                    &cfg,
                    chunk,
                );
                emb.matrix().iter().map(|x| x.to_bits()).collect()
            };
            let whole = bits(stream.num_pairs());
            for chunk in [1, 2, 7, 64, 1_000] {
                assert!(
                    bits(chunk) == whole,
                    "threads {threads}, deterministic {deterministic}, dim {dim}: chunk {chunk}"
                );
            }
        }
    }

    #[test]
    fn sigmoid_table_approximates_sigmoid() {
        let sig = SigmoidTable::new();
        // Lookups outside [−6, 6] clamp to the table ends (≈ σ(±6)); no
        // update uses them (`gradient_is_zero_where_the_sigmoid_saturates`).
        assert!((sig.value(100.0) - 1.0).abs() < 0.01);
        assert!(sig.value(100.0) > sig.value(5.0));
        assert!(sig.value(-100.0) < 0.01);
        assert!(sig.value(-100.0) < sig.value(-5.0));
        let mut x = -5.9f32;
        while x < 5.9 {
            assert!(
                (sig.value(x) - sigmoid(x)).abs() < 0.02,
                "table diverges at {x}: {} vs {}",
                sig.value(x),
                sigmoid(x)
            );
            x += 0.037;
        }
        // Midpoint symmetry around zero.
        assert!((sig.value(0.0) - 0.5).abs() < 0.02);
    }

    /// gensim's `fast_sentence_sg_neg` skips a target once `|dot| ≥ 6`; the
    /// fast kernels zero its gradient scale instead, to `+0.0` exactly, and
    /// inside the range the scale is the table's `(label − σ) · lr`.
    #[test]
    fn gradient_is_zero_where_the_sigmoid_saturates() {
        let sig = SigmoidTable::new();
        let lr = 0.025;
        for label in [0.0f32, 1.0] {
            for dot in sigmoid_index_grid() {
                let g = sig.gradient(dot, label, lr);
                if dot.abs() < 6.0 {
                    assert_eq!(g.to_bits(), ((label - sig.value(dot)) * lr).to_bits());
                } else {
                    assert_eq!(g.to_bits(), 0.0f32.to_bits(), "dot {dot:e}");
                }
            }
        }
        // The ends that used to keep pushing a saturated target.
        assert_eq!(sig.gradient(6.0, 1.0, lr), 0.0);
        assert_eq!(sig.gradient(-6.0, 0.0, lr), 0.0);
        assert!(sig.gradient(5.9, 1.0, lr) > 0.0);
        assert!(sig.gradient(-5.9, 0.0, lr) < 0.0);
    }

    /// Sigmoid arguments that probe every way a bin can go wrong: a dense
    /// grid over [-6, 6], every bin edge and the floats either side of it,
    /// ±0, ±6 and the floats just inside, ±∞, NaN, subnormals and ±MAX.
    fn sigmoid_index_grid() -> Vec<f32> {
        let mut xs: Vec<f32> = (0..=120_000).map(|i| -6.0 + i as f32 * 1e-4).collect();
        let inside = [6.0f32.next_down(), (-6.0f32).next_up()];
        xs.extend(inside.iter().flat_map(|&x| [x, -x]));
        xs.extend([
            0.0,
            -0.0,
            6.0,
            -6.0,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
        ]);
        xs.extend([
            f32::MIN_POSITIVE,
            f32::from_bits(1),
            f32::from_bits(0x007F_FFFF),
        ]);
        xs.extend([-f32::MIN_POSITIVE, -f32::from_bits(1), f32::MAX, f32::MIN]);
        // Every bin edge, and the floats either side of it.
        for k in 0..=SigmoidTable::SIZE {
            let edge = -6.0 + k as f32 * (12.0 / SigmoidTable::SIZE as f32);
            xs.extend([edge.next_down(), edge, edge.next_up()]);
        }
        xs
    }

    /// `SigmoidTable::index` must turn its scaled argument into the bin an
    /// `f64` floor-and-clamp picks, on every compiled tier: the `as i32`
    /// conversion is checked in plain, `avx2,fma` and AVX-512-tier code
    /// generation wherever the CPU can run it. The reference scales in `f32`
    /// like the table does, because exact scaling moves values within an
    /// ulp of a bin edge into the neighbouring bin.
    #[test]
    fn sigmoid_table_index_matches_floor_and_clamp_reference() {
        fn reference(x: f32) -> usize {
            if x.is_nan() {
                return 0;
            }
            let max = SigmoidTable::MAX_EXP;
            let size = SigmoidTable::SIZE as f32;
            let scaled = (x.clamp(-max, max) + max) * (size / (2.0 * max));
            f64::from(scaled).floor().clamp(0.0, f64::from(size) - 1.0) as usize
        }
        let xs = sigmoid_index_grid();
        let check = |tier: &str, index: &dyn Fn(f32) -> usize| {
            for &x in &xs {
                assert_eq!(index(x), reference(x), "{tier}: bin of {x:e}");
            }
        };
        check("portable", &SigmoidTable::index);
        #[cfg(target_arch = "x86_64")]
        {
            #[target_feature(enable = "avx2,fma")]
            unsafe fn index_fma(x: f32) -> usize {
                SigmoidTable::index(x)
            }
            #[target_feature(enable = "avx512f,avx512dq,avx512vl")]
            unsafe fn index_avx512(x: f32) -> usize {
                SigmoidTable::index(x)
            }
            if subtab_kernels::Isa::Avx2Fma.available() {
                // SAFETY: the CPU supports AVX2 and FMA.
                check("avx2,fma", &|x| unsafe { index_fma(x) });
            }
            if subtab_kernels::Isa::Avx512.available() {
                // SAFETY: the CPU supports the AVX-512 tier.
                check("avx512", &|x| unsafe { index_avx512(x) });
            }
        }
    }

    /// Entry points that run each lane piece of the AVX-512 pair step in
    /// the tier's code generation (the pieces pass 512-bit vectors, so they
    /// have no plain build), next to the scalar definitions they must match,
    /// compiled both plain and with the tier's features.
    #[cfg(target_arch = "x86_64")]
    mod lanes {
        use super::*;
        use core::arch::x86_64::*;

        pub const TIER: &str = "avx512f,avx512dq,avx512vl";

        pub fn available() -> bool {
            let ok = subtab_kernels::Isa::Avx512.available();
            if !ok {
                eprintln!("skipping: the CPU lacks {TIER}");
            }
            ok
        }

        pub fn draw(alias: &AliasTable, x: u64) -> u32 {
            alias.sample_from_u64(splitmix64(x))
        }

        #[target_feature(enable = "avx512f,avx512dq,avx512vl")]
        pub unsafe fn draw_tier(alias: &AliasTable, x: u64) -> u32 {
            draw(alias, x)
        }

        #[target_feature(enable = "avx512f,avx512dq,avx512vl")]
        pub unsafe fn draw_lanes(alias: &AliasTable, base: u64) -> [u32; 8] {
            let mut out = [0u32; 8];
            _mm256_storeu_si256(out.as_mut_ptr().cast(), avx512_draw_lanes(alias, base));
            out
        }

        /// `(batched, one _mm512_reduce_add_ps per row)`.
        #[target_feature(enable = "avx512f,avx512dq,avx512vl")]
        pub unsafe fn reduce(rows: &[[f32; 16]; 8]) -> ([f32; 8], [f32; 8]) {
            let mut v = [_mm512_setzero_ps(); 8];
            let mut single = [0.0f32; 8];
            for k in 0..8 {
                v[k] = _mm512_loadu_ps(rows[k].as_ptr());
                single[k] = _mm512_reduce_add_ps(v[k]);
            }
            let mut batched = [0.0f32; 8];
            _mm256_storeu_ps(batched.as_mut_ptr(), avx512_reduce_lanes(v));
            (batched, single)
        }

        #[target_feature(enable = "avx512f,avx512dq,avx512vl")]
        pub unsafe fn sigmoid_index(x: &[f32; 8]) -> [i32; 8] {
            let mut out = [0i32; 8];
            let idx = avx512_sigmoid_index_lanes(_mm256_loadu_ps(x.as_ptr()));
            _mm256_storeu_si256(out.as_mut_ptr().cast(), idx);
            out
        }

        #[target_feature(enable = "avx512f,avx512dq,avx512vl")]
        pub unsafe fn sigmoid_index_tier(x: f32) -> usize {
            SigmoidTable::index(x)
        }

        #[target_feature(enable = "avx512f,avx512dq,avx512vl")]
        pub unsafe fn gradient(sig: &SigmoidTable, dots: &[f32; 8], lr: f32) -> [f32; 8] {
            let mut out = [0.0f32; 8];
            let g = avx512_gradient_lanes(sig, _mm256_loadu_ps(dots.as_ptr()), lr);
            _mm256_storeu_ps(out.as_mut_ptr(), g);
            out
        }

        #[target_feature(enable = "avx512f,avx512dq,avx512vl")]
        pub unsafe fn gradient_tier(sig: &SigmoidTable, dot: f32, label: f32, lr: f32) -> f32 {
            sig.gradient(dot, label, lr)
        }
    }

    /// The `x` with `splitmix64(x) == z`: each xor-shift and odd multiply
    /// of the finaliser undone in reverse order.
    fn splitmix64_inverse(z: u64) -> u64 {
        fn unshift(y: u64, s: u32) -> u64 {
            let mut x = y;
            for _ in 0..64 / s {
                x = y ^ (x >> s);
            }
            x
        }
        fn inverse(m: u64) -> u64 {
            let mut inv = m;
            for _ in 0..6 {
                inv = inv.wrapping_mul(2u64.wrapping_sub(m.wrapping_mul(inv)));
            }
            inv
        }
        let mut x = unshift(z, 31);
        x = unshift(x.wrapping_mul(inverse(0x94D0_49BB_1331_11EB)), 27);
        x = unshift(x.wrapping_mul(inverse(0xBF58_476D_1CE4_E5B9)), 30);
        x.wrapping_sub(0x9E37_79B9_7F4A_7C15)
    }

    /// Lane `k` of the batched draw must be the scalar draw
    /// `sample_from_u64(splitmix64(base + k))`, for vocabularies of 1, 2, 3,
    /// 288 and 2^20 tokens whose columns include thresholds 0 (zero-weight
    /// tokens) and `u32::MAX` (full columns); for counters near both ends
    /// of the `u64` range, where `base + k` wraps; and for bases whose
    /// draws sit exactly on column boundaries and threshold edges.
    #[test]
    #[cfg(target_arch = "x86_64")]
    fn lane_draws_match_the_scalar_draw() {
        if !lanes::available() {
            return;
        }
        let mut rng = StdRng::seed_from_u64(17);
        for size in [1usize, 2, 3, 288, 1 << 20] {
            // Every seventh token has weight zero; the rest are skewed.
            let weights: Vec<f64> = (0..size)
                .map(|i| match i % 7 {
                    3 if size > 1 => 0.0,
                    r => (r as f64 + 1.0).powi(3),
                })
                .collect();
            let alias = AliasTable::from_weights(&weights);
            let thresholds: Vec<u32> = alias.columns().iter().map(|&c| c as u32).collect();
            assert!(
                thresholds.contains(&u32::MAX),
                "size {size}: no full column"
            );
            if size > 3 {
                assert!(thresholds.contains(&0), "size {size}: no zero column");
            }
            let mut bases: Vec<u64> = vec![0, 1, 7, u64::MAX, u64::MAX - 3, u64::MAX - 7];
            bases.extend((0..2000).map(|_| rng.gen::<u64>()));
            bases.extend((0..64u64).map(|c| c.wrapping_neg().wrapping_mul(0x632B_E5AB)));
            // Bases that put each boundary draw into a lane (cycling k).
            let stride = size / 300 + 1;
            for (i, r) in alias.boundary_draws(stride).into_iter().enumerate() {
                let k = (i % 8) as u64;
                let base = splitmix64_inverse(r).wrapping_sub(k);
                assert_eq!(splitmix64(base.wrapping_add(k)), r);
                bases.push(base);
            }
            for base in bases {
                // SAFETY: `lanes::available` checked the CPU.
                let got = unsafe { lanes::draw_lanes(&alias, base) };
                for (k, &lane) in got.iter().enumerate() {
                    let x = base.wrapping_add(k as u64);
                    let want = lanes::draw(&alias, x);
                    assert_eq!(lane, want, "size {size}, base {base:#x}, lane {k}");
                    // SAFETY: as above.
                    assert_eq!(
                        unsafe { lanes::draw_tier(&alias, x) },
                        want,
                        "{}",
                        lanes::TIER
                    );
                }
            }
        }
    }

    /// The batched reduction must reproduce `_mm512_reduce_add_ps` lane for
    /// lane on random rows mixed with ±0, ±∞, NaN, subnormals and
    /// cancelling magnitudes, where any change of association shows. Equal
    /// means equal bits; a NaN sum only has to be NaN, since Rust leaves
    /// NaN payloads unspecified (and every NaN lands in sigmoid bin 0).
    #[test]
    #[cfg(target_arch = "x86_64")]
    fn lane_reduction_matches_reduce_add_ps() {
        if !lanes::available() {
            return;
        }
        let specials = [
            0.0f32,
            -0.0,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
            f32::from_bits(1),
            -f32::from_bits(0x0000_0F00),
            f32::MIN_POSITIVE,
            1e30,
            -1e30,
            3.0e38,
            -3.0e38,
            1.0,
            -1.0,
            f32::EPSILON,
        ];
        let mut rng = StdRng::seed_from_u64(23);
        for trial in 0..20_000 {
            let mut rows = [[0.0f32; 16]; 8];
            for x in rows.iter_mut().flatten() {
                *x = if trial % 2 == 0 || rng.gen::<f32>() < 0.7 {
                    (rng.gen::<f32>() - 0.5) * 2f32.powi(rng.gen_range(-30..30))
                } else {
                    specials[rng.gen_range(0..specials.len())]
                };
            }
            // SAFETY: `lanes::available` checked the CPU.
            let (batched, single) = unsafe { lanes::reduce(&rows) };
            for k in 0..8 {
                let (got, want) = (batched[k], single[k]);
                assert!(
                    got.to_bits() == want.to_bits() || (got.is_nan() && want.is_nan()),
                    "trial {trial}, row {k}: {got:e} vs {want:e} for {:?}",
                    rows[k]
                );
            }
        }
    }

    /// The lane sigmoid bins must equal `SigmoidTable::index` (plain and in
    /// the tier's code generation) on the grid of
    /// `sigmoid_table_index_matches_floor_and_clamp_reference`.
    #[test]
    #[cfg(target_arch = "x86_64")]
    fn lane_sigmoid_indices_match_the_scalar_bins() {
        if !lanes::available() {
            return;
        }
        let xs = sigmoid_index_grid();
        for chunk in xs.chunks(8) {
            let mut x = [0.0f32; 8];
            x[..chunk.len()].copy_from_slice(chunk);
            // SAFETY: `lanes::available` checked the CPU.
            let got = unsafe { lanes::sigmoid_index(&x) };
            for (k, &xk) in x.iter().enumerate() {
                let want = SigmoidTable::index(xk);
                assert_eq!(got[k] as usize, want, "bin of {xk:e}");
                // SAFETY: as above.
                let tier = unsafe { lanes::sigmoid_index_tier(xk) };
                assert_eq!(tier, want, "{}: bin of {xk:e}", lanes::TIER);
            }
        }
    }

    /// The lane gradient scales must equal `SigmoidTable::gradient` (plain
    /// and in the tier's code generation) bit for bit, label 1 in lane 0
    /// and 0 elsewhere, on the sigmoid grid: every in-range bin, the ±6
    /// ends where the scale drops to zero, ±∞ and NaN.
    #[test]
    #[cfg(target_arch = "x86_64")]
    fn lane_gradients_match_the_scalar_gradient() {
        if !lanes::available() {
            return;
        }
        let sig = SigmoidTable::new();
        let xs = sigmoid_index_grid();
        for lr in [0.025f32, 0.0025, 1.0] {
            // Shift the grid by one lane per pass so every argument meets
            // lane 0 (label 1) and the others (label 0).
            for shift in 0..8 {
                for chunk in xs[shift..].chunks(8) {
                    let mut dots = [0.0f32; 8];
                    dots[..chunk.len()].copy_from_slice(chunk);
                    // SAFETY: `lanes::available` checked the CPU.
                    let got = unsafe { lanes::gradient(&sig, &dots, lr) };
                    for (k, &dot) in dots.iter().enumerate() {
                        let label = if k == 0 { 1.0 } else { 0.0 };
                        let want = sig.gradient(dot, label, lr);
                        assert_eq!(got[k].to_bits(), want.to_bits(), "lane {k}, dot {dot:e}");
                        // SAFETY: as above.
                        let tier = unsafe { lanes::gradient_tier(&sig, dot, label, lr) };
                        assert_eq!(
                            tier.to_bits(),
                            want.to_bits(),
                            "{}: dot {dot:e}",
                            lanes::TIER
                        );
                    }
                }
            }
        }
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
            assert!(a.vector(token).unwrap().iter().all(|x| x.is_finite()));
        }
        // Same qualitative structure as the reference trainer.
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

    /// `deterministic = false` at four threads runs the replica trainer,
    /// like `true` does.
    #[test]
    fn parallel_fast_flag_trains_finite_vectors() {
        let bt = patterned_binned(60);
        let cfg = EmbeddingConfig {
            threads: 4,
            deterministic: false,
            ..small_config()
        };
        let emb = train_embedding(&bt, &cfg);
        assert!(!emb.is_empty());
        for token in emb.tokens() {
            assert!(emb.vector(token).unwrap().iter().all(|x| x.is_finite()));
        }
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
    }

    /// The fast kernels index rows unchecked, so a foreign id must stop
    /// training before any kernel runs, as the reference path's slice index
    /// does.
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
