//! Skip-gram with negative sampling (SGNS), the Word2Vec variant used by the
//! paper's reference implementation (via gensim).
//!
//! # Trainer architecture
//!
//! The corpus is flattened once into a contiguous buffer of
//! `(center, context)` pairs. Three execution modes cover the
//! speed/reproducibility trade-off:
//!
//! | `threads` | `deterministic` | mode |
//! |---|---|---|
//! | 1 | `true` (default) | **reference** — bit-exact with the original single-threaded trainer |
//! | 1 | `false` | **fast sequential** — sigmoid table + alias sampling, reproducible |
//! | >1 | either | **sharded replica averaging** — the fast kernels in parallel, run-to-run reproducible |
//!
//! The parallel mode splits the buffer into `threads` contiguous shards.
//! Every epoch, each worker trains a private replica of the weights on its
//! shard with its own deterministic draw stream, and the replicas are then
//! averaged in shard order. Fast sequential is the one-shard case of the
//! same trainer. No two workers ever share writable memory.
//!
//! The reference path exists so golden embeddings and every downstream test
//! that depends on exact vector values stay valid; the fast paths trade that
//! bit-compatibility for a precomputed 512-entry sigmoid table and
//! alias-method negative sampling. Memory for the pair buffer is
//! `8 bytes × pairs`, where pairs per sentence are about
//! `len × min(2·window, len − 1)` — worst case roughly 0.8 GB at the
//! paper's 100 000-sentence cap with the default window of 8 and 64-token
//! column-sentence chunks; typical tables sit orders of magnitude below
//! that (the quick-scale Flights stand-in flattens to ~11 MB).
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
//! schedule (`count_pairs`) is now *exact*, where the old trainer overcounted near sentence edges and
//! decayed the learning rate too slowly. Reference output is therefore
//! byte-identical to pre-refactor exactly when the old count was already
//! exact — windowless configs, or windows no shorter than every sentence —
//! which is what the golden-fixture test pins; windowed configs differ by
//! the corrected schedule (and only by it).

use crate::corpus::{build_corpus, Corpus, CorpusOptions};
use crate::model::{CellEmbedding, Quantization};
use crate::stream::{build_pair_stream, StreamOptions};
use crate::vocab::{AliasTable, Vocab};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use subtab_binning::BinnedTable;
use subtab_kernels::{fma_select, map_indexed, resolve_threads, AlignedBuf};

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
    /// Post-training storage format of the embedding matrix; see
    /// [`Quantization`]. The default keeps the full-precision f32 matrix.
    #[serde(default)]
    pub quantize: Quantization,
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
            quantize: Quantization::None,
            threads: 1,
            deterministic: true,
        }
    }
}

impl EmbeddingConfig {
    fn corpus_options(&self) -> CorpusOptions {
        CorpusOptions {
            max_sentences: self.max_sentences,
            max_column_sentence_len: self.max_column_sentence_len,
            include_column_sentences: self.include_column_sentences,
            seed: self.seed,
        }
    }

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
/// config's `min_count` / `subsample_t` pruning knobs; with the knobs at
/// their defaults the stream, and therefore the trained model, is
/// byte-identical to [`train_embedding_materialized`].
pub fn train_embedding(binned: &BinnedTable, config: &EmbeddingConfig) -> CellEmbedding {
    let stream = build_pair_stream(binned, &config.stream_options());
    train_pairs(&stream.vocab, &stream.pairs, config)
}

/// The pre-streaming preprocess pipeline, preserved as the pinned reference
/// twin: materialize the sentence corpus, then flatten and train. Ignores
/// `min_count` / `subsample_t` (the materialized builder has no pruning);
/// the equivalence suite and the `scale-preprocess-legacy` bench comparator
/// run through here.
pub fn train_embedding_materialized(
    binned: &BinnedTable,
    config: &EmbeddingConfig,
) -> CellEmbedding {
    let corpus = build_corpus(binned, &config.corpus_options());
    train_on_corpus(&corpus, config)
}

/// Trains SGNS on an already-built corpus (exposed for ablation benches).
pub fn train_on_corpus(corpus: &Corpus, config: &EmbeddingConfig) -> CellEmbedding {
    let pairs = flatten_pairs(corpus, config.window);
    train_pairs(&corpus.vocab, &pairs, config)
}

/// Trains SGNS over a flat `(center, context)` pair buffer and its
/// vocabulary — the shared back half of the streaming and materialized
/// entry points. The weight matrices are allocated once, sized from the
/// (possibly pruned) vocabulary.
///
/// # Panics
/// Panics if `vocab` is not empty and a pair names a token id outside it.
pub fn train_pairs(vocab: &Vocab, pairs: &[[u32; 2]], config: &EmbeddingConfig) -> CellEmbedding {
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

    if !pairs.is_empty() {
        match (
            resolve_threads(config.threads, pairs.len()),
            config.deterministic,
        ) {
            (1, true) => train_reference(vocab, config, pairs, &mut w_in, &mut w_out, &mut rng),
            (n, _) => train_sharded_averaged(vocab, config, pairs, n, &mut w_in, &mut w_out),
        }
    }

    CellEmbedding::from_flat(dim, vocab.tokens().to_vec(), w_in).quantized(config.quantize)
}

// ---------------------------------------------------------------------------
// Pair flattening and the exact pair count.

/// Flattens the corpus into the contiguous `(center, context)` pair buffer in
/// the exact enumeration order of the original nested loops (sentence order,
/// centers left to right, contexts left to right with the center skipped).
fn flatten_pairs(corpus: &Corpus, window: Option<usize>) -> Vec<[u32; 2]> {
    let mut pairs = Vec::with_capacity(count_pairs(corpus, window));
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
    debug_assert_eq!(pairs.len(), count_pairs(corpus, window));
    pairs
}

/// Exact number of `(center, context)` pairs one epoch visits.
///
/// For a windowed pass, position `i` of a sentence of length `len`
/// contributes `min(i, w) + min(len - 1 - i, w)` pairs; summed in closed
/// form this is `w · (2·len − w − 1)` once `len > w`, and the full
/// `len · (len − 1)` otherwise. (The previous formula,
/// `len · min(2w, len − 1)`, pretended every position had a full window,
/// overcounting near sentence edges and skewing the linear learning-rate
/// decay low.)
fn count_pairs(corpus: &Corpus, window: Option<usize>) -> usize {
    corpus
        .sentences
        .iter()
        .map(|s| {
            let len = s.len();
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
        })
        .sum()
}

// ---------------------------------------------------------------------------
// Reference path: bit-exact with the original single-threaded trainer.

/// The original trainer, reproduced computation-for-computation over the
/// flat pair buffer: exact `exp` sigmoid, cumulative-table negative
/// sampling, one RNG stream continuing from initialisation. Golden
/// embeddings are validated against this path.
fn train_reference(
    vocab: &Vocab,
    config: &EmbeddingConfig,
    pairs: &[[u32; 2]],
    w_in: &mut [f32],
    w_out: &mut [f32],
    rng: &mut StdRng,
) {
    let dim = config.dim.max(1);
    let epochs = config.epochs.max(1);
    let total_pairs = pairs.len() * epochs;
    let mut processed = 0usize;
    let lr0 = config.learning_rate;
    let mut grad_in = vec![0.0f32; dim];
    let mut center_vec = vec![0.0f32; dim];

    for _epoch in 0..epochs {
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
    }
}

// ---------------------------------------------------------------------------
// Fast kernels: sigmoid table, alias sampling, per-shard RNG streams.

/// Precomputed sigmoid, Word2Vec style: 512 samples of σ over [−6, 6],
/// saturating outside.
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
    /// saturated inputs return σ(±MAX_EXP) (≈ 0.0025 / 0.9975) instead of
    /// exactly 0/1 — the same saturation gensim's table applies.
    #[inline(always)]
    fn value(&self, x: f32) -> f32 {
        self.table[Self::index(x)]
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

/// Splits the pair buffer into at most `threads` contiguous, near-equal
/// shards.
fn shard_pairs(pairs: &[[u32; 2]], threads: usize) -> Vec<&[[u32; 2]]> {
    let chunk = pairs.len().div_ceil(threads).max(1);
    pairs.chunks(chunk).collect()
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

/// Signature shared by every fast shard kernel: trains one shard for one
/// epoch on the worker's own input and output matrices.
///
/// # Safety
/// Both matrices must hold `vocab × params.dim` values, and every token id
/// in the shard must be a row of them (the alias table draws only such
/// ids). The kernel must be one [`shard_kernel_for`] picked for
/// `params.dim`, so the CPU runs its target features.
type ShardKernel = unsafe fn(&[[u32; 2]], &mut [f32], &mut [f32], &KernelParams, &mut ShardState);

/// Picks the shard kernel once per training run. The common
/// dimensionalities get a const-generic kernel, so the dot-product and
/// update loops fully unroll and vectorise; other dimensions fall back to a
/// runtime-length kernel. Dispatch honours `SUBTAB_FORCE_SCALAR_KERNELS`,
/// which CI uses to exercise the portable path on any machine.
fn shard_kernel_for(dim: usize) -> ShardKernel {
    #[cfg(target_arch = "x86_64")]
    {
        if subtab_kernels::has_avx512() {
            match dim {
                16 => return shard_kernel_avx512::<1>,
                32 => return shard_kernel_avx512::<2>,
                48 => return shard_kernel_avx512::<3>,
                64 => return shard_kernel_avx512::<4>,
                _ => {}
            }
        }
        if subtab_kernels::has_avx2_fma() {
            match dim {
                8 => return shard_kernel_fma::<8>,
                16 => return shard_kernel_fma::<16>,
                32 => return shard_kernel_fma::<32>,
                64 => return shard_kernel_fma::<64>,
                _ => {}
            }
        }
    }
    match dim {
        8 => shard_kernel::<8>,
        16 => shard_kernel::<16>,
        32 => shard_kernel::<32>,
        64 => shard_kernel::<64>,
        _ => shard_kernel_dyn,
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
            let g = (label - sig.value(dot)) * lr;
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
/// latency-bound draw→dot→sigmoid→update chain. Each pair keeps the
/// learning-rate index and draw counter it would have had sequentially, so
/// the result is deterministic and scheduling-independent.
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
/// delaying the pair's first dot. With the lane step, `train_pairs` on the
/// 8 000 × 48 wide table (`threads = 2`, `deterministic = true`) takes
/// 1.29 s against 1.37 s with per-target draws, reductions and lookups
/// (medians of 10 alternated runs, 2-vCPU AVX-512 host; same bits).
///
/// # Safety
/// See [`shard_kernel`]; the caller must have verified the AVX-512 tier
/// (`avx512f`, `avx512dq`, `avx512vl`) and that `p.dim == 16 * CHUNKS`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512dq,avx512vl")]
unsafe fn shard_kernel_avx512<const CHUNKS: usize>(
    pairs: &[[u32; 2]],
    w_in: &mut [f32],
    w_out: &mut [f32],
    p: &KernelParams,
    state: &mut ShardState,
) {
    use core::arch::x86_64::_mm256_setzero_si256;
    debug_assert!((1..=4).contains(&CHUNKS) && p.dim == 16 * CHUNKS);
    // The lane draws gather from the table without bounds checks.
    assert!(
        p.negative_samples == 0 || !p.alias.is_empty(),
        "alias table is empty"
    );
    let (w_in, w_out) = (w_in.as_mut_ptr(), w_out.as_mut_ptr());
    let inv_total = 1.0 / (state.lr_total as f32 + 1.0);
    let base_processed = state.processed;
    let base_ctr = state.ctr;
    state.processed += pairs.len();
    state.ctr = base_ctr.wrapping_add(pairs.len() as u64);

    let lane_draws = (1..=7).contains(&p.negative_samples);
    let draw = |idx: usize| {
        if lane_draws {
            let ctr = base_ctr.wrapping_add(idx as u64);
            avx512_draw_lanes(p.alias, ctr.wrapping_mul(0x632B_E5AB))
        } else {
            _mm256_setzero_si256()
        }
    };
    // Step `n` trains pair `order(n)`: pairs `i` and `half + i` alternate,
    // and an odd shard ends with its last pair.
    let half = pairs.len() / 2;
    let order = |n: usize| {
        if n == 2 * half {
            n
        } else {
            n % 2 * half + n / 2
        }
    };
    let mut next = draw(order(0));
    for n in 0..pairs.len() {
        let idx = order(n);
        let drawn = next;
        if n + 1 < pairs.len() {
            next = draw(order(n + 1));
        }
        let lr = p.lr0 * (1.0 - (base_processed + idx) as f32 * inv_total).max(0.1);
        let ctr = base_ctr.wrapping_add(idx as u64);
        avx512_pair_step::<CHUNKS>(pairs[idx], lr, ctr, drawn, w_in, w_out, p);
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
/// tree, and [`avx512_sigmoid_index_lanes`] bins every sigmoid argument for
/// one gather from the table. Each lane piece reproduces its scalar
/// definition bit for bit, so the weights match the per-target step
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
        let dots = avx512_reduce_lanes(acc);
        let sig = _mm256_i32gather_ps::<4>(p.sig.table.as_ptr(), avx512_sigmoid_index_lanes(dots));
        let label = _mm256_setr_ps(1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0);
        let mut g = [0.0f32; 8];
        _mm256_storeu_ps(
            g.as_mut_ptr(),
            _mm256_mul_ps(_mm256_sub_ps(label, sig), _mm256_set1_ps(lr)),
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
            let g = (label - p.sig.value(dot)) * lr;
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
            let g = (label - sig.value(dot)) * lr;
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

/// The fast kernels at any thread count. The pair buffer is split into
/// `threads` contiguous shards; every epoch, each worker trains a private
/// replica of the weights on its shard with its own draw stream, and the
/// replicas are then averaged into the master in shard order. A worker's
/// arithmetic depends only on its shard, replica and stream, never on
/// scheduling, so repeated runs are bit-identical at any thread count. One
/// shard is the single-thread fast path: its average is its replica,
/// exactly.
fn train_sharded_averaged(
    vocab: &Vocab,
    config: &EmbeddingConfig,
    pairs: &[[u32; 2]],
    threads: usize,
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
    // The kernels index weight rows unchecked; the alias table draws only
    // vocabulary ids, and the caller's pairs are checked here.
    assert!(
        pairs
            .iter()
            .flatten()
            .max()
            .is_none_or(|&id| (id as usize) < vocab.len()),
        "pair token id outside the vocabulary"
    );
    let kernel = shard_kernel_for(dim);
    let shards = shard_pairs(pairs, threads);
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
            // SAFETY: `shard_kernel_for` picked the kernel for `dim` and this
            // CPU; both replicas are `vocab × dim`, and every pair id was
            // checked against the vocabulary above.
            unsafe {
                kernel(
                    shards[i],
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
    fn count_pairs_is_exact() {
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
            let corpus = Corpus {
                sentences: sentences.clone(),
                vocab: Default::default(),
            };
            for window in [None, Some(0), Some(1), Some(2), Some(5), Some(8), Some(100)] {
                assert_eq!(
                    count_pairs(&corpus, window),
                    brute(&sentences, window),
                    "window {window:?} on {sentences:?}"
                );
                assert_eq!(
                    flatten_pairs(&corpus, window).len(),
                    brute(&sentences, window),
                    "flattened count, window {window:?}"
                );
            }
        }
    }

    #[test]
    fn sigmoid_table_approximates_sigmoid() {
        let sig = SigmoidTable::new();
        // Saturated inputs clamp to the table ends (≈ σ(±6)), like gensim.
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
