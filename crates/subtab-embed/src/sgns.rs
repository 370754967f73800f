//! Skip-gram with negative sampling (SGNS), the Word2Vec variant used by the
//! paper's reference implementation (via gensim).
//!
//! # Trainer architecture
//!
//! The corpus is flattened once into a contiguous buffer of
//! `(center, context)` pairs, which is split into `threads` contiguous
//! shards; each shard is trained by one worker with its own deterministic
//! RNG stream derived from the seed. Four execution modes cover the
//! speed/reproducibility trade-off:
//!
//! | `threads` | `deterministic` | mode |
//! |---|---|---|
//! | 1 | `true` (default) | **reference** — bit-exact with the original single-threaded trainer |
//! | 1 | `false` | **fast sequential** — sigmoid table + alias sampling, reproducible |
//! | >1 | `true` | **sharded replica averaging** — parallel, run-to-run reproducible |
//! | >1 | `false` | **Hogwild** — lock-free shared weights, fastest, not bit-reproducible |
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
use subtab_kernels::{fma_select, AlignedBuf};

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
    /// Reproducibility mode. With one thread, `true` selects the bit-exact
    /// reference trainer; with several, workers train private replicas that
    /// are averaged after every epoch, which is run-to-run reproducible
    /// regardless of scheduling. `false` enables the fast kernels on one
    /// thread and lock-free Hogwild updates on several (fastest, but racy
    /// updates make repeated runs differ in the low bits).
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

    /// The worker count after resolving `threads = 0` to the machine's
    /// available parallelism.
    pub fn effective_threads(&self) -> usize {
        match self.threads {
            0 => std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1),
            n => n,
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
        let threads = config.effective_threads().max(1).min(pairs.len());
        match (threads, config.deterministic) {
            (1, true) => train_reference(vocab, config, pairs, &mut w_in, &mut w_out, &mut rng),
            (1, false) => train_fast_sequential(vocab, config, pairs, &mut w_in, &mut w_out),
            (n, true) => train_sharded_averaged(vocab, config, pairs, n, &mut w_in, &mut w_out),
            (n, false) => train_hogwild(vocab, config, pairs, n, &mut w_in, &mut w_out),
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

/// Raw pointers to the two weight matrices, shared across Hogwild workers.
///
/// Cloning the handle hands every worker mutable access to the same rows;
/// concurrent updates race *by design* (Hogwild: sparse SGD updates rarely
/// collide, and a lost f32 write costs a fraction of one gradient step).
/// Aligned 4-byte stores cannot tear on the supported targets, so a racy
/// read observes either the old or the new value.
///
/// This is formally a data race, which Rust's memory model does not bless
/// even when every racing access is a plain aligned f32 — the same
/// trade-off Hogwild implementations across the ecosystem make, because
/// per-element relaxed atomics defeat the SIMD kernels. The race is only
/// reachable in the explicitly opt-in `threads > 1, deterministic = false`
/// mode; every other mode gives each worker exclusive storage. If a future
/// toolchain miscompiles this, the fallback is swapping the fast mode's
/// shared matrices for `AtomicU32` bit views at a measured throughput cost.
#[derive(Clone, Copy)]
struct WeightsPtr {
    w_in: *mut f32,
    w_out: *mut f32,
    dim: usize,
}

// SAFETY: the pointers stay valid for the whole thread::scope that uses
// them, and the racy accesses are confined to `train_shard_fast` under the
// Hogwild contract documented on the struct.
unsafe impl Send for WeightsPtr {}
unsafe impl Sync for WeightsPtr {}

impl WeightsPtr {
    fn new(w_in: &mut [f32], w_out: &mut [f32], dim: usize) -> Self {
        WeightsPtr {
            w_in: w_in.as_mut_ptr(),
            w_out: w_out.as_mut_ptr(),
            dim,
        }
    }

    /// # Safety
    /// `idx` must be a valid row; see the Hogwild contract on the struct.
    #[inline]
    #[allow(clippy::mut_from_ref)] // Hogwild: aliasing is the whole point
    unsafe fn in_row(&self, idx: u32) -> &mut [f32] {
        std::slice::from_raw_parts_mut(self.w_in.add(idx as usize * self.dim), self.dim)
    }

    /// # Safety
    /// `idx` must be a valid row; see the Hogwild contract on the struct.
    #[inline]
    #[allow(clippy::mut_from_ref)] // Hogwild: aliasing is the whole point
    unsafe fn out_row(&self, idx: u32) -> &mut [f32] {
        std::slice::from_raw_parts_mut(self.w_out.add(idx as usize * self.dim), self.dim)
    }
}

// The 64-byte-aligned training buffers (weight rows of the common
// dimensionalities start on cache-line boundaries, so the wide loads and
// stores of the kernels never straddle two lines) now live in
// `subtab_kernels::AlignedBuf`, shared with every other SIMD consumer.

/// Scratch state of one worker, kept across epochs so the learning-rate
/// schedule and draw stream continue seamlessly.
struct ShardState {
    /// Counter for the counter-based negative-sampling stream: each draw is
    /// `splitmix64(ctr + k)`, so consecutive draws are independent
    /// computations the CPU can overlap (a stateful generator would chain
    /// them), while staying fully deterministic per shard.
    ctr: u64,
    processed: usize,
    center: Vec<f32>,
    grad: Vec<f32>,
}

impl ShardState {
    fn new(seed: u64, shard: usize, dim: usize) -> Self {
        ShardState {
            ctr: seed ^ (shard as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15),
            processed: 0,
            center: vec![0.0f32; dim],
            grad: vec![0.0f32; dim],
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

/// Signature shared by every fast shard kernel; see [`train_shard_fast`].
type ShardKernel = unsafe fn(
    &[[u32; 2]],
    WeightsPtr,
    &AliasTable,
    &SigmoidTable,
    usize,
    f32,
    usize,
    &mut ShardState,
);

/// Trains one shard for one epoch with the fast kernels. `lr_total` is the
/// shard's full schedule length (`shard pairs × epochs`), so the linear
/// decay matches the single-threaded trainer's shape per stream.
///
/// # Safety
/// `w` must point into live matrices with `vocab × dim` elements; rows may
/// be written concurrently by other workers only under the Hogwild contract
/// documented on [`WeightsPtr`].
#[allow(clippy::too_many_arguments)]
unsafe fn train_shard_fast(
    pairs: &[[u32; 2]],
    w: WeightsPtr,
    alias: &AliasTable,
    sig: &SigmoidTable,
    negative_samples: usize,
    lr0: f32,
    lr_total: usize,
    state: &mut ShardState,
) {
    let kernel = shard_kernel_for(w.dim);
    kernel(pairs, w, alias, sig, negative_samples, lr0, lr_total, state)
}

/// Picks the shard kernel once per shard. The common dimensionalities get a
/// const-generic kernel, so the dot-product and update loops fully unroll
/// and vectorise; other dimensions fall back to a runtime-length kernel.
/// Dispatch honours `SUBTAB_FORCE_SCALAR_KERNELS`, which CI uses to
/// exercise the portable path on any machine.
fn shard_kernel_for(dim: usize) -> ShardKernel {
    #[cfg(target_arch = "x86_64")]
    {
        if subtab_kernels::has_avx512f() {
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
/// See [`train_shard_fast`]; additionally `w.dim` must equal `DIM`.
#[inline(always)]
#[allow(clippy::too_many_arguments, clippy::needless_range_loop)]
unsafe fn kernel_body<const DIM: usize, const FUSED: bool>(
    pairs: &[[u32; 2]],
    w: WeightsPtr,
    alias: &AliasTable,
    sig: &SigmoidTable,
    negative_samples: usize,
    lr0: f32,
    lr_total: usize,
    state: &mut ShardState,
) {
    debug_assert_eq!(w.dim, DIM);
    let inv_total = 1.0 / (lr_total as f32 + 1.0);
    let mut center = [0.0f32; DIM];
    for &[center_id, context] in pairs {
        let lr = lr0 * (1.0 - state.processed as f32 * inv_total).max(0.1);
        state.processed += 1;

        let in_row = w.w_in.add(center_id as usize * DIM);
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
            let out = w.w_out.add(target as usize * DIM);
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
/// See [`train_shard_fast`]; additionally `w.dim` must equal `DIM`.
#[allow(clippy::too_many_arguments)]
unsafe fn shard_kernel<const DIM: usize>(
    pairs: &[[u32; 2]],
    w: WeightsPtr,
    alias: &AliasTable,
    sig: &SigmoidTable,
    negative_samples: usize,
    lr0: f32,
    lr_total: usize,
    state: &mut ShardState,
) {
    kernel_body::<DIM, false>(pairs, w, alias, sig, negative_samples, lr0, lr_total, state)
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
#[allow(clippy::too_many_arguments)]
unsafe fn shard_kernel_fma<const DIM: usize>(
    pairs: &[[u32; 2]],
    w: WeightsPtr,
    alias: &AliasTable,
    sig: &SigmoidTable,
    negative_samples: usize,
    lr0: f32,
    lr_total: usize,
    state: &mut ShardState,
) {
    kernel_body::<DIM, true>(pairs, w, alias, sig, negative_samples, lr0, lr_total, state)
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
/// into this `avx512f` function: the row registers then live in zmm
/// registers across the whole pair, where a runtime chunk count kept the
/// step out of line with a spilled, re-zeroed `[__m512; 4]` frame per pair.
/// With the same float operations in the same order, that took
/// `train_pairs` on the 8 000 × 48 wide table from 2.49 s to 1.92 s
/// (`threads = 2`, `deterministic = true`, 2-vCPU AVX-512 host).
///
/// # Safety
/// See [`shard_kernel`]; the caller must have verified AVX-512F support and
/// that `w.dim == 16 * CHUNKS`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
#[allow(clippy::too_many_arguments)]
unsafe fn shard_kernel_avx512<const CHUNKS: usize>(
    pairs: &[[u32; 2]],
    w: WeightsPtr,
    alias: &AliasTable,
    sig: &SigmoidTable,
    negative_samples: usize,
    lr0: f32,
    lr_total: usize,
    state: &mut ShardState,
) {
    debug_assert!((1..=4).contains(&CHUNKS) && w.dim == 16 * CHUNKS);
    let inv_total = 1.0 / (lr_total as f32 + 1.0);
    let base_processed = state.processed;
    let base_ctr = state.ctr;
    state.processed += pairs.len();
    state.ctr = base_ctr.wrapping_add(pairs.len() as u64);

    let half = pairs.len() / 2;
    for i in 0..half {
        for idx in [i, half + i] {
            let lr = lr0 * (1.0 - (base_processed + idx) as f32 * inv_total).max(0.1);
            let ctr = base_ctr.wrapping_add(idx as u64);
            avx512_pair_step::<CHUNKS>(pairs[idx], lr, ctr, w, alias, sig, negative_samples);
        }
    }
    if pairs.len() % 2 == 1 {
        let idx = pairs.len() - 1;
        let lr = lr0 * (1.0 - (base_processed + idx) as f32 * inv_total).max(0.1);
        let ctr = base_ctr.wrapping_add(idx as u64);
        avx512_pair_step::<CHUNKS>(pairs[idx], lr, ctr, w, alias, sig, negative_samples);
    }
}

/// One pair's positive + negative updates in the AVX-512 kernel. All
/// targets are drawn and all dot products computed before any update: the
/// reductions are independent dependency chains the CPU overlaps, instead
/// of one serial draw→dot→sigmoid→update chain per sample. A dot therefore
/// reads each out-row as it was before this pair's updates — staleness
/// Hogwild already embraces, and still deterministic because program order
/// is fixed.
///
/// Deliberately `#[inline(always)]` and without a `target_feature` of its
/// own, so it only ever compiles inlined into [`shard_kernel_avx512`] and
/// inherits its `avx512f` context.
///
/// # Safety
/// See [`shard_kernel_avx512`]; only call it from an `avx512f` function.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
#[allow(clippy::needless_range_loop)]
unsafe fn avx512_pair_step<const CHUNKS: usize>(
    [center_id, context]: [u32; 2],
    lr: f32,
    ctr: u64,
    w: WeightsPtr,
    alias: &AliasTable,
    sig: &SigmoidTable,
    negative_samples: usize,
) {
    use core::arch::x86_64::*;
    let mut center = [_mm512_setzero_ps(); CHUNKS];
    let mut grad = [_mm512_setzero_ps(); CHUNKS];
    let in_row = w.w_in.add(center_id as usize * w.dim);
    for c in 0..CHUNKS {
        center[c] = _mm512_loadu_ps(in_row.add(c * 16));
    }
    let total = 1 + negative_samples;
    if total <= 8 {
        let mut targets = [0u32; 8];
        let mut dots = [0.0f32; 8];
        targets[0] = context;
        for k in 1..total {
            targets[k] = alias.sample_from_u64(splitmix64(
                ctr.wrapping_mul(0x632B_E5AB).wrapping_add(k as u64),
            ));
        }
        for k in 0..total {
            dots[k] = avx512_dot(&center, w.w_out.add(targets[k] as usize * w.dim));
        }
        for k in 0..total {
            let target = targets[k];
            if k > 0 && target == context {
                continue;
            }
            let label = if k == 0 { 1.0f32 } else { 0.0f32 };
            let g = (label - sig.value(dots[k])) * lr;
            avx512_update(&center, &mut grad, w.w_out.add(target as usize * w.dim), g);
        }
    } else {
        for neg in 0..=negative_samples {
            let (target, label) = if neg == 0 {
                (context, 1.0f32)
            } else {
                (
                    alias.sample_from_u64(splitmix64(
                        ctr.wrapping_mul(0x632B_E5AB).wrapping_add(neg as u64),
                    )),
                    0.0f32,
                )
            };
            if label == 0.0 && target == context {
                continue;
            }
            let out = w.w_out.add(target as usize * w.dim);
            let g = (label - sig.value(avx512_dot(&center, out))) * lr;
            avx512_update(&center, &mut grad, out, g);
        }
    }
    for c in 0..CHUNKS {
        let iv = _mm512_loadu_ps(in_row.add(c * 16));
        _mm512_storeu_ps(in_row.add(c * 16), _mm512_add_ps(iv, grad[c]));
    }
}

/// `center · out` over one row: a multiply, `CHUNKS − 1` fused multiply-adds
/// in chunk order, then the horizontal sum.
///
/// # Safety
/// As [`avx512_pair_step`]; `out` must point at a row of `16 * CHUNKS`.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
#[allow(clippy::needless_range_loop)]
unsafe fn avx512_dot<const CHUNKS: usize>(
    center: &[core::arch::x86_64::__m512; CHUNKS],
    out: *const f32,
) -> f32 {
    use core::arch::x86_64::*;
    let mut acc = _mm512_mul_ps(center[0], _mm512_loadu_ps(out));
    for c in 1..CHUNKS {
        acc = _mm512_fmadd_ps(center[c], _mm512_loadu_ps(out.add(c * 16)), acc);
    }
    _mm512_reduce_add_ps(acc)
}

/// One SGD update with gradient scale `g`: accumulates `g · out` into the
/// centre gradient and moves the out-row by `g · center`.
///
/// # Safety
/// As [`avx512_dot`], with `out` writable.
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

/// Runtime-dimension fallback of [`shard_kernel`], using the worker's
/// scratch vectors.
///
/// # Safety
/// See [`train_shard_fast`].
#[allow(clippy::too_many_arguments, clippy::needless_range_loop)]
unsafe fn shard_kernel_dyn(
    pairs: &[[u32; 2]],
    w: WeightsPtr,
    alias: &AliasTable,
    sig: &SigmoidTable,
    negative_samples: usize,
    lr0: f32,
    lr_total: usize,
    state: &mut ShardState,
) {
    let dim = w.dim;
    let inv_total = 1.0 / (lr_total as f32 + 1.0);
    for &[center, context] in pairs {
        let lr = lr0 * (1.0 - state.processed as f32 * inv_total).max(0.1);
        state.processed += 1;

        state.center.copy_from_slice(w.in_row(center));
        state.grad.iter_mut().for_each(|g| *g = 0.0);
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
            let out = w.out_row(target);
            let mut dot = 0.0f32;
            for d in 0..dim {
                dot += state.center[d] * out[d];
            }
            let g = (label - sig.value(dot)) * lr;
            for d in 0..dim {
                state.grad[d] += g * out[d];
                out[d] += g * state.center[d];
            }
        }
        let center_row = w.in_row(center);
        for d in 0..dim {
            center_row[d] += state.grad[d];
        }
    }
}

/// Fast kernels on a single thread: one shard, one RNG stream, exclusive
/// weight access — reproducible run to run, but not bit-compatible with the
/// reference path (table sigmoid, alias draws).
fn train_fast_sequential(
    vocab: &Vocab,
    config: &EmbeddingConfig,
    pairs: &[[u32; 2]],
    w_in: &mut [f32],
    w_out: &mut [f32],
) {
    let dim = config.dim.max(1);
    let epochs = config.epochs.max(1);
    let sig = SigmoidTable::new();
    let alias = vocab.alias_table();
    let mut a_in = AlignedBuf::from_slice(w_in);
    let mut a_out = AlignedBuf::from_slice(w_out);
    let w = WeightsPtr::new(a_in.as_mut_slice(), a_out.as_mut_slice(), dim);
    let mut state = ShardState::new(config.seed, 0, dim);
    for _ in 0..epochs {
        // SAFETY: exclusive access — no other worker exists.
        unsafe {
            train_shard_fast(
                pairs,
                w,
                alias,
                &sig,
                config.negative_samples,
                config.learning_rate,
                pairs.len() * epochs,
                &mut state,
            );
        }
    }
    a_in.copy_back(w_in);
    a_out.copy_back(w_out);
}

/// Hogwild: every worker trains its shard against the shared matrices with
/// no synchronisation at all (scoped threads, racy f32 updates). Fastest
/// mode; repeated runs differ in the low bits whenever shards truly race.
fn train_hogwild(
    vocab: &Vocab,
    config: &EmbeddingConfig,
    pairs: &[[u32; 2]],
    threads: usize,
    w_in: &mut [f32],
    w_out: &mut [f32],
) {
    let dim = config.dim.max(1);
    let epochs = config.epochs.max(1);
    let sig = &SigmoidTable::new();
    let alias = vocab.alias_table();
    let shards = shard_pairs(pairs, threads);
    let mut a_in = AlignedBuf::from_slice(w_in);
    let mut a_out = AlignedBuf::from_slice(w_out);
    let w = WeightsPtr::new(a_in.as_mut_slice(), a_out.as_mut_slice(), dim);
    std::thread::scope(|scope| {
        for (i, shard) in shards.into_iter().enumerate() {
            let mut state = ShardState::new(config.seed, i, dim);
            scope.spawn(move || {
                for _ in 0..epochs {
                    // SAFETY: Hogwild contract on `WeightsPtr`; the scope
                    // keeps the matrices alive until every worker joins.
                    unsafe {
                        train_shard_fast(
                            shard,
                            w,
                            alias,
                            sig,
                            config.negative_samples,
                            config.learning_rate,
                            shard.len() * epochs,
                            &mut state,
                        );
                    }
                }
            });
        }
    });
    a_in.copy_back(w_in);
    a_out.copy_back(w_out);
}

/// Deterministic parallel mode: each worker trains a private replica of the
/// weights on its shard for one epoch; replicas are then averaged into the
/// master in worker order. Every worker's arithmetic depends only on its
/// shard, replica and RNG stream — never on scheduling — so repeated runs
/// are bit-identical even at high thread counts.
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
    let sig = &SigmoidTable::new();
    let alias = vocab.alias_table();
    let shards = shard_pairs(pairs, threads);
    let n = shards.len();

    // Replica contents are overwritten from the master at the top of every
    // epoch, so construction only needs correctly-sized zeroed storage.
    let mut replicas: Vec<(AlignedBuf, AlignedBuf)> = (0..n)
        .map(|_| {
            (
                AlignedBuf::zeroed(w_in.len()),
                AlignedBuf::zeroed(w_out.len()),
            )
        })
        .collect();
    let mut states: Vec<ShardState> = (0..n)
        .map(|i| ShardState::new(config.seed, i, dim))
        .collect();

    for _epoch in 0..epochs {
        for (rin, rout) in replicas.iter_mut() {
            rin.as_mut_slice().copy_from_slice(w_in);
            rout.as_mut_slice().copy_from_slice(w_out);
        }
        std::thread::scope(|scope| {
            for ((shard, (rin, rout)), state) in shards
                .iter()
                .zip(replicas.iter_mut())
                .zip(states.iter_mut())
            {
                let shard: &[[u32; 2]] = shard;
                scope.spawn(move || {
                    let w = WeightsPtr::new(rin.as_mut_slice(), rout.as_mut_slice(), dim);
                    // SAFETY: exclusive access — each worker owns its replica.
                    unsafe {
                        train_shard_fast(
                            shard,
                            w,
                            alias,
                            sig,
                            config.negative_samples,
                            config.learning_rate,
                            shard.len() * epochs,
                            state,
                        );
                    }
                });
            }
        });
        average_into(w_in, replicas.iter().map(|r| r.0.as_slice()));
        average_into(w_out, replicas.iter().map(|r| r.1.as_slice()));
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

    /// `SigmoidTable::index` must turn its scaled argument into the bin an
    /// `f64` floor-and-clamp picks, on every compiled tier: the `as i32`
    /// conversion is checked in plain, `avx2,fma` and `avx512f` code
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
            #[target_feature(enable = "avx512f")]
            unsafe fn index_avx512(x: f32) -> usize {
                SigmoidTable::index(x)
            }
            if subtab_kernels::Isa::Avx2Fma.available() {
                // SAFETY: the CPU supports AVX2 and FMA.
                check("avx2,fma", &|x| unsafe { index_fma(x) });
            }
            if subtab_kernels::Isa::Avx512.available() {
                // SAFETY: the CPU supports AVX-512F.
                check("avx512f", &|x| unsafe { index_avx512(x) });
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

    #[test]
    fn hogwild_mode_trains_finite_vectors() {
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

    #[test]
    fn threads_zero_resolves_to_available_parallelism() {
        let cfg = EmbeddingConfig {
            threads: 0,
            ..Default::default()
        };
        assert!(cfg.effective_threads() >= 1);
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
