//! Peak heap of [`train_embedding`]: the trainer regenerates its pairs
//! from the code planes in fixed chunks, so its scratch is bounded by the
//! chunk size times the shard count, plus O(sentences) for the stream's
//! descriptors and prefix sum. It never holds a buffer proportional to the
//! pair count: on the 2 000-row wide table below, that buffer alone would
//! be about 2.8 M pairs × 8 bytes ≈ 22 MiB, far above the ceiling. The
//! count trainer (`threads = 2`) holds its distinct pairs and a
//! `V × (dim + 8)` iteration block on top, never a `V × V` matrix.
//!
//! The counting allocator is this test binary's own `#[global_allocator]`,
//! so it measures nothing else; the binary's tests take one lock while they
//! measure, so no other test allocates meanwhile.

use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::HashSet;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use subtab_binning::{BinnedTable, Binner, BinningConfig};
use subtab_datasets::{generate, scale_spec, ScaleShape};
use subtab_embed::{
    build_pair_stream, train_embedding, CellEmbedding, EmbeddingConfig, PairStream, StreamOptions,
};

/// The system allocator, counting live bytes and their high-water mark.
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

fn shrank(bytes: usize) {
    LIVE.fetch_sub(bytes, Ordering::Relaxed);
}

// SAFETY: every call forwards to `System` with the caller's arguments; the
// counters only observe sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        shrank(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            // Count the new block before releasing the old one: a moving
            // realloc holds both for a moment.
            grew(new_size);
            shrank(layout.size());
        }
        p
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Held by each test for its whole body, so measurements never overlap.
static MEASURING: Mutex<()> = Mutex::new(());

/// Trains `binned` and returns the model with the live-heap growth above
/// what was live before the call.
fn train_measured(binned: &BinnedTable, config: &EmbeddingConfig) -> (CellEmbedding, usize) {
    let before = LIVE.load(Ordering::Relaxed);
    PEAK.store(before, Ordering::Relaxed);
    let embedding = train_embedding(binned, config);
    (embedding, PEAK.load(Ordering::Relaxed) - before)
}

fn stream<'a>(binned: &'a BinnedTable, config: &EmbeddingConfig) -> PairStream<'a> {
    build_pair_stream(
        binned,
        &StreamOptions {
            max_sentences: config.max_sentences,
            max_column_sentence_len: config.max_column_sentence_len,
            include_column_sentences: config.include_column_sentences,
            seed: config.seed,
            window: config.window,
            min_count: config.min_count,
            subsample_t: config.subsample_t,
        },
    )
}

/// Live-heap growth `train_embedding` may reach above what was live before
/// the call: two shards' chunk buffers (512 KiB each), the stream's
/// descriptors and prefix sum, the count tables of the distinct pairs and
/// the eigensolver's blocks.
const CEILING_BYTES: usize = 4 << 20;

#[test]
fn train_embedding_holds_no_buffer_proportional_to_the_pairs() {
    let _lock = MEASURING.lock().unwrap_or_else(|e| e.into_inner());
    let dataset = generate(&scale_spec(ScaleShape::Wide, 2_000), 97);
    let binner = Binner::fit(&dataset.table, &BinningConfig::default()).unwrap();
    let binned = binner.apply(&dataset.table).unwrap();
    let config = EmbeddingConfig {
        epochs: 1,
        threads: 2,
        ..Default::default()
    };
    let pairs = stream(&binned, &config).num_pairs();
    let pair_buffer = pairs * std::mem::size_of::<[u32; 2]>();
    assert!(
        pair_buffer > 4 * CEILING_BYTES,
        "the table must be large enough that a pair buffer would show ({pairs} pairs)"
    );

    let (embedding, peak) = train_measured(&binned, &config);
    assert!(!embedding.is_empty());
    assert!(
        peak <= CEILING_BYTES,
        "train_embedding peaked {peak} bytes above its starting heap (ceiling \
         {CEILING_BYTES}; a pair buffer of {pairs} pairs is {pair_buffer} bytes)"
    );
}

/// With thousands of tokens, the count trainer's heap must follow its
/// distinct pairs and its `V × (dim + 8)` eigensolver block, far below the
/// `V × V` matrix a dense count or PMI matrix would take. Per distinct
/// (center, context) pair it may spend 128 bytes (two shards' tables at
/// load ≥ 1/4, then both orientations of their entries), per token and
/// block column 48 bytes (two `f64` blocks, the `f64` and `f32` results),
/// plus 2 MiB for the chunk buffers and the stream.
#[test]
fn count_trainer_heap_follows_the_distinct_pairs_not_the_vocabulary_squared() {
    let _lock = MEASURING.lock().unwrap_or_else(|e| e.into_inner());
    let dataset = generate(&scale_spec(ScaleShape::HighCardinality, 2_000), 97);
    let binning = BinningConfig {
        max_categories: 10_000,
        ..BinningConfig::default()
    };
    let binner = Binner::fit(&dataset.table, &binning).unwrap();
    let binned = binner.apply(&dataset.table).unwrap();
    let config = EmbeddingConfig {
        threads: 2,
        ..Default::default()
    };
    let (vocab, distinct) = {
        let stream = stream(&binned, &config);
        let mut pairs = Vec::new();
        stream.fill(0..stream.num_pairs(), &mut pairs);
        let distinct: HashSet<[u32; 2]> = pairs.into_iter().collect();
        (stream.vocab.len(), distinct.len())
    };
    assert!(
        vocab >= 2_000,
        "the vocabulary must reach the thousands ({vocab} tokens)"
    );
    let square = vocab * vocab * std::mem::size_of::<f64>();
    let bound = 128 * distinct + 48 * vocab * (config.dim + 8) + (2 << 20);
    assert!(
        4 * bound < square,
        "the case must tell O(distinct pairs) from O(V²): bound {bound}, V² {square}"
    );

    let (embedding, peak) = train_measured(&binned, &config);
    assert_eq!(embedding.len(), vocab);
    assert!(
        peak <= bound,
        "count trainer peaked {peak} bytes above its starting heap: over {bound} for \
         {distinct} distinct pairs and {vocab} tokens (a V × V f64 matrix is {square})"
    );
}
