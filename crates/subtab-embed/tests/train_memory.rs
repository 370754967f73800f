//! Peak heap of [`train_embedding`]: the trainer regenerates its pairs
//! from the code planes in fixed chunks, so its scratch is bounded by the
//! chunk size times the shard count, plus O(sentences) for the stream's
//! descriptors and prefix sum. It never holds a buffer proportional to the
//! pair count: on the 2 000-row wide table below, that buffer alone would
//! be about 2.8 M pairs × 8 bytes ≈ 22 MiB, far above the ceiling.
//!
//! The counting allocator is this test binary's own `#[global_allocator]`,
//! so it measures nothing else; the binary holds this one test, so no other
//! test allocates while it measures.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use subtab_binning::{Binner, BinningConfig};
use subtab_datasets::{generate, scale_spec, ScaleShape};
use subtab_embed::{build_pair_stream, train_embedding, EmbeddingConfig, StreamOptions};

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

/// Live-heap growth `train_embedding` may reach above what was live before
/// the call: two shards' chunk buffers (512 KiB each), the stream's
/// descriptors and prefix sum, the weights and the per-epoch replicas sit
/// near 1.5 MiB here.
const CEILING_BYTES: usize = 4 << 20;

#[test]
fn train_embedding_holds_no_buffer_proportional_to_the_pairs() {
    let dataset = generate(&scale_spec(ScaleShape::Wide, 2_000), 97);
    let binner = Binner::fit(&dataset.table, &BinningConfig::default()).unwrap();
    let binned = binner.apply(&dataset.table).unwrap();
    let config = EmbeddingConfig {
        epochs: 1,
        threads: 2,
        ..Default::default()
    };
    let pairs = build_pair_stream(
        &binned,
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
    .num_pairs();
    let pair_buffer = pairs * std::mem::size_of::<[u32; 2]>();
    assert!(
        pair_buffer > 4 * CEILING_BYTES,
        "the table must be large enough that a pair buffer would show ({pairs} pairs)"
    );

    let before = LIVE.load(Ordering::Relaxed);
    PEAK.store(before, Ordering::Relaxed);
    let embedding = train_embedding(&binned, &config);
    let peak = PEAK.load(Ordering::Relaxed) - before;
    assert!(!embedding.is_empty());
    assert!(
        peak <= CEILING_BYTES,
        "train_embedding peaked {peak} bytes above its starting heap (ceiling \
         {CEILING_BYTES}; a pair buffer of {pairs} pairs is {pair_buffer} bytes)"
    );
}
