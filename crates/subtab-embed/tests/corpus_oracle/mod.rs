//! The materialized tabular-sentence corpus builder: the oracle the
//! streaming pair builder (`subtab_embed::stream`) is pinned to.
//!
//! The corpus consists of two kinds of sentences over the binned table
//! (Section 5.1):
//!
//! * **tuple-sentences** — one per row, containing the row's cell tokens,
//! * **column-sentences** — one per column, containing the column's cell
//!   tokens over all rows. Because whole-column sentences can be arbitrarily
//!   long (and the skip-gram window the paper uses is the full sentence),
//!   long column sentences are chunked into segments of bounded length; the
//!   co-occurrence statistics within a column are preserved because bin
//!   tokens repeat heavily.
//!
//! The corpus is capped at `max_sentences` sentences chosen uniformly at
//! random (the paper uses 100 000) to bound pre-processing time on large
//! tables.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use subtab_binning::BinnedTable;
use subtab_embed::{Corpus, Vocab};

/// Parameters controlling corpus construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CorpusOptions {
    /// Maximum number of sentences kept (uniform random sample). The paper
    /// uses 100 000.
    pub max_sentences: usize,
    /// Maximum length of a column-sentence chunk.
    pub max_column_sentence_len: usize,
    /// Whether to include column sentences at all (ablated in the benches).
    pub include_column_sentences: bool,
    /// RNG seed for the sentence subsample.
    pub seed: u64,
}

impl Default for CorpusOptions {
    fn default() -> Self {
        CorpusOptions {
            max_sentences: 100_000,
            max_column_sentence_len: 64,
            include_column_sentences: true,
            seed: 42,
        }
    }
}

/// Builds the tabular-sentence corpus from a binned table.
pub fn build_corpus(binned: &BinnedTable, options: &CorpusOptions) -> Corpus {
    let mut vocab = Vocab::default();
    let mut sentences: Vec<Vec<u32>> = Vec::new();

    // A cell's token is fully determined by its (column, bin), so the token
    // string is rendered and interned only on the first sight of each pair;
    // every later cell is a table lookup plus a count bump. Identical vocab
    // ids, order and counts to interning per cell — without the O(cells)
    // string allocations.
    let mut bin_ids: Vec<Vec<Option<u32>>> = (0..binned.num_columns())
        .map(|c| vec![None; binned.num_bins(c)])
        .collect();
    let mut intern = |vocab: &mut Vocab, r: usize, c: usize| -> u32 {
        let bin = binned.bin_id(r, c) as usize;
        match bin_ids[c][bin] {
            Some(id) => {
                vocab.record_occurrence(id);
                id
            }
            None => {
                let id = vocab.add(&binned.cell_token(r, c));
                bin_ids[c][bin] = Some(id);
                id
            }
        }
    };

    // Tuple-sentences: one per row.
    for r in 0..binned.num_rows() {
        let sentence: Vec<u32> = (0..binned.num_columns())
            .map(|c| intern(&mut vocab, r, c))
            .collect();
        if !sentence.is_empty() {
            sentences.push(sentence);
        }
    }

    // Column-sentences: one per column, chunked.
    if options.include_column_sentences {
        let chunk = options.max_column_sentence_len.max(2);
        for c in 0..binned.num_columns() {
            let mut sentence: Vec<u32> = Vec::with_capacity(chunk);
            for r in 0..binned.num_rows() {
                sentence.push(intern(&mut vocab, r, c));
                if sentence.len() >= chunk {
                    sentences.push(std::mem::take(&mut sentence));
                }
            }
            if sentence.len() > 1 {
                sentences.push(sentence);
            }
        }
    }

    // Uniform random cap.
    if sentences.len() > options.max_sentences && options.max_sentences > 0 {
        let mut rng = StdRng::seed_from_u64(options.seed);
        sentences.shuffle(&mut rng);
        sentences.truncate(options.max_sentences);
    }

    vocab.build_sampling_table();
    Corpus { sentences, vocab }
}
