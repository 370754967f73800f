//! The tabular-sentence corpus as explicit sentences.
//!
//! The paper's corpus (Section 5.1) has two kinds of sentences over the
//! binned table: one **tuple-sentence** per row and one **column-sentence**
//! per column, long columns chunked. SubTab's own preprocess never
//! materializes it: [`crate::stream`] emits the training pairs straight
//! from the code planes. A [`Corpus`] of explicit sentences is the input of
//! [`crate::sgns::train_on_corpus`], which trainers over other sentence
//! shapes use (the EmbDI graph-walk baseline). The `corpus_equivalence`
//! test suite keeps the materialized row/column corpus builder as the
//! oracle the pair stream is pinned to.

use crate::vocab::Vocab;

/// A tokenised corpus: sentences of vocabulary ids plus the vocabulary.
#[derive(Debug, Clone, Default)]
pub struct Corpus {
    /// Sentences as sequences of token ids.
    pub sentences: Vec<Vec<u32>>,
    /// The vocabulary (with its negative-sampling table already built).
    pub vocab: Vocab,
}
