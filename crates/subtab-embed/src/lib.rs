//! # subtab-embed
//!
//! Table embedding for the SubTab framework (Section 5.1, "Pre-Processing").
//!
//! The paper turns the binned table into a corpus of *tabular sentences* —
//! one sentence per row (its cell values) and one per column (the values of
//! that column) — and trains a Word2Vec model over the corpus. The learned
//! cell vectors capture co-occurrence of bin values within rows and columns,
//! which is the same signal frequent itemsets and association rules are built
//! from; this is why centroid selection over these vectors yields sub-tables
//! with good cell coverage without ever mining rules.
//!
//! This crate reimplements that pipeline from scratch:
//!
//! * [`stream`] — the preprocess path: the `(center, context)` pair stream
//!   regenerated on demand from the columnar code planes (no materialized
//!   sentence corpus or pair list, the paper's cap of 100 000 uniformly
//!   sampled sentences reproduced on sentence descriptors), with optional
//!   frequency pruning (`min_count`) and Word2Vec subsampling
//!   (`subsample_t`); the `corpus_equivalence` suite pins it to a
//!   materialized-corpus oracle,
//! * [`corpus`] — an explicit sentence [`Corpus`], the input of
//!   [`sgns::train_on_corpus`] for other sentence shapes (the EmbDI
//!   baseline's graph walks),
//! * [`vocab`] — the token vocabulary with a unigram^0.75 negative-sampling
//!   table,
//! * [`sgns`] — the trainers: the skip-gram-with-negative-sampling
//!   reference (the Word2Vec variant of Mikolov et al. used by gensim),
//!   bit-exact with the original single-threaded trainer and the default,
//!   and a count trainer for `threads != 1` or `deterministic = false` that
//!   counts the pair stream once and factorises the shifted positive PMI
//!   matrix SGNS approximates (Levy & Goldberg, NeurIPS 2014) with a
//!   symmetric eigensolve, the same bits at every thread count and on
//!   every ISA,
//! * [`model`] — the resulting [`CellEmbedding`]: one flat row-major f32
//!   vector matrix over the (column, bin) tokens, plus the [`TokenPlane`] of
//!   precomputed per-cell
//!   embedding-row ids that makes query-time row/column gathers string-free
//!   (the string index is kept only for the cold API).
//!
//! Everything is deterministic given the seed in [`EmbeddingConfig`], at
//! every thread count; see the mode table in [`sgns`].

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod corpus;
mod eigen;
pub mod model;
mod ppmi;
pub mod sgns;
pub mod stream;
pub mod vocab;

pub use corpus::Corpus;
pub use model::{CellEmbedding, TokenPlane, NO_TOKEN};
pub use sgns::{train_embedding, EmbeddingConfig};
pub use stream::{build_pair_stream, PairStream, StreamOptions};
pub use vocab::Vocab;
