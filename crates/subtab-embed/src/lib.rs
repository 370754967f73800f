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
//! * [`stream`] — the default preprocess path: the `(center, context)` pair
//!   stream built directly from the columnar code planes (no materialized
//!   sentence corpus), with optional frequency pruning (`min_count`) and
//!   Word2Vec subsampling (`subsample_t`),
//! * [`corpus`] — the materialized sentence corpus, preserved as the pinned
//!   reference twin of the streaming builder (the paper caps it at 100 000
//!   sentences sampled uniformly at random),
//! * [`vocab`] — the token vocabulary with a unigram^0.75 negative-sampling
//!   table,
//! * [`sgns`] — a sharded skip-gram-with-negative-sampling trainer (the
//!   fast Word2Vec variant of Mikolov et al. used by gensim) with a
//!   bit-exact single-threaded reference path and fast kernels that scale
//!   across cores by averaging per-worker weight replicas after every
//!   epoch,
//! * [`model`] — the resulting [`CellEmbedding`]: one flat row-major vector
//!   matrix over the (column, bin) tokens — storable as f32, f16 or scaled
//!   i8 ([`Quantization`]) — plus the [`TokenPlane`] of precomputed per-cell
//!   embedding-row ids that makes query-time row/column gathers string-free
//!   (the string index is kept only for the cold API).
//!
//! Everything is deterministic given the seed in [`EmbeddingConfig`], at
//! every thread count; see the mode table in [`sgns`].

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod corpus;
pub mod model;
pub mod sgns;
pub mod stream;
pub mod vocab;

pub use corpus::{build_corpus, Corpus};
pub use model::{CellEmbedding, Quantization, TokenPlane, NO_TOKEN};
pub use sgns::{train_embedding, train_embedding_materialized, EmbeddingConfig};
pub use stream::{build_pair_stream, PairStream, StreamOptions};
pub use vocab::{AliasTable, Vocab};
