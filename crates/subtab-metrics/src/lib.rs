//! # subtab-metrics
//!
//! The informativeness metrics of the SubTab paper (Section 3):
//!
//! * **Cell coverage** ([`coverage`]) — Definition 3.6: the normalised number
//!   of cells of the full table that are describable by association rules
//!   *covered* by the sub-table (a rule is covered when all of its columns are
//!   selected and at least one selected row satisfies it).
//! * **Diversity** ([`mod@diversity`]) — Definition 3.7: one minus the average
//!   pairwise Jaccard-on-bins similarity of the sub-table's rows.
//! * **Combined score** ([`combined`]) — Equation 3:
//!   `α · cellCov + (1 − α) · diversity` with `α = 0.5` by default.
//!
//! The [`Evaluator`] bundles a binned table, a rule set and `α` so that
//! selection algorithms (the SubTab algorithm itself, and the greedy / MAB /
//! random baselines) can score candidate sub-tables cheaply and consistently.
//! Its [`CoverageIndex`] builds the matching rows of every distinct itemset of
//! the rules from item bitmaps into flat arrays and counts a sub-table's
//! covered cells as one OR-ed row bitmap per selected column; scoring reads
//! diversity from the full table's codes. Both metrics ignore out-of-range
//! row and column indices.
//!
//! The unit tests of this crate reproduce the worked example of Figure 3/4 of
//! the paper (the 8-row flights excerpt with its two sub-tables).

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod combined;
pub mod coverage;
pub mod diversity;

pub use combined::{Evaluator, SubTableScore};
pub use coverage::CoverageIndex;
pub use diversity::{diversity, jaccard_similarity, subtable_diversity};
