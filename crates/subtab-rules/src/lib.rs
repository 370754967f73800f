//! # subtab-rules
//!
//! Association-rule mining over binned tables (Definition 3.4 of the SubTab
//! paper).
//!
//! The paper measures sub-table quality against a set of *prominent*
//! association rules mined from the binned input table (it uses a Python
//! Apriori package with support 0.1, confidence 0.6 and minimum rule size
//! 3). This crate reimplements that pipeline on **dense integer items**:
//!
//! * [`ItemInterner`] / [`ItemId`] — every (column, bin) pair becomes a
//!   dense, column-major `u32` id derived from the binned table's shape;
//!   display strings live behind an `Arc` for the cold API,
//! * [`bitmap`] — the frequent-itemset engine: per-item row bitmaps,
//!   popcount supports, column-ordered prefix extension, scoped-thread
//!   fan-out (the `bitmap_equivalence` suite pins it to a level-wise
//!   Apriori oracle that lives in the crate's tests),
//! * [`RuleSet`] / [`AssociationRule`] — one arena per rule set (flat id
//!   slices, flat column-mask words, one fixed-size record of supports,
//!   confidence and lift per rule) read through borrowed rule views,
//! * [`RuleMiner`] — the end-to-end miner with the paper's parameters,
//!   including the target-column handling of Section 6.1 (when target
//!   columns are selected, the data is partitioned by the binned target
//!   value and rules are mined per partition, in parallel).
//!
//! ```
//! use subtab_data::Table;
//! use subtab_binning::{Binner, BinningConfig};
//! use subtab_rules::{RuleMiner, MiningConfig};
//!
//! // Cancelled flights have missing departure times: a 2-column pattern.
//! let table = Table::builder()
//!     .column_f64("dep_time", vec![None, None, Some(930.0), Some(1450.0)])
//!     .column_i64("cancelled", vec![Some(1), Some(1), Some(0), Some(0)])
//!     .build()
//!     .unwrap();
//! let binner = Binner::fit(&table, &BinningConfig::default()).unwrap();
//! let binned = binner.apply(&table).unwrap();
//! let config = MiningConfig { min_rule_size: 2, ..MiningConfig::default() };
//! let rules = RuleMiner::new(config).mine(&binned);
//! assert!(!rules.is_empty());
//! ```

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod bitmap;
pub mod interner;
pub mod miner;
pub mod rule;

pub use interner::{ItemId, ItemInterner};
pub use miner::{MiningConfig, RuleMiner};
pub use rule::{AssociationRule, Item, RuleSet};
