//! # subtab
//!
//! A Rust implementation of **SubTab** — the framework of *"Selecting
//! Sub-tables for Data Exploration"* (ICDE 2023) — for creating small,
//! informative sub-tables of large data tables.
//!
//! Given a table with `n` rows and `m` columns, SubTab selects `k ≪ n` rows
//! and `l ≪ m` columns such that the resulting sub-table captures prominent
//! association rules of the full table (high *cell coverage*) while showing
//! diverse values (high *diversity*). Because optimising these metrics
//! directly is intractable, the practical algorithm embeds binned cell values
//! with a Word2Vec-style model and selects the rows and columns nearest to
//! k-means centroids of the embedding — fast enough to run on every
//! exploratory query of an EDA session.
//!
//! This facade crate re-exports the workspace's public API:
//!
//! | module | contents |
//! |---|---|
//! | [`data`] | in-memory columnar tables, CSV I/O, selection–projection queries |
//! | [`binning`] | KDE / quantile / equal-width binning, categorical grouping |
//! | [`rules`] | Association-rule mining (vertical bitmap engine) |
//! | [`metrics`] | cell coverage, diversity, combined informativeness score |
//! | [`embed`] | tabular-sentence corpus + skip-gram-negative-sampling embedding |
//! | [`cluster`] | k-means and centroid-representative selection |
//! | [`core`] | the SubTab algorithm (pre-processing + centroid selection) |
//! | [`baselines`] | RAN, NC, Greedy, semi-greedy, MAB-UCB, graph-embedding baselines |
//! | [`datasets`] | synthetic stand-ins for the paper's evaluation datasets + EDA sessions |
//! | [`server`] | concurrent exploration server: thread pool, session cache, admission control |
//!
//! The most common entry points are re-exported at the top level.
//!
//! ## Quickstart
//!
//! ```
//! use subtab::{SubTab, SubTabConfig, SelectionParams};
//! use subtab::datasets::{flights, DatasetSize};
//!
//! // Load (here: generate) a large table and pre-process it once.
//! let dataset = flights(DatasetSize::Tiny, 42);
//! let subtab = SubTab::preprocess(dataset.table, SubTabConfig::fast()).unwrap();
//!
//! // Ask for an informative 10×10 sub-table focused on the CANCELLED column.
//! let params = SelectionParams::new(10, 10).with_targets(&["CANCELLED"]);
//! let view = subtab.select(&params).unwrap();
//! assert_eq!(view.sub_table.num_rows(), 10);
//! assert!(view.columns.contains(&"CANCELLED".to_string()));
//! println!("{}", view.sub_table);
//! ```

#![warn(missing_docs)]
#![warn(clippy::all)]

pub use subtab_baselines as baselines;
pub use subtab_binning as binning;
pub use subtab_cluster as cluster;
pub use subtab_core as core;
pub use subtab_data as data;
pub use subtab_datasets as datasets;
pub use subtab_embed as embed;
pub use subtab_metrics as metrics;
pub use subtab_rules as rules;
pub use subtab_server as server;

pub use subtab_binning::{Binner, BinningConfig, BinningStrategy};
pub use subtab_core::{SelectionParams, SubTab, SubTabConfig, SubTableResult};
pub use subtab_data::{Predicate, Query, QueryExpr, Table, Value};
pub use subtab_metrics::{Evaluator, SubTableScore};
pub use subtab_rules::{MiningConfig, RuleMiner};
pub use subtab_server::{ExplorationServer, Request, Response, ServerConfig, ServerError};
