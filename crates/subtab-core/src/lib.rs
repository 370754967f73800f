//! # subtab-core
//!
//! The SubTab algorithm — embedding-based selection of small, informative
//! sub-tables for data exploration (Algorithm 2 of the paper).
//!
//! The algorithm has two phases, mirroring the paper's system architecture
//! (Figure 1):
//!
//! 1. **Pre-processing** ([`PreprocessedTable`]) — run once when a table is
//!    loaded: normalise and bin the columns, build the tabular-sentence
//!    corpus, and train the cell embedding.
//! 2. **Centroid-based selection** ([`SubTab::select`],
//!    [`SubTab::select_for_query`]) — run for every display, including every
//!    selection–projection query the analyst issues: average cell vectors
//!    into row vectors and column vectors, k-means them, and take the rows
//!    and columns nearest to the centroids. Target columns, when given, are
//!    always included and excluded from the column clustering.
//!
//! The result is a [`SubTableResult`]: an actual `k × l` sub-table of the
//! input (rows of the table projected onto a column subset), the selected
//! indices, and — optionally — one highlighted association rule per row for
//! the UI described in the paper.
//!
//! ```
//! use subtab_core::{SubTab, SubTabConfig, SelectionParams};
//! use subtab_data::Table;
//!
//! let table = Table::builder()
//!     .column_f64("distance", (0..200).map(|i| Some(if i % 2 == 0 { 100.0 } else { 2500.0 } + i as f64)).collect())
//!     .column_str("airline", (0..200).map(|i| Some(if i % 2 == 0 { "WN" } else { "DL" })).collect())
//!     .column_i64("cancelled", (0..200).map(|i| Some(i64::from(i % 10 == 0))).collect())
//!     .build()
//!     .unwrap();
//! let subtab = SubTab::preprocess(table, SubTabConfig::fast()).unwrap();
//! let result = subtab
//!     .select(&SelectionParams::new(5, 2).with_targets(&["cancelled"]))
//!     .unwrap();
//! assert_eq!(result.sub_table.num_rows(), 5);
//! assert_eq!(result.sub_table.num_columns(), 2);
//! assert!(result.columns.contains(&"cancelled".to_string()));
//! ```

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod compile;
pub mod config;
pub mod error;
pub mod highlight;
pub mod preprocess;
pub mod result;
pub mod select;
pub mod subtab;

pub use compile::{
    compiled_selection_rows, compiled_selection_rows_cached, leaf_bitmap, query_bitmap,
    query_bitmap_cached, LeafBitmapCache,
};
pub use config::{SelectionParams, SubTabConfig};
pub use error::CoreError;
/// The error type of the query surface, under the paper's name for the
/// system. Alias of [`CoreError`].
pub use error::CoreError as SubTabError;
pub use highlight::{highlight_rules, HighlightIndex, RuleHighlight};
pub use preprocess::PreprocessedTable;
pub use result::SubTableResult;
pub use select::{select_sub_table, select_sub_table_cached};
pub use subtab::SubTab;

/// Result alias for SubTab operations.
pub type Result<T> = std::result::Result<T, CoreError>;
