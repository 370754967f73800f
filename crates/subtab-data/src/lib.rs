//! # subtab-data
//!
//! A small, self-contained in-memory columnar table substrate used by the
//! SubTab framework ("Selecting Sub-tables for Data Exploration", ICDE 2023).
//!
//! The paper's reference implementation hooks into Pandas; this crate provides
//! the equivalent functionality needed by the algorithm and by the evaluation
//! harness:
//!
//! * typed, null-aware columnar storage ([`Table`], [`Column`], [`Value`]),
//! * schema handling ([`Schema`], [`Field`], [`ColumnType`]),
//! * selection–projection (SP) queries with sorting and grouping
//!   ([`Query`], [`Predicate`]) — the exploratory-query vocabulary the paper's
//!   EDA-session study replays,
//! * CSV import/export with type inference ([`csv`]).
//!
//! The crate is dependency-light (only `serde` for configuration/value
//! serialisation) and deterministic, which keeps the rest of the workspace
//! reproducible.
//!
//! ## Quick example
//!
//! ```
//! use subtab_data::{Table, Value, Query, Predicate};
//!
//! let mut table = Table::builder()
//!     .column_f64("distance", vec![Some(100.0), Some(2500.0), None])
//!     .column_str("airline", vec![Some("AA"), Some("DL"), Some("AA")])
//!     .column_i64("cancelled", vec![Some(0), Some(0), Some(1)])
//!     .build()
//!     .unwrap();
//! assert_eq!(table.num_rows(), 3);
//!
//! let q = Query::new().filter(Predicate::eq("airline", Value::from("AA")));
//! let result = q.execute(&table).unwrap();
//! assert_eq!(result.num_rows(), 2);
//! table.push_row(vec![Value::from(410.0), Value::from("UA"), Value::from(0i64)]).unwrap();
//! assert_eq!(table.num_rows(), 4);
//! ```

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod bitmap;
pub mod column;
pub mod csv;
pub mod error;
pub mod expr;
mod parser;
pub mod query;
pub mod schema;
pub mod table;
pub mod value;

pub use bitmap::Bitmap;
pub use column::{BoolView, CodeView, Column, FloatView, IntView, NumericView};
pub use error::DataError;
pub use expr::QueryExpr;
pub use parser::MAX_NESTING_DEPTH;
pub use query::{AggFunc, CompareOp, GroupBy, Predicate, Query, SortOrder, SortSpec};
pub use schema::{ColumnType, Field, Schema};
pub use table::{Table, TableBuilder};
pub use value::Value;

/// Convenient result alias used across the crate.
pub type Result<T> = std::result::Result<T, DataError>;
