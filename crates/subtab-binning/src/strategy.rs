//! Configuration types and errors for binning.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Identifier of a bin within one column (dense, starting at 0).
pub type BinId = u16;

/// Human-readable description of one bin of one column.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BinLabel {
    /// Short label, e.g. `"[100.0, 550.0)"`, `"AA"`, `"OTHER"`, `"NaN"`.
    pub label: String,
    /// Whether this is the dedicated missing-value bin.
    pub is_null: bool,
}

impl BinLabel {
    /// Creates a non-null bin label.
    pub fn new(label: impl Into<String>) -> Self {
        BinLabel {
            label: label.into(),
            is_null: false,
        }
    }

    /// The dedicated missing-value bin label.
    pub fn null() -> Self {
        BinLabel {
            label: "NaN".to_string(),
            is_null: true,
        }
    }
}

impl fmt::Display for BinLabel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.label)
    }
}

/// The strategy used to split a numeric column into bins.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum BinningStrategy {
    /// Intervals of equal length between min and max.
    EqualWidth,
    /// Intervals with (approximately) equal numbers of values.
    Quantile,
    /// Cut points at valleys of a Gaussian kernel density estimate —
    /// the strategy used by the paper's reference implementation. The
    /// density grid and the kernel truncation are fixed, not configured
    /// (see [`crate::kde`]).
    Kde,
}

/// Configuration of the binning step.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BinningConfig {
    /// Strategy for numeric columns.
    pub strategy: BinningStrategy,
    /// Target number of bins per numeric column (the paper's default is 5).
    pub num_bins: usize,
    /// Maximum number of categorical groups before low-frequency categories
    /// are merged into an `OTHER` group.
    pub max_categories: usize,
    /// Numeric columns with at most this many distinct values are treated as
    /// categorical (e.g. a 0/1 `CANCELLED` column keeps its two categories).
    pub categorical_int_threshold: usize,
    /// Worker threads for fitting column binners: columns fan out across
    /// scoped threads. `0` uses all available cores; `1` (the default) fits
    /// sequentially. Per-column fits are independent, so the fitted binner
    /// is bit-identical at every thread count.
    pub threads: usize,
}

impl Default for BinningConfig {
    fn default() -> Self {
        BinningConfig {
            strategy: BinningStrategy::Kde,
            num_bins: 5,
            max_categories: 8,
            categorical_int_threshold: 10,
            threads: 1,
        }
    }
}

impl BinningConfig {
    /// Convenience constructor setting only the bin count.
    pub fn with_bins(num_bins: usize) -> Self {
        BinningConfig {
            num_bins,
            ..Default::default()
        }
    }

    /// Sets the numeric strategy.
    pub fn strategy(mut self, strategy: BinningStrategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// Sets the worker-thread count for fitting (`0` = all available cores).
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }
}

/// Errors produced while fitting or applying a binning.
#[derive(Debug, Clone, PartialEq)]
pub enum BinningError {
    /// The configuration was invalid (e.g. zero bins).
    InvalidConfig(String),
    /// The underlying table operation failed.
    Data(subtab_data::DataError),
    /// A column present in the data was not seen at fit time.
    UnknownColumn(String),
}

impl fmt::Display for BinningError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BinningError::InvalidConfig(msg) => write!(f, "invalid binning config: {msg}"),
            BinningError::Data(e) => write!(f, "table error during binning: {e}"),
            BinningError::UnknownColumn(c) => {
                write!(f, "column {c:?} was not part of the fitted binning")
            }
        }
    }
}

impl std::error::Error for BinningError {}

impl From<subtab_data::DataError> for BinningError {
    fn from(e: subtab_data::DataError) -> Self {
        BinningError::Data(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_defaults() {
        let c = BinningConfig::default();
        assert_eq!(c.num_bins, 5);
        assert_eq!(c.strategy, BinningStrategy::Kde);
    }

    #[test]
    fn builders() {
        let c = BinningConfig::with_bins(7).strategy(BinningStrategy::Quantile);
        assert_eq!(c.num_bins, 7);
        assert_eq!(c.strategy, BinningStrategy::Quantile);
        let c = BinningConfig::default().threads(4);
        assert_eq!(c.threads, 4);
    }

    #[test]
    fn defaults_use_the_windowed_evaluator_single_threaded() {
        // The windowed KDE evaluator is the only one, so the default KDE
        // strategy runs it; columns fit one after another.
        let c = BinningConfig::default();
        assert_eq!(c.strategy, BinningStrategy::Kde);
        assert_eq!(c.threads, 1);
    }

    #[test]
    fn labels() {
        let l = BinLabel::new("[0, 10)");
        assert!(!l.is_null);
        assert_eq!(l.to_string(), "[0, 10)");
        let n = BinLabel::null();
        assert!(n.is_null);
        assert_eq!(n.label, "NaN");
    }

    #[test]
    fn error_display() {
        let e = BinningError::InvalidConfig("zero bins".into());
        assert!(e.to_string().contains("zero bins"));
        let e: BinningError = subtab_data::DataError::UnknownColumn("x".into()).into();
        assert!(e.to_string().contains('x'));
    }
}
