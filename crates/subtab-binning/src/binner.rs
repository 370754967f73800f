//! Fitting a binning function on a table and applying it to (sub-)tables.

use crate::binned::BinnedTable;
use crate::categorical::group_categories;
use crate::equal_width::equal_width_cuts;
use crate::kde::kde_cuts;
use crate::quantile::quantile_cuts;
use crate::strategy::{BinId, BinLabel, BinningConfig, BinningError, BinningStrategy};
use crate::Result;
use std::collections::HashMap;
use subtab_data::{Column, ColumnType, Table, Value};

/// How the values of one column are mapped to bins.
#[derive(Debug, Clone, PartialEq)]
enum ColumnKind {
    /// Numeric column split at the given (sorted) cut points.
    Numeric { cuts: Vec<f64> },
    /// Categorical column: explicit category → bin mapping, with an optional
    /// `OTHER` bin for unseen/infrequent categories.
    Categorical {
        lookup: HashMap<String, BinId>,
        other: Option<BinId>,
    },
}

/// The fitted binning of a single column (Definition 3.2: a finite set of
/// bins such that every value belongs to exactly one).
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnBinner {
    name: String,
    kind: ColumnKind,
    labels: Vec<BinLabel>,
    null_bin: BinId,
}

impl ColumnBinner {
    /// Column name this binner applies to.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of bins, including the dedicated null bin.
    pub fn num_bins(&self) -> usize {
        self.labels.len()
    }

    /// Labels of the bins, indexed by [`BinId`].
    pub fn labels(&self) -> &[BinLabel] {
        &self.labels
    }

    /// The bin id reserved for missing values.
    pub fn null_bin(&self) -> BinId {
        self.null_bin
    }

    /// Maps a value of this column to its bin.
    ///
    /// Every value maps to exactly one bin: nulls to the null bin, unseen
    /// categories to the `OTHER` bin if present (or the null bin otherwise —
    /// this only happens when applying a binner to data it was not fitted on),
    /// and numeric values to the interval containing them. Non-finite
    /// numerics (`NaN`, `±inf`) carry no interval information and land in
    /// the null bin — `NaN` in particular fails every cut comparison, so it
    /// would otherwise be silently mistaken for the first interval.
    pub fn bin_value(&self, value: &Value) -> BinId {
        if value.is_null() {
            return self.null_bin;
        }
        match &self.kind {
            ColumnKind::Numeric { cuts } => {
                let Some(x) = value.as_f64() else {
                    return self.null_bin;
                };
                if !x.is_finite() {
                    return self.null_bin;
                }
                bin_of_cuts(cuts, x)
            }
            ColumnKind::Categorical { lookup, other } => {
                let key = value.render();
                match lookup.get(&key) {
                    Some(&b) => b,
                    None => other.unwrap_or(self.null_bin),
                }
            }
        }
    }
}

/// A fitted binning function over a whole table.
///
/// Fit once on the raw input table ([`Binner::fit`]); apply to the table
/// itself or to any query result over it ([`Binner::apply`]) — column lookup
/// is by name, so projections and row subsets bin consistently with the
/// original table. This mirrors the paper's pre-processing phase, where the
/// binning computed at load time is reused for every query result.
#[derive(Debug, Clone)]
pub struct Binner {
    columns: Vec<ColumnBinner>,
    index: HashMap<String, usize>,
    config: BinningConfig,
}

impl Binner {
    /// Fits a binning function on `table` using `config`.
    ///
    /// Columns are fitted independently; with `config.threads != 1` they fan
    /// out across scoped worker threads (`0` = all available cores). The
    /// result is bit-identical at every thread count.
    pub fn fit(table: &Table, config: &BinningConfig) -> Result<Self> {
        if config.num_bins < 1 {
            return Err(BinningError::InvalidConfig(
                "num_bins must be at least 1".into(),
            ));
        }
        if config.max_categories < 1 {
            return Err(BinningError::InvalidConfig(
                "max_categories must be at least 1".into(),
            ));
        }
        let cols = table.columns();
        let columns = subtab_kernels::map_indexed(config.threads, cols.len(), |i| {
            fit_column(&cols[i], config)
        });
        let index = columns
            .iter()
            .enumerate()
            .map(|(i, c)| (c.name.clone(), i))
            .collect();
        Ok(Binner {
            columns,
            index,
            config: config.clone(),
        })
    }

    /// The configuration this binner was fitted with.
    pub fn config(&self) -> &BinningConfig {
        &self.config
    }

    /// Per-column binners in the order of the fitted table's schema.
    pub fn columns(&self) -> &[ColumnBinner] {
        &self.columns
    }

    /// The binner for a column, by name.
    pub fn column(&self, name: &str) -> Option<&ColumnBinner> {
        self.index.get(name).map(|&i| &self.columns[i])
    }

    /// Maps a single value of the named column to its bin.
    pub fn bin_value(&self, column: &str, value: &Value) -> Result<BinId> {
        let c = self
            .column(column)
            .ok_or_else(|| BinningError::UnknownColumn(column.to_string()))?;
        Ok(c.bin_value(value))
    }

    /// Applies the fitted binning to a table (the original table, a query
    /// result over it, or a sub-table), producing a [`BinnedTable`].
    ///
    /// Every column of `table` must have been present at fit time. Columns
    /// whose storage matches the fitted kind take a columnar fast path —
    /// numeric binners scan the contiguous value plane and read nullness
    /// off the validity bitmap, categorical binners resolve each *distinct*
    /// dictionary entry once and then map the code plane — and fall back to
    /// per-row [`ColumnBinner::bin_value`] otherwise. Both paths are
    /// bit-identical (asserted by the storage-equivalence suite).
    pub fn apply(&self, table: &Table) -> Result<BinnedTable> {
        let mut names = Vec::with_capacity(table.num_columns());
        let mut labels = Vec::with_capacity(table.num_columns());
        let mut codes: Vec<Vec<BinId>> = Vec::with_capacity(table.num_columns());
        for col in table.columns() {
            let binner = self
                .column(col.name())
                .ok_or_else(|| BinningError::UnknownColumn(col.name().to_string()))?;
            names.push(col.name().to_string());
            labels.push(binner.labels.clone());
            codes.push(apply_column(binner, col));
        }
        Ok(BinnedTable::new(names, labels, codes))
    }
}

/// Bins one column, columnar when the storage allows it. Exactly mirrors
/// [`ColumnBinner::bin_value`] on [`Column::get`] for every row.
fn apply_column(binner: &ColumnBinner, col: &Column) -> Vec<BinId> {
    let n = col.len();
    let null_bin = binner.null_bin;
    match &binner.kind {
        ColumnKind::Numeric { cuts } => {
            if let Some(v) = col.numeric_view() {
                // The view widens exactly like `Value::as_f64`, so the
                // finite/cut logic below is `bin_value` verbatim; null slots
                // hold sentinels and are filed by the validity bit instead.
                return v
                    .values
                    .iter()
                    .enumerate()
                    .map(|(r, &x)| {
                        if !v.validity.get(r) || !x.is_finite() {
                            null_bin
                        } else {
                            bin_of_cuts(cuts, x)
                        }
                    })
                    .collect();
            }
        }
        ColumnKind::Categorical { lookup, other } => {
            let unseen = other.unwrap_or(null_bin);
            if let Some(v) = col.code_view() {
                // One lookup per distinct value, then a pure code-plane map.
                let by_code: Vec<BinId> = v
                    .dict
                    .iter()
                    .map(|s| lookup.get(s).copied().unwrap_or(unseen))
                    .collect();
                return v
                    .codes
                    .iter()
                    .enumerate()
                    .map(|(r, &c)| {
                        if v.validity.get(r) {
                            by_code[c as usize]
                        } else {
                            null_bin
                        }
                    })
                    .collect();
            }
            if let Some(v) = col.int_view() {
                // Categorical ints are low-cardinality by construction
                // (`categorical_int_threshold`), so memoising the rendered
                // lookups makes the scan allocation-free per row.
                let mut memo: HashMap<i64, BinId> = HashMap::new();
                return v
                    .values
                    .iter()
                    .enumerate()
                    .map(|(r, &x)| {
                        if v.validity.get(r) {
                            *memo.entry(x).or_insert_with(|| {
                                lookup.get(&x.to_string()).copied().unwrap_or(unseen)
                            })
                        } else {
                            null_bin
                        }
                    })
                    .collect();
            }
            if let Some(v) = col.bool_view() {
                let of = |b: bool| {
                    lookup
                        .get(if b { "true" } else { "false" })
                        .copied()
                        .unwrap_or(unseen)
                };
                let (bin_false, bin_true) = (of(false), of(true));
                return v
                    .values
                    .iter()
                    .enumerate()
                    .map(|(r, &b)| {
                        if v.validity.get(r) {
                            if b {
                                bin_true
                            } else {
                                bin_false
                            }
                        } else {
                            null_bin
                        }
                    })
                    .collect();
            }
        }
    }
    // Kind/storage mismatch (e.g. a numeric binner applied to a string
    // column): the per-row reference path.
    (0..n).map(|r| binner.bin_value(&col.get(r))).collect()
}

/// The interval index of `x` among sorted `cuts` (the `bin_value` cut scan).
fn bin_of_cuts(cuts: &[f64], x: f64) -> BinId {
    let mut idx = 0usize;
    for &c in cuts {
        if x >= c {
            idx += 1;
        } else {
            break;
        }
    }
    idx as BinId
}

/// Fits one column by its type (the unit of work the parallel fit fans out).
fn fit_column(col: &Column, config: &BinningConfig) -> ColumnBinner {
    match col.column_type() {
        ColumnType::Str | ColumnType::Bool => fit_categorical(col, config),
        // Integer columns with few distinct values (flags, small codes
        // like CANCELLED or MONTH) are treated as categorical; other
        // numeric columns are binned by the configured strategy. The probe
        // must early-exit at the threshold: a full distinct count over a
        // ~all-distinct timestamp column is quadratic in rows and used to
        // dominate the whole fit at the 100k/1M scale tiers.
        ColumnType::Int => {
            if col
                .distinct_at_most(config.categorical_int_threshold)
                .is_some()
            {
                fit_categorical(col, config)
            } else {
                fit_numeric(col, config)
            }
        }
        ColumnType::Float => fit_numeric(col, config),
    }
}

fn fit_categorical(col: &subtab_data::Column, config: &BinningConfig) -> ColumnBinner {
    // Category frequencies, rendered exactly like `Value::render` on the
    // row-wise iterator but computed plane-wise: string columns count codes
    // and render each distinct dictionary entry once, low-cardinality
    // ints/bools render per distinct value. No per-row string allocation.
    let mut counts: HashMap<String, usize> = HashMap::new();
    if let Some(v) = col.code_view() {
        let mut by_code = vec![0usize; v.dict.len()];
        for (r, &c) in v.codes.iter().enumerate() {
            if v.validity.get(r) {
                by_code[c as usize] += 1;
            }
        }
        for (c, &count) in by_code.iter().enumerate() {
            if count > 0 {
                counts.insert(v.dict[c].clone(), count);
            }
        }
    } else if let Some(v) = col.int_view() {
        let mut by_value: HashMap<i64, usize> = HashMap::new();
        for (r, &x) in v.values.iter().enumerate() {
            if v.validity.get(r) {
                *by_value.entry(x).or_insert(0) += 1;
            }
        }
        counts.extend(by_value.into_iter().map(|(x, c)| (x.to_string(), c)));
    } else if let Some(v) = col.bool_view() {
        let mut trues = 0usize;
        let mut falses = 0usize;
        for (r, &b) in v.values.iter().enumerate() {
            if v.validity.get(r) {
                if b {
                    trues += 1;
                } else {
                    falses += 1;
                }
            }
        }
        if trues > 0 {
            counts.insert("true".to_string(), trues);
        }
        if falses > 0 {
            counts.insert("false".to_string(), falses);
        }
    } else {
        for v in col.iter() {
            if !v.is_null() {
                *counts.entry(v.render()).or_insert(0) += 1;
            }
        }
    }
    let grouping = group_categories(&counts, config.max_categories);
    let mut lookup = HashMap::new();
    let mut labels = Vec::new();
    for (i, cat) in grouping.kept.iter().enumerate() {
        lookup.insert(cat.clone(), i as BinId);
        labels.push(BinLabel::new(cat.clone()));
    }
    let other = if grouping.has_other {
        let id = labels.len() as BinId;
        labels.push(BinLabel::new("OTHER"));
        Some(id)
    } else {
        None
    };
    let null_bin = labels.len() as BinId;
    labels.push(BinLabel::null());
    ColumnBinner {
        name: col.name().to_string(),
        kind: ColumnKind::Categorical { lookup, other },
        labels,
        null_bin,
    }
}

fn fit_numeric(col: &subtab_data::Column, config: &BinningConfig) -> ColumnBinner {
    // Non-null values in row order, straight off the contiguous plane; the
    // view widens ints/bools exactly like `Column::get_f64` did.
    let values: Vec<f64> = match col.numeric_view() {
        Some(v) => v
            .values
            .iter()
            .enumerate()
            .filter(|&(r, _)| v.validity.get(r))
            .map(|(_, &x)| x)
            .collect(),
        None => (0..col.len()).filter_map(|r| col.get_f64(r)).collect(),
    };
    let cuts = match config.strategy {
        BinningStrategy::EqualWidth => equal_width_cuts(&values, config.num_bins),
        BinningStrategy::Quantile => quantile_cuts(&values, config.num_bins),
        BinningStrategy::Kde => kde_cuts(&values, config.num_bins),
    };
    let mut labels = Vec::with_capacity(cuts.len() + 2);
    let mut lower = f64::NEG_INFINITY;
    for &c in &cuts {
        labels.push(BinLabel::new(format_range(lower, c)));
        lower = c;
    }
    labels.push(BinLabel::new(format_range(lower, f64::INFINITY)));
    let null_bin = labels.len() as BinId;
    labels.push(BinLabel::null());
    ColumnBinner {
        name: col.name().to_string(),
        kind: ColumnKind::Numeric { cuts },
        labels,
        null_bin,
    }
}

fn format_range(lo: f64, hi: f64) -> String {
    let fmt = |v: f64| {
        if v == f64::NEG_INFINITY {
            "-inf".to_string()
        } else if v == f64::INFINITY {
            "inf".to_string()
        } else {
            format!("{v:.3}")
        }
    };
    format!("[{}, {})", fmt(lo), fmt(hi))
}

#[cfg(test)]
mod tests {
    use super::*;
    use subtab_data::Table;

    fn sample_table() -> Table {
        // Distances form two clusters (short / long); airline has 3 categories;
        // cancelled is a 0/1 integer → categorical.
        Table::builder()
            .column_f64(
                "distance",
                vec![
                    Some(100.0),
                    Some(120.0),
                    Some(110.0),
                    Some(2400.0),
                    Some(2500.0),
                    None,
                ],
            )
            .column_str(
                "airline",
                vec![
                    Some("AA"),
                    Some("AA"),
                    Some("DL"),
                    Some("DL"),
                    Some("UA"),
                    Some("AA"),
                ],
            )
            .column_i64(
                "cancelled",
                vec![Some(0), Some(0), Some(0), Some(0), Some(1), Some(1)],
            )
            .build()
            .unwrap()
    }

    #[test]
    fn fit_assigns_expected_kinds() {
        let t = sample_table();
        let b = Binner::fit(&t, &BinningConfig::default()).unwrap();
        assert_eq!(b.columns().len(), 3);
        // cancelled has 2 distinct values -> categorical with 2 bins + null.
        let cancelled = b.column("cancelled").unwrap();
        assert_eq!(cancelled.num_bins(), 3);
        // airline has 3 categories -> 3 bins + null.
        let airline = b.column("airline").unwrap();
        assert_eq!(airline.num_bins(), 4);
        assert!(b.column("missing").is_none());
    }

    #[test]
    fn numeric_binning_separates_clusters() {
        let t = sample_table();
        // Force numeric treatment by lowering the categorical threshold.
        let cfg = BinningConfig {
            categorical_int_threshold: 1,
            num_bins: 2,
            ..Default::default()
        };
        let b = Binner::fit(&t, &cfg).unwrap();
        let d = b.column("distance").unwrap();
        let short = d.bin_value(&Value::Float(105.0));
        let long = d.bin_value(&Value::Float(2450.0));
        assert_ne!(short, long);
        assert_eq!(d.bin_value(&Value::Null), d.null_bin());
    }

    #[test]
    fn every_value_maps_to_exactly_one_bin() {
        let t = sample_table();
        let b = Binner::fit(&t, &BinningConfig::default()).unwrap();
        for col in t.columns() {
            let cb = b.column(col.name()).unwrap();
            for v in col.iter() {
                let id = cb.bin_value(&v);
                assert!((id as usize) < cb.num_bins());
                if v.is_null() {
                    assert_eq!(id, cb.null_bin());
                } else {
                    assert_ne!(id, cb.null_bin());
                }
            }
        }
    }

    #[test]
    fn apply_matches_fit_and_handles_projections() {
        let t = sample_table();
        let b = Binner::fit(&t, &BinningConfig::default()).unwrap();
        let binned = b.apply(&t).unwrap();
        assert_eq!(binned.num_rows(), 6);
        assert_eq!(binned.num_columns(), 3);

        // Applying to a projection / row subset reuses the same bins.
        let sub = t.sub_table(&[0, 4], &["airline", "cancelled"]).unwrap();
        let binned_sub = b.apply(&sub).unwrap();
        assert_eq!(binned_sub.num_rows(), 2);
        assert_eq!(binned_sub.num_columns(), 2);
        let airline_idx_full = binned.column_index("airline").unwrap();
        let airline_idx_sub = binned_sub.column_index("airline").unwrap();
        assert_eq!(
            binned.bin_id(0, airline_idx_full),
            binned_sub.bin_id(0, airline_idx_sub)
        );
    }

    #[test]
    fn apply_rejects_unknown_columns() {
        let t = sample_table();
        let b = Binner::fit(&t, &BinningConfig::default()).unwrap();
        let other = Table::builder()
            .column_i64("unrelated", vec![Some(1)])
            .build()
            .unwrap();
        assert!(matches!(
            b.apply(&other),
            Err(BinningError::UnknownColumn(_))
        ));
        assert!(b.bin_value("unrelated", &Value::Int(1)).is_err());
    }

    #[test]
    fn unseen_category_goes_to_other_or_null() {
        let t = sample_table();
        let cfg = BinningConfig {
            max_categories: 2, // forces an OTHER bin for the 3 airlines
            ..Default::default()
        };
        let b = Binner::fit(&t, &cfg).unwrap();
        let airline = b.column("airline").unwrap();
        let unseen = airline.bin_value(&Value::from("ZZ"));
        let other_label = &airline.labels()[unseen as usize];
        assert_eq!(other_label.label, "OTHER");

        // Without OTHER (all categories kept), unseen categories fall back to
        // the null bin rather than panicking.
        let b2 = Binner::fit(&t, &BinningConfig::default()).unwrap();
        let airline2 = b2.column("airline").unwrap();
        assert_eq!(airline2.bin_value(&Value::from("ZZ")), airline2.null_bin());
    }

    #[test]
    fn invalid_configs_rejected() {
        let t = sample_table();
        let bad = BinningConfig {
            num_bins: 0,
            ..Default::default()
        };
        assert!(Binner::fit(&t, &bad).is_err());
        let bad = BinningConfig {
            max_categories: 0,
            ..Default::default()
        };
        assert!(Binner::fit(&t, &bad).is_err());
    }

    #[test]
    fn non_finite_numerics_map_to_the_null_bin() {
        let t = sample_table();
        let cfg = BinningConfig {
            categorical_int_threshold: 1,
            num_bins: 2,
            ..Default::default()
        };
        let b = Binner::fit(&t, &cfg).unwrap();
        let d = b.column("distance").unwrap();
        // Regression: NaN fails every `x >= cut` comparison, so the old cut
        // loop filed it under the first interval instead of the null bin.
        assert_eq!(d.bin_value(&Value::Float(f64::NAN)), d.null_bin());
        assert_eq!(d.bin_value(&Value::Float(f64::INFINITY)), d.null_bin());
        assert_eq!(d.bin_value(&Value::Float(f64::NEG_INFINITY)), d.null_bin());
        // Finite values are unaffected.
        assert_ne!(d.bin_value(&Value::Float(105.0)), d.null_bin());
        assert_ne!(d.bin_value(&Value::Float(2450.0)), d.null_bin());
    }

    #[test]
    fn parallel_fit_is_bit_identical_to_sequential() {
        // A wider table than the fixtures: several numeric KDE columns plus
        // categorical ones, so the worker queue actually interleaves.
        let rows = 400usize;
        let mut builder = Table::builder();
        for c in 0..6 {
            builder = builder.column_f64(
                &format!("num{c}"),
                (0..rows)
                    .map(|i| {
                        let base = if i % 2 == 0 {
                            0.0
                        } else {
                            500.0 + c as f64 * 37.0
                        };
                        Some(base + (i % 13) as f64 * 1.7)
                    })
                    .collect(),
            );
        }
        let t = builder
            .column_str(
                "cat",
                (0..rows).map(|i| Some(["a", "b", "c"][i % 3])).collect(),
            )
            .column_i64("code", (0..rows).map(|i| Some((i % 40) as i64)).collect())
            .build()
            .unwrap();
        let sequential = Binner::fit(&t, &BinningConfig::default()).unwrap();
        for threads in [0, 2, 5] {
            let cfg = BinningConfig::default().threads(threads);
            let parallel = Binner::fit(&t, &cfg).unwrap();
            assert_eq!(
                sequential.columns(),
                parallel.columns(),
                "threads = {threads} diverged from the sequential fit"
            );
        }
    }

    #[test]
    fn strategies_produce_requested_bin_counts() {
        let values: Vec<Option<f64>> = (0..500).map(|i| Some((i % 97) as f64 * 3.7)).collect();
        let t = Table::builder().column_f64("x", values).build().unwrap();
        for strategy in [
            BinningStrategy::EqualWidth,
            BinningStrategy::Quantile,
            BinningStrategy::Kde,
        ] {
            for bins in [2, 5, 10] {
                let cfg = BinningConfig {
                    strategy,
                    num_bins: bins,
                    categorical_int_threshold: 1,
                    ..Default::default()
                };
                let b = Binner::fit(&t, &cfg).unwrap();
                let c = b.column("x").unwrap();
                // bins for values + 1 null bin; some strategies may merge.
                assert!(c.num_bins() <= bins + 1);
                assert!(c.num_bins() >= 2);
            }
        }
    }

    #[test]
    fn high_cardinality_int_column_fits_fast_with_bounded_bins() {
        // Regression for the scale tier's timestamp shape: a ~all-distinct
        // epoch-seconds column. The categorical probe must early-exit at
        // the threshold (the old full distinct count was O(rows²) and
        // effectively hung here), and the numeric strategy must keep the
        // token count per column bounded by the configured bin budget.
        let rows = 100_000;
        let values: Vec<Option<i64>> = (0..rows)
            .map(|i| {
                if i % 97 == 0 {
                    None
                } else {
                    Some(1_672_531_200 + (i as i64 * 6_007) % 63_158_400)
                }
            })
            .collect();
        let t = Table::builder()
            .column_i64("started_at", values)
            .build()
            .unwrap();
        let cfg = BinningConfig::default();
        let b = Binner::fit(&t, &cfg).unwrap();
        let c = b.column("started_at").unwrap();
        assert!(
            c.num_bins() <= cfg.num_bins + 1,
            "{} bins exceed the budget of {} value bins + 1 null bin",
            c.num_bins(),
            cfg.num_bins
        );
        assert!(c.num_bins() >= 2, "binning collapsed the column");
    }

    #[test]
    fn numeric_labels_are_ranges() {
        let t = sample_table();
        let cfg = BinningConfig {
            categorical_int_threshold: 1,
            num_bins: 2,
            ..Default::default()
        };
        let b = Binner::fit(&t, &cfg).unwrap();
        let d = b.column("distance").unwrap();
        assert!(d.labels()[0].label.starts_with('['));
        assert!(d.labels().last().unwrap().is_null);
    }
}
