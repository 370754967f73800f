//! Selection–projection (SP) queries with sorting and grouping.
//!
//! These are the exploratory operations the paper assumes an analyst issues
//! during an EDA session: *select* rows by simple predicates, *project*
//! columns, *sort*, and *group-by* with simple aggregates. A [`Query`] bundles
//! them and executes against a [`Table`], producing a new [`Table`].

use crate::column::Column;
use crate::error::DataError;
use crate::expr::QueryExpr;
use crate::table::Table;
use crate::value::Value;
use crate::Result;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Comparison operator of a predicate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CompareOp {
    /// Equal.
    Eq,
    /// Not equal.
    Ne,
    /// Less than.
    Lt,
    /// Less than or equal.
    Le,
    /// Greater than.
    Gt,
    /// Greater than or equal.
    Ge,
}

/// A single row-selection predicate over one column.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Predicate {
    /// Compare the column value with a constant.
    Compare {
        /// Column the predicate applies to.
        column: String,
        /// Comparison operator.
        op: CompareOp,
        /// Constant to compare against.
        value: Value,
    },
    /// The column value is null.
    IsNull {
        /// Column the predicate applies to.
        column: String,
    },
    /// The column value is not null.
    NotNull {
        /// Column the predicate applies to.
        column: String,
    },
    /// The column value is one of the given constants.
    InSet {
        /// Column the predicate applies to.
        column: String,
        /// Allowed values.
        values: Vec<Value>,
    },
    /// The column value lies in `[low, high)` (numeric only).
    Between {
        /// Column the predicate applies to.
        column: String,
        /// Inclusive lower bound.
        low: f64,
        /// Exclusive upper bound.
        high: f64,
    },
}

impl Predicate {
    /// Equality predicate.
    pub fn eq(column: &str, value: Value) -> Self {
        Predicate::Compare {
            column: column.to_string(),
            op: CompareOp::Eq,
            value,
        }
    }

    /// Inequality predicate.
    pub fn ne(column: &str, value: Value) -> Self {
        Predicate::Compare {
            column: column.to_string(),
            op: CompareOp::Ne,
            value,
        }
    }

    /// Strictly-less-than predicate.
    pub fn lt(column: &str, value: Value) -> Self {
        Predicate::Compare {
            column: column.to_string(),
            op: CompareOp::Lt,
            value,
        }
    }

    /// Strictly-greater-than predicate.
    pub fn gt(column: &str, value: Value) -> Self {
        Predicate::Compare {
            column: column.to_string(),
            op: CompareOp::Gt,
            value,
        }
    }

    /// Half-open numeric range predicate.
    pub fn between(column: &str, low: f64, high: f64) -> Self {
        Predicate::Between {
            column: column.to_string(),
            low,
            high,
        }
    }

    /// Null-test predicate.
    pub fn is_null(column: &str) -> Self {
        Predicate::IsNull {
            column: column.to_string(),
        }
    }

    /// Not-null predicate.
    pub fn not_null(column: &str) -> Self {
        Predicate::NotNull {
            column: column.to_string(),
        }
    }

    /// Membership predicate.
    pub fn in_set(column: &str, values: Vec<Value>) -> Self {
        Predicate::InSet {
            column: column.to_string(),
            values,
        }
    }

    /// Name of the column this predicate touches.
    pub fn column(&self) -> &str {
        match self {
            Predicate::Compare { column, .. }
            | Predicate::IsNull { column }
            | Predicate::NotNull { column }
            | Predicate::InSet { column, .. }
            | Predicate::Between { column, .. } => column,
        }
    }

    /// The constant values referenced by the predicate (used by the
    /// EDA-session study to check whether a query fragment appears in a
    /// previously shown sub-table).
    pub fn referenced_values(&self) -> Vec<Value> {
        match self {
            Predicate::Compare { value, .. } => vec![value.clone()],
            Predicate::InSet { values, .. } => values.clone(),
            Predicate::Between { low, high, .. } => {
                vec![Value::Float(*low), Value::Float(*high)]
            }
            _ => Vec::new(),
        }
    }

    /// The canonical spelling of the predicate: constant values are
    /// normalised (numeric types collapse onto `Float` where exactly
    /// representable, `-0.0` becomes `0.0`, NaNs share one bit pattern) and
    /// `InSet` value lists are sorted and deduplicated. The canonical
    /// predicate matches exactly the rows the original does — predicate
    /// evaluation compares numerics by value ([`Value::loose_eq`]) — so two
    /// predicates with equal [`Predicate::encode_canonical`] strings are
    /// interchangeable.
    pub fn canonical(&self) -> Predicate {
        match self {
            Predicate::Compare { column, op, value } => Predicate::Compare {
                column: column.clone(),
                op: *op,
                value: canonical_value(value),
            },
            Predicate::InSet { column, values } => {
                let mut values: Vec<Value> = values.iter().map(canonical_value).collect();
                values.sort_by(|a, b| a.total_cmp(b));
                values.dedup_by(|a, b| a.loose_eq(b));
                Predicate::InSet {
                    column: column.clone(),
                    values,
                }
            }
            Predicate::Between { column, low, high } => Predicate::Between {
                column: column.clone(),
                low: canonical_f64(*low),
                high: canonical_f64(*high),
            },
            Predicate::IsNull { .. } | Predicate::NotNull { .. } => self.clone(),
        }
    }

    /// An unambiguous, type-tagged textual encoding of the canonical form of
    /// this predicate. Two predicates encode identically iff they select the
    /// same rows by construction (same column, operator and normalised
    /// constants); the encoding is what [`Query::selection_key`] sorts,
    /// deduplicates and hashes predicates by.
    pub fn encode_canonical(&self) -> String {
        let mut out = String::new();
        let canonical = self.canonical();
        encode_str(canonical.column(), &mut out);
        match &canonical {
            Predicate::Compare { op, value, .. } => {
                out.push_str(match op {
                    CompareOp::Eq => "=",
                    CompareOp::Ne => "!=",
                    CompareOp::Lt => "<",
                    CompareOp::Le => "<=",
                    CompareOp::Gt => ">",
                    CompareOp::Ge => ">=",
                });
                encode_value(value, &mut out);
            }
            Predicate::IsNull { .. } => out.push_str("is-null"),
            Predicate::NotNull { .. } => out.push_str("not-null"),
            Predicate::InSet { values, .. } => {
                out.push_str("in");
                for v in values {
                    encode_value(v, &mut out);
                }
            }
            Predicate::Between { low, high, .. } => {
                out.push_str("between");
                encode_value(&Value::Float(*low), &mut out);
                encode_value(&Value::Float(*high), &mut out);
            }
        }
        out
    }

    /// Evaluates the predicate for row `row` of `table`.
    pub fn matches(&self, table: &Table, row: usize) -> Result<bool> {
        let col = table
            .column(self.column())
            .ok_or_else(|| DataError::UnknownColumn(self.column().to_string()))?;
        let v = col.try_get(row)?;
        Ok(self.matches_value(&v))
    }

    /// Evaluates the predicate against an already-fetched cell value. This
    /// is the column-resolution-free kernel of [`Predicate::matches`]: the
    /// compiled bitmap path in `subtab-core` resolves the column once per
    /// leaf and streams the column's values through this.
    pub fn matches_value(&self, v: &Value) -> bool {
        match self {
            Predicate::IsNull { .. } => v.is_null(),
            Predicate::NotNull { .. } => !v.is_null(),
            Predicate::InSet { values, .. } => !v.is_null() && values.iter().any(|x| x.loose_eq(v)),
            Predicate::Between { low, high, .. } => match v.as_f64() {
                Some(x) => x >= *low && x < *high,
                None => false,
            },
            Predicate::Compare { op, value, .. } => {
                if v.is_null() || value.is_null() {
                    // Three-valued-logic style: comparisons with null never match,
                    // except Ne against a non-null constant which also does not
                    // match (consistent with SQL semantics).
                    false
                } else {
                    let ord = v.total_cmp(value);
                    match op {
                        CompareOp::Eq => v.loose_eq(value),
                        CompareOp::Ne => !v.loose_eq(value),
                        CompareOp::Lt => ord == std::cmp::Ordering::Less,
                        CompareOp::Le => ord != std::cmp::Ordering::Greater,
                        CompareOp::Gt => ord == std::cmp::Ordering::Greater,
                        CompareOp::Ge => ord != std::cmp::Ordering::Less,
                    }
                }
            }
        }
    }
}

/// Sort direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SortOrder {
    /// Ascending (nulls last).
    Ascending,
    /// Descending (nulls last).
    Descending,
}

/// A sort key: column plus direction.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SortSpec {
    /// Column to sort by.
    pub column: String,
    /// Direction.
    pub order: SortOrder,
}

/// Aggregate functions supported by group-by.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum AggFunc {
    /// Number of rows in the group.
    Count,
    /// Sum of a numeric column.
    Sum,
    /// Mean of a numeric column.
    Mean,
    /// Minimum of a numeric column.
    Min,
    /// Maximum of a numeric column.
    Max,
}

/// A group-by clause: grouping keys plus one aggregate.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GroupBy {
    /// Columns to group on.
    pub keys: Vec<String>,
    /// Aggregate function.
    pub agg: AggFunc,
    /// Column the aggregate is computed over (ignored for `Count`).
    pub agg_column: Option<String>,
}

/// A selection–projection query with optional sorting, grouping and limit.
///
/// Row selection is a [`QueryExpr`] tree (`AND`/`OR`/`NOT` over
/// single-column predicates); the historical flat conjunction is the
/// special case `And([p1, p2, ...])`, which the [`Query::filter`] builder
/// still produces. Queries can also be written in a SQL-ish text form —
/// see [`Query::parse`].
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Query {
    /// Boolean row-selection expression (default `And([])` = match all).
    pub expr: QueryExpr,
    /// Columns to project onto (`None` = all columns).
    pub projection: Option<Vec<String>>,
    /// Sort keys applied after selection.
    pub sort: Vec<SortSpec>,
    /// Optional group-by (applied after selection, before projection).
    pub group_by: Option<GroupBy>,
    /// Optional row limit applied last.
    pub limit: Option<usize>,
}

impl Query {
    /// Creates an empty query (matches all rows, keeps all columns).
    pub fn new() -> Self {
        Query::default()
    }

    /// Creates a query selecting rows by the given expression tree.
    pub fn expr(expr: QueryExpr) -> Self {
        Query {
            expr,
            ..Query::default()
        }
    }

    /// ANDs another expression onto the selection (the n-ary builder form:
    /// an existing top-level `And` gains a child, anything else is wrapped).
    pub fn and_expr(mut self, e: QueryExpr) -> Self {
        self.expr = match self.expr {
            QueryExpr::And(mut children) => {
                children.push(e);
                QueryExpr::And(children)
            }
            other => QueryExpr::And(vec![other, e]),
        };
        self
    }

    /// Adds a predicate, ANDed with the existing selection.
    ///
    /// Deprecated-but-working shim from the flat-conjunction era: each
    /// `filter(p)` maps onto `and_expr(QueryExpr::leaf(p))`, so
    /// `Query::new().filter(a).filter(b)` builds the tree
    /// `And([Leaf(a), Leaf(b)])` — exactly the queries the old
    /// `Vec<Predicate>` API could express. New code should build the tree
    /// directly via [`Query::expr`] / [`Query::and_expr`].
    pub fn filter(self, p: Predicate) -> Self {
        self.and_expr(QueryExpr::leaf(p))
    }

    /// Whether the query has any row-selection expression (i.e. is not the
    /// raw match-all `TRUE`).
    pub fn is_filtered(&self) -> bool {
        !self.expr.is_match_all()
    }

    /// The leaf predicates of the selection expression, in tree order —
    /// the tree-era replacement for iterating the old flat predicate list
    /// (used by the EDA-session fragment study).
    pub fn leaf_predicates(&self) -> Vec<&Predicate> {
        self.expr.leaves()
    }

    /// Sets the projection columns.
    pub fn select(mut self, columns: &[&str]) -> Self {
        self.projection = Some(columns.iter().map(|s| s.to_string()).collect());
        self
    }

    /// Adds a sort key.
    pub fn sort_by(mut self, column: &str, order: SortOrder) -> Self {
        self.sort.push(SortSpec {
            column: column.to_string(),
            order,
        });
        self
    }

    /// Sets a group-by clause.
    pub fn group(mut self, keys: &[&str], agg: AggFunc, agg_column: Option<&str>) -> Self {
        self.group_by = Some(GroupBy {
            keys: keys.iter().map(|s| s.to_string()).collect(),
            agg,
            agg_column: agg_column.map(|s| s.to_string()),
        });
        self
    }

    /// Sets a row limit.
    pub fn limit(mut self, n: usize) -> Self {
        self.limit = Some(n);
        self
    }

    /// Indices of the base-table rows that satisfy the selection
    /// expression, ascending.
    pub fn matching_rows(&self, table: &Table) -> Result<Vec<usize>> {
        let mut out = Vec::new();
        for r in 0..table.num_rows() {
            if self.expr.matches(table, r)? {
                out.push(r);
            }
        }
        Ok(out)
    }

    /// Indices of the base-table rows a *sub-table selection* over this
    /// query's result may draw from, in ascending row order: the rows
    /// matching all predicates, truncated to [`Query::limit`] after applying
    /// the sort keys (a `LIMIT` keeps the first `n` rows of the *sorted*
    /// result, so which rows survive depends on the sort). `limit: Some(0)`
    /// therefore yields an empty set. Group-by is intentionally ignored —
    /// an aggregated result has no base-table rows to select from, so
    /// selection falls back to the rows feeding the aggregation.
    pub fn selection_rows(&self, table: &Table) -> Result<Vec<usize>> {
        let rows = self.matching_rows(table)?;
        self.restrict_selection_rows(table, rows)
    }

    /// The sort-aware limit tail of [`Query::selection_rows`], applied to
    /// an externally computed ascending matching-row set. This is the seam
    /// the compiled bitmap engine in `subtab-core` plugs into: it produces
    /// the matching rows from per-leaf `Bitmap`s and hands them here so
    /// limit/sort semantics stay in one place.
    pub fn restrict_selection_rows(
        &self,
        table: &Table,
        mut rows: Vec<usize>,
    ) -> Result<Vec<usize>> {
        if let Some(n) = self.limit {
            if n < rows.len() {
                if !self.sort.is_empty() {
                    validate_sort_columns(table, &self.sort)?;
                    sort_row_indices(table, &self.sort, &mut rows);
                }
                rows.truncate(n);
                // Selection treats the result as a row *set*; ascending order
                // keeps the downstream vector gathers deterministic.
                rows.sort_unstable();
            }
        }
        Ok(rows)
    }

    /// The canonical form of the query under *selection semantics*: the
    /// expression tree is canonicalised ([`QueryExpr::canonical`] — NOT
    /// pushed down, commutative children sorted and deduplicated, leaf
    /// constants normalised) and the projection is sorted and deduplicated.
    /// The canonical query selects exactly the same sub-table as the
    /// original (the selection re-orders columns into schema order), but
    /// its projection *display* order is not preserved — use it for cache
    /// keys and equivalence checks, not for rendering query results.
    pub fn canonical(&self) -> Query {
        let projection = self.projection.as_ref().map(|proj| {
            let mut proj = proj.clone();
            proj.sort_unstable();
            proj.dedup();
            proj
        });
        Query {
            expr: self.expr.canonical(),
            projection,
            sort: self.sort.clone(),
            group_by: self.group_by.clone(),
            limit: self.limit,
        }
    }

    /// An unambiguous textual key identifying this query's *selection
    /// equivalence class*: two queries get the same key iff they restrict a
    /// sub-table selection to the same candidate rows and columns. Built
    /// from the canonical expression encoding
    /// ([`QueryExpr::encode_canonical`] — commuted spellings, double
    /// negations and `IN`-vs-`OR`-of-`=` variants all share one key) and
    /// the canonical projection; the sort keys participate only when a
    /// limit makes them selection-relevant (without a limit, sorting never
    /// changes *which* rows are selected from), and group-by is excluded
    /// because selection ignores it (see [`Query::selection_rows`]). This
    /// is the string exploration-session caches key sub-table results by.
    pub fn selection_key(&self) -> String {
        let mut out = String::new();
        out.push_str("where");
        out.push(FIELD_SEP);
        out.push_str(&self.expr.encode_canonical());
        out.push(FIELD_SEP);
        out.push_str("select");
        match &self.projection {
            None => {
                out.push(FIELD_SEP);
                out.push('*');
            }
            Some(proj) => {
                let mut proj = proj.clone();
                proj.sort_unstable();
                proj.dedup();
                for c in &proj {
                    out.push(FIELD_SEP);
                    encode_str(c, &mut out);
                }
            }
        }
        if let Some(n) = self.limit {
            out.push(FIELD_SEP);
            out.push_str("limit");
            out.push_str(&n.to_string());
            for s in &self.sort {
                out.push(FIELD_SEP);
                out.push_str(match s.order {
                    SortOrder::Ascending => "asc",
                    SortOrder::Descending => "desc",
                });
                encode_str(&s.column, &mut out);
            }
        }
        out
    }

    /// All column names mentioned anywhere in the query (predicates,
    /// projection, sort, group-by). Used by the EDA simulation study.
    pub fn referenced_columns(&self) -> Vec<String> {
        let mut cols: Vec<String> = Vec::new();
        let mut push = |c: &str| {
            if !cols.iter().any(|x| x == c) {
                cols.push(c.to_string());
            }
        };
        for p in self.expr.leaves() {
            push(p.column());
        }
        if let Some(proj) = &self.projection {
            for c in proj {
                push(c);
            }
        }
        for s in &self.sort {
            push(&s.column);
        }
        if let Some(g) = &self.group_by {
            for k in &g.keys {
                push(k);
            }
            if let Some(c) = &g.agg_column {
                push(c);
            }
        }
        cols
    }

    /// Constant values referenced by the query's predicates.
    pub fn referenced_values(&self) -> Vec<Value> {
        self.expr
            .leaves()
            .into_iter()
            .flat_map(|p| p.referenced_values())
            .collect()
    }

    /// Executes the query against `table`, producing a new table.
    pub fn execute(&self, table: &Table) -> Result<Table> {
        // 1. Selection.
        let rows = self.matching_rows(table)?;
        let mut result = table.take(&rows)?;

        // 2. Group-by (replaces the row set with one row per group).
        if let Some(g) = &self.group_by {
            result = execute_group_by(&result, g)?;
        }

        // 3. Sorting.
        if !self.sort.is_empty() {
            result = sort_table(&result, &self.sort)?;
        }

        // 4. Projection.
        if let Some(proj) = &self.projection {
            if self.group_by.is_none() {
                let cols: Vec<&str> = proj.iter().map(String::as_str).collect();
                result = result.project(&cols)?;
            }
        }

        // 5. Limit.
        if let Some(n) = self.limit {
            result = result.head(n);
        }
        Ok(result)
    }
}

/// Separator between fields of the canonical query encodings. Cannot appear
/// inside encoded strings — those are length-prefixed — so the encoding is
/// injective.
const FIELD_SEP: char = '\u{1}';

/// A canonical `f64`: `-0.0` collapses onto `0.0` and every NaN shares one
/// bit pattern, so numerically equal constants encode identically.
fn canonical_f64(v: f64) -> f64 {
    if v == 0.0 {
        0.0
    } else if v.is_nan() {
        f64::NAN
    } else {
        v
    }
}

/// The canonical spelling of a predicate constant: numeric types collapse
/// onto `Float` when the value is exactly representable (predicate
/// evaluation compares numerics by value, so `Int(1)`, `Float(1.0)` and
/// `Bool(true)` select identical rows), integers beyond 2^53 stay `Int`.
pub(crate) fn canonical_value(v: &Value) -> Value {
    match v {
        Value::Null => Value::Null,
        Value::Bool(b) => Value::Float(if *b { 1.0 } else { 0.0 }),
        Value::Int(i) => {
            let f = *i as f64;
            // Exactness check in i128 so the saturating f64→i64 cast cannot
            // report i64::MAX as representable.
            if f as i128 == *i as i128 {
                Value::Float(canonical_f64(f))
            } else {
                Value::Int(*i)
            }
        }
        Value::Float(f) => Value::Float(canonical_f64(*f)),
        Value::Str(s) => Value::Str(s.clone()),
    }
}

/// Appends a length-prefixed string (no escaping needed — the prefix makes
/// the encoding unambiguous even if the string contains separators).
pub(crate) fn encode_str(s: &str, out: &mut String) {
    out.push_str(&s.len().to_string());
    out.push(':');
    out.push_str(s);
}

/// Appends a type-tagged value encoding; floats encode by bit pattern (the
/// value must already be canonical).
fn encode_value(v: &Value, out: &mut String) {
    match v {
        Value::Null => out.push('n'),
        Value::Int(i) => {
            out.push('i');
            out.push_str(&i.to_string());
        }
        Value::Float(f) => {
            out.push('f');
            out.push_str(&f.to_bits().to_string());
        }
        Value::Bool(b) => {
            out.push('b');
            out.push(if *b { '1' } else { '0' });
        }
        Value::Str(s) => {
            out.push('s');
            encode_str(s, out);
        }
    }
}

fn validate_sort_columns(table: &Table, specs: &[SortSpec]) -> Result<()> {
    for s in specs {
        if table.column(&s.column).is_none() {
            return Err(DataError::UnknownColumn(s.column.clone()));
        }
    }
    Ok(())
}

/// Sorts row indices by the sort keys; the columns must have been validated.
fn sort_row_indices(table: &Table, specs: &[SortSpec], indices: &mut [usize]) {
    indices.sort_by(|&a, &b| {
        for s in specs {
            let Some(col) = table.column(&s.column) else {
                continue; // validated by the caller; never taken
            };
            let (va, vb) = (col.get(a), col.get(b));
            // Nulls sort last irrespective of direction.
            let ord = match (va.is_null(), vb.is_null()) {
                (true, true) => std::cmp::Ordering::Equal,
                (true, false) => std::cmp::Ordering::Greater,
                (false, true) => std::cmp::Ordering::Less,
                (false, false) => match s.order {
                    SortOrder::Ascending => va.total_cmp(&vb),
                    SortOrder::Descending => va.total_cmp(&vb).reverse(),
                },
            };
            if ord != std::cmp::Ordering::Equal {
                return ord;
            }
        }
        std::cmp::Ordering::Equal
    });
}

fn sort_table(table: &Table, specs: &[SortSpec]) -> Result<Table> {
    validate_sort_columns(table, specs)?;
    let mut indices: Vec<usize> = (0..table.num_rows()).collect();
    sort_row_indices(table, specs, &mut indices);
    table.take(&indices)
}

fn execute_group_by(table: &Table, g: &GroupBy) -> Result<Table> {
    for k in &g.keys {
        if table.column(k).is_none() {
            return Err(DataError::UnknownColumn(k.clone()));
        }
    }
    let agg_col = match (&g.agg, &g.agg_column) {
        (AggFunc::Count, _) => None,
        (_, Some(c)) => {
            if table.column(c).is_none() {
                return Err(DataError::UnknownColumn(c.clone()));
            }
            Some(c.clone())
        }
        (_, None) => {
            return Err(DataError::InvalidOperation(
                "group-by aggregate other than count requires an aggregate column".into(),
            ))
        }
    };

    // Group rows by the rendered key tuple (deterministic, handles nulls).
    let mut groups: Vec<(Vec<Value>, Vec<usize>)> = Vec::new();
    let mut index: HashMap<String, usize> = HashMap::new();
    for r in 0..table.num_rows() {
        let key_vals: Vec<Value> = g
            .keys
            .iter()
            .map(|k| table.column(k).expect("validated").get(r))
            .collect();
        let key_str = key_vals
            .iter()
            .map(Value::render)
            .collect::<Vec<_>>()
            .join("\u{1}");
        match index.get(&key_str) {
            Some(&gi) => groups[gi].1.push(r),
            None => {
                index.insert(key_str, groups.len());
                groups.push((key_vals, vec![r]));
            }
        }
    }

    // Build result columns: one per key, plus the aggregate column.
    let mut key_columns: Vec<Vec<Value>> = vec![Vec::with_capacity(groups.len()); g.keys.len()];
    let mut agg_values: Vec<Option<f64>> = Vec::with_capacity(groups.len());
    for (key_vals, rows) in &groups {
        for (i, v) in key_vals.iter().enumerate() {
            key_columns[i].push(v.clone());
        }
        let agg = match g.agg {
            AggFunc::Count => Some(rows.len() as f64),
            _ => {
                let col = table
                    .column(agg_col.as_deref().expect("validated"))
                    .expect("validated");
                let vals: Vec<f64> = rows.iter().filter_map(|&r| col.get_f64(r)).collect();
                if vals.is_empty() {
                    None
                } else {
                    Some(match g.agg {
                        AggFunc::Sum => vals.iter().sum(),
                        AggFunc::Mean => vals.iter().sum::<f64>() / vals.len() as f64,
                        AggFunc::Min => vals.iter().copied().fold(f64::INFINITY, f64::min),
                        AggFunc::Max => vals.iter().copied().fold(f64::NEG_INFINITY, f64::max),
                        AggFunc::Count => unreachable!(),
                    })
                }
            }
        };
        agg_values.push(agg);
    }

    let mut columns: Vec<Column> = Vec::with_capacity(g.keys.len() + 1);
    for (i, key) in g.keys.iter().enumerate() {
        let source = table.column(key).expect("validated");
        let mut col = Column::empty(key.clone(), source.column_type());
        for v in &key_columns[i] {
            col.push(v.clone())?;
        }
        columns.push(col);
    }
    let agg_name = match (&g.agg, &agg_col) {
        (AggFunc::Count, _) => "count".to_string(),
        (AggFunc::Sum, Some(c)) => format!("sum_{c}"),
        (AggFunc::Mean, Some(c)) => format!("mean_{c}"),
        (AggFunc::Min, Some(c)) => format!("min_{c}"),
        (AggFunc::Max, Some(c)) => format!("max_{c}"),
        _ => "agg".to_string(),
    };
    columns.push(Column::from_f64(agg_name, agg_values));
    Table::from_columns(columns)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::Table;

    fn table() -> Table {
        Table::builder()
            .column_str(
                "airline",
                vec![Some("AA"), Some("DL"), Some("AA"), Some("UA"), Some("DL")],
            )
            .column_f64(
                "distance",
                vec![Some(100.0), Some(2500.0), Some(700.0), None, Some(900.0)],
            )
            .column_i64(
                "cancelled",
                vec![Some(0), Some(0), Some(1), Some(1), Some(0)],
            )
            .build()
            .unwrap()
    }

    #[test]
    fn filter_eq_and_projection() {
        let t = table();
        let q = Query::new()
            .filter(Predicate::eq("airline", Value::from("AA")))
            .select(&["airline", "cancelled"]);
        let r = q.execute(&t).unwrap();
        assert_eq!(r.num_rows(), 2);
        assert_eq!(r.num_columns(), 2);
    }

    #[test]
    fn filter_numeric_comparisons() {
        let t = table();
        let gt = Query::new().filter(Predicate::gt("distance", Value::from(800.0)));
        assert_eq!(gt.execute(&t).unwrap().num_rows(), 2);
        let lt = Query::new().filter(Predicate::lt("distance", Value::from(800.0)));
        assert_eq!(lt.execute(&t).unwrap().num_rows(), 2);
        let between = Query::new().filter(Predicate::between("distance", 100.0, 900.0));
        assert_eq!(between.execute(&t).unwrap().num_rows(), 2);
    }

    #[test]
    fn null_handling_in_predicates() {
        let t = table();
        let isnull = Query::new().filter(Predicate::is_null("distance"));
        assert_eq!(isnull.execute(&t).unwrap().num_rows(), 1);
        let notnull = Query::new().filter(Predicate::not_null("distance"));
        assert_eq!(notnull.execute(&t).unwrap().num_rows(), 4);
        // Comparisons never match nulls.
        let gt = Query::new().filter(Predicate::gt("distance", Value::from(-1.0)));
        assert_eq!(gt.execute(&t).unwrap().num_rows(), 4);
        let ne = Query::new().filter(Predicate::ne("distance", Value::from(100.0)));
        assert_eq!(ne.execute(&t).unwrap().num_rows(), 3);
    }

    #[test]
    fn in_set_predicate() {
        let t = table();
        let q = Query::new().filter(Predicate::in_set(
            "airline",
            vec![Value::from("DL"), Value::from("UA")],
        ));
        assert_eq!(q.execute(&t).unwrap().num_rows(), 3);
    }

    #[test]
    fn conjunctive_predicates() {
        let t = table();
        let q = Query::new()
            .filter(Predicate::eq("airline", Value::from("DL")))
            .filter(Predicate::eq("cancelled", Value::from(0i64)));
        assert_eq!(q.execute(&t).unwrap().num_rows(), 2);
    }

    #[test]
    fn sorting_asc_desc_nulls_last() {
        let t = table();
        let asc = Query::new()
            .sort_by("distance", SortOrder::Ascending)
            .execute(&t)
            .unwrap();
        assert_eq!(asc.value(0, "distance").unwrap(), Value::Float(100.0));
        assert!(asc.value(4, "distance").unwrap().is_null());
        let desc = Query::new()
            .sort_by("distance", SortOrder::Descending)
            .execute(&t)
            .unwrap();
        assert_eq!(desc.value(0, "distance").unwrap(), Value::Float(2500.0));
        let err = Query::new()
            .sort_by("missing", SortOrder::Ascending)
            .execute(&t);
        assert!(err.is_err());
    }

    #[test]
    fn group_by_count_and_mean() {
        let t = table();
        let count = Query::new()
            .group(&["airline"], AggFunc::Count, None)
            .sort_by("count", SortOrder::Descending)
            .execute(&t)
            .unwrap();
        assert_eq!(count.num_rows(), 3);
        assert_eq!(count.column_names(), vec!["airline", "count"]);
        assert_eq!(count.value(0, "count").unwrap(), Value::Float(2.0));

        let mean = Query::new()
            .group(&["cancelled"], AggFunc::Mean, Some("distance"))
            .execute(&t)
            .unwrap();
        assert_eq!(mean.num_rows(), 2);
        assert!(mean.column("mean_distance").is_some());
    }

    #[test]
    fn group_by_requires_agg_column_for_non_count() {
        let t = table();
        let err = Query::new()
            .group(&["airline"], AggFunc::Sum, None)
            .execute(&t);
        assert!(err.is_err());
    }

    #[test]
    fn group_by_sum_min_max() {
        let t = table();
        let sum = Query::new()
            .group(&["airline"], AggFunc::Sum, Some("distance"))
            .sort_by("airline", SortOrder::Ascending)
            .execute(&t)
            .unwrap();
        // AA: 100 + 700 = 800
        assert_eq!(sum.value(0, "sum_distance").unwrap(), Value::Float(800.0));
        let min = Query::new()
            .group(&["airline"], AggFunc::Min, Some("distance"))
            .sort_by("airline", SortOrder::Ascending)
            .execute(&t)
            .unwrap();
        assert_eq!(min.value(0, "min_distance").unwrap(), Value::Float(100.0));
        let max = Query::new()
            .group(&["airline"], AggFunc::Max, Some("distance"))
            .sort_by("airline", SortOrder::Ascending)
            .execute(&t)
            .unwrap();
        assert_eq!(max.value(0, "max_distance").unwrap(), Value::Float(700.0));
    }

    #[test]
    fn limit_and_empty_query() {
        let t = table();
        let all = Query::new().execute(&t).unwrap();
        assert_eq!(all.num_rows(), t.num_rows());
        let limited = Query::new().limit(2).execute(&t).unwrap();
        assert_eq!(limited.num_rows(), 2);
    }

    #[test]
    fn referenced_columns_and_values() {
        let q = Query::new()
            .filter(Predicate::eq("airline", Value::from("AA")))
            .filter(Predicate::between("distance", 0.0, 500.0))
            .select(&["cancelled"])
            .sort_by("distance", SortOrder::Ascending)
            .group(&["airline"], AggFunc::Count, None);
        let cols = q.referenced_columns();
        assert!(cols.contains(&"airline".to_string()));
        assert!(cols.contains(&"distance".to_string()));
        assert!(cols.contains(&"cancelled".to_string()));
        // No duplicates.
        assert_eq!(
            cols.len(),
            cols.iter().collect::<std::collections::HashSet<_>>().len()
        );
        let vals = q.referenced_values();
        assert!(vals.contains(&Value::from("AA")));
    }

    #[test]
    fn unknown_column_in_predicate_errors() {
        let t = table();
        let q = Query::new().filter(Predicate::eq("nope", Value::from(1i64)));
        assert!(q.execute(&t).is_err());
    }

    #[test]
    fn canonical_is_order_insensitive_for_conjunctions() {
        let a = Query::new()
            .filter(Predicate::eq("airline", Value::from("DL")))
            .filter(Predicate::gt("distance", Value::from(100.0)))
            .select(&["distance", "airline"]);
        let b = Query::new()
            .filter(Predicate::gt("distance", Value::from(100.0)))
            .filter(Predicate::eq("airline", Value::from("DL")))
            .select(&["airline", "distance"]);
        assert_ne!(a, b, "raw queries differ in order");
        assert_eq!(a.canonical(), b.canonical());
        assert_eq!(a.selection_key(), b.selection_key());
        // Duplicate predicates collapse.
        let c = b
            .clone()
            .filter(Predicate::eq("airline", Value::from("DL")));
        assert_eq!(c.canonical(), b.canonical());
        assert_eq!(c.selection_key(), b.selection_key());
    }

    #[test]
    fn canonical_normalises_numeric_spellings_and_in_sets() {
        let a = Query::new().filter(Predicate::eq("cancelled", Value::Int(1)));
        let b = Query::new().filter(Predicate::eq("cancelled", Value::Float(1.0)));
        let c = Query::new().filter(Predicate::eq("cancelled", Value::Bool(true)));
        assert_eq!(a.selection_key(), b.selection_key());
        assert_eq!(a.selection_key(), c.selection_key());
        // -0.0 and 0.0 select the same rows.
        let z0 = Query::new().filter(Predicate::eq("distance", Value::Float(0.0)));
        let z1 = Query::new().filter(Predicate::eq("distance", Value::Float(-0.0)));
        assert_eq!(z0.selection_key(), z1.selection_key());
        // InSet ordering and duplicates are normalised away.
        let s0 = Query::new().filter(Predicate::in_set(
            "airline",
            vec![Value::from("DL"), Value::from("AA"), Value::from("DL")],
        ));
        let s1 = Query::new().filter(Predicate::in_set(
            "airline",
            vec![Value::from("AA"), Value::from("DL")],
        ));
        assert_eq!(s0.selection_key(), s1.selection_key());
        // A huge integer not representable as f64 keeps its exact identity.
        let h0 = Query::new().filter(Predicate::eq("cancelled", Value::Int(i64::MAX)));
        let h1 = Query::new().filter(Predicate::eq("cancelled", Value::Int(i64::MAX - 1)));
        assert_ne!(h0.selection_key(), h1.selection_key());
    }

    #[test]
    fn selection_keys_distinguish_different_queries() {
        let base = Query::new().filter(Predicate::eq("airline", Value::from("DL")));
        let other = Query::new().filter(Predicate::eq("airline", Value::from("AA")));
        assert_ne!(base.selection_key(), other.selection_key());
        let projected = base.clone().select(&["airline"]);
        assert_ne!(base.selection_key(), projected.selection_key());
        let limited = base.clone().limit(3);
        assert_ne!(base.selection_key(), limited.selection_key());
        // Sorting matters only under a limit.
        let sorted = base.clone().sort_by("distance", SortOrder::Descending);
        assert_eq!(base.selection_key(), sorted.selection_key());
        let sorted_limited = sorted.limit(3);
        let plain_limited = base.limit(3);
        assert_ne!(
            sorted_limited.selection_key(),
            plain_limited.selection_key()
        );
        // Str("1") and Int(1) are different predicates (loose_eq never
        // crosses the string/numeric divide).
        let s = Query::new().filter(Predicate::eq("airline", Value::from("1")));
        let i = Query::new().filter(Predicate::eq("airline", Value::Int(1)));
        assert_ne!(s.selection_key(), i.selection_key());
    }

    #[test]
    fn tree_canonicalization_unifies_selection_keys() {
        let a = Predicate::eq("airline", Value::from("AA"));
        let b = Predicate::gt("distance", Value::Float(500.0));
        // a AND b ≡ b AND a.
        let ab = Query::expr(QueryExpr::and(vec![
            QueryExpr::leaf(a.clone()),
            QueryExpr::leaf(b.clone()),
        ]));
        let ba = Query::expr(QueryExpr::and(vec![
            QueryExpr::leaf(b.clone()),
            QueryExpr::leaf(a.clone()),
        ]));
        assert_eq!(ab.selection_key(), ba.selection_key());
        // NOT (NOT p) ≡ p.
        let p = Query::expr(QueryExpr::leaf(a.clone()));
        let nnp = Query::expr(QueryExpr::leaf(a.clone()).negated().negated());
        assert_eq!(p.selection_key(), nnp.selection_key());
        // x IN (1, 2) ≡ x = 1 OR x = 2.
        let in_set = Query::expr(QueryExpr::leaf(Predicate::in_set(
            "cancelled",
            vec![Value::Int(1), Value::Int(2)],
        )));
        let or_eq = Query::expr(QueryExpr::or(vec![
            QueryExpr::leaf(Predicate::eq("cancelled", Value::Int(1))),
            QueryExpr::leaf(Predicate::eq("cancelled", Value::Int(2))),
        ]));
        assert_eq!(in_set.selection_key(), or_eq.selection_key());
        // Distinct trees stay distinct: AND vs OR of the same children, and
        // a negation of one.
        let or_q = Query::expr(QueryExpr::or(vec![
            QueryExpr::leaf(a.clone()),
            QueryExpr::leaf(b.clone()),
        ]));
        assert_ne!(ab.selection_key(), or_q.selection_key());
        let not_ab =
            Query::expr(QueryExpr::and(vec![QueryExpr::leaf(a), QueryExpr::leaf(b)]).negated());
        assert_ne!(ab.selection_key(), not_ab.selection_key());
    }

    #[test]
    fn parsed_commuted_spellings_share_selection_keys() {
        let q1: Query = "distance > 500 AND (airline = 'AA' OR NOT cancelled IN (1, 2)) LIMIT 20"
            .parse()
            .unwrap();
        let q2: Query =
            "(NOT (cancelled = 1 OR cancelled = 2) OR airline = 'AA') AND distance > 500 LIMIT 20"
                .parse()
                .unwrap();
        assert_eq!(q1.selection_key(), q2.selection_key());
        // A different limit keeps the keys apart.
        let q3: Query = "distance > 500 AND (airline = 'AA' OR NOT cancelled IN (1, 2)) LIMIT 21"
            .parse()
            .unwrap();
        assert_ne!(q1.selection_key(), q3.selection_key());
    }

    #[test]
    fn selection_rows_respect_sort_and_limit() {
        let t = table();
        // No limit: all matching rows in ascending order, sort irrelevant.
        let q = Query::new().sort_by("distance", SortOrder::Descending);
        assert_eq!(q.selection_rows(&t).unwrap(), vec![0, 1, 2, 3, 4]);
        // Limit without sort keeps the first rows in table order.
        let q = Query::new().limit(2);
        assert_eq!(q.selection_rows(&t).unwrap(), vec![0, 1]);
        // Limit with sort keeps the top of the *sorted* result: the two
        // longest distances are rows 1 (2500) and 4 (900).
        let q = Query::new()
            .sort_by("distance", SortOrder::Descending)
            .limit(2);
        assert_eq!(q.selection_rows(&t).unwrap(), vec![1, 4]);
        // limit 0 yields the empty set.
        let q = Query::new().limit(0);
        assert_eq!(q.selection_rows(&t).unwrap(), Vec::<usize>::new());
        // Unknown sort column under a limit is a typed error, not a panic.
        let q = Query::new()
            .sort_by("missing", SortOrder::Ascending)
            .limit(1);
        assert!(matches!(
            q.selection_rows(&t),
            Err(DataError::UnknownColumn(_))
        ));
    }

    #[test]
    fn selection_rows_agree_with_execute() {
        let t = table();
        let q = Query::new()
            .filter(Predicate::not_null("distance"))
            .sort_by("distance", SortOrder::Ascending)
            .limit(3);
        let rows = q.selection_rows(&t).unwrap();
        let executed = q.execute(&t).unwrap();
        assert_eq!(rows.len(), executed.num_rows());
        // Same multiset of distances (selection_rows returns base-table
        // indices in ascending index order, execute keeps sort order).
        let mut from_rows: Vec<String> = rows
            .iter()
            .map(|&r| t.value(r, "distance").unwrap().render())
            .collect();
        let mut from_exec: Vec<String> = (0..executed.num_rows())
            .map(|r| executed.value(r, "distance").unwrap().render())
            .collect();
        from_rows.sort();
        from_exec.sort();
        assert_eq!(from_rows, from_exec);
    }
}
