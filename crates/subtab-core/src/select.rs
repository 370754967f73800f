//! Centroid-based sub-table selection (Algorithm 2, lines 5–19).
//!
//! A selection has one path: the query compiles onto row bitmaps
//! ([`crate::compile`]), row and column vectors are integer gathers over
//! the token-id plane, and k-means picks the representatives. The
//! `tokenid_equivalence` suite pins the compiled rows to the per-row tree
//! walk ([`Query::selection_rows`]) and the gathers to a string-keyed
//! oracle over [`subtab_embed::CellEmbedding::cell_vector`];
//! `tests/golden/selection_ref.txt` pins whole selections.

use crate::config::SelectionParams;
use crate::error::CoreError;
use crate::preprocess::PreprocessedTable;
use crate::result::SubTableResult;
use crate::Result;
use subtab_cluster::{select_k_representatives_threaded, Matrix, MatrixView};
use subtab_data::Query;

/// Selects a sub-table of the full table or of a query result over it.
///
/// `query = None` selects over the whole table (the initial display);
/// `query = Some(q)` first evaluates the selection part of `q` against the
/// table and restricts the candidate columns to `q`'s projection, then runs
/// the same centroid selection over the restricted rows and columns — this is
/// the cheap query-time path of the paper, which reuses the pre-processed
/// binning and embedding.
///
/// The query's predicate tree is compiled onto the bitmap engine
/// ([`crate::compile::query_bitmap`]): one row bitmap per leaf, combined
/// with word-parallel `AND`/`OR`/`NOT` ops, instead of re-walking the tree
/// per row. Row and column vectors are integer-indexed gathers over the
/// preprocessed token-id plane (no string is formatted or hashed at query
/// time), written into flat matrices consumed directly by the clustering.
/// `threads` fans both the vector gathers and the k-means assignment step
/// out across scoped workers (`0` = all available cores); the selection is
/// bit-identical at every thread count.
pub fn select_sub_table(
    pre: &PreprocessedTable,
    query: Option<&Query>,
    params: &SelectionParams,
    seed: u64,
    threads: usize,
) -> Result<SubTableResult> {
    select_sub_table_cached(pre, query, params, seed, threads, None)
}

/// [`select_sub_table`] with an optional per-session
/// [`LeafBitmapCache`](crate::compile::LeafBitmapCache): leaf predicates
/// already compiled by an earlier query against the *same* table are reused
/// instead of rescanned. With `cache = None` this is exactly
/// [`select_sub_table`]; with a cache the selection is still bit-identical,
/// only faster on repeated query refinements.
pub fn select_sub_table_cached(
    pre: &PreprocessedTable,
    query: Option<&Query>,
    params: &SelectionParams,
    seed: u64,
    threads: usize,
    cache: Option<&crate::compile::LeafBitmapCache>,
) -> Result<SubTableResult> {
    let Some(ctx) = SelectionContext::prepare(pre, query, params, cache)? else {
        return empty_result(pre);
    };
    let embedding = pre.embedding();
    let plane = pre.plane();

    // Whole-table selections borrow the Arc-cached full row vectors
    // directly (candidate rows are exactly 0..num_rows, in order), so the
    // hot query-free path never copies a single vector.
    let cached;
    let computed;
    let row_vectors: MatrixView = if ctx.whole_table {
        cached = pre.full_row_vectors();
        cached.view()
    } else {
        computed = Matrix::new(
            embedding.row_vectors(plane, &ctx.candidate_rows, &ctx.candidate_columns, threads),
            embedding.dim(),
        );
        computed.view()
    };

    let col_vectors = if ctx.l_free > 0 {
        Matrix::new(
            embedding.column_vectors(plane, &ctx.free_columns, &ctx.candidate_rows, threads),
            embedding.dim(),
        )
    } else {
        Matrix::default()
    };

    finish_selection(pre, &ctx, row_vectors, col_vectors.view(), seed, threads)
}

/// Validated candidate sets of one selection.
struct SelectionContext {
    candidate_rows: Vec<usize>,
    candidate_columns: Vec<usize>,
    /// Indices of the target columns (`U*`).
    target_idx: Vec<usize>,
    /// Candidate columns that are not targets, in candidate order.
    free_columns: Vec<usize>,
    /// Requested row count clamped to the candidate rows.
    k: usize,
    /// Column-cluster count after reserving room for the targets.
    l_free: usize,
    /// Whether the selection runs over the full table with all columns (the
    /// cached-row-vector fast path).
    whole_table: bool,
}

impl SelectionContext {
    /// Validates the request against the pre-processed state and assembles
    /// the candidate sets. Returns `Ok(None)` for *degenerate* requests —
    /// zero requested rows or columns, a query matching no rows, an empty
    /// projection, a `limit: Some(0)` — which select the empty sub-table
    /// rather than erroring or panicking. Genuinely invalid requests (an
    /// unknown column, more targets than columns) return typed errors; no
    /// user-supplied query can reach a panic in this path.
    fn prepare(
        pre: &PreprocessedTable,
        query: Option<&Query>,
        params: &SelectionParams,
        cache: Option<&crate::compile::LeafBitmapCache>,
    ) -> Result<Option<Self>> {
        if params.target_columns.len() > params.l {
            return Err(CoreError::InvalidParams(format!(
                "{} target columns do not fit into l = {}",
                params.target_columns.len(),
                params.l
            )));
        }
        let table = pre.table();
        let num_columns = table.num_columns();
        // Guard against preprocessed-state drift: the token plane and the
        // binned table are built from this table at preprocess time; if a
        // caller ever pairs a table with artefacts of a different shape,
        // every gather below would index out of bounds. Surface it as a
        // typed error instead.
        if pre.plane().num_rows() != table.num_rows()
            || pre.plane().num_cols() != num_columns
            || pre.binned().num_columns() != num_columns
        {
            return Err(CoreError::UnknownColumn(format!(
                "preprocessed state drifted from the table: table is {}x{}, token plane is {}x{}",
                table.num_rows(),
                num_columns,
                pre.plane().num_rows(),
                pre.plane().num_cols(),
            )));
        }
        // Resolve every referenced column through the schema exactly once;
        // a miss is a typed UnknownColumn error, never an `expect`.
        let target_idx: Vec<usize> = params
            .target_columns
            .iter()
            .map(|t| {
                table
                    .schema()
                    .index_of(t)
                    .ok_or_else(|| CoreError::UnknownColumn(t.clone()))
            })
            .collect::<Result<_>>()?;

        if params.k == 0 || params.l == 0 {
            return Ok(None);
        }

        // Candidate rows: all rows, or the rows a selection over the query
        // result may draw from (predicate tree plus sort-aware limit).
        let candidate_rows: Vec<usize> = match query {
            None => (0..table.num_rows()).collect(),
            Some(q) => match cache {
                Some(c) => crate::compile::compiled_selection_rows_cached(table, q, c)?,
                None => crate::compile::compiled_selection_rows(table, q)?,
            },
        };
        if candidate_rows.is_empty() {
            return Ok(None);
        }

        // Candidate columns: the query's projection if present, otherwise
        // all. Membership bookkeeping uses index masks over the schema, so
        // wide-table queries stay linear instead of the old
        // O(|targets| × |cols|) `Vec::contains` scans.
        let mut in_candidates = vec![false; num_columns];
        let candidate_columns: Vec<usize> = match query.and_then(|q| q.projection.as_ref()) {
            Some(proj) => {
                let mut cols = Vec::with_capacity(proj.len());
                for name in proj {
                    let idx = table
                        .schema()
                        .index_of(name)
                        .ok_or_else(|| CoreError::UnknownColumn(name.clone()))?;
                    if !in_candidates[idx] {
                        in_candidates[idx] = true;
                        cols.push(idx);
                    }
                }
                // Target columns are always candidates even if the projection
                // dropped them (the paper requires U* ⊆ U_sub).
                for &idx in &target_idx {
                    if !in_candidates[idx] {
                        in_candidates[idx] = true;
                        cols.push(idx);
                    }
                }
                cols
            }
            None => {
                in_candidates.fill(true);
                (0..num_columns).collect()
            }
        };
        if candidate_columns.is_empty() {
            return Ok(None);
        }

        let k = params.k.min(candidate_rows.len());
        let mut is_target = vec![false; num_columns];
        for &t in &target_idx {
            is_target[t] = true;
        }
        let free_columns: Vec<usize> = candidate_columns
            .iter()
            .copied()
            .filter(|&c| !is_target[c])
            .collect();
        let l_free = params
            .l
            .saturating_sub(target_idx.len())
            .min(free_columns.len());
        let whole_table = query.is_none() && candidate_columns.len() == num_columns;
        Ok(Some(SelectionContext {
            candidate_rows,
            candidate_columns,
            target_idx,
            free_columns,
            k,
            l_free,
            whole_table,
        }))
    }
}

/// The empty `0 × 0` selection every degenerate request resolves to: no
/// rows, no columns, no highlights — never a stale whole-table fallback.
fn empty_result(pre: &PreprocessedTable) -> Result<SubTableResult> {
    Ok(SubTableResult {
        sub_table: pre.table().sub_table(&[], &[])?,
        row_indices: Vec::new(),
        columns: Vec::new(),
        highlights: Vec::new(),
    })
}

/// The clustering + assembly tail of a selection: k-means centroid
/// representatives over the row matrix, column clustering into
/// `l − |U*|` clusters over the column matrix, schema-ordered assembly.
fn finish_selection(
    pre: &PreprocessedTable,
    ctx: &SelectionContext,
    row_vectors: MatrixView,
    col_vectors: MatrixView,
    seed: u64,
    threads: usize,
) -> Result<SubTableResult> {
    let table = pre.table();
    let rep_positions = select_k_representatives_threaded(row_vectors, ctx.k, seed, threads);
    let mut row_indices: Vec<usize> = rep_positions
        .iter()
        .map(|&p| ctx.candidate_rows[p])
        .collect();
    row_indices.sort_unstable();

    let mut selected_columns: Vec<usize> = ctx.target_idx.clone();
    if ctx.l_free > 0 {
        let reps = select_k_representatives_threaded(
            col_vectors,
            ctx.l_free,
            seed.wrapping_add(1),
            threads,
        );
        selected_columns.extend(reps.into_iter().map(|p| ctx.free_columns[p]));
    }
    // Preserve the original schema order for display.
    selected_columns.sort_unstable();
    selected_columns.dedup();

    let column_names: Vec<String> = selected_columns
        .iter()
        .map(|&c| {
            table
                .schema()
                .field_at(c)
                .map(|f| f.name.clone())
                .ok_or_else(|| CoreError::UnknownColumn(format!("column index {c} out of schema")))
        })
        .collect::<Result<_>>()?;
    let column_refs: Vec<&str> = column_names.iter().map(String::as_str).collect();
    let sub_table = table.sub_table(&row_indices, &column_refs)?;

    Ok(SubTableResult {
        sub_table,
        row_indices,
        columns: column_names,
        highlights: Vec::new(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SubTabConfig;
    use subtab_data::{Predicate, Table, Value};

    fn preprocessed(rows: usize) -> PreprocessedTable {
        // Two clear row archetypes: short WN flights never cancelled, long DL
        // flights sometimes cancelled with missing dep_time.
        let table = Table::builder()
            .column_f64(
                "distance",
                (0..rows)
                    .map(|i| Some(if i % 2 == 0 { 120.0 } else { 2400.0 } + (i % 7) as f64))
                    .collect(),
            )
            .column_f64(
                "dep_time",
                (0..rows)
                    .map(|i| {
                        if i % 10 == 1 {
                            None
                        } else {
                            Some(900.0 + (i % 13) as f64 * 60.0)
                        }
                    })
                    .collect(),
            )
            .column_str(
                "airline",
                (0..rows)
                    .map(|i| Some(if i % 2 == 0 { "WN" } else { "DL" }))
                    .collect(),
            )
            .column_i64(
                "cancelled",
                (0..rows).map(|i| Some(i64::from(i % 10 == 1))).collect(),
            )
            .build()
            .unwrap();
        PreprocessedTable::new(table, &SubTabConfig::fast()).unwrap()
    }

    #[test]
    fn selects_requested_dimensions() {
        let pre = preprocessed(100);
        let r = select_sub_table(&pre, None, &SelectionParams::new(8, 3), 1, 1).unwrap();
        assert_eq!(r.sub_table.num_rows(), 8);
        assert_eq!(r.sub_table.num_columns(), 3);
        assert_eq!(r.row_indices.len(), 8);
        assert_eq!(r.columns.len(), 3);
        // Selected rows are distinct and valid.
        let mut rows = r.row_indices.clone();
        rows.dedup();
        assert_eq!(rows.len(), 8);
        assert!(rows.iter().all(|&i| i < 100));
    }

    #[test]
    fn target_columns_are_always_included() {
        let pre = preprocessed(80);
        let params = SelectionParams::new(5, 2).with_targets(&["cancelled"]);
        let r = select_sub_table(&pre, None, &params, 3, 1).unwrap();
        assert!(r.columns.contains(&"cancelled".to_string()));
        assert_eq!(r.sub_table.num_columns(), 2);
    }

    #[test]
    fn row_selection_spans_both_archetypes() {
        let pre = preprocessed(100);
        let r = select_sub_table(&pre, None, &SelectionParams::new(6, 4), 5, 1).unwrap();
        // Both short-WN and long-DL rows should be represented among 6
        // centroid representatives.
        let airlines: Vec<String> = r
            .row_indices
            .iter()
            .map(|&i| pre.table().value(i, "airline").unwrap().render())
            .collect();
        assert!(airlines.iter().any(|a| a == "WN"));
        assert!(airlines.iter().any(|a| a == "DL"));
    }

    #[test]
    fn query_restricts_rows_and_columns() {
        let pre = preprocessed(100);
        let q = Query::new()
            .filter(Predicate::eq("airline", Value::from("DL")))
            .select(&["distance", "dep_time", "airline"]);
        let r = select_sub_table(&pre, Some(&q), &SelectionParams::new(4, 2), 2, 1).unwrap();
        assert_eq!(r.sub_table.num_rows(), 4);
        assert!(r.sub_table.num_columns() <= 3);
        for &row in &r.row_indices {
            assert_eq!(
                pre.table().value(row, "airline").unwrap(),
                Value::from("DL")
            );
        }
        for c in &r.columns {
            assert!(["distance", "dep_time", "airline"].contains(&c.as_str()));
        }
    }

    #[test]
    fn query_projection_still_includes_targets() {
        let pre = preprocessed(60);
        let q = Query::new()
            .filter(Predicate::eq("airline", Value::from("WN")))
            .select(&["distance"]);
        let params = SelectionParams::new(3, 2).with_targets(&["cancelled"]);
        let r = select_sub_table(&pre, Some(&q), &params, 0, 1).unwrap();
        assert!(r.columns.contains(&"cancelled".to_string()));
    }

    #[test]
    fn dimensions_larger_than_data_are_clamped() {
        let pre = preprocessed(6);
        let r = select_sub_table(&pre, None, &SelectionParams::new(50, 50), 1, 1).unwrap();
        assert_eq!(r.sub_table.num_rows(), 6);
        assert_eq!(r.sub_table.num_columns(), 4);
    }

    #[test]
    fn invalid_params_are_rejected() {
        let pre = preprocessed(20);
        let too_many_targets = SelectionParams::new(3, 1).with_targets(&["airline", "cancelled"]);
        assert!(matches!(
            select_sub_table(&pre, None, &too_many_targets, 0, 1),
            Err(CoreError::InvalidParams(_))
        ));
        let unknown = SelectionParams::new(3, 2).with_targets(&["nope"]);
        assert!(matches!(
            select_sub_table(&pre, None, &unknown, 0, 1),
            Err(CoreError::UnknownColumn(_))
        ));
    }

    fn assert_empty(r: &SubTableResult) {
        assert_eq!(r.sub_table.num_rows(), 0);
        assert_eq!(r.sub_table.num_columns(), 0);
        assert!(r.row_indices.is_empty());
        assert!(r.columns.is_empty());
        assert!(r.highlights.is_empty());
    }

    #[test]
    fn degenerate_dimensions_select_the_empty_subtable() {
        let pre = preprocessed(20);
        for params in [
            SelectionParams::new(0, 3),
            SelectionParams::new(3, 0),
            SelectionParams::new(0, 0),
        ] {
            let r = select_sub_table(&pre, None, &params, 0, 1).unwrap();
            assert_empty(&r);
        }
    }

    #[test]
    fn empty_query_result_selects_the_empty_subtable() {
        let pre = preprocessed(20);
        let q = Query::new().filter(Predicate::eq("airline", Value::from("ZZ")));
        let r = select_sub_table(&pre, Some(&q), &SelectionParams::new(3, 2), 0, 1).unwrap();
        assert_empty(&r);
    }

    #[test]
    fn limit_zero_selects_the_empty_subtable() {
        let pre = preprocessed(20);
        let q = Query::new().limit(0);
        let r = select_sub_table(&pre, Some(&q), &SelectionParams::new(3, 2), 0, 1).unwrap();
        assert_empty(&r);
    }

    #[test]
    fn empty_projection_selects_the_empty_subtable() {
        let pre = preprocessed(20);
        let q = Query::new().select(&[]);
        let r = select_sub_table(&pre, Some(&q), &SelectionParams::new(3, 2), 0, 1).unwrap();
        assert_empty(&r);
    }

    #[test]
    fn query_limit_restricts_the_candidate_rows() {
        let pre = preprocessed(100);
        // Without the limit the DL filter matches 50 rows; with limit 6 the
        // selection may only draw from the first 6 of them (rows 1..=11 odd).
        let q = Query::new()
            .filter(Predicate::eq("airline", Value::from("DL")))
            .limit(6);
        let r = select_sub_table(&pre, Some(&q), &SelectionParams::new(4, 3), 2, 1).unwrap();
        assert_eq!(r.sub_table.num_rows(), 4);
        for &row in &r.row_indices {
            assert!(row <= 11, "row {row} is outside the limited query result");
        }
    }

    #[test]
    fn unknown_projection_column_is_a_typed_error() {
        let pre = preprocessed(20);
        let q = Query::new()
            .filter(Predicate::eq("airline", Value::from("DL")))
            .select(&["distance", "no_such_column"]);
        assert!(matches!(
            select_sub_table(&pre, Some(&q), &SelectionParams::new(3, 2), 0, 1),
            Err(CoreError::UnknownColumn(c)) if c == "no_such_column"
        ));
        // Unknown predicate columns surface as typed data errors.
        let q = Query::new().filter(Predicate::eq("no_such_column", Value::from(1i64)));
        assert!(matches!(
            select_sub_table(&pre, Some(&q), &SelectionParams::new(3, 2), 0, 1),
            Err(CoreError::Data(_))
        ));
    }

    #[test]
    fn selection_is_deterministic_for_a_seed() {
        let pre = preprocessed(80);
        let a = select_sub_table(&pre, None, &SelectionParams::new(5, 3), 11, 1).unwrap();
        let b = select_sub_table(&pre, None, &SelectionParams::new(5, 3), 11, 1).unwrap();
        assert_eq!(a.row_indices, b.row_indices);
        assert_eq!(a.columns, b.columns);
    }

    #[test]
    fn threaded_selection_matches_sequential() {
        // Enough rows that the clustering crosses the parallel threshold.
        let pre = preprocessed(1500);
        let params = SelectionParams::new(7, 3);
        let sequential = select_sub_table(&pre, None, &params, 13, 1).unwrap();
        for threads in [0, 2, 4] {
            let parallel = select_sub_table(&pre, None, &params, 13, threads).unwrap();
            assert_eq!(sequential.row_indices, parallel.row_indices);
            assert_eq!(sequential.columns, parallel.columns);
        }
    }
}
