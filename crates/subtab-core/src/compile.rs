//! Compiling a [`QueryExpr`] tree onto the bitmap engine.
//!
//! The brute-force reference path ([`Query::selection_rows`]) walks every
//! row and re-evaluates the whole expression tree per row, resolving each
//! leaf's column by name on every visit. The compiled path here lowers the
//! tree once instead: every leaf predicate becomes one [`Bitmap`] over
//! the table's rows, and the `AND`/`OR`/`NOT` structure of the tree is
//! folded with the word-parallel bitmap operations the rule miner already
//! uses (`subtab-rules::bitmap`).
//!
//! Leaves scan the column's *typed value plane* directly (the flat
//! `&[f64]`/`&[i64]`/code buffers of the columnar storage) and then AND the
//! column's validity bitmap — null slots hold sentinels, so a predicate may
//! spuriously match them during the scan and the validity AND clears those
//! bits in one word-parallel pass. Null tests never scan at all: `IS NOT
//! NULL` *is* the validity bitmap and `IS NULL` is its complement.
//! Dictionary-encoded string columns evaluate the predicate once per
//! *distinct* value and then scan the code plane, so no string is cloned or
//! compared per row.
//!
//! `AND` chains short-circuit: children are evaluated cheapest-first
//! (already-cached leaves, then validity-only null tests, then dictionary
//! scans, then full numeric scans, then composite subtrees) and once the
//! accumulator has no bits left the remaining children are skipped — `AND`
//! is commutative over bitmaps, so the result is bit-identical to the
//! in-order fold. Every leaf's column is validated up front, in tree order,
//! so an unknown column is still always reported (and the *same* column is
//! reported) even when the leaf's bitmap is never materialised.
//!
//! Semantics are pinned to the per-row reference: predicates are two-valued
//! (`NULL` comparisons are false, see [`Predicate::matches_value`]), so
//! `NOT` is an exact bitmap complement over the table's row scope. The one
//! deliberate difference is error strictness — the short-circuiting per-row
//! walk may skip a branch that references an unknown column, while
//! compilation always validates every leaf and therefore always reports it.
//! The equivalence suite in `tests/expr_equivalence.rs` asserts
//! bit-identical row sets on every planted dataset, and
//! `tests/kernel_equivalence.rs` checks every leaf's bitmap words against
//! the per-row `Predicate::matches` walk under both kernel dispatch
//! settings.

use crate::Result;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use subtab_data::{
    Bitmap, ColumnType, CompareOp, DataError, Predicate, Query, QueryExpr, Table, Value,
};
use subtab_kernels::{
    scan_bools_masked, scan_codes_masked, scan_f64_masked, scan_i64_masked, CmpOp, NumericScan,
};

/// A cache of compiled leaf bitmaps, keyed by the leaf's canonical
/// encoding ([`Predicate::encode_canonical`]).
///
/// One cache is only ever valid for one table (the bitmaps are row-indexed
/// over it); the exploration server keeps one per session so repeated
/// query refinements — the paper's exploration loop, where each query adds
/// or tweaks one predicate — recompile only the changed leaf. Thread-safe:
/// lookups take a mutex, the bitmaps themselves are shared via `Arc`.
#[derive(Debug, Default)]
pub struct LeafBitmapCache {
    map: Mutex<HashMap<String, Arc<Bitmap>>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl LeafBitmapCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// The map, recovered if a thread panicked while holding the lock:
    /// every critical section is one `HashMap` call on owned, fully built
    /// values, so a poisoned map is still a valid cache.
    fn map(&self) -> MutexGuard<'_, HashMap<String, Arc<Bitmap>>> {
        self.map.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Number of cached leaf bitmaps.
    pub fn len(&self) -> usize {
        self.map().len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of leaf compilations answered from the cache.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Number of leaf compilations that had to scan the column.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Whether a bitmap for `key` is present (no hit/miss accounting).
    fn peek(&self, key: &str) -> bool {
        self.map().contains_key(key)
    }

    fn lookup(&self, key: &str) -> Option<Arc<Bitmap>> {
        let found = self.map().get(key).cloned();
        match &found {
            Some(_) => self.hits.fetch_add(1, Ordering::Relaxed),
            None => self.misses.fetch_add(1, Ordering::Relaxed),
        };
        found
    }

    fn insert(&self, key: String, bm: Bitmap) {
        self.map().insert(key, Arc::new(bm));
    }
}

/// Compiles `expr` into the bitmap of matching rows over `table`.
///
/// The result has exactly [`Table::num_rows`] addressable bits; bit `r` is
/// set iff [`QueryExpr::matches`] returns `true` for row `r`.
pub fn query_bitmap(table: &Table, expr: &QueryExpr) -> Result<Bitmap> {
    validate_columns(table, expr)?;
    compile_expr(table, expr, None)
}

/// Like [`query_bitmap`], but consulting (and filling) a per-session
/// [`LeafBitmapCache`] so leaves shared with earlier queries are not
/// recompiled. Bit-identical to [`query_bitmap`] on the same table.
pub fn query_bitmap_cached(
    table: &Table,
    expr: &QueryExpr,
    cache: &LeafBitmapCache,
) -> Result<Bitmap> {
    validate_columns(table, expr)?;
    compile_expr(table, expr, Some(cache))
}

/// Resolves every leaf's column in tree (DFS) order, so the compiled path
/// reports exactly the column the uncompiled in-order fold would have
/// reported first — regardless of any cost-based reordering or
/// short-circuit skipping downstream.
fn validate_columns(table: &Table, expr: &QueryExpr) -> Result<()> {
    match expr {
        QueryExpr::Leaf(p) => {
            resolve_column(table, p)?;
            Ok(())
        }
        QueryExpr::And(children) | QueryExpr::Or(children) => {
            children.iter().try_for_each(|c| validate_columns(table, c))
        }
        QueryExpr::Not(inner) => validate_columns(table, inner),
    }
}

fn resolve_column<'t>(table: &'t Table, p: &Predicate) -> Result<&'t subtab_data::Column> {
    table
        .column(p.column())
        .ok_or_else(|| crate::CoreError::Data(DataError::UnknownColumn(p.column().to_string())))
}

/// Static evaluation-cost rank of an `AND` child, ascending.
///
/// Cached leaves are free (rank 0) and null tests are validity-plane clones
/// (rank 1). Uncached scanning leaves start from a per-column-type base —
/// dictionary scans touch one `u32` per row and pay one predicate
/// evaluation per *distinct* value, so their base grows with the
/// log₂-cardinality of the dictionary; bool planes are a two-outcome table;
/// float planes scan one `f64` compare per row; int planes additionally
/// widen each chunk — minus a bonus of up to 4 for mostly-null columns
/// (their result bitmaps are sparser, so evaluating them earlier empties
/// the `AND` accumulator sooner and skips more expensive siblings).
/// Composite subtrees go last so an emptied accumulator can skip whole
/// branches.
fn and_cost_rank(table: &Table, cache: Option<&LeafBitmapCache>, expr: &QueryExpr) -> u8 {
    match expr {
        QueryExpr::Leaf(p) => {
            if cache.is_some_and(|c| c.peek(&p.encode_canonical())) {
                return 0;
            }
            if matches!(p, Predicate::IsNull { .. } | Predicate::NotNull { .. }) {
                return 1;
            }
            let Some(col) = table.column(p.column()) else {
                // Unresolvable columns are rejected by validation before any
                // ranking can matter; keep a deterministic middle rank.
                return 32;
            };
            let base = match col.column_type() {
                ColumnType::Str => {
                    let card = col.code_view().map_or(0, |v| v.dict.len());
                    // log₂ tier of the dictionary cardinality, capped so the
                    // widest dictionaries still rank below numeric scans.
                    8 + ((usize::BITS - card.leading_zeros()).min(7) as u8)
                }
                ColumnType::Bool => 16,
                ColumnType::Float => 18,
                ColumnType::Int => 20,
            };
            let n = table.num_rows().max(1);
            let null_bonus = ((col.null_count() * 4) / n) as u8;
            base - null_bonus
        }
        _ => 64,
    }
}

/// The recursive compiler behind [`query_bitmap`] /
/// [`query_bitmap_cached`]. Columns are already validated.
fn compile_expr(
    table: &Table,
    expr: &QueryExpr,
    cache: Option<&LeafBitmapCache>,
) -> Result<Bitmap> {
    let n = table.num_rows();
    match expr {
        QueryExpr::Leaf(p) => leaf_bitmap_cached(table, p, cache),
        QueryExpr::And(children) => {
            let mut acc = Bitmap::ones(n);
            if children.is_empty() {
                return Ok(acc);
            }
            // Stable cheapest-first order: ties keep tree order, so the
            // evaluation sequence is deterministic.
            let mut order: Vec<(u8, &QueryExpr)> = children
                .iter()
                .map(|c| (and_cost_rank(table, cache, c), c))
                .collect();
            order.sort_by_key(|&(rank, _)| rank);
            let mut remaining = n;
            for (_, c) in order {
                // AND is commutative over bitmaps: once the accumulator is
                // empty, the remaining children cannot set a bit back, so
                // skipping them is exact.
                if remaining == 0 {
                    break;
                }
                acc.and_assign(&compile_expr(table, c, cache)?);
                remaining = acc.count();
            }
            Ok(acc)
        }
        QueryExpr::Or(children) => {
            let mut acc = Bitmap::zeros(n);
            for c in children {
                acc.or_assign(&compile_expr(table, c, cache)?);
            }
            Ok(acc)
        }
        QueryExpr::Not(inner) => {
            let mut bm = compile_expr(table, inner, cache)?;
            bm.negate_assign(n);
            Ok(bm)
        }
    }
}

/// Leaf compilation with an optional cache in front of [`leaf_bitmap`].
fn leaf_bitmap_cached(
    table: &Table,
    p: &Predicate,
    cache: Option<&LeafBitmapCache>,
) -> Result<Bitmap> {
    let Some(cache) = cache else {
        return leaf_bitmap(table, p);
    };
    // Canonical encoding as the key: equivalent spellings of one leaf
    // (loose-equal constants, reordered IN sets) share an entry.
    let key = p.encode_canonical();
    if let Some(bm) = cache.lookup(&key) {
        return Ok((*bm).clone());
    }
    let bm = leaf_bitmap(table, p)?;
    cache.insert(key, bm.clone());
    Ok(bm)
}

/// The bitmap of one leaf predicate, computed plane-wise: null tests read
/// the validity bitmap alone; everything else scans the typed value plane
/// with the SIMD kernels of `subtab-kernels` — emitting bitmap words a
/// vector-width of rows at a time — and ANDs validity in the same pass (no
/// non-null-test predicate matches a NULL row, so clearing sentinel-slot
/// hits word-parallel is exact).
///
/// The same bits on every ISA tier — the kernels evaluate the exact boolean
/// function `Predicate::matches_value` defines per row;
/// `tests/kernel_equivalence.rs` pins this against the per-row
/// `Predicate::matches` on the planted datasets, under both dispatch
/// settings.
pub fn leaf_bitmap(table: &Table, p: &Predicate) -> Result<Bitmap> {
    let col = resolve_column(table, p)?;
    let n = table.num_rows();
    let validity = col.validity();
    match p {
        // IS NOT NULL *is* the validity plane; IS NULL is its complement.
        Predicate::NotNull { .. } => return Ok(validity.clone()),
        Predicate::IsNull { .. } => {
            let mut bm = validity.clone();
            bm.negate_assign(n);
            return Ok(bm);
        }
        _ => {}
    }
    let vwords = validity.as_words();
    let words = if let Some(v) = col.code_view() {
        // Evaluate once per distinct dictionary value, then scan codes.
        let code_matches: Vec<bool> = v
            .dict
            .iter()
            .map(|s| p.matches_value(&Value::Str(s.clone())))
            .collect();
        scan_codes_masked(v.codes, &code_matches, vwords)
    } else if let Some(v) = col.float_view() {
        scan_f64_masked(v.values, &numeric_scan(p), vwords)
    } else if let Some(v) = col.int_view() {
        scan_i64_masked(v.values, &numeric_scan(p), vwords)
    } else if let Some(v) = col.bool_view() {
        // A bool plane has two possible values; evaluating the predicate
        // once per outcome is exact for every predicate kind.
        scan_bools_masked(
            v.values,
            p.matches_value(&Value::Bool(true)),
            p.matches_value(&Value::Bool(false)),
            vwords,
        )
    } else {
        return Ok(Bitmap::zeros(n));
    };
    Ok(Bitmap::from_words(words, n))
}

/// Lowers a scanning predicate over a *numeric* plane (float or int) onto
/// the kernel crate's [`NumericScan`], replicating `Value` comparison
/// semantics exactly: numeric and bool constants widen to `f64`
/// (`Value::as_f64`), a null constant matches nothing, and a string
/// constant has a row-independent outcome (the total order places every
/// number before every string, and loose equality across the divide is
/// false), which const-folds to a [`NumericScan::Const`].
fn numeric_scan(p: &Predicate) -> NumericScan {
    match p {
        Predicate::Compare { op, value, .. } => {
            if let Some(c) = value.as_f64() {
                let op = match op {
                    CompareOp::Eq => CmpOp::Eq,
                    CompareOp::Ne => CmpOp::Ne,
                    CompareOp::Lt => CmpOp::Lt,
                    CompareOp::Le => CmpOp::Le,
                    CompareOp::Gt => CmpOp::Gt,
                    CompareOp::Ge => CmpOp::Ge,
                };
                NumericScan::Cmp { op, constant: c }
            } else if value.is_null() {
                NumericScan::Const { matches: false }
            } else {
                // String constant vs numeric plane: every number sorts
                // before every string and never loose-equals one.
                NumericScan::Const {
                    matches: matches!(op, CompareOp::Ne | CompareOp::Lt | CompareOp::Le),
                }
            }
        }
        Predicate::Between { low, high, .. } => NumericScan::Between {
            low: *low,
            high: *high,
        },
        Predicate::InSet { values, .. } => NumericScan::InSet {
            // Non-numeric members (strings, nulls) never loose-equal a
            // numeric row value; dropping them is exact.
            values: values.iter().filter_map(Value::as_f64).collect(),
        },
        Predicate::IsNull { .. } | Predicate::NotNull { .. } => {
            unreachable!("null tests are compiled on the validity plane")
        }
    }
}

/// The compiled twin of [`Query::selection_rows`]: the candidate rows a
/// sub-table selection over `query`'s result may draw from, computed by
/// compiling the expression tree to a bitmap and applying the query's
/// sort-aware limit to the set bits.
pub fn compiled_selection_rows(table: &Table, query: &Query) -> Result<Vec<usize>> {
    let rows = query_bitmap(table, &query.expr)?.indices();
    Ok(query.restrict_selection_rows(table, rows)?)
}

/// Like [`compiled_selection_rows`], with a per-session leaf cache.
pub fn compiled_selection_rows_cached(
    table: &Table,
    query: &Query,
    cache: &LeafBitmapCache,
) -> Result<Vec<usize>> {
    let rows = query_bitmap_cached(table, &query.expr, cache)?.indices();
    Ok(query.restrict_selection_rows(table, rows)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CoreError;
    use subtab_data::SortOrder;

    fn table() -> Table {
        Table::builder()
            .column_str(
                "airline",
                vec![Some("AA"), Some("DL"), None, Some("UA"), Some("DL")],
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

    const QUERIES: [&str; 13] = [
        "airline = 'DL'",
        "airline != 'DL'",
        "NOT airline = 'DL'",
        "airline IS NULL",
        "airline IS NOT NULL",
        "distance > 500 AND cancelled = 0",
        "distance > 500 OR airline = 'AA'",
        "NOT (distance > 500 OR airline = 'AA')",
        "airline IN ('AA', 'UA') OR (cancelled = 1 AND NOT distance IS NULL)",
        "airline = 'ZZ'",
        "TRUE",
        "FALSE",
        "distance BETWEEN 100 AND 1000",
    ];

    fn rows_of(t: &Table, text: &str) -> Vec<usize> {
        let q: Query = text.parse().unwrap();
        compiled_selection_rows(t, &q).unwrap()
    }

    fn brute_rows_of(t: &Table, text: &str) -> Vec<usize> {
        let q: Query = text.parse().unwrap();
        q.selection_rows(t).unwrap()
    }

    #[test]
    fn compiled_rows_match_the_per_row_reference() {
        let t = table();
        for text in QUERIES {
            assert_eq!(rows_of(&t, text), brute_rows_of(&t, text), "query: {text}");
        }
    }

    #[test]
    fn cached_compilation_is_bit_identical_and_reuses_leaves() {
        let t = table();
        let cache = LeafBitmapCache::new();
        for text in QUERIES {
            let q: Query = text.parse().unwrap();
            let cached = compiled_selection_rows_cached(&t, &q, &cache).unwrap();
            assert_eq!(cached, brute_rows_of(&t, text), "query: {text}");
        }
        let misses_after_first_pass = cache.misses();
        assert!(!cache.is_empty());
        // Replaying the same workload answers every leaf from the cache.
        for text in QUERIES {
            let q: Query = text.parse().unwrap();
            let cached = compiled_selection_rows_cached(&t, &q, &cache).unwrap();
            assert_eq!(cached, rows_of(&t, text), "query: {text}");
        }
        assert_eq!(cache.misses(), misses_after_first_pass, "no new misses");
        assert!(cache.hits() > 0);
        // A *new* composite query made of already-seen leaves adds no
        // entries and compiles entirely from the cache.
        let before = (cache.len(), cache.misses());
        let q: Query = "airline = 'DL' AND distance > 500".parse().unwrap();
        compiled_selection_rows_cached(&t, &q, &cache).unwrap();
        assert_eq!(cache.len(), before.0, "no new leaf entries");
        assert_eq!(cache.misses(), before.1, "both leaves were cache hits");
    }

    #[test]
    fn short_circuit_preserves_and_semantics() {
        let t = table();
        // The first conjunct matches nothing; every evaluation order and
        // skip must still produce the empty set, and the unknown-free
        // remainder must not be required.
        for text in [
            "airline = 'ZZ' AND distance > 0",
            "distance > 0 AND airline = 'ZZ'",
            "FALSE AND airline = 'DL' AND distance > 0",
            "airline = 'ZZ' AND (distance > 0 OR cancelled = 1)",
            "airline IS NULL AND cancelled = 1 AND distance > 0",
        ] {
            assert_eq!(rows_of(&t, text), brute_rows_of(&t, text), "query: {text}");
        }
    }

    #[test]
    fn short_circuit_still_reports_unknown_columns() {
        let t = table();
        // The emptying conjunct comes first, but compilation must still
        // report the unknown column the skipped leaf references.
        let q: Query = "airline = 'ZZ' AND no_such = 1".parse().unwrap();
        assert!(matches!(
            compiled_selection_rows(&t, &q),
            Err(CoreError::Data(DataError::UnknownColumn(c))) if c == "no_such"
        ));
        // And with two unknown columns, the *first in tree order* wins,
        // exactly like the unreordered fold.
        let q: Query = "zzz_late = 1 AND aaa_early = 2".parse().unwrap();
        assert!(matches!(
            compiled_selection_rows(&t, &q),
            Err(CoreError::Data(DataError::UnknownColumn(c))) if c == "zzz_late"
        ));
    }

    #[test]
    fn kernel_leaf_bitmaps_match_the_per_row_reference() {
        let t = table();
        let leaves = [
            "airline = 'DL'",
            "airline != 'DL'",
            "airline IN ('AA', 'UA')",
            "distance > 500",
            "distance <= 700",
            "distance BETWEEN 100 AND 1000",
            "cancelled = 0",
            "cancelled != 1",
            "distance IS NULL",
            "airline IS NOT NULL",
            // Cross-type constants: string vs numeric plane const-folds,
            // numeric vs dictionary plane matches nothing.
            "distance = 'oops'",
            "distance != 'oops'",
            "distance < 'oops'",
            "airline = 5",
        ];
        for text in leaves {
            let q: Query = text.parse().unwrap();
            let QueryExpr::Leaf(p) = &q.expr else {
                panic!("not a leaf: {text}");
            };
            let mut reference = Bitmap::zeros(t.num_rows());
            for r in 0..t.num_rows() {
                if p.matches(&t, r).unwrap() {
                    reference.set(r);
                }
            }
            assert_eq!(leaf_bitmap(&t, p).unwrap(), reference, "leaf: {text}");
        }
    }

    #[test]
    fn and_cost_rank_orders_leaves_by_refined_cost() {
        // Wide table exercising the rank ingredients: dictionary
        // cardinality and null fraction.
        let n = 300usize;
        let mut builder = Table::builder()
            .column_str(
                "low_card",
                (0..n)
                    .map(|i| Some(if i % 2 == 0 { "a" } else { "b" }))
                    .collect(),
            )
            .column_f64("dense_num", (0..n).map(|i| Some(i as f64)).collect())
            .column_f64(
                "sparse_num",
                (0..n)
                    .map(|i| if i % 10 == 0 { Some(i as f64) } else { None })
                    .collect(),
            )
            .column_i64("ints", (0..n).map(|i| Some(i as i64)).collect());
        let high_card: Vec<String> = (0..n).map(|i| format!("v{i}")).collect();
        builder = builder.column_str(
            "high_card",
            high_card.iter().map(|s| Some(s.as_str())).collect(),
        );
        let t = builder.build().unwrap();

        let rank = |text: &str| {
            let q: Query = text.parse().unwrap();
            and_cost_rank(&t, None, &q.expr)
        };
        // Null tests beat every scan.
        assert!(rank("dense_num IS NULL") < rank("low_card = 'a'"));
        // Narrow dictionaries beat wide ones; every dictionary beats a
        // numeric scan.
        assert!(rank("low_card = 'a'") < rank("high_card = 'v7'"));
        assert!(rank("high_card = 'v7'") < rank("dense_num > 10"));
        // Mostly-null planes get a bonus over dense ones of the same type.
        assert!(rank("sparse_num > 10") < rank("dense_num > 10"));
        // Int planes pay the widening surcharge over float planes.
        assert!(rank("dense_num > 10") < rank("ints > 10"));
        // Composite subtrees go last.
        assert!(rank("dense_num > 10") < rank("ints > 10 OR dense_num > 10"));
    }

    #[test]
    fn cheaper_leaf_is_evaluated_first_in_an_and_chain() {
        let t = table();
        // Tree order puts the expensive float scan first, but the dictionary
        // leaf is cheaper and matches nothing, so cheapest-first evaluation
        // must compile ONLY the dictionary leaf and skip the float scan
        // entirely. The leaf cache records exactly what was compiled.
        let cache = LeafBitmapCache::new();
        let q: Query = "distance > 500 AND airline = 'ZZ'".parse().unwrap();
        let rows = compiled_selection_rows_cached(&t, &q, &cache).unwrap();
        assert!(rows.is_empty());
        assert_eq!(
            cache.len(),
            1,
            "only the cheap emptying leaf should have been compiled"
        );
        assert_eq!(cache.misses(), 1);
        // And the compiled entry is the dictionary leaf: re-running it alone
        // is answered from the cache.
        let single: Query = "airline = 'ZZ'".parse().unwrap();
        compiled_selection_rows_cached(&t, &single, &cache).unwrap();
        assert_eq!(cache.misses(), 1, "dictionary leaf was already cached");
        assert!(cache.hits() > 0);
    }

    #[test]
    fn null_tests_compile_to_validity_plane_ops() {
        let t = table();
        let not_null =
            query_bitmap(&t, &"distance IS NOT NULL".parse::<Query>().unwrap().expr).unwrap();
        assert_eq!(
            &not_null,
            t.column("distance").unwrap().validity(),
            "IS NOT NULL is exactly the validity bitmap"
        );
        let is_null = query_bitmap(&t, &"distance IS NULL".parse::<Query>().unwrap().expr).unwrap();
        assert_eq!(is_null.indices(), vec![3]);
        let mut complement = not_null.clone();
        complement.negate_assign(t.num_rows());
        assert_eq!(is_null, complement);
    }

    #[test]
    fn not_complements_over_nulls_exactly() {
        let t = table();
        // Row 2's airline is NULL: `= 'DL'` and `NOT = 'DL'` are both false
        // there under two-valued evaluation, so NOT must *include* the NULL
        // row (complement semantics), matching the reference walk.
        assert_eq!(rows_of(&t, "airline = 'DL'"), vec![1, 4]);
        assert_eq!(rows_of(&t, "NOT airline = 'DL'"), vec![0, 2, 3]);
        // `!=` excludes the NULL row instead: not a complement of `=`.
        assert_eq!(rows_of(&t, "airline != 'DL'"), vec![0, 3]);
    }

    /// A thread that panics while holding the cache lock poisons it; later
    /// compilations must recover the map and keep answering correctly.
    #[test]
    fn a_poisoned_leaf_cache_keeps_serving() {
        let t = table();
        let cache = LeafBitmapCache::new();
        let warm: Query = QUERIES[5].parse().unwrap();
        compiled_selection_rows_cached(&t, &warm, &cache).unwrap();
        let poisoner = std::thread::scope(|scope| {
            scope
                .spawn(|| {
                    let _guard = cache.map.lock().unwrap();
                    panic!("poisoning the leaf cache");
                })
                .join()
        });
        assert!(poisoner.is_err());
        assert!(cache.map.is_poisoned());
        assert!(!cache.is_empty());
        for text in QUERIES {
            let q: Query = text.parse().unwrap();
            let cached = compiled_selection_rows_cached(&t, &q, &cache).unwrap();
            assert_eq!(cached, brute_rows_of(&t, text), "query: {text}");
        }
        assert!(cache.hits() > 0);
    }

    #[test]
    fn limit_and_sort_apply_after_compilation() {
        let t = table();
        let q = Query::expr("cancelled = 0".parse().unwrap())
            .sort_by("distance", SortOrder::Descending)
            .limit(2);
        // cancelled = 0 matches rows {0, 1, 4}; top-2 by distance are 1, 4.
        assert_eq!(compiled_selection_rows(&t, &q).unwrap(), vec![1, 4]);
        assert_eq!(q.selection_rows(&t).unwrap(), vec![1, 4]);
    }

    #[test]
    fn unknown_columns_are_typed_data_errors() {
        let t = table();
        let q: Query = "no_such_column = 1".parse().unwrap();
        assert!(matches!(
            compiled_selection_rows(&t, &q),
            Err(CoreError::Data(DataError::UnknownColumn(c))) if c == "no_such_column"
        ));
    }
}
