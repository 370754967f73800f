//! Equivalence suite for the compiled query frontend: on every planted
//! dataset, the bitmap-compiled evaluation of a `QueryExpr` tree must be
//! bit-identical to the per-row `QueryExpr::matches` reference — including
//! NULL-bearing columns, empty-match expressions, and deeply nested trees —
//! the compiled candidate rows of the benchmark queries must equal the
//! per-row `Query::selection_rows`, and selections over them must agree at
//! every thread count.

use subtab_core::select::select_sub_table;
use subtab_core::{
    compiled_selection_rows, query_bitmap, PreprocessedTable, SelectionParams, SubTabConfig,
};
use subtab_data::{Predicate, Query, QueryExpr, Table, Value};
use subtab_datasets::{benchmark_ast_query, benchmark_deep_nest_query, DatasetKind, DatasetSize};

const ALL_KINDS: [DatasetKind; 6] = [
    DatasetKind::Flights,
    DatasetKind::Cyber,
    DatasetKind::Spotify,
    DatasetKind::CreditCard,
    DatasetKind::UsFunds,
    DatasetKind::BankLoans,
];

/// The name of a column that actually contains at least one NULL, if any.
fn null_column(table: &Table) -> Option<String> {
    for (c, col) in table.columns().iter().enumerate() {
        if (0..table.num_rows()).any(|r| col.is_null(r)) {
            return table.schema().field_at(c).map(|f| f.name.clone());
        }
    }
    None
}

/// The first non-null value of the named column.
fn first_value(table: &Table, column: &str) -> Option<Value> {
    let col = table.column(column)?;
    (0..table.num_rows())
        .map(|r| col.get(r))
        .find(|v| !v.is_null())
}

/// A labelled battery of expression shapes for one table: the shared
/// benchmark trees plus NULL-column probes and guaranteed-empty matches.
fn expr_suite(table: &Table) -> Vec<(String, QueryExpr)> {
    let mut out = vec![
        ("benchmark ast".to_string(), benchmark_ast_query(table).expr),
        (
            "deep nest".to_string(),
            benchmark_deep_nest_query(table).expr,
        ),
    ];
    // Probe a column that genuinely carries NULLs (every planted dataset
    // should have one; skip gracefully if a spec has none).
    if let Some(nc) = null_column(table) {
        out.push((
            format!("{nc} IS NULL"),
            QueryExpr::leaf(Predicate::is_null(&nc)),
        ));
        out.push((
            format!("NOT {nc} IS NOT NULL"),
            QueryExpr::leaf(Predicate::not_null(&nc)).negated(),
        ));
        if let Some(v) = first_value(table, &nc) {
            // NOT (c = v) is NOT the same as c != v on NULL rows; the
            // compiled complement must reproduce the two-valued semantics.
            out.push((
                format!("NOT {nc} = <first>"),
                QueryExpr::leaf(Predicate::eq(&nc, v)).negated(),
            ));
        }
    }
    // An expression no row can satisfy, on the first column.
    if let Some(f) = table.schema().field_at(0) {
        out.push((
            format!("{} empty match", f.name),
            QueryExpr::and(vec![
                QueryExpr::leaf(Predicate::is_null(&f.name)),
                QueryExpr::leaf(Predicate::not_null(&f.name)),
            ]),
        ));
    }
    out
}

/// Rows matched by the per-row reference evaluator.
fn brute_rows(table: &Table, expr: &QueryExpr) -> Vec<usize> {
    (0..table.num_rows())
        .filter(|&r| expr.matches(table, r).expect("reference evaluation"))
        .collect()
}

/// Maximum leaf depth of an expression tree.
fn expr_depth(expr: &QueryExpr) -> usize {
    match expr {
        QueryExpr::Leaf(_) => 1,
        QueryExpr::Not(inner) => 1 + expr_depth(inner),
        QueryExpr::And(children) | QueryExpr::Or(children) => {
            1 + children.iter().map(expr_depth).max().unwrap_or(0)
        }
    }
}

#[test]
fn compiled_bitmaps_match_per_row_matches_on_every_planted_dataset() {
    for kind in ALL_KINDS {
        let dataset = kind.build(DatasetSize::Tiny, 7);
        let table = &dataset.table;
        let mut saw_empty = false;
        for (label, expr) in expr_suite(table) {
            let reference = brute_rows(table, &expr);
            let bitmap = query_bitmap(table, &expr).expect("compiles");
            assert_eq!(
                bitmap.indices(),
                reference,
                "{kind:?} [{label}]: compiled bitmap diverges from per-row matches"
            );
            assert_eq!(
                bitmap.count(),
                reference.len(),
                "{kind:?} [{label}]: popcount diverges"
            );
            saw_empty |= reference.is_empty();
            // The canonical rewrite must preserve the matched row set.
            let canon = expr.canonical();
            assert_eq!(
                query_bitmap(table, &canon)
                    .expect("canonical compiles")
                    .indices(),
                reference,
                "{kind:?} [{label}]: canonicalization changed the row set"
            );
        }
        assert!(saw_empty, "{kind:?}: suite must include an empty match");
    }
}

#[test]
fn compiled_and_per_row_selection_engines_agree_at_every_thread_count() {
    for kind in ALL_KINDS {
        let dataset = kind.build(DatasetSize::Tiny, 7);
        let pre = PreprocessedTable::new(dataset.table, &SubTabConfig::fast()).unwrap();
        let params = SelectionParams::new(6, 4);
        for query in [
            benchmark_ast_query(pre.table()),
            benchmark_deep_nest_query(pre.table()),
        ] {
            assert_eq!(
                compiled_selection_rows(pre.table(), &query).unwrap(),
                query.selection_rows(pre.table()).unwrap(),
                "{kind:?}: compiled rows diverge from the per-row walk"
            );
            let reference = select_sub_table(&pre, Some(&query), &params, 5, 1).unwrap();
            assert!(
                !reference.row_indices.is_empty(),
                "{kind:?}: benchmark query must match rows"
            );
            for threads in [1usize, 2, 4] {
                let compiled = select_sub_table(&pre, Some(&query), &params, 5, threads).unwrap();
                assert_eq!(
                    compiled.row_indices, reference.row_indices,
                    "{kind:?} threads {threads}: rows diverge"
                );
                assert_eq!(
                    compiled.columns, reference.columns,
                    "{kind:?} threads {threads}: columns diverge"
                );
            }
        }
    }
}

/// The acceptance-criteria round trip: a nested query of depth ≥ 3 goes
/// text → AST → canonical key → compiled bitmap, the compiled selection is
/// bit-identical to brute force, and a commuted respelling lands on the
/// same canonical selection key (hence the same server cache entry).
#[test]
fn nested_text_query_round_trips_through_the_compiled_engine() {
    let dataset = DatasetKind::Cyber.build(DatasetSize::Tiny, 11);
    let table = &dataset.table;

    let text = "flagged = 1 AND (protocol = 'udp' OR NOT protocol IN ('tcp', 'icmp')) LIMIT 20";
    let query: Query = text.parse().expect("nested query parses");
    assert!(
        expr_depth(&query.expr) >= 3,
        "acceptance query must nest at least three levels"
    );

    // Text → AST → printed text → AST again: stable canonical key.
    let reprinted = query.to_string();
    let reparsed: Query = reprinted.parse().expect("printed form reparses");
    assert_eq!(query.selection_key(), reparsed.selection_key());

    // A commuted, De-Morganed respelling shares the canonical key.
    let commuted: Query =
        "(NOT (protocol = 'icmp' OR protocol = 'tcp') OR protocol = 'udp') AND flagged = 1.0 LIMIT 20"
            .parse()
            .expect("commuted spelling parses");
    assert_eq!(query.selection_key(), commuted.selection_key());

    // Compiled selection == per-row selection == brute force + LIMIT.
    let compiled = compiled_selection_rows(table, &query).expect("compiles");
    let per_row = query.selection_rows(table).expect("reference selects");
    assert_eq!(compiled, per_row, "compiled selection diverges");
    let mut brute = brute_rows(table, &query.expr);
    assert!(!brute.is_empty(), "nested query must match rows");
    brute.truncate(20);
    assert_eq!(compiled, brute, "LIMIT-truncated brute force diverges");
}
