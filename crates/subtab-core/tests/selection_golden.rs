//! Golden-value test for the selection output.
//!
//! The fixture in `tests/golden/selection_ref.txt` records, for every planted
//! dataset, the selected `row_indices` and `columns` of the landing view
//! (no query) and of three queries at the paper's default `k × l = 10 × 10`.
//! It was captured before the point-lane k-means kernel replaced the
//! centroid-lane scan, so it pins the whole selection pipeline — gather,
//! k-means seeding, Lloyd iterations, representatives and column
//! clustering — against the earlier code rather than against a twin living
//! in the same tree. Selections are bit-identical across ISA tiers and
//! thread counts, so the fixture holds on every machine, with or without
//! `SUBTAB_FORCE_SCALAR_KERNELS`.

use subtab_core::select::select_sub_table;
use subtab_core::{PreprocessedTable, SelectionParams, SubTabConfig};
use subtab_data::{Query, QueryExpr};
use subtab_datasets::{
    benchmark_filter, benchmark_filter_query, benchmark_projected_query, DatasetKind, DatasetSize,
};

const DATASETS: [DatasetKind; 6] = [
    DatasetKind::Flights,
    DatasetKind::Cyber,
    DatasetKind::Spotify,
    DatasetKind::CreditCard,
    DatasetKind::UsFunds,
    DatasetKind::BankLoans,
];

/// Seed of the dataset generators.
const DATASET_SEED: u64 = 11;

/// Every planted dataset, preprocessed with the fast configuration.
fn preprocessed() -> Vec<(DatasetKind, PreprocessedTable)> {
    DATASETS
        .into_iter()
        .map(|kind| {
            let dataset = kind.build(DatasetSize::Tiny, DATASET_SEED);
            let pre = PreprocessedTable::new(dataset.table, &SubTabConfig::fast())
                .expect("planted dataset preprocesses");
            (kind, pre)
        })
        .collect()
}

/// Renders every dataset's selections in the fixture format, one line per
/// view: `<dataset> <view> rows <indices…> cols <names…>` (tab-separated).
fn render(tables: &[(DatasetKind, PreprocessedTable)], threads: usize) -> String {
    let mut out = String::new();
    for (kind, pre) in tables {
        let table = pre.table();
        let views: [(&str, Option<Query>); 4] = [
            ("landing", None),
            ("filter", Some(benchmark_filter_query(table))),
            ("projected", Some(benchmark_projected_query(table))),
            (
                "negated",
                Some(Query::expr(
                    QueryExpr::leaf(benchmark_filter(table)).negated(),
                )),
            ),
        ];
        let params = SelectionParams::new(10, 10);
        for (label, query) in views {
            let r = select_sub_table(pre, query.as_ref(), &params, 7, threads)
                .expect("selection succeeds");
            let mut line = vec![kind.label().to_string(), label.to_string(), "rows".into()];
            line.extend(r.row_indices.iter().map(usize::to_string));
            line.push("cols".into());
            line.extend(r.columns.iter().cloned());
            out.push_str(&line.join("\t"));
            out.push('\n');
        }
    }
    out
}

#[test]
fn selections_match_the_golden_fixture() {
    let golden = include_str!("golden/selection_ref.txt");
    let tables = preprocessed();
    for threads in [1usize, 2] {
        assert_eq!(
            render(&tables, threads),
            golden,
            "selections at threads {threads} drifted from the golden fixture \
             (run the ignored `regenerate_golden_fixture` test if the drift is intentional)"
        );
    }
}

/// Regenerates the golden fixture in the source tree. Run explicitly with
/// `cargo test -p subtab-core --test selection_golden -- --ignored` after an
/// intentional change to the selection output, and review the diff.
#[test]
#[ignore]
fn regenerate_golden_fixture() {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/selection_ref.txt"
    );
    std::fs::write(path, render(&preprocessed(), 1)).expect("write fixture");
}
