//! Golden-value tests for the KDE cut points.
//!
//! The fixture in `tests/golden/kde_cuts_ref.txt` records, for every planted
//! evaluation dataset and every column the binner treats numerically, the
//! cut points of `kde_cuts` as hex `f64::to_bits`; they must keep
//! reproducing it byte for byte. The fixture was written by a dense
//! evaluator with one `exp` per (grid point, sample) pair, so a second test
//! checks the shipped windowed grid against such a dense sum, built here
//! from the public `GaussianKde::fit` and `bandwidth` alone.

use subtab_binning::kde::{kde_cuts, GaussianKde};
use subtab_binning::BinningConfig;
use subtab_data::ColumnType;
use subtab_datasets::{DatasetKind, DatasetSize};

const DATASETS: &[DatasetKind] = &[
    DatasetKind::Flights,
    DatasetKind::Cyber,
    DatasetKind::Spotify,
    DatasetKind::CreditCard,
    DatasetKind::UsFunds,
    DatasetKind::BankLoans,
];

/// The seed the `preprocess` benchmark builds its datasets with.
const SEED: u64 = 31;

/// Points of the binner's fixed density grid.
const GRID_POINTS: usize = 256;

/// Numeric values of every column the binner would cut numerically, exactly
/// as `fit_numeric` collects them.
fn numeric_columns(kind: DatasetKind, config: &BinningConfig) -> Vec<(String, Vec<f64>)> {
    let ds = kind.build(DatasetSize::Tiny, SEED);
    let mut out = Vec::new();
    for col in ds.table.columns() {
        let numeric = match col.column_type() {
            ColumnType::Float => true,
            ColumnType::Int => col.distinct_count() > config.categorical_int_threshold,
            ColumnType::Str | ColumnType::Bool => false,
        };
        if !numeric {
            continue;
        }
        let values: Vec<f64> = (0..col.len()).filter_map(|r| col.get_f64(r)).collect();
        out.push((col.name().to_string(), values));
    }
    out
}

/// Renders every dataset's cuts in the fixture format:
/// `<dataset> <column> <hex bits of each cut>`.
fn render_cuts() -> String {
    let config = BinningConfig::default();
    let mut out = String::new();
    for &kind in DATASETS {
        for (name, values) in numeric_columns(kind, &config) {
            out.push_str(kind.label());
            out.push(' ');
            out.push_str(&name);
            for c in kde_cuts(&values, config.num_bins) {
                out.push_str(&format!(" {:016x}", c.to_bits()));
            }
            out.push('\n');
        }
    }
    out
}

/// The dense-sum oracle of the shipped grid: the finite samples' range
/// padded by one bandwidth per side, split into `GRID_POINTS` uniform
/// points, each density a sum of one `exp` per sample in ascending order.
fn dense_grid(values: &[f64], bandwidth: f64) -> Vec<(f64, f64)> {
    let mut samples: Vec<f64> = values.iter().copied().filter(|v| v.is_finite()).collect();
    samples.sort_by(f64::total_cmp);
    let lo = samples[0] - bandwidth;
    let hi = samples[samples.len() - 1] + bandwidth;
    let norm = 1.0 / ((2.0 * std::f64::consts::PI).sqrt() * bandwidth * samples.len() as f64);
    (0..GRID_POINTS)
        .map(|i| {
            let x = lo + (hi - lo) * i as f64 / (GRID_POINTS - 1) as f64;
            let sum: f64 = samples
                .iter()
                .map(|&s| (-0.5 * ((x - s) / bandwidth).powi(2)).exp())
                .sum();
            (x, sum * norm)
        })
        .collect()
}

#[test]
fn kde_cuts_match_the_golden_fixture() {
    let golden = include_str!("golden/kde_cuts_ref.txt");
    assert_eq!(
        render_cuts(),
        golden,
        "KDE cuts drifted from the golden fixture \
         (run the ignored `regenerate_golden_fixture` test if the drift is intentional)"
    );
}

#[test]
fn shipped_grid_matches_a_dense_sum_on_every_planted_dataset() {
    let config = BinningConfig::default();
    let mut checked = 0;
    for &kind in DATASETS {
        for (name, values) in numeric_columns(kind, &config) {
            let Some(kde) = GaussianKde::fit(&values) else {
                continue;
            };
            let shipped = kde.density_grid();
            let dense = dense_grid(&values, kde.bandwidth());
            assert_eq!(shipped.len(), GRID_POINTS, "{} {name}", kind.label());
            let peak = dense.iter().map(|&(_, d)| d).fold(0.0f64, f64::max);
            assert!(peak > 0.0, "{} {name}: empty density", kind.label());
            for (&(xs, ds), &(xd, dd)) in shipped.iter().zip(&dense) {
                assert_eq!(
                    xs.to_bits(),
                    xd.to_bits(),
                    "{} {name}: grid positions must be bit-identical",
                    kind.label()
                );
                assert!(
                    (ds - dd).abs() <= 1e-12 * peak,
                    "{} {name}: density at {xs} drifted: shipped {ds} vs dense {dd}",
                    kind.label()
                );
            }
            checked += 1;
        }
    }
    assert!(checked >= DATASETS.len(), "only {checked} columns checked");
}

/// Regenerates the golden fixture in the source tree. Run explicitly with
/// `cargo test -p subtab-binning --test kde_golden -- --ignored` after an
/// intentional change to the cut points, and review the diff.
#[test]
#[ignore]
fn regenerate_golden_fixture() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/kde_cuts_ref.txt");
    std::fs::write(path, render_cuts()).expect("write fixture");
}
