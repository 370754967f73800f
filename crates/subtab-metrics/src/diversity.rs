//! Diversity (Definition 3.7).

use subtab_binning::{BinId, BinnedTable};

/// Jaccard-like similarity of two rows of a binned (sub-)table: the fraction
/// of columns whose values fall in the same bin.
///
/// Two missing values are considered similar (they share the dedicated `NaN`
/// bin), matching the paper's observation that cancelled-flight rows look
/// alike precisely because many fields are `NaN`.
pub fn jaccard_similarity(binned: &BinnedTable, row_a: usize, row_b: usize) -> f64 {
    let m = binned.num_columns();
    if m == 0 {
        return 0.0;
    }
    let same = (0..m)
        .filter(|&c| binned.bin_id(row_a, c) == binned.bin_id(row_b, c))
        .count();
    same as f64 / m as f64
}

/// Diversity of a binned sub-table: `1 −` the average pairwise Jaccard
/// similarity over all unordered row pairs.
///
/// Sub-tables with fewer than two rows are maximally diverse by convention
/// (there is no repetition to penalise).
pub fn diversity(binned_sub: &BinnedTable) -> f64 {
    let k = binned_sub.num_rows();
    if k < 2 {
        return 1.0;
    }
    let mut total = 0.0;
    let mut pairs = 0usize;
    for a in 0..k {
        for b in (a + 1)..k {
            total += jaccard_similarity(binned_sub, a, b);
            pairs += 1;
        }
    }
    1.0 - total / pairs as f64
}

/// Diversity of the sub-table of `binned` given by `rows` and `cols`
/// (indices into `binned`), read straight from the table's codes without
/// materialising the sub-table. Rows and columns out of range are ignored,
/// as cell coverage ignores them; on in-range indices the result equals
/// `diversity(&binned.take_rows(rows).take_columns(cols))` bit for bit
/// (same pairs, same order, same arithmetic).
pub fn subtable_diversity(binned: &BinnedTable, rows: &[usize], cols: &[usize]) -> f64 {
    let n = binned.num_rows();
    let rows: Vec<usize> = rows.iter().copied().filter(|&r| r < n).collect();
    let columns: Vec<&[BinId]> = cols
        .iter()
        .filter(|&&c| c < binned.num_columns())
        .map(|&c| binned.codes(c))
        .collect();
    let (k, m) = (rows.len(), columns.len());
    // With no columns every pair's similarity is 0, so diversity is 1.
    if k < 2 || m == 0 {
        return 1.0;
    }
    let mut total = 0.0;
    let mut pairs = 0usize;
    for a in 0..k {
        for b in (a + 1)..k {
            let (ra, rb) = (rows[a], rows[b]);
            let same = columns.iter().filter(|c| c[ra] == c[rb]).count();
            total += same as f64 / m as f64;
            pairs += 1;
        }
    }
    1.0 - total / pairs as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use subtab_binning::{Binner, BinningConfig};
    use subtab_data::Table;

    fn binned(rows: &[(&str, i64)]) -> BinnedTable {
        let t = Table::builder()
            .column_str("a", rows.iter().map(|(s, _)| Some(*s)).collect())
            .column_i64("b", rows.iter().map(|(_, i)| Some(*i)).collect())
            .build()
            .unwrap();
        let binner = Binner::fit(&t, &BinningConfig::default()).unwrap();
        binner.apply(&t).unwrap()
    }

    #[test]
    fn identical_rows_have_similarity_one_and_diversity_zero() {
        let bt = binned(&[("x", 1), ("x", 1), ("x", 1)]);
        assert_eq!(jaccard_similarity(&bt, 0, 1), 1.0);
        assert_eq!(diversity(&bt), 0.0);
    }

    #[test]
    fn completely_different_rows_have_diversity_one() {
        let bt = binned(&[("x", 1), ("y", 2), ("z", 3)]);
        assert_eq!(jaccard_similarity(&bt, 0, 1), 0.0);
        assert_eq!(diversity(&bt), 1.0);
    }

    #[test]
    fn partial_overlap() {
        // Rows share the second column only: similarity 1/2.
        let bt = binned(&[("x", 1), ("y", 1)]);
        assert!((jaccard_similarity(&bt, 0, 1) - 0.5).abs() < 1e-12);
        assert!((diversity(&bt) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn small_subtables_are_maximally_diverse() {
        let bt = binned(&[("x", 1)]);
        assert_eq!(diversity(&bt), 1.0);
        let empty = bt.take_rows(&[]);
        assert_eq!(diversity(&empty), 1.0);
    }

    #[test]
    fn nulls_in_same_bin_count_as_similar() {
        let t = Table::builder()
            .column_f64("x", vec![None, None])
            .column_i64("y", vec![Some(1), Some(2)])
            .build()
            .unwrap();
        let binner = Binner::fit(&t, &BinningConfig::default()).unwrap();
        let bt = binner.apply(&t).unwrap();
        assert!((jaccard_similarity(&bt, 0, 1) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn subtable_diversity_matches_the_materialised_subtable() {
        let bt = binned(&[("x", 1), ("x", 2), ("y", 1), ("z", 3), ("x", 1)]);
        let cases: [(&[usize], &[usize]); 6] = [
            (&[0, 1, 2, 3, 4], &[0, 1]),
            (&[4, 0, 2], &[1]),
            (&[0, 0, 3], &[1, 0, 1]),
            (&[1, 3], &[]),
            (&[2], &[0, 1]),
            (&[], &[0]),
        ];
        for (rows, cols) in cases {
            let want = diversity(&bt.take_rows(rows).take_columns(cols));
            let got = subtable_diversity(&bt, rows, cols);
            assert_eq!(got.to_bits(), want.to_bits(), "rows {rows:?} cols {cols:?}");
        }
        // Out-of-range indices drop out.
        assert_eq!(
            subtable_diversity(&bt, &[0, 9, 1, 2], &[0, 7, 1]).to_bits(),
            subtable_diversity(&bt, &[0, 1, 2], &[0, 1]).to_bits()
        );
    }

    #[test]
    fn diversity_is_between_zero_and_one() {
        let bt = binned(&[("x", 1), ("x", 2), ("y", 1), ("z", 3)]);
        let d = diversity(&bt);
        assert!((0.0..=1.0).contains(&d));
    }
}
