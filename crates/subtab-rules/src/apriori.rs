//! Level-wise (Apriori) frequent-itemset mining over a binned table — the
//! preserved reference twin of the vertical bitmap miner.
//!
//! Rows of the binned table play the role of transactions; the items of a
//! row are its (column, bin) pairs — interned as dense ids — so every
//! transaction has exactly one item per column and candidate itemsets never
//! contain two items from the same column. This is the "quantitative
//! association rules" setting of Srikant & Agrawal that the paper builds
//! on.
//!
//! This module keeps the seed architecture on purpose: level-wise candidate
//! generation with hash-map counting at level 1 and one full row scan per
//! candidate afterwards. [`crate::bitmap::frequent_itemsets_bitmap`] is the
//! production path; its output is pinned identical to this one.

use crate::interner::{ItemId, ItemInterner};
use std::collections::HashMap;
use subtab_binning::BinnedTable;

/// A frequent itemset together with its support count.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FrequentItemset {
    /// The item ids, ascending (ids are column-major, so this is also
    /// (column, bin) order).
    pub items: Vec<ItemId>,
    /// Number of rows containing all the items.
    pub count: usize,
}

impl FrequentItemset {
    /// Support as a fraction of the given row count.
    pub fn support(&self, num_rows: usize) -> f64 {
        if num_rows == 0 {
            0.0
        } else {
            self.count as f64 / num_rows as f64
        }
    }
}

/// Mines all frequent itemsets with support ≥ `min_support` and size ≤
/// `max_size`, restricted to the given row subset (`None` = all rows).
///
/// Returns the itemsets grouped by size: index `k` of the result holds the
/// frequent itemsets of size `k + 1`, each level ascending by item ids.
pub fn frequent_itemsets(
    binned: &BinnedTable,
    interner: &ItemInterner,
    min_support: f64,
    max_size: usize,
    rows: Option<&[usize]>,
) -> Vec<Vec<FrequentItemset>> {
    let all_rows: Vec<usize>;
    let rows: &[usize] = match rows {
        Some(r) => r,
        None => {
            all_rows = (0..binned.num_rows()).collect();
            &all_rows
        }
    };
    let n = rows.len();
    if n == 0 || max_size == 0 {
        return Vec::new();
    }
    let min_count = ((min_support * n as f64).ceil() as usize).max(1);

    // Level 1: frequent single items.
    let mut counts: HashMap<ItemId, usize> = HashMap::new();
    for &r in rows {
        for c in 0..binned.num_columns() {
            *counts
                .entry(interner.row_item_id(binned, r, c))
                .or_insert(0) += 1;
        }
    }
    let mut level: Vec<FrequentItemset> = counts
        .into_iter()
        .filter(|&(_, c)| c >= min_count)
        .map(|(item, count)| FrequentItemset {
            items: vec![item],
            count,
        })
        .collect();
    level.sort_by(|a, b| a.items.cmp(&b.items));

    let mut levels = Vec::new();
    let mut size = 1usize;
    while !level.is_empty() && size <= max_size {
        levels.push(level.clone());
        if size == max_size {
            break;
        }
        // Candidate generation: join itemsets sharing the first k-1 items.
        let mut candidates: Vec<Vec<ItemId>> = Vec::new();
        for i in 0..level.len() {
            for j in (i + 1)..level.len() {
                let a = &level[i].items;
                let b = &level[j].items;
                if a[..size - 1] != b[..size - 1] {
                    // The level is sorted, so once prefixes diverge nothing
                    // further down will share the prefix with `a`.
                    break;
                }
                let last_a = a[size - 1];
                let last_b = b[size - 1];
                if interner.column_of(last_a) == interner.column_of(last_b) {
                    // One item per column.
                    continue;
                }
                let mut cand = a.clone();
                cand.push(last_b);
                cand.sort_unstable();
                candidates.push(cand);
            }
        }
        candidates.sort_unstable();
        candidates.dedup();

        // Support counting: one full row scan per candidate (the seed
        // architecture the bitmap miner replaces).
        let mut next: Vec<FrequentItemset> = Vec::new();
        for cand in candidates {
            let count = support_count(binned, interner, &cand, rows);
            if count >= min_count {
                next.push(FrequentItemset { items: cand, count });
            }
        }
        next.sort_by(|a, b| a.items.cmp(&b.items));
        level = next;
        size += 1;
    }
    levels
}

/// Support count of an arbitrary id set over a row subset, by linear scan
/// (the reference twin of [`crate::bitmap::VerticalIndex::support_count`]).
pub fn support_count(
    binned: &BinnedTable,
    interner: &ItemInterner,
    items: &[ItemId],
    rows: &[usize],
) -> usize {
    let decoded: Vec<crate::rule::Item> = items.iter().map(|&id| interner.item(id)).collect();
    rows.iter()
        .filter(|&&r| decoded.iter().all(|it| it.matches(binned, r)))
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use subtab_binning::{Binner, BinningConfig};
    use subtab_data::Table;

    /// 8 rows replicating the structure of the paper's example table (Fig. 3):
    /// cancelled flights have NaN departure times, year 2015.
    fn example_binned() -> BinnedTable {
        let t = Table::builder()
            .column_i64(
                "cancelled",
                vec![
                    Some(1),
                    Some(1),
                    Some(1),
                    Some(1),
                    Some(0),
                    Some(0),
                    Some(0),
                    Some(0),
                ],
            )
            .column_str(
                "dep_time",
                vec![
                    None,
                    None,
                    None,
                    None,
                    Some("morning"),
                    Some("morning"),
                    Some("evening"),
                    Some("evening"),
                ],
            )
            .column_i64(
                "year",
                vec![
                    Some(2015),
                    Some(2015),
                    Some(2015),
                    Some(2015),
                    Some(2016),
                    Some(2015),
                    Some(2015),
                    Some(2015),
                ],
            )
            .build()
            .unwrap();
        let binner = Binner::fit(&t, &BinningConfig::default()).unwrap();
        binner.apply(&t).unwrap()
    }

    #[test]
    fn single_items_counted_correctly() {
        let bt = example_binned();
        let interner = ItemInterner::from_binned(&bt);
        let levels = frequent_itemsets(&bt, &interner, 0.5, 1, None);
        assert_eq!(levels.len(), 1);
        // cancelled=1 (4 rows), cancelled=0 (4 rows), dep_time=NaN (4 rows),
        // year=2015 (7 rows) all have support >= 0.5.
        assert_eq!(levels[0].len(), 4);
        for fi in &levels[0] {
            assert!(fi.count >= 4);
            assert!(fi.support(8) >= 0.5);
        }
    }

    #[test]
    fn pairs_respect_one_item_per_column() {
        let bt = example_binned();
        let interner = ItemInterner::from_binned(&bt);
        let levels = frequent_itemsets(&bt, &interner, 0.4, 2, None);
        assert_eq!(levels.len(), 2);
        for fi in &levels[1] {
            assert_eq!(fi.items.len(), 2);
            assert_ne!(
                interner.column_of(fi.items[0]),
                interner.column_of(fi.items[1])
            );
        }
        // cancelled=1 ∧ dep_time=NaN must be among the frequent pairs (4 rows).
        let c = bt.column_index("cancelled").unwrap();
        let d = bt.column_index("dep_time").unwrap();
        let has_pair = levels[1].iter().any(|fi| {
            fi.items.iter().any(|&i| interner.column_of(i) == c)
                && fi.items.iter().any(|&i| interner.column_of(i) == d)
                && fi.count == 4
        });
        assert!(has_pair);
    }

    #[test]
    fn triples_found_with_lower_support() {
        let bt = example_binned();
        let interner = ItemInterner::from_binned(&bt);
        let levels = frequent_itemsets(&bt, &interner, 0.4, 3, None);
        assert_eq!(levels.len(), 3);
        // cancelled=1 ∧ dep_time=NaN ∧ year=2015 holds for 4 of 8 rows.
        assert!(levels[2].iter().any(|fi| fi.count == 4));
    }

    #[test]
    fn monotonicity_of_support() {
        let bt = example_binned();
        let interner = ItemInterner::from_binned(&bt);
        let levels = frequent_itemsets(&bt, &interner, 0.3, 3, None);
        // Every level-k itemset's count is at most the count of any subset at
        // level k-1 (anti-monotonicity of support).
        for k in 1..levels.len() {
            for fi in &levels[k] {
                for drop in 0..fi.items.len() {
                    let mut subset = fi.items.clone();
                    subset.remove(drop);
                    let parent = levels[k - 1]
                        .iter()
                        .find(|p| p.items == subset)
                        .expect("subset of a frequent itemset must be frequent");
                    assert!(parent.count >= fi.count);
                }
            }
        }
    }

    #[test]
    fn row_subset_restriction() {
        let bt = example_binned();
        let interner = ItemInterner::from_binned(&bt);
        let cancelled_rows: Vec<usize> = vec![0, 1, 2, 3];
        let levels = frequent_itemsets(&bt, &interner, 0.9, 1, Some(&cancelled_rows));
        // Within cancelled rows, cancelled=1, dep_time=NaN and year=2015 are
        // all frequent at 100%.
        assert_eq!(levels[0].len(), 3);
    }

    #[test]
    fn empty_inputs() {
        let bt = example_binned();
        let interner = ItemInterner::from_binned(&bt);
        assert!(frequent_itemsets(&bt, &interner, 0.5, 0, None).is_empty());
        assert!(frequent_itemsets(&bt, &interner, 0.5, 2, Some(&[])).is_empty());
        // Support > 1.0 finds nothing.
        assert!(frequent_itemsets(&bt, &interner, 1.5, 2, None)
            .first()
            .is_none_or(|l| l.is_empty()));
    }

    #[test]
    fn support_count_helper() {
        let bt = example_binned();
        let interner = ItemInterner::from_binned(&bt);
        let c = bt.column_index("cancelled").unwrap();
        let id = interner.row_item_id(&bt, 0, c);
        let rows: Vec<usize> = (0..bt.num_rows()).collect();
        assert_eq!(support_count(&bt, &interner, &[id], &rows), 4);
        assert_eq!(support_count(&bt, &interner, &[], &rows), 8);
    }
}
