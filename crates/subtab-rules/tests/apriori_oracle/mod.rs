//! Level-wise (Apriori) frequent-itemset mining over a binned table: the
//! reference oracle of the vertical bitmap miner.
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
//! candidate afterwards. `subtab_rules::bitmap::frequent_itemsets_bitmap`
//! is the library's engine; its output is pinned identical to this one.

use std::collections::HashMap;
use subtab_binning::BinnedTable;
use subtab_rules::bitmap::FrequentItemset;
use subtab_rules::interner::{ItemId, ItemInterner};

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
    let decoded: Vec<subtab_rules::Item> = items.iter().map(|&id| interner.item(id)).collect();
    rows.iter()
        .filter(|&&r| decoded.iter().all(|it| it.matches(binned, r)))
        .count()
}
