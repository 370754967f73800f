//! Vertical bitmap mining (Eclat-style) over binned transactions.
//!
//! Instead of scanning rows once per candidate itemset (the level-wise
//! Apriori reference in [`crate::apriori`]), the vertical miner gives every
//! (column, bin) item a `u64` row bitmap; the support of an itemset is the
//! popcount of the AND of its items' bitmaps. The frequent-itemset lattice
//! is walked by column-ordered prefix extension: item ids are column-major
//! (see [`ItemInterner`]), every transaction holds exactly one item per
//! column, so a prefix ending in an item of column `c` is only ever
//! extended with ids `≥ offsets(c + 1)` — candidates never repeat a column
//! and each itemset is enumerated exactly once, in ascending-id order.
//!
//! The walk keeps *conditional* bitmaps: each extension's bitmap is already
//! ANDed with the prefix, so extending one level deeper ANDs two bitmaps of
//! `⌈n / 64⌉` words instead of re-intersecting the whole prefix, and
//! infrequent extensions are pruned before recursing.
//!
//! Root subtrees of the lattice are independent, so
//! [`frequent_itemsets_bitmap`] fans them out across scoped worker threads;
//! results are collected per root and merged in root order, making the
//! output identical at every thread count.

use crate::apriori::FrequentItemset;
use crate::interner::{ItemId, ItemInterner};
use subtab_binning::BinnedTable;
use subtab_kernels::map_indexed;

// Row bitmaps are the shared workspace `Bitmap`. Bit `i` corresponds to the
// `i`-th row of the mining scope: for whole-table mining that is row `i`
// itself, for a target-bin partition it is the `i`-th row of the partition.
use subtab_data::Bitmap;

/// The vertical representation of one mining scope: every item that occurs
/// in the scope, ascending by id, with its row bitmap and support count.
#[derive(Debug)]
pub struct VerticalIndex {
    /// Occurring item ids, ascending.
    pub ids: Vec<ItemId>,
    /// Row bitmap of each id (parallel to `ids`).
    pub bitmaps: Vec<Bitmap>,
    /// Popcount of each bitmap (parallel to `ids`).
    pub counts: Vec<usize>,
    /// Number of rows in the scope.
    pub num_rows: usize,
}

impl VerticalIndex {
    /// Builds the vertical index of `binned` restricted to `rows` (`None` =
    /// all rows), reading each column's code slice once.
    pub fn build(binned: &BinnedTable, interner: &ItemInterner, rows: Option<&[usize]>) -> Self {
        let n = rows.map_or(binned.num_rows(), <[usize]>::len);
        let total = interner.num_items();
        let mut slots: Vec<Option<Bitmap>> = vec![None; total];
        for c in 0..binned.num_columns() {
            let codes = binned.codes(c);
            let base = interner.id_of(c, 0);
            let mut mark = |local: usize, code: subtab_binning::BinId| {
                let id = (base + code as ItemId) as usize;
                slots[id].get_or_insert_with(|| Bitmap::zeros(n)).set(local);
            };
            match rows {
                None => {
                    for (local, &code) in codes.iter().enumerate() {
                        mark(local, code);
                    }
                }
                Some(rows) => {
                    for (local, &r) in rows.iter().enumerate() {
                        mark(local, codes[r]);
                    }
                }
            }
        }
        let mut ids = Vec::new();
        let mut bitmaps = Vec::new();
        let mut counts = Vec::new();
        for (id, slot) in slots.into_iter().enumerate() {
            if let Some(bm) = slot {
                counts.push(bm.count());
                ids.push(id as ItemId);
                bitmaps.push(bm);
            }
        }
        VerticalIndex {
            ids,
            bitmaps,
            counts,
            num_rows: n,
        }
    }

    /// Support count of an arbitrary id set over the scope (AND of all item
    /// bitmaps) — the vertical twin of [`crate::apriori::support_count`].
    /// Items absent from the scope have zero support.
    pub fn support_count(&self, items: &[ItemId]) -> usize {
        let mut scratch = Bitmap::zeros(self.num_rows);
        self.support_count_into(items.iter().copied(), &mut scratch)
            .unwrap_or(self.num_rows)
    }

    /// Like [`VerticalIndex::support_count`], but reusing a caller-provided
    /// scratch bitmap — the allocation-free bulk path (e.g. recomputing
    /// global supports for every pooled rule after target mining). Returns
    /// `None` for the empty item set (whose support is the scope size).
    pub fn support_count_into(
        &self,
        items: impl IntoIterator<Item = ItemId>,
        scratch: &mut Bitmap,
    ) -> Option<usize> {
        let mut seen = false;
        for item in items {
            let Ok(idx) = self.ids.binary_search(&item) else {
                return Some(0);
            };
            if seen {
                scratch.and_assign(&self.bitmaps[idx]);
            } else {
                scratch.copy_from(&self.bitmaps[idx]);
                seen = true;
            }
        }
        seen.then(|| scratch.count())
    }
}

/// One frequent extension of the current prefix: its id, its bitmap
/// *conditional on the prefix*, and that bitmap's popcount.
struct Ext {
    id: ItemId,
    bitmap: Bitmap,
    count: usize,
}

/// One discovered frequent itemset (ids ascending) with its support count —
/// the raw shape the parallel walk collects before levels are assembled.
type FoundItemset = (Vec<ItemId>, usize);

/// Mines all frequent itemsets of the scope with support ≥ `min_support`
/// and size ≤ `max_size`, returning them grouped by size exactly like
/// [`crate::apriori::frequent_itemsets`]: index `k` holds the size-`k + 1`
/// itemsets, each level ascending by item ids. The output (itemsets,
/// counts, order) is pinned identical to the Apriori reference; only the
/// walk differs.
///
/// `threads` fans the root subtrees out across scoped workers (`0` = all
/// available cores, `≤ 1` = sequential); the result is identical at every
/// thread count.
pub fn frequent_itemsets_bitmap(
    binned: &BinnedTable,
    interner: &ItemInterner,
    min_support: f64,
    max_size: usize,
    rows: Option<&[usize]>,
    threads: usize,
) -> Vec<Vec<FrequentItemset>> {
    let n = rows.map_or(binned.num_rows(), <[usize]>::len);
    if n == 0 || max_size == 0 {
        return Vec::new();
    }
    let min_count = ((min_support * n as f64).ceil() as usize).max(1);
    let vertical = VerticalIndex::build(binned, interner, rows);
    let frequent: Vec<usize> = (0..vertical.ids.len())
        .filter(|&i| vertical.counts[i] >= min_count)
        .collect();
    if frequent.is_empty() {
        return Vec::new();
    }
    let singles: Vec<FrequentItemset> = frequent
        .iter()
        .map(|&i| FrequentItemset {
            items: vec![vertical.ids[i]],
            count: vertical.counts[i],
        })
        .collect();
    let mut levels = vec![singles];
    if max_size == 1 {
        return levels;
    }

    // Larger itemsets: walk each root's subtree, fanned out across scoped
    // workers with index-ordered results, so the merged output is
    // independent of scheduling.
    let walk_root = |root: usize| {
        let i = frequent[root];
        let mut found = Vec::new();
        let exts = extensions_of(
            vertical.ids[i],
            &vertical.bitmaps[i],
            &frequent[root + 1..],
            &vertical,
            interner,
            min_count,
        );
        let mut prefix = vec![vertical.ids[i]];
        extend(&mut prefix, exts, interner, min_count, max_size, &mut found);
        found
    };
    let per_root: Vec<Vec<FoundItemset>> = map_indexed(threads, frequent.len(), walk_root);

    // Group by size and sort each level by item ids — the exact shape the
    // Apriori reference produces.
    for (items, count) in per_root.into_iter().flatten() {
        let level = items.len() - 1;
        while levels.len() <= level {
            levels.push(Vec::new());
        }
        levels[level].push(FrequentItemset { items, count });
    }
    while levels.last().is_some_and(Vec::is_empty) {
        levels.pop();
    }
    for level in &mut levels[1..] {
        level.sort_by(|a, b| a.items.cmp(&b.items));
    }
    levels
}

/// The frequent extensions of a prefix ending in `last`: among the frequent
/// singles after `last` (positions `tail` into the vertical index), those
/// of a *later column* whose bitmap intersected with the prefix stays
/// frequent.
fn extensions_of(
    last: ItemId,
    prefix_bitmap: &Bitmap,
    tail: &[usize],
    vertical: &VerticalIndex,
    interner: &ItemInterner,
    min_count: usize,
) -> Vec<Ext> {
    // Ids are column-major, so "later column" is a single partition point.
    let floor = interner.next_column_start(last);
    let start = tail.partition_point(|&i| vertical.ids[i] < floor);
    tail[start..]
        .iter()
        .filter_map(|&i| {
            let (bitmap, count) = prefix_bitmap.and_with_count(&vertical.bitmaps[i]);
            (count >= min_count).then_some(Ext {
                id: vertical.ids[i],
                bitmap,
                count,
            })
        })
        .collect()
}

/// Depth-first prefix extension: records every frequent extension of
/// `prefix` and recurses while the itemset stays under `max_size`.
fn extend(
    prefix: &mut Vec<ItemId>,
    exts: Vec<Ext>,
    interner: &ItemInterner,
    min_count: usize,
    max_size: usize,
    out: &mut Vec<FoundItemset>,
) {
    for (i, ext) in exts.iter().enumerate() {
        prefix.push(ext.id);
        out.push((prefix.clone(), ext.count));
        if prefix.len() < max_size {
            let floor = interner.next_column_start(ext.id);
            let children: Vec<Ext> = exts[i + 1..]
                .iter()
                .filter(|e| e.id >= floor)
                .filter_map(|e| {
                    let (bitmap, count) = ext.bitmap.and_with_count(&e.bitmap);
                    (count >= min_count).then_some(Ext {
                        id: e.id,
                        bitmap,
                        count,
                    })
                })
                .collect();
            if !children.is_empty() {
                extend(prefix, children, interner, min_count, max_size, out);
            }
        }
        prefix.pop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use subtab_binning::{Binner, BinningConfig};
    use subtab_data::Table;

    /// A 130-row two-column table crossing the u64 word boundary, with a
    /// hand-checkable layout: `x` alternates two values, `y` is constant on
    /// the first 100 rows.
    fn wide_binned() -> BinnedTable {
        let x: Vec<Option<&str>> = (0..130)
            .map(|i| Some(if i % 2 == 0 { "a" } else { "b" }))
            .collect();
        let y: Vec<Option<i64>> = (0..130).map(|i| Some(i64::from(i >= 100))).collect();
        let t = Table::builder()
            .column_str("x", x)
            .column_i64("y", y)
            .build()
            .unwrap();
        let binner = Binner::fit(&t, &BinningConfig::default()).unwrap();
        binner.apply(&t).unwrap()
    }

    #[test]
    fn vertical_supports_match_hand_counts_across_word_boundaries() {
        let bt = wide_binned();
        let interner = ItemInterner::from_binned(&bt);
        let v = VerticalIndex::build(&bt, &interner, None);
        assert_eq!(v.num_rows, 130);
        // Every occurring item's popcount equals a manual row scan.
        for (pos, &id) in v.ids.iter().enumerate() {
            let item = interner.item(id);
            let manual = (0..130).filter(|&r| item.matches(&bt, r)).count();
            assert_eq!(v.counts[pos], manual);
            assert_eq!(v.bitmaps[pos].count(), manual);
        }
        // x="a" ∧ y=0: even rows below 100 → exactly 50 rows.
        let xa = interner.row_item_id(&bt, 0, 0);
        let y0 = interner.row_item_id(&bt, 0, 1);
        assert_eq!(v.support_count(&[xa, y0]), 50);
        assert_eq!(v.support_count(&[]), 130);
    }

    #[test]
    fn vertical_respects_row_subsets() {
        let bt = wide_binned();
        let interner = ItemInterner::from_binned(&bt);
        let rows: Vec<usize> = (100..130).collect();
        let v = VerticalIndex::build(&bt, &interner, Some(&rows));
        assert_eq!(v.num_rows, 30);
        let y1 = interner.row_item_id(&bt, 100, 1);
        assert_eq!(v.support_count(&[y1]), 30, "y=1 holds on all subset rows");
        let y0 = interner.row_item_id(&bt, 0, 1);
        assert_eq!(v.support_count(&[y0]), 0, "y=0 never occurs in the subset");
    }

    #[test]
    fn miner_finds_the_planted_pair_with_exact_support() {
        let bt = wide_binned();
        let interner = ItemInterner::from_binned(&bt);
        let levels = frequent_itemsets_bitmap(&bt, &interner, 0.3, 2, None, 1);
        assert_eq!(levels.len(), 2);
        // Singles: x=a (65), x=b (65), y=0 (100) pass 30% of 130 = 39.
        assert_eq!(levels[0].len(), 3);
        // Pairs: x=a∧y=0 (50) and x=b∧y=0 (50).
        assert_eq!(levels[1].len(), 2);
        for fi in &levels[1] {
            assert_eq!(fi.count, 50);
            assert_eq!(fi.items.len(), 2);
            let cols: Vec<usize> = fi.items.iter().map(|&id| interner.column_of(id)).collect();
            assert_eq!(cols, vec![0, 1], "one item per column, column-ordered");
        }
    }

    #[test]
    fn thread_counts_do_not_change_the_output() {
        let bt = wide_binned();
        let interner = ItemInterner::from_binned(&bt);
        let reference = frequent_itemsets_bitmap(&bt, &interner, 0.2, 2, None, 1);
        for threads in [2, 4, 0] {
            let got = frequent_itemsets_bitmap(&bt, &interner, 0.2, 2, None, threads);
            assert_eq!(got, reference, "threads = {threads}");
        }
    }

    #[test]
    fn empty_inputs() {
        let bt = wide_binned();
        let interner = ItemInterner::from_binned(&bt);
        assert!(frequent_itemsets_bitmap(&bt, &interner, 0.5, 0, None, 1).is_empty());
        assert!(frequent_itemsets_bitmap(&bt, &interner, 0.5, 2, Some(&[]), 1).is_empty());
        assert!(frequent_itemsets_bitmap(&bt, &interner, 1.5, 2, None, 1).is_empty());
    }
}
