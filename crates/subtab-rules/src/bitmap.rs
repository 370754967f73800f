//! Vertical bitmap mining (Eclat-style) over binned transactions.
//!
//! Rows of the binned table play the role of transactions; the items of a
//! row are its (column, bin) pairs, interned as dense ids, so every
//! transaction holds exactly one item per column. This is the
//! "quantitative association rules" setting of Srikant & Agrawal that the
//! paper builds on.
//!
//! Instead of scanning rows once per candidate itemset, the vertical miner
//! gives every (column, bin) item a `u64` row bitmap; the support of an
//! itemset is the popcount of the AND of its items' bitmaps. The
//! frequent-itemset lattice is walked by column-ordered prefix extension:
//! item ids are column-major (see [`ItemInterner`]), so a prefix ending in
//! an item of column `c` is only ever extended with ids `≥ offsets(c + 1)`
//! — candidates never repeat a column and each itemset is enumerated
//! exactly once, in ascending-id order.
//!
//! The walk keeps *conditional* bitmaps: each extension's bitmap is already
//! ANDed with the prefix, so extending one level deeper ANDs two bitmaps of
//! `⌈n / 64⌉` words instead of re-intersecting the whole prefix, and
//! infrequent extensions are pruned before recursing.
//!
//! The conditional bitmaps of one prefix's extensions share one word
//! buffer, and the walk keeps one such buffer per lattice depth, reused for
//! every prefix at that depth, so an infrequent candidate allocates nothing
//! and a frequent itemset allocates only its own id list.
//!
//! Root subtrees of the lattice are independent, so
//! [`frequent_itemsets_bitmap`] fans them out across scoped worker threads;
//! results are collected per root and merged in root order, making the
//! output identical at every thread count. A single worker walks every
//! root with one set of buffers. The `bitmap_equivalence` test
//! suite pins the frequent levels and support counts to a level-wise
//! Apriori oracle (one row scan per candidate) on the six planted datasets.

use crate::interner::{ItemId, ItemInterner};
use subtab_binning::BinnedTable;
use subtab_kernels::{map_indexed, resolve_threads};

// Row bitmaps are the shared workspace `Bitmap`. Bit `i` corresponds to the
// `i`-th row of the mining scope: for whole-table mining that is row `i`
// itself, for a target-bin partition it is the `i`-th row of the partition.
use subtab_data::Bitmap;

/// A frequent itemset together with its support count.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FrequentItemset {
    /// The item ids, ascending (ids are column-major, so this is also
    /// (column, bin) order).
    pub items: Vec<ItemId>,
    /// Number of rows containing all the items.
    pub count: usize,
}

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
    /// bitmaps). Items absent from the scope have zero support; the empty
    /// set's support is the scope size.
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

/// The frequent extensions of one prefix: their ids, popcounts and
/// bitmaps *conditional on the prefix*, packed `width` words each in one
/// buffer. The walk keeps one `Exts` per lattice depth and refills it for
/// every prefix at that depth.
struct Exts {
    width: usize,
    ids: Vec<ItemId>,
    counts: Vec<usize>,
    words: Vec<u64>,
}

impl Exts {
    fn bitmap(&self, i: usize) -> &[u64] {
        &self.words[i * self.width..(i + 1) * self.width]
    }

    /// Refills with the candidates whose bitmap ANDed with `prefix` keeps
    /// at least `min_count` rows; an infrequent candidate leaves nothing.
    fn fill<'b>(
        &mut self,
        prefix: &[u64],
        candidates: impl Iterator<Item = (ItemId, &'b [u64])>,
        min_count: usize,
    ) {
        self.ids.clear();
        self.counts.clear();
        self.words.clear();
        for (id, bitmap) in candidates {
            let start = self.words.len();
            let mut count = 0usize;
            self.words.extend(prefix.iter().zip(bitmap).map(|(a, b)| {
                count += (a & b).count_ones() as usize;
                a & b
            }));
            if count >= min_count {
                self.ids.push(id);
                self.counts.push(count);
            } else {
                self.words.truncate(start);
            }
        }
    }
}

/// Depth-first prefix extension: records every frequent extension of
/// `prefix` (held in `stack[0]`) and recurses while a deeper level of the
/// stack exists, so the stack's length bounds the itemset size.
fn extend(
    prefix: &mut Vec<ItemId>,
    stack: &mut [Exts],
    interner: &ItemInterner,
    min_count: usize,
    out: &mut Vec<FrequentItemset>,
) {
    let Some((exts, deeper)) = stack.split_first_mut() else {
        return;
    };
    for i in 0..exts.ids.len() {
        prefix.push(exts.ids[i]);
        out.push(FrequentItemset {
            items: prefix.clone(),
            count: exts.counts[i],
        });
        if let Some(children) = deeper.first_mut() {
            let floor = interner.next_column_start(exts.ids[i]);
            let later = (i + 1..exts.ids.len()).filter(|&j| exts.ids[j] >= floor);
            children.fill(
                exts.bitmap(i),
                later.map(|j| (exts.ids[j], exts.bitmap(j))),
                min_count,
            );
            if !children.ids.is_empty() {
                extend(prefix, deeper, interner, min_count, out);
            }
        }
        prefix.pop();
    }
}

/// Mines all frequent itemsets of the scope (`rows`, `None` = all rows)
/// with support ≥ `min_support` and size ≤ `max_size`, grouped by size:
/// index `k` holds the size-`k + 1` itemsets, each level ascending by item
/// ids.
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

    // Larger itemsets: walk each root's subtree. One worker walks every
    // root in order with one set of buffers; several fan the roots out
    // with index-ordered results, so the merged output is independent of
    // scheduling. Itemsets hold one item per column, so the lattice is at
    // most as deep as the table is wide.
    let depth = max_size.min(interner.num_columns()).saturating_sub(1);
    let walk_roots = |roots: std::ops::Range<usize>| {
        let mut stack: Vec<Exts> = (0..depth)
            .map(|_| Exts {
                width: n.div_ceil(64),
                ids: Vec::new(),
                counts: Vec::new(),
                words: Vec::new(),
            })
            .collect();
        let (mut prefix, mut found) = (Vec::new(), Vec::new());
        for root in roots {
            let Some(exts) = stack.first_mut() else {
                break;
            };
            // Ids are column-major, so "later column" is an id floor.
            let i = frequent[root];
            let floor = interner.next_column_start(vertical.ids[i]);
            let later = frequent[root + 1..]
                .iter()
                .filter(|&&j| vertical.ids[j] >= floor);
            exts.fill(
                vertical.bitmaps[i].as_words(),
                later.map(|&j| (vertical.ids[j], vertical.bitmaps[j].as_words())),
                min_count,
            );
            prefix.clear();
            prefix.push(vertical.ids[i]);
            extend(&mut prefix, &mut stack, interner, min_count, &mut found);
        }
        found
    };
    let found: Vec<FrequentItemset> = if resolve_threads(threads, frequent.len()) == 1 {
        walk_roots(0..frequent.len())
    } else {
        map_indexed(threads, frequent.len(), |root| walk_roots(root..root + 1))
            .into_iter()
            .flatten()
            .collect()
    };

    // Group by size and sort each level by item ids.
    for itemset in found {
        let level = itemset.items.len() - 1;
        while levels.len() <= level {
            levels.push(Vec::new());
        }
        levels[level].push(itemset);
    }
    while levels.last().is_some_and(Vec::is_empty) {
        levels.pop();
    }
    for level in &mut levels[1..] {
        level.sort_by(|a, b| a.items.cmp(&b.items));
    }
    levels
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
        let levels = frequent_itemsets_bitmap(&bt, &interner, 0.5, 1, None, 1);
        assert_eq!(levels.len(), 1);
        // cancelled=1 (4 rows), cancelled=0 (4 rows), dep_time=NaN (4 rows),
        // year=2015 (7 rows) all have support >= 0.5.
        assert_eq!(levels[0].len(), 4);
        for fi in &levels[0] {
            assert!(fi.count >= 4, "support 0.5 of 8 rows");
        }
    }

    #[test]
    fn pairs_respect_one_item_per_column() {
        let bt = example_binned();
        let interner = ItemInterner::from_binned(&bt);
        let levels = frequent_itemsets_bitmap(&bt, &interner, 0.4, 2, None, 1);
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
        let levels = frequent_itemsets_bitmap(&bt, &interner, 0.4, 3, None, 1);
        assert_eq!(levels.len(), 3);
        // cancelled=1 ∧ dep_time=NaN ∧ year=2015 holds for 4 of 8 rows.
        assert!(levels[2].iter().any(|fi| fi.count == 4));
    }

    #[test]
    fn monotonicity_of_support() {
        let bt = example_binned();
        let interner = ItemInterner::from_binned(&bt);
        let levels = frequent_itemsets_bitmap(&bt, &interner, 0.3, 3, None, 1);
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
        let levels = frequent_itemsets_bitmap(&bt, &interner, 0.9, 1, Some(&cancelled_rows), 1);
        // Within cancelled rows, cancelled=1, dep_time=NaN and year=2015 are
        // all frequent at 100%.
        assert_eq!(levels[0].len(), 3);
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
