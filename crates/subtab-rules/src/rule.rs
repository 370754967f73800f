//! Items and association rules over dense item ids, stored per rule set in
//! one arena ([`RuleSet`]) and read through borrowed [`AssociationRule`]
//! views.

use crate::interner::{ItemId, ItemInterner};
use serde::{Deserialize, Serialize};
use std::sync::Arc;
use subtab_binning::{BinId, BinnedTable};

/// A single (column, bin) item in decoded form.
///
/// A row of a binned table *contains* the item when its cell in `column`
/// falls in bin `bin`. The mining and highlighting hot paths work on dense
/// [`ItemId`]s instead; `Item` is the cold, human-facing decoding obtained
/// through [`ItemInterner::item`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct Item {
    /// Column index in the binned table.
    pub column: usize,
    /// Bin identifier within that column.
    pub bin: BinId,
}

impl Item {
    /// Creates an item.
    pub fn new(column: usize, bin: BinId) -> Self {
        Item { column, bin }
    }

    /// Whether row `row` of `binned` contains this item.
    pub fn matches(&self, binned: &BinnedTable, row: usize) -> bool {
        binned.bin_id(row, self.column) == self.bin
    }
}

/// An association rule `antecedent → consequent` (Definition 3.4), borrowed
/// from the [`RuleSet`] arena that stores it.
///
/// Both sides are non-empty, ascending slices of dense [`ItemId`]s over
/// *distinct* columns (ids are column-major, so ascending ids means
/// column-ordered items); the mask words are the set of columns the rule
/// touches. `support` is the fraction of rows
/// containing all items of the rule, and `confidence` the fraction of
/// antecedent-matching rows that also match the consequent. Decoding ids
/// back to (column, bin) pairs or display strings goes through the
/// [`ItemInterner`] the owning [`RuleSet`] shares.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AssociationRule<'a> {
    /// Antecedent ids followed by consequent ids.
    ids: &'a [ItemId],
    antecedent_len: usize,
    mask: &'a [u64],
    /// Fraction of rows for which the whole rule holds.
    pub support: f64,
    /// Number of rows for which the whole rule holds.
    pub support_count: usize,
    /// P(consequent | antecedent).
    pub confidence: f64,
    /// Lift = confidence / P(consequent).
    pub lift: f64,
}

impl<'a> AssociationRule<'a> {
    /// Left-hand-side item ids (ascending, one per column).
    pub fn antecedent(&self) -> &'a [ItemId] {
        &self.ids[..self.antecedent_len]
    }

    /// Right-hand-side item ids (ascending, one per column).
    pub fn consequent(&self) -> &'a [ItemId] {
        &self.ids[self.antecedent_len..]
    }

    /// All item ids of the rule (antecedent then consequent).
    #[inline]
    pub fn item_ids(&self) -> &'a [ItemId] {
        self.ids
    }

    /// All items of the rule in decoded form (antecedent then consequent).
    pub fn items(&self, interner: &'a ItemInterner) -> impl Iterator<Item = Item> + 'a {
        self.ids.iter().map(|&id| interner.item(id))
    }

    /// Number of items in the rule (the paper's "rule size").
    pub fn size(&self) -> usize {
        self.ids.len()
    }

    /// The rule's column-mask words (`U_R` in the paper): column `c` is bit
    /// `c % 64` of word `c / 64`, and every rule of one set has the same
    /// number of words.
    #[inline]
    pub fn mask_words(&self) -> &'a [u64] {
        self.mask
    }

    /// Number of distinct columns the rule uses.
    #[inline]
    pub fn num_columns(&self) -> usize {
        self.mask.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// The column indices used by the rule (`U_R` in the paper), ascending.
    pub fn columns(&self) -> Vec<usize> {
        self.column_iter().collect()
    }

    /// Like [`AssociationRule::columns`], without collecting.
    pub fn column_iter(&self) -> impl Iterator<Item = usize> + 'a {
        self.mask.iter().enumerate().flat_map(|(i, &word)| {
            let mut w = word;
            std::iter::from_fn(move || {
                (w != 0).then(|| {
                    let col = i * 64 + w.trailing_zeros() as usize;
                    w &= w - 1;
                    col
                })
            })
        })
    }

    /// Whether the rule uses at least one of the given columns.
    pub fn uses_any_column(&self, columns: &[usize]) -> bool {
        columns.iter().any(|&c| {
            self.mask
                .get(c / 64)
                .is_some_and(|w| w & (1 << (c % 64)) != 0)
        })
    }

    /// Human-readable rendering of the rule via the interner's `Arc`-shared
    /// display strings (no binned-table lookup needed).
    pub fn render(&self, interner: &ItemInterner) -> String {
        let side = |ids: &[ItemId]| {
            ids.iter()
                .map(|&id| interner.label(id).to_string())
                .collect::<Vec<_>>()
                .join(" ∧ ")
        };
        format!(
            "{} → {}  (supp={:.3}, conf={:.3})",
            side(self.antecedent()),
            side(self.consequent()),
            self.support,
            self.confidence
        )
    }
}

/// The fixed-size part of one rule in a [`RuleSet`] arena (40 bytes).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
struct RuleRecord {
    support: f64,
    confidence: f64,
    lift: f64,
    /// Position of the rule's first id in the arena's `items`.
    offset: u32,
    support_count: u32,
    antecedent_len: u16,
    size: u16,
}

/// A collection of mined rules together with the statistics of the mining
/// run and the `Arc`-shared [`ItemInterner`] that decodes their ids.
///
/// The rules live in one arena: every rule's antecedent ids followed by its
/// consequent ids in one array, every rule's column-mask words (a fixed
/// number per rule) in another, and one fixed-size record per rule with its
/// item offset, antecedent length, size and statistics. A rule costs about
/// 60 bytes on a table of at most 64 columns and no allocation of its own;
/// [`RuleSet::rule`] and [`RuleSet::iter`] hand out borrowed views.
///
/// Two sets compare equal when they hold the same rules in the same order
/// over the same row count; ids only mean something against the interner,
/// which is not compared.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct RuleSet {
    items: Vec<ItemId>,
    masks: Vec<u64>,
    /// Mask words per rule.
    mask_words: usize,
    records: Vec<RuleRecord>,
    /// Number of rows the rules were mined over.
    pub num_rows: usize,
    /// The id ↔ (column, bin) mapping of the binned table the rules were
    /// mined from, shared with every consumer of the set.
    interner: Arc<ItemInterner>,
}

impl PartialEq for RuleSet {
    fn eq(&self, other: &Self) -> bool {
        self.num_rows == other.num_rows
            && self.mask_words == other.mask_words
            && self.records == other.records
            && self.items == other.items
            && self.masks == other.masks
    }
}

impl RuleSet {
    /// Creates an empty rule set over an interner; add rules with
    /// [`RuleSet::push`].
    pub fn new(num_rows: usize, interner: Arc<ItemInterner>) -> Self {
        RuleSet::with_capacity(num_rows, interner, 0, 0)
    }

    /// An empty set with room for `rules` rules of `items` ids in total.
    pub(crate) fn with_capacity(
        num_rows: usize,
        interner: Arc<ItemInterner>,
        rules: usize,
        items: usize,
    ) -> Self {
        let mask_words = interner.num_columns().div_ceil(64);
        RuleSet {
            items: Vec::with_capacity(items),
            masks: Vec::with_capacity(rules * mask_words),
            mask_words,
            records: Vec::with_capacity(rules),
            num_rows,
            interner,
        }
    }

    /// Appends the rule `antecedent → consequent`. Each side is stored
    /// sorted; both must be non-empty ids of the set's interner.
    ///
    /// # Panics
    ///
    /// If a side is empty, a rule holds more than 65 535 items, or an
    /// offset or count outgrows 32 bits.
    pub fn push(
        &mut self,
        antecedent: &[ItemId],
        consequent: &[ItemId],
        support_count: usize,
        support: f64,
        confidence: f64,
        lift: f64,
    ) {
        assert!(
            !antecedent.is_empty() && !consequent.is_empty(),
            "both sides of a rule are non-empty"
        );
        let offset = self.items.len();
        self.items.extend_from_slice(antecedent);
        self.items[offset..].sort_unstable();
        let split = self.items.len();
        self.items.extend_from_slice(consequent);
        self.items[split..].sort_unstable();
        let base = self.masks.len();
        self.masks.resize(base + self.mask_words, 0);
        for &id in &self.items[offset..] {
            let col = self.interner.column_of(id);
            self.masks[base + col / 64] |= 1u64 << (col % 64);
        }
        let narrow = |v: usize| u32::try_from(v).expect("rule arena offsets and counts fit in u32");
        let short = |v: usize| u16::try_from(v).expect("a rule holds at most 65 535 items");
        self.records.push(RuleRecord {
            support,
            confidence,
            lift,
            offset: narrow(offset),
            support_count: narrow(support_count),
            antecedent_len: short(antecedent.len()),
            size: short(antecedent.len() + consequent.len()),
        });
    }

    /// The interner decoding this set's item ids.
    pub fn interner(&self) -> &Arc<ItemInterner> {
        &self.interner
    }

    /// Number of rules.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the set contains no rules.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Total number of item ids over all rules.
    pub fn num_items(&self) -> usize {
        self.items.len()
    }

    /// Rule `i`.
    ///
    /// # Panics
    ///
    /// If `i >= self.len()`.
    #[inline]
    pub fn rule(&self, i: usize) -> AssociationRule<'_> {
        let r = &self.records[i];
        let offset = r.offset as usize;
        AssociationRule {
            ids: &self.items[offset..offset + r.size as usize],
            antecedent_len: r.antecedent_len as usize,
            mask: &self.masks[i * self.mask_words..(i + 1) * self.mask_words],
            support: r.support,
            support_count: r.support_count as usize,
            confidence: r.confidence,
            lift: r.lift,
        }
    }

    /// Iterates over the rules.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = AssociationRule<'_>> + '_ {
        (0..self.len()).map(|i| self.rule(i))
    }

    /// A new set holding the rules at `order`, in that order, packed into
    /// exactly sized arrays. With `extra = Some(id)`, every rule whose
    /// columns miss `targets` gets `id` added to its consequent.
    pub(crate) fn gather(
        &self,
        order: impl ExactSizeIterator<Item = usize> + Clone,
        extra: Option<(ItemId, &[usize])>,
    ) -> RuleSet {
        let pushes = |i: usize| extra.is_some_and(|(_, t)| !self.rule(i).uses_any_column(t));
        let items = order
            .clone()
            .map(|i| self.records[i].size as usize + usize::from(pushes(i)))
            .sum();
        let mut out = RuleSet::with_capacity(
            self.num_rows,
            Arc::clone(&self.interner),
            order.len(),
            items,
        );
        let mut consequent = Vec::new();
        for i in order {
            let rule = self.rule(i);
            consequent.clear();
            consequent.extend_from_slice(rule.consequent());
            if let (true, Some((id, _))) = (pushes(i), extra) {
                consequent.push(id);
            }
            out.push(
                rule.antecedent(),
                &consequent,
                rule.support_count,
                rule.support,
                rule.confidence,
                rule.lift,
            );
        }
        out
    }

    /// Retains only rules that use at least one of the given target columns
    /// (the paper's `R*` when target columns are specified).
    pub fn filter_by_target_columns(&self, target_columns: &[usize]) -> RuleSet {
        if target_columns.is_empty() {
            return self.clone();
        }
        let kept: Vec<usize> = (0..self.len())
            .filter(|&i| self.rule(i).uses_any_column(target_columns))
            .collect();
        self.gather(kept.into_iter(), None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use subtab_binning::{Binner, BinningConfig};
    use subtab_data::Table;

    fn binned() -> BinnedTable {
        let t = Table::builder()
            .column_str("a", vec![Some("x"), Some("x"), Some("y"), Some("y")])
            .column_i64("b", vec![Some(1), Some(1), Some(0), Some(1)])
            .column_i64("c", vec![Some(5), Some(5), Some(5), Some(6)])
            .build()
            .unwrap();
        let binner = Binner::fit(&t, &BinningConfig::default()).unwrap();
        binner.apply(&t).unwrap()
    }

    fn item(binned: &BinnedTable, col: &str, row: usize) -> Item {
        let c = binned.column_index(col).unwrap();
        Item::new(c, binned.bin_id(row, c))
    }

    #[test]
    fn item_matching() {
        let bt = binned();
        let i = item(&bt, "a", 0); // a = "x"
        assert!(i.matches(&bt, 0));
        assert!(i.matches(&bt, 1));
        assert!(!i.matches(&bt, 2));
    }

    #[test]
    fn column_mask_set_operations() {
        // A 71-column table, so masks take two words.
        let mut builder = Table::builder();
        for c in 0..71 {
            builder = builder.column_i64(&format!("c{c}"), vec![Some(1), Some(2)]);
        }
        let table = builder.build().unwrap();
        let binner = Binner::fit(&table, &BinningConfig::default()).unwrap();
        let bt = binner.apply(&table).unwrap();
        let interner = Arc::new(ItemInterner::from_binned(&bt));
        let mut rs = RuleSet::new(bt.num_rows(), Arc::clone(&interner));
        let id = |c: usize| interner.id_of(c, bt.bin_id(0, c));
        rs.push(&[id(70)], &[id(3)], 1, 0.5, 1.0, 1.0);
        rs.push(&[id(3)], &[id(5)], 1, 0.5, 1.0, 1.0);
        let m = rs.rule(0);
        assert_eq!(m.mask_words(), &[1 << 3, 1 << 6]);
        assert_eq!(m.num_columns(), 2);
        assert_eq!(m.columns(), vec![3, 70]);
        assert!(m.uses_any_column(&[1, 70]));
        assert!(!m.uses_any_column(&[1, 2, 500]));
        // Every rule of the set carries the same number of words.
        assert_eq!(rs.rule(1).mask_words(), &[(1 << 3) | (1 << 5), 0]);
        assert_eq!(rs.rule(1).columns(), vec![3, 5]);
    }

    /// Rules `a = x → b = 1` (holding on rows 0 and 1) and
    /// `a = y → b = 1 ∧ c = 6` of [`binned`].
    fn rule_set(bt: &BinnedTable) -> RuleSet {
        let interner = Arc::new(ItemInterner::from_binned(bt));
        let id = |col: &str, row: usize| {
            let i = item(bt, col, row);
            interner.id_of(i.column, i.bin)
        };
        let (a, b, y, c) = (id("a", 0), id("b", 0), id("a", 2), id("c", 3));
        let mut rs = RuleSet::new(bt.num_rows(), Arc::clone(&interner));
        rs.push(&[a], &[b], 2, 0.5, 1.0, 4.0 / 3.0);
        // Sides are stored sorted whatever order they arrive in.
        rs.push(&[y], &[c, b], 1, 0.25, 0.5, 2.0);
        rs
    }

    #[test]
    fn rule_holds_and_matching_rows() {
        let bt = binned();
        let rs = rule_set(&bt);
        let interner = rs.interner();
        let rule = rs.rule(0);
        let holds = |row: usize| rule.items(interner).all(|i| i.matches(&bt, row));
        assert!(holds(0));
        assert!(holds(1));
        assert!(!holds(2));
        assert!(!holds(3)); // a="y"
        assert_eq!(rule.support_count, 2);
        assert_eq!(rule.size(), 2);
        assert_eq!(rule.columns(), vec![0, 1]);
        assert_eq!(rule.num_columns(), 2);
        assert_eq!(rule.mask_words(), &[0b011]);
        assert!(rule.uses_any_column(&[1]));
        assert!(!rule.uses_any_column(&[5]));
        assert!(rule.render(interner).contains('→'));
        assert!(rule.render(interner).contains("a="));
        assert!(rule.render(interner).contains("supp="));
        let decoded: Vec<Item> = rule.items(interner).collect();
        assert_eq!(decoded, vec![item(&bt, "a", 0), item(&bt, "b", 0)]);

        let sorted = rs.rule(1);
        assert_eq!(sorted.antecedent().len(), 1);
        assert!(sorted.consequent().windows(2).all(|w| w[0] < w[1]));
        assert_eq!(sorted.item_ids().len(), 3);
        assert_eq!(rs.num_items(), 5);
        assert_eq!(rs.iter().len(), 2);
    }

    #[test]
    fn ruleset_target_filter() {
        let bt = binned();
        let rs = rule_set(&bt);
        assert_eq!(rs.len(), 2);
        assert!(!rs.is_empty());
        let b = bt.column_index("b").unwrap();
        let filtered = rs.filter_by_target_columns(&[bt.column_index("c").unwrap()]);
        assert_eq!(filtered.len(), 1);
        assert_eq!(filtered.rule(0), rs.rule(1));
        assert_eq!(rs.filter_by_target_columns(&[b]), rs);
        let none = rs.filter_by_target_columns(&[7]);
        assert!(none.is_empty());
        assert_eq!(none.num_items(), 0);
        let unchanged = rs.filter_by_target_columns(&[]);
        assert_eq!(unchanged, rs);
        assert!(Arc::ptr_eq(filtered.interner(), rs.interner()));
    }

    #[test]
    fn gather_reorders_repacks_and_pushes_a_target() {
        let bt = binned();
        let rs = rule_set(&bt);
        let reversed = rs.gather([1, 0].into_iter(), None);
        assert_eq!(reversed.rule(0), rs.rule(1));
        assert_eq!(reversed.rule(1), rs.rule(0));
        assert_eq!(reversed.items.capacity(), reversed.items.len());

        // A rule missing the target column gets the target id in its
        // consequent; a rule using it is copied as is.
        let c = item(&bt, "c", 0);
        let c5 = rs.interner().id_of(c.column, c.bin);
        let pushed = rs.gather([0, 1].into_iter(), Some((c5, &[c.column])));
        let rule = pushed.rule(0);
        assert_eq!(rule.antecedent(), rs.rule(0).antecedent());
        assert_eq!(rule.consequent(), &[rs.rule(0).consequent()[0], c5]);
        assert_eq!(rule.columns(), vec![0, 1, 2]);
        assert_eq!(rule.confidence, rs.rule(0).confidence);
        assert_eq!(pushed.rule(1), rs.rule(1));
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_sides_are_rejected() {
        let bt = binned();
        let mut rs = rule_set(&bt);
        rs.push(&[], &[0], 1, 0.25, 1.0, 1.0);
    }
}
