//! Fixed-width `u64` bitmaps shared across the workspace.
//!
//! [`Bitmap`] started life as the vertical-mining row bitmap in
//! `subtab-rules`; it now also
//! backs the *validity plane* of every [`crate::Column`]: bit `i` is set iff
//! row `i` holds a real (non-null) value. Both uses share the same word-wide
//! kernels — intersection, union, complement, popcount — so predicate
//! compilation can AND a leaf's match bitmap with a column's validity bitmap
//! directly, and `IS NULL` is just the complement of validity.
//!
//! Bits past the logical width in the trailing word are kept at zero by every
//! constructor and by [`Bitmap::negate_assign`], so [`Bitmap::count`] is
//! always exact.

/// A bitmap over row positions (dense, 64 rows per word).
///
/// Bit `i` corresponds to the `i`-th row of the scope — the `i`-th row of a
/// table/column for validity and predicate bitmaps, the `i`-th row of a
/// mining partition for vertical rule mining.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Bitmap {
    words: Vec<u64>,
}

impl Bitmap {
    /// An all-zero bitmap over `bits` rows.
    pub fn zeros(bits: usize) -> Self {
        Bitmap {
            words: vec![0u64; bits.div_ceil(64)],
        }
    }

    /// An all-one bitmap over `bits` rows; bits past `bits` in the trailing
    /// word stay zero, so [`Bitmap::count`] and complements stay exact.
    pub fn ones(bits: usize) -> Self {
        let mut bm = Bitmap {
            words: vec![u64::MAX; bits.div_ceil(64)],
        };
        bm.mask_tail(bits);
        bm
    }

    /// An empty bitmap with word capacity reserved for `bits` rows — the
    /// append-friendly constructor for column builders that know the final
    /// row count up front.
    pub fn with_capacity(bits: usize) -> Self {
        Bitmap {
            words: Vec::with_capacity(bits.div_ceil(64)),
        }
    }

    /// Reserves capacity for a scope of at least `bits` rows.
    pub fn reserve(&mut self, bits: usize) {
        let words = bits.div_ceil(64);
        if words > self.words.len() {
            self.words.reserve(words - self.words.len());
        }
    }

    /// Sets bit `i`.
    pub fn set(&mut self, i: usize) {
        self.words[i / 64] |= 1u64 << (i % 64);
    }

    /// Appends bit `index` (the next row of a growing column), extending the
    /// word vector as needed. `index` must be the current logical width —
    /// appends are strictly sequential, mirroring `Vec::push` on the value
    /// plane.
    pub fn push_bit(&mut self, index: usize, bit: bool) {
        let w = index / 64;
        if w >= self.words.len() {
            self.words.push(0);
        }
        if bit {
            self.words[w] |= 1u64 << (index % 64);
        }
    }

    /// Whether bit `i` is set.
    pub fn get(&self, i: usize) -> bool {
        self.words[i / 64] & (1u64 << (i % 64)) != 0
    }

    /// Number of set bits (support count / non-null count).
    pub fn count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Popcount of `self AND other` without materialising the intersection.
    pub fn and_count(&self, other: &Bitmap) -> usize {
        self.words
            .iter()
            .zip(&other.words)
            .map(|(a, b)| (a & b).count_ones() as usize)
            .sum()
    }

    /// Overwrites `self` with `other`'s bits (same scope width).
    pub fn copy_from(&mut self, other: &Bitmap) {
        self.words.copy_from_slice(&other.words);
    }

    /// In-place intersection `self &= other`.
    pub fn and_assign(&mut self, other: &Bitmap) {
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= b;
        }
    }

    /// In-place union `self |= other`.
    pub fn or_assign(&mut self, other: &Bitmap) {
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a |= b;
        }
    }

    /// In-place complement over a scope of `bits` rows: flips every bit and
    /// re-zeroes the slack bits of the trailing word (the scope width is not
    /// stored, so the caller provides it — predicate compilation tracks the
    /// table's row count).
    pub fn negate_assign(&mut self, bits: usize) {
        for w in &mut self.words {
            *w = !*w;
        }
        self.mask_tail(bits);
    }

    /// The positions of all set bits, ascending.
    pub fn indices(&self) -> Vec<usize> {
        let mut out = Vec::with_capacity(self.count());
        for (wi, &word) in self.words.iter().enumerate() {
            let mut w = word;
            while w != 0 {
                let bit = w.trailing_zeros() as usize;
                out.push(wi * 64 + bit);
                w &= w - 1;
            }
        }
        out
    }

    /// Zeroes the bits of the trailing word at positions `>= bits`.
    fn mask_tail(&mut self, bits: usize) {
        let slack = bits % 64;
        if slack != 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= (1u64 << slack) - 1;
            }
        }
    }

    /// The backing words, 64 bits per word, row `i` at word `i / 64` bit
    /// `i % 64` — the interchange format of the SIMD plane-scan kernels.
    pub fn as_words(&self) -> &[u64] {
        &self.words
    }

    /// Builds a bitmap over `bits` rows directly from backing words (the
    /// output of a word-at-a-time scan kernel). `words` must hold exactly
    /// `ceil(bits / 64)` entries; slack bits in the trailing word are
    /// zeroed, preserving the exact-count invariant.
    pub fn from_words(words: Vec<u64>, bits: usize) -> Self {
        assert_eq!(words.len(), bits.div_ceil(64));
        let mut bm = Bitmap { words };
        bm.mask_tail(bits);
        bm
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_count_and_intersection_are_exact() {
        // Hand-checked: bits {0, 3, 64, 120} vs {3, 64, 119}.
        let mut a = Bitmap::zeros(130);
        let mut b = Bitmap::zeros(130);
        for i in [0usize, 3, 64, 120] {
            a.set(i);
        }
        for i in [3usize, 64, 119] {
            b.set(i);
        }
        assert_eq!(a.count(), 4);
        assert_eq!(b.count(), 3);
        assert!(a.get(64) && !a.get(65));
        assert_eq!(a.and_count(&b), 2, "intersection is {{3, 64}}");
        let mut ab = a.clone();
        ab.and_assign(&b);
        assert_eq!(ab.count(), 2);
        assert!(ab.get(3) && ab.get(64) && !ab.get(0) && !ab.get(119));
    }

    #[test]
    fn union_complement_and_indices_are_exact() {
        // 130 bits crosses the u64 word boundary with 2 slack trailing bits.
        let mut a = Bitmap::zeros(130);
        let mut b = Bitmap::zeros(130);
        for i in [0usize, 3, 64, 120] {
            a.set(i);
        }
        for i in [3usize, 64, 119, 129] {
            b.set(i);
        }
        let mut u = a.clone();
        u.or_assign(&b);
        assert_eq!(u.count(), 6, "union is {{0, 3, 64, 119, 120, 129}}");
        assert_eq!(u.indices(), vec![0, 3, 64, 119, 120, 129]);
        // Complement stays inside the 130-bit scope: no phantom slack bits.
        let mut na = a.clone();
        na.negate_assign(130);
        assert_eq!(na.count(), 130 - 4);
        assert!(!na.get(0) && na.get(1) && !na.get(120) && na.get(129));
        // Double complement round-trips.
        na.negate_assign(130);
        assert_eq!(na, a);
        // All-ones masks its trailing word too.
        let ones = Bitmap::ones(130);
        assert_eq!(ones.count(), 130);
        assert_eq!(ones.indices().len(), 130);
        let mut empty = Bitmap::ones(130);
        empty.negate_assign(130);
        assert_eq!(empty.count(), 0);
        assert_eq!(empty, Bitmap::zeros(130));
        // Exact-multiple scope has no slack word to mask.
        assert_eq!(Bitmap::ones(128).count(), 128);
    }

    #[test]
    fn push_bit_grows_one_word_at_a_time() {
        let mut bm = Bitmap::with_capacity(130);
        for i in 0..130 {
            bm.push_bit(i, i % 3 == 0);
        }
        assert_eq!(bm.count(), (0..130).filter(|i| i % 3 == 0).count());
        for i in 0..130 {
            assert_eq!(bm.get(i), i % 3 == 0, "bit {i}");
        }
        // Appending across the word boundary matches the set() path exactly.
        let mut reference = Bitmap::zeros(130);
        for i in (0..130).filter(|i| i % 3 == 0) {
            reference.set(i);
        }
        assert_eq!(bm, reference);
    }

    #[test]
    fn push_bit_word_boundary_edges() {
        // Exactly 64 bits: one word, no slack.
        let mut bm = Bitmap::with_capacity(0);
        for i in 0..64 {
            bm.push_bit(i, true);
        }
        assert_eq!(bm, Bitmap::ones(64));
        // Bit 64 starts the second word.
        bm.push_bit(64, true);
        assert_eq!(bm.count(), 65);
        assert!(bm.get(64));
        assert_eq!(bm, Bitmap::ones(65));
    }

    #[test]
    fn word_round_trip_masks_slack_bits() {
        let mut bm = Bitmap::zeros(130);
        for i in [0usize, 63, 64, 129] {
            bm.set(i);
        }
        let words = bm.as_words().to_vec();
        assert_eq!(words.len(), 3);
        assert_eq!(Bitmap::from_words(words.clone(), 130), bm);
        // Slack bits handed in by a kernel are cleared on construction.
        let mut dirty = words;
        dirty[2] |= !0u64 << 2;
        assert_eq!(Bitmap::from_words(dirty, 130), bm);
    }

    #[test]
    fn all_zero_and_all_one_extremes() {
        for bits in [0usize, 1, 63, 64, 65, 127, 128, 129] {
            assert_eq!(Bitmap::zeros(bits).count(), 0, "zeros({bits})");
            assert_eq!(Bitmap::ones(bits).count(), bits, "ones({bits})");
        }
        // reserve is a no-op on already-large bitmaps and never shrinks.
        let mut bm = Bitmap::zeros(128);
        bm.reserve(64);
        assert_eq!(bm.count(), 0);
        bm.reserve(1024);
        assert_eq!(bm, Bitmap::zeros(128));
    }
}
