//! Token vocabulary and its negative-sampling table: the *cumulative
//! table* ([`Vocab::sample_negative`]), a 2^16-entry inverse-CDF lookup over
//! the unigram^0.75 distribution whose draw sequence the bit-exact
//! reference trainer depends on.

use rand::Rng;
use std::collections::HashMap;

/// A vocabulary of tokens with occurrence counts and a pre-computed
/// negative-sampling table using the Word2Vec unigram^0.75 distribution.
#[derive(Debug, Clone, Default)]
pub struct Vocab {
    tokens: Vec<String>,
    index: HashMap<String, u32>,
    counts: Vec<u64>,
    sampling_table: Vec<u32>,
}

impl Vocab {
    /// Size of the negative-sampling table (Word2Vec uses 10^8; our
    /// vocabularies are tiny, so a much smaller table gives the same
    /// distribution).
    const SAMPLING_TABLE_SIZE: usize = 1 << 16;

    /// Builds a vocabulary from pre-counted tokens, preserving the given id
    /// order and counts — the constructor the streaming corpus builder uses
    /// after it has histogrammed the code planes (where [`Vocab::add`] would
    /// reset every count to one insertion at a time). The caller must still
    /// run [`Vocab::build_sampling_table`] before sampling.
    ///
    /// # Panics
    /// Panics if `tokens` and `counts` differ in length or `tokens` contains
    /// a duplicate.
    pub fn from_tokens_and_counts(tokens: Vec<String>, counts: Vec<u64>) -> Self {
        assert_eq!(tokens.len(), counts.len(), "tokens/counts length mismatch");
        let mut index = HashMap::with_capacity(tokens.len());
        for (id, token) in tokens.iter().enumerate() {
            let prev = index.insert(token.clone(), id as u32);
            assert!(prev.is_none(), "duplicate token {token:?}");
        }
        Vocab {
            tokens,
            index,
            counts,
            sampling_table: Vec::new(),
        }
    }

    /// Interns a token, returning its id and incrementing its count.
    pub fn add(&mut self, token: &str) -> u32 {
        match self.index.get(token) {
            Some(&id) => {
                self.counts[id as usize] += 1;
                id
            }
            None => {
                let id = self.tokens.len() as u32;
                self.tokens.push(token.to_string());
                self.index.insert(token.to_string(), id);
                self.counts.push(1);
                id
            }
        }
    }

    /// Records one more occurrence of an already-interned token — the fast
    /// path corpus building takes when it has already resolved a (column,
    /// bin) cell to its id and only the count needs to move.
    pub fn record_occurrence(&mut self, id: u32) {
        self.counts[id as usize] += 1;
    }

    /// Id of a token, if present.
    pub fn id(&self, token: &str) -> Option<u32> {
        self.index.get(token).copied()
    }

    /// Token text for an id.
    pub fn token(&self, id: u32) -> &str {
        &self.tokens[id as usize]
    }

    /// Number of distinct tokens.
    pub fn len(&self) -> usize {
        self.tokens.len()
    }

    /// Whether the vocabulary is empty.
    pub fn is_empty(&self) -> bool {
        self.tokens.is_empty()
    }

    /// Occurrence count of a token id.
    pub fn count(&self, id: u32) -> u64 {
        self.counts[id as usize]
    }

    /// All tokens in id order.
    pub fn tokens(&self) -> &[String] {
        &self.tokens
    }

    /// Builds the negative-sampling table. Must be called after all tokens
    /// have been added and before [`Vocab::sample_negative`].
    pub fn build_sampling_table(&mut self) {
        self.sampling_table.clear();
        if self.tokens.is_empty() {
            return;
        }
        let weights: Vec<f64> = self.counts.iter().map(|&c| (c as f64).powf(0.75)).collect();
        let total: f64 = weights.iter().sum();
        self.sampling_table.reserve(Self::SAMPLING_TABLE_SIZE);
        let mut cumulative = 0.0;
        let mut id = 0usize;
        for i in 0..Self::SAMPLING_TABLE_SIZE {
            let target = (i as f64 + 0.5) / Self::SAMPLING_TABLE_SIZE as f64;
            while id + 1 < weights.len() && cumulative + weights[id] / total < target {
                cumulative += weights[id] / total;
                id += 1;
            }
            self.sampling_table.push(id as u32);
        }
    }

    /// Draws a token id from the unigram^0.75 distribution.
    ///
    /// Panics if [`Vocab::build_sampling_table`] has not been called on a
    /// non-empty vocabulary.
    pub fn sample_negative<R: Rng>(&self, rng: &mut R) -> u32 {
        assert!(
            !self.sampling_table.is_empty(),
            "sampling table not built or vocabulary empty"
        );
        let idx = rng.gen_range(0..self.sampling_table.len());
        self.sampling_table[idx]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn interning_and_counts() {
        let mut v = Vocab::default();
        let a = v.add("x=1");
        let b = v.add("y=2");
        let a2 = v.add("x=1");
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(v.len(), 2);
        assert_eq!(v.count(a), 2);
        assert_eq!(v.count(b), 1);
        assert_eq!(v.id("x=1"), Some(a));
        assert_eq!(v.id("missing"), None);
        assert_eq!(v.token(b), "y=2");
        assert!(!v.is_empty());
        assert_eq!(v.tokens().len(), 2);
    }

    #[test]
    fn negative_sampling_respects_frequencies() {
        let mut v = Vocab::default();
        // "common" appears 100 times, "rare" once.
        for _ in 0..100 {
            v.add("common");
        }
        let rare = v.add("rare");
        let common = v.id("common").unwrap();
        v.build_sampling_table();
        let mut rng = StdRng::seed_from_u64(7);
        let mut common_hits = 0;
        let draws = 2000;
        for _ in 0..draws {
            if v.sample_negative(&mut rng) == common {
                common_hits += 1;
            }
        }
        // With the 0.75 exponent, "common" should be drawn much more often
        // than "rare" but not with probability ~1.0 (100:1 becomes ~31.6:1).
        assert!(common_hits > draws / 2, "common drawn {common_hits} times");
        assert!(common_hits < draws, "rare token should still be drawn");
        let _ = rare;
    }

    #[test]
    #[should_panic(expected = "sampling table")]
    fn sampling_without_table_panics() {
        let v = Vocab::default();
        let mut rng = StdRng::seed_from_u64(1);
        v.sample_negative(&mut rng);
    }
}
