//! Configuration of the SubTab pipeline and of individual selections.

use serde::{Deserialize, Serialize};
use subtab_binning::BinningConfig;
use subtab_embed::EmbeddingConfig;

/// Configuration of the pre-processing phase.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SubTabConfig {
    /// Binning configuration (strategy, number of bins, …).
    pub binning: BinningConfig,
    /// Embedding hyper-parameters (dimension, epochs, corpus cap, …).
    pub embedding: EmbeddingConfig,
    /// Seed for the clustering step of each selection.
    pub seed: u64,
    /// Worker threads for query-time selection (the k-means assignment step
    /// over row/column vectors). `0` uses all available cores; `1` (the
    /// default) runs sequentially. Selections are bit-identical at every
    /// thread count. Usually set together with the binning and embedding
    /// thread counts via [`SubTabConfig::with_threads`].
    pub threads: usize,
}

impl Default for SubTabConfig {
    fn default() -> Self {
        SubTabConfig {
            binning: BinningConfig::default(),
            embedding: EmbeddingConfig::default(),
            seed: 0,
            threads: 1,
        }
    }
}

impl SubTabConfig {
    /// A configuration tuned for speed (smaller embedding, fewer epochs) —
    /// useful for unit tests, examples and interactive experimentation on
    /// small tables. Quality on large tables is better with
    /// [`SubTabConfig::default`].
    pub fn fast() -> Self {
        SubTabConfig {
            binning: BinningConfig::default(),
            embedding: EmbeddingConfig {
                dim: 16,
                epochs: 2,
                window: Some(6),
                ..Default::default()
            },
            seed: 42,
            threads: 1,
        }
    }

    /// Sets the random seed used by clustering (and forwarded to the
    /// embedding when it has no explicit seed override).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self.embedding.seed = seed;
        self
    }

    /// Sets the worker-thread count of every parallel stage: the embedding
    /// trainer, the per-column binning fit and the selection-time k-means
    /// assignment (`0` = all available cores, `1` = single-threaded; for
    /// the trainer, `1` selects the bit-exact reference).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self.binning.threads = threads;
        self.embedding.threads = threads;
        self
    }

    /// Sets the embedding trainer's single-thread mode: `true` selects the
    /// bit-exact reference trainer, `false` the fast kernels. Parallel
    /// training always averages per-worker replicas of the fast kernels,
    /// whatever the flag, and is run-to-run reproducible.
    pub fn with_deterministic(mut self, deterministic: bool) -> Self {
        self.embedding.deterministic = deterministic;
        self
    }
}

/// Parameters of one sub-table selection: the requested dimensions `k × l`
/// and the optional target columns that must appear in the result.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SelectionParams {
    /// Number of rows of the sub-table (`k` in the paper; default 10).
    pub k: usize,
    /// Number of columns of the sub-table (`l` in the paper; default 10).
    pub l: usize,
    /// Target columns (`U*`): always included in the selected columns.
    pub target_columns: Vec<String>,
}

impl Default for SelectionParams {
    fn default() -> Self {
        SelectionParams {
            k: 10,
            l: 10,
            target_columns: Vec::new(),
        }
    }
}

impl SelectionParams {
    /// Creates parameters for a `k × l` sub-table.
    pub fn new(k: usize, l: usize) -> Self {
        SelectionParams {
            k,
            l,
            ..Default::default()
        }
    }

    /// Adds target columns.
    pub fn with_targets(mut self, targets: &[&str]) -> Self {
        self.target_columns = targets.iter().map(|s| s.to_string()).collect();
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_the_papers_10_by_10() {
        let p = SelectionParams::default();
        assert_eq!(p.k, 10);
        assert_eq!(p.l, 10);
        assert!(p.target_columns.is_empty());
    }

    #[test]
    fn builders() {
        let p = SelectionParams::new(5, 4).with_targets(&["CANCELLED"]);
        assert_eq!(p.k, 5);
        assert_eq!(p.l, 4);
        assert_eq!(p.target_columns, vec!["CANCELLED".to_string()]);
        let c = SubTabConfig::fast().with_seed(7);
        assert_eq!(c.seed, 7);
        assert_eq!(c.embedding.seed, 7);
        assert!(c.embedding.dim <= SubTabConfig::default().embedding.dim);
    }

    #[test]
    fn with_threads_sets_every_parallel_stage() {
        let c = SubTabConfig::default();
        assert_eq!(c.threads, 1);
        let c = c.with_threads(4);
        assert_eq!(c.threads, 4);
        assert_eq!(c.binning.threads, 4);
        assert_eq!(c.embedding.threads, 4);
    }
}
