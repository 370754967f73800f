//! The EmbDI-style graph-embedding baseline.
//!
//! EmbDI (Cappuzzo et al., SIGMOD 2020) builds a tripartite graph over rows,
//! columns and cell values, generates random walks over it, and trains a
//! word-embedding model on the walks — a Node2Vec-flavoured table embedding
//! designed for data-integration tasks. The paper compares SubTab against
//! this embedding: it reaches comparable sub-table quality but its
//! pre-processing is an order of magnitude slower (40 min vs 90 s on FL).
//!
//! This module reimplements the idea at the scale of our substrate: the graph
//! has one node per row, per column and per (column, bin) value; edges connect
//! a row to the values of its cells and a column to the values appearing in
//! it. Random walks over the graph form the sentence corpus; the shared SGNS
//! trainer from `subtab-embed` learns node vectors; rows and columns are then
//! selected with the same centroid mechanism SubTab uses.

use crate::selection::Selection;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use subtab_binning::BinnedTable;
use subtab_cluster::{select_k_representatives, Matrix};
use subtab_embed::corpus::Corpus;
use subtab_embed::sgns::train_on_corpus;
use subtab_embed::vocab::Vocab;
use subtab_embed::EmbeddingConfig;

/// Configuration of the graph-embedding baseline.
#[derive(Debug, Clone, PartialEq)]
pub struct GraphEmbedConfig {
    /// Number of random walks started from every node.
    pub walks_per_node: usize,
    /// Length of each walk (number of nodes visited).
    pub walk_length: usize,
    /// SGNS hyper-parameters used to embed the walk corpus.
    pub embedding: EmbeddingConfig,
    /// RNG seed for the walks and the clustering.
    pub seed: u64,
}

impl Default for GraphEmbedConfig {
    fn default() -> Self {
        GraphEmbedConfig {
            walks_per_node: 6,
            walk_length: 20,
            embedding: EmbeddingConfig {
                dim: 32,
                epochs: 2,
                window: Some(5),
                ..Default::default()
            },
            seed: 42,
        }
    }
}

/// Node identifiers in the tripartite graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Node {
    Row(usize),
    Column(usize),
    Value(usize), // index into the value-node table
}

/// Selects a `k × l` sub-table with the EmbDI-style pipeline.
pub fn graph_embedding_select(
    binned: &BinnedTable,
    k: usize,
    l: usize,
    target_columns: &[usize],
    config: &GraphEmbedConfig,
) -> Selection {
    let n = binned.num_rows();
    let m = binned.num_columns();
    if n == 0 || m == 0 || k == 0 || l == 0 {
        return Selection::default();
    }

    // --- Build the tripartite graph.
    // Value nodes: one per (column, bin) actually occurring.
    let mut value_ids: Vec<Vec<Option<usize>>> =
        (0..m).map(|c| vec![None; binned.num_bins(c)]).collect();
    let mut num_values = 0usize;
    for (c, ids) in value_ids.iter_mut().enumerate() {
        for r in 0..n {
            let b = binned.bin_id(r, c) as usize;
            if ids[b].is_none() {
                ids[b] = Some(num_values);
                num_values += 1;
            }
        }
    }
    // Adjacency: value -> rows, value -> columns; row -> values; column -> values.
    let mut value_rows: Vec<Vec<usize>> = vec![Vec::new(); num_values];
    let mut value_cols: Vec<Vec<usize>> = vec![Vec::new(); num_values];
    let mut row_values: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut col_values: Vec<Vec<usize>> = vec![Vec::new(); m];
    for r in 0..n {
        for c in 0..m {
            let v = value_ids[c][binned.bin_id(r, c) as usize].expect("registered above");
            value_rows[v].push(r);
            row_values[r].push(v);
            if !col_values[c].contains(&v) {
                col_values[c].push(v);
                value_cols[v].push(c);
            }
        }
    }

    // --- Random walks → sentence corpus.
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut vocab = Vocab::default();
    let token = |node: Node| match node {
        Node::Row(r) => format!("R{r}"),
        Node::Column(c) => format!("C{c}"),
        Node::Value(v) => format!("V{v}"),
    };
    let mut sentences: Vec<Vec<u32>> = Vec::new();
    let start_nodes: Vec<Node> = (0..n)
        .map(Node::Row)
        .chain((0..m).map(Node::Column))
        .chain((0..num_values).map(Node::Value))
        .collect();
    for &start in &start_nodes {
        for _ in 0..config.walks_per_node.max(1) {
            let mut sentence = Vec::with_capacity(config.walk_length);
            let mut current = start;
            for _ in 0..config.walk_length.max(2) {
                sentence.push(vocab.add(&token(current)));
                current = match current {
                    Node::Row(r) => {
                        let vals = &row_values[r];
                        Node::Value(vals[rng.gen_range(0..vals.len())])
                    }
                    Node::Column(c) => {
                        let vals = &col_values[c];
                        Node::Value(vals[rng.gen_range(0..vals.len())])
                    }
                    Node::Value(v) => {
                        // Alternate between rows and columns reachable from the value.
                        if rng.gen::<bool>() || value_cols[v].is_empty() {
                            let rows = &value_rows[v];
                            Node::Row(rows[rng.gen_range(0..rows.len())])
                        } else {
                            let cols = &value_cols[v];
                            Node::Column(cols[rng.gen_range(0..cols.len())])
                        }
                    }
                };
            }
            sentences.push(sentence);
        }
    }
    vocab.build_sampling_table();
    let corpus = Corpus { sentences, vocab };
    let embedding = train_on_corpus(&corpus, &config.embedding);

    // --- Node vectors → centroid selection, exactly as in SubTab. Node
    //     vectors are written straight into a flat matrix (zero row for
    //     nodes the walks never embedded), no allocation per node.
    let dim = config.embedding.dim;
    let mut row_vectors = Matrix::with_capacity(n, dim);
    for r in 0..n {
        match embedding.vector(&format!("R{r}")) {
            Some(v) => row_vectors.push_row(v),
            None => row_vectors.push_zero_row(),
        }
    }
    let rows = select_k_representatives(row_vectors.view(), k.min(n), config.seed);

    let free_cols: Vec<usize> = (0..m).filter(|c| !target_columns.contains(c)).collect();
    let l_free = l.saturating_sub(target_columns.len()).min(free_cols.len());
    let mut cols: Vec<usize> = target_columns.to_vec();
    if l_free > 0 {
        let mut col_vectors = Matrix::with_capacity(free_cols.len(), dim);
        for &c in &free_cols {
            match embedding.vector(&format!("C{c}")) {
                Some(v) => col_vectors.push_row(v),
                None => col_vectors.push_zero_row(),
            }
        }
        let reps =
            select_k_representatives(col_vectors.view(), l_free, config.seed.wrapping_add(1));
        cols.extend(reps.into_iter().map(|p| free_cols[p]));
    }
    Selection::new(rows, cols)
}

#[cfg(test)]
mod tests {
    use super::*;
    use subtab_binning::{Binner, BinningConfig};
    use subtab_data::Table;

    fn binned(rows: usize) -> BinnedTable {
        let t = Table::builder()
            .column_i64("group", (0..rows).map(|i| Some((i % 2) as i64)).collect())
            .column_str(
                "label",
                (0..rows)
                    .map(|i| Some(if i % 2 == 0 { "x" } else { "y" }))
                    .collect(),
            )
            .column_f64(
                "value",
                (0..rows)
                    .map(|i| Some(if i % 2 == 0 { 1.0 } else { 100.0 } + i as f64))
                    .collect(),
            )
            .build()
            .unwrap();
        let binner = Binner::fit(&t, &BinningConfig::default()).unwrap();
        binner.apply(&t).unwrap()
    }

    fn quick_config(seed: u64) -> GraphEmbedConfig {
        GraphEmbedConfig {
            walks_per_node: 3,
            walk_length: 10,
            embedding: EmbeddingConfig {
                dim: 12,
                epochs: 2,
                window: Some(4),
                seed,
                ..Default::default()
            },
            seed,
        }
    }

    #[test]
    fn produces_valid_selection() {
        let bt = binned(30);
        let s = graph_embedding_select(&bt, 6, 2, &[], &quick_config(1));
        assert!(s.is_valid(6, 2, 30, 3));
    }

    #[test]
    fn covers_both_row_groups() {
        let bt = binned(40);
        let s = graph_embedding_select(&bt, 4, 3, &[], &quick_config(2));
        let groups: Vec<u16> = s.rows.iter().map(|&r| bt.bin_id(r, 0)).collect();
        let mut distinct = groups.clone();
        distinct.sort_unstable();
        distinct.dedup();
        assert!(
            distinct.len() >= 2,
            "representatives should span both groups"
        );
    }

    #[test]
    fn respects_targets_and_is_deterministic() {
        let bt = binned(20);
        let a = graph_embedding_select(&bt, 3, 2, &[0], &quick_config(5));
        let b = graph_embedding_select(&bt, 3, 2, &[0], &quick_config(5));
        assert_eq!(a, b);
        assert!(a.cols.contains(&0));
    }

    #[test]
    fn degenerate_inputs() {
        let bt = binned(10);
        assert_eq!(
            graph_embedding_select(&bt, 0, 2, &[], &quick_config(1)),
            Selection::default()
        );
        assert_eq!(
            graph_embedding_select(&bt, 2, 0, &[], &quick_config(1)),
            Selection::default()
        );
    }
}
