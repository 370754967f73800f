//! The traced run's layer-by-layer replay.
//!
//! Every call below goes to one layer's public function, inside a span
//! named after the per-layer metric it feeds. The replay reassembles each
//! selection the way `select_sub_table` does, so its rows and columns must
//! equal what the server served.

use crate::serve::{target_indices, Expected};
use crate::trace::{SpanId, Tracer};
use crate::workload::{highlight_mining, Step};
use std::collections::HashMap;
use std::path::Path;
use std::sync::Arc;
use subtab_binning::{BinnedTable, Binner};
use subtab_cluster::{select_representatives, KMeans, Matrix, MatrixView};
use subtab_core::{
    compiled_selection_rows_cached, HighlightIndex, LeafBitmapCache, SelectionParams, SubTab,
};
use subtab_data::csv::read_csv_file;
use subtab_data::{Query, Table};
use subtab_embed::{build_pair_stream, train_embedding, StreamOptions, TokenPlane};
use subtab_rules::{MiningConfig, RuleMiner, RuleSet};

/// The preprocess artefacts rebuilt layer by layer.
pub struct Artefacts {
    /// The table as read from the CSV file.
    pub table: Table,
    /// The binned table.
    pub binned: BinnedTable,
    /// The token-id plane.
    pub plane: TokenPlane,
}

/// Preprocessing replayed through each layer's public function, inside a
/// `setup` container span.
pub fn traced_setup(
    csv: &Path,
    config: &subtab_core::SubTabConfig,
    tracer: &Tracer,
) -> Result<Artefacts, String> {
    let root = tracer.span("setup", None, 0);
    let parent = root.id();
    let table = tracer
        .time("data.csv_read", parent, 0, || read_csv_file(csv))
        .map_err(|e| format!("read_csv_file: {e}"))?;
    let binner = tracer
        .time("binning.fit", parent, 0, || {
            Binner::fit(&table, &config.binning)
        })
        .map_err(|e| format!("Binner::fit: {e}"))?;
    let binned = tracer
        .time("binning.apply", parent, 0, || binner.apply(&table))
        .map_err(|e| format!("Binner::apply: {e}"))?;
    let embedding = tracer.time("embed.train", parent, 0, || {
        train_embedding(&binned, &config.embedding)
    });
    let plane = tracer.time("embed.token_plane", parent, 0, || {
        embedding.token_plane(&binned)
    });
    Ok(Artefacts {
        table,
        binned,
        plane,
    })
}

/// Pair and vocabulary counts of the embedding's training stream, built
/// with the options `train_embedding` derives from `config` (outside any
/// span: counting is not part of the timed work).
pub fn pair_stream_counts(
    binned: &BinnedTable,
    config: &subtab_embed::EmbeddingConfig,
) -> (usize, usize) {
    let options = StreamOptions {
        max_sentences: config.max_sentences,
        max_column_sentence_len: config.max_column_sentence_len,
        include_column_sentences: config.include_column_sentences,
        seed: config.seed,
        window: config.window,
        min_count: config.min_count,
        subsample_t: config.subsample_t,
    };
    let stream = build_pair_stream(binned, &options);
    (stream.num_pairs(), stream.vocab.len())
}

/// Counters of the replayed selections.
#[derive(Debug, Default, Clone, Copy)]
pub struct Counters {
    /// Selections replayed.
    pub selects: u64,
    /// Summed candidate rows.
    pub candidate_rows: u64,
    /// Summed k-means iterations (row and column fits).
    pub iterations: u64,
    /// Summed points × k × iterations.
    pub distance_evals: u64,
    /// Rule-mining calls.
    pub mines: u64,
    /// Summed rules mined.
    pub rules_mined: u64,
}

impl Counters {
    /// Adds `other` into `self`.
    pub fn add(&mut self, other: &Counters) {
        self.selects += other.selects;
        self.candidate_rows += other.candidate_rows;
        self.iterations += other.iterations;
        self.distance_evals += other.distance_evals;
        self.mines += other.mines;
        self.rules_mined += other.rules_mined;
    }
}

/// Per-replay state mirroring the server's: a leaf-bitmap cache per
/// session and a rule-set cache per target set.
pub struct Replayer<'a> {
    /// The served SubTab (its preprocessed artefacts are what selections
    /// gather from).
    subtab: &'a SubTab,
    /// Selection parameters of every request.
    params: &'a SelectionParams,
    /// The recorder (disabled for the untraced pass).
    tracer: &'a Tracer,
    /// Counters accumulated so far.
    pub counters: Counters,
    rules: HashMap<Vec<usize>, Arc<RuleSet>>,
}

impl<'a> Replayer<'a> {
    /// A replayer over `subtab`.
    pub fn new(subtab: &'a SubTab, params: &'a SelectionParams, tracer: &'a Tracer) -> Self {
        Replayer {
            subtab,
            params,
            tracer,
            counters: Counters::default(),
            rules: HashMap::new(),
        }
    }

    /// Replays one step inside a container span named `container`.
    pub fn step(
        &mut self,
        container: &'static str,
        step: &Step,
        leaf_cache: &LeafBitmapCache,
        request: u64,
    ) -> Result<Expected, String> {
        let tracer = self.tracer;
        let root = tracer.span(container, None, request);
        let parent = root.id();
        let query = match step {
            Step::Landing => None,
            Step::Text(text) => Some(
                tracer
                    .time("data.parse", parent, request, || Query::parse(text))
                    .map_err(|e| format!("Query::parse: {e}"))?,
            ),
            Step::Highlight { query, .. } => Some(query.clone()),
        };
        let mut expected = self.select(query.as_ref(), leaf_cache, parent, request)?;
        if let Step::Highlight { targets, .. } = step {
            let indices = target_indices(self.subtab, targets)?;
            let rules = self.rules_for(indices, parent, request);
            let binned = self.subtab.preprocessed().binned();
            expected.highlights = tracer.time("core.highlight", parent, request, || {
                HighlightIndex::build(&rules).probe(binned, &expected.rows, &expected.columns)
            });
        }
        Ok(expected)
    }

    fn rules_for(
        &mut self,
        indices: Vec<usize>,
        parent: Option<SpanId>,
        request: u64,
    ) -> Arc<RuleSet> {
        if let Some(rules) = self.rules.get(&indices) {
            return Arc::clone(rules);
        }
        // `SubTab::mine_rules_for_targets` runs the miner with the SubTab's
        // selection thread budget.
        let config = MiningConfig {
            threads: self.subtab.config().threads,
            ..highlight_mining()
        };
        let binned = self.subtab.preprocessed().binned();
        let rules = Arc::new(self.tracer.time("rules.mine", parent, request, || {
            RuleMiner::new(config).mine_with_targets(binned, &indices)
        }));
        self.counters.mines += 1;
        self.counters.rules_mined += rules.len() as u64;
        self.rules.insert(indices, Arc::clone(&rules));
        rules
    }

    /// `select_sub_table_cached`, step by step through public calls.
    fn select(
        &mut self,
        query: Option<&Query>,
        leaf_cache: &LeafBitmapCache,
        parent: Option<SpanId>,
        request: u64,
    ) -> Result<Expected, String> {
        let tracer = self.tracer;
        let pre = self.subtab.preprocessed();
        let table = pre.table();
        let params = self.params;
        let seed = self.subtab.config().seed;
        let threads = self.subtab.config().threads;
        let empty = Expected {
            rows: Vec::new(),
            columns: Vec::new(),
            highlights: Vec::new(),
        };
        let target_idx = params
            .target_columns
            .iter()
            .map(|t| {
                table
                    .schema()
                    .index_of(t)
                    .ok_or_else(|| format!("unknown target {t}"))
            })
            .collect::<Result<Vec<usize>, String>>()?;
        if params.k == 0 || params.l == 0 {
            return Ok(empty);
        }
        let candidate_rows: Vec<usize> = match query {
            None => (0..table.num_rows()).collect(),
            Some(q) => tracer
                .time("core.compile", parent, request, || {
                    compiled_selection_rows_cached(table, q, leaf_cache)
                })
                .map_err(|e| format!("compile: {e}"))?,
        };
        if candidate_rows.is_empty() {
            return Ok(empty);
        }
        let mut candidate_columns: Vec<usize> = Vec::new();
        match query.and_then(|q| q.projection.as_ref()) {
            Some(projection) => {
                for name in projection.iter().chain(&params.target_columns) {
                    let idx = table
                        .schema()
                        .index_of(name)
                        .ok_or_else(|| format!("unknown column {name}"))?;
                    if !candidate_columns.contains(&idx) {
                        candidate_columns.push(idx);
                    }
                }
            }
            None => candidate_columns.extend(0..table.num_columns()),
        }
        if candidate_columns.is_empty() {
            return Ok(empty);
        }
        let k = params.k.min(candidate_rows.len());
        let free_columns: Vec<usize> = candidate_columns
            .iter()
            .copied()
            .filter(|c| !target_idx.contains(c))
            .collect();
        let l_free = params
            .l
            .saturating_sub(target_idx.len())
            .min(free_columns.len());
        let whole_table = query.is_none() && candidate_columns.len() == table.num_columns();

        let embedding = pre.embedding();
        let plane = pre.plane();
        let (row_matrix, col_matrix) = {
            let gather = tracer.span("core.gather", parent, request);
            let rows: Arc<Matrix> = if whole_table {
                tracer.time("core.full_row_vectors", gather.id(), request, || {
                    pre.full_row_vectors()
                })
            } else {
                Arc::new(Matrix::new(
                    embedding.row_vectors(plane, &candidate_rows, &candidate_columns, threads),
                    embedding.dim(),
                ))
            };
            let cols = if l_free > 0 {
                Matrix::new(
                    embedding.column_vectors(plane, &free_columns, &candidate_rows, threads),
                    embedding.dim(),
                )
            } else {
                Matrix::default()
            };
            (rows, cols)
        };

        let counters = &mut self.counters;
        let (row_reps, col_reps) = tracer.time("cluster.kmeans", parent, request, || {
            let rows = representatives(row_matrix.view(), k, seed, threads, counters);
            let cols = if l_free > 0 {
                representatives(
                    col_matrix.view(),
                    l_free,
                    seed.wrapping_add(1),
                    threads,
                    counters,
                )
            } else {
                Vec::new()
            };
            (rows, cols)
        });
        counters.selects += 1;
        counters.candidate_rows += candidate_rows.len() as u64;

        let mut rows: Vec<usize> = row_reps.iter().map(|&p| candidate_rows[p]).collect();
        rows.sort_unstable();
        let mut columns_idx = target_idx;
        columns_idx.extend(col_reps.iter().map(|&p| free_columns[p]));
        columns_idx.sort_unstable();
        columns_idx.dedup();
        let columns = columns_idx
            .iter()
            .map(|&c| {
                table
                    .schema()
                    .field_at(c)
                    .map(|f| f.name.clone())
                    .ok_or_else(|| format!("column index {c} out of schema"))
            })
            .collect::<Result<Vec<String>, String>>()?;
        Ok(Expected {
            rows,
            columns,
            highlights: Vec::new(),
        })
    }
}

/// `select_k_representatives_threaded` through `KMeans::fit` and
/// `select_representatives`, counting the fit's work.
fn representatives(
    points: MatrixView,
    k: usize,
    seed: u64,
    threads: usize,
    counters: &mut Counters,
) -> Vec<usize> {
    if k == 0 || points.is_empty() {
        return Vec::new();
    }
    if points.num_rows() <= k {
        return (0..points.num_rows()).collect();
    }
    let fit = KMeans::new(k, seed).threads(threads).fit(points);
    counters.iterations += fit.iterations as u64;
    counters.distance_evals += (points.num_rows() * k * fit.iterations) as u64;
    select_representatives(points, &fit)
}
