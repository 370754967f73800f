//! Workload definitions and seeded input generation.
//!
//! Everything a run sends is derived from the workload name and the seed
//! argument alone. The table is fixed per workload (so set-up does the same
//! work in every run); the seed draws the request streams of every client
//! and the order in which clients walk them. The program under test only
//! ever sees the generated CSV file and the requests.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;
use subtab_core::{compiled_selection_rows, SelectionParams, SubTabConfig};
use subtab_data::{ColumnType, Predicate, Query, Table, Value};
use subtab_datasets::{
    generate, generate_server_traces, scale_spec, CellSpec, DatasetKind, DatasetSize,
    PlantedDataset, ScaleShape, SessionConfig,
};
use subtab_rules::MiningConfig;
use subtab_server::{Request, ServerConfig};

/// Rows of every selected sub-table.
pub const K: usize = 10;
/// Columns of every selected sub-table.
pub const L: usize = 10;
/// Closed-loop clients (analysts) sending requests concurrently.
pub const CLIENTS: usize = 2;
/// Server worker threads.
pub const WORKERS: usize = 2;
/// Heavy-lane admission slots.
pub const HEAVY_SLOTS: usize = 1;
/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 3;
/// Binning and embedding threads at preprocess time.
pub const PREPROCESS_THREADS: usize = 2;
/// Requests per client whose distinct sub-tables are scored for quality.
/// Fixed, so the scored set does not depend on how fast the run went; the
/// session corpora are shorter than this, so all of their sub-tables count.
pub const QUALITY_PREFIX: usize = 1000;
/// Rows of the wide table: large enough that preprocessing dominates the
/// run, small enough to repeat it several times per run.
pub const WIDE_ROWS: usize = 8_000;
/// Seed of every workload's table. The table is fixed so that set-up does
/// identical work in every run; the workload seed draws the request streams.
pub const TABLE_SEED: u64 = 2023;
/// Generated drill-down steps per client, about three times what a client
/// completes in a 15-second run on a 2-vCPU machine. A client that runs out
/// stops early (reported), because reusing a step would create a cache hit.
pub const DRILL_STEPS_PER_CLIENT: usize = 20_000;

/// Preprocessing configuration shared by every workload: the defaults, with
/// two deterministic binning/embedding threads so quality numbers and
/// output checks repeat exactly.
pub fn subtab_config() -> SubTabConfig {
    let mut config = SubTabConfig::default();
    config.binning.threads = PREPROCESS_THREADS;
    config.embedding.threads = PREPROCESS_THREADS;
    config.embedding.deterministic = true;
    config
}

/// The served configuration: two workers, one heavy slot, default caches.
pub fn server_config() -> ServerConfig {
    ServerConfig {
        workers: WORKERS,
        heavy_slots: HEAVY_SLOTS,
        ..ServerConfig::default()
    }
}

/// Thresholds of the rule sets behind highlighted selects. The paper's
/// defaults (support 0.1, rules up to 4 items) mine hundreds of thousands of
/// rules per target partition on these tables — seconds per request — so
/// highlighting uses a stricter set; quality scoring keeps the defaults.
pub fn highlight_mining() -> MiningConfig {
    MiningConfig {
        min_support: 0.2,
        max_rule_size: 3,
        ..MiningConfig::default()
    }
}

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The wide table: set-up dominates; a replayed session follows.
    LoadWide,
    /// Flights: refinement chains of distinct queries, bypassing the result
    /// cache.
    Drilldown,
    /// Flights: replayed analyst sessions sharing one server and its cache.
    SessionReplay,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 3] = [
        Workload::LoadWide,
        Workload::Drilldown,
        Workload::SessionReplay,
    ];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::LoadWide => "load-wide",
            Workload::Drilldown => "drilldown",
            Workload::SessionReplay => "session-replay",
        }
    }

    /// Looks a workload up by its command-line name.
    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The planted dataset the workload's CSV file is written from.
    pub fn dataset(self) -> PlantedDataset {
        match self {
            Workload::LoadWide => generate(&scale_spec(ScaleShape::Wide, WIDE_ROWS), TABLE_SEED),
            Workload::Drilldown | Workload::SessionReplay => {
                DatasetKind::Flights.build(DatasetSize::Small, TABLE_SEED)
            }
        }
    }

    /// Target columns of every select: flights' `CANCELLED`; on the wide
    /// table the three columns of its first planted archetype, so a
    /// sub-table can show the planted pattern at all.
    pub fn targets(self) -> Vec<String> {
        let names: &[&str] = match self {
            Workload::LoadWide => &["cat_00", "metric_00", "count_00"],
            Workload::Drilldown | Workload::SessionReplay => &["CANCELLED"],
        };
        names.iter().map(|s| s.to_string()).collect()
    }

    /// Whether clients start their script list over when they reach its
    /// end. Session replays do (repeats are the point); drill-down does
    /// not (a repeat would be a cache hit).
    pub fn cycles(self) -> bool {
        !matches!(self, Workload::Drilldown)
    }
}

/// One step of a client's script.
#[derive(Debug, Clone, PartialEq)]
pub enum Step {
    /// The landing view: `Select { query: None }`.
    Landing,
    /// A `SelectText` request with this query text.
    Text(String),
    /// A `SelectHighlighted` request over `query`, mining rules partitioned
    /// by `targets`.
    Highlight {
        /// The query scoping the highlighted selection.
        query: Query,
        /// Mining target columns.
        targets: Vec<String>,
    },
}

impl Step {
    /// The server request this step sends.
    pub fn request(&self, params: &SelectionParams) -> Request {
        match self {
            Step::Landing => Request::Select {
                query: None,
                params: params.clone(),
            },
            Step::Text(text) => Request::SelectText {
                query: text.clone(),
                params: params.clone(),
            },
            Step::Highlight { query, targets } => Request::SelectHighlighted {
                query: Some(query.clone()),
                params: params.clone(),
                mining: highlight_mining(),
                target_columns: targets.clone(),
            },
        }
    }

    /// Whether the step rides the heavy lane.
    pub fn is_heavy(&self) -> bool {
        matches!(self, Step::Highlight { .. })
    }

    /// The parsed query (`None` for the landing view).
    pub fn query(&self) -> Option<Query> {
        match self {
            Step::Landing => None,
            Step::Text(text) => Some(text.parse().expect("generated query text parses")),
            Step::Highlight { query, .. } => Some(query.clone()),
        }
    }

    /// The key the server's result cache stores this step under, up to the
    /// constant parameter part: the canonical selection key, plus the
    /// mining targets for a highlighted step.
    pub fn cache_key(&self) -> String {
        let select = self.query().unwrap_or_default().selection_key();
        match self {
            Step::Highlight { targets, .. } => format!("{select}\u{2}hl\u{2}{}", targets.join(",")),
            Step::Landing | Step::Text(_) => select,
        }
    }
}

/// One analyst session: opened, walked step by step, closed.
#[derive(Debug, Clone, PartialEq)]
pub struct Script {
    /// The steps, in order.
    pub steps: Vec<Step>,
}

/// Everything a run sends.
#[derive(Debug, Clone)]
pub struct Inputs {
    /// Selection parameters of every request.
    pub params: SelectionParams,
    /// Per client, the scripts it walks in order.
    pub clients: Vec<Vec<Script>>,
}

/// Generates the request streams of `workload` from `seed`, against the
/// table the server will load (the CSV round-trip of `dataset`).
pub fn generate_inputs(
    workload: Workload,
    seed: u64,
    dataset: &PlantedDataset,
    table: &Table,
) -> Inputs {
    let targets = workload.targets();
    let target_refs: Vec<&str> = targets.iter().map(String::as_str).collect();
    let params = SelectionParams::new(K, L).with_targets(&target_refs);
    let clients = match workload {
        Workload::Drilldown => drilldown_scripts(dataset, table, seed, DRILL_STEPS_PER_CLIENT),
        Workload::LoadWide | Workload::SessionReplay => {
            let corpus = session_scripts(dataset, seed);
            (0..CLIENTS)
                .map(|c| {
                    let mut order = corpus.clone();
                    order.shuffle(&mut StdRng::seed_from_u64(mix(seed, 100 + c as u64)));
                    order
                })
                .collect()
        }
    };
    Inputs { params, clients }
}

/// Derives an independent stream seed from the workload seed.
fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z ^ (z >> 31)
}

/// The `generate_server_traces` corpus as scripts: the landing view, the
/// session's queries as text, and one highlighted select over the last
/// filtered query, mining rules partitioned by the column that defines the
/// session's archetype.
fn session_scripts(dataset: &PlantedDataset, seed: u64) -> Vec<Script> {
    let config = SessionConfig {
        num_sessions: 64,
        min_queries: 3,
        max_queries: 7,
        seed: mix(seed, 1),
    };
    generate_server_traces(dataset, &config)
        .into_iter()
        .map(|session| {
            let mut steps: Vec<Step> = session
                .queries
                .iter()
                .enumerate()
                .map(|(i, q)| {
                    if i == 0 {
                        Step::Landing
                    } else {
                        Step::Text(q.to_string())
                    }
                })
                .collect();
            if let Some(last) = session.queries.iter().rev().find(|q| q.is_filtered()) {
                let defining = dataset.archetypes[session.archetype].cells[0].0.clone();
                steps.push(Step::Highlight {
                    query: last.clone(),
                    targets: vec![defining],
                });
            }
            Script { steps }
        })
        .collect()
}

/// Refinement chains: each step ANDs one more seed-drawn predicate (an
/// archetype value or a random `BETWEEN`) onto the previous step's text;
/// each chain closes with a highlighted select over one further refinement.
/// Every step is a distinct cache key across all clients and matches at
/// least `K` rows.
fn drilldown_scripts(
    dataset: &PlantedDataset,
    table: &Table,
    seed: u64,
    steps_per_client: usize,
) -> Vec<Vec<Script>> {
    let numeric: Vec<(String, f64, f64)> = table
        .columns()
        .iter()
        .filter(|c| matches!(c.column_type(), ColumnType::Int | ColumnType::Float))
        .filter_map(|c| {
            let (lo, hi) = c.min_max()?;
            (hi > lo).then(|| (c.name().to_string(), lo, hi))
        })
        .collect();
    let mut keys: HashSet<String> = HashSet::new();
    let mut clients = Vec::with_capacity(CLIENTS);
    for client in 0..CLIENTS {
        let mut rng = StdRng::seed_from_u64(mix(seed, 200 + client as u64));
        let mut scripts = Vec::new();
        let mut steps = 0;
        while steps < steps_per_client {
            let depth = rng.gen_range(3..=6usize);
            let mut text = String::new();
            let mut chain = Vec::with_capacity(depth + 1);
            for step in 0..=depth {
                let Some(next) = refine(&mut rng, dataset, &numeric, table, &text, &mut keys)
                else {
                    break;
                };
                if step == depth {
                    let query = next.parse().expect("generated query text parses");
                    chain.push(Step::Highlight {
                        query,
                        targets: vec!["CANCELLED".to_string()],
                    });
                } else {
                    chain.push(Step::Text(next.clone()));
                    text = next;
                }
            }
            steps += chain.len();
            if !chain.is_empty() {
                scripts.push(Script { steps: chain });
            }
        }
        clients.push(scripts);
    }
    clients
}

/// Draws a refinement of `base` whose selection key is new and which
/// matches at least `K` rows; `None` after a bounded number of tries.
fn refine(
    rng: &mut StdRng,
    dataset: &PlantedDataset,
    numeric: &[(String, f64, f64)],
    table: &Table,
    base: &str,
    keys: &mut HashSet<String>,
) -> Option<String> {
    for _ in 0..32 {
        let predicate = draw_predicate(rng, dataset, numeric);
        let text = if base.is_empty() {
            predicate.to_string()
        } else {
            format!("{base} AND {predicate}")
        };
        let query: Query = text.parse().expect("generated query text parses");
        let key = query.selection_key();
        if keys.contains(&key) {
            continue;
        }
        let matching = compiled_selection_rows(table, &query).map_or(0, |rows| rows.len());
        if matching >= K {
            keys.insert(key);
            return Some(text);
        }
    }
    None
}

/// An archetype-defining value or a `BETWEEN` with random bounds.
fn draw_predicate(
    rng: &mut StdRng,
    dataset: &PlantedDataset,
    numeric: &[(String, f64, f64)],
) -> Predicate {
    if rng.gen_bool(0.5) || numeric.is_empty() {
        let archetype = &dataset.archetypes[rng.gen_range(0..dataset.archetypes.len())];
        let (column, spec) = &archetype.cells[rng.gen_range(0..archetype.cells.len())];
        match spec {
            CellSpec::Missing => Predicate::is_null(column),
            CellSpec::Category(c) => Predicate::eq(column, Value::from(c.as_str())),
            CellSpec::IntValue(i) => Predicate::eq(column, Value::Int(*i)),
            CellSpec::Range(lo, hi) => Predicate::between(column, *lo, *hi),
        }
    } else {
        let (column, min, max) = &numeric[rng.gen_range(0..numeric.len())];
        let span = max - min;
        let lo = min + rng.gen::<f64>() * span * 0.6;
        let hi = lo + (0.25 + 0.75 * rng.gen::<f64>()) * (max - lo);
        // Two decimals keep the text short; the bounds are whatever the
        // text says, for the server and the checks alike.
        let round = |x: f64| (x * 100.0).round() / 100.0;
        Predicate::between(column, round(lo), round(hi) + 0.01)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use subtab_data::csv::parse_csv;
    use subtab_data::csv::to_csv;

    fn flights_tiny(seed: u64) -> (PlantedDataset, Table) {
        let ds = DatasetKind::Flights.build(DatasetSize::Tiny, seed);
        let table = parse_csv(&to_csv(&ds.table)).unwrap();
        (ds, table)
    }

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::from_name(w.name()), Some(w));
        }
        assert_eq!(Workload::from_name("bogus"), None);
    }

    #[test]
    fn drilldown_is_reproducible_and_seed_dependent() {
        let (ds, table) = flights_tiny(3);
        let a = drilldown_scripts(&ds, &table, 3, 60);
        let b = drilldown_scripts(&ds, &table, 3, 60);
        assert_eq!(a, b);
        let c = drilldown_scripts(&ds, &table, 4, 60);
        assert_ne!(a, c);
    }

    #[test]
    fn drilldown_keys_are_distinct_and_match_k_rows() {
        let (ds, table) = flights_tiny(5);
        let clients = drilldown_scripts(&ds, &table, 5, 150);
        let mut keys = HashSet::new();
        let mut steps = 0;
        for script in clients.iter().flatten() {
            let mut leaves = 0;
            for step in &script.steps {
                steps += 1;
                let query = step.query().unwrap();
                assert!(keys.insert(query.selection_key()), "repeated key {query}");
                // The per-row oracle agrees that at least K rows match.
                assert!(query.selection_rows(&table).unwrap().len() >= K);
                // Each step refines the previous one.
                assert!(query.leaf_predicates().len() > leaves);
                leaves = query.leaf_predicates().len();
            }
        }
        assert!(steps >= 2 * 150);
    }

    #[test]
    fn session_replay_is_reproducible_and_fits_the_cache() {
        let (ds, table) = flights_tiny(7);
        let a = generate_inputs(Workload::SessionReplay, 7, &ds, &table);
        let b = generate_inputs(Workload::SessionReplay, 7, &ds, &table);
        assert_eq!(a.clients, b.clients);
        let c = generate_inputs(Workload::SessionReplay, 8, &ds, &table);
        assert_ne!(a.clients, c.clients);
        // Both clients walk the same corpus in different orders.
        assert_ne!(a.clients[0], a.clients[1]);
        let keys: HashSet<String> = a.clients[0]
            .iter()
            .flat_map(|s| &s.steps)
            .map(Step::cache_key)
            .collect();
        assert!(keys.len() <= ServerConfig::default().select_cache_capacity);
        for script in &a.clients[0] {
            assert_eq!(script.steps[0], Step::Landing);
            assert!(script.steps.last().unwrap().is_heavy());
        }
    }

    #[test]
    fn full_size_session_corpora_fit_the_cache() {
        for workload in [Workload::SessionReplay, Workload::LoadWide] {
            let ds = workload.dataset();
            let table = parse_csv(&to_csv(&ds.table)).unwrap();
            let inputs = generate_inputs(workload, 11, &ds, &table);
            let keys: HashSet<String> = inputs
                .clients
                .iter()
                .flatten()
                .flat_map(|s| &s.steps)
                .map(Step::cache_key)
                .collect();
            assert!(
                keys.len() <= ServerConfig::default().select_cache_capacity,
                "{}: {} keys",
                workload.name(),
                keys.len()
            );
        }
    }
}
