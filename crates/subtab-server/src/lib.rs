//! # subtab-server
//!
//! A long-running, concurrent exploration service over one table: the
//! serving layer the paper's interactive EDA setting implies. The table is
//! pre-processed **once** ([`subtab_core::SubTab::preprocess`]); many
//! analyst sessions then issue selects, rule-mining runs and highlighted
//! selects against the shared immutable state concurrently.
//!
//! Architecture:
//!
//! * **`Arc`-shared state** — one [`SubTab`] (table, binning, embedding)
//!   serves every request; nothing is copied per session.
//! * **Dual-lane thread pool** ([`pool`]) — interactive selects are always
//!   preferred; heavy rule-mining jobs pass an admission gate (at most
//!   `heavy_slots` at once) so mining can never starve selects.
//! * **Keyed LRU caches** ([`cache`]) — canonical request encodings
//!   ([`Query::selection_key`]) map to `Arc`-shared results with
//!   single-flight computation and hit/miss counters. Queries that differ
//!   only in predicate order or numeric spelling share one cache entry.
//! * **Sessions** ([`session`]) — per-analyst ids with a history of every
//!   completed request (kind, query, cache hit, wall time).
//!
//! Selections and mined rule sets are bit-identical at every thread count,
//! which is what makes result caching across sessions sound: the `threads`
//! knob is deliberately absent from every cache key.
//!
//! ```
//! use subtab_core::{SelectionParams, SubTabConfig};
//! use subtab_data::Table;
//! use subtab_server::{ExplorationServer, Request, ServerConfig};
//!
//! let table = Table::builder()
//!     .column_f64("distance", (0..120).map(|i| Some(100.0 * (1 + i % 7) as f64)).collect())
//!     .column_str("airline", (0..120).map(|i| Some(if i % 2 == 0 { "WN" } else { "DL" })).collect())
//!     .build()
//!     .unwrap();
//! let server =
//!     ExplorationServer::new(table, SubTabConfig::fast(), ServerConfig::default()).unwrap();
//! let session = server.open_session();
//! let request = Request::Select { query: None, params: SelectionParams::new(5, 2) };
//! let cold = server.execute(session, request.clone()).unwrap();
//! assert!(!cold.cache_hit);
//! let warm = server.execute(session, request).unwrap();
//! assert!(warm.cache_hit, "identical request must be served from the cache");
//! let history = server.close_session(session).unwrap();
//! assert_eq!(history.len(), 2);
//! ```

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod cache;
pub mod pool;
pub mod session;

pub use cache::{CacheStats, ResultCache};
pub use pool::{Lane, Pool};
pub use session::{HistoryRecord, RequestKind, SessionId};

use std::fmt;
use std::panic::{self, AssertUnwindSafe};
use std::sync::mpsc::{self, Receiver};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Instant;
use subtab_core::{
    CoreError, LeafBitmapCache, SelectionParams, SubTab, SubTabConfig, SubTableResult,
};
use subtab_data::{Query, Table};
use subtab_rules::{MiningConfig, RuleSet};

use session::SessionRegistry;

/// Separates the select part from the rules part of a combined
/// highlighted-select cache key. Distinct from the `'\u{1}'` field
/// separator used inside [`Query::selection_key`] encodings, so combined
/// keys can never collide with plain select keys.
const KEY_PART_SEP: char = '\u{3}';

/// Errors of the serving layer.
#[derive(Debug, Clone, PartialEq)]
pub enum ServerError {
    /// The underlying query/selection/mining surface rejected the request.
    Core(CoreError),
    /// The request referenced a session that was never opened or is
    /// already closed.
    UnknownSession(SessionId),
    /// The server shut down before the request produced a response.
    Shutdown,
    /// The request's handler panicked (a bug, not a client error); the
    /// payload is the panic message. The server keeps serving.
    Internal(String),
}

impl fmt::Display for ServerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServerError::Core(e) => write!(f, "request failed: {e}"),
            ServerError::UnknownSession(id) => write!(f, "unknown {id}"),
            ServerError::Shutdown => write!(f, "server shut down"),
            ServerError::Internal(message) => write!(f, "request handler panicked: {message}"),
        }
    }
}

impl std::error::Error for ServerError {}

impl From<CoreError> for ServerError {
    fn from(e: CoreError) -> Self {
        ServerError::Core(e)
    }
}

/// Configuration of an [`ExplorationServer`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServerConfig {
    /// Worker threads executing requests.
    pub workers: usize,
    /// Maximum number of concurrently *running* heavy (rule-mining) jobs;
    /// clamped below `workers` so selects always have a worker (see
    /// [`Pool::new`]).
    pub heavy_slots: usize,
    /// Capacity of the selection-result cache (`0` disables it).
    pub select_cache_capacity: usize,
    /// Capacity of the mined-rule-set cache (`0` disables it).
    pub rules_cache_capacity: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: 4,
            heavy_slots: 1,
            select_cache_capacity: 256,
            rules_cache_capacity: 32,
        }
    }
}

/// One request against the served table.
#[derive(Debug, Clone)]
pub enum Request {
    /// Select a `k × l` sub-table of the full table (`query: None`) or of a
    /// query result. Runs on the interactive lane.
    Select {
        /// The SP query scoping the selection; `None` (and the empty
        /// query) mean the full table.
        query: Option<Query>,
        /// Sub-table dimensions and target columns.
        params: SelectionParams,
    },
    /// Select a `k × l` sub-table scoped by a SQL-ish query *text* (e.g.
    /// `"age > 30 AND (city = 'NYC' OR NOT risk IN ('high')) LIMIT 20"`) —
    /// the wire-friendly twin of [`Request::Select`] for clients that ship
    /// strings instead of [`Query`] values. The text is parsed server-side
    /// when the request is submitted; a parse failure resolves the request
    /// immediately with [`CoreError::QueryParse`] and never reaches the
    /// result cache. A successfully parsed request is indistinguishable
    /// from the equivalent structured [`Request::Select`] — including its
    /// cache key, so a commuted respelling of a cached query text is a
    /// cache hit. Runs on the interactive lane.
    SelectText {
        /// The SQL-ish query text; the empty string means the full table.
        query: String,
        /// Sub-table dimensions and target columns.
        params: SelectionParams,
    },
    /// Mine association rules over the binned table, optionally partitioned
    /// by target columns. Runs on the admission-controlled heavy lane.
    MineRules {
        /// Mining thresholds.
        mining: MiningConfig,
        /// Target column *names*; empty mines the whole table.
        target_columns: Vec<String>,
    },
    /// Select a sub-table and attach per-row rule highlights from a mined
    /// (and cached) rule set. Runs on the heavy lane — a cold call mines.
    SelectHighlighted {
        /// The SP query scoping the selection; `None` means the full table.
        query: Option<Query>,
        /// Sub-table dimensions and target columns.
        params: SelectionParams,
        /// Mining thresholds for the highlighting rule set.
        mining: MiningConfig,
        /// Target column names for the mining run; empty mines the whole
        /// table.
        target_columns: Vec<String>,
    },
}

impl Request {
    fn kind(&self) -> RequestKind {
        match self {
            Request::Select { .. } | Request::SelectText { .. } => RequestKind::Select,
            Request::MineRules { .. } => RequestKind::MineRules,
            Request::SelectHighlighted { .. } => RequestKind::SelectHighlighted,
        }
    }

    fn lane(&self) -> Lane {
        match self {
            Request::Select { .. } | Request::SelectText { .. } => Lane::Interactive,
            Request::MineRules { .. } | Request::SelectHighlighted { .. } => Lane::Heavy,
        }
    }

    fn query(&self) -> Option<&Query> {
        match self {
            Request::Select { query, .. } | Request::SelectHighlighted { query, .. } => {
                query.as_ref()
            }
            // Text requests are normalised into `Select` at submission, so
            // a worker never sees this variant with its query unparsed.
            Request::SelectText { .. } | Request::MineRules { .. } => None,
        }
    }
}

/// A successful response payload.
#[derive(Debug, Clone)]
pub enum Response {
    /// A selected (possibly highlighted) sub-table.
    SubTable(Arc<SubTableResult>),
    /// A mined rule set.
    Rules(Arc<RuleSet>),
}

impl Response {
    /// The sub-table payload, if this response carries one.
    pub fn sub_table(&self) -> Option<&Arc<SubTableResult>> {
        match self {
            Response::SubTable(r) => Some(r),
            Response::Rules(_) => None,
        }
    }

    /// The rule-set payload, if this response carries one.
    pub fn rules(&self) -> Option<&Arc<RuleSet>> {
        match self {
            Response::Rules(r) => Some(r),
            Response::SubTable(_) => None,
        }
    }
}

/// A completed request: the payload plus serving metadata.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// The response payload.
    pub response: Response,
    /// Whether a server cache answered the request.
    pub cache_hit: bool,
}

/// Point-in-time serving statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServerStats {
    /// Counters of the selection-result cache.
    pub select_cache: CacheStats,
    /// Counters of the mined-rule-set cache.
    pub rules_cache: CacheStats,
    /// Currently open sessions.
    pub open_sessions: usize,
}

/// Everything the worker threads share. Immutable after construction apart
/// from the (internally synchronised) caches and session registry.
struct Shared {
    subtab: Arc<SubTab>,
    selects: ResultCache<Arc<SubTableResult>>,
    rules: ResultCache<Arc<RuleSet>>,
    sessions: Mutex<SessionRegistry>,
}

impl Shared {
    /// Locks the session registry. Every critical section is one map
    /// update or read, so a poisoned lock still guards a consistent
    /// registry and is recovered: one panicking thread must not take every
    /// session down with it.
    fn sessions(&self) -> MutexGuard<'_, SessionRegistry> {
        self.sessions.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Canonical cache key of a select request. `None` and the empty query
    /// select over the same row set, so they share an entry; the seed is
    /// included because it changes the clustering (and thus the result).
    fn select_key(&self, query: Option<&Query>, params: &SelectionParams) -> String {
        let empty = Query::new();
        let q = query.unwrap_or(&empty);
        let mut key = format!(
            "sel\u{2}{}\u{2}{}\u{2}{}\u{2}{}",
            self.subtab.config().seed,
            params.k,
            params.l,
            params.target_columns.len(),
        );
        // Target order is part of the key: targets are force-included in
        // request order, so reordering them can reorder result columns.
        for t in &params.target_columns {
            key.push('\u{2}');
            key.push_str(&format!("{}:{t}", t.len()));
        }
        key.push('\u{2}');
        key.push_str(&q.selection_key());
        key
    }

    /// Canonical cache key of a mining request over resolved (sorted,
    /// deduplicated) target column indices. Thresholds are keyed by bit
    /// pattern, so `0.1` and `0.1 + 0.0` share an entry but any real
    /// threshold change does not.
    fn rules_key(mining: &MiningConfig, target_indices: &[usize]) -> String {
        let mut key = format!(
            "rules\u{2}{:016x}\u{2}{:016x}\u{2}{}\u{2}{}\u{2}{}",
            mining.min_support.to_bits(),
            mining.min_confidence.to_bits(),
            mining.min_rule_size,
            mining.max_rule_size,
            mining.max_rules,
        );
        for c in target_indices {
            key.push('\u{2}');
            key.push_str(&c.to_string());
        }
        key
    }

    /// Runs a selection, compiling query leaves through the session's
    /// leaf-bitmap cache. The cache only affects how leaf bitmaps are
    /// obtained — results are bit-identical to an uncached compile, so the
    /// shared result cache stays sound across sessions.
    fn run_select(
        &self,
        query: Option<&Query>,
        params: &SelectionParams,
        leaf_cache: &LeafBitmapCache,
    ) -> Result<Arc<SubTableResult>, ServerError> {
        let result = match query {
            Some(q) => self.subtab.select_for_query_cached(q, params, leaf_cache),
            None => self.subtab.select(params),
        }?;
        Ok(Arc::new(result))
    }

    fn cached_select(
        &self,
        query: Option<&Query>,
        params: &SelectionParams,
        leaf_cache: &LeafBitmapCache,
    ) -> Result<(Arc<SubTableResult>, bool), ServerError> {
        let key = self.select_key(query, params);
        self.selects
            .get_or_compute(&key, || self.run_select(query, params, leaf_cache))
    }

    /// Resolves target column names against the binned schema, then mines
    /// through the rules cache.
    fn cached_rules(
        &self,
        mining: &MiningConfig,
        target_columns: &[String],
    ) -> Result<(Arc<RuleSet>, bool), ServerError> {
        let binned = self.subtab.preprocessed().binned();
        let mut indices = target_columns
            .iter()
            .map(|name| {
                binned
                    .column_index(name)
                    .ok_or_else(|| ServerError::Core(CoreError::UnknownColumn(name.clone())))
            })
            .collect::<Result<Vec<usize>, ServerError>>()?;
        indices.sort_unstable();
        indices.dedup();
        let key = Self::rules_key(mining, &indices);
        self.rules.get_or_compute(&key, || {
            let rules = if indices.is_empty() {
                self.subtab.mine_rules(mining)
            } else {
                self.subtab.mine_rules_for_targets(mining, &indices)
            };
            Ok::<_, ServerError>(Arc::new(rules))
        })
    }

    fn handle(
        &self,
        request: &Request,
        leaf_cache: &LeafBitmapCache,
    ) -> Result<Outcome, ServerError> {
        match request {
            // Normally normalised away at submission; parsing here keeps
            // direct calls well-defined with the same error contract.
            Request::SelectText { query, params } => {
                let parsed: Query = query.parse().map_err(CoreError::from)?;
                self.handle(
                    &Request::Select {
                        query: Some(parsed),
                        params: params.clone(),
                    },
                    leaf_cache,
                )
            }
            Request::Select { query, params } => {
                let (result, hit) = self.cached_select(query.as_ref(), params, leaf_cache)?;
                Ok(Outcome {
                    response: Response::SubTable(result),
                    cache_hit: hit,
                })
            }
            Request::MineRules {
                mining,
                target_columns,
            } => {
                let (rules, hit) = self.cached_rules(mining, target_columns)?;
                Ok(Outcome {
                    response: Response::Rules(rules),
                    cache_hit: hit,
                })
            }
            Request::SelectHighlighted {
                query,
                params,
                mining,
                target_columns,
            } => {
                // The highlighted result is cached under a combined key; a
                // miss reuses the plain-select and rule-set caches, so two
                // highlighted queries over one rule set mine exactly once.
                let sel_key = self.select_key(query.as_ref(), params);
                let combined = {
                    let binned = self.subtab.preprocessed().binned();
                    let mut indices: Vec<usize> = target_columns
                        .iter()
                        .filter_map(|n| binned.column_index(n))
                        .collect();
                    indices.sort_unstable();
                    indices.dedup();
                    format!(
                        "{sel_key}{KEY_PART_SEP}{}",
                        Self::rules_key(mining, &indices)
                    )
                };
                let (result, hit) = self.selects.get_or_compute(&combined, || {
                    let (plain, _) = self.cached_select(query.as_ref(), params, leaf_cache)?;
                    let (rules, _) = self.cached_rules(mining, target_columns)?;
                    let highlighted = self.subtab.with_highlights((*plain).clone(), &rules);
                    Ok::<_, ServerError>(Arc::new(highlighted))
                })?;
                Ok(Outcome {
                    response: Response::SubTable(result),
                    cache_hit: hit,
                })
            }
        }
    }
}

/// The concurrent exploration server: preprocess once, serve many sessions.
///
/// Dropping the server drains in-flight and queued requests (their
/// [`ExplorationServer::submit`] receivers still resolve) and joins the
/// worker threads.
pub struct ExplorationServer {
    shared: Arc<Shared>,
    pool: Pool,
}

impl ExplorationServer {
    /// Pre-processes `table` and starts the worker pool.
    pub fn new(
        table: Table,
        config: SubTabConfig,
        server_config: ServerConfig,
    ) -> Result<Self, ServerError> {
        let subtab = SubTab::preprocess(table, config)?;
        Ok(Self::from_subtab(subtab, server_config))
    }

    /// Wraps an already pre-processed [`SubTab`] (e.g. to share one
    /// preprocessing run between several servers or between a server and a
    /// direct-call baseline — pass an `Arc<SubTab>` clone).
    pub fn from_subtab(subtab: impl Into<Arc<SubTab>>, server_config: ServerConfig) -> Self {
        let shared = Arc::new(Shared {
            subtab: subtab.into(),
            selects: ResultCache::new(server_config.select_cache_capacity),
            rules: ResultCache::new(server_config.rules_cache_capacity),
            sessions: Mutex::new(SessionRegistry::default()),
        });
        let pool = Pool::new(server_config.workers, server_config.heavy_slots);
        ExplorationServer { shared, pool }
    }

    /// The served [`SubTab`] instance (read-only).
    pub fn subtab(&self) -> &SubTab {
        &self.shared.subtab
    }

    /// Opens a new session and returns its id.
    pub fn open_session(&self) -> SessionId {
        self.shared.sessions().open()
    }

    /// Closes a session, returning its full history.
    pub fn close_session(&self, id: SessionId) -> Result<Vec<HistoryRecord>, ServerError> {
        self.shared
            .sessions()
            .close(id)
            .ok_or(ServerError::UnknownSession(id))
    }

    /// Counters of a session's private leaf-bitmap cache: how many
    /// predicate-leaf compilations were answered from the cache vs had to
    /// scan a column, and how many distinct leaves are resident. Evictions
    /// are always zero (the cache is unbounded for the session's lifetime
    /// and dropped on close).
    pub fn leaf_cache_stats(&self, id: SessionId) -> Result<CacheStats, ServerError> {
        let cache = self
            .shared
            .sessions()
            .leaf_cache(id)
            .ok_or(ServerError::UnknownSession(id))?;
        Ok(CacheStats {
            hits: cache.hits(),
            misses: cache.misses(),
            evictions: 0,
            entries: cache.len(),
        })
    }

    /// The history of an open session so far.
    pub fn session_history(&self, id: SessionId) -> Result<Vec<HistoryRecord>, ServerError> {
        self.shared
            .sessions()
            .history(id)
            .ok_or(ServerError::UnknownSession(id))
    }

    /// Enqueues `request` for `session` and returns a receiver that
    /// resolves to the outcome. Selects ride the interactive lane; mining
    /// and highlighted selects ride the admission-controlled heavy lane.
    ///
    /// The session is validated up front. If it is closed while the
    /// request is in flight, the request still completes (the result may
    /// be shared with other sessions through the cache) — only the history
    /// record is dropped.
    pub fn submit(
        &self,
        session: SessionId,
        request: Request,
    ) -> Receiver<Result<Outcome, ServerError>> {
        let (tx, rx) = mpsc::channel();
        // Validating the session also hands us its private leaf-bitmap
        // cache: compiled predicate leaves are reused across this session's
        // refinement chain, and the Arc keeps the cache usable even if the
        // session closes while the request is in flight.
        let leaf_cache = {
            let sessions = self.shared.sessions();
            match sessions.leaf_cache(session) {
                Some(cache) => cache,
                None => {
                    // The receiver resolves immediately with the error.
                    let _ = tx.send(Err(ServerError::UnknownSession(session)));
                    return rx;
                }
            }
        };
        // SQL-ish text requests are parsed at submission and normalised into
        // structured selects, so they share cache keys (and history records)
        // with their structured twins. A parse failure is a client error:
        // the receiver resolves immediately and no cache or worker is
        // touched — failures can never poison the result cache.
        let request = match request {
            Request::SelectText { query, params } => match query.parse::<Query>() {
                Ok(parsed) => Request::Select {
                    query: Some(parsed),
                    params,
                },
                Err(e) => {
                    let _ = tx.send(Err(ServerError::Core(CoreError::from(e))));
                    return rx;
                }
            },
            other => other,
        };
        let shared = Arc::clone(&self.shared);
        let lane = request.lane();
        self.pool.submit(lane, move || {
            let start = Instant::now();
            let outcome = contain_panic(|| shared.handle(&request, &leaf_cache));
            let wall = start.elapsed();
            if let Ok(outcome) = &outcome {
                let record = HistoryRecord {
                    kind: request.kind(),
                    query: request.query().cloned(),
                    cache_hit: outcome.cache_hit,
                    wall,
                };
                shared.sessions().record(session, record);
            }
            // A dropped receiver just means the caller stopped waiting.
            let _ = tx.send(outcome);
        });
        rx
    }

    /// Executes `request` for `session`, blocking until the response.
    pub fn execute(&self, session: SessionId, request: Request) -> Result<Outcome, ServerError> {
        self.submit(session, request)
            .recv()
            .unwrap_or(Err(ServerError::Shutdown))
    }

    /// Current cache counters and session count.
    pub fn stats(&self) -> ServerStats {
        ServerStats {
            select_cache: self.shared.selects.stats(),
            rules_cache: self.shared.rules.stats(),
            open_sessions: self.shared.sessions().len(),
        }
    }
}

/// Runs a request handler, turning a panic into [`ServerError::Internal`] so
/// the request resolves to a typed error instead of a dropped reply.
fn contain_panic(
    handler: impl FnOnce() -> Result<Outcome, ServerError>,
) -> Result<Outcome, ServerError> {
    panic::catch_unwind(AssertUnwindSafe(handler)).unwrap_or_else(|payload| {
        let message = payload
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_default();
        Err(ServerError::Internal(message))
    })
}

impl fmt::Debug for ExplorationServer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ExplorationServer")
            .field("workers", &self.pool.workers())
            .field("heavy_slots", &self.pool.heavy_slots())
            .field("stats", &self.stats())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use subtab_data::{Predicate, Value};
    use subtab_datasets::{cyber, DatasetSize};

    fn server() -> ExplorationServer {
        let dataset = cyber(DatasetSize::Tiny, 11);
        ExplorationServer::new(
            dataset.table,
            SubTabConfig::fast(),
            ServerConfig {
                workers: 2,
                heavy_slots: 1,
                select_cache_capacity: 16,
                rules_cache_capacity: 4,
            },
        )
        .expect("preprocess")
    }

    fn flagged_query() -> Query {
        Query::new().filter(Predicate::eq("flagged", Value::Int(1)))
    }

    #[test]
    fn select_requests_hit_the_cache_on_repeat() {
        let server = server();
        let session = server.open_session();
        let request = Request::Select {
            query: Some(flagged_query()),
            params: SelectionParams::new(6, 5),
        };
        let cold = server.execute(session, request.clone()).unwrap();
        assert!(!cold.cache_hit);
        let warm = server.execute(session, request).unwrap();
        assert!(warm.cache_hit);
        let (a, b) = (cold.response.sub_table(), warm.response.sub_table());
        assert!(
            Arc::ptr_eq(a.unwrap(), b.unwrap()),
            "a hit returns the identical shared result"
        );
        let stats = server.stats();
        assert_eq!(stats.select_cache.hits, 1);
        assert_eq!(stats.select_cache.misses, 1);
    }

    #[test]
    fn refinement_chains_reuse_leaf_bitmaps_per_session() {
        let server = server();
        let session = server.open_session();
        let params = SelectionParams::new(6, 5);
        // An exploration chain: each query refines the previous one, so the
        // select keys differ (no result-cache hit) but the `flagged = 1`
        // leaf repeats.
        for text in [
            "flagged = 1",
            "flagged = 1 AND protocol = 'tcp'",
            "flagged = 1 AND protocol = 'udp'",
        ] {
            let outcome = server
                .execute(
                    session,
                    Request::SelectText {
                        query: text.to_string(),
                        params: params.clone(),
                    },
                )
                .unwrap();
            assert!(!outcome.cache_hit, "distinct refinements miss: {text}");
        }
        let stats = server.leaf_cache_stats(session).unwrap();
        assert!(
            stats.hits >= 2,
            "repeated leaves compile from the cache: {stats:?}"
        );
        // flagged=1, protocol=tcp, protocol=udp.
        assert_eq!(stats.entries, 3, "{stats:?}");

        // A fresh session starts cold: its cache is private.
        let other = server.open_session();
        let cold = server.leaf_cache_stats(other).unwrap();
        assert_eq!((cold.hits, cold.entries), (0, 0), "sessions are isolated");
        server
            .execute(
                other,
                Request::SelectText {
                    query: "flagged = 1 AND protocol = 'tcp'".to_string(),
                    params: params.clone(),
                },
            )
            .unwrap();
        // The shared *result* cache answers the repeat, so the other
        // session's leaf cache is never even consulted.
        let after = server.leaf_cache_stats(other).unwrap();
        assert_eq!(after.entries, 0, "result-cache hit bypasses compilation");
        // Closing invalidates the stats surface with the session.
        server.close_session(other).unwrap();
        assert_eq!(
            server.leaf_cache_stats(other).unwrap_err(),
            ServerError::UnknownSession(other)
        );
    }

    #[test]
    fn equivalent_queries_share_one_cache_entry() {
        let server = server();
        let session = server.open_session();
        let params = SelectionParams::new(6, 5);
        let a = Query::new()
            .filter(Predicate::eq("flagged", Value::Int(1)))
            .filter(Predicate::eq("protocol", Value::from("tcp")));
        // Same predicates in the other order, with a different numeric
        // spelling of the flag.
        let b = Query::new()
            .filter(Predicate::eq("protocol", Value::from("tcp")))
            .filter(Predicate::eq("flagged", Value::Float(1.0)));
        let cold = server
            .execute(
                session,
                Request::Select {
                    query: Some(a),
                    params: params.clone(),
                },
            )
            .unwrap();
        assert!(!cold.cache_hit);
        let warm = server
            .execute(
                session,
                Request::Select {
                    query: Some(b),
                    params,
                },
            )
            .unwrap();
        assert!(warm.cache_hit, "canonicalized queries must share an entry");
    }

    #[test]
    fn text_requests_share_the_cache_with_structured_and_commuted_spellings() {
        let server = server();
        let session = server.open_session();
        let params = SelectionParams::new(6, 5);
        // Depth-3 nesting: AND over (OR over (NOT over a leaf)).
        let text = "flagged = 1 AND (protocol = 'udp' OR NOT protocol IN ('tcp', 'icmp'))";
        let cold = server
            .execute(
                session,
                Request::SelectText {
                    query: text.to_string(),
                    params: params.clone(),
                },
            )
            .unwrap();
        assert!(!cold.cache_hit);
        // A commuted respelling — operands flipped, the IN set written as a
        // negated disjunction, the flag in a different numeric spelling —
        // must land on the same cache entry.
        let commuted =
            "(NOT (protocol = 'icmp' OR protocol = 'tcp') OR protocol = 'udp') AND flagged = 1.0";
        let warm = server
            .execute(
                session,
                Request::SelectText {
                    query: commuted.to_string(),
                    params: params.clone(),
                },
            )
            .unwrap();
        assert!(warm.cache_hit, "commuted spelling must share the entry");
        assert!(Arc::ptr_eq(
            cold.response.sub_table().unwrap(),
            warm.response.sub_table().unwrap()
        ));
        // The structured equivalent shares it too.
        let structured: Query = text.parse().unwrap();
        let hit = server
            .execute(
                session,
                Request::Select {
                    query: Some(structured),
                    params,
                },
            )
            .unwrap();
        assert!(hit.cache_hit);
        // All three requests record history as plain selects, with the
        // parsed query attached.
        let history = server.session_history(session).unwrap();
        assert_eq!(history.len(), 3);
        assert!(history
            .iter()
            .all(|h| h.kind == RequestKind::Select && h.query.is_some()));
    }

    #[test]
    fn parse_errors_are_typed_and_never_touch_the_cache() {
        let server = server();
        let session = server.open_session();
        let params = SelectionParams::new(6, 5);
        // Nesting far past the parser's limit: without it, parsing these on
        // the submitting thread overflowed its stack and aborted the server.
        let deep_parens = format!("{}flagged = 1{}", "(".repeat(100_000), ")".repeat(100_000));
        let deep_nots = format!("{}flagged = 1", "NOT ".repeat(100_000));
        for bad in [
            "flagged = 1 AND (protocol = 'tcp'", // unbalanced parens
            "flagged ** 2",                      // unknown operator
            "protocol = 'unterminated",          // bad literal
            &deep_parens,
            &deep_nots,
        ] {
            let err = server
                .execute(
                    session,
                    Request::SelectText {
                        query: bad.to_string(),
                        params: params.clone(),
                    },
                )
                .unwrap_err();
            assert!(
                matches!(err, ServerError::Core(CoreError::QueryParse { .. })),
                "query {:?} must fail with a typed parse error, got {err:?}",
                &bad[..bad.len().min(40)]
            );
        }
        // Parse failures never reach the result cache or session history.
        let stats = server.stats().select_cache;
        assert_eq!((stats.hits, stats.misses), (0, 0));
        assert!(server.session_history(session).unwrap().is_empty());
    }

    #[test]
    fn full_table_select_matches_the_empty_query() {
        let server = server();
        let session = server.open_session();
        let params = SelectionParams::new(5, 4);
        let none = server
            .execute(
                session,
                Request::Select {
                    query: None,
                    params: params.clone(),
                },
            )
            .unwrap();
        let empty = server
            .execute(
                session,
                Request::Select {
                    query: Some(Query::new()),
                    params,
                },
            )
            .unwrap();
        assert!(empty.cache_hit, "None and the empty query share an entry");
        let direct = server.subtab().select(&SelectionParams::new(5, 4)).unwrap();
        let served = none.response.sub_table().unwrap();
        assert_eq!(served.row_indices, direct.row_indices);
        assert_eq!(served.columns, direct.columns);
    }

    #[test]
    fn mining_is_cached_and_typed_errors_surface() {
        let server = server();
        let session = server.open_session();
        let mining = MiningConfig {
            min_rule_size: 2,
            ..Default::default()
        };
        let request = Request::MineRules {
            mining: mining.clone(),
            target_columns: vec!["flagged".to_string()],
        };
        let cold = server.execute(session, request.clone()).unwrap();
        assert!(!cold.cache_hit);
        assert!(!cold.response.rules().unwrap().is_empty());
        let warm = server.execute(session, request).unwrap();
        assert!(warm.cache_hit);
        // Duplicated and reordered targets resolve to the same key.
        let dup = server
            .execute(
                session,
                Request::MineRules {
                    mining: mining.clone(),
                    target_columns: vec!["flagged".to_string(), "flagged".to_string()],
                },
            )
            .unwrap();
        assert!(dup.cache_hit);
        let err = server
            .execute(
                session,
                Request::MineRules {
                    mining,
                    target_columns: vec!["no_such_column".to_string()],
                },
            )
            .unwrap_err();
        assert_eq!(
            err,
            ServerError::Core(CoreError::UnknownColumn("no_such_column".to_string()))
        );
    }

    /// A handler that panics inside a cached rules computation resolves to
    /// a typed error, and the same request then computes on the heavy lane
    /// (its slot and its cache key were both released).
    #[test]
    fn a_panicking_handler_resolves_to_a_typed_error() {
        let server = server();
        let session = server.open_session();
        let mining = MiningConfig {
            min_rule_size: 2,
            ..Default::default()
        };
        let flagged = server
            .subtab()
            .preprocessed()
            .binned()
            .column_index("flagged")
            .unwrap();
        let key = Shared::rules_key(&mining, &[flagged]);
        let shared = Arc::clone(&server.shared);
        let (tx, rx) = mpsc::channel();
        server.pool.submit(Lane::Heavy, move || {
            let outcome = contain_panic(|| {
                let (rules, cache_hit) = shared
                    .rules
                    .get_or_compute(&key, || -> Result<Arc<RuleSet>, ServerError> {
                        panic!("mining bug")
                    })?;
                Ok(Outcome {
                    response: Response::Rules(rules),
                    cache_hit,
                })
            });
            let _ = tx.send(outcome);
        });
        let timeout = std::time::Duration::from_secs(30);
        let err = rx
            .recv_timeout(timeout)
            .expect("panicking request resolves");
        assert_eq!(
            err.unwrap_err(),
            ServerError::Internal("mining bug".to_string())
        );
        let retry = server.submit(
            session,
            Request::MineRules {
                mining,
                target_columns: vec!["flagged".to_string()],
            },
        );
        let outcome = retry
            .recv_timeout(timeout)
            .expect("the heavy lane and the rules key were released")
            .expect("mining succeeds");
        assert!(!outcome.cache_hit);
        assert!(!outcome.response.rules().unwrap().is_empty());
    }

    /// A thread that panics while holding the session registry's lock
    /// poisons it; every session call still answers afterwards.
    #[test]
    fn a_poisoned_session_lock_is_recovered() {
        let server = server();
        let before = server.open_session();
        let shared = Arc::clone(&server.shared);
        let panicked = std::thread::spawn(move || {
            let _guard = shared.sessions.lock();
            panic!("session bug");
        })
        .join();
        assert!(panicked.is_err());
        assert!(server.shared.sessions.is_poisoned());
        let session = server.open_session();
        assert_ne!(session, before);
        let request = Request::Select {
            query: Some(flagged_query()),
            params: SelectionParams::new(6, 5),
        };
        let outcome = server.execute(session, request).expect("select answers");
        assert!(outcome.response.sub_table().is_some());
        assert_eq!(server.stats().open_sessions, 2);
        assert_eq!(server.close_session(session).expect("open").len(), 1);
        assert!(server.close_session(before).expect("open").is_empty());
    }

    #[test]
    fn highlighted_select_reuses_both_caches() {
        let server = server();
        let session = server.open_session();
        let mining = MiningConfig {
            min_rule_size: 2,
            ..Default::default()
        };
        let request = Request::SelectHighlighted {
            query: Some(flagged_query()),
            params: SelectionParams::new(6, 5),
            mining: mining.clone(),
            target_columns: Vec::new(),
        };
        let cold = server.execute(session, request.clone()).unwrap();
        assert!(!cold.cache_hit);
        let warm = server.execute(session, request).unwrap();
        assert!(warm.cache_hit);
        // The mining run itself was cached once; a second highlighted
        // query over a different selection reuses it.
        let other = server
            .execute(
                session,
                Request::SelectHighlighted {
                    query: None,
                    params: SelectionParams::new(5, 5),
                    mining,
                    target_columns: Vec::new(),
                },
            )
            .unwrap();
        assert!(!other.cache_hit);
        assert_eq!(server.stats().rules_cache.misses, 1, "mined exactly once");
        assert!(server.stats().rules_cache.hits >= 1);
    }

    #[test]
    fn degenerate_requests_return_empty_results_through_the_cache() {
        let server = server();
        let session = server.open_session();
        for request in [
            Request::Select {
                query: None,
                params: SelectionParams::new(0, 5),
            },
            Request::Select {
                query: Some(Query::new().filter(Predicate::eq("protocol", Value::from("nope")))),
                params: SelectionParams::new(6, 5),
            },
            Request::Select {
                query: Some(Query::new().limit(0)),
                params: SelectionParams::new(6, 5),
            },
        ] {
            let cold = server.execute(session, request.clone()).unwrap();
            let result = cold.response.sub_table().unwrap().clone();
            assert_eq!(result.sub_table.num_rows(), 0);
            assert!(result.row_indices.is_empty());
            let warm = server.execute(session, request).unwrap();
            assert!(warm.cache_hit, "degenerate results are cacheable too");
            assert_eq!(warm.response.sub_table().unwrap().sub_table.num_rows(), 0);
        }
    }

    #[test]
    fn sessions_record_history_and_reject_unknown_ids() {
        let server = server();
        let session = server.open_session();
        let request = Request::Select {
            query: Some(flagged_query()),
            params: SelectionParams::new(4, 4),
        };
        server.execute(session, request.clone()).unwrap();
        server.execute(session, request.clone()).unwrap();
        let history = server.session_history(session).unwrap();
        assert_eq!(history.len(), 2);
        assert_eq!(history[0].kind, RequestKind::Select);
        assert!(!history[0].cache_hit);
        assert!(history[1].cache_hit);
        assert!(history[1].query.is_some());
        let closed = server.close_session(session).unwrap();
        assert_eq!(closed.len(), 2);
        let err = server.execute(session, request).unwrap_err();
        assert_eq!(err, ServerError::UnknownSession(session));
        assert_eq!(
            server.session_history(session).unwrap_err(),
            ServerError::UnknownSession(session)
        );
    }

    #[test]
    fn submit_overlaps_requests_across_sessions() {
        let server = server();
        let a = server.open_session();
        let b = server.open_session();
        assert_eq!(server.stats().open_sessions, 2);
        let queries = [None, Some(flagged_query())];
        let receivers: Vec<_> = (0..6)
            .map(|i| {
                server.submit(
                    if i % 2 == 0 { a } else { b },
                    Request::Select {
                        query: queries[i % queries.len()].clone(),
                        params: SelectionParams::new(5, 4),
                    },
                )
            })
            .collect();
        for rx in receivers {
            let outcome = rx.recv().expect("worker responded").expect("select ok");
            assert!(outcome.response.sub_table().is_some());
        }
        // 6 requests over 2 distinct keys: 2 misses (single-flighted or
        // sequential) and 4 hits.
        let stats = server.stats().select_cache;
        assert_eq!(stats.hits + stats.misses, 6);
        assert_eq!(stats.misses, 2);
    }
}
