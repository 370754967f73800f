//! The user-visible paths: set-up (CSV → preprocess → server → landing
//! view), the closed-loop traffic phase, the output checks and the quality
//! scores.

use crate::trace::Tracer;
use crate::workload::{
    highlight_mining, server_config, subtab_config, Inputs, Step, K, L, QUALITY_PREFIX,
};
use std::collections::hash_map::DefaultHasher;
use std::collections::{HashMap, HashSet};
use std::hash::{Hash, Hasher};
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use subtab_core::{HighlightIndex, RuleHighlight, SelectionParams, SubTab, SubTableResult};
use subtab_data::csv::read_csv_file;
use subtab_data::{Query, Table};
use subtab_metrics::Evaluator;
use subtab_rules::{MiningConfig, RuleSet};
use subtab_server::{ExplorationServer, Outcome, ServerError};

/// One set-up: read the CSV file, preprocess, start the server and serve
/// the landing view. Returns the server, the wall time and the landing
/// outcome.
pub fn setup(
    csv: &Path,
    params: &SelectionParams,
) -> Result<(ExplorationServer, Duration, Result<Outcome, ServerError>), String> {
    let start = Instant::now();
    let table = read_csv_file(csv).map_err(|e| format!("read_csv_file: {e}"))?;
    let subtab =
        SubTab::preprocess(table, subtab_config()).map_err(|e| format!("preprocess: {e}"))?;
    let server = ExplorationServer::from_subtab(subtab, server_config());
    let session = server.open_session();
    let landing = server.execute(session, Step::Landing.request(params));
    let wall = start.elapsed();
    server
        .close_session(session)
        .map_err(|e| format!("close_session: {e}"))?;
    Ok((server, wall, landing))
}

/// A served sub-table reduced to what the checks and the quality scores
/// need. Fixed-size, so the logs do not grow with the served results.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Digest {
    rows: [u32; K],
    n_rows: usize,
    columns: [u16; L],
    n_columns: usize,
    highlights: u64,
    shape_ok: bool,
}

impl Digest {
    /// The digest of a selection over `table`. `shape_ok` records whether
    /// the materialised sub-table matched the indices.
    pub fn new(
        table: &Table,
        rows: &[usize],
        columns: &[String],
        highlights: &[Option<RuleHighlight>],
        shape_ok: bool,
    ) -> Self {
        let mut digest = Digest {
            rows: [0; K],
            n_rows: rows.len(),
            columns: [u16::MAX; L],
            n_columns: columns.len(),
            highlights: 0,
            shape_ok,
        };
        for (slot, &row) in digest.rows.iter_mut().zip(rows) {
            *slot = u32::try_from(row).unwrap_or(u32::MAX);
        }
        for (slot, name) in digest.columns.iter_mut().zip(columns) {
            *slot = table
                .schema()
                .index_of(name)
                .and_then(|i| u16::try_from(i).ok())
                .unwrap_or(u16::MAX);
        }
        let mut hasher = DefaultHasher::new();
        for h in highlights {
            match h {
                None => 0u8.hash(&mut hasher),
                Some(h) => (1u8, h.rule_index, &h.columns, &h.description).hash(&mut hasher),
            }
        }
        highlights.len().hash(&mut hasher);
        digest.highlights = hasher.finish();
        digest
    }

    /// The digest of a served result.
    pub fn of(table: &Table, result: &SubTableResult) -> Self {
        let shape_ok = result.sub_table.num_rows() == result.row_indices.len()
            && result.sub_table.num_columns() == result.columns.len();
        Digest::new(
            table,
            &result.row_indices,
            &result.columns,
            &result.highlights,
            shape_ok,
        )
    }

    /// The selected rows (at most `K` are kept).
    pub fn rows(&self) -> Vec<usize> {
        self.rows[..self.n_rows.min(K)]
            .iter()
            .map(|&r| r as usize)
            .collect()
    }

    /// The selected column indices (at most `L` are kept).
    pub fn columns(&self) -> Vec<usize> {
        self.columns[..self.n_columns.min(L)]
            .iter()
            .map(|&c| usize::from(c))
            .collect()
    }
}

/// Set on a logged request's step index when a cache answered it.
pub const HIT: u32 = 1 << 31;

/// What one client sent and received.
#[derive(Debug)]
pub struct ClientLog {
    /// `(script, step)` of every step of the client's scripts, flattened.
    pub steps: Vec<(usize, usize)>,
    /// Per request, in sending order: the flattened step (`| HIT` when a
    /// cache answered) and the latency in ms.
    pub requests: Vec<(u32, f32)>,
    /// Per flattened step: its first answer and how many requests got it.
    pub answers: Vec<Option<(Digest, u32)>>,
    /// Requests that failed, or whose answer differed from their step's
    /// first answer.
    pub failed: usize,
    /// The first few failure messages.
    pub messages: Vec<String>,
    /// Summed per-session leaf-bitmap cache hits.
    pub leaf_hits: u64,
    /// Summed per-session leaf-bitmap cache misses.
    pub leaf_misses: u64,
    /// Whether the client ran out of scripts before the deadline.
    pub exhausted: bool,
}

impl ClientLog {
    /// The step a logged request sent.
    pub fn step<'a>(&self, inputs: &'a Inputs, client: usize, logged: u32) -> &'a Step {
        let (script, step) = self.steps[(logged & !HIT) as usize];
        &inputs.clients[client][script].steps[step]
    }

    fn fail(&mut self, message: String) {
        self.failed += 1;
        if self.messages.len() < 8 {
            self.messages.push(message);
        }
    }
}

/// The result of the traffic phase.
#[derive(Debug)]
pub struct Traffic {
    /// One log per client.
    pub clients: Vec<ClientLog>,
    /// From the first send to the last reply.
    pub wall: Duration,
}

impl Traffic {
    /// Requests sent by all clients.
    pub fn requests(&self) -> usize {
        self.clients.iter().map(|c| c.requests.len()).sum()
    }
}

/// Drives the server from one closed-loop client per script list in
/// `inputs` for `seconds`: each client sends its next request only after
/// the previous reply, opening a session per script. `cycles` restarts a
/// client's script list when it runs out. A client's first request of each
/// step is wrapped in a `server.request` span (a no-op unless `tracer`
/// records).
pub fn run_traffic(
    server: &ExplorationServer,
    inputs: &Inputs,
    cycles: bool,
    seconds: f64,
    tracer: &Tracer,
) -> Traffic {
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let clients = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..inputs.clients.len())
            .map(|client| {
                scope.spawn(move || client_loop(server, inputs, client, cycles, deadline, tracer))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    Traffic {
        clients,
        wall: start.elapsed(),
    }
}

fn client_loop(
    server: &ExplorationServer,
    inputs: &Inputs,
    client: usize,
    cycles: bool,
    deadline: Instant,
    tracer: &Tracer,
) -> ClientLog {
    let scripts = &inputs.clients[client];
    let table = server.subtab().table();
    let mut offsets = Vec::with_capacity(scripts.len());
    let mut steps = Vec::new();
    for (s, script) in scripts.iter().enumerate() {
        offsets.push(steps.len());
        steps.extend((0..script.steps.len()).map(|i| (s, i)));
    }
    let mut log = ClientLog {
        answers: vec![None; steps.len()],
        steps,
        requests: Vec::new(),
        failed: 0,
        messages: Vec::new(),
        leaf_hits: 0,
        leaf_misses: 0,
        exhausted: false,
    };
    let mut next = 0;
    loop {
        if next == scripts.len() {
            if !cycles || scripts.is_empty() {
                log.exhausted = Instant::now() < deadline;
                return log;
            }
            next = 0;
        }
        if Instant::now() >= deadline {
            return log;
        }
        let script = next;
        next += 1;
        let session = server.open_session();
        for (step_no, step) in scripts[script].steps.iter().enumerate() {
            if Instant::now() >= deadline {
                break;
            }
            let flat = offsets[script] + step_no;
            let request = step.request(&inputs.params);
            let id = ((client as u64) << 32) | log.requests.len() as u64;
            let sent = Instant::now();
            // Only a client's first request of a step gets a span: those are
            // the requests the traced replay reproduces under the same id.
            let outcome = if log.answers[flat].is_none() {
                let _span = tracer.span("server.request", None, id);
                server.execute(session, request)
            } else {
                server.execute(session, request)
            };
            let latency = sent.elapsed().as_secs_f64() * 1e3;
            let hit = outcome.as_ref().is_ok_and(|o| o.cache_hit);
            let logged =
                u32::try_from(flat).expect("fewer than 2^31 steps") | if hit { HIT } else { 0 };
            log.requests.push((logged, latency as f32));
            let digest = match &outcome {
                Ok(o) => match o.response.sub_table() {
                    Some(result) => Digest::of(table, result),
                    None => {
                        log.fail(format!("request {id}: response carries no sub-table"));
                        continue;
                    }
                },
                Err(e) => {
                    log.fail(format!("request {id}: {e}"));
                    continue;
                }
            };
            match &mut log.answers[flat] {
                slot @ None => *slot = Some((digest, 1)),
                Some((first, count)) if *first == digest => *count += 1,
                Some(_) => log.fail(format!(
                    "request {id}: answer differs from an earlier answer to {step:?}"
                )),
            }
        }
        if let Ok(stats) = server.leaf_cache_stats(session) {
            log.leaf_hits += stats.hits;
            log.leaf_misses += stats.misses;
        }
        // The session was opened above and is closed exactly once.
        let _ = server.close_session(session);
    }
}

/// The expected answer to one distinct request.
#[derive(Debug, Clone, PartialEq)]
pub struct Expected {
    /// Selected row indices, ascending.
    pub rows: Vec<usize>,
    /// Selected column names, schema order.
    pub columns: Vec<String>,
    /// Per-row highlights (empty for plain selects).
    pub highlights: Vec<Option<RuleHighlight>>,
}

/// Rule sets mined by the checks, keyed by sorted target column indices.
pub type RulesByTargets = Mutex<HashMap<Vec<usize>, Arc<RuleSet>>>;

/// The direct-call answer to `step`: `SubTab::select_for_query` (or
/// `select` for the landing view), plus `mine_rules_for_targets` and
/// `with_highlights_indexed` for a highlighted step.
pub fn direct_expected(
    subtab: &SubTab,
    step: &Step,
    params: &SelectionParams,
    rules: &RulesByTargets,
) -> Result<Expected, String> {
    let result = match step.query() {
        None => subtab.select(params),
        Some(q) => subtab.select_for_query(&q, params),
    }
    .map_err(|e| format!("direct select: {e}"))?;
    let result = match step {
        Step::Highlight { targets, .. } => {
            let indices = target_indices(subtab, targets)?;
            let cached = rules
                .lock()
                .expect("rules lock poisoned")
                .get(&indices)
                .cloned();
            let set = match cached {
                Some(set) => set,
                None => {
                    let set =
                        Arc::new(subtab.mine_rules_for_targets(&highlight_mining(), &indices));
                    rules
                        .lock()
                        .expect("rules lock poisoned")
                        .insert(indices, Arc::clone(&set));
                    set
                }
            };
            subtab.with_highlights_indexed(result, &HighlightIndex::build(&set))
        }
        Step::Landing | Step::Text(_) => result,
    };
    Ok(Expected {
        rows: result.row_indices,
        columns: result.columns,
        highlights: result.highlights,
    })
}

/// Sorted, deduplicated binned-column indices of `targets`.
pub fn target_indices(subtab: &SubTab, targets: &[String]) -> Result<Vec<usize>, String> {
    let binned = subtab.preprocessed().binned();
    let mut indices = targets
        .iter()
        .map(|t| {
            binned
                .column_index(t)
                .ok_or_else(|| format!("unknown target {t}"))
        })
        .collect::<Result<Vec<_>, _>>()?;
    indices.sort_unstable();
    indices.dedup();
    Ok(indices)
}

/// The per-row oracle of one query (`QueryExpr::matches` row by row,
/// independent of the compiled bitmap engine).
#[derive(Debug, Clone)]
pub struct Oracle {
    query: Query,
    /// Every row `Query::selection_rows` keeps, for queries with a `LIMIT`
    /// (which rows survive depends on the sort, so membership needs them
    /// all).
    limited: Option<Vec<usize>>,
    /// Matching rows, counted up to `k`.
    matching_up_to_k: usize,
}

impl Oracle {
    /// Evaluates `query` over `table` row by row, stopping once `k` rows
    /// are known to match (a `LIMIT` query is evaluated in full).
    pub fn new(query: Query, table: &Table, k: usize) -> Result<Self, String> {
        let mut oracle = Oracle {
            query,
            limited: None,
            matching_up_to_k: 0,
        };
        if oracle.query.limit.is_some() {
            let rows = oracle
                .query
                .selection_rows(table)
                .map_err(|e| format!("oracle: {e}"))?;
            oracle.matching_up_to_k = rows.len().min(k);
            oracle.limited = Some(rows);
        } else {
            for row in 0..table.num_rows() {
                if oracle.matching_up_to_k == k {
                    break;
                }
                if oracle.holds(table, row)? {
                    oracle.matching_up_to_k += 1;
                }
            }
        }
        Ok(oracle)
    }

    /// Whether `row` satisfies the query.
    pub fn holds(&self, table: &Table, row: usize) -> Result<bool, String> {
        match &self.limited {
            Some(rows) => Ok(rows.binary_search(&row).is_ok()),
            None => self
                .query
                .expr
                .matches(table, row)
                .map_err(|e| format!("oracle: {e}")),
        }
    }
}

/// Checks one served answer: it must be a sub-table of `min(k, matching)`
/// rows that all satisfy the query under the per-row oracle, contain every
/// target column, and equal `expected`.
pub fn verify(
    served: &Digest,
    expected: &Expected,
    oracle: &Oracle,
    table: &Table,
    params: &SelectionParams,
) -> Result<(), String> {
    if !served.shape_ok {
        return Err("sub-table shape disagrees with its indices".into());
    }
    let want_rows = params.k.min(oracle.matching_up_to_k);
    if served.n_rows != want_rows {
        return Err(format!(
            "{} rows, expected min(k, matching rows) = {want_rows}",
            served.n_rows
        ));
    }
    for row in served.rows() {
        if !oracle.holds(table, row)? {
            return Err(format!("row {row} does not satisfy the query"));
        }
    }
    let columns = served.columns();
    for target in &params.target_columns {
        if !table
            .schema()
            .index_of(target)
            .is_some_and(|t| columns.contains(&t))
        {
            return Err(format!("target column {target} missing"));
        }
    }
    let want = Digest::new(
        table,
        &expected.rows,
        &expected.columns,
        &expected.highlights,
        true,
    );
    if (served.rows, served.n_rows, served.columns, served.n_columns)
        != (want.rows, want.n_rows, want.columns, want.n_columns)
    {
        return Err("selection differs from the expected one".into());
    }
    if served.highlights != want.highlights {
        return Err("highlights differ from the expected ones".into());
    }
    Ok(())
}

/// Outcome of checking every served request.
#[derive(Debug, Default)]
pub struct CheckReport {
    /// Requests checked.
    pub attempted: usize,
    /// Requests that failed or failed a check.
    pub failed: usize,
    /// The first few failure messages.
    pub messages: Vec<String>,
}

impl CheckReport {
    /// Records `count` requests that share one check result.
    pub fn record_many(&mut self, what: &str, count: usize, result: Result<(), String>) {
        self.attempted += count;
        if let Err(e) = result {
            self.failed += count;
            self.note(format!("{what}: {e}"));
        }
    }

    /// Records one checked request.
    pub fn record(&mut self, what: &str, result: Result<(), String>) {
        self.record_many(what, 1, result);
    }

    fn note(&mut self, message: String) {
        if self.messages.len() < 8 {
            self.messages.push(message);
        }
    }
}

/// Expected answers and oracles, by step cache key.
pub type Expectations = HashMap<String, Result<(Expected, Oracle), String>>;

/// Computes the expected answer and oracle of every distinct step the
/// clients were answered, in parallel on `threads` threads, via `expect`.
pub fn expectations<F>(
    subtab: &SubTab,
    inputs: &Inputs,
    traffic: &Traffic,
    threads: usize,
    expect: F,
) -> Expectations
where
    F: Fn(&Step) -> Result<Expected, String> + Sync,
{
    let mut seen = HashSet::new();
    let mut distinct: Vec<(String, &Step)> = Vec::new();
    for (client, log) in traffic.clients.iter().enumerate() {
        for (flat, answer) in log.answers.iter().enumerate() {
            if answer.is_some() {
                let step = log.step(inputs, client, flat as u32);
                let key = step.cache_key();
                if seen.insert(key.clone()) {
                    distinct.push((key, step));
                }
            }
        }
    }
    let chunk = distinct.len().div_ceil(threads.max(1)).max(1);
    let expect = &expect;
    let k = inputs.params.k;
    std::thread::scope(|scope| {
        let handles: Vec<_> = distinct
            .chunks(chunk)
            .map(|part| {
                scope.spawn(move || {
                    part.iter()
                        .map(|(key, step)| {
                            let query = step.query().unwrap_or_default();
                            let entry = Oracle::new(query, subtab.table(), k)
                                .and_then(|o| Ok((expect(step)?, o)));
                            (key.clone(), entry)
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("check thread panicked"))
            .collect()
    })
}

/// Checks every served request: failures seen while serving, and each
/// step's first answer against its expectation (a failing first answer
/// fails every request that got it).
pub fn check_traffic(
    table: &Table,
    inputs: &Inputs,
    traffic: &Traffic,
    expected: &Expectations,
    report: &mut CheckReport,
) {
    for (client, log) in traffic.clients.iter().enumerate() {
        report.attempted += log.failed;
        report.failed += log.failed;
        for message in &log.messages {
            report.note(format!("client {client}: {message}"));
        }
        for (flat, answer) in log.answers.iter().enumerate() {
            let Some((digest, count)) = answer else {
                continue;
            };
            let step = log.step(inputs, client, flat as u32);
            let result = match expected.get(&step.cache_key()) {
                Some(Ok((want, oracle))) => verify(digest, want, oracle, table, &inputs.params),
                Some(Err(e)) => Err(e.clone()),
                None => Err("no expectation computed".into()),
            };
            report.record_many(
                &format!("client {client} {step:?}"),
                *count as usize,
                result,
            );
        }
    }
}

/// The paper's quality metrics averaged over the distinct sub-tables served
/// in the first [`QUALITY_PREFIX`] requests of every client, scored against
/// rules mined once at the paper's thresholds with α = 0.5.
pub fn quality(subtab: &SubTab, traffic: &Traffic, threads: usize) -> (f64, f64, usize) {
    let rules = subtab.mine_rules(&MiningConfig::default());
    let evaluator = Evaluator::new(subtab.preprocessed().binned().clone(), &rules, 0.5);
    let mut seen = HashSet::new();
    let distinct: Vec<(Vec<usize>, Vec<usize>)> = traffic
        .clients
        .iter()
        .flat_map(|log| {
            log.requests
                .iter()
                .take(QUALITY_PREFIX)
                .filter_map(|&(logged, _)| log.answers[(logged & !HIT) as usize])
        })
        .map(|(digest, _)| (digest.rows(), digest.columns()))
        .filter(|key| seen.insert(key.clone()))
        .collect();
    let chunk = distinct.len().div_ceil(threads.max(1)).max(1);
    let evaluator = &evaluator;
    let (coverage, diversity) = std::thread::scope(|scope| {
        let handles: Vec<_> = distinct
            .chunks(chunk)
            .map(|part| {
                scope.spawn(move || {
                    part.iter().fold((0.0, 0.0), |(c, d), (rows, cols)| {
                        let score = evaluator.score(rows, cols);
                        (c + score.cell_coverage, d + score.diversity)
                    })
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("scoring thread panicked"))
            .fold((0.0, 0.0), |(c, d), (pc, pd)| (c + pc, d + pd))
    });
    let n = distinct.len().max(1) as f64;
    (coverage / n, diversity / n, distinct.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> Table {
        Table::builder()
            .column_i64("a", (0..20).map(Some).collect())
            .column_str(
                "b",
                (0..20)
                    .map(|i| Some(if i % 2 == 0 { "x" } else { "y" }))
                    .collect(),
            )
            .build()
            .unwrap()
    }

    fn params() -> SelectionParams {
        SelectionParams::new(3, 2).with_targets(&["b"])
    }

    fn expected(rows: &[usize]) -> Expected {
        Expected {
            rows: rows.to_vec(),
            columns: vec!["a".into(), "b".into()],
            highlights: Vec::new(),
        }
    }

    #[test]
    fn verify_accepts_the_expected_answer_and_rejects_deviations() {
        let t = table();
        let oracle = Oracle::new("b = 'x'".parse().unwrap(), &t, 3).unwrap();
        let cols = vec!["a".to_string(), "b".to_string()];
        let check = |digest: &Digest, want: &[usize]| {
            verify(digest, &expected(want), &oracle, &t, &params())
        };
        let good = Digest::new(&t, &[0, 2, 4], &cols, &[], true);
        assert_eq!(check(&good, &[0, 2, 4]), Ok(()));
        // A row outside the query.
        let bad = Digest::new(&t, &[0, 1, 4], &cols, &[], true);
        assert!(check(&bad, &[0, 1, 4]).is_err());
        // Too few rows.
        let short = Digest::new(&t, &[0, 2], &cols, &[], true);
        assert!(check(&short, &[0, 2]).is_err());
        // Target column missing.
        let no_target = Digest::new(&t, &[0, 2, 4], &cols[..1], &[], true);
        assert!(check(&no_target, &[0, 2, 4]).is_err());
        // Differs from the direct answer.
        assert!(check(&good, &[2, 4, 6]).is_err());
        // Broken shape.
        let shape = Digest::new(&t, &[0, 2, 4], &cols, &[], false);
        assert!(check(&shape, &[0, 2, 4]).is_err());
    }

    #[test]
    fn oracle_counts_matches_up_to_k_and_honours_limits() {
        let t = table();
        let narrow = Oracle::new("a < 2".parse().unwrap(), &t, 3).unwrap();
        assert_eq!(narrow.matching_up_to_k, 2);
        let limited =
            Oracle::new("b = 'y' ORDER BY a DESC LIMIT 2".parse().unwrap(), &t, 3).unwrap();
        assert_eq!(limited.matching_up_to_k, 2);
        assert!(limited.holds(&t, 19).unwrap());
        assert!(!limited.holds(&t, 1).unwrap());
    }

    #[test]
    fn digests_see_highlight_changes() {
        let t = table();
        let cols = vec!["a".to_string()];
        let h = |i| {
            Some(RuleHighlight {
                rule_index: i,
                columns: vec!["a".into()],
                description: "a=1".into(),
            })
        };
        let one = Digest::new(&t, &[1], &cols, &[h(1)], true);
        assert_eq!(one, Digest::new(&t, &[1], &cols, &[h(1)], true));
        assert_ne!(one, Digest::new(&t, &[1], &cols, &[h(2)], true));
        assert_ne!(one, Digest::new(&t, &[1], &cols, &[None], true));
    }
}
