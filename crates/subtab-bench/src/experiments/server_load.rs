//! Serving-layer load benchmark: a closed-loop generator replays EDA
//! session traces against an [`ExplorationServer`] and reports throughput
//! and tail latency per serving mode, plus the cached-hit speedup of the
//! session cache. Emits machine-readable JSON (`BENCH_server.json`) in the
//! shape of the shared CI bench-regression gate.
//!
//! Modes (all replay the identical trace corpus):
//!
//! * `serve-direct-1t` — sequential direct facade calls, no server, no
//!   cache: the pre-serving baseline and the gate's normalisation
//!   reference.
//! * `serve-cold-1w` — one simulated user against a 1-worker server with
//!   caching disabled: isolates the dispatch/queue overhead per request.
//! * `serve-cold-4w` — 4 users against a 4-worker server, caches disabled:
//!   concurrent scaling of the raw execution path.
//! * `serve-warm-4w` — 4 users against a 4-worker server with warmed
//!   caches: the steady state of a long-running service, where repeated
//!   displays are answered from the LRU cache.

use crate::experiments::common::ExperimentScale;
use crate::experiments::report::{format_rows, BenchReport, BenchRow, GatePolicy, Meta};
use std::sync::Arc;
use std::sync::Mutex;
use std::time::Instant;
use subtab_core::{SelectionParams, SubTab};
use subtab_data::Query;
use subtab_datasets::{generate_server_traces, DatasetKind, SessionConfig};
use subtab_server::{ExplorationServer, Request, ServerConfig};

/// Label of the direct-call reference mode (the gate normalises every
/// capture to it, cancelling raw machine speed).
const DIRECT_MODE: &str = "serve-direct-1t";

/// The server gate: every serving mode normalised to the direct-call
/// reference, plus the session cache's acceptance floor — mean cold select
/// wall over mean cached-hit wall for one repeated query must be at least
/// 10x.
pub const POLICY: GatePolicy = GatePolicy {
    reference_mode: DIRECT_MODE,
    wall_threshold: 0.25,
    rss_factor: None,
    rss_ceiling: None,
    ratio_floors: &[("cached_speedup", 10.0)],
};

/// Per-request latencies of one replay, merged across user threads.
struct Replay {
    wall_ms: f64,
    latencies_ms: Vec<f64>,
}

fn percentile(sorted_ms: &[f64], p: f64) -> f64 {
    if sorted_ms.is_empty() {
        return 0.0;
    }
    let rank = (p * (sorted_ms.len() - 1) as f64).round() as usize;
    sorted_ms[rank.min(sorted_ms.len() - 1)]
}

/// Runs the load benchmark on the cyber stand-in (the dataset the paper's
/// session corpus was recorded over).
pub fn run(scale: ExperimentScale) -> BenchReport {
    let (num_sessions, reps) = match scale {
        ExperimentScale::Quick => (16, 3),
        ExperimentScale::Paper => (48, 3),
    };
    run_on(DatasetKind::Cyber, scale, num_sessions, reps)
}

/// Runs the benchmark on an explicit dataset with `num_sessions` traces and
/// `reps` replays per mode (best-of wall time is reported).
pub fn run_on(
    kind: DatasetKind,
    scale: ExperimentScale,
    num_sessions: usize,
    reps: usize,
) -> BenchReport {
    let dataset = kind.build(scale.dataset_size(), 31);
    let traces = generate_server_traces(
        &dataset,
        &SessionConfig {
            num_sessions,
            min_queries: 3,
            max_queries: 6,
            seed: 47,
        },
    );
    let params = SelectionParams::default();
    // One preprocessing run shared (via `Arc`) by the direct reference and
    // every server mode.
    let subtab =
        Arc::new(SubTab::preprocess(dataset.table, scale.subtab_config()).expect("pre-processing"));
    let rows = subtab.table().num_rows();
    let requests: usize = traces.iter().map(|t| t.queries.len()).sum();
    // Prime the whole-table row-vector cache: every mode starts from the
    // same steady preprocessed state.
    subtab.preprocessed().full_row_vectors();

    let mut results = Vec::new();

    // Reference: the same corpus, sequential direct calls.
    results.push(run_mode(DIRECT_MODE, 1, 0, reps, || {
        replay_direct(&subtab, &traces, &params)
    }));

    let mut served = |mode: &str, users: usize, workers: usize, warm: bool, caches: usize| {
        let server = ExplorationServer::from_subtab(
            Arc::clone(&subtab),
            ServerConfig {
                workers,
                heavy_slots: 1,
                select_cache_capacity: caches,
                rules_cache_capacity: 4,
            },
        );
        if warm {
            // One untimed replay fills the cache.
            replay_served(&server, &traces, &params, 1);
        }
        let result = run_mode(mode, users, workers, reps, || {
            replay_served(&server, &traces, &params, users)
        });
        results.push(result);
    };

    served("serve-cold-1w", 1, 1, false, 0);
    served("serve-cold-4w", 4, 4, false, 0);
    served("serve-warm-4w", 4, 4, true, 1024);

    let cached_speedup = measure_cached_speedup(&subtab, &traces, &params);

    BenchReport {
        ratios: vec![("cached_speedup", cached_speedup)],
        ..BenchReport::new(
            "server_load",
            vec![
                ("dataset", Meta::Text(kind.label().to_string())),
                ("rows", Meta::Count(rows)),
                ("sessions", Meta::Count(traces.len())),
                // Select requests per full corpus replay.
                ("requests", Meta::Count(requests)),
            ],
            results,
        )
    }
}

fn run_mode(
    mode: &str,
    users: usize,
    workers: usize,
    reps: usize,
    mut replay: impl FnMut() -> Replay,
) -> BenchRow {
    let mut best: Option<Replay> = None;
    for _ in 0..reps.max(1) {
        let r = replay();
        if best.as_ref().is_none_or(|b| r.wall_ms < b.wall_ms) {
            best = Some(r);
        }
    }
    let best = best.expect("at least one replay");
    let mut sorted = best.latencies_ms.clone();
    sorted.sort_by(f64::total_cmp);
    BenchRow {
        users: Some(users),
        workers: Some(workers),
        throughput_rps: Some(sorted.len() as f64 / (best.wall_ms / 1e3).max(1e-9)),
        p50_ms: Some(percentile(&sorted, 0.50)),
        p99_ms: Some(percentile(&sorted, 0.99)),
        ..BenchRow::new(mode, best.wall_ms)
    }
}

fn replay_direct(
    subtab: &SubTab,
    traces: &[subtab_datasets::Session],
    params: &SelectionParams,
) -> Replay {
    let start = Instant::now();
    let mut latencies = Vec::new();
    for trace in traces {
        for query in &trace.queries {
            let t = Instant::now();
            let r = subtab
                .select_for_query(query, params)
                .expect("trace queries are valid");
            latencies.push(t.elapsed().as_secs_f64() * 1e3);
            std::hint::black_box(r.row_indices.len());
        }
    }
    Replay {
        wall_ms: start.elapsed().as_secs_f64() * 1e3,
        latencies_ms: latencies,
    }
}

/// Closed-loop replay: `users` threads each work through a disjoint share
/// of the trace corpus, one blocking request at a time.
fn replay_served(
    server: &ExplorationServer,
    traces: &[subtab_datasets::Session],
    params: &SelectionParams,
    users: usize,
) -> Replay {
    let users = users.max(1);
    let all = Mutex::new(Vec::new());
    let start = Instant::now();
    std::thread::scope(|scope| {
        for u in 0..users {
            let all = &all;
            scope.spawn(move || {
                let mut latencies = Vec::new();
                let session = server.open_session();
                for trace in traces.iter().skip(u).step_by(users) {
                    for query in &trace.queries {
                        let t = Instant::now();
                        let outcome = server
                            .execute(
                                session,
                                Request::Select {
                                    query: Some(query.clone()),
                                    params: params.clone(),
                                },
                            )
                            .expect("trace queries are valid");
                        latencies.push(t.elapsed().as_secs_f64() * 1e3);
                        std::hint::black_box(outcome.cache_hit);
                    }
                }
                let _ = server.close_session(session);
                all.lock().expect("latency lock").extend(latencies);
            });
        }
    });
    Replay {
        wall_ms: start.elapsed().as_secs_f64() * 1e3,
        latencies_ms: all.into_inner().expect("latency lock"),
    }
}

/// Mean cold select wall over mean cached-hit wall for the corpus's
/// whole-table query (the most common display of every session).
fn measure_cached_speedup(
    subtab: &Arc<SubTab>,
    traces: &[subtab_datasets::Session],
    params: &SelectionParams,
) -> f64 {
    let query = traces
        .first()
        .and_then(|t| t.queries.first())
        .cloned()
        .unwrap_or_else(Query::new);
    const COLD_REPS: usize = 5;
    const HIT_REPS: usize = 200;
    let start = Instant::now();
    for _ in 0..COLD_REPS {
        std::hint::black_box(
            subtab
                .select_for_query(&query, params)
                .expect("query valid")
                .row_indices
                .len(),
        );
    }
    let cold_ms = start.elapsed().as_secs_f64() * 1e3 / COLD_REPS as f64;

    let server = ExplorationServer::from_subtab(
        Arc::clone(subtab),
        ServerConfig {
            workers: 1,
            heavy_slots: 1,
            select_cache_capacity: 16,
            rules_cache_capacity: 1,
        },
    );
    let session = server.open_session();
    let request = Request::Select {
        query: Some(query),
        params: params.clone(),
    };
    // Fill the cache, then time pure hits.
    server
        .execute(session, request.clone())
        .expect("cache fill");
    let start = Instant::now();
    for _ in 0..HIT_REPS {
        let outcome = server
            .execute(session, request.clone())
            .expect("cached select");
        debug_assert!(outcome.cache_hit);
        std::hint::black_box(outcome.cache_hit);
    }
    let hit_ms = start.elapsed().as_secs_f64() * 1e3 / HIT_REPS as f64;
    cold_ms / hit_ms.max(1e-9)
}

/// Renders the report as an aligned text table.
pub fn render(report: &BenchReport) -> String {
    format!(
        "Serving-layer load on {} ({} rows, {} sessions, {} selects per replay): \
         cached hits {:.0}x faster than cold selects\n{}",
        report.meta("dataset"),
        report.meta("rows"),
        report.meta("sessions"),
        report.meta("requests"),
        report.ratio("cached_speedup"),
        format_rows(&report.rows)
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::report::tests::{
        assert_ratio_floors, assert_round_trip, assert_wall_gate,
    };
    use std::sync::OnceLock;

    fn tiny_report() -> &'static BenchReport {
        static REPORT: OnceLock<BenchReport> = OnceLock::new();
        REPORT.get_or_init(|| run_on(DatasetKind::Cyber, ExperimentScale::Quick, 3, 1))
    }

    /// The tiny report with `cached_speedup` pinned 2× above its floor. The
    /// measured ratio comes from two wall clocks in a debug build and swings
    /// with host load, so the gate's own behaviour is checked on a fixed
    /// value; the floor itself is enforced by the release `server` gate.
    fn report_at_twice_the_speedup_floor() -> BenchReport {
        let mut report = tiny_report().clone();
        for (key, value) in &mut report.ratios {
            if *key == "cached_speedup" {
                *value = 2.0 * POLICY.ratio_floors[0].1;
            }
        }
        report
    }

    #[test]
    fn report_covers_every_mode_with_latency_stats() {
        let report = tiny_report();
        assert_eq!(report.rows.len(), 4);
        for r in &report.rows {
            assert!(r.wall_ms > 0.0, "{} wall must be positive", r.mode);
            assert!(r.throughput_rps.unwrap() > 0.0);
            assert!(r.p50_ms.unwrap() > 0.0);
            assert!(r.p99_ms >= r.p50_ms, "{}: p99 below p50", r.mode);
        }
        assert_ne!(report.meta("requests"), &Meta::Count(0));
        let cached_speedup = report.ratio("cached_speedup");
        assert!(
            cached_speedup.is_finite() && cached_speedup > 0.0,
            "cached speed-up must be measured, got {cached_speedup}"
        );
        let rendered = render(report);
        assert!(rendered.contains("p99-ms"));
        assert!(rendered.contains(DIRECT_MODE));
    }

    #[test]
    fn json_round_trips_through_the_shared_parser() {
        assert_round_trip(tiny_report());
    }

    #[test]
    fn gate_passes_against_itself_and_catches_regressions() {
        let report = report_at_twice_the_speedup_floor();
        assert_wall_gate(&report, &POLICY);
        assert_ratio_floors(&report, &POLICY);
    }

    #[test]
    fn percentiles_are_order_statistics() {
        let sorted: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&sorted, 0.0), 1.0);
        assert_eq!(percentile(&sorted, 1.0), 100.0);
        assert!((percentile(&sorted, 0.5) - 50.0).abs() <= 1.0);
        assert!(percentile(&[], 0.5) == 0.0);
    }
}
