//! End-to-end benchmark of the SubTab pipeline.
//!
//! ```text
//! subtab-e2e-bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` the run measures what an analyst waits for (set-up,
//! select and heavy latency, throughput, memory) and the quality of what
//! was served; with `--trace 1` it replays the same inputs layer by layer
//! inside spans and reports per-layer metrics. Every output is checked;
//! the last line of standard output is one JSON object, and the exit code
//! is non-zero when any check failed. See `README.md`.

mod replay;
mod serve;
mod stats;
mod trace;
mod workload;

use crate::replay::{pair_stream_counts, traced_setup, Counters, Replayer};
use crate::serve::{
    check_traffic, direct_expected, expectations, quality, run_traffic, setup, verify, CheckReport,
    ClientLog, Digest, Expected, Oracle, RulesByTargets, Traffic, HIT,
};
use crate::stats::{median, percentile, Ratio};
use crate::trace::{self_times, write_spans, Tracer};
use crate::workload::{
    generate_inputs, server_config, subtab_config, Inputs, Step, Workload, CLIENTS, HEAVY_SLOTS,
    PREPROCESS_THREADS, SETUP_REPS, WORKERS,
};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use subtab_core::{LeafBitmapCache, SubTab};
use subtab_data::csv::{read_csv_file, write_csv_file};
use subtab_data::Query;
use subtab_server::ExplorationServer;

const USAGE: &str =
    "usage: subtab-e2e-bench --workload <load-wide|drilldown|session-replay> --seed <n> --seconds <s> --trace <0|1>";

/// Distinct requests per client replayed both untraced and traced to
/// measure the tracing overhead.
const OVERHEAD_PREFIX: usize = 100;
/// Threads computing expectations after the timed phase.
const CHECK_THREADS: usize = 2;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::from_name(&value)
                        .ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<u64>()
                        .ok()
                        .filter(|s| (1..=600).contains(s))
                        .ok_or_else(|| format!("bad seconds {value}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace flag {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(report) => {
            for line in &report.lines {
                println!("{line}");
            }
            for message in &report.checks.messages {
                println!("check failed: {message}");
            }
            println!("{}", report.json());
            if report.checks.failed == 0 {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(1)
        }
    }
}

/// What a run prints.
struct Report {
    lines: Vec<String>,
    checks: CheckReport,
    metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Report {
    fn metric(&mut self, name: &'static str, value: f64, unit: &'static str, note: String) {
        self.lines
            .push(format!("{name} = {value} {unit}  [{note}]"));
        self.metrics.push((name, value, unit));
    }

    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                let value = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.checks.failed == 0,
            self.checks.attempted.max(1),
            self.checks.failed,
            metrics.join(", ")
        )
    }
}

fn run(args: &Args) -> Result<Report, String> {
    let work = Path::new(env!("CARGO_MANIFEST_DIR")).join(".work");
    std::fs::create_dir_all(&work).map_err(|e| format!("creating {}: {e}", work.display()))?;
    let stem = format!(
        "{}-{}-{}",
        args.workload.name(),
        args.seed,
        std::process::id()
    );
    let csv = work.join(format!("{stem}.csv"));
    let dataset = args.workload.dataset();
    write_csv_file(&dataset.table, &csv).map_err(|e| format!("writing the CSV file: {e}"))?;
    let result = read_csv_file(&csv)
        .map_err(|e| format!("reading the CSV file back: {e}"))
        .and_then(|table| {
            let inputs = generate_inputs(args.workload, args.seed, &dataset, &table);
            let mut report = Report {
                lines: environment(args, &table),
                checks: CheckReport::default(),
                metrics: Vec::new(),
            };
            drop(table);
            if args.trace {
                let trace = work.join(format!("{}.trace.tsv", args.workload.name()));
                run_traced(args, &csv, &inputs, &trace, &mut report)?;
            } else {
                run_untraced(args, &csv, &inputs, &mut report)?;
            }
            Ok(report)
        });
    // The CSV file is an input of this run only.
    let _ = std::fs::remove_file(&csv);
    result
}

/// The environment block every report starts with.
fn environment(args: &Args, table: &subtab_data::Table) -> Vec<String> {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let config = server_config();
    vec![
        format!("workload = {} (trace {})", args.workload.name(), u8::from(args.trace)),
        format!("env.seed = {}", args.seed),
        format!("env.commit = {}", commit()),
        format!("env.kernel_tier = {:?}", subtab_kernels::detect()),
        format!(
            "env.force_scalar_kernels = {}",
            std::env::var("SUBTAB_FORCE_SCALAR_KERNELS").map_or("unset".to_string(), |v| format!("set ({v})"))
        ),
        format!("env.nproc = {nproc}"),
        format!(
            "env.threads = preprocess {PREPROCESS_THREADS} (binning, embedding), select {}",
            subtab_config().threads
        ),
        format!(
            "env.server = workers {WORKERS}, heavy_slots {HEAVY_SLOTS}, select cache {}, rules cache {}",
            config.select_cache_capacity, config.rules_cache_capacity
        ),
        format!("env.clients = {CLIENTS} (closed loop)"),
        format!("env.table = {} rows x {} columns", table.num_rows(), table.num_columns()),
        format!("env.traffic_seconds = {}", args.seconds),
    ]
}

/// The commit the benchmark was built from, read from the repository's
/// `.git` directory when there is one.
fn commit() -> String {
    let git = Path::new(env!("CARGO_MANIFEST_DIR")).join("../.git");
    let read = |p: PathBuf| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(git.join("HEAD")) else {
        return "unknown".to_string();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    read(git.join(reference))
        .or_else(|| {
            read(git.join("packed-refs"))?
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Peak resident set size (`VmHWM`) in MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn run_untraced(
    args: &Args,
    csv: &Path,
    inputs: &Inputs,
    report: &mut Report,
) -> Result<(), String> {
    let params = &inputs.params;
    let mut walls = Vec::new();
    let mut server: Option<ExplorationServer> = None;
    for rep in 0..SETUP_REPS {
        // Free the previous set-up's state before timing the next one.
        drop(server.take());
        let (next, wall, landing) = setup(csv, params)?;
        walls.push(wall.as_secs_f64());
        let subtab = next.subtab();
        let expected = direct_expected(subtab, &Step::Landing, params, &RulesByTargets::default());
        let checked = check_landing(subtab.table(), &landing, expected, params);
        report
            .checks
            .record(&format!("landing view of set-up {rep}"), checked);
        server = Some(next);
    }
    let server = server.ok_or("no set-up ran")?;
    let traffic = run_traffic(
        &server,
        inputs,
        args.workload.cycles(),
        args.seconds as f64,
        &Tracer::new(false),
    );
    let subtab = server.subtab();
    let rules = RulesByTargets::default();
    let expected = expectations(subtab, inputs, &traffic, CHECK_THREADS, |step| {
        direct_expected(subtab, step, params, &rules)
    });
    check_traffic(
        subtab.table(),
        inputs,
        &traffic,
        &expected,
        &mut report.checks,
    );
    let (coverage, diversity, scored) = quality(subtab, &traffic, CHECK_THREADS);
    let stats = server.stats();
    drop(server);

    let setup_s = median(&walls).ok_or("no set-up ran")?;
    report.metric(
        "setup_s",
        setup_s,
        "s",
        format!("median of {} set-ups: {walls:.3?}", walls.len()),
    );
    let (mut select_ms, mut heavy_ms) = (Vec::new(), Vec::new());
    for (client, log) in traffic.clients.iter().enumerate() {
        for &(logged, latency) in &log.requests {
            if log.step(inputs, client, logged).is_heavy() {
                heavy_ms.push(f64::from(latency));
            } else {
                select_ms.push(f64::from(latency));
            }
        }
    }
    for (name, samples, pct) in [
        ("select_p50_ms", &select_ms, 50),
        ("select_p99_ms", &select_ms, 99),
        ("heavy_p50_ms", &heavy_ms, 50),
    ] {
        match percentile(samples, pct) {
            Some(p) => report.metric(
                name,
                p.value,
                "ms",
                format!("p{pct} of {} samples, {} beyond", p.samples, p.beyond),
            ),
            None => report.lines.push(format!(
                "{name} omitted: {} samples leave fewer than 10 beyond p{pct}",
                samples.len()
            )),
        }
    }
    report.metric(
        "requests_per_s",
        traffic.requests() as f64 / traffic.wall.as_secs_f64(),
        "1/s",
        format!(
            "{} requests ({} selects, {} heavy) in {:.3} s",
            traffic.requests(),
            select_ms.len(),
            heavy_ms.len(),
            traffic.wall.as_secs_f64()
        ),
    );
    report.metric(
        "peak_rss_mb",
        peak_rss_mb(),
        "MiB",
        "VmHWM at the end of the run".into(),
    );
    report.metric(
        "cell_coverage",
        coverage,
        "ratio",
        format!("mean over {scored} distinct sub-tables of the first requests"),
    );
    report.metric(
        "diversity",
        diversity,
        "ratio",
        format!("mean over {scored} distinct sub-tables of the first requests"),
    );
    report.lines.push(format!(
        "failed_ratio = {}",
        Ratio::new(report.checks.failed as u64, report.checks.attempted as u64)
    ));
    report.lines.push(format!(
        "select_cache_hit_ratio = {}",
        Ratio::new(
            stats.select_cache.hits,
            stats.select_cache.hits + stats.select_cache.misses
        )
    ));
    let exhausted = traffic.clients.iter().filter(|c| c.exhausted).count();
    if exhausted > 0 {
        report.lines.push(format!(
            "note: {exhausted} client(s) ran out of scripts before the deadline"
        ));
    }
    Ok(())
}

/// What one client's replay pass produced.
struct Pass {
    /// The reassembled answer per step cache key.
    expected: HashMap<String, Result<Expected, String>>,
    /// Wall time of each step's replay.
    durations: HashMap<String, Duration>,
    /// Wall time of the first [`OVERHEAD_PREFIX`] replays.
    prefix_wall: Duration,
    /// The replayed layers' counters.
    counters: Counters,
}

/// Replays every distinct step one client was served (up to `limit`), in
/// serving order, with a fresh leaf-bitmap cache per served session.
fn replay_pass(
    subtab: &SubTab,
    inputs: &Inputs,
    client: usize,
    log: &ClientLog,
    tracer: &Tracer,
    limit: usize,
) -> Pass {
    let mut replayer = Replayer::new(subtab, &inputs.params, tracer);
    let mut pass = Pass {
        expected: HashMap::new(),
        durations: HashMap::new(),
        prefix_wall: Duration::ZERO,
        counters: Counters::default(),
    };
    let mut leaf_cache = LeafBitmapCache::new();
    let start = Instant::now();
    for (seq, &(logged, _)) in log.requests.iter().enumerate() {
        if pass.expected.len() == limit {
            break;
        }
        // Every script runs in a session of its own, from its first step.
        if log.steps[(logged & !HIT) as usize].1 == 0 {
            leaf_cache = LeafBitmapCache::new();
        }
        let step = log.step(inputs, client, logged);
        let key = step.cache_key();
        if pass.expected.contains_key(&key) {
            continue;
        }
        let id = ((client as u64) << 32) | seq as u64;
        let begun = Instant::now();
        let result = replayer.step("replay", step, &leaf_cache, id);
        pass.durations.insert(key.clone(), begun.elapsed());
        pass.expected.insert(key, result);
        if pass.expected.len() == OVERHEAD_PREFIX {
            pass.prefix_wall = start.elapsed();
        }
    }
    if pass.expected.len() < OVERHEAD_PREFIX {
        pass.prefix_wall = start.elapsed();
    }
    pass.counters = replayer.counters;
    pass
}

/// Checks a set-up's landing view against its expected answer.
fn check_landing(
    table: &subtab_data::Table,
    landing: &Result<subtab_server::Outcome, subtab_server::ServerError>,
    expected: Result<Expected, String>,
    params: &subtab_core::SelectionParams,
) -> Result<(), String> {
    let outcome = landing
        .as_ref()
        .map_err(|e| format!("request failed: {e}"))?;
    let result = outcome
        .response
        .sub_table()
        .ok_or("response carries no sub-table")?;
    let oracle = Oracle::new(Query::new(), table, params.k)?;
    verify(
        &Digest::of(table, result),
        &expected?,
        &oracle,
        table,
        params,
    )
}

fn run_traced(
    args: &Args,
    csv: &Path,
    inputs: &Inputs,
    trace_path: &Path,
    report: &mut Report,
) -> Result<(), String> {
    let params = &inputs.params;
    let tracer = Tracer::new(true);
    let config = subtab_config();
    let artefacts = traced_setup(csv, &config, &tracer)?;
    let (pairs, vocab) = pair_stream_counts(&artefacts.binned, &config.embedding);
    let subtab = SubTab::preprocess(artefacts.table.clone(), config)
        .map_err(|e| format!("preprocess: {e}"))?;
    let plane = subtab.preprocessed().plane();
    let same_plane = plane.num_rows() == artefacts.plane.num_rows()
        && plane.num_cols() == artefacts.plane.num_cols()
        && (0..plane.num_rows())
            .all(|r| (0..plane.num_cols()).all(|c| plane.id(r, c) == artefacts.plane.id(r, c)));
    report.checks.record(
        "layer-by-layer preprocessing",
        if same_plane {
            Ok(())
        } else {
            Err("token plane differs from SubTab::preprocess".into())
        },
    );
    let server = ExplorationServer::from_subtab(subtab, server_config());
    let mut landing_replay = Replayer::new(server.subtab(), params, &tracer);
    let landing_expected = landing_replay.step("setup", &Step::Landing, &LeafBitmapCache::new(), 0);
    let session = server.open_session();
    let landing = server.execute(session, Step::Landing.request(params));
    let _ = server.close_session(session);
    let table = server.subtab().table();
    report.checks.record(
        "landing view",
        check_landing(table, &landing, landing_expected, params),
    );

    let traffic = run_traffic(
        &server,
        inputs,
        args.workload.cycles(),
        args.seconds as f64,
        &tracer,
    );
    let stats = server.stats();
    let subtab = server.subtab();

    // Replay each client's distinct requests on a thread of its own, first
    // a prefix untraced, then everything traced.
    let untraced = Tracer::new(false);
    let passes: Vec<(Pass, Pass)> = std::thread::scope(|scope| {
        let handles: Vec<_> = traffic
            .clients
            .iter()
            .enumerate()
            .map(|(client, log)| {
                let (untraced, tracer) = (&untraced, &tracer);
                scope.spawn(move || {
                    // Untraced passes on both sides of the traced one, so
                    // warm-up favours neither.
                    let mut plain =
                        replay_pass(subtab, inputs, client, log, untraced, OVERHEAD_PREFIX);
                    let traced = replay_pass(subtab, inputs, client, log, tracer, usize::MAX);
                    let again = replay_pass(subtab, inputs, client, log, untraced, OVERHEAD_PREFIX);
                    plain.prefix_wall = (plain.prefix_wall + again.prefix_wall) / 2;
                    (plain, traced)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("replay thread panicked"))
            .collect()
    });

    // The reassembled selections must equal the served ones (and the
    // oracle); the untraced pass must agree with the traced one.
    let mut oracle_expected = HashMap::new();
    let mut durations: HashMap<(usize, String), Duration> = HashMap::new();
    let mut counters = landing_replay.counters;
    let (mut plain_wall, mut traced_wall) = (Duration::ZERO, Duration::ZERO);
    for (client, (plain, traced)) in passes.into_iter().enumerate() {
        plain_wall += plain.prefix_wall;
        traced_wall += traced.prefix_wall;
        counters.add(&traced.counters);
        for (key, result) in &plain.expected {
            let agrees = match (result, traced.expected.get(key)) {
                (Ok(a), Some(Ok(b))) if a == b => Ok(()),
                _ => Err("untraced and traced replays disagree".to_string()),
            };
            report
                .checks
                .record(&format!("replay agreement {key:?}"), agrees);
        }
        for (key, d) in traced.durations {
            durations.insert((client, key), d);
        }
        for (key, result) in traced.expected {
            oracle_expected.entry(key).or_insert(result);
        }
    }
    let expected = expectations(subtab, inputs, &traffic, CHECK_THREADS, |step| {
        oracle_expected
            .get(&step.cache_key())
            .cloned()
            .unwrap_or_else(|| Err("step was not replayed".into()))
    });
    check_traffic(
        subtab.table(),
        inputs,
        &traffic,
        &expected,
        &mut report.checks,
    );

    let spans = tracer.spans();
    let selfs = self_times(&spans);
    if let Err(e) = write_spans(trace_path, &spans) {
        report
            .lines
            .push(format!("note: could not write the trace: {e}"));
    } else {
        report.lines.push(format!(
            "trace written to {} ({} spans)",
            trace_path.display(),
            spans.len()
        ));
    }
    layer_metrics(report, &spans, &selfs, &counters, pairs, vocab);
    server_metrics(report, &stats, &traffic, inputs, &durations);
    let containers: Vec<usize> = (0..spans.len())
        .filter(|&i| matches!(spans[i].name, "setup" | "replay"))
        .collect();
    let uncovered: u64 = containers.iter().map(|&i| selfs[i]).sum();
    let total: u64 = containers
        .iter()
        .map(|&i| spans[i].end - spans[i].start)
        .sum();
    report.metric(
        "trace.unattributed_share",
        Ratio::new(uncovered, total).value(),
        "ratio",
        format!(
            "{uncovered} of {total} ns inside set-up and replay spans covered by no layer span"
        ),
    );
    report.metric(
        "trace.overhead_ms",
        ms(traced_wall) - ms(plain_wall),
        "ms",
        format!(
            "traced {:.3} ms - untraced {:.3} ms (mean of a pass before and after) over the first {OVERHEAD_PREFIX} distinct requests per client",
            ms(traced_wall),
            ms(plain_wall)
        ),
    );
    Ok(())
}

/// Mean self time per call of each layer span, plus the layer counters.
fn layer_metrics(
    report: &mut Report,
    spans: &[trace::Span],
    selfs: &[u64],
    counters: &Counters,
    pairs: usize,
    vocab: usize,
) {
    let mut by_name: HashMap<&str, (u64, u64)> = HashMap::new();
    for (span, &own) in spans.iter().zip(selfs) {
        let entry = by_name.entry(span.name).or_default();
        entry.0 += 1;
        entry.1 += own;
    }
    for (metric, span) in [
        ("data.csv_read_ms", "data.csv_read"),
        ("data.parse_ms", "data.parse"),
        ("binning.fit_ms", "binning.fit"),
        ("binning.apply_ms", "binning.apply"),
        ("embed.train_ms", "embed.train"),
        ("embed.token_plane_ms", "embed.token_plane"),
        ("core.full_row_vectors_ms", "core.full_row_vectors"),
        ("core.compile_ms", "core.compile"),
        ("core.gather_ms", "core.gather"),
        ("core.highlight_ms", "core.highlight"),
        ("cluster.kmeans_ms", "cluster.kmeans"),
        ("rules.mine_ms", "rules.mine"),
    ] {
        let (calls, total) = by_name.get(span).copied().unwrap_or_default();
        let mean = if calls == 0 {
            0.0
        } else {
            total as f64 / calls as f64 / 1e6
        };
        report.metric(
            metric,
            mean,
            "ms",
            format!("mean self time of {calls} {span} calls"),
        );
    }
    let per = |part: u64, base: u64| Ratio::new(part, base).value();
    report.metric(
        "embed.pairs",
        pairs as f64,
        "count",
        "training pairs of the stream".into(),
    );
    report.metric(
        "embed.vocab",
        vocab as f64,
        "count",
        "vocabulary tokens".into(),
    );
    report.metric(
        "core.candidate_rows",
        per(counters.candidate_rows, counters.selects),
        "count",
        format!("mean over {} replayed selections", counters.selects),
    );
    report.metric(
        "cluster.iterations",
        per(counters.iterations, counters.selects),
        "count",
        format!(
            "mean k-means iterations (rows + columns) over {} selections",
            counters.selects
        ),
    );
    report.metric(
        "cluster.distance_evals",
        per(counters.distance_evals, counters.selects),
        "count",
        format!(
            "mean points x k x iterations over {} selections",
            counters.selects
        ),
    );
    report.metric(
        "rules.rules_mined",
        per(counters.rules_mined, counters.mines),
        "count",
        format!("mean over {} mining calls", counters.mines),
    );
}

/// Cache, eviction and waiting metrics of the served traffic.
fn server_metrics(
    report: &mut Report,
    stats: &subtab_server::ServerStats,
    traffic: &Traffic,
    inputs: &Inputs,
    durations: &HashMap<(usize, String), Duration>,
) {
    let select = Ratio::new(
        stats.select_cache.hits,
        stats.select_cache.hits + stats.select_cache.misses,
    );
    let rules = Ratio::new(
        stats.rules_cache.hits,
        stats.rules_cache.hits + stats.rules_cache.misses,
    );
    let (hits, misses) = traffic
        .clients
        .iter()
        .fold((0, 0), |(h, m), c| (h + c.leaf_hits, m + c.leaf_misses));
    let leaf = Ratio::new(hits, hits + misses);
    report.metric(
        "server.select_cache_hit_ratio",
        select.value(),
        "ratio",
        format!("{select} lookups"),
    );
    report.metric(
        "server.rules_cache_hit_ratio",
        rules.value(),
        "ratio",
        format!("{rules} lookups"),
    );
    report.metric(
        "server.leaf_cache_hit_ratio",
        leaf.value(),
        "ratio",
        format!("{leaf} leaf compilations"),
    );
    report.metric(
        "server.evictions",
        (stats.select_cache.evictions + stats.rules_cache.evictions) as f64,
        "count",
        format!(
            "{} select + {} rules cache evictions",
            stats.select_cache.evictions, stats.rules_cache.evictions
        ),
    );
    // Waiting = served latency minus the traced service time of the same
    // request; a cache hit needs no service beyond the lookup.
    let mut waits = Vec::new();
    for (client, log) in traffic.clients.iter().enumerate() {
        for &(logged, latency) in &log.requests {
            let service = if logged & HIT != 0 {
                Some(Duration::ZERO)
            } else {
                let key = log.step(inputs, client, logged).cache_key();
                durations.get(&(client, key)).copied()
            };
            if let Some(service) = service {
                waits.push(f64::from(latency) - ms(service));
            }
        }
    }
    report.metric(
        "server.wait_ms",
        median(&waits).unwrap_or(0.0),
        "ms",
        format!(
            "median over {} requests of served latency - traced service time",
            waits.len()
        ),
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(list.iter().map(|s| s.to_string()))
    }

    #[test]
    fn arguments_parse_and_reject() {
        let a = args(&[
            "--workload",
            "drilldown",
            "--seed",
            "3",
            "--seconds",
            "5",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(a.workload, Workload::Drilldown);
        assert_eq!((a.seed, a.seconds, a.trace), (3, 5, true));
        assert!(args(&[
            "--workload",
            "nope",
            "--seed",
            "3",
            "--seconds",
            "5",
            "--trace",
            "0"
        ])
        .is_err());
        assert!(args(&[
            "--workload",
            "drilldown",
            "--seed",
            "3",
            "--seconds",
            "0",
            "--trace",
            "0"
        ])
        .is_err());
        assert!(args(&[
            "--workload",
            "drilldown",
            "--seed",
            "3",
            "--seconds",
            "5",
            "--trace",
            "2"
        ])
        .is_err());
        assert!(args(&["--workload", "drilldown", "--seconds", "5", "--trace", "0"]).is_err());
        assert!(args(&["--workload"]).is_err());
    }

    #[test]
    fn json_line_has_the_contract_keys() {
        let mut report = Report {
            lines: Vec::new(),
            checks: CheckReport::default(),
            metrics: Vec::new(),
        };
        report.checks.record("a", Ok(()));
        report.checks.record("b", Err("boom".into()));
        report.metric("latency_ms", 1.25, "ms", String::new());
        assert_eq!(
            report.json(),
            "{\"correct\": false, \"attempted\": 2, \"failed\": 1, \"metrics\": {\"latency_ms\": {\"value\": 1.25, \"unit\": \"ms\"}}}"
        );
        assert_eq!(
            Ratio::new(report.checks.failed as u64, report.checks.attempted as u64).to_string(),
            "0.5000 (1 of 2)"
        );
    }
}
