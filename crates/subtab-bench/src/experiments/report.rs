//! The report and gate layer shared by every CI-gated experiment
//! (`preprocess`, `query`, `rules`, `server`, `scale`).
//!
//! An experiment measures its modes into one [`BenchReport`]: meta fields
//! (dataset, rows, …, then the kernel tier every report records), one
//! [`BenchRow`] per mode and the headline ratios.
//! [`BenchReport::to_json`] writes it with one `{"mode": …}` object per
//! line, so one line-based parser reads reports and checked-in baselines
//! back without a JSON dependency. [`GatedExperiment::report`] puts the one
//! normalisation reference, [`REFERENCE_MODE`], in front of the
//! experiment's own rows, and [`gate`] compares the result against a
//! baseline under the experiment's [`GatePolicy`], a code constant in the
//! experiment's module; the baseline files hold measurements only.

use crate::experiments::common::{format_table, ExperimentScale};
use std::fmt;
use std::time::Instant;
use subtab_data::Table;
use subtab_datasets::{generate, scale_spec, ScaleShape};

const MIB: f64 = 1024.0 * 1024.0;

/// One meta field of a report (dataset label, row count, …).
#[derive(Debug, Clone, PartialEq)]
pub enum Meta {
    /// A label, written as a JSON string.
    Text(String),
    /// A count, written as a JSON number.
    Count(usize),
    /// A switch, written as a JSON boolean.
    Flag(bool),
}

impl fmt::Display for Meta {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Meta::Text(s) => f.write_str(s),
            Meta::Count(n) => write!(f, "{n}"),
            Meta::Flag(b) => write!(f, "{b}"),
        }
    }
}

/// The measurements of one mode. Fields an experiment does not measure
/// stay `None` and are left out of the JSON and the rendered table.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BenchRow {
    /// Mode label: the key the gate matches baseline rows by.
    pub mode: String,
    /// Best-of-reps wall time, in ms.
    pub wall_ms: f64,
    /// Resident set size sampled after the mode ran, in bytes (0 where
    /// `/proc` is unavailable).
    pub rss_bytes: Option<u64>,
    /// Worker threads used.
    pub threads: Option<usize>,
    /// Best-of-reps wall time of SGNS training alone, in ms.
    pub train_ms: Option<f64>,
    /// Simulated concurrent users of a closed-loop replay.
    pub users: Option<usize>,
    /// Server worker threads (`0` = direct calls, no server).
    pub workers: Option<usize>,
    /// Requests per second of the best replay.
    pub throughput_rps: Option<f64>,
    /// Median per-request latency of the best replay, in ms.
    pub p50_ms: Option<f64>,
    /// 99th-percentile per-request latency of the best replay, in ms.
    pub p99_ms: Option<f64>,
}

impl BenchRow {
    /// A row with only the mode and its wall time set.
    pub fn new(mode: impl Into<String>, wall_ms: f64) -> Self {
        BenchRow {
            mode: mode.into(),
            wall_ms,
            ..BenchRow::default()
        }
    }

    fn to_json(&self) -> String {
        let fields: [(&str, Option<String>); 10] = [
            ("mode", Some(format!("\"{}\"", self.mode))),
            ("threads", self.threads.map(|v| v.to_string())),
            ("users", self.users.map(|v| v.to_string())),
            ("workers", self.workers.map(|v| v.to_string())),
            ("wall_ms", Some(format!("{:.3}", self.wall_ms))),
            ("train_ms", self.train_ms.map(|v| format!("{v:.3}"))),
            (
                "throughput_rps",
                self.throughput_rps.map(|v| format!("{v:.1}")),
            ),
            ("p50_ms", self.p50_ms.map(|v| format!("{v:.4}"))),
            ("p99_ms", self.p99_ms.map(|v| format!("{v:.4}"))),
            ("rss_bytes", self.rss_bytes.map(|v| v.to_string())),
        ];
        let fields: Vec<String> = fields
            .into_iter()
            .filter_map(|(key, value)| value.map(|v| format!("\"{key}\": {v}")))
            .collect();
        format!("{{{}}}", fields.join(", "))
    }
}

/// The machine-readable report of one gated experiment run.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchReport {
    /// Experiment name written to the JSON (`preprocess_scaling`, …).
    pub experiment: &'static str,
    /// Meta fields, in output order.
    pub meta: Vec<(&'static str, Meta)>,
    /// One row per mode, in run order.
    pub rows: Vec<BenchRow>,
    /// Headline ratios (speed-ups), in output order.
    pub ratios: Vec<(&'static str, f64)>,
}

impl BenchReport {
    /// A report of `rows` with no ratios yet. After the experiment's own
    /// `meta` it records the kernel tier the process dispatches to
    /// (`kernel_tier`) and whether `SUBTAB_FORCE_SCALAR_KERNELS` pinned it
    /// (`force_scalar_kernels`): the kernel timings differ per tier, so
    /// reports from different machines only compare honestly alongside
    /// them. The gate ignores both, and reports
    /// written without them still parse.
    pub fn new(
        experiment: &'static str,
        mut meta: Vec<(&'static str, Meta)>,
        rows: Vec<BenchRow>,
    ) -> Self {
        let tier = format!("{:?}", subtab_kernels::detect());
        meta.push(("kernel_tier", Meta::Text(tier)));
        meta.push((
            "force_scalar_kernels",
            Meta::Flag(subtab_kernels::force_scalar()),
        ));
        BenchReport {
            experiment,
            meta,
            rows,
            ratios: Vec::new(),
        }
    }

    /// The meta field `key`.
    ///
    /// # Panics
    /// If the report has no such field (the experiment's `run` and `render`
    /// disagree).
    pub fn meta(&self, key: &str) -> &Meta {
        lookup(&self.meta, key, self.experiment)
    }

    /// The headline ratio `key`.
    ///
    /// # Panics
    /// If the report has no such ratio.
    pub fn ratio(&self, key: &str) -> f64 {
        *lookup(&self.ratios, key, self.experiment)
    }

    /// The row of `mode`, if measured.
    pub fn row(&self, mode: &str) -> Option<&BenchRow> {
        self.rows.iter().find(|r| r.mode == mode)
    }

    /// Headline ratios from `(key, slow mode, fast mode)` triples: the
    /// wall time of the slow mode over that of the fast one.
    ///
    /// # Panics
    /// If a mode is missing.
    pub fn speedups(&self, pairs: &[(&'static str, &str, &str)]) -> Vec<(&'static str, f64)> {
        let wall = |m: &str| {
            self.row(m)
                .unwrap_or_else(|| panic!("{} report has no mode {m:?}", self.experiment))
                .wall_ms
        };
        pairs
            .iter()
            .map(|&(key, slow, fast)| (key, wall(slow) / wall(fast).max(1e-9)))
            .collect()
    }

    /// Serialises the report: meta fields, then a `results` array with one
    /// row per line (the shape the gate's parser reads), then the ratios.
    pub fn to_json(&self) -> String {
        let mut out = format!("{{\n  \"experiment\": \"{}\",\n", self.experiment);
        for (key, value) in &self.meta {
            match value {
                Meta::Text(s) => out.push_str(&format!("  \"{key}\": \"{s}\",\n")),
                Meta::Count(n) => out.push_str(&format!("  \"{key}\": {n},\n")),
                Meta::Flag(b) => out.push_str(&format!("  \"{key}\": {b},\n")),
            }
        }
        out.push_str("  \"results\": [\n");
        for (i, row) in self.rows.iter().enumerate() {
            let comma = if i + 1 < self.rows.len() { "," } else { "" };
            out.push_str(&format!("    {}{comma}\n", row.to_json()));
        }
        out.push_str(if self.ratios.is_empty() {
            "  ]\n"
        } else {
            "  ],\n"
        });
        for (i, (key, value)) in self.ratios.iter().enumerate() {
            let comma = if i + 1 < self.ratios.len() { "," } else { "" };
            out.push_str(&format!("  \"{key}\": {value:.3}{comma}\n"));
        }
        out.push_str("}\n");
        out
    }
}

fn lookup<'a, T>(fields: &'a [(&'static str, T)], key: &str, experiment: &str) -> &'a T {
    fields
        .iter()
        .find(|(k, _)| *k == key)
        .map(|(_, v)| v)
        .unwrap_or_else(|| panic!("{experiment} report has no field {key:?}"))
}

/// Formats rows as an aligned text table with a column for every field at
/// least one of them measured.
pub(crate) fn format_rows<'a>(rows: impl IntoIterator<Item = &'a BenchRow>) -> String {
    type Column = (&'static str, fn(&BenchRow) -> Option<String>);
    const COLUMNS: [Column; 10] = [
        ("mode", |r| Some(r.mode.clone())),
        ("threads", |r| r.threads.map(|v| v.to_string())),
        ("users", |r| r.users.map(|v| v.to_string())),
        ("workers", |r| r.workers.map(|v| v.to_string())),
        ("wall-ms", |r| Some(format!("{:.3}", r.wall_ms))),
        ("train-ms", |r| r.train_ms.map(|v| format!("{v:.3}"))),
        ("req/s", |r| r.throughput_rps.map(|v| format!("{v:.0}"))),
        ("p50-ms", |r| r.p50_ms.map(|v| format!("{v:.3}"))),
        ("p99-ms", |r| r.p99_ms.map(|v| format!("{v:.3}"))),
        ("rss-MiB", |r| {
            r.rss_bytes.map(|b| format!("{:.1}", b as f64 / MIB))
        }),
    ];
    let rows: Vec<&BenchRow> = rows.into_iter().collect();
    let columns: Vec<&Column> = COLUMNS
        .iter()
        .filter(|(_, cell)| rows.iter().any(|r| cell(r).is_some()))
        .collect();
    let header: Vec<&str> = columns.iter().map(|(h, _)| *h).collect();
    let cells: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            columns
                .iter()
                .map(|(_, cell)| cell(r).unwrap_or_default())
                .collect()
        })
        .collect();
    format_table(&header, &cells)
}

/// Extracts `mode`, `wall_ms` and (where present) `rss_bytes` from every
/// `{"mode": …}` line of a report or baseline; other lines are ignored. A
/// result line with a missing or malformed `wall_ms`, or a present but
/// malformed `rss_bytes`, is an error rather than a silently dropped
/// measurement, and so is a file without any result line.
pub(crate) fn parse_rows(json: &str) -> Result<Vec<BenchRow>, String> {
    let mut rows = Vec::new();
    for line in json.lines().map(str::trim) {
        if !line.contains("\"mode\"") {
            continue;
        }
        let mode = line
            .split("\"mode\": \"")
            .nth(1)
            .and_then(|rest| rest.split('"').next())
            .ok_or_else(|| format!("malformed result line: {line}"))?;
        let wall_ms = field(line, "wall_ms")
            .and_then(|v| v.parse::<f64>().ok())
            .ok_or_else(|| format!("malformed wall_ms in: {line}"))?;
        let rss_bytes = field(line, "rss_bytes")
            .map(|v| {
                v.parse::<u64>()
                    .map_err(|_| format!("malformed rss_bytes in: {line}"))
            })
            .transpose()?;
        rows.push(BenchRow {
            rss_bytes,
            ..BenchRow::new(mode, wall_ms)
        });
    }
    if rows.is_empty() {
        return Err("no {\"mode\": …} result lines found".into());
    }
    Ok(rows)
}

/// The raw value text of `"key": value` on one result line.
fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let rest = line.split(&format!("\"{key}\": ")).nth(1)?;
    rest.split([',', '}']).next().map(str::trim)
}

/// Best-of-`reps` wall time of `run`, in ms (at least one run). The output
/// of each run is dropped after the clock stops.
pub(crate) fn best_of<T>(reps: usize, mut run: impl FnMut() -> T) -> f64 {
    best_of_with(reps, || (), |()| run())
}

/// [`best_of`] with an untimed `setup` before every run, whose output the
/// run consumes.
pub(crate) fn best_of_with<S, T>(
    reps: usize,
    mut setup: impl FnMut() -> S,
    mut run: impl FnMut(S) -> T,
) -> f64 {
    best_of_each_with(reps, 1, |_| setup(), |_, input| run(input))[0]
}

/// Best-of-`reps` wall time of each of the `jobs` jobs `run(0..jobs)`, in
/// ms, with the reps taken round-robin: one run of every job, then the
/// next round. On a shared machine a slow spell lasts longer than one
/// short job's reps back to back, so taking them in rounds spreads every
/// job's reps over the whole experiment instead of one window of it.
pub(crate) fn best_of_each<T>(
    reps: usize,
    jobs: usize,
    mut run: impl FnMut(usize) -> T,
) -> Vec<f64> {
    best_of_each_with(reps, jobs, |_| (), |job, ()| run(job))
}

/// [`best_of_each`] with an untimed `setup(job)` before every run, whose
/// output the run consumes.
pub(crate) fn best_of_each_with<S, T>(
    reps: usize,
    jobs: usize,
    mut setup: impl FnMut(usize) -> S,
    mut run: impl FnMut(usize, S) -> T,
) -> Vec<f64> {
    let mut best_ms = vec![f64::INFINITY; jobs];
    for _ in 0..reps.max(1) {
        for (job, best) in best_ms.iter_mut().enumerate() {
            let input = setup(job);
            let start = Instant::now();
            let output = run(job, input);
            *best = best.min(start.elapsed().as_secs_f64() * 1e3);
            drop(std::hint::black_box(output));
        }
    }
    best_ms
}

/// The one mode every gate divides wall times by, within its own capture,
/// before comparison: a row-wise scan over the wide scale shape at 2 000
/// rows, seed 97, best of 1 000 scans, measured once before and once after
/// the experiment, the smaller wall kept. It is a fixed workload run in the
/// same process, so the ratio cancels raw machine speed, and it runs none
/// of the code the gates guard, so no change to a gated path moves it.
/// Only [`GatedExperiment::report`] measures it.
///
/// The table (about 0.6 MiB) stays in a core's cache and one scan takes a
/// fraction of a millisecond, like the quick modes it normalises. On a
/// shared machine such code runs fast or slow in spells of tens of
/// milliseconds to seconds; many short scans on both sides of the run find
/// the fast spells, as the modes' reps taken in rounds do. A scan over a
/// table in main memory tracks the memory traffic of other tenants instead,
/// and one allocating a value per cell mostly times the allocator.
pub const REFERENCE_MODE: &str = "ref-rowscan";

/// Row count of the reference table.
const REFERENCE_ROWS: usize = 2_000;

/// Repetitions of the reference scan on each side of the run (best-of).
const REFERENCE_REPS: usize = 1_000;

/// A mode regresses when its normalised wall exceeds the baseline's by
/// more than this fraction.
pub const WALL_THRESHOLD: f64 = 0.25;

/// Best-of wall time of the reference scan, in ms. The table is generated
/// untimed and dropped before the caller goes on.
fn reference_wall_ms() -> f64 {
    let table = generate(&scale_spec(ScaleShape::Wide, REFERENCE_ROWS), 97).table;
    best_of(REFERENCE_REPS, || {
        rowscan_checksum(std::hint::black_box(&table))
    })
}

/// The reference workload: every cell of every row through the per-cell
/// accessors (numbers as `f64`, strings as dictionary codes, a null as
/// 1), folded into a checksum the optimiser cannot discard. It allocates
/// nothing. The wide shape has the most columns, so the row-wise walk pays
/// the full fan-out cost the columnar paths avoid.
fn rowscan_checksum(table: &Table) -> f64 {
    let mut acc = 0.0f64;
    for row in 0..table.num_rows() {
        for col in table.columns() {
            acc += match col.get_f64(row) {
                Some(x) => x,
                None => col.get_code(row).map_or(1.0, f64::from),
            };
        }
    }
    acc
}

/// An absolute resident-memory ceiling, applied only at the row count that
/// pins the working set.
#[derive(Debug, Clone, Copy)]
pub struct RssCeiling {
    /// Modes whose label starts with this prefix are held under the ceiling.
    pub mode_prefix: &'static str,
    /// The report's `rows` meta field the ceiling applies at.
    pub rows: usize,
    /// Maximum resident bytes.
    pub bytes: u64,
}

/// What one experiment's gate checks beyond the normalised wall times,
/// which every gate checks against [`WALL_THRESHOLD`].
#[derive(Debug, Clone, Copy)]
pub struct GatePolicy {
    /// A mode regresses when its resident bytes exceed the baseline's by
    /// more than this factor (skipped where either side captured none).
    pub rss_factor: Option<f64>,
    /// Absolute resident ceiling, baseline or not.
    pub rss_ceiling: Option<RssCeiling>,
    /// `(ratio, floor)`: the report's headline ratio must be at least
    /// `floor`.
    pub ratio_floors: &'static [(&'static str, f64)],
}

impl GatePolicy {
    /// Normalised wall times only.
    pub const WALL_ONLY: GatePolicy = GatePolicy {
        rss_factor: None,
        rss_ceiling: None,
        ratio_floors: &[],
    };
}

/// A gated experiment: what the `experiments` binary runs, prints and gates
/// under one name.
pub struct GatedExperiment {
    /// Command-line name; the baseline is `ci/BENCH_<name>_baseline.json`.
    pub name: &'static str,
    /// One-line description for the usage text.
    pub about: &'static str,
    /// Runs the experiment's own modes at the given scale.
    pub run: fn(ExperimentScale) -> BenchReport,
    /// Renders the report for humans.
    pub render: fn(&BenchReport) -> String,
    /// The experiment's gate.
    pub policy: &'static GatePolicy,
}

impl GatedExperiment {
    /// Runs the experiment between two measurements of the reference: the
    /// report the gate reads, with the faster reference first. A slow
    /// spell of the machine on one side of the run then does not skew
    /// every normalised wall.
    pub fn report(&self, scale: ExperimentScale) -> BenchReport {
        let before = reference_wall_ms();
        let own = (self.run)(scale);
        let wall_ms = before.min(reference_wall_ms());
        with_reference(own, BenchRow::new(REFERENCE_MODE, wall_ms))
    }
}

/// `report` with `reference` as its first row.
///
/// # Panics
/// If the report already has a reference row: experiments never measure it
/// themselves.
pub(crate) fn with_reference(mut report: BenchReport, reference: BenchRow) -> BenchReport {
    assert!(
        report.row(REFERENCE_MODE).is_none(),
        "{} measured {REFERENCE_MODE} itself",
        report.experiment
    );
    report.rows.insert(0, reference);
    report
}

/// Compares `current` against a baseline JSON under `policy`. Returns the
/// comparison lines when every check passes, or every failed check — a
/// failure never hides another.
pub fn gate(
    current: &BenchReport,
    baseline_json: &str,
    policy: &GatePolicy,
) -> Result<Vec<String>, Vec<String>> {
    let mut lines = Vec::new();
    let mut failures = Vec::new();
    match parse_rows(baseline_json) {
        Err(e) => failures.push(format!("unreadable baseline: {e}")),
        Ok(baseline) => {
            gate_walls(current, &baseline, &mut lines, &mut failures);
            if let Some(factor) = policy.rss_factor {
                gate_rss(current, &baseline, factor, &mut lines, &mut failures);
            }
        }
    }
    if let Some(ceiling) = policy.rss_ceiling {
        let pinned = current
            .meta
            .iter()
            .any(|(k, v)| *k == "rows" && *v == Meta::Count(ceiling.rows));
        for r in current
            .rows
            .iter()
            .filter(|r| pinned && r.mode.starts_with(ceiling.mode_prefix))
        {
            let rss = r.rss_bytes.unwrap_or(0);
            if rss > ceiling.bytes {
                failures.push(format!(
                    "REGRESSION {}: {:.1} MiB resident exceeds the {:.0} MiB {}* ceiling at {} rows",
                    r.mode,
                    rss as f64 / MIB,
                    ceiling.bytes as f64 / MIB,
                    ceiling.mode_prefix,
                    ceiling.rows
                ));
            }
        }
    }
    for &(key, floor) in policy.ratio_floors {
        match current.ratios.iter().find(|(k, _)| *k == key) {
            None => failures.push(format!("MISSING {key}: the report has no such ratio")),
            Some(&(_, value)) if value < floor => failures.push(format!(
                "REGRESSION {key}: {value:.1}x < the {floor:.0}x acceptance floor"
            )),
            Some(&(_, value)) => lines.push(format!("{key} {value:.0}x (floor {floor:.0}x)")),
        }
    }
    if failures.is_empty() {
        Ok(lines)
    } else {
        Err(failures)
    }
}

/// Normalised wall-time check of every measured mode. A baseline mode the
/// report lacks fails: it would otherwise stop being gated unnoticed.
fn gate_walls(
    current: &BenchReport,
    baseline: &[BenchRow],
    lines: &mut Vec<String>,
    failures: &mut Vec<String>,
) {
    let reference = REFERENCE_MODE;
    let find = |rows: &[BenchRow]| rows.iter().find(|r| r.mode == reference).map(|r| r.wall_ms);
    let (Some(ref_cur), Some(ref_base)) = (find(&current.rows), find(baseline)) else {
        for (side, rows) in [
            ("current report", &current.rows[..]),
            ("baseline", baseline),
        ] {
            if find(rows).is_none() {
                failures.push(format!(
                    "MISSING REFERENCE {reference}: absent from the {side}, so wall times \
                     cannot be normalised"
                ));
            }
        }
        return;
    };
    for b in baseline.iter().filter(|b| current.row(&b.mode).is_none()) {
        failures.push(format!(
            "MISSING MODE {}: in the baseline but not measured by the report",
            b.mode
        ));
    }
    for r in &current.rows {
        if r.mode == reference {
            lines.push(format!(
                "{}: {:.2} ms (normalisation reference)",
                r.mode, r.wall_ms
            ));
            continue;
        }
        let Some(base) = baseline.iter().find(|b| b.mode == r.mode) else {
            lines.push(format!("{}: {:.2} ms (no baseline)", r.mode, r.wall_ms));
            continue;
        };
        let cur = r.wall_ms / ref_cur.max(1e-9);
        let base = base.wall_ms / ref_base.max(1e-9);
        let ratio = cur / base.max(1e-9);
        let line = format!(
            "{}: {cur:.3} x {reference} vs baseline {base:.3} x {reference} ({:+.1}%)",
            r.mode,
            (ratio - 1.0) * 100.0
        );
        if ratio > 1.0 + WALL_THRESHOLD {
            failures.push(format!(
                "REGRESSION {line} exceeds {:.0}%",
                WALL_THRESHOLD * 100.0
            ));
        } else {
            lines.push(line);
        }
    }
}

/// Resident-memory ratio check of every mode the baseline has bytes for.
fn gate_rss(
    current: &BenchReport,
    baseline: &[BenchRow],
    factor: f64,
    lines: &mut Vec<String>,
    failures: &mut Vec<String>,
) {
    for r in &current.rows {
        let Some(base) = baseline
            .iter()
            .find(|b| b.mode == r.mode)
            .and_then(|b| b.rss_bytes)
        else {
            continue;
        };
        let cur = r.rss_bytes.unwrap_or(0);
        if cur == 0 || base == 0 {
            lines.push(format!("{}: rss not captured on one side", r.mode));
            continue;
        }
        let ratio = cur as f64 / base as f64;
        let line = format!(
            "{}: {:.1} MiB resident vs baseline {:.1} MiB ({:+.1}%)",
            r.mode,
            cur as f64 / MIB,
            base as f64 / MIB,
            (ratio - 1.0) * 100.0
        );
        if ratio > factor {
            failures.push(format!(
                "REGRESSION {line} exceeds {factor:.0}x resident-memory budget"
            ));
        } else {
            lines.push(line);
        }
    }
}

/// The gate contract, as assertions every gated experiment's real report
/// and every policy's synthetic report are run through. The helpers take
/// an experiment's own report and gate it with a fixed reference row in
/// front, as [`GatedExperiment::report`] would.
#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::experiments::GATED;

    /// `report` with every wall time but the `keep` mode's scaled by
    /// `factor`.
    fn scaled_walls(report: &BenchReport, factor: f64, keep: &str) -> BenchReport {
        let mut out = report.clone();
        for r in out.rows.iter_mut().filter(|r| r.mode != keep) {
            r.wall_ms *= factor;
        }
        out
    }

    /// `report` re-badged as a run over `rows` rows.
    fn with_rows(report: &BenchReport, rows: usize) -> BenchReport {
        let mut out = report.clone();
        let (_, value) = out
            .meta
            .iter_mut()
            .find(|(k, _)| *k == "rows")
            .expect("report records its row count");
        *value = Meta::Count(rows);
        out
    }

    /// An experiment's own report as the gated runner hands it to the
    /// gate, with a fixed reference wall.
    fn gated(own: &BenchReport) -> BenchReport {
        with_reference(own.clone(), BenchRow::new(REFERENCE_MODE, 40.0))
    }

    /// The report has resident bytes for every mode (a Linux capture).
    fn rss_captured(report: &BenchReport) -> bool {
        report.rows.iter().all(|r| r.rss_bytes > Some(0))
    }

    /// The JSON reads back with the same modes, walls and resident bytes.
    pub(crate) fn assert_round_trip(report: &BenchReport) {
        let parsed = parse_rows(&report.to_json()).expect("own JSON parses");
        assert_eq!(parsed.len(), report.rows.len());
        for (r, p) in report.rows.iter().zip(&parsed) {
            assert_eq!(r.mode, p.mode);
            assert!((r.wall_ms - p.wall_ms).abs() < 0.01, "{}", r.mode);
            assert_eq!(r.rss_bytes, p.rss_bytes, "{}", r.mode);
        }
    }

    /// Self-pass, machine-speed cancellation, a regression flagged for
    /// every mode, and an unreadable baseline is an error.
    pub(crate) fn assert_wall_gate(own: &BenchReport, policy: &GatePolicy) {
        let report = gated(own);
        let json = report.to_json();
        // An identical baseline is never a regression.
        let same = gate(&report, &json, policy);
        assert!(same.is_ok(), "{}: {same:?}", report.experiment);
        // A uniformly 10x faster machine, reference included, is not a
        // regression: normalisation cancels it.
        let faster_machine = scaled_walls(&report, 0.1, "");
        assert!(gate(&report, &faster_machine.to_json(), policy).is_ok());
        // A baseline whose modes are 10x faster relative to the unchanged
        // reference: every mode of the experiment regresses.
        let fast = scaled_walls(&report, 0.1, REFERENCE_MODE);
        let err = gate(&report, &fast.to_json(), policy).unwrap_err();
        assert_eq!(err.len(), own.rows.len(), "{err:?}");
        assert!(err.iter().all(|e| e.starts_with("REGRESSION")));
        // A garbage baseline is an error, not a silent pass.
        assert!(gate(&report, "not json", policy).is_err());
    }

    /// A baseline with a fraction of the resident footprint fails every
    /// mode under an RSS factor, even though wall times are identical.
    pub(crate) fn assert_rss_budget(own: &BenchReport, policy: &GatePolicy) {
        let Some(factor) = policy.rss_factor else {
            return;
        };
        if !rss_captured(own) {
            // Non-Linux capture: the rss check skips zero sides.
            return;
        }
        let report = gated(own);
        let mut lean = report.clone();
        for r in &mut lean.rows {
            r.rss_bytes = r.rss_bytes.map(|b| b / (factor.ceil() as u64 + 1));
        }
        let err = gate(&report, &lean.to_json(), policy).unwrap_err();
        assert_eq!(err.len(), own.rows.len(), "{err:?}");
        assert!(err.iter().all(|e| e.contains("resident-memory budget")));
    }

    /// The absolute ceiling fires on its modes at the pinned row count
    /// only.
    pub(crate) fn assert_rss_ceiling(own: &BenchReport, policy: &GatePolicy) {
        let Some(ceiling) = policy.rss_ceiling else {
            return;
        };
        if !rss_captured(own) {
            return;
        }
        // Re-badged as the pinned tier, small footprints pass against
        // themselves.
        let mut pinned = with_rows(&gated(own), ceiling.rows);
        assert!(gate(&pinned, &pinned.to_json(), policy).is_ok());
        // Blow the ceiling modes past it. The baseline records the same
        // bytes, so the relative rss check stays quiet and only the
        // ceiling can fire.
        let mut blown = 0;
        for r in &mut pinned.rows {
            if r.mode.starts_with(ceiling.mode_prefix) {
                r.rss_bytes = Some(ceiling.bytes + 1);
                blown += 1;
            }
        }
        assert!(blown > 0, "no {}* mode to hold", ceiling.mode_prefix);
        let err = gate(&pinned, &pinned.to_json(), policy).unwrap_err();
        assert_eq!(err.len(), blown, "{err:?}");
        assert!(err.iter().all(|e| e.contains("ceiling")));
        // At any other row count the ceiling does not apply.
        let unpinned = with_rows(&pinned, ceiling.rows + 1);
        assert!(gate(&unpinned, &unpinned.to_json(), policy).is_ok());
    }

    /// A ratio under its floor fails, alongside — not instead of — any
    /// wall regression, and a missing ratio fails too.
    pub(crate) fn assert_ratio_floors(own: &BenchReport, policy: &GatePolicy) {
        let report = gated(own);
        let json = report.to_json();
        for &(key, floor) in policy.ratio_floors {
            let mut slow = report.clone();
            slow.ratios
                .iter_mut()
                .filter(|(k, _)| *k == key)
                .for_each(|(_, v)| *v = floor / 5.0);
            let err = gate(&slow, &json, policy).unwrap_err();
            assert_eq!(err.len(), 1, "{err:?}");
            assert!(err[0].contains("acceptance floor"));
            let fast = scaled_walls(&report, 0.1, REFERENCE_MODE);
            let err = gate(&slow, &fast.to_json(), policy).unwrap_err();
            assert_eq!(err.len(), own.rows.len() + 1, "{err:?}");
            assert!(err.last().unwrap().contains("acceptance floor"));
            let mut missing = report.clone();
            missing.ratios.retain(|(k, _)| *k != key);
            assert!(gate(&missing, &json, policy).is_err());
        }
    }

    /// A small report of an experiment's own modes that every check of
    /// `exp`'s policy applies to, with every optional row field exercised.
    fn synthetic(exp: &GatedExperiment) -> BenchReport {
        let policy = exp.policy;
        let mut rows = vec![
            BenchRow {
                threads: Some(4),
                train_ms: Some(3.25),
                users: Some(4),
                workers: Some(2),
                throughput_rps: Some(812.5),
                p50_ms: Some(0.125),
                p99_ms: Some(1.5),
                ..BenchRow::new(format!("{}-all-fields", exp.name), 12.5)
            },
            BenchRow::new(format!("{}-fast", exp.name), 1.75),
        ];
        if let Some(ceiling) = policy.rss_ceiling {
            rows.push(BenchRow::new(
                format!("{}stream", ceiling.mode_prefix),
                30.0,
            ));
        }
        if policy.rss_factor.is_some() || policy.rss_ceiling.is_some() {
            for (i, r) in rows.iter_mut().enumerate() {
                r.rss_bytes = Some((64 + i as u64) << 20);
            }
        }
        BenchReport {
            ratios: policy
                .ratio_floors
                .iter()
                .map(|&(key, floor)| (key, floor * 2.0))
                .collect(),
            ..BenchReport::new(
                exp.name,
                vec![
                    ("dataset", Meta::Text("FL".into())),
                    ("rows", Meta::Count(1_000)),
                ],
                rows,
            )
        }
    }

    fn policy(name: &str) -> &'static GatePolicy {
        GATED.iter().find(|e| e.name == name).unwrap().policy
    }

    #[test]
    fn every_policy_meets_the_gate_contract() {
        for exp in &GATED {
            let report = synthetic(exp);
            assert_round_trip(&report);
            assert_wall_gate(&report, exp.policy);
            assert_rss_budget(&report, exp.policy);
            assert_rss_ceiling(&report, exp.policy);
            assert_ratio_floors(&report, exp.policy);
        }
    }

    /// Every report records the dispatched kernel tier and the scalar
    /// override; the gate ignores both, in the report and in the baseline,
    /// so older baselines without them still gate.
    #[test]
    fn reports_record_the_kernel_tier_and_the_gate_ignores_it() {
        for exp in &GATED {
            let report = gated(&synthetic(exp));
            let tier = format!("{:?}", subtab_kernels::detect());
            assert_eq!(report.meta("kernel_tier"), &Meta::Text(tier.clone()));
            let forced = subtab_kernels::force_scalar();
            assert_eq!(report.meta("force_scalar_kernels"), &Meta::Flag(forced));
            let json = report.to_json();
            assert!(json.contains(&format!("\"kernel_tier\": \"{tier}\",")));
            assert!(json.contains(&format!("\"force_scalar_kernels\": {forced},")));

            let without: String = json
                .lines()
                .filter(|l| !l.contains("kernel_tier") && !l.contains("force_scalar_kernels"))
                .map(|l| format!("{l}\n"))
                .collect();
            assert!(gate(&report, &without, exp.policy).is_ok());
            let other_tier = json
                .replace(&tier, "Scalar-elsewhere")
                .replace(&format!(": {forced},"), &format!(": {},", !forced));
            assert!(gate(&report, &other_tier, exp.policy).is_ok());
        }
    }

    #[test]
    fn policies_match_the_documented_gates() {
        assert_eq!(REFERENCE_MODE, "ref-rowscan");
        assert_eq!(WALL_THRESHOLD, 0.25);
        let names: Vec<&str> = GATED.iter().map(|e| e.name).collect();
        assert_eq!(names, ["preprocess", "query", "rules", "server", "scale"]);
        for name in names {
            let p = policy(name);
            assert_eq!(p.rss_factor, (name == "scale").then_some(2.0));
            assert_eq!(p.rss_ceiling.is_some(), name == "scale");
            let floors: &[(&str, f64)] = if name == "server" {
                &[("cached_speedup", 10.0)]
            } else {
                &[]
            };
            assert_eq!(p.ratio_floors, floors);
        }
        let ceiling = policy("scale").rss_ceiling.unwrap();
        assert_eq!(ceiling.mode_prefix, "scale-preprocess-");
        assert_eq!(ceiling.rows, 100_000);
        assert_eq!(ceiling.bytes, 1 << 30);
    }

    /// The gated runner puts exactly one measured reference row in front
    /// of every experiment's own rows, and refuses a report that already
    /// has one. (Each experiment's own test checks that its `run` emits
    /// none.)
    #[test]
    fn the_gated_runner_adds_one_reference_row_first() {
        // The real runner, once (the scans are slow in a debug build),
        // around a stand-in for an experiment's run.
        let probe = GatedExperiment {
            run: |_| BenchReport::new("probe", Vec::new(), vec![BenchRow::new("m", 1.0)]),
            ..GATED[0]
        };
        let probed = probe.report(ExperimentScale::Quick);
        assert_eq!(probed.rows.len(), 2);
        let reference = probed.rows[0].clone();
        assert_eq!(reference.mode, REFERENCE_MODE);
        assert!(reference.wall_ms > 0.0);
        for exp in &GATED {
            let own = synthetic(exp);
            let report = with_reference(own.clone(), reference.clone());
            let references = report
                .rows
                .iter()
                .filter(|r| r.mode == REFERENCE_MODE)
                .count();
            assert_eq!(references, 1, "{}", exp.name);
            assert_eq!(report.rows[0], reference);
            assert_eq!(report.rows[1..], own.rows[..], "{}", exp.name);
            let twice = std::panic::catch_unwind(|| gated(&report));
            assert!(twice.is_err(), "{}", exp.name);
        }
    }

    #[test]
    fn a_missing_reference_mode_fails_the_gate_on_either_side() {
        for exp in &GATED {
            let own = synthetic(exp);
            let report = gated(&own);
            for (current, baseline, side) in [
                (&report, &own, "baseline"),
                (&own, &report, "current report"),
            ] {
                let err = gate(current, &baseline.to_json(), exp.policy).unwrap_err();
                assert_eq!(err.len(), 1, "{err:?}");
                assert!(err[0].contains("MISSING REFERENCE"), "{err:?}");
                assert!(err[0].contains(side), "{err:?}");
            }
        }
    }

    /// A baseline mode the report no longer measures fails, so a renamed
    /// or dropped mode cannot silently stop being gated; a new mode the
    /// baseline lacks is reported but passes.
    #[test]
    fn a_baseline_mode_missing_from_the_report_fails_the_gate() {
        for exp in &GATED {
            let report = gated(&synthetic(exp));
            let dropped = report.rows[1].mode.clone();
            let mut without = report.clone();
            without.rows.retain(|r| r.mode != dropped);
            let err = gate(&without, &report.to_json(), exp.policy).unwrap_err();
            assert_eq!(err.len(), 1, "{err:?}");
            assert!(
                err[0].starts_with(&format!("MISSING MODE {dropped}:")),
                "{err:?}"
            );
            let lines = gate(&report, &without.to_json(), exp.policy).unwrap();
            assert!(lines.contains(&format!("{dropped}: 12.50 ms (no baseline)")));
        }
    }

    #[test]
    fn malformed_measurements_are_errors() {
        let ok = "{\"mode\": \"m\", \"wall_ms\": 1.5, \"rss_bytes\": 42}";
        assert_eq!(parse_rows(ok).unwrap()[0].rss_bytes, Some(42));
        for bad in [
            "{\"mode\": \"m\", \"wall_ms\": 1.5, \"rss_bytes\": x}",
            "{\"mode\": \"m\", \"wall_ms\": 1.5, \"rss_bytes\": -3}",
            "{\"mode\": \"m\", \"wall_ms\": fast}",
            "{\"mode\": \"m\", \"rss_bytes\": 42}",
            "{\"mode\": m, \"wall_ms\": 1.5}",
            "{\"experiment\": \"scale\"}",
        ] {
            assert!(parse_rows(bad).is_err(), "{bad}");
        }
        // A malformed rss_bytes in a baseline fails the memory gate rather
        // than silently switching it off.
        let report = gated(&synthetic(&GATED[4]));
        let baseline = report
            .to_json()
            .replacen("\"rss_bytes\": ", "\"rss_bytes\": x", 1);
        let err = gate(&report, &baseline, policy("scale")).unwrap_err();
        assert!(err[0].contains("malformed rss_bytes"), "{err:?}");
    }

    /// CI gates each experiment against `ci/BENCH_<name>_baseline.json`.
    #[test]
    fn checked_in_baselines_parse_and_hold_every_reference_mode() {
        let ci = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../ci");
        let mut files: Vec<String> = std::fs::read_dir(&ci)
            .expect("ci/ exists")
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .filter(|f| f.starts_with("BENCH_") && f.ends_with("_baseline.json"))
            .collect();
        files.sort();
        let mut gated_files: Vec<String> = GATED
            .iter()
            .map(|e| format!("BENCH_{}_baseline.json", e.name))
            .collect();
        gated_files.sort();
        assert_eq!(files, gated_files, "every baseline file is gated");
        for file in &gated_files {
            let json = std::fs::read_to_string(ci.join(file)).unwrap();
            let rows = parse_rows(&json).unwrap_or_else(|e| panic!("{file}: {e}"));
            let references = rows.iter().filter(|r| r.mode == REFERENCE_MODE).count();
            assert_eq!(references, 1, "{file} needs one {REFERENCE_MODE} row");
        }
    }
}
