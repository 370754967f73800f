//! The report and gate layer shared by every CI-gated experiment
//! (`preprocess`, `query`, `rules`, `server`, `scale`).
//!
//! An experiment measures its modes into one [`BenchReport`]: meta fields
//! (dataset, rows, …, then the kernel tier every report records), one
//! [`BenchRow`] per mode and the headline ratios.
//! [`BenchReport::to_json`] writes it with one `{"mode": …}` object per
//! line, so one line-based parser reads reports and checked-in baselines
//! back without a JSON dependency. [`gate`] compares a fresh report against a
//! baseline under the experiment's [`GatePolicy`], a code constant in the
//! experiment's module; the baseline files hold measurements only.

use crate::experiments::common::{format_table, ExperimentScale};
use std::fmt;
use std::time::Instant;

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
    /// (`force_scalar_kernels`): the fast trainer's bits and the kernel
    /// timings differ per tier, so reports from different machines only
    /// compare honestly alongside them. The gate ignores both, and reports
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
    let mut best_ms = f64::INFINITY;
    for _ in 0..reps.max(1) {
        let input = setup();
        let start = Instant::now();
        let output = run(input);
        best_ms = best_ms.min(start.elapsed().as_secs_f64() * 1e3);
        drop(std::hint::black_box(output));
    }
    best_ms
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

/// What one experiment's gate checks.
#[derive(Debug, Clone, Copy)]
pub struct GatePolicy {
    /// Mode every wall time is divided by, within its own capture, before
    /// comparison. It is a fixed workload run in the same process, so the
    /// ratio cancels raw machine speed. Missing on either side, the walls
    /// are not comparable and the gate fails.
    pub reference_mode: &'static str,
    /// A mode regresses when its normalised wall exceeds the baseline's by
    /// more than this fraction.
    pub wall_threshold: f64,
    /// A mode regresses when its resident bytes exceed the baseline's by
    /// more than this factor (skipped where either side captured none).
    pub rss_factor: Option<f64>,
    /// Absolute resident ceiling, baseline or not.
    pub rss_ceiling: Option<RssCeiling>,
    /// `(ratio, floor)`: the report's headline ratio must be at least
    /// `floor`.
    pub ratio_floors: &'static [(&'static str, f64)],
}

/// A gated experiment: what the `experiments` binary runs, prints and gates
/// under one name.
pub struct GatedExperiment {
    /// Command-line name.
    pub name: &'static str,
    /// One-line description for the usage text.
    pub about: &'static str,
    /// Runs the experiment at the given scale.
    pub run: fn(ExperimentScale) -> BenchReport,
    /// Renders the report for humans.
    pub render: fn(&BenchReport) -> String,
    /// The experiment's gate.
    pub policy: &'static GatePolicy,
}

/// Compares `current` against a baseline JSON under `policy`. Returns the
/// comparison lines when every check passes, or every failed check — a
/// failure never hides another. Baseline rows of modes the report does not
/// measure (another experiment sharing the file) are ignored.
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
            gate_walls(current, &baseline, policy, &mut lines, &mut failures);
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

/// Normalised wall-time check of every measured mode.
fn gate_walls(
    current: &BenchReport,
    baseline: &[BenchRow],
    policy: &GatePolicy,
    lines: &mut Vec<String>,
    failures: &mut Vec<String>,
) {
    let reference = policy.reference_mode;
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
        if ratio > 1.0 + policy.wall_threshold {
            failures.push(format!(
                "REGRESSION {line} exceeds {:.0}%",
                policy.wall_threshold * 100.0
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
/// and every policy's synthetic report are run through.
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

    /// Self-pass, machine-speed cancellation, N−1 regressions flagged, and
    /// an unreadable baseline is an error.
    pub(crate) fn assert_wall_gate(report: &BenchReport, policy: &GatePolicy) {
        let reference = policy.reference_mode;
        let json = report.to_json();
        // An identical baseline is never a regression.
        let own = gate(report, &json, policy);
        assert!(own.is_ok(), "{}: {own:?}", report.experiment);
        // A uniformly 10x faster machine, reference included, is not a
        // regression: normalisation cancels it.
        let faster_machine = scaled_walls(report, 0.1, "");
        assert!(gate(report, &faster_machine.to_json(), policy).is_ok());
        // A baseline whose modes are 10x faster relative to the unchanged
        // reference: every mode but the reference regresses.
        let fast = scaled_walls(report, 0.1, reference);
        let err = gate(report, &fast.to_json(), policy).unwrap_err();
        assert_eq!(err.len(), report.rows.len() - 1, "{err:?}");
        assert!(err.iter().all(|e| e.starts_with("REGRESSION")));
        // A garbage baseline is an error, not a silent pass.
        assert!(gate(report, "not json", policy).is_err());
    }

    /// A baseline with a fraction of the resident footprint fails every
    /// mode under an RSS factor, even though wall times are identical.
    pub(crate) fn assert_rss_budget(report: &BenchReport, policy: &GatePolicy) {
        let Some(factor) = policy.rss_factor else {
            return;
        };
        if !rss_captured(report) {
            // Non-Linux capture: the rss check skips zero sides.
            return;
        }
        let mut lean = report.clone();
        for r in &mut lean.rows {
            r.rss_bytes = r.rss_bytes.map(|b| b / (factor.ceil() as u64 + 1));
        }
        let err = gate(report, &lean.to_json(), policy).unwrap_err();
        assert_eq!(err.len(), report.rows.len(), "{err:?}");
        assert!(err.iter().all(|e| e.contains("resident-memory budget")));
    }

    /// The absolute ceiling fires on its modes at the pinned row count
    /// only.
    pub(crate) fn assert_rss_ceiling(report: &BenchReport, policy: &GatePolicy) {
        let Some(ceiling) = policy.rss_ceiling else {
            return;
        };
        if !rss_captured(report) {
            return;
        }
        // Re-badged as the pinned tier, small footprints pass against
        // themselves.
        let mut pinned = with_rows(report, ceiling.rows);
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
    pub(crate) fn assert_ratio_floors(report: &BenchReport, policy: &GatePolicy) {
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
            let fast = scaled_walls(report, 0.1, policy.reference_mode);
            let err = gate(&slow, &fast.to_json(), policy).unwrap_err();
            assert_eq!(err.len(), report.rows.len(), "{err:?}");
            assert!(err.last().unwrap().contains("acceptance floor"));
            let mut missing = report.clone();
            missing.ratios.retain(|(k, _)| *k != key);
            assert!(gate(&missing, &json, policy).is_err());
        }
    }

    /// A small report every check of `exp`'s policy applies to, with every
    /// optional row field exercised.
    fn synthetic(exp: &GatedExperiment) -> BenchReport {
        let policy = exp.policy;
        let mut rows = vec![
            BenchRow::new(policy.reference_mode, 40.0),
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
                format!("{}legacy", ceiling.mode_prefix),
                90.0,
            ));
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
            let report = synthetic(exp);
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
        for (name, reference) in [
            ("preprocess", "seed-legacy-1t"),
            ("query", "query-strkey-1t"),
            ("rules", "rules-apriori-1t"),
            ("server", "serve-direct-1t"),
            ("scale", "scale-ref-rowscan"),
        ] {
            let p = policy(name);
            assert_eq!(p.reference_mode, reference);
            assert_eq!(p.wall_threshold, 0.25);
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

    #[test]
    fn a_missing_reference_mode_fails_the_gate_on_either_side() {
        for exp in &GATED {
            let report = synthetic(exp);
            let reference = exp.policy.reference_mode;
            let mut without = report.clone();
            without.rows.retain(|r| r.mode != reference);
            for (current, baseline, side) in [
                (&report, &without, "baseline"),
                (&without, &report, "current report"),
            ] {
                let err = gate(current, &baseline.to_json(), exp.policy).unwrap_err();
                assert_eq!(err.len(), 1, "{err:?}");
                assert!(err[0].contains("MISSING REFERENCE"), "{err:?}");
                assert!(err[0].contains(side), "{err:?}");
            }
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
        let report = synthetic(&GATED[4]);
        let baseline = report
            .to_json()
            .replacen("\"rss_bytes\": ", "\"rss_bytes\": x", 1);
        let err = gate(&report, &baseline, policy("scale")).unwrap_err();
        assert!(err[0].contains("malformed rss_bytes"), "{err:?}");
    }

    /// The baseline files CI gates each experiment against.
    const BASELINES: [(&str, &str); 5] = [
        ("preprocess", "BENCH_preprocess_baseline.json"),
        ("query", "BENCH_preprocess_baseline.json"),
        ("rules", "BENCH_rules_baseline.json"),
        ("server", "BENCH_server_baseline.json"),
        ("scale", "BENCH_scale_baseline.json"),
    ];

    #[test]
    fn checked_in_baselines_parse_and_hold_every_reference_mode() {
        let ci = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../ci");
        let mut files: Vec<String> = std::fs::read_dir(&ci)
            .expect("ci/ exists")
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .filter(|f| f.starts_with("BENCH_") && f.ends_with("_baseline.json"))
            .collect();
        files.sort();
        let mut gated_files: Vec<String> = BASELINES.iter().map(|(_, f)| f.to_string()).collect();
        gated_files.sort();
        gated_files.dedup();
        assert_eq!(files, gated_files, "every baseline file is gated");
        for exp in &GATED {
            let (_, file) = BASELINES.iter().find(|(n, _)| *n == exp.name).unwrap();
            let json = std::fs::read_to_string(ci.join(file)).unwrap();
            let rows = parse_rows(&json).unwrap_or_else(|e| panic!("{file}: {e}"));
            assert!(
                rows.iter().any(|r| r.mode == exp.policy.reference_mode),
                "{file} lacks {}, the reference mode of `{}`",
                exp.policy.reference_mode,
                exp.name
            );
        }
    }
}
