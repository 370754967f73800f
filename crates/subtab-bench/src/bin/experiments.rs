//! The experiment runner: regenerates every table and figure of the paper's
//! evaluation on the synthetic stand-in datasets.
//!
//! ```bash
//! cargo run --release -p subtab-bench --bin experiments -- all
//! cargo run --release -p subtab-bench --bin experiments -- figure8 figure9
//! cargo run --release -p subtab-bench --bin experiments -- --quick table1
//! ```

use subtab_bench::experiments::report::{gate, GatedExperiment};
use subtab_bench::experiments::{
    ablation, phases, quality, simulation, slow_baselines, tuning, user_study, GATED,
};
use subtab_bench::ExperimentScale;

/// The usage text: the paper artefacts, then one line per gated
/// experiment from [`GATED`].
fn usage() -> String {
    let gated_lines: String = GATED
        .iter()
        .map(|e| format!("  {:<10}  {} (CI gate)\n", e.name, e.about))
        .collect();
    let names: Vec<&str> = GATED.iter().map(|e| e.name).collect();
    format!(
        "\
usage: experiments [--quick] [--json PATH] [--baseline PATH] <experiment>...

experiments:
  table1      Table 1  — simulated user study (insight discovery)
  figure5     Figure 5 — questionnaire-rating proxies
  figure6     Figure 6 — captured next-query fragments vs sub-table width
  figure7     Figure 7 — quality & time vs MAB / Greedy / EmbDI-style
  figure8     Figure 8 — diversity / cell coverage / combined per dataset
  figure9     Figure 9 — pre-processing vs centroid-selection time
  figure10    Figure 10 — sensitivity to #bins / support / confidence
  ablation    design-choice ablations (binning, corpus, dim, alpha)
{gated_lines}  all         everything above except the CI gates ({names})

flags:
  --quick           tiny datasets and small budgets (seconds instead of minutes);
                    for `scale`, the 100k sub-tier instead of 1M rows
  --json PATH       (one CI gate) write the machine-readable report to PATH
  --baseline PATH   (one CI gate) compare against a baseline JSON under the
                    experiment's gate policy; exit 1 if any check fails",
        names = names.join(", ")
    )
}

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    if raw.is_empty() {
        eprintln!("{}", usage());
        std::process::exit(2);
    }
    let mut quick = false;
    let mut json_path: Option<String> = None;
    let mut baseline_path: Option<String> = None;
    let mut args: Vec<String> = Vec::new();
    let mut it = raw.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--quick" => quick = true,
            "--json" | "--baseline" => {
                let Some(value) = it.next() else {
                    eprintln!("{a} requires a path argument\n\n{}", usage());
                    std::process::exit(2);
                };
                if a == "--json" {
                    json_path = Some(value);
                } else {
                    baseline_path = Some(value);
                }
            }
            other if other.starts_with("--") => {
                eprintln!("unknown flag {other:?}\n\n{}", usage());
                std::process::exit(2);
            }
            _ => args.push(a),
        }
    }
    let scale = if quick {
        ExperimentScale::Quick
    } else {
        ExperimentScale::Paper
    };
    let mut requested: Vec<String> = args;
    if requested.iter().any(|a| a == "all") {
        requested = vec![
            "table1".into(),
            "figure6".into(),
            "figure7".into(),
            "figure8".into(),
            "figure9".into(),
            "figure10".into(),
            "ablation".into(),
        ];
    }
    if requested.is_empty() {
        eprintln!("{}", usage());
        std::process::exit(2);
    }
    let gated_requested = requested
        .iter()
        .filter(|r| GATED.iter().any(|e| e.name == r.as_str()))
        .count();
    if (json_path.is_some() || baseline_path.is_some()) && gated_requested != 1 {
        eprintln!(
            "--json/--baseline apply to exactly one CI-gated experiment per invocation \
             (note: `all` includes none of them)\n\n{}",
            usage()
        );
        std::process::exit(2);
    }

    for experiment in requested {
        let start = std::time::Instant::now();
        println!("\n=============================================================");
        match experiment.as_str() {
            "table1" | "figure5" => {
                let report = user_study::run(scale);
                println!("{}", user_study::render(&report));
            }
            "figure6" => {
                let report = simulation::run(scale);
                println!("{}", simulation::render(&report));
            }
            "figure7" => {
                let report = slow_baselines::run(scale);
                println!("{}", slow_baselines::render(&report));
            }
            "figure8" => {
                let report = quality::run(scale);
                println!("{}", quality::render(&report));
            }
            "figure9" => {
                let report = phases::run(scale);
                println!("{}", phases::render(&report));
            }
            "figure10" => {
                let report = tuning::run(scale);
                println!("{}", tuning::render(&report));
            }
            "ablation" => {
                let report = ablation::run(scale);
                println!("{}", ablation::render(&report));
            }
            other => {
                let Some(gated) = GATED.iter().find(|e| e.name == other) else {
                    eprintln!("unknown experiment {other:?}\n\n{}", usage());
                    std::process::exit(2);
                };
                run_gated(gated, scale, json_path.as_deref(), baseline_path.as_deref());
            }
        }
        println!("[{experiment} finished in {:.2?}]", start.elapsed());
    }
}

/// Runs one gated experiment, prints its report, writes the JSON to
/// `json_path` and gates it against `baseline_path`; exits 1 when any check
/// of the experiment's policy fails.
fn run_gated(
    experiment: &GatedExperiment,
    scale: ExperimentScale,
    json_path: Option<&str>,
    baseline_path: Option<&str>,
) {
    let report = (experiment.run)(scale);
    println!("{}", (experiment.render)(&report));
    if let Some(path) = json_path {
        std::fs::write(path, report.to_json()).unwrap_or_else(|e| panic!("writing {path}: {e}"));
        println!("[wrote {path}]");
    }
    if let Some(path) = baseline_path {
        let baseline = std::fs::read_to_string(path)
            .unwrap_or_else(|e| panic!("reading baseline {path}: {e}"));
        match gate(&report, &baseline, experiment.policy) {
            Ok(lines) => {
                println!("bench gate vs {path}: OK");
                for l in lines {
                    println!("  {l}");
                }
            }
            Err(failures) => {
                eprintln!("bench gate vs {path}: FAILED");
                for f in failures {
                    eprintln!("  {f}");
                }
                std::process::exit(1);
            }
        }
    }
}
