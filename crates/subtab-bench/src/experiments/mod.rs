//! One module per reproduced table / figure, plus shared helpers.

pub mod ablation;
pub mod common;
pub mod phases;
pub mod preprocess_scaling;
pub mod quality;
pub mod query_scaling;
pub mod report;
pub mod rules_mining;
pub mod scale;
pub mod server_load;
pub mod simulation;
pub mod slow_baselines;
pub mod tuning;
pub mod user_study;

use report::GatedExperiment;

/// The CI-gated experiments: each writes a `BENCH_*.json` report and is
/// gated against a checked-in baseline under its own policy.
pub const GATED: [GatedExperiment; 5] = [
    GatedExperiment {
        name: "preprocess",
        about: "pre-processing hot-path scaling per trainer mode",
        run: preprocess_scaling::run,
        render: preprocess_scaling::render,
        policy: &preprocess_scaling::POLICY,
    },
    GatedExperiment {
        name: "query",
        about: "query-time selection scaling per engine mode",
        run: query_scaling::run,
        render: query_scaling::render,
        policy: &query_scaling::POLICY,
    },
    GatedExperiment {
        name: "rules",
        about: "rule-engine scaling: bitmap vs Apriori mining, highlight index",
        run: rules_mining::run,
        render: rules_mining::render,
        policy: &rules_mining::POLICY,
    },
    GatedExperiment {
        name: "server",
        about: "serving-layer load: session replay throughput + tail latency",
        run: server_load::run,
        render: server_load::render,
        policy: &server_load::POLICY,
    },
    GatedExperiment {
        name: "scale",
        about: "100k/1M-row tier: per-stage wall time + resident memory on the stress shapes",
        run: scale::run,
        render: scale::render,
        policy: &scale::POLICY,
    },
];
