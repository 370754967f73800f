//! # subtab-bench
//!
//! The experiment harness that regenerates every table and figure of the
//! SubTab paper's evaluation (Section 6) on the synthetic stand-in datasets.
//!
//! Each experiment lives in its own module under [`experiments`] and exposes
//! a `run(...)` function returning a plain-data report that the
//! `experiments` binary prints in the same rows/series layout as the paper:
//!
//! | module | paper artefact |
//! |---|---|
//! | [`experiments::user_study`] | Table 1 + Figure 5 (simulated-analyst oracle) |
//! | [`experiments::simulation`] | Figure 6 — captured next-query fragments vs sub-table width |
//! | [`experiments::slow_baselines`] | Figure 7 — quality & time vs MAB / Greedy / EmbDI-style |
//! | [`experiments::quality`] | Figure 8 — diversity / coverage / combined per dataset |
//! | [`experiments::phases`] | Figure 9 — pre-processing vs selection running time |
//! | [`experiments::tuning`] | Figure 10 — sensitivity to #bins, support, confidence |
//! | [`experiments::ablation`] | design-choice ablations called out in DESIGN.md |
//!
//! The five CI-gated experiments (`preprocess`, `query`, `rules`,
//! `server`, `scale`) are listed in [`experiments::GATED`] and share one
//! report and gate layer, [`experiments::report`].
//!
//! Run everything with:
//!
//! ```bash
//! cargo run --release -p subtab-bench --bin experiments -- all
//! ```
//!
//! Criterion micro-benchmarks wrapping the same code paths live in
//! `benches/paper_experiments.rs`.

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod experiments;

pub use experiments::common::{ExperimentScale, MethodRun};
