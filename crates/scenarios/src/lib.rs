//! # scenarios — unified scenario engine and parallel multi-seed sweeps
//!
//! Every figure/table experiment of the paper's evaluation is expressed as a
//! [`Scenario`]: a named, parameterised computation that runs against a
//! deterministic [`des::Simulation`] and returns scalar [`Metrics`]. The
//! [`registry::Registry`] knows every scenario; the sweep engine in
//! [`runner`] fans a cartesian [`SweepGrid`] × N seeds across `std::thread`
//! workers (each job owns its own `Simulation`, so results are bit-identical
//! to a serial run) and merges the per-seed metrics into mean/p50/p99
//! aggregates with confidence intervals, ready for JSON emission. It has two
//! entry points: [`runner::SweepRunner`], one synchronous sweep per call,
//! and [`service::Service`], a long-running pool serving concurrent
//! requests over TCP via [`server::Server`].
//!
//! ```
//! use scenarios::{registry::Registry, runner::SweepRunner, SweepGrid};
//!
//! let registry = Registry::standard();
//! let scenario = registry.get("tab03_idle_node").unwrap();
//! let runner = SweepRunner::new(2, SweepRunner::seeds(3));
//! let result = runner.run(scenario, &SweepGrid::new());
//! assert_eq!(result.points.len(), 1);
//! assert_eq!(result.points[0].per_seed.len(), 3);
//! ```

#![forbid(unsafe_code)]

pub mod cache;
pub mod error;
pub mod metrics;
pub mod paper;
pub mod params;
pub mod registry;
pub mod report;
pub mod request;
pub mod runner;
pub mod scenarios;
pub mod server;
pub mod service;
pub mod wire;

pub use cache::{job_key, CacheKey, CacheStats, CacheWriter, ResultCache};
pub use error::Error;
pub use metrics::{summarize, MetricSummary, Metrics};
pub use params::{ParamValue, Params, SweepGrid};
pub use registry::Registry;
pub use request::{SweepRequest, SweepResponse, SweepStatus, ValidatedSweep, REQUEST_VERSION};
pub use runner::{
    JobFailure, JobOrder, PointResult, SweepError, SweepResult, SweepRunner, SweepSuite,
};
pub use server::Server;
pub use service::{Service, ServiceConfig, Submission};
pub use wire::Client;

use des::Simulation;

/// Root seed the single-run paper reports use — the value every original
/// figure binary hard-coded, kept so the printed numbers stay identical.
pub const REPORT_SEED: u64 = 42;

/// One declarative experiment from the paper's evaluation.
///
/// Implementations must be pure functions of `(params, sim.seed())`: all
/// randomness is drawn from streams derived off the passed simulation, so a
/// run is bit-reproducible regardless of which thread executes it.
pub trait Scenario: Send + Sync {
    /// Stable registry key, e.g. `"fig07_latency"`.
    fn name(&self) -> &'static str;

    /// One-line caption (the banner headline).
    fn title(&self) -> &'static str;

    /// Tunable parameters with their default values. The defaults reproduce
    /// the paper's setup; sweeps override a subset via [`SweepGrid`].
    fn default_params(&self) -> Params {
        Params::new()
    }

    /// Run once against `sim` (fresh, seeded by the caller) and return the
    /// scenario's scalar metrics.
    fn run(&self, sim: &mut Simulation, params: &Params) -> Metrics;

    /// Print the full paper-style report (tables, comparisons, shape
    /// assertions) for a single default-parameter run — what `scenarios
    /// report <name>` shows. The default implementation prints the
    /// metric map; ported scenarios override it with their original output.
    fn report(&self) {
        report::banner(self.name(), self.title());
        let params = self.default_params();
        let mut sim = Simulation::new(REPORT_SEED);
        let m = self.run(&mut sim, &params);
        let rows: Vec<Vec<String>> = m
            .iter()
            .map(|(k, v)| vec![k.to_string(), report::fmt(v)])
            .collect();
        report::print_table("Metrics", &["metric", "value"], &rows);
    }
}
