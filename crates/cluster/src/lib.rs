//! # cluster — SLURM-like batch system substrate
//!
//! Models the aggregated HPC system the paper targets: nodes with cores,
//! memory and GPUs; a FCFS + EASY-backfill scheduler with exclusive and
//! shared (`--shared` / oversubscription partition) allocations and GRES
//! tracking for GPUs; a workload trace generator calibrated to the Piz Daint
//! March-2022 statistics of Fig. 1; a 2-minute sampling monitor reproducing
//! the paper's idle-CPU / free-memory / idle-period measurements.

#![forbid(unsafe_code)]

pub(crate) mod index;
pub mod job;
pub mod monitor;
pub mod node;
/// The pre-index scan scheduler, kept verbatim as the correctness oracle of
/// the `oracle_tests` property and replay tests.
#[cfg(test)]
pub mod reference;
pub mod scheduler;
pub mod trace;

#[cfg(test)]
mod oracle_tests;

pub use fabric::NodeId;
pub use job::{Job, JobId, JobSpec, JobState};
pub use monitor::{IdlePeriodStats, MonitorReport, UtilizationMonitor};
pub use node::{Node, NodeResources};
pub use scheduler::{Cluster, SchedulerError};
pub use trace::{simulate_trace, simulate_trace_in, TraceOutcome, TraceProfile};
