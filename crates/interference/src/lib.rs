//! # interference — contention modelling and co-location policies
//!
//! The paper's co-location results (Fig. 9, 11, 12; Table III) are all
//! stories about *shared-resource contention on a node*: memory bandwidth,
//! last-level cache, the NIC, and CPU cores. This crate provides:
//!
//! * [`model`] — a saturation-based contention model: each workload carries a
//!   demand vector (cores, memory bandwidth, LLC footprint, network
//!   bandwidth) and a sensitivity split (what fraction of its runtime is
//!   bound by each resource); co-located workloads stretch each other where
//!   combined demand exceeds node capacity.
//! * [`profiles`] — calibrated demand vectors for the paper's workloads
//!   (LULESH, MILC, the NAS kernels, memory-service functions, Rodinia GPU
//!   functions).
//! * [`history`] + [`policy`] — the Fig. 4 decision flow: use recorded
//!   co-location history when available, fall back to requirement modelling
//!   from hardware counters, veto hero jobs, and feed outcomes back.
//! * [`pricing`] — fairness: discounted billing for jobs that opt in.

pub mod history;
pub mod model;
pub mod policy;
pub mod pricing;
pub mod profiles;

pub use history::ColocationHistory;
pub use model::{slowdowns, Demand, NodeCapacity};
pub use policy::{ColocationPolicy, Decision, DecisionSource, PolicyConfig, RejectReason};
pub use pricing::PricingModel;
pub use profiles::{NasClass, NasKernel, WorkloadProfile};
