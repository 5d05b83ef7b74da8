//! # hpc-serverless-disagg
//!
//! Umbrella crate of the reproduction of *"Software Resource Disaggregation
//! for HPC with Serverless Computing"* (Copik et al., IPDPS 2024). It
//! re-exports every subsystem so examples and downstream users need a single
//! dependency:
//!
//! * [`rfaas`] — the HPC FaaS platform (the paper's contribution)
//! * [`scenarios`] — declarative figure/table experiments + parallel
//!   multi-seed sweep runner (`scenarios run --all`)
//! * [`cluster`] — SLURM-like batch system + Piz Daint trace generator
//! * [`fabric`] — RDMA-like interconnect with LogGP cost model
//! * [`containers`] — HPC sandbox runtimes + warm pool
//! * [`storage`] — Lustre / object-store models
//! * [`gpu`] — GPU device model + Rodinia workloads
//! * [`interference`] — contention model, per-application demand profiles
//!   (NAS, LULESH, MILC) + co-location policies
//! * [`des`] — deterministic discrete-event simulation kernel
//!
//! Start with `examples/quickstart.rs`.

pub use cluster;
pub use containers;
pub use des;
pub use fabric;
pub use gpu;
pub use interference;
pub use rfaas;
pub use scenarios;
pub use storage;
