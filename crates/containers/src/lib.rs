//! # containers — HPC sandbox substrate
//!
//! The paper argues (Sec. IV-C, Table II) that cloud sandboxes (Docker,
//! microVMs) are a poor fit for supercomputers and adopts HPC containers
//! (Singularity, Sarus) instead. This crate encodes that capability matrix,
//! provides a cold/warm-start cost model, implements the paper's central
//! cold-start mitigation — a **warm-container pool hosted in otherwise idle
//! node memory** (Sec. IV-B) — and models container swap-out to the parallel
//! filesystem plus migration when the batch system reclaims memory
//! (Sec. III-C).

pub mod image;
pub mod migrate;
pub mod pool;
pub mod runtime;

pub use image::{ContainerImage, ImageId};
pub use migrate::{migration_cost, swap_in_cost, swap_out_cost, MigrationPlan};
pub use pool::{PoolStats, WarmContainer, WarmPool};
pub use runtime::{
    cold_start, dispatch_overhead, ContainerRuntime, RuntimeCapabilities, StartKind, StartupCost,
};
