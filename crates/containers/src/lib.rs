//! # containers — HPC sandbox substrate
//!
//! The paper argues (Sec. IV-C, Table II) that cloud sandboxes (Docker,
//! microVMs) are a poor fit for supercomputers and adopts HPC containers
//! (Singularity, Sarus) instead. This crate encodes that capability matrix
//! and the cold/warm-start cost model; the warm-container pool of Sec. IV-B
//! appears only as the cold start it saves (the `ablations` scenario).

#![forbid(unsafe_code)]

pub mod image;
pub mod runtime;

pub use image::ContainerImage;
pub use runtime::{
    cold_start, dispatch_overhead, ContainerRuntime, RuntimeCapabilities, StartKind, StartupCost,
};
