//! # fabric — RDMA-like HPC interconnect substrate
//!
//! Stands in for Cray Aries + uGNI/libfabric (and ibverbs) in the paper.
//! Real payload bytes move through registered [`mr::MemoryRegion`]s guarded by
//! DRC-style credentials ([`drc`]), while *when* they arrive is decided by a
//! LogGP cost model ([`loggp`]).
//!
//! The paper's Fig. 7 compares raw libfabric ping-pong latency (busy-poll and
//! queue-wait completion) against rFaaS hot/warm invocations; the transports
//! and completion modes here are calibrated so that comparison can be
//! regenerated (`scenarios report fig07_latency`).

#![forbid(unsafe_code)]

pub mod drc;
pub mod loggp;
pub mod microbench;
pub mod mr;
pub mod verbs;

pub use drc::{Credential, DrcError, DrcManager, JobToken};
pub use loggp::{CompletionMode, LogGpParams, Transport};
pub use mr::{MemoryRegion, MrError, MrKey, RegionTable};
pub use verbs::{Fabric, QueuePair, RdmaOp, VerbsError};

/// A network endpoint (compute node) identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "node{}", self.0)
    }
}
