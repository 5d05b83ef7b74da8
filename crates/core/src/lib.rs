//! # rfaas — an HPC Function-as-a-Service platform (the paper's contribution)
//!
//! A reproduction of the rFaaS-based system of *"Software Resource
//! Disaggregation for HPC with Serverless Computing"* (IPDPS 2024): the
//! cost models of a serverless platform specialised for supercomputers,
//! which runs functions on idle nodes and the unused slices of allocated
//! nodes. The scenarios measure each invocation path through these models;
//! the Fig. 6 runtime (leases, resource manager, batch-system bridge) is not
//! modelled.
//!
//! The module map mirrors the paper's Sec. IV:
//!
//! | Module | Paper section | Role |
//! |---|---|---|
//! | [`functions`] | IV | function registry: images, profiled exec times |
//! | [`executor`] | IV-A/B | hot/warm/cold invocation paths |
//! | [`memservice`] | III-C, Fig. 11 | remote-memory functions over RMA |
//! | [`gpu_exec`] | III-D, Fig. 12 | GPU functions on idle accelerators |
//! | [`offload`] | IV-F, Eq. (1) | LogP-based offload planner |
//! | [`environment`] | Table I | cloud vs HPC FaaS capability matrix |

#![forbid(unsafe_code)]

pub mod environment;
pub mod executor;
pub mod functions;
pub mod gpu_exec;
pub mod memservice;
pub mod offload;

pub use environment::EnvironmentMatrix;
pub use executor::{Executor, ExecutorMode, InvocationTiming};
pub use functions::{FunctionDef, FunctionId, FunctionRegistry, FunctionRequirements};
pub use gpu_exec::{GpuFunction, GpuInvocationTiming};
pub use memservice::{MemoryServiceFunction, RemoteMemoryClient};
pub use offload::{OffloadPlan, OffloadPlanner};
