//! # rfaas — an HPC Function-as-a-Service platform (the paper's contribution)
//!
//! A reproduction of the rFaaS-based system of *"Software Resource
//! Disaggregation for HPC with Serverless Computing"* (IPDPS 2024): a
//! serverless platform specialised for supercomputers that turns idle nodes
//! and the unused slices of allocated nodes into leasable, finely billed
//! resources.
//!
//! The module map mirrors the paper's Sec. IV:
//!
//! | Module | Paper section | Role |
//! |---|---|---|
//! | [`functions`] | IV | function registry: images, resource requirements |
//! | [`lease`] | IV (rFaaS leases) | ephemeral executor allocations |
//! | [`manager`] | IV-E, Fig. 6 | resource manager + batch-system REST API |
//! | [`executor`] | IV-A/B | hot/warm/cold invocation paths |
//! | [`invoke`] | IV-A | client library with lease redirection |
//! | [`memservice`] | III-C, Fig. 11 | remote-memory functions over RMA |
//! | [`gpu_exec`] | III-D, Fig. 12 | GPU functions on idle accelerators |
//! | [`offload`] | IV-F, Eq. (1) | LogP-based offload planner |
//! | [`scheduler_glue`] | IV-E, Fig. 6 | idle-node harvesting from the batch system |
//! | [`environment`] | Table I | cloud vs HPC FaaS capability matrix |
//! | [`platform`] | V | the façade wiring everything together |

#![forbid(unsafe_code)]

pub mod environment;
pub mod executor;
pub mod functions;
pub mod gpu_exec;
pub mod invoke;
pub mod lease;
pub mod manager;
pub mod memservice;
pub mod offload;
pub mod platform;
pub mod scheduler_glue;

pub use environment::EnvironmentMatrix;
pub use executor::{Executor, ExecutorMode, InvocationTiming};
pub use functions::{FunctionDef, FunctionId, FunctionRegistry, FunctionRequirements};
pub use gpu_exec::{GpuFunction, GpuInvocationTiming};
pub use invoke::{Client, InvokeError};
pub use lease::{Lease, LeaseId, LeaseManager, LeaseState};
pub use manager::{Donation, DonationSource, ManagerError, RemovalReport, ResourceManager};
pub use memservice::{MemoryServiceFunction, RemoteMemoryClient};
pub use offload::{OffloadPlan, OffloadPlanner};
pub use platform::Platform;
pub use scheduler_glue::SchedulerBridge;
