//! # gpu — accelerator substrate
//!
//! The paper co-locates GPU functions with CPU batch jobs (Sec. III-D,
//! Fig. 12): a GPU function needs only one CPU core to manage the device and
//! data transfers, so an idle GPU on a node running a CPU-only application
//! can be put to work. The substitution for real P100s is a device cost
//! model — kernel-launch latency, PCIe transfers, a roofline over
//! FLOPs/memory-bandwidth — plus profiles of the six Rodinia benchmarks used
//! in Fig. 12.

#![forbid(unsafe_code)]

pub mod device;
pub mod kernels;
pub mod sharing;

pub use device::{GpuDevice, KernelSpec};
pub use kernels::{RodiniaBenchmark, RodiniaProfile};
pub use sharing::GpuAssignment;
