//! # storage — parallel filesystem and object-store substrate
//!
//! The paper replaces cloud object storage with the machine's parallel
//! filesystem for function I/O (Sec. IV-D) and backs the claim with Fig. 8:
//! MinIO delivers lower latency for small objects, while Lustre sustains
//! higher aggregate throughput at scale. These two cost models reproduce
//! that crossover; `harness` runs the exact sweeps of the figure.

#![forbid(unsafe_code)]

pub mod harness;
pub mod lustre;
pub mod objectstore;

pub use harness::{latency_sweep, throughput_sweep, IoRow};
pub use lustre::Lustre;
pub use objectstore::ObjectStore;

use des::SimTime;

/// Common interface: time to read `size` bytes when `concurrent_readers`
/// clients (including this one) stress the service from distinct nodes.
pub trait ReadService {
    fn read_time(&self, size: u64, concurrent_readers: u32) -> SimTime;

    /// Convenience: single-reader latency in seconds.
    fn latency_s(&self, size: u64) -> f64 {
        self.read_time(size, 1).as_secs_f64()
    }

    /// Per-reader throughput in GB/s with `readers` concurrent clients each
    /// reading `size` bytes.
    fn per_reader_throughput_gbps(&self, size: u64, readers: u32) -> f64 {
        let t = self.read_time(size, readers).as_secs_f64();
        size as f64 / t / 1e9
    }
}
