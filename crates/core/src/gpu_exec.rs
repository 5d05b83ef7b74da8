//! GPU functions (Sec. III-D, Fig. 12): functions that hold an idle GPU via
//! GRES, keep data warm in device memory, and need only a single host core
//! to feed kernels — so they co-locate with CPU-only batch jobs.

use des::SimTime;
use gpu::{GpuAssignment, GpuDevice, RodiniaBenchmark, RodiniaProfile};
use interference::{Demand, WorkloadProfile};

/// A GPU function bound to a GRES slot.
#[derive(Debug)]
pub struct GpuFunction {
    pub profile: RodiniaProfile,
    pub device: GpuDevice,
    pub gres: (u32, u32, u32),
    /// Data already resident in device memory (warm data, Sec. III-D).
    pub warm_data: bool,
}

/// Timing of one GPU function invocation.
#[derive(Debug, Clone, Copy)]
pub struct GpuInvocationTiming {
    pub h2d: SimTime,
    pub kernels: SimTime,
    pub d2h: SimTime,
}

impl GpuInvocationTiming {
    pub fn total(&self) -> SimTime {
        self.h2d + self.kernels + self.d2h
    }
}

/// Errors of GPU function deployment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GpuExecError {
    NoGpuAvailable,
}

impl std::fmt::Display for GpuExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "no GPU (GRES slot) available on the node")
    }
}

impl std::error::Error for GpuExecError {}

impl GpuFunction {
    /// Deploy on `node`, acquiring a GRES slot from `gres`.
    pub fn deploy(
        bench: RodiniaBenchmark,
        device: GpuDevice,
        gres: &mut GpuAssignment,
        node: u32,
        holder: u64,
    ) -> Result<Self, GpuExecError> {
        let slot = gres
            .acquire(node, holder)
            .ok_or(GpuExecError::NoGpuAvailable)?;
        Ok(GpuFunction {
            profile: RodiniaProfile::of(bench),
            device,
            gres: slot,
            warm_data: false,
        })
    }

    /// Host-side interference demand while running (what the co-located
    /// batch job feels).
    pub fn host_demand(&self) -> Demand {
        WorkloadProfile::gpu_function(
            self.profile.bench.name(),
            self.profile.host_core_demand,
            self.profile.host_membw_demand,
        )
        .per_rank
    }

    /// Run one invocation. Warm device data skips the H2D transfer
    /// ("functions can keep warm data in the device's memory").
    pub fn invoke(&mut self) -> GpuInvocationTiming {
        let h2d = if self.warm_data {
            SimTime::ZERO
        } else {
            self.device.transfer_time(self.profile.h2d_bytes)
        };
        let kernels =
            self.device.kernel_time(&self.profile.kernel) * u64::from(self.profile.kernel_launches);
        let d2h = self.device.transfer_time(self.profile.d2h_bytes);
        self.warm_data = true;
        GpuInvocationTiming { h2d, kernels, d2h }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu::GpuSharingPolicy;

    fn gres() -> GpuAssignment {
        GpuAssignment::new(GpuSharingPolicy::ExclusiveDevice, 1)
    }

    #[test]
    fn deploy_takes_the_gpu_exclusively() {
        let mut g = gres();
        GpuFunction::deploy(RodiniaBenchmark::Hotspot, GpuDevice::p100(), &mut g, 0, 1).unwrap();
        assert_eq!(
            GpuFunction::deploy(RodiniaBenchmark::Bfs, GpuDevice::p100(), &mut g, 0, 2)
                .unwrap_err(),
            GpuExecError::NoGpuAvailable
        );
    }

    #[test]
    fn invocation_lands_in_hundreds_of_ms() {
        let mut g = gres();
        let mut f =
            GpuFunction::deploy(RodiniaBenchmark::SradV1, GpuDevice::p100(), &mut g, 0, 1).unwrap();
        let t = f.invoke().total();
        assert!(
            t >= SimTime::from_millis(50) && t <= SimTime::from_secs(2),
            "{t}"
        );
    }

    #[test]
    fn warm_data_skips_h2d() {
        let mut g = gres();
        let mut f =
            GpuFunction::deploy(RodiniaBenchmark::Bfs, GpuDevice::p100(), &mut g, 0, 1).unwrap();
        let first = f.invoke();
        let second = f.invoke();
        assert!(first.h2d > SimTime::ZERO);
        assert_eq!(second.h2d, SimTime::ZERO);
        assert!(second.total() < first.total());
    }

    #[test]
    fn single_management_core() {
        let mut g = gres();
        let f = GpuFunction::deploy(RodiniaBenchmark::Gaussian, GpuDevice::p100(), &mut g, 0, 1)
            .unwrap();
        let d = f.host_demand();
        assert!(d.cores <= 1.0, "host demand within the management core");
    }

    #[test]
    fn host_demand_varies_by_benchmark() {
        let mut g = GpuAssignment::new(GpuSharingPolicy::ExclusiveDevice, 6);
        let demands: Vec<f64> = RodiniaBenchmark::ALL
            .iter()
            .enumerate()
            .map(|(i, b)| {
                let f = GpuFunction::deploy(*b, GpuDevice::p100(), &mut g, 0, i as u64).unwrap();
                f.host_demand().cores
            })
            .collect();
        let min = demands.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = demands.iter().cloned().fold(0.0, f64::max);
        assert!(max > min, "benchmarks differ in host pressure");
    }
}
