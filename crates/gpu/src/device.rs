//! GPU device model: a roofline over peak FLOP/s and memory bandwidth, plus
//! kernel-launch latency and PCIe transfer costs.

use des::SimTime;

/// A GPU's performance envelope.
#[derive(Debug, Clone, Copy)]
pub struct GpuDevice {
    pub name: &'static str,
    /// Peak double-precision FLOP/s.
    pub peak_flops: f64,
    /// Device memory bandwidth, bytes/s.
    pub mem_bps: f64,
    /// Device memory capacity, MB.
    pub memory_mb: u64,
    /// Kernel launch latency, seconds.
    pub launch_latency_s: f64,
    /// Host-device PCIe bandwidth, bytes/s.
    pub pcie_bps: f64,
}

impl GpuDevice {
    /// NVIDIA Tesla P100 (the Piz Daint GPU): 4.7 TFLOP/s FP64, 732 GB/s
    /// HBM2, 16 GB, PCIe gen3 x16.
    pub fn p100() -> Self {
        GpuDevice {
            name: "P100",
            peak_flops: 4.7e12,
            mem_bps: 732e9,
            memory_mb: 16 * 1024,
            launch_latency_s: 8e-6,
            pcie_bps: 12e9,
        }
    }

    /// Time to execute one kernel: launch latency + roofline time.
    pub fn kernel_time(&self, k: &KernelSpec) -> SimTime {
        let compute_s = k.flops / self.peak_flops / k.efficiency;
        let memory_s = k.bytes_accessed / self.mem_bps / k.efficiency;
        SimTime::from_secs_f64(self.launch_latency_s + compute_s.max(memory_s))
    }

    /// Host-to-device (or device-to-host) transfer time.
    pub fn transfer_time(&self, bytes: u64) -> SimTime {
        // Fixed DMA setup plus streaming.
        SimTime::from_micros_f64(10.0) + SimTime::from_secs_f64(bytes as f64 / self.pcie_bps)
    }
}

/// One kernel's resource demand.
#[derive(Debug, Clone, Copy)]
pub struct KernelSpec {
    pub flops: f64,
    pub bytes_accessed: f64,
    /// Achieved fraction of the roofline (occupancy, divergence, ...).
    pub efficiency: f64,
}

impl KernelSpec {
    pub fn new(flops: f64, bytes_accessed: f64, efficiency: f64) -> Self {
        assert!(efficiency > 0.0 && efficiency <= 1.0);
        KernelSpec {
            flops,
            bytes_accessed,
            efficiency,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p100_roofline_knee() {
        let d = GpuDevice::p100();
        // P100 knee: 4.7e12 / 732e9 ≈ 6.4 FLOP/byte.
        let knee = d.peak_flops / d.mem_bps;
        assert!((knee - 6.42).abs() < 0.1);
        // Either side of the knee, the kernel takes its bound's time.
        let compute_heavy = KernelSpec::new(1e12, 1e9, 1.0);
        let memory_heavy = KernelSpec::new(1e9, 1e12, 1.0);
        assert_eq!(
            d.kernel_time(&compute_heavy),
            SimTime::from_secs_f64(d.launch_latency_s + 1e12 / d.peak_flops)
        );
        assert_eq!(
            d.kernel_time(&memory_heavy),
            SimTime::from_secs_f64(d.launch_latency_s + 1e12 / d.mem_bps)
        );
    }

    #[test]
    fn kernel_time_includes_launch_latency() {
        let d = GpuDevice::p100();
        let empty = KernelSpec::new(0.0, 0.0, 1.0);
        assert_eq!(
            d.kernel_time(&empty),
            SimTime::from_secs_f64(d.launch_latency_s)
        );
    }

    #[test]
    fn kernel_time_respects_roofline() {
        let d = GpuDevice::p100();
        // 4.7e12 FLOPs at peak: 1 second of compute.
        let k = KernelSpec::new(4.7e12, 1e6, 1.0);
        let t = d.kernel_time(&k).as_secs_f64();
        assert!((t - 1.0).abs() < 1e-3, "t={t}");
        // Efficiency halves -> doubles.
        let k2 = KernelSpec::new(4.7e12, 1e6, 0.5);
        assert!((d.kernel_time(&k2).as_secs_f64() - 2.0).abs() < 1e-3);
    }

    #[test]
    fn pcie_transfer_time() {
        let d = GpuDevice::p100();
        let t = d.transfer_time(12_000_000_000).as_secs_f64();
        assert!((t - 1.0).abs() < 0.01, "12 GB at 12 GB/s ≈ 1 s, got {t}");
        assert!(d.transfer_time(0) > SimTime::ZERO, "DMA setup cost");
    }
}
