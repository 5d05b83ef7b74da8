//! Calibrated resource profiles for the paper's workloads.
//!
//! Per-rank demand vectors derived from the literature the paper cites: the
//! NAS characterisation studies (memory size, locality, communication
//! volume), MILC's documented memory-bandwidth sensitivity, and LULESH's
//! compute-heavy stencil profile. These drive every co-location figure.

use crate::model::Demand;

/// NAS Parallel Benchmark kernels used across Table III and Fig. 9/10.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NasKernel {
    Bt,
    Cg,
    Ep,
    Ft,
    Lu,
    Mg,
}

impl NasKernel {
    pub fn name(self) -> &'static str {
        match self {
            NasKernel::Bt => "BT",
            NasKernel::Cg => "CG",
            NasKernel::Ep => "EP",
            NasKernel::Ft => "FT",
            NasKernel::Lu => "LU",
            NasKernel::Mg => "MG",
        }
    }
}

/// NAS problem classes appearing in the evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NasClass {
    S,
    W,
    A,
    B,
}

impl NasClass {
    pub fn name(self) -> &'static str {
        match self {
            NasClass::S => "S",
            NasClass::W => "W",
            NasClass::A => "A",
            NasClass::B => "B",
        }
    }

    /// Working-set scale factor relative to class W.
    fn scale(self) -> f64 {
        match self {
            NasClass::S => 0.25,
            NasClass::W => 1.0,
            NasClass::A => 2.2,
            NasClass::B => 5.0,
        }
    }
}

/// A named workload with a per-rank demand vector.
#[derive(Debug, Clone)]
pub struct WorkloadProfile {
    pub name: String,
    /// Demand of ONE rank/process (cores = 1).
    pub per_rank: Demand,
    /// Representative serial runtime in seconds (class-dependent), used by
    /// throughput harnesses. For MPI apps this is per-iteration-block cost.
    pub serial_runtime_s: f64,
}

impl WorkloadProfile {
    /// One argument per demand-vector column; a builder would obscure the
    /// correspondence with the calibration tables below.
    #[allow(clippy::too_many_arguments)]
    fn mk(
        name: String,
        membw: f64,
        llc: f64,
        reuse: f64,
        net: f64,
        mem_frac: f64,
        net_frac: f64,
        serial_runtime_s: f64,
    ) -> Self {
        WorkloadProfile {
            per_rank: Demand {
                name: name.clone(),
                cores: 1.0,
                membw_bps: membw,
                llc_mb: llc,
                cache_reuse: reuse,
                net_bps: net,
                mem_frac,
                net_frac,
            },
            name,
            serial_runtime_s,
        }
    }

    /// Demand of `ranks` ranks of this workload on one node.
    pub fn on_node(&self, ranks: u32) -> Demand {
        self.per_rank.times(ranks)
    }

    /// NAS kernel profiles. Serial runtimes land in the 0.6–4.2 s window the
    /// paper quotes for its Table III workloads (W/A classes).
    pub fn nas(kernel: NasKernel, class: NasClass) -> Self {
        let s = class.scale();
        let name = format!("{}.{}", kernel.name(), class.name());
        match kernel {
            // Block-tridiagonal solver: balanced compute/memory, decent reuse.
            NasKernel::Bt => Self::mk(name, 2.0e9, 6.0 * s, 0.60, 0.20e9, 0.42, 0.03, 1.9 * s),
            // Conjugate gradient: latency-bound sparse matvec, cache-hungry.
            NasKernel::Cg => Self::mk(name, 5.8e9, 12.0 * s, 0.80, 0.35e9, 0.84, 0.04, 1.4 * s),
            // Embarrassingly parallel: pure compute.
            NasKernel::Ep => Self::mk(name, 0.15e9, 0.5, 0.05, 0.01e9, 0.02, 0.0, 2.6 * s),
            // 3-D FFT: bandwidth-heavy with all-to-all communication.
            NasKernel::Ft => Self::mk(name, 5.0e9, 10.0 * s, 0.45, 0.9e9, 0.70, 0.10, 1.7 * s),
            // LU factorisation: pipelined stencil, moderate reuse.
            NasKernel::Lu => Self::mk(name, 2.7e9, 7.0 * s, 0.65, 0.25e9, 0.52, 0.04, 1.6 * s),
            // Multigrid: bandwidth-bound V-cycles, large working set.
            NasKernel::Mg => Self::mk(
                name,
                4.8e9,
                9.0 * s,
                0.50,
                0.55e9,
                0.68,
                0.05,
                0.13 * s / 0.25,
            ),
        }
    }

    /// LULESH at per-rank problem size `s` (15/18/20/25 in Fig. 9/11/12).
    /// Compute-heavy explicit hydrodynamics; bandwidth demand grows mildly
    /// with the element count per rank.
    pub fn lulesh(size: u32) -> Self {
        let f = (size as f64 / 20.0).powf(1.2);
        Self::mk(
            format!("LULESH-s{size}"),
            1.2e9 * f,
            1.5 * f,
            0.30,
            0.12e9,
            0.15,
            0.05,
            // 64-rank baselines in the paper: 40.6/77.6/119/292 s.
            lulesh_baseline_s(size),
        )
    }

    /// MILC su3_rmd lattice QCD at lattice scale `size` (32/64/96/128).
    /// Memory-intensive and extremely bandwidth/network sensitive (the paper
    /// cites [93-99]).
    pub fn milc(size: u32) -> Self {
        let f = 1.0 + (size as f64 / 128.0) * 0.9;
        Self::mk(
            format!("MILC-{size}"),
            3.4e9 * f.min(1.75),
            2.5,
            0.15,
            0.45e9,
            0.72,
            0.10,
            milc_baseline_s(size),
        )
    }

    /// Memory-service function (Sec. III-C / Fig. 11): a pinned 1 GB region
    /// serving one-sided RDMA reads/writes of `chunk_mb` every `interval_ms`.
    /// CPU demand is minimal (one-sided RMA); host pressure comes from NIC
    /// DMA bursts hitting the memory controllers, which is why measured
    /// overhead is largely *independent of the transfer interval* (the
    /// paper's observation) — bursts contend at full line rate regardless of
    /// their spacing.
    pub fn memory_service(chunk_mb: f64, interval_ms: f64) -> Self {
        let avg_rate = chunk_mb * 1e6 / (interval_ms / 1e3); // sustained B/s

        // Burst pressure at the memory controller: NIC DMA at line rate, felt
        // while a transfer is in flight; floor keeps the sustained component.
        let burst = 22e9_f64;
        let membw = burst.max(avg_rate.min(burst * 1.2));
        let mut p = Self::mk(
            format!("memsvc-{chunk_mb}MB-{interval_ms}ms"),
            membw,
            1.0,
            0.0,
            avg_rate.min(10.2e9),
            0.9,
            0.1,
            0.0,
        );
        p.per_rank.cores = 0.05; // one-sided: almost no CPU
        p
    }

    /// Host-side demand of a GPU function (Fig. 12): `host_core_demand`
    /// of one core plus staging bandwidth. Built from the gpu crate's
    /// Rodinia profiles by the caller to avoid a dependency cycle.
    pub fn gpu_function(name: &str, host_core_demand: f64, host_membw_bps: f64) -> Self {
        let mut p = Self::mk(
            format!("gpu-{name}"),
            host_membw_bps,
            2.0,
            0.1,
            0.0,
            0.55,
            0.0,
            0.3,
        );
        p.per_rank.cores = host_core_demand;
        p
    }
}

/// Paper baselines (Fig. 9a): LULESH 64 ranks on 2 nodes.
pub fn lulesh_baseline_s(size: u32) -> f64 {
    match size {
        15 => 40.6,
        18 => 77.6,
        20 => 119.0,
        25 => 292.0,
        _ => 119.0 * (size as f64 / 20.0).powi(3) / 1.0,
    }
}

/// Paper baselines (Fig. 11c / 9c): MILC.
pub fn milc_baseline_s(size: u32) -> f64 {
    match size {
        32 => 87.2,
        64 => 169.0,
        96 => 288.4,
        128 => 409.5,
        _ => 87.2 * (size as f64 / 32.0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{scaling_efficiency, NodeCapacity};

    #[test]
    fn table3_efficiency_shape() {
        let cap = NodeCapacity::daint_mc();
        let ep = WorkloadProfile::nas(NasKernel::Ep, NasClass::W);
        let bt = WorkloadProfile::nas(NasKernel::Bt, NasClass::W);
        let lu = WorkloadProfile::nas(NasKernel::Lu, NasClass::W);
        let cg = WorkloadProfile::nas(NasKernel::Cg, NasClass::A);
        let e = |p: &WorkloadProfile, n| scaling_efficiency(&cap, &p.per_rank, n);
        // Paper Table III at 32 executors: EP 85%, BT 73%, CG 36%.
        assert!(e(&ep, 32) > e(&bt, 32));
        assert!(e(&bt, 32) > e(&cg, 32));
        assert!(e(&cg, 32) < 0.5, "CG collapses: {}", e(&cg, 32));
        assert!(e(&ep, 32) > 0.75, "EP stays efficient: {}", e(&ep, 32));
        // LU sits between BT and CG.
        let elu = e(&lu, 24);
        assert!(elu > e(&cg, 24) && elu <= e(&ep, 24) + 1e-9);
    }

    #[test]
    fn serial_runtimes_in_paper_window() {
        // "runtimes between 0.6 and 4.2 seconds" (Sec. V-B) for the
        // Table III set: BT W, CG A, EP W, LU W.
        for (k, c) in [
            (NasKernel::Bt, NasClass::W),
            (NasKernel::Cg, NasClass::A),
            (NasKernel::Ep, NasClass::W),
            (NasKernel::Lu, NasClass::W),
        ] {
            let p = WorkloadProfile::nas(k, c);
            assert!(
                (0.6..=4.2).contains(&p.serial_runtime_s),
                "{}: {}",
                p.name,
                p.serial_runtime_s
            );
        }
    }

    #[test]
    fn lulesh_baselines_match_paper() {
        assert_eq!(lulesh_baseline_s(15), 40.6);
        assert_eq!(lulesh_baseline_s(25), 292.0);
        assert_eq!(milc_baseline_s(96), 288.4);
    }

    #[test]
    fn lulesh_demand_grows_with_size() {
        let small = WorkloadProfile::lulesh(15);
        let large = WorkloadProfile::lulesh(25);
        assert!(large.per_rank.membw_bps > small.per_rank.membw_bps);
        assert!(large.per_rank.mem_frac == small.per_rank.mem_frac);
    }

    #[test]
    fn memory_service_interval_insensitive() {
        // The paper: transfer rate does not change the perturbation.
        let fast = WorkloadProfile::memory_service(10.0, 1.0);
        let slow = WorkloadProfile::memory_service(10.0, 500.0);
        let ratio = fast.per_rank.membw_bps / slow.per_rank.membw_bps;
        assert!(ratio < 1.3, "burst pressure dominates: ratio={ratio}");
        // But network demand does scale with the rate.
        assert!(fast.per_rank.net_bps > slow.per_rank.net_bps * 100.0);
    }

    #[test]
    fn memory_service_uses_almost_no_cpu() {
        let m = WorkloadProfile::memory_service(10.0, 25.0);
        assert!(m.per_rank.cores < 0.1);
    }

    #[test]
    fn milc_more_memory_bound_than_lulesh() {
        let milc = WorkloadProfile::milc(96);
        let lulesh = WorkloadProfile::lulesh(20);
        assert!(milc.per_rank.mem_frac > 3.0 * lulesh.per_rank.mem_frac);
        assert!(milc.per_rank.membw_bps > 2.0 * lulesh.per_rank.membw_bps);
    }

    #[test]
    fn gpu_function_is_sub_core() {
        let g = WorkloadProfile::gpu_function("hotspot", 0.25, 1.2e9);
        assert!(g.per_rank.cores < 1.0);
    }
}
