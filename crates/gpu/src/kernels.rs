//! Profiles of the six Rodinia benchmarks used in Fig. 12. Each runs "a few
//! hundred milliseconds" (Sec. V-C) as a sequence of kernel launches with
//! host-side management in between — which is exactly why a single CPU core
//! suffices to keep the GPU busy, and why the host-side footprint (the
//! `host_*_demand` fields) is what perturbs the co-located batch job.

use crate::device::KernelSpec;

/// The Rodinia subset of Fig. 12.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RodiniaBenchmark {
    Bfs,
    Gaussian,
    Hotspot,
    Myocyte,
    Pathfinder,
    SradV1,
}

impl RodiniaBenchmark {
    pub const ALL: [RodiniaBenchmark; 6] = [
        RodiniaBenchmark::Bfs,
        RodiniaBenchmark::Gaussian,
        RodiniaBenchmark::Hotspot,
        RodiniaBenchmark::Myocyte,
        RodiniaBenchmark::Pathfinder,
        RodiniaBenchmark::SradV1,
    ];

    pub fn name(self) -> &'static str {
        match self {
            RodiniaBenchmark::Bfs => "bfs",
            RodiniaBenchmark::Gaussian => "gaussian",
            RodiniaBenchmark::Hotspot => "hotspot",
            RodiniaBenchmark::Myocyte => "myocyte",
            RodiniaBenchmark::Pathfinder => "pathfinder",
            RodiniaBenchmark::SradV1 => "srad-v1",
        }
    }
}

/// Workload profile of one benchmark run.
#[derive(Debug, Clone)]
pub struct RodiniaProfile {
    pub bench: RodiniaBenchmark,
    /// Number of kernel launches per run (iterative codes launch many).
    pub kernel_launches: u32,
    /// Per-launch kernel demand.
    pub kernel: KernelSpec,
    /// Host→device bytes per run.
    pub h2d_bytes: u64,
    /// Device→host bytes per run.
    pub d2h_bytes: u64,
    /// Fraction of one host core used for management (launches, transfers).
    pub host_core_demand: f64,
    /// Host memory-bandwidth demand while staging data, bytes/s.
    pub host_membw_demand: f64,
}

impl RodiniaProfile {
    /// Calibrated so each run lands in the few-hundred-millisecond range on a
    /// P100 and the host-side demands reflect the benchmark's character
    /// (gaussian/myocyte launch storms of tiny kernels → high launch count;
    /// bfs/srad stream large buffers → higher host bandwidth).
    pub fn of(bench: RodiniaBenchmark) -> Self {
        use RodiniaBenchmark::*;
        match bench {
            Bfs => RodiniaProfile {
                bench,
                kernel_launches: 24,
                kernel: KernelSpec::new(2.0e9, 3.2e9, 0.35),
                h2d_bytes: 600 << 20,
                d2h_bytes: 64 << 20,
                host_core_demand: 0.35,
                host_membw_demand: 2.2e9,
            },
            Gaussian => RodiniaProfile {
                bench,
                kernel_launches: 4096,
                kernel: KernelSpec::new(6.0e8, 4.0e7, 0.5),
                h2d_bytes: 128 << 20,
                d2h_bytes: 32 << 20,
                host_core_demand: 0.55,
                host_membw_demand: 0.9e9,
            },
            Hotspot => RodiniaProfile {
                bench,
                kernel_launches: 60,
                kernel: KernelSpec::new(9.0e9, 2.4e9, 0.45),
                h2d_bytes: 256 << 20,
                d2h_bytes: 128 << 20,
                host_core_demand: 0.25,
                host_membw_demand: 1.2e9,
            },
            Myocyte => RodiniaProfile {
                bench,
                kernel_launches: 3000,
                kernel: KernelSpec::new(3.0e8, 6.0e7, 0.3),
                h2d_bytes: 48 << 20,
                d2h_bytes: 24 << 20,
                host_core_demand: 0.6,
                host_membw_demand: 0.5e9,
            },
            Pathfinder => RodiniaProfile {
                bench,
                kernel_launches: 100,
                kernel: KernelSpec::new(1.6e9, 1.8e9, 0.4),
                h2d_bytes: 320 << 20,
                d2h_bytes: 16 << 20,
                host_core_demand: 0.3,
                host_membw_demand: 1.5e9,
            },
            SradV1 => RodiniaProfile {
                bench,
                kernel_launches: 200,
                kernel: KernelSpec::new(4.0e9, 2.8e9, 0.4),
                h2d_bytes: 400 << 20,
                d2h_bytes: 200 << 20,
                host_core_demand: 0.4,
                host_membw_demand: 1.8e9,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn host_demand_is_sub_core() {
        for b in RodiniaBenchmark::ALL {
            let p = RodiniaProfile::of(b);
            assert!(
                p.host_core_demand > 0.0 && p.host_core_demand <= 1.0,
                "{}: one management core suffices (Sec. III-D)",
                b.name()
            );
        }
    }

    #[test]
    fn launch_heavy_codes_have_higher_host_demand() {
        let gaussian = RodiniaProfile::of(RodiniaBenchmark::Gaussian);
        let hotspot = RodiniaProfile::of(RodiniaBenchmark::Hotspot);
        assert!(gaussian.kernel_launches > 10 * hotspot.kernel_launches);
        assert!(gaussian.host_core_demand > hotspot.host_core_demand);
    }

    #[test]
    fn names_match_figure_labels() {
        let names: Vec<&str> = RodiniaBenchmark::ALL.iter().map(|b| b.name()).collect();
        assert_eq!(
            names,
            vec![
                "bfs",
                "gaussian",
                "hotspot",
                "myocyte",
                "pathfinder",
                "srad-v1"
            ]
        );
    }
}
