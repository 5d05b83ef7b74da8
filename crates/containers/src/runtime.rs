//! Container runtimes and their capability matrix (Table II of the paper),
//! plus the sandbox start-up cost model that distinguishes cold, warm and
//! hot invocations (Sec. IV-A/B).

use des::SimTime;

/// Container systems compared in Table II.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ContainerRuntime {
    Docker,
    Singularity,
    Sarus,
}

impl ContainerRuntime {
    pub const ALL: [ContainerRuntime; 3] = [
        ContainerRuntime::Docker,
        ContainerRuntime::Singularity,
        ContainerRuntime::Sarus,
    ];

    pub fn name(self) -> &'static str {
        match self {
            ContainerRuntime::Docker => "Docker",
            ContainerRuntime::Singularity => "Singularity",
            ContainerRuntime::Sarus => "Sarus",
        }
    }
}

/// Row of Table II: what each runtime supports.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RuntimeCapabilities {
    pub image_format: &'static str,
    pub repositories: &'static str,
    /// Accelerator/interconnect device support without plugins.
    pub automatic_device_support: bool,
    /// Resource limits integrate with the batch system rather than cgroups
    /// configured by the runtime itself.
    pub batch_managed_resources: bool,
    /// Integrates with SLURM.
    pub slurm_integration: bool,
    /// Native high-performance MPI with dynamic relinking.
    pub native_mpi: bool,
    /// Can run rootless (required for multi-tenant HPC).
    pub rootless: bool,
}

impl RuntimeCapabilities {
    /// Table II contents.
    pub fn of(rt: ContainerRuntime) -> Self {
        match rt {
            ContainerRuntime::Docker => RuntimeCapabilities {
                image_format: "Docker",
                repositories: "Docker registry",
                automatic_device_support: false, // through plugins
                batch_managed_resources: false,  // native cgroups
                slurm_integration: false,
                native_mpi: false,
                rootless: false,
            },
            ContainerRuntime::Singularity => RuntimeCapabilities {
                image_format: "Custom",
                repositories: "None",
                automatic_device_support: true,
                batch_managed_resources: true,
                slurm_integration: true,
                native_mpi: true,
                rootless: true,
            },
            ContainerRuntime::Sarus => RuntimeCapabilities {
                image_format: "Docker-compatible",
                repositories: "Docker registry",
                automatic_device_support: true,
                batch_managed_resources: true,
                slurm_integration: true,
                native_mpi: true,
                rootless: true,
            },
        }
    }

    /// An HPC-suitable runtime per the paper's requirements: rootless,
    /// native devices, SLURM and MPI integration.
    pub fn hpc_suitable(&self) -> bool {
        self.rootless && self.automatic_device_support && self.slurm_integration && self.native_mpi
    }
}

/// How a function invocation finds its sandbox.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StartKind {
    /// No sandbox exists: create one, initialise user code.
    Cold,
    /// Sandbox exists with code loaded; executor process must be woken.
    Warm,
    /// Executor is busy-polling inside a live sandbox: dispatch only.
    Hot,
}

/// Start-up cost components (virtual time).
#[derive(Debug, Clone, Copy)]
pub struct StartupCost {
    pub sandbox_create: SimTime,
    pub runtime_init: SimTime,
    pub code_load: SimTime,
    /// Mounting system libfabric / uGNI directories into the container —
    /// the manual injection described in Sec. IV-A.
    pub fabric_mount: SimTime,
}

impl StartupCost {
    pub fn total(&self) -> SimTime {
        self.sandbox_create + self.runtime_init + self.code_load + self.fabric_mount
    }
}

/// Cold-start cost of `runtime` for a code package of `code_mb` (image
/// assumed locally cached; pulls are modelled by [`crate::image`]).
///
/// Calibration: Docker cold creates take hundreds of ms (Sec. IV-B cites
/// "hundreds of milliseconds in the best case"); Singularity/Sarus avoid the
/// daemon round trip and most namespace setup.
pub fn cold_start(runtime: ContainerRuntime, code_mb: f64) -> StartupCost {
    let (create_ms, init_ms, mount_ms) = match runtime {
        ContainerRuntime::Docker => (380.0, 120.0, 40.0),
        ContainerRuntime::Singularity => (160.0, 45.0, 25.0),
        ContainerRuntime::Sarus => (140.0, 50.0, 25.0),
    };
    // Loading user code: ~1 GB/s from page cache / local image store.
    let code_ms = code_mb;
    StartupCost {
        sandbox_create: SimTime::from_secs_f64(create_ms / 1e3),
        runtime_init: SimTime::from_secs_f64(init_ms / 1e3),
        code_load: SimTime::from_secs_f64(code_ms / 1e3),
        fabric_mount: SimTime::from_secs_f64(mount_ms / 1e3),
    }
}

/// Extra latency to *begin executing* in an existing sandbox, by start kind.
/// Hot executors poll and pay nothing; warm executors pay an OS wakeup plus
/// buffer re-registration.
pub fn dispatch_overhead(kind: StartKind) -> SimTime {
    match kind {
        StartKind::Hot => SimTime::from_micros_f64(1.2),
        StartKind::Warm => SimTime::from_micros_f64(28.0),
        StartKind::Cold => SimTime::from_millis(0), // paid via cold_start()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_matrix_matches_paper() {
        let docker = RuntimeCapabilities::of(ContainerRuntime::Docker);
        assert!(!docker.automatic_device_support);
        assert!(!docker.slurm_integration);
        assert!(!docker.native_mpi);
        assert!(!docker.hpc_suitable());

        for rt in [ContainerRuntime::Singularity, ContainerRuntime::Sarus] {
            let caps = RuntimeCapabilities::of(rt);
            assert!(caps.automatic_device_support, "{}", rt.name());
            assert!(caps.slurm_integration);
            assert!(caps.native_mpi);
            assert!(caps.hpc_suitable());
        }
        // Sarus keeps Docker image compatibility, Singularity does not.
        assert_eq!(
            RuntimeCapabilities::of(ContainerRuntime::Sarus).image_format,
            "Docker-compatible"
        );
        assert_eq!(
            RuntimeCapabilities::of(ContainerRuntime::Singularity).repositories,
            "None"
        );
    }

    #[test]
    fn cold_start_is_hundreds_of_ms() {
        for rt in ContainerRuntime::ALL {
            let c = cold_start(rt, 50.0);
            let total = c.total();
            assert!(
                total >= SimTime::from_millis(100) && total <= SimTime::from_secs(1),
                "{}: {total}",
                rt.name()
            );
        }
    }

    #[test]
    fn hpc_runtimes_start_faster_than_docker() {
        let docker = cold_start(ContainerRuntime::Docker, 50.0).total();
        for rt in [ContainerRuntime::Singularity, ContainerRuntime::Sarus] {
            assert!(cold_start(rt, 50.0).total() < docker);
        }
    }

    #[test]
    fn dispatch_order_hot_warm_cold() {
        let hot = dispatch_overhead(StartKind::Hot);
        let warm = dispatch_overhead(StartKind::Warm);
        assert!(hot < warm);
        assert!(hot < SimTime::from_micros(5), "hot path is single-digit us");
        let cold_total = cold_start(ContainerRuntime::Sarus, 10.0).total();
        assert!(warm < cold_total, "warm avoids sandbox creation");
    }

    #[test]
    fn code_size_scales_cold_start() {
        let small = cold_start(ContainerRuntime::Sarus, 1.0).total();
        let big = cold_start(ContainerRuntime::Sarus, 500.0).total();
        assert!(big > small + SimTime::from_millis(400));
    }
}
