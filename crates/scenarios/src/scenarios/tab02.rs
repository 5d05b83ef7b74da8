//! TAB2 — comparison of container systems for cloud and HPC (Table II),
//! plus Table I (cloud vs HPC FaaS environments) and the cold-start cost
//! model backing Sec. IV-B/C.

use crate::report::{banner, fmt, print_table};
use crate::{Metrics, Params, Scenario};
use containers::{cold_start, ContainerRuntime, RuntimeCapabilities};
use des::Simulation;
use rfaas::EnvironmentMatrix;

fn yn(b: bool) -> String {
    if b {
        "yes".into()
    } else {
        "no".into()
    }
}

fn cold_start_totals(code_mb: f64) -> Vec<(ContainerRuntime, f64)> {
    ContainerRuntime::ALL
        .iter()
        .map(|rt| (*rt, cold_start(*rt, code_mb).total().as_millis_f64()))
        .collect()
}

pub struct Tab02Containers;

impl Scenario for Tab02Containers {
    fn name(&self) -> &'static str {
        "tab02_containers"
    }

    fn title(&self) -> &'static str {
        "Environment and container-system capability matrices"
    }

    fn default_params(&self) -> Params {
        Params::new().with("code_mb", 50.0)
    }

    fn run(&self, _sim: &mut Simulation, params: &Params) -> Metrics {
        let code_mb = params.f64("code_mb", 50.0);
        let totals = cold_start_totals(code_mb);
        let hpc_suitable = ContainerRuntime::ALL
            .iter()
            .filter(|rt| RuntimeCapabilities::of(**rt).hpc_suitable())
            .count();
        let mut m = Metrics::new();
        m.push("hpc_suitable_runtimes", hpc_suitable as f64);
        m.push(
            "min_cold_start_ms",
            totals.iter().map(|(_, t)| *t).fold(f64::INFINITY, f64::min),
        );
        m.push(
            "max_cold_start_ms",
            totals
                .iter()
                .map(|(_, t)| *t)
                .fold(f64::NEG_INFINITY, f64::max),
        );
        m
    }

    fn report(&self) {
        banner("TAB1+TAB2", self.title());
        let code_mb = self.default_params().f64("code_mb", 50.0);

        let env = EnvironmentMatrix::table1();
        print_table(
            "Table I — cloud FaaS vs HPC FaaS",
            &["dimension", "Cloud FaaS", "HPC FaaS", "exercised by"],
            &env.rows
                .iter()
                .map(|r| {
                    vec![
                        r.dimension.to_string(),
                        r.cloud_faas.to_string(),
                        r.hpc_faas.to_string(),
                        r.exercised_here.to_string(),
                    ]
                })
                .collect::<Vec<_>>(),
        );

        let rows: Vec<Vec<String>> = ContainerRuntime::ALL
            .iter()
            .map(|rt| {
                let c = RuntimeCapabilities::of(*rt);
                vec![
                    rt.name().to_string(),
                    c.image_format.to_string(),
                    c.repositories.to_string(),
                    yn(c.automatic_device_support),
                    yn(c.slurm_integration),
                    yn(c.native_mpi),
                    yn(c.hpc_suitable()),
                ]
            })
            .collect();
        print_table(
            "Table II — container systems",
            &[
                "runtime",
                "image format",
                "repositories",
                "auto devices",
                "SLURM",
                "native MPI",
                "HPC-suitable",
            ],
            &rows,
        );

        let cold: Vec<Vec<String>> = ContainerRuntime::ALL
            .iter()
            .map(|rt| {
                let c = cold_start(*rt, code_mb);
                vec![
                    rt.name().to_string(),
                    fmt(c.sandbox_create.as_millis_f64()),
                    fmt(c.runtime_init.as_millis_f64()),
                    fmt(c.code_load.as_millis_f64()),
                    fmt(c.fabric_mount.as_millis_f64()),
                    fmt(c.total().as_millis_f64()),
                ]
            })
            .collect();
        print_table(
            "Cold-start cost model (50 MB code package) [ms]",
            &[
                "runtime",
                "sandbox",
                "init",
                "code load",
                "fabric mount",
                "total",
            ],
            &cold,
        );
        println!("\npaper: cold starts add 'hundreds of milliseconds in the best case' — all totals land there;");
        println!(
            "HPC runtimes (Singularity/Sarus) are the only ones passing the suitability test."
        );
    }
}
