//! FIG13 — rFaaS in practice: accelerating OpenMP applications by offloading
//! to serverless executors (Fig. 13a–c).
//!
//! Three series per workload, as in the paper:
//! * **OpenMP** — local threads only;
//! * **rFaaS** — complete remote execution on leased executors;
//! * **OpenMP + rFaaS** — local threads plus one executor per thread
//!   ("doubling parallel resources with cheap serverless allocation").
//!
//! Speedups come from the Eq. (1)/LogP planner on the uGNI network model,
//! calibrated from the paper's measured runtimes ([`FIG13_BLACKSCHOLES`],
//! [`FIG13_OPENMC`]): each serial time splits into an unparallelisable
//! set-up and a per-task cost. No kernel runs.

use crate::paper::{FIG13_BLACKSCHOLES, FIG13_OPENMC};
use crate::report::{banner, compare, fmt, print_table};
use crate::{Metrics, Params, Scenario};
use des::{SimTime, Simulation};
use fabric::LogGpParams;
use rfaas::OffloadPlanner;

const PARALLELISM: [usize; 13] = [1, 4, 8, 12, 16, 20, 24, 28, 32, 40, 48, 56, 64];

pub struct SpeedupRow {
    parallelism: usize,
    openmp: f64,
    rfaas: f64,
    combined: f64,
}

/// Speedup model with a serial fraction: `serial_setup` is unparallelisable
/// (input parsing, domain setup) — this is what bends the paper's curves
/// away from linear.
fn series(
    planner: &OffloadPlanner,
    n_tasks: usize,
    serial_setup_s: f64,
    task_s: f64,
) -> Vec<SpeedupRow> {
    let total = serial_setup_s + n_tasks as f64 * task_s;
    PARALLELISM
        .iter()
        .map(|&p| {
            let openmp = total / (serial_setup_s + n_tasks as f64 * task_s / p as f64);
            let remote_only = {
                let s = planner.predicted_remote_only_speedup(n_tasks, p);
                total / (serial_setup_s + (n_tasks as f64 * task_s) / s.max(1e-9))
            };
            let combined = {
                let s = planner.predicted_speedup(n_tasks, p, true);
                total / (serial_setup_s + (n_tasks as f64 * task_s) / s.max(1e-9))
            };
            SpeedupRow {
                parallelism: p,
                openmp,
                rfaas: remote_only,
                combined,
            }
        })
        .collect()
}

pub struct Output {
    bs_rows: Vec<SpeedupRow>,
    openmc_rows: Vec<(u64, Vec<SpeedupRow>)>,
}

fn compute(_params: &Params) -> Output {
    let params = LogGpParams::ugni();

    // ---- Fig. 13a: Black-Scholes, 100 repetitions, 229 MB input. ----
    let bs = &FIG13_BLACKSCHOLES;
    // 6400 chunks of ~36 KB each; task cost from the serial baseline.
    let n_tasks = 6400;
    let task_s = (bs.serial_ms / 1000.0 * 0.985) / n_tasks as f64;
    let serial_setup = bs.serial_ms / 1000.0 * 0.015;
    let payload = (bs.input_mb * 1e6 / n_tasks as f64) as usize;
    let planner = OffloadPlanner::from_network(
        &params,
        SimTime::from_secs_f64(task_s),
        SimTime::from_secs_f64(task_s * 1.12), // executor overhead ~12%
        payload,
        1024,
    );
    let bs_rows = series(&planner, n_tasks, serial_setup, task_s);

    // ---- Fig. 13b/c: OpenMC, 1k and 10k particles. ----
    let mut openmc_rows = Vec::new();
    for r in &FIG13_OPENMC {
        let n_tasks = r.particles as usize;
        // Calibrate the serial fraction so that the OpenMP point at 64
        // matches the paper's measured runtime structure.
        let serial_setup = r.openmp_s - (r.serial_s - r.openmp_s) / 63.0 * 1.0;
        let serial_setup = serial_setup.max(0.5) * 0.66;
        let task_s = (r.serial_s - serial_setup) / n_tasks as f64;
        let planner = OffloadPlanner::from_network(
            &params,
            SimTime::from_secs_f64(task_s),
            SimTime::from_secs_f64(task_s * 1.25),
            64 * 1024, // particle batch state
            4 * 1024,
        );
        let rows = series(&planner, n_tasks, serial_setup, task_s);
        openmc_rows.push((r.particles, rows));
    }
    Output {
        bs_rows,
        openmc_rows,
    }
}

fn print_series(title: &str, rows: &[SpeedupRow]) {
    print_table(
        title,
        &["parallelism", "OpenMP", "rFaaS", "OpenMP + rFaaS"],
        &rows
            .iter()
            .map(|r| {
                vec![
                    r.parallelism.to_string(),
                    fmt(r.openmp),
                    fmt(r.rfaas),
                    fmt(r.combined),
                ]
            })
            .collect::<Vec<_>>(),
    );
}

pub struct Fig13Offload;

impl Scenario for Fig13Offload {
    fn name(&self) -> &'static str {
        "fig13_offload"
    }

    fn title(&self) -> &'static str {
        "Offload acceleration: Black-Scholes and OpenMC"
    }

    fn run(&self, _sim: &mut Simulation, params: &Params) -> Metrics {
        let out = compute(params);
        let bs64 = out.bs_rows.last().unwrap();
        let mut m = Metrics::new();
        m.push("bs_openmp_speedup_64", bs64.openmp);
        m.push("bs_rfaas_speedup_64", bs64.rfaas);
        m.push("bs_combined_speedup_64", bs64.combined);
        for (particles, rows) in &out.openmc_rows {
            let at64 = rows.last().unwrap();
            let serial_s = FIG13_OPENMC
                .iter()
                .find(|r| r.particles == *particles)
                .unwrap()
                .serial_s;
            m.push(
                &format!("openmc_{particles}_openmp_s"),
                serial_s / at64.openmp,
            );
            m.push(
                &format!("openmc_{particles}_combined_s"),
                serial_s / at64.combined,
            );
        }
        m
    }

    fn report(&self) {
        banner("FIG13", self.title());
        let out = compute(&self.default_params());

        let bs = &FIG13_BLACKSCHOLES;
        let rows = &out.bs_rows;
        print_series("Fig. 13a — Black-Scholes speedup (serial 726 ms)", rows);
        let max64 = rows.last().unwrap();
        println!(
            "paper: speedup up to ~{} at 64-way; ours: OpenMP {}, rFaaS {}, combined {}",
            bs.max_speedup,
            fmt(max64.openmp),
            fmt(max64.rfaas),
            fmt(max64.combined)
        );
        assert!(max64.openmp > 20.0 && max64.openmp < 45.0);
        // "rFaaS on par with OpenMP" holds before the network saturates (mid
        // parallelism); at 64-way the remote series flattens below OpenMP.
        let mid = rows.iter().find(|r| r.parallelism == 16).unwrap();
        assert!(
            (mid.rfaas - mid.openmp).abs() / mid.openmp < 0.25,
            "rFaaS on par with OpenMP at 16-way: {} vs {}",
            mid.rfaas,
            mid.openmp
        );
        assert!(
            max64.rfaas < max64.openmp,
            "network saturation caps pure rFaaS"
        );
        assert!(max64.combined > max64.openmp, "doubling resources helps");

        for (particles, rows) in &out.openmc_rows {
            let r = FIG13_OPENMC
                .iter()
                .find(|r| r.particles == *particles)
                .unwrap();
            print_series(
                &format!(
                    "Fig. 13{} — OpenMC, {} particles (serial {} s)",
                    if r.particles == 1000 { 'b' } else { 'c' },
                    r.particles,
                    r.serial_s
                ),
                rows,
            );
            let at64 = rows.last().unwrap();
            let ours_openmp_s = r.serial_s / at64.openmp;
            let ours_rfaas_s = r.serial_s / at64.rfaas;
            let ours_combined_s = r.serial_s / at64.combined;
            println!("paper vs ours at 64-way [s]:");
            println!("  OpenMP:        {}", compare(r.openmp_s, ours_openmp_s));
            println!("  rFaaS:         {}", compare(r.rfaas_s, ours_rfaas_s));
            println!(
                "  OpenMP+rFaaS:  {}",
                compare(r.combined_s, ours_combined_s)
            );
            assert!(
                ours_combined_s < ours_openmp_s,
                "combined must beat OpenMP alone"
            );
            assert!(
                ours_rfaas_s > ours_combined_s,
                "remote-only cannot beat local+remote"
            );
        }

        println!(
            "\nshape: rFaaS tracks OpenMP; OpenMP+rFaaS wins once tasks outnumber Eq. (1)'s threshold."
        );
    }
}
