//! Offload scenario (Sec. IV-F / Fig. 13): accelerate an OpenMC Monte Carlo
//! particle-transport run by shipping particles to leased executors — the
//! "MPI functions" pattern, driven by the Eq. (1) offload planner.
//!
//! The planner is calibrated the way the `fig13_offload` scenario calibrates
//! it: from the paper's measured serial and 64-thread OpenMP runtimes
//! (`scenarios::paper::FIG13_OPENMC`) on the uGNI network model, so the
//! output is deterministic.
//!
//! ```bash
//! cargo run --example offload_openmc --release
//! ```

use hpc_serverless_disagg::des::SimTime;
use hpc_serverless_disagg::fabric::LogGpParams;
use hpc_serverless_disagg::rfaas::OffloadPlanner;
use hpc_serverless_disagg::scenarios::paper::FIG13_OPENMC;

fn main() {
    let network = LogGpParams::ugni();
    for r in &FIG13_OPENMC {
        let n = r.particles as usize;
        // Split the serial runtime into unparallelisable set-up and a
        // per-particle cost, exactly as `fig13_offload` does.
        let serial_setup = (r.openmp_s - (r.serial_s - r.openmp_s) / 63.0).max(0.5) * 0.66;
        let task_s = (r.serial_s - serial_setup) / n as f64;
        let planner = OffloadPlanner::from_network(
            &network,
            SimTime::from_secs_f64(task_s),
            SimTime::from_secs_f64(task_s * 1.25),
            64 << 10, // particle batch state
            4 << 10,
        );
        println!(
            "OpenMC, {n} particles: serial {} s = {serial_setup:.2} s set-up + {:.1} ms per particle",
            r.serial_s,
            task_s * 1e3
        );
        println!(
            "  Eq. (1): keep ≥ {} particles local",
            planner.n_local_min()
        );

        // One leased executor per local thread, as in Fig. 13's
        // "OpenMP + rFaaS" series.
        for workers in [4, 16, 64] {
            let plan = planner.plan_with_workers(n, workers, workers);
            assert_eq!(plan.local + plan.remote, n);
            assert!(plan.local >= planner.n_local_min());
            let speedup = planner.predicted_speedup(n, workers, true);
            println!(
                "  {workers:>2} threads + {workers:>2} executors: {} local / {} remote \
                 (max in-flight {}); particle speedup {speedup:.2}x (remote only {:.2}x), \
                 run {:.1} s",
                plan.local,
                plan.remote,
                plan.max_in_flight,
                planner.predicted_remote_only_speedup(n, workers),
                serial_setup + n as f64 * task_s / speedup
            );
        }
    }
}
