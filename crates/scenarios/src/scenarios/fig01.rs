//! FIG1 — Piz Daint utilization, March 2022 (Fig. 1a–c).
//!
//! Replays a month-long synthetic trace calibrated to the paper's published
//! statistics against the SLURM-like scheduler, sampling every two minutes
//! exactly as the paper's measurement script did.

use crate::paper::FIG1;
use crate::report::{banner, compare, fmt, print_table};
use crate::{Metrics, Params, Scenario, REPORT_SEED};
use cluster::{simulate_trace_in, TraceOutcome, TraceProfile};
use des::{SimTime, Simulation};

/// Reference Piz Daint node count the paper's absolute numbers assume.
const PIZ_DAINT_NODES: f64 = 5704.0;

fn compute(sim: &mut Simulation, params: &Params) -> (TraceProfile, TraceOutcome) {
    let mut profile = TraceProfile::piz_daint();
    profile.nodes = params.usize("nodes", profile.nodes);
    let horizon = SimTime::from_secs_f64(params.f64("horizon_days", 14.0) * 86_400.0);
    let out = simulate_trace_in(sim, &profile, horizon);
    (profile, out)
}

pub struct Fig01Utilization;

impl Scenario for Fig01Utilization {
    fn name(&self) -> &'static str {
        "fig01_utilization"
    }

    fn title(&self) -> &'static str {
        "Piz Daint utilization: idle CPUs, memory split, idle periods"
    }

    fn default_params(&self) -> Params {
        Params::new()
            .with("nodes", 1800u64)
            .with("horizon_days", 14.0)
    }

    fn run(&self, sim: &mut Simulation, params: &Params) -> Metrics {
        let (_, out) = compute(sim, params);
        let r = &out.report;
        let idle: Vec<f64> = r.idle_cpu_pct.iter().map(|(_, v)| *v).collect();
        let mean_idle = idle.iter().sum::<f64>() / idle.len().max(1) as f64;
        let max_idle = idle.iter().cloned().fold(0.0, f64::max);
        let (mut used, mut fa, mut fi) = (0.0, 0.0, 0.0);
        for (_, u, a, i) in &r.memory_split_pct {
            used += u;
            fa += a;
            fi += i;
        }
        let n = r.memory_split_pct.len().max(1) as f64;

        let mut m = Metrics::new();
        m.push("mean_core_utilization_pct", out.mean_core_utilization_pct);
        m.push("mean_idle_cpu_pct", mean_idle);
        m.push("max_idle_cpu_pct", max_idle);
        m.push("mem_used_pct", used / n);
        m.push("mem_free_allocated_pct", fa / n);
        m.push("mem_free_idle_pct", fi / n);
        m.push("median_idle_nodes", r.median_idle_nodes);
        m.push("median_avail_exact_min", r.exact.median_min);
        m.push("median_avail_min_est_min", r.minimal_estimation.median_min);
        m.push("median_avail_max_est_min", r.maximal_estimation.median_min);
        m.push(
            "frac_idle_below_10min_min_est",
            r.minimal_estimation.frac_below_10min,
        );
        m.push("idle_events_min_est", r.minimal_estimation.events as f64);
        m.push("jobs_submitted", out.jobs_submitted as f64);
        m.push("jobs_completed", out.jobs_completed as f64);
        m
    }

    fn report(&self) {
        let seed = REPORT_SEED;
        banner("FIG1", self.title());
        println!("seed = {seed}; horizon = 14 simulated days (scaled month), 1800 nodes");

        let mut sim = Simulation::new(seed);
        let (profile, out) = compute(&mut sim, &self.default_params());
        let r = &out.report;

        // Fig. 1a: idle CPU series summary.
        let idle: Vec<f64> = r.idle_cpu_pct.iter().map(|(_, v)| *v).collect();
        let mean_idle = idle.iter().sum::<f64>() / idle.len().max(1) as f64;
        let max_idle = idle.iter().cloned().fold(0.0, f64::max);
        print_table(
            "Fig. 1a — idle CPU core rate (%)",
            &["metric", "paper", "ours"],
            &[
                vec![
                    "range".into(),
                    "0–40%".into(),
                    format!("0–{}", fmt(max_idle)),
                ],
                vec![
                    "mean utilization".into(),
                    "80–94% band".into(),
                    fmt(out.mean_core_utilization_pct),
                ],
                vec!["mean idle".into(), "~6–20%".into(), fmt(mean_idle)],
            ],
        );

        // Fig. 1b: memory split.
        let (mut used, mut fa, mut fi) = (0.0, 0.0, 0.0);
        for (_, u, a, i) in &r.memory_split_pct {
            used += u;
            fa += a;
            fi += i;
        }
        let n = r.memory_split_pct.len().max(1) as f64;
        print_table(
            "Fig. 1b — memory split (% of system memory, time-averaged)",
            &["series", "paper", "ours"],
            &[
                vec![
                    "used memory".into(),
                    format!("~{}%", FIG1.mean_memory_used_pct),
                    fmt(used / n),
                ],
                vec![
                    "free in allocated nodes".into(),
                    "~55–65%".into(),
                    fmt(fa / n),
                ],
                vec!["free in idle nodes".into(), "~10–20%".into(), fmt(fi / n)],
            ],
        );

        // Fig. 1c: idle periods.
        let scale = profile.nodes as f64 / PIZ_DAINT_NODES; // our cluster is scaled down
        print_table(
            "Fig. 1c — idle-node periods (discrete 2-min sampling)",
            &["metric", "paper", "ours"],
            &[
                vec![
                    "median idle nodes (scaled)".into(),
                    fmt(FIG1.median_idle_nodes * scale),
                    fmt(r.median_idle_nodes),
                ],
                vec![
                    "median availability [min], exact".into(),
                    format!(
                        "{}–{}",
                        FIG1.median_availability_min.0, FIG1.median_availability_min.1
                    ),
                    fmt(r.exact.median_min),
                ],
                vec![
                    "median availability [min], min est.".into(),
                    fmt(FIG1.median_availability_min.0),
                    fmt(r.minimal_estimation.median_min),
                ],
                vec![
                    "median availability [min], max est.".into(),
                    fmt(FIG1.median_availability_min.1),
                    fmt(r.maximal_estimation.median_min),
                ],
                vec![
                    "idle events < 10 min (min est.)".into(),
                    format!(
                        "{}–{}",
                        FIG1.frac_idle_below_10min.0, FIG1.frac_idle_below_10min.1
                    ),
                    fmt(r.minimal_estimation.frac_below_10min),
                ],
                vec![
                    "idle events < 10 min (max est.)".into(),
                    format!(
                        "{}–{}",
                        FIG1.frac_idle_below_10min.0, FIG1.frac_idle_below_10min.1
                    ),
                    fmt(r.maximal_estimation.frac_below_10min),
                ],
                vec![
                    "idle events recorded (min est.)".into(),
                    "~100k-150k/month".into(),
                    format!("{}", r.minimal_estimation.events),
                ],
            ],
        );

        println!(
            "\njobs: {} submitted, {} completed; comparison (median idle nodes): {}",
            out.jobs_submitted,
            out.jobs_completed,
            compare(FIG1.median_idle_nodes * scale, r.median_idle_nodes)
        );
    }
}
