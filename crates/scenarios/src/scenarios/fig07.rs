//! FIG7 — invocation latency of rFaaS vs raw libfabric (Fig. 7).
//!
//! Four series over message sizes 1 B – 4 KiB, median and 95th percentile:
//! uGNI busy-poll, uGNI queue-wait (the libfabric baselines), rFaaS hot and
//! rFaaS warm invocations of a no-op function.

use crate::report::{banner, fmt, print_table, write_json};
use crate::{Metrics, Params, Scenario, REPORT_SEED};
use des::{Percentiles, RngStream, SimTime, Simulation};
use fabric::microbench::{fig7_sizes, ping_pong};
use fabric::{CompletionMode, LogGpParams};
use rfaas::{Executor, ExecutorMode, FunctionRegistry};
use serde::Serialize;

#[derive(Serialize)]
pub struct Row {
    size: usize,
    ugni_busy_med: f64,
    ugni_busy_p95: f64,
    ugni_wait_med: f64,
    ugni_wait_p95: f64,
    rfaas_hot_med: f64,
    rfaas_hot_p95: f64,
    rfaas_warm_med: f64,
    rfaas_warm_p95: f64,
}

/// Distribution of rFaaS invocation latencies for a no-op function.
fn rfaas_distribution(
    mode: ExecutorMode,
    size: usize,
    reps: usize,
    rng: &mut RngStream,
) -> Percentiles {
    let params = LogGpParams::ugni();
    let mut reg = FunctionRegistry::new();
    let id = reg.register_noop();
    let def = reg.get(id).unwrap().clone();
    let mut ex = Executor::new(def, mode);
    ex.adopt_warm_container();
    let mut p = Percentiles::new();
    let straggler_p = match mode {
        ExecutorMode::Hot => 0.01,
        ExecutorMode::Warm => 0.06,
    };
    for _ in 0..reps {
        let t = ex.invoke(&params, size, size, 1.0).total();
        let mut us = t.as_micros_f64() * rng.jitter(params.jitter_rel_std);
        if rng.chance(straggler_p) {
            us += rng.exponential(t.as_micros_f64() * 0.8);
        }
        p.push(us);
    }
    p
}

/// The four latency distributions at one message size.
struct Dists {
    size: usize,
    busy: Percentiles,
    wait: Percentiles,
    hot: Percentiles,
    warm: Percentiles,
}

impl Dists {
    /// Median and p95 of each series (sorts all four distributions).
    fn row(mut self) -> Row {
        Row {
            size: self.size,
            ugni_busy_med: self.busy.median(),
            ugni_busy_p95: self.busy.p95(),
            ugni_wait_med: self.wait.median(),
            ugni_wait_p95: self.wait.p95(),
            rfaas_hot_med: self.hot.median(),
            rfaas_hot_p95: self.hot.p95(),
            rfaas_warm_med: self.warm.median(),
            rfaas_warm_p95: self.warm.p95(),
        }
    }
}

/// Draws every size's four series in one fixed order, whatever the caller
/// reads; each caller summarises only the sizes it uses.
fn compute(sim: &mut Simulation, params: &Params) -> Vec<Dists> {
    let reps = params.usize("reps", 2000);
    let net = LogGpParams::ugni();
    let mut rng = sim.stream("fig7");
    fig7_sizes()
        .into_iter()
        .map(|size| Dists {
            size,
            busy: ping_pong(&net, CompletionMode::BusyPoll, size, reps, &mut rng),
            wait: ping_pong(&net, CompletionMode::EventWait, size, reps, &mut rng),
            hot: rfaas_distribution(ExecutorMode::Hot, size, reps, &mut rng),
            warm: rfaas_distribution(ExecutorMode::Warm, size, reps, &mut rng),
        })
        .collect()
}

pub struct Fig07Latency;

impl Scenario for Fig07Latency {
    fn name(&self) -> &'static str {
        "fig07_latency"
    }

    fn title(&self) -> &'static str {
        "rFaaS invocation latency vs libfabric (uGNI), 1 B – 4 KiB"
    }

    fn default_params(&self) -> Params {
        Params::new().with("reps", 2000u64)
    }

    fn run(&self, sim: &mut Simulation, params: &Params) -> Metrics {
        let mut dists = compute(sim, params);
        let large = dists.pop().unwrap().row();
        let small = dists.swap_remove(0).row();
        let mut m = Metrics::new();
        m.push("ugni_busy_med_1b_us", small.ugni_busy_med);
        m.push("ugni_wait_med_1b_us", small.ugni_wait_med);
        m.push("rfaas_hot_med_1b_us", small.rfaas_hot_med);
        m.push("rfaas_hot_p95_1b_us", small.rfaas_hot_p95);
        m.push("rfaas_warm_med_1b_us", small.rfaas_warm_med);
        m.push(
            "hot_overhead_1b_us",
            small.rfaas_hot_med - small.ugni_busy_med,
        );
        m.push("ugni_busy_med_4k_us", large.ugni_busy_med);
        m.push("rfaas_hot_med_4k_us", large.rfaas_hot_med);
        m
    }

    fn report(&self) {
        let seed = REPORT_SEED;
        let params = self.default_params();
        let reps = params.usize("reps", 2000);
        banner("FIG7", self.title());
        println!("seed = {seed}; {reps} repetitions per point; values in µs");

        let mut sim = Simulation::new(seed);
        let rows: Vec<Row> = compute(&mut sim, &params)
            .into_iter()
            .map(Dists::row)
            .collect();

        print_table(
            "Fig. 7 — median (p95) invocation latency [µs]",
            &[
                "size [B]",
                "uGNI busy poll",
                "uGNI queue wait",
                "rFaaS hot",
                "rFaaS warm",
            ],
            &rows
                .iter()
                .map(|r| {
                    vec![
                        r.size.to_string(),
                        format!("{} ({})", fmt(r.ugni_busy_med), fmt(r.ugni_busy_p95)),
                        format!("{} ({})", fmt(r.ugni_wait_med), fmt(r.ugni_wait_p95)),
                        format!("{} ({})", fmt(r.rfaas_hot_med), fmt(r.rfaas_hot_p95)),
                        format!("{} ({})", fmt(r.rfaas_warm_med), fmt(r.rfaas_warm_p95)),
                    ]
                })
                .collect::<Vec<_>>(),
        );

        // Shape checks the paper emphasises.
        let small = &rows[0];
        let hot_overhead = small.rfaas_hot_med - small.ugni_busy_med;
        println!("\nshape checks (paper's qualitative claims):");
        println!(
            "  hot ≈ bare-metal transport: overhead at 1 B = {} µs ({}%)",
            fmt(hot_overhead),
            fmt(100.0 * hot_overhead / small.ugni_busy_med)
        );
        println!(
            "  warm > hot by the wakeup penalty: {} µs vs {} µs at 1 B",
            fmt(small.rfaas_warm_med),
            fmt(small.rfaas_hot_med)
        );
        println!(
            "  single-digit µs hot invocations: median at 1 B = {} µs",
            fmt(small.rfaas_hot_med)
        );
        assert!(
            small.rfaas_hot_med < 12.0,
            "hot path must stay microsecond-scale"
        );
        assert!(small.rfaas_warm_med > small.rfaas_hot_med);

        // Sanity: monotone growth with size for the busy-poll series.
        let t = SimTime::from_micros_f64(rows.last().unwrap().ugni_busy_med);
        assert!(t > SimTime::from_micros_f64(rows[0].ugni_busy_med));

        write_json("fig07_latency", &rows);
    }
}
