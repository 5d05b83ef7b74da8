//! FIG7 — invocation latency of rFaaS vs raw libfabric (Fig. 7).
//!
//! Four series over message sizes 1 B – 4 KiB, median and 95th percentile:
//! uGNI busy-poll, uGNI queue-wait (the libfabric baselines), rFaaS hot and
//! rFaaS warm invocations of a no-op function.
//!
//! Every sample is one [`RngStream::noisy`] draw from the job's `fig7`
//! stream, in a fixed order: size by size, the four series in the order
//! above, `reps` samples each. `run` reads only the 1 B and 4 KiB sizes;
//! the samples of the sizes between are passed over with
//! [`RngStream::skip_noisy`], which draws exactly the same words without
//! computing the sample. The summarised sizes therefore see the stream
//! where a full draw leaves it, and `run`'s metrics are bit-identical to
//! those of the all-sizes draw `report` prints.

use crate::report::{banner, fmt, print_table};
use crate::{Metrics, Params, Scenario, REPORT_SEED};
use des::{Percentiles, RngStream, SimTime, Simulation};
use fabric::microbench::{fig7_sizes, ping_pong, straggler_p};
use fabric::{CompletionMode, LogGpParams};
use rfaas::{Executor, ExecutorMode, FunctionRegistry};

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

/// Probability that one rFaaS invocation is a straggler.
fn rfaas_straggler_p(mode: ExecutorMode) -> f64 {
    match mode {
        ExecutorMode::Hot => 0.01,
        ExecutorMode::Warm => 0.06,
    }
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
    // A warm-adopted executor's invocation time does not change between
    // calls; only the noise around it does.
    let base = ex.invoke(&params, size, size, 1.0).total().as_micros_f64();
    let mut p = Percentiles::new();
    for _ in 0..reps {
        p.push(rng.noisy(base, params.jitter_rel_std, rfaas_straggler_p(mode)));
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

/// Draws every size's four series in one fixed order and summarises the
/// sizes in `keep`. Each sample of any other size is passed over with
/// [`RngStream::skip_noisy`] (same words, no sample computed), so the kept
/// sizes' distributions are bit-identical whatever else is kept.
fn compute(sim: &mut Simulation, params: &Params, keep: &[usize]) -> Vec<Dists> {
    let reps = params.usize("reps", 2000);
    let net = LogGpParams::ugni();
    let mut rng = sim.stream("fig7");
    let mut dists = Vec::with_capacity(keep.len());
    for size in fig7_sizes() {
        if keep.contains(&size) {
            dists.push(Dists {
                size,
                busy: ping_pong(&net, CompletionMode::BusyPoll, size, reps, &mut rng),
                wait: ping_pong(&net, CompletionMode::EventWait, size, reps, &mut rng),
                hot: rfaas_distribution(ExecutorMode::Hot, size, reps, &mut rng),
                warm: rfaas_distribution(ExecutorMode::Warm, size, reps, &mut rng),
            });
            continue;
        }
        for p in [
            straggler_p(CompletionMode::BusyPoll),
            straggler_p(CompletionMode::EventWait),
            rfaas_straggler_p(ExecutorMode::Hot),
            rfaas_straggler_p(ExecutorMode::Warm),
        ] {
            for _ in 0..reps {
                rng.skip_noisy(p);
            }
        }
    }
    dists
}

/// `run`'s eight metrics from the 1 B and 4 KiB rows.
fn metrics(small: &Row, large: &Row) -> Metrics {
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
        let sizes = fig7_sizes();
        let mut dists = compute(sim, params, &[sizes[0], sizes[sizes.len() - 1]]);
        let large = dists.pop().expect("4 KiB was kept").row();
        let small = dists.pop().expect("1 B was kept").row();
        metrics(&small, &large)
    }

    fn report(&self) {
        let seed = REPORT_SEED;
        let params = self.default_params();
        let reps = params.usize("reps", 2000);
        banner("FIG7", self.title());
        println!("seed = {seed}; {reps} repetitions per point; values in µs");

        let mut sim = Simulation::new(seed);
        let rows: Vec<Row> = compute(&mut sim, &params, &fig7_sizes())
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
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `run` summarises two sizes and skips the rest; its metrics must be
    /// bit-identical to the same two rows of the all-sizes draw.
    #[test]
    fn run_matches_the_all_sizes_draw() {
        for reps in [1u64, 7, 2000] {
            let params = Fig07Latency.default_params().with("reps", reps);
            for seed in 1..=20 {
                let run = Fig07Latency.run(&mut Simulation::new(seed), &params);
                let mut all = compute(&mut Simulation::new(seed), &params, &fig7_sizes());
                assert_eq!(all.len(), fig7_sizes().len());
                let large = all.pop().unwrap().row();
                let small = all.swap_remove(0).row();
                let drawn = metrics(&small, &large);
                assert_eq!(run.len(), 8);
                assert!(
                    run.bits_eq(&drawn),
                    "seed {seed}, reps {reps}: run {run:?} vs all-sizes draw {drawn:?}"
                );
            }
        }
    }
}
