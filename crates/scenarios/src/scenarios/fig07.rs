//! FIG7 — invocation latency of rFaaS vs raw libfabric (Fig. 7).
//!
//! Four series over message sizes 1 B – 4 KiB, median and 95th percentile:
//! uGNI busy-poll, uGNI queue-wait (the libfabric baselines), rFaaS hot and
//! rFaaS warm invocations of a no-op function.
//!
//! Each series at each message size is one [`RngStream::noisy_samples`]
//! draw of `reps` samples from its own named stream,
//! `fig7/{size}/{series}` (series `busy`, `wait`, `hot`, `warm`), so a series
//! is bit-identical whatever else is drawn. `run` draws only the six series
//! its metrics read (all four at 1 B, busy-poll and hot at 4 KiB); `report`
//! draws all 52 it prints.

use crate::report::{banner, fmt, print_table};
use crate::{Metrics, Params, Scenario, REPORT_SEED};
use des::{Percentiles, RngStream, SimTime, Simulation};
use fabric::microbench::{fig7_sizes, ping_pong};
use fabric::{CompletionMode, LogGpParams};
use rfaas::{Executor, ExecutorMode, FunctionRegistry};

/// Median and p95 of each series at one message size, in `Series::ALL`
/// order.
pub struct Row {
    size: usize,
    quantiles: [(f64, f64); 4],
}

impl Row {
    fn med(&self, series: Series) -> f64 {
        self.quantiles[series as usize].0
    }
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
    rng.noisy_samples(base, params.jitter_rel_std, rfaas_straggler_p(mode), reps)
}

/// One of Fig. 7's four latency series.
#[derive(Clone, Copy, Debug)]
enum Series {
    Busy,
    Wait,
    Hot,
    Warm,
}

impl Series {
    const ALL: [Series; 4] = [Series::Busy, Series::Wait, Series::Hot, Series::Warm];

    fn name(self) -> &'static str {
        match self {
            Series::Busy => "busy",
            Series::Wait => "wait",
            Series::Hot => "hot",
            Series::Warm => "warm",
        }
    }
}

/// `reps` latency samples of one series at one message size, drawn from its
/// own stream `fig7/{size}/{series}`.
fn draw(sim: &Simulation, size: usize, series: Series, reps: usize) -> Percentiles {
    let mut rng = sim.stream(&format!("fig7/{size}/{}", series.name()));
    let net = LogGpParams::ugni();
    match series {
        Series::Busy => ping_pong(&net, CompletionMode::BusyPoll, size, reps, &mut rng),
        Series::Wait => ping_pong(&net, CompletionMode::EventWait, size, reps, &mut rng),
        Series::Hot => rfaas_distribution(ExecutorMode::Hot, size, reps, &mut rng),
        Series::Warm => rfaas_distribution(ExecutorMode::Warm, size, reps, &mut rng),
    }
}

/// Median and p95 of all four series at one message size.
fn row(sim: &Simulation, size: usize, reps: usize) -> Row {
    let quantiles = Series::ALL.map(|series| {
        let mut p = draw(sim, size, series, reps);
        (p.median(), p.p95())
    });
    Row { size, quantiles }
}

/// The eight metrics: medians of all four series and p95 of hot at 1 B
/// (`small`), and the 4 KiB busy-poll and hot medians.
fn metrics(small: &Row, busy_med_4k: f64, hot_med_4k: f64) -> Metrics {
    let mut m = Metrics::new();
    m.push("ugni_busy_med_1b_us", small.med(Series::Busy));
    m.push("ugni_wait_med_1b_us", small.med(Series::Wait));
    m.push("rfaas_hot_med_1b_us", small.med(Series::Hot));
    m.push(
        "rfaas_hot_p95_1b_us",
        small.quantiles[Series::Hot as usize].1,
    );
    m.push("rfaas_warm_med_1b_us", small.med(Series::Warm));
    m.push(
        "hot_overhead_1b_us",
        small.med(Series::Hot) - small.med(Series::Busy),
    );
    m.push("ugni_busy_med_4k_us", busy_med_4k);
    m.push("rfaas_hot_med_4k_us", hot_med_4k);
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

    /// All four 1 B series and the 4 KiB busy-poll and hot ones: six series
    /// drawn.
    fn run(&self, sim: &mut Simulation, params: &Params) -> Metrics {
        let reps = params.usize("reps");
        let sizes = fig7_sizes();
        let (small, large) = (sizes[0], sizes[sizes.len() - 1]);
        let median_4k = |series| draw(sim, large, series, reps).median();
        metrics(
            &row(sim, small, reps),
            median_4k(Series::Busy),
            median_4k(Series::Hot),
        )
    }

    fn report(&self) {
        let seed = REPORT_SEED;
        let params = self.default_params();
        let reps = params.usize("reps");
        banner("FIG7", self.title());
        println!("seed = {seed}; {reps} repetitions per point; values in µs");

        let sim = Simulation::new(seed);
        let rows: Vec<Row> = fig7_sizes()
            .into_iter()
            .map(|size| row(&sim, size, reps))
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
                    let cells = r.quantiles.iter();
                    let cells = cells.map(|&(med, p95)| format!("{} ({})", fmt(med), fmt(p95)));
                    std::iter::once(r.size.to_string()).chain(cells).collect()
                })
                .collect::<Vec<_>>(),
        );

        // Shape checks the paper emphasises.
        let small = &rows[0];
        let (busy, hot, warm) = (
            small.med(Series::Busy),
            small.med(Series::Hot),
            small.med(Series::Warm),
        );
        let hot_overhead = hot - busy;
        println!("\nshape checks (paper's qualitative claims):");
        println!(
            "  hot ≈ bare-metal transport: overhead at 1 B = {} µs ({}%)",
            fmt(hot_overhead),
            fmt(100.0 * hot_overhead / busy)
        );
        println!(
            "  warm > hot by the wakeup penalty: {} µs vs {} µs at 1 B",
            fmt(warm),
            fmt(hot)
        );
        println!(
            "  single-digit µs hot invocations: median at 1 B = {} µs",
            fmt(hot)
        );
        assert!(hot < 12.0, "hot path must stay microsecond-scale");
        assert!(warm > hot);

        // Sanity: monotone growth with size for the busy-poll series.
        let t = SimTime::from_micros_f64(rows.last().unwrap().med(Series::Busy));
        assert!(t > SimTime::from_micros_f64(busy));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `run` draws six series (the 4 KiB busy-poll and hot ones among them),
    /// and any one series may be drawn alone; each must be bit-identical to
    /// its place in the all-series rows.
    #[test]
    fn run_matches_the_all_sizes_draw() {
        for reps in [1u64, 7, 2000] {
            let params = Fig07Latency.default_params().with("reps", reps);
            for seed in 1..=20 {
                let sim = Simulation::new(seed);
                let all: Vec<Row> = fig7_sizes()
                    .into_iter()
                    .map(|size| row(&sim, size, reps as usize))
                    .collect();
                assert_eq!(all.len(), fig7_sizes().len());

                let at_64 = all.iter().find(|r| r.size == 64).unwrap();
                for series in Series::ALL {
                    let mut alone = draw(&sim, 64, series, reps as usize);
                    let (med, p95) = at_64.quantiles[series as usize];
                    assert!(
                        alone.median().to_bits() == med.to_bits()
                            && alone.p95().to_bits() == p95.to_bits(),
                        "seed {seed}, reps {reps}: 64 B {series:?} drawn alone differs from its row"
                    );
                }

                let run = Fig07Latency.run(&mut Simulation::new(seed), &params);
                let large = all.last().unwrap();
                let drawn = metrics(&all[0], large.med(Series::Busy), large.med(Series::Hot));
                assert_eq!(run.len(), 8);
                assert!(
                    run.bits_eq(&drawn),
                    "seed {seed}, reps {reps}: run {run:?} vs all-series draw {drawn:?}"
                );
            }
        }
    }
}
