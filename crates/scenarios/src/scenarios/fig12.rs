//! FIG12 — overheads of batch jobs sharing GPU nodes with GPU functions
//! (Fig. 12a–b).
//!
//! Setup mirrors the paper: LULESH (27 ranks, 9 of 12 cores on each of 3
//! Piz Daint GPU nodes) or MILC (32 ranks as 11/11/10) runs CPU-only while
//! Rodinia GPU benchmarks execute as functions bound to one of the remaining
//! cores, feeding the otherwise idle P100.

use crate::paper::{FIG12_LULESH_BASELINES, FIG12_MILC_BASELINES};
use crate::report::{banner, fmt, pm, print_table};
use crate::{Metrics, Params, Scenario, REPORT_SEED};
use des::{OnlineStats, Simulation};
use gpu::{GpuAssignment, RodiniaBenchmark};
use interference::model::colocation_overhead_pct;
use interference::{NodeCapacity, WorkloadProfile};
use rfaas::gpu_exec::GpuFunction;

/// The batch job a GPU function shares its nodes with: an app and its
/// problem size.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Batch {
    Lulesh(u32),
    Milc(u32),
}

impl Batch {
    fn name(self) -> String {
        match self {
            Batch::Lulesh(size) => format!("LULESH s={size}"),
            Batch::Milc(size) => format!("MILC {size}"),
        }
    }

    /// LULESH's smallest size, where the paper's two outliers sit: only
    /// `report` prints its rows, and no metric reads them.
    fn is_smallest_lulesh(self) -> bool {
        self == Batch::Lulesh(FIG12_LULESH_BASELINES[0].0)
    }
}

pub struct Entry {
    batch: Batch,
    bench: String,
    overhead_mean_pct: f64,
    overhead_std_pct: f64,
    gpu_runtime_ms: f64,
}

/// The Rodinia × batch rows, `reps` overhead samples each, all from the
/// one stream `fig12`: bench-major, but the smallest LULESH size's rows
/// last, so that without them (`with_smallest_lulesh = false`) every other
/// row is bit-identical and nothing is drawn for them.
fn compute(sim: &Simulation, params: &Params, with_smallest_lulesh: bool) -> Vec<Entry> {
    let reps = params.usize("reps");
    let cap = NodeCapacity::daint_gpu();
    let mut rng = sim.stream("fig12");
    let mut gres = GpuAssignment::new(1);

    let victims: Vec<(Batch, interference::Demand, f64)> = FIG12_LULESH_BASELINES
        .iter()
        .map(|&(size, base)| {
            // 9 ranks per GPU node.
            (
                Batch::Lulesh(size),
                WorkloadProfile::lulesh(size).on_node(9),
                base,
            )
        })
        .chain(FIG12_MILC_BASELINES.iter().map(|&(size, base)| {
            (
                Batch::Milc(size),
                WorkloadProfile::milc(size).on_node(11),
                base,
            )
        }))
        .collect();

    // (bench, GPU runtime, host-side demand) of each GPU function.
    let functions: Vec<(RodiniaBenchmark, f64, interference::Demand)> = RodiniaBenchmark::ALL
        .iter()
        .zip(0..)
        .map(|(&bench, node)| {
            let mut f = GpuFunction::deploy(bench, &mut gres, node)
                .expect("each bench gets its own virtual node");
            (bench, f.invoke().total().as_millis_f64(), f.host_demand())
        })
        .collect();

    let rows = || {
        functions
            .iter()
            .flat_map(|function| victims.iter().map(move |victim| (function, victim)))
    };
    let read = rows().filter(|(_, (batch, ..))| !batch.is_smallest_lulesh());
    let unread =
        rows().filter(|(_, (batch, ..))| with_smallest_lulesh && batch.is_smallest_lulesh());

    read.chain(unread)
        .map(
            |((bench, gpu_time, host_demand), (batch, victim, baseline))| {
                let base = colocation_overhead_pct(&cap, victim, std::slice::from_ref(host_demand));
                // Smaller problems are noisier (the paper's two outliers appear
                // only at LULESH size 15).
                let noise = 2.2 * (40.0 / baseline).sqrt();
                let mut stats = OnlineStats::new();
                for _ in 0..reps {
                    stats.push(base + rng.normal(0.0, noise));
                }
                Entry {
                    batch: *batch,
                    bench: bench.name().to_string(),
                    overhead_mean_pct: stats.mean(),
                    overhead_std_pct: stats.std_dev(),
                    gpu_runtime_ms: *gpu_time,
                }
            },
        )
        .collect()
}

/// (mean over large LULESH entries, mean over MILC entries).
fn headline_means(entries: &[Entry]) -> (f64, f64) {
    let lulesh_large: Vec<f64> = entries
        .iter()
        .filter(|e| matches!(e.batch, Batch::Lulesh(_)) && !e.batch.is_smallest_lulesh())
        .map(|e| e.overhead_mean_pct)
        .collect();
    let mean_large = lulesh_large.iter().sum::<f64>() / lulesh_large.len() as f64;
    let milc: Vec<f64> = entries
        .iter()
        .filter(|e| matches!(e.batch, Batch::Milc(_)))
        .map(|e| e.overhead_mean_pct)
        .collect();
    let milc_mean = milc.iter().sum::<f64>() / milc.len() as f64;
    (mean_large, milc_mean)
}

/// The four metrics, from rows with or without the smallest LULESH size;
/// `pairs_measured` counts every Rodinia × batch pair of the experiment.
fn metrics(entries: &[Entry]) -> Metrics {
    let (mean_large, milc_mean) = headline_means(entries);
    let max_gpu_ms = entries
        .iter()
        .map(|e| e.gpu_runtime_ms)
        .fold(f64::NEG_INFINITY, f64::max);
    let pairs =
        RodiniaBenchmark::ALL.len() * (FIG12_LULESH_BASELINES.len() + FIG12_MILC_BASELINES.len());
    let mut m = Metrics::new();
    m.push("lulesh_large_mean_overhead_pct", mean_large);
    m.push("milc_mean_overhead_pct", milc_mean);
    m.push("max_gpu_runtime_ms", max_gpu_ms);
    m.push("pairs_measured", pairs as f64);
    m
}

pub struct Fig12GpuSharing;

impl Scenario for Fig12GpuSharing {
    fn name(&self) -> &'static str {
        "fig12_gpu_sharing"
    }

    fn title(&self) -> &'static str {
        "GPU-function co-location overheads (Rodinia on idle P100s)"
    }

    fn default_params(&self) -> Params {
        Params::new().with("reps", 10u64)
    }

    /// Every row but the smallest LULESH size's.
    fn run(&self, sim: &mut Simulation, params: &Params) -> Metrics {
        metrics(&compute(sim, params, false))
    }

    fn report(&self) {
        let seed = REPORT_SEED;
        let params = self.default_params();
        banner("FIG12", self.title());
        println!(
            "seed = {seed}; {} repetitions; LULESH 9/12 cores, MILC 11/12 cores per node\n",
            params.u64("reps")
        );
        let entries = compute(&Simulation::new(seed), &params, true);

        let lulesh = FIG12_LULESH_BASELINES.map(|(size, _)| Batch::Lulesh(size));
        let milc = FIG12_MILC_BASELINES.map(|(size, _)| Batch::Milc(size));
        for (batches, title, note) in [
            (
                lulesh,
                "Fig. 12a — slowdown of the LULESH batch job [%]",
                "paper: < 5% except two outliers (6.1%, 10.5%) at the smallest size",
            ),
            (
                milc,
                "Fig. 12b — slowdown of the MILC batch job [%]",
                "paper: slightly higher, smaller problem sizes perturbed more",
            ),
        ] {
            let mut headers = vec!["GPU benchmark".to_string()];
            headers.extend(batches.iter().map(|b| b.name()));
            let headers_ref: Vec<&str> = headers.iter().map(|s| s.as_str()).collect();
            let rows: Vec<Vec<String>> = RodiniaBenchmark::ALL
                .iter()
                .map(|b| {
                    let mut row = vec![b.name().to_string()];
                    for &batch in &batches {
                        let e = entries
                            .iter()
                            .find(|e| e.batch == batch && e.bench == b.name())
                            .expect("entry");
                        row.push(pm(e.overhead_mean_pct, e.overhead_std_pct));
                    }
                    row
                })
                .collect();
            print_table(title, &headers_ref, &rows);
            println!("{note}");
        }

        println!("\nGPU function runtimes (first invocation, incl. H2D):");
        let mut seen = std::collections::HashSet::new();
        for e in &entries {
            if seen.insert(e.bench.clone()) {
                println!(
                    "  {}: {} ms (paper: 'a few hundred milliseconds')",
                    e.bench,
                    fmt(e.gpu_runtime_ms)
                );
            }
        }

        // Shape assertions.
        let (mean_large, milc_mean) = headline_means(&entries);
        assert!(
            mean_large < 5.0,
            "large LULESH stays under 5%: {mean_large}"
        );
        assert!(milc_mean > mean_large, "MILC feels the host pressure more");
        println!(
            "\nshape: LULESH(large) mean {}% < MILC mean {}%; 9/12-core request saves 25% core-hours",
            fmt(mean_large),
            fmt(milc_mean)
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `run` leaves out the smallest LULESH size's rows; its metrics must
    /// be bit-identical to the same metrics over all 48 rows.
    #[test]
    fn run_matches_the_all_rows_draw() {
        for reps in [1u64, 2, 10] {
            let params = Fig12GpuSharing.default_params().with("reps", reps);
            for seed in 1..=20 {
                let all = compute(&Simulation::new(seed), &params, true);
                assert_eq!(all.len(), 48);
                let drawn = metrics(&all);
                let run = Fig12GpuSharing.run(&mut Simulation::new(seed), &params);
                assert_eq!(run.get("pairs_measured"), Some(48.0));
                assert!(
                    run.bits_eq(&drawn),
                    "seed {seed}, reps {reps}: run {run:?} vs all-rows draw {drawn:?}"
                );
            }
        }
    }
}
