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
use gpu::{GpuAssignment, GpuDevice, GpuSharingPolicy, RodiniaBenchmark};
use interference::model::colocation_overhead_pct;
use interference::{NodeCapacity, WorkloadProfile};
use rfaas::gpu_exec::GpuFunction;

pub struct Entry {
    batch: String,
    bench: String,
    overhead_mean_pct: f64,
    overhead_std_pct: f64,
    gpu_runtime_ms: f64,
}

fn compute(sim: &mut Simulation, params: &Params) -> Vec<Entry> {
    let reps = params.usize("reps");
    let cap = NodeCapacity::daint_gpu();
    let mut rng = sim.stream("fig12");
    let mut gres = GpuAssignment::new(GpuSharingPolicy::ExclusiveDevice, 1);

    let victims: Vec<(String, interference::Demand, f64)> = FIG12_LULESH_BASELINES
        .iter()
        .map(|(size, base)| {
            // 9 ranks per GPU node.
            (
                format!("LULESH s={size}"),
                WorkloadProfile::lulesh(*size).on_node(9),
                *base,
            )
        })
        .chain(FIG12_MILC_BASELINES.iter().map(|(size, base)| {
            (
                format!("MILC {size}"),
                WorkloadProfile::milc(*size).on_node(11),
                *base,
            )
        }))
        .collect();

    let mut entries = Vec::new();
    for (holder, bench) in RodiniaBenchmark::ALL.iter().enumerate() {
        let mut f = GpuFunction::deploy(
            *bench,
            GpuDevice::p100(),
            &mut gres,
            holder as u32,
            holder as u64,
        )
        .expect("each bench gets its own virtual node");
        let gpu_time = f.invoke().total().as_millis_f64();
        let host_demand = f.host_demand();

        for (victim_name, victim, baseline) in &victims {
            let base = colocation_overhead_pct(&cap, victim, std::slice::from_ref(&host_demand));
            // Smaller problems are noisier (the paper's two outliers appear
            // only at LULESH size 15).
            let noise = 2.2 * (40.0 / baseline).sqrt();
            let mut stats = OnlineStats::new();
            for _ in 0..reps {
                stats.push(base + rng.normal(0.0, noise));
            }
            entries.push(Entry {
                batch: victim_name.clone(),
                bench: bench.name().to_string(),
                overhead_mean_pct: stats.mean(),
                overhead_std_pct: stats.std_dev(),
                gpu_runtime_ms: gpu_time,
            });
        }
    }
    entries
}

/// (mean over large LULESH entries, mean over MILC entries).
fn headline_means(entries: &[Entry]) -> (f64, f64) {
    let lulesh_large: Vec<f64> = entries
        .iter()
        .filter(|e| e.batch.starts_with("LULESH") && !e.batch.ends_with("15"))
        .map(|e| e.overhead_mean_pct)
        .collect();
    let mean_large = lulesh_large.iter().sum::<f64>() / lulesh_large.len() as f64;
    let milc: Vec<f64> = entries
        .iter()
        .filter(|e| e.batch.starts_with("MILC"))
        .map(|e| e.overhead_mean_pct)
        .collect();
    let milc_mean = milc.iter().sum::<f64>() / milc.len() as f64;
    (mean_large, milc_mean)
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

    fn run(&self, sim: &mut Simulation, params: &Params) -> Metrics {
        let entries = compute(sim, params);
        let (mean_large, milc_mean) = headline_means(&entries);
        let max_gpu_ms = entries
            .iter()
            .map(|e| e.gpu_runtime_ms)
            .fold(f64::NEG_INFINITY, f64::max);
        let mut m = Metrics::new();
        m.push("lulesh_large_mean_overhead_pct", mean_large);
        m.push("milc_mean_overhead_pct", milc_mean);
        m.push("max_gpu_runtime_ms", max_gpu_ms);
        m.push("pairs_measured", entries.len() as f64);
        m
    }

    fn report(&self) {
        let seed = REPORT_SEED;
        let params = self.default_params();
        banner("FIG12", self.title());
        println!(
            "seed = {seed}; {} repetitions; LULESH 9/12 cores, MILC 11/12 cores per node\n",
            params.u64("reps")
        );
        let mut sim = Simulation::new(seed);
        let entries = compute(&mut sim, &params);

        for (prefix, title, note) in [
            (
                "LULESH",
                "Fig. 12a — slowdown of the LULESH batch job [%]",
                "paper: < 5% except two outliers (6.1%, 10.5%) at the smallest size",
            ),
            (
                "MILC",
                "Fig. 12b — slowdown of the MILC batch job [%]",
                "paper: slightly higher, smaller problem sizes perturbed more",
            ),
        ] {
            let victims_of: Vec<String> = {
                let mut v: Vec<String> = Vec::new();
                for e in entries.iter().filter(|e| e.batch.starts_with(prefix)) {
                    if !v.contains(&e.batch) {
                        v.push(e.batch.clone());
                    }
                }
                v
            };
            let mut headers = vec!["GPU benchmark".to_string()];
            headers.extend(victims_of.iter().cloned());
            let headers_ref: Vec<&str> = headers.iter().map(|s| s.as_str()).collect();
            let rows: Vec<Vec<String>> = RodiniaBenchmark::ALL
                .iter()
                .map(|b| {
                    let mut row = vec![b.name().to_string()];
                    for v in &victims_of {
                        let e = entries
                            .iter()
                            .find(|e| &e.batch == v && e.bench == b.name())
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
