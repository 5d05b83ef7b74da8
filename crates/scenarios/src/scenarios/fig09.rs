//! FIG9 — overheads of batch jobs co-located with FaaS-like jobs sharing
//! CPUs on idle cores (Fig. 9a–c).
//!
//! Setup mirrors the paper: LULESH with 64 MPI ranks on 2 nodes (32 of 36
//! cores each) or MILC with 64 ranks, co-located with one NAS configuration
//! (BT A 4, BT W 1, CG B 8, EP B 2, LU A 4, MG W 1) whose ranks are spread
//! evenly across the two nodes. Ten repetitions with measurement noise;
//! reported as mean ± std of the runtime overhead in percent.

use crate::paper::{FIG9_NAS, LULESH_BASELINES, MILC_BASELINES};
use crate::report::{banner, fmt, noisy_mean_std, pm, print_table};
use crate::{Metrics, Params, Scenario, REPORT_SEED};
use des::Simulation;
use interference::model::{colocation_overhead_pct, slowdowns, solo_slowdown};
use interference::{Demand, NasClass, NasKernel, NodeCapacity, WorkloadProfile};

fn nas_profile(kernel: &str, class: &str) -> WorkloadProfile {
    let k = match kernel {
        "BT" => NasKernel::Bt,
        "CG" => NasKernel::Cg,
        "EP" => NasKernel::Ep,
        "LU" => NasKernel::Lu,
        "MG" => NasKernel::Mg,
        _ => panic!("unknown kernel"),
    };
    let c = match class {
        "W" => NasClass::W,
        "A" => NasClass::A,
        "B" => NasClass::B,
        _ => panic!("unknown class"),
    };
    WorkloadProfile::nas(k, c)
}

pub struct Entry {
    batch: String,
    nas: String,
    batch_overhead_mean_pct: f64,
    batch_overhead_std_pct: f64,
    nas_overhead_mean_pct: f64,
    nas_overhead_std_pct: f64,
}

fn compute(sim: &mut Simulation, params: &Params) -> Vec<Entry> {
    let reps = params.usize("reps");
    let cap = NodeCapacity::daint_mc();
    let mut rng = sim.stream("fig9");
    let mut entries = Vec::new();

    // The per-node victim demand: 32 ranks of LULESH or MILC.
    let victims: Vec<(String, Demand)> = LULESH_BASELINES
        .iter()
        .map(|(size, _)| {
            let p = WorkloadProfile::lulesh(*size);
            (p.name.clone(), p.on_node(32))
        })
        .chain(
            MILC_BASELINES
                .iter()
                .filter(|(s, _)| *s >= 96)
                .map(|(size, _)| {
                    let p = WorkloadProfile::milc(*size);
                    (p.name.clone(), p.on_node(32))
                }),
        )
        .collect();

    for (kernel, class, ranks, nas_baseline_s) in FIG9_NAS {
        let nas = nas_profile(kernel, class);
        // NAS ranks spread across the two nodes; at least one per node.
        let ranks_per_node = (ranks as f64 / 2.0).ceil() as u32;
        let aggressor = nas.on_node(ranks_per_node);

        for (victim_name, victim) in &victims {
            let batch_over =
                colocation_overhead_pct(&cap, victim, std::slice::from_ref(&aggressor));
            // The NAS job's own slowdown relative to running alone on the node.
            let both = slowdowns(&cap, &[victim.clone(), aggressor.clone()]);
            let alone = solo_slowdown(&cap, &aggressor);
            let nas_over = 100.0 * (both[1] / alone - 1.0);

            let (bm, bs) = noisy_mean_std(batch_over, &mut rng, reps, 1.2);
            // Short NAS runs show much larger run-to-run noise (Fig. 9b's
            // ±20-40% error bars), scaled by 1/sqrt(runtime).
            let nas_noise = 6.0 / nas_baseline_s.sqrt().max(0.25);
            let (nm, ns) = noisy_mean_std(nas_over, &mut rng, reps, nas_noise * 3.0);
            entries.push(Entry {
                batch: victim_name.clone(),
                nas: format!("({kernel}, {class}, {ranks})"),
                batch_overhead_mean_pct: bm,
                batch_overhead_std_pct: bs,
                nas_overhead_mean_pct: nm,
                nas_overhead_std_pct: ns,
            });
        }
    }
    entries
}

fn lulesh_milc_max(entries: &[Entry]) -> (f64, f64) {
    let lulesh_max = entries
        .iter()
        .filter(|e| e.batch.starts_with("LULESH"))
        .map(|e| e.batch_overhead_mean_pct)
        .fold(0.0f64, f64::max);
    let milc_max = entries
        .iter()
        .filter(|e| e.batch.starts_with("MILC"))
        .map(|e| e.batch_overhead_mean_pct)
        .fold(0.0f64, f64::max);
    (lulesh_max, milc_max)
}

pub struct Fig09CpuSharing;

impl Scenario for Fig09CpuSharing {
    fn name(&self) -> &'static str {
        "fig09_cpu_sharing"
    }

    fn title(&self) -> &'static str {
        "CPU-sharing overheads: LULESH / MILC vs co-located NAS"
    }

    fn default_params(&self) -> Params {
        Params::new().with("reps", 10u64)
    }

    fn run(&self, sim: &mut Simulation, params: &Params) -> Metrics {
        let entries = compute(sim, params);
        let (lulesh_max, milc_max) = lulesh_milc_max(&entries);
        let nas_max = entries
            .iter()
            .map(|e| e.nas_overhead_mean_pct)
            .fold(f64::NEG_INFINITY, f64::max);
        let mut m = Metrics::new();
        m.push("lulesh_max_overhead_pct", lulesh_max);
        m.push("milc_max_overhead_pct", milc_max);
        m.push("nas_max_overhead_pct", nas_max);
        m.push("pairs_measured", entries.len() as f64);
        m
    }

    fn report(&self) {
        let seed = REPORT_SEED;
        let params = self.default_params();
        banner("FIG9", self.title());
        println!(
            "seed = {seed}; {} repetitions; mean ± std in percent\n",
            params.u64("reps")
        );
        let mut sim = Simulation::new(seed);
        let entries = compute(&mut sim, &params);

        // Fig. 9a: LULESH slowdown table.
        for (prefix, title, paper_note) in [
            (
                "LULESH",
                "Fig. 9a — slowdown of the LULESH batch job [%]",
                "paper: within ±4% (measurement noise)",
            ),
            (
                "MILC",
                "Fig. 9c — slowdown of the MILC batch job [%]",
                "paper: up to ~10-20%, larger for bigger problems",
            ),
        ] {
            let mut headers = vec!["co-located NAS".to_string()];
            let mut sizes: Vec<&String> = entries
                .iter()
                .filter(|e| e.batch.starts_with(prefix))
                .map(|e| &e.batch)
                .collect();
            sizes.dedup();
            headers.extend(sizes.iter().map(|s| s.to_string()));
            let nas_configs: Vec<String> = {
                let mut v: Vec<String> = entries.iter().map(|e| e.nas.clone()).collect();
                v.dedup();
                v
            };
            let rows: Vec<Vec<String>> = nas_configs
                .iter()
                .map(|nc| {
                    let mut row = vec![nc.clone()];
                    for size in &sizes {
                        let e = entries
                            .iter()
                            .find(|e| &&e.batch == size && &e.nas == nc)
                            .expect("entry");
                        row.push(pm(e.batch_overhead_mean_pct, e.batch_overhead_std_pct));
                    }
                    row
                })
                .collect();
            let headers_ref: Vec<&str> = headers.iter().map(|s| s.as_str()).collect();
            print_table(title, &headers_ref, &rows);
            println!("{paper_note}");
        }

        // Fig. 9b: the co-located FaaS-like app's own slowdown (vs LULESH-20).
        let rows: Vec<Vec<String>> = entries
            .iter()
            .filter(|e| e.batch == "LULESH-s20")
            .map(|e| {
                vec![
                    e.nas.clone(),
                    pm(e.nas_overhead_mean_pct, e.nas_overhead_std_pct),
                ]
            })
            .collect();
        print_table(
            "Fig. 9b — slowdown of the co-located FaaS-like NAS job [%] (vs LULESH s=20)",
            &["NAS config", "overhead"],
            &rows,
        );
        println!("paper: up to ±40% for the short-running NAS side");

        // Shape assertions.
        let (lulesh_max, milc_max) = lulesh_milc_max(&entries);
        println!(
            "\nshape: max LULESH overhead {}% (paper ≤ ~7%), max MILC overhead {}% (paper ≤ ~20%)",
            fmt(lulesh_max),
            fmt(milc_max)
        );
        assert!(lulesh_max < 10.0, "LULESH must stay nearly unaffected");
        assert!(milc_max > lulesh_max, "MILC is the more sensitive victim");
        assert!(milc_max < 35.0, "MILC perturbation stays moderate");
    }
}
