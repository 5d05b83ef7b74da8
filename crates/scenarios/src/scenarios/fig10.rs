//! FIG10 — system utilization of co-located execution vs a partially
//! co-located ("ideal non-sharing") execution vs standard exclusive node
//! allocation (Fig. 10).
//!
//! Work package per row: one LULESH run (64 ranks, 32/36 cores × 2 nodes,
//! s = 20, 119 s) plus a stream of K = 12 NAS executions of the row's
//! configuration. Three schedules are compared:
//!
//! * **Disaggregation** — NAS runs as functions on the 4 spare cores of each
//!   LULESH node, `floor(8/ranks)` at a time, with modelled co-location
//!   overheads; billing follows the disaggregation policy.
//! * **Ideal non-sharing** — LULESH keeps its 2 nodes (billed for requested
//!   cores only), the NAS stream gets a third node exclusively, one
//!   execution at a time (billed used cores only).
//! * **Realistic** — the placement of "ideal" but with today's whole-node
//!   billing.

use crate::paper::{FIG10_CORE_HOURS, FIG10_ROWS, FIG10_TOTAL_TIME, FIG10_UTILISATION};
use crate::report::{banner, compare, fmt, print_table};
use crate::{Metrics, Params, Scenario};
use des::Simulation;
use interference::model::colocation_overhead_pct;
use interference::{NasClass, NasKernel, NodeCapacity, WorkloadProfile};

const LULESH_T: f64 = 119.0; // s, size 20, paper baseline
const LULESH_RANKS_PER_NODE: u32 = 32;
const NODE_CORES: f64 = 36.0;

fn nas(label: &str) -> (WorkloadProfile, u32, f64) {
    // (profile, ranks, serial runtime of the configuration)
    let (k, c, ranks) = match label {
        "BT.A" => (NasKernel::Bt, NasClass::A, 4),
        "BT.W" => (NasKernel::Bt, NasClass::W, 1),
        "CG.B" => (NasKernel::Cg, NasClass::B, 8),
        "EP.B" => (NasKernel::Ep, NasClass::B, 2),
        "LU.A" => (NasKernel::Lu, NasClass::A, 4),
        "MG.A" => (NasKernel::Mg, NasClass::A, 1),
        "MG.W" => (NasKernel::Mg, NasClass::W, 1),
        other => panic!("unknown row {other}"),
    };
    let p = WorkloadProfile::nas(k, c);
    let t = p.serial_runtime_s;
    (p, ranks, t)
}

pub struct Row {
    config: String,
    utilisation: [f64; 3],
    total_time: [f64; 3],
    core_hours: [f64; 3],
}

fn compute(_params: &Params) -> Vec<Row> {
    let cap = NodeCapacity::daint_mc();
    let lulesh = WorkloadProfile::lulesh(20);
    let lulesh_node = lulesh.on_node(LULESH_RANKS_PER_NODE);

    let mut rows = Vec::new();
    for label in FIG10_ROWS.iter() {
        let (nasp, ranks, t_nas) = nas(label);
        let ranks_per_node = (ranks as f64 / 2.0).ceil() as u32;
        let aggressor = nasp.on_node(ranks_per_node);

        // Disaggregation: one NAS execution at a time, its ranks spread over
        // the two LULESH nodes ("launch new executions as soon as the
        // previous ones finish"), so `ranks` spare cores stay busy for the
        // whole run. Both sides feel the modelled co-location overhead.
        let lulesh_over =
            colocation_overhead_pct(&cap, &lulesh_node, std::slice::from_ref(&aggressor)) / 100.0;
        let nas_over =
            colocation_overhead_pct(&cap, &aggressor, std::slice::from_ref(&lulesh_node)) / 100.0;
        let t_lulesh_d = LULESH_T * (1.0 + lulesh_over);
        let t_nas_d = t_nas * (1.0 + nas_over);
        // Executions completed while LULESH runs — this is the work package.
        let k = (t_lulesh_d / t_nas_d).floor().max(1.0);
        let time_d = t_lulesh_d;
        let util_d = (64.0 + f64::from(ranks)) / (2.0 * NODE_CORES);
        let ch_d = (64.0 * t_lulesh_d + f64::from(ranks) * k * t_nas_d) / 3600.0;

        // Ideal non-sharing: the same k executions run one at a time on a
        // third node; billing covers requested cores only. The stream takes
        // k·t_nas ≤ T_LULESH (no co-location slowdown), so LULESH bounds the
        // makespan.
        let nas_stream_i = k * t_nas;
        let time_i = LULESH_T.max(nas_stream_i);
        let util_i = (64.0 + f64::from(ranks)) / (2.0 * NODE_CORES + f64::from(ranks));
        let ch_i = (64.0 * LULESH_T + f64::from(ranks) * nas_stream_i) / 3600.0;

        // Realistic: same placement, whole nodes billed.
        let time_r = time_i;
        let util_r = (64.0 + f64::from(ranks)) / (3.0 * NODE_CORES);
        let ch_r = (2.0 * NODE_CORES * LULESH_T + NODE_CORES * nas_stream_i) / 3600.0;

        rows.push(Row {
            config: label.to_string(),
            utilisation: [util_d, util_i, util_r],
            total_time: [time_d / time_i, 1.0, time_r / time_i],
            core_hours: [ch_d / ch_i, 1.0, ch_r / ch_i],
        });
    }
    rows
}

fn best_improvement_pct(rows: &[Row]) -> f64 {
    rows.iter()
        .map(|r| 100.0 * (r.utilisation[0] / r.utilisation[2] - 1.0))
        .fold(0.0f64, f64::max)
}

pub struct Fig10Utilization;

impl Scenario for Fig10Utilization {
    fn name(&self) -> &'static str {
        "fig10_utilization"
    }

    fn title(&self) -> &'static str {
        "System utilization: disaggregation vs ideal non-sharing vs realistic"
    }

    fn run(&self, _sim: &mut Simulation, params: &Params) -> Metrics {
        let rows = compute(params);
        let n = rows.len() as f64;
        let mean =
            |idx: usize, f: fn(&Row) -> [f64; 3]| rows.iter().map(|r| f(r)[idx]).sum::<f64>() / n;
        let mut m = Metrics::new();
        m.push("best_util_improvement_pct", best_improvement_pct(&rows));
        m.push("mean_util_disaggregation", mean(0, |r| r.utilisation));
        m.push("mean_util_ideal", mean(1, |r| r.utilisation));
        m.push("mean_util_realistic", mean(2, |r| r.utilisation));
        m.push("mean_core_hours_realistic_rel", mean(2, |r| r.core_hours));
        m.push("max_total_time_disagg_rel", {
            rows.iter()
                .map(|r| r.total_time[0])
                .fold(f64::NEG_INFINITY, f64::max)
        });
        m
    }

    fn report(&self) {
        banner("FIG10", self.title());
        let rows = compute(&self.default_params());

        for (metric, ours, paper) in [
            (
                "Mean utilisation",
                rows.iter().map(|r| r.utilisation).collect::<Vec<_>>(),
                FIG10_UTILISATION,
            ),
            (
                "Total time (rel. to ideal)",
                rows.iter().map(|r| r.total_time).collect::<Vec<_>>(),
                FIG10_TOTAL_TIME,
            ),
            (
                "Core hours (rel. to ideal)",
                rows.iter().map(|r| r.core_hours).collect::<Vec<_>>(),
                FIG10_CORE_HOURS,
            ),
        ] {
            let table: Vec<Vec<String>> = FIG10_ROWS
                .iter()
                .enumerate()
                .map(|(i, label)| {
                    vec![
                        label.to_string(),
                        compare(paper[i][0], ours[i][0]),
                        compare(paper[i][1], ours[i][1]),
                        compare(paper[i][2], ours[i][2]),
                    ]
                })
                .collect();
            print_table(
                &format!("Fig. 10 — {metric} (paper vs ours)"),
                &["config", "Disaggregation", "Ideal non-sharing", "Realistic"],
                &table,
            );
        }

        // Headline: utilization improvement of disaggregation over realistic.
        let best = best_improvement_pct(&rows);
        println!(
            "\nheadline: up to {}% utilization improvement over exclusive allocation (paper: up to 52%)",
            fmt(best)
        );

        println!("note: our 'total time' reflects only the co-location overhead; the paper's");
        println!("      sub-1.0 disaggregation times additionally include batch-queue waits that");
        println!("      exclusive NAS jobs suffer and co-located functions skip.");
        for r in &rows {
            assert!(
                r.utilisation[0] > r.utilisation[1] && r.utilisation[1] > r.utilisation[2],
                "{}: disaggregation > ideal > realistic must hold",
                r.config
            );
            assert!(
                r.core_hours[2] > 1.15,
                "realistic billing wastes core-hours"
            );
            assert!(r.total_time[0] <= 1.06, "disaggregation never much slower");
        }
        assert!(best > 35.0, "headline improvement in the paper's ballpark");
    }
}
