//! FIG11 — overhead of batch jobs co-located with rFaaS functions providing
//! remote memory (Fig. 11a–c).
//!
//! Setup mirrors the paper (Ault nodes): the memory-service function pins
//! 1 GB and serves 10 MB one-sided reads/writes at intervals from 1 ms to
//! 500 ms while LULESH (27 or 125 ranks) or MILC (32 ranks) runs on the
//! remaining cores. Ten repetitions with measurement noise.
//!
//! The functional check deploys that 1 GB service and connects through DRC.
//! It times one 10 MB write and read with the timing-only one-sided op (same
//! checks and duration as the real verbs) and moves one real 4 KiB page
//! through the region, so no job allocates, faults in or copies 10 MB.

use crate::paper::FIG11_INTERVALS_MS;
use crate::report::{banner, fmt, pm, print_table};
use crate::{Metrics, Params, Scenario, REPORT_SEED};
use des::{OnlineStats, Simulation};
use fabric::{Fabric, JobToken, NodeId, RdmaOp, Transport};
use interference::model::colocation_overhead_pct;
use interference::{NodeCapacity, WorkloadProfile};
use rfaas::memservice::{MemoryServiceFunction, RemoteMemoryClient};

/// Size of one memory-service transfer in the paper's setup (10 MB).
const TRANSFER: usize = 10 << 20;

pub struct Series {
    victim: String,
    op: String,
    interval_ms: Vec<f64>,
    overhead_mean_pct: Vec<f64>,
    overhead_std_pct: Vec<f64>,
}

pub struct Output {
    write_gbps: f64,
    write_us: String,
    read_us: String,
    series: Vec<Series>,
}

fn compute(sim: &mut Simulation, params: &Params) -> Output {
    let reps = params.usize("reps");
    let cap = NodeCapacity::ault();
    let mut rng = sim.stream("fig11");

    // Functional check (see the module docs): the metrics read only the
    // 10 MB durations, so those are timed; one real page is moved.
    let mut fabric = Fabric::new(Transport::IbVerbs);
    let svc = MemoryServiceFunction::deploy(&mut fabric, NodeId(1), 1 << 30, JobToken(1));
    let (mut client, _) = RemoteMemoryClient::connect(&mut fabric, &svc, JobToken(2)).unwrap();
    let write_t = client
        .time(&mut fabric, 0, TRANSFER, RdmaOp::Write)
        .unwrap();
    let read_t = client.time(&mut fabric, 0, TRANSFER, RdmaOp::Read).unwrap();
    let page = [7u8; 4096];
    client.write(&mut fabric, 0, &page).unwrap();
    let (back, _) = client.read(&mut fabric, 0, page.len()).unwrap();
    assert_eq!(&back[..], &page[..], "the memory service lost a page");
    let write_gbps = TRANSFER as f64 / write_t.as_secs_f64() / 1e9;
    svc.teardown(&mut fabric);

    // Single-node runs (27 or 32 ranks on one Ault node) communicate through
    // shared memory, not the NIC — fold the communication sensitivity into
    // the memory fraction. This is exactly why the paper observes the
    // perturbation to be independent of the transfer rate.
    let single_node = |mut d: interference::Demand| {
        d.mem_frac += d.net_frac;
        d.net_frac = 0.0;
        d.net_bps = 0.0;
        d
    };
    let victims: Vec<(String, interference::Demand)> = vec![
        (
            "LULESH 27 ranks".into(),
            single_node(WorkloadProfile::lulesh(20).on_node(27)),
        ),
        (
            "LULESH 125 ranks (32/node)".into(),
            single_node(WorkloadProfile::lulesh(20).on_node(32)),
        ),
        (
            "MILC 32 ranks".into(),
            single_node(WorkloadProfile::milc(128).on_node(32)),
        ),
    ];

    let mut series = Vec::new();
    for (victim_name, victim) in &victims {
        for op in ["read", "write"] {
            let mut means = Vec::new();
            let mut stds = Vec::new();
            for &interval in &FIG11_INTERVALS_MS {
                let memsvc = WorkloadProfile::memory_service(10.0, interval);
                let base =
                    colocation_overhead_pct(&cap, victim, std::slice::from_ref(&memsvc.per_rank));
                // Reads put slightly more pressure on the victim (the
                // response path crosses the memory bus twice).
                let base = if op == "read" { base * 1.1 } else { base };
                let mut stats = OnlineStats::new();
                for _ in 0..reps {
                    stats.push(base + rng.normal(0.0, 1.0));
                }
                means.push(stats.mean());
                stds.push(stats.std_dev());
            }
            series.push(Series {
                victim: victim_name.clone(),
                op: op.into(),
                interval_ms: FIG11_INTERVALS_MS.to_vec(),
                overhead_mean_pct: means,
                overhead_std_pct: stds,
            });
        }
    }
    Output {
        write_gbps,
        write_us: format!("{write_t}"),
        read_us: format!("{read_t}"),
        series,
    }
}

fn spread(s: &Series) -> f64 {
    s.overhead_mean_pct
        .iter()
        .cloned()
        .fold(f64::NEG_INFINITY, f64::max)
        - s.overhead_mean_pct
            .iter()
            .cloned()
            .fold(f64::INFINITY, f64::min)
}

fn victim_max(series: &[Series], prefix: &str) -> f64 {
    series
        .iter()
        .filter(|s| s.victim.starts_with(prefix))
        .flat_map(|s| s.overhead_mean_pct.iter().cloned())
        .fold(0.0f64, f64::max)
}

pub struct Fig11MemorySharing;

impl Scenario for Fig11MemorySharing {
    fn name(&self) -> &'static str {
        "fig11_memory_sharing"
    }

    fn title(&self) -> &'static str {
        "Remote-memory function co-location overheads (10 MB transfers)"
    }

    fn default_params(&self) -> Params {
        Params::new().with("reps", 10u64)
    }

    fn run(&self, sim: &mut Simulation, params: &Params) -> Metrics {
        let out = compute(sim, params);
        let max_spread = out
            .series
            .iter()
            .map(spread)
            .fold(f64::NEG_INFINITY, f64::max);
        let mut m = Metrics::new();
        m.push("rdma_write_gbps", out.write_gbps);
        m.push("lulesh_max_overhead_pct", victim_max(&out.series, "LULESH"));
        m.push("milc_max_overhead_pct", victim_max(&out.series, "MILC"));
        m.push("max_interval_spread_pct_points", max_spread);
        m
    }

    fn report(&self) {
        let seed = REPORT_SEED;
        let params = self.default_params();
        banner("FIG11", self.title());
        println!(
            "seed = {seed}; 1 GB pinned region; intervals 1–500 ms; {} repetitions\n",
            params.u64("reps")
        );
        let mut sim = Simulation::new(seed);
        let out = compute(&mut sim, &params);
        println!(
            "one 10 MB RDMA write: {}; read: {}; sustained ≈ {} GB/s",
            out.write_us,
            out.read_us,
            fmt(out.write_gbps)
        );

        for s in &out.series {
            let mut headers = vec!["interval".to_string()];
            headers.extend(s.interval_ms.iter().map(|i| format!("{i} ms")));
            let headers_ref: Vec<&str> = headers.iter().map(|h| h.as_str()).collect();
            let mut row = vec![format!("{} overhead [%]", s.op)];
            row.extend(
                s.overhead_mean_pct
                    .iter()
                    .zip(&s.overhead_std_pct)
                    .map(|(m, sd)| pm(*m, *sd)),
            );
            print_table(&format!("Fig. 11 — {}", s.victim), &headers_ref, &[row]);
        }

        // The paper's key observations.
        println!("\nshape checks:");
        for s in &out.series {
            let spread = spread(s);
            println!(
                "  {} ({}): overhead varies only {} pct-points across 1–500 ms intervals",
                s.victim,
                s.op,
                fmt(spread)
            );
            assert!(
                spread < 6.0,
                "transfer rate must not change the perturbation (paper's finding)"
            );
        }
        let lulesh_max = victim_max(&out.series, "LULESH");
        let milc_max = victim_max(&out.series, "MILC");
        println!(
            "  LULESH max overhead {}% (paper ≤ ~8%); MILC max {}% (paper up to ~20%)",
            fmt(lulesh_max),
            fmt(milc_max)
        );
        assert!(lulesh_max < 9.0);
        assert!(milc_max > lulesh_max && milc_max < 25.0);
    }
}
