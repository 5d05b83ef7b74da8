//! Property-based tests over the core data structures and invariants.

use apps::blackscholes;
use hpc_serverless_disagg::cluster::{Cluster, JobSpec, NodeResources};
use hpc_serverless_disagg::des::{SimTime, Simulation};
use hpc_serverless_disagg::fabric::{CompletionMode, LogGpParams};
use hpc_serverless_disagg::interference::{slowdowns, Demand, NodeCapacity};
use hpc_serverless_disagg::rfaas::OffloadPlanner;
use proptest::prelude::*;

fn arb_demand() -> impl Strategy<Value = Demand> {
    (
        0.1f64..36.0,
        0.0f64..8e9,
        0.0f64..100.0,
        0.0f64..1.0,
        0.0f64..2e9,
        0.0f64..0.9,
        0.0f64..0.1,
    )
        .prop_map(
            |(cores, membw, llc, reuse, net, mem_frac, net_frac)| Demand {
                name: "w".into(),
                cores,
                membw_bps: membw,
                llc_mb: llc,
                cache_reuse: reuse,
                net_bps: net,
                mem_frac,
                net_frac,
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn simtime_addition_is_monotone(a in 0u64..1u64 << 60, b in 0u64..1u64 << 60) {
        let ta = SimTime::from_nanos(a);
        let tb = SimTime::from_nanos(b);
        prop_assert!(ta + tb >= ta);
        prop_assert!(ta + tb >= tb);
        prop_assert_eq!(ta + tb, tb + ta);
    }

    #[test]
    fn des_executes_all_events_in_order(times in prop::collection::vec(0u64..1_000_000, 1..50)) {
        use std::sync::{Arc, Mutex};
        let mut sim = Simulation::new(1);
        let log = Arc::new(Mutex::new(Vec::new()));
        for &t in &times {
            let log = Arc::clone(&log);
            sim.schedule_at(SimTime::from_nanos(t), move |sim| {
                log.lock().unwrap().push(sim.now().as_nanos());
            });
        }
        sim.run();
        let result = log.lock().unwrap().clone();
        prop_assert_eq!(result.len(), times.len());
        prop_assert!(result.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn loggp_cost_monotone_in_size(sizes in prop::collection::vec(0usize..1 << 24, 2..20)) {
        let p = LogGpParams::ugni();
        let mut sorted = sizes.clone();
        sorted.sort_unstable();
        let costs: Vec<_> = sorted
            .iter()
            .map(|&s| p.one_way(s, CompletionMode::BusyPoll))
            .collect();
        prop_assert!(costs.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn contention_never_speeds_anyone_up(
        victim in arb_demand(),
        aggressors in prop::collection::vec(arb_demand(), 0..6),
    ) {
        let cap = NodeCapacity::daint_mc();
        let solo = slowdowns(&cap, std::slice::from_ref(&victim))[0];
        let mut all = vec![victim];
        all.extend(aggressors);
        let together = slowdowns(&cap, &all)[0];
        // Noise per co-runner is the only term that can add to a lone
        // workload; it never subtracts.
        prop_assert!(together >= solo - 1e-9);
    }

    #[test]
    fn adding_an_aggressor_is_monotone(
        victim in arb_demand(),
        a in arb_demand(),
        b in arb_demand(),
    ) {
        let cap = NodeCapacity::daint_mc();
        let with_one = slowdowns(&cap, &[victim.clone(), a.clone()])[0];
        let with_two = slowdowns(&cap, &[victim, a, b])[0];
        prop_assert!(with_two >= with_one - 1e-9);
    }

    #[test]
    fn offload_plan_partitions_tasks(
        n in 0usize..20_000,
        workers in 1usize..64,
        executors in 0usize..64,
        t_local_us in 10u64..100_000,
    ) {
        let params = LogGpParams::ugni();
        let t_local = SimTime::from_micros(t_local_us);
        let planner = OffloadPlanner::from_network(&params, t_local, t_local * 1.2, 4096, 512);
        let plan = planner.plan_with_workers(n, workers, executors);
        prop_assert_eq!(plan.local + plan.remote, n);
        if executors == 0 {
            prop_assert_eq!(plan.remote, 0);
        }
        if plan.remote > 0 {
            prop_assert!(plan.local >= planner.n_local_min());
        }
    }

    #[test]
    fn scheduler_never_oversubscribes(
        jobs in prop::collection::vec((1u32..4, 1u32..36, 1u64..128 * 1024, any::<bool>()), 1..30),
    ) {
        let mut c = Cluster::homogeneous(4, NodeResources::daint_mc());
        for (nodes, cores, mem, shared) in jobs {
            let per_node = NodeResources { cores, memory_mb: mem, gpus: 0 };
            let spec = if shared {
                JobSpec::shared(nodes, per_node, SimTime::from_mins(10), "p")
            } else {
                JobSpec::exclusive(nodes, per_node, SimTime::from_mins(10), "p")
            };
            c.submit(spec, SimTime::from_mins(10), SimTime::ZERO);
        }
        c.try_schedule(SimTime::ZERO);
        for node in c.nodes() {
            let used = node.used();
            prop_assert!(used.cores <= node.capacity.cores);
            prop_assert!(used.memory_mb <= node.capacity.memory_mb);
            // Exclusive holders are alone.
            if node.exclusive_holder().is_some() {
                prop_assert_eq!(node.job_count(), 1);
            }
        }
    }

    #[test]
    fn black_scholes_chunking_invariant(
        n in 1usize..500,
        chunk in 1usize..100,
        seed in 0u64..1000,
    ) {
        let opts = blackscholes::portfolio(n, seed);
        let whole = blackscholes::price_chunk(&opts, 1);
        let split: f64 = opts.chunks(chunk).map(|c| blackscholes::price_chunk(c, 1)).sum();
        prop_assert!((whole - split).abs() < 1e-8 * whole.abs().max(1.0));
    }

    #[test]
    fn storage_latency_monotone_in_size_and_readers(
        sizes in prop::collection::vec(1u64..1 << 30, 2..10),
        readers in 1u32..32,
    ) {
        use hpc_serverless_disagg::storage::{Lustre, ObjectStore, ReadService};
        let lustre = Lustre::piz_daint();
        let minio = ObjectStore::minio_daint();
        let mut sorted = sizes.clone();
        sorted.sort_unstable();
        for svc in [&lustre as &dyn ReadService, &minio as &dyn ReadService] {
            let times: Vec<_> = sorted.iter().map(|&s| svc.read_time(s, readers)).collect();
            prop_assert!(times.windows(2).all(|w| w[0] <= w[1]));
            // More readers never make a single read faster.
            let crowded: Vec<_> = sorted.iter().map(|&s| svc.read_time(s, readers + 8)).collect();
            for (t, c) in times.iter().zip(&crowded) {
                prop_assert!(c >= t);
            }
        }
    }
}
