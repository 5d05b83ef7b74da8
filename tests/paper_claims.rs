//! The paper's headline claims, checked end-to-end against the reproduction.

use hpc_serverless_disagg::des::SimTime;
use hpc_serverless_disagg::fabric::{Fabric, JobToken, LogGpParams, NodeId, Transport};
use hpc_serverless_disagg::interference::model::scaling_efficiency;
use hpc_serverless_disagg::interference::{NasClass, NasKernel, NodeCapacity, WorkloadProfile};
use hpc_serverless_disagg::rfaas::memservice::{MemoryServiceFunction, RemoteMemoryClient};
use hpc_serverless_disagg::rfaas::OffloadPlanner;
use hpc_serverless_disagg::storage::{Lustre, ObjectStore, ReadService};

#[test]
fn claim_single_digit_microsecond_invocations() {
    // Sec. IV-A: "rFaaS uses fast networks and a shortened invocation
    // critical path to achieve single-digit microsecond latencies."
    use hpc_serverless_disagg::rfaas::{Executor, ExecutorMode, FunctionRegistry};
    let params = LogGpParams::ugni();
    let mut reg = FunctionRegistry::new();
    let id = reg.register_noop();
    let mut ex = Executor::new(reg.get(id).unwrap().clone(), ExecutorMode::Hot);
    ex.adopt_warm_container();
    let t = ex.invoke(&params, 16, 16, 1.0).total();
    assert!(t < SimTime::from_micros(10), "hot no-op RTT = {t}");
}

#[test]
fn claim_fig7_hot_invocations_track_ugni_and_warm_ones_pay_a_wakeup() {
    // Fig. 7: at 1 B a hot rFaaS invocation takes single-digit µs, a small
    // overhead above raw uGNI busy-poll ping-pong, and a warm one is slower
    // by the executor's wake-up — the claims `scenarios report
    // fig07_latency` prints, checked on the registered scenario's metrics
    // over several seeds.
    use hpc_serverless_disagg::scenarios::{Registry, REPORT_SEED};
    let registry = Registry::standard();
    let fig07 = registry.get("fig07_latency").unwrap();
    for seed in REPORT_SEED..REPORT_SEED + 4 {
        let mut sim = hpc_serverless_disagg::des::Simulation::new(seed);
        let m = fig07.run(&mut sim, &fig07.default_params());
        let metric = |name: &str| m.get(name).unwrap();
        let hot = metric("rfaas_hot_med_1b_us");
        let overhead = metric("hot_overhead_1b_us");
        let warm = metric("rfaas_warm_med_1b_us");
        assert!(
            (1.0..10.0).contains(&hot),
            "seed {seed}: hot median {hot} µs"
        );
        assert!(
            overhead > 0.0 && overhead < 2.0,
            "seed {seed}: hot overhead over uGNI busy-poll {overhead} µs"
        );
        assert!(warm > hot, "seed {seed}: warm {warm} µs vs hot {hot} µs");
    }
}

#[test]
fn claim_remote_memory_sustains_1gbps() {
    // Conclusion: "supporting remote memory with up to 1GB/s traffic".
    let mut fabric = Fabric::new(Transport::Ugni);
    let svc = MemoryServiceFunction::deploy(&mut fabric, NodeId(1), 1 << 30, JobToken(1));
    let (mut client, _) = RemoteMemoryClient::connect(&mut fabric, &svc, JobToken(2)).unwrap();
    let chunk = vec![0u8; 10 << 20];
    for i in 0..20 {
        client
            .write(&mut fabric, (i % 100) * (10 << 20), &chunk)
            .unwrap();
    }
    assert!(client.achieved_bps() > 1e9, "{} B/s", client.achieved_bps());
}

#[test]
fn claim_memory_functions_perturb_batch_jobs_little_and_rate_independently() {
    // Fig. 11: LULESH slows by at most ~8 %, MILC by more (up to ~20 %),
    // and the transfer interval (1–500 ms) hardly changes either — the
    // same bounds `scenarios report fig11_memory_sharing` asserts.
    use hpc_serverless_disagg::scenarios::{Registry, REPORT_SEED};
    let registry = Registry::standard();
    let fig11 = registry.get("fig11_memory_sharing").unwrap();
    let mut sim = hpc_serverless_disagg::des::Simulation::new(REPORT_SEED);
    let m = fig11.run(&mut sim, &fig11.default_params());
    let lulesh = m.get("lulesh_max_overhead_pct").unwrap();
    let milc = m.get("milc_max_overhead_pct").unwrap();
    let spread = m.get("max_interval_spread_pct_points").unwrap();
    assert!(lulesh < 9.0, "LULESH max overhead {lulesh} %");
    assert!(lulesh < milc && milc < 25.0, "MILC max overhead {milc} %");
    assert!(spread < 6.0, "interval spread {spread} pct-points");
}

#[test]
fn claim_throughput_improvement_up_to_53_pct() {
    // Conclusion: "improving system throughput by up to 53%" — in Fig. 10
    // terms, disaggregated utilization over realistic exclusive allocation.
    // LULESH takes 64 of 72 cores; the CG.B stream fills 8 more; the
    // realistic schedule burns a third node.
    //
    // Documented deviation from the paper: this clean core-count arithmetic
    // gives exactly (72/72)/(72/108) − 1 = 0.50, not 0.53. The paper's 53%
    // headline additionally folds in batch-queue waits that exclusive NAS
    // jobs suffer and co-located functions skip (see fig10_utilization),
    // which this closed-form check deliberately excludes. 50% is therefore
    // the correct expectation here, inside the paper's "up to 53%" bound,
    // and the tolerance is centred on it.
    let disagg: f64 = (64.0 + 8.0) / 72.0;
    let realistic = (64.0 + 8.0) / 108.0;
    let improvement = disagg / realistic - 1.0;
    assert!(
        (improvement - 0.50).abs() < 0.02,
        "improvement={improvement}"
    );
    assert!(
        improvement <= 0.53 + 1e-9,
        "must stay within the paper's 'up to 53%' claim: {improvement}"
    );

    // The registered scenario must reach the same headline, and its three
    // schedules must keep the order and the billing gap that
    // `scenarios report fig10_utilization` asserts: whole-node billing
    // wastes core-hours that disaggregation reclaims.
    use hpc_serverless_disagg::scenarios::{Registry, REPORT_SEED};
    let registry = Registry::standard();
    let fig10 = registry.get("fig10_utilization").unwrap();
    let mut sim = hpc_serverless_disagg::des::Simulation::new(REPORT_SEED);
    let m = fig10.run(&mut sim, &fig10.default_params());
    let best = m.get("best_util_improvement_pct").unwrap();
    assert!((48.0..=53.0).contains(&best), "best improvement {best} %");
    let realistic_ch = m.get("mean_core_hours_realistic_rel").unwrap();
    assert!(
        realistic_ch > 1.15,
        "realistic core-hours {realistic_ch} × ideal"
    );
    let util_d = m.get("mean_util_disaggregation").unwrap();
    let util_i = m.get("mean_util_ideal").unwrap();
    let util_r = m.get("mean_util_realistic").unwrap();
    assert!(
        util_d > util_i && util_i > util_r,
        "utilisation order {util_d} > {util_i} > {util_r}"
    );
}

#[test]
fn claim_cg_collapses_ep_scales() {
    // Table III's spread is the whole argument for interference-aware
    // placement: at 32 executors EP keeps ~85% efficiency, CG ~36%.
    let cap = NodeCapacity::daint_mc();
    let ep = WorkloadProfile::nas(NasKernel::Ep, NasClass::W);
    let cg = WorkloadProfile::nas(NasKernel::Cg, NasClass::A);
    let e_ep = scaling_efficiency(&cap, &ep.per_rank, 32);
    let e_cg = scaling_efficiency(&cap, &cg.per_rank, 32);
    assert!(e_ep > 0.75, "EP efficiency {e_ep}");
    assert!(e_cg < 0.45, "CG efficiency {e_cg}");
}

#[test]
fn claim_filesystem_beats_object_storage_at_scale() {
    // Sec. V-A: "replacing cloud storage with a filesystem provides higher
    // I/O performance for HPC functions at no additional cost."
    let lustre = Lustre::piz_daint();
    let minio = ObjectStore::minio_daint();
    let gb = 1u64 << 30;
    assert!(lustre.per_reader_throughput_gbps(gb, 16) > minio.per_reader_throughput_gbps(gb, 16));
    // While the object store keeps its small-file niche (the warm cache).
    assert!(minio.latency_s(1 << 10) < lustre.latency_s(1 << 10));
}

#[test]
fn claim_eq1_never_waits_for_remote_work() {
    // Sec. IV-F: offloaded work must hide behind local work. Verify the
    // planner's split obeys Eq. (1) across a parameter sweep.
    let params = LogGpParams::ugni();
    for t_local_us in [100u64, 1000, 10_000] {
        for t_inv_factor in [1.0f64, 1.5, 3.0] {
            let t_local = SimTime::from_micros(t_local_us);
            let t_inv = t_local * t_inv_factor;
            let planner = OffloadPlanner::from_network(&params, t_local, t_inv, 64 << 10, 1024);
            for n in [1usize, 10, 100, 10_000] {
                let plan = planner.plan_with_workers(n, 8, 8);
                assert_eq!(plan.local + plan.remote, n);
                if plan.remote > 0 {
                    // Local work lasts at least one offload round trip.
                    let local_time = plan.local as f64 * t_local.as_secs_f64();
                    let rtt = (t_inv + planner.latency).as_secs_f64();
                    assert!(
                        local_time + 1e-12 >= rtt,
                        "Eq. (1) violated: local {local_time}s < rtt {rtt}s"
                    );
                }
            }
        }
    }
}

#[test]
fn claim_ugni_needs_drc_for_cross_job_communication() {
    // Sec. IV-A: uGNI confines communication to one batch job; rFaaS makes
    // it cross jobs via DRC credentials.
    let mut fabric = Fabric::new(Transport::Ugni);
    let executor_job = JobToken(1);
    let client_job = JobToken(2);
    let cred = fabric.drc.allocate(executor_job);
    // Without a grant the client cannot connect.
    assert!(fabric.connect(NodeId(1), cred, client_job).is_err());
    fabric.drc.grant(cred, executor_job, client_job).unwrap();
    assert!(fabric.connect(NodeId(1), cred, client_job).is_ok());
}
