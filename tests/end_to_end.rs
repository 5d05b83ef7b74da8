//! Cross-crate integration tests: the full platform lifecycle of Fig. 6 —
//! batch jobs, donations, leases, policy checks, invocation, reclaim — all
//! running against the real substrates.

use hpc_serverless_disagg::cluster::{JobSpec, NodeResources};
use hpc_serverless_disagg::des::SimTime;
use hpc_serverless_disagg::interference::{NasClass, NasKernel, WorkloadProfile};
use hpc_serverless_disagg::rfaas::{ExecutorMode, InvokeError, Platform};

fn ep_function(platform: &mut Platform) -> hpc_serverless_disagg::rfaas::FunctionId {
    let ep = WorkloadProfile::nas(NasKernel::Ep, NasClass::W);
    platform.register_function(&ep, 1.0, 2048, 20.0)
}

#[test]
fn fig6_step1_register_step2_colocate_step3_reclaim() {
    let mut p = Platform::daint(4);

    // Step I: idle nodes register with the resource manager.
    let report = p.bridge.sync(&p.cluster, &mut p.manager);
    assert_eq!(report.registered, 4);

    // Step II: executors serve invocations.
    let fid = ep_function(&mut p);
    let mut client = p.client(fid, ExecutorMode::Hot).unwrap();
    assert!(p.invoke(&mut client, 4096, 256).is_ok());
    assert_eq!(p.manager.leases.active_count(), 1);

    // Step III: the batch scheduler takes everything back.
    let spec = JobSpec::exclusive(4, NodeResources::daint_mc(), SimTime::from_mins(5), "hero");
    let job = p.submit_job(spec, SimTime::from_mins(5));
    assert_eq!(p.manager.registered_nodes(), 0);
    assert!(matches!(
        p.invoke(&mut client, 4096, 256),
        Err(InvokeError::NoResources(_))
    ));

    // The cycle repeats when the job ends.
    p.finish_job(job);
    assert_eq!(p.manager.registered_nodes(), 4);
    assert!(p.invoke(&mut client, 4096, 256).is_ok());
    assert_eq!(client.stats.redirects, 1, "client redirected transparently");
}

#[test]
fn idle_to_shared_transition_reregisters_donation() {
    // Regression test: a node whose donation changes shape (idle → shared)
    // must not keep its stale idle registration, or functions would bypass
    // the co-location policy.
    let mut p = Platform::daint(2);
    p.bridge.add_profile("milc", WorkloadProfile::milc(128));
    p.bridge.sync(&p.cluster, &mut p.manager);
    assert_eq!(p.manager.registered_nodes(), 2);

    let spec = JobSpec::shared(
        2,
        NodeResources {
            cores: 32,
            memory_mb: 64 * 1024,
            gpus: 0,
        },
        SimTime::from_mins(10),
        "milc",
    );
    p.submit_job(spec, SimTime::from_mins(10));
    for n in 0..2 {
        let d = p
            .manager
            .donation(hpc_serverless_disagg::fabric::NodeId(n))
            .expect("still donated");
        assert!(
            matches!(
                d.source,
                hpc_serverless_disagg::rfaas::DonationSource::SharedJob { .. }
            ),
            "donation must reflect the shared job"
        );
        assert!(
            (d.capacity.cores - 4.0).abs() < 1e-9,
            "only the spare slice"
        );
        assert!(d.batch_demand.is_some());
    }

    // The policy now guards placements: a cache-hungry CG function next to
    // memory-bound MILC is refused.
    let cg = WorkloadProfile::nas(NasKernel::Cg, NasClass::B);
    let fid = p.register_function(&cg, 4.0, 4096, 20.0);
    let mut client = p.client(fid, ExecutorMode::Hot).unwrap();
    assert!(matches!(
        p.invoke(&mut client, 1024, 64),
        Err(InvokeError::NoResources(_))
    ));
}

#[test]
fn warm_pool_survives_across_clients_and_dies_with_the_node() {
    let mut p = Platform::daint(1);
    p.bridge.sync(&p.cluster, &mut p.manager);
    let fid = ep_function(&mut p);

    // First client: cold start, then parks its sandbox.
    let mut c1 = p.client(fid, ExecutorMode::Hot).unwrap();
    p.invoke(&mut c1, 64, 64).unwrap();
    assert_eq!(c1.stats.cold_starts, 1);
    let now = p.now;
    c1.disconnect(&mut p.manager, now);

    // Second client adopts the warm container: zero cold starts.
    let mut c2 = p.client(fid, ExecutorMode::Hot).unwrap();
    p.invoke(&mut c2, 64, 64).unwrap();
    assert_eq!(c2.stats.cold_starts, 0);
    let now = p.now;
    c2.disconnect(&mut p.manager, now);

    // The batch system takes the node: the pool is wiped instantly
    // ("idle containers can be removed immediately without consequences").
    let spec = JobSpec::exclusive(1, NodeResources::daint_mc(), SimTime::from_mins(5), "b");
    let job = p.submit_job(spec, SimTime::from_mins(5));
    p.finish_job(job);

    // Next client pays a cold start again.
    let mut c3 = p.client(fid, ExecutorMode::Hot).unwrap();
    p.invoke(&mut c3, 64, 64).unwrap();
    assert_eq!(c3.stats.cold_starts, 1);
}

#[test]
fn hot_and_warm_executors_tradeoff() {
    // Hot burns a core to win microseconds; warm sips CPU and pays a wakeup.
    let mut p = Platform::daint(2);
    p.bridge.sync(&p.cluster, &mut p.manager);
    let noop = WorkloadProfile {
        name: "noop-like".into(),
        per_rank: hpc_serverless_disagg::interference::Demand {
            name: "noop-like".into(),
            cores: 1.0,
            membw_bps: 0.0,
            llc_mb: 0.0,
            cache_reuse: 0.0,
            net_bps: 0.0,
            mem_frac: 0.0,
            net_frac: 0.0,
        },
        serial_runtime_s: 0.0,
    };
    let fid = p.register_function(&noop, 1.0, 256, 5.0);

    let mut hot = p.client(fid, ExecutorMode::Hot).unwrap();
    let mut warm = p.client(fid, ExecutorMode::Warm).unwrap();
    // Skip the first (cold) invocation on both.
    p.invoke(&mut hot, 64, 64).unwrap();
    p.invoke(&mut warm, 64, 64).unwrap();
    let t_hot = p.invoke(&mut hot, 64, 64).unwrap();
    let t_warm = p.invoke(&mut warm, 64, 64).unwrap();
    assert!(t_hot < SimTime::from_micros(15));
    assert!(t_warm > t_hot, "warm pays the wakeup");
    assert!(t_warm < SimTime::from_millis(1));
}
