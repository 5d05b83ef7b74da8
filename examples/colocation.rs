//! Co-location scenario (Sec. III-B / Fig. 9): a LULESH batch job that can
//! only use 32 of 36 cores per node (cubic rank counts!) opts into sharing;
//! the spare cores serve NAS functions, guarded by the co-location policy.
//! Every outcome the log prints is asserted, so a policy change that flips
//! one fails the example.
//!
//! ```bash
//! cargo run --example colocation
//! ```

use hpc_serverless_disagg::cluster::{JobSpec, NodeResources};
use hpc_serverless_disagg::des::SimTime;
use hpc_serverless_disagg::interference::{NasClass, NasKernel, WorkloadProfile};
use hpc_serverless_disagg::rfaas::{ExecutorMode, Platform};

fn main() {
    // LULESH wants a cubic rank count: 64 ranks = 32/node on 2 nodes.
    let valid: Vec<u32> = (1..).map(|k| k * k * k).take_while(|&n| n <= 130).collect();
    assert!(valid.contains(&64));
    println!("valid LULESH rank counts up to 130: {valid:?}");

    let mut platform = Platform::daint(2);
    platform
        .bridge
        .add_profile("lulesh", WorkloadProfile::lulesh(20));

    // Submit the shared LULESH job: 32 cores + 64 GB per node.
    let spec = JobSpec::shared(
        2,
        NodeResources {
            cores: 32,
            memory_mb: 64 * 1024,
            gpus: 0,
        },
        SimTime::from_mins(10),
        "lulesh",
    );
    let job = platform.submit_job(spec, SimTime::from_mins(5));
    println!(
        "LULESH running; donated spare-slice nodes: {}",
        platform.manager.registered_nodes()
    );

    // LULESH is compute-heavy, so the requirement model accepts both a
    // compute-bound EP function and even a cache-hungry CG one — the
    // predicted perturbation stays under the threshold.
    let ep = WorkloadProfile::nas(NasKernel::Ep, NasClass::B);
    let ep_id = platform.register_function(&ep, 2.0, 2048, 25.0);
    let mut ep_client = platform.client(ep_id, ExecutorMode::Hot).unwrap();
    let latency = platform
        .invoke(&mut ep_client, 64 << 10, 1024)
        .unwrap_or_else(|e| panic!("EP rejected next to LULESH: {e}"));
    println!("EP co-located with LULESH: latency {latency}");
    let cg = WorkloadProfile::nas(NasKernel::Cg, NasClass::B);
    let cg_id = platform.register_function(&cg, 4.0, 4096, 25.0);
    let mut cg_client = platform.client(cg_id, ExecutorMode::Hot).unwrap();
    let latency = platform
        .invoke(&mut cg_client, 64 << 10, 1024)
        .unwrap_or_else(|e| panic!("CG rejected next to LULESH: {e}"));
    println!("CG co-located with LULESH: latency {latency}");
    platform.finish_job(job);

    // A memory-bound MILC job is a different story: the policy predicts
    // harmful interference for the CG function and refuses the placement.
    platform
        .bridge
        .add_profile("milc", WorkloadProfile::milc(128));
    let milc_spec = JobSpec::shared(
        2,
        NodeResources {
            cores: 32,
            memory_mb: 64 * 1024,
            gpus: 0,
        },
        SimTime::from_mins(10),
        "milc",
    );
    let milc_job = platform.submit_job(milc_spec, SimTime::from_mins(5));
    cg_client.disconnect(&mut platform.manager, platform.now);
    let e = platform
        .invoke(&mut cg_client, 64 << 10, 1024)
        .expect_err("CG co-located with MILC");
    assert!(
        e.to_string().contains("PredictedInterference"),
        "CG rejected next to MILC for the wrong reason: {e}"
    );
    println!("CG rejected next to MILC: {e}");
    // EP remains harmless and is still allowed.
    ep_client.disconnect(&mut platform.manager, platform.now);
    let latency = platform
        .invoke(&mut ep_client, 64 << 10, 1024)
        .unwrap_or_else(|e| panic!("EP rejected next to MILC: {e}"));
    println!("EP co-located with MILC: latency {latency}");

    // When MILC completes, both nodes become fully idle donations and even
    // CG is welcome.
    platform.finish_job(milc_job);
    println!(
        "job finished; donations now: {} idle nodes",
        platform.manager.registered_nodes()
    );
    let latency = platform
        .invoke(&mut cg_client, 64 << 10, 1024)
        .unwrap_or_else(|e| panic!("CG rejected on the idle node: {e}"));
    println!("CG now runs on the idle node: latency {latency}");
}
