//! System-path microbenchmarks: the DES engine, the fabric verbs, the
//! scheduler, the contention model, and the end-to-end invocation path —
//! plus the ablation comparisons called out in DESIGN.md (warm pool on/off,
//! busy-poll vs event-wait).

use criterion::{criterion_group, criterion_main, Criterion};
use des::{SimTime, Simulation};
use fabric::{CompletionMode, Fabric, JobToken, LogGpParams, NodeId, Transport};
use interference::{slowdowns, NasClass, NasKernel, NodeCapacity, WorkloadProfile};
use rfaas::{Executor, ExecutorMode, FunctionRegistry};
use std::hint::black_box;

fn bench_des(c: &mut Criterion) {
    c.bench_function("des_10k_events", |b| {
        b.iter(|| {
            let mut sim = Simulation::new(1);
            for i in 0..10_000u64 {
                sim.schedule_at(SimTime::from_nanos(i * 7 % 100_000), |_| {});
            }
            sim.run();
            black_box(sim.events_executed())
        });
    });
}

fn bench_fabric(c: &mut Criterion) {
    let mut fabric = Fabric::new(Transport::Ugni, 4);
    let cred = fabric.drc.allocate(JobToken(1));
    let (qp, _) = fabric
        .connect(
            NodeId(0),
            NodeId(1),
            cred,
            JobToken(1),
            CompletionMode::BusyPoll,
        )
        .unwrap();
    let mr = fabric.register_buffer(NodeId(1), 1 << 20);
    let data = vec![1u8; 64 << 10];
    c.bench_function("fabric_rdma_write_64k", |b| {
        b.iter(|| black_box(fabric.rdma_write(&qp, mr, 0, &data).unwrap()));
    });
}

fn bench_invocation_paths(c: &mut Criterion) {
    // Ablation: hot vs warm executors (busy-poll vs event-wait).
    let params = LogGpParams::ugni();
    let mut reg = FunctionRegistry::new();
    let id = reg.register_noop();
    let def = reg.get(id).unwrap().clone();
    let mut g = c.benchmark_group("invocation_path");
    for (name, mode) in [("hot", ExecutorMode::Hot), ("warm", ExecutorMode::Warm)] {
        let mut ex = Executor::new(def.clone(), mode);
        ex.adopt_warm_container();
        g.bench_function(name, |b| {
            b.iter(|| black_box(ex.invoke(&params, 64, 64, 1.0).total()));
        });
    }
    g.finish();
}

fn bench_scheduler(c: &mut Criterion) {
    use cluster::{Cluster, JobSpec, NodeResources};
    c.bench_function("scheduler_submit_and_place_200_jobs", |b| {
        b.iter(|| {
            let mut cl = Cluster::homogeneous(64, NodeResources::daint_mc());
            for i in 0..200 {
                let spec = JobSpec::exclusive(
                    1 + (i % 4),
                    NodeResources::daint_mc(),
                    SimTime::from_mins(10),
                    "b",
                );
                cl.submit(spec, SimTime::from_mins(5), SimTime::ZERO);
            }
            let (started, _) = cl.try_schedule(SimTime::ZERO);
            black_box(started.len())
        });
    });
}

fn bench_contention_model(c: &mut Criterion) {
    let cap = NodeCapacity::daint_mc();
    let demands: Vec<_> = (0..32)
        .map(|_| WorkloadProfile::nas(NasKernel::Cg, NasClass::A).per_rank)
        .collect();
    c.bench_function("contention_model_32_workloads", |b| {
        b.iter(|| black_box(slowdowns(&cap, &demands)));
    });
}

criterion_group!(
    platform,
    bench_des,
    bench_fabric,
    bench_invocation_paths,
    bench_scheduler,
    bench_contention_model
);
criterion_main!(platform);
