//! The platform façade: cluster + fabric + containers + manager wired
//! together, with the high-level operations the examples and the
//! integration tests drive.

use crate::functions::{FunctionDef, FunctionId, FunctionRegistry, FunctionRequirements};
use crate::invoke::{Client, InvokeError};
use crate::manager::ResourceManager;
use crate::scheduler_glue::SchedulerBridge;
use crate::ExecutorMode;
use cluster::{Cluster, JobId, JobSpec, NodeResources};
use containers::{ContainerImage, ContainerRuntime};
use des::SimTime;
use fabric::{Fabric, LogGpParams, Transport};
use interference::{NodeCapacity, WorkloadProfile};

/// The assembled HPC serverless platform.
pub struct Platform {
    pub cluster: Cluster,
    pub fabric: Fabric,
    pub manager: ResourceManager,
    pub bridge: SchedulerBridge,
    pub registry: FunctionRegistry,
    pub now: SimTime,
    next_image: u64,
}

impl Platform {
    /// A Piz-Daint-like platform with `nodes` multicore nodes.
    pub fn daint(nodes: usize) -> Self {
        Platform {
            cluster: Cluster::homogeneous(nodes, NodeResources::daint_mc()),
            fabric: Fabric::new(Transport::Ugni, nodes),
            manager: ResourceManager::new(),
            bridge: SchedulerBridge::new(NodeCapacity::daint_mc()),
            registry: FunctionRegistry::new(),
            now: SimTime::ZERO,
            next_image: 0,
        }
    }

    pub fn params(&self) -> LogGpParams {
        self.fabric.params
    }

    /// Advance virtual time.
    pub fn advance(&mut self, dt: SimTime) {
        self.now += dt;
    }

    /// Register a function from a workload profile (profiling data drives
    /// both the exec-time estimate and the demand vector).
    pub fn register_function(
        &mut self,
        profile: &WorkloadProfile,
        cores: f64,
        memory_mb: u64,
        image_mb: f64,
    ) -> FunctionId {
        self.next_image += 1;
        let mut demand = profile.per_rank.clone();
        demand.cores = cores;
        self.registry.register(
            &profile.name,
            ContainerImage::new(self.next_image, &profile.name, image_mb),
            ContainerRuntime::Sarus,
            FunctionRequirements::cpu(cores, memory_mb),
            SimTime::from_secs_f64(profile.serial_runtime_s),
            demand,
        )
    }

    /// Submit a batch job and run a scheduling pass + donation sync.
    pub fn submit_job(&mut self, spec: JobSpec, actual_runtime: SimTime) -> JobId {
        let id = self.cluster.submit(spec, actual_runtime, self.now);
        self.cluster.try_schedule(self.now);
        self.bridge.sync(&self.cluster, &mut self.manager);
        id
    }

    /// Finish a job and resync donations.
    pub fn finish_job(&mut self, id: JobId) {
        let _ = self.cluster.finish(id, self.now);
        self.cluster.try_schedule(self.now);
        self.bridge.sync(&self.cluster, &mut self.manager);
    }

    /// Build a client for a registered function.
    pub fn client(&self, id: FunctionId, mode: ExecutorMode) -> Option<Client> {
        let def: FunctionDef = self.registry.get(id)?.clone();
        Some(Client::new(def, mode, self.params()))
    }

    /// One-shot invocation helper: connect (if needed), invoke, return the
    /// end-to-end latency. The client keeps its lease across calls.
    pub fn invoke(
        &mut self,
        client: &mut Client,
        payload: usize,
        result: usize,
    ) -> Result<SimTime, InvokeError> {
        let (timing, setup) = client.invoke(&mut self.manager, payload, result, self.now)?;
        let total = timing.total() + setup;
        self.advance(total);
        Ok(total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use interference::{NasClass, NasKernel};

    #[test]
    fn end_to_end_idle_node_invocation() {
        let mut p = Platform::daint(4);
        p.bridge.sync(&p.cluster, &mut p.manager);
        assert_eq!(p.manager.registered_nodes(), 4);

        let ep = WorkloadProfile::nas(NasKernel::Ep, NasClass::W);
        let fid = p.register_function(&ep, 1.0, 2048, 30.0);
        let mut client = p.client(fid, ExecutorMode::Hot).unwrap();
        let t1 = p.invoke(&mut client, 4096, 1024).unwrap();
        let t2 = p.invoke(&mut client, 4096, 1024).unwrap();
        // First call pays the cold start; the second only the body.
        assert!(t1 > t2, "t1={t1} t2={t2}");
        assert!(t2 >= SimTime::from_secs_f64(ep.serial_runtime_s));
    }

    #[test]
    fn batch_job_arrival_displaces_functions() {
        let mut p = Platform::daint(2);
        p.bridge.sync(&p.cluster, &mut p.manager);
        let ep = WorkloadProfile::nas(NasKernel::Ep, NasClass::W);
        let fid = p.register_function(&ep, 1.0, 2048, 30.0);
        let mut client = p.client(fid, ExecutorMode::Hot).unwrap();
        p.invoke(&mut client, 64, 64).unwrap();

        // Exclusive job takes both nodes: donations disappear.
        let spec = JobSpec::exclusive(
            2,
            NodeResources::daint_mc(),
            SimTime::from_mins(10),
            "batch",
        );
        let job = p.submit_job(spec, SimTime::from_mins(10));
        assert_eq!(p.manager.registered_nodes(), 0);
        let err = p.invoke(&mut client, 64, 64).unwrap_err();
        assert!(matches!(err, InvokeError::NoResources(_)));

        // Job ends: the pool refills and the client redirects.
        p.finish_job(job);
        assert_eq!(p.manager.registered_nodes(), 2);
        assert!(p.invoke(&mut client, 64, 64).is_ok());
        assert!(client.stats.redirects >= 1);
    }

    #[test]
    fn time_advances_with_invocations() {
        let mut p = Platform::daint(1);
        p.bridge.sync(&p.cluster, &mut p.manager);
        let ep = WorkloadProfile::nas(NasKernel::Ep, NasClass::S);
        let fid = p.register_function(&ep, 1.0, 1024, 10.0);
        let mut client = p.client(fid, ExecutorMode::Hot).unwrap();
        let before = p.now;
        p.invoke(&mut client, 64, 64).unwrap();
        assert!(p.now > before);
    }
}
