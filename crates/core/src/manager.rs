//! The rFaaS global resource manager and its batch-system API (Fig. 6).
//!
//! The batch scheduler drives the manager through two REST-like calls:
//!
//! * `register_resources` (**B1**) — a node (or the unused slice of an
//!   allocated, opted-in node) joins the serverless pool and is usable
//!   immediately, which is what makes minutes-long idle windows (Fig. 1c)
//!   exploitable;
//! * `remove_resources` (**B2**) — the batch system reclaims the node;
//!   `immediate` aborts in-flight invocations, otherwise leases drain
//!   gracefully.
//!
//! Between those calls the manager grants leases, steers placements toward
//! nodes holding warm containers (Sec. IV-B), and consults the co-location
//! policy before placing functions next to batch jobs.

use crate::functions::{FunctionDef, FunctionRequirements};
use crate::lease::{LeaseId, LeaseManager, LeaseState};
use containers::{PoolStats, WarmContainer, WarmPool};
use des::SimTime;
use fabric::NodeId;
use interference::{ColocationPolicy, Decision, Demand, NodeCapacity};
use std::collections::HashMap;
use std::fmt;

/// Where donated resources came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DonationSource {
    /// A fully idle node between batch jobs.
    IdleNode,
    /// Spare capacity on a node running an opted-in shared job.
    SharedJob { batch_nodes: u32 },
}

/// A node's donated capacity and current draw.
#[derive(Debug, Clone)]
pub struct Donation {
    pub node: NodeId,
    pub capacity: FunctionRequirements,
    pub used: FunctionRequirements,
    pub source: DonationSource,
    /// Demand vector of the co-resident batch job (empty for idle nodes).
    pub batch_demand: Option<Demand>,
    pub hardware: NodeCapacity,
}

impl Donation {
    fn free(&self) -> FunctionRequirements {
        FunctionRequirements {
            cores: self.capacity.cores - self.used.cores,
            memory_mb: self.capacity.memory_mb - self.used.memory_mb,
            gpus: self.capacity.gpus - self.used.gpus,
        }
    }

    fn fits(&self, req: &FunctionRequirements) -> bool {
        let f = self.free();
        f.cores >= req.cores && f.memory_mb >= req.memory_mb && f.gpus >= req.gpus
    }
}

/// Manager API errors.
#[derive(Debug, Clone, PartialEq)]
pub enum ManagerError {
    UnknownNode,
    NoCapacity,
    PolicyRejected(String),
    UnknownLease,
}

impl fmt::Display for ManagerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ManagerError::UnknownNode => write!(f, "node not registered"),
            ManagerError::NoCapacity => write!(f, "no donated capacity satisfies the request"),
            ManagerError::PolicyRejected(r) => write!(f, "co-location policy rejected: {r}"),
            ManagerError::UnknownLease => write!(f, "unknown lease"),
        }
    }
}

impl std::error::Error for ManagerError {}

/// Outcome of `remove_resources`.
#[derive(Debug)]
pub struct RemovalReport {
    pub cancelled_leases: Vec<LeaseId>,
    pub evicted_containers: usize,
    pub graceful: bool,
}

/// The global resource manager.
pub struct ResourceManager {
    donations: HashMap<NodeId, Donation>,
    pub leases: LeaseManager,
    lease_nodes: HashMap<LeaseId, NodeId>,
    lease_reqs: HashMap<LeaseId, FunctionRequirements>,
    pub warm_pool: WarmPool,
    pub policy: ColocationPolicy,
    default_lease: SimTime,
}

impl Default for ResourceManager {
    fn default() -> Self {
        Self::new()
    }
}

impl ResourceManager {
    pub fn new() -> Self {
        ResourceManager {
            donations: HashMap::new(),
            leases: LeaseManager::new(),
            lease_nodes: HashMap::new(),
            lease_reqs: HashMap::new(),
            warm_pool: WarmPool::new(),
            policy: ColocationPolicy::default(),
            default_lease: SimTime::from_mins(5),
        }
    }

    /// **B1**: register donated resources. Donated memory beyond a safety
    /// margin becomes the node's warm-pool budget.
    pub fn register_resources(
        &mut self,
        node: NodeId,
        capacity: FunctionRequirements,
        source: DonationSource,
        batch_demand: Option<Demand>,
        hardware: NodeCapacity,
    ) {
        // Half the donated memory hosts warm containers; the rest stays for
        // live invocations.
        self.warm_pool.set_budget(node, capacity.memory_mb / 2);
        self.donations.insert(
            node,
            Donation {
                node,
                capacity,
                used: FunctionRequirements::cpu(0.0, 0),
                source,
                batch_demand,
                hardware,
            },
        );
    }

    /// **B2**: reclaim a node for the batch system.
    pub fn remove_resources(&mut self, node: NodeId, immediate: bool) -> RemovalReport {
        let cancelled = self.leases.active_on(node);
        for id in &cancelled {
            let _ = self.leases.cancel(*id, !immediate);
            // The donation disappears with the node: these leases no longer
            // hold accountable resources (a later `release_lease` must not
            // debit whatever donation replaces this one).
            self.lease_nodes.remove(id);
            self.lease_reqs.remove(id);
        }
        let evicted: Vec<WarmContainer> = self.warm_pool.reclaim_node(node);
        self.donations.remove(&node);
        RemovalReport {
            cancelled_leases: cancelled,
            evicted_containers: evicted.len(),
            graceful: !immediate,
        }
    }

    pub fn registered_nodes(&self) -> usize {
        self.donations.len()
    }

    pub fn donation(&self, node: NodeId) -> Option<&Donation> {
        self.donations.get(&node)
    }

    pub fn pool_stats(&self) -> PoolStats {
        self.warm_pool.stats()
    }

    /// Choose a node for `function`: prefer nodes with a warm container for
    /// its image, then most-free-cores first. Co-location with a batch job
    /// passes through the policy engine (Fig. 4).
    fn place(&self, function: &FunctionDef) -> Result<NodeId, ManagerError> {
        let warm_nodes = self.warm_pool.nodes_with(function.image.id);
        let mut candidates: Vec<&Donation> = self
            .donations
            .values()
            .filter(|d| d.fits(&function.requirements))
            .collect();
        if candidates.is_empty() {
            return Err(ManagerError::NoCapacity);
        }
        candidates.sort_by(|a, b| {
            let aw = warm_nodes.contains(&a.node);
            let bw = warm_nodes.contains(&b.node);
            bw.cmp(&aw)
                .then_with(|| {
                    b.free()
                        .cores
                        .partial_cmp(&a.free().cores)
                        .expect("finite cores")
                })
                .then_with(|| a.node.cmp(&b.node))
        });

        let mut last_reject = None;
        for d in candidates {
            match d.source {
                DonationSource::IdleNode => return Ok(d.node),
                DonationSource::SharedJob { batch_nodes } => {
                    let batch = d
                        .batch_demand
                        .as_ref()
                        .expect("shared donations carry the batch demand");
                    let decision = self.policy.decide(
                        &d.hardware,
                        batch,
                        batch_nodes,
                        true,
                        &function.demand,
                        function.requirements.memory_mb,
                        d.free().cores,
                        d.free().memory_mb,
                    );
                    match decision {
                        Decision::Colocate { .. } => return Ok(d.node),
                        Decision::Reject { reason } => {
                            last_reject = Some(format!("{reason:?}"));
                        }
                    }
                }
            }
        }
        Err(last_reject
            .map(ManagerError::PolicyRejected)
            .unwrap_or(ManagerError::NoCapacity))
    }

    /// Grant a lease for `function`. Returns the lease id, the chosen node,
    /// and whether a warm container was adopted.
    pub fn request_lease(
        &mut self,
        function: &FunctionDef,
        now: SimTime,
    ) -> Result<(LeaseId, NodeId, bool), ManagerError> {
        let node = self.place(function)?;
        let warm = self.warm_pool.take(function.image.id, Some(node));
        let adopted = match &warm {
            Some(c) if c.node == node => true,
            Some(c) => {
                // Warm container on another node: put it back, not useful.
                let _ = self.warm_pool.park(c.clone());
                false
            }
            None => false,
        };
        let d = self.donations.get_mut(&node).expect("placed on known node");
        d.used.cores += function.requirements.cores;
        d.used.memory_mb += function.requirements.memory_mb;
        d.used.gpus += function.requirements.gpus;
        let id = self
            .leases
            .grant(node, function.requirements, now, self.default_lease);
        self.lease_nodes.insert(id, node);
        self.lease_reqs.insert(id, function.requirements);
        Ok((id, node, adopted))
    }

    /// Release a lease's resources; optionally park the sandbox back into
    /// the warm pool for future invocations.
    pub fn release_lease(
        &mut self,
        id: LeaseId,
        park: Option<WarmContainer>,
    ) -> Result<(), ManagerError> {
        let node = self
            .lease_nodes
            .remove(&id)
            .ok_or(ManagerError::UnknownLease)?;
        let req = self.lease_reqs.remove(&id).expect("paired with node");
        if let Some(d) = self.donations.get_mut(&node) {
            d.used.cores = (d.used.cores - req.cores).max(0.0);
            d.used.memory_mb = d.used.memory_mb.saturating_sub(req.memory_mb);
            d.used.gpus = d.used.gpus.saturating_sub(req.gpus);
        }
        if self.leases.get(id).map(|l| l.state) == Some(LeaseState::Active) {
            let _ = self.leases.cancel(id, false);
        }
        if let Some(c) = park {
            let _ = self.warm_pool.park(c);
        }
        Ok(())
    }

    /// The contention slowdown currently experienced by a function placed on
    /// `node` (batch job + the function itself).
    pub fn slowdown_on(&self, node: NodeId, function_demand: &Demand) -> f64 {
        let Some(d) = self.donations.get(&node) else {
            return 1.0;
        };
        let mut demands = Vec::new();
        if let Some(b) = &d.batch_demand {
            demands.push(b.clone());
        }
        demands.push(function_demand.clone());
        let s = interference::slowdowns(&d.hardware, &demands);
        *s.last().expect("function demand present")
    }

    /// The batch job's overhead (%) caused by functions on `node`.
    pub fn batch_overhead_on(&self, node: NodeId, function_demands: &[Demand]) -> f64 {
        let Some(d) = self.donations.get(&node) else {
            return 0.0;
        };
        let Some(batch) = &d.batch_demand else {
            return 0.0;
        };
        interference::model::colocation_overhead_pct(&d.hardware, batch, function_demands)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::functions::FunctionRegistry;
    use containers::{ContainerImage, ContainerRuntime};
    use interference::profiles::WorkloadProfile;
    use interference::{NasClass, NasKernel};

    fn registry_with(
        name: &str,
        profile: &WorkloadProfile,
        cores: f64,
    ) -> (FunctionRegistry, crate::FunctionId) {
        let mut reg = FunctionRegistry::new();
        let mut demand = profile.per_rank.clone();
        demand.cores = cores;
        let id = reg.register(
            name,
            ContainerImage::new(1, name, 30.0),
            ContainerRuntime::Sarus,
            FunctionRequirements::cpu(cores, 2048),
            SimTime::from_secs_f64(profile.serial_runtime_s),
            demand,
        );
        (reg, id)
    }

    fn idle_donation() -> FunctionRequirements {
        FunctionRequirements::cpu(36.0, 100 * 1024)
    }

    #[test]
    fn register_lease_release_cycle() {
        let mut mgr = ResourceManager::new();
        mgr.register_resources(
            NodeId(0),
            idle_donation(),
            DonationSource::IdleNode,
            None,
            NodeCapacity::daint_mc(),
        );
        let ep = WorkloadProfile::nas(NasKernel::Ep, NasClass::W);
        let (reg, id) = registry_with("ep", &ep, 1.0);
        let f = reg.get(id).unwrap().clone();
        let (lease, node, adopted) = mgr.request_lease(&f, SimTime::ZERO).unwrap();
        assert_eq!(node, NodeId(0));
        assert!(!adopted, "no warm container yet");
        assert!((mgr.donation(node).unwrap().free().cores - 35.0).abs() < 1e-9);
        mgr.release_lease(lease, None).unwrap();
        assert!((mgr.donation(node).unwrap().free().cores - 36.0).abs() < 1e-9);
    }

    #[test]
    fn no_capacity_error() {
        let mut mgr = ResourceManager::new();
        let ep = WorkloadProfile::nas(NasKernel::Ep, NasClass::W);
        let (reg, id) = registry_with("ep", &ep, 1.0);
        let f = reg.get(id).unwrap().clone();
        assert_eq!(
            mgr.request_lease(&f, SimTime::ZERO).unwrap_err(),
            ManagerError::NoCapacity
        );
    }

    #[test]
    fn removal_cancels_leases_and_evicts_pool() {
        let mut mgr = ResourceManager::new();
        mgr.register_resources(
            NodeId(3),
            idle_donation(),
            DonationSource::IdleNode,
            None,
            NodeCapacity::daint_mc(),
        );
        let ep = WorkloadProfile::nas(NasKernel::Ep, NasClass::W);
        let (reg, id) = registry_with("ep", &ep, 1.0);
        let f = reg.get(id).unwrap().clone();
        let (lease, node, _) = mgr.request_lease(&f, SimTime::ZERO).unwrap();
        // Park a warm container, then reclaim.
        let _ = mgr.warm_pool.park(WarmContainer {
            image: f.image.id,
            node,
            memory_mb: 1024,
            parked_at: SimTime::ZERO,
        });
        let report = mgr.remove_resources(node, true);
        assert_eq!(report.cancelled_leases, vec![lease]);
        assert_eq!(report.evicted_containers, 1);
        assert!(!report.graceful);
        assert_eq!(mgr.registered_nodes(), 0);
    }

    #[test]
    fn graceful_removal_drains() {
        let mut mgr = ResourceManager::new();
        mgr.register_resources(
            NodeId(3),
            idle_donation(),
            DonationSource::IdleNode,
            None,
            NodeCapacity::daint_mc(),
        );
        let ep = WorkloadProfile::nas(NasKernel::Ep, NasClass::W);
        let (reg, id) = registry_with("ep", &ep, 1.0);
        let f = reg.get(id).unwrap().clone();
        let (lease, _, _) = mgr.request_lease(&f, SimTime::ZERO).unwrap();
        let report = mgr.remove_resources(NodeId(3), false);
        assert!(report.graceful);
        assert_eq!(mgr.leases.get(lease).unwrap().state, LeaseState::Draining);
    }

    #[test]
    fn warm_node_preferred() {
        let mut mgr = ResourceManager::new();
        for n in [0u32, 1] {
            mgr.register_resources(
                NodeId(n),
                idle_donation(),
                DonationSource::IdleNode,
                None,
                NodeCapacity::daint_mc(),
            );
        }
        let ep = WorkloadProfile::nas(NasKernel::Ep, NasClass::W);
        let (reg, id) = registry_with("ep", &ep, 1.0);
        let f = reg.get(id).unwrap().clone();
        // Warm container lives on node 1.
        mgr.warm_pool
            .park(WarmContainer {
                image: f.image.id,
                node: NodeId(1),
                memory_mb: 512,
                parked_at: SimTime::ZERO,
            })
            .unwrap();
        let (_, node, adopted) = mgr.request_lease(&f, SimTime::ZERO).unwrap();
        assert_eq!(node, NodeId(1), "placement targets the warm container");
        assert!(adopted);
    }

    #[test]
    fn policy_guards_shared_nodes() {
        let mut mgr = ResourceManager::new();
        // A MILC-heavy shared node: memory-bound aggressors must be refused.
        let milc = WorkloadProfile::milc(128).on_node(32);
        mgr.register_resources(
            NodeId(0),
            FunctionRequirements::cpu(4.0, 32 * 1024),
            DonationSource::SharedJob { batch_nodes: 2 },
            Some(milc),
            NodeCapacity::daint_mc(),
        );
        let cg = WorkloadProfile::nas(NasKernel::Cg, NasClass::B);
        let (reg, id) = registry_with("cg", &cg, 4.0);
        let f = reg.get(id).unwrap().clone();
        let err = mgr.request_lease(&f, SimTime::ZERO).unwrap_err();
        assert!(matches!(err, ManagerError::PolicyRejected(_)), "{err:?}");
        // A compute-bound function is fine.
        let ep = WorkloadProfile::nas(NasKernel::Ep, NasClass::W);
        let (reg2, id2) = registry_with("ep", &ep, 4.0);
        let f2 = reg2.get(id2).unwrap().clone();
        assert!(mgr.request_lease(&f2, SimTime::ZERO).is_ok());
    }

    #[test]
    fn slowdown_reflects_colocation() {
        let mut mgr = ResourceManager::new();
        let milc = WorkloadProfile::milc(96).on_node(32);
        mgr.register_resources(
            NodeId(0),
            FunctionRequirements::cpu(4.0, 32 * 1024),
            DonationSource::SharedJob { batch_nodes: 2 },
            Some(milc),
            NodeCapacity::daint_mc(),
        );
        let cg = WorkloadProfile::nas(NasKernel::Cg, NasClass::A);
        let s = mgr.slowdown_on(NodeId(0), &cg.on_node(4));
        assert!(s > 1.0, "function feels the batch job: {s}");
        let off = mgr.slowdown_on(NodeId(99), &cg.on_node(4));
        assert_eq!(off, 1.0);
    }
}
