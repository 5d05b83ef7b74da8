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
//! policy before placing functions next to batch jobs. The lease map is the
//! only record of what a donation has handed out: a node's draw is the sum
//! of its leases that are usable at the time of asking.

use crate::functions::{FunctionDef, FunctionRequirements};
use crate::lease::{LeaseId, LeaseManager};
use containers::{PoolStats, WarmContainer, WarmPool};
use des::SimTime;
use fabric::NodeId;
use interference::{ColocationPolicy, Decision, Demand, NodeCapacity};
use std::collections::BTreeMap;
use std::fmt;

/// Where donated resources came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DonationSource {
    /// A fully idle node between batch jobs.
    IdleNode,
    /// Spare capacity on a node running an opted-in shared job.
    SharedJob { batch_nodes: u32 },
}

/// A node's donated capacity.
#[derive(Debug, Clone)]
pub struct Donation {
    pub node: NodeId,
    pub capacity: FunctionRequirements,
    pub source: DonationSource,
    /// Demand vector of the co-resident batch job (empty for idle nodes).
    pub batch_demand: Option<Demand>,
    pub hardware: NodeCapacity,
}

fn fits(free: &FunctionRequirements, req: &FunctionRequirements) -> bool {
    free.cores >= req.cores && free.memory_mb >= req.memory_mb && free.gpus >= req.gpus
}

/// Manager API errors.
#[derive(Debug, Clone, PartialEq)]
pub enum ManagerError {
    NoCapacity,
    PolicyRejected(String),
    /// The lease is unknown, or no longer active.
    UnknownLease,
}

impl fmt::Display for ManagerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
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
    donations: BTreeMap<NodeId, Donation>,
    pub leases: LeaseManager,
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
            donations: BTreeMap::new(),
            leases: LeaseManager::new(),
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
            self.leases.cancel(*id, !immediate);
        }
        let evicted_containers = self.warm_pool.reclaim_node(node);
        self.donations.remove(&node);
        RemovalReport {
            cancelled_leases: cancelled,
            evicted_containers,
            graceful: !immediate,
        }
    }

    pub fn registered_nodes(&self) -> usize {
        self.donations.len()
    }

    pub fn donation(&self, node: NodeId) -> Option<&Donation> {
        self.donations.get(&node)
    }

    /// Every registered donation, in node order.
    pub(crate) fn donations(&self) -> impl Iterator<Item = &Donation> {
        self.donations.values()
    }

    pub fn pool_stats(&self) -> PoolStats {
        self.warm_pool.stats()
    }

    /// What `d` has left once every lease usable at `now` on its node is
    /// counted: expired and cancelled leases hold nothing.
    fn free(&self, d: &Donation, now: SimTime) -> FunctionRequirements {
        let mut used = FunctionRequirements::cpu(0.0, 0);
        for lease in self.leases.usable_on(d.node, now) {
            used.cores += lease.resources.cores;
            used.memory_mb += lease.resources.memory_mb;
            used.gpus += lease.resources.gpus;
        }
        FunctionRequirements {
            cores: d.capacity.cores - used.cores,
            memory_mb: d.capacity.memory_mb.saturating_sub(used.memory_mb),
            gpus: d.capacity.gpus.saturating_sub(used.gpus),
        }
    }

    /// Choose a node for `function`: prefer nodes with a warm container for
    /// its image, then most-free-cores first. Co-location with a batch job
    /// passes through the policy engine (Fig. 4).
    fn place(&self, function: &FunctionDef, now: SimTime) -> Result<NodeId, ManagerError> {
        let warm_nodes = self.warm_pool.nodes_with(function.image.id);
        let mut candidates: Vec<(&Donation, FunctionRequirements)> = self
            .donations
            .values()
            .map(|d| (d, self.free(d, now)))
            .filter(|(_, free)| fits(free, &function.requirements))
            .collect();
        if candidates.is_empty() {
            return Err(ManagerError::NoCapacity);
        }
        candidates.sort_by(|(a, a_free), (b, b_free)| {
            let aw = warm_nodes.contains(&a.node);
            let bw = warm_nodes.contains(&b.node);
            bw.cmp(&aw)
                .then_with(|| {
                    b_free
                        .cores
                        .partial_cmp(&a_free.cores)
                        .expect("finite cores")
                })
                .then_with(|| a.node.cmp(&b.node))
        });

        let mut last_reject = None;
        for (d, free) in candidates {
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
                        free.cores,
                        free.memory_mb,
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
    /// and whether a warm container on that node was adopted.
    pub fn request_lease(
        &mut self,
        function: &FunctionDef,
        now: SimTime,
    ) -> Result<(LeaseId, NodeId, bool), ManagerError> {
        let node = self.place(function, now)?;
        let adopted = self.warm_pool.take(function.image.id, node).is_some();
        let id = self
            .leases
            .grant(node, function.requirements, now, self.default_lease);
        Ok((id, node, adopted))
    }

    /// Cancel an active lease, which returns its resources; optionally park
    /// the sandbox back into the warm pool for future invocations. A lease
    /// that is unknown or no longer active (already released, or cancelled
    /// by a reclaim) is `UnknownLease`.
    pub fn release_lease(
        &mut self,
        id: LeaseId,
        park: Option<WarmContainer>,
    ) -> Result<(), ManagerError> {
        self.leases
            .cancel(id, false)
            .ok_or(ManagerError::UnknownLease)?;
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::functions::FunctionRegistry;
    use crate::lease::LeaseState;
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
        let free_cores =
            |mgr: &ResourceManager| mgr.free(mgr.donation(node).unwrap(), SimTime::ZERO).cores;
        assert!((free_cores(&mgr) - 35.0).abs() < 1e-9);
        mgr.release_lease(lease, None).unwrap();
        assert!((free_cores(&mgr) - 36.0).abs() < 1e-9);
        assert_eq!(
            mgr.release_lease(lease, None),
            Err(ManagerError::UnknownLease),
            "a released lease is not released twice"
        );
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
    fn remote_warm_container_is_not_a_hit() {
        // The warm container sits on a node too small for the function, so
        // the lease lands elsewhere and must not count the container as a
        // hit (nor move it).
        let mut mgr = ResourceManager::new();
        for (n, cores) in [(0u32, 0.5), (1, 36.0)] {
            mgr.register_resources(
                NodeId(n),
                FunctionRequirements::cpu(cores, 100 * 1024),
                DonationSource::IdleNode,
                None,
                NodeCapacity::daint_mc(),
            );
        }
        let ep = WorkloadProfile::nas(NasKernel::Ep, NasClass::W);
        let (reg, id) = registry_with("ep", &ep, 1.0);
        let f = reg.get(id).unwrap().clone();
        mgr.warm_pool
            .park(WarmContainer {
                image: f.image.id,
                node: NodeId(0),
                memory_mb: 512,
                parked_at: SimTime::ZERO,
            })
            .unwrap();
        let (_, node, adopted) = mgr.request_lease(&f, SimTime::ZERO).unwrap();
        assert_eq!((node, adopted), (NodeId(1), false));
        let stats = mgr.pool_stats();
        assert_eq!((stats.hits, stats.misses), (0, 1));
        assert_eq!(mgr.warm_pool.nodes_with(f.image.id), vec![NodeId(0)]);
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
