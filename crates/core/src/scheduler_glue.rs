//! Batch-system integration (Fig. 6): the bridge that watches the cluster
//! and keeps the rFaaS resource pool in sync.
//!
//! * **Step I** — idle nodes and the spare slices of opted-in shared jobs are
//!   registered with the resource manager (B1) the moment they appear;
//! * **Step II** — co-located executors serve invocations; the batch
//!   scheduler keeps scheduling jobs normally;
//! * **Step III** — when the scheduler needs a node back it calls reclaim;
//!   the bridge de-registers the donation (B2) before the job starts.

use crate::functions::FunctionRequirements;
use crate::manager::{DonationSource, ResourceManager};
use cluster::{Cluster, JobState};
use fabric::NodeId;
use interference::{NodeCapacity, WorkloadProfile};
use serde::Serialize;
use std::collections::{HashMap, HashSet};

/// Synchronisation statistics.
#[derive(Debug, Clone, Copy, Default, Serialize)]
pub struct SyncReport {
    pub registered: usize,
    pub reclaimed: usize,
}

/// The bridge state: which nodes we donated and why.
#[derive(Debug)]
pub struct SchedulerBridge {
    donated: HashSet<NodeId>,
    /// Cores/memory reserved on each donated node for executor management
    /// (the paper keeps 1-2 cores free to handle invocations).
    pub management_cores: u32,
    /// Workload profiles by job tag, for building batch demand vectors.
    profiles: HashMap<String, WorkloadProfile>,
    pub hardware: NodeCapacity,
}

impl SchedulerBridge {
    pub fn new(hardware: NodeCapacity) -> Self {
        SchedulerBridge {
            donated: HashSet::new(),
            management_cores: 1,
            profiles: HashMap::new(),
            hardware,
        }
    }

    /// Register an application profile so shared-job donations carry a
    /// demand vector (the paper's per-application history, Sec. III-E).
    pub fn add_profile(&mut self, tag: &str, profile: WorkloadProfile) {
        self.profiles.insert(tag.to_string(), profile);
    }

    pub fn donated_nodes(&self) -> usize {
        self.donated.len()
    }

    /// One synchronisation pass: donate newly idle nodes and newly started
    /// shared jobs' spares; reclaim donations the scheduler took back.
    pub fn sync(&mut self, cluster: &Cluster, mgr: &mut ResourceManager) -> SyncReport {
        let mut report = SyncReport::default();
        let mut should_be_donated: HashMap<
            NodeId,
            (
                FunctionRequirements,
                DonationSource,
                Option<interference::Demand>,
            ),
        > = HashMap::new();

        for node in cluster.nodes() {
            if node.is_idle() {
                should_be_donated.insert(
                    node.id,
                    (
                        FunctionRequirements {
                            cores: f64::from(node.capacity.cores),
                            memory_mb: node.capacity.memory_mb,
                            gpus: node.capacity.gpus,
                        },
                        DonationSource::IdleNode,
                        None,
                    ),
                );
                continue;
            }
            // Shared nodes: donate the free slice if every occupant opted in.
            let jobs: Vec<_> = node.jobs().collect();
            if jobs.is_empty() || node.exclusive_holder().is_some() {
                continue;
            }
            let all_shared = jobs.iter().all(|jid| {
                cluster
                    .job(*jid)
                    .map(|j| j.spec.shared && j.state == JobState::Running)
                    .unwrap_or(false)
            });
            if !all_shared {
                continue;
            }
            let free = node.free();
            if f64::from(free.cores) <= f64::from(self.management_cores) {
                continue;
            }
            // Demand of the co-resident jobs, from registered profiles.
            let mut demand: Option<interference::Demand> = None;
            let mut batch_nodes = 0;
            for jid in &jobs {
                let job = cluster.job(*jid).expect("listed job exists");
                batch_nodes = batch_nodes.max(job.spec.nodes);
                if let Some(p) = self.profiles.get(&job.spec.tag) {
                    let d = p.on_node(job.spec.per_node.cores);
                    demand = Some(match demand {
                        None => d,
                        Some(mut acc) => {
                            acc.cores += d.cores;
                            acc.membw_bps += d.membw_bps;
                            acc.llc_mb += d.llc_mb;
                            acc.net_bps += d.net_bps;
                            acc
                        }
                    });
                }
            }
            let Some(demand) = demand else {
                // No profile -> no requirement model -> don't donate.
                continue;
            };
            should_be_donated.insert(
                node.id,
                (
                    FunctionRequirements {
                        cores: f64::from(free.cores),
                        memory_mb: free.memory_mb,
                        gpus: free.gpus,
                    },
                    DonationSource::SharedJob { batch_nodes },
                    Some(demand),
                ),
            );
        }

        // Reclaim nodes no longer donatable (Step III / B2), and nodes whose
        // donation *changed shape* (an idle node picked up a shared job, or
        // vice versa): a stale registration would let functions bypass the
        // co-location policy or claim cores the batch job now owns.
        let stale: Vec<NodeId> = self
            .donated
            .iter()
            .filter(|n| match should_be_donated.get(n) {
                None => true,
                Some((capacity, source, _)) => mgr
                    .donation(**n)
                    .map(|d| d.source != *source || d.capacity != *capacity)
                    .unwrap_or(true),
            })
            .copied()
            .collect();
        for node in stale {
            mgr.remove_resources(node, false);
            self.donated.remove(&node);
            report.reclaimed += 1;
        }

        // Register new donations (Step I / B1).
        for (node, (capacity, source, demand)) in should_be_donated {
            if self.donated.insert(node) {
                mgr.register_resources(node, capacity, source, demand, self.hardware);
                report.registered += 1;
            }
        }
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cluster::{JobSpec, NodeResources};
    use des::SimTime;
    use interference::{NasClass, NasKernel};

    fn cluster4() -> Cluster {
        Cluster::homogeneous(4, NodeResources::daint_mc())
    }

    #[test]
    fn idle_nodes_are_donated_then_reclaimed() {
        let mut c = cluster4();
        let mut mgr = ResourceManager::new();
        let mut bridge = SchedulerBridge::new(NodeCapacity::daint_mc());
        let r = bridge.sync(&c, &mut mgr);
        assert_eq!(r.registered, 4);
        assert_eq!(mgr.registered_nodes(), 4);

        // A 2-node exclusive job arrives: those nodes must be reclaimed.
        let spec = JobSpec::exclusive(
            2,
            NodeResources::daint_mc(),
            SimTime::from_mins(30),
            "lulesh",
        );
        c.submit(spec, SimTime::from_mins(30), SimTime::ZERO);
        c.try_schedule(SimTime::ZERO);
        let r = bridge.sync(&c, &mut mgr);
        assert_eq!(r.reclaimed, 2);
        assert_eq!(mgr.registered_nodes(), 2);
    }

    #[test]
    fn shared_job_spares_donated_with_demand() {
        let mut c = cluster4();
        let mut mgr = ResourceManager::new();
        let mut bridge = SchedulerBridge::new(NodeCapacity::daint_mc());
        bridge.add_profile("lulesh", WorkloadProfile::lulesh(20));
        // LULESH on 32/36 cores of 2 nodes, shared.
        let spec = JobSpec::shared(
            2,
            NodeResources {
                cores: 32,
                memory_mb: 64 * 1024,
                gpus: 0,
            },
            SimTime::from_mins(30),
            "lulesh",
        );
        c.submit(spec, SimTime::from_mins(30), SimTime::ZERO);
        c.try_schedule(SimTime::ZERO);
        let r = bridge.sync(&c, &mut mgr);
        assert_eq!(r.registered, 4, "2 idle + 2 shared-spare donations");
        // The shared nodes donate 4 cores each.
        let shared_donations: Vec<_> = (0..4)
            .filter_map(|i| mgr.donation(NodeId(i)))
            .filter(|d| matches!(d.source, DonationSource::SharedJob { .. }))
            .collect();
        assert_eq!(shared_donations.len(), 2);
        for d in shared_donations {
            assert!((d.capacity.cores - 4.0).abs() < 1e-9);
            assert!(d.batch_demand.is_some());
        }
    }

    #[test]
    fn unprofiled_shared_jobs_not_donated() {
        let mut c = cluster4();
        let mut mgr = ResourceManager::new();
        let mut bridge = SchedulerBridge::new(NodeCapacity::daint_mc());
        let spec = JobSpec::shared(
            1,
            NodeResources {
                cores: 20,
                memory_mb: 32 * 1024,
                gpus: 0,
            },
            SimTime::from_mins(30),
            "mystery-app",
        );
        c.submit(spec, SimTime::from_mins(30), SimTime::ZERO);
        c.try_schedule(SimTime::ZERO);
        let r = bridge.sync(&c, &mut mgr);
        assert_eq!(r.registered, 3, "only the idle nodes");
    }

    #[test]
    fn exclusive_jobs_never_donate_spares() {
        let mut c = cluster4();
        let mut mgr = ResourceManager::new();
        let mut bridge = SchedulerBridge::new(NodeCapacity::daint_mc());
        bridge.add_profile("bt", WorkloadProfile::nas(NasKernel::Bt, NasClass::A));
        let spec = JobSpec::exclusive(
            1,
            NodeResources {
                cores: 20,
                memory_mb: 32 * 1024,
                gpus: 0,
            },
            SimTime::from_mins(30),
            "bt",
        );
        c.submit(spec, SimTime::from_mins(30), SimTime::ZERO);
        c.try_schedule(SimTime::ZERO);
        bridge.sync(&c, &mut mgr);
        assert!(
            mgr.donation(NodeId(0)).is_none(),
            "exclusive node holds back its 16 spare cores"
        );
    }

    #[test]
    fn resync_is_idempotent() {
        let c = cluster4();
        let mut mgr = ResourceManager::new();
        let mut bridge = SchedulerBridge::new(NodeCapacity::daint_mc());
        bridge.sync(&c, &mut mgr);
        let r = bridge.sync(&c, &mut mgr);
        assert_eq!(r.registered, 0);
        assert_eq!(r.reclaimed, 0);
        assert_eq!(bridge.donated_nodes(), 4);
    }

    #[test]
    fn shared_demand_sums_in_allocation_order() {
        // Regression: `Node::jobs` used to iterate a `RandomState` map, so
        // the `f64` demand of three co-resident jobs was summed in an order
        // that changed from one cluster instance to the next. With these
        // three profiles four of the five other orders round differently.
        let jobs = [
            ("lulesh", WorkloadProfile::lulesh(18), 11),
            ("cg", WorkloadProfile::nas(NasKernel::Cg, NasClass::A), 7),
            ("ft", WorkloadProfile::nas(NasKernel::Ft, NasClass::A), 13),
        ];
        let mut expected = jobs[0].1.on_node(jobs[0].2);
        for (_, profile, cores) in &jobs[1..] {
            let d = profile.on_node(*cores);
            expected.cores += d.cores;
            expected.membw_bps += d.membw_bps;
            expected.llc_mb += d.llc_mb;
            expected.net_bps += d.net_bps;
        }
        for _ in 0..16 {
            let mut c = Cluster::homogeneous(1, NodeResources::daint_mc());
            let mut mgr = ResourceManager::new();
            let mut bridge = SchedulerBridge::new(NodeCapacity::daint_mc());
            for (tag, profile, cores) in &jobs {
                bridge.add_profile(tag, profile.clone());
                let per_node = NodeResources {
                    cores: *cores,
                    memory_mb: 8 * 1024,
                    gpus: 0,
                };
                let spec = JobSpec::shared(1, per_node, SimTime::from_mins(30), tag);
                c.submit(spec, SimTime::from_mins(30), SimTime::ZERO);
            }
            let (started, _) = c.try_schedule(SimTime::ZERO);
            let on_node: Vec<_> = c.node(NodeId(0)).unwrap().jobs().collect();
            assert_eq!(on_node, started, "jobs() yields allocation order");
            bridge.sync(&c, &mut mgr);
            let got = mgr
                .donation(NodeId(0))
                .and_then(|d| d.batch_demand.clone())
                .expect("shared node donated with a demand vector");
            for (got, want) in [
                (got.cores, expected.cores),
                (got.membw_bps, expected.membw_bps),
                (got.llc_mb, expected.llc_mb),
                (got.net_bps, expected.net_bps),
            ] {
                assert_eq!(got.to_bits(), want.to_bits());
            }
        }
    }
}
