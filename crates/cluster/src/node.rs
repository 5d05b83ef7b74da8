//! Compute node model: capacity, per-job allocations, idle tracking.

use des::SimTime;
use fabric::NodeId;
use serde::{Deserialize, Serialize};

use crate::job::JobId;

/// Static hardware capacity of a node.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct NodeResources {
    pub cores: u32,
    pub memory_mb: u64,
    pub gpus: u32,
}

impl NodeResources {
    /// Piz Daint multicore node: 2×18 cores, 128 GB (Sec. V).
    pub fn daint_mc() -> Self {
        NodeResources {
            cores: 36,
            memory_mb: 128 * 1024,
            gpus: 0,
        }
    }

    /// Piz Daint hybrid GPU node: 12 cores, 64 GB, one P100.
    pub fn daint_gpu() -> Self {
        NodeResources {
            cores: 12,
            memory_mb: 64 * 1024,
            gpus: 1,
        }
    }

    /// Ault node: 2×18-core Xeon Gold, 377 GB.
    pub fn ault() -> Self {
        NodeResources {
            cores: 36,
            memory_mb: 377 * 1024,
            gpus: 0,
        }
    }

    pub fn fits(&self, other: &NodeResources) -> bool {
        self.cores >= other.cores && self.memory_mb >= other.memory_mb && self.gpus >= other.gpus
    }
}

/// Scheduler-relevant node state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum NodeState {
    /// No jobs assigned.
    Idle,
    /// At least one job, spare capacity may remain.
    Allocated,
    /// Being emptied to satisfy a reservation or maintenance.
    Draining,
    /// Unavailable.
    Down,
}

/// A compute node with live allocation bookkeeping.
#[derive(Debug, Clone)]
pub struct Node {
    pub id: NodeId,
    pub capacity: NodeResources,
    /// Per-job shares in allocation order. A node holds zero to a few jobs,
    /// so a linear scan beats hashing, and the fixed order keeps everything
    /// derived from [`Node::jobs`] (e.g. summed `f64` demand vectors)
    /// reproducible from one process to the next.
    allocations: Vec<(JobId, NodeResources)>,
    /// Running sum of `allocations`, kept so `used`/`free` are O(1).
    used: NodeResources,
    state: NodeState,
    /// Job holding the node exclusively (SLURM default: the whole node
    /// belongs to the job even if it requested fewer cores).
    exclusive_holder: Option<JobId>,
    /// When the node last became idle (for idle-period statistics).
    idle_since: Option<SimTime>,
}

impl Node {
    pub fn new(id: NodeId, capacity: NodeResources) -> Self {
        Node {
            id,
            capacity,
            allocations: Vec::new(),
            used: NodeResources::default(),
            state: NodeState::Idle,
            exclusive_holder: None,
            idle_since: Some(SimTime::ZERO),
        }
    }

    pub fn state(&self) -> NodeState {
        self.state
    }

    pub fn set_down(&mut self) {
        self.state = NodeState::Down;
        self.idle_since = None;
    }

    pub fn set_draining(&mut self) {
        if self.state != NodeState::Down {
            self.state = NodeState::Draining;
        }
    }

    /// Resources currently in use by jobs.
    pub fn used(&self) -> NodeResources {
        self.used
    }

    /// Spare capacity.
    pub fn free(&self) -> NodeResources {
        NodeResources {
            cores: self.capacity.cores - self.used.cores,
            memory_mb: self.capacity.memory_mb - self.used.memory_mb,
            gpus: self.capacity.gpus - self.used.gpus,
        }
    }

    pub fn is_idle(&self) -> bool {
        self.allocations.is_empty() && self.state == NodeState::Idle
    }

    pub fn idle_since(&self) -> Option<SimTime> {
        self.idle_since
    }

    /// Jobs holding a share of this node, in allocation order.
    pub fn jobs(&self) -> impl Iterator<Item = JobId> + '_ {
        self.allocations.iter().map(|&(job, _)| job)
    }

    pub fn job_count(&self) -> usize {
        self.allocations.len()
    }

    /// Job that holds this node exclusively, if any.
    pub fn exclusive_holder(&self) -> Option<JobId> {
        self.exclusive_holder
    }

    /// Can this node accept `req` for a job with the given sharing mode?
    /// Exclusive jobs need a completely empty node; shared jobs need spare
    /// capacity and no exclusive occupant.
    pub fn can_host(&self, req: &NodeResources, shared: bool) -> bool {
        if self.state != NodeState::Idle && self.state != NodeState::Allocated {
            return false;
        }
        if self.exclusive_holder.is_some() {
            return false;
        }
        if !shared {
            self.allocations.is_empty() && self.capacity.fits(req)
        } else {
            self.free().fits(req)
        }
    }

    /// Allocate `req` to `job`. Returns the idle period that just ended, if
    /// the node was idle (used by the monitor's ground-truth idle tracking).
    /// `exclusive` jobs keep the remaining resources unusable by others but
    /// are accounted at their *requested* size (so the memory-split and
    /// billing analyses can distinguish used from blocked-but-free).
    pub fn allocate(
        &mut self,
        job: JobId,
        req: NodeResources,
        exclusive: bool,
        now: SimTime,
    ) -> Option<SimTime> {
        debug_assert!(self.free().fits(&req), "allocation exceeds node capacity");
        debug_assert!(
            !exclusive || self.allocations.is_empty(),
            "exclusive allocation on busy node"
        );
        let idle_period = self
            .idle_since
            .take()
            .map(|since| now.saturating_sub(since));
        debug_assert!(
            self.jobs().all(|j| j != job),
            "job allocated twice on one node"
        );
        self.allocations.push((job, req));
        self.used.cores += req.cores;
        self.used.memory_mb += req.memory_mb;
        self.used.gpus += req.gpus;
        if exclusive {
            self.exclusive_holder = Some(job);
        }
        self.state = NodeState::Allocated;
        idle_period
    }

    /// Release a job's share. Returns `true` if the node became idle.
    pub fn release(&mut self, job: JobId, now: SimTime) -> bool {
        if let Some(pos) = self.allocations.iter().position(|&(j, _)| j == job) {
            // `remove`, not `swap_remove`: the survivors keep their order.
            let (_, share) = self.allocations.remove(pos);
            self.used.cores -= share.cores;
            self.used.memory_mb -= share.memory_mb;
            self.used.gpus -= share.gpus;
        }
        if self.exclusive_holder == Some(job) {
            self.exclusive_holder = None;
        }
        if self.allocations.is_empty() {
            if self.state == NodeState::Allocated {
                self.state = NodeState::Idle;
            }
            self.idle_since = Some(now);
            true
        } else {
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(cores: u32, mem: u64, gpus: u32) -> NodeResources {
        NodeResources {
            cores,
            memory_mb: mem,
            gpus,
        }
    }

    #[test]
    fn presets_match_paper() {
        let mc = NodeResources::daint_mc();
        assert_eq!(mc.cores, 36);
        assert_eq!(mc.memory_mb, 128 * 1024);
        let gpu = NodeResources::daint_gpu();
        assert_eq!(gpu.cores, 12);
        assert_eq!(gpu.gpus, 1);
    }

    #[test]
    fn allocate_and_free_accounting() {
        let mut n = Node::new(NodeId(0), NodeResources::daint_mc());
        assert!(n.is_idle());
        n.allocate(
            JobId(1),
            req(32, 64 * 1024, 0),
            false,
            SimTime::from_secs(10),
        );
        assert!(!n.is_idle());
        assert_eq!(n.free(), req(4, 64 * 1024, 0));
        n.allocate(JobId(2), req(4, 1024, 0), false, SimTime::from_secs(20));
        assert_eq!(n.free(), req(0, 63 * 1024, 0));
        assert!(!n.release(JobId(1), SimTime::from_secs(30)));
        assert!(n.release(JobId(2), SimTime::from_secs(40)));
        assert!(n.is_idle());
        assert_eq!(n.idle_since(), Some(SimTime::from_secs(40)));
    }

    #[test]
    fn jobs_iterate_in_allocation_order() {
        let mut n = Node::new(NodeId(0), NodeResources::daint_mc());
        for id in [7, 2, 9] {
            n.allocate(JobId(id), req(4, 1024, 0), false, SimTime::ZERO);
        }
        assert_eq!(n.jobs().collect::<Vec<_>>(), [JobId(7), JobId(2), JobId(9)]);
        n.release(JobId(2), SimTime::from_secs(1));
        n.allocate(JobId(4), req(4, 1024, 0), false, SimTime::from_secs(2));
        assert_eq!(n.jobs().collect::<Vec<_>>(), [JobId(7), JobId(9), JobId(4)]);
        assert_eq!(n.used(), req(12, 3 * 1024, 0));
    }

    #[test]
    fn idle_period_reported_on_allocation() {
        let mut n = Node::new(NodeId(0), NodeResources::daint_mc());
        let period = n.allocate(JobId(1), req(1, 1, 0), false, SimTime::from_secs(300));
        assert_eq!(period, Some(SimTime::from_secs(300)));
        n.release(JobId(1), SimTime::from_secs(400));
        let period = n.allocate(JobId(2), req(1, 1, 0), false, SimTime::from_secs(460));
        assert_eq!(period, Some(SimTime::from_secs(60)));
    }

    #[test]
    fn exclusive_requires_empty_node() {
        let mut n = Node::new(NodeId(0), NodeResources::daint_mc());
        assert!(n.can_host(&req(36, 1024, 0), false));
        n.allocate(JobId(1), req(1, 1024, 0), false, SimTime::ZERO);
        assert!(!n.can_host(&req(1, 1, 0), false), "exclusive on busy node");
        assert!(n.can_host(&req(1, 1, 0), true), "shared fits in spare");
    }

    #[test]
    fn shared_bounded_by_free_capacity() {
        let mut n = Node::new(NodeId(0), NodeResources::daint_mc());
        n.allocate(JobId(1), req(30, 100 * 1024, 0), false, SimTime::ZERO);
        assert!(n.can_host(&req(6, 28 * 1024, 0), true));
        assert!(!n.can_host(&req(7, 1, 0), true));
        assert!(!n.can_host(&req(1, 29 * 1024, 0), true));
    }

    #[test]
    fn down_and_draining_reject_work() {
        let mut n = Node::new(NodeId(0), NodeResources::daint_mc());
        n.set_draining();
        assert!(!n.can_host(&req(1, 1, 0), true));
        n.set_down();
        assert!(!n.can_host(&req(1, 1, 0), true));
        assert!(!n.is_idle());
    }

    #[test]
    fn gpu_gres_tracked() {
        let mut n = Node::new(NodeId(0), NodeResources::daint_gpu());
        assert!(n.can_host(&req(1, 1024, 1), true));
        n.allocate(JobId(1), req(1, 1024, 1), false, SimTime::ZERO);
        assert!(!n.can_host(&req(1, 1024, 1), true), "single GPU taken");
        assert!(n.can_host(&req(1, 1024, 0), true));
    }
}
