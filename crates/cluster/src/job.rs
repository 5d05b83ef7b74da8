//! Batch job specification and lifecycle.

use crate::node::NodeResources;
use des::SimTime;
use fabric::NodeId;
use serde::{Deserialize, Serialize};

/// Unique job identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct JobId(pub u64);

impl std::fmt::Display for JobId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "job{}", self.0)
    }
}

/// What the user asked SLURM for.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobSpec {
    /// Number of nodes.
    pub nodes: u32,
    /// Per-node resource request.
    pub per_node: NodeResources,
    /// Requested wall-clock limit (used for backfill reservations).
    pub walltime: SimTime,
    /// Opt-in to node sharing (the paper's disaggregation opt-in policy,
    /// Sec. III-E: SLURM `--shared` flag or the designated partition).
    pub shared: bool,
    /// Human-readable tag (application name) used by the co-location history.
    pub tag: String,
}

impl JobSpec {
    /// Convenience constructor for an exclusive job.
    pub fn exclusive(nodes: u32, per_node: NodeResources, walltime: SimTime, tag: &str) -> Self {
        JobSpec {
            nodes,
            per_node,
            walltime,
            shared: false,
            tag: tag.to_string(),
        }
    }

    /// Convenience constructor for a shared (co-location-eligible) job.
    pub fn shared(nodes: u32, per_node: NodeResources, walltime: SimTime, tag: &str) -> Self {
        JobSpec {
            nodes,
            per_node,
            walltime,
            shared: true,
            tag: tag.to_string(),
        }
    }

    pub fn total_cores(&self) -> u64 {
        u64::from(self.nodes) * u64::from(self.per_node.cores)
    }
}

/// Lifecycle state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum JobState {
    Pending,
    Running,
    Completed,
    Cancelled,
}

/// A job tracked by the scheduler.
#[derive(Debug, Clone)]
pub struct Job {
    pub id: JobId,
    pub spec: JobSpec,
    pub state: JobState,
    pub submitted_at: SimTime,
    pub started_at: Option<SimTime>,
    pub finished_at: Option<SimTime>,
    /// Nodes assigned while running.
    pub assigned: Vec<NodeId>,
    /// Actual runtime (set by the trace; may be shorter than walltime).
    pub actual_runtime: SimTime,
}

impl Job {
    pub fn new(id: JobId, spec: JobSpec, submitted_at: SimTime, actual_runtime: SimTime) -> Self {
        Job {
            id,
            spec,
            state: JobState::Pending,
            submitted_at,
            started_at: None,
            finished_at: None,
            assigned: Vec::new(),
            actual_runtime,
        }
    }

    /// Queueing delay, if started.
    pub fn wait_time(&self) -> Option<SimTime> {
        self.started_at.map(|s| s.saturating_sub(self.submitted_at))
    }

    /// Wall-clock duration, if finished.
    pub fn runtime(&self) -> Option<SimTime> {
        match (self.started_at, self.finished_at) {
            (Some(s), Some(f)) => Some(f.saturating_sub(s)),
            _ => None,
        }
    }
}

/// Every job a cluster has seen, indexed by id. `Cluster::submit` hands out
/// ids `1, 2, 3, …`, so the table is a plain vector and a lookup is one
/// bounds check — the scheduler's backfill scan does several per pending
/// entry.
#[derive(Default)]
pub(crate) struct JobTable(Vec<Job>);

impl JobTable {
    /// Store a new pending job under the next sequential id.
    pub fn insert(&mut self, spec: JobSpec, submitted_at: SimTime, runtime: SimTime) -> JobId {
        let id = JobId(self.0.len() as u64 + 1);
        self.0.push(Job::new(id, spec, submitted_at, runtime));
        id
    }

    fn slot(id: JobId) -> Option<usize> {
        usize::try_from(id.0.checked_sub(1)?).ok()
    }

    pub fn get(&self, id: JobId) -> Option<&Job> {
        self.0.get(Self::slot(id)?)
    }

    pub fn get_mut(&mut self, id: JobId) -> Option<&mut Job> {
        self.0.get_mut(Self::slot(id)?)
    }

    /// All jobs in submission order.
    pub fn iter(&self) -> impl Iterator<Item = &Job> {
        self.0.iter()
    }
}

impl std::ops::Index<JobId> for JobTable {
    type Output = Job;

    fn index(&self, id: JobId) -> &Job {
        self.get(id).expect("job id issued by this cluster")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> JobSpec {
        JobSpec::exclusive(
            2,
            NodeResources::daint_mc(),
            SimTime::from_hours(1),
            "lulesh",
        )
    }

    #[test]
    fn total_cores() {
        assert_eq!(spec().total_cores(), 72);
    }

    #[test]
    fn shared_flag() {
        assert!(!spec().shared);
        let s = JobSpec::shared(1, NodeResources::daint_mc(), SimTime::from_mins(5), "nas");
        assert!(s.shared);
    }

    #[test]
    fn wait_and_runtime() {
        let mut j = Job::new(
            JobId(1),
            spec(),
            SimTime::from_secs(100),
            SimTime::from_secs(50),
        );
        assert_eq!(j.wait_time(), None);
        assert_eq!(j.runtime(), None);
        j.started_at = Some(SimTime::from_secs(160));
        j.finished_at = Some(SimTime::from_secs(210));
        assert_eq!(j.wait_time(), Some(SimTime::from_secs(60)));
        assert_eq!(j.runtime(), Some(SimTime::from_secs(50)));
    }
}
