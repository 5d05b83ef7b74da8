//! The original scan-everything scheduler, kept verbatim as a test oracle
//! for the indexed implementation in [`crate::scheduler`].
//!
//! [`RefCluster`] is the pre-PR-9 `Cluster`: `find_nodes` filters all nodes
//! and top-k-selects per attempt, `shadow_time` rebuilds a full
//! `(free_at, node)` vector per backfill pass, `is_feasible` re-counts
//! fitting nodes, and backfill extraction is `VecDeque::remove`. Every
//! scheduling decision of the indexed scheduler must be bit-identical to
//! this module — enforced by the tests in `oracle_tests` (arbitrary
//! submit/schedule/finish/cancel interleavings on small clusters, and two
//! 2 000-job replay streams on a 256-node one).
//!
//! Do not "fix" or optimize this module: its value is being the frozen
//! semantics the committed `ci/trace_reference.json` was generated from.

use crate::job::{Job, JobId, JobSpec, JobState};
use crate::node::{Node, NodeResources};
use crate::scheduler::SchedulerError;
use des::SimTime;
use fabric::NodeId;
use std::collections::{HashMap, VecDeque};

/// The pre-index cluster state machine (scan-based hot paths).
pub struct RefCluster {
    nodes: Vec<Node>,
    jobs: HashMap<JobId, Job>,
    pending: VecDeque<JobId>,
    next_id: u64,
}

impl RefCluster {
    pub fn new(nodes: Vec<Node>) -> Self {
        RefCluster {
            nodes,
            jobs: HashMap::new(),
            pending: VecDeque::new(),
            next_id: 0,
        }
    }

    pub fn homogeneous(n: usize, capacity: NodeResources) -> Self {
        RefCluster::new(
            (0..n)
                .map(|i| Node::new(NodeId(i as u32), capacity))
                .collect(),
        )
    }

    pub fn node(&self, id: NodeId) -> Option<&Node> {
        self.nodes.get(id.0 as usize)
    }

    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    pub fn job(&self, id: JobId) -> Option<&Job> {
        self.jobs.get(&id)
    }

    pub fn pending_count(&self) -> usize {
        self.pending.len()
    }

    pub fn idle_node_count(&self) -> usize {
        self.nodes.iter().filter(|n| n.is_idle()).count()
    }

    pub fn submit(&mut self, spec: JobSpec, actual_runtime: SimTime, now: SimTime) -> JobId {
        self.next_id += 1;
        let id = JobId(self.next_id);
        let runtime = actual_runtime.min(spec.walltime);
        self.jobs.insert(id, Job::new(id, spec, now, runtime));
        self.pending.push_back(id);
        id
    }

    pub fn is_feasible(&self, spec: &JobSpec) -> bool {
        let fitting = self
            .nodes
            .iter()
            .filter(|n| n.capacity.fits(&spec.per_node))
            .count();
        fitting >= spec.nodes as usize
    }

    fn find_nodes(&self, spec: &JobSpec) -> Option<Vec<NodeId>> {
        let key = |n: &&Node| {
            (
                std::cmp::Reverse(n.idle_since().unwrap_or(SimTime::MAX)),
                n.id,
            )
        };
        let mut candidates: Vec<&Node> = self
            .nodes
            .iter()
            .filter(|n| n.can_host(&spec.per_node, spec.shared))
            .collect();
        let k = spec.nodes as usize;
        if candidates.len() < k {
            return None;
        }
        if k == 0 {
            return Some(Vec::new());
        }
        if candidates.len() > k {
            candidates.select_nth_unstable_by_key(k - 1, key);
            candidates.truncate(k);
        }
        candidates.sort_unstable_by_key(key);
        Some(candidates.iter().map(|n| n.id).collect())
    }

    fn start_job(&mut self, id: JobId, nodes: Vec<NodeId>, now: SimTime) -> Vec<SimTime> {
        let job = self.jobs.get_mut(&id).expect("job exists");
        job.state = JobState::Running;
        job.started_at = Some(now);
        job.assigned = nodes.clone();
        let per_node = job.spec.per_node;
        let exclusive = !job.spec.shared;
        let mut ended_idle_periods = Vec::new();
        for nid in nodes {
            let node = self.nodes.get_mut(nid.0 as usize).expect("node exists");
            if let Some(p) = node.allocate(id, per_node, exclusive, now) {
                ended_idle_periods.push(p);
            }
        }
        ended_idle_periods
    }

    fn shadow_time(&self, head: &JobSpec, now: SimTime) -> SimTime {
        let mut node_free_at: Vec<(SimTime, &Node)> = self
            .nodes
            .iter()
            .filter(|n| n.capacity.fits(&head.per_node))
            .map(|n| {
                let free_at = n
                    .jobs()
                    .filter_map(|jid| self.jobs.get(&jid))
                    .filter_map(|j| j.started_at.map(|s| s + j.spec.walltime))
                    .max()
                    .unwrap_or(now);
                (free_at.max(now), n)
            })
            .collect();
        node_free_at.sort_by_key(|(t, n)| (*t, n.id));
        if node_free_at.len() < head.nodes as usize {
            return SimTime::MAX;
        }
        node_free_at[head.nodes as usize - 1].0
    }

    pub fn try_schedule(&mut self, now: SimTime) -> (Vec<JobId>, Vec<SimTime>) {
        let mut started = Vec::new();
        let mut idle_periods = Vec::new();

        while let Some(&head) = self.pending.front() {
            if !self.is_feasible(&self.jobs[&head].spec) {
                self.pending.pop_front();
                if let Some(j) = self.jobs.get_mut(&head) {
                    j.state = JobState::Cancelled;
                    j.finished_at = Some(now);
                }
                continue;
            }
            match self.find_nodes(&self.jobs[&head].spec) {
                Some(nodes) => {
                    self.pending.pop_front();
                    idle_periods.extend(self.start_job(head, nodes, now));
                    started.push(head);
                }
                None => break,
            }
        }

        if let Some(&head) = self.pending.front() {
            let shadow = self.shadow_time(&self.jobs[&head].spec, now);
            let mut i = 1;
            while i < self.pending.len() {
                let jid = self.pending[i];
                let fits_before_shadow = now + self.jobs[&jid].spec.walltime <= shadow;
                if fits_before_shadow {
                    if let Some(nodes) = self.find_nodes(&self.jobs[&jid].spec) {
                        self.pending.remove(i);
                        idle_periods.extend(self.start_job(jid, nodes, now));
                        started.push(jid);
                        continue; // do not advance i; element shifted in
                    }
                }
                i += 1;
            }
        }

        (started, idle_periods)
    }

    pub fn finish(&mut self, id: JobId, now: SimTime) -> Result<(), SchedulerError> {
        let job = self.jobs.get_mut(&id).ok_or(SchedulerError::UnknownJob)?;
        if job.state != JobState::Running {
            return Err(SchedulerError::NotRunning);
        }
        job.state = JobState::Completed;
        job.finished_at = Some(now);
        let assigned = std::mem::take(&mut job.assigned);
        for nid in &assigned {
            if let Some(node) = self.nodes.get_mut(nid.0 as usize) {
                node.release(id, now);
            }
        }
        self.jobs.get_mut(&id).expect("exists").assigned = assigned;
        Ok(())
    }

    pub fn cancel(&mut self, id: JobId, now: SimTime) -> Result<(), SchedulerError> {
        let job = self.jobs.get_mut(&id).ok_or(SchedulerError::UnknownJob)?;
        match job.state {
            JobState::Pending => {
                job.state = JobState::Cancelled;
                job.finished_at = Some(now);
                self.pending.retain(|&j| j != id);
                Ok(())
            }
            JobState::Running => {
                self.finish(id, now)?;
                self.jobs.get_mut(&id).expect("exists").state = JobState::Cancelled;
                Ok(())
            }
            _ => Err(SchedulerError::NotRunning),
        }
    }

    pub fn next_completion(&self) -> Option<(SimTime, JobId)> {
        self.jobs
            .values()
            .filter(|j| j.state == JobState::Running)
            .filter_map(|j| j.started_at.map(|s| (s + j.actual_runtime, j.id)))
            .min()
    }
}
