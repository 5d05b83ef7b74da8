//! FCFS + conservative EASY-backfill scheduler over a set of nodes.
//!
//! Mirrors the SLURM behaviour the paper relies on: exclusive jobs take whole
//! nodes; jobs submitted with the shared flag (or to the sharing partition)
//! can be co-located with other shared work on the same node; GPU nodes are
//! tracked through GRES-style counts. Walltime estimates drive backfill
//! reservations; actual runtimes come from the trace and are typically
//! shorter.
//!
//! The hot paths run on incrementally-maintained indexes (see
//! `crate::index`): placement pulls the first `k` nodes from an ordered
//! free-node index instead of filtering and sorting all nodes, the backfill
//! shadow time is a k-th order statistic over an incrementally-updated
//! per-node walltime horizon, feasibility is a per-capacity-class member
//! count, and backfill extraction tombstones its queue entry instead of
//! shifting the `VecDeque`. Jobs live in a dense table indexed by their
//! sequential id, and the utilization queries (`core_usage`,
//! `memory_usage`, `idle_node_count`) read running totals kept alongside
//! the indexes. Scheduling decisions are bit-identical to the
//! original scan implementation, which is kept verbatim in
//! `crate::reference` and enforced as an oracle by property tests and by
//! the committed `ci/trace_reference.json` replay artifact.

use crate::index::{node_free_at, SchedIndex};
use crate::job::{Job, JobId, JobSpec, JobState, JobTable};
use crate::node::{Node, NodeResources};
use des::SimTime;
use fabric::NodeId;
use std::collections::VecDeque;
use std::fmt;

/// Errors from scheduler operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedulerError {
    UnknownJob,
    NotRunning,
    ImpossibleRequest,
}

impl fmt::Display for SchedulerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SchedulerError::UnknownJob => write!(f, "unknown job id"),
            SchedulerError::NotRunning => write!(f, "job is not running"),
            SchedulerError::ImpossibleRequest => {
                write!(f, "request can never be satisfied by this cluster")
            }
        }
    }
}

impl std::error::Error for SchedulerError {}

/// How many stale (tombstoned) entries the pending queue tolerates before a
/// compaction pass. Backfill starts and cancellations mark entries stale in
/// O(1) instead of shifting the deque; compaction keeps iteration over the
/// queue amortized O(live).
const PENDING_COMPACT_MIN: usize = 64;

/// The cluster state machine. Drive it with `submit` / `try_schedule` /
/// `finish`; query idle capacity for the serverless resource manager.
pub struct Cluster {
    nodes: Vec<Node>,
    jobs: JobTable,
    /// Arrival-ordered queue. Entries whose job is no longer `Pending` are
    /// tombstones: backfill extraction and cancellation mark the job's state
    /// and leave the entry in place (O(1) amortized instead of a O(n)
    /// `remove`/`retain`); scheduling passes skip them and
    /// [`Cluster::maybe_compact_pending`] sweeps them out.
    pending: VecDeque<JobId>,
    /// Number of non-tombstone entries in `pending`.
    pending_live: usize,
    /// Whether a zero-node job was ever submitted. Such a job "starts" on a
    /// full cluster, so the backfill scan may only stop early without one.
    zero_node_jobs: bool,
    /// Completed-job history kept for statistics (state `Completed` only;
    /// see `cancelled` for the other terminal outcome).
    completed: Vec<JobId>,
    /// Cancelled-job history: jobs dropped as infeasible and jobs cancelled
    /// while pending or running. Kept so outcome accounting (job counts,
    /// wait-time statistics) can audit every submitted job instead of
    /// silently losing the ones that never completed.
    cancelled: Vec<JobId>,
    /// Incremental placement/backfill/feasibility indexes.
    index: SchedIndex,
}

impl Cluster {
    pub fn new(nodes: Vec<Node>) -> Self {
        let index = SchedIndex::new(&nodes);
        Cluster {
            nodes,
            jobs: JobTable::default(),
            pending: VecDeque::new(),
            pending_live: 0,
            zero_node_jobs: false,
            completed: Vec::new(),
            cancelled: Vec::new(),
            index,
        }
    }

    /// A homogeneous cluster of `n` nodes.
    pub fn homogeneous(n: usize, capacity: NodeResources) -> Self {
        Cluster::new(
            (0..n)
                .map(|i| Node::new(NodeId(i as u32), capacity))
                .collect(),
        )
    }

    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    pub fn node(&self, id: NodeId) -> Option<&Node> {
        self.nodes.get(id.0 as usize)
    }

    /// Mark node `id` down: nothing new is placed on it. Returns whether
    /// the node exists.
    pub fn set_node_down(&mut self, id: NodeId) -> bool {
        self.change_node_state(id, Node::set_down)
    }

    /// Start draining node `id`: running work finishes, nothing new is
    /// placed on it. Returns whether the node exists.
    pub fn set_node_draining(&mut self, id: NodeId) -> bool {
        self.change_node_state(id, Node::set_draining)
    }

    /// Apply an external state change and rebuild the indexes around it in
    /// one O(n log n) sweep. Operator actions are rare next to scheduling
    /// passes, so the index has no per-state delta to get wrong.
    fn change_node_state(&mut self, id: NodeId, change: fn(&mut Node)) -> bool {
        let Some(node) = self.nodes.get_mut(id.0 as usize) else {
            return false;
        };
        change(node);
        self.index.rebuild(&self.nodes, &self.jobs);
        true
    }

    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    pub fn job(&self, id: JobId) -> Option<&Job> {
        self.jobs.get(id)
    }

    pub fn pending_count(&self) -> usize {
        self.pending_live
    }

    pub fn running_jobs(&self) -> impl Iterator<Item = &Job> {
        self.jobs.iter().filter(|j| j.state == JobState::Running)
    }

    pub fn running_count(&self) -> usize {
        self.running_jobs().count()
    }

    /// Jobs that ran to completion, in completion order.
    pub fn completed_jobs(&self) -> impl Iterator<Item = &Job> {
        self.completed.iter().filter_map(|&id| self.jobs.get(id))
    }

    /// Jobs that terminated without completing — dropped as infeasible, or
    /// cancelled while pending or running — in cancellation order. Every
    /// submitted job ends up reachable through exactly one of
    /// [`Cluster::completed_jobs`], [`Cluster::cancelled_jobs`], the pending
    /// queue, or the running set.
    pub fn cancelled_jobs(&self) -> impl Iterator<Item = &Job> {
        self.cancelled.iter().filter_map(|&id| self.jobs.get(id))
    }

    pub fn cancelled_count(&self) -> usize {
        self.cancelled.len()
    }

    /// Number of idle nodes (a maintained count).
    pub fn idle_node_count(&self) -> usize {
        self.index.idle_node_count()
    }

    /// One bit per node, bit `i % 64` of word `i / 64` set iff node `i` is
    /// idle.
    pub(crate) fn idle_bits(&self) -> &[u64] {
        self.index.idle_bits()
    }

    /// Submit a job; returns its id. `actual_runtime` is the runtime the
    /// trace decided (unknown to the scheduler, which only sees `walltime`).
    pub fn submit(&mut self, spec: JobSpec, actual_runtime: SimTime, now: SimTime) -> JobId {
        let runtime = actual_runtime.min(spec.walltime);
        self.zero_node_jobs |= spec.nodes == 0;
        let id = self.jobs.insert(spec, now, runtime);
        self.pending.push_back(id);
        self.pending_live += 1;
        id
    }

    /// Whether `spec` could ever be satisfied by an empty cluster. Node
    /// capacities are static, so this is a per-capacity-class member-count
    /// sum — O(#classes).
    pub fn is_feasible(&self, spec: &JobSpec) -> bool {
        self.index.fitting_count(&spec.per_node) >= spec.nodes as usize
    }

    fn start_job(&mut self, id: JobId, nodes: Vec<NodeId>, now: SimTime) -> Vec<SimTime> {
        let job = self.jobs.get_mut(id).expect("job exists");
        job.state = JobState::Running;
        job.started_at = Some(now);
        let per_node = job.spec.per_node;
        let exclusive = !job.spec.shared;
        let walltime_end = now + job.spec.walltime;
        let mut ended_idle_periods = Vec::new();
        for &nid in &nodes {
            let i = nid.0 as usize;
            if let Some(p) = self.nodes[i].allocate(id, per_node, exclusive, now) {
                ended_idle_periods.push(p);
            }
            self.index
                .note_allocated(&self.nodes[i], &per_node, walltime_end);
        }
        // Assign by moving the vector — the allocation loop above borrowed
        // it, so one extra table lookup replaces a whole-Vec clone.
        self.jobs.get_mut(id).expect("exists").assigned = nodes;
        ended_idle_periods
    }

    /// Drop tombstoned entries off the queue front and return the live head.
    fn live_head(&mut self) -> Option<JobId> {
        while let Some(&id) = self.pending.front() {
            if self.jobs[id].state == JobState::Pending {
                return Some(id);
            }
            self.pending.pop_front();
        }
        None
    }

    /// Sweep out tombstones once they dominate the queue; amortized O(1)
    /// per extraction.
    fn maybe_compact_pending(&mut self) {
        if self.pending.len() > PENDING_COMPACT_MIN && self.pending_live * 2 < self.pending.len() {
            let jobs = &self.jobs;
            self.pending
                .retain(|&id| jobs[id].state == JobState::Pending);
            debug_assert_eq!(self.pending.len(), self.pending_live);
        }
    }

    /// Run the scheduling pass: start the queue head while possible, then
    /// conservatively backfill jobs that finish before the head's shadow
    /// time. Returns `(started job ids, idle periods that just ended)`.
    pub fn try_schedule(&mut self, now: SimTime) -> (Vec<JobId>, Vec<SimTime>) {
        let mut started = Vec::new();
        let mut idle_periods = Vec::new();

        // FCFS phase. Specs are borrowed, not cloned — this runs once per
        // arrival and once per completion, and a `JobSpec` owns a `String`.
        while let Some(head) = self.live_head() {
            if !self.is_feasible(&self.jobs[head].spec) {
                // Drop impossible jobs so they don't wedge the queue.
                self.pending.pop_front();
                self.pending_live -= 1;
                let j = self.jobs.get_mut(head).expect("exists");
                j.state = JobState::Cancelled;
                j.finished_at = Some(now);
                self.cancelled.push(head);
                continue;
            }
            match self.index.select(&self.nodes, &self.jobs[head].spec) {
                Some(nodes) => {
                    self.pending.pop_front();
                    self.pending_live -= 1;
                    idle_periods.extend(self.start_job(head, nodes, now));
                    started.push(head);
                }
                None => break,
            }
        }

        // Backfill phase (conservative EASY): jobs behind the head may start
        // only if their walltime fits before the head's reservation. A
        // backfilled job's queue entry becomes a tombstone (its state is no
        // longer `Pending`), so extraction never shifts the deque. Once the
        // last idle or shareable node is taken, no job of one node or more
        // can be placed, so the rest of the queue is not looked at.
        if let Some(&head) = self.pending.front() {
            let shadow = self.index.shadow_time(&self.jobs[head].spec, now);
            for i in 1..self.pending.len() {
                if !self.zero_node_jobs && !self.index.has_candidates() {
                    break;
                }
                let jid = self.pending[i];
                let job = &self.jobs[jid];
                if job.state != JobState::Pending {
                    continue; // tombstone
                }
                let fits_before_shadow = now + job.spec.walltime <= shadow;
                if fits_before_shadow {
                    if let Some(nodes) = self.index.select(&self.nodes, &job.spec) {
                        self.pending_live -= 1;
                        idle_periods.extend(self.start_job(jid, nodes, now));
                        started.push(jid);
                    }
                }
            }
        }
        self.maybe_compact_pending();

        (started, idle_periods)
    }

    /// Complete a running job, releasing its nodes.
    pub fn finish(&mut self, id: JobId, now: SimTime) -> Result<(), SchedulerError> {
        let job = self.jobs.get_mut(id).ok_or(SchedulerError::UnknownJob)?;
        if job.state != JobState::Running {
            return Err(SchedulerError::NotRunning);
        }
        job.state = JobState::Completed;
        job.finished_at = Some(now);
        let per_node = job.spec.per_node;
        let assigned = std::mem::take(&mut job.assigned);
        for nid in &assigned {
            let i = nid.0 as usize;
            if i >= self.nodes.len() {
                continue;
            }
            self.nodes[i].release(id, now);
            let free_at = node_free_at(&self.nodes[i], &self.jobs);
            self.index.note_released(&self.nodes[i], &per_node, free_at);
        }
        // Keep assignment for statistics.
        self.jobs.get_mut(id).expect("exists").assigned = assigned;
        self.completed.push(id);
        Ok(())
    }

    /// Cancel a pending or running job. The job lands in the cancelled
    /// history either way (a running job's nodes are released first).
    pub fn cancel(&mut self, id: JobId, now: SimTime) -> Result<(), SchedulerError> {
        let job = self.jobs.get_mut(id).ok_or(SchedulerError::UnknownJob)?;
        match job.state {
            JobState::Pending => {
                job.state = JobState::Cancelled;
                job.finished_at = Some(now);
                // The queue entry stays behind as a tombstone.
                self.pending_live -= 1;
                self.cancelled.push(id);
                self.maybe_compact_pending();
                Ok(())
            }
            JobState::Running => {
                self.finish(id, now)?;
                // `finish` filed it under completed; move it to the
                // cancelled history so each terminal state has exactly one
                // ledger.
                debug_assert_eq!(self.completed.last(), Some(&id));
                self.completed.pop();
                self.jobs.get_mut(id).expect("exists").state = JobState::Cancelled;
                self.cancelled.push(id);
                Ok(())
            }
            _ => Err(SchedulerError::NotRunning),
        }
    }

    /// Next expected completion among running jobs: `(when, job)`.
    /// The simulation driver uses this to schedule completion events.
    pub fn next_completion(&self) -> Option<(SimTime, JobId)> {
        self.running_jobs()
            .filter_map(|j| j.started_at.map(|s| (s + j.actual_runtime, j.id)))
            .min()
    }

    /// Aggregate used/total core counts (for utilization sampling), from
    /// running totals.
    pub fn core_usage(&self) -> (u64, u64) {
        self.index.core_usage()
    }

    /// Memory accounting split the way Fig. 1b reports it:
    /// `(used, free_on_allocated, free_on_idle)` in MB, from running totals.
    pub fn memory_usage(&self) -> (u64, u64, u64) {
        self.index.memory_usage()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cluster(n: usize) -> Cluster {
        Cluster::homogeneous(n, NodeResources::daint_mc())
    }

    fn excl(nodes: u32, mins: u64, tag: &str) -> JobSpec {
        JobSpec::exclusive(
            nodes,
            NodeResources::daint_mc(),
            SimTime::from_mins(mins),
            tag,
        )
    }

    #[test]
    fn fcfs_starts_in_order() {
        let mut c = small_cluster(4);
        let a = c.submit(excl(2, 60, "a"), SimTime::from_mins(30), SimTime::ZERO);
        let b = c.submit(excl(2, 60, "b"), SimTime::from_mins(30), SimTime::ZERO);
        let (started, _) = c.try_schedule(SimTime::ZERO);
        assert_eq!(started, vec![a, b]);
        assert_eq!(c.idle_node_count(), 0);
    }

    #[test]
    fn head_blocks_until_space() {
        let mut c = small_cluster(4);
        let a = c.submit(excl(3, 60, "a"), SimTime::from_mins(60), SimTime::ZERO);
        let b = c.submit(excl(2, 60, "b"), SimTime::from_mins(60), SimTime::ZERO);
        let (started, _) = c.try_schedule(SimTime::ZERO);
        assert_eq!(started, vec![a]);
        assert_eq!(c.pending_count(), 1);
        c.finish(a, SimTime::from_mins(60)).unwrap();
        let (started, _) = c.try_schedule(SimTime::from_mins(60));
        assert_eq!(started, vec![b]);
    }

    #[test]
    fn backfill_short_job_jumps_queue() {
        let mut c = small_cluster(4);
        let a = c.submit(excl(3, 100, "a"), SimTime::from_mins(100), SimTime::ZERO);
        // Head needs 4 nodes -> waits until `a` ends at t=100min.
        let head = c.submit(excl(4, 100, "head"), SimTime::from_mins(100), SimTime::ZERO);
        // Short 1-node job fits in the hole before the shadow time.
        let short = c.submit(excl(1, 50, "short"), SimTime::from_mins(50), SimTime::ZERO);
        // Long 1-node job would delay the reservation: no backfill.
        let long = c.submit(excl(1, 500, "long"), SimTime::from_mins(500), SimTime::ZERO);
        let (started, _) = c.try_schedule(SimTime::ZERO);
        assert!(started.contains(&a));
        assert!(started.contains(&short), "short job backfilled");
        assert!(!started.contains(&head));
        assert!(!started.contains(&long), "long job must not delay head");
    }

    #[test]
    fn shared_jobs_colocate_on_one_node() {
        let mut c = small_cluster(1);
        let half = NodeResources {
            cores: 18,
            memory_mb: 32 * 1024,
            gpus: 0,
        };
        let a = c.submit(
            JobSpec::shared(1, half, SimTime::from_mins(60), "a"),
            SimTime::from_mins(60),
            SimTime::ZERO,
        );
        let b = c.submit(
            JobSpec::shared(1, half, SimTime::from_mins(60), "b"),
            SimTime::from_mins(60),
            SimTime::ZERO,
        );
        let (started, _) = c.try_schedule(SimTime::ZERO);
        assert_eq!(started, vec![a, b]);
        let node = c.node(NodeId(0)).unwrap();
        assert_eq!(node.job_count(), 2);
        assert_eq!(node.free().cores, 0);
    }

    #[test]
    fn exclusive_jobs_never_share() {
        let mut c = small_cluster(1);
        let half = NodeResources {
            cores: 18,
            memory_mb: 32 * 1024,
            gpus: 0,
        };
        c.submit(
            JobSpec::exclusive(1, half, SimTime::from_mins(60), "a"),
            SimTime::from_mins(60),
            SimTime::ZERO,
        );
        c.submit(
            JobSpec::shared(1, half, SimTime::from_mins(60), "b"),
            SimTime::from_mins(60),
            SimTime::ZERO,
        );
        let (started, _) = c.try_schedule(SimTime::ZERO);
        assert_eq!(started.len(), 1, "second job cannot join exclusive node");
    }

    #[test]
    fn impossible_jobs_are_cancelled_not_wedged() {
        let mut c = small_cluster(2);
        let imp = c.submit(excl(5, 60, "too-big"), SimTime::from_mins(1), SimTime::ZERO);
        let ok = c.submit(excl(1, 60, "fine"), SimTime::from_mins(1), SimTime::ZERO);
        let (started, _) = c.try_schedule(SimTime::ZERO);
        assert_eq!(c.job(imp).unwrap().state, JobState::Cancelled);
        assert_eq!(started, vec![ok]);
    }

    #[test]
    fn infeasible_jobs_land_in_cancelled_history() {
        // Regression: cancelled-as-infeasible jobs used to get `finished_at`
        // but were reachable through no history — outcome accounting
        // silently dropped them.
        let mut c = small_cluster(2);
        let imp = c.submit(excl(5, 60, "too-big"), SimTime::from_mins(1), SimTime::ZERO);
        let ok = c.submit(excl(1, 60, "fine"), SimTime::from_mins(1), SimTime::ZERO);
        c.try_schedule(SimTime::from_secs(30));
        assert_eq!(c.cancelled_count(), 1);
        let dropped = c.cancelled_jobs().next().unwrap();
        assert_eq!(dropped.id, imp);
        assert_eq!(dropped.state, JobState::Cancelled);
        assert_eq!(dropped.finished_at, Some(SimTime::from_secs(30)));
        assert_eq!(dropped.started_at, None, "never ran");
        // The completed ledger must not contain it.
        c.finish(ok, SimTime::from_mins(60)).unwrap();
        assert!(c.completed_jobs().all(|j| j.id != imp));
        assert_eq!(c.completed_jobs().count(), 1);
    }

    #[test]
    fn every_submitted_job_is_accounted_for() {
        // jobs = completed + cancelled + running + pending, with no overlap,
        // across all three cancellation paths (infeasible drop, pending
        // cancel, running cancel).
        let mut c = small_cluster(2);
        let infeasible = c.submit(excl(9, 60, "big"), SimTime::from_mins(1), SimTime::ZERO);
        let run_cancel = c.submit(excl(2, 60, "rc"), SimTime::from_mins(60), SimTime::ZERO);
        let pend_cancel = c.submit(excl(2, 60, "pc"), SimTime::from_mins(60), SimTime::ZERO);
        let completes = c.submit(excl(1, 60, "ok"), SimTime::from_mins(30), SimTime::ZERO);
        c.try_schedule(SimTime::ZERO);
        c.cancel(pend_cancel, SimTime::from_secs(10)).unwrap();
        c.cancel(run_cancel, SimTime::from_secs(20)).unwrap();
        c.try_schedule(SimTime::from_secs(20));
        c.finish(completes, SimTime::from_mins(30)).unwrap();

        let cancelled: Vec<JobId> = c.cancelled_jobs().map(|j| j.id).collect();
        assert_eq!(cancelled, vec![infeasible, pend_cancel, run_cancel]);
        let completed: Vec<JobId> = c.completed_jobs().map(|j| j.id).collect();
        assert_eq!(completed, vec![completes]);
        assert_eq!(c.pending_count(), 0);
        assert_eq!(c.running_count(), 0);
        // Every cancelled job carries a terminal timestamp.
        assert!(c.cancelled_jobs().all(|j| j.finished_at.is_some()));
    }

    #[test]
    fn finish_errors() {
        let mut c = small_cluster(1);
        assert_eq!(
            c.finish(JobId(99), SimTime::ZERO).unwrap_err(),
            SchedulerError::UnknownJob
        );
        let a = c.submit(excl(1, 5, "a"), SimTime::from_mins(5), SimTime::ZERO);
        assert_eq!(
            c.finish(a, SimTime::ZERO).unwrap_err(),
            SchedulerError::NotRunning
        );
    }

    #[test]
    fn next_completion_uses_actual_runtime() {
        let mut c = small_cluster(2);
        let a = c.submit(excl(1, 100, "a"), SimTime::from_mins(30), SimTime::ZERO);
        let _b = c.submit(excl(1, 100, "b"), SimTime::from_mins(70), SimTime::ZERO);
        c.try_schedule(SimTime::ZERO);
        let (when, who) = c.next_completion().unwrap();
        assert_eq!(who, a);
        assert_eq!(when, SimTime::from_mins(30));
    }

    #[test]
    fn cancel_pending_and_running() {
        let mut c = small_cluster(1);
        let a = c.submit(excl(1, 60, "a"), SimTime::from_mins(60), SimTime::ZERO);
        let b = c.submit(excl(1, 60, "b"), SimTime::from_mins(60), SimTime::ZERO);
        c.try_schedule(SimTime::ZERO);
        c.cancel(b, SimTime::from_secs(1)).unwrap();
        assert_eq!(c.job(b).unwrap().state, JobState::Cancelled);
        c.cancel(a, SimTime::from_secs(2)).unwrap();
        assert_eq!(c.job(a).unwrap().state, JobState::Cancelled);
        assert_eq!(c.idle_node_count(), 1);
        // Both cancellation paths feed the cancelled history; neither job
        // is in the completed ledger.
        assert_eq!(c.cancelled_count(), 2);
        assert_eq!(c.completed_jobs().count(), 0);
    }

    #[test]
    fn usage_accounting() {
        let mut c = small_cluster(2);
        let half = NodeResources {
            cores: 18,
            memory_mb: 32 * 1024,
            gpus: 0,
        };
        c.submit(
            JobSpec::shared(1, half, SimTime::from_mins(60), "a"),
            SimTime::from_mins(60),
            SimTime::ZERO,
        );
        c.try_schedule(SimTime::ZERO);
        let (used, total) = c.core_usage();
        assert_eq!((used, total), (18, 72));
        let (mem_used, free_alloc, free_idle) = c.memory_usage();
        assert_eq!(mem_used, 32 * 1024);
        assert_eq!(free_alloc, 96 * 1024);
        assert_eq!(free_idle, 128 * 1024);
    }

    #[test]
    fn idle_periods_reported_at_start() {
        let mut c = small_cluster(1);
        let a = c.submit(
            excl(1, 10, "a"),
            SimTime::from_mins(10),
            SimTime::from_mins(5),
        );
        let (_, periods) = c.try_schedule(SimTime::from_mins(5));
        assert_eq!(periods, vec![SimTime::from_mins(5)]);
        c.finish(a, SimTime::from_mins(15)).unwrap();
        c.submit(
            excl(1, 10, "b"),
            SimTime::from_mins(10),
            SimTime::from_mins(18),
        );
        let (_, periods) = c.try_schedule(SimTime::from_mins(18));
        assert_eq!(periods, vec![SimTime::from_mins(3)]);
    }

    #[test]
    fn downed_node_is_seen_by_the_next_pass() {
        // Marking a node down must reach the indexes: the downed node
        // cannot be placed on, and a job that fit before no longer starts.
        let mut c = small_cluster(2);
        assert!(c.set_node_down(NodeId(0)));
        assert!(!c.set_node_down(NodeId(2)), "no such node");
        let a = c.submit(excl(2, 10, "a"), SimTime::from_mins(10), SimTime::ZERO);
        let b = c.submit(excl(1, 10, "b"), SimTime::from_mins(10), SimTime::ZERO);
        let (started, _) = c.try_schedule(SimTime::ZERO);
        // `a` is feasible by static capacity (2 nodes exist) but only one is
        // placeable, so it blocks the queue; `b` cannot backfill ahead of it
        // because the downed node never frees (shadow time is reached but
        // only one node can host).
        assert!(!started.contains(&a));
        assert!(c.job(a).unwrap().state == JobState::Pending);
        let _ = b;
        assert_eq!(c.idle_node_count(), 1);
    }

    #[test]
    fn pending_queue_compaction_preserves_order() {
        // Flood the queue, cancel most of it (tombstones), and check the
        // survivors still start in arrival order after compaction kicks in.
        let mut c = small_cluster(1);
        let blocker = c.submit(excl(1, 600, "blk"), SimTime::from_mins(600), SimTime::ZERO);
        c.try_schedule(SimTime::ZERO);
        let mut ids = Vec::new();
        for i in 0..300 {
            ids.push(c.submit(
                excl(1, 30, &format!("j{i}")),
                SimTime::from_mins(10),
                SimTime::ZERO,
            ));
        }
        for (i, &id) in ids.iter().enumerate() {
            if i % 3 != 0 {
                c.cancel(id, SimTime::from_secs(1)).unwrap();
            }
        }
        assert_eq!(c.pending_count(), 100);
        c.finish(blocker, SimTime::from_mins(600)).unwrap();
        let survivors: Vec<JobId> = ids.iter().copied().step_by(3).collect();
        let mut started_order = Vec::new();
        let mut now = SimTime::from_mins(600);
        // One node: jobs start one at a time, in arrival order.
        loop {
            let (started, _) = c.try_schedule(now);
            started_order.extend(started);
            match c.next_completion() {
                Some((when, id)) => {
                    now = when;
                    c.finish(id, now).unwrap();
                }
                None => break,
            }
        }
        assert_eq!(started_order, survivors);
        assert_eq!(c.pending_count(), 0);
    }
}
