//! Incrementally-maintained scheduler indexes.
//!
//! The scan scheduler (kept as `crate::reference`) re-derives the placement
//! order of free nodes, the backfill shadow time and the feasibility count
//! from all `n` nodes on every scheduling attempt; this module maintains
//! each incrementally. The cluster publishes a job as it starts and as it
//! ends ([`SchedIndex::note_started`], [`SchedIndex::note_finished`]):
//! `O(k)` amortised for `k` nodes, plus one count move per horizon change.
//!
//! * **Idle index** — per capacity class, a `Vec` of placeable idle nodes in
//!   *descending* placement-key order `(Reverse(idle_since), node_id)`, the
//!   scan's exact sort key, so the placement front is the last element. No
//!   idle source is filtered, so a job takes a prefix of each class and its
//!   start pops from the ends. A node freed at `now` sorts before every idle
//!   node not freed at that instant, and a finish enters its nodes in
//!   descending id order, so each is pushed onto the end. A key elsewhere
//!   (two jobs on interleaved ids ending at one instant) takes a
//!   `partition_point` search, so correctness never depends on call order.
//! * **Shared index** — partially-allocated, non-exclusive nodes in a
//!   `BTreeSet` under the same key. Allocated nodes have `idle_since = None`,
//!   the smallest key, so shared jobs pack onto busy nodes first, as the scan
//!   did. Spare fit is checked lazily (capacity is three-dimensional), so
//!   this source is filtered and stays a tree. Placement takes the `k`
//!   smallest keys over all eligible sources.
//! * **Backfill index** — per class, a counted multiset `BTreeMap<SimTime,
//!   u32>` of every member's *raw* walltime horizon (`max` over its jobs of
//!   `started_at + walltime`, `ZERO` when none), mirrored per node. The scan
//!   sorts the *clamped* key `(free_at.max(now), id)`; clamping is monotone
//!   and the id only permutes equal times, so the k-th smallest clamped time
//!   is `max(now, k-th smallest raw time)`: `shadow_time` walks distinct
//!   times summing counts. Consecutive nodes of a job with one `(class, old,
//!   new)` move as one count: an exclusive `k`-node job is two map updates.
//! * **Feasibility counts** — capacities are static: a per-class member count
//!   summed over fitting classes, `O(#classes)` per query.
//! * **Usage totals and idle bitmap** — exact integer sums of used/total
//!   cores and memory, idle memory and count, and one bit per idle node: the
//!   utilization monitor's queries are `O(1)`, and it visits only the nodes
//!   whose idle state changed since its previous sample.

use crate::job::{JobSpec, JobTable};
use crate::node::{Node, NodeResources};
use des::SimTime;
use fabric::NodeId;
use std::cmp::Reverse;
use std::collections::{BTreeMap, BTreeSet};

/// The scan scheduler's placement sort key: most-recently-freed first
/// (`idle_since = None`, i.e. allocated, maps to `MAX` and sorts before all
/// idle nodes), node id as the unique tiebreak.
pub(crate) type PlacementKey = (Reverse<SimTime>, NodeId);

fn placement_key(node: &Node) -> PlacementKey {
    (Reverse(node.idle_since().unwrap_or(SimTime::MAX)), node.id)
}

/// One distinct node capacity: static member count plus the two ordered
/// per-class structures.
#[derive(Default)]
struct ClassIndex {
    capacity: NodeResources,
    /// Total member nodes (static; drives `is_feasible` and the
    /// `shadow_time` fitting-count check).
    members: usize,
    /// Placeable idle members, descending placement-key order (front last).
    idle: Vec<PlacementKey>,
    /// Member count per raw backfill `free_at` (module docs); no zero counts.
    free_at: BTreeMap<SimTime, u32>,
}

/// Cluster-wide aggregates, maintained on every allocation and release.
#[derive(Default)]
struct Usage {
    used_cores: u64,
    total_cores: u64,
    used_memory_mb: u64,
    total_memory_mb: u64,
    /// Memory capacity of the idle nodes (Fig. 1b's "free on idle").
    idle_memory_mb: u64,
    idle_nodes: usize,
}

/// Raw backfill horizon of `node`: the latest walltime end over the jobs
/// allocated on it, `ZERO` when it holds none.
pub(crate) fn node_free_at(node: &Node, jobs: &JobTable) -> SimTime {
    node.jobs()
        .filter_map(|jid| jobs.get(jid))
        .filter_map(|j| j.started_at.map(|s| s + j.spec.walltime))
        .max()
        .unwrap_or(SimTime::ZERO)
}

pub(crate) struct SchedIndex {
    classes: Vec<ClassIndex>,
    /// Node index -> capacity class index.
    class_of: Vec<u32>,
    /// Partially-allocated non-exclusive nodes, placement-key order.
    shared: BTreeSet<PlacementKey>,
    /// Mirror of each node's key in `idle` (None = not in the idle set).
    idle_key: Vec<Option<PlacementKey>>,
    /// Mirror of each node's key in `shared` (None = not in the set).
    shared_key: Vec<Option<PlacementKey>>,
    /// Mirror of each node's raw `free_at`, counted in its class map.
    free_at: Vec<SimTime>,
    usage: Usage,
    /// Bit `i` is set iff node `i` is in its class's idle set.
    idle_bits: Vec<u64>,
}

impl SchedIndex {
    /// Index `nodes`, which must hold no job yet: every node starts idle,
    /// outside the shared index, with a `ZERO` backfill horizon.
    pub fn new(nodes: &[Node]) -> Self {
        let n = nodes.len();
        let mut idx = SchedIndex {
            classes: Vec::new(),
            class_of: vec![0; n],
            shared: BTreeSet::new(),
            idle_key: vec![None; n],
            shared_key: vec![None; n],
            free_at: vec![SimTime::ZERO; n],
            usage: Usage::default(),
            idle_bits: vec![0; n.div_ceil(64)],
        };
        for node in nodes {
            assert!(node.is_idle(), "node {} already holds a job", node.id.0);
            let capacity = node.capacity;
            let class =
                (idx.classes.iter().position(|c| c.capacity == capacity)).unwrap_or_else(|| {
                    idx.classes.push(ClassIndex {
                        capacity,
                        ..ClassIndex::default()
                    });
                    idx.classes.len() - 1
                });
            idx.class_of[node.id.0 as usize] = class as u32;
            idx.classes[class].members += 1;
            *idx.classes[class].free_at.entry(SimTime::ZERO).or_insert(0) += 1;
            idx.usage.total_cores += u64::from(node.capacity.cores);
            idx.usage.total_memory_mb += node.capacity.memory_mb;
        }
        // Every key shares `idle_since`, so descending ids push onto the end.
        nodes.iter().rev().for_each(|node| idx.enter_idle(node));
        idx
    }

    /// Membership criterion for the shared (partially-allocated) index:
    /// exactly the nodes `can_host(_, shared=true)` could accept beyond the
    /// idle set, minus the per-request spare-fit check applied lazily.
    fn shared_eligible(node: &Node) -> bool {
        node.job_count() > 0 && node.exclusive_holder().is_none()
    }

    /// Add an idle `node` to its class's idle set, the bitmap and the idle
    /// totals.
    fn enter_idle(&mut self, node: &Node) {
        let i = node.id.0 as usize;
        let key = placement_key(node);
        self.idle_key[i] = Some(key);
        let idle = &mut self.classes[self.class_of[i] as usize].idle;
        if idle.last().is_none_or(|&last| last > key) {
            idle.push(key);
        } else {
            idle.insert(idle.partition_point(|&k| k > key), key);
        }
        self.idle_bits[i / 64] |= 1 << (i % 64);
        self.usage.idle_nodes += 1;
        self.usage.idle_memory_mb += node.capacity.memory_mb;
    }

    /// Set the raw horizon of each of `ids` to `new_of(index, old)`; the
    /// counts of consecutive nodes with the same `(class, old, new)` move at once.
    fn move_horizons(&mut self, ids: &[NodeId], new_of: impl Fn(usize, SimTime) -> SimTime) {
        let moves: Vec<_> = (ids.iter().map(|id| id.0 as usize))
            .filter_map(|i| {
                let (old, new) = (self.free_at[i], new_of(i, self.free_at[i]));
                self.free_at[i] = new;
                (old != new).then_some((self.class_of[i], old, new))
            })
            .collect();
        for run in moves.chunk_by(|a, b| a == b) {
            let ((class, old, new), n) = (run[0], run.len() as u32);
            let counts = &mut self.classes[class as usize].free_at;
            let count = counts.get_mut(&old).expect("a mirrored horizon is counted");
            *count -= n;
            if *count == 0 {
                counts.remove(&old);
            }
            *counts.entry(new).or_insert(0) += n;
        }
    }

    /// Publish the start of a job placed with `req` per node on `ids` (call
    /// after `Node::allocate` on each). `walltime_end` is `now + walltime`,
    /// the backfill horizon the new job contributes.
    pub fn note_started(
        &mut self,
        nodes: &[Node],
        ids: &[NodeId],
        req: &NodeResources,
        walltime_end: SimTime,
    ) {
        self.usage.used_cores += u64::from(req.cores) * ids.len() as u64;
        self.usage.used_memory_mb += req.memory_mb * ids.len() as u64;
        for &id in ids {
            let (i, node) = (id.0 as usize, &nodes[id.0 as usize]);
            if let Some(key) = self.idle_key[i].take() {
                // `select` takes a prefix of each class, so this is the end.
                let idle = &mut self.classes[self.class_of[i] as usize].idle;
                if idle.last() == Some(&key) {
                    idle.pop();
                } else {
                    idle.remove(idle.partition_point(|&k| k > key));
                }
                self.idle_bits[i / 64] &= !(1 << (i % 64));
                self.usage.idle_nodes -= 1;
                self.usage.idle_memory_mb -= node.capacity.memory_mb;
            }
            let key = placement_key(node);
            if Self::shared_eligible(node) && self.shared_key[i].replace(key).is_none() {
                self.shared.insert(key);
            }
        }
        self.move_horizons(ids, |_, old| old.max(walltime_end));
    }

    /// Publish the end of a job that held `req` per node on `ids` (call
    /// after `Node::release` on each). `free_at_of` recomputes a node's raw
    /// walltime horizon over its remaining jobs (`ZERO` when none).
    pub fn note_finished(
        &mut self,
        nodes: &[Node],
        ids: &[NodeId],
        req: &NodeResources,
        free_at_of: impl Fn(&Node) -> SimTime,
    ) {
        self.usage.used_cores -= u64::from(req.cores) * ids.len() as u64;
        self.usage.used_memory_mb -= req.memory_mb * ids.len() as u64;
        let mut newly_idle = Vec::new();
        for &id in ids {
            let (i, node) = (id.0 as usize, &nodes[id.0 as usize]);
            if let Some(key) = self.shared_key[i].take_if(|_| !Self::shared_eligible(node)) {
                self.shared.remove(&key);
            }
            if node.is_idle() {
                newly_idle.push(id);
            }
        }
        self.move_horizons(ids, |i, _| free_at_of(&nodes[i]));
        newly_idle.sort_unstable_by(|a, b| b.cmp(a));
        (newly_idle.iter()).for_each(|id| self.enter_idle(&nodes[id.0 as usize]));
    }

    /// `(used, total)` cores over all nodes.
    pub fn core_usage(&self) -> (u64, u64) {
        (self.usage.used_cores, self.usage.total_cores)
    }

    /// `(used, free on allocated nodes, free on idle nodes)` memory in MB.
    /// An idle node has nothing allocated, so whatever capacity is neither
    /// used nor on an idle node is spare on a non-idle one.
    pub fn memory_usage(&self) -> (u64, u64, u64) {
        let u = &self.usage;
        let free_alloc = u.total_memory_mb - u.idle_memory_mb - u.used_memory_mb;
        (u.used_memory_mb, free_alloc, u.idle_memory_mb)
    }

    pub fn idle_node_count(&self) -> usize {
        self.usage.idle_nodes
    }

    /// One bit per node, set iff the node is idle.
    pub fn idle_bits(&self) -> &[u64] {
        &self.idle_bits
    }

    /// Whether any node could take a job right now: with no idle node and no
    /// partially-allocated shareable node, `select` fails for every request
    /// of one node or more.
    pub fn has_candidates(&self) -> bool {
        self.usage.idle_nodes > 0 || !self.shared.is_empty()
    }

    /// Number of nodes whose static capacity fits `req` (any state).
    pub fn fitting_count(&self, req: &NodeResources) -> usize {
        self.classes
            .iter()
            .filter(|c| c.capacity.fits(req))
            .map(|c| c.members)
            .sum()
    }

    /// Find nodes for `spec` right now: the indexed replacement for the
    /// scan `find_nodes`, returning the identical node list in the
    /// identical order, or `None` if fewer than `spec.nodes` candidates
    /// exist.
    pub fn select(&self, nodes: &[Node], spec: &JobSpec) -> Option<Vec<NodeId>> {
        let (k, req) = (spec.nodes as usize, &spec.per_node);
        let fitting = || self.classes.iter().filter(|c| c.capacity.fits(req));
        if !spec.shared && fitting().map(|c| c.idle.len()).sum::<usize>() < k {
            return None;
        }
        // Each source lists its candidates in placement order, so the first
        // `k` of the merged order lie within the first `k` of each source.
        let spare = self
            .shared
            .iter()
            .filter(|(_, id)| nodes[id.0 as usize].free().fits(req));
        let idle = fitting().flat_map(|c| c.idle.iter().rev().take(k));
        let shared_k = if spec.shared { k } else { 0 };
        let mut keys: Vec<_> = spare.take(shared_k).chain(idle).copied().collect();
        if keys.len() < k {
            return None;
        }
        keys.sort_unstable();
        Some(keys[..k].iter().map(|&(_, id)| id).collect())
    }

    /// Rebuild every structure from a scan of `nodes` and assert that the
    /// maintained one equals it, so index drift fails a test before it can
    /// change a decision.
    #[cfg(test)]
    pub(crate) fn assert_consistent(&self, nodes: &[Node], jobs: &JobTable) {
        for (c, class) in self.classes.iter().enumerate() {
            let members = || {
                nodes
                    .iter()
                    .filter(move |n| self.class_of[n.id.0 as usize] as usize == c)
            };
            let mut idle: Vec<_> = members()
                .filter(|n| n.is_idle())
                .map(placement_key)
                .collect();
            idle.sort_unstable_by(|a, b| b.cmp(a));
            assert_eq!(class.idle, idle, "class {c}: idle vector");
            assert!(
                class.idle.windows(2).all(|w| w[0] > w[1]),
                "class {c}: idle order"
            );
            let mut counts = BTreeMap::new();
            for node in members() {
                *counts.entry(node_free_at(node, jobs)).or_insert(0u32) += 1;
            }
            assert_eq!(class.free_at, counts, "class {c}: free_at counts");
            assert!(
                class.free_at.values().all(|&n| n > 0),
                "class {c}: zero count"
            );
        }
        let shared: BTreeSet<_> = nodes
            .iter()
            .filter(|n| Self::shared_eligible(n))
            .map(placement_key)
            .collect();
        assert_eq!(self.shared, shared, "shared set");
        for node in nodes {
            let i = node.id.0 as usize;
            assert_eq!(
                self.free_at[i],
                node_free_at(node, jobs),
                "node {i}: free_at mirror"
            );
            assert_eq!(
                self.idle_key[i],
                node.is_idle().then(|| placement_key(node))
            );
            assert_eq!(
                self.shared_key[i],
                Self::shared_eligible(node).then(|| placement_key(node))
            );
            assert_eq!(self.idle_bits[i / 64] >> (i % 64) & 1 == 1, node.is_idle());
        }
    }

    /// Earliest time the `head` job could start assuming running jobs end at
    /// their walltime limit: the k-th smallest clamped per-node free time,
    /// computed as `max(now, k-th smallest raw free_at)` over fitting
    /// classes (see the module docs for why the clamp commutes with the
    /// order statistic) by walking distinct times and summing their counts.
    pub fn shadow_time(&self, head: &JobSpec, now: SimTime) -> SimTime {
        let k = head.nodes as usize;
        assert!(k > 0, "shadow_time of a zero-node job");
        if self.fitting_count(&head.per_node) < k {
            return SimTime::MAX;
        }
        let mut its: Vec<_> = (self.classes.iter())
            .filter(|c| c.capacity.fits(&head.per_node))
            .map(|c| c.free_at.iter().peekable())
            .collect();
        let mut seen = 0;
        loop {
            let (time, s) = (its.iter_mut().enumerate())
                .filter_map(|(s, it)| it.peek().map(|&(&time, _)| (time, s)))
                .min()
                .expect("fitting_count >= k guarantees k entries");
            seen += *its[s].next().expect("peeked").1 as usize;
            if seen >= k {
                return time.max(now);
            }
        }
    }
}
