//! Incrementally-maintained scheduler indexes.
//!
//! The scan scheduler (kept as `crate::reference`) re-derives three
//! quantities from all `n` nodes on every scheduling attempt: the placement
//! order of free nodes, the backfill shadow time, and the feasibility count.
//! This module maintains each one incrementally so a placement attempt is
//! `O(k log n)` for a `k`-node job instead of `O(n log n)`:
//!
//! * **Idle index** — per capacity class, a `BTreeSet` of placeable idle
//!   nodes ordered by the placement key `(Reverse(idle_since), node_id)`.
//!   The key is *exactly* the scan implementation's sort key, so taking the
//!   first `k` entries of a k-way class merge reproduces the scan's
//!   `select_nth + sort` prefix bit-for-bit.
//! * **Shared index** — partially-allocated, non-exclusive nodes under the
//!   same key. Allocated nodes have `idle_since = None`, which the placement
//!   key maps to `Reverse(SimTime::MAX)` — the smallest key — so shared jobs
//!   pack onto already-allocated nodes first, again exactly as the scan
//!   ordering did. Spare-capacity fit is checked lazily during the merge
//!   (capacity is three-dimensional; there is no total order to index it by).
//! * **Backfill index** — per capacity class, every member node keyed by its
//!   *raw* walltime-horizon `free_at` (`max` over its running jobs of
//!   `started_at + walltime`, `ZERO` when none). The scan sorts the *clamped*
//!   key `(free_at.max(now), id)`; clamping is a monotone transform of the
//!   time component and the id tiebreak only permutes equal times, so the
//!   k-th smallest clamped *time* equals `max(now, k-th smallest raw time)`
//!   — which is all `shadow_time` returns.
//! * **Feasibility counts** — node capacities are static, so the number of
//!   nodes fitting a request shape is a per-class member count summed over
//!   fitting classes, `O(#classes)` per query.
//! * **Usage totals and idle bitmap** — exact integer sums of used/total
//!   cores and memory, the memory capacity and count of idle nodes, and one
//!   bit per node set while it is in the idle index. They make the
//!   utilization monitor's per-sample queries `O(1)` and let it visit only
//!   the nodes whose idle state changed since its previous sample.
//!
//! The cluster publishes every allocation state change through
//! [`SchedIndex::note_allocated`] / [`SchedIndex::note_released`]. External
//! node state changes (`Cluster::set_node_down`, `set_node_draining`) are
//! rare and rebuild everything from scratch on the spot, one `O(n log n)`
//! sweep, so the index is never out of date when it is read.

use crate::job::{JobSpec, JobTable};
use crate::node::{Node, NodeResources, NodeState};
use des::SimTime;
use fabric::NodeId;
use std::cmp::Reverse;
use std::collections::BTreeSet;

/// The scan scheduler's placement sort key: most-recently-freed first
/// (`idle_since = None`, i.e. allocated, maps to `MAX` and sorts before all
/// idle nodes), node id as the unique tiebreak.
pub(crate) type PlacementKey = (Reverse<SimTime>, NodeId);

fn placement_key(node: &Node) -> PlacementKey {
    (Reverse(node.idle_since().unwrap_or(SimTime::MAX)), node.id)
}

/// One distinct node capacity: static member count plus the two ordered
/// per-class structures.
struct ClassIndex {
    capacity: NodeResources,
    /// Total member nodes (static; drives `is_feasible` and the
    /// `shadow_time` fitting-count check).
    members: usize,
    /// Placeable idle members (`Node::is_idle`), placement-key order.
    idle: BTreeSet<PlacementKey>,
    /// Every member keyed by raw backfill `free_at` (see module docs).
    free_at: BTreeSet<(SimTime, NodeId)>,
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

/// Words of a one-bit-per-node set.
fn bitmap_words(nodes: usize) -> usize {
    nodes.div_ceil(64)
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
    /// Mirror of each node's raw `free_at` key in its class set.
    free_at: Vec<SimTime>,
    usage: Usage,
    /// Bit `i` is set iff node `i` is in its class's idle set.
    idle_bits: Vec<u64>,
}

impl SchedIndex {
    pub fn new(nodes: &[Node]) -> Self {
        let mut idx = SchedIndex {
            classes: Vec::new(),
            class_of: Vec::new(),
            shared: BTreeSet::new(),
            idle_key: Vec::new(),
            shared_key: Vec::new(),
            free_at: Vec::new(),
            usage: Usage::default(),
            idle_bits: Vec::new(),
        };
        idx.rebuild(nodes, &JobTable::default());
        idx
    }

    /// Rebuild every structure from the authoritative node/job state.
    pub fn rebuild(&mut self, nodes: &[Node], jobs: &JobTable) {
        self.classes.clear();
        self.shared.clear();
        self.usage = Usage::default();
        self.idle_bits = vec![0; bitmap_words(nodes.len())];
        self.class_of = vec![0; nodes.len()];
        self.idle_key = vec![None; nodes.len()];
        self.shared_key = vec![None; nodes.len()];
        self.free_at = vec![SimTime::ZERO; nodes.len()];
        for node in nodes {
            let i = node.id.0 as usize;
            let class = match self
                .classes
                .iter()
                .position(|c| c.capacity == node.capacity)
            {
                Some(c) => c,
                None => {
                    self.classes.push(ClassIndex {
                        capacity: node.capacity,
                        members: 0,
                        idle: BTreeSet::new(),
                        free_at: BTreeSet::new(),
                    });
                    self.classes.len() - 1
                }
            };
            self.class_of[i] = class as u32;
            self.classes[class].members += 1;
            let free_at = node_free_at(node, jobs);
            self.free_at[i] = free_at;
            self.classes[class].free_at.insert((free_at, node.id));
            let used = node.used();
            self.usage.used_cores += u64::from(used.cores);
            self.usage.total_cores += u64::from(node.capacity.cores);
            self.usage.used_memory_mb += used.memory_mb;
            self.usage.total_memory_mb += node.capacity.memory_mb;
            if node.is_idle() {
                self.enter_idle(node);
            } else if Self::shared_eligible(node) {
                let key = placement_key(node);
                self.shared_key[i] = Some(key);
                self.shared.insert(key);
            }
        }
    }

    /// Membership criterion for the shared (partially-allocated) index:
    /// exactly the nodes `can_host(_, shared=true)` could accept beyond the
    /// idle set, minus the per-request spare-fit check applied lazily.
    fn shared_eligible(node: &Node) -> bool {
        node.job_count() > 0
            && node.exclusive_holder().is_none()
            && node.state() == NodeState::Allocated
    }

    /// Add an idle `node` to its class's idle set, the bitmap and the idle
    /// totals.
    fn enter_idle(&mut self, node: &Node) {
        let i = node.id.0 as usize;
        let key = placement_key(node);
        self.idle_key[i] = Some(key);
        self.classes[self.class_of[i] as usize].idle.insert(key);
        self.idle_bits[i / 64] |= 1 << (i % 64);
        self.usage.idle_nodes += 1;
        self.usage.idle_memory_mb += node.capacity.memory_mb;
    }

    /// Publish a job placement of `req` on `node` (call after
    /// `Node::allocate`). `walltime_end` is `now + walltime`, the backfill
    /// horizon the new job contributes.
    pub fn note_allocated(&mut self, node: &Node, req: &NodeResources, walltime_end: SimTime) {
        let i = node.id.0 as usize;
        let class = self.class_of[i] as usize;
        self.usage.used_cores += u64::from(req.cores);
        self.usage.used_memory_mb += req.memory_mb;
        if let Some(key) = self.idle_key[i].take() {
            self.classes[class].idle.remove(&key);
            self.idle_bits[i / 64] &= !(1 << (i % 64));
            self.usage.idle_nodes -= 1;
            self.usage.idle_memory_mb -= node.capacity.memory_mb;
        }
        if Self::shared_eligible(node) && self.shared_key[i].is_none() {
            let key = placement_key(node);
            self.shared_key[i] = Some(key);
            self.shared.insert(key);
        }
        let old = self.free_at[i];
        let new = old.max(walltime_end);
        if new != old {
            self.classes[class].free_at.remove(&(old, node.id));
            self.classes[class].free_at.insert((new, node.id));
            self.free_at[i] = new;
        }
    }

    /// Publish the release of a job's share `req` on `node` (call after
    /// `Node::release`). `free_at` is the recomputed raw walltime horizon
    /// over the node's remaining jobs (`ZERO` when none).
    pub fn note_released(&mut self, node: &Node, req: &NodeResources, free_at: SimTime) {
        let i = node.id.0 as usize;
        let class = self.class_of[i] as usize;
        self.usage.used_cores -= u64::from(req.cores);
        self.usage.used_memory_mb -= req.memory_mb;
        if !Self::shared_eligible(node) {
            if let Some(key) = self.shared_key[i].take() {
                self.shared.remove(&key);
            }
        }
        if node.is_idle() && self.idle_key[i].is_none() {
            self.enter_idle(node);
        }
        let old = self.free_at[i];
        if free_at != old {
            self.classes[class].free_at.remove(&(old, node.id));
            self.classes[class].free_at.insert((free_at, node.id));
            self.free_at[i] = free_at;
        }
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
        let k = spec.nodes as usize;
        let req = &spec.per_node;

        // Fast path: exclusive request on a cluster where one class fits —
        // the merged order is just that class's idle set.
        if !spec.shared {
            let mut fitting = self.classes.iter().filter(|c| c.capacity.fits(req));
            if let (Some(class), None) = (fitting.next(), fitting.next()) {
                if class.idle.len() < k {
                    return None;
                }
                return Some(class.idle.iter().take(k).map(|&(_, id)| id).collect());
            }
        }

        // General path: k-way merge over every eligible ordered source.
        let mut sources: Vec<Box<dyn Iterator<Item = PlacementKey> + '_>> = Vec::new();
        if spec.shared {
            sources.push(Box::new(
                self.shared
                    .iter()
                    .copied()
                    .filter(|&(_, nid)| nodes[nid.0 as usize].free().fits(req)),
            ));
        }
        for class in self.classes.iter().filter(|c| c.capacity.fits(req)) {
            sources.push(Box::new(class.idle.iter().copied()));
        }
        let mut its: Vec<_> = sources.into_iter().map(Iterator::peekable).collect();
        let mut picked: Vec<NodeId> = Vec::with_capacity(k);
        while picked.len() < k {
            let mut best: Option<(PlacementKey, usize)> = None;
            for (s, it) in its.iter_mut().enumerate() {
                if let Some(&key) = it.peek() {
                    if best.is_none_or(|(b, _)| key < b) {
                        best = Some((key, s));
                    }
                }
            }
            match best {
                Some((key, s)) => {
                    its[s].next();
                    picked.push(key.1);
                }
                None => return None, // fewer than k candidates exist
            }
        }
        Some(picked)
    }

    /// Earliest time the `head` job could start assuming running jobs end at
    /// their walltime limit: the k-th smallest clamped per-node free time,
    /// computed as `max(now, k-th smallest raw free_at)` over fitting
    /// classes (see the module docs for why the clamp commutes with the
    /// order statistic).
    pub fn shadow_time(&self, head: &JobSpec, now: SimTime) -> SimTime {
        let k = head.nodes as usize;
        assert!(k > 0, "shadow_time of a zero-node job");
        if self.fitting_count(&head.per_node) < k {
            return SimTime::MAX;
        }
        let mut its: Vec<_> = self
            .classes
            .iter()
            .filter(|c| c.capacity.fits(&head.per_node))
            .map(|c| c.free_at.iter().peekable())
            .collect();
        let mut kth = SimTime::ZERO;
        for _ in 0..k {
            let (_, s) = its
                .iter_mut()
                .enumerate()
                .filter_map(|(s, it)| it.peek().map(|&&key| (key, s)))
                .min()
                .expect("fitting_count >= k guarantees k entries");
            kth = its[s].next().expect("peeked").0;
        }
        kth.max(now)
    }
}
