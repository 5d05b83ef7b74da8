//! Warm-container pool hosted in idle node memory (Sec. IV-B).
//!
//! The paper's key cold-start mitigation: instead of purging idle containers
//! to free memory, park them in the node's *unused* memory — it would sit
//! idle anyway, and the batch system can reclaim it at any moment because
//! warm containers are disposable. The pool tracks memory, serves lookups by
//! image, and supports immediate eviction (batch reclaim) and LRU trimming.

use crate::image::ImageId;
use des::SimTime;
use fabric::NodeId;

/// A parked, initialised sandbox.
#[derive(Debug, Clone, PartialEq)]
pub struct WarmContainer {
    pub image: ImageId,
    pub node: NodeId,
    pub memory_mb: u64,
    pub parked_at: SimTime,
}

/// Pool statistics (the warm-rate drives mean invocation latency).
#[derive(Debug, Clone, Copy, Default)]
pub struct PoolStats {
    pub hits: u64,
    pub misses: u64,
    pub evictions: u64,
    pub reclaims: u64,
}

impl PoolStats {
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            f64::NAN
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Warm pool over a set of nodes with per-node memory budgets.
#[derive(Debug, Default)]
pub struct WarmPool {
    containers: Vec<WarmContainer>,
    budgets_mb: std::collections::HashMap<NodeId, u64>,
    stats: PoolStats,
}

impl WarmPool {
    pub fn new() -> Self {
        Self::default()
    }

    /// Set how much idle memory `node` currently donates to the pool. If the
    /// budget shrinks below current occupancy, oldest containers are evicted.
    pub fn set_budget(&mut self, node: NodeId, memory_mb: u64) -> Vec<WarmContainer> {
        self.budgets_mb.insert(node, memory_mb);
        self.trim(node)
    }

    pub fn budget(&self, node: NodeId) -> u64 {
        self.budgets_mb.get(&node).copied().unwrap_or(0)
    }

    pub fn used_mb(&self, node: NodeId) -> u64 {
        self.containers
            .iter()
            .filter(|c| c.node == node)
            .map(|c| c.memory_mb)
            .sum()
    }

    pub fn len(&self) -> usize {
        self.containers.len()
    }
    pub fn is_empty(&self) -> bool {
        self.containers.is_empty()
    }
    pub fn stats(&self) -> PoolStats {
        self.stats
    }

    fn trim(&mut self, node: NodeId) -> Vec<WarmContainer> {
        let budget = self.budget(node);
        let mut evicted = Vec::new();
        while self.used_mb(node) > budget {
            // Evict the least recently parked container on this node.
            let idx = self
                .containers
                .iter()
                .enumerate()
                .filter(|(_, c)| c.node == node)
                .min_by_key(|(_, c)| c.parked_at)
                .map(|(i, _)| i)
                .expect("non-empty while over budget");
            evicted.push(self.containers.remove(idx));
            self.stats.evictions += 1;
        }
        evicted
    }

    /// Park a container. Fails (returns it back) if the node has no room.
    pub fn park(&mut self, c: WarmContainer) -> Result<(), WarmContainer> {
        if self.used_mb(c.node) + c.memory_mb > self.budget(c.node) {
            return Err(c);
        }
        self.containers.push(c);
        Ok(())
    }

    /// Take the most recently parked container for `image` on `node`; a
    /// container on any other node is no use to an executor placed there.
    /// Records hit/miss statistics.
    pub fn take(&mut self, image: ImageId, node: NodeId) -> Option<WarmContainer> {
        let pick = self
            .containers
            .iter()
            .enumerate()
            .filter(|(_, c)| c.image == image && c.node == node)
            .max_by_key(|(_, c)| c.parked_at)
            .map(|(i, _)| i);
        match pick {
            Some(i) => {
                self.stats.hits += 1;
                Some(self.containers.remove(i))
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Nodes that currently host a warm container for `image` — the rFaaS
    /// resource manager targets these first (Sec. IV-B).
    pub fn nodes_with(&self, image: ImageId) -> Vec<NodeId> {
        let mut nodes: Vec<NodeId> = self
            .containers
            .iter()
            .filter(|c| c.image == image)
            .map(|c| c.node)
            .collect();
        nodes.sort();
        nodes.dedup();
        nodes
    }

    /// Batch system reclaims `node`: every warm container there is dropped
    /// immediately ("removed immediately without consequences", Sec. IV-B).
    /// Returns how many were dropped.
    pub fn reclaim_node(&mut self, node: NodeId) -> usize {
        let before = self.containers.len();
        self.containers.retain(|c| c.node != node);
        let dropped = before - self.containers.len();
        self.stats.reclaims += dropped as u64;
        self.budgets_mb.insert(node, 0);
        dropped
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wc(image: u64, node: u32, mb: u64, at: u64) -> WarmContainer {
        WarmContainer {
            image: ImageId(image),
            node: NodeId(node),
            memory_mb: mb,
            parked_at: SimTime::from_secs(at),
        }
    }

    #[test]
    fn park_take_hit_and_miss() {
        let mut pool = WarmPool::new();
        pool.set_budget(NodeId(0), 4096);
        pool.park(wc(1, 0, 1024, 0)).unwrap();
        assert!(pool.take(ImageId(1), NodeId(0)).is_some());
        assert!(pool.take(ImageId(1), NodeId(0)).is_none());
        let s = pool.stats();
        assert_eq!((s.hits, s.misses), (1, 1));
        assert!((s.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn budget_enforced_on_park() {
        let mut pool = WarmPool::new();
        pool.set_budget(NodeId(0), 1000);
        pool.park(wc(1, 0, 800, 0)).unwrap();
        assert!(pool.park(wc(2, 0, 400, 1)).is_err());
    }

    #[test]
    fn shrinking_budget_evicts_lru() {
        let mut pool = WarmPool::new();
        pool.set_budget(NodeId(0), 3000);
        pool.park(wc(1, 0, 1000, 10)).unwrap();
        pool.park(wc(2, 0, 1000, 20)).unwrap();
        pool.park(wc(3, 0, 1000, 30)).unwrap();
        let evicted = pool.set_budget(NodeId(0), 1500);
        assert_eq!(evicted.len(), 2);
        assert_eq!(evicted[0].image, ImageId(1), "oldest evicted first");
        assert_eq!(evicted[1].image, ImageId(2));
        assert_eq!(pool.len(), 1);
    }

    #[test]
    fn prefer_node_honored() {
        let mut pool = WarmPool::new();
        pool.set_budget(NodeId(0), 4096);
        pool.set_budget(NodeId(1), 4096);
        pool.park(wc(1, 0, 100, 5)).unwrap();
        pool.park(wc(1, 1, 100, 1)).unwrap();
        let c = pool.take(ImageId(1), NodeId(1)).unwrap();
        assert_eq!(c.node, NodeId(1), "takes from the requested node only");
        assert!(pool.take(ImageId(1), NodeId(2)).is_none());
        assert_eq!(pool.len(), 1, "node 0's container stays parked");
    }

    #[test]
    fn reclaim_clears_node_and_zeroes_budget() {
        let mut pool = WarmPool::new();
        pool.set_budget(NodeId(0), 4096);
        pool.set_budget(NodeId(1), 4096);
        pool.park(wc(1, 0, 100, 0)).unwrap();
        pool.park(wc(2, 0, 100, 0)).unwrap();
        pool.park(wc(3, 1, 100, 0)).unwrap();
        assert_eq!(pool.reclaim_node(NodeId(0)), 2);
        assert_eq!(pool.stats().reclaims, 2);
        assert_eq!(pool.len(), 1);
        assert_eq!(pool.budget(NodeId(0)), 0);
        assert!(
            pool.park(wc(4, 0, 1, 1)).is_err(),
            "no budget after reclaim"
        );
    }

    #[test]
    fn nodes_with_lists_hosts() {
        let mut pool = WarmPool::new();
        pool.set_budget(NodeId(0), 4096);
        pool.set_budget(NodeId(2), 4096);
        pool.park(wc(7, 0, 10, 0)).unwrap();
        pool.park(wc(7, 2, 10, 0)).unwrap();
        pool.park(wc(8, 2, 10, 0)).unwrap();
        assert_eq!(pool.nodes_with(ImageId(7)), vec![NodeId(0), NodeId(2)]);
        assert_eq!(pool.nodes_with(ImageId(9)), Vec::<NodeId>::new());
    }
}
