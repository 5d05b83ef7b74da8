//! Link- and fabric-level bandwidth sharing.
//!
//! Models each node's NIC as a full-duplex link of fixed capacity and the
//! global fabric as a shared core with a bisection capacity. Active flows
//! register their demand; the effective bandwidth of a flow is its
//! max-min fair share of the tightest resource it crosses. This is the
//! mechanism behind the paper's Fig. 11 observation that a memory-service
//! function adding up to 10 GB/s of traffic shares the network with the
//! batch job.

use std::collections::HashMap;

/// A network endpoint (compute node) identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "node{}", self.0)
    }
}

/// Identifier of a registered flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FlowId(pub u64);

#[derive(Debug, Clone, Copy)]
struct Flow {
    src: NodeId,
    dst: NodeId,
}

/// Fabric-wide bandwidth bookkeeping.
#[derive(Debug)]
pub struct Network {
    /// Per-NIC injection/ejection capacity (bytes/s).
    link_bps: f64,
    /// Aggregate core capacity (bytes/s); flows crossing node boundaries
    /// share it.
    bisection_bps: f64,
    next_flow: u64,
    flows: HashMap<FlowId, Flow>,
}

impl Network {
    /// `link_bps` per node, `bisection_bps` across the core.
    pub fn new(link_bps: f64, bisection_bps: f64) -> Self {
        assert!(link_bps > 0.0 && bisection_bps > 0.0);
        Network {
            link_bps,
            bisection_bps,
            next_flow: 0,
            flows: HashMap::new(),
        }
    }

    /// Aries-like defaults: ~10 GB/s per NIC, large core.
    pub fn aries(nodes: usize) -> Self {
        Network::new(10.2e9, 10.2e9 * (nodes as f64) * 0.6)
    }

    pub fn link_bps(&self) -> f64 {
        self.link_bps
    }

    /// Register a flow between two nodes. Intra-node flows (src == dst) do
    /// not consume fabric resources but are tracked for completeness.
    pub fn open_flow(&mut self, src: NodeId, dst: NodeId) -> FlowId {
        self.next_flow += 1;
        let id = FlowId(self.next_flow);
        self.flows.insert(id, Flow { src, dst });
        id
    }

    pub fn close_flow(&mut self, id: FlowId) -> bool {
        self.flows.remove(&id).is_some()
    }

    pub fn active_flows(&self) -> usize {
        self.flows.len()
    }

    fn flows_at(&self, node: NodeId, outgoing: bool) -> usize {
        self.flows
            .values()
            .filter(|f| {
                f.src != f.dst
                    && (if outgoing {
                        f.src == node
                    } else {
                        f.dst == node
                    })
            })
            .count()
    }

    fn cross_flows(&self) -> usize {
        self.flows.values().filter(|f| f.src != f.dst).count()
    }

    /// Max-min fair bandwidth available to `flow` right now (bytes/s).
    ///
    /// The flow's share is the minimum of its fair share at the source NIC,
    /// the destination NIC, and the fabric core. Intra-node flows are only
    /// bounded by memory bandwidth, which is modelled elsewhere — they get
    /// `f64::INFINITY` here.
    pub fn fair_share_bps(&self, flow: FlowId) -> f64 {
        let Some(f) = self.flows.get(&flow) else {
            return 0.0;
        };
        if f.src == f.dst {
            return f64::INFINITY;
        }
        let at_src = self.link_bps / self.flows_at(f.src, true).max(1) as f64;
        let at_dst = self.link_bps / self.flows_at(f.dst, false).max(1) as f64;
        let core = self.bisection_bps / self.cross_flows().max(1) as f64;
        at_src.min(at_dst).min(core)
    }

    /// Transfer time of `size` bytes on `flow` under current contention,
    /// ignoring propagation latency (add the LogGP cost for that).
    pub fn transfer_time(&self, flow: FlowId, size: usize) -> des::SimTime {
        let bps = self.fair_share_bps(flow);
        if !bps.is_finite() {
            return des::SimTime::ZERO;
        }
        des::SimTime::from_secs_f64(size as f64 / bps)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_flow_gets_full_link() {
        let mut net = Network::new(10e9, 100e9);
        let f = net.open_flow(NodeId(0), NodeId(1));
        assert_eq!(net.fair_share_bps(f), 10e9);
    }

    #[test]
    fn flows_share_source_nic() {
        let mut net = Network::new(10e9, 100e9);
        let f1 = net.open_flow(NodeId(0), NodeId(1));
        let f2 = net.open_flow(NodeId(0), NodeId(2));
        assert_eq!(net.fair_share_bps(f1), 5e9);
        assert_eq!(net.fair_share_bps(f2), 5e9);
        net.close_flow(f1);
        assert_eq!(net.fair_share_bps(f2), 10e9);
    }

    #[test]
    fn flows_share_destination_nic() {
        let mut net = Network::new(10e9, 100e9);
        let f1 = net.open_flow(NodeId(1), NodeId(0));
        let _f2 = net.open_flow(NodeId(2), NodeId(0));
        assert_eq!(net.fair_share_bps(f1), 5e9);
    }

    #[test]
    fn bisection_limits_many_flows() {
        let mut net = Network::new(10e9, 20e9);
        let mut ids = Vec::new();
        for i in 0..8 {
            ids.push(net.open_flow(NodeId(i), NodeId(i + 8)));
        }
        // 8 cross flows share 20 GB/s core: 2.5 each < 10 link.
        for id in &ids {
            assert_eq!(net.fair_share_bps(*id), 2.5e9);
        }
    }

    #[test]
    fn intra_node_flows_are_free() {
        let mut net = Network::new(10e9, 10e9);
        let f = net.open_flow(NodeId(0), NodeId(0));
        assert_eq!(net.fair_share_bps(f), f64::INFINITY);
        assert_eq!(net.transfer_time(f, 1 << 30), des::SimTime::ZERO);
        // And they don't count against the core for others.
        let g = net.open_flow(NodeId(0), NodeId(1));
        assert_eq!(net.fair_share_bps(g), 10e9);
    }

    #[test]
    fn closed_or_unknown_flow_has_no_bandwidth() {
        let mut net = Network::new(10e9, 10e9);
        let f = net.open_flow(NodeId(0), NodeId(1));
        assert!(net.close_flow(f));
        assert!(!net.close_flow(f));
        assert_eq!(net.fair_share_bps(f), 0.0);
    }

    #[test]
    fn transfer_time_scales_with_contention() {
        let mut net = Network::new(10e9, 100e9);
        let f1 = net.open_flow(NodeId(0), NodeId(1));
        let t1 = net.transfer_time(f1, 1_000_000_000);
        let _f2 = net.open_flow(NodeId(0), NodeId(2));
        let t2 = net.transfer_time(f1, 1_000_000_000);
        assert!((t1.as_secs_f64() - 0.1).abs() < 1e-9);
        assert!((t2.as_secs_f64() - 0.2).abs() < 1e-9);
    }
}
